"""A minimal reverse-mode tape for exact end-to-end gradients.

A Var wraps an ndarray plus (parent, vjp) edges recorded by each primitive;
backward() walks the tape once in reverse topological order, summing
vector-Jacobian products into .grad.  backward() consumes the tape: once a
node's VJPs have run, its edges and its gradient are dropped, so the
closures and the arrays they hold are freed as the walk goes.  Leaves keep
their gradients; build a new tape to differentiate again.  Only the
handful of primitives the model needs are provided here; operator-level
primitives with hand-derived adjoints (solves, recurrences, matrix
functions) live next to the model.
"""

from __future__ import annotations

import numpy as np


class Var:
    """Tape node: a value and how to push gradients to its parents."""

    __slots__ = ("value", "parents", "grad", "__weakref__")

    def __init__(self, value, parents=()):
        self.value = np.asarray(value, dtype=np.float64)
        self.parents = tuple(parents)
        self.grad = None


def _topological(root: Var) -> list[Var]:
    """Every node reachable from root, each after all of its parents."""
    order: list[Var] = []
    seen: set[int] = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        stack.extend((parent, False) for parent, _ in node.parents)
    return order


def _push(node: Var, owned: set[int]) -> None:
    """Add node's VJPs into its parents' gradients, then cut its edges.

    A VJP returns its upstream gradient, a view of it, or an array that
    nothing but the tape reads again.  A parent's first gradient is kept
    as the VJP returned it.  owned holds the ids of the parents whose
    gradient only the tape holds: a first gradient that shares no memory
    with the upstream one, or a sum the tape made.  A later gradient is
    added in place into an owned one; into any other it is added out of
    place, and the sum is owned from then on.
    """
    if node.grad is not None:
        for parent, vjp in node.parents:
            g = vjp(node.grad)
            if parent.grad is None:
                parent.grad = g
                if not np.may_share_memory(g, node.grad):
                    owned.add(id(parent))
            elif id(parent) in owned:
                parent.grad += g
            else:
                parent.grad = parent.grad + g
                owned.add(id(parent))
    owned.discard(id(node))
    node.parents = ()
    node.grad = None


def backward(root: Var) -> None:
    """Accumulate d root / d leaf into .grad over the reachable tape.

    Consumes the tape: every node reached that has parents (root
    included) leaves with parents == () and grad None, as soon as its VJPs
    have run.  Leaves, the nodes without parents, keep their gradients.
    Differentiating again needs a new tape.
    """
    order = _topological(root)
    for node in order:
        node.grad = None
    root.grad = np.ones_like(root.value)
    owned: set[int] = set()
    while order:
        node = order.pop()
        if node.parents:
            _push(node, owned)


class shared_vjp:
    """Memoize a vjp computation shared by several parents of one node.

    backward() hands every parent the same upstream gradient object, so
    identity of the incoming array is a sound cache key.
    """

    def __init__(self, fn):
        self.fn = fn
        self._g = None
        self._out = None

    def __call__(self, g):
        if self._g is not g:
            self._out = self.fn(g)
            self._g = g
        return self._out


def linear(x: Var, W: Var) -> Var:
    """x @ W.T for row-major feature matrices."""
    out = x.value @ W.value.T
    return Var(out, [(x, lambda g: g @ W.value),
                     (W, lambda g: g.T @ x.value)])


def relu(x: Var) -> Var:
    mask = x.value > 0
    return Var(np.where(mask, x.value, 0.0), [(x, lambda g: g * mask)])


def concat_cols(a: Var, b: Var) -> Var:
    ka = a.value.shape[1]
    out = np.concatenate([a.value, b.value], axis=1)
    return Var(out, [(a, lambda g: g[:, :ka]), (b, lambda g: g[:, ka:])])
