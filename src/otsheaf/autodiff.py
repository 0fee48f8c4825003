"""A minimal reverse-mode tape for exact end-to-end gradients.

A Var wraps an ndarray, its parents and one VJP that returns every
parent's gradient at once.  Which nodes are differentiated is decided
when each node is built: a Var built without parents is a leaf; a parent
that is a plain array, or a Var with no path to a leaf, is a constant;
and a node with no live parent is itself a constant, which drops its
parents and its VJP at once, so its closure and the arrays it holds are
freed before backward runs.  A live node keeps its constant parents'
slots as None, and its VJP is passed the mask of which parents are live,
so it can skip the gradients nothing reads.

backward() walks the live tape once in reverse topological order,
summing each VJP's gradients into the parents' .grad in parent order.
It consumes the tape: once a node's VJP has run, its parents, its VJP
and its gradient are dropped.  Leaves keep their gradients; build a new
tape to differentiate again.  Only the handful of primitives the model
needs are provided here; operator-level primitives with hand-derived
adjoints (solves, recurrences, matrix functions) live next to the model.
"""

from __future__ import annotations

import numpy as np


class Var:
    """Tape node: a value, its live parents and the VJP that serves them.

    vjp(g, live) maps the upstream gradient g to one gradient per parent,
    in parent order; live[k] says whether parent k needs one, and the
    entry of a parent that does not is ignored.
    """

    __slots__ = ("value", "parents", "vjp", "live", "grad", "__weakref__")

    def __init__(self, value, parents=(), vjp=None):
        self.value = np.asarray(value, dtype=np.float64)
        mask = [isinstance(p, Var) and p.live for p in parents]
        self.live = any(mask) or not parents
        if any(mask):
            self.parents = tuple(p if k else None
                                 for p, k in zip(parents, mask))
            self.vjp = vjp
        else:
            self.parents = ()
            self.vjp = None
        self.grad = None


def value_of(x) -> np.ndarray:
    """The array a parent stands for: a Var's value, or x as float64."""
    return x.value if isinstance(x, Var) else np.asarray(x, dtype=np.float64)


def _topological(root: Var) -> list[Var]:
    """Every live node reachable from root, each after all of its parents."""
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
        stack.extend((parent, False) for parent in node.parents
                     if parent is not None)
    return order


def _push(node: Var, owned: set[int]) -> None:
    """Add node's VJP into its live parents' gradients, then cut its edges.

    Each gradient the VJP returns is its upstream gradient, a view of it,
    or an array that nothing but the tape reads again.  A parent's first
    gradient is kept as the VJP returned it.  owned holds the ids of the
    parents whose gradient only the tape holds: a first gradient that
    shares no memory with the upstream one, or a sum the tape made.  A
    later gradient is added in place into an owned one; into any other it
    is added out of place, and the sum is owned from then on.
    """
    if node.grad is not None:
        live = tuple(parent is not None for parent in node.parents)
        grads = node.vjp(node.grad, live)
        for parent, g in zip(node.parents, grads):
            if parent is None:
                continue
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
    node.vjp = None
    node.grad = None


def backward(root: Var) -> None:
    """Accumulate d root / d leaf into .grad over the reachable live tape.

    Consumes the tape: every node reached that has parents (root
    included) leaves with parents == () and grad None, as soon as its VJP
    has run.  Leaves, the nodes without parents, keep their gradients.
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


def linear(x: Var, W: Var) -> Var:
    """x @ W.T for row-major feature matrices."""
    return Var(x.value @ W.value.T, (x, W),
               lambda g, live: (g @ W.value, g.T @ x.value))


def relu(x: Var) -> Var:
    mask = x.value > 0
    return Var(np.where(mask, x.value, 0.0), (x,),
               lambda g, live: (g * mask,))

