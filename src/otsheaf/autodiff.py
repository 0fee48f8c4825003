"""A minimal reverse-mode tape for exact end-to-end gradients.

A Var wraps an ndarray plus (parent, vjp) edges recorded by each primitive;
backward() walks the tape once in reverse topological order, summing
vector-Jacobian products into .grad.  Only the handful of primitives the
model needs are provided here; operator-level primitives with hand-derived
adjoints (solves, recurrences, matrix functions) live next to the model.
"""

from __future__ import annotations

import numpy as np


class Var:
    """Tape node: a value and how to push gradients to its parents."""

    __slots__ = ("value", "parents", "grad")

    def __init__(self, value, parents=()):
        self.value = np.asarray(value, dtype=np.float64)
        self.parents = tuple(parents)
        self.grad = None


def backward(root: Var) -> None:
    """Accumulate d root / d leaf into .grad over the reachable tape."""
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
        for parent, _ in node.parents:
            stack.append((parent, False))
    for node in order:
        node.grad = None
    root.grad = np.ones_like(root.value)
    for node in reversed(order):
        if node.grad is None:
            continue
        for parent, vjp in node.parents:
            g = vjp(node.grad)
            parent.grad = g if parent.grad is None else parent.grad + g


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
