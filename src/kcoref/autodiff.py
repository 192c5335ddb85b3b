"""Reverse-mode automatic differentiation: the tape's node type.

A Tensor holds a numpy value and, when it needs a gradient, the closure
that routes its upstream gradient to its parents. Training builds one
`fused` node per doc-step: it computes its value in plain numpy and its
parents' gradients in closed form.
"""

from __future__ import annotations

import math

import numpy as np


class Tensor:
    """A numpy array plus the bookkeeping needed for backpropagation."""

    __slots__ = ("value", "grad", "requires_grad", "_parents", "_backward", "name")

    def __init__(self, value, requires_grad=False, _parents=(), _backward=None,
                 name=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = _parents
        self._backward = _backward
        self.name = name

    def backward(self) -> None:
        """Backpropagate from this (scalar) tensor through the tape."""
        if self.value.ndim != 0:
            raise ValueError("backward() requires a scalar tensor")
        topo = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.value)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def _accumulate(self, grad: np.ndarray) -> None:
        # A first gradient is adopted, not copied: no backward writes into
        # an array it has passed on.
        if np.shape(grad) != self.value.shape:
            raise ValueError(f"gradient of shape {np.shape(grad)} for a tensor "
                             f"of shape {self.value.shape}")
        if self.grad is None:
            self.grad = np.asarray(grad, dtype=np.float64)
        else:
            self.grad = self.grad + grad


def scatter_rows(index, values: np.ndarray, shape: tuple) -> np.ndarray:
    """An array of `shape` whose row r sums the rows of `values` at the
    positions where `index` is r: the backward of gathering rows `index`.

    One bincount over flat (row, column) positions adds them in input
    order, as np.add.at would.
    """
    rows, width = shape[0], math.prod(shape[1:])
    flat = np.asarray(index).reshape(-1)
    if width != 1:
        flat = (flat[:, None] * width
                + np.arange(width, dtype=np.intp)).reshape(-1)
    full = np.bincount(flat, weights=np.reshape(values, -1),
                       minlength=rows * width)
    return full.reshape(shape)


def fused(value, parents, backward) -> Tensor:
    """One tape node with a hand-written backward.

    `backward(g)` returns one gradient per parent, each of that parent's
    shape. When no parent needs a gradient, `value` comes back as a
    constant with no tape entry.
    """
    parents = tuple(parents)
    if not any(p.requires_grad for p in parents):
        return Tensor(value)

    def route(g):
        for parent, grad in zip(parents, backward(g)):
            if parent.requires_grad:
                parent._accumulate(grad)

    return Tensor(value, True, parents, route)
