"""Reverse-mode automatic differentiation over numpy arrays.

A small tensor-valued tape: each op returns a new Tensor holding its numpy
value and a closure that routes the upstream gradient to its parents.
All arithmetic is float64. Tensors whose inputs carry no gradient are
returned as constants with no tape entry, so inference-only forward
passes cost plain numpy. A stage of many small ops can instead be one
`fused` node that computes its value and its parents' gradients in plain
numpy.
"""

from __future__ import annotations

import math

import numpy as np


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


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

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def param(value, name=None) -> "Tensor":
        return Tensor(value, requires_grad=True, name=name)

    @property
    def shape(self):
        return self.value.shape

    @property
    def ndim(self):
        return self.value.ndim

    def item(self) -> float:
        return float(self.value)

    def __float__(self) -> float:
        return float(self.value)

    def __repr__(self):
        tag = f" name={self.name}" if self.name else ""
        return f"Tensor(shape={self.value.shape}, grad={self.requires_grad}{tag})"

    # -- backward pass -------------------------------------------------------

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
        if np.shape(grad) != self.value.shape:
            raise ValueError(f"gradient of shape {np.shape(grad)} for a tensor "
                             f"of shape {self.value.shape}")
        if self.grad is None:
            self.grad = np.array(grad, dtype=np.float64)
        else:
            self.grad = self.grad + grad

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        other = as_tensor(other)
        out_value = self.value + other.value
        if not (self.requires_grad or other.requires_grad):
            return Tensor(out_value)

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g, self.value.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g, other.value.shape))

        return Tensor(out_value, True, (self, other), backward)

    __radd__ = __add__

    def __sub__(self, other):
        other = as_tensor(other)
        out_value = self.value - other.value
        if not (self.requires_grad or other.requires_grad):
            return Tensor(out_value)

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g, self.value.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(-g, other.value.shape))

        return Tensor(out_value, True, (self, other), backward)

    def __rsub__(self, other):
        return as_tensor(other) - self

    def __neg__(self):
        if not self.requires_grad:
            return Tensor(-self.value)

        def backward(g):
            self._accumulate(-g)

        return Tensor(-self.value, True, (self,), backward)

    def __mul__(self, other):
        other = as_tensor(other)
        out_value = self.value * other.value
        if not (self.requires_grad or other.requires_grad):
            return Tensor(out_value)

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g * other.value, self.value.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g * self.value, other.value.shape))

        return Tensor(out_value, True, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_tensor(other)
        out_value = self.value / other.value
        if not (self.requires_grad or other.requires_grad):
            return Tensor(out_value)

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g / other.value, self.value.shape))
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-g * self.value / other.value**2, other.value.shape))

        return Tensor(out_value, True, (self, other), backward)

    def __rtruediv__(self, other):
        return as_tensor(other) / self

    def __pow__(self, exponent: float):
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out_value = self.value**exponent
        if not self.requires_grad:
            return Tensor(out_value)

        def backward(g):
            self._accumulate(g * exponent * self.value ** (exponent - 1))

        return Tensor(out_value, True, (self,), backward)

    def __matmul__(self, other):
        other = as_tensor(other)
        out_value = self.value @ other.value
        if not (self.requires_grad or other.requires_grad):
            return Tensor(out_value)
        a, b = self.value, other.value

        def backward(g):
            if self.requires_grad:
                if a.ndim == 1 and b.ndim == 1:
                    ga = g * b
                elif a.ndim == 1:          # (d,) @ (d,m) -> (m,)
                    ga = b @ g
                elif b.ndim == 1:          # (n,d) @ (d,) -> (n,)
                    ga = np.outer(g, b)
                else:                      # (n,d) @ (d,m) -> (n,m)
                    ga = g @ b.T
                self._accumulate(ga.reshape(a.shape))
            if other.requires_grad:
                if a.ndim == 1 and b.ndim == 1:
                    gb = g * a
                elif a.ndim == 1:
                    gb = np.outer(a, g)
                elif b.ndim == 1:
                    gb = a.T @ g
                else:
                    gb = a.T @ g
                other._accumulate(gb.reshape(b.shape))

        return Tensor(out_value, True, (self, other), backward)

    # -- elementwise functions -------------------------------------------------

    def exp(self):
        out_value = np.exp(self.value)
        if not self.requires_grad:
            return Tensor(out_value)

        def backward(g):
            self._accumulate(g * out_value)

        return Tensor(out_value, True, (self,), backward)

    def log(self):
        out_value = np.log(self.value)
        if not self.requires_grad:
            return Tensor(out_value)

        def backward(g):
            self._accumulate(g / self.value)

        return Tensor(out_value, True, (self,), backward)

    def tanh(self):
        out_value = np.tanh(self.value)
        if not self.requires_grad:
            return Tensor(out_value)

        def backward(g):
            self._accumulate(g * (1.0 - out_value**2))

        return Tensor(out_value, True, (self,), backward)

    def sqrt(self):
        out_value = np.sqrt(self.value)
        if not self.requires_grad:
            return Tensor(out_value)

        def backward(g):
            # A zero output passes no gradient, as a zero norm does in the
            # fused nodes; 0.5 / 0 would make it NaN even where g is 0.
            self._accumulate(np.divide(g * 0.5, out_value,
                                       out=np.zeros(np.shape(out_value)),
                                       where=out_value != 0))

        return Tensor(out_value, True, (self,), backward)

    def abs(self):
        out_value = np.abs(self.value)
        if not self.requires_grad:
            return Tensor(out_value)
        sign = np.sign(self.value)

        def backward(g):
            self._accumulate(g * sign)

        return Tensor(out_value, True, (self,), backward)

    # -- reductions ------------------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        out_value = self.value.sum(axis=axis, keepdims=keepdims)
        if not self.requires_grad:
            return Tensor(out_value)
        shape = self.value.shape

        def backward(g):
            if axis is None:
                expanded = np.broadcast_to(g, shape)
            else:
                if not keepdims:
                    g = np.expand_dims(g, axis)
                expanded = np.broadcast_to(g, shape)
            self._accumulate(np.array(expanded))

        return Tensor(out_value, True, (self,), backward)

    def mean(self, axis=None, keepdims=False):
        if axis is None:
            count = self.value.size
        else:
            count = self.value.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) / float(count)

    def logsumexp(self, axis=None):
        """Numerically stable log-sum-exp; the max shift is treated as constant."""
        shift = np.max(self.value, axis=axis, keepdims=True)
        exps = np.exp(self.value - shift)
        total = exps.sum(axis=axis, keepdims=True)
        if axis is not None:
            out_value = np.squeeze(np.log(total) + shift, axis=axis)
        else:
            out_value = (np.log(total) + shift).reshape(())
        out_value = np.asarray(out_value, dtype=np.float64)
        if not self.requires_grad:
            return Tensor(out_value)
        softmax = exps / total

        def backward(g):
            if axis is None:
                self._accumulate(g * softmax)
            else:
                self._accumulate(np.expand_dims(g, axis) * softmax)

        return Tensor(out_value, True, (self,), backward)

    # -- shape ops ---------------------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], tuple):
            shape = shape[0]
        out_value = self.value.reshape(shape)
        if not self.requires_grad:
            return Tensor(out_value)
        original = self.value.shape

        def backward(g):
            self._accumulate(g.reshape(original))

        return Tensor(out_value, True, (self,), backward)

    def transpose(self):
        if self.value.ndim != 2:
            raise ValueError("transpose requires a 2-D tensor")
        out_value = self.value.T
        if not self.requires_grad:
            return Tensor(out_value)

        def backward(g):
            self._accumulate(g.T)

        return Tensor(np.array(out_value), True, (self,), backward)

    def take(self, indices):
        """Gather rows along axis 0; `indices` may be any non-negative
        integer array."""
        idx = np.asarray(indices)
        out_value = self.value[idx]
        if not self.requires_grad:
            return Tensor(out_value)
        shape = self.value.shape

        def backward(g):
            self._accumulate(scatter_rows(idx, g, shape))

        return Tensor(out_value, True, (self,), backward)

    def narrow(self, start: int, stop: int, axis: int = 0):
        """Contiguous slice along `axis`."""
        where = (slice(None),) * axis + (slice(start, stop),)
        out_value = self.value[where]
        if not self.requires_grad:
            return Tensor(out_value)
        shape = self.value.shape

        def backward(g):
            full = np.zeros(shape, dtype=np.float64)
            full[where] = g
            self._accumulate(full)

        return Tensor(out_value, True, (self,), backward)


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def concat(tensors, axis=0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out_value = np.concatenate([t.value for t in tensors], axis=axis)
    if not any(t.requires_grad for t in tensors):
        return Tensor(out_value)
    sizes = [t.value.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(lo, hi)
                t._accumulate(g[tuple(sl)])

    return Tensor(out_value, True, tuple(tensors), backward)


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
