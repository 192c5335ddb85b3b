"""Independent reference implementations used to freeze expected test values.

Everything here is deliberately written from the definitions, by a different
route than the package code, so the two sides can disagree.
"""

from __future__ import annotations

import itertools
import logging
import math
from bisect import bisect_left
from dataclasses import dataclass, field, fields, is_dataclass, replace
from fractions import Fraction
from types import SimpleNamespace
from typing import Hashable, Iterable, Mapping

import numpy as np
from scipy import sparse
from scipy.optimize import linear_sum_assignment
from scipy.sparse.csgraph import connected_components

from kcoref import evaluation as ev
from kcoref import losses as L
from kcoref import model as m
from kcoref import training as tr
from kcoref.corpus import Document, SpanRef, subword_bucket, tokenize_subwords
from kcoref.losses import LossError, LossWeights

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# The reference tape: a reverse-mode tensor with the general op set, one tape
# node per op. The package's training step runs in closed form; these ops
# compose its references.


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
    """A numpy array plus the bookkeeping needed for backpropagation, with
    the general differentiable op set."""

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
            # closed-form stages; 0.5 / 0 would make it NaN even where g is 0.
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
            self._accumulate(m.scatter_rows(idx, g, shape))

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


def finite_difference(f, x: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function of a flat array."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f(x)
        flat[i] = orig - eps
        lo = f(x)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * eps)
    return grad


def relative_error(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-8)


def softmax_by_hand(logits) -> list[float]:
    exps = [math.exp(v) for v in logits]
    z = sum(exps)
    return [e / z for e in exps]


def enumerate_spans_brute(n: int, max_width: int) -> list[tuple[int, int]]:
    out = []
    for start in range(n):
        for end in range(start, n):
            if end - start + 1 <= max_width:
                out.append((start, end))
    return sorted(out)


# ---------------------------------------------------------------------------
# Span tables as SpanRef lists: the references of the array forms.


def enumerate_candidate_spans_reference(doc, max_width: int) -> list[SpanRef]:
    """`corpus.enumerate_candidate_spans` as SpanRefs, (start, end) order."""
    if max_width < 1:
        raise ValueError("max_width must be >= 1")
    n = len(doc)
    return [SpanRef(start, end)
            for start in range(n)
            for end in range(start, min(start + max_width, n))]


def width_bucket_index(width: int, edges: tuple[int, ...]) -> int:
    """Bucket index for a span width given ascending inclusive upper edges."""
    return bisect_left(edges, width)


def span_layout_reference(spans: list[SpanRef],
                          config: m.ModelConfig) -> m.SpanLayout:
    """`model.span_layout` of a SpanRef list, one span and slot at a time."""
    widths = [s.end - s.start + 1 for s in spans]
    max_width = max(widths)
    tokens = [[min(s.start + k, s.end) for k in range(max_width)]
              for s in spans]
    mask = [[1.0 if k < w else 0.0 for k in range(max_width)]
            for w in widths]
    buckets = [min(width_bucket_index(w, config.width_bucket_edges),
                   config.n_width_buckets - 1) for w in widths]
    return m.SpanLayout(np.array([s.start for s in spans], dtype=np.intp),
                        np.array([s.end for s in spans], dtype=np.intp),
                        np.array(tokens, dtype=np.intp), np.array(mask),
                        np.array(buckets, dtype=np.intp))


def layout_spans(layout: m.SpanLayout) -> list[SpanRef]:
    """The spans of a layout's rows, in row order."""
    return list(map(SpanRef, layout.starts.tolist(), layout.ends.tolist()))


# ---------------------------------------------------------------------------
# Coreference metrics, straight from the definitions.
# Clusterings are sequences of sets of hashable mention ids.


def muc_reference(gold, pred):
    """Vilain link counting via literal partitioning."""

    def side(clusters, other):
        num = den = 0
        for c in clusters:
            cells = []
            rest = set(c)
            for o in other:
                cell = rest & set(o)
                if cell:
                    cells.append(cell)
                    rest -= cell
            cells.extend({m} for m in rest)
            num += len(c) - len(cells)
            den += len(c) - 1
        return num, den

    r_num, r_den = side(gold, pred)
    p_num, p_den = side(pred, gold)
    r = r_num / r_den if r_den else 0.0
    p = p_num / p_den if p_den else 0.0
    f = 2 * p * r / (p + r) if p + r else 0.0
    return r, p, f


def b_cubed_reference(gold, pred):
    """Per-mention overlap averages, via the cluster-pair double sum."""

    def side(a_clusters, b_clusters):
        mentions = set().union(*[set(c) for c in a_clusters]) if a_clusters else set()
        total = Fraction(0)
        for m in mentions:
            a_c = next(set(c) for c in a_clusters if m in c)
            b_c = next((set(c) for c in b_clusters if m in c), {m})
            total += Fraction(len(a_c & b_c), len(a_c))
        return total, len(mentions)

    r_num, r_den = side(gold, pred)
    p_num, p_den = side(pred, gold)
    r = float(r_num / r_den) if r_den else 0.0
    p = float(p_num / p_den) if p_den else 0.0
    f = 2 * p * r / (p + r) if p + r else 0.0
    return r, p, f


def ceaf_e_brute_force(gold, pred):
    """CEAF-e via exhaustive search over one-to-one cluster alignments."""
    gold = [set(c) for c in gold]
    pred = [set(c) for c in pred]
    if not gold and not pred:
        return 1.0, 1.0, 1.0
    if not gold or not pred:
        return 0.0, 0.0, 0.0

    def phi4(a, b):
        return 2.0 * len(a & b) / (len(a) + len(b))

    k = min(len(gold), len(pred))
    best = 0.0
    for g_subset in itertools.permutations(range(len(gold)), k):
        for p_subset in itertools.combinations(range(len(pred)), k):
            total = sum(phi4(gold[gi], pred[pi])
                        for gi, pi in zip(g_subset, p_subset))
            best = max(best, total)
    r = best / len(gold)
    p = best / len(pred)
    f = 2 * p * r / (p + r) if p + r else 0.0
    return r, p, f


def ceaf_e_dense(gold, pred):
    """CEAF-e from the dense gold x pred similarity matrix and one
    Kuhn-Munkres assignment over all of it."""
    gold = [frozenset(c) for c in gold]
    pred = [frozenset(c) for c in pred]
    if not gold and not pred:
        return 1.0, 1.0, 1.0
    if not gold or not pred:
        return 0.0, 0.0, 0.0
    phi = np.zeros((len(gold), len(pred)))
    for i, g in enumerate(gold):
        for j, p in enumerate(pred):
            phi[i, j] = 2.0 * len(g & p) / (len(g) + len(p))
    rows, cols = linear_sum_assignment(phi, maximize=True)
    total = float(phi[rows, cols].sum())
    r = total / len(gold)
    p = total / len(pred)
    f = 2 * p * r / (p + r) if p + r else 0.0
    return r, p, f


class UnionFind:
    """Disjoint sets with path compression and union by size."""

    def __init__(self):
        self.parent: dict[Hashable, Hashable] = {}
        self.size: dict[Hashable, int] = {}

    def find(self, x: Hashable) -> Hashable:
        if x not in self.parent:
            self.parent[x] = x
            self.size[x] = 1
            return x
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: Hashable, b: Hashable) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]

    def groups(self) -> list[set]:
        out: dict[Hashable, set] = {}
        for x in self.parent:
            out.setdefault(self.find(x), set()).add(x)
        return list(out.values())


def ceaf_e_reference(table: ev.Overlap) -> ev.RPF1:
    """`evaluation._ceaf_e`, one block at a time: blocks are labelled by
    `UnionFind`, a 1×1 block aligns its pair, and every larger one goes to
    the Kuhn-Munkres assignment."""
    n_gold, n_pred = len(table.gold_sizes), len(table.pred_sizes)
    if not n_gold and not n_pred:
        return ev.RPF1(1.0, 1.0, 1.0)
    if not n_gold or not n_pred:
        return ev.RPF1(0.0, 0.0, 0.0)
    rows, cols = table.rows, table.cols
    phi = 2.0 * table.counts / (table.gold_sizes[rows]
                                + table.pred_sizes[cols])
    alone = (np.bincount(rows, minlength=n_gold)[rows] == 1) \
        & (np.bincount(cols, minlength=n_pred)[cols] == 1)
    aligned = phi[alone].tolist()
    shared = np.flatnonzero(~alone)
    blocks = UnionFind()  # gold i is node i, pred j is node ~j
    for i, j in zip(rows[shared].tolist(), cols[shared].tolist()):
        blocks.union(i, ~j)
    roots = np.array([blocks.find(i) for i in rows[shared].tolist()],
                     dtype=np.intp)
    _, block = np.unique(roots, return_inverse=True)
    order = np.argsort(block, kind="stable")
    block = block[order]
    row_at, n_rows = _rank_in_block_reference(block, rows[shared][order])
    col_at, n_cols = _rank_in_block_reference(block, cols[shared][order])
    values = phi[shared][order]
    bounds = np.searchsorted(block, np.arange(len(n_rows) + 1)).tolist()
    for b, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        sim = np.zeros((n_rows[b], n_cols[b]))
        sim[row_at[lo:hi], col_at[lo:hi]] = values[lo:hi]
        picked_rows, picked_cols = linear_sum_assignment(sim, maximize=True)
        aligned.extend(sim[picked_rows, picked_cols].tolist())
    total = math.fsum(aligned)
    return ev.RPF1.from_rp(total / n_gold, total / n_pred)


def blocks_reference(table: ev.Overlap) -> tuple[int, np.ndarray]:
    """`evaluation._blocks` by scipy's `connected_components` over a COO
    matrix of the entries."""
    n_gold, n_pred = len(table.gold_sizes), len(table.pred_sizes)
    return connected_components(sparse.coo_matrix(
        (np.ones(len(table.rows)), (table.rows, n_gold + table.cols)),
        shape=(n_gold + n_pred,) * 2), directed=False)


def _rank_in_block_reference(block: np.ndarray, keys: np.ndarray,
                             ) -> tuple[np.ndarray, list[int]]:
    """Each entry's rank among the distinct keys of its block (ascending),
    and the number of distinct keys per block; `block` is sorted."""
    stride = int(keys.max(initial=0)) + 1
    codes, at = np.unique(block * stride + keys, return_inverse=True)
    owner = codes // stride
    return at - np.searchsorted(owner, owner)[at], \
        np.bincount(owner).tolist()


def random_clustering(rng, n_mentions: int, max_clusters: int):
    """Random partition of a subset of mention ids 0..n_mentions-1."""
    mentions = [m for m in range(n_mentions) if rng.random() < 0.9]
    k = rng.integers(1, max_clusters + 1)
    clusters = [[] for _ in range(k)]
    for m in mentions:
        clusters[rng.integers(0, k)].append(m)
    return [set(c) for c in clusters if len(c) >= 2]


# ---------------------------------------------------------------------------
# Corpus scores and evaluation slices, re-pooled and rescored per slice.


def pool_documents(per_doc):
    """Tag mentions with their document index and merge the clusterings."""
    pooled = []
    for i, clustering in enumerate(per_doc):
        for cluster in clustering:
            pooled.append(frozenset((i, mention) for mention in cluster))
    return pooled


def contingency_reference(gold, pred) -> dict:
    """{(i, j): |gold[i] ∩ pred[j]|} over every cluster pair that shares a
    mention, by set intersection."""
    table = {}
    for i, g in enumerate(gold):
        for j, p in enumerate(pred):
            if set(g) & set(p):
                table[i, j] = len(set(g) & set(p))
    return table


def overlap_pooled_reference(gold_docs, pred_docs) -> ev.Overlap:
    """`evaluation.Overlap.pooled` as a three-key `np.lexsort` of both
    sides' mentions by (document, `mention_ids`, side), with list
    comprehensions for the flattening."""
    if len(gold_docs) != len(pred_docs):
        raise ValueError("gold and predicted document counts differ")

    def flatten(docs):
        clusters = [cluster for clustering in docs for cluster in clustering]
        sizes = np.array([len(c) for c in clusters], dtype=np.int64)
        mentions = [mention for cluster in clusters for mention in cluster]
        doc_of = np.repeat(np.arange(len(docs)), [len(c) for c in docs])
        return (mentions, sizes, np.repeat(np.arange(len(clusters)), sizes),
                np.repeat(doc_of, sizes))

    gold_mentions, gold_sizes, gold_cluster, gold_doc = flatten(gold_docs)
    pred_mentions, pred_sizes, pred_cluster, pred_doc = flatten(pred_docs)
    ids = ev.mention_ids(gold_mentions + pred_mentions)
    doc = np.concatenate([gold_doc, pred_doc])
    side = np.repeat([0, 1], [len(gold_mentions), len(pred_mentions)])
    order = np.lexsort((side, ids, doc))
    doc, ids, side = doc[order], ids[order], side[order]
    cluster = np.concatenate([gold_cluster, pred_cluster])[order]
    meet = (doc[1:] == doc[:-1]) & (ids[1:] == ids[:-1])
    repeated = np.flatnonzero(meet & (side[1:] == side[:-1]))
    if len(repeated):
        d = int(doc[repeated].min())
        pred_side = bool(side[repeated][doc[repeated] == d].any())
        raise ValueError(f"document {d}: " + (
            ev._repeated_mention(pred_docs[d], "predicted") if pred_side
            else ev._repeated_mention(gold_docs[d], "gold")))
    at = np.flatnonzero(meet)
    stride = max(len(pred_sizes), 1)
    codes, counts = np.unique(cluster[at] * stride + cluster[at + 1],
                              return_counts=True)
    return ev.Overlap(codes // stride, codes % stride, counts, gold_sizes,
                      pred_sizes)


def score_documents_reference(gold_docs, pred_docs) -> ev.MetricReport:
    if len(gold_docs) != len(pred_docs):
        raise ValueError("gold and predicted document counts differ")
    return ev.score_documents([pool_documents(gold_docs)],
                              [pool_documents(pred_docs)])


def _restrict(clusters, mentions):
    out = []
    for cluster in clusters:
        kept = frozenset(m for m in cluster if m in mentions)
        if kept:
            out.append(kept)
    return out


def _slices_reference(chains_by_doc, pred_docs, name):
    """One slice per key of `chains_by_doc` (per document, (chain, key)
    rows), each re-pooled over the documents and scored on its own."""
    keys = sorted({key for rows in chains_by_doc for _, key in rows
                   if key is not None})
    slices = []
    for key in keys:
        gold_sel, pred_sel = [], []
        for rows, pred in zip(chains_by_doc, pred_docs):
            chains = [c for c, k in rows if k == key]
            mentions = {s for c in chains for s in c}
            gold_sel.append(chains)
            pred_sel.append(_restrict(pred, mentions))
        slices.append(ev.EvalSlice(name(key), sum(map(len, gold_sel)),
                                   score_documents_reference(gold_sel,
                                                             pred_sel)))
    return slices


def slice_by_concept_reference(docs, pred_docs, lexicon_id):
    def label(cluster, labels):
        found = {labels[s] for s in cluster if s in labels}
        return next(iter(found)) if len(found) == 1 else None

    rows = [[(c, label(c, doc.concept_annotations.get(lexicon_id, {})))
             for c in doc.gold_clusters] for doc in docs]
    return _slices_reference(rows, pred_docs, str)


def mean_subwords_per_span_reference(chain, doc, vocab, counts) -> float:
    """`corpus.mean_subwords_per_span` as a total per span, a membership
    test and a lookup per token, and the mean of the totals."""
    totals = []
    for span in chain:
        total = 0
        for token in doc.tokens[span.start:span.end + 1]:
            if token not in counts:
                counts[token] = len(tokenize_subwords(token, vocab))
            total += counts[token]
        totals.append(total)
    if not totals:
        raise ValueError("empty chain")
    return sum(totals) / len(totals)


def slice_by_subword_bucket_reference(docs, pred_docs, vocab, width=1.7,
                                      n_buckets=5):
    def bucket(cluster, doc):
        totals = [sum(len(tokenize_subwords(doc.tokens[i], vocab))
                      for i in range(span.start, span.end + 1))
                  for span in sorted(cluster)]
        return subword_bucket(sum(totals) / len(totals), width, n_buckets)

    rows = [[(c, bucket(c, doc)) for c in doc.gold_clusters] for doc in docs]
    return _slices_reference(
        rows, pred_docs, lambda b: ev.bucket_key(b, width, n_buckets))


def eig2x2(a: float, b: float, c: float):
    """Eigenvalues (desc) of the symmetric matrix [[a, b], [b, c]]."""
    mean = (a + c) / 2.0
    root = math.sqrt(((a - c) / 2.0) ** 2 + b * b)
    return mean + root, mean - root


# ---------------------------------------------------------------------------
# Span-level distances: the definitions `losses.pair_target_distances` and
# `losses.mean_cosine_gap` compute for whole row sets.


def coref_distance(span_i: SpanRef, span_j: SpanRef,
                   gold_clusters: Iterable[frozenset[SpanRef]]) -> int:
    """0 when both spans share a gold cluster, else 1.

    Pairs in different clusters and pairs where either span is unclustered
    both count as distance 1.
    """
    for cluster in gold_clusters:
        if span_i in cluster:
            return 0 if span_j in cluster else 1
    return 1


def knowledge_distance(span_i: SpanRef, span_j: SpanRef,
                       annotations: Mapping[str, Mapping[SpanRef, str]],
                       lexicon_id: str) -> int:
    """0 when both spans carry the same concept from one lexicon, else 1."""
    labels = annotations.get(lexicon_id, {})
    a, b = labels.get(span_i), labels.get(span_j)
    if a is not None and a == b:
        return 0
    return 1


def target_distance(span_i: SpanRef, span_j: SpanRef, doc: Document,
                    weights: LossWeights, unlabeled: str = "strict") -> float:
    """Knowledge-based target distance: alpha_c * d_c + sum alpha_k * d_k.

    With `unlabeled="skip"`, a lexicon's term is dropped for pairs where
    either span carries no concept from that lexicon.
    """
    total = weights.alpha_c * coref_distance(span_i, span_j, doc.gold_clusters)
    for lexicon_id, alpha in weights.alpha_k.items():
        if alpha == 0.0:
            continue
        if unlabeled == "skip":
            labels = doc.concept_annotations.get(lexicon_id, {})
            if span_i not in labels or span_j not in labels:
                continue
        total += alpha * knowledge_distance(span_i, span_j,
                                            doc.concept_annotations, lexicon_id)
    return total


def cosine_distance(u, v) -> float:
    """1 - cos(u, v), in [0, 2]; zero vectors degrade to distance 1."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        log.warning("cosine_distance of a zero vector; returning 1.0")
        return 1.0
    return float(1.0 - np.dot(u, v) / (nu * nv))


# ---------------------------------------------------------------------------
# Projection and corpus statistics, one pair at a time.


def offset_cosine_statistics_reference(records) -> tuple[float, float]:
    """(within-concept, across-concept) mean cosine over every pair of
    records whose offsets are both nonzero; 0.0 for a side with no pair."""
    within, across = [], []
    for i in range(len(records)):
        for j in range(i + 1, len(records)):
            u, v = records[i].offset, records[j].offset
            nu, nv = np.linalg.norm(u), np.linalg.norm(v)
            if nu == 0 or nv == 0:
                continue
            sim = float(np.dot(u, v) / (nu * nv))
            if records[i].concept == records[j].concept:
                within.append(sim)
            else:
                across.append(sim)
    mean = lambda xs: sum(xs) / len(xs) if xs else 0.0
    return mean(within), mean(across)


def confound_share_reference(entities) -> float:
    """Among the pairs of multi-piece (OOV) entities of different concepts,
    the fraction whose last pieces are equal; 0.0 without such a pair."""
    oov = [e for e in entities if len(e.pieces) > 1]
    shared = total = 0
    for i in range(len(oov)):
        for j in range(i + 1, len(oov)):
            if oov[i].concept == oov[j].concept:
                continue
            total += 1
            if oov[i].pieces[-1] == oov[j].pieces[-1]:
                shared += 1
    return shared / total if total else 0.0


# ---------------------------------------------------------------------------
# Retrofitting pair population, as spelled out before it was vectorized.


def pair_set_reference(doc, extra_spans, budget: int, rng) -> list:
    """Sorted gold + extra spans, every pair in combinations order, thinned
    to `budget` by the same seeded draw."""
    spans = sorted(set(doc.gold_spans()) | set(extra_spans))
    pairs = list(itertools.combinations(spans, 2))
    if len(pairs) > budget:
        chosen = np.sort(rng.choice(len(pairs), size=budget, replace=False))
        pairs = [pairs[i] for i in chosen]
    return pairs


def pair_positions_reference(n: int, budget: int, rng) -> tuple:
    """The pool positions (first, second) of every pair i < j < n, listed
    row by row and thinned to `budget` by a sorted draw without replacement
    from `np.random.default_rng(rng)`."""
    order = np.arange(n)
    first, second = np.nonzero(np.less.outer(order, order))
    if len(first) > budget:
        chosen = np.sort(np.random.default_rng(rng).choice(
            len(first), size=budget, replace=False))
        first, second = first[chosen], second[chosen]
    return first, second


# ---------------------------------------------------------------------------
# Span representations and pair scores, one span or pair at a time, on the
# reference tape.


class OrderingError(ValueError):
    """An antecedent was scored against a mention it does not precede."""


def softmax(t: Tensor) -> Tensor:
    """Softmax of a 1-D tensor, max-shifted for stability."""
    shifted = t - float(np.max(t.value))
    exps = shifted.exp()
    return exps / exps.sum()


def attend_span(token_vecs: Tensor, span: SpanRef, enc) -> Tensor:
    """Attention-weighted combination of the span's token vectors."""
    if span.end >= token_vecs.shape[0]:
        raise ValueError(f"span [{span.start}, {span.end}] out of bounds")
    span_vecs = token_vecs.narrow(span.start, span.end + 1)
    weights = softmax(span_vecs @ enc.attention_w)
    return weights @ span_vecs


@dataclass
class SpanRepresentation:
    """The four-part span vector, with the internal vector exposed alone."""

    span: SpanRef
    boundary_start: Tensor
    boundary_end: Tensor
    internal: Tensor
    width_feature: Tensor
    full: Tensor


def build_span_representation(token_vecs: Tensor, span: SpanRef, enc,
                              config: m.ModelConfig) -> SpanRepresentation:
    bucket = width_bucket_index(span.end - span.start + 1,
                                config.width_bucket_edges)
    bucket = min(bucket, config.n_width_buckets - 1)
    start_vec = token_vecs.take(span.start)
    end_vec = token_vecs.take(span.end)
    internal = attend_span(token_vecs, span, enc)
    width_feat = as_tensor(enc.width_embeddings).take(bucket)
    full = concat([start_vec, end_vec, internal, width_feat], axis=0)
    return SpanRepresentation(span, start_vec, end_vec, internal, width_feat,
                              full)


def feed_forward_tape(head: m.FeedForward, x: Tensor) -> Tensor:
    """`model.FeedForward.apply` on the tape; the head may hold arrays or
    tape tensors."""
    w1, b2 = as_tensor(head.w1), as_tensor(head.b2)
    if head.w2 is None:
        return x @ w1 + b2
    return (x @ w1 + as_tensor(head.b1)).tanh() @ as_tensor(head.w2) + b2


def mention_score(rep, scoring) -> Tensor:
    h = rep.full if isinstance(rep, SpanRepresentation) else rep
    return feed_forward_tape(scoring.mention, h)


def pair_features(h_i: Tensor, h_j: Tensor) -> Tensor:
    return concat([h_i, h_j, h_i * h_j], axis=h_i.ndim - 1)


def pair_score(rep_i: SpanRepresentation, rep_j: SpanRepresentation,
               scoring) -> Tensor:
    """s(i, j) = s_m(i) + s_m(j) + s_a(i, j); the dummy antecedent scores 0."""
    if not (rep_j.span < rep_i.span):
        raise OrderingError(
            f"antecedent {rep_j.span} must precede mention {rep_i.span}")
    s_a = feed_forward_tape(scoring.antecedent,
                            pair_features(rep_i.full, rep_j.full))
    return mention_score(rep_i, scoring) + mention_score(rep_j, scoring) + s_a


def antecedent_distribution(pair_scores) -> np.ndarray:
    """Probabilities over [candidates..., dummy]; the dummy scores 0 and is
    the last entry."""
    scores = np.asarray(pair_scores, dtype=np.float64)
    if np.isnan(scores).any():
        raise ValueError("NaN in antecedent scores")
    with_dummy = np.concatenate([scores, [0.0]])
    exps = np.exp(with_dummy - with_dummy.max())
    return exps / exps.sum()


def antecedent_window(k: int, max_antecedents: int) -> range:
    """Indices of the candidates considered as antecedents of candidate k."""
    return range(max(0, k - max_antecedents), k)


# ---------------------------------------------------------------------------
# The three losses in loop form, over explicit spans and distributions.


def cosine_distance_t(u: Tensor, v: Tensor) -> Tensor:
    """Differentiable cosine distance between two vectors."""
    norms = (u * u).sum().sqrt() * (v * v).sum().sqrt()
    return 1.0 - (u * v).sum() / (norms + 1e-30)


def retrofit_loss(docs, pairs_by_doc, internals, weights,
                  unlabeled: str = "strict") -> Tensor:
    """Mean absolute gap between target and cosine distance, summed over
    docs; `pairs_by_doc` maps a document id to its (span, span) pairs."""
    by_id = {d.doc_id: d for d in docs}
    total = Tensor(0.0)
    for doc_id, pairs in pairs_by_doc.items():
        doc = by_id[doc_id]
        if not pairs:
            logging.getLogger(__name__).warning(
                "%s: empty pair set contributes 0", doc.doc_id)
            continue
        vectors = internals[doc.doc_id]
        acc = Tensor(0.0)
        for span_i, span_j in pairs:
            target = target_distance(span_i, span_j, doc, weights, unlabeled)
            gap = Tensor(target) - cosine_distance_t(vectors[span_i],
                                                     vectors[span_j])
            acc = acc + gap.abs()
        total = total + acc / float(len(pairs))
    return total


def scaffold_loss(labeled, internals, scaffold) -> Tensor:
    """Per-document mean concept negative log-likelihood, summed over docs."""
    total = Tensor(0.0)
    for doc_id in sorted(labeled):
        spans = [(s, c) for s, c in labeled[doc_id] if c in scaffold.class_index]
        if not spans:
            continue
        acc = Tensor(0.0)
        for span, concept in spans:
            logits = as_tensor(scaffold.weights) @ internals[doc_id][span]
            nll = logits.logsumexp() - logits.take(scaffold.class_index[concept])
            acc = acc + nll
        total = total + acc / float(len(spans))
    return total


def gold_antecedent_rows(doc, candidates, k: int,
                         window: range) -> tuple[list[int], bool]:
    """Window positions of candidate k's gold antecedents, and whether an
    anaphoric mention lost every gold antecedent to the window."""
    span = candidates.spans[k]
    cluster = next((c for c in doc.gold_clusters if span in c), None)
    if cluster is None:
        return [], False
    rows = [j - window.start for j in window
            if candidates.spans[j] in cluster]
    if rows:
        return rows, False
    return [], any(other < span for other in cluster)


def coref_loss(doc, candidates, distributions,
               max_antecedents: int = 50) -> float:
    """Marginal negative log-likelihood of correct antecedents.

    `distributions[k]` covers candidate k's antecedent window with the dummy
    antecedent last, as `antecedent_distribution` gives it.
    """
    loss, _ = coref_loss_with_misses(doc, candidates, distributions,
                                     max_antecedents)
    return loss


def coref_loss_with_misses(doc, candidates, distributions,
                           max_antecedents: int = 50) -> tuple[float, int]:
    total = 0.0
    misses = 0
    for k in range(len(candidates)):
        window = antecedent_window(k, max_antecedents)
        probs = distributions[k]
        if len(probs) != len(window) + 1:
            raise LossError(f"distribution {k} does not cover its window")
        rows, missed = gold_antecedent_rows(doc, candidates, k, window)
        misses += missed
        mass = probs[rows].sum() if rows else probs[-1]
        total -= math.log(mass)
    return total, misses


# ---------------------------------------------------------------------------
# The closed-form stages, composed from small tape ops: their gradient
# references.


def span_representations_tape(token_vecs: Tensor, layout: m.SpanLayout,
                              enc) -> Tensor:
    """`full` of `model.build_span_representations`."""
    n_spans, max_w = layout.tokens.shape
    mask = layout.mask
    logits = (token_vecs @ as_tensor(enc.attention_w)).take(layout.tokens)
    shift = np.where(mask > 0, logits.value, -np.inf).max(axis=1,
                                                          keepdims=True)
    exps = (logits - shift).exp() * mask
    weights = exps / exps.sum(axis=1, keepdims=True)
    internal = (weights.reshape(n_spans, max_w, 1)
                * token_vecs.take(layout.tokens)).sum(axis=1)
    return concat([token_vecs.take(layout.starts),
                   token_vecs.take(layout.ends), internal,
                   as_tensor(enc.width_embeddings).take(layout.buckets)],
                  axis=1)


def antecedent_nll_tape(full: Tensor, mention_scores: Tensor, rows,
                        pairs: m.AntecedentPairs, numer,
                        head: m.FeedForward) -> Tensor:
    """`losses.antecedent_nll`, with the antecedent FFN applied to the
    concatenated pair features."""
    rows_i, rows_j = rows[pairs.mention], rows[pairs.antecedent]
    s_a = feed_forward_tape(head, pair_features(full.take(rows_i),
                                                full.take(rows_j)))
    pair_scores = s_a + mention_scores.take(rows_i) \
        + mention_scores.take(rows_j)
    slots = concat([pair_scores, Tensor([-np.inf, 0.0])])
    n_pairs = len(pairs.mention)
    numer_grid = np.where(numer, pairs.grid, n_pairs)
    denom = slots.take(pairs.grid).logsumexp(axis=1)
    return (denom - slots.take(numer_grid).logsumexp(axis=1)).sum()


def mean_cosine_gap_tape(full: Tensor, columns: slice, rows, first, second,
                         targets) -> Tensor:
    """`losses.mean_cosine_gap`."""
    v = full.narrow(columns.start, columns.stop, axis=1)
    rows_i, rows_j = rows[first], rows[second]
    norms = (v * v).sum(axis=1).sqrt()
    dots = (v.take(rows_i) * v.take(rows_j)).sum(axis=1)
    distances = 1.0 - dots / (norms.take(rows_i) * norms.take(rows_j)
                              + 1e-30)
    return (Tensor(targets) - distances).abs().mean()


def mean_cosine_gap_reference(full, columns: slice, rows, first, second,
                              targets):
    """`losses.mean_cosine_gap`, forward and backward, with fancy-index
    gathers and out-of-place arithmetic: the package's in-place form must
    give the same bytes."""
    v = full[rows, columns]
    norms = np.sqrt((v * v).sum(axis=1))
    dots = (v[first] * v[second]).sum(axis=1)
    den = norms[first] * norms[second] + 1e-30
    gaps = targets - (1.0 - dots / den)

    def backward(g, g_full, at) -> None:
        g_gaps = g * np.sign(gaps) / float(len(gaps))
        g_dots = np.zeros((len(v), len(v)))
        g_dots[first, second] = g_gaps / den
        g_den = np.zeros((len(v), len(v)))
        g_den[first, second] = -g_gaps * dots / den ** 2
        g_norms = g_den @ norms + g_den.T @ norms
        g_v = g_dots @ v + g_dots.T @ v + np.divide(
            g_norms, norms, out=np.zeros_like(norms),
            where=norms > 0)[:, None] * v
        g_full[at, columns] += g_v

    return float(np.abs(gaps).sum() / float(len(gaps))), backward


def mean_concept_nll_tape(full: Tensor, columns: slice, rows, classes,
                          weights: Tensor) -> Tensor:
    """`losses.mean_concept_nll`."""
    logits = (full.take(rows).narrow(columns.start, columns.stop, axis=1)
              @ as_tensor(weights).transpose())
    onehot = np.zeros((len(rows), weights.shape[0]))
    onehot[np.arange(len(rows)), classes] = 1.0
    true_logits = (logits * Tensor(onehot)).sum(axis=1)
    return (logits.logsumexp(axis=1) - true_logits).mean()


# ---------------------------------------------------------------------------
# The document forward in plain numpy, written with slices, `concatenate`,
# fancy indexing and out-of-place arithmetic: the package gathers with
# `take` and works in place, and must give the same bytes.


def encode_tokens_reference(doc, enc) -> np.ndarray:
    """`model.encode_tokens`' value, one window slice per slot."""
    ids = m.token_ids(doc, enc.vocab)
    radius = enc.window_radius
    n, d = len(ids), enc.d_token
    padded = np.zeros((n + 2 * radius, d))
    padded[radius:radius + n] = enc.embeddings[ids]
    windows = np.concatenate([padded[k:k + n]
                              for k in range(2 * radius + 1)], axis=1)
    return windows @ enc.mixer_w + enc.mixer_b


def span_representations_reference(token_vecs: np.ndarray,
                                   layout: m.SpanLayout, enc) -> np.ndarray:
    """`model.build_span_representations`' value, the boundary vectors
    read as the first and last slot of each span's token block."""
    x = token_vecs
    logits = np.einsum("td,d->t", x, enc.attention_w)[layout.tokens]
    exps = np.exp(logits - logits.max(axis=1, keepdims=True)) * layout.mask
    weights = exps / exps.sum(axis=1, keepdims=True)
    span_tokens = x[layout.tokens]
    return np.concatenate([span_tokens[:, 0], span_tokens[:, -1],
                           np.einsum("sw,swd->sd", weights, span_tokens),
                           enc.width_embeddings[layout.buckets]], axis=1)


def span_representations_backward_reference(token_vecs: np.ndarray,
                                            layout: m.SpanLayout, enc,
                                            g: np.ndarray, rows: np.ndarray
                                            ) -> tuple:
    """`model.build_span_representations`' backward for the gradient `g` of
    the spans `rows`: the token vectors', attention's and width table's
    gradients, from fancy-index gathers, out-of-place arithmetic and
    `np.add.at` row scatters."""
    x, attention, d = token_vecs, enc.attention_w, token_vecs.shape[1]
    logits = np.einsum("td,d->t", x, attention)[layout.tokens]
    exps = np.exp(logits - logits.max(axis=1, keepdims=True)) * layout.mask
    weights = exps / exps.sum(axis=1, keepdims=True)
    row_tokens, row_weights = layout.tokens[rows], weights[rows]
    g_internal = g[:, 2 * d:3 * d]
    g_weights = np.einsum("swd,sd->sw", x[layout.tokens][rows], g_internal)
    g_logits = row_weights * (g_weights - (row_weights * g_weights)
                              .sum(axis=1, keepdims=True))
    g_attention = np.zeros(len(x))
    np.add.at(g_attention, row_tokens, g_logits)
    g_slots = row_weights[:, :, None] * g_internal[:, None, :]
    g_slots[:, 0] += g[:, :d]
    g_slots[:, -1] += g[:, d:2 * d]
    g_x = np.zeros(x.shape)
    np.add.at(g_x, row_tokens, g_slots)
    g_width = np.zeros(enc.width_embeddings.shape)
    np.add.at(g_width, layout.buckets[rows], g[:, 3 * d:])
    return g_x + np.outer(g_attention, attention), g_attention @ x, g_width


def feed_forward_reference(head: m.FeedForward, x: np.ndarray) -> np.ndarray:
    """`model.FeedForward.apply`'s value, its output layer a row-stable
    einsum as there."""
    if head.w2 is None:
        return np.einsum("nd,d->n", x, head.w1) + head.b2
    return np.einsum("nh,h->n", np.tanh(x @ head.w1 + head.b1),
                     head.w2) + head.b2


def feed_forward_backward_reference(head: m.FeedForward, x: np.ndarray,
                                    g: np.ndarray, rows: np.ndarray) -> tuple:
    """`model.FeedForward.apply`'s backward for the output gradient `g`,
    zero outside `rows`: the parameter gradients as a `FeedForward` and the
    input gradient of `rows`, from fancy-index gathers and out-of-place
    arithmetic."""
    if head.w2 is None:
        return (m.FeedForward(w1=x.T @ g, b2=g.sum(axis=0)),
                np.outer(g[rows], head.w1))
    hidden = np.tanh(x @ head.w1 + head.b1)
    g_hidden = np.outer(g[rows], head.w2) * (1.0 - hidden[rows] ** 2)
    grad = m.FeedForward(w1=x[rows].T @ g_hidden, b1=g_hidden.sum(axis=0),
                         w2=hidden.T @ g, b2=g.sum(axis=0))
    return grad, g_hidden @ head.w1.T


def antecedent_head_reference(x: np.ndarray, mention: np.ndarray,
                              antecedent: np.ndarray,
                              head: m.FeedForward) -> tuple:
    """s_a of each pair (x[mention[p]], x[antecedent[p]]), with the pair
    products and the tanh layer (None for a linear head) that its backward
    reads. Its matrix-vector products are row-stable einsums, as in
    `model.pair_scores`."""
    d = x.shape[1]
    products = x[antecedent] * x[mention]
    if head.w2 is None:
        w = head.w1
        return (np.einsum("nd,d->n", x, w[:d])[mention]
                + np.einsum("nd,d->n", x, w[d:2 * d])[antecedent]
                + np.einsum("pd,d->p", products, w[2 * d:])
                + head.b2), products, None
    w1 = head.w1
    hidden = np.tanh((x @ w1[:d])[mention] + (x @ w1[d:2 * d])[antecedent]
                     + products @ w1[2 * d:] + head.b1)
    return np.einsum("ph,h->p", hidden, head.w2) + head.b2, products, hidden


def pair_scores_reference(x: np.ndarray, s: np.ndarray, mention: np.ndarray,
                          antecedent: np.ndarray,
                          head: m.FeedForward) -> np.ndarray:
    """`model.pair_scores`' value."""
    s_a = antecedent_head_reference(x, mention, antecedent, head)[0]
    return s_a + s[mention] + s[antecedent]


def pair_scatter_reference(pairs: m.AntecedentPairs) -> sparse.csr_matrix:
    """The (candidates, 2P) one-hot of [mention, antecedent]: its product
    sums per-pair rows, mention side first, onto their candidates."""
    n_pairs = len(pairs.mention)
    return sparse.csr_matrix(
        (np.ones(2 * n_pairs), (np.concatenate([pairs.mention,
                                                pairs.antecedent]),
                                np.arange(2 * n_pairs))),
        shape=(len(pairs.grid), 2 * n_pairs))


def antecedent_nll_reference(full, mention_scores, rows, pairs, numer, head):
    """`losses.antecedent_nll`, forward and backward, with the antecedent
    head's backward written out inline, its rows gathered by fancy indexing
    and its products out of place: the package's `model.pair_scores` must
    give the same bytes. Its per-candidate sums are a CSR product."""
    x = full[rows]
    scatter = pair_scatter_reference(pairs)
    mention, antecedent = pairs.mention, pairs.antecedent
    inside = pairs.grid[:, :-1] < len(mention)
    d = x.shape[1]
    s_a, products, hidden = antecedent_head_reference(x, mention, antecedent,
                                                      head)
    s = mention_scores[rows]
    slots = pairs.slots(s_a + s[mention] + s[antecedent])
    both = np.stack([slots, np.where(numer, slots, -np.inf)])
    shift = both.max(axis=-1, keepdims=True)
    exps = np.exp(both - shift)
    total = exps.sum(axis=-1, keepdims=True)
    lse, probs = (np.log(total) + shift)[..., 0], exps / total

    def backward(g, g_full, at, g_scores, grad) -> None:
        g_pair = (g * (probs[0] - probs[1]))[:, :-1][inside]
        n_pairs = len(g_pair)
        w1 = head.w1.reshape(3 * d, -1)
        width = w1.shape[1]
        if hidden is None:
            g_layer = g_pair[:, None]
        else:
            g_layer = np.outer(g_pair, head.w2) * (1.0 - hidden ** 2)
            grad.b1[...] = g_layer.sum(axis=0)
            np.matmul(hidden.T, g_pair, out=grad.w2)
        block = np.zeros((2 * n_pairs, 2 * width + 1))
        block[:n_pairs, :width] = g_layer
        block[n_pairs:, width:-1] = g_layer
        block[:n_pairs, -1] = g_pair
        block[n_pairs:, -1] = g_pair
        sums = scatter @ block
        g_u, g_v = sums[:, :width], sums[:, width:-1]
        g_scores[rows] += sums[:, -1]
        partners = x[np.concatenate([antecedent, mention])].reshape(
            2, n_pairs, d)
        partners *= g_layer @ w1[2 * d:].T
        g_full[at] += (g_u @ w1[:d].T + g_v @ w1[d:2 * d].T
                       + scatter @ partners.reshape(2 * n_pairs, d))
        g_w1 = grad.w1.reshape(3 * d, -1)
        np.matmul(x.T, g_u, out=g_w1[:d])
        np.matmul(x.T, g_v, out=g_w1[d:2 * d])
        np.matmul(products.T, g_layer, out=g_w1[2 * d:])
        grad.b2[...] = g_pair.sum()

    return float((lse[0] - lse[1]).sum()), backward


# ---------------------------------------------------------------------------
# The training doc-step on the reference tape, over per-tensor leaves.


def encode_tokens_tape(doc, enc) -> Tensor:
    """`model.encode_tokens`, from take, concat, narrow, @ and +; `enc`
    holds tape tensors."""
    unk = enc.vocab[m.UNK_TOKEN]
    ids = np.array([enc.vocab.get(t, unk) for t in doc.tokens],
                   dtype=np.intp)
    emb = enc.embeddings.take(ids)
    radius = enc.window_radius
    n, d = len(ids), enc.d_token
    if radius == 0:
        windows = emb
    else:
        pad = Tensor(np.zeros((radius, d)))
        padded = concat([pad, emb, pad], axis=0)
        windows = concat([padded.narrow(k, k + n)
                          for k in range(2 * radius + 1)], axis=1)
    return windows @ enc.mixer_w + enc.mixer_b


def document_objective_tape(doc, store, weights, config, objective,
                            rng=None) -> tuple[Tensor, dict[str, Tensor]]:
    """`losses.document_objective`'s combined loss on the reference tape,
    and its leaves: one `Tensor.param` per named tensor of `store`.

    The span table, pruning, gold antecedents, RL pairs and targets and
    the scaffold targets are rebuilt here span by span.
    """
    leaves = {name: Tensor.param(np.array(array), name=name)
              for name, array in store.tensors.items()}
    enc, scoring, scaffold = tr.group_parameters(leaves, store)
    b1, b2, b3 = weights.beta
    with_scaffold = b3 > 0 and scaffold is not None
    enumerated = enumerate_candidate_spans_reference(doc,
                                                     config.max_span_width)
    table = set(enumerated)
    if b2 > 0 or b3 > 0:
        table.update(doc.gold_spans())
    labels = {}
    if with_scaffold:
        labels = doc.concept_annotations.get(objective.scaffold_lexicon, {})
        table.update(labels)
    table = sorted(table)
    row = {span: i for i, span in enumerate(table)}
    full = span_representations_tape(encode_tokens_tape(doc, enc),
                                     span_layout_reference(table, config),
                                     enc)
    scores = feed_forward_tape(scoring.mention, full)
    values = [float(scores.value[row[s]]) for s in enumerated]
    keep = min(len(enumerated), math.ceil(config.prune_ratio * len(doc)))
    kept = sorted(sorted(range(len(enumerated)),
                         key=lambda i: (-values[i], i))[:keep])
    candidates = m.CandidateSet(span_layout_reference(enumerated, config),
                                np.array(kept, dtype=np.intp))
    columns = slice(2 * config.d_token, 3 * config.d_token)

    cl = rl = sl = Tensor(0.0)
    pairs = m.antecedent_pairs(len(candidates), config.max_antecedents)
    if b1 > 0 and len(pairs.mention):
        numer = np.zeros(pairs.grid.shape, dtype=bool)
        for k in range(len(candidates)):
            window = antecedent_window(k, config.max_antecedents)
            gold, _ = gold_antecedent_rows(doc, candidates, k, window)
            numer[k, gold if gold else [-1]] = True
        cl = antecedent_nll_tape(
            full, scores, np.array([row[s] for s in candidates.spans]),
            pairs, numer, scoring.antecedent)

    if b2 > 0:
        if rng is None:
            rng = np.random.default_rng(objective.pair_seed)
        pair_list = pair_set_reference(doc, candidates.spans,
                                       objective.pair_budget, rng)
        if pair_list:
            pool = sorted({span for pair in pair_list for span in pair})
            at = {span: i for i, span in enumerate(pool)}
            rl = mean_cosine_gap_tape(
                full, columns, np.array([row[s] for s in pool]),
                np.array([at[a] for a, _ in pair_list]),
                np.array([at[b] for _, b in pair_list]),
                np.array([target_distance(a, b, doc, weights,
                                          objective.unlabeled_knowledge)
                          for a, b in pair_list]))

    if with_scaffold:
        targets = scaffold_targets_reference(doc, row, scaffold, objective,
                                             candidates.spans)
        if targets:
            rows, classes = map(np.array, zip(*targets))
            sl = mean_concept_nll_tape(full, columns, rows, classes,
                                       scaffold.weights)
    return b1 * cl + b2 * rl + b3 * sl, leaves


def scaffold_targets_reference(doc, row, scaffold, objective,
                               candidate_spans) -> list[tuple[int, int]]:
    """(row[span], class index) of each span the scaffold loss scores, span
    by span in span order: the gold spans and the scaffold lexicon's
    labeled spans, plus `candidate_spans` under the none class when
    unlabeled spans train it."""
    labels = doc.concept_annotations.get(objective.scaffold_lexicon, {})
    pool = set(doc.gold_spans()) | set(labels)
    unlabeled = None
    if objective.scaffold_include_unlabeled:
        pool.update(candidate_spans)
        unlabeled = scaffold.none_class
    return [(row[s], scaffold.class_index[labels.get(s, unlabeled)])
            for s in sorted(pool)
            if labels.get(s, unlabeled) in scaffold.class_index]


def document_gradient_full_table(doc, store, weights, config, objective,
                                 rng=None) -> np.ndarray:
    """The flat gradient of `losses.document_objective`'s total, with the
    span-table gradient over every row of the table.

    The stages are the package's, but the table gradient has the table's
    shape, the mention head's backward and the span representations'
    backward run over all rows, and the RL gradient is scattered into the
    table's size: the rows no loss reads carry zeros through all of it.
    """
    enc, scoring, scaffold = store.groups
    b1, b2, b3 = weights.beta
    with_scaffold = b3 > 0 and scaffold is not None
    index = L.document_index(
        doc, config, with_gold=b2 > 0 or b3 > 0,
        scaffold_lexicon=objective.scaffold_lexicon if with_scaffold else None)
    token_vecs, encode_backward = m.encode_tokens(doc, enc)
    reps, reps_backward = m.build_span_representations(token_vecs,
                                                       index.layout, enc)
    scores, mention_backward = m.mention_scores(reps, scoring)
    candidates = m.prune_mentions(doc, m.enumerated_layout(len(doc), config),
                                  scores[index.enum_rows], config.prune_ratio)
    rows = index.enum_rows[candidates.indices]

    flat = np.zeros(store.buffer().size)
    enc_grad, scoring_grad, scaffold_grad = tr.group_parameters(
        store.named(flat), store)
    g_full = np.zeros(reps.shape)
    every = np.arange(len(g_full))
    if b1 > 0:
        _, cl_backward, _ = L._coref_loss_graph(index, candidates, reps,
                                                scores, scoring, config, rows)
        if cl_backward is not None:
            g_scores = np.zeros(len(scores))
            cl_backward(b1, g_full, rows, g_scores, scoring_grad.antecedent)
            g_full += mention_backward(g_scores, scoring_grad.mention, every)
    if b2 > 0:
        pair_set = L.build_pair_set(
            doc.doc_id, index, rows, objective.pair_budget,
            objective.pair_seed if rng is None else rng)
        _, rl_backward, pool = L._retrofit_loss_graph(
            index, pair_set, reps, enc.internal_columns, weights,
            objective.unlabeled_knowledge)
        if rl_backward is not None:
            g_pool = np.zeros((len(pool), g_full.shape[1]))
            rl_backward(b2, g_pool, np.arange(len(pool)))
            g_full += m.scatter_rows(pool, g_pool, g_full.shape)
    if with_scaffold:
        targets = L.scaffold_targets(index, scaffold, objective, rows)
        if len(targets):
            _, sl_backward = L._scaffold_loss_graph(
                targets, reps, enc.internal_columns, scaffold)
            sl_backward(b3, g_full, targets[:, 0], scaffold_grad.weights)
    encode_backward(reps_backward(g_full, enc_grad, every), enc_grad)
    return flat


def _tape_group(group):
    """A parameter group with each of its arrays as a tape leaf."""
    if group is None:
        return None
    changes = {}
    for f in fields(group):
        value = getattr(group, f.name)
        if isinstance(value, np.ndarray):
            changes[f.name] = Tensor.param(value)
        elif is_dataclass(value):
            changes[f.name] = _tape_group(value)
    return replace(group, **changes)


def _leaf_views(tape_group, grad_group):
    """(tape leaf, gradient view) for each parameter of two matching
    groups."""
    for f in fields(tape_group) if tape_group is not None else ():
        leaf = getattr(tape_group, f.name)
        if isinstance(leaf, Tensor):
            yield leaf, getattr(grad_group, f.name)
        elif is_dataclass(leaf):
            yield from _leaf_views(leaf, getattr(grad_group, f.name))


def on_tape(build):
    """A `training.LossBuilder` from `build(enc, scoring, scaffold)`, a
    scalar on the reference tape over leaves on the parameter arrays; the
    objective's backward copies the leaves' gradients into the gradient
    views."""

    def builder(*groups):
        tape = [_tape_group(group) for group in groups]
        root = build(*tape)

        def backward(*grads):
            root.backward()
            for tape_group, grad_group in zip(tape, grads):
                for leaf, view in _leaf_views(tape_group, grad_group):
                    if leaf.grad is not None:
                        view[...] = leaf.grad

        return [SimpleNamespace(total=float(root.value), backward=backward)]

    return builder


# ---------------------------------------------------------------------------
# Antecedent decoding, one candidate at a time.


def select_antecedent(pair_scores):
    """Argmax of one window against the implicit zero-scored dummy.

    Returns the window-relative index of the chosen antecedent, or None for
    the dummy. Ties break toward the dummy, then toward the nearest (latest)
    antecedent.
    """
    if len(pair_scores) == 0:
        return None
    best = pair_scores.max()
    if best <= 0.0:
        return None
    ties = np.flatnonzero(pair_scores == best)
    return int(ties[-1])


def pair_score_value(h_i: np.ndarray, h_j: np.ndarray, scoring) -> float:
    """s(i, j) of one pair of span vectors, from one-row FFN calls."""
    s_a = feed_forward_tape(scoring.antecedent,
                            pair_features(Tensor(h_i), Tensor(h_j)))
    s_i = feed_forward_tape(scoring.mention, Tensor(h_i))
    s_j = feed_forward_tape(scoring.mention, Tensor(h_j))
    return float(s_a.value) + float(s_i.value) + float(s_j.value)


def predict_antecedents_reference(doc, store, config):
    """Per-candidate decode, scoring one pair per call."""
    if len(doc) == 0:
        return {}
    enc, scoring, _ = store.groups
    token_vecs, _ = m.encode_tokens(doc, enc)
    spans = enumerate_candidate_spans_reference(doc, config.max_span_width)
    layout = span_layout_reference(spans, config)
    full, _ = m.build_span_representations(token_vecs, layout, enc)
    scores, _ = m.mention_scores(full, scoring)
    candidates = m.prune_mentions(doc, layout, scores, config.prune_ratio)

    links = {}
    row = {s: i for i, s in enumerate(spans)}
    cand_rows = [row[s] for s in candidates.spans]
    for k, span in enumerate(candidates.spans):
        window = antecedent_window(k, config.max_antecedents)
        pair_scores = np.array([
            pair_score_value(full[cand_rows[k]].copy(),
                             full[cand_rows[j]].copy(), scoring)
            for j in window])
        if np.isnan(pair_scores).any():
            raise ValueError(f"{doc.doc_id}: NaN antecedent score")
        pick = select_antecedent(pair_scores)
        links[span] = None if pick is None \
            else candidates.spans[window.start + pick]
    return links


def decode_clusters_reference(links) -> list[frozenset]:
    """Connected components of the non-dummy links, grown one link at a
    time, singletons dropped, sorted by their first span."""
    clusters: list[set] = []
    for mention, antecedent in links.items():
        if antecedent is None:
            continue
        touched = [c for c in clusters if mention in c or antecedent in c]
        merged = {mention, antecedent}.union(*touched)
        clusters = [c for c in clusters if c not in touched] + [merged]
    return sorted((frozenset(c) for c in clusters if len(c) >= 2),
                  key=lambda c: sorted(c)[0])


# ---------------------------------------------------------------------------
# The adaptive-moment update, one tensor at a time.


@dataclass
class AdamMoments:
    """Per-tensor first/second moments, created at a tensor's first step."""

    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def optimizer_step_reference(tensors: dict, grads: dict, base: float,
                             task: float, state: AdamMoments) -> None:
    """One adaptive-moment update of each named array, in place: at rate
    `task` for a scorer or scaffold tensor, `base` for any other."""
    state.t += 1
    for name, grad in grads.items():
        if name not in state.m:
            state.m[name] = np.zeros_like(grad)
            state.v[name] = np.zeros_like(grad)
        state.m[name] = state.beta1 * state.m[name] + (1 - state.beta1) * grad
        state.v[name] = state.beta2 * state.v[name] \
            + (1 - state.beta2) * grad**2
        m_hat = state.m[name] / (1 - state.beta1**state.t)
        v_hat = state.v[name] / (1 - state.beta2**state.t)
        rate = task if name.startswith(("scorer.", "scaffold.")) else base
        tensors[name] -= rate * m_hat / (
            np.sqrt(v_hat) + state.epsilon)
