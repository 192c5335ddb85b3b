"""Token encoder, span representations, and mention/antecedent scoring.

The encoder is a windowed linear mixer over learned token embeddings: each
token's vector is a linear map of the embeddings in a symmetric window
around it. Span representations concatenate the two boundary vectors, an
attention-weighted vector over the span's tokens, and a width-bucket
feature. Scoring heads are small feed-forward networks.

Each stage runs in plain numpy and returns its value together with its
backward: a closure that turns the value's gradient into the gradients of
its inputs and parameters, in closed form. `scipy.sparse` is imported
when a CL backward first reads an antecedent-pair scatter, so prediction
never loads it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .corpus import (Document, SpanRef, check_field,
                     enumerate_candidate_spans)

UNK_TOKEN = "<unk>"

Backward = Callable[..., object]


@dataclass
class ModelConfig:
    d_token: int = 16
    d_width: int = 4
    window_radius: int = 2
    scorer_hidden: int = 16
    width_bucket_edges: tuple[int, ...] = (1, 2, 3, 4, 7)
    max_span_width: int = 10
    prune_ratio: float = 0.4
    max_antecedents: int = 50

    def __post_init__(self):
        for name, low in (("d_token", 1), ("d_width", 0),
                          ("window_radius", 0), ("scorer_hidden", 0),
                          ("max_span_width", 1), ("max_antecedents", 1)):
            check_field(ValueError, name, getattr(self, name), "integer", low)
        check_field(ValueError, "prune_ratio", self.prune_ratio, "fraction")
        edges = check_field(ValueError, "width_bucket_edges",
                            self.width_bucket_edges, "list")
        for i, edge in enumerate(edges):
            check_field(ValueError, f"width_bucket_edges[{i}]", edge,
                        "integer", 1)
        if any(a >= b for a, b in zip(edges, edges[1:])):
            raise ValueError(f"width_bucket_edges must be strictly "
                             f"increasing, not {edges}")
        self.width_bucket_edges = tuple(edges)

    @property
    def n_width_buckets(self) -> int:
        return len(self.width_bucket_edges) + 1

    @property
    def span_dim(self) -> int:
        return 3 * self.d_token + self.d_width


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


@dataclass
class FeedForward:
    """One-hidden-layer tanh network, or a plain linear map when hidden=0."""

    w1: np.ndarray
    b2: np.ndarray
    b1: np.ndarray | None = None
    w2: np.ndarray | None = None

    def apply(self, x: np.ndarray) -> tuple[np.ndarray, Backward]:
        """The network on the rows of `x`, and its backward: given the
        output gradient `g`, zero outside `rows`, it writes the parameter
        gradients into `grad`, a FeedForward of views, and returns the input
        gradient of `rows`. The output layer sums all of `g`, zeros too:
        without them its sums would differ in the last bits."""
        if self.w2 is None:
            def linear_backward(g, grad, rows):
                np.matmul(x.T, g, out=grad.w1)
                grad.b2[...] = g.sum(axis=0)
                return np.outer(g[rows], self.w1)

            return x @ self.w1 + self.b2, linear_backward
        hidden = np.tanh(x @ self.w1 + self.b1)

        def backward(g, grad, rows):
            g_hidden = np.outer(g[rows], self.w2) * (1.0 - hidden[rows] ** 2)
            np.matmul(x[rows].T, g_hidden, out=grad.w1)
            grad.b1[...] = g_hidden.sum(axis=0)
            np.matmul(hidden.T, g, out=grad.w2)
            grad.b2[...] = g.sum(axis=0)
            return g_hidden @ self.w1.T

        return hidden @ self.w2 + self.b2, backward


@dataclass
class EncoderParams:
    """Encoder tensors plus the token-to-row vocabulary."""

    embeddings: np.ndarray
    mixer_w: np.ndarray
    mixer_b: np.ndarray
    attention_w: np.ndarray
    width_embeddings: np.ndarray
    vocab: Mapping[str, int]

    @property
    def d_token(self) -> int:
        return self.embeddings.shape[1]

    @property
    def window_radius(self) -> int:
        span = self.mixer_w.shape[0] // self.d_token
        return (span - 1) // 2

    @property
    def internal_columns(self) -> slice:
        """The internal-vector block of a span representation's columns."""
        return slice(2 * self.d_token, 3 * self.d_token)


@dataclass
class ScoringParams:
    mention: FeedForward
    antecedent: FeedForward


@dataclass
class CandidateSet:
    """Pruned candidate mentions in (start, end) order: the rows `indices`
    of `layout`, the span table they were pruned from (None for a document
    without spans).

    Their `SpanRef`s are built on first use of `spans`, so a caller that
    works on rows builds none.
    """

    layout: SpanLayout | None
    indices: np.ndarray

    def __len__(self) -> int:
        return len(self.indices)

    @functools.cached_property
    def spans(self) -> list[SpanRef]:
        if self.layout is None:
            return []
        return list(map(SpanRef, self.layout.starts[self.indices].tolist(),
                        self.layout.ends[self.indices].tolist()))


def token_ids(doc: Document, vocab: Mapping[str, int]) -> np.ndarray:
    """The vocabulary row of each token of `doc` (`UNK_TOKEN`'s when
    unknown), read-only; kept on `doc` with the vocabulary object they were
    read from, and read again only for another one."""
    held = doc.cached("token_ids", lambda: [None, None])
    if held[0] is not vocab:
        unk = vocab[UNK_TOKEN]
        ids = np.array([vocab.get(t, unk) for t in doc.tokens], dtype=np.intp)
        ids.flags.writeable = False
        held[:] = vocab, ids
    return held[1]


def encode_tokens(doc: Document,
                  enc: EncoderParams) -> tuple[np.ndarray, Backward]:
    """Per-token vectors: window-concatenated embeddings through one linear
    map; the backward writes the encoder's three gradients into `grad`."""
    ids = token_ids(doc, enc.vocab)
    radius = enc.window_radius
    n, d = len(ids), enc.d_token
    padded = np.zeros((n + 2 * radius, d))
    padded[radius:radius + n] = enc.embeddings[ids]
    windows = np.concatenate([padded[k:k + n]
                              for k in range(2 * radius + 1)], axis=1)

    def backward(g: np.ndarray, grad: EncoderParams) -> None:
        g_windows = g @ enc.mixer_w.T
        np.matmul(windows.T, g, out=grad.mixer_w)
        grad.mixer_b[...] = g.sum(axis=0)
        # Window k reads padded rows k..k+n-1; the slots add in order.
        g_padded = np.zeros(padded.shape)
        for k in range(2 * radius + 1):
            g_padded[k:k + n] += g_windows[:, k * d:(k + 1) * d]
        grad.embeddings[...] = scatter_rows(ids, g_padded[radius:radius + n],
                                            enc.embeddings.shape)

    return windows @ enc.mixer_w + enc.mixer_b, backward


@dataclass(frozen=True)
class SpanLayout:
    """A span table as index arrays, with the gather plan of
    `build_span_representations`.

    It depends only on the spans and the width buckets, so a caller that
    represents the same spans repeatedly can build it once.
    """

    starts: np.ndarray
    ends: np.ndarray
    tokens: np.ndarray   # (spans, max width) token per slot, end repeated
    mask: np.ndarray     # 1.0 on the slots inside the span
    buckets: np.ndarray  # width bucket per span

    def __len__(self) -> int:
        return len(self.starts)


def span_layout(starts: np.ndarray, ends: np.ndarray,
                config: ModelConfig) -> SpanLayout:
    """The layout of the spans [starts[i], ends[i]], in that order."""
    if len(starts) == 0:
        raise ValueError("no spans to represent")
    widths = ends - starts + 1
    offsets = np.arange(int(widths.max()), dtype=np.intp)
    tokens = np.minimum(starts[:, None] + offsets[None, :], ends[:, None])
    mask = (offsets[None, :] < widths[:, None]).astype(np.float64)
    buckets = np.minimum(np.searchsorted(config.width_bucket_edges, widths),
                         config.n_width_buckets - 1)
    return SpanLayout(starts, ends, tokens, mask, buckets)


def enumerated_layout(n_tokens: int, config: ModelConfig) -> SpanLayout:
    """The layout of every span of a `n_tokens`-token document up to
    `config.max_span_width` wide, in (start, end) order.

    It depends only on the length and the span rule, so documents of one
    length share one layout, built on first use and kept among the 128
    most recently used; its arrays are read-only.
    """
    return _enumerated_layout(n_tokens, config.max_span_width,
                              tuple(config.width_bucket_edges))


@functools.lru_cache(maxsize=128)
def _enumerated_layout(n_tokens: int, max_span_width: int,
                       width_bucket_edges: tuple[int, ...]) -> SpanLayout:
    starts, ends = enumerate_candidate_spans(range(n_tokens), max_span_width)
    layout = span_layout(starts, ends, ModelConfig(
        max_span_width=max_span_width, width_bucket_edges=width_bucket_edges))
    for array in (layout.starts, layout.ends, layout.tokens, layout.mask,
                  layout.buckets):
        array.flags.writeable = False
    return layout


def build_span_representations(token_vecs: np.ndarray, layout: SpanLayout,
                               enc: EncoderParams,
                               ) -> tuple[np.ndarray, Backward]:
    """Every span's representation, one row per span of `layout`: [start
    vector, end vector, internal vector, width feature].

    The internal vector, the `enc.internal_columns` block, weighs the
    span's token vectors by a softmax of their attention logits over the
    slots inside the span. The backward takes the gradient of the spans
    `rows` alone, writes the attention and width gradients into `grad` and
    returns the token vectors' gradient.
    """
    tokens, mask = layout.tokens, layout.mask
    x, attention = token_vecs, enc.attention_w
    table = enc.width_embeddings
    d = x.shape[1]

    logits = (x @ attention)[tokens]
    # A padding slot repeats the end token, so each row's max is a slot's.
    exps = np.exp(logits - logits.max(axis=1, keepdims=True)) * mask
    weights = exps / exps.sum(axis=1, keepdims=True)
    span_tokens = x[tokens]
    full = np.concatenate([span_tokens[:, 0], span_tokens[:, -1],
                           np.einsum("sw,swd->sd", weights, span_tokens),
                           table[layout.buckets]], axis=1)

    def backward(g: np.ndarray, grad: EncoderParams,
                 rows: np.ndarray) -> np.ndarray:
        row_tokens, row_weights = tokens[rows], weights[rows]
        g_internal = g[:, 2 * d:3 * d]
        g_weights = np.einsum("swd,sd->sw", span_tokens[rows], g_internal)
        g_logits = row_weights * (g_weights - (row_weights * g_weights)
                                  .sum(axis=1, keepdims=True))
        g_attention = np.bincount(row_tokens.reshape(-1),
                                  g_logits.reshape(-1), minlength=len(x))
        # Slot 0 of a span is its start token and the last slot its end
        # token, so one scatter over the slots also carries the boundaries.
        g_slots = row_weights[:, :, None] * g_internal[:, None, :]
        g_slots[:, 0] += g[:, :d]
        g_slots[:, -1] += g[:, d:2 * d]
        g_x = scatter_rows(row_tokens, g_slots, x.shape)
        np.matmul(g_attention, x, out=grad.attention_w)
        grad.width_embeddings[...] = scatter_rows(
            layout.buckets[rows], g[:, 3 * d:], table.shape)
        return g_x + np.outer(g_attention, attention)

    return full, backward


def mention_scores(reps: np.ndarray,
                   scoring: ScoringParams) -> tuple[np.ndarray, Backward]:
    """s_m of every span representation (a row of `reps`), and the mention
    head's backward (`FeedForward.apply`)."""
    return scoring.mention.apply(reps)


def prune_mentions(doc: Document, spans: SpanLayout,
                   scores: np.ndarray, prune_ratio: float) -> CandidateSet:
    """Keep the ceil(ratio * document length) best-scored spans of a layout
    in (start, end) order.

    Ties break toward earlier (start, end) position; the result is returned
    in position order.
    """
    if len(scores) != len(spans):
        raise ValueError("one score per span required")
    keep = min(len(spans), math.ceil(prune_ratio * len(doc)))
    order = np.argsort(-np.asarray(scores, dtype=np.float64), kind="stable")
    return CandidateSet(spans, np.sort(order[:keep]))


def document_forward(doc: Document, table: SpanLayout, enum_rows: np.ndarray,
                     enc: EncoderParams, scoring: ScoringParams,
                     config: ModelConfig) -> tuple:
    """The forward of training and prediction: encode `doc`, represent and
    mention-score `table`'s spans, and prune the enumerated ones, its rows
    `enum_rows`. Returns the representations, scores, candidates, mention
    head backward, and the `(g, grad, rows)` backward of table rows `rows`."""
    token_vecs, encode_backward = encode_tokens(doc, enc)
    reps, reps_backward = build_span_representations(token_vecs, table, enc)
    scores, mention_backward = mention_scores(reps, scoring)
    candidates = prune_mentions(doc, enumerated_layout(len(doc), config),
                                scores[enum_rows], config.prune_ratio)

    def backward(g, grad: EncoderParams, rows: np.ndarray) -> None:
        encode_backward(reps_backward(g, grad, rows), grad)

    return reps, scores, candidates, mention_backward, backward


@dataclass(frozen=True)
class PairScores:
    """The antecedent FFN over a batch of pairs, and what its backward reads."""

    scores: np.ndarray           # s_a(i, j) per pair
    partners: np.ndarray         # (2, P, D): h_j per pair, then h_i
    products: np.ndarray         # h_i * h_j
    hidden: np.ndarray | None    # the tanh layer; None for a linear head


def antecedent_scores(x: np.ndarray, mention: np.ndarray,
                      antecedent: np.ndarray, head: FeedForward) -> PairScores:
    """s_a of each pair (h_i, h_j) = (x[mention[p]], x[antecedent[p]]).

    The first layer applies to [h_i, h_j, h_i * h_j]; its h_i and h_j blocks
    are applied once per row of `x`, only the product block once per pair.
    """
    d = x.shape[1]
    w1 = head.w1.reshape(3 * d, -1)
    partners = x[np.concatenate([antecedent, mention])].reshape(2, -1, d)
    products = partners[0] * partners[1]
    layer = ((x @ w1[:d])[mention] + (x @ w1[d:2 * d])[antecedent]
             + products @ w1[2 * d:])
    if head.w2 is None:
        return PairScores(layer[:, 0] + head.b2, partners, products, None)
    hidden = np.tanh(layer + head.b1)
    return PairScores(hidden @ head.w2 + head.b2, partners,
                      products, hidden)


@dataclass(frozen=True)
class AntecedentPairs:
    """Every (candidate, antecedent) pair, two ways.

    Candidate k's antecedents are the `max_antecedents` candidates before
    it. `mention` and `antecedent` list the P pairs flat, candidate by
    candidate and each window in order. `grid` lays them out as one row per
    candidate with a column per window slot plus a last dummy column; its
    entries index the flat pairs extended by two slots, P for a padding
    slot and P + 1 for the dummy; `inside` marks the window slots that hold
    a pair. `slots` fills the grid with any per-pair values.
    """

    mention: np.ndarray
    antecedent: np.ndarray
    grid: np.ndarray
    inside: np.ndarray

    @functools.cached_property
    def scatter(self):
        """The sparse (candidates, 2P) one-hot of [mention, antecedent], a
        `scipy.sparse.csr_matrix`: it sums per-pair rows, stacked mention
        side first, onto their candidates. Only the CL backward reads it,
        so it is built, and scipy.sparse imported, on its first read."""
        from scipy import sparse
        n_pairs = len(self.mention)
        scatter = sparse.csr_matrix(
            (np.ones(2 * n_pairs), (np.concatenate([self.mention,
                                                    self.antecedent]),
                                    np.arange(2 * n_pairs))),
            shape=(len(self.grid), 2 * n_pairs))
        for array in (scatter.data, scatter.indices, scatter.indptr):
            array.flags.writeable = False
        return scatter

    def slots(self, values: np.ndarray, padding=-np.inf,
              dummy=0.0) -> np.ndarray:
        """The grid of the flat per-pair `values`: `padding` in the slots
        without a pair and `dummy` in the last column (by default -inf and
        the dummy's score 0.0, the antecedent softmax's logits)."""
        return np.concatenate([values, [padding, dummy]])[self.grid]


@functools.lru_cache(maxsize=64)
def antecedent_pairs(n_candidates: int, max_antecedents: int) -> AntecedentPairs:
    k = np.arange(n_candidates, dtype=np.intp)
    lo = np.maximum(k - max_antecedents, 0)
    sizes = k - lo
    slots = np.arange(int(sizes.max(initial=0)), dtype=np.intp)
    inside = slots[None, :] < sizes[:, None]
    mention = np.broadcast_to(k[:, None], inside.shape)[inside]
    antecedent = (lo[:, None] + slots[None, :])[inside]
    n_pairs = len(mention)
    grid = np.full((n_candidates, len(slots) + 1), n_pairs, dtype=np.intp)
    grid[:, :-1][inside] = np.arange(n_pairs, dtype=np.intp)
    grid[:, -1] = n_pairs + 1
    for array in (mention, antecedent, grid, inside):
        array.flags.writeable = False
    return AntecedentPairs(mention, antecedent, grid, inside)
