"""Token encoder, span representations, and mention/antecedent scoring.

The encoder is a windowed linear mixer over learned token embeddings: each
token's vector is a linear map of the embeddings in a symmetric window
around it. Span representations concatenate the two boundary vectors, an
attention-weighted vector over the span's tokens, and a width-bucket
feature. Scoring heads are small feed-forward networks; `pair_scores`
alone scores antecedent pairs, s(i, j), for training and decoding.

Each stage runs in plain numpy and returns its value together with its
backward: a closure that turns the value's gradient into the gradients of
its inputs and parameters, in closed form. The pair backward sums each
candidate's pair terms through gather plans built on its first run, so
neither training nor prediction needs scipy.

Every matrix-vector product of the forward (the attention logits, each
head's output layer and the linear heads) is an `np.einsum`, whose sum
over a row runs in one fixed order whatever the batch around it. BLAS's
gemv, which `@` takes for a vector or a one-column weight, may give a
row other bytes at another position or batch size, so that identical
rows would score apart and break the tie rules of pruning and decoding.
The hidden layers stay `@`: BLAS's gemm gives identical rows of a
product of two or more rows the same bytes.
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

# Gathered rows per chunk of `AntecedentPairs.candidate_sums`: a chunk takes
# as many candidates as keep its (slots, candidates) gathers this size, so
# they stay cache-sized where a whole long document's would not.
SUM_CHUNK_ROWS = 1024

Backward = Callable[..., object]


@dataclass(frozen=True)
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
        object.__setattr__(self, "width_bucket_edges", tuple(edges))

    @property
    def n_width_buckets(self) -> int:
        return len(self.width_bucket_edges) + 1

    @property
    def span_dim(self) -> int:
        return 3 * self.d_token + self.d_width


def scatter_rows(index: np.ndarray, values: np.ndarray,
                 shape: tuple) -> np.ndarray:
    """An array of `shape` whose row r sums the rows of `values` at the
    positions where `index` is r: the backward of gathering rows `index`.

    One bincount over flat (row, column) positions adds them in input
    order, as np.add.at would. The result is float64 for no rows too, where
    bincount counts in integers.
    """
    rows, width = shape[0], math.prod(shape[1:])
    flat = index.reshape(-1)
    if width != 1:
        flat = (flat[:, None] * width
                + np.arange(width, dtype=np.intp)).reshape(-1)
    full = np.bincount(flat, weights=values.reshape(-1),
                       minlength=rows * width)
    if not len(flat):
        full = full.astype(np.float64)
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
        without them its sums would differ in the last bits.

        The output layer's product is row-stable (an einsum, see the module
        docstring): a row's output has the same bytes wherever it sits."""
        if self.w2 is None:
            def linear_backward(g, grad, rows):
                np.matmul(x.T, g, out=grad.w1)
                grad.b2[...] = g.sum(axis=0)
                return g[rows][:, None] * self.w1

            return np.einsum("nd,d->n", x, self.w1) + self.b2, linear_backward
        hidden = x @ self.w1
        hidden += self.b1
        np.tanh(hidden, out=hidden)

        def backward(g, grad, rows):
            # (1 - h**2) * outer(g, w2), its factors swapped: the same bytes.
            g_hidden = hidden.take(rows, axis=0)
            np.square(g_hidden, out=g_hidden)
            np.subtract(1.0, g_hidden, out=g_hidden)
            g_hidden *= g[rows][:, None] * self.w2
            np.matmul(x.take(rows, axis=0).T, g_hidden, out=grad.w1)
            grad.b1[...] = g_hidden.sum(axis=0)
            np.matmul(hidden.T, g, out=grad.w2)
            grad.b2[...] = g.sum(axis=0)
            return g_hidden @ self.w1.T

        return np.einsum("nh,h->n", hidden, self.w2) + self.b2, backward


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
    padded[radius:radius + n] = enc.embeddings.take(ids, axis=0)
    windows = padded.take(_window_rows(n, radius), axis=0).reshape(
        n, (2 * radius + 1) * d)

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

    out = windows @ enc.mixer_w
    out += enc.mixer_b
    return out, backward


@functools.lru_cache(maxsize=128)
def _window_rows(n_tokens: int, radius: int) -> np.ndarray:
    """Row k of token i's window in the zero-padded embeddings: i + k,
    read-only and kept per (length, radius) among the 128 most recently
    used."""
    rows = (np.arange(n_tokens, dtype=np.intp)[:, None]
            + np.arange(2 * radius + 1, dtype=np.intp))
    rows.flags.writeable = False
    return rows


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


@functools.lru_cache(maxsize=128)
def enumerated_layout(n_tokens: int, config: ModelConfig) -> SpanLayout:
    """The layout of every span of a `n_tokens`-token document up to
    `config.max_span_width` wide, in (start, end) order.

    Documents of one length and config share one layout, built on first
    use and kept per (length, `ModelConfig`) among the 128 most recently
    used; its arrays are read-only.
    """
    starts, ends = enumerate_candidate_spans(range(n_tokens),
                                             config.max_span_width)
    layout = span_layout(starts, ends, config)
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
    tokens, n_slots = layout.tokens, layout.tokens.shape[1]
    x, attention = token_vecs, enc.attention_w
    table = enc.width_embeddings
    d = x.shape[1]

    logits = np.einsum("td,d->t", x, attention)[tokens]
    # Each span's maximum over its slots, a column at a time: the same
    # maximum as a reduction over the short slot axis, in fewer passes. A
    # padding slot repeats the end token, so the maximum is a slot's.
    shift = logits[:, 0].copy()
    for column in logits.T[1:]:
        np.maximum(shift, column, out=shift)
    weights = logits - shift[:, None]
    np.exp(weights, out=weights)
    weights *= layout.mask
    weights /= weights.sum(axis=1, keepdims=True)
    span_tokens = x.take(tokens, axis=0)
    # Written in place, block by block. Slot 0 of a span is its start token
    # and the last slot its end token, so one strided copy writes both
    # boundaries; a single slot is both.
    full = np.empty((len(tokens), 3 * d + table.shape[1]))
    full[:, :2 * d].reshape(-1, 2, d)[...] = \
        span_tokens[:, ::max(n_slots - 1, 1)]
    np.einsum("sw,swd->sd", weights, span_tokens, out=full[:, 2 * d:3 * d])
    full[:, 3 * d:] = table.take(layout.buckets, axis=0)

    def backward(g: np.ndarray, grad: EncoderParams,
                 rows: np.ndarray) -> np.ndarray:
        row_tokens = tokens.take(rows, axis=0)
        row_weights = weights.take(rows, axis=0)
        g_internal = g[:, 2 * d:3 * d]
        # The weights' gradient g_w, then in place the logits' gradient
        # w * (g_w - sum(w * g_w)), its factors swapped.
        g_logits = np.einsum("swd,sd->sw", span_tokens.take(rows, axis=0),
                             g_internal)
        g_logits -= (row_weights * g_logits).sum(axis=1, keepdims=True)
        g_logits *= row_weights
        g_attention = np.bincount(row_tokens.reshape(-1),
                                  g_logits.reshape(-1), minlength=len(x))
        # One scatter over the slots also carries the boundaries.
        g_slots = row_weights[:, :, None] * g_internal[:, None, :]
        # Each boundary adds once into its slot: both in one strided add,
        # or one after the other into the single slot.
        if n_slots == 1:
            g_slots[:, 0] += g[:, :d]
            g_slots[:, 0] += g[:, d:2 * d]
        else:
            g_slots[:, ::n_slots - 1] += g[:, :2 * d].reshape(-1, 2, d)
        g_x = scatter_rows(row_tokens, g_slots, x.shape)
        np.matmul(g_attention, x, out=grad.attention_w)
        grad.width_embeddings[...] = scatter_rows(
            layout.buckets[rows], g[:, 3 * d:], table.shape)
        g_x += g_attention[:, None] * attention
        return g_x

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
    kept = (-scores).argsort(kind="stable")[:keep]
    kept.sort()
    return CandidateSet(spans, kept)


def document_forward(doc: Document, table: SpanLayout,
                     enum_rows: np.ndarray | slice, enc: EncoderParams,
                     scoring: ScoringParams, config: ModelConfig) -> tuple:
    """The forward of training and prediction: encode `doc`, represent and
    mention-score `table`'s spans, and prune the enumerated ones, its rows
    `enum_rows` (`slice(None)` where `table` is the enumerated layout, as
    in prediction). Returns the representations, scores, candidates, mention
    head backward, and the `(g, grad, rows)` backward of table rows `rows`."""
    token_vecs, encode_backward = encode_tokens(doc, enc)
    reps, reps_backward = build_span_representations(token_vecs, table, enc)
    scores, mention_backward = mention_scores(reps, scoring)
    candidates = prune_mentions(doc, enumerated_layout(len(doc), config),
                                scores[enum_rows], config.prune_ratio)

    def backward(g, grad: EncoderParams, rows: np.ndarray) -> None:
        encode_backward(reps_backward(g, grad, rows), grad)

    return reps, scores, candidates, mention_backward, backward


def pair_scores(x: np.ndarray, s: np.ndarray, mention: np.ndarray,
                antecedent: np.ndarray, head: FeedForward) -> tuple:
    """s(i, j) = s_a(i, j) + s(i) + s(j) of each pair (i, j) = (mention[p],
    antecedent[p]) of rows of `x`, s_a being `head` on [h_i, h_j, h_i * h_j]
    (its h_i and h_j blocks applied per row, the product block per pair),
    and the backward `(g_pair, pairs, grad) -> (g_x, g_s)`, `pairs` the
    `AntecedentPairs` listing them, which writes the head's gradients into
    `grad`.

    The output layer and the linear head's three blocks are einsums, so a
    pair's score has the same bytes wherever the pair and its rows sit, and
    pairs of byte-identical rows tie exactly."""
    d = x.shape[1]
    w1 = head.w1.reshape(3 * d, -1)
    products = x.take(antecedent, axis=0)
    products *= x.take(mention, axis=0)
    # In place, in the order ((h_i block + h_j block) + product block)
    # + bias.
    if head.w2 is None:
        w = head.w1
        scores = np.einsum("nd,d->n", x, w[:d]).take(mention)
        scores += np.einsum("nd,d->n", x, w[d:2 * d]).take(antecedent)
        scores += np.einsum("pd,d->p", products, w[2 * d:])
        scores += head.b2
    else:
        layer = (x @ w1[:d]).take(mention, axis=0)
        layer += (x @ w1[d:2 * d]).take(antecedent, axis=0)
        layer += products @ w1[2 * d:]
        layer += head.b1
        np.tanh(layer, out=layer)
        scores = np.einsum("ph,h->p", layer, head.w2) + head.b2
    scores += s[mention]
    scores += s[antecedent]

    def backward(g_pair, pairs: AntecedentPairs, grad: FeedForward):
        n_pairs, width = len(g_pair), w1.shape[1]
        if head.w2 is None:
            g_layer = g_pair[:, None]
        else:
            # (1 - layer**2) * outer(g_pair, w2), its factors swapped.
            g_layer = np.square(layer)
            np.subtract(1.0, g_layer, out=g_layer)
            g_layer *= g_pair[:, None] * head.w2
            grad.b1[...] = g_layer.sum(axis=0)
            np.matmul(layer.T, g_pair, out=grad.w2)
        # Per pair, its layer gradient on the side of each of its two rows
        # and its g_pair, and the factor its partner row is scaled by in the
        # product block's gradient; each ends in a zero row for padding.
        block = np.zeros((2 * n_pairs + 1, 2 * width + 1))
        block[:n_pairs, :width] = g_layer
        block[n_pairs:-1, width:-1] = g_layer
        block[:n_pairs, -1] = g_pair
        block[n_pairs:-1, -1] = g_pair
        factor = np.empty((n_pairs + 1, d))
        np.matmul(g_layer, w1[2 * d:].T, out=factor[:-1])
        factor[-1] = 0.0
        sums, partner_sums = pairs.candidate_sums(
            block, np.concatenate([x, np.zeros((1, d))]), factor)
        g_u, g_v = sums[:, :width], sums[:, width:-1]
        g_x = g_u @ w1[:d].T + g_v @ w1[d:2 * d].T + partner_sums
        g_w1 = grad.w1.reshape(3 * d, -1)
        np.matmul(x.T, g_u, out=g_w1[:d])
        np.matmul(x.T, g_v, out=g_w1[d:2 * d])
        np.matmul(products.T, g_layer, out=g_w1[2 * d:])
        grad.b2[...] = g_pair.sum()
        return g_x, sums[:, -1]

    return scores, backward


@dataclass(frozen=True)
class AntecedentPairs:
    """Every (candidate, antecedent) pair, two ways.

    Candidate k's antecedents are the `max_antecedents` candidates before
    it. `mention` and `antecedent` list the P pairs flat, candidate by
    candidate and each window in order. `grid` lays them out as one row per
    candidate with a column per window slot plus a last dummy column; its
    entries index the flat pairs extended by two slots, P for a padding
    slot and P + 1 for the dummy; `positions` are the flat positions of the
    pairs' slots in it, in pair order. `slots` fills the grid with any
    per-pair values, `take` of `positions` reads them back out, and
    `candidate_sums` sums per-pair rows onto the candidates.
    """

    mention: np.ndarray
    antecedent: np.ndarray
    grid: np.ndarray
    positions: np.ndarray

    def candidate_sums(self, block: np.ndarray, x_pad: np.ndarray,
                       factor: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per candidate, the sum of `block`'s rows of its pairs, and of its
        partners' `x_pad` rows times their pair's `factor` row: h_j for the
        pairs it is the mention of, h_i for those it is the antecedent of.
        `block` holds the pairs' mention-side rows, then their
        antecedent-side rows; each array ends in a zero row, which padding
        slots read.

        The sums add as a CSR one-hot of [mention, antecedent] would: from
        +0.0, the pairs a candidate is the mention of, then those it is the
        antecedent of, each in pair order. A padding slot's +0.0 changes no
        such sum.
        """
        n = len(self.grid)
        sums = np.empty((n, block.shape[1]))
        partner_sums = np.empty((n, x_pad.shape[1]))
        for chunk, rows, partner, pair in self.sum_plans:
            np.add.reduce(block.take(rows, axis=0), axis=0, out=sums[chunk],
                          initial=0.0)
            terms = x_pad.take(partner, axis=0)
            terms *= factor.take(pair, axis=0)
            np.add.reduce(terms, axis=0, out=partner_sums[chunk], initial=0.0)
        return sums, partner_sums

    @functools.cached_property
    def sum_plans(self) -> tuple:
        """`candidate_sums`' gather plans, built on first use: per chunk of
        candidates, its slice and its read-only (slots, chunk) block,
        partner and pair rows; padding slots name each array's last row."""
        n, n_pairs = len(self.grid), len(self.mention)
        owner = np.concatenate([self.mention, self.antecedent])
        order = np.argsort(owner, kind="stable")
        counts = np.bincount(owner, minlength=n)
        slot = np.arange(2 * n_pairs) - np.repeat(np.cumsum(counts) - counts,
                                                  counts)
        rows = np.full((counts.max(initial=0), n), 2 * n_pairs, dtype=np.intp)
        rows[slot, owner[order]] = order
        partner = np.concatenate([self.antecedent, self.mention, [n]])[rows]
        pair = rows - n_pairs * (rows >= n_pairs)
        step = max(1, SUM_CHUNK_ROWS // max(1, len(rows)))
        plans = []
        for lo in range(0, n, step):
            chunk = slice(lo, min(lo + step, n))
            plan = [np.ascontiguousarray(a[:counts[chunk].max(), chunk])
                    for a in (rows, partner, pair)]
            for array in plan:
                array.flags.writeable = False
            plans.append((chunk, *plan))
        return tuple(plans)

    @functools.cached_property
    def antecedent_grid(self) -> np.ndarray:
        """`slots` of the antecedent candidate of each pair, -1 in the
        padding and dummy slots; read-only, built on first read."""
        grid = self.slots(self.antecedent, -1, -1)
        grid.flags.writeable = False
        return grid

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
    positions = np.flatnonzero(grid < n_pairs)
    for array in (mention, antecedent, grid, positions):
        array.flags.writeable = False
    return AntecedentPairs(mention, antecedent, grid, positions)
