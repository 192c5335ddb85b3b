"""Token encoder, span representations, and mention/antecedent scoring.

The encoder is a windowed linear mixer over learned token embeddings: each
token's vector is a linear map of the embeddings in a symmetric window
around it. Span representations concatenate the two boundary vectors, an
attention-weighted vector over the span's tokens, and a width-bucket
feature. Scoring heads are small feed-forward networks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import Document, SpanRef, width_bucket_index

UNK_TOKEN = "<unk>"


class OrderingError(ValueError):
    """An antecedent was scored against a mention it does not precede."""


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
        if not 0.0 < self.prune_ratio <= 1.0:
            raise ValueError("prune_ratio must be in (0, 1]")
        if self.window_radius < 0:
            raise ValueError("window_radius must be >= 0")

    @property
    def n_width_buckets(self) -> int:
        return len(self.width_bucket_edges) + 1

    @property
    def span_dim(self) -> int:
        return 3 * self.d_token + self.d_width


@dataclass
class FeedForward:
    """One-hidden-layer tanh network, or a plain linear map when hidden=0."""

    w1: Tensor
    b2: Tensor
    b1: Tensor | None = None
    w2: Tensor | None = None

    def apply(self, x: Tensor) -> Tensor:
        if self.w2 is None:
            return x @ self.w1 + self.b2
        hidden = (x @ self.w1 + self.b1).tanh()
        return hidden @ self.w2 + self.b2


@dataclass
class EncoderParams:
    """Trainable encoder tensors plus the token-to-row vocabulary."""

    embeddings: Tensor
    mixer_w: Tensor
    mixer_b: Tensor
    attention_w: Tensor
    width_embeddings: Tensor
    vocab: Mapping[str, int]

    @property
    def d_token(self) -> int:
        return self.embeddings.shape[1]

    @property
    def window_radius(self) -> int:
        span = self.mixer_w.shape[0] // self.d_token
        return (span - 1) // 2


@dataclass
class ScoringParams:
    mention: FeedForward
    antecedent: FeedForward


@dataclass
class SpanRepresentation:
    """The four-part span vector, with the internal vector exposed alone."""

    span: SpanRef
    boundary_start: Tensor
    boundary_end: Tensor
    internal: Tensor
    width_feature: Tensor
    full: Tensor


@dataclass
class CandidateSet:
    """Pruned candidate mentions in (start, end) order."""

    spans: list[SpanRef]
    scores: np.ndarray
    indices: np.ndarray  # rows into the span list the scores were drawn from

    def __len__(self) -> int:
        return len(self.spans)


def token_ids(doc: Document, vocab: Mapping[str, int]) -> np.ndarray:
    unk = vocab[UNK_TOKEN]
    return np.array([vocab.get(t.surface, unk) for t in doc.tokens], dtype=np.intp)


def encode_tokens(doc: Document, enc: EncoderParams) -> Tensor:
    """Per-token vectors: window-concatenated embeddings through one linear map."""
    ids = token_ids(doc, enc.vocab)
    emb = enc.embeddings.take(ids)
    radius = enc.window_radius
    n, d = len(ids), enc.d_token
    if radius == 0:
        windows = emb
    else:
        pad = Tensor(np.zeros((radius, d)))
        padded = ad.concat([pad, emb, pad], axis=0)
        windows = ad.concat([padded.narrow(k, k + n) for k in range(2 * radius + 1)],
                            axis=1)
    return windows @ enc.mixer_w + enc.mixer_b


def attend_span(token_vecs: Tensor, span: SpanRef, enc: EncoderParams) -> Tensor:
    """Attention-weighted combination of the span's token vectors."""
    if span.end >= token_vecs.shape[0]:
        raise ValueError(f"span [{span.start}, {span.end}] out of bounds")
    span_vecs = token_vecs.narrow(span.start, span.end + 1)
    logits = span_vecs @ enc.attention_w
    weights = ad.softmax(logits)
    return weights @ span_vecs


def build_span_representation(token_vecs: Tensor, span: SpanRef,
                              enc: EncoderParams,
                              config: ModelConfig) -> SpanRepresentation:
    bucket = width_bucket_index(span.width, config.width_bucket_edges)
    bucket = min(bucket, config.n_width_buckets - 1)
    start_vec = token_vecs.take(span.start)
    end_vec = token_vecs.take(span.end)
    internal = attend_span(token_vecs, span, enc)
    width_feat = enc.width_embeddings.take(bucket)
    full = ad.concat([start_vec, end_vec, internal, width_feat], axis=0)
    return SpanRepresentation(span, start_vec, end_vec, internal, width_feat, full)


@dataclass
class BatchedSpans:
    """Span representations for many spans at once (rows align with `spans`)."""

    spans: list[SpanRef]
    start_vecs: Tensor
    end_vecs: Tensor
    internal: Tensor
    width_features: Tensor
    full: Tensor
    index: dict[SpanRef, int] = field(default_factory=dict)

    def row(self, span: SpanRef) -> int:
        if not self.index:
            self.index = {s: i for i, s in enumerate(self.spans)}
        return self.index[span]


@dataclass(frozen=True)
class SpanLayout:
    """The gather plan of `build_span_representations` for a span list.

    It depends only on the spans and the width buckets, so a caller that
    represents the same spans repeatedly can build it once.
    """

    spans: list[SpanRef]
    tokens: np.ndarray   # (spans, max width) token per slot, end repeated
    mask: np.ndarray     # 1.0 on the slots inside the span
    buckets: np.ndarray  # width bucket per span

    @property
    def starts(self) -> np.ndarray:
        return self.tokens[:, 0]

    @property
    def ends(self) -> np.ndarray:
        return self.tokens[:, -1]


def span_layout(spans: Sequence[SpanRef], config: ModelConfig) -> SpanLayout:
    spans = list(spans)
    if not spans:
        raise ValueError("no spans to represent")
    starts = np.array([s.start for s in spans], dtype=np.intp)
    ends = np.array([s.end for s in spans], dtype=np.intp)
    widths = ends - starts + 1
    offsets = np.arange(int(widths.max()), dtype=np.intp)
    tokens = np.minimum(starts[:, None] + offsets[None, :], ends[:, None])
    mask = (offsets[None, :] < widths[:, None]).astype(np.float64)
    buckets = np.minimum(np.searchsorted(config.width_bucket_edges, widths),
                         config.n_width_buckets - 1)
    return SpanLayout(spans, tokens, mask, buckets)


def build_span_representations(token_vecs: Tensor,
                               spans: Sequence[SpanRef] | SpanLayout,
                               enc: EncoderParams,
                               config: ModelConfig) -> BatchedSpans:
    """Vectorized equivalent of build_span_representation over many spans."""
    layout = spans if isinstance(spans, SpanLayout) \
        else span_layout(spans, config)
    n_spans, max_w = layout.tokens.shape
    mask = layout.mask

    att_all = token_vecs @ enc.attention_w
    logits = att_all.take(layout.tokens)
    shift = np.where(mask > 0, logits.value, -np.inf).max(axis=1, keepdims=True)
    exps = (logits - shift).exp() * mask
    weights = exps / exps.sum(axis=1, keepdims=True)
    span_tokens = token_vecs.take(layout.tokens)
    internal = (weights.reshape(n_spans, max_w, 1) * span_tokens).sum(axis=1)

    start_vecs = token_vecs.take(layout.starts)
    end_vecs = token_vecs.take(layout.ends)
    width_feats = enc.width_embeddings.take(layout.buckets)
    full = ad.concat([start_vecs, end_vecs, internal, width_feats], axis=1)
    return BatchedSpans(layout.spans, start_vecs, end_vecs, internal,
                        width_feats, full)


def mention_score(rep: SpanRepresentation | Tensor, scoring: ScoringParams) -> Tensor:
    h = rep.full if isinstance(rep, SpanRepresentation) else rep
    return scoring.mention.apply(h)


def mention_scores(reps: BatchedSpans, scoring: ScoringParams) -> Tensor:
    return scoring.mention.apply(reps.full)


def prune_mentions(doc: Document, spans: Sequence[SpanRef],
                   scores: np.ndarray, prune_ratio: float) -> CandidateSet:
    """Keep the ceil(ratio * document length) best-scored spans.

    Ties break toward earlier (start, end) position; the result is returned
    in position order.
    """
    if len(scores) != len(spans):
        raise ValueError("one score per span required")
    keep = min(len(spans), math.ceil(prune_ratio * len(doc)))
    order = np.argsort(-np.asarray(scores, dtype=np.float64), kind="stable")
    chosen = np.sort(order[:keep])
    return CandidateSet([spans[i] for i in chosen],
                        np.asarray(scores)[chosen], chosen)


def pair_features(h_i: Tensor, h_j: Tensor) -> Tensor:
    return ad.concat([h_i, h_j, h_i * h_j], axis=h_i.ndim - 1)


def pair_score(rep_i: SpanRepresentation, rep_j: SpanRepresentation,
               scoring: ScoringParams) -> Tensor:
    """s(i, j) = s_m(i) + s_m(j) + s_a(i, j); the dummy antecedent scores 0."""
    if not (rep_j.span < rep_i.span):
        raise OrderingError(
            f"antecedent {rep_j.span} must precede mention {rep_i.span}")
    s_a = scoring.antecedent.apply(pair_features(rep_i.full, rep_j.full))
    return mention_score(rep_i, scoring) + mention_score(rep_j, scoring) + s_a


def antecedent_distribution(pair_scores: np.ndarray) -> np.ndarray:
    """Probabilities over [candidates..., dummy]; the dummy scores 0.

    The dummy antecedent is the last entry of the returned vector.
    """
    scores = np.asarray(pair_scores, dtype=np.float64)
    if np.isnan(scores).any():
        raise ValueError("NaN in antecedent scores")
    with_dummy = np.concatenate([scores, [0.0]])
    shifted = with_dummy - with_dummy.max()
    exps = np.exp(shifted)
    return exps / exps.sum()


def antecedent_window(k: int, max_antecedents: int) -> range:
    """Indices of the candidates considered as antecedents of candidate k."""
    return range(max(0, k - max_antecedents), k)


@dataclass(frozen=True)
class AntecedentPairs:
    """Every (candidate, antecedent) pair of `antecedent_window`, two ways.

    `mention` and `antecedent` list the P pairs flat, candidate by
    candidate and each window in order. `grid` lays them out as one row per
    candidate with a column per window slot plus a last dummy column; its
    entries index the flat pair scores extended by two slots, P for a
    padding slot (score -inf) and P + 1 for the dummy (score 0).
    """

    mention: np.ndarray
    antecedent: np.ndarray
    grid: np.ndarray


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
    for array in (mention, antecedent, grid):
        array.flags.writeable = False
    return AntecedentPairs(mention, antecedent, grid)
