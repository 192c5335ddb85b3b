"""The training objective: coreference, retrofitting, and scaffold losses.

All three losses follow the minimize convention (coreference and scaffold
terms are negative log-likelihoods), so the combined objective
``beta1 * CL + beta2 * RL + beta3 * SL`` is uniformly minimized.

A document's objective runs its forward in plain numpy and comes with the
closed-form backward of the combined loss, which writes every parameter's
gradient into views of one flat array.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from . import model as m
from .corpus import (Document, SpanRef, bounds_keys, enumerate_candidate_spans,
                     span_bounds, span_keys)

log = logging.getLogger(__name__)

_NORM_EPS = 1e-30  # keeps batched cosine finite for zero vectors


class LossError(ValueError):
    """Raised when a loss component is malformed (NaN, bad weights)."""


@dataclass(frozen=True)
class LossWeights:
    """The full hyperparameter surface of the objective.

    `alpha_c` weighs coreference distance, `alpha_k` weighs concept-knowledge
    distance per lexicon, and `beta` weighs (coreference, retrofitting,
    scaffold) losses in the combined objective.
    """

    alpha_c: float = 1.0
    alpha_k: Mapping[str, float] = field(default_factory=dict)
    beta: tuple[float, float, float] = (1.0, 0.0, 0.0)

    def __post_init__(self):
        if self.alpha_c < 0 or any(v < 0 for v in self.alpha_k.values()):
            raise LossError("distance weights must be non-negative")
        if len(self.beta) != 3 or any(b < 0 for b in self.beta):
            raise LossError("beta must be three non-negative weights")
        if not any(b > 0 for b in self.beta):
            raise LossError("at least one beta must be positive")

    def replace(self, **kwargs) -> "LossWeights":
        data = {"alpha_c": self.alpha_c, "alpha_k": dict(self.alpha_k),
                "beta": self.beta}
        data.update(kwargs)
        return LossWeights(**data)


@dataclass(frozen=True, eq=False)
class PairSet:
    """Deduplicated unordered span pairs internal to one document.

    Pair p joins `spans[first[p]]` and `spans[second[p]]`, where `spans` is
    sorted and first[p] < second[p].
    """

    doc_id: str
    spans: tuple[SpanRef, ...]
    first: np.ndarray
    second: np.ndarray

    @property
    def count(self) -> int:
        return len(self.first)

    @property
    def pairs(self) -> tuple[tuple[SpanRef, SpanRef], ...]:
        span = self.spans.__getitem__
        return tuple(zip(map(span, self.first.tolist()),
                         map(span, self.second.tolist())))

    def __eq__(self, other):
        if not isinstance(other, PairSet):
            return NotImplemented
        return (self.doc_id == other.doc_id and self.spans == other.spans
                and np.array_equal(self.first, other.first)
                and np.array_equal(self.second, other.second))


@dataclass
class ScaffoldParams:
    """Per-concept weight vectors for the concept-identification head."""

    classes: tuple[str, ...]
    weights: np.ndarray
    none_class: str | None = None

    def __post_init__(self):
        if len(self.classes) != self.weights.shape[0]:
            raise LossError("one weight vector per scaffold class required")
        self.class_index = {c: i for i, c in enumerate(self.classes)}


# ---------------------------------------------------------------------------
# Distances


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


def pair_target_distances(index: DocumentIndex, rows_i: np.ndarray,
                          rows_j: np.ndarray, weights: LossWeights,
                          unlabeled: str = "strict") -> np.ndarray:
    """`target_distance` of every (rows_i[p], rows_j[p]) pair of table rows.

    The terms are added in `target_distance`'s order, so each target equals
    it bit for bit; a skipped term adds 0.0.
    """
    c_i, c_j = index.cluster[rows_i], index.cluster[rows_j]
    total = weights.alpha_c * ((c_i < 0) | (c_i != c_j))
    for lexicon_id, alpha in weights.alpha_k.items():
        if alpha == 0.0:
            continue
        ids = index.concept_ids(lexicon_id)
        a, b = ids[rows_i], ids[rows_j]
        term = alpha * ((a < 0) | (a != b))
        if unlabeled == "skip":
            term = np.where((a >= 0) & (b >= 0), term, 0.0)
        total = total + term
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
# Pair population for the retrofitting loss


def build_pair_set(doc: Document, extra_spans: Sequence[SpanRef],
                   budget: int,
                   rng: np.random.Generator | Sequence[int] | int) -> PairSet:
    """Pairs over gold-cluster spans plus `extra_spans`, capped at `budget`.

    Pairs run in itertools.combinations order over the sorted spans;
    over-budget sets are thinned by sampling without replacement from
    `np.random.default_rng(rng)`, built only then (a Generator is used as
    it is).
    """
    offered = (*itertools.chain(*doc.gold_clusters), *extra_spans)
    by_key = dict(zip(span_keys(offered).tolist(), offered))
    spans = tuple(map(by_key.__getitem__, sorted(by_key)))
    # Every (i, j) with i < j, row by row: np.triu_indices(len(spans), 1).
    order = np.arange(len(spans))
    first, second = np.nonzero(np.less.outer(order, order))
    if len(first) > budget:
        chosen = np.sort(np.random.default_rng(rng).choice(
            len(first), size=budget, replace=False))
        first, second = first[chosen], second[chosen]
    return PairSet(doc.doc_id, spans, first, second)


# ---------------------------------------------------------------------------
# Combination and the document-level objective graph


def combined_loss(cl, rl, sl, weights: LossWeights):
    """beta1 * CL + beta2 * RL + beta3 * SL, with NaN components rejected."""
    named = {"coreference": cl, "retrofitting": rl, "scaffold": sl}
    for name, component in named.items():
        if np.isnan(component).any():
            raise LossError(f"{name} loss is NaN")
    b1, b2, b3 = weights.beta
    return b1 * cl + b2 * rl + b3 * sl


@dataclass
class ObjectiveConfig:
    """Loss-assembly knobs independent of the model architecture."""

    pair_budget: int = 5000
    pair_seed: int = 0
    unlabeled_knowledge: str = "strict"  # or "skip"
    scaffold_lexicon: str | None = None
    scaffold_include_unlabeled: bool = False
    source_phase_rl: bool = True
    grad_accumulation: int = 1

    def __post_init__(self):
        if self.unlabeled_knowledge not in ("strict", "skip"):
            raise LossError(f"unlabeled_knowledge must be 'strict' or 'skip', "
                            f"not {self.unlabeled_knowledge!r}")
        for name, low in (("pair_budget", 0), ("pair_seed", 0),
                          ("grad_accumulation", 1)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise LossError(f"{name} must be an integer, not {value!r}")
            if value < low:
                raise LossError(f"{name} must be >= {low}")
        for name in ("scaffold_include_unlabeled", "source_phase_rl"):
            if not isinstance(getattr(self, name), bool):
                raise LossError(f"{name} must be true or false, not "
                                f"{getattr(self, name)!r}")


@dataclass
class DocumentLosses:
    """One document's loss components, its forward-pass artifacts, and the
    backward of `total`.

    `backward(g, enc, scoring, scaffold)` writes g times the gradient of
    `total` into those parameter groups, views of one zeroed flat array;
    a tensor the objective does not reach is left as it is.
    """

    total: float
    cl: float
    rl: float
    sl: float
    pruning_misses: int
    candidates: m.CandidateSet
    reps: m.BatchedSpans | None
    pair_set: PairSet | None
    backward: Callable[..., None]


@dataclass(frozen=True)
class DocumentIndex:
    """The span table of one document's objective, and its static structure.

    The table holds the enumerated candidate spans plus, when the objective
    needs them, the gold spans and the scaffold lexicon's labeled spans,
    sorted by position. Every array below has one entry per table row.
    `enumerated` is what pruning picks from; its `SpanRef`s are built with
    the index, so a doc-step on an indexed document builds none.
    """

    layout: m.SpanLayout               # the table, with its gather plan
    keys: np.ndarray                   # span_keys of the table, ascending
    enumerated: m.SpanLayout           # enumerate_candidate_spans order
    enum_rows: np.ndarray              # table row of each enumerated span
    cluster: np.ndarray                # gold cluster id, -1 when unclustered
    anaphoric: np.ndarray              # not the first span of its gold cluster
    concepts: Mapping[str, np.ndarray]      # lexicon -> concept id, or -1
    labels: Mapping[str, tuple[str, ...]]   # lexicon -> label per concept id

    def concept_ids(self, lexicon_id: str) -> np.ndarray:
        ids = self.concepts.get(lexicon_id)
        return np.full(len(self.keys), -1, dtype=np.intp) if ids is None \
            else ids

    def rows_of(self, spans: Sequence[SpanRef]) -> np.ndarray:
        keys = span_keys(spans)
        rows = np.searchsorted(self.keys, keys)
        if len(rows) and (rows.max() >= len(self.keys)
                          or (self.keys[rows] != keys).any()):
            raise LossError("span outside the document's span table")
        return rows


def document_index(doc: Document, config: m.ModelConfig, with_gold: bool,
                   scaffold_lexicon: str | None) -> DocumentIndex:
    """The index of `doc` for one span rule, built once and kept on `doc`."""
    key = ("objective_index", config.max_span_width,
           tuple(config.width_bucket_edges), with_gold, scaffold_lexicon)
    return doc.cached(key, lambda: _build_index(doc, config, with_gold,
                                                scaffold_lexicon))


def _build_index(doc: Document, config: m.ModelConfig, with_gold: bool,
                 scaffold_lexicon: str | None) -> DocumentIndex:
    starts, ends = enumerate_candidate_spans(doc, config.max_span_width)
    enum_keys = bounds_keys(starts, ends)
    extra = doc.gold_spans() if with_gold else []
    if scaffold_lexicon:
        extra.extend(doc.concept_annotations.get(scaffold_lexicon, {}))
    keys = np.array(sorted({*enum_keys.tolist(), *span_keys(extra).tolist()}),
                    dtype=np.int64)
    row = dict(zip(keys.tolist(), range(len(keys))))

    cluster = np.full(len(keys), -1, dtype=np.intp)
    anaphoric = np.zeros(len(keys), dtype=bool)
    for cluster_id, members in enumerate(doc.gold_clusters):
        member_keys = span_keys(members).tolist()
        for key in row.keys() & member_keys:
            cluster[row[key]] = cluster_id
            anaphoric[row[key]] = key != min(member_keys)

    concepts: dict[str, np.ndarray] = {}
    labels: dict[str, tuple[str, ...]] = {}
    for lexicon_id, spans_labels in doc.concept_annotations.items():
        names = tuple(sorted(set(spans_labels.values())))
        ids = np.full(len(keys), -1, dtype=np.intp)
        for key, label in zip(span_keys(spans_labels).tolist(),
                              spans_labels.values()):
            if key in row:
                ids[row[key]] = names.index(label)
        concepts[lexicon_id], labels[lexicon_id] = ids, names

    layout = m.span_layout(*span_bounds(keys), config)
    # Often the extra spans are all enumerated, and the table is the same.
    enumerated = layout if len(keys) == len(enum_keys) \
        else m.span_layout(starts, ends, config)
    enumerated.spans  # built once here; pruning then takes its kept rows
    return DocumentIndex(layout, keys, enumerated,
                         np.searchsorted(keys, enum_keys), cluster, anaphoric,
                         concepts, labels)


def scaffold_targets(index: DocumentIndex, scaffold: ScaffoldParams,
                     objective: ObjectiveConfig,
                     candidate_rows: np.ndarray) -> np.ndarray:
    """(table row, class index) of each span the scaffold loss scores.

    The spans are the gold spans and the spans the scaffold lexicon labels,
    plus the candidates when unlabeled spans train the none class, in
    table order.
    """
    lexicon_id = objective.scaffold_lexicon
    if lexicon_id is None:
        return np.zeros((0, 2), dtype=np.intp)
    ids = index.concept_ids(lexicon_id)
    unlabeled = -1
    if objective.scaffold_include_unlabeled and scaffold.none_class:
        unlabeled = scaffold.class_index[scaffold.none_class]
    # Concept id -1 picks the last entry: the class of an unlabeled span.
    class_of = np.array([scaffold.class_index.get(name, -1)
                         for name in index.labels.get(lexicon_id, ())]
                        + [unlabeled], dtype=np.intp)[ids]
    pool = (index.cluster >= 0) | (ids >= 0)
    if objective.scaffold_include_unlabeled:
        pool[candidate_rows] = True
    rows = np.flatnonzero(pool & (class_of >= 0))
    return np.stack([rows, class_of[rows]], axis=1)


def document_objective(doc: Document, enc: m.EncoderParams,
                       scoring: m.ScoringParams, scaffold: ScaffoldParams | None,
                       weights: LossWeights, config: m.ModelConfig,
                       objective: ObjectiveConfig,
                       rng: np.random.Generator | Sequence[int] | None = None
                       ) -> DocumentLosses:
    """Assemble CL, RL, SL, and the combined loss for one document.

    `rng` seeds RL pair sampling (`build_pair_set`); None means
    `objective.pair_seed`.
    """
    b1, b2, b3 = weights.beta
    if len(doc) == 0:
        empty = m.CandidateSet([], np.zeros(0), np.zeros(0, dtype=np.intp))
        return DocumentLosses(combined_loss(0.0, 0.0, 0.0, weights), 0.0, 0.0,
                              0.0, 0, empty, None, None, lambda *_: None)
    with_scaffold = b3 > 0 and scaffold is not None
    index = document_index(
        doc, config, with_gold=b2 > 0 or b3 > 0,
        scaffold_lexicon=objective.scaffold_lexicon if with_scaffold else None)
    token_vecs, encode_backward = m.encode_tokens(doc, enc)
    reps, reps_backward = m.build_span_representations(token_vecs,
                                                       index.layout, enc)
    scores, mention_backward = m.mention_scores(reps, scoring)
    candidates = m.prune_mentions(doc, index.enumerated,
                                  scores[index.enum_rows], config.prune_ratio)

    cl, cl_backward, misses = 0.0, None, 0
    if b1 > 0:
        cl, cl_backward, misses = _coref_loss_graph(index, candidates, reps,
                                                    scores, scoring, config)

    rl, rl_backward, pair_set = 0.0, None, None
    if b2 > 0:
        pair_set = build_pair_set(
            doc, candidates.spans, objective.pair_budget,
            objective.pair_seed if rng is None else rng)
        rl, rl_backward = _retrofit_loss_graph(index, pair_set, reps, weights,
                                               objective.unlabeled_knowledge)

    sl, sl_backward = 0.0, None
    if with_scaffold:
        targets = scaffold_targets(index, scaffold, objective,
                                   index.enum_rows[candidates.indices])
        if len(targets):
            sl, sl_backward = _scaffold_loss_graph(targets, reps, scaffold)

    def backward(g, enc_grad, scoring_grad, scaffold_grad) -> None:
        if cl_backward is None and rl_backward is None and sl_backward is None:
            return
        # The span-table gradient adds CL, the mention head (whose score
        # gradient only CL makes), RL and SL, in that order: another order
        # moves the trained parameters in their last bits.
        g_full = np.zeros(reps.full.shape)
        if cl_backward is not None:
            g_scores = np.zeros(len(scores))
            cl_backward(g * b1, g_full, g_scores, scoring_grad.antecedent)
            mention_backward(g_scores, g_full, scoring_grad.mention)
        if rl_backward is not None:
            rl_backward(g * b2, g_full)
        if sl_backward is not None:
            sl_backward(g * b3, g_full, scaffold_grad.weights)
        encode_backward(reps_backward(g_full, enc_grad), enc_grad)

    return DocumentLosses(combined_loss(cl, rl, sl, weights), cl, rl, sl,
                          misses, candidates, reps, pair_set, backward)


def _coref_loss_graph(index: DocumentIndex, candidates: m.CandidateSet,
                      reps: m.BatchedSpans, scores: np.ndarray,
                      scoring: m.ScoringParams, config: m.ModelConfig,
                      ) -> tuple[float, m.Backward | None, int]:
    """Summed marginal NLL of each candidate's gold antecedents, or of the
    dummy when none is in its window, its backward (None when there are no
    pairs), and the count of pruning misses."""
    rows = index.enum_rows[candidates.indices]
    pairs = m.antecedent_pairs(len(candidates), config.max_antecedents)
    cluster = index.cluster[rows]
    mention, antecedent = cluster[pairs.mention], cluster[pairs.antecedent]
    gold = np.append((mention >= 0) & (mention == antecedent),
                     [False, False])[pairs.grid]
    has_gold = gold.any(axis=1)
    misses = int(np.count_nonzero(index.anaphoric[rows] & ~has_gold))
    if len(pairs.mention) == 0:
        return 0.0, None, misses
    numer = gold.copy()
    numer[:, -1] = ~has_gold
    return (*antecedent_nll(reps.full, scores, rows, pairs, numer,
                            scoring.antecedent), misses)


def _logsumexp_rows(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Max-shifted log-sum-exp over the last axis, and the softmax."""
    shift = values.max(axis=-1, keepdims=True)
    exps = np.exp(values - shift)
    total = exps.sum(axis=-1, keepdims=True)
    return (np.log(total) + shift)[..., 0], exps / total


def antecedent_nll(full: np.ndarray, mention_scores: np.ndarray,
                   rows: np.ndarray, pairs: m.AntecedentPairs,
                   numer: np.ndarray,
                   head: m.FeedForward) -> tuple[float, m.Backward]:
    """sum_k [logsumexp of candidate k's `pairs.grid` row - logsumexp of
    the slots of that row that `numer` marks], and its backward.

    Candidate k is row `rows[k]` of `full` and `mention_scores` (the rows
    are distinct); a pair scores s_m(i) + s_m(j) + s_a(i, j), with s_a from
    the `head` FFN, and the dummy column scores 0. The backward adds into
    `g_full` and `g_scores` and writes the head's gradients into `grad`.
    """
    x = full[rows]
    mention, antecedent, inside = pairs.mention, pairs.antecedent, pairs.inside
    d = x.shape[1]
    ffn = m.antecedent_scores(x, mention, antecedent, head)
    s = mention_scores[rows]
    slots = np.concatenate([ffn.scores + s[mention] + s[antecedent],
                            [-np.inf, 0.0]])[pairs.grid]
    # Row-wise over every slot (denominator) and the marked ones (numerator).
    lse, probs = _logsumexp_rows(np.stack([slots,
                                           np.where(numer, slots, -np.inf)]))

    def backward(g, g_full: np.ndarray, g_scores: np.ndarray,
                 grad: m.FeedForward) -> None:
        # Each pair has one window slot, in flat pair order.
        g_pair = (g * (probs[0] - probs[1]))[:, :-1][inside]
        n_pairs = len(g_pair)
        w1 = head.w1.reshape(3 * d, -1)
        width = w1.shape[1]
        if ffn.hidden is None:
            g_layer = g_pair[:, None]
        else:
            g_layer = (np.outer(g_pair, head.w2)
                       * (1.0 - ffn.hidden ** 2))
            grad.b1[...] = g_layer.sum(axis=0)
            np.matmul(ffn.hidden.T, g_pair, out=grad.w2)
        # Per candidate, one sparse product sums the layer gradient over
        # the pairs it is the mention of, over those it is the antecedent
        # of, and the pair-score gradient over both.
        block = np.zeros((2 * n_pairs, 2 * width + 1))
        block[:n_pairs, :width] = g_layer
        block[n_pairs:, width:-1] = g_layer
        block[:n_pairs, -1] = g_pair
        block[n_pairs:, -1] = g_pair
        sums = pairs.scatter @ block
        g_u, g_v = sums[:, :width], sums[:, width:-1]
        g_scores[rows] += sums[:, -1]

        g_products = g_layer @ w1[2 * d:].T
        g_full[rows] += (g_u @ w1[:d].T + g_v @ w1[d:2 * d].T
                         + pairs.scatter @ (ffn.partners * g_products)
                         .reshape(2 * n_pairs, d))
        g_w1 = grad.w1.reshape(3 * d, -1)
        np.matmul(x.T, g_u, out=g_w1[:d])
        np.matmul(x.T, g_v, out=g_w1[d:2 * d])
        np.matmul(ffn.products.T, g_layer, out=g_w1[2 * d:])
        grad.b2[...] = g_pair.sum()

    return float((lse[0] - lse[1]).sum()), backward


def _retrofit_loss_graph(index: DocumentIndex, pair_set: PairSet,
                         reps: m.BatchedSpans, weights: LossWeights,
                         unlabeled: str) -> tuple[float, m.Backward | None]:
    if pair_set.count == 0:
        log.warning("%s: empty pair set contributes 0", pair_set.doc_id)
        return 0.0, None
    rows = index.rows_of(pair_set.spans)
    targets = pair_target_distances(index, rows[pair_set.first],
                                    rows[pair_set.second], weights, unlabeled)
    return mean_cosine_gap(reps.full, reps.internal_columns, rows,
                           pair_set.first, pair_set.second, targets)


def mean_cosine_gap(full: np.ndarray, columns: slice, rows: np.ndarray,
                    first: np.ndarray, second: np.ndarray,
                    targets: np.ndarray) -> tuple[float, m.Backward]:
    """Mean over pairs p of |targets[p] - cosine distance(v[rows[first[p]]],
    v[rows[second[p]]])|, where v is the `columns` block of `full`, and its
    backward, which adds into `g_full`. No (first, second) pair may repeat.

    Zero vectors keep the cosine finite through `_NORM_EPS`, and their norm
    passes no gradient (a pair with one has a zero dot product).
    """
    v = full[rows, columns]
    norms = np.sqrt((v * v).sum(axis=1))
    dots = (v[first] * v[second]).sum(axis=1)
    norms_i, norms_j = norms[first], norms[second]
    den = norms_i * norms_j + _NORM_EPS
    gaps = targets - (1.0 - dots / den)

    def backward(g, g_full: np.ndarray) -> None:
        g_gaps = g * np.sign(gaps) / float(len(gaps))
        # d/dv of the pair dots and norm products, through (M, M) grids
        # over the pooled rows.
        g_dots = np.zeros((len(v), len(v)))
        g_dots[first, second] = g_gaps / den
        g_den = np.zeros((len(v), len(v)))
        g_den[first, second] = -g_gaps * dots / den ** 2
        g_norms = g_den @ norms + g_den.T @ norms
        g_v = g_dots @ v + g_dots.T @ v + np.divide(
            g_norms, norms, out=np.zeros_like(norms),
            where=norms > 0)[:, None] * v
        g_full[:, columns] += m.scatter_rows(rows, g_v,
                                             (len(g_full), v.shape[1]))

    return float(np.abs(gaps).sum() / float(len(gaps))), backward


def _scaffold_loss_graph(targets: np.ndarray, reps: m.BatchedSpans,
                         scaffold: ScaffoldParams,
                         ) -> tuple[float, m.Backward]:
    rows, classes = targets[:, 0], targets[:, 1]
    return mean_concept_nll(reps.full, reps.internal_columns, rows, classes,
                            scaffold.weights)


def mean_concept_nll(full: np.ndarray, columns: slice, rows: np.ndarray,
                     classes: np.ndarray,
                     weights: np.ndarray) -> tuple[float, m.Backward]:
    """Mean over targets t of the softmax NLL of class `classes[t]` under
    the logits `weights @ v[rows[t]]`, where v is the `columns` block of
    `full`, and its backward, which adds into `g_full` and writes the
    weights' gradient into `g_weights`. The rows are distinct.
    """
    v = full[rows, columns]
    targets = np.arange(len(rows))
    logits = v @ weights.T
    lse, probs = _logsumexp_rows(logits)

    def backward(g, g_full: np.ndarray, g_weights: np.ndarray) -> None:
        g_logits = probs.copy()
        g_logits[targets, classes] -= 1.0
        g_logits *= g / float(len(rows))
        g_full[rows, columns] += g_logits @ weights
        np.matmul(g_logits.T, v, out=g_weights)

    return (float((lse - logits[targets, classes]).sum() / float(len(rows))),
            backward)
