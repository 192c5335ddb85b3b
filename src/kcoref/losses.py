"""The training objective: coreference, retrofitting, and scaffold losses.

All three are minimized (CL and SL are negative log-likelihoods), and so
is the combined ``beta1 * CL + beta2 * RL + beta3 * SL``. CL takes the
pair scores s(i, j) and their backward from `model.pair_scores` and only
applies the softmax over each candidate's antecedent slots.

A document's objective runs its forward in plain numpy with the
closed-form backward of the combined loss, which writes every parameter's
gradient into views of one flat array. It works on the rows of the
document's span table (`DocumentIndex`): the RL pair pool and the SL
targets are row sets, no `SpanRef` is built or hashed in a doc-step, and
the table and the scaffold targets are built once per document.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from . import model as m
from .corpus import Document, bounds_keys, check_field, span_bounds, span_keys

log = logging.getLogger(__name__)

_NORM_EPS = 1e-30  # keeps batched cosine finite for zero vectors

NONE_CLASS = "<none>"  # the scaffold class of unlabeled spans


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
        check_field(LossError, "alpha_c", self.alpha_c, "number", 0)
        for key, value in check_field(LossError, "alpha_k", self.alpha_k,
                                      "mapping").items():
            check_field(LossError, f"alpha_k.{key}", value, "number", 0)
        beta = check_field(LossError, "beta", self.beta, "list")
        if len(beta) != 3:
            raise LossError(f"beta must be three weights, not {beta!r}")
        for i, b in enumerate(beta):
            check_field(LossError, f"beta[{i}]", b, "number", 0)
        if not any(b > 0 for b in beta):
            raise LossError("at least one beta must be positive")
        object.__setattr__(self, "beta", tuple(beta))


@dataclass(frozen=True, eq=False)
class PairSet:
    """Deduplicated unordered span pairs internal to one document.

    The pooled spans are the rows `rows` of the document's span table, in
    table order; pair p joins pooled spans `first[p]` and `second[p]`, with
    first[p] < second[p].
    """

    doc_id: str
    rows: np.ndarray
    first: np.ndarray
    second: np.ndarray

    @property
    def count(self) -> int:
        return len(self.first)


@dataclass
class ScaffoldParams:
    """Per-concept weight vectors for the concept-identification head; a
    last class `NONE_CLASS` is the class of unlabeled spans."""

    classes: tuple[str, ...]
    weights: np.ndarray

    def __post_init__(self):
        if len(self.classes) != self.weights.shape[0]:
            raise LossError("one weight vector per scaffold class required")
        self.class_index = {c: i for i, c in enumerate(self.classes)}
        self.none_class = NONE_CLASS if NONE_CLASS in self.classes[-1:] \
            else None


# ---------------------------------------------------------------------------
# Distances


def pair_target_distances(index: DocumentIndex, rows_i: np.ndarray,
                          rows_j: np.ndarray, weights: LossWeights,
                          unlabeled: str = "strict") -> np.ndarray:
    """The knowledge-based target distance alpha_c * d_c + sum alpha_k * d_k
    of every (rows_i[p], rows_j[p]) pair of table rows.

    d_c is 0 for two spans of one gold cluster, else 1; d_k is 0 for two
    spans with the same concept from lexicon k, else 1. With
    `unlabeled="skip"`, a lexicon's term is dropped for pairs where either
    span carries no concept from it. The terms are added in the order of
    the span-level reference `oracles.target_distance`, so each target
    equals it bit for bit; a skipped term adds 0.0.
    """
    c_i, c_j = index.cluster[rows_i], index.cluster[rows_j]
    # Float from the start, so the terms add in place.
    total = np.multiply(weights.alpha_c, (c_i < 0) | (c_i != c_j),
                        dtype=np.float64)
    for lexicon_id, alpha in weights.alpha_k.items():
        if alpha == 0.0:
            continue
        ids = index.concept_ids(lexicon_id)
        a, b = ids[rows_i], ids[rows_j]
        term = alpha * ((a < 0) | (a != b))
        if unlabeled == "skip":
            term = np.where((a >= 0) & (b >= 0), term, 0.0)
        total += term
    return total


# ---------------------------------------------------------------------------
# Pair population for the retrofitting loss


def build_pair_set(doc_id: str, index: DocumentIndex,
                   candidate_rows: np.ndarray, budget: int,
                   rng: np.random.Generator | Sequence[int] | int) -> PairSet:
    """Pairs over the gold-cluster rows of `index` plus `candidate_rows`,
    capped at `budget`.

    The pool is in table order, which is span order. Pairs run in
    itertools.combinations order over it; over-budget sets are thinned by
    sampling without replacement from `np.random.default_rng(rng)`, built
    only then (a Generator is used as it is). The sample is drawn as flat
    pair numbers and decoded, so an over-budget pool's pairs are never
    listed.
    """
    pooled = index.cluster >= 0
    pooled[candidate_rows] = True
    rows = np.flatnonzero(pooled)
    n, order = len(rows), np.arange(len(rows))
    if n * (n - 1) // 2 <= budget:
        # Every (i, j) with i < j, row by row: np.triu_indices(n, 1).
        first, second = np.nonzero(np.less.outer(order, order))
    else:
        chosen = np.sort(np.random.default_rng(rng).choice(
            n * (n - 1) // 2, size=budget, replace=False))
        # In that order, row i's pairs start at number i*n - i*(i+1)/2.
        starts = order * n - order * (order + 1) // 2
        first = np.searchsorted(starts, chosen, side="right") - 1
        second = chosen - starts[first] + first + 1
    return PairSet(doc_id, rows, first, second)


# ---------------------------------------------------------------------------
# Combination and the document-level objective graph


def combined_loss(cl, rl, sl, weights: LossWeights):
    """beta1 * CL + beta2 * RL + beta3 * SL of three floats, with NaN
    components rejected."""
    for name, component in (("coreference", cl), ("retrofitting", rl),
                            ("scaffold", sl)):
        if math.isnan(component):
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
            check_field(LossError, name, getattr(self, name), "integer", low)
        if self.scaffold_lexicon is not None:
            check_field(LossError, "scaffold_lexicon", self.scaffold_lexicon,
                        "string")
        for name in ("scaffold_include_unlabeled", "source_phase_rl"):
            check_field(LossError, name, getattr(self, name), "switch")


@dataclass
class DocumentLosses:
    """One document's loss components, its forward-pass artifacts, and the
    backward of `total`.

    `backward(enc, scoring, scaffold)` writes the gradient of `total` into
    those parameter groups, views of one zeroed flat array; a tensor the
    objective does not reach is left as it is.
    """

    total: float
    cl: float
    rl: float
    sl: float
    pruning_misses: int
    candidates: m.CandidateSet
    pair_set: PairSet | None
    backward: Callable[..., None]


@dataclass(frozen=True)
class DocumentIndex:
    """The span table of one document's objective, and its static structure.

    The table holds the enumerated candidate spans plus, when the objective
    needs them, the gold spans and the scaffold lexicon's labeled spans,
    sorted by position. `enum_rows` maps the enumerated spans, which
    pruning picks from (`model.enumerated_layout`), into the table; every
    other array has one entry per table row. `memo` keeps what is derived
    from the index alone, such as the scaffold targets.
    """

    layout: m.SpanLayout               # the table, with its gather plan
    keys: np.ndarray                   # span_keys of the table, ascending
    enum_rows: np.ndarray              # table row of each enumerated span
    cluster: np.ndarray                # gold cluster id, -1 when unclustered
    anaphoric: np.ndarray              # not the first span of its gold cluster
    concepts: Mapping[str, np.ndarray]      # lexicon -> concept id, or -1
    labels: Mapping[str, tuple[str, ...]]   # lexicon -> label per concept id
    memo: dict = field(default_factory=dict, repr=False, compare=False)

    def concept_ids(self, lexicon_id: str) -> np.ndarray:
        ids = self.concepts.get(lexicon_id)
        return np.full(len(self.keys), -1, dtype=np.intp) if ids is None \
            else ids


def document_index(doc: Document, config: m.ModelConfig, with_gold: bool,
                   scaffold_lexicon: str | None) -> DocumentIndex:
    """The index of `doc` for one span rule, built once and kept on `doc`."""
    key = ("objective_index", config.max_span_width,
           tuple(config.width_bucket_edges), with_gold, scaffold_lexicon)
    return doc.cached(key, lambda: _build_index(doc, config, with_gold,
                                                scaffold_lexicon))


def _build_index(doc: Document, config: m.ModelConfig, with_gold: bool,
                 scaffold_lexicon: str | None) -> DocumentIndex:
    enumerated = m.enumerated_layout(len(doc), config)
    enum_keys = bounds_keys(enumerated.starts, enumerated.ends)
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

    # Often the extra spans are all enumerated, and the table is the same.
    layout = enumerated if len(keys) == len(enum_keys) \
        else m.span_layout(*span_bounds(keys), config)
    return DocumentIndex(layout, keys, np.searchsorted(keys, enum_keys),
                         cluster, anaphoric, concepts, labels)


def scaffold_targets(index: DocumentIndex, scaffold: ScaffoldParams,
                     objective: ObjectiveConfig,
                     candidate_rows: np.ndarray) -> np.ndarray:
    """(table row, class index) of each span the scaffold loss scores.

    The spans are the gold spans and the spans the scaffold lexicon labels,
    plus the candidates when unlabeled spans train the none class, in
    table order. Without the candidates the targets depend only on the
    index and the scaffold classes, so they are built once per index and
    class list and kept, read-only, in `index.memo`.
    """
    lexicon_id = objective.scaffold_lexicon
    if lexicon_id is None:
        return np.zeros((0, 2), dtype=np.intp)
    include = objective.scaffold_include_unlabeled

    def build() -> np.ndarray:
        ids = index.concept_ids(lexicon_id)
        unlabeled = -1
        if include and scaffold.none_class:
            unlabeled = scaffold.class_index[scaffold.none_class]
        # Concept id -1 picks the last entry: the class of an unlabeled span.
        class_of = np.array([scaffold.class_index.get(name, -1)
                             for name in index.labels.get(lexicon_id, ())]
                            + [unlabeled], dtype=np.intp)[ids]
        pool = (index.cluster >= 0) | (ids >= 0)
        if include:
            pool[candidate_rows] = True
        rows = np.flatnonzero(pool & (class_of >= 0))
        return np.stack([rows, class_of[rows]], axis=1)

    if include:
        return build()
    key = ("scaffold_targets", lexicon_id, scaffold.classes)
    if key not in index.memo:
        index.memo[key] = build()
        index.memo[key].flags.writeable = False
    return index.memo[key]


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
        empty = m.CandidateSet(None, np.zeros(0, dtype=np.intp))
        return DocumentLosses(combined_loss(0.0, 0.0, 0.0, weights), 0.0, 0.0,
                              0.0, 0, empty, None, lambda *_: None)
    with_scaffold = b3 > 0 and scaffold is not None
    index = document_index(
        doc, config, with_gold=b2 > 0 or b3 > 0,
        scaffold_lexicon=objective.scaffold_lexicon if with_scaffold else None)
    reps, scores, candidates, mention_backward, reps_backward = \
        m.document_forward(doc, index.layout, index.enum_rows, enc, scoring,
                           config)

    rows = index.enum_rows[candidates.indices]
    cl, cl_backward, misses = 0.0, None, 0
    if b1 > 0:
        cl, cl_backward, misses = _coref_loss_graph(
            index, candidates, reps, scores, scoring, config, rows)

    rl, rl_backward, pair_set, pool = 0.0, None, None, rows[:0]
    if b2 > 0:
        pair_set = build_pair_set(
            doc.doc_id, index, rows, objective.pair_budget,
            objective.pair_seed if rng is None else rng)
        rl, rl_backward, pool = _retrofit_loss_graph(
            index, pair_set, reps, enc.internal_columns, weights,
            objective.unlabeled_knowledge)

    sl, sl_backward, labeled = 0.0, None, rows[:0]
    if with_scaffold:
        targets = scaffold_targets(index, scaffold, objective, rows)
        if len(targets):
            sl, sl_backward = _scaffold_loss_graph(
                targets, reps, enc.internal_columns, scaffold)
            labeled = targets[:, 0]

    def backward(enc_grad, scoring_grad, scaffold_grad) -> None:
        read = [r for r, b in ((rows, cl_backward), (pool, rl_backward),
                               (labeled, sl_backward)) if b is not None]
        if not read:
            return
        # `g_live` holds the gradient of the rows a loss reads, in table
        # order; `at[r]` is table row r's place in it. It adds CL, the
        # mention head (whose score gradient only CL makes), RL and SL, in
        # that order: another order moves the trained parameters in their
        # last bits.
        is_live = np.zeros(len(scores), dtype=bool)
        for r in read:
            is_live[r] = True
        live = np.flatnonzero(is_live)
        at = np.cumsum(is_live)
        at -= 1
        g_live = np.zeros((len(live), reps.shape[1]))
        if cl_backward is not None:
            at_rows, g_scores = at[rows], np.zeros(len(scores))
            cl_backward(b1, g_live, at_rows, g_scores, scoring_grad.antecedent)
            g_live[at_rows] += mention_backward(g_scores, scoring_grad.mention,
                                                rows)
        if rl_backward is not None:
            rl_backward(b2, g_live, at[pool])
        if sl_backward is not None:
            sl_backward(b3, g_live, at[labeled], scaffold_grad.weights)
        reps_backward(g_live, enc_grad, live)

    return DocumentLosses(combined_loss(cl, rl, sl, weights), cl, rl, sl,
                          misses, candidates, pair_set, backward)


def _coref_loss_graph(index: DocumentIndex, candidates: m.CandidateSet,
                      reps: np.ndarray, scores: np.ndarray,
                      scoring: m.ScoringParams, config: m.ModelConfig,
                      rows: np.ndarray,
                      ) -> tuple[float, m.Backward | None, int]:
    """Summed marginal NLL of each candidate's gold antecedents, or of the
    dummy when none is in its window, its backward (None when there are no
    pairs), and the count of pruning misses. Candidate k is table row
    `rows[k]`."""
    pairs = m.antecedent_pairs(len(candidates), config.max_antecedents)
    cluster = index.cluster[rows]
    mention, antecedent = cluster[pairs.mention], cluster[pairs.antecedent]
    gold = (mention >= 0) & (mention == antecedent)
    numer = pairs.slots(gold, False, False)
    # The dummy, for a candidate without a gold antecedent.
    numer[:, -1] = np.bincount(pairs.mention, gold, len(rows)) == 0
    misses = int(np.count_nonzero(index.anaphoric[rows] & numer[:, -1]))
    if len(pairs.mention) == 0:
        return 0.0, None, misses
    return (*antecedent_nll(reps, scores, rows, pairs, numer,
                            scoring.antecedent), misses)


def _logsumexp_rows(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Max-shifted log-sum-exp over the last axis, and the softmax."""
    shift = values.max(axis=-1, keepdims=True)
    exps = values - shift
    np.exp(exps, out=exps)
    total = exps.sum(axis=-1, keepdims=True)
    exps /= total
    lse = np.log(total)
    lse += shift
    return lse[..., 0], exps


def antecedent_nll(full: np.ndarray, mention_scores: np.ndarray,
                   rows: np.ndarray, pairs: m.AntecedentPairs,
                   numer: np.ndarray,
                   head: m.FeedForward) -> tuple[float, m.Backward]:
    """sum_k [logsumexp of candidate k's row of `pairs.slots` of the pair
    scores (`model.pair_scores`) - logsumexp of the slots that `numer`
    marks], and its backward. Candidate k is row `rows[k]` of `full` and
    `mention_scores` (distinct rows); the backward adds its gradient into
    row `at[k]` of `g_full` and row `rows[k]` of `g_scores`, and writes
    the head's gradients into `grad`.
    """
    scores, pair_backward = m.pair_scores(
        full.take(rows, axis=0), mention_scores[rows], pairs.mention,
        pairs.antecedent, head)
    # Row-wise over every slot (denominator) and the marked ones (numerator).
    both = np.full((2, *numer.shape), -np.inf)
    both[0] = pairs.slots(scores)
    np.copyto(both[1], both[0], where=numer)
    lse, probs = _logsumexp_rows(both)

    def backward(g, g_full: np.ndarray, at: np.ndarray, g_scores: np.ndarray,
                 grad: m.FeedForward) -> None:
        # g * (p - q) of each pair's slot, its factors swapped.
        g_pair = np.subtract(probs[0], probs[1]).take(pairs.positions)
        g_pair *= g
        g_x, g_s = pair_backward(g_pair, pairs, grad)
        g_scores[rows] += g_s
        g_full[at] += g_x

    return float((lse[0] - lse[1]).sum()), backward


def _retrofit_loss_graph(index: DocumentIndex, pair_set: PairSet,
                         reps: np.ndarray, columns: slice,
                         weights: LossWeights, unlabeled: str,
                         ) -> tuple[float, m.Backward | None, np.ndarray]:
    """RL over the `columns` block of `reps`, its backward (None for no
    pairs) and the pooled spans' rows."""
    if pair_set.count == 0:
        log.warning("%s: empty pair set contributes 0", pair_set.doc_id)
        return 0.0, None, np.zeros(0, dtype=np.intp)
    rows = pair_set.rows
    targets = pair_target_distances(index, rows[pair_set.first],
                                    rows[pair_set.second], weights, unlabeled)
    return (*mean_cosine_gap(reps, columns, rows, pair_set.first,
                             pair_set.second, targets), rows)


def mean_cosine_gap(full: np.ndarray, columns: slice, rows: np.ndarray,
                    first: np.ndarray, second: np.ndarray,
                    targets: np.ndarray) -> tuple[float, m.Backward]:
    """Mean over pairs p of |targets[p] - cosine distance(v[rows[first[p]]],
    v[rows[second[p]]])|, where v is the `columns` block of `full`, and its
    backward, which adds the gradient of row `rows[i]` into row `at[i]` of
    `g_full`. The rows are distinct, and no (first, second) pair repeats.

    Zero vectors keep the cosine finite through `_NORM_EPS`, and their norm
    passes no gradient (a pair with one has a zero dot product).
    """
    v = full[rows, columns]
    norms = np.square(v).sum(axis=1)
    np.sqrt(norms, out=norms)
    products = v.take(first, axis=0)
    products *= v.take(second, axis=0)
    dots = products.sum(axis=1)
    den = norms[first]
    den *= norms[second]
    den += _NORM_EPS
    # targets - (1 - dots / den), in place.
    gaps = dots / den
    np.subtract(1.0, gaps, out=gaps)
    np.subtract(targets, gaps, out=gaps)

    def backward(g, g_full: np.ndarray, at: np.ndarray) -> None:
        # g * sign(gaps) / pairs, its first factors swapped.
        g_gaps = np.sign(gaps)
        g_gaps *= g
        g_gaps /= float(len(gaps))
        # d/dv of the pair dots and norm products, through (M, M) grids
        # over the pooled rows; pair p sits at flat position
        # first[p] * M + second[p].
        n = len(v)
        cells = first * n + second
        g_dots = np.zeros((n, n))
        g_dots.reshape(-1)[cells] = g_gaps / den
        g_den = np.zeros((n, n))
        g_den_pairs = -g_gaps
        g_den_pairs *= dots
        g_den_pairs /= np.square(den)
        g_den.reshape(-1)[cells] = g_den_pairs
        g_norms = g_den @ norms
        g_norms += g_den.T @ norms
        g_v = g_dots @ v
        g_v += g_dots.T @ v
        g_v += np.divide(g_norms, norms, out=np.zeros_like(norms),
                         where=norms > 0)[:, None] * v
        g_full[at, columns] += g_v

    return float(np.abs(gaps).sum() / float(len(gaps))), backward


def _scaffold_loss_graph(targets: np.ndarray, reps: np.ndarray,
                         columns: slice, scaffold: ScaffoldParams,
                         ) -> tuple[float, m.Backward]:
    rows, classes = targets[:, 0], targets[:, 1]
    return mean_concept_nll(reps, columns, rows, classes, scaffold.weights)


def mean_concept_nll(full: np.ndarray, columns: slice, rows: np.ndarray,
                     classes: np.ndarray,
                     weights: np.ndarray) -> tuple[float, m.Backward]:
    """Mean over targets t of the softmax NLL of class `classes[t]` under
    the logits `weights @ v[rows[t]]`, where v is the `columns` block of
    `full`, and its backward, which adds the gradient of row `rows[t]` into
    row `at[t]` of `g_full` and writes the weights' gradient into
    `g_weights`. The rows are distinct.
    """
    v = full[rows, columns]
    targets = np.arange(len(rows))
    logits = v @ weights.T
    lse, probs = _logsumexp_rows(logits)

    def backward(g, g_full: np.ndarray, at: np.ndarray,
                 g_weights: np.ndarray) -> None:
        g_logits = probs.copy()
        g_logits[targets, classes] -= 1.0
        g_logits *= g / float(len(rows))
        g_full[at, columns] += g_logits @ weights
        np.matmul(g_logits.T, v, out=g_weights)

    return (float((lse - logits[targets, classes]).sum() / float(len(rows))),
            backward)
