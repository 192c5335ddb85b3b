"""Independent reference implementations used to freeze expected test values.

Everything here is deliberately written from the definitions, by a different
route than the package code, so the two sides can disagree.
"""

from __future__ import annotations

import itertools
import logging
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy.optimize import linear_sum_assignment

from kcoref import autodiff as ad
from kcoref import model as m
from kcoref import training as tr
from kcoref.autodiff import Tensor
from kcoref.corpus import SpanRef
from kcoref.losses import LossError, target_distance


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
    max_width = max(s.width for s in spans)
    tokens = [[min(s.start + k, s.end) for k in range(max_width)]
              for s in spans]
    mask = [[1.0 if k < s.width else 0.0 for k in range(max_width)]
            for s in spans]
    buckets = [min(width_bucket_index(s.width, config.width_bucket_edges),
                   config.n_width_buckets - 1) for s in spans]
    return m.SpanLayout(np.array([s.start for s in spans], dtype=np.intp),
                        np.array([s.end for s in spans], dtype=np.intp),
                        np.array(tokens, dtype=np.intp), np.array(mask),
                        np.array(buckets, dtype=np.intp))


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


def random_clustering(rng, n_mentions: int, max_clusters: int):
    """Random partition of a subset of mention ids 0..n_mentions-1."""
    mentions = [m for m in range(n_mentions) if rng.random() < 0.9]
    k = rng.integers(1, max_clusters + 1)
    clusters = [[] for _ in range(k)]
    for m in mentions:
        clusters[rng.integers(0, k)].append(m)
    return [set(c) for c in clusters if len(c) >= 2]


def eig2x2(a: float, b: float, c: float):
    """Eigenvalues (desc) of the symmetric matrix [[a, b], [b, c]]."""
    mean = (a + c) / 2.0
    root = math.sqrt(((a - c) / 2.0) ** 2 + b * b)
    return mean + root, mean - root


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


# ---------------------------------------------------------------------------
# Span representations and pair scores, one span or pair at a time, on the
# autodiff tape.


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
    bucket = width_bucket_index(span.width, config.width_bucket_edges)
    bucket = min(bucket, config.n_width_buckets - 1)
    start_vec = token_vecs.take(span.start)
    end_vec = token_vecs.take(span.end)
    internal = attend_span(token_vecs, span, enc)
    width_feat = enc.width_embeddings.take(bucket)
    full = ad.concat([start_vec, end_vec, internal, width_feat], axis=0)
    return SpanRepresentation(span, start_vec, end_vec, internal, width_feat,
                              full)


def mention_score(rep, scoring) -> Tensor:
    h = rep.full if isinstance(rep, SpanRepresentation) else rep
    return scoring.mention.apply(h)


def pair_features(h_i: Tensor, h_j: Tensor) -> Tensor:
    return ad.concat([h_i, h_j, h_i * h_j], axis=h_i.ndim - 1)


def pair_score(rep_i: SpanRepresentation, rep_j: SpanRepresentation,
               scoring) -> Tensor:
    """s(i, j) = s_m(i) + s_m(j) + s_a(i, j); the dummy antecedent scores 0."""
    if not (rep_j.span < rep_i.span):
        raise OrderingError(
            f"antecedent {rep_j.span} must precede mention {rep_i.span}")
    s_a = scoring.antecedent.apply(pair_features(rep_i.full, rep_j.full))
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


def retrofit_loss(docs, pair_sets, internals, weights,
                  unlabeled: str = "strict") -> Tensor:
    """Mean absolute gap between target and cosine distance, summed over docs."""
    by_id = {d.doc_id: d for d in docs}
    total = Tensor(0.0)
    for pair_set in pair_sets:
        doc = by_id[pair_set.doc_id]
        if pair_set.count == 0:
            logging.getLogger(__name__).warning(
                "%s: empty pair set contributes 0", doc.doc_id)
            continue
        vectors = internals[doc.doc_id]
        acc = Tensor(0.0)
        for span_i, span_j in pair_set.pairs:
            target = target_distance(span_i, span_j, doc, weights, unlabeled)
            gap = Tensor(target) - cosine_distance_t(vectors[span_i],
                                                     vectors[span_j])
            acc = acc + gap.abs()
        total = total + acc / float(pair_set.count)
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
            logits = scaffold.weights @ internals[doc_id][span]
            nll = logits.logsumexp() - logits.take(scaffold.class_index[concept])
            acc = acc + nll
        total = total + acc / float(len(spans))
    return total


def gold_antecedent_rows(doc, candidates, k: int,
                         window: range) -> tuple[list[int], bool]:
    """Window positions of candidate k's gold antecedents, and whether an
    anaphoric mention lost every gold antecedent to the window."""
    span = candidates.spans[k]
    cluster = doc.cluster_of(span)
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
# The fused tape nodes, composed from small tape ops: their gradient
# references.


def span_representations_tape(token_vecs: Tensor, layout: m.SpanLayout,
                              enc) -> Tensor:
    """`full` of `model.build_span_representations`."""
    n_spans, max_w = layout.tokens.shape
    mask = layout.mask
    logits = (token_vecs @ enc.attention_w).take(layout.tokens)
    shift = np.where(mask > 0, logits.value, -np.inf).max(axis=1,
                                                          keepdims=True)
    exps = (logits - shift).exp() * mask
    weights = exps / exps.sum(axis=1, keepdims=True)
    internal = (weights.reshape(n_spans, max_w, 1)
                * token_vecs.take(layout.tokens)).sum(axis=1)
    return ad.concat([token_vecs.take(layout.starts),
                      token_vecs.take(layout.ends), internal,
                      enc.width_embeddings.take(layout.buckets)], axis=1)


def antecedent_nll_tape(full: Tensor, mention_scores: Tensor, rows,
                        pairs: m.AntecedentPairs, numer,
                        head: m.FeedForward) -> Tensor:
    """`losses.antecedent_nll`, with the antecedent FFN applied to the
    concatenated pair features."""
    rows_i, rows_j = rows[pairs.mention], rows[pairs.antecedent]
    s_a = head.apply(pair_features(full.take(rows_i), full.take(rows_j)))
    pair_scores = s_a + mention_scores.take(rows_i) \
        + mention_scores.take(rows_j)
    slots = ad.concat([pair_scores, Tensor([-np.inf, 0.0])])
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


def mean_concept_nll_tape(full: Tensor, columns: slice, rows, classes,
                          weights: Tensor) -> Tensor:
    """`losses.mean_concept_nll`."""
    logits = (full.take(rows).narrow(columns.start, columns.stop, axis=1)
              @ weights.transpose())
    onehot = np.zeros((len(rows), weights.shape[0]))
    onehot[np.arange(len(rows)), classes] = 1.0
    true_logits = (logits * Tensor(onehot)).sum(axis=1)
    return (logits.logsumexp(axis=1) - true_logits).mean()


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
    s_a = scoring.antecedent.apply(pair_features(Tensor(h_i), Tensor(h_j)))
    s_i = scoring.mention.apply(Tensor(h_i))
    s_j = scoring.mention.apply(Tensor(h_j))
    return float(s_a.value) + float(s_i.value) + float(s_j.value)


def predict_antecedents_reference(doc, store, config):
    """Per-candidate decode, scoring one pair per call."""
    if len(doc) == 0:
        return {}
    enc, scoring, _, _ = tr.bind_parameters(store, config, trainable=False)
    token_vecs = m.encode_tokens(doc, enc)
    layout = span_layout_reference(
        enumerate_candidate_spans_reference(doc, config.max_span_width),
        config)
    reps = m.build_span_representations(token_vecs, layout, enc)
    scores = m.mention_scores(reps, scoring).value
    candidates = m.prune_mentions(doc, layout, scores, config.prune_ratio)

    links = {}
    full = reps.full.value
    cand_rows = [reps.row(s) for s in candidates.spans]
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


def optimizer_step_reference(tensors: dict, grads: dict, rates,
                             state: AdamMoments) -> None:
    """One adaptive-moment update of each named array, in place."""
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
        tensors[name] -= rates.rate_for(name) * m_hat / (
            np.sqrt(v_hat) + state.epsilon)
