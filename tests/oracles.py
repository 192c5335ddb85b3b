"""Independent reference implementations used to freeze expected test values.

Everything here is deliberately written from the definitions, by a different
route than the package code, so the two sides can disagree.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
from scipy.optimize import linear_sum_assignment

from kcoref import model as m
from kcoref import training as tr
from kcoref.corpus import enumerate_candidate_spans


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


def predict_antecedents_reference(doc, store, config):
    """Per-candidate decode: the antecedent FFN once per window."""
    if len(doc) == 0:
        return {}
    enc, scoring, _, _ = tr.bind_parameters(store, config, trainable=False)
    token_vecs = m.encode_tokens(doc, enc)
    spans = enumerate_candidate_spans(doc, config.max_span_width)
    reps = m.build_span_representations(token_vecs, spans, enc, config)
    scores = m.mention_scores(reps, scoring).value
    candidates = m.prune_mentions(doc, spans, scores, config.prune_ratio)

    links = {}
    cand_rows = np.array([reps.row(s) for s in candidates.spans], dtype=np.intp)
    full = reps.full
    for k, span in enumerate(candidates.spans):
        window = m.antecedent_window(k, config.max_antecedents)
        if len(window) == 0:
            links[span] = None
            continue
        rows_i = np.full(len(window), cand_rows[k], dtype=np.intp)
        rows_j = cand_rows[window.start:window.stop]
        s_a = scoring.antecedent.apply(
            m.pair_features(full.take(rows_i), full.take(rows_j))).value
        pair_scores = s_a + scores[cand_rows[k]] + scores[rows_j]
        if np.isnan(pair_scores).any():
            raise ValueError(f"{doc.doc_id}: NaN antecedent score")
        pick = select_antecedent(pair_scores)
        links[span] = None if pick is None \
            else candidates.spans[window.start + pick]
    return links
