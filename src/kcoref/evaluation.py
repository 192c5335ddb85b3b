"""Cluster decoding and the MUC / B-cubed / CEAF-e metric suite.

Decoding scores every (candidate, antecedent) pair of a document in one
batched pass and picks each candidate's antecedent row by row from the
padded score grid.

Corpus-level scores pool every document's clusters into one clustering with
document-tagged mentions; all three metrics decompose over documents, so
pooling equals micro-averaging. Each metric reads the sparse overlap table
of `contingency`, which holds |G_i ∩ P_j| only for the cluster pairs that
share a mention. MUC and B-cubed sum over its entries with exact integer and
rational arithmetic, converted to float at the boundary. CEAF-e splits the
table into connected blocks and solves one assignment per block, since
clusters in different blocks have similarity 0.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Iterable, Mapping, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import model as m
from . import training as tr
from .corpus import (Document, SpanRef, SubwordVocab,
                     enumerate_candidate_spans, mean_subwords_per_span,
                     subword_bucket)

Cluster = frozenset
Clustering = Sequence[frozenset]


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


@dataclass(frozen=True)
class RPF1:
    recall: float
    precision: float
    f1: float

    @classmethod
    def from_rp(cls, recall: float, precision: float) -> "RPF1":
        total = recall + precision
        f1 = 2 * recall * precision / total if total > 0 else 0.0
        return cls(recall, precision, f1)


@dataclass(frozen=True)
class MetricReport:
    muc: RPF1
    b_cubed: RPF1
    ceaf_e: RPF1

    @property
    def average(self) -> RPF1:
        return average_report(self.muc, self.b_cubed, self.ceaf_e)


@dataclass
class EvalSlice:
    key: str
    gold_chains: int
    report: MetricReport


@dataclass
class PredictedClusters:
    """Decoded clusters per document; singletons are already dropped."""

    clusters: list[frozenset[SpanRef]]


# ---------------------------------------------------------------------------
# Decoding


def predict_antecedents(doc: Document, store: tr.ParameterStore,
                        config: m.ModelConfig) -> dict[SpanRef, SpanRef | None]:
    """Argmax antecedent per candidate mention; None is the dummy choice.

    Every (candidate, antecedent) pair of `model.antecedent_pairs` is scored
    in one batched pass; `select_antecedents` then picks per candidate.
    Candidates with byte-identical representations share one row, and each
    distinct pair of rows is scored once, so pairs with identical features
    tie exactly and the nearest-antecedent rule decides between them.
    """
    if len(doc) == 0:
        return {}
    enc, scoring, _ = store.groups
    token_vecs, _ = m.encode_tokens(doc, enc)
    starts, ends = enumerate_candidate_spans(doc, config.max_span_width)
    layout = m.span_layout(starts, ends, config)
    reps, _ = m.build_span_representations(token_vecs, layout, enc)
    scores, _ = m.mention_scores(reps, scoring)
    # Pruning would silently rank NaN scores last.
    if np.isnan(scores).any():
        raise ValueError(f"{doc.doc_id}: NaN mention score")
    candidates = m.prune_mentions(doc, layout, scores, config.prune_ratio)

    x = reps.full[candidates.indices]
    keys = x.view(np.dtype((np.void, x.itemsize * x.shape[1])))[:, 0]
    _, first, row_of = np.unique(keys, return_index=True, return_inverse=True)
    pairs = m.antecedent_pairs(len(candidates), config.max_antecedents)
    rows_i, rows_j = row_of[pairs.mention], row_of[pairs.antecedent]
    codes, pair_of = np.unique(rows_i * len(first) + rows_j,
                               return_inverse=True)
    s_a = m.antecedent_scores(x[first], codes // len(first),
                              codes % len(first), scoring.antecedent).scores
    s_m = scores[candidates.indices[first]]
    pair_scores = s_a[pair_of] + s_m[rows_i] + s_m[rows_j]
    if np.isnan(pair_scores).any():
        raise ValueError(f"{doc.doc_id}: NaN antecedent score")
    picks = select_antecedents(
        np.append(pair_scores, -np.inf)[pairs.grid[:, :-1]])
    window_start = np.maximum(
        np.arange(len(candidates)) - config.max_antecedents, 0)
    chosen = np.where(picks >= 0, window_start + picks, -1).tolist()
    return {span: candidates.spans[j] if j >= 0 else None
            for span, j in zip(candidates.spans, chosen)}


def select_antecedents(grid: np.ndarray) -> np.ndarray:
    """Row-wise argmax against the implicit zero-scored dummy antecedent.

    Row k holds candidate k's antecedent scores in window order, padded at
    the end with -inf. Returns the window-relative column chosen per row,
    or -1 for the dummy. Ties break toward the dummy, then toward the
    nearest (latest) antecedent.
    """
    n_rows, width = grid.shape
    if width == 0:
        return np.full(n_rows, -1, dtype=np.intp)
    best = grid.max(axis=1)
    latest = width - 1 - np.argmax(grid[:, ::-1] == best[:, None], axis=1)
    return np.where(best > 0.0, latest, -1)


def decode_clusters(links: Mapping[SpanRef, SpanRef | None]) -> PredictedClusters:
    """Connected components of the non-dummy links, found over span numbers
    and sorted by their first span; singletons dropped."""
    number: dict[SpanRef, int] = {}
    uf = UnionFind()
    for mention, antecedent in links.items():
        if antecedent is not None:
            uf.union(number.setdefault(mention, len(number)),
                     number.setdefault(antecedent, len(number)))
    spans = list(number)
    clusters = [frozenset(map(spans.__getitem__, g)) for g in uf.groups()
                if len(g) >= 2]
    clusters.sort(key=min)
    return PredictedClusters(clusters)


def predict_clusters(doc: Document, store: tr.ParameterStore,
                     config: m.ModelConfig) -> PredictedClusters:
    return decode_clusters(predict_antecedents(doc, store, config))


# ---------------------------------------------------------------------------
# Metrics


def contingency(gold: Clustering,
                pred: Clustering) -> dict[tuple[int, int], int]:
    """The sparse overlap table {(i, j): |gold[i] ∩ pred[j]|}.

    Only pairs that share a mention have an entry. A mention listed twice,
    on either side, raises ValueError: the metrics need partitions.
    """
    home = {mention: j for j, cluster in enumerate(pred) for mention in cluster}
    if len(home) != sum(len(c) for c in pred):
        raise ValueError(_repeated_mention(pred, "predicted"))
    table: dict[tuple[int, int], int] = {}
    seen: set = set()
    for i, cluster in enumerate(gold):
        seen.update(cluster)
        for j in map(home.get, cluster):
            if j is not None:
                table[i, j] = table.get((i, j), 0) + 1
    if len(seen) != sum(len(c) for c in gold):
        raise ValueError(_repeated_mention(gold, "gold"))
    return table


def _repeated_mention(clusters: Clustering, side: str) -> str:
    counts = Counter(mention for cluster in clusters for mention in cluster)
    mention = next(m for m, n in counts.items() if n > 1)
    return f"mention {mention!r} is listed twice in the {side} clusters"


def muc(gold: Clustering, pred: Clustering) -> RPF1:
    """Link-based metric: partitions of each cluster by the other side.

    A cluster C falls into one part per overlapping cluster plus a
    singleton per uncovered mention, and keeps |C| - parts of its |C| - 1
    links; summed over either side, the kept links are sum(n_ij - 1) over
    the overlap table.
    """
    table = contingency(gold, pred)
    kept = sum(table.values()) - len(table)
    r_den = sum(len(c) - 1 for c in gold)
    p_den = sum(len(c) - 1 for c in pred)
    recall = kept / r_den if r_den else 0.0
    precision = kept / p_den if p_den else 0.0
    return RPF1.from_rp(recall, precision)


def b_cubed(gold: Clustering, pred: Clustering) -> RPF1:
    """Per-mention overlap metric; missing mentions act as singletons.

    A mention of C scores |C ∩ its cluster on the other side| / |C|, so C
    adds (sum_j n_ij^2 + its uncovered mentions) / |C|; the sum is exact.
    """
    table = contingency(gold, pred)

    def side(clusters: Clustering, axis: int) -> float:
        covered = [0] * len(clusters)
        squares = [0] * len(clusters)
        for key, n in table.items():
            covered[key[axis]] += n
            squares[key[axis]] += n * n
        by_size: dict[int, int] = {}
        for cluster, cov, sq in zip(clusters, covered, squares):
            size = len(cluster)
            if size:
                by_size[size] = by_size.get(size, 0) + sq + size - cov
        total = sum(Fraction(num, size) for size, num in by_size.items())
        count = sum(len(c) for c in clusters)
        return float(total / count) if count else 0.0

    return RPF1.from_rp(side(gold, 0), side(pred, 1))


def ceaf_e(gold: Clustering, pred: Clustering) -> RPF1:
    """Entity-alignment metric with the similarity 2|G∩P| / (|G|+|P|).

    The similarity is 0 between clusters in different connected blocks of
    the overlap table, so the one-to-one alignment maximizing the total is
    found per block: a 1×1 block aligns its pair, a larger one goes to the
    Kuhn-Munkres assignment.
    """
    table = contingency(gold, pred)
    if not gold and not pred:
        return RPF1(1.0, 1.0, 1.0)
    if not gold or not pred:
        return RPF1(0.0, 0.0, 0.0)

    def phi(i: int, j: int) -> float:
        return 2.0 * table.get((i, j), 0) / (len(gold[i]) + len(pred[j]))

    blocks = UnionFind()  # gold i is node i, pred j is node ~j
    for i, j in table:
        blocks.union(i, ~j)
    aligned: list[float] = []
    for block in blocks.groups():
        rows = sorted(x for x in block if x >= 0)
        cols = sorted(~x for x in block if x < 0)
        if len(rows) == len(cols) == 1:
            aligned.append(phi(rows[0], cols[0]))
            continue
        sim = np.array([[phi(i, j) for j in cols] for i in rows])
        picked_rows, picked_cols = linear_sum_assignment(sim, maximize=True)
        aligned.extend(sim[picked_rows, picked_cols].tolist())
    total = math.fsum(aligned)
    return RPF1.from_rp(total / len(gold), total / len(pred))


def average_report(muc_score: RPF1, b3_score: RPF1, ceafe_score: RPF1) -> RPF1:
    """Unweighted arithmetic means of R, P, and F1 across the three metrics."""
    triples = (muc_score, b3_score, ceafe_score)
    return RPF1(sum(t.recall for t in triples) / 3.0,
                sum(t.precision for t in triples) / 3.0,
                sum(t.f1 for t in triples) / 3.0)


def score_clusterings(gold: Clustering, pred: Clustering) -> MetricReport:
    return MetricReport(muc(gold, pred), b_cubed(gold, pred),
                        ceaf_e(gold, pred))


def pool_documents(per_doc: Sequence[Clustering]) -> list[frozenset]:
    """Tag mentions with their document index and merge the clusterings."""
    pooled = []
    for i, clustering in enumerate(per_doc):
        for cluster in clustering:
            pooled.append(frozenset((i, mention) for mention in cluster))
    return pooled


def score_documents(gold_docs: Sequence[Clustering],
                    pred_docs: Sequence[Clustering]) -> MetricReport:
    if len(gold_docs) != len(pred_docs):
        raise ValueError("gold and predicted document counts differ")
    return score_clusterings(pool_documents(gold_docs),
                             pool_documents(pred_docs))


def evaluate_model(docs: Sequence[Document], store: tr.ParameterStore,
                   config: m.ModelConfig) -> MetricReport:
    gold = [doc.gold_clusters for doc in docs]
    pred = [predict_clusters(doc, store, config).clusters for doc in docs]
    return score_documents(gold, pred)


# ---------------------------------------------------------------------------
# Evaluation slices


def _restrict(clusters: Iterable[frozenset], mentions: set) -> list[frozenset]:
    out = []
    for cluster in clusters:
        kept = frozenset(m for m in cluster if m in mentions)
        if kept:
            out.append(kept)
    return out


def _chain_label(cluster: frozenset[SpanRef],
                 labels: Mapping[SpanRef, str]) -> str | None:
    found = {labels[s] for s in cluster if s in labels}
    if len(found) == 1:
        return next(iter(found))
    return None


def slice_by_concept(docs: Sequence[Document],
                     pred_docs: Sequence[Clustering],
                     lexicon_id: str) -> list[EvalSlice]:
    """Per-concept scores over gold chains carrying that concept.

    Predicted clusters are intersected with the slice's gold mentions.
    """
    keys: set[str] = set()
    for doc in docs:
        labels = doc.concept_annotations.get(lexicon_id, {})
        for cluster in doc.gold_clusters:
            label = _chain_label(cluster, labels)
            if label is not None:
                keys.add(label)
    slices = []
    for key in sorted(keys):
        gold_sel: list[list[frozenset]] = []
        pred_sel: list[list[frozenset]] = []
        n_chains = 0
        for doc, pred in zip(docs, pred_docs):
            labels = doc.concept_annotations.get(lexicon_id, {})
            chains = [c for c in doc.gold_clusters
                      if _chain_label(c, labels) == key]
            n_chains += len(chains)
            mentions = {s for c in chains for s in c}
            gold_sel.append(chains)
            pred_sel.append(_restrict(pred, mentions))
        report = score_documents(gold_sel, pred_sel)
        slices.append(EvalSlice(key, n_chains, report))
    return slices


def bucket_key(bucket: int, width: float = 1.7, n_buckets: int = 5) -> str:
    if bucket >= n_buckets:
        return f"[{n_buckets * width:.1f},inf)"
    return f"[{bucket * width:.1f},{(bucket + 1) * width:.1f})"


def slice_by_subword_bucket(docs: Sequence[Document],
                            pred_docs: Sequence[Clustering],
                            vocab: SubwordVocab, width: float = 1.7,
                            n_buckets: int = 5) -> list[EvalSlice]:
    """Scores per half-open bucket of mean wordpieces per span per chain.

    Chains past the last bucket pool into an overflow slice.
    """
    assignments: list[list[tuple[frozenset, int]]] = []
    seen: set[int] = set()
    for doc in docs:
        rows = []
        for cluster in doc.gold_clusters:
            mean_pieces = mean_subwords_per_span(cluster, doc, vocab)
            bucket = subword_bucket(mean_pieces, width, n_buckets)
            rows.append((cluster, bucket))
            seen.add(bucket)
        assignments.append(rows)
    slices = []
    for bucket in sorted(seen):
        gold_sel: list[list[frozenset]] = []
        pred_sel: list[list[frozenset]] = []
        n_chains = 0
        for rows, pred in zip(assignments, pred_docs):
            chains = [c for c, b in rows if b == bucket]
            n_chains += len(chains)
            mentions = {s for c in chains for s in c}
            gold_sel.append(chains)
            pred_sel.append(_restrict(pred, mentions))
        report = score_documents(gold_sel, pred_sel)
        slices.append(EvalSlice(bucket_key(bucket, width, n_buckets),
                                n_chains, report))
    return slices
