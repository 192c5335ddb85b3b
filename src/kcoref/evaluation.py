"""Cluster decoding and the MUC / B-cubed / CEAF-e metric suite.

Decoding scores every (candidate, antecedent) pair of a document in one
batched pass and picks each candidate's antecedent row by row from the
padded score grid.

All three metrics are functions of one table, `Overlap`: the sparse
contingency |G_i ∩ P_j| (entries only for cluster pairs that share a
mention) plus the cluster sizes of both sides. Corpus-level scores number
clusters across documents and fill one table from per-document
contingencies; every metric decomposes over documents, so this equals
micro-averaging. MUC and B-cubed sum over the table with exact integer and
rational arithmetic, converted to float at the boundary. CEAF-e splits the
table into connected blocks and solves one assignment per block, since
clusters in different blocks have similarity 0. A slice of the gold chains
is a subset of the table's rows: a predicted cluster cut down to the
slice's mentions has its column sum over those rows as its size.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Hashable, Mapping, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import model as m
from . import training as tr
from .corpus import (Document, SpanRef, SubwordVocab, chain_concepts,
                     enumerate_candidate_spans, mean_subwords_per_span,
                     subword_bucket)

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


@dataclass(frozen=True, eq=False)
class Overlap:
    """A contingency table as arrays, with the sizes of both sides' clusters.

    Entry k says gold cluster `rows[k]` and predicted cluster `cols[k]`
    share `counts[k]` mentions. MUC, B-cubed and CEAF-e read nothing else.
    """

    rows: np.ndarray
    cols: np.ndarray
    counts: np.ndarray
    gold_sizes: np.ndarray
    pred_sizes: np.ndarray

    @classmethod
    def of(cls, gold: Clustering, pred: Clustering) -> "Overlap":
        return cls._build(contingency(gold, pred), list(map(len, gold)),
                          list(map(len, pred)))

    @classmethod
    def pooled(cls, gold_docs: Sequence[Clustering],
               pred_docs: Sequence[Clustering]) -> "Overlap":
        """One table over all documents.

        Clusters are numbered across documents in order, and each
        document's contingency fills the table at its clusters' offsets.
        """
        if len(gold_docs) != len(pred_docs):
            raise ValueError("gold and predicted document counts differ")
        table: dict[tuple[int, int], int] = {}
        gold_sizes: list[int] = []
        pred_sizes: list[int] = []
        for d, (gold, pred) in enumerate(zip(gold_docs, pred_docs)):
            try:
                entries = contingency(gold, pred)
            except ValueError as exc:
                raise ValueError(f"document {d}: {exc}") from None
            di, dj = len(gold_sizes), len(pred_sizes)
            for (i, j), n in entries.items():
                table[i + di, j + dj] = n
            gold_sizes.extend(map(len, gold))
            pred_sizes.extend(map(len, pred))
        return cls._build(table, gold_sizes, pred_sizes)

    @classmethod
    def _build(cls, table: Mapping[tuple[int, int], int],
               gold_sizes: list[int], pred_sizes: list[int]) -> "Overlap":
        keys = np.array(list(table), dtype=np.intp).reshape(-1, 2)
        return cls(keys[:, 0], keys[:, 1],
                   np.fromiter(table.values(), np.int64, len(table)),
                   np.array(gold_sizes, dtype=np.int64),
                   np.array(pred_sizes, dtype=np.int64))

    def restrict(self, gold_rows: Sequence[int]) -> "Overlap":
        """The gold clusters `gold_rows` against the predicted clusters cut
        down to those clusters' mentions.

        A cut-down predicted cluster's size is its column sum over the kept
        rows; clusters left empty drop out, and both sides keep their order.
        """
        kept = np.zeros(len(self.gold_sizes), dtype=bool)
        kept[gold_rows] = True
        entries = kept[self.rows]
        cols, counts = self.cols[entries], self.counts[entries]
        # Sums of small integers are exact in float64.
        pred_sizes = np.bincount(cols, counts, len(self.pred_sizes)) \
            .astype(np.int64)
        live = pred_sizes > 0
        return Overlap((np.cumsum(kept) - 1)[self.rows[entries]],
                       (np.cumsum(live) - 1)[cols], counts,
                       self.gold_sizes[kept], pred_sizes[live])


def _muc(table: Overlap) -> RPF1:
    """Link-based metric: partitions of each cluster by the other side.

    A cluster C falls into one part per overlapping cluster plus a
    singleton per uncovered mention, and keeps |C| - parts of its |C| - 1
    links; summed over either side, the kept links are sum(n_ij - 1) over
    the overlap table.
    """
    kept = int(table.counts.sum()) - len(table.counts)
    r_den = int(table.gold_sizes.sum()) - len(table.gold_sizes)
    p_den = int(table.pred_sizes.sum()) - len(table.pred_sizes)
    recall = kept / r_den if r_den else 0.0
    precision = kept / p_den if p_den else 0.0
    return RPF1.from_rp(recall, precision)


def _b_cubed(table: Overlap) -> RPF1:
    """Per-mention overlap metric; missing mentions act as singletons.

    A mention of C scores |C ∩ its cluster on the other side| / |C|, so C
    adds (sum_j n_ij^2 + its uncovered mentions) / |C|; the sum is exact.
    """
    def side(sizes: np.ndarray, index: np.ndarray) -> float:
        # Sums of small integers are exact in float64.
        covered = np.bincount(index, table.counts, len(sizes))
        squares = np.bincount(index, table.counts ** 2, len(sizes))
        present = sizes > 0
        size_of, group = np.unique(sizes[present], return_inverse=True)
        numerators = np.bincount(
            group, (squares + sizes - covered)[present], len(size_of))
        total = sum(map(Fraction, numerators.astype(np.int64).tolist(),
                        size_of.tolist()))
        count = int(sizes.sum())
        return float(total / count) if count else 0.0

    return RPF1.from_rp(side(table.gold_sizes, table.rows),
                        side(table.pred_sizes, table.cols))


def _ceaf_e(table: Overlap) -> RPF1:
    """Entity-alignment metric with the similarity 2|G∩P| / (|G|+|P|).

    The similarity is 0 between clusters in different connected blocks of
    the overlap table, so the one-to-one alignment maximizing the total is
    found per block: a 1×1 block aligns its pair, a larger one goes to the
    Kuhn-Munkres assignment.
    """
    n_gold, n_pred = len(table.gold_sizes), len(table.pred_sizes)
    if not n_gold and not n_pred:
        return RPF1(1.0, 1.0, 1.0)
    if not n_gold or not n_pred:
        return RPF1(0.0, 0.0, 0.0)
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
    row_at, n_rows = _rank_in_block(block, rows[shared][order])
    col_at, n_cols = _rank_in_block(block, cols[shared][order])
    values = phi[shared][order]
    bounds = np.searchsorted(block, np.arange(len(n_rows) + 1)).tolist()
    for b, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        sim = np.zeros((n_rows[b], n_cols[b]))
        sim[row_at[lo:hi], col_at[lo:hi]] = values[lo:hi]
        picked_rows, picked_cols = linear_sum_assignment(sim, maximize=True)
        aligned.extend(sim[picked_rows, picked_cols].tolist())
    total = math.fsum(aligned)
    return RPF1.from_rp(total / n_gold, total / n_pred)


def _rank_in_block(block: np.ndarray,
                   keys: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Each entry's rank among the distinct keys of its block (ascending),
    and the number of distinct keys per block; `block` is sorted."""
    stride = int(keys.max(initial=0)) + 1
    codes, at = np.unique(block * stride + keys, return_inverse=True)
    owner = codes // stride
    return at - np.searchsorted(owner, owner)[at], \
        np.bincount(owner).tolist()


def _report(table: Overlap) -> MetricReport:
    return MetricReport(_muc(table), _b_cubed(table), _ceaf_e(table))


def muc(gold: Clustering, pred: Clustering) -> RPF1:
    return _muc(Overlap.of(gold, pred))


def b_cubed(gold: Clustering, pred: Clustering) -> RPF1:
    return _b_cubed(Overlap.of(gold, pred))


def ceaf_e(gold: Clustering, pred: Clustering) -> RPF1:
    return _ceaf_e(Overlap.of(gold, pred))


def average_report(muc_score: RPF1, b3_score: RPF1, ceafe_score: RPF1) -> RPF1:
    """Unweighted arithmetic means of R, P, and F1 across the three metrics."""
    triples = (muc_score, b3_score, ceafe_score)
    return RPF1(sum(t.recall for t in triples) / 3.0,
                sum(t.precision for t in triples) / 3.0,
                sum(t.f1 for t in triples) / 3.0)


def score_clusterings(gold: Clustering, pred: Clustering) -> MetricReport:
    return _report(Overlap.of(gold, pred))


def score_documents(gold_docs: Sequence[Clustering],
                    pred_docs: Sequence[Clustering]) -> MetricReport:
    """Corpus-level scores: every metric decomposes over documents, so one
    table over all of them micro-averages."""
    return _report(Overlap.pooled(gold_docs, pred_docs))


def evaluate_model(docs: Sequence[Document], store: tr.ParameterStore,
                   config: m.ModelConfig) -> MetricReport:
    gold = [doc.gold_clusters for doc in docs]
    pred = [predict_clusters(doc, store, config).clusters for doc in docs]
    return score_documents(gold, pred)


# ---------------------------------------------------------------------------
# Evaluation slices


def _slices(table: Overlap, keys: Sequence,
            name: Callable[..., str]) -> list[EvalSlice]:
    """One slice per key other than None, in key order, scored from the
    rows of the gold clusters with that key."""
    rows_of: dict = {}
    for row, key in enumerate(keys):
        rows_of.setdefault(key, []).append(row)
    rows_of.pop(None, None)
    return [EvalSlice(name(key), len(rows), _report(table.restrict(rows)))
            for key, rows in sorted(rows_of.items())]


def slice_by_concept(docs: Sequence[Document],
                     pred_docs: Sequence[Clustering],
                     lexicon_id: str) -> list[EvalSlice]:
    """Per-concept scores over the gold chains whose labeled spans carry
    that one concept.

    Predicted clusters are intersected with the slice's gold mentions.
    """
    table = Overlap.pooled([doc.gold_clusters for doc in docs], pred_docs)
    labels = []
    for doc in docs:
        spans = doc.concept_annotations.get(lexicon_id, {})
        for chain in doc.gold_clusters:
            found = chain_concepts(chain, spans)
            labels.append(found.pop() if len(found) == 1 else None)
    return _slices(table, labels, str)


def bucket_key(bucket: int, width: float = 1.7, n_buckets: int = 5) -> str:
    if bucket >= n_buckets:
        return f"[{n_buckets * width:.1f},inf)"
    return f"[{bucket * width:.1f},{(bucket + 1) * width:.1f})"


def slice_by_subword_bucket(docs: Sequence[Document],
                            pred_docs: Sequence[Clustering],
                            vocab: SubwordVocab, width: float = 1.7,
                            n_buckets: int = 5) -> list[EvalSlice]:
    """Scores per half-open bucket of mean wordpieces per span per chain.

    Chains past the last bucket pool into an overflow slice. Predicted
    clusters are intersected with the slice's gold mentions.
    """
    table = Overlap.pooled([doc.gold_clusters for doc in docs], pred_docs)
    pieces: dict[str, int] = {}
    buckets = [subword_bucket(mean_subwords_per_span(chain, doc, vocab, pieces),
                              width, n_buckets)
               for doc in docs for chain in doc.gold_clusters]
    return _slices(table, buckets,
                   lambda bucket: bucket_key(bucket, width, n_buckets))
