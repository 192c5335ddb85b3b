"""Cluster decoding and the MUC / B-cubed / CEAF-e metric suite.

Decoding prunes a document's enumerated spans with training's forward,
scores every (candidate, antecedent) pair in one batched pass, picks each
candidate's antecedent as the last maximal column of its row of the slot
grid, dummy last, and joins the links into clusters over candidate rows;
`SpanRef`s are built only for the mentions of the clusters it returns.
The forward's matrix-vector products are row-stable einsums (see `model`),
so spans and pairs with byte-identical features score byte-identically
wherever they sit, and the tie rules of pruning and decoding hold exactly.

`score_documents` is the one scoring entry point: a single document is
scored as a corpus of one. All three metrics are functions of one table,
`Overlap`: the sparse contingency |G_i ∩ P_j| (entries only for cluster
pairs that share a mention) plus the cluster sizes of both sides.
Mentions become int64 ids once (`mention_ids`), and the table is filled
from one sort of both sides' (document, id) pairs, clusters numbered
across documents; every metric decomposes over documents, so one table
over all of them equals micro-averaging. MUC and B-cubed sum over the
table with exact integer and rational arithmetic, converted to float at
the boundary. CEAF-e labels the table's connected blocks, since clusters
in different blocks have similarity 0: a block with one gold or one
predicted cluster aligns its largest entry, and only a block with at
least two of each solves an assignment. The labelling is numpy label
propagation and the assignment a port of scipy's solver, so scoring loads
no scipy module. A slice of the gold chains is a subset of the table's
rows: a predicted cluster cut down to the slice's mentions has its column
sum over those rows as its size.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from . import model as m
from . import training as tr
from .corpus import (SUBWORD_BUCKET_WIDTH, SUBWORD_BUCKETS, Document,
                     SpanRef, SubwordVocab, chain_concepts,
                     mean_subwords_per_span, span_keys, subword_bucket)

Clustering = Sequence[frozenset]


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


@dataclass(frozen=True, eq=False)
class Antecedents:
    """Each candidate mention's chosen antecedent, as candidate rows.

    Candidate k is the span [starts[k], ends[k]]; candidates are in
    (start, end) order. `antecedent[k]` is the earlier candidate that k
    links to, or -1 for the dummy.
    """

    starts: np.ndarray
    ends: np.ndarray
    antecedent: np.ndarray


@dataclass
class PredictedClusters:
    """Decoded clusters per document; singletons are already dropped."""

    clusters: list[frozenset[SpanRef]]


# ---------------------------------------------------------------------------
# Decoding


def predict_antecedents(doc: Document, store: tr.ParameterStore,
                        config: m.ModelConfig) -> Antecedents:
    """Argmax antecedent per candidate mention, as candidate rows.

    The candidates come from training's forward (`model.document_forward`),
    every pair of `model.antecedent_pairs` is scored by `model.pair_scores`
    in one pass, and `select_antecedents` picks per row of the slot grid.
    `pair_scores` gives a pair's score the same bytes wherever it sits in
    the batch, so pairs with byte-identical features tie exactly and the
    nearest-antecedent rule decides between them. The first call keeps the
    heap (`training.keep_heap`), as a doc-step does.
    """
    tr.keep_heap()
    if len(doc) == 0:
        none = np.zeros(0, dtype=np.intp)
        return Antecedents(none, none, none)
    enc, scoring, _ = store.groups
    layout = m.enumerated_layout(len(doc), config)
    reps, scores, candidates, _, _ = m.document_forward(
        doc, layout, np.arange(len(layout)), enc, scoring, config)
    # Pruning ranked any NaN score last without a word.
    if np.isnan(scores).any():
        raise ValueError(f"{doc.doc_id}: NaN mention score")
    rows = candidates.indices
    x, s_m = reps.take(rows, axis=0), scores[rows]
    pairs = m.antecedent_pairs(len(x), config.max_antecedents)
    pair_scores, _ = m.pair_scores(x, s_m, pairs.mention, pairs.antecedent,
                                   scoring.antecedent)
    if np.isnan(pair_scores).any():
        raise ValueError(f"{doc.doc_id}: NaN antecedent score")
    columns = select_antecedents(pairs.slots(pair_scores))
    return Antecedents(layout.starts[rows], layout.ends[rows],
                       pairs.antecedent_grid[np.arange(len(columns)),
                                             columns])


def select_antecedents(slots: np.ndarray) -> np.ndarray:
    """The last maximal column of each row of `model.AntecedentPairs.slots`.

    Row k holds candidate k's antecedent scores in window order, -inf
    padding, and the dummy's 0.0 last, so ties go to the dummy, then to
    the nearest (latest) antecedent.
    """
    best = slots.max(axis=1, keepdims=True)
    return slots.shape[1] - 1 - np.argmax(slots[:, ::-1] == best, axis=1)


def decode_clusters(antecedents: Antecedents) -> PredictedClusters:
    """Connected components of the non-dummy links, sorted by their first
    span; singletons dropped.

    Every link points to an earlier candidate, so one forward pass gives
    each candidate its component's root, the component's first candidate.
    `SpanRef`s are built for the clustered candidates alone.
    """
    root = list(range(len(antecedents.antecedent)))
    size = [1] * len(root)
    for k, j in enumerate(antecedents.antecedent.tolist()):
        if not -1 <= j < k:
            raise ValueError(f"candidate {k} links to {j}, not to an "
                             f"earlier candidate or the dummy")
        if j >= 0:
            root[k] = root[j]
            size[root[k]] += 1
    clusters: dict[int, list[SpanRef]] = {}
    for r, start, end in zip(root, antecedents.starts.tolist(),
                             antecedents.ends.tolist()):
        if size[r] > 1:
            clusters.setdefault(r, []).append(SpanRef(start, end))
    return PredictedClusters(list(map(frozenset, clusters.values())))


def predict_clusters(doc: Document, store: tr.ParameterStore,
                     config: m.ModelConfig) -> PredictedClusters:
    return decode_clusters(predict_antecedents(doc, store, config))


# ---------------------------------------------------------------------------
# Metrics


def _repeated_mention(clusters: Clustering, side: str) -> str:
    counts = Counter(mention for cluster in clusters for mention in cluster)
    mention = next(m for m, n in counts.items() if n > 1)
    return f"mention {mention!r} is listed twice in the {side} clusters"


def mention_ids(mentions: list) -> np.ndarray:
    """One int64 per mention, equal exactly where the mentions are equal.

    `SpanRef`s get their `span_keys`; other mentions are numbered in order
    of first appearance by one dict.
    """
    if set(map(type, mentions)) <= {SpanRef}:
        return span_keys(mentions)
    ids: dict = {}
    return np.fromiter((ids.setdefault(x, len(ids)) for x in mentions),
                       np.int64, len(mentions))


def _flatten(docs: Sequence[Clustering]
             ) -> tuple[list, np.ndarray, np.ndarray, np.ndarray]:
    """Every mention of `docs`' clusters, with the cluster sizes (clusters
    numbered across documents in order), and each mention's cluster and
    document."""
    clusters = [cluster for clustering in docs for cluster in clustering]
    sizes = np.fromiter(map(len, clusters), np.int64, len(clusters))
    per_doc = np.fromiter(map(len, docs), np.intp, len(docs))
    mentions = [mention for cluster in clusters for mention in cluster]
    doc_of = np.repeat(np.arange(len(docs)), per_doc)
    return (mentions, sizes, np.repeat(np.arange(len(clusters)), sizes),
            np.repeat(doc_of, sizes))


@dataclass(frozen=True, eq=False)
class Overlap:
    """A contingency table as arrays, with the sizes of both sides' clusters.

    Entry k says gold cluster `rows[k]` and predicted cluster `cols[k]`
    share `counts[k]` mentions; the entries are in (row, col) order. MUC,
    B-cubed and CEAF-e read nothing else.
    """

    rows: np.ndarray
    cols: np.ndarray
    counts: np.ndarray
    gold_sizes: np.ndarray
    pred_sizes: np.ndarray

    @classmethod
    def pooled(cls, gold_docs: Sequence[Clustering],
               pred_docs: Sequence[Clustering]) -> "Overlap":
        """One table over all documents, clusters numbered across documents
        in order, from one sort of both sides' mentions by (document,
        `mention_ids`, side): a gold mention next to the same predicted
        mention adds one to their clusters' entry.

        A mention listed twice in a document, on either side, raises
        ValueError naming the document, checked document by document and
        the predicted side first.
        """
        if len(gold_docs) != len(pred_docs):
            raise ValueError("gold and predicted document counts differ")
        gold_mentions, gold_sizes, gold_cluster, gold_doc = _flatten(gold_docs)
        pred_mentions, pred_sizes, pred_cluster, pred_doc = _flatten(pred_docs)
        ids = mention_ids(gold_mentions + pred_mentions)
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
                _repeated_mention(pred_docs[d], "predicted") if pred_side
                else _repeated_mention(gold_docs[d], "gold")))
        at = np.flatnonzero(meet)  # gold at `at`, predicted at `at + 1`
        stride = max(len(pred_sizes), 1)
        codes, counts = np.unique(cluster[at] * stride + cluster[at + 1],
                                  return_counts=True)
        return cls(codes // stride, codes % stride, counts, gold_sizes,
                   pred_sizes)

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
    found per block. A block with one gold or one predicted cluster aligns
    its largest entry, all such blocks in one reduction; a block with at
    least two of each goes to the Kuhn-Munkres assignment.
    """
    n_gold, n_pred = len(table.gold_sizes), len(table.pred_sizes)
    if not n_gold and not n_pred:
        return RPF1(1.0, 1.0, 1.0)
    if not n_gold or not n_pred or not len(table.counts):
        return RPF1(0.0, 0.0, 0.0)
    rows, cols = table.rows, table.cols
    phi = 2.0 * table.counts / (table.gold_sizes[rows]
                                + table.pred_sizes[cols])
    n_blocks, label = _blocks(table)
    n_rows = np.bincount(label[:n_gold], minlength=n_blocks)
    n_cols = np.bincount(label[n_gold:], minlength=n_blocks)
    block = label[rows]
    order = np.argsort(block, kind="stable")
    block, values = block[order], phi[order]
    first = np.flatnonzero(np.diff(block, prepend=-1))
    owner = block[first]
    small = (n_rows[owner] == 1) | (n_cols[owner] == 1)
    aligned = np.maximum.reduceat(values, first)[small].tolist()
    large = ~small[np.searchsorted(owner, block)]
    block = block[large]
    row_at = _rank_in_block(block, rows[order][large])
    col_at = _rank_in_block(block, cols[order][large])
    values = values[large]
    bounds = np.flatnonzero(np.diff(block, prepend=-1, append=-1)).tolist()
    for lo, hi in zip(bounds, bounds[1:]):
        b = block[lo]
        sim = np.zeros((n_rows[b], n_cols[b]))
        sim[row_at[lo:hi], col_at[lo:hi]] = values[lo:hi]
        picked_rows, picked_cols = linear_sum_assignment(sim, maximize=True)
        aligned.extend(sim[picked_rows, picked_cols].tolist())
    total = math.fsum(aligned)
    return RPF1.from_rp(total / n_gold, total / n_pred)


def linear_sum_assignment(matrix: np.ndarray, maximize: bool = False
                          ) -> tuple[np.ndarray, np.ndarray]:
    """The rows and columns of a minimum-cost (or, with `maximize`, a
    maximum-cost) one-to-one assignment of the finite cost `matrix`.

    A port of the shortest augmenting path algorithm that
    `scipy.optimize.linear_sum_assignment` runs (Crouse 2016, "On
    implementing 2D rectangular assignment algorithms"), with its order of
    operations, so it returns scipy's assignment, ties included: a tall
    matrix is solved transposed, rows are augmented in order, the free
    columns are scanned in reverse index order, and a tie goes to an
    unassigned column. The blocks CEAF-e solves are a few clusters a side,
    where a loop over Python floats is fast.
    """
    cost = np.asarray(matrix, dtype=np.float64)
    if cost.ndim != 2 or not np.isfinite(cost).all():
        raise ValueError(f"the cost matrix must be 2-D and finite; it has "
                         f"shape {cost.shape}")
    transpose = cost.shape[1] < cost.shape[0]
    if transpose:
        cost = cost.T
    if maximize:
        cost = -cost
    n_rows, n_cols = cost.shape
    cost = cost.tolist()
    u, v = [0.0] * n_rows, [0.0] * n_cols
    col4row, row4col = [-1] * n_rows, [-1] * n_cols
    path = [-1] * n_cols
    for cur_row in range(n_rows):
        # Dijkstra over the reduced costs from `cur_row` to a free column.
        shortest = [math.inf] * n_cols
        remaining = list(range(n_cols - 1, -1, -1))
        seen_rows, seen_cols = [], []
        i, min_val, sink = cur_row, 0.0, -1
        while sink == -1:
            index, lowest = -1, math.inf
            for it, j in enumerate(remaining):
                r = min_val + cost[i][j] - u[i] - v[j]
                if r < shortest[j]:
                    path[j] = i
                    shortest[j] = r
                if shortest[j] < lowest \
                        or shortest[j] == lowest and row4col[j] == -1:
                    lowest, index = shortest[j], it
            min_val = lowest
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
                seen_rows.append(i)
            seen_cols.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
        u[cur_row] += min_val
        for i in seen_rows:
            u[i] += min_val - shortest[col4row[i]]
        for j in seen_cols:
            v[j] -= min_val - shortest[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur_row:
                break
    rows = np.arange(n_rows)
    cols = np.array(col4row, dtype=np.intp)
    if transpose:
        order = np.argsort(cols)
        return cols[order], rows[order]
    return rows, cols


def _blocks(table: Overlap) -> tuple[int, np.ndarray]:
    """The number of connected blocks of the table, and each cluster's
    block label: gold i is node i, predicted j node n_gold + j, and an
    entry is an edge. Blocks are numbered in order of their lowest node,
    as scipy's `connected_components` numbers them.

    Every node starts labelled by itself. In each round, for every edge,
    the node that one end is labelled with takes the other end's label if
    that is lower; then every node takes its label's label. When a round
    changes nothing, each label is its block's lowest node. A randomly
    numbered path of n nodes takes about log2(n) rounds.
    """
    n_gold = len(table.gold_sizes)
    label = np.arange(n_gold + len(table.pred_sizes))
    ends = np.concatenate([table.rows, n_gold + table.cols])
    others = np.concatenate([n_gold + table.cols, table.rows])
    while True:
        lowered = label.copy()
        np.minimum.at(lowered, label[ends], label[others])
        lowered = lowered[lowered]
        if np.array_equal(lowered, label):
            break
        label = lowered
    roots, label = np.unique(label, return_inverse=True)
    return len(roots), label


def _rank_in_block(block: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Each entry's rank among the distinct keys of its block (ascending);
    `block` is sorted."""
    stride = int(keys.max(initial=0)) + 1
    codes, at = np.unique(block * stride + keys, return_inverse=True)
    owner = codes // stride
    return at - np.searchsorted(owner, owner)[at]


def _report(table: Overlap) -> MetricReport:
    return MetricReport(_muc(table), _b_cubed(table), _ceaf_e(table))


def average_report(muc_score: RPF1, b3_score: RPF1, ceafe_score: RPF1) -> RPF1:
    """Unweighted arithmetic means of R, P, and F1 across the three metrics."""
    triples = (muc_score, b3_score, ceafe_score)
    return RPF1(sum(t.recall for t in triples) / 3.0,
                sum(t.precision for t in triples) / 3.0,
                sum(t.f1 for t in triples) / 3.0)


def score_documents(gold_docs: Sequence[Clustering],
                    pred_docs: Sequence[Clustering]) -> MetricReport:
    """Corpus-level scores: every metric decomposes over documents, so one
    table over all of them micro-averages."""
    return _report(Overlap.pooled(gold_docs, pred_docs))


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


def bucket_key(bucket: int, width: float = SUBWORD_BUCKET_WIDTH,
               n_buckets: int = SUBWORD_BUCKETS) -> str:
    if bucket >= n_buckets:
        return f"[{n_buckets * width:.1f},inf)"
    return f"[{bucket * width:.1f},{(bucket + 1) * width:.1f})"


def slice_by_subword_bucket(docs: Sequence[Document],
                            pred_docs: Sequence[Clustering],
                            vocab: SubwordVocab,
                            width: float = SUBWORD_BUCKET_WIDTH,
                            n_buckets: int = SUBWORD_BUCKETS,
                            ) -> list[EvalSlice]:
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
