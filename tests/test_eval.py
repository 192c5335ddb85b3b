import dataclasses
import itertools
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment as scipy_assignment

from kcoref import evaluation as ev
from kcoref import model as m
from kcoref import training as tr
from kcoref.corpus import SpanRef, SubwordVocab
from kcoref.evaluation import (MetricReport, RPF1, average_report,
                               bucket_key, decode_clusters,
                               predict_antecedents,
                               predict_clusters, score_documents,
                               select_antecedents, slice_by_concept,
                               slice_by_subword_bucket)

from kcoref import losses as L
from oracles import (UnionFind, b_cubed_reference, blocks_reference,
                     ceaf_e_brute_force, ceaf_e_dense, ceaf_e_reference,
                     contingency_reference, decode_clusters_reference,
                     muc_reference, overlap_pooled_reference,
                     pool_documents, predict_antecedents_reference,
                     random_clustering, score_documents_reference,
                     select_antecedent, slice_by_concept_reference,
                     slice_by_subword_bucket_reference)
from test_corpus import make_doc
from test_losses import INDEX_CONFIG, random_documents, tiny_setup

S = SpanRef


def C(*mentions):
    return frozenset(mentions)


GOLD_EX = [C("a", "b", "c"), C("d", "e")]
PRED_EX = [C("a", "b"), C("c", "d", "e")]
METRICS = ("muc", "b_cubed", "ceaf_e")


def entries(table):
    """An `Overlap`'s entries as {(gold row, predicted column): count}."""
    return dict(zip(zip(table.rows.tolist(), table.cols.tolist()),
                    table.counts.tolist()))


class TestUnionFind:
    def test_transitive_merge(self):
        uf = UnionFind()
        uf.union(1, 2)
        uf.union(2, 3)
        assert uf.find(1) == uf.find(3)

    def test_groups_partition(self):
        uf = UnionFind()
        uf.union(1, 2)
        uf.union(3, 4)
        uf.find(5)
        groups = sorted(sorted(g) for g in uf.groups())
        assert groups == [[1, 2], [3, 4], [5]]

    @given(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)),
                    max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_order_independent(self, edges):
        uf1, uf2 = UnionFind(), UnionFind()
        for a, b in edges:
            uf1.union(a, b)
        for a, b in reversed(edges):
            uf2.union(a, b)
        g1 = sorted(sorted(g) for g in uf1.groups())
        g2 = sorted(sorted(g) for g in uf2.groups())
        assert g1 == g2


def picks(window):
    """`select_antecedents` on a one-row grid, the dummy's 0.0 appended;
    its column reads as -1."""
    grid = np.append(np.array(window, dtype=np.float64), 0.0).reshape(1, -1)
    column = select_antecedents(grid)
    return np.where(column == grid.shape[1] - 1, -1, column).tolist()


class TestSelectAntecedent:
    """The tie rule of `select_antecedents`, one grid row per window."""

    def test_all_zero_scores_choose_dummy(self):
        assert picks(np.zeros(4)) == [-1]

    def test_empty_window_chooses_dummy(self):
        assert picks([]) == [-1]

    def test_dominant_score_chosen(self):
        assert picks([0.1, 5.0, 0.2]) == [1]

    def test_negative_scores_choose_dummy(self):
        assert picks([-3.0, -0.5]) == [-1]

    def test_equal_maxima_choose_nearest(self):
        assert picks([2.0, 1.0, 2.0]) == [2]

    def test_padded_rows_follow_the_scalar_rule(self):
        windows = [[], [0.0, 0.0], [0.1, 5.0, 0.2], [-3.0, -0.5],
                   [2.0, 1.0, 2.0], [3.0], [0.5, 0.5, 0.5, 0.5],
                   [-0.0, 0.0, -0.0], [0.0, -0.0, 0.0, -0.0]]
        grid = np.full((len(windows), 5), -np.inf)
        grid[:, -1] = 0.0
        for k, w in enumerate(windows):
            grid[k, :len(w)] = w
        want = [select_antecedent(np.array(w)) for w in windows]
        got = select_antecedents(grid)
        assert np.where(got == 4, -1, got).tolist() == \
            [-1 if p is None else p for p in want]


def links_of(antecedents):
    """The row-form antecedents as {mention: antecedent or None}."""
    spans = [S(a, b) for a, b in zip(antecedents.starts.tolist(),
                                     antecedents.ends.tolist())]
    return {span: spans[j] if j >= 0 else None
            for span, j in zip(spans, antecedents.antecedent.tolist())}


def antecedents_of(links):
    """{mention: antecedent or None} as row-form antecedents over the sorted
    spans the links name."""
    spans = sorted(set(links) | {a for a in links.values() if a is not None})
    row = {span: k for k, span in enumerate(spans)}
    chosen = [-1 if links.get(s) is None else row[links[s]] for s in spans]
    return ev.Antecedents(np.array([s.start for s in spans], dtype=np.intp),
                          np.array([s.end for s in spans], dtype=np.intp),
                          np.array(chosen, dtype=np.intp))


def assert_decodes_as_reference(doc, store, config):
    """The batched decode equals the per-candidate reference, link for link
    and cluster for cluster; returns the row-form antecedents."""
    got = predict_antecedents(doc, store, config)
    want = predict_antecedents_reference(doc, store, config)
    assert links_of(got) == want
    assert decode_clusters(got).clusters == decode_clusters_reference(want)
    assert predict_clusters(doc, store, config).clusters == \
        decode_clusters_reference(want)
    return got


TIE_CONFIG = m.ModelConfig(d_token=4, d_width=2, window_radius=1,
                           max_span_width=3, prune_ratio=1.0)
# Init seeds on which a pruning cut falls inside a group of identical spans
# and a link passes over an identical antecedent further back.
TIE_SEEDS = [0, 2, 9]


def assert_ties_hold(seed):
    """On `x a x a x a x b` with spans up to 3 wide, spans whose tokens and
    one token of context on each side are the same get byte-identical
    representations, through the attention softmax, and mention scores;
    every pruning cut keeps the earlier ones of them, and a link goes to
    the nearest of identical antecedents. Returns whether a cut fell
    inside such a group and whether a link had an identical antecedent
    further back to pass over, which make the rules bite."""
    doc = make_doc("x a x a x a x b".split())
    store = tr.init_parameters(TIE_CONFIG, tr.build_vocab([doc]), seed=seed)
    store.tensors["scorer.antecedent.b2"][...] = 2.0
    enc, scoring, _ = store.groups
    layout = m.enumerated_layout(len(doc), TIE_CONFIG)
    reps, scores, _, _, _ = m.document_forward(
        doc, layout, np.arange(len(layout)), enc, scoring, TIE_CONFIG)
    padded = (None, *doc.tokens, None)
    spans = list(zip(layout.starts.tolist(), layout.ends.tolist()))
    window_of = {(s, e): padded[s:e + 3] for s, e in spans}
    groups = {}
    for row, span in enumerate(spans):
        groups.setdefault(window_of[span], []).append(row)
    tied = [rows for rows in groups.values() if len(rows) > 1]
    assert len(tied) >= 4
    for rows in tied:
        for row in rows[1:]:
            assert reps[row].tobytes() == reps[rows[0]].tobytes()
            assert scores[row].tobytes() == scores[rows[0]].tobytes()

    cut = False
    for keep in range(1, len(doc) + 1):
        kept = set(m.prune_mentions(doc, layout, scores,
                                    keep / len(doc)).indices.tolist())
        for rows in tied:
            flags = [row in kept for row in rows]
            assert flags == sorted(flags, reverse=True), (keep, rows)
            cut |= any(flags) and not all(flags)

    got = assert_decodes_as_reference(doc, store, TIE_CONFIG)
    windows = [window_of[span]
               for span in zip(got.starts.tolist(), got.ends.tolist())]
    passed_over = False
    for k, j in enumerate(got.antecedent.tolist()):
        if j >= 0:
            assert windows[j] not in windows[j + 1:k], (k, j)
            passed_over |= windows[j] in windows[:j]
    return cut, passed_over


class TestBatchedDecodeMatchesReference:
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(doc=random_documents(), seed=st.integers(0, 2**16),
           bias=st.sampled_from([0.0, 0.3, 2.0]))
    def test_random_documents_and_stores(self, doc, seed, bias):
        store = tr.init_parameters(INDEX_CONFIG, tr.build_vocab([doc]),
                                   seed=seed)
        store.tensors["scorer.antecedent.b2"][...] = bias
        got = assert_decodes_as_reference(doc, store, INDEX_CONFIG)
        # The antecedent window binds.
        assert len(got.antecedent) > INDEX_CONFIG.max_antecedents

    def test_empty_and_one_candidate_documents(self):
        config = INDEX_CONFIG
        for tokens in ([], ["w0"]):
            doc = make_doc(tokens)
            store = tr.init_parameters(config, tr.build_vocab([doc]), seed=1)
            store.tensors["scorer.antecedent.b2"][...] = 2.0
            got = assert_decodes_as_reference(doc, store, config)
            assert got.antecedent.tolist() == [-1] * len(tokens)
            assert decode_clusters(got).clusters == []

    def test_zero_store(self):
        doc = make_doc([f"w{i % 3}" for i in range(12)], [[(0, 0), (3, 3)]])
        store = tr.init_parameters(INDEX_CONFIG, tr.build_vocab([doc]))
        store.buffer().fill(0.0)
        got = assert_decodes_as_reference(doc, store, INDEX_CONFIG)
        assert len(got.antecedent) and (got.antecedent == -1).all()

    def test_exact_tie_picks_the_nearest_antecedent(self):
        doc = make_doc([f"w{i % 3}" for i in range(12)], [[(0, 0), (3, 3)]])
        # zero weights and antecedent bias 1: every pair scores exactly 1.0
        store = tr.init_parameters(INDEX_CONFIG, tr.build_vocab([doc]))
        store.buffer().fill(0.0)
        store.tensors["scorer.antecedent.b2"][...] = 1.0
        got = assert_decodes_as_reference(doc, store, INDEX_CONFIG)
        assert got.antecedent.tolist() == list(range(-1,
                                                     len(got.antecedent) - 1))

    @pytest.mark.parametrize("seed", [2, 3, 9])
    def test_identical_antecedents_tie_exactly(self, seed):
        # Tokens 1, 3 and 5 are "a" between two "x": with one token of
        # context on each side their spans have identical representations,
        # so as antecedents of (6, 6) they must tie exactly and the nearest,
        # (5, 5), wins. For these init seeds, scoring each pair in a batched
        # matrix product gave identical pairs scores a last bit apart, and
        # the batched and the per-candidate decodes picked different links.
        doc = make_doc("x a x a x a x b".split())
        config = m.ModelConfig(d_token=4, d_width=2, window_radius=1,
                               max_span_width=1, prune_ratio=1.0)
        store = tr.init_parameters(config, tr.build_vocab([doc]), seed=seed)
        got = assert_decodes_as_reference(doc, store, config)
        assert links_of(got)[S(6, 6)] == S(5, 5)

    @pytest.mark.parametrize("seed", TIE_SEEDS)
    def test_identical_windows_tie_through_the_attention_softmax(self, seed):
        assert assert_ties_hold(seed) == (True, True)

    def test_nan_score_rejected(self):
        docs, config, store, _, _ = tiny_setup()
        store.tensors["scorer.antecedent.b2"][...] = np.nan
        with pytest.raises(ValueError, match="NaN antecedent score"):
            predict_antecedents(docs[0], store, config)

    def test_nan_mention_score_rejected(self):
        # One NaN embedding row: pruning would rank the spans over its
        # token last and decode the rest without a word.
        docs, config, store, _, _ = tiny_setup()
        row = store.vocab.index(docs[0].tokens[2])
        store.tensors["encoder.embeddings"][row] = np.nan
        with pytest.raises(ValueError,
                           match=f"{docs[0].doc_id}: NaN mention score"):
            predict_antecedents(docs[0], store, config)


class TestDecodeClusters:
    """`decode_clusters` on row-form antecedents built from span links."""

    def test_transitive_links_merge(self):
        links = {S(1, 1): S(0, 0), S(2, 2): S(1, 1)}
        out = decode_clusters(antecedents_of(links))
        assert out.clusters == [C(S(0, 0), S(1, 1), S(2, 2))]

    def test_all_dummy_links_give_no_clusters(self):
        links = {S(0, 0): None, S(1, 1): None}
        assert decode_clusters(antecedents_of(links)).clusters == []

    def test_two_disjoint_chains(self):
        links = {S(1, 1): S(0, 0), S(3, 3): S(2, 2), S(4, 4): None}
        out = decode_clusters(antecedents_of(links))
        assert len(out.clusters) == 2

    def test_predicted_clusters_have_no_singletons(self):
        links = {S(1, 1): S(0, 0), S(4, 4): None}
        out = decode_clusters(antecedents_of(links))
        assert all(len(c) >= 2 for c in out.clusters)

    @given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)),
                    max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_clusters_partition_linked_spans(self, raw_links):
        links = {}
        for a, b in raw_links:
            if a == b:
                continue
            mention, antecedent = (S(max(a, b), max(a, b)),
                                   S(min(a, b), min(a, b)))
            links[mention] = antecedent
        linked = {s for m, a in links.items() for s in (m, a)}
        out = decode_clusters(antecedents_of(links))
        seen = [s for c in out.clusters for s in c]
        assert len(seen) == len(set(seen))  # disjoint
        assert set(seen) == linked          # exactly the non-dummy-linked spans
        assert out.clusters == decode_clusters_reference(links)

    @pytest.mark.parametrize("antecedent", [[-1, 1], [-1, 2], [-2, 0]])
    def test_a_link_to_a_later_candidate_is_rejected(self, antecedent):
        rows = ev.Antecedents(np.arange(2), np.arange(2), np.array(antecedent))
        with pytest.raises(ValueError, match="not to an earlier candidate"):
            decode_clusters(rows)


class TestSpanRefBudget:
    """SpanRefs are built only for what leaves the model."""

    @pytest.fixture
    def built(self, monkeypatch):
        built = []
        check = SpanRef.__post_init__

        def counting(span):
            built.append((span.start, span.end))
            check(span)

        monkeypatch.setattr(SpanRef, "__post_init__", counting)
        return built

    def test_predict_clusters_builds_only_the_clustered_mentions(self, built):
        docs, config, store, _, _ = tiny_setup(seed=3)
        for doc in docs:
            built.clear()
            predict_antecedents(doc, store, config)
            assert built == []
            clusters = predict_clusters(doc, store, config).clusters
            assert clusters
            assert sorted(built) == sorted((s.start, s.end)
                                           for c in clusters for s in c)

    def test_first_doc_step_on_a_fresh_document_builds_none(self, built):
        """The doc-step that builds a document's span table, on an
        enumerated layout made for it, builds no `SpanRef` either."""
        docs, config, store, weights, objective = tiny_setup(
            beta=(1.0, 0.5, 0.5))
        m.enumerated_layout.cache_clear()
        built.clear()
        for doc in docs:
            outs = []

            def build(enc, scoring, scaffold, doc=doc):
                outs.append(L.document_objective(doc, enc, scoring, scaffold,
                                                 weights, config, objective))
                return outs

            tr.compute_gradients(store, build)
            assert outs[0].pair_set.count and len(outs[0].candidates)
        assert built == []

    def test_doc_step_on_an_indexed_document_builds_none(self, built):
        docs, config, store, weights, objective = tiny_setup(
            beta=(1.0, 0.5, 0.5))
        enc, scoring, scaffold = store.groups
        for doc in docs:
            L.document_objective(doc, enc, scoring, scaffold, weights,
                                 config, objective)
        built.clear()
        for doc in docs:
            outs = []

            def build(enc, scoring, scaffold, doc=doc):
                outs.append(L.document_objective(doc, enc, scoring, scaffold,
                                                 weights, config, objective))
                return outs

            tr.compute_gradients(store, build)
            assert outs[0].pair_set.count and len(outs[0].candidates)
        assert built == []


class TestSharedEnumeratedLayout:
    """Documents of one length share one enumerated span layout."""

    @pytest.fixture
    def layouts(self, monkeypatch):
        built = []
        real = m.span_layout

        def counting(starts, ends, config):
            built.append(len(starts))
            return real(starts, ends, config)

        monkeypatch.setattr(m, "span_layout", counting)
        m.enumerated_layout.cache_clear()
        yield built
        m.enumerated_layout.cache_clear()

    def test_predict_clusters_builds_one_layout_per_length(self, layouts):
        lengths = (6, 9, 6, 12, 9, 6, 12)
        docs = [make_doc([f"w{i % 4}" for i in range(n)],
                         [[(0, 0), (2, 2)]]) for n in lengths]
        store = tr.init_parameters(INDEX_CONFIG, tr.build_vocab(docs), seed=1)
        for doc in docs:
            predict_clusters(doc, store, INDEX_CONFIG)
        assert len(layouts) == len(set(lengths))

    def test_an_empty_document_builds_no_layout(self, layouts):
        doc = make_doc([])
        store = tr.init_parameters(INDEX_CONFIG, tr.build_vocab([doc]),
                                   seed=1)
        got = predict_antecedents(doc, store, INDEX_CONFIG)
        assert got.starts.shape == got.ends.shape == got.antecedent.shape \
            == (0,)
        assert layouts == []

    def test_the_objective_index_picks_from_the_shared_layout(self, layouts):
        docs, config, _, _, _ = tiny_setup()
        for doc in docs:
            index = L.document_index(doc, config, True, None)
            enumerated = m.enumerated_layout(len(doc), config)
            for table, enum in ((index.layout.starts, enumerated.starts),
                                (index.layout.ends, enumerated.ends)):
                assert table[index.enum_rows].tolist() == enum.tolist()
            if len(index.keys) == len(index.enum_rows):
                assert index.layout is enumerated

    def test_training_and_prediction_prune_the_same_candidates(self):
        """With CL alone the objective's span table is the enumerated
        layout, so the objective and the decode run one forward over the
        same rows and keep the same candidates."""
        docs, config, store, weights, objective = tiny_setup(
            beta=(1.0, 0.0, 0.0))
        enc, scoring, scaffold = store.groups
        for doc in docs:
            enumerated = m.enumerated_layout(len(doc), config)
            assert L.document_index(doc, config, False, None).layout \
                is enumerated
            kept = L.document_objective(doc, enc, scoring, scaffold, weights,
                                        config, objective).candidates
            got = predict_antecedents(doc, store, config)
            assert kept.layout is enumerated and len(kept) > 1
            assert enumerated.starts[kept.indices].tolist() \
                == got.starts.tolist()
            assert enumerated.ends[kept.indices].tolist() == got.ends.tolist()


class TestPredictIntegration:
    def test_zero_model_links_everything_to_dummy(self):
        docs, config, store, _, _ = tiny_setup()
        zero = tr.init_parameters(config, store.vocab, store.scaffold_classes)
        zero.buffer().fill(0.0)
        links = links_of(predict_antecedents(docs[0], zero, config))
        assert all(v is None for v in links.values())
        assert predict_clusters(docs[0], zero, config).clusters == []

    def test_links_reference_preceding_candidates(self):
        docs, config, store, _, _ = tiny_setup(seed=3)
        links = links_of(predict_antecedents(docs[0], store, config))
        for mention, antecedent in links.items():
            if antecedent is not None:
                assert antecedent < mention


class TestMUC:
    def test_identical_clusterings(self):
        got = score_documents([GOLD_EX], [GOLD_EX]).muc
        assert (got.recall, got.precision, got.f1) == (1.0, 1.0, 1.0)

    def test_worked_example_two_thirds(self):
        got = score_documents([GOLD_EX], [PRED_EX]).muc
        assert got.recall == pytest.approx(2 / 3)
        assert got.precision == pytest.approx(2 / 3)
        assert got.f1 == pytest.approx(2 / 3)

    def test_singleton_predictions_score_zero_recall(self):
        got = score_documents([GOLD_EX], [[]]).muc
        assert got.recall == 0.0

    def test_no_gold_links_defined_zero(self):
        got = score_documents([[]], [PRED_EX]).muc
        assert got.recall == 0.0


class TestBCubed:
    def test_identical_clusterings(self):
        got = score_documents([GOLD_EX], [GOLD_EX]).b_cubed
        assert (got.recall, got.precision, got.f1) == (1.0, 1.0, 1.0)

    def test_worked_example_eleven_fifteenths(self):
        got = score_documents([GOLD_EX], [PRED_EX]).b_cubed
        assert got.recall == pytest.approx(11 / 15)
        assert got.precision == pytest.approx(11 / 15)

    def test_one_big_cluster_keeps_recall_high(self):
        pred = [C("a", "b", "c", "d", "e")]
        got = score_documents([GOLD_EX], [pred]).b_cubed
        assert got.recall == 1.0
        assert got.precision < 1.0


class TestCeafE:
    def test_identical_clusterings(self):
        got = score_documents([GOLD_EX], [GOLD_EX]).ceaf_e
        assert (got.recall, got.precision, got.f1) == (1.0, 1.0, 1.0)

    def test_worked_example_merged_prediction(self):
        gold = [C("a", "b"), C("c", "d")]
        pred = [C("a", "b", "c", "d")]
        got = score_documents([gold], [pred]).ceaf_e
        assert got.recall == pytest.approx(1 / 3)
        assert got.precision == pytest.approx(2 / 3)

    def test_empty_both_sides_is_perfect_by_convention(self):
        got = score_documents([[]], [[]]).ceaf_e
        assert (got.recall, got.precision, got.f1) == (1.0, 1.0, 1.0)

    def test_one_side_empty_is_zero(self):
        assert score_documents([GOLD_EX], [[]]).ceaf_e == RPF1(0.0, 0.0, 0.0)
        assert score_documents([[]], [PRED_EX]).ceaf_e == RPF1(0.0, 0.0, 0.0)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_assignment_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        gold = random_clustering(rng, 10, 4)
        pred = random_clustering(rng, 10, 4)
        got = score_documents([gold], [pred]).ceaf_e
        want = ceaf_e_brute_force(gold, pred)
        assert got.recall == pytest.approx(want[0], abs=1e-9)
        assert got.precision == pytest.approx(want[1], abs=1e-9)


class TestMetricProperties:
    @given(st.integers(0, 10_000))
    @settings(max_examples=80, deadline=None)
    def test_reference_agreement_and_duality(self, seed):
        rng = np.random.default_rng(seed)
        gold = random_clustering(rng, 12, 5)
        pred = random_clustering(rng, 12, 5)

        report = score_documents([gold], [pred])
        got = report.muc
        ref = muc_reference(gold, pred)
        assert (got.recall, got.precision, got.f1) == ref

        got_b = report.b_cubed
        ref_b = b_cubed_reference(gold, pred)
        assert (got_b.recall, got_b.precision, got_b.f1) == ref_b

        # duality: swapping gold and pred swaps R and P
        swapped = score_documents([pred], [gold])
        for name in METRICS:
            fwd, rev = getattr(report, name), getattr(swapped, name)
            assert fwd.recall == pytest.approx(rev.precision, abs=1e-12)
            assert fwd.precision == pytest.approx(rev.recall, abs=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_mention_renaming_invariance(self, seed):
        rng = np.random.default_rng(seed)
        gold = random_clustering(rng, 10, 4)
        pred = random_clustering(rng, 10, 4)
        names = {i: f"m{i * 7 + 3}" for i in range(10)}
        gold_r = [frozenset(names[m] for m in c) for c in reversed(gold)]
        pred_r = [frozenset(names[m] for m in c) for c in reversed(pred)]
        report = score_documents([gold], [pred])
        renamed = score_documents([gold_r], [pred_r])
        for name in METRICS:
            a, b = getattr(report, name), getattr(renamed, name)
            assert a.f1 == pytest.approx(b.f1, abs=1e-12)

    def test_perfect_prediction_is_perfect_everywhere(self):
        report = score_documents([GOLD_EX], [[C(*c) for c in GOLD_EX]])
        for name in METRICS:
            assert getattr(report, name) == RPF1(1.0, 1.0, 1.0)


class TestRepeatedMentionsRejected:
    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("pred", [PRED_EX, []])
    def test_gold_side(self, metric, pred):
        gold = [C("a", "b", "c"), C("c", "d")]
        with pytest.raises(ValueError, match="^document 0: mention 'c' is "
                                             "listed twice in the gold"):
            getattr(score_documents([gold], [pred]), metric)

    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("gold", [GOLD_EX, []])
    def test_pred_side(self, metric, gold):
        pred = [C("a", "d"), C("d", "e")]
        with pytest.raises(ValueError, match="^document 0: mention 'd' is "
                                             "listed twice in the predicted"):
            getattr(score_documents([gold], [pred]), metric)


def overlap_blocks(gold, pred):
    """(gold clusters, pred clusters) of each connected block of overlapping
    clusters, found by search over the cluster pairs."""
    gold, pred = [set(c) for c in gold], [set(c) for c in pred]
    placed, blocks = set(), []
    for start in range(len(gold)):
        if start in placed:
            continue
        rows, cols, frontier = {start}, set(), [("g", start)]
        while frontier:
            side, k = frontier.pop()
            if side == "g":
                new = [("p", j) for j, p in enumerate(pred)
                       if j not in cols and gold[k] & p]
                cols.update(j for _, j in new)
            else:
                new = [("g", i) for i, g in enumerate(gold)
                       if i not in rows and pred[k] & g]
                rows.update(i for _, i in new)
            frontier.extend(new)
        placed |= rows
        if cols:
            blocks.append((len(rows), len(cols)))
    return blocks


def pooled_random(seed):
    """Pooled gold and pred over 1-5 documents of random clusterings."""
    rng = np.random.default_rng(seed)
    n_docs = int(rng.integers(1, 6))
    gold, pred = [], []
    for _ in range(n_docs):
        n = int(rng.integers(3, 13))
        gold.append(random_clustering(rng, n, int(rng.integers(1, 6))))
        pred.append(random_clustering(rng, n, int(rng.integers(1, 6))))
    return pool_documents(gold), pool_documents(pred)


# Hand-built pooled cases: G > P, P > G, 2x2, 3x2 and 3x3 blocks, gold clusters
# that overlap nothing, and a pred cluster spanning two gold clusters.
POOLED_CASES = {
    "more_gold": ([[C(1, 2), C(3, 4), C(5, 6)], [C(1, 2)]],
                  [[C(1, 2, 3)], [C(1, 2)]]),
    "more_pred": ([[C(1, 2, 3, 4)]], [[C(1, 2), C(3, 4), C(5, 6)]]),
    "block_2x2": ([[C(1, 2, 3), C(4, 5, 6)]], [[C(1, 2, 4), C(3, 5, 6)]]),
    "block_3x2": ([[C(1, 2), C(3, 4), C(5, 6)], [C(1, 2)]],
                  [[C(1, 3, 5), C(2, 4, 6)], [C(1, 7)]]),
    "block_3x3": ([[C(1, 2, 3), C(4, 5, 6), C(7, 8, 9)]],
                  [[C(1, 4, 7), C(2, 5, 8), C(3, 6, 9)]]),
    "gold_unmatched": ([[C(1, 2), C(8, 9)], [C(3, 4)]],
                       [[C(1, 2)], [C(5, 6)]]),
}


class TestPooledMetricsMatchReferences:
    def check(self, gold, pred):
        report = score_documents([gold], [pred])
        got = report.ceaf_e
        want = ceaf_e_dense(gold, pred)
        for a, b in zip((got.recall, got.precision, got.f1), want):
            assert a == pytest.approx(b, abs=1e-12)
        got_m, got_b = report.muc, report.b_cubed
        assert (got_m.recall, got_m.precision, got_m.f1) == \
            muc_reference(gold, pred)
        assert (got_b.recall, got_b.precision, got_b.f1) == \
            b_cubed_reference(gold, pred)

    @pytest.mark.parametrize("case", sorted(POOLED_CASES))
    def test_hand_built_cases(self, case):
        gold_docs, pred_docs = POOLED_CASES[case]
        self.check(pool_documents(gold_docs), pool_documents(pred_docs))

    @settings(derandomize=True, deadline=None, max_examples=80)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_random_pooled_clusterings(self, seed):
        self.check(*pooled_random(seed))

    def test_contingency_worked_example(self):
        table = ev.Overlap.pooled([GOLD_EX], [PRED_EX])
        assert entries(table) == {(0, 0): 2, (0, 1): 1, (1, 1): 2}
        assert table.gold_sizes.tolist() == [3, 2]
        assert table.pred_sizes.tolist() == [2, 3]

    def test_assignment_sees_one_block_at_a_time(self, monkeypatch):
        shapes = []
        real = ev.linear_sum_assignment

        def recording(matrix, maximize=False):
            shapes.append(matrix.shape)
            return real(matrix, maximize=maximize)

        monkeypatch.setattr(ev, "linear_sum_assignment", recording)
        inputs = [(pool_documents(g), pool_documents(p))
                  for g, p in POOLED_CASES.values()]
        inputs += [pooled_random(seed) for seed in range(40)]
        seen = []
        for gold, pred in inputs:
            shapes.clear()
            score_documents([gold], [pred])
            blocks = overlap_blocks(gold, pred)
            # A block with one gold or one predicted cluster aligns its
            # largest entry without an assignment.
            assert sorted(shapes) == sorted(b for b in blocks if min(b) >= 2)
            seen += shapes
        assert {(2, 2), (3, 2), (3, 3)} <= set(seen)

    def test_hand_built_cases_are_what_they_say(self):
        def pooled(case):
            return [pool_documents(docs) for docs in POOLED_CASES[case]]

        gold, pred = pooled("more_gold")
        assert len(gold) > len(pred)
        gold, pred = pooled("more_pred")
        assert len(pred) > len(gold)
        assert (2, 2) in overlap_blocks(*pooled("block_2x2"))
        assert (3, 2) in overlap_blocks(*pooled("block_3x2"))
        assert (3, 3) in overlap_blocks(*pooled("block_3x3"))
        gold, pred = pooled("gold_unmatched")
        assert sum(rows for rows, _ in overlap_blocks(gold, pred)) < len(gold)


# Overlap-table blocks as (gold clusters, predicted clusters, entries).
BLOCK_KINDS = {
    "1x1": (1, 1, [(0, 0)]),
    "single_row": (1, 3, [(0, 0), (0, 1), (0, 2)]),
    "single_col": (3, 1, [(0, 0), (1, 0), (2, 0)]),
    "l_shaped_2x2": (2, 2, [(0, 0), (0, 1), (1, 0)]),
    "full_2x2": (2, 2, [(i, j) for i in range(2) for j in range(2)]),
    "full_3x3": (3, 3, [(i, j) for i in range(3) for j in range(3)]),
    # a path: gold i shares mentions with predicted i and i - 1
    "staircase_4x4": (4, 4, [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (3, 2),
                             (3, 3)]),
    "gold_alone": (1, 0, []),
    "pred_alone": (0, 1, []),
}


def overlap_table(kinds, counts, extras, gold_order, pred_order):
    """An `Overlap` of the `kinds` blocks side by side, entry k counting
    `counts[k]`, each cluster `extras` mentions larger than its entries
    (at least 1), and clusters renumbered by `gold_order`/`pred_order`."""
    counts, extras = iter(counts), iter(extras)
    entries, gold_sizes, pred_sizes = [], [], []
    for kind in kinds:
        n_rows, n_cols, cells = BLOCK_KINDS[kind]
        r0, c0 = len(gold_sizes), len(pred_sizes)
        gold_sizes += [0] * n_rows
        pred_sizes += [0] * n_cols
        for i, j in cells:
            n = next(counts)
            entries.append((r0 + i, c0 + j, n))
            gold_sizes[r0 + i] += n
            pred_sizes[c0 + j] += n
    gold_sizes = [max(size, 1) + next(extras) for size in gold_sizes]
    pred_sizes = [max(size, 1) + next(extras) for size in pred_sizes]
    entries = sorted((gold_order[i], pred_order[j], n)
                     for i, j, n in entries)
    rows, cols, ns = (np.array(v, dtype=np.int64).reshape(-1)
                      for v in zip(*entries)) if entries else \
        (np.zeros(0, dtype=np.int64),) * 3

    def renumbered(sizes, order):
        out = np.zeros(len(sizes), dtype=np.int64)
        out[list(order)] = sizes
        return out

    return ev.Overlap(rows, cols, ns, renumbered(gold_sizes, gold_order),
                      renumbered(pred_sizes, pred_order))


@st.composite
def overlap_tables(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(BLOCK_KINDS)), max_size=7))
    n_cells = sum(len(BLOCK_KINDS[k][2]) for k in kinds)
    n_gold = sum(BLOCK_KINDS[k][0] for k in kinds)
    n_pred = sum(BLOCK_KINDS[k][1] for k in kinds)
    # Small counts and extras make tied maxima common.
    counts = draw(st.lists(st.integers(1, 3), min_size=n_cells,
                           max_size=n_cells))
    extras = draw(st.lists(st.integers(0, 2), min_size=n_gold + n_pred,
                           max_size=n_gold + n_pred))
    return overlap_table(kinds, counts, extras,
                         draw(st.permutations(range(n_gold))),
                         draw(st.permutations(range(n_pred))))


class TestCeafEBlocksMatchReference:
    """`_ceaf_e` aligns single-row and single-column blocks by their largest
    entry, and gives the same floats as the per-block reference."""

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(table=overlap_tables())
    def test_random_tables(self, table):
        got, want = ev._ceaf_e(table), ceaf_e_reference(table)
        assert (got.recall, got.precision, got.f1) \
            == (want.recall, want.precision, want.f1)

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(table=overlap_tables())
    def test_block_labels_match_the_coo_route(self, table):
        """Label propagation labels and numbers the blocks as scipy's
        `connected_components` does."""
        n_blocks, label = ev._blocks(table)
        want_blocks, want_label = blocks_reference(table)
        assert n_blocks == want_blocks
        assert np.array_equal(label, want_label)

    @pytest.mark.parametrize("kind", sorted(BLOCK_KINDS))
    @pytest.mark.parametrize("counts", ["tied", "distinct"])
    def test_each_block_kind(self, kind, counts):
        kinds = [kind, "1x1", kind]
        n_cells = sum(len(BLOCK_KINDS[k][2]) for k in kinds)
        n_gold = sum(BLOCK_KINDS[k][0] for k in kinds)
        n_pred = sum(BLOCK_KINDS[k][1] for k in kinds)
        cells = [1] * n_cells if counts == "tied" else \
            [1 + k % 3 for k in range(n_cells)]
        table = overlap_table(kinds, cells, [0] * (n_gold + n_pred),
                              range(n_gold)[::-1], range(n_pred))
        assert ev._ceaf_e(table) == ceaf_e_reference(table)

    def test_empty_sides(self):
        for kinds in ([], ["gold_alone"], ["pred_alone"],
                      ["gold_alone", "pred_alone"]):
            n_gold = sum(BLOCK_KINDS[k][0] for k in kinds)
            n_pred = sum(BLOCK_KINDS[k][1] for k in kinds)
            table = overlap_table(kinds, [], [1] * (n_gold + n_pred),
                                  range(n_gold), range(n_pred))
            assert ev._ceaf_e(table) == ceaf_e_reference(table)

    def test_a_single_row_block_aligns_its_largest_entry(self):
        table = overlap_table(["single_row"], [1, 3, 2], [0, 0, 0, 0],
                              [0], [0, 1, 2])
        # phi = 2*3 / (6 + 3) for the largest entry; no assignment is run.
        with mock.patch.object(ev, "linear_sum_assignment") as lsa:
            got = ev._ceaf_e(table)
        lsa.assert_not_called()
        assert got.recall == 6 / 9 and got.precision == 6 / 9 / 3


def path_table(n: int, seed: int) -> ev.Overlap:
    """n gold and n predicted clusters of 3 mentions on one path, gold i
    sharing a mention with predicted i and with predicted i - 1, both sides
    numbered in a seeded random order."""
    rng = np.random.default_rng(seed)
    gold, pred = rng.permutation(n), rng.permutation(n)
    rows = np.concatenate([gold, gold[1:]])
    cols = np.concatenate([pred, pred[:-1]])
    order = np.lexsort((cols, rows))
    return ev.Overlap(rows[order], cols[order], np.ones(2 * n - 1, np.int64),
                      np.full(n, 3, np.int64), np.full(n, 3, np.int64))


# Costs that float64 holds only rounded, so sums of them round differently
# in another order of operations.
INEXACT_COSTS = (0.1, 0.2, 0.3, 0.7, 1 / 3, 2 / 3)


@st.composite
def cost_matrices(draw):
    """0×0 to 7×7 cost matrices of one kind: integers 0-3 (many ties),
    CEAF-e's 2n / (a + b) of such entries n with each cluster 1-3 mentions
    larger than its entries, or `INEXACT_COSTS`."""
    n_rows, n_cols = draw(st.integers(0, 7)), draw(st.integers(0, 7))

    def values(elements, count):
        return np.array(draw(st.lists(elements, min_size=count,
                                      max_size=count)), dtype=np.float64)

    kind = draw(st.sampled_from(["integer", "ceaf", "inexact"]))
    if kind == "inexact":
        return values(st.sampled_from(INEXACT_COSTS),
                      n_rows * n_cols).reshape(n_rows, n_cols)
    cells = values(st.integers(0, 3), n_rows * n_cols).reshape(n_rows, n_cols)
    if kind == "integer":
        return cells
    gold = cells.sum(axis=1) + values(st.integers(1, 3), n_rows)
    pred = cells.sum(axis=0) + values(st.integers(1, 3), n_cols)
    return 2.0 * cells / (gold[:, None] + pred[None, :])


class TestBlocksAndAssignmentMatchScipy:
    """`_blocks` and `linear_sum_assignment` are numpy and Python; scipy's
    `connected_components` and solver are their references."""

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(n=st.integers(1, 400), seed=st.integers(0, 2**32 - 1))
    def test_block_labels_on_a_long_path(self, n, seed):
        """One block spanning every cluster: labels travel the whole path,
        whatever the numbering."""
        table = path_table(n, seed)
        n_blocks, label = ev._blocks(table)
        want_blocks, want_label = blocks_reference(table)
        assert n_blocks == want_blocks == 1
        assert np.array_equal(label, want_label)

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(n=st.integers(3, 12), seed=st.integers(0, 2**32 - 1))
    def test_ceaf_e_on_a_large_path_block(self, n, seed):
        table = path_table(n, seed)
        assert ev._ceaf_e(table) == ceaf_e_reference(table)

    @settings(derandomize=True, deadline=None, max_examples=600)
    @given(matrix=cost_matrices(), maximize=st.booleans())
    def test_assignment_is_scipys(self, matrix, maximize):
        got = ev.linear_sum_assignment(matrix, maximize=maximize)
        want = scipy_assignment(matrix, maximize=maximize)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    @pytest.mark.parametrize("matrix", [np.array([[0.0, np.nan]]),
                                        np.array([[np.inf]]), np.zeros(3)])
    def test_assignment_rejects_a_cost_that_is_not_a_finite_matrix(self,
                                                                   matrix):
        with pytest.raises(ValueError, match="2-D and finite"):
            ev.linear_sum_assignment(matrix)


class TestAverageReport:
    def test_identical_triples(self):
        one = RPF1(1.0, 1.0, 1.0)
        assert average_report(one, one, one) == RPF1(1.0, 1.0, 1.0)

    def test_published_baseline_row(self):
        got = average_report(RPF1(0.7093, 0.7251, 0.7171),
                             RPF1(0.6491, 0.6648, 0.6569),
                             RPF1(0.5457, 0.5844, 0.5644))
        assert got.f1 == pytest.approx(0.6461, abs=1e-4)
        assert got.recall == pytest.approx(0.6347, abs=1e-4)
        assert got.precision == pytest.approx(0.6581, abs=1e-4)

    def test_zeros_pull_the_mean_down(self):
        got = average_report(RPF1(1.0, 1.0, 1.0), RPF1(0.0, 0.0, 0.0),
                             RPF1(0.5, 0.5, 0.5))
        assert got.f1 == pytest.approx(0.5)


class TestScoreDocuments:
    def test_pooling_tags_documents(self):
        pooled = pool_documents([[C("a", "b")], [C("a", "b")]])
        assert len(pooled) == 2
        assert pooled[0] != pooled[1]

    def test_cross_document_identity_not_conflated(self):
        gold = [[C("a", "b")], [C("a", "b")]]
        report = score_documents(gold, gold)
        assert report.muc == RPF1(1.0, 1.0, 1.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            score_documents([[C("a", "b")]], [])

    def test_repeated_mention_names_the_document(self):
        gold = [[C("a", "b")], [C("a", "b")]]
        with pytest.raises(ValueError, match="document 1: mention 'b' is "
                                             "listed twice in the predicted"):
            score_documents(gold, [[C("a", "b")], [C("a", "b"), C("b", "c")]])
        with pytest.raises(ValueError, match="document 0: mention 'a' is "
                                             "listed twice in the gold"):
            score_documents([[C("a", "b"), C("a")]], [[]])


def labeled_doc(doc_id, concept_by_chain):
    """Two-mention chains at fixed offsets, one concept label per chain."""
    n_chains = len(concept_by_chain)
    tokens = ["w"] * (n_chains * 4)
    clusters = []
    annotations = {}
    for i, concept in enumerate(concept_by_chain):
        a, b = S(4 * i, 4 * i), S(4 * i + 2, 4 * i + 2)
        clusters.append(frozenset({a, b}))
        annotations[a] = concept
        annotations[b] = concept
    return make_doc(tokens, [[(s.start, s.end) for s in c] for c in clusters],
                    {"coarse": annotations}, doc_id=doc_id)


class TestConceptSlices:
    def test_single_concept_slice_equals_full_report(self):
        doc = labeled_doc("d0", ["person", "person"])
        pred = [list(doc.gold_clusters)]
        slices = slice_by_concept([doc], pred, "coarse")
        assert len(slices) == 1
        assert slices[0].key == "person"
        assert slices[0].report.muc == RPF1(1.0, 1.0, 1.0)
        full = score_documents([doc.gold_clusters], pred)
        assert slices[0].report.average == full.average

    def test_perfect_predictions_every_slice_perfect(self):
        doc = labeled_doc("d0", ["person", "problem", "test"])
        pred = [list(doc.gold_clusters)]
        for s in slice_by_concept([doc], pred, "coarse"):
            assert s.report.average == RPF1(1.0, 1.0, 1.0)

    def test_concept_without_chains_omitted(self):
        doc = labeled_doc("d0", ["person"])
        slices = slice_by_concept([doc], [list(doc.gold_clusters)], "coarse")
        assert [s.key for s in slices] == ["person"]

    def test_cross_concept_merge_invisible_after_intersection(self):
        # the intersection rule restricts a merged cluster back to the
        # slice's own mentions, so a cross-concept merge scores clean here
        doc = labeled_doc("d0", ["person", "problem"])
        chains = list(doc.gold_clusters)
        merged = [frozenset(chains[0] | chains[1])]
        slices = slice_by_concept([doc], [merged], "coarse")
        for s in slices:
            assert s.report.muc == RPF1(1.0, 1.0, 1.0)

    def test_within_concept_error_hits_its_slice_only(self):
        doc = labeled_doc("d0", ["person", "person", "problem"])
        chains = sorted(doc.gold_clusters, key=lambda c: sorted(c)[0])
        pred = [frozenset(chains[0] | chains[1]), chains[2]]
        slices = slice_by_concept([doc], [pred], "coarse")
        by_key = {s.key: s.report for s in slices}
        assert by_key["person"].muc.precision < 1.0
        assert by_key["problem"].muc == RPF1(1.0, 1.0, 1.0)

    def test_chain_counts_reported(self):
        docs = [labeled_doc("d0", ["person", "person"]),
                labeled_doc("d1", ["person"])]
        pred = [list(d.gold_clusters) for d in docs]
        slices = slice_by_concept(docs, pred, "coarse")
        assert slices[0].gold_chains == 3


class TestSubwordSlices:
    VOCAB = SubwordVocab(frozenset({"w", "lap"}),
                         frozenset({"aro", "sco", "py"}), "[UNK]")

    def test_whole_word_corpus_single_bucket(self):
        doc = labeled_doc("d0", ["person", "problem"])
        pred = [list(doc.gold_clusters)]
        slices = slice_by_subword_bucket([doc], pred, self.VOCAB)
        assert [s.key for s in slices] == ["[0.0,1.7)"]

    def test_multisubword_chains_move_buckets(self):
        doc = make_doc(["laparoscopy", "w", "laparoscopy", "w"],
                       [[(0, 0), (2, 2)]])
        pred = [list(doc.gold_clusters)]
        slices = slice_by_subword_bucket([doc], pred, self.VOCAB)
        assert [s.key for s in slices] == ["[3.4,5.1)"]  # 4 pieces per span

    def test_bucket_key_overflow(self):
        assert bucket_key(5) == "[8.5,inf)"
        assert bucket_key(0) == "[0.0,1.7)"


# Words with 1, 1, 2, 2, 4 and 1 (unknown) wordpieces under SLICE_VOCAB.
SLICE_WORDS = ("w", "lap", "lappy", "laparo", "laparoscopy", "zz")
SLICE_VOCAB = SubwordVocab(frozenset({"w", "lap"}),
                           frozenset({"aro", "sco", "py"}), "[UNK]")


def random_partition(rng, items, max_parts):
    parts = [[] for _ in range(int(rng.integers(1, max_parts + 1)))]
    for item in items:
        parts[int(rng.integers(0, len(parts)))].append(item)
    return [p for p in parts if p]


def random_corpus(seed, labels=("person", "problem", "test")):
    """1-5 documents with labeled gold chains, and predictions over fresh
    `SpanRef` objects for a random subset of the documents' spans.

    Some documents have no gold chains, and some predictions are empty;
    spans outside every gold chain may be predicted; chains are unlabeled,
    labeled on some of their spans, or labeled with two concepts.
    """
    rng = np.random.default_rng(seed)
    docs, preds = [], []
    for d in range(int(rng.integers(1, 6))):
        n = int(rng.integers(4, 25))
        tokens = [SLICE_WORDS[k] for k in rng.integers(0, len(SLICE_WORDS), n)]
        spans, pos = [], int(rng.integers(0, 3))
        while pos < n:
            end = min(pos + int(rng.integers(0, 3)), n - 1)
            spans.append((pos, end))
            pos = end + 1 + int(rng.integers(0, 3))
        in_chains = [spans[k] for k in rng.permutation(len(spans))
                     if rng.random() < 0.7]
        chains = random_partition(rng, in_chains, 4) \
            if rng.random() < 0.85 else []
        annotations = {}
        for chain in chains:
            mode = rng.random()
            label = labels[int(rng.integers(0, len(labels)))]
            for span in chain:
                if mode < 0.25 or rng.random() < 0.3:
                    continue  # unlabeled chain, or an unlabeled span
                if mode > 0.85:  # a label per span: mixed chains
                    label = labels[int(rng.integers(0, len(labels)))]
                annotations[S(*span)] = label
        docs.append(make_doc(tokens, chains, {"coarse": annotations},
                             doc_id=f"d{d}"))
        predicted = [spans[k] for k in rng.permutation(len(spans))
                     if rng.random() < 0.8]
        pred = [frozenset(S(*span) for span in part)
                for part in random_partition(rng, predicted, 4)]
        preds.append(pred if rng.random() < 0.85 else [])
    return docs, preds


def score_corpus(docs, preds, width=1.7, n_buckets=5):
    gold = [doc.gold_clusters for doc in docs]
    return (score_documents(gold, preds),
            slice_by_concept(docs, preds, "coarse"),
            slice_by_subword_bucket(docs, preds, SLICE_VOCAB, width,
                                    n_buckets))


class TestCorpusScoresMatchRepooledReferences:
    """One table per call, slices as row subsets, equal to pooling and
    rescoring every slice on its own."""

    @settings(derandomize=True, deadline=None, max_examples=120)
    @given(seed=st.integers(0, 2**32 - 1),
           buckets=st.sampled_from([(1.7, 5), (1.0, 3)]))
    def test_random_corpora(self, seed, buckets):
        docs, preds = random_corpus(seed)
        gold = [doc.gold_clusters for doc in docs]
        report, concept, subword = score_corpus(docs, preds, *buckets)
        assert report == score_documents_reference(gold, preds)
        assert concept == slice_by_concept_reference(docs, preds, "coarse")
        assert subword == slice_by_subword_bucket_reference(
            docs, preds, SLICE_VOCAB, *buckets)

    def test_random_corpora_hold_every_case(self):
        seen = set()
        for seed in range(60):
            docs, preds = random_corpus(seed)
            seen.add(("docs", len(docs) > 1))
            for doc, pred in zip(docs, preds):
                labels = doc.concept_annotations["coarse"]
                chain_of = {s: i for i, c in enumerate(doc.gold_clusters)
                            for s in c}
                found = [{labels[s] for s in c if s in labels}
                         for c in doc.gold_clusters]
                seen.add(("no chains", not doc.gold_clusters))
                seen.add(("empty prediction", not pred))
                seen.update(("labels", len(f)) for f in found)
                for cluster in pred:
                    homes = {chain_of.get(s) for s in cluster}
                    seen.add(("outside", None in homes))
                    seen.add(("two chains", len(homes - {None}) > 1))
                    chain_labels = {frozenset(found[i]) for i in homes
                                    if i is not None and len(found[i]) == 1}
                    seen.add(("two concepts", len(chain_labels) > 1))
        assert all((case, True) in seen for case in (
            "docs", "no chains", "empty prediction", "outside", "two chains",
            "two concepts"))
        assert {("labels", 0), ("labels", 1), ("labels", 2)} <= seen

    def test_pred_document_count_checked(self):
        docs, preds = random_corpus(0)
        for fn in (lambda p: slice_by_concept(docs, p, "coarse"),
                   lambda p: slice_by_subword_bucket(docs, p, SLICE_VOCAB)):
            with pytest.raises(ValueError, match="document counts differ"):
                fn(preds + [[]])


def as_text(clusterings):
    """The same clusterings with each `SpanRef` mention as a string."""
    return [[frozenset(f"{s.start}-{s.end}" for s in c) for c in clusters]
            for clusters in clusterings]


class TestKeyJoinMatchesReferences:
    """The overlap table from one sort of integer mention ids, for
    `SpanRef` mentions (span keys) and for any other hashable (one dict
    per call)."""

    @settings(derandomize=True, deadline=None, max_examples=80)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_random_corpora(self, seed):
        docs, preds = random_corpus(seed)
        gold = [doc.gold_clusters for doc in docs]
        reports = []
        for g, p in ((gold, preds), (as_text(gold), as_text(preds))):
            table = ev.Overlap.pooled(g, p)
            pooled_gold, pooled_pred = pool_documents(g), pool_documents(p)
            want = contingency_reference(pooled_gold, pooled_pred)
            assert entries(ev.Overlap.pooled([pooled_gold],
                                             [pooled_pred])) == want
            assert entries(table) == want
            assert table.gold_sizes.tolist() == list(map(len, pooled_gold))
            assert table.pred_sizes.tolist() == list(map(len, pooled_pred))
            reports.append(score_documents(g, p))
            assert reports[-1] == score_documents_reference(g, p)
        assert reports[0] == reports[1]

    def test_mentions_are_numbered_once_per_call(self):
        ids = ev.mention_ids(["b", "a", "b", 7, "a"]).tolist()
        assert ids == [0, 1, 0, 2, 1]
        assert ev.mention_ids([S(2, 3), S(0, 1)]).tolist() == \
            [(2 << 32) + 3, 1]
        # A mix numbers every mention by the dict.
        assert ev.mention_ids([S(2, 3), "x", S(2, 3)]).tolist() == [0, 1, 0]
        assert ev.mention_ids([]).tolist() == []

    @pytest.mark.parametrize("text", [False, True])
    def test_repeated_mentions_are_named_exactly(self, text):
        a, b, c = S(0, 0), S(1, 1), S(2, 2)

        def check(gold, pred, message):
            if text:
                gold, pred = as_text(gold), as_text(pred)
                message = message.replace(repr(b), "'1-1'").replace(
                    repr(a), "'0-0'")
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                score_documents(gold, pred)

        ok = [C(a, b)]
        # Document 1 repeats b on both sides: the predicted side is named.
        check([ok, [C(a, b), C(b, c)]], [ok, [C(a, b), C(b, c)]],
              f"document 1: mention {b!r} is listed twice in the predicted "
              f"clusters")
        # A gold repeat in document 0 comes before a predicted one in 1.
        check([[C(a, b), C(a, c)], ok], [ok, [C(a, b), C(b, c)]],
              f"document 0: mention {a!r} is listed twice in the gold "
              f"clusters")
        # A single document is document 0.
        check([[C(a, b), C(b, c)]], [[C(a, c)]],
              f"document 0: mention {b!r} is listed twice in the gold "
              f"clusters")

    def test_slices_name_a_repeated_predicted_mention(self):
        docs = [labeled_doc("d0", ["person"]),
                labeled_doc("d1", ["person", "problem"])]
        a, b, c = S(0, 0), S(2, 2), S(4, 4)
        preds = [[C(a, b)], [C(a, b), C(b, c)]]
        message = re.escape(f"document 1: mention {b!r} is listed twice in "
                            f"the predicted clusters")
        with pytest.raises(ValueError, match=f"^{message}$"):
            slice_by_concept(docs, preds, "coarse")
        with pytest.raises(ValueError, match=f"^{message}$"):
            slice_by_subword_bucket(docs, preds, SLICE_VOCAB)


# Span starts near 2**31 give span keys near 2**63: any key that multiplied
# a document number into a mention's id, not its rank, would overflow.
HIGH_START = 2**31 - 16
MENTION_KINDS = ("span", "high span", "text", "mixed")
REPEATS = (None, "gold", "predicted", "both")


def overlap_corpus(seed, kind, repeat):
    """Gold and predicted clusterings of 0-5 documents, for `Overlap.pooled`.

    Spans come from a few token positions, so the same span recurs across
    documents. A side of a document may be empty, and whole documents may
    be. `kind` picks the mentions: `SpanRef`s from position 0 or from
    `HIGH_START`, strings, or strings and `SpanRef`s mixed (the last two
    through `mention_ids`' dict). `repeat` lists one mention of a random
    document twice on the gold side, the predicted side or both.
    """
    rng = np.random.default_rng(seed)
    base = HIGH_START if kind == "high span" else 0

    def mention(start, end):
        if kind == "text" or kind == "mixed" and rng.random() < 0.5:
            return f"{start}-{end}"
        return S(base + start, base + end)

    def clustering(mentions):
        chosen = [x for x in mentions if rng.random() < 0.8]
        owner = rng.integers(0, 4, len(chosen))
        return [frozenset(x for x, o in zip(chosen, owner) if o == k)
                for k in range(4) if (owner == k).any()]

    gold, pred, pools = [], [], []
    for _ in range(int(rng.integers(0, 6))):
        starts = rng.integers(0, 6, int(rng.integers(0, 9)))
        spans = sorted({(int(s), int(s + rng.integers(0, 2))) for s in starts})
        mentions = [mention(*span) for span in spans]
        gold.append(clustering(mentions) if rng.random() < 0.85 else [])
        pred.append(clustering(mentions) if rng.random() < 0.85 else [])
        pools.append(mentions)
    for side, docs in (("gold", gold), ("predicted", pred)):
        if gold and repeat in (side, "both"):
            d = int(rng.integers(0, len(docs)))
            shared = pools[d][0] if pools[d] else mention(6, 6)
            docs[d] = [*docs[d], frozenset({shared, mention(7, 7)}),
                       frozenset({shared, mention(8, 8)})]
    return gold, pred


def same_overlap(gold, pred):
    """`Overlap.pooled` against its lexsort form: the five arrays byte for
    byte, or the same ValueError text. Returns the reference's outcome."""
    try:
        want = overlap_pooled_reference(gold, pred)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            ev.Overlap.pooled(gold, pred)
        assert str(raised.value) == str(exc)
        return str(exc)
    got = ev.Overlap.pooled(gold, pred)
    for name in ("rows", "cols", "counts", "gold_sizes", "pred_sizes"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape, a.tobytes()) == \
            (b.dtype, b.shape, b.tobytes()), name
    return want


class TestRankKeyedSortMatchesLexsort:
    """`Overlap.pooled` sorts one key, (document * n + rank) * 2 + side,
    where `oracles.overlap_pooled_reference` lexsorts (document, id,
    side)."""

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(MENTION_KINDS),
           repeat=st.sampled_from(REPEATS))
    def test_random_corpora(self, seed, kind, repeat):
        same_overlap(*overlap_corpus(seed, kind, repeat))

    def test_random_corpora_hold_every_case(self):
        seen = set()
        for seed in range(40):
            for kind in MENTION_KINDS:
                for repeat in REPEATS:
                    gold, pred = overlap_corpus(seed, kind, repeat)
                    outcome = same_overlap(gold, pred)
                    if isinstance(outcome, str):
                        seen.add(outcome.split(" clusters")[0].split()[-1])
                        continue
                    seen.add(("documents", min(len(gold), 2)))
                    seen.add(("entries", len(outcome.counts) > 0))
                    seen.update(("empty side", not any(docs))
                                for docs in (gold, pred) if docs)
                    seen.update(("empty document", not g and not p)
                                for g, p in zip(gold, pred))
                    homes = {}
                    for d, docs in enumerate(gold):
                        for x in itertools.chain.from_iterable(docs):
                            homes.setdefault(x, set()).add(d)
                    seen.add(("span in two documents", any(
                        len(h) > 1 and isinstance(x, S)
                        for x, h in homes.items())))
                    seen.add(("high start", any(
                        isinstance(x, S) and x.start >= HIGH_START
                        for x in homes)))
        assert {"gold", "predicted", ("documents", 0), ("documents", 1),
                ("documents", 2), ("entries", True), ("empty side", True),
                ("empty document", True), ("span in two documents", True),
                ("high start", True)} <= seen

    def test_a_repeat_on_both_sides_names_the_predicted_one(self):
        a, b, c = S(0, 0), S(1, 1), S(2, 2)
        for mentions in ((a, b, c), ("a", "b", "c"), (a, "b", c)):
            x, y, z = mentions
            repeated = [[C(x, y), C(y, z)]]
            message = same_overlap(repeated, repeated)
            assert message == (f"document 0: mention {y!r} is listed twice "
                               f"in the predicted clusters")
            message = same_overlap([[C(x, y)], repeated[0]], [[], [C(x, z)]])
            assert message == (f"document 1: mention {y!r} is listed twice "
                               f"in the gold clusters")


def test_evaluate_passes_keep_nothing_on_the_documents(tmp_path):
    """Two evaluate passes over the same documents, each after a fresh
    `ParameterStore.load`, as two `kcoref evaluate` runs would make: the
    only per-document entry either pass leaves is `token_ids`, so a second
    pass repeats the first one's work and reads nothing the first kept."""
    docs = [doc for seed in range(4) for doc in random_corpus(seed)[0]]
    config = m.ModelConfig(d_token=6, d_width=2, window_radius=1,
                           scorer_hidden=4, max_span_width=3,
                           prune_ratio=0.6, max_antecedents=4)
    tr.init_parameters(config, tr.build_vocab(docs), ("person", "problem"),
                       seed=3).save(tmp_path / "model.ckpt")
    fields = {field.name for field in dataclasses.fields(docs[0])}
    reports = []
    for _ in range(2):
        store = tr.ParameterStore.load(tmp_path / "model.ckpt")
        preds = [predict_clusters(doc, store, config).clusters
                 for doc in docs]
        gold = [doc.gold_clusters for doc in docs]
        reports.append((score_documents(gold, preds),
                        slice_by_concept(docs, preds, "coarse"),
                        slice_by_subword_bucket(docs, preds, SLICE_VOCAB)))
        for doc in docs:
            assert set(vars(doc)) <= fields | {"_derived"}
            assert set(vars(doc).get("_derived", {})) <= {"token_ids"}
    assert reports[0] == reports[1]


def test_scoring_hashes_each_mention_a_bounded_number_of_times(monkeypatch):
    """`score_documents` and the subword slices hash no `SpanRef`;
    `slice_by_concept` hashes each gold mention once, to look up its
    label, however many slices there are."""
    labels = tuple(f"c{k}" for k in range(8))
    corpora = [random_corpus(seed, labels) for seed in range(12)]
    docs = [doc for corpus_docs, _ in corpora for doc in corpus_docs]
    preds = [pred for _, corpus_preds in corpora for pred in corpus_preds]
    gold = [doc.gold_clusters for doc in docs]
    gold_mentions = sum(len(c) for clusters in gold for c in clusters)
    calls = [0]
    real = SpanRef.__hash__

    def counting(span):
        calls[0] += 1
        return real(span)

    monkeypatch.setattr(SpanRef, "__hash__", counting)
    n_slices = []
    for run, budget in (
            (lambda: score_documents(gold, preds), 0),
            (lambda: slice_by_concept(docs, preds, "coarse"), gold_mentions),
            (lambda: slice_by_subword_bucket(docs, preds, SLICE_VOCAB,
                                             1.0, 8), 0)):
        calls[0] = 0
        out = run()
        n_slices.append(len(out) if isinstance(out, list) else 1)
        assert calls[0] <= budget, (n_slices[-1], calls[0], budget)
    assert min(n_slices[1:]) >= 5


def test_report_dataclasses():
    r = RPF1.from_rp(0.5, 0.5)
    assert r.f1 == 0.5
    assert RPF1.from_rp(0.0, 0.0).f1 == 0.0
    report = MetricReport(RPF1(1, 1, 1), RPF1(1, 1, 1), RPF1(0, 0, 0))
    assert report.average.f1 == pytest.approx(2 / 3)
