import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcoref import evaluation as ev
from kcoref import model as m
from kcoref import training as tr
from kcoref.corpus import SpanRef, SubwordVocab
from kcoref.evaluation import (MetricReport, RPF1, UnionFind,
                               average_report, b_cubed, bucket_key, ceaf_e,
                               contingency, decode_clusters, muc,
                               predict_antecedents,
                               predict_clusters, score_documents,
                               select_antecedents, slice_by_concept,
                               slice_by_subword_bucket)

from kcoref import losses as L
from oracles import (b_cubed_reference, ceaf_e_brute_force, ceaf_e_dense,
                     decode_clusters_reference, muc_reference,
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
    """`select_antecedents` on a one-row grid."""
    return select_antecedents(
        np.array(window, dtype=np.float64).reshape(1, -1)).tolist()


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
                   [2.0, 1.0, 2.0], [3.0], [0.5, 0.5, 0.5, 0.5]]
        grid = np.full((len(windows), 4), -np.inf)
        for k, w in enumerate(windows):
            grid[k, :len(w)] = w
        want = [select_antecedent(np.array(w)) for w in windows]
        assert select_antecedents(grid).tolist() == \
            [-1 if p is None else p for p in want]


class TestBatchedDecodeMatchesReference:
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(doc=random_documents(), seed=st.integers(0, 2**16),
           bias=st.sampled_from([0.0, 0.3, 2.0]))
    def test_random_documents_and_stores(self, doc, seed, bias):
        store = tr.init_parameters(INDEX_CONFIG, tr.build_vocab([doc]),
                                   seed=seed)
        store.tensors["scorer.antecedent.b2"][...] = bias
        got = predict_antecedents(doc, store, INDEX_CONFIG)
        assert len(got) > INDEX_CONFIG.max_antecedents
        assert got == predict_antecedents_reference(doc, store, INDEX_CONFIG)

    def test_zero_store(self):
        doc = make_doc([f"w{i % 3}" for i in range(12)], [[(0, 0), (3, 3)]])
        store = tr.init_parameters(INDEX_CONFIG, tr.build_vocab([doc]),
                                   zero_init=True)
        got = predict_antecedents(doc, store, INDEX_CONFIG)
        assert got == predict_antecedents_reference(doc, store, INDEX_CONFIG)
        assert got and all(a is None for a in got.values())

    def test_exact_tie_picks_the_nearest_antecedent(self):
        doc = make_doc([f"w{i % 3}" for i in range(12)], [[(0, 0), (3, 3)]])
        # zero weights and antecedent bias 1: every pair scores exactly 1.0
        store = tr.init_parameters(INDEX_CONFIG, tr.build_vocab([doc]),
                                   zero_init=True)
        store.tensors["scorer.antecedent.b2"][...] = 1.0
        got = predict_antecedents(doc, store, INDEX_CONFIG)
        assert got == predict_antecedents_reference(doc, store, INDEX_CONFIG)
        spans = list(got)
        assert got[spans[0]] is None
        assert all(got[b] == a for a, b in zip(spans, spans[1:]))

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
        got = predict_antecedents(doc, store, config)
        assert got[S(6, 6)] == S(5, 5)
        assert got == predict_antecedents_reference(doc, store, config)

    def test_nan_score_rejected(self):
        docs, config, store, _, _ = tiny_setup()
        store.tensors["scorer.antecedent.b2"][...] = np.nan
        with pytest.raises(ValueError, match="NaN antecedent score"):
            predict_antecedents(docs[0], store, config)

    def test_nan_mention_score_rejected(self):
        # One NaN embedding row: pruning would rank the spans over its
        # token last and decode the rest without a word.
        docs, config, store, _, _ = tiny_setup()
        row = store.vocab.index(docs[0].tokens[2].surface)
        store.tensors["encoder.embeddings"][row] = np.nan
        with pytest.raises(ValueError,
                           match=f"{docs[0].doc_id}: NaN mention score"):
            predict_antecedents(docs[0], store, config)


class TestDecodeClusters:
    def test_transitive_links_merge(self):
        links = {S(1, 1): S(0, 0), S(2, 2): S(1, 1)}
        out = decode_clusters(links)
        assert out.clusters == [C(S(0, 0), S(1, 1), S(2, 2))]

    def test_all_dummy_links_give_no_clusters(self):
        links = {S(0, 0): None, S(1, 1): None}
        assert decode_clusters(links).clusters == []

    def test_two_disjoint_chains(self):
        links = {S(1, 1): S(0, 0), S(3, 3): S(2, 2), S(4, 4): None}
        out = decode_clusters(links)
        assert len(out.clusters) == 2

    def test_predicted_clusters_have_no_singletons(self):
        links = {S(1, 1): S(0, 0), S(4, 4): None}
        out = decode_clusters(links)
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
        out = decode_clusters(links)
        seen = [s for c in out.clusters for s in c]
        assert len(seen) == len(set(seen))  # disjoint
        assert set(seen) == linked          # exactly the non-dummy-linked spans
        assert out.clusters == decode_clusters_reference(links)


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

    def test_predict_clusters_builds_only_the_candidates(self, built):
        docs, config, store, _, _ = tiny_setup(seed=3)
        for doc in docs:
            built.clear()
            links = predict_antecedents(doc, store, config)
            assert 0 < len(built) <= len(links)
            built.clear()
            assert predict_clusters(doc, store, config).clusters
            assert len(built) <= len(links)

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


class TestPredictIntegration:
    def test_zero_model_links_everything_to_dummy(self):
        docs, config, store, _, _ = tiny_setup()
        zero = tr.init_parameters(config, store.vocab, store.scaffold_classes,
                                  zero_init=True)
        links = predict_antecedents(docs[0], zero, config)
        assert all(v is None for v in links.values())
        assert predict_clusters(docs[0], zero, config).clusters == []

    def test_links_reference_preceding_candidates(self):
        docs, config, store, _, _ = tiny_setup(seed=3)
        links = predict_antecedents(docs[0], store, config)
        for mention, antecedent in links.items():
            if antecedent is not None:
                assert antecedent < mention


class TestMUC:
    def test_identical_clusterings(self):
        got = muc(GOLD_EX, GOLD_EX)
        assert (got.recall, got.precision, got.f1) == (1.0, 1.0, 1.0)

    def test_worked_example_two_thirds(self):
        got = muc(GOLD_EX, PRED_EX)
        assert got.recall == pytest.approx(2 / 3)
        assert got.precision == pytest.approx(2 / 3)
        assert got.f1 == pytest.approx(2 / 3)

    def test_singleton_predictions_score_zero_recall(self):
        got = muc(GOLD_EX, [])
        assert got.recall == 0.0

    def test_no_gold_links_defined_zero(self):
        got = muc([], PRED_EX)
        assert got.recall == 0.0


class TestBCubed:
    def test_identical_clusterings(self):
        got = b_cubed(GOLD_EX, GOLD_EX)
        assert (got.recall, got.precision, got.f1) == (1.0, 1.0, 1.0)

    def test_worked_example_eleven_fifteenths(self):
        got = b_cubed(GOLD_EX, PRED_EX)
        assert got.recall == pytest.approx(11 / 15)
        assert got.precision == pytest.approx(11 / 15)

    def test_one_big_cluster_keeps_recall_high(self):
        pred = [C("a", "b", "c", "d", "e")]
        got = b_cubed(GOLD_EX, pred)
        assert got.recall == 1.0
        assert got.precision < 1.0


class TestCeafE:
    def test_identical_clusterings(self):
        got = ceaf_e(GOLD_EX, GOLD_EX)
        assert (got.recall, got.precision, got.f1) == (1.0, 1.0, 1.0)

    def test_worked_example_merged_prediction(self):
        gold = [C("a", "b"), C("c", "d")]
        pred = [C("a", "b", "c", "d")]
        got = ceaf_e(gold, pred)
        assert got.recall == pytest.approx(1 / 3)
        assert got.precision == pytest.approx(2 / 3)

    def test_empty_both_sides_is_perfect_by_convention(self):
        got = ceaf_e([], [])
        assert (got.recall, got.precision, got.f1) == (1.0, 1.0, 1.0)

    def test_one_side_empty_is_zero(self):
        assert ceaf_e(GOLD_EX, []) == RPF1(0.0, 0.0, 0.0)
        assert ceaf_e([], PRED_EX) == RPF1(0.0, 0.0, 0.0)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_assignment_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        gold = random_clustering(rng, 10, 4)
        pred = random_clustering(rng, 10, 4)
        got = ceaf_e(gold, pred)
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

        got = muc(gold, pred)
        ref = muc_reference(gold, pred)
        assert (got.recall, got.precision, got.f1) == ref

        got_b = b_cubed(gold, pred)
        ref_b = b_cubed_reference(gold, pred)
        assert (got_b.recall, got_b.precision, got_b.f1) == ref_b

        # duality: swapping gold and pred swaps R and P
        for fn in (muc, b_cubed, ceaf_e):
            fwd, rev = fn(gold, pred), fn(pred, gold)
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
        for fn in (muc, b_cubed, ceaf_e):
            a, b = fn(gold, pred), fn(gold_r, pred_r)
            assert a.f1 == pytest.approx(b.f1, abs=1e-12)

    def test_perfect_prediction_is_perfect_everywhere(self):
        for fn in (muc, b_cubed, ceaf_e):
            got = fn(GOLD_EX, [C(*c) for c in GOLD_EX])
            assert got == RPF1(1.0, 1.0, 1.0)


class TestRepeatedMentionsRejected:
    @pytest.mark.parametrize("metric", [muc, b_cubed, ceaf_e])
    @pytest.mark.parametrize("pred", [PRED_EX, []])
    def test_gold_side(self, metric, pred):
        gold = [C("a", "b", "c"), C("c", "d")]
        with pytest.raises(ValueError,
                           match="mention 'c' is listed twice in the gold"):
            metric(gold, pred)

    @pytest.mark.parametrize("metric", [muc, b_cubed, ceaf_e])
    @pytest.mark.parametrize("gold", [GOLD_EX, []])
    def test_pred_side(self, metric, gold):
        pred = [C("a", "d"), C("d", "e")]
        with pytest.raises(
                ValueError,
                match="mention 'd' is listed twice in the predicted"):
            metric(gold, pred)


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


# Hand-built pooled cases: G > P, P > G, 2x2 and 3x2 blocks, gold clusters
# that overlap nothing, and a pred cluster spanning two gold clusters.
POOLED_CASES = {
    "more_gold": ([[C(1, 2), C(3, 4), C(5, 6)], [C(1, 2)]],
                  [[C(1, 2, 3)], [C(1, 2)]]),
    "more_pred": ([[C(1, 2, 3, 4)]], [[C(1, 2), C(3, 4), C(5, 6)]]),
    "block_2x2": ([[C(1, 2, 3), C(4, 5, 6)]], [[C(1, 2, 4), C(3, 5, 6)]]),
    "block_3x2": ([[C(1, 2), C(3, 4), C(5, 6)], [C(1, 2)]],
                  [[C(1, 3, 5), C(2, 4, 6)], [C(1, 7)]]),
    "gold_unmatched": ([[C(1, 2), C(8, 9)], [C(3, 4)]],
                       [[C(1, 2)], [C(5, 6)]]),
}


class TestPooledMetricsMatchReferences:
    def check(self, gold, pred):
        got = ceaf_e(gold, pred)
        want = ceaf_e_dense(gold, pred)
        for a, b in zip((got.recall, got.precision, got.f1), want):
            assert a == pytest.approx(b, abs=1e-12)
        got_m, got_b = muc(gold, pred), b_cubed(gold, pred)
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
        assert contingency(GOLD_EX, PRED_EX) == {(0, 0): 2, (0, 1): 1,
                                                 (1, 1): 2}

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
            ceaf_e(gold, pred)
            blocks = overlap_blocks(gold, pred)
            assert sorted(shapes) == sorted(b for b in blocks if b != (1, 1))
            seen += shapes
        assert {(2, 2), (3, 2)} <= set(seen)

    def test_hand_built_cases_are_what_they_say(self):
        def pooled(case):
            return [pool_documents(docs) for docs in POOLED_CASES[case]]

        gold, pred = pooled("more_gold")
        assert len(gold) > len(pred)
        gold, pred = pooled("more_pred")
        assert len(pred) > len(gold)
        assert (2, 2) in overlap_blocks(*pooled("block_2x2"))
        assert (3, 2) in overlap_blocks(*pooled("block_3x2"))
        gold, pred = pooled("gold_unmatched")
        assert sum(rows for rows, _ in overlap_blocks(gold, pred)) < len(gold)


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


def test_scoring_hashes_each_mention_a_bounded_number_of_times(monkeypatch):
    """Per call, at most three `SpanRef` hashes per gold or predicted
    mention, however many slices there are."""
    labels = tuple(f"c{k}" for k in range(8))
    corpora = [random_corpus(seed, labels) for seed in range(12)]
    docs = [doc for corpus_docs, _ in corpora for doc in corpus_docs]
    preds = [pred for _, corpus_preds in corpora for pred in corpus_preds]
    gold = [doc.gold_clusters for doc in docs]
    mentions = sum(len(c) for clusters in gold + preds for c in clusters)
    calls = [0]
    real = SpanRef.__hash__

    def counting(span):
        calls[0] += 1
        return real(span)

    monkeypatch.setattr(SpanRef, "__hash__", counting)
    n_slices = []
    for run in (lambda: score_documents(gold, preds),
                lambda: slice_by_concept(docs, preds, "coarse"),
                lambda: slice_by_subword_bucket(docs, preds, SLICE_VOCAB,
                                                1.0, 8)):
        calls[0] = 0
        out = run()
        n_slices.append(len(out) if isinstance(out, list) else 1)
        assert calls[0] <= 3 * mentions, (n_slices[-1], calls[0] / mentions)
    assert min(n_slices[1:]) >= 5


def test_report_dataclasses():
    r = RPF1.from_rp(0.5, 0.5)
    assert r.f1 == 0.5
    assert RPF1.from_rp(0.0, 0.0).f1 == 0.0
    report = MetricReport(RPF1(1, 1, 1), RPF1(1, 1, 1), RPF1(0, 0, 0))
    assert report.average.f1 == pytest.approx(2 / 3)
