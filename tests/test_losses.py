import dataclasses
import gc
import math
import tracemalloc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcoref import losses as L
from kcoref import model as m
from kcoref import training as tr
from kcoref.corpus import SpanRef, span_keys, truncate_document
from kcoref.losses import (LossError, LossWeights, ObjectiveConfig,
                           ScaffoldParams, build_pair_set, combined_loss,
                           document_objective)
from kcoref.toolkit import SyntheticSpec, generate_synthetic_corpus

import oracles as O
from oracles import (Tensor, coref_distance, coref_loss, cosine_distance,
                     cosine_distance_t, knowledge_distance, pair_set_reference,
                     retrofit_loss, scaffold_loss, softmax_by_hand,
                     target_distance)
from test_corpus import make_doc

S = SpanRef


def doc_with(clusters=(), coarse=None, umls=None, tokens=8):
    annotations = {}
    if coarse:
        annotations["i2b2"] = {s: c for s, c in coarse.items()}
    if umls:
        annotations["umls"] = {s: c for s, c in umls.items()}
    return make_doc([f"w{i}" for i in range(tokens)], clusters, annotations)


class TestCorefDistance:
    def test_same_cluster_is_zero(self):
        doc = doc_with([[(0, 0), (1, 1)]])
        assert coref_distance(S(0, 0), S(1, 1), doc.gold_clusters) == 0

    def test_different_clusters_is_one(self):
        doc = doc_with([[(0, 0), (1, 1)], [(2, 2), (3, 3)]])
        assert coref_distance(S(0, 0), S(2, 2), doc.gold_clusters) == 1

    def test_unclustered_span_is_one(self):
        doc = doc_with([[(0, 0), (1, 1)]])
        assert coref_distance(S(0, 0), S(5, 5), doc.gold_clusters) == 1
        assert coref_distance(S(5, 5), S(6, 6), doc.gold_clusters) == 1


class TestKnowledgeDistance:
    def test_same_concept_zero(self):
        ann = {"i2b2": {S(0, 0): "problem", S(1, 1): "problem"}}
        assert knowledge_distance(S(0, 0), S(1, 1), ann, "i2b2") == 0

    def test_different_concept_one(self):
        ann = {"i2b2": {S(0, 0): "problem", S(1, 1): "test"}}
        assert knowledge_distance(S(0, 0), S(1, 1), ann, "i2b2") == 1

    def test_unlabeled_is_one(self):
        ann = {"i2b2": {S(0, 0): "problem"}}
        assert knowledge_distance(S(0, 0), S(1, 1), ann, "i2b2") == 1
        assert knowledge_distance(S(1, 1), S(2, 2), ann, "i2b2") == 1


class TestTargetDistance:
    def test_all_agreeing_terms_zero(self):
        doc = doc_with([[(0, 0), (1, 1)]],
                       coarse={S(0, 0): "problem", S(1, 1): "problem"},
                       umls={S(0, 0): "C1", S(1, 1): "C1"})
        w = LossWeights(alpha_c=1.0, alpha_k={"i2b2": 0.5, "umls": 0.2})
        assert target_distance(S(0, 0), S(1, 1), doc, w) == 0.0

    def test_single_lexicon_best_weights(self):
        doc = doc_with([], umls={S(0, 0): "C1", S(1, 1): "C2"})
        w = LossWeights(alpha_c=1.0, alpha_k={"umls": 0.2})
        assert target_distance(S(0, 0), S(1, 1), doc, w) == pytest.approx(1.2)

    def test_two_lexicons_best_weights(self):
        doc = doc_with([], coarse={S(0, 0): "problem", S(1, 1): "problem"},
                       umls={S(0, 0): "C1", S(1, 1): "C2"})
        w = LossWeights(alpha_c=1.0, alpha_k={"i2b2": 0.5, "umls": 0.2})
        assert target_distance(S(0, 0), S(1, 1), doc, w) == \
            pytest.approx(1.0 + 0.0 + 0.2)

    def test_skip_mode_drops_unlabeled_terms(self):
        doc = doc_with([], coarse={S(0, 0): "problem"})
        w = LossWeights(alpha_c=1.0, alpha_k={"i2b2": 0.5})
        assert target_distance(S(0, 0), S(1, 1), doc, w, "strict") == 1.5
        assert target_distance(S(0, 0), S(1, 1), doc, w, "skip") == 1.0

    @given(st.integers(0, 5), st.integers(0, 5),
           st.floats(0, 2), st.floats(0, 2))
    @settings(max_examples=60, deadline=None)
    def test_symmetry_and_range(self, i, j, alpha_c, alpha_k):
        doc = doc_with([[(0, 0), (1, 1)], [(2, 2), (3, 3)]],
                       coarse={S(0, 0): "a", S(1, 1): "a", S(2, 2): "b"})
        w = LossWeights(alpha_c=alpha_c, alpha_k={"i2b2": alpha_k})
        a, b = S(i, i), S(j, j)
        d_ab = target_distance(a, b, doc, w)
        assert d_ab == target_distance(b, a, doc, w)
        assert 0.0 <= d_ab <= alpha_c + alpha_k + 1e-12


class TestCosineDistance:
    def test_identical_vectors(self):
        v = np.array([1.0, 2.0, 3.0])
        assert cosine_distance(v, v) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal(self):
        assert cosine_distance([1, 0], [0, 1]) == pytest.approx(1.0)

    def test_antipodal(self):
        assert cosine_distance([1.0, 1.0], [-1.0, -1.0]) == pytest.approx(2.0)

    def test_zero_vector_degrades_to_one(self, caplog):
        with caplog.at_level("WARNING"):
            assert cosine_distance([0.0, 0.0], [1.0, 0.0]) == 1.0
        assert "zero vector" in caplog.text

    def test_tensor_version_matches(self):
        rng = np.random.default_rng(0)
        u, v = rng.normal(size=4), rng.normal(size=4)
        got = float(cosine_distance_t(Tensor(u), Tensor(v)).value)
        assert got == pytest.approx(cosine_distance(u, v), abs=1e-12)


def table_rows(index, spans):
    """The rows of `spans` in the span table of `index`."""
    rows = np.searchsorted(index.keys, span_keys(spans))
    assert (index.keys[rows] == span_keys(spans)).all()
    return rows


class TestPairSet:
    def test_pairs_over_gold_plus_candidates(self):
        doc = doc_with([[(0, 0), (1, 1)]])
        index = L.document_index(doc, INDEX_CONFIG, True, None)
        rng = np.random.default_rng(0)
        ps = build_pair_set(doc.doc_id, index, table_rows(index, [S(2, 2)]),
                            budget=100, rng=rng)
        assert ps.count == 3  # C(3, 2)
        assert ps.rows.tolist() == \
            table_rows(index, [S(0, 0), S(1, 1), S(2, 2)]).tolist()
        assert (ps.first < ps.second).all()

    def test_budget_caps_and_is_deterministic(self):
        doc = doc_with([[(i, i) for i in range(6)]])
        index = L.document_index(doc, INDEX_CONFIG, True, None)
        none = np.zeros(0, dtype=np.intp)
        ps1 = build_pair_set(doc.doc_id, index, none, 5,
                             np.random.default_rng(42))
        ps2 = build_pair_set(doc.doc_id, index, none, 5,
                             np.random.default_rng(42))
        assert ps1.count == 5
        assert ps1.rows.tolist() == ps2.rows.tolist()
        assert ps1.first.tolist() == ps2.first.tolist()
        assert ps1.second.tolist() == ps2.second.tolist()

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(n=st.integers(0, 120), budget=st.integers(0, 800),
           seed=st.integers(0, 2**16))
    def test_the_decoded_draw_equals_the_listed_pairs(self, n, budget, seed):
        pool = SimpleNamespace(cluster=np.zeros(n, dtype=np.intp))
        got = build_pair_set("d", pool, np.zeros(0, dtype=np.intp), budget,
                             [seed, n])
        first, second = O.pair_positions_reference(n, budget, [seed, n])
        assert (got.first.dtype, got.second.dtype) == (first.dtype,
                                                       second.dtype)
        assert got.first.tolist() == first.tolist()
        assert got.second.tolist() == second.tolist()

    def test_an_over_budget_pool_is_not_listed(self):
        """3,000 pooled rows make 4.5 million pairs: listing them takes
        tens of MiB, drawing 600 of them a few KiB."""
        pool = SimpleNamespace(cluster=np.zeros(3000, dtype=np.intp))
        tracemalloc.start()
        try:
            got = build_pair_set("d", pool, np.zeros(0, dtype=np.intp), 600,
                                 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.count == 600
        assert peak < 1 << 20, f"{peak / 2**20:.1f} MiB"


def internals_for(doc_id, vectors):
    return {doc_id: {s: Tensor(np.asarray(v, dtype=float))
                     for s, v in vectors.items()}}


class TestRetrofitLoss:
    def test_exact_fit_is_zero(self):
        doc = doc_with([[(0, 0), (1, 1)]])
        w = LossWeights(alpha_c=1.0)
        vectors = internals_for("d0", {S(0, 0): [1.0, 0.0],
                                       S(1, 1): [2.0, 0.0]})  # cos dist 0
        out = retrofit_loss([doc], {"d0": [(S(0, 0), S(1, 1))]}, vectors, w)
        assert float(out.value) == pytest.approx(0.0, abs=1e-12)

    def test_absolute_gap(self):
        # d_T = 1.2 (non-coref + different concept), cosine distance 0.2
        doc = doc_with([], umls={S(0, 0): "C1", S(1, 1): "C2"})
        w = LossWeights(alpha_c=1.0, alpha_k={"umls": 0.2})
        theta = math.acos(0.8)
        vectors = internals_for(
            "d0", {S(0, 0): [1.0, 0.0],
                   S(1, 1): [math.cos(theta), math.sin(theta)]})
        out = retrofit_loss([doc], {"d0": [(S(0, 0), S(1, 1))]}, vectors, w)
        assert float(out.value) == pytest.approx(1.0, abs=1e-12)

    def test_per_document_normalization(self):
        # doc a: two pairs with gaps summing 1.0; doc b: one pair with gap 0.5
        doc_a = doc_with([[(0, 0), (1, 1), (2, 2)]])
        doc_b = make_doc(["x", "y"], [[(0, 0), (1, 1)]], doc_id="d1")
        w = LossWeights(alpha_c=1.0)
        va = {S(0, 0): [1.0, 0.0], S(1, 1): [0.0, 1.0], S(2, 2): [1.0, 0.0]}
        # pairs: (0,1): |0 - 1| = 1; (0,2): |0 - 0| = 0; (1,2): |0 - 1| = 1
        pairs_a = [(S(0, 0), S(1, 1)), (S(0, 0), S(2, 2))]
        theta = math.acos(0.5)
        vb = {S(0, 0): [1.0, 0.0], S(1, 1): [math.cos(theta), math.sin(theta)]}
        pairs_b = [(S(0, 0), S(1, 1))]
        vectors = {**internals_for("d0", va), **internals_for("d1", vb)}
        out = retrofit_loss([doc_a, doc_b], {"d0": pairs_a, "d1": pairs_b},
                            vectors, w)
        assert float(out.value) == pytest.approx(1.0 / 2 + 0.5, abs=1e-12)

    def test_empty_pair_set_contributes_zero(self, caplog):
        doc = doc_with([])
        with caplog.at_level("WARNING"):
            out = retrofit_loss([doc], {"d0": []}, {"d0": {}}, LossWeights())
        assert float(out.value) == 0.0
        assert "empty pair set" in caplog.text

    def test_cosine_scale_invariance(self):
        doc = doc_with([[(0, 0), (1, 1)]])
        w = LossWeights(alpha_c=1.0)
        base = {S(0, 0): [1.0, 2.0], S(1, 1): [-1.0, 0.5]}
        scaled = {S(0, 0): [3.0, 6.0], S(1, 1): [-1.0, 0.5]}
        pairs = {"d0": [(S(0, 0), S(1, 1))]}
        out1 = retrofit_loss([doc], pairs, internals_for("d0", base), w)
        out2 = retrofit_loss([doc], pairs, internals_for("d0", scaled), w)
        assert float(out1.value) == pytest.approx(float(out2.value), abs=1e-9)


class TestScaffoldLoss:
    def params(self, weights, classes=("a", "b", "c", "d")):
        return ScaffoldParams(tuple(classes),
                              Tensor(np.asarray(weights, dtype=float)))

    def test_uniform_softmax_log_k(self):
        scaffold = self.params(np.zeros((4, 3)))
        vectors = internals_for("d0", {S(0, 0): [1.0, 2.0, 3.0]})
        out = scaffold_loss({"d0": [(S(0, 0), "b")]}, vectors, scaffold)
        assert float(out.value) == pytest.approx(math.log(4), abs=1e-12)

    def test_confident_correct_classifier_is_zero(self):
        w = np.zeros((2, 2))
        w[0, 0] = 50.0
        scaffold = self.params(w, classes=("a", "b"))
        vectors = internals_for("d0", {S(0, 0): [1.0, 0.0]})
        out = scaffold_loss({"d0": [(S(0, 0), "a")]}, vectors, scaffold)
        assert float(out.value) == pytest.approx(0.0, abs=1e-12)

    def test_hand_softmax_two_classes(self):
        w = np.array([[1.0, 0.0], [0.0, 0.0]])
        scaffold = self.params(w, classes=("a", "b"))
        vectors = internals_for("d0", {S(0, 0): [1.0, 0.0]})  # logits (1, 0)
        out = scaffold_loss({"d0": [(S(0, 0), "a")]}, vectors, scaffold)
        expected = -math.log(softmax_by_hand([1.0, 0.0])[0])
        assert float(out.value) == pytest.approx(expected, abs=1e-12)
        assert float(out.value) == pytest.approx(0.3133, abs=1e-4)

    def test_unlabeled_spans_skipped(self):
        scaffold = self.params(np.zeros((2, 2)), classes=("a", "b"))
        vectors = internals_for("d0", {S(0, 0): [1.0, 0.0]})
        out = scaffold_loss({"d0": [(S(0, 0), "not-a-class")]}, vectors,
                            scaffold)
        assert float(out.value) == 0.0

    def test_per_document_mean(self):
        scaffold = self.params(np.zeros((2, 2)), classes=("a", "b"))
        vectors = {**internals_for("d0", {S(0, 0): [1, 0], S(1, 1): [0, 1]}),
                   **internals_for("d1", {S(0, 0): [1, 1]})}
        labeled = {"d0": [(S(0, 0), "a"), (S(1, 1), "b")],
                   "d1": [(S(0, 0), "a")]}
        out = scaffold_loss(labeled, vectors, scaffold)
        assert float(out.value) == pytest.approx(2 * math.log(2), abs=1e-12)


def zero_candidates(doc, spans):
    layout = m.span_layout(np.array([s.start for s in spans]),
                           np.array([s.end for s in spans]), m.ModelConfig())
    return m.CandidateSet(layout, np.arange(len(spans)))


class TestCorefLoss:
    def test_single_candidate_no_clusters(self):
        doc = doc_with([])
        candidates = zero_candidates(doc, [S(0, 0)])
        dists = [np.array([1.0])]
        assert coref_loss(doc, candidates, dists) == pytest.approx(0.0)

    def test_two_coreferent_spans_zero_scores(self):
        # First candidate has no preceding spans, so its whole distribution
        # sits on the dummy and contributes 0; the second splits (0.5, 0.5)
        # and owes -log(0.5).
        doc = doc_with([[(0, 0), (1, 1)]])
        candidates = zero_candidates(doc, [S(0, 0), S(1, 1)])
        dists = [np.array([1.0]), np.array([0.5, 0.5])]
        expected = -math.log(1.0) - math.log(0.5)
        assert coref_loss(doc, candidates, dists) == pytest.approx(expected)
        assert expected == pytest.approx(0.6931, abs=1e-4)

    def test_confident_correct_model_is_zero(self):
        doc = doc_with([[(0, 0), (1, 1)]])
        candidates = zero_candidates(doc, [S(0, 0), S(1, 1)])
        dists = [np.array([1.0]), np.array([1.0, 0.0])]
        assert coref_loss(doc, candidates, dists) == pytest.approx(0.0)

    def test_pruning_miss_falls_back_to_dummy(self):
        doc = doc_with([[(0, 0), (3, 3)]])
        candidates = zero_candidates(doc, [S(3, 3)])  # antecedent pruned away
        dists = [np.array([1.0])]
        loss, misses = O.coref_loss_with_misses(doc, candidates, dists)
        assert misses == 1
        assert loss == pytest.approx(0.0)

    def test_distribution_window_mismatch_rejected(self):
        doc = doc_with([])
        candidates = zero_candidates(doc, [S(0, 0), S(1, 1)])
        with pytest.raises(LossError):
            coref_loss(doc, candidates, [np.array([1.0]), np.array([1.0])])


class TestCombinedLoss:
    def test_beta_100_returns_cl(self):
        w = LossWeights(beta=(1.0, 0.0, 0.0))
        assert combined_loss(3.5, 100.0, 100.0, w) == pytest.approx(3.5)

    def test_source_phase_beta3_zero_excludes_sl(self):
        w = LossWeights(beta=(1.0, 0.5, 0.0))
        assert combined_loss(1.0, 2.0, 123.0, w) == pytest.approx(2.0)

    def test_weighted_sum(self):
        w = LossWeights(beta=(1.0, 1.0, 1.0))
        assert combined_loss(0.5, 0.25, 0.25, w) == pytest.approx(1.0)

    def test_nan_component_named(self):
        w = LossWeights(beta=(1.0, 1.0, 1.0))
        with pytest.raises(LossError, match="retrofitting"):
            combined_loss(1.0, float("nan"), 1.0, w)

    def test_monotone_in_components(self):
        w = LossWeights(beta=(1.0, 0.5, 0.25))
        lo = combined_loss(1.0, 1.0, 1.0, w)
        assert combined_loss(2.0, 1.0, 1.0, w) > lo
        assert combined_loss(1.0, 2.0, 1.0, w) > lo
        assert combined_loss(1.0, 1.0, 2.0, w) > lo

    def test_weight_validation(self):
        with pytest.raises(LossError):
            LossWeights(alpha_c=-1.0)
        with pytest.raises(LossError):
            LossWeights(beta=(0.0, 0.0, 0.0))
        with pytest.raises(LossError):
            LossWeights(alpha_k={"x": -0.1})


# ---------------------------------------------------------------------------
# Graph-vs-reference equivalence and gradient checks


def tiny_corpus():
    doc_a = make_doc(
        ["dorv", "##ia", "x", "dorv", "##ia", "y", "melk", "##ia", "z"],
        [[(0, 1), (3, 4)]],
        {"i2b2": {S(0, 1): "problem", S(3, 4): "problem", S(6, 7): "test"}},
        doc_id="d0")
    doc_b = make_doc(
        ["melk", "##ia", "w", "melk", "##ia"],
        [[(0, 1), (3, 4)]],
        {"i2b2": {S(0, 1): "test", S(3, 4): "test"}},
        doc_id="d1")
    return [doc_a, doc_b]


def tiny_setup(seed=0, beta=(1.0, 0.5, 0.5)):
    docs = tiny_corpus()
    config = m.ModelConfig(d_token=5, d_width=3, window_radius=1,
                           scorer_hidden=4, max_span_width=2, prune_ratio=0.5,
                           max_antecedents=10)
    vocab = tr.build_vocab(docs)
    store = tr.init_parameters(config, vocab, ("problem", "test"), seed=seed)
    weights = LossWeights(alpha_c=1.0, alpha_k={"i2b2": 0.5}, beta=beta)
    objective = ObjectiveConfig(pair_budget=50, pair_seed=3,
                                scaffold_lexicon="i2b2")
    return docs, config, store, weights, objective


class TestDocumentObjective:
    def test_cl_graph_matches_reference_loss(self):
        docs, config, store, weights, objective = tiny_setup(
            beta=(1.0, 0.0, 0.0))
        enc, scoring, scaffold = store.groups
        out = L.document_objective(docs[0], enc, scoring, scaffold, weights,
                                   config, objective)
        dists = []
        for k in range(len(out.candidates)):
            window = O.antecedent_window(k, config.max_antecedents)
            scores = []
            for j in window:
                rep_i = O.build_span_representation(
                    Tensor(m.encode_tokens(docs[0], enc)[0]),
                    out.candidates.spans[k], enc, config)
                rep_j = O.build_span_representation(
                    Tensor(m.encode_tokens(docs[0], enc)[0]),
                    out.candidates.spans[j], enc, config)
                scores.append(float(O.pair_score(rep_i, rep_j, scoring).value))
            dists.append(O.antecedent_distribution(np.array(scores)))
        expected = coref_loss(docs[0], out.candidates, dists,
                              config.max_antecedents)
        assert out.cl == pytest.approx(expected, abs=1e-9)

    def test_rl_graph_matches_reference_loss(self):
        docs, config, store, weights, objective = tiny_setup(
            beta=(0.0, 1.0, 0.0))
        enc, scoring, scaffold = store.groups
        rng = np.random.default_rng(7)
        out = L.document_objective(docs[0], enc, scoring, scaffold, weights,
                                   config, objective, rng)
        index = L.document_index(docs[0], config, True, None)
        spans, full = O.layout_spans(index.layout), table_reps(
            docs[0], index, enc, scoring, config)
        assert len(spans) == len(full)
        ps = out.pair_set
        internals = {docs[0].doc_id: dict(zip(
            spans, map(Tensor, full[:, enc.internal_columns])))}
        pairs = [(spans[a], spans[b]) for a, b in zip(
            ps.rows[ps.first].tolist(), ps.rows[ps.second].tolist())]
        expected = retrofit_loss([docs[0]], {docs[0].doc_id: pairs},
                                 internals, weights)
        assert out.rl == pytest.approx(float(expected.value), abs=1e-9)

    def test_sl_graph_matches_reference_loss(self):
        docs, config, store, weights, objective = tiny_setup(
            beta=(0.0, 0.0, 1.0))
        rng = np.random.default_rng(0)
        store.tensors["scaffold.weights"][...] = rng.normal(size=(2, 5))
        enc, scoring, scaffold = store.groups
        out = L.document_objective(docs[0], enc, scoring, scaffold, weights,
                                   config, objective)
        labels = docs[0].concept_annotations["i2b2"]
        index = L.document_index(docs[0], config, True,
                                 objective.scaffold_lexicon)
        spans, full = O.layout_spans(index.layout), table_reps(
            docs[0], index, enc, scoring, config)
        assert len(spans) == len(full)
        internals = {docs[0].doc_id: dict(zip(
            spans, map(Tensor, full[:, enc.internal_columns])))}
        labeled = {docs[0].doc_id: sorted(labels.items())}
        expected = scaffold_loss(labeled, internals, scaffold)
        assert out.sl == pytest.approx(float(expected.value), abs=1e-9)

    def test_empty_document_contributes_zero(self):
        from kcoref.corpus import Document
        docs, config, store, weights, objective = tiny_setup()
        enc, scoring, scaffold = store.groups
        out = L.document_objective(Document("empty", ()), enc, scoring,
                                   scaffold, weights, config, objective)
        assert out.total == 0.0
        assert len(out.candidates) == 0

    def test_components_nonnegative(self):
        docs, config, store, weights, objective = tiny_setup()
        store.tensors["scaffold.weights"][...] = \
            np.random.default_rng(1).normal(size=(2, 5))
        enc, scoring, scaffold = store.groups
        for doc in docs:
            out = L.document_objective(doc, enc, scoring, scaffold, weights,
                                       config, objective,
                                       np.random.default_rng(0))
            assert out.cl >= 0
            assert out.rl >= 0
            assert out.sl >= 0


def grad_check_loss(beta, seed=0, loss_seed=5, pair_budget=None):
    docs, config, store, weights, objective = tiny_setup(seed=seed, beta=beta)
    if pair_budget is not None:
        objective = dataclasses.replace(objective, pair_budget=pair_budget)
    rng0 = np.random.default_rng(1)
    store.tensors["scaffold.weights"][...] = rng0.normal(size=(2, 5)) * 0.3

    def build(enc, scoring, scaffold):
        return [document_objective(doc, enc, scoring, scaffold, weights,
                                   config, objective,
                                   np.random.default_rng([loss_seed, i]))
                for i, doc in enumerate(docs)]

    return store, build, config


class TestLossGradients:
    @pytest.mark.parametrize("beta", [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                                      (0.0, 0.0, 1.0), (1.0, 0.7, 0.4)])
    def test_each_component_passes_fd_check(self, beta):
        store, build, config = grad_check_loss(beta)
        report = tr.gradient_check(store, build, coords_per_tensor=12,
                                   seed=2)
        assert report.passed, report.summary()

    def test_rl_passes_fd_check_where_the_budget_binds(self):
        """Every document's pair set is a sample of its pool."""
        store, build, config = grad_check_loss((0.0, 1.0, 0.0),
                                               pair_budget=4)
        for out in build(*store.groups):
            n = len(out.pair_set.rows)
            assert n * (n - 1) // 2 > 4 and out.pair_set.count == 4
        report = tr.gradient_check(store, build, coords_per_tensor=12,
                                   seed=2)
        assert report.passed, report.summary()


# ---------------------------------------------------------------------------
# The indexed paths against the reference forms, on random documents

INDEX_CONFIG = m.ModelConfig(d_token=4, d_width=2, window_radius=1,
                             scorer_hidden=3, max_span_width=3,
                             prune_ratio=0.9, max_antecedents=2)


@st.composite
def random_documents(draw):
    """Up to 14 tokens; disjoint gold clusters over distinct spans of width
    <= 4 (some wider than INDEX_CONFIG enumerates); two labeled lexicons."""
    n = draw(st.integers(4, 14))
    spans = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, 3)).map(
            lambda sw: (sw[0], min(sw[0] + sw[1], n - 1))),
        min_size=2, max_size=10, unique=True))
    owners = draw(st.lists(st.integers(-1, 3), min_size=len(spans),
                           max_size=len(spans)))
    clusters = [[s for s, o in zip(spans, owners) if o == c] for c in range(4)]
    concepts = {}
    for lexicon_id in ("coarse", "fine"):
        labels = draw(st.lists(st.sampled_from([None, "a", "b", "c"]),
                               min_size=len(spans), max_size=len(spans)))
        concepts[lexicon_id] = {S(*s): lab for s, lab in zip(spans, labels)
                                if lab is not None}
    return make_doc([f"w{i % 5}" for i in range(n)],
                    [c for c in clusters if c], concepts)


def table_reps(doc, index, enc, scoring, config):
    """The representations of `index`'s span table, one row per table row,
    from `model.document_forward`."""
    return m.document_forward(doc, index.layout, index.enum_rows, enc,
                              scoring, config)[0]


def reference_distributions(doc, index, candidates, store, config):
    """Antecedent distributions of `candidates`, one window at a time, from
    the pair-score definition over the representations of `index`'s span
    table."""
    enc, scoring, _ = store.groups
    spans = O.layout_spans(index.layout)
    full = table_reps(doc, index, enc, scoring, config)
    assert len(spans) == len(full)
    mention = O.feed_forward_tape(scoring.mention, Tensor(full)).value
    row = {s: i for i, s in enumerate(spans)}
    rows = [row[s] for s in candidates.spans]
    dists = []
    for k in range(len(rows)):
        scores = []
        for j in O.antecedent_window(k, config.max_antecedents):
            s_a = O.feed_forward_tape(
                scoring.antecedent,
                O.pair_features(Tensor(full[rows[k]]), Tensor(full[rows[j]])))
            scores.append(float(s_a.value) + mention[rows[k]]
                          + mention[rows[j]])
        dists.append(O.antecedent_distribution(np.array(scores)))
    return dists


class TestIndexedPathsMatchReferences:
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(doc=random_documents(), seed=st.integers(0, 2**16))
    def test_cl_loss_and_misses(self, doc, seed):
        store = tr.init_parameters(INDEX_CONFIG, tr.build_vocab([doc]),
                                   seed=seed)
        enc, scoring, _ = store.groups
        out = document_objective(doc, enc, scoring, None,
                                 LossWeights(beta=(1.0, 0.0, 0.0)),
                                 INDEX_CONFIG, ObjectiveConfig())
        assert len(out.candidates) > INDEX_CONFIG.max_antecedents
        expected, misses = O.coref_loss_with_misses(
            doc, out.candidates,
            reference_distributions(
                doc, L.document_index(doc, INDEX_CONFIG, False, None),
                out.candidates, store, INDEX_CONFIG),
            INDEX_CONFIG.max_antecedents)
        assert out.cl == pytest.approx(expected, abs=1e-9)
        assert out.pruning_misses == misses

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(doc=random_documents(),
           alphas=st.lists(st.sampled_from([0.0, 0.2, 0.5, 1.3]),
                           min_size=3, max_size=3),
           alpha_c=st.sampled_from([0.0, 1.0, 0.7]),
           unlabeled=st.sampled_from(["strict", "skip"]))
    def test_rl_targets_bit_identical(self, doc, alphas, alpha_c, unlabeled):
        weights = LossWeights(alpha_c=alpha_c, alpha_k=dict(
            zip(("fine", "absent", "coarse"), alphas)))
        index = L.document_index(doc, INDEX_CONFIG, True, None)
        spans = O.layout_spans(index.layout)
        rows_i, rows_j = np.nonzero(np.less.outer(np.arange(len(spans)),
                                                  np.arange(len(spans))))
        got = L.pair_target_distances(index, rows_i, rows_j, weights,
                                      unlabeled)
        expected = [target_distance(spans[a], spans[b], doc, weights,
                                    unlabeled)
                    for a, b in zip(rows_i, rows_j)]
        assert got.tolist() == expected

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(doc=random_documents(), budget=st.integers(0, 40),
           picks=st.lists(st.integers(0, 2**16), max_size=8, unique=True),
           seed=st.integers(0, 2**16))
    def test_pair_sets_match_combinations(self, doc, budget, picks, seed):
        """The pool of table rows pairs as the sorted spans of the gold
        clusters and of randomly drawn enumerated rows do, thinned by the
        same draw when over budget."""
        index = L.document_index(doc, INDEX_CONFIG, True, None)
        rows = np.unique(index.enum_rows[np.array(picks, dtype=np.intp)
                                         % len(index.enum_rows)])
        got = build_pair_set(doc.doc_id, index, rows, budget,
                             np.random.default_rng(seed))
        spans = O.layout_spans(index.layout)
        extra_spans = [spans[r] for r in rows.tolist()]
        expected = pair_set_reference(doc, extra_spans, budget,
                                      np.random.default_rng(seed))
        assert got.count == len(expected)
        for side, column in ((got.first, 0), (got.second, 1)):
            assert got.rows[side].tolist() == table_rows(
                index, [pair[column] for pair in expected]).tolist()
        assert (np.diff(got.rows) > 0).all()


class TestScaffoldTargets:
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(doc=random_documents(), include=st.booleans(),
           none_class=st.booleans(),
           picks=st.lists(st.integers(0, 2**16), max_size=8, unique=True))
    def test_cached_targets_equal_the_per_step_reference(
            self, doc, include, none_class, picks):
        """Without unlabeled spans the targets are built once per index and
        class list; with them every call adds its own candidates."""
        classes = ("a", "b") + (("<none>",) if none_class else ())
        scaffold = ScaffoldParams(classes, np.zeros((len(classes), 2)))
        objective = ObjectiveConfig(scaffold_lexicon="coarse",
                                    scaffold_include_unlabeled=include)
        index = L.document_index(doc, INDEX_CONFIG, True, "coarse")
        rows = np.unique(index.enum_rows[np.array(picks, dtype=np.intp)
                                         % len(index.enum_rows)])
        spans = O.layout_spans(index.layout)
        row = {span: i for i, span in enumerate(spans)}

        def reference(candidate_rows, scaffold=scaffold):
            return [list(t) for t in O.scaffold_targets_reference(
                doc, row, scaffold, objective,
                [spans[r] for r in candidate_rows.tolist()])]

        got = L.scaffold_targets(index, scaffold, objective, rows)
        assert got.tolist() == reference(rows)
        none = rows[:0]
        again = L.scaffold_targets(index, scaffold, objective, none)
        assert again.tolist() == reference(none)
        # Another class list on the same index gets its own targets.
        other = ScaffoldParams(("c", "a"), np.zeros((2, 2)))
        assert L.scaffold_targets(index, other, objective, rows).tolist() \
            == reference(rows, other)
        if not include:
            assert again is got and not got.flags.writeable
        elif none_class:
            unlabeled = rows[index.concept_ids("coarse")[rows] < 0]
            assert set(unlabeled.tolist()) <= set(got[:, 0].tolist())


class TestDocumentIndexLifetime:
    def doc(self):
        return make_doc([f"w{i}" for i in range(6)],
                        [[(0, 0), (2, 3)], [(1, 1), (5, 5)]],
                        {"coarse": {S(0, 0): "a", S(1, 1): "a",
                                    S(5, 5): "b"}})

    def test_index_is_reused_then_freed_with_its_document(self):
        doc = self.doc()
        index = L.document_index(doc, INDEX_CONFIG, True, "coarse")
        assert L.document_index(doc, INDEX_CONFIG, True, "coarse") is index
        twin = dataclasses.replace(INDEX_CONFIG)
        assert twin is not INDEX_CONFIG
        assert L.document_index(doc, twin, True, "coarse") is index
        assert L.document_index(doc, twin, False, "coarse") is not index
        doc_ref, index_ref = weakref.ref(doc), weakref.ref(index)
        del doc, index
        gc.collect()
        assert doc_ref() is None and index_ref() is None

    def concept_gap(self, doc, a, b):
        index = L.document_index(doc, INDEX_CONFIG, True, None)
        rows = table_rows(index, [a, b])
        weights = LossWeights(alpha_c=0.0, alpha_k={"coarse": 1.0})
        return float(L.pair_target_distances(index, rows[:1], rows[1:],
                                             weights)[0])

    def test_with_annotations_gets_fresh_concept_ids(self):
        doc = self.doc()
        assert self.concept_gap(doc, S(0, 0), S(1, 1)) == 0.0
        relabeled = doc.with_annotations("coarse", {S(0, 0): "a",
                                                    S(1, 1): "b"})
        assert self.concept_gap(relabeled, S(0, 0), S(1, 1)) == 1.0
        assert self.concept_gap(doc, S(0, 0), S(1, 1)) == 0.0

    def test_truncated_document_gets_its_own_index(self):
        doc = self.doc()
        full = L.document_index(doc, INDEX_CONFIG, True, None)
        cut = truncate_document(doc, 4)
        index = L.document_index(cut, INDEX_CONFIG, True, None)
        assert index is not full
        assert int(index.layout.ends.max()) == 3
        assert index.concepts["coarse"].max() == 0   # only "a" is left
        assert self.concept_gap(cut, S(0, 0), S(1, 1)) == 0.0


def glued_document(n_documents: int):
    """The first `n_documents` of the benchmark's confound corpus (seed 9)
    as one document, their gold clusters shifted to its token positions."""
    corpus = generate_synthetic_corpus(SyntheticSpec(
        n_documents=n_documents, seed=9, chains_per_doc=(3, 4),
        chain_length=(2, 4), suffixes=("ia",), entities_per_concept=6))
    tokens, clusters = [], []
    for doc in corpus.documents:
        clusters += [[(s.start + len(tokens), s.end + len(tokens)) for s in c]
                     for c in doc.gold_clusters]
        tokens += doc.tokens
    return make_doc(tokens, clusters, doc_id="glued")


class TestLongDocuments:
    def test_cl_holds_no_copy_of_the_pair_blocks(self):
        """On a glued 1,105-token document, a CL doc-step peaks at about
        4.7 pair blocks: (P, D) float64 arrays of its P pairs over D-wide
        span rows. Holding both partner rows of every pair from the forward
        to the backward took it to 8.5, and the backward's (2P, D) partner
        block, summed by one sparse product, to 6.4."""
        doc = glued_document(20)
        config = m.ModelConfig(d_token=24, d_width=4, window_radius=1,
                               scorer_hidden=16, max_span_width=3,
                               prune_ratio=0.3, max_antecedents=30)
        store = tr.init_parameters(config, tr.build_vocab([doc]))
        weights, objective = LossWeights(beta=(1.0, 0.0, 0.0)), \
            ObjectiveConfig()

        def build(enc, scoring, scaffold):
            return [document_objective(doc, enc, scoring, scaffold, weights,
                                       config, objective)]

        tr.compute_gradients(store, build)  # builds the kept buffers
        tracemalloc.start()
        try:
            _, (out,) = tr.compute_gradients(store, build)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        pairs = m.antecedent_pairs(len(out.candidates),
                                   config.max_antecedents)
        block = len(pairs.mention) * config.span_dim * 8
        assert len(doc) == 1105 and len(pairs.mention) > 9000
        assert peak < 6.0 * block, f"{peak / block:.2f} pair blocks"
