import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles as O
from kcoref import losses as L
from kcoref import training as tr
from kcoref.model import ModelConfig
from kcoref.training import (AdamState, Gradients, LearningRates,
                             ParameterStore, Phase, TrainingDiverged,
                             TrainingError, TrainingSchedule, build_vocab,
                             compute_gradients, effective_weights,
                             gradient_check, init_parameters, optimizer_step,
                             run_schedule, write_loss_log)

from test_corpus import make_doc
from test_losses import (INDEX_CONFIG, random_documents, tiny_corpus,
                         tiny_setup)

TENSOR_NAMES = ("encoder.e", "encoder.mixer_w", "scorer.mention.b2",
                "scorer.antecedent.w1", "scaffold.weights", "extra")
CONFIG = ModelConfig(d_token=5, d_width=3, window_radius=1, scorer_hidden=4,
                     max_span_width=2, prune_ratio=0.5, max_antecedents=10)
VOCAB = ("<unk>", "a", "b", "c")


class TestInit:
    def test_same_seed_bitwise_identical(self):
        s1 = init_parameters(CONFIG, VOCAB, ("x", "y"), seed=11)
        s2 = init_parameters(CONFIG, VOCAB, ("x", "y"), seed=11)
        assert set(s1.tensors) == set(s2.tensors)
        for name in s1.tensors:
            assert np.array_equal(s1.tensors[name], s2.tensors[name])

    def test_different_seeds_differ(self):
        s1 = init_parameters(CONFIG, VOCAB, seed=1)
        s2 = init_parameters(CONFIG, VOCAB, seed=2)
        assert not np.array_equal(s1.tensors["encoder.embeddings"],
                                  s2.tensors["encoder.embeddings"])

    def test_biases_zero_and_bounds_scale_with_fan_in(self):
        store = init_parameters(CONFIG, VOCAB, seed=0)
        assert not store.tensors["encoder.mixer_b"].any()
        assert not store.tensors["scorer.mention.b1"].any()
        mixer = store.tensors["encoder.mixer_w"]
        assert np.abs(mixer).max() <= 1.0 / math.sqrt(mixer.shape[0])

    def test_scaffold_initialized_to_zero(self):
        store = init_parameters(CONFIG, VOCAB, ("x", "y"), seed=3)
        assert not store.tensors["scaffold.weights"].any()

    def test_zero_init_gives_equal_mention_scores(self):
        docs = tiny_corpus()
        vocab = build_vocab(docs)
        store = init_parameters(CONFIG, vocab, zero_init=True)
        from kcoref import model as m
        from kcoref.corpus import enumerate_candidate_spans
        enc, scoring, _ = store.groups
        vecs, _ = m.encode_tokens(docs[0], enc)
        layout = m.span_layout(*enumerate_candidate_spans(
            docs[0], CONFIG.max_span_width), CONFIG)
        reps, _ = m.build_span_representations(vecs, layout, enc)
        scores, _ = m.mention_scores(reps, scoring)
        assert np.ptp(scores) == 0.0

    def test_vocab_must_start_with_unk(self):
        with pytest.raises(TrainingError):
            ParameterStore({}, ("a", "b"))

    def test_duplicate_vocab_tokens_or_classes_rejected(self):
        with pytest.raises(TrainingError,
                           match=r"duplicate vocab tokens: \['a'\]"):
            ParameterStore({}, ("<unk>", "a", "b", "a"))
        with pytest.raises(TrainingError,
                           match=r"duplicate scaffold classes: \['x'\]"):
            ParameterStore({}, ("<unk>",), ("x", "y", "x"))


class TestComputeGradients:
    def test_unused_tensor_gets_zero_gradient(self):
        docs, config, store, weights, objective = tiny_setup(
            beta=(1.0, 0.0, 0.0))  # scaffold never touched

        def build(enc, scoring, scaffold):
            return [L.document_objective(docs[0], enc, scoring, scaffold,
                                         weights, config, objective)]

        grads, _ = compute_gradients(store, build)
        assert not grads["scaffold.weights"].any()

    def test_linear_loss_gradient_equals_features(self):
        store = init_parameters(CONFIG, VOCAB, seed=0)
        features = {name: np.random.default_rng(1).normal(size=arr.shape)
                    for name, arr in store.tensors.items()}

        @O.on_tape
        def build(enc, scoring, scaffold):
            total = None
            leaves = {**enc.__dict__}
            for name, leaf in _leaves(enc, scoring).items():
                term = (leaf * O.Tensor(features[name])).sum()
                total = term if total is None else total + term
            return total

        def _leaves(enc, scoring):
            out = {"encoder.embeddings": enc.embeddings,
                   "encoder.mixer_w": enc.mixer_w,
                   "encoder.mixer_b": enc.mixer_b,
                   "encoder.attention_w": enc.attention_w,
                   "encoder.width_embeddings": enc.width_embeddings,
                   "scorer.mention.w1": scoring.mention.w1,
                   "scorer.antecedent.w1": scoring.antecedent.w1}
            return out

        grads, _ = compute_gradients(store, build)
        for name in ("encoder.embeddings", "scorer.mention.w1"):
            np.testing.assert_allclose(grads[name], features[name])
        # one flat vector in the store's buffer order, named by views
        assert list(grads) == sorted(store.tensors)
        assert np.array_equal(grads.flat, np.concatenate(
            [grads[name] for name in grads], axis=None))
        assert all(np.shares_memory(grads[name], grads.flat)
                   for name in grads if grads[name].size)

    def test_nan_component_reported_by_name(self):
        store = init_parameters(CONFIG, VOCAB, seed=0)
        store.tensors["encoder.embeddings"][:] = np.nan
        doc = make_doc(["a", "b", "a", "b"], [[(0, 0), (2, 2)]])

        def build(enc, scoring, scaffold):
            return [L.document_objective(doc, enc, scoring, scaffold,
                                         L.LossWeights(), CONFIG,
                                         L.ObjectiveConfig())]

        with pytest.raises(L.LossError, match="coreference"):
            compute_gradients(store, build)

    def test_non_finite_gradient_names_its_tensor(self):
        store = init_parameters(CONFIG, VOCAB, seed=0)

        @O.on_tape
        def build(enc, scoring, scaffold):
            # mixer_b starts at 0, where the square root's slope is infinite
            return (enc.mixer_b ** 0.5).sum() \
                + (scoring.mention.w1 * scoring.mention.w1).sum()

        with np.errstate(divide="ignore"), \
                pytest.raises(TrainingError, match="non-finite gradient in "
                                                   "tensor encoder.mixer_b"):
            compute_gradients(store, build)

    def test_non_finite_loss_rejected(self):
        store = init_parameters(CONFIG, VOCAB, seed=0)

        @O.on_tape
        def build(enc, scoring, scaffold):
            return O.Tensor(float("inf"))

        with pytest.raises(TrainingError, match="not finite"):
            compute_gradients(store, build)


# The objectives the doc-step is pinned on: beta, then ObjectiveConfig fields.
OBJECTIVES = {
    "CL": ((1.0, 0.0, 0.0), {}),
    "CL+RL strict": ((1.0, 0.8, 0.0), {"unlabeled_knowledge": "strict"}),
    "CL+RL skip": ((1.0, 0.8, 0.0), {"unlabeled_knowledge": "skip"}),
    "full": ((1.0, 0.7, 0.4), {"scaffold_lexicon": "coarse"}),
    "full, unlabeled spans": ((1.0, 0.7, 0.4),
                              {"scaffold_lexicon": "coarse",
                               "scaffold_include_unlabeled": True}),
}


class TestDocStepMatchesTheReferenceTape:
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(doc=random_documents(), seed=st.integers(0, 2**16),
           case=st.sampled_from(sorted(OBJECTIVES)))
    def test_flat_gradient_matches_per_tensor_tape_gradients(self, doc, seed,
                                                             case):
        beta, fields = OBJECTIVES[case]
        weights = L.LossWeights(alpha_c=1.0,
                                alpha_k={"coarse": 0.5, "fine": 0.2},
                                beta=beta)
        objective = L.ObjectiveConfig(pair_budget=20, pair_seed=seed,
                                      **fields)
        classes = ("a", "b", "c")
        if objective.scaffold_include_unlabeled:
            classes += ("<none>",)
        store = init_parameters(INDEX_CONFIG, build_vocab([doc]), classes,
                                seed=seed)
        store.tensors["scaffold.weights"][...] = np.random.default_rng(
            seed).normal(size=(len(classes), INDEX_CONFIG.d_token))
        outs = []

        def build(enc, scoring, scaffold):
            outs.append(L.document_objective(
                doc, enc, scoring, scaffold, weights, INDEX_CONFIG, objective,
                np.random.default_rng(seed)))
            return outs

        grads, value = compute_gradients(store, build)
        total, leaves = O.document_objective_tape(
            doc, store, weights, INDEX_CONFIG, objective,
            np.random.default_rng(seed))
        total.backward()
        assert len(outs[0].candidates) > INDEX_CONFIG.max_antecedents
        assert value == pytest.approx(float(total.value), rel=1e-9)
        for name, got in grads.items():
            want = leaves[name].grad
            if want is None:
                want = np.zeros_like(got)
            scale = max(np.abs(got).max(initial=0.0),
                        np.abs(want).max(initial=0.0))
            assert np.abs(got - want).max(initial=0.0) <= 1e-9 * scale, name


class TestOptimizerStep:
    def test_zero_gradients_leave_parameters_unchanged(self):
        store = init_parameters(CONFIG, VOCAB, seed=4)
        before = {k: v.copy() for k, v in store.tensors.items()}
        grads = {k: np.zeros_like(v) for k, v in store.tensors.items()}
        optimizer_step(store, grads, LearningRates(0.1, 0.1), AdamState())
        for name in before:
            np.testing.assert_array_equal(store.tensors[name], before[name])

    def test_single_step_moves_by_learning_rate(self):
        # bias-corrected first step: m_hat = g, v_hat = g^2, so the update is
        # r * g / (|g| + eps) = r to within eps
        store = ParameterStore({"scorer.x": np.array([1.0])}, ("<unk>",))
        state = AdamState()
        optimizer_step(store, {"scorer.x": np.array([1.0])},
                       LearningRates(0.05, 0.05), state)
        assert store.tensors["scorer.x"][0] == pytest.approx(1.0 - 0.05,
                                                             rel=1e-6)

    def test_rate_routing_by_tensor_name(self):
        store = ParameterStore({"encoder.e": np.array([0.0]),
                                "scorer.s": np.array([0.0]),
                                "scaffold.weights": np.array([0.0])},
                               ("<unk>",))
        grads = {k: np.array([1.0]) for k in store.tensors}
        optimizer_step(store, grads, LearningRates(base=0.01, task=0.1),
                       AdamState())
        assert store.tensors["encoder.e"][0] == pytest.approx(-0.01, rel=1e-5)
        assert store.tensors["scorer.s"][0] == pytest.approx(-0.1, rel=1e-5)
        assert store.tensors["scaffold.weights"][0] == pytest.approx(-0.1,
                                                                     rel=1e-5)

    def test_shape_mismatch_rejected(self):
        store = ParameterStore({"scorer.x": np.zeros(2)}, ("<unk>",))
        with pytest.raises(TrainingError, match="shape"):
            optimizer_step(store, {"scorer.x": np.zeros(3)},
                           LearningRates(0.1, 0.1), AdamState())

    def test_missing_and_extra_gradient_names_rejected(self):
        store = init_parameters(CONFIG, VOCAB, seed=4)
        before = store.copy()
        grads = {k: np.ones_like(v) for k, v in store.tensors.items()}
        del grads["scorer.mention.b2"]
        state = AdamState()
        with pytest.raises(TrainingError, match="missing "
                                                "\\['scorer.mention.b2'\\]"):
            optimizer_step(store, grads, LearningRates(0.1, 0.1), state)
        grads["scorer.mention.b2"] = np.ones(())
        grads["scorer.extra"] = np.ones(2)
        with pytest.raises(TrainingError,
                           match="unexpected \\['scorer.extra'\\]"):
            optimizer_step(store, grads, LearningRates(0.1, 0.1), state)
        assert state.t == 0 and store.step == 0
        for name in store.tensors:
            assert np.array_equal(store.tensors[name], before.tensors[name])

    def test_tensors_are_read_only_copies_of_the_callers_arrays(self):
        given = {"scorer.x": np.ones(2), "encoder.e": np.zeros((1, 3))}
        arrays = dict(given)
        store = ParameterStore(arrays, ("<unk>",))
        with pytest.raises(TypeError):
            store.tensors["scorer.x"] = np.zeros(2)
        with pytest.raises(TypeError):
            del store.tensors["scorer.x"]
        assert sorted(store.tensors) == ["encoder.e", "scorer.x"]
        assert arrays.keys() == given.keys()
        assert all(arrays[name] is given[name] for name in given)
        for name, view in store.tensors.items():
            assert np.shares_memory(view, store.buffer())
            assert not np.shares_memory(view, given[name])

    def test_a_new_tensor_set_needs_a_new_store_and_fresh_moments(self):
        store = init_parameters(CONFIG, VOCAB, seed=3)
        grads = {k: np.ones_like(v) for k, v in store.tensors.items()}
        state = AdamState()
        optimizer_step(store, grads, LearningRates(0.1, 0.1), state)
        with pytest.raises(TypeError):
            store.tensors["scorer.extra"] = np.zeros(2)
        grown = ParameterStore({**store.tensors, "scorer.extra": np.zeros(2)},
                               store.vocab)
        grads["scorer.extra"] = np.ones(2)
        with pytest.raises(TrainingError, match="changed after the first"):
            optimizer_step(grown, grads, LearningRates(0.1, 0.1), state)
        optimizer_step(grown, grads, LearningRates(0.1, 0.1), AdamState())
        np.testing.assert_allclose(grown.tensors["scorer.extra"], -0.1,
                                   rtol=1e-6)

    def test_copy_is_independent(self):
        store = init_parameters(CONFIG, VOCAB, ("x", "y"), seed=5)
        store.step = 3
        clone = store.copy()
        assert (clone.vocab, clone.scaffold_classes, clone.step,
                clone.seed) == (store.vocab, store.scaffold_classes, 3, 5)
        assert not np.shares_memory(clone.buffer(), store.buffer())
        original = store.tensors["encoder.embeddings"].copy()
        clone.tensors["encoder.embeddings"][0, 0] += 1.0
        assert np.array_equal(store.tensors["encoder.embeddings"], original)
        grads = {k: np.ones_like(v) for k, v in store.tensors.items()}
        optimizer_step(store, grads, LearningRates(0.1, 0.1), AdamState())
        assert clone.step == 3
        assert clone.tensors["encoder.embeddings"][0, 0] == original[0, 0] + 1

    @settings(derandomize=True, deadline=None, max_examples=80)
    @given(case=st.data())
    def test_flat_update_matches_the_per_tensor_reference(self, case):
        draw = case.draw
        names = draw(st.lists(st.sampled_from(TENSOR_NAMES), min_size=1,
                              max_size=len(TENSOR_NAMES), unique=True))
        shapes = [tuple(draw(st.lists(st.integers(0, 3), max_size=3)))
                  for _ in names]
        rates = LearningRates(draw(st.sampled_from([0.0, 1e-3, 0.3])),
                              draw(st.sampled_from([1e-3, 0.05, 2.0])))
        rng = np.random.default_rng(draw(st.integers(0, 2**16)))
        store = ParameterStore({n: rng.normal(size=s)
                                for n, s in zip(names, shapes)}, ("<unk>",))
        reference = {n: v.copy() for n, v in store.tensors.items()}
        state, moments = AdamState(), O.AdamMoments()
        for accumulated in draw(st.lists(st.integers(1, 3), min_size=1,
                                         max_size=4)):
            parts = [{n: rng.normal(size=s) * rng.choice([0.0, 1e-4, 3.0])
                      for n, s in zip(names, shapes)}
                     for _ in range(accumulated)]
            pending = store.gather(parts[0])
            for grads in parts[1:]:
                pending = Gradients(pending.flat + store.gather(grads).flat,
                                    pending.layout)
            optimizer_step(store, pending, rates, state)
            summed = parts[0]
            for grads in parts[1:]:
                summed = {n: summed[n] + grads[n] for n in names}
            O.optimizer_step_reference(reference, summed, rates, moments)
            for name in names:
                assert store.tensors[name].shape == reference[name].shape
                assert np.array_equal(store.tensors[name], reference[name])
        assert state.t == moments.t

    def test_step_counter_advances(self):
        store = ParameterStore({"scorer.x": np.zeros(1)}, ("<unk>",))
        optimizer_step(store, {"scorer.x": np.zeros(1)},
                       LearningRates(0.1, 0.1), AdamState())
        assert store.step == 1


class TestSchedule:
    def test_single_phase_single_epoch(self):
        docs, config, store, weights, objective = tiny_setup()
        before = store.tensors["encoder.embeddings"].copy()
        sched = TrainingSchedule([Phase("train", 1, weights, 1e-2, 1e-2)])
        store, records = run_schedule(sched, {"train": docs}, config,
                                      objective, store)
        assert len(records) == 1
        assert not np.array_equal(store.tensors["encoder.embeddings"], before)

    def test_two_phase_shape_yields_40_records(self):
        docs, config, store, weights, objective = tiny_setup()
        sched = TrainingSchedule([
            Phase("src", 20, weights, 1e-3, 1e-3, role="source"),
            Phase("tgt", 20, weights, 1e-3, 1e-3, role="target")])
        store, records = run_schedule(sched, {"src": docs, "tgt": docs},
                                      config, objective, store)
        assert len(records) == 40
        assert [r.phase for r in records] == [1] * 20 + [2] * 20

    def test_source_phase_excludes_sl(self):
        docs, config, store, weights, objective = tiny_setup(
            beta=(1.0, 0.5, 0.5))
        sched = TrainingSchedule([
            Phase("c", 2, weights, 1e-3, 1e-3, role="source"),
            Phase("c", 2, weights, 1e-3, 1e-3, role="target")])
        store, records = run_schedule(sched, {"c": docs}, config, objective,
                                      store)
        assert all(r.sl == 0.0 for r in records if r.phase == 1)
        assert any(r.sl > 0.0 for r in records if r.phase == 2)

    def test_source_phase_weights_drop_knowledge_terms(self):
        w = L.LossWeights(alpha_c=1.0, alpha_k={"i2b2": 0.5},
                          beta=(1.0, 0.5, 0.5))
        phase = Phase("c", 1, w, role="source")
        eff = effective_weights(phase, L.ObjectiveConfig(source_phase_rl=True))
        assert eff.alpha_k == {"i2b2": 0.0}
        assert eff.beta == (1.0, 0.5, 0.0)
        eff2 = effective_weights(phase,
                                 L.ObjectiveConfig(source_phase_rl=False))
        assert eff2.beta == (1.0, 0.0, 0.0)

    def test_target_phase_weights_unchanged(self):
        w = L.LossWeights(alpha_c=1.0, alpha_k={"i2b2": 0.5},
                          beta=(1.0, 0.5, 0.5))
        assert effective_weights(Phase("c", 1, w), L.ObjectiveConfig()) is w

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_divergence_aborts_with_last_good(self, tmp_path):
        # a step size near the float ceiling overflows the forward pass
        docs, config, store, weights, objective = tiny_setup()
        sched = TrainingSchedule([Phase("c", 3, weights, 1e200, 1e200)])
        with pytest.raises(TrainingDiverged) as err:
            run_schedule(sched, {"c": docs}, config, objective, store,
                         checkpoint_dir=tmp_path)
        assert err.value.last_good is not None
        assert (tmp_path / "last_good.ckpt").exists()
        restored = ParameterStore.load(tmp_path / "last_good.ckpt")
        assert np.isfinite(restored.tensors["encoder.embeddings"]).all()

    def test_bitwise_reproducible(self):
        results = []
        for _ in range(2):
            docs, config, store, weights, objective = tiny_setup(seed=5)
            sched = TrainingSchedule([Phase("c", 3, weights, 1e-2, 1e-2)])
            store, records = run_schedule(sched, {"c": docs}, config,
                                          objective, store)
            results.append((store, records))
        for name in results[0][0].tensors:
            assert np.array_equal(results[0][0].tensors[name],
                                  results[1][0].tensors[name])
        assert results[0][1] == results[1][1]

    def test_gradient_accumulation_changes_step_count(self):
        docs, config, store, weights, objective = tiny_setup()
        objective.grad_accumulation = 2
        sched = TrainingSchedule([Phase("c", 1, weights, 1e-3, 1e-3)])
        store, _ = run_schedule(sched, {"c": docs}, config, objective, store)
        assert store.step == 1  # two docs, one accumulated step

    def test_accumulated_steps_match_the_per_tensor_reference(self):
        docs, config, store, weights, objective = tiny_setup(seed=2)
        docs = [docs[0], docs[1], docs[0]]
        objective.grad_accumulation = 2
        rates = LearningRates(1e-2, 3e-2)
        sched = TrainingSchedule([Phase("c", 2, weights, rates.base,
                                        rates.task)])
        trained, _ = run_schedule(sched, {"c": docs}, config, objective,
                                  store.copy())
        assert trained.step == 4

        reference = {n: v.copy() for n, v in store.tensors.items()}
        moments = O.AdamMoments()
        for epoch in (1, 2):
            pending = None
            for doc_no, doc in enumerate(docs):
                rng = np.random.default_rng([objective.pair_seed, 1, epoch,
                                             doc_no])

                def build(enc, scoring, scaffold, doc=doc, rng=rng):
                    return [L.document_objective(doc, enc, scoring, scaffold,
                                                 weights, config, objective,
                                                 rng)]

                grads, _ = compute_gradients(
                    ParameterStore(reference, store.vocab,
                                   store.scaffold_classes), build)
                pending = grads if pending is None else \
                    {n: pending[n] + grads[n] for n in grads}
                if doc_no % 2 == 1 or doc_no == len(docs) - 1:
                    O.optimizer_step_reference(reference, pending, rates,
                                               moments)
                    pending = None
        for name in reference:
            assert np.array_equal(trained.tensors[name], reference[name])

    def test_pair_rng_is_built_only_when_rl_draws_pairs(self, monkeypatch):
        """The doc-step's seed list reaches `default_rng` exactly when its
        pair set is over budget and thinned."""
        seeds, offered = [], []
        default_rng = np.random.default_rng
        build_pair_set = L.build_pair_set

        def counting(seed=None):
            seeds.append(seed)
            return default_rng(seed)

        def recording(doc, extra_spans, budget, rng):
            out = build_pair_set(doc, extra_spans, budget, rng)
            n = len(out.spans)
            offered.append((rng, n * (n - 1) // 2))
            return out

        docs, config, store, no_rl, objective = tiny_setup(
            beta=(1.0, 0.0, 0.5))
        weights = L.LossWeights(no_rl.alpha_c, no_rl.alpha_k, (1.0, 0.5, 0.5))
        monkeypatch.setattr(np.random, "default_rng", counting)
        monkeypatch.setattr(L, "build_pair_set", recording)
        run_schedule(TrainingSchedule([Phase("c", 2, no_rl)]),
                     {"c": docs}, config, objective, store.copy())
        assert seeds == [] and offered == []
        # a source phase drops RL when source_phase_rl is off
        objective.source_phase_rl = False
        run_schedule(TrainingSchedule([Phase("c", 2, weights,
                                             role="source")]),
                     {"c": docs}, config, objective, store.copy())
        assert seeds == [] and offered == []

        objective.pair_budget = 10 ** 6
        run_schedule(TrainingSchedule([Phase("c", 1, weights)]),
                     {"c": docs}, config, objective, store.copy())
        assert seeds == []
        assert [rng for rng, _ in offered] == [
            [objective.pair_seed, 1, 1, d] for d in range(len(docs))]
        # a budget between the sets' sizes thins some of them, not all
        sizes = sorted(n for _, n in offered)
        objective.pair_budget = sizes[0]
        assert sizes[0] < sizes[-1]
        offered.clear()
        run_schedule(TrainingSchedule([Phase("c", 2, weights)]),
                     {"c": docs}, config, objective, store.copy())
        thinned = [rng for rng, n in offered if n > objective.pair_budget]
        assert 0 < len(thinned) < len(offered)
        assert seeds == thinned

    def test_an_epoch_groups_the_store_once_and_each_gradient_once(
            self, monkeypatch):
        calls = []
        group_parameters = tr.group_parameters

        def counting(arrays, store):
            calls.append("gradient" if isinstance(arrays, Gradients)
                         else "store" if arrays is store.tensors else "other")
            return group_parameters(arrays, store)

        monkeypatch.setattr(tr, "group_parameters", counting)
        docs, config, store, weights, objective = tiny_setup()
        assert len(docs) > 1
        run_schedule(TrainingSchedule([Phase("c", 1, weights)]), {"c": docs},
                     config, objective, store)
        assert calls.count("store") <= 1 and "other" not in calls
        assert calls.count("gradient") == len(docs)

    def test_unknown_corpus_rejected(self):
        docs, config, store, weights, objective = tiny_setup()
        sched = TrainingSchedule([Phase("nope", 1, weights)])
        with pytest.raises(TrainingError, match="unknown corpus"):
            run_schedule(sched, {"c": docs}, config, objective, store)

    def test_loss_log_format(self, tmp_path):
        records = [tr.EpochRecord(1, 1, 1.5, 0.25, 0.0, 1.75, 2)]
        path = tmp_path / "log.tsv"
        write_loss_log(records, path)
        lines = path.read_text().splitlines()
        assert lines[0].split("\t") == ["phase", "epoch", "cl", "rl", "sl",
                                        "total", "pruning_misses"]
        assert lines[1].split("\t") == ["1", "1", "1.5", "0.25", "0.0",
                                        "1.75", "2"]


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(9)
        store = init_parameters(CONFIG, VOCAB, ("x", "y"), seed=13)
        store.tensors["encoder.embeddings"][0, 0] = -0.0
        store.tensors["encoder.embeddings"][0, 1] = 1e-300
        store.step = 17
        path = tmp_path / "model.ckpt"
        store.save(path)
        loaded = ParameterStore.load(path)
        assert loaded.vocab == store.vocab
        assert loaded.scaffold_classes == store.scaffold_classes
        assert loaded.step == 17 and loaded.seed == 13
        for name in store.tensors:
            a, b = store.tensors[name], loaded.tensors[name]
            assert a.shape == b.shape
            assert np.array_equal(a, b)
            assert np.signbit(a).tolist() == np.signbit(b).tolist()

    def test_save_is_deterministic(self, tmp_path):
        store = init_parameters(CONFIG, VOCAB, seed=2)
        store.save(tmp_path / "a.ckpt")
        store.save(tmp_path / "b.ckpt")
        assert (tmp_path / "a.ckpt").read_bytes() == \
            (tmp_path / "b.ckpt").read_bytes()

    def test_rejects_non_checkpoint(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_text("hello\n")
        with pytest.raises(TrainingError, match="not a checkpoint"):
            ParameterStore.load(path)

    def saved_lines(self, tmp_path):
        store = init_parameters(CONFIG, VOCAB, ("x", "y"), seed=3)
        store.save(tmp_path / "full.ckpt")
        return (tmp_path / "full.ckpt").read_text().splitlines()

    def test_rejects_file_cut_before_last_tensor(self, tmp_path):
        lines = self.saved_lines(tmp_path)
        assert lines[-1] == "end" and lines[-3].startswith("tensor ")
        path = tmp_path / "cut.ckpt"
        path.write_text("\n".join(lines[:-3]) + "\n")
        with pytest.raises(TrainingError, match="truncated"):
            ParameterStore.load(path)

    def test_rejects_short_value_row(self, tmp_path):
        lines = self.saved_lines(tmp_path)
        row = next(i for i, line in enumerate(lines)
                   if line.startswith("tensor encoder.mixer_b")) + 1
        lines[row] = " ".join(lines[row].split()[:-1])
        path = tmp_path / "short.ckpt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TrainingError, match="encoder.mixer_b"):
            ParameterStore.load(path)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_rejects_non_finite_value(self, tmp_path, value):
        store = init_parameters(CONFIG, VOCAB, ("x", "y"), seed=3)
        store.tensors["scorer.mention.w1"][0, 0] = value
        path = tmp_path / "non_finite.ckpt"
        store.save(path)
        with pytest.raises(TrainingError, match="tensor scorer.mention.w1 "
                                                "has a non-finite value"):
            ParameterStore.load(path)

    def test_rejects_non_numeric_version(self, tmp_path):
        lines = self.saved_lines(tmp_path)
        lines[0] = "kcoref-checkpoint vX"
        path = tmp_path / "version.ckpt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TrainingError, match="unsupported checkpoint "
                                                "version 'X'"):
            ParameterStore.load(path)

    @pytest.mark.parametrize("edit, problem", [
        pytest.param(lambda lines: ["kcoref-checkpointXYZ v1", *lines[1:]],
                     "not a checkpoint file", id="magic-with-suffix"),
        pytest.param(lambda lines: [lines[0], lines[2], lines[1], *lines[3:]],
                     "line 2 is 'step 0', not 'seed <n>'",
                     id="seed-and-step-swapped"),
        pytest.param(lambda lines: [lines[0], "banana 3", *lines[2:]],
                     "line 2 is 'banana 3', not 'seed <n>'",
                     id="header-mislabelled"),
        pytest.param(lambda lines: replaced(lines, "vocab 4", "vocab: 4"),
                     "line 4 is 'vocab: 4', not 'vocab <n>'",
                     id="header-label-with-colon"),
        pytest.param(lambda lines: replaced(lines, "classes 2", "classes 2 x"),
                     "'classes 2 x', not 'classes <n>'",
                     id="header-extra-token"),
        pytest.param(lambda lines: replaced(lines, "tensor encoder.mixer_b 1 5",
                                            "tensor encoder.mixer_b 2 5"),
                     "tensor encoder.mixer_b lists 1 dims for ndim 2",
                     id="tensor-dim-missing"),
        pytest.param(lambda lines: replaced(lines, "tensor encoder.mixer_b 1 5",
                                            "tensor encoder.mixer_b 1 5 1"),
                     "tensor encoder.mixer_b lists 2 dims for ndim 1",
                     id="tensor-dim-extra"),
        pytest.param(lambda lines: [*lines, "end"],
                     "text after the 'end' line", id="line-after-end"),
        pytest.param(lambda lines: replaced(lines, "b", "a"),
                     r"duplicate vocab tokens: \['a'\]",
                     id="duplicate-vocab-token"),
        pytest.param(lambda lines: replaced(lines, "y", "x"),
                     r"duplicate scaffold classes: \['x'\]",
                     id="duplicate-scaffold-class"),
    ])
    def test_rejects_a_malformed_file(self, tmp_path, edit, problem):
        lines = self.saved_lines(tmp_path)
        edited = edit(lines)
        assert edited != lines
        path = tmp_path / "malformed.ckpt"
        path.write_text("\n".join(edited) + "\n")
        with pytest.raises(TrainingError, match=problem):
            ParameterStore.load(path)

    def test_rejects_a_tensor_listed_twice(self, tmp_path):
        lines = self.saved_lines(tmp_path)
        row = next(i for i, line in enumerate(lines)
                   if line.startswith("tensor encoder.mixer_b"))
        lines[-1:-1] = lines[row:row + 2]
        path = tmp_path / "twice.ckpt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TrainingError,
                           match="tensor encoder.mixer_b is listed twice"):
            ParameterStore.load(path)

    def test_missing_tensor_fails_the_config_check(self, tmp_path):
        store = init_parameters(CONFIG, VOCAB, ("x", "y"), seed=3)
        tr.check_parameters(store, CONFIG)
        partial = ParameterStore({name: tensor for name, tensor
                                  in store.tensors.items()
                                  if name != "scorer.mention.w2"},
                                 store.vocab, store.scaffold_classes)
        partial.save(tmp_path / "partial.ckpt")
        loaded = ParameterStore.load(tmp_path / "partial.ckpt")
        with pytest.raises(TrainingError, match="scorer.mention.w2"):
            tr.check_parameters(loaded, CONFIG)

    def test_extra_or_misshapen_tensor_fails_the_config_check(self):
        store = init_parameters(CONFIG, VOCAB, seed=3)
        extra = ParameterStore({**store.tensors, "scorer.extra": np.zeros(2)},
                               store.vocab)
        with pytest.raises(TrainingError, match="scorer.extra"):
            tr.check_parameters(extra, CONFIG)
        misshapen = ParameterStore(
            {**store.tensors, "encoder.mixer_b": np.zeros(CONFIG.d_token + 1)},
            store.vocab)
        with pytest.raises(TrainingError, match="encoder.mixer_b"):
            tr.check_parameters(misshapen, CONFIG)


class TestGradientCheck:
    def test_quadratic_loss_is_exact(self):
        store = init_parameters(CONFIG, VOCAB, seed=6)

        @O.on_tape
        def build(enc, scoring, scaffold):
            return (scoring.mention.w1 * scoring.mention.w1).sum() \
                + (enc.embeddings * enc.embeddings).sum()

        report = gradient_check(store, build, threshold=1e-7)
        assert report.passed
        assert report.max_error < 1e-8

    def test_corrupted_gradient_fails(self):
        # f(x) = x * const(copy of x): the tape differentiates only the live
        # factor (gradient x) while the true derivative of x^2 is 2x
        store = init_parameters(CONFIG, VOCAB, seed=6)

        @O.on_tape
        def build(enc, scoring, scaffold):
            w = scoring.mention.w1
            return (w * O.Tensor(w.value.copy())).sum()

        report = gradient_check(store, build, threshold=1e-4)
        assert not report.passed

    def test_summary_mentions_every_tensor(self):
        from test_losses import grad_check_loss
        store, build, config = grad_check_loss((1.0, 0.5, 0.5))
        report = gradient_check(store, build, coords_per_tensor=4)
        text = report.summary()
        for name in store.tensors:
            assert name in text


@pytest.mark.parametrize("field, rate", [
    ("base_lr", -1e-3), ("task_lr", -1e-3), ("base_lr", float("nan")),
    ("task_lr", float("inf")), ("base_lr", float("-inf"))])
def test_phase_rejects_bad_learning_rates(field, rate):
    with pytest.raises(TrainingError, match=field):
        Phase("c", 1, L.LossWeights(), **{field: rate})


def test_phase_allows_zero_learning_rates():
    phase = Phase("c", 1, L.LossWeights(), base_lr=0.0, task_lr=0.0)
    assert (phase.base_lr, phase.task_lr) == (0.0, 0.0)


def replaced(lines, old, new):
    """`lines` with the one line equal to `old` replaced by `new`."""
    assert lines.count(old) == 1
    return [new if line == old else line for line in lines]


def test_build_vocab_sorted_and_unk_first():
    docs = [make_doc(["zeta", "alpha"]), make_doc(["beta"], doc_id="d1")]
    vocab = build_vocab(docs)
    assert vocab[0] == "<unk>"
    assert list(vocab[1:]) == sorted(vocab[1:])
    assert set(vocab[1:]) == {"zeta", "alpha", "beta"}
