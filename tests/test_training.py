import dataclasses
import hashlib
import json
import math
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles as O
from kcoref import losses as L
from kcoref import model as m
from kcoref import training as tr
from kcoref.model import ModelConfig
from kcoref.training import (AdamState, ParameterStore, Phase,
                             TrainingDiverged, TrainingError,
                             TrainingSchedule, build_vocab,
                             compute_gradients, effective_weights,
                             gradient_check, init_parameters, learning_rates,
                             optimizer_step, run_schedule, write_loss_log)

from test_corpus import make_doc
from test_losses import (INDEX_CONFIG, random_documents, tiny_corpus,
                         tiny_setup)

TENSOR_NAMES = ("encoder.e", "encoder.mixer_w", "scorer.mention.b2",
                "scorer.antecedent.w1", "scaffold.weights", "extra")
CONFIG = ModelConfig(d_token=5, d_width=3, window_radius=1, scorer_hidden=4,
                     max_span_width=2, prune_ratio=0.5, max_antecedents=10)
VOCAB = ("<unk>", "a", "b", "c")
SRC = Path(__file__).resolve().parent.parent / "src"


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
        store = init_parameters(CONFIG, vocab)
        store.buffer().fill(0.0)
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

    @pytest.mark.parametrize("fields, problem", [
        ({"step": -1, "seed": -2}, "seed must be >= 0, not -2"),
        ({"step": -7}, "step must be >= 0, not -7"),
        ({"seed": 1.5}, "seed must be an integer, not 1.5"),
        ({"step": "3"}, "step must be an integer, not '3'"),
    ])
    def test_seed_and_step_are_integers_at_least_zero(self, fields, problem):
        with pytest.raises(TrainingError, match=f"^{re.escape(problem)}$"):
            ParameterStore({}, ("<unk>",), **fields)

    def test_duplicate_vocab_tokens_or_classes_rejected(self):
        with pytest.raises(TrainingError,
                           match=r"duplicate vocab tokens: \['a'\]"):
            ParameterStore({}, ("<unk>", "a", "b", "a"))
        with pytest.raises(TrainingError,
                           match=r"duplicate scaffold classes: \['x'\]"):
            ParameterStore({}, ("<unk>",), ("x", "y", "x"))

    # Every string `str.splitlines` splits at: `save` writes one name a line.
    @pytest.mark.parametrize("boundary", ["\n", "\r", "\r\n", "\v", "\f",
                                          "\x1c", "\x1d", "\x1e", "\x85",
                                          "\u2028", "\u2029"])
    def test_a_name_with_a_line_boundary_is_rejected(self, boundary):
        name = f"a{boundary}b"
        assert len(name.splitlines()) == 2
        with pytest.raises(TrainingError, match=re.escape(
                f"vocab tokens with a line boundary cannot be saved: "
                f"{[name]}")):
            ParameterStore({}, ("<unk>", "c", name))
        with pytest.raises(TrainingError, match=re.escape(
                f"scaffold classes with a line boundary cannot be saved: "
                f"{[name + boundary]}")):
            ParameterStore({}, ("<unk>",), ("x", name + boundary))


class TestComputeGradients:
    def test_unused_tensor_gets_zero_gradient(self):
        docs, config, store, weights, objective = tiny_setup(
            beta=(1.0, 0.0, 0.0))  # scaffold never touched

        def build(enc, scoring, scaffold):
            return [L.document_objective(docs[0], enc, scoring, scaffold,
                                         weights, config, objective)]

        grads, _ = compute_gradients(store, build)
        assert not store.named(grads)["scaffold.weights"].any()

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

        flat, _ = compute_gradients(store, build)
        grads = store.named(flat)
        for name in ("encoder.embeddings", "scorer.mention.w1"):
            np.testing.assert_allclose(grads[name], features[name])
        # one flat vector in the store's buffer order, named by views
        assert flat.shape == store.buffer().shape
        assert list(grads) == sorted(store.tensors)
        assert np.array_equal(flat, np.concatenate(
            [grads[name] for name in grads], axis=None))
        assert all(np.shares_memory(grads[name], flat)
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


# The objectives the doc-step is pinned on: beta, ObjectiveConfig fields,
# then ModelConfig fields that differ from INDEX_CONFIG.
OBJECTIVES = {
    "CL": ((1.0, 0.0, 0.0), {}, {}),
    "CL+RL strict": ((1.0, 0.8, 0.0), {"unlabeled_knowledge": "strict"}, {}),
    "CL+RL skip": ((1.0, 0.8, 0.0), {"unlabeled_knowledge": "skip"}, {}),
    "full": ((1.0, 0.7, 0.4), {"scaffold_lexicon": "coarse"}, {}),
    "full, unlabeled spans": ((1.0, 0.7, 0.4),
                              {"scaffold_lexicon": "coarse",
                               "scaffold_include_unlabeled": True}, {}),
    "full, window radius 0": ((1.0, 0.7, 0.4), {"scaffold_lexicon": "coarse"},
                              {"window_radius": 0}),
}


class TestDocStepMatchesTheReferenceTape:
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(doc=random_documents(), seed=st.integers(0, 2**16),
           case=st.sampled_from(sorted(OBJECTIVES)))
    def test_flat_gradient_matches_per_tensor_tape_gradients(self, doc, seed,
                                                             case):
        beta, fields, model_fields = OBJECTIVES[case]
        config = dataclasses.replace(INDEX_CONFIG, **model_fields)
        weights = L.LossWeights(alpha_c=1.0,
                                alpha_k={"coarse": 0.5, "fine": 0.2},
                                beta=beta)
        objective = L.ObjectiveConfig(pair_budget=20, pair_seed=seed,
                                      **fields)
        classes = ("a", "b", "c")
        if objective.scaffold_include_unlabeled:
            classes += ("<none>",)
        store = init_parameters(config, build_vocab([doc]), classes,
                                seed=seed)
        store.tensors["scaffold.weights"][...] = np.random.default_rng(
            seed).normal(size=(len(classes), config.d_token))

        def build(enc, scoring, scaffold):
            return [L.document_objective(
                doc, enc, scoring, scaffold, weights, config, objective,
                np.random.default_rng(seed))]

        grads, (out,) = compute_gradients(store, build)
        total, leaves = O.document_objective_tape(
            doc, store, weights, config, objective,
            np.random.default_rng(seed))
        total.backward()
        assert len(out.candidates) > config.max_antecedents
        assert out.total == pytest.approx(float(total.value), rel=1e-9)
        for name, got in store.named(grads).items():
            want = leaves[name].grad
            if want is None:
                want = np.zeros_like(got)
            scale = max(np.abs(got).max(initial=0.0),
                        np.abs(want).max(initial=0.0))
            assert np.abs(got - want).max(initial=0.0) <= 1e-9 * scale, name


# The cases the live-row backward is pinned on: beta, ObjectiveConfig
# fields, then ModelConfig fields that differ from INDEX_CONFIG.
LIVE_ROW_CASES = {
    "CL": ((1.0, 0.0, 0.0), {}, {}),
    "CL+RL": ((1.0, 0.8, 0.0), {}, {}),
    "CL+RL+SL": ((1.0, 0.7, 0.4), {"scaffold_lexicon": "coarse"}, {}),
    "RL+SL": ((0.0, 0.7, 0.4), {"scaffold_lexicon": "coarse"}, {}),
    "unlabeled spans": ((1.0, 0.7, 0.4),
                        {"scaffold_lexicon": "coarse",
                         "scaffold_include_unlabeled": True}, {}),
    "empty pair set": ((1.0, 0.7, 0.4),
                       {"scaffold_lexicon": "coarse", "pair_budget": 0}, {}),
    "over budget": ((1.0, 0.7, 0.4),
                    {"scaffold_lexicon": "coarse", "pair_budget": 2}, {}),
    "one candidate": ((1.0, 0.7, 0.4), {"scaffold_lexicon": "coarse"},
                      {"prune_ratio": 0.01}),
    "linear heads": ((1.0, 0.7, 0.4), {"scaffold_lexicon": "coarse"},
                     {"scorer_hidden": 0}),
}


def live_row_case(doc, seed, case):
    beta, fields, model_fields = LIVE_ROW_CASES[case]
    config = dataclasses.replace(INDEX_CONFIG, **model_fields)
    weights = L.LossWeights(alpha_c=1.0,
                            alpha_k={"coarse": 0.5, "fine": 0.2}, beta=beta)
    objective = L.ObjectiveConfig(**{"pair_budget": 20, "pair_seed": seed,
                                     **fields})
    classes = ("a", "b", "c")
    if objective.scaffold_include_unlabeled:
        classes += ("<none>",)
    store = init_parameters(config, build_vocab([doc]), classes, seed=seed)
    store.tensors["scaffold.weights"][...] = np.random.default_rng(
        seed).normal(size=(len(classes), config.d_token))
    return store, weights, config, objective


class TestLiveRowBackward:
    """The doc-step's backward carries the span-table gradient for the rows
    a loss reads alone; it must equal the whole-table backward bit for
    bit."""

    @pytest.mark.parametrize("case", sorted(LIVE_ROW_CASES))
    @settings(derandomize=True, deadline=None, max_examples=20)
    @given(doc=random_documents(), seed=st.integers(0, 2**16))
    def test_flat_gradient_equals_the_full_table_reference(self, case, doc,
                                                           seed):
        store, weights, config, objective = live_row_case(doc, seed, case)

        def build(enc, scoring, scaffold):
            return [L.document_objective(
                doc, enc, scoring, scaffold, weights, config, objective,
                [seed, 1])]

        grads, (out,) = compute_gradients(store, build)
        want = O.document_gradient_full_table(doc, store, weights, config,
                                              objective, [seed, 1])
        assert np.array_equal(grads, want)
        if case == "one candidate":
            assert len(out.candidates) == 1
        if case == "empty pair set":
            assert out.pair_set.count == 0
        if case == "over budget":
            n = len(out.pair_set.rows)
            assert n * (n - 1) // 2 > objective.pair_budget
            assert out.pair_set.count == objective.pair_budget

    def test_span_backward_reads_only_the_live_rows(self, monkeypatch):
        """The span representations' backward receives exactly the rows of
        the candidates, the RL pool and the SL targets, in table order."""
        received, layouts = [], []
        build_span_representations = m.build_span_representations

        def recording(token_vecs, layout, enc):
            reps, backward = build_span_representations(token_vecs, layout,
                                                        enc)
            layouts.append((layout, reps))

            def spy(g, grad, rows):
                received.append(rows)
                return backward(g, grad, rows)

            return reps, spy

        monkeypatch.setattr(m, "build_span_representations", recording)
        docs, config, store, weights, objective = tiny_setup()
        for beta in ((1.0, 0.0, 0.0), weights.beta):
            for doc in docs:
                received.clear()
                layouts.clear()

                def build(enc, scoring, scaffold):
                    return [L.document_objective(
                        doc, enc, scoring, scaffold,
                        dataclasses.replace(weights, beta=beta), config,
                        objective)]

                _, (out,) = compute_gradients(store, build)
                [(layout, reps)] = layouts
                assert len(reps) == len(layout)
                spans = O.layout_spans(layout)
                row = {span: i for i, span in enumerate(spans)}
                read = set(out.candidates.spans)
                if beta[1] > 0:
                    read.update(spans[r] for r in out.pair_set.rows.tolist())
                if beta[2] > 0:
                    read.update(doc.gold_spans())
                    read.update(doc.concept_annotations["i2b2"])
                assert len(received) == 1
                assert received[0].tolist() == sorted(map(row.get, read))
                assert len(read) < len(row)

    def test_consecutive_gradients_share_no_memory(self):
        """The backward's buffer is kept per store; what compute_gradients
        returns is not, so an accumulated gradient stays as it was."""
        docs, config, store, weights, objective = tiny_setup()

        def build_for(doc):
            def build(enc, scoring, scaffold):
                return [L.document_objective(doc, enc, scoring, scaffold,
                                             weights, config, objective)]
            return build

        first, _ = compute_gradients(store, build_for(docs[0]))
        kept = first.copy()
        second, _ = compute_gradients(store, build_for(docs[1]))
        assert not np.shares_memory(first, second)
        assert np.array_equal(first, kept)
        assert not np.array_equal(first, second)


class TestOptimizerStep:
    def test_zero_gradients_leave_parameters_unchanged(self):
        store = init_parameters(CONFIG, VOCAB, seed=4)
        before = {k: v.copy() for k, v in store.tensors.items()}
        optimizer_step(store, np.zeros_like(store.buffer()),
                       learning_rates(store, 0.1, 0.1), AdamState())
        for name in before:
            np.testing.assert_array_equal(store.tensors[name], before[name])

    def test_single_step_moves_by_learning_rate(self):
        # bias-corrected first step: m_hat = g, v_hat = g^2, so the update is
        # r * g / (|g| + eps) = r to within eps
        store = ParameterStore({"scorer.x": np.array([1.0])}, ("<unk>",))
        state = AdamState()
        optimizer_step(store, np.array([1.0]),
                       learning_rates(store, 0.05, 0.05), state)
        assert store.tensors["scorer.x"][0] == pytest.approx(1.0 - 0.05,
                                                             rel=1e-6)

    def test_rate_routing_by_tensor_name(self):
        store = ParameterStore({"encoder.e": np.array([0.0]),
                                "scorer.s": np.array([0.0]),
                                "scaffold.weights": np.array([0.0])},
                               ("<unk>",))
        optimizer_step(store, np.ones(3),
                       learning_rates(store, base=0.01, task=0.1), AdamState())
        assert store.tensors["encoder.e"][0] == pytest.approx(-0.01, rel=1e-5)
        assert store.tensors["scorer.s"][0] == pytest.approx(-0.1, rel=1e-5)
        assert store.tensors["scaffold.weights"][0] == pytest.approx(-0.1,
                                                                     rel=1e-5)

    def test_shape_mismatch_rejected(self):
        """Only an array laid out like the buffer is a gradient or a rate
        vector, and a scalar rate does not broadcast; any other is rejected
        before the step, `t` or a parameter changes."""
        store = init_parameters(CONFIG, VOCAB, seed=4)
        before = store.copy()
        size = store.buffer().size
        grad, lr = np.ones(size), learning_rates(store, 0.1, 0.1)
        state = AdamState()
        for wrong in (np.ones(size - 1), np.ones(size + 1),
                      np.ones((1, size))):
            with pytest.raises(TrainingError, match="gradient has shape"):
                optimizer_step(store, wrong, lr, state)
        for wrong in (0.1, np.float64(0.1), lr[:-1], lr[None], [0.1]):
            with pytest.raises(TrainingError,
                               match="learning-rate vector has shape"):
                optimizer_step(store, grad, wrong, state)
        assert state.t == 0 and store.step == 0
        for name in store.tensors:
            assert np.array_equal(store.tensors[name], before.tensors[name])

    def test_missing_and_extra_gradient_names_rejected(self):
        """A gradient that leaves out a tensor, adds one, or comes keyed by
        name is rejected before the step, `t` or a parameter changes."""
        store = init_parameters(CONFIG, VOCAB, seed=4)
        before = store.copy()
        named = {k: np.ones_like(v) for k, v in store.tensors.items()}
        missing = dict(named)
        del missing["scorer.mention.b2"]
        extra = {**named, "scorer.extra": np.ones(2)}
        state = AdamState()
        for grads in (missing, extra, named):
            flat = np.concatenate([np.ravel(g) for g in grads.values()])
            for wrong in ((flat, grads) if flat.size != store.buffer().size
                          else (grads,)):
                with pytest.raises(TrainingError, match="shape"):
                    optimizer_step(store, wrong,
                                   learning_rates(store, 0.1, 0.1), state)
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
        state = AdamState()
        optimizer_step(store, np.ones_like(store.buffer()),
                       learning_rates(store, 0.1, 0.1), state)
        with pytest.raises(TypeError):
            store.tensors["scorer.extra"] = np.zeros(2)
        grown = ParameterStore({**store.tensors, "scorer.extra": np.zeros(2)},
                               store.vocab)
        grads, lr = np.ones_like(grown.buffer()), learning_rates(grown, .1, .1)
        with pytest.raises(TrainingError, match="changed after the first"):
            optimizer_step(grown, grads, lr, state)
        optimizer_step(grown, grads, lr, AdamState())
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
        optimizer_step(store, np.ones_like(store.buffer()),
                       learning_rates(store, 0.1, 0.1), AdamState())
        assert clone.step == 3
        assert clone.tensors["encoder.embeddings"][0, 0] == original[0, 0] + 1

    def test_copy_shares_the_checked_vocabulary_index(self):
        """A copy checks and indexes nothing again: it shares the store's
        read-only vocabulary index, while a store built from outside, even
        from a copy's own fields, is checked."""
        store = init_parameters(CONFIG, VOCAB, ("x", "y"), seed=5)
        clone = store.copy()
        assert clone.vocab_index is store.vocab_index
        assert clone.groups[0].vocab is store.vocab_index
        assert dict(clone.vocab_index) == {t: i for i, t in enumerate(VOCAB)}
        with pytest.raises(TypeError):
            clone.vocab_index["new"] = 0
        with pytest.raises(TrainingError, match="duplicate vocab tokens"):
            ParameterStore(dict(clone.tensors), (*clone.vocab, VOCAB[1]))
        with pytest.raises(TrainingError, match="line boundary"):
            ParameterStore(dict(clone.tensors), (*clone.vocab, "a\nb"))

    def test_pickle_rebuilds_the_store(self):
        store = init_parameters(CONFIG, VOCAB, ("x", "y"), seed=5)
        store.step = 3
        clone = pickle.loads(pickle.dumps(store))
        assert (clone.vocab, clone.scaffold_classes, clone.step,
                clone.seed) == (store.vocab, store.scaffold_classes, 3, 5)
        assert clone.buffer().tobytes() == store.buffer().tobytes()
        assert list(clone.tensors) == list(store.tensors)
        assert all(np.shares_memory(v, clone.buffer())
                   for v in clone.tensors.values())
        with pytest.raises(TypeError):
            clone.tensors["encoder.embeddings"] = np.zeros(1)

    @settings(derandomize=True, deadline=None, max_examples=80)
    @given(case=st.data())
    def test_flat_update_matches_the_per_tensor_reference(self, case):
        draw = case.draw
        names = draw(st.lists(st.sampled_from(TENSOR_NAMES), min_size=1,
                              max_size=len(TENSOR_NAMES), unique=True))
        shapes = [tuple(draw(st.lists(st.integers(0, 3), max_size=3)))
                  for _ in names]
        base = draw(st.sampled_from([0.0, 1e-3, 0.3]))
        task = draw(st.sampled_from([1e-3, 0.05, 2.0]))
        rng = np.random.default_rng(draw(st.integers(0, 2**16)))
        store = ParameterStore({n: rng.normal(size=s)
                                for n, s in zip(names, shapes)}, ("<unk>",))
        reference = {n: v.copy() for n, v in store.tensors.items()}
        lr = learning_rates(store, base, task)
        state, moments = AdamState(), O.AdamMoments()
        for accumulated in draw(st.lists(st.integers(1, 3), min_size=1,
                                         max_size=4)):
            parts = []
            for _ in range(accumulated):
                part = np.empty(store.buffer().size)
                for view in store.named(part).values():
                    view[...] = rng.normal(size=view.shape) * rng.choice(
                        [0.0, 1e-4, 3.0])
                parts.append(part)
            pending = parts[0]
            for grads in parts[1:]:
                pending = pending + grads
            optimizer_step(store, pending, lr, state)
            summed = store.named(parts[0])
            for grads in map(store.named, parts[1:]):
                summed = {n: summed[n] + grads[n] for n in names}
            O.optimizer_step_reference(reference, summed, base, task,
                                       moments)
            for name in names:
                assert store.tensors[name].shape == reference[name].shape
                assert np.array_equal(store.tensors[name], reference[name])
        assert state.t == moments.t

    def test_step_counter_advances(self):
        store = ParameterStore({"scorer.x": np.zeros(1)}, ("<unk>",))
        optimizer_step(store, np.zeros(1), learning_rates(store, 0.1, 0.1),
                       AdamState())
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

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_a_diverging_accumulated_step_names_each_of_its_documents(
            self, tmp_path):
        docs, config, store, weights, objective = tiny_setup()
        objective = dataclasses.replace(objective, grad_accumulation=2)
        assert len(docs) == 2 and docs[0].doc_id != docs[1].doc_id
        sched = TrainingSchedule([Phase("c", 3, weights, 1e200, 1e200)])
        with pytest.raises(TrainingDiverged) as err:
            run_schedule(sched, {"c": docs}, config, objective, store,
                         checkpoint_dir=tmp_path)
        names = re.escape(f"{docs[0].doc_id}, {docs[1].doc_id}")
        assert re.match(rf"phase 1 epoch \d doc {names}: ", str(err.value))
        restored = ParameterStore.load(tmp_path / "last_good.ckpt")
        assert restored.buffer().tobytes() == \
            err.value.last_good.buffer().tobytes()
        assert np.isfinite(restored.buffer()).all()

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
        objective = dataclasses.replace(objective, grad_accumulation=2)
        sched = TrainingSchedule([Phase("c", 1, weights, 1e-3, 1e-3)])
        store, _ = run_schedule(sched, {"c": docs}, config, objective, store)
        assert store.step == 1  # two docs, one accumulated step

    def test_accumulated_steps_match_the_per_tensor_reference(self):
        docs, config, store, weights, objective = tiny_setup(seed=2)
        docs = [docs[0], docs[1], docs[0]]
        objective = dataclasses.replace(objective, grad_accumulation=2)
        base, task = 1e-2, 3e-2
        sched = TrainingSchedule([Phase("c", 2, weights, base, task)])
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

                current = ParameterStore(reference, store.vocab,
                                         store.scaffold_classes)
                grads, _ = compute_gradients(current, build)
                pending = grads if pending is None else pending + grads
                if doc_no % 2 == 1 or doc_no == len(docs) - 1:
                    O.optimizer_step_reference(reference,
                                               current.named(pending), base,
                                               task, moments)
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

        def recording(doc_id, index, candidate_rows, budget, rng):
            out = build_pair_set(doc_id, index, candidate_rows, budget, rng)
            n = len(out.rows)
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
        objective = dataclasses.replace(objective, source_phase_rl=False)
        run_schedule(TrainingSchedule([Phase("c", 2, weights,
                                             role="source")]),
                     {"c": docs}, config, objective, store.copy())
        assert seeds == [] and offered == []

        objective = dataclasses.replace(objective, pair_budget=10 ** 6)
        run_schedule(TrainingSchedule([Phase("c", 1, weights)]),
                     {"c": docs}, config, objective, store.copy())
        assert seeds == []
        assert [rng for rng, _ in offered] == [
            [objective.pair_seed, 1, 1, d] for d in range(len(docs))]
        # a budget between the sets' sizes thins some of them, not all
        sizes = sorted(n for _, n in offered)
        objective = dataclasses.replace(objective, pair_budget=sizes[0])
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
            calls.append("store" if arrays is store.tensors else "gradient")
            return group_parameters(arrays, store)

        monkeypatch.setattr(tr, "group_parameters", counting)
        docs, config, store, weights, objective = tiny_setup()
        assert len(docs) > 1
        run_schedule(TrainingSchedule([Phase("c", 2, weights)]), {"c": docs},
                     config, objective, store)
        assert calls.count("store") <= 1
        # The gradient's groups are kept per store, not built per doc-step.
        assert calls.count("gradient") <= 1

    def test_one_document_gets_each_vocabulary_its_own_token_ids(self):
        """A document keeps the token ids of the last vocabulary it was
        read with; one trained through stores that number its tokens
        differently trains as a fresh copy of it does under each."""
        docs, config, store, weights, objective = tiny_setup()
        renumbered = (store.vocab[0], *reversed(store.vocab[1:]))
        other = init_parameters(config, renumbered, store.scaffold_classes,
                                seed=1)
        sched = TrainingSchedule([Phase("c", 1, weights)])
        for source in (store, other, store):
            trained, _ = run_schedule(sched, {"c": docs}, config, objective,
                                      source.copy())
            copies = [make_doc(list(doc.tokens),
                               [[(s.start, s.end) for s in c]
                                for c in doc.gold_clusters],
                               doc.concept_annotations, doc_id=doc.doc_id)
                      for doc in docs]
            fresh, _ = run_schedule(sched, {"c": copies}, config, objective,
                                    source.copy())
            assert trained.buffer().tobytes() == fresh.buffer().tobytes()
            for doc in docs:
                ids = m.token_ids(doc, source.vocab_index)
                assert ids.tolist() == [source.vocab.index(t)
                                        for t in doc.tokens]
                assert m.token_ids(doc, source.vocab_index) is ids
        assert renumbered != store.vocab

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


# The benchmark's train_full setup (corpus seed 9, fine lexicon annotated,
# the full objective), for a fresh interpreter whose malloc thresholds no
# earlier test has moved. Each probe below runs its work twice and prints
# whether the heap was kept, the doc-steps or documents of the second run
# and the minor page faults they made.
PROBE_SETUP = """
import json, resource
from kcoref import evaluation as ev
from kcoref import training as tr
from kcoref.lexicon import MatchPolicy, annotate_documents
from kcoref.losses import LossWeights, ObjectiveConfig
from kcoref.model import ModelConfig
from kcoref.toolkit import SyntheticSpec, generate_synthetic_corpus

corpus = generate_synthetic_corpus(SyntheticSpec(
    n_documents=16, seed=9, chains_per_doc=(3, 4), chain_length=(2, 4),
    suffixes=("ia",), entities_per_concept=6))
docs = annotate_documents(corpus.documents, corpus.fine_lexicon,
                          MatchPolicy(mode="exact"))
config = ModelConfig(d_token=24, d_width=4, window_radius=1, scorer_hidden=16,
                     max_span_width=3, prune_ratio=0.3, max_antecedents=30)
objective = ObjectiveConfig(pair_budget=600, pair_seed=5,
                            scaffold_lexicon="coarse")
weights = LossWeights(alpha_c=1.0, alpha_k={"coarse": 0.5, "fine": 0.2},
                      beta=(1.0, 1.0, 0.5))
store = tr.init_parameters(config, tr.build_vocab(docs),
                           tuple(sorted(corpus.coarse_lexicon.concepts)))
"""

# Two 2-epoch schedules.
FAULT_PROBE = PROBE_SETUP + """
schedule = tr.TrainingSchedule([tr.Phase("train", 2, weights, 3e-3, 6e-3)])
tr.run_schedule(schedule, {"train": docs}, config, objective, store.copy())
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
tr.run_schedule(schedule, {"train": docs}, config, objective, store.copy())
after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
print(json.dumps({"kept": tr.keep_heap(), "steps": 2 * len(docs),
                  "faults": after - before}))
"""

# Two prediction passes over the documents with the untrained store, in a
# process that never trains.
PREDICTION_FAULT_PROBE = PROBE_SETUP + """
for doc in docs:
    ev.predict_clusters(doc, store, config)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for doc in docs:
    ev.predict_clusters(doc, store, config)
after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
print(json.dumps({"kept": tr.keep_heap(), "steps": len(docs),
                  "faults": after - before}))
"""


def train_tiny() -> bytes:
    docs, config, store, weights, objective = tiny_setup(seed=5)
    sched = TrainingSchedule([Phase("c", 2, weights, 1e-2, 1e-2)])
    return run_schedule(sched, {"c": docs}, config, objective,
                        store)[0].buffer().tobytes()


def fault_probe(script: str) -> dict:
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)})
    assert done.returncode == 0, done.stderr
    probe = json.loads(done.stdout)
    if not probe["kept"]:
        pytest.skip("the C library has no mallopt")
    return probe


class TestHeapThresholds:
    def test_a_warmed_doc_step_makes_almost_no_page_faults(self):
        probe = fault_probe(FAULT_PROBE)
        # 34-52 per doc-step at glibc's default thresholds
        assert probe["faults"] / probe["steps"] < 5

    def test_a_second_prediction_pass_makes_almost_no_page_faults(self):
        probe = fault_probe(PREDICTION_FAULT_PROBE)
        # about 14 per document at glibc's default thresholds
        assert probe["faults"] / probe["steps"] < 5

    def test_the_thresholds_are_set_once_per_process(self, monkeypatch):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        kept = train_tiny()
        monkeypatch.setattr(tr.ctypes, "CDLL",
                            lambda name: SimpleNamespace(mallopt=mallopt))
        tr.keep_heap.cache_clear()
        try:
            assert [train_tiny(), train_tiny()] == [kept, kept]
            assert calls == [(tr.M_MMAP_THRESHOLD, 32 << 20),
                             (tr.M_TRIM_THRESHOLD, 64 << 20)]
        finally:
            tr.keep_heap.cache_clear()

    @pytest.mark.parametrize("libc", ["missing", "without mallopt"])
    def test_training_without_mallopt_is_unchanged(self, monkeypatch, libc):
        def cdll(name):
            if libc == "missing":
                raise OSError("no C library")
            return SimpleNamespace()

        kept = train_tiny()
        monkeypatch.setattr(tr.ctypes, "CDLL", cdll)
        tr.keep_heap.cache_clear()
        try:
            assert train_tiny() == kept
            assert tr.keep_heap() is False
        finally:
            tr.keep_heap.cache_clear()


# A checkpoint of `init_parameters(CONFIG, VOCAB, ("x", "y"), seed=3)` as the
# v1 writer saved it; `load` still reads v1 files.
V1_CHECKPOINT = Path(__file__).parent / "data" / "v1.ckpt"


def checkpoint_lines(version: int) -> list[str]:
    """The lines of the checkpoint of `init_parameters(CONFIG, VOCAB, ("x",
    "y"), seed=3)` in format `version`: v1 from the committed file, v2 as
    `save` writes it."""
    if version == 1:
        return V1_CHECKPOINT.read_text(encoding="utf-8").splitlines()
    store = init_parameters(CONFIG, VOCAB, ("x", "y"), seed=3)
    return store.checkpoint_text().splitlines()


def rejected(path, lines) -> str:
    """The message `load` raises for the file of `lines`."""
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(TrainingError) as err:
        ParameterStore.load(path)
    return str(err.value)


def value_row(lines, name: str) -> int:
    """The index of tensor `name`'s value row in `lines`."""
    return next(i for i, line in enumerate(lines)
                if line.startswith(f"tensor {name} ")) + 1


def with_row(lines, name: str, row: str) -> list[str]:
    """`lines` with tensor `name`'s value row replaced by `row`."""
    i = value_row(lines, name)
    return [*lines[:i], row, *lines[i + 1:]]


def without_vocab(lines) -> list[str]:
    """`lines` with no vocab token and a (0, 5) embedding table: a file
    that parses, with tensors that match `CONFIG` for an empty vocab."""
    lines = with_row(replaced(lines, "tensor encoder.embeddings 2 4 5",
                              "tensor encoder.embeddings 2 0 5"),
                     "encoder.embeddings", "")
    start = lines.index("vocab 4")
    return [*lines[:start], "vocab 0", *lines[start + 5:]]


# Edits of a checkpoint's lines, and what the error names after the file's
# path; the last field says whether the edited line is in v2 as well (a v1
# value row is not).
MALFORMED_EDITS = [
    ("magic-with-suffix",
     lambda lines: [lines[0].replace(" v", "XYZ v"), *lines[1:]],
     "not a checkpoint file", True),
    ("seed-and-step-swapped",
     lambda lines: [lines[0], lines[2], lines[1], *lines[3:]],
     "line 2 is 'step 0\\n', where save writes 'seed 0\\n'", True),
    ("header-mislabelled", lambda lines: [lines[0], "banana 3", *lines[2:]],
     "line 2 is 'banana 3\\n', where save writes 'seed 3\\n'", True),
    ("header-label-with-colon",
     lambda lines: replaced(lines, "vocab 4", "vocab: 4"),
     "line 4 is 'vocab: 4\\n', where save writes 'vocab 4\\n'", True),
    ("header-extra-token",
     lambda lines: replaced(lines, "classes 2", "classes 2 x"),
     "line 9 does not parse ('classes 2 x')", True),
    ("tensor-dim-missing",
     lambda lines: replaced(lines, "tensor encoder.mixer_b 1 5",
                            "tensor encoder.mixer_b 2 5"),
     "line 16 is 'tensor encoder.mixer_b 2 5\\n', where save writes "
     "'tensor encoder.mixer_b 1 5\\n'", True),
    ("tensor-dim-extra",
     lambda lines: replaced(lines, "tensor encoder.mixer_b 1 5",
                            "tensor encoder.mixer_b 1 5 1"),
     "line 16 is 'tensor encoder.mixer_b 1 5 1\\n', where save writes "
     "'tensor encoder.mixer_b 2 5 1\\n'", True),
    ("value-overflows",
     lambda lines: [*lines[:-2], " ".join(
         ["0x1.0p+99999", *lines[-2].split()[1:]]), "end"],
     "line 39 does not parse (the values of tensor scorer.mention.w2)",
     False),
    ("line-after-end", lambda lines: [*lines, "end"],
     "is 'end\\n', where save writes the end of the file", True),
    # a negative count fails on its own line
    ("seed-negative", lambda lines: replaced(lines, "seed 3", "seed -3"),
     "line 2 does not parse ('seed -3')", True),
    ("step-negative", lambda lines: replaced(lines, "step 0", "step -7"),
     "line 3 does not parse ('step -7')", True),
    ("vocab-count-negative",
     lambda lines: replaced(lines, "vocab 4", "vocab -4"),
     "line 4 does not parse ('vocab -4')", True),
    ("classes-count-negative",
     lambda lines: replaced(lines, "classes 2", "classes -2"),
     "line 9 does not parse ('classes -2')", True),
    ("duplicate-vocab-token", lambda lines: replaced(lines, "b", "a"),
     "duplicate vocab tokens: ['a']", True),
    ("duplicate-scaffold-class", lambda lines: replaced(lines, "y", "x"),
     "duplicate scaffold classes: ['x']", True),
    ("vocab-empty", lambda lines: without_vocab(lines),
     "vocab must start with '<unk>'", True),
    # edits that the v1 loader accepted, reading a value other than the
    # file's or writing other bytes back
    ("value-as-decimal",
     lambda lines: with_row(lines, "scorer.mention.b2", "1.5"),
     "line 35 is the values of tensor scorer.mention.b2, where save writes "
     "other text", False),
    ("value-short-hex",
     lambda lines: with_row(lines, "scorer.mention.b2", "0x1.8p+0"),
     "line 35 is the values of tensor scorer.mention.b2, where save writes "
     "other text", False),
    ("trailing-space",
     lambda lines: replaced(lines, "tensor encoder.mixer_b 1 5",
                            "tensor encoder.mixer_b 1 5 "),
     "line 16 is 'tensor encoder.mixer_b 1 5 \\n', where save writes "
     "'tensor encoder.mixer_b 1 5\\n'", True),
    ("crlf-line-ends", lambda lines: [line + "\r" for line in lines],
     "\\r\\n', where save writes 'kcoref-checkpoint v", True),
]

# Counts and dimensions that `int` reads but `save` does not write: the
# line replaced, its replacement, and what the error names after the path.
NON_DECIMAL_EDITS = [
    ("seed-arabic-indic-digit", "seed 3", "seed \u0663",
     "line 2 is 'seed \u0663\\n', where save writes 'seed 3\\n'"),
    ("count-leading-zero", "vocab 4", "vocab 04",
     "line 4 is 'vocab 04\\n', where save writes 'vocab 4\\n'"),
    ("ndim-plus-sign", "tensor encoder.mixer_b 1 5",
     "tensor encoder.mixer_b +1 5",
     "line 16 is 'tensor encoder.mixer_b +1 5\\n', where save writes "
     "'tensor encoder.mixer_b 1 5\\n'"),
    ("dim-underscore", "tensor scaffold.weights 2 2 5",
     "tensor scaffold.weights 2 0_2 5",
     "line 22 is 'tensor scaffold.weights 2 0_2 5\\n', where save writes "
     "'tensor scaffold.weights 2 2 5\\n'"),
    ("dim-fullwidth-digit", "tensor scaffold.weights 2 2 5",
     "tensor scaffold.weights 2 \uff12 5",
     "line 22 is 'tensor scaffold.weights 2 \uff12 5\\n', where save "
     "writes 'tensor scaffold.weights 2 2 5\\n'"),
]


def mutated(data: bytes, draw) -> bytes:
    """`data` with one byte replaced, inserted or deleted, cut short, or
    with one line repeated."""
    kind = draw(st.sampled_from(["replace", "insert", "delete", "truncate",
                                 "repeat"]))
    if kind == "repeat":
        lines = data.splitlines(keepends=True)
        i = draw(st.integers(0, len(lines) - 1))
        return b"".join(lines[:i + 1] + lines[i:])
    i = draw(st.integers(0, len(data) - 1))
    if kind == "replace":
        byte = draw(st.integers(0, 255).filter(lambda b: b != data[i]))
        return data[:i] + bytes([byte]) + data[i + 1:]
    if kind == "insert":
        return data[:i] + bytes([draw(st.integers(0, 255))]) + data[i:]
    return data[:i] + data[i + 1:] if kind == "delete" else data[:i]


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
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

    def test_v2_round_trip_is_bit_exact_and_byte_exact(self, tmp_path):
        """0-d tensors (the `b2` biases), a zero-size tensor (`d_width=0`),
        -0.0 and a subnormal load as saved, and load then save gives the
        file's bytes back."""
        config = dataclasses.replace(CONFIG, d_width=0)
        store = init_parameters(config, VOCAB, ("x", "y"), seed=13)
        store.tensors["encoder.embeddings"][0, :2] = (-0.0, 1e-300)
        assert store.tensors["scorer.mention.b2"].shape == ()
        assert store.tensors["encoder.width_embeddings"].size == 0
        path = tmp_path / "model.ckpt"
        store.save(path)
        loaded = ParameterStore.load(path)
        for name in store.tensors:
            a, b = store.tensors[name], loaded.tensors[name]
            assert a.shape == b.shape
            assert a.tobytes() == b.tobytes()
        loaded.save(tmp_path / "again.ckpt")
        assert (tmp_path / "again.ckpt").read_bytes() == path.read_bytes()

    def test_save_writes_v2_with_a_digest_of_the_text_above_it(self,
                                                              tmp_path):
        store = init_parameters(CONFIG, VOCAB, ("x", "y"), seed=3)
        store.save(tmp_path / "model.ckpt")
        data = (tmp_path / "model.ckpt").read_bytes()
        lines = data.decode("utf-8").split("\n")
        assert lines[0] == "kcoref-checkpoint v2" and lines[-2:] == ["end", ""]
        body = data[:data.rindex(b"\nsha256 ") + 1]
        assert lines[-3] == f"sha256 {hashlib.sha256(body).hexdigest()}"
        assert lines[value_row(lines, "encoder.mixer_w")] == \
            store.tensors["encoder.mixer_w"].astype("<f8").tobytes().hex()

    def test_v1_file_loads_to_the_store_it_was_written_for(self):
        store = init_parameters(CONFIG, VOCAB, ("x", "y"), seed=3)
        loaded = ParameterStore.load(V1_CHECKPOINT)
        assert (loaded.vocab, loaded.scaffold_classes, loaded.step,
                loaded.seed) == (VOCAB, ("x", "y"), 0, 3)
        assert list(loaded.tensors) == list(store.tensors)
        for name in store.tensors:
            assert store.tensors[name].tobytes() == \
                loaded.tensors[name].tobytes()
        assert loaded.checkpoint_text(1) == \
            V1_CHECKPOINT.read_text(encoding="utf-8")

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

    def test_rejects_file_cut_before_last_tensor(self, tmp_path):
        lines = checkpoint_lines(1)
        assert lines[-1] == "end" and lines[-3].startswith("tensor ")
        path = tmp_path / "cut.ckpt"
        assert rejected(path, lines[:-3]) == \
            f"{path}: line 38 does not parse (the end of the file)"

    def test_rejects_short_value_row(self, tmp_path):
        lines = checkpoint_lines(1)
        row = value_row(lines, "encoder.mixer_b")
        lines[row] = " ".join(lines[row].split()[:-1])
        path = tmp_path / "short.ckpt"
        assert rejected(path, lines) == \
            f"{path}: line 17 does not parse (the values of tensor " \
            f"encoder.mixer_b)"

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

    def test_a_v1_value_spelled_as_the_v1_writer_spelled_it_loads(self,
                                                                  tmp_path):
        """The control of the value-as-decimal and value-short-hex rows."""
        path = tmp_path / "one_and_a_half.ckpt"
        path.write_text("\n".join(with_row(checkpoint_lines(1),
                                           "scorer.mention.b2",
                                           "0x1.8000000000000p+0")) + "\n")
        assert ParameterStore.load(path).tensors["scorer.mention.b2"] == 1.5

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_rejects_a_non_finite_v1_value(self, tmp_path, value):
        path = tmp_path / "non_finite.ckpt"
        assert rejected(path, with_row(checkpoint_lines(1),
                                       "scorer.mention.b2", value)) == \
            f"{path}: tensor scorer.mention.b2 has a non-finite value"

    def test_rejects_non_numeric_version(self, tmp_path):
        lines = checkpoint_lines(1)
        lines[0] = "kcoref-checkpoint vX"
        path = tmp_path / "version.ckpt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TrainingError, match="unsupported checkpoint "
                                                "version 'X'"):
            ParameterStore.load(path)

    @pytest.mark.parametrize("edit, problem", [
        pytest.param(edit, problem, id=name)
        for name, edit, problem, _ in MALFORMED_EDITS])
    def test_rejects_a_malformed_file(self, tmp_path, edit, problem):
        lines = checkpoint_lines(1)
        edited = edit(lines)
        assert edited != lines
        path = tmp_path / "malformed.ckpt"
        message = rejected(path, edited)
        assert message.startswith(f"{path}: ") and problem in message

    @pytest.mark.parametrize("old, new, problem", [
        pytest.param(old, new, problem, id=name)
        for name, old, new, problem in NON_DECIMAL_EDITS])
    def test_rejects_a_count_that_is_not_an_ascii_decimal(self, tmp_path, old,
                                                          new, problem):
        """Counts and dimensions load only as `save` writes them: ASCII
        digits with no sign, underscore or leading zero."""
        lines = replaced(checkpoint_lines(1), old, new)
        path = tmp_path / "malformed.ckpt"
        assert rejected(path, lines) == f"{path}: {problem}"

    def test_rejects_a_tensor_listed_twice(self, tmp_path):
        lines = checkpoint_lines(1)
        row = value_row(lines, "encoder.mixer_b") - 1
        lines[-1:-1] = lines[row:row + 2]
        path = tmp_path / "twice.ckpt"
        assert rejected(path, lines) == \
            f"{path}: line 40 is 'tensor encoder.mixer_b 1 5\\n', where " \
            f"save writes 'end\\n'"

    @pytest.mark.parametrize("edit, problem", [
        *(pytest.param(edit, problem, id=name)
          for name, edit, problem, in_v2 in MALFORMED_EDITS if in_v2),
        *(pytest.param(lambda lines, old=old, new=new:
                       replaced(lines, old, new), problem, id=name)
          for name, old, new, problem in NON_DECIMAL_EDITS),
        pytest.param(lambda lines: lines[:-4],
                     "line 38 does not parse (the end of the file)",
                     id="cut-before-last-tensor"),
        pytest.param(lambda lines: with_row(
                         lines, "encoder.mixer_b",
                         lines[value_row(lines, "encoder.mixer_b")][:-16]),
                     "line 17 does not parse (the values of tensor "
                     "encoder.mixer_b)", id="short-value-row"),
        pytest.param(lambda lines: with_row(
                         lines, "encoder.mixer_b",
                         lines[value_row(lines, "encoder.mixer_b")][:-1]),
                     "line 17 does not parse (the values of tensor "
                     "encoder.mixer_b)", id="odd-hex-digits"),
        pytest.param(lambda lines: with_row(
                         lines, "encoder.mixer_w",
                         lines[value_row(lines, "encoder.mixer_w")].upper()),
                     "line 19 is the values of tensor encoder.mixer_w, where "
                     "save writes other text", id="upper-case-hex"),
        # the encoder.mixer_b block again, before the digest
        pytest.param(lambda lines: [*lines[:-2], *lines[15:17], *lines[-2:]],
                     "line 40 is 'tensor encoder.mixer_b 1 5\\n', where save "
                     "writes 'sha256 ", id="tensor-listed-twice"),
        pytest.param(lambda lines: [*lines[:-2], lines[-1]],
                     "line 40 is 'end\\n', where save writes 'sha256 ",
                     id="digest-missing"),
        pytest.param(lambda lines: ["kcoref-checkpoint vX", *lines[1:]],
                     "unsupported checkpoint version 'X'",
                     id="non-numeric-version"),
    ])
    def test_rejects_a_malformed_v2_file(self, tmp_path, edit, problem):
        lines = checkpoint_lines(2)
        edited = edit(lines)
        assert edited != lines
        path = tmp_path / "malformed.ckpt"
        message = rejected(path, edited)
        assert message.startswith(f"{path}: ") and problem in message

    def test_v2_digest_catches_a_changed_value(self, tmp_path):
        """A value row that still parses, and that `save` writes for the
        changed value, fails on the digest line."""
        lines = checkpoint_lines(2)
        row = value_row(lines, "encoder.attention_w")
        digit = "2" if lines[row][0] != "2" else "3"
        lines[row] = digit + lines[row][1:]
        body = "\n".join(lines[:-2]) + "\n"
        path = tmp_path / "changed.ckpt"
        assert rejected(path, lines) == (
            f"{path}: line 40 is {lines[-2] + chr(10)!r}, where save writes "
            f"'sha256 {hashlib.sha256(body.encode()).hexdigest()}\\n'")

    @given(data=st.data())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_no_single_byte_mutation_of_a_v2_file_loads(self,
                                                       tmp_path_factory,
                                                       data):
        original = "\n".join(checkpoint_lines(2)).encode() + b"\n"
        path = tmp_path_factory.getbasetemp() / "mutated-v2.ckpt"
        path.write_bytes(mutated(original, data.draw))
        with pytest.raises(TrainingError, match=f"^{re.escape(str(path))}: "):
            ParameterStore.load(path)

    @given(data=st.data())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_a_v1_file_loads_only_as_its_own_v1_text(self, tmp_path_factory,
                                                     data):
        """A single-byte mutation of a v1 file fails, or is itself the v1
        text of the store it loads."""
        bad = mutated(V1_CHECKPOINT.read_bytes(), data.draw)
        path = tmp_path_factory.getbasetemp() / "mutated-v1.ckpt"
        path.write_bytes(bad)
        try:
            store = ParameterStore.load(path)
        except TrainingError as exc:
            assert str(exc).startswith(f"{path}: ")
        else:
            assert store.checkpoint_text(1).encode("utf-8") == bad

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

    def test_infinite_finite_differences_fail_their_tensor(self):
        # the loss is +inf once any coordinate of w1 rises above its start,
        # so every central difference on w1 is infinite
        store = init_parameters(CONFIG, VOCAB, seed=6)
        start = store.tensors["scorer.mention.w1"].copy()

        @O.on_tape
        def build(enc, scoring, scaffold):
            w = scoring.mention.w1
            wall = math.inf if (w.value > start).any() else 0.0
            return (w * w).sum() + (enc.embeddings * enc.embeddings).sum() \
                + wall

        report = gradient_check(store, build, threshold=1e-4)
        assert report.per_tensor["scorer.mention.w1"] == math.inf
        assert report.per_tensor["encoder.embeddings"] < 1e-8
        assert not report.passed
        assert re.search(r"scorer\.mention\.w1 +max_rel_err=inf FAIL",
                         report.summary())
        assert report.summary().endswith("overall: FAIL")

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
