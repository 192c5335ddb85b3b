import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcoref import model as m
from kcoref.corpus import SpanRef, enumerate_candidate_spans
from kcoref.model import (CandidateSet, EncoderParams, FeedForward,
                          ModelConfig, ScoringParams,
                          build_span_representations, encode_tokens,
                          prune_mentions)

from oracles import (OrderingError, SpanRepresentation, Tensor,
                     antecedent_distribution, antecedent_window, attend_span,
                     build_span_representation,
                     enumerate_candidate_spans_reference, finite_difference,
                     layout_spans, mention_score, pair_score, relative_error,
                     softmax_by_hand, span_layout_reference)
from test_corpus import make_doc


def layout_of(spans, config=None):
    return m.span_layout(np.array([s.start for s in spans]),
                         np.array([s.end for s in spans]),
                         config or ModelConfig())


def encoder(embeddings, radius=0, attention=None, width_emb=None,
            vocab=None, mixer=None, bias=None):
    embeddings = np.asarray(embeddings, dtype=np.float64)
    d = embeddings.shape[1]
    window = 2 * radius + 1
    if mixer is None:
        mixer = np.zeros((window * d, d))
        mixer[radius * d:(radius + 1) * d] = np.eye(d)  # identity on center
    if vocab is None:
        vocab = {m.UNK_TOKEN: 0}
        vocab.update({f"t{i}": i for i in range(1, embeddings.shape[0])})
    return EncoderParams(
        embeddings=embeddings,
        mixer_w=np.asarray(mixer, dtype=np.float64),
        mixer_b=bias if bias is not None else np.zeros(d),
        attention_w=attention if attention is not None else np.zeros(d),
        width_embeddings=width_emb if width_emb is not None
        else np.zeros((6, 2)),
        vocab=vocab)


def linear_scoring(mention_w, antecedent_w):
    return ScoringParams(
        mention=FeedForward(w1=np.asarray(mention_w, dtype=float),
                            b2=np.array(0.0)),
        antecedent=FeedForward(w1=np.asarray(antecedent_w, dtype=float),
                               b2=np.array(0.0)))


class TestEncodeTokens:
    def test_identity_mixer_returns_embedding_row(self):
        emb = np.array([[0.0, 0.0], [1.5, -2.0]])
        enc = encoder(emb, radius=0)
        doc = make_doc(["t1"])
        out, _ = encode_tokens(doc, enc)
        np.testing.assert_array_equal(out, [[1.5, -2.0]])

    def test_zero_embeddings_give_zero_vectors(self):
        enc = encoder(np.zeros((3, 4)), radius=1)
        doc = make_doc(["t1", "t2", "t1"])
        out, _ = encode_tokens(doc, enc)
        np.testing.assert_array_equal(out, np.zeros((3, 4)))

    def test_radius_zero_ignores_neighbors(self):
        rng = np.random.default_rng(0)
        emb = rng.normal(size=(4, 3))
        mixer = rng.normal(size=(3, 3))
        enc = encoder(emb, radius=0, mixer=mixer)
        out_a, _ = encode_tokens(make_doc(["t1", "t2"]), enc)
        out_b, _ = encode_tokens(make_doc(["t1", "t3"]), enc)
        np.testing.assert_array_equal(out_a[0], out_b[0])

    def test_window_limits_dependence(self):
        rng = np.random.default_rng(1)
        emb = rng.normal(size=(6, 2))
        mixer = rng.normal(size=(3 * 2, 2))
        enc = encoder(emb, radius=1, mixer=mixer)
        base, _ = encode_tokens(make_doc(["t1", "t2", "t3", "t4"]), enc)
        far, _ = encode_tokens(make_doc(["t1", "t2", "t3", "t5"]), enc)
        np.testing.assert_array_equal(base[:2], far[:2])
        assert not np.array_equal(base[3], far[3])

    def test_unknown_token_uses_unk_row(self):
        emb = np.array([[9.0, 9.0], [1.0, 1.0]])
        enc = encoder(emb, radius=0)
        out, _ = encode_tokens(make_doc(["never-seen"]), enc)
        np.testing.assert_array_equal(out, [[9.0, 9.0]])


class TestAttendSpan:
    def test_single_token_span_returns_its_vector(self):
        vecs = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        enc = encoder(np.zeros((1, 2)))
        out = attend_span(vecs, SpanRef(1, 1), enc)
        np.testing.assert_allclose(out.value, [3.0, 4.0])

    def test_zero_attention_is_arithmetic_mean(self):
        vecs = Tensor(np.array([[1.0, 0.0], [0.0, 2.0]]))
        enc = encoder(np.zeros((1, 2)))
        out = attend_span(vecs, SpanRef(0, 1), enc)
        np.testing.assert_allclose(out.value, [0.5, 1.0])

    def test_hand_softmax_logits_one_zero(self):
        u = np.array([1.0, 0.0, 0.0])
        v = np.array([0.0, 1.0, 0.0])
        # attention vector picks coordinate 2 to produce logits (1, 0)
        vecs = Tensor(np.stack([u + np.array([0, 0, 1.0]), v]))
        enc = encoder(np.zeros((1, 3)), attention=np.array([0.0, 0.0, 1.0]))
        out = attend_span(vecs, SpanRef(0, 1), enc)
        w1, w2 = softmax_by_hand([1.0, 0.0])
        expected = w1 * (u + np.array([0, 0, 1.0])) + w2 * v
        np.testing.assert_allclose(out.value, expected, atol=1e-12)
        assert w1 == pytest.approx(0.7311, abs=1e-4)
        assert w2 == pytest.approx(0.2689, abs=1e-4)

    def test_output_in_convex_hull(self):
        rng = np.random.default_rng(3)
        vecs = Tensor(rng.normal(size=(5, 3)))
        enc = encoder(np.zeros((1, 3)), attention=rng.normal(size=3))
        out = attend_span(vecs, SpanRef(1, 4), enc).value
        lo = vecs.value[1:5].min(axis=0) - 1e-12
        hi = vecs.value[1:5].max(axis=0) + 1e-12
        assert np.all(out >= lo) and np.all(out <= hi)


class TestSpanRepresentation:
    def test_width_one_boundaries_coincide(self):
        rng = np.random.default_rng(0)
        vecs = Tensor(rng.normal(size=(3, 4)))
        enc = encoder(np.zeros((1, 4)), width_emb=np.zeros((6, 2)))
        config = ModelConfig(d_token=4, d_width=2)
        rep = build_span_representation(vecs, SpanRef(1, 1), enc, config)
        np.testing.assert_array_equal(rep.boundary_start.value,
                                      rep.boundary_end.value)

    def test_full_dimension(self):
        vecs = Tensor(np.zeros((3, 4)))
        enc = encoder(np.zeros((1, 4)), width_emb=np.zeros((6, 2)))
        config = ModelConfig(d_token=4, d_width=2)
        rep = build_span_representation(vecs, SpanRef(0, 2), enc, config)
        assert rep.full.shape == (14,)

    def test_width_bucket_rule(self):
        vecs = Tensor(np.zeros((3, 4)))
        width_emb = np.arange(10).reshape(5, 2).astype(float)
        enc = encoder(np.zeros((1, 4)), width_emb=width_emb)
        config = ModelConfig(d_token=4, d_width=2,
                             width_bucket_edges=(1, 2, 3, 4))
        rep = build_span_representation(vecs, SpanRef(0, 2), enc, config)
        np.testing.assert_array_equal(rep.width_feature.value, width_emb[2])

    @given(st.integers(0, 6), st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_batched_matches_single(self, seed, span_pick):
        rng = np.random.default_rng(seed)
        vecs = Tensor(rng.normal(size=(6, 3)))
        enc = encoder(rng.normal(size=(2, 3)), attention=rng.normal(size=3),
                      width_emb=rng.normal(size=(6, 2)))
        config = ModelConfig(d_token=3, d_width=2)
        spans = [SpanRef(0, 0), SpanRef(0, 2), SpanRef(2, 5), SpanRef(4, 4)]
        batch, _ = build_span_representations(
            vecs.value, layout_of(spans, config), enc)
        span = spans[span_pick]
        row = spans.index(span)
        single = build_span_representation(vecs, span, enc, config)
        np.testing.assert_allclose(batch[row], single.full.value, atol=1e-12)
        np.testing.assert_allclose(batch[row, enc.internal_columns],
                                   single.internal.value, atol=1e-12)


@st.composite
def bucket_edges(draw):
    edges = draw(st.lists(st.integers(1, 9), min_size=1, max_size=5,
                          unique=True))
    return tuple(sorted(edges))


class TestSpanLayout:
    @settings(derandomize=True, deadline=None, max_examples=80)
    @given(n=st.integers(1, 14), max_width=st.integers(1, 18),
           edges=bucket_edges())
    def test_matches_the_span_list_reference(self, n, max_width, edges):
        config = ModelConfig(width_bucket_edges=edges,
                             max_span_width=max_width)
        doc = make_doc(["t"] * n)
        starts, ends = enumerate_candidate_spans(doc, max_width)
        spans = enumerate_candidate_spans_reference(doc, max_width)
        assert list(zip(starts.tolist(), ends.tolist())) \
            == [(s.start, s.end) for s in spans]
        got = m.span_layout(starts, ends, config)
        want = span_layout_reference(spans, config)
        for name in ("starts", "ends", "tokens", "mask", "buckets"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), \
                name
            assert getattr(got, name).dtype == getattr(want, name).dtype
        assert len(got) == len(spans) and layout_spans(got) == spans

    def test_empty_document_has_no_spans_to_lay_out(self):
        starts, ends = enumerate_candidate_spans(make_doc([]), 3)
        assert starts.shape == ends.shape == (0,)
        assert starts.dtype == ends.dtype == np.intp
        with pytest.raises(ValueError, match="no spans"):
            m.span_layout(starts, ends, ModelConfig())

    def test_candidate_spans_build_only_the_kept_rows(self):
        layout = layout_of([SpanRef(0, 0), SpanRef(0, 1), SpanRef(1, 1)])
        kept = CandidateSet(layout, np.array([0, 2]))
        assert kept.spans == [SpanRef(0, 0), SpanRef(1, 1)]
        assert not hasattr(layout, "spans")


LAYOUT_CONFIGS = (ModelConfig(max_span_width=3, width_bucket_edges=(1, 2)),
                  ModelConfig(max_span_width=10,
                              width_bucket_edges=(1, 2, 3, 4, 7)))
LAYOUT_ARRAYS = ("starts", "ends", "tokens", "mask", "buckets")


class TestEnumeratedLayout:
    @pytest.mark.parametrize("config", LAYOUT_CONFIGS)
    def test_matches_a_fresh_layout_of_the_enumerated_spans(self, config):
        for n in range(1, 41):
            got = m.enumerated_layout(n, config)
            want = m.span_layout(*enumerate_candidate_spans(
                make_doc(["t"] * n), config.max_span_width), config)
            for name in LAYOUT_ARRAYS:
                assert np.array_equal(getattr(got, name),
                                      getattr(want, name)), (n, name)
                assert getattr(got, name).dtype == getattr(want, name).dtype
            assert m.enumerated_layout(n, config) is got

    def test_arrays_are_read_only(self):
        layout = m.enumerated_layout(7, LAYOUT_CONFIGS[0])
        for name in LAYOUT_ARRAYS:
            with pytest.raises(ValueError, match="read-only"):
                getattr(layout, name)[0] = 0

    def test_configs_of_one_length_do_not_share_an_entry(self):
        first, second = (m.enumerated_layout(12, c) for c in LAYOUT_CONFIGS)
        assert first is not second
        assert len(first) != len(second)
        same_width = ModelConfig(max_span_width=3,
                                 width_bucket_edges=(1, 3))
        third = m.enumerated_layout(12, same_width)
        assert third is not first
        assert np.array_equal(third.starts, first.starts)
        assert not np.array_equal(third.buckets, first.buckets)

    def test_a_bucket_edge_list_keys_like_its_tuple(self):
        config = ModelConfig(max_span_width=3, width_bucket_edges=[1, 2])
        assert m.enumerated_layout(9, config) \
            is m.enumerated_layout(9, LAYOUT_CONFIGS[0])


class TestMentionScore:
    def test_zero_weights_score_zero(self):
        scoring = linear_scoring(np.zeros(14), np.zeros(42))
        rep = Tensor(np.ones(14))
        assert float(mention_score(rep, scoring).value) == 0.0

    def test_linear_scorer_reads_coordinate(self):
        w = np.arange(14.0)
        scoring = linear_scoring(w, np.zeros(42))
        h = np.zeros(14)
        h[5] = 1.0
        assert float(mention_score(Tensor(h), scoring).value) == 5.0

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        w = rng.normal(size=8)
        h = rng.normal(size=8)

        def f(weights):
            scoring = linear_scoring(weights, np.zeros(24))
            return float(mention_score(Tensor(h), scoring).value)

        t = Tensor.param(w.copy())
        scoring = ScoringParams(
            mention=FeedForward(w1=t, b2=Tensor(0.0)),
            antecedent=FeedForward(w1=np.zeros(24), b2=np.array(0.0)))
        out = mention_score(Tensor(h), scoring)
        out.backward()
        numeric = finite_difference(f, w.copy())
        for a, n in zip(t.grad, numeric):
            assert relative_error(a, n) < 1e-4


class TestPrune:
    def test_lambda_one_keeps_all(self):
        doc = make_doc(["a"] * 4)
        spans = [SpanRef(i, i) for i in range(4)]
        kept = prune_mentions(doc, layout_of(spans), np.arange(4.0), 1.0)
        assert kept.spans == spans

    def test_ceiling_rule(self):
        doc = make_doc(["a"] * 10)
        spans = [SpanRef(i, i) for i in range(10)]
        kept = prune_mentions(doc, layout_of(spans), np.arange(10.0), 0.4)
        assert len(kept) == 4

    def test_ties_keep_position_order(self):
        doc = make_doc(["a"] * 10)
        spans = [SpanRef(i, i) for i in range(10)]
        kept = prune_mentions(doc, layout_of(spans), np.zeros(10), 0.4)
        assert kept.spans == spans[:4]

    def test_result_sorted_by_position(self):
        doc = make_doc(["a"] * 6)
        spans = [SpanRef(i, i) for i in range(6)]
        scores = np.array([0.0, 5.0, 1.0, 4.0, 2.0, 3.0])
        kept = prune_mentions(doc, layout_of(spans), scores, 0.5)
        assert kept.spans == sorted(kept.spans)
        assert kept.spans == [spans[1], spans[3], spans[5]]


class TestPairScore:
    def rep(self, span, h):
        h = Tensor(np.asarray(h, dtype=float))
        return SpanRepresentation(span, h, h, h, h, h)

    def test_zero_weight_scorers_give_zero(self):
        scoring = linear_scoring(np.zeros(3), np.zeros(9))
        s = pair_score(self.rep(SpanRef(2, 2), [1, 2, 3]),
                       self.rep(SpanRef(0, 0), [4, 5, 6]), scoring)
        assert float(s.value) == 0.0

    def test_sum_of_parts(self):
        # mention scorer reads h[0]; antecedent scorer reads product slot 0
        mention_w = np.array([1.0, 0.0, 0.0])
        antecedent_w = np.zeros(9)
        antecedent_w[6] = 0.25  # product block starts at 2 * 3
        scoring = linear_scoring(mention_w, antecedent_w)
        h_i = self.rep(SpanRef(2, 2), [1.0, 0.0, 0.0])
        h_j = self.rep(SpanRef(0, 0), [2.0, 0.0, 0.0])
        s = pair_score(h_i, h_j, scoring)
        assert float(s.value) == pytest.approx(1.0 + 2.0 + 0.25 * 2.0)

    def test_ordering_violation_raises(self):
        scoring = linear_scoring(np.zeros(3), np.zeros(9))
        with pytest.raises(OrderingError):
            pair_score(self.rep(SpanRef(0, 0), [1, 2, 3]),
                       self.rep(SpanRef(1, 1), [1, 2, 3]), scoring)


class TestAntecedentDistribution:
    def test_no_candidates_dummy_gets_all(self):
        probs = antecedent_distribution(np.array([]))
        np.testing.assert_allclose(probs, [1.0])

    def test_single_zero_candidate_splits_evenly(self):
        probs = antecedent_distribution(np.array([0.0]))
        np.testing.assert_allclose(probs, [0.5, 0.5])

    def test_hand_softmax_two_candidates(self):
        probs = antecedent_distribution(np.array([1.0, 0.0]))
        expected = softmax_by_hand([1.0, 0.0, 0.0])
        np.testing.assert_allclose(probs, expected, atol=1e-12)
        np.testing.assert_allclose(probs, [0.5761, 0.2119, 0.2119], atol=1e-4)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            antecedent_distribution(np.array([np.nan]))

    @given(st.lists(st.floats(-30, 30), min_size=0, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_sums_to_one(self, scores):
        probs = antecedent_distribution(np.array(scores))
        assert probs.min() >= 0
        assert abs(probs.sum() - 1.0) < 1e-12

    @given(st.lists(st.floats(-5, 5), min_size=1, max_size=6),
           st.floats(-10, 10))
    @settings(max_examples=60, deadline=None)
    def test_shift_applies_to_dummy_too(self, scores, shift):
        # Shifting all pair scores changes the distribution relative to the
        # fixed dummy; shifting scores AND dummy leaves it unchanged.
        base = antecedent_distribution(np.array(scores))
        shifted_all = np.concatenate([np.array(scores) + shift, [shift]])
        exps = np.exp(shifted_all - shifted_all.max())
        manual = exps / exps.sum()
        np.testing.assert_allclose(manual, base, atol=1e-9)


def test_antecedent_window_caps_lookback():
    assert list(antecedent_window(5, 3)) == [2, 3, 4]
    assert list(antecedent_window(2, 50)) == [0, 1]
    assert list(antecedent_window(0, 50)) == []


@given(st.integers(0, 9), st.integers(1, 6),
       st.sampled_from([(-np.inf, 0.0), (-1, -1), (False, False)]))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_slots_lay_per_pair_values_out_by_window(n, max_antecedents, extra):
    """Row k of `AntecedentPairs.slots` holds candidate k's window in order,
    then `padding` up to the widest window, then `dummy`, for any dtype."""
    padding, dummy = extra
    pairs = m.antecedent_pairs(n, max_antecedents)
    windows = [list(antecedent_window(k, max_antecedents)) for k in range(n)]
    # Each pair's value is its antecedent, cast to the padding's type.
    values = np.array([type(padding)(j) for w in windows for j in w],
                      dtype=np.asarray(padding).dtype)
    width = max(map(len, windows), default=0)
    want = [[type(padding)(j) for j in w] + [padding] * (width - len(w))
            + [dummy] for w in windows]
    got = pairs.slots(values, padding, dummy)
    assert got.dtype == values.dtype and got.shape == (n, width + 1)
    assert got.tolist() == want
    if padding == -np.inf:
        assert pairs.slots(values).tolist() == want


class TestModelConfigValidation:
    @pytest.mark.parametrize("field, value", [
        ("d_token", 0), ("d_width", -1), ("scorer_hidden", -1),
        ("max_span_width", 0), ("max_antecedents", -3),
        ("max_antecedents", 0), ("window_radius", -1),
    ])
    def test_out_of_range_sizes_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be >="):
            ModelConfig(**{field: value})

    @pytest.mark.parametrize("edges", [(4, 2, 1), (1, 1, 2), (0, 3),
                                       (-1, 2), (1, 2.5)])
    def test_bucket_edges_must_increase_strictly(self, edges):
        with pytest.raises(ValueError, match="width_bucket_edges"):
            ModelConfig(width_bucket_edges=edges)

    def test_smallest_valid_values_accepted(self):
        config = ModelConfig(d_token=1, d_width=0, window_radius=0,
                             scorer_hidden=0, max_span_width=1,
                             max_antecedents=1, width_bucket_edges=())
        assert config.n_width_buckets == 1
        assert config.span_dim == 3


def test_candidate_set_len():
    cs = CandidateSet(layout_of([SpanRef(0, 0), SpanRef(1, 2)]),
                      np.array([1]))
    assert len(cs) == 1
    assert cs.spans == [SpanRef(1, 2)]


# Each stage of the forward -> the src/kcoref functions that may call it.
FORWARD_CALLERS = {
    "mention_scores": {("model.py", "document_forward")},
    "prune_mentions": {("model.py", "document_forward")},
    "encode_tokens": {("model.py", "document_forward"),
                      ("toolkit.py", "span_internals")},
    "build_span_representations": {("model.py", "document_forward"),
                                   ("toolkit.py", "span_internals")},
}


def scoped_nodes(node: ast.AST, scope: tuple[str, ...] = ()):
    """Each node of `node`'s tree with the names of the classes and
    functions that enclose it."""
    for child in ast.iter_child_nodes(node):
        yield child, scope
        if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef)):
            yield from scoped_nodes(child, (*scope, child.name))
        else:
            yield from scoped_nodes(child, scope)


def src_nodes():
    """(file name, node, enclosing names) of every node in src/kcoref."""
    for path in sorted(Path(m.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node, scope in scoped_nodes(tree):
            yield path.name, node, scope


def stage_calls():
    """(file name, line, enclosing names, stage) of each call to a forward
    stage in src/kcoref, by bare name or attribute."""
    for name, node, scope in src_nodes():
        if isinstance(node, ast.Call):
            func = node.func
            stage = func.attr if isinstance(func, ast.Attribute) \
                else getattr(func, "id", None)
            if stage in FORWARD_CALLERS:
                yield name, node.lineno, scope, stage


def test_only_the_document_forward_runs_the_forward_stages():
    """Training and prediction share `model.document_forward`: no other
    function in src/kcoref scores or prunes mentions, and only
    `toolkit.span_internals` encodes and represents spans without it, so
    a second copy of the forward cannot come back unnoticed."""
    calls = list(stage_calls())
    outside = [f"{name}:{line} calls {stage} in {'.'.join(scope) or '<module>'}"
               for name, line, scope, stage in calls
               if (name, ".".join(scope)) not in FORWARD_CALLERS[stage]]
    assert not outside, outside
    assert {stage for name, _, scope, stage in calls
            if scope == ("document_forward",)} == set(FORWARD_CALLERS)


def test_only_antecedent_pairs_reads_its_slot_grid():
    """What grid entries P (padding) and P + 1 (the dummy) mean is known to
    `AntecedentPairs` alone: every other function in src/kcoref lays
    per-pair values out through `AntecedentPairs.slots`."""
    outside = [f"{name}:{node.lineno} in {'.'.join(scope) or '<module>'}"
               for name, node, scope in src_nodes()
               if isinstance(node, ast.Attribute) and node.attr == "grid"
               and (name, scope[:1]) != ("model.py", ("AntecedentPairs",))]
    assert not outside, outside
