import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcoref import model as m
from kcoref import training as tr
from kcoref.corpus import SpanRef, enumerate_candidate_spans
from kcoref.model import (CandidateSet, EncoderParams, FeedForward,
                          ModelConfig, ScoringParams,
                          build_span_representations, encode_tokens,
                          prune_mentions)

from oracles import (OrderingError, SpanRepresentation, Tensor,
                     antecedent_distribution, antecedent_window, attend_span,
                     build_span_representation, encode_tokens_reference,
                     enumerate_candidate_spans_reference,
                     feed_forward_backward_reference, feed_forward_reference,
                     finite_difference, layout_spans, mention_score,
                     pair_score, pair_scatter_reference,
                     pair_scores_reference, relative_error, softmax_by_hand,
                     span_layout_reference,
                     span_representations_backward_reference,
                     span_representations_reference)
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
        """A layout's arrays and the gather plans kept beside the caches:
        every caller of one length or candidate count reads the same
        arrays, so none may write them."""
        layout = m.enumerated_layout(7, LAYOUT_CONFIGS[0])
        plans = [getattr(layout, name) for name in LAYOUT_ARRAYS]
        plans += [m._window_rows(7, 2),
                  m.antecedent_pairs(5, 3).antecedent_grid,
                  m.antecedent_pairs(5, 3).positions]
        for array in plans:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    def test_gather_plans_are_built_once(self):
        rows = m._window_rows(4, 1)
        assert m._window_rows(4, 1) is rows
        assert rows.tolist() == [[0, 1, 2], [1, 2, 3], [2, 3, 4], [3, 4, 5]]
        pairs = m.antecedent_pairs(5, 3)
        assert m.antecedent_pairs(5, 3).antecedent_grid \
            is pairs.antecedent_grid
        assert m.antecedent_pairs(5, 3).positions is pairs.positions
        # Rows of 4 slots (3 window slots and the dummy): candidate k's
        # pairs fill its first min(k, 3) slots.
        assert pairs.positions.tolist() == [4, 8, 9, 12, 13, 14, 16, 17, 18]

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

    def test_equal_configs_share_one_entry(self):
        config = ModelConfig(d_token=7, max_span_width=4)
        twin = dataclasses.replace(config)
        assert twin is not config and twin == config
        assert m.enumerated_layout(11, twin) \
            is m.enumerated_layout(11, config)

    def test_a_miss_builds_no_config(self, monkeypatch):
        config = ModelConfig(max_span_width=2, width_bucket_edges=(1,))
        built = []
        monkeypatch.setattr(ModelConfig, "__post_init__",
                            lambda self: built.append(self))
        m.enumerated_layout.cache_clear()
        assert len(m.enumerated_layout(5, config)) == 9
        assert built == []


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
    # `positions` reads the pairs back out, in pair order.
    assert got.take(pairs.positions).tolist() == values.tolist()
    if padding == -1:
        assert pairs.antecedent_grid.tolist() == want
    if padding == -np.inf:
        assert pairs.slots(values).tolist() == want


@st.composite
def candidate_sum_cases(draw):
    """A pair table of 0-150 candidates with windows of 1-40, cut or not,
    and float rows to sum over it, some of whose entries are exact zeros,
    -0.0, +0.0 or both."""
    max_antecedents = draw(st.integers(1, 40))
    n = draw(st.integers(0, max_antecedents + 1) if draw(st.booleans())
             else st.integers(max_antecedents + 2, 150))
    pairs = m.antecedent_pairs(n, max_antecedents)
    n_pairs = len(pairs.mention)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    share = draw(st.sampled_from([0.0, 0.3, 0.9, 1.0]))
    signs = draw(st.sampled_from([(-0.0,), (0.0,), (-0.0, 0.0)]))

    def rows(count, width):
        values = rng.standard_normal((count + 1, width))
        zeros = rng.random(values.shape) < share
        values[zeros] = rng.choice(signs, size=int(zeros.sum()))
        values[-1] = 0.0
        return values

    width, d = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    return pairs, rows(2 * n_pairs, width), rows(n, d), rows(n_pairs, d)


@given(candidate_sum_cases())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_candidate_sums_are_the_csr_product(case):
    """`AntecedentPairs.candidate_sums`, chunk by chunk over its gather
    plans, gives the bytes of the CSR one-hot of [mention, antecedent]
    times the per-pair rows, signed zeros included."""
    pairs, block, x_pad, factor = case
    scatter = pair_scatter_reference(pairs)
    partners = np.concatenate([x_pad[pairs.antecedent],
                               x_pad[pairs.mention]])
    partners *= np.concatenate([factor[:-1], factor[:-1]])
    sums, partner_sums = pairs.candidate_sums(block, x_pad, factor)
    assert sums.tobytes() == (scatter @ block[:-1]).tobytes()
    assert partner_sums.tobytes() == (scatter @ partners).tobytes()
    # The chunks cover the candidates in order, each within the row budget
    # unless it holds one candidate.
    chunks = [chunk for chunk, *_ in pairs.sum_plans]
    assert [k for c in chunks for k in range(c.start, c.stop)] \
        == list(range(len(pairs.grid)))
    for _, *plan in pairs.sum_plans:
        assert plan[0].shape[1] == 1 or plan[0].size <= m.SUM_CHUNK_ROWS
        assert not any(array.flags.writeable for array in plan)


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


@st.composite
def forward_cases(draw):
    """A config, a document over a vocabulary that misses some of its
    tokens, and a parameter seed."""
    config = ModelConfig(d_token=draw(st.integers(1, 5)),
                         d_width=draw(st.integers(0, 3)),
                         window_radius=draw(st.integers(0, 2)),
                         scorer_hidden=draw(st.sampled_from([0, 3])),
                         max_span_width=draw(st.integers(1, 10)),
                         max_antecedents=draw(st.integers(1, 5)),
                         width_bucket_edges=(1, 2, 4))
    tokens = draw(st.lists(st.sampled_from(["a", "b", "c", "zz"]),
                           min_size=1, max_size=16))
    return config, tokens, draw(st.integers(0, 2 ** 32 - 1)), \
        draw(st.integers(2, 9))


def assert_same_bytes(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@given(forward_cases())
@settings(max_examples=80, deadline=None, derandomize=True)
def test_forward_is_byte_identical_to_its_slice_forms(case):
    """The forward's `take` gathers, window and boundary plans and in-place
    layer arithmetic give the bytes of the slice, `concatenate`,
    fancy-index and out-of-place forms (`oracles`), for windows of radius
    0-2, spans up to 10 wide, linear and tanh heads, and 0, 1 or more
    candidates."""
    config, tokens, seed, most = case
    rng = np.random.default_rng(seed)
    store = tr.init_parameters(config, (m.UNK_TOKEN, "a", "b"), seed=seed)
    for array in store.tensors.values():
        array += rng.normal(size=array.shape)
    enc, scoring, _ = store.groups
    doc = make_doc(tokens)
    token_vecs, _ = encode_tokens(doc, enc)
    assert_same_bytes(token_vecs, encode_tokens_reference(doc, enc))

    enumerated = m.enumerated_layout(len(doc), config)
    some = rng.permutation(len(enumerated))[:rng.integers(1, 8)]
    # The enumerated layout last: the candidates are drawn from its rows.
    layouts = [m.span_layout(enumerated.starts[some], enumerated.ends[some],
                             config), enumerated]
    for layout in layouts:
        reps, _ = build_span_representations(token_vecs, layout, enc)
        assert_same_bytes(reps, span_representations_reference(
            token_vecs, layout, enc))
        scores, _ = m.mention_scores(reps, scoring)
        assert_same_bytes(scores, feed_forward_reference(scoring.mention,
                                                         reps))
    for k in sorted({0, 1, min(most, len(reps))}):
        chosen = np.sort(rng.choice(len(reps), size=k, replace=False))
        x, s = reps[chosen], scores[chosen]
        pairs = m.antecedent_pairs(k, config.max_antecedents)
        got, _ = m.pair_scores(x, s, pairs.mention, pairs.antecedent,
                               scoring.antecedent)
        assert_same_bytes(got, pair_scores_reference(
            x, s, pairs.mention, pairs.antecedent, scoring.antecedent))


SHARES = ("none", "one", "some", "all")


@given(forward_cases(), st.sampled_from(SHARES))
@settings(max_examples=80, deadline=None, derandomize=True)
def test_backward_is_byte_identical_to_its_fancy_index_forms(case, share):
    """The span-representation and mention-head backwards, with their
    `take` gathers, column maxima and in-place layer gradients, give every
    gradient's bytes of the fancy-index, out-of-place forms (`oracles`),
    for spans up to 10 wide, linear and tanh heads, and no live row, one,
    some or all of them."""
    config, tokens, seed, _ = case
    assert_backward_bytes(config, tokens, seed, share)


@pytest.mark.parametrize("max_span_width", [8, 9, 10])
@pytest.mark.parametrize("hidden", [0, 3])
@pytest.mark.parametrize("share", SHARES)
def test_wide_span_backward_matches_bytes(max_span_width, hidden, share):
    """Slots of 8 and more, where numpy's sums over a row turn pairwise."""
    config = ModelConfig(d_token=3, d_width=2, window_radius=1,
                         scorer_hidden=hidden, max_span_width=max_span_width,
                         width_bucket_edges=(1, 2, 4))
    tokens = ["a", "b", "zz", "c"] * 3
    assert_backward_bytes(config, tokens, max_span_width + hidden, share)


def assert_backward_bytes(config, tokens, seed, share):
    rng = np.random.default_rng(seed)
    store = tr.init_parameters(config, (m.UNK_TOKEN, "a", "b"), seed=seed)
    for array in store.tensors.values():
        array += rng.normal(size=array.shape)
    enc, scoring, _ = store.groups
    grad_enc, grad_scoring, _ = tr.group_parameters(
        store.named(np.zeros(store.buffer().size)), store)
    token_vecs, _ = encode_tokens(make_doc(tokens), enc)
    layout = m.enumerated_layout(len(tokens), config)
    n = len(layout)
    k = {"none": 0, "one": 1, "some": int(rng.integers(1, n + 1)),
         "all": n}[share]
    rows = np.sort(rng.choice(n, size=k, replace=False))

    reps, reps_backward = build_span_representations(token_vecs, layout, enc)
    g = rng.normal(size=(k, reps.shape[1]))
    got = (reps_backward(g, grad_enc, rows), grad_enc.attention_w,
           grad_enc.width_embeddings)
    want = span_representations_backward_reference(token_vecs, layout, enc,
                                                   g, rows)
    for got_array, want_array in zip(got, want, strict=True):
        assert_same_bytes(got_array, want_array)

    _, head_backward = m.mention_scores(reps, scoring)
    g_scores = np.zeros(n)
    g_scores[rows] = rng.normal(size=k)
    got_rows = head_backward(g_scores, grad_scoring.mention, rows)
    want_grad, want_rows = feed_forward_backward_reference(
        scoring.mention, reps, g_scores, rows)
    assert_same_bytes(got_rows, want_rows)
    for name in ("w1", "b1", "w2", "b2"):
        if getattr(want_grad, name) is not None:
            assert_same_bytes(getattr(grad_scoring.mention, name),
                              np.asarray(getattr(want_grad, name)))


# (d_token, d_width): the benchmark's shapes, and those of the document
# `x a x a x a x b` whose identical antecedents once scored an ulp apart.
ROW_STABLE_SHAPES = ((24, 4), (4, 2))


@st.composite
def row_stable_cases(draw):
    """Shapes, a head's hidden width (0 for a linear head), the number of
    units of a batch, rows before the first unit, the batch's row offset in
    its buffer, two or more units that hold the probe, and a seed."""
    n_units = draw(st.integers(2, 40))
    return (draw(st.sampled_from(ROW_STABLE_SHAPES)),
            draw(st.sampled_from([0, 16])), n_units, draw(st.integers(0, 3)),
            draw(st.integers(0, 5)),
            draw(st.lists(st.integers(0, n_units - 1), min_size=2,
                          max_size=4, unique=True)),
            draw(st.integers(0, 2**32 - 1)))


def batch_holding(block, n_units, lead, units, offset, rng):
    """A batch of `lead` random rows and then `n_units` units of
    `len(block)` rows, random but for the units `units`, which are copies of
    `block`: a view `offset` rows into its buffer, and each copy's first
    row."""
    k = len(block)
    buffer = rng.normal(size=(offset + lead + n_units * k, block.shape[1]))
    batch = buffer[offset:]
    starts = [lead + u * k for u in units]
    for start in starts:
        batch[start:start + k] = block
    return batch, np.array(starts)


def random_head(rng, d_in, hidden):
    if hidden == 0:
        return FeedForward(w1=rng.normal(size=d_in), b2=rng.normal(size=()))
    return FeedForward(w1=rng.normal(size=(d_in, hidden)),
                       b1=rng.normal(size=hidden), w2=rng.normal(size=hidden),
                       b2=rng.normal(size=()))


class TestRowStableScoring:
    """A span's or pair's score has the same bytes at any position of any
    batch of two rows or more, at any row offset of the batch in its
    buffer, and so do byte-identical rows of one batch: the tie rules of
    pruning and decoding rest on it.

    Every batch here, the two-unit one that gives the expected bytes too,
    has at least two rows in each product. A 1-row batch is left out: its
    hidden-layer product takes BLAS's gemv path, whose bytes may differ from
    a gemm row's, and it has no tie partner. On a BLAS whose gemm rows
    depend on their position these tests fail, as they should: the tie
    rules would no longer hold exactly.
    """

    @given(row_stable_cases())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_span_representations(self, case):
        """The attention logits, through the softmax of span
        representations over identical token windows."""
        (d, d_width), _, n_units, lead, offset, units, seed = case
        rng = np.random.default_rng(seed)
        width = int(rng.integers(2, 4))
        config = ModelConfig(d_token=d, d_width=d_width)
        enc = encoder(np.zeros((1, d)), attention=rng.normal(size=d),
                      width_emb=rng.normal(size=(6, d_width)))
        window = rng.normal(size=(width, d))

        def reps(n_units, lead, units, offset):
            vecs, starts = batch_holding(window, n_units, lead, units,
                                         offset, rng)
            layout = m.span_layout(starts, starts + width - 1, config)
            return build_span_representations(vecs, layout, enc)[0]

        want = reps(2, 0, [0], 0)[0]
        for row in reps(n_units, lead, units, offset):
            assert_same_bytes(row, want)

    @given(row_stable_cases())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_mention_scores(self, case):
        (d, d_width), hidden, n_units, lead, offset, units, seed = case
        rng = np.random.default_rng(seed)
        span_dim = 3 * d + d_width
        scoring = ScoringParams(random_head(rng, span_dim, hidden), None)
        rep = rng.normal(size=(1, span_dim))

        def scores(n_units, lead, units, offset):
            batch, starts = batch_holding(rep, n_units, lead, units, offset,
                                          rng)
            return m.mention_scores(batch, scoring)[0][starts]

        want = scores(2, 0, [0], 0)[0]
        for score in scores(n_units, lead, units, offset):
            assert_same_bytes(score, want)

    @given(row_stable_cases(), st.integers(0, 30))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_pair_scores(self, case, n_other):
        """A pair of an antecedent row and a mention row, both copied to
        the same units of the candidates, at random places among other
        pairs: each copy of the rows pairs with each other copy."""
        (d, d_width), hidden, n_units, lead, offset, units, seed = case
        rng = np.random.default_rng(seed)
        span_dim = 3 * d + d_width
        head = random_head(rng, 3 * span_dim, hidden)
        # Each unit is an antecedent row and then a mention row.
        block = rng.normal(size=(2, span_dim))
        block_s = rng.normal(size=(2, 1))

        def pair_scores(n_units, lead, units, offset, n_other):
            x, starts = batch_holding(block, n_units, lead, units, offset,
                                      rng)
            s = batch_holding(block_s, n_units, lead, units, offset,
                              rng)[0][:, 0]
            probes = [(a + 1, b) for a in starts for b in starts]
            n_pairs = len(probes) + n_other
            mention = rng.integers(0, len(x), size=n_pairs)
            antecedent = rng.integers(0, len(x), size=n_pairs)
            at = rng.permutation(n_pairs)[:len(probes)]
            mention[at], antecedent[at] = np.array(probes).T
            scores, _ = m.pair_scores(x, s, mention, antecedent, head)
            return scores[at]

        want = pair_scores(2, 0, [0], 0, 1)[0]
        for score in pair_scores(n_units, lead, units, offset, n_other):
            assert_same_bytes(score, want)


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


# The antecedent head's tensors, and the per-candidate sums of its backward
# with their gather plans.
HEAD_ATTRIBUTES = {"w1", "b1", "w2", "b2", "candidate_sums", "sum_plans"}


def test_only_the_model_reads_the_antecedent_head():
    """s(i, j) and its backward live in `model.pair_scores` alone: no file
    of src/kcoref but model.py reads a `FeedForward` tensor,
    `AntecedentPairs.candidate_sums` or its `sum_plans`, so the losses and
    decoding cannot re-derive the head."""
    outside = [f"{name}:{node.lineno} reads .{node.attr} in "
               f"{'.'.join(scope) or '<module>'}"
               for name, node, scope in src_nodes()
               if isinstance(node, ast.Attribute)
               and node.attr in HEAD_ATTRIBUTES and name != "model.py"]
    assert not outside, outside
