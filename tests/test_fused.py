"""The closed-form stages of a doc-step against their composed-tape
references.

Each stage computes its value in plain numpy and every input gradient in
closed form; the references in `oracles` build the same function from
small ops of the reference tape. Values must agree to 1e-12 relative, and the gradients to 1e-12 of the
largest entry of the whole gradient (every parent's, flattened together):
a saturated softmax leaves some entries as small differences of O(1)
terms, which either side rounds on its own route.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcoref import losses as L
from kcoref import model as m
from kcoref.corpus import SpanRef

import oracles as O
from oracles import Tensor

TOL = 1e-12
SETTINGS = settings(derandomize=True, deadline=None, max_examples=60)


def largest(*arrays):
    return max(np.abs(a).max(initial=0.0) for a in arrays)


def assert_close(got, want, scale=None):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    scale = largest(got, want) if scale is None else scale
    assert np.abs(got - want).max(initial=0.0) <= TOL * scale


def gradients(build, values, upstream=None):
    """The value of build(*params) on the reference tape and the gradient
    of each param, with the output contracted against `upstream` when it is
    not a scalar."""
    params = [Tensor.param(np.array(v, dtype=np.float64)) for v in values]
    out = build(*params)
    loss = out if upstream is None else (out * Tensor(upstream)).sum()
    loss.backward()
    return out.value, [p.grad for p in params]


def closed_form(stage, values, upstream=None):
    """`stage(*arrays, upstream)`: the closed-form value and the gradient
    of each array, for the output's gradient `upstream` (1 for a scalar)."""
    return stage(*[np.array(v, dtype=np.float64) for v in values],
                 1.0 if upstream is None else upstream)


def assert_node_matches(stage, tape, values, upstream=None):
    value, grads = closed_form(stage, values, upstream)
    want_value, want_grads = gradients(tape, values, upstream)
    assert_close(value, want_value)
    scale = largest(*grads, *want_grads)
    for got, want in zip(grads, want_grads):
        assert_close(got, want, scale)


def assert_plain(value):
    """An inference pass builds no tape: a stage's value is plain numpy."""
    assert isinstance(value, (float, np.ndarray))


# ---------------------------------------------------------------------------
# Span representations


def span_case(n, d, d_width, spans, seed, scale=1.0):
    config = m.ModelConfig(d_token=d, d_width=d_width,
                           width_bucket_edges=(1, 2, 4))
    rng = np.random.default_rng(seed)
    values = [rng.normal(size=(n, d)), rng.normal(size=d) * scale,
              rng.normal(size=(config.n_width_buckets, d_width))]
    upstream = rng.normal(size=(len(spans), config.span_dim))
    layout = m.span_layout(np.array([s.start for s in spans]),
                           np.array([s.end for s in spans]), config)
    return layout, config, values, upstream


@st.composite
def span_cases(draw):
    n = draw(st.integers(1, 8))
    starts = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=12))
    widths = draw(st.lists(st.integers(0, 3), min_size=len(starts),
                           max_size=len(starts)))
    spans = sorted({SpanRef(s, min(s + w, n - 1))
                    for s, w in zip(starts, widths)})
    return span_case(n, draw(st.integers(1, 4)), draw(st.integers(0, 3)),
                     spans, draw(st.integers(0, 2**16)),
                     draw(st.sampled_from([0.0, 1.0, 30.0])))


SPANS = [SpanRef(0, 0), SpanRef(0, 2), SpanRef(1, 4), SpanRef(3, 3)]


def encoder(attention, width_embeddings):
    return m.EncoderParams(embeddings=np.zeros((1, 1)),
                           mixer_w=np.zeros((1, 1)), mixer_b=np.zeros(1),
                           attention_w=attention,
                           width_embeddings=width_embeddings, vocab={})


def span_stage(layout):
    def stage(x, a, table, upstream):
        reps, backward = m.build_span_representations(x, layout,
                                                      encoder(a, table))
        grad = encoder(np.zeros_like(a), np.zeros_like(table))
        g_x = backward(upstream, grad, np.arange(len(layout)))
        return reps, [g_x, grad.attention_w, grad.width_embeddings]

    return stage


class TestSpanRepresentations:
    @SETTINGS
    @given(case=span_cases())
    def test_value_and_gradients_match_the_tape(self, case):
        layout, config, values, upstream = case

        def tape(x, a, table):
            return O.span_representations_tape(x, layout, encoder(a, table))

        assert_node_matches(span_stage(layout), tape, values, upstream)

    def test_internal_is_the_third_block_of_full(self):
        layout, config, values, _ = span_case(5, 3, 2, SPANS, 1)
        d = config.d_token
        enc = dataclasses.replace(encoder(values[1], values[2]),
                                  embeddings=np.zeros((1, d)))
        reps, _ = m.build_span_representations(values[0], layout, enc)
        assert reps.shape == (len(layout), config.span_dim)
        assert enc.internal_columns == slice(2 * d, 3 * d)

    def test_constant_inputs_build_no_tape(self):
        layout, config, values, _ = span_case(5, 3, 2, SPANS, 2)
        reps, _ = m.build_span_representations(
            values[0], layout, encoder(values[1], values[2]))
        assert_plain(reps)


# ---------------------------------------------------------------------------
# Antecedent scoring and the coreference loss


def coref_case(k, extra_rows, d, hidden, max_antecedents, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    n_rows = k + extra_rows
    rows = rng.permutation(n_rows)[:k]
    cluster = rng.integers(-1, 3, size=k)
    pairs = m.antecedent_pairs(k, max_antecedents)
    # The gold and dummy marks of losses._coref_loss_graph.
    mention, antecedent = cluster[pairs.mention], cluster[pairs.antecedent]
    numer = pairs.slots((mention >= 0) & (mention == antecedent), False,
                        False)
    numer[:, -1] = ~numer.any(axis=1)
    values = [rng.normal(size=(n_rows, d)) * scale, rng.normal(size=n_rows)]
    if hidden:
        values += [rng.normal(size=(3 * d, hidden)), rng.normal(size=hidden),
                   rng.normal(size=hidden), rng.normal(size=())]
    else:
        values += [rng.normal(size=3 * d), rng.normal(size=())]
    return rows, pairs, numer, values


@st.composite
def coref_cases(draw):
    return coref_case(draw(st.integers(1, 8)), draw(st.integers(0, 4)),
                      draw(st.integers(1, 4)), draw(st.integers(0, 3)),
                      draw(st.integers(1, 8)), draw(st.integers(0, 2**16)),
                      draw(st.sampled_from([0.0, 1.0, 5.0])))


def head_of(params):
    if len(params) == 4:
        w1, b1, w2, b2 = params
        return m.FeedForward(w1=w1, b1=b1, w2=w2, b2=b2)
    return m.FeedForward(w1=params[0], b2=params[1])


def head_params(head):
    if head.w2 is None:
        return [head.w1, head.b2]
    return [head.w1, head.b1, head.w2, head.b2]


def coref_stage(rows, pairs, numer):
    def stage(full, scores, *rest):
        *head, upstream = rest
        value, backward = L.antecedent_nll(full, scores, rows, pairs, numer,
                                           head_of(head))
        g_full, g_scores = np.zeros_like(full), np.zeros_like(scores)
        grad = head_of([np.zeros_like(p) for p in head])
        backward(upstream, g_full, rows, g_scores, grad)
        return value, [g_full, g_scores, *head_params(grad)]

    return stage


class TestAntecedentNll:
    @SETTINGS
    @given(case=coref_cases())
    def test_value_and_gradients_match_the_tape(self, case):
        rows, pairs, numer, values = case

        def tape(full, scores, *head):
            return O.antecedent_nll_tape(full, scores, rows, pairs, numer,
                                         head_of(head))

        assert_node_matches(coref_stage(rows, pairs, numer), tape, values)

    def test_windows_cut_by_max_antecedents(self):
        rows, pairs, numer, values = coref_case(7, 2, 2, 3, 2, seed=3)
        assert pairs.grid.shape == (7, 3) and len(pairs.mention) == 11
        assert numer[:, :-1].any()
        assert_node_matches(
            coref_stage(rows, pairs, numer),
            lambda f, s, *h: O.antecedent_nll_tape(f, s, rows, pairs, numer,
                                                   head_of(h)), values)

    def test_single_candidate_has_no_pairs(self):
        rows, pairs = np.array([2]), m.antecedent_pairs(1, 5)
        numer = np.ones((1, 1), dtype=bool)
        values = [np.ones((3, 2)), np.ones(3), np.ones(6), np.ones(())]
        value, grads = closed_form(coref_stage(rows, pairs, numer), values)
        want_value, want_grads = gradients(
            lambda f, s, *h: O.antecedent_nll_tape(f, s, rows, pairs, numer,
                                                   head_of(h)), values)
        assert value == want_value == 0.0
        for got, want in zip(grads, want_grads):
            assert np.array_equal(got, want) and not got.any()

    def test_constant_inputs_build_no_tape(self):
        rows, pairs, numer, values = coref_case(5, 1, 3, 2, 2, seed=4)
        out, _ = L.antecedent_nll(values[0], values[1], rows, pairs, numer,
                                  head_of(values[2:]))
        assert_plain(out)

    def test_decode_and_training_share_the_pair_scores(self):
        rows, pairs, _, values = coref_case(6, 2, 3, 4, 3, seed=5)
        head = head_of(values[2:])
        x = values[0][rows]
        got = m.antecedent_scores(x, pairs.mention, pairs.antecedent,
                                  head).scores
        want = O.feed_forward_tape(head, O.pair_features(
            Tensor(x[pairs.mention]), Tensor(x[pairs.antecedent]))).value
        assert_close(got, want)


# ---------------------------------------------------------------------------
# The retrofitting gap


def gap_case(n_rows, d, offset, pool, n_pairs, seed):
    rng = np.random.default_rng(seed)
    rows = rng.permutation(n_rows)[:pool]
    first, second = np.nonzero(np.less.outer(np.arange(pool),
                                             np.arange(pool)))
    keep = np.sort(rng.permutation(len(first))[:n_pairs])
    full = rng.normal(size=(n_rows, offset + d + 2))
    targets = rng.choice([0.0, 0.7, 1.0, 1.5], size=len(keep))
    return (full, slice(offset, offset + d), rows, first[keep],
            second[keep], targets)


@st.composite
def gap_cases(draw):
    n_rows = draw(st.integers(2, 9))
    pool = draw(st.integers(2, n_rows))
    # From 2 columns: in one, every cosine is +-1 and its gradient is 0 up
    # to rounding on either side.
    return gap_case(n_rows, draw(st.integers(2, 4)), draw(st.integers(0, 3)),
                    pool, draw(st.integers(1, pool * (pool - 1) // 2)),
                    draw(st.integers(0, 2**16)))


def gap_nodes(columns, rows, first, second, targets):
    def stage(full, upstream):
        value, backward = L.mean_cosine_gap(full, columns, rows, first,
                                            second, targets)
        g_full = np.zeros_like(full)
        backward(upstream, g_full, rows)
        return value, [g_full]

    return (stage,
            lambda f: O.mean_cosine_gap_tape(f, columns, rows, first, second,
                                             targets))


class TestMeanCosineGap:
    @SETTINGS
    @given(case=gap_cases())
    def test_value_and_gradients_match_the_tape(self, case):
        full, *args = case
        assert_node_matches(*gap_nodes(*args), [full])

    def test_zero_norm_rows(self):
        full, columns, rows, first, second, targets = gap_case(
            8, 3, 2, pool=5, n_pairs=7, seed=6)
        zero = rows[first[0]]
        full[zero, columns] = 0.0
        stage, tape = gap_nodes(columns, rows, first, second, targets)
        value, (grad,) = closed_form(stage, [full])
        want_value, (want,) = gradients(tape, [full])
        assert_close(value, want_value)
        # Both routes pass no gradient through the zero norm and stay finite.
        assert np.isfinite(grad).all() and np.isfinite(want).all()
        assert_close(grad, want)

    def test_empty_pair_set_contributes_a_constant_zero(self, caplog):
        empty = L.PairSet("d0", np.zeros(0, dtype=np.intp),
                          np.zeros(0, dtype=np.intp),
                          np.zeros(0, dtype=np.intp))
        with caplog.at_level("WARNING"):
            out, backward, rows = L._retrofit_loss_graph(
                None, empty, np.ones((1, 5)), slice(2, 3), L.LossWeights(),
                "strict")
        assert out == 0.0
        assert backward is None and len(rows) == 0   # no gradient to pass on
        assert "empty pair set" in caplog.text

    def test_constant_inputs_build_no_tape(self):
        full, *args = gap_case(6, 2, 1, pool=4, n_pairs=4, seed=7)
        assert_plain(L.mean_cosine_gap(full, *args)[0])


# ---------------------------------------------------------------------------
# The scaffold loss


def concept_case(n_rows, d, offset, n_targets, n_classes, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    rows = rng.permutation(n_rows)[:n_targets]
    classes = rng.integers(0, n_classes, size=len(rows))
    values = [rng.normal(size=(n_rows, offset + d + 1)) * scale,
              rng.normal(size=(n_classes, d))]
    return slice(offset, offset + d), rows, classes, values


@st.composite
def concept_cases(draw):
    n_rows = draw(st.integers(1, 9))
    return concept_case(n_rows, draw(st.integers(1, 4)),
                        draw(st.integers(0, 3)),
                        draw(st.integers(1, n_rows)), draw(st.integers(1, 5)),
                        draw(st.integers(0, 2**16)),
                        draw(st.sampled_from([0.0, 0.5, 2.0])))


def concept_stage(columns, rows, classes):
    def stage(full, weights, upstream):
        value, backward = L.mean_concept_nll(full, columns, rows, classes,
                                             weights)
        g_full, g_weights = np.zeros_like(full), np.zeros_like(weights)
        backward(upstream, g_full, rows, g_weights)
        return value, [g_full, g_weights]

    return stage


class TestMeanConceptNll:
    @SETTINGS
    @given(case=concept_cases())
    def test_value_and_gradients_match_the_tape(self, case):
        columns, rows, classes, values = case
        assert_node_matches(
            concept_stage(columns, rows, classes),
            lambda f, w: O.mean_concept_nll_tape(f, columns, rows, classes,
                                                 w), values)

    def test_constant_inputs_build_no_tape(self):
        columns, rows, classes, values = concept_case(5, 2, 1, 3, 4, seed=8)
        assert_plain(L.mean_concept_nll(values[0], columns, rows, classes,
                                        values[1])[0])


# ---------------------------------------------------------------------------
# The reference tape


def test_misshapen_gradient_is_rejected():
    a = Tensor.param(np.ones(16))
    out = Tensor(np.array(1.0), True, (a,),
                 lambda g: a._accumulate(np.ones((1, 16))))
    with pytest.raises(ValueError, match=r"\(1, 16\).*\(16,\)"):
        out.backward()
