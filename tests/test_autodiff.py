import numpy as np
import pytest

import oracles as O
from oracles import finite_difference, relative_error, softmax


def check_grad(build, shapes, seed=0, eps=1e-5, tol=1e-6):
    """Compare tape gradients of build(*tensors) against central differences."""
    rng = np.random.default_rng(seed)
    values = [rng.normal(size=shape) for shape in shapes]
    tensors = [O.Tensor.param(v.copy()) for v in values]
    out = build(*tensors)
    out.backward()
    for i, (t, v) in enumerate(zip(tensors, values)):
        def f(x, i=i):
            args = [O.Tensor(values[j]) if j != i else O.Tensor(x)
                    for j in range(len(values))]
            args[i].requires_grad = True
            return float(build(*args).value)

        numeric = finite_difference(f, v.copy(), eps=eps)
        assert t.grad is not None
        for a, n in zip(np.ravel(t.grad), np.ravel(numeric)):
            assert relative_error(a, n) < tol


def test_add_mul_broadcast():
    check_grad(lambda a, b: (a * b + a).sum(), [(3, 4), (4,)])
    check_grad(lambda a, b: (a + b * 2.0).sum(), [(2, 1, 3), (3,)])


def test_sub_div_pow():
    check_grad(lambda a, b: ((a - b) / (b * b + 3.0)).sum(), [(5,), (5,)])
    check_grad(lambda a: (a**3).sum(), [(4,)])


def test_matmul_all_arities():
    check_grad(lambda a, b: (a @ b).sum(), [(3, 4), (4, 2)])
    check_grad(lambda a, b: (a @ b).sum(), [(3, 4), (4,)])
    check_grad(lambda a, b: (a @ b).sum(), [(4,), (4, 2)])
    check_grad(lambda a, b: a @ b, [(4,), (4,)])


def test_unary_ops():
    check_grad(lambda a: a.exp().sum(), [(3, 2)])
    check_grad(lambda a: (a * a + 1.0).log().sum(), [(4,)])
    check_grad(lambda a: a.tanh().sum(), [(6,)])
    check_grad(lambda a: (a * a + 0.5).sqrt().sum(), [(5,)])


def test_sqrt_zero_output_passes_zero_gradient():
    t = O.Tensor.param(np.array([0.0, 4.0, 0.0]))
    (t.sqrt() * O.Tensor(np.array([0.0, 1.0, 3.0]))).sum().backward()
    assert np.array_equal(t.grad, [0.0, 0.25, 0.0])
    # the norm of a zero vector: an upstream 0 reaches x through sqrt
    z = O.Tensor.param(np.zeros(3))
    ((z * z).sum().sqrt() * 0.0 + z.sum()).backward()
    assert np.array_equal(z.grad, np.ones(3))


def test_abs_away_from_kink():
    rng = np.random.default_rng(3)
    v = rng.normal(size=7) + np.sign(rng.normal(size=7)) * 0.5
    t = O.Tensor.param(v.copy())
    out = t.abs().sum()
    out.backward()
    numeric = finite_difference(lambda x: float(np.abs(x).sum()), v.copy())
    np.testing.assert_allclose(t.grad, numeric, rtol=1e-6)


def test_reductions_and_logsumexp():
    check_grad(lambda a: a.sum(axis=1).sum(), [(3, 4)])
    check_grad(lambda a: a.mean(axis=0).sum(), [(3, 4)])
    check_grad(lambda a: a.logsumexp(), [(6,)])
    check_grad(lambda a: a.logsumexp(axis=1).sum(), [(3, 5)])


def test_gather_and_slice():
    idx = np.array([[0, 2], [2, 2]])
    check_grad(lambda a: a.take(idx).sum(), [(3, 4)])
    check_grad(lambda a: a.narrow(1, 3).sum(), [(4, 2)])
    check_grad(lambda a: a.reshape(6).sum(), [(2, 3)])
    check_grad(lambda a: (a.transpose() @ a).sum(), [(3, 2)])


@pytest.mark.parametrize("shape, index", [
    ((7,), [3, 3, 0, 6, 3, 1, 3]),                       # repeated 1-D
    ((5, 4), [4, 0, 4, 4, 2, 0]),                        # 2-D rows
    ((6, 3), [[0, 1, 1], [5, 5, 5], [2, 0, 1], [1, 1, 4]]),  # (N, 3) index
])
def test_take_backward_matches_add_at(shape, index):
    rng = np.random.default_rng(4)
    idx = np.array(index)
    a = O.Tensor.param(rng.normal(size=shape))
    out = a.take(idx)
    upstream = rng.normal(size=out.shape)
    (out * O.Tensor(upstream)).sum().backward()
    expected = np.zeros(shape)
    np.add.at(expected, idx, upstream)
    assert np.array_equal(a.grad, expected)


def test_concat_stack():
    check_grad(lambda a, b: O.concat([a, b], axis=0).sum(), [(2, 3), (4, 3)])
    check_grad(lambda a, b: O.concat([a, b], axis=1).sum(), [(2, 3), (2, 1)])


def test_softmax_matches_hand_value():
    t = O.Tensor.param(np.array([1.0, 0.0]))
    s = softmax(t)
    np.testing.assert_allclose(s.value, [0.7310585786300049, 0.2689414213699951],
                               atol=1e-12)


def test_shared_node_gradient_accumulates():
    t = O.Tensor.param(np.array([2.0]))
    y = t * t + t * 3.0
    y.sum().backward()
    assert t.grad[0] == pytest.approx(2 * 2.0 + 3.0)


def test_constant_inputs_build_no_tape():
    a = O.Tensor(np.ones((3, 3)))
    b = O.Tensor(np.ones((3, 3)))
    out = (a @ b + a * 2.0).sum()
    assert not out.requires_grad
    assert out._parents == ()


def test_backward_requires_scalar():
    t = O.Tensor.param(np.ones(3))
    with pytest.raises(ValueError):
        (t * 2.0).backward()


def test_logsumexp_extreme_values_stable():
    t = O.Tensor.param(np.array([1000.0, 999.0, -1000.0]))
    out = t.logsumexp()
    assert np.isfinite(out.value)
    out.backward()
    assert np.all(np.isfinite(t.grad))
