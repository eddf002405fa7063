import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from seqcast import numerics
from seqcast.models import Params
from seqcast.numerics import (
    init_xavier,
    make_rng,
    sigmoid,
    softmax_rows,
)

from gradcheck import grad_check


class TestActivations:
    def test_sigmoid_at_zero(self):
        assert sigmoid(np.array([0.0]))[0] == 0.5

    def test_sigmoid_saturates_without_overflow(self):
        out = sigmoid(np.array([-500.0, 500.0]))
        assert out[0] < 1e-200 and out[1] == 1.0
        assert np.all(np.isfinite(out))

    @settings(max_examples=300)
    @given(st.floats(allow_nan=False, allow_infinity=False))
    @example(0.0)
    @example(-0.0)
    @example(5e-324)
    @example(-2.2250738585072009e-308)
    @example(745.2)
    @example(-745.2)
    @example(800.0)
    @example(-800.0)
    @example(1e308)
    @example(-1e308)
    def test_sigmoid_complement(self, v):
        # The sum rounds to 1 or to a neighbour of 1, not always to 1 itself.
        s = sigmoid(np.array([v, -v]))
        assert abs(s[0] + s[1] - 1.0) <= 2**-52

    @settings(max_examples=300)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=8))
    @example([0.0, -0.0])
    @example([745.2, -745.2, 800.0, -800.0])
    @example([float("inf"), float("-inf")])
    @example([5e-324, -5e-324, 2.2250738585072009e-308, -1e-310])
    def test_sigmoid_matches_two_branch_form_bitwise(self, values):
        x = np.array(values)
        # the masked two-branch form: 1/(1+exp(-x)) for x >= 0, e^x/(1+e^x) below
        expected = np.empty_like(x)
        pos = x >= 0
        expected[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        expected[~pos] = ex / (1.0 + ex)
        np.testing.assert_array_equal(sigmoid(x).view(np.int64), expected.view(np.int64))

    def test_softmax_uniform_row(self):
        np.testing.assert_allclose(softmax_rows(np.zeros((1, 3))), np.full((1, 3), 1 / 3))

    def test_softmax_rows_sum_to_one(self, rng):
        x = rng.normal(size=(20, 7)) * 50
        sums = softmax_rows(x).sum(axis=1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-12)

    def test_softmax_shift_invariance(self, rng):
        x = rng.normal(size=(4, 5))
        np.testing.assert_allclose(softmax_rows(x), softmax_rows(x + 123.0), atol=1e-12)

    def test_softmax_extreme_values_stay_finite(self):
        out = softmax_rows(np.array([[1000.0, 0.0, -1000.0]]))
        assert np.all(np.isfinite(out))
        assert abs(out.sum() - 1.0) < 1e-12

    @settings(max_examples=200)
    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=4, max_side=7),
                      elements=st.floats(allow_nan=False, allow_infinity=False)))
    @example(np.array([[1000.0, 0.0, -1000.0]]))
    @example(np.array([1e308, -1e308, 0.0]))
    @example(np.array([[5e-324, -0.0, 0.0]]))
    def test_softmax_matches_three_temporary_form_bitwise(self, x):
        before = x.copy()
        with np.errstate(over="ignore"):  # a row spanning +-1e308 shifts to -inf
            shifted = x - x.max(axis=-1, keepdims=True)
            e = np.exp(shifted)
            expected = e / e.sum(axis=-1, keepdims=True)
            out = softmax_rows(x)
        np.testing.assert_array_equal(out.view(np.int64), expected.view(np.int64))
        np.testing.assert_array_equal(x.view(np.int64), before.view(np.int64))


class TestInitXavier:
    def test_deterministic_given_seed(self):
        a = init_xavier(make_rng(42), 5, 7)
        b = init_xavier(make_rng(42), 5, 7)
        assert np.array_equal(a, b)

    def test_entries_within_bound(self):
        rows, cols = 13, 9
        bound = np.sqrt(6.0 / (rows + cols))
        m = init_xavier(make_rng(3), rows, cols)
        assert np.all(np.abs(m) <= bound)

    def test_large_sample_mean_near_zero(self):
        rows, cols = 100, 100
        bound = np.sqrt(6.0 / (rows + cols))
        m = init_xavier(make_rng(5), rows, cols)
        assert abs(m.mean()) < 0.01 * bound

    def test_zero_dimension_rejected(self):
        with pytest.raises(ValueError):
            init_xavier(make_rng(0), 0, 4)


class TestRng:
    def test_equal_seeds_agree_on_many_draws(self):
        a = make_rng(99).random(1_000_000)
        b = make_rng(99).random(1_000_000)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(make_rng(1).random(10), make_rng(2).random(10))


def small_params(theta):
    """A 14-value LSTM Params: the grad check only walks its named arrays."""
    return Params("lstm", {"hidden": 1}, theta)


def half_square(p):
    return 0.5 * float(np.sum(p.theta**2))


class TestGradCheck:
    def test_quadratic_is_near_exact(self, rng):
        p = small_params(rng.normal(size=14))
        err = grad_check(half_square, p, small_params(p.theta.copy()))
        assert err < 1e-7

    def test_scaled_gradient_detected(self, rng):
        p = small_params(rng.normal(size=14) + 3.0)
        # |2g - g| / (|2g| + |g|) = 1/3 per coordinate
        err = grad_check(half_square, p, small_params(2.0 * p.theta))
        assert abs(err - 1 / 3) < 1e-3

    def test_nonfinite_loss_rejected(self):
        p = small_params(np.ones(14))

        def loss(p):
            return float("nan")

        with pytest.raises(ValueError):
            grad_check(loss, p, small_params(np.ones(14)))


@settings(max_examples=30)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6))
def test_xavier_shape_property(rows, cols):
    m = init_xavier(make_rng(7), rows, cols)
    assert m.shape == (rows, cols)
    assert np.all(np.isfinite(m))
