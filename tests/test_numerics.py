import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from seqcast import numerics
from seqcast.models import ModelConfig, Params
from seqcast.numerics import (
    init_xavier,
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
    @given(st.floats(width=32, allow_nan=False, allow_infinity=False))
    @example(0.0)
    @example(1e-45)
    @example(88.7)
    @example(-88.7)
    @example(104.0)
    @example(3.4e38)
    def test_sigmoid_complement_float32(self, v):
        # A float32 input is computed in float32, so the bound is its own ulp of 1.
        s = sigmoid(np.array([v, -v], dtype=np.float32))
        assert s.dtype == np.float32
        assert abs(s[0] + s[1] - np.float32(1.0)) <= 2**-23

    @settings(max_examples=300)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=8),
           st.sampled_from([np.float32, np.float64]))
    @example([0.0, -0.0], np.float64)
    @example([745.2, -745.2, 800.0, -800.0], np.float64)
    @example([float("inf"), float("-inf")], np.float64)
    @example([5e-324, -5e-324, 2.2250738585072009e-308, -1e-310], np.float64)
    @example([1e-45, -1e-45, 88.7, -104.0, 3.4e38], np.float32)
    def test_sigmoid_matches_half_tanh_form_bitwise(self, values, dtype):
        with np.errstate(over="ignore"):  # a float64 draw past float32's range is inf there
            x = np.array(values, dtype=dtype)
        half = dtype(0.5)
        expected = half * np.tanh(half * x) + half
        assert expected.dtype == dtype
        np.testing.assert_array_equal(sigmoid(x).view(np.uint8), expected.view(np.uint8))

    def test_sigmoid_of_a_scalar(self):
        assert sigmoid(0.0) == 0.5 and sigmoid(np.float32(800.0)) == np.float32(1.0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_in_place_has_the_same_bits(self, dtype, rng):
        x = (rng.normal(size=(7, 5)) * 10).astype(dtype)
        expected = sigmoid(x)
        out = sigmoid(x[2:], out=x[2:])
        assert np.shares_memory(out, x)
        np.testing.assert_array_equal(x[2:].view(np.uint8), expected[2:].view(np.uint8))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int64])
    def test_float32_stays_float32_and_the_rest_is_float64(self, dtype):
        x = np.arange(6, dtype=dtype).reshape(2, 3)
        want = np.float32 if dtype == np.float32 else np.float64
        assert sigmoid(x).dtype == want and softmax_rows(x).dtype == want

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

    @settings(max_examples=100)
    @given(hnp.arrays(st.sampled_from([np.float32, np.float64]),
                      hnp.array_shapes(min_dims=1, max_dims=4, max_side=7),
                      elements=st.floats(allow_nan=False, allow_infinity=False, width=32)))
    @example(np.array([[3e38, -3e38, 0.0]], dtype=np.float32))
    def test_softmax_into_its_input_has_the_bits_of_a_new_array(self, x):
        before = x.copy()
        with np.errstate(over="ignore"):  # a row spanning +-3e38 in float32 shifts to -inf
            fresh = softmax_rows(x)
            assert x.tobytes() == before.tobytes()  # without out, x is left alone
            assert softmax_rows(x, out=x) is x
        assert x.dtype == fresh.dtype and x.tobytes() == fresh.tobytes()


class TestBuffer:
    def test_without_a_workspace_every_call_makes_a_new_array(self):
        a, b = (numerics.buffer(None, "x", (2, 3), np.float32) for _ in range(2))
        assert (a.shape, a.dtype) == ((2, 3), np.float32) and not np.shares_memory(a, b)

    def test_a_workspace_hands_out_its_memory_while_it_is_enough(self):
        workspace = {}
        full = numerics.buffer(workspace, "x", (4, 3), np.float64)
        assert list(workspace) == ["x"] and workspace["x"].nbytes == full.nbytes
        short = numerics.buffer(workspace, "x", (2, 3), np.float64)
        narrow = numerics.buffer(workspace, "x", (4, 3), np.float32)
        assert (short.shape, narrow.dtype) == ((2, 3), np.float32)
        assert all(np.shares_memory(a, workspace["x"]) for a in (full, short, narrow))
        grown = numerics.buffer(workspace, "x", (5, 3), np.float64)
        assert np.shares_memory(grown, workspace["x"]) and not np.shares_memory(grown, full)


class TestSampleSum:
    @settings(max_examples=40, deadline=None)
    @given(
        dtype=st.sampled_from([np.float32, np.float64]),
        n=st.integers(1, 40), k=st.integers(1, 70), i=st.integers(1, 9), j=st.integers(1, 9),
        seed=st.integers(0, 2**16),
    )
    def test_adds_one_product_per_sample_in_sample_order(self, dtype, n, k, i, j, seed):
        rng = np.random.default_rng(seed)
        a, b = rng.normal(size=(n, k, i)).astype(dtype), rng.normal(size=(n, k, j)).astype(dtype)
        products = [a[sample].T @ b[sample] for sample in range(n)]
        want = products[0]
        for product in products[1:]:
            want = want + product
        if i * j == 1:  # NumPy sums a run of scalars pairwise, still by n alone
            want = np.sum(products, axis=0)
        workspace = {}
        for got in (numerics.sample_sum(a, b), numerics.sample_sum(a, b, workspace)):
            assert got.dtype == dtype and got.tobytes() == want.tobytes()
        assert list(workspace) == ["products"]


class TestInitXavier:
    def test_deterministic_given_seed(self):
        a = init_xavier(np.random.default_rng(42), 5, 7)
        b = init_xavier(np.random.default_rng(42), 5, 7)
        assert np.array_equal(a, b)

    def test_entries_within_bound(self):
        rows, cols = 13, 9
        bound = np.sqrt(6.0 / (rows + cols))
        m = init_xavier(np.random.default_rng(3), rows, cols)
        assert np.all(np.abs(m) <= bound)

    def test_large_sample_mean_near_zero(self):
        rows, cols = 100, 100
        bound = np.sqrt(6.0 / (rows + cols))
        m = init_xavier(np.random.default_rng(5), rows, cols)
        assert abs(m.mean()) < 0.01 * bound


def small_params(theta):
    """A 14-value LSTM Params: the grad check only walks its named arrays."""
    return Params(ModelConfig("lstm", hidden=1), theta)


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
    m = init_xavier(np.random.default_rng(7), rows, cols)
    assert m.shape == (rows, cols)
    assert np.all(np.isfinite(m))
