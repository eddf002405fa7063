import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqcast import stationarity
from seqcast.stationarity import (
    AdfResult,
    adf_test,
    default_max_lag,
    difference,
    mackinnon_pvalue,
)

# Oracle values computed offline with a reference statistical package
# (same sequences, constant-only regression) and frozen here.
RW_SEED, AR_SEED, WN_SEED, N = 40, 43, 44, 500
RW_LAG3_STAT = -1.5717581390448185
RW_LAG3_P = 0.49776293507665931
RW_AIC_STAT = -1.5960646282745599
RW_AIC_LAG = 0
RW_AIC_NOBS = 499
AR_LAG3_STAT = -9.6378986577511583
WN_LAG3_STAT = -10.966751170326082
WN_AIC_STAT = -23.736953933915164


def random_walk() -> np.ndarray:
    return np.cumsum(np.random.default_rng(RW_SEED).normal(size=N))


def ar_half() -> np.ndarray:
    g = np.random.default_rng(AR_SEED)
    eps = g.normal(size=N)
    y = np.empty(N)
    y[0] = 0.0
    for t in range(1, N):
        y[t] = 0.5 * y[t - 1] + eps[t]
    return y


def white_noise() -> np.ndarray:
    return np.random.default_rng(WN_SEED).normal(size=N)


class TestDifference:
    def test_constant_goes_to_zero(self):
        assert not difference(np.full(10, 3.3), 1).any()

    def test_known_values(self):
        np.testing.assert_array_equal(difference([1, 3, 6, 10], 1), [2.0, 3.0, 4.0])

    def test_twice_equals_order_two(self, rng):
        v = rng.normal(size=50)
        np.testing.assert_allclose(difference(difference(v, 1), 1), difference(v, 2), atol=1e-12)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            difference([1.0, 2.0], 2)

    def test_order_below_1_rejected(self):
        with pytest.raises(ValueError, match="order must be >= 1, got 0"):
            difference([1.0, 2.0, 3.0], 0)

    def test_2d_rejected(self):
        with pytest.raises(ValueError, match="difference expects a 1-D sequence"):
            difference(np.zeros((3, 2)))


def _mackinnon_pvalue_reference(statistic: float) -> float:
    """The hand-written Horner loop and normal CDF that mackinnon_pvalue replaced."""
    if statistic > 2.74:
        return 1.0
    if statistic < -18.83:
        return 0.0
    small = statistic <= -1.61
    coef = (2.1659, 1.4412, 0.038269) if small else (1.7339, 0.93202, -0.12745, -0.010368)
    poly = 0.0
    for c in reversed(coef):
        poly = poly * statistic + c
    return 0.5 * math.erfc(-poly / math.sqrt(2.0))


class TestMackinnonPvalue:
    def test_clamps(self):
        assert mackinnon_pvalue(3.0) == 1.0
        assert mackinnon_pvalue(-20.0) == 0.0

    def test_monotone_in_statistic(self):
        taus = np.linspace(-6.0, 1.0, 40)
        ps = [mackinnon_pvalue(t) for t in taus]
        assert all(a <= b + 1e-12 for a, b in zip(ps, ps[1:]))

    def test_in_unit_interval(self):
        for tau in np.linspace(-25, 5, 61):
            assert 0.0 <= mackinnon_pvalue(float(tau)) <= 1.0

    @given(st.floats(-20.0, 3.0))
    @example(-1.61)  # the switch between the two polynomials
    @example(math.nextafter(-1.61, math.inf))
    @example(-18.83)  # the clamps' edges
    @example(2.74)
    @example(-0.0)
    @settings(max_examples=500)
    def test_equals_horner_reference_bitwise(self, tau):
        assert mackinnon_pvalue(tau).hex() == _mackinnon_pvalue_reference(tau).hex()



class TestAdfOracle:
    def test_random_walk_fixed_lag_statistic(self):
        res = adf_test(random_walk(), fixed_lag=3)
        assert abs(res.statistic - RW_LAG3_STAT) < 1e-6
        assert abs(res.p_value - RW_LAG3_P) < 1e-6
        assert res.lags_used == 3

    def test_random_walk_fails_to_reject(self):
        assert adf_test(random_walk(), fixed_lag=3).p_value > 0.10
        assert adf_test(random_walk()).p_value > 0.10

    def test_random_walk_aic_selection(self):
        res = adf_test(random_walk())
        assert abs(res.statistic - RW_AIC_STAT) < 1e-6
        assert res.lags_used == RW_AIC_LAG
        assert res.n_obs == RW_AIC_NOBS

    def test_ar_half_fixed_lag_statistic(self):
        res = adf_test(ar_half(), fixed_lag=3)
        assert abs(res.statistic - AR_LAG3_STAT) < 1e-6

    def test_white_noise_rejects(self):
        res = adf_test(white_noise(), fixed_lag=3)
        assert abs(res.statistic - WN_LAG3_STAT) < 1e-6
        assert res.p_value < 0.01
        auto = adf_test(white_noise())
        assert abs(auto.statistic - WN_AIC_STAT) < 1e-6
        assert auto.p_value < 0.01


class TestAdfContracts:
    def test_shift_invariance(self):
        y = random_walk()
        a = adf_test(y, fixed_lag=2).statistic
        b = adf_test(y + 1000.0, fixed_lag=2).statistic
        assert abs(a - b) < 1e-9

    def test_constant_input_degenerate(self):
        with pytest.raises(ValueError, match="degenerate"):
            adf_test(np.full(100, 5.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, bad):
        y = random_walk()
        y[N // 2] = bad
        with pytest.raises(ValueError, match="finite"):
            adf_test(y)

    def test_2d_rejected(self):
        with pytest.raises(ValueError, match="adf_test expects a 1-D sequence"):
            adf_test(random_walk().reshape(-1, 2))

    @given(st.integers(7, 60), st.data())
    @settings(max_examples=40, deadline=None)
    def test_no_residual_degree_of_freedom_is_too_short(self, lag, data):
        # Lags >= 7 with n < 2 * lag + 4 leave the widest fit no residual.
        n = data.draw(st.integers(lag + 10, 2 * lag + 3))
        y = np.cumsum(np.random.default_rng(n).normal(size=n))
        with pytest.raises(ValueError, match="too short"):
            adf_test(y, fixed_lag=lag)
        adf_test(np.cumsum(np.random.default_rng(n).normal(size=2 * lag + 4)), fixed_lag=lag)

    def test_negative_fixed_lag_rejected(self):
        with pytest.raises(ValueError, match="fixed_lag must be >= 0, got -1"):
            adf_test(random_walk(), fixed_lag=-1)

    def test_linear_ramp_differenced_is_degenerate(self):
        ramp = np.arange(200, dtype=np.float64)
        d = difference(ramp, 1)
        assert np.all(d == d[0])
        with pytest.raises(ValueError, match="degenerate"):
            adf_test(d)

    def test_nobs_identity(self):
        y = white_noise()
        for lag in (0, 1, 4, 7):
            res = adf_test(y, fixed_lag=lag)
            assert res.n_obs == N - lag - 1

    def test_p_value_in_unit_interval_many_series(self):
        for seed in range(20):
            y = np.cumsum(np.random.default_rng(seed).normal(size=120))
            res = adf_test(y)
            assert 0.0 <= res.p_value <= 1.0
            assert np.isfinite(res.statistic)

    def test_default_max_lag_formula(self):
        assert default_max_lag(100) == 12
        assert default_max_lag(500) == int(12 * (5.0**0.25))

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            adf_test(np.arange(8.0) + np.random.default_rng(0).normal(size=8), fixed_lag=3)

    def test_result_dict_fields(self):
        res = adf_test(white_noise(), fixed_lag=1)
        d = res.as_dict()
        assert set(d) == {"statistic", "p_value", "lags_used", "n_obs"}
        assert isinstance(res, AdfResult)


def _brute_force_fits(y: np.ndarray, max_lag: int) -> tuple[np.ndarray, bool]:
    """(SSR of every candidate lag on the common sample, whether any is rank-deficient).

    One lstsq fit per candidate.
    """
    dy = np.diff(y)
    rows = dy.size - max_lag
    target = dy[max_lag:]
    ssrs, singular = [], False
    for p in range(max_lag + 1):
        cols = [np.ones(rows), y[max_lag : max_lag + rows]]
        cols += [dy[max_lag - i : max_lag - i + rows] for i in range(1, p + 1)]
        design = np.column_stack(cols)
        beta, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
        resid = target - design @ beta
        ssrs.append(float(resid @ resid))
        singular |= rank < design.shape[1]
    return np.array(ssrs), singular


@st.composite
def adf_series(draw):
    """Random walks, AR(1) and white noise of 30-600 points at varied scales."""
    n = draw(st.integers(30, 600))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    eps = g.normal(size=n) * draw(st.sampled_from([1e-3, 1.0, 50.0]))
    phi = draw(st.sampled_from([1.0, 0.9, 0.5, 0.0, -0.4]))
    y = np.empty(n)
    y[0] = eps[0]
    for t in range(1, n):
        y[t] = phi * y[t - 1] + eps[t]
    return y + draw(st.sampled_from([0.0, 100.0]))


class TestLagSearch:
    @given(adf_series())
    @settings(max_examples=60, deadline=None)
    def test_one_qr_matches_lstsq_per_candidate(self, y):
        max_lag = min(default_max_lag(y.size), y.size // 2 - 2)
        got = stationarity._candidate_ssrs(y, max_lag)
        want, singular = _brute_force_fits(y, max_lag)
        assert not singular
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)

    @pytest.mark.parametrize(
        "pattern",
        [[0.0, 1.0], [0.0, 1.0, 3.0], *(np.random.default_rng(p).normal(size=p) for p in (7, 10))],
    )
    def test_singular_candidate_is_degenerate(self, pattern):
        # A repeating pattern makes the lagged differences collinear with the constant.
        y = np.tile(pattern, 200 // len(pattern))
        max_lag = min(default_max_lag(y.size), y.size // 2 - 2)
        assert _brute_force_fits(y, max_lag)[1]
        with pytest.raises(ValueError, match="degenerate"):
            stationarity._candidate_ssrs(y, max_lag)
        with pytest.raises(ValueError, match="degenerate"):
            adf_test(y)

    @given(adf_series())
    @settings(max_examples=60, deadline=None)
    def test_selected_lag_minimises_brute_force_aic(self, y):
        max_lag = min(default_max_lag(y.size), y.size // 2 - 2)
        rows = y.size - 1 - max_lag
        aic = [
            rows * math.log(ssr / rows) + 2.0 * (p + 2)
            for p, ssr in enumerate(_brute_force_fits(y, max_lag)[0])
        ]
        best = min(aic)
        # A relative bound, so candidates tied to rounding may swap either way.
        assert abs(aic[adf_test(y).lags_used] - best) <= 1e-9 * abs(best)


class TestAdfScaleFree:
    # The tolerance, |change| <= 1e-5 * max(1, |statistic|), comes from a
    # rounding bound, not from observed runs: rounding a * y + c at |c| = 1e8
    # sd moves each value by about 1e-8 sd, and the steps of a 600-point walk
    # are about sd / 14, so the fitted data move by a few 1e-7 relative.
    @given(
        adf_series(),
        st.sampled_from([-1.0, 1.0]),
        st.floats(-8.0, 8.0),
        st.floats(-1e8, 1e8),
    )
    @settings(max_examples=60, deadline=None)
    def test_affine_map_keeps_lag_and_statistic(self, y, sign, log10_scale, shift_in_sd):
        ay = sign * 10.0**log10_scale * y
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            base = adf_test(y)
            moved = adf_test(ay + shift_in_sd * np.std(ay))
        assert moved.lags_used == base.lags_used
        assert abs(moved.statistic - base.statistic) <= 1e-5 * max(1.0, abs(base.statistic))

    @pytest.mark.parametrize(
        "transform",
        [lambda w: w + 1e8, lambda w: w * 1e12, lambda w: 5000.0 + 1e-6 * w,
         lambda w: w * 1e300, lambda w: w * 1e-310],
        ids=["plus-1e8", "times-1e12", "5000-plus-1e-6", "times-1e300", "subnormal"],
    )
    def test_walk_at_any_level_or_scale(self, transform):
        walk = np.cumsum(np.random.default_rng(3).normal(size=800))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = adf_test(transform(walk))
        assert res.lags_used == 0
        assert abs(res.statistic - -1.0602505) < 1e-6

    @given(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=64), min_size=2, max_size=60
        )
    )
    @example([0.0, 1.0])  # too short for the default max_lag
    @example([0.0] * 6 + [1.0] + [0.0] * 10)  # the widest candidate fits exactly
    @settings(max_examples=200, deadline=None)
    def test_finite_input_gives_a_result_or_a_named_refusal(self, values):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                res = adf_test(values)
            except ValueError as exc:
                assert "degenerate" in str(exc) or "too short" in str(exc), str(exc)
                return
        assert math.isfinite(res.statistic) and 0.0 <= res.p_value <= 1.0
