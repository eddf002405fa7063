"""Unit-root diagnostics: differencing and the augmented Dickey-Fuller test.

The ADF regression is the constant-only variant

    dy_t = alpha + gamma * y_{t-1} + sum_{i=1..p} beta_i * dy_{t-i} + e_t

estimated by OLS; the reported statistic is the t-ratio on gamma. That
ratio does not change under y -> a * y + c, so every fit runs on y rescaled
to 0 at its first value and unit standard deviation: the price level cannot
matter. The lag order p is either fixed or chosen by minimizing AIC over
0..max_lag on the common sample trimmed to max_lag. Every fit is one QR
routine with one singularity rule: the candidates' designs are nested, so
the widest one's R gives every candidate's residual sum of squares, and the
chosen lag's own R gives its t-ratio. Approximate p-values come from the
MacKinnon (1994/2010) response-surface polynomials for the constant case.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

# MacKinnon response-surface coefficients, constant-only regression, one
# I(1) series, lowest degree first. p = Phi(poly(tau)) with the small-p
# polynomial used for tau <= TAU_STAR and the large-p polynomial above it;
# statistics outside [TAU_MIN, TAU_MAX] clamp to p = 0 / p = 1.
_TAU_MAX = 2.74
_TAU_MIN = -18.83
_TAU_STAR = -1.61
_TAU_SMALLP = (2.1659, 1.4412, 0.038269)
_TAU_LARGEP = (1.7339, 0.93202, -0.12745, -0.010368)


@dataclass(frozen=True)
class AdfResult:
    """Outcome of one ADF run."""

    statistic: float
    p_value: float
    lags_used: int
    n_obs: int

    def as_dict(self) -> dict:
        return asdict(self)


def difference(values, order: int = 1) -> np.ndarray:
    """Apply first differences `order` times; output shrinks by `order`."""
    if order < 1:
        raise ValueError(f"difference order must be >= 1, got {order}")
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError("difference expects a 1-D sequence")
    if v.size <= order:
        raise ValueError(f"need more than {order} values to difference, got {v.size}")
    return np.diff(v, n=order)


def mackinnon_pvalue(statistic: float) -> float:
    """Approximate p-value of a constant-case ADF statistic: Phi of the polynomial."""
    if statistic > _TAU_MAX:
        return 1.0
    if statistic < _TAU_MIN:
        return 0.0
    coef = _TAU_SMALLP if statistic <= _TAU_STAR else _TAU_LARGEP
    return 0.5 * math.erfc(-np.polyval(coef[::-1], statistic) / math.sqrt(2.0))


def default_max_lag(n: int) -> int:
    """Schwert-style rule of thumb: floor(12 * (n/100)^0.25)."""
    return int(12.0 * (n / 100.0) ** 0.25)


def _check_length(n: int, lag: int, name: str) -> None:
    """The widest regression needs 10 observations and a residual degree of freedom."""
    need = max(lag + 10, 2 * lag + 4)
    if n < need:
        raise ValueError(f"series too short for {name} {lag}: {n} < {need}")


def _regression_r(y: np.ndarray, p: int, rows: int) -> np.ndarray:
    """R of the QR of the lag-p ADF design over the last `rows` observations.

    Columns: constant, y_{t-1}, dy_{t-1} .. dy_{t-p}, then the response dy_t.
    With k = p + 2, R[:k, k] is the response in the design's orthonormal
    basis and R[k, k]**2 the residual SSR. The test's one singularity rule is
    lstsq's default threshold on the singular values of R[:k, :k]. A zero
    residual leaves the t-ratio and the AIC undefined.
    """
    dy = np.diff(y)
    t_start = dy.size - rows
    cols = [np.ones(rows), y[t_start:-1]]
    cols += [dy[t_start - i : dy.size - i] for i in range(1, p + 1)]
    r = np.linalg.qr(np.column_stack([*cols, dy[t_start:]]), mode="r")
    k = p + 2
    s = np.linalg.svd(r[:k, :k], compute_uv=False)
    if s[-1] <= np.finfo(np.float64).eps * max(rows, k) * s[0]:
        raise ValueError("degenerate series: ADF regression is singular")
    if r[k, k] == 0:
        raise ValueError("degenerate series: ADF regression fits exactly")
    return r


def _candidate_ssrs(y: np.ndarray, max_lag: int) -> np.ndarray:
    """Residual SSR of every lag 0..max_lag on the common sample, from one QR.

    Lag p's design is the first p + 2 columns of the widest, so its SSR is
    the sum of squares of R's last column from row p + 2 down, and the widest
    is singular exactly when some candidate is.
    """
    r = _regression_r(y, max_lag, (y.size - 1) - max_lag)
    suffix = np.cumsum(r[::-1, -1] ** 2)[::-1]
    return suffix[2:]


def adf_test(values, fixed_lag: int | None = None) -> AdfResult:
    """Constant-only augmented Dickey-Fuller test.

    With ``fixed_lag`` the regression uses exactly that many difference lags;
    otherwise the lag is AIC-selected over 0..max_lag, where max_lag is
    :func:`default_max_lag` capped at n // 2 - 2 and floored at 0.
    The statistic is invariant under
    ``values -> a * values + c`` for a != 0. Constant input, and input whose
    ADF design is singular (such as a repeating pattern), raise a
    degenerate-series error.
    """
    y = np.asarray(values, dtype=np.float64)
    if y.ndim != 1:
        raise ValueError("adf_test expects a 1-D sequence")
    n = y.size
    if not np.isfinite(y).all():
        raise ValueError("adf_test needs finite values")
    if np.max(y) == np.min(y):
        raise ValueError("degenerate series: input is constant")
    # A power-of-two scale first cannot make a varying series constant, and
    # it keeps the shift and np.std clear of overflow and subnormals.
    y = np.ldexp(y, -np.frexp(np.max(np.abs(y)))[1])
    y = y - y[0]
    y = y / np.std(y)

    if fixed_lag is not None:
        if fixed_lag < 0:
            raise ValueError(f"fixed_lag must be >= 0, got {fixed_lag}")
        lag = fixed_lag
        _check_length(n, lag, "lag")
    else:
        max_lag = max(0, min(default_max_lag(n), n // 2 - 2))
        _check_length(n, max_lag, "max_lag")
        # Candidates share the sample trimmed to max_lag so AICs compare
        # like for like; the chosen lag is then refit on its full sample.
        rows = (n - 1) - max_lag
        ssrs = _candidate_ssrs(y, max_lag).tolist()
        aics = [rows * math.log(ssr / rows) + 2.0 * (p + 2) for p, ssr in enumerate(ssrs)]
        lag = aics.index(min(aics))

    rows = (n - 1) - lag
    k = lag + 2
    r = _regression_r(y, lag, rows)
    # beta = R11^-1 Q'dy and (X'X)^-1 = R11^-1 R11^-T, so the standard error
    # of beta_1 is sigma times the norm of row 1 of R11^-1.
    row = np.linalg.inv(r[:k, :k])[1]
    sigma = abs(float(r[k, k])) / math.sqrt(rows - k)
    stat = float(row @ r[:k, k]) / (sigma * float(np.linalg.norm(row)))
    return AdfResult(
        statistic=stat,
        p_value=mackinnon_pvalue(stat),
        lags_used=lag,
        n_obs=rows,
    )
