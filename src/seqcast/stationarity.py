"""Unit-root diagnostics: differencing and the augmented Dickey-Fuller test.

The ADF regression is the constant-only variant

    dy_t = alpha + gamma * y_{t-1} + sum_{i=1..p} beta_i * dy_{t-i} + e_t

estimated by OLS; the reported statistic is the t-ratio on gamma. The lag
order p is either fixed by the caller or chosen by minimizing AIC over
0..max_lag, with every candidate fitted on the common sample trimmed to
max_lag so the criteria are comparable. The candidates' designs are nested,
so one QR factorisation of the widest design gives every candidate's
residual sum of squares. Approximate p-values come from the MacKinnon
(1994/2010) response-surface polynomials for the constant case.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

# MacKinnon response-surface coefficients, constant-only regression, one
# I(1) series. p = Phi(poly(tau)) with the small-p polynomial used for
# tau <= TAU_STAR and the large-p polynomial above it; statistics outside
# [TAU_MIN, TAU_MAX] clamp to p = 0 / p = 1.
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


def _norm_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def mackinnon_pvalue(statistic: float) -> float:
    """Approximate p-value of a constant-case ADF statistic."""
    if statistic > _TAU_MAX:
        return 1.0
    if statistic < _TAU_MIN:
        return 0.0
    coef = _TAU_SMALLP if statistic <= _TAU_STAR else _TAU_LARGEP
    poly = 0.0
    for c in reversed(coef):
        poly = poly * statistic + c
    return _norm_cdf(poly)


def default_max_lag(n: int) -> int:
    """Schwert-style rule of thumb: floor(12 * (n/100)^0.25)."""
    return int(12.0 * (n / 100.0) ** 0.25)


def _ols_tratio(design: np.ndarray, y: np.ndarray, col: int) -> float:
    """t-ratio of coefficient `col` for y ~ design."""
    n, k = design.shape
    beta, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < k:
        raise ValueError("degenerate series: ADF regression is singular")
    resid = y - design @ beta
    ssr = float(resid @ resid)
    sigma2 = ssr / (n - k)
    xtx_inv = np.linalg.inv(design.T @ design)
    se = math.sqrt(sigma2 * xtx_inv[col, col])
    return float(beta[col] / se)


def _check_length(n: int, lag: int, name: str) -> None:
    """The widest regression needs 10 observations and a residual degree of freedom."""
    need = max(lag + 10, 2 * lag + 4)
    if n < need:
        raise ValueError(f"series too short for {name} {lag}: {n} < {need}")


def _build_regression(y: np.ndarray, p: int, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Last `rows` observations of the ADF design for lag order p.

    Columns: constant, y_{t-1}, dy_{t-1} .. dy_{t-p}. Response: dy_t.
    """
    dy = np.diff(y)
    t_end = dy.size
    t_start = t_end - rows
    target = dy[t_start:t_end]
    cols = [np.ones(rows), y[t_start:t_end]]
    for i in range(1, p + 1):
        cols.append(dy[t_start - i : t_end - i])
    return np.column_stack(cols), target


def _candidate_ssrs(y: np.ndarray, max_lag: int) -> np.ndarray:
    """Residual SSR of every lag 0..max_lag on the common sample, from one QR.

    Lag p's design is the first p + 2 columns of the widest design. With the
    response appended as a last column, R's last column holds the response
    in the orthonormal basis of the design, so the SSR of the first k
    columns is the sum of squares of that column from row k down. The
    widest design is singular, by lstsq's default threshold on its singular
    values, exactly when some candidate's is.
    """
    rows = (y.size - 1) - max_lag
    design, target = _build_regression(y, max_lag, rows)
    k = design.shape[1]
    r = np.linalg.qr(np.column_stack([design, target]), mode="r")
    s = np.linalg.svd(r[:k, :k], compute_uv=False)
    if s[-1] <= np.finfo(np.float64).eps * max(rows, k) * s[0]:
        raise ValueError("degenerate series: ADF regression is singular")
    suffix = np.cumsum(r[::-1, k] ** 2)[::-1]
    return suffix[2:]


def adf_test(values, max_lag: int | None = None, fixed_lag: int | None = None) -> AdfResult:
    """Constant-only augmented Dickey-Fuller test.

    With ``fixed_lag`` the regression uses exactly that many difference lags;
    otherwise the lag is AIC-selected over 0..max_lag (max_lag defaults to
    :func:`default_max_lag`). Near-constant input raises a degenerate-series
    error because the regression has no identifying variation.
    """
    y = np.asarray(values, dtype=np.float64)
    if y.ndim != 1:
        raise ValueError("adf_test expects a 1-D sequence")
    n = y.size
    if not np.isfinite(y).all():
        raise ValueError("adf_test needs finite values")
    if np.max(y) == np.min(y):
        raise ValueError("degenerate series: input is constant")

    if fixed_lag is not None:
        if fixed_lag < 0:
            raise ValueError(f"fixed_lag must be >= 0, got {fixed_lag}")
        lag = fixed_lag
        _check_length(n, lag, "lag")
    else:
        if max_lag is None:
            max_lag = min(default_max_lag(n), n // 2 - 2)
        if max_lag < 0:
            raise ValueError(f"max_lag must be >= 0, got {max_lag}")
        _check_length(n, max_lag, "max_lag")
        # Candidates share the sample trimmed to max_lag so AICs compare
        # like for like; the chosen lag is then refit on its full sample.
        rows = (n - 1) - max_lag
        best = None
        for p, ssr in enumerate(_candidate_ssrs(y, max_lag).tolist()):
            aic = rows * math.log(ssr / rows) + 2.0 * (p + 2)
            if best is None or aic < best[0]:
                best = (aic, p)
        lag = best[1]

    rows = (n - 1) - lag
    design, target = _build_regression(y, lag, rows)
    stat = _ols_tratio(design, target, col=1)
    return AdfResult(
        statistic=stat,
        p_value=mackinnon_pvalue(stat),
        lags_used=lag,
        n_obs=rows,
    )
