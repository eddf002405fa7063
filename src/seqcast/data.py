"""OHLCV ingestion, cleaning, exploratory statistics, scaling, windowing.

The pipeline is: parse a daily OHLCV CSV, clean it (drop rows with a
missing close, impute missing open/high/low from the previous retained
close, reject rows with an infinite value or with prices that violate the
low/high envelope), compute monthwise statistics and unit-root
diagnostics, then scale closes to [0, 1] with training-set extremes only
and cut them into lookback windows.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import math
import re
from dataclasses import asdict, dataclass
from datetime import date
from pathlib import Path

import numpy as np

from .numerics import make_rng

# Exactly what datetime.strptime accepts for "%Y/%m/%d" and "%Y-%m-%d":
# its own patterns for %Y, %m and %d, one separator used twice.
_DATE_RE = re.compile(
    r"(\d\d\d\d)([/-])(1[0-2]|0[1-9]|[1-9])\2(3[01]|[12]\d|0[1-9]|[1-9]| [1-9])"
)
_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")
_MISSING_TOKENS = {"", "nan", "na", "n/a", "null", "none"}
_COLUMNS = ("open", "high", "low", "close", "volume")


@dataclass(frozen=True)
class OhlcvSeries:
    """Dated open/high/low/close/volume rows, sorted by strictly increasing date.

    Values may contain NaN until :func:`clean` has run; the low/high price
    envelope is only guaranteed for cleaned series.
    """

    dates: tuple[date, ...]
    open: np.ndarray
    high: np.ndarray
    low: np.ndarray
    close: np.ndarray
    volume: np.ndarray

    def __post_init__(self):
        n = len(self.dates)
        for name in _COLUMNS:
            col = getattr(self, name)
            if col.shape != (n,):
                raise ValueError(f"column {name} has {col.shape[0]} values for {n} dates")
        for a, b in zip(self.dates, self.dates[1:]):
            if a >= b:
                raise ValueError(f"dates must be strictly increasing, got {a} before {b}")

    def __len__(self) -> int:
        return len(self.dates)

    def slice(self, start: int, stop: int) -> "OhlcvSeries":
        return OhlcvSeries(
            self.dates[start:stop], *(getattr(self, c)[start:stop].copy() for c in _COLUMNS)
        )


def _parse_date(text: str) -> date:
    try:
        # Python 3.11's fromisoformat also takes 20150102 and 2015-W01-1.
        if _ISO_DATE.fullmatch(text):
            return date.fromisoformat(text)
        if m := _DATE_RE.fullmatch(text):
            return date(int(m[1]), int(m[3]), int(m[4]))
    except ValueError:
        pass
    raise ValueError(f"unrecognized date {text!r} (expected YYYY/M/D or YYYY-MM-DD)")


def _parse_cell(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        if text.strip().lower() in _MISSING_TOKENS:
            return math.nan
        raise


def _parse_column(cells, parse, repair) -> tuple[list, ValueError | None]:
    """Parse every cell, passing each that parse rejects to repair; stop at
    the first that repair rejects too, with its error (None if none is)."""
    values, rest = [], iter(cells)
    while True:
        try:
            values.extend(map(parse, rest))  # keeps the values before a failure
            return values, None
        except ValueError:
            try:
                values.append(repair(cells[len(values)]))
            except ValueError as exc:
                return values, exc


def parse_csv(path) -> OhlcvSeries:
    """Load an OHLCV CSV.

    The header must contain Date, Open, High, Low, Close, Volume in any
    order, case-insensitively; extra columns (such as an unnamed leading
    index) are ignored. Rows are returned sorted by date. Errors carry the
    1-based line number of the first offending row.
    """
    path = Path(path)
    try:
        text = path.read_bytes().decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text, {exc.reason} at byte {exc.start}") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError(f"{path}: empty file") from None
    wanted = {"date", *_COLUMNS}
    keys = [name.strip().lower() for name in header]
    col_idx = {key: keys.index(key) for key in wanted.intersection(keys)}
    missing = wanted - set(col_idx)
    if missing:
        raise ValueError(f"{path}: header lacks columns {sorted(missing)}")

    width = max(col_idx.values()) + 1
    numbered = enumerate(reader, start=2)
    dates, values = [], [[] for _ in _COLUMNS]
    # Blocks of 128 rows bound the raw text held at once.
    for block in iter(lambda: list(itertools.islice(numbered, 128)), []):
        kept = [(lineno, raw) for lineno, raw in block if "".join(raw).strip()]
        linenos, rows = zip(*kept) if kept else ((), ())
        n = next((k for k, raw in enumerate(rows) if len(raw) < width), len(rows))
        fields = list(zip(*rows[:n])) or [()] * width
        texts = list(map(str.strip, fields[col_idx["date"]]))
        parsed = [_parse_column(texts, _parse_date, _parse_date)]
        parsed += [_parse_column(fields[col_idx[c]], float, _parse_cell) for c in _COLUMNS]
        # Rows fail at width, then date, open, high, low, close, volume; the first to fail is named.
        failures = [(len(column), exc) for column, exc in parsed if exc is not None]
        if n < len(rows):
            failures.append((n, f"expected at least {width} fields, found {len(rows[n])}"))
        if failures:
            row, exc = min(failures, key=lambda f: f[0])
            raise ValueError(f"{path}: line {linenos[row]}: {exc}")
        dates += parsed[0][0]
        for column, (cells, _) in zip(values, parsed[1:]):
            column += cells
    if not dates:
        raise ValueError(f"{path}: no data rows")
    order = sorted(range(len(dates)), key=dates.__getitem__)
    dates = [dates[i] for i in order]
    for a, b in zip(dates, dates[1:]):
        if a == b:
            raise ValueError(f"{path}: duplicate date {a}")
    return OhlcvSeries(tuple(dates), *np.array(values)[:, order])


@dataclass
class CleanReport:
    """Counts of every action :func:`clean` took."""

    dropped_missing_close: int = 0
    dropped_envelope: int = 0
    dropped_unimputable: int = 0
    dropped_nonfinite: int = 0
    imputed_open: int = 0
    imputed_high: int = 0
    imputed_low: int = 0
    imputed_volume: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


def clean(series: OhlcvSeries) -> tuple[OhlcvSeries, CleanReport]:
    """Drop or repair defective rows.

    Rows with a missing close are dropped (imputing the modeling target
    would contaminate evaluation). Missing open/high/low are imputed from
    the previous retained row's close; a row needing imputation with no
    retained predecessor is dropped. Missing volume is imputed as 0. Rows
    that still hold an infinite price or volume are dropped. Rows whose
    prices break low <= min(open, close) <= max(open, close) <= high, or
    are not strictly positive, are dropped.
    """
    op, hi, lo, cl, vol = (getattr(series, c).copy() for c in _COLUMNS)
    missing_close, gaps = np.isnan(cl), np.isnan(op) | np.isnan(hi) | np.isnan(lo)
    # Imputation only replaces NaN, so a row's infinities survive it.
    has_inf = np.isinf(op) | np.isinf(hi) | np.isinf(lo) | np.isinf(cl) | np.isinf(vol)
    envelope = (lo <= np.minimum(op, cl)) & (np.maximum(op, cl) <= hi) & (lo > 0) & ~(vol < 0)
    keep = envelope & ~(missing_close | gaps | has_inf)
    plain = np.flatnonzero(keep)
    # Gap rows before the first row kept as it is have nothing to fill from.
    reached = ~missing_close & ~(gaps & (np.cumsum(keep) == 0))
    gap_rows = np.flatnonzero(gaps & reached)
    # The others fill from the last kept row's close; that row may be a gap row.
    plain_prev = plain[np.searchsorted(plain, gap_rows) - 1].tolist()
    cells = (a[gap_rows].tolist() for a in (op, hi, lo, cl, vol, has_inf))
    closes, prev, filled = cl.tolist(), 0, []
    for i, p, o, h, l, c, v, inf in zip(gap_rows.tolist(), plain_prev, *cells):
        prev = max(prev, p)
        o, h, l = (closes[prev] if math.isnan(x) else x for x in (o, h, l))
        filled.append((o, h, l))
        if not inf and l <= min(o, c) <= max(o, c) <= h and l > 0 and not v < 0:
            keep[i], prev = True, i
    op[gap_rows], hi[gap_rows], lo[gap_rows] = np.array(filled).reshape(-1, 3).T
    report = CleanReport(
        dropped_missing_close=int(missing_close.sum()),
        dropped_envelope=int((reached & ~has_inf & ~keep).sum()),
        dropped_unimputable=int((~reached & ~missing_close).sum()),
        dropped_nonfinite=int((reached & has_inf).sum()),
        **{f"imputed_{c}": int((reached & np.isnan(getattr(series, c))).sum())
           for c in ("open", "high", "low", "volume")},
    )
    if not keep.any():
        raise ValueError("clean dropped every row")
    vol[np.isnan(vol)] = 0.0
    dates = tuple(itertools.compress(series.dates, keep.tolist()))
    return OhlcvSeries(dates, *(a[keep] for a in (op, hi, lo, cl, vol))), report


def monthwise_means(series: OhlcvSeries) -> dict[int, tuple[float, float]]:
    """Per calendar month across years: month -> (mean open, mean close).

    Months with no rows are absent from the result.
    """
    if len(series) == 0:
        raise ValueError("monthwise_means needs a non-empty series")
    # bincount adds the weights in row order, as a running sum would.
    month = np.fromiter((d.month for d in series.dates), np.int64, len(series))
    counts = np.bincount(month)
    present = np.flatnonzero(counts)
    opens = np.bincount(month, weights=series.open)[present] / counts[present]
    closes = np.bincount(month, weights=series.close)[present] / counts[present]
    return dict(zip(present.tolist(), zip(opens.tolist(), closes.tolist())))


def monthly_mean_series(series: OhlcvSeries) -> np.ndarray:
    """Chronological per-(year, month) means of the high.

    This is the monthly aggregation the unit-root diagnostics run on.
    """
    months = np.fromiter((d.year * 12 + d.month for d in series.dates), np.int64, len(series))
    _, key = np.unique(months, return_inverse=True)
    return np.bincount(key, weights=series.high) / np.bincount(key)


@dataclass(frozen=True)
class Scaler:
    """Min-max scaler; fit on training closes only so the test set never leaks."""

    min: float
    max: float

    def __post_init__(self):
        if not self.max > self.min:
            raise ValueError(f"scaler needs max > min, got [{self.min}, {self.max}]")

    def transform(self, v):
        return (np.asarray(v, dtype=np.float64) - self.min) / (self.max - self.min)

    def inverse(self, v):
        return np.asarray(v, dtype=np.float64) * (self.max - self.min) + self.min


def fit_scaler(train_values) -> Scaler:
    v = np.asarray(train_values, dtype=np.float64)
    if v.size < 2 or np.max(v) == np.min(v):
        raise ValueError("scaler needs at least 2 distinct training values")
    return Scaler(min=float(np.min(v)), max=float(np.max(v)))


@dataclass(frozen=True)
class WindowedDataset:
    """Paired (lookback window, next value) samples in scaled space.

    The lookback is the window width, ``inputs.shape[1]``.
    """

    inputs: np.ndarray  # (samples, lookback)
    targets: np.ndarray  # (samples,)

    def __post_init__(self):
        if self.inputs.ndim != 2 or self.targets.shape != self.inputs.shape[:1]:
            raise ValueError(
                f"inputs {self.inputs.shape} do not pair with targets {self.targets.shape}: "
                "need 2-D inputs and one target per row"
            )

    def __len__(self) -> int:
        return self.targets.shape[0]


def make_windows(scaled, lookback: int) -> WindowedDataset:
    """Cut a sequence into sliding windows; sample i is (v[i:i+L], v[i+L])."""
    v = np.asarray(scaled, dtype=np.float64)
    if lookback < 1:
        raise ValueError(f"lookback must be >= 1, got {lookback}")
    if v.size <= lookback:
        raise ValueError(f"need more than lookback={lookback} values, got {v.size}")
    view = np.lib.stride_tricks.sliding_window_view(v, lookback)
    return WindowedDataset(inputs=view[:-1].copy(), targets=v[lookback:].copy())


def chronological_split(
    series: OhlcvSeries, test_len: int = 30, val_frac: float = 0.10
) -> tuple[OhlcvSeries, OhlcvSeries, OhlcvSeries]:
    """Split into (train, val, test) without shuffling.

    The test set is the final ``test_len`` rows; the validation set is the
    final ``val_frac`` fraction (floored) of what remains; training data is
    the prefix. All three parts must be non-empty.
    """
    n = len(series)
    if test_len < 1:
        raise ValueError(f"test_len must be >= 1, got {test_len}")
    if not 0.0 < val_frac < 1.0:
        raise ValueError(f"val_frac must be in (0, 1), got {val_frac}")
    remainder = n - test_len
    val_len = int(remainder * val_frac)
    train_len = remainder - val_len
    if remainder < 2 or val_len < 1 or train_len < 1:
        raise ValueError(
            f"series of {n} rows cannot be split into non-empty "
            f"train/val/test with test_len={test_len}, val_frac={val_frac}"
        )
    return (
        series.slice(0, train_len),
        series.slice(train_len, train_len + val_len),
        series.slice(train_len + val_len, n),
    )


SYNTH_KINDS = ("sine+noise", "gbm", "random-walk")

_SINE_AMPLITUDE, _SINE_PERIOD, _SINE_OFFSET, _SINE_NOISE_SD = 1.0, 40.0, 10.0, 0.05
_GBM_DRIFT, _GBM_VOL, _WALK_STEP_SD = 0.0005, 0.01, 1.0
_SYNTH_START = 100.0
_SYNTH_START_DATE = date(2015, 1, 2)


def synth_series(kind: str, n: int, seed: int) -> np.ndarray:
    """Deterministic synthetic value sequences for tests and fixtures.

    "sine+noise": sin(2 pi t / 40) + 10 plus N(0, 0.05^2) noise; "gbm": a
    geometric Brownian motion from 100 with drift 0.0005 and volatility 0.01
    per step; "random-walk": N(0, 1) steps from 100.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = make_rng(seed)
    t = np.arange(n, dtype=np.float64)
    if kind == "sine+noise":
        wave = _SINE_AMPLITUDE * np.sin(2.0 * np.pi * t / _SINE_PERIOD)
        return wave + _SINE_OFFSET + _SINE_NOISE_SD * rng.standard_normal(n)
    if kind == "gbm":
        log_path = (_GBM_DRIFT - 0.5 * _GBM_VOL**2) * t
        log_path[1:] += _GBM_VOL * np.cumsum(rng.standard_normal(n - 1))
        return _SYNTH_START * np.exp(log_path)
    if kind == "random-walk":
        steps = np.cumsum(_WALK_STEP_SD * rng.standard_normal(n - 1))
        return np.concatenate([[_SYNTH_START], _SYNTH_START + steps])
    raise ValueError(f"unknown kind {kind!r}, expected one of {SYNTH_KINDS}")


def weekday_dates(start_date: date, n: int) -> tuple[date, ...]:
    """The first n weekdays from start_date on; none if n <= 0."""
    days = np.busday_offset(np.datetime64(start_date, "D"), np.arange(n), roll="forward")
    if days.size and days[-1] > np.datetime64(date.max, "D"):
        raise ValueError(
            f"{n} weekdays from {start_date.isoformat()} run past "
            f"{date.max.isoformat()}, the last representable date"
        )
    return tuple(days.tolist())


def synth_ohlcv(kind: str, n: int, seed: int) -> OhlcvSeries:
    """Wrap a synthetic close path into a valid OHLCV series on weekdays.

    Opens carry the previous close; highs/lows are the envelope extremes of
    each day's open/close, so cleaning is a no-op on the result.
    """
    closes = synth_series(kind, n, seed)
    if np.min(closes) <= 0:
        raise ValueError("synthetic closes must stay positive to form an OHLCV fixture")
    opens = np.concatenate([closes[:1], closes[:-1]])
    volume = make_rng(seed + 1).integers(1_000_000, 100_000_000, size=n).astype(np.float64)
    return OhlcvSeries(
        dates=weekday_dates(_SYNTH_START_DATE, n),
        open=opens,
        high=np.maximum(opens, closes),
        low=np.minimum(opens, closes),
        close=closes,
        volume=volume,
    )


def _rows(series: OhlcvSeries):
    """Each row as (date, open, high, low, close, volume), values as Python floats."""
    return zip(series.dates, *(getattr(series, c).tolist() for c in _COLUMNS))


def write_ohlcv_csv(series: OhlcvSeries, path) -> None:
    """Write a series in the toolkit's CSV schema."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["Date", *map(str.capitalize, _COLUMNS)])
        writer.writerows(
            (d.isoformat(), *map(repr, prices), int(vol)) for d, *prices, vol in _rows(series)
        )


def fingerprint(series: OhlcvSeries) -> dict:
    """Row count, date range, and content hash identifying a dataset."""
    if len(series) == 0:
        raise ValueError("fingerprint needs a non-empty series")
    digest = hashlib.sha256()
    for d, op, hi, lo, cl, vol in _rows(series):
        digest.update(f"{d.isoformat()},{op!r},{hi!r},{lo!r},{cl!r},{vol!r}\n".encode())
    return {
        "n_rows": len(series),
        "start_date": series.dates[0].isoformat(),
        "end_date": series.dates[-1].isoformat(),
        "sha256": digest.hexdigest(),
    }
