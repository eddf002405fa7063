"""Seeded inputs for the three workloads, generated without calling seqcast.

Every generator draws from ``numpy.random.default_rng`` keyed on the
workload seed, so the same seed always writes the same bytes. Prices are
written with ``repr`` so that parsing them back gives the same float64.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from datetime import date, timedelta

import numpy as np

MISSING_TOKENS = ("", "NaN", "nan", "NA", "null", "None", "n/a")
INGEST_FILES = 50
INGEST_ROWS = 4000
# Planted defects per ingest file; each sits on its own row, at least three
# rows from the next, so an imputed value always comes from an intact row.
DEFECTS = {
    "missing_close": 20,
    "missing_open": 10,
    "missing_high": 10,
    "missing_low": 10,
    "missing_volume": 10,
    "envelope": 20,
    "inf_volume": 2,
}
SHUFFLED_BLOCKS, BLOCK_ROWS = 40, 25


def weekdays(start: date, n: int) -> list[date]:
    out, d = [], start
    while len(out) < n:
        if d.weekday() < 5:
            out.append(d)
        d += timedelta(days=1)
    return out


@dataclass
class Frame:
    """Columns of a generated OHLCV table, in date order."""

    dates: list[date]
    open: np.ndarray
    high: np.ndarray
    low: np.ndarray
    close: np.ndarray
    volume: np.ndarray

    def __len__(self) -> int:
        return len(self.dates)


def _frame_from_closes(closes: np.ndarray, rng, start: date, wick_sd: float) -> Frame:
    """Opens carry the previous close; wicks reach past the open/close body."""
    opens = np.empty_like(closes)
    opens[0] = closes[0]
    opens[1:] = closes[:-1]
    wick = np.abs(rng.standard_normal((2, closes.size))) * wick_sd
    return Frame(
        dates=weekdays(start, closes.size),
        open=opens,
        high=np.maximum(opens, closes) * np.exp(wick[0]),
        low=np.minimum(opens, closes) * np.exp(-wick[1]),
        close=closes,
        volume=rng.integers(100_000, 10_000_000, size=closes.size).astype(np.float64),
    )


def sine_frame(n: int, seed: int) -> Frame:
    """The criterion-4 series: sin(2 pi t / 40) + 10 plus N(0, 0.05) noise."""
    rng = np.random.default_rng(seed)
    t = np.arange(n, dtype=np.float64)
    closes = np.sin(2.0 * np.pi * t / 40.0) + 10.0 + 0.05 * rng.standard_normal(n)
    return _frame_from_closes(closes, rng, date(2015, 1, 2), wick_sd=0.0)


def gbm_frame(n: int, rng, start_price: float, drift: float, vol: float, start: date) -> Frame:
    steps = (drift - 0.5 * vol**2) + vol * rng.standard_normal(n - 1)
    closes = start_price * np.exp(np.concatenate([[0.0], np.cumsum(steps)]))
    return _frame_from_closes(closes, rng, start, wick_sd=0.004)


def write_frame(frame: Frame, path) -> None:
    lines = ["Date,Open,High,Low,Close,Volume"]
    for i in range(len(frame)):
        lines.append(
            ",".join([
                frame.dates[i].isoformat(),
                *(repr(float(getattr(frame, c)[i])) for c in ("open", "high", "low", "close")),
                str(int(frame.volume[i])),
            ])
        )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def fingerprint_sha(dates, columns) -> str:
    """SHA-256 of rows formatted as 'date,open,high,low,close,volume' with repr floats."""
    digest = hashlib.sha256()
    for i, d in enumerate(dates):
        digest.update(
            (d.isoformat() + "," + ",".join(repr(float(c[i])) for c in columns) + "\n").encode()
        )
    return digest.hexdigest()


@dataclass
class IngestFile:
    """One generated CSV with the ledger of what cleaning must do to it."""

    path: object
    n_rows: int
    fingerprint: str  # fingerprint_sha of what parsing must return
    ledger: dict = field(default_factory=dict)  # expected CleanReport counts
    kept_closes: np.ndarray = None  # closes of rows that must survive cleaning
    nonfinite_dates: set = field(default_factory=set)
    unsorted_rows: int = 0
    slash_dates: int = 0


def ingest_file(path, seed: int, index: int) -> IngestFile:
    rng = np.random.default_rng([seed, index])
    n = INGEST_ROWS
    frame = gbm_frame(
        n, rng, start_price=float(rng.uniform(20.0, 200.0)), drift=0.0002, vol=0.015,
        start=date(2000, 1, 3),
    )
    cells = {
        name: [repr(float(v)) for v in getattr(frame, name)]
        for name in ("open", "high", "low", "close")
    }
    cells["volume"] = [str(int(v)) for v in frame.volume]
    parsed = Frame(
        frame.dates, frame.open.copy(), frame.high.copy(), frame.low.copy(),
        frame.close.copy(), frame.volume.copy(),
    )
    kept = np.ones(n, dtype=bool)
    ledger = {
        "dropped_missing_close": 0,
        "dropped_envelope": 0,
        "dropped_unimputable": 0,
        "imputed_open": 0,
        "imputed_high": 0,
        "imputed_low": 0,
        "imputed_volume": 0,
    }

    def blank(col: str, i: int) -> None:
        cells[col][i] = MISSING_TOKENS[int(rng.integers(len(MISSING_TOKENS)))]
        getattr(parsed, col)[i] = np.nan

    # The first row lacks its low and has no earlier close to impute from.
    blank("low", 0)
    kept[0] = False
    ledger["dropped_unimputable"] += 1

    kinds = [k for k, count in DEFECTS.items() for _ in range(count)]
    slots = rng.choice(np.arange(3, n - 1, 3), size=len(kinds), replace=False)
    nonfinite = set()
    for kind, i in zip(kinds, slots.tolist()):
        o, c = frame.open[i], frame.close[i]
        if kind == "missing_close":
            blank("close", i)
            kept[i] = False
            ledger["dropped_missing_close"] += 1
        elif kind == "missing_open":
            # Imputed from the previous close, which is exactly this open.
            blank("open", i)
            ledger["imputed_open"] += 1
        elif kind in ("missing_high", "missing_low"):
            # Imputed as the previous close (= this open): the envelope then
            # holds only when the open is the body's top (high) or bottom (low).
            col = kind.split("_")[1]
            blank(col, i)
            ledger["imputed_" + col] += 1
            if (col == "high" and c > o) or (col == "low" and c < o):
                kept[i] = False
                ledger["dropped_envelope"] += 1
        elif kind == "missing_volume":
            blank("volume", i)
            ledger["imputed_volume"] += 1
        elif kind == "envelope":
            # A low above the body, or a high below it.
            if rng.random() < 0.5:
                parsed.low[i] = max(o, c) * 1.01
                cells["low"][i] = repr(float(parsed.low[i]))
            else:
                parsed.high[i] = min(o, c) * 0.99
                cells["high"][i] = repr(float(parsed.high[i]))
            kept[i] = False
            ledger["dropped_envelope"] += 1
        else:  # inf_volume: cleaning must not keep a non-finite value
            cells["volume"][i] = "inf"
            parsed.volume[i] = np.inf
            nonfinite.add(frame.dates[i])
            kept[i] = False

    slash = rng.random(n) < 0.5
    date_text = [
        f"{d.year}/{d.month}/{d.day}" if s else d.isoformat()
        for d, s in zip(frame.dates, slash)
    ]
    order = np.arange(n)
    starts = rng.choice(np.arange(0, n - BLOCK_ROWS, BLOCK_ROWS), size=SHUFFLED_BLOCKS, replace=False)
    for s in starts.tolist():
        order[s : s + BLOCK_ROWS] = rng.permutation(order[s : s + BLOCK_ROWS])
    lines = ["Date,Open,High,Low,Close,Volume"]
    for i in order.tolist():
        lines.append(
            ",".join([date_text[i], *(cells[c][i] for c in ("open", "high", "low", "close", "volume"))])
        )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return IngestFile(
        path=path,
        n_rows=n,
        fingerprint=fingerprint_sha(
            parsed.dates, [parsed.open, parsed.high, parsed.low, parsed.close, parsed.volume]
        ),
        ledger=ledger,
        kept_closes=frame.close[kept],
        nonfinite_dates=nonfinite,
        unsorted_rows=int(np.count_nonzero(order != np.arange(n))),
        slash_dates=int(slash.sum()),
    )
