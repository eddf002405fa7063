"""Whole-pipeline metamorphic properties of ``seqcast compare``.

Held-out independence: the last ``horizon`` rows are the test span, so an
edit of them that ``clean`` keeps must not reach training or forecasting.
2^k equivariance: multiplying every price by a power of two is exact in
float64 and min-max scaling undoes it exactly, so training sees the same
bits and every price the run reports scales exactly.

Each property runs the CLI end to end, from CSV to artifacts, at tiny dims.
"""

import json
import shutil
import tempfile
from datetime import timedelta
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from seqcast import data as dat
from seqcast.cli import main
from seqcast.models import MODEL_KINDS, weights_io

ROWS, HORIZON = 60, 4

TINY_INI = """
[run]
data = {data}
output_dir = {out}
lookback = 6
horizon = {horizon}
val_frac = 0.1
seed = {seed}

[lstm]
hidden = 2
max_epochs = 2
patience = 2

[gru]
hidden = 2
max_epochs = 2
patience = 2

[transformer]
d_model = 2
n_heads = 1
n_layers = 1
d_ff = 2
max_epochs = 2
patience = 2
"""


def run_compare(series: dat.OhlcvSeries, seed: int, tmp: Path) -> dict:
    """`seqcast compare` on series as tmp/prices.csv; every artifact that a run must reproduce.

    Logs lose their wall-clock seconds; weights are kept as bytes and as
    what ``load_weights`` reads from them. A run in the same tmp replaces
    the last, so two runs echo the same config.
    """
    shutil.rmtree(tmp / "out", ignore_errors=True)
    dat.write_ohlcv_csv(series, tmp / "prices.csv")
    ini = TINY_INI.format(data=tmp / "prices.csv", out=tmp / "out", horizon=HORIZON, seed=seed)
    (tmp / "run.ini").write_text(ini, encoding="utf-8")
    assert main(["compare", "--config", str(tmp / "run.ini")]) == 0
    out = tmp / "out"
    logs = {
        kind: [{**json.loads(line), "seconds": None}
               for line in (out / f"train-{kind}.ndjson").read_text().splitlines()]
        for kind in MODEL_KINDS
    }
    weights = {
        kind: (path.read_bytes(), weights_io.load_weights(path, kind))
        for kind in MODEL_KINDS
        for path in [out / f"weights-{kind}.txt"]
    }
    report = json.loads((out / "report.json").read_text())
    return {"report": report, "logs": logs, "weights": weights}


def without_scores(report: dict) -> dict:
    """report without its dataset fingerprint and each model's metrics."""
    entries = [{k: v for k, v in e.items() if k != "metrics"} for e in report["models"]]
    return {**report, "dataset": None, "models": entries}


row_edits = st.lists(
    st.tuples(
        st.floats(0.01, 100.0),  # factor on open, high, low and close
        st.floats(0.0, 1.0),  # high raised by this share
        st.floats(0.0, 1.0),  # low lowered by this share of itself
        st.integers(0, 10**9),  # volume
    ),
    min_size=HORIZON,
    max_size=HORIZON,
)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    kind=st.sampled_from(dat.SYNTH_KINDS),
    edits=row_edits,
    days_later=st.integers(0, 30),
)
def test_held_out_rows_reach_no_training_artifact(seed, kind, edits, days_later):
    series = dat.synth_ohlcv(kind, ROWS, seed)
    cut = ROWS - HORIZON
    cols = {c: getattr(series, c).copy() for c in ("open", "high", "low", "close", "volume")}
    for i, (factor, up, down, volume) in zip(range(cut, ROWS), edits):
        for c in ("open", "high", "low", "close"):
            cols[c][i] *= factor
        cols["high"][i] *= 1.0 + up
        cols["low"][i] /= 1.0 + down
        cols["volume"][i] = volume
    later = tuple(d + timedelta(days=days_later) for d in series.dates[cut:])
    edited = dat.OhlcvSeries(series.dates[:cut] + later, **cols)
    assert len(dat.clean(edited)[0]) == ROWS

    with tempfile.TemporaryDirectory() as tmp:
        base = run_compare(series, seed, Path(tmp))
        moved = run_compare(edited, seed, Path(tmp))
    assert moved["logs"] == base["logs"]
    for name in MODEL_KINDS:
        assert moved["weights"][name][0] == base["weights"][name][0]
    assert without_scores(moved["report"]) == without_scores(base["report"])


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    kind=st.sampled_from(dat.SYNTH_KINDS),
    k=st.integers(-20, 20),
)
def test_prices_times_a_power_of_two_scale_every_reported_price(seed, kind, k):
    series = dat.synth_ohlcv(kind, ROWS, seed)
    scale = 2.0**k
    scaled = dat.OhlcvSeries(
        series.dates, *(getattr(series, c) * scale for c in ("open", "high", "low", "close")),
        series.volume,
    )
    with tempfile.TemporaryDirectory() as tmp:
        base = run_compare(series, seed, Path(tmp))
        times = run_compare(scaled, seed, Path(tmp))
    assert times["logs"] == base["logs"]
    for name in MODEL_KINDS:
        params, recipe = times["weights"][name][1]
        params0, recipe0 = base["weights"][name][1]
        assert params.theta.tobytes() == params0.theta.tobytes()
        assert recipe.lookback == recipe0.lookback
        assert (recipe.scaler.min, recipe.scaler.max) == (
            recipe0.scaler.min * scale, recipe0.scaler.max * scale
        )
    for entry, entry0 in zip(times["report"]["models"], base["report"]["models"]):
        assert entry["history"] == entry0["history"]
        assert entry["forecast"] == [v * scale for v in entry0["forecast"]]
        m, m0 = entry["metrics"], entry0["metrics"]
        assert (m["mae"], m["rmse"]) == (m0["mae"] * scale, m0["rmse"] * scale)
        assert m["mse"] == m0["mse"] * scale**2
        assert (m["r2"], m["fit_degree_pct"]) == (m0["r2"], m0["fit_degree_pct"])
    assert times["report"]["config"] == base["report"]["config"]
