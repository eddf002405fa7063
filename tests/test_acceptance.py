"""End-to-end acceptance checks.

Each test covers one release criterion, prints a single PASS/FAIL line on
the terminal (bypassing capture) and then asserts. Criteria:

1. analytic gradients match finite differences for all three models
2. metric identities hold on random data
3. the unit-root test matches frozen reference values
4. all three models learn a seeded sine at default settings
5. the comparison pipeline is byte-for-byte deterministic
6. the data layer is exact: parsing, scaling, windowing
7. forecasts deliver exactly `horizon` finite values in price units
"""

import time

import numpy as np

from seqcast import data as dat
from seqcast import models
from seqcast.cli import main
from seqcast.forecast_eval import compute_metrics, recursive_forecast
from seqcast.models import MODEL_KINDS, ModelConfig
from seqcast.numerics import make_rng
from seqcast.stationarity import adf_test
from seqcast.training import train

from conftest import tiny_config_text
from gradcheck import grad_check

# Frozen offline reference values for the unit-root criterion; the same
# constants are cross-checked in test_stationarity.py.
RW_SEED, AR_SEED, WN_SEED, N_ADF = 40, 43, 44, 500
RW_LAG3_STAT = -1.5717581390448185
AR_LAG3_STAT = -9.6378986577511583


def announce(capsys, number: int, title: str, ok: bool, detail: str):
    with capsys.disabled():
        print(f"\ncriterion {number} ({title}): {'PASS' if ok else 'FAIL'} - {detail}")


def mse_setup(params, x, y):
    def loss_fn(p):
        preds, _ = models.forward(p, x)
        return float(np.mean((preds - y) ** 2))

    preds, cache = models.forward(params, x)
    d_preds = 2.0 * (preds - y) / preds.size
    return loss_fn, models.backward(params, cache, d_preds)


def test_criterion_1_gradient_fidelity(capsys):
    cases = {
        "lstm": (ModelConfig(kind="lstm", hidden=4), 5),
        "gru": (ModelConfig(kind="gru", hidden=4), 5),
        "transformer": (
            ModelConfig(kind="transformer", d_model=8, n_heads=2, n_layers=1, d_ff=16),
            6,
        ),
    }
    started = time.perf_counter()
    worst = {}
    for name, (cfg, steps) in cases.items():
        errs = []
        for seed in range(5):
            params = models.init_params(cfg, make_rng(1000 + seed))
            x = make_rng(2000 + seed).normal(size=(3, steps))
            y = make_rng(3000 + seed).normal(size=3)
            loss_fn, analytic = mse_setup(params, x, y)
            errs.append(grad_check(loss_fn, params, analytic))
        worst[name] = max(errs)
    elapsed = time.perf_counter() - started

    ok = all(v < 1e-4 for v in worst.values()) and elapsed < 30.0
    detail = (
        ", ".join(f"{k} worst rel err {v:.2e}" for k, v in worst.items())
        + f", {elapsed:.1f}s of 30s"
    )
    announce(capsys, 1, "gradient fidelity", ok, detail)
    for name, err in worst.items():
        assert err < 1e-4, f"{name}: {err}"
    assert elapsed < 30.0


def test_criterion_2_metric_identities(capsys):
    rng = make_rng(2025)
    worst_sq, worst_r2 = 0.0, 0.0
    mae_ok = True
    for _ in range(1000):
        n = int(rng.integers(2, 60))
        y = rng.normal(size=n) * float(rng.uniform(0.5, 50))
        p = y + rng.normal(size=n) * float(rng.uniform(0.0, 10))
        if np.ptp(y) == 0.0:
            continue
        m = compute_metrics(y, p)
        worst_sq = max(worst_sq, abs(m.rmse**2 - m.mse))
        mae_ok = mae_ok and m.mae <= m.rmse + 1e-12
        worst_r2 = max(worst_r2, abs(compute_metrics(y, y).r2 - 1.0))
        worst_r2 = max(worst_r2, abs(compute_metrics(y, np.full(n, y.mean())).r2))

    ok = worst_sq <= 1e-9 and mae_ok and worst_r2 <= 1e-12
    detail = (
        f"1000 pairs: |rmse^2-mse| <= {worst_sq:.1e} (tol 1e-9), mae<=rmse {mae_ok}, "
        f"r2 identity err <= {worst_r2:.1e} (tol 1e-12)"
    )
    announce(capsys, 2, "metric identities", ok, detail)
    assert worst_sq <= 1e-9
    assert mae_ok
    assert worst_r2 <= 1e-12


def test_criterion_3_unit_root_reference(capsys):
    started = time.perf_counter()
    rw = np.cumsum(make_rng(RW_SEED).normal(size=N_ADF))
    g = make_rng(AR_SEED)
    eps = g.normal(size=N_ADF)
    ar = np.empty(N_ADF)
    ar[0] = 0.0
    for t in range(1, N_ADF):
        ar[t] = 0.5 * ar[t - 1] + eps[t]
    wn = make_rng(WN_SEED).normal(size=N_ADF)

    rw_res = adf_test(rw, fixed_lag=3)
    ar_res = adf_test(ar, fixed_lag=3)
    wn_res = adf_test(wn)
    elapsed = time.perf_counter() - started

    rw_err = abs(rw_res.statistic - RW_LAG3_STAT)
    ar_err = abs(ar_res.statistic - AR_LAG3_STAT)
    ok = (
        rw_err < 1e-6
        and ar_err < 1e-6
        and rw_res.p_value > 0.10
        and wn_res.p_value < 0.01
        and elapsed < 5.0
    )
    detail = (
        f"stat err rw {rw_err:.1e}, ar {ar_err:.1e} (tol 1e-6); "
        f"rw p {rw_res.p_value:.3f} > 0.10, wn p {wn_res.p_value:.2e} < 0.01; "
        f"{elapsed:.2f}s of 5s"
    )
    announce(capsys, 3, "unit-root reference", ok, detail)
    assert rw_err < 1e-6
    assert ar_err < 1e-6
    assert rw_res.p_value > 0.10
    assert wn_res.p_value < 0.01
    assert elapsed < 5.0


def test_criterion_4_models_learn_sine(capsys, tmp_path):
    from seqcast.forecast_eval import prepare_windows
    from seqcast.runconfig import RunConfig

    series = dat.synth_ohlcv("sine+noise", 1000, 11)
    run_cfg = RunConfig()  # default lookback 60, horizon 30, seed 0
    train_ds, val_ds, seed_window, scaler, test = prepare_windows(
        series, run_cfg.lookback, run_cfg.horizon, run_cfg.val_frac
    )

    test_r2, times = {}, {}
    lstm_val_r2 = None
    for kind in MODEL_KINDS:
        started = time.perf_counter()
        params, _ = train(
            run_cfg.model_config(kind), train_ds, val_ds, run_cfg.train_config(kind),
            tmp_path / f"train-{kind}.ndjson",
        )
        times[kind] = time.perf_counter() - started
        path = recursive_forecast(params, seed_window, run_cfg.horizon, scaler)
        test_r2[kind] = compute_metrics(test.close, path).r2
        if kind == "lstm":
            val_preds, _ = models.forward(params, val_ds.inputs)
            lstm_val_r2 = compute_metrics(val_ds.targets, val_preds).r2

    ok = (
        all(v >= 0.8 for v in test_r2.values())
        and lstm_val_r2 >= 0.9
        and all(t < 120.0 for t in times.values())
    )
    detail = (
        ", ".join(f"{k} test r2 {v:.3f} ({times[k]:.0f}s)" for k, v in test_r2.items())
        + f"; lstm val one-step r2 {lstm_val_r2:.3f} >= 0.9; limit 120s per model"
    )
    announce(capsys, 4, "models learn seeded sine", ok, detail)
    for kind, r2 in test_r2.items():
        assert r2 >= 0.8, f"{kind} test r2 {r2}"
    assert lstm_val_r2 >= 0.9
    for kind, t in times.items():
        assert t < 120.0, f"{kind} took {t:.0f}s"


def test_criterion_5_pipeline_determinism(capsys, tmp_path, sine_csv):
    out = tmp_path / "out"
    cfg = tmp_path / "run.ini"
    cfg.write_text(tiny_config_text(sine_csv, str(out), seed=3, horizon=10))
    tracked = ["report.json"] + [f"weights-{k}.txt" for k in MODEL_KINDS]

    assert main(["compare", "--config", str(cfg)]) == 0
    first = {name: (out / name).read_bytes() for name in tracked}
    assert main(["compare", "--config", str(cfg)]) == 0
    second = {name: (out / name).read_bytes() for name in tracked}

    same = [name for name in tracked if first[name] == second[name]]
    ok = len(same) == len(tracked)
    detail = f"{len(same)}/{len(tracked)} artifacts byte-identical across reruns"
    announce(capsys, 5, "pipeline determinism", ok, detail)
    for name in tracked:
        assert first[name] == second[name], f"{name} differs between identical runs"


def test_criterion_6_data_layer_exactness(capsys, tmp_path):
    csv = tmp_path / "two_rows.csv"
    csv.write_text(
        "Date, Open, High, Low, Close, Volume\n"
        "2015/1/2, 14.858, 14.883333, 14.217333, 14.620667, 71466000\n"
        "2015/1/5, 14.303333, 14.433333, 13.810667, 14.006, 80527500\n"
    )
    series = dat.parse_csv(csv)
    expected = [
        ("2015-01-02", 14.858, 14.883333, 14.217333, 14.620667, 71466000.0),
        ("2015-01-05", 14.303333, 14.433333, 13.810667, 14.006, 80527500.0),
    ]
    rows_exact = all(
        series.dates[i].isoformat() == e[0]
        and series.open[i] == e[1]
        and series.high[i] == e[2]
        and series.low[i] == e[3]
        and series.close[i] == e[4]
        and series.volume[i] == e[5]
        for i, e in enumerate(expected)
    )

    rng = make_rng(77)
    v = rng.normal(size=500) * 40 + 100
    scaler = dat.fit_scaler(v)
    round_trip_err = float(np.max(np.abs(scaler.inverse(scaler.transform(v)) - v)))

    window_ok = True
    for _ in range(100):
        lookback = int(rng.integers(1, 120))
        n = lookback + int(rng.integers(1, 300))
        if len(dat.make_windows(rng.random(n), lookback)) != n - lookback:
            window_ok = False
            break

    ok = rows_exact and round_trip_err < 1e-12 and window_ok
    detail = (
        f"sample rows exact {rows_exact}; scaler round-trip err {round_trip_err:.1e} "
        f"(tol 1e-12); window count n-lookback held on 100 random pairs {window_ok}"
    )
    announce(capsys, 6, "data-layer exactness", ok, detail)
    assert rows_exact
    assert round_trip_err < 1e-12
    assert window_ok


def test_criterion_7_forecast_contract(capsys, tmp_path, sine_csv, sine_series):
    out = tmp_path / "fc"
    cfg = tmp_path / "run.ini"
    cfg.write_text(tiny_config_text(sine_csv, str(out), seed=2, horizon=30))
    assert main(["train", "--config", str(cfg), "--model", "gru"]) == 0
    assert main(["forecast", "--config", str(cfg), "--model", "gru"]) == 0

    rows = (out / "forecast-gru.csv").read_text().splitlines()
    values = np.array([float(r.split(",")[1]) for r in rows[1:]])
    count_ok = rows[0] == "date,forecast" and len(values) == 30
    finite_ok = bool(np.isfinite(values).all())
    # price units, not the model's [0,1] scaled space
    lo, hi = float(sine_series.close.min()), float(sine_series.close.max())
    span = hi - lo
    units_ok = bool((values > lo - span).all() and (values < hi + span).all())
    svg_ok = (out / "forecast-gru.svg").read_text().startswith("<svg")

    ok = count_ok and finite_ok and units_ok and svg_ok
    detail = (
        f"30 rows {count_ok}, all finite {finite_ok}, price-unit range {units_ok}, "
        f"svg emitted {svg_ok}"
    )
    announce(capsys, 7, "forecast contract", ok, detail)
    assert count_ok
    assert finite_ok
    assert units_ok
    assert svg_ok
