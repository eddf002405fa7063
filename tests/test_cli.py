import json
import os
import shutil
import subprocess
import sys
import tempfile
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from seqcast import data as dat
from seqcast import models, training
from seqcast.cli import _json_text, main
from seqcast.data import Scaler
from seqcast.models import MODEL_KINDS, weights_io
from seqcast.numerics import make_rng
from seqcast.runconfig import canonical_text, parse_config_file

from conftest import tiny_config_text


COMMON_FLAGS = ["--config", "--data", "--seed", "--horizon", "--out", "--print-config"]
HELP_FLAGS = {
    "eda": [*COMMON_FLAGS, "--adf-on"],
    "train": [*COMMON_FLAGS, "--model"],
    "forecast": [*COMMON_FLAGS, "--model"],
    "compare": COMMON_FLAGS,
    "synth": ["--kind", "--n", "--seed", "--out"],
}


def write_config(tmp_path, data_path, out_dir, **kwargs) -> str:
    path = tmp_path / "run.ini"
    path.write_text(tiny_config_text(data_path, out_dir, **kwargs))
    return str(path)


class TestSynth:
    def test_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "fx"
        assert main(["synth", "--kind", "sine+noise", "--n", "50", "--out", str(out)]) == 0
        assert (out / "synth.csv").exists()
        lines = (out / "synth.csv").read_text().splitlines()
        assert len(lines) == 51  # header + rows
        assert "wrote" in capsys.readouterr().out

    def test_same_seed_same_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["synth", "--n", "40", "--seed", "3", "--out", str(a)])
        main(["synth", "--n", "40", "--seed", "3", "--out", str(b)])
        assert (a / "synth.csv").read_bytes() == (b / "synth.csv").read_bytes()

    def test_unknown_kind_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--kind", "brownian-bridge", "--out", str(tmp_path / "x")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("n", ["0", "-5"])
    def test_non_positive_n_is_usage_error(self, tmp_path, capsys, n):
        out = tmp_path / "x"
        assert main(["synth", "--n", n, "--out", str(out)]) == 2
        assert f"--n must be >= 1, got {n}" in capsys.readouterr().err
        assert not out.exists()


class TestEda:
    def test_happy_path_artifacts(self, tmp_path, sine_csv):
        out = tmp_path / "eda"
        assert main(["eda", "--data", sine_csv, "--out", str(out)]) == 0
        payload = json.loads((out / "eda.json").read_text())
        assert payload["n_rows"] == 400
        assert set(payload["adf"]) == {"series", "level", "differenced"}
        assert payload["adf"]["series"] == "monthly-high"
        assert len(payload["monthwise"]) == 12
        assert payload["config"]["seed"] == 0
        svg = (out / "monthwise.svg").read_text()
        assert svg.startswith("<svg")

    def test_adf_on_daily_high(self, tmp_path, sine_csv):
        out = tmp_path / "eda2"
        assert main(["eda", "--data", sine_csv, "--out", str(out), "--adf-on", "daily-high"]) == 0
        payload = json.loads((out / "eda.json").read_text())
        assert payload["adf"]["series"] == "daily-high"
        # daily series has far more observations than the monthly means
        assert payload["adf"]["level"]["n_obs"] > 300

    def test_too_few_months_names_monthly_means_and_the_way_out(self, tmp_path, capsys):
        # 300 weekdays span 14 calendar months, one short of the default ADF's need.
        main(["synth", "--n", "300", "--out", str(tmp_path / "fx")])
        data = str(tmp_path / "fx" / "synth.csv")
        capsys.readouterr()
        assert main(["eda", "--data", data, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "monthly means" in err
        assert "has 14:" in err
        assert "--adf-on daily-high" in err
        assert "series too short" in err
        assert not (tmp_path / "o" / "eda.json").exists()
        daily = ["eda", "--data", data, "--out", str(tmp_path / "o"), "--adf-on", "daily-high"]
        assert main(daily) == 0

    def test_missing_data_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "never"
        assert main(["eda", "--out", str(out)]) == 2
        assert not out.exists()
        assert "no input data" in capsys.readouterr().err

    def test_nonexistent_file_is_config_error(self, tmp_path):
        assert main(["eda", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o")]) == 2

    def test_malformed_csv_is_runtime_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        header = b"Date, Open, High, Low, Close, Volume\n"
        latin1 = header + b"2020/1/6, 1, 2, 0.5, 1\xff, 100\n"
        cases = [
            (header + b"2020/1/6, 1, 2, 0.5, oops, 100\n", "line 2"),
            (latin1, f"{bad}: not UTF-8 text, invalid start byte at byte {latin1.index(0xFF)}"),
        ]
        for text, message in cases:
            bad.write_bytes(text)
            assert main(["eda", "--data", str(bad), "--out", str(tmp_path / "o")]) == 1
            assert message in capsys.readouterr().err


class TestPrintConfig:
    def test_prints_canonical_and_exits_zero(self, tmp_path, sine_csv, capsys):
        cfg = write_config(tmp_path, sine_csv, str(tmp_path / "out"))
        assert main(["compare", "--config", cfg, "--print-config"]) == 0
        text = capsys.readouterr().out
        assert text.startswith("[run]\n")
        assert "[transformer]" in text
        assert "hidden = 8" in text
        assert not (tmp_path / "out").exists()

    def test_flags_override_file_values(self, tmp_path, sine_csv, capsys):
        cfg = write_config(tmp_path, sine_csv, str(tmp_path / "out"))
        flags = ["--data", "other.csv", "--seed", "9", "--horizon", "5", "--out", "elsewhere"]
        assert main(["compare", "--config", cfg, "--print-config", *flags]) == 0
        text = capsys.readouterr().out
        for line in ("data = other.csv", "seed = 9", "horizon = 5", "output_dir = elsewhere"):
            assert f"\n{line}\n" in text
        # untouched file values survive
        assert "\nlookback = 24\n" in text and "\nval_frac = 0.1\n" in text
        assert "[lstm]\nhidden = 8\n" in text

    def test_no_flags_print_the_file_config(self, tmp_path, sine_csv, capsys):
        cfg = write_config(tmp_path, sine_csv, str(tmp_path / "out"))
        assert main(["train", "--config", cfg, "--model", "gru", "--print-config"]) == 0
        assert capsys.readouterr().out == canonical_text(parse_config_file(cfg))

    def test_flags_show_up_in_canonical(self, tmp_path, sine_csv, capsys):
        cfg = write_config(tmp_path, sine_csv, str(tmp_path / "out"))
        main(["compare", "--config", cfg, "--print-config", "--seed", "42"])
        assert "seed = 42" in capsys.readouterr().out
        assert main(["eda", "--config", cfg, "--print-config", "--adf-on", "daily-high"]) == 0
        assert "\nadf_on = daily-high\n" in capsys.readouterr().out


class TestTrain:
    def test_writes_weights_and_log(self, tmp_path, sine_csv, capsys):
        out = tmp_path / "t1"
        cfg = write_config(tmp_path, sine_csv, str(out))
        assert main(["train", "--config", cfg, "--model", "lstm"]) == 0
        assert (out / "weights-lstm.txt").exists()
        log_lines = (out / "train-lstm.ndjson").read_text().splitlines()
        assert 1 <= len(log_lines) <= 6
        assert set(json.loads(log_lines[0])) == {
            "epoch", "train_loss", "val_loss", "seconds", "grad_norm_max", "clipped_batches", "best",
        }
        assert "best epoch" in capsys.readouterr().out

    def test_same_seed_identical_weights(self, tmp_path, sine_csv):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        cfg1 = tmp_path / "c1.ini"
        cfg1.write_text(tiny_config_text(sine_csv, str(out1), seed=5))
        cfg2 = tmp_path / "c2.ini"
        cfg2.write_text(tiny_config_text(sine_csv, str(out2), seed=5))
        main(["train", "--config", str(cfg1), "--model", "gru"])
        main(["train", "--config", str(cfg2), "--model", "gru"])
        assert (out1 / "weights-gru.txt").read_bytes() == (out2 / "weights-gru.txt").read_bytes()

    def test_model_flag_required(self, tmp_path, sine_csv):
        cfg = write_config(tmp_path, sine_csv, str(tmp_path / "o"))
        with pytest.raises(SystemExit) as exc:
            main(["train", "--config", cfg])
        assert exc.value.code == 2

    def test_unknown_model_rejected(self, tmp_path, sine_csv):
        cfg = write_config(tmp_path, sine_csv, str(tmp_path / "o"))
        with pytest.raises(SystemExit) as exc:
            main(["train", "--config", cfg, "--model", "esn"])
        assert exc.value.code == 2


class TestForecast:
    def test_without_weights_is_config_error(self, tmp_path, sine_csv, capsys):
        cfg = write_config(tmp_path, sine_csv, str(tmp_path / "empty"))
        assert main(["forecast", "--config", cfg, "--model", "lstm"]) == 2
        assert "weights not found" in capsys.readouterr().err

    def test_train_then_forecast(self, tmp_path, sine_csv):
        out = tmp_path / "fc"
        cfg = write_config(tmp_path, sine_csv, str(out), horizon=8)
        assert main(["train", "--config", cfg, "--model", "gru"]) == 0
        assert main(["forecast", "--config", cfg, "--model", "gru"]) == 0

        rows = (out / "forecast-gru.csv").read_text().splitlines()
        assert rows[0] == "date,forecast"
        assert len(rows) == 9
        values = [float(r.split(",")[1]) for r in rows[1:]]
        assert all(np.isfinite(values))
        # forecast dates fall past the series end, on weekdays
        from datetime import date

        first = date.fromisoformat(rows[1].split(",")[0])
        assert first.weekday() < 5

        payload = json.loads((out / "forecast-gru.json").read_text())
        assert payload["model"] == "gru"
        assert payload["forecast"] == values
        assert (out / "forecast-gru.svg").read_text().startswith("<svg")

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    @settings(
        max_examples=6, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(horizon=st.integers(1, 40), val_frac=st.sampled_from([0.02, 0.1, 0.35, 0.8]))
    def test_first_step_uses_the_stored_recipe(
        self, tmp_path, trained, sine_csv, sine_series, kind, horizon, val_frac
    ):
        # Neither --horizon nor val_frac reaches the scaling: the first step is
        # the saved model's prediction from the training scaler and lookback.
        text = tiny_config_text(sine_csv, str(trained))
        (tmp_path / "fc.ini").write_text(text.replace("val_frac = 0.1", f"val_frac = {val_frac}"))
        argv = ["forecast", "--config", str(tmp_path / "fc.ini"), "--model", kind]
        assert main(argv + ["--horizon", str(horizon)]) == 0
        payload = json.loads((trained / f"forecast-{kind}.json").read_text())
        params, (lookback, scaler) = weights_io.load_weights(trained / f"weights-{kind}.txt", kind)
        window = scaler.transform(sine_series.close[-lookback:])
        assert len(payload["forecast"]) == horizon
        assert payload["forecast"][0] == scaler.inverse(models.predict(params, window))

    @pytest.mark.parametrize("lookback", [23, 25])
    def test_lookback_mismatch_is_runtime_error(self, tmp_path, trained, sine_csv, capsys, lookback):
        text = tiny_config_text(sine_csv, str(trained))
        (tmp_path / "fc.ini").write_text(text.replace("lookback = 24", f"lookback = {lookback}"))
        assert main(["forecast", "--config", str(tmp_path / "fc.ini"), "--model", "lstm"]) == 1
        err = capsys.readouterr().err
        assert f"trained at lookback 24, not {lookback}" in err


@pytest.fixture(scope="module")
def run(tmp_path_factory, sine_csv):
    tmp_path = tmp_path_factory.mktemp("cmp")
    out = tmp_path / "out"
    cfg = tmp_path / "run.ini"
    cfg.write_text(tiny_config_text(sine_csv, str(out), seed=1, horizon=10))
    code = main(["compare", "--config", str(cfg)])
    return code, out


@pytest.fixture(scope="module")
def trained(tmp_path_factory, run):
    """A copy of the compare run's weight files, trained at lookback 24, for forecasts."""
    out = tmp_path_factory.mktemp("trained")
    for kind in MODEL_KINDS:
        shutil.copy(run[1] / f"weights-{kind}.txt", out)
    return out


class TestCompare:
    def test_exit_code_and_artifacts(self, run):
        code, out = run
        assert code == 0
        for name in (
            "report.json",
            "plot.csv",
            "plot.svg",
            *(f"weights-{k}.txt" for k in MODEL_KINDS),
            *(f"train-{k}.ndjson" for k in MODEL_KINDS),
        ):
            assert (out / name).exists(), name

    def test_report_schema(self, run):
        _, out = run
        report = json.loads((out / "report.json").read_text())
        assert set(report) == {"dataset", "models", "config"}
        names = [e["name"] for e in report["models"]]
        assert tuple(names) == MODEL_KINDS
        for entry in report["models"]:
            assert set(entry["metrics"]) == {"r2", "mae", "mse", "rmse", "fit_degree_pct"}
            assert len(entry["forecast"]) == 10
        assert report["config"]["models"]["lstm"]["train"]["seed"] == 2  # run seed 1 + offset

    def test_plot_csv_layout(self, run, sine_series):
        _, out = run
        lines = (out / "plot.csv").read_text().splitlines()
        assert lines[0] == "date,actual,lstm,gru,transformer"
        assert len(lines) == 11
        report = json.loads((out / "report.json").read_text())
        forecasts = [entry["forecast"] for entry in report["models"]]
        held_out = sine_series.slice(len(sine_series) - 10, len(sine_series))
        for i, line in enumerate(lines[1:]):
            day, actual, *per_model = line.split(",")
            assert day == held_out.dates[i].isoformat()
            assert float(actual) == held_out.close[i]
            assert [float(v) for v in per_model] == [f[i] for f in forecasts]

    def test_train_writes_what_compare_writes(self, tmp_path, sine_csv, run):
        # One fit per kind: `train --model k` on compare's config gives the
        # same weight file and the same log, bar the wall-clock seconds.
        _, compared = run
        out = tmp_path / "out"
        cfg = tmp_path / "run.ini"
        cfg.write_text(tiny_config_text(sine_csv, str(out), seed=1, horizon=10))
        for kind in MODEL_KINDS:
            assert main(["train", "--config", str(cfg), "--model", kind]) == 0
            weights = f"weights-{kind}.txt"
            assert (out / weights).read_bytes() == (compared / weights).read_bytes()
            logs = [
                [{**json.loads(line), "seconds": None} for line in path.read_text().splitlines()]
                for path in (out / f"train-{kind}.ndjson", compared / f"train-{kind}.ndjson")
            ]
            assert logs[0] == logs[1]

    def test_a_failing_kind_keeps_the_finished_kinds_files(
        self, tmp_path, sine_csv, monkeypatch, capsys
    ):
        # Each kind's log and weights are written as it finishes, so both
        # come from this run; nothing is written for the kind that failed.
        original = training.train

        def train_all_but_gru(model_cfg, *args, **kwargs):
            if model_cfg.kind == "gru":
                raise training.TrainingError("diverged")
            return original(model_cfg, *args, **kwargs)

        monkeypatch.setattr(training, "train", train_all_but_gru)
        out = tmp_path / "out"
        assert main(["compare", "--config", write_config(tmp_path, sine_csv, str(out))]) == 1
        assert "error: gru: diverged" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["train-lstm.ndjson", "weights-lstm.txt"]

    def test_horizon_below_2_is_config_error_before_training(self, tmp_path, sine_csv, capsys):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, sine_csv, str(out), horizon=1)
        assert main(["compare", "--config", cfg]) == 2
        assert "horizon >= 2" in capsys.readouterr().err
        assert list(out.glob("*")) == []


def _run_in_subprocess(argv) -> subprocess.CompletedProcess:
    """Run the CLI in a separate interpreter, so all that reaches stderr shows."""
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    return subprocess.run(
        [sys.executable, "-m", "seqcast.cli", *argv],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))},
    )


class TestNonFinite:
    def test_prices_whose_squares_overflow_exit_1(self, tmp_path, sine_series, capsys):
        # Forecast errors near 1e160 square past float64's range: no metric,
        # and no report.json holding NaN or Infinity.
        huge = dat.OhlcvSeries(
            sine_series.dates,
            *(getattr(sine_series, c) * 1e160 for c in ("open", "high", "low", "close")),
            sine_series.volume,
        )
        dat.write_ohlcv_csv(huge, tmp_path / "huge.csv")
        out = tmp_path / "out"
        cfg = write_config(tmp_path, str(tmp_path / "huge.csv"), str(out))
        assert main(["compare", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: lstm: ")
        assert "their squares leave float64's range" in err
        assert not (out / "report.json").exists()

    def test_overflowing_forecast_reports_one_error_line(self, tmp_path, sine_csv):
        # A hidden-1 GRU whose head adds 1e308 and more: its path leaves
        # float64's range within two steps. A separate interpreter shows all
        # that reaches stderr, numpy's own warnings included.
        params = models.Params("gru", {"hidden": 1})
        for w in (params.w_z, params.w_r, params.w_h):
            w[0, 1] = 1.0
        params.head_w[0, 0], params.head_b[0] = 1e308, 1.5e308
        out = tmp_path / "out"
        out.mkdir()
        weights_io.save_weights(out / "weights-gru.txt", params, 24, Scaler(0.0, 1.0))
        cfg = write_config(tmp_path, sine_csv, str(out))
        done = _run_in_subprocess(["forecast", "--config", cfg, "--model", "gru"])
        assert done.returncode == 1
        [line] = done.stderr.splitlines()
        assert line.startswith("error: non-finite prediction at forecast step ")

    def test_forecast_that_overflows_when_unscaled_writes_nothing(self, tmp_path, sine_series):
        # Closes near 1e307 scale to [0, 1] fine, but a scaled prediction of
        # 100 unscales past float64's range: an error before any artifact.
        huge = dat.OhlcvSeries(
            sine_series.dates[:200],
            *(getattr(sine_series, c)[:200] * 1e306 for c in ("open", "high", "low", "close")),
            sine_series.volume[:200],
        )
        dat.write_ohlcv_csv(huge, tmp_path / "huge.csv")
        params = models.Params("gru", {"hidden": 1})
        params.head_b[0] = 100.0
        out = tmp_path / "out"
        out.mkdir()
        train_close = dat.chronological_split(huge, test_len=10)[0].close
        weights_io.save_weights(out / "weights-gru.txt", params, 24, dat.fit_scaler(train_close))
        cfg = write_config(tmp_path, str(tmp_path / "huge.csv"), str(out))
        done = _run_in_subprocess(["forecast", "--config", cfg, "--model", "gru"])
        assert done.returncode == 1
        [line] = done.stderr.splitlines()
        assert line.startswith("error: forecast step 0 leaves float64's range when unscaled")
        assert sorted(p.name for p in out.iterdir()) == ["weights-gru.txt"]

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_json_artifacts_refuse_non_finite_values(self, value):
        with pytest.raises(ValueError, match="not JSON compliant"):
            _json_text({"r2": value})


class TestUsage:
    @pytest.mark.parametrize("command", HELP_FLAGS)
    def test_help_lists_every_flag(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        assert text.startswith(f"usage: seqcast {command} [-h]")
        listed = [line.split()[0].rstrip(",") for line in text.splitlines()
                  if line.startswith("  -")]
        assert listed == ["-h", *HELP_FLAGS[command]]

    def test_no_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["analyze"])
        assert exc.value.code == 2

    def test_negative_seed_is_config_error(self, tmp_path, sine_csv, capsys):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, sine_csv, str(out))
        assert main(["compare", "--config", cfg, "--seed", "-1"]) == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()


HOSTILE_INI = """
[run]
data = {data}
output_dir = {out}
lookback = 4
horizon = 3
seed = 0

[lstm]
hidden = 2
max_epochs = 1
patience = 1

[gru]
hidden = 2
max_epochs = 1
patience = 1

[transformer]
d_model = 2
n_heads = 1
n_layers = 1
d_ff = 2
max_epochs = 1
patience = 1
"""

HOSTILE_CLOSES = {
    "sine": lambda n: dat.synth_series("sine+noise", n, 0),
    "sine-times-1e300": lambda n: dat.synth_series("sine+noise", n, 0) * 1e300,
    "sine-times-minus-1e300": lambda n: dat.synth_series("sine+noise", n, 0) * -1e300,
    "sine-subnormal": lambda n: dat.synth_series("sine+noise", n, 0) * 1e-310,
    "5-plus-1e-13-noise": lambda n: 5.0 + 1e-13 * make_rng(0).standard_normal(n),
    "1e15-plus-sine": lambda n: 1e15 + dat.synth_series("sine+noise", n, 0),
    "constant": lambda n: np.full(n, 7.0),
}


def hostile_csv(closes, end, constant_column, duplicate_at, missing, bad_byte_at) -> bytes:
    """OHLCV rows on the weekdays up to `end`, then the requested defects."""
    dates, d = [], end
    while len(dates) < closes.size:
        if d.weekday() < 5:
            dates.append(d)
        d -= timedelta(days=1)
    dates.reverse()
    opens = np.concatenate([closes[:1], closes[:-1]])
    volume = np.full(closes.size, 1e6)
    table = [opens, np.maximum(opens, closes), np.minimum(opens, closes), closes, volume]
    if constant_column is not None:
        table[constant_column] = np.full(closes.size, table[constant_column][0])
    columns = (column.tolist() for column in table)
    rows = [[day.isoformat(), *map(repr, values)] for day, *values in zip(dates, *columns)]
    if duplicate_at is not None and rows:
        i = duplicate_at % len(rows)
        rows[i - 1][0] = rows[i][0]
    for i, column, token in missing:
        rows[i % len(rows)][column] = token
    header = ["Date", "Open", "High", "Low", "Close", "Volume"]
    lines = [",".join(row).encode() for row in [header, *rows]]
    if bad_byte_at is not None:
        lines[1 + bad_byte_at % len(rows)] += b"\xff"
    return b"\n".join(lines) + b"\n"


def _rarely(strategy):
    """strategy's value one time in four, else None, which examples shrink to."""
    return st.integers(0, 3).flatmap(lambda k: strategy if k == 3 else st.none())


def _refuse_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


class TestHostileCsv:
    @pytest.mark.parametrize(
        "recipe", ["sine-times-1e300", "sine-subnormal", "5-plus-1e-13-noise", "1e15-plus-sine"]
    )
    def test_extreme_magnitudes_pass_the_unit_root_test(self, tmp_path, recipe):
        csv_bytes = hostile_csv(HOSTILE_CLOSES[recipe](400), date(2021, 3, 31), None, None, [], None)
        (tmp_path / "prices.csv").write_bytes(csv_bytes)
        out = tmp_path / "out"
        argv = ["eda", "--data", str(tmp_path / "prices.csv"), "--out", str(out)]
        assert main([*argv, "--adf-on", "daily-high"]) == 0
        adf = json.loads((out / "eda.json").read_text())["adf"]
        assert adf["differenced"]["p_value"] < 0.01

    # Every command on every CSV ends in exit code 0, 1 or 2, and every JSON or
    # NDJSON file written holds only finite numbers. Each defect shows up in
    # about one CSV in four, most series are the plain sine, and half span
    # about 21 months. So train exits 0 on about 55% of the CSVs, compare on
    # 45% and the monthly-high eda on 40%. 100 examples take 5-8 s on 2 cores.
    @given(
        recipe=st.just("sine") | st.sampled_from(sorted(HOSTILE_CLOSES)),
        n=st.integers(1, 360) | st.integers(440, 480),
        end=_rarely(st.integers(0, 20).map(lambda k: date.max - timedelta(days=k))),
        constant_column=_rarely(st.integers(0, 4)),
        duplicate_at=_rarely(st.integers(0, 480)),
        missing=_rarely(
            st.lists(
                st.tuples(
                    st.integers(0, 480),
                    st.integers(0, 5),
                    st.sampled_from(["", "nan", "NA", "null", "n/a", "None"]),
                ),
                min_size=1,
                max_size=4,
            )
        ),
        bad_byte_at=_rarely(st.integers(0, 480)),
        kind=st.sampled_from(MODEL_KINDS),
    )
    @example(  # a clean series ending on 9999-12-31: forecast runs past the last date
        recipe="sine", n=200, end=date.max, constant_column=None, duplicate_at=None,
        missing=None, bad_byte_at=None, kind="lstm",
    )
    @settings(max_examples=100, deadline=None)
    def test_every_command_exits_cleanly_and_writes_strict_json(
        self, recipe, n, end, constant_column, duplicate_at, missing, bad_byte_at, kind
    ):
        csv_bytes = hostile_csv(
            HOSTILE_CLOSES[recipe](n),
            end or date(2021, 3, 31),
            constant_column,
            duplicate_at,
            missing or [],
            bad_byte_at,
        )
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            (tmp / "prices.csv").write_bytes(csv_bytes)
            out = tmp / "out"
            ini = tmp / "run.ini"
            ini.write_text(HOSTILE_INI.format(data=tmp / "prices.csv", out=out))
            runs = [
                ["eda", "--config", str(ini), "--adf-on", "monthly-high"],
                ["eda", "--config", str(ini), "--adf-on", "daily-high"],
                ["train", "--config", str(ini), "--model", kind],
                ["forecast", "--config", str(ini), "--model", kind],
                ["compare", "--config", str(ini)],
            ]
            for argv in runs:
                assert main(argv) in (0, 1, 2), argv
            for path in out.glob("*.json"):
                json.loads(path.read_text(encoding="utf-8"), parse_constant=_refuse_constant)
            for path in out.glob("*.ndjson"):
                for line in path.read_text(encoding="utf-8").splitlines():
                    json.loads(line, parse_constant=_refuse_constant)
