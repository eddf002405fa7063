"""The three workloads: what each generates, which program calls it times, what it checks.

A workload's ``run_round`` makes one whole round of the same program calls,
timing each part through ``clock.timed(part)``, and returns (samples, operations).
An operation is one check of a program output: (name, passed). Names listed
in ``KNOWN_FAULTS`` fail on every round because of a named fault in the
program (matched on the last part of the name); any other failure makes
the run incorrect.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import statistics
from datetime import date, timedelta

import numpy as np

import checks
import inputs
from clock import stopwatch

KINDS = ("lstm", "gru", "transformer")
LOOKBACK = 60
VAL_FRAC = 0.1

KNOWN_FAULTS = {
    "no_nonfinite_after_clean": (
        "data.clean keeps rows with an inf volume or price and reports nothing"
    ),
    "first_step_uses_training_scaler": (
        "seqcast forecast re-fits the scaler on a split that depends on --horizon"
    ),
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _cli(*argv: str) -> int:
    from seqcast import cli

    return cli.main(list(argv))


@contextlib.contextmanager
def _inside(directory):
    """Run the CLI from the work directory; report.json then echoes the same
    relative paths in every run and checkout."""
    previous = os.getcwd()
    os.chdir(directory)
    try:
        yield
    finally:
        os.chdir(previous)


def _config(path, run: dict, per_model: dict) -> None:
    lines = ["[run]"] + [f"{k} = {v}" for k, v in run.items()]
    for kind in KINDS:
        lines += ["", f"[{kind}]"] + [f"{k} = {v}" for k, v in per_model.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class CompareC4:
    """`seqcast compare` on the criterion-4 sine; models and training do the work.

    The input is the repository's criterion-4 fixture (sine seed 11, run seed
    0) whatever the workload seed: training cost does not depend on the
    values, and the test-R2 floor of criterion 4 is a property of this input.
    At the same 8-epoch budget, sine seed 16 leaves the Transformer at 0.68,
    so a seed-drawn series would make the floor check fail on some seeds.
    """

    name = "compare-c4"
    ROWS, HORIZON = 1000, 30
    DATA_SEED, RUN_SEED, GRAD_SEED = 11, 0, 1000
    # Early stopping off: patience equals the budget, so every run trains the
    # same batches. At 3 epochs the Transformer's test R2 is negative; at 6
    # it clears the 0.8 floor.
    EPOCHS = 6
    # Small models for the finite-difference check: (config fields, steps).
    GRAD_CASES = {
        "lstm": ({"hidden": 4}, 5),
        "gru": ({"hidden": 4}, 5),
        "transformer": ({"d_model": 8, "n_heads": 2, "n_layers": 1, "d_ff": 16}, 6),
    }

    def __init__(self, seed: int, work):
        self.seed, self.work = seed, work
        self.out = work / "out"
        self.hashes = []

    def prepare(self) -> None:
        self.frame = inputs.sine_frame(self.ROWS, self.DATA_SEED)
        inputs.write_frame(self.frame, self.work / "sine.csv")
        self.config = self.work / "compare.ini"
        _config(
            self.config,
            {"data": "sine.csv", "output_dir": "out", "lookback": LOOKBACK,
             "horizon": self.HORIZON, "val_frac": VAL_FRAC, "seed": self.RUN_SEED},
            {"max_epochs": self.EPOCHS, "patience": self.EPOCHS},
        )

    def setup(self) -> None:
        """No program call precedes the timed compare."""

    def run_round(self, clock):
        from seqcast import training

        with (
            _inside(self.work),
            stopwatch(training, "train", clock) as trains,
            clock.sampling(training, "adam_step", every=16),
            clock.timed("compare"),
        ):
            rc = _cli("compare", "--config", self.config.name)
        samples = {"compare_s": clock.total}
        for args, _, result, seconds in trains:
            kind, train_set, history = args[0].kind, args[1], result[1]
            samples[f"train_windows_per_s.{kind}"] = len(train_set) * history.n_epochs / seconds
        if rc != 0:
            return samples, [("compare.exit_code", False)]
        report = json.loads((self.out / "report.json").read_text(encoding="utf-8"))
        self.hashes.append({
            name: _sha256(self.out / name)
            for name in ["report.json"] + [f"weights-{k}.txt" for k in KINDS]
        })
        for entry in report["models"]:
            samples[f"test_r2.{entry['name']}"] = entry["metrics"]["r2"]
        ops = self._check(report)
        ops.append(("compare.artifacts_identical_across_rounds", self.hashes[-1] == self.hashes[0]))
        return samples, ops

    def _check(self, report) -> list:
        from seqcast import models
        from seqcast.models import ModelConfig, weights_io

        held_out = self.frame.close[-self.HORIZON :]
        ops = [(
            "compare.dataset_fingerprint",
            report["dataset"]["sha256"] == inputs.fingerprint_sha(
                self.frame.dates,
                [self.frame.open, self.frame.high, self.frame.low, self.frame.close,
                 self.frame.volume],
            ),
        )]
        by_name = {e["name"]: e for e in report["models"]}
        for kind in KINDS:
            entry = by_name.get(kind)
            if entry is None:
                ops.append((f"compare.{kind}.reported", False))
                continue
            path = np.array(entry["forecast"], dtype=np.float64)
            finite = path.shape == (self.HORIZON,) and bool(np.isfinite(path).all())
            ops.append((f"compare.{kind}.forecast_30_finite", finite))
            want = checks.error_metrics(held_out, path) if finite else {}
            ops.append((
                f"compare.{kind}.metrics_match_numpy",
                finite and all(
                    checks.close_to(entry["metrics"][m], want[m], 1e-12, 1e-12) for m in want
                ),
            ))
            ops.append((f"compare.{kind}.test_r2_at_least_0.8", entry["metrics"]["r2"] >= 0.8))

        # One-step validation R2 of the saved LSTM on windows cut here.
        scaled, _, _, train_len = checks.scaled_history(self.frame.close, self.HORIZON, VAL_FRAC)
        windows = np.lib.stride_tricks.sliding_window_view(scaled, LOOKBACK)[:-1]
        first_val = train_len - LOOKBACK
        params, _ = weights_io.load_weights(self.out / "weights-lstm.txt", expect_kind="lstm")
        preds, _ = models.forward(params, windows[first_val:])
        val_r2 = checks.error_metrics(scaled[LOOKBACK + first_val :], preds)["r2"]
        ops.append(("compare.lstm.val_r2_at_least_0.9", val_r2 >= 0.9))

        rng = np.random.default_rng(self.GRAD_SEED)
        for kind, (fields, steps) in self.GRAD_CASES.items():
            params = models.init_params(ModelConfig(kind=kind, **fields), rng)
            x = rng.normal(size=(3, steps))
            y = rng.normal(size=3)
            err = checks.fd_gradient_error(models, params, x, y)
            ops.append((f"compare.{kind}.backward_matches_fd", err < 1e-4))
        return ops

    def record(self) -> dict:
        return {"sha256": self.hashes[-1] if self.hashes else {}}


class IngestUniverse:
    """Dirty GBM OHLCV files through the eda and compare data stages; models never run."""

    name = "ingest-universe"
    HORIZON = 30

    def __init__(self, seed: int, work):
        self.seed, self.work = seed, work

    def prepare(self) -> None:
        self.files = [
            inputs.ingest_file(self.work / f"universe-{i:02d}.csv", self.seed, i)
            for i in range(inputs.INGEST_FILES)
        ]

    def setup(self) -> None:
        """No program call precedes the timed chain."""

    def run_round(self, clock):
        from seqcast import data, forecast_eval, stationarity

        ops = []
        for f in self.files:
            with clock.timed("file"):
                parsed = data.parse_csv(f.path)
                cleaned, report = data.clean(parsed)
                fp = data.fingerprint(parsed)
                means = data.monthwise_means(cleaned)
                level = stationarity.adf_test(cleaned.high)
                diffed = stationarity.difference(cleaned.high, 1)
                diff = stationarity.adf_test(diffed)
                prepared = forecast_eval.prepare_windows(cleaned, LOOKBACK, self.HORIZON, VAL_FRAC)
            ops += self._check(f, parsed, cleaned, report, fp, means, level, diffed, diff, prepared)
        return {"ingest_rows_per_s": inputs.INGEST_ROWS / statistics.median(clock.parts["file"])}, ops

    def _check(self, f, parsed, cleaned, report, fp, means, level, diffed, diff, prepared) -> list:
        counts = report.as_dict()
        finite_rows = np.ones(len(cleaned), dtype=bool)
        for col in (cleaned.open, cleaned.high, cleaned.low, cleaned.close, cleaned.volume):
            finite_rows &= np.isfinite(col)
        # Compare kept closes whether or not cleaning dropped the inf rows.
        planted = np.array([d in f.nonfinite_dates for d in cleaned.dates], dtype=bool)
        closes = cleaned.close
        train_ds, val_ds, seed_window, _, _ = prepared
        scaled, _, _, train_len = checks.scaled_history(closes, self.HORIZON, VAL_FRAC)
        windows = np.lib.stride_tricks.sliding_window_view(scaled, LOOKBACK)[:-1]
        got_inputs = np.concatenate([train_ds.inputs, val_ds.inputs])
        got_targets = np.concatenate([train_ds.targets, val_ds.targets])
        month = np.array([d.month for d in cleaned.dates])
        want_means = {
            m: (float(cleaned.open[month == m].mean()), float(cleaned.close[month == m].mean()))
            for m in np.unique(month).tolist()
        }
        return [
            ("ingest.clean_report_matches_ledger",
             all(counts.get(k) == v for k, v in f.ledger.items())),
            ("ingest.kept_closes_exact", np.array_equal(closes[~planted], f.kept_closes)),
            ("ingest.fingerprint_sha256",
             fp["n_rows"] == f.n_rows and fp["sha256"] == f.fingerprint),
            ("ingest.monthwise_means",
             sorted(means) == sorted(want_means)
             and all(checks.close_to(means[m], want_means[m], 1e-12) for m in want_means)),
            ("ingest.adf_level_tratio",
             checks.close_to(level.statistic, checks.adf_tratio(cleaned.high, level.lags_used), 1e-8)),
            ("ingest.adf_diff_tratio_p_below_0.01",
             diff.p_value < 0.01
             and checks.close_to(diff.statistic, checks.adf_tratio(diffed, diff.lags_used), 1e-8)),
            ("ingest.windows_match_scaled_closes",
             got_inputs.shape == windows.shape
             and checks.close_to(got_inputs, windows, 0.0, 1e-12)
             and checks.close_to(got_targets, scaled[LOOKBACK:], 0.0, 1e-12)
             and checks.close_to(seed_window, scaled[-LOOKBACK:], 0.0, 1e-12)
             and len(train_ds) == train_len - LOOKBACK
             and float(scaled[:train_len].min()) >= 0.0 and float(scaled[:train_len].max()) <= 1.0),
            ("ingest.no_nonfinite_after_clean", bool(finite_rows.all())),
        ]

    def record(self) -> dict:
        return {
            "files": len(self.files),
            "rows": sum(f.n_rows for f in self.files),
            "planted_per_file": {**inputs.DEFECTS, "unimputable_first_row": 1},
            "unsorted_rows": sum(f.unsorted_rows for f in self.files),
            "slash_dates": sum(f.slash_dates for f in self.files),
        }


class ForecastB1:
    """`seqcast forecast` for each kind with a long horizon: batch-1 forward passes only."""

    name = "forecast-b1"
    ROWS, TRAIN_ROWS, TRAIN_HORIZON = 2500, 300, 30
    HORIZON, SHORT_HORIZON = 250, 10
    # Forecast steps between two calibrations inside a timed forecast call.
    SAMPLE_EVERY = 10
    # A falling GBM keeps reaching new lows, so the forecast file's training
    # split always holds a lower close than the 300-row training file.
    DRIFT, VOL = -0.0015, 0.01

    def __init__(self, seed: int, work):
        self.seed, self.work = seed, work
        self.out = work / "out"
        self.train_config = work / "train.ini"
        self.forecast_config = work / "forecast.ini"
        self.first_steps = {}

    def prepare(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.frame = inputs.gbm_frame(self.ROWS, rng, 100.0, self.DRIFT, self.VOL, date(2012, 1, 2))
        inputs.write_frame(self.frame, self.work / "series.csv")
        head = inputs.Frame(
            self.frame.dates[: self.TRAIN_ROWS],
            *(getattr(self.frame, c)[: self.TRAIN_ROWS] for c in ("open", "high", "low", "close", "volume")),
        )
        inputs.write_frame(head, self.work / "history.csv")
        run = {"output_dir": self.out, "lookback": LOOKBACK, "val_frac": VAL_FRAC, "seed": self.seed}
        _config(self.train_config, {"data": self.work / "history.csv", **run,
                                    "horizon": self.TRAIN_HORIZON},
                {"max_epochs": 1, "patience": 1})
        _config(self.forecast_config, {"data": self.work / "series.csv", **run}, {})

    def setup(self) -> None:
        """`seqcast train` writes the three weight files the forecasts read; run by each set-up child."""
        for kind in KINDS:
            if _cli("train", "--config", str(self.train_config), "--model", kind) != 0:
                raise RuntimeError(f"seqcast train --model {kind} failed")

    def _forecast(self, kind: str, horizon: int):
        rc = _cli("forecast", "--config", str(self.forecast_config), "--model", kind,
                  "--horizon", str(horizon))
        if rc != 0:
            return None
        return json.loads((self.out / f"forecast-{kind}.json").read_text(encoding="utf-8"))

    def run_round(self, clock):
        from seqcast import models

        samples, ops = {}, []
        for kind in KINDS:
            part = f"{kind}.h{self.HORIZON}"
            with clock.sampling(models, "predict", every=self.SAMPLE_EVERY), clock.timed(part):
                long = self._forecast(kind, self.HORIZON)
            samples[f"forecast_steps_per_s.{kind}"] = self.HORIZON / clock.parts[part][-1]
            # The short call only feeds the first-step check, so it is not timed.
            short = self._forecast(kind, self.SHORT_HORIZON)
            ops += self._check(kind, long, short)
        return samples, ops

    def _check(self, kind: str, long, short) -> list:
        from seqcast import models
        from seqcast.models import weights_io

        def contract(payload, horizon) -> bool:
            if payload is None:
                return False
            values = np.array(payload["forecast"], dtype=np.float64)
            return (
                values.shape == (horizon,)
                and bool(np.isfinite(values).all())
                and payload["dates"] == [
                    d.isoformat()
                    for d in inputs.weekdays(self.frame.dates[-1] + timedelta(days=1), horizon)
                ]
            )

        params, _ = weights_io.load_weights(self.out / f"weights-{kind}.txt", expect_kind=kind)
        closes = self.frame.close
        train_len, _ = checks.split_lengths(self.TRAIN_ROWS, self.TRAIN_HORIZON, VAL_FRAC)
        lo, hi = float(closes[:train_len].min()), float(closes[:train_len].max())
        scaled = (closes - lo) / (hi - lo)
        stack = np.lib.stride_tricks.sliding_window_view(scaled, LOOKBACK)[-16:]
        batched, _ = models.forward(params, stack)
        one_by_one = np.array([models.forward(params, w[None, :])[0][0] for w in stack])
        expected_first = models.predict(params, scaled[-LOOKBACK:]) * (hi - lo) + lo
        self.first_steps[kind] = {
            f"horizon_{self.HORIZON}": long and long["forecast"][0],
            f"horizon_{self.SHORT_HORIZON}": short and short["forecast"][0],
            "training_scaler": expected_first,
        }
        consistent = (
            long is not None and short is not None
            and long["forecast"][0] == short["forecast"][0]
            and checks.close_to(long["forecast"][0], expected_first, 1e-9)
        )
        return [
            (f"forecast.{kind}.horizon_finite_weekdays",
             contract(long, self.HORIZON) and contract(short, self.SHORT_HORIZON)),
            (f"forecast.{kind}.batched_forward_matches_single", checks.close_to(batched, one_by_one, 1e-12)),
            (f"forecast.{kind}.first_step_uses_training_scaler", consistent),
        ]

    def record(self) -> dict:
        return {
            "sha256": {f"weights-{k}.txt": _sha256(self.out / f"weights-{k}.txt") for k in KINDS},
            "first_steps": self.first_steps,
        }


WORKLOADS = {w.name: w for w in (CompareC4, IngestUniverse, ForecastB1)}
