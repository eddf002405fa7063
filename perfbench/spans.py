"""In-memory span recorder that wraps seqcast's public functions from outside.

``Tracer.install`` replaces module attributes with timing wrappers and
``Tracer.uninstall`` puts the originals back, so the program itself carries
no tracing code. A span is (name, start, end, parent index); self time is a
span's length minus the length of its direct children, which nest because
every call is synchronous.
"""

from __future__ import annotations

import functools
import os
import statistics
import time
from collections import defaultdict

TRAIN_BATCH = 32


def _batch_label(params, x, *args, **kwargs) -> str:
    n = len(x)
    return ".b1" if n == 1 else ".b32" if n == TRAIN_BATCH else ".bN"


def _backward_label(params, cache, d_preds, *args, **kwargs) -> str:
    return _batch_label(params, d_preds)


def _adf_regressions(args, kwargs, result) -> int:
    from seqcast import stationarity

    if kwargs.get("fixed_lag") is not None:
        return 1
    max_lag = kwargs.get("max_lag")
    if max_lag is None:
        n = len(args[0])
        max_lag = min(stationarity.default_max_lag(n), n // 2 - 2)
    return max_lag + 2


def _horizon(args, kwargs, result) -> int:
    return len(result)


def _rows(args, kwargs, result) -> int:
    return len(result)


def _file_bytes(args, kwargs, result) -> int:
    return os.path.getsize(args[0])


def _one(args, kwargs, result) -> int:
    return 1


# (module, attribute, span name, label function, (counter name, count function)).
# A kernel imported by name into a model module is wrapped at that call site.
TARGETS = [
    ("seqcast.cli", "main", "cli.main", None, None),
    ("seqcast.data", "parse_csv", "data.parse_csv", None, ("data.rows", _rows)),
    ("seqcast.data", "clean", "data.clean", None, None),
    ("seqcast.data", "fingerprint", "data.fingerprint", None, None),
    ("seqcast.data", "monthwise_means", "data.monthwise_means", None, None),
    ("seqcast.data", "monthly_mean_series", "data.monthly_mean_series", None, None),
    ("seqcast.data", "make_windows", "data.make_windows", None, None),
    ("seqcast.data", "chronological_split", "data.chronological_split", None, None),
    ("seqcast.data", "fit_scaler", "data.fit_scaler", None, None),
    ("seqcast.data", "weekday_dates", "data.weekday_dates", None, None),
    ("seqcast.stationarity", "adf_test", "stationarity.adf_test", None,
     ("stationarity.regressions", _adf_regressions)),
    ("seqcast.stationarity", "difference", "stationarity.difference", None, None),
    ("seqcast.models", "predict", "models.predict", None, None),
    ("seqcast.models", "rebuild", "models.rebuild", None, None),
    ("seqcast.models", "init_params", "models.init_params", None, None),
    ("seqcast.models.lstm", "forward", "models.lstm.forward", _batch_label, None),
    ("seqcast.models.lstm", "backward", "models.lstm.backward", _backward_label, None),
    ("seqcast.models.gru", "forward", "models.gru.forward", _batch_label, None),
    ("seqcast.models.gru", "backward", "models.gru.backward", _backward_label, None),
    ("seqcast.models.transformer", "forward", "models.transformer.forward", _batch_label, None),
    ("seqcast.models.transformer", "backward", "models.transformer.backward",
     _backward_label, None),
    ("seqcast.models.lstm", "sigmoid", "numerics.sigmoid", None, None),
    ("seqcast.models.gru", "sigmoid", "numerics.sigmoid", None, None),
    ("seqcast.models.transformer", "softmax_rows", "numerics.softmax_rows", None, None),
    ("seqcast.training", "train", "training.train", None, None),
    ("seqcast.cli", "train", "training.train", None, None),
    ("seqcast.training", "mse_loss", "training.mse_loss", None, None),
    ("seqcast.training", "clip_global_norm", "training.clip_global_norm", None, None),
    ("seqcast.training", "adam_step", "training.adam_step", None, ("training.batches", _one)),
    ("seqcast.forecast_eval", "compare", "forecast_eval.compare", None, None),
    ("seqcast.forecast_eval", "prepare_windows", "forecast_eval.prepare_windows", None, None),
    ("seqcast.forecast_eval", "recursive_forecast", "forecast_eval.recursive_forecast", None,
     ("forecast_eval.forecast_steps", _horizon)),
    ("seqcast.forecast_eval", "compute_metrics", "forecast_eval.compute_metrics", None, None),
    ("seqcast.models.weights_io", "save_weights", "weights_io.save_weights", None,
     ("weights_io.bytes", _file_bytes)),
    ("seqcast.models.weights_io", "load_weights", "weights_io.load_weights", None,
     ("weights_io.bytes", _file_bytes)),
    ("seqcast.charts", "line_chart_svg", "charts.line_chart_svg", None, None),
    ("seqcast.charts", "bar_chart_svg", "charts.bar_chart_svg", None, None),
]

LAYERS = (
    "cli", "data", "stationarity", "models.lstm", "models.gru", "models.transformer",
    "models", "numerics", "training", "forecast_eval", "weights_io", "charts",
)


def layer_of(span_name: str) -> str:
    for layer in LAYERS:
        if span_name.startswith(layer + "."):
            return layer
    raise ValueError(f"span {span_name!r} belongs to no layer")


class Tracer:
    """Records spans of every wrapped call while installed."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, label, counter):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name + label(*args, **kwargs) if label else name
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (span_name, start, end, parent)
            if counter:
                counts[counter[0]] += counter[1](args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        import importlib

        if self._saved:
            raise RuntimeError("tracer is already installed")
        for module_name, attr, name, label, counter in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, label, counter))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def summary(self) -> dict:
        """Per span name: calls, median seconds per call, total self seconds."""
        durations: dict[str, list[float]] = defaultdict(list)
        self_s: dict[str, float] = defaultdict(float)
        child_s = [0.0] * len(self.spans)
        for idx in range(len(self.spans) - 1, -1, -1):
            name, start, end, parent = self.spans[idx]
            length = end - start
            durations[name].append(length)
            self_s[name] += length - child_s[idx]
            if parent >= 0:
                child_s[parent] += length
        return {
            name: {
                "calls": len(d),
                "median_s": statistics.median(d),
                "self_s": self_s[name],
            }
            for name, d in sorted(durations.items())
        }

    def top_level_s(self) -> float:
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

