"""seqcast benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: seqcast is imported from ./src and
nothing is built. Inputs are generated from --seed under .perfbench_work/
and removed when the run ends. Set-up (the seqcast import and any program
calls made before timing) runs in fresh interpreters, see fresh_setup.py.
Whole rounds of the workload's program calls then repeat in this process
until --seconds have passed (at least one round). The last line of
standard output is the result; the line before it is the run's record
(environment, artifact hashes, failed operations, per-function spans).

--trace 0 reports the end-to-end metrics of BENCHMARK.json. --trace 1
alternates untraced and traced rounds and reports the per-layer metrics:
spans from the traced rounds, workload figures from the untraced ones.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> int:
    """Pin BLAS to one thread, whatever the caller's environment says; must run before numpy loads.

    One thread keeps figures steady on a shared machine: with two, OpenBLAS
    threads spin against other load and a 4000-row least-squares fit ran
    up to 20 times slower. Training speed does not change with the count.
    Set-up children inherit the setting.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def import_seqcast():
    sys.path.insert(0, str(SRC))
    try:
        import seqcast
    except ImportError as exc:
        sys.exit(f"error: cannot import seqcast from {SRC}: {exc}")
    if Path(seqcast.__file__).resolve().parent != (SRC / "seqcast").resolve():
        sys.exit(f"error: imported seqcast from {seqcast.__file__}, not from {SRC}")


def fresh_setup(workload: str, seed: int, work: Path) -> dict:
    """Run one set-up in a new interpreter (see fresh_setup.py), wait for it, return its timings."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("fresh_setup.py")), workload, str(seed), str(work)],
        cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far; set-up children are not counted."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment(nproc: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown", "version": "unknown"}
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": nproc,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def per_layer_metrics(
    spec: dict, tracer, summary: dict, traced: list, untraced: list, figures: dict
) -> dict:
    """Per-layer metrics: workload figures from untraced rounds, spans per traced round."""
    from spans import layer_of

    rounds = len(traced)

    def value(name: str) -> float:
        if name in FIGURES:
            return figures.get(name, 0.0)
        if name in COUNTERS:
            return tracer.counts.get(name, 0) / rounds
        if name.startswith("self_s."):
            layer = name[len("self_s."):]
            return sum(s["self_s"] for n, s in summary.items() if layer_of(n) == layer) / rounds
        if name == "traced_wall_s":
            return sum(traced) / rounds
        if name == "unattributed_s":
            return (sum(traced) - tracer.top_level_s()) / rounds
        if name == "tracing_overhead_s":
            return statistics.median(traced) - statistics.median(untraced)
        if name.endswith(".calls"):
            return summary.get(name[: -len(".calls")], {"calls": 0})["calls"] / rounds
        if name.endswith(".s"):
            return summary.get(name[: -len(".s")], {"median_s": 0.0})["median_s"]
        raise ValueError(f"no rule gives the per-layer metric {name!r}")

    return {m["name"]: {"value": value(m["name"]), "unit": m["unit"]} for m in spec["per_layer"]}


# Figures a workload reports from its untraced rounds; 0 on workloads without them.
FIGURES = (
    "compare_s", "ingest_rows_per_s",
    *(f"{fig}.{k}" for fig in ("train_windows_per_s", "test_r2", "forecast_steps_per_s")
      for k in ("lstm", "gru", "transformer")),
)
COUNTERS = ("data.rows", "stationarity.regressions", "training.batches",
            "forecast_eval.forecast_steps", "weights_io.bytes")


def main(argv=None) -> int:
    nproc = cap_blas_threads()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    import_seqcast()

    from clock import Clock
    from spans import Tracer
    from workloads import KNOWN_FAULTS, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    work = ROOT / ".perfbench_work" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, work)
        workload.prepare()
        setups = [fresh_setup(args.workload, args.seed, work) for _ in range(SETUP_REPEATS)]
        rss_before_rounds = peak_rss_mb()

        tracer = Tracer() if args.trace else None
        untraced, traced, samples, ops = [], [], [], []
        scaled = defaultdict(list)
        started = time.perf_counter()
        while True:
            for round_tracer in ([None, tracer] if tracer else [None]):
                clock = Clock(round_tracer)
                round_samples, round_ops = workload.run_round(clock)
                ops += round_ops
                if round_tracer:
                    traced.append(clock.total)
                else:
                    untraced.append(clock.total)
                    samples.append(round_samples)
                    for part, times in clock.scaled.items():
                        scaled[part] += times
            if time.perf_counter() - started >= args.seconds:
                break
        determinism = workload.record()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    figures = {
        name: statistics.median(s[name] for s in samples)
        for name in FIGURES if name in samples[0]
    }
    failed = Counter(name for name, ok in ops if not ok)
    unknown = sorted(name for name in failed if name.rsplit(".", 1)[-1] not in KNOWN_FAULTS)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": {"untraced": len(untraced), "traced": len(traced)},
        "environment": environment(nproc),
        "setup": setups,
        "peak_rss_before_rounds_mb": rss_before_rounds,
        "untraced_round_wall_s": untraced,
        "figures": figures,
        "determinism": determinism,
        "known_faults": KNOWN_FAULTS,
        "failed_operations": dict(sorted(failed.items())),
        "unexpected_failures": unknown,
    }
    if tracer:
        record["spans"] = tracer.summary()
        metrics = per_layer_metrics(spec, tracer, record["spans"], traced, untraced, figures)
    else:
        end_to_end = {
            "setup_s": statistics.median(s["scaled_s"] for s in setups),
            "peak_rss_mb": peak_rss_mb(),
            # Each timed part at its median scaled time over the run, counted
            # as often as one round makes it.
            "round_s": sum(
                statistics.median(times) * len(times) / len(untraced) for times in scaled.values()
            ),
        }
        metrics = {
            m["name"]: {"value": end_to_end[m["name"]], "unit": m["unit"]}
            for m in spec["end_to_end"]
        }
    print(json.dumps(record))
    print(json.dumps({
        "correct": not unknown,
        "attempted": len(ops),
        "failed": sum(failed.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
