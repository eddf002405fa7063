"""One set-up of a workload in a fresh interpreter, timed from inside it.

    python3 perfbench/fresh_setup.py WORKLOAD SEED WORKDIR

Imports seqcast from ./src, then makes the workload's set-up calls (for
forecast-b1, the `seqcast train` runs that write the weight files) in the
work directory that run.py prepared. Prints one JSON line with the wall time
of each step and its scaled time (see clock.py). The import is scaled by
calibrations taken right after it, in this process, so both see the speed of
the same core. run.py starts several of these and reports their median.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import seqcast.cli  # noqa: E402,F401

IMPORT_S = time.perf_counter() - START

import clock  # noqa: E402
import workloads  # noqa: E402


def main() -> None:
    name, seed, work = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    import_cal = statistics.median(clock.calibration_s() for _ in range(3))
    workload = workloads.WORKLOADS[name](seed, work)
    timer = clock.Clock()
    with timer.timed("setup"):
        workload.setup()
    import_scaled = IMPORT_S * clock.CAL_REFERENCE_S / import_cal
    calls_s, calls_scaled = timer.parts["setup"][0], timer.scaled["setup"][0]
    print(json.dumps({
        "import_s": IMPORT_S,
        "calls_s": calls_s,
        "scaled_s": import_scaled + calls_scaled,
    }))


if __name__ == "__main__":
    main()
