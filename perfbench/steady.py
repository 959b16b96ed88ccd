"""Steadiness self-check: repeat each workload in fresh processes.

For every workload it runs seeds 1..N, then seed 1 once more, each as
``run.py --trace 0`` in its own process.  It prints, per end-to-end
metric, the median and the quartile spread (interquartile range over
median, as ``statistics.quantiles(values, n=4)`` gives the quartiles),
plus each run's drift ratio: the first tenth of the run's chunks'
normalized per-op cost over the last tenth's.

A run that exits non-zero (an op failed verification, or the run
could not complete) stops the check with that run's standard error.
It fails (exit 1) when ``wire_bytes_per_op``,
``round_trips_per_op`` or ``sim_ms_per_op`` differ between the two
seed-1 runs of a single-client workload: those are simulated counts
and must repeat exactly for one seed.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXACT_METRICS = ("wire_bytes_per_op", "round_trips_per_op", "sim_ms_per_op")
#: one run may take this long before the check gives up on it
RUN_TIMEOUT_S = 600


def run_once(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One fresh-process run; returns (result, audit)."""
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
        cwd=HERE.parent, check=False,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} exited {completed.returncode}:\n"
            f"{completed.stderr}"
        )
    lines = completed.stdout.strip().splitlines()
    audit = json.loads(lines[-2].split(" ", 1)[1])
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"steady_{workload}_seed{seed}.txt").write_text(completed.stdout)
    return json.loads(lines[-1]), audit


def spread(values: list) -> float:
    """Interquartile range as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def run_steady(names: list, repeats: int, seconds: float) -> int:
    from workloads import WORKLOADS

    ok = True
    for name in names:
        runs = [run_once(name, seed, seconds) for seed in range(1, repeats + 1)]
        again, __ = run_once(name, 1, seconds)
        print(f"== {name}: {repeats} seeds, {seconds:g}s each")
        for metric in runs[0][0]["metrics"]:
            values = [result["metrics"][metric]["value"] for result, __ in runs]
            print(
                f"  {metric:22s} median {statistics.median(values):12.4f}  "
                f"spread {spread(values):7.4f}  "
                f"[{min(values):.4f} .. {max(values):.4f}]"
            )
        drifts = [audit["drift_first_last_tenth"] for __, audit in runs]
        print("  drift first/last tenth: "
              + " ".join(f"{d:.3f}" for d in drifts))
        first = runs[0][0]["metrics"]
        if WORKLOADS[name].clients == 1:
            for metric in EXACT_METRICS:
                a = first[metric]["value"]
                b = again["metrics"][metric]["value"]
                if a != b:
                    print(f"  FAIL: {metric} differs for seed 1: {a} != {b}")
                    ok = False
    return 0 if ok else 1
