"""Workload process of the equiflow benchmark.

Imports equiflow, sets up one workload from its seed, runs timed passes over
its units and prints the raw measurements as one JSON line.  `run.py` starts
this process with BLAS pinned to one thread and turns its output into metrics.

    python3 perfbench/worker.py --workload drift-shear --seed 0 --seconds 20 --trace 0
    python3 perfbench/worker.py --workload drift-shear --seed 0 --setup-only
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import equiflow  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, installed  # noqa: E402


def run_pass(workload, tracer=None) -> dict:
    """Run every unit once; time the pass and each lap of each unit from
    outside the program."""
    results, unit_laps = [], []
    start = time.perf_counter()
    for unit in workload.units:
        if tracer is not None:
            tracer.algorithm = unit.algorithm
        laps = []
        results.append(workload.run(unit, laps))
        unit_laps.append(laps)
    wall_s = time.perf_counter() - start
    outcomes = workload.judge(results)
    return {
        "traced": tracer is not None,
        "wall_s": wall_s,
        "unit_laps": unit_laps,
        "outcomes": [[o.kind, o.line()] for o in outcomes],
        "digest": workloads.digest(outcomes),
    }


def run_passes(workload, seconds: float, trace: bool) -> list[dict]:
    """Passes while the next one, as long as the longest so far, still ends
    within `seconds`; at least one.  With tracing, untraced and traced passes
    alternate, at least one of each."""
    passes = []
    start = time.perf_counter()
    while True:
        if trace and len(passes) % 2 == 1:
            tracer = Tracer()
            with installed(tracer):
                record = run_pass(workload, tracer)
            record["layers"] = tracer.metrics()
        else:
            record = run_pass(workload)
        passes.append(record)
        longest = max(p["wall_s"] for p in passes)
        if len(passes) >= (2 if trace else 1) and (
            time.perf_counter() - start + longest > seconds
        ):
            return passes


def machine_info() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    source = Path(__file__).resolve().parents[1] / "src"
    if source not in Path(equiflow.__file__).resolve().parents:
        print(f"equiflow was imported from {equiflow.__file__}, not {source}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = time.perf_counter() - _START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    passes = run_passes(workload, args.seconds, bool(args.trace))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(
        json.dumps(
            {
                "setup_s": setup_s,
                "passes": passes,
                "peak_rss_mb": peak_kb / 1024.0,
                "machine": machine_info(),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
