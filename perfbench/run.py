"""Run the equiflow benchmark's workloads, check their results, and print metrics.

    python3 perfbench/run.py --workload table-linear --seed 0 --seconds 60 --trace 0

Without `--workload` it runs every workload in turn, `table-tanh` too, whose
known tolerance-gap cells fail and which BENCHMARK.json therefore leaves out.
Run it from anywhere inside a checkout that holds `src/equiflow`; it builds
nothing and imports equiflow from that source tree.  `BENCHMARK.json` at the
checkout root lists the metrics this prints.

With `--trace 0` it reports the end-to-end metrics.  Set-up time is the median
over several fresh workload processes; every other metric comes from one
workload process that repeats passes over the workload's units while the next
pass still fits in `--seconds`.  A unit's time is the sum over its laps (its
calls into equiflow) of the fastest lap of each lap's kind in the run; `wall_s`
is the sum over the units, the cell percentiles are taken over the units.
With `--trace 1` the workload process alternates untraced and traced passes
and the per-layer metrics come from the traced ones.

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  The line before it holds the details:
every failed unit by name, the residual digest, the raw samples and the
machine.  A unit fails when equiflow raises an EquiflowError for it or its
verdict or check is wrong; any other error ends the run with a non-zero exit
code and no result.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# The names of workloads.WORKLOADS; run.py itself does not import equiflow.
WORKLOADS = ("table-linear", "table-tanh", "drift-shear")
WORKER = Path(__file__).resolve().parent / "worker.py"

# Fresh set-up-only processes before and after the workload process; with
# the workload process's own, their set-up times give the setup_s median.
SETUP_PROBES_EACH_SIDE = 5
# Everything, the workload process included, ends within this many seconds.
DEADLINE_S = 170.0
# Matrices are at most 16x16, so extra BLAS threads only add noise.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchmarkError(Exception):
    """The run could not produce a result."""


def call_worker(args: list[str], deadline: float) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **PINNED_ENV)
    try:
        done = subprocess.run(
            [sys.executable, str(WORKER), *args],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"workload process timed out: {args}") from exc
    if done.returncode != 0:
        raise BenchmarkError(f"workload process exited with {done.returncode}: {args}")
    return json.loads(done.stdout.splitlines()[-1])


def percentile(values: list[float], share: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[round(share * 100) - 1]


def unit_best(passes: list[dict]) -> list[float]:
    """Each unit's time: over its lap kinds, the kind's lap count in a pass
    times the kind's fastest lap in any pass."""
    best = []
    for repeats in zip(*(p["unit_laps"] for p in passes)):
        counts = Counter(kind for kind, _ in repeats[0])
        if any(Counter(kind for kind, _ in laps) != counts for laps in repeats):
            raise BenchmarkError("a unit made different laps in different passes")
        fastest = {}
        for laps in repeats:
            for kind, seconds in laps:
                fastest[kind] = min(seconds, fastest.get(kind, seconds))
        best.append(sum(n * fastest[kind] for kind, n in counts.items()))
    return best


def traced_metrics(passes: list[dict]) -> dict:
    """Per-layer values over the traced passes: counts must agree, times are medians."""
    layers = [p["layers"] for p in passes]
    merged = {}
    for name in layers[0]:
        values = [layer[name] for layer in layers]
        if name.endswith(".self_ms"):
            merged[name] = statistics.median(values)
        elif any(v != values[0] for v in values):
            raise BenchmarkError(f"{name} differs between traced passes: {values}")
        else:
            merged[name] = values[0]
    return merged


def measure(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    """(result, details) of one run."""
    deadline = time.monotonic() + DEADLINE_S
    base_args = ["--workload", workload, "--seed", str(seed)]

    def probe_setup():
        probes = 0 if trace else SETUP_PROBES_EACH_SIDE
        return [
            call_worker(base_args + ["--setup-only"], deadline)["setup_s"] for _ in range(probes)
        ]

    setup_samples = probe_setup()
    raw = call_worker(
        base_args + ["--seconds", str(seconds), "--trace", str(int(trace))], deadline
    )
    setup_samples += [raw["setup_s"]] + probe_setup()
    passes = raw["passes"]
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]

    kinds = Counter(kind for p in passes for kind, _ in p["outcomes"])
    digests = sorted({p["digest"] for p in passes})
    attempted = sum(len(p["outcomes"]) for p in passes)
    failed = attempted - kinds["ok"]
    correct = kinds["mismatch"] == 0 and len(digests) == 1

    # Laps of one kind do the same work, and other tenants of the host only
    # ever add time, in phases of seconds broken by fast spells of
    # milliseconds; so a lap's time is the fastest lap of its kind (best of N,
    # as timeit takes it), and a unit takes the sum over its laps.  On a
    # 2-vCPU host, drift-shear read 7.3-8.5 s this way over ten seeds (2-step
    # laps, four or five passes each), where whole passes took 9.2-15.1 s.
    unit_s = unit_best(plain)
    wall_s = sum(unit_s)
    if trace:
        metrics = traced_metrics(traced)
        metrics["trace_overhead_share"] = sum(unit_best(traced)) / wall_s - 1.0
    else:
        unit_ms = [1e3 * t for t in unit_s]
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "wall_s": wall_s,
            "cell_p50_ms": percentile(unit_ms, 0.5),
            "cell_p90_ms": percentile(unit_ms, 0.9),
            "peak_rss_mb": raw["peak_rss_mb"],
        }

    details = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "passes": len(passes),
        "units_per_pass": len(passes[0]["outcomes"]),
        "outcomes": dict(kinds),
        "failed_share": failed / attempted,
        "failed_units": [line for kind, line in passes[0]["outcomes"] if kind != "ok"],
        "residual_digest": digests,
        "samples": {
            "setup_s": setup_samples,
            "wall_s": [p["wall_s"] for p in plain],
            "traced_wall_s": [p["wall_s"] for p in traced],
        },
        "machine": raw["machine"],
    }
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, details


def main(argv=None) -> int:
    # Turn SIGTERM into an exception, so subprocess.run kills and reaps the
    # workload process before this one exits.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="default: each one in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "equiflow" / "__init__.py").is_file():
        print(f"no equiflow source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2

    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    for workload in [args.workload] if args.workload else WORKLOADS:
        try:
            result, details = measure(workload, args.seed, args.seconds, bool(args.trace))
        except BenchmarkError as exc:
            print(f"benchmark failed: {exc}", file=sys.stderr)
            return 1
        if set(result["metrics"]) != set(units):
            print(f"metrics {sorted(result['metrics'])} differ from {spec_path.name}", file=sys.stderr)
            return 1
        result["metrics"] = {
            name: {"value": result["metrics"][name], "unit": units[name]} for name in units
        }
        print(json.dumps(details))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
