"""Workloads of the equiflow benchmark: seeded inputs, units and their checks.

Each workload is built from a seed (the set-up), then runs its units in a
fixed order (one pass).  A unit's run records each of its calls into equiflow
as one lap: its kind and its duration.  Laps of one kind in one unit do the
same work, so the benchmark can take a kind's fastest lap over all the passes
of a run as the time of that work.  Every call into equiflow goes through an
attribute of the `equiflow` package looked up at call time, so the traced
run's wrappers see it.

- `table-linear`, `table-tanh`: the criterion-1 verdict matrix at the dims
  and trials `LINEAR_TABLE` and `TANH_TABLE` give, one `classify_equivariance`
  call (one lap) per (dim, algorithm, family) cell.  Trials are seeded per
  cell, so a per-cell call gives the report of that cell in the per-builder
  call `reproduce_table` makes.
- `drift-shear`: the criterion-6 study, one unit per (algorithm, scheme).  A
  unit computes what `equivariance_drift` computes, through the same public
  calls, but integrates in chunks of `DRIFT_CHUNK_STEPS` steps, each chunk
  continuing from the last one's final state, so a lap lasts a few
  milliseconds.  The chunks give the states one `integrate` call gives, bit
  for bit.  Chunks of one length on one trajectory are one kind: a flow
  evaluation does the same arithmetic at every state.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

import equiflow
from equiflow import EquiflowError, SingularMatrixError, ToleranceGapError

# table-tanh runs the criterion-1 matrix with the classify_equivariance
# default of 8 trials per family, under which its known tolerance-gap cells
# show.  table-linear runs one trial per family at N = 2 and 4: a cell then
# lasts a few milliseconds and a pass a few tenths of a second, so a run
# repeats every cell a hundred times or more and the fastest repeat is steady
# on a busy host.  With N = 8 too, one-trial cells of ~20 ms repeated ~45 times
# per run left spreads of 0.10-0.20 over ten seeds on a 2-vCPU host.
TANH_TABLE = {"dims": (2, 4, 8), "trials": 8}
LINEAR_TABLE = {"dims": (2, 4), "trials": 1}

DRIFT_DIM = 2
DRIFT_ALGORITHMS = ("ngd", "ggn")
DRIFT_SCHEMES = ("euler", "rk4")
DRIFT_H = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)
DRIFT_HORIZON = 1.0
DRIFT_START = (0.8, -0.6)
DRIFT_CHUNK_STEPS = 2
EULER_SLOPE_RANGE = (0.8, 1.3)


class Cell(NamedTuple):
    dim: int
    algorithm: str
    family: str

    def __str__(self):
        return f"N={self.dim} {self.algorithm} x {self.family}"


class Study(NamedTuple):
    algorithm: str
    scheme: str

    def __str__(self):
        return f"{self.algorithm} {self.scheme}"


@dataclass(frozen=True)
class Outcome:
    """How one unit ended: ok, mismatch, gap, singular or other."""

    unit: str
    kind: str
    detail: str
    record: tuple  # what the residual digest covers

    def line(self) -> str:
        return f"{self.unit}: {self.kind}" + (f" ({self.detail})" if self.detail else "")


def _error_kind(exc: EquiflowError) -> str:
    if isinstance(exc, ToleranceGapError):
        return "gap"
    if isinstance(exc, SingularMatrixError):
        return "singular"
    return "other"


def _failure(unit, exc: EquiflowError) -> Outcome:
    kind = _error_kind(exc)
    return Outcome(str(unit), kind, str(exc), (*unit, kind, str(exc)))


def timed(laps: list, kind: str, fn, *args, **kwargs):
    """fn(*args, **kwargs), with [kind, its duration in seconds] appended to `laps`."""
    began = time.perf_counter()
    try:
        return fn(*args, **kwargs)
    finally:
        laps.append([kind, time.perf_counter() - began])


def digest(outcomes) -> str:
    """sha256 over every unit's record: verdicts, residuals, drift points."""
    h = hashlib.sha256()
    for outcome in outcomes:
        h.update(repr(outcome.record).encode())
        h.update(b"\n")
    return h.hexdigest()


class TableWorkload:
    """The criterion-1 verdict matrix on one corpus ("linear" or "mlp-tanh")."""

    def __init__(self, kind: str, seed: int, dims: tuple, trials: int):
        self.seed = seed
        self.trials = trials
        self.builders = {
            (dim, alg): equiflow.default_flow_builder(alg, dim, seed=seed, kind=kind)
            for dim in dims
            for alg in equiflow.ALGORITHMS
        }
        self.units = [
            Cell(dim, alg, family)
            for dim, alg in self.builders
            for family in equiflow.FAMILIES
        ]

    def run(self, cell: Cell, laps: list):
        """The cell's ResidualReport, or the EquiflowError it raised."""
        try:
            [report] = timed(
                laps,
                "classify",
                equiflow.classify_equivariance,
                self.builders[cell.dim, cell.algorithm],
                families=[cell.family],
                trials_per_family=self.trials,
                seed=self.seed,
            )
        except EquiflowError as exc:
            return exc
        return report

    def judge(self, results) -> list[Outcome]:
        outcomes = []
        for cell, result in zip(self.units, results):
            if isinstance(result, EquiflowError):
                outcomes.append(_failure(cell, result))
                continue
            expected = equiflow.expected_verdict(cell.algorithm, cell.family)
            ok = result.verdict == expected
            outcomes.append(
                Outcome(
                    str(cell),
                    "ok" if ok else "mismatch",
                    "" if ok else f"{result.verdict}, expected {expected}",
                    (*cell, result.verdict, result.max_residual, result.mean_residual),
                )
            )
        return outcomes


class DriftWorkload:
    """The criterion-6 drift study under the seeded shear."""

    def __init__(self, seed: int):
        self.builders = {
            alg: equiflow.default_flow_builder(alg, DRIFT_DIM, seed=seed)
            for alg in DRIFT_ALGORITHMS
        }
        # SeedSequence pads its entropy with zeros, so seed 0 draws criterion 6's shear.
        rng = np.random.default_rng([6, DRIFT_DIM, seed])
        self.g = equiflow.sample_diffeomorphism("shear", DRIFT_DIM, rng)
        self.start = equiflow.state_order1(list(DRIFT_START))
        self.h_list = DRIFT_H
        self.units = [Study(alg, scheme) for alg in DRIFT_ALGORITHMS for scheme in DRIFT_SCHEMES]

    def run(self, study: Study, laps: list):
        """The study's DriftResult, or the EquiflowError it raised."""
        builder = self.builders[study.algorithm]
        try:
            base_flow = timed(laps, "build", builder.build)
            barred_flow = timed(laps, "build barred", builder.build, self.g)
            start_barred = timed(laps, "push start", equiflow.pushforward_state, self.g, self.start)
            points, diverged = [], []
            for h in self.h_list:
                steps = max(1, round(DRIFT_HORIZON / h))
                try:
                    base = _integrate(laps, f"base {h}", base_flow, self.start, h, steps, study.scheme)
                    barred = _integrate(
                        laps, f"barred {h}", barred_flow, start_barred, h, steps, study.scheme
                    )
                except equiflow.DivergenceError:
                    diverged.append(float(h))
                    continue
                mapped = timed(laps, f"push {h}", equiflow.pushforward_state, self.g, base)
                defect = float(np.linalg.norm(mapped.as_vector() - barred.as_vector()))
                points.append((float(h), defect))
        except EquiflowError as exc:
            return exc
        # The log-log fit of equivariance_drift.
        usable = [(h, d) for h, d in points if d > 0.0]
        if len(usable) >= 2:
            log_h = np.log([h for h, _ in usable])
            log_d = np.log([d for _, d in usable])
            slope = float(np.polyfit(log_h, log_d, 1)[0])
        else:
            slope = float("nan")
        return equiflow.DriftResult(study.scheme, tuple(points), tuple(diverged), slope)

    def judge(self, results) -> list[Outcome]:
        by_study = dict(zip(self.units, results))
        outcomes = []
        for study, result in by_study.items():
            if isinstance(result, EquiflowError):
                outcomes.append(_failure(study, result))
                continue
            problems = []
            if result.diverged:
                problems.append(f"diverged at h in {list(result.diverged)}")
            if study.scheme == "euler":
                low, high = EULER_SLOPE_RANGE
                if not low <= result.slope <= high:
                    problems.append(f"euler slope {result.slope:.3f} outside [{low}, {high}]")
            else:
                euler = by_study[Study(study.algorithm, "euler")]
                if isinstance(euler, EquiflowError) or not all(
                    dr < de for (_, de), (_, dr) in zip(euler.points, result.points)
                ):
                    problems.append("rk4 defect not below euler at every h")
            outcomes.append(
                Outcome(
                    str(study),
                    "mismatch" if problems else "ok",
                    "; ".join(problems),
                    (*study, result.points, result.diverged, result.slope),
                )
            )
        return outcomes


def _integrate(laps, trajectory, flow, state, h, steps, scheme):
    """The final state of `steps` steps, integrated in chunks."""
    for done in range(0, steps, DRIFT_CHUNK_STEPS):
        chunk = min(DRIFT_CHUNK_STEPS, steps - done)
        state = timed(
            laps, f"{trajectory} x{chunk}", equiflow.integrate, flow, state, h, chunk, scheme=scheme
        ).final
    return state


WORKLOADS = {
    "table-linear": lambda seed: TableWorkload("linear", seed, **LINEAR_TABLE),
    "table-tanh": lambda seed: TableWorkload("mlp-tanh", seed, **TANH_TABLE),
    "drift-shear": DriftWorkload,
}
