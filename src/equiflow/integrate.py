"""Fixed-step explicit integration of flow fields and the drift-vs-h study."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, DivergenceError, EvaluationDomainError
from .flows import FlowField
from .geometry import Diffeomorphism, OptimizerState, check_count, check_positive
from .geometry import pushforward_state

SCHEMES = ("euler", "rk4")
DEFAULT_SCHEME = "euler"

# Flow time over which the drift study compares the two charts.
DRIFT_HORIZON = 1.0

# Most steps one integration takes: 100x criterion 6's largest count (1,000
# steps), about 30-40 s per chart for ngd Euler at N=2 (0.30-0.40 ms per step
# on a 2-vCPU x86_64 guest), and about 41 MB for a kept trajectory (407 B per
# state).
MAX_STEPS = 100_000


@dataclass(frozen=True)
class Trajectory:
    """States of one fixed-step integration, including the initial state."""

    scheme: str
    step: float
    states: tuple

    @property
    def final(self) -> OptimizerState:
        return self.states[-1]


def _unpack(state: OptimizerState):
    return state.time, state.as_vector(), state.order, state.theta.shape[0]


def _pack(time, vec, order, dim) -> OptimizerState:
    derivs = tuple(vec[i * dim : (i + 1) * dim] for i in range(order))
    return OptimizerState(time, derivs)


def integrate(
    flow: FlowField,
    start: OptimizerState,
    h: float,
    steps: int,
    scheme: str = DEFAULT_SCHEME,
) -> Trajectory:
    """Integrate `flow` for `steps` fixed steps of size `h`.

    Time-dependent flows advance xi together with the state.  Raises
    `DivergenceError` with the offending step index if the state leaves the
    finite domain, including a flow evaluation that overflows or leaves its
    function's domain inside a step.
    """
    return Trajectory(scheme, h, (start, *_steps(flow, start, h, steps, scheme)))


def check_step_count(steps: int) -> None:
    """Refuse a step count that is not an integer in [1, MAX_STEPS]; a boolean is not one."""
    check_count(steps, "step count", least=1)
    if steps > MAX_STEPS:
        raise ConfigurationError(f"step count must be in [1, {MAX_STEPS}], got {steps}")


def drift_step_counts(h_list: Sequence[float], horizon: float) -> list[int]:
    """The step count, max(1, round(horizon / h)), the drift study takes at each h.

    Raises `ConfigurationError` when the horizon is not positive, when a
    count is not finite or exceeds `MAX_STEPS`, or when an h repeats an
    earlier one, which would leave the drift slope fit one x value short.
    """
    check_positive(horizon, "horizon")
    counts = []
    for h in h_list:
        if not (h > 0.0 and math.isfinite(horizon / h)):
            raise ConfigurationError(
                f"step count horizon / h is not finite and positive for h = {h}, "
                f"horizon = {horizon}"
            )
        count = max(1, round(horizon / h))
        if count > MAX_STEPS:
            raise ConfigurationError(
                f"step count horizon / h = {count} exceeds MAX_STEPS = "
                f"{MAX_STEPS} for h = {h}, horizon = {horizon}"
            )
        counts.append(count)
    for i, h in enumerate(h_list):
        if h in h_list[:i]:
            raise ConfigurationError(
                f"step size h = {h} is repeated; the slope fit needs distinct step sizes"
            )
    return counts


def _final(flow: FlowField, start: OptimizerState, h: float, steps: int, scheme: str):
    """The last state `integrate` would return, holding one state at a time."""
    state = start
    for state in _steps(flow, start, h, steps, scheme):
        pass
    return state


def _steps(flow: FlowField, start: OptimizerState, h: float, steps: int, scheme: str):
    """The state after each step of `integrate`, one at a time."""
    check_positive(h, "step size")
    check_step_count(steps)
    if scheme not in SCHEMES:
        raise ConfigurationError(f"unknown scheme {scheme!r}")
    if start.order != flow.order:
        raise ConfigurationError("initial state order does not match flow order")

    time, vec, order, dim = _unpack(start)

    def rhs(t, y):
        return flow(_pack(t, y, order, dim)).as_vector()

    for k in range(steps):
        try:
            if scheme == "euler":
                vec = vec + h * rhs(time, vec)
            else:
                k1 = rhs(time, vec)
                k2 = rhs(time + 0.5 * h, vec + 0.5 * h * k1)
                k3 = rhs(time + 0.5 * h, vec + 0.5 * h * k2)
                k4 = rhs(time + h, vec + h * k3)
                vec = vec + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        except (FloatingPointError, OverflowError, EvaluationDomainError) as exc:
            raise DivergenceError(f"flow evaluation diverged: {exc}", step_index=k) from exc
        time = time + h
        if not np.all(np.isfinite(vec)):
            raise DivergenceError(
                f"non-finite state after step {k + 1}", step_index=k + 1
            )
        yield _pack(time, vec, order, dim)


def trajectory_csv_text(trajectory: Trajectory) -> str:
    """Columns: xi, theta_1..theta_N and, for order-2 states, u_1..u_N."""
    first = trajectory.states[0]
    dim = first.theta.shape[0]
    header = ["xi"] + [f"theta_{i + 1}" for i in range(dim)]
    if first.order == 2:
        header += [f"u_{i + 1}" for i in range(dim)]
    lines = [",".join(header)]
    for state in trajectory.states:
        row = [repr(float(state.time))] + [repr(float(v)) for v in state.as_vector()]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class DriftResult:
    """Equivariance defect per step size, plus the fitted log-log slope."""

    scheme: str
    points: tuple  # (h, defect) for completed integrations
    diverged: tuple  # h values excluded from the fit
    slope: float  # NaN when fewer than two defects lie above their roundoff floor


def equivariance_drift(
    flow_builder,
    g: Diffeomorphism,
    start: OptimizerState,
    h_list: Sequence[float],
    horizon: float = DRIFT_HORIZON,
    scheme: str = DEFAULT_SCHEME,
) -> DriftResult:
    """How discretization breaks naturality as the step size shrinks.

    Integrates the base-chart flow from `start` and the intrinsically built
    barred flow from the pushed-forward start over a fixed horizon, then
    measures the final-state mismatch in the barred chart.  Each h takes the
    `drift_step_counts` count of steps, so a p-th order scheme shows slope
    ~ p; the h list that rule refuses raises `ConfigurationError` before any
    integration.  The slope is fitted to the defects above the a-priori
    roundoff bound of `steps` rounded increments, steps * eps * max(1, |barred
    final state|) (Higham, *Accuracy and Stability of Numerical Algorithms*, ch. 4);
    `points` keep every defect.
    """
    counts = drift_step_counts(h_list, horizon)
    base_flow = flow_builder.build()
    barred_flow = flow_builder.build(g)
    start_barred = pushforward_state(g, start)

    points = []
    diverged = []
    usable = []
    for h, steps in zip(h_list, counts):
        try:
            base = _final(base_flow, start, h, steps, scheme)
            barred = _final(barred_flow, start_barred, h, steps, scheme)
        except DivergenceError:
            diverged.append(float(h))
            continue
        mapped = pushforward_state(g, base)
        defect = float(np.linalg.norm(mapped.as_vector() - barred.as_vector()))
        points.append((float(h), defect))
        if defect > steps * np.finfo(float).eps * max(1.0, np.linalg.norm(barred.as_vector())):
            usable.append(points[-1])

    if len(usable) >= 2:
        log_h = np.log([h for h, _ in usable])
        log_d = np.log([d for _, d in usable])
        slope = float(np.polyfit(log_h, log_d, 1)[0])
    else:
        slope = float("nan")
    return DriftResult(scheme, tuple(points), tuple(diverged), slope)
