"""Naturality verdicts: residuals, per-family classification, summary table.

Each algorithm is one row of `FLOW_RECIPES`: its dynamics, metric and
connection.  Its group, in `ALGORITHM_GROUPS`, is the `geometry.meet` of its
parts' groups, read off `PART_GROUPS`, and a cell's expected verdict is
"equivariant" exactly when that group contains the family's group.  A
`FlowBuilder` builds a row's flow in the base chart or, given a
reparameterization, intrinsically in the barred chart.  `naturality_residual`
compares the pushed-forward base flow value against the barred flow value;
classification runs seeded trials per reparameterization family and demands
a crisp verdict.  Each sampled state first passes a conditioning pre-check on
the matrix the flow inverts in both charts; the pre-check and the flow
evaluation that follows share one evaluation of that matrix per state and
chart, whether it is a Fisher, GGN, Hessian or covariant Hessian.

All randomness flows from one integer seed >= 0 (`geometry.check_count`): every
trial uses a PCG64 generator seeded with SeedSequence([seed, dim,
algorithm_index, family_index, trial_index]), and synthetic datasets, the
built-in corpus included, with SeedSequence([seed, param_dim, 101]).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from functools import partial
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .diffcalc import ScalarField
from .errors import ConfigurationError, SingularMatrixError, ToleranceGapError
from .flows import (
    ADAM_EPSILON,
    NESTEROV_DAMPING,
    FlowField,
    GGNWeight,
    adam_stationary_flow,
    fisher_weight,
    ggn_matrix,
    gradient_flow,
    nesterov_flow,
    newton_flow,
)
from .geometry import (
    FAMILIES,
    FAMILY_ROWS,
    Diffeomorphism,
    OptimizerState,
    check_count,
    check_family_dim,
    group_contains,
    meet,
    pullback_connection,
    pullback_loss,
    pushforward_state,
    pushforward_tangent,
    sample_diffeomorphism,
    state_order1,
    state_order2,
)
from .models import Dataset, Model, dataset_loss, linear_model, mlp_tanh


class FlowRecipe(NamedTuple):
    dynamics: str  # "gradient", "nesterov", "adam" or "newton"
    metric: str  # "euclidean", "fisher", "ggn", or Newton's "hessian"
    connection: str  # "none", "flat" (Gamma = 0) or "transported" (pullback_connection)


# One row per algorithm, in the order `trial_rng` indexes them.
FLOW_RECIPES = {
    "gd": FlowRecipe("gradient", "euclidean", "none"),
    "nesterov": FlowRecipe("nesterov", "euclidean", "flat"),
    "adam": FlowRecipe("adam", "euclidean", "none"),
    "newton": FlowRecipe("newton", "hessian", "flat"),
    "newton-covariant": FlowRecipe("newton", "hessian", "transported"),
    "ngd": FlowRecipe("gradient", "fisher", "none"),
    "ggn": FlowRecipe("gradient", "ggn", "none"),
    "nngd": FlowRecipe("nesterov", "fisher", "transported"),
    "agn": FlowRecipe("nesterov", "ggn", "transported"),
}
ALGORITHMS = tuple(FLOW_RECIPES)

# The only parts natural under less than Diff(M), with the reason.  Every other
# part obeys its tensor law (Fisher, GGN, a transported connection, Newton's
# Hessian read through the row's connection) or imposes nothing ("none").
PART_GROUPS = {
    "adam": "B_N x T(N)",  # a componentwise map commutes only with signed permutations and shifts
    "euclidean": "E(N)",  # the identity metric is kept only by isometries of R^N
    "flat": "Aff(N,R)",  # Gamma = 0 is carried to Gamma = 0 only by affine maps
}

# Each row's group: the largest group that every one of its parts is natural under.
ALGORITHM_GROUPS = {
    name: meet(*(PART_GROUPS[part] for part in recipe if part in PART_GROUPS))
    for name, recipe in FLOW_RECIPES.items()
}

# Verdict classification thresholds: residual max <= tolerance is
# equivariant, >= threshold is violated, anything between fails loudly.
EQUIVARIANCE_TOLERANCE = 1e-7
VIOLATION_THRESHOLD = 1e-3

# Sampling effort per (algorithm, family) cell, and the table's dimensions.
TRIALS_PER_FAMILY = 32
STATES_PER_TRIAL = 2
TABLE_DIMS = (2, 4, 8)

# States are drawn uniformly from this box, rejecting ill-conditioned points,
# with at most STATE_MAX_TRIES draws per state.
STATE_BOX = 1.5
STATE_MAX_CONDITION = 1e8
STATE_MAX_TRIES = 100


def check_thresholds(tolerance: float, violation_threshold: float) -> None:
    """Refuse a tolerance that leaves no gap below the violation threshold."""
    if tolerance >= violation_threshold:
        raise ConfigurationError(
            f"tolerance {tolerance} must be strictly below the violation threshold "
            f"{violation_threshold}"
        )


def _check_known(kind: str, name: str, names) -> None:
    if name not in names:
        raise ConfigurationError(f"unknown {kind} {name!r}")


def expected_verdict(algorithm: str, family: str) -> str:
    _check_known("algorithm", algorithm, ALGORITHMS)
    _check_known("family", family, FAMILIES)
    natural = group_contains(ALGORITHM_GROUPS[algorithm], FAMILY_ROWS[family].group)
    return "equivariant" if natural else "violated"


@dataclass(frozen=True)
class FlowBuilder:
    """One algorithm's `FLOW_RECIPES` row made into its flow field on a loss.

    Building with `reparam=None` yields the base-chart flow; building with a
    diffeomorphism yields the flow computed intrinsically in the barred
    chart.  A Fisher row's form is the GGN form with weight
    `fisher_weight(out_dim, noise_variance)`, a GGN row's with weight I; the
    builder makes that `GGNWeight` once, when it is made, so the weight and
    the noise variance are checked once however many forms its flows
    evaluate.  Building is deterministic, so repeated builds are identical.

    The builder keeps the last matrix its flow inverts, computed in the
    base chart and in the most recent barred chart (matched by identity),
    with the bits of the theta it was computed at: the Fisher or GGN form,
    or Newton's gradient with its Hessian or covariant Hessian.  Asked again
    at that theta in that chart, as the flow is right after the
    conditioning pre-check, it returns the same read-only arrays: one
    evaluation per state and chart.
    """

    algorithm: str
    loss: ScalarField
    model: Optional[Model] = None
    data: Optional[Dataset] = None
    noise_variance: float = 0.5
    r: float = NESTEROV_DAMPING
    epsilon: float = ADAM_EPSILON
    # (reparam is None) -> (reparam, theta bytes, value) of that chart's last value
    _memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    # a Fisher or GGN row's GGNWeight, None for a Euclidean or Hessian row
    _weight: Optional[GGNWeight] = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        _check_known("algorithm", self.algorithm, ALGORITHMS)
        metric = FLOW_RECIPES[self.algorithm].metric
        if metric in ("fisher", "ggn"):
            if self.model is None or self.data is None:
                raise ConfigurationError(
                    f"{self.algorithm} needs a model and a dataset for its preconditioner"
                )
            p, variance = self.model.out_dim, self.noise_variance
            weight = fisher_weight(p, variance) if metric == "fisher" else GGNWeight(np.eye(p))
            object.__setattr__(self, "_weight", weight)
        if self.model is not None and self.model.param_dim != self.loss.dim:
            raise ConfigurationError("model parameter dimension does not match loss")

    @property
    def dim(self) -> int:
        return self.loss.dim

    def _precondition_fn(self, reparam: Optional[Diffeomorphism]):
        # In the barred chart the model reads its parameters through g^-1.
        chart = None if reparam is None else reparam.inverse_map
        model, data, weight = self.model, self.data, self._weight
        form_at = lambda theta: (ggn_matrix(model, data, weight, theta, chart),)
        shared = self._shared(reparam, form_at)
        return lambda theta: shared(theta)[0]

    def _shared(self, reparam: Optional[Diffeomorphism], compute):
        # theta -> compute(theta), a tuple of arrays, kept read-only in this
        # chart's slot until another theta or chart asks
        slot = reparam is None

        def shared(theta):
            key = np.asarray(theta, dtype=float).tobytes()
            last = self._memo.get(slot)
            if last is not None and last[0] is reparam and last[1] == key:
                return last[2]
            value = compute(theta)
            for array in value:
                array.setflags(write=False)
            self._memo[slot] = (reparam, key, value)
            return value

        return shared

    def build(self, reparam: Optional[Diffeomorphism] = None) -> FlowField:
        """This algorithm's flow, named after it, in the base chart or the barred chart."""
        return replace(self._flow(reparam), algorithm=self.algorithm)

    def _flow(self, reparam: Optional[Diffeomorphism]) -> FlowField:
        dynamics, _, connection_kind = FLOW_RECIPES[self.algorithm]
        loss = self.loss if reparam is None else pullback_loss(reparam, self.loss)
        # None is the flat connection (Gamma = 0): the base chart's, and a
        # barred chart's under an affine map.  Shears and composites compute theirs.
        transported = reparam is not None and connection_kind == "transported"
        connection = pullback_connection(reparam) if transported else None
        precond = None if self._weight is None else self._precondition_fn(reparam)
        if dynamics == "adam":
            return adam_stationary_flow(loss, epsilon=self.epsilon)
        if dynamics == "newton":
            return newton_flow(loss, connection, partial(self._shared, reparam))
        if dynamics == "gradient":
            return gradient_flow(loss, precond)
        return nesterov_flow(loss, precond, r=self.r, connection=connection)

    def inverted_matrix_fn(self, reparam: Optional[Diffeomorphism]):
        """theta -> the matrix this algorithm inverts in the given chart,
        or None when the algorithm inverts nothing."""
        return self.build(reparam).inverts


@dataclass(frozen=True)
class ResidualReport:
    """Classification outcome for one (algorithm, family) cell."""

    algorithm: str
    family: str
    trials: int
    max_residual: float
    mean_residual: float
    verdict: str
    seed: int
    tolerance: float

    def as_dict(self) -> dict:
        return asdict(self)


def naturality_residual(
    base_flow: FlowField, barred_flow: FlowField, g: Diffeomorphism, state: OptimizerState
) -> float:
    """Commutative-diagram defect at one state: the norm of the tangent
    pushforward of the base flow value minus the barred flow's value at the
    pushed-forward state.  A singular solve names the chart it came from."""
    try:
        value = base_flow(state)
    except SingularMatrixError as exc:
        raise SingularMatrixError(f"base chart: {exc}", point=exc.point) from exc
    pushed = pushforward_tangent(g, state, value)
    state_bar = pushforward_state(g, state)
    try:
        value_bar = barred_flow(state_bar)
    except SingularMatrixError as exc:
        raise SingularMatrixError(f"barred chart: {exc}", point=exc.point) from exc
    return float(np.linalg.norm(pushed.as_vector() - value_bar.as_vector()))


def _sample_state(
    rng: np.random.Generator,
    base_flow: FlowField,
    g: Diffeomorphism,
    base_matrix_fn,
    barred_matrix_fn,
) -> OptimizerState:
    for _ in range(STATE_MAX_TRIES):
        theta = rng.uniform(-STATE_BOX, STATE_BOX, size=g.dim)
        if base_flow.order == 2:
            velocity = rng.uniform(-STATE_BOX, STATE_BOX, size=g.dim)
            state = state_order2(theta, velocity, time=rng.uniform(0.5, 1.5))
        else:
            state = state_order1(theta)
        if base_matrix_fn is not None:
            try:
                if np.linalg.cond(base_matrix_fn(theta)) > STATE_MAX_CONDITION:
                    continue
                theta_bar = g.forward(theta)
                if np.linalg.cond(barred_matrix_fn(theta_bar)) > STATE_MAX_CONDITION:
                    continue
            except (np.linalg.LinAlgError, SingularMatrixError):
                continue
        return state
    raise ConfigurationError(
        f"could not sample a well-conditioned state for {base_flow.algorithm}"
    )


def trial_rng(seed: int, dim: int, algorithm: str, family: str, trial: int):
    """The documented per-trial generator (PCG64 over a structured seed)."""
    check_count(seed, "seed")
    check_count(dim, "dim")
    check_count(trial, "trial")
    _check_known("algorithm", algorithm, ALGORITHMS)
    _check_known("family", family, FAMILIES)
    return np.random.default_rng(
        [seed, dim, ALGORITHMS.index(algorithm), FAMILIES.index(family), trial]
    )


def classify_equivariance(
    builder: FlowBuilder,
    families: Sequence[str] = FAMILIES,
    trials_per_family: int = TRIALS_PER_FAMILY,
    states_per_trial: int = STATES_PER_TRIAL,
    tolerance: float = EQUIVARIANCE_TOLERANCE,
    violation_threshold: float = VIOLATION_THRESHOLD,
    seed: int = 0,
) -> list[ResidualReport]:
    """Monte-Carlo membership verdicts for the given reparameterization families.

    Every family's name and dimension pass `check_family_dim` before the
    first trial.  Raises `ToleranceGapError` when a family's peak
    residual falls between the tolerance and the violation threshold, so
    verdicts never rest on borderline roundoff.
    """
    check_count(trials_per_family, "trials_per_family", least=1)
    check_count(states_per_trial, "states_per_trial", least=1)
    check_thresholds(tolerance, violation_threshold)
    for family in families:
        check_family_dim(family, builder.dim)

    base_flow = builder.build()
    base_matrix_fn = builder.inverted_matrix_fn(None)
    reports = []
    for family in families:
        residuals = []
        for trial in range(trials_per_family):
            rng = trial_rng(seed, builder.dim, builder.algorithm, family, trial)
            g = sample_diffeomorphism(family, builder.dim, rng)
            barred_flow = builder.build(g)
            barred_matrix_fn = builder.inverted_matrix_fn(g)
            for _ in range(states_per_trial):
                state = _sample_state(rng, base_flow, g, base_matrix_fn, barred_matrix_fn)
                residuals.append(naturality_residual(base_flow, barred_flow, g, state))
        peak = float(np.max(residuals))
        if peak <= tolerance:
            verdict = "equivariant"
        elif peak >= violation_threshold:
            verdict = "violated"
        else:
            raise ToleranceGapError(
                f"{builder.algorithm} x {family}: max residual {peak:.3e} lies in "
                f"the gap ({tolerance:.0e}, {violation_threshold:.0e})"
            )
        reports.append(
            ResidualReport(
                algorithm=builder.algorithm,
                family=family,
                trials=trials_per_family,
                max_residual=peak,
                mean_residual=float(np.mean(residuals)),
                verdict=verdict,
                seed=seed,
                tolerance=tolerance,
            )
        )
    return reports


# ---------------------------------------------------------------------------
# built-in corpus
# ---------------------------------------------------------------------------


# The built-in tanh network at each parameter count: mlp_tanh(in_dim, hidden, out_dim, bias).
_TANH_NETWORKS = {2: (1, 1, 1, False), 4: (1, 1, 1, True), 8: (2, 2, 2, False)}


def default_recipe(dim: int, seed: int = 0, kind: str = "linear") -> tuple[Model, Dataset]:
    """The standard model/dataset pair at one parameter dimension.

    Classification defaults to the linear model: its base-chart loss is an
    exact quadratic, so the Fisher, GGN, and Hessian stay well-conditioned
    across the whole state box and verdicts never rest on amplified solve
    roundoff.  The barred charts still carry fully state-dependent forms.
    The tanh networks are the nonlinear half of the corpus, which the
    derivative-oracle checks read through `kind`.  No config can pick them: a
    config's `mlp-tanh` model recipe gets `synthetic_dataset`'s data instead.
    """
    check_count(dim, "dim", least=1)
    if kind == "linear":
        model, size = linear_model(dim, 1), 2 * dim
    elif kind == "mlp-tanh":
        if dim not in _TANH_NETWORKS:
            raise ConfigurationError(f"no built-in tanh network with {dim} parameters")
        model, size = mlp_tanh(*_TANH_NETWORKS[dim]), 6
    else:
        raise ConfigurationError(f"unknown recipe kind {kind!r}")
    return model, synthetic_dataset(model, size, seed)


def synthetic_dataset(model: Model, size: int, seed: int) -> Dataset:
    """`size` samples for `model`: inputs uniform in [-1.5, 1.5], targets in
    [-1, 1], drawn from SeedSequence([seed, param_dim, 101])."""
    check_count(seed, "seed")
    rng = np.random.default_rng([seed, model.param_dim, 101])
    inputs = rng.uniform(-1.5, 1.5, size=(size, model.in_dim))
    targets = rng.uniform(-1.0, 1.0, size=(size, model.out_dim))
    return Dataset(inputs, targets)


def default_flow_builder(
    algorithm: str, dim: int, seed: int = 0, kind: str = "linear"
) -> FlowBuilder:
    """A FlowBuilder on the built-in corpus, with FlowBuilder's default settings."""
    model, data = default_recipe(dim, seed, kind=kind)
    return FlowBuilder(algorithm, dataset_loss(model, data), model=model, data=data)


# ---------------------------------------------------------------------------
# table reproduction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TableReport:
    """Verdict matrix over (dim, algorithm, family) with expected groups."""

    dims: tuple
    algorithms: tuple
    families: tuple
    trials_per_family: int
    states_per_trial: int
    seed: int
    tolerance: float
    violation_threshold: float
    reports: tuple  # (dim, ResidualReport) pairs in deterministic order

    @property
    def mismatches(self) -> tuple:
        """(dim, algorithm, family, verdict, expected) of each report off `expected_verdict`."""
        cells = ((d, r, expected_verdict(r.algorithm, r.family)) for d, r in self.reports)
        return tuple(
            (d, r.algorithm, r.family, r.verdict, e) for d, r, e in cells if r.verdict != e
        )

    @property
    def matches_expected(self) -> bool:
        return not self.mismatches

    def verdicts(self, dim: int) -> dict:
        out: dict = {alg: {} for alg in self.algorithms}
        for d, report in self.reports:
            if d == dim:
                out[report.algorithm][report.family] = report.verdict
        return out

    def as_dict(self) -> dict:
        return {
            "dims": list(self.dims),
            "algorithms": list(self.algorithms),
            "families": list(self.families),
            "trials_per_family": self.trials_per_family,
            "states_per_trial": self.states_per_trial,
            "seed": self.seed,
            "tolerance": self.tolerance,
            "violation_threshold": self.violation_threshold,
            "equivariance_groups": {a: ALGORITHM_GROUPS[a] for a in self.algorithms},
            "expected": {
                a: {f: expected_verdict(a, f) for f in self.families}
                for a in self.algorithms
            },
            "reports": [
                {"dim": dim, **report.as_dict()} for dim, report in self.reports
            ],
            "mismatches": [
                dict(zip(("dim", "algorithm", "family", "verdict", "expected"), mismatch))
                for mismatch in self.mismatches
            ],
        }


def reproduce_table(
    dims: Sequence[int] = TABLE_DIMS,
    algorithms: Sequence[str] = ALGORITHMS,
    families: Sequence[str] = FAMILIES,
    trials_per_family: int = TRIALS_PER_FAMILY,
    states_per_trial: int = STATES_PER_TRIAL,
    seed: int = 0,
    tolerance: float = EQUIVARIANCE_TOLERANCE,
    violation_threshold: float = VIOLATION_THRESHOLD,
    builder: Optional[Callable[[str, int], FlowBuilder]] = None,
) -> TableReport:
    """Run the full classification matrix and compare against expectations.

    `builder(algorithm, dim)` gives each cell row's FlowBuilder; by default
    `default_flow_builder` on the built-in linear corpus drawn from `seed`.
    """
    if builder is None:
        builder = partial(default_flow_builder, seed=seed)
    reports = []
    for dim in dims:
        for algorithm in algorithms:
            for report in classify_equivariance(
                builder(algorithm, dim),
                families=families,
                trials_per_family=trials_per_family,
                states_per_trial=states_per_trial,
                tolerance=tolerance,
                violation_threshold=violation_threshold,
                seed=seed,
            ):
                reports.append((dim, report))
    return TableReport(
        dims=tuple(dims),
        algorithms=tuple(algorithms),
        families=tuple(families),
        trials_per_family=trials_per_family,
        states_per_trial=states_per_trial,
        seed=seed,
        tolerance=tolerance,
        violation_threshold=violation_threshold,
        reports=tuple(reports),
    )


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _columns(rows) -> list:
    """Each row as one line, every cell left-justified to its column's width."""
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return ["  ".join(cell.ljust(width) for cell, width in zip(row, widths)) for row in rows]


def render_reports_text(reports: Sequence[ResidualReport]) -> str:
    """Aligned-column text for a list of classification reports."""
    header = (
        "algorithm",
        "family",
        "trials",
        "max_residual",
        "mean_residual",
        "verdict",
    )
    rows = [header]
    for rep in reports:
        rows.append(
            (
                rep.algorithm,
                rep.family,
                str(rep.trials),
                f"{rep.max_residual:.3e}",
                f"{rep.mean_residual:.3e}",
                rep.verdict,
            )
        )
    return "\n".join(_columns(rows))


def render_table_text(table: TableReport) -> str:
    """Human-readable verdict matrix, one block per dimension."""
    blocks = []
    for dim in table.dims:
        verdicts = table.verdicts(dim)
        header = ["algorithm"] + list(table.families) + ["group"]
        rows = [header]
        for alg in table.algorithms:
            rows.append([alg, *[verdicts[alg][f] for f in table.families], ALGORITHM_GROUPS[alg]])
        blocks.append("\n".join([f"N = {dim}"] + _columns(rows)))
    if table.mismatches:
        mm = ["mismatches:"]
        mm += [
            f"  N={dim} {alg} x {family}: got {verdict}, expected {expected}"
            for dim, alg, family, verdict, expected in table.mismatches
        ]
        blocks.append("\n".join(mm))
    else:
        blocks.append("all verdicts match the expected equivariance groups")
    return "\n\n".join(blocks)
