"""Small-step limiting flow fields of common training algorithms.

Four dynamics: gradient, Nesterov, Adam and Newton flow.  Each constructor
returns a `FlowField` mapping an `OptimizerState` to a `StateVelocity`, and
records in `FlowField.inverts` the matrix the flow inverts, as an
`InvertedMatrix`: the matrix with its one SVD, whose factors the flow applies
and whose condition number Newton's refusal and the harness pre-check read.
Each flow keeps the matrix it last factored, with the bits of its theta, so
`inverts(theta)` and the velocity at theta share one evaluation and one SVD.
A metric is a field theta -> P(theta), the symmetric (n, n) array of a
covariant form such as the Fisher or GGN, re-evaluated at every new state and
factored where it is read, or an `InvertedMatrix` already factored; its
weight is a checked `GGNWeight`, the Fisher's from `fisher_weight`.
`harness.FLOW_RECIPES` names each algorithm's dynamics, metric and
connection.  Time-dependent flows regularize the 1/xi damping below `XI_MIN`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import diffcalc
from .diffcalc import ScalarField, VectorMap
from .errors import ConfigurationError, EvaluationDomainError, SingularMatrixError
from .geometry import Connection, OptimizerState, StateVelocity, check_positive
from .models import Dataset, Model, check_dataset_dims, network_jacobian

# 1/xi terms are evaluated at max(xi, XI_MIN); trajectories start there too.
XI_MIN = 1e-3

# Damping constant of the accelerated-gradient limit.
NESTEROV_DAMPING = 3.0

# Denominator floor of the componentwise Adam step.
ADAM_EPSILON = 1e-8

# Relative singular-value cutoff of the pseudo-inverse fallback.
PINV_CUTOFF = 1e-10

# Beyond this condition number a Hessian solve is refused.
HESSIAN_MAX_CONDITION = 1e12

# A preconditioner whose entries differ from its transpose's by more is refused.
FORM_SYMMETRY_TOLERANCE = 1e-8


@dataclass(frozen=True)
class FlowField:
    """State-velocity field of one algorithm on one loss.

    `inverts` is theta -> the `InvertedMatrix` of the matrix the flow
    inverts at theta, a covariant form (Hessian, covariant Hessian, Fisher or
    GGN), or None when the flow inverts nothing; kept for the last theta.
    """

    algorithm: str
    order: int
    velocity: Callable
    inverts: Optional[Callable] = None
    metadata: dict = field(default_factory=dict)

    def __call__(self, state: OptimizerState) -> StateVelocity:
        if state.order != self.order:
            raise ConfigurationError(
                f"{self.algorithm} flow has order {self.order}, state has {state.order}"
            )
        return self.velocity(state)


def adam_stationary_flow(loss: ScalarField, epsilon: float = ADAM_EPSILON) -> FlowField:
    """Stationary-moment full-batch limit: componentwise -g / (|g| + eps)."""
    check_positive(epsilon, "adam epsilon")

    def velocity(state):
        grad = diffcalc.gradient(loss, state.theta)
        return StateVelocity((-grad / (np.abs(grad) + epsilon),))

    return FlowField("adam", order=1, velocity=velocity)


@dataclass(frozen=True, eq=False)
class InvertedMatrix:
    """The matrix a flow inverts at one state, factored by one SVD when it is made.

    `matrix` is made read-only in place, a float64 array without a copy.
    `condition` is s_max / s_min, inf for a singular matrix as numpy's
    condition number gives it, and `truncated` says whether the
    pseudo-inverse drops a direction below PINV_CUTOFF * s_max.  The
    preconditioned flows apply the factors; Newton's flow and the harness
    pre-check read the condition number.  Two values are equal only when
    they are the same object."""

    matrix: np.ndarray
    u: np.ndarray = field(init=False, repr=False)
    inv_s: np.ndarray = field(init=False, repr=False)
    vt: np.ndarray = field(init=False, repr=False)
    condition: float = field(init=False)
    truncated: bool = field(init=False)

    def __post_init__(self):
        matrix = np.asarray(self.matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1] or not matrix.size:
            raise ConfigurationError(f"inverted matrix shape {matrix.shape} is not (n, n), n >= 1")
        matrix.setflags(write=False)
        u, s, vt = np.linalg.svd(matrix)
        s_max, s_min = float(s[0]), float(s[-1])  # s is sorted, largest first
        truncated = not s_min > PINV_CUTOFF * s_max
        if truncated:
            keep = s > PINV_CUTOFF * s_max
            inv_s = np.where(keep, 1.0 / np.where(keep, s, 1.0), 0.0)
        else:
            inv_s = 1.0 / s
        condition = s_max / s_min if s_min > 0.0 else math.inf
        # a frozen dataclass sets its fields through its instance dict
        vars(self).update(
            matrix=matrix, u=u, inv_s=inv_s, vt=vt, condition=condition, truncated=truncated
        )


def _at_last_theta(compute: Callable) -> Callable:
    # theta -> compute(theta), recomputed only when theta's bits change
    last = [None, None]  # the last theta's bytes, its value

    def at(theta):
        key = np.asarray(theta, dtype=float).tobytes()
        if key != last[0]:
            last[1], last[0] = compute(theta), key
        return last[1]

    return at


def newton_flow(loss: ScalarField, connection: Optional[Connection] = None) -> FlowField:
    """dtheta/dxi = -H^-1 grad L with H the Hessian, made covariant,
    H_ij - Gamma^k_ij dL/dtheta^k, when a connection is given; None is the
    flat connection (Gamma = 0), which leaves H as it is."""

    @_at_last_theta
    def system(theta):
        # (read-only gradient, the matrix Newton's flow inverts) from one order-2 pass
        grad, hess = diffcalc.gradient_and_hessian(loss, theta)
        if connection is not None:
            gamma = connection.christoffel_at(theta)
            hess = hess - np.einsum("kij,k->ij", gamma, grad)
        grad.setflags(write=False)
        return grad, InvertedMatrix(hess)

    def velocity(state):
        grad, hess = system(state.theta)
        if hess.condition > HESSIAN_MAX_CONDITION:
            raise SingularMatrixError(
                "Hessian too ill-conditioned for Newton flow", point=state.theta
            )
        return StateVelocity((-np.linalg.solve(hess.matrix, grad),))

    tag = "newton" if connection is None else "newton-covariant"
    return FlowField(tag, order=1, velocity=velocity, inverts=lambda theta: system(theta)[1])


@dataclass(frozen=True)
class GGNWeight:
    """The output-space weight M of a GGN form, checked once, when it is made:
    a square, finite, symmetric positive semidefinite matrix, kept read-only.
    `ggn_matrix` takes only this value, so a flow builder checks its weight
    once however many forms it evaluates."""

    matrix: np.ndarray

    def __post_init__(self):
        matrix = np.array(self.matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ConfigurationError(f"GGN weight shape {matrix.shape} is not square")
        if not np.all(np.isfinite(matrix)):
            raise ConfigurationError(f"GGN weight must be finite, got {matrix.tolist()}")
        if np.max(np.abs(matrix - matrix.T)) > 1e-10 or np.min(np.linalg.eigvalsh(matrix)) < -1e-10:
            raise ConfigurationError("GGN weight must be symmetric positive semidefinite")
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)


def fisher_weight(out_dim: int, noise_variance: float) -> GGNWeight:
    """The Fisher weight I / noise_variance of a Gaussian head with `out_dim` outputs."""
    check_positive(noise_variance, "noise variance")
    variance = float(noise_variance)
    if variance == 0.0 or not np.isfinite(1.0 / variance):
        message = f"noise variance must have a finite reciprocal, got {noise_variance!r}"
        raise ConfigurationError(message)
    return GGNWeight(np.eye(out_dim) / noise_variance)


def ggn_matrix(
    model: Model, data: Dataset, weight: GGNWeight, theta, chart: Optional[VectorMap] = None
) -> np.ndarray:
    """Generalized Gauss-Newton form (1/|S|) sum_k J_k^T M J_k over the stacked
    `network_jacobian`, symmetrized; with a `chart` theta_bar -> theta, the barred
    chart's form.  The per-sample products are one stacked matmul, reduced from
    zero in sample order, so the sum equals a loop over the samples bit for bit.

    `weight` is a `GGNWeight`, already checked; its shape must match the
    model's outputs.  A plain array is refused; a form that overflows, which
    depends on the data and theta, raises `EvaluationDomainError`."""
    if not isinstance(weight, GGNWeight):
        raise ConfigurationError(f"GGN weight must be a GGNWeight, got {type(weight).__name__}")
    matrix, p = weight.matrix, model.out_dim
    if matrix.shape != (p, p):
        raise ConfigurationError(
            f"GGN weight shape {matrix.shape} does not match output dim {p}"
        )
    check_dataset_dims(model, data.inputs.shape[1], data.targets.shape[1])
    theta = np.asarray(theta, dtype=float)
    jacs = network_jacobian(model, data, theta, chart)
    with np.errstate(over="ignore", invalid="ignore"):
        total = np.add.reduce(np.swapaxes(jacs, 1, 2) @ (matrix @ jacs), axis=0, initial=0.0)
        out = total / data.size
        form = 0.5 * (out + out.T)
    if not np.isfinite(form).all():
        raise EvaluationDomainError(f"GGN form of {model.kind} non-finite at {theta}")
    return form


def fisher_matrix(
    model: Model, data: Dataset, noise_variance: float, theta, chart: Optional[VectorMap] = None
) -> np.ndarray:
    """Fisher information of an isotropic Gaussian with the model's outputs as means:
    the GGN form with `fisher_weight`'s weight I / noise_variance; `chart` as in `ggn_matrix`."""
    return ggn_matrix(model, data, fisher_weight(model.out_dim, noise_variance), theta, chart)


def _apply_inverse(inverted: InvertedMatrix, vec, metadata):
    # SVD pseudo-inverse; drops directions below PINV_CUTOFF * sigma_max
    if inverted.truncated:
        metadata["pinv_cutoff_points"] = metadata.get("pinv_cutoff_points", 0) + 1
    return inverted.vt.T @ (inverted.inv_s * (inverted.u.T @ vec))


def _factored(precond: Optional[Callable], dim: int) -> Optional[Callable]:
    # theta -> the InvertedMatrix of P(theta), kept for the last theta.  A plain
    # array is checked and factored here, from a copy, so the field's own array
    # stays writable; an InvertedMatrix, a FlowBuilder's form, passes as it is.
    if precond is None:
        return None

    @_at_last_theta
    def inverted(theta):
        form = precond(theta)
        if isinstance(form, InvertedMatrix):
            return form
        matrix = np.array(form, dtype=float)
        if matrix.shape != (dim, dim):
            raise ConfigurationError(f"preconditioner shape {matrix.shape} is not ({dim}, {dim})")
        if not np.isfinite(matrix).all():
            raise EvaluationDomainError(f"preconditioner non-finite at {theta}")
        if np.max(np.abs(matrix - matrix.T)) > FORM_SYMMETRY_TOLERANCE:
            raise ConfigurationError("preconditioner matrix is not symmetric")
        return InvertedMatrix(matrix)

    return inverted


def _descent(loss: ScalarField, inverted: Optional[Callable], theta, metadata) -> np.ndarray:
    # grad L, or P^-1 grad L from the factors of P(theta)
    grad = diffcalc.gradient(loss, theta)
    if inverted is None:
        return grad
    return _apply_inverse(inverted(theta), grad, metadata)


def gradient_flow(loss: ScalarField, precond: Optional[Callable] = None) -> FlowField:
    """dtheta/dxi = -P(theta)^-1 grad L for a metric field `precond`, or
    -grad L without one."""
    metadata: dict = {}
    inverted = _factored(precond, loss.dim)

    def velocity(state):
        return StateVelocity((-_descent(loss, inverted, state.theta, metadata),))

    return FlowField("gd", order=1, velocity=velocity, inverts=inverted, metadata=metadata)


def nesterov_flow(
    loss: ScalarField,
    precond: Optional[Callable] = None,
    r: float = NESTEROV_DAMPING,
    connection: Optional[Connection] = None,
) -> FlowField:
    """Nesterov's accelerated-gradient limit, started at small xi:

        d^2 theta/dxi^2 = -(r/xi) dtheta/dxi - P(theta)^-1 grad L,

    with P = I without a metric field `precond`, and the acceleration read
    covariantly when a connection is supplied (the quadratic-in-velocity
    Christoffel term then enters the right side).  None is the flat
    connection (Gamma = 0), which adds no term.
    """
    check_positive(r, "damping constant r")
    metadata: dict = {}
    inverted = _factored(precond, loss.dim)

    def velocity(state):
        damping = r / max(state.time, XI_MIN)
        accel = -damping * state.velocity - _descent(loss, inverted, state.theta, metadata)
        if connection is not None:
            gamma = connection.christoffel_at(state.theta)
            accel = accel - np.einsum("kij,i,j->k", gamma, state.velocity, state.velocity)
        return StateVelocity((state.velocity, accel))

    return FlowField("nesterov", order=2, velocity=velocity, inverts=inverted, metadata=metadata)
