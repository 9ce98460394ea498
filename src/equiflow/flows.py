"""Small-step limiting flow fields of common training algorithms.

Four dynamics: gradient, Nesterov, Adam and Newton flow.  Each constructor
returns a `FlowField` mapping an `OptimizerState` to a `StateVelocity`, and
records in `FlowField.inverts` the matrix the flow inverts.  A metric is a
field theta -> P(theta), the symmetric (n, n) array of a covariant form such
as the Fisher or GGN, re-evaluated at every state; its weight is a checked
`GGNWeight`, the Fisher's from `fisher_weight`.  `harness.FLOW_RECIPES`
names each algorithm's dynamics, metric and connection.  Time-dependent
flows regularize the 1/xi damping below `XI_MIN`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import diffcalc
from .diffcalc import ScalarField, VectorMap
from .errors import ConfigurationError, SingularMatrixError
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

    `inverts` is theta -> the matrix the flow inverts at theta, a covariant
    form (Hessian, covariant Hessian, Fisher or GGN), or None when the flow
    inverts nothing.
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


def newton_flow(loss: ScalarField, connection: Optional[Connection] = None) -> FlowField:
    """dtheta/dxi = -H^-1 grad L with H the Hessian, made covariant,
    H_ij - Gamma^k_ij dL/dtheta^k, when a connection is given; None is the
    flat connection (Gamma = 0), which leaves H as it is."""
    return _newton_flow(loss, connection, lambda system: system)


def _newton_flow(loss: ScalarField, connection: Optional[Connection], share) -> FlowField:
    # `share` wraps theta -> (gradient, matrix); a FlowBuilder passes its
    # per-chart memo, so the pre-check and the flow share one order-2 pass

    def system(theta):
        # (gradient, the matrix Newton's flow inverts) from one order-2 pass
        grad, hess = diffcalc.gradient_and_hessian(loss, theta)
        if connection is not None:
            gamma = connection.christoffel_at(theta)
            hess = hess - np.einsum("kij,k->ij", gamma, grad)
        return grad, hess

    system = share(system)

    def velocity(state):
        grad, hess = system(state.theta)
        if np.linalg.cond(hess) > HESSIAN_MAX_CONDITION:
            raise SingularMatrixError(
                "Hessian too ill-conditioned for Newton flow", point=state.theta
            )
        return StateVelocity((-np.linalg.solve(hess, grad),))

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
    model's outputs.  A plain array is refused."""
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
    total = np.add.reduce(np.swapaxes(jacs, 1, 2) @ (matrix @ jacs), axis=0, initial=0.0)
    out = total / data.size
    return 0.5 * (out + out.T)


def fisher_matrix(
    model: Model, data: Dataset, noise_variance: float, theta, chart: Optional[VectorMap] = None
) -> np.ndarray:
    """Fisher information of an isotropic Gaussian with the model's outputs as means:
    the GGN form with `fisher_weight`'s weight I / noise_variance; `chart` as in `ggn_matrix`."""
    return ggn_matrix(model, data, fisher_weight(model.out_dim, noise_variance), theta, chart)


def _apply_inverse(matrix, vec, metadata):
    # SVD pseudo-inverse; drops directions below PINV_CUTOFF * sigma_max
    u, s, vt = np.linalg.svd(matrix)
    s_max = s[0] if s.size else 0.0
    keep = s > PINV_CUTOFF * s_max
    if not np.all(keep):
        metadata["pinv_cutoff_points"] = metadata.get("pinv_cutoff_points", 0) + 1
    inv_s = np.where(keep, 1.0 / np.where(keep, s, 1.0), 0.0)
    return vt.T @ (inv_s * (u.T @ vec))


def _descent(loss: ScalarField, precond: Optional[Callable], theta, metadata) -> np.ndarray:
    # grad L, or P^-1 grad L with P(theta) checked before it reaches the SVD
    grad = diffcalc.gradient(loss, theta)
    if precond is None:
        return grad
    form = np.asarray(precond(theta), dtype=float)
    if form.shape != (grad.size, grad.size):
        raise ConfigurationError(
            f"preconditioner shape {form.shape} is not ({grad.size}, {grad.size})"
        )
    if np.max(np.abs(form - form.T)) > FORM_SYMMETRY_TOLERANCE:
        raise ConfigurationError("preconditioner matrix is not symmetric")
    return _apply_inverse(form, grad, metadata)


def gradient_flow(loss: ScalarField, precond: Optional[Callable] = None) -> FlowField:
    """dtheta/dxi = -P(theta)^-1 grad L for a metric field `precond`, or
    -grad L without one."""
    metadata: dict = {}

    def velocity(state):
        return StateVelocity((-_descent(loss, precond, state.theta, metadata),))

    return FlowField("gd", order=1, velocity=velocity, inverts=precond, metadata=metadata)


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

    def velocity(state):
        damping = r / max(state.time, XI_MIN)
        accel = -damping * state.velocity - _descent(loss, precond, state.theta, metadata)
        if connection is not None:
            gamma = connection.christoffel_at(state.theta)
            accel = accel - np.einsum("kij,i,j->k", gamma, state.velocity, state.velocity)
        return StateVelocity((state.velocity, accel))

    return FlowField("nesterov", order=2, velocity=velocity, inverts=precond, metadata=metadata)
