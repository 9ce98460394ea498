"""Reparameterizations and how losses, states, and connections transform.

The diffeomorphism catalog covers the five families the laboratory classifies
against: translations, Euclidean motions, signed permutations with shifts,
general affine maps, and triangular shears.  Shears are the only nonlinear
family; their triangular structure gives an exact forward-substitution
inverse and a unit-determinant Jacobian.  The other four are affine:
`affine_diffeomorphism` sets `VectorMap.matrix` to A on the forward map and to
A^-1 on the inverse map, so `diffcalc` reads their Jacobians and zero second
derivatives off the matrix instead of running a dual pass.  An affine map
carries the flat connection of R^N to itself, so its barred chart is flat and
`pullback_connection` returns None.  Each family is one row of `FAMILY_ROWS`
(its matrix draw, least dimension and smallest named group), and `GROUPS`
states which group directly contains which.  Derivatives of a map come only
from `diffcalc`.  `pullback_loss`'s `fn` is a `diffcalc.Pullback` through
`inverse_map`.  Models are not pulled back here: `flows.ggn_matrix` takes a
diffeomorphism's `inverse_map` as its chart.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import diffcalc
from .diffcalc import ScalarField, VectorMap, _is_integer, _is_real
from .errors import ConfigurationError, EvaluationDomainError, SingularMatrixError

# Matrices whose inversion backs a transform are rejected beyond this.
MAX_CONDITION = 1e12

# Condition cap of a sampled affine matrix; entrywise distance to a signed permutation.
AFFINE_MAX_CONDITION = 50.0
PERMUTATION_TOLERANCE = 1e-3

_SHEAR_FUNCS = {"sin": np.sin, "tanh": np.tanh}


# ---------------------------------------------------------------------------
# optimizer states
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OptimizerState:
    """Flow time plus the stack [theta, dtheta/dxi, ...] up to order-1 entries."""

    time: float
    derivs: tuple

    def __post_init__(self):
        derivs = tuple(np.asarray(d, dtype=float) for d in self.derivs)
        object.__setattr__(self, "derivs", derivs)
        if not 1 <= len(derivs) <= 2:
            raise ConfigurationError(f"state order must be 1 or 2, got {len(derivs)}")
        if not math.isfinite(self.time) or self.time < 0.0:
            raise ConfigurationError(f"state time must be finite and >= 0, got {self.time}")
        for d in derivs:
            if not np.all(np.isfinite(d)):
                raise EvaluationDomainError("non-finite entry in optimizer state")

    @property
    def order(self) -> int:
        return len(self.derivs)

    @property
    def theta(self) -> np.ndarray:
        return self.derivs[0]

    @property
    def velocity(self) -> np.ndarray:
        if self.order < 2:
            raise ConfigurationError("order-1 state has no velocity entry")
        return self.derivs[1]

    def as_vector(self) -> np.ndarray:
        return np.concatenate(self.derivs)


@dataclass(frozen=True)
class StateVelocity:
    """The xi-derivative of each state entry."""

    dderivs: tuple

    def __post_init__(self):
        dderivs = tuple(np.asarray(d, dtype=float) for d in self.dderivs)
        object.__setattr__(self, "dderivs", dderivs)
        for d in dderivs:
            if not np.all(np.isfinite(d)):
                raise EvaluationDomainError("non-finite entry in state velocity")

    @property
    def order(self) -> int:
        return len(self.dderivs)

    def as_vector(self) -> np.ndarray:
        return np.concatenate(self.dderivs)


def state_order1(theta, time: float = 0.0) -> OptimizerState:
    return OptimizerState(time, (theta,))


def state_order2(theta, velocity, time: float) -> OptimizerState:
    return OptimizerState(time, (theta, velocity))


# ---------------------------------------------------------------------------
# connections
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Connection:
    """Christoffel symbols Gamma^k_ij(theta), symmetric in (i, j)."""

    dim: int
    christoffel: Callable

    def christoffel_at(self, theta) -> np.ndarray:
        gamma = np.asarray(self.christoffel(np.asarray(theta, dtype=float)), dtype=float)
        if gamma.shape != (self.dim, self.dim, self.dim):
            raise ConfigurationError(f"christoffel shape {gamma.shape} for dim {self.dim}")
        return gamma


# ---------------------------------------------------------------------------
# diffeomorphisms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Diffeomorphism:
    """Invertible smooth reparameterization with exact inverse and derivatives."""

    family: str
    forward_map: VectorMap
    inverse_map: VectorMap
    label: str = ""

    @property
    def dim(self) -> int:
        return self.forward_map.in_dim

    def forward(self, theta) -> np.ndarray:
        return self.forward_map.value(theta)

    def inverse(self, theta_bar) -> np.ndarray:
        return self.inverse_map.value(theta_bar)


def affine_diffeomorphism(matrix, shift=None, family="affine", label="") -> Diffeomorphism:
    """theta_bar = A theta + c with the exact inverse A^-1 (theta_bar - c)."""
    matrix = np.array(matrix, dtype=float)
    n = matrix.shape[0]
    shift = np.zeros(n) if shift is None else np.asarray(shift, dtype=float)
    if matrix.shape != (n, n) or shift.shape != (n,):
        raise ConfigurationError("affine map needs square matrix and matching shift")
    if not (np.all(np.isfinite(matrix)) and np.all(np.isfinite(shift))):
        raise ConfigurationError(
            f"affine map needs a finite matrix and shift, got {matrix.tolist()} "
            f"and {shift.tolist()}"
        )
    if np.linalg.cond(matrix) > MAX_CONDITION:
        raise SingularMatrixError("affine matrix is numerically singular")
    inv = np.linalg.inv(matrix)

    fwd = VectorMap(
        n, n, lambda theta: matrix @ np.asarray(theta) + shift, name="affine", matrix=matrix
    )
    bwd = VectorMap(
        n, n, lambda tbar: inv @ (np.asarray(tbar) - shift), name="affine^-1", matrix=inv
    )
    return Diffeomorphism(family, fwd, bwd, label or family)


def translation(shift) -> Diffeomorphism:
    return affine_diffeomorphism(np.eye(np.shape(shift)[0]), shift, family="translation")


def shear_diffeomorphism(coeffs, func: str = "sin", label="") -> Diffeomorphism:
    """Triangular shear theta_bar_k = theta_k + sum_{j<k} C[k,j] phi(theta_j).

    The strictly lower-triangular coefficient matrix guarantees a
    unit-determinant Jacobian and an exact forward-substitution inverse.
    Both maps evaluate phi once per entry that a nonzero coefficient reads,
    and add the terms of entry k in the order j = 0, ..., k-1.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    n = coeffs.shape[0]
    if coeffs.shape != (n, n) or np.any(np.triu(coeffs) != 0.0):
        raise ConfigurationError("shear coefficients must be strictly lower triangular")
    if not np.all(np.isfinite(coeffs)):
        raise ConfigurationError(f"shear coefficients must be finite, got {coeffs.tolist()}")
    if func not in _SHEAR_FUNCS:
        raise ConfigurationError(f"unknown shear function {func!r}")
    phi = _SHEAR_FUNCS[func]
    # the j < k whose coefficient C[k, j] is nonzero, and the entries some term reads
    terms = [[j for j in range(k) if coeffs[k, j] != 0.0] for k in range(n)]
    read = np.any(coeffs != 0.0, axis=0)

    def fwd(theta):
        theta = np.asarray(theta)
        phis = [phi(theta[j]) if read[j] else None for j in range(n)]
        out = []
        for k in range(n):
            acc = theta[k]
            for j in terms[k]:
                acc = acc + coeffs[k, j] * phis[j]
            out.append(acc)
        return np.array(out)

    def bwd(tbar):
        tbar = np.asarray(tbar)
        out, phis = [], []
        for k in range(n):
            acc = tbar[k]
            for j in terms[k]:
                acc = acc - coeffs[k, j] * phis[j]
            out.append(acc)
            phis.append(phi(acc) if read[k] else None)
        return np.array(out)

    return Diffeomorphism(
        "shear",
        VectorMap(n, n, fwd, name="shear"),
        VectorMap(n, n, bwd, name="shear^-1"),
        label or f"shear[{func}]",
    )


def compose(outer: Diffeomorphism, inner: Diffeomorphism) -> Diffeomorphism:
    """The diffeomorphism applying `inner` first, then `outer`."""
    if outer.dim != inner.dim:
        raise ConfigurationError("cannot compose maps of different dimensions")
    n = outer.dim
    fwd = VectorMap(n, n, lambda theta: outer.forward_map.fn(inner.forward_map.fn(theta)))
    bwd = VectorMap(n, n, lambda tbar: inner.inverse_map.fn(outer.inverse_map.fn(tbar)))
    return Diffeomorphism(
        "composite", fwd, bwd, label=f"{outer.label or outer.family}*{inner.label or inner.family}"
    )


# ---------------------------------------------------------------------------
# random group elements
# ---------------------------------------------------------------------------


def random_orthogonal(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish orthogonal matrix: QR of a Gaussian with sign-fixed R diagonal."""
    gauss = rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(gauss)
    signs = np.sign(np.diag(r))
    signs[signs == 0.0] = 1.0
    return q * signs


def random_signed_permutation(dim: int, rng: np.random.Generator) -> np.ndarray:
    perm = rng.permutation(dim)
    signs = rng.choice([-1.0, 1.0], size=dim)
    mat = np.zeros((dim, dim))
    mat[np.arange(dim), perm] = signs
    return mat


def random_invertible(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Generic invertible matrix with condition number capped at
    `AFFINE_MAX_CONDITION`, kept away from the orthogonal group."""
    for _ in range(64):
        mat = rng.standard_normal((dim, dim))
        u, s, vt = np.linalg.svd(mat)
        s = np.clip(s, s.max() / AFFINE_MAX_CONDITION, None)
        mat = (u * s) @ vt
        if np.max(np.abs(mat @ mat.T - np.eye(dim))) > 1e-2:
            return mat
    raise ConfigurationError("failed to sample a non-orthogonal invertible matrix")


def is_near_signed_permutation(matrix: np.ndarray) -> bool:
    """Whether `matrix` is entrywise within `PERMUTATION_TOLERANCE` of a signed permutation."""
    snapped = np.zeros_like(matrix)
    snapped[matrix > 0.5] = 1.0
    snapped[matrix < -0.5] = -1.0
    ones = np.abs(snapped)
    if np.any(ones.sum(axis=0) != 1.0) or np.any(ones.sum(axis=1) != 1.0):
        return False
    return bool(np.max(np.abs(matrix - snapped)) < PERMUTATION_TOLERANCE)


def _generic_rotation(dim: int, rng: np.random.Generator) -> np.ndarray:
    """A random rotation that stays `PERMUTATION_TOLERANCE` away from every signed permutation."""
    for _ in range(64):
        q = random_orthogonal(dim, rng)
        if not is_near_signed_permutation(q):
            return q
    raise ConfigurationError(
        f"no euclidean draw at dim {dim} stays away from the signed permutations"
    )


class Family(NamedTuple):
    matrix: Optional[Callable]  # (dim, rng) -> A of an affine family; None for shear
    group: str  # the smallest named group holding every member, a key of GROUPS
    least_dim: int = 1
    refusal: str = ""  # why a draw below least_dim is refused, given the dim


# One row per family, in the order `harness.trial_rng` indexes them.
FAMILY_ROWS = {
    "translation": Family(lambda dim, rng: np.eye(dim), "T(N)"),
    "euclidean": Family(_generic_rotation, "E(N)", 2, "a euclidean map needs dim >= 2; "
                        "at dim {} every rotation is a signed permutation"),
    "signed-permutation": Family(random_signed_permutation, "B_N x T(N)"),
    "affine": Family(random_invertible, "Aff(N,R)"),
    "shear": Family(None, "Diff(M)", 2, "a shear needs dim >= 2; at dim {} it is the identity"),
}
FAMILIES = tuple(FAMILY_ROWS)

# Each named group, with the groups it directly contains.
GROUPS = {
    "T(N)": (),
    "B_N x T(N)": ("T(N)",),
    "E(N)": ("B_N x T(N)",),
    "Aff(N,R)": ("E(N)",),
    "Diff(M)": ("Aff(N,R)",),
}


def group_contains(group: str, sub: str) -> bool:
    """Whether `group` contains `sub`, read off the direct containments in GROUPS."""
    return group == sub or any(group_contains(inner, sub) for inner in GROUPS[group])


def check_family_dim(family: str, dim: int) -> None:
    """Refuse an unknown family, a dim that is not an integer >= 1, and a family
    whose every member at `dim` parameters lies in a smaller family."""
    if family not in FAMILY_ROWS:
        raise ConfigurationError(f"unknown family {family!r}")
    if not _is_integer(dim):
        raise ConfigurationError(f"a {family} map needs an integer dim, got {dim!r}")
    if dim < 1:
        raise ConfigurationError(f"a {family} map needs dim >= 1; got dim {dim}")
    row = FAMILY_ROWS[family]
    if dim < row.least_dim:
        raise ConfigurationError(row.refusal.format(dim))


def check_count(value, what: str, least: int = 0) -> None:
    """Refuse a `what` that is not an integer >= `least`, which is 0 or 1."""
    if not _is_integer(value) or value < least:
        kind = "non-negative" if least == 0 else "positive"
        raise ConfigurationError(f"{what} must be a {kind} integer, got {value!r}")


def check_positive(value, what: str) -> None:
    """Refuse a `what` that is not a number in (0, largest float]: NaN, inf, 10**400, True."""
    if not _is_real(value) or not 0 < value <= sys.float_info.max:
        raise ConfigurationError(f"{what} must be positive and finite, got {value!r}")


def sample_diffeomorphism(
    family: str, dim: int, rng: np.random.Generator
) -> Diffeomorphism:
    """Draw one catalog entry from the named family's row, after `check_family_dim`."""
    check_family_dim(family, dim)
    draw = FAMILY_ROWS[family].matrix
    if draw is not None:
        return affine_diffeomorphism(
            draw(dim, rng), rng.uniform(-1.0, 1.0, size=dim), family=family
        )
    coeffs = np.zeros((dim, dim))
    for k in range(1, dim):
        coeffs[k, :k] = rng.uniform(0.3, 0.8, size=k) * rng.choice([-1.0, 1.0], size=k)
    func = "sin" if rng.uniform() < 0.5 else "tanh"
    return shear_diffeomorphism(coeffs, func=func)


def catalog(family: str, dim: int, seed: int) -> Diffeomorphism:
    """Catalog entry addressable by family name and seed."""
    check_count(seed, "seed")
    check_family_dim(family, dim)  # before dim reaches the generator's seed
    return sample_diffeomorphism(family, dim, np.random.default_rng([seed, dim]))


# ---------------------------------------------------------------------------
# pullbacks and pushforwards
# ---------------------------------------------------------------------------


def pullback_loss(g: Diffeomorphism, loss: ScalarField) -> ScalarField:
    """The intrinsic loss in the barred chart: theta_bar -> L(g^-1(theta_bar))."""
    if g.dim != loss.dim:
        raise ConfigurationError("diffeomorphism and loss dimensions differ")
    return ScalarField(
        loss.dim,
        diffcalc.Pullback(loss.fn, g.inverse_map),
        name=f"{loss.name or 'loss'}|{g.label or g.family}",
    )


def pushforward_state(g: Diffeomorphism, state: OptimizerState) -> OptimizerState:
    """Chain rule on the derivative stack: theta maps, velocities rotate by J."""
    theta_bar = g.forward(state.theta)
    if state.order == 1:
        return OptimizerState(state.time, (theta_bar,))
    jac = diffcalc.jacobian(g.forward_map, state.theta)
    return OptimizerState(state.time, (theta_bar, jac @ state.velocity))


def pushforward_tangent(
    g: Diffeomorphism, state: OptimizerState, velocity: StateVelocity
) -> StateVelocity:
    """The induced map on state-space tangents at `state`."""
    if velocity.order != state.order:
        raise ConfigurationError("state and velocity orders differ")
    if state.order == 1:
        jac = diffcalc.jacobian(g.forward_map, state.theta)
        return StateVelocity((jac @ velocity.dderivs[0],))
    u = state.velocity
    jac, d2 = diffcalc.jacobian_and_second_derivatives(g.forward_map, state.theta)
    quad = np.einsum("lij,i,j->l", d2, velocity.dderivs[0], u)
    return StateVelocity((jac @ velocity.dderivs[0], jac @ velocity.dderivs[1] + quad))


def pullback_connection(g: Diffeomorphism) -> Optional[Connection]:
    """The unbarred chart's flat connection in barred coordinates, Gamma^k_ij =
    J_fwd[k, l] D^2(g^-1)[l, i, j]; None, the flows' flat connection, when g's
    inverse carries its matrix, since an affine inverse has D^2(g^-1) = 0."""
    if g.inverse_map.matrix is not None:
        return None

    def christoffel(theta_bar):
        jac_fwd = diffcalc.jacobian(g.forward_map, g.inverse(theta_bar))
        if np.linalg.cond(jac_fwd) > MAX_CONDITION:
            raise SingularMatrixError("singular Jacobian in connection pullback", theta_bar)
        d2_inv = diffcalc.second_derivatives(g.inverse_map, theta_bar)
        return np.einsum("kl,lij->kij", jac_fwd, d2_inv)

    return Connection(g.dim, christoffel)
