"""Exact derivatives of scalar losses and vector maps on small parameter spaces.

The differentiation mechanism is forward-mode arithmetic on `Dual2` values,
which carry a value, a gradient, and optionally a Hessian.  Model and
reparameterization code is written against plain numpy operations; evaluating
it on an object array of `Dual2` seeds yields derivatives that are exact to
roundoff.  Central finite differences (`fd_gradient`, `fd_jacobian`) are
provided as the independent validation oracle and are never used to produce
derivatives.

An order-2 pass carries every first derivative too, so `gradient_and_hessian`
and `jacobian_and_second_derivatives` return both orders from one pass;
`hessian` and `second_derivatives` read from that same pass.  `gradient` and
`jacobian` keep their cheaper order-1 pass.  Order-2 seeds carry the scalar
zero Hessian `0.0` (see `Dual2`); every output Hessian is an (n, n) array.

Everything here assumes dense linear algebra and parameter dimension at most
`DIM_CAP`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError, EvaluationDomainError

# Hard cap on parameter dimension: exact small-matrix inverses stay trustworthy.
DIM_CAP = 16

# Central-difference step used by the validation oracle.
FD_STEP = 1e-5


class Dual2:
    """Forward-mode number carrying value, gradient and optional Hessian.

    `g` has shape (n,) and `h`, when present, shape (n, n) or is a scalar.
    `h is None` selects first-order propagation; second derivatives are then
    never computed.  All arithmetic rules keep `h` symmetric when the
    operands' Hessians are symmetric.

    A scalar `h` stands for the (n, n) matrix filled with it.  Order-2 seeds
    carry `h = 0.0`; every rule acts elementwise on `h`, so a Hessian that is
    uniformly +-0 gives, entry for entry and sign for sign, what that scalar
    gives, and linear operations stay scalar until a product of duals or a
    smooth function creates curvature.  Readers broadcast it with
    `np.full((n, n), h)`, which keeps the sign of a zero.  `0.0` is falsy:
    test `h is None`, never the truth of `h`.
    """

    __slots__ = ("v", "g", "h")

    def __init__(self, v, g, h=None):
        self.v = float(v)
        self.g = g
        self.h = h

    # -- binary arithmetic -------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Dual2):
            h = None if self.h is None else self.h + other.h
            return Dual2(self.v + other.v, self.g + other.g, h)
        if isinstance(other, numbers.Real):
            return Dual2(self.v + other, self.g, self.h)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Dual2):
            h = None if self.h is None else self.h - other.h
            return Dual2(self.v - other.v, self.g - other.g, h)
        if isinstance(other, numbers.Real):
            return Dual2(self.v - other, self.g, self.h)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, numbers.Real):
            h = None if self.h is None else -self.h
            return Dual2(other - self.v, -self.g, h)
        return NotImplemented

    def __neg__(self):
        h = None if self.h is None else -self.h
        return Dual2(-self.v, -self.g, h)

    def __mul__(self, other):
        if isinstance(other, Dual2):
            h = None
            if self.h is not None:
                cross = np.outer(self.g, other.g)
                h = self.h * other.v + other.h * self.v + cross + cross.T
            return Dual2(
                self.v * other.v, self.g * other.v + other.g * self.v, h
            )
        if isinstance(other, numbers.Real):
            h = None if self.h is None else self.h * other
            return Dual2(self.v * other, self.g * other, h)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual2):
            return self * other._reciprocal()
        if isinstance(other, numbers.Real):
            return self * (1.0 / other)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, numbers.Real):
            return self._reciprocal() * other
        return NotImplemented

    def __pow__(self, power):
        if not isinstance(power, numbers.Real):
            return NotImplemented
        if power == 0:
            return self._chain(1.0, 0.0, 0.0)
        if power == 1:
            return self
        if self.v < 0.0 and not float(power).is_integer():
            raise EvaluationDomainError(f"non-integer power {power} of negative value {self.v}")
        try:
            v = self.v**power
            d1 = power * self.v ** (power - 1)
            d2 = power * (power - 1) * self.v ** (power - 2) if self.h is not None else 0.0
        except (ZeroDivisionError, OverflowError) as exc:
            raise EvaluationDomainError(f"power {power} of {self.v}: {exc}") from exc
        return self._chain(v, d1, d2)

    # -- smooth unary functions (numpy ufuncs dispatch to these) -----------

    def sin(self):
        s, c = math.sin(self.v), math.cos(self.v)
        return self._chain(s, c, -s)

    def cos(self):
        s, c = math.sin(self.v), math.cos(self.v)
        return self._chain(c, -s, -c)

    def tanh(self):
        t = math.tanh(self.v)
        sech2 = 1.0 - t * t
        return self._chain(t, sech2, -2.0 * t * sech2)

    def exp(self):
        try:
            e = math.exp(self.v)
        except OverflowError as exc:
            raise EvaluationDomainError(f"exp of {self.v} overflows") from exc
        return self._chain(e, e, e)

    def log(self):
        if self.v <= 0.0:
            raise EvaluationDomainError(f"log of non-positive value {self.v}")
        inv = 1.0 / self.v
        return self._chain(math.log(self.v), inv, -inv * inv)

    def sqrt(self):
        # The derivative 1/(2 sqrt v) is unbounded at 0.
        if self.v <= 0.0:
            raise EvaluationDomainError(f"sqrt of non-positive value {self.v}")
        r = math.sqrt(self.v)
        return self._chain(r, 0.5 / r, -0.25 / (r * self.v))

    # -- internals ----------------------------------------------------------

    def _reciprocal(self):
        if self.v == 0.0:
            raise EvaluationDomainError("division by zero in dual arithmetic")
        inv = 1.0 / self.v
        return self._chain(inv, -inv * inv, 2.0 * inv * inv * inv)

    def _chain(self, f0, f1, f2):
        # univariate chain rule: f(u) with u = self
        h = None
        if self.h is not None:
            h = f1 * self.h + f2 * np.outer(self.g, self.g)
        return Dual2(f0, f1 * self.g, h)

    def __repr__(self):
        return f"Dual2({self.v!r})"


@dataclass(frozen=True)
class ScalarField:
    """A twice-differentiable map from parameter vectors to a real number.

    `fn` must be written in terms of arithmetic and the smooth functions that
    `Dual2` supports so it can be evaluated on dual seeds as well as floats.
    """

    dim: int
    fn: Callable
    name: str = ""

    def __post_init__(self):
        if not 1 <= self.dim <= DIM_CAP:
            raise ConfigurationError(
                f"dimension cap exceeded: {self.dim} not in [1, {DIM_CAP}]"
            )

    def value(self, theta) -> float:
        out = float(self.fn(np.asarray(theta, dtype=float)))
        if not math.isfinite(out):
            raise EvaluationDomainError(
                f"{self.name or 'scalar field'} non-finite at {theta}"
            )
        return out

    def __call__(self, theta) -> float:
        return self.value(theta)


@dataclass(frozen=True)
class VectorMap:
    """A componentwise twice-differentiable map R^in_dim -> R^out_dim."""

    in_dim: int
    out_dim: int
    fn: Callable
    name: str = ""

    def __post_init__(self):
        if not 1 <= self.in_dim <= DIM_CAP or not 1 <= self.out_dim <= DIM_CAP:
            raise ConfigurationError(
                f"dimension cap exceeded: {self.in_dim}x{self.out_dim}"
            )

    def value(self, theta) -> np.ndarray:
        out = np.asarray(self.fn(np.asarray(theta, dtype=float)), dtype=float)
        out = out.reshape(self.out_dim)
        if not np.all(np.isfinite(out)):
            raise EvaluationDomainError(
                f"{self.name or 'vector map'} non-finite at {theta}"
            )
        return out

    def __call__(self, theta) -> np.ndarray:
        return self.value(theta)


def seed_duals(theta, order: int) -> np.ndarray:
    """Object array of `Dual2` seeds at `theta`: entry i carries the unit
    gradient e_i, and the scalar zero Hessian when `order` is 2."""
    theta = np.asarray(theta, dtype=float)
    n = theta.shape[0]
    seeds = np.empty(n, dtype=object)
    for i in range(n):
        g = np.zeros(n)
        g[i] = 1.0
        seeds[i] = Dual2(theta[i], g, 0.0 if order == 2 else None)
    return seeds


def _dual_parts(out, n: int, order: int):
    """Extract (value, grad, hess) from a possibly-constant fn output; an
    order-2 hess is always an (n, n) array."""
    if isinstance(out, Dual2):
        h = None
        if order == 2:
            h = np.full((n, n), out.h) if np.ndim(out.h) == 0 else out.h
        return out.v, out.g, h
    # fn returned a plain constant: all derivatives vanish
    v = float(out)
    return v, np.zeros(n), (np.zeros((n, n)) if order == 2 else None)


def _symmetrized(h) -> np.ndarray:
    h = np.array(h, dtype=float)
    return 0.5 * (h + h.T)


def gradient(f: ScalarField, theta) -> np.ndarray:
    """First derivatives of `f` at `theta`, exact to roundoff."""
    out = f.fn(seed_duals(theta, order=1))
    v, g, _ = _dual_parts(out, f.dim, order=1)
    if not (math.isfinite(v) and np.all(np.isfinite(g))):
        raise EvaluationDomainError(f"gradient of {f.name or 'field'} non-finite at {theta}")
    return np.array(g, dtype=float)


def gradient_and_hessian(f: ScalarField, theta) -> tuple[np.ndarray, np.ndarray]:
    """(gradient, exactly symmetrized Hessian) of `f` at `theta` from one
    order-2 pass; the gradient equals `gradient(f, theta)` bit for bit."""
    out = f.fn(seed_duals(theta, order=2))
    v, g, h = _dual_parts(out, f.dim, order=2)
    if not (math.isfinite(v) and np.all(np.isfinite(g))):
        raise EvaluationDomainError(f"gradient of {f.name or 'field'} non-finite at {theta}")
    if not np.all(np.isfinite(h)):
        raise EvaluationDomainError(f"hessian of {f.name or 'field'} non-finite at {theta}")
    return np.array(g, dtype=float), _symmetrized(h)


def hessian(f: ScalarField, theta) -> np.ndarray:
    """Second-derivative matrix of `f` at `theta`, exactly symmetrized."""
    return gradient_and_hessian(f, theta)[1]


def jacobian(m: VectorMap, theta) -> np.ndarray:
    """(out_dim, in_dim) matrix of first partials of `m` at `theta`."""
    out = m.fn(seed_duals(theta, order=1))
    return jacobian_rows(out, m.in_dim, m.out_dim, m.name or "map", theta)


def jacobian_rows(out, in_dim: int, out_dim: int, name: str, theta) -> np.ndarray:
    """(out_dim, in_dim) Jacobian read off `out`, a map's output on the seeds
    of `theta` (either order); constant components give zero rows."""
    rows = []
    for comp in np.asarray(out, dtype=object).reshape(out_dim):
        _, g, _ = _dual_parts(comp, in_dim, order=1)
        rows.append(np.array(g, dtype=float))
    jac = np.stack(rows)
    if not np.all(np.isfinite(jac)):
        raise EvaluationDomainError(f"jacobian of {name} non-finite at {theta}")
    return jac


def jacobian_and_second_derivatives(m: VectorMap, theta) -> tuple[np.ndarray, np.ndarray]:
    """(`jacobian`, `second_derivatives`) of `m` at `theta` from one order-2
    pass; the Jacobian equals `jacobian(m, theta)` bit for bit."""
    out = m.fn(seed_duals(theta, order=2))
    jac = jacobian_rows(out, m.in_dim, m.out_dim, m.name or "map", theta)
    return jac, _second_derivative_blocks(out, m, theta)


def second_derivatives(m: VectorMap, theta) -> np.ndarray:
    """Rank-3 array D[l, i, j] = d^2 m^l / dtheta^i dtheta^j.

    Each D[l] is exactly symmetric.
    """
    return _second_derivative_blocks(m.fn(seed_duals(theta, order=2)), m, theta)


def _second_derivative_blocks(out, m: VectorMap, theta) -> np.ndarray:
    blocks = []
    for comp in np.asarray(out, dtype=object).reshape(m.out_dim):
        _, _, h = _dual_parts(comp, m.in_dim, order=2)
        blocks.append(_symmetrized(h))
    d2 = np.stack(blocks)
    if not np.all(np.isfinite(d2)):
        raise EvaluationDomainError(
            f"second derivatives of {m.name or 'map'} non-finite at {theta}"
        )
    return d2


# -- finite-difference oracle (validation only, never the implementation) ---


def fd_gradient(fn: Callable, theta, step: float = FD_STEP) -> np.ndarray:
    """Central-difference gradient of a plain scalar callable."""
    theta = np.asarray(theta, dtype=float)
    grad = np.zeros_like(theta)
    for i in range(theta.shape[0]):
        hi = np.zeros_like(theta)
        hi[i] = step
        grad[i] = (fn(theta + hi) - fn(theta - hi)) / (2.0 * step)
    return grad


def fd_jacobian(fn: Callable, theta, step: float = FD_STEP) -> np.ndarray:
    """Central-difference Jacobian of a plain vector-valued callable."""
    theta = np.asarray(theta, dtype=float)
    cols = []
    for i in range(theta.shape[0]):
        hi = np.zeros_like(theta)
        hi[i] = step
        plus = np.asarray(fn(theta + hi), dtype=float)
        minus = np.asarray(fn(theta - hi), dtype=float)
        cols.append((plus - minus) / (2.0 * step))
    return np.stack(cols, axis=-1)
