"""Exact derivatives of scalar losses and vector maps on small parameter spaces.

The differentiation mechanism is forward-mode arithmetic on `Dual2` values,
which carry a value, a gradient, and optionally a Hessian.  Model and
reparameterization code is written against plain numpy operations; evaluating
it on an object array of `Dual2` seeds yields derivatives that are exact to
roundoff.  Central finite differences (`fd_gradient`, `fd_jacobian`) are
provided as the independent validation oracle and are never used to produce
derivatives.

One function, `derivative_pass`, seeds and reads every dual pass: each output's
value, first derivatives and, at order 2, exactly symmetrized second
derivatives, as arrays.  `gradient`, `jacobian` and their order-2 forms call it
(`hessian` and `second_derivatives` read those), and so does
`models.network_jacobian`; no other module seeds or reads a `Dual2`.  Order-2
seeds carry the scalar zero Hessian `0.0` (see `Dual2`).

An affine map carries its matrix (`VectorMap.matrix`).  For such a map
`jacobian`, `jacobian_and_second_derivatives` and `second_derivatives` read the
Jacobian and the all-zero second derivatives off the matrix and never call
`fn`.  The result equals the dual pass bit for bit, signs of zero included:
that pass sums signed zeros along each row, so row k's zeros (in J and in all
of D[k]) are -0.0 exactly when every entry of row k has its sign bit set.
Chart passes, composites and shears carry no matrix and stay on `Dual2`.

Everything here assumes dense linear algebra and parameter dimension at most
`DIM_CAP`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
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
    """A componentwise twice-differentiable map R^in_dim -> R^out_dim.

    An affine map theta -> matrix @ theta + c carries `matrix`, its constant
    (out_dim, in_dim) Jacobian, kept read-only.  The engine then reads J =
    matrix and D = 0 off it without calling `fn`, each row's zeros signed as
    the dual pass signs them: -0.0 when every entry of that row has its sign
    bit set.
    """

    in_dim: int
    out_dim: int
    fn: Callable
    name: str = ""
    matrix: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self):
        if not 1 <= self.in_dim <= DIM_CAP or not 1 <= self.out_dim <= DIM_CAP:
            raise ConfigurationError(
                f"dimension cap exceeded: {self.in_dim}x{self.out_dim}"
            )
        if self.matrix is not None:
            matrix = np.array(self.matrix, dtype=float)
            if matrix.shape != (self.out_dim, self.in_dim) or not np.all(np.isfinite(matrix)):
                raise ConfigurationError(
                    f"{self.name or 'vector map'} matrix must be finite with shape "
                    f"({self.out_dim}, {self.in_dim}), got shape {matrix.shape}"
                )
            matrix.setflags(write=False)
            object.__setattr__(self, "matrix", matrix)

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
    seeds = np.empty(theta.shape[0], dtype=object)
    for i, unit in enumerate(np.eye(theta.shape[0])):
        seeds[i] = Dual2(theta[i], unit, 0.0 if order == 2 else None)
    return seeds


def derivative_pass(fn: Callable, theta, order: int):
    """(values, first, second) of every output of `fn` on `seed_duals(theta, order)`.

    For outputs of shape s the shapes are s, s + (n,) and s + (n, n), each (n, n)
    block exactly symmetrized; `second` is None at order 1.  A plain-number
    output has zero derivatives.  Nothing is checked for finiteness."""
    n = np.shape(theta)[0]
    outs = np.asarray(fn(seed_duals(theta, order)), dtype=object)
    values = np.zeros(outs.shape)
    first = np.zeros(outs.shape + (n,))
    second = np.zeros(outs.shape + (n, n)) if order == 2 else None
    for k in np.ndindex(outs.shape):
        out = outs[k]
        if not isinstance(out, Dual2):
            values[k] = out
            continue
        values[k], first[k] = out.v, out.g
        if order == 2:
            second[k] = out.h  # a scalar h broadcasts, keeping the sign of a zero
    if order == 2:
        second = 0.5 * (second + np.swapaxes(second, -1, -2))
    return values, first, second


def _finite(array: np.ndarray, what: str, name: str, theta) -> None:
    if not np.all(np.isfinite(array)):
        raise EvaluationDomainError(f"{what} of {name} non-finite at {theta}")


def gradient(f: ScalarField, theta) -> np.ndarray:
    """First derivatives of `f` at `theta`, exact to roundoff."""
    value, grad, _ = derivative_pass(f.fn, theta, order=1)
    _finite(np.append(value, grad), "gradient", f.name or "field", theta)
    return grad.reshape(f.dim)


def gradient_and_hessian(f: ScalarField, theta) -> tuple[np.ndarray, np.ndarray]:
    """(gradient, exactly symmetrized Hessian) of `f` at `theta` from one
    order-2 pass; the gradient equals `gradient(f, theta)` bit for bit."""
    value, grad, hess = derivative_pass(f.fn, theta, order=2)
    _finite(np.append(value, grad), "gradient", f.name or "field", theta)
    _finite(hess, "hessian", f.name or "field", theta)
    return grad.reshape(f.dim), hess.reshape(f.dim, f.dim)


def hessian(f: ScalarField, theta) -> np.ndarray:
    """Second-derivative matrix of `f` at `theta`, exactly symmetrized."""
    return gradient_and_hessian(f, theta)[1]


def _affine_parts(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(J, D) of an affine map with this matrix, with the dual pass's signed
    zeros (see the module docstring)."""
    z = np.where(np.signbit(matrix).all(axis=1), -0.0, 0.0)
    n = matrix.shape[1]
    return matrix + z[:, None], z[:, None, None] * np.ones((n, n))


def jacobian(m: VectorMap, theta) -> np.ndarray:
    """(out_dim, in_dim) matrix of first partials of `m` at `theta`."""
    if m.matrix is not None:
        return _affine_parts(m.matrix)[0]
    jac = derivative_pass(m.fn, theta, order=1)[1].reshape(m.out_dim, -1)
    _finite(jac, "jacobian", m.name or "map", theta)
    return jac


def jacobian_and_second_derivatives(m: VectorMap, theta) -> tuple[np.ndarray, np.ndarray]:
    """(`jacobian`, `second_derivatives`) of `m` at `theta` from one order-2
    pass; the Jacobian equals `jacobian(m, theta)` bit for bit."""
    if m.matrix is not None:
        return _affine_parts(m.matrix)
    _, jac, d2 = derivative_pass(m.fn, theta, order=2)
    jac, d2 = jac.reshape(m.out_dim, -1), d2.reshape(m.out_dim, *d2.shape[-2:])
    _finite(jac, "jacobian", m.name or "map", theta)
    _finite(d2, "second derivatives", m.name or "map", theta)
    return jac, d2


def second_derivatives(m: VectorMap, theta) -> np.ndarray:
    """Rank-3 array D[l, i, j] = d^2 m^l / dtheta^i dtheta^j; each D[l] is exactly symmetric."""
    return jacobian_and_second_derivatives(m, theta)[1]


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
