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

A function read through a chart is a `Pullback(fn, chart)`.  `derivative_pass`
seeds it at an affine chart's image (values from `chart.fn` on Python floats, a
row of J and its signed zero per seed), so the chart never sees a dual and the
bits are those of mapping the seeds.  Shears and composites map the seeds.

Everything here assumes dense linear algebra and dimensions in [1, `DIM_CAP`],
which `check_dim` enforces for `ScalarField`, `VectorMap` and `models.Model`.
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

# Scalar operands `Dual2` tests for before the slower `numbers.Real` ABC.
_PLAIN = (float, int)


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
        if isinstance(other, _PLAIN) or isinstance(other, numbers.Real):
            return Dual2(self.v + other, self.g, self.h)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Dual2):
            h = None if self.h is None else self.h - other.h
            return Dual2(self.v - other.v, self.g - other.g, h)
        if isinstance(other, _PLAIN) or isinstance(other, numbers.Real):
            return Dual2(self.v - other, self.g, self.h)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, _PLAIN) or isinstance(other, numbers.Real):
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
        if isinstance(other, _PLAIN) or isinstance(other, numbers.Real):
            h = None if self.h is None else self.h * other
            return Dual2(self.v * other, self.g * other, h)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual2):
            return self * other._reciprocal()
        if isinstance(other, _PLAIN) or isinstance(other, numbers.Real):
            return self * (1.0 / other)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, _PLAIN) or isinstance(other, numbers.Real):
            return self._reciprocal() * other
        return NotImplemented

    def __pow__(self, power):
        if not (isinstance(power, _PLAIN) or isinstance(power, numbers.Real)):
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


def is_integer(value) -> bool:
    """A Python or numpy integer; a boolean is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_dim(value, what: str) -> None:
    """Refuse a `what` that is not an integer in [1, DIM_CAP]."""
    if not is_integer(value) or not 1 <= value <= DIM_CAP:
        cap = f"an integer within the dimension cap [1, {DIM_CAP}]"
        raise ConfigurationError(f"{what} must be {cap}, got {value!r}")


def is_real(entry) -> bool:
    """A real number; a boolean or a numeric string is not one."""
    return isinstance(entry, numbers.Real) and not isinstance(entry, bool)


def _point(theta, dim: int, name: str) -> np.ndarray:
    """`theta` as a float array, refused unless every entry is a real number and
    its shape is (dim,).  An integer or float ndarray is read with no per-entry
    check; anything else is checked entry by entry before the float conversion."""
    try:
        if not (isinstance(theta, np.ndarray) and theta.dtype.kind in "fiu"):
            if not all(map(is_real, np.asarray(theta, dtype=object).flat)):
                raise TypeError("an entry is not a real number")
        point = np.asarray(theta, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigurationError(f"{name} takes a numeric point, got {theta!r}") from exc
    if point.shape != (dim,):
        raise ConfigurationError(f"{name} takes a point of length {dim}, got shape {point.shape}")
    return point


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
        check_dim(self.dim, f"{self.name or 'scalar field'} dim")

    def value(self, theta) -> float:
        out = float(self.fn(_point(theta, self.dim, self.name or "scalar field")))
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
    bit set.  Both are computed once, when the map is made.
    """

    in_dim: int
    out_dim: int
    fn: Callable
    name: str = ""
    matrix: np.ndarray | None = field(default=None, compare=False)
    _parts: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        check_dim(self.in_dim, f"{self.name or 'vector map'} in_dim")
        check_dim(self.out_dim, f"{self.name or 'vector map'} out_dim")
        if self.matrix is not None:
            matrix = np.array(self.matrix, dtype=float)
            if matrix.shape != (self.out_dim, self.in_dim) or not np.all(np.isfinite(matrix)):
                raise ConfigurationError(
                    f"{self.name or 'vector map'} matrix must be finite with shape "
                    f"({self.out_dim}, {self.in_dim}), got shape {matrix.shape}"
                )
            matrix.setflags(write=False)
            object.__setattr__(self, "matrix", matrix)
            object.__setattr__(self, "_parts", _affine_parts(matrix))

    def value(self, theta) -> np.ndarray:
        point = _point(theta, self.in_dim, self.name or "vector map")
        out = np.asarray(self.fn(point), dtype=float).reshape(self.out_dim)
        if not np.all(np.isfinite(out)):
            raise EvaluationDomainError(
                f"{self.name or 'vector map'} non-finite at {theta}"
            )
        return out

    def __call__(self, theta) -> np.ndarray:
        return self.value(theta)


@dataclass(frozen=True)
class Pullback:
    """theta -> fn(chart.fn(theta)); `derivative_pass` reads the chart as data."""

    fn: Callable
    chart: VectorMap

    def __call__(self, theta):
        return self.fn(self.chart.fn(theta))


def _duals(values, grads, zeros, order: int) -> np.ndarray:
    """Object array of `Dual2`: entry i has values[i], grads[i] and, at order 2,
    the scalar Hessian zeros[i]."""
    seeds = np.empty(len(grads), dtype=object)
    for i, grad in enumerate(grads):
        seeds[i] = Dual2(values[i], grad, float(zeros[i]) if order == 2 else None)
    return seeds


def seed_duals(theta, order: int) -> np.ndarray:
    """Object array of `Dual2` seeds at `theta`: entry i carries the unit
    gradient e_i, and the scalar zero Hessian when `order` is 2."""
    theta = np.asarray(theta, dtype=float)
    return _duals(theta, np.eye(theta.shape[0]), np.zeros(theta.shape[0]), order)


def derivative_pass(fn: Callable, theta, order: int):
    """(values, first, second) of every output of `fn` on `seed_duals(theta, order)`.

    For outputs of shape s the shapes are s, s + (n,) and s + (n, n), each (n, n)
    block exactly symmetrized; `second` is None at order 1.  A plain-number
    output has zero derivatives.  Nothing is checked for finiteness.  A
    `Pullback` through an affine chart is seeded at the chart's image."""
    n = np.shape(theta)[0]
    if isinstance(fn, Pullback) and fn.chart.matrix is not None:
        jac, d2 = fn.chart._parts
        values = fn.chart.fn(np.asarray(theta, dtype=float).astype(object))
        fn, seeds = fn.fn, _duals(values, jac, d2[:, 0, 0], order)
    else:
        seeds = seed_duals(theta, order)
    outs = np.asarray(fn(seeds), dtype=object)
    values = np.zeros(outs.size)
    first = np.zeros((outs.size, n))
    second = np.zeros((outs.size, n, n)) if order == 2 else None
    for k, out in enumerate(outs.flat):
        if not isinstance(out, Dual2):
            values[k] = out
            continue
        values[k], first[k] = out.v, out.g
        if order == 2:
            second[k] = out.h  # a scalar h broadcasts, keeping the sign of a zero
    values, first = values.reshape(outs.shape), first.reshape(outs.shape + (n,))
    if order == 2:
        second = second.reshape(outs.shape + (n, n))
        second = 0.5 * (second + np.swapaxes(second, -1, -2))
    return values, first, second


def _finite(array: np.ndarray, what: str, name: str, theta) -> None:
    if not np.all(np.isfinite(array)):
        raise EvaluationDomainError(f"{what} of {name} non-finite at {theta}")


def gradient(f: ScalarField, theta) -> np.ndarray:
    """First derivatives of `f` at `theta`, exact to roundoff."""
    value, grad, _ = derivative_pass(f.fn, _point(theta, f.dim, f.name or "field"), order=1)
    _finite(np.append(value, grad), "gradient", f.name or "field", theta)
    return grad.reshape(f.dim)


def gradient_and_hessian(f: ScalarField, theta) -> tuple[np.ndarray, np.ndarray]:
    """(gradient, exactly symmetrized Hessian) of `f` at `theta` from one
    order-2 pass; the gradient equals `gradient(f, theta)` bit for bit."""
    value, grad, hess = derivative_pass(f.fn, _point(theta, f.dim, f.name or "field"), order=2)
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
    theta = _point(theta, m.in_dim, m.name or "map")
    if m.matrix is not None:
        return m._parts[0].copy()
    jac = derivative_pass(m.fn, theta, order=1)[1].reshape(m.out_dim, -1)
    _finite(jac, "jacobian", m.name or "map", theta)
    return jac


def jacobian_and_second_derivatives(m: VectorMap, theta) -> tuple[np.ndarray, np.ndarray]:
    """(`jacobian`, `second_derivatives`) of `m` at `theta` from one order-2
    pass; the Jacobian equals `jacobian(m, theta)` bit for bit."""
    theta = _point(theta, m.in_dim, m.name or "map")
    if m.matrix is not None:
        return m._parts[0].copy(), m._parts[1].copy()
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
