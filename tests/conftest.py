import dataclasses

import numpy as np
import pytest

from equiflow import (
    ConfigurationError,
    Connection,
    Dataset,
    Diffeomorphism,
    Model,
    ScalarField,
    VectorMap,
    affine_diffeomorphism,
    dataset_loss,
    default_recipe,
    jacobian,
    linear_model,
    mlp_tanh,
    pullback_loss,
    shear_diffeomorphism,
)
from equiflow.geometry import FAMILY_ROWS


# The families whose maps are affine and carry their matrix.
AFFINE_FAMILIES = [name for name, row in FAMILY_ROWS.items() if row.matrix is not None]


def identity(dim):
    """The identity map, as a translation."""
    return affine_diffeomorphism(np.eye(dim), family="translation", label="identity")


def invert(g):
    """The inverse diffeomorphism (forward and inverse maps swapped)."""
    return Diffeomorphism(
        g.family, g.inverse_map, g.forward_map, label=f"{g.label or g.family}^-1"
    )


def quadratic_loss(matrix, name="quadratic"):
    """The field 1/2 theta^T A theta for a fixed symmetric matrix A."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ConfigurationError("quadratic loss needs a square matrix")

    def fn(theta):
        q = matrix @ np.asarray(theta)
        acc = 0.0
        for a, b in zip(np.asarray(theta), q):
            acc = acc + a * b
        return 0.5 * acc

    return ScalarField(matrix.shape[0], fn, name=name)


def canonical_shear(beta, dim=2, func="sin"):
    """The reference shear (theta_1, theta_2 + beta phi(theta_1), ...)."""
    coeffs = np.zeros((dim, dim))
    for k in range(1, dim):
        coeffs[k, k - 1] = beta
    return shear_diffeomorphism(coeffs, func=func, label=f"shear[{func},{beta}]")


def flat_connection(dim):
    """The connection with every Christoffel symbol zero."""
    zeros = np.zeros((dim, dim, dim))
    return Connection(dim, lambda theta: zeros)


def quadratic_model(factor):
    """f(x, theta) = R theta, input-independent; under mean squared error it
    induces an exact quadratic loss in theta."""
    factor = np.asarray(factor, dtype=float)
    out_dim, param_dim = factor.shape
    return Model("quadratic-surrogate", 1, out_dim, param_dim, lambda x, theta: factor @ theta)


def transform_bilinear(g, form, theta_bar):
    """The tensor law for a covariant 2-form: `form` at g^-1(theta_bar) read in
    the barred chart as J^T form J, J the inverse map's Jacobian at theta_bar,
    symmetrized."""
    jac = jacobian(g.inverse_map, theta_bar)
    out = jac.T @ form @ jac
    return 0.5 * (out + out.T)


def loop_loss(model, data):
    """The mean squared error evaluated one sample at a time: one forward call
    per input row, each residual's squares added from zero in component order
    and the halves from zero in sample order."""
    inputs, targets, size = data.inputs, data.targets, data.size

    def fn(theta):
        total = 0.0
        for k in range(size):
            resid = model.forward(inputs[k], theta) - targets[k]
            sq = 0.0
            for comp in np.asarray(resid).reshape(-1):
                sq = sq + comp * comp
            total = total + 0.5 * sq
        return total / size

    return ScalarField(model.param_dim, fn, name=f"loop-mse[{model.kind}]")


def output_map(model, x):
    """The map theta -> model.forward(x, theta) for one fixed input."""
    x = np.asarray(x, dtype=float)

    def fn(theta):
        return model.forward(x, theta)

    return VectorMap(model.param_dim, model.out_dim, fn, name=f"{model.kind} output")


def assert_same_bits(got, want):
    """Equal shapes and entries, signs of zero included (`np.array_equal` treats
    -0.0 and 0.0 as equal)."""
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def counting(field):
    """(`field`, a ScalarField or VectorMap, with a call counter on its `fn`;
    the list each call appends to)."""
    calls = []

    def fn(theta):
        calls.append(1)
        return field.fn(theta)

    return dataclasses.replace(field, fn=fn), calls


def tanh_unit_loss():
    """Loss of a single tanh unit w2*tanh(w1*x + b) on two fixed samples."""
    samples = [(0.5, 0.3), (-1.0, -0.2)]

    def fn(theta):
        w1, b, w2 = theta[0], theta[1], theta[2]
        total = 0.0
        for x, y in samples:
            resid = w2 * np.tanh(w1 * x + b) - y
            total = total + 0.5 * resid * resid
        return total / len(samples)

    return ScalarField(3, fn, name="tanh-unit mse")


def fd_scalar_corpus():
    """Named scalar fields covering every loss family the laboratory uses."""
    spd = np.array([[2.0, 1.0], [1.0, 3.0]])
    corpus = [
        ("quadratic-2d", quadratic_loss(spd)),
        ("tanh-unit", tanh_unit_loss()),
    ]
    for dim in (2, 4, 8):
        model, data = default_recipe(dim, seed=0, kind="mlp-tanh")
        corpus.append((f"mlp-loss-{dim}", dataset_loss(model, data)))
    model, data = default_recipe(4, seed=0)
    loss = dataset_loss(model, data)
    corpus.append(("linear-loss-4", loss))
    corpus.append(("sheared-linear-loss-4", pullback_loss(canonical_shear(0.5, dim=4), loss)))
    return corpus


def fd_vector_corpus():
    """Named vector maps: reparameterizations and model outputs."""
    from equiflow import affine_diffeomorphism, sample_diffeomorphism

    rng = np.random.default_rng(11)
    corpus = []
    for family in ("euclidean", "affine", "shear"):
        g = sample_diffeomorphism(family, 3, rng)
        corpus.append((f"{family}-forward", g.forward_map))
        corpus.append((f"{family}-inverse", g.inverse_map))
    scale = affine_diffeomorphism(np.diag([2.0, 0.5, 1.5]))
    corpus.append(("diagonal-forward", scale.forward_map))
    model = mlp_tanh(1, 1, 1, bias=True)
    corpus.append(("mlp-output", output_map(model, [0.7])))
    lin = linear_model(3, 2)
    corpus.append(("linear-output", output_map(lin, [0.2, -0.4, 1.1])))
    return corpus


@pytest.fixture(scope="session")
def scalar_corpus():
    return fd_scalar_corpus()


@pytest.fixture(scope="session")
def vector_corpus():
    return fd_vector_corpus()


@pytest.fixture()
def two_point_linear():
    model = linear_model(1, 1)
    data = Dataset([[1.0], [2.0]], [[2.0], [1.0]])
    return model, data
