import zlib
from pathlib import Path

import numpy as np
import pytest

from equiflow import (
    FAMILIES,
    ConfigurationError,
    EvaluationDomainError,
    ScalarField,
    VectorMap,
    affine_diffeomorphism,
    catalog,
    compose,
    dataset_loss,
    default_recipe,
    fd_gradient,
    fd_jacobian,
    gradient,
    gradient_and_hessian,
    hessian,
    jacobian,
    jacobian_and_second_derivatives,
    pullback_loss,
    quadratic_loss,
    sample_diffeomorphism,
    second_derivatives,
)
import equiflow
from equiflow.diffcalc import Dual2, seed_duals
from conftest import counting, tanh_unit_loss


def rel_err(got, want, floor=1e-8):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return np.max(np.abs(got - want)) / max(np.max(np.abs(want)), floor)


class TestGradient:
    def test_sphere(self):
        f = quadratic_loss(np.eye(2))
        assert np.allclose(gradient(f, [3.0, 4.0]), [3.0, 4.0])

    def test_product_rule(self):
        f = ScalarField(2, lambda t: t[0] * t[1])
        assert np.allclose(gradient(f, [2.0, 5.0]), [5.0, 2.0])

    def test_tanh_unit_matches_fd(self):
        f = tanh_unit_loss()
        theta = np.array([0.1, -0.2, 0.3])
        assert rel_err(gradient(f, theta), fd_gradient(f.value, theta)) <= 1e-6

    def test_nonfinite_raises(self):
        f = ScalarField(1, lambda t: np.log(t[0]))
        with pytest.raises(EvaluationDomainError):
            gradient(f, [-1.0])

    @pytest.mark.parametrize(
        "fn, theta",
        [
            (lambda t: np.sqrt(t[0]), 0.0),
            (lambda t: np.exp(t[0]), 1000.0),
            (lambda t: t[0] ** 0.5, -1.0),
            (lambda t: t[0] ** -1, 0.0),
        ],
        ids=["sqrt-at-0", "exp-overflow", "fractional-power-of-negative", "pole"],
    )
    def test_domain_errors_are_typed(self, fn, theta):
        for derivative in (gradient, hessian):
            with pytest.raises(EvaluationDomainError):
                derivative(ScalarField(1, fn), [theta])


class TestHessian:
    def test_quadratic_is_matrix(self):
        a = np.array([[2.0, 1.0], [1.0, 3.0]])
        f = quadratic_loss(a)
        for theta in ([0.0, 0.0], [1.3, -0.4]):
            assert np.allclose(hessian(f, theta), a)

    def test_cubic(self):
        f = ScalarField(1, lambda t: t[0] ** 3)
        assert np.allclose(hessian(f, [2.0]), [[12.0]])

    def test_tanh_unit_matches_fd_of_gradient(self):
        f = tanh_unit_loss()
        theta = np.array([0.1, -0.2, 0.3])
        fd = fd_jacobian(lambda t: gradient(f, t), theta)
        assert rel_err(hessian(f, theta), 0.5 * (fd + fd.T)) <= 1e-5

    def test_exactly_symmetric(self):
        f = tanh_unit_loss()
        h = hessian(f, [0.9, -1.2, 0.4])
        assert np.array_equal(h, h.T)


    @pytest.mark.parametrize(
        "f, dim",
        [
            (ScalarField(2, lambda t: 3.0), 2),
            (ScalarField(3, lambda t: 2.0 * t[0] - t[2] + 1.0), 3),
        ],
        ids=["constant", "linear"],
    )
    def test_zero_hessian_is_a_matrix(self, f, dim):
        h = hessian(f, np.full(dim, 0.5))
        assert h.shape == (dim, dim)
        assert np.array_equal(h, np.zeros((dim, dim)))
        assert gradient_and_hessian(f, np.full(dim, 0.5))[1].shape == (dim, dim)


class TestJacobian:
    def test_linear_map(self):
        q = np.array([[0.0, -1.0], [1.0, 0.0]])
        m = VectorMap(2, 2, lambda t: q @ np.asarray(t))
        assert np.allclose(jacobian(m, [0.3, 0.9]), q)

    def test_shear_by_hand(self):
        def shear(t):
            return np.array([t[0], t[1] + 0.5 * np.sin(t[0])])

        m = VectorMap(2, 2, shear)
        assert np.allclose(jacobian(m, [0.0, 1.0]), [[1.0, 0.0], [0.5, 1.0]])

    def test_identity(self):
        m = VectorMap(3, 3, lambda t: np.asarray(t))
        assert np.allclose(jacobian(m, [0.1, 0.2, 0.3]), np.eye(3))


class TestSecondDerivatives:
    def test_affine_vanishes(self):
        a = np.array([[2.0, 1.0], [0.0, 3.0]])
        m = VectorMap(2, 2, lambda t: a @ np.asarray(t) + np.array([1.0, -1.0]))
        assert np.allclose(second_derivatives(m, [0.7, 0.2]), 0.0)

    def test_shear_by_hand(self):
        def shear(t):
            return np.array([t[0], t[1] + 0.5 * np.sin(t[0])])

        m = VectorMap(2, 2, shear)
        d2 = second_derivatives(m, [0.0, 1.0])
        assert abs(d2[1, 0, 0]) <= 1e-14
        d2 = second_derivatives(m, [np.pi / 2, 1.0])
        assert np.isclose(d2[1, 0, 0], -0.5)
        assert np.count_nonzero(np.abs(d2) > 1e-12) == 1

    def test_matches_fd_of_jacobian(self, vector_corpus):
        name, m = vector_corpus[0]
        rng = np.random.default_rng(5)
        theta = rng.uniform(-1.0, 1.0, m.in_dim)
        fd = fd_jacobian(lambda t: jacobian(m, t), theta).reshape(
            m.out_dim, m.in_dim, m.in_dim
        )
        assert np.max(np.abs(second_derivatives(m, theta) - fd)) <= 1e-5

    def test_symmetric_in_last_indices(self, vector_corpus):
        rng = np.random.default_rng(6)
        for name, m in vector_corpus:
            theta = rng.uniform(-1.0, 1.0, m.in_dim)
            d2 = second_derivatives(m, theta)
            assert np.array_equal(d2, np.swapaxes(d2, 1, 2)), name


class TestFdAgreementAcrossCorpus:
    # gradient and hessian track central differences on every corpus field

    def test_scalar_fields(self, scalar_corpus):
        for name, f in scalar_corpus:
            rng = np.random.default_rng(zlib.crc32(name.encode()))
            for _ in range(10):
                theta = rng.uniform(-2.0, 2.0, f.dim)
                assert rel_err(gradient(f, theta), fd_gradient(f.value, theta)) <= 1e-5, name
                fd_h = fd_jacobian(lambda t: gradient(f, t), theta)
                assert rel_err(hessian(f, theta), 0.5 * (fd_h + fd_h.T)) <= 1e-5, name

    def test_vector_maps(self, vector_corpus):
        for name, m in vector_corpus:
            rng = np.random.default_rng(zlib.crc32(name.encode()))
            for _ in range(10):
                theta = rng.uniform(-2.0, 2.0, m.in_dim)
                assert rel_err(jacobian(m, theta), fd_jacobian(m.value, theta)) <= 1e-5, name


# -- one order-2 pass with a scalar zero Hessian, against explicit zeros ---


def zero_matrix_seeds(theta):
    """Order-2 seeds with explicit (n, n) zero Hessians instead of the scalar 0.0."""
    theta = np.asarray(theta, dtype=float)
    n = theta.shape[0]
    seeds = np.empty(n, dtype=object)
    for i in range(n):
        seeds[i] = Dual2(theta[i], np.eye(n)[i].copy(), np.zeros((n, n)))
    return seeds


def symmetrized(h):
    return 0.5 * (h + h.T)


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def sampled_map(family, dim, salt=""):
    """(one map of `family`, a point) drawn from a seed named after the case."""
    rng = np.random.default_rng(zlib.crc32(f"{salt}{dim}-{family}".encode()))
    return sample_diffeomorphism(family, dim, rng), rng.uniform(-1.5, 1.5, dim)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("dim", [2, 4, 8])
class TestScalarZeroIsBitIdentical:
    @pytest.mark.parametrize("kind", ["linear", "mlp-tanh"])
    def test_losses(self, kind, dim, family):
        model, data = default_recipe(dim, seed=0, kind=kind)
        loss = dataset_loss(model, data)
        g, theta = sampled_map(family, dim, salt=kind)
        for f in (loss, pullback_loss(g, loss)):
            want = f.fn(zero_matrix_seeds(theta))
            grad, hess = gradient_and_hessian(f, theta)
            assert_same_bits(grad, want.g)
            assert_same_bits(grad, gradient(f, theta))
            assert_same_bits(hess, symmetrized(want.h))
            assert_same_bits(hessian(f, theta), symmetrized(want.h))

    def test_maps(self, dim, family):
        g, theta = sampled_map(family, dim)
        for m in (g.forward_map, g.inverse_map):
            out = np.asarray(m.fn(zero_matrix_seeds(theta)), dtype=object)
            want_jac = np.stack([comp.g for comp in out])
            want_d2 = np.stack([symmetrized(comp.h) for comp in out])
            jac, d2 = jacobian_and_second_derivatives(m, theta)
            assert_same_bits(jac, want_jac)
            assert_same_bits(jac, jacobian(m, theta))
            assert_same_bits(d2, want_d2)
            assert_same_bits(second_derivatives(m, theta), want_d2)
            if family != "shear":
                assert np.array_equal(d2, np.zeros((dim, dim, dim)))


# -- an affine map carries its matrix: derivatives without a dual pass -------

AFFINE_FAMILIES = [family for family in FAMILIES if family != "shear"]


def derivatives(m, theta):
    """Every derivative the engine gives for `m` at `theta`."""
    jac, d2 = jacobian_and_second_derivatives(m, theta)
    return jacobian(m, theta), jac, d2, second_derivatives(m, theta)


def dual_pass(m, theta):
    """(J, D) read off `m.fn` on order-2 seeds, as the engine's dual pass does."""
    out = np.asarray(m.fn(seed_duals(theta, 2)), dtype=object).reshape(m.out_dim)
    jac = np.stack([comp.g for comp in out])
    n = m.in_dim
    d2 = np.stack([symmetrized(np.full((n, n), comp.h)) for comp in out])
    return jac, d2


SIGNED_PERMUTATION = np.array([[0.0, -1.0, 0.0], [0.0, 0.0, 1.0], [-1.0, 0.0, 0.0]])


class TestAffineMapCarriesItsMatrix:
    @pytest.mark.parametrize("family", AFFINE_FAMILIES)
    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_no_dual_pass(self, family, dim):
        g = catalog(family, dim, seed=3)
        theta = np.linspace(-1.0, 1.0, dim)
        for m in (g.forward_map, g.inverse_map):
            counted, calls = counting(m)
            derivatives(counted, theta)
            assert calls == []

    def test_shear_and_composite_still_run_the_dual_pass(self):
        theta = np.array([0.3, -0.7])
        affine = catalog("affine", 2, seed=3)
        for g in (catalog("shear", 2, seed=3), compose(affine, catalog("euclidean", 2, seed=3))):
            for m in (g.forward_map, g.inverse_map):
                assert m.matrix is None
                counted, calls = counting(m)
                derivatives(counted, theta)
                assert len(calls) == 3

    @pytest.mark.parametrize(
        "matrix",
        [
            [[-1.0, -2.0], [3.0, -4.0]],
            [[-1.0, -0.0], [-0.0, 2.0]],
            [[-2.0]],
            np.linalg.inv(SIGNED_PERMUTATION),
        ],
        ids=["negative-row", "negative-zero", "scalar", "inverse-signed-permutation"],
    )
    def test_matches_the_dual_pass_bit_for_bit(self, matrix):
        matrix = np.asarray(matrix)
        n = matrix.shape[0]
        g = affine_diffeomorphism(matrix, np.linspace(-0.5, 0.5, n))
        theta = np.linspace(-0.7, 0.9, n)
        for m in (g.forward_map, g.inverse_map):
            want_jac, want_d2 = dual_pass(m, theta)
            got_jac, jac, d2, got_d2 = derivatives(m, theta)
            for got in (got_jac, jac):
                assert_same_bits(got, want_jac)
            for got in (d2, got_d2):
                assert_same_bits(got, want_d2)

    def test_rectangular_matrix_matches_the_dual_pass(self):
        matrix = np.array([[-1.0, -0.0, -3.0], [0.0, -2.0, 1.0]])
        m = VectorMap(3, 2, lambda t: matrix @ np.asarray(t), matrix=matrix)
        theta = np.array([0.2, -0.4, 0.6])
        want_jac, want_d2 = dual_pass(m, theta)
        got_jac, jac, d2, got_d2 = derivatives(m, theta)
        assert_same_bits(got_jac, want_jac)
        assert_same_bits(d2, want_d2)
        assert np.signbit(d2[0]).all() and not np.signbit(d2[1]).any()

    def test_returned_arrays_are_fresh(self):
        g = catalog("affine", 2, seed=3)
        jac = jacobian(g.forward_map, [0.0, 0.0])
        jac[0, 0] = 99.0
        assert jacobian(g.forward_map, [0.0, 0.0])[0, 0] != 99.0
        with pytest.raises(ValueError):
            g.forward_map.matrix[0, 0] = 99.0

    @pytest.mark.parametrize(
        "matrix",
        [
            [[1.0, np.nan], [0.0, 1.0]],
            [[1.0, np.inf], [0.0, 1.0]],
            [[1.0, 0.0]],
            np.eye(3),
            [1.0, 0.0],
        ],
        ids=["nan", "inf", "too-few-rows", "too-large", "flat"],
    )
    def test_rejects_a_matrix_that_is_not_finite_or_misshapen(self, matrix):
        with pytest.raises(ConfigurationError):
            VectorMap(2, 2, lambda t: t, matrix=matrix)


def test_only_diffcalc_seeds_or_reads_dual_numbers():
    for path in sorted(Path(equiflow.__file__).parent.glob("*.py")):
        if path.name != "diffcalc.py":
            text = path.read_text()
            assert "seed_duals" not in text and "Dual2" not in text, path.name
