import numpy as np
import pytest

from equiflow import (
    FAMILIES,
    ConfigurationError,
    Diffeomorphism,
    StateVelocity,
    affine_diffeomorphism,
    catalog,
    compose,
    gradient,
    integrate,
    jacobian,
    nesterov_flow,
    pullback_connection,
    pullback_loss,
    pushforward_state,
    pushforward_tangent,
    quadratic_loss,
    sample_diffeomorphism,
    second_derivatives,
    state_order1,
    state_order2,
    translation,
)
from equiflow.geometry import (
    random_invertible,
    random_orthogonal,
    random_signed_permutation,
)
from conftest import canonical_shear, counting, identity, invert, transform_bilinear


def rotation2d(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


class TestPullbackLoss:
    def test_scaling_by_hand(self):
        loss = quadratic_loss(np.eye(1))
        g = affine_diffeomorphism([[2.0]])
        barred = pullback_loss(g, loss)
        for t in (0.4, -1.2, 2.0):
            assert np.isclose(barred.value([t]), t * t / 8.0)

    def test_identity(self):
        loss = quadratic_loss(np.array([[2.0, 1.0], [1.0, 3.0]]))
        barred = pullback_loss(identity(2), loss)
        for theta in ([0.3, -0.7], [1.0, 1.0]):
            assert np.isclose(barred.value(theta), loss.value(theta))

    def test_translation(self):
        loss = quadratic_loss(np.eye(2))
        shift = np.array([0.5, -1.0])
        barred = pullback_loss(translation(shift), loss)
        theta_bar = np.array([1.0, 2.0])
        assert np.isclose(barred.value(theta_bar), loss.value(theta_bar - shift))


class TestPushforwardState:
    def test_affine_order2(self):
        a = rotation2d(0.7) * 1.3
        c = np.array([0.2, -0.4])
        g = affine_diffeomorphism(a, c)
        s = state_order2([0.5, -0.1], [1.0, 2.0], time=0.3)
        out = pushforward_state(g, s)
        assert np.allclose(out.theta, a @ s.theta + c)
        assert np.allclose(out.velocity, a @ s.velocity)
        assert out.time == s.time

    def test_shear_velocity(self):
        g = canonical_shear(0.5)
        s = state_order2([0.0, 1.0], [1.0, 0.0], time=0.1)
        out = pushforward_state(g, s)
        assert np.allclose(out.velocity, [1.0, 0.5])

    def test_identity_fixed_point(self):
        s = state_order2([0.3, 0.4], [-1.0, 0.5], time=1.0)
        out = pushforward_state(identity(2), s)
        assert np.allclose(out.as_vector(), s.as_vector())

    def test_round_trip_catalog(self):
        rng = np.random.default_rng(0)
        for family in FAMILIES:
            g = sample_diffeomorphism(family, 3, rng)
            s = state_order2(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3), time=0.5)
            back = pushforward_state(invert(g), pushforward_state(g, s))
            assert np.linalg.norm(back.as_vector() - s.as_vector()) <= 1e-9, family

    def test_functoriality(self):
        rng = np.random.default_rng(1)
        for fam1 in FAMILIES:
            for fam2 in ("euclidean", "shear"):
                g1 = sample_diffeomorphism(fam1, 3, rng)
                g2 = sample_diffeomorphism(fam2, 3, rng)
                s = state_order2(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3), time=0.2)
                direct = pushforward_state(compose(g2, g1), s)
                chained = pushforward_state(g2, pushforward_state(g1, s))
                assert (
                    np.linalg.norm(direct.as_vector() - chained.as_vector()) <= 1e-9
                ), (fam1, fam2)


class TestPushforwardTangent:
    def test_affine_second_component(self):
        a = random_invertible(2, np.random.default_rng(2))
        g = affine_diffeomorphism(a)
        s = state_order2([0.1, 0.2], [0.5, -0.5], time=0.4)
        v = pushforward_tangent(g, s, nesterov_flow(quadratic_loss(np.eye(2)))(s))
        base = nesterov_flow(quadratic_loss(np.eye(2)))(s)
        assert np.allclose(v.dderivs[1], a @ base.dderivs[1])

    def test_shear_quadratic_term(self):
        from equiflow import StateVelocity

        g = canonical_shear(0.5)
        s = state_order2([np.pi / 2, 0.0], [1.0, 0.0], time=0.2)
        v = StateVelocity((np.array([1.0, 0.0]), np.array([0.0, 0.0])))
        out = pushforward_tangent(g, s, v)
        assert np.allclose(out.dderivs[1], [0.0, -0.5])

    def test_one_map_pass_per_pushforward(self):
        shear = canonical_shear(0.6, dim=3, func="tanh")
        forward, calls = counting(shear.forward_map)
        g = Diffeomorphism("shear", forward, shear.inverse_map)
        theta, u = np.array([0.4, -0.3, 0.9]), np.array([1.0, 0.5, -0.2])
        v = StateVelocity((np.array([0.2, -0.1, 0.3]), np.array([0.7, 0.0, -0.4])))
        out = pushforward_tangent(g, state_order2(theta, u, time=0.5), v)
        assert len(calls) == 1
        jac = jacobian(shear.forward_map, theta)
        quad = np.einsum("lij,i,j->l", second_derivatives(shear.forward_map, theta), v.dderivs[0], u)
        assert np.array_equal(out.dderivs[0], jac @ v.dderivs[0])
        assert np.array_equal(out.dderivs[1], jac @ v.dderivs[1] + quad)
        calls.clear()
        pushforward_tangent(g, state_order1(theta), StateVelocity((v.dderivs[0],)))
        assert len(calls) == 1

    def test_trajectory_fd_oracle(self):
        # differentiate g(theta(xi)) twice along an integrated trajectory
        loss = quadratic_loss(np.array([[2.0, 0.5], [0.5, 1.0]]))
        flow = nesterov_flow(loss)
        s0 = state_order2([1.0, -0.5], [0.0, 0.0], time=0.5)
        h = 1e-3
        traj = integrate(flow, s0, h=h, steps=400, scheme="rk4")
        g = canonical_shear(0.6, func="tanh")
        for k in (100, 200, 300):
            s = traj.states[k]
            pushed = pushforward_tangent(g, s, flow(s))
            mapped = [g.forward(traj.states[k + i].theta) for i in (-1, 0, 1)]
            fd_vel = (mapped[2] - mapped[0]) / (2 * h)
            fd_acc = (mapped[2] - 2 * mapped[1] + mapped[0]) / (h * h)
            assert np.max(np.abs(pushed.dderivs[0] - fd_vel)) <= 1e-4
            assert np.max(np.abs(pushed.dderivs[1] - fd_acc)) <= 1e-4


class TestTransformBilinear:
    def test_scaling_by_hand(self):
        g = affine_diffeomorphism([[2.0]])
        form = np.array([[1.0]])
        out = transform_bilinear(g, form, [0.3])
        assert np.allclose(out, [[0.25]])

    def test_orthogonal_preserves_identity(self):
        q = random_orthogonal(3, np.random.default_rng(4))
        g = affine_diffeomorphism(q, family="euclidean")
        out = transform_bilinear(g, np.eye(3), [0.1, 0.2, 0.3])
        assert np.allclose(out, np.eye(3), atol=1e-12)

    def test_identity_noop(self):
        form = np.array([[2.0, 0.3], [0.3, 1.0]])
        out = transform_bilinear(identity(2), form, [0.5, 0.5])
        assert np.allclose(out, form)

    def test_psd_is_preserved(self):
        rng = np.random.default_rng(6)
        base = rng.standard_normal((4, 4))
        form = base @ base.T
        for family in FAMILIES:
            g = sample_diffeomorphism(family, 4, rng)
            out = transform_bilinear(g, form, rng.uniform(-1, 1, 4))
            assert np.min(np.linalg.eigvalsh(out)) >= -1e-10, family

    def test_covector_transform_law(self):
        rng = np.random.default_rng(7)
        loss = quadratic_loss(np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 0.5], [0.0, 0.5, 1.0]]))
        for family in FAMILIES:
            g = sample_diffeomorphism(family, 3, rng)
            theta_bar = rng.uniform(-1, 1, 3)
            barred_grad = gradient(pullback_loss(g, loss), theta_bar)
            jac_inv = jacobian(g.inverse_map, theta_bar)
            transported = jac_inv.T @ gradient(loss, g.inverse(theta_bar))
            assert np.max(np.abs(barred_grad - transported)) <= 1e-8, family


class TestPullbackConnection:
    def test_affine_is_flat(self):
        g = affine_diffeomorphism(random_invertible(3, np.random.default_rng(8)))
        gamma = pullback_connection(g).christoffel_at([0.2, -0.1, 0.5])
        assert np.allclose(gamma, 0.0, atol=1e-12)

    def test_canonical_shear_by_hand(self):
        beta = 0.5
        g = canonical_shear(beta)
        theta_bar = np.array([np.pi / 2, 0.3])
        gamma = pullback_connection(g).christoffel_at(theta_bar)
        # single nonzero symbol: Gamma^2_11 = beta * sin(theta_bar_1)
        want = np.zeros((2, 2, 2))
        want[1, 0, 0] = beta * np.sin(theta_bar[0])
        assert np.allclose(gamma, want, atol=1e-12)

    def test_identity_composition_unchanged(self):
        g = canonical_shear(0.4)
        both = compose(g, identity(2))
        theta_bar = np.array([0.7, -0.2])
        assert np.allclose(
            pullback_connection(g).christoffel_at(theta_bar),
            pullback_connection(both).christoffel_at(theta_bar),
            atol=1e-12,
        )


class TestCatalog:
    def test_families_and_determinism(self):
        for family in FAMILIES:
            g1 = catalog(family, 3, seed=42)
            g2 = catalog(family, 3, seed=42)
            theta = np.array([0.3, -0.8, 1.1])
            assert g1.family == family
            assert np.array_equal(g1.forward(theta), g2.forward(theta))

    def test_inverse_exactness_on_box(self):
        rng = np.random.default_rng(10)
        for family in FAMILIES:
            g = sample_diffeomorphism(family, 4, rng)
            for _ in range(5):
                theta = rng.uniform(-2.0, 2.0, 4)
                assert np.linalg.norm(g.inverse(g.forward(theta)) - theta) <= 1e-10

    @pytest.mark.parametrize("family", ["euclidean", "shear"])
    def test_degenerate_family_at_dim_one_refused(self, family):
        # a 1-parameter shear is the identity, a 1x1 rotation a signed permutation
        with pytest.raises(ConfigurationError, match="dim 1"):
            sample_diffeomorphism(family, 1, np.random.default_rng(0))

    def test_sampler_properties(self):
        rng = np.random.default_rng(11)
        q = random_orthogonal(5, rng)
        assert np.max(np.abs(q @ q.T - np.eye(5))) <= 1e-12
        p = random_signed_permutation(5, rng)
        assert set(np.abs(p).sum(axis=0)) == {1.0}
        a = random_invertible(5, rng)
        assert np.linalg.cond(a) <= 50.0 + 1e-6
