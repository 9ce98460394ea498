import tracemalloc

import numpy as np
import pytest

from equiflow import (
    ConfigurationError,
    DivergenceError,
    ScalarField,
    default_flow_builder,
    equivariance_drift,
    gradient_flow,
    integrate,
    quadratic_loss,
    sample_diffeomorphism,
    state_order1,
    trajectory_csv_text,
)
from equiflow.harness import FlowBuilder
from equiflow.integrate import MAX_STEPS, drift_step_counts


class TestIntegrate:
    def test_euler_one_step(self):
        traj = integrate(gradient_flow(quadratic_loss(np.eye(1))), state_order1([1.0]), 0.1, 1)
        assert np.isclose(traj.final.theta[0], 0.9)

    def test_euler_two_steps(self):
        traj = integrate(gradient_flow(quadratic_loss(np.eye(1))), state_order1([1.0]), 0.1, 2)
        assert np.isclose(traj.final.theta[0], 0.81)

    def test_rk4_tracks_exponential(self):
        traj = integrate(
            gradient_flow(quadratic_loss(np.eye(1))), state_order1([1.0]), 0.1, 1, "rk4"
        )
        assert abs(traj.final.theta[0] - np.exp(-0.1)) <= 1e-7

    def test_rk4_matches_matrix_exponential(self):
        a = np.array([[2.0, 1.0], [1.0, 3.0]])
        loss = quadratic_loss(a)
        theta0 = np.array([1.0, -0.5])
        traj = integrate(gradient_flow(loss), state_order1(theta0), 0.01, 100, "rk4")
        evals, evecs = np.linalg.eigh(a)
        expm = evecs @ np.diag(np.exp(-evals)) @ evecs.T
        assert np.max(np.abs(traj.final.theta - expm @ theta0)) <= 1e-6

    def test_euler_rk4_first_order_coupling(self):
        loss = quadratic_loss(np.array([[2.0, 1.0], [1.0, 3.0]]))
        s0 = state_order1([1.0, 1.0])

        def gap(h):
            eu = integrate(gradient_flow(loss), s0, h, round(1.0 / h), "euler")
            rk = integrate(gradient_flow(loss), s0, h, round(1.0 / h), "rk4")
            return np.linalg.norm(eu.final.theta - rk.final.theta)

        ratio = gap(0.02) / gap(0.01)
        assert 1.5 <= ratio <= 2.7  # gap scales like h

    def test_time_advances_with_state(self):
        traj = integrate(gradient_flow(quadratic_loss(np.eye(1))), state_order1([1.0]), 0.25, 4)
        assert np.allclose([s.time for s in traj.states], [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_divergence_reports_step_index(self):
        # unstable flow dtheta/dxi = +theta^3 from a large start
        loss = ScalarField(1, lambda t: -0.25 * t[0] ** 4)
        with pytest.raises(DivergenceError) as info:
            integrate(gradient_flow(loss), state_order1([5.0]), 1.0, 50)
        assert info.value.step_index is not None

    def test_exp_blow_up_reports_its_step(self):
        # dtheta/dxi = exp(theta): 5 -> 153.4 -> 5e66, whose exp overflows in step 2
        loss = ScalarField(1, lambda t: -np.exp(t[0]))
        with pytest.raises(DivergenceError) as info:
            integrate(gradient_flow(loss), state_order1([5.0]), 1.0, 10)
        assert info.value.step_index == 2

    def test_parameter_validation(self):
        flow = gradient_flow(quadratic_loss(np.eye(1)))
        with pytest.raises(ConfigurationError):
            integrate(flow, state_order1([1.0]), -0.1, 5)
        with pytest.raises(ConfigurationError):
            integrate(flow, state_order1([1.0]), 0.1, 0)
        with pytest.raises(ConfigurationError):
            integrate(flow, state_order1([1.0]), 0.1, 5, scheme="heun")
        with pytest.raises(ConfigurationError, match="100000"):
            integrate(flow, state_order1([1.0]), 0.1, MAX_STEPS + 1)


class TestTrajectoryCsv:
    def test_columns_and_rows(self):
        traj = integrate(gradient_flow(quadratic_loss(np.eye(2))), state_order1([1.0, 2.0]), 0.1, 3)
        lines = trajectory_csv_text(traj).strip().splitlines()
        assert lines[0] == "xi,theta_1,theta_2"
        assert len(lines) == 5  # header + initial + 3 steps
        values = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        assert np.allclose(values[:, 0], [0.0, 0.1, 0.2, 0.3])


class TestEquivarianceDrift:
    def test_orthogonal_gradient_flow_commutes(self):
        builder = FlowBuilder("gd", quadratic_loss(np.array([[2.0, 1.0], [1.0, 3.0]])))
        g = sample_diffeomorphism("euclidean", 2, np.random.default_rng(3))
        result = equivariance_drift(
            builder, g, state_order1([1.0, -0.5]), [1e-1, 1e-2, 1e-3], horizon=1.0
        )
        assert all(defect <= 1e-10 for _, defect in result.points)

    def test_ngd_shear_euler_slope_near_one(self):
        builder = default_flow_builder("ngd", 2, seed=0)
        g = sample_diffeomorphism("shear", 2, np.random.default_rng(4))
        result = equivariance_drift(
            builder,
            g,
            state_order1([0.8, -0.6]),
            [1e-1, 3e-2, 1e-2, 3e-3],
            horizon=1.0,
            scheme="euler",
        )
        assert 0.7 <= result.slope <= 1.4

    def test_rk4_beats_euler(self):
        builder = default_flow_builder("ggn", 2, seed=0)
        g = sample_diffeomorphism("shear", 2, np.random.default_rng(5))
        s0 = state_order1([0.8, -0.6])
        h_list = [1e-1, 1e-2]
        euler = equivariance_drift(builder, g, s0, h_list, horizon=0.5, scheme="euler")
        rk4 = equivariance_drift(builder, g, s0, h_list, horizon=0.5, scheme="rk4")
        for (h, de), (_, dr) in zip(euler.points, rk4.points):
            assert dr < de

    def test_divergent_h_excluded(self):
        # Euler blows up on the quartic well at the big step but not the small
        quartic = ScalarField(2, lambda t: 0.25 * (t[0] ** 4 + t[1] ** 4))
        builder = FlowBuilder("gd", quartic)
        g = sample_diffeomorphism("shear", 2, np.random.default_rng(6))
        result = equivariance_drift(
            builder, g, state_order1([5.0, 5.0]), [1.0, 1e-2], horizon=8.0
        )
        assert 1.0 in result.diverged
        assert [h for h, _ in result.points] == [1e-2]

    @pytest.mark.parametrize("h", [1e-320, 0.0, -0.1, float("nan")])
    def test_step_count_must_be_finite_and_positive(self, h):
        builder = FlowBuilder("gd", quadratic_loss(np.eye(2)))
        g = sample_diffeomorphism("shear", 2, np.random.default_rng(7))
        with pytest.raises(ConfigurationError, match=r"h = .*horizon = 1\.0"):
            equivariance_drift(builder, g, state_order1([1.0, 0.5]), [0.1, h], horizon=1.0)

    def test_step_count_above_the_cap_refused_before_integration(self):
        calls = []

        def value(t):
            calls.append(1)
            return t[0] ** 2 + t[1] ** 2

        builder = FlowBuilder("gd", ScalarField(2, value))
        g = sample_diffeomorphism("shear", 2, np.random.default_rng(7))
        with pytest.raises(ConfigurationError, match="exceeds MAX_STEPS"):
            equivariance_drift(builder, g, state_order1([1.0, 0.5]), [0.1, 1e-6])
        assert calls == []

    def test_repeated_step_size_refused_before_integration(self):
        # every log h equal would leave the slope fit nothing to fit
        calls = []

        def value(t):
            calls.append(1)
            return t[0] ** 2 + t[1] ** 2

        builder = FlowBuilder("gd", ScalarField(2, value))
        g = sample_diffeomorphism("shear", 2, np.random.default_rng(7))
        with pytest.raises(ConfigurationError, match=r"h = 0\.1 is repeated"):
            equivariance_drift(builder, g, state_order1([1.0, 0.5]), [0.1, 0.01, 0.1])
        assert calls == []

    def test_repeated_step_size_is_the_step_count_rule(self):
        with pytest.raises(ConfigurationError, match=r"h = 0\.1 is repeated"):
            drift_step_counts([0.1, 0.1], 1.0)
        assert drift_step_counts([0.1, 0.01], 1.0) == [10, 100]

    def test_memory_does_not_grow_with_the_step_count(self):
        # the study reads only each trajectory's final state and keeps no other
        builder = FlowBuilder("gd", quadratic_loss(np.array([[2.0, 1.0], [1.0, 3.0]])))
        g = sample_diffeomorphism("euclidean", 2, np.random.default_rng(3))

        def peak_bytes(h):
            tracemalloc.start()
            try:
                equivariance_drift(builder, g, state_order1([1.0, -0.5]), [h])
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        short = peak_bytes(1e-2)  # 100 steps per chart
        assert peak_bytes(2e-3) <= short + 64 * 1024  # 500 steps per chart
