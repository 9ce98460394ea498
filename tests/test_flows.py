import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equiflow import (
    FAMILIES,
    ConfigurationError,
    Dataset,
    DivergenceError,
    EvaluationDomainError,
    GGNWeight,
    InvertedMatrix,
    ScalarField,
    SingularMatrixError,
    VectorMap,
    adam_stationary_flow,
    catalog,
    dataset_loss,
    default_recipe,
    fisher_matrix,
    ggn_matrix,
    gradient,
    gradient_flow,
    hessian,
    integrate,
    jacobian,
    linear_model,
    mlp_tanh,
    nesterov_flow,
    newton_flow,
    pullback_connection,
    pullback_loss,
    sample_diffeomorphism,
    state_order1,
    state_order2,
)
from equiflow.flows import fisher_weight
from conftest import (
    canonical_shear,
    counting,
    flat_connection,
    quadratic_loss,
    quadratic_model,
)

SPD = np.array([[2.0, 1.0], [1.0, 3.0]])


class TestGradientFlow:
    def test_sphere(self):
        flow = gradient_flow(quadratic_loss(np.eye(2)))
        out = flow(state_order1([3.0, 4.0]))
        assert np.allclose(out.dderivs[0], [-3.0, -4.0])

    def test_zero_at_critical_point(self):
        flow = gradient_flow(quadratic_loss(SPD))
        assert np.allclose(flow(state_order1([0.0, 0.0])).dderivs[0], 0.0)

    def test_general_quadratic(self):
        flow = gradient_flow(quadratic_loss(SPD))
        out = flow(state_order1([1.0, 0.0]))
        assert np.allclose(out.dderivs[0], [-2.0, -1.0])


class TestNesterovFlow:
    def test_rest_state_acceleration(self):
        flow = nesterov_flow(quadratic_loss(SPD))
        s = state_order2([1.0, 0.0], [0.0, 0.0], time=2.0)
        out = flow(s)
        assert np.allclose(out.dderivs[0], 0.0)
        assert np.allclose(out.dderivs[1], [-2.0, -1.0])

    def test_damping_cancels_gradient(self):
        flow = nesterov_flow(quadratic_loss(np.eye(1)))
        out = flow(state_order2([1.0], [-1.0], time=3.0))
        assert np.allclose(out.dderivs[1], [0.0])

    def test_large_time_at_minimum(self):
        flow = nesterov_flow(quadratic_loss(np.eye(1)))
        out = flow(state_order2([0.0], [0.0], time=1e6))
        assert np.allclose(out.dderivs[0], 0.0)
        assert np.allclose(out.dderivs[1], 0.0)

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigurationError):
            state_order2([1.0], [0.0], time=-1.0)


class TestAdamFlow:
    def test_sign_flow_limit(self):
        def fn(t):
            return 4.0 * t[0] - 9.0 * t[1]

        flow = adam_stationary_flow(ScalarField(2, fn), epsilon=1e-12)
        out = flow(state_order1([0.0, 0.0]))
        assert np.allclose(out.dderivs[0], [-1.0, 1.0], atol=1e-9)

    def test_zero_gradient_regularized(self):
        flow = adam_stationary_flow(quadratic_loss(np.eye(2)))
        assert np.allclose(flow(state_order1([0.0, 0.0])).dderivs[0], 0.0)

    def test_unit_epsilon(self):
        flow = adam_stationary_flow(ScalarField(1, lambda t: 1.0 * t[0]), epsilon=1.0)
        assert np.allclose(flow(state_order1([0.3])).dderivs[0], [-0.5])

    def test_epsilon_positive_required(self):
        with pytest.raises(ConfigurationError):
            adam_stationary_flow(quadratic_loss(np.eye(1)), epsilon=0.0)


class TestNewtonFlow:
    def test_quadratic_jumps_to_minimum(self):
        flow = newton_flow(quadratic_loss(SPD))
        out = flow(state_order1([1.0, 2.0]))
        assert np.allclose(out.dderivs[0], [-1.0, -2.0])

    def test_quartic(self):
        flow = newton_flow(ScalarField(1, lambda t: 0.25 * t[0] ** 4))
        out = flow(state_order1([1.0]))
        assert np.allclose(out.dderivs[0], [-1.0 / 3.0])

    def test_flat_connection_matches_plain(self):
        loss = quadratic_loss(SPD)
        plain = newton_flow(loss)
        covariant = newton_flow(loss, connection=flat_connection(2))
        s = state_order1([0.7, -0.4])
        assert np.array_equal(plain(s).dderivs[0], covariant(s).dderivs[0])

    def test_singular_hessian_reported(self):
        flow = newton_flow(ScalarField(1, lambda t: 0.25 * t[0] ** 4))
        with pytest.raises(SingularMatrixError) as info:
            flow(state_order1([0.0]))
        assert info.value.point is not None

    @pytest.mark.parametrize("covariant", [False, True], ids=["plain", "covariant"])
    def test_one_loss_pass_per_evaluation(self, covariant):
        model, data = default_recipe(4, seed=0)
        g = sample_diffeomorphism("shear", 4, np.random.default_rng(3))
        loss, calls = counting(pullback_loss(g, dataset_loss(model, data)))
        connection = pullback_connection(g) if covariant else None
        flow = newton_flow(loss, connection=connection)
        theta_bar = g.forward([0.3, -0.2, 0.5, 0.1])
        for evaluations, point in enumerate((g.forward([0.1, 0.4, -0.3, 0.2]), theta_bar), 1):
            flow(state_order1(point))
            assert len(calls) == evaluations
        calls.clear()
        matrix = flow.inverts(theta_bar).matrix  # the flow kept its last state's system
        assert len(calls) == 0
        want = hessian(loss, theta_bar)
        if covariant:
            gamma = connection.christoffel_at(theta_bar)
            want = want - np.einsum("kij,k->ij", gamma, gradient(loss, theta_bar))
        assert np.array_equal(matrix, want)


class TestFisherAndGgn:
    def test_fisher_linear_by_hand(self):
        model = linear_model(1, 1)
        data = Dataset([[2.0]], [[0.0]])
        form = fisher_matrix(model, data, 1.0, [0.5])
        assert np.allclose(form, [[4.0]])

    def test_zero_jacobian_gives_zero(self):
        model = quadratic_model(np.zeros((1, 2)))
        data = Dataset([[0.0]], [[1.0]])
        assert np.allclose(fisher_matrix(model, data, 2.0, [1.0, 1.0]), 0.0)

    def test_fisher_is_ggn_bit_identical(self):
        rng = np.random.default_rng(12)
        for trial in range(5):
            model = mlp_tanh(1, 1, 1) if trial % 2 else linear_model(3, 2)
            sigma2 = float(rng.uniform(0.3, 2.0))
            data = Dataset(
                rng.uniform(-1, 1, (4, model.in_dim)),
                rng.uniform(-1, 1, (4, model.out_dim)),
            )
            theta = rng.uniform(-1, 1, model.param_dim)
            fisher = fisher_matrix(model, data, sigma2, theta)
            ggn = ggn_matrix(model, data, GGNWeight(np.eye(model.out_dim) / sigma2), theta)
            assert np.array_equal(fisher, ggn)

    def test_ggn_outer_product(self):
        model = linear_model(2, 1)
        data = Dataset([[1.0, 1.0]], [[0.0]])
        form = ggn_matrix(model, data, GGNWeight(np.eye(1)), [0.0, 0.0])
        assert np.allclose(form, [[1.0, 1.0], [1.0, 1.0]])

    def test_zero_weight_gives_zero(self):
        model = linear_model(2, 1)
        data = Dataset([[1.0, 1.0]], [[0.0]])
        assert np.allclose(ggn_matrix(model, data, GGNWeight(np.zeros((1, 1))), [0.0, 0.0]), 0.0)

    def test_two_samples_average(self):
        model = linear_model(2, 1)
        data = Dataset([[1.0, 0.0], [0.0, 2.0]], [[0.0], [0.0]])
        form = ggn_matrix(model, data, GGNWeight(np.eye(1)), [0.0, 0.0])
        want = (np.outer([1, 0], [1, 0]) + np.outer([0, 2], [0, 2])) / 2
        assert np.allclose(form, want)

    def test_weight_shape_mismatch(self):
        model = linear_model(2, 1)
        data = Dataset([[1.0, 0.0]], [[0.0]])
        with pytest.raises(ConfigurationError):
            ggn_matrix(model, data, GGNWeight(np.eye(2)), [0.0, 0.0])

    def test_dataset_dims_mismatch_reads_as_the_loss_refusal(self):
        model = linear_model(2, 1)
        data = Dataset([[1.0], [0.5]], [[0.0], [1.0]])
        with pytest.raises(ConfigurationError) as loss_refusal:
            dataset_loss(model, data)
        with pytest.raises(ConfigurationError) as ggn_refusal:
            ggn_matrix(model, data, GGNWeight(np.eye(1)), [0.0, 0.0])
        assert str(ggn_refusal.value) == str(loss_refusal.value)
        assert str(ggn_refusal.value) == "dataset dims 1->1 do not match model dims 2->1"


class TestGgnWeight:
    """A `GGNWeight` is checked once, when it is made; `ggn_matrix` takes
    nothing else, and `fisher_weight` is the one maker of the Fisher weight."""

    @pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
    def test_non_finite_weight_refused(self, bad):
        model = linear_model(2, 1)
        data = Dataset([[1.0, 0.0]], [[0.0]])
        with pytest.raises(ConfigurationError, match="^GGN weight must be finite"):
            GGNWeight([[bad]])
        with pytest.raises(ConfigurationError, match="^GGN weight must be finite"):
            ggn_matrix(model, data, GGNWeight([[bad]]), [0.0, 0.0])

    @pytest.mark.parametrize(
        "weight, message",
        [
            ([1.0, 2.0], "GGN weight shape (2,) is not square"),
            ([[1.0, 2.0]], "GGN weight shape (1, 2) is not square"),
            ([[1.0, 0.5], [0.0, 1.0]], "GGN weight must be symmetric positive semidefinite"),
            ([[1.0, 0.0], [0.0, -1.0]], "GGN weight must be symmetric positive semidefinite"),
        ],
    )
    def test_malformed_weight_refused_when_made(self, weight, message):
        with pytest.raises(ConfigurationError) as refusal:
            GGNWeight(weight)
        assert str(refusal.value) == message

    def test_weight_is_a_read_only_copy(self):
        source = np.array([[2.0, 1.0], [1.0, 2.0]])
        weight = GGNWeight(source)
        source[0, 0] = 5.0
        assert weight.matrix[0, 0] == 2.0
        with pytest.raises(ValueError):
            weight.matrix[0, 0] = 3.0

    @pytest.mark.parametrize("family", (None, "affine", "shear"))
    def test_checked_weight_gives_the_array_form(self, family):
        model, data = default_recipe(4, seed=0, kind="mlp-tanh")
        point = np.array([0.3, -0.2, 0.5, 0.1])
        chart = None
        if family is not None:
            g = catalog(family, 4, seed=2)
            point, chart = g.forward(point), g.inverse_map
        array = np.eye(1) / 0.5
        got = ggn_matrix(model, data, GGNWeight(array), point, chart)
        assert got.tobytes() == loop_ggn(model, data, array, point, chart).tobytes()
        assert got.tobytes() == fisher_matrix(model, data, 0.5, point, chart).tobytes()

    def test_checked_weight_must_match_the_outputs(self):
        model = linear_model(2, 1)
        data = Dataset([[1.0, 0.0]], [[0.0]])
        with pytest.raises(ConfigurationError, match=r"^GGN weight shape \(2, 2\) does not match"):
            ggn_matrix(model, data, GGNWeight(np.eye(2)), [0.0, 0.0])

    @pytest.mark.parametrize("weight", (np.eye(1), [[1.0]]), ids=("ndarray", "list"))
    def test_plain_array_refused(self, weight):
        model = linear_model(2, 1)
        data = Dataset([[1.0, 0.0]], [[0.0]])
        with pytest.raises(ConfigurationError) as refusal:
            ggn_matrix(model, data, weight, [0.0, 0.0])
        assert str(refusal.value) == f"GGN weight must be a GGNWeight, got {type(weight).__name__}"

    @pytest.mark.parametrize("out_dim, variance", [(1, 0.5), (3, 0.3), (2, 7)])
    def test_fisher_weight_is_the_scaled_identity(self, out_dim, variance):
        weight = fisher_weight(out_dim, variance)
        assert weight.matrix.tobytes() == (np.eye(out_dim) / variance).tobytes()

    @pytest.mark.parametrize(
        "value, message",
        [
            (0.0, "must be positive and finite, got 0.0"),
            (np.nan, "must be positive and finite, got nan"),
            (np.inf, "must be positive and finite, got inf"),
            ("x", "must be positive and finite, got 'x'"),
            (10**400, "must be positive and finite, got 1000"),
            (1e-320, "must have a finite reciprocal, got 1e-320"),
            (np.float64(1e-320), "must have a finite reciprocal, got np.float64(1e-320)"),
            (Fraction(1, 10**400), "must have a finite reciprocal, got Fraction(1, 1000"),
        ],
        ids=["zero", "nan", "inf", "x", "ten-to-the-400", "1e-320", "float64-1e-320", "fraction"],
    )
    def test_fisher_weight_refuses_the_noise_variance(self, value, message):
        # I / 1e-320 overflows, and 1e-400 reads as the float 0.0: each is refused
        # by name before anything divides, so no warning and no ZeroDivisionError
        with warnings.catch_warnings(), pytest.raises(ConfigurationError) as refusal:
            warnings.simplefilter("error")
            fisher_weight(1, value)
        assert str(refusal.value).startswith(f"noise variance {message}")

    def test_an_overflowing_form_is_refused_by_name(self):
        # I / 6e-309 is finite, but J^T (M J) overflows where an input entry
        # exceeds about 1: refused by name, with no RuntimeWarning
        model, data = default_recipe(2, seed=0)
        weight = fisher_weight(1, 6e-309)
        with pytest.raises(EvaluationDomainError) as refusal:
            ggn_matrix(model, data, weight, [0.5, -0.5])
        assert str(refusal.value) == "GGN form of linear non-finite at [ 0.5 -0.5]"
        small = Dataset(data.inputs * 1e-3, data.targets)
        assert np.all(np.isfinite(ggn_matrix(model, small, weight, [0.5, -0.5])))


def loop_ggn(model, data, weight, theta, chart=None):
    """The GGN built one sample at a time: each sample's Jacobian J_k of
    theta -> forward(x_k, theta), or of theta_bar -> forward(x_k, chart(theta_bar)),
    from its own seeds, and total = total + J_k^T (M J_k) from zeros in index order."""
    total = np.zeros((model.param_dim, model.param_dim))
    for x in data.inputs:
        fn = lambda t, x=x: model.forward(x, t if chart is None else chart.fn(t))
        jac = jacobian(VectorMap(model.param_dim, model.out_dim, fn), theta)
        total = total + jac.T @ (weight @ jac)
    out = total / data.size
    return 0.5 * (out + out.T)


def per_sample_ggn(model, data, weight, g, theta_bar):
    """The barred GGN built one sample at a time, through g^-1."""
    return loop_ggn(model, data, weight, theta_bar, g.inverse_map)


class TestGgnContraction:
    @pytest.mark.parametrize("family", (None, "affine", "shear"))
    @pytest.mark.parametrize("out_dim", (1, 2))
    @pytest.mark.parametrize("kind", ("linear", "mlp-tanh"))
    def test_stacked_form_is_the_sample_loop(self, kind, out_dim, family):
        # one stacked product reduced from zero in sample order adds the same
        # products in the same order as the loop
        model = linear_model(2, out_dim) if kind == "linear" else mlp_tanh(1, 2, out_dim)
        rng = np.random.default_rng([out_dim, len(kind)])
        data = Dataset(rng.uniform(-1, 1, (6, model.in_dim)), rng.uniform(-1, 1, (6, out_dim)))
        factor = rng.normal(size=(out_dim, out_dim))
        weight = factor @ factor.T
        point = rng.uniform(-1.5, 1.5, model.param_dim)
        chart = None
        if family is not None:
            g = catalog(family, model.param_dim, seed=4)
            point, chart = g.forward(point), g.inverse_map
        got = ggn_matrix(model, data, GGNWeight(weight), point, chart)
        want = loop_ggn(model, data, weight, point, chart)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestGgnChart:
    @pytest.mark.parametrize("kind", ("linear", "mlp-tanh"))
    @pytest.mark.parametrize("family", FAMILIES)
    def test_barred_ggn_equals_per_sample_jacobians(self, kind, family):
        model, data = default_recipe(4, seed=0, kind=kind)
        rng = np.random.default_rng([7, FAMILIES.index(family)])
        g = sample_diffeomorphism(family, 4, rng)
        theta_bar = g.forward(rng.uniform(-1.5, 1.5, 4))
        weight = np.diag(rng.uniform(0.5, 2.0, model.out_dim))
        got = ggn_matrix(model, data, GGNWeight(weight), theta_bar, chart=g.inverse_map)
        assert np.array_equal(got, per_sample_ggn(model, data, weight, g, theta_bar))

    @pytest.mark.parametrize("size", (1, 4, 8))
    def test_chart_applied_once_per_call(self, size):
        model = mlp_tanh(1, 1, 1)
        rng = np.random.default_rng(size)
        data = Dataset(rng.uniform(-1, 1, (size, 1)), rng.uniform(-1, 1, (size, 1)))
        g = canonical_shear(0.5, dim=4)
        calls = []
        chart = VectorMap(4, 4, lambda tbar: calls.append(1) or g.inverse_map.fn(tbar))
        theta_bar = g.forward([0.3, -0.2, 0.8, 0.1])
        form = ggn_matrix(model, data, GGNWeight(np.eye(1)), theta_bar, chart=chart)
        assert len(calls) == 1
        assert np.array_equal(form, per_sample_ggn(model, data, np.eye(1), g, theta_bar))

    def test_fisher_takes_the_chart(self):
        model, data = default_recipe(4, seed=0, kind="mlp-tanh")
        g = canonical_shear(0.5, dim=4)
        theta_bar = g.forward([0.3, -0.2, 0.8, 0.1])
        fisher = fisher_matrix(model, data, 0.5, theta_bar, chart=g.inverse_map)
        ggn = ggn_matrix(model, data, GGNWeight(np.eye(1) / 0.5), theta_bar, chart=g.inverse_map)
        assert np.array_equal(fisher, ggn)

    def test_chart_dimension_mismatch(self):
        model, data = default_recipe(4, seed=0)
        with pytest.raises(ConfigurationError):
            ggn_matrix(
                model, data, GGNWeight(np.eye(1)), np.zeros(4), chart=canonical_shear(0.5).inverse_map
            )


class TestFormContract:
    """`ggn_matrix` and `fisher_matrix` give the symmetric float (n, n) array a
    preconditioned flow inverts; a flow refuses a malformed form before its SVD."""

    @staticmethod
    def forms(kind):
        """(loss, GGN, Fisher) at one point in the base chart and under one map per family."""
        model, data = default_recipe(4, seed=0, kind=kind)
        loss = dataset_loss(model, data)
        rng = np.random.default_rng(9)
        for g in [None] + [sample_diffeomorphism(f, 4, rng) for f in FAMILIES]:
            point = rng.uniform(-1.5, 1.5, 4)
            chart, chart_loss = None, loss
            if g is not None:
                point, chart, chart_loss = g.forward(point), g.inverse_map, pullback_loss(g, loss)
            yield (
                chart_loss,
                ggn_matrix(model, data, GGNWeight(np.eye(1)), point, chart),
                fisher_matrix(model, data, 0.5, point, chart),
            )

    @pytest.mark.parametrize("kind", ("linear", "mlp-tanh"))
    def test_forms_are_symmetric_float_arrays(self, kind):
        for _, ggn, fisher in self.forms(kind):
            for form in (ggn, fisher):
                assert type(form) is np.ndarray
                assert form.dtype == np.float64 and form.shape == (4, 4)
                assert np.array_equal(form, form.T)

    @pytest.mark.parametrize("kind", ("linear", "mlp-tanh"))
    def test_malformed_forms_refused(self, kind):
        theta = np.array([0.3, -0.2, 0.5, 0.1])
        for loss, ggn, _ in self.forms(kind):
            skewed = ggn.copy()
            skewed[0, 1] += 1e-6
            nearly = ggn.copy()
            nearly[0, 1] += 1e-10
            for flow, state in (
                (gradient_flow, state_order1(theta)),
                (nesterov_flow, state_order2(theta, -theta, time=1.0)),
            ):
                for bad in (ggn[:, :3], ggn[:3], ggn[:3, :3], skewed):
                    with pytest.raises(ConfigurationError, match="preconditioner"):
                        flow(loss, lambda t: bad)(state)
                flow(loss, lambda t: nearly)(state)


class TestPreconditionedFlow:
    def test_identity_reduces_to_gradient_flow(self):
        loss = quadratic_loss(SPD)
        plain = gradient_flow(loss)
        precond = gradient_flow(loss, lambda t: np.eye(2))
        for theta in ([0.3, -0.9], [1.5, 0.2]):
            s = state_order1(theta)
            assert np.max(np.abs(plain(s).dderivs[0] - precond(s).dderivs[0])) <= 1e-15

    def test_scalar_by_hand(self):
        loss = ScalarField(1, lambda t: 8.0 * t[0])
        flow = gradient_flow(loss, lambda t: np.array([[4.0]]))
        assert np.allclose(flow(state_order1([0.0])).dderivs[0], [-2.0])

    def test_hessian_preconditioner_matches_newton(self):
        loss = quadratic_loss(SPD)
        newton = newton_flow(loss)
        precond = gradient_flow(loss, lambda t: hessian(loss, t))
        rng = np.random.default_rng(13)
        for _ in range(5):
            s = state_order1(rng.uniform(-2, 2, 2))
            assert np.max(np.abs(newton(s).dderivs[0] - precond(s).dderivs[0])) <= 1e-10

    def test_rank_deficient_flagged_not_raised(self):
        loss = quadratic_loss(np.eye(2))
        singular = np.array([[1.0, 0.0], [0.0, 0.0]])
        flow = gradient_flow(loss, lambda t: singular)
        out = flow(state_order1([1.0, 1.0]))
        assert flow.metadata.get("pinv_cutoff_points") == 1
        assert np.allclose(out.dderivs[0], [-1.0, 0.0])


class TestInvertedMatrix:
    """One SVD per matrix gives the pseudo-inverse's factors and the condition number."""

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(st.integers(1, 8), st.integers(0, 2**32 - 1))
    def test_condition_is_numpys(self, dim, seed):
        b = np.random.default_rng(seed).uniform(-1.0, 1.0, (dim, dim))
        spd = b @ b.T + np.eye(dim)
        inverted = InvertedMatrix(spd)
        assert inverted.condition == pytest.approx(np.linalg.cond(spd), rel=1e-12)
        assert not inverted.truncated

    @pytest.mark.parametrize("singular", [np.zeros((2, 2)), np.diag([1.0, 0.0])])
    def test_singular_matrix_has_infinite_condition(self, singular):
        inverted = InvertedMatrix(singular.copy())
        assert inverted.condition == np.inf == np.linalg.cond(singular)
        assert inverted.truncated

    def test_matrix_is_kept_read_only_without_a_copy(self):
        matrix = SPD.copy()
        inverted = InvertedMatrix(matrix)
        assert inverted.matrix is matrix
        with pytest.raises(ValueError):
            matrix[0, 0] = 1.0

    def test_a_flow_call_and_inverts_at_one_theta_evaluate_the_metric_once(self):
        calls = []
        flow = gradient_flow(quadratic_loss(SPD), lambda t: calls.append(1) or SPD)
        theta = np.array([0.3, -0.2])
        flow(state_order1(theta))
        inverted = flow.inverts(theta)
        assert len(calls) == 1 and np.array_equal(inverted.matrix, SPD)
        flow.inverts(np.array([0.3, -0.25]))
        assert len(calls) == 2

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_metric_is_refused_with_its_point(self, bad):
        # NaN reached the SVD as numpy's raw LinAlgError; inf gave a RuntimeWarning
        # and a zero velocity
        flow = gradient_flow(quadratic_loss(SPD), lambda t: np.array([[bad, 0.0], [0.0, 1.0]]))
        theta = np.array([0.3, -0.2])
        message = r"^preconditioner non-finite at \[ 0.3 -0.2\]"
        with pytest.raises(EvaluationDomainError, match=message):
            flow(state_order1(theta))
        with pytest.raises(DivergenceError, match="preconditioner non-finite") as info:
            integrate(flow, state_order1(theta), 0.1, 3)
        assert info.value.step_index == 0

    @pytest.mark.parametrize(
        "shape", [(3,), (2, 3), (0, 0), (), (2, 2, 2)], ids=["1-D", "2x3", "empty", "0-D", "3-D"]
    )
    def test_a_matrix_that_is_not_square_is_refused(self, shape):
        # a 1-D array raised numpy's raw LinAlgError; a 2 x 3 matrix was accepted
        with pytest.raises(ConfigurationError, match=r"^inverted matrix shape .* is not \(n, n\)"):
            InvertedMatrix(np.ones(shape))

    def test_a_plain_metric_array_is_factored_from_a_copy(self):
        # the flow's factored matrix is read-only; the field's own array stays writable
        form = SPD.copy()
        flow = gradient_flow(quadratic_loss(SPD), lambda t: form)
        inverted = flow.inverts(np.array([0.3, -0.2]))
        assert np.array_equal(inverted.matrix, form) and inverted.matrix is not form
        form[0, 0] = 5.0


class TestAcceleratedFlow:
    def test_identity_reduces_to_nesterov(self):
        loss = quadratic_loss(SPD)
        nag = nesterov_flow(loss)
        acc = nesterov_flow(loss, lambda t: np.eye(2), r=3.0)
        s = state_order2([0.4, -0.2], [1.0, 0.5], time=0.8)
        assert np.max(np.abs(nag(s).as_vector() - acc(s).as_vector())) <= 1e-15

    def test_rest_state_matches_preconditioned(self):
        loss = quadratic_loss(SPD)
        precond = lambda t: hessian(loss, t)
        first = gradient_flow(loss, precond)
        second = nesterov_flow(loss, precond, r=3.0)
        theta = [0.9, -0.3]
        s2 = state_order2(theta, [0.0, 0.0], time=5.0)
        accel = second(s2).dderivs[1]
        step = first(state_order1(theta)).dderivs[0]
        assert np.allclose(accel, step)

    def test_scalar_by_hand(self):
        loss = ScalarField(1, lambda t: 8.0 * t[0])
        flow = nesterov_flow(loss, lambda t: np.array([[4.0]]), r=3.0)
        out = flow(state_order2([0.0], [1.0], time=1.0))
        assert np.allclose(out.dderivs[1], [-5.0])

    def test_positive_r_required(self):
        with pytest.raises(ConfigurationError):
            nesterov_flow(quadratic_loss(np.eye(1)), lambda t: np.eye(1), r=0.0)
        with pytest.raises(ConfigurationError):
            nesterov_flow(quadratic_loss(np.eye(1)), r=0.0)


class TestFlowInvariants:
    def test_order1_flows_vanish_at_minimum(self):
        loss = quadratic_loss(SPD)
        model = linear_model(2, 1)
        data = Dataset([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [[0.0], [0.0], [0.0]])
        from equiflow import dataset_loss

        mse = dataset_loss(model, data)  # minimum at theta = 0
        flows = [
            gradient_flow(loss),
            adam_stationary_flow(loss),
            newton_flow(loss),
            gradient_flow(mse, lambda t: fisher_matrix(model, data, 1.0, t)),
        ]
        for flow in flows[:3]:
            assert np.linalg.norm(flow(state_order1([0.0, 0.0])).dderivs[0]) <= 1e-8
        assert np.linalg.norm(flows[3](state_order1([0.0, 0.0])).dderivs[0]) <= 1e-8

    def test_gradient_flow_monotone_on_quadratic(self):
        loss = quadratic_loss(SPD)
        traj = integrate(gradient_flow(loss), state_order1([1.5, -1.0]), 0.01, 200, "rk4")
        values = [loss.value(s.theta) for s in traj.states]
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))

    def test_state_order_mismatch_rejected(self):
        flow = gradient_flow(quadratic_loss(np.eye(2)))
        with pytest.raises(ConfigurationError):
            flow(state_order2([0.0, 0.0], [1.0, 1.0], time=0.1))
