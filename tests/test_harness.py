import warnings

import numpy as np
import pytest

import equiflow.diffcalc
import equiflow.flows
import equiflow.harness
from equiflow import (
    ALGORITHMS,
    FAMILIES,
    ConfigurationError,
    Dataset,
    FlowBuilder,
    GGNWeight,
    ScalarField,
    SingularMatrixError,
    ToleranceGapError,
    affine_diffeomorphism,
    catalog,
    classify_equivariance,
    compose,
    dataset_loss,
    default_flow_builder,
    default_recipe,
    expected_verdict,
    fisher_matrix,
    ggn_matrix,
    gradient,
    gradient_and_hessian,
    hessian,
    linear_model,
    naturality_residual,
    nesterov_flow,
    newton_flow,
    pullback_connection,
    pullback_loss,
    render_reports_text,
    render_table_text,
    reproduce_table,
    sample_diffeomorphism,
    state_order1,
    state_order2,
    synthetic_dataset,
)
from equiflow.geometry import FAMILY_ROWS, GROUPS
from equiflow.harness import FLOW_RECIPES, trial_rng
from conftest import identity, quadratic_loss


class TestNaturalityResidual:
    def test_gradient_descent_hand_value(self):
        builder = FlowBuilder("gd", quadratic_loss(np.eye(1)))
        g = affine_diffeomorphism([[2.0]])
        residual = naturality_residual(builder, g, state_order1([1.0]))
        assert abs(residual - 1.5) <= 1e-9

    def test_identity_residual_vanishes(self):
        loss = quadratic_loss(np.array([[2.0, 1.0], [1.0, 3.0]]))
        g = identity(2)
        for algorithm in ("gd", "adam", "newton"):
            builder = FlowBuilder(algorithm, loss)
            residual = naturality_residual(builder, g, state_order1([0.7, -0.3]))
            assert residual <= 1e-12, algorithm
        builder = FlowBuilder("nesterov", loss)
        s = state_order2([0.7, -0.3], [0.2, 0.4], time=1.0)
        assert naturality_residual(builder, g, s) <= 1e-12

    def test_euclidean_keeps_gradient_flow(self):
        builder = default_flow_builder("gd", 4, seed=0)
        g = sample_diffeomorphism("euclidean", 4, np.random.default_rng(1))
        residual = naturality_residual(builder, g, state_order1([0.4, -0.2, 0.8, 0.1]))
        assert residual <= 1e-9

    def test_shear_keeps_preconditioned_flows(self):
        g = sample_diffeomorphism("shear", 4, np.random.default_rng(2))
        state = state_order1([0.4, -0.2, 0.8, 0.1])
        for algorithm in ("ngd", "ggn"):
            builder = default_flow_builder(algorithm, 4, seed=0)
            assert naturality_residual(builder, g, state) <= 1e-7, algorithm

    def test_composition_subadditive_for_equivariant_pair(self):
        builder = default_flow_builder("gd", 3, seed=0)
        rng = np.random.default_rng(3)
        g1 = sample_diffeomorphism("euclidean", 3, rng)
        g2 = sample_diffeomorphism("euclidean", 3, rng)
        state = state_order1([0.5, -0.5, 0.2])
        r1 = naturality_residual(builder, g1, state)
        r2 = naturality_residual(builder, g2, state)
        r12 = naturality_residual(builder, compose(g2, g1), state)
        assert r12 <= r1 + r2 + 1e-9

    def test_adam_inverse_scaling_violation(self):
        # theta_bar = theta / gamma with gamma = 2: 0.5 per active component
        loss = quadratic_loss(np.eye(1))
        builder = FlowBuilder("adam", loss)
        g = affine_diffeomorphism([[0.5]])
        residual = naturality_residual(builder, g, state_order1([1.0]))
        assert abs(residual - 0.5) <= 1e-3
        loss2 = quadratic_loss(np.eye(2))
        builder2 = FlowBuilder("adam", loss2)
        g2 = affine_diffeomorphism(0.5 * np.eye(2))
        residual2 = naturality_residual(builder2, g2, state_order1([1.0, -1.0]))
        assert abs(residual2 - 0.5 * np.sqrt(2)) <= 1e-3

    def test_singularity_tagged_with_chart(self):
        quartic = ScalarField(1, lambda t: 0.25 * t[0] ** 4)
        builder = FlowBuilder("newton", quartic)
        g = affine_diffeomorphism([[2.0]])
        with pytest.raises(SingularMatrixError, match="base chart"):
            naturality_residual(builder, g, state_order1([0.0]))


class TestFlowBuilderValidation:
    def test_unknown_algorithm(self):
        with pytest.raises(ConfigurationError):
            FlowBuilder("sgd", quadratic_loss(np.eye(1)))

    def test_preconditioned_needs_model(self):
        with pytest.raises(ConfigurationError):
            FlowBuilder("ngd", quadratic_loss(np.eye(2)))

    @pytest.mark.parametrize("algorithm", ["ngd", "nngd"])
    def test_fisher_needs_a_positive_noise_variance(self, algorithm):
        model, data = default_recipe(2, seed=0)
        with pytest.raises(ConfigurationError, match="noise variance must be positive"):
            FlowBuilder(
                algorithm, dataset_loss(model, data), model=model, data=data, noise_variance=0.0
            )

    @pytest.mark.parametrize("value", [1e-320, np.float64(1e-320)], ids=["float", "float64"])
    @pytest.mark.parametrize("algorithm", ["ngd", "nngd"])
    def test_fisher_refuses_a_variance_with_no_finite_reciprocal(self, algorithm, value):
        # I / noise_variance used to overflow with a RuntimeWarning and be refused
        # as "GGN weight must be finite, got [[inf]]"
        model, data = default_recipe(2, seed=0)
        with warnings.catch_warnings(), pytest.raises(ConfigurationError) as refusal:
            warnings.simplefilter("error")
            FlowBuilder(
                algorithm, dataset_loss(model, data), model=model, data=data, noise_variance=value
            )
        assert str(refusal.value) == f"noise variance must have a finite reciprocal, got {value!r}"

    @pytest.mark.parametrize(
        "value", [np.nan, np.inf, "x", pytest.param(10**400, id="ten-to-the-400")]
    )
    @pytest.mark.parametrize(
        "algorithm, setting, what",
        [
            ("ngd", "noise_variance", "noise variance"),
            ("nngd", "r", "damping constant r"),
            ("adam", "epsilon", "adam epsilon"),
        ],
        ids=["noise_variance", "r", "epsilon"],
    )
    def test_non_finite_setting_refused(self, algorithm, setting, what, value):
        # NaN noise variance used to reach the SVD, an infinite one or an infinite
        # epsilon gave a zero flow, "x" raised a raw TypeError, and 10**400 a raw
        # OverflowError at the first evaluation
        model, data = default_recipe(2, seed=0)
        with pytest.raises(ConfigurationError, match=f"^{what} must be positive"):
            FlowBuilder(
                algorithm, dataset_loss(model, data), model=model, data=data, **{setting: value}
            ).build()

    def test_building_twice_is_identical(self):
        from equiflow import pushforward_state

        builder = default_flow_builder("ngd", 2, seed=0)
        g = sample_diffeomorphism("shear", 2, np.random.default_rng(4))
        state = pushforward_state(g, state_order1([0.3, 0.8]))
        a = builder.build(g)(state)
        b = builder.build(g)(state)
        assert np.array_equal(a.as_vector(), b.as_vector())


class TestInvertedMatrix:
    """The conditioning pre-check reads the matrix each flow inverts."""

    @pytest.mark.parametrize("kind", ["linear", "mlp-tanh"])
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_each_algorithm_in_each_chart(self, algorithm, kind):
        builder = default_flow_builder(algorithm, 4, seed=0, kind=kind)
        model, data = builder.model, builder.data
        rng = np.random.default_rng(8)
        for g in [None] + [sample_diffeomorphism(f, 4, rng) for f in FAMILIES]:
            theta = rng.uniform(-1.0, 1.0, size=4)
            point = theta if g is None else g.forward(theta)
            loss = builder.loss if g is None else pullback_loss(g, builder.loss)
            matrix_fn = builder.inverted_matrix_fn(g)
            if algorithm in ("gd", "nesterov", "adam"):
                assert matrix_fn is None
                continue
            if algorithm in ("newton", "newton-covariant"):
                want = hessian(loss, point)
                # a None connection is flat: the affine charts' Hessian stays as it is
                connection = None if g is None else pullback_connection(g)
                if algorithm == "newton-covariant" and connection is not None:
                    gamma = connection.christoffel_at(point)
                    want = want - np.einsum("kij,k->ij", gamma, gradient(loss, point))
                flow = builder.build(g)
                velocity = flow(state_order1(point)).dderivs[0]
                step = np.linalg.solve(flow.inverts(point), gradient(loss, point))
                assert np.array_equal(velocity, -step)
            else:
                chart = None if g is None else g.inverse_map
                if algorithm in ("ngd", "nngd"):
                    want = fisher_matrix(model, data, builder.noise_variance, point, chart)
                else:
                    want = ggn_matrix(model, data, GGNWeight(np.eye(model.out_dim)), point, chart)
            assert np.array_equal(matrix_fn(point), want), "base" if g is None else g.family


class TestSharedForm:
    """The pre-check and the flow share one Fisher/GGN evaluation per state and chart."""

    @staticmethod
    def count_forms(monkeypatch) -> list:
        # every binding the builder's Fisher and GGN forms reach
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return ggn_matrix(*args, **kwargs)

        monkeypatch.setattr(equiflow.flows, "ggn_matrix", counted)
        monkeypatch.setattr(equiflow.harness, "ggn_matrix", counted)
        return calls

    @staticmethod
    def fresh(builder, theta, g):
        chart = None if g is None else g.inverse_map
        if builder.algorithm in ("ngd", "nngd"):
            return fisher_matrix(builder.model, builder.data, builder.noise_variance, theta, chart)
        return ggn_matrix(builder.model, builder.data, GGNWeight(np.eye(1)), theta, chart)

    @pytest.mark.parametrize("algorithm", ["ngd", "agn"])
    def test_one_evaluation_per_state_and_chart(self, algorithm, monkeypatch):
        calls = self.count_forms(monkeypatch)
        builder = default_flow_builder(algorithm, 2, seed=0)
        classify_equivariance(
            builder, families=("shear",), trials_per_family=1, states_per_trial=2, seed=0
        )
        assert len(calls) == 2 * 2  # (base + barred) x states

    @pytest.mark.parametrize("algorithm", ["ngd", "agn"])
    def test_new_point_chart_or_builder_recomputes(self, algorithm, monkeypatch):
        builder = default_flow_builder(algorithm, 2, seed=0)
        rng = np.random.default_rng(9)
        g, other = (sample_diffeomorphism("shear", 2, rng) for _ in range(2))
        theta, moved = np.array([0.3, -0.2]), np.array([0.5, 0.1])
        asks = [
            (builder, moved, g),  # a different theta
            (builder, moved, other),  # a different chart object at the same theta
            (default_flow_builder(algorithm, 2, seed=0), moved, other),  # a second builder
        ]
        wants = [self.fresh(owner, point, chart) for owner, point, chart in asks]

        calls = self.count_forms(monkeypatch)
        first = builder.inverted_matrix_fn(g)(theta)
        assert builder.build(g).inverts(theta) is first and len(calls) == 1
        for count, (owner, point, chart), want in zip((2, 3, 4), asks, wants):
            assert np.array_equal(owner.inverted_matrix_fn(chart)(point), want)
            assert len(calls) == count

    @pytest.mark.parametrize("algorithm", ["ngd", "ggn", "nngd", "agn"])
    def test_builder_checks_its_weight_once(self, algorithm, monkeypatch):
        # the weight's PSD test runs when the builder is made, not once per form
        checks = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: checks.append(1) or eigvalsh(a))
        builder = default_flow_builder(algorithm, 2, seed=0)
        forms = self.count_forms(monkeypatch)
        classify_equivariance(
            builder, families=("affine", "shear"), trials_per_family=2, states_per_trial=2, seed=0
        )
        assert len(forms) >= 2 * 2 * 2 * 2  # (base + barred) x families x trials x states
        assert len(checks) == 1

    def test_shared_form_is_read_only(self):
        builder = default_flow_builder("ggn", 2, seed=0)
        form = builder.inverted_matrix_fn(None)(np.array([0.3, -0.2]))
        with pytest.raises(ValueError):
            form[0, 0] = 1.0


class TestSharedNewtonSystem:
    """The pre-check and the flow share one gradient-and-Hessian pass per state and chart."""

    @staticmethod
    def count_passes(monkeypatch) -> list:
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return gradient_and_hessian(*args, **kwargs)

        monkeypatch.setattr(equiflow.diffcalc, "gradient_and_hessian", counted)
        return calls

    @staticmethod
    def fresh(builder, theta, g):
        loss = builder.loss if g is None else pullback_loss(g, builder.loss)
        covariant = builder.algorithm == "newton-covariant" and g is not None
        connection = pullback_connection(g) if covariant else None
        return newton_flow(loss, connection=connection).inverts(theta)

    @pytest.mark.parametrize("algorithm", ["newton", "newton-covariant"])
    def test_one_pass_per_state_and_chart(self, algorithm, monkeypatch):
        calls = self.count_passes(monkeypatch)
        builder = default_flow_builder(algorithm, 2, seed=0)
        classify_equivariance(
            builder, families=("shear",), trials_per_family=1, states_per_trial=2, seed=0
        )
        assert len(calls) == 2 * 2  # (base + barred) x states

    @pytest.mark.parametrize("algorithm", ["newton", "newton-covariant"])
    def test_new_point_chart_or_builder_recomputes(self, algorithm, monkeypatch):
        builder = default_flow_builder(algorithm, 2, seed=0)
        rng = np.random.default_rng(9)
        g, other = (sample_diffeomorphism("shear", 2, rng) for _ in range(2))
        theta, moved = np.array([0.3, -0.2]), np.array([0.5, 0.1])
        asks = [
            (builder, moved, g),  # a different theta
            (builder, moved, other),  # a different chart object at the same theta
            (default_flow_builder(algorithm, 2, seed=0), moved, other),  # a second builder
        ]
        wants = [self.fresh(owner, point, chart) for owner, point, chart in asks]

        calls = self.count_passes(monkeypatch)
        first = builder.inverted_matrix_fn(g)(theta)
        assert builder.build(g).inverts(theta) is first and len(calls) == 1
        for count, (owner, point, chart), want in zip((2, 3, 4), asks, wants):
            assert np.array_equal(owner.inverted_matrix_fn(chart)(point), want)
            assert len(calls) == count

    def test_shared_gradient_and_matrix_are_read_only(self, monkeypatch):
        kept = []

        def keep(*args, **kwargs):
            kept.append(gradient_and_hessian(*args, **kwargs))
            return kept[-1]

        monkeypatch.setattr(equiflow.diffcalc, "gradient_and_hessian", keep)
        builder = default_flow_builder("newton", 2, seed=0)
        matrix = builder.inverted_matrix_fn(None)(np.array([0.3, -0.2]))
        [(grad, hess)] = kept
        assert hess is matrix
        for array in (grad, matrix):
            with pytest.raises(ValueError):
                array[0] = 1.0


class TestFlowName:
    """A built flow carries its builder's algorithm, whichever constructor made it."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_flow_names_its_algorithm(self, algorithm):
        builder = default_flow_builder(algorithm, 2, seed=0)
        g = sample_diffeomorphism("shear", 2, np.random.default_rng(4))
        for flow in (builder.build(), builder.build(g)):
            assert flow.algorithm == algorithm
            if flow.order == 1:
                wrong = state_order2([0.1, 0.2], [1.0, 0.0], time=1.0)
            else:
                wrong = state_order1([0.1, 0.2])
            with pytest.raises(ConfigurationError, match=f"^{algorithm} flow has order"):
                flow(wrong)

    def test_renamed_flow_keeps_its_metadata(self):
        # a rank-1 GGN: the pseudo-inverse cutoff fires and is recorded
        model = linear_model(2, 1)
        data = Dataset([[1.0, 1.0]], [[0.0]])
        flow = FlowBuilder("ggn", dataset_loss(model, data), model=model, data=data).build()
        flow(state_order1([0.3, 0.1]))
        assert flow.metadata["pinv_cutoff_points"] == 1


class TestDamping:
    """A builder's r damps nesterov as it damps nngd and agn."""

    @staticmethod
    def builder(algorithm):
        model, data = default_recipe(2, seed=0)
        return FlowBuilder(algorithm, dataset_loss(model, data), model=model, data=data, r=5.0)

    def test_builder_r_damps_nesterov(self):
        builder = self.builder("nesterov")
        state = state_order2([0.3, -0.2], [1.0, 0.5], time=0.8)
        accel = builder.build()(state).dderivs[1]
        want = -(5.0 / 0.8) * state.velocity - gradient(builder.loss, state.theta)
        assert np.array_equal(accel, want)

    def test_nngd_is_nesterov_in_the_fisher_metric(self):
        builder = self.builder("nngd")
        model, data, variance = builder.model, builder.data, builder.noise_variance
        flow = nesterov_flow(
            builder.loss, lambda theta: fisher_matrix(model, data, variance, theta), r=5.0
        )
        state = state_order2([0.3, -0.2], [1.0, 0.5], time=0.8)
        assert np.array_equal(builder.build()(state).as_vector(), flow(state).as_vector())


class TestAlgorithmTable:
    """`trial_rng` indexes algorithms by their order, so every residual rests on it."""

    def test_order_and_groups(self):
        assert ALGORITHMS == (
            "gd",
            "nesterov",
            "adam",
            "newton",
            "newton-covariant",
            "ngd",
            "ggn",
            "nngd",
            "agn",
        )
        groups = reproduce_table(dims=(2,), families=(), trials_per_family=1).as_dict()[
            "equivariance_groups"
        ]
        assert groups == {
            "gd": "E(N)",
            "nesterov": "E(N)",
            "adam": "B_N x T(N)",
            "newton": "Aff(N,R)",
            "newton-covariant": "Diff(M)",
            "ngd": "Diff(M)",
            "ggn": "Diff(M)",
            "nngd": "Diff(M)",
            "agn": "Diff(M)",
        }

    @pytest.mark.parametrize(
        "call",
        [
            lambda: expected_verdict("gd", "conformal"),
            lambda: expected_verdict("sgd", "shear"),
            lambda: trial_rng(0, 2, "sgd", "shear", 0),
            lambda: trial_rng(0, 2, "gd", "conformal", 0),
        ],
        ids=["verdict-family", "verdict-algorithm", "rng-algorithm", "rng-family"],
    )
    def test_unknown_name_is_refused_by_name(self, call):
        name = "unknown (algorithm 'sgd'|family 'conformal')"
        with pytest.raises(ConfigurationError, match=name):
            call()


class TestFamilyTable:
    """`trial_rng` indexes families by their order, and each family's group
    decides its column of expected verdicts."""

    def test_order(self):
        assert FAMILIES == ("translation", "euclidean", "signed-permutation", "affine", "shear")

    def test_every_group_is_a_key_of_groups(self):
        named = {recipe.group for recipe in FLOW_RECIPES.values()}
        named |= {row.group for row in FAMILY_ROWS.values()}
        assert named <= set(GROUPS)

    def test_expected_matrix(self):
        # columns: translation, euclidean, signed-permutation, affine, shear
        E, V = "equivariant", "violated"
        matrix = {
            "gd": (E, E, E, V, V),
            "nesterov": (E, E, E, V, V),
            "adam": (E, V, E, V, V),
            "newton": (E, E, E, E, V),
            "newton-covariant": (E, E, E, E, E),
            "ngd": (E, E, E, E, E),
            "ggn": (E, E, E, E, E),
            "nngd": (E, E, E, E, E),
            "agn": (E, E, E, E, E),
        }
        assert {a: tuple(expected_verdict(a, f) for f in FAMILIES) for a in ALGORITHMS} == matrix


@pytest.mark.parametrize("seed", [-1, 1.5])
@pytest.mark.parametrize(
    "call",
    [
        lambda seed: trial_rng(seed, 2, "gd", "shear", 0),
        lambda seed: catalog("shear", 2, seed),
        lambda seed: default_recipe(2, seed=seed),
        lambda seed: synthetic_dataset(linear_model(2, 1), 4, seed),
        lambda seed: reproduce_table(
            dims=(2,), algorithms=("gd",), families=("shear",), trials_per_family=1, seed=seed
        ),
    ],
    ids=["trial_rng", "catalog", "default_recipe", "synthetic_dataset", "reproduce_table"],
)
def test_bad_seed_is_refused_by_value(call, seed):
    with pytest.raises(ConfigurationError, match=f"non-negative integer, got {seed}$"):
        call(seed)


def classify_gd(**counts):
    return classify_equivariance(default_flow_builder("gd", 2), **counts)


@pytest.mark.parametrize(
    "call, value",
    [
        (lambda: catalog("affine", 2.5, 0), 2.5),
        (lambda: catalog("affine", True, 0), True),
        (lambda: trial_rng(0, -1, "gd", "shear", 0), -1),
        (lambda: trial_rng(0, 2.5, "gd", "shear", 0), 2.5),
        (lambda: trial_rng(0, 2, "gd", "shear", -1), -1),
        (lambda: trial_rng(0, 2, "gd", "shear", 1.5), 1.5),
        (lambda: classify_gd(trials_per_family=1.5), 1.5),
        (lambda: classify_gd(trials_per_family=True), True),
        (lambda: classify_gd(states_per_trial=1.5), 1.5),
        (lambda: default_recipe(2.0, kind="mlp-tanh"), 2.0),
        (lambda: default_recipe(0), 0),
    ],
    ids=[
        "catalog-fractional-dim",
        "catalog-boolean-dim",
        "trial_rng-negative-dim",
        "trial_rng-fractional-dim",
        "trial_rng-negative-trial",
        "trial_rng-fractional-trial",
        "classify-fractional-trials",
        "classify-boolean-trials",
        "classify-fractional-states",
        "default_recipe-float-dim",
        "default_recipe-zero-dim",
    ],
)
def test_malformed_count_is_refused_by_value(call, value):
    with pytest.raises(ConfigurationError, match=f"got {value}$"):
        call()


class TestClassifyEquivariance:
    def test_expected_matrix_dim2(self):
        for algorithm in ("gd", "adam", "newton", "ngd"):
            builder = default_flow_builder(algorithm, 2, seed=0)
            reports = classify_equivariance(
                builder, trials_per_family=3, states_per_trial=2, seed=0
            )
            for report in reports:
                assert report.verdict == expected_verdict(algorithm, report.family), (
                    algorithm,
                    report.family,
                )

    def test_verdicts_stable_across_seeds(self):
        for seed in (0, 1, 2):
            builder = default_flow_builder("nesterov", 2, seed=seed)
            reports = classify_equivariance(
                builder, trials_per_family=2, states_per_trial=1, seed=seed
            )
            verdicts = {r.family: r.verdict for r in reports}
            assert verdicts == {
                "translation": "equivariant",
                "euclidean": "equivariant",
                "signed-permutation": "equivariant",
                "affine": "violated",
                "shear": "violated",
            }

    def test_single_trial_matches_many_trials(self):
        builder = default_flow_builder("newton-covariant", 2, seed=0)
        one = classify_equivariance(builder, trials_per_family=1, seed=0)
        many = classify_equivariance(builder, trials_per_family=4, seed=0)
        assert [r.verdict for r in one] == [r.verdict for r in many]

    def test_gap_residual_fails_loudly(self):
        # an O(1) violation lands inside an absurdly wide gap
        builder = default_flow_builder("gd", 2, seed=0)
        with pytest.raises(ToleranceGapError):
            classify_equivariance(
                builder,
                families=("affine",),
                trials_per_family=1,
                tolerance=1e-7,
                violation_threshold=1e6,
                seed=0,
            )

    def test_tolerance_ordering_enforced(self):
        builder = default_flow_builder("gd", 2, seed=0)
        with pytest.raises(ConfigurationError):
            classify_equivariance(builder, tolerance=1e-2, violation_threshold=1e-3)

    @pytest.mark.parametrize(
        "dim, families, message",
        [
            (1, FAMILIES, "a euclidean map needs dim >= 2"),
            (1, ("translation", "conformal"), "unknown family 'conformal'"),
            (2, ("translation", "signed-permutation", "conformal"), "unknown family"),
            (1, ("translation", "affine", "shear"), "a shear needs dim >= 2"),
        ],
    )
    def test_bad_family_refused_before_any_draw(self, dim, families, message, monkeypatch):
        draws = []

        def counted(*args):
            draws.append(args[0])
            return sample_diffeomorphism(*args)

        monkeypatch.setattr(equiflow.harness, "sample_diffeomorphism", counted)
        with pytest.raises(ConfigurationError, match=message):
            reproduce_table(
                dims=[dim], algorithms=["gd"], families=families, trials_per_family=2
            )
        assert draws == []

    def test_report_schema(self):
        builder = default_flow_builder("gd", 2, seed=0)
        report = classify_equivariance(
            builder, families=("translation",), trials_per_family=2, seed=0
        )[0]
        entry = report.as_dict()
        assert set(entry) == {
            "algorithm",
            "family",
            "trials",
            "max_residual",
            "mean_residual",
            "verdict",
            "seed",
            "tolerance",
        }
        assert entry["verdict"] == "equivariant"
        assert entry["max_residual"] <= entry["tolerance"]


class TestReproduceTable:
    def test_small_run_matches_expectations(self):
        table = reproduce_table(
            dims=(2,), trials_per_family=2, states_per_trial=1, seed=0
        )
        assert table.matches_expected
        verdicts = table.verdicts(2)
        assert verdicts["gd"]["affine"] == "violated"
        assert verdicts["newton"]["affine"] == "equivariant"
        assert verdicts["newton"]["shear"] == "violated"
        assert verdicts["adam"]["euclidean"] == "violated"
        assert verdicts["agn"]["shear"] == "equivariant"

    def test_empty_families_give_empty_report(self):
        table = reproduce_table(dims=(2,), families=(), trials_per_family=1, seed=0)
        assert table.reports == ()
        assert table.mismatches == ()

    def test_as_dict_round_trips_json(self):
        import json

        table = reproduce_table(
            dims=(2,), algorithms=("gd",), trials_per_family=1, seed=0
        )
        payload = json.dumps(table.as_dict(), sort_keys=True)
        assert "equivariance_groups" in payload

    def test_render_text(self):
        table = reproduce_table(
            dims=(2,), algorithms=("gd", "newton"), trials_per_family=1, seed=0
        )
        text = render_table_text(table)
        assert "N = 2" in text
        assert "all verdicts match" in text
        reports = [rep for _, rep in table.reports]
        listing = render_reports_text(reports)
        assert "algorithm" in listing and "verdict" in listing
