import dataclasses
import inspect
from functools import partial

import numpy as np
import pytest

import equiflow.cli as cli

from equiflow import (
    FAMILIES,
    ConfigurationError,
    Dataset,
    Diffeomorphism,
    EvaluationDomainError,
    Model,
    VectorMap,
    catalog,
    dataset_loss,
    default_recipe,
    fisher_matrix,
    gradient,
    gradient_and_hessian,
    jacobian,
    linear_model,
    load_dataset,
    mlp_tanh,
    network_jacobian,
    pullback_loss,
)
from equiflow.diffcalc import Dual2, derivative_pass
from equiflow.models import MODEL_KINDS, model_from_recipe
from conftest import (
    AFFINE_FAMILIES,
    assert_same_bits,
    canonical_shear,
    loop_loss,
    output_map,
    quadratic_model,
)


class TestDatasetLoss:
    def test_single_sample_linear(self):
        model = linear_model(1, 1)
        data = Dataset([[1.0]], [[2.0]])
        loss = dataset_loss(model, data)
        assert np.isclose(loss.value([0.0]), 2.0)  # 1/2 (0 - 2)^2
        assert np.allclose(gradient(loss, [0.0]), [-2.0])

    def test_interpolating_point_is_global_minimum(self):
        model = mlp_tanh(1, 2, 1)
        rng = np.random.default_rng(3)
        theta = rng.uniform(-1.0, 1.0, model.param_dim)
        inputs = rng.uniform(-1.0, 1.0, (4, 1))
        targets = model.forward(inputs, theta)  # the batch evaluation the loss makes
        loss = dataset_loss(model, Dataset(inputs, targets))
        assert loss.value(theta) == 0.0
        assert np.linalg.norm(gradient(loss, theta)) <= 1e-10

    def test_two_point_hand_value(self, two_point_linear):
        model, data = two_point_linear
        loss = dataset_loss(model, data)
        theta = [0.5]
        # residuals: 0.5*1-2 = -1.5 and 0.5*2-1 = 0
        want = 0.5 * ((-1.5) ** 2 + 0.0**2) / 2
        assert np.isclose(loss.value(theta), want)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(8)
        model = mlp_tanh(2, 2, 1, bias=False)
        inputs = rng.uniform(-1, 1, (5, 2))
        targets = rng.uniform(-1, 1, (5, 1))
        theta = rng.uniform(-1, 1, model.param_dim)
        base = dataset_loss(model, Dataset(inputs, targets)).value(theta)
        perm = rng.permutation(5)
        shuffled = dataset_loss(model, Dataset(inputs[perm], targets[perm])).value(theta)
        assert np.isclose(base, shuffled, rtol=1e-12, atol=0.0)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ConfigurationError):
            Dataset(np.empty((0, 1)), np.empty((0, 1)))

    @pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
    def test_non_finite_entries_rejected(self, bad):
        inputs = [[0.5, 1.0], [bad, 0.0], [1.0, bad]]
        with pytest.raises(ConfigurationError, match="row 2"):
            Dataset(inputs, [[1.0], [2.0], [3.0]])
        with pytest.raises(ConfigurationError, match="row 3"):
            Dataset([[0.5], [1.0], [2.0]], [[1.0], [2.0], [bad]])

    def test_dimension_mismatch_rejected(self):
        model = linear_model(2, 1)
        data = Dataset([[1.0]], [[2.0]])
        with pytest.raises(ConfigurationError):
            dataset_loss(model, data)


class TestBatchedLoss:
    """`dataset_loss` evaluates every sample in one forward call; its dual passes
    are the per-sample loop's bit for bit."""

    @pytest.mark.parametrize("family", (None, "affine", "shear"))
    @pytest.mark.parametrize("order", (1, 2))
    @pytest.mark.parametrize(
        "model",
        [linear_model(3, 2), mlp_tanh(2, 2, 2), mlp_tanh(1, 2, 1, bias=False)],
        ids=["linear-3-2", "mlp-2-2-2", "mlp-1-2-1-no-bias"],
    )
    def test_dual_pass_is_the_sample_loop(self, model, order, family):
        rng = np.random.default_rng([model.param_dim, order])
        inputs = rng.uniform(-1.5, 1.5, (20, model.in_dim))
        inputs[0], inputs[1] = 0.0, -0.0
        data = Dataset(inputs, rng.uniform(-1.0, 1.0, (20, model.out_dim)))
        point = rng.uniform(-1.5, 1.5, model.param_dim)
        batch, loop = dataset_loss(model, data), loop_loss(model, data)
        if family is not None:
            g = catalog(family, model.param_dim, seed=6)
            point = g.forward(point)
            batch, loop = pullback_loss(g, batch), pullback_loss(g, loop)
        got = derivative_pass(batch.fn, point, order)
        want = derivative_pass(loop.fn, point, order)
        for part in range(order + 1):
            assert got[part].shape == want[part].shape
            assert got[part].tobytes() == want[part].tobytes()

    @pytest.mark.parametrize("kind", ("linear", "mlp-tanh"))
    def test_one_forward_call_per_evaluation(self, kind):
        model, data = default_recipe(4, seed=3, kind=kind)
        shapes = []

        def forward(x, theta):
            shapes.append(np.shape(x))
            return model.forward(x, theta)

        loss = dataset_loss(dataclasses.replace(model, forward=forward), data)
        theta = np.random.default_rng(5).uniform(-1.5, 1.5, 4)
        for evaluate in (loss.value, partial(gradient, loss), partial(gradient_and_hessian, loss)):
            shapes.clear()
            evaluate(theta)
            assert shapes == [data.inputs.shape]


class TestBatchedForward:
    @pytest.mark.parametrize("order", (1, 2))
    @pytest.mark.parametrize(
        "model",
        [linear_model(3, 2), mlp_tanh(2, 2, 2), mlp_tanh(1, 2, 1, bias=False)],
        ids=["linear-3-2", "mlp-2-2-2", "mlp-1-2-1-no-bias"],
    )
    def test_batch_pass_is_the_stacked_row_passes(self, model, order):
        # each output's dual sum keeps its operand order, so a matrix of rows
        # gives every row's pass bit for bit, signs of zero included
        rng = np.random.default_rng([model.param_dim, order])
        inputs = rng.uniform(-1.5, 1.5, (5, model.in_dim))
        inputs[0], inputs[1] = 0.0, -0.0
        theta = rng.uniform(-1.5, 1.5, model.param_dim)
        batch = derivative_pass(lambda t: model.forward(inputs, t), theta, order)
        rows = [derivative_pass(lambda t, x=x: model.forward(x, t), theta, order) for x in inputs]
        for part, got in enumerate(batch[:order + 1]):
            want = np.stack([row[part] for row in rows])
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


class TestNetworkJacobian:
    @pytest.mark.parametrize("family", (None, "affine", "shear"))
    def test_one_forward_call_per_pass(self, family):
        model, data = default_recipe(4, seed=3, kind="mlp-tanh")
        shapes = []

        def forward(x, theta):
            shapes.append(np.shape(x))
            return model.forward(x, theta)

        counted = dataclasses.replace(model, forward=forward)
        chart = None if family is None else catalog(family, 4, seed=4).inverse_map
        theta = np.random.default_rng(5).uniform(-1.5, 1.5, 4)
        jacs = network_jacobian(counted, data, theta, chart)
        assert shapes == [data.inputs.shape]
        assert jacs.shape == (data.size, model.out_dim, model.param_dim)

    def test_linear_rows_are_inputs(self):
        model = linear_model(3, 1)
        data = Dataset([[1.0, 2.0, 3.0], [0.0, -1.0, 0.5]], [[0.0], [0.0]])
        jacs = network_jacobian(model, data, [0.3, 0.1, -0.2])
        assert np.allclose(jacs[0], [[1.0, 2.0, 3.0]])
        assert np.allclose(jacs[1], [[0.0, -1.0, 0.5]])

    def test_constant_model_zero(self):
        model = quadratic_model(np.zeros((1, 2)))
        data = Dataset([[0.0]], [[0.0]])
        jacs = network_jacobian(model, data, [1.0, 2.0])
        assert np.allclose(jacs[0], 0.0)

    def test_mlp_matches_fd(self):
        from equiflow import fd_jacobian

        model = mlp_tanh(1, 1, 1)
        data = Dataset([[0.8]], [[0.0]])
        theta = np.array([0.4, -0.3, 0.9, 0.2])
        jac = network_jacobian(model, data, theta)[0]
        fd = fd_jacobian(lambda t: output_map(model, data.inputs[0]).value(t), theta)
        assert np.max(np.abs(jac - fd)) <= 1e-5


    @pytest.mark.parametrize("kind", ("linear", "mlp-tanh"))
    def test_rows_equal_per_sample_jacobians(self, kind):
        model, data = default_recipe(8, seed=3, kind=kind)
        theta = np.random.default_rng(5).uniform(-1.5, 1.5, 8)
        jacs = network_jacobian(model, data, theta)
        assert len(jacs) == data.size
        for x, jac in zip(data.inputs, jacs):
            assert np.array_equal(jac, jacobian(output_map(model, x), theta))

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("kind", ("linear", "mlp-tanh"))
    def test_rows_equal_per_sample_jacobians_through_a_chart(self, kind, family):
        # an affine chart seeds from its matrix; the map below, which carries
        # none, runs the chart on duals
        model, data = default_recipe(8, seed=3, kind=kind)
        chart = catalog(family, 8, seed=4).inverse_map
        theta_bar = np.random.default_rng(5).uniform(-1.5, 1.5, 8)
        jacs = network_jacobian(model, data, theta_bar, chart=chart)
        assert len(jacs) == data.size
        for x, jac in zip(data.inputs, jacs):
            through = VectorMap(8, model.out_dim, lambda t, x=x: model.forward(x, chart.fn(t)))
            assert_same_bits(jac, jacobian(through, theta_bar))

    @pytest.mark.parametrize("family", AFFINE_FAMILIES)
    def test_affine_chart_never_sees_a_dual(self, family):
        model, data = default_recipe(4, seed=3, kind="mlp-tanh")
        g = catalog(family, 4, seed=4)
        seen = []

        def recorded(theta):
            seen.extend(np.ravel(theta))
            return g.inverse_map.fn(theta)

        chart = dataclasses.replace(g.inverse_map, fn=recorded)
        barred = Diffeomorphism(family, g.forward_map, chart)
        theta_bar = np.random.default_rng(5).uniform(-1.5, 1.5, 4)
        network_jacobian(model, data, theta_bar, chart=chart)
        gradient_and_hessian(pullback_loss(barred, dataset_loss(model, data)), theta_bar)
        assert seen and not any(isinstance(entry, Dual2) for entry in seen)

    def test_chart_composes_with_the_model(self):
        model = mlp_tanh(1, 1, 1)
        data = Dataset([[0.8], [-0.4]], [[0.0], [0.0]])
        g = canonical_shear(0.7, dim=4)
        theta_bar = np.array([0.4, -0.3, 0.9, 0.2])
        jacs = network_jacobian(model, data, theta_bar, chart=g.inverse_map)
        for x, jac in zip(data.inputs, jacs):
            want = jacobian(output_map(model, x), g.inverse(theta_bar)) @ jacobian(
                g.inverse_map, theta_bar
            )
            assert np.max(np.abs(jac - want)) <= 1e-12

    def test_non_finite_row_is_a_domain_error(self):
        model = Model("square", 1, 1, 1, lambda x, theta: np.asarray(theta) * (x * x))
        data = Dataset([[1.0], [1e200]], [[0.0], [0.0]])
        with np.errstate(over="ignore"):
            with pytest.raises(EvaluationDomainError, match="jacobian of square output"):
                network_jacobian(model, data, [1.0])


class TestModelKinds:
    def test_each_row_reads_its_constructor_parameters(self):
        for kind, row in MODEL_KINDS.items():
            assert row.fields == tuple(inspect.signature(row.build).parameters), kind

    def test_cli_binds_no_model_constructor(self):
        assert not {"linear_model", "mlp_tanh"} & set(vars(cli))

    def test_absent_fields_take_the_constructor_defaults(self):
        model = model_from_recipe({"kind": "mlp-tanh", "in_dim": 2, "hidden": 1})
        assert (model.out_dim, model.param_dim) == (1, 5)
        assert model_from_recipe({"kind": "linear", "in_dim": 3}).param_dim == 3

    @pytest.mark.parametrize(
        "recipe, message",
        [
            ({"kind": "linear"}, "model in_dim must be a positive integer, got None"),
            (
                {"kind": "mlp-tanh", "in_dim": 1},
                "model hidden must be a positive integer, got None",
            ),
            ({"kind": "conv", "in_dim": 1}, "unknown model kind 'conv'"),
            ({"kind": ["linear"]}, "unknown model kind ['linear']"),
            ({}, "unknown model kind None"),
        ],
        ids=["linear-in-dim", "mlp-hidden", "unknown-kind", "list-kind", "no-kind"],
    )
    def test_malformed_recipe_refused(self, recipe, message):
        with pytest.raises(ConfigurationError) as refusal:
            model_from_recipe(recipe)
        assert str(refusal.value) == message

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: linear_model(0), "model in_dim must be a positive integer, got 0"),
            (lambda: linear_model(1.5), "model in_dim must be a positive integer, got 1.5"),
            (lambda: linear_model(True), "model in_dim must be a positive integer, got True"),
            (lambda: linear_model(-2, 1), "model in_dim must be a positive integer, got -2"),
            (lambda: linear_model(2, 0), "model out_dim must be a positive integer, got 0"),
            (lambda: mlp_tanh(1, 0), "model hidden must be a positive integer, got 0"),
            (lambda: mlp_tanh(1, 1, 1, bias="no"), "model bias must be true or false, got 'no'"),
            (
                lambda: linear_model(17),
                "linear parameter count must be an integer within the dimension cap "
                "[1, 16], got 17",
            ),
        ],
        ids=[
            "linear-zero",
            "linear-fractional",
            "linear-boolean",
            "linear-negative",
            "linear-zero-out",
            "mlp-zero-hidden",
            "mlp-string-bias",
            "linear-past-the-cap",
        ],
    )
    def test_constructor_refuses_malformed_sizes(self, build, message):
        with pytest.raises(ConfigurationError) as refusal:
            build()
        assert str(refusal.value) == message

    @pytest.mark.parametrize(
        "param_dim", [0, 2.5, True, 17], ids=["zero", "fractional", "boolean", "past-the-cap"]
    )
    def test_model_parameter_count_is_a_dimension(self, param_dim):
        with pytest.raises(ConfigurationError, match="dimension cap"):
            Model("probe", 1, 1, param_dim, lambda x, theta: theta)


class TestFisherMatrix:
    def test_positive_variance_required(self):
        model = linear_model(1, 1)
        data = Dataset([[1.0]], [[0.0]])
        with pytest.raises(ConfigurationError):
            fisher_matrix(model, data, 0.0, [1.0])


class TestLoadDataset:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("0.5,1.0,2.0\n-1.0,0.0,3.0\n")
        data = load_dataset(path, in_dim=2, out_dim=1)
        assert data.size == 2
        assert np.allclose(data.inputs, [[0.5, 1.0], [-1.0, 0.0]])
        assert np.allclose(data.targets, [[2.0], [3.0]])

    def test_single_line(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("1.0,2.0\n")
        data = load_dataset(path, in_dim=1, out_dim=1)
        assert data.size == 1

    def test_wrong_columns(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0,3.0\n")
        with pytest.raises(ConfigurationError):
            load_dataset(path, in_dim=1, out_dim=1)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_dataset(tmp_path / "nope.csv", in_dim=1, out_dim=1)
