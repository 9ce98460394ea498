import numpy as np
import pytest

from equiflow import (
    ConfigurationError,
    Dataset,
    EvaluationDomainError,
    Model,
    VectorMap,
    catalog,
    dataset_loss,
    default_recipe,
    fisher_matrix,
    gradient,
    jacobian,
    linear_model,
    load_dataset,
    mlp_tanh,
    network_jacobian,
)
from conftest import canonical_shear, output_map, quadratic_model


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
        targets = np.stack([model.forward(x, theta) for x in inputs])
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


class TestNetworkJacobian:
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

    @pytest.mark.parametrize("kind", ("linear", "mlp-tanh"))
    def test_rows_equal_per_sample_jacobians_through_a_chart(self, kind):
        model, data = default_recipe(8, seed=3, kind=kind)
        chart = catalog("shear", 8, seed=4).inverse_map
        theta_bar = np.random.default_rng(5).uniform(-1.5, 1.5, 8)
        jacs = network_jacobian(model, data, theta_bar, chart=chart)
        assert len(jacs) == data.size
        for x, jac in zip(data.inputs, jacs):
            through = VectorMap(8, model.out_dim, lambda t, x=x: model.forward(x, chart.fn(t)))
            assert np.array_equal(jac, jacobian(through, theta_bar))

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
