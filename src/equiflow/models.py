"""Toy differentiable models and mean-squared-error losses.

Models are small enough that the whole parameter vector fits in `DIM_CAP`;
their forward maps are written with numpy operations only, so they evaluate
identically on float arrays and on dual-number seeds.  `network_jacobian` gives
every per-sample output Jacobian, in the base chart or through a `chart` map.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import diffcalc
from .diffcalc import ScalarField, VectorMap
from .errors import ConfigurationError, EvaluationDomainError


@dataclass(frozen=True)
class Dataset:
    """Paired inputs/targets; rows are samples."""

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        inputs = np.atleast_2d(np.asarray(self.inputs, dtype=float))
        targets = np.atleast_2d(np.asarray(self.targets, dtype=float))
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "targets", targets)
        if inputs.shape[0] == 0:
            raise ConfigurationError("dataset must contain at least one sample")
        if inputs.shape[0] != targets.shape[0]:
            raise ConfigurationError(
                f"dataset has {inputs.shape[0]} inputs but {targets.shape[0]} targets"
            )
        finite = np.all(np.isfinite(inputs), axis=1) & np.all(np.isfinite(targets), axis=1)
        if not np.all(finite):
            row = int(np.argmin(finite))
            raise ConfigurationError(
                f"dataset row {row + 1} has a non-finite entry: "
                f"inputs {inputs[row]}, targets {targets[row]}"
            )

    @property
    def size(self) -> int:
        return self.inputs.shape[0]


@dataclass(frozen=True)
class Model:
    """A parametric map (x, theta) -> output vector.

    `forward` must be dual-safe: arithmetic on `theta` entries only via
    numpy operations that `diffcalc`'s dual numbers support.
    """

    kind: str
    in_dim: int
    out_dim: int
    param_dim: int
    forward: Callable

    def __post_init__(self):
        if self.param_dim > diffcalc.DIM_CAP:
            raise ConfigurationError(
                f"dimension cap exceeded: model has {self.param_dim} parameters"
            )


def check_noise_variance(noise_variance: float) -> None:
    """Refuse a Gaussian noise variance that is not positive."""
    if noise_variance <= 0.0:
        raise ConfigurationError(f"noise variance must be positive, got {noise_variance}")


def linear_model(in_dim: int, out_dim: int = 1) -> Model:
    """f(x, theta) = W x with W = theta reshaped to (out_dim, in_dim)."""

    def forward(x, theta):
        w = np.asarray(theta).reshape(out_dim, in_dim)
        return w @ x

    return Model("linear", in_dim, out_dim, in_dim * out_dim, forward)


def mlp_tanh(in_dim: int, hidden: int, out_dim: int, bias: bool = True) -> Model:
    """One-hidden-layer tanh network; parameters packed layer by layer."""
    n_w1 = hidden * in_dim
    n_b1 = hidden if bias else 0
    n_w2 = out_dim * hidden
    n_b2 = out_dim if bias else 0
    param_dim = n_w1 + n_b1 + n_w2 + n_b2

    def forward(x, theta):
        theta = np.asarray(theta)
        ofs = 0
        w1 = theta[ofs : ofs + n_w1].reshape(hidden, in_dim)
        ofs += n_w1
        pre = w1 @ x
        if bias:
            pre = pre + theta[ofs : ofs + n_b1]
            ofs += n_b1
        act = np.tanh(pre)
        w2 = theta[ofs : ofs + n_w2].reshape(out_dim, hidden)
        ofs += n_w2
        out = w2 @ act
        if bias:
            out = out + theta[ofs : ofs + n_b2]
        return out

    return Model("mlp-tanh", in_dim, out_dim, param_dim, forward)


def check_dataset_dims(model: Model, in_dim: int, out_dim: int) -> None:
    """Refuse dataset input and target sizes other than the model's."""
    if (in_dim, out_dim) != (model.in_dim, model.out_dim):
        raise ConfigurationError(
            f"dataset dims {in_dim}->{out_dim} do not match model dims "
            f"{model.in_dim}->{model.out_dim}"
        )


def dataset_loss(model: Model, data: Dataset) -> ScalarField:
    """Mean squared error (1/|S|) sum 1/2 ||f(x, theta) - y||^2.

    Samples are accumulated in index order so repeated evaluations are
    bit-reproducible.
    """
    check_dataset_dims(model, data.inputs.shape[1], data.targets.shape[1])
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

    return ScalarField(model.param_dim, fn, name=f"mse[{model.kind}]")


def network_jacobian(
    model: Model, data: Dataset, theta, chart: Optional[VectorMap] = None
) -> list[np.ndarray]:
    """Per-sample (out_dim, param_dim) Jacobians of the model outputs, in index order.

    One `diffcalc.derivative_pass` reads every sample.  With a `chart` theta_bar -> theta
    (a reparameterization's inverse), `theta` is barred, entry k is the Jacobian of
    theta_bar -> forward(x_k, chart(theta_bar)), and the chart maps the seeds once.
    """
    if chart is not None and (chart.in_dim, chart.out_dim) != (model.param_dim,) * 2:
        raise ConfigurationError(f"chart dims do not match {model.param_dim} parameters")

    def outputs(params):
        params = params if chart is None else chart.fn(params)
        return [np.reshape(model.forward(x, params), model.out_dim) for x in data.inputs]

    jac = diffcalc.derivative_pass(outputs, theta, order=1)[1]
    if not np.all(np.isfinite(jac)):
        raise EvaluationDomainError(f"jacobian of {model.kind} output non-finite at {theta}")
    return list(jac)


def quadratic_loss(matrix: np.ndarray, name: str = "quadratic") -> ScalarField:
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


def load_dataset(path, in_dim: int, out_dim: int) -> Dataset:
    """Read a comma-separated file, one sample per line: inputs then targets."""
    try:
        raw = np.loadtxt(path, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise ConfigurationError(f"cannot read dataset {path}: {exc}") from exc
    if raw.shape[1] != in_dim + out_dim:
        raise ConfigurationError(
            f"dataset {path} has {raw.shape[1]} columns, expected "
            f"{in_dim}+{out_dim}"
        )
    return Dataset(raw[:, :in_dim], raw[:, in_dim:])
