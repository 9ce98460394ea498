"""Toy differentiable models and mean-squared-error losses.

Models are small enough that the whole parameter vector fits in `DIM_CAP`;
their forward maps are written with numpy operations only, so they evaluate on
float arrays and on dual-number seeds alike.  A forward map takes one input row
or a matrix of rows and returns the same rows (see `Model`).  On dual seeds a
batch is bit-identical to evaluating row by row, since each output's dual sum
keeps its operand order; a float batch goes through BLAS and may differ from
row-by-row evaluation in the last bit.  `dataset_loss` and `network_jacobian`
each call the forward map once per evaluation, on every input row: a float
loss is the batch value, and a dual pass is identical to the rows'.
`network_jacobian` gives the stacked per-sample output Jacobians, in the base
chart or through a `chart` map.
Each model kind is one row of `MODEL_KINDS`, its constructor and recipe fields;
`model_from_recipe` reads a recipe, and the constructors refuse malformed sizes.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import diffcalc
from .diffcalc import ScalarField, VectorMap
from .errors import ConfigurationError, EvaluationDomainError
from .geometry import check_count


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

    `forward` takes an input row of shape (in_dim,) and returns shape
    (out_dim,), or a matrix of rows (S, in_dim) and returns (S, out_dim), row k
    the output of input row k.  It must be dual-safe: arithmetic on `theta`
    entries only via numpy operations that `diffcalc`'s dual numbers support.
    On dual seeds a batch equals the stacked rows bit for bit; on floats it may
    differ from them in the last bit, since a batch goes through BLAS.
    """

    kind: str
    in_dim: int
    out_dim: int
    param_dim: int
    forward: Callable

    def __post_init__(self):
        diffcalc.check_dim(self.param_dim, f"{self.kind} parameter count")


def linear_model(in_dim: int, out_dim: int = 1) -> Model:
    """f(x, theta) = W x with W = theta reshaped to (out_dim, in_dim)."""
    check_count(in_dim, "model in_dim", least=1)
    check_count(out_dim, "model out_dim", least=1)

    def forward(x, theta):
        w = np.asarray(theta).reshape(out_dim, in_dim)
        return (w @ np.transpose(x)).T

    return Model("linear", in_dim, out_dim, in_dim * out_dim, forward)


def mlp_tanh(in_dim: int, hidden: int, out_dim: int = 1, bias: bool = True) -> Model:
    """One-hidden-layer tanh network; parameters packed layer by layer."""
    check_count(in_dim, "model in_dim", least=1)
    check_count(hidden, "model hidden", least=1)
    check_count(out_dim, "model out_dim", least=1)
    if not isinstance(bias, bool):
        raise ConfigurationError(f"model bias must be true or false, got {bias!r}")
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
        pre = (w1 @ np.transpose(x)).T
        if bias:
            pre = pre + theta[ofs : ofs + n_b1]
            ofs += n_b1
        act = np.tanh(pre)
        w2 = theta[ofs : ofs + n_w2].reshape(out_dim, hidden)
        ofs += n_w2
        out = (w2 @ act.T).T
        if bias:
            out = out + theta[ofs : ofs + n_b2]
        return out

    return Model("mlp-tanh", in_dim, out_dim, param_dim, forward)


class ModelKind(NamedTuple):
    build: Callable[..., Model]
    fields: tuple  # the recipe keys besides "kind": the constructor's parameters


MODEL_KINDS = {
    "linear": ModelKind(linear_model, ("in_dim", "out_dim")),
    "mlp-tanh": ModelKind(mlp_tanh, ("in_dim", "hidden", "out_dim", "bias")),
}


def model_from_recipe(recipe: dict) -> Model:
    """The model of a recipe's `MODEL_KINDS` row; an absent field takes the
    constructor's default, or None (refused) where it has none."""
    kind = recipe.get("kind")
    if not isinstance(kind, str) or kind not in MODEL_KINDS:
        raise ConfigurationError(f"unknown model kind {kind!r}")
    row = MODEL_KINDS[kind]
    params = inspect.signature(row.build).parameters
    defaults = {name: p.default for name, p in params.items() if p.default is not p.empty}
    return row.build(**{name: recipe.get(name, defaults.get(name)) for name in row.fields})


def check_dataset_dims(model: Model, in_dim: int, out_dim: int) -> None:
    """Refuse dataset input and target sizes other than the model's."""
    if (in_dim, out_dim) != (model.in_dim, model.out_dim):
        raise ConfigurationError(
            f"dataset dims {in_dim}->{out_dim} do not match model dims "
            f"{model.in_dim}->{model.out_dim}"
        )


def dataset_loss(model: Model, data: Dataset) -> ScalarField:
    """Mean squared error (1/|S|) sum 1/2 ||f(x, theta) - y||^2.

    One `model.forward` call evaluates every sample; the squares are summed
    from zero in component order and the halves in sample order, so a dual
    pass equals the per-sample loop bit for bit, while a float loss is the
    batch value (see `Model`).
    """
    check_dataset_dims(model, data.inputs.shape[1], data.targets.shape[1])
    inputs, targets, size = data.inputs, data.targets, data.size

    def fn(theta):
        resid = np.reshape(model.forward(inputs, theta), targets.shape) - targets
        sq = np.add.reduce(resid * resid, axis=1, initial=0.0)
        return np.add.reduce(0.5 * sq, initial=0.0) / size

    return ScalarField(model.param_dim, fn, name=f"mse[{model.kind}]")


def network_jacobian(
    model: Model, data: Dataset, theta, chart: Optional[VectorMap] = None
) -> np.ndarray:
    """The (S, out_dim, param_dim) array of per-sample output Jacobians, S = data.size;
    entry k is the Jacobian at sample k.

    One `diffcalc.derivative_pass` calls `model.forward` once, on every input row.
    With a `chart` theta_bar -> theta (a reparameterization's inverse), `theta` is
    barred, entry k is the Jacobian of theta_bar -> forward(x_k, chart(theta_bar)),
    and the pass reads the outputs as a `diffcalc.Pullback` through the chart: an
    affine chart seeds from its matrix, any other maps the seeds once.
    """
    if chart is not None and (chart.in_dim, chart.out_dim) != (model.param_dim,) * 2:
        raise ConfigurationError(f"chart dims do not match {model.param_dim} parameters")

    def outputs(params):
        return np.reshape(model.forward(data.inputs, params), (data.size, model.out_dim))

    fn = outputs if chart is None else diffcalc.Pullback(outputs, chart)
    jac = diffcalc.derivative_pass(fn, theta, order=1)[1]
    if not np.all(np.isfinite(jac)):
        raise EvaluationDomainError(f"jacobian of {model.kind} output non-finite at {theta}")
    return jac


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
