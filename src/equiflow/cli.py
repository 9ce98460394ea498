"""Batch experiment runner: config parsing, validation, reports, CSV export.

A config is a single JSON file; command-line flags override file values,
which override the built-in defaults.  Reports are staged beside their
targets and renamed into place only after every one is written, so a failed
run leaves no partial files, and they contain no timestamps, so identical
config+seed runs are byte-identical.

Config keys, the experiments that read them, and where each default lives
(`DEFAULTS` names the library value wherever the library has one):

    experiment           all: table, classify, drift or trajectory   "table"
    seed                 all: trial draws, synthetic data, theta0    0
    dims                 all; drift and trajectory use the first     harness.TABLE_DIMS
    algorithms           all                                         harness.ALGORITHMS
    families             table, classify                             geometry.FAMILIES
    trials               table, classify                             harness.TRIALS_PER_FAMILY
    states_per_trial     table, classify                             harness.STATES_PER_TRIAL
    tolerance            table, classify                             harness.EQUIVARIANCE_TOLERANCE
    violation_threshold  table, classify                             harness.VIOLATION_THRESHOLD
    noise_variance       all (ngd, nngd)                             FlowBuilder.noise_variance
    r                    all (nngd, agn)                             FlowBuilder.r
    epsilon              all (adam)                                  FlowBuilder.epsilon
    model                all; fixes dims to its parameter count      none: harness.default_recipe
    dataset              all, with model: path, in_dim, out_dim      none: harness.synthetic_dataset
    diffeo               drift: family and seed                      {"family": "shear", "seed": 1}
    h_list               drift                                       [0.1, 0.03, 0.01, 0.003, 0.001]
    horizon              drift                                       integrate.DRIFT_HORIZON
    scheme               drift, trajectory                           integrate.DEFAULT_SCHEME
    h, steps             trajectory                                  0.01, 100
    theta0               drift, trajectory                           none: drawn from seed
    out_dir              all                                         "out"

Every experiment builds its flows through one problem path, `_problem`.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from itertools import product
from pathlib import Path

import numpy as np

from .diffcalc import DIM_CAP
from .errors import ConfigurationError, EquiflowError
from .flows import XI_MIN
from .geometry import FAMILIES, catalog, state_order1, state_order2
from .harness import (
    ALGORITHMS,
    EQUIVARIANCE_TOLERANCE,
    STATES_PER_TRIAL,
    TABLE_DIMS,
    TRIALS_PER_FAMILY,
    VIOLATION_THRESHOLD,
    FlowBuilder,
    default_recipe,
    expected_verdict,
    render_reports_text,
    render_table_text,
    reproduce_table,
    synthetic_dataset,
)
from .integrate import (
    DEFAULT_SCHEME,
    DRIFT_HORIZON,
    SCHEMES,
    equivariance_drift,
    integrate,
    trajectory_csv_text,
)
from .models import dataset_loss, linear_model, load_dataset, mlp_tanh

EXPERIMENTS = ("classify", "table", "drift", "trajectory")

DEFAULTS = {
    "experiment": "table",
    "seed": 0,
    "dims": list(TABLE_DIMS),
    "algorithms": list(ALGORITHMS),
    "families": list(FAMILIES),
    "trials": TRIALS_PER_FAMILY,
    "states_per_trial": STATES_PER_TRIAL,
    "tolerance": EQUIVARIANCE_TOLERANCE,
    "violation_threshold": VIOLATION_THRESHOLD,
    "noise_variance": FlowBuilder.noise_variance,
    "r": FlowBuilder.r,
    "epsilon": FlowBuilder.epsilon,
    "model": None,
    "dataset": None,
    "diffeo": {"family": "shear", "seed": 1},
    "h_list": [1e-1, 3e-2, 1e-2, 3e-3, 1e-3],
    "horizon": DRIFT_HORIZON,
    "scheme": DEFAULT_SCHEME,
    "h": 0.01,
    "steps": 100,
    "theta0": None,
    "out_dir": "out",
}


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "fatal" or "warning"
    message: str

    def __str__(self):
        return f"{self.severity}: {self.message}"


def load_config(path) -> dict:
    """Read a JSON config file and overlay it on the defaults."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"malformed config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigurationError(f"config {path} must be a JSON object")
    merged = dict(DEFAULTS)
    merged.update(raw)
    return merged


def validate(config: dict) -> list[Diagnostic]:
    """Collect fatal errors and warnings without executing or writing anything."""
    out: list[Diagnostic] = []
    fatal = lambda msg: out.append(Diagnostic("fatal", msg))
    warn = lambda msg: out.append(Diagnostic("warning", msg))

    for key in config:
        if key not in DEFAULTS:
            warn(f"unknown config key {key!r} is ignored")

    if config.get("experiment") not in EXPERIMENTS:
        fatal(f"unknown experiment {config.get('experiment')!r}")
    if not _is_seed(config.get("seed")):
        fatal(f"seed must be a non-negative integer, got {config.get('seed')!r}")

    for name in config.get("algorithms", []):
        if name not in ALGORITHMS:
            fatal(f"unknown algorithm {name!r}")
    for name in config.get("families", []):
        if name not in FAMILIES:
            fatal(f"unknown family {name!r}")

    dims = config.get("dims", [])
    if not dims:
        fatal("dims must list at least one parameter dimension")
    for dim in dims:
        if not _is_count(dim):
            fatal(f"invalid dimension {dim!r}")
        elif dim > DIM_CAP:
            fatal(f"dimension cap exceeded: {dim} > {DIM_CAP}")

    tol = config.get("tolerance")
    threshold = config.get("violation_threshold")
    if not _is_positive_number(tol):
        fatal("tolerance must be a positive number")
    if not _is_positive_number(threshold):
        fatal("violation_threshold must be a positive number")
    if _is_number(tol) and _is_number(threshold) and tol >= threshold:
        fatal(
            f"tolerance {tol} must be strictly below the violation threshold {threshold}"
        )

    for key in ("trials", "states_per_trial", "steps"):
        if not _is_count(config.get(key)):
            fatal(f"{key} must be a positive integer, got {config.get(key)!r}")
    if _is_count(config.get("trials")) and config["trials"] == 1:
        warn("single-trial runs give verdicts from one sampled reparameterization")

    for key in ("noise_variance", "r", "epsilon", "horizon", "h"):
        if not _is_positive_number(config.get(key)):
            fatal(f"{key} must be a positive number, got {config.get(key)!r}")
    if config.get("scheme") not in SCHEMES:
        fatal(f"unknown scheme {config.get('scheme')!r}")
    h_list = config.get("h_list", [])
    if not h_list or not all(map(_is_positive_number, h_list)):
        fatal("h_list must be a non-empty list of positive step sizes")

    diffeo = config.get("diffeo") or {}
    if not isinstance(diffeo, dict) or diffeo.get("family") not in FAMILIES:
        fatal(f"diffeo must name a family among {FAMILIES}")
    elif not _is_seed(diffeo.get("seed", DEFAULTS["diffeo"]["seed"])):
        fatal(f"diffeo seed must be a non-negative integer, got {diffeo.get('seed')!r}")

    model_cfg = config.get("model")
    if model_cfg is not None:
        try:
            model = _build_model(model_cfg)
            if config.get("dims") and list(config["dims"]) != [model.param_dim]:
                warn(
                    f"custom model fixes the dimension to {model.param_dim}; "
                    "dims entry is ignored"
                )
        except ConfigurationError as exc:
            fatal(f"invalid model recipe: {exc}")

    data_cfg = config.get("dataset")
    if data_cfg is not None:
        if model_cfg is None:
            fatal("a dataset file requires an explicit model recipe")
        if not isinstance(data_cfg, dict) or "path" not in data_cfg:
            fatal("dataset must be an object with path, in_dim, out_dim")
        else:
            dims = [data_cfg.get(key) for key in ("in_dim", "out_dim")]
            for key, value in zip(("in_dim", "out_dim"), dims):
                if not _is_count(value):
                    fatal(f"dataset {key} must be a positive integer, got {value!r}")
            if not Path(data_cfg["path"]).exists():
                fatal(f"dataset file {data_cfg['path']} does not exist")
            elif all(map(_is_count, dims)):
                try:
                    load_dataset(data_cfg["path"], *dims)
                except ConfigurationError as exc:
                    fatal(str(exc))

    theta0 = config.get("theta0")
    if theta0 is not None and (
        not isinstance(theta0, list) or not all(map(_is_number, theta0))
    ):
        fatal("theta0 must be a list of numbers")
    return out


def _is_number(value) -> bool:
    """A finite JSON number; true and false are not numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return isinstance(value, int) or math.isfinite(value)


def _is_positive_number(value) -> bool:
    return _is_number(value) and value > 0


def _is_seed(value) -> bool:
    """A non-negative JSON integer, as `np.random.default_rng` takes."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _is_count(value) -> bool:
    """A positive JSON integer; true and false are not counts."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def _build_model(recipe: dict):
    if not isinstance(recipe, dict):
        raise ConfigurationError("model must be an object")

    def size(key, default=None):
        value = recipe.get(key, default)
        if not _is_count(value):
            raise ConfigurationError(f"model {key} must be a positive integer, got {value!r}")
        return value

    kind = recipe.get("kind")
    if kind == "linear":
        return linear_model(size("in_dim"), size("out_dim", 1))
    if kind == "mlp-tanh":
        bias = recipe.get("bias", True)
        if not isinstance(bias, bool):
            raise ConfigurationError(f"model bias must be true or false, got {bias!r}")
        return mlp_tanh(size("in_dim"), size("hidden"), size("out_dim", 1), bias=bias)
    raise ConfigurationError(f"unknown model kind {kind!r}")


def _problem(config: dict):
    """(dims, builder): the parameter dimensions the experiment runs at, and
    the `builder(algorithm, dim) -> FlowBuilder` factory all experiments use.

    (model, dataset) is resolved once per dimension: the built-in corpus, or
    the config's model with its dataset file or with synthetic data.
    """
    seed = config["seed"]
    model_cfg = config.get("model")
    if model_cfg is None:
        dims = list(config["dims"])
        problems = {dim: default_recipe(dim, seed=seed) for dim in dims}
    else:
        model = _build_model(model_cfg)
        data_cfg = config.get("dataset")
        if data_cfg is None:
            data = synthetic_dataset(model, 2 * model.param_dim, seed)
        else:
            data = load_dataset(data_cfg["path"], data_cfg["in_dim"], data_cfg["out_dim"])
        dims = [model.param_dim]
        problems = {model.param_dim: (model, data)}
    settings = {key: config[key] for key in ("noise_variance", "r", "epsilon")}

    def builder(algorithm: str, dim: int) -> FlowBuilder:
        model, data = problems[dim]
        return FlowBuilder(
            algorithm, dataset_loss(model, data), model=model, data=data, **settings
        )

    return dims, builder


def _initial_state(config: dict, order: int, dim: int):
    theta0 = config.get("theta0")
    if theta0 is not None:
        theta = np.asarray(theta0, dtype=float)
        if theta.shape != (dim,):
            raise ConfigurationError(
                f"theta0 has length {theta.shape[0]}, expected {dim}"
            )
    else:
        rng = np.random.default_rng([config["seed"], dim, 202])
        theta = rng.uniform(-1.0, 1.0, size=dim)
    if order == 2:
        return state_order2(theta, np.zeros(dim), time=XI_MIN)
    return state_order1(theta)


def _table(config: dict):
    """The verdict matrix over the config's dims, algorithms and families."""
    dims, builder = _problem(config)
    return reproduce_table(
        dims=dims,
        algorithms=config["algorithms"],
        families=config["families"],
        trials_per_family=config["trials"],
        states_per_trial=config["states_per_trial"],
        seed=config["seed"],
        tolerance=config["tolerance"],
        violation_threshold=config["violation_threshold"],
        builder=builder,
    )


def _run_table(config: dict):
    table = _table(config)
    report = {"experiment": "table", "table": table.as_dict()}
    lines = ["dim,algorithm,family,verdict,expected,max_residual,mean_residual"]
    for dim, rep in table.reports:
        lines.append(
            f"{dim},{rep.algorithm},{rep.family},{rep.verdict},"
            f"{expected_verdict(rep.algorithm, rep.family)},"
            f"{rep.max_residual!r},{rep.mean_residual!r}"
        )
    csvs = {"verdicts.csv": "\n".join(lines) + "\n"}
    status = 0 if table.matches_expected else 1
    return report, render_table_text(table), csvs, status


def _run_classify(config: dict):
    table = _table(config)
    # table.reports holds one run of len(families) reports per (dim, algorithm)
    width = len(table.families)
    text_blocks = []
    for cell, (dim, algorithm) in enumerate(product(table.dims, table.algorithms)):
        reports = [rep for _, rep in table.reports[cell * width : (cell + 1) * width]]
        text_blocks.append(f"N = {dim}, {algorithm}\n" + render_reports_text(reports))
    all_reports = [{"dim": dim, **rep.as_dict()} for dim, rep in table.reports]
    report = {"experiment": "classify", "reports": all_reports}
    return report, "\n\n".join(text_blocks), {}, 0


def _run_drift(config: dict):
    dims, builder = _problem(config)
    dim = dims[0]
    diffeo_cfg = config["diffeo"]
    g = catalog(diffeo_cfg["family"], dim, diffeo_cfg.get("seed", DEFAULTS["diffeo"]["seed"]))
    results = []
    csvs = {}
    text_lines = []
    for algorithm in config["algorithms"]:
        flow_builder = builder(algorithm, dim)
        start = _initial_state(config, flow_builder.build().order, dim)
        drift = equivariance_drift(
            flow_builder,
            g,
            start,
            h_list=config["h_list"],
            horizon=config["horizon"],
            scheme=config["scheme"],
        )
        results.append(
            {
                "algorithm": algorithm,
                "dim": dim,
                "family": diffeo_cfg["family"],
                "scheme": drift.scheme,
                "slope": drift.slope,
                "points": [[h, d] for h, d in drift.points],
                "diverged": list(drift.diverged),
            }
        )
        rows = ["h,defect"] + [f"{h!r},{d!r}" for h, d in drift.points]
        csvs[f"drift_{algorithm}.csv"] = "\n".join(rows) + "\n"
        text_lines.append(
            f"{algorithm} under {diffeo_cfg['family']} ({drift.scheme}): "
            f"slope {drift.slope:.3f} over {len(drift.points)} step sizes"
            + (f", diverged at h in {list(drift.diverged)}" if drift.diverged else "")
        )
    report = {"experiment": "drift", "results": results}
    return report, "\n".join(text_lines), csvs, 0


def _run_trajectory(config: dict):
    dims, builder = _problem(config)
    dim = dims[0]
    results = []
    csvs = {}
    text_lines = []
    for algorithm in config["algorithms"]:
        flow = builder(algorithm, dim).build()
        start = _initial_state(config, flow.order, dim)
        trajectory = integrate(
            flow,
            start,
            h=config["h"],
            steps=config["steps"],
            scheme=config["scheme"],
        )
        name = f"trajectory_{algorithm}.csv"
        final = trajectory.final
        results.append(
            {
                "algorithm": algorithm,
                "dim": dim,
                "scheme": config["scheme"],
                "h": config["h"],
                "steps": config["steps"],
                "final_time": final.time,
                "final_theta": [float(v) for v in final.theta],
                "csv": name,
            }
        )
        csvs[name] = trajectory_csv_text(trajectory)
        text_lines.append(
            f"{algorithm}: {config['steps']} x {config['scheme']} steps of h={config['h']}"
            f" ended at theta={final.theta.tolist()}"
        )
    report = {"experiment": "trajectory", "results": results}
    return report, "\n".join(text_lines), csvs, 0


_RUNNERS = {
    "table": _run_table,
    "classify": _run_classify,
    "drift": _run_drift,
    "trajectory": _run_trajectory,
}


def run(config: dict) -> int:
    """Validate, execute, and write report.json / report.txt / CSVs.

    Returns the process exit status.  Nothing is written when validation
    fails or the experiment raises, and no output file changes unless every
    one was written, so there are no partial output files.
    """
    diagnostics = validate(config)
    for diag in diagnostics:
        print(diag, file=sys.stderr)
    if any(d.severity == "fatal" for d in diagnostics):
        return 2

    report, text, csvs, status = _RUNNERS[config["experiment"]](config)
    report = {"config": config, **report}

    out_dir = Path(config["out_dir"])
    payloads = {
        "report.json": json.dumps(report, sort_keys=True, indent=2) + "\n",
        "report.txt": text + "\n",
        **csvs,
    }
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_all(out_dir, payloads)
    except OSError as exc:
        raise ConfigurationError(f"cannot write reports to {out_dir}: {exc}") from exc
    print(f"wrote {out_dir / 'report.json'}")
    return status


def _write_all(out_dir: Path, payloads: dict) -> None:
    """Write each payload to a staging file in `out_dir`, then rename every
    staging file over its target; on a failed write, remove the staged files."""
    staged = []
    try:
        for name, payload in payloads.items():
            staging = out_dir / f".{name}.staging"
            staged.append((staging, out_dir / name))
            staging.write_text(payload, encoding="utf-8")
    except BaseException:
        for staging, _ in staged:
            staging.unlink(missing_ok=True)
        raise
    for staging, target in staged:
        staging.replace(target)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="equiflow",
        description="Equivariance experiments for training-flow ODEs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="execute an experiment config")
    run_parser.add_argument("config", help="path to a JSON config file")
    run_parser.add_argument("--seed", type=int, default=None, help="override the seed")
    run_parser.add_argument("--out", default=None, help="override the output directory")
    run_parser.add_argument(
        "--experiment", default=None, choices=EXPERIMENTS, help="override the experiment"
    )

    validate_parser = sub.add_parser("validate", help="check a config without running")
    validate_parser.add_argument("config", help="path to a JSON config file")

    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
        if args.command == "validate":
            diagnostics = validate(config)
            for diag in diagnostics:
                print(diag)
            if not diagnostics:
                print("config ok")
            return 2 if any(d.severity == "fatal" for d in diagnostics) else 0
        # flag > file > default
        if args.seed is not None:
            config["seed"] = args.seed
        if args.out is not None:
            config["out_dir"] = args.out
        if args.experiment is not None:
            config["experiment"] = args.experiment
        return run(config)
    except EquiflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
