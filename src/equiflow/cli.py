"""Batch experiment runner: config parsing, validation, reports, CSV export.

A config is a single JSON file; command-line flags override file values,
which override the built-in defaults.  Reports are staged beside their
targets and renamed into place only after every one is written, so a failed
run leaves no partial files, and they contain no timestamps, so identical
config+seed runs are byte-identical.  `report.json` is strict JSON: a drift
slope that the fit leaves undefined (NaN) is written as `null`.

`KEYS` declares every config key once: its default (naming the library value
wherever the library has one), the experiments that read it, and the check
`validate` runs on it.  Past those checks `validate` runs the library's own
refusal rules (the dimension cap, `models.model_from_recipe`, a dataset file
read at the model's sizes, the Fisher weight, step counts, one-parameter
families, tolerance ordering), so a refused config reads the library's message.

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
from typing import Callable

import numpy as np

from .diffcalc import check_dim, is_real
from .errors import ConfigurationError, EquiflowError
from .flows import XI_MIN, fisher_weight
from .geometry import FAMILIES, catalog, check_count, check_family_dim, check_positive
from .geometry import state_order1, state_order2
from .harness import (
    ALGORITHMS,
    EQUIVARIANCE_TOLERANCE,
    FLOW_RECIPES,
    STATES_PER_TRIAL,
    TABLE_DIMS,
    TRIALS_PER_FAMILY,
    VIOLATION_THRESHOLD,
    FlowBuilder,
    check_thresholds,
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
    MAX_STEPS,  # re-exported: the step cap drift and trajectory configs meet
    SCHEMES,
    check_step_count,
    drift_step_counts,
    equivariance_drift,
    integrate,
    trajectory_csv_text,
)
from .models import MODEL_KINDS, dataset_loss, load_dataset, model_from_recipe

EXPERIMENTS = ("classify", "table", "drift", "trajectory")


def _is_number(value) -> bool:
    """A JSON number within the float range: not NaN, an infinity, 10**400 or true."""
    return is_real(value) and abs(value) <= sys.float_info.max


def _passes(check: Callable, *args, **kwargs) -> Callable:
    """value -> whether the library `check(value, *args, **kwargs)` accepts it
    without a ConfigurationError."""

    def accepts(value) -> bool:
        try:
            check(value, *args, **kwargs)
        except ConfigurationError:
            return False
        return True

    return accepts


_is_positive_number = _passes(check_positive, "value")  # finite; true is not a number
_is_count = _passes(check_count, "count", least=1)  # true and false are not counts


def _one_of(options: tuple) -> Callable:
    return lambda value: value in options


def _list_of(check: Callable, nonempty: bool = False) -> Callable:
    """A JSON list, non-empty if asked, whose entries each pass `check`."""
    return lambda v: isinstance(v, list) and (bool(v) or not nonempty) and all(map(check, v))


def _object_or_null(value) -> bool:
    return value is None or isinstance(value, dict)


@dataclass(frozen=True)
class Key:
    default: object
    check: Callable  # value -> bool
    phrase: str  # completes "{name} must be ..." when the check fails


KEYS = {
    # every experiment
    "experiment": Key("table", _one_of(EXPERIMENTS), f"one of {EXPERIMENTS}"),
    # trial draws, synthetic data, theta0
    "seed": Key(0, _passes(check_count, "seed"), "a non-negative integer"),
    "dims": Key(  # drift and trajectory use the first entry; a model recipe replaces them
        list(TABLE_DIMS), _list_of(_is_count, True), "a non-empty list of positive integers"
    ),
    "algorithms": Key(
        list(ALGORITHMS), _list_of(_one_of(ALGORITHMS)), f"a list of names among {ALGORITHMS}"
    ),
    # ngd, nngd
    "noise_variance": Key(FlowBuilder.noise_variance, _is_positive_number, "a positive number"),
    "r": Key(FlowBuilder.r, _is_positive_number, "a positive number"),  # nesterov, nngd, agn
    "epsilon": Key(FlowBuilder.epsilon, _is_positive_number, "a positive number"),  # adam
    # null: harness.default_recipe; dataset null: harness.synthetic_dataset
    "model": Key(None, _object_or_null, "null or a model recipe object"),
    "dataset": Key(None, _object_or_null, "null or an object naming a data file path"),
    "out_dir": Key("out", lambda value: isinstance(value, str), "a path string"),
    # table and classify
    "families": Key(
        list(FAMILIES), _list_of(_one_of(FAMILIES)), f"a list of names among {FAMILIES}"
    ),
    "trials": Key(TRIALS_PER_FAMILY, _is_count, "a positive integer"),
    "states_per_trial": Key(STATES_PER_TRIAL, _is_count, "a positive integer"),
    "tolerance": Key(EQUIVARIANCE_TOLERANCE, _is_positive_number, "a positive number"),
    "violation_threshold": Key(VIOLATION_THRESHOLD, _is_positive_number, "a positive number"),
    # drift
    "diffeo": Key(  # the map's family, and its seed (1 when absent)
        {"family": "shear", "seed": 1},
        lambda value: isinstance(value, dict) and value.get("family") in FAMILIES,
        f"an object naming a family among {FAMILIES}",
    ),
    "h_list": Key(
        [1e-1, 3e-2, 1e-2, 3e-3, 1e-3],
        lambda v: _list_of(_is_positive_number, True)(v) and len(set(v)) == len(v),
        "a non-empty list of distinct positive step sizes",
    ),
    "horizon": Key(DRIFT_HORIZON, _is_positive_number, "a positive number"),
    # drift and trajectory; theta0 null: drawn from seed
    "scheme": Key(DEFAULT_SCHEME, _one_of(SCHEMES), f"one of {SCHEMES}"),
    "theta0": Key(None, lambda v: v is None or _list_of(_is_number)(v), "null or a list of numbers"),
    # trajectory
    "h": Key(0.01, _is_positive_number, "a positive number"),
    "steps": Key(100, _is_count, "a positive integer"),
}

DEFAULTS = {name: key.default for name, key in KEYS.items()}

# The keys each config object reads; a model recipe's depend on its kind.
_FIELDS = {
    "diffeo": ("family", "seed"),
    "dataset": ("path",),
    **{kind: ("kind", *row.fields) for kind, row in MODEL_KINDS.items()},
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
    return {**DEFAULTS, **raw}


def validate(config: dict) -> list[Diagnostic]:
    """Collect fatal errors and warnings without executing or writing anything.

    Every key's value is judged by its `KEYS` check; the rules after that
    span keys or need a message of their own, and read only values that
    passed their check.  A rule the library enforces too is not restated here:
    `refused` runs the library's own check and turns its `ConfigurationError`
    into one fatal carrying the message the library entry point would raise.
    """
    out: list[Diagnostic] = []
    fatal = lambda msg: out.append(Diagnostic("fatal", msg))
    warn = lambda msg: out.append(Diagnostic("warning", msg))

    def refused(check: Callable, *args) -> bool:
        try:
            check(*args)
        except ConfigurationError as exc:
            fatal(str(exc))
            return True
        return False

    def unknown_fields(name: str, obj: dict, kind: str):
        for key in obj:
            if key not in _FIELDS[kind]:
                warn(f"unknown {name} key {key!r} is ignored")

    for name in config:
        if name not in KEYS:
            warn(f"unknown config key {name!r} is ignored")
    ok = {name: key.check(config.get(name)) for name, key in KEYS.items()}
    for name, key in KEYS.items():
        if not ok[name]:
            fatal(f"{name} must be {key.phrase}, got {config.get(name)!r}")

    dims = config["dims"] if ok["dims"] else []
    for entry in dims:
        refused(check_dim, entry, "dims entry")
    if ok["tolerance"] and ok["violation_threshold"]:
        refused(check_thresholds, config["tolerance"], config["violation_threshold"])
    if ok["trials"] and config["trials"] == 1:
        warn("single-trial runs give verdicts from one sampled reparameterization")
    if ok["diffeo"]:
        unknown_fields("diffeo", config["diffeo"], "diffeo")
        diffeo_seed = config["diffeo"].get("seed", DEFAULTS["diffeo"]["seed"])
        refused(check_count, diffeo_seed, "diffeo seed")

    dim = dims[0] if dims else None  # the parameter count drift and trajectory use
    model_cfg, model = config.get("model"), None
    if model_cfg is not None:
        dim = None
        if ok["model"]:
            try:
                model = model_from_recipe(model_cfg)
                dim = model.param_dim
                unknown_fields("model", model_cfg, model_cfg["kind"])
            except ConfigurationError as exc:
                fatal(f"model recipe is invalid: {exc}")
        if dim is not None and dims and dims != [dim]:
            warn(f"custom model fixes the dimension to {dim}; dims entry is ignored")

    data_cfg = config.get("dataset")
    if ok["dataset"] and data_cfg is not None:
        if model_cfg is None:
            fatal("dataset requires an explicit model recipe")
        unknown_fields("dataset", data_cfg, "dataset")
        path = data_cfg.get("path")
        if not isinstance(path, str):
            fatal(f"dataset path must be a string, got {path!r}")
        elif model is not None:
            refused(load_dataset, path, model.in_dim, model.out_dim)
    names = config["algorithms"] if ok["algorithms"] else []
    if ok["noise_variance"] and any(FLOW_RECIPES[name].metric == "fisher" for name in names):
        # the Fisher rows' weight; the default recipe's model has one output
        refused(fisher_weight, 1 if model is None else model.out_dim, config["noise_variance"])

    experiment = config.get("experiment")
    theta0 = config.get("theta0") if ok["theta0"] else None
    if experiment in ("drift", "trajectory") and theta0 is not None and dim:
        if len(theta0) != dim:
            fatal(f"theta0 has length {len(theta0)}, expected {dim}")

    param_counts = dims if model_cfg is None else [dim] if dim else []
    if experiment in ("table", "classify") and ok["families"]:
        # the first refused (dim, family) pair, as the table run would meet it
        any(refused(check_family_dim, f, n) for n in param_counts for f in config["families"])
    if experiment == "drift" and ok["diffeo"] and dim:
        refused(check_family_dim, config["diffeo"]["family"], dim)
    if experiment == "drift" and ok["h_list"] and ok["horizon"]:
        refused(drift_step_counts, config["h_list"], config["horizon"])
    if experiment == "trajectory" and ok["steps"]:
        refused(check_step_count, config["steps"])
    return out


def diagnose(config: dict) -> list[Diagnostic]:
    """`validate`'s diagnostics and, for a drift config with no fatal one, a
    warning per step size whose step count misses the horizon by more than
    1e-9 relative, naming the flow time the run reaches instead.

    These warnings describe the run, not the config, so they stay out of
    `validate`'s list; `run` and the `validate` command print this one.
    """
    diagnostics = validate(config)
    if any(d.severity == "fatal" for d in diagnostics) or config["experiment"] != "drift":
        return diagnostics
    h_list, horizon = config["h_list"], config["horizon"]
    for h, steps in zip(h_list, drift_step_counts(h_list, horizon)):
        reached = steps * h
        if abs(reached - horizon) > 1e-9 * horizon:
            message = f"h = {h}: step count {steps} reaches flow time {reached:.6g}"
            diagnostics.append(Diagnostic("warning", f"{message}, not the horizon {horizon}"))
    return diagnostics


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
        model = model_from_recipe(model_cfg)
        data_cfg = config.get("dataset")
        if data_cfg is None:
            data = synthetic_dataset(model, 2 * model.param_dim, seed)
        else:
            data = load_dataset(data_cfg["path"], model.in_dim, model.out_dim)
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
    if theta0 is None:
        theta0 = np.random.default_rng([config["seed"], dim, 202]).uniform(-1.0, 1.0, size=dim)
    theta = np.asarray(theta0, dtype=float)
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
                "slope": drift.slope if math.isfinite(drift.slope) else None,
                "points": [[h, d] for h, d in drift.points],
                "diverged": list(drift.diverged),
            }
        )
        rows = ["h,defect"] + [f"{h!r},{d!r}" for h, d in drift.points]
        csvs[f"drift_{algorithm}.csv"] = "\n".join(rows) + "\n"
        if math.isfinite(drift.slope):
            slope = f"slope {drift.slope:.3f}"
        else:
            slope = "slope undefined (fewer than two defects above roundoff)"
        text_lines.append(
            f"{algorithm} under {diffeo_cfg['family']} ({drift.scheme}): "
            f"{slope} over {len(drift.points)} step sizes"
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
    diagnostics = diagnose(config)
    for diag in diagnostics:
        print(diag, file=sys.stderr)
    if any(d.severity == "fatal" for d in diagnostics):
        return 2

    report, text, csvs, status = _RUNNERS[config["experiment"]](config)
    report = {"config": config, **report}

    out_dir = Path(config["out_dir"])
    payloads = {
        "report.json": report_json_text(report),
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


def report_json_text(report: dict) -> str:
    """The bytes `run` writes to report.json: sorted keys, indent 2, a final newline."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


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
            diagnostics = diagnose(config)
            print("\n".join(map(str, diagnostics)) or "config ok")
            return 2 if any(d.severity == "fatal" for d in diagnostics) else 0
        # flag > file > default
        flags = {"seed": args.seed, "out_dir": args.out, "experiment": args.experiment}
        config.update((name, flag) for name, flag in flags.items() if flag is not None)
        return run(config)
    except EquiflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
