import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import equiflow.cli as cli
from equiflow import (
    ConfigurationError,
    DriftResult,
    catalog,
    classify_equivariance,
    default_flow_builder,
    equivariance_drift,
    integrate,
    load_dataset,
    reproduce_table,
    state_order1,
)
from equiflow.models import model_from_recipe


def write_config(tmp_path, name="config.json", **overrides):
    path = tmp_path / name
    path.write_text(json.dumps(overrides))
    return path


def drift_study(h_list):
    """The library drift study of gd at N = 2 under a shear, on the given step sizes."""
    start = state_order1([0.5, -0.5])
    return equivariance_drift(default_flow_builder("gd", 2), catalog("shear", 2, 1), start, h_list)


class TestValidate:
    def test_default_config_is_clean(self, tmp_path):
        path = write_config(tmp_path)
        assert cli.validate(cli.load_config(path)) == []

    def test_dimension_cap(self, tmp_path):
        path = write_config(tmp_path, dims=[32])
        diags = cli.validate(cli.load_config(path))
        assert any(d.severity == "fatal" and "dimension cap" in d.message for d in diags)

    def test_tolerance_ordering(self, tmp_path):
        path = write_config(tmp_path, tolerance=1e-2, violation_threshold=1e-3)
        diags = cli.validate(cli.load_config(path))
        assert any(d.severity == "fatal" and "below" in d.message for d in diags)

    def test_unknown_algorithm_named(self, tmp_path):
        path = write_config(tmp_path, algorithms=["gd", "sgdm"])
        diags = cli.validate(cli.load_config(path))
        assert any("sgdm" in d.message and d.severity == "fatal" for d in diags)

    def test_unknown_family_named(self, tmp_path):
        path = write_config(tmp_path, families=["translation", "conformal"])
        diags = cli.validate(cli.load_config(path))
        assert any("conformal" in d.message for d in diags)

    def test_unknown_key_warns(self, tmp_path):
        path = write_config(tmp_path, learning_rate=0.1)
        diags = cli.validate(cli.load_config(path))
        assert [d.severity for d in diags] == ["warning"]

    def test_validate_command_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path, out_dir="fresh_out")
        assert cli.main(["validate", str(path)]) == 0
        assert not (tmp_path / "fresh_out").exists()

    @staticmethod
    def _dataset_refused(tmp_path, data, model, message):
        # the fatal diagnostics for a dataset config; run must exit 2 and write nothing
        out = tmp_path / "out"
        path = write_config(
            tmp_path,
            experiment="classify",
            dims=[2],
            model=model,
            dataset={"path": str(data)},
            out_dir=str(out),
        )
        diags = cli.validate(cli.load_config(path))
        assert [str(d) for d in diags] == [f"fatal: {message}"]
        assert cli.main(["run", str(path)]) == 2
        assert not out.exists()

    def test_dataset_dims_mandatory(self, tmp_path):
        # the dataset's sizes come from the model, so the model must name them
        data = tmp_path / "data.csv"
        data.write_text("0.5,1.0\n")
        self._dataset_refused(
            tmp_path,
            data,
            {"kind": "linear"},
            "model recipe is invalid: model in_dim must be a positive integer, got None",
        )
        self._dataset_refused(tmp_path, data, None, "dataset requires an explicit model recipe")

    def test_dataset_dims_must_match_the_model(self, tmp_path):
        # linear in_dim 2 reads 2+1 columns; the refusal is load_dataset's own
        data = tmp_path / "data.csv"
        data.write_text("0.5,1.0\n-0.5,0.2\n")
        with pytest.raises(ConfigurationError) as refusal:
            load_dataset(data, 2, 1)
        assert "data.csv has 2 columns, expected 2+1" in str(refusal.value)
        self._dataset_refused(tmp_path, data, {"kind": "linear", "in_dim": 2}, refusal.value)

    def test_missing_dataset_file_is_fatal(self, tmp_path):
        data = tmp_path / "missing.csv"
        with pytest.raises(ConfigurationError) as refusal:
            load_dataset(data, 2, 1)
        assert "cannot read dataset" in str(refusal.value)
        self._dataset_refused(tmp_path, data, {"kind": "linear", "in_dim": 2}, refusal.value)

    def test_dataset_sizes_named_in_the_config_are_ignored(self, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("0.5,1.0\n-0.25,0.5\n")
        dataset = {"path": str(data), "in_dim": 1, "out_dim": 1}
        reports = []
        for name, fields in (("named", dataset), ("bare", {"path": str(data)})):
            out = tmp_path / name
            path = write_config(
                tmp_path,
                name=f"{name}.json",
                experiment="trajectory",
                algorithms=["gd"],
                steps=5,
                dims=[1],
                model={"kind": "linear", "in_dim": 1},
                dataset=fields,
                out_dir=str(out),
            )
            diags = cli.validate(cli.load_config(path))
            if name == "named":
                assert [str(d) for d in diags] == [
                    "warning: unknown dataset key 'in_dim' is ignored",
                    "warning: unknown dataset key 'out_dim' is ignored",
                ]
            else:
                assert diags == []
            assert cli.main(["run", str(path)]) == 0
            reports.append(json.loads((out / "report.json").read_text())["results"])
        assert reports[0] == reports[1]

    @pytest.mark.parametrize(
        "config",
        [
            {"experiment": "drift", "h_list": [1e-9]},
            {"experiment": "trajectory", "steps": 1000000000},
            {"experiment": "table", "dims": [1]},
            {"experiment": "drift", "dims": [1], "diffeo": {"family": "euclidean"}},
            {"experiment": "drift", "dims": [2], "h_list": [1e-320]},
        ],
        ids=[
            "drift-steps",
            "trajectory-steps",
            "one-parameter-table",
            "one-parameter-drift",
            "drift-steps-not-finite",
        ],
    )
    def test_runs_that_cannot_finish_or_decide_are_fatal(self, tmp_path, config):
        out = tmp_path / "out"
        path = write_config(tmp_path, algorithms=["ngd"], out_dir=str(out), **config)
        diags = cli.validate(cli.load_config(path))
        assert [d.severity for d in diags] == ["fatal"]
        assert cli.main(["run", str(path)]) == 2
        assert not out.exists()

    def test_repeated_step_size_is_fatal(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(
            tmp_path,
            experiment="drift",
            algorithms=["gd"],
            dims=[2],
            h_list=[0.1, 0.1],
            out_dir=str(out),
        )
        diags = cli.validate(cli.load_config(path))
        assert [d.severity for d in diags] == ["fatal"]
        assert diags[0].message.startswith("h_list must be a non-empty list of distinct")
        assert cli.main(["run", str(path)]) == 2
        assert not out.exists()

    def test_trajectory_at_the_step_cap_validates(self, tmp_path):
        path = write_config(tmp_path, experiment="trajectory", steps=cli.MAX_STEPS)
        assert cli.validate(cli.load_config(path)) == []

    def test_one_parameter_table_without_degenerate_families(self, tmp_path):
        out = tmp_path / "out"
        families = ["translation", "signed-permutation", "affine"]
        path = write_config(tmp_path, dims=[1], families=families, trials=4, out_dir=str(out))
        assert cli.main(["run", str(path)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert len(report["table"]["reports"]) == 27
        assert report["table"]["mismatches"] == []

    @pytest.mark.parametrize(
        "config, key",
        [
            ({"experiment": "drift", "diffeo": {"family": "shear", "sed": 7}}, "sed"),
            ({"model": {"kind": "linear", "in_dim": 2, "hidden": 3}, "dims": [2]}, "hidden"),
            ({"model": {"kind": "linear", "in_dim": 2, "bias": False}, "dims": [2]}, "bias"),
        ],
        ids=["diffeo", "linear-hidden", "linear-bias"],
    )
    def test_unknown_object_key_warns(self, tmp_path, config, key):
        diags = cli.validate(cli.load_config(write_config(tmp_path, **config)))
        assert [d.severity for d in diags] == ["warning"]
        assert repr(key) in diags[0].message

    @pytest.mark.parametrize(
        "model",
        [
            {"kind": "linear", "in_dim": 2.7},
            {"kind": "linear", "in_dim": 0},
            {"kind": "mlp-tanh", "in_dim": 1, "hidden": True},
            {"kind": "mlp-tanh", "in_dim": 1, "hidden": 1, "bias": "false"},
            {"kind": "mlp-tanh", "in_dim": 1},
            {"kind": ["linear"], "in_dim": 1},
        ],
        ids=[
            "fractional-size",
            "zero-size",
            "boolean-size",
            "string-bias",
            "missing-size",
            "list-kind",
        ],
    )
    def test_model_recipe_must_be_exact(self, tmp_path, model):
        out = tmp_path / "out"
        path = write_config(tmp_path, model=model, out_dir=str(out))
        diags = cli.validate(cli.load_config(path))
        assert any(d.severity == "fatal" and "model" in d.message for d in diags)
        assert cli.main(["run", str(path)]) == 2
        assert not out.exists()

    def test_boolean_bias_sets_the_parameter_count(self, tmp_path):
        model = {"kind": "mlp-tanh", "in_dim": 1, "hidden": 1, "bias": False}
        path = write_config(tmp_path, model=model, dims=[2])
        assert cli.validate(cli.load_config(path)) == []
        assert model_from_recipe(model).param_dim == 2

    def test_non_finite_dataset_rejected(self, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("0.5,1.0\nnan,0.5\n")
        out = tmp_path / "out"
        path = write_config(
            tmp_path,
            model={"kind": "linear", "in_dim": 1},
            dataset={"path": str(data)},
            out_dir=str(out),
        )
        diags = cli.validate(cli.load_config(path))
        assert any(d.severity == "fatal" and "row 2" in d.message for d in diags)
        assert cli.main(["run", str(path)]) == 2
        assert not out.exists()

    def test_seed_mandatory(self, tmp_path):
        path = write_config(tmp_path, seed="zero")
        diags = cli.validate(cli.load_config(path))
        assert any("seed" in d.message for d in diags)

    @pytest.mark.parametrize(
        "overrides, key",
        [
            ({"seed": -1}, "seed"),
            ({"seed": True}, "seed"),
            ({"seed": 1.0}, "seed"),
            ({"diffeo": {"family": "shear", "seed": -1}}, "diffeo seed"),
            ({"diffeo": {"family": "shear", "seed": True}}, "diffeo seed"),
            ({"dims": [True]}, "dims"),
            ({"trials": True}, "trials"),
            ({"states_per_trial": True}, "states_per_trial"),
            ({"steps": True}, "steps"),
            ({"steps": 2.5}, "steps"),
            ({"h": True}, "h "),
            ({"tolerance": True}, "tolerance"),
            ({"violation_threshold": True}, "violation_threshold"),
            ({"noise_variance": True}, "noise_variance"),
            ({"r": True}, "r "),
            ({"epsilon": True}, "epsilon"),
            ({"horizon": True}, "horizon"),
            ({"horizon": float("inf")}, "horizon"),
            ({"tolerance": float("nan")}, "tolerance"),
            ({"h_list": [0.1, True]}, "h_list"),
            ({"theta0": [0.5, False]}, "theta0"),
            ({"theta0": [0.5, float("nan")]}, "theta0"),
            # 401-digit JSON integers, which raised a raw OverflowError: as a noise
            # variance at the first ngd evaluation, as a theta0 entry at the start state
            ({"noise_variance": 10**400}, "noise_variance"),
            ({"h": 10**400}, "h "),
            ({"theta0": [10**400, 0.5]}, "theta0"),
        ],
        ids=[
            "negative-seed",
            "boolean-seed",
            "float-seed",
            "negative-diffeo-seed",
            "boolean-diffeo-seed",
            "boolean-dim",
            "boolean-trials",
            "boolean-states-per-trial",
            "boolean-steps",
            "fractional-steps",
            "boolean-h",
            "boolean-tolerance",
            "boolean-violation-threshold",
            "boolean-noise-variance",
            "boolean-r",
            "boolean-epsilon",
            "boolean-horizon",
            "infinite-horizon",
            "nan-tolerance",
            "boolean-h-list-entry",
            "boolean-theta0-entry",
            "nan-theta0-entry",
            "huge-noise-variance",
            "huge-h",
            "huge-theta0-entry",
        ],
    )
    def test_seeds_counts_and_numbers_are_exact(self, tmp_path, overrides, key):
        out = tmp_path / "out"
        path = write_config(tmp_path, out_dir=str(out), **overrides)
        diags = cli.validate(cli.load_config(path))
        assert any(d.severity == "fatal" and d.message.startswith(key) for d in diags), diags
        assert cli.main(["run", str(path)]) == 2
        assert not out.exists()

    # a value of every JSON type, with the edge cases of numbers and lists
    ODD_VALUES = (None, True, 0, -1, 1.5, float("nan"), "x", [], [True], {})

    @pytest.mark.parametrize("name", sorted(cli.KEYS))
    def test_every_key_rejects_odd_values_with_a_diagnostic(self, tmp_path, monkeypatch, name):
        monkeypatch.chdir(tmp_path)
        for index, value in enumerate(self.ODD_VALUES):
            path = write_config(tmp_path, f"{index}.json", **{name: value})
            diags = cli.validate(cli.load_config(path))
            if cli.KEYS[name].check(value):
                continue
            assert any(
                d.severity == "fatal" and d.message.startswith(name) for d in diags
            ), (value, diags)
            assert cli.main(["run", str(path)]) == 2
            assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
                f"{i}.json" for i in range(index + 1)
            )

    @pytest.mark.parametrize(
        "overrides, expected",
        [
            ({"experiment": "drift", "dims": [2]}, 2),
            ({"experiment": "trajectory", "model": {"kind": "linear", "in_dim": 4}}, 4),
        ],
        ids=["drift-dims", "trajectory-model"],
    )
    def test_theta0_length_is_checked(self, tmp_path, overrides, expected):
        out = tmp_path / "out"
        path = write_config(tmp_path, theta0=[0.1, 0.2, 0.3], out_dir=str(out), **overrides)
        diags = cli.validate(cli.load_config(path))
        fatal = [d.message for d in diags if d.severity == "fatal"]
        assert fatal == [f"theta0 has length 3, expected {expected}"]
        assert cli.main(["run", str(path)]) == 2
        assert not out.exists()
        path = write_config(tmp_path, theta0=[0.1] * expected, out_dir=str(out), **overrides)
        assert not any(d.severity == "fatal" for d in cli.validate(cli.load_config(path)))

    # (config, the library entry point's call on the same input)
    LIBRARY_REFUSALS = {
        "drift-steps-not-finite": (
            {"experiment": "drift", "dims": [2], "h_list": [1e-320]},
            lambda: drift_study([1e-320]),
        ),
        "drift-steps": (
            {"experiment": "drift", "dims": [2], "h_list": [1e-9]},
            lambda: drift_study([1e-9]),
        ),
        "trajectory-steps": (
            {"experiment": "trajectory", "dims": [2], "steps": 10**9},
            lambda: integrate(
                default_flow_builder("gd", 2).build(), state_order1([0.5, -0.5]), 0.01, 10**9
            ),
        ),
        "one-parameter-table": (
            {"experiment": "table", "dims": [1], "trials": 2},
            lambda: reproduce_table(dims=[1], algorithms=["gd"], trials_per_family=2),
        ),
        "one-parameter-euclidean-drift": (
            {"experiment": "drift", "dims": [1], "diffeo": {"family": "euclidean"}},
            lambda: catalog("euclidean", 1, 1),
        ),
        "dataset-dims": (
            {
                "experiment": "classify",
                "model": {"kind": "linear", "in_dim": 2},
                "dataset": {"path": "data.csv"},
            },
            lambda: load_dataset("data.csv", 2, 1),
        ),
        "fisher-weight-overflow": (
            {"experiment": "classify", "dims": [2], "algorithms": ["ngd"], "noise_variance": 1e-320},
            lambda: replace(default_flow_builder("ngd", 2), noise_variance=1e-320),
        ),
        "tolerance-at-threshold": (
            {"tolerance": 1e-3, "violation_threshold": 1e-3},
            lambda: classify_equivariance(
                default_flow_builder("gd", 2), tolerance=1e-3, violation_threshold=1e-3
            ),
        ),
    }

    @pytest.mark.parametrize("case", sorted(LIBRARY_REFUSALS))
    def test_fatal_is_the_library_refusal(self, tmp_path, monkeypatch, case):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "data.csv").write_text("0.5,1.0\n-0.5,0.2\n")
        config, library_call = self.LIBRARY_REFUSALS[case]
        path = write_config(tmp_path, **{"algorithms": ["gd"], **config})
        fatal = [d.message for d in cli.validate(cli.load_config(path)) if d.severity == "fatal"]
        with pytest.raises(ConfigurationError) as refusal:
            library_call()
        assert fatal == [str(refusal.value)]

    def test_fisher_weight_overflow_stops_the_run(self, tmp_path, capsys):
        # validate used to pass it; run then warned of an overflow and failed
        out = tmp_path / "out"
        config = self.LIBRARY_REFUSALS["fisher-weight-overflow"][0]
        path = write_config(tmp_path, out_dir=str(out), **config)
        fatal = ["fatal: noise variance must have a finite reciprocal, got 1e-320"]
        assert cli.main(["validate", str(path)]) == 2
        assert capsys.readouterr().out.splitlines() == fatal
        assert cli.main(["run", str(path)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err.splitlines() == fatal

    @pytest.mark.parametrize(
        "config, status, error",
        [
            ({"experiment": "classify", "algorithms": ["ngd"]}, 2, "error: GGN form"),
            (
                {"experiment": "trajectory", "algorithms": ["nngd"], "steps": 5},
                2,
                "error: flow evaluation diverged: GGN form",
            ),
            ({"experiment": "drift", "algorithms": ["ngd"], "h_list": [0.1, 0.01]}, 1, None),
        ],
        ids=["classify", "trajectory", "drift"],
    )
    def test_overflowing_ggn_form_is_refused_by_name(self, tmp_path, capsys, config, status, error):
        # I / 6e-309 is finite, so validate passes it; J^T (M J) overflows at
        # states and data that no config rule sees, so the form refuses itself:
        # it used to warn of an overflow, and drift and trajectory raised
        # numpy's raw LinAlgError
        out = tmp_path / "out"
        path = write_config(tmp_path, dims=[2], noise_variance=6e-309, out_dir=str(out), **config)
        assert cli.main(["validate", str(path)]) == 0
        capsys.readouterr()
        assert cli.main(["run", str(path)]) == status
        if error is not None:
            (line,) = capsys.readouterr().err.splitlines()
            assert line.startswith(error) and "of linear non-finite at" in line
        else:
            (result,) = json.loads((out / "report.json").read_text())["results"]
            assert result["diverged"] == [0.1, 0.01] and result["points"] == []

    def test_step_sizes_that_miss_the_horizon_warn(self, tmp_path, capsys):
        # 0.03 and 0.003 take 33 and 333 steps: flow times 0.99 and 0.999
        out = tmp_path / "out"
        path = write_config(
            tmp_path, experiment="drift", dims=[2], algorithms=["gd"], out_dir=str(out)
        )
        config = cli.load_config(path)
        assert cli.validate(config) == []
        warnings = [
            "warning: h = 0.03: step count 33 reaches flow time 0.99, not the horizon 1.0",
            "warning: h = 0.003: step count 333 reaches flow time 0.999, not the horizon 1.0",
        ]
        assert [str(d) for d in cli.diagnose(config)] == warnings
        assert cli.main(["validate", str(path)]) == 0
        assert capsys.readouterr().out.splitlines() == warnings
        assert cli.main(["run", str(path)]) == 0
        assert capsys.readouterr().err.splitlines() == warnings
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["horizon"] == 1.0
        assert [h for h, _ in report["results"][0]["points"]] == cli.DEFAULTS["h_list"]


class TestRun:
    def test_malformed_config_no_partial_files(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        out = tmp_path / "out"
        code = cli.main(["run", str(bad), "--out", str(out)])
        assert code == 2
        assert not out.exists()

    def test_fatal_config_no_partial_files(self, tmp_path):
        path = write_config(tmp_path, dims=[99], out_dir=str(tmp_path / "nope"))
        assert cli.main(["run", str(path)]) == 2
        assert not (tmp_path / "nope").exists()

    def test_classify_run_and_reports(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(
            tmp_path,
            experiment="classify",
            algorithms=["gd"],
            families=["translation", "affine"],
            dims=[2],
            trials=2,
            states_per_trial=1,
            out_dir=str(out),
        )
        assert cli.main(["run", str(path)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["experiment"] == "classify"
        verdicts = {r["family"]: r["verdict"] for r in report["reports"]}
        assert verdicts == {"translation": "equivariant", "affine": "violated"}
        assert (out / "report.txt").read_text()

    def test_byte_identical_reports(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(
            tmp_path,
            experiment="classify",
            algorithms=["gd", "ngd"],
            families=["translation", "shear"],
            dims=[2],
            trials=2,
            states_per_trial=1,
            out_dir=str(out),
        )
        assert cli.main(["run", str(path)]) == 0
        first = (out / "report.json").read_bytes(), (out / "report.txt").read_bytes()
        assert cli.main(["run", str(path)]) == 0
        second = (out / "report.json").read_bytes(), (out / "report.txt").read_bytes()
        assert first == second

    def test_table_exit_status_follows_mismatches(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        path = write_config(
            tmp_path,
            experiment="table",
            algorithms=["gd"],
            families=["translation"],
            dims=[2],
            trials=1,
            out_dir=str(out),
        )
        assert cli.main(["run", str(path)]) == 0
        csv = (out / "verdicts.csv").read_text().splitlines()
        assert csv[0].startswith("dim,algorithm,family")
        assert len(csv) == 2

        # flip the one report's verdict to check the nonzero path
        import dataclasses

        real = cli.reproduce_table

        def flipped(**kwargs):
            table = real(**kwargs)
            ((dim, report),) = table.reports
            report = dataclasses.replace(report, verdict="violated")
            return dataclasses.replace(table, reports=((dim, report),))

        monkeypatch.setattr(cli, "reproduce_table", flipped)
        assert cli.main(["run", str(path)]) == 1

    def test_drift_run_outputs(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(
            tmp_path,
            experiment="drift",
            algorithms=["ngd"],
            dims=[2],
            h_list=[0.1, 0.03, 0.01],
            horizon=0.5,
            out_dir=str(out),
        )
        assert cli.main(["run", str(path)]) == 0
        rows = (out / "drift_ngd.csv").read_text().strip().splitlines()
        assert rows[0] == "h,defect"
        defects = [float(r.split(",")[1]) for r in rows[1:]]
        assert defects == sorted(defects, reverse=True)  # shrinking with h
        report = json.loads((out / "report.json").read_text())
        assert "slope" in report["results"][0]

    @pytest.mark.parametrize(
        "completed, status",
        [({"gd": (0.1, 0.01), "ngd": (0.01,)}, 0), ({"gd": (0.1, 0.01), "ngd": ()}, 1)],
        ids=["some-h-diverged", "an-algorithm-completed-none"],
    )
    def test_drift_exit_status_follows_completed_step_sizes(
        self, tmp_path, monkeypatch, completed, status
    ):
        # the report is written either way; the study fails when an algorithm
        # completed no step size
        def study(builder, g, start, h_list, **kwargs):
            done = completed[builder.algorithm]
            diverged = tuple(h for h in h_list if h not in done)
            return DriftResult("euler", tuple((h, h) for h in done), diverged, float("nan"))

        monkeypatch.setattr(cli, "equivariance_drift", study)
        out = tmp_path / "out"
        path = write_config(
            tmp_path,
            experiment="drift",
            algorithms=["gd", "ngd"],
            dims=[2],
            h_list=[0.1, 0.01],
            out_dir=str(out),
        )
        assert cli.main(["run", str(path)]) == status
        results = json.loads((out / "report.json").read_text())["results"]
        assert [len(result["points"]) for result in results] == [2, len(completed["ngd"])]

    def test_undefined_drift_slope_is_strict_json_null(self, tmp_path):
        # newton is equivariant under a translation: at most one defect is nonzero;
        # gd's two defects lie at roundoff, so neither slope is fitted
        out = tmp_path / "out"
        path = write_config(
            tmp_path,
            experiment="drift",
            dims=[2],
            algorithms=["gd", "newton"],
            diffeo={"family": "translation", "seed": 1},
            h_list=[0.1, 0.01],
            out_dir=str(out),
        )
        assert cli.main(["run", str(path)]) == 0

        def refuse(name):
            raise ValueError(f"report.json holds {name}, which is not JSON")

        report = json.loads((out / "report.json").read_text(), parse_constant=refuse)
        newton = report["results"][1]
        assert newton["algorithm"] == "newton"
        assert len(newton["points"]) == 2
        assert sum(d > 0.0 for _, d in newton["points"]) < 2
        assert newton["slope"] is None
        assert report["results"][0]["slope"] is None
        text = (out / "report.txt").read_text().splitlines()
        assert "slope undefined (fewer than two defects above roundoff)" in text[1]
        assert "nan" not in text[1]

    def test_trajectory_run_outputs(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(
            tmp_path,
            experiment="trajectory",
            algorithms=["gd", "nesterov"],
            dims=[2],
            h=0.05,
            steps=10,
            out_dir=str(out),
        )
        assert cli.main(["run", str(path)]) == 0
        lines = (out / "trajectory_gd.csv").read_text().strip().splitlines()
        assert lines[0] == "xi,theta_1,theta_2"
        assert len(lines) == 12
        lines2 = (out / "trajectory_nesterov.csv").read_text().strip().splitlines()
        assert lines2[0] == "xi,theta_1,theta_2,u_1,u_2"

    def test_seed_flag_overrides_file(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(
            tmp_path,
            experiment="classify",
            algorithms=["gd"],
            families=["translation"],
            dims=[2],
            trials=1,
            seed=5,
            out_dir=str(out),
        )
        assert cli.main(["run", str(path), "--seed", "9"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["seed"] == 9
        assert report["reports"][0]["seed"] == 9

    def test_negative_seed_flag_is_a_diagnostic(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = write_config(tmp_path, algorithms=["gd"], dims=[2], trials=1, out_dir=str(out))
        assert cli.main(["run", str(path), "--seed", "-1"]) == 2
        assert "fatal: seed must be a non-negative integer" in capsys.readouterr().err
        assert not out.exists()

    def test_custom_model_and_dataset_file(self, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("0.5,1.0\n-0.25,0.5\n1.0,0.0\n2.0,-0.5\n")
        out = tmp_path / "out"
        path = write_config(
            tmp_path,
            experiment="classify",
            algorithms=["ggn"],
            families=["shear"],
            trials=2,
            states_per_trial=1,
            model={"kind": "mlp-tanh", "in_dim": 1, "hidden": 1, "out_dim": 1},
            dataset={"path": str(data)},
            out_dir=str(out),
        )
        assert cli.main(["run", str(path)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["reports"][0]["dim"] == 4
        assert report["reports"][0]["verdict"] == "equivariant"

    def test_failed_write_leaves_previous_outputs(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        path = write_config(
            tmp_path,
            experiment="drift",
            algorithms=["gd", "ngd"],
            dims=[2],
            h_list=[0.1, 0.03],
            out_dir=str(out),
        )
        assert cli.main(["run", str(path)]) == 0
        before = {f.name: f.read_bytes() for f in out.iterdir()}
        assert len(before) == 4  # report.json, report.txt, two CSVs

        real_write = Path.write_text
        writes = []

        def write_then_fail(self, *args, **kwargs):
            writes.append(self.name)
            if len(writes) == 3:
                raise OSError("disk full")
            return real_write(self, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", write_then_fail)
        assert cli.main(["run", str(path), "--seed", "7"]) == 2
        assert len(writes) == 3
        assert {f.name: f.read_bytes() for f in out.iterdir()} == before

    def test_table_classifies_custom_model(self, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("0.5,1.0\n-0.25,0.5\n1.0,0.0\n2.0,-0.5\n")
        path = write_config(
            tmp_path,
            algorithms=["gd", "ggn"],
            families=["translation", "shear"],
            trials=2,
            states_per_trial=1,
            model={"kind": "mlp-tanh", "in_dim": 1, "hidden": 1, "out_dim": 1},
            dataset={"path": str(data)},
        )
        reports = {}
        for experiment in ("table", "classify"):
            out = tmp_path / experiment
            assert cli.main(["run", str(path), "--experiment", experiment, "--out", str(out)]) == 0
            reports[experiment] = json.loads((out / "report.json").read_text())
        cells = reports["table"]["table"]["reports"]
        assert [cell["dim"] for cell in cells] == [4] * 4
        assert cells == reports["classify"]["reports"]

    def test_experiment_flag_overrides(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(
            tmp_path,
            experiment="table",
            algorithms=["gd"],
            families=["translation"],
            dims=[2],
            trials=1,
            h=0.1,
            steps=5,
            out_dir=str(out),
        )
        assert cli.main(["run", str(path), "--experiment", "trajectory"]) == 0
        assert (out / "trajectory_gd.csv").exists()

    def test_drift_diffeo_seed_defaults_to_one(self, tmp_path):
        results = []
        for name, diffeo in (
            ("bare", {"family": "affine"}),
            ("seeded", {"family": "affine", "seed": 1}),
        ):
            out = tmp_path / name
            path = write_config(
                tmp_path,
                name=f"{name}.json",
                experiment="drift",
                algorithms=["gd"],
                dims=[2],
                h_list=[0.1, 0.03],
                horizon=0.5,
                diffeo=diffeo,
                out_dir=str(out),
            )
            assert cli.main(["run", str(path)]) == 0
            results.append(json.loads((out / "report.json").read_text())["results"])
        assert results[0] == results[1]

    def test_classify_lists_every_cell_without_families(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(
            tmp_path,
            experiment="classify",
            algorithms=["gd", "ngd"],
            families=[],
            dims=[2, 4],
            trials=1,
            out_dir=str(out),
        )
        assert cli.main(["run", str(path)]) == 0
        assert json.loads((out / "report.json").read_text())["reports"] == []
        blocks = (out / "report.txt").read_text().split("\n\n")
        assert [block.splitlines()[0] for block in blocks] == [
            "N = 2, gd",
            "N = 2, ngd",
            "N = 4, gd",
            "N = 4, ngd",
        ]

    def test_unrepresentable_step_count_is_a_diagnostic(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = write_config(
            tmp_path,
            experiment="drift",
            algorithms=["gd"],
            dims=[2],
            h_list=[1e-320],
            out_dir=str(out),
        )
        assert cli.main(["run", str(path)]) == 2
        assert "fatal: step count horizon / h is not finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "config",
        [
            {
                "experiment": "table",
                "dims": [2],
                "algorithms": ["gd", "adam", "ngd", "nngd"],
                "trials": 2,
            },
            {"experiment": "drift", "dims": [2], "h_list": [0.1, 0.03]},
        ],
        ids=["table", "drift"],
    )
    def test_outputs_do_not_depend_on_the_hash_seed(self, tmp_path, config):
        out = tmp_path / "out"
        path = write_config(tmp_path, out_dir=str(out), **config)
        src = str(Path(cli.__file__).resolve().parents[1])
        outputs = []
        for hash_seed in ("0", "4242"):
            env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hash_seed}
            subprocess.run(
                [sys.executable, "-m", "equiflow.cli", "run", str(path)],
                env=env,
                check=True,
                capture_output=True,
            )
            outputs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
            for f in out.iterdir():
                f.unlink()
        assert "report.json" in outputs[0]
        assert outputs[0] == outputs[1]


class TestReportBytes:
    # sha256 of report_json_text(reproduce_table(dims=(2, 4), trials_per_family=2,
    # seed=0).as_dict()), recorded when this test was added
    TABLE_SHA256 = "4aab3d4e5cf13e78ce1781d5a6be2e76066469fb0244befc3c805c0ddda221a0"

    def test_table_report_bytes_are_unchanged(self):
        """Reports stay byte-identical across refactors and speedups.  A change
        meant to alter the report updates this hash, and CHANGES.md logs it."""
        table = reproduce_table(dims=(2, 4), trials_per_family=2, seed=0)
        text = cli.report_json_text(table.as_dict())
        assert hashlib.sha256(text.encode()).hexdigest() == self.TABLE_SHA256
