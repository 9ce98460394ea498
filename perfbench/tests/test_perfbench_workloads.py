"""The benchmark's workloads time the work users run, and judge each unit.

Per-cell `classify_equivariance` calls give the reports of the per-builder
call `reproduce_table` makes, on both corpora, and the drift units, which
integrate in chunks, give the result of the criterion-6 call.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import equiflow  # noqa: E402
import workloads  # noqa: E402
from workloads import Cell, Study  # noqa: E402

TRIALS = 1
CRITERION_6_H = [1e-1, 3e-2, 1e-2, 3e-3, 1e-3]


def per_cell(kind, dims):
    workload = workloads.TableWorkload(kind, seed=0, dims=dims, trials=TRIALS)
    return workload, {cell: workload.run(cell, []) for cell in workload.units}


def test_linear_cells_match_reproduce_table():
    dims = workloads.LINEAR_TABLE["dims"]
    workload, results = per_cell("linear", dims)
    table = equiflow.reproduce_table(dims=dims, trials_per_family=TRIALS, seed=0)
    assert [(cell.dim, results[cell]) for cell in workload.units] == list(table.reports)


def test_tanh_cells_match_per_builder_classify():
    # reproduce_table has no corpus argument; it makes this call per builder.
    workload, results = per_cell("mlp-tanh", workloads.TANH_TABLE["dims"])
    families = list(equiflow.FAMILIES)
    for (dim, alg), builder in workload.builders.items():
        cells = [results[Cell(dim, alg, family)] for family in families]
        try:
            reports = equiflow.classify_equivariance(builder, trials_per_family=TRIALS, seed=0)
        except equiflow.EquiflowError as exc:
            # The per-builder call stops at the first failing family.
            first = next(i for i, r in enumerate(cells) if isinstance(r, equiflow.EquiflowError))
            assert type(cells[first]) is type(exc) and str(cells[first]) == str(exc)
            reports = equiflow.classify_equivariance(
                builder, families=families[:first], trials_per_family=TRIALS, seed=0
            )
            cells = cells[:first]
        assert cells == reports


def test_drift_units_give_the_criterion_6_result():
    workload = workloads.DriftWorkload(seed=0)
    g = equiflow.sample_diffeomorphism("shear", 2, np.random.default_rng([6, 2]))
    for point in np.random.default_rng(1).uniform(-1.5, 1.5, size=(8, 2)):
        assert np.array_equal(workload.g.forward(point), g.forward(point))
    assert list(workload.h_list) == CRITERION_6_H and workloads.DRIFT_HORIZON == 1.0
    start = equiflow.state_order1([0.8, -0.6])
    assert np.array_equal(workload.start.as_vector(), start.as_vector())
    assert workload.start.time == start.time

    # The two longest steps give the same result in a fraction of the time;
    # h = 0.03 takes 33 steps, so its last chunk is a short one.
    workload.h_list = tuple(CRITERION_6_H[:2])
    for study in workload.units:
        builder = equiflow.default_flow_builder(study.algorithm, 2, seed=0)
        expected = equiflow.equivariance_drift(
            builder, g, start, CRITERION_6_H[:2], horizon=1.0, scheme=study.scheme
        )
        laps = []
        assert workload.run(study, laps) == expected
        # Two builds, the pushed-forward start, then per h the base and barred
        # 2-step chunks and the pushforward of the base end state.
        kinds = [kind for kind, _ in laps]
        assert len(kinds) == 3 + 2 * 5 + 1 + 2 * 17 + 1
        assert kinds.count("base 0.03 x2") == 16 and kinds.count("base 0.03 x1") == 1


def test_judge_names_each_failure_kind():
    workload = workloads.TableWorkload("linear", seed=0, dims=(2,), trials=1)
    gd, ngd = Cell(2, "gd", "translation"), Cell(2, "ngd", "shear")
    wrong = equiflow.ResidualReport("gd", "translation", 8, 0.5, 0.1, "violated", 0, 1e-7)
    right = equiflow.ResidualReport("ngd", "shear", 8, 1e-12, 1e-13, "equivariant", 0, 1e-7)
    workload.units = [gd, ngd, gd, gd, gd]
    outcomes = workload.judge(
        [
            wrong,
            right,
            equiflow.ToleranceGapError("in the gap"),
            equiflow.SingularMatrixError("singular"),
            equiflow.ConfigurationError("no state"),
        ]
    )
    assert [o.kind for o in outcomes] == ["mismatch", "ok", "gap", "singular", "other"]
    assert outcomes[0].line() == "N=2 gd x translation: mismatch (violated, expected equivariant)"
    assert outcomes[2].line() == "N=2 gd x translation: gap (in the gap)"


def test_drift_judge_checks_slope_and_rk4():
    workload = workloads.DriftWorkload(seed=0)
    good_euler = equiflow.DriftResult("euler", ((0.1, 1e-2), (0.01, 1e-3)), (), 1.0)
    steep_euler = equiflow.DriftResult("euler", ((0.1, 1e-2), (0.01, 1e-4)), (), 2.0)
    rk4 = equiflow.DriftResult("rk4", ((0.1, 1e-6), (0.01, 1e-3)), (), 3.0)
    outcomes = workload.judge([good_euler, rk4, steep_euler, equiflow.DivergenceError("x")])
    assert [o.kind for o in outcomes] == ["ok", "mismatch", "mismatch", "other"]
    assert [o.unit for o in outcomes] == [str(s) for s in workload.units]
    assert workload.units[1] == Study("ngd", "rk4")


def test_digest_covers_residuals():
    report = equiflow.ResidualReport("gd", "shear", 8, 0.5, 0.1, "violated", 0, 1e-7)
    nudged = equiflow.ResidualReport(
        "gd", "shear", 8, float(np.nextafter(0.5, 1.0)), 0.1, "violated", 0, 1e-7
    )
    workload = workloads.TableWorkload("linear", seed=0, dims=(2,), trials=1)
    workload.units = [Cell(2, "gd", "shear")]
    assert workloads.digest(workload.judge([report])) != workloads.digest(
        workload.judge([nudged])
    )
