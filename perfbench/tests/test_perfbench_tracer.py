"""The traced run's wrapper installer: every binding patched, originals restored,
call counts repeatable, and the per-layer metric names those BENCHMARK.json lists."""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import equiflow  # noqa: E402
import equiflow.flows  # noqa: E402
import equiflow.harness  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, equiflow_modules, installed  # noqa: E402
from worker import run_pass  # noqa: E402

ROOT = Path(__file__).resolve().parents[2]


def bindings():
    """Every attribute of every equiflow module and traced class, by identity."""
    owners = equiflow_modules() + [
        equiflow.FlowField,
        equiflow.Connection,
        equiflow.FlowBuilder,
    ]
    return {(id(owner), name): value for owner in owners for name, value in vars(owner).items()}


def small_table():
    return workloads.TableWorkload("linear", seed=0, dims=(2,), trials=1)


def small_drift():
    workload = workloads.DriftWorkload(seed=0)
    workload.h_list = (0.1, 0.05)
    return workload


def traced(workload):
    tracer = Tracer()
    with installed(tracer):
        record = run_pass(workload, tracer)
    return record, tracer.metrics()


def test_every_binding_is_patched_and_restored():
    before = bindings()
    original = equiflow.flows.ggn_matrix
    with installed(Tracer()):
        patched = equiflow.flows.ggn_matrix
        assert patched is not original
        assert equiflow.harness.ggn_matrix is patched and equiflow.ggn_matrix is patched
        homes = [sys.modules[f"equiflow.{m}"] for m in ("geometry", "harness", "integrate")]
        assert len({id(m.pushforward_state) for m in homes + [equiflow]}) == 1
        assert equiflow.pushforward_state is not before[id(homes[0]), "pushforward_state"]
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_restored_after_an_error():
    before = bindings()
    try:
        with installed(Tracer()):
            raise RuntimeError("stop")
    except RuntimeError:
        pass
    assert all(bindings()[key] is value for key, value in before.items())


def test_traced_counts_repeat_and_results_are_unchanged():
    for make in (small_table, small_drift):
        plain = run_pass(make())
        first, metrics = traced(make())
        second, again = traced(make())
        assert first["digest"] == second["digest"] == plain["digest"]
        counts = {k: v for k, v in metrics.items() if not k.endswith(".self_ms")}
        assert counts == {k: v for k, v in again.items() if not k.endswith(".self_ms")}
        assert all(v >= 0 for v in metrics.values())


def test_counts_land_on_their_layers():
    _, table = traced(small_table())
    assert table["harness.classify_equivariance.calls"] == 45
    assert table["flows.call.ggn.calls"] == 2 * 5 * 2  # (base + barred) x families x states
    assert table["harness.precheck.calls"] > 0 and table["flows.ggn_matrix.calls"] > 0
    assert 0.0 < table["harness.precheck.accept_ratio"] <= 1.0
    assert table["integrate.integrate.calls"] == 0

    _, drift = traced(small_drift())
    steps = 2 * 4 * (10 + 20)  # base and barred, four studies, steps per h
    assert drift["integrate.steps"] == steps
    assert drift["integrate.rhs_evals"] == 2 * 2 * (10 + 20) * (1 + 4)
    assert drift["integrate.integrate.calls"] == 2 * 4 * (5 + 10)  # 2-step chunks
    assert drift["harness.precheck.calls"] == 0 and drift["diffcalc.hessian.calls"] == 0


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["per_layer"]}
    assert declared == set(Tracer().metrics()) | {"trace_overhead_share"}
