"""Acceptance gate: every criterion at its stated tolerance, one line each."""

import json
import time
import zlib

import numpy as np

import equiflow.cli as cli
from equiflow import (
    FAMILIES,
    FlowBuilder,
    GGNWeight,
    affine_diffeomorphism,
    classify_equivariance,
    dataset_loss,
    default_flow_builder,
    default_recipe,
    equivariance_drift,
    fd_gradient,
    fd_jacobian,
    fisher_matrix,
    ggn_matrix,
    gradient,
    hessian,
    integrate,
    jacobian,
    mlp_tanh,
    linear_model,
    Dataset,
    naturality_residual,
    nesterov_flow,
    pullback_connection,
    pullback_loss,
    reproduce_table,
    sample_diffeomorphism,
    second_derivatives,
    state_order1,
    state_order2,
)
from equiflow.flows import XI_MIN
from conftest import fd_scalar_corpus, fd_vector_corpus, quadratic_loss, transform_bilinear


def report(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_table_reproduction():
    start = time.perf_counter()
    table = reproduce_table(
        dims=(2, 4, 8), trials_per_family=32, states_per_trial=2, seed=0
    )
    elapsed = time.perf_counter() - start
    ok = table.matches_expected and elapsed < 300.0
    report(
        1,
        ok,
        f"verdict matrix over N in (2,4,8), 32 trials/family: "
        f"{len(table.mismatches)} mismatches in {elapsed:.1f}s",
    )


def test_criterion_2_derivative_oracle():
    worst = 0.0
    checks = 0
    for name, f in fd_scalar_corpus():
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        for _ in range(10):
            theta = rng.uniform(-2.0, 2.0, f.dim)
            fd_g = fd_gradient(f.value, theta)
            err = np.max(np.abs(gradient(f, theta) - fd_g)) / max(
                np.max(np.abs(fd_g)), 1e-8
            )
            worst = max(worst, err)
            fd_h = fd_jacobian(lambda t: gradient(f, t), theta)
            fd_h = 0.5 * (fd_h + fd_h.T)
            err = np.max(np.abs(hessian(f, theta) - fd_h)) / max(
                np.max(np.abs(fd_h)), 1e-8
            )
            worst = max(worst, err)
            checks += 2
    for name, m in fd_vector_corpus():
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        for _ in range(10):
            theta = rng.uniform(-2.0, 2.0, m.in_dim)
            fd_j = fd_jacobian(m.value, theta)
            err = np.max(np.abs(jacobian(m, theta) - fd_j)) / max(
                np.max(np.abs(fd_j)), 1e-8
            )
            worst = max(worst, err)
            checks += 1
    report(
        2,
        worst <= 1e-5,
        f"{checks} finite-difference checks, worst relative error {worst:.2e}",
    )


def test_criterion_3_hand_derived_residuals():
    gd_builder = FlowBuilder("gd", quadratic_loss(np.eye(1)))
    g = affine_diffeomorphism([[2.0]])
    gd_res = naturality_residual(gd_builder.build(), gd_builder.build(g), g, state_order1([1.0]))
    gd_ok = abs(gd_res - 1.5) <= 1e-9

    adam_builder = FlowBuilder("adam", quadratic_loss(np.eye(1)))
    g = affine_diffeomorphism([[0.5]])
    adam1 = naturality_residual(
        adam_builder.build(), adam_builder.build(g), g, state_order1([1.0])
    )
    adam_builder = FlowBuilder("adam", quadratic_loss(np.eye(2)))
    g = affine_diffeomorphism(0.5 * np.eye(2))
    adam2 = naturality_residual(
        adam_builder.build(), adam_builder.build(g), g, state_order1([1.0, -1.0])
    )
    adam_ok = abs(adam1 - 0.5) <= 1e-3 and abs(adam2 - 0.5 * np.sqrt(2)) <= 1e-3
    report(
        3,
        gd_ok and adam_ok,
        f"gd doubling residual {gd_res:.12f} (want 1.5), adam inverse-scaling "
        f"residuals {adam1:.6f}, {adam2:.6f} (want 0.5, 0.5*sqrt(2))",
    )


def test_criterion_4_fisher_ggn_identity():
    rng = np.random.default_rng(2024)
    identical = 0
    for trial in range(5):
        model = mlp_tanh(1, 1, 1) if trial % 2 else linear_model(3, 2)
        sigma2 = float(rng.uniform(0.25, 4.0))
        data = Dataset(
            rng.uniform(-1.5, 1.5, (5, model.in_dim)),
            rng.uniform(-1.0, 1.0, (5, model.out_dim)),
        )
        theta = rng.uniform(-1.0, 1.0, model.param_dim)
        fisher = fisher_matrix(model, data, sigma2, theta)
        ggn = ggn_matrix(model, data, GGNWeight(np.eye(model.out_dim) / sigma2), theta)
        identical += int(np.array_equal(fisher, ggn))
    report(4, identical == 5, f"{identical}/5 seeded pairs bit-identical")


def test_criterion_5_covariant_hessian_tensoriality():
    model, data = default_recipe(3, seed=0)
    loss = dataset_loss(model, data)
    rng = np.random.default_rng(16)
    worst_cov = 0.0
    smallest_plain = np.inf
    for k in range(16):
        g = sample_diffeomorphism("shear", 3, np.random.default_rng([5, k]))
        theta = rng.uniform(-1.5, 1.5, 3)
        theta_bar = g.forward(theta)
        grad = gradient(loss, theta)
        d2 = second_derivatives(g.inverse_map, theta_bar)
        # preconditions: nonzero gradient, genuinely non-affine shear here
        assert np.linalg.norm(grad) >= 1e-2
        assert np.max(np.abs(d2)) >= 1e-2

        transported = transform_bilinear(g, hessian(loss, theta), theta_bar)
        barred_loss = pullback_loss(g, loss)
        plain = hessian(barred_loss, theta_bar)
        gamma = pullback_connection(g).christoffel_at(theta_bar)
        covariant = plain - np.einsum(
            "kij,k->ij", gamma, gradient(barred_loss, theta_bar)
        )
        worst_cov = max(worst_cov, float(np.max(np.abs(covariant - transported))))
        smallest_plain = min(
            smallest_plain, float(np.max(np.abs(plain - transported)))
        )
    ok = worst_cov <= 1e-7 and smallest_plain >= 1e-3
    report(
        5,
        ok,
        f"16 shear pairs: covariant-Hessian law error <= {worst_cov:.2e}, "
        f"plain-Hessian violation >= {smallest_plain:.2e}",
    )


def test_criterion_6_discretization_drift():
    start = time.perf_counter()
    h_list = [1e-1, 3e-2, 1e-2, 3e-3, 1e-3]
    slopes = {}
    rk4_below = True
    for algorithm in ("ngd", "ggn"):
        builder = default_flow_builder(algorithm, 2, seed=0)
        g = sample_diffeomorphism("shear", 2, np.random.default_rng([6, 2]))
        s0 = state_order1([0.8, -0.6])
        euler = equivariance_drift(builder, g, s0, h_list, horizon=1.0, scheme="euler")
        rk4 = equivariance_drift(builder, g, s0, h_list, horizon=1.0, scheme="rk4")
        slopes[algorithm] = euler.slope
        rk4_below &= all(
            dr < de for (_, de), (_, dr) in zip(euler.points, rk4.points)
        )
    elapsed = time.perf_counter() - start
    ok = (
        all(0.8 <= s <= 1.3 for s in slopes.values())
        and rk4_below
        and elapsed < 120.0
    )
    report(
        6,
        ok,
        f"euler slopes {slopes['ngd']:.3f} (ngd), {slopes['ggn']:.3f} (ggn); "
        f"rk4 below euler at every h: {rk4_below}; {elapsed:.1f}s",
    )


def test_criterion_7_accelerated_flow_reduction():
    loss = quadratic_loss(np.array([[2.0, 1.0], [1.0, 3.0]]))
    nag = nesterov_flow(loss)
    acc = nesterov_flow(loss, lambda t: np.eye(2), r=3.0)
    worst = 0.0
    for seed in range(3):
        rng = np.random.default_rng(seed)
        s0 = state_order2(rng.uniform(-1, 1, 2), np.zeros(2), time=XI_MIN)
        t_nag = integrate(nag, s0, h=0.01, steps=150, scheme="rk4")
        t_acc = integrate(acc, s0, h=0.01, steps=150, scheme="rk4")
        for a, b in zip(t_nag.states, t_acc.states):
            worst = max(worst, float(np.max(np.abs(a.as_vector() - b.as_vector()))))
    reduction_ok = worst <= 1e-12

    builder = default_flow_builder("nngd", 4, seed=0)
    reports = classify_equivariance(
        builder, trials_per_family=8, states_per_trial=2, tolerance=1e-7, seed=0
    )
    families_ok = all(r.verdict == "equivariant" for r in reports)
    report(
        7,
        reduction_ok and families_ok,
        f"identity-preconditioner trajectories match nesterov to {worst:.1e}; "
        f"accelerated natural-gradient flow equivariant on all "
        f"{len(reports)}/{len(FAMILIES)} families",
    )


def test_criterion_8_determinism(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps(
            {
                "experiment": "table",
                "seed": 0,
                "dims": [2],
                "algorithms": ["gd", "adam", "ngd"],
                "trials": 2,
                "states_per_trial": 1,
                "out_dir": str(tmp_path / "out"),
            }
        )
    )
    assert cli.main(["run", str(config_path)]) == 0
    out = tmp_path / "out"
    first = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert cli.main(["run", str(config_path)]) == 0
    second = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    ok = first == second and "report.json" in first
    report(8, ok, f"repeated run produced byte-identical {sorted(first)}")
