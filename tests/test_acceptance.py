"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

The randomized suites live in gtvmin.suites so the CLI selftest and this
module exercise the same code paths.
"""

import json
import time

import numpy as np
import scipy.linalg

from gtvmin import (
    GTVMinProblem,
    GraphParams,
    SimilarityGraph,
    StackedParams,
    cluster_average,
    deviation_bound_report,
    deviations,
    generate_planted_clusters,
    generate_scenario,
    lambda2,
    objective,
    objective_gradient,
    solve_exact,
)
from gtvmin.cli import main
from gtvmin.graph import ClusterSpec
from gtvmin.suites import (
    bound_suite,
    certificate_suite,
    cross_solver_suite,
    spectral_suite,
)


def _verdict(number: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_1_deviation_bound_holds_across_random_scenarios():
    start = time.monotonic()
    outcome = bound_suite(100)
    elapsed = time.monotonic() - start
    ok = (
        outcome.num_violations == 0
        and outcome.num_reports - outcome.num_degenerate >= 100
        and elapsed < 60.0
    )
    _verdict(
        1,
        ok,
        f"deviation bound satisfied on {outcome.num_reports - outcome.num_degenerate} "
        f"non-degenerate reports ({outcome.num_degenerate} degenerate, "
        f"{outcome.num_violations} violations) in {elapsed:.1f}s",
    )


def test_criterion_2_spectral_lower_bound():
    start = time.monotonic()
    outcome = spectral_suite(100)
    elapsed = time.monotonic() - start
    ok = (
        outcome.num_checks == 100
        and outcome.num_violations == 0
        and outcome.max_complete_mismatch <= 1e-9
        and elapsed < 10.0
    )
    _verdict(
        2,
        ok,
        f"spectral lower bound held on {outcome.num_checks} instances, complete-cluster "
        f"equality mismatch {outcome.max_complete_mismatch:.2e} in {elapsed:.1f}s",
    )


def test_criterion_3_single_cluster_corollary():
    # noiseless: boundary vanishes and the bound's right side is exactly zero
    noiseless = generate_scenario(
        rng_seed=303,
        cluster_sizes=[8],
        d=3,
        m_per_node=12,
        noise_std=0.0,
        separation=2.0,
        graph_params=GraphParams(p_in=1.0, p_out=0.0),
    )
    problem = GTVMinProblem.from_scenario(noiseless, 10.0)
    report = deviation_bound_report(problem, solve_exact(problem), noiseless.clusters[0])
    noiseless_ok = report.rhs == 0.0 and report.lhs <= 1e-9

    # noisy: the measured deviation shrinks monotonically along the alpha sweep
    noisy = generate_scenario(
        rng_seed=304,
        cluster_sizes=[8],
        d=3,
        m_per_node=12,
        noise_std=0.5,
        separation=2.0,
        graph_params=GraphParams(p_in=1.0, p_out=0.0),
    )
    lhs_values = []
    for alpha in (0.1, 1.0, 10.0, 100.0):
        p = GTVMinProblem.from_scenario(noisy, alpha)
        lhs_values.append(deviation_bound_report(p, solve_exact(p), noisy.clusters[0]).lhs)
    monotone = all(b <= a + 1e-12 for a, b in zip(lhs_values, lhs_values[1:]))
    _verdict(
        3,
        noiseless_ok and monotone,
        f"noiseless lhs {report.lhs:.2e} <= 1e-9 with rhs exactly 0; noisy sweep "
        f"lhs {['%.3e' % v for v in lhs_values]} non-increasing",
    )


def test_criterion_4_orthogonal_decomposition():
    rng = np.random.default_rng(404)
    worst_pythagoras = 0.0
    worst_consistency = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 12))
        d = int(rng.integers(1, 9))
        delta = rng.normal(size=k * d)
        # the consensus part replicates the cluster average, and the
        # disagreement part stacks the deviations from it
        w, cluster = StackedParams(delta.reshape(k, d)), ClusterSpec(members=tuple(range(k)))
        cons = np.tile(cluster_average(w, cluster), k)
        disa = deviations(w, cluster).reshape(-1)
        total = float(delta @ delta)
        split = float(cons @ cons) + float(disa @ disa)
        worst_pythagoras = max(worst_pythagoras, abs(split - total) / max(1.0, total))

        # the two parts add up to the vector
        worst_consistency = max(
            worst_consistency,
            float(np.max(np.abs(cons + disa - delta))) / max(1.0, float(np.max(np.abs(delta)))),
        )
    ok = worst_pythagoras <= 1e-10 and worst_consistency <= 1e-10
    _verdict(
        4,
        ok,
        f"energy split error {worst_pythagoras:.2e}, deviation/disagreement "
        f"mismatch {worst_consistency:.2e} over 100 random vectors",
    )


def test_criterion_5_solver_cross_validation():
    outcome = cross_solver_suite(20)
    ok = (
        outcome.num_scenarios == 20
        and outcome.max_linf <= 1e-5
        and outcome.max_residual_ratio <= 1e-8
    )
    _verdict(
        5,
        ok,
        f"exact vs iterative linf {outcome.max_linf:.2e} on {outcome.num_scenarios} "
        f"scenarios, direct-solver residual ratio {outcome.max_residual_ratio:.2e}",
    )


def test_criterion_6_gradient_matches_finite_differences():
    rng = np.random.default_rng(606)
    h = 1e-6
    worst = 0.0
    for seed in range(10):
        scen = generate_scenario(
            rng_seed=seed,
            cluster_sizes=[3, 2],
            d=2,
            m_per_node=8,
            noise_std=0.3,
            separation=2.0,
            graph_params=GraphParams(p_in=0.9, p_out=0.3, w_in=1.0, w_out=0.5),
        )
        problem = GTVMinProblem.from_scenario(scen, 0.8)
        params = StackedParams(rng.normal(size=(scen.n, scen.d)))
        grad = objective_gradient(problem, params).reshape(-1)
        flat = params.flat.copy()
        fd = np.empty_like(flat)
        for j in range(flat.size):
            plus, minus = flat.copy(), flat.copy()
            plus[j] += h
            minus[j] -= h
            fd[j] = (
                objective(problem, StackedParams.from_flat(plus, scen.n, scen.d))
                - objective(problem, StackedParams.from_flat(minus, scen.n, scen.d))
            ) / (2 * h)
        worst = max(worst, float(np.linalg.norm(grad - fd) / max(1.0, np.linalg.norm(fd))))
    _verdict(6, worst <= 1e-5, f"gradient vs central differences: relative error {worst:.2e}")


def test_criterion_7_spectral_oracle():
    rng = np.random.default_rng(707)
    worst = 0.0
    for seed in range(20):
        sizes = [int(rng.integers(2, 12)), int(rng.integers(2, 12))]
        graph, _ = generate_planted_clusters(
            seed,
            sizes,
            p_in=0.5 + 0.5 * float(rng.random()),
            p_out=0.4 * float(rng.random()),
            w_in=float(0.5 + 2.0 * rng.random()),
            w_out=0.5,
        )
        # independent route: assemble the matrix from the edge list directly
        # and use the scipy eigensolver
        lap = np.zeros((graph.n, graph.n))
        for (i, j), w in graph.edges.items():
            lap[i, i] += w
            lap[j, j] += w
            lap[i, j] -= w
            lap[j, i] -= w
        oracle = float(scipy.linalg.eigvalsh(lap)[1])
        worst = max(worst, abs(lambda2(graph) - oracle) / max(1.0, abs(oracle)))

    complete_ok = True
    for m in range(2, 11):
        km = SimilarityGraph(m, [(i, j, 1.0) for i in range(m) for j in range(i + 1, m)])
        complete_ok &= abs(lambda2(km) - m) <= 1e-9 * m
    ok = worst <= 1e-9 and complete_ok
    _verdict(
        7,
        ok,
        f"lambda2 vs independent eigensolver error {worst:.2e}; complete-graph "
        f"values exact for sizes 2..10: {complete_ok}",
    )


def test_criterion_8_certificate_chain():
    outcome = certificate_suite(50)
    ok = (
        outcome.min_candidate_slack >= -1e-9
        and outcome.min_spectral_slack >= -1e-9
        and outcome.min_optimality_slack >= -1e-9
    )
    _verdict(
        8,
        ok,
        f"certificate slacks over {outcome.num_records} records: candidate "
        f"{outcome.min_candidate_slack:.2e}, spectral {outcome.min_spectral_slack:.2e}, "
        f"optimality {outcome.min_optimality_slack:.2e} (all >= -1e-9)",
    )


def test_criterion_9_sweep_reproducibility(tmp_path):
    config = {
        "seed": 909,
        "cluster_sizes": [4, 4],
        "d": 2,
        "m_per_node": 10,
        "noise_std": 0.2,
        "separation": 2.0,
        "p_in": 0.9,
        "p_out": 0.2,
        "alpha_list": [0.1, 1.0, 10.0],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "run1")]) == 0
    assert main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "run2")]) == 0
    first = (tmp_path / "run1" / "sweep.csv").read_bytes()
    second = (tmp_path / "run2" / "sweep.csv").read_bytes()
    _verdict(
        9,
        first == second,
        f"two sweep runs produced byte-identical CSV ({len(first)} bytes)",
    )
