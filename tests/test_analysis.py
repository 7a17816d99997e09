import ast
import dataclasses
import importlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtvmin import (
    ClusterSpec,
    GTVMinProblem,
    GraphParams,
    LocalDataset,
    QuadraticLoss,
    SimilarityGraph,
    StackedParams,
    certificate_check,
    cluster_average,
    cluster_objective,
    deviation_bound_report,
    deviations,
    generate_planted_clusters,
    generate_scenario,
    lambda2,
    objective,
    quadratic_loss,
    solve_exact,
    tv_lower_bound_check,
)
from gtvmin.analysis import (
    CSV_COLUMNS,
    bound_report_row,
    save_report,
    write_reports_csv,
)


def solved_scenario(seed=1, alpha=1.0, sizes=(4, 4), noise=0.1, d=2, m=10, p_out=0.2,
                    p_in=0.9):
    scen = generate_scenario(
        rng_seed=seed,
        cluster_sizes=list(sizes),
        d=d,
        m_per_node=m,
        noise_std=noise,
        separation=2.0,
        graph_params=GraphParams(p_in=p_in, p_out=p_out, w_in=1.0, w_out=0.5),
    )
    problem = GTVMinProblem.from_scenario(scen, alpha)
    return scen, problem, solve_exact(problem)


# ------------------------------------------------------ averages and deviations

def test_cluster_average_of_equal_vectors():
    c = np.array([2.0, -1.0])
    params = StackedParams(np.tile(c, (4, 1)))
    np.testing.assert_array_equal(
        cluster_average(params, ClusterSpec(members=(0, 1, 2, 3))), c
    )


def test_cluster_average_hand_value():
    params = StackedParams(np.array([[0.0, 0.0], [2.0, 4.0]]))
    np.testing.assert_array_equal(
        cluster_average(params, ClusterSpec(members=(0, 1))), [1.0, 2.0]
    )


def test_cluster_average_singleton():
    params = StackedParams(np.array([[3.0], [5.0]]))
    np.testing.assert_array_equal(
        cluster_average(params, ClusterSpec(members=(1,))), [5.0]
    )


def test_deviations_constant_params_are_zero():
    params = StackedParams(np.tile([1.0, 1.0], (3, 1)))
    dev = deviations(params, ClusterSpec(members=(0, 1, 2)))
    np.testing.assert_array_equal(dev, np.zeros((3, 2)))


def test_deviations_hand_value_and_zero_sum():
    params = StackedParams(np.array([[0.0], [2.0]]))
    dev = deviations(params, ClusterSpec(members=(0, 1)))
    np.testing.assert_array_equal(dev, [[-1.0], [1.0]])
    rng = np.random.default_rng(0)
    params = StackedParams(rng.normal(size=(7, 3)))
    dev = deviations(params, ClusterSpec(members=(0, 2, 4, 6)))
    assert np.max(np.abs(dev.sum(axis=0))) <= 1e-10


def test_deviations_translation_invariant():
    rng = np.random.default_rng(2)
    base = rng.normal(size=(5, 2))
    cluster = ClusterSpec(members=(1, 2, 3))
    shift = np.array([10.0, -4.0])
    shifted = base.copy()
    shifted[list(cluster.members)] += shift
    a = deviations(StackedParams(base), cluster)
    b = deviations(StackedParams(shifted), cluster)
    np.testing.assert_allclose(a, b, atol=1e-12)


# ------------------------------------------------------- spectral lower bound

def test_tv_lower_bound_constant_params():
    graph, clusters = generate_planted_clusters(0, [4], p_in=1.0, p_out=0.0)
    params = StackedParams(np.tile([1.0, 2.0], (4, 1)))
    check = tv_lower_bound_check(graph, clusters[0], params)
    assert check.lhs_tv == 0.0 and check.rhs == 0.0 and check.holds


def test_tv_lower_bound_equality_on_complete_cluster():
    rng = np.random.default_rng(3)
    for m in (2, 3, 5, 8):
        graph = SimilarityGraph(
            m, [(i, j, 1.0) for i in range(m) for j in range(i + 1, m)]
        )
        params = StackedParams(rng.normal(size=(m, 3)))
        check = tv_lower_bound_check(graph, ClusterSpec(members=tuple(range(m))), params)
        # brute-force identity: sum over pairs equals m * deviation energy
        brute = sum(
            float((params.per_node[i] - params.per_node[j]) @ (params.per_node[i] - params.per_node[j]))
            for i in range(m)
            for j in range(i + 1, m)
        )
        assert check.lhs_tv == pytest.approx(brute, rel=1e-12)
        assert check.lhs_tv == pytest.approx(check.rhs, rel=1e-9)
        assert check.holds


def test_tv_lower_bound_random_sweep():
    rng = np.random.default_rng(4)
    for seed in range(100):
        graph, clusters = generate_planted_clusters(
            seed, [int(rng.integers(2, 9)), 3], p_in=0.8, p_out=0.2
        )
        params = StackedParams(rng.normal(size=(graph.n, 2)))
        assert tv_lower_bound_check(graph, clusters[0], params).holds


def test_tv_lower_bound_rejects_singleton():
    graph, _ = generate_planted_clusters(0, [3], p_in=1.0, p_out=0.0)
    with pytest.raises(ValueError):
        tv_lower_bound_check(graph, ClusterSpec(members=(0,)), StackedParams(np.zeros((3, 1))))


# ------------------------------------------------------------- bound reports

def test_report_full_cluster_rhs_is_epsilon_over_alpha_lambda2():
    scen, problem, result = solved_scenario(
        seed=5, alpha=2.0, sizes=(6,), noise=0.3, p_in=1.0, p_out=0.0
    )
    report = deviation_bound_report(problem, result, scen.clusters[0])
    assert report.boundary == 0.0
    assert report.r_outside == 0.0
    assert report.rhs == pytest.approx(report.epsilon / (2.0 * report.lambda2), rel=1e-12)
    assert report.satisfied and not report.degenerate


def test_report_noiseless_full_cluster_lhs_vanishes():
    scen, problem, result = solved_scenario(
        seed=6, alpha=1e3, sizes=(6,), noise=0.0, p_in=1.0, p_out=0.0
    )
    report = deviation_bound_report(problem, result, scen.clusters[0])
    assert report.epsilon == 0.0
    assert report.rhs == 0.0
    assert report.lhs <= 1e-9


def test_report_random_two_cluster_scenario_satisfied():
    scen, problem, result = solved_scenario(seed=7, alpha=1.0, sizes=(5, 4), noise=0.5)
    for cluster in scen.clusters:
        report = deviation_bound_report(problem, result, cluster)
        if not report.degenerate:
            assert report.satisfied
            assert report.slack == pytest.approx(report.rhs - report.lhs)
        # rhs reconstructs from the stored components
        if not report.degenerate:
            rebuilt = (
                report.epsilon
                + report.alpha * report.boundary * 2.0 * (report.w_bar_norm_sq + report.r_outside**2)
            ) / (report.alpha * report.lambda2)
            assert report.rhs == pytest.approx(rebuilt, rel=1e-12)


def test_report_requires_alpha_and_cluster_data():
    scen, problem, result = solved_scenario(seed=8)
    bare = ClusterSpec(members=scen.clusters[0].members)
    with pytest.raises(ValueError):
        deviation_bound_report(problem, result, bare)
    zero_alpha = GTVMinProblem.from_scenario(scen, 0.0)
    with pytest.raises(ValueError):
        deviation_bound_report(zero_alpha, result, scen.clusters[0])


@pytest.mark.parametrize("check", [deviation_bound_report, certificate_check])
@pytest.mark.parametrize(
    "case, message",
    [
        ("bare", "clustering-error budget"),
        ("alpha-0", "needs alpha > 0"),
        ("wbar-length", "reference parameters have shape (3,), expected (2,)"),
    ],
)
def test_report_and_certificate_refuse_alike(check, case, message):
    scen, problem, result = solved_scenario(seed=8)
    cluster = scen.clusters[0]
    if case == "bare":
        cluster = ClusterSpec(members=cluster.members)
    elif case == "alpha-0":
        problem = GTVMinProblem.from_scenario(scen, 0.0)
    else:
        cluster = ClusterSpec(
            members=cluster.members, reference_params=np.zeros(3), epsilon=cluster.epsilon
        )
    with pytest.raises(ValueError, match=re.escape(message)):
        check(problem, result, cluster)


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
@pytest.mark.parametrize("alpha", [0.1, 1.0, 10.0])
def test_report_and_certificate_read_one_set_of_terms(seed, alpha):
    scen, problem, result = solved_scenario(seed=seed, alpha=alpha, sizes=(5, 4, 3), noise=0.3)
    checked = 0
    for cluster in scen.clusters:
        report = deviation_bound_report(problem, result, cluster)
        cert = certificate_check(problem, result, cluster)
        assert report.degenerate == cert.degenerate
        if report.degenerate:
            continue
        checked += 1
        assert report.rhs == cert.candidate_upper / (report.alpha * report.lambda2)
        assert report.lhs == cert.deviation_sum
        assert cert.solution_lower == report.alpha * report.lambda2 * report.lhs
    assert checked >= 1


def test_report_degenerate_disconnected_cluster():
    # p_in = 0 leaves every cluster internally edgeless, hence disconnected
    scen, problem, result = solved_scenario(
        seed=9, alpha=1.0, sizes=(3, 3), noise=0.1, p_in=0.0, p_out=0.0
    )
    report = deviation_bound_report(problem, result, scen.clusters[0])
    assert report.degenerate
    assert math.isinf(report.rhs)
    assert report.satisfied


def test_report_degenerate_singleton_cluster():
    scen, problem, result = solved_scenario(seed=10, sizes=(4, 4))
    lone = ClusterSpec(
        members=(0,),
        reference_params=scen.clusters[0].reference_params,
        epsilon=scen.clusters[0].epsilon,
    )
    report = deviation_bound_report(problem, result, lone)
    assert report.degenerate and report.satisfied
    assert report.lhs == 0.0


def test_connected_cluster_is_degenerate_below_the_disconnection_tolerance():
    # Pins today's spectral rule on purpose: ROADMAP.md plans to replace
    # DISCONNECTION_RTOL with a derived margin, which must change this test.
    # Two 5-cliques joined by one bridge make one connected cluster whose
    # lambda2 (about 0.4 times the bridge weight) falls below
    # DISCONNECTION_RTOL times the largest degree (about 4) at a 1e-9 bridge
    # but not at a 1e-6 one.
    rng = np.random.default_rng(19)
    cliques = [(i, j, 1.0) for s in (0, 5) for i in range(s, s + 5) for j in range(i + 1, s + 5)]
    losses = [QuadraticLoss(LocalDataset(rng.normal(size=(4, 2)), rng.normal(size=4))) for _ in range(10)]
    cluster = ClusterSpec(members=tuple(range(10)), reference_params=np.zeros(2), epsilon=1.0)
    for bridge, degenerate in [(1e-9, True), (1e-6, False)]:
        graph = SimilarityGraph(10, [*cliques, (4, 5, bridge)])
        problem = GTVMinProblem(losses, graph, 1.0, 2)
        report = deviation_bound_report(problem, solve_exact(problem), cluster)
        assert 0.0 < report.lambda2 < 1e-5
        assert report.degenerate == degenerate and report.satisfied
        assert math.isinf(report.rhs) == degenerate


# --------------------------------------------------------- certificate chain

def test_certificate_noiseless_full_cluster_candidate_is_zero():
    scen, problem, result = solved_scenario(
        seed=11, alpha=10.0, sizes=(5,), noise=0.0, p_in=1.0, p_out=0.0
    )
    record = certificate_check(problem, result, scen.clusters[0])
    assert record.f_candidate == 0.0
    assert record.holds


def test_certificate_random_scenarios_hold():
    for seed in range(10):
        scen, problem, result = solved_scenario(seed=seed, alpha=1.0, sizes=(4, 3), noise=0.4)
        for cluster in scen.clusters:
            record = certificate_check(problem, result, cluster)
            assert record.candidate_slack >= -1e-9
            assert record.spectral_slack >= -1e-9
            assert record.optimality_slack >= -1e-9
            assert record.holds


def test_certificate_perturbation_breaks_optimality():
    scen, problem, result = solved_scenario(seed=12, alpha=1.0, sizes=(4, 4), noise=0.2)
    cluster = scen.clusters[0]
    record = certificate_check(problem, result, cluster)
    # push one cluster node far away: the constant candidate now beats it
    worsened = result.params.copy()
    worsened.per_node[cluster.members[0]] += 50.0
    f_worsened = cluster_objective(problem, worsened, cluster)
    candidate = result.params.copy()
    candidate.per_node[list(cluster.members)] = cluster.reference_params
    f_candidate = cluster_objective(problem, candidate, cluster)
    assert f_worsened > f_candidate
    assert record.f_solution <= f_candidate + 1e-9


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(0, 10**6))
def test_cluster_objective_matches_per_edge_sum(seed):
    scen, problem, _ = solved_scenario(seed=seed % 1000, alpha=0.7, sizes=(4, 3), p_out=0.3)
    rng = np.random.default_rng(seed)
    params = StackedParams(rng.normal(size=(scen.n, scen.d)))
    members = rng.permutation(scen.n)[: int(rng.integers(1, scen.n + 1))].tolist()
    cluster = ClusterSpec(members=tuple(members))
    w = params.per_node
    expected = sum(quadratic_loss(scen.datasets[i], w[i]) for i in members)
    expected += 0.7 * sum(
        weight * float((w[i] - w[j]) @ (w[i] - w[j]))
        for (i, j), weight in scen.graph.edges.items()
        if i in members or j in members
    )
    assert cluster_objective(problem, params, cluster) == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_objective_and_cluster_objective_exactly_zero_at_noiseless_reference(d):
    scen = generate_scenario(
        rng_seed=11, cluster_sizes=[5], d=d, m_per_node=10, noise_std=0.0, separation=2.0
    )
    problem = GTVMinProblem.from_scenario(scen, 1.0)
    cluster = scen.clusters[0]
    params = StackedParams(np.tile(cluster.reference_params, (scen.n, 1)))
    assert objective(problem, params) == 0.0
    assert cluster_objective(problem, params, cluster) == 0.0


def test_cluster_objective_of_one_node_at_alpha_zero_is_its_loss_bit_for_bit():
    rng = np.random.default_rng(31)
    d = 3
    datasets = [
        LocalDataset(features=rng.normal(size=(m, d)), labels=rng.normal(size=m))
        for m in (1, 4, 2, 7, 4, 12, 1, 5, 17, 2)
    ]
    n = len(datasets)
    graph = SimilarityGraph(n, [(i, (i + 1) % n, float(rng.uniform(0.1, 2.0))) for i in range(n)])
    problem = GTVMinProblem([QuadraticLoss(ds) for ds in datasets], graph, 0.0, d)
    params = StackedParams(rng.normal(size=(n, d)))
    for i, ds in enumerate(datasets):
        value = cluster_objective(problem, params, ClusterSpec(members=(i,)))
        assert value == quadratic_loss(ds, params.per_node[i])


def both_checks(problem, result, cluster):
    deviation_bound_report(problem, result, cluster)
    certificate_check(problem, result, cluster)


@pytest.mark.parametrize("check", [deviation_bound_report, certificate_check, both_checks])
def test_one_lambda2_eigensolve_per_cluster(monkeypatch, check):
    import gtvmin.analysis
    import gtvmin.graph

    calls = []

    def counting_lambda2(graph):
        calls.append(graph.n)
        return lambda2(graph)

    # the graph module too, so that a second solve through a graph function counts
    monkeypatch.setattr(gtvmin.analysis, "lambda2", counting_lambda2)
    monkeypatch.setattr(gtvmin.graph, "lambda2", counting_lambda2)
    scen, problem, result = solved_scenario(seed=3, sizes=(5, 4))
    for cluster in scen.clusters:
        calls.clear()
        check(problem, result, cluster)
        assert calls == [cluster.size]
    # the geometry is kept per problem, not per graph: a new problem on the
    # same graph computes it again, once
    again = GTVMinProblem(problem.losses, problem.graph, problem.alpha, problem.d)
    for cluster in scen.clusters:
        calls.clear()
        check(again, result, cluster)
        check(again, result, cluster)
        assert calls == [cluster.size]

def test_deviation_sum_equals_disagreement_energy():
    rng = np.random.default_rng(13)
    for _ in range(20):
        k = int(rng.integers(2, 8))
        d = int(rng.integers(1, 5))
        w = rng.normal(size=(k, d))
        w_bar = rng.normal(size=d)
        cluster = ClusterSpec(members=tuple(range(k)))
        dev = deviations(StackedParams(w), cluster)
        # the disagreement part of w - w_bar, projected by hand
        delta = w - w_bar
        disa = delta - delta.mean(axis=0)
        deviation_sum = float(np.einsum("nd,nd->", dev, dev))
        assert deviation_sum == pytest.approx(float(np.sum(disa * disa)), rel=1e-10, abs=1e-12)


def test_alpha_scaling_noiseless_full_cluster():
    scen = generate_scenario(
        rng_seed=14,
        cluster_sizes=[6],
        d=2,
        m_per_node=10,
        noise_std=0.0,
        separation=2.0,
        graph_params=GraphParams(p_in=1.0, p_out=0.0),
    )
    lhs_values = []
    for alpha in (0.1, 1.0, 10.0, 100.0):
        problem = GTVMinProblem.from_scenario(scen, alpha)
        result = solve_exact(problem)
        report = deviation_bound_report(problem, result, scen.clusters[0])
        lhs_values.append(report.lhs)
    for larger_alpha_lhs, smaller_alpha_lhs in zip(lhs_values[1:], lhs_values[:-1]):
        assert larger_alpha_lhs <= smaller_alpha_lhs + 1e-12


# ---------------------------------------------------------------- serialization

def test_report_json_roundtrip(tmp_path):
    scen, problem, result = solved_scenario(seed=15)
    report = deviation_bound_report(problem, result, scen.clusters[0])
    path = tmp_path / "report.json"
    save_report(report, path)
    loaded = json.loads(path.read_text())
    assert loaded == dataclasses.asdict(report)
    record = certificate_check(problem, result, scen.clusters[0])
    save_report(record, tmp_path / "certificate.json")
    assert json.loads((tmp_path / "certificate.json").read_text()) == dataclasses.asdict(record)


def test_csv_columns_and_formatting(tmp_path):
    scen, problem, result = solved_scenario(seed=16)
    rows = [
        bound_report_row(deviation_bound_report(problem, result, c), scen.rng_seed, scen.n, scen.d)
        for c in scen.clusters
    ]
    path = tmp_path / "reports.csv"
    write_reports_csv(path, rows)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + len(rows)
    cells = lines[1].split(",")
    assert cells[CSV_COLUMNS.index("satisfied")] in ("true", "false")
    # floats round-trip exactly through the 17-significant-digit format
    assert float(cells[CSV_COLUMNS.index("rhs")]) == rows[0]["rhs"]


# --------------------------------------------------------------- declarations

def _names_read(tree, outside: str) -> set:
    """Every bare name read in the module ``tree`` (the package imports the
    names it uses), leaving out the top-level definition of ``outside``."""
    used = set()
    for top in tree.body:
        defines = isinstance(top, (ast.FunctionDef, ast.ClassDef)) and top.name == outside
        defines |= isinstance(top, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == outside for target in top.targets
        )
        if not defines:
            nodes = ast.walk(top)
            used |= {node.id for node in nodes if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return used


def test_package_exports_each_public_name_once():
    import gtvmin
    from gtvmin import analysis, data, errors, graph, solver

    modules = [analysis, data, errors, graph, solver]
    assert gtvmin.__all__ == [name for module in modules for name in module.__all__]
    assert len(set(gtvmin.__all__)) == len(gtvmin.__all__)
    for module in modules:
        for name in module.__all__:
            assert getattr(gtvmin, name) is getattr(module, name)
    # each name of a module's __all__ is read by the package outside its own
    # definition, or held as a word by the benchmark, or named in a README code span
    root, package = Path(__file__).resolve().parents[1], Path(gtvmin.__file__).parent
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    words = set()
    for path in (root / "perfbench").glob("*.py"):
        words |= set(re.findall(r"[A-Za-z_]\w*", path.read_text()))
    for span in re.findall(r"```.*?```|`[^`\n]+`", (root / "README.md").read_text(), flags=re.S):
        words |= set(re.findall(r"[A-Za-z_]\w*", span))
    orphans = [
        f"{stem}.{name}"
        for stem in trees
        if not stem.startswith("__")  # the package's __all__ concatenates the others
        for name in importlib.import_module(f"gtvmin.{stem}").__all__
        if name not in words and not any(name in _names_read(tree, name) for tree in trees.values())
    ]
    assert orphans == []


def test_bound_report_row_reads_every_column_off_the_report():
    scen, problem, result = solved_scenario(seed=17, sizes=(4, 3, 1))
    for cluster in scen.clusters:
        report = deviation_bound_report(problem, result, cluster)
        row = bound_report_row(report, scen.rng_seed, scen.n, scen.d)
        assert list(row) == CSV_COLUMNS
        assert (row["seed"], row["n"], row["d"]) == (scen.rng_seed, scen.n, scen.d)
        assert row["R"] == report.r_outside
        for col in CSV_COLUMNS[3:]:
            if col != "R":
                assert row[col] == getattr(report, col)


@pytest.mark.parametrize("p_out", [0.0, 0.5], ids=["no-boundary", "boundary"])
def test_bound_terms_that_overflow_are_refused_naming_the_cluster(p_out):
    import warnings

    scen, problem, result = solved_scenario(seed=18, p_out=p_out)
    cluster = scen.clusters[1]
    huge = ClusterSpec(cluster.members, np.full(scen.d, 1e200), cluster.epsilon)
    for check, name in [(deviation_bound_report, "deviation bound"), (certificate_check, "certificate chain")]:
        with warnings.catch_warnings(record=True) as caught, pytest.raises(ValueError) as info:
            warnings.simplefilter("always")
            check(problem, result, huge)
        assert caught == []
        assert str(info.value).startswith(f"the {name} of cluster {cluster.members} overflows")
