"""Cluster-wise analysis of trained parameters.

Centers on one quantitative claim: when a cluster's nodes admit a common
parameter vector with small total loss (budget epsilon), the solutions of
the graph-coupled training problem deviate from their cluster average by at
most

    sum_{i in C} ||w_i - avg||^2
        <= (1 / (alpha * lambda2)) * (epsilon + 2 alpha bd (||wbar||^2 + R^2))

with lambda2 the algebraic connectivity of the cluster's induced subgraph,
bd the cluster boundary weight, and R the largest parameter norm outside
the cluster (measured from the solution; zero when the cluster covers all
nodes). This module evaluates both sides, the spectral lower bound on the
intra-cluster variation that drives the proof, and the full certificate
chain of inequalities that makes the bound checkable step by step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict
from pathlib import Path
from typing import Iterable

import numpy as np

from .data import _write_json
from .graph import (
    DISCONNECTION_RTOL,
    ClusterSpec,
    SimilarityGraph,
    _member_mask,
    cluster_boundary,
    induced_subgraph,
    lambda2,
)
from .solver import GTVMinProblem, SolveResult, StackedParams, _edge_variation, _evaluate

__all__ = [
    "BoundReport",
    "TVBoundCheck",
    "CertificateRecord",
    "cluster_average",
    "deviations",
    "tv_lower_bound_check",
    "cluster_objective",
    "deviation_bound_report",
    "certificate_check",
    "save_report",
    "bound_report_row",
    "bound_report_rows",
    "write_reports_csv",
    "CSV_COLUMNS",
]

# hybrid tolerance: tol * max(1, scale); scenarios span orders of magnitude
_SLACK_RTOL = 1e-9

CSV_COLUMNS = [
    "seed",
    "n",
    "d",
    "alpha",
    "lambda2",
    "boundary",
    "epsilon",
    "R",
    "lhs",
    "rhs",
    "slack",
    "satisfied",
    "degenerate",
]


@dataclass
class BoundReport:
    """Both sides of the cluster deviation bound plus every ingredient.

    ``degenerate`` marks clusters whose induced subgraph is disconnected
    (or a singleton): the bound's denominator vanishes, the right-hand side
    is reported as +inf, and ``satisfied`` is trivially true.
    """

    lhs: float
    lambda2: float
    boundary: float
    epsilon: float
    r_outside: float
    w_bar_norm_sq: float
    alpha: float
    rhs: float
    satisfied: bool
    slack: float
    degenerate: bool


@dataclass(frozen=True)
class TVBoundCheck:
    """Spectral lower bound on intra-cluster variation: the edge-weighted
    variation inside the cluster versus lambda2 times the squared deviation
    from the cluster average."""

    lhs_tv: float
    rhs: float
    holds: bool


@dataclass
class CertificateRecord:
    """The inequality chain certifying the deviation bound.

    f is the part of the joint objective that depends on the cluster's
    parameters (cluster losses plus all penalty terms on edges touching the
    cluster). The three inequalities: the constant candidate's value is at
    most epsilon + 2 alpha bd (||wbar||^2 + R^2); the solution's value is at
    least alpha lambda2 times the squared deviations; and the solution beats
    the candidate. Chaining them yields the bound.
    """

    f_candidate: float
    f_solution: float
    candidate_upper: float
    solution_lower: float
    deviation_sum: float
    candidate_slack: float
    spectral_slack: float
    optimality_slack: float
    holds: bool
    degenerate: bool


def cluster_average(params: StackedParams, cluster: ClusterSpec) -> np.ndarray:
    """Mean parameter vector (1/|C|) sum_{i in C} w_i."""
    cluster.check_against(params.n)
    return params.per_node[list(cluster.members)].mean(axis=0)


def deviations(params: StackedParams, cluster: ClusterSpec) -> np.ndarray:
    """Per-node deviations from the cluster average, w_i - avg for i in C,
    as a (|C|, d) array in member order; the rows sum to zero."""
    avg = cluster_average(params, cluster)
    return params.per_node[list(cluster.members)] - avg


def tv_lower_bound_check(
    graph: SimilarityGraph, cluster: ClusterSpec, params: StackedParams
) -> TVBoundCheck:
    """Check that the intra-cluster variation dominates lambda2 times the
    squared deviations from the cluster average (min-max characterization
    of the second eigenvalue). Needs at least two cluster members."""
    cluster.check_against(graph.n)
    if cluster.size < 2:
        raise ValueError("the spectral lower bound needs a cluster with >= 2 nodes")
    if params.n != graph.n:
        raise ValueError(f"params have {params.n} nodes, graph has {graph.n}")
    lam2 = lambda2(induced_subgraph(graph, cluster))
    rows = deviations(params, cluster)
    deviation_sum = float(np.einsum("nd,nd->", rows, rows))
    inside = _member_mask(graph.n, cluster)
    ii, jj, _ = graph.edge_arrays()
    lhs_tv = _edge_variation(graph, params.per_node, inside[ii] & inside[jj])
    rhs = lam2 * deviation_sum
    holds = _tolerated(lhs_tv - rhs, rhs)
    return TVBoundCheck(lhs_tv=float(lhs_tv), rhs=float(rhs), holds=bool(holds))


def cluster_objective(
    problem: GTVMinProblem, params: StackedParams, cluster: ClusterSpec
) -> float:
    """The part of the joint objective that depends on the cluster's
    parameters: cluster losses plus alpha times the penalty on every edge
    with at least one endpoint in the cluster."""
    problem._check_params(params)
    cluster.check_against(problem.n)
    inside = _member_mask(problem.n, cluster)
    ii, jj, _ = problem.graph.edge_arrays()
    return _evaluate(problem, params.per_node, inside, inside[ii] | inside[jj])


def _cluster_geometry(graph: SimilarityGraph, cluster: ClusterSpec) -> tuple[float, bool, float]:
    """(lambda2, degenerate, boundary) of one cluster.

    lambda2 of the induced subgraph comes from one eigensolve, and the
    degenerate flag from that same value: singleton, edgeless and
    disconnected clusters are degenerate, the bound denominator vanishes. A
    lambda2 below DISCONNECTION_RTOL times the largest weighted degree counts
    as zero, so a barely coupled cluster is disconnected too."""
    if cluster.size < 2:
        lam2, degenerate = 0.0, True
    else:
        sub = induced_subgraph(graph, cluster)
        lam2 = lambda2(sub)
        degenerate = sub.num_edges == 0 or lam2 < DISCONNECTION_RTOL * float(sub.weighted_degrees().max())
    return lam2, degenerate, cluster_boundary(graph, cluster)


def _cluster_terms(
    problem: GTVMinProblem, result: SolveResult, cluster: ClusterSpec, name: str
) -> tuple[np.ndarray, float, bool, float, float, float, float]:
    """(wbar, lambda2, degenerate, boundary, R, deviation sum, upper) of one
    cluster, after the checks that the bound report and the certificate
    (``name``) share. R is the largest parameter norm outside the cluster
    (zero without an outside), the deviation sum is sum_{i in C} ||w_i -
    avg||^2, and upper = epsilon + 2 alpha bd (||wbar||^2 + R^2) bounds the
    candidate's value and is the deviation bound's numerator; a ValueError
    naming the cluster is raised when a term overflows. The geometry
    (:func:`_cluster_geometry`) does not depend on alpha and is kept in the
    problem's memo by member tuple: both share one eigensolve."""
    if cluster.reference_params is None or cluster.epsilon is None:
        raise ValueError(
            f"cluster {cluster.members} must carry reference parameters and a "
            f"clustering-error budget"
        )
    if problem.alpha <= 0.0:
        raise ValueError(f"the {name} needs alpha > 0")
    problem._check_params(result.params)
    cluster.check_against(problem.n)
    w_bar = cluster.reference_params
    if w_bar.shape != (problem.d,):
        raise ValueError(
            f"reference parameters have shape {w_bar.shape}, expected ({problem.d},)"
        )
    geometry = problem._alpha_free(cluster.members, _cluster_geometry, problem.graph, cluster)
    lam2, degenerate, boundary = geometry
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        outside = result.params.per_node[~_member_mask(problem.n, cluster)]
        # numpy scalars: a square that overflows reads inf, where a float's raises
        r_outside = np.max(np.linalg.norm(outside, axis=1)) if len(outside) else 0.0
        w_bar_sq, r_sq = w_bar @ w_bar, r_outside**2
        upper = float(cluster.epsilon + 2.0 * problem.alpha * boundary * (w_bar_sq + r_sq))
        rows = deviations(result.params, cluster)
        deviation_sum = float(np.einsum("nd,nd->", rows, rows))
    if not all(map(math.isfinite, (w_bar_sq, r_sq, upper, deviation_sum))):
        raise ValueError(
            f"the {name} of cluster {cluster.members} overflows: ||wbar||^2 = {w_bar_sq:g}, "
            f"R^2 = {r_sq:g}, 2 alpha bd = {2.0 * problem.alpha * boundary:g}, "
            f"deviation sum {deviation_sum:g}"
        )
    return w_bar, lam2, degenerate, boundary, float(r_outside), deviation_sum, upper


def _tolerated(slack: float, scale: float) -> bool:
    return slack >= -_SLACK_RTOL * max(1.0, scale)


def deviation_bound_report(
    problem: GTVMinProblem, result: SolveResult, cluster: ClusterSpec
) -> BoundReport:
    """Evaluate the cluster deviation bound on a solver result.

    Requires alpha > 0 and a cluster carrying its reference vector and
    error budget. R is measured from the solution as the largest parameter
    norm outside the cluster (zero when the cluster covers every node). A
    disconnected (or singleton) cluster subgraph yields a degenerate report
    with rhs = +inf instead of an error.
    """
    w_bar, lam2, degenerate, boundary, r_outside, lhs, upper = _cluster_terms(
        problem, result, cluster, "deviation bound"
    )
    rhs = slack = float("inf")
    if not degenerate:
        denominator = problem.alpha * lam2
        rhs = upper / denominator if denominator > 0.0 else rhs
        if not math.isfinite(rhs):
            raise ValueError(
                f"the deviation bound of cluster {cluster.members} overflows: "
                f"{upper:g} / (alpha {problem.alpha:g} * lambda2 {lam2:g}) is not finite"
            )
        slack = rhs - lhs
    return BoundReport(
        lhs=float(lhs),
        lambda2=float(lam2),
        boundary=float(boundary),
        epsilon=cluster.epsilon,
        r_outside=r_outside,
        w_bar_norm_sq=float(w_bar @ w_bar),
        alpha=problem.alpha,
        rhs=rhs,
        satisfied=bool(degenerate or _tolerated(slack, rhs)),
        slack=slack,
        degenerate=degenerate,
    )


def certificate_check(
    problem: GTVMinProblem, result: SolveResult, cluster: ClusterSpec
) -> CertificateRecord:
    """Evaluate the certificate chain behind the deviation bound.

    Builds the constant candidate (reference vector on the cluster,
    solution values elsewhere) and compares the cluster-restricted
    objective at the candidate and at the solution against their closed
    form bounds. All three slacks should be non-negative up to numerical
    tolerance whenever the result is an (approximate) minimizer.
    """
    w_bar, lam2, degenerate, _, _, deviation_sum, candidate_upper = _cluster_terms(
        problem, result, cluster, "certificate chain"
    )
    f_solution = cluster_objective(problem, result.params, cluster)
    candidate = result.params.copy()
    candidate.per_node[list(cluster.members)] = w_bar
    f_candidate = cluster_objective(problem, candidate, cluster)
    solution_lower = problem.alpha * lam2 * deviation_sum

    candidate_slack = candidate_upper - f_candidate
    spectral_slack = f_solution - solution_lower
    optimality_slack = f_candidate - f_solution
    holds = (
        _tolerated(candidate_slack, candidate_upper)
        and _tolerated(spectral_slack, solution_lower)
        and _tolerated(optimality_slack, abs(f_candidate))
    )
    return CertificateRecord(
        f_candidate=float(f_candidate),
        f_solution=float(f_solution),
        candidate_upper=float(candidate_upper),
        solution_lower=float(solution_lower),
        deviation_sum=float(deviation_sum),
        candidate_slack=float(candidate_slack),
        spectral_slack=float(spectral_slack),
        optimality_slack=float(optimality_slack),
        holds=bool(holds),
        degenerate=degenerate,
    )


def save_report(report: BoundReport | CertificateRecord, path: str | Path) -> None:
    """JSON serialization; infinities appear as JSON 'Infinity' literals."""
    _write_json(path, asdict(report))


def bound_report_row(report: BoundReport, seed, n: int, d: int) -> dict:
    """Flatten a report into one CSV row: the scenario's seed, n and d, then
    each further column's report field of the same name (R is r_outside)."""
    row = dict(zip(CSV_COLUMNS, (seed, n, d)))
    for col in CSV_COLUMNS[len(row):]:
        row[col] = getattr(report, "r_outside" if col == "R" else col)
    return row


def bound_report_rows(
    problem: GTVMinProblem, result: SolveResult, clusters: Iterable[ClusterSpec], seed
) -> list[tuple[BoundReport, dict]]:
    """The deviation bound report of each cluster, in order, paired with
    its CSV row."""
    reports = [deviation_bound_report(problem, result, cluster) for cluster in clusters]
    return [(report, bound_report_row(report, seed, problem.n, problem.d)) for report in reports]


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def write_reports_csv(path: str | Path, rows: Iterable[dict]) -> None:
    """Fixed-column CSV with '.' decimals and 17 significant digits, one
    row per (scenario, cluster, alpha)."""
    lines = [",".join(CSV_COLUMNS)]
    lines += [",".join(_format_cell(row[col]) for col in CSV_COLUMNS) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")
