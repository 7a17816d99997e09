"""Randomized verification suites.

Shared between the CLI ``selftest`` subcommand and the acceptance tests so
both exercise identical code paths. Every suite is deterministic: scenario
parameters are derived from a base seed plus the scenario index.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .analysis import certificate_check, deviation_bound_report, tv_lower_bound_check
from .data import Scenario, generate_scenario
from .graph import (
    ClusterSpec,
    GraphParams,
    SimilarityGraph,
    generate_planted_clusters,
    is_disconnected,
)
from .solver import (
    GTVMinProblem,
    StackedParams,
    solve_exact,
    solve_iterative,
)

__all__ = [
    "random_scenario",
    "bound_suite",
    "spectral_suite",
    "certificate_suite",
    "cross_solver_suite",
]

_ALPHAS = (0.1, 1.0, 10.0)
_NOISES = (0.0, 0.1, 1.0)


def random_scenario(index: int, base_seed: int = 77000) -> tuple[Scenario, float]:
    """Deterministic random scenario number ``index``: n in [4, 40],
    d in [1, 8], alpha cycling over {0.1, 1, 10} and noise over
    {0, 0.1, 1}."""
    seed = base_seed + index
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 9))
    k = int(rng.integers(1, 4))
    if d == 1:
        # a 1-d sphere has two points, so at most two separated centers exist
        k = min(k, 2)
    low = 4 if k == 1 else 2
    sizes = [int(s) for s in rng.integers(low, 14, size=k)]
    m = int(d + rng.integers(1, 2 * d + 2))
    alpha = _ALPHAS[index % len(_ALPHAS)]
    noise = _NOISES[(index // len(_ALPHAS)) % len(_NOISES)]
    params = GraphParams(
        p_in=0.75 + 0.25 * float(rng.random()),
        p_out=0.25 * float(rng.random()),
        w_in=1.0,
        w_out=0.5,
    )
    scenario = generate_scenario(
        rng_seed=seed,
        cluster_sizes=sizes,
        d=d,
        m_per_node=m,
        noise_std=noise,
        separation=2.0,
        graph_params=params,
    )
    return scenario, alpha


def _solved(num_scenarios: int, base_seed: int):
    """(scenario, problem, exact result) of each of the first random scenarios."""
    for index in range(num_scenarios):
        scenario, alpha = random_scenario(index, base_seed)
        problem = GTVMinProblem.from_scenario(scenario, alpha)
        yield scenario, problem, solve_exact(problem)


@dataclass
class BoundSuiteResult:
    num_reports: int
    num_degenerate: int
    num_violations: int

    @property
    def ok(self) -> bool:
        return self.num_violations == 0


def bound_suite(num_scenarios: int = 100) -> BoundSuiteResult:
    """Solve ``num_scenarios`` random scenarios exactly and evaluate the
    deviation bound on every cluster; a violation is a non-degenerate
    report with ``satisfied`` false."""
    reports = []
    for scenario, problem, result in _solved(num_scenarios, 77000):
        reports += [deviation_bound_report(problem, result, c) for c in scenario.clusters]
    return BoundSuiteResult(
        num_reports=len(reports),
        num_degenerate=sum(r.degenerate for r in reports),
        num_violations=sum(not (r.degenerate or r.satisfied) for r in reports),
    )


@dataclass
class SpectralSuiteResult:
    num_checks: int
    num_violations: int
    max_complete_mismatch: float

    @property
    def ok(self) -> bool:
        return self.num_violations == 0 and self.max_complete_mismatch <= 1e-9


def spectral_suite(num_graphs: int = 100) -> SpectralSuiteResult:
    """Spot-check the spectral lower bound on random planted graphs with
    random parameters, plus the equality case on complete unit-weight
    clusters (where both sides coincide)."""
    num_checks = 0
    num_violations = 0
    for index in range(num_graphs):
        seed = 55000 + index
        rng = np.random.default_rng(seed)
        sizes = [int(s) for s in rng.integers(2, 11, size=2)]
        graph, clusters = generate_planted_clusters(
            seed,
            sizes,
            p_in=0.6 + 0.4 * float(rng.random()),
            p_out=0.3 * float(rng.random()),
            w_in=float(0.5 + rng.random()),
            w_out=0.5,
        )
        d = int(rng.integers(1, 6))
        params = StackedParams(rng.normal(size=(graph.n, d)))
        check = tv_lower_bound_check(graph, clusters[0], params)
        num_checks += 1
        if not check.holds:
            num_violations += 1

    max_mismatch = 0.0
    rng = np.random.default_rng(55000)
    for m in range(2, 11):
        complete = SimilarityGraph(
            m, [(i, j, 1.0) for i in range(m) for j in range(i + 1, m)]
        )
        cluster = ClusterSpec(members=tuple(range(m)))
        params = StackedParams(rng.normal(size=(m, 3)))
        check = tv_lower_bound_check(complete, cluster, params)
        rel = abs(check.lhs_tv - check.rhs) / max(1.0, abs(check.rhs))
        max_mismatch = max(max_mismatch, rel)
    return SpectralSuiteResult(
        num_checks=num_checks,
        num_violations=num_violations,
        max_complete_mismatch=max_mismatch,
    )


@dataclass
class CertificateSuiteResult:
    num_records: int
    min_candidate_slack: float
    min_spectral_slack: float
    min_optimality_slack: float

    @property
    def ok(self) -> bool:
        slacks = (self.min_candidate_slack, self.min_spectral_slack, self.min_optimality_slack)
        return all(slack >= -1e-9 for slack in slacks)


def certificate_suite(num_scenarios: int = 50) -> CertificateSuiteResult:
    """Evaluate the certificate chain on random scenarios solved exactly."""
    records = []
    for scenario, problem, result in _solved(num_scenarios, 66000):
        records += [certificate_check(problem, result, c) for c in scenario.clusters]
    return CertificateSuiteResult(
        num_records=len(records),
        min_candidate_slack=min((r.candidate_slack for r in records), default=math.inf),
        min_spectral_slack=min((r.spectral_slack for r in records), default=math.inf),
        min_optimality_slack=min((r.optimality_slack for r in records), default=math.inf),
    )


@dataclass
class CrossSolverSuiteResult:
    num_scenarios: int
    max_linf: float
    max_residual_ratio: float

    @property
    def ok(self) -> bool:
        return self.max_linf <= 1e-5 and self.max_residual_ratio <= 1e-8


def _cross_solver_problems():
    """The problems of :func:`cross_solver_suite`, in order: random
    connected scenarios with n*d <= 400, each at alpha 0.5."""
    for seed in itertools.count(88000):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 6))
        sizes = [int(s) for s in rng.integers(2, 9, size=2)]
        scenario = generate_scenario(
            rng_seed=seed,
            cluster_sizes=sizes,
            d=d,
            m_per_node=3 * d + 2,
            noise_std=0.1,
            separation=2.0,
            graph_params=GraphParams(p_in=0.9, p_out=0.25, w_in=1.0, w_out=0.5),
        )
        if not is_disconnected(scenario.graph):
            yield GTVMinProblem.from_scenario(scenario, alpha=0.5)


def cross_solver_suite(num_scenarios: int = 20) -> CrossSolverSuiteResult:
    """Compare the direct and iterative solvers on the first
    ``num_scenarios`` of :func:`_cross_solver_problems` (iterative: tol
    1e-12, up to 1e5 rounds)."""
    max_linf = max_ratio = 0.0
    for problem in itertools.islice(_cross_solver_problems(), num_scenarios):
        exact = solve_exact(problem)
        iterative = solve_iterative(problem, max_iter=10**5, tol=1e-12)
        linf = np.max(np.abs(exact.params.per_node - iterative.params.per_node))
        max_linf = max(max_linf, float(linf))
        q_norm = float(np.linalg.norm(problem._stack[1]))
        max_ratio = max(max_ratio, exact.residual / q_norm if q_norm > 0 else 0.0)
    return CrossSolverSuiteResult(
        num_scenarios=num_scenarios,
        max_linf=max_linf,
        max_residual_ratio=max_ratio,
    )
