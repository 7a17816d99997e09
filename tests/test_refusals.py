"""Refusals of the library's constructors and checks, one row each: the
call and the exact message it raises."""

import re

import numpy as np
import pytest

from gtvmin import (
    ClusterSpec,
    Embedding,
    GTVMinProblem,
    LocalDataset,
    QuadraticLoss,
    Scenario,
    SimilarityGraph,
    StackedParams,
    generate_scenario,
    objective,
    solve_exact,
    tv_lower_bound_check,
)


def _dataset(d=2, m=4):
    return LocalDataset(features=np.ones((m, d)), labels=np.ones(m))


def _path(n=3):
    return SimilarityGraph(n, [(i, i + 1, 1.0) for i in range(n - 1)])


def _problem(n=3, d=2, alpha=1.0):
    return GTVMinProblem([QuadraticLoss(_dataset(d)) for _ in range(n)], _path(n), alpha, d)


def _scenario(datasets, d=2):
    return Scenario(datasets=datasets, graph=_path(3), clusters=[ClusterSpec((0, 1, 2))], d=d)


def _generate(d=2, m_per_node=4):
    return generate_scenario(0, [2, 2], d=d, m_per_node=m_per_node, noise_std=0.1, separation=2.0)


_BEYOND_INTP = int(np.iinfo(np.intp).max) + 1

REFUSALS = [
    (
        "graph-node-count-beyond-intp",
        lambda: SimilarityGraph(_BEYOND_INTP),
        f"node count {_BEYOND_INTP} exceeds the largest array index",
    ),
    ("params-not-2d", lambda: StackedParams(np.zeros(3)), "expected an (n, d) array, got shape (3,)"),
    ("params-not-finite", lambda: StackedParams([[1.0, np.nan]]), "parameters must be finite"),
    (
        "from-flat-length",
        lambda: StackedParams.from_flat(np.zeros(5), 3, 2),
        "expected a flat vector of length 6, got (5,)",
    ),
    (
        "problem-loss-count",
        lambda: GTVMinProblem([QuadraticLoss(_dataset())] * 2, _path(3), 1.0, 2),
        "2 losses for a graph with 3 nodes",
    ),
    (
        "problem-d-below-1",
        lambda: GTVMinProblem([QuadraticLoss(_dataset())] * 3, _path(3), 1.0, 0),
        "parameter dimension must be >= 1",
    ),
    (
        "params-shape-mismatch",
        lambda: objective(_problem(), StackedParams(np.zeros((2, 2)))),
        "params shape (2, 2) does not match problem shape (3, 2)",
    ),
    ("alpha-negative", lambda: _problem(alpha=-1.0), "alpha must be finite and >= 0, got -1.0"),
    ("alpha-not-finite", lambda: _problem(alpha=np.inf), "alpha must be finite and >= 0, got inf"),
    ("ridge-negative", lambda: solve_exact(_problem(), ridge=-0.5), "ridge must be >= 0, got -0.5"),
    (
        "cluster-negative-member",
        lambda: ClusterSpec((0, -1)),
        "cluster members must be non-negative node indices",
    ),
    (
        "cluster-reference-not-finite",
        lambda: ClusterSpec((0, 1), reference_params=[1.0, np.inf]),
        "reference_params must be a finite 1-d vector",
    ),
    (
        "embedding-not-2d",
        lambda: Embedding(np.zeros(4)),
        "embedding must be a 2-d array (one row per node)",
    ),
    (
        "scenario-dataset-count",
        lambda: _scenario([_dataset()] * 2),
        "2 datasets for a graph with 3 nodes",
    ),
    (
        "scenario-mixed-dimensions",
        lambda: _scenario([_dataset(), _dataset(), _dataset(d=3)]),
        "all datasets must share the scenario dimension",
    ),
    ("generate-d-below-1", lambda: _generate(d=0), "d and m_per_node must be >= 1"),
    ("generate-m-below-1", lambda: _generate(m_per_node=0), "d and m_per_node must be >= 1"),
    (
        "tv-check-node-count",
        lambda: tv_lower_bound_check(_path(3), ClusterSpec((0, 1)), StackedParams(np.zeros((4, 2)))),
        "params have 4 nodes, graph has 3",
    ),
]


@pytest.mark.parametrize("call, message", [row[1:] for row in REFUSALS], ids=[row[0] for row in REFUSALS])
def test_refusal_says_why(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
