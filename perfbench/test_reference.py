"""Closed-form checks of the reference computations in reference.py.

Run with ``python3 perfbench/test_reference.py`` (or point pytest at this
file; the package's own test run does not collect it).
"""

from __future__ import annotations

import itertools

import numpy as np

import reference


def _complete(m: int, offset: int = 0):
    pairs = list(itertools.combinations(range(offset, offset + m), 2))
    return [p[0] for p in pairs], [p[1] for p in pairs], [1.0] * len(pairs)


def test_complete_graph_lambda2_is_m():
    for m in range(2, 9):
        # K_m on nodes 3..3+m-1 of a larger graph, plus edges leaving it
        ii, jj, ww = _complete(m, offset=3)
        ii += [0, 1, 3]
        jj += [3, 3 + m - 1, 3 + m]
        ww += [0.5, 2.0, 1.5]
        n = 3 + m + 1
        members = list(range(3, 3 + m))
        assert abs(reference.induced_lambda2(n, ii, jj, ww, members) - m) <= 1e-12 * m
        assert reference.boundary(n, ii, jj, ww, members) == 4.0


def test_path_graph_lambda2():
    for m in range(2, 30):
        ii, jj, ww = list(range(m - 1)), list(range(1, m)), [1.0] * (m - 1)
        expected = 2.0 - 2.0 * np.cos(np.pi / m)
        got = reference.induced_lambda2(m, ii, jj, ww, list(range(m)))
        assert abs(got - expected) <= 1e-12


def _small_system(seed: int):
    rng = np.random.default_rng(seed)
    n, d = 7, 3
    features = [rng.standard_normal((5, d)) for _ in range(n)]
    labels = [rng.standard_normal(5) for _ in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
    ii, jj = [p[0] for p in pairs], [p[1] for p in pairs]
    ww = rng.uniform(0.5, 2.0, len(pairs)).tolist()
    return reference.assemble(features, labels, ii, jj, ww, alpha=0.7), features, labels


def test_pcg_matches_dense_solve():
    for seed in range(5):
        system, _, _ = _small_system(seed)
        dense = system.matrix.toarray()
        w, _ = reference.pcg_block_jacobi(system)
        exact = np.linalg.solve(dense, system.rhs)
        assert np.linalg.norm(w - exact) <= 1e-10 * np.linalg.norm(exact)
        mu = reference.smallest_eigenvalue(system.matrix)
        assert abs(mu - np.linalg.eigvalsh(dense)[0]) <= 1e-10 * np.linalg.norm(dense, 2)
        assert np.linalg.norm(w - exact) <= system.residual_bound(w) / mu


def test_objective_and_gradient_match_their_definition():
    system, features, labels = _small_system(11)
    rng = np.random.default_rng(3)
    w = rng.standard_normal(system.rhs.size)
    per_node = w.reshape(len(features), -1)
    dense = system.matrix.toarray()
    loss = sum(np.mean((y - x @ wi) ** 2) for x, y, wi in zip(features, labels, per_node))
    quad_q = sum(wi @ (x.T @ x / x.shape[0]) @ wi for x, wi in zip(features, per_node))
    penalty = w @ dense @ w - quad_q  # alpha * sum_edges A_ij ||w_i - w_j||^2
    assert abs(system.objective(w) - (loss + penalty)) <= 1e-10 * abs(loss + penalty)
    assert np.allclose(system.gradient(w), 2.0 * (dense @ w - system.rhs), rtol=0, atol=1e-12)


def test_union_knn_on_a_line():
    # distinct gaps: 0 -> 1, 1 -> 0, 3 -> 1, 7 -> 3
    points = np.array([[0.0], [1.0], [3.0], [7.0]])
    edges = reference.union_knn(points, k=1, sigma=2.0)
    assert set(edges) == {(0, 1), (1, 2), (2, 3)}
    assert abs(edges[(1, 2)] - np.exp(-4.0 / 4.0)) <= 1e-15
    # equal gaps: ties go to the smaller index
    line = np.arange(5.0)[:, None]
    assert set(reference.union_knn(line, k=1, sigma=1.0, block=2)) == {(0, 1), (1, 2), (2, 3), (3, 4)}
    assert len(reference.union_knn(line, k=4, sigma=1.0)) == 10


if __name__ == "__main__":
    for name, func in sorted(globals().items()):
        if name.startswith("test_") and callable(func):
            func()
            print(f"[PASS] {name}")
