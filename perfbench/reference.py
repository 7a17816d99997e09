"""Reference computations made apart from gtvmin, used to check its outputs.

Everything here starts from raw inputs (per-node feature matrices and
labels, edge arrays, embedding vectors) and uses scipy.sparse and numpy
only; nothing calls into gtvmin. The routes differ on purpose from the
package's dense ones: a sparse assembly of Q + alpha (L kron I) solved by
block-Jacobi preconditioned conjugate gradients, the smallest eigenvalue by
shift-invert Lanczos (eigsh), induced-subgraph Laplacians from
scipy.sparse.csgraph, and a blocked numpy k-nearest-neighbour search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.csgraph import laplacian as csgraph_laplacian
from scipy.sparse.linalg import eigsh

EPS = np.finfo(float).eps


def sparse_laplacian(n: int, ii, jj, ww) -> sp.csr_matrix:
    """Laplacian D - A of the undirected graph with edge arrays (ii, jj, ww)."""
    ii, jj, ww = np.asarray(ii, int), np.asarray(jj, int), np.asarray(ww, float)
    adj = sp.coo_matrix(
        (np.concatenate([ww, ww]), (np.concatenate([ii, jj]), np.concatenate([jj, ii]))),
        shape=(n, n),
    ).tocsr()
    return sp.csr_matrix(csgraph_laplacian(adj))


@dataclass
class System:
    """Stationarity system M w = q of the quadratic GTVMin objective
    f(w) = w'Mw - 2 q'w + energy, M = Q + alpha (L kron I_d)."""

    matrix: sp.csr_matrix
    rhs: np.ndarray
    energy: float
    diag_blocks: np.ndarray  # (n, d, d) diagonal blocks of M

    def objective(self, w: np.ndarray) -> float:
        return float(w @ (self.matrix @ w) - 2.0 * (self.rhs @ w) + self.energy)

    def gradient(self, w: np.ndarray) -> np.ndarray:
        return 2.0 * (self.matrix @ w - self.rhs)

    def roundoff(self, w: np.ndarray) -> float:
        """Bound on the floating-point error of computing M w - q: a multiple
        of eps * || |M||w| + |q| ||."""
        scale = abs(self.matrix) @ np.abs(w) + np.abs(self.rhs)
        return 64.0 * EPS * float(np.linalg.norm(scale))

    def residual_bound(self, w: np.ndarray) -> float:
        """Upper bound on the exact ||M w - q||: the computed norm plus roundoff."""
        return float(np.linalg.norm(self.matrix @ w - self.rhs)) + self.roundoff(w)


def assemble(features, labels, ii, jj, ww, alpha: float) -> System:
    """Sparse assembly from per-node data (X_i, y_i) and the edge arrays."""
    n = len(features)
    d = features[0].shape[1]
    grams = np.stack([x.T @ x / x.shape[0] for x in features])
    moments = np.stack([x.T @ y / x.shape[0] for x, y in zip(features, labels)])
    energy = float(sum(y @ y / y.shape[0] for y in labels))
    lap = sparse_laplacian(n, ii, jj, ww)
    matrix = sp.block_diag(list(grams), format="csr") + alpha * sp.kron(
        lap, sp.identity(d), format="csr"
    )
    blocks = grams + alpha * lap.diagonal()[:, None, None] * np.eye(d)
    return System(sp.csr_matrix(matrix), moments.reshape(-1), energy, blocks)


def pcg_block_jacobi(system: System, rtol: float = 1e-13, max_iter: int = 20000):
    """Conjugate gradients on M w = q preconditioned by the inverses of
    M's d x d diagonal blocks. Returns (w, iterations)."""
    n, d, _ = system.diag_blocks.shape
    inverse = np.linalg.inv(system.diag_blocks)

    def precondition(r):
        return np.einsum("nij,nj->ni", inverse, r.reshape(n, d)).reshape(-1)

    q = system.rhs
    target = rtol * float(np.linalg.norm(q))
    w = np.zeros_like(q)
    r = q.copy()
    z = precondition(r)
    p = z.copy()
    rz = float(r @ z)
    for iteration in range(max_iter):
        if float(np.linalg.norm(r)) <= target:
            return w, iteration
        mp = system.matrix @ p
        step = rz / float(p @ mp)
        w += step * p
        r -= step * mp
        z = precondition(r)
        rz_next = float(r @ z)
        p = z + (rz_next / rz) * p
        rz = rz_next
    raise RuntimeError(f"PCG did not reach rtol {rtol:g} in {max_iter} iterations")


def smallest_eigenvalue(matrix: sp.spmatrix) -> float:
    """mu_min of a symmetric positive definite matrix, by shift-invert
    Lanczos around zero."""
    vals = eigsh(sp.csc_matrix(matrix), k=1, sigma=0.0, which="LM", return_eigenvectors=False)
    return float(vals[0])


def induced_lambda2(n: int, ii, jj, ww, members) -> float:
    """Second-smallest Laplacian eigenvalue of the subgraph induced by
    ``members`` (re-indexed in member order)."""
    members = np.asarray(members, dtype=int)
    if members.size < 2:
        raise ValueError("lambda2 needs at least two nodes")
    pos = np.full(n, -1)
    pos[members] = np.arange(members.size)
    ii, jj = np.asarray(ii, int), np.asarray(jj, int)
    keep = (pos[ii] >= 0) & (pos[jj] >= 0)
    lap = sparse_laplacian(members.size, pos[ii[keep]], pos[jj[keep]], np.asarray(ww)[keep])
    vals = scipy.linalg.eigh(
        lap.toarray(), eigvals_only=True, subset_by_index=[0, 1], driver="evr"
    )
    return float(max(vals[1], 0.0))


def boundary(n: int, ii, jj, ww, members) -> float:
    """Total weight of edges with exactly one endpoint among ``members``."""
    inside = np.zeros(n, dtype=bool)
    inside[np.asarray(members, dtype=int)] = True
    cut = inside[np.asarray(ii, int)] != inside[np.asarray(jj, int)]
    return float(np.asarray(ww, float)[cut].sum())


def deviation_sum(per_node: np.ndarray, members) -> float:
    """sum_{i in C} ||w_i - avg_C||^2."""
    rows = per_node[np.asarray(members, dtype=int)]
    dev = rows - rows.mean(axis=0)
    return float((dev * dev).sum())


def union_knn(vectors: np.ndarray, k: int, sigma: float, block: int = 256) -> dict:
    """Union k-nearest-neighbour edges {(i, j): exp(-dist^2 / sigma^2)},
    i < j; distance ties go to the smaller index."""
    vectors = np.asarray(vectors, dtype=float)
    n = vectors.shape[0]
    edges: dict[tuple[int, int], float] = {}
    for start in range(0, n, block):
        rows = vectors[start : start + block]
        sq = ((rows[:, None, :] - vectors[None, :, :]) ** 2).sum(axis=2)
        local = np.arange(rows.shape[0])
        sq[local, start + local] = np.inf
        nearest = np.argsort(sq, axis=1, kind="stable")[:, :k]
        for a, row in enumerate(nearest):
            i = start + a
            for j in row.tolist():
                edges[(min(i, j), max(i, j))] = float(np.exp(-sq[a, j] / sigma**2))
    return edges
