"""The joint training objective and its two solvers.

The objective couples per-node losses through a squared-difference penalty
over the similarity graph edges,

    f(w) = sum_i L_i(w_i) + alpha * sum_{edges} A_ij ||w_i - w_j||^2,

with L_i(w_i) = (1/m_i) ||y_i - X_i w_i||^2, a quadratic with Hessian
2 Q + 2 alpha (L kron I_d), Q = blockdiag((1/m_i) X_i^T X_i). A problem
batches the samples of its losses by sample count once and computes from
the batches, by batched matmul, the Gram tensor and moments that feed the
system operator, the gradients and both solvers; the batches also feed the
one exact evaluator of objective values.
The graph is read through its cached edge arrays and its Laplacian. The
node count alone chooses, in one place (:func:`_operators`), how the
system operator, the gradients and the block-Jacobi preconditioner are
applied: at or below ``_DENSE_NODES`` nodes through the graph's dense
Laplacian and np.einsum over each stack of d x d blocks (the Gram tensor,
the block-Jacobi inverses), which load no scipy module; above it through
the graph's sparse Laplacian and one block-diagonal CSR matrix per stack,
whose data is the stack's own buffer, which import scipy.sparse. The
exact solver never forms the (n d) x (n d) stationarity matrix: it applies
it through the Gram blocks and the Laplacian inside block-Jacobi
preconditioned conjugate gradients, after an exact singularity test on the
pooled Gram matrix of each graph component, and accepts the result only
through a residual gate; it reports the conjugate-gradient rounds, summed
over its refinement passes, as its iterations. The iterative solver runs
synchronous gradient descent in which every node reads only its own loss
gradient and its neighbors' parameters, and steps by its own fixed step
from its own Gram matrix and weighted degree. Neither solver loads
scipy.sparse.linalg or scipy.linalg.
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .data import (
    LocalDataset,
    Scenario,
    _json_field,
    _read_json,
    _write_json,
)
from .errors import DivergenceError, SingularSystemError
from .graph import SimilarityGraph, _components, laplacian

__all__ = [
    "QuadraticLoss",
    "StackedParams",
    "GTVMinProblem",
    "SolveResult",
    "objective",
    "objective_gradient",
    "solve_exact",
    "solve_iterative",
    "save_result",
    "load_result",
]

# the exact solver refuses solutions whose stationarity residual exceeds
# this fraction of ||q||; beyond it the system counts as numerically singular
_RESIDUAL_RTOL = 1e-8

# a pooled Gram matrix whose smallest eigenvalue is at most this multiple of
# d * eps * (its largest) counts as singular; eigvalsh returns at most
# 0.6 d eps lambda_max for exactly rank-deficient sums of Grams (measured
# over random ones with d <= 10), so the margin is about 100x
_SINGULAR_EPS_MULTIPLE = 64.0

# conjugate gradients stop once the recursive residual is below this
# fraction of ||q||, or once the update has stayed below the roundoff of the
# iterate for this many consecutive rounds (stagnation). The residual norm
# itself is no stall signal: on ill-conditioned systems it can go hundreds
# of rounds without a new minimum and still converge.
_PCG_RTOL = 1e-14
_PCG_STAGNANT_ROUNDS = 3

# at most this many conjugate-gradient passes per exact solve: each pass
# after the first refines the solution from its true residual
_PCG_PASSES = 3

# at or below this many nodes the system operator, the gradients and the
# preconditioner run on the dense Laplacian and np.einsum, above it on CSR
# matrices. The dense Laplacian product costs n^2 d multiply-adds, the CSR
# one (2 E + n) d plus scipy's fixed cost per call; the block products cost
# n d^2 on either route. Measured with one BLAS thread on planted (p_in 0.5)
# and kNN (k = 8) graphs at d = 3 and 8, for n from 32 to 512 in steps of
# 32, a dense round is no slower than a CSR one on all four up to n = 192,
# and on the planted graphs at d = 3 up to n = 448 (table in CHANGES.md). A
# process whose problems all stay at or below it never imports scipy.sparse
# (about 0.2 s and 15 MiB).
_DENSE_NODES = 192


class QuadraticLoss:
    """Mean squared residual (1/m) ||y - X w||^2 of one local dataset, the
    only loss a :class:`GTVMinProblem` takes.

    It keeps only its dataset: the problem computes the Gram matrices and
    moments of all its nodes at once from the batched samples."""

    def __init__(self, dataset: LocalDataset):
        self.dataset = dataset


class StackedParams:
    """Per-node parameter vectors as an (n, d) array.

    ``flat`` is the node-major stacked view (w_1^T, ..., w_n^T)^T of length
    n*d. Treated as a value object: operations return fresh instances.
    """

    __slots__ = ("per_node",)

    def __init__(self, per_node: np.ndarray):
        arr = np.asarray(per_node, dtype=float)
        if arr.ndim != 2:
            raise ValueError(f"expected an (n, d) array, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("parameters must be finite")
        self.per_node = arr

    @classmethod
    def from_flat(cls, vec: np.ndarray, n: int, d: int) -> "StackedParams":
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (n * d,):
            raise ValueError(f"expected a flat vector of length {n * d}, got {vec.shape}")
        return cls(vec.reshape(n, d).copy())

    @property
    def n(self) -> int:
        return self.per_node.shape[0]

    @property
    def d(self) -> int:
        return self.per_node.shape[1]

    @property
    def flat(self) -> np.ndarray:
        return self.per_node.reshape(-1)

    def copy(self) -> "StackedParams":
        return StackedParams(self.per_node.copy())


class GTVMinProblem:
    """Per-node quadratic losses on a similarity graph plus the coupling
    strength.

    Immutable: ``losses`` is a tuple, stacked once, at construction, as
    ``_stack`` = (gram, moment), the blocks of Q and q in the stationarity
    system (Q + alpha (L kron I)) w = q, and as the sample batches
    ``_batches``. A loss that is not a :class:`QuadraticLoss`
    raises a TypeError, and one whose dimension is not ``d`` a ValueError,
    both naming the loss. :meth:`_alpha_free` keeps, in one memo that
    ``_with_alpha`` copies share, what alpha does not change: the product
    operators (:func:`_operators`), each node's smoothness, the singularity
    test's pooled Gram spectra (coupled or not) and each cluster's graph
    quantities for the analysis, each computed on first use."""

    def __init__(
        self,
        losses: Sequence[QuadraticLoss],
        graph: SimilarityGraph,
        alpha: float,
        d: int,
    ):
        if len(losses) != graph.n:
            raise ValueError(f"{len(losses)} losses for a graph with {graph.n} nodes")
        if int(d) < 1:
            raise ValueError("parameter dimension must be >= 1")
        self.losses = tuple(losses)
        self.graph = graph
        self.alpha = _check_alpha(alpha)
        self.d = int(d)
        for i, loss in enumerate(self.losses):
            if not isinstance(loss, QuadraticLoss):
                raise TypeError(f"loss {i} is a {type(loss).__name__}, not a QuadraticLoss")
            if loss.dataset.dim != self.d:
                raise ValueError(
                    f"loss {i} has dimension {loss.dataset.dim}, expected d = {self.d}"
                )
        self._stack, self._batches = _stack_samples([loss.dataset for loss in self.losses])
        self._memo = {}

    @classmethod
    def from_scenario(cls, scenario: Scenario, alpha: float) -> "GTVMinProblem":
        return cls(
            [QuadraticLoss(ds) for ds in scenario.datasets],
            scenario.graph,
            alpha,
            scenario.d,
        )

    def _with_alpha(self, alpha: float) -> "GTVMinProblem":
        """This problem at another ``alpha``, sharing its loss stack and memo."""
        other = copy.copy(self)
        other.alpha = _check_alpha(alpha)
        return other

    @property
    def n(self) -> int:
        return self.graph.n

    def _alpha_free(self, key, compute, *args):
        """The memo's ``key``, a quantity alpha does not change: ``compute(*args)``
        on first use (threads racing on it compute it twice)."""
        if key not in self._memo:
            self._memo[key] = compute(*args)
        return self._memo[key]

    def _check_params(self, params: StackedParams) -> None:
        if params.n != self.n or params.d != self.d:
            raise ValueError(
                f"params shape {params.per_node.shape} does not match "
                f"problem shape ({self.n}, {self.d})"
            )


def _check_alpha(alpha) -> float:
    alpha = float(alpha)
    if not np.isfinite(alpha) or alpha < 0.0:
        raise ValueError(f"alpha must be finite and >= 0, got {alpha}")
    return alpha


def _check_coupling(problem: GTVMinProblem) -> None:
    """Refuse an alpha whose coupling overflows: 4 alpha deg_i is node i's
    share of the Laplacian in its step size and bounds that share of the
    system's norm, so it must be finite at every node."""
    degrees = problem.graph.weighted_degrees()
    i = int(np.argmax(degrees))
    if not math.isfinite(4.0 * problem.alpha * float(degrees[i])):
        raise ValueError(
            f"alpha {problem.alpha:g} overflows the coupling: 4 * alpha * the "
            f"weighted degree {degrees[i]:g} of node {i} is not finite"
        )


def _operators(problem: GTVMinProblem):
    """(Laplacian, Gram product, block product) of the problem, the one
    place that chooses the route, from the node count alone.

    The Laplacian is applied as ``lap @ w`` to an (n, d) array. The block
    product maps a C-contiguous (n, d, d) stack to the product
    w -> (blocks_i w_i)_i, and the Gram product is its value at the Gram
    stack. At or below ``_DENSE_NODES`` nodes they are the graph's dense
    :func:`laplacian` and np.einsum; above it, the graph's CSR Laplacian and
    block-diagonal CSR matrices, which import scipy.sparse."""
    if problem.n <= _DENSE_NODES:
        lap, blocks = laplacian(problem.graph), _einsum_product
    else:
        lap, blocks = problem.graph._laplacian_csr(), _csr_product
    return lap, blocks(problem._stack[0]), blocks


def _einsum_product(blocks: np.ndarray):
    """The product of the (n, d, d) stack ``blocks`` with an (n, d) array, by
    np.einsum: no matrix is built and no scipy module loaded."""
    return functools.partial(np.einsum, "nij,nj->ni", blocks)


def _csr_product(blocks: np.ndarray):
    """The product of the C-contiguous (n, d, d) stack ``blocks`` with an
    (n, d) array, through the (n d) x (n d) block-diagonal CSR matrix whose
    ``data`` is the stack's own buffer, so that a product sums each block
    row's d terms in column order."""
    import scipy.sparse

    n, d, _ = blocks.shape
    indptr = np.arange(0, n * d * d + 1, d)
    indices = np.broadcast_to(np.arange(n * d).reshape(n, 1, d), (n, d, d)).reshape(-1)
    matrix = scipy.sparse.csr_array((blocks.reshape(-1), indices, indptr), shape=(n * d, n * d))
    return lambda w: (matrix @ w.reshape(-1)).reshape(w.shape)


def _stack_samples(data: Sequence[LocalDataset]):
    """((gram, moment), batches) of quadratic losses on ``data``.

    The batches hold the samples by sample count as (node indices,
    features (k, m, d), labels (k, m)); each batch's (1/m) x'x and x'y come
    from one batched matmul whose every slice takes the BLAS call of the
    per-node product (syrk, gemv), so the stack equals the per-node products
    bit for bit. A ValueError names the first node at which the stack, or
    the running sum in node order of label energies (1/m) y'y, overflows."""
    counts = np.array([ds.num_samples for ds in data])
    dim = data[0].features.shape[1]
    gram = np.empty((len(data), dim, dim))
    moment = np.empty((len(data), dim))
    energy = np.empty(len(data))
    batches = []
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        for m in np.flatnonzero(np.bincount(counts)):
            idx = np.flatnonzero(counts == m)
            x = np.stack([data[i].features for i in idx])
            y = np.stack([data[i].labels for i in idx])
            xt = x.transpose(0, 2, 1)
            gram[idx] = xt @ x / m
            moment[idx] = (xt @ y[:, :, None])[:, :, 0] / m
            energy[idx] = (y[:, None, :] @ y[:, :, None])[:, 0, 0] / m
            batches.append((idx, x, y))
        finite = np.isfinite(gram).all(axis=(1, 2)) & np.isfinite(moment).all(axis=1)
        finite &= np.isfinite(np.cumsum(energy))
    if not finite.all():
        raise ValueError(f"the quadratic loss terms overflow at node {int(np.argmin(finite))}")
    return (gram, moment), batches


@dataclass
class SolveResult:
    """Solver output: the parameters plus convergence diagnostics.

    ``residual`` is the stationarity residual ||M w - q|| for the exact
    solver and the gradient norm 2 ||M w - q|| for the iterative one;
    ``converged`` says that it met the solver's test (exact: 1e-8 ||q||, or
    the solver raises; iterative: 2 tol ||q||). ``iterations`` counts
    gradient rounds for the iterative solver and conjugate-gradient rounds,
    summed over the refinement passes, for the exact one.
    """

    params: StackedParams
    objective_value: float
    iterations: int
    converged: bool
    residual: float
    alpha: float


def _result(problem: GTVMinProblem, w: np.ndarray, iterations: int, converged: bool, residual):
    """The :class:`SolveResult` of either solver at the (n, d) array w."""
    params = StackedParams(w)
    objective_value = objective(problem, params)
    return SolveResult(params, objective_value, iterations, converged, residual, problem.alpha)


def _edge_variation(graph: SimilarityGraph, w: np.ndarray, edges) -> float:
    """sum A_ij ||w_i - w_j||^2 over the edges that ``edges`` (a slice or a
    boolean mask over the canonical edge order) selects."""
    ii, jj, ww = graph.edge_arrays()
    diff = w[ii[edges]] - w[jj[edges]]
    return float(ww[edges] @ np.einsum("ed,ed->e", diff, diff))


def _evaluate(problem: GTVMinProblem, w: np.ndarray, nodes, edges) -> float:
    """sum_{i in nodes} L_i(w_i) + alpha sum_{edges} A_ij ||w_i - w_j||^2 at
    the (n, d) array w (``nodes``, ``edges``: slices or boolean masks).
    The losses take the residual form (1/m) ||y - X w_i||^2 by batched
    matmul, which rounds like :func:`quadratic_loss`: an exact fit reads 0."""
    per_node = np.empty(problem.n)
    for idx, x, y in problem._batches:
        r = y - (x @ w[idx][:, :, None])[:, :, 0]
        per_node[idx] = (r[:, None, :] @ r[:, :, None])[:, 0, 0] / y.shape[1]
    value = per_node[nodes].sum()
    if problem.alpha > 0.0:
        value += problem.alpha * _edge_variation(problem.graph, w, edges)
    return float(value)


def objective(problem: GTVMinProblem, params: StackedParams) -> float:
    """Sum of local losses plus alpha times the total variation. Parameters
    that fit every loss exactly and agree across every edge read
    exactly zero."""
    problem._check_params(params)
    return _evaluate(problem, params.per_node, slice(None), slice(None))


def objective_gradient(problem: GTVMinProblem, params: StackedParams) -> np.ndarray:
    """Gradient of :func:`objective` as an (n, d) array: per-node loss
    gradients plus 2 alpha (L kron I) applied to the stacked parameters."""
    problem._check_params(params)
    return 2.0 * _half_gradient(problem, params.per_node)


def _half_gradient(problem: GTVMinProblem, w) -> np.ndarray:
    """Half the objective's gradient at the (n, d) array w, the stationarity
    residual g = M w - q, with M w from :func:`_system_product`. Halving is
    exact, so 2 g is the gradient bit for bit."""
    g = _system_product(problem, 0.0, w)
    g -= problem._stack[1]
    return g


def _system_product(problem: GTVMinProblem, ridge: float, w):
    """(Q + alpha (L kron I) + ridge I) applied to the (n, d) array w,
    without forming the matrix."""
    lap, gram, _ = problem._alpha_free("operators", _operators, problem)
    out = gram(w)
    if problem.alpha > 0.0 and problem.graph.num_edges > 0:
        out += problem.alpha * (lap @ w)
    if ridge:
        out += ridge * w
    return out


def _check_nonsingular(problem: GTVMinProblem) -> None:
    """Raise :class:`SingularSystemError` when Q + alpha (L kron I) is
    singular, which happens iff some connected component of the graph has a
    singular pooled Gram matrix sum_{i in c} gram_i (with alpha = 0 or no
    edges, every node is its own component)."""
    graph = problem.graph
    coupled = problem.alpha > 0.0 and graph.num_edges > 0
    labels, vals = problem._alpha_free(
        ("pooled", coupled), _pooled_spectra, graph, problem._stack[0], coupled
    )
    eps = np.finfo(float).eps
    singular = vals[:, 0] <= _SINGULAR_EPS_MULTIPLE * problem.d * eps * vals[:, -1]
    if singular.any():
        c = int(np.argmax(singular))
        members = np.flatnonzero(labels == c)
        alone = "" if coupled else "; with alpha = 0 or no edges every node is its own component"
        remedy = "call solve_exact(..., ridge=...) with ridge > 0 to regularize explicitly"
        if problem.alpha == 0.0 and graph.num_edges > 0:
            remedy = f"pass alpha > 0 to couple the nodes along the graph edges, or {remedy}"
        raise SingularSystemError(
            f"stationarity matrix Q + alpha*(L kron I) is singular: the graph "
            f"component of {members.size} node(s) starting at node {members[0]} "
            f"has a singular pooled Gram matrix (smallest eigenvalue "
            f"{vals[c, 0]:.3e}, largest {vals[c, -1]:.3e}){alone}. Remedy: {remedy}"
        )


def _pooled_spectra(graph: SimilarityGraph, gram: np.ndarray, coupled: bool):
    """Each node's component label and the ascending eigenvalues of each
    component's pooled Gram matrix; uncoupled, every node is its own."""
    count, labels = _components(graph) if coupled else (graph.n, np.arange(graph.n))
    pooled = np.zeros((count, *gram.shape[1:]))
    np.add.at(pooled, labels, gram)
    return labels, np.linalg.eigvalsh(pooled)


def _norm(x: np.ndarray) -> float:
    """Euclidean norm of all entries; the bits of np.linalg.norm (both reduce
    through one BLAS dot) at less call overhead."""
    return math.sqrt(np.vdot(x, x))


def _pcg(apply, rhs: np.ndarray, precondition, target: float) -> tuple[np.ndarray, int]:
    """Preconditioned conjugate gradients on apply(w) = rhs from w = 0;
    returns the iterate and the number of updates it took.

    Stops at a recursive residual norm of ``target``, on stagnation, on
    breakdown of the recurrence (a non-positive or non-finite curvature or
    r'z), or after a hard cap of rounds; the caller decides on
    acceptance."""
    eps = np.finfo(float).eps
    w = np.zeros_like(rhs)
    r = rhs.copy()
    z = precondition(r)
    p = z.copy()
    rz = float(np.vdot(r, z))
    stagnant = rounds = 0
    # exact arithmetic terminates within rhs.size rounds; the rest is margin
    for _ in range(2 * rhs.size + 100):
        if _norm(r) <= target or stagnant >= _PCG_STAGNANT_ROUNDS:
            break
        ap = apply(p)
        curvature = float(np.vdot(p, ap))
        if not (0.0 < curvature < np.inf and rz > 0.0):
            break
        step = rz / curvature
        w += step * p
        rounds += 1
        stagnant = stagnant + 1 if abs(step) * _norm(p) < eps * _norm(w) else 0
        r -= step * ap
        z = precondition(r)
        rz_next = float(np.vdot(r, z))
        p = z + (rz_next / rz) * p
        rz = rz_next
    return w, rounds


def solve_exact(problem: GTVMinProblem, ridge: float = 0.0) -> SolveResult:
    """Solve the stationarity system (Q + alpha (L kron I) + ridge I) w = q
    to roundoff.

    The matrix is never formed: conjugate gradients apply it through the
    Gram matrix and the sparse Laplacian, preconditioned by the inverses of
    its d x d diagonal blocks gram_i + (alpha deg_i + ridge) I, in up to
    three passes, each after the first refining the solution from its true
    residual; ``iterations`` counts the rounds of every pass run. With
    ``ridge`` = 0 the system is first tested for singularity: it is
    singular iff some connected component of the graph (every node on its
    own when alpha = 0) has a singular pooled Gram matrix, for instance
    alpha = 0 with fewer samples than parameters at a node; such a system
    raises :class:`SingularSystemError` naming the component. Whatever
    stops the iteration, the solution is accepted only if its stationarity
    residual is at most 1e-8 ||q||, and :class:`SingularSystemError` is
    raised otherwise. ``ridge`` > 0 opts into an explicit diagonal shift
    instead of any silent pseudo-inverse.
    """
    ridge = float(ridge)
    if ridge < 0.0:
        raise ValueError(f"ridge must be >= 0, got {ridge}")
    _check_coupling(problem)
    gram, moment = problem._stack
    if ridge == 0.0:
        _check_nonsingular(problem)
    shift = problem.alpha * problem.graph.weighted_degrees() + ridge
    inverse = np.linalg.inv(gram + shift[:, None, None] * np.eye(problem.d))
    _, _, blocks = problem._alpha_free("operators", _operators, problem)
    precondition = blocks(inverse)

    def apply(v):
        return _system_product(problem, ridge, v)

    rhs_norm = _norm(moment)
    w, r, residual = np.zeros_like(moment), moment, rhs_norm
    rounds = 0
    # the recursive residual drifts from the true one by roundoff that grows
    # with the rounds taken; solving again for a correction from the true
    # residual (iterative refinement) removes the drift
    for _ in range(_PCG_PASSES):
        correction, taken = _pcg(apply, r, precondition, _PCG_RTOL * rhs_norm)
        rounds += taken
        candidate = w + correction
        r_next = moment - apply(candidate)
        next_norm = _norm(r_next)
        if not next_norm < residual:
            break
        halved = next_norm <= 0.5 * residual
        w, r, residual = candidate, r_next, next_norm
        if residual <= _PCG_RTOL * rhs_norm or not halved:
            break
    if rhs_norm > 0.0 and residual > _RESIDUAL_RTOL * rhs_norm:
        # Gershgorin: no eigenvalue of the matrix exceeds its largest
        # absolute row sum, for node i the largest of |gram_i| plus
        # 2 alpha deg_i + ridge
        coupling = 2.0 * problem.alpha * problem.graph.weighted_degrees() + ridge
        norm_bound = float((np.abs(gram).sum(axis=2).max(axis=1) + coupling).max())
        # from the last candidate: w stays at zero when no pass lowers the residual
        floor = np.finfo(float).eps * norm_bound * _norm(candidate)
        raise SingularSystemError(
            f"stationarity system is numerically singular: residual {residual:.3e} "
            f"exceeds {_RESIDUAL_RTOL:.0e} * ||q|| = {_RESIDUAL_RTOL * rhs_norm:.3e}; "
            f"the roundoff floor eps * ||M|| * ||w|| is about {floor:.3e}, "
            f"with ||M|| <= {norm_bound:.3e} (Gershgorin)"
        )
    return _result(problem, w, rounds, True, residual)


def _step_size(problem: GTVMinProblem) -> np.ndarray:
    """Each node's fixed step tau_i = 1/(smoothness_i + 4 alpha deg_i), as a
    C-contiguous (n, d) array, read from the node's own Gram matrix and
    weighted degree only (0 where both vanish, and with them the gradient).

    ||w_i - w_j||^2 <= 2 ||w_i||^2 + 2 ||w_j||^2 bounds the Hessian
    H = 2 Q + 2 alpha (L kron I) by w'Hw <= sum_i ||w_i||^2 / tau_i, so a
    round w - tau * grad f does not raise the objective. The smoothness is
    computed once per problem and shared by its alpha copies."""
    _check_coupling(problem)
    smoothness = problem._alpha_free("smoothness", _smoothness, problem)
    lipschitz = smoothness + 4.0 * problem.alpha * problem.graph.weighted_degrees()
    step = np.divide(1.0, lipschitz, out=np.zeros(problem.n), where=lipschitz > 0.0)
    return np.repeat(step[:, None], problem.d, axis=1)


def _smoothness(problem: GTVMinProblem) -> np.ndarray:
    """Each node's smoothness 2 lambda_max(gram_i), by one batched eigensolve."""
    return 2.0 * np.maximum(np.linalg.eigvalsh(problem._stack[0])[:, -1], 0.0)


def _check_stopping(max_iter: int, tol: float, names=("max_iter", "tol")) -> float:
    """Check :func:`solve_iterative`'s stopping parameters, ``max_iter >= 1``
    and ``tol`` finite and >= 0, raising a ValueError that names the one at
    fault by its entry in ``names``; returns ``tol`` as a float."""
    if int(max_iter) < 1:
        raise ValueError(f"{names[0]} must be >= 1, got {max_iter}")
    tol = float(tol)
    if not (np.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"{names[1]} must be finite and >= 0, got {tol}")
    return tol


def solve_iterative(
    problem: GTVMinProblem,
    max_iter: int = 10000,
    tol: float = 1e-10,
) -> SolveResult:
    """Synchronous full-gradient descent in which node i takes the fixed
    step 1/(smoothness_i + 4 alpha deg_i) (:func:`_step_size`).

    Starts from all zeros and stops once half the gradient, the residual
    g = M w - q, has ||g|| <= ``tol`` ||q||, or after ``max_iter`` rounds
    (all of them at ``tol`` = 0, unless g vanishes); ``converged`` records
    which. The fixed steps never raise the objective in exact arithmetic;
    a run whose gradient norm still turns non-finite raises
    :class:`DivergenceError`.
    """
    tol = _check_stopping(max_iter, tol)

    # the gradient is 2 g, and 2 step is exact: the update rounds as w - step * 2 g
    double_step = 2.0 * _step_size(problem)
    target = tol * _norm(problem._stack[1])
    w = np.zeros((problem.n, problem.d))
    g = _half_gradient(problem, w)
    for iterations in range(1, int(max_iter) + 1):
        w -= double_step * g
        g = _half_gradient(problem, w)
        norm = _norm(g)
        if not math.isfinite(norm):
            raise DivergenceError(f"gradient norm became non-finite at iteration {iterations}")
        if norm <= target:
            break

    return _result(problem, w, iterations, norm <= target, 2.0 * norm)


# each scalar key of a result file: the SolveResult field it holds, its JSON kind
# and its conversion on loading; n, d and params hold the parameters
_RESULT_KEYS = {
    "objective": ("objective_value", "a finite number", float),
    "iterations": ("iterations", "a non-negative integer", int),
    "converged": ("converged", "true or false", bool),
    "residual": ("residual", "a finite number", float),
    "alpha": ("alpha", "a non-negative number", float),
}


def save_result(result: SolveResult, path: str | Path) -> None:
    """JSON serialization: flattened parameters plus diagnostics."""
    payload = {key: getattr(result, name) for key, (name, _, _) in _RESULT_KEYS.items()}
    params = result.params
    _write_json(path, {**payload, "n": params.n, "d": params.d, "params": params.flat.tolist()})


def load_result(path: str | Path) -> SolveResult:
    """Read back a file written by :func:`save_result`. A key that is
    missing or not of its kind (``n`` and ``d`` positive integers, ``params``
    n * d finite numbers) raises a ValueError that starts with the path."""
    path = Path(path)
    payload = _read_json(path)

    def field(key, kind):
        return _json_field(payload, key, kind, path)

    flat = np.asarray(field("params", "a list of finite numbers"), dtype=float)
    n, d = field("n", "a positive integer"), field("d", "a positive integer")
    try:
        params = StackedParams.from_flat(flat, n, d)
    except ValueError as exc:
        raise ValueError(f"{path}: key 'params': {exc}") from None
    values = {name: cast(field(key, kind)) for key, (name, kind, cast) in _RESULT_KEYS.items()}
    return SolveResult(params=params, **values)
