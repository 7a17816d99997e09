"""Weighted undirected similarity graphs.

Nodes stand for data generators; a positive edge weight quantifies how
statistically similar two generators are believed to be. This module holds
the graph container, its Laplacian and spectral quantities, cluster
boundaries, and two graph constructors (a planted-cluster random model and
a k-nearest-neighbor graph built from vector embeddings of the local
datasets).
"""

from __future__ import annotations

import io
import warnings
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "DISCONNECTION_RTOL",
    "SimilarityGraph",
    "ClusterSpec",
    "Embedding",
    "GraphParams",
    "laplacian",
    "lambda2",
    "induced_subgraph",
    "cluster_boundary",
    "generate_planted_clusters",
    "graph_from_embedding",
    "write_graph",
    "read_graph",
]

# lambda2 below this fraction of the largest weighted degree is treated as
# zero, i.e. the graph counts as disconnected. Downstream bound reports flag
# this instead of dividing by a numerically meaningless eigenvalue.
DISCONNECTION_RTOL = 1e-9

# node pairs per block of the planted-cluster generator: each block of rows
# of the upper triangle draws its own uniforms and maps only the pairs it
# keeps back to their endpoints
_PAIR_BLOCK = 1 << 16

# distances per block of the k-nearest-neighbor search: a block holds
# max(1, _KNN_BLOCK // n) rows, so its (rows x n) buffers stay at about
# this many elements whatever n is
_KNN_BLOCK = 1 << 16


class SimilarityGraph:
    """Undirected weighted graph on nodes ``0..n-1``.

    Edges are ``(i, j, weight)`` triples, or an (E, 3) array of them,
    canonicalized to ``(min(i, j), max(i, j))``; self-loops, duplicate
    pairs, non-positive weights and weighted degrees that overflow are
    rejected. The graph is
    stored once, as edge arrays in canonical sorted order plus the weighted
    degrees; every other view (the edge map, the dense adjacency, both
    Laplacians) is derived from them. Instances are immutable after
    construction and safe to share across threads.
    """

    __slots__ = ("_n", "_ii", "_jj", "_ww", "_degrees", "_edge_map", "_csr")

    def __init__(self, n: int, edges: Iterable[tuple[int, int, float]] = ()):
        n = int(n)
        if n < 1:
            raise ValueError(f"node count must be >= 1, got {n}")
        if n > np.iinfo(np.intp).max:
            raise ValueError(f"node count {n} exceeds the largest array index")
        if not isinstance(edges, np.ndarray):
            edges = list(edges)
        try:
            ii, jj, ww = np.asarray(edges, dtype=float).reshape(len(edges), 3).T
        except OverflowError:
            raise ValueError(f"edge endpoint out of range for n={n}: beyond the float range") from None
        # endpoints are checked as floats, before any integer cast can wrap
        # or truncate them
        fractional = ~(np.isfinite(ii) & np.isfinite(jj)) | (ii != np.floor(ii)) | (jj != np.floor(jj))
        out_of_range = (np.minimum(ii, jj) < 0) | (np.maximum(ii, jj) >= n)
        bad_weight = ~np.isfinite(ww) | (ww <= 0.0)
        for bad, message in [
            (fractional, "edge ({i}, {j}) needs integer endpoints"),
            (ii == jj, "self-loop on node {i}"),
            (out_of_range, "edge ({i}, {j}) out of range for n={n}"),
            (bad_weight, "edge ({i}, {j}) needs a positive finite weight, got {w}"),
        ]:
            if bad.any():
                k = int(np.argmax(bad))
                i, j = (_as_given(edges[k][col]) for col in (0, 1))
                raise ValueError(message.format(i=i, j=j, w=ww[k], n=n))
        ii, jj = ii.astype(np.intp), jj.astype(np.intp)
        ii, jj = np.minimum(ii, jj), np.maximum(ii, jj)
        order = np.lexsort((jj, ii))
        ii, jj, ww = ii[order], jj[order], ww[order]
        dup = (ii[1:] == ii[:-1]) & (jj[1:] == jj[:-1])
        if dup.any():
            k = int(np.argmax(dup))
            raise ValueError(f"duplicate edge {(int(ii[k]), int(jj[k]))}")
        with np.errstate(over="ignore"):  # refused just below
            degrees = np.bincount(ii, ww, n) + np.bincount(jj, ww, n)
        if not np.isfinite(degrees).all():
            k = int(np.argmin(np.isfinite(degrees)))
            raise ValueError(f"node {k} has a weighted degree that is not finite")
        for arr in (ii, jj, ww, degrees):
            arr.flags.writeable = False
        self._n, self._ii, self._jj, self._ww, self._degrees = n, ii, jj, ww, degrees
        self._edge_map = self._csr = None

    @property
    def n(self) -> int:
        return self._n

    @property
    def edges(self) -> Mapping[tuple[int, int], float]:
        """Read-only edge map ``{(i, j): weight}`` with ``i < j``, in
        canonical sorted order."""
        if self._edge_map is None:
            keys = zip(self._ii.tolist(), self._jj.tolist())
            self._edge_map = dict(zip(keys, self._ww.tolist()))
        return MappingProxyType(self._edge_map)

    @property
    def num_edges(self) -> int:
        return len(self._ww)

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Endpoints and weights as parallel read-only arrays in canonical
        sorted order."""
        return self._ii, self._jj, self._ww

    def adjacency(self) -> np.ndarray:
        """Dense symmetric weight matrix with zero diagonal."""
        a = np.zeros((self._n, self._n))
        a[self._ii, self._jj] = self._ww
        a[self._jj, self._ii] = self._ww
        return a

    def weighted_degrees(self) -> np.ndarray:
        """Read-only array of the weighted node degrees."""
        return self._degrees

    def _laplacian_csr(self):
        """Sparse Laplacian, built (importing scipy.sparse) on first use and
        kept. The dense route (:func:`laplacian`) stays the cheaper one for small graphs."""
        if self._csr is None:
            import scipy.sparse

            nodes = np.arange(self._n)
            rows = np.concatenate([self._ii, self._jj, nodes])
            cols = np.concatenate([self._jj, self._ii, nodes])
            vals = np.concatenate([-self._ww, -self._ww, self._degrees])
            self._csr = scipy.sparse.csr_array((vals, (rows, cols)), shape=(self._n,) * 2)
        return self._csr

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimilarityGraph):
            return NotImplemented
        pairs = zip(self.edge_arrays(), other.edge_arrays())
        return self._n == other._n and all(np.array_equal(a, b) for a, b in pairs)

    def __hash__(self):
        return hash((self._n, *(arr.tobytes() for arr in self.edge_arrays())))

    def __repr__(self) -> str:
        return f"SimilarityGraph(n={self._n}, edges={self.num_edges})"


def _as_given(endpoint):
    """An edge endpoint as a message shows it: the integer an integral
    endpoint holds (a Python int with every digit), else the value."""
    return int(endpoint) if float(endpoint).is_integer() else endpoint


@dataclass(frozen=True, eq=False)
class ClusterSpec:
    """A node subset believed to share one parameter vector.

    ``reference_params`` (the shared vector) and ``epsilon`` (the total loss
    that vector incurs over the cluster) stay ``None`` until a scenario
    supplies them; graph-level operations only need ``members``.
    """

    members: tuple[int, ...]
    reference_params: np.ndarray | None = None
    epsilon: float | None = None

    def __post_init__(self):
        members = tuple(int(i) for i in self.members)
        if not members:
            raise ValueError("cluster must have at least one member")
        if any(i < 0 for i in members):
            raise ValueError("cluster members must be non-negative node indices")
        if len(set(members)) != len(members):
            raise ValueError("cluster members must be distinct")
        object.__setattr__(self, "members", members)
        if self.reference_params is not None:
            ref = np.asarray(self.reference_params, dtype=float)
            if ref.ndim != 1 or not np.all(np.isfinite(ref)):
                raise ValueError("reference_params must be a finite 1-d vector")
            object.__setattr__(self, "reference_params", ref)
        if self.epsilon is not None:
            eps = float(self.epsilon)
            if not np.isfinite(eps) or eps < 0.0:
                raise ValueError(f"epsilon must be finite and >= 0, got {eps}")
            object.__setattr__(self, "epsilon", eps)

    @property
    def size(self) -> int:
        return len(self.members)

    def check_against(self, n: int) -> None:
        """Validate that every member index exists in a graph with n nodes."""
        if any(i >= n for i in self.members):
            raise ValueError(f"cluster members {self.members} exceed node count {n}")


@dataclass(frozen=True, eq=False)
class Embedding:
    """One real vector per node, all of a common dimension."""

    vectors: np.ndarray

    def __post_init__(self):
        vecs = np.asarray(self.vectors, dtype=float)
        if vecs.ndim != 2 or vecs.shape[0] < 1 or vecs.shape[1] < 1:
            raise ValueError("embedding must be a 2-d array (one row per node)")
        if not np.all(np.isfinite(vecs)):
            raise ValueError("embedding vectors must be finite")
        object.__setattr__(self, "vectors", vecs)

    @property
    def n(self) -> int:
        return self.vectors.shape[0]


@dataclass(frozen=True)
class GraphParams:
    """Parameters of the planted-cluster random graph model."""

    p_in: float = 0.9
    p_out: float = 0.1
    w_in: float = 1.0
    w_out: float = 1.0

    def __post_init__(self):
        if not (0.0 <= self.p_out <= self.p_in <= 1.0):
            raise ValueError(
                f"need 0 <= p_out <= p_in <= 1, got p_in={self.p_in}, p_out={self.p_out}"
            )
        if self.w_in <= 0.0 or self.w_out <= 0.0:
            raise ValueError(
                f"edge weights must be positive, got w_in={self.w_in}, w_out={self.w_out}"
            )


def laplacian(graph: SimilarityGraph) -> np.ndarray:
    """Dense graph Laplacian: the cached weighted degrees on the diagonal,
    minus each edge weight off it, entry for entry the sparse Laplacian.
    Symmetric, positive semidefinite, zero row sums."""
    ii, jj, ww = graph.edge_arrays()
    lap = np.diag(graph.weighted_degrees())
    lap[ii, jj] = lap[jj, ii] = -ww
    return lap


def lambda2(graph: SimilarityGraph) -> float:
    """Second-smallest Laplacian eigenvalue (algebraic connectivity).

    Computed with a dense symmetric eigensolver; tiny negative values from
    roundoff are clipped to zero. Zero (up to roundoff) iff the graph is
    disconnected. Requires at least two nodes.
    """
    if graph.n < 2:
        raise ValueError("lambda2 needs a graph with at least 2 nodes")
    vals = np.linalg.eigvalsh(laplacian(graph))
    return float(max(vals[1], 0.0))


def _components(graph: SimilarityGraph) -> tuple[int, np.ndarray]:
    """Connected components as (count, labels), labels numbered in order of
    each component's smallest node, as ``scipy.sparse.csgraph`` numbers them.

    Hook and shortcut (Shiloach and Vishkin, 1982) over the edge arrays,
    repeated while an edge joins two trees: every root with an edge to a
    smaller root points at the smallest such root, then pointers jump until
    each node points at its root. A root is always its tree's smallest
    node; hooking to the smallest root, not to any, keeps a star with a
    large centre from taking one round per leaf."""
    n = graph.n
    parent = np.arange(n)
    ii, jj, _ = graph.edge_arrays()
    while ii.size:
        pi, pj = parent[ii], parent[jj]
        cross = pi != pj
        ii, jj = ii[cross], jj[cross]
        np.minimum.at(parent, np.maximum(pi[cross], pj[cross]), np.minimum(pi[cross], pj[cross]))
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand
    roots = parent == np.arange(n)
    return int(roots.sum()), (np.cumsum(roots) - 1)[parent]


def induced_subgraph(graph: SimilarityGraph, cluster: ClusterSpec) -> SimilarityGraph:
    """Subgraph on the cluster nodes, re-indexed ``0..|C|-1`` in member
    order, keeping exactly the edges with both endpoints in the cluster."""
    cluster.check_against(graph.n)
    pos = np.full(graph.n, -1)
    pos[list(cluster.members)] = np.arange(cluster.size)
    ii, jj, ww = graph.edge_arrays()
    keep = (pos[ii] >= 0) & (pos[jj] >= 0)
    sub_edges = np.column_stack([pos[ii[keep]], pos[jj[keep]], ww[keep]])
    return SimilarityGraph(cluster.size, sub_edges)


def cluster_boundary(graph: SimilarityGraph, cluster: ClusterSpec) -> float:
    """Total weight of edges with exactly one endpoint in the cluster.

    For a singleton cluster this is the node's weighted degree.
    """
    cluster.check_against(graph.n)
    inside = _member_mask(graph.n, cluster)
    ii, jj, ww = graph.edge_arrays()
    return float(ww[inside[ii] != inside[jj]].sum())


def _member_mask(n: int, cluster: ClusterSpec) -> np.ndarray:
    """Boolean mask of the cluster's members among n nodes; the caller has
    run ``cluster.check_against(n)``."""
    inside = np.zeros(n, dtype=bool)
    inside[list(cluster.members)] = True
    return inside


def generate_planted_clusters(
    rng_seed: int,
    cluster_sizes: Sequence[int],
    p_in: float = 0.9,
    p_out: float = 0.1,
    w_in: float = 1.0,
    w_out: float = 1.0,
) -> tuple[SimilarityGraph, list[ClusterSpec]]:
    """Random graph with consecutive planted clusters.

    Each intra-cluster pair is independently connected with probability
    ``p_in`` and weight ``w_in``; pairs from different clusters with
    probability ``p_out`` and weight ``w_out``. Deterministic for a fixed
    seed: pair (i, j), i < j, is kept iff its uniform draw is below its
    probability, the draws following the pairs in row-major order. Returns
    the graph together with one ClusterSpec per block (reference parameters
    and epsilon left unset).

    The upper triangle is walked in blocks of whole rows of about 2**16
    pairs, each drawing its own uniforms; consecutive draws continue one
    stream, so the graph is the one a single draw for all n(n-1)/2 pairs
    gives. Memory is one block plus the edges; time is one draw per pair.
    """
    params = GraphParams(p_in=p_in, p_out=p_out, w_in=w_in, w_out=w_out)
    sizes = [int(s) for s in cluster_sizes]
    if not sizes or any(s < 1 for s in sizes):
        raise ValueError(f"cluster sizes must be positive, got {cluster_sizes}")
    n = sum(sizes)

    rng = np.random.default_rng(rng_seed)
    # row i of the upper triangle holds the pairs (i, j), i < j < n, in two
    # runs: the intra-cluster ones, j < ends[i], then the inter-cluster ones
    nodes = np.arange(n)
    cluster_ends = np.cumsum(sizes)
    ends = cluster_ends.repeat(sizes)
    run_lengths, run_probs = np.empty(2 * n, dtype=np.intp), np.empty(2 * n)
    run_lengths[0::2], run_lengths[1::2] = ends - nodes - 1, n - ends
    run_probs[0::2], run_probs[1::2] = params.p_in, params.p_out
    # pairs before row i in row-major order
    row_starts = nodes * (2 * n - nodes - 1) // 2
    # pairs up to the last intra-cluster pair, (e - 2, e - 1) for e the end
    # of the last cluster of two or more nodes, and up to the last
    # inter-cluster pair, which ends the row before the last cluster
    ends_list = cluster_ends.tolist()
    intra_ends = [e for e, size in zip(ends_list, sizes) if size > 1]
    last_intra = int(row_starts[intra_ends[-1] - 2]) + 1 if intra_ends else 0
    pair_ends = [last_intra, int(row_starts[n - sizes[-1]])]
    # only pairs up to the last one of p > 0 can be kept, and only those up
    # to the last one of 0 < p < 1 draw: p = 0 or 1 fixes the outcome of
    # the rest, and nothing else reads this private stream
    probs = [params.p_in, params.p_out]
    kept_end = max((e for e, p in zip(pair_ends, probs) if p > 0), default=0)
    drawn = max((e for e, p in zip(pair_ends, probs) if 0 < p < 1), default=0)
    kept = [np.empty(0, dtype=np.intp)]
    first = 0
    while first < n - 1 and row_starts[first] < kept_end:
        # as many whole rows as fit in one block, at least one
        start = int(row_starts[first])
        stop = max(first + 1, int(np.searchsorted(row_starts, start + _PAIR_BLOCK, side="right")) - 1)
        runs = slice(2 * first, 2 * stop)
        prob = np.repeat(run_probs[runs], run_lengths[runs])
        keep = prob == 1.0
        count = min(prob.size, max(drawn - start, 0))
        keep[:count] = rng.random(count) < prob[:count]
        kept.append(start + np.flatnonzero(keep))
        first = stop
    kept = np.concatenate(kept)
    ii = np.searchsorted(row_starts, kept, side="right") - 1
    jj = kept - row_starts[ii] + ii + 1
    edges = np.empty((kept.size, 3))
    edges[:, 0], edges[:, 1], edges[:, 2] = ii, jj, np.where(jj < ends[ii], params.w_in, params.w_out)
    try:
        graph = SimilarityGraph(n, edges)
    except ValueError as exc:  # the edges are valid; only a degree can overflow
        raise ValueError(f"edge weights w_in={params.w_in:g}, w_out={params.w_out:g}: {exc}") from None

    clusters = [ClusterSpec(members=tuple(range(e - size, e))) for e, size in zip(ends_list, sizes)]
    return graph, clusters


def graph_from_embedding(emb: Embedding, k: int, sigma: float) -> SimilarityGraph:
    """Symmetric k-nearest-neighbor graph with Gaussian edge weights.

    Node i links to its k closest nodes in Euclidean distance; an edge is
    kept if either endpoint selects the other (union rule, which guarantees
    minimum degree k). Edge weight is ``exp(-dist^2 / sigma^2)``; a
    ValueError naming ``sigma`` is raised when one underflows to zero.

    Ties at the k-th smallest distance go to the smaller node index, as a
    stable sort of the row would order them. Rows are searched in blocks of
    about 2**16 distances, written into two buffers made once. A block finds
    each row's k-th distance by one partition and keeps the entries up to it,
    so memory is two blocks plus the n k neighbours and the edges.
    """
    k = int(k)
    n = emb.n
    if not (1 <= k < n):
        raise ValueError(f"neighbor count must satisfy 1 <= k < n, got k={k}, n={n}")
    sigma = float(sigma)
    if not np.isfinite(sigma) or sigma <= 0.0:
        raise ValueError(f"sigma must be positive and finite, got {sigma}")

    nearest = np.empty((n, k), dtype=np.intp)
    near_sq = np.empty((n, k))
    rows = min(n, max(1, _KNN_BLOCK // n))
    sq_buffer, diff_buffer = np.empty((2, rows, n))
    first, *rest = emb.vectors.T
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        count = stop - start
        sq, diff = sq_buffer[:count], diff_buffer[:count]
        # the direct form sum_col (x - y)^2, summed column by column as
        # pairwise-distance routines do; |x|^2 + |y|^2 - 2 x.y cancels and
        # can reorder near-ties. The first square is the sum so far, as
        # 0 + x^2 is x^2 exactly.
        np.subtract(first[start:stop, None], first, out=sq)
        sq *= sq
        for col in rest:
            np.subtract(col[start:stop, None], col, out=diff)
            diff *= diff
            sq += diff
        sq[np.arange(count), np.arange(start, stop)] = np.inf
        np.copyto(diff, sq)
        diff.partition(k - 1, axis=1)
        kth = diff[:, k - 1 : k]
        # every entry up to the k-th smallest: exactly k, unless the row
        # ties at it; a tied row keeps what is below it, then the ties from
        # the smallest index up: the first k of a stable sort, as a set
        take = sq <= kth
        flat = np.flatnonzero(take)
        if flat.size > count * k:
            tied = np.flatnonzero(take.sum(axis=1) > k)
            sub, cut = sq[tied], kth[tied]
            below = sub < cut
            at = sub == cut
            ties = k - below.sum(axis=1, keepdims=True)
            take[tied] = below | (at & (np.cumsum(at, axis=1, dtype=np.int32) <= ties))
            flat = np.flatnonzero(take)
        nearest[start:stop] = (flat % n).reshape(count, k)
        near_sq[start:stop] = sq.ravel()[flat].reshape(count, k)
    # a pair found from both ends has the same distance bit for bit
    src = np.repeat(np.arange(n), k)
    pairs = np.minimum(src, nearest.ravel()) * n + np.maximum(src, nearest.ravel())
    # the first occurrence of each pair in a stable sort: np.unique's
    # (pairs, return_index) without the numpy.ma import it pulls in
    first = np.argsort(pairs, kind="stable")
    pairs = pairs[first]
    keep = np.concatenate([[True], pairs[1:] != pairs[:-1]])
    pairs, first = pairs[keep], first[keep]
    weights = np.exp(-near_sq.ravel()[first] / sigma**2)
    if not np.all(weights > 0.0):
        raise ValueError(
            f"edge weights exp(-dist^2 / sigma^2) underflow to 0 for sigma={sigma:g}: "
            f"the largest distance from a node to one of its k={k} nearest "
            f"neighbors is {np.sqrt(near_sq.max()):.6g}; increase sigma"
        )
    return SimilarityGraph(n, np.column_stack([pairs // n, pairs % n, weights]))


def write_graph(graph: SimilarityGraph, path: str | Path) -> None:
    """Write the line-oriented text format: first line ``n``, then one
    ``i j weight`` line per edge in canonical sorted order."""
    ii, jj, ww = graph.edge_arrays()
    cells = [None] * (3 * graph.num_edges)
    cells[0::3], cells[1::3], cells[2::3] = ii.tolist(), jj.tolist(), ww.tolist()
    _write_table(path, f"{graph.n}\n" + "%d %d %.17g\n" * graph.num_edges, cells)


def read_graph(path: str | Path) -> SimilarityGraph:
    """Parse the text format written by :func:`write_graph`.

    Blank lines are skipped. Rejects self-loops, duplicate pairs,
    non-positive weights and out-of-range indices; a line that is not
    ASCII or is malformed is named by its line number in the file.
    """
    path = Path(path)
    return _build_graph(path, *_read_table(path, _parse_graph_rows, _scan_graph_lines))


def _build_graph(path: Path, n: int, edges) -> SimilarityGraph:
    """The graph of the node count and edges read from the file ``path``;
    a ValueError starting with the path when they do not make one."""
    try:
        return SimilarityGraph(n, edges)
    # a node count too large to allocate is the file's fault too
    except (ValueError, MemoryError) as exc:
        raise ValueError(f"{path}: {exc}") from None


_PLAIN_BYTES = bytes(range(32, 127)) + b"\t\n"


def _write_table(path: str | Path, fmt: str, cells: list) -> None:
    """Write the text table ``fmt % cells`` as ASCII by one string format and
    one write: with ``fmt`` a head and then a row format once per row of the
    row-major ``cells``, the head and the bytes ``np.savetxt(fmt=row)`` writes."""
    Path(path).write_text(fmt % tuple(cells), encoding="ascii", newline="\n")


def _read_table(path: Path, parse, scan):
    """The table of the text file ``path``, read once: ``parse`` of its bytes
    when they are plain (printable ASCII, tab and newline, which np.loadtxt
    and the line scans read alike) and ``parse`` does not return None; else
    ``scan`` of their decoded text, which names the line at fault."""
    data = path.read_bytes()
    table = None if data.translate(None, _PLAIN_BYTES) else parse(data)
    return table if table is not None else scan(_decode(data, path), path)


def _decode(data: bytes, path: Path) -> str:
    """``data``, the bytes of ``path``, as ASCII text; a ValueError naming
    the path and the line of the first byte that does not decode otherwise."""
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        # the line as str.splitlines counts them, like the line scans
        line = len((data[: exc.start].decode("ascii") + "_").splitlines())
        raise ValueError(f"{path}:{line}: {exc}") from None


def _loadtxt(data: bytes, **kwargs) -> np.ndarray | None:
    """``np.loadtxt`` of the bytes ``data``, from a binary handle, or None
    when it refuses them or warns (numpy < 2 reads '1.0' as an integer, and
    no rows, with a warning)."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return np.loadtxt(io.BytesIO(data), **kwargs)
    except (ValueError, Warning):
        return None


_GRAPH_ROW = np.dtype([("i", np.int64), ("j", np.int64), ("w", np.float64)])


def _parse_graph_rows(data: bytes) -> tuple[int, np.ndarray] | None:
    """(n, (E, 3) edge array) of a graph file's plain bytes by one
    np.loadtxt, or None to leave it to :func:`_scan_graph_lines`. On plain
    bytes, np.loadtxt reads the scan's lines in a subset of ``int``'s and
    ``float``'s syntax: what it accepts the scan accepts, with the same values."""
    head, _, body = data.lstrip().partition(b"\n")
    try:
        n = int(head)
    except ValueError:
        return None
    rows = _loadtxt(body, dtype=_GRAPH_ROW, comments=None, ndmin=1)
    if rows is None:
        return None
    ends = np.concatenate([rows["i"], rows["j"]])
    if ((ends < 0) | (ends >= n)).any():
        # refused either way; the scan's Python ints name the endpoint with
        # every digit, where a float column would round it beyond 2**53
        return None
    return n, np.column_stack([rows["i"], rows["j"], rows["w"]])


def _scan_graph_lines(text: str, path: Path) -> tuple[int, list]:
    """(n, edge triples) of a graph file's text, line by line, with n from
    its first non-blank line; a ValueError naming the file, and the line at
    fault where there is one, otherwise."""
    lines = ((k, line) for k, line in enumerate(text.splitlines(), start=1) if line.strip())
    try:
        n = int(next(lines)[1])
    except StopIteration:
        raise ValueError(f"{path}: empty graph file") from None
    except ValueError:
        raise ValueError(f"{path}: first line must be the node count") from None
    edges = []
    for lineno, line in lines:
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"{path}:{lineno}: expected 'i j weight', got {line!r}")
        try:
            edges.append((int(parts[0]), int(parts[1]), float(parts[2])))
        except ValueError:
            raise ValueError(f"{path}:{lineno}: malformed edge line {line!r}") from None
    return n, edges
