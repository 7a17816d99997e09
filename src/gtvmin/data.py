"""Local datasets, quadratic losses, and synthetic clustered scenarios.

A scenario bundles one linear-regression dataset per node with a similarity
graph whose planted clusters match the data: all nodes of a cluster share
one true parameter vector, and labels are that cluster model's predictions
plus Gaussian noise. The noise energy is recorded per cluster so the
cluster deviation bound can be evaluated with the tightest admissible
clustering error.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import reprlib
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .graph import (
    ClusterSpec,
    GraphParams,
    SimilarityGraph,
    _build_graph,
    _decode,
    _loadtxt,
    _parse_graph_rows,
    _read_table,
    _scan_graph_lines,
    _write_table,
    generate_planted_clusters,
    write_graph,
)

__all__ = [
    "LocalDataset",
    "Scenario",
    "quadratic_loss",
    "generate_scenario",
    "clustering_error",
    "save_scenario",
    "load_scenario",
]

_CENTER_RETRIES = 1000
# the files of a scenario directory
_GRAPH_FILE, _META_FILE, _SAMPLES_FILE = "graph.txt", "meta.json", "samples.csv"


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """A finite float, or an integer that converts to one."""
    if _is_int(value):
        return abs(value) <= sys.float_info.max
    return isinstance(value, float) and math.isfinite(value)


# the JSON value kinds that input files are checked against, by description
_KINDS = {
    "a non-negative integer": lambda v: _is_int(v) and v >= 0,
    "a positive integer": lambda v: _is_int(v) and v >= 1,
    "a finite number": _is_real,
    "a non-negative number": lambda v: _is_real(v) and v >= 0,
    "a positive number": lambda v: _is_real(v) and v > 0,
    "a number in [0, 1]": lambda v: _is_real(v) and 0 <= v <= 1,
    "true or false": lambda v: isinstance(v, bool),
    "a string": lambda v: isinstance(v, str),
    "a list": lambda v: isinstance(v, list),
    "a list of integers": lambda v: isinstance(v, list) and all(map(_is_int, v)),
    "a list of finite numbers": lambda v: isinstance(v, list) and all(map(_is_real, v)),
    "a non-empty list of positive integers": lambda v: _non_empty_list(v, "a positive integer"),
    "a non-empty list of positive numbers": lambda v: _non_empty_list(v, "a positive number"),
    "a non-empty list of numbers in [0, 1]": lambda v: _non_empty_list(v, "a number in [0, 1]"),
}


def _non_empty_list(value, kind: str) -> bool:
    """Whether ``value`` is a list of at least one entry, each of ``kind``."""
    return isinstance(value, list) and value != [] and all(map(_KINDS[kind], value))


def _json_field(payload: dict, key: str, kind: str, source, optional: bool = False):
    """``payload[key]``, checked to be present in the dict ``payload`` and
    of the given kind (or None, when ``optional``); a ValueError naming
    ``source`` and the key otherwise."""
    if not isinstance(payload, dict):
        raise ValueError(f"{source}: must be a JSON object, got {reprlib.repr(payload)}")
    if key not in payload:
        raise ValueError(f"{source}: missing key {key!r}")
    value = payload[key]
    if not (_KINDS[kind](value) or (optional and value is None)):
        raise ValueError(f"{source}: key {key!r} must be {kind}, got {reprlib.repr(value)}")
    return value


def _read_json(path: Path):
    """The JSON document in the ASCII file ``path``; a ValueError that
    starts with the path when the file does not decode (and then names the
    line) or parse."""
    text = _decode(path.read_bytes(), path)
    try:
        return json.loads(text)
    # a syntax error and an integer beyond int's digit limit are
    # ValueErrors; nesting beyond the parser's depth is a RecursionError
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def _write_json(path: str | Path, payload) -> None:
    """Write ``payload`` to ``path`` as indented, key-sorted ASCII JSON."""
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="ascii")


@dataclass(frozen=True, eq=False)
class LocalDataset:
    """Feature matrix (m x d) and label vector (length m) of one node."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.features, dtype=float)
        y = np.asarray(self.labels, dtype=float)
        if x.ndim != 2 or x.shape[0] < 1 or x.shape[1] < 1:
            raise ValueError("features must be a non-empty 2-d matrix")
        if y.ndim != 1 or y.shape[0] != x.shape[0]:
            raise ValueError("labels must be 1-d with one entry per feature row")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("dataset entries must be finite")
        object.__setattr__(self, "features", x)
        object.__setattr__(self, "labels", y)

    @classmethod
    def _split(cls, features: np.ndarray, labels: np.ndarray, bounds) -> list[LocalDataset]:
        """The datasets of the row runs ``bounds[i]:bounds[i + 1]`` of one
        features table (rows x d) and its labels, as views of the table: the
        constructor's checks run once, on the whole table."""
        cls(features, labels)
        datasets = [object.__new__(cls) for _ in bounds[1:]]
        for ds, a, b in zip(datasets, bounds, bounds[1:]):
            ds.__dict__.update(features=features[a:b], labels=labels[a:b])
        return datasets

    @property
    def num_samples(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


def _parameter_vector(ds: LocalDataset, w) -> np.ndarray:
    """``w`` as a float vector of the dataset's dimension."""
    w = np.asarray(w, dtype=float)
    if w.shape != (ds.dim,):
        raise ValueError(f"parameter vector must have shape ({ds.dim},), got {w.shape}")
    return w


def quadratic_loss(ds: LocalDataset, w: np.ndarray) -> float:
    """Mean squared residual (1/m) * ||y - X w||^2. Zero at an exact fit."""
    r = ds.labels - ds.features @ _parameter_vector(ds, w)
    return float(r @ r) / ds.num_samples


@dataclass(eq=False)
class Scenario:
    """One dataset per graph node plus the clusters that generated them."""

    datasets: list[LocalDataset]
    graph: SimilarityGraph
    clusters: list[ClusterSpec]
    d: int
    rng_seed: int | None = None
    generator: dict | None = field(default=None, repr=False)

    def __post_init__(self):
        if len(self.datasets) != self.graph.n:
            raise ValueError(
                f"{len(self.datasets)} datasets for a graph with {self.graph.n} nodes"
            )
        if any(ds.dim != self.d for ds in self.datasets):
            raise ValueError("all datasets must share the scenario dimension")
        covered = set()
        for k, cluster in enumerate(self.clusters):
            ref = cluster.reference_params
            try:
                cluster.check_against(self.graph.n)
                if ref is not None and ref.shape != (self.d,):
                    raise ValueError(f"reference_params has length {ref.size}, not d = {self.d}")
            except ValueError as exc:
                raise ValueError(f"clusters[{k}]: {exc}") from None
            covered.update(cluster.members)
        if covered != set(range(self.graph.n)):
            raise ValueError("every node must belong to at least one cluster")

    @property
    def n(self) -> int:
        return self.graph.n


def _draw_separated_centers(rng, k: int, d: int, separation: float) -> np.ndarray:
    """Cluster centers on a sphere of radius separation/2 * sqrt(d), redrawn
    until all pairwise distances reach the separation (bounded retries)."""
    radius = 0.5 * separation * np.sqrt(d)
    if not np.isfinite(radius):
        raise ValueError(f"separation {separation:g} overflows the center radius in dimension {d}")
    # tiny relative slack so the exactly-antipodal d=1 case survives roundoff
    min_dist = separation * (1.0 - 1e-12)
    for _ in range(_CENTER_RETRIES):
        raw = rng.standard_normal((k, d))
        norms = np.linalg.norm(raw, axis=1)
        if np.any(norms == 0.0):
            continue
        centers = radius * raw / norms[:, None]
        if k == 1:
            return centers
        ok = all(
            np.linalg.norm(centers[a] - centers[b]) >= min_dist
            for a in range(k)
            for b in range(a + 1, k)
        )
        if ok:
            return centers
    raise ValueError(
        f"could not place {k} cluster centers at separation {separation} in "
        f"dimension {d} after {_CENTER_RETRIES} attempts"
    )


def _energies(rows: np.ndarray) -> np.ndarray:
    """``row @ row`` of each row, by one batched matmul."""
    return (rows[:, None, :] @ rows[:, :, None]).ravel()


def generate_scenario(
    rng_seed: int,
    cluster_sizes: Sequence[int],
    d: int,
    m_per_node: int,
    noise_std: float,
    separation: float,
    graph_params: GraphParams | None = None,
) -> Scenario:
    """Synthesize a clustered linear-regression scenario.

    Per cluster a reference vector is drawn (pairwise separated), then each
    node gets i.i.d. standard-normal features and labels equal to the
    cluster model's predictions plus Gaussian noise of standard deviation
    ``noise_std``. The recorded per-cluster epsilon is the exact noise
    energy sum_{i in C} (1/m_i) ||noise_i||^2, so the clustering assumption
    holds with equality. The graph comes from the planted-cluster model.
    A ``noise_std`` or ``separation`` whose samples overflow (a noise
    energy, center radius or label energy that is not finite) raises a
    ValueError naming it.
    Pure function of its arguments: same inputs give bit-identical output.
    """
    sizes = [int(s) for s in cluster_sizes]
    if not sizes or any(s < 1 for s in sizes):
        raise ValueError(f"cluster sizes must be positive, got {cluster_sizes}")
    d = int(d)
    m_per_node = int(m_per_node)
    if d < 1 or m_per_node < 1:
        raise ValueError("d and m_per_node must be >= 1")
    noise_std = float(noise_std)
    if noise_std < 0.0 or not np.isfinite(noise_std):
        raise ValueError(f"noise_std must be finite and >= 0, got {noise_std}")
    separation = float(separation)
    if separation <= 0.0 or not np.isfinite(separation):
        raise ValueError(f"separation must be positive, got {separation}")
    params = graph_params or GraphParams()

    rng = np.random.default_rng(rng_seed)
    graph_seed = int(rng.integers(0, 2**63 - 1))
    graph, bare_clusters = generate_planted_clusters(
        graph_seed, sizes, params.p_in, params.p_out, params.w_in, params.w_out
    )
    datasets: list[LocalDataset] = []
    clusters: list[ClusterSpec] = []
    md = m_per_node * d
    # samples that overflow are refused below, by the key at fault, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        centers = _draw_separated_centers(rng, len(sizes), d, separation)
        for cluster, center in zip(bare_clusters, centers):
            # the stream of two draws per node: row k holds node k's features, then
            # its noise, rounded as normal(0, noise_std, m) rounds loc + scale * z
            z = rng.standard_normal((cluster.size, md + m_per_node))
            features = z[:, :md].reshape(cluster.size, m_per_node, d)
            noises = 0.0 + noise_std * z[:, md:]
            labels = features @ center + noises
            # each node's energies by one batched matmul, which rounds as
            # its dot product does; epsilon sums them in node order
            eps = np.cumsum(_energies(noises) / m_per_node)
            bad_noise = ~np.isfinite(eps)
            bad = bad_noise | ~np.isfinite(_energies(labels))
            if bad.any():
                first = int(np.argmax(bad))
                i = cluster.members[first]
                if bad_noise[first]:
                    raise ValueError(f"noise_std {noise_std:g} overflows the noise energy at node {i}")
                raise ValueError(
                    f"separation {separation:g} with noise_std {noise_std:g} "
                    f"overflows the label energy of node {i}"
                )
            bounds = range(0, labels.size + 1, m_per_node)
            datasets += LocalDataset._split(features.reshape(-1, d), labels.ravel(), bounds)
            clusters.append(
                ClusterSpec(members=cluster.members, reference_params=center, epsilon=float(eps[-1]))
            )

    generator = {
        "cluster_sizes": sizes,
        "m_per_node": m_per_node,
        "noise_std": noise_std,
        "separation": separation,
        **dataclasses.asdict(params),
    }
    return Scenario(
        datasets=datasets,
        graph=graph,
        clusters=clusters,
        d=d,
        rng_seed=int(rng_seed),
        generator=generator,
    )


def clustering_error(scenario: Scenario, cluster: ClusterSpec, w_bar: np.ndarray) -> float:
    """Total loss sum_{i in C} L_i(w_bar) a single candidate vector incurs
    over the cluster. Checking it against a budget epsilon is exactly the
    clustering assumption for that candidate."""
    cluster.check_against(scenario.n)
    w_bar = np.asarray(w_bar, dtype=float)
    return float(sum(quadratic_loss(scenario.datasets[i], w_bar) for i in cluster.members))


def save_scenario(scenario: Scenario, directory: str | Path) -> Path:
    """Serialize to a directory: graph.txt, meta.json and samples.csv.

    samples.csv states n and d, graph.txt the edges (its header repeats n),
    meta.json the seed, the clusters and the generator's parameters.
    ``samples.csv`` holds one row per sample, grouped by node in ascending
    order: the node index (``%d``), then the features, then the label (each
    ``%.17g``), comma-separated, with ``\\n`` line ends: the bytes
    ``np.savetxt(fmt=["%d"] + ["%.17g"] * (d + 1), delimiter=",")`` writes,
    formatted a block of rows at a time. 17 significant digits make the
    round trip bit exact, and repeated saves are byte identical.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_graph(scenario.graph, directory / _GRAPH_FILE)
    meta = {
        "seed": scenario.rng_seed,
        "clusters": [
            {
                "members": list(c.members),
                "reference_params": None
                if c.reference_params is None
                else c.reference_params.tolist(),
                "epsilon": c.epsilon,
            }
            for c in scenario.clusters
        ],
        "generator": scenario.generator,
    }
    _write_json(directory / _META_FILE, meta)
    datasets = scenario.datasets
    nodes = np.repeat(np.arange(scenario.n), [ds.num_samples for ds in datasets])
    features = np.concatenate([ds.features for ds in datasets])
    labels = np.concatenate([ds.labels for ds in datasets])
    row = "%d," + ",".join(["%.17g"] * (scenario.d + 1)) + "\n"
    _write_table(directory / _SAMPLES_FILE, "", row, [nodes, *features.T, labels])
    return directory


def _read_samples(path: Path) -> list[LocalDataset]:
    """The local datasets of samples.csv, one per node, read once and parsed
    by one ``np.loadtxt``; a file that it does not take, or whose table
    fails a check, is left to :func:`_scan_samples` to refuse by its line."""
    table = _read_table(path, _parse_samples, _scan_samples)
    bounds = [0, *(np.flatnonzero(np.diff(table[:, 0])) + 1).tolist(), len(table)]
    return LocalDataset._split(table[:, 1:-1], table[:, -1], bounds)


def _parse_samples(data: bytes) -> np.ndarray | None:
    """samples.csv's (rows, d + 2) table of its plain bytes by one np.loadtxt
    when every check passes, or None to leave it to :func:`_scan_samples`.
    np.loadtxt reads plain bytes in the scan's lines and a subset of
    ``float``'s syntax: what it accepts the scan does, with the same values."""
    table = _loadtxt(data, delimiter=",", ndmin=2)
    if table is None or table.shape[1] < 3 or not np.isfinite(table).all():
        return None
    nodes = table[:, 0]
    with np.errstate(over="ignore"):  # a step that overflows is no step of 0 or 1
        steps = np.diff(nodes)
    # from node 0 in steps of 0 or 1: every node has rows, in order
    if nodes[0] != 0 or not ((steps == 0) | (steps == 1)).all():
        return None
    return table


def _scan_samples(text: str, path: Path) -> np.ndarray:
    """samples.csv's table, read line by line: a ValueError naming the file
    and the line at fault otherwise."""
    rows = [
        (lineno, body.split(","))
        for lineno, line in enumerate(text.splitlines(), start=1)
        # np.loadtxt skips blank lines and everything after a '#'
        if (body := line.partition("#")[0]).strip()
    ]
    if not rows:
        raise ValueError(f"{path}: no samples")
    width = len(rows[0][1])
    if width < 3:  # a node, d >= 1 features and a label
        raise ValueError(f"{path}:{rows[0][0]}: {width} columns, expected at least 3")
    table = []
    for lineno, cells in rows:
        where = f"{path}:{lineno}"
        if len(cells) != width:
            raise ValueError(f"{where}: {len(cells)} columns, expected {width}")
        values = []
        for cell in cells:
            try:
                values.append(float(cell))
            except ValueError:
                cell = reprlib.repr(cell.strip())
                raise ValueError(f"{where}: could not convert string {cell} to float") from None
        if not all(map(math.isfinite, values)):
            raise ValueError(f"{where}: dataset entries must be finite")
        node, last = values[0], table[-1][0] if table else -1
        if not (node.is_integer() and node >= 0):
            raise ValueError(f"{where}: node {node:.17g} is not a non-negative integer")
        if node < last:
            raise ValueError(f"{where}: node {int(node)} after node {int(last)}")
        if node > last + 1:
            raise ValueError(f"{path}: node {int(last) + 1} has no samples")
        table.append(values)
    return np.array(table)


def load_scenario(directory: str | Path) -> Scenario:
    """Read back a directory written by :func:`save_scenario`.

    samples.csv and graph.txt are each read once, as bytes, and parsed by
    one ``np.loadtxt`` of them; a table of other bytes than printable ASCII,
    tab and newline, or that the parse does not take, is decoded and read
    line by line. samples.csv's nodes give n and its width d + 2. It is
    refused by a ValueError that starts with its path and, where there is
    one, the line at fault: a line that does not decode, a cell that does
    not parse, a first row of fewer than 3 columns, a row of another width
    or with a non-finite entry, a node that is not a non-negative integer or
    that comes before the row above's, no rows at all, or a node without
    rows. A graph.txt node count other than n is refused before anything of
    its size is built. meta.json and graph.txt at fault raise a ValueError that
    starts with their path too (a meta.json whose ``seed`` is neither a
    non-negative integer nor null, or whose clusters do not fit the
    scenario, is at fault; ``clusters[k]`` names the cluster). Other
    meta.json keys, such as the ``n`` and ``d`` older versions wrote, are
    ignored. A missing file raises OSError.
    """
    directory = Path(directory)
    meta_path = directory / _META_FILE
    meta = _read_json(meta_path)
    samples_path = directory / _SAMPLES_FILE
    datasets = _read_samples(samples_path)
    graph_path = directory / _GRAPH_FILE
    nodes, edges = _read_table(graph_path, _parse_graph_rows, _scan_graph_lines)
    if nodes != len(datasets):
        raise ValueError(
            f"{graph_path}: {reprlib.repr(nodes)} nodes, but {samples_path} holds "
            f"samples of {len(datasets)}"
        )
    graph = _build_graph(graph_path, nodes, edges)
    seed = _json_field(meta, "seed", "a non-negative integer", meta_path, optional=True)
    clusters = []
    for k, entry in enumerate(_json_field(meta, "clusters", "a list", meta_path)):
        source = f"{meta_path}: clusters[{k}]"
        ref = _json_field(
            entry, "reference_params", "a list of finite numbers", source, optional=True
        )
        members = tuple(_json_field(entry, "members", "a list of integers", source))
        epsilon = _json_field(entry, "epsilon", "a finite number", source, optional=True)
        try:
            clusters.append(ClusterSpec(members=members, reference_params=ref, epsilon=epsilon))
        except ValueError as exc:
            raise ValueError(f"{source}: {exc}") from None
    try:
        return Scenario(
            datasets=datasets,
            graph=graph,
            clusters=clusters,
            d=datasets[0].dim,
            rng_seed=seed,
            generator=meta.get("generator"),
        )
    except ValueError as exc:
        raise ValueError(f"{meta_path}: {exc}") from None
