import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from gtvmin import (
    ClusterSpec,
    Embedding,
    GraphParams,
    SimilarityGraph,
    cluster_boundary,
    generate_planted_clusters,
    graph_from_embedding,
    induced_subgraph,
    lambda2,
    laplacian,
    read_graph,
    write_graph,
)
from gtvmin.graph import _components, _scan_graph_lines


def two_triangles_with_bridge(bridge_weight=0.5):
    edges = [
        (0, 1, 1.0),
        (0, 2, 1.0),
        (1, 2, 1.0),
        (3, 4, 1.0),
        (3, 5, 1.0),
        (4, 5, 1.0),
        (2, 3, bridge_weight),
    ]
    return SimilarityGraph(6, edges)


def random_graph(seed, sizes=(4, 4), p_in=0.8, p_out=0.2):
    graph, clusters = generate_planted_clusters(seed, list(sizes), p_in, p_out, 1.0, 0.5)
    return graph, clusters


def oracle_lambda2(graph):
    """Independent route: assemble the Laplacian from scratch and use the
    scipy eigensolver instead of the package's construction + numpy."""
    n = graph.n
    lap = np.zeros((n, n))
    for (i, j), w in graph.edges.items():
        lap[i, i] += w
        lap[j, j] += w
        lap[i, j] -= w
        lap[j, i] -= w
    return float(scipy.linalg.eigvalsh(lap)[1])


def test_graphs_of_one_node_count_and_edge_set_are_equal_and_hash_alike():
    graph = two_triangles_with_bridge()
    # the same edges, reversed and as an array
    same = SimilarityGraph(6, np.array([(j, i, w) for (i, j), w in reversed(graph.edges.items())]))
    assert graph == same and hash(graph) == hash(same) and len({graph, same}) == 1
    assert graph != two_triangles_with_bridge(0.25)
    assert graph != SimilarityGraph(7, [(i, j, w) for (i, j), w in graph.edges.items()])
    assert graph.__eq__(graph.edges) is NotImplemented and graph != graph.edges
    assert repr(graph) == "SimilarityGraph(n=6, edges=7)"


# ---------------------------------------------------------------- laplacian

def test_laplacian_single_edge():
    g = SimilarityGraph(2, [(0, 1, 1.0)])
    np.testing.assert_array_equal(laplacian(g), [[1.0, -1.0], [-1.0, 1.0]])


def test_laplacian_no_edges():
    g = SimilarityGraph(3)
    np.testing.assert_array_equal(laplacian(g), np.zeros((3, 3)))


def test_laplacian_triangle_spectrum():
    g = SimilarityGraph(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)])
    lap = laplacian(g)
    np.testing.assert_array_equal(np.diag(lap), [2.0, 2.0, 2.0])
    assert lap[0, 1] == lap[0, 2] == lap[1, 2] == -1.0
    np.testing.assert_allclose(scipy.linalg.eigvalsh(lap), [0.0, 3.0, 3.0], atol=1e-12)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(0, 10**6))
def test_laplacian_row_sums_and_psd(seed):
    graph, _ = random_graph(seed)
    lap = laplacian(graph)
    np.testing.assert_array_equal(lap, lap.T)
    dmax = max(graph.weighted_degrees().max(), 1.0)
    assert np.max(np.abs(lap.sum(axis=1))) <= 1e-12 * dmax
    assert abs(np.linalg.eigvalsh(lap)[0]) <= 1e-9


# ---------------------------------------------------------- induced subgraph

def test_induced_subgraph_identity():
    g = two_triangles_with_bridge()
    sub = induced_subgraph(g, ClusterSpec(members=tuple(range(6))))
    assert sub == g


def test_induced_subgraph_singleton():
    g = two_triangles_with_bridge()
    sub = induced_subgraph(g, ClusterSpec(members=(2,)))
    assert sub.n == 1 and sub.num_edges == 0


def test_induced_subgraph_triangle_from_bridge_graph():
    g = two_triangles_with_bridge()
    sub = induced_subgraph(g, ClusterSpec(members=(0, 1, 2)))
    assert dict(sub.edges) == {(0, 1): 1.0, (0, 2): 1.0, (1, 2): 1.0}


def test_induced_subgraph_preserves_member_order():
    g = SimilarityGraph(3, [(0, 1, 2.0), (1, 2, 3.0)])
    sub = induced_subgraph(g, ClusterSpec(members=(2, 1)))
    assert dict(sub.edges) == {(0, 1): 3.0}


# ------------------------------------------------------------------- lambda2

def test_lambda2_single_edge():
    assert lambda2(SimilarityGraph(2, [(0, 1, 1.0)])) == pytest.approx(2.0, abs=1e-12)


def test_lambda2_disconnected_pair():
    g = SimilarityGraph(2)
    assert lambda2(g) == 0.0
    assert _components(g)[0] == 2


def test_lambda2_complete_k5():
    m = 5
    g = SimilarityGraph(m, [(i, j, 1.0) for i in range(m) for j in range(i + 1, m)])
    assert lambda2(g) == pytest.approx(5.0, abs=1e-9)
    assert lambda2(g) == pytest.approx(oracle_lambda2(g), rel=1e-9)


def test_lambda2_requires_two_nodes():
    with pytest.raises(ValueError):
        lambda2(SimilarityGraph(1))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(0, 10**6))
def test_lambda2_of_induced_subgraph_matches_oracle(seed):
    graph, clusters = random_graph(seed)
    sub = induced_subgraph(graph, clusters[0])
    oracle = oracle_lambda2(sub)
    assert lambda2(sub) == pytest.approx(oracle, rel=1e-9, abs=1e-9)


def test_courant_fischer_quadratic_form():
    graph, _ = random_graph(3, sizes=(6,), p_in=0.9)
    assert _components(graph)[0] == 1
    lap = laplacian(graph)
    lam2 = lambda2(graph)
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = rng.normal(size=graph.n)
        centered = x - x.mean()
        lhs = float(x @ lap @ x)
        rhs = lam2 * float(centered @ centered)
        assert lhs >= rhs - 1e-9 * max(1.0, rhs)


# ---------------------------------------------------------- cluster boundary

def test_boundary_of_everything_is_zero():
    g = two_triangles_with_bridge()
    assert cluster_boundary(g, ClusterSpec(members=tuple(range(6)))) == 0.0


def test_boundary_of_singleton_is_degree():
    g = two_triangles_with_bridge()
    for i in range(g.n):
        assert cluster_boundary(g, ClusterSpec(members=(i,))) == pytest.approx(
            g.weighted_degrees()[i]
        )


def test_boundary_bridge_weight():
    g = two_triangles_with_bridge(bridge_weight=0.5)
    assert cluster_boundary(g, ClusterSpec(members=(0, 1, 2))) == pytest.approx(0.5)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(0, 10**6))
def test_boundary_partition_identity(seed):
    graph, clusters = random_graph(seed)
    inside = set(clusters[0].members)
    intra = sum(w for (i, j), w in graph.edges.items() if i in inside and j in inside)
    exterior = sum(
        w for (i, j), w in graph.edges.items() if i not in inside and j not in inside
    )
    boundary = cluster_boundary(graph, clusters[0])
    assert boundary + intra + exterior == pytest.approx(sum(graph.edges.values()), rel=1e-12)


def test_boundary_monotone_in_boundary_weight():
    low = two_triangles_with_bridge(bridge_weight=0.5)
    high = two_triangles_with_bridge(bridge_weight=0.9)
    cluster = ClusterSpec(members=(0, 1, 2))
    assert cluster_boundary(high, cluster) > cluster_boundary(low, cluster)


# ------------------------------------------------------------ planted model

def test_planted_two_disjoint_triangles():
    graph, clusters = generate_planted_clusters(0, [3, 3], p_in=1.0, p_out=0.0)
    assert graph.num_edges == 6
    assert cluster_boundary(graph, clusters[0]) == 0.0
    assert induced_subgraph(graph, clusters[0]).num_edges == 3
    assert induced_subgraph(graph, clusters[1]).num_edges == 3


def test_planted_complete_k4():
    graph, _ = generate_planted_clusters(0, [2, 2], p_in=1.0, p_out=1.0, w_in=1.0, w_out=1.0)
    assert graph.num_edges == 6
    assert all(w == 1.0 for w in graph.edges.values())


def test_planted_determinism():
    a, _ = generate_planted_clusters(42, [4, 4], p_in=0.9, p_out=0.1)
    b, _ = generate_planted_clusters(42, [4, 4], p_in=0.9, p_out=0.1)
    assert a == b
    c, _ = generate_planted_clusters(43, [4, 4], p_in=0.9, p_out=0.1)
    assert a != c  # different seed, overwhelmingly likely to differ


def test_planted_rejects_invalid_probabilities():
    with pytest.raises(ValueError):
        generate_planted_clusters(0, [3, 3], p_in=0.5, p_out=0.6)
    with pytest.raises(ValueError):
        generate_planted_clusters(0, [3, 3], p_in=1.5, p_out=0.0)
    with pytest.raises(ValueError):
        generate_planted_clusters(0, [3, 0], p_in=0.5, p_out=0.1)


def triu_planted_edges(seed, sizes, p_in, p_out, w_in=1.0, w_out=0.5):
    """Edge arrays of the planted model drawn in one piece: every pair of
    np.triu_indices(n, 1) at once, with one uniform draw for all of them."""
    n = sum(sizes)
    labels = np.repeat(np.arange(len(sizes)), sizes)
    ii, jj = np.triu_indices(n, k=1)
    u = np.random.default_rng(seed).random(ii.size)
    same = labels[ii] == labels[jj]
    keep = u < np.where(same, p_in, p_out)
    weight = np.where(same, w_in, w_out)
    return SimilarityGraph(n, np.column_stack([ii[keep], jj[keep], weight[keep]])).edge_arrays()


def assert_same_edge_arrays(got, expected):
    for a, b in zip(got, expected):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)


PLANTED_SIZES = [[1], [1, 1], [2], [3, 4], [7, 1, 12], [4, 2, 1], [60, 60, 60], [400] * 4]


@pytest.mark.parametrize("sizes", PLANTED_SIZES, ids=lambda s: "x".join(map(str, s)))
@pytest.mark.parametrize(
    "p_in, p_out", [(0.0, 0.0), (1.0, 1.0), (1.0, 0.0), (0.5, 0.05), (0.02, 0.0004)]
)
@pytest.mark.parametrize("seed", [0, 7, 2**40 + 3])
def test_planted_edges_match_the_single_draw(seed, sizes, p_in, p_out):
    # 4 x 400 nodes hold 1.28 million pairs, about twenty blocks
    graph, _ = generate_planted_clusters(seed, sizes, p_in, p_out, 1.0, 0.5)
    assert_same_edge_arrays(graph.edge_arrays(), triu_planted_edges(seed, sizes, p_in, p_out))


@pytest.mark.parametrize("block", [1, 2, 7, 100])
@pytest.mark.parametrize("sizes", [[1], [2], [3, 4], [7, 1, 12], [30, 20], [5, 3, 1]])
def test_planted_edges_do_not_depend_on_the_block_size(monkeypatch, block, sizes):
    # blocks down to one pair: a row longer than a block is a block alone;
    # with p_out = 0 the draws end inside a block, before the last pair
    import gtvmin.graph

    monkeypatch.setattr(gtvmin.graph, "_PAIR_BLOCK", block)
    for seed, (p_in, p_out) in enumerate([(0.5, 0.05), (1.0, 1.0), (0.9, 0.4), (0.5, 0.0), (1.0, 0.3)]):
        graph, _ = generate_planted_clusters(seed, sizes, p_in, p_out, 1.0, 0.5)
        assert_same_edge_arrays(graph.edge_arrays(), triu_planted_edges(seed, sizes, p_in, p_out))


def test_planted_generator_traces_one_block_plus_the_edges():
    import tracemalloc

    sizes = [750] * 4
    p_in = 8 / 750
    tracemalloc.start()
    try:
        graph, _ = generate_planted_clusters(1, sizes, p_in, p_in / 50)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the 4.5 million pairs drawn at once would trace about 180 MB; the
    # graph holds its edge arrays, the degrees and copies made on the way
    edge_bytes = graph.num_edges * 3 * 8
    assert peak < 4 * 2**20 + 8 * edge_bytes


# -------------------------------------------------------- embedding kNN graph

def test_embedding_identical_vectors_unit_weight():
    emb = Embedding(np.array([[1.0, 2.0], [1.0, 2.0]]))
    g = graph_from_embedding(emb, k=1, sigma=1.0)
    assert dict(g.edges) == {(0, 1): 1.0}


def test_embedding_collinear_points():
    emb = Embedding(np.array([[0.0], [1.0], [10.0]]))
    g = graph_from_embedding(emb, k=1, sigma=1.0)
    edges = dict(g.edges)
    assert set(edges) == {(0, 1), (1, 2)}
    assert edges[(0, 1)] == pytest.approx(np.exp(-1.0), rel=1e-15)
    assert edges[(1, 2)] == pytest.approx(np.exp(-81.0), rel=1e-15)


def test_embedding_determinism():
    rng = np.random.default_rng(5)
    emb = Embedding(rng.normal(size=(10, 3)))
    assert graph_from_embedding(emb, 3, 2.0) == graph_from_embedding(emb, 3, 2.0)


def test_embedding_rejects_bad_arguments():
    emb = Embedding(np.zeros((3, 2)))
    with pytest.raises(ValueError):
        graph_from_embedding(emb, k=3, sigma=1.0)
    with pytest.raises(ValueError):
        graph_from_embedding(emb, k=1, sigma=0.0)
    with pytest.raises(ValueError):
        Embedding(np.array([[np.inf, 0.0]]))


def test_embedding_weight_underflow_names_sigma():
    # exp(-39^2) underflows to 0.0: the edge (1, 2) cannot get a weight
    emb = Embedding(np.array([[0.0], [1.0], [40.0]]))
    with pytest.raises(ValueError, match="sigma=1") as info:
        graph_from_embedding(emb, k=1, sigma=1.0)
    assert "k=1" in str(info.value) and "39" in str(info.value)


# ------------------------------------------------------- validation and files

def test_graph_rejects_self_loop_duplicate_and_bad_weight():
    with pytest.raises(ValueError):
        SimilarityGraph(2, [(0, 0, 1.0)])
    with pytest.raises(ValueError):
        SimilarityGraph(2, [(0, 1, 1.0), (1, 0, 2.0)])
    with pytest.raises(ValueError):
        SimilarityGraph(2, [(0, 1, 0.0)])
    with pytest.raises(ValueError):
        SimilarityGraph(2, [(0, 1, -1.0)])
    with pytest.raises(ValueError):
        SimilarityGraph(2, [(0, 2, 1.0)])


def test_weighted_degree_that_overflows_is_refused_naming_the_node():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match=r"^node 1 has a weighted degree that is not finite$"):
            SimilarityGraph(3, [(0, 1, 1e308), (1, 2, 1e308)])
        with pytest.raises(ValueError, match=r"^edge weights w_in=1e\+308, w_out=1: node 0 has"):
            generate_planted_clusters(0, [3], p_in=1.0, p_out=0.0, w_in=1e308)
    assert caught == []
    # one edge of the largest weight keeps every degree finite
    assert SimilarityGraph(2, [(0, 1, 1e308)]).weighted_degrees().tolist() == [1e308, 1e308]


@pytest.mark.parametrize("weights", [(0.0, 1.0), (1.0, -1.0)])
def test_graph_params_refusal_names_both_weights(weights):
    w_in, w_out = weights
    with pytest.raises(ValueError, match=rf"^edge weights must be positive, got w_in={w_in}, w_out={w_out}$"):
        GraphParams(w_in=w_in, w_out=w_out)


@pytest.mark.parametrize(
    "edges, message",
    [
        pytest.param([(0, 1.5, 1.0)], "edge (0, 1.5) needs integer endpoints", id="fractional"),
        pytest.param(np.array([[0.5, 2.0, 1.0]]), "edge (0.5, 2) needs integer endpoints", id="fractional-array"),
        pytest.param([(-0.25, 1, 1.0)], "edge (-0.25, 1) needs integer endpoints", id="fractional-negative"),
        pytest.param([(float("nan"), 1, 1.0)], "edge (nan, 1) needs integer endpoints", id="nan"),
        pytest.param([(0, float("inf"), 1.0)], "edge (0, inf) needs integer endpoints", id="inf"),
        pytest.param(
            [(99999999999999999999, 1, 1.0)],
            "edge (99999999999999999999, 1) out of range for n=3",
            id="beyond-int64",
        ),
        pytest.param([(0, -(2**63) - 1, 1.0)], f"edge (0, {-(2**63) - 1}) out of range", id="below-int64"),
        pytest.param(np.array([[0.0, 1e20, 1.0]]), "edge (0, 100000000000000000000) out of range", id="beyond-int64-array"),
        pytest.param([(10**400, 1, 1.0)], "beyond the float range", id="beyond-float"),
    ],
)
def test_graph_checks_endpoints_before_the_integer_cast(edges, message):
    # a cast would wrap or truncate these, with a RuntimeWarning for some
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as info:
            SimilarityGraph(3, edges)
    assert message in str(info.value)


@pytest.mark.parametrize("index", ["99999999999999999999", "9007199254740993"])
def test_graph_file_endpoint_out_of_range_is_named_with_every_digit(tmp_path, index):
    path = tmp_path / "graph.txt"
    path.write_text(f"3\n0 1 1.0\n{index} 1 1.0\n", encoding="ascii")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as info:
            read_graph(path)
    assert str(info.value) == f"{path}: edge ({index}, 1) out of range for n=3"


def test_cluster_spec_validation():
    with pytest.raises(ValueError):
        ClusterSpec(members=())
    with pytest.raises(ValueError):
        ClusterSpec(members=(0, 0))
    with pytest.raises(ValueError):
        ClusterSpec(members=(0,), epsilon=-1.0)
    cluster = ClusterSpec(members=(0, 5))
    with pytest.raises(ValueError):
        cluster.check_against(3)


def test_graph_file_roundtrip(tmp_path):
    graph = two_triangles_with_bridge(bridge_weight=1 / 3)
    path = tmp_path / "graph.txt"
    write_graph(graph, path)
    assert read_graph(path) == graph
    # writer output is canonical, so a second write is byte identical
    first = path.read_bytes()
    write_graph(read_graph(path), path)
    assert path.read_bytes() == first


@pytest.mark.parametrize("source", ["corner-weights", 0, 1, 2])
def test_graph_file_equals_savetxt_bytes_after_its_header(tmp_path, source):
    if source == "corner-weights":
        weights = [4.9406564584124654e-324, 1.7976931348623157e308, 1 / 3, 2.0, 2.0**53]
        graph = SimilarityGraph(6, [(i, i + 1, w) for i, w in enumerate(weights)])
    else:
        graph, _ = generate_planted_clusters(source, [7, 5, 6], p_in=0.7, p_out=0.2)
    path, oracle = tmp_path / "graph.txt", tmp_path / "oracle.txt"
    write_graph(graph, path)
    np.savetxt(oracle, np.column_stack(graph.edge_arrays()), fmt="%d %d %.17g")
    head, _, body = path.read_bytes().partition(b"\n")
    assert head == str(graph.n).encode("ascii")
    assert body == oracle.read_bytes()
    if source == "corner-weights":
        assert b"4.9406564584124654e-324" in body and b"1.7976931348623157e+308" in body


def test_graph_file_rejects_bad_content(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2\n0 0 1.0\n")
    with pytest.raises(ValueError, match="self-loop"):
        read_graph(path)
    path.write_text("2\n0 1 1.0\n1 0 1.0\n")
    with pytest.raises(ValueError, match="duplicate"):
        read_graph(path)
    path.write_text("2\n0 1 -3.0\n")
    with pytest.raises(ValueError, match="weight"):
        read_graph(path)
    path.write_text("2\n0 1\n")
    with pytest.raises(ValueError, match="expected"):
        read_graph(path)


def line_scan_graph(text: str):
    """Reference parse of the graph format, one line at a time: the graph,
    or the error message that read_graph must contain."""
    lines = [(k, ln) for k, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines:
        return "empty graph file"
    try:
        n = int(lines[0][1])
    except ValueError:
        return "first line must be the node count"
    edges = []
    for k, line in lines[1:]:
        parts = line.split()
        if len(parts) != 3:
            return f":{k}: expected 'i j weight', got {line!r}"
        try:
            edges.append((int(parts[0]), int(parts[1]), float(parts[2])))
        except ValueError:
            return f":{k}: malformed edge line {line!r}"
    try:
        return SimilarityGraph(n, edges)
    except ValueError as exc:
        return str(exc)


def assert_read_graph_matches_line_scan(path):
    expected = line_scan_graph(path.read_text(encoding="ascii"))
    if isinstance(expected, SimilarityGraph):
        got = read_graph(path)
        assert got == expected
        for a, b in zip(got.edge_arrays(), expected.edge_arrays()):
            np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))
    else:
        with pytest.raises(ValueError) as info:
            read_graph(path)
        assert expected in str(info.value)


@pytest.mark.parametrize(
    "text",
    [
        pytest.param("3\n0 1 1.0\n1 2 0.5\n", id="canonical"),
        pytest.param("3\n0\t1\t1.0\n1 \t2  0.5 \n", id="tabs"),
        pytest.param("\n\n 3 \n\n0 1 1.0\n\n  \n1 2 2\n\n", id="blank-lines"),
        pytest.param("3\n# a comment\n0 1 1.0\n", id="comment"),
        pytest.param("3\n# a b\n", id="comment-3-fields"),
        pytest.param("3\n1.5 2 1.0\n", id="float-index"),
        pytest.param("3\n1.0 2 1.0\n", id="float-integral-index"),
        pytest.param("3\n0 1\n", id="2-fields"),
        pytest.param("3\n0 1 1.0 2\n", id="4-fields"),
        pytest.param("3\n0 1 1.0\n0 2\n", id="2-fields-later"),
        pytest.param("3\n0 1 1_0\n1_0 2 1.0\n", id="underscores"),
        pytest.param("3\n+0 002 1e-3\n", id="signs-and-zeros"),
        pytest.param("3\n0 1 inf\n", id="inf-weight"),
        pytest.param("3\n0 1 nan\n", id="nan-weight"),
        pytest.param("3\n0 1 0x1p3\n", id="hex-float"),
        pytest.param("3\n0 1\x0c2.0\n", id="form-feed"),
        pytest.param("3\n0 1\x0b2.0\n", id="vertical-tab"),
        pytest.param("3\n0 1\x1c2.0\n", id="file-separator"),
        pytest.param("3\n0 1\x1f2.0\n", id="unit-separator"),
        pytest.param("3\r\n0 1 1.0\r\n1 2 1.0\r", id="carriage-returns"),
        pytest.param("3\n0 1\x002.0\n", id="nul"),
        pytest.param("3\n0 1 1.0\x00\n", id="trailing-nul"),
        pytest.param("3\x7f\n0 1 1.0\n", id="delete-in-header"),
        pytest.param("3\n0 1 1.0\x7f\n", id="trailing-delete"),
        pytest.param("3\n", id="no-edges"),
        pytest.param("3", id="no-newline"),
        pytest.param("x\n0 1 1.0\n", id="bad-count"),
        pytest.param("3\n0 9 1.0\n", id="out-of-range"),
        pytest.param("3\n99999999999999999999 1 1.0\n", id="int64-overflow"),
    ],
)
def test_read_graph_accepts_and_refuses_as_the_line_scan(tmp_path, text):
    path = tmp_path / "graph.txt"
    path.write_bytes(text.encode("ascii"))
    assert_read_graph_matches_line_scan(path)


_GRAPH_FIELDS = st.sampled_from(
    ["0", "1", "2", "3", "+1", "-1", "007", "1.5", "1.0", "1_0", "#", "x", "0.5", "-2.5",
     "1e3", ".5", "5.", "inf", "nan", "1e400", "4.9e-324", "1_0.5"]
)
_GRAPH_SEPARATORS = st.sampled_from([" ", "\t", "  ", " \t", "\x0c", "\x0b", "\x1c", "\x1f"])
_GRAPH_LINES = st.builds(
    lambda pad, fields, sep: pad + sep.join(fields),
    st.sampled_from(["", " ", "\t"]),
    st.lists(_GRAPH_FIELDS, max_size=4),
    _GRAPH_SEPARATORS,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(["4", " 4", "+4", "4.0", "x", ""]), st.lists(_GRAPH_LINES, max_size=6))
def test_read_graph_matches_line_scan_on_generated_files(tmp_path_factory, head, lines):
    path = tmp_path_factory.mktemp("graph") / "graph.txt"
    path.write_bytes(("\n".join([head, *lines]) + "\n").encode("ascii"))
    assert_read_graph_matches_line_scan(path)


_BLANKS = st.sampled_from(["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", " ", "\t", "\x1f"])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(_BLANKS, max_size=300), st.sampled_from(["4", " 4 ", "x", ""]), st.lists(_GRAPH_LINES, max_size=3))
def test_graph_header_after_blank_lines_is_numbered_as_the_line_scan(tmp_path_factory, blanks, head, lines):
    # blank lines of every kind before the header, past 64 and 256
    # characters here; the header's value and line must not move
    text = "".join(blanks) + "\n".join([head, *lines]) + "\n"
    path = tmp_path_factory.mktemp("graph") / "graph.txt"
    path.write_bytes(text.encode("ascii"))
    assert_read_graph_matches_line_scan(path)
    numbered = [(k, ln) for k, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    try:
        expected = int(numbered[0][1]), numbered[0][0]
    except (IndexError, ValueError):
        expected = None
    if expected is not None:
        assert_graph_header(text, path, *expected)
    else:
        with pytest.raises(ValueError, match="empty graph file|first line must be the node count"):
            _scan_graph_lines(text, path)


def assert_graph_header(text, path, n, line):
    """The line scan and read_graph take ``text``'s node count ``n`` from
    its line ``line``: a line put right after it is numbered ``line + 1``."""
    head = text.splitlines()[:line]
    assert _scan_graph_lines("\n".join(head), path) == (n, [])
    path.write_bytes("\n".join([*head, "x"]).encode("ascii"))
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:{line + 1}: expected 'i j weight', got 'x'$"):
        read_graph(path)


@pytest.mark.parametrize(
    "text, expected",
    [
        pytest.param(" " * 62 + "1234\n0 1 1.0\n", (1234, 1), id="cut-at-64"),
        pytest.param("\n" * 200 + " " * 55 + "98765\n", (98765, 201), id="cut-at-256"),
        pytest.param("\r\n" * 32 + "7\n", (7, 33), id="crlf-blanks"),
        pytest.param(" " * 63 + "\r\n12\n", (12, 2), id="crlf-split-at-64"),
    ],
)
def test_graph_header_cut_by_the_read_prefix_is_read_whole(tmp_path, text, expected):
    # headers that a prefix of 64 or 256 characters would cut
    path = tmp_path / "graph.txt"
    path.write_bytes(text.encode("ascii"))
    assert read_graph(path).n == expected[0]
    assert_graph_header(text, path, *expected)


@pytest.mark.parametrize("seed", range(3))
def test_written_graph_files_take_the_vectorised_parse(tmp_path, seed):
    from gtvmin.graph import _parse_graph_rows

    graph, _ = generate_planted_clusters(seed, [7, 5, 6], p_in=0.7, p_out=0.2)
    path = tmp_path / "graph.txt"
    write_graph(graph, path)
    n, edges = _parse_graph_rows(path.read_bytes())
    assert SimilarityGraph(n, edges) == graph


# -------------------------------------------------------- connected components

def assert_components_match_csgraph(graph):
    from scipy.sparse import coo_array
    from scipy.sparse.csgraph import connected_components

    ii, jj, ww = graph.edge_arrays()
    adjacency = coo_array((ww, (ii, jj)), shape=(graph.n, graph.n))
    count, labels = connected_components(adjacency, directed=False)
    got_count, got_labels = _components(graph)
    assert got_count == count
    np.testing.assert_array_equal(got_labels, labels)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.integers(1, 30).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=40),
        )
    )
)
def test_components_match_csgraph(case):
    n, pairs = case
    edges = {(min(i, j), max(i, j)) for i, j in pairs if i != j}
    assert_components_match_csgraph(SimilarityGraph(n, [(i, j, 1.0) for i, j in edges]))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(1, 3000), st.integers(0, 4), st.integers(0, 10**6))
def test_components_match_csgraph_on_shuffled_paths(n, cuts, seed):
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    keep = np.ones(max(n - 1, 0), dtype=bool)
    if n > 1:
        keep[rng.integers(0, n - 1, size=cuts)] = False
    edges = np.column_stack([order[:-1][keep], order[1:][keep], np.ones(keep.sum())])
    assert_components_match_csgraph(SimilarityGraph(n, edges))


@pytest.mark.parametrize(
    "graph",
    [
        SimilarityGraph(1),
        SimilarityGraph(5),
        SimilarityGraph(6, [(4, 5, 1.0)]),
        # a star whose centre is its largest node
        SimilarityGraph(400, [(i, 399, 1.0) for i in range(399)]),
    ],
    ids=["single-node", "isolated-nodes", "isolated-and-edge", "star"],
)
def test_components_match_csgraph_on_corner_graphs(graph):
    assert_components_match_csgraph(graph)


# ------------------------------------------- cached arrays against definitions

def random_weighted_graph(seed):
    """A graph built from a shuffled edge list with random orientations and
    random weights, its edge map as defined by that list (canonical keys),
    and a cluster of random members in random order."""
    rng = np.random.default_rng(seed)
    sizes = [int(s) for s in rng.integers(1, 8, size=int(rng.integers(1, 4)))]
    planted, _ = generate_planted_clusters(seed, sizes, p_in=0.8, p_out=0.3)
    edges = [
        (j, i, float(rng.uniform(0.1, 2.0))) if rng.random() < 0.5
        else (i, j, float(rng.uniform(0.1, 2.0)))
        for (i, j) in planted.edges
    ]
    edges = [edges[k] for k in rng.permutation(len(edges))]
    edge_map = {(min(i, j), max(i, j)): w for i, j, w in edges}
    size = int(rng.integers(1, planted.n + 1))
    cluster = ClusterSpec(members=tuple(rng.permutation(planted.n)[:size].tolist()))
    return SimilarityGraph(planted.n, edges), edge_map, cluster, rng


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 10**6))
def test_cached_arrays_degrees_and_total_weight_match_edge_list(seed):
    graph, edge_map, _, _ = random_weighted_graph(seed)
    assert dict(graph.edges) == edge_map
    ii, jj, ww = graph.edge_arrays()
    items = sorted(edge_map.items())
    assert list(zip(ii.tolist(), jj.tolist())) == [key for key, _ in items]
    assert ww.tolist() == [w for _, w in items]
    degrees = np.zeros(graph.n)
    for (i, j), w in edge_map.items():
        degrees[i] += w
        degrees[j] += w
    np.testing.assert_allclose(graph.weighted_degrees(), degrees, rtol=1e-14, atol=0.0)
    # each edge's weight counts once at either end: the degrees sum to twice the total weight
    assert graph.weighted_degrees().sum() == pytest.approx(2 * sum(edge_map.values()), rel=1e-12)
    assert not graph.weighted_degrees().flags.writeable


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 10**6))
def test_sparse_laplacian_matches_dense_route(seed):
    graph, _, _, rng = random_weighted_graph(seed)
    w = rng.normal(size=(graph.n, 3))
    lap = laplacian(graph)
    scale = max(1.0, float(np.abs(lap).sum(axis=1).max() * np.abs(w).max()))
    assert np.max(np.abs(graph._laplacian_csr() @ w - lap @ w)) <= 1e-14 * scale


@pytest.mark.parametrize("seed", range(10))
def test_dense_laplacian_is_the_sparse_one_bit_for_bit(seed):
    # Gaussian kNN weights, whose degree sums round differently in every order
    rng = np.random.default_rng(900 + seed)
    graph = graph_from_embedding(Embedding(rng.normal(size=(40, 3))), k=4, sigma=1.5)
    dense = laplacian(graph)
    np.testing.assert_array_equal(dense.view(np.int64), graph._laplacian_csr().toarray().view(np.int64))
    assert lambda2(graph) == float(max(np.linalg.eigvalsh(graph._laplacian_csr().toarray())[1], 0.0))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 10**6))
def test_boundary_and_induced_subgraph_match_definitions(seed):
    graph, edge_map, cluster, _ = random_weighted_graph(seed)
    inside = set(cluster.members)
    cut = [w for (i, j), w in edge_map.items() if (i in inside) != (j in inside)]
    assert cluster_boundary(graph, cluster) == pytest.approx(sum(cut), rel=1e-14, abs=0.0)
    pos = {node: k for k, node in enumerate(cluster.members)}
    expected = {
        (min(pos[i], pos[j]), max(pos[i], pos[j])): w
        for (i, j), w in edge_map.items()
        if i in pos and j in pos
    }
    sub = induced_subgraph(graph, cluster)
    assert sub.n == cluster.size and dict(sub.edges) == expected


# --------------------------------------------------- kNN without scipy.spatial

@pytest.mark.parametrize("seed", range(6))
def test_embedding_edges_match_cdist_route_bit_for_bit(seed):
    from scipy.spatial.distance import cdist

    rng = np.random.default_rng(seed)
    n, d, k = int(rng.integers(5, 400)), int(rng.integers(1, 6)), int(rng.integers(1, 5))
    vectors = rng.normal(size=(n, d))
    if seed % 2:
        vectors = np.round(vectors, 1)  # many exact distance ties
    sigma = 3.0
    sq = cdist(vectors, vectors, metric="sqeuclidean")
    np.fill_diagonal(sq, np.inf)
    expected = {}
    for i in range(n):
        for j in np.argsort(sq[i], kind="stable")[:k].tolist():
            expected[(min(i, j), max(i, j))] = float(np.exp(-sq[i, j] / sigma**2))
    graph = graph_from_embedding(Embedding(vectors), k, sigma)
    assert dict(graph.edges) == expected


def stable_sort_knn_edges(vectors, k, sigma):
    """Edge map of the union kNN graph, each row's neighbours taken as the
    first k of a stable argsort of its squared distances."""
    n = len(vectors)
    sq = np.zeros((n, n))
    for col in vectors.T:
        sq += np.subtract.outer(col, col) ** 2
    np.fill_diagonal(sq, np.inf)
    expected = {}
    for i in range(n):
        for j in np.argsort(sq[i], kind="stable")[:k].tolist():
            expected[(min(i, j), max(i, j))] = float(np.exp(-sq[i, j] / sigma**2))
    return expected


@pytest.mark.parametrize("seed", range(12))
def test_embedding_ties_go_to_the_smaller_index_as_in_a_stable_sort(seed):
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(2, 60)), int(rng.integers(1, 4))
    # few distinct integer coordinates: most distances tie
    vectors = rng.integers(0, 3, size=(n, d)).astype(float)
    for k in sorted({1, int(rng.integers(1, n)), n - 1}):
        graph = graph_from_embedding(Embedding(vectors), k, 4.0)
        assert dict(graph.edges) == stable_sort_knn_edges(vectors, k, 4.0)


@pytest.mark.parametrize(
    "vectors, k",
    [
        (np.random.default_rng(1600).normal(size=(1600, 3)), 8),
        # a 40 x 25 grid: every inner node ties at its 6th distance, in
        # each of the 16 blocks
        (np.indices((40, 25)).reshape(2, -1).T.astype(float), 6),
        (np.random.default_rng(700).integers(0, 4, size=(700, 2)).astype(float), 8),
    ],
    ids=["1600x3", "grid-1000", "integers-700"],
)
def test_embedding_edges_match_the_stable_sort_at_benchmark_sizes(vectors, k):
    # the iterate_sparse shape and tie-heavy inputs across many blocks
    graph = graph_from_embedding(Embedding(vectors), k, 4.0)
    assert dict(graph.edges) == stable_sort_knn_edges(vectors, k, 4.0)


@pytest.mark.parametrize("budget", [1, 7, 64])
def test_embedding_edges_do_not_depend_on_the_block_size(monkeypatch, budget):
    import gtvmin.graph

    rng = np.random.default_rng(budget)
    vectors = rng.integers(0, 2, size=(40, 2)).astype(float)
    expected = {k: graph_from_embedding(Embedding(vectors), k, 4.0) for k in (1, 5, 39)}
    monkeypatch.setattr(gtvmin.graph, "_KNN_BLOCK", budget)
    for k, graph in expected.items():
        assert graph_from_embedding(Embedding(vectors), k, 4.0) == graph


def test_embedding_graph_traces_one_block_plus_the_neighbours():
    import tracemalloc

    n, k = 3000, 5
    embedding = Embedding(np.random.default_rng(0).normal(size=(n, 2)))
    tracemalloc.start()
    try:
        graph_from_embedding(embedding, k, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # blocks of 256 full rows, each sorted whole, traced 12 MiB at this size
    assert peak < 4 * 2**20 + 64 * n * k


def run_fresh_interpreter(code: str) -> str:
    """Standard output of ``code`` run by a new Python process."""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    return out.stdout.strip()


_PLANTED_WITHIN_300_MIB = """
import resource, sys, time
from gtvmin import generate_planted_clusters
start = time.perf_counter()
graph, _ = generate_planted_clusters(1, [5000] * 4, 8 / 5000, 8 / 5000 / 50)
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(f"{graph.num_edges} edges in {time.perf_counter() - start:.2f} s, ru_maxrss {peak:.1f} MiB")
sys.exit(peak > 300)
"""


def test_planted_graph_at_n_20000_within_300_mib():
    # a child's ru_maxrss starts at its parent's peak, and so at this test
    # process's: the check runs in a grandchild, whose parent is a new
    # interpreter of a few MiB
    spawn = "import subprocess, sys; sys.exit(subprocess.run(sys.argv[1:]).returncode)"
    argv = [sys.executable, "-c", spawn, sys.executable, "-c", _PLANTED_WITHIN_300_MIB]
    done = subprocess.run(argv, capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, ""), done.stdout
    assert re.fullmatch(r"\d+ edges in \S+ s, ru_maxrss \S+ MiB\n", done.stdout)


def test_scenario_and_knn_graph_of_the_benchmark_load_no_scipy():
    # the iterate_sparse set-up: a scenario of 4 x 400 nodes and the kNN
    # graph of the nodes' local least-squares estimates
    code = """
import sys
import numpy as np
import gtvmin as g

scen = g.generate_scenario(1, [400] * 4, 3, 10, 0.1, 2.0, g.GraphParams(p_in=0.0, p_out=0.0))
x = np.stack([ds.features for ds in scen.datasets])
y = np.stack([ds.labels for ds in scen.datasets])
estimates = np.linalg.solve(x.transpose(0, 2, 1) @ x, (x.transpose(0, 2, 1) @ y[..., None]))[..., 0]
graph = g.graph_from_embedding(g.Embedding(estimates), k=8, sigma=1.0)
print(graph.n, sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""
    assert run_fresh_interpreter(code) == "1600 []"


@pytest.mark.parametrize(
    "module", ["scipy.spatial", "scipy.sparse.linalg", "scipy.sparse.csgraph", "scipy", "scipy.sparse"]
)
def test_import_leaves_scipy_module_unloaded(module):
    assert run_fresh_interpreter(f"import sys, gtvmin; print({module!r} in sys.modules)") == "False"


def test_solve_exact_leaves_scipy_sparse_linalg_unloaded_and_iterative_still_runs():
    code = """
import sys
import gtvmin as g

scen = g.generate_scenario(
    rng_seed=5, cluster_sizes=[4, 3], d=2, m_per_node=6, noise_std=0.1, separation=2.0
)
problem = g.GTVMinProblem.from_scenario(scen, 1.0)
g.solve_exact(problem)
print([m for m in ("scipy.sparse.linalg", "scipy.sparse.csgraph") if m in sys.modules])
result = g.solve_iterative(problem, max_iter=20, tol=0.0)
print(result.iterations, any(m in sys.modules for m in ("scipy.sparse.linalg", "scipy.linalg")))
"""
    assert run_fresh_interpreter(code).splitlines() == ["[]", "20 False"]


def test_generate_analyze_and_small_solves_load_no_scipy(tmp_path):
    from gtvmin.cli import main

    config = tmp_path / "cfg.json"
    config.write_text('{"seed": 3, "cluster_sizes": [4, 3], "d": 2, "m_per_node": 6}')
    solved = tmp_path / "solved"
    assert main(["generate", "--config", str(config), "--out", str(solved)]) == 0
    assert main(["solve", str(solved), "--alpha", "1", "--out", str(tmp_path / "result.json")]) == 0
    fresh = str(tmp_path / "fresh")
    code = f"""
import contextlib, io, sys
import gtvmin.cli

with contextlib.redirect_stdout(io.StringIO()):
    codes = [
        gtvmin.cli.main(["generate", "--config", {str(config)!r}, "--out", {fresh!r}]),
        gtvmin.cli.main(["analyze", {str(solved)!r}, {str(tmp_path / "result.json")!r}, "--out", {str(tmp_path / "reports")!r}]),
        gtvmin.cli.main(["solve", {fresh!r}, "--alpha", "1", "--out", {str(tmp_path / "exact.json")!r}]),
        gtvmin.cli.main(["solve", {fresh!r}, "--alpha", "1", "--solver", "iterative", "--out", {str(tmp_path / "iterative.json")!r}]),
    ]
print(codes, sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""
    assert run_fresh_interpreter(code) == "[0, 0, 0, 0] []"
    assert (tmp_path / "reports" / "reports.csv").exists()
    # a generated scenario is exactly three files, whatever its node count
    assert sorted(os.listdir(fresh)) == ["graph.txt", "meta.json", "samples.csv"]


def test_solves_above_the_dense_size_load_scipy_sparse_but_no_scipy_linalg():
    code = """
import sys
import gtvmin as g
from gtvmin.solver import _DENSE_NODES

scen = g.generate_scenario(
    rng_seed=5, cluster_sizes=[_DENSE_NODES + 1], d=2, m_per_node=6, noise_std=0.1,
    separation=2.0, graph_params=g.GraphParams(p_in=0.05, p_out=0.0),
)
modules = ("scipy", "scipy.sparse", "scipy.sparse.linalg", "scipy.linalg")
for solve in (g.solve_exact, lambda problem: g.solve_iterative(problem, max_iter=5, tol=0.0)):
    problem = g.GTVMinProblem.from_scenario(scen, 1.0)
    print([m for m in modules if m in sys.modules])
    solve(problem)
print([m for m in modules if m in sys.modules])
"""
    assert run_fresh_interpreter(code).splitlines() == [
        "[]",
        "['scipy', 'scipy.sparse']",
        "['scipy', 'scipy.sparse']",
    ]


def test_roundtrip_sweep_and_quick_selftest_load_no_scipy_and_no_numpy_ma(tmp_path):
    # the benchmark's cli_roundtrip config: three scenarios of 180 nodes
    config = tmp_path / "roundtrip.json"
    config.write_text(
        '{"seed": 1, "cluster_sizes": [60, 60, 60], "d": 3, "m_per_node": 10, "noise_std": 0.1, '
        '"separation": 2.0, "p_in": 0.5, "p_out": 0.05, "p_out_list": [0.01, 0.05, 0.1], '
        '"alpha_list": [0.5, 1.0, 5.0]}'
    )
    code = f"""
import contextlib, io, sys
import gtvmin.cli

with contextlib.redirect_stdout(io.StringIO()):
    codes = [
        gtvmin.cli.main(["sweep", "--config", {str(config)!r}, "--out", {str(tmp_path / "sweep")!r}]),
        gtvmin.cli.main(["selftest", "--quick"]),
    ]
print(codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy" or m.split(".")[:2] == ["numpy", "ma"]))
"""
    assert run_fresh_interpreter(code) == "[0, 0] []"
