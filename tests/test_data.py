import filecmp
import io
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gtvmin.data
import gtvmin.graph
from gtvmin import (
    ClusterSpec,
    GraphParams,
    LocalDataset,
    Scenario,
    SimilarityGraph,
    clustering_error,
    generate_scenario,
    load_scenario,
    quadratic_loss,
    save_scenario,
)


def make_scenario(seed=3, noise=0.1, sizes=(5,), d=2, m=20, **kwargs):
    return generate_scenario(
        rng_seed=seed,
        cluster_sizes=list(sizes),
        d=d,
        m_per_node=m,
        noise_std=noise,
        separation=2.0,
        **kwargs,
    )


# ------------------------------------------------------------------- losses

def test_quadratic_loss_exact_fit_is_zero():
    ds = LocalDataset(features=np.eye(2), labels=np.array([1.0, 2.0]))
    assert quadratic_loss(ds, np.array([1.0, 2.0])) == 0.0


def test_quadratic_loss_hand_values():
    ds = LocalDataset(features=np.eye(2), labels=np.array([1.0, 2.0]))
    assert quadratic_loss(ds, np.zeros(2)) == pytest.approx(2.5)
    ds1 = LocalDataset(features=np.array([[2.0]]), labels=np.array([4.0]))
    assert quadratic_loss(ds1, np.array([1.0])) == pytest.approx(4.0)


def test_loss_dimension_mismatch_raises():
    ds = LocalDataset(features=np.eye(2), labels=np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        quadratic_loss(ds, np.zeros(3))


def test_loss_nonnegative_on_random_inputs():
    rng = np.random.default_rng(4)
    for _ in range(20):
        ds = LocalDataset(features=rng.normal(size=(6, 3)), labels=rng.normal(size=6))
        assert quadratic_loss(ds, rng.normal(size=3)) >= 0.0


def test_dataset_validation():
    with pytest.raises(ValueError):
        LocalDataset(features=np.eye(2), labels=np.zeros(3))
    with pytest.raises(ValueError):
        LocalDataset(features=np.array([[np.nan]]), labels=np.zeros(1))
    with pytest.raises(ValueError):
        LocalDataset(features=np.zeros((0, 2)), labels=np.zeros(0))


# ---------------------------------------------------------------- scenarios

def test_noiseless_scenario_has_zero_epsilon_and_zero_loss():
    scen = make_scenario(noise=0.0, sizes=(4, 4))
    for cluster in scen.clusters:
        assert cluster.epsilon == 0.0
        for i in cluster.members:
            assert quadratic_loss(scen.datasets[i], cluster.reference_params) == 0.0


def test_scenario_determinism_bit_identical():
    a = make_scenario(seed=21, sizes=(3, 4), noise=0.3)
    b = make_scenario(seed=21, sizes=(3, 4), noise=0.3)
    assert a.graph == b.graph
    for da, db in zip(a.datasets, b.datasets):
        np.testing.assert_array_equal(da.features, db.features)
        np.testing.assert_array_equal(da.labels, db.labels)
    for ca, cb in zip(a.clusters, b.clusters):
        np.testing.assert_array_equal(ca.reference_params, cb.reference_params)
        assert ca.epsilon == cb.epsilon


def test_recorded_epsilon_matches_recomputation():
    scen = make_scenario(seed=5, noise=0.1, sizes=(5,), m=20)
    cluster = scen.clusters[0]
    recomputed = sum(
        quadratic_loss(scen.datasets[i], cluster.reference_params)
        for i in cluster.members
    )
    assert recomputed == pytest.approx(cluster.epsilon, rel=1e-12, abs=1e-12)


def test_clustering_error_examples():
    noiseless = make_scenario(noise=0.0, sizes=(4,))
    cluster = noiseless.clusters[0]
    assert clustering_error(noiseless, cluster, cluster.reference_params) == 0.0

    from gtvmin import ClusterSpec

    single = ClusterSpec(members=(2,))
    w = np.array([0.5, -1.0])
    assert clustering_error(noiseless, single, w) == pytest.approx(
        quadratic_loss(noiseless.datasets[2], w)
    )

    noisy = make_scenario(seed=9, noise=0.4, sizes=(6,))
    c = noisy.clusters[0]
    assert clustering_error(noisy, c, c.reference_params) == pytest.approx(
        c.epsilon, rel=1e-12, abs=1e-12
    )


def test_clustering_assumption_holds_with_equality():
    for seed in range(5):
        scen = make_scenario(seed=seed, noise=0.2, sizes=(3, 5))
        for cluster in scen.clusters:
            err = clustering_error(scen, cluster, cluster.reference_params)
            assert err <= cluster.epsilon + 1e-12


def test_center_separation():
    scen = make_scenario(seed=2, sizes=(3, 3, 3), d=4)
    centers = [c.reference_params for c in scen.clusters]
    for a in range(3):
        for b in range(a + 1, 3):
            assert np.linalg.norm(centers[a] - centers[b]) >= 2.0 * (1 - 1e-12)


def test_separation_infeasible_raises():
    # a 1-d sphere has only two points, so three separated centers cannot exist
    with pytest.raises(ValueError, match="separation"):
        make_scenario(sizes=(2, 2, 2), d=1)


def test_generate_scenario_validation():
    with pytest.raises(ValueError):
        make_scenario(sizes=())
    with pytest.raises(ValueError):
        make_scenario(noise=-0.1)
    with pytest.raises(ValueError):
        generate_scenario(0, [3], d=2, m_per_node=5, noise_std=0.1, separation=0.0)


def test_scenario_uses_graph_params():
    scen = make_scenario(
        sizes=(3, 3), graph_params=GraphParams(p_in=1.0, p_out=0.0)
    )
    assert scen.graph.num_edges == 6  # two disjoint triangles


# ------------------------------------------------------------- serialization

def test_scenario_roundtrip_and_byte_identical(tmp_path):
    scen = make_scenario(seed=13, noise=0.25, sizes=(3, 4), d=3, m=7)
    dir_a = tmp_path / "a"
    save_scenario(scen, dir_a)
    loaded = load_scenario(dir_a)

    assert loaded.graph == scen.graph
    assert loaded.d == scen.d
    assert loaded.rng_seed == scen.rng_seed
    assert loaded.generator == scen.generator
    for da, db in zip(loaded.datasets, scen.datasets):
        np.testing.assert_array_equal(da.features, db.features)
        np.testing.assert_array_equal(da.labels, db.labels)
    for ca, cb in zip(loaded.clusters, scen.clusters):
        assert ca.members == cb.members
        np.testing.assert_array_equal(ca.reference_params, cb.reference_params)
        assert ca.epsilon == cb.epsilon

    # saving the loaded scenario reproduces every file byte for byte
    dir_b = tmp_path / "b"
    save_scenario(loaded, dir_b)
    names = sorted(p.name for p in dir_a.iterdir())
    assert names == sorted(p.name for p in dir_b.iterdir())
    match, mismatch, errors = filecmp.cmpfiles(dir_a, dir_b, names, shallow=False)
    assert mismatch == [] and errors == []


@pytest.mark.parametrize("d", [1, 2, 5])
def test_meta_json_of_older_versions_with_n_and_d_loads_the_same_arrays(tmp_path, d):
    import json

    scen = _adversarial_scenario(d)
    directory = save_scenario(scen, tmp_path / "scen")
    expected = load_scenario(directory)
    # older versions also wrote the node count and the dimension to meta.json
    meta_path = directory / "meta.json"
    meta = json.loads(meta_path.read_text())
    assert "n" not in meta and "d" not in meta
    gtvmin.data._write_json(meta_path, {**meta, "n": scen.n, "d": scen.d})
    loaded = load_scenario(directory)
    assert (loaded.n, loaded.d, loaded.graph) == (expected.n, expected.d, expected.graph)
    for got, want in zip(loaded.datasets, expected.datasets, strict=True):
        assert got.features.tobytes() == want.features.tobytes()
        assert got.labels.tobytes() == want.labels.tobytes()
    assert [c.members for c in loaded.clusters] == [c.members for c in expected.clusters]


@pytest.mark.parametrize("sep", ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1e"])
@pytest.mark.parametrize(
    "name, lines, refusal",
    [
        ("graph.txt", ["3", "0 1 1.0", "1 2 {}"], "malformed edge line"),
        ("samples.csv", ["0,1.0,2.0", "", "1,1.0,{}"], "could not convert string"),
    ],
)
def test_byte_that_does_not_decode_is_named_by_the_line_the_scan_names(tmp_path, sep, name, lines, refusal):
    from gtvmin.data import _read_samples
    from gtvmin.graph import read_graph

    read = {"graph.txt": read_graph, "samples.csv": _read_samples}[name]
    path = tmp_path / name
    path.write_bytes(sep.join(lines).format("x").encode("ascii"))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: {refusal}"):
        read(path)
    path.write_bytes(sep.join(lines).format("\xff").encode("latin-1"))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: 'ascii' codec can't decode byte 0xff"):
        read(path)


_SAMPLE_CELLS = st.sampled_from(
    ["0.5", "-2.5", "1", "-0", "007", "+1", "1e3", ".5", "5.", "4.9e-324", "1.7976931348623157e308", " 2", "3 ", "\t3"]
)
# cells that np.loadtxt or the line scan may each refuse, or read as a node
# at fault
_ODD_CELLS = st.sampled_from(
    ["1 2", "inf", "-inf", "nan", "1e400", "1_0", "0x1p3", "x", "", "#", "1#2", "3\x1f", "\x0c1", "\x00",
     "-1", "0.0", "1.5", "2", "9"]
)


@st.composite
def samples_texts(draw):
    """samples.csv texts of a few well-formed rows, with at most two edits
    (an odd cell, a cell more or less, an extra line) and line ends that
    np.loadtxt or the line scan may each refuse."""
    width, node, lines = draw(st.integers(2, 4)), 0, []
    for k in range(draw(st.integers(1, 5))):
        node += draw(st.sampled_from([0, 1])) if k else 0
        lines.append([str(node), *draw(st.lists(_SAMPLE_CELLS, min_size=width, max_size=width))])
    for _ in range(draw(st.integers(0, 2))):
        cells = lines[draw(st.integers(0, len(lines) - 1))]
        edit = draw(st.sampled_from(["cell", "more", "fewer", "line"]))
        if edit == "cell":
            cells[draw(st.integers(0, len(cells) - 1))] = draw(_ODD_CELLS)
        elif edit == "more":
            cells.append(draw(_SAMPLE_CELLS))
        elif edit == "fewer":
            cells.pop()
        else:
            lines.insert(draw(st.integers(0, len(lines))), [draw(st.sampled_from(["", " ", "# note", "\t# 1"]))])
    sep = draw(st.sampled_from(["\n", "\n", "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1e"]))
    return sep.join(map(",".join, lines)) + draw(st.sampled_from(["", sep]))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(samples_texts())
def test_read_samples_matches_line_scan_on_generated_files(tmp_path_factory, text):
    from gtvmin.data import _read_samples, _scan_samples

    path = tmp_path_factory.mktemp("samples") / "samples.csv"
    path.write_bytes(text.encode("ascii"))
    try:
        table = _scan_samples(path.read_bytes().decode("ascii"), path)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            _read_samples(path)
        assert str(info.value) == str(exc)
        return
    datasets = _read_samples(path)
    assert [ds.num_samples for ds in datasets] == np.bincount(table[:, 0].astype(int)).tolist()
    got = np.concatenate([np.column_stack([ds.features, ds.labels]) for ds in datasets])
    # comparing the bit patterns tells -0.0 from 0.0
    assert got.tobytes() == np.ascontiguousarray(table[:, 1:]).tobytes()


def test_graph_file_of_another_node_count_with_a_malformed_line_is_refused_by_the_line(tmp_path):
    directory = save_scenario(make_scenario(seed=4, sizes=(3, 2)), tmp_path / "scen")
    path = directory / "graph.txt"
    head, *edges = path.read_text().splitlines()
    path.write_text("\n".join(["7", edges[0], "0 1 x", *edges[1:]]) + "\n")
    # the edges are read with the node count, before it is checked
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:3: malformed edge line '0 1 x'$"):
        load_scenario(directory)
    path.write_text("\n".join(["7", *edges]) + "\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: 7 nodes, but .* holds samples of 5$"):
        load_scenario(directory)


def _adversarial_scenario(d):
    """Four nodes whose cells hit the %.17g corner cases: the sign of zero,
    the smallest subnormal, the largest finite magnitudes, inexact decimals
    and integral values; node 0 has a single sample."""
    cells = [
        -0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
        0.1, 1.0 / 3.0, -2.0 / 3.0, 1.0, -7.0, 2.0**53, 1e16, 1e-300, 123456789.0,
    ]
    cells += [0.5] * (-len(cells) % (d + 1))
    table = np.array(cells).reshape(-1, d + 1)
    datasets = [LocalDataset(features=table[:1, :d], labels=table[:1, d])]
    for shift in range(1, 4):
        t = np.roll(table, shift, axis=1)
        datasets.append(LocalDataset(features=t[:, :d], labels=t[:, d]))
    graph = SimilarityGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
    return Scenario(datasets=datasets, graph=graph, clusters=[ClusterSpec((0, 1, 2, 3))], d=d)


def _assert_node_files_match_savetxt(scen, directory, oracle_dir):
    save_scenario(scen, directory)
    oracle_dir.mkdir()
    oracle = oracle_dir / "samples.csv"
    table = np.vstack(
        [
            np.column_stack([np.full(ds.num_samples, i), ds.features, ds.labels])
            for i, ds in enumerate(scen.datasets)
        ]
    )
    np.savetxt(oracle, table, fmt=["%d"] + ["%.17g"] * (scen.d + 1), delimiter=",")
    assert (directory / "samples.csv").read_bytes() == oracle.read_bytes()


@pytest.mark.parametrize(
    "d, block",
    [
        pytest.param(1, None, id="1"),
        pytest.param(2, None, id="2"),
        pytest.param(5, None, id="5"),
        # at d = 2 the table has 16 rows: one block plus 1, one block, and
        # one block minus 1; at d = 1, 25 rows in 5 blocks of 5
        pytest.param(2, 15, id="2-blocks-of-15"),
        pytest.param(2, 16, id="2-blocks-of-16"),
        pytest.param(2, 17, id="2-blocks-of-17"),
        pytest.param(1, 5, id="1-blocks-of-5"),
    ],
)
def test_node_files_equal_savetxt_bytes_on_corner_values(tmp_path, monkeypatch, d, block):
    if block is not None:
        monkeypatch.setattr(gtvmin.graph, "_TABLE_ROWS", block)
    scen = _adversarial_scenario(d)
    _assert_node_files_match_savetxt(scen, tmp_path / "scen", tmp_path / "oracle")
    lines = (tmp_path / "scen" / "samples.csv").read_text().splitlines()
    tokens = ",".join(line for line in lines if line.startswith("1,")).split(",")
    for token in ["-0", "4.9406564584124654e-324", "-1.7976931348623157e+308", "9007199254740992"]:
        assert token in tokens


@pytest.mark.parametrize(
    "seed, block",
    [
        pytest.param(1, None, id="1"),
        pytest.param(2, None, id="2"),
        pytest.param(3, None, id="3"),
        # 42 rows in 5 blocks of 8 and one of 2
        pytest.param(1, 8, id="1-blocks-of-8"),
    ],
)
def test_node_files_equal_savetxt_bytes_on_generated_scenarios(tmp_path, monkeypatch, seed, block):
    if block is not None:
        monkeypatch.setattr(gtvmin.graph, "_TABLE_ROWS", block)
    scen = make_scenario(seed=seed, noise=0.3, sizes=(4, 3), d=3, m=6)
    _assert_node_files_match_savetxt(scen, tmp_path / "scen", tmp_path / "oracle")


@pytest.mark.parametrize("d", [1, 2, 5])
def test_loaded_arrays_equal_loadtxt_bit_for_bit(tmp_path, d):
    directory = save_scenario(_adversarial_scenario(d), tmp_path / "scen")
    loaded = load_scenario(directory)
    table = np.loadtxt(directory / "samples.csv", delimiter=",", ndmin=2)
    for i, ds in enumerate(loaded.datasets):
        oracle = table[table[:, 0] == i, 1:]
        got = np.column_stack([ds.features, ds.labels])
        # comparing the bit patterns tells -0.0 from 0.0
        np.testing.assert_array_equal(got.view(np.int64), oracle.view(np.int64))


def test_scenario_io_writes_without_savetxt_and_reads_from_handles(tmp_path, monkeypatch):
    np_module = gtvmin.data.np
    load = np_module.loadtxt
    sources = []

    def no_savetxt(*args, **kwargs):
        raise AssertionError("np.savetxt called")

    def spy_loadtxt(source, *args, **kwargs):
        sources.append(source)
        return load(source, *args, **kwargs)

    monkeypatch.setattr(np_module, "savetxt", no_savetxt)
    monkeypatch.setattr(np_module, "loadtxt", spy_loadtxt)
    scen = make_scenario(seed=4, sizes=(3, 2), d=2, m=5)
    load_scenario(save_scenario(scen, tmp_path / "scen"))
    # one parse of samples.csv and one of graph.txt's edge lines, each from
    # a binary handle of the bytes read
    assert len(sources) == 2
    for source in sources:
        assert isinstance(source, io.BufferedIOBase)


def test_load_scenario_decodes_each_file_once(tmp_path, monkeypatch):
    read_bytes, decode = Path.read_bytes, gtvmin.graph._decode
    read, decoded = [], []

    def counting_read_bytes(path):
        read.append(path.name)
        return read_bytes(path)

    def counting_decode(data, path):
        decoded.append(path.name)
        return decode(data, path)

    monkeypatch.setattr(Path, "read_bytes", counting_read_bytes)
    monkeypatch.setattr(Path, "read_text", None)
    # data.py binds the graph module's function under the same name
    monkeypatch.setattr(gtvmin.graph, "_decode", counting_decode)
    monkeypatch.setattr(gtvmin.data, "_decode", counting_decode)
    directory = save_scenario(make_scenario(seed=4, sizes=(3, 2)), tmp_path / "scen")
    load_scenario(directory)
    assert sorted(read) == ["graph.txt", "meta.json", "samples.csv"]
    # both tables are plain, so neither is decoded for the line scan
    assert decoded == ["meta.json"]


_LOAD_WITHIN_3X = """
import resource, sys
from pathlib import Path
from gtvmin import load_scenario
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
scenario = load_scenario(sys.argv[1])
rise = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024 - before
size = (Path(sys.argv[1]) / "samples.csv").stat().st_size / 2**20
print(f"{scenario.n} nodes, samples.csv {size:.1f} MiB, ru_maxrss rise {rise:.1f} MiB")
sys.exit(rise > 3 * size)
"""


def test_load_scenario_peak_within_three_times_the_samples_file(tmp_path):
    scen = generate_scenario(1, [2500] * 4, 5, 10, 0.1, 2.0, GraphParams(p_in=16 / 2500, p_out=16 / 2500 / 50))
    directory = save_scenario(scen, tmp_path / "scen")
    del scen
    # a child's ru_maxrss starts at its parent's peak, and so at this test
    # process's: the load runs in a grandchild, whose parent is a new
    # interpreter of a few MiB
    spawn = "import subprocess, sys; sys.exit(subprocess.run(sys.argv[1:]).returncode)"
    argv = [sys.executable, "-c", spawn, sys.executable, "-c", _LOAD_WITHIN_3X, str(directory)]
    done = subprocess.run(argv, capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, ""), done.stdout
    assert re.fullmatch(r"10000 nodes, samples.csv \S+ MiB, ru_maxrss rise \S+ MiB\n", done.stdout)


_SAVE_WITHIN_2X = """
import os, resource, sys
from gtvmin import GraphParams, generate_scenario, save_scenario
scenario = generate_scenario(1, [2500] * 4, 5, 10, 0.1, 2.0, GraphParams(p_in=16 / 2500, p_out=16 / 2500 / 50))
# the rise counts from the resident size the save starts at, so a higher
# peak of the generation before it cannot hide the save's
with open("/proc/self/statm") as statm:
    before = int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20
directory = save_scenario(scenario, sys.argv[1])
rise = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024 - before
size = (directory / "samples.csv").stat().st_size / 2**20
print(f"{scenario.n} nodes, samples.csv {size:.1f} MiB, ru_maxrss rise {rise:.1f} MiB")
sys.exit(rise > 2 * size)
"""


def test_save_scenario_peak_within_twice_the_samples_file(tmp_path):
    # run in a grandchild for the reason given in the load test above
    spawn = "import subprocess, sys; sys.exit(subprocess.run(sys.argv[1:]).returncode)"
    argv = [sys.executable, "-c", spawn, sys.executable, "-c", _SAVE_WITHIN_2X, str(tmp_path / "scen")]
    done = subprocess.run(argv, capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, ""), done.stdout
    assert re.fullmatch(r"10000 nodes, samples.csv \S+ MiB, ru_maxrss rise \S+ MiB\n", done.stdout)


def _single_draw_planted_clusters(rng_seed, cluster_sizes, p_in, p_out, w_in, w_out):
    """The planted model with every pair of np.triu_indices(n, 1) drawn by
    one uniform draw, as an oracle for the generator's blocked draws."""
    n = sum(cluster_sizes)
    labels = np.repeat(np.arange(len(cluster_sizes)), cluster_sizes)
    ii, jj = np.triu_indices(n, k=1)
    u = np.random.default_rng(rng_seed).random(ii.size)
    same = labels[ii] == labels[jj]
    keep = u < np.where(same, p_in, p_out)
    weight = np.where(same, w_in, w_out)
    graph = SimilarityGraph(n, np.column_stack([ii[keep], jj[keep], weight[keep]]))
    starts = np.cumsum([0, *cluster_sizes])
    return graph, [ClusterSpec(tuple(range(a, b))) for a, b in zip(starts, starts[1:])]


@pytest.mark.parametrize("seed", [1, 2, 3, 11])
@pytest.mark.parametrize(
    "p_in, p_out",
    [(0.5, 0.01), (0.5, 0.05), (0.5, 0.1), (0.0, 0.0), (1.0, 0.0)],
    ids=["0.01", "0.05", "0.1", "0.0-0.0", "1.0-0.0"],
)
def test_scenario_files_equal_those_of_the_single_draw_graph(tmp_path, monkeypatch, seed, p_in, p_out):
    # the benchmark's sweep scenarios: 3 x 60 nodes, d = 3, m = 10, p_in 0.5;
    # and probabilities of 0 and 1 only, whose graph takes no draw
    def scenario():
        return make_scenario(
            seed=seed,
            sizes=(60, 60, 60),
            d=3,
            m=10,
            graph_params=GraphParams(p_in=p_in, p_out=p_out),
        )

    blocked = save_scenario(scenario(), tmp_path / "blocked")
    monkeypatch.setattr(gtvmin.data, "generate_planted_clusters", _single_draw_planted_clusters)
    oracle = save_scenario(scenario(), tmp_path / "oracle")
    names = sorted(p.name for p in oracle.iterdir())
    assert names == sorted(p.name for p in blocked.iterdir())
    match, mismatch, errors = filecmp.cmpfiles(blocked, oracle, names, shallow=False)
    assert mismatch == [] and errors == []


def _per_node_draw_samples(rng_seed, cluster_sizes, d, m, noise_std, separation):
    """(features, labels) per node and epsilon per cluster drawn as two RNG
    calls per node, standard_normal((m, d)) then normal(0, noise_std, m),
    as an oracle for the generator's one draw per cluster."""
    rng = np.random.default_rng(rng_seed)
    rng.integers(0, 2**63 - 1)  # the graph's seed
    centers = gtvmin.data._draw_separated_centers(rng, len(cluster_sizes), d, separation)
    samples, epsilons = [], []
    for size, center in zip(cluster_sizes, centers):
        epsilon = 0.0
        for _ in range(size):
            x = rng.standard_normal((m, d))
            noise = rng.normal(0.0, noise_std, m)
            samples.append((x, x @ center + noise))
            epsilon += float(noise @ noise) / m
        epsilons.append(epsilon)
    return samples, epsilons


@pytest.mark.parametrize("noise", [0.0, 0.3])
@pytest.mark.parametrize("m", [1, 10])
@pytest.mark.parametrize("d", [1, 3, 8])
def test_scenario_samples_have_the_bits_of_per_node_draws(d, m, noise):
    # unequal sizes, single-node clusters among them; d = 1 separates two
    # centers at most
    for seed, sizes in enumerate([(1,), (5, 1), (1, 4)] + ([(2, 1, 6)] if d > 1 else [])):
        scen = make_scenario(seed=seed, sizes=sizes, d=d, m=m, noise=noise)
        assert_per_node_draw_bits(scen, seed, sizes, d, m, noise)


def assert_per_node_draw_bits(scen, seed, sizes, d, m, noise):
    samples, epsilons = _per_node_draw_samples(seed, sizes, d, m, noise, 2.0)
    assert len(scen.datasets) == len(samples)
    for ds, (x, y) in zip(scen.datasets, samples):
        # int64 views tell -0.0 from 0.0
        np.testing.assert_array_equal(ds.features.view(np.int64), x.view(np.int64))
        np.testing.assert_array_equal(ds.labels.view(np.int64), y.view(np.int64))
    got = np.array([c.epsilon for c in scen.clusters])
    np.testing.assert_array_equal(got.view(np.int64), np.array(epsilons).view(np.int64))


@pytest.mark.parametrize("sizes, d", [((150,) * 4, 5), ((400,) * 4, 3)], ids=["4x150", "4x400"])
@pytest.mark.parametrize("seed", [1, 2])
def test_benchmark_scenario_samples_have_the_bits_of_per_node_draws(seed, sizes, d):
    # the certify_dense and iterate_sparse shapes, whose clusters' labels
    # and energies each come from one batched matmul
    scen = make_scenario(seed=seed, sizes=sizes, d=d, m=10, graph_params=GraphParams(0.0, 0.0))
    assert_per_node_draw_bits(scen, seed, sizes, d, 10, 0.1)


@pytest.mark.parametrize(
    "seed, noise, message",
    [
        # node 3 overflows its label energy, nodes 4 to 6 the noise energy
        (32, 1e154, "separation 1e+153 with noise_std 1e+154 overflows the label energy of node 3"),
        # node 4 overflows the noise energy, node 6 also its label energy
        (179, 1e154, "noise_std 1e+154 overflows the noise energy at node 4"),
    ],
)
def test_overflow_is_refused_at_the_first_node_at_fault(seed, noise, message):
    # a node's noise energy is checked before its label energy, and the
    # nodes in order; both cases fail in the second cluster, nodes 3 to 6
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        generate_scenario(seed, [3, 4], d=2, m_per_node=1, noise_std=noise, separation=1e153)
