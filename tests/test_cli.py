import dataclasses
import filecmp
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gtvmin import load_result, load_scenario
from gtvmin.analysis import CSV_COLUMNS
from gtvmin.cli import ExperimentConfig, main


def write_config(path, **overrides):
    cfg = {
        "seed": 11,
        "cluster_sizes": [3, 3],
        "d": 2,
        "m_per_node": 8,
        "noise_std": 0.1,
        "separation": 2.0,
        "p_in": 1.0,
        "p_out": 0.2,
        "alpha_list": [0.1, 1.0],
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return path


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    assert header == CSV_COLUMNS
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def dirs_equal(a, b):
    names = sorted(p.name for p in a.iterdir() if p.is_file())
    if names != sorted(p.name for p in b.iterdir() if p.is_file()):
        return False
    match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    return not mismatch and not errors


# ------------------------------------------------------------------ generate

def test_generate_is_deterministic(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
    assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
    assert dirs_equal(tmp_path / "a", tmp_path / "b")


def test_generate_noiseless_meta_has_zero_epsilon(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", noise_std=0.0)
    assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "scen")]) == 0
    meta = json.loads((tmp_path / "scen" / "meta.json").read_text())
    assert all(entry["epsilon"] == 0.0 for entry in meta["clusters"])


def test_generate_states_each_fact_once(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "scen")]) == 0
    # samples.csv gives n and d; meta.json holds neither
    meta = json.loads((tmp_path / "scen" / "meta.json").read_text())
    assert sorted(meta) == ["clusters", "generator", "seed"]


def test_hand_written_scenario_with_only_seed_and_clusters_solves_and_analyzes(tmp_path, capsys):
    scen_dir = tmp_path / "scen"
    scen_dir.mkdir()
    (scen_dir / "graph.txt").write_text("4\n0 1 1.0\n2 3 1.0\n1 2 0.1\n")
    # nodes 0 and 1 fit y = x / 2, nodes 2 and 3 fit y = -x, each exactly
    rows = [(i, x, x / 2 if i < 2 else -x) for i in range(4) for x in (-1.0, 0.5, 2.0)]
    (scen_dir / "samples.csv").write_text("".join(f"{i},{x!r},{y!r}\n" for i, x, y in rows))
    clusters = [{"members": [0, 1], "reference_params": [0.5], "epsilon": 0.0},
                {"members": [2, 3], "reference_params": [-1.0], "epsilon": 0.0}]
    (scen_dir / "meta.json").write_text(json.dumps({"seed": None, "clusters": clusters}))
    res, out = tmp_path / "res.json", tmp_path / "reports"
    assert main(["solve", str(scen_dir), "--alpha", "1", "--out", str(res)]) == 0
    assert main(["analyze", str(scen_dir), str(res), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    rows = read_csv(out / "reports.csv")
    assert [(row["n"], row["d"]) for row in rows] == [("4", "1"), ("4", "1")]


def test_generate_two_disjoint_triangles_edge_count(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", p_in=1.0, p_out=0.0)
    assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "scen")]) == 0
    lines = (tmp_path / "scen" / "graph.txt").read_text().splitlines()
    assert lines[0] == "6"
    assert len(lines) - 1 == 6


# --------------------------------------------------------------------- solve

def test_solve_alpha_zero_gives_per_node_ols(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    scen_dir = tmp_path / "scen"
    main(["generate", "--config", str(cfg), "--out", str(scen_dir)])
    out = tmp_path / "res.json"
    assert main(["solve", str(scen_dir), "--alpha", "0", "--out", str(out)]) == 0
    scenario = load_scenario(scen_dir)
    result = load_result(out)
    for i, ds in enumerate(scenario.datasets):
        ols = np.linalg.lstsq(ds.features, ds.labels, rcond=None)[0]
        np.testing.assert_allclose(result.params.per_node[i], ols, atol=1e-9)


def test_solve_exact_vs_iterative_agree(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    scen_dir = tmp_path / "scen"
    main(["generate", "--config", str(cfg), "--out", str(scen_dir)])
    exact_path = tmp_path / "exact.json"
    iter_path = tmp_path / "iter.json"
    assert main(["solve", str(scen_dir), "--alpha", "1.0", "--out", str(exact_path)]) == 0
    assert (
        main(
            [
                "solve",
                str(scen_dir),
                "--alpha",
                "1.0",
                "--solver",
                "iterative",
                "--max-iter",
                "100000",
                "--tol",
                "1e-12",
                "--out",
                str(iter_path),
            ]
        )
        == 0
    )
    exact = load_result(exact_path)
    iterative = load_result(iter_path)
    assert np.max(np.abs(exact.params.per_node - iterative.params.per_node)) <= 1e-5


def test_solve_missing_scenario_exits_3_and_names_file(tmp_path, capsys):
    missing = tmp_path / "nope"
    assert main(["solve", str(missing), "--alpha", "1.0"]) == 3
    err = capsys.readouterr().err
    assert "meta.json" in err and str(missing) in err


def test_solve_singular_system_exits_2_naming_the_component(tmp_path, capsys):
    # one sample per node for d = 3 parameters, no coupling at alpha = 0
    cfg = write_config(tmp_path / "cfg.json", d=3, m_per_node=1)
    scen_dir = tmp_path / "scen"
    assert main(["generate", "--config", str(cfg), "--out", str(scen_dir)]) == 0
    capsys.readouterr()
    assert main(["solve", str(scen_dir), "--alpha", "0"]) == 2
    err = capsys.readouterr().err
    assert "1 node(s) starting at node 0" in err and "singular pooled Gram" in err
    assert "Traceback" not in err
    # the CLI has no ridge flag: coupling the nodes is its remedy, the ridge
    # the library's
    assert "alpha > 0" in err and "solve_exact(..., ridge=...)" in err


@pytest.mark.parametrize("tol", ["inf", "nan"])
def test_solve_non_finite_tol_exits_1_naming_tol(tmp_path, capsys, tol):
    cfg = write_config(tmp_path / "cfg.json")
    scen_dir = tmp_path / "scen"
    assert main(["generate", "--config", str(cfg), "--out", str(scen_dir)]) == 0
    capsys.readouterr()
    argv = ["solve", str(scen_dir), "--alpha", "1", "--solver", "iterative", "--tol", tol]
    assert main(argv) == 1
    assert "tol must be finite" in capsys.readouterr().err
    assert not (scen_dir / "result.json").exists()


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--tol", "nan", "--tol must be finite and >= 0"),
        ("--tol", "inf", "--tol must be finite and >= 0"),
        ("--max-iter", "-5", "--max-iter must be >= 1"),
        ("--max-iter", "0", "--max-iter must be >= 1"),
        ("--alpha", "nan", "error: --alpha must be finite and >= 0, got nan"),
        ("--alpha", "-1", "error: --alpha must be finite and >= 0, got -1.0"),
    ],
)
def test_solve_exact_checks_the_iterative_flags(tmp_path, capsys, flag, value, message):
    cfg = write_config(tmp_path / "cfg.json")
    scen_dir = tmp_path / "scen"
    assert main(["generate", "--config", str(cfg), "--out", str(scen_dir)]) == 0
    capsys.readouterr()
    assert main(["solve", str(scen_dir), "--alpha", "1", flag, value]) == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (scen_dir / "result.json").exists()


def test_solve_residual_gate_exits_2_naming_the_residual(tmp_path, capsys, monkeypatch):
    import gtvmin.solver

    cfg = write_config(tmp_path / "cfg.json")
    scen_dir = tmp_path / "scen"
    assert main(["generate", "--config", str(cfg), "--out", str(scen_dir)]) == 0
    capsys.readouterr()
    # conjugate gradients that never move leave the full residual ||q||
    monkeypatch.setattr(gtvmin.solver, "_pcg", lambda apply, rhs, *_: (np.zeros_like(rhs), 0))
    assert main(["solve", str(scen_dir), "--alpha", "1"]) == 2
    err = capsys.readouterr().err
    assert "numerically singular: residual" in err and "Traceback" not in err


def test_large_alpha_refusal_names_the_residual_and_the_roundoff_floor(tmp_path, capsys):
    # a connected 20-node graph whose pooled Gram is well conditioned: the
    # gate refuses at alpha = 1e8 because the attainable residual grows
    # with ||M||, and the message says so
    cfg = write_config(
        tmp_path / "cfg.json",
        seed=6,
        cluster_sizes=[10, 10],
        d=3,
        m_per_node=10,
        p_in=0.9,
        p_out=0.4,
    )
    scen_dir = tmp_path / "scen"
    assert main(["generate", "--config", str(cfg), "--out", str(scen_dir)]) == 0
    capsys.readouterr()
    assert main(["solve", str(scen_dir), "--alpha", "1e8"]) == 2
    err = capsys.readouterr().err
    assert "numerically singular: residual" in err and "Traceback" not in err
    assert "roundoff floor eps * ||M|| * ||w|| is about" in err and "(Gershgorin)" in err
    assert not (scen_dir / "result.json").exists()


def _edit_line(path, lineno, edit):
    """Replace line ``lineno`` (from 1) of ``path`` by ``edit`` of its cells."""
    rows = path.read_text().splitlines()
    rows[lineno - 1] = ",".join(edit(rows[lineno - 1].split(",")))
    # a lone surrogate "\udcxx" is written as the byte 0xxx
    path.write_text("\n".join(rows) + "\n", errors="surrogateescape")


def _set_cell(path, lineno, col, value):
    _edit_line(path, lineno, lambda cells: cells[:col] + [value] + cells[col + 1:])


def _keep_columns(path, k):
    path.write_text("".join(",".join(row.split(",")[:k]) + "\n" for row in path.read_text().splitlines()))


# the default config's samples.csv: 6 nodes of 8 rows, node i on lines 8i + 1 .. 8i + 8
@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda p: _set_cell(p, 33, 1, "a"), ":33: could not convert string 'a' to float"),
        (lambda p: _set_cell(p, 33, 1, "nan"), ":33: dataset entries must be finite"),
        (lambda p: _edit_line(p, 33, lambda cells: cells[:3]), ":33: 3 columns, expected 4"),
        # the first row gives the width: a node, d >= 1 features and a label
        (lambda p: _keep_columns(p, 2), ":1: 2 columns, expected at least 3"),
        (lambda p: _keep_columns(p, 1), ":1: 1 columns, expected at least 3"),
        (
            lambda p: _edit_line(p, 33, lambda cells: ["\udcff" + cells[0]] + cells[1:]),
            ":33: 'ascii' codec can't decode byte 0xff in position 1999: ordinal not in range(128)",
        ),
    ],
    ids=["non-numeric", "nan", "columns", "two-columns", "one-column", "non-ascii"],
)
def test_bad_node_file_exits_1_naming_the_file(tmp_path, capsys, corrupt, message):
    cfg = write_config(tmp_path / "cfg.json")
    scen_dir = tmp_path / "scen"
    assert main(["generate", "--config", str(cfg), "--out", str(scen_dir)]) == 0
    corrupt(scen_dir / "samples.csv")
    capsys.readouterr()
    assert main(["solve", str(scen_dir), "--alpha", "1"]) == 1
    assert capsys.readouterr().err == f"error: {scen_dir / 'samples.csv'}{message}\n"


def test_missing_node_file_exits_3_naming_the_file(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")
    scen_dir = tmp_path / "scen"
    assert main(["generate", "--config", str(cfg), "--out", str(scen_dir)]) == 0
    (scen_dir / "samples.csv").unlink()
    capsys.readouterr()
    assert main(["solve", str(scen_dir), "--alpha", "1"]) == 3
    err = capsys.readouterr().err
    assert err == f"i/o error: [Errno 2] No such file or directory: '{scen_dir / 'samples.csv'}'\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "graph.txt: empty graph file"),
        ("6\n0 1 x\n", "graph.txt:2: malformed edge line"),
        # blank lines count: the bad edge is on the file's fifth line
        ("6\n0 1 1.0\n\n\n0 2 x\n", "graph.txt:5: malformed edge line"),
    ],
    ids=["empty", "malformed-edge", "blank-lines"],
)
def test_bad_graph_file_exits_1_naming_the_line(tmp_path, capsys, text, message):
    cfg = write_config(tmp_path / "cfg.json")
    scen_dir = tmp_path / "scen"
    assert main(["generate", "--config", str(cfg), "--out", str(scen_dir)]) == 0
    (scen_dir / "graph.txt").write_text(text)
    capsys.readouterr()
    assert main(["solve", str(scen_dir), "--alpha", "1"]) == 1
    assert message in capsys.readouterr().err


# ------------------------------------------------------------------- analyze

def solved_dir(tmp_path, **config_overrides):
    cfg = write_config(tmp_path / "cfg.json", **config_overrides)
    scen_dir = tmp_path / "scen"
    main(["generate", "--config", str(cfg), "--out", str(scen_dir)])
    res = tmp_path / "res.json"
    main(["solve", str(scen_dir), "--alpha", "1.0", "--out", str(res)])
    return scen_dir, res


def test_analyze_all_writes_one_row_per_cluster(tmp_path):
    scen_dir, res = solved_dir(tmp_path)
    out = tmp_path / "reports"
    assert main(["analyze", str(scen_dir), str(res), "--out", str(out)]) == 0
    rows = read_csv(out / "reports.csv")
    assert len(rows) == 2
    assert all(row["satisfied"] == "true" for row in rows)
    assert (out / "report_cluster_0.json").exists()
    assert (out / "report_cluster_1.json").exists()


def test_every_json_output_is_indented_key_sorted_ascii(tmp_path):
    scen_dir, res = solved_dir(tmp_path)
    assert main(["analyze", str(scen_dir), str(res), "--out", str(tmp_path / "reports")]) == 0
    for path in [scen_dir / "meta.json", res, tmp_path / "reports" / "report_cluster_0.json"]:
        text = path.read_bytes().decode("ascii")
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


def test_analyze_single_cluster_selection(tmp_path):
    scen_dir, res = solved_dir(tmp_path)
    out = tmp_path / "one"
    assert main(["analyze", str(scen_dir), str(res), "--cluster", "1", "--out", str(out)]) == 0
    assert len(read_csv(out / "reports.csv")) == 1
    assert main(["analyze", str(scen_dir), str(res), "--cluster", "7", "--out", str(out)]) == 1


def test_analyze_cluster_that_is_not_an_index_names_the_flag(tmp_path, capsys):
    scen_dir, res = solved_dir(tmp_path)
    capsys.readouterr()
    assert main(["analyze", str(scen_dir), str(res), "--cluster", "abc"]) == 1
    err = capsys.readouterr().err
    assert err == "error: --cluster must be a cluster index or 'all', got 'abc'\n"


def test_analyze_degenerate_cluster_is_flagged_not_fatal(tmp_path):
    scen_dir, res = solved_dir(tmp_path, p_in=0.0, p_out=0.0, cluster_sizes=[2, 2])
    out = tmp_path / "reports"
    assert main(["analyze", str(scen_dir), str(res), "--out", str(out)]) == 0
    rows = read_csv(out / "reports.csv")
    assert all(row["degenerate"] == "true" for row in rows)
    assert all(row["rhs"] == "inf" for row in rows)


def test_analyze_mismatched_result_is_validation_error(tmp_path, capsys):
    scen_dir, res = solved_dir(tmp_path)
    other_cfg = write_config(tmp_path / "other.json", d=3, seed=99)
    other_dir = tmp_path / "other_scen"
    main(["generate", "--config", str(other_cfg), "--out", str(other_dir)])
    assert main(["analyze", str(other_dir), str(res)]) == 1
    assert "does not match" in capsys.readouterr().err


# --------------------------------------------------------------------- sweep

def test_sweep_lhs_non_increasing_for_single_noiseless_cluster(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json",
        cluster_sizes=[6],
        noise_std=0.0,
        p_in=1.0,
        p_out=0.0,
        alpha_list=[0.1, 1.0, 10.0, 100.0],
    )
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    rows = read_csv(out / "sweep.csv")
    assert len(rows) == 4
    lhs = [float(r["lhs"]) for r in rows]
    for nxt, cur in zip(lhs[1:], lhs[:-1]):
        assert nxt <= cur + 1e-12


def test_sweep_rhs_recomputes_from_csv_and_meta(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", alpha_list=[0.5, 2.0])
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    meta = json.loads((out / "scenario_00" / "meta.json").read_text())
    w_bar_sq = [
        float(np.asarray(c["reference_params"]) @ np.asarray(c["reference_params"]))
        for c in meta["clusters"]
    ]
    rows = read_csv(out / "sweep.csv")
    assert len(rows) == 4  # two alphas times two clusters
    for k, row in enumerate(rows):
        if row["degenerate"] == "true":
            continue
        alpha = float(row["alpha"])
        lam2 = float(row["lambda2"])
        expected = (
            float(row["epsilon"])
            + 2.0 * alpha * float(row["boundary"]) * (w_bar_sq[k % 2] + float(row["R"]) ** 2)
        ) / (alpha * lam2)
        assert float(row["rhs"]) == pytest.approx(expected, rel=1e-12)


def test_sweep_with_p_out_list(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json", alpha_list=[1.0], p_out_list=[0.0, 0.2], p_in=0.9
    )
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "scenario_00").is_dir() and (out / "scenario_01").is_dir()
    assert len(read_csv(out / "sweep.csv")) == 4


def test_sweep_empty_alpha_list_fails_validation_before_work(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", alpha_list=[])
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
    assert "alpha_list" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("solver", ["exact", "iterative"])
def test_sweep_reproducible_bytes(tmp_path, solver):
    cfg = write_config(tmp_path / "cfg.json")
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    for out in (out1, out2):
        assert main(["sweep", "--config", str(cfg), "--out", str(out), "--solver", solver]) == 0
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda p: p.write_text('{"n": 6,'),
        lambda p: p.write_bytes(b"\xff" + p.read_bytes()),
        lambda p: p.write_text("[" * 100000),
        lambda p: p.write_text("1" * 5000),
    ],
    ids=["syntax", "non-ascii", "nesting", "digits"],
)
@pytest.mark.parametrize("name", ["meta.json", "graph.txt", "res.json", "cfg.json"])
def test_file_that_does_not_decode_or_parse_exits_1_naming_it(tmp_path, capsys, name, corrupt):
    scen_dir, res = solved_dir(tmp_path)
    path = {"meta.json": scen_dir / "meta.json", "graph.txt": scen_dir / "graph.txt"}.get(name, tmp_path / name)
    corrupt(path)
    capsys.readouterr()
    if name == "cfg.json":
        argv = ["generate", "--config", str(path), "--out", str(tmp_path / "again")]
    else:
        argv = ["analyze", str(scen_dir), str(res), "--out", str(tmp_path / "reports")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    # every file, like samples.csv, names the line of a byte that does not decode
    where = f"{path}:1" if path.read_bytes()[:1] == b"\xff" else path
    assert err.startswith(f"error: {where}: ") and "Traceback" not in err


@pytest.mark.parametrize("entry", [5, [1, 2], "cluster", None])
def test_cluster_entry_that_is_not_an_object_says_so(tmp_path, capsys, entry):
    scen_dir, _ = solved_dir(tmp_path)
    meta = json.loads((scen_dir / "meta.json").read_text())
    meta["clusters"][1] = entry
    (scen_dir / "meta.json").write_text(json.dumps(meta))
    capsys.readouterr()
    assert main(["solve", str(scen_dir), "--alpha", "1"]) == 1
    err = capsys.readouterr().err
    assert f"{scen_dir / 'meta.json'}: clusters[1]: must be a JSON object, got {entry!r}" in err


@pytest.mark.parametrize(
    "mutate, message",
    [
        (
            lambda meta: meta["clusters"][1].update(members=[5, 6, 7, 8, 99]),
            "clusters[1]: cluster members (5, 6, 7, 8, 99) exceed node count 10",
        ),
        (
            lambda meta: meta["clusters"][1].update(members=[5, 6, 7, 8]),
            "every node must belong to at least one cluster",
        ),
        (
            lambda meta: meta["clusters"][0].update(members=[0, 1, 2, 3, 4, 4]),
            "clusters[0]: cluster members must be distinct",
        ),
        (
            lambda meta: meta["clusters"][0].update(reference_params=[1.0]),
            "clusters[0]: reference_params has length 1, not d = 2",
        ),
        (lambda meta: meta.update(seed="abc"), "key 'seed' must be a non-negative integer, got 'abc'"),
        (lambda meta: meta.update(seed=1.5), "key 'seed' must be a non-negative integer, got 1.5"),
        (lambda meta: meta.update(seed=-1), "key 'seed' must be a non-negative integer, got -1"),
    ],
    ids=[
        "member-out-of-range", "node-uncovered", "duplicate-members", "reference-length",
        "seed-str", "seed-float", "seed-negative",
    ],
)
def test_scenario_refusal_from_meta_names_meta_json(tmp_path, capsys, mutate, message):
    cfg = write_config(tmp_path / "cfg.json", cluster_sizes=[5, 5])
    scen_dir = tmp_path / "scen"
    assert main(["generate", "--config", str(cfg), "--out", str(scen_dir)]) == 0
    meta_path = scen_dir / "meta.json"
    meta = json.loads(meta_path.read_text())
    mutate(meta)
    meta_path.write_text(json.dumps(meta))
    capsys.readouterr()
    res = tmp_path / "res.json"
    assert main(["solve", str(scen_dir), "--alpha", "1", "--out", str(res)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {meta_path}: ") and message in err
    assert not res.exists()


@pytest.mark.parametrize(
    "text",
    ["", "\n\n", "# nothing\n", "# a\n\n# b\n"],
    ids=["empty", "blank-lines", "comment", "comments-and-blank"],
)
def test_node_file_without_samples_says_so_without_a_warning(tmp_path, capsys, text):
    import warnings

    scen_dir, _ = solved_dir(tmp_path)
    (scen_dir / "samples.csv").write_text(text)
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["solve", str(scen_dir), "--alpha", "1"]) == 1
    assert caught == []
    assert capsys.readouterr().err == f"error: {scen_dir / 'samples.csv'}: no samples\n"


def _drop_lines(path, first, last):
    rows = path.read_text().splitlines()
    path.write_text("".join(row + "\n" for k, row in enumerate(rows, 1) if not first <= k <= last))


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda p: _set_cell(p, 33, 0, "4.5"), "{samples}:33: node 4.5 is not a non-negative integer"),
        # samples.csv gives the node count, which graph.txt's header must repeat
        (lambda p: _set_cell(p, 48, 0, "6"), "{graph}: 6 nodes, but {samples} holds samples of 7"),
        (lambda p: _set_cell(p, 1, 0, "-1"), "{samples}:1: node -1 is not a non-negative integer"),
        (lambda p: _set_cell(p, 41, 0, "3"), "{samples}:41: node 3 after node 4"),
        (lambda p: _drop_lines(p, 17, 24), "{samples}: node 2 has no samples"),
        (lambda p: _drop_lines(p, 41, 48), "{graph}: 6 nodes, but {samples} holds samples of 5"),
        (lambda p: _drop_lines(p, 1, 8), "{samples}: node 0 has no samples"),
        # blank lines and comments count: the bad cell is on the file's 36th line
        (
            lambda p: _set_cell(p, 33, 1, "x") or p.write_text("# samples\n\n\n" + p.read_text()),
            "{samples}:36: could not convert string 'x' to float",
        ),
    ],
    ids=[
        "fractional-node", "node-beyond-n", "negative-node", "out-of-order", "gap",
        "last-node-missing", "first-node-missing", "blank-lines",
    ],
)
def test_samples_file_nodes_are_refused_by_line(tmp_path, capsys, corrupt, message):
    scen_dir, _ = solved_dir(tmp_path)
    corrupt(scen_dir / "samples.csv")
    capsys.readouterr()
    code, caught = _quiet_main(["solve", str(scen_dir), "--alpha", "1"])
    assert (code, caught) == (1, [])
    expected = message.format(samples=scen_dir / "samples.csv", graph=scen_dir / "graph.txt")
    assert capsys.readouterr().err == f"error: {expected}\n"


def test_samples_file_in_windows_line_ends_loads_the_same_arrays(tmp_path):
    scen_dir, _ = solved_dir(tmp_path)
    expected = load_scenario(scen_dir)
    path = scen_dir / "samples.csv"
    path.write_bytes(b"# crlf\r\n" + path.read_bytes().replace(b"\n", b"\r\n"))
    for got, want in zip(load_scenario(scen_dir).datasets, expected.datasets):
        assert got.features.tobytes() == want.features.tobytes()
        assert got.labels.tobytes() == want.labels.tobytes()


def test_meta_n_that_the_graph_header_repeats_is_refused_by_the_samples_before_the_graph_is_built(
    tmp_path, capsys, monkeypatch
):
    import gtvmin.data

    scen_dir, _ = solved_dir(tmp_path)
    graph_path = scen_dir / "graph.txt"
    graph_path.write_text("100000000000" + graph_path.read_text()[1:])
    meta_path = scen_dir / "meta.json"
    meta_path.write_text(json.dumps({**json.loads(meta_path.read_text()), "n": 10**11}))

    def no_graph(self, n, edges=()):
        raise AssertionError("graph built")

    monkeypatch.setattr(gtvmin.data.SimilarityGraph, "__init__", no_graph)
    capsys.readouterr()
    code, caught = _quiet_main(["solve", str(scen_dir), "--alpha", "1"])
    assert (code, caught) == (1, [])
    # meta.json's n, which older versions wrote, is ignored: the header must
    # repeat samples.csv's node count
    assert capsys.readouterr().err == (
        f"error: {graph_path}: 100000000000 nodes, but {scen_dir / 'samples.csv'} holds samples of 6\n"
    )


def test_solve_of_valid_files_whose_system_is_singular_names_the_scenario_and_a_floor(tmp_path, capsys):
    scen_dir, _ = solved_dir(tmp_path)
    graph_path = scen_dir / "graph.txt"
    lines = graph_path.read_text().splitlines()
    i, j, _ = lines[1].split()
    lines[1] = f"{i} {j} 1e200"
    graph_path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code, caught = _quiet_main(["solve", str(scen_dir), "--alpha", "1"])
    assert (code, caught) == (2, [])
    err = capsys.readouterr().err
    match = re.fullmatch(
        re.escape(f"numerical failure: {scen_dir}: stationarity system is numerically singular: residual ")
        + r"(\S+) exceeds 1e-08 \* \|\|q\|\| = \S+; the roundoff floor eps \* \|\|M\|\| \* \|\|w\|\| is about "
        + r"(\S+), with \|\|M\|\| <= 2\.000e\+200 \(Gershgorin\)\n",
        err,
    )
    assert match, err
    # the floor of the candidate the passes computed, not of the zero start
    residual, floor = map(float, match.groups())
    assert floor > residual > 0.0
    assert not (scen_dir / "result.json").exists()


# the README's example config
README_CONFIG = {
    "seed": 11, "cluster_sizes": [5, 5], "d": 2, "m_per_node": 10, "noise_std": 0.1,
    "separation": 2.0, "p_in": 0.9, "p_out": 0.1, "alpha_list": [0.1, 1.0, 10.0],
}

# the cli_roundtrip benchmark's config: three scenarios of 180 nodes
ROUNDTRIP_CONFIG = {
    "seed": 1, "cluster_sizes": [60, 60, 60], "d": 3, "m_per_node": 10, "noise_std": 0.1,
    "separation": 2.0, "p_in": 0.5, "p_out": 0.05, "p_out_list": [0.01, 0.05, 0.1],
    "alpha_list": [0.5, 1.0, 5.0],
}


def test_iterative_solve_at_an_edge_weight_of_1e200_does_not_report_convergence(tmp_path, capsys):
    # its steps are about 1e-200 wide: the objective stops moving long
    # before the gradient is small
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(README_CONFIG))
    scen_dir = tmp_path / "scen"
    assert main(["generate", "--config", str(cfg), "--out", str(scen_dir)]) == 0
    graph_path = scen_dir / "graph.txt"
    lines = graph_path.read_text().splitlines()
    i, j, _ = lines[1].split()
    lines[1] = f"{i} {j} 1e200"
    graph_path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    argv = ["solve", str(scen_dir), "--alpha", "1", "--solver", "iterative", "--max-iter", "2000"]
    assert _quiet_main(argv) == (0, [])
    assert " iterations=2000 converged=False -> " in capsys.readouterr().out
    # the gradient norm stays near 2.75, against ||q|| of about 4
    result = load_result(scen_dir / "result.json")
    assert (result.iterations, result.converged) == (2000, False) and result.residual > 1.0


def test_sweep_says_how_many_runs_did_not_converge(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(README_CONFIG))
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"6 rows -> {out / 'sweep.csv'}\n"
    argv = ["sweep", "--config", str(cfg), "--out", str(out), "--solver", "iterative"]
    assert main(argv) == 0
    assert capsys.readouterr().out == f"6 rows -> {out / 'sweep.csv'}\n"
    counts = sorted(load_result(out / "scenario_00" / f"result_{ia:02d}.json").iterations for ia in range(3))
    assert counts[0] < counts[1] < counts[2]
    for flags in [["--max-iter", "2"], ["--tol", "0", "--max-iter", "50"]]:
        assert main(argv + flags) == 0
        assert capsys.readouterr().out == f"6 rows -> {out / 'sweep.csv'}; 3 of 3 runs did not converge\n"
    # a run that meets the test in its last allowed round has converged
    assert main(argv + ["--max-iter", str(counts[1])]) == 0
    assert capsys.readouterr().out == f"6 rows -> {out / 'sweep.csv'}; 1 of 3 runs did not converge\n"


def tree_bytes(root):
    """Every file under ``root`` by its relative path, as bytes."""
    return {str(path.relative_to(root)): path.read_bytes() for path in sorted(root.rglob("*")) if path.is_file()}


@pytest.mark.parametrize("solver", ["exact", "iterative"])
@pytest.mark.parametrize(
    "config, rows, files",
    # scenario directories of three files and one result per alpha, plus sweep.csv
    [(README_CONFIG, 6, 3 + 3 + 1), (ROUNDTRIP_CONFIG, 27, 3 * (3 + 3) + 1)],
    ids=["readme", "roundtrip"],
)
def test_sweep_trees_are_identical_across_processes(tmp_path, config, rows, files, solver):
    # the Gram eigensolve and inverses, the dense Laplacian products (dgemm)
    # and the solvers' reductions run through BLAS and LAPACK: no tree may
    # depend on the hash seed or on the BLAS thread count
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    trees = []
    for seed, threads in [(1, 1), (2, 1), (1, 2)]:
        out = tmp_path / f"sweep_{seed}_{threads}"
        env = {**os.environ, "PYTHONHASHSEED": str(seed), "OPENBLAS_NUM_THREADS": str(threads)}
        argv = ["-m", "gtvmin", "sweep", "--config", str(cfg), "--solver", solver, "--out", str(out)]
        done = subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env)
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout == f"{rows} rows -> {out / 'sweep.csv'}\n"
        trees.append(tree_bytes(out))
        assert len(trees[-1]) == files
    assert trees[1] == trees[0] and trees[2] == trees[0]


@pytest.mark.parametrize("solver", ["exact", "iterative"])
def test_analyze_of_each_sweep_result_writes_its_rows_of_sweep_csv(tmp_path, solver):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(README_CONFIG))
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg), "--out", str(out), "--solver", solver]) == 0
    header, *rows = (out / "sweep.csv").read_bytes().splitlines(keepends=True)
    clusters = len(README_CONFIG["cluster_sizes"])
    scen = out / "scenario_00"
    for ia in range(len(README_CONFIG["alpha_list"])):
        reports = tmp_path / f"analyze_{ia}"
        assert main(["analyze", str(scen), str(scen / f"result_{ia:02d}.json"), "--out", str(reports)]) == 0
        assert (reports / "reports.csv").read_bytes() == header + b"".join(rows[ia * clusters : (ia + 1) * clusters])


def test_analyze_refusals_of_overflowing_terms_name_the_file_at_fault(tmp_path, capsys):
    scen_dir, res = solved_dir(tmp_path)
    payload = json.loads(res.read_text())
    res.write_text(json.dumps({**payload, "params": [1e200] * 12}))
    capsys.readouterr()
    code, caught = _quiet_main(["analyze", str(scen_dir), str(res), "--out", str(tmp_path / "out")])
    assert (code, caught) == (1, [])
    err = capsys.readouterr().err
    assert err.startswith(f"error: {res}: the deviation bound of cluster (0, 1, 2) overflows: ")
    assert "R^2 = inf" in err and err.count("\n") == 1

    res.write_text(json.dumps(payload))
    path = scen_dir / "samples.csv"
    path.write_text(_last_cells(path.read_text(), ",", "1e200"))
    code, caught = _quiet_main(["analyze", str(scen_dir), str(res), "--out", str(tmp_path / "out")])
    assert (code, caught) == (1, [])
    assert capsys.readouterr().err == f"error: {path}: the quadratic loss terms overflow at node 0\n"


# ------------------------------------------------------------- selftest, misc

def test_selftest_quick_passes(capsys):
    assert main(["selftest", "--quick"]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 4


def test_selftest_passes_in_a_fresh_interpreter_under_w_error():
    done = subprocess.run(
        [sys.executable, "-W", "error", "-m", "gtvmin", "selftest"], capture_output=True, text=True
    )
    assert (done.returncode, done.stderr) == (0, "")
    lines = done.stdout.splitlines()
    assert len(lines) == 4 and all(line.startswith("[PASS] ") for line in lines)


def test_config_unknown_key_rejected(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 1, "bogus": True}))
    assert main(["generate", "--config", str(path), "--out", str(tmp_path / "x")]) == 1
    assert "bogus" in capsys.readouterr().err


def test_config_unknown_key_names_its_file(tmp_path, capsys):
    path = write_config(tmp_path / "cfg.json", bogus=1)
    with pytest.raises(ValueError) as info:
        ExperimentConfig.from_file(path)
    assert str(info.value) == f"{path}: unknown config keys: ['bogus']"
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err == f"error: {path}: unknown config keys: ['bogus']\n"
    assert not (tmp_path / "x").exists()


def test_out_of_memory_exits_1_with_a_message(tmp_path, capsys, monkeypatch):
    import gtvmin.cli

    # a real allocation of this size would depend on the host's overcommit setting
    message = "Unable to allocate 745. GiB for an array with shape (100000000000, 1)"

    def refuse(**_):
        raise MemoryError(message)

    monkeypatch.setattr(gtvmin.cli, "generate_scenario", refuse)
    # a config that passes the size rule, which refuses [100000000000] first
    cfg = write_config(tmp_path / "cfg.json")
    assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "scen")]) == 1
    assert capsys.readouterr().err == f"error: out of memory: {message}\n"


def test_config_not_a_json_object_rejected(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps([1, 2]))
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "x")]) == 1
    assert "must be a JSON object" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize(
    "flag, value", [("--alpha", "1"), ("--solver", "exact"), ("--max-iter", "10"), ("--tol", "1e-9")]
)
def test_generate_rejects_solver_flags(tmp_path, capsys, flag, value):
    out = tmp_path / "scen"
    assert main(["generate", flag, value, "--out", str(out)]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_builds_each_scenario_losses_once(tmp_path, monkeypatch):
    from gtvmin.solver import QuadraticLoss

    built = []
    original = QuadraticLoss.__init__

    def counting_init(self, dataset):
        built.append(dataset)
        original(self, dataset)

    monkeypatch.setattr(QuadraticLoss, "__init__", counting_init)
    cfg = write_config(tmp_path / "cfg.json", alpha_list=[0.1, 1.0, 10.0], p_out_list=[0.1, 0.2])
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "sweep")]) == 0
    # two scenarios of six nodes, whatever the number of alphas
    assert len(built) == 12


def test_sweep_shares_alpha_independent_work(tmp_path, monkeypatch):
    import gtvmin.analysis
    import gtvmin.solver

    calls = []

    def counting(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    counting(gtvmin.analysis, "lambda2")
    counting(gtvmin.solver, "_stack_samples")
    counting(gtvmin.solver, "_operators")
    counting(gtvmin.solver, "_smoothness")
    cfg = write_config(
        tmp_path / "cfg.json", alpha_list=[0.1, 1.0, 10.0], p_out_list=[0.1, 0.2], solver="iterative"
    )
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "sweep")]) == 0
    # two scenarios of two clusters: one stack, set of product operators and
    # smoothness per scenario and one eigensolve per scenario and cluster,
    # whatever the number of alphas
    assert calls.count("_stack_samples") == calls.count("_operators") == 2
    assert calls.count("_smoothness") == 2
    assert calls.count("lambda2") == 4


def test_exact_sweep_runs_the_singularity_test_once_per_scenario(tmp_path, monkeypatch):
    import gtvmin.solver

    components = gtvmin.solver._components
    calls = []

    def counted(graph):
        calls.append(graph.n)
        return components(graph)

    monkeypatch.setattr(gtvmin.solver, "_components", counted)
    cfg = write_config(
        tmp_path / "cfg.json", alpha_list=[0.1, 1.0, 10.0], p_out_list=[0.1, 0.2], solver="exact"
    )
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "sweep")]) == 0
    # the components and pooled Gram spectra of the coupled nodes do not depend on alpha
    assert calls == [6, 6]


def test_usage_error_exits_1(capsys):
    assert main(["frobnicate"]) == 1
    assert main(["solve"]) == 1


def test_config_validation():
    cfg = ExperimentConfig(alpha_list=[1.0], solver="exact")
    cfg.validate()
    with pytest.raises(ValueError):
        ExperimentConfig(solver="magic").validate()
    with pytest.raises(ValueError):
        ExperimentConfig(alpha_list=[-1.0]).validate()
    with pytest.raises(ValueError):
        ExperimentConfig(tol=-1.0).validate()
    with pytest.raises(ValueError):
        ExperimentConfig(p_out_list=[]).validate()
    with pytest.raises(ValueError):
        ExperimentConfig(p_in=0.5, p_out=0.7).validate()


def test_config_empty_cluster_is_refused(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", cluster_sizes=[0])
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "error: config: key 'cluster_sizes' must be a non-empty list of positive integers, got [0]\n"
    )
    assert not (tmp_path / "out").exists()


def test_sweep_alpha_flag_overrides_alpha_list(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", alpha_list=[0.1, 1.0, 5.0])
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out), "--alpha", "2"]) == 0
    rows = read_csv(out / "sweep.csv")
    assert len(rows) == 2 and all(float(row["alpha"]) == 2.0 for row in rows)
    assert sorted(p.name for p in (out / "scenario_00").glob("result_*.json")) == ["result_00.json"]


def _drop_key(path, key):
    payload = json.loads(path.read_text())
    del payload[key]
    path.write_text(json.dumps(payload))


@pytest.mark.parametrize(
    "case, key",
    [
        ({"alpha_list": ["x"]}, "alpha_list"),
        ({"cluster_sizes": [3, "a"]}, "cluster_sizes"),
        ({"d": "2"}, "d"),
        ({"d": 0}, "d"),
        ({"m_per_node": 0}, "m_per_node"),
        ({"tol": float("nan")}, "tol"),
        ("meta.json", "clusters"),
        ("result.json", "residual"),
    ],
    ids=["alpha-str", "size-str", "d-str", "d-0", "m-0", "tol-nan", "meta-no-clusters", "result-no-residual"],
)
def test_bad_input_exits_1_naming_the_key(tmp_path, capsys, case, key):
    if isinstance(case, dict):
        cfg = write_config(tmp_path / "cfg.json", **case)
        argv = ["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]
        source = "config"
    else:
        scen = tmp_path / "scen"
        cfg = write_config(tmp_path / "cfg.json")
        assert main(["generate", "--config", str(cfg), "--out", str(scen)]) == 0
        assert main(["solve", str(scen), "--alpha", "1.0"]) == 0
        _drop_key(scen / case, key)
        argv = ["analyze", str(scen), str(scen / "result.json")]
        source = case
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert source in err and repr(key) in err


# ------------------------------------------------- overflow, refusals, sizes

def _quiet_main(argv):
    """main(argv) and the warnings it raised, each turned into a record."""
    import warnings

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    return code, caught


@pytest.mark.parametrize(
    "overrides, message",
    [
        (
            {"separation": 1e308},
            "config: key 'separation': separation 1e+308 with noise_std 0.1 overflows the label energy of node 0",
        ),
        (
            {"separation": 1e308, "d": 16},
            "config: key 'separation': separation 1e+308 overflows the center radius in dimension 16",
        ),
        ({"noise_std": 1e308}, "config: key 'noise_std': noise_std 1e+308 overflows the noise energy at node 0"),
        (
            {"cluster_sizes": [2, 2, 2]},
            "config: key 'cluster_sizes': could not place 3 cluster centers at separation 2.0 in dimension 1 "
            "after 1000 attempts",
        ),
        (
            {"alpha_list": [1e308]},
            "config: alpha_list[0] = 1e+308 in scenario_00: alpha 1e+308 overflows the "
            "coupling: 4 * alpha * the weighted degree 1 of node 0 is not finite",
        ),
        (
            {"w_in": 1e308},
            "config: alpha_list[0] = 1 in scenario_00: alpha 1 overflows the coupling: "
            "4 * alpha * the weighted degree 1e+308 of node 0 is not finite",
        ),
    ],
    ids=["separation", "separation-radius", "noise_std", "centers", "alpha_list", "w_in"],
)
def test_sweep_input_that_overflows_is_refused_by_name(tmp_path, capsys, overrides, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 3, "cluster_sizes": [2, 2], "d": 1, "m_per_node": 5, **overrides}))
    code, caught = _quiet_main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")])
    assert (code, caught) == (1, [])
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not list((tmp_path / "out").glob("sweep.csv"))


def _last_cells(text, sep, value):
    """``text`` with the last ``sep``-separated cell of each line that has
    more than one set to ``value``."""
    lines = text.splitlines()
    return "".join((ln.rsplit(sep, 1)[0] + sep + value if sep in ln else ln) + "\n" for ln in lines)


@pytest.mark.parametrize(
    "file, sep, value, message",
    [
        ("samples.csv", ",", "1e200", "{scen}/samples.csv: the quadratic loss terms overflow at node 0"),
        ("graph.txt", " ", "1e308", "{scen}/graph.txt: node 0 has a weighted degree that is not finite"),
    ],
    ids=["loss-terms", "degree"],
)
def test_scenario_that_overflows_is_refused_naming_the_node(tmp_path, capsys, file, sep, value, message):
    cfg = write_config(tmp_path / "cfg.json")
    scen = tmp_path / "scen"
    assert main(["generate", "--config", str(cfg), "--out", str(scen)]) == 0
    path = scen / file
    path.write_text(_last_cells(path.read_text(), sep, value))
    capsys.readouterr()
    code, caught = _quiet_main(["solve", str(scen), "--alpha", "1", "--out", str(tmp_path / "res.json")])
    assert (code, caught) == (1, [])
    assert capsys.readouterr().err == f"error: {message.format(scen=scen)}\n"
    assert not (tmp_path / "res.json").exists()


def test_analyze_bound_terms_that_overflow_are_refused_naming_the_cluster(tmp_path, capsys):
    scen_dir, res = solved_dir(tmp_path)
    meta = json.loads((scen_dir / "meta.json").read_text())
    meta["clusters"][1]["reference_params"] = [1e200, 1e200]
    (scen_dir / "meta.json").write_text(json.dumps(meta))
    capsys.readouterr()
    code, caught = _quiet_main(["analyze", str(scen_dir), str(res), "--out", str(tmp_path / "out")])
    assert (code, caught) == (1, [])
    err = capsys.readouterr().err
    assert err.startswith(f"error: {scen_dir / 'meta.json'}: the deviation bound of cluster (3, 4, 5) overflows: ")
    assert err.count("\n") == 1 and "nan" not in err
    assert not (tmp_path / "out" / "reports.csv").exists()


_LIST_OF_POSITIVE_INTEGERS = "must be a non-empty list of positive integers"
_LIST_OF_POSITIVE_NUMBERS = "must be a non-empty list of positive numbers"
_LIST_OF_PROBABILITIES = "must be a non-empty list of numbers in [0, 1]"


@pytest.mark.parametrize(
    "overrides, flags, message",
    [
        pytest.param(
            {"seed": -1},
            [],
            "config: key 'seed' must be a non-negative integer, got -1",
            id="seed",
        ),
        pytest.param({"d": 0}, [], "config: key 'd' must be a positive integer, got 0", id="d-0"),
        pytest.param(
            {"max_iter": 0},
            [],
            "config: key 'max_iter' must be a positive integer, got 0",
            id="max_iter-0",
        ),
        pytest.param(
            {"tol": -1},
            [],
            "config: key 'tol' must be a non-negative number, got -1",
            id="tol-negative",
        ),
        pytest.param(
            {"noise_std": -1},
            [],
            "config: key 'noise_std' must be a non-negative number, got -1",
            id="noise_std",
        ),
        pytest.param(
            {"separation": 0},
            [],
            "config: key 'separation' must be a positive number, got 0",
            id="separation",
        ),
        pytest.param({"p_in": 2}, [], "config: key 'p_in' must be a number in [0, 1], got 2", id="p_in"),
        pytest.param(
            {"p_in": 0.5, "p_out": 0.7},
            [],
            "config: key 'p_out' must not exceed p_in = 0.5, got 0.7",
            id="p_out",
        ),
        pytest.param({"w_in": 0}, [], "config: key 'w_in' must be a positive number, got 0", id="w_in"),
        pytest.param(
            {"w_in": -1},
            [],
            "config: key 'w_in' must be a positive number, got -1",
            id="w_in-negative",
        ),
        pytest.param({"w_out": -1}, [], "config: key 'w_out' must be a positive number, got -1", id="w_out"),
        pytest.param(
            {"solver": "magic"},
            [],
            "config: key 'solver' must be 'exact' or 'iterative', got 'magic'",
            id="solver",
        ),
        pytest.param(
            {"cluster_sizes": [3, 0]},
            [],
            f"config: key 'cluster_sizes' {_LIST_OF_POSITIVE_INTEGERS}, got [3, 0]",
            id="cluster_sizes",
        ),
        pytest.param(
            {"cluster_sizes": []},
            [],
            f"config: key 'cluster_sizes' {_LIST_OF_POSITIVE_INTEGERS}, got []",
            id="cluster_sizes-empty",
        ),
        pytest.param(
            {"alpha_list": [1.0, 0.0]},
            [],
            f"config: key 'alpha_list' {_LIST_OF_POSITIVE_NUMBERS}, got [1.0, 0.0]",
            id="alpha-zero",
        ),
        pytest.param(
            {"alpha_list": [-1.0]},
            [],
            f"config: key 'alpha_list' {_LIST_OF_POSITIVE_NUMBERS}, got [-1.0]",
            id="alpha-negative",
        ),
        pytest.param(
            {"alpha_list": [0]},
            [],
            f"config: key 'alpha_list' {_LIST_OF_POSITIVE_NUMBERS}, got [0]",
            id="alpha-0",
        ),
        pytest.param(
            {"alpha_list": []},
            [],
            f"config: key 'alpha_list' {_LIST_OF_POSITIVE_NUMBERS}, got []",
            id="alpha-empty",
        ),
        pytest.param(
            {"p_out_list": [0.1, -0.5]},
            [],
            f"config: key 'p_out_list' {_LIST_OF_PROBABILITIES}, got [0.1, -0.5]",
            id="p_out_list",
        ),
        pytest.param(
            {"p_out_list": [0.5, 2.0]},
            [],
            f"config: key 'p_out_list' {_LIST_OF_PROBABILITIES}, got [0.5, 2.0]",
            id="p_out_list-2",
        ),
        pytest.param(
            {"p_out_list": []},
            [],
            f"config: key 'p_out_list' {_LIST_OF_PROBABILITIES}, got []",
            id="p_out_list-empty",
        ),
        pytest.param(
            {"p_in": 0.5, "p_out_list": [0.1, 0.7]},
            [],
            "config: key 'p_out_list' must not exceed p_in = 0.5, got [0.1, 0.7]",
            id="p_out_list-above-p_in",
        ),
        # a flag's value is refused under the flag's name, not its key's
        pytest.param({}, ["--max-iter", "0"], "--max-iter must be >= 1, got 0", id="flag-max-iter-0"),
        pytest.param({}, ["--tol", "-1"], "--tol must be finite and >= 0, got -1.0", id="flag-tol-negative"),
        pytest.param({}, ["--alpha", "0"], "--alpha must be finite and > 0, got 0.0", id="flag-alpha-zero"),
        pytest.param({}, ["--alpha", "nan"], "--alpha must be finite and > 0, got nan", id="flag-alpha-nan"),
        pytest.param({}, ["--seed", "-3"], "--seed must be >= 0, got -3", id="flag-seed-negative"),
    ],
)
def test_config_is_refused_by_key_before_anything_is_written(tmp_path, capsys, overrides, flags, message):
    cfg = write_config(tmp_path / "cfg.json", **overrides)
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out"), *flags]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "overrides",
    [{"cluster_sizes": [2**70]}, {"d": 2**40}, {"m_per_node": 2**60}, {"cluster_sizes": [10**11]}],
    ids=["cluster_sizes-2**70", "d-2**40", "m_per_node-2**60", "cluster_sizes-1e11"],
)
def test_config_beyond_physical_memory_is_refused_naming_the_keys(tmp_path, capsys, overrides):
    cfg = write_config(tmp_path / "cfg.json", **overrides)
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(
        r"error: config: cluster_sizes, m_per_node, d, p_in and p_out ask for about \S+ GiB, "
        r"more than the \S+ GiB of physical memory\n",
        err,
    )
    assert not (tmp_path / "out").exists()


def test_size_rule_counts_samples_and_expected_edges(monkeypatch):
    import gtvmin.cli

    # 1000 nodes of 8 samples of 2 + 1 values: 192000 bytes; 2 clusters of 500
    # at p_in 0.5 and p_out 0.1 expect 124750 + 25000 edges, 24 bytes each
    cfg = ExperimentConfig(cluster_sizes=[500, 500], d=2, m_per_node=8, p_in=0.5, p_out=0.1)
    need = 192000 + 24 * (0.5 * 249500 + 0.1 * 250000)
    for memory, refused in [(None, False), (need, False), (need - 1, True), (191999, True)]:
        monkeypatch.setattr(gtvmin.cli, "_physical_memory", lambda: memory)
        if refused:
            with pytest.raises(ValueError, match="of physical memory$"):
                cfg.validate()
        else:
            cfg.validate()
    # the largest p_out of p_out_list counts
    monkeypatch.setattr(gtvmin.cli, "_physical_memory", lambda: need)
    ExperimentConfig(cluster_sizes=[500, 500], d=2, m_per_node=8, p_in=0.5, p_out_list=[0.1]).validate()
    with pytest.raises(ValueError, match="of physical memory$"):
        ExperimentConfig(cluster_sizes=[500, 500], d=2, m_per_node=8, p_in=0.5, p_out_list=[0.1, 0.2]).validate()


def test_physical_memory_the_platform_does_not_report_skips_the_size_rule(monkeypatch):
    import gtvmin.cli

    def unknown(name):
        raise ValueError(f"unrecognized configuration name {name}")

    monkeypatch.setattr(os, "sysconf", unknown)
    assert gtvmin.cli._physical_memory() is None
    # 2**70 nodes, which the size rule refuses wherever memory is reported
    ExperimentConfig(cluster_sizes=[2**70]).validate()


@pytest.mark.parametrize("value", [0, -1, 1e308, 2**70], ids=["0", "-1", "1e308", "2**70"])
@pytest.mark.parametrize("key", dataclasses.fields(ExperimentConfig), ids=lambda f: f.name)
def test_config_fuzz_table(tmp_path, capsys, key, value):
    import warnings

    kind = int if "int" in key.type else float if "float" in key.type else str
    cell = str(tmp_path / str(value)) if key.name == "out_dir" else kind(value)
    # write_config's base holds [3, 3] nodes
    cfg = write_config(tmp_path / "cfg.json", **{key.name: [cell] if key.type.startswith("list") else cell})
    argv = ["sweep", "--config", str(cfg)]
    if key.name != "out_dir":
        argv += ["--out", str(tmp_path / "out")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    if code:
        assert err.count("\n") == 1 and "Traceback" not in err and "Warning" not in err
        assert re.search(rf"\b{key.name}\b", err) or "config" in err
    else:
        assert "nan" not in next(tmp_path.rglob("sweep.csv")).read_text()


@pytest.mark.parametrize(
    "key", ["noise_std", "separation", "p_in", "p_out", "w_in", "w_out", "tol", "alpha_list", "p_out_list"]
)
def test_config_number_beyond_the_float_range_is_refused_by_its_key(tmp_path, capsys, key):
    cfg = write_config(tmp_path / "cfg.json", **{key: [10**400] if key.endswith("_list") else 10**400})
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config: key '{key}' must be a ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


# ------------------------------------------- bound overflow, result files, sweep order

def test_bound_whose_rhs_overflows_is_refused_naming_cluster_alpha_and_lambda2(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", noise_std=1e150, alpha_list=[1e-9])
    code, caught = _quiet_main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert (code, caught) == (1, [])
    assert capsys.readouterr().err == (
        "error: config: alpha_list[0] = 1e-09 in scenario_00: the deviation bound of cluster "
        "(0, 1, 2) overflows: 3.52238e+300 / (alpha 1e-09 * lambda2 3) is not finite\n"
    )
    # a finite right-hand side still passes
    cfg = write_config(tmp_path / "cfg.json", noise_std=1e140, alpha_list=[1e-9])
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "finite")]) == 0
    rows = read_csv(tmp_path / "finite" / "sweep.csv")
    assert all(np.isfinite(float(row["rhs"])) and row["satisfied"] == "true" for row in rows)


def test_analyze_alpha_that_overflows_the_coupling_is_refused_naming_result_alpha(tmp_path, capsys):
    # p_out = 0: every cluster has boundary 0, where 2 alpha bd read nan
    scen_dir, res = solved_dir(tmp_path, p_out=0.0)
    payload = json.loads(res.read_text())
    res.write_text(json.dumps({**payload, "alpha": 1e308}))
    capsys.readouterr()
    code, caught = _quiet_main(["analyze", str(scen_dir), str(res), "--out", str(tmp_path / "out")])
    assert (code, caught) == (1, [])
    assert capsys.readouterr().err == (
        f"error: {res}: key 'alpha': alpha 1e+308 overflows the coupling: 4 * alpha * the "
        f"weighted degree 2 of node 0 is not finite\n"
    )


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("params", [0.5] * 11, "key 'params': expected a flat vector of length 12, got (11,)"),
        ("n", -6, "key 'n' must be a positive integer, got -6"),
        ("n", 0, "key 'n' must be a positive integer, got 0"),
        ("n", 10**30, f"key 'params': expected a flat vector of length {2 * 10**30}, got (12,)"),
        ("d", 3, "key 'params': expected a flat vector of length 18, got (12,)"),
        ("alpha", -1, "key 'alpha' must be a non-negative number, got -1"),
        ("alpha", 0, "key 'alpha': the deviation bound needs alpha > 0"),
        ("iterations", -5, "key 'iterations' must be a non-negative integer, got -5"),
        ("objective", 10**400, "key 'objective' must be a finite number, got 100000000000000000...0000000000000000000"),
        ("params", ["x"] * 10**4, "key 'params' must be a list of finite numbers, got ['x', 'x', 'x', 'x', 'x', 'x', ...]"),
    ],
    ids=[
        "params-short", "n-negative", "n-0", "n-huge", "d-3", "alpha-negative", "alpha-0",
        "iterations-negative", "objective-beyond-float", "params-long",
    ],
)
def test_result_file_refusals_start_with_its_path(tmp_path, capsys, key, value, message):
    scen_dir, res = solved_dir(tmp_path)
    res.write_text(json.dumps({**json.loads(res.read_text()), key: value}))
    capsys.readouterr()
    code, caught = _quiet_main(["analyze", str(scen_dir), str(res), "--out", str(tmp_path / "out")])
    assert (code, caught) == (1, [])
    assert capsys.readouterr().err == f"error: {res}: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("seed", [None, 10**400])
def test_meta_seed_that_is_null_or_any_integer_loads(tmp_path, seed):
    scen_dir, res = solved_dir(tmp_path)
    meta = scen_dir / "meta.json"
    meta.write_text(json.dumps({**json.loads(meta.read_text()), "seed": seed}))
    assert main(["analyze", str(scen_dir), str(res), "--out", str(tmp_path / "out")]) == 0
    cells = {row["seed"] for row in read_csv(tmp_path / "out" / "reports.csv")}
    assert cells == {"None" if seed is None else str(seed)}


def test_sweep_writes_a_scenario_only_after_all_its_alphas_succeed(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", alpha_list=[1.0, 1e308])
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
    assert "config: alpha_list[1] = 1e+308 in scenario_00: " in capsys.readouterr().err
    assert not (out / "scenario_00").exists() and not (out / "sweep.csv").exists()


def test_sweep_failing_in_a_later_scenario_keeps_the_complete_earlier_ones(tmp_path, capsys):
    # no inter-cluster edge at p_out 0; at p_out 1 every node has three of weight 1e308
    cfg = write_config(tmp_path / "cfg.json", w_out=1e308, p_out=0.0, p_out_list=[0.0, 1.0])
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
    assert "weighted degree that is not finite" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["scenario_00"]
    assert sorted(p.name for p in (out / "scenario_00").glob("result_*.json")) == [
        "result_00.json",
        "result_01.json",
    ]


# ------------------------------------------------------- scenario file fuzz

_FUZZ_FILES = ["graph.txt", "meta.json", "samples.csv", "result.json"]
_NUMBER = re.compile(rb"-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?")
_mutation = st.one_of(
    st.tuples(st.just("truncate"), st.floats(0.0, 1.0)),
    st.tuples(st.just("flip"), st.integers(0, 10**6), st.integers(1, 255)),
    # non-ASCII bytes, a NUL, a line break or a separator
    st.tuples(
        st.just("insert"),
        st.integers(0, 10**6),
        st.sampled_from([b"\xc3\xa9", b"\xff", b"\x00", b"\n", b","]),
    ),
    # a number token of the file becomes a huge integer, a float beyond the
    # range, or another JSON type
    st.tuples(
        st.just("number"),
        st.integers(0, 10**6),
        st.sampled_from(
            [b"1" + b"0" * 400, b"9" * 30, b"1e999", b"1e200", b"-7", b"nan", b"true", b'"x"', b"[]", b"null"]
        ),
    ),
    st.tuples(
        st.just("key"),
        # the keys of result.json, then those only meta.json has
        st.sampled_from(
            ["n", "d", "params", "objective", "iterations", "converged", "residual", "alpha"]
            + ["seed", "clusters", "generator"]
        ),
        st.sampled_from([None, True, "x", [], {}, -1, 0, 1.5, 10**30, 10**400, 1e308, 1e-320, [1e308]]),
    ),
)


def _mutate(data: bytes, op) -> bytes:
    kind, where, what = (op + (None,))[:3]
    if kind == "truncate":
        return data[: int(len(data) * where)]
    if kind == "flip" and data:
        flipped = bytearray(data)
        flipped[where % len(data)] ^= what
        return bytes(flipped)
    if kind == "insert":
        at = where % (len(data) + 1)
        return data[:at] + what + data[at:]
    numbers = list(_NUMBER.finditer(data))
    if kind == "number" and numbers:
        token = numbers[where % len(numbers)]
        return data[: token.start()] + what + data[token.end():]
    if kind == "key":
        try:
            payload = json.loads(data)
        except ValueError:
            return data
        if isinstance(payload, dict):
            return json.dumps({**payload, where: what}).encode()
    return data


@pytest.fixture(scope="module")
def fuzz_scenario(tmp_path_factory):
    scen = tmp_path_factory.mktemp("fuzz") / "scen"
    cfg = write_config(scen.parent / "cfg.json")
    assert main(["generate", "--config", str(cfg), "--out", str(scen)]) == 0
    assert main(["solve", str(scen), "--alpha", "1"]) == 0
    return scen


@settings(max_examples=120, deadline=None, derandomize=True)
@given(ops=st.lists(st.tuples(st.sampled_from(_FUZZ_FILES), _mutation), min_size=1, max_size=2))
@example(ops=[("result.json", ("key", "params", [0.5] * 11))])
@example(ops=[("result.json", ("key", "n", -6))])
@example(ops=[("result.json", ("key", "n", 0))])
@example(ops=[("result.json", ("key", "n", 10**30))])
@example(ops=[("result.json", ("key", "d", 3))])
@example(ops=[("result.json", ("key", "alpha", -1))])
@example(ops=[("result.json", ("key", "alpha", 0))])
@example(ops=[("result.json", ("key", "alpha", 1e308))])
@example(ops=[("result.json", ("key", "alpha", 1e-320))])  # the bound's quotient overflows
@example(ops=[("result.json", ("key", "iterations", -5))])
@example(ops=[("meta.json", ("key", "seed", "abc"))])
@example(ops=[("meta.json", ("key", "seed", 1.5))])
@example(ops=[("meta.json", ("key", "seed", 10**400))])
@example(ops=[("graph.txt", ("number", 0, b"1" + b"0" * 400))])  # the node count
def test_analyze_of_mutated_files_exits_cleanly(fuzz_scenario, ops):
    import contextlib
    import io
    import shutil
    import tempfile
    import warnings

    with tempfile.TemporaryDirectory() as work:
        scen = Path(work) / "scen"
        shutil.copytree(fuzz_scenario, scen)
        for name, op in ops:
            path = scen / name
            path.write_bytes(_mutate(path.read_bytes(), op))
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = main(["analyze", str(scen), str(scen / "result.json"), "--out", str(scen / "out")])
        err = err.getvalue()
        assert code in (0, 1, 2, 3)
        if all(name == "meta.json" and op[:2] in {("key", "n"), ("key", "d")} for name, op in ops):
            assert code == 0  # meta.json's n and d, which older versions wrote, are ignored
        if code:
            assert err.count("\n") == 1 and err.endswith("\n") and "Traceback" not in err
            # a file, or the node or cluster whose terms are at fault
            assert re.search(r"graph\.txt|meta\.json|samples\.csv|result\.json|at node \d|cluster \(", err)
        else:
            texts = [out.getvalue()] + [p.read_text() for p in (scen / "out").iterdir()]
            assert not any("nan" in text.lower() for text in texts)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(ops=st.lists(st.tuples(st.sampled_from(_FUZZ_FILES[:3]), _mutation), min_size=1, max_size=2))
@example(ops=[("meta.json", ("key", "d", 3))])
@example(ops=[("meta.json", ("key", "n", 10**11))])
@example(ops=[("graph.txt", ("number", 0, b"100000000000"))])  # the node count
@example(ops=[("samples.csv", ("number", 0, b"-7"))])  # the first node
@example(ops=[("samples.csv", ("number", 5, b"1e200"))])  # the loss terms overflow
@example(ops=[("samples.csv", ("truncate", 0.5))])  # the last nodes have no rows
def test_solve_of_mutated_files_exits_cleanly(fuzz_scenario, ops):
    import contextlib
    import io
    import shutil
    import tempfile
    import warnings

    with tempfile.TemporaryDirectory() as work:
        scen = Path(work) / "scen"
        shutil.copytree(fuzz_scenario, scen)
        for name, op in ops:
            path = scen / name
            path.write_bytes(_mutate(path.read_bytes(), op))
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = main(["solve", str(scen), "--alpha", "1", "--out", str(scen / "solved.json")])
        err = err.getvalue()
        assert code in (0, 1, 2, 3)
        if all(name == "meta.json" and op[:2] in {("key", "n"), ("key", "d")} for name, op in ops):
            assert code == 0  # meta.json's n and d, which older versions wrote, are ignored
        if code:
            assert err.count("\n") == 1 and err.endswith("\n") and "Traceback" not in err
        if code in (1, 3):
            assert re.search(r"graph\.txt|meta\.json|samples\.csv|key '", err)
        elif code == 2:
            # a scenario whose files are valid but whose system is too ill-conditioned to solve
            assert err.startswith("numerical failure: ")
        else:
            assert np.isfinite(load_result(scen / "solved.json").params.per_node).all()
