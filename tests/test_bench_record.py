import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"


@pytest.fixture(scope="module")
def bench_record():
    spec = importlib.util.spec_from_file_location("bench_record", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_run(directory, workload, seed, setup_s, op_s, rss, trace=0, ops=100):
    directory.mkdir(parents=True, exist_ok=True)
    values = {"setup_s": setup_s, "op_s.p50": op_s, "peak_rss_mib": rss}
    record = {
        "workload": workload,
        "trace": trace,
        "env": {"seed": seed, "python": "3.11.7", "numpy": "2.4.6"},
        "ops": ops,
        "failures": {},
        "setup_failures": [],
        "metrics": {name: {"value": value, "unit": "?"} for name, value in values.items()},
    }
    (directory / f"{workload}_seed{seed}_trace{trace}.json").write_text(json.dumps(record))


def test_bench_record_pairs_runs_by_seed(tmp_path, bench_record):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed, (before, after) in enumerate([(0.45, 0.20), (0.46, 0.22), (0.44, 0.47), (0.50, 0.21), (0.48, 0.25)]):
        write_run(parent, "cli_roundtrip", seed, before, 0.8, 69.0, ops=40)
        write_run(change, "cli_roundtrip", seed, after, 0.8 + 0.01 * seed, 70.0 - seed, ops=41)
    # neither another workload, nor a traced run, nor an unpaired seed counts
    write_run(change, "certify_dense", 0, 9.0, 9.0, 9.0)
    write_run(change, "cli_roundtrip", 1, 9.0, 9.0, 9.0, trace=1)
    write_run(change, "cli_roundtrip", 99, 9.0, 9.0, 9.0)
    out = tmp_path / "BENCH_cli_roundtrip.json"
    argv = ["--workload", "cli_roundtrip", "--parent", str(parent), "--parent-commit", "aaa"]
    assert bench_record.main(argv + ["--change", str(change), "--change-commit", "bbb", "--out", str(out)]) == 0
    (record,) = json.loads(out.read_text())
    assert record["seeds"] == [0, 1, 2, 3, 4]
    assert (record["parent"]["commit"], record["change"]["commit"]) == ("aaa", "bbb")
    assert record["parent"]["env"] == {"python": "3.11.7", "numpy": "2.4.6"}
    assert record["change"]["ops"] == [41] * 5
    setup = record["metrics"]["setup_s"]
    assert setup["parent"]["values"] == [0.45, 0.46, 0.44, 0.50, 0.48]
    assert setup["parent"]["median"] == 0.46
    assert (setup["parent"]["q1"], setup["parent"]["q3"]) == pytest.approx((0.45, 0.48))
    assert setup["change"]["median"] == 0.22
    assert (setup["pairs_won"], setup["pairs"]) == (4, 5)
    # a tie (seed 0 of op_s.p50, seed 1 of peak_rss_mib) is not a win
    assert record["metrics"]["op_s.p50"]["pairs_won"] == 0
    assert record["metrics"]["peak_rss_mib"]["pairs_won"] == 3


def test_bench_record_refuses_fewer_than_two_pairs(tmp_path, bench_record, capsys):
    write_run(tmp_path / "parent", "cli_roundtrip", 1, 0.4, 0.8, 69.0)
    write_run(tmp_path / "change", "cli_roundtrip", 1, 0.2, 0.8, 69.0)
    argv = ["--workload", "cli_roundtrip", "--parent", str(tmp_path / "parent"), "--parent-commit", "a"]
    argv += ["--change", str(tmp_path / "change"), "--change-commit", "b", "--out", str(tmp_path / "out.json")]
    assert bench_record.main(argv) == 1
    assert "1 seed(s) run on both sides" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


def test_bench_record_appends_one_record_per_claim(tmp_path, bench_record):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed in range(3):
        write_run(parent, "cli_roundtrip", seed, 0.4, 0.8, 69.0)
        write_run(change, "cli_roundtrip", seed, 0.2, 0.8, 60.0 + seed)
    out = tmp_path / "BENCH_cli_roundtrip.json"
    earlier = {"workload": "cli_roundtrip", "parent": {"commit": "p0"}, "change": {"commit": "c0"}}
    out.write_text(json.dumps([earlier]))

    def record(parent_commit, change_commit):
        argv = ["--workload", "cli_roundtrip", "--parent", str(parent), "--parent-commit", parent_commit]
        argv += ["--change", str(change), "--change-commit", change_commit, "--out", str(out)]
        assert bench_record.main(argv) == 0
        return json.loads(out.read_text())

    first = record("p1", "c1")
    assert [(r["parent"]["commit"], r["change"]["commit"]) for r in first] == [("p0", "c0"), ("p1", "c1")]
    assert first[0] == earlier
    second = record("p2", "c2")
    assert second[:2] == first and second[2]["change"]["commit"] == "c2"
    # the same claim recorded again replaces its record in place
    (change / "cli_roundtrip_seed0_trace0.json").unlink()
    again = record("p1", "c1")
    assert len(again) == 3 and again[0] == earlier and again[2] == second[2]
    assert again[1]["seeds"] == [1, 2]
