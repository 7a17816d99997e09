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


@pytest.mark.parametrize(
    "before, after, expected",
    [
        pytest.param([0.40 + 0.01 * k for k in range(10)], [0.30 + 0.01 * k for k in range(10)], "gain", id="gain"),
        # better by more than the spread, but in 8 of 10 pairs only
        pytest.param(
            [0.40 + 0.01 * k for k in range(10)],
            [0.30 + 0.01 * k for k in range(8)] + [0.50, 0.50],
            "unchanged",
            id="8-of-10",
        ),
        pytest.param(
            [0.40 + 0.01 * k for k in range(10)], [0.55 + 0.01 * k for k in range(10)], "regression", id="regression"
        ),
        pytest.param(
            [0.40 + 0.01 * k for k in range(10)], [0.48 + 0.01 * k for k in range(10)], "unchanged", id="worse-within-bound"
        ),
        # the parent's own runs spread wider than the 25 % bound
        pytest.param([0.2, 0.9] * 5, [0.2, 0.9] * 5, "unresolved", id="unresolved"),
        # as wide, but every run of the change beats every run of the parent
        # by less than the spread
        pytest.param(
            [1.0, 1.1, 1.3, 1.5, 1.7, 1.9, 2.1, 2.3, 2.5, 2.6], [0.99] * 10, "unchanged", id="every-run-better"
        ),
    ],
)
def test_bench_record_gives_each_metric_the_review_verdict(tmp_path, bench_record, capsys, before, after, expected):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed, (b, a) in enumerate(zip(before, after)):
        write_run(parent, "cli_roundtrip", seed, b, 0.8, 69.0)
        write_run(change, "cli_roundtrip", seed, a, 0.8, 69.0)
    out = tmp_path / "BENCH_cli_roundtrip.json"
    argv = ["--workload", "cli_roundtrip", "--parent", str(parent), "--parent-commit", "a"]
    assert bench_record.main(argv + ["--change", str(change), "--change-commit", "b", "--out", str(out)]) == 0
    (record,) = json.loads(out.read_text())
    verdicts = {name: m["verdict"] for name, m in record["metrics"].items()}
    assert verdicts == {"setup_s": expected, "op_s.p50": "unchanged", "peak_rss_mib": "unchanged"}
    assert f"change won {record['metrics']['setup_s']['pairs_won']}/10: {expected}\n" in capsys.readouterr().out


def test_bench_record_verdict_reads_a_higher_is_better_metric_the_other_way(bench_record):
    def metric(before, after):
        return {
            "better": "higher",
            "bound": 0.05,
            "pairs_won": sum(a > b for a, b in zip(after, before)),
            "pairs": len(before),
            "parent": {**bench_record.summary(before), "values": before},
            "change": {**bench_record.summary(after), "values": after},
        }

    base = [100.0 + k for k in range(10)]
    assert bench_record.verdict(metric(base, [v + 20 for v in base])) == "gain"
    assert bench_record.verdict(metric(base, [v - 20 for v in base])) == "regression"
    assert bench_record.verdict(metric(base, base)) == "unchanged"
