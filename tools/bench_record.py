"""Reduce paired benchmark runs to one record of BENCH_<workload>.json.

    python3 tools/bench_record.py --workload NAME \
        --parent DIR --parent-commit SHA --change DIR --change-commit SHA \
        [--out BENCH_NAME.json]

Each DIR holds the run records that ``perfbench/run.py --trace 0`` writes
to ``.perfbench/runs/`` of the checkout it ran in, one per seed. Records
of the two directories are paired by seed. For each end-to-end metric of
BENCHMARK.json the output holds, per side, the median and quartiles
(inclusive method) and the value of every seed, the number of pairs the
change won (strictly better in the metric's direction) and a verdict:

- ``gain``: the change won at least 9 in 10 pairs, and its median is better
  by more than the parent's interquartile range;
- ``regression``: the change's median is worse than the parent's by more
  than the metric's ``bound``, a fraction of the parent's median;
- ``unresolved``: the parent's interquartile range exceeds that bound,
  unless every run of the change is better than every run of the parent;
- ``unchanged``: otherwise.

It also holds
both commits, each side's environment (the records' ``env`` without the
seed) and the operation counts, which explain a peak RSS that grows with
the operations a run completes.

BENCH_<workload>.json is the workload's trajectory: a JSON list of such
records, one per claim, oldest first. A new record is appended; one with the
same parent and change commits replaces the earlier one in place. Standard
library only.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(directory: Path, workload: str) -> dict[int, dict]:
    """The untraced records of ``workload`` in ``directory`` by seed."""
    runs = {}
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        if record.get("workload") == workload and record.get("trace") == 0:
            runs[record["env"]["seed"]] = record
    return runs


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def side(runs: dict[int, dict], seeds: list[int], commit: str) -> dict:
    envs = []
    for seed in seeds:
        env = {k: v for k, v in runs[seed]["env"].items() if k != "seed"}
        if env not in envs:
            envs.append(env)
    return {
        "commit": commit,
        "env": envs[0] if len(envs) == 1 else envs,
        "ops": [runs[seed]["ops"] for seed in seeds],
        "runs_with_failures": sum(bool(runs[s]["failures"] or runs[s]["setup_failures"]) for s in seeds),
    }


def verdict(metric: dict) -> str:
    """The verdict on one metric of :func:`reduce`'s record (see the module
    docstring)."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    parent, change = metric["parent"], metric["change"]
    better_by = sign * (parent["median"] - change["median"])
    spread = parent["q3"] - parent["q1"]
    bound = metric["bound"] * abs(parent["median"])
    if metric["pairs_won"] >= 0.9 * metric["pairs"] and better_by > spread:
        return "gain"
    if -better_by > bound:
        return "regression"
    every_run_better = max(sign * v for v in change["values"]) < min(sign * v for v in parent["values"])
    if spread > bound and not every_run_better:
        return "unresolved"
    return "unchanged"


def reduce(workload: str, parent: dict, change: dict, commits: tuple[str, str], bench: dict) -> dict:
    seeds = sorted(set(parent) & set(change))
    if len(seeds) < 2:
        raise ValueError(f"{workload}: {len(seeds)} seed(s) run on both sides, need at least 2")
    metrics = {}
    for metric in bench["end_to_end"]:
        name = metric["name"]
        before = [parent[s]["metrics"][name]["value"] for s in seeds]
        after = [change[s]["metrics"][name]["value"] for s in seeds]
        sign = 1.0 if metric["better"] == "lower" else -1.0
        p, c = summary(before), summary(after)
        metrics[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "bound": metric["bound"],
            "parent": {**p, "values": before},
            "change": {**c, "values": after},
            "change_over_parent": c["median"] / p["median"] - 1.0 if p["median"] else None,
            "pairs_won": sum(sign * (a - b) < 0.0 for a, b in zip(after, before)),
            "pairs": len(seeds),
        }
        metrics[name]["verdict"] = verdict(metrics[name])
    return {
        "workload": workload,
        "command": f"python3 perfbench/run.py --workload {workload} --seed SEED --seconds {bench['run_seconds']} --trace 0",
        "seeds": seeds,
        "parent": side(parent, seeds, commits[0]),
        "change": side(change, seeds, commits[1]),
        "metrics": metrics,
    }


def append(path: Path, record: dict) -> list[dict]:
    """The records of ``path`` with ``record`` appended, or in place of the
    record of the same commits."""
    records = json.loads(path.read_text()) if path.exists() else []
    commits = (record["parent"]["commit"], record["change"]["commit"])
    same = [k for k, r in enumerate(records) if (r["parent"]["commit"], r["change"]["commit"]) == commits]
    if same:
        records[same[0]] = record
    else:
        records.append(record)
    return records


def main(argv) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--parent", type=Path, required=True, help="run records of the parent commit")
    p.add_argument("--parent-commit", required=True)
    p.add_argument("--change", type=Path, required=True, help="run records of the change")
    p.add_argument("--change-commit", required=True)
    p.add_argument("--out", type=Path, help="default: BENCH_<workload>.json at the repository root")
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        record = reduce(
            args.workload,
            load_runs(args.parent, args.workload),
            load_runs(args.change, args.workload),
            (args.parent_commit, args.change_commit),
            bench,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = args.out or ROOT / f"BENCH_{args.workload}.json"
    out.write_text(json.dumps(append(out, record), indent=1) + "\n")
    for name, m in record["metrics"].items():
        print(
            f"{name}: {m['parent']['median']:.4g} [{m['parent']['q1']:.4g}, {m['parent']['q3']:.4g}] -> "
            f"{m['change']['median']:.4g} [{m['change']['q1']:.4g}, {m['change']['q3']:.4g}] {m['unit']}, "
            f"change won {m['pairs_won']}/{m['pairs']}: {m['verdict']}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
