"""Run one workload on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload NAME --seeds 1-10 [--trace 0|1]

For every metric it prints the median of the per-run values and the
distance between their first and third quartiles (statistics.quantiles,
n=4) as a share of the median, which is how the bounds in BENCHMARK.json
were checked. Runs are sequential, with BENCHMARK.json's run_seconds.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values: dict[str, list[float]] = {}
    shares = set()
    for seed in args.seeds:
        cmd = [*bench["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
        started = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, check=True)
        wall = time.monotonic() - started
        result = json.loads(proc.stdout.decode().strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: correct is false", file=sys.stderr)
            return 1
        shares.add(result["failed"] / result["attempted"])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: {wall:.1f} s, attempted {result['attempted']} failed {result['failed']} "
              + " ".join(f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()), flush=True)

    print(f"{args.workload}: {len(args.seeds)} runs, failed shares {sorted(shares)}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        note = f"  bound {bound} (spread/bound {spread / bound:.2f})" if bound else ""
        print(f"  {name:40s} median {med:.6g}  iqr/median {spread:.4f}{note}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
