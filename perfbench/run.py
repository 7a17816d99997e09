"""Benchmark entry point: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The workload process starts fresh with
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS set to 1 and
src/ on PYTHONPATH, in a process group of its own that is killed if the
run overstays its deadline. With --trace 0 the workload process also
times SETUP_SAMPLES set-up-only processes spread over its timed loop;
setup_s is the median of those and its own set-up time (process start to
inputs ready), and op_s.p50 is the median of the run's timed operations.
With --trace 1 one traced process reports the per-layer metrics. Metric
names and units come from BENCHMARK.json. The last stdout line is the
result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Each run's full record (environment, every operation time, every set-up
sample) goes to .perfbench/runs/, spans of a traced run to
.perfbench/traces/. Exits non-zero without a result when a process fails.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
SETUP_SAMPLES = 10
DEADLINE_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONPATH=str(ROOT / "src"),
    )
    return env


def start_worker(args, extra, deadline) -> tuple[float, dict]:
    """Run worker.py to completion; return (start time, its JSON result)."""
    cmd = [
        sys.executable,
        str(ROOT / "perfbench" / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workdir", str(OUT / "work" / f"{args.workload}-{os.getpid()}"),
        *extra,
    ]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - started))
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with code {proc.returncode}")
    lines = stdout.decode().strip().splitlines()
    if not lines:
        raise RuntimeError("workload process printed no result")
    return started, json.loads(lines[-1])


def main(argv) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        p.error(f"unknown workload {args.workload!r}")
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")

    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    setup_samples = []
    try:
        if args.trace:
            per_layer = [m["name"] for m in bench["per_layer"]]
            trace_file = OUT / "traces" / f"{args.workload}_seed{args.seed}.json"
            extra = ["--per-layer", ",".join(per_layer), "--trace-file", str(trace_file)]
            _, result = start_worker(args, extra, deadline)
        else:
            started, result = start_worker(args, ["--setup-samples", str(SETUP_SAMPLES)], deadline)
            setup_samples = [result["ready"] - started, *result["setup_samples"]]
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(OUT / "work" / f"{args.workload}-{os.getpid()}", ignore_errors=True)

    if args.trace:
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        values = result["layers"]
    else:
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        values = {
            "setup_s": statistics.median(setup_samples),
            "op_s.p50": statistics.median(result["op_s"]),
            "peak_rss_mib": result["peak_rss_mib"],
        }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    times = result["op_s"]
    summary = {
        "workload": args.workload,
        "trace": args.trace,
        "env": result["env"],
        "ops": len(times),
        "op_s.p50": statistics.median(times),
        "op_s.p90": statistics.quantiles(times, n=10)[-1] if len(times) >= 40 else None,
        "setup_s_samples": setup_samples,
        "failures": result["failures"],
        "setup_failures": result["setup_failures"],
    }
    OUT.joinpath("runs").mkdir(parents=True, exist_ok=True)
    (OUT / "runs" / f"{tag}.json").write_text(
        json.dumps({**summary, "op_s": times, "metrics": metrics}, indent=1) + "\n"
    )
    print(json.dumps(summary))
    print(
        json.dumps(
            {
                "correct": bool(result["correct"]),
                "attempted": int(result["attempted"]),
                "failed": int(result["failed"]),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
