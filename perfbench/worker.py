"""One workload process: import gtvmin, build inputs, run a closed loop.

Started by run.py with single-threaded BLAS and src/ on PYTHONPATH. Prints
one JSON object on its last stdout line. With ``--setup-only`` it stops
once the inputs are ready and reports only that moment. With
``--setup-samples N`` it starts N such set-up-only processes, one at a
time, at evenly spaced moments of its timed loop, so that the set-up
samples of a run cover the whole run, as its operations do. With
``--trace 1`` it installs the timing wrappers of tracing.py after the
import and reports per-layer numbers.
"""

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

T_IMPORT = time.perf_counter()
import gtvmin  # noqa: E402

IMPORT_S = time.perf_counter() - T_IMPORT

import tracing  # noqa: E402
import workloads  # noqa: E402


def parse_args(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--setup-samples", type=int, default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--per-layer", default="", help="comma-separated per-layer metric names")
    p.add_argument("--trace-file", default="")
    return p.parse_args(argv)


class Loop:
    """Warm-up operation, then a closed loop of one client until the time
    is up. Every operation is attempted whole; failures are counted."""

    def __init__(self, workload, tracer):
        self.workload = workload
        self.tracer = tracer
        self.times: list[float] = []
        self.failures: dict[int, str] = {}
        self.kept: dict[int, object] = {}

    def attempt(self, index: int) -> None:
        run = self.workload.run
        if self.tracer is not None:
            self.tracer.phase = index
            tracer = self.tracer

            def run():
                return tracer.call("op", self.workload.run, (), {}, None)

        start = time.perf_counter()
        try:
            output = run()
        except Exception as exc:  # an operation that raises counts as failed
            elapsed = time.perf_counter() - start
            self.failures[index] = f"{type(exc).__name__}: {exc}"
        else:
            elapsed = time.perf_counter() - start
            try:
                self.workload.check(output)
            except workloads.CheckFailed as exc:
                self.failures[index] = str(exc)
            else:
                if self.workload.keeps_outputs:
                    self.kept[index] = output
        if self.tracer is not None:
            self.tracer.close_phase()
        if index > 0:
            self.times.append(elapsed)

    def run(self, seconds: float, between=None) -> int:
        """Run until ``seconds`` have passed; ``between(elapsed)`` is called
        before each timed operation and its time counts towards the run."""
        self.attempt(0)
        begin = time.perf_counter()
        index = 0
        while index == 0 or time.perf_counter() - begin < seconds:
            if between is not None:
                between(time.perf_counter() - begin)
            index += 1
            self.attempt(index)
        return index


class SetupSampler:
    """Times ``count`` set-up-only processes, process start to inputs
    ready, taking sample k once k/count of the run has passed; ``finish``
    takes the samples that the last operation ran past. Each runs alone:
    the loop waits for it, so the two never share a processor."""

    def __init__(self, args, count: int, workdir: Path):
        self.args = args
        self.count = count
        self.workdir = workdir
        self.samples: list[float] = []

    def __call__(self, elapsed: float) -> None:
        if len(self.samples) < self.count and elapsed >= len(self.samples) * self.args.seconds / self.count:
            self.samples.append(self.take())

    def finish(self) -> None:
        while len(self.samples) < self.count:
            self.samples.append(self.take())

    def take(self) -> float:
        workdir = self.workdir / f"setup_{len(self.samples)}"
        cmd = [
            sys.executable, __file__,
            "--workload", self.args.workload,
            "--seed", str(self.args.seed),
            "--seconds", str(self.args.seconds),
            "--setup-only",
            "--workdir", str(workdir),
        ]
        started = time.monotonic()
        proc = subprocess.run(cmd, stdout=subprocess.PIPE)
        shutil.rmtree(workdir, ignore_errors=True)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process exited with code {proc.returncode}")
        return json.loads(proc.stdout.decode().strip().splitlines()[-1])["ready"] - started


def environment(seed: int) -> dict:
    import os
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "gtvmin": gtvmin.__version__,
    }


def iterative_costs(problem, rounds: int, repeats: int = 3) -> tuple[float, float]:
    """(t(max_iter = 1), (t(max_iter = rounds) - t(1)) / (rounds - 1)),
    medians of ``repeats`` calls each, timed from outside the solver."""

    def timed(max_iter):
        samples = []
        for _ in range(repeats):
            start = time.perf_counter()
            gtvmin.solve_iterative(problem, max_iter=max_iter, tol=0.0)
            samples.append(time.perf_counter() - start)
        return statistics.median(samples)

    t_one = timed(1)
    return t_one, (timed(rounds) - t_one) / (rounds - 1)


def layer_metrics(tracer, names, timed_ops) -> dict:
    """Per-layer value: the median over timed operations of the per-operation
    amount, or the set-up amount for a layer the operations never call."""
    out = {}
    for name in names:
        per_op = [tracer.values[i].get(name, 0.0) for i in timed_ops]
        value = statistics.median(per_op) if per_op else 0.0
        out[name] = value if value else tracer.values[tracing.SETUP].get(name, 0.0)
    return out


def main(argv) -> int:
    args = parse_args(argv)
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload]()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()

    workload.setup(args.seed, workdir)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    loop = Loop(workload, tracer)
    sampler = SetupSampler(args, args.setup_samples, workdir)
    attempted = loop.run(args.seconds, sampler)
    sampler.finish()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.phase = tracing.EXTRA

    setup_failures = []
    try:
        late = workload.verify(loop.kept)
    except workloads.CheckFailed as exc:
        setup_failures.append(str(exc))
        late = {}
    for index, message in late.items():
        loop.failures.setdefault(index, message)

    times = loop.times
    result = {
        "ready": ready,
        "attempted": attempted,
        "failed": sum(1 for i in loop.failures if i > 0),
        "correct": 0 not in loop.failures and not setup_failures,
        "failures": {str(k): v for k, v in sorted(loop.failures.items())[:10]},
        "setup_failures": setup_failures,
        "op_s": times,
        "setup_samples": sampler.samples,
        "peak_rss_mib": peak_rss_mib,
        "env": environment(args.seed),
    }
    if tracer is not None:
        names = [n for n in args.per_layer.split(",") if n]
        layers = layer_metrics(tracer, names, range(1, attempted + 1))
        layers["import.gtvmin_s"] = IMPORT_S
        if isinstance(workload, workloads.IterateSparse):
            setup_s, round_s = iterative_costs(workload.problem, workload.rounds)
            layers["solver.iterative_setup_s"] = setup_s
            layers["solver.round_us"] = round_s * 1e6
        result["layers"] = {n: layers.get(n, 0.0) for n in names}
        if args.trace_file:
            tracer.dump(Path(args.trace_file), {"workload": args.workload, "seed": args.seed})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
