"""Timing wrappers for the traced run.

``Tracer.install`` replaces public gtvmin functions, two SimilarityGraph
methods, and the numpy/scipy kernels that gtvmin reaches through module
attributes, with wrappers that

* record one span (name, start, end, parent, phase) per outermost call of a
  layer; a call nested inside a call of the same layer only adds to the
  call count, so inclusive times are not counted twice;
* add per-phase counts (calls, inclusive seconds, and a few layer-specific
  counts such as the matrix order passed to eigvalsh);
* measure the peak allocation of the MEMORY_LAYERS with tracemalloc, which
  runs only inside their spans so that it does not slow the other layers.

A wrapper is put into every gtvmin module namespace that binds the original
function, so ``from .graph import lambda2`` call sites see it too. Phases
are integers: SETUP for input building, 0 for the warm-up operation, 1..N
for timed operations, EXTRA for work after the timed loop. Spans live in
memory in flat arrays and are written out once, by ``dump``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import tracemalloc
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

SETUP = -1
EXTRA = -2
MIB = 1024.0 * 1024.0
MEMORY_LAYERS = {"solver.solve_exact", "solver.solve_iterative"}


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _eigvalsh_order(tracer, args, kwargs, result):
    tracer.maximum("kernel.eigvalsh.max_n", np.shape(_arg(args, kwargs, 0, "a"))[-1])


def _cho_factor_flops(tracer, args, kwargs, result):
    order = np.shape(_arg(args, kwargs, 0, "a"))[-1]
    tracer.add("kernel.cho_factor.gflop", order**3 / 3.0 / 1e9)


def _scenario_files(tracer, args, kwargs, result):
    files = [p for p in Path(result).iterdir() if p.is_file()]
    tracer.add("data.save_scenario.files", len(files))
    tracer.add("data.save_scenario.bytes", sum(p.stat().st_size for p in files))


def _iterations(tracer, args, kwargs, result):
    tracer.add("solver.iterations", result.iterations)


def _cluster_at(position):
    def note(tracer, args, kwargs, result):
        tracer.note_cluster(_arg(args, kwargs, position, "cluster"))

    return note


# (module, attribute, layer name, hook run after a successful call)
LAYERS = [
    ("gtvmin.graph", "laplacian", "graph.laplacian", None),
    ("gtvmin.graph", "lambda2", "graph.lambda2", None),
    ("gtvmin.graph", "induced_subgraph", "graph.induced_subgraph", None),
    ("gtvmin.graph", "cluster_boundary", "graph.cluster_boundary", None),
    ("gtvmin.graph", "generate_planted_clusters", "graph.generate_planted_clusters", None),
    ("gtvmin.graph", "graph_from_embedding", "graph.graph_from_embedding", None),
    ("gtvmin.graph", "write_graph", "graph.write_graph", None),
    ("gtvmin.graph", "read_graph", "graph.read_graph", None),
    ("gtvmin.graph", "SimilarityGraph.adjacency", "graph.adjacency", None),
    ("gtvmin.graph", "SimilarityGraph.edge_arrays", "graph.edge_arrays", None),
    ("gtvmin.data", "generate_scenario", "data.generate_scenario", None),
    ("gtvmin.data", "save_scenario", "data.save_scenario", _scenario_files),
    ("gtvmin.data", "load_scenario", "data.load_scenario", None),
    ("gtvmin.solver", "solve_exact", "solver.solve_exact", None),
    ("gtvmin.solver", "solve_iterative", "solver.solve_iterative", _iterations),
    ("gtvmin.solver", "objective", "solver.objective", None),
    ("gtvmin.solver", "objective_gradient", "solver.objective_gradient", None),
    ("gtvmin.solver", "save_result", "solver.save_result", None),
    ("gtvmin.solver", "load_result", "solver.load_result", None),
    ("gtvmin.analysis", "cluster_objective", "analysis.cluster_objective", None),
    ("gtvmin.analysis", "deviation_bound_report", "analysis.deviation_bound_report", _cluster_at(2)),
    ("gtvmin.analysis", "certificate_check", "analysis.certificate_check", _cluster_at(2)),
    ("gtvmin.analysis", "tv_lower_bound_check", "analysis.tv_lower_bound_check", _cluster_at(1)),
    ("gtvmin.analysis", "save_report", "analysis.save_report", None),
    ("gtvmin.analysis", "write_reports_csv", "analysis.write_reports_csv", None),
    ("gtvmin.cli", "cmd_sweep", "cli.sweep", None),
    ("gtvmin.cli", "cmd_analyze", "cli.analyze", None),
    ("gtvmin.suites", "bound_suite", "suites.bound_suite", None),
    ("gtvmin.suites", "spectral_suite", "suites.spectral_suite", None),
    ("gtvmin.suites", "certificate_suite", "suites.certificate_suite", None),
    ("gtvmin.suites", "cross_solver_suite", "suites.cross_solver_suite", None),
    ("numpy.linalg", "eigvalsh", "kernel.eigvalsh", _eigvalsh_order),
    ("scipy.linalg", "cho_factor", "kernel.cho_factor", _cho_factor_flops),
    ("numpy", "savetxt", "kernel.savetxt", None),
    ("numpy", "loadtxt", "kernel.loadtxt", None),
]


class Tracer:
    def __init__(self):
        self.phase = SETUP
        self.values: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._clusters: dict[int, dict[int, object]] = defaultdict(dict)
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._span_id = array("q")
        self._span_name = array("i")
        self._span_parent = array("q")
        self._span_phase = array("q")
        self._span_start = array("d")
        self._span_end = array("d")
        self._stack: list[int] = []
        self._active: set[str] = set()
        self._next_id = 0

    # -- counts ----------------------------------------------------------
    def add(self, key: str, amount: float) -> None:
        self.values[self.phase][key] += amount

    def maximum(self, key: str, value: float) -> None:
        slot = self.values[self.phase]
        slot[key] = max(slot[key], value)

    def note_cluster(self, cluster) -> None:
        # keep the object alive so its id cannot be reused within the phase
        self._clusters[self.phase][id(cluster)] = cluster

    def close_phase(self) -> None:
        """Derive the per-phase ratio: lambda2 calls per distinct cluster
        handed to the analysis layer."""
        slot = self.values[self.phase]
        clusters = len(self._clusters.pop(self.phase, {}))
        if clusters:
            slot["graph.lambda2.calls_per_cluster"] = slot["graph.lambda2.calls"] / clusters

    # -- spans -----------------------------------------------------------
    def call(self, name, fn, args, kwargs, hook):
        self.add(name + ".calls", 1)
        if name in self._active:
            return fn(*args, **kwargs)
        self._active.add(name)
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(span_id)
        memory = name in MEMORY_LAYERS and not tracemalloc.is_tracing()
        if memory:
            tracemalloc.start()
        phase = self.phase
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            if memory:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.maximum(name + ".peak_alloc_mib", peak / MIB)
            self._stack.pop()
            self._active.discard(name)
            self.values[phase][name + ".s"] += end - start
            self._record(name, span_id, parent, phase, start, end)
        if hook is not None:
            hook(self, args, kwargs, result)
        return result

    def _record(self, name, span_id, parent, phase, start, end):
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self._names)
            self._names.append(name)
        self._span_id.append(span_id)
        self._span_name.append(name_id)
        self._span_parent.append(parent)
        self._span_phase.append(phase)
        self._span_start.append(start)
        self._span_end.append(end)

    def _wrap(self, fn, name, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, hook)

        return wrapper

    def install(self) -> None:
        for module_name, attr, name, hook in LAYERS:
            module = importlib.import_module(module_name)
            owner_name, _, member = attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, member)
            wrapper = self._wrap(original, name, hook)
            setattr(owner, member, wrapper)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "gtvmin" or mod_name.startswith("gtvmin.")):
                    continue
                for bound, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, bound, wrapper)

    def dump(self, path: Path, meta: dict) -> None:
        """Write every span as [id, name, start_s, end_s, parent_id, phase],
        ordered by end time; a parent id of -1 marks a root span."""
        spans = [
            [
                self._span_id[k],
                self._names[self._span_name[k]],
                self._span_start[k],
                self._span_end[k],
                self._span_parent[k],
                self._span_phase[k],
            ]
            for k in range(len(self._span_start))
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**meta, "spans": spans}) + "\n")
