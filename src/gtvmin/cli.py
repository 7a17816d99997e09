"""Command line front end.

Subcommands: ``generate`` (write a synthetic scenario directory), ``solve``
(train on a scenario and dump the result JSON), ``analyze`` (deviation
bound reports per cluster, JSON plus CSV), ``sweep`` (a full
generate/solve/analyze pipeline over a list of alphas and optionally a
list of inter-cluster edge probabilities), and ``selftest`` (the
randomized verification suites).

Configuration is a single JSON document; every flag mirrors a config key
and overrides it. All artifacts regenerate byte-identically from
(config, seed). Exit codes: 0 success, 1 validation error (also an input
too large to allocate), 2 numerical failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .analysis import bound_report_rows, save_report, write_reports_csv
from .data import (
    _META_FILE,
    _SAMPLES_FILE,
    _json_field,
    _read_json,
    generate_scenario,
    load_scenario,
    save_scenario,
)
from .errors import GTVMinError
from .graph import GraphParams
from .solver import (
    GTVMinProblem,
    _check_alpha,
    _check_coupling,
    _check_stopping,
    load_result,
    save_result,
    solve_exact,
    solve_iterative,
)
from .suites import bound_suite, certificate_suite, cross_solver_suite, spectral_suite

__all__ = ["ExperimentConfig", "main", "entrypoint"]


# the JSON kind of each config key (p_out_list may also be null)
_CONFIG_KINDS = {
    "an integer": ("max_iter",),
    "a non-negative integer": ("seed",),
    "a positive integer": ("d", "m_per_node"),
    "a finite number": ("noise_std", "separation", "p_in", "p_out", "w_in", "w_out", "tol"),
    "a string": ("solver", "out_dir"),
    "a list of integers": ("cluster_sizes",),
    "a list of finite numbers": ("alpha_list", "p_out_list"),
}

# each solver's run on a problem, given max_iter and tol (read by iterative only);
# the solvers are looked up on each call, so wrappers set on this module apply
_SOLVERS = {
    "exact": lambda problem, max_iter, tol: solve_exact(problem),
    "iterative": lambda problem, max_iter, tol: solve_iterative(problem, max_iter, tol),
}


@dataclass
class ExperimentConfig:
    """One experiment: scenario generation, solver choice and alpha sweep."""

    seed: int = 0
    cluster_sizes: list[int] = field(default_factory=lambda: [5, 5])
    d: int = 2
    m_per_node: int = 10
    noise_std: float = 0.1
    separation: float = 2.0
    p_in: float = 0.9
    p_out: float = 0.1
    w_in: float = 1.0
    w_out: float = 1.0
    alpha_list: list[float] = field(default_factory=lambda: [1.0])
    solver: str = "exact"
    max_iter: int = 100000
    tol: float = 1e-10
    out_dir: str = "gtvmin_out"
    p_out_list: list[float] | None = None

    def validate(self) -> None:
        values = dataclasses.asdict(self)
        for kind, keys in _CONFIG_KINDS.items():
            for key in keys:
                _json_field(values, key, kind, "config", optional=key == "p_out_list")
        if not self.alpha_list:
            raise ValueError("alpha_list must not be empty")
        if any(a <= 0 for a in self.alpha_list):
            # every sweep row's deviation bound needs alpha > 0
            raise ValueError("alpha_list entries must be > 0")
        if self.solver not in _SOLVERS:
            names = " or ".join(map(repr, _SOLVERS))
            raise ValueError(f"solver must be {names}, got {self.solver!r}")
        if self.max_iter < 1 or self.tol <= 0:
            raise ValueError("solver parameters max_iter and tol must be positive")
        if not self.cluster_sizes or any(s < 1 for s in self.cluster_sizes):
            raise ValueError("cluster_sizes must be positive")
        if self.p_out_list is not None and not self.p_out_list:
            raise ValueError("p_out_list, when given, must not be empty")
        # graph probabilities validated by GraphParams
        self.graph_params()
        for k, p in enumerate(self.p_out_list or []):
            try:
                self.graph_params(p)
            except ValueError as exc:
                raise ValueError(f"p_out_list[{k}]: {exc}") from None
        self._check_size()

    def _check_size(self) -> None:
        """Refuse a scenario that would not fit in physical memory: its
        samples, sum |C| m (d + 1) values, plus the planted graph's expected
        edges, three values each, at 8 bytes a value."""
        memory = _physical_memory()
        if memory is None:
            return
        n = sum(self.cluster_sizes)
        need = 8 * n * self.m_per_node * (self.d + 1)
        if need <= memory:  # n is small enough for floats now
            inside = sum(s * (s - 1) // 2 for s in self.cluster_sizes)
            p_out = max(self.p_out_list or [self.p_out])
            need += 24 * (self.p_in * inside + p_out * (n * (n - 1) // 2 - inside))
        if need > memory:
            from decimal import Decimal  # formats an int of any size

            raise ValueError(
                f"config: cluster_sizes, m_per_node, d, p_in and p_out ask for about "
                f"{Decimal(need) / 2**30:.3g} GiB, more than the {memory / 2**30:.3g} GiB "
                f"of physical memory"
            )

    def graph_params(self, p_out: float | None = None) -> GraphParams:
        return GraphParams(
            p_in=self.p_in,
            p_out=self.p_out if p_out is None else p_out,
            w_in=self.w_in,
            w_out=self.w_out,
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        raw = _read_json(Path(path))
        if not isinstance(raw, dict):
            raise ValueError(f"{path}: a config must be a JSON object")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"{path}: unknown config keys: {sorted(unknown)}")
        return cls(**raw)


def _physical_memory() -> int | None:
    """Bytes of physical memory, where the platform reports them."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, OSError, ValueError):
        return None


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    cfg = (
        ExperimentConfig.from_file(args.config)
        if getattr(args, "config", None)
        else ExperimentConfig()
    )
    overrides = {
        "seed": getattr(args, "seed", None),
        "out_dir": getattr(args, "out", None),
        "solver": getattr(args, "solver", None),
        "max_iter": getattr(args, "max_iter", None),
        "tol": getattr(args, "tol", None),
    }
    alpha = getattr(args, "alpha", None)
    if alpha is not None:
        cfg.alpha_list = [alpha]
    for key, value in overrides.items():
        if value is not None:
            setattr(cfg, key, value)
    cfg.validate()
    return cfg


def _generate(cfg: ExperimentConfig, p_out: float | None = None):
    return generate_scenario(
        rng_seed=cfg.seed,
        cluster_sizes=cfg.cluster_sizes,
        d=cfg.d,
        m_per_node=cfg.m_per_node,
        noise_std=cfg.noise_std,
        separation=cfg.separation,
        graph_params=cfg.graph_params(p_out),
    )


def _problem(scenario_dir, scenario, alpha: float) -> GTVMinProblem:
    """The problem of a scenario loaded from ``scenario_dir`` at a checked
    ``alpha``: all the problem can refuse then is loss terms that overflow,
    and those are samples.csv's fault."""
    try:
        return GTVMinProblem.from_scenario(scenario, alpha)
    except ValueError as exc:
        raise ValueError(f"{Path(scenario_dir) / _SAMPLES_FILE}: {exc}") from None


def _bound_terms_file(scenario_dir, result_path, cluster) -> Path:
    """The file at fault when a cluster's bound terms are refused:
    meta.json when the cluster lacks its reference vector or budget or its
    reference vector's square overflows, else the result file, whose
    parameters give R and the deviations and whose alpha scales the rest."""
    ref = cluster.reference_params
    with np.errstate(over="ignore"):
        if ref is None or cluster.epsilon is None or not np.isfinite(ref @ ref):
            return Path(scenario_dir) / _META_FILE
    return Path(result_path)


def cmd_generate(args) -> int:
    cfg = _config_from_args(args)
    out_dir = Path(cfg.out_dir)
    save_scenario(_generate(cfg), out_dir)
    print(f"scenario written to {out_dir}")
    return 0


def cmd_solve(args) -> int:
    max_iter = ExperimentConfig.max_iter if args.max_iter is None else args.max_iter
    tol = ExperimentConfig.tol if args.tol is None else args.tol
    # checked whichever solver runs, so a bad flag never passes unnoticed
    _check_stopping(max_iter, tol, ("--max-iter", "--tol"))
    alpha = _check_alpha(args.alpha)
    scenario = load_scenario(args.scenario)
    solver = args.solver or ExperimentConfig.solver
    try:
        result = _SOLVERS[solver](_problem(args.scenario, scenario, alpha), max_iter, tol)
    except GTVMinError as exc:
        # the files are valid, so the scenario as a whole is at fault
        raise type(exc)(f"{args.scenario}: {exc}") from None
    out_path = Path(args.out) if args.out else Path(args.scenario) / "result.json"
    save_result(result, out_path)
    print(
        f"solved alpha={alpha:g} solver={solver} objective={result.objective_value:.12g} "
        f"iterations={result.iterations} converged={result.converged} -> {out_path}"
    )
    return 0


def cmd_analyze(args) -> int:
    scenario = load_scenario(args.scenario)
    result = load_result(args.result)
    if result.params.n != scenario.n or result.params.d != scenario.d:
        raise ValueError(
            f"{args.result}: result shape ({result.params.n}, {result.params.d}) does not "
            f"match scenario shape ({scenario.n}, {scenario.d}) of {args.scenario}"
        )
    if args.cluster == "all":
        indices = range(len(scenario.clusters))
    else:
        try:
            idx = int(args.cluster)
        except ValueError:
            raise ValueError(
                f"--cluster must be a cluster index or 'all', got {args.cluster!r}"
            ) from None
        if not (0 <= idx < len(scenario.clusters)):
            raise ValueError(
                f"cluster index {idx} out of range (scenario has "
                f"{len(scenario.clusters)} clusters)"
            )
        indices = [idx]
    problem = _problem(args.scenario, scenario, result.alpha)
    try:
        if problem.alpha == 0.0:
            raise ValueError("the deviation bound needs alpha > 0")
        _check_coupling(problem)
    except ValueError as exc:
        raise ValueError(f"{args.result}: key 'alpha': {exc}") from None
    pairs = []
    for idx in indices:
        cluster = scenario.clusters[idx]
        try:
            pairs += bound_report_rows(problem, result, [cluster], scenario.rng_seed)
        except ValueError as exc:
            blamed = _bound_terms_file(args.scenario, args.result, cluster)
            raise ValueError(f"{blamed}: {exc}") from None
    out_dir = Path(args.out) if args.out else Path(args.scenario)
    out_dir.mkdir(parents=True, exist_ok=True)
    for idx, (report, _) in zip(indices, pairs):
        save_report(report, out_dir / f"report_cluster_{idx}.json")
        print(
            f"cluster {idx}: lhs={report.lhs:.6g} rhs={report.rhs:.6g} "
            f"satisfied={report.satisfied} degenerate={report.degenerate}"
        )
    write_reports_csv(out_dir / "reports.csv", [row for _, row in pairs])
    return 0


def cmd_sweep(args) -> int:
    cfg = _config_from_args(args)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    p_outs = cfg.p_out_list if cfg.p_out_list is not None else [cfg.p_out]
    rows, converged = [], []
    for ip, p_out in enumerate(p_outs):
        scen_dir = out_dir / f"scenario_{ip:02d}"
        scenario = _generate(cfg, p_out)
        # nothing in the loss stack or the memo (Gram matrix, smoothness,
        # cluster geometry) depends on alpha: every alpha shares them
        base = GTVMinProblem.from_scenario(scenario, cfg.alpha_list[0])
        results = []
        for ia, alpha in enumerate(cfg.alpha_list):
            try:
                problem = base._with_alpha(alpha)
                result = _SOLVERS[cfg.solver](problem, cfg.max_iter, cfg.tol)
                pairs = bound_report_rows(problem, result, scenario.clusters, scenario.rng_seed)
            except (ValueError, GTVMinError) as exc:
                # name the config's run that failed
                raise type(exc)(f"config: alpha_list[{ia}] = {alpha:g} in {scen_dir.name}: {exc}") from None
            results.append(result)
            converged.append(result.converged)
            rows += [row for _, row in pairs]
        # a scenario is written only once every alpha's run has succeeded
        save_scenario(scenario, scen_dir)
        for ia, result in enumerate(results):
            save_result(result, scen_dir / f"result_{ia:02d}.json")
    csv_path = out_dir / "sweep.csv"
    write_reports_csv(csv_path, rows)
    unconverged = converged.count(False)
    stalled = f"; {unconverged} of {len(converged)} runs did not converge" if unconverged else ""
    print(f"{len(rows)} rows -> {csv_path}{stalled}")
    return 0


def cmd_selftest(args) -> int:
    # (name, suite, --quick size, summary); a full run takes each suite's default size
    suites = [
        ("deviation bound suite", bound_suite, 20,
         "{0.num_reports} reports, {0.num_degenerate} degenerate, {0.num_violations} violations"),
        ("spectral lower-bound suite", spectral_suite, 20,
         "{0.num_checks} checks, {0.num_violations} violations, "
         "complete-cluster mismatch {0.max_complete_mismatch:.3e}"),
        ("certificate chain suite", certificate_suite, 10,
         "{0.num_records} records, min slacks ({0.min_candidate_slack:.3e}, "
         "{0.min_spectral_slack:.3e}, {0.min_optimality_slack:.3e})"),
        ("solver cross-validation suite", cross_solver_suite, 5,
         "{0.num_scenarios} scenarios, max linf {0.max_linf:.3e}, "
         "max residual ratio {0.max_residual_ratio:.3e}"),
    ]
    all_ok = True
    for name, suite, quick_size, summary in suites:
        outcome = suite(quick_size) if args.quick else suite()
        status = "PASS" if outcome.ok else "FAIL"
        all_ok &= outcome.ok
        print(f"[{status}] {name}: {summary.format(outcome)}")
    return 0 if all_ok else 2


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors, which collides with the
    # numerical-failure exit code; route them through ValueError instead
    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gtvmin", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_flags(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", help="output directory")

    def add_solver_flags(p, alpha_help, alpha_required=False):
        p.add_argument("--alpha", type=float, required=alpha_required, help=alpha_help)
        p.add_argument("--solver", choices=list(_SOLVERS))
        p.add_argument("--max-iter", dest="max_iter", type=int)
        p.add_argument("--tol", type=float, help="iterative solver: stop once the gradient norm "
                       "is at most 2 * tol * ||q||, q the stacked moments X'y/m")

    p_gen = sub.add_parser("generate", help="write a synthetic scenario directory")
    add_config_flags(p_gen)
    p_gen.set_defaults(func=cmd_generate)

    p_solve = sub.add_parser("solve", help="train on a scenario directory")
    p_solve.add_argument("scenario", help="scenario directory")
    add_solver_flags(p_solve, "coupling strength", alpha_required=True)
    p_solve.add_argument("--out", help="result JSON path")
    p_solve.set_defaults(func=cmd_solve)

    p_an = sub.add_parser("analyze", help="deviation bound reports per cluster")
    p_an.add_argument("scenario", help="scenario directory")
    p_an.add_argument("result", help="result JSON written by solve")
    p_an.add_argument("--cluster", default="all", help="cluster index or 'all'")
    p_an.add_argument("--out", help="output directory (default: scenario dir)")
    p_an.set_defaults(func=cmd_analyze)

    p_sweep = sub.add_parser("sweep", help="generate/solve/analyze over alpha_list")
    add_config_flags(p_sweep)
    add_solver_flags(p_sweep, "override alpha_list with one value")
    p_sweep.set_defaults(func=cmd_sweep)

    p_self = sub.add_parser("selftest", help="run the verification suites")
    p_self.add_argument("--quick", action="store_true", help="smaller suite sizes")
    p_self.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    except GTVMinError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())
