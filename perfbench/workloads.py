"""The benchmark workloads.

Each workload builds its inputs from the seed in ``setup`` (timed as part of
set-up), runs one operation per ``run`` call (timed), checks each output
cheaply in ``check`` right after the operation (untimed), and checks the
kept outputs against the reference computations in ``verify`` once the
timed loop is over (untimed, after peak RSS has been read, so the reference
work does not raise it). ``check`` and ``verify`` raise CheckFailed.
"""

from __future__ import annotations

import contextlib
import filecmp
import io
import json
import shutil
from pathlib import Path

import numpy as np

import gtvmin as g


class CheckFailed(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _edge_arrays(edges) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    keys = sorted(edges)
    ii = np.array([i for i, _ in keys], dtype=int)
    jj = np.array([j for _, j in keys], dtype=int)
    ww = np.array([edges[k] for k in keys], dtype=float)
    return ii, jj, ww


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(b))


def _cli(argv) -> tuple[int, str]:
    from gtvmin import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


class CertifyDense:
    """from_scenario -> solve_exact -> bound report + certificate per cluster."""

    keeps_outputs = True

    def setup(self, seed: int, workdir: Path) -> None:
        self.scenario = g.generate_scenario(
            rng_seed=seed,
            cluster_sizes=[150] * 4,
            d=5,
            m_per_node=10,
            noise_std=0.1,
            separation=2.0,
            graph_params=g.GraphParams(p_in=0.3, p_out=0.01),
        )
        self.alpha = 1.0

    def run(self):
        problem = g.GTVMinProblem.from_scenario(self.scenario, self.alpha)
        result = g.solve_exact(problem)
        checked = [
            (g.deviation_bound_report(problem, result, cluster), g.certificate_check(problem, result, cluster))
            for cluster in self.scenario.clusters
        ]
        return result, checked

    def check(self, output) -> None:
        result, checked = output
        for k, (report, cert) in enumerate(checked):
            require(not report.degenerate and report.satisfied, f"cluster {k}: report {report}")
            require(cert.holds and not cert.degenerate, f"cluster {k}: certificate {cert}")
        require(np.all(np.isfinite(result.params.per_node)), "non-finite parameters")

    def verify(self, outputs) -> dict:
        import reference

        sc = self.scenario
        ii, jj, ww = _edge_arrays(sc.graph.edges)
        system = reference.assemble(
            [ds.features for ds in sc.datasets], [ds.labels for ds in sc.datasets], ii, jj, ww, self.alpha
        )
        w_ref, _ = reference.pcg_block_jacobi(system)
        mu = reference.smallest_eigenvalue(system.matrix)
        ref_error = system.residual_bound(w_ref) / mu
        spectra = [
            (
                reference.induced_lambda2(sc.n, ii, jj, ww, c.members),
                reference.boundary(sc.n, ii, jj, ww, c.members),
            )
            for c in sc.clusters
        ]
        max_degree = float(np.bincount(np.concatenate([ii, jj]), weights=np.concatenate([ww, ww])).max())
        failures = {}
        for index, (result, checked) in outputs.items():
            try:
                w = result.params.flat
                bound = system.residual_bound(w) / mu + ref_error
                error = float(np.linalg.norm(w - w_ref))
                require(error <= bound, f"||w - w_ref|| = {error:.3e} > {bound:.3e}")
                for c, (report, _), (lam2, bd) in zip(sc.clusters, checked, spectra):
                    require(
                        abs(report.lambda2 - lam2) <= 1e-10 * max_degree,
                        f"lambda2 {report.lambda2!r} vs reference {lam2!r}",
                    )
                    require(_close(report.boundary, bd, 1e-12), f"boundary {report.boundary!r} vs {bd!r}")
                    lhs = reference.deviation_sum(result.params.per_node, c.members)
                    require(_close(report.lhs, lhs, 1e-9), f"lhs {report.lhs!r} vs {lhs!r}")
            except CheckFailed as exc:
                failures[index] = str(exc)
        return failures


class IterateSparse:
    """solve_iterative with a fixed round count on a kNN graph of local estimates."""

    keeps_outputs = True
    rounds = 600
    k = 8
    sigma = 1.0
    # ||grad f|| / ||q|| that 600 rounds must reach; see README.md
    max_gradient_ratio = 1e-9

    def setup(self, seed: int, workdir: Path) -> None:
        scenario = g.generate_scenario(
            rng_seed=seed,
            cluster_sizes=[400] * 4,
            d=3,
            m_per_node=10,
            noise_std=0.1,
            separation=2.0,
            graph_params=g.GraphParams(p_in=0.0, p_out=0.0),
        )
        self.datasets = scenario.datasets
        features = np.stack([ds.features for ds in scenario.datasets])
        labels = np.stack([ds.labels for ds in scenario.datasets])
        # each node's local least-squares estimate
        grams = np.einsum("nmi,nmj->nij", features, features)
        moments = np.einsum("nmi,nm->ni", features, labels)
        self.embedding = np.linalg.solve(grams, moments[..., None])[..., 0]
        self.graph = g.graph_from_embedding(g.Embedding(self.embedding), k=self.k, sigma=self.sigma)
        self.problem = g.GTVMinProblem(
            [g.QuadraticLoss(ds) for ds in scenario.datasets], self.graph, 1.0, scenario.d
        )

    def run(self):
        return g.solve_iterative(self.problem, max_iter=self.rounds, tol=0.0)

    def check(self, result) -> None:
        require(result.iterations == self.rounds, f"{result.iterations} rounds, expected {self.rounds}")
        require(np.all(np.isfinite(result.params.per_node)), "non-finite parameters")

    def verify(self, outputs) -> dict:
        import reference

        knn = reference.union_knn(self.embedding, self.k, self.sigma)
        require(set(knn) == set(self.graph.edges), "kNN edge set differs from the reference")
        for key, weight in knn.items():
            require(_close(self.graph.edges[key], weight, 1e-12), f"edge {key} weight differs")
        ii, jj, ww = _edge_arrays(self.graph.edges)
        system = reference.assemble(
            [ds.features for ds in self.datasets], [ds.labels for ds in self.datasets], ii, jj, ww, 1.0
        )
        w_ref, _ = reference.pcg_block_jacobi(system)
        mu = reference.smallest_eigenvalue(system.matrix)
        ref_error = system.residual_bound(w_ref) / mu
        q_norm = float(np.linalg.norm(system.rhs))
        # f(w*) >= f(w_ref) - ||M w_ref - q||^2 / mu
        f_star_upper = system.objective(w_ref)
        failures = {}
        for index, result in outputs.items():
            try:
                w = result.params.flat
                grad = float(np.linalg.norm(system.gradient(w)))
                roundoff = 2.0 * system.roundoff(w)
                require(
                    abs(result.residual - grad) <= roundoff + 1e-12 * grad,
                    f"reported residual {result.residual!r} vs reference {grad!r}",
                )
                require(
                    result.objective_value >= f_star_upper - ref_error**2 * mu - 1e-12 * max(1.0, system.energy),
                    f"objective {result.objective_value!r} below f(w*) ~ {f_star_upper!r}",
                )
                bound = (grad + roundoff) / (2.0 * mu) + ref_error
                error = float(np.linalg.norm(w - w_ref))
                require(error <= bound, f"||w - w*|| = {error:.3e} > ||grad||/(2 mu) = {bound:.3e}")
                ratio = grad / q_norm
                require(ratio <= self.max_gradient_ratio, f"||grad f||/||q|| = {ratio:.3e}")
            except CheckFailed as exc:
                failures[index] = str(exc)
        return failures


class CliRoundtrip:
    """In-process ``gtvmin sweep``, ``gtvmin analyze`` per result, then
    ``gtvmin selftest --quick``.

    The quick selftest keeps the gtvmin.suites layer measured. The full
    selftest is not a workload of its own: made of hundreds of tiny,
    interpreter-bound problems, its run-to-run spread on a shared host
    (0.35 of its median over 20 runs) exceeds any bound the benchmark may
    set.
    """

    keeps_outputs = False
    p_outs = [0.01, 0.05, 0.1]
    alphas = [0.5, 1.0, 5.0]
    clusters = 3

    def setup(self, seed: int, workdir: Path) -> None:
        from gtvmin import cli  # noqa: F401  (part of the workload's import cost)

        self.workdir = workdir
        self.config = workdir / "config.json"
        self.config.write_text(
            json.dumps(
                {
                    "seed": seed,
                    "cluster_sizes": [60] * self.clusters,
                    "d": 3,
                    "m_per_node": 10,
                    "noise_std": 0.1,
                    "separation": 2.0,
                    "p_in": 0.5,
                    "p_out": 0.05,
                    "p_out_list": self.p_outs,
                    "alpha_list": self.alphas,
                }
            )
        )
        self.count = 0
        self.first_sweep = None

    def run(self):
        op_dir = self.workdir / f"op_{self.count:05d}"
        self.count += 1
        sweep = op_dir / "sweep"
        codes = [_cli(["sweep", "--config", str(self.config), "--out", str(sweep)])[0]]
        for ip in range(len(self.p_outs)):
            scen = sweep / f"scenario_{ip:02d}"
            for ia in range(len(self.alphas)):
                codes.append(
                    _cli(
                        [
                            "analyze",
                            str(scen),
                            str(scen / f"result_{ia:02d}.json"),
                            "--out",
                            str(op_dir / f"analyze_{ip}_{ia}"),
                        ]
                    )[0]
                )
        selftest = _cli(["selftest", "--quick"])
        return op_dir, codes, selftest

    def check(self, output) -> None:
        op_dir, codes, (selftest_code, selftest_text) = output
        try:
            require(all(c == 0 for c in codes), f"exit codes {codes}")
            suites = selftest_text.splitlines()
            require(
                selftest_code == 0 and len(suites) == 4 and all(ln.startswith("[PASS]") for ln in suites),
                f"selftest --quick exit code {selftest_code}, output {selftest_text!r}",
            )
            lines = (op_dir / "sweep" / "sweep.csv").read_text().splitlines()
            rows = lines[1:]
            expected = len(self.p_outs) * len(self.alphas) * self.clusters
            require(len(rows) == expected, f"sweep.csv has {len(rows)} rows, expected {expected}")
            header = lines[0].split(",")
            for row in rows:
                cells = dict(zip(header, row.split(",")))
                require(cells["satisfied"] == "true" and cells["degenerate"] == "false", f"row {row}")
            for ip in range(len(self.p_outs)):
                for ia in range(len(self.alphas)):
                    got = (op_dir / f"analyze_{ip}_{ia}" / "reports.csv").read_text().splitlines()
                    start = (ip * len(self.alphas) + ia) * self.clusters
                    require(got[0] == lines[0], "analyze header differs")
                    require(
                        got[1:] == rows[start : start + self.clusters],
                        f"analyze rows for scenario {ip}, alpha {ia} differ from sweep.csv",
                    )
            if self.first_sweep is None:
                self.first_sweep = op_dir / "sweep"
            else:
                _require_same_tree(self.first_sweep, op_dir / "sweep")
        finally:
            if self.first_sweep is None or self.first_sweep.parent != op_dir:
                shutil.rmtree(op_dir, ignore_errors=True)

    def verify(self, outputs) -> dict:
        return {}


def _require_same_tree(a: Path, b: Path) -> None:
    names_a = sorted(p.relative_to(a) for p in a.rglob("*"))
    names_b = sorted(p.relative_to(b) for p in b.rglob("*"))
    require(names_a == names_b, "two sweeps from one config wrote different files")
    for rel in names_a:
        if (a / rel).is_file():
            require(filecmp.cmp(a / rel, b / rel, shallow=False), f"sweep file {rel} differs between runs")


WORKLOADS = {
    "certify_dense": CertifyDense,
    "iterate_sparse": IterateSparse,
    "cli_roundtrip": CliRoundtrip,
}
