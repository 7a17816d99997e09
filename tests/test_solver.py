import itertools
import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from gtvmin import (
    DivergenceError,
    GTVMinProblem,
    GraphParams,
    QuadraticLoss,
    SimilarityGraph,
    SingularSystemError,
    StackedParams,
    generate_scenario,
    laplacian,
    load_result,
    objective,
    objective_gradient,
    quadratic_loss,
    save_result,
    solve_exact,
    solve_iterative,
)
from gtvmin.data import LocalDataset
from gtvmin.graph import _components
from gtvmin.solver import _edge_variation, _half_gradient, _step_size
from gtvmin.suites import _cross_solver_problems


def make_problem(seed=1, alpha=1.0, sizes=(4, 4), d=2, m=10, noise=0.1, p_out=0.2):
    scen = generate_scenario(
        rng_seed=seed,
        cluster_sizes=list(sizes),
        d=d,
        m_per_node=m,
        noise_std=noise,
        separation=2.0,
        graph_params=GraphParams(p_in=0.9, p_out=p_out, w_in=1.0, w_out=0.5),
    )
    return scen, GTVMinProblem.from_scenario(scen, alpha)


def kron_quadratic_form(graph, params):
    """Independent route for the total variation: w^T (L kron I) w."""
    lap = laplacian(graph)
    big = np.kron(lap, np.eye(params.d))
    w = params.flat
    return float(w @ big @ w)


def gradient_round(problem, w):
    """One synchronous gradient round of :func:`solve_iterative` from the
    (n, d) array w, each node at its own fixed step."""
    return w - 2.0 * _step_size(problem) * _half_gradient(problem, w)


def total_variation(graph, w):
    """sum_{edges} A_ij ||w_i - w_j||^2 at the (n, d) array w, as the objective sums it."""
    return _edge_variation(graph, w, slice(None))


def stacked_rhs(problem):
    """Oracle route for the right-hand side: the per-node X'y/m."""
    datasets = [loss.dataset for loss in problem.losses]
    return np.concatenate([ds.features.T @ ds.labels / ds.num_samples for ds in datasets])


def dense_system(problem, ridge=0.0):
    """Oracle route for the stationarity matrix: the dense
    blockdiag(gram_i) + alpha (L kron I) + ridge I."""
    n, d = problem.n, problem.d
    mat = np.zeros((n * d, n * d))
    for i, loss in enumerate(problem.losses):
        x = loss.dataset.features
        mat[i * d : (i + 1) * d, i * d : (i + 1) * d] = x.T @ x / loss.dataset.num_samples
    lap = laplacian(problem.graph)
    return mat + problem.alpha * np.kron(lap, np.eye(d)) + ridge * np.eye(n * d)


# ------------------------------------------------------------ total variation

def test_tv_zero_for_identical_params():
    g = SimilarityGraph(3, [(0, 1, 1.0), (1, 2, 2.0)])
    assert total_variation(g, np.tile([1.5, -2.0], (3, 1))) == 0.0


def test_tv_single_edge_hand_value():
    g = SimilarityGraph(2, [(0, 1, 2.0)])
    assert total_variation(g, np.array([[0.0], [3.0]])) == pytest.approx(18.0)


def test_tv_matches_kronecker_form():
    rng = np.random.default_rng(7)
    for seed in range(5):
        scen, problem = make_problem(seed=seed, d=3)
        params = StackedParams(rng.normal(size=(scen.n, 3)))
        edge_sum = total_variation(scen.graph, params.per_node)
        quad_form = kron_quadratic_form(scen.graph, params)
        assert edge_sum == pytest.approx(quad_form, rel=1e-9)


# ----------------------------------------------------------------- objective

def test_objective_alpha_zero_is_loss_sum():
    scen, problem = make_problem(alpha=0.0)
    rng = np.random.default_rng(2)
    params = StackedParams(rng.normal(size=(scen.n, scen.d)))
    loss_sum = sum(
        quadratic_loss(scen.datasets[i], params.per_node[i]) for i in range(scen.n)
    )
    assert objective(problem, params) == pytest.approx(loss_sum, rel=1e-12)


def test_objective_constant_params_has_no_tv_term():
    scen, problem = make_problem(alpha=5.0)
    c = np.array([0.3, -1.1])
    params = StackedParams(np.tile(c, (scen.n, 1)))
    loss_sum = sum(quadratic_loss(ds, c) for ds in scen.datasets)
    assert objective(problem, params) == pytest.approx(loss_sum, rel=1e-12)


def test_objective_matches_reimplementation():
    scen, problem = make_problem(alpha=1.7, d=3)
    rng = np.random.default_rng(3)
    params = StackedParams(rng.normal(size=(scen.n, 3)))
    # independent evaluator: residual loop plus explicit edge loop
    total = 0.0
    for i, ds in enumerate(scen.datasets):
        r = ds.labels - ds.features @ params.per_node[i]
        total += float(r @ r) / ds.num_samples
    for (i, j), w in scen.graph.edges.items():
        diff = params.per_node[i] - params.per_node[j]
        total += 1.7 * w * float(diff @ diff)
    assert objective(problem, params) == pytest.approx(total, rel=1e-10)


def test_objective_matches_per_node_loop_with_unequal_sample_counts():
    rng = np.random.default_rng(24)
    n, d = 7, 3
    datasets = [
        LocalDataset(features=rng.normal(size=(m, d)), labels=rng.normal(size=m))
        for m in rng.integers(1, 12, size=n)
    ]
    graph = SimilarityGraph(n, [(i, i + 1, float(rng.uniform(0.1, 2.0))) for i in range(n - 1)])
    problem = GTVMinProblem([QuadraticLoss(ds) for ds in datasets], graph, 0.6, d)
    params = StackedParams(rng.normal(size=(n, d)))
    loop = sum(quadratic_loss(ds, params.per_node[i]) for i, ds in enumerate(datasets))
    for (i, j), w in graph.edges.items():
        diff = params.per_node[i] - params.per_node[j]
        loop += 0.6 * w * float(diff @ diff)
    assert objective(problem, params) == pytest.approx(loop, rel=1e-13)


def test_objective_reads_exactly_zero_at_an_exact_fit():
    rng = np.random.default_rng(25)
    w = rng.integers(-3, 4, size=(5, 2)).astype(float)
    datasets = []
    for i, m in enumerate([1, 4, 2, 7, 3]):
        x = rng.integers(-5, 6, size=(m, 2)).astype(float)
        datasets.append(LocalDataset(features=x, labels=x @ w[i]))
    problem = GTVMinProblem([QuadraticLoss(ds) for ds in datasets], SimilarityGraph(5), 1.0, 2)
    assert objective(problem, StackedParams(w)) == 0.0


# ---------------------------------------------------------------- solve_exact

def test_solve_exact_alpha_zero_gives_per_node_ols():
    scen, problem = make_problem(alpha=0.0, m=12)
    result = solve_exact(problem)
    for i, ds in enumerate(scen.datasets):
        ols = np.linalg.lstsq(ds.features, ds.labels, rcond=None)[0]
        np.testing.assert_allclose(result.params.per_node[i], ols, atol=1e-9)


def test_solve_exact_single_node_is_ols_for_any_alpha():
    scen = generate_scenario(
        rng_seed=4, cluster_sizes=[1], d=2, m_per_node=9, noise_std=0.2, separation=1.0
    )
    problem = GTVMinProblem.from_scenario(scen, alpha=3.0)
    result = solve_exact(problem)
    ols = np.linalg.lstsq(scen.datasets[0].features, scen.datasets[0].labels, rcond=None)[0]
    np.testing.assert_allclose(result.params.per_node[0], ols, atol=1e-9)


def test_solve_exact_large_alpha_reaches_pooled_solution():
    scen, problem = make_problem(seed=6, alpha=1e6, p_out=0.4)
    result = solve_exact(problem)
    gram = sum(
        ds.features.T @ ds.features / ds.num_samples for ds in scen.datasets
    )
    moment = sum(
        ds.features.T @ ds.labels / ds.num_samples for ds in scen.datasets
    )
    pooled = np.linalg.solve(gram, moment)
    for i in range(scen.n):
        np.testing.assert_allclose(result.params.per_node[i], pooled, atol=1e-3)


def counted_exact_solve(monkeypatch, problem):
    """(solve_exact's result, conjugate-gradient rounds, passes), counted
    from outside: each round applies the matrix once, and each pass once
    more for its true residual."""
    import gtvmin.solver

    calls = []
    product, pcg = gtvmin.solver._system_product, gtvmin.solver._pcg

    def counting_product(*args):
        calls.append("product")
        return product(*args)

    def counting_pcg(*args):
        calls.append("pass")
        return pcg(*args)

    monkeypatch.setattr(gtvmin.solver, "_system_product", counting_product)
    monkeypatch.setattr(gtvmin.solver, "_pcg", counting_pcg)
    result = solve_exact(problem)
    passes = calls.count("pass")
    return result, calls.count("product") - passes, passes


def test_solve_exact_residual_contract(monkeypatch):
    scen, problem = make_problem(seed=8, alpha=2.0)
    result, rounds, _ = counted_exact_solve(monkeypatch, problem)
    assert result.iterations == rounds > 0 and result.converged
    assert result.residual <= 1e-8 * np.linalg.norm(stacked_rhs(problem))
    assert result.objective_value == pytest.approx(
        objective(problem, result.params), rel=1e-10
    )


def test_solve_exact_iterations_sum_the_rounds_of_every_pass(monkeypatch):
    _, problem = make_problem(seed=6, alpha=1e6, p_out=0.4)
    result, rounds, passes = counted_exact_solve(monkeypatch, problem)
    assert passes == 3 and result.iterations == rounds


@pytest.mark.parametrize("seed", [8, 10])
def test_solve_exact_without_coupling_takes_one_round(monkeypatch, seed):
    # with alpha = 0 the block-Jacobi preconditioner is the inverse matrix
    _, problem = make_problem(seed=seed, alpha=0.0, d=3)
    result, rounds, passes = counted_exact_solve(monkeypatch, problem)
    assert result.iterations == rounds == passes == 1


@pytest.mark.parametrize("ridge", [0.0, 0.5])
def test_residual_refusal_names_a_gershgorin_bound_and_the_roundoff_floor(monkeypatch, ridge):
    import gtvmin.solver

    _, problem = make_problem(seed=6, alpha=3.0, d=3)
    w = solve_exact(problem, ridge=ridge).params.flat
    # with no slack at all the gate refuses the solve it just accepted
    monkeypatch.setattr(gtvmin.solver, "_RESIDUAL_RTOL", 0.0)
    with pytest.raises(SingularSystemError) as info:
        solve_exact(problem, ridge=ridge)
    message = str(info.value)
    bound = float(re.search(r"\|\|M\|\| <= (\S+) \(Gershgorin\)", message).group(1))
    floor = float(re.search(r"\|\|w\|\| is about (\S+),", message).group(1))
    assert np.linalg.eigvalsh(dense_system(problem, ridge))[-1] <= bound
    assert floor == pytest.approx(np.finfo(float).eps * bound * np.linalg.norm(w), rel=1e-3)


@pytest.mark.parametrize("shape", [(30, 3), (180, 3), (600, 5)])
def test_pcg_norm_has_the_bits_of_numpy_norm(shape):
    from gtvmin.solver import _norm

    rng = np.random.default_rng(shape[0])
    for scale in (1e-150, 1.0, 1e150):
        x = scale * rng.standard_normal(shape)
        assert _norm(x) == float(np.linalg.norm(x))


def test_solve_exact_singular_raises_and_ridge_recovers():
    # alpha = 0 with fewer samples than parameters: rank-deficient blocks
    rng = np.random.default_rng(9)
    datasets = [
        LocalDataset(features=rng.normal(size=(1, 3)), labels=rng.normal(size=1))
        for _ in range(2)
    ]
    graph = SimilarityGraph(2, [(0, 1, 1.0)])
    problem = GTVMinProblem([QuadraticLoss(ds) for ds in datasets], graph, 0.0, 3)
    with pytest.raises(SingularSystemError):
        solve_exact(problem)
    ridged = solve_exact(problem, ridge=1e-6)
    assert np.all(np.isfinite(ridged.params.per_node))


def test_solve_exact_singular_component_named_and_ridge_recovers():
    # nodes 0-2 form a component with full-rank pooled Gram; nodes 3-4 a
    # component whose two single samples cannot determine d = 3 parameters
    rng = np.random.default_rng(26)
    datasets = [
        LocalDataset(features=rng.normal(size=(m, 3)), labels=rng.normal(size=m))
        for m in (5, 5, 5, 1, 1)
    ]
    graph = SimilarityGraph(5, [(0, 1, 1.0), (1, 2, 0.5), (3, 4, 2.0)])
    problem = GTVMinProblem([QuadraticLoss(ds) for ds in datasets], graph, 1.5, 3)
    with pytest.raises(SingularSystemError, match="2 node\\(s\\) starting at node 3"):
        solve_exact(problem)
    ridged = solve_exact(problem, ridge=1e-6)
    assert np.all(np.isfinite(ridged.params.per_node))
    assert ridged.residual <= 1e-8 * np.linalg.norm(stacked_rhs(problem))


def test_solve_exact_rejects_non_quadratic_losses():
    scen, problem = make_problem()
    losses = [*problem.losses[:2], scen.datasets[2], *problem.losses[3:]]
    # refused when the problem is built, so no solver ever sees it
    with pytest.raises(TypeError, match="^loss 2 is a LocalDataset, not a QuadraticLoss$"):
        GTVMinProblem(losses, scen.graph, problem.alpha, scen.d)


@pytest.mark.parametrize("dims, d", [((3, 3, 3), 2), ((3, 3, 3), 4), ((3, 2, 3), 3)])
def test_problem_rejects_losses_of_another_dimension(dims, d):
    rng = np.random.default_rng(28)
    losses = [
        QuadraticLoss(LocalDataset(features=rng.normal(size=(4, k)), labels=rng.normal(size=4)))
        for k in dims
    ]
    i = next(i for i, k in enumerate(dims) if k != d)
    message = f"^loss {i} has dimension {dims[i]}, expected d = {d}$"
    with pytest.raises(ValueError, match=message):
        GTVMinProblem(losses, SimilarityGraph(3), 1.0, d)


def test_problem_losses_are_immutable_and_stacked_once():
    scen, problem = make_problem()
    with pytest.raises(TypeError):
        problem.losses[0] = QuadraticLoss(scen.datasets[0])
    stack = problem._stack
    objective(problem, StackedParams(np.zeros((problem.n, problem.d))))
    solve_exact(problem)
    assert problem._stack is stack


def bits(a):
    """The float64 bit patterns of ``a``, so that equality is bit equality."""
    return np.asarray(a, dtype=np.float64).view(np.int64)


@pytest.mark.parametrize("d", range(1, 9))
def test_stack_equals_per_node_products_bit_for_bit(d):
    rng = np.random.default_rng(60 + d)
    # every sample count from 1 to 17 twice, in shuffled node order
    counts = rng.permutation(np.repeat(np.arange(1, 18), 2))
    datasets = [
        LocalDataset(
            features=rng.normal(size=(m, d)) * 10.0 ** rng.integers(-3, 4, size=d),
            labels=rng.normal(size=m) * 10.0 ** rng.integers(-3, 4),
        )
        for m in counts
    ]
    n = len(datasets)
    graph = SimilarityGraph(n, [(i, i + 1, 1.0) for i in range(n - 1)])
    gram, moment = GTVMinProblem([QuadraticLoss(ds) for ds in datasets], graph, 0.5, d)._stack
    for i, ds in enumerate(datasets):
        x, y, m = ds.features, ds.labels, ds.num_samples
        np.testing.assert_array_equal(bits(gram[i]), bits(x.T @ x / m))
        np.testing.assert_array_equal(bits(moment[i]), bits(x.T @ y / m))


@pytest.mark.parametrize("alpha, ridge", [(0.0, 0.0), (0.8, 0.0), (2.5, 1e-3)])
def test_assembled_system_matches_kronecker_route(alpha, ridge):
    from gtvmin.solver import _system_product

    rng = np.random.default_rng(7)
    scen, problem = make_problem(seed=21, alpha=alpha, sizes=(4, 3), d=3)
    # random weights, so that the degree sums are not exact in floating point
    edges = [(i, j, float(rng.uniform(0.1, 2.0))) for (i, j) in scen.graph.edges]
    problem = GTVMinProblem(problem.losses, SimilarityGraph(scen.n, edges), alpha, scen.d)
    n, d = scen.n, scen.d
    # the matrix-free operator applied to the identity columns
    columns = [_system_product(problem, ridge, e.reshape(n, d)) for e in np.eye(n * d)]
    mat = np.column_stack([col.reshape(-1) for col in columns])
    expected = dense_system(problem, ridge)
    assert np.max(np.abs(mat - expected)) <= 1e-14 * np.max(np.abs(expected))
    np.testing.assert_array_equal(problem._stack[1].reshape(-1), stacked_rhs(problem))


def on_route(monkeypatch, dense, solve, problem):
    """``solve`` of a fresh copy of ``problem`` with its products forced onto
    the dense route (``dense``) or the CSR route, by the node-count limit."""
    import gtvmin.solver

    monkeypatch.setattr(gtvmin.solver, "_DENSE_NODES", problem.n if dense else problem.n - 1)
    fresh = GTVMinProblem(problem.losses, problem.graph, problem.alpha, problem.d)
    result = solve(fresh)
    assert isinstance(fresh._memo["operators"][0], np.ndarray) == dense
    return result


def half_gradient_roundoff(problem, w):
    """Elementwise bound on the rounding error of the half gradient
    G w + alpha L w - q at w, on either route: gamma_k (|G| |w| +
    alpha |L| |w| + |q|), with k = n + d + 3 covering the longest chain of
    roundings (at most n Laplacian terms, d Gram terms, three more) and
    gamma_k = k eps / (1 - k eps), eps = 2u taking the place of the unit
    roundoff u as a margin of two (Higham, Accuracy and Stability of
    Numerical Algorithms, ch. 3)."""
    eps = np.finfo(float).eps
    k = problem.n + problem.d + 3
    gram, moment = problem._stack
    lap = np.abs(laplacian(problem.graph))
    scale = np.einsum("nij,nj->ni", np.abs(gram), np.abs(w)) + problem.alpha * (lap @ np.abs(w))
    return k * eps / (1 - k * eps) * (scale + np.abs(moment))


def step_roundoff(problem, w, step, grad, new):
    """Elementwise bound on how far two routes' rounds w - step * grad can
    be apart: each gradient (2 g) is within twice the half-gradient bound of
    the exact one, and the product and the difference round once each."""
    eps = np.finfo(float).eps
    return step * (4 * half_gradient_roundoff(problem, w) + eps * np.abs(grad)) + eps * np.abs(new)


@pytest.mark.parametrize("alpha", [0.0, 0.03, 1.0, 40.0])
def test_dense_and_csr_routes_agree_within_roundoff(monkeypatch, alpha):
    eps = np.finfo(float).eps
    rng = np.random.default_rng(40)
    scen, problem = make_problem(seed=40, alpha=alpha, sizes=(7, 5), d=3, p_out=0.3)
    # random weights, so that the degree sums are not exact in floating point
    edges = [(i, j, float(rng.uniform(0.1, 2.0))) for (i, j) in scen.graph.edges]
    problem = GTVMinProblem(problem.losses, SimilarityGraph(scen.n, edges), alpha, scen.d)
    w = rng.normal(size=(scen.n, scen.d))
    params = StackedParams(w)

    def both(solve):
        return [on_route(monkeypatch, dense, solve, problem) for dense in (True, False)]

    grads = both(lambda p: objective_gradient(p, params))
    assert np.all(np.abs(grads[0] - grads[1]) <= 4 * half_gradient_roundoff(problem, w))

    step = _step_size(problem)
    steps = both(lambda p: gradient_round(p, w))
    bound = step_roundoff(problem, w, step, np.abs(grads).max(axis=0), np.abs(steps).max(axis=0))
    assert np.all(np.abs(steps[0] - steps[1]) <= bound)

    # a round is non-expansive in the norm ||x / sqrt(step)|| (the steps
    # bound the Hessian), so the rounds' differences add up at most
    rounds = 25
    iterates = both(lambda p: solve_iterative(p, max_iter=rounds, tol=0.0))
    assert iterates[0].iterations == iterates[1].iterations == rounds
    total, current = 0.0, np.zeros((scen.n, scen.d))
    for _ in range(rounds):
        grad = objective_gradient(problem, StackedParams(current))
        following = gradient_round(problem, current)
        per_round = step_roundoff(problem, current, step, np.abs(grad), np.abs(following))
        total += np.linalg.norm(per_round / np.sqrt(step))
        current = following
    gap = iterates[0].params.per_node - iterates[1].params.per_node
    assert np.linalg.norm(gap) <= np.sqrt(step.max()) * total

    # ||w - w'|| <= (||r|| + ||r'||) / mu_min, each true residual widened by
    # its own roundoff
    mat, rhs = dense_system(problem), stacked_rhs(problem)
    vals = np.linalg.eigvalsh(mat)
    mu_min = vals[0] - mat.shape[0] * eps * vals[-1]

    def residual(v):
        return np.linalg.norm(mat @ v - rhs) + 64 * eps * np.linalg.norm(np.abs(mat) @ np.abs(v) + np.abs(rhs))

    exact = [result.params.flat for result in both(solve_exact)]
    assert np.linalg.norm(exact[0] - exact[1]) <= (residual(exact[0]) + residual(exact[1])) / mu_min


def assert_matches_dense_oracle(problem, ridge=0.0):
    """||w - w_dense|| <= (||r|| + ||r_dense||) / mu_min, where r is the
    residual the solver reports and r_dense the oracle's; both residuals and
    mu_min are widened by their floating-point error."""
    mat, rhs = dense_system(problem, ridge), stacked_rhs(problem)
    result = solve_exact(problem, ridge=ridge)
    w = result.params.flat
    w_dense = scipy.linalg.solve(mat, rhs, assume_a="pos")
    eps = np.finfo(float).eps

    def roundoff(v):
        return 64 * eps * np.linalg.norm(np.abs(mat) @ np.abs(v) + np.abs(rhs))

    vals = np.linalg.eigvalsh(mat)
    mu_min = vals[0] - mat.shape[0] * eps * vals[-1]
    assert mu_min > 0.0
    r_dense = np.linalg.norm(mat @ w_dense - rhs)
    bound = (result.residual + roundoff(w) + r_dense + roundoff(w_dense)) / mu_min
    assert np.linalg.norm(w - w_dense) <= bound


@pytest.mark.parametrize("alpha", [1e-2, 1.0, 1e2, 1e4, 1e6])
def test_solve_exact_matches_dense_oracle_random_weights(alpha):
    rng = np.random.default_rng(28)
    scen, _ = make_problem(seed=28, sizes=(6, 5), d=3, p_out=0.3)
    edges = [(i, j, float(rng.uniform(0.1, 2.0))) for (i, j) in scen.graph.edges]
    problem = GTVMinProblem.from_scenario(scen, alpha)
    problem = GTVMinProblem(problem.losses, SimilarityGraph(scen.n, edges), alpha, scen.d)
    assert_matches_dense_oracle(problem)


def test_solve_exact_matches_dense_oracle_with_ridge():
    _, problem = make_problem(seed=29, alpha=0.7, sizes=(6, 5), d=3)
    assert_matches_dense_oracle(problem, ridge=0.3)


def test_solve_exact_rank_deficient_nodes_on_connected_graph_match_dense_oracle():
    # every local Gram has rank 1 < d, but alpha > 0 pools them over the
    # connected graph: the system is regular and must not be refused
    scen, problem = make_problem(seed=27, alpha=1.0, sizes=(6, 5), d=3, m=1, p_out=0.3)
    assert _components(scen.graph)[0] == 1
    assert_matches_dense_oracle(problem)


@pytest.mark.parametrize("alpha, p_out", [(100.0, 0.005), (0.01, 0.05)])
def test_solve_exact_matches_dense_oracle_ill_conditioned(alpha, p_out):
    # the two ill-conditioned 60-node cases of the iterative solver's stopping rule
    _, problem = make_problem(seed=30, alpha=alpha, sizes=(20, 20, 20), d=3, m=4, p_out=p_out)
    assert_matches_dense_oracle(problem)


def test_solve_exact_long_path_at_large_alpha_matches_dense_oracle():
    # condition number 4e8: the residual norm goes dozens of rounds without
    # a new minimum before converging, and the recursive residual drifts
    # from the true one by more than the residual gate allows
    rng = np.random.default_rng(32)
    n, d = 300, 2
    datasets = [
        LocalDataset(features=rng.normal(size=(4, d)), labels=rng.normal(size=4))
        for _ in range(n)
    ]
    path = SimilarityGraph(n, [(i, i + 1, 1.0) for i in range(n - 1)])
    problem = GTVMinProblem([QuadraticLoss(ds) for ds in datasets], path, 1e8, d)
    assert_matches_dense_oracle(problem)


def test_solve_exact_never_forms_the_dense_matrix():
    # n d = 20 000 unknowns: the dense matrix alone would take 3.2 GB
    n, d = 4000, 5
    rng = np.random.default_rng(31)
    ring = [(i, (i + 1) % n, 1.0) for i in range(n)]
    chords = {tuple(sorted(pair)) for pair in rng.integers(0, n, size=(2 * n, 2)).tolist()}
    chords -= {(i, i) for i in range(n)} | {tuple(sorted(e[:2])) for e in ring}
    edges = ring + [(i, j, float(rng.uniform(0.1, 1.0))) for i, j in sorted(chords)]
    datasets = [
        LocalDataset(features=rng.normal(size=(8, d)), labels=rng.normal(size=8))
        for _ in range(n)
    ]
    graph = SimilarityGraph(n, edges)
    problem = GTVMinProblem([QuadraticLoss(ds) for ds in datasets], graph, 1.0, d)
    tracemalloc.start()
    try:
        result = solve_exact(problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert result.residual <= 1e-8 * np.linalg.norm(stacked_rhs(problem))


@pytest.mark.parametrize("sizes", [(1, 1), (2, 1), (3, 2), (6, 5)])
def test_step_size_matches_dense_spectrum(sizes):
    for seed in range(5):
        scen, problem = make_problem(seed=seed, alpha=1.7, sizes=sizes, p_out=0.5)
        smooth = np.array([
            2.0 * np.linalg.eigvalsh(ds.features.T @ ds.features / ds.num_samples)[-1]
            for ds in scen.datasets
        ])
        degrees = np.diag(laplacian(scen.graph))
        expected = 1.0 / (smooth + 4.0 * 1.7 * degrees)
        step = _step_size(problem)
        assert step.shape == (scen.n, scen.d) and step.flags.c_contiguous
        assert (step == step[:, :1]).all()
        np.testing.assert_allclose(step[:, 0], expected, rtol=1e-13)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 10**6))
def test_step_sizes_bound_the_hessian(seed):
    # D^(1/2) H D^(1/2) <= I for H = 2 Q + 2 alpha (L kron I) and D the
    # steps: the fixed-step rounds never raise the objective
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(1, 9)), int(rng.integers(1, 4))
    datasets = [
        LocalDataset(rng.normal(size=(m, d)) * 10 ** rng.uniform(-2, 2), rng.normal(size=m))
        for m in rng.integers(1, 6, size=n)
    ]
    edges = [
        (i, j, float(10 ** rng.uniform(-2, 2)))
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < 0.5
    ]
    alpha = float(rng.choice([0.0, 10 ** rng.uniform(-3, 3)]))
    problem = GTVMinProblem([QuadraticLoss(ds) for ds in datasets], SimilarityGraph(n, edges), alpha, d)
    root = np.sqrt(_step_size(problem).reshape(-1))
    scaled = root[:, None] * (2.0 * dense_system(problem)) * root[None, :]
    assert np.linalg.eigvalsh(scaled)[-1] <= 1.0 + 16 * n * d * np.finfo(float).eps


def test_step_size_never_reads_the_laplacian(monkeypatch):
    def refused(self):
        raise AssertionError("the step size read the Laplacian")

    scen, problem = make_problem(seed=3, alpha=2.0, sizes=(5, 4), p_out=0.3)
    # the dense Laplacian (small problems) and the CSR one (large problems)
    monkeypatch.setattr("gtvmin.solver.laplacian", refused)
    monkeypatch.setattr(SimilarityGraph, "_laplacian_csr", refused)
    assert np.all(_step_size(problem) > 0.0)
    with pytest.raises(AssertionError, match="read the Laplacian"):
        gradient_round(problem, np.zeros((scen.n, scen.d)))


def test_step_size_is_computed_once_per_problem(monkeypatch):
    import gtvmin.solver

    calls = []
    smoothness = gtvmin.solver._smoothness

    def counting_smoothness(problem):
        calls.append(problem.n)
        return smoothness(problem)

    monkeypatch.setattr(gtvmin.solver, "_smoothness", counting_smoothness)
    scen, problem = make_problem(seed=4, alpha=1.0)
    first = solve_iterative(problem, max_iter=7, tol=0.0)
    again = solve_iterative(problem, max_iter=7, tol=0.0)
    w = np.zeros((scen.n, scen.d))
    for _ in range(7):
        w = gradient_round(problem, w)
    assert len(calls) == 1
    np.testing.assert_array_equal(bits(first.params.per_node), bits(w))
    np.testing.assert_array_equal(bits(again.params.per_node), bits(w))
    # the step belongs to the problem, not to its graph or its losses
    fresh = GTVMinProblem(problem.losses, problem.graph, problem.alpha, problem.d)
    gradient_round(fresh, w)
    solve_iterative(fresh, max_iter=7, tol=0.0)
    assert len(calls) == 2
    # the same problem at another alpha shares its smoothness, and its steps
    # are the steps of a fresh problem at that alpha, bit for bit
    other = problem._with_alpha(2.0)
    assert other._stack is problem._stack
    assert other._memo is problem._memo
    assert set(problem._memo) == {"operators", "smoothness"}
    expected = solve_iterative(GTVMinProblem(problem.losses, problem.graph, 2.0, problem.d), max_iter=7, tol=0.0)
    got = solve_iterative(other, max_iter=7, tol=0.0)
    np.testing.assert_array_equal(bits(got.params.per_node), bits(expected.params.per_node))
    assert problem.alpha == 1.0 and len(calls) == 3


# ------------------------------------------------------------ solve_iterative

def test_iterative_alpha_zero_matches_exact():
    scen, problem = make_problem(seed=10, alpha=0.0, sizes=(3, 3), m=12)
    exact = solve_exact(problem)
    iterative = solve_iterative(problem, max_iter=50000, tol=1e-14)
    diff = np.linalg.norm(exact.params.flat - iterative.params.flat)
    assert diff <= 1e-6
    assert iterative.converged


def test_objective_sequence_non_increasing():
    scen, problem = make_problem(seed=12, alpha=1.0)
    w = np.zeros((scen.n, scen.d))
    prev = objective(problem, StackedParams(w))
    for _ in range(300):
        w = gradient_round(problem, w)
        cur = objective(problem, StackedParams(w))
        assert cur <= prev + 1e-9 * max(1.0, abs(prev))
        prev = cur


def test_iterative_matches_exact_on_connected_scenario():
    scen, problem = make_problem(seed=14, alpha=0.5, sizes=(4, 4), m=12)
    exact = solve_exact(problem)
    iterative = solve_iterative(problem, max_iter=10**5, tol=1e-12)
    assert np.max(np.abs(exact.params.per_node - iterative.params.per_node)) <= 1e-5


@pytest.mark.parametrize("tol", [float("inf"), float("nan")])
def test_solve_iterative_rejects_non_finite_tol(tol):
    _, problem = make_problem()
    with pytest.raises(ValueError, match="tol must be finite"):
        solve_iterative(problem, tol=tol)


def test_iterative_divergence_raises(monkeypatch):
    # a smoothness far below the true one makes the fixed step diverge
    monkeypatch.setattr("gtvmin.solver._smoothness", lambda problem: 1e-8)
    _, problem = make_problem(seed=15, alpha=0.0, sizes=(2,), m=8)
    with np.errstate(over="ignore"), pytest.raises(DivergenceError):
        solve_iterative(problem, max_iter=10000, tol=0.0)


def planted_4x400():
    """Sparse clusters on which an objective-decrease rule stopped after
    198 rounds, 1.7e-5 ||q|| from stationarity."""
    scen = generate_scenario(
        rng_seed=2,
        cluster_sizes=[400] * 4,
        d=3,
        m_per_node=6,
        noise_std=0.1,
        separation=2.0,
        graph_params=GraphParams(p_in=0.02, p_out=0.001),
    )
    return GTVMinProblem.from_scenario(scen, 1.0)


# the iterative solves of this file and of the quick cross-solver suite,
# and the 4 x 400 planted nodes at solve_iterative's defaults:
# name -> (problem builder, max_iter, tol)
ITERATIVE_CASES = {
    "planted4x400": (planted_4x400, 10000, 1e-10),
    "seed10": (lambda: make_problem(seed=10, alpha=0.0, sizes=(3, 3), m=12)[1], 50000, 1e-14),
    "seed14": (lambda: make_problem(seed=14, alpha=0.5, sizes=(4, 4), m=12)[1], 10**5, 1e-12),
    "seed16": (lambda: make_problem(seed=16, alpha=1.0)[1], 20000, 1e-13),
    **{f"cross{k}": (lambda k=k: next(itertools.islice(_cross_solver_problems(), k, None)), 10**5, 1e-12) for k in range(5)},
}


@pytest.mark.parametrize("name", list(ITERATIVE_CASES))
def test_converged_iterative_result_meets_its_tolerance(name):
    build, max_iter, tol = ITERATIVE_CASES[name]
    problem = build()
    result = solve_iterative(problem, max_iter=max_iter, tol=tol)
    assert result.converged and result.iterations < max_iter
    assert result.residual <= 2 * tol * np.linalg.norm(problem._stack[1])


def test_iterative_reports_gradient_norm():
    scen, problem = make_problem(seed=16, alpha=1.0)
    result = solve_iterative(problem, max_iter=20000, tol=1e-13)
    grad = objective_gradient(problem, result.params)
    assert result.residual == pytest.approx(np.linalg.norm(grad), rel=1e-12)


# ------------------------------------------------------------------ properties

def test_exact_solution_is_global_minimum_spot_check():
    scen, problem = make_problem(seed=17, alpha=1.3)
    result = solve_exact(problem)
    best = objective(problem, result.params)
    rng = np.random.default_rng(0)
    for _ in range(100):
        noise = rng.normal(scale=rng.choice([1e-3, 1e-1, 1.0]), size=(scen.n, scen.d))
        other = StackedParams(result.params.per_node + noise)
        assert objective(problem, other) >= best - 1e-9


def test_tv_is_monotone_in_alpha():
    scen, _ = make_problem(seed=18, alpha=1.0)
    alphas = [0.01, 0.1, 1.0, 10.0, 100.0]
    tvs = []
    for alpha in alphas:
        problem = GTVMinProblem.from_scenario(scen, alpha)
        result = solve_exact(problem)
        tvs.append(total_variation(scen.graph, result.params.per_node))
    for smaller, larger in zip(tvs[1:], tvs[:-1]):
        assert smaller <= larger + 1e-9


def test_gradient_norm_small_at_exact_solution():
    for seed in range(5):
        scen, problem = make_problem(seed=seed, alpha=0.7)
        result = solve_exact(problem)
        grad = objective_gradient(problem, result.params)
        q_norm = np.linalg.norm(stacked_rhs(problem))
        assert np.linalg.norm(grad) <= 1e-7 * (1.0 + q_norm)


def test_objective_gradient_matches_central_differences():
    rng = np.random.default_rng(19)
    h = 1e-6
    for seed in range(3):
        scen, problem = make_problem(seed=seed, sizes=(3, 2), d=2, alpha=0.8)
        params = StackedParams(rng.normal(size=(scen.n, scen.d)))
        grad = objective_gradient(problem, params).reshape(-1)
        flat = params.flat.copy()
        fd = np.empty_like(flat)
        for j in range(flat.size):
            plus, minus = flat.copy(), flat.copy()
            plus[j] += h
            minus[j] -= h
            fd[j] = (
                objective(problem, StackedParams.from_flat(plus, scen.n, scen.d))
                - objective(problem, StackedParams.from_flat(minus, scen.n, scen.d))
            ) / (2 * h)
        assert np.linalg.norm(grad - fd) <= 1e-5 * max(1.0, np.linalg.norm(fd))


def test_update_locality_exact_equality():
    # node 0 and the last node live in different clusters with no direct edge
    scen, problem = make_problem(seed=20, alpha=1.0, sizes=(4, 4), p_out=0.0)
    near = {j for pair in scen.graph.edges if 0 in pair for j in pair} | {0}
    non_neighbors = [j for j in range(scen.n) if j not in near]
    far_edges = [pair for pair in scen.graph.edges if not near & set(pair)]
    assert non_neighbors and far_edges, "scenario must reach beyond node 0's neighbors"
    rng = np.random.default_rng(1)
    base = rng.normal(size=(scen.n, scen.d))
    stepped = gradient_round(problem, base.copy())
    altered = base.copy()
    altered[non_neighbors] = 0.0
    # a non-neighbor's features scaled, and an edge away from node 0 and its
    # neighbors reweighted: node 0's step reads neither
    datasets = list(scen.datasets)
    far = non_neighbors[-1]
    datasets[far] = LocalDataset(100.0 * datasets[far].features, datasets[far].labels)
    edges = dict(scen.graph.edges)
    edges[far_edges[0]] *= 7.0
    graph = SimilarityGraph(scen.n, [(i, j, w) for (i, j), w in edges.items()])
    far_problem = GTVMinProblem([QuadraticLoss(ds) for ds in datasets], graph, problem.alpha, scen.d)
    for other, params in [(problem, altered), (far_problem, base), (far_problem, altered)]:
        stepped_other = gradient_round(other, params.copy())
        assert np.array_equal(stepped[0], stepped_other[0])


# ------------------------------------------------------------------------ IO

def test_result_json_roundtrip(tmp_path):
    scen, problem = make_problem(seed=23, alpha=1.0)
    result = solve_exact(problem)
    path = tmp_path / "result.json"
    save_result(result, path)
    loaded = load_result(path)
    np.testing.assert_array_equal(loaded.params.per_node, result.params.per_node)
    assert loaded.objective_value == result.objective_value
    assert loaded.iterations == result.iterations
    assert loaded.converged == result.converged
    assert loaded.residual == result.residual
    assert loaded.alpha == result.alpha


# ------------------------------------------------------------------ overflow

@pytest.mark.parametrize(
    "labels, node",
    [([1.0, 1.0, 1e200], 2), ([1.2e154, 1.2e154, 1.0], 1)],
    ids=["node-energy", "running-energy-sum"],
)
def test_loss_terms_that_overflow_are_refused_naming_the_node(labels, node):
    import warnings

    datasets = [LocalDataset(np.ones((1, 1)), np.array([y])) for y in labels]
    graph = SimilarityGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match=rf"^the quadratic loss terms overflow at node {node}$"):
            GTVMinProblem([QuadraticLoss(ds) for ds in datasets], graph, 1.0, 1)
    assert caught == []


def test_alpha_whose_coupling_overflows_is_refused_by_both_solvers():
    import warnings

    _, problem = make_problem(alpha=1e308)
    degrees = problem.graph.weighted_degrees()
    node = int(np.argmax(degrees))
    message = (
        f"alpha 1e+308 overflows the coupling: 4 * alpha * the weighted degree "
        f"{degrees[node]:g} of node {node} is not finite"
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for solve in (solve_exact, solve_iterative):
            with pytest.raises(ValueError) as info:
                solve(problem)
            assert str(info.value) == message
    assert caught == []
