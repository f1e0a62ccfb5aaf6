"""Acceptance gate: ten end-to-end criteria with pinned tolerances.

Each test is one criterion; the conftest hook prints a one-line PASS/FAIL
verdict per criterion after the run.  Reference quantities are recomputed
in-test from their definitions (naive polynomial arithmetic, bisection,
spanning-tree sums) so they cannot inherit defects from the package code
they judge."""

import json
import time

import numpy as np
import pytest

from kneejerk import (
    BlockPoint,
    BlockStructure,
    Graph,
    Pow,
    Prod,
    Sum,
    Var,
    check_log_concavity,
    check_log_log_convexity,
    discriminant_polynomial,
    enumerate_spanning_trees,
    eval_log,
    eval_matrix_tree,
    iterate,
    knee_jerk_step,
    main,
    parse_problem,
    polynomial_to_expression,
    run_oracle,
    verify_argmax_property,
)
from generators import (
    connected_simple_graphs,
    dlr_expression,
    interior_point,
    k4_graph,
    naive_poly_eval_int,
    naive_poly_grad,
    random_connected_graph,
    random_expression,
    random_polynomial,
    random_structure,
    shift_vars,
    triangle_graph,
)

SWEEP_TRIALS = 10_000


def _in_test_residual(g, x, structure):
    """Criticality residual recomputed from its definition."""
    worst = 0.0
    for sl in structure.slices:
        gb, xb, wb = g[sl], x[sl], structure.weights[sl]
        m = float(np.sum(gb))
        pos = xb > 0.0
        if not np.any(pos):
            continue
        dev = np.max(np.abs(gb[pos] / (wb[pos] * xb[pos]) - m))
        worst = max(worst, float(dev) / (m + 1.0))
    return worst


def _in_test_certified_rhs(y, x, masses, structure):
    """sum_i m_i I_i(y; x) recomputed from the definition."""
    total = 0.0
    for i, sl in enumerate(structure.slices):
        yb, xb, wb = y[sl], x[sl], structure.weights[sl]
        pos = yb > 0.0
        div = float(np.sum(wb[pos] * yb[pos] * np.log(yb[pos] / xb[pos])))
        total += float(masses[i]) * div
    return total


@pytest.fixture(scope="module")
def ascent_sweep():
    """10^4 random (polynomial, interior point) trials shared by criteria
    1 and 2: plain, weighted, and 2-3-block structures all appear."""
    rng = np.random.default_rng(20260816)
    trials = []
    start = time.perf_counter()
    while len(trials) < SWEEP_TRIALS:
        st = random_structure(rng, max_n=6, max_blocks=3)
        poly = random_polynomial(rng, st.n, max_degree=5)
        expr = polynomial_to_expression(poly)
        x = interior_point(rng, st)
        res = knee_jerk_step(expr, x)
        if any(res.degenerate):
            # redraw: the polynomial missed every variable of some block,
            # so that block has no gradient signal to step with
            continue
        rhs = _in_test_certified_rhs(res.x_new.x, x.x, res.masses, st)
        residual = _in_test_residual(res.gradient, x.x, st)
        trials.append(
            {
                "W": res.W,
                "W_new": res.W_new,
                "bound": res.bound,
                "rhs": rhs,
                "residual": residual,
                "weighted": bool(np.any(st.weights != 1.0)),
                "blocks": st.k,
            }
        )
    elapsed = time.perf_counter() - start
    return {"trials": trials, "elapsed": elapsed}


def test_c01_monotone_ascent_sweep(ascent_sweep):
    # >= 10^4 random pairs: W never drops by more than 1e-10, and it rises
    # strictly wherever the criticality residual exceeds 1e-6.
    trials = ascent_sweep["trials"]
    assert len(trials) == SWEEP_TRIALS
    violations = [t for t in trials if not t["W_new"] >= t["W"] - 1e-10]
    assert violations == []
    moving = [t for t in trials if t["residual"] > 1e-6]
    not_strict = [t for t in moving if not t["W_new"] > t["W"]]
    assert not_strict == []
    assert len(moving) > len(trials) // 2  # the sweep actually exercises motion
    assert ascent_sweep["elapsed"] < 60.0


def test_c02_step_inequality(ascent_sweep):
    # log(Z'/Z) >= sum_i m_i I_i(x'; x) - 1e-9 and the certified side is
    # >= -1e-12, on the same sweep, which includes weighted and multi-block
    # structures.
    trials = ascent_sweep["trials"]
    for t in trials:
        assert t["W_new"] - t["W"] >= t["rhs"] - 1e-9
        assert t["rhs"] >= -1e-12
        # the package's own bound agrees with the in-test recomputation
        assert abs(t["bound"] - t["rhs"]) <= 1e-12 * (1.0 + abs(t["rhs"]))
    assert sum(1 for t in trials if t["weighted"]) >= 1_000
    assert sum(1 for t in trials if t["blocks"] >= 2) >= 1_000


def test_c03_gradient_matches_finite_differences():
    # Scaled gradient vs central differences of W in u = log x, 10^3 pairs,
    # relative error <= 1e-6.
    rng = np.random.default_rng(3)
    h = 1e-5
    checked = 0
    while checked < 1_000:
        n = int(rng.integers(1, 6))
        expr = random_expression(rng, n, depth=3)
        u = rng.uniform(-1.5, 1.5, n)
        g = eval_log(expr, np.exp(u)).g
        fd = np.empty(n)
        for i in range(n):
            up, um = u.copy(), u.copy()
            up[i] += h
            um[i] -= h
            fd[i] = (eval_log(expr, np.exp(up)).W - eval_log(expr, np.exp(um)).W) / (2 * h)
        err = np.max(np.abs(g - fd))
        assert err <= 1e-6 * (1.0 + np.max(np.abs(g))), (err, expr)
        checked += 1


def _bisect_quadratic_root() -> float:
    """Positive root of 394 t^2 - 246 t - 34 by plain bisection on [0, 1]."""
    f = lambda t: 394.0 * t * t - 246.0 * t - 34.0
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_c04_worked_example_root(problem_dir):
    # The shipped two-variable product problem must land within 1e-8 of the
    # positive root of the critical-point quadratic, found here by plain
    # bisection, within 5000 iterations and under a second.
    root = _bisect_quadratic_root()

    problem = parse_problem((problem_dir / "dlr.json").read_text())
    start = time.perf_counter()
    trace = iterate(problem.expression, problem.init, problem.config)
    elapsed = time.perf_counter() - start
    assert trace.status == "converged"
    assert trace.iterations <= 5000
    assert abs(trace.x_final.x[0] - root) <= 1e-8
    assert abs(trace.x_final.x[1] - (1.0 - root)) <= 1e-8
    assert elapsed < 1.0


def test_c05_discriminant_cross_oracle():
    # Enumeration route vs determinant route: exact integer equality on all
    # connected graphs with V <= 4 and on 200 random connected graphs with
    # V <= 6; plus the two structural anchors.
    triangle = discriminant_polynomial(triangle_graph())
    assert triangle.to_json_dict(3) == {
        "n": 3,
        "terms": [{"c": 1.0, "e": [0, 1, 1]}, {"c": 1.0, "e": [1, 0, 1]}, {"c": 1.0, "e": [1, 1, 0]}],
    }
    assert eval_matrix_tree(k4_graph(), [1] * 6) == 16

    rng = np.random.default_rng(5)

    def check(graph):
        weights = [int(w) for w in rng.integers(1, 10, graph.n_vars)]
        by_enum = 0
        for tree in enumerate_spanning_trees(graph):
            prod = 1
            for ei in tree:
                prod *= weights[graph.var_indices[ei]]
            by_enum += prod
        by_det = eval_matrix_tree(graph, weights)
        assert isinstance(by_det, int)
        assert by_det == by_enum
        assert naive_poly_eval_int(discriminant_polynomial(graph), weights) == by_enum

    count_small = 0
    for v in (2, 3, 4):
        for graph in connected_simple_graphs(v):
            check(graph)
            count_small += 1
    assert count_small == 43  # 1 + 4 + 38 connected labeled graphs

    for _ in range(200):
        check(random_connected_graph(rng, min_v=2, max_v=6))


def test_c06_curvature_probes():
    # Every fixture discriminant passes both probes at 100 points; the
    # sum-of-squares control fails the concavity probe.
    cycle5 = Graph(5, tuple((i, (i + 1) % 5) for i in range(5)))
    path4 = Graph(4, ((0, 1), (1, 2), (2, 3)))
    multi3 = Graph(3, ((0, 1), (0, 1), (1, 2)))
    k5 = Graph(5, tuple((i, j) for i in range(5) for j in range(i + 1, 5)))
    fixtures = [triangle_graph(), k4_graph(), cycle5, path4, multi3, k5]
    for graph in fixtures:
        expr = polynomial_to_expression(discriminant_polynomial(graph))
        convex = check_log_log_convexity(expr, samples=100, rng=np.random.default_rng(6))
        assert convex.passed, (graph, convex.worst_eigenvalue)
        concave = check_log_concavity(expr, samples=100, rng=np.random.default_rng(7))
        assert concave.passed, (graph, concave.worst_eigenvalue)

    control = Sum((Pow(Var(0), 2), Pow(Var(1), 2)))
    rep = check_log_concavity(control, samples=100, rng=np.random.default_rng(8))
    assert not rep.passed
    assert rep.worst_eigenvalue > 0.0


def test_c07_reduction_identities():
    # (a) unit-weight step == plain direct formula; (b) single-block
    # structure == plain direct formula; (c) separable objectives step
    # blockwise independently.  All per-coordinate to 1e-12.
    rng = np.random.default_rng(9)

    def plain_direct(poly, x):
        # x'_j = x_j Z_j(x) / sum_k x_k Z_k(x), from naive polynomial
        # derivatives
        g = np.asarray(x) * naive_poly_grad(poly, x)
        return g / g.sum()

    for _ in range(100):
        n = int(rng.integers(2, 7))
        poly = random_polynomial(rng, n, max_degree=5)
        if not poly.E.any():
            continue
        expr = polynomial_to_expression(poly)
        st_plain = BlockStructure((n,))
        st_unit = BlockStructure((n,), np.ones(n))
        x = interior_point(rng, st_plain)
        res_plain = knee_jerk_step(expr, BlockPoint(x.x, st_plain))
        res_unit = knee_jerk_step(expr, BlockPoint(x.x.copy(), st_unit))
        if any(res_plain.degenerate):
            continue
        direct = plain_direct(poly, x.x)
        assert np.max(np.abs(res_plain.x_new.x - res_unit.x_new.x)) <= 1e-12
        assert np.max(np.abs(res_plain.x_new.x - direct)) <= 1e-12

    # separable: Z(x, y) = Z1(x) * Z2(y) over two blocks (weighted too)
    for _ in range(100):
        b1 = int(rng.integers(2, 4))
        b2 = int(rng.integers(2, 4))
        p1 = random_polynomial(rng, b1, max_degree=4)
        p2 = random_polynomial(rng, b2, max_degree=4)
        e1 = polynomial_to_expression(p1)
        e2 = polynomial_to_expression(p2)
        joint = Prod((e1, shift_vars(e2, b1)))
        if rng.random() < 0.5:
            w = np.ones(b1 + b2)
        else:
            w = rng.uniform(0.5, 2.0, b1 + b2)
        st = BlockStructure((b1, b2), w)
        x = interior_point(rng, st)
        res_joint = knee_jerk_step(joint, x)
        if any(res_joint.degenerate):
            continue
        sub1 = BlockStructure((b1,), w[:b1].copy())
        sub2 = BlockStructure((b2,), w[b1:].copy())
        res1 = knee_jerk_step(e1, BlockPoint(x.x[:b1].copy(), sub1))
        res2 = knee_jerk_step(e2, BlockPoint(x.x[b1:].copy(), sub2))
        split = np.concatenate([res1.x_new.x, res2.x_new.x])
        assert np.max(np.abs(res_joint.x_new.x - split)) <= 1e-12


def test_c08_argmax_property():
    # x' maximizes the tangent lower bound: at 120 base points across the
    # fixtures, 1000 random feasible competitors never beat it by more than
    # 1e-9.
    rng = np.random.default_rng(10)
    cases = []
    s2 = BlockStructure((2,))
    for _ in range(40):
        cases.append((dlr_expression(), interior_point(rng, s2)))
    tri = polynomial_to_expression(discriminant_polynomial(triangle_graph()))
    s3 = BlockStructure((3,))
    for _ in range(30):
        cases.append((tri, interior_point(rng, s3)))
    k4e = polynomial_to_expression(discriminant_polynomial(k4_graph()))
    s6 = BlockStructure((6,))
    for _ in range(30):
        cases.append((k4e, interior_point(rng, s6)))
    for _ in range(20):
        st = random_structure(rng)
        poly = random_polynomial(rng, st.n)
        cases.append((polynomial_to_expression(poly), interior_point(rng, st)))

    checked = 0
    for expr, point in cases:
        res = knee_jerk_step(expr, point)
        if any(res.degenerate):
            continue
        rep = verify_argmax_property(expr, point, samples=1000, rng=rng)
        assert rep.passed, rep.margin
        assert rep.margin >= -1e-9
        checked += 1
    assert checked >= 100


def test_c09_oracle_gap(problem_dir):
    # Terminal W matches an exhaustive grid search within the grid's own
    # first-order error bound, for all three shipped problems.
    root = _bisect_quadratic_root()
    for name, resolution in (("dlr.json", 10_000), ("triangle.json", 200), ("k4.json", 24)):
        problem = parse_problem((problem_dir / name).read_text())
        result = run_oracle(problem, resolution)
        assert abs(result.gap) <= result.error_bound, (name, result.gap, result.error_bound)
        if name == "dlr.json":
            # The exhaustive search and the closed-form critical point agree.
            assert abs(result.best_point[0] - root) <= 1e-4


def test_c10_verify_determinism(tmp_path, capsys, problem_dir):
    # Two CLI verify runs with one seed produce byte-identical reports.
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        code = main(
            [
                "verify",
                "--problem",
                str(problem_dir / "dlr.json"),
                "--samples",
                "40",
                "--seed",
                "11",
                "--out",
                str(out),
            ]
        )
        assert code == 0
    capsys.readouterr()
    b1 = (out1 / "verify.json").read_bytes()
    b2 = (out2 / "verify.json").read_bytes()
    assert b1 == b2
    assert json.loads(b1)["pass"] is True
