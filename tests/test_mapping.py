"""Tests for the multiplicative update step and the iteration driver."""

import math
from dataclasses import fields

import numpy as np
import pytest
from numpy.testing import assert_allclose

from kneejerk import (
    BlockPoint,
    BlockStructure,
    Const,
    IterationConfig,
    LogEval,
    MatrixPolynomial,
    Pow,
    Prod,
    StepResult,
    Sum,
    Var,
    barycenter,
    criticality_residual,
    eval_log,
    i_divergence,
    i_divergence_blocks,
    iterate,
    knee_jerk_step,
    normalize,
    polynomial_to_expression,
)
from kneejerk import mapping
from kneejerk.cli import parse_problem
from kneejerk.expr import _eval_log_gradients
from kneejerk.simplex import _check_feasible, _dirichlet_rows
from generators import (
    dlr_expression,
    interior_point,
    poly_terms,
    random_polynomial,
    random_structure,
    triangle_graph,
    discriminant_expression,
)


def _bisect_quadratic_root():
    """Root of 394 t^2 - 246 t - 34 in (0, 1), found by plain bisection.

    Setting the derivative of 34 log t + 38 log(1-t) + 125 log(1+2t) to zero
    and clearing denominators gives exactly this quadratic, so its root is
    where the two-variable product example must converge."""
    f = lambda t: 394.0 * t * t - 246.0 * t - 34.0
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


QUADRATIC_ROOT = _bisect_quadratic_root()


class TestStep:
    def test_two_variable_product_example(self):
        s = BlockStructure((2,))
        x = BlockPoint(np.array([0.5, 0.5]), s)
        res = knee_jerk_step(dlr_expression(), x)
        # g = (96.5, 38), mass 134.5, so the update is g / 134.5.
        assert_allclose(res.masses, [134.5], rtol=1e-13)
        assert_allclose(res.x_new.x, [96.5 / 134.5, 38.0 / 134.5], rtol=1e-13)
        assert res.degenerate == (False,)
        assert res.bound > 0.0
        assert res.W_new - res.W >= res.bound - 1e-9

    def test_weighted_two_variable_example(self):
        # Z = x + y on the weighted simplex 2x + y = 1, from its barycenter
        # (1/4, 1/2): gradient (1/3, 2/3), mass 1, update ((1/3)/2, 2/3).
        s = BlockStructure((2,), np.array([2.0, 1.0]))
        x = barycenter(s)
        res = knee_jerk_step(Sum((Var(0), Var(1))), x)
        assert_allclose(res.gradient, [1 / 3, 2 / 3], rtol=1e-13)
        assert_allclose(res.masses, [1.0], rtol=1e-13)
        assert_allclose(res.x_new.x, [1 / 6, 2 / 3], rtol=1e-13)
        assert abs(2.0 * res.x_new.x[0] + res.x_new.x[1] - 1.0) <= 1e-15

    def test_sum_objective_fixes_every_point(self):
        rng = np.random.default_rng(51)
        s = BlockStructure((3,))
        expr = Sum((Var(0), Var(1), Var(2)))
        for _ in range(20):
            x = interior_point(rng, s)
            res = knee_jerk_step(expr, x)
            assert_allclose(res.x_new.x, x.x, rtol=0, atol=1e-15)
            assert res.bound <= 1e-15

    def test_monomial_jumps_to_exponent_profile(self):
        # For c * x^2 y^3 the scaled gradient is (2, 3) everywhere, so a
        # single step lands on (2/5, 3/5) from any interior point.
        rng = np.random.default_rng(52)
        expr = Prod((Const(4.0), Pow(Var(0), 2), Pow(Var(1), 3)))
        s = BlockStructure((2,))
        for _ in range(10):
            x = interior_point(rng, s)
            res = knee_jerk_step(expr, x)
            assert_allclose(res.x_new.x, [0.4, 0.6], rtol=1e-12)

    def test_boundary_coordinates_stay_exactly_zero(self):
        s = BlockStructure((2,))
        x = BlockPoint(np.array([1.0, 0.0]), s)
        expr = Sum((Pow(Var(0), 2), Var(1)))
        res = knee_jerk_step(expr, x)
        assert res.x_new.x[1] == 0.0
        assert res.x_new.x[0] == 1.0

    def test_degenerate_constant_objective(self):
        s = BlockStructure((2,))
        x = BlockPoint(np.array([0.3, 0.7]), s)
        res = knee_jerk_step(Const(3.0), x)
        assert res.degenerate == (True,)
        assert_allclose(res.x_new.x, x.x, rtol=0, atol=1e-15)
        assert_allclose(res.W, math.log(3.0), rtol=1e-15)
        assert res.W_new == res.W
        assert res.bound == 0.0

    def test_degenerate_block_is_flagged_and_left_alone(self):
        # Objective ignores the second block entirely.
        s = BlockStructure((2, 2))
        x = BlockPoint(np.array([0.3, 0.7, 0.25, 0.75]), s)
        expr = Sum((Pow(Var(0), 2), Var(1)))
        res = knee_jerk_step(expr, x)
        assert res.degenerate == (False, True)
        assert_allclose(res.x_new.x[2:], [0.25, 0.75], rtol=0, atol=1e-15)
        assert res.masses[1] == 0.0

    def test_feasibility_is_preserved_exactly(self):
        rng = np.random.default_rng(53)
        for _ in range(100):
            st = random_structure(rng)
            poly = random_polynomial(rng, st.n)
            x = interior_point(rng, st)
            res = knee_jerk_step(polynomial_to_expression(poly), x)
            for sl in st.slices:
                total = float(st.weights[sl] @ res.x_new.x[sl])
                assert abs(total - 1.0) <= 5e-15

    def test_objective_vanishing_on_support_raises(self):
        s = BlockStructure((2,))
        x = BlockPoint(np.array([1.0, 0.0]), s)
        with pytest.raises(ValueError, match="vanishes"):
            knee_jerk_step(Prod((Var(0), Var(1))), x)

    def test_structure_of_result_is_shared(self):
        s = BlockStructure((2,))
        x = BlockPoint(np.array([0.5, 0.5]), s)
        res = knee_jerk_step(dlr_expression(), x)
        assert res.x_new.structure == s

    def test_triangle_barycenter_is_fixed(self):
        s = BlockStructure((3,))
        x = BlockPoint(np.full(3, 1 / 3), s)
        res = knee_jerk_step(discriminant_expression(triangle_graph()), x)
        assert_allclose(res.x_new.x, x.x, rtol=1e-12)

    def test_expression_must_fit_structure(self):
        s = BlockStructure((2,))
        x = BlockPoint(np.array([0.5, 0.5]), s)
        with pytest.raises(ValueError, match="variable"):
            knee_jerk_step(Var(4), x)

    @pytest.mark.parametrize("weight", np.linspace(0.5, 2.0, 31))
    def test_subnormal_gradient_mass_steps_cleanly(self, weight):
        # The second coordinate's gradient weight, and so the block's mass,
        # is subnormal; its quotient by that mass is still exactly 1.
        s = BlockStructure((2,), [1.0, weight])
        x = BlockPoint(np.array([0.5, 0.5 / weight]), s)
        expr = Sum((Const(1.0), Prod((Const(3e-316), Var(1)))))
        res = knee_jerk_step(expr, x)
        assert res.degenerate == (False,)
        assert res.x_new.x[0] == 0.0
        assert abs(weight * res.x_new.x[1] - 1.0) <= 1e-15
        # The same block after one with normal gradient mass: each block
        # divides by its own mass, not by the other block's larger one.
        s = BlockStructure((2, 2), [1.0, 1.0, 1.0, weight])
        x = BlockPoint(np.array([0.5, 0.5, 0.5, 0.5 / weight]), s)
        tail = Sum((Const(1.0), Prod((Const(3e-316), Var(3)))))
        res = knee_jerk_step(Prod((Var(0), tail)), x)
        assert res.degenerate == (False, False)
        assert res.masses[0] == 1.0 and 0.0 < res.masses[1] < 1e-300
        assert res.x_new.x.tolist()[:3] == [1.0, 0.0, 0.0]
        assert abs(weight * res.x_new.x[3] - 1.0) <= 1e-15

    def test_given_start_evaluation_changes_nothing(self):
        rng = np.random.default_rng(54)
        cases = [(dlr_expression(), BlockPoint(np.array([0.5, 0.5]), BlockStructure((2,))))]
        for _ in range(20):
            st = random_structure(rng)
            poly = random_polynomial(rng, st.n)
            cases.append((polynomial_to_expression(poly), interior_point(rng, st)))
        for expr, x in cases:
            own = knee_jerk_step(expr, x)
            given = knee_jerk_step(expr, x, start=eval_log(expr, x.x))
            for f in fields(StepResult):
                a, b = getattr(own, f.name), getattr(given, f.name)
                if f.name == "x_new":
                    a, b = a.x, b.x
                assert np.array_equal(a, b), f.name
            assert own.divergence == i_divergence(own.x_new, x)
            per_block = i_divergence_blocks(own.x_new, x)
            bound = 0.0
            for m, d in zip(own.masses, per_block):
                if m > 0.0:
                    bound += float(m) * float(d)
            assert own.bound == bound


class TestResidual:
    def test_zero_for_linear_objective(self):
        rng = np.random.default_rng(61)
        s = BlockStructure((4,))
        expr = Sum((Var(0), Var(1), Var(2), Var(3)))
        for _ in range(10):
            x = interior_point(rng, s)
            assert criticality_residual(expr, x) <= 1e-12

    def test_frozen_value_at_the_half_point(self):
        # g/x = (193, 76) against mass 134.5: both coordinates give
        # 58.5/135.5.
        s = BlockStructure((2,))
        x = BlockPoint(np.array([0.5, 0.5]), s)
        r = criticality_residual(dlr_expression(), x)
        assert_allclose(r, 0.4317343173431734, rtol=1e-12)
        assert r > 0.1

    def test_requires_interior_point(self):
        s = BlockStructure((2,))
        x = BlockPoint(np.array([1.0, 0.0]), s)
        with pytest.raises(ValueError):
            criticality_residual(Sum((Var(0), Var(1))), x)

    def test_tiny_at_the_converged_point(self):
        s = BlockStructure((2,))
        x = BlockPoint(np.array([0.5, 0.5]), s)
        cfg = IterationConfig(max_iters=5000, tol_div=1e-18, tol_w=1e-16)
        trace = iterate(dlr_expression(), x, cfg)
        assert criticality_residual(dlr_expression(), trace.x_final) <= 1e-8


class TestIterate:
    def test_linear_objective_converges_immediately(self):
        s = BlockStructure((2,))
        x = BlockPoint(np.array([0.3, 0.7]), s)
        trace = iterate(Sum((Var(0), Var(1))), x)
        assert trace.status == "converged"
        assert trace.iterations == 1
        assert_allclose(trace.x_final.x, x.x, rtol=0, atol=1e-15)

    def test_product_example_reaches_the_quadratic_root(self):
        s = BlockStructure((2,))
        x = BlockPoint(np.array([0.5, 0.5]), s)
        cfg = IterationConfig(max_iters=5000, tol_div=1e-18, tol_w=1e-16)
        trace = iterate(dlr_expression(), x, cfg)
        assert trace.status == "converged"
        assert abs(trace.x_final.x[0] - QUADRATIC_ROOT) <= 1e-8
        assert abs(trace.x_final.x[1] - (1.0 - QUADRATIC_ROOT)) <= 1e-8

    def test_objective_is_monotone_along_the_trace(self):
        s = BlockStructure((3,))
        x = BlockPoint(np.array([0.2, 0.3, 0.5]), s)
        expr = discriminant_expression(triangle_graph())
        trace = iterate(expr, x, IterationConfig(tol_div=1e-20, tol_w=1e-16))
        ws = [rec.W for rec in trace.records]
        for a, b in zip(ws, ws[1:]):
            assert b >= a - 1e-10
        assert_allclose(trace.W_final, math.log(1 / 3), rtol=1e-12)
        assert_allclose(trace.x_final.x, np.full(3, 1 / 3), atol=1e-6)

    def test_monotone_ascent_random_sweep(self):
        rng = np.random.default_rng(62)
        for _ in range(300):
            st = random_structure(rng)
            poly = random_polynomial(rng, st.n)
            expr = polynomial_to_expression(poly)
            x = interior_point(rng, st)
            res = knee_jerk_step(expr, x)
            assert res.W_new >= res.W - 1e-10

    def test_one_evaluation_per_point(self, monkeypatch):
        calls = []
        real = mapping._eval_log_raw

        def counted(expr, x):
            calls.append(1)
            return real(expr, x)

        monkeypatch.setattr(mapping, "_eval_log_raw", counted)
        s = BlockStructure((3,))
        x = BlockPoint(np.array([0.2, 0.3, 0.5]), s)
        trace = iterate(discriminant_expression(triangle_graph()), x)
        assert trace.iterations > 1
        assert len(calls) == trace.iterations + 1

    def test_residual_reuses_the_step_masses(self, monkeypatch):
        # The trace's residual takes the block masses the step computed, so
        # iterating adds no block sums to those of the steps themselves.
        x = barycenter(BlockStructure((2, 3)))
        expr = polynomial_to_expression(
            MatrixPolynomial([[1, 0, 1, 0, 0], [0, 1, 0, 1, 1]], [1.0, 2.0])
        )
        calls = []
        real = BlockStructure.sums

        def counted(self, v):
            calls.append(1)
            return real(self, v)

        monkeypatch.setattr(BlockStructure, "sums", counted)
        knee_jerk_step(expr, x)
        per_step = len(calls)
        calls.clear()
        trace = iterate(expr, x, IterationConfig(max_iters=4, tol_div=0.0, tol_w=-1.0))
        assert trace.iterations == 4
        assert len(calls) == 4 * per_step

    def test_trace_carries_the_terminal_gradient(self):
        rng = np.random.default_rng(55)
        for _ in range(10):
            st = random_structure(rng)
            expr = polynomial_to_expression(random_polynomial(rng, st.n))
            trace = iterate(expr, interior_point(rng, st), IterationConfig(max_iters=20))
            _, g = mapping._eval_log_raw(expr, trace.x_final.x)
            assert np.array_equal(trace.gradient_final, g)

    def test_degenerate_status(self):
        s = BlockStructure((2,))
        x = BlockPoint(np.array([0.4, 0.6]), s)
        trace = iterate(Const(2.0), x)
        assert trace.status == "degenerate"
        assert trace.iterations == 1

    def test_iteration_cap_status(self):
        s = BlockStructure((2,))
        x = BlockPoint(np.array([0.5, 0.5]), s)
        cfg = IterationConfig(max_iters=3, tol_div=1e-30, tol_w=0.0)
        trace = iterate(dlr_expression(), x, cfg)
        assert trace.status == "max-iterations"
        assert trace.iterations == 3

    def test_trace_stride_keeps_last_record(self):
        s = BlockStructure((3,))
        x = BlockPoint(np.array([0.2, 0.3, 0.5]), s)
        expr = discriminant_expression(triangle_graph())
        cfg = IterationConfig(tol_div=1e-20, tol_w=1e-16, trace_stride=10)
        full = iterate(expr, x, IterationConfig(tol_div=1e-20, tol_w=1e-16))
        strided = iterate(expr, x, cfg)
        assert strided.iterations == full.iterations
        assert len(strided.records) < len(full.records)
        assert strided.records[-1].iteration == full.records[-1].iteration
        assert strided.records[-1].W == full.records[-1].W

    def test_fixed_point_characterization(self):
        # residual < 1e-10 if and only if the step's divergence < 1e-18,
        # across three regimes: generic random points (neither small),
        # exactly-fixed points (both tiny), and tightly converged interior
        # optima (both tiny).
        rng = np.random.default_rng(63)
        cases = []
        for _ in range(100):
            st = random_structure(rng)
            poly = random_polynomial(rng, st.n)
            cases.append((polynomial_to_expression(poly), interior_point(rng, st)))
        s2 = BlockStructure((2,))
        s3 = BlockStructure((3,))
        cases.append((Sum((Var(0), Var(1))), interior_point(rng, s2)))
        cases.append(
            (
                Prod((Const(2.0), Pow(Var(0), 2), Pow(Var(1), 3))),
                BlockPoint(np.array([0.4, 0.6]), s2),
            )
        )
        tight = IterationConfig(max_iters=10000, tol_div=1e-26, tol_w=0.0)
        for expr, x0 in (
            (dlr_expression(), BlockPoint(np.array([0.5, 0.5]), s2)),
            (
                discriminant_expression(triangle_graph()),
                BlockPoint(np.array([0.2, 0.3, 0.5]), s3),
            ),
        ):
            trace = iterate(expr, x0, tight)
            assert trace.status == "converged"
            cases.append((expr, trace.x_final))
        n_small = 0
        for expr, x in cases:
            if not x.interior:
                continue
            res = knee_jerk_step(expr, x)
            if any(res.degenerate):
                continue
            div = i_divergence(res.x_new, x)
            r = criticality_residual(expr, x)
            assert (r < 1e-10) == (div < 1e-18), (r, div)
            if r < 1e-10:
                n_small += 1
        assert n_small >= 3  # the manufactured fixed points actually count


def _loop_divergence(y, x, w):
    """One block's divergence, as the per-block loops computed it."""
    pos = y > 0.0
    if np.any(pos & (x == 0.0)):
        return math.inf
    yp = y[pos]
    return float(np.sum(w[pos] * yp * np.log(yp / x[pos])))


def _loop_step(x, g, structure):
    """The update, its certificate and the residual at ``x``, block by block
    with ``np.sum``: the formulation the segment sums replaced."""
    w = structure.weights
    x_new = np.empty_like(x)
    masses = np.empty(structure.k)
    degenerate = []
    for i, sl in enumerate(structure.slices):
        gb = g[sl]
        m = float(np.sum(gb))
        masses[i] = m
        degenerate.append(m <= 0.0)
        if m <= 0.0 or sl.stop - sl.start == 1:
            x_new[sl] = x[sl]
        else:
            x_new[sl] = gb / m / w[sl]
    bound = 0.0
    divergence = 0.0
    residual = 0.0
    for i, sl in enumerate(structure.slices):
        d = _loop_divergence(x_new[sl], x[sl], w[sl])
        if masses[i] > 0.0:
            bound += float(masses[i]) * d
        divergence += d
        pos = x[sl] > 0.0
        dev = np.abs(g[sl][pos] / (w[sl][pos] * x[sl][pos]) - masses[i])
        if dev.size:
            residual = max(residual, float(np.max(dev)) / (masses[i] + 1.0))
    return x_new, masses, tuple(degenerate), bound, divergence, residual


def _step_cases(rng, count):
    """Random structures (some with blocks of 8 or more coordinates),
    polynomials with a constant term so the objective never vanishes,
    optionally no dependence on one block (a zero-gradient block) and
    boundary zeros in the point."""
    for c in range(count):
        st = random_structure(rng, max_n=6 if c % 2 else 20, max_blocks=4)
        x = interior_point(rng, st).x
        if c % 3 == 0:
            x = x * (rng.random(st.n) < 0.7)
            for sl in st.slices:
                if not np.any(x[sl]):
                    x[sl.start] = 1.0
            x = normalize(x, st).x
        terms = poly_terms(random_polynomial(rng, st.n, max_terms=10), st.n)
        if c % 4 == 1:
            sl = st.slices[int(rng.integers(st.k))]
            terms = [t for t in terms if not any(t[1][sl])]
        terms.append((1.0, [0] * st.n))
        poly = MatrixPolynomial([e for _, e in terms], [a for a, _ in terms])
        yield st, polynomial_to_expression(poly), BlockPoint(x, st)


class TestSegmentSumsMatchBlockLoops:
    def test_bit_equal_below_8_coordinates_and_within_1e_15_otherwise(self):
        rng = np.random.default_rng(707)
        seen = {"singleton": 0, "degenerate": 0, "boundary": 0, "long": 0, "short": 0}
        for st, expr, x in _step_cases(rng, 200):
            res = knee_jerk_step(expr, x)
            got = (
                res.x_new.x, res.masses, res.degenerate, res.bound, res.divergence, res.residual,
            )
            ref = _loop_step(x.x, res.gradient, st)
            short = max(st.blocks) < 8
            assert got[2] == ref[2]
            for a, b in zip(got[:2] + got[3:], ref[:2] + ref[3:]):
                if short:
                    assert np.array_equal(a, b)
                else:
                    assert_allclose(a, b, rtol=1e-15, atol=0)
            seen["singleton"] += 1 in st.blocks
            seen["degenerate"] += any(res.degenerate)
            seen["boundary"] += not x.interior
            seen["long" if not short else "short"] += 1
        assert min(seen.values()) >= 20, seen


def _reference_step(x, g, structure):
    """The update and its certificate from the public pieces: ``sums`` and
    ``index`` for the new point ``(g / m) / a``, with masks, ``i_divergence_blocks``
    for the per-block divergence, and the residual over the positive
    coordinates of ``x`` with masks."""
    w = structure.weights
    masses = structure.sums(g)
    degenerate = masses <= 0.0
    m = masses[structure.index]
    quotient = np.divide(g, m, out=np.zeros(g.shape), where=m > 0.0)
    keep = (np.array(structure.blocks) == 1) | degenerate
    x_new = np.where(keep[structure.index], x, quotient / w)
    d = i_divergence_blocks(x_new, x, structure)
    live = masses > 0.0
    bound = float((masses[live] * d[live]).sum())
    pos = x > 0.0
    m = masses[structure.index][pos]
    residual = float((np.abs(g[pos] / (w[pos] * x[pos]) - m) / (m + 1.0)).max(initial=0.0))
    return x_new, masses, tuple(degenerate.tolist()), bound, float(d.sum()), residual


def _masked_divergences(y, x, structure):
    """Per-block divergence with every term masked to ``y > 0``."""
    pos = y > 0.0
    terms = np.zeros(y.shape)
    with np.errstate(divide="ignore"):
        terms[pos] = structure.weights[pos] * y[pos] * np.log(y[pos] / x[pos])
    return structure.sums(terms)


class TestCertifiedUpdate:
    def test_bit_equal_to_the_reference_on_and_off_the_boundary(self):
        rng = np.random.default_rng(1010)
        seen = {"singleton": 0, "degenerate": 0, "interior": 0, "new boundary": 0, "boundary": 0}
        for st, expr, x in _step_cases(rng, 200):
            res = knee_jerk_step(expr, x)
            got = (
                res.x_new.x, res.masses, res.degenerate, res.bound, res.divergence, res.residual,
            )
            ref = _reference_step(x.x, res.gradient, st)
            names = ("x_new", "masses", "degenerate", "bound", "divergence", "residual")
            for name, a, b in zip(names, got, ref):
                assert np.array_equal(a, b), name
            assert np.array_equal(
                i_divergence_blocks(res.x_new, x), _masked_divergences(res.x_new.x, x.x, st)
            )
            if x.interior:
                assert res.residual == criticality_residual(expr, x)
            seen["singleton"] += 1 in st.blocks
            seen["degenerate"] += any(res.degenerate)
            seen["interior"] += x.interior and res.x_new.interior
            seen["new boundary"] += x.interior and not res.x_new.interior
            seen["boundary"] += not x.interior
        assert min(seen.values()) >= 20, seen


def _rows_of(rng, expr, st, rows, zeros):
    """``rows`` feasible points of ``st``, with zero coordinates if
    ``zeros``, and their gradient weights, one point evaluation each."""
    X = np.array([interior_point(rng, st).x for _ in range(rows)])
    if zeros:
        X *= rng.random(X.shape) < 0.7
        for x in X:
            for sl in st.slices:
                if not np.any(x[sl]):
                    x[sl.start] = 1.0
        X = np.array([normalize(x, st).x for x in X])
    return X, np.array([knee_jerk_step(expr, BlockPoint(x, st)).gradient for x in X])


def _assert_rows_equal_one_row_calls(X, G, st):
    batch = mapping._certified_update(X, G, st)
    assert batch[0].shape == X.shape and batch[1].shape == (len(X), st.k)
    for r in range(len(X)):
        x_new, masses, flags, bound, divergence, residual = mapping._certified_update(
            X[r], G[r], st
        )[:6]
        assert batch[0][r].tobytes() == x_new.tobytes()
        assert batch[1][r].tobytes() == masses.tobytes()
        assert batch[2][r].tolist() == flags.tolist()
        for got, want in zip(batch[3:], (bound, divergence, residual)):
            assert np.ndim(want) == 0
            assert float(got[r]).hex() == float(want).hex()


# A two-block polynomial on 5 coordinates that reads only x0, x1 and x2: the
# gradient's last two columns are zero padding and the second block has no
# mass, so it is degenerate at every point.
PADDED = (
    '{"expression": {"polynomial": {"n": 5, "terms": [{"c": 1, "e": [1, 1, 0, 0, 0]}, '
    '{"c": 2, "e": [2, 0, 1, 0, 0]}]}}, "blocks": [3, 2], "init": "barycenter"}'
)
K5_ONE_BLOCK = (
    '{"expression": {"graph": {"vertices": 5, "edges": [[0, 1], [0, 2], [0, 3], [0, 4], '
    '[1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4]]}}, "blocks": [10], "init": "barycenter"}'
)


class TestRowKernel:
    """The certified update of ``(R, n)`` rows equals its one-row calls bit
    for bit, and a bad row among good ones raises its own error."""

    def test_random_structures_with_and_without_zero_coordinates(self):
        rng = np.random.default_rng(1717)
        seen = {"singleton": 0, "degenerate": 0, "long": 0}
        for c, (st, expr, _) in enumerate(_step_cases(rng, 60)):
            X, G = _rows_of(rng, expr, st, 7, zeros=c % 2 == 0)
            _assert_rows_equal_one_row_calls(X, G, st)
            seen["singleton"] += 1 in st.blocks
            seen["degenerate"] += bool(mapping._certified_update(X, G, st)[2].any())
            seen["long"] += max(st.blocks) >= 8
        assert min(seen.values()) >= 5, seen

    @pytest.mark.parametrize("text", [PADDED, K5_ONE_BLOCK], ids=["padded", "k5"])
    def test_batched_gradients_of_shipped_shapes(self, text):
        p = parse_problem(text)
        X = _dirichlet_rows(p.structure, np.random.default_rng(8), 40)
        _, G = _eval_log_gradients(p.expression, X)
        _assert_rows_equal_one_row_calls(X, G, p.structure)
        degenerate = mapping._certified_update(X, G, p.structure)[2]
        assert degenerate.any(0).tolist() == ([False, True] if text is PADDED else [False])

    def test_single_coordinate_block(self):
        st = BlockStructure((2, 1))
        e = Prod((Var(0), Var(1), Var(2)))
        X, G = _rows_of(np.random.default_rng(9), e, st, 6, zeros=False)
        _assert_rows_equal_one_row_calls(X, G, st)
        assert np.array_equal(mapping._certified_update(X, G, st)[0][:, 2], X[:, 2])

    # Each bad row trips one guard: a NaN weight in a longer block (the
    # finite-mass guard, with the new point's message), a NaN or inf weight in
    # the single-coordinate block (its copy's guard), a negative weight in a
    # block with mass (the new point's check) and one that leaves the first
    # block without mass (the degenerate guard).
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "index, bad",
        [(0, math.nan), (2, math.nan), (2, math.inf), (1, -0.25), (0, -1.5)],
    )
    def test_bad_row_in_a_batch_raises_its_own_error(self, index, bad):
        st = BlockStructure((2, 1))
        e = Prod((Var(0), Var(1), Var(2)))
        X, G = _rows_of(np.random.default_rng(10), e, st, 5, zeros=False)
        G[2, index] = bad
        with pytest.raises(ValueError) as one:
            mapping._certified_update(X[2], G[2], st)
        with pytest.raises(ValueError) as batch:
            mapping._certified_update(X, G, st)
        assert str(batch.value) == str(one.value)
        mapping._certified_update(np.delete(X, 2, 0), np.delete(G, 2, 0), st)

    # A later row with a NaN or inf mass, an inf weight in the single-coordinate
    # block or a negative weight beside a degenerate block does not preempt an
    # earlier row that fails the new point's check.
    @pytest.mark.parametrize("index, bad", [(0, math.nan), (0, math.inf), (2, math.inf), (0, -1.5)])
    def test_first_bad_row_raises_first(self, index, bad):
        st = BlockStructure((2, 1))
        e = Prod((Var(0), Var(1), Var(2)))
        X, G = _rows_of(np.random.default_rng(11), e, st, 5, zeros=False)
        G[1, 1] = -0.25
        G[3, index] = bad
        with pytest.raises(ValueError, match="nonnegative; x") as one:
            mapping._certified_update(X[1], G[1], st)
        with pytest.raises(ValueError) as batch:
            mapping._certified_update(X, G, st)
        assert str(batch.value) == str(one.value)


def _every_pass_update(x, g, structure):
    """The certified update with every pass run on every call, as it was
    before the kernel skipped the passes that leave every bit as it is:
    ``np.where`` for the copy of degenerate and single-coordinate blocks,
    ``min`` for every branch, the divergence under ``np.errstate`` and the
    residual with masks.  Valid input only: it has none of the kernel's
    guards."""
    s = structure
    w = s.weights
    masses = s.sums(g)
    degenerate = masses <= 0.0
    x_new = g / np.where(degenerate, 1.0, masses).take(s.index, -1) / w
    single = np.array(s.blocks) == 1
    x_new = np.where((single | degenerate).take(s.index, -1), x, x_new)
    with np.errstate(divide="ignore"):
        if x_new.min() > 0.0 and x.min() > 0.0:
            ratio = x_new / x
        else:
            ratio = np.divide(x_new, x, out=np.ones(x.shape), where=x_new > 0.0)
        d = s.sums(w * x_new * np.log(ratio))
    m = masses.take(s.index, -1)
    if x.min() > 0.0:
        dev = np.abs(g / (w * x) - m) / (m + 1.0)
    else:
        pos = x > 0.0
        dev = np.zeros(x.shape)
        dev[pos] = np.abs(g[pos] / (w * x)[pos] - m[pos]) / (m[pos] + 1.0)
    bound = np.add.reduce(masses * d, -1) + 0.0
    return x_new, masses, degenerate, bound, np.add.reduce(d, -1), dev.max(-1)


# Largest gradient weight of a block: ordinary (around 1/2, 0.3 and 2),
# subnormal, tiny and very large.
_TOPS = (
    np.nextafter(0.5, 0.0), 0.5, np.nextafter(0.5, 1.0), 3e-310, 5e-324, 1e-300, 1e200, 0.3, 2.0,
)


def _weighted_update(st, masses):
    """Whether a block of two or more coordinates, not all of unit weight,
    has gradient mass: one the update moves by dividing by its weights."""
    weighted = st.sums(st.weights != 1.0) > 0.0
    return bool((weighted & (masses > 0.0) & (np.array(st.blocks) > 1)).any())


def _many_blocks(rng):
    """A structure of 8 to 12 blocks over up to 16 coordinates, unit weights
    half the time: 8 blocks, the fewest numpy adds pairwise, half the time."""
    k = 8 if rng.random() < 0.5 else int(rng.integers(9, 13))
    blocks = 1 + rng.multinomial(int(rng.integers(0, 5)), np.ones(k) / k)
    n = int(blocks.sum())
    return BlockStructure(tuple(blocks.tolist()), rng.uniform(0.5, 2.0, n) if rng.random() < 0.5 else None)


def _parity_row(rng, st):
    """A feasible point of ``st`` and gradient weights for it.  Zero
    coordinates (each block keeps a positive one) get zero weight, but now
    and then a positive one, so the divergence meets a zero ``x_j`` under a
    positive ``y_j``; a block is degenerate (no weight) one time in six,
    else its largest weight is drawn from ``_TOPS`` and, half the time, one
    weight is cut to at most 1e-300, often subnormal."""
    x = interior_point(rng, st).x
    if rng.random() < 0.5:
        x = x * (rng.random(st.n) < 0.6)
        for sl in st.slices:
            if not np.any(x[sl]):
                x[sl.start + int(rng.integers(sl.stop - sl.start))] = 1.0
        x = normalize(x, st).x
    g = rng.random(st.n) * (x > 0.0)
    zeros = np.flatnonzero(x == 0.0)
    if zeros.size and rng.random() < 0.2:
        g[rng.choice(zeros)] = rng.random()
    for sl in st.slices:
        if rng.random() < 1 / 6:
            g[sl] = 0.0
        elif g[sl].max() > 0.0:
            g[sl] *= _TOPS[int(rng.integers(len(_TOPS)))] / g[sl].max()
            if rng.random() < 0.5:  # a tiny weight, often subnormal
                j = sl.start + int(rng.integers(sl.stop - sl.start))
                g[j] = min(g[j], 10.0 ** -rng.uniform(300, 324))
    return x, g


class TestKernelParity:
    """The kernel equals the every-pass update bit for bit, for a point and
    for ``(R, n)`` rows, on and off every branch it skips."""

    NAMES = ("x_new", "masses", "degenerate", "bound", "divergence", "residual")

    def _assert_same(self, got, want):
        for name, a, b in zip(self.NAMES, got, want):
            assert a.shape == np.shape(b) and a.tobytes() == np.asarray(b).tobytes(), name

    def test_random_structures_points_and_rows(self):
        # One point of fewer than 8 blocks adds up its bound and divergence
        # in order as Python floats, and one of 8 or more, like rows, by
        # numpy's pairwise sum: both meet the reference's np.add.reduce.
        rng = np.random.default_rng(1818)
        seen = {"weighted": 0, "subnormal": 0, "subnormal mass": 0, "degenerate": 0,
                "singleton": 0, "zero x": 0, "mass where x is 0": 0, "unit weights": 0,
                "8 or more blocks": 0}
        for c in range(300):
            if c % 4 == 3:
                st = _many_blocks(rng)
            else:
                st = random_structure(rng, max_n=6 if c % 2 else 12, max_blocks=4)
            if c % 3 == 0:
                st = BlockStructure(st.blocks, rng.uniform(1e-3, 1e3, st.n))
            rows = [_parity_row(rng, st) for _ in range(int(rng.integers(1, 6)))]
            X, G = (np.array(v) for v in zip(*rows))
            for x, g in rows:
                want = _every_pass_update(x, g, st)
                self._assert_same(mapping._certified_update(x, g, st), want)
                self._assert_same(mapping._certified_update(x, g, st, _check_feasible(x, st)), want)
                m = st.sums(g)
                seen["weighted"] += _weighted_update(st, m)
                seen["subnormal"] += bool(((g > 0.0) & (g < np.finfo(float).tiny)).any())
                seen["subnormal mass"] += bool(((m > 0.0) & (m < np.finfo(float).tiny)).any())
                seen["degenerate"] += bool((st.sums(g) <= 0.0).any())
                seen["singleton"] += 1 in st.blocks
                seen["zero x"] += bool((x == 0.0).any())
                seen["mass where x is 0"] += bool(((x == 0.0) & (g > 0.0)).any())
                seen["unit weights"] += bool((st.weights == 1.0).all())
                seen["8 or more blocks"] += st.k >= 8
            want = _every_pass_update(X, G, st)
            self._assert_same(mapping._certified_update(X, G, st), want)
            self._assert_same(mapping._certified_update(X, G, st, _check_feasible(X, st)), want)
        assert min(seen.values()) >= 20, seen

    def test_the_new_point_is_the_quotient_by_the_mass_and_the_weight(self):
        # Weights from 1e-3 to 1e3 and block masses from subnormal to about
        # 1e300: outside the copied blocks each coordinate is (g / m) / a,
        # in that order, bit for bit, and every block sums to 1 within
        # rounding, for a point and for (R, n) rows.
        rng = np.random.default_rng(1919)
        eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
        seen = {"subnormal mass": 0, "huge mass": 0, "copied": 0}
        for _ in range(300):
            st = random_structure(rng, max_n=12, max_blocks=4)
            st = BlockStructure(st.blocks, 10.0 ** rng.uniform(-3, 3, st.n))
            sizes = np.array(st.blocks)
            X = np.array([interior_point(rng, st).x for _ in range(int(rng.integers(1, 4)))])
            scale = 10.0 ** rng.uniform(-323, 300, (len(X), st.k))
            G = rng.random(X.shape) * scale.take(st.index, 1)
            G[rng.random(G.shape) < 0.1] = 0.0
            for x, g in [*zip(X, G), (X, G)]:
                x_new, masses, degenerate = mapping._certified_update(x, g, st)[:3]
                assert masses.tobytes() == st.sums(g).tobytes()
                m = np.where(degenerate, 1.0, masses).take(st.index, -1)
                copied = ((sizes == 1) | degenerate).take(st.index, -1)
                assert x_new.tobytes() == np.where(copied, x, g / m / st.weights).tobytes()
                assert (np.abs(st.sums(st.weights * x_new) - 1.0) <= (sizes + 3) * eps).all()
                seen["subnormal mass"] += bool(((masses > 0.0) & (masses < tiny)).any())
                seen["huge mass"] += bool((masses > 1e250).any())
                seen["copied"] += bool(copied.any())
        assert min(seen.values()) >= 20, seen

    def test_masses_near_the_largest_float(self):
        # Each block's mass is finite, about 1.1e308, but any sum over two
        # blocks or two rows overflows: the kernel steps, as the old one did.
        st = BlockStructure((2, 2))
        x = np.array([0.9, 0.1, 0.9, 0.1])
        g = np.array([1e308, 1e307, 0.99e308, 1.1e307])
        self._assert_same(mapping._certified_update(x, g, st), _every_pass_update(x, g, st))
        X, G = np.array([x, x[::-1]]), np.array([g, g[::-1]])
        self._assert_same(mapping._certified_update(X, G, st), _every_pass_update(X, G, st))


def _fresh_steps(expr, x0, cfg):
    """``iterate`` as a plain loop of steps, each from a new ``BlockPoint``
    of a copy of the last point, so no step reuses what a check found: the
    records, the terminal point and each step's result."""
    s = x0.structure
    x, records, steps = x0, [], []
    for k in range(1, cfg.max_iters + 1):
        res = knee_jerk_step(expr, x)
        records.append((k, res.W_new, res.bound, res.divergence, res.residual))
        steps.append((x.x, res))
        x = BlockPoint(res.x_new.x.copy(), s)
        if any(res.degenerate) or res.divergence < cfg.tol_div or res.W_new - res.W < cfg.tol_w:
            break
    return records, x, steps


class TestCarriedFacts:
    """A step reuses the ``w * x`` and the sign test that the check of its
    point returned, and gives what a step that computes them afresh gives."""

    def test_iterate_equals_a_loop_of_fresh_steps(self):
        rng = np.random.default_rng(2020)
        cfg = IterationConfig(max_iters=30, tol_div=1e-13)
        seen = {"boundary start": 0, "new zero": 0, "singleton": 0, "degenerate": 0,
                "weighted": 0, "carried": 0}
        for c in range(150):
            st = random_structure(rng, max_n=8, max_blocks=4)
            x0 = interior_point(rng, st).x
            if c % 3 == 0:  # a boundary start; each block keeps a positive coordinate
                x0 = x0 * (rng.random(st.n) < 0.6)
                for sl in st.slices:
                    if not np.any(x0[sl]):
                        x0[sl.start] = 1.0
                x0 = normalize(x0, st).x
            terms = poly_terms(random_polynomial(rng, st.n, max_terms=8), st.n)
            if c % 3 == 1:  # no term reads x_j: x_j is 0 after the first step
                j = int(rng.integers(st.n))
                terms = [(a, e[:j] + [0] + e[j + 1:]) for a, e in terms]
            if c % 10 == 2:  # no term reads a block: it is degenerate
                sl = st.slices[int(rng.integers(st.k))]
                terms = [t for t in terms if not any(t[1][sl])]
            terms.append((1.0, [0] * st.n))
            expr = MatrixPolynomial([e for _, e in terms], [a for a, _ in terms])
            trace = iterate(expr, BlockPoint(x0, st), cfg)
            want, x_end, steps = _fresh_steps(expr, BlockPoint(x0, st), cfg)
            got = [(r.iteration, r.W, r.bound, r.divergence, r.residual) for r in trace.records]
            assert [(k, *map(float.hex, v)) for k, *v in got] == [
                (k, *map(float.hex, v)) for k, *v in want
            ]
            assert trace.x_final.x.tobytes() == x_end.x.tobytes()
            seen["boundary start"] += not np.all(x0 > 0.0)
            seen["singleton"] += 1 in st.blocks
            seen["carried"] += len(steps) > 2
            for x, res in steps:
                seen["new zero"] += bool(np.any((x > 0.0) & (res.x_new.x == 0.0)))
                seen["degenerate"] += any(res.degenerate)
                seen["weighted"] += _weighted_update(st, res.masses)
        assert min(seen.values()) >= 15, seen

    def test_a_new_point_keeps_no_fact_that_no_longer_holds(self):
        rng = np.random.default_rng(2021)
        st = BlockStructure((3, 2), np.array([1.0, 2.0, 0.5, 1.0, 1.5]))
        expr = polynomial_to_expression(random_polynomial(rng, st.n))
        res = knee_jerk_step(expr, interior_point(rng, st))
        with pytest.raises(ValueError, match="read-only"):
            res.x_new.x[0] = 0.5
        other = interior_point(rng, st)
        res.x_new.x = other.x  # the facts kept with the point describe the old x
        a, b = knee_jerk_step(expr, res.x_new), knee_jerk_step(expr, other)
        assert a.x_new.x.tobytes() == b.x_new.x.tobytes()
        for name in ("W_new", "bound", "divergence", "residual"):
            assert getattr(a, name).hex() == getattr(b, name).hex(), name


class TestPointGuard:
    S = BlockStructure((2, 3), np.array([1.0, 2.0, 0.5, 1.0, 1.5]))
    EXPR = Prod((Var(0), Sum((Var(2), Var(3), Var(4)))))

    @pytest.mark.parametrize(
        "bad, message", [(math.nan, "finite"), (math.inf, "finite"), (-0.5, "nonnegative")]
    )
    def test_bad_gradient_weight_makes_the_step_raise(self, bad, message):
        x = barycenter(self.S)
        start = eval_log(self.EXPR, x.x)
        g_bad = start.g.copy()
        g_bad[3] = bad
        with pytest.raises(ValueError, match=message):
            knee_jerk_step(self.EXPR, x, start=LogEval(start.W, g_bad))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_bad_weight_in_a_single_coordinate_block_makes_the_step_raise(self, bad):
        s = BlockStructure((2, 1))
        e = Prod((Var(0), Var(1), Var(2)))
        x = barycenter(s)
        start = eval_log(e, x.x)
        g_bad = start.g.copy()
        g_bad[2] = bad
        with pytest.raises(ValueError, match="finite"):
            knee_jerk_step(e, x, start=LogEval(start.W, g_bad))

    # The negative weight leaves its own block (g[2]) or the other one (g[0])
    # with no positive mass, so that block is flagged degenerate and kept.
    @pytest.mark.parametrize("index, bad", [(2, -0.5), (0, -1.5)])
    def test_negative_weight_in_a_block_without_mass_makes_the_step_raise(self, index, bad):
        s = BlockStructure((2, 1))
        e = Prod((Var(0), Var(1), Var(2)))
        x = barycenter(s)
        start = eval_log(e, x.x)
        g_bad = start.g.copy()
        g_bad[index] = bad
        with pytest.raises(ValueError, match="nonnegative"):
            knee_jerk_step(e, x, start=LogEval(start.W, g_bad))


class TestTrace:
    def test_csv_format(self):
        s = BlockStructure((2,))
        x = BlockPoint(np.array([0.5, 0.5]), s)
        cfg = IterationConfig(max_iters=5000, tol_div=1e-18, tol_w=1e-16)
        trace = iterate(dlr_expression(), x, cfg)
        text = trace.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "iter,W,bound,divergence,residual"
        assert lines[-1] == "# status=converged"
        body = lines[1:-1]
        assert len(body) == len(trace.records)
        first = body[0].split(",")
        assert int(first[0]) == trace.records[0].iteration
        for row in body:
            fields = row.split(",")
            assert len(fields) == 5
            float(fields[1]), float(fields[2]), float(fields[3]), float(fields[4])

    def test_csv_round_trips_floats_exactly(self):
        s = BlockStructure((2,))
        x = BlockPoint(np.array([0.5, 0.5]), s)
        trace = iterate(dlr_expression(), x, IterationConfig(max_iters=4, tol_div=1e-30, tol_w=0.0))
        row = trace.to_csv().strip().split("\n")[1].split(",")
        assert float(row[1]) == trace.records[0].W
        assert float(row[3]) == trace.records[0].divergence
