"""Tests for the certificate checks and curvature probes."""

import itertools
import json
import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from kneejerk import (
    BlockPoint,
    BlockStructure,
    Const,
    MatrixPolynomial,
    Pow,
    Prod,
    Sum,
    Var,
    check_log_concavity,
    check_log_log_convexity,
    eval_log,
    knee_jerk_step,
    polynomial_to_expression,
    tangent_lower_bound,
    verify_argmax_property,
    verify_step_inequality,
)
from kneejerk import diagnostics, mapping
from kneejerk import expr as expr_module
from kneejerk.diagnostics import _curvature_probe
from kneejerk.simplex import _dirichlet_points, _dirichlet_rows, _exponential_draws
from generators import (
    dlr_expression,
    discriminant_expression,
    interior_point,
    k4_graph,
    random_expression,
    random_polynomial,
    random_structure,
    triangle_graph,
)


class TestTangentBound:
    def test_frozen_values_on_the_product_example(self):
        x = np.array([0.5, 0.5])
        x_bar = np.array([0.7, 0.3])
        b = tangent_lower_bound(dlr_expression(), x, x_bar)
        # 96.5 log(1.4) + 38 log(0.6), computed independently at high
        # precision.
        assert_allclose(b, 13.058197130839401832, rtol=1e-13)
        lhs = eval_log(dlr_expression(), x_bar).W - eval_log(dlr_expression(), x).W
        assert_allclose(lhs, 14.818876941257921952, rtol=1e-13)
        assert lhs >= b

    def test_global_lower_bound_on_random_pairs(self):
        rng = np.random.default_rng(71)
        for _ in range(200):
            n = int(rng.integers(1, 5))
            expr = random_expression(rng, n, depth=3)
            x = np.exp(rng.uniform(-1.5, 1.5, n))
            x_bar = np.exp(rng.uniform(-1.5, 1.5, n))
            b = tangent_lower_bound(expr, x, x_bar)
            lhs = eval_log(expr, x_bar).W - eval_log(expr, x).W
            assert lhs >= b - 1e-9 * (1.0 + abs(lhs))

    def test_equality_for_monomials(self):
        rng = np.random.default_rng(72)
        expr = Prod((Const(3.0), Pow(Var(0), 2), Pow(Var(1), 3)))
        for _ in range(50):
            x = np.exp(rng.uniform(-1.0, 1.0, 2))
            x_bar = np.exp(rng.uniform(-1.0, 1.0, 2))
            b = tangent_lower_bound(expr, x, x_bar)
            lhs = eval_log(expr, x_bar).W - eval_log(expr, x).W
            assert_allclose(lhs, b, rtol=1e-12, atol=1e-12)

    def test_identity_bound_is_exactly_zero(self):
        x = np.array([0.5, 0.5])
        assert tangent_lower_bound(dlr_expression(), x, x) == 0.0

    def test_zero_target_against_live_gradient_is_minus_inf(self):
        expr = Prod((Var(0), Var(1)))
        b = tangent_lower_bound(expr, np.array([0.5, 0.5]), np.array([1.0, 0.0]))
        assert b == -math.inf

    def test_zero_gradient_coordinate_ignores_zero_target(self):
        expr = Pow(Var(0), 2)  # variable 1 unused
        b = tangent_lower_bound(expr, np.array([0.5, 0.5]), np.array([1.0, 0.0]))
        assert_allclose(b, 2 * math.log(2.0), rtol=1e-13)

    def test_no_normalization_required(self):
        expr = dlr_expression()
        x = np.array([0.5, 0.5])
        x_bar = np.array([0.7, 0.3])
        b1 = tangent_lower_bound(expr, x, x_bar)
        b2 = tangent_lower_bound(expr, x, 2.0 * x_bar)
        g_total = eval_log(expr, x).g.sum()
        assert_allclose(b2 - b1, g_total * math.log(2.0), rtol=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            tangent_lower_bound(Var(0), np.array([1.0]), np.array([1.0, 2.0]))

    @pytest.mark.parametrize(
        "x_bar", [[-0.5, 1.5], [0.5, np.inf], [np.nan, 0.5]], ids=["negative", "inf", "nan"]
    )
    def test_bad_competitor_rejected(self, x_bar):
        with pytest.raises(ValueError, match="x_bar must be finite and nonnegative"):
            tangent_lower_bound(dlr_expression(), np.array([0.5, 0.5]), np.array(x_bar))


class TestStepInequality:
    def test_product_example_report(self):
        s = BlockStructure((2,))
        point = BlockPoint(np.array([0.5, 0.5]), s)
        rep = verify_step_inequality(dlr_expression(), point)
        assert rep.passed
        assert rep.lhs >= rep.rhs > 0.0
        assert_allclose(rep.margin, rep.lhs - rep.rhs, rtol=0, atol=0)
        res = knee_jerk_step(dlr_expression(), point)
        assert_allclose(rep.rhs, res.bound, rtol=1e-13)

    def test_divergence_form_equals_tangent_bound_at_update(self):
        # The certified right-hand side sum_i m_i I_i(x'; x) is algebraically
        # the tangent bound evaluated at x'; the two routes are computed
        # from different formulas and must agree.
        rng = np.random.default_rng(73)
        for _ in range(100):
            st = random_structure(rng)
            expr = polynomial_to_expression(random_polynomial(rng, st.n))
            point = interior_point(rng, st)
            rep = verify_step_inequality(expr, point)
            res = knee_jerk_step(expr, point)
            b_star = tangent_lower_bound(expr, point.x, res.x_new.x)
            assert_allclose(rep.rhs, b_star, rtol=1e-9, atol=1e-11)

    def test_random_sweep_margins(self):
        rng = np.random.default_rng(74)
        for _ in range(200):
            st = random_structure(rng)
            expr = polynomial_to_expression(random_polynomial(rng, st.n))
            point = interior_point(rng, st)
            rep = verify_step_inequality(expr, point)
            assert rep.passed
            assert rep.margin >= -1e-9
            assert rep.rhs >= -1e-12

    def test_requires_interior_point(self):
        s = BlockStructure((2,))
        point = BlockPoint(np.array([1.0, 0.0]), s)
        with pytest.raises(ValueError):
            verify_step_inequality(Sum((Var(0), Var(1))), point)

    def test_negative_bound_fails_within_the_margin(self, monkeypatch):
        # A bound below -1e-12 fails the certificate even when the margin
        # lhs - rhs = 0 passes: both halves of the one pass rule apply.
        sides = (np.array([-2e-12]), np.array([-2e-12]))
        monkeypatch.setattr(diagnostics, "_step_sweep", lambda e, s, X: sides)
        point = BlockPoint(np.array([0.5, 0.5]), BlockStructure((2,)))
        rep = verify_step_inequality(dlr_expression(), point)
        assert (rep.margin, rep.passed) == (0.0, False)

    def test_fixed_point_has_both_sides_zero(self):
        s = BlockStructure((3,))
        point = BlockPoint(np.array([0.2, 0.3, 0.5]), s)
        rep = verify_step_inequality(Sum((Var(0), Var(1), Var(2))), point)
        assert rep.passed
        assert abs(rep.lhs) <= 1e-12
        assert abs(rep.rhs) <= 1e-12

    def test_json_keys(self):
        s = BlockStructure((2,))
        point = BlockPoint(np.array([0.5, 0.5]), s)
        d = verify_step_inequality(dlr_expression(), point).to_json_dict()
        assert set(d) == {"lhs", "rhs", "margin", "pass"}
        assert d["pass"] is True


class TestArgmaxProperty:
    def test_product_example_beats_competitors(self):
        s = BlockStructure((2,))
        point = BlockPoint(np.array([0.5, 0.5]), s)
        rep = verify_argmax_property(
            dlr_expression(), point, samples=500, rng=np.random.default_rng(0)
        )
        assert rep.passed
        assert rep.margin >= -1e-9
        assert rep.samples == 500
        assert rep.worst_competitor.shape == (2,)

    def test_blocked_and_weighted_sweep(self):
        rng = np.random.default_rng(75)
        for _ in range(30):
            st = random_structure(rng)
            expr = polynomial_to_expression(random_polynomial(rng, st.n))
            point = interior_point(rng, st)
            rep = verify_argmax_property(expr, point, samples=200, rng=rng)
            assert rep.passed, rep.margin

    def test_linear_objective_fixed_point_dominates(self):
        # Every point is fixed for Z = x + y: the bound at x' is zero and no
        # competitor's bound exceeds it.
        s = BlockStructure((2,))
        point = BlockPoint(np.array([0.3, 0.7]), s)
        rep = verify_argmax_property(
            Sum((Var(0), Var(1))), point, samples=200, rng=np.random.default_rng(2)
        )
        assert rep.passed
        assert rep.margin >= -1e-9

    def test_deterministic_for_fixed_seed(self):
        s = BlockStructure((3,))
        point = BlockPoint(np.array([0.2, 0.3, 0.5]), s)
        expr = discriminant_expression(triangle_graph())
        a = verify_argmax_property(expr, point, samples=100, rng=np.random.default_rng(5))
        b = verify_argmax_property(expr, point, samples=100, rng=np.random.default_rng(5))
        assert a.margin == b.margin
        assert np.array_equal(a.worst_competitor, b.worst_competitor)

    def test_requires_interior_base(self):
        s = BlockStructure((2,))
        point = BlockPoint(np.array([1.0, 0.0]), s)
        with pytest.raises(ValueError):
            verify_argmax_property(
                Sum((Var(0), Var(1))), point, samples=10, rng=np.random.default_rng(0)
            )

    def test_rejects_zero_competitors(self):
        point = BlockPoint(np.array([0.5, 0.5]), BlockStructure((2,)))
        for bad in (0, -3, 2.5, True, "3"):
            with pytest.raises(ValueError, match=f"samples must be a positive integer, got {bad!r}"):
                verify_argmax_property(dlr_expression(), point, bad, np.random.default_rng(0))

    def test_one_evaluation_per_call(self, monkeypatch):
        # Every name through which the probe could evaluate the objective is
        # counted: one batched gradient at the base point, nothing else.
        calls = []
        for module, name in (
            (expr_module, "_eval_log_raw"),
            (mapping, "_eval_log_raw"),
            (diagnostics, "_eval_log_gradients"),
            (diagnostics, "_eval_log_values"),
            (diagnostics, "eval_log"),
        ):
            real = getattr(module, name)

            def counted(e, x, real=real):
                calls.append(1)
                return real(e, x)

            monkeypatch.setattr(module, name, counted)
        point = BlockPoint(np.array([0.5, 0.5]), BlockStructure((2,)))
        verify_argmax_property(dlr_expression(), point, samples=20, rng=np.random.default_rng(2))
        assert len(calls) == 1

    def test_json_keys(self):
        s = BlockStructure((2,))
        point = BlockPoint(np.array([0.5, 0.5]), s)
        rep = verify_argmax_property(
            dlr_expression(), point, samples=50, rng=np.random.default_rng(1)
        )
        assert set(rep.to_json_dict()) == {"pass", "margin", "worst_competitor", "samples"}


class TestBatchedSweeps:
    """The sweep workers on fixed rows against a per-row loop over
    ``knee_jerk_step`` and explicitly computed competitor bounds."""

    ROWS = 7

    @staticmethod
    def _cases():
        rng = np.random.default_rng(83)
        # A polynomial in 3 of the 5 coordinates: its second block has no
        # gradient mass, so every step flags it degenerate.
        padded = MatrixPolynomial([[1, 1, 0], [2, 0, 1]], [1.0, 2.0])
        return [
            (dlr_expression(), BlockStructure((2,))),
            (discriminant_expression(k4_graph()), BlockStructure((6,))),
            (random_polynomial(rng, 5, max_terms=12), BlockStructure((2, 3), rng.uniform(0.5, 2.0, 5))),
            (random_expression(rng, 4, depth=3), BlockStructure((1, 3), rng.uniform(0.5, 2.0, 4))),
            (padded, BlockStructure((3, 2))),
        ]

    def _middle_worst(self, margins, *arrays):
        """``arrays`` with their rows reordered so the smallest margin is in
        the middle and the rest keep their order."""
        worst = int(np.argmin(margins))
        order = [r for r in range(len(margins)) if r != worst]
        order.insert(self.ROWS // 2, worst)
        return [a[order] for a in (np.asarray(margins),) + arrays]

    def test_step_sweep_matches_knee_jerk_steps(self):
        rng = np.random.default_rng(84)
        for expr, s in self._cases():
            X = np.stack([interior_point(rng, s).x for _ in range(self.ROWS)])
            steps = [knee_jerk_step(expr, BlockPoint(x, s)) for x in X]
            lhs_ref = np.array([r.W_new - r.W for r in steps])
            rhs_ref = np.array([r.bound for r in steps])
            new_ref = np.stack([r.x_new.x for r in steps])
            _, X, lhs_ref, rhs_ref, new_ref = self._middle_worst(
                lhs_ref - rhs_ref, X, lhs_ref, rhs_ref, new_ref
            )
            lhs, rhs, _, X_new = diagnostics._step_sweep(expr, s, X)
            assert_allclose(lhs, lhs_ref, rtol=0, atol=1e-12)
            assert_allclose(rhs, rhs_ref, rtol=0, atol=1e-12)
            assert_allclose(X_new, new_ref, rtol=0, atol=1e-12)
            assert np.argmin(lhs - rhs) == self.ROWS // 2

    def test_argmax_sweep_matches_explicit_bounds(self):
        rng = np.random.default_rng(85)
        for expr, s in self._cases():
            X = np.stack([interior_point(rng, s).x for _ in range(self.ROWS)])
            draws = [E.reshape(self.ROWS, 50, -1) for E in _exponential_draws(s, rng, self.ROWS * 50)]
            C = _dirichlet_points(s, [E.reshape(-1, E.shape[2]) for E in draws]).reshape(self.ROWS, 50, -1)
            margin_ref, worst_ref = [], []
            for x, competitors in zip(X, C):
                x_new = knee_jerk_step(expr, BlockPoint(x, s)).x_new.x
                bounds = [tangent_lower_bound(expr, x, c) for c in competitors]
                k = int(np.argmax(bounds))
                margin_ref.append(tangent_lower_bound(expr, x, x_new) - bounds[k])
                worst_ref.append(k)
            margin_ref, X, worst_ref, *draws = self._middle_worst(margin_ref, X, np.array(worst_ref), *draws)
            G, X_new = diagnostics._step_sweep(expr, s, X)[2:]
            margin, worst = diagnostics._argmax_margins(s, G, X_new, [E.reshape(-1, E.shape[2]) for E in draws])
            assert_allclose(margin, margin_ref, rtol=0, atol=1e-12)
            assert np.array_equal(worst, worst_ref)
            assert np.argmin(margin) == self.ROWS // 2

    def test_one_row_probes_report_their_worker_rows(self):
        rng = np.random.default_rng(86)
        for expr, s in self._cases():
            point = interior_point(rng, s)
            rep = verify_step_inequality(expr, point)
            lhs, rhs, G, X_new = diagnostics._step_sweep(expr, s, point.x[None])
            assert (rep.lhs, rep.rhs) == (lhs[0], rhs[0])
            rep = verify_argmax_property(expr, point, 30, np.random.default_rng(1))
            draws = _exponential_draws(s, np.random.default_rng(1), 30)
            margin, worst = diagnostics._argmax_margins(s, G, X_new, draws)
            competitors = _dirichlet_rows(s, np.random.default_rng(1), 30)
            assert rep.margin == margin[0]
            assert np.array_equal(rep.worst_competitor, competitors[worst[0]])

    def test_dominated_new_points_fail_the_argmax(self, monkeypatch):
        # x' pulled halfway to each block's first vertex, or x itself, is
        # dominated: handed as the new point, it must fail the argmax check,
        # in the scorer and in verify's section.
        rng = np.random.default_rng(87)
        for expr, s in self._cases():
            X = np.stack([interior_point(rng, s).x for _ in range(self.ROWS)])
            G, X_new = diagnostics._step_sweep(expr, s, X)[2:]
            vertex = np.zeros(s.n)
            vertex[s.starts] = 1.0 / s.weights[s.starts]
            pulled = 0.5 * X_new + 0.5 * vertex
            draws = _exponential_draws(s, rng, self.ROWS * 1000)
            margin = diagnostics._argmax_margins(s, G, pulled, draws)[0]
            assert (margin < -1e-9).all(), margin
        step_sweep = diagnostics._step_sweep
        monkeypatch.setattr(diagnostics, "_step_sweep", lambda e, s, X: step_sweep(e, s, X)[:3] + (X,))
        argmax = diagnostics._step_certificates(dlr_expression(), BlockStructure((2,)), 40, rng)[1]
        assert argmax["worst_margin"] < -1e-9
        assert argmax["pass"] is False

    @pytest.mark.parametrize("case", range(5))
    def test_verify_draws_the_stream_of_its_points(self, case):
        # Per chunk, the base points and then their competitors, as
        # _dirichlet_rows would draw them: one block, several blocks and
        # weighted structures, across several chunks (32 rows a chunk on 2
        # coordinates, 10 on 6, 13 on 5).
        expr, s = self._cases()[case]
        rng, ref = np.random.default_rng(88), np.random.default_rng(88)
        diagnostics._step_certificates(expr, s, 40, rng)
        per_chunk = 2**16 // (1000 * s.n)
        for lo in range(0, 40, per_chunk):
            rows = min(per_chunk, 40 - lo)
            _dirichlet_rows(s, ref, rows)
            _dirichlet_rows(s, ref, rows * 1000)
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_zero_exponential_against_zero_gradient(self):
        # x3 is in no term, so g_3 = 0; every competitor draws an exact 0.0
        # for it.  log 0 would make 0 * -inf, a NaN margin, and a warning.
        class ZeroLast:
            def __init__(self):
                self.rng = np.random.default_rng(89)

            def standard_exponential(self, size):
                E = self.rng.standard_exponential(size)
                E[:, -1] = 0.0
                return E

        expr = MatrixPolynomial([[1, 1, 0], [2, 0, 1]], [1.0, 2.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            argmax = diagnostics._step_certificates(expr, BlockStructure((4,)), 40, ZeroLast())[1]
        assert math.isfinite(argmax["worst_margin"])
        assert argmax["pass"]


class TestConvexityProbe:
    def test_product_example_passes(self):
        rep = check_log_log_convexity(dlr_expression(), samples=60)
        assert rep.passed
        assert rep.samples == 60

    def test_random_trees_pass(self):
        rng = np.random.default_rng(76)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            expr = random_expression(rng, n, depth=3)
            rep = check_log_log_convexity(expr, samples=40, rng=rng)
            assert rep.passed, rep.worst_eigenvalue

    def test_random_polynomials_pass(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            expr = polynomial_to_expression(random_polynomial(rng, n))
            rep = check_log_log_convexity(expr, samples=30, rng=rng)
            assert rep.passed, rep.worst_eigenvalue

    def test_monomial_curvature_is_flat(self):
        expr = Prod((Const(2.0), Pow(Var(0), 3), Pow(Var(1), 2)))
        rep = check_log_log_convexity(expr, samples=30)
        assert rep.passed
        assert abs(rep.worst_eigenvalue) <= 1e-6

    def test_indefinite_raw_function_fails(self):
        # W(u) = u0^2 + u1^2 - 3 u0 u1 has Hessian eigenvalues (-1, 5):
        # convex along the diagonal, concave across it.
        def grad(U):
            return np.column_stack((2.0 * U[:, 0] - 3.0 * U[:, 1], 2.0 * U[:, 1] - 3.0 * U[:, 0]))

        rep = _curvature_probe(grad, 2, 50, np.random.default_rng(0), upper=False)
        assert not rep.passed
        assert rep.worst_eigenvalue < -0.5

    @pytest.mark.parametrize("upper", [False, True])
    @pytest.mark.parametrize("nan_at", ["every", "one"])
    def test_nan_sample_fails_the_probe(self, upper, nan_at):
        # Without the NaN the gradient is exactly convex (or concave), so the
        # NaN sample alone must fail the probe, not pass it with +inf.
        calls = itertools.count()

        def grad(V):
            # One call per chunk; its stencils are 4 points per sample, and
            # all 20 samples fit in the first chunk.
            assert next(calls) == 0 and V.shape == (20 * 4, 2)
            G = -V if upper else V.copy()
            if nan_at == "every":
                G[:] = np.nan
            else:  # one entry among sample 3's stencil points
                G[3 * 4 + 1, 0] = np.nan
            return G

        rep = _curvature_probe(grad, 2, 20, np.random.default_rng(0), upper=upper)
        assert not rep.passed
        assert math.isnan(rep.worst_eigenvalue)
        d = rep.to_json_dict()
        assert d["worst_eigenvalue"] is None
        json.dumps(d, allow_nan=False)

    def test_rejects_non_expression(self):
        with pytest.raises(ValueError, match="expected an expression"):
            check_log_log_convexity(object())

    @pytest.mark.parametrize("samples", [0, -3, 2.5, True, "3"])
    def test_rejects_no_samples(self, samples):
        message = f"samples must be a positive integer, got {samples!r}"
        with pytest.raises(ValueError, match=message):
            check_log_log_convexity(dlr_expression(), samples=samples)
        with pytest.raises(ValueError, match=message):
            check_log_concavity(dlr_expression(), samples=samples)

    def test_accepts_numpy_integer_samples(self):
        a = check_log_log_convexity(dlr_expression(), samples=np.int64(3), rng=np.random.default_rng(0))
        b = check_log_log_convexity(dlr_expression(), samples=3, rng=np.random.default_rng(0))
        assert json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict())
        point = BlockPoint(np.array([0.5, 0.5]), BlockStructure((2,)))
        c = verify_argmax_property(dlr_expression(), point, np.int64(3), np.random.default_rng(0))
        assert c.passed

    def test_probe_reads_the_hessian_through_the_module_name(self, monkeypatch):
        # One call per chunk of samples: a chunk holds 2**13 // (2 n^2)
        # samples, 1024 on the two coordinates of dlr.
        calls = []
        real = diagnostics._central_hessian_from_grad

        def counted(grad, u, h):
            calls.append(len(u))
            return real(grad, u, h)

        monkeypatch.setattr(diagnostics, "_central_hessian_from_grad", counted)
        check_log_log_convexity(dlr_expression(), samples=3)
        check_log_concavity(dlr_expression(), samples=2049)
        assert calls == [3, 1024, 1024, 1]

    @pytest.mark.parametrize("upper", [False, True])
    @pytest.mark.parametrize("case", ["k4", "dlr", "indefinite"])
    def test_chunked_probe_equals_a_loop_over_samples(self, upper, case):
        # 400 samples span several chunks (113 per chunk on k4's six
        # coordinates); the reference scores one sample at a time, as the
        # probe did before it was chunked.
        if case == "indefinite":
            n = 2

            def grad(U):
                return np.column_stack((2.0 * U[:, 0] - 3.0 * U[:, 1], 2.0 * U[:, 1] - 3.0 * U[:, 0]))
        else:
            e = discriminant_expression(k4_graph()) if case == "k4" else dlr_expression()
            n = e.n_vars
            if upper:
                grad = lambda X: expr_module._eval_log_gradients(e, X)[1] / X
            else:
                grad = lambda U: expr_module._eval_log_gradients(e, np.exp(U))[1]
        rep = _curvature_probe(grad, n, 400, np.random.default_rng(5), upper=upper)

        rng = np.random.default_rng(5)
        worst = (math.inf, None, None)
        for _ in range(400):
            v = rng.uniform(*((0.2, 2.0) if upper else (-3.0, 3.0)), n)
            H = expr_module._central_hessian_from_grad(grad, v[None], 1e-4 * v[None] if upper else 1e-4)[0]
            eigs = np.linalg.eigvalsh(H)
            eig = float(eigs[-1] if upper else eigs[0])
            norm = max(abs(float(eigs[0])), abs(float(eigs[-1])))
            margin = (-eig if upper else eig) + 1e-6 * (1.0 + norm)
            if margin < worst[0]:
                worst = (margin, eig, v)
        assert rep.worst_eigenvalue == worst[1]
        assert np.array_equal(rep.worst_point, worst[2] if upper else np.exp(worst[2]))
        assert rep.passed == (worst[0] >= 0.0) == (case != "indefinite")

    def test_json_keys(self):
        d = check_log_log_convexity(dlr_expression(), samples=10).to_json_dict()
        assert set(d) == {"samples", "worst_eigenvalue", "worst_point", "pass"}


class TestConcavityProbe:
    def test_graph_discriminants_pass(self):
        for g in (triangle_graph(), k4_graph()):
            rep = check_log_concavity(discriminant_expression(g), samples=60)
            assert rep.passed, rep.worst_eigenvalue

    def test_product_example_passes(self):
        # log of x^34 y^38 (1+2x)^125 is a sum of concave terms.
        rep = check_log_concavity(dlr_expression(), samples=60)
        assert rep.passed

    def test_sum_of_squares_fails(self):
        # x^2 + y^2 is a valid expression but log(x^2+y^2) is not concave;
        # the probe must say so.
        expr = Sum((Pow(Var(0), 2), Pow(Var(1), 2)))
        rep = check_log_concavity(expr, samples=50)
        assert not rep.passed
        assert rep.worst_eigenvalue > 0.0

    def test_rejects_non_expression(self):
        with pytest.raises(ValueError):
            check_log_concavity(object())

