"""Tests for expression trees, log-domain evaluation, and polynomial forms."""

import copy
import math
import os
import re
import sys
import itertools
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from kneejerk import (
    Const,
    MatrixPolynomial,
    Pow,
    Prod,
    Sum,
    Var,
    construct_expression,
    eval_log,
    expression_to_json_dict,
    hessian_log_u,
    polynomial_to_expression,
)
from kneejerk import expr as expr_module
from kneejerk.cli import _grid_batches
from kneejerk.discriminant import Graph, discriminant_polynomial
from kneejerk.simplex import BlockStructure
from generators import (
    discriminant_expression,
    dlr_expression,
    naive_poly_eval,
    random_expression,
    random_homogeneous_polynomial,
    random_polynomial,
)


class TestNodeValidation:
    def test_var_negative_index(self):
        with pytest.raises(ValueError):
            Var(-1)

    def test_const_must_be_positive(self):
        with pytest.raises(ValueError):
            Const(0.0)
        with pytest.raises(ValueError):
            Const(-2.0)
        with pytest.raises(ValueError):
            Const(float("inf"))

    def test_pow_exponent_must_be_positive(self):
        with pytest.raises(ValueError):
            Pow(Var(0), 0.0)
        with pytest.raises(ValueError):
            Pow(Var(0), -1.0)
        with pytest.raises(ValueError):
            Pow(Var(0), float("nan"))

    def test_sum_and_prod_need_children(self):
        with pytest.raises(ValueError):
            Sum(())
        with pytest.raises(ValueError):
            Prod(())

    def test_children_are_stored_as_tuples(self):
        s = Sum([Var(0), Var(1)])
        assert isinstance(s.terms, tuple)
        p = Prod([Var(0), Const(2.0)])
        assert isinstance(p.factors, tuple)

    def test_n_vars(self):
        e = Sum((Var(0), Prod((Var(3), Const(1.5)))))
        assert e.n_vars == 4
        assert Const(2.0).n_vars == 0


class TestEvalLog:
    def test_two_variable_product_example(self):
        # x^34 y^38 (1+2x)^125 at (1/2, 1/2): every factor is a power of 2,
        # so the log-value is 53*log(2) and the scaled gradient is exact.
        ev = eval_log(dlr_expression(), np.array([0.5, 0.5]))
        assert_allclose(ev.W, 53 * math.log(2.0), rtol=1e-13)
        assert_allclose(ev.W, 36.736800569677101399, rtol=1e-13)
        # x d/dx: 34 + 125 * (2x/(1+2x)) = 34 + 62.5 ; y d/dy: 38
        assert_allclose(ev.g, [96.5, 38.0], rtol=1e-13)

    def test_sum_of_two_halves_is_exact(self):
        ev = eval_log(Sum((Var(0), Var(1))), np.array([0.5, 0.5]))
        assert ev.W == 0.0
        assert_allclose(ev.g, [0.5, 0.5], rtol=1e-15)

    def test_matches_naive_polynomial_evaluation(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(1, 5))
            poly = random_polynomial(rng, n, max_degree=6)
            expr = polynomial_to_expression(poly)
            x = rng.uniform(0.3, 1.8, n)
            ev = eval_log(expr, x)
            direct = naive_poly_eval(poly, x)
            assert_allclose(math.exp(ev.W), direct, rtol=1e-12)

    def test_gradient_is_exactly_nonnegative(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            n = int(rng.integers(1, 5))
            expr = random_expression(rng, n, depth=3)
            x = np.exp(rng.uniform(-1.0, 1.0, n))
            ev = eval_log(expr, x)
            assert np.all(ev.g >= 0.0)
            assert np.all(np.isfinite(ev.g))

    def test_unused_variable_has_zero_gradient(self):
        ev = eval_log(Pow(Var(0), 3), np.array([2.0, 5.0]))
        assert ev.g[1] == 0.0
        assert_allclose(ev.g[0], 3.0, rtol=1e-14)

    def test_gradient_sums_to_degree_for_homogeneous(self):
        # Euler's identity: the scaled-gradient entries of a homogeneous
        # polynomial sum to its degree at every point.
        rng = np.random.default_rng(13)
        for _ in range(50):
            n = int(rng.integers(2, 5))
            d = int(rng.integers(1, 6))
            poly = random_homogeneous_polynomial(rng, n, d)
            expr = polynomial_to_expression(poly)
            x = np.exp(rng.uniform(-1.0, 1.0, n))
            ev = eval_log(expr, x)
            assert_allclose(ev.g.sum(), d, rtol=1e-10)

    def test_extreme_scales_stay_finite(self):
        # Direct evaluation of x^500 at 1e-30 underflows to zero; the
        # log-domain value is plainly finite.
        expr = Pow(Var(0), 500)
        ev = eval_log(expr, np.array([1e-30]))
        assert math.isfinite(ev.W)
        assert_allclose(ev.W, 500 * math.log(1e-30), rtol=1e-14)
        assert_allclose(ev.g, [500.0], rtol=1e-14)

    def test_large_values_do_not_overflow(self):
        expr = Sum((Pow(Var(0), 400), Pow(Var(1), 380)))
        ev = eval_log(expr, np.array([1e5, 1e5]))
        assert math.isfinite(ev.W)
        assert_allclose(ev.g.sum(), 400.0, rtol=1e-10)

    def test_rejects_nonpositive_points(self):
        expr = Sum((Var(0), Var(1)))
        with pytest.raises(ValueError):
            eval_log(expr, np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            eval_log(expr, np.array([-0.5, 1.5]))

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValueError):
            eval_log(Var(3), np.array([1.0, 2.0]))

    def test_shared_subtrees_evaluate_once(self):
        # A diamond-shaped DAG: the shared node must not be double-counted
        # in the gradient accumulation.
        shared = Sum((Var(0), Var(1)))
        expr = Prod((shared, shared))
        ev = eval_log(expr, np.array([0.25, 0.75]))
        assert_allclose(ev.W, 0.0, atol=1e-14)
        assert_allclose(ev.g, [0.5, 1.5], rtol=1e-13)


# Overflows to +inf at x0 = e^2 and to -inf at x1 = e^-2, so their product is NaN.
_NAN_PROD = Prod((Pow(Var(0), 1e308), Pow(Var(1), 1e308)))


class TestTape:
    def test_repeated_evaluations_compile_once(self, monkeypatch):
        calls = []
        real = expr_module._postorder

        def counted(root):
            calls.append(root)
            return real(root)

        monkeypatch.setattr(expr_module, "_postorder", counted)
        e = dlr_expression()
        for x in ([0.5, 0.5], [0.2, 0.8], [0.9, 0.1]):
            eval_log(e, np.array(x))
        expr_module._eval_log_values(e, np.array([[0.5, 0.5], [0.0, 1.0]]))
        expr_module._eval_log_raw(e, np.array([0.3, 0.7]))
        assert calls == [e]

    def test_alternating_trees_compile_once_each(self, monkeypatch):
        calls = {"_monomials": [], "_postorder": []}
        for name, log in calls.items():
            real = getattr(expr_module, name)

            def counted(root, real=real, log=log):
                log.append(root)
                return real(root)

            monkeypatch.setattr(expr_module, name, counted)
        tape = dlr_expression()  # the slot tape
        poly = polynomial_to_expression(random_polynomial(np.random.default_rng(24), 2))
        for x in ([0.5, 0.5], [0.2, 0.8], [0.9, 0.1]):
            for e in (tape, poly):
                eval_log(e, np.array(x))
        assert calls == {"_monomials": [tape, poly], "_postorder": [tape]}

    def test_n_vars_of_a_compiled_tree_walks_nothing(self, monkeypatch):
        e = dlr_expression()
        eval_log(e, np.array([0.5, 0.5]))
        calls = []
        real = expr_module._postorder

        def counted(root):
            calls.append(root)
            return real(root)

        monkeypatch.setattr(expr_module, "_postorder", counted)
        assert e.n_vars == 2
        assert calls == []

    def test_shared_subtree_gets_one_slot(self):
        shared = Sum((Var(0), Var(1)))
        tape = Prod((shared, shared, Const(2.0)))._form
        assert tape.n == 2
        assert tape.kinds.count(Sum) == 1
        t, arg = tape.kinds[-1], tape.args[-1]
        assert t is Prod and arg[0] == arg[1]

    def test_alternating_expressions_match_fresh_evaluations(self):
        rng = np.random.default_rng(21)
        exprs = [random_expression(rng, 3, depth=4) for _ in range(3)]
        exprs.append(polynomial_to_expression(random_polynomial(rng, 4)))
        points = np.exp(rng.uniform(-1.0, 1.0, (4, 4)))
        # A deep copy is a new object, so each reference evaluation compiles.
        fresh = [[eval_log(copy.deepcopy(e), x) for x in points] for e in exprs]
        for _ in range(2):
            for j, x in enumerate(points):
                for e, ref in zip(exprs, fresh):
                    ev = eval_log(e, x)
                    assert ev.W == ref[j].W
                    assert np.array_equal(ev.g, ref[j].g)

    def test_threads_sharing_the_cache_never_mix_tapes(self, monkeypatch):
        # Two expressions, each evaluated by at least two threads, keep the
        # one-entry cache changing hands; every compile yields the lock
        # halfway, so other threads read the cache while it is being replaced.
        for name in ("_postorder", "_monomials"):  # the tree and the polynomial compile
            real = getattr(expr_module, name)

            def yielding(root, real=real):
                time.sleep(0)
                return real(root)

            monkeypatch.setattr(expr_module, name, yielding)
        rng = np.random.default_rng(23)
        exprs = [polynomial_to_expression(random_polynomial(rng, 3)) for _ in range(2)]
        x = np.array([0.2, 0.3, 0.5])
        refs = [eval_log(copy.deepcopy(e), x) for e in exprs]
        wrong = []
        workers = max(min((os.cpu_count() or 1) + 1, 16), 4)
        start = threading.Barrier(workers)

        def work(e, ref):
            start.wait(timeout=60)
            for _ in range(2000):
                ev = eval_log(e, x)
                if ev.W != ref.W or not np.array_equal(ev.g, ref.g):
                    wrong.append(e)

        threads = [
            threading.Thread(target=work, args=(exprs[i % 2], refs[i % 2]))
            for i in range(workers)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []

    def test_variable_range_belongs_to_each_expression(self):
        small, big = Sum((Var(0), Var(1))), Prod((Var(0), Var(3)))
        eval_log(big, np.ones(4))
        assert eval_log(small, np.array([0.5, 0.5])).W == 0.0
        with pytest.raises(ValueError, match="variable 3"):
            eval_log(big, np.array([0.5, 0.5]))

    def test_batch_rows_match_point_evaluations(self):
        rng = np.random.default_rng(22)
        for i in range(200):
            n = int(rng.integers(1, 5))
            if i % 2:
                e = random_expression(rng, n, depth=4)
            else:
                e = polynomial_to_expression(random_polynomial(rng, n, max_degree=6))
            X = rng.uniform(0.0, 2.0, (6, n))
            X[rng.random((6, n)) < 0.3] = 0.0
            W = expr_module._eval_log_values(e, X)
            assert W.shape == (6,)
            for x, w in zip(X, W):
                if w == -math.inf:
                    with pytest.raises(ValueError, match="vanishes"):
                        expr_module._eval_log_raw(e, x)
                else:
                    W_point = expr_module._eval_log_raw(e, x)[0]
                    assert_allclose(W_point, w, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("x", [[1.0, 0.0], [0.0, 0.0]])
    def test_raw_evaluation_raises_on_vanishing_objective(self, x):
        with pytest.raises(ValueError, match="vanishes"):
            expr_module._eval_log_raw(Prod((Var(0), Var(1))), np.array(x))

    @pytest.mark.parametrize(
        "e, x2",
        [
            (_NAN_PROD, 1.0),
            (Sum((_NAN_PROD, Var(2))), 1.0),
            # The NaN sits behind a -inf maximum, inside a live sum.
            (Sum((Sum((Var(2), _NAN_PROD)), Var(0))), 0.0),
        ],
        ids=["prod", "live-sum", "behind-dead-max"],
    )
    def test_raw_evaluation_raises_on_nan(self, e, x2):
        x = np.array([math.exp(2.0), math.exp(-2.0), x2])
        with pytest.raises(ValueError, match="W = nan"):
            expr_module._eval_log_raw(e, x)

    @pytest.mark.parametrize(
        "e",
        [Const(2.0), Sum((Const(2.0), Const(3.0))), Prod((Const(2.0), Pow(Const(3.0), 2.0)))],
        ids=["const", "sum", "prod"],
    )
    def test_constant_tree_gives_one_value_per_row(self, e):
        W = expr_module._eval_log_values(e, np.full((5, 2), 0.5))
        assert W.shape == (5,)
        assert_allclose(W, eval_log(e, np.array([0.5, 0.5])).W, rtol=1e-15)


def _assert_matches_tape(e, x):
    """The monomial form of ``e`` against the slot tape of ``Pow(e, 1.0)``, the
    same value in a shape the monomial form does not take: both raise, or
    both agree within 1e-12 relative."""
    ref = Pow(e, 1.0)
    try:
        W_ref, g_ref = expr_module._eval_log_raw(ref, x)
    except ValueError:
        with pytest.raises(ValueError, match="vanishes"):
            expr_module._eval_log_raw(e, x)
        return
    W, g = expr_module._eval_log_raw(e, x)
    assert type(W) is float
    assert_allclose(W, W_ref, rtol=1e-12, atol=1e-12)
    assert g.shape == (x.size,)
    assert_allclose(g, g_ref, rtol=1e-12, atol=1e-12)
    assert np.all(g[e.n_vars :] == 0.0)


def _plain_point(form, x):
    """``W`` and ``g`` at ``x`` by the matrix form's plain formula, with the
    same products as ``_MatrixForm.point``: ``z = E log x + log c`` (terms
    that read a zero coordinate set to -inf), ``W = max z + log sum
    exp(z - max z)`` and ``g = exp(z - max z) E / sum exp(z - max z)``."""
    E, n = form.E, form.n
    xs = x[:n]
    zero = xs == 0.0
    z = E @ np.log(np.where(zero, 1.0, xs)) + form.log_c
    z[E[:, zero].any(axis=1)] = -math.inf
    m = z.max()
    if m == -math.inf:
        expr_module._raise_vanishes(m)
    p = np.exp(z - m)
    s = p.sum()
    g = p @ E / s
    return float(m + math.log(s)), np.concatenate((g, np.zeros(x.size - n)))


def _k6_expression():
    return discriminant_expression(Graph(6, tuple(itertools.combinations(range(6), 2))))


class TestMatrixPolynomial:
    def test_arrays_and_variable_count(self):
        e = MatrixPolynomial([[1, 0, 2, 0, 0], [0, 0, 1, 0, 0]], [2.0, 1.0])
        assert e.E.dtype == np.float64 and e.E.flags.c_contiguous
        assert e.E.tolist() == [[0.0, 0.0, 1.0], [1.0, 0.0, 2.0]]  # rows in canonical order
        assert e.log_c.tolist() == [0.0, math.log(2.0)]
        assert e.n_vars == 3 and e.children() == ()
        assert not (e.E.flags.writeable or e.c.flags.writeable or e.log_c.flags.writeable)
        assert MatrixPolynomial([[0, 0]], [3.0]).n_vars == 0

    def test_equality_compares_the_arrays(self):
        a = MatrixPolynomial([[1, 1]], [2.0])
        assert a == MatrixPolynomial([[1, 1, 0]], [2.0])
        assert a != MatrixPolynomial([[1, 1]], [3.0])
        assert a != MatrixPolynomial([[1, 2]], [2.0])
        assert a != Prod((Const(2.0), Var(0), Var(1)))

    @pytest.mark.parametrize(
        "E, c, match",
        [
            ([1, 2], [1.0], "exponent matrix"),
            ([[1, 2]], [1.0, 2.0], "exponent matrix"),
            (np.zeros((0, 2)), [], "exponent matrix"),
            ([[1, -1]], [1.0], "nonnegative integers"),
            ([[0.5, 1]], [1.0], "nonnegative integers"),
            ([[math.nan, 1]], [1.0], "nonnegative integers"),
            ([[1, 1]], [0.0], "positive"),
            ([[1, 1]], [math.nan], "positive"),
        ],
    )
    def test_rejects(self, E, c, match):
        with pytest.raises(ValueError, match=match):
            MatrixPolynomial(E, c)

    def test_rejects_an_infinite_exponent(self):
        # floor(inf) == |inf|, so only an explicit check keeps it out of the
        # slot tape, where Pow would reject it with no word of exponents.
        with pytest.raises(ValueError, match="^exponents must be nonnegative integers$"):
            MatrixPolynomial([[math.inf, 1], [0, 1]], [1.0, 1.0])

    def test_rejects_an_infinite_coefficient(self):
        with pytest.raises(ValueError, match="^coefficients must be finite and positive$"):
            MatrixPolynomial([[1, 1], [0, 1]], [math.inf, 1.0])

    def test_terms_are_canonically_sorted(self):
        p = MatrixPolynomial([[0, 1], [1, 0]], [1.0, 2.0])
        q = MatrixPolynomial([[1, 0], [0, 1]], [2.0, 1.0])
        assert p == q
        assert p.E.tolist() == q.E.tolist() == [[0.0, 1.0], [1.0, 0.0]]
        assert p.c.tolist() == q.c.tolist() == [1.0, 2.0]
        assert p.log_c.tolist() == [0.0, math.log(2.0)]
        # Lexicographic by row, first column first; all-zero columns between
        # used ones still count as columns.
        r = MatrixPolynomial([[1, 0, 0, 2], [0, 0, 0, 3], [1, 0, 0, 1], [0, 0, 0, 0]], [1.0, 2.0, 3.0, 4.0])
        assert r.E.tolist() == [[0, 0, 0, 0], [0, 0, 0, 3], [1, 0, 0, 1], [1, 0, 0, 2]]
        assert r.c.tolist() == [4.0, 2.0, 3.0, 1.0]

    def test_duplicate_exponents_merge(self):
        p = MatrixPolynomial([[1, 1], [1, 1]], [1.0, 2.5])
        assert p.E.tolist() == [[1.0, 1.0]]
        assert p.c.tolist() == [3.5]
        assert p.log_c.tolist() == [math.log(3.5)]
        constant = MatrixPolynomial([[0, 0], [0, 0], [0, 0]], [1.0, 2.0, 3.0])
        assert constant.E.shape == (1, 0) and constant.c.tolist() == [6.0]

    def test_duplicates_add_in_input_order(self):
        # 1e16 + 1 rounds back to 1e16 while 1 + 1 + 1e16 is exact: the sum
        # shows the order the repeats were added in, also with another row
        # sorted in between.
        big = 1e16
        assert MatrixPolynomial([[1], [1], [1]], [big, 1.0, 1.0]).c.tolist() == [big]
        p = MatrixPolynomial([[1], [0], [1], [1]], [1.0, 5.0, 1.0, big])
        assert p.E.tolist() == [[0.0], [1.0]]
        assert p.c.tolist() == [5.0, big + 2.0]

    def test_rows_equal_as_float64_merge(self):
        # 2**53 + 1 rounds to 2**53: the two rows are one monomial of E.
        p = MatrixPolynomial([[2**53, 0], [0, 1], [2**53 + 1, 0]], [1.0, 1.0, 2.0])
        assert p.E.tolist() == [[0.0, 1.0], [2.0**53, 0.0]]
        assert p.c.tolist() == [1.0, 3.0]
        # The same rows as an int64 array, where they differ: still merged.
        q = MatrixPolynomial(np.array([[2**53, 0], [0, 1], [2**53 + 1, 0]], dtype=np.int64), [1.0, 1.0, 2.0])
        assert q == p and q.E.dtype == np.float64

    def test_unit_coefficients_skip_the_logs(self):
        for E in ([[1, 0, 2], [0, 1, 0], [2, 2, 0]], [[0, 0]], [[3, 1], [1, 3]]):
            p = MatrixPolynomial(E, [1.0] * len(E))
            ref = np.array([math.log(v) for v in p.c.tolist()])
            assert p.log_c.tobytes() == ref.tobytes() and p.log_c.dtype == ref.dtype
            assert p._form.unit

    def test_merged_unit_coefficients_take_their_log(self):
        # Unit rows before the merge, but 1 + 1 = 2 after it.
        p = MatrixPolynomial([[1, 0], [0, 1], [1, 0]], [1.0, 1.0, 1.0])
        assert p.c.tolist() == [1.0, 2.0]
        assert p.log_c.tolist() == [0.0, math.log(2.0)]
        assert not p._form.unit
        assert MatrixPolynomial([[2, 2], [2, 2]], [1.0, 1.0]).log_c.tolist() == [math.log(2.0)]

    @pytest.mark.parametrize("dtype", [np.int64, np.uint8, np.bool_])
    def test_integer_arrays_build_what_float_lists_build(self, dtype):
        rng = np.random.default_rng(38)
        top = 2 if dtype is np.bool_ else 4
        for _ in range(20):
            E = rng.integers(0, top, (int(rng.integers(1, 12)), int(rng.integers(0, 6))))
            c = rng.choice([1.0, 1.0, 2.5], len(E))
            a = MatrixPolynomial(E.astype(dtype), c)
            b = MatrixPolynomial(E.astype(float).tolist(), c)
            for x, y in ((a.E, b.E), (a.c, b.c), (a.log_c, b.log_c)):
                assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
            assert type(a._form) is type(b._form)

    def test_negative_integer_array_is_refused_as_a_list_is(self):
        for E in ([[1, -1]], [[0, 2], [-3, 0]]):
            with pytest.raises(ValueError, match="^exponents must be nonnegative integers$"):
                MatrixPolynomial(np.array(E, dtype=np.int64), [1.0] * len(E))
            with pytest.raises(ValueError, match="^exponents must be nonnegative integers$"):
                MatrixPolynomial(E, [1.0] * len(E))

    def test_rejects_bad_terms(self):
        def poly(*terms, n=2):
            return {"n": n, "terms": [{"c": c, "e": e} for c, e in terms]}

        for data, match in [
            (poly((0.0, [1, 0])), "coefficient must be finite and positive"),
            (poly((-1.0, [1, 0])), "coefficient must be finite and positive"),
            (poly((1.0, [1, 0, 0])), r"exponent vector \(1, 0, 0\) has length 3, expected 2"),
            (poly((1.0, [-1, 0])), r"exponents must be nonnegative integers, got -1 in \(-1, 0\)"),
            (poly(), "polynomial requires at least one term"),
        ]:
            with pytest.raises(ValueError, match=f"^poly: {match}"):
                MatrixPolynomial.from_json_dict(data, "poly")
        for E, c in [([[1, 0]], [0.0]), ([[1, 0]], [-1.0]), ([[-1, 0]], [1.0])]:
            with pytest.raises(ValueError, match="coefficients|exponents"):
                MatrixPolynomial(E, c)

    def test_json_exponents_reach_the_constructor_as_int64(self):
        # The constructor checks an integer array for its sign only; an
        # exponent past int64 keeps the float path and its overflow error.
        seen = []

        class Spy(MatrixPolynomial):
            def __post_init__(self):
                seen.append(self.E.dtype if isinstance(self.E, np.ndarray) else type(self.E))
                super().__post_init__()

        def poly(top):
            return {"n": 2, "terms": [{"c": 1.0, "e": [top, 0]}, {"c": 2.0, "e": [0, 1]}]}

        for top, route in ((3, np.int64), (2**63 - 1, np.int64), (2**63, list), (10**298, list)):
            seen.clear()
            p = Spy.from_json_dict(poly(top), "poly")
            assert seen == [route]
            want = MatrixPolynomial([[top, 0], [0, 1]], [1.0, 2.0])
            for a, b in ((p.E, want.E), (p.c, want.c), (p.log_c, want.log_c)):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        with pytest.raises(ValueError, match="^poly: exponent is an integer too large for a float$"):
            MatrixPolynomial.from_json_dict(poly(10**400), "poly")

    def test_json_round_trip(self):
        p = MatrixPolynomial([[1, 0, 2], [0, 3, 0]], [1.5, 2.0])
        data = p.to_json_dict(3)
        assert data == {"n": 3, "terms": [{"c": 2.0, "e": [0, 3, 0]}, {"c": 1.5, "e": [1, 0, 2]}]}
        assert MatrixPolynomial.from_json_dict(data, "poly") == p

    def test_from_json_reports_path(self):
        with pytest.raises(ValueError, match="poly"):
            MatrixPolynomial.from_json_dict({"n": 2}, "poly")

    def test_cannot_be_nested(self):
        e = MatrixPolynomial([[1, 1]], [2.0])
        for build in (lambda: Sum((e, Var(0))), lambda: Prod((Var(0), e)), lambda: Pow(e, 2.0)):
            with pytest.raises(ValueError, match="cannot be a MatrixPolynomial"):
                build()

    def test_evaluates_like_its_tree_without_touching_the_cache(self):
        rng = np.random.default_rng(33)
        for _ in range(50):
            e = random_polynomial(rng, 4, max_degree=6, max_terms=12)
            tree = polynomial_to_expression(e)
            x = rng.uniform(0.0, 1.0, 5)
            X = rng.uniform(0.0, 1.0, (6, 5))
            try:
                ev = expr_module._eval_log_raw(e, x)
            except ValueError:
                with pytest.raises(ValueError, match="vanishes"):
                    expr_module._eval_log_raw(tree, x)
            else:
                ref = expr_module._eval_log_raw(tree, x)
                assert ev[0] == ref[0] and np.array_equal(ev[1], ref[1])
            assert np.array_equal(expr_module._eval_log_values(e, X), expr_module._eval_log_values(tree, X))
            assert e._form.E is e.E and e._form.log_c is e.log_c

    def test_to_json_dict_pads_to_n(self):
        e = MatrixPolynomial([[0, 2, 0, 0], [1, 0, 1, 0]], [3.0, 1.5])
        assert e.n_vars == 3
        terms = [{"c": 3.0, "e": [0, 2, 0, 0]}, {"c": 1.5, "e": [1, 0, 1, 0]}]
        assert e.to_json_dict(4) == {"n": 4, "terms": terms}
        assert e.to_json_dict(3)["terms"][0]["e"] == [0, 2, 0]
        assert all(type(k) is int for t in e.to_json_dict(5)["terms"] for k in t["e"])

    @pytest.mark.parametrize(
        "E",
        [
            [[1e300, 1], [0, 1]],  # the term bound reaches 1e300
            [[1.5e297, 0], [1, 1]],
            [[1] + [0] * 70000 + [1]],  # too sparse for a dense E
        ],
        ids=["exponent", "exponent-sum", "sparse"],
    )
    def test_past_the_guard_scores_like_its_tree(self, E):
        e = MatrixPolynomial(E, [2.0] * len(E))
        tree = polynomial_to_expression(e)
        assert type(e._form) is expr_module._SlotTape
        assert e.n_vars == tree.n_vars == len(E[0])
        rng = np.random.default_rng(37)
        X = rng.uniform(0.5, 1.5, (5, e.n_vars))
        X[0, 0] = 0.0
        assert np.array_equal(expr_module._eval_log_values(e, X), expr_module._eval_log_values(tree, X))
        for x in X[1:]:
            a, b = eval_log(e, x), eval_log(tree, x)
            assert a.W == b.W and np.array_equal(a.g, b.g)


def _lexsort_reference(rows):
    # np.lexsort takes at least one key; with no column every row is the same.
    return np.lexsort(rows.T[::-1]) if rows.shape[1] else np.arange(len(rows))


class TestLexOrder:
    """``expr._lex_order`` against ``np.lexsort``: the same permutation, ties
    in input order, with a key exactly where the radix product allows one."""

    @staticmethod
    def _check(rows, keyed):
        top = rows.max(axis=0).tolist()
        order, key = expr_module._lex_order(rows, top)
        ref = _lexsort_reference(rows)
        assert order.dtype == ref.dtype and np.array_equal(order, ref)
        assert (key is not None) is keyed
        if key is not None:
            s = rows[order]
            assert np.array_equal(key[1:] == key[:-1], (s[1:] == s[:-1]).all(axis=1))
            assert (key[1:] >= key[:-1]).all()
        return key

    def test_random_tables_with_ties(self):
        rng = np.random.default_rng(39)
        for i in range(300):
            t, n = int(rng.integers(1, 3000 if i % 10 == 0 else 60)), int(rng.integers(0, 7))
            rows = rng.integers(0, int(rng.choice([1, 2, 3, 50])), (t, n))
            if n > 2:
                rows[:, 1] = 0  # an all-zero column between used ones
            if i % 2:
                rows = rows.astype(float)
                rows[rows == 0.0] = rng.choice([0.0, -0.0], int((rows == 0.0).sum()))
            self._check(rows, True)

    def test_many_ties_keep_input_order(self):
        # Only a stable sort of the keys keeps the repeats in input order.
        rng = np.random.default_rng(40)
        rows = rng.integers(0, 2, (5000, 3)).astype(float)
        self._check(rows, True)
        self._check(rows.astype(np.int64), True)

    def test_a_single_column_at_two_to_the_53(self):
        # Its radix 2^53 + 1 rounds to 2^53; the other columns are zero, so the
        # key is the column itself.
        rows = np.array([[0.0, 2.0**53, 0.0], [0.0, 5.0, 0.0], [0.0, 2.0**53, 0.0], [0.0, 0.0, 0.0]])
        key = self._check(rows, True)
        assert key.tolist() == [0.0, 5.0, 2.0**53, 2.0**53]

    def test_radix_product_at_and_past_two_to_the_53(self):
        at = np.array([[2.0**26 - 1, 2.0**27 - 1], [2.0**26 - 1, 0.0], [0.0, 2.0**27 - 1], [2.0**26 - 1, 2.0**27 - 1]])
        key = self._check(at, True)
        assert key[-1] == 2.0**53 - 1
        self._check(at.astype(np.int64), True)
        past = at.copy()
        past[2, 1] = 2.0**27  # radices 2^26 and 2^27 + 1
        self._check(past, False)
        self._check(np.array([[1.0, 2.0**53 - 1], [0.0, 2.0**53 - 1]]), False)

    def test_overflowing_radix_product_falls_back(self):
        rows = np.array([[1e300, 0.0, 1e300], [0.0, 1.0, 1e300], [1e300, 0.0, 0.0], [1e300, 0.0, 1e300]])
        self._check(rows, False)
        p = MatrixPolynomial(rows, [1.0, 2.0, 3.0, 4.0])
        assert p.E.tolist() == [[0.0, 1.0, 1e300], [1e300, 0.0, 0.0], [1e300, 0.0, 1e300]]
        assert p.c.tolist() == [2.0, 3.0, 5.0]


class TestMonomialForm:
    @staticmethod
    def _is_monomial_form(e):
        return type(e._form) is expr_module._MatrixForm

    def test_point_equals_the_plain_formula_bit_for_bit(self):
        rng = np.random.default_rng(36)
        merged = MatrixPolynomial([[1, 0, 1], [0, 2, 0], [1, 0, 1]], [1.0, 1.0, 1.0])
        assert merged.c.tolist() == [1.0, 2.0]  # the repeated row, merged: c = 2
        k5 = discriminant_polynomial(Graph(5, tuple(itertools.combinations(range(5), 2))))
        forms = [(merged._form, False), (k5._form, True), (_k6_expression()._form, True)]
        for _ in range(40):
            poly = random_polynomial(rng, int(rng.integers(1, 6)), max_degree=6, max_terms=12)
            forms.append((poly._form, False))
        seen = {"zero": 0, "padded": 0, "vanishes": 0}
        for form, unit in forms:
            assert type(form) is expr_module._MatrixForm and form.unit is unit
            for i in range(12):
                x = rng.uniform(0.0, 2.0, form.n + int(rng.integers(0, 3)))
                if i % 2:
                    x[rng.random(x.size) < 0.5] = 0.0
                seen["zero"] += bool((x == 0.0).any())
                seen["padded"] += form.n < x.size
                try:
                    W_ref, g_ref = _plain_point(form, x)
                except ValueError as err:
                    with pytest.raises(ValueError) as got:
                        form.point(x)
                    assert str(got.value) == str(err)
                    seen["vanishes"] += 1
                    continue
                W, g = form.point(x)
                assert type(W) is float and W.hex() == W_ref.hex()
                assert g.shape == g_ref.shape and g.tobytes() == g_ref.tobytes()
        assert min(seen.values()) >= 20, seen

    def test_zero_coordinates_match_the_column_mask_bit_for_bit(self):
        # The point evaluation takes log 0 as the stand-in S; _plain_point
        # kills each term that reads a zero coordinate instead.  Random
        # polynomials with unit and other coefficients, coordinates from
        # 1e-300 to 1e300 (live terms near both ends of [-B, B]), and padded
        # points: W and g agree bit for bit, with no warning, and where every
        # term dies both raise the same error, with W = -inf.  With an
        # exponent of 10**160, S times it passes the largest float, so such
        # a term is -inf.
        rng = np.random.default_rng(3737)
        overflowing = MatrixPolynomial([[10**160, 0], [0, 1]], [1.0, 2.0])._form
        assert overflowing._dead_overflows
        forms = [overflowing] * 20
        for i in range(150):
            poly = random_polynomial(rng, int(rng.integers(1, 7)), max_degree=8, max_terms=12)
            forms.append(MatrixPolynomial(poly.E, np.ones(len(poly.c)))._form if i % 2 else poly._form)
        seen = {"unit": 0, "log c": 0, "padded": 0, "some dead": 0, "vanishes": 0, "overflowing": 0}
        for form in forms:
            if not form.n:
                continue
            x = 10.0 ** rng.uniform(-300, 300, form.n + int(rng.integers(0, 3)))
            x[rng.random(x.size) < 0.4] = 0.0
            x[int(rng.integers(form.n))] = 0.0
            dead = form.E[:, x[: form.n] == 0.0].any(axis=1)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    W_ref, g_ref = _plain_point(form, x)
                except ValueError as err:
                    assert "W = -inf" in str(err) and dead.all()
                    with pytest.raises(ValueError) as got:
                        form.point(x)
                    assert str(got.value) == str(err)
                    seen["vanishes"] += 1
                    continue
                W, g = form.point(x)
            assert type(W) is float and W.hex() == W_ref.hex()
            assert g.shape == g_ref.shape and g.tobytes() == g_ref.tobytes()
            seen["unit" if form.unit else "log c"] += 1
            seen["padded"] += form.n < x.size
            seen["some dead"] += bool(dead.any())
            seen["overflowing"] += form is overflowing
        assert min(seen.values()) >= 5, seen

    def test_polynomials_take_the_matrix_form_and_other_trees_the_tape(self):
        poly = polynomial_to_expression(random_polynomial(np.random.default_rng(30), 3))
        assert self._is_monomial_form(poly)
        assert self._is_monomial_form(_k6_expression())
        assert not self._is_monomial_form(Pow(poly, 1.0))
        assert not self._is_monomial_form(dlr_expression())
        assert not self._is_monomial_form(Sum((Sum((Var(0), Var(1))), Var(2))))
        assert not self._is_monomial_form(Prod((Var(0), Prod((Var(1), Var(2))))))
        assert not self._is_monomial_form(Pow(Const(2.0), 3.0))

    def test_random_polynomials_match_the_tape(self):
        rng = np.random.default_rng(31)
        for i in range(300):
            n = int(rng.integers(1, 6))
            e = polynomial_to_expression(random_polynomial(rng, n, max_degree=6, max_terms=12))
            x = rng.uniform(0.0, 2.0, n + int(rng.integers(0, 3)))  # surplus coordinates
            if i % 3 == 0:
                x[rng.random(x.size) < 0.4] = 0.0
            _assert_matches_tape(e, x)

    @pytest.mark.parametrize(
        "e",
        [
            Prod((Var(0), Var(0))),
            Pow(Var(1), 0.5),
            Sum((Const(2.0), Prod((Const(3.0), Var(0), Pow(Var(2), 2.5))))),
            Sum((Prod((Const(2.0), Var(0), Const(0.5), Var(0), Pow(Var(0), 1.5))), Var(1))),
            Sum((Var(0), Var(0), Var(2))),
            Var(1),
            Const(2.0),
            Sum((Const(2.0), Const(3.0))),
            Pow(Var(0), 1e296),  # just inside the overflow guard
        ],
        ids=["repeated-var", "fractional-pow", "const-term", "const-factors", "repeated-term",
             "bare-var", "const", "const-sum", "huge-exponent"],
    )
    def test_monomial_shapes_match_the_tape(self, e):
        assert self._is_monomial_form(e)
        for x in ([0.5, 0.25, 2.0], [0.0, 0.7, 1.5], [0.3, 0.0, 0.0], [0.0, 0.0, 0.0],
                  [1.2, 0.8, 0.4, 0.9, 0.0]):
            _assert_matches_tape(e, np.array(x))

    @pytest.mark.parametrize(
        "e",
        [
            Sum((Pow(Var(0), 1e300), Var(1))),
            Prod((Var(0), Pow(Var(0), 1.5e297))),
            _NAN_PROD,
            Sum((Pow(Var(0), 1e-310), Var(1))),  # log 0 would need an infinite stand-in
        ],
        ids=["exponent", "exponent-sum", "nan-prod", "tiny-exponent"],
    )
    def test_exponents_past_the_guard_keep_the_tape(self, e):
        assert not self._is_monomial_form(e)

    def test_large_variable_index_keeps_the_tape(self):
        e = Prod((Var(0), Var(10**9)))
        assert not self._is_monomial_form(e)
        with pytest.raises(ValueError, match="variable 1000000000"):
            eval_log(e, np.ones(3))

    def test_repeated_evaluations_compile_once(self, monkeypatch):
        calls = {"_monomials": [], "_postorder": []}
        for name, log in calls.items():
            real = getattr(expr_module, name)

            def counted(root, real=real, log=log):
                log.append(root)
                return real(root)

            monkeypatch.setattr(expr_module, name, counted)
        e = _k6_expression()
        for seed in range(3):
            eval_log(e, np.random.default_rng(seed).uniform(0.1, 1.0, 15))
        expr_module._eval_log_values(e, np.full((4, 15), 0.5))
        expr_module._eval_log_raw(e, np.full(15, 0.2))
        assert calls == {"_monomials": [e], "_postorder": []}

    def test_batch_rows_match_the_tape(self):
        rng = np.random.default_rng(32)
        for _ in range(100):
            n = int(rng.integers(1, 6))
            e = polynomial_to_expression(random_polynomial(rng, n, max_degree=6, max_terms=12))
            X = rng.uniform(0.0, 2.0, (7, n + 1))
            X[rng.random(X.shape) < 0.3] = 0.0
            W = expr_module._eval_log_values(e, X)
            W_ref = expr_module._eval_log_values(Pow(e, 1.0), X)
            assert np.array_equal(W == -math.inf, W_ref == -math.inf)
            live = W_ref > -math.inf
            assert_allclose(W[live], W_ref[live], rtol=1e-12, atol=1e-12)

    def test_mostly_dead_grid_matches_point_evaluations(self):
        # K5 on its resolution-9 grid: most coordinates are 0, so almost
        # every term value is dead and many whole points vanish.
        e = discriminant_polynomial(Graph(5, tuple(itertools.combinations(range(5), 2))))
        s = BlockStructure((10,))
        X = np.concatenate([c / 9.0 for c in _grid_batches(s, 9)])
        dead_terms = (X == 0.0).astype(float) @ (e.E.T > 0.0) > 0.0
        assert dead_terms.mean() > 0.9
        W = expr_module._eval_log_values(e, X)
        assert W.shape == (len(X),)
        assert 0 < np.count_nonzero(W == -math.inf) < len(X)
        for x, w in zip(X, W):
            if w == -math.inf:
                with pytest.raises(ValueError, match="vanishes"):
                    expr_module._eval_log_raw(e, x)
            else:
                assert_allclose(w, expr_module._eval_log_raw(e, x)[0], rtol=1e-12, atol=1e-12)

    def test_a_lone_row_scores_as_in_a_batch(self):
        # numpy multiplies and sums a one-column table as vectors, which
        # round unlike longer chunks; each row must get its batch value bit
        # for bit, also as the lone last row of a batch (K6: 50-row chunks).
        # A single term is a one-row table, whose vector product rounds by
        # the row's place in the batch.
        rng = np.random.default_rng(36)
        k5 = discriminant_polynomial(Graph(5, tuple(itertools.combinations(range(5), 2))))
        monomial = MatrixPolynomial([[0, 0, 0, 1, 0, 2, 1, 1, 0]], [2.0])
        cases = [(k5, 40), (_k6_expression(), 51), (monomial, 40)]
        for _ in range(30):
            poly = random_polynomial(rng, 4, max_degree=8, max_terms=30)
            cases.append((poly, 9))
        for e, rows in cases:
            X = rng.uniform(0.0, 1.0, (rows, e.n_vars))
            X[rng.random(X.shape) < 0.1] = 0.0
            W = expr_module._eval_log_values(e, X)
            assert (W > -math.inf).any()
            for i in range(rows):
                assert expr_module._eval_log_values(e, X[i : i + 1])[0] == W[i]
                assert expr_module._eval_log_values(e, X[i : i + 2])[0] == W[i]

    def test_all_dead_batch_gives_only_minus_inf(self):
        e = MatrixPolynomial([[1, 1, 0], [0, 1, 1], [2, 0, 1]], [1.0, 3.0, 0.5])
        X = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
        assert np.array_equal(expr_module._eval_log_values(e, X), np.full(4, -math.inf))

    def test_fractional_exponents_match_the_tape(self):
        e = Sum((Prod((Const(2.0), Pow(Var(0), 0.5), Pow(Var(1), 2.5))), Pow(Var(2), 0.5), Var(1)))
        assert self._is_monomial_form(e)
        rng = np.random.default_rng(35)
        X = rng.uniform(0.0, 2.0, (40, 3))
        X[rng.random(X.shape) < 0.4] = 0.0
        W = expr_module._eval_log_values(e, X)
        W_ref = expr_module._eval_log_values(Pow(e, 1.0), X)
        assert np.array_equal(W == -math.inf, W_ref == -math.inf)
        assert (W == -math.inf).any()
        live = W_ref > -math.inf
        assert_allclose(W[live], W_ref[live], rtol=1e-12, atol=1e-12)

    @staticmethod
    def _batch_peaks(e, row_counts, seed):
        """tracemalloc peak of ``_eval_log_values`` over each row count."""
        rng = np.random.default_rng(seed)
        expr_module._eval_log_values(e, np.full((1, 15), 0.5))  # compile outside the trace
        peaks = []
        for rows in row_counts:
            X = rng.uniform(0.0, 1.0, (rows, 15))
            tracemalloc.start()
            try:
                W = expr_module._eval_log_values(e, X)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert W.shape == (rows,)
        return peaks, X, W

    def test_batch_memory_does_not_grow_with_the_batch(self):
        peaks, _, _ = self._batch_peaks(_k6_expression(), (5000, 20000), 33)
        # Only the output grows (8 bytes per row); unchunked, the term
        # values would grow by 1296 terms x 8 bytes per row.
        assert peaks[1] - peaks[0] < 2**20

    def test_tree_batch_memory_does_not_grow_with_the_batch(self):
        e = Pow(_k6_expression(), 1.0)  # not a sum of monomials: the slot tape
        peaks, X, W = self._batch_peaks(e, (1024, 4096), 34)
        # Unchunked, the 1296 product slots would grow by 32 MB over 3072 rows.
        assert peaks[1] - peaks[0] < 2**20
        assert_allclose(W, expr_module._eval_log_values(_k6_expression(), X), rtol=1e-12)


class TestBatchGradients:
    """``_eval_log_gradients`` against the point evaluation, row by row."""

    # Both evaluations sum nonnegative terms in different orders; measured
    # deviations of g stay below 18 ulps (relative) on these families.
    G_RTOL = 32 * np.finfo(float).eps

    def _assert_rows_match_points(self, e, X):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            W, G = expr_module._eval_log_gradients(e, X)
        assert W.shape == (len(X),) and G.shape == X.shape
        # W is the batch value itself: same chunks, same tables.
        assert np.array_equal(W, expr_module._eval_log_values(e, X))
        for x, w, g in zip(X, W, G):
            w_ref, g_ref = expr_module._eval_log_raw(e, x)
            assert_allclose(w, w_ref, rtol=1e-13, atol=1e-13)
            assert np.array_equal(g == 0.0, g_ref == 0.0)
            assert_allclose(g, g_ref, rtol=self.G_RTOL, atol=0.0)

    def test_matrix_polynomials_match_points(self):
        rng = np.random.default_rng(41)
        k5 = discriminant_polynomial(Graph(5, tuple(itertools.combinations(range(5), 2))))
        monomial = MatrixPolynomial([[0, 3, 1]], [2.5])
        cases = [k5, monomial] + [random_polynomial(rng, int(rng.integers(1, 6)), max_degree=8, max_terms=30) for _ in range(60)]
        for e in cases:
            assert type(e._form) is expr_module._MatrixForm
            self._assert_rows_match_points(e, np.exp(rng.uniform(-2.0, 2.0, (9, e.n_vars))))

    def test_trees_with_fractional_powers_match_points(self):
        rng = np.random.default_rng(42)
        cases = [dlr_expression()] + [random_expression(rng, int(rng.integers(1, 5)), depth=3) for _ in range(150)]
        assert any(type(e._form) is expr_module._SlotTape for e in cases)
        for e in cases:
            self._assert_rows_match_points(e, np.exp(rng.uniform(-2.0, 2.0, (7, e.n_vars))))

    def test_wider_points_pad_zero_columns(self):
        rng = np.random.default_rng(43)
        for e in (dlr_expression(), discriminant_polynomial(Graph(3, ((0, 1), (1, 2), (0, 2))))):
            X = rng.uniform(0.1, 1.0, (5, e.n_vars + 3))
            self._assert_rows_match_points(e, X)
            assert not expr_module._eval_log_gradients(e, X)[1][:, e.n_vars :].any()

    def test_a_lone_row_scores_as_in_a_batch(self):
        rng = np.random.default_rng(44)
        k5 = discriminant_polynomial(Graph(5, tuple(itertools.combinations(range(5), 2))))
        for e in (k5, MatrixPolynomial([[2, 0, 1]], [3.0]), dlr_expression(), random_polynomial(rng, 4, max_terms=20)):
            X = rng.uniform(0.05, 1.0, (6, e.n_vars))
            W, G = expr_module._eval_log_gradients(e, X)
            for i in range(len(X)):
                self._assert_rows_match_points(e, X[i : i + 1])
                w, g = expr_module._eval_log_gradients(e, X[i : i + 1])
                assert w[0] == W[i] and np.array_equal(g[0], G[i])

    def test_dead_subtrees_give_exact_zeros(self):
        # On rows with x1 = x3 = 0 the inner sum, and so the product, are
        # dead while the root lives on x2: the reverse pass skips the dead
        # sum's lanes rather than forming -inf - (-inf).
        e = Sum((Prod((Var(0), Sum((Var(1), Pow(Var(3), 0.5))))), Pow(Var(2), 1.5)))
        assert type(e._form) is expr_module._SlotTape
        X = np.array([[0.4, 0.0, 0.7, 0.0], [0.4, 0.2, 0.7, 0.3], [0.0, 0.0, 0.5, 0.0], [0.3, 0.0, 0.0, 0.6]])
        self._assert_rows_match_points(e, X)
        _, G = expr_module._eval_log_gradients(e, X)
        assert np.array_equal(G[0], [0.0, 0.0, 1.5, 0.0])
        assert np.array_equal(G[2], [0.0, 0.0, 1.5, 0.0])

    @pytest.mark.parametrize("form", ["matrix", "tape"])
    def test_a_vanishing_row_raises_the_point_error(self, form):
        poly = MatrixPolynomial([[1, 1, 0], [0, 1, 1]], [1.0, 2.0])
        e = poly if form == "matrix" else Pow(polynomial_to_expression(poly), 1.0)
        assert (type(e._form) is expr_module._MatrixForm) == (form == "matrix")
        X = np.array([[0.5, 0.5, 0.5], [0.3, 0.2, 0.1], [0.5, 0.0, 0.5], [0.2, 0.2, 0.2]])
        with pytest.raises(ValueError, match="vanishes") as point_err:
            expr_module._eval_log_raw(e, X[2])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="vanishes") as batch_err:
                expr_module._eval_log_gradients(e, X)
        assert str(batch_err.value) == str(point_err.value)
        with pytest.raises(ValueError, match="references variable 2 but the points have only 2"):
            expr_module._eval_log_gradients(e, X[:, :2])


class TestHessian:
    def test_softmax_closed_form(self):
        # For Z = x + y the u-domain Hessian at the symmetric point is
        # diag(s) - s s^T with s = (1/2, 1/2).
        H = hessian_log_u(Sum((Var(0), Var(1))), np.array([1.0, 1.0]))
        assert_allclose(H, [[0.25, -0.25], [-0.25, 0.25]], atol=1e-6)

    def test_monomial_hessian_is_zero(self):
        # W is linear in u for a monomial, so the u-domain Hessian vanishes.
        expr = Prod((Const(2.0), Pow(Var(0), 3), Pow(Var(1), 2)))
        H = hessian_log_u(expr, np.array([0.7, 1.3]))
        assert np.max(np.abs(H)) <= 1e-6

    def test_symmetric_by_construction(self):
        rng = np.random.default_rng(21)
        expr = random_expression(rng, 3, depth=3)
        H = hessian_log_u(expr, np.exp(rng.uniform(-0.5, 0.5, 3)))
        assert np.array_equal(H, H.T)

    def test_positive_semidefinite_on_random_trees(self):
        rng = np.random.default_rng(22)
        for _ in range(30):
            n = int(rng.integers(2, 5))
            expr = random_expression(rng, n, depth=3)
            x = np.exp(rng.uniform(-1.0, 1.0, n))
            H = hessian_log_u(expr, x)
            scale = max(abs(np.linalg.eigvalsh(H)).max(), 1.0)
            assert np.linalg.eigvalsh(H).min() >= -1e-6 * scale

    def test_midpoint_convexity_along_random_segments(self):
        # Independent of any Hessian code: W in u-coordinates must satisfy
        # W((u+v)/2) <= (W(u)+W(v))/2 for every segment.
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = int(rng.integers(1, 4))
            expr = random_expression(rng, n, depth=3)
            u = rng.uniform(-1.5, 1.5, n)
            v = rng.uniform(-1.5, 1.5, n)
            w_u = eval_log(expr, np.exp(u)).W
            w_v = eval_log(expr, np.exp(v)).W
            w_mid = eval_log(expr, np.exp((u + v) / 2)).W
            assert w_mid <= (w_u + w_v) / 2 + 1e-9 * (1 + abs(w_u) + abs(w_v))


class TestPolynomialToExpression:
    def test_unit_monomial_collapses_to_var(self):
        p = MatrixPolynomial([[1, 0]], [1.0])
        assert polynomial_to_expression(p) == Var(0)

    def test_single_term_skips_sum(self):
        p = MatrixPolynomial([[2]], [2.0])
        assert polynomial_to_expression(p) == Prod((Const(2.0), Pow(Var(0), 2)))

    def test_three_term_polynomial_becomes_sum_of_products(self):
        p = MatrixPolynomial([[1, 1, 0], [0, 1, 1], [1, 0, 1]], [1.0, 1.0, 1.0])
        e = polynomial_to_expression(p)
        assert isinstance(e, Sum)
        # One product per term, in the canonical order.
        assert e == Sum((Prod((Var(1), Var(2))), Prod((Var(0), Var(2))), Prod((Var(0), Var(1)))))

    def test_constant_polynomial(self):
        p = MatrixPolynomial([[0]], [3.0])
        assert polynomial_to_expression(p) == Const(3.0)

    def test_values_agree_with_naive_evaluation(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            n = int(rng.integers(1, 4))
            poly = random_polynomial(rng, n)
            x = rng.uniform(0.4, 1.6, n)
            ev = eval_log(polynomial_to_expression(poly), x)
            assert_allclose(math.exp(ev.W), naive_poly_eval(poly, x), rtol=1e-12)


class TestSerialization:
    def test_round_trip_random_trees(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            expr = random_expression(rng, 3, depth=3)
            data = expression_to_json_dict(expr)
            assert construct_expression(data) == expr

    def test_error_messages_name_the_path(self):
        data = {
            "op": "sum",
            "terms": [
                {"op": "var", "index": 0},
                {"op": "const", "value": -1.0},
            ],
        }
        with pytest.raises(ValueError, match=r"expression\.terms\[1\]"):
            construct_expression(data)

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError, match="op"):
            construct_expression({"op": "difference", "terms": []})

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            construct_expression({"op": "var", "index": 0, "extra": 1})


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: Sum((1,)), "sum term must be an expression node, got 1", id="non-node-child"),
        pytest.param(lambda: eval_log(dlr_expression(), np.full((1, 2), 0.5)),
                     "expected a 1-D point, got shape (1, 2)", id="2-d-point"),
        pytest.param(lambda: expression_to_json_dict(object()),
                     "not an expression node: <object", id="non-node"),
    ],
)
def test_input_errors_name_the_bad_input(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
