"""Tests for problem files, the runner functions, and the CLI."""

import copy
import itertools
import json
import math
import pickle
import shutil
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from kneejerk import (
    BlockStructure,
    IterationConfig,
    Pow,
    Prod,
    Sum,
    Var,
    main,
    parse_problem,
    run_optimize,
    run_oracle,
    run_verify,
    serialize_problem,
)
from kneejerk import MatrixPolynomial, eval_log, polynomial_to_expression
from kneejerk import cli, diagnostics, mapping
from kneejerk import discriminant as discriminant_module
from kneejerk import expr as expr_module
from kneejerk.discriminant import Graph, discriminant_polynomial
from kneejerk.mapping import iterate
from kneejerk.simplex import _compositions, barycenter, random_interior
from generators import random_connected_graph, random_multigraph, random_polynomial, random_structure

INLINE_PROBLEM = """
{
  "expression": {"op": "prod", "factors": [
    {"op": "pow", "base": {"op": "var", "index": 0}, "exponent": 2},
    {"op": "var", "index": 1}
  ]},
  "blocks": [2],
  "init": [0.5, 0.5]
}
"""

POLY_PROBLEM = """
{
  "expression": {"polynomial": {"n": 3, "terms": [
    {"c": 1.0, "e": [0, 1, 1]},
    {"c": 1.0, "e": [1, 0, 1]},
    {"c": 1.0, "e": [1, 1, 0]}
  ]}},
  "blocks": [3],
  "init": "barycenter",
  "config": {"max_iters": 500}
}
"""

GRAPH_PROBLEM = """
{
  "expression": {"graph": {"vertices": 3, "edges": [[0, 1], [0, 2], [1, 2]]}},
  "blocks": [3],
  "init": [0.2, 0.3, 0.5]
}
"""

WEIGHTED_PROBLEM = """
{
  "expression": {"op": "sum", "terms": [
    {"op": "var", "index": 0}, {"op": "var", "index": 1}
  ]},
  "blocks": [2],
  "weights": [2.0, 1.0],
  "init": [0.25, 0.5]
}
"""

# 401 digits: an integer past the largest float.
HUGE = 10**400

CONSTANT_PROBLEM = """
{
  "expression": {"op": "const", "value": 3.0},
  "blocks": [2],
  "init": [0.4, 0.6]
}
"""


class TestParseProblem:
    def test_inline_expression(self):
        p = parse_problem(INLINE_PROBLEM)
        assert p.expression == Prod((Pow(Var(0), 2), Var(1)))
        assert p.structure.blocks == (2,)
        assert_allclose(p.init.x, [0.5, 0.5])
        assert p.config == IterationConfig()

    def test_polynomial_source(self):
        p = parse_problem(POLY_PROBLEM)
        assert p.structure.n == 3
        assert p.config.max_iters == 500
        assert_allclose(p.init.x, np.full(3, 1 / 3))

    def test_graph_source_matches_polynomial_source(self):
        a = parse_problem(POLY_PROBLEM)
        b = parse_problem(GRAPH_PROBLEM)
        assert a.expression == b.expression

    def test_weights(self):
        p = parse_problem(WEIGHTED_PROBLEM)
        assert_allclose(p.structure.weights, [2.0, 1.0])

    def test_invalid_json(self):
        with pytest.raises(ValueError, match="not valid JSON"):
            parse_problem("{nope")

    def test_weights_of_wrong_length_are_named(self):
        bad = WEIGHTED_PROBLEM.replace('"weights": [2.0, 1.0]', '"weights": [2.0]')
        with pytest.raises(ValueError, match="weights"):
            parse_problem(bad)

    def test_missing_fields_are_named(self):
        with pytest.raises(ValueError, match="expression"):
            parse_problem('{"blocks": [2], "init": [0.5, 0.5]}')
        with pytest.raises(ValueError, match="init"):
            parse_problem('{"blocks": [1], "expression": {"op": "var", "index": 0}}')

    def test_unknown_top_level_field(self):
        with pytest.raises(ValueError, match="bogus"):
            parse_problem(
                '{"expression": {"op": "var", "index": 0}, "blocks": [1],'
                ' "init": [1.0], "bogus": 1}'
            )

    def test_unknown_config_key(self):
        with pytest.raises(ValueError, match="config"):
            parse_problem(
                '{"expression": {"op": "var", "index": 0}, "blocks": [1],'
                ' "init": [1.0], "config": {"tolerance": 1e-9}}'
            )

    def test_declared_variable_count_must_match_blocks(self):
        bad = POLY_PROBLEM.replace('"blocks": [3]', '"blocks": [4]')
        with pytest.raises(ValueError, match="declares 3"):
            parse_problem(bad)

    def test_expression_variables_must_fit_blocks(self):
        with pytest.raises(ValueError, match="blocks"):
            parse_problem(
                '{"expression": {"op": "var", "index": 5}, "blocks": [2],'
                ' "init": [0.5, 0.5]}'
            )

    def test_infeasible_init_rejected(self):
        with pytest.raises(ValueError, match="init"):
            parse_problem(
                '{"expression": {"op": "var", "index": 0}, "blocks": [2],'
                ' "init": [0.9, 0.3]}'
            )

    def test_round_trip_through_serialization(self):
        strided = WEIGHTED_PROBLEM.replace(
            '"init": [0.25, 0.5]', '"init": [0.25, 0.5], "config": {"trace_stride": 3}'
        )
        assert parse_problem(strided).config.trace_stride == 3
        for text in (INLINE_PROBLEM, POLY_PROBLEM, GRAPH_PROBLEM, WEIGHTED_PROBLEM, strided):
            p = parse_problem(text)
            q = parse_problem(json.dumps(serialize_problem(p)))
            assert p.expression == q.expression
            assert p.structure == q.structure
            assert np.array_equal(p.init.x, q.init.x)
            assert p.config == q.config


def _problem_text(source, n):
    return json.dumps({"expression": source, "blocks": [n], "init": "barycenter"})


def _assert_parses_to_the_tree_matrix_form(text, poly, n):
    """parse_problem's objective against the tree route it replaced:
    ``_monomials(polynomial_to_expression(poly))`` bit for bit, and the same
    ``eval_log`` at random points of ``n`` coordinates."""
    e = parse_problem(text).expression
    tree = polynomial_to_expression(poly)
    form = expr_module._monomials(tree)
    E, log_c = form.E, form.log_c
    assert type(e) is MatrixPolynomial
    assert e.E.dtype == E.dtype and e.E.shape == E.shape
    assert np.array_equal(e.E, E) and np.array_equal(e.log_c, log_c)
    assert e.n_vars == tree.n_vars
    rng = np.random.default_rng(len(poly.c))
    for x in rng.uniform(0.05, 1.0, (3, n)):
        a, b = eval_log(e, x), eval_log(tree, x)
        assert a.W == b.W and np.array_equal(a.g, b.g)


class TestMatrixFormParse:
    """Polynomial and graph sources parse straight to a MatrixPolynomial."""

    def test_graph_sources_match_the_tree_route(self):
        rng = np.random.default_rng(40)
        graphs = [Graph(v, tuple(itertools.combinations(range(v), 2))) for v in (2, 3, 4, 5, 6)]
        graphs += [random_multigraph(rng) for _ in range(20)]
        for g in graphs:
            g = Graph(g.vertices, g.edges)  # a problem file gives each edge its own variable
            _assert_parses_to_the_tree_matrix_form(
                _problem_text({"graph": g.to_json_dict()}, g.n_vars), discriminant_polynomial(g), g.n_vars)

    def test_polynomial_sources_match_the_tree_route(self):
        rng = np.random.default_rng(41)
        polys = [(random_polynomial(rng, n, max_degree=6, max_terms=12), n) for n in (1, 2, 3, 5, 8) * 6]
        polys += [
            (MatrixPolynomial([[1, 0, 0, 0], [0, 1, 0, 0]], [2.0, 1.0]), 4),  # unused trailing variables
            (MatrixPolynomial([[0, 0, 0]], [3.0]), 3),  # constant
            (MatrixPolynomial([[2, 0, 7]], [0.5]), 3),  # single term
            (MatrixPolynomial([[1, 1], [1, 1]], [1.0, 1.5]), 2),  # merged duplicates
            (MatrixPolynomial([[10**296, 0], [0, 1]], [1.0, 1.0]), 2),  # just inside the guard
        ]
        for poly, n in polys:
            source = {"polynomial": poly.to_json_dict(n)}
            _assert_parses_to_the_tree_matrix_form(_problem_text(source, n), poly, n)

    def test_exponents_past_the_guard_keep_the_tree(self):
        # The polynomial stays a MatrixPolynomial but compiles to the slot
        # tape of its tree, and scores bit for bit like that tree.
        data = {"n": 2, "terms": [{"c": 1.0, "e": [10**298, 0]}, {"c": 1.0, "e": [0, 1]}]}
        e = parse_problem(_problem_text({"polynomial": data}, 2)).expression
        assert type(e) is MatrixPolynomial and type(e._form) is expr_module._SlotTape
        assert e.E.tolist() == [[0.0, 1.0], [1e298, 0.0]]
        tree = polynomial_to_expression(e)
        assert tree == Sum((Var(1), Pow(Var(0), 1e298)))
        X = np.array([[0.5, 0.5], [0.0, 1.0], [1.0, 0.0], [0.999, 0.001], [1.5, 0.2]])
        W = expr_module._eval_log_values(e, X)
        assert np.array_equal(W, expr_module._eval_log_values(tree, X))
        # The huge term lives at x0 = 1 and wins at x0 = 1.5, where W is
        # about 4e297.
        assert_allclose(W, [math.log(0.5), 0.0, 0.0, math.log(0.001), 1e298 * math.log(1.5)], rtol=1e-12)
        for x in X[[0, 3, 4]]:
            a, b = eval_log(e, x), eval_log(tree, x)
            assert a.W == b.W and np.array_equal(a.g, b.g)

    @pytest.mark.parametrize(
        "terms, rows",
        [
            ([(1.0, [10**298, 0, 0]), (2.0, [0, 1, 1])], 2),  # past the guard: the slot tape
            ([(1.0, [1, 1, 0]), (3.0, [0, 0, 2]), (2.5, [1, 1, 0]), (0.5, [0, 0, 2])], 2),  # duplicates
        ],
        ids=["past-the-guard", "merged-duplicates"],
    )
    def test_polynomial_round_trips_through_serialization(self, terms, rows):
        text = _problem_text({"polynomial": {"n": 3, "terms": [{"c": c, "e": e} for c, e in terms]}}, 3)
        p = parse_problem(text)
        q = parse_problem(json.dumps(serialize_problem(p)))
        assert len(p.expression.c) == rows
        assert p.expression == q.expression
        assert type(q.expression._form) is type(p.expression._form)
        assert q.expression.to_json_dict(3) == p.expression.to_json_dict(3)
        x = p.init.x
        assert eval_log(p.expression, x).W == eval_log(q.expression, x).W

    def test_solves_never_compile(self, monkeypatch):
        # Graph and polynomial sources, and inline trees that compile to the
        # matrix form and to the slot tape: each compiles while it parses.
        problems = [parse_problem(t) for t in (
            GRAPH_PROBLEM, POLY_PROBLEM, INLINE_PROBLEM, _blocks_problem(SLOT_TAPE_TREE, [2, 2], None))]
        forms = [vars(p.expression).get("_form") for p in problems]  # read without compiling
        assert type(forms[2]) is expr_module._MatrixForm and type(forms[3]) is expr_module._SlotTape
        for name in ("_monomials", "_postorder"):
            monkeypatch.setattr(expr_module, name, None)  # any compile would raise
        for problem in problems + problems:
            run_optimize(problem)
        assert [p.expression._form for p in problems] == forms


class TestRunOptimize:
    def test_writes_trace_and_summary(self, tmp_path):
        p = parse_problem(GRAPH_PROBLEM)
        trace, summary = run_optimize(p, tmp_path)
        assert (tmp_path / "trace.csv").exists()
        assert (tmp_path / "summary.json").exists()
        on_disk = json.loads((tmp_path / "summary.json").read_text())
        assert on_disk == summary
        assert summary["status"] == "converged"
        assert set(summary) == {"status", "iterations", "W", "terminal_point", "residual"}
        assert summary["iterations"] == trace.iterations

    def test_triangle_limit_value(self):
        p = parse_problem(GRAPH_PROBLEM)
        _, summary = run_optimize(p)
        assert_allclose(summary["W"], np.log(1 / 3), rtol=1e-10)
        assert_allclose(summary["terminal_point"], np.full(3, 1 / 3), atol=1e-6)

    def test_shipped_product_problem_terminal_residual(self, problem_dir):
        p = parse_problem((problem_dir / "dlr.json").read_text())
        _, summary = run_optimize(p)
        assert summary["status"] == "converged"
        assert summary["residual"] <= 1e-8
        assert_allclose(summary["terminal_point"], [0.740847, 0.259153], atol=1e-5)

    def test_one_evaluation_per_point(self, monkeypatch):
        calls = []
        for module in (mapping, cli):
            real = module._eval_log_raw

            def counted(e, x, real=real):
                calls.append(1)
                return real(e, x)

            monkeypatch.setattr(module, "_eval_log_raw", counted)
        trace, _ = run_optimize(parse_problem(GRAPH_PROBLEM))
        assert trace.iterations > 1
        assert len(calls) == trace.iterations + 1

    def test_linear_objective_converges_in_one_iteration(self):
        p = parse_problem(
            '{"expression": {"op": "sum", "terms": ['
            '{"op": "var", "index": 0}, {"op": "var", "index": 1}]},'
            ' "blocks": [2], "init": [0.3, 0.7]}'
        )
        _, summary = run_optimize(p)
        assert summary["status"] == "converged"
        assert summary["iterations"] == 1


def _graph_problem(graph, blocks, weights=None, init="barycenter", config=None):
    data = {"expression": {"graph": graph.to_json_dict()}, "blocks": list(blocks), "init": init}
    if weights is not None:
        data["weights"] = list(weights)
    if config is not None:
        data["config"] = config
    return parse_problem(json.dumps(data))


def _has_parallel_edges(graph):
    return len({tuple(sorted(e)) for e in graph.edges}) < len(graph.edges)


# Pair (0, 1) is split by block ({0, 1} | {3}), pair (1, 2) by block and by
# weight ({2} | {4} | {5}), and (0, 2) is one edge: six classes.
SPLIT_GRAPH = Graph(3, ((0, 1), (1, 0), (1, 2), (0, 1), (2, 1), (2, 1), (0, 2)))
SPLIT_BLOCKS, SPLIT_WEIGHTS = [3, 4], [1, 1, 1, 1, 1, 2, 1]


class TestClassSolve:
    """A graph source with parallel edges is solved on its class sums and
    expanded back to edges: the same steps as iterating on the edges."""

    # The two routes add the same terms in different orders.
    W_ULPS = 4
    # Bounds and divergences agree to 1e-12 relative above this floor, below
    # which both are rounding: the edge update divides each edge of a class by
    # the block's mass, where the class update moves the class as one coordinate.
    RECORD_FLOOR = 1e-14

    def _assert_solves_like_the_edges(self, problem):
        assert problem._classes() is not None
        plain = iterate(problem.expression, problem.init, problem.config)
        trace, summary = run_optimize(problem)
        assert (trace.status, trace.iterations) == (plain.status, plain.iterations)
        assert len(trace.records) == len(plain.records)
        assert abs(summary["W"] - plain.W_final) <= self.W_ULPS * math.ulp(max(abs(plain.W_final), 1.0))
        for a, b in zip(trace.records, plain.records):
            assert a.iteration == b.iteration
            for f in ("bound", "divergence"):
                assert_allclose(getattr(a, f), getattr(b, f), rtol=1e-12, atol=self.RECORD_FLOOR)
        assert_allclose(trace.x_final.x, plain.x_final.x, rtol=0, atol=1e-12)
        assert_allclose(trace.gradient_final, plain.gradient_final, rtol=0, atol=1e-12)
        assert trace.x_final.structure is problem.structure
        return trace, plain

    def test_random_multigraphs_solve_like_their_edges(self):
        rng = np.random.default_rng(90)
        solved = 0
        while solved < 25:
            g = random_connected_graph(rng, 2, 6)
            if not _has_parallel_edges(g):
                continue
            s = random_structure(rng, n=len(g.edges), weighted=False)
            # Weights from a small set: some parallel edges share a class,
            # others are split by weight.
            weights = rng.choice([1.0, 1.0, 2.0], len(g.edges)).tolist() if solved % 2 else None
            s = BlockStructure(s.blocks, weights)
            init = random_interior(s, rng).x.tolist()
            problem = _graph_problem(g, s.blocks, weights, init, {"max_iters": 500})
            if problem._classes() is None:
                continue
            self._assert_solves_like_the_edges(problem)
            solved += 1

    def test_pairs_split_by_block_and_by_weight(self):
        problem = _graph_problem(SPLIT_GRAPH, SPLIT_BLOCKS, SPLIT_WEIGHTS)
        cls, objective, structure = problem._classes()
        assert cls.tolist() == [0, 0, 1, 2, 3, 4, 5]
        assert structure.blocks == (2, 4)
        assert structure.weights.tolist() == [1.0, 1.0, 1.0, 1.0, 2.0, 1.0]
        # Pair trees {01, 12}, {01, 02}, {12, 02}, each expanded over its
        # pairs' classes: 2 * 3 + 2 * 1 + 3 * 1 terms of exponents 0 and 1.
        E = objective._form.E
        assert E.shape == (11, 6) and set(E.ravel().tolist()) == {0.0, 1.0}
        assert len({tuple(r) for r in E.tolist()}) == 11
        # The class objective at the class sums is the discriminant at the edges.
        rng = np.random.default_rng(91)
        for _ in range(20):
            x = random_interior(problem.structure, rng).x
            W_edges = expr_module._eval_log_raw(problem.expression, x)[0]
            W_classes = expr_module._eval_log_raw(objective, np.bincount(cls, x))[0]
            assert_allclose(W_classes, W_edges, rtol=1e-14)
        self._assert_solves_like_the_edges(problem)

    def test_a_class_all_zero_at_the_start_stays_zero(self):
        init = [0.0, 0.0, 1.0, 0.25, 0.25, 0.125, 0.25]  # class {0, 1} is 0
        problem = _graph_problem(SPLIT_GRAPH, SPLIT_BLOCKS, SPLIT_WEIGHTS, init)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            trace, _ = self._assert_solves_like_the_edges(problem)
            _, summary = run_optimize(problem)
        assert trace.x_final.x[:2].tolist() == [0.0, 0.0]
        assert trace.gradient_final[:2].tolist() == [0.0, 0.0]
        assert summary["terminal_point"][:2] == [0.0, 0.0]

    def test_a_zero_member_of_a_live_class_stays_zero(self):
        init = [0.0, 0.5, 0.5, 0.25, 0.25, 0.125, 0.25]  # edge 0 is 0, edge 1 carries class {0, 1}
        problem = _graph_problem(SPLIT_GRAPH, SPLIT_BLOCKS, SPLIT_WEIGHTS, init)
        trace, _ = self._assert_solves_like_the_edges(problem)
        assert trace.x_final.x[0] == 0.0 and trace.gradient_final[0] == 0.0
        assert trace.x_final.x[1] > 0.0

    @pytest.mark.parametrize(
        "graph, blocks, weights",
        [
            (Graph(5, tuple(itertools.combinations(range(5), 2))), [10], None),
            (Graph(4, tuple(itertools.combinations(range(4), 2))), [3, 1, 2], [1, 2, 1, 1, 0.5, 1]),
            (Graph(3, ((0, 1), (0, 2), (1, 2))), [3], None),
        ],
        ids=["K5", "K4-blocks", "triangle"],
    )
    def test_graphs_without_parallel_edges_write_identical_outputs(self, tmp_path, graph, blocks, weights):
        problem = _graph_problem(graph, blocks, weights)
        assert problem._classes() is None
        run_optimize(problem, tmp_path / "parsed")
        run_optimize(replace(problem), tmp_path / "plain")  # a copy drops any class coordinates
        for name in ("trace.csv", "summary.json"):
            assert (tmp_path / "parsed" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()

    def test_parallel_edges_in_other_blocks_or_weights_are_not_lumped(self):
        g = Graph(3, ((0, 1), (1, 2), (0, 1), (0, 2), (2, 1)))
        assert _graph_problem(g, [2, 3])._classes() is None
        assert _graph_problem(g, [5], [1, 1, 2, 1, 3])._classes() is None
        assert _graph_problem(g, [5])._classes() is not None

    @pytest.mark.parametrize("classes, lumped", [(249, True), (299, False)])
    def test_class_terms_too_sparse_for_the_matrix_form_solve_on_edges(self, classes, lumped):
        # One pair, 300 parallel edges: the first 301 - classes share weight
        # 1, and each of the rest has a weight of its own.  Each class is a
        # term of one exponent, so E holds classes^2 entries for as many
        # exponents: 249 classes pass the matrix form's density guard, 299
        # do not.
        weights = [1.0] * (301 - classes) + [1.0 + k / 1000 for k in range(1, classes)]
        problem = _graph_problem(Graph(2, ((0, 1),) * 300), [300], weights)
        assert (problem._classes() is not None) == lumped
        if lumped:
            assert problem._classes()[1]._form.E.shape == (classes, classes)

    def test_a_replaced_objective_or_structure_solves_the_plain_way(self):
        problem = _graph_problem(SPLIT_GRAPH, SPLIT_BLOCKS, SPLIT_WEIGHTS)
        assert problem._classes() is not None
        problem.expression = MatrixPolynomial([[1, 0, 0, 0, 1, 0, 0], [0, 2, 0, 0, 0, 1, 1]], [1.0, 3.0])
        assert problem._classes() is None
        want = iterate(problem.expression, problem.init, problem.config)
        trace, summary = run_optimize(problem)
        assert (summary["status"], summary["iterations"]) == (want.status, want.iterations)
        assert summary["W"] == want.W_final
        assert trace.x_final.x.tolist() == want.x_final.x.tolist()

        problem = _graph_problem(SPLIT_GRAPH, SPLIT_BLOCKS, SPLIT_WEIGHTS)
        problem.structure = BlockStructure((7,))
        problem.init = barycenter(problem.structure)
        assert problem._classes() is None
        want = iterate(problem.expression, problem.init, problem.config)
        _, summary = run_optimize(problem)
        assert (summary["status"], summary["iterations"]) == (want.status, want.iterations)
        assert summary["W"] == want.W_final

    def test_oracle_gap_uses_the_optimize_W(self):
        # A triangle with two pairs doubled: the class solve's W differs in
        # its last bits from iterating on the edges.
        problem = _graph_problem(Graph(3, ((0, 1), (0, 2), (1, 2), (0, 1), (0, 2))), [5])
        _, summary = run_optimize(problem)
        oracle = run_oracle(problem, 20)
        assert oracle.gap == summary["W"] - oracle.best_W
        assert summary["W"] != iterate(problem.expression, problem.init, problem.config).W_final

    def test_other_attributes_raise_as_on_any_object(self):
        def assert_no_attribute(problem):
            with pytest.raises(AttributeError) as e:
                getattr(problem, "nope")
            assert str(e.value) == "'Problem' object has no attribute 'nope'"
            assert not hasattr(problem, "nope")

        assert_no_attribute(parse_problem(GRAPH_PROBLEM))
        lumped = _graph_problem(SPLIT_GRAPH, SPLIT_BLOCKS, SPLIT_WEIGHTS)
        assert "expression" not in lumped.__dict__
        assert_no_attribute(lumped)
        lumped.expression
        assert_no_attribute(lumped)
        assert lumped._classes() is not None

    @pytest.mark.parametrize(
        "twin_of", [copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))], ids=["deepcopy", "pickle"]
    )
    def test_a_copy_before_the_first_read_keeps_the_classes(self, twin_of):
        problem = _graph_problem(SPLIT_GRAPH, SPLIT_BLOCKS, SPLIT_WEIGHTS)
        twin = twin_of(problem)
        assert "expression" not in twin.__dict__
        assert twin._classes() is not None
        assert twin._classes()[0].tolist() == problem._classes()[0].tolist()
        assert run_optimize(twin)[1]["W"] == run_optimize(problem)[1]["W"]
        assert twin.expression == discriminant_polynomial(SPLIT_GRAPH)
        assert twin._classes() is not None

    def test_the_edge_polynomial_is_built_on_first_read_only(self, tmp_path, capsys, monkeypatch):
        calls = []

        def counted(graph):
            calls.append(graph)
            return discriminant_polynomial(graph)

        monkeypatch.setattr(cli, "discriminant_polynomial", counted)
        rng = np.random.default_rng(92)
        cases = [(SPLIT_GRAPH, SPLIT_BLOCKS, SPLIT_WEIGHTS)]
        while len(cases) < 12:
            g = random_multigraph(rng)
            g = Graph(g.vertices, g.edges)  # a problem file gives each edge its own variable
            weights = rng.choice([1.0, 2.0], len(g.edges)).tolist() if len(cases) % 2 else None
            if _graph_problem(g, [len(g.edges)], weights)._classes() is not None:
                cases.append((g, [len(g.edges)], weights))
        for g, blocks, weights in cases:
            calls.clear()
            problem = _graph_problem(g, blocks, weights)
            classes = problem._classes()
            assert classes is not None and calls == []
            e = problem.expression
            assert e == discriminant_polynomial(g) and problem.expression is e
            assert len(calls) == 1 and problem._classes() is classes
            f = tmp_path / "g.json"
            f.write_text(json.dumps(g.to_json_dict()))
            assert main(["discriminant", "--graph", str(f)]) == 0
            assert serialize_problem(problem)["expression"] == {"polynomial": json.loads(capsys.readouterr().out)}
            problem.expression = e
            assert problem._classes() is classes
            problem.expression = discriminant_polynomial(g)
            assert problem._classes() is None

            # Replaced before its first read: the plain solve, and no build.
            problem = _graph_problem(g, blocks, weights)
            problem.expression = discriminant_polynomial(g)
            assert problem._classes() is None
            want = iterate(problem.expression, problem.init, problem.config)
            trace, summary = run_optimize(problem)
            assert (summary["status"], summary["iterations"], summary["W"]) == (
                want.status, want.iterations, want.W_final)
            assert trace.x_final.x.tolist() == want.x_final.x.tolist()
            assert len(calls) == 2


class TestRunVerify:
    def test_passes_on_valid_problem(self):
        p = parse_problem(GRAPH_PROBLEM)
        report = run_verify(p, samples=20, seed=3)
        assert report["pass"] is True
        assert report["inequality"]["pass"] is True
        assert report["argmax"]["pass"] is True
        assert report["log_log_convexity"]["pass"] is True
        assert report["seed"] == 3

    def test_deterministic_per_seed(self):
        p = parse_problem(GRAPH_PROBLEM)
        a = run_verify(p, samples=15, seed=7)
        b = run_verify(p, samples=15, seed=7)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_concavity_section_is_optional(self):
        p = parse_problem(GRAPH_PROBLEM)
        base = run_verify(p, samples=5, seed=0)
        assert "log_concavity" not in base
        with_c = run_verify(p, samples=5, seed=0, include_concavity=True)
        assert with_c["log_concavity"]["pass"] is True

    @pytest.mark.parametrize("samples", [0, -3, 2.5, True, "3"])
    def test_rejects_no_samples(self, samples):
        with pytest.raises(ValueError, match=f"samples must be a positive integer, got {samples!r}"):
            run_verify(parse_problem(GRAPH_PROBLEM), samples=samples)

    def test_accepts_numpy_integer_samples(self):
        report = run_verify(parse_problem(GRAPH_PROBLEM), samples=np.int64(3), seed=0)
        assert report["samples"] == 3 and type(report["samples"]) is int
        assert json.dumps(report) == json.dumps(run_verify(parse_problem(GRAPH_PROBLEM), samples=3, seed=0))

    def test_one_step_per_chunk(self, problem_dir, monkeypatch):
        # Both certificates are read off one batched step per chunk of base
        # points; a chunk of k4 holds 10 points with 1000 competitors each
        # (6 coordinates), so 25 samples take 3 steps.
        calls = []
        real = diagnostics._certified_update

        def counted(X, G, structure):
            calls.append(len(X))
            return real(X, G, structure)

        monkeypatch.setattr(diagnostics, "_certified_update", counted)
        report = run_verify(parse_problem((problem_dir / "k4.json").read_text()), samples=25, seed=0)
        assert report["pass"] is True
        assert calls == [10, 10, 5]

    def test_injected_negative_control_fails_the_run(self):
        p = parse_problem(GRAPH_PROBLEM)
        report = run_verify(p, samples=5, seed=0, inject_negative=True)
        assert report["negative_control"]["pass"] is False
        assert report["pass"] is False

    def test_large_sweep_on_shipped_product_problem(self, problem_dir):
        p = parse_problem((problem_dir / "dlr.json").read_text())
        report = run_verify(p, samples=1000, seed=5)
        assert report["pass"] is True
        assert report["inequality"]["pass"] is True
        assert report["argmax"]["pass"] is True
        assert report["log_log_convexity"]["pass"] is True

    def test_spanning_tree_problem_with_concavity(self, problem_dir):
        p = parse_problem((problem_dir / "k4.json").read_text())
        report = run_verify(p, samples=200, seed=9, include_concavity=True)
        assert report["pass"] is True
        assert report["log_concavity"]["pass"] is True

    @pytest.mark.parametrize("seed", [-1, 2.0, True, "3"])
    def test_rejects_a_seed_that_is_not_a_nonnegative_integer(self, seed):
        with pytest.raises(ValueError, match=f"seed must be a nonnegative integer, got {seed!r}"):
            run_verify(parse_problem(GRAPH_PROBLEM), samples=2, seed=seed)

    def test_memory_does_not_grow_with_samples(self, problem_dir):
        # The step sweep draws and scores a fixed number of base points per
        # chunk, and the curvature probes draw one point per sample, so ten
        # times the samples must not raise the peak.  Unchunked, the argmax
        # competitors of 4000 samples would number 4 million (190 MB).
        p = parse_problem((problem_dir / "k4.json").read_text())
        run_verify(p, samples=2, seed=0)  # compile outside the trace
        peaks = []
        for samples in (400, 4000):
            tracemalloc.start()
            try:
                report = run_verify(p, samples=samples, seed=1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert report["pass"] is True
        assert peaks[1] - peaks[0] < 2**16


def _poly(n, terms):
    return {"polynomial": {"n": n, "terms": [{"c": c, "e": e} for c, e in terms]}}


def _blocks_problem(expression, blocks, weights):
    data = {"expression": expression, "blocks": blocks, "init": "barycenter"}
    if weights is not None:
        data["weights"] = weights
    return json.dumps(data)


K5_GRAPH = {"vertices": 5, "edges": [[a, b] for a in range(5) for b in range(a + 1, 5)]}
K4_GRAPH = {"vertices": 4, "edges": [[a, b] for a in range(4) for b in range(a + 1, 4)]}

# (x0 + x2) (x1 + x3)^1.5: not a sum of monomials, so it keeps the slot tape.
SLOT_TAPE_TREE = {"op": "prod", "factors": [
    {"op": "sum", "terms": [{"op": "var", "index": 0}, {"op": "var", "index": 2}]},
    {"op": "pow", "base": {"op": "sum", "terms": [{"op": "var", "index": 1}, {"op": "var", "index": 3}]},
     "exponent": 1.5},
]}


def _oracle_matching_the_row_path(problem, resolution):
    """``run_oracle``'s result, checked bit for bit against scoring every
    grid row with the row kernel: the first best grid point wins, and the
    barycenter replaces it only when strictly better."""
    s = problem.structure
    inv = 1.0 / (resolution * s.weights)
    best_W, best_point = -np.inf, None
    for counts in cli._grid_batches(s, resolution):
        X = counts * inv
        W = expr_module._eval_log_values(problem.expression, X)
        i = int(np.argmax(W))
        if W[i] > best_W:
            best_W, best_point = float(W[i]), X[i]
    bc = barycenter(s).x
    W_bc = float(expr_module._eval_log_values(problem.expression, bc[None, :])[0])
    if W_bc > best_W:
        best_W, best_point = W_bc, bc
    res = run_oracle(problem, resolution)
    assert res.best_W == best_W
    assert res.best_point.tolist() == best_point.tolist()
    return res


class TestRunOracle:
    def test_gap_within_error_bound(self, problem_dir):
        p = parse_problem((problem_dir / "dlr.json").read_text())
        res = run_oracle(p, 200)
        assert abs(res.gap) <= res.error_bound
        assert res.resolution == 200
        assert set(res.to_json_dict()) == {
            "best_point",
            "best_W",
            "resolution",
            "gap",
            "error_bound",
        }

    def test_flat_objective_best_value_is_zero(self):
        p = parse_problem(
            '{"expression": {"op": "sum", "terms": ['
            '{"op": "var", "index": 0}, {"op": "var", "index": 1}]},'
            ' "blocks": [2], "init": [0.5, 0.5]}'
        )
        res = run_oracle(p, 50)
        assert abs(res.best_W) <= 1e-12

    def test_triangle_best_point_near_barycenter(self):
        p = parse_problem(GRAPH_PROBLEM)
        res = run_oracle(p, 200)
        assert np.max(np.abs(np.asarray(res.best_point) - 1 / 3)) <= 1 / 200

    def test_ties_go_to_the_first_grid_point(self):
        # Every point ties, across two batches, and the barycenter ties too.
        res = run_oracle(parse_problem(CONSTANT_PROBLEM), 70000)
        assert res.best_W == np.log(3.0)
        assert res.best_point.tolist() == [0.0, 1.0]

    def test_grid_guard(self):
        p = parse_problem(GRAPH_PROBLEM)
        with pytest.raises(ValueError, match="guard"):
            run_oracle(p, 100000)

    def test_rejects_bad_resolution(self):
        p = parse_problem(GRAPH_PROBLEM)
        for bad in (0, True):
            with pytest.raises(ValueError, match="resolution"):
                run_oracle(p, bad)

    # Multi-block grids under a sum of monomials take the split screen; each
    # case must give the row path's result bit for bit.
    @pytest.mark.parametrize(
        "expression, blocks, weights, resolution",
        [
            pytest.param(
                _poly(5, [(1.5, [1, 1, 0, 2, 1]), (0.2, [2, 0, 1, 1, 1]), (3.0, [1, 2, 1, 0, 1]),
                          (0.7, [0, 1, 2, 1, 0])]),
                [2, 3], [0.5, 1.5, 1.0, 2.0, 0.8], 30, id="weighted-2-block",
            ),
            pytest.param(
                _poly(6, [(1.0, [1, 1, 1, 0, 1, 1]), (2.5, [2, 0, 0, 1, 1, 2]), (0.4, [0, 2, 1, 1, 2, 0]),
                          (1.2, [1, 1, 0, 1, 0, 1])]),
                [2, 2, 2], [1.25, 0.75, 1.0, 3.0, 0.5, 2.0], 12, id="weighted-3-block",
            ),
            pytest.param(
                _poly(4, [(1.0, [1, 2, 1, 0]), (2.0, [2, 1, 0, 0]), (0.5, [1, 1, 2, 0])]),
                [2, 2], None, 40, id="unused-last-variable",
            ),
            pytest.param(
                {"op": "sum", "terms": [
                    {"op": "prod", "factors": [{"op": "var", "index": 0},
                                               {"op": "pow", "base": {"op": "var", "index": 3}, "exponent": 2}]},
                    {"op": "prod", "factors": [{"op": "const", "value": 2.0}, {"op": "var", "index": 1},
                                               {"op": "var", "index": 2}]},
                    {"op": "var", "index": 4},
                ]},
                [2, 1, 2], [1.0, 2.0, 1.0, 0.5, 1.5], 25, id="inline-matrix-form",
            ),
            pytest.param(SLOT_TAPE_TREE, [2, 2], None, 20, id="slot-tape"),
            # No cut at all: a lone coordinate, and a lone coordinate beside a
            # block of 2, whose halves would be as large as the grid.
            pytest.param({"op": "var", "index": 0}, [1], None, 5, id="one-coordinate"),
            pytest.param(
                _poly(3, [(1.0, [1, 1, 0]), (2.0, [1, 0, 2]), (0.5, [2, 1, 1])]),
                [1, 2], [2.0, 0.5, 1.5], 30, id="1-2-block",
            ),
        ],
    )
    def test_multi_block_grid_matches_the_row_path(self, expression, blocks, weights, resolution):
        _oracle_matching_the_row_path(parse_problem(_blocks_problem(expression, blocks, weights)), resolution)

    def test_the_slot_tape_case_stays_on_the_row_path(self):
        p = parse_problem(_blocks_problem(SLOT_TAPE_TREE, [2, 2], None))
        assert type(p.expression._form) is expr_module._SlotTape

    def test_a_barycenter_on_the_grid_scores_as_its_grid_row(self):
        # 0.7 e_6(x) on one block of 8 coordinates peaks at the barycenter,
        # the grid point (1, ..., 1) / 8.  Scored alone, the barycenter must
        # get the W of its grid row, not one that differs in the last bits.
        terms = [(0.7, [int(i in S) for i in range(8)]) for S in itertools.combinations(range(8), 6)]
        p = parse_problem(_blocks_problem(_poly(8, terms), [8], None))
        X = np.concatenate([c / 8.0 for c in cli._grid_batches(p.structure, 8)])
        W = expr_module._eval_log_values(p.expression, X)
        i = int(np.argmax(W))
        assert X[i].tolist() == barycenter(p.structure).x.tolist()
        res = run_oracle(p, 8)
        assert res.best_W == W[i]
        assert res.best_point.tolist() == X[i].tolist()

    # x0 x2 + x1 x3 is 1 at (0, 1, 0, 1) and at (1, 0, 1, 0), the first and
    # the last rows of the prefix half-grid; with 7-point batches each prefix
    # row is its own tile, so the tie is also settled across tiles.
    @pytest.mark.parametrize("batch", [2**16, 7])
    def test_a_tie_across_the_split_goes_to_the_first_grid_point(self, batch, monkeypatch):
        monkeypatch.setattr(cli, "_ORACLE_BATCH", batch)
        p = parse_problem(_blocks_problem(_poly(4, [(1.0, [1, 0, 1, 0]), (1.0, [0, 1, 0, 1])]), [2, 2], None))
        assert cli._split_cut(p.structure.blocks, 7, 2) == 2
        res = _oracle_matching_the_row_path(p, 7)
        assert res.best_W == 0.0
        assert res.best_point.tolist() == [0.0, 1.0, 0.0, 1.0]

    def test_a_screened_sum_that_underflows_is_rescored(self):
        # The weights 1e-300 let x0 and x3 reach 1e300.  At the best point
        # (1e300, 0, 0, 1e300) the prefix's largest term is x0^2 and the
        # suffix's is x3^2, each about e^1381 times the other half's value
        # of it: the screened sum underflows to 0, and only the rule for
        # sums below 2^-600 sends the point to the row kernel.
        p = parse_problem(_blocks_problem(
            _poly(4, [(1.0, [2, 0, 0, 0]), (1.0, [0, 0, 0, 2]), (1.0, [0, 1, 1, 0])]),
            [2, 2], [1e-300, 1.0, 1.0, 1e-300]))
        assert cli._split_cut(p.structure.blocks, 7, 3) == 2
        res = _oracle_matching_the_row_path(p, 7)
        assert res.best_point[1:3].tolist() == [0.0, 0.0]
        assert res.best_point[[0, 3]].min() > 9e299

    def test_a_subnormal_screened_sum_does_not_set_the_window(self):
        # As above, with x0 and x3 up to e^372.4 and x1 and x2 up to e^372.8.
        # At (e^372.4, 0, 0, e^372.4), W = 744.8 + log 2, but each product in
        # the screened sum is e^-744.8 = 0.69 * 2^-1074, which rounds up to
        # 2^-1074: the screen reads W + 0.37, above the best point
        # (0, e^372.8, e^372.8, 0) at W = 745.6.
        w, v = math.exp(-372.4), math.exp(-372.8)
        p = parse_problem(_blocks_problem(
            _poly(4, [(1.0, [2, 0, 0, 0]), (1.0, [0, 0, 0, 2]), (1.0, [0, 1, 1, 0])]),
            [2, 2], [w, v, v, w]))
        assert cli._split_cut(p.structure.blocks, 7, 3) == 2
        res = _oracle_matching_the_row_path(p, 7)
        assert res.best_point[[0, 3]].tolist() == [0.0, 0.0]

    def test_large_term_values_widen_the_window(self):
        # Exponents of 1e290 put the term bound B near the 1e300 guard.  The
        # two corners where a term lives tie but for rounding, which is of
        # order B / 2^53 in the screen, far above |W| / 2^53; a window
        # scaled by |W| alone re-scores the wrong corner here.
        s = BlockStructure((2, 2), np.array([2.7935314314153676, 1.01855173518919,
                                             1 / 2.7935314314153676, 1 / 1.01855173518919]))
        e = MatrixPolynomial([[1e290, 0, 1e290, 0], [0, 1e290, 0, 1e290]], [1.0, 1.0])
        assert cli._split_cut(s.blocks, 7, 2) == 2
        _oracle_matching_the_row_path(cli.Problem(e, s, barycenter(s), IterationConfig()), 7)

    def test_split_memory_does_not_grow_with_the_grid(self):
        # 300^2 and 3000^2 points: both grids fill whole tiles.  Only the
        # half-grid arrays grow, 10-fold (about 0.2 MB here); one float per
        # point of the larger grid would take 72 MB.
        p = parse_problem(_blocks_problem(_poly(4, [(1.0, [1, 0, 1, 0]), (2.0, [0, 1, 0, 1])]), [2, 2], None))
        peaks = []
        for resolution in (299, 2999):
            tracemalloc.start()
            try:
                run_oracle(p, resolution)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < peaks[0] + 2**20

    # One-block grids (and a [2, 7] grid whose best cut is inside a block) are
    # cut at a coordinate: a prefix point pairs only with the suffix points
    # that complete its block's sum.  Each case must give the row path's
    # result bit for bit.
    @pytest.mark.parametrize(
        "expression, blocks, weights, resolution, cut",
        [
            pytest.param({"graph": K5_GRAPH}, [10], None, 9, 5, id="K5"),
            pytest.param({"graph": K4_GRAPH}, [6], None, 20, 3, id="k4"),
            pytest.param(
                _poly(6, [(1.5, [1, 1, 0, 2, 1, 0]), (0.2, [2, 0, 1, 1, 1, 1]), (3.0, [1, 2, 1, 0, 1, 1]),
                          (0.7, [0, 1, 2, 1, 0, 2])]),
                [6], [0.5, 1.5, 1.0, 2.0, 0.8, 1.2], 14, 3, id="weighted-one-block",
            ),
            pytest.param(
                _poly(5, [(1.0, [1, 2, 1, 0, 0]), (2.0, [2, 1, 0, 1, 0]), (0.5, [1, 1, 2, 1, 0])]),
                [5], None, 30, 2, id="one-block-unused-last-variable",
            ),
            pytest.param(
                {"op": "sum", "terms": [
                    {"op": "prod", "factors": [{"op": "var", "index": 0},
                                               {"op": "pow", "base": {"op": "var", "index": 3}, "exponent": 2}]},
                    {"op": "prod", "factors": [{"op": "const", "value": 2.0}, {"op": "var", "index": 1},
                                               {"op": "var", "index": 2}]},
                    {"op": "var", "index": 4},
                ]},
                [5], [1.0, 2.0, 1.0, 0.5, 1.5], 30, 2, id="one-block-inline-matrix-form",
            ),
            # Two points tie but for the last bit, which a one-term table
            # used to round by the point's place in its batch.
            pytest.param(
                _poly(9, [(2.0, [0, 0, 0, 1, 0, 2, 1, 1, 0])]),
                [9], [1.498023572784343, 0.9970068898402094, 0.9792244453571122, 0.5182783062531751,
                      0.8174382420811896, 0.3235615627199467, 1.297891969302284, 0.7490325387720573,
                      1.6571686090846853], 7, 4, id="one-term-tie",
            ),
            pytest.param(
                _poly(9, [(1.0, [1, 0, 1, 1, 0, 0, 1, 0, 0]), (2.0, [0, 1, 0, 1, 1, 1, 0, 0, 1]),
                          (0.5, [1, 1, 1, 0, 0, 1, 0, 1, 0])]),
                [2, 7], None, 6, 4, id="2-7-cut-inside-the-second-block",
            ),
        ],
    )
    def test_a_grid_cut_inside_a_block_matches_the_row_path(self, expression, blocks, weights, resolution, cut):
        p = parse_problem(_blocks_problem(expression, blocks, weights))
        assert type(p.expression._form) is expr_module._MatrixForm
        assert cli._split_cut(p.structure.blocks, resolution, len(p.expression._form.E)) == cut
        _oracle_matching_the_row_path(p, resolution)

    # x1 + x0 x2 under weights (1/2, 1, 1/2, 1) peaks at 1 at two points,
    # (0, 1, 0, 0) and (1, 0, 1, 0), and below 1 elsewhere.  Cut 2 | 2, the
    # first (counts (0, 22, 0, 0)) has partial sum 22 and the second (11, 0,
    # 11, 0) has 11, so a chunk of the prefix visits the second first.  With
    # 7-point batches the first comes in an earlier chunk instead.
    @pytest.mark.parametrize("batch", [2**16, 7])
    def test_a_tie_across_partial_sum_groups_goes_to_the_first_grid_point(self, batch, monkeypatch):
        monkeypatch.setattr(cli, "_ORACLE_BATCH", batch)
        p = parse_problem(_blocks_problem(_poly(4, [(1.0, [0, 1, 0, 0]), (1.0, [1, 0, 1, 0])]),
                                          [4], [0.5, 1.0, 0.5, 1.0]))
        assert cli._split_cut(p.structure.blocks, 22, 2) == 2
        res = _oracle_matching_the_row_path(p, 22)
        assert res.best_W == 0.0
        assert res.best_point.tolist() == [0.0, 1.0, 0.0, 0.0]

    def test_a_constant_objective_on_one_block_goes_to_the_first_grid_point(self):
        # Every point ties and is re-scored, tile by tile.
        p = parse_problem(_blocks_problem(_poly(4, [(3.0, [0, 0, 0, 0])]), [4], None))
        assert cli._split_cut(p.structure.blocks, 22, 1) == 2
        res = _oracle_matching_the_row_path(p, 22)
        assert res.best_W == np.log(3.0)
        assert res.best_point.tolist() == [0.0, 0.0, 0.0, 1.0]

    def test_one_block_memory_does_not_grow_with_the_grid(self):
        # About 1.8e5 and 4.6e6 points, 5151 and 45451 per half-grid: only
        # the half-grid arrays grow (about 7 MB here, with the unranking's
        # temporaries); one float per point of the larger grid would take
        # 36 MB.
        p = parse_problem(_blocks_problem(_poly(4, [(1.0, [1, 0, 1, 0]), (2.0, [0, 1, 0, 1])]), [4], None))
        peaks = []
        for resolution in (99, 299):
            assert cli._split_cut(p.structure.blocks, resolution, 2) == 2
            tracemalloc.start()
            try:
                run_oracle(p, resolution)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < peaks[0] + 12 * 2**20

    def test_small_blocks_stay_on_the_row_path(self, problem_dir, monkeypatch):
        # A cut of a block of 2 or 3 coordinates leaves a half as large as the
        # grid (triangle: [3]), and dlr's objective is not a sum of monomials.
        def no_screen(*args):
            raise AssertionError("screened")

        monkeypatch.setattr(cli, "_screened_rows", no_screen)
        for name, resolution in (("triangle", 344), ("dlr", 2000)):
            p = parse_problem((problem_dir / f"{name}.json").read_text())
            _oracle_matching_the_row_path(p, resolution)
        assert cli._split_cut((3,), 344, 3) is None
        assert cli._split_cut((2,), 59999, 4) is None

    def test_dead_points_are_not_rescored(self, monkeypatch):
        # K5 at 9: a fifth of the grid is dead, and a dead point's bound can
        # pass the window (the two halves' largest terms differ).  Only the
        # barycenter and the points near the best reach the row kernel.
        p = parse_problem(_blocks_problem({"graph": K5_GRAPH}, [10], None))
        rows = []
        row_kernel = cli._eval_log_values

        def counting(expr, X):
            rows.append(len(X))
            return row_kernel(expr, X)

        monkeypatch.setattr(cli, "_eval_log_values", counting)
        run_oracle(p, 9)
        assert sum(rows) <= 16


def _grid_reference(blocks, resolution):
    """The oracle grid by the definition: per block, the compositions of
    ``resolution`` with the leading coordinate outermost (lexicographic);
    across blocks, their product with the first block outermost."""

    def compositions(total, k):
        if k == 1:
            return [(total,)]
        return [(h,) + c for h in range(total + 1) for c in compositions(total - h, k - 1)]

    per_block = [compositions(resolution, b) for b in blocks]
    return np.array([sum(p, ()) for p in itertools.product(*per_block)])


class TestGridBatches:
    # Every batch is unranked on its own: a batch of 7 rows puts batch
    # boundaries inside blocks of every width, so the rank split across
    # blocks, the count-table search of blocks of 3 or more coordinates and
    # the closed-form split of the last two must all resume mid-block.
    @pytest.mark.parametrize("batch", [2**16, 7])
    @pytest.mark.parametrize(
        "blocks", [[1], [2], [1, 4, 2], [3, 1, 2], [2, 2, 2], [10], [3, 3], [4, 3]]
    )
    def test_matches_the_lexicographic_reference(self, blocks, batch, monkeypatch):
        monkeypatch.setattr(cli, "_ORACLE_BATCH", batch)
        batches = list(cli._grid_batches(BlockStructure(blocks), 9))
        assert all(b.dtype == np.int64 for b in batches)
        assert [len(b) for b in batches[:-1]] == [batch] * (len(batches) - 1)
        assert np.array_equal(np.concatenate(batches), _grid_reference(blocks, 9))

    # The first block takes what the later blocks' divmods leave of the rank,
    # with no divmod of its own: the rows are those of a full divmod per rank.
    @pytest.mark.parametrize("blocks", [[3], [2, 3, 1]])
    def test_matches_per_rank_unranking(self, blocks, monkeypatch):
        monkeypatch.setattr(cli, "_ORACLE_BATCH", 7)
        s = BlockStructure(blocks)
        sizes = cli._grid_sizes(blocks, 5)
        rows = np.empty((math.prod(sizes), s.n), np.int64)
        for rank, row in enumerate(rows):
            for sl, size in zip(s.slices[::-1], sizes[::-1]):
                rank, digit = divmod(rank, size)
                _compositions(np.array([digit]), 5, row[None, sl])
        batches = list(cli._grid_batches(s, 5))
        assert len(batches) > 1
        assert np.array_equal(np.concatenate(batches), rows)

    @pytest.mark.parametrize("resolution", [65534, 65535, 65536])
    def test_every_batch_but_the_last_is_full(self, resolution):
        batches = list(cli._grid_batches(BlockStructure([2]), resolution))
        assert [len(b) for b in batches[:-1]] == [65536] * (len(batches) - 1)
        assert 1 <= len(batches[-1]) <= 65536
        head = np.arange(resolution + 1)
        assert np.array_equal(np.concatenate(batches), np.column_stack((head, resolution - head)))

    # Grids at the guard: a 3-coordinate block at 14000 (about 98M points) and
    # the largest 2-coordinate grid under it, at 99 999 999 (1e8 points).
    @pytest.mark.parametrize("blocks, resolution", [([3], 14000), ([2], 99_999_999)])
    def test_first_batch_is_built_lazily(self, blocks, resolution):
        s = BlockStructure(blocks)
        assert cli._grid_size(s, resolution) <= cli._ORACLE_POINT_GUARD
        tracemalloc.start()
        try:
            first = next(cli._grid_batches(s, resolution))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        lead = [0] * (s.n - 2)
        assert first[:3].tolist() == [lead + [i, resolution - i] for i in range(3)]
        assert first.shape == (65536, s.n)
        assert peak < 16 * 2**20  # the whole grid would take 1.6 GB or more


class TestMain:
    def _write(self, tmp_path, name, text):
        f = tmp_path / name
        f.write_text(text)
        return str(f)

    def test_optimize_exit_zero(self, tmp_path, capsys):
        prob = self._write(tmp_path, "p.json", GRAPH_PROBLEM)
        code = main(["optimize", "--problem", prob, "--out", str(tmp_path / "out")])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["status"] == "converged"
        assert (tmp_path / "out" / "trace.csv").exists()

    def test_optimize_iteration_cap_exit_one(self, tmp_path, capsys):
        prob = self._write(tmp_path, "p.json", GRAPH_PROBLEM)
        code = main(
            ["optimize", "--problem", prob, "--max-iters", "2", "--tol-div", "1e-30", "--tol-w", "0.0"]
        )
        assert code == 1
        assert json.loads(capsys.readouterr().out)["status"] == "max-iterations"

    def test_degenerate_exit_three(self, tmp_path, capsys):
        prob = self._write(tmp_path, "p.json", CONSTANT_PROBLEM)
        code = main(["optimize", "--problem", prob])
        assert code == 3
        assert json.loads(capsys.readouterr().out)["status"] == "degenerate"

    def test_missing_file_exit_two(self, tmp_path, capsys):
        code = main(["optimize", "--problem", str(tmp_path / "absent.json")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_json_exit_two(self, tmp_path, capsys):
        prob = self._write(tmp_path, "p.json", "{broken")
        code = main(["optimize", "--problem", prob])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_oversized_blocks_exit_two_before_allocating(self, tmp_path, capsys):
        # 10^15 coordinates would need petabytes: the count is checked first.
        text = (
            '{"expression": {"polynomial": {"n": 2, "terms": [{"c": 1.0, "e": [1, 1]}]}},'
            ' "blocks": [1000000000000000], "init": "barycenter"}'
        )
        code = main(["optimize", "--problem", self._write(tmp_path, "p.json", text)])
        assert code == 2
        err = capsys.readouterr().err
        assert "blocks: sum to 1000000000000000 but the objective declares 2 variables" in err

    def test_unallocatable_inline_blocks_exit_two(self, tmp_path, capsys):
        # An inline tree declares no variable count, so nothing bounds the
        # allocation before it is tried; its failure is an input error.
        text = (
            '{"expression": {"op": "var", "index": 0},'
            ' "blocks": [1000000000000000], "init": "barycenter"}'
        )
        code = main(["optimize", "--problem", self._write(tmp_path, "p.json", text)])
        assert code == 2
        err = capsys.readouterr().err
        assert "blocks: sum to 1000000000000000 coordinates, too many to allocate" in err

    def test_over_deep_expression_exit_two(self, tmp_path, capsys):
        depth = 1000
        node = '{"op": "pow", "base": ' * depth + '{"op": "var", "index": 0}'
        node += ', "exponent": 1.0}' * depth
        prob = self._write(
            tmp_path, "p.json", '{"expression": ' + node + ', "blocks": [1], "init": [1.0]}'
        )
        code = main(["optimize", "--problem", prob])
        assert code == 2
        assert "expression" in capsys.readouterr().err

    def test_verify_exit_zero_and_writes_report(self, tmp_path, capsys):
        prob = self._write(tmp_path, "p.json", GRAPH_PROBLEM)
        out = tmp_path / "v"
        code = main(
            ["verify", "--problem", prob, "--samples", "10", "--seed", "2", "--out", str(out)]
        )
        assert code == 0
        report = json.loads((out / "verify.json").read_text())
        assert report["pass"] is True
        assert json.loads(capsys.readouterr().out) == report

    def test_verify_byte_identical_reports(self, tmp_path, capsys):
        prob = self._write(tmp_path, "p.json", GRAPH_PROBLEM)
        out1, out2 = tmp_path / "v1", tmp_path / "v2"
        for out in (out1, out2):
            assert (
                main(
                    [
                        "verify",
                        "--problem",
                        prob,
                        "--samples",
                        "10",
                        "--seed",
                        "5",
                        "--out",
                        str(out),
                    ]
                )
                == 0
            )
        capsys.readouterr()
        assert (out1 / "verify.json").read_bytes() == (out2 / "verify.json").read_bytes()

    def test_inject_negative_exit_one(self, tmp_path, capsys):
        prob = self._write(tmp_path, "p.json", GRAPH_PROBLEM)
        code = main(
            ["verify", "--problem", prob, "--samples", "5", "--inject-negative"]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "FAILED" in captured.err
        assert "negative_control" in captured.err
        assert "argmax" not in captured.err
        assert json.loads(captured.out)["pass"] is False

    @pytest.mark.parametrize(
        "field, value",
        [
            ("config", {"max_iters": True}),
            ("config", {"tol_div": "1e-3"}),
            ("config", {"tol_w": True}),
            ("weights", [True, 1, 1]),
            ("weights", ["1", 1, 1]),
            ("init", ["0.5", 0.25, 0.25]),
        ],
        ids=["max_iters-bool", "tol_div-str", "tol_w-bool", "weights-bool", "weights-str", "init-str"],
    )
    def test_booleans_and_numeric_strings_exit_two(self, tmp_path, capsys, field, value):
        data = json.loads(GRAPH_PROBLEM)
        data[field] = value
        prob = self._write(tmp_path, "p.json", json.dumps(data))
        code = main(["optimize", "--problem", prob])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field}:")
        if field == "config":
            assert next(iter(value)) in err

    @pytest.mark.parametrize(
        "source, field, named",
        [
            ({"polynomial": {"n": 2, "terms": [{"c": 1.0, "e": [HUGE, 1]}]}}, None, "expression.polynomial"),
            ({"polynomial": {"n": 2, "terms": [{"c": HUGE, "e": [1, 1]}]}}, None, "expression.polynomial"),
            ({"op": "pow", "base": {"op": "var", "index": 0}, "exponent": HUGE}, None, "expression"),
            (
                {"op": "sum", "terms": [{"op": "var", "index": 1}, {"op": "const", "value": HUGE}]},
                None,
                "expression.terms[1]",
            ),
            (None, ("weights", [HUGE, 1]), "blocks/weights"),
            (None, ("init", [HUGE, 0.5]), "init"),
            (None, ("config", {"tol_w": HUGE}), "config: tol_w"),
        ],
        ids=["polynomial-e", "polynomial-c", "pow-exponent", "const-value", "weights", "init", "tol_w"],
    )
    def test_integer_too_large_for_a_float_exit_two(self, tmp_path, capsys, source, field, named):
        data = {"expression": source or {"op": "var", "index": 0}, "blocks": [2], "init": "barycenter"}
        if field is not None:
            data[field[0]] = field[1]
        prob = self._write(tmp_path, "p.json", json.dumps(data))
        code = main(["optimize", "--problem", prob])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {named}")
        assert "too large" in err

    @pytest.mark.parametrize(
        "source, named",
        [
            ({"polynomial": 5}, "expression.polynomial"),
            ({"polynomial": {"n": 2, "terms": [5]}}, "expression.polynomial.terms[0]"),
            ({"polynomial": {"n": 2, "terms": [{"e": [1, 1]}]}}, "expression.polynomial.terms[0]"),
            ({"polynomial": {"n": 2, "terms": [{"c": 1.0}]}}, "expression.polynomial.terms[0]"),
            ({"polynomial": {"n": 2, "terms": [{"c": 1.0, "e": 3}]}}, "expression.polynomial.terms[0].e"),
            ({"polynomial": {"n": 0, "terms": [{"c": 1.0, "e": []}]}}, "expression.polynomial"),
            ({"polynomial": {"n": True, "terms": [{"c": 1.0, "e": [1]}]}}, "expression.polynomial"),
            ({"polynomial": {"n": 2, "terms": [{"c": "1", "e": [1, 1]}]}}, "expression.polynomial"),
            ({"op": "sum", "terms": [{"op": "var", "index": 0}, 5]}, "expression.terms[1]"),
            ({"op": "var"}, "expression"),
            ({"op": "const"}, "expression"),
            ({"op": "pow", "exponent": 2.0}, "expression"),
            ({"op": "pow", "base": {"op": "var", "index": 0}}, "expression"),
            ({"op": "sum", "terms": 5}, "expression"),
            ({"op": "prod", "factors": {}}, "expression"),
            ({"op": "prod", "factors": [{"op": "var", "index": 0}, {"op": "const", "value": "2"}]},
             "expression.factors[1]"),
            ({"graph": 5}, "expression.graph"),
            ({"graph": {"vertices": 2, "edges": [[0, 1]], "weights": [1]}}, "expression.graph"),
            ({"graph": {"vertices": 2, "edges": 5}}, "expression.graph.edges"),
            ({"graph": {"vertices": 2, "edges": []}}, "expression.graph"),
            ({"index": 0}, "expression"),
        ],
        ids=[
            "polynomial-not-object", "term-not-object", "term-without-c", "term-without-e", "e-not-list",
            "n-zero", "n-true", "c-string", "node-not-object", "var-without-index", "const-without-value",
            "pow-without-base", "pow-without-exponent", "terms-not-list", "factors-not-list",
            "const-string", "graph-not-object", "graph-extra-field", "edges-not-list", "edges-empty",
            "no-source",
        ],
    )
    def test_malformed_objective_exits_two_naming_its_path(self, tmp_path, capsys, source, named):
        data = {"expression": source, "blocks": [2], "init": "barycenter"}
        code = main(["optimize", "--problem", self._write(tmp_path, "p.json", json.dumps(data))])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {named}:")
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_verify_without_samples_exit_two(self, tmp_path, capsys, samples):
        prob = self._write(tmp_path, "p.json", GRAPH_PROBLEM)
        code = main(["verify", "--problem", prob, "--samples", samples])
        assert code == 2
        captured = capsys.readouterr()
        assert "samples" in captured.err
        assert captured.out == ""

    def test_verify_negative_seed_exit_two_naming_the_seed(self, tmp_path, capsys):
        prob = self._write(tmp_path, "p.json", GRAPH_PROBLEM)
        code = main(["verify", "--problem", prob, "--seed", "-1"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == "error: seed must be a nonnegative integer, got -1\n"
        assert captured.out == ""

    def test_discriminant_subcommand(self, tmp_path, capsys):
        graph = self._write(
            tmp_path, "g.json", '{"vertices": 3, "edges": [[0, 1], [0, 2], [1, 2]]}'
        )
        code = main(["discriminant", "--graph", graph, "--out", str(tmp_path / "d")])
        assert code == 0
        poly = json.loads(capsys.readouterr().out)
        assert poly["n"] == 3
        assert len(poly["terms"]) == 3
        assert json.loads((tmp_path / "d" / "discriminant.json").read_text()) == poly

    @pytest.mark.parametrize("command", ["optimize", "discriminant"])
    @pytest.mark.parametrize(
        "edges, bad",
        [([1, 2], 0), ([None], 0), ([[0, 1], 5], 1)],
        ids=["ints", "null", "pair-then-int"],
    )
    def test_edge_that_is_not_a_list_exits_two(self, tmp_path, capsys, command, edges, bad):
        graph = {"vertices": 3, "edges": edges}
        if command == "optimize":
            problem = {"expression": {"graph": graph}, "blocks": [len(edges)], "init": "barycenter"}
            args = ["--problem", self._write(tmp_path, "p.json", json.dumps(problem))]
            path = "expression.graph"
        else:
            args = ["--graph", self._write(tmp_path, "g.json", json.dumps(graph))]
            path = "graph"
        assert main([command] + args) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: edge {bad} ")

    @pytest.mark.parametrize("command", ["optimize", "discriminant"])
    def test_huge_vertex_count_exits_two(self, tmp_path, capsys, command):
        graph = {"vertices": HUGE, "edges": [[0, 1]]}
        if command == "optimize":
            problem = {"expression": {"graph": graph}, "blocks": [1], "init": "barycenter"}
            args = ["--problem", self._write(tmp_path, "p.json", json.dumps(problem))]
            path = "expression.graph"
        else:
            args = ["--graph", self._write(tmp_path, "g.json", json.dumps(graph))]
            path = "graph"
        assert main([command] + args) == 2
        assert capsys.readouterr().err == f"error: {path}: graph is not connected; the discriminant is zero\n"

    @pytest.mark.parametrize("command", ["optimize", "discriminant", "verify"])
    @pytest.mark.parametrize(
        "graph, cap, message",
        [
            # A path on 26 vertices: 25 vertex pairs, one past the guard.
            ({"vertices": 26, "edges": [[i, i + 1] for i in range(25)]}, None,
             "enumeration over 25 vertex pairs is intractable (limit 24)"),
            # K4 at a term cap one below its 16 trees times 6 edges.
            ({"vertices": 4, "edges": [list(e) for e in itertools.combinations(range(4), 2)]}, 95,
             "16 spanning trees over 6 edges would make a term table of 96 entries (limit 95)"),
            # The same with every edge doubled, in one block: a problem file
            # would solve these on their edge classes.
            ({"vertices": 26, "edges": [[i, i + 1] for i in range(25) for _ in range(2)]}, None,
             "enumeration over 25 vertex pairs is intractable (limit 24)"),
            # K4 with edge (0, 1) doubled: 24 trees, 8 of them through (0, 1).
            ({"vertices": 4, "edges": [[1, 0]] + [list(e) for e in itertools.combinations(range(4), 2)]}, 167,
             "24 spanning trees over 7 edges would make a term table of 168 entries (limit 167)"),
        ],
        ids=["pairs", "term-cap", "multigraph-pairs", "multigraph-term-cap"],
    )
    def test_graph_past_a_size_guard_exits_two_naming_the_field(
        self, tmp_path, capsys, monkeypatch, command, graph, cap, message
    ):
        if cap is not None:
            monkeypatch.setattr(discriminant_module, "_MAX_TERM_ENTRIES", cap)
        if command == "discriminant":
            args = ["--graph", self._write(tmp_path, "g.json", json.dumps(graph))]
            path = "graph"
        else:
            problem = {"expression": {"graph": graph}, "blocks": [len(graph["edges"])], "init": "barycenter"}
            args = ["--problem", self._write(tmp_path, "p.json", json.dumps(problem))]
            path = "expression.graph"
        assert main([command] + args) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {path}: {message}")
        assert captured.out == ""

    def test_multigraph_past_24_edges_optimizes(self, tmp_path, capsys):
        # 30 parallel edges on the 3 pairs of a path: past the old 24-edge
        # wall, well inside the 24-pair one.
        graph = {"vertices": 4, "edges": [[i, i + 1] for i in range(3) for _ in range(10)]}
        problem = {"expression": {"graph": graph}, "blocks": [30], "init": "barycenter"}
        args = ["--problem", self._write(tmp_path, "p.json", json.dumps(problem))]
        assert main(["optimize"] + args + ["--out", str(tmp_path / "o")]) == 0
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert summary["status"] == "converged"
        # Each tree picks one edge per pair; the optimum spreads each pair's
        # third of the mass evenly: W = 3 log(10 * 1/30).
        assert_allclose(summary["W"], 3 * math.log(1 / 3), rtol=1e-9)

    def test_over_deep_graph_file_exit_two(self, tmp_path, capsys):
        depth = 100_000
        graph = self._write(
            tmp_path, "g.json", '{"vertices": 3, "edges": ' + "[" * depth + "]" * depth + "}"
        )
        assert main(["discriminant", "--graph", graph]) == 2
        assert capsys.readouterr().err == "error: graph: nested too deeply to parse\n"

    def test_oracle_subcommand(self, tmp_path, capsys):
        prob = self._write(tmp_path, "p.json", GRAPH_PROBLEM)
        code = main(
            ["oracle", "--problem", prob, "--resolution", "30", "--out", str(tmp_path / "o")]
        )
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        assert abs(result["gap"]) <= result["error_bound"]
        assert (tmp_path / "o" / "oracle.json").exists()


class TestConsoleScript:
    def test_subprocess_smoke(self, tmp_path, problem_dir):
        exe = shutil.which("kneejerk")
        if exe:
            cmd = [exe]
        else:
            cmd = [sys.executable, "-m", "kneejerk"]
        proc = subprocess.run(
            cmd + ["optimize", "--problem", str(problem_dir / "triangle.json")],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        summary = json.loads(proc.stdout)
        assert summary["status"] == "converged"

