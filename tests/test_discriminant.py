"""Tests for spanning-tree polynomials and their determinant evaluation."""

import itertools
import json
import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from kneejerk import (
    Graph,
    MatrixPolynomial,
    discriminant_polynomial,
    enumerate_spanning_trees,
    eval_matrix_tree,
    eval_matrix_tree_log,
)
from generators import (
    connected_simple_graphs,
    k4_graph,
    naive_poly_eval,
    naive_poly_eval_int,
    random_connected_graph,
    random_multigraph,
    reference_discriminant,
    reference_spanning_trees,
    triangle_graph,
)
from kneejerk import discriminant as discriminant_module
from kneejerk.cli import parse_problem


class TestGraphValidation:
    def test_rejects_self_loops(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(2, ((0, 0),))

    def test_rejects_disconnected(self):
        with pytest.raises(ValueError, match="not connected"):
            Graph(4, ((0, 1), (2, 3)))

    def test_rejects_bad_vertex_indices(self):
        with pytest.raises(ValueError):
            Graph(2, ((0, 2),))
        with pytest.raises(ValueError):
            Graph(2, ((-1, 0),))

    def test_rejects_too_few_vertices(self):
        with pytest.raises(ValueError):
            Graph(1, ())

    def test_var_indices_default_to_identity(self):
        g = triangle_graph()
        assert g.var_indices == (0, 1, 2)
        assert g.n_vars == 3

    def test_var_indices_may_repeat(self):
        g = Graph(2, ((0, 1), (0, 1)), var_indices=(0, 0))
        assert g.n_vars == 2

    def test_var_indices_range_checked(self):
        with pytest.raises(ValueError):
            Graph(2, ((0, 1), (0, 1)), var_indices=(0, 5))

    def test_json_round_trip(self):
        g = k4_graph()
        d = g.to_json_dict()
        assert d["vertices"] == 4
        h = Graph.from_json_dict(d, "graph")
        assert h.vertices == g.vertices
        assert h.edges == g.edges

    def test_from_json_reports_path(self):
        with pytest.raises(ValueError, match="problem.graph"):
            Graph.from_json_dict({"vertices": 3}, "problem.graph")


class TestEnumeration:
    def test_triangle_trees(self):
        trees = enumerate_spanning_trees(triangle_graph())
        assert sorted(trees) == [(0, 1), (0, 2), (1, 2)]

    def test_path_graph_has_one_tree(self):
        g = Graph(4, ((0, 1), (1, 2), (2, 3)))
        assert enumerate_spanning_trees(g) == [(0, 1, 2)]

    def test_complete_graph_counts_follow_cayley(self):
        # V^(V-2) spanning trees for the complete graph.
        for v in (3, 4, 5, 6):
            edges = tuple(itertools.combinations(range(v), 2))
            g = Graph(v, edges)
            assert len(enumerate_spanning_trees(g)) == v ** (v - 2)

    def test_cycle_graph_counts(self):
        for v in (3, 4, 5, 6):
            edges = tuple((i, (i + 1) % v) for i in range(v))
            g = Graph(v, edges)
            assert len(enumerate_spanning_trees(g)) == v

    def test_parallel_edges_are_distinct_trees(self):
        g = Graph(2, ((0, 1), (0, 1)))
        assert sorted(enumerate_spanning_trees(g)) == [(0,), (1,)]

    def test_enumeration_guard(self):
        # A path on 26 vertices: 25 vertex pairs, one past the guard.
        g = Graph(26, tuple((i, i + 1) for i in range(25)))
        with pytest.raises(ValueError, match="25 vertex pairs .* eval_matrix_tree"):
            enumerate_spanning_trees(g)


def _parallel_multigraph(rng, max_v=6, max_pairs=8, max_edges=16):
    """A connected multigraph whose vertex pairs carry 1 to 4 parallel edges:
    each edge's endpoints in either order, the edges shuffled (so neither
    the pairs nor the edges come sorted) and variable indices drawn with
    repeats."""
    V = int(rng.integers(2, max_v + 1))
    pairs = {(int(rng.integers(v)), v) for v in range(1, V)}
    all_pairs = list(itertools.combinations(range(V), 2))
    for k in rng.permutation(len(all_pairs))[: int(rng.integers(0, max_pairs - V + 2))]:
        pairs.add(all_pairs[k])
    edges = []
    for u, v in sorted(pairs):
        for _ in range(int(rng.integers(1, 5))):
            edges.append((u, v) if rng.random() < 0.5 else (v, u))
    edges = [edges[k] for k in rng.permutation(len(edges))[:max_edges]]
    var_indices = tuple(int(k) for k in rng.integers(0, len(edges), len(edges)))
    try:
        return Graph(V, tuple(edges), var_indices=var_indices)
    except ValueError:  # the cut to max_edges disconnected it
        return _parallel_multigraph(rng, max_v, max_pairs, max_edges)


def _pairs(graph):
    return len({tuple(sorted(e)) for e in graph.edges})


def _reference_cases():
    """Graphs the array enumerator is checked on against the reference."""
    cases = [Graph(v, tuple(itertools.combinations(range(v), 2))) for v in range(2, 8)]
    cases += [Graph(v, tuple((i, (i + 1) % v) for i in range(v))) for v in range(3, 9)]
    cases.append(Graph(2, ((0, 1), (0, 1))))
    cases.append(Graph(3, ((0, 1), (1, 2), (0, 1), (1, 2), (0, 2)), var_indices=(0, 0, 1, 1, 2)))
    rng = np.random.default_rng(85)
    cases += [random_multigraph(rng) for _ in range(40)]
    rng = np.random.default_rng(86)
    cases += [_parallel_multigraph(rng) for _ in range(40)]
    return cases


class TestArrayEnumeration:
    """The chunked array enumerator against the itertools + union-find
    reference: the same trees, in the same order."""

    def test_matches_the_reference(self):
        for g in _reference_cases():
            assert enumerate_spanning_trees(g) == reference_spanning_trees(g)

    @pytest.mark.parametrize("chunk", [1, 2, 7, 64])
    def test_matches_the_reference_across_chunk_boundaries(self, monkeypatch, chunk):
        monkeypatch.setattr(discriminant_module, "_SUBSET_CHUNK", chunk)
        expanded = 0
        for g in _reference_cases():
            if math.comb(_pairs(g), g.vertices - 1) > 50 * chunk:
                continue  # keep the chunk count, and the test, small
            assert enumerate_spanning_trees(g) == reference_spanning_trees(g)
            assert discriminant_polynomial(g) == reference_discriminant(g)
            if math.comb(_pairs(g), g.vertices - 1) > chunk and _pairs(g) < len(g.edges):
                expanded += 1  # pair trees from several chunks, then expanded
        assert expanded > 0

    def test_trees_are_python_int_tuples(self):
        trees = enumerate_spanning_trees(k4_graph())
        assert all(type(t) is tuple and all(type(e) is int for e in t) for t in trees)

    def test_subsets_are_every_combination_in_order(self, monkeypatch):
        monkeypatch.setattr(discriminant_module, "_SUBSET_CHUNK", 5)
        for m, k in ((1, 1), (4, 1), (5, 5), (7, 3), (9, 4)):
            chunks = list(discriminant_module._subsets(m, k))
            assert all(len(c) == 5 for c in chunks[:-1])
            got = [tuple(r) for c in chunks for r in c.tolist()]
            assert got == list(itertools.combinations(range(m), k))

    def test_discriminant_matches_the_reference(self):
        for g in _reference_cases():
            assert discriminant_polynomial(g) == reference_discriminant(g)

    def test_guard_keeps_24_edges(self):
        g = Graph(2, tuple((0, 1) for _ in range(24)))
        assert enumerate_spanning_trees(g) == [(k,) for k in range(24)]


class TestPairEnumeration:
    """Trees are searched on the vertex-pair graph and expanded over the
    parallel edges; the result must be the multigraph's own tree set."""

    def test_multigraphs_match_the_reference_bit_for_bit(self):
        rng = np.random.default_rng(87)
        for _ in range(60):
            g = _parallel_multigraph(rng)
            got, want = discriminant_polynomial(g), reference_discriminant(g)
            for a, b in ((got.E, want.E), (got.c, want.c), (got.log_c, want.log_c)):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()
            assert enumerate_spanning_trees(g) == reference_spanning_trees(g)

    def test_parallel_edges_past_24_enumerate(self):
        g = Graph(2, tuple((1, 0) if k % 2 else (0, 1) for k in range(25)))
        assert enumerate_spanning_trees(g) == [(k,) for k in range(25)]

    @pytest.mark.parametrize(
        "graph",
        [
            # 10 parallel edges on each pair of a 3-edge path: 30 edges.
            Graph(4, tuple((i, i + 1) for i in range(3) for _ in range(10))),
            # K4 with every pair 5 times over: 30 edges, 16 * 5^3 trees.
            Graph(4, tuple(e for e in itertools.combinations(range(4), 2) for _ in range(5))),
            # A path on 25 vertices (24 pairs, the guard) with 3 more
            # parallel edges on two of its pairs: 27 edges.
            Graph(25, tuple((i, i + 1) for i in range(24)) + ((0, 1), (1, 0), (23, 24))),
        ],
        ids=["path-30", "k4-30", "path-24-pairs"],
    )
    def test_more_than_24_edges_on_at_most_24_pairs_parse(self, graph):
        assert len(graph.edges) > 24 and _pairs(graph) <= 24
        problem = {"expression": {"graph": graph.to_json_dict()},
                   "blocks": [len(graph.edges)], "init": "barycenter"}
        poly = parse_problem(json.dumps(problem)).expression
        assert len(poly.c) == eval_matrix_tree(graph, [1] * graph.n_vars)
        assert set(poly.E.sum(axis=1).tolist()) == {graph.vertices - 1}

    def test_term_cap_refuses_before_enumerating(self, monkeypatch):
        def never(m, k):
            raise AssertionError("enumerated past the term cap")

        monkeypatch.setattr(discriminant_module, "_MAX_TERM_ENTRIES", 16 * 6 - 1)
        monkeypatch.setattr(discriminant_module, "_subsets", never)
        with pytest.raises(ValueError, match=r"16 spanning trees over 6 edges .* \(limit 95\)"):
            discriminant_polynomial(k4_graph())

    def test_term_cap_keeps_a_graph_at_the_cap(self, monkeypatch):
        monkeypatch.setattr(discriminant_module, "_MAX_TERM_ENTRIES", 16 * 6)
        assert discriminant_polynomial(k4_graph()) == reference_discriminant(k4_graph())

    def test_no_graph_of_24_edges_reaches_the_cap(self):
        # The guard replaces a 24-edge wall: at most C(24, 12) trees of 24
        # edges each, so everything that wall let through still parses.
        assert math.comb(24, 12) * 24 <= discriminant_module._MAX_TERM_ENTRIES


class TestDiscriminantPolynomial:
    def test_triangle_structure(self):
        p = discriminant_polynomial(triangle_graph())
        expected = MatrixPolynomial([[0, 1, 1], [1, 0, 1], [1, 1, 0]], [1.0, 1.0, 1.0])
        assert p == expected
        assert p.E.tolist() == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]

    def test_k4_at_ones(self):
        p = discriminant_polynomial(k4_graph())
        assert len(p.c) == 16
        assert naive_poly_eval_int(p, [1] * 6) == 16
        assert p.E.sum(axis=1).tolist() == [3] * 16

    def test_path_on_three_vertices_is_one_monomial(self):
        g = Graph(3, ((0, 1), (1, 2)))
        p = discriminant_polynomial(g)
        assert p == MatrixPolynomial([[1, 1]], [1.0])

    def test_shared_variable_merges_coefficients(self):
        g = Graph(2, ((0, 1), (0, 1)), var_indices=(0, 0))
        p = discriminant_polynomial(g)
        assert p.to_json_dict(2) == {"n": 2, "terms": [{"c": 2.0, "e": [1, 0]}]}

    def test_homogeneous_of_degree_v_minus_one(self):
        rng = np.random.default_rng(81)
        for _ in range(20):
            g = random_connected_graph(rng)
            p = discriminant_polynomial(g)
            assert set(p.E.sum(axis=1).tolist()) == {g.vertices - 1}


class TestMatrixTree:
    def test_k4_count(self):
        assert eval_matrix_tree(k4_graph(), [1] * 6) == 16
        assert isinstance(eval_matrix_tree(k4_graph(), [1] * 6), int)

    def test_triangle_count_at_ones(self):
        assert eval_matrix_tree(triangle_graph(), [1, 1, 1]) == 3

    def test_path_value_is_edge_product(self):
        g = Graph(3, ((0, 1), (1, 2)))
        rng = np.random.default_rng(4)
        for _ in range(20):
            a, b = rng.uniform(0.1, 5.0, 2)
            got = eval_matrix_tree(g, [a, b])
            assert np.isclose(got, a * b, rtol=1e-12)

    def test_integer_weights_agree_exactly_on_all_small_graphs(self):
        rng = np.random.default_rng(82)
        for v in (2, 3, 4):
            for g in connected_simple_graphs(v):
                weights = [int(w) for w in rng.integers(1, 10, len(g.edges))]
                poly = discriminant_polynomial(g)
                by_enum = 0
                for tree in enumerate_spanning_trees(g):
                    prod = 1
                    for ei in tree:
                        prod *= weights[ei]
                    by_enum += prod
                assert naive_poly_eval_int(poly, weights) == by_enum
                assert eval_matrix_tree(g, weights) == by_enum

    def test_huge_integer_weights_stay_exact(self):
        # Bareiss elimination works on Python integers, so no overflow.
        w = [10**40] * 6
        val = eval_matrix_tree(k4_graph(), w)
        assert val == 16 * 10**120

    def test_float_weights_agree_with_enumeration(self):
        rng = np.random.default_rng(83)
        for _ in range(60):
            g = random_connected_graph(rng)
            weights = rng.uniform(0.1, 3.0, len(g.edges))
            by_det = eval_matrix_tree(g, weights)
            by_enum = 0.0
            for tree in enumerate_spanning_trees(g):
                prod = 1.0
                for ei in tree:
                    prod *= weights[ei]
                by_enum += prod
            assert_allclose(by_det, by_enum, rtol=1e-10)

    def test_agrees_with_polynomial_evaluation(self):
        rng = np.random.default_rng(84)
        for _ in range(40):
            g = random_connected_graph(rng)
            weights = rng.uniform(0.2, 2.0, g.n_vars)
            poly = discriminant_polynomial(g)
            assert_allclose(
                eval_matrix_tree(g, weights),
                naive_poly_eval(poly, weights),
                rtol=1e-10,
            )

    def test_log_route_matches(self):
        g = k4_graph()
        w = np.full(6, 0.5)
        val = eval_matrix_tree(g, w)
        assert_allclose(eval_matrix_tree_log(g, w), math.log(val), rtol=1e-12)

    def test_log_route_survives_overflow_scales(self):
        # Uniform weights 1e103 put the tree sum at 16e309, past float range;
        # the log route must still deliver it.
        g = k4_graph()
        w = [1e103] * 6
        expected = math.log(16.0) + 3 * math.log(1e103)
        assert_allclose(eval_matrix_tree_log(g, w), expected, rtol=1e-12)

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError):
            eval_matrix_tree(triangle_graph(), [1.0, -1.0, 1.0])
        with pytest.raises(ValueError):
            eval_matrix_tree_log(triangle_graph(), [0.0, 1.0, 1.0])

    def test_rejects_wrong_weight_count(self):
        with pytest.raises(ValueError):
            eval_matrix_tree(triangle_graph(), [1.0, 1.0])

    def test_weights_are_per_variable_not_per_edge(self):
        # With var_indices sharing one variable across both edges, the
        # weight vector has length n_vars.
        g = Graph(2, ((0, 1), (0, 1)), var_indices=(0, 0))
        assert g.n_vars == 2
        with pytest.raises(ValueError):
            eval_matrix_tree(g, [2.0])
        assert eval_matrix_tree(g, [2, 7]) == 4


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: Graph(3, ((0, 1), (1, 2)), var_indices=(0,)),
                     "var_indices must have one entry per edge (2), got 1", id="var-indices-length"),
        pytest.param(lambda: eval_matrix_tree(triangle_graph(), [1, True, 1]),
                     "weight 1 must be a number, got True", id="bool-weight"),
        pytest.param(lambda: eval_matrix_tree(triangle_graph(), [1, 1, "1"]),
                     "weight 2 must be a number, got '1'", id="string-weight"),
    ],
)
def test_input_errors_name_the_bad_input(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
