"""Seeded random generators and independent reference computations shared by
the test modules.  Everything here is deliberately naive: reference values are
computed straight from definitions so they cannot inherit bugs from the
package's own evaluation paths."""

import numpy as np

from kneejerk import (
    BlockPoint,
    BlockStructure,
    Const,
    Graph,
    MatrixPolynomial,
    Pow,
    Prod,
    Sum,
    Var,
    polynomial_to_expression,
)


def random_polynomial(rng, n, max_degree=5, max_terms=8):
    """Positive-coefficient polynomial with total degree <= max_degree."""
    count = int(rng.integers(1, max_terms + 1))
    terms = []
    for _ in range(count):
        d = int(rng.integers(0, max_degree + 1))
        e = [0] * n
        for _ in range(d):
            e[int(rng.integers(n))] += 1
        terms.append((float(rng.uniform(0.1, 5.0)), e))
    return MatrixPolynomial([e for _, e in terms], [c for c, _ in terms])


def random_homogeneous_polynomial(rng, n, degree, max_terms=8):
    count = int(rng.integers(1, max_terms + 1))
    terms = []
    for _ in range(count):
        e = [0] * n
        for _ in range(degree):
            e[int(rng.integers(n))] += 1
        terms.append((float(rng.uniform(0.1, 5.0)), e))
    return MatrixPolynomial([e for _, e in terms], [c for c, _ in terms])


def random_expression(rng, n, depth=3):
    """Random tree over the closed node set; fractional powers included."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.25:
            return Const(float(rng.uniform(0.2, 3.0)))
        return Var(int(rng.integers(n)))
    kind = rng.choice(["sum", "prod", "pow"])
    if kind == "pow":
        return Pow(random_expression(rng, n, depth - 1), float(rng.uniform(0.3, 4.0)))
    width = int(rng.integers(2, 4))
    children = tuple(random_expression(rng, n, depth - 1) for _ in range(width))
    return Sum(children) if kind == "sum" else Prod(children)


def random_structure(rng, n=None, max_n=6, weighted=True, max_blocks=3):
    """Block structure over n (or random 2..max_n) coordinates; weights are
    unit with probability 1/2, else uniform in [0.5, 2]."""
    if n is None:
        n = int(rng.integers(2, max_n + 1))
    k = int(rng.integers(1, min(max_blocks, n) + 1))
    cuts = sorted(rng.choice(np.arange(1, n), size=k - 1, replace=False).tolist()) if k > 1 else []
    bounds = [0] + cuts + [n]
    blocks = tuple(bounds[i + 1] - bounds[i] for i in range(k))
    if weighted and rng.random() < 0.5:
        weights = rng.uniform(0.5, 2.0, n)
    else:
        weights = None
    return BlockStructure(blocks, weights)


def connected_simple_graphs(v):
    """All connected labeled simple graphs on v vertices, as Graph objects."""
    import itertools

    all_edges = list(itertools.combinations(range(v), 2))
    out = []
    for r in range(v - 1, len(all_edges) + 1):
        for subset in itertools.combinations(all_edges, r):
            try:
                out.append(Graph(v, subset))
            except ValueError:
                continue  # disconnected choice
    return out


def random_connected_graph(rng, min_v=2, max_v=6):
    """Random spanning tree plus random extra edges (parallel edges allowed)."""
    V = int(rng.integers(min_v, max_v + 1))
    edges = []
    for v in range(1, V):
        edges.append((int(rng.integers(v)), v))
    for _ in range(int(rng.integers(0, V + 1))):
        u = int(rng.integers(V))
        v = int(rng.integers(V))
        if u != v:
            edges.append((min(u, v), max(u, v)))
    return Graph(V, tuple(edges))


def random_multigraph(rng, max_v=6, max_edges=12):
    """Random connected multigraph (parallel edges likely), its edges in
    random order."""
    V = int(rng.integers(2, max_v + 1))
    edges = [(int(rng.integers(v)), v) for v in range(1, V)]
    while len(edges) < int(rng.integers(V - 1, max_edges + 1)):
        u, v = sorted(rng.choice(V, 2, replace=False).tolist())
        edges.append((u, v))
    order = rng.permutation(len(edges))
    edges = [edges[k] for k in order]
    return Graph(V, tuple(edges))


def reference_spanning_trees(graph):
    """Every spanning tree as a sorted tuple of edge positions, in
    lexicographic order: each (V-1)-edge subset from itertools.combinations,
    kept unless a union-find over its edges meets a cycle."""
    import itertools

    V = graph.vertices
    trees = []
    for combo in itertools.combinations(range(len(graph.edges)), V - 1):
        parent = list(range(V))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for ei in combo:
            u, v = graph.edges[ei]
            ru, rv = find(u), find(v)
            if ru == rv:
                break  # cycle
            parent[ru] = rv
        else:
            trees.append(combo)
    return trees


def reference_discriminant(graph):
    """The spanning-tree polynomial summed tree by tree from the reference
    enumeration: each tree's monomial is counted here, in a dict (a count
    above 1 would mean a tree listed twice), and the distinct monomials
    handed over in sorted order, so neither MatrixPolynomial's sort nor its
    merge is what makes it match."""
    counts = {}
    for tree in reference_spanning_trees(graph):
        exps = [0] * graph.n_vars
        for ei in tree:
            exps[ei] += 1
        counts[tuple(exps)] = counts.get(tuple(exps), 0) + 1
    monomials = sorted(counts)
    return MatrixPolynomial(monomials, [float(counts[e]) for e in monomials])


def dlr_expression():
    """The worked two-variable example: x^34 * y^38 * (1 + 2x)^125."""
    return Prod(
        (
            Pow(Var(0), 34),
            Pow(Var(1), 38),
            Pow(Sum((Const(1), Prod((Const(2), Var(0))))), 125),
        )
    )


def triangle_graph():
    return Graph(3, ((0, 1), (0, 2), (1, 2)))


def k4_graph():
    return Graph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))


def discriminant_expression(graph):
    from kneejerk import discriminant_polynomial

    return polynomial_to_expression(discriminant_polynomial(graph))


def poly_terms(poly, n=0):
    """A MatrixPolynomial's ``(coefficient, integer exponent list)`` pairs,
    row by row, each list padded with zeros to at least ``n`` entries."""
    pad = [0] * (n - poly.E.shape[1])
    return [(c, [int(k) for k in e] + pad) for c, e in zip(poly.c.tolist(), poly.E.tolist())]


def naive_poly_eval(poly, x):
    """Straight evaluation from the term list; no log tricks."""
    total = 0.0
    for c, e in poly_terms(poly):
        v = c
        for xi, k in zip(x, e):
            v *= xi**k
        total += v
    return total


def naive_poly_grad(poly, x):
    """Partial derivatives from the definition, term by term, one per
    coordinate of ``x``."""
    n = len(x)
    out = [0.0] * n
    for c, e in poly_terms(poly, n):
        for i in range(n):
            if e[i] == 0:
                continue
            v = c * e[i]
            for j, k in enumerate(e):
                v *= x[j] ** (k - 1 if j == i else k)
            out[i] += v
    return np.asarray(out)


def naive_poly_eval_int(poly, weights):
    """Exact integer evaluation (coefficients are small integers by
    construction in the discriminant tests)."""
    total = 0
    for c, e in poly_terms(poly):
        v = int(round(c))
        for w, k in zip(weights, e):
            v *= w**k
        total += v
    return total


def shift_vars(expr, offset):
    """Rebuild a tree with every variable index shifted by offset."""
    t = type(expr)
    if t is Var:
        return Var(expr.index + offset)
    if t is Const:
        return Const(expr.value)
    if t is Sum:
        return Sum(tuple(shift_vars(c, offset) for c in expr.terms))
    if t is Prod:
        return Prod(tuple(shift_vars(c, offset) for c in expr.factors))
    return Pow(shift_vars(expr.base, offset), expr.exponent)


def interior_point(rng, structure):
    """Dirichlet interior point, matching the package's sampler but written
    out locally so tests do not depend on it."""
    x = np.empty(structure.n)
    for b, sl in zip(structure.blocks, structure.slices):
        p = rng.dirichlet(np.ones(b))
        p = np.clip(p, 1e-12, None)
        p = p / p.sum()
        x[sl] = p / structure.weights[sl]
    return BlockPoint(x, structure)
