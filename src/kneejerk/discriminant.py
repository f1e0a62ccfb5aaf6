"""Graph discriminants: spanning-tree generating polynomials.

The discriminant of a connected graph assigns one variable per edge and sums,
over all spanning trees, the product of the tree's edge variables.  It is a
homogeneous positive polynomial of degree V-1, so it drops straight into the
optimizer; it is also log-concave, which the diagnostics probes exercise.

Two independent evaluation routes are kept deliberately separate so they can
cross-check each other: explicit enumeration of spanning trees (exponential,
guarded) and the weighted-Laplacian cofactor (matrix-tree), which for integer
weights uses exact fraction-free elimination.

Enumeration works on integer arrays, over the graph's vertex pairs.  The
edges are grouped by their (sorted) endpoint pair; a spanning tree of the
multigraph is a spanning tree of the pair graph with one of each pair's
parallel edges chosen, so only the pair graph is searched.  Its (V-1)-pair
subsets are unranked in lexicographic order, a fixed number per chunk, as the
partial sums of the compositions that also index the oracle's simplex grid.
Each chunk is tested for cycles by a vectorized union-find that relabels
components pair by pair; the surviving subsets are the pair trees, which a
graph keeps once searched (``Graph._pair_trees``).  Each pair tree expands
into every choice of one edge per pair, counted off in mixed-radix digits
over the pair multiplicities (``_expand``).  The same expansion, over each
pair's edge classes instead of its edges (the parallel edges in one block
with one weight), gives the objective over the class sums
(``_edge_classes``) that :mod:`kneejerk.cli` solves a problem's graph source
on: a graph parsed from a problem file is searched once for both.
:func:`discriminant_polynomial` counts each tree's edge variables into one
exponent row and hands the rows to :class:`kneejerk.expr.MatrixPolynomial`,
which sorts them by one stable argsort of a mixed-radix key per row
(``np.lexsort`` past a radix product of 2^53) and merges trees with the same
monomial.  A graph source with no edge classes parses through it; one with
classes builds only the class objective, and its polynomial on first read.
:func:`enumerate_spanning_trees` sorts its trees with the same key.
Two guards run first: at most 24 vertex pairs, however many parallel edges,
and a term table (trees x edges) of at most 2^26 entries.  Where the subset
bound C(E, V-1) on the tree count does not settle the second, it reads the
exact Kirchhoff tree count of the multiplicity-weighted Laplacian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .expr import MatrixPolynomial, _dense_enough, _lex_order, _unit_monomials
from .simplex import BlockStructure, _compositions

__all__ = [
    "Graph",
    "enumerate_spanning_trees",
    "discriminant_polynomial",
    "eval_matrix_tree",
    "eval_matrix_tree_log",
]

# The pair search is Theta(C(P, V-1)) over P vertex pairs, so past this many
# pairs callers should use the matrix-tree route instead.  Parallel edges do
# not count: they only widen the expansion, which the term cap bounds.
_MAX_ENUM_PAIRS = 24
# The expanded term table (trees x edges) holds at most this many entries,
# 512 MiB as float64.  It is checked before anything is allocated: on the
# bound C(E, V-1) x E, then, where that bound passes the cap, on the exact
# Kirchhoff tree count.  No graph of at most 24 edges reaches it (at most
# C(24, 12) trees of 24 edges), so every graph the old 24-edge wall accepted
# still parses.
_MAX_TERM_ENTRIES = 2**26
# Pair subsets tested per chunk: at most a few MB of working arrays.
_SUBSET_CHUNK = 2**14


@dataclass(eq=False)
class Graph:
    """Undirected multigraph with one variable index per edge.

    ``edges`` lists (u, v) endpoint pairs; parallel edges are allowed,
    self-loops are not (they lie in no spanning tree and would make the
    discriminant vacuously independent of their variable).  ``var_indices``
    maps each edge to its variable; by default edge k owns variable k, but
    indices may repeat, in which case monomials can merge with coefficient
    greater than one.
    """

    vertices: int
    edges: tuple[tuple[int, int], ...]
    var_indices: tuple[int, ...] = None  # type: ignore[assignment]

    def __post_init__(self):
        if isinstance(self.vertices, bool) or not isinstance(self.vertices, int) or self.vertices < 2:
            raise ValueError(f"vertex count must be an integer >= 2, got {self.vertices!r}")
        edges = []
        for i, e in enumerate(tuple(self.edges)):
            try:
                u, v = e
            except (TypeError, ValueError):
                raise ValueError(f"edge {i} must be a (u, v) pair, got {e!r}") from None
            for w in (u, v):
                if isinstance(w, bool) or not isinstance(w, int) or not 0 <= w < self.vertices:
                    raise ValueError(
                        f"edge {i} endpoint {w!r} is not a vertex in [0, {self.vertices})"
                    )
            if u == v:
                raise ValueError(f"edge {i} is a self-loop at vertex {u}; self-loops are not allowed")
            edges.append((u, v))
        self.edges = tuple(edges)
        m = len(self.edges)
        if m == 0:
            raise ValueError("graph has no edges")
        if self.var_indices is None:
            self.var_indices = tuple(range(m))
        else:
            vi = tuple(self.var_indices)
            if len(vi) != m:
                raise ValueError(f"var_indices must have one entry per edge ({m}), got {len(vi)}")
            for k in vi:
                if isinstance(k, bool) or not isinstance(k, int) or not 0 <= k < m:
                    raise ValueError(f"edge variable index {k!r} is not in [0, {m})")
            self.var_indices = vi
        # Connectivity: each edge joins at most two components, so fewer than
        # vertices - 1 edges cannot connect the graph (checked before the
        # union-find allocates one entry per vertex).
        if self.vertices > m + 1:
            raise ValueError("graph is not connected; the discriminant is zero")
        parent = list(range(self.vertices))

        def find(a: int) -> int:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        components = self.vertices
        for u, v in self.edges:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                components -= 1
        if components != 1:
            raise ValueError("graph is not connected; the discriminant is zero")

    @property
    def n_vars(self) -> int:
        return len(self.edges)

    @cached_property
    def _pair_trees(self) -> tuple[list[list[int]], np.ndarray]:
        """:func:`_pair_tree_search` of this graph, run on first use and kept,
        so a graph's discriminant and a problem's class coordinates share one
        search."""
        return _pair_tree_search(self)

    @classmethod
    def from_json_dict(cls, data, path: str = "graph") -> "Graph":
        if not isinstance(data, dict):
            raise ValueError(f"{path}: expected an object, got {type(data).__name__}")
        extra = set(data) - {"vertices", "edges"}
        if extra:
            raise ValueError(f"{path}: unexpected field(s) {sorted(extra)!r}")
        if "vertices" not in data or "edges" not in data:
            raise ValueError(f"{path}: requires 'vertices' and 'edges'")
        edges = data["edges"]
        if not isinstance(edges, list):
            raise ValueError(f"{path}.edges: expected a list of [u, v] pairs")
        try:
            return cls(data["vertices"], tuple(tuple(e) if isinstance(e, list) else e for e in edges))
        except ValueError as err:
            raise ValueError(f"{path}: {err}") from None

    def to_json_dict(self) -> dict:
        return {"vertices": self.vertices, "edges": [list(e) for e in self.edges]}


def _subsets(m: int, k: int):
    """The k-subsets of ``range(m)`` as int64 arrays of shape ``(rows, k)``,
    in lexicographic order, every array ``_SUBSET_CHUNK`` rows but the last.

    Each chunk is computed from its ranks.  A subset ``p_0 < ... < p_(k-1)``
    is the partial sums ``p_j = c_0 + ... + c_j + j`` of a composition ``c``
    of ``m - k`` into ``k + 1`` parts (the gaps between its elements), which
    :func:`kneejerk.simplex._compositions` unranks.  The map keeps the order:
    the first part where two compositions differ is the first element where
    their subsets differ, and in the same direction.  Each array is the
    transpose of a C-ordered ``(k, rows)`` one, so a column is contiguous."""
    total = math.comb(m, k)
    for lo in range(0, total, _SUBSET_CHUNK):
        r = np.arange(lo, min(lo + _SUBSET_CHUNK, total), dtype=np.int64)
        c = np.empty((k + 1, len(r)), np.int64)
        _compositions(r, m - k, c.T)
        yield (np.cumsum(c[:k], axis=0) + np.arange(k)[:, None]).T


def _acyclic(ends: np.ndarray, vertices: int, subsets: np.ndarray) -> np.ndarray:
    """The rows of ``subsets`` (positions in ``ends``) that close no cycle.

    Union-find on integer arrays: column ``i`` of ``comp`` labels the
    component of each vertex in row ``i``, so every pass runs along the rows.
    Pair by pair, a row whose pair joins two vertices with the same label
    fails, and every row relabels one endpoint's component to the other's
    (adding ``cu - cv`` where the label is ``cv``).  Labels are vertices, at
    most 25 under the pair guard."""
    rows = len(subsets)
    comp = np.repeat(np.arange(vertices, dtype=np.int8), rows).reshape(vertices, rows)
    flat = comp.reshape(-1)
    at = ends * rows  # where each endpoint's label starts in flat
    lane = np.arange(rows)
    ok = np.ones(rows, dtype=bool)
    for col in subsets.T:
        cu = flat[at[col, 0] + lane]
        cv = flat[at[col, 1] + lane]
        ok &= cu != cv
        comp += (comp == cv) * (cu - cv)
    return subsets.compress(ok, axis=0)


def _pair_tree_search(graph: Graph) -> tuple[list[list[int]], np.ndarray]:
    """The graph's edges grouped by sorted vertex pair (a list of edge
    positions per pair, pairs in order of first appearance) and the pair
    trees, as rows of pair positions (int64, shape ``(trees, V - 1)``), in
    lexicographic order.

    Raises ValueError past :data:`_MAX_ENUM_PAIRS` vertex pairs, or when the
    term table (trees x edges) would pass :data:`_MAX_TERM_ENTRIES`."""
    V, m = graph.vertices, len(graph.edges)
    pairs: dict[tuple[int, int], list[int]] = {}
    for k, (u, v) in enumerate(graph.edges):
        pairs.setdefault((u, v) if u < v else (v, u), []).append(k)
    if len(pairs) > _MAX_ENUM_PAIRS:
        raise ValueError(
            f"enumeration over {len(pairs)} vertex pairs is intractable "
            f"(limit {_MAX_ENUM_PAIRS}); use eval_matrix_tree for large graphs"
        )
    # Trees are (V-1)-edge subsets, so the exact count is needed only when
    # that bound does not already keep the term table under the cap.
    if math.comb(m, V - 1) * m > _MAX_TERM_ENTRIES:
        trees = _bareiss_det(_laplacian_minor(graph, [1] * graph.n_vars, as_int=True))
        if trees * m > _MAX_TERM_ENTRIES:
            raise ValueError(
                f"{trees} spanning trees over {m} edges would make a term table of "
                f"{trees * m} entries (limit {_MAX_TERM_ENTRIES}); use eval_matrix_tree "
                "for large graphs"
            )
    pair_ends = np.array(list(pairs), dtype=np.int64)
    pair_trees = np.concatenate([_acyclic(pair_ends, V, s) for s in _subsets(len(pairs), V - 1)])
    return list(pairs.values()), pair_trees


def _expand(groups: list[list[int]], pair_trees: np.ndarray) -> np.ndarray:
    """Every choice of one member of each pair's group, for each pair tree:
    rows of members (int64, shape ``(rows, V - 1)``), grouped by pair tree.

    ``groups[p]`` lists pair ``p``'s members: its parallel edges, for the
    spanning trees, or its edge classes, for a problem's class coordinates.
    A pair tree expands into the product of its pairs' group sizes, counted
    off in mixed-radix digits, the last column fastest."""
    members = np.array([k for group in groups for k in group])
    if len(members) == len(groups):  # one member per pair: each pair tree is one row
        return members[pair_trees]
    mult = np.array([len(group) for group in groups])
    first = np.cumsum(mult) - mult  # pair p's members are members[first[p]:first[p] + mult[p]]
    # span[:, j]: the ways to pick one member for each of columns j, j+1, ...
    # (the product of their group sizes), so an expansion of rank r picks
    # member r % span_j // (span_j / radix_j) of column j's pair.  A pair
    # tree's rows are copied out by np.repeat, faster than gathering them.
    radix = mult[pair_trees]
    span = np.cumprod(radix[:, ::-1], axis=1)[:, ::-1]
    count = span[:, 0]
    rank = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
    span, inner, base = (np.repeat(a, count, axis=0) for a in (span, span // radix, first[pair_trees]))
    return members[base + rank[:, None] % span // inner]


def _edge_classes(graph: Graph, s: BlockStructure):
    """The graph's class coordinates under ``s``, the block structure of its
    edges, or None when no class has two edges (or the class objective would
    be too sparse for the matrix form).

    A class is the edges of one vertex pair in one block with one weight.
    The discriminant sees them only through their sum ``y_C``, and the
    update moves them by the same factor ``(dW/dy_C) / (a_C m_B)``, so
    iterating on the class sums takes the same steps.  Returns the class of
    each edge, the objective over the class sums and their structure.
    Classes are numbered by their first edge, so each block's classes are
    contiguous, and each takes its edges' weight.  The objective's terms are
    the graph's pair trees (``Graph._pair_trees``), each expanded by
    :func:`_expand` into every choice of one class per pair (one term, when
    each pair is one class), so its exponents are 0 and 1 and no two terms
    are alike.  Raises as :func:`_pair_tree_search`."""
    groups, pair_trees = graph._pair_trees
    pair = {k: p for p, group in enumerate(groups) for k in group}  # each edge's pair
    ids: dict = {}
    keys = zip(map(pair.get, range(s.n)), s.index.tolist(), s.weights.tolist())
    cls = [ids.setdefault(key, len(ids)) for key in keys]
    n = len(ids)
    if n == s.n:
        return None
    classes: list[list[int]] = [[] for _ in groups]  # each pair's classes
    for c, (p, _, _) in enumerate(ids):
        classes[p].append(c)
    trees = _expand(classes, pair_trees)
    if not _dense_enough((len(trees), n), trees.size):
        return None
    E = np.zeros((len(trees), n))
    E[np.arange(len(trees))[:, None], trees] = 1.0
    sizes = tuple(np.bincount([b for _, b, _ in ids], minlength=s.k).tolist())
    weights = [w for _, _, w in ids]
    # Unit weights need no second check.
    structure = BlockStructure(sizes, None if weights.count(1.0) == n else np.array(weights))
    return np.array(cls), _unit_monomials(E), structure


def enumerate_spanning_trees(graph: Graph) -> list[tuple[int, ...]]:
    """All spanning trees, as sorted tuples of edge positions.

    Complete and duplicate-free; deterministic lexicographic order.  The
    search runs over the vertex-pair graph and expands each pair tree into
    every choice of one parallel edge per pair, so the guard counts vertex
    pairs, at most 24, however many parallel edges there are; the expanded
    trees times edges must also stay within a fixed term cap.  Past either,
    use :func:`eval_matrix_tree`, which computes the same total weight
    without enumeration.
    """
    trees = np.sort(_expand(*graph._pair_trees), axis=1)
    order, _ = _lex_order(trees, trees.max(axis=0).tolist())
    return list(map(tuple, trees[order].tolist()))


def discriminant_polynomial(graph: Graph) -> MatrixPolynomial:
    """The spanning-tree generating polynomial over the edge variables.

    Homogeneous of degree V-1 with positive integer coefficients; every
    coefficient is 1 unless edges sharing a variable index let distinct trees
    produce the same monomial.
    """
    trees = _expand(*graph._pair_trees)  # grouped by pair tree, unsorted
    t, n = len(trees), graph.n_vars
    var = np.asarray(graph.var_indices)[trees]
    flat = (np.arange(t)[:, None] * n + var).ravel()
    return MatrixPolynomial(np.bincount(flat, minlength=t * n).reshape(t, n), np.ones(t))


def _bareiss_det(mat: list[list[int]]) -> int:
    """Exact determinant of a positive definite integer matrix, at least
    1 x 1, by fraction-free elimination.  Both callers pass the reduced
    Laplacian of a connected graph (V >= 2) with positive integer weights, so
    every pivot is a positive leading principal minor: no row swap is needed."""
    a = [row[:] for row in mat]
    n = len(a)
    prev = 1
    for k in range(n - 1):
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return a[n - 1][n - 1]


def _validated_weights(graph: Graph, weights) -> list:
    w = list(weights)
    if len(w) != graph.n_vars:
        raise ValueError(f"expected {graph.n_vars} edge weights, got {len(w)}")
    for i, v in enumerate(w):
        if isinstance(v, bool):
            raise ValueError(f"weight {i} must be a number, got {v!r}")
        if not (isinstance(v, (int, float)) or isinstance(v, (np.integer, np.floating))):
            raise ValueError(f"weight {i} must be a number, got {v!r}")
        if not math.isfinite(float(v)) or float(v) <= 0.0:
            raise ValueError(f"edge weights must be finite and positive; weight {i} = {v!r}")
    return w


def _laplacian_minor(graph: Graph, w: list, as_int: bool):
    V = graph.vertices
    if as_int:
        L = [[0] * V for _ in range(V)]
    else:
        L = np.zeros((V, V))
    for (u, v), vi in zip(graph.edges, graph.var_indices):
        wt = w[vi] if as_int else float(w[vi])
        L[u][u] += wt
        L[v][v] += wt
        L[u][v] -= wt
        L[v][u] -= wt
    if as_int:
        return [row[:-1] for row in L[:-1]]
    return L[:-1, :-1]


def eval_matrix_tree(graph: Graph, weights):
    """Discriminant value at positive edge weights via the weighted-Laplacian
    cofactor - no tree enumeration.

    Integer weights take an exact fraction-free elimination path and return a
    Python int; float weights go through LU with partial pivoting
    (``numpy.linalg.det``) and return a float.
    """
    w = _validated_weights(graph, weights)
    if all(isinstance(v, (int, np.integer)) for v in w):
        minor = _laplacian_minor(graph, [int(v) for v in w], as_int=True)
        return _bareiss_det(minor)
    minor = _laplacian_minor(graph, w, as_int=False)
    return float(np.linalg.det(minor))


def eval_matrix_tree_log(graph: Graph, weights) -> float:
    """``log`` of the discriminant value, stable for graphs whose tree totals
    overflow a float.  The cofactor of a positively weighted connected graph
    is positive definite, so a nonpositive sign indicates numerical breakdown
    and raises."""
    w = _validated_weights(graph, weights)
    minor = _laplacian_minor(graph, [float(v) for v in w], as_int=False)
    sign, logdet = np.linalg.slogdet(minor)
    if sign <= 0.0:
        raise ValueError("Laplacian cofactor lost positive-definiteness numerically")
    return float(logdet)
