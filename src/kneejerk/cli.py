"""Problem files and the command-line front end.

A problem file is JSON with an objective (inline expression tree, polynomial
given term by term, or graph whose discriminant becomes the objective), a block
structure, optional weights, an initial point, and optional stopping-rule
overrides::

    {
      "expression": {"op": ...} | {"polynomial": {...}} | {"graph": {...}},
      "blocks": [2, 3],
      "weights": [1, 1, 1, 1, 1],          // optional
      "init": [0.5, 0.5, ...] | "barycenter",
      "config": {"max_iters": 5000, "tol_div": 1e-18, "tol_w": 1e-16,
                 "trace_stride": 1}  // optional: any IterationConfig field
    }

Subcommands: ``optimize`` (iterate, write trace CSV + JSON summary),
``verify`` (seeded randomized certificate sweeps; deterministic given the
seed), ``discriminant`` (graph file to polynomial JSON), ``oracle``
(exhaustive grid search, reports the gap to the iteration's terminal value).

Exit codes: 0 success / converged, 1 verification failure or iteration cap
reached, 2 input error (including an expression nested too deeply to parse),
3 degenerate terminal status.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .diagnostics import (
    _MARGIN_TOL,
    _argmax_sweep,
    _curvature_probe,
    _step_sweep,
    check_log_concavity,
    check_log_log_convexity,
    verify_argmax_property,  # unused here; perfbench/tracing.py wraps it by name
    verify_step_inequality,  # unused here; perfbench/tracing.py wraps it by name
)
from .discriminant import Graph, discriminant_polynomial
from .expr import (
    KneeJerkExpr,
    MatrixPolynomial,
    construct_expression,
    expression_to_json_dict,
    polynomial_to_expression,  # unused here; perfbench/tracing.py wraps it by name
    _eval_log_raw,
    _eval_log_values,
    _MatrixForm,
    _term_table,
)
from .mapping import IterationConfig, Trace, _support_residual, iterate
from .simplex import BlockPoint, BlockStructure, _dirichlet_rows, barycenter
from .simplex import random_interior  # unused here; perfbench/tracing.py wraps it by name

__all__ = [
    "Problem",
    "OracleResult",
    "parse_problem",
    "serialize_problem",
    "run_optimize",
    "run_verify",
    "run_oracle",
    "main",
]

_ORACLE_POINT_GUARD = 10**8
_ORACLE_BATCH = 2**16  # grid points scored per _eval_log_values call
_SPLIT_TERMS = 2**20  # term values (8 MB) in a split grid's suffix table or prefix chunk
_SPLIT_SHARE = 8  # a split grid's halves hold at most 1/8 of its points each
_SCREEN_TINY = 2.0**-600  # a screened sum this small may have lost terms
_TOO_DEEP = "expression: nested too deeply to parse"
_TOO_MANY = "blocks: sum to {} coordinates, too many to allocate"
_ARGMAX_COMPETITORS = 1000
_SWEEP_ROWS = 256  # base points per chunk of the inequality sweep
_SWEEP_VALUES = 2**16  # competitor coordinates (512 KB) per chunk of the argmax sweep


@dataclass(eq=False)
class Problem:
    expression: KneeJerkExpr
    structure: BlockStructure
    init: BlockPoint
    config: IterationConfig


@dataclass(eq=False)
class OracleResult:
    """Exhaustive grid search outcome.

    ``gap`` is ``terminal W - best grid W`` for the iteration started at the
    problem's init point; ``error_bound`` is a first-order estimate
    ``L * h`` of how far the grid optimum can sit below the true one
    (gradient norm at the two candidate optima times the grid spacing).
    """

    best_point: np.ndarray
    best_W: float
    resolution: int
    gap: float
    error_bound: float

    def to_json_dict(self) -> dict:
        return {
            "best_point": [float(v) for v in self.best_point],
            "best_W": self.best_W,
            "resolution": self.resolution,
            "gap": self.gap,
            "error_bound": self.error_bound,
        }


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


def _is_number_list(value) -> bool:
    """A JSON list of numbers: no booleans, strings or nested lists."""
    return isinstance(value, list) and all(type(v) in (int, float) for v in value)


def parse_problem(text: str) -> Problem:
    """Parse and validate a problem from JSON text.

    Polynomial and graph sources become a :class:`MatrixPolynomial`.
    Raises ValueError naming the offending field on any schema violation.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ValueError(f"problem file is not valid JSON: {err}") from None
    except RecursionError:
        raise ValueError(_TOO_DEEP) from None
    _require(isinstance(data, dict), "problem: top level must be a JSON object")
    extra = set(data) - {"expression", "blocks", "weights", "init", "config"}
    _require(not extra, f"problem: unexpected field(s) {sorted(extra)!r}")
    for name in ("expression", "blocks", "init"):
        _require(name in data, f"problem: missing required field '{name}'")

    src = data["expression"]
    _require(isinstance(src, dict), "expression: must be an object")
    declared_n = None
    if "op" in src:
        try:
            expr = construct_expression(src, path="expression")
        except RecursionError:
            raise ValueError(_TOO_DEEP) from None
    elif "polynomial" in src:
        _require(set(src) == {"polynomial"}, "expression: 'polynomial' must be the only key")
        expr = MatrixPolynomial.from_json_dict(src["polynomial"], path="expression.polynomial")
        declared_n = src["polynomial"]["n"]
    elif "graph" in src:
        _require(set(src) == {"graph"}, "expression: 'graph' must be the only key")
        graph = Graph.from_json_dict(src["graph"], path="expression.graph")
        declared_n = graph.n_vars
        expr = discriminant_polynomial(graph)
    else:
        raise ValueError(
            "expression: must be an inline tree ({'op': ...}), {'polynomial': ...}, "
            "or {'graph': ...}"
        )

    blocks = data["blocks"]
    _require(
        isinstance(blocks, list) and blocks,
        "blocks: must be a nonempty list of positive integers",
    )
    if declared_n is not None and all(type(b) is int and b > 0 for b in blocks):
        # Before BlockStructure allocates per-coordinate arrays of that size.
        _require(
            sum(blocks) == declared_n,
            f"blocks: sum to {sum(blocks)} but the objective declares {declared_n} variables",
        )
    weights = data.get("weights")
    if weights is not None:
        _require(_is_number_list(weights), "weights: must be a list of positive numbers")
    try:
        structure = BlockStructure(tuple(blocks), None if weights is None else np.asarray(weights, dtype=float))
    except (ValueError, TypeError, OverflowError) as err:
        raise ValueError(f"blocks/weights: {err}") from None
    except MemoryError:
        raise ValueError(_TOO_MANY.format(sum(blocks))) from None

    n = structure.n
    # Reading n_vars compiles a tree objective, so no solve compiles.
    _require(
        expr.n_vars <= n,
        f"blocks: sum to {n} but the expression references variable {expr.n_vars - 1}",
    )

    init = data["init"]
    if init == "barycenter":
        try:
            init_point = barycenter(structure)
        except MemoryError:
            raise ValueError(_TOO_MANY.format(n)) from None
    else:
        _require(_is_number_list(init), "init: must be a list of numbers or \"barycenter\"")
        try:
            init_point = BlockPoint(np.asarray(init, dtype=float), structure)
        except (ValueError, OverflowError) as err:
            raise ValueError(f"init: {err}") from None

    cfg_data = data.get("config", {})
    _require(isinstance(cfg_data, dict), "config: must be an object")
    extra = set(cfg_data) - {f.name for f in fields(IterationConfig)}
    _require(not extra, f"config: unexpected field(s) {sorted(extra)!r}")
    try:
        config = IterationConfig(**cfg_data)
    except (ValueError, TypeError) as err:
        raise ValueError(f"config: {err}") from None

    return Problem(expression=expr, structure=structure, init=init_point, config=config)


def serialize_problem(problem: Problem) -> dict:
    """JSON form of a problem; parsing it back reproduces the problem
    structurally.  A :class:`MatrixPolynomial` (what a polynomial or graph
    source parses to) is written as ``{"polynomial": ...}`` over all
    ``structure.n`` variables, so a graph source comes back as its
    discriminant polynomial; any other objective as its expression tree."""
    e = problem.expression
    if type(e) is MatrixPolynomial:
        expression = {"polynomial": e.to_json_dict(problem.structure.n)}
    else:
        expression = expression_to_json_dict(e)
    return {
        "expression": expression,
        **problem.structure.to_json_dict(),
        "init": [float(v) for v in problem.init.x],
        "config": asdict(problem.config),
    }


def run_optimize(problem: Problem, out_dir: Path | None = None) -> tuple[Trace, dict]:
    """Iterate from the problem's init point; return the trace and summary,
    optionally writing ``trace.csv`` and ``summary.json``."""
    trace = iterate(problem.expression, problem.init, problem.config)
    s = problem.structure
    g = trace.gradient_final
    summary = {
        "status": trace.status,
        "iterations": trace.iterations,
        "W": float(trace.W_final),
        "terminal_point": [float(v) for v in trace.x_final.x],
        "residual": float(_support_residual(g, trace.x_final.x, s, s.sums(g))),
    }
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "trace.csv").write_text(trace.to_csv())
        (out_dir / "summary.json").write_text(_dumps(summary))
    return trace, summary


def run_verify(
    problem: Problem,
    samples: int = 100,
    seed: int = 0,
    include_concavity: bool = False,
    inject_negative: bool = False,
) -> dict:
    """Seeded randomized sweeps of every certificate; deterministic per seed.

    Checks the step inequality and the argmax property at ``samples`` random
    interior points, then runs the curvature probes.  ``inject_negative``
    additionally runs the convexity probe's sampling loop on the gradient of
    an indefinite function, which must fail - proving the pipeline detects
    violations.  ``samples`` must be at least 1 and ``seed`` a nonnegative
    integer.

    Each sweep runs in chunks of a fixed number of base points, so memory
    does not grow with ``samples``: 256 for the inequality sweep, and for
    the argmax sweep as many as keep the chunk's competitors within
    ``_SWEEP_VALUES`` coordinates.  A chunk draws its base points with one
    :func:`_dirichlet_rows` call and, for the argmax sweep, all its
    competitors with one more, and is scored by one worker call of
    :mod:`kneejerk.diagnostics`.
    """
    if samples < 1:
        raise ValueError(f"samples must be a positive integer, got {samples!r}")
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")
    rng = np.random.default_rng(seed)
    e = problem.expression
    s = problem.structure

    worst_margin = min_rhs = math.inf
    ineq_ok = True
    for rows in _chunks(samples, _SWEEP_ROWS):
        lhs, rhs = _step_sweep(e, s, _dirichlet_rows(s, rng, rows))
        margin = lhs - rhs
        worst_margin = min(worst_margin, float(margin.min()))
        min_rhs = min(min_rhs, float(rhs.min()))
        ineq_ok = ineq_ok and bool((margin >= -_MARGIN_TOL).all())
    ineq_ok = ineq_ok and min_rhs >= -1e-12

    argmax_margin = math.inf
    argmax_ok = True
    per_chunk = max(1, _SWEEP_VALUES // (_ARGMAX_COMPETITORS * s.n))
    for rows in _chunks(samples, per_chunk):
        base = _dirichlet_rows(s, rng, rows)
        competitors = _dirichlet_rows(s, rng, rows * _ARGMAX_COMPETITORS)
        margin, _ = _argmax_sweep(e, s, base, competitors.reshape(rows, _ARGMAX_COMPETITORS, s.n))
        argmax_margin = min(argmax_margin, float(margin.min()))
        argmax_ok = argmax_ok and bool((margin >= -_MARGIN_TOL).all())

    convexity = check_log_log_convexity(e, samples=samples, rng=rng)

    report = {
        "seed": seed,
        "samples": samples,
        "inequality": {
            "worst_margin": worst_margin,
            "min_rhs": min_rhs,
            "pass": ineq_ok,
        },
        "argmax": {
            "worst_margin": argmax_margin,
            "competitors": _ARGMAX_COMPETITORS,
            "pass": argmax_ok,
        },
        "log_log_convexity": convexity.to_json_dict(),
    }
    overall = ineq_ok and argmax_ok and convexity.passed

    if include_concavity:
        concavity = check_log_concavity(e, samples=samples, rng=rng)
        report["log_concavity"] = concavity.to_json_dict()
        overall = overall and concavity.passed

    if inject_negative:
        # W(u) = u0^2 + u1^2 - 3 u0 u1 is indefinite (Hessian eigenvalues -1
        # and 5), so the log-log convexity probe must reject its gradient.
        negative = _curvature_probe(
            lambda U: np.column_stack((2.0 * U[:, 0] - 3.0 * U[:, 1], 2.0 * U[:, 1] - 3.0 * U[:, 0])),
            2, samples, rng, upper=False,
        )
        report["negative_control"] = negative.to_json_dict()
        overall = overall and negative.passed

    report["pass"] = overall
    return report


def _chunks(total: int, size: int):
    """Row counts of ``total`` rows taken ``size`` at a time."""
    for lo in range(0, total, size):
        yield min(size, total - lo)


def _compositions(r: np.ndarray, total: int, tables, out: np.ndarray) -> None:
    """Write into each row of ``out`` the composition of ``total`` into
    ``out.shape[1]`` parts whose rank in lexicographic order is that row's
    entry of ``r``.

    ``tables[m][s]`` counts the compositions of ``s`` into ``m`` parts, for
    ``m`` of 3 up to the width of ``out``.  With ``t`` left over ``m`` parts,
    a leading part ``h`` is preceded by the ``tables[m][t] - tables[m][t - h]``
    compositions with a smaller one; the last two parts split in closed form.
    """
    t = total
    width = out.shape[1]
    for j in range(width - 2):
        table = tables[width - j]
        s = np.searchsorted(table, table[t] - r)
        r = r - (table[t] - table[s])
        out[:, j] = t - s
        t = s
    if width > 1:
        out[:, -2] = r
    out[:, -1] = t - r


def _grid_batches(structure: BlockStructure, resolution: int):
    """The oracle grid as int64 count arrays of shape ``(rows, n)``, in
    lexicographic order (within each block, blocks in order), every array
    ``_ORACLE_BATCH`` rows but the last.

    Each batch is computed from its ranks: a rank splits by ``divmod`` into
    one index per block, the first block varying slowest, and each index
    maps to its composition by ``_compositions``.  Memory is one batch plus
    the count tables, which are built only for blocks of 3 or more
    coordinates; their entries stay at or below the grid size, so under the
    guard the int64 arithmetic is exact."""
    blocks = structure.blocks
    sizes = _grid_sizes(blocks, resolution)
    tables = {}
    if max(blocks) > 2:
        tables[3] = np.cumsum(np.arange(1, resolution + 2, dtype=np.int64))
        for m in range(4, max(blocks) + 1):
            tables[m] = np.cumsum(tables[m - 1])
    size = math.prod(sizes)
    for lo in range(0, size, _ORACLE_BATCH):
        rank = np.arange(lo, min(lo + _ORACLE_BATCH, size), dtype=np.int64)
        counts = np.empty((len(rank), structure.n), np.int64)
        for sl, block_size in zip(structure.slices[::-1], sizes[::-1]):
            rank, r = np.divmod(rank, block_size)
            _compositions(r, resolution, tables, counts[:, sl])
        yield counts


def _grid_sizes(blocks, resolution: int) -> list[int]:
    """Points of each block's grid: compositions of ``resolution`` into ``b`` parts."""
    return [math.comb(resolution + b - 1, b - 1) for b in blocks]


def _grid_size(structure: BlockStructure, resolution: int) -> int:
    return math.prod(_grid_sizes(structure.blocks, resolution))


def _lipschitz_estimate(g: np.ndarray, x: np.ndarray) -> float:
    """sum of |d log Z / d x_j| over the support, a local slope scale, from
    the gradient weights ``g`` at ``x``."""
    pos = x > 0.0
    return float(np.sum(g[pos] / x[pos]))


def _split_cut(blocks, resolution: int, terms: int) -> int | None:
    """The coordinate that starts the suffix half-grid of a split grid, or
    None when no split pays.

    A cut after the first ``m`` coordinates of block ``j`` (``m`` is 0 at a
    block boundary) gives a prefix half-grid of the blocks before ``j``
    times every way to fill those ``m`` coordinates with a sum of at most
    the resolution, and a suffix half-grid of the rest of block ``j``, filled
    likewise, times the blocks after it (:func:`_screened_best`).  The cut
    is the one whose larger half-grid is smallest, the first such on a tie.
    It is taken when each half has at most ``1 / _SPLIT_SHARE`` of the grid's
    points and the suffix's table of ``terms`` values per point fits
    ``_SPLIT_TERMS``.  So a block of 2 or 3 coordinates alone is never cut:
    one of its halves is as large as the grid."""
    sizes = _grid_sizes(blocks, resolution)
    grid = math.prod(sizes)
    cuts = []
    start = 0
    for j, b in enumerate(blocks):
        head, tail = math.prod(sizes[:j]), math.prod(sizes[j + 1 :])
        for m in range(j == 0, b):
            prefix = head * math.comb(resolution + m, m)
            suffix = tail * (math.comb(resolution + b - m, b - m) if m else sizes[j])
            cuts.append((max(prefix, suffix), start + m, suffix))
        start += b
    if not cuts:
        return None
    larger, p, suffix = min(cuts)
    if _SPLIT_SHARE * larger > grid or terms * suffix > _SPLIT_TERMS:
        return None
    return p


def _screened_best(expr, s, resolution, p, inv, floor):
    """The first best grid point and its ``W`` (``-inf`` and None when the
    screen rules out every point), for an objective in the matrix form, on a
    grid cut before coordinate ``p``.

    The cut falls after the first ``m`` coordinates of block ``j`` (``m`` is
    0 at a block boundary).  A prefix point (the blocks before ``j`` and
    those ``m`` coordinates) fixes their partial sum ``k``, and it pairs
    with exactly the suffix points (the rest of block ``j`` and the blocks
    after it) whose part of block ``j`` sums to ``resolution - k``.  So the
    grid is the union over ``k`` of the products ``A_k x B_k`` of the
    half-grids' groups; at a block boundary ``k`` is always 0 and the grid
    is ``A x B``.  Each half is enumerated as a grid with one more
    coordinate in block ``j``, a slack that makes up its sum.

    Each term splits as ``z = zA(a) + zB(b)``, with ``log c`` in ``zB``, so
    ``_term_table`` of each half gives its maxima ``mA``, ``mB`` and tables
    ``PA``, ``PB``, and one matrix product per group screens its points: ``W
    ~ mA + mB + log (PA^T PB)``.  Terms equal on a half's columns (and, in
    the suffix, in ``log c``) are exponentiated once: on K5's cut, 26 and 24
    distinct rows stand for 125 terms.  The suffix's table is built once,
    sorted by ``k``; the prefix's in chunks of at most ``_SPLIT_TERMS``
    values, each sorted by ``k``, and a tile holds at most ``_ORACLE_BATCH``
    points or one prefix row.

    The screen only selects points: the row kernel ``_eval_log_values``
    re-scores them, so the result is the row path's.  A screened sum of at
    least ``_SCREEN_TINY`` lost nothing but rounding to underflow, and its
    ``W`` lies within a window ``delta`` of the row kernel's that grows
    with the term bound ``B`` (the rounding of each term value), ``|W|``
    and the term count (:func:`_screen_tile`).  Such a point is re-scored
    when its screen is within ``delta`` of the best screen so far, or of
    ``floor``, the barycenter's ``W``: a grid point below that loses to the
    barycenter.  A point whose sum fell below ``_SCREEN_TINY`` is re-scored
    when its bound ``mA + mB + log T`` (``T`` terms) reaches that and some
    term is live in both halves; with none, the point is dead (``W = log
    0``).  So no point that can tie or beat the best is missed.  Each tile's
    candidates are re-scored in one batch; the row kernel gives a point the
    same value in any batch, alone or not.  Tiles are not visited in grid
    order, so a tie goes to the lexicographically first count row, which is
    the first in grid order."""
    form = expr._form
    E, log_c, bound, S = form.E, form.log_c, form.B, form.S
    T, n = E.shape
    j = int(s.index[p])
    m = p - int(s.starts[j])

    def table(E_h, log_c_h, inv_h):
        """The maxima and table of a half-grid's count rows, as a function
        of the rows.  ``E_h`` holds the half's columns of ``E``: none past
        the last variable used.  Terms that agree on these columns and on
        ``log_c_h`` share one row of work, copied to each."""
        key = np.column_stack((E_h, log_c_h))
        # One void item per row: unique finds equal bytes faster than rows.
        items = key.view((np.void, key.itemsize * key.shape[1])).ravel()
        _, first, cls = np.unique(items, return_index=True, return_inverse=True)
        E_u, log_c_u, used = key[first, :-1], key[first, -1], key.shape[1] - 1

        def of(counts):
            m_h, P = _term_table(E_u, log_c_u, bound, S, counts[:, :used] * inv_h[:used])
            return m_h, P[cls]

        return of

    def live(E_h, counts):
        """1 where a term has no zero coordinate among a half-grid's count
        rows (terms x rows), exact as float32 counts."""
        c = counts[:, : E_h.shape[1]]
        zeros = (E_h > 0.0).astype(np.float32) @ (c == 0).T.astype(np.float32)
        return (zeros == 0.0).astype(np.float32)

    # The suffix: block j's slack, k, leads, so its rows come sorted by k.
    # At a block boundary it has no slack, and k is 0.
    blocks_B = ((s.blocks[j] - m + 1,) if m else (s.blocks[j],)) + s.blocks[j + 1 :]
    grid_B = np.concatenate(list(_grid_batches(BlockStructure(blocks_B), resolution)))
    k_B, counts_B = (grid_B[:, 0], grid_B[:, 1:]) if m else (np.zeros(len(grid_B), np.int64), grid_B)
    group_B = np.searchsorted(k_B, np.arange(resolution + 2))
    m_B, P_B = table(E[:, p:], log_c, inv[p:])(counts_B)
    table_A = table(E[:, :p], np.zeros(T), inv[:p])
    rows = max(1, _SPLIT_TERMS // T)  # a prefix chunk's table fits where the suffix's does

    spread = (n + 2) * bound + T + 2048
    top = floor
    best_W = -math.inf
    best_counts = best_point = None
    # The prefix: block j's slack, resolution - k, comes last.
    for grid_A in _grid_batches(BlockStructure(s.blocks[:j] + (m + 1,)), resolution):
        for i in range(0, len(grid_A), rows):
            chunk = grid_A[i : i + rows]
            chunk = chunk[np.argsort(-chunk[:, p], kind="stable")]  # by k, then grid order
            k_A, counts_A = resolution - chunk[:, p], chunk[:, :p]
            m_A, P_A = table_A(counts_A)
            ks, starts = np.unique(k_A, return_index=True)
            for k, lo, hi in zip(ks.tolist(), starts.tolist(), starts[1:].tolist() + [len(k_A)]):
                B = slice(group_B[k], group_B[k + 1])
                step = max(1, _ORACLE_BATCH // (B.stop - B.start))
                for r in range(lo, hi, step):
                    A = slice(r, min(r + step, hi))
                    a, b, tiny, top = _screen_tile(m_A[A], P_A[:, A], m_B[B], P_B[:, B], top, spread, T)
                    if tiny.any():
                        # A point with no term live in both halves is dead.
                        shared = live(E[:, :p], counts_A[A]).T @ live(E[:, p:], counts_B[B])
                        keep = ~tiny
                        keep[tiny] = shared[a[tiny], b[tiny]] > 0.0
                        a, b = a[keep], b[keep]
                    if not len(a):
                        continue
                    C = np.hstack((counts_A[A][a], counts_B[B][b]))
                    W_x = _eval_log_values(expr, C * inv)
                    i_best = int(np.argmax(W_x))  # the first in grid order within the tile
                    W_i, C_i = float(W_x[i_best]), C[i_best].tolist()
                    if W_i > best_W or (W_i == best_W > -math.inf and C_i < best_counts):
                        best_W, best_counts = W_i, C_i
                        best_point = C[i_best] * inv
    return best_W, best_point


def _screen_tile(m_A, P_A, m_B, P_B, top, spread, T):
    """The points of one tile to re-score, as prefix and suffix indices in
    grid order, and the best screen so far (see :func:`_screened_best`).

    ``top`` is the best screen before this tile (or the floor), and the
    window is ``delta = 2^-46 (spread + |top|)`` with ``spread = (n + 2) B +
    T + 2048`` for ``n`` variables and ``T`` terms.  A screened ``W`` and
    the row kernel's differ by the rounding of each term value (about ``n
    B`` units of ``2^-53`` on each side), of the shifts by the maxima and of
    the sums: under ``D = 2^-53 ((2n + 6) B + 2 |W| + 2 T + 3100)``.  A
    window of ``2 D`` would do, and ``delta`` is over twenty times that."""
    W = P_A.T @ P_B  # the screened sums
    low = W < _SCREEN_TINY
    with np.errstate(divide="ignore"):
        np.log(W, out=W)
    W += m_A[:, None]
    W += m_B
    W[low] = -math.inf  # judged by its bound instead
    top = max(top, float(W.max()))
    thr = top - 2.0**-46 * (spread + abs(top))
    hit = W >= thr
    a, b = np.nonzero(low)
    keep = m_A[a] + m_B[b] + math.log(T) >= thr
    hit[a[keep], b[keep]] = True
    a, b = np.divmod(np.flatnonzero(hit), W.shape[1])
    return a, b, low[a, b], top


def run_oracle(problem: Problem, resolution: int) -> OracleResult:
    """Exhaustively score the uniform grid of the given resolution (plus the
    exact barycenter) and compare against the iteration's terminal value.

    A grid under a sum of monomials that :func:`_split_cut` can cut at a
    coordinate, at a block boundary or inside a block, is screened as two
    half-grids paired by their partial sums, with one matrix product per
    group, and only the points the screen cannot rule out are scored by the
    row kernel (:func:`_screened_best`): the best point and ``W`` are those
    of scoring every point.  Any other grid is scored row by row."""
    if isinstance(resolution, bool) or not isinstance(resolution, int) or resolution < 1:
        raise ValueError(f"resolution must be a positive integer, got {resolution!r}")
    s = problem.structure
    size = _grid_size(s, resolution)
    if size > _ORACLE_POINT_GUARD:
        raise ValueError(
            f"grid has {size} points, over the {_ORACLE_POINT_GUARD} guard; "
            "lower the resolution"
        )

    e = problem.expression
    inv = 1.0 / (resolution * s.weights)  # count -> coordinate scaling
    # The exact barycenter need not lie on the grid (resolution not divisible
    # by a block size); include it so the oracle never scores below it.
    bc = barycenter(s).x
    Wbc = float(_eval_log_values(e, bc[None, :])[0])
    form = e._form
    p = _split_cut(s.blocks, resolution, len(form.E)) if isinstance(form, _MatrixForm) else None
    if p is not None:
        best_W, best_point = _screened_best(e, s, resolution, p, inv, Wbc)
    else:
        best_W = -math.inf
        best_point = None
        for counts in _grid_batches(s, resolution):
            X = counts * inv
            W = _eval_log_values(e, X)
            i = int(np.argmax(W))
            if W[i] > best_W:  # the first best grid point wins a tie
                best_W = float(W[i])
                best_point = X[i].copy()
    if Wbc > best_W:
        best_W = Wbc
        best_point = bc.copy()

    trace = iterate(problem.expression, problem.init, problem.config)
    terminal_W = float(trace.W_final)

    h = float(np.max(inv))
    lip = max(
        _lipschitz_estimate(_eval_log_raw(problem.expression, best_point)[1], best_point),
        _lipschitz_estimate(trace.gradient_final, trace.x_final.x),
    )
    return OracleResult(
        best_point=best_point,
        best_W=best_W,
        resolution=resolution,
        gap=terminal_W - best_W,
        error_bound=lip * h + 1e-12,
    )


# ---------------------------------------------------------------------------
# command-line front end


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _load_problem(path: str) -> Problem:
    return parse_problem(Path(path).read_text())


def _emit(text: str, out: str | None, name: str) -> None:
    """Print ``text`` and, given an ``--out`` directory, also write it there
    as ``name``."""
    sys.stdout.write(text)
    if out:
        Path(out).mkdir(parents=True, exist_ok=True)
        (Path(out) / name).write_text(text)


def _cmd_optimize(args) -> int:
    problem = _load_problem(args.problem)
    flags = {k: getattr(args, k) for k in ("max_iters", "tol_div", "tol_w")}
    overrides = {k: v for k, v in flags.items() if v is not None}
    if overrides:
        problem.config = replace(problem.config, **overrides)
    _, summary = run_optimize(problem, Path(args.out) if args.out else None)
    sys.stdout.write(_dumps(summary))
    if summary["status"] == "degenerate":
        sys.stderr.write(
            "degenerate: a block had zero gradient mass; its renormalized point "
            "is reported as terminal\n"
        )
        return 3
    if summary["status"] == "max-iterations":
        sys.stderr.write("did not converge within the iteration cap\n")
        return 1
    return 0


def _cmd_verify(args) -> int:
    problem = _load_problem(args.problem)
    report = run_verify(
        problem,
        samples=args.samples,
        seed=args.seed,
        include_concavity=args.concavity,
        inject_negative=args.inject_negative,
    )
    _emit(_dumps(report), args.out, "verify.json")
    if not report["pass"]:
        failed = [k for k, v in report.items() if isinstance(v, dict) and not v["pass"]]
        sys.stderr.write(f"verification FAILED: {', '.join(failed)}\n")
        return 1
    return 0


def _cmd_discriminant(args) -> int:
    try:
        data = json.loads(Path(args.graph).read_text())
    except RecursionError:
        raise ValueError("graph: nested too deeply to parse") from None
    graph = Graph.from_json_dict(data)
    poly = discriminant_polynomial(graph)
    _emit(_dumps(poly.to_json_dict(graph.n_vars)), args.out, "discriminant.json")
    return 0


def _cmd_oracle(args) -> int:
    problem = _load_problem(args.problem)
    result = run_oracle(problem, args.resolution)
    _emit(_dumps(result.to_json_dict()), args.out, "oracle.json")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kneejerk",
        description="Monotone multiplicative ascent on products of weighted simplices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    opt = sub.add_parser("optimize", help="iterate the update from the problem's init point")
    opt.add_argument("--problem", required=True, help="problem JSON file")
    opt.add_argument("--out", help="directory for trace.csv and summary.json")
    opt.add_argument("--max-iters", type=int, default=None, help="override the iteration cap")
    opt.add_argument("--tol-div", type=float, default=None, help="override the step-divergence tolerance")
    opt.add_argument("--tol-w", type=float, default=None, help="override the improvement tolerance")
    opt.set_defaults(func=_cmd_optimize)

    ver = sub.add_parser("verify", help="randomized certificate sweeps (deterministic per seed)")
    ver.add_argument("--problem", required=True, help="problem JSON file")
    ver.add_argument("--out", help="directory for verify.json")
    ver.add_argument("--samples", type=int, default=100, help="random points per probe")
    ver.add_argument("--seed", type=int, default=0, help="RNG seed (part of the report)")
    ver.add_argument("--concavity", action="store_true", help="also probe log-concavity in x")
    ver.add_argument(
        "--inject-negative",
        action="store_true",
        help="also run the convexity probe on a known-bad fixture; the run then fails loudly",
    )
    ver.set_defaults(func=_cmd_verify)

    dis = sub.add_parser("discriminant", help="spanning-tree polynomial of a graph file")
    dis.add_argument("--graph", required=True, help='graph JSON file: {"vertices": V, "edges": [[u, v], ...]}')
    dis.add_argument("--out", help="directory for discriminant.json")
    dis.set_defaults(func=_cmd_discriminant)

    orc = sub.add_parser("oracle", help="exhaustive grid search vs the iteration's terminal value")
    orc.add_argument("--problem", required=True, help="problem JSON file")
    orc.add_argument("--resolution", type=int, required=True, help="grid subdivisions per block")
    orc.add_argument("--out", help="directory for oracle.json")
    orc.set_defaults(func=_cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as err:
        sys.stderr.write(f"error: {err}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
