"""Products of weighted simplices: block structures, feasible points,
normalization, and the I-divergence.

A ``BlockStructure`` splits ``n`` coordinates into contiguous blocks and
attaches a positive weight to every coordinate.  Feasibility means each block
satisfies ``sum_j a_j x_j = 1`` with nonnegative coordinates; the plain
probability simplex is the single-block, unit-weight case.

Every per-block quantity is one reduction over a vector or its ``(R, n)``
rows.  A structure carries ``index``, the block of each coordinate, and
``starts``, the first coordinate of each block, and keeps the constants a step
reads, ``k``, ``single`` and ``unit``, from their first use;
``BlockStructure.sums`` adds up block by block with ``np.bincount`` (rows by
the index ``row * k + block``) in coordinate order, so a row sums as it does
alone, and a block of fewer than 8 coordinates as ``np.sum`` does (longer ones
may differ in the last place).  numpy adds fewer than ``_FEW = 8`` floats in
order too, so a step adds up one point's few block values as Python floats in
that order, bit for bit as numpy would.  A step reads a minimum
as ``_least(v)``: the value of ``v.min()``, NaN too, at a third of the cost;
the feasibility check returns ``w * x`` (``x`` itself under unit weights,
where the product is exact) and ``_least(x)``, kept by each point the update
makes.  ``_compositions`` unranks simplex grid points in lexicographic order,
for the oracle's grid and spanning-tree subsets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate

import numpy as np

__all__ = [
    "BlockStructure",
    "BlockPoint",
    "barycenter",
    "normalize",
    "i_divergence",
    "i_divergence_blocks",
    "random_interior",
]

# |sum(a*x) - 1| accepted by operations that take already-normalized input.
_SUM_TOL = 1e-9
# Tighter tolerance enforced on constructed BlockPoints.
_POINT_TOL = 1e-12
# numpy adds fewer than this many floats in order, and more pairwise.
_FEW = 8


@dataclass(eq=False)
class BlockStructure:
    """Block sizes plus per-coordinate positive weights (default all ones).

    ``index[j]`` is the block of coordinate ``j`` and ``starts[i]`` the first
    coordinate of block ``i``.  ``k`` (the block count), ``single[j]`` (is
    coordinate ``j`` alone in its block?) and ``unit`` (is every weight 1?)
    are computed on first use and kept.
    """

    blocks: tuple[int, ...]
    weights: np.ndarray | None = None
    slices: tuple[slice, ...] = field(init=False, repr=False)
    index: np.ndarray = field(init=False, repr=False)
    starts: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.blocks = tuple(self.blocks)
        if not self.blocks:
            raise ValueError("block structure requires at least one block")
        for b in self.blocks:
            if isinstance(b, bool) or not isinstance(b, int) or b < 1:
                raise ValueError(f"block sizes must be positive integers, got {b!r}")
        ends = list(accumulate(self.blocks))
        n = ends[-1]
        if self.weights is None:
            self.weights = np.ones(n)
        else:
            w = np.asarray(self.weights, dtype=float)
            if w.shape != (n,):
                raise ValueError(f"weights must have length {n}, got shape {w.shape}")
            if not (0.0 < w.min() and w.max() < math.inf):  # a NaN fails both
                raise ValueError("weights must be finite and strictly positive")
            self.weights = w
        # A few Python ints add up faster than numpy's cumsum.
        starts = [e - b for e, b in zip(ends, self.blocks)]
        self.starts = np.array(starts)
        self.index = np.repeat(np.arange(len(ends)), self.blocks)
        self.slices = tuple(map(slice, starts, ends))

    @property
    def n(self) -> int:
        return sum(self.blocks)

    @cached_property
    def k(self) -> int:
        return len(self.blocks)

    @cached_property
    def single(self) -> np.ndarray:
        return (np.array(self.blocks) == 1)[self.index]

    @cached_property
    def unit(self) -> bool:
        return bool((self.weights == 1.0).all())

    def sums(self, v: np.ndarray) -> np.ndarray:
        """Per-block sums of a length-``n`` vector or of each row, in coordinate order."""
        if v.ndim == 1:
            return np.bincount(self.index, v, self.k)
        index = (np.arange(len(v))[:, None] * self.k + self.index).ravel()
        return np.bincount(index, v.ravel(), len(v) * self.k).reshape(-1, self.k)

    def __eq__(self, other):
        if not isinstance(other, BlockStructure):
            return NotImplemented
        return self.blocks == other.blocks and np.array_equal(self.weights, other.weights)

    def to_json_dict(self) -> dict:
        out = {"blocks": list(self.blocks)}
        if not self.unit:
            out["weights"] = [float(w) for w in self.weights]
        return out


@dataclass(eq=False)
class BlockPoint:
    """A feasible point: nonnegative, each block weighted-summing to 1.

    Coordinates are stored block-major as one flat vector.  ``_facts()`` is
    what the check of ``x`` returned, kept read-only by the update that made
    the point, or None: always once ``x`` or ``structure`` is replaced.
    """

    x: np.ndarray
    structure: BlockStructure

    def _facts(self):
        c = self.__dict__.get("_checked")  # (x, structure, facts), set by the update
        return c[2] if c and c[0] is self.x and c[1] is self.structure else None

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        s = self.structure
        if x.shape != (s.n,):
            raise ValueError(f"point must have length {s.n}, got shape {x.shape}")
        _check_feasible(x, s)
        self.x = x

    @property
    def interior(self) -> bool:
        return bool(np.all(self.x > 0.0))


def _least(v: np.ndarray):
    v = v.ravel()
    return v[v.argmin()]


def _weighted(x: np.ndarray, structure: BlockStructure) -> np.ndarray:
    """``a * x``: ``x`` itself under unit weights, where the product is exact."""
    return x if structure.unit else structure.weights * x


def _check_feasible(x: np.ndarray, structure: BlockStructure):
    """Raise unless ``x``, one point or ``(R, n)`` rows, is feasible within ``_POINT_TOL``
    (the first bad row raises its own error); else return ``w * x`` (see
    :func:`_weighted`) and ``_least(x)``.  One point of fewer than ``_FEW``
    blocks is tested on its block totals as Python floats."""
    totals = structure.sums(wx := _weighted(x, structure))
    if x.ndim == 1 and structure.k < _FEW:
        off = [abs(t - 1.0) > _POINT_TOL for t in totals.tolist()]
    else:
        off = (np.abs(totals - 1.0) > _POINT_TOL).ravel().tolist()
    # One pass on good rows: a NaN total needs a NaN x, an inf x makes it inf.
    if (least := _least(x)) >= 0.0 and True not in off:
        return wx, least
    for x, totals in zip(*map(np.atleast_2d, (x, totals))):
        dev = np.abs(totals - 1.0)
        if not np.isfinite(x).all():
            raise ValueError("point coordinates must be finite")
        if (x < 0.0).any():
            i = int(np.where(x < 0.0)[0][0])
            raise ValueError(f"point coordinates must be nonnegative; x[{i}] = {x[i]}")
        if (dev > _POINT_TOL).any():
            i = int(np.argmax(dev > _POINT_TOL))
            raise ValueError(
                f"block {i} weighted sum is {float(totals[i])!r}, violates normalization "
                f"beyond {_POINT_TOL}"
            )


def barycenter(structure: BlockStructure) -> BlockPoint:
    """Center of the feasible set: ``x_j = 1 / (block_size * a_j)``; the
    point check refuses an ``inf`` or 0 that leaves the float range."""
    sizes = np.array(structure.blocks)
    with np.errstate(over="ignore"):
        x = 1.0 / (sizes[structure.index] * structure.weights)
    return BlockPoint(x, structure)


def normalize(raw, structure: BlockStructure) -> BlockPoint:
    """Scale each block of a nonnegative raw vector onto its weighted simplex.

    Raises if any coordinate is negative or a whole block sums to zero.
    Idempotent on already-feasible points up to one rounding.
    """
    raw = np.asarray(raw, dtype=float)
    if raw.shape != (structure.n,):
        raise ValueError(f"raw vector must have length {structure.n}, got shape {raw.shape}")
    if not np.all(np.isfinite(raw)):
        raise ValueError("raw coordinates must be finite")
    if np.any(raw < 0.0):
        i = int(np.where(raw < 0.0)[0][0])
        raise ValueError(f"cannot normalize negative coordinates; raw[{i}] = {raw[i]}")
    totals = structure.sums(structure.weights * raw)
    empty = totals <= 0.0
    if empty.any():
        raise ValueError(f"block {int(np.argmax(empty))} sums to zero, cannot normalize")
    return BlockPoint(raw / totals[structure.index], structure)


def _divergences(y, x, structure: BlockStructure, wy, x_positive) -> np.ndarray:
    """Per-block ``sum_j a_j y_j log(y_j / x_j)`` of two feasible vectors or
    rows, given ``wy = a * y`` and ``x_positive = _least(x) > 0``.  A term
    whose weighted mass ``a_j y_j`` is 0 counts as 0 (so ``0 log 0 = 0``,
    also where ``a_j y_j`` underflows), and ``y`` putting mass where ``x``
    has none makes that block's divergence ``+inf``.

    A term with ``a_j y_j = 0`` takes the ratio ``(y_j + 1) / (x_j + 1)``,
    positive and finite, so it adds ``0 * log(...) = 0`` with no mask and no
    error state.  Only a positive ``a_j y_j`` over ``x_j = 0`` (``+inf``) or
    a ratio that underflows to 0 takes the masked quotient; there the log of
    a zero ratio is taken as ``log y_j - log x_j``, finite for positive
    ``y_j`` and ``x_j``."""
    if x_positive and _least(ratio := y / x) > 0.0:  # no zero y_j, no underflow
        return structure.sums(wy * np.log(ratio))
    dead = wy == 0.0
    if _least(den := x + dead) > 0.0 and _least(ratio := (y + dead) / den) > 0.0:
        return structure.sums(wy * np.log(ratio))
    with np.errstate(divide="ignore"):
        ratio = np.divide(y, x, out=np.ones(y.shape), where=~dead)
        logs = np.log(ratio)
    under = ratio == 0.0  # live, so y_j > 0, and x_j > 0: only the quotient underflowed
    logs[under] = np.log(y[under]) - np.log(x[under])
    return structure.sums(wy * logs)


def _unwrap_points(y, x, structure):
    """Accept BlockPoint or raw-array arguments interchangeably."""
    for p in (y, x):
        if isinstance(p, BlockPoint):
            if structure is None:
                structure = p.structure
            elif structure != p.structure:
                raise ValueError("arguments carry different block structures")
    if isinstance(y, BlockPoint):
        y = y.x
    if isinstance(x, BlockPoint):
        x = x.x
    return y, x, structure


def i_divergence_blocks(y, x, structure: BlockStructure | None = None) -> np.ndarray:
    """Per-block I-divergence of the weight-rescaled block vectors.

    Block ``i`` contributes ``sum_j (a_j y_j) log((a_j y_j)/(a_j x_j))``,
    which simplifies to ``sum_j a_j y_j log(y_j / x_j)``.  Both arguments must
    already be feasible for ``structure`` (within a loose tolerance); ``y``
    may touch the boundary.  Arguments may be ``BlockPoint`` instances, in
    which case the structure is taken from them.
    """
    y, x, structure = _unwrap_points(y, x, structure)
    if structure is None:
        raise ValueError("a block structure is required when passing raw arrays")
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    n = structure.n
    if y.shape != (n,) or x.shape != (n,):
        raise ValueError(
            f"arguments must match the structure length {n}, got shapes {y.shape} and {x.shape}"
        )
    if np.any(y < 0.0) or not np.all(np.isfinite(y)):
        raise ValueError("first argument must be finite and nonnegative")
    if np.any(x < 0.0) or not np.all(np.isfinite(x)):
        raise ValueError("second argument must be finite and nonnegative")
    sy = structure.sums(wy := structure.weights * y)
    sx = structure.sums(structure.weights * x)
    bad = (np.abs(sy - 1.0) > _SUM_TOL) | (np.abs(sx - 1.0) > _SUM_TOL)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(
            f"block {i} is not normalized (weighted sums {float(sy[i])!r} and "
            f"{float(sx[i])!r}); divergence is only defined on the weighted simplex"
        )
    return _divergences(y, x, structure, wy, _least(x) > 0.0)


def i_divergence(y, x, structure: BlockStructure | None = None) -> float:
    """Total I-divergence ``sum_j y_j log(y_j / x_j)`` (weighted, per block).

    Arguments may be ``BlockPoint`` instances (structures must agree) or raw
    arrays; raw arrays without a structure are treated as plain probability
    vectors.  Returns ``inf`` when ``y`` puts mass where ``x`` has none.
    Mathematically nonnegative on normalized inputs; floating-point round-off
    can produce values a few ulp below zero, which callers should tolerate
    rather than clamp.
    """
    y, x, structure = _unwrap_points(y, x, structure)
    y = np.asarray(y, dtype=float)
    if structure is None:
        structure = BlockStructure((int(y.size),))
    return float(np.sum(i_divergence_blocks(y, x, structure)))


def _compositions(r: np.ndarray, total: int, out: np.ndarray) -> None:
    """Write into each row of ``out`` the composition of ``total`` into
    ``out.shape[1]`` parts whose rank in lexicographic order is that row's
    entry of ``r``: the simplex grid point ``out / total`` of that rank.

    With ``t`` left over ``m`` parts, a leading part ``h`` is preceded by the
    ``C_m(t) - C_m(t - h)`` compositions with a smaller one, where ``C_m(s)``
    counts the compositions of ``s`` into ``m`` parts.  The count tables are
    built for 3 parts up to the width, so none for a width of 2, whose
    ``total`` may be large; the last two parts split in closed form."""
    tables = []  # tables[i][s] = C_(i + 3)(s)
    for _ in range(out.shape[1] - 2):
        tables.append(np.cumsum(tables[-1] if tables else np.arange(1, total + 2, dtype=np.int64)))
    t = total
    for j, table in enumerate(reversed(tables)):
        s = np.searchsorted(table, table[t] - r)
        r = r - (table[t] - table[s])
        out[:, j] = t - s
        t = s
    if out.shape[1] > 1:
        out[:, -2] = r
    out[:, -1] = t - r


def _exponential_draws(structure: BlockStructure, rng: np.random.Generator, rows: int) -> list:
    """Per block, in block order, a ``(rows, block size)`` array of standard
    exponentials: the raw draws behind :func:`_dirichlet_rows`."""
    return [rng.standard_exponential((rows, b)) for b in structure.blocks]


def _row_sums(p: np.ndarray) -> np.ndarray:
    """The in-order row sums ``((p0 + p1) + p2) + ...`` of a 2-D array."""
    return sum(p.T[1:], p[:, 0])


def _dirichlet_points(structure: BlockStructure, draws: list) -> np.ndarray:
    """The interior feasible points of per-block exponential draws (as from
    :func:`_exponential_draws`): numpy's Dirichlet(1, ..., 1) bit for bit,
    each block's exponentials over their in-order row sum, then rescaled by
    the weights.  The draws are left as they are."""
    out = np.empty((len(draws[0]), structure.n))
    for p, sl in zip(draws, structure.slices):
        p = p * (1.0 / _row_sums(p))[:, None]
        # Guard against exact zeros from gamma underflow in extreme draws.  No
        # renormalization: a row sums to 1 within a few ulps, far inside _POINT_TOL.
        np.clip(p, 1e-300, None, out=p)
        np.divide(p, structure.weights[sl], out=out[:, sl])
    return out


def _dirichlet_rows(structure: BlockStructure, rng: np.random.Generator, rows: int) -> np.ndarray:
    """``rows`` interior feasible points, uniform (Dirichlet) per block and
    rescaled by the weights.  Each block is drawn for all rows at once, in
    block order."""
    return _dirichlet_points(structure, _exponential_draws(structure, rng, rows))


def random_interior(structure: BlockStructure, rng: np.random.Generator) -> BlockPoint:
    """Draw an interior feasible point, Dirichlet per block, rescaled by the
    weights so each block's weighted sum is exactly one."""
    return BlockPoint(_dirichlet_rows(structure, rng, 1)[0], structure)
