"""Products of weighted simplices: block structures, feasible points,
normalization, and the I-divergence.

A ``BlockStructure`` splits ``n`` coordinates into contiguous blocks and
attaches a positive weight to every coordinate.  Feasibility means each block
satisfies ``sum_j a_j x_j = 1`` with nonnegative coordinates; the plain
probability simplex is the single-block, unit-weight case.

Every per-block quantity is one reduction over a vector or its ``(R, n)``
rows.  A structure carries ``index``, the block of each coordinate, and
``starts``, the first coordinate of each block, and keeps the constants a step
reads, ``k`` and ``single``, from their first use; ``BlockStructure.sums`` adds
up block by block with ``np.bincount`` (rows by the index ``row * k + block``)
in coordinate order, so a row sums as it does alone, and a block of fewer than
8 coordinates as ``np.sum`` does (longer ones may differ in the last place).
A step reads a minimum as ``_least(v)``: the value of ``v.min()``, NaN too,
at a third of the cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

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


@dataclass(eq=False)
class BlockStructure:
    """Block sizes plus per-coordinate positive weights (default all ones).

    ``index[j]`` is the block of coordinate ``j`` and ``starts[i]`` the first
    coordinate of block ``i``.  ``k`` (the block count) and ``single[j]`` (is
    coordinate ``j`` alone in its block?) are computed on first use and kept.
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
        n = sum(self.blocks)
        if self.weights is None:
            self.weights = np.ones(n)
        else:
            w = np.asarray(self.weights, dtype=float)
            if w.shape != (n,):
                raise ValueError(f"weights must have length {n}, got shape {w.shape}")
            if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
                raise ValueError("weights must be finite and strictly positive")
            self.weights = w
        sizes = np.array(self.blocks)
        ends = np.cumsum(sizes)
        self.starts = ends - sizes
        self.index = np.repeat(np.arange(len(sizes)), sizes)
        self.slices = tuple(map(slice, self.starts.tolist(), ends.tolist()))

    @property
    def n(self) -> int:
        return sum(self.blocks)

    @cached_property
    def k(self) -> int:
        return len(self.blocks)

    @cached_property
    def single(self) -> np.ndarray:
        return (np.array(self.blocks) == 1)[self.index]

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
        if not np.all(self.weights == 1.0):
            out["weights"] = [float(w) for w in self.weights]
        return out


@dataclass(eq=False)
class BlockPoint:
    """A feasible point: nonnegative, each block weighted-summing to 1.

    Coordinates are stored block-major as one flat vector.
    """

    x: np.ndarray
    structure: BlockStructure

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


def _check_feasible(x: np.ndarray, structure: BlockStructure) -> None:
    """Raise unless ``x``, one point or ``(R, n)`` rows, is feasible within
    ``_POINT_TOL``; the first bad row raises the error it raises alone."""
    totals = structure.sums(structure.weights * x)
    dev = np.abs(totals - 1.0)
    # One pass on good rows: a NaN total needs a NaN x, an inf x makes it inf.
    if _least(x) >= 0.0 and True not in (dev > _POINT_TOL).ravel().tolist():
        return
    for x, totals, dev in zip(*map(np.atleast_2d, (x, totals, dev))):
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
    """Center of the feasible set: ``x_j = 1 / (block_size * a_j)``."""
    sizes = np.array(structure.blocks)
    return BlockPoint(1.0 / (sizes[structure.index] * structure.weights), structure)


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


def _divergences(y: np.ndarray, x: np.ndarray, structure: BlockStructure) -> np.ndarray:
    """Per-block ``sum_j a_j y_j log(y_j / x_j)`` of two feasible vectors or rows.

    Conventions: ``0 log 0 = 0``; ``y`` putting mass where ``x`` has none
    makes that block's divergence ``+inf``.
    """
    if _least(x) > 0.0 and _least(ratio := y / x) > 0.0:  # no zero y_j, no underflow
        return structure.sums(structure.weights * y * np.log(ratio))
    # A zero y_j takes log 1, so its term is 0; y_j / x_j can underflow to 0.
    with np.errstate(divide="ignore"):
        ratio = np.divide(y, x, out=np.ones(y.shape), where=y > 0.0)
        return structure.sums(structure.weights * y * np.log(ratio))


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
    sy = structure.sums(structure.weights * y)
    sx = structure.sums(structure.weights * x)
    bad = (np.abs(sy - 1.0) > _SUM_TOL) | (np.abs(sx - 1.0) > _SUM_TOL)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(
            f"block {i} is not normalized (weighted sums {float(sy[i])!r} and "
            f"{float(sx[i])!r}); divergence is only defined on the weighted simplex"
        )
    return _divergences(y, x, structure)


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


def _dirichlet_rows(structure: BlockStructure, rng: np.random.Generator, rows: int) -> np.ndarray:
    """``rows`` interior feasible points, uniform (Dirichlet) per block and
    rescaled by the weights.  Each block is drawn for all rows at once, in
    block order."""
    out = np.empty((rows, structure.n))
    for b, sl in zip(structure.blocks, structure.slices):
        # numpy's Dirichlet(1, ..., 1), bit for bit: exponentials over their in-order row sum.
        p = rng.standard_exponential((rows, b))
        p *= 1.0 / sum(p.T[1:], p[:, 0])[:, None]
        # Guard against exact zeros from gamma underflow in extreme draws.
        np.clip(p, 1e-300, None, out=p)
        p /= p.sum(axis=1, keepdims=True)
        np.divide(p, structure.weights[sl], out=out[:, sl])
    return out


def random_interior(structure: BlockStructure, rng: np.random.Generator) -> BlockPoint:
    """Draw an interior feasible point, Dirichlet per block, rescaled by the
    weights so each block's weighted sum is exactly one."""
    return BlockPoint(_dirichlet_rows(structure, rng, 1)[0], structure)
