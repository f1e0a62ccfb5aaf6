"""Products of weighted simplices: block structures, feasible points,
normalization, and the I-divergence.

A ``BlockStructure`` splits ``n`` coordinates into contiguous blocks and
attaches a positive weight to every coordinate.  Feasibility means each block
satisfies ``sum_j a_j x_j = 1`` with nonnegative coordinates; the plain
probability simplex is the single-block, unit-weight case.

Every per-block quantity is one reduction over the whole vector.  A structure
carries ``index``, the block of each coordinate, and ``starts``, the first
coordinate of each block; ``BlockStructure.sums`` adds a vector up block by
block with ``np.bincount``.  That sums each block in coordinate order, so on a
block of fewer than 8 coordinates it equals ``np.sum`` of the block bit for
bit; on longer blocks it may differ from ``np.sum``'s pairwise order in the
last place.  A step reads extremes as ``v[v.argmin()]`` and ``v[v.argmax()]``:
the values of ``v.min()`` and ``v.max()``, NaN too, at a third of the cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    coordinate of block ``i``.
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

    @property
    def k(self) -> int:
        return len(self.blocks)

    def sums(self, v: np.ndarray) -> np.ndarray:
        """Per-block sums of a length-``n`` vector, each in coordinate order."""
        return np.bincount(self.index, weights=v, minlength=self.k)

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
        totals = s.sums(s.weights * x)
        dev = np.abs(totals - 1.0)
        # One pass on a good point: NaN fails both tests, inf makes a total inf.
        if not (x[x.argmin()] >= 0.0 and dev[dev.argmax()] <= _POINT_TOL):
            if not np.isfinite(x).all():
                raise ValueError("point coordinates must be finite")
            if (x < 0.0).any():
                i = int(np.where(x < 0.0)[0][0])
                raise ValueError(f"point coordinates must be nonnegative; x[{i}] = {x[i]}")
            i = int(np.argmax(dev > _POINT_TOL))
            raise ValueError(
                f"block {i} weighted sum is {float(totals[i])!r}, violates normalization "
                f"beyond {_POINT_TOL}"
            )
        self.x = x

    @property
    def interior(self) -> bool:
        return bool(np.all(self.x > 0.0))


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
    """Per-block ``sum_j a_j y_j log(y_j / x_j)`` of two feasible vectors.

    Conventions: ``0 log 0 = 0``; ``y`` putting mass where ``x`` has none
    makes that block's divergence ``+inf``.
    """
    # Also on positive points: y_j / x_j can underflow to 0 when x_j > 1.
    with np.errstate(divide="ignore"):
        if y[y.argmin()] > 0.0 and x[x.argmin()] > 0.0:  # no mask needed
            return structure.sums(structure.weights * y * np.log(y / x))
        pos = y > 0.0
        terms = np.zeros(y.shape)
        terms[pos] = structure.weights[pos] * y[pos] * np.log(y[pos] / x[pos])
    return structure.sums(terms)


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
        p = rng.dirichlet(np.ones(b), size=rows)
        # Guard against exact zeros from gamma underflow in extreme draws.
        p = np.clip(p, 1e-300, None)
        p = p / p.sum(axis=1, keepdims=True)
        out[:, sl] = p / structure.weights[sl]
    return out


def random_interior(structure: BlockStructure, rng: np.random.Generator) -> BlockPoint:
    """Draw an interior feasible point, Dirichlet per block, rescaled by the
    weights so each block's weighted sum is exactly one."""
    return BlockPoint(_dirichlet_rows(structure, rng, 1)[0], structure)
