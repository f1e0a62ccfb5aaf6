"""The multiplicative fixed-point update and its iteration driver.

One step sends a feasible point ``x`` to ``x'`` with

    x'_{i,j} = (g_{i,j} / a_{i,j}) / m_i,      m_i = sum_j g_{i,j},

where ``g`` are the gradient weights ``x_j Z_xj / Z`` from
:func:`kneejerk.expr.eval_log` and ``i`` ranges over blocks.  The same rule
covers the plain simplex (one block, unit weights), weighted simplices, and
products of simplices.  Each step certifies the objective increase

    log Z(x') - log Z(x)  >=  sum_i m_i * I_i(x'; x)  >=  0,

with ``I_i`` the per-block I-divergence of the weight-rescaled vectors, so the
iteration ascends monotonically.  No line search, no acceleration, no damping:
the bare update is already monotone.

A block whose gradient weights are all zero has no preferred direction; the
conventional treatment renormalizes that block (the identity on feasible
points) and flags it degenerate.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .expr import KneeJerkExpr, LogEval, _eval_log_raw
from .simplex import BlockPoint, BlockStructure, _divergences
# perfbench/tracing.py wraps these two names in this module.
from .simplex import i_divergence, i_divergence_blocks  # noqa: F401

__all__ = [
    "StepResult",
    "IterationConfig",
    "TraceRecord",
    "Trace",
    "knee_jerk_step",
    "criticality_residual",
    "iterate",
]


@dataclass(eq=False)
class StepResult:
    """One application of the update.

    ``bound`` is the certified lower bound ``sum_i m_i I_i`` on
    ``W_new - W``; ``divergence`` is the total I-divergence ``sum_i I_i``;
    ``masses`` holds the per-block gradient masses ``m_i``; ``degenerate``
    flags blocks that fell back to renormalization.  ``gradient`` and
    ``gradient_new`` are the gradient-weight vectors at the starting point
    and at ``x_new``.  ``residual`` is the criticality residual at the
    starting point, taken over its positive coordinates.
    """

    x_new: BlockPoint
    W: float
    W_new: float
    masses: np.ndarray
    bound: float
    degenerate: tuple[bool, ...]
    gradient: np.ndarray
    divergence: float
    gradient_new: np.ndarray
    residual: float


@dataclass
class IterationConfig:
    """Stopping rules for :func:`iterate`.

    The driver stops when the per-step I-divergence drops below ``tol_div``,
    when the objective improvement drops below ``tol_w``, or after
    ``max_iters`` steps, whichever comes first.  ``trace_stride`` thins the
    recorded trace; the final step is always recorded.
    """

    max_iters: int = 100_000
    tol_div: float = 1e-12
    tol_w: float = 1e-14
    trace_stride: int = 1

    def __post_init__(self):
        for name in ("max_iters", "trace_stride"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, int) or v < 1:
                raise ValueError(f"{name} must be a positive integer, got {v!r}")
        for name in ("tol_div", "tol_w"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, numbers.Real) or v != v:
                raise ValueError(f"{name} must be a number, got {v!r}")
            try:
                setattr(self, name, float(v))
            except OverflowError:
                raise ValueError(f"{name} is an integer too large for a float") from None


@dataclass
class TraceRecord:
    """One recorded step: the objective after the step, plus the certified
    bound, I-divergence, and criticality residual of/at the step's origin."""

    iteration: int
    W: float
    bound: float
    divergence: float
    residual: float


@dataclass(eq=False)
class Trace:
    """The recorded steps, the stop reason, and the terminal point with the
    gradient weights the last step already evaluated there."""

    records: list[TraceRecord]
    status: str  # "converged" | "max-iterations" | "degenerate"
    x_final: BlockPoint
    gradient_final: np.ndarray

    @property
    def W_final(self) -> float:
        return self.records[-1].W

    @property
    def iterations(self) -> int:
        return self.records[-1].iteration

    def to_csv(self) -> str:
        """CSV with header (iter, W, bound, divergence, residual); the
        terminal status goes on a trailing metadata line."""
        lines = ["iter,W,bound,divergence,residual"]
        for r in self.records:
            lines.append(
                f"{r.iteration},{r.W!r},{r.bound!r},{r.divergence!r},{r.residual!r}"
            )
        lines.append(f"# status={self.status}")
        return "\n".join(lines) + "\n"


def _support_residual(
    g: np.ndarray, x: np.ndarray, structure: BlockStructure, masses: np.ndarray
) -> float:
    """max_i max_j |g_j/(a_j x_j) - m_i| / (m_i + 1) over coordinates with
    x_j > 0 (each block of a feasible ``x`` has one), given the block masses
    ``m = structure.sums(g)``; equal to criticality_residual at interior points."""
    m = masses[structure.index]
    w = structure.weights
    if not x[x.argmin()] > 0.0:
        pos = x > 0.0
        g, x, w, m = g[pos], x[pos], w[pos], m[pos]
    dev = np.abs(g / (w * x) - m) / (m + 1.0)
    return float(dev[dev.argmax()])


def _certified_update(point: BlockPoint, g: np.ndarray):
    """The update from the gradient weights ``g`` at ``point`` and its
    certificate: the new point, the block masses ``m_i``, the degenerate
    flags, ``sum_i m_i I_i``, ``sum_i I_i`` and the residual at ``point``."""
    s = point.structure
    x = point.x
    w = s.weights
    masses = s.sums(g)
    # A block with no gradient signal is renormalized and flagged.  On a
    # feasible input its weighted sum is 1, so this is the identity.
    degenerate = masses <= 0.0
    # Scale each block's weights below 1/2 up by an exact power of two:
    # subnormal ones would lose bits in the weighted sum and miss the
    # normalization.  Without subnormals the quotient is unchanged.
    shift = -np.minimum(np.frexp(np.maximum.reduceat(g, s.starts))[1], 0)
    raw = np.where(degenerate[s.index], x, np.ldexp(g, shift[s.index]) / w)
    x_new = raw / s.sums(w * raw)[s.index]
    # A single-coordinate block admits exactly one feasible point, so the
    # update is the identity; copying avoids renormalization round-off on a
    # point that cannot move.
    if 1 in s.blocks:
        single = np.array(s.blocks) == 1
        # The copy never reads such a block's one weight (its mass): fail on
        # a NaN or inf one here, as the new point of a longer block would.
        if not all(map(math.isfinite, masses[single].tolist())):
            raise ValueError("point coordinates must be finite")
        keep = single & ~degenerate
        x_new = np.where(keep[s.index], x, x_new)
    # A degenerate block keeps its point, so the new point's check never sees
    # a negative weight there: refuse it here, as that check does elsewhere.
    flags = tuple(degenerate.tolist())
    if True in flags and g[g.argmin()] < 0.0:
        i = int(g.argmin())
        raise ValueError(f"gradient weights must be nonnegative; g[{i}] = {g[i]}")
    new_point = BlockPoint(x_new, s)
    # Both points are feasible (BlockPoint checked them), so the divergence
    # needs no further validation.
    d = _divergences(new_point.x, x, s)
    live = masses > 0.0
    bound = float((masses[live] * d[live]).sum())
    residual = _support_residual(g, x, s, masses)
    return new_point, masses, flags, bound, float(d.sum()), residual


def knee_jerk_step(
    expr: KneeJerkExpr, point: BlockPoint, *, start: LogEval | None = None
) -> StepResult:
    """Apply the multiplicative update once.

    The input may touch the boundary: coordinates equal to zero have gradient
    weight exactly zero and stay at zero.  The output is feasible by
    construction (each block is renormalized by its actual weighted sum).
    ``start`` is ``eval_log(expr, point.x)`` when the caller already has it,
    e.g. the previous step's ``W_new`` and ``gradient_new``; it changes nothing.
    """
    W, g = _eval_log_raw(expr, point.x) if start is None else (start.W, start.g)
    new_point, masses, degenerate, bound, divergence, residual = _certified_update(point, g)
    W_new, g_new = _eval_log_raw(expr, new_point.x)
    return StepResult(
        x_new=new_point,
        W=W,
        W_new=W_new,
        masses=masses,
        bound=bound,
        degenerate=degenerate,
        gradient=g,
        divergence=divergence,
        gradient_new=g_new,
        residual=residual,
    )


def criticality_residual(expr: KneeJerkExpr, point: BlockPoint) -> float:
    """Scale-free distance from fixedness at an interior point.

    Zero (up to round-off) exactly when the update leaves the point unchanged,
    i.e. when every coordinate of a block satisfies ``g_j = m_i a_j x_j``.
    """
    if not point.interior:
        raise ValueError("criticality residual requires an interior point")
    _, g = _eval_log_raw(expr, point.x)
    s = point.structure
    return _support_residual(g, point.x, s, s.sums(g))


def iterate(
    expr: KneeJerkExpr, x0: BlockPoint, config: IterationConfig | None = None
) -> Trace:
    """Run the update to convergence, a degenerate block, or the iteration cap.

    Stops with status "converged" when the per-step I-divergence falls below
    ``config.tol_div`` or the objective improvement falls below
    ``config.tol_w``; with status "degenerate" on the first degenerate block
    (after its conventional renormalization step); with "max-iterations" at
    the cap.  The objective column of the trace is nondecreasing.
    """
    cfg = config if config is not None else IterationConfig()
    records: list[TraceRecord] = []
    x = x0
    status = "max-iterations"
    last: TraceRecord | None = None
    last_recorded = False
    start = None
    for k in range(1, cfg.max_iters + 1):
        res = knee_jerk_step(expr, x, start=start)
        last = TraceRecord(k, res.W_new, res.bound, res.divergence, res.residual)
        last_recorded = k % cfg.trace_stride == 0
        if last_recorded:
            records.append(last)
        x = res.x_new
        start = LogEval(res.W_new, res.gradient_new)
        if any(res.degenerate):
            status = "degenerate"
            break
        if res.divergence < cfg.tol_div or (res.W_new - res.W) < cfg.tol_w:
            status = "converged"
            break
    if last is not None and not last_recorded:
        records.append(last)
    return Trace(records=records, status=status, x_final=x, gradient_final=start.g)
