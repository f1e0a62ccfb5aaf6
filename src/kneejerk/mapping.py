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
from .simplex import BlockPoint, BlockStructure, _check_feasible, _divergences, _least
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
):
    """max_i max_j |g_j/(a_j x_j) - m_i| / (m_i + 1) over coordinates with
    x_j > 0 (each block of a feasible ``x`` has one), per row of ``x``, given
    ``m = structure.sums(g)``; equal to criticality_residual at interior points."""
    m = masses.take(structure.index, -1)
    wx = structure.weights * x
    # A zero x_j takes the quotient m_i, so it counts as 0, below every deviation.
    q = g / wx if _least(x) > 0.0 else np.divide(g, wx, out=m.copy(), where=x > 0.0)
    dev = np.abs(q - m) / (m + 1.0)
    return dev[dev.argmax()] if dev.ndim == 1 else dev.max(1)  # argmax: a faster 1-D max


def _certified_update(x: np.ndarray, g: np.ndarray, structure: BlockStructure):
    """The update from the gradient weights ``g`` at the feasible ``x`` (a
    point or ``(R, n)`` rows) and its certificate, per row: the new point, the
    block masses ``m_i``, the degenerate flags, ``sum_i m_i I_i``, ``sum_i I_i``
    and the residual at ``x``.  A bad row raises the error it raises alone.
    Passes that leave every bit as it is are skipped: the power-of-two shift
    unless some block's largest weight is below 1/2 (else every shift is 0),
    and each copy unless some block is degenerate or has one coordinate."""
    s = structure
    w = s.weights
    masses = s.sums(g)
    degenerate = masses <= 0.0
    if masses.ndim == 1:  # Python reads a few floats faster than numpy
        flat = masses.tolist()
        finite, lo = all(map(math.isfinite, flat)), min(flat)
    else:
        finite, lo = np.isfinite(masses).all(), masses.min()
    # What the new point's check cannot see, in this order: a NaN or inf weight
    # in a single-coordinate block (copied, its weight never read), a negative
    # weight beside a degenerate block (which keeps its point), and any other
    # NaN or inf mass, refused before inf / inf can warn.  Rows go one by one.
    if not finite or lo <= 0.0 and _least(np.atleast_2d(g)[np.atleast_2d(degenerate).any(1)]) < 0.0:
        for row in zip(x, g) if x.ndim == 2 else ():
            _certified_update(*row, s)
        if not np.isfinite(g[s.single]).all():
            raise ValueError("point coordinates must be finite")
        i = int(g.argmin())
        if degenerate.any() and g[i] < 0.0:
            raise ValueError(f"gradient weights must be nonnegative; g[{i}] = {g[i]}")
        raise ValueError("point coordinates must be finite")
    # Scale each block's weights below 1/2 up by an exact power of two:
    # subnormal ones would lose bits in the weighted sum and miss the
    # normalization.  Without subnormals the quotient is unchanged.
    top = np.maximum.reduceat(g, s.starts, axis=-1)
    shift = -np.minimum(np.frexp(top)[1], 0) if _least(top) < 0.5 else None
    raw = (g if shift is None else np.ldexp(g, shift.take(s.index, -1))) / w
    # A block with no gradient signal is renormalized and flagged.  On a
    # feasible input its weighted sum is 1, so this is the identity.
    keep = s.single
    if lo <= 0.0:
        np.copyto(raw, x, where=degenerate.take(s.index, -1))
        keep = keep & ~degenerate.take(s.index, -1)
    x_new = raw / s.sums(w * raw).take(s.index, -1)
    # A single-coordinate block admits exactly one feasible point, so the
    # update is the identity; copying avoids renormalization round-off on a
    # point that cannot move.
    if 1 in s.blocks:
        np.copyto(x_new, x, where=keep)
    _check_feasible(x_new, s)
    # Both points are feasible, so the divergence needs no further validation.
    # A block without mass adds 0 * I_i = 0; ``+ 0.0`` turns -0.0 into 0.0.
    d = _divergences(x_new, x, s)
    bound = np.add.reduce(masses * d, -1) + 0.0
    residual = _support_residual(g, x, s, masses)
    return x_new, masses, degenerate, bound, np.add.reduce(d, -1), residual


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
    s = point.structure
    x_new, masses, degenerate, bound, divergence, residual = _certified_update(point.x, g, s)
    W_new, g_new = _eval_log_raw(expr, x_new)
    new_point = object.__new__(type(point))  # the update checked x_new already
    new_point.x, new_point.structure = x_new, s
    return StepResult(  # in field order: keywords would cost about a microsecond a step
        new_point, W, W_new, masses, float(bound), tuple(degenerate.tolist()),
        g, float(divergence), g_new, float(residual),
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
    return float(_support_residual(g, point.x, s, s.sums(g)))


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
