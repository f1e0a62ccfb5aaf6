"""The multiplicative fixed-point update and its iteration driver.

One step sends a feasible point ``x`` to ``x'`` with

    x'_{i,j} = (g_{i,j} / a_{i,j}) / m_i,      m_i = sum_j g_{i,j},

where ``g`` are the gradient weights ``x_j Z_xj / Z`` from
:func:`kneejerk.expr.eval_log` and ``i`` ranges over blocks.  The same rule
covers the plain simplex (one block, unit weights), weighted simplices, and
products of simplices.  Each step certifies the objective increase

    log Z(x') - log Z(x)  >=  sum_i m_i * I_i(x'; x)  >=  0,

with ``I_i`` the per-block I-divergence of the weight-rescaled vectors, so the
bare update ascends monotonically: no line search, acceleration or damping.
Each new point keeps, read-only, the ``a * x'`` and ``min x'`` its check computed.

A block whose gradient weights are all zero has no preferred direction; it
keeps its point and is flagged degenerate.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import reduce
from operator import add, mul

import numpy as np

from .expr import KneeJerkExpr, LogEval, _eval_log_raw
from .simplex import (
    _FEW, BlockPoint, BlockStructure, _check_feasible, _divergences, _least, _weighted,
)
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
    flags blocks without gradient mass, which kept their point.  ``gradient``
    and ``gradient_new`` are the gradient-weight vectors at the starting point
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


def _support_residual(g, x, structure: BlockStructure, masses, checked=None, spread=None):
    """max_i max_j |g_j/(a_j x_j) - m_i| / (m_i + 1) over coordinates with
    x_j > 0 (each block of a feasible ``x`` has one), per row of ``x``, given
    ``m = structure.sums(g)``, ``checked = _check_feasible(x, structure)``
    or None, and ``spread``, each coordinate's block mass, or None; equal to
    criticality_residual at interior points."""
    m = masses.take(structure.index, -1) if spread is None else spread
    wx, least = checked or (_weighted(x, structure), _least(x))
    # A zero x_j takes the quotient m_i, so it counts as 0, below every deviation.
    q = g / wx if least > 0.0 else np.divide(g, wx, out=m.copy(), where=x > 0.0)
    dev = np.abs(q - m) / (m + 1.0)
    return dev[dev.argmax()] if dev.ndim == 1 else dev.max(1)  # argmax: a faster 1-D max


def _certified_update(x, g, structure: BlockStructure, checked=None):
    """The update from the gradient weights ``g`` at the feasible ``x`` (a
    point or ``(R, n)`` rows) and its certificate, per row: the new point, the
    block masses ``m_i``, the degenerate flags, ``sum_i m_i I_i``, ``sum_i I_i``
    and the residual at ``x``, and last the new point's ``_check_feasible``, to
    pass on as ``checked`` (``x``'s own, computed when None).  A bad row raises
    the error it raises alone.  The new point is ``(g / m) / a``: ``g / m`` is
    scale-free, so a block's quotients sum to 1 within rounding at any
    magnitude of ``g``, subnormal included.  The copy that keeps a point is
    skipped unless some block is degenerate or has one coordinate, and the
    division by the weights when every weight is 1.  One point of fewer than ``_FEW`` blocks
    adds up its bound and divergence as Python floats, in numpy's order."""
    s = structure
    masses = s.sums(g)
    if masses.ndim == 1:  # Python reads a few floats faster than numpy
        flat = masses.tolist()
        finite, lo = all(map(math.isfinite, flat)), min(flat)
        # lo > 0 rules out a mass <= 0: min keeps a NaN, never a larger number
        degenerate = np.zeros(s.k, bool) if lo > 0.0 else masses <= 0.0
    else:
        degenerate = masses <= 0.0
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
    # A block with no gradient signal (flagged degenerate) and a block of one
    # coordinate (its only feasible point) keep their point.  A degenerate
    # block divides by 1, not 0, before the copy overwrites it.
    m = masses.take(s.index, -1)
    keep = s.single
    if lo <= 0.0:
        stuck = degenerate.take(s.index, -1)
        np.copyto(m, 1.0, where=stuck)
        keep = keep | stuck
    x_new = g / m
    if not s.unit:
        x_new /= s.weights
    if lo <= 0.0 or 1 in s.blocks:
        np.copyto(x_new, x, where=keep)
    checked_new = _check_feasible(x_new, s)
    checked = checked or (_weighted(x, s), _least(x))
    # Both points are feasible, so the divergence needs no further validation.
    # A block without mass adds 0 * I_i = 0; ``+ 0.0`` turns -0.0 into 0.0.
    d = _divergences(x_new, x, s, checked_new[0], checked[1] > 0.0)
    if masses.ndim == 1 and s.k < _FEW:  # in order, as numpy adds so few floats
        d_flat = d.tolist()  # (from Python 3.12 on, sum would compensate)
        bound = np.float64(reduce(add, map(mul, flat, d_flat)) + 0.0)
        divergence = np.float64(reduce(add, d_flat))
    else:
        bound = np.add.reduce(masses * d, -1) + 0.0
        divergence = np.add.reduce(d, -1)
    # Without a degenerate block m is still each coordinate's block mass.
    residual = _support_residual(g, x, s, masses, checked, m if lo > 0.0 else None)
    return x_new, masses, degenerate, bound, divergence, residual, checked_new


def knee_jerk_step(
    expr: KneeJerkExpr, point: BlockPoint, *, start: LogEval | None = None
) -> StepResult:
    """Apply the multiplicative update once.

    The input may touch the boundary: coordinates equal to zero have gradient
    weight exactly zero and stay at zero.  The output is feasible by
    construction (each block's gradient weights are divided by their own sum).
    ``start`` is ``eval_log(expr, point.x)`` when the caller already has it,
    e.g. the previous step's ``W_new`` and ``gradient_new``; it changes nothing.
    The new point is read-only and keeps what its check found for the next step.
    """
    W, g = _eval_log_raw(expr, point.x) if start is None else (start.W, start.g)
    s = point.structure
    x_new, masses, degenerate, bound, divergence, residual, checked = _certified_update(
        point.x, g, s, point._facts()
    )
    W_new, g_new = _eval_log_raw(expr, x_new)
    x_new.setflags(write=False)  # so the facts it carries cannot go stale
    checked[0].setflags(write=False)
    new_point = object.__new__(type(point))  # the update checked x_new already
    new_point.x, new_point.structure, new_point._checked = x_new, s, (x_new, s, checked)
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
    (after a step in which that block keeps its point); with "max-iterations" at
    the cap.  The objective column of the trace is nondecreasing up to the
    rounding of ``W``: near the optimum a step can record ``W' - W`` an ulp
    or so below 0, as ``problems/triangle.json`` does at its last step.
    ROADMAP item 12 plans a bound on that rounding.
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
