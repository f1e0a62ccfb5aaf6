"""Numerical certificates for the update's guarantees.

Four probes, each checking one face of the theory on concrete points:

* ``verify_step_inequality`` - the per-step certificate
  ``log(Z'/Z) >= sum_i m_i I_i >= 0``.
* ``verify_argmax_property`` - the updated point maximizes the tangent-plane
  lower bound over the feasible set, checked against random competitors.
* ``check_log_log_convexity`` - ``log Z`` is convex in ``u = log x``
  (smallest Hessian eigenvalue nonnegative up to stencil error).
* ``check_log_concavity`` - optional: ``log Z`` concave in ``x`` itself,
  which holds for graph discriminants but not for every valid objective.

Both curvature probes share one sampling loop, ``_curvature_probe``, which
takes a gradient callable and the end of the spectrum to bound.  Probe
failures on valid expressions indicate a bug; the probes are given teeth by
negative controls (``_negative_control`` feeds the indefinite
``u0^2 + u1^2 - 3 u0 u1`` to the sampling loop directly; ``x^2 + y^2`` is the
concavity counterexample).

Every probe evaluates in batches, through
:func:`kneejerk.expr._eval_log_gradients`, with no loop over points.  Both
step certificates are read off one batched step, ``_step_sweep``: one
gradient at the rows, one call of the step's kernel ``_certified_update``
on all of them (every guard holds row by row) and one ``W`` at the new
points; ``_argmax_margins`` scores every competitor against that step
straight from the competitor's exponential draws, one ``log`` and one
matrix product per block, without building the competitor.
``kneejerk.cli.run_verify`` calls
``_step_certificates``, one step per chunk of random base points, so memory
follows the chunk, never the sample count.  The curvature probes draw a
chunk of samples at once, score all their ``2n``-point stencils with one
gradient call and take one stacked ``eigvalsh``.  A batched value can
differ from the point evaluation in its last bits.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .expr import (
    KneeJerkExpr,
    _central_hessian_from_grad,
    _eval_log_gradients,
    _eval_log_values,
    eval_log,
)
from .mapping import _certified_update
# Unused here; perfbench/tracing.py wraps this name in this module.
from .mapping import knee_jerk_step  # noqa: F401
from .simplex import (
    BlockPoint,
    BlockStructure,
    _dirichlet_points,
    _dirichlet_rows,
    _exponential_draws,
    _row_sums,
)

__all__ = [
    "InequalityReport",
    "ArgmaxReport",
    "ConvexityReport",
    "tangent_lower_bound",
    "verify_step_inequality",
    "verify_argmax_property",
    "check_log_log_convexity",
    "check_log_concavity",
]

_MARGIN_TOL = 1e-9
_ARGMAX_COMPETITORS = 1000  # random competitors per base point in verify's sweep
_SWEEP_VALUES = 2**16  # competitor coordinates (512 KB) per chunk of verify's sweep
# Least exponential a competitor's bound reads, as _dirichlet_points clips coordinates.
_EXP_FLOOR = 1e-300
_EIG_TOL = 1e-6
# Central-difference step of the curvature probes (relative in x for concavity).
_STENCIL_H = 1e-4
# Per-coordinate sampling boxes: u = log x for convexity, x itself for concavity.
_LOG_BOX = (-3.0, 3.0)
_X_BOX = (0.2, 2.0)
# Stencil gradient entries (2n points x n per sample) in one probe chunk.
_PROBE_VALUES = 2**13


@dataclass(eq=False)
class InequalityReport:
    """Both sides of the per-step certificate at one point.

    ``lhs = log Z(x') - log Z(x)``, ``rhs = sum_i m_i I_i(x'; x)``,
    ``margin = lhs - rhs``.  Passes iff the margin is at least ``-1e-9``
    and ``rhs`` at least ``-1e-12`` (:func:`_inequality_passed`).
    """

    lhs: float
    rhs: float
    margin: float
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
            "pass": self.passed,
        }


@dataclass(eq=False)
class ArgmaxReport:
    """Outcome of the competitor sweep for the argmax property."""

    passed: bool
    margin: float  # min over competitors of bound(x') - bound(competitor)
    worst_competitor: np.ndarray
    samples: int

    def to_json_dict(self) -> dict:
        return {
            "pass": self.passed,
            "margin": self.margin,
            "worst_competitor": [float(v) for v in self.worst_competitor],
            "samples": self.samples,
        }


@dataclass(eq=False)
class ConvexityReport:
    """Worst curvature sample from a convexity or concavity probe; a
    non-finite ``worst_eigenvalue`` is written to JSON as ``null``."""

    samples: int
    worst_eigenvalue: float
    worst_point: np.ndarray
    passed: bool

    def to_json_dict(self) -> dict:
        eig = self.worst_eigenvalue
        return {
            "samples": self.samples,
            "worst_eigenvalue": eig if math.isfinite(eig) else None,
            "worst_point": [float(v) for v in self.worst_point],
            "pass": self.passed,
        }


def tangent_lower_bound(expr: KneeJerkExpr, x, x_bar) -> float:
    """Tangent-plane lower bound on ``log Z(x_bar) - log Z(x)``.

    Equals ``sum_i g_i(x) log(x_bar_i / x_i)``; convexity of ``log Z`` in
    ``log x`` makes it a global lower bound, with equality for monomials.
    Coordinates with ``g_i = 0`` contribute nothing even at ``x_bar_i = 0``;
    a zero ``x_bar_i`` against ``g_i > 0`` yields ``-inf``.
    ``x`` must be strictly positive; neither point needs to be normalized.
    """
    x = np.asarray(x, dtype=float)
    x_bar = np.asarray(x_bar, dtype=float)
    if x_bar.shape != x.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {x_bar.shape}")
    if np.any(x_bar < 0.0) or not np.all(np.isfinite(x_bar)):
        raise ValueError("x_bar must be finite and nonnegative")
    g = eval_log(expr, x).g  # validates x > 0
    live = g > 0.0
    if np.any(live & (x_bar == 0.0)):
        return -math.inf
    return float(np.sum(g[live] * np.log(x_bar[live] / x[live])))


def _require_samples(samples) -> int:
    """``samples`` as a Python int, if it is a positive integer of any
    integral type but bool."""
    if isinstance(samples, bool) or not isinstance(samples, numbers.Integral) or samples < 1:
        raise ValueError(f"samples must be a positive integer, got {samples!r}")
    return int(samples)


def _inequality_passed(margin: float, rhs: float) -> bool:
    """The step certificate's pass rule, on one point's values or a sweep's worst."""
    return bool(margin >= -_MARGIN_TOL and rhs >= -1e-12)


def _step_sweep(
    expr: KneeJerkExpr, structure: BlockStructure, X: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One step from each row of ``X``, interior feasible points: both sides
    of its certificate, ``lhs = W(x') - W(x)`` and ``rhs = sum_i m_i I_i``,
    then its gradients ``G`` and new points ``X_new`` for the argmax scorer.

    One batched gradient at the rows, one update of all rows and one
    batched ``W`` at the new points."""
    W, G = _eval_log_gradients(expr, X)
    X_new, _, _, rhs = _certified_update(X, G, structure)[:4]
    return _eval_log_values(expr, X_new) - W, rhs, G, X_new


def _argmax_margins(
    structure: BlockStructure, G: np.ndarray, X_new: np.ndarray, draws: list
) -> tuple[np.ndarray, np.ndarray]:
    """For each row ``r`` of ``G``, the gradient weights of a step to the new
    point ``X_new[r]``, and its competitors, drawn as rows ``r K`` to
    ``r K + K - 1`` of the per-block exponential ``draws`` (the points
    :func:`_dirichlet_points` makes of them): the margin ``bound(x') -
    max_k bound(y_k)`` of the tangent-plane bound ``bound(y) = g . (log y -
    log x)``, and the index of that worst competitor.

    No competitor point is built.  In block ``B`` a competitor is ``y = e /
    (S_B w)``, its exponentials ``e`` over their in-order sum ``S_B``, so
    ``bound(y) = sum_B (g_B . log e - m_B log S_B) - g . log(w x)`` with
    ``m_B`` the block's gradient mass, and the margin is ``g . log(w x')``
    less the largest of those sums: one ``log`` and one matrix product per
    block, and nothing evaluated.  Each exponential is first floored at
    ``_EXP_FLOOR`` (as a point's coordinates are clipped), so an exact zero
    never meets ``g_j = 0`` as ``0 * -inf``.  The draws are overwritten with
    their floored logs."""
    rows = len(G)
    with np.errstate(divide="ignore"):  # -inf only where g > 0 underflowed x' to 0
        log_new = np.log(structure.weights * X_new, out=np.zeros_like(G), where=G > 0.0)
    bounds = None
    for E, sl, m in zip(draws, structure.slices, structure.sums(G).T):
        np.maximum(E, _EXP_FLOOR, out=E)
        log_sums = np.log(_row_sums(E)).reshape(rows, -1)
        log_sums *= m[:, None]
        np.log(E, out=E)
        block = np.matmul(E.reshape(rows, -1, E.shape[1]), G[:, sl, None])[..., 0]
        block -= log_sums
        if bounds is None:
            bounds = block
        else:
            bounds += block
    worst = bounds.argmax(axis=1)
    return (G * log_new).sum(axis=1) - bounds[np.arange(rows), worst], worst


def _step_certificates(
    expr: KneeJerkExpr, structure: BlockStructure, samples: int, rng: np.random.Generator
) -> tuple[dict, dict]:
    """verify's ``inequality`` and ``argmax`` sections at ``samples`` random
    interior points.  A chunk holds as many points as keep their competitors
    within ``_SWEEP_VALUES`` coordinates; it draws its points with one
    :func:`_dirichlet_rows` call, then their competitors' exponentials with
    one :func:`_exponential_draws` call (the numbers a ``_dirichlet_rows``
    call of the competitors would draw), takes one :func:`_step_sweep` and
    scores the competitors against it with :func:`_argmax_margins`.  A NaN
    margin or bound is reported and fails."""
    per_chunk = max(1, _SWEEP_VALUES // (_ARGMAX_COMPETITORS * structure.n))
    worst = np.full(3, math.inf)  # inequality margin, rhs, argmax margin
    for lo in range(0, samples, per_chunk):
        rows = min(per_chunk, samples - lo)
        X = _dirichlet_rows(structure, rng, rows)
        draws = _exponential_draws(structure, rng, rows * _ARGMAX_COMPETITORS)
        lhs, rhs, G, X_new = _step_sweep(expr, structure, X)
        margin = _argmax_margins(structure, G, X_new, draws)[0]
        worst = np.minimum(worst, [(lhs - rhs).min(), rhs.min(), margin.min()])
    step, min_rhs, argmax = worst.tolist()
    return (
        {"worst_margin": step, "min_rhs": min_rhs, "pass": _inequality_passed(step, min_rhs)},
        {"worst_margin": argmax, "competitors": _ARGMAX_COMPETITORS, "pass": argmax >= -_MARGIN_TOL},
    )


def verify_step_inequality(expr: KneeJerkExpr, point: BlockPoint) -> InequalityReport:
    """Evaluate the per-step certificate at one interior point."""
    if not point.interior:
        raise ValueError("the step inequality is checked at interior points")
    lhs, rhs = (float(v[0]) for v in _step_sweep(expr, point.structure, point.x[None])[:2])
    margin = lhs - rhs
    return InequalityReport(lhs=lhs, rhs=rhs, margin=margin, passed=_inequality_passed(margin, rhs))


def verify_argmax_property(
    expr: KneeJerkExpr,
    point: BlockPoint,
    samples: int,
    rng: np.random.Generator,
) -> ArgmaxReport:
    """Check that the updated point dominates random feasible competitors.

    The update maximizes the tangent-plane bound over the feasible set, so
    ``tangent_lower_bound(expr, x, x')`` must be at least the bound at every
    competitor (within 1e-9).  Competitors are drawn Dirichlet-style per
    block and rescaled by the weights; only the reported worst one is built,
    from its own draws.  ``samples`` must be a positive integer.  The step's
    one evaluation is its gradient at ``x``.
    """
    _require_samples(samples)
    if not point.interior:
        raise ValueError("the argmax check needs an interior base point")
    s = point.structure
    draws = _exponential_draws(s, rng, samples)
    X = point.x[None]
    _, G = _eval_log_gradients(expr, X)
    X_new = _certified_update(X, G, s)[0]
    # The scorer overwrites what it reads; the worst competitor needs its draws.
    margin, worst = _argmax_margins(s, G, X_new, [E.copy() for E in draws])
    margin, k = float(margin[0]), int(worst[0])
    return ArgmaxReport(
        passed=margin >= -_MARGIN_TOL,
        margin=margin,
        worst_competitor=_dirichlet_points(s, [E[k : k + 1] for E in draws])[0],
        samples=samples,
    )


def _probed_size(expr) -> int:
    if not isinstance(expr, KneeJerkExpr):
        raise ValueError(f"expected an expression, got {expr!r}")
    return max(expr.n_vars, 1)


def _curvature_probe(
    grad: Callable[[np.ndarray], np.ndarray],
    n: int,
    samples: int,
    rng: np.random.Generator | None,
    *,
    upper: bool,
) -> ConvexityReport:
    """Bound one end of the Hessian spectrum of ``grad`` at random points.

    The lower side probes convexity in ``u = log x``: ``u`` is drawn from
    ``_LOG_BOX``, the stencil step is ``h``, and the smallest eigenvalue must
    stay above ``-1e-6 * (1 + ||H||)``.  The upper side probes concavity in
    ``x``: ``x`` is drawn from ``_X_BOX``, the steps are ``h * x_i`` so stencil
    points stay positive, and the largest eigenvalue must stay below
    ``1e-6 * (1 + ||H||)``.  ``grad`` maps a ``(k, n)`` array of points in
    the drawn coordinates to their gradients; the reported worst point is in
    ``x``, the first of equally bad samples.  A sample whose stencil has a NaN
    or infinite entry fails the probe, reported with eigenvalue NaN.  A chunk
    of ``_PROBE_VALUES // (2 n^2)`` samples draws its points at once (the same
    numbers as one draw per sample), scores every stencil with one ``grad``
    call and takes one stacked ``eigvalsh``, so memory is flat in ``samples``.
    """
    samples = _require_samples(samples)
    if rng is None:
        rng = np.random.default_rng(0)
    box = _X_BOX if upper else _LOG_BOX
    worst = (math.inf, -math.inf if upper else math.inf, None)  # margin, eigenvalue, point
    per_chunk = max(1, _PROBE_VALUES // (2 * n * n))
    for lo in range(0, samples, per_chunk):
        V = rng.uniform(*box, (min(per_chunk, samples - lo), n))
        H = _central_hessian_from_grad(grad, V, _STENCIL_H * V if upper else _STENCIL_H)
        # A NaN or infinite stencil has no trustworthy spectrum (eigvalsh may
        # even return finite values), so it is the worst sample.
        finite = np.isfinite(H).all(axis=(1, 2))
        eigs = np.linalg.eigvalsh(np.where(finite[:, None, None], H, 0.0))
        eig = np.where(finite, eigs[:, -1] if upper else eigs[:, 0], np.nan)
        norm = np.maximum(abs(eigs[:, 0]), abs(eigs[:, -1]))
        margin = np.where(finite, (-eig if upper else eig) + _EIG_TOL * (1.0 + norm), -np.inf)
        j = int(margin.argmin())
        if margin[j] < worst[0]:  # a sample's margin is finite or -inf
            worst = (float(margin[j]), float(eig[j]), V[j])
    margin, eig, v = worst
    return ConvexityReport(
        samples=samples,
        worst_eigenvalue=eig,
        worst_point=v if upper else np.exp(v),
        passed=margin >= 0.0,
    )


def _negative_control(samples: int, rng: np.random.Generator) -> ConvexityReport:
    """The sampling loop of the convexity probe on the gradient of
    ``W(u) = u0^2 + u1^2 - 3 u0 u1``, indefinite (Hessian eigenvalues -1 and
    5): a report that must fail, proving the probe detects violations."""
    return _curvature_probe(
        lambda U: np.column_stack((2.0 * U[:, 0] - 3.0 * U[:, 1], 2.0 * U[:, 1] - 3.0 * U[:, 0])),
        2, samples, rng, upper=False,
    )


def check_log_log_convexity(
    expr: KneeJerkExpr, samples: int = 100, rng: np.random.Generator | None = None
) -> ConvexityReport:
    """Probe convexity of ``log Z`` in ``u = log x`` at random points.

    Samples ``u`` uniformly from ``[-3, 3]`` per coordinate and requires the
    smallest eigenvalue of the central-difference Hessian to stay above
    ``-1e-6 * (1 + ||H||)`` at every sample.  The reported worst point is in
    the original coordinates ``x = exp(u)``.
    """
    n = _probed_size(expr)
    return _curvature_probe(
        lambda U: _eval_log_gradients(expr, np.exp(U))[1], n, samples, rng, upper=False
    )


def check_log_concavity(
    expr: KneeJerkExpr, samples: int = 100, rng: np.random.Generator | None = None
) -> ConvexityReport:
    """Probe concavity of ``log Z`` in ``x`` itself at random positive points.

    This is a property of special objectives (graph discriminants have it);
    sums of squares like ``x^2 + y^2`` fail it, which is this probe's
    negative control.  Samples ``x`` uniformly from ``[0.2, 2]`` per
    coordinate and requires the largest eigenvalue of the Hessian of
    ``log Z`` in ``x`` to stay below ``1e-6 * (1 + ||H||)`` at every sample.
    The x-gradient is ``g_i / x_i``.
    """
    n = _probed_size(expr)
    return _curvature_probe(
        lambda X: _eval_log_gradients(expr, X)[1] / X, n, samples, rng, upper=True
    )
