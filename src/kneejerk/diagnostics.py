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
negative controls (the indefinite ``u0^2 + u1^2 - 3 u0 u1`` fed to the
sampling loop directly, and the ``x^2 + y^2`` concavity counterexample).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .expr import (
    KneeJerkExpr,
    _central_hessian_from_grad,
    eval_log,
)
from .mapping import _certified_update, knee_jerk_step
from .simplex import BlockPoint, _dirichlet_rows

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
_EIG_TOL = 1e-6
# Central-difference step of the curvature probes (relative in x for concavity).
_STENCIL_H = 1e-4
# Per-coordinate sampling boxes: u = log x for convexity, x itself for concavity.
_LOG_BOX = (-3.0, 3.0)
_X_BOX = (0.2, 2.0)


@dataclass(eq=False)
class InequalityReport:
    """Both sides of the per-step certificate at one point.

    ``lhs = log Z(x') - log Z(x)``, ``rhs = sum_i m_i I_i(x'; x)``,
    ``margin = lhs - rhs``.  Passes iff the margin is above ``-1e-9``.
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


def verify_step_inequality(expr: KneeJerkExpr, point: BlockPoint) -> InequalityReport:
    """Evaluate the per-step certificate at one interior point."""
    if not point.interior:
        raise ValueError("the step inequality is checked at interior points")
    res = knee_jerk_step(expr, point)
    lhs = res.W_new - res.W
    margin = lhs - res.bound
    return InequalityReport(
        lhs=lhs, rhs=res.bound, margin=margin, passed=margin >= -_MARGIN_TOL
    )


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
    block and rescaled by the weights.  ``samples`` must be at least 1.
    """
    if samples < 1:
        raise ValueError(f"samples must be a positive integer, got {samples!r}")
    if not point.interior:
        raise ValueError("the argmax check needs an interior base point")
    x = point.x
    g = eval_log(expr, x).g
    log_x = np.log(x)

    # bound(y) = g . (log y - log x); evaluate all competitors in one matmul.
    competitors = _dirichlet_rows(point.structure, rng, samples)
    with np.errstate(divide="ignore"):
        log_c = np.log(competitors)
    bounds = (log_c - log_x) @ g

    x_new = _certified_update(point, g)[0].x
    live = g > 0.0
    b_star = float(np.sum(g[live] * (np.log(x_new[live]) - log_x[live])))

    worst = int(np.argmax(bounds))
    margin = b_star - float(bounds[worst])
    return ArgmaxReport(
        passed=margin >= -_MARGIN_TOL,
        margin=margin,
        worst_competitor=competitors[worst],
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
    ``1e-6 * (1 + ||H||)``.  ``grad`` takes points in the drawn coordinates;
    the reported worst point is in ``x``.  A sample whose stencil has a NaN
    or infinite entry fails the probe, reported with eigenvalue NaN.
    """
    if samples < 1:
        raise ValueError(f"samples must be a positive integer, got {samples!r}")
    if rng is None:
        rng = np.random.default_rng(0)
    points = rng.uniform(*(_X_BOX if upper else _LOG_BOX), (samples, n))
    worst = (math.inf, -math.inf if upper else math.inf, 0)  # margin, eigenvalue, index
    for k, v in enumerate(points):
        H = _central_hessian_from_grad(grad, v, _STENCIL_H * v if upper else _STENCIL_H)
        if np.isfinite(H).all():
            eigs = np.linalg.eigvalsh(H)
            eig = float(eigs[-1] if upper else eigs[0])
            norm = max(abs(float(eigs[0])), abs(float(eigs[-1])))
            margin = (-eig if upper else eig) + _EIG_TOL * (1.0 + norm)
        else:
            # A NaN or infinite stencil has no trustworthy spectrum (eigvalsh
            # may even return finite values), so it is the worst sample.
            eig, margin = math.nan, -math.inf
        if margin < worst[0]:
            worst = (margin, eig, k)
    margin, eig, k = worst
    return ConvexityReport(
        samples=samples,
        worst_eigenvalue=eig,
        worst_point=points[k] if upper else np.exp(points[k]),
        passed=margin >= 0.0,
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
        lambda u: eval_log(expr, np.exp(u)).g, n, samples, rng, upper=False
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
        lambda x: eval_log(expr, x).g / x, n, samples, rng, upper=True
    )
