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

Probe failures on valid expressions indicate a bug; the probes are given
teeth by negative controls (see :func:`raw_u_function_for_tests` and the
``x^2 + y^2`` concavity counterexample).
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
from .mapping import knee_jerk_step
from .simplex import BlockPoint

__all__ = [
    "InequalityReport",
    "ArgmaxReport",
    "ConvexityReport",
    "tangent_lower_bound",
    "verify_step_inequality",
    "verify_argmax_property",
    "check_log_log_convexity",
    "check_log_concavity",
    "raw_u_function_for_tests",
]

_MARGIN_TOL = 1e-9
_EIG_TOL = 1e-6


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
    """Worst curvature sample from a convexity or concavity probe."""

    samples: int
    worst_eigenvalue: float
    worst_point: np.ndarray
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "samples": self.samples,
            "worst_eigenvalue": self.worst_eigenvalue,
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
    block and rescaled
    by the weights.
    """
    if not point.interior:
        raise ValueError("the argmax check needs an interior base point")
    s = point.structure
    x = point.x
    res = knee_jerk_step(expr, point)
    g = res.gradient
    log_x = np.log(x)

    # bound(y) = g . (log y - log x); evaluate all competitors in one matmul.
    competitors = np.empty((samples, s.n))
    for b, sl in zip(s.blocks, s.slices):
        p = rng.dirichlet(np.full(b, 1.0), size=samples)
        p = np.clip(p, 1e-300, None)
        p = p / p.sum(axis=1, keepdims=True)
        competitors[:, sl] = p / s.weights[sl]
    with np.errstate(divide="ignore"):
        log_c = np.log(competitors)
    bounds = (log_c - log_x) @ g

    x_new = res.x_new.x
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


@dataclass(eq=False)
class _RawUFunction:
    """Arbitrary log-domain function, for negative-control tests only."""

    n_vars: int
    u_value: Callable[[np.ndarray], float]
    u_gradient: Callable[[np.ndarray], np.ndarray]


def raw_u_function_for_tests(n_vars, value, gradient) -> _RawUFunction:
    """Test-only constructor wrapping raw ``W(u)`` / ``dW/du`` callables.

    This bypasses every guarantee the expression constructors enforce.  Its
    sole purpose is proving that the curvature probes reject functions from
    outside the closed class; never use it to feed the optimizer.
    """
    return _RawUFunction(int(n_vars), value, gradient)


def _u_gradient_fn(obj) -> tuple[int, Callable[[np.ndarray], np.ndarray]]:
    if isinstance(obj, _RawUFunction):
        return obj.n_vars, obj.u_gradient
    if isinstance(obj, KneeJerkExpr):
        n = max(obj.n_vars, 1)
        return n, lambda u: eval_log(obj, np.exp(u)).g
    raise ValueError(f"expected an expression, got {obj!r}")


def check_log_log_convexity(
    obj,
    samples: int = 100,
    box: tuple[float, float] = (-3.0, 3.0),
    rng: np.random.Generator | None = None,
    h: float = 1e-4,
) -> ConvexityReport:
    """Probe convexity of ``log Z`` in ``u = log x`` at random points.

    Samples ``u`` uniformly from ``box`` per coordinate and requires the
    smallest eigenvalue of the central-difference Hessian to stay above
    ``-1e-6 * (1 + ||H||)`` at every sample.  The reported worst point is in
    the original coordinates ``x = exp(u)``.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    n, grad = _u_gradient_fn(obj)
    lo, hi = box
    passed = True
    worst_margin = math.inf
    worst_eig = math.inf
    worst_point = np.exp(np.full(n, lo))
    for _ in range(samples):
        u = rng.uniform(lo, hi, n)
        H = _central_hessian_from_grad(grad, u, h)
        eigs = np.linalg.eigvalsh(H)
        mn = float(eigs[0])
        norm = max(abs(float(eigs[0])), abs(float(eigs[-1])))
        margin = mn + _EIG_TOL * (1.0 + norm)
        if margin < 0.0:
            passed = False
        if margin < worst_margin:
            worst_margin = margin
            worst_eig = mn
            worst_point = np.exp(u)
    return ConvexityReport(
        samples=samples,
        worst_eigenvalue=worst_eig,
        worst_point=worst_point,
        passed=passed,
    )


def check_log_concavity(
    expr: KneeJerkExpr,
    samples: int = 100,
    box: tuple[float, float] = (0.2, 2.0),
    rng: np.random.Generator | None = None,
    h: float = 1e-4,
) -> ConvexityReport:
    """Probe concavity of ``log Z`` in ``x`` itself at random positive points.

    This is a property of special objectives (graph discriminants have it);
    sums of squares like ``x^2 + y^2`` fail it, which is this probe's
    negative control.  Requires the largest eigenvalue of the Hessian of
    ``log Z`` in ``x`` to stay below ``1e-6 * (1 + ||H||)`` at every sample.
    The x-gradient is ``g_i / x_i``; stencil steps are relative
    (``h * x_i``) so points stay positive.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    if not isinstance(expr, KneeJerkExpr):
        raise ValueError(f"expected an expression, got {expr!r}")
    n = max(expr.n_vars, 1)
    lo, hi = box
    if lo <= 0.0:
        raise ValueError(f"the sampling box must be positive, got {box!r}")

    def xgrad(xv: np.ndarray) -> np.ndarray:
        return eval_log(expr, xv).g / xv

    passed = True
    worst_margin = math.inf
    worst_eig = -math.inf
    worst_point = np.full(n, lo)
    for _ in range(samples):
        x = rng.uniform(lo, hi, n)
        H = _central_hessian_from_grad(xgrad, x, h * x)
        eigs = np.linalg.eigvalsh(H)
        mx = float(eigs[-1])
        norm = max(abs(float(eigs[0])), abs(float(eigs[-1])))
        margin = _EIG_TOL * (1.0 + norm) - mx
        if margin < 0.0:
            passed = False
        if margin < worst_margin:
            worst_margin = margin
            worst_eig = mx
            worst_point = x
    return ConvexityReport(
        samples=samples,
        worst_eigenvalue=worst_eig,
        worst_point=worst_point,
        passed=passed,
    )
