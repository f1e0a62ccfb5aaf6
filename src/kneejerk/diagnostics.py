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

Every probe evaluates in batches, through
:func:`kneejerk.expr._eval_log_gradients`, with no loop over points.  The
two certificate checks are one-row calls of the sweep workers
``_step_sweep`` and ``_argmax_sweep``, which ``kneejerk.cli.run_verify``
calls on chunks of base points: one batched gradient at the rows, one call
of the step's kernel ``_certified_update`` on all of them (every guard holds
row by row), then one batched ``W`` at the new points or every competitor's
bound in one matrix product.  The caller draws the rows and competitors, so
memory follows its chunk, never the sample count.  The curvature probes draw
a chunk of samples at once, score all their ``2n``-point stencils with one
gradient call and take one stacked ``eigvalsh``.  A batched value can
differ from the point evaluation in its last bits.
"""

from __future__ import annotations

import math
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
from .simplex import BlockPoint, BlockStructure, _dirichlet_rows

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
# Stencil gradient entries (2n points x n per sample) in one probe chunk.
_PROBE_VALUES = 2**13


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


def _step_sweep(
    expr: KneeJerkExpr, structure: BlockStructure, X: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the per-step certificate at each row of ``X``, interior
    feasible points: ``lhs = W(x') - W(x)`` and ``rhs = sum_i m_i I_i``.

    One batched gradient at the rows, one update of all rows and one
    batched ``W`` at the new points."""
    W, G = _eval_log_gradients(expr, X)
    X_new, _, _, rhs, _, _ = _certified_update(X, G, structure)
    return _eval_log_values(expr, X_new) - W, rhs


def _argmax_sweep(
    expr: KneeJerkExpr, structure: BlockStructure, X: np.ndarray, C: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """For each row of ``X``, an interior feasible point, and its feasible
    competitors ``C[r]`` (competitors x coordinates): the margin
    ``bound(x') - max_k bound(C[r, k])`` of the tangent-plane bound
    ``bound(y) = g . (log y - log x)``, and the index of that worst
    competitor.

    One batched gradient at the rows, one update of all rows, and every
    competitor's bound in one product."""
    _, G = _eval_log_gradients(expr, X)
    X_new = _certified_update(X, G, structure)[0]
    log_X = np.log(X)
    with np.errstate(divide="ignore"):
        D = np.log(X_new) - log_X  # -inf where g = 0 sent x' to 0
    b_star = np.multiply(G, D, out=np.zeros_like(G), where=G > 0.0).sum(axis=1)
    D = np.log(C)  # one array the size of C, reused in place
    D -= log_X[:, None, :]
    bounds = np.matmul(D, G[:, :, None])[..., 0]
    worst = bounds.argmax(axis=1)
    return b_star - bounds[np.arange(len(X)), worst], worst


def verify_step_inequality(expr: KneeJerkExpr, point: BlockPoint) -> InequalityReport:
    """Evaluate the per-step certificate at one interior point."""
    if not point.interior:
        raise ValueError("the step inequality is checked at interior points")
    lhs, rhs = (float(v[0]) for v in _step_sweep(expr, point.structure, point.x[None]))
    margin = lhs - rhs
    return InequalityReport(
        lhs=lhs, rhs=rhs, margin=margin, passed=margin >= -_MARGIN_TOL
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
    competitors = _dirichlet_rows(point.structure, rng, samples)
    margin, worst = _argmax_sweep(expr, point.structure, point.x[None], competitors[None])
    margin = float(margin[0])
    return ArgmaxReport(
        passed=margin >= -_MARGIN_TOL,
        margin=margin,
        worst_competitor=competitors[worst[0]],
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
    if samples < 1:
        raise ValueError(f"samples must be a positive integer, got {samples!r}")
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
