"""Output checks that do not go through ``kneejerk.expr``.

Objectives are re-evaluated from the plain form kept on each ``Item``: graphs
by the Laplacian cofactor (``eval_matrix_tree_log``, plus the benchmark's own
effective resistances for the Kiefer-Wolfowitz bound), polynomials term by
term, trees by a recursive log-domain walk written here.
"""

from __future__ import annotations

import math

import numpy as np

from kneejerk.discriminant import Graph, eval_matrix_tree_log

SLACK_TOL = 1e-9
W_RTOL = 1e-9
# Largest certified optimality gap accepted at a converged graph solve.  The
# default stopping rule (step divergence below 1e-12) leaves gaps near 1e-6.
KW_GAP_TOL = 1e-4


def _logsumexp(values) -> float:
    m = max(values)
    if m == -math.inf:
        return -math.inf
    return m + math.log(sum(math.exp(v - m) for v in values))


def _log(x: float) -> float:
    return math.log(x) if x > 0.0 else -math.inf


def poly_log(poly: dict, x) -> float:
    logs = [_log(float(v)) for v in x]
    vals = []
    for t in poly["terms"]:
        v = math.log(t["c"])
        for k, lx in zip(t["e"], logs):
            if k:
                v += k * lx
        vals.append(v)
    return _logsumexp(vals)


def tree_log(node: dict, x) -> float:
    op = node["op"]
    if op == "var":
        return _log(float(x[node["index"]]))
    if op == "const":
        return math.log(node["value"])
    if op == "pow":
        return node["exponent"] * tree_log(node["base"], x)
    if op == "sum":
        return _logsumexp([tree_log(c, x) for c in node["terms"]])
    return sum(tree_log(c, x) for c in node["factors"])


def graph_log(graph: dict, x) -> float:
    g = Graph(graph["vertices"], tuple(tuple(e) for e in graph["edges"]))
    return eval_matrix_tree_log(g, [float(v) for v in x])


def objective_log(item, x) -> float:
    if item.kind == "graph":
        return graph_log(item.source, x)
    if item.kind == "poly":
        return poly_log(item.source, x)
    return tree_log(item.source, x)


def kw_gap(graph: dict, x) -> float:
    """Kiefer-Wolfowitz bound on ``W* - W(x)`` for a one-block, unit-weight
    graph problem: ``max_e g_e / x_e - sum_e g_e`` with ``g_e = x_e R_e``,
    ``R_e`` the effective resistance of edge e at weights x."""
    V = graph["vertices"]
    edges = graph["edges"]
    x = np.asarray(x, dtype=float)
    inc = np.zeros((len(edges), V))
    for k, (u, v) in enumerate(edges):
        inc[k, u] = 1.0
        inc[k, v] = -1.0
    inc = inc[:, :-1]
    lap = inc.T @ (x[:, None] * inc)
    resistance = np.einsum("ij,ij->i", inc @ np.linalg.inv(lap), inc)
    return float(np.max(resistance) - np.sum(x * resistance))


def check_solve(item, trace, summary, init) -> list[str]:
    """Every failed check, as a message; empty when the solve is correct."""
    errors = []
    w_prev = objective_log(item, init)
    worst = math.inf
    for rec in trace.records:
        worst = min(worst, rec.W - w_prev - rec.bound)
        w_prev = rec.W
    if not worst >= -SLACK_TOL:
        errors.append(f"certificate slack {worst!r} below -{SLACK_TOL}")
    x = trace.x_final.x
    w_ref = objective_log(item, x)
    if not abs(summary["W"] - w_ref) <= W_RTOL * max(1.0, abs(w_ref)):
        errors.append(f"terminal W {summary['W']!r} != reference {w_ref!r}")
    if item.kind == "graph" and summary["status"] == "converged":
        gap = kw_gap(item.source, x)
        if not gap <= KW_GAP_TOL:
            errors.append(f"Kiefer-Wolfowitz gap {gap!r} above {KW_GAP_TOL}")
    return errors


def check_verify(report: dict, negative: bool) -> list[str]:
    if negative:
        if report["pass"] or report["negative_control"]["pass"]:
            return ["negative control was not detected"]
        return []
    return [] if report["pass"] else ["verify failed on a valid problem"]


def check_oracle(result) -> list[str]:
    if not result.gap >= -result.error_bound:
        return [f"oracle gap {result.gap!r} below -{result.error_bound!r}"]
    return []
