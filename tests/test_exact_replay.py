"""An exact replay of the update, in rational arithmetic and outside numpy.

Every float is a dyadic rational, so a float iterate's exact normalization
and the exact update from it are rationals too.  The replay steps
``knee_jerk_step`` in floats and checks each step against that exact map: the
polynomial does not fall along it (the Baum-Eagon inequality), and the float
step lands within a fixed distance of it."""

import json
from fractions import Fraction

import numpy as np
import pytest

from kneejerk import BlockPoint, MatrixPolynomial, knee_jerk_step, mapping
from kneejerk.cli import parse_problem
from kneejerk.simplex import random_interior
from generators import random_multigraph, random_polynomial, random_structure

# The largest weighted distance max_j a_j |x'_j - T(x)_j| allowed between a
# float step and the exact one.
_STEP_TOL = Fraction(1, 2**40)


def _terms(objective):
    """The exact terms (float exponents and coefficients) of a
    MatrixPolynomial, or of a graph's class objective: its unit rows."""
    if isinstance(objective, MatrixPolynomial):
        return objective.E, objective.c
    E = objective._form.E
    return E, np.ones(len(E))


def _replay_exactly(objective, start: BlockPoint, steps: int = 30) -> None:
    """Step ``knee_jerk_step`` ``steps`` times from ``start`` and check each
    float iterate ``x`` against the exact map, in ``Fraction``s.

    ``x`` is first normalized exactly per block, ``x^ = x / sum_B a x``; the
    float iterate's blocks sum to 1 only within an ulp, which is enough to
    make ``p`` fall.  At ``x^`` the update is ``T(x^)_j = h_j / (a_j m_B)``
    with ``h_j = x^_j dp/dx_j = sum_r E_rj t_r`` over the term values ``t_r``
    and ``m_B`` the block's sum of ``h``; a block with ``m_B = 0`` keeps its
    point.  Asserts ``p(T(x^)) >= p(x^)`` and ``max_j a_j |x'_j - T(x^)_j|
    <= 2^-40`` for the float step ``x'``.

    Only the matrix form's terms are read, so an expression tree such as
    ``problems/dlr.json`` is out of scope, as is a polynomial whose
    ``Fraction`` powers grow too large to replay in time (the huge-exponent
    one).  This checks the update, not a rounding bound on the trace's ``W``."""
    E, c = _terms(objective)
    s = start.structure
    E = [[int(e) for e in row] + [0] * (s.n - len(row)) for row in E.tolist()]
    c = [Fraction(v) for v in c.tolist()]
    a = [Fraction(v) for v in s.weights.tolist()]
    blocks = [range(sl.start, sl.stop) for sl in s.slices]

    def p(x):
        return sum(cr * _monomial(x, row) for cr, row in zip(c, E))

    point = start
    for k in range(steps):
        x = [Fraction(v) for v in point.x.tolist()]
        for B in blocks:
            total = sum(a[j] * x[j] for j in B)
            for j in B:
                x[j] /= total
        t = [cr * _monomial(x, row) for cr, row in zip(c, E)]
        h = [sum(row[j] * tr for row, tr in zip(E, t)) for j in range(s.n)]
        T = list(x)
        for B in blocks:
            m = sum(h[j] for j in B)
            if m > 0:
                for j in B:
                    T[j] = h[j] / (a[j] * m)
        assert p(T) >= sum(t), f"step {k}: p falls along the exact update"
        point = knee_jerk_step(objective, point).x_new
        worst = max(a[j] * abs(Fraction(v) - T[j]) for j, v in enumerate(point.x.tolist()))
        assert worst <= _STEP_TOL, f"step {k}: the float step is {float(worst):.3g} from the exact one"


def _monomial(x, row):
    value = Fraction(1)
    for xj, e in zip(x, row):
        if e:
            value *= xj**e
    return value


def _class_solve(problem):
    """A graph problem's class objective and its start, the class sums of
    ``init``, as the solve iterates on them."""
    cls, objective, structure = problem._classes()
    return objective, BlockPoint(np.bincount(cls, problem.init.x, structure.n), structure)


@pytest.mark.parametrize("name", ["triangle.json", "k4.json"])
def test_shipped_graphs_replay_exactly(problem_dir, name):
    problem = parse_problem((problem_dir / name).read_text())
    _replay_exactly(problem.expression, problem.init)
    _replay_exactly(*_class_solve(problem))


def test_random_weighted_polynomials_replay_exactly():
    rng = np.random.default_rng(140)
    for _ in range(20):
        s = random_structure(rng, max_n=5)
        poly = random_polynomial(rng, s.n, max_degree=4, max_terms=6)
        _replay_exactly(poly, random_interior(s, rng))


def test_random_multigraph_class_objectives_replay_exactly():
    rng = np.random.default_rng(141)
    for _ in range(10):
        g = random_multigraph(rng, max_v=5, max_edges=8)
        blocks = random_structure(rng, n=len(g.edges), weighted=False).blocks
        weights = rng.choice([1.0, 2.0], len(g.edges)).tolist()
        data = {"expression": {"graph": g.to_json_dict()}, "blocks": blocks, "weights": weights,
                "init": "barycenter"}
        _replay_exactly(*_class_solve(parse_problem(json.dumps(data))))


def test_a_planted_gradient_fault_fails_the_replay(problem_dir, monkeypatch):
    real = mapping._eval_log_raw

    def faulty(e, x):
        W, g = real(e, x)
        g = np.array(g)
        g[0] *= 1 + 1e-9
        return W, g

    monkeypatch.setattr(mapping, "_eval_log_raw", faulty)
    problem = parse_problem((problem_dir / "triangle.json").read_text())
    with pytest.raises(AssertionError, match="from the exact one"):
        _replay_exactly(problem.expression, problem.init)
