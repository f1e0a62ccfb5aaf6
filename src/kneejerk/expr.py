"""Expression trees for positive objectives with overflow-safe log evaluation.

The node set (variables, positive constants, sums, products, positive powers)
is closed under exactly the operations that keep an objective smooth,
increasing, and log-log-convex on the positive orthant, so every tree built
from these constructors is a valid objective for the multiplicative update in
:mod:`kneejerk.mapping` by construction.

Evaluation works in the log domain, in one of two forms; each objective
compiles to one at most once and keeps it as ``_form``:

* The matrix form of a sum of monomials (:class:`_MatrixForm`): an exponent
  matrix ``E`` (terms x variables) and the vector ``log c`` of its
  coefficients.  With ``u = log x`` and ``z = E u + log c``, ``W =
  logsumexp(z)`` and ``g = softmax(z) @ E``: two matrix-vector products and
  no per-node loop.  There are two ways into it.  A
  :class:`MatrixPolynomial`, the one polynomial type and what every
  polynomial and graph source parses to, builds it from its own arrays at
  construction, with no tree.  A tree whose root is a sum of terms (or a
  single term), each a constant, a variable, a variable raised to a power,
  or a product of those, is compiled to it by :func:`_monomials`.
* Every other tree compiles to a flat slot tape (:class:`_SlotTape`): one
  forward pass computes the log-value of every node, one reverse pass
  accumulates softmax-weighted adjoints.

Both keep objectives such as ``x**34 * y**38 * (1 + 2x)**125`` finite where a
direct evaluation would overflow or underflow, and both return the gradient
weights ``g_i = x_i * dZ/dx_i / Z`` as exact nonnegative numbers (the tree
contains no subtraction).  The matrix form is taken only when no term can
overflow: every positive finite double has ``|log x| <= 745``, so a term
whose exponents sum to ``e`` stays within ``745 e + |log c|``.  A sum of
monomials whose bound reaches 1e300 keeps the slot tape, which carries
overflow through as ``inf`` or NaN where a matrix product could silently
drop the term; a :class:`MatrixPolynomial` keeps the slot tape of its tree
(:func:`polynomial_to_expression`).

A batch of points (the oracle's grid) is scored terms-major: ``Z = E U^T +
log c`` holds one column per point, so the max and the sum of each point
reduce across contiguous lanes.  With ``B = 745 max_r rowsum(E) + max |log
c|``, every live term has ``|z| <= B``, and ``log 0`` is replaced by the
finite ``S = -(2B + 746) / e_min``, ``e_min`` the smallest positive
exponent.  A term with a zero coordinate then lies at least 746 below its
point's largest live term, and a point with no live term has its max below
``-B``: no second product is needed to find dead terms, and no ``0 * -inf``
NaN can arise.  ``exp`` runs only on lanes above -745.2, below which it is
exactly 0.0 anyway.  A sum of monomials whose ``S`` would not be finite (an
exponent near the smallest double) keeps the slot tape.  The point
evaluation takes log 0 as ``S`` too, so a point with a zero coordinate needs
no mask of its dead terms, and it has no live term exactly when its largest
term is below ``-B``; where ``S`` times an exponent could pass the float
range, such a term overflows to ``-inf``, with the warning silenced.  One
helper, ``_term_table``, builds this table (each point's max ``m`` and
``exp(Z - m)``): the batch evaluation sums it per point, and the oracle in
:mod:`kneejerk.cli` builds it for each half of a grid cut at a coordinate,
with ``E`` restricted to that half's columns, and screens the points with
one product of the two tables per group of points whose halves pair up;
only the points the screen cannot rule out are then scored by the batch
evaluation.  A batch's gradients (:func:`_eval_log_gradients`, for the
certificate sweeps and Hessian stencils of :mod:`kneejerk.diagnostics`)
come from the same chunks: the matrix form multiplies each chunk's table
by ``E`` once, ``g = P^T E / sum P``, and the slot tape runs its forward
pass on arrays and its reverse pass on one array of adjoints per slot.

Expressions are immutable by convention: construct them, never mutate them
(a :class:`MatrixPolynomial`'s arrays are read-only).  The module holds no
mutable state; two threads compiling one tree at once build equal forms.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "KneeJerkExpr",
    "Var",
    "Const",
    "Sum",
    "Prod",
    "Pow",
    "MatrixPolynomial",
    "LogEval",
    "construct_expression",
    "expression_to_json_dict",
    "polynomial_to_expression",
    "eval_log",
    "hessian_log_u",
]


@dataclass
class KneeJerkExpr:
    """Base class for objective expression nodes."""

    def children(self) -> tuple["KneeJerkExpr", ...]:
        return ()

    @functools.cached_property
    def _form(self) -> "_MatrixForm | _SlotTape":
        """The compiled form, built on first use and kept on the object."""
        return _monomials(self) or _SlotTape(self)

    @property
    def n_vars(self) -> int:
        """1 + the largest variable index in the tree (0 for constant trees)."""
        return self._form.n


@dataclass
class Var(KneeJerkExpr):
    """A single coordinate ``x_i``."""

    index: int

    def __post_init__(self):
        if not isinstance(self.index, int) or isinstance(self.index, bool) or self.index < 0:
            raise ValueError(
                f"variable index must be a nonnegative integer, got {self.index!r}"
            )


def _positive(v, what: str) -> float:
    """``v`` as a finite positive float, else a ValueError naming ``what``
    (also for an integer too large for a float)."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValueError(f"{what} must be a number, got {v!r}")
    try:
        f = float(v)
    except OverflowError:
        raise ValueError(f"{what} is an integer too large for a float") from None
    if not math.isfinite(f) or f <= 0.0:
        raise ValueError(f"{what} must be finite and positive, got {f!r}")
    return f


@dataclass
class Const(KneeJerkExpr):
    """A positive constant."""

    value: float

    def __post_init__(self):
        self.value = _positive(self.value, "constant")


@dataclass
class Sum(KneeJerkExpr):
    """Sum of one or more subexpressions."""

    terms: tuple[KneeJerkExpr, ...]

    def __post_init__(self):
        self.terms = tuple(self.terms)
        if not self.terms:
            raise ValueError("sum node requires at least one term")
        for t in self.terms:
            _require_child(t, "sum term")

    def children(self):
        return self.terms


@dataclass
class Prod(KneeJerkExpr):
    """Product of one or more subexpressions."""

    factors: tuple[KneeJerkExpr, ...]

    def __post_init__(self):
        self.factors = tuple(self.factors)
        if not self.factors:
            raise ValueError("product node requires at least one factor")
        for f in self.factors:
            _require_child(f, "product factor")

    def children(self):
        return self.factors


@dataclass
class Pow(KneeJerkExpr):
    """A subexpression raised to a positive (possibly fractional) power."""

    base: KneeJerkExpr
    exponent: float

    def __post_init__(self):
        _require_child(self.base, "power base")
        self.exponent = _positive(self.exponent, "power exponent")

    def children(self):
        return (self.base,)


@dataclass(eq=False)
class MatrixPolynomial(KneeJerkExpr):
    """A positive polynomial ``sum_r c[r] prod_i x_i ** E[r, i]``, held as its
    exponent matrix with no tree: the package's one polynomial type.

    ``E`` (terms x variables, nonnegative integer exponents) and ``c``
    (positive coefficients) are stored as read-only float64 arrays, with
    ``log_c`` the log of each coefficient (zeros, with no log taken, when
    every coefficient is 1).  The rows are put in canonical order once, here:
    sorted lexicographically, with rows equal as float64 merged into one
    whose coefficient is their sum, added in input order.  The sort is one
    stable argsort of a mixed-radix key per row, ``E @ place`` with column
    ``j`` a digit of radix ``max_j + 1``, exact while the radices multiply to
    at most 2^53, and equal keys find the repeats; past that bound it is
    ``np.lexsort``, one stable sort per column, and the repeats are found by
    comparing rows (:func:`_lex_order`).  An integer-dtype ``E`` is checked
    for its sign only.  Trailing variables with exponent 0 in every term are
    dropped, so ``n_vars`` and the arrays equal those
    :func:`polynomial_to_expression` and the tree compile give for the same
    terms.  The compiled form is the matrix form over these arrays, except
    for a polynomial whose terms could overflow it or whose ``E`` would hold
    far more entries than nonzero exponents: that keeps the slot tape of its
    tree.

    It is a leaf (no children), equality compares the arrays, and a
    ``Sum``, ``Prod`` or ``Pow`` refuses it as a child.
    """

    E: np.ndarray
    c: np.ndarray
    log_c: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        integral = isinstance(self.E, np.ndarray) and self.E.dtype.kind in "biu"
        try:
            E = np.array(self.E, dtype=float)
        except OverflowError:
            raise ValueError("exponent is an integer too large for a float") from None
        c = np.array(self.c, dtype=float)
        if E.ndim != 2 or c.shape != (len(E),) or not len(E):
            raise ValueError(
                f"expected a (terms, variables) exponent matrix and one coefficient per "
                f"term, got shapes {E.shape} and {c.shape}"
            )
        top = E.max(axis=0).tolist()  # each column's largest exponent
        if integral:  # integers are finite and whole: only the sign is left
            ok = E.min(initial=0.0) >= 0.0
        else:  # floor(e) == |e| exactly for a nonnegative integer or +inf, never for NaN.
            ok = (np.floor(E) == np.abs(E)).all() and max(top, default=0.0) < math.inf
        if not ok:
            raise ValueError("exponents must be nonnegative integers")
        lo, hi = c.min(), c.max()
        if not 0.0 < lo <= hi < math.inf:
            raise ValueError("coefficients must be finite and positive")
        while top and not top[-1]:
            top.pop()
        E = E[:, : len(top)]
        if len(E) > 1:
            order, key = _lex_order(E, top)
            E, c = E[order], c[order]
            same = key[1:] == key[:-1] if key is not None else (E[1:] == E[:-1]).all(axis=1)
            if same.any():  # add each repeat to its row's first copy, in order
                first = np.append(True, ~same)
                merged = c[first]
                np.add.at(merged, np.cumsum(first)[~first] - 1, c[~first])
                E, c = E[first], merged
                lo, hi = c.min(), c.max()  # unit repeats add up to 2
        E = np.ascontiguousarray(E)
        unit = bool(lo == hi == 1.0)
        log_c = np.zeros(len(c)) if unit else np.array([math.log(v) for v in c.tolist()])
        for a in (E, c, log_c):
            a.setflags(write=False)
        self.E, self.c, self.log_c = E, c, log_c
        form = _MatrixForm(E, log_c, unit)
        if not (_dense_enough(E.shape, np.count_nonzero(E)) and form.B < _MAX_BOUND):
            form = _SlotTape(polynomial_to_expression(self))
        self._form = form

    def __eq__(self, other):
        if type(other) is not MatrixPolynomial:
            return NotImplemented
        return np.array_equal(self.E, other.E) and np.array_equal(self.c, other.c)

    @classmethod
    def from_json_dict(cls, data, path: str = "polynomial") -> "MatrixPolynomial":
        """The polynomial ``{"n": n, "terms": [{"c": c, "e": [...]}, ...]}``,
        each ``e`` a list of ``n`` nonnegative integers.  Errors name the
        offending field by its path."""
        if not isinstance(data, dict):
            raise ValueError(f"{path}: expected an object, got {type(data).__name__}")
        _check_keys(data, {"n", "terms"}, path)
        n = data.get("n")
        terms = data.get("terms")
        if not isinstance(terms, list):
            raise ValueError(f"{path}.terms: expected a list")
        for i, t in enumerate(terms):
            tp = f"{path}.terms[{i}]"
            if not isinstance(t, dict):
                raise ValueError(f"{tp}: expected an object with 'c' and 'e'")
            _check_keys(t, {"c", "e"}, tp)
            if "c" not in t or "e" not in t:
                raise ValueError(f"{tp}: missing 'c' or 'e'")
            if not isinstance(t["e"], list):
                raise ValueError(f"{tp}.e: expected a list of integers")
        try:
            if isinstance(n, bool) or not isinstance(n, int) or n < 1:
                raise ValueError(f"polynomial dimension must be a positive integer, got {n!r}")
            c = []
            for t in terms:
                c.append(_positive(t["c"], "coefficient"))
                e = t["e"]
                if len(e) != n:
                    raise ValueError(f"exponent vector {tuple(e)!r} has length {len(e)}, expected {n}")
                for k in e:
                    if type(k) is not int or k < 0:
                        raise ValueError(f"exponents must be nonnegative integers, got {k!r} in {tuple(e)!r}")
            if not terms:
                raise ValueError("polynomial requires at least one term")
            rows = [t["e"] for t in terms]
            try:  # an integer array is checked for its sign only
                E = np.array(rows, dtype=np.int64)
            except OverflowError:  # an exponent past int64 takes the float path and its errors
                E = rows
            return cls(E, c)
        except ValueError as err:
            raise ValueError(f"{path}: {err}") from None

    def to_json_dict(self, n: int) -> dict:
        """The JSON form :meth:`from_json_dict` reads, in ``n >= n_vars``
        variables: integer exponents, padded with zeros to ``n`` columns."""
        pad = [0] * (n - self.E.shape[1])
        return {
            "n": n,
            "terms": [
                {"c": c, "e": [int(k) for k in e] + pad}
                for c, e in zip(self.c.tolist(), self.E.tolist())
            ],
        }


def _lex_order(rows: np.ndarray, top: list) -> tuple[np.ndarray, np.ndarray | None]:
    """The stable lexicographic order of ``rows``, first column first (that
    of ``np.lexsort(rows.T[::-1])``), and the sorted row keys, or None.

    ``rows`` holds nonnegative integer values and the list ``top`` its
    column maxima.  Each row is read as a mixed-radix number: column ``j`` is
    a digit of radix ``top[j] + 1`` whose place value is the product of the
    radices after it.  When the radices multiply to at most 2^53, every
    partial sum of ``rows @ place`` is an integer of at most 2^53, exact in
    any order of summation, so one stable argsort of the keys is the
    lexicographic order, ties included, and equal keys mean equal rows.
    Past that bound (an overflow reads ``inf``: the places are Python floats)
    it falls back to ``np.lexsort``, one stable sort per column, and returns
    no key.  Rounding lets no larger product through: a radix or a product
    rounds to at most 2^53 only from 2^53 + 1, where the largest key is 2^53
    (a column whose maximum is 2^53 passes only when every other column is
    zero, and its key is then the column itself)."""
    place, span = [], 1.0
    for t in reversed(top):
        place.append(span)
        span *= t + 1.0
    if span <= 2.0**53:
        key = rows.dot(place[::-1])
        order = key.argsort(kind="stable")
        return order, key[order]
    return np.lexsort(rows.T[::-1]), None


def _require_child(node, what: str) -> None:
    if not isinstance(node, KneeJerkExpr):
        raise ValueError(f"{what} must be an expression node, got {node!r}")
    if type(node) is MatrixPolynomial:
        raise ValueError(
            f"{what} cannot be a MatrixPolynomial; nest its tree, "
            "polynomial_to_expression(polynomial), instead"
        )


@dataclass(eq=False)
class LogEval:
    """Result of a log-domain evaluation.

    Attributes
    ----------
    W : float
        ``log Z(x)``.
    g : numpy.ndarray
        Gradient weights ``g_i = x_i * dZ/dx_i / Z``, one per coordinate of
        the evaluated point.  Nonnegative exactly.
    """

    W: float
    g: np.ndarray


def _postorder(root: KneeJerkExpr) -> list[KneeJerkExpr]:
    """Children-before-parents node order; shared subtrees appear once."""
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for child in node.children():
            stack.append((child, False))
    return order


_LOG_RANGE = 745.0  # |log x| <= 745 for every positive finite double
_MAX_BOUND = 1e300  # a term bound B at or past this keeps the slot tape
_BATCH_TERMS = 2**16  # term values (512 KB) per chunk of a batch: stays in cache
_EXP_ZERO = -745.2  # exp(z) is exactly 0.0 for every z below this


class _MatrixForm:
    """The matrix form of a sum of monomials (module docstring): the exponent
    matrix ``E`` (terms x variables), the log-coefficients ``log_c`` and
    ``n``, the column count of ``E``, and ``unit``, true when every coefficient is 1.
    ``B`` and the stand-in ``S`` for log 0 are computed on first use: a
    :class:`MatrixPolynomial` needs only ``B``, for its guard, while built."""

    def __init__(self, E: np.ndarray, log_c: np.ndarray, unit: bool):
        self.E, self.log_c, self.n, self.unit = E, log_c, E.shape[1], unit

    @functools.cached_property
    def B(self) -> float:
        """Every term at a positive finite point has ``|z| <= B``."""
        with np.errstate(over="ignore"):  # an infinite exponent sum fails the guard
            return float(self.E.sum(axis=1).max() * _LOG_RANGE + np.abs(self.log_c).max())

    @functools.cached_property
    def S(self) -> float:
        """``-(2B + 746) / e_min``, ``e_min`` the smallest positive exponent:
        infinite when ``e_min`` is tiny."""
        e_min = self.E.min(initial=math.inf, where=self.E > 0.0)  # inf with no variable: S = -0.0
        with np.errstate(over="ignore"):
            return float(-(2.0 * self.B + 746.0) / e_min)

    @functools.cached_property
    def _dead_overflows(self) -> bool:
        """Whether ``E u`` can overflow when ``u`` holds ``S`` (every partial
        sum of a row is within ``rowsum * |S|``, ``rowsum <= B / 745``)."""
        return not self.B / _LOG_RANGE * -self.S < 1e308

    def point(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        """``W`` and ``g`` at ``x`` (see :func:`_eval_log_raw`), numpy's kernels
        called directly.  A zero coordinate takes log 0 as ``S``, as a batch
        does: a term that reads it lies at least 746 below the largest live
        term, so ``exp`` gives it exactly 0.0, and a live term reads it only
        with exponent 0, adding ``0 * S``, a zero.  So ``W`` and ``g`` are
        those of the limit, and no term is live exactly when the largest is
        below ``-B``."""
        E, n = self.E, self.n
        xs = x[:n]
        if all(xs.tolist()):  # faster than ndarray.all() on short vectors
            z = np.dot(E, np.log(xs))  # the BLAS product that @ calls, bit for bit
        else:
            zero = xs == 0.0
            u = np.log(xs + zero)  # log 1 = 0 where x is 0, then S
            u[zero] = self.S
            if self._dead_overflows:  # such a term is then -inf: exp still gives 0.0
                with np.errstate(over="ignore"):
                    z = np.dot(E, u)
            else:
                z = np.dot(E, u)
        if not self.unit:  # adding log c = 0 could change only the sign of a zero
            z += self.log_c
        m = z[z.argmax()]  # z.max(), NaN too, at less cost
        if m < -self.B:
            _raise_vanishes(-math.inf)
        z -= m
        s = np.add.reduce(np.exp(z, out=z))
        g = np.dot(z, E)
        g /= s
        if n < x.size:
            g = np.concatenate((g, np.zeros(x.size - n)))
        return float(m + math.log(s)), g

    def _tables(self, X: np.ndarray):
        """For each chunk of about ``_BATCH_TERMS`` term values: its rows of
        ``X``, their count and their :func:`_term_table`.  numpy multiplies
        and sums one column as vectors, which round unlike any longer chunk,
        so a lone row is scored twice: the table then has a column more than
        the count.  The caller drops each table before asking for the next,
        so at most two chunk-sized arrays are alive at once."""
        step = max(2, _BATCH_TERMS // len(self.E))
        for i in range(0, len(X), step):
            C = X[i : i + step, : self.n]
            yield slice(i, i + step), len(C), *_term_table(
                self.E, self.log_c, self.B, self.S, C if len(C) > 1 else np.vstack((C, C))
            )

    def values(self, X: np.ndarray) -> np.ndarray:
        """``W`` of each row of ``X`` (see :func:`_eval_log_values`)."""
        W = np.empty(len(X))
        with np.errstate(divide="ignore"):  # log 0 of a dead point's sum
            for rows, k, m, P in self._tables(X):
                W[rows] = (m + np.log(P.sum(axis=0)))[:k]
                del P
        return W

    def gradients(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``W`` and ``g`` of each row of ``X`` (see :func:`_eval_log_gradients`):
        each chunk's table, summed per point and multiplied by ``E`` once."""
        W, G = np.empty(len(X)), np.zeros(X.shape)
        for rows, k, m, P in self._tables(X):
            if m[m.argmin()] == -math.inf:
                _raise_vanishes(-math.inf)
            s = P.sum(axis=0)
            W[rows] = (m + np.log(s))[:k]
            G[rows, : self.n] = ((P.T @ self.E) / s[:, None])[:k]
            del P
        return W, G


class _SlotTape:
    """A tree's flat slot tape: one slot per distinct node, in
    :func:`_postorder` order.  ``kinds`` holds each slot's node type and
    ``args`` its variable index, the log of its constant, ``(base slot,
    exponent)`` or the tuple of its child slots; ``n`` is 1 + the largest
    variable index.  ``args`` holds only numbers, so the garbage collector
    stops tracking it: kept tapes do not slow later collections."""

    def __init__(self, root: KneeJerkExpr):
        order = _postorder(root)
        slot = {id(node): k for k, node in enumerate(order)}
        args, n = [], 0
        for node in order:
            t = type(node)
            if t is Var:
                arg = node.index
                n = max(n, arg + 1)
            elif t is Const:
                arg = math.log(node.value)
            elif t is Pow:
                arg = (slot[id(node.base)], node.exponent)
            else:
                arg = tuple(slot[id(c)] for c in node.children())
            args.append(arg)
        self.kinds = tuple(map(type, order))
        self.args, self.n = tuple(args), n

    def point(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        """``W`` and ``g`` at ``x`` (see :func:`_eval_log_raw`)."""
        kinds, args = self.kinds, self.args
        if all(x.tolist()):  # faster than ndarray.all() on short vectors
            u = np.log(x)
        else:
            with np.errstate(divide="ignore"):  # log 0 = -inf
                u = np.log(x)
        vals = _forward(self, u.tolist(), _lse_point)
        W = vals[-1]
        if not W > -math.inf:
            _raise_vanishes(W)
        g = [0.0] * x.size
        adj = [0.0] * (len(args) - 1) + [1.0]
        for k in range(len(args) - 1, -1, -1):
            a = adj[k]
            if a == 0.0:
                continue  # includes every dead (-inf) subtree
            t, arg = kinds[k], args[k]
            if t is Var:
                g[arg] += a
            elif t is Prod:
                for s in arg:
                    adj[s] += a
            elif t is Pow:
                adj[arg[0]] += a * arg[1]
            elif t is Sum:
                L = vals[k]
                for s in arg:
                    adj[s] += a * math.exp(vals[s] - L)  # exactly 0.0 for a dead child
        return W, np.array(g)

    def _passes(self, X: np.ndarray):
        """For each chunk of rows of ``X``: the rows and the log-value arrays
        of every slot (:func:`_forward`).  At least 256 rows per pass: each
        pass takes one Python step per slot, which dominates on a tree of
        thousands of slots when passes are short."""
        step = max(256, _BATCH_TERMS // len(self.args))
        lse = functools.partial(functools.reduce, np.logaddexp)
        for i in range(0, len(X), step):
            with np.errstate(divide="ignore"):
                vals = _forward(self, np.log(X[i : i + step]).T, lse)
            yield slice(i, i + step), vals

    def values(self, X: np.ndarray) -> np.ndarray:
        """``W`` of each row of ``X`` (see :func:`_eval_log_values`)."""
        W = np.empty(len(X))
        for rows, vals in self._passes(X):
            W[rows] = vals[-1]
        return W

    def gradients(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``W`` and ``g`` of each row of ``X`` (see :func:`_eval_log_gradients`):
        :meth:`point`'s reverse pass with one array of adjoints per slot.  A
        lane whose adjoint is 0 is skipped at a sum, as ``point`` skips the
        slot, so a dead subtree's ``-inf - (-inf)`` is never formed."""
        kinds, args = self.kinds, self.args
        W, G = np.empty(len(X)), np.zeros(X.shape)
        for rows, vals in self._passes(X):
            R = len(X[rows])
            Wk = np.broadcast_to(vals[-1], (R,))  # a constant tree's is a scalar
            if not Wk[Wk.argmin()] > -math.inf:  # argmin finds a NaN first
                _raise_vanishes(Wk[Wk.argmin()])
            W[rows] = Wk
            g = G[rows]
            adj: list = [None] * (len(args) - 1) + [np.ones(R)]
            for k in range(len(args) - 1, -1, -1):
                a = adj[k]  # every slot but the root has a parent later in the order
                t, arg = kinds[k], args[k]
                if t is Var:
                    g[:, arg] += a
                elif t is Prod:
                    for s in arg:
                        adj[s] = a if adj[s] is None else adj[s] + a
                elif t is Pow:
                    s = arg[0]
                    adj[s] = a * arg[1] if adj[s] is None else adj[s] + a * arg[1]
                elif t is Sum:
                    live = a != 0.0
                    for s in arg:
                        # exp(-inf) is exactly 0.0 for a dead child and a skipped lane
                        d = np.subtract(vals[s], vals[k], out=np.full(R, -math.inf), where=live)
                        w = a * np.exp(d)
                        adj[s] = w if adj[s] is None else adj[s] + w
        return W, G


def _monomials(expr: KneeJerkExpr) -> _MatrixForm | None:
    """The matrix form of a sum of monomials, or None for any other tree.

    Row ``r`` of ``E`` holds term ``r``'s exponents (a repeated variable adds
    up) and ``log c[r]`` the sum of the logs of its constant factors.  None
    also when a term could overflow or log 0 has no finite stand-in (see the
    module docstring), or when the dense ``E`` would hold far more entries
    than the tree has factors (a stray large variable index)."""
    terms = expr.terms if type(expr) is Sum else (expr,)
    rows: list[int] = []
    cols: list[int] = []
    exps: list[float] = []
    log_c = [0.0] * len(terms)
    for r, term in enumerate(terms):
        for f in term.factors if type(term) is Prod else (term,):
            t = type(f)
            if t is Var:
                rows.append(r)
                cols.append(f.index)
                exps.append(1.0)
            elif t is Pow and type(f.base) is Var:
                rows.append(r)
                cols.append(f.base.index)
                exps.append(f.exponent)
            elif t is Const:
                log_c[r] += math.log(f.value)
            else:
                return None
    n = max(cols, default=-1) + 1
    if not _dense_enough((len(terms), n), len(exps)):
        return None
    E = np.zeros((len(terms), n))
    with np.errstate(over="ignore"):  # an infinite exponent sum fails the guard
        np.add.at(E, (rows, cols), exps)
    form = _MatrixForm(E, np.array(log_c), not any(log_c))
    # Unlike a MatrixPolynomial's integer exponents (e_min >= 1), a fractional
    # one can be too small for log 0 to have a finite stand-in.
    return form if form.B < _MAX_BOUND and math.isfinite(form.S) else None


def _unit_monomials(E: np.ndarray) -> KneeJerkExpr:
    """The objective ``sum_r prod_i x_i ** E[r, i]``, compiled straight to
    the matrix form over the float64 ``E`` as given: no canonical order, no
    merge and none of :class:`MatrixPolynomial`'s guards.  The caller vouches
    for them: rows of small integer exponents, no two equal, dense enough."""
    E.setflags(write=False)
    objective = KneeJerkExpr()
    objective._form = _MatrixForm(E, np.zeros(len(E)), True)
    return objective


def _dense_enough(shape: tuple[int, int], entries: int) -> bool:
    """Whether a dense ``E`` of this shape holds at most about 16 times the
    tree's ``entries`` exponents (a stray large variable index fails)."""
    return shape[0] * shape[1] <= 16 * entries + 2**16


def _lse_point(vs: list[float]) -> float:
    """log(sum(exp(vs))), shifted by the largest term."""
    m = max(vs)
    if m == -math.inf:
        return sum(vs)  # -inf, or NaN when a NaN term sat behind the max
    acc = 0.0
    for v in vs:
        acc += math.exp(v - m)
    return m + math.log(acc)


def _forward(tape: _SlotTape, u, lse) -> list:
    """Log-values of every tape slot, from ``u = log x`` given as floats (one
    point) or as arrays (one per variable, a batch)."""
    vals: list = []
    for t, arg in zip(tape.kinds, tape.args):
        if t is Var:
            v = u[arg]
        elif t is Prod:
            v = 0.0
            for s in arg:
                v += vals[s]
        elif t is Const:
            v = arg
        elif t is Pow:
            v = arg[1] * vals[arg[0]]
        else:  # Sum
            v = lse([vals[s] for s in arg])
        vals.append(v)
    return vals


def _eval_log_raw(expr: KneeJerkExpr, x: np.ndarray) -> tuple[float, np.ndarray]:
    """``W`` and ``g`` at a validated nonnegative ``x``, from the objective's
    compiled form (built on the first call): two matrix-vector products for
    the matrix form, else a forward and a reverse pass over the slot tape.

    Zero coordinates are handled as limits: they get softmax weight exactly
    0.0 at every sum node, and therefore contribute exactly 0.0 to the
    gradient weights.  The slot tape carries log 0 as -inf; the matrix form
    takes it as the finite stand-in ``S``, which puts every term with a
    positive exponent on them at least 746 below the largest live term,
    where ``exp`` is exactly 0.0.  Raises ValueError when ``x`` has
    fewer coordinates than the objective has variables, when the objective
    vanishes on the support of ``x`` (W = -inf) or evaluates to NaN.
    """
    form = expr._form
    if form.n > x.size:
        raise ValueError(
            f"expression references variable {form.n - 1} but the point "
            f"has only {x.size} coordinates"
        )
    return form.point(x)


def _raise_vanishes(W: float):
    raise ValueError(
        f"objective vanishes or is NaN on the support of the given "
        f"point (W = {W}); the update is undefined there"
    )


def eval_log(expr: KneeJerkExpr, x) -> LogEval:
    """Evaluate ``log Z`` and the gradient weights at a strictly positive point.

    Parameters
    ----------
    expr : KneeJerkExpr
        The objective.
    x : array_like
        Strictly positive coordinates.  Length must cover every variable the
        expression references; surplus coordinates get gradient weight 0.

    Returns
    -------
    LogEval
        ``W = log Z(x)`` and ``g`` with ``g_i = x_i Z_xi / Z >= 0``.

    Notes
    -----
    Boundary points (coordinates equal to 0) are rejected here.  The step
    (:func:`kneejerk.mapping.knee_jerk_step`) evaluates them through
    ``_eval_log_raw``, where each compiled form's point evaluation holds the
    limit convention for them.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"expected a 1-D point, got shape {x.shape}")
    bad = np.where(~(x > 0.0) | ~np.isfinite(x))[0]
    if bad.size:
        i = int(bad[0])
        raise ValueError(
            f"eval_log requires strictly positive finite coordinates; x[{i}] = {x[i]}"
        )
    W, g = _eval_log_raw(expr, x)
    return LogEval(W=W, g=g)


def _eval_log_values(expr: KneeJerkExpr, X: np.ndarray) -> np.ndarray:
    """Log-values, no gradients, for a batch of nonnegative points (rows of
    X), from the objective's compiled form: one per row, even for a
    constant tree.  Used by the grid search in :mod:`kneejerk.cli`, on every
    point of a grid it scores row by row and on the points a split grid's
    screen selects.  The rows are evaluated in chunks of about
    ``_BATCH_TERMS`` term (or slot) values, or 256 rows of a slot tape if
    that is more, so memory does not grow with the batch.

    The matrix form scores each chunk terms-major, summing the table of
    :func:`_term_table` per point; a lone point is scored as two, so a row's
    value does not depend on its batch.  The sum over terms runs in another
    order than a row sum, so values can differ from the point evaluation in
    the last bits."""
    return expr._form.values(X)


def _eval_log_gradients(expr: KneeJerkExpr, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``W`` and ``g`` of each row of a batch of nonnegative points (rows of
    ``X``), as :func:`_eval_log_raw` gives them for one, from the objective's
    compiled form, with the same errors.  Used by the certificate sweeps and
    the Hessian stencils in :mod:`kneejerk.diagnostics`.

    The rows are evaluated in the chunks of :func:`_eval_log_values`, with
    its values as ``W``.  The matrix form multiplies each chunk's term table
    by ``E`` once; the slot tape runs its reverse pass on arrays.  Either
    way the sums run in another order than the point evaluation's, so
    values can differ from it in the last bits."""
    form = expr._form
    if form.n > X.shape[1]:
        raise ValueError(
            f"expression references variable {form.n - 1} but the points "
            f"have only {X.shape[1]} coordinates"
        )
    return form.gradients(X)


def _term_table(
    E: np.ndarray, log_c: np.ndarray, B: float, S: float, X: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The terms-major table of a chunk of points (module docstring): each
    point's largest term ``m`` and ``P = exp(Z - m)`` (terms x points), for
    the terms ``Z = E log(X)^T + log c`` with ``B`` their bound and ``S`` the
    stand-in for log 0.

    A point whose ``m`` is below ``-B`` has no live term: its column of
    ``P`` is all zero and its ``m`` is ``-inf``, so ``m + log(sum P)`` is
    ``log 0`` with no NaN.  ``X`` holds one column per column of ``E``; a
    single row is multiplied as a vector, which rounds unlike more rows, so
    the batch evaluation never passes one.  A single term is multiplied as
    two for the same reason: as a vector its value would depend on the
    point's place in the chunk."""
    # log 0 of a zero coordinate; products with S may overflow to -inf.
    with np.errstate(divide="ignore", over="ignore"):
        Z = (E if len(E) > 1 else np.vstack((E, E))) @ np.maximum(np.log(X), S).T
    Z = Z[: len(E)]
    Z += log_c[:, None]
    m = Z.max(axis=0)
    dead = m < -B
    m[dead] = 0.0  # every lane of a dead point is then skipped
    Z -= m
    P = np.exp(Z, out=np.zeros_like(Z), where=Z > _EXP_ZERO)
    m[dead] = -math.inf
    return m, P


def _central_hessian_from_grad(
    grad: Callable[[np.ndarray], np.ndarray], u: np.ndarray, h: float | np.ndarray
) -> np.ndarray:
    """Symmetrized central-difference Hessians from a gradient callable, one
    at each row of the ``(c, n)`` points ``u``.

    Row i of the raw stencil is (grad(u + h_i e_i) - grad(u - h_i e_i)) / 2h_i;
    ``h`` is one step, or one per coordinate (of each point).  ``grad`` maps
    ``(k, n)`` points to their gradients and is called once, on every point's
    ``2n`` stencil points in turn.  Averaging the (i, j) and (j, i) stencils
    makes the result symmetric by construction.
    """
    c, n = u.shape
    h = np.broadcast_to(np.asarray(h, dtype=float), u.shape)
    step = h[:, :, None] * np.eye(n)
    G = grad(np.concatenate((u[:, None] + step, u[:, None] - step), axis=1).reshape(-1, n))
    G = G.reshape(c, 2 * n, n)
    rows = (G[:, :n] - G[:, n:]) / (2.0 * h[:, :, None])
    return (rows + rows.transpose(0, 2, 1)) / 2.0


def hessian_log_u(expr: KneeJerkExpr, x, h: float = 1e-4) -> np.ndarray:
    """Hessian of ``W = log Z`` with respect to ``u = log x``, by central
    differences of the exact gradient weights.

    The returned matrix is symmetric by construction and accurate to O(h^2).
    For any valid expression its smallest eigenvalue is nonnegative up to
    stencil error (that is what the convexity probe in
    :mod:`kneejerk.diagnostics` checks).
    """
    x = np.asarray(x, dtype=float)
    eval_log(expr, x)  # validates the point
    return _central_hessian_from_grad(
        lambda U: _eval_log_gradients(expr, np.exp(U))[1], np.log(x)[None], h
    )[0]


# ---------------------------------------------------------------------------
# polynomial trees


def polynomial_to_expression(poly: MatrixPolynomial) -> KneeJerkExpr:
    """The polynomial as an expression tree, term by term in its canonical
    order: what nests it in a larger tree.

    Trivial wrappers collapse: single-term polynomials skip the sum node,
    unit coefficients and first powers are omitted, and a bare monomial
    ``1 * x_i`` becomes ``Var(i)``.
    """
    terms = []
    for c, e in zip(poly.c.tolist(), poly.E.tolist()):
        factors: list[KneeJerkExpr] = []
        if c != 1.0:
            factors.append(Const(c))
        for i, k in enumerate(e):
            if k == 0:
                continue
            factors.append(Var(i) if k == 1 else Pow(Var(i), k))
        if not factors:
            term: KneeJerkExpr = Const(c)
        elif len(factors) == 1:
            term = factors[0]
        else:
            term = Prod(tuple(factors))
        terms.append(term)
    return terms[0] if len(terms) == 1 else Sum(tuple(terms))


# ---------------------------------------------------------------------------
# serialization


def _check_keys(data: dict, allowed: set, path: str) -> None:
    extra = set(data) - allowed
    if extra:
        raise ValueError(f"{path}: unexpected field(s) {sorted(extra)!r}")


def construct_expression(data, path: str = "expression") -> KneeJerkExpr:
    """Build an expression tree from its JSON form.

    Nodes are objects tagged by ``op``: ``{"op": "var", "index": i}``,
    ``{"op": "const", "value": c}``, ``{"op": "sum", "terms": [...]}``,
    ``{"op": "prod", "factors": [...]}``,
    ``{"op": "pow", "base": {...}, "exponent": p}``.  Validation errors name
    the offending node by its path.
    """
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expression node must be an object, got {type(data).__name__}")
    op = data.get("op")
    try:
        if op == "var":
            _check_keys(data, {"op", "index"}, path)
            if "index" not in data:
                raise ValueError("missing field 'index'")
            return Var(data["index"])
        if op == "const":
            _check_keys(data, {"op", "value"}, path)
            if "value" not in data:
                raise ValueError("missing field 'value'")
            return Const(data["value"])
        if op == "sum":
            _check_keys(data, {"op", "terms"}, path)
            terms = data.get("terms")
            if not isinstance(terms, list):
                raise ValueError("field 'terms' must be a list")
            return Sum(
                tuple(
                    construct_expression(t, f"{path}.terms[{i}]")
                    for i, t in enumerate(terms)
                )
            )
        if op == "prod":
            _check_keys(data, {"op", "factors"}, path)
            factors = data.get("factors")
            if not isinstance(factors, list):
                raise ValueError("field 'factors' must be a list")
            return Prod(
                tuple(
                    construct_expression(f, f"{path}.factors[{i}]")
                    for i, f in enumerate(factors)
                )
            )
        if op == "pow":
            _check_keys(data, {"op", "base", "exponent"}, path)
            if "base" not in data:
                raise ValueError("missing field 'base'")
            if "exponent" not in data:
                raise ValueError("missing field 'exponent'")
            base = construct_expression(data["base"], f"{path}.base")
            return Pow(base, data["exponent"])
    except ValueError as err:
        msg = str(err)
        if msg.startswith(f"{path}.") or msg.startswith(f"{path}:"):
            raise  # already carries a node path
        raise ValueError(f"{path}: {msg}") from None
    raise ValueError(f"{path}: unknown op {op!r}; expected var|const|sum|prod|pow")


def expression_to_json_dict(expr: KneeJerkExpr) -> dict:
    """Inverse of :func:`construct_expression`."""
    t = type(expr)
    if t is Var:
        return {"op": "var", "index": expr.index}
    if t is Const:
        return {"op": "const", "value": expr.value}
    if t is Sum:
        return {"op": "sum", "terms": [expression_to_json_dict(c) for c in expr.terms]}
    if t is Prod:
        return {"op": "prod", "factors": [expression_to_json_dict(c) for c in expr.factors]}
    if t is Pow:
        return {
            "op": "pow",
            "base": expression_to_json_dict(expr.base),
            "exponent": expr.exponent,
        }
    raise ValueError(f"not an expression node: {expr!r}")
