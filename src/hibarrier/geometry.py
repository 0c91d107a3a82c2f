"""Constraint-described subsets of R^n: membership, cones, distance, sampling.

A set is a tree of sublevel constraints c(x) <= 0 combined by intersection and
union. Half-open leaves (c(x) < 0) keep strict membership at tolerance zero
and behave as their closure for distance and projection.
"""

from __future__ import annotations

import enum
import itertools
import math
import zlib
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .expr import compile_source, inline
from .fields import EvaluationError, ScalarField, gradient

__all__ = [
    "Membership",
    "NonConvergence",
    "PreconditionError",
    "Leaf",
    "Intersection",
    "Union",
    "SetDescription",
    "SampleResult",
    "Transversality",
    "minkowski",
    "transversality_check",
    "LinearizedCone",
    "linearized_cone",
    "Projection",
    "projection",
    "contingent_min_ratio",
    "external_min_ratio",
    "sample",
    "sample_boundary",
    "rng_for",
]


class Membership(enum.Enum):
    INSIDE = "inside"
    BOUNDARY = "boundary"
    OUTSIDE = "outside"


class NonConvergence(RuntimeError):
    """The distance solver found no feasible point within its budget."""


class PreconditionError(ValueError):
    pass


# Fixed numerical settings of the infinitesimal conditions.
EPS_ACT = 1e-6   # a constraint is active at x when |c(x)| <= EPS_ACT
CONE_TOL = 1e-3  # a cone ratio at most CONE_TOL counts as membership
# the h-sequence of the liminf-style cone ratios: 1e-2 * 0.5^i, i < 20,
# down to the distance solver's noise floor 1e-6
CONE_H = tuple(h for h in (1e-2 * 0.5 ** i for i in range(20)) if h >= 1e-6)
_FEAS_TOL = 1e-9       # projection and restoration: max_j c_j(y) <= _FEAS_TOL
_NEWTON_MAXITER = 40   # Lagrange-Newton iterations per projection start
# Blocks of fewer rows are classified and restored one row at a time, where
# numpy's fixed cost per call outweighs the rows: on expcount's K, 64 rows
# took 131 us in classify_many and 96 us in classify calls, 128 rows 134 us
# and 210 us (thermostat's K: 134/127 and 145/230 us).
_ROWS_MIN = 96


# ---------------------------------------------------------------------------
# Set trees


@dataclass(frozen=True)
class Leaf:
    constraint: ScalarField
    strict: bool = False  # c(x) < 0 instead of c(x) <= 0


@dataclass(frozen=True)
class Intersection:
    children: tuple


@dataclass(frozen=True)
class Union:
    children: tuple


Node = Leaf | Intersection | Union

_MEMBERSHIP = (Membership.INSIDE, Membership.BOUNDARY, Membership.OUTSIDE)


def _fold_rows(w: np.ndarray, fine: np.ndarray, on: np.ndarray, r: np.ndarray,
               ok: np.ndarray, stop: int) -> np.ndarray:
    """One child of an inner node, for the rows `on` that reach it: the
    child's rank r folds into w (max for an intersection, whose stop rank is
    2, min for a union), rows where the child failed (not ok) leave `fine`,
    and the rows that go on to the next child are returned."""
    w[on] = np.maximum(w[on], r) if stop == 2 else np.minimum(w[on], r)
    if np.count_nonzero(ok) < len(ok):
        fine[on[~ok]] = False
        return on[ok & (r != stop)]
    return on[r != stop]


def _compile_classifier(root: Node, rows: bool = False):
    """One generated function f(x, tol, strict_tol) -> rank, where ranks 0, 1,
    2 index _MEMBERSHIP. Leaves are evaluated in tree order through their
    value_checked; an intersection stops at its first outside child, a union
    at its first inside one. A child of the same kind as its parent is
    spliced in (the same leaves in the same order, the same stopping point);
    every other inner node gets its own function. A leaf whose field carries
    its expression (config builds such fields) is inlined: its node function
    unpacks x once, the expression's generated lines compute the value in
    place of the value_checked call, and only a non-finite value calls
    value_checked, which raises the same EvaluationError.

    With `rows`, the same tree gives f(X, tol, strict_tol) -> (ranks, fine)
    for an (N, n) block: each node evaluates a child only on the rows that
    reach it, through the leaves' value_rows, and `fine` is False on the rows
    where a reached leaf is non-finite, which are exactly the rows where the
    one-point function raises."""
    namespace: dict[str, object] = {"_fold": _fold_rows, "_add": np.add, "_i8": np.int8,
                                    "_isfinite": np.isfinite, "_arange": np.arange,
                                    "_full": np.full, "_ones": np.ones}
    sources: list[str] = []
    if rows:
        # (v >= -tol) + (v > tol) is 0 below -tol, 1 within tol and 2 above
        closed = "_add(v >= -tol, v > tol, dtype=_i8)"
        strict = ("(_add(v >= 0.0, v >= 0.0, dtype=_i8) if st == 0.0 "
                  "else _add(v >= -st, v > st, dtype=_i8))")
    else:
        closed = "0 if v < -tol else 2 if v > tol else 1"
        strict = "(0 if v < 0.0 else 2) if st == 0.0 else (0 if v < -st else 2 if v > st else 1)"

    def inlined(node: Node) -> bool:
        return not rows and isinstance(node, Leaf) and node.constraint.ast is not None

    def leaf_lines(leaf: Leaf, arg: str, indent: str) -> list[str]:
        """Lines that leave the leaf's value, checked, in v."""
        checked = f"vc{len(namespace)}"
        c = leaf.constraint
        namespace[checked] = c.value_rows if rows else c.value_checked
        if not inlined(leaf):
            return [f"{indent}v = {checked}({arg})"]
        lines, value, needs = inline(c.ast, [f"x{i}" for i in range(c.n)], f"{checked}_")
        namespace.update(needs)
        # v - v is 0.0 for every finite v and nan otherwise
        return [f"{indent}{line}" for line in [*lines, f"v = {value}",
                                               "if v - v != 0.0:", f"    v = {checked}(x)"]]

    def unpack(nodes: list[Node]) -> list[str]:
        """x as the locals x0, x1, ... when one of the nodes is an inlined leaf."""
        n = next((node.constraint.n for node in nodes if inlined(node)), 0)
        return [f"    {', '.join(f'x{i}' for i in range(n))}, = x.tolist()"] if n else []

    def children(node: Node) -> list[Node]:
        out: list[Node] = []
        for child in node.children:
            out.extend(children(child) if type(child) is type(node) else [child])
        return out

    def node_function(node: Node) -> str:
        inner: list[str] = []
        if isinstance(node, Leaf):
            rank = strict if node.strict else closed
            body = [*unpack([node]), *leaf_lines(node, "x", "    "),
                    f"    return {rank}, _isfinite(v)" if rows else f"    return {rank}"]
        elif isinstance(node, (Intersection, Union)):
            stop = 2 if isinstance(node, Intersection) else 0
            kids = children(node)
            body = ([f"    w = _full(len(x), {2 - stop})", "    fine = _ones(len(x), bool)",
                     "    on = _arange(len(x))"] if rows else [*unpack(kids), f"    w = {2 - stop}"])
            for child in kids:
                if isinstance(child, Leaf):
                    rank = strict if child.strict else closed
                else:
                    inner.append(node_function(child))
                if rows:
                    sub = "x[on] if len(on) < len(x) else x"
                    body += (["    if len(on):", *leaf_lines(child, sub, "        "),
                              f"        on = _fold(w, fine, on, {rank}, _isfinite(v), {stop})"]
                             if isinstance(child, Leaf) else
                             ["    if len(on):",
                              f"        on = _fold(w, fine, on, *{inner[-1]}({sub}, tol, st), {stop})"])
                else:
                    body += ([*leaf_lines(child, "x", "    "), f"    r = {rank}"]
                             if isinstance(child, Leaf) else [f"    r = {inner[-1]}(x, tol, st)"])
                    body += [f"    if r {'>' if stop == 2 else '<'} w:", f"        if r == {stop}:",
                             f"            return {stop}", "        w = r"]
            body.append("    return w, fine" if rows else "    return w")
        else:
            raise TypeError(f"not a set node: {node!r}")
        # inner nodes reach their children through default arguments, so
        # that no function is referenced from its own globals: a set's
        # classifier holds no reference cycle and is freed with the set
        name = f"node{len(sources)}"
        params = "".join(f", {child}={child}" for child in inner)
        sources.append("\n".join([f"def {name}(x, tol, st{params}):", *body]))
        return name

    node_function(root)
    del node_function, children  # recursive closures: free them without the collector
    exec(compile_source("\n\n".join(sources) + "\n", "<hibarrier.geometry classifier>"),
         namespace)
    nodes = [namespace.pop(f"node{i}") for i in range(len(sources))]
    return nodes[-1]


def _value_node(node: Node, x: np.ndarray) -> float:
    if isinstance(node, Leaf):
        return node.constraint.value_checked(x)
    if isinstance(node, Intersection):
        return max(_value_node(child, x) for child in node.children)
    if isinstance(node, Union):
        return min(_value_node(child, x) for child in node.children)
    raise TypeError(f"not a set node: {node!r}")


def _closure_node(node: Node) -> Node:
    if isinstance(node, Leaf):
        return replace(node, strict=False) if node.strict else node
    if isinstance(node, Intersection):
        return Intersection(tuple(_closure_node(c) for c in node.children))
    return Union(tuple(_closure_node(c) for c in node.children))


def _dnf_node(node: Node) -> list[tuple[Leaf, ...]]:
    if isinstance(node, Leaf):
        return [(node,)]
    if isinstance(node, Union):
        out: list[tuple[Leaf, ...]] = []
        for child in node.children:
            out.extend(_dnf_node(child))
        return out
    if isinstance(node, Intersection):
        terms: list[tuple[Leaf, ...]] = [()]
        for child in node.children:
            child_terms = _dnf_node(child)
            terms = [t + c for t in terms for c in child_terms]
            if len(terms) > 64:
                raise PreconditionError("set tree DNF exceeds 64 terms")
        return terms
    raise TypeError(f"not a set node: {node!r}")


@dataclass(frozen=True)
class SetDescription:
    """A subset of R^n described by a constraint tree."""

    n: int
    root: Node
    name: str = ""

    def classify(self, x: Sequence[float] | np.ndarray, tol: float,
                 strict_tol: float | None = None) -> Membership:
        """Membership at tolerance `tol`; half-open leaves use `strict_tol`
        instead (0 keeps their strict semantics while `tol` absorbs noise
        on the closed leaves)."""
        if tol < 0:
            raise PreconditionError("tol must be >= 0")
        st = tol if strict_tol is None else strict_tol
        return _MEMBERSHIP[self._classifier(np.asarray(x, dtype=float), tol, st)]

    @cached_property
    def _classifier(self):
        return _compile_classifier(self.root)

    def classify_many(self, X: np.ndarray, tol: float,
                      strict_tol: float | None = None) -> tuple[np.ndarray, np.ndarray]:
        """(ranks, err) for the rows of an (N, n) block: ranks[i] indexes
        (INSIDE, BOUNDARY, OUTSIDE) and equals classify(X[i], tol,
        strict_tol) wherever err[i] is False; err[i] marks a row where
        classify raises EvaluationError, and ranks[i] means nothing there.
        A block of fewer than _ROWS_MIN rows runs classify's function on
        each row; a larger one runs the row classifier."""
        if tol < 0:
            raise PreconditionError("tol must be >= 0")
        st = tol if strict_tol is None else strict_tol
        X = np.asarray(X, dtype=float)
        if len(X) < _ROWS_MIN:
            ranks, err = np.empty(len(X), np.int8), np.zeros(len(X), bool)
            for i, x in enumerate(X):
                try:
                    ranks[i] = self._classifier(x, tol, st)
                except EvaluationError:
                    err[i] = True
            return ranks, err
        with np.errstate(all="ignore"):
            ranks, fine = self._row_classifier(X, tol, st)
        return ranks, ~fine

    @cached_property
    def _row_classifier(self):
        return _compile_classifier(self.root, rows=True)

    def value(self, x: Sequence[float] | np.ndarray) -> float:
        """Signed level proxy by min/max composition (<=0 on the closure)."""
        return _value_node(self.root, np.asarray(x, dtype=float))

    def closure(self) -> "SetDescription":
        """The set with every strict leaf made closed; built once and kept,
        so its compiled classifier is shared by every caller."""
        return self._closure

    @cached_property
    def _closure(self) -> "SetDescription":
        return SetDescription(self.n, _closure_node(self.root), self.name)

    def dnf(self) -> list[tuple[Leaf, ...]]:
        return _dnf_node(self.root)

    @cached_property
    def _terms(self) -> list[tuple[Leaf, ...]]:
        """The DNF terms that projections search, built once per set: a term
        holding a constant leaf > 0 is empty and dropped, and constant leaves
        <= 0 are dropped from their terms."""
        out = []
        for term in self.dnf():
            consts = [_constant_value(leaf) for leaf in term]
            if not any(c is not None and c > 0.0 for c in consts):
                out.append(tuple(leaf for leaf, c in zip(term, consts) if c is None))
        return out

    def leaves(self) -> list[Leaf]:
        """The leaves in tree order, by an explicit stack, not a recursive
        closure, so that a call leaves no reference cycle behind."""
        out: list[Leaf] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if isinstance(node, Leaf):
                out.append(node)
            else:
                stack.extend(reversed(node.children))
        return out


def _constant_value(leaf: Leaf) -> float | None:
    """The value of an affine leaf with a zero gradient, else None; an affine
    gradient is the same everywhere, so the origin stands for every point."""
    c = leaf.constraint
    if not c.affine:
        return None
    origin = np.zeros(c.n)
    try:
        if np.any(gradient(c, origin) != 0.0):
            return None
        return c.value_checked(origin)
    except EvaluationError:
        return None


# ---------------------------------------------------------------------------
# Distance and projection


def _newton_feasibility(leaves: Sequence[Leaf], y: np.ndarray, iters: int = 25,
                        slack: float = 0.0) -> np.ndarray:
    """Push the most violated constraint toward feasibility until every
    c_j(y) <= slack: a pre-pass before a local solve, and its polish."""
    y = y.copy()
    for _ in range(iters):
        vals = [leaf.constraint.value_checked(y) for leaf in leaves]
        worst = int(np.argmax(vals))
        if vals[worst] <= slack:
            return y
        g = gradient(leaves[worst].constraint, y)
        gg = float(g @ g)
        if gg < 1e-18:
            return y
        y = y - (vals[worst] / gg) * g
    return y


# The kernels of the Lagrange-Newton loop run on lists of floats: vectors
# have 2 or 3 entries, where numpy's cost per call outweighs the arithmetic.
# Their sums round as Python's, not as BLAS's fused multiply-adds, so they
# agree with numpy's results to rounding, not bit for bit. Each sum starts
# from 0.0 and adds its terms left to right in a loop; the kernels called
# most (`_dot`, the substitutions, Gram-Schmidt) also write it out for
# 2-vectors. That is what Python 3.11's builtin sum computed here before (it
# starts from the int 0, and 0 + p is 0.0 + p), so the answers keep their
# bits; and no sum goes through the builtin, whose float algorithm is
# compensated from Python 3.12 on. A sum of no terms is left out where it
# was subtracted, as p - 0.0 is p.


def _dot(a: Sequence[float], b: Sequence[float]) -> float:
    if len(a) == 2:
        return 0.0 + a[0] * b[0] + a[1] * b[1]
    s = 0.0
    for p, q in zip(a, b):
        s += p * q
    return s


def _sqdist(a: Sequence[float], b: Sequence[float]) -> float:
    """|a - b|^2."""
    s = 0.0
    for p, q in zip(a, b):
        s += (p - q) * (p - q)
    return s


def _cholesky(M: list[list[float]]) -> list[list[float]] | None:
    """The lower triangular L, as rows, with L L^T = M, by the textbook
    algorithm on M's lower triangle; None where a pivot is not positive, or
    not a number, so that M is not positive definite in floating point."""
    L: list[list[float]] = []
    for i, Mi in enumerate(M):
        row: list[float] = []
        for k in range(i):
            Lk = L[k]
            s = 0.0
            for j in range(k):
                s += row[j] * Lk[j]
            row.append((Mi[k] - s) / Lk[k])
        s = 0.0
        for v in row:
            s += v * v
        s = Mi[i] - s
        if not s > 0.0:
            return None
        row.append(math.sqrt(s))
        L.append(row)
    return L


def _solve_lower(L: list[list[float]], w: Sequence[float]) -> list[float]:
    """x with L x = w, for L lower triangular, as rows, with a nonzero
    diagonal (forward substitution)."""
    if len(L) == 2:
        x0 = w[0] / L[0][0]
        return [x0, (w[1] - (0.0 + L[1][0] * x0)) / L[1][1]]
    x: list[float] = []
    for i, row in enumerate(L):
        s = 0.0
        for k in range(i):
            s += row[k] * x[k]
        x.append((w[i] - s) / row[i])
    return x


def _solve_upper(L: list[list[float]], w: Sequence[float]) -> list[float]:
    """x with L^T x = w, for L as in `_solve_lower` (back substitution)."""
    if len(L) == 2:
        x1 = w[1] / L[1][1]
        return [(w[0] - (0.0 + L[1][0] * x1)) / L[0][0], x1]
    n = len(L)
    x = [0.0] * n
    for i in reversed(range(n)):
        s = 0.0
        for k in range(i + 1, n):
            s += L[k][i] * x[k]
        x[i] = (w[i] - s) / L[i][i]
    return x


def _orthogonalized(Q: list[list[float]], a: Sequence[float]
                    ) -> tuple[list[float], list[float]]:
    """(c, v): the coefficients c of a on the orthonormal rows Q and the part
    v = a - sum_j c_j Q_j of a orthogonal to them, by modified Gram-Schmidt
    taken twice, so that v stays orthogonal where a nearly depends on Q."""
    c = [0.0] * len(Q)
    if len(a) == 2:
        v0, v1 = a
        for _ in range(2):
            for j, (q0, q1) in enumerate(Q):
                s = 0.0 + q0 * v0 + q1 * v1
                c[j] += s
                v0, v1 = v0 - s * q0, v1 - s * q1
        return c, [v0, v1]
    v = list(a)
    for _ in range(2):
        for j, q in enumerate(Q):
            s = _dot(q, v)
            c[j] += s
            v = [vi - s * qi for vi, qi in zip(v, q)]
    return c, v


def _factor_append(Q: list[list[float]], T: list[list[float]], c: list[float],
                   v: list[float]) -> None:
    """Extend N = T Q by a row with coefficients c on Q and orthogonal part
    v != 0 (`_orthogonalized`): Q's rows stay orthonormal and T lower
    triangular, the QR factorization N^T = Q^T T^T of the rows N."""
    norm = math.sqrt(_dot(v, v))
    Q.append([vi / norm for vi in v])
    T.append(c + [norm])


def _qp_project(A: list[Sequence[float]], b: list[float], z: Sequence[float]
                ) -> tuple[list[float], list[float]] | None:
    """(y, lam): the closest point y to z of {y : A y <= b} and the rows'
    multipliers lam >= 0, with y = z - A^T lam; None when the rows are
    inconsistent. A is a list of rows; vectors are lists of floats. This is
    the dual active-set method of Goldfarb and Idnani (1983) for an identity
    Hessian (Nocedal & Wright, ch. 16). From z, the most violated row joins
    a set of linearly independent active rows; an active row whose
    multiplier would turn negative first leaves the set. A row that depends
    on the active ones, such as -x2 beside x2, never joins it. Rows are
    scaled to unit norm, so the tolerance is a distance. The active rows N
    are held factored as N = T Q by Gram-Schmidt (`_factor_append`), never
    through normal equations, which square the conditioning of rows that
    nearly depend on each other."""
    # a zero row keeps the scale 1: it holds everywhere or nowhere
    scale = [s if s > 0.0 else 1.0 for s in (math.sqrt(_dot(a, a)) for a in A)]
    An = [[v / s for v in a] for a, s in zip(A, scale)]
    bn = [bj / s for bj, s in zip(b, scale)]
    tol = 1e-12 * (1.0 + max(map(abs, z)))
    y = list(z)
    lam = [0.0] * len(b)
    active: list[int] = []
    Q: list[list[float]] = []
    T: list[list[float]] = []
    for _ in range(4 * (len(b) + len(z)) + 8):
        # the row violated most in its own units joins, so that of dependent
        # rows the one with the larger gradient carries the multiplier
        p, worst = -1, -math.inf
        for i, (a, bi, s) in enumerate(zip(An, bn, scale)):
            v = _dot(a, y) - bi
            if v > tol and v * s > worst:
                p, worst = i, v * s
        if p < 0 or p in active:  # only rounding leaves an active row violated
            return y, [max(li, 0.0) / s for li, s in zip(lam, scale)]
        a = An[p]
        while True:
            # r: a's coefficients on the active rows (T^T r = c); d: minus
            # the part of a orthogonal to them, the direction that keeps
            # them active
            c, v = _orthogonalized(Q, a)
            r = _solve_upper(T, c)
            d = [-vi for vi in v]
            dd = _dot(d, d)
            # the primal step that makes row p active, and the dual step at
            # which an active multiplier reaches zero
            t2 = (_dot(a, y) - bn[p]) / dd if dd > 1e-24 else math.inf
            t1, k = math.inf, -1
            for i, ri in enumerate(r):
                if ri > 1e-14 and lam[active[i]] / ri < t1:
                    t1, k = lam[active[i]] / ri, i
            if t1 == math.inf and t2 == math.inf:
                return None
            t = min(t1, t2)
            if t2 < math.inf:
                y = [yi + t * di for yi, di in zip(y, d)]
            for i, ri in zip(active, r):
                lam[i] -= t * ri
            lam[p] += t
            if t2 <= t1:
                active.append(p)
                _factor_append(Q, T, c, v)
                # land exactly on the active rows, so that rounding in a long
                # step does not leave a row that depends on them violated:
                # the least-norm move Q^T u with T u = the rows' residuals
                u = _solve_lower(T, [_dot(An[j], y) - bn[j] for j in active])
                y = [yi - _dot(u, col) for yi, col in zip(y, zip(*Q))]
                break
            lam[active[k]] = 0.0
            del active[k]
            Q, T = [], []
            for j in active:
                _factor_append(Q, T, *_orthogonalized(Q, An[j]))
    return None


def _violation(fields: list[ScalarField], y: np.ndarray) -> float:
    """sum_j max(c_j(y), 0); inf where a leaf cannot be evaluated."""
    s = 0.0
    try:
        for f in fields:
            s += max(f.value_checked(y), 0.0)
    except EvaluationError:
        return math.inf
    return s


Row = tuple[list[float], float]  # a linear model c + g u <= 0 of a leaf, as (g, c)


def _difference_row(f: ScalarField, y: np.ndarray, value: float
                    ) -> tuple[list[float], list[tuple[int, np.ndarray, float, float]]]:
    """The central difference of f at y at gradient()'s step h (`fd_step`,
    with the norm summed in floats), and the kinks within h: each coordinate
    i, with its step e and the values f(y + e), f(y - e), along which the
    one-sided differences disagree, as they do across a kink of abs, max or
    min. A kink that runs along k coordinates (min(x1, x2) on x1 = x2) shows
    along all k."""
    x = y.tolist()
    h = 1e-6 * (1.0 + math.sqrt(_dot(x, x)))
    g = []
    kinks = []
    for i in range(f.n):
        e = np.zeros(f.n)
        e[i] = h
        up, down = float(f.fn(y + e)), float(f.fn(y - e))
        g.append((up - down) / (2.0 * h))
        forward, backward = (up - value) / h, (value - down) / h
        if abs(forward - backward) > 1e-3 * (1.0 + abs(forward) + abs(backward)):
            kinks.append((i, e, up, down))
    if not all(map(math.isfinite, g)):
        raise EvaluationError(f"finite-difference gradient of {f.name or '<anon>'} is non-finite", y)
    return g, kinks


def _leaf_models(f: ScalarField, y: np.ndarray, value: float) -> list[list[Row]]:
    """Linear models of a leaf at y for a Newton step: alternatives, each a
    list of rows (g, c) that must all hold as c + g u <= 0. A leaf with an
    analytic gradient has one row, (gradient, value). Without one, the row is
    the central difference (`_difference_row`), unless a kink lies within
    its step along exactly one coordinate: the central difference would
    average the kink's sides, which can hold the iterate on the kink. Each
    side is then the line through the two points beyond the kink, at h and
    2h, extended to y, which models the side exactly however close the kink
    lies. A convex kink (a max) needs both sides' rows; a concave one (a
    min) holds on either side, so each side is an alternative."""
    if f.grad is not None:
        return [[(gradient(f, y).tolist(), value)]]
    g, kinks = _difference_row(f, y, value)
    if len(kinks) != 1:
        return [[(g, value)]]
    (i, e, up, down), = kinks
    far_up, far_down = float(f.fn(y + 2.0 * e)), float(f.fn(y - 2.0 * e))
    if not math.isfinite(far_up) or not math.isfinite(far_down):
        raise EvaluationError(f"finite-difference gradient of {f.name or '<anon>'} is non-finite", y)
    h = float(e[i])
    right, left = g[:], g[:]
    right[i], left[i] = (far_up - up) / h, (down - far_down) / h
    sides = [(right, 2.0 * up - far_up), (left, 2.0 * down - far_down)]
    return [sides] if right[i] > left[i] else [[side] for side in sides]


def _curvature_factor(fields: list[ScalarField], lam: list[float], y: np.ndarray,
                      models: list[list[list[Row]]]) -> list[list[float]] | None:
    """The Cholesky factor L (lower triangular, as rows) of the Lagrangian's
    Hessian I + sum_j lam_j H_j at y, over the leaves with exact second
    partials; None when no such leaf has a positive multiplier, so that the
    step is a Gauss-Newton step. Where that Hessian is not safely positive
    definite, rho G^T G is added, G the unit model rows of the leaves with
    positive multipliers, for the least rho in 1, 10, ..., 1e6 that makes it
    so (None past that): on steps that keep those rows active it adds a
    constant to the QP, so the step is still Newton's wherever the Hessian
    is positive definite on the rows' null space, as at a strict local
    projection (the augmented Lagrangian's Hessian; Nocedal & Wright, sec.
    17.3). The factorization is the textbook one; a pivot that is not
    positive, or not a number, fails it and moves on to the next rho."""
    curved = [(lj, f.hess(y).tolist()) for f, lj in zip(fields, lam)
              if lj > 0.0 and f.hess is not None]
    if not curved:
        return None
    n = len(y)
    S = [[0.0] * n for _ in range(n)]
    for lj, h in curved:
        for Si, hi in zip(S, h):
            for k, hik in enumerate(hi):
                Si[k] += lj * hik
    H = [[(1.0 if i == k else 0.0) + v for k, v in enumerate(Si)] for i, Si in enumerate(S)]
    if not all(math.isfinite(v) for row in H for v in row):
        return None
    GG = None
    for rho in (0.0, 1.0, 10.0, 1e2, 1e3, 1e4, 1e5, 1e6):
        M = H
        if rho:
            if GG is None:
                G = [g for m, lj in zip(models, lam) if lj > 0.0 for g, _ in m[0]]
                G = [[v / s for v in g] for g, s in ((g, math.sqrt(_dot(g, g))) for g in G)
                     if s > 0.0]
                GG = [[_dot(gi, gk) for gk in zip(*G)] for gi in zip(*G)] if G \
                    else [[0.0] * n for _ in range(n)]
            M = [[h + rho * v for h, v in zip(hs, gs)] for hs, gs in zip(H, GG)]
        L = _cholesky(M)
        if L is not None and min(row[i] for i, row in enumerate(L)) >= 1e-3:
            return L
    return None


def _kink_qp(models: list[list[list[Row]]], w: list[float], L: list[list[float]] | None
             ) -> tuple[list[float], list[float]] | None:
    """(d, lam): the step of one Newton iteration and the leaves'
    multipliers, or None when the linearization is inconsistent. The QP
    min 0.5 |u - L^-1 w|^2 over {u : c + G L^-T u <= 0} is solved for each
    choice of the leaves' alternative models, and the closest solution
    kept, as the step d = L^-T u; L = None stands for the identity (a
    Gauss-Newton step). A leaf with no model rows adds nothing."""
    best = None
    centre = w if L is None else _solve_lower(L, w)
    for choice in itertools.product(*models):
        owner = [j for j, rows in enumerate(choice) for _ in rows]
        if not owner:
            got = (centre, [])
        else:
            G = [g if L is None else _solve_lower(L, g) for rows in choice for g, _ in rows]
            got = _qp_project(G, [-cj for rows in choice for _, cj in rows], centre)
        if got is not None:
            gap = _sqdist(got[0], centre)
            if best is None or gap < best[0]:
                best = (gap, got[0], owner, got[1])
    if best is None:
        return None
    _, u, owner, lam = best
    leaf_lam = [0.0] * len(models)
    for j, lj in zip(owner, lam):
        leaf_lam[j] += lj
    return (u if L is None else _solve_upper(L, u)), leaf_lam


def _held_rows_dropped(fields: list[ScalarField], models: list[list[list[Row]]],
                       c: list[float], y: list[float], w: list[float],
                       L: list[list[float]] | None
                       ) -> tuple[list[float], list[float]] | None:
    """`_kink_qp`'s step where the full linearization is inconsistent: a
    leaf that holds at y keeps its rows only once the step would violate the
    leaf itself. A concave leaf's linearization is stricter than the leaf,
    so one that holds everywhere, such as the closure of a strict leaf
    -|x - a|^2 < 0, can make the QP inconsistent where the term is not."""
    keep = [cj > 0.0 for cj in c]
    while True:
        got = _kink_qp([m if k else [[]] for m, k in zip(models, keep)], w, L)
        if got is None:
            return None
        trial = np.array([yi + di for yi, di in zip(y, got[0])])
        late = [j for j, f in enumerate(fields)
                if not keep[j] and _violation([f], trial) > 0.0]
        if not late:
            return got
        for j in late:
            keep[j] = True


def _newton_term(leaves: Sequence[Leaf], z: np.ndarray, y0: np.ndarray) -> np.ndarray | None:
    """A KKT point of min |y - z| over the intersection of the leaves, by
    Lagrange-Newton from y0 (Nocedal & Wright, ch. 18), or None when it does
    not converge. Each step solves the QP of the leaves linearized at y
    (`_kink_qp`) with the Lagrangian's Hessian I + sum_j lam_j H_j
    (`_curvature_factor`); its active rows are the working set, and on a
    settled working set the step is Newton's on the KKT system. Callable
    leaves add no curvature, so their steps are Gauss-Newton steps. Where
    the linearization is inconsistent, the rows of the leaves that hold at
    y join only as the step needs them (`_held_rows_dropped`). A
    backtracking search on the l1 merit function accepts each step, after
    one second-order correction of a full step it rejects. The iteration
    stops when the error left, predicted from the ratio of successive
    steps, is below 1e-10 (1 + |y|); where it stalls, a feasible y is
    returned (`_feasible`). An affine term's linearization is exact, so its
    first step is the answer, and an inconsistent one proves the term empty.

    The iteration runs on lists of floats (see `_dot`); the leaves are
    evaluated at numpy copies of the iterates."""
    fields = [leaf.constraint for leaf in leaves]
    affine = all(f.affine for f in fields)
    zl = np.asarray(z, dtype=float).tolist()
    y = np.asarray(y0, dtype=float).tolist()
    lam, mu = [0.0] * len(fields), 0.0
    previous = 0.0
    for _ in range(_NEWTON_MAXITER):
        ya = np.array(y)
        c = [f.value_checked(ya) for f in fields]
        models = [_leaf_models(f, ya, cj) for f, cj in zip(fields, c)]
        L = _curvature_factor(fields, lam, ya, models)
        w = [zi - yi for zi, yi in zip(zl, y)]
        got = _kink_qp(models, w, L)
        if got is None and not affine:
            got = _held_rows_dropped(fields, models, c, y, w, L)
        if got is None:
            return None
        d = got[0]
        if affine:
            return np.array([yi + di for yi, di in zip(y, d)])
        lam = got[1]
        # the error left after this step, predicted from the steps' ratio
        # (quadratic and linear convergence alike)
        step = max(map(abs, d))
        rate = step / previous if previous > 0.0 else math.inf
        previous = step
        tol = 1e-10 * (1.0 + max(map(abs, y)))
        if step <= tol or (rate < 0.5 and step * rate / (1.0 - rate) <= tol):
            return _feasible(fields, [yi + di for yi, di in zip(y, d)])
        top = max(0.0, *lam)
        if top > 1e6:  # diverging multipliers
            return _feasible(fields, y)
        mu = max(mu, 2.0 * top)
        excess = 0.0
        for cj in c:
            excess += max(cj, 0.0)
        phi = 0.5 * _dot(w, w) + mu * excess
        slope = -_dot(w, d) - mu * excess

        def accepted(step: list[float], t: float) -> bool:
            trial = [yi + si for yi, si in zip(y, step)]
            viol = _violation(fields, np.array(trial))
            return viol < math.inf and (0.5 * _sqdist(trial, zl) + mu * viol
                                        <= phi + 1e-4 * t * min(slope, 0.0))

        t = 1.0
        if not accepted(d, 1.0):
            # a second-order correction (Nocedal & Wright, sec. 18.3): the QP
            # again, each row shifted by its leaf's model error at y + d; it
            # is kept only as a correction, shorter than half the step
            try:
                ahead = [f.value_checked(np.array([yi + di for yi, di in zip(y, d)]))
                         for f in fields]
                soc = _kink_qp([[[(g, cj - _dot(g, d)) for g, _ in alt] for alt in m]
                                for m, cj in zip(models, ahead)], w, L)
            except EvaluationError:
                soc = None
            if (soc is not None and 4.0 * _sqdist(soc[0], d) <= _dot(d, d)
                    and accepted(soc[0], 1.0)):
                d = soc[0]
            else:
                t = 0.5
                while not accepted([t * di for di in d], t):
                    t *= 0.5
                    if t < 1e-10:
                        return _feasible(fields, y)
        y = [yi + t * di for yi, di in zip(y, d)]
    return _feasible(fields, y)


def _feasible(fields: list[ScalarField], y: list[float]) -> np.ndarray | None:
    """y, as an array, where it satisfies every leaf up to _FEAS_TOL, else
    None. Where the iteration stops short of convergence, as where the
    active gradients vanish or turn dependent at the answer and no regular
    KKT point lies ahead, a feasible y still bounds the distance from above."""
    ya = np.array(y)
    return ya if max(f.value_checked(ya) for f in fields) <= _FEAS_TOL else None


def project_term(leaves: Sequence[Leaf], z: np.ndarray, starts: Iterable[np.ndarray],
                 answers: list[tuple[np.ndarray, float]] | None = None
                 ) -> tuple[np.ndarray, float] | None:
    """Closest point to z on the intersection of leaf sublevel sets, or None.

    Each start runs Lagrange-Newton; a start it does not converge from, or
    whose leaves cannot be evaluated, is skipped. A term of affine leaves is
    convex, so it is solved once, exactly, from z alone, and None proves it
    empty. The starts are taken from `starts` in order, and only as far as
    they are used: an affine term takes none. The answer (y, |y - z|) of
    every start that converged is appended to `answers` when it is given."""
    affine = all(leaf.constraint.affine for leaf in leaves)
    best: tuple[np.ndarray, float] | None = None
    stale = 0
    for i, y0 in enumerate([z] if affine else starts):
        try:
            y = _newton_term(leaves, z, y0)
            if y is None:
                if affine:
                    return None
                continue
            y = _newton_feasibility(leaves, y, 4, slack=_FEAS_TOL * 1e-3)
            vals = [leaf.constraint.value_checked(y) for leaf in leaves]
        except (EvaluationError, FloatingPointError):
            continue
        if max(vals) > _FEAS_TOL:
            continue
        d = float(np.linalg.norm(y - z))
        if answers is not None:
            answers.append((y, d))
        if best is None or d < best[1] - 1e-12 * (1.0 + best[1]):
            best = (y, d)
            stale = 0
        else:
            stale += 1
            # starts rarely improve once two agree; stop burning them
            if stale >= 2 and i >= 2:
                break
    return best


def _term_lower_bound(leaves: Sequence[Leaf], x: np.ndarray) -> float:
    """Linearized distance lower bound max_j c_j(x)/|grad c_j(x)| over violated
    leaves; heuristic for term ordering and pruning (exact for affine leaves)."""
    lb = 0.0
    for leaf in leaves:
        v = leaf.constraint.value_checked(x)
        if v > 0.0:
            g = float(np.linalg.norm(gradient(leaf.constraint, x)))
            lb = max(lb, v / (g + 1e-12))
    return lb


# the most starts `_local_starts` yields; each term's share of the random
# stream leaves room for them, whether or not the term reads them
_LOCAL_STARTS = 2


def _local_starts(leaves: Sequence[Leaf], x: np.ndarray) -> Iterator[np.ndarray]:
    """x, then its Newton restoration onto the leaves, run only when a term
    solver reaches it; the restoration is left out when it steps where a
    leaf cannot be evaluated."""
    yield x.copy()
    try:
        y = _newton_feasibility(leaves, x)
    except EvaluationError:
        return
    yield y


class _RandomStarts:
    """`projection`'s seed-tagged random starts around x, drawn on demand. Each
    term is given its share of one stream, `count` starts, as if every share
    were drawn when the term is reached; a start is drawn only when the term
    uses it, after the draws of the starts before it in the stream, so that
    it is the same point. A projection that uses no random start never
    seeds the stream."""

    def __init__(self, x: np.ndarray, seed: int | tuple) -> None:
        self.x, self.seed = x, seed
        self.rng: np.random.Generator | None = None
        self.scale = 0.0
        self.drawn = 0   # starts drawn from the stream
        self.shared = 0  # starts given out to terms

    def share(self, count: int) -> Iterator[np.ndarray]:
        """The next `count` starts of the stream, each drawn when reached."""
        first = self.shared
        self.shared += count
        return (self._draw(index) for index in range(first, first + count))

    def _draw(self, index: int) -> np.ndarray:
        if self.rng is None:
            self.rng = rng_for(self.seed, "project")
            self.scale = 1.0 + float(np.linalg.norm(self.x))
        n = len(self.x)
        while True:  # draws that earlier terms did not use come first
            radius = self.scale * float(self.rng.uniform(0.05, 1.5))
            step = self.rng.normal(size=n)
            self.drawn += 1
            if self.drawn > index:
                return self.x + radius * step / np.sqrt(n)


class Projection(NamedTuple):
    """`projection`'s answer: y, d = |x - y|, and whether the starts showed y
    unique."""

    y: np.ndarray
    d: float
    unique: bool

    @property
    def closed_form(self) -> bool:
        """x lies off the set and its projection is unique, so the distance
        is differentiable at x with gradient (x - y)/d."""
        return self.unique and self.d > 0.0


# Another converged answer rivals the closest one, y0 at distance d0, when it
# lies within _TIE (1 + d0) of d0 at a point over _APART (1 + |y0|) from y0.
# A start stopped short of y0 on a curved boundary lies within about the
# square root of its excess distance of y0, so _APART is well above
# sqrt(_TIE).
_TIE = 1e-9
_APART = 1e-4


def projection(S: SetDescription, x: Sequence[float] | np.ndarray, *, starts: int = 16,
               seed: int = 0, warm: np.ndarray | None = None) -> Projection:
    """A closest point y of S (its closure) to x, d = |x - y|, which
    approximates inf_{y in S} |x - y| from above, and whether y is unique as
    far as the starts show: no other start that converged, on any term,
    reaches d at another point (within _TIE and beyond _APART).

    Each DNF term of S (`SetDescription._terms`) is projected onto by
    `project_term`, in the order of a linearized distance bound, skipping a
    term whose bound is over 4 d of the best so far. A term of affine leaves
    is an exact QP. Any other term runs Lagrange-Newton from `warm`, x, x's
    Newton restoration onto the term (`_local_starts`) and seed-tagged random
    points, and stops once two further starts fail to improve. Each term's
    share of the random stream is max(3, starts) less the warm start and
    _LOCAL_STARTS, and its points are drawn only when the term reaches them
    (`_RandomStarts`). Raises NonConvergence when no start of any term finds
    a feasible point."""
    x = np.asarray(x, dtype=float)
    closed = S.closure()
    if closed.classify(x, 0.0) != Membership.OUTSIDE:
        return Projection(x.copy(), 0.0, True)
    random_starts = _RandomStarts(x, seed)
    head = [] if warm is None else [np.asarray(warm, dtype=float)]
    share = max(3, starts) - len(head) - _LOCAL_STARTS
    best: tuple[np.ndarray, float] | None = None
    answers: list[tuple[np.ndarray, float]] = []
    bounds = [(_term_lower_bound(leaves, x), leaves) for leaves in closed._terms]
    for bound, leaves in sorted(bounds, key=lambda pair: pair[0]):
        if best is not None and bound > 4.0 * best[1] + 1e-12:
            continue  # cannot beat the incumbent (heuristic prune)
        term_starts = itertools.chain(head, _local_starts(leaves, x),
                                      random_starts.share(share))
        got = project_term(leaves, x, term_starts, answers)
        if got is not None and (best is None or got[1] < best[1]):
            best = got
    if best is None:
        raise NonConvergence(f"no feasible point found for {S.name or 'set'} near {x.tolist()}")
    y0, d0 = best
    apart = _APART * (1.0 + float(np.linalg.norm(y0)))
    unique = not any(d <= d0 + _TIE * (1.0 + d0) and float(np.linalg.norm(y - y0)) > apart
                     for y, d in answers)
    return Projection(y0, d0, unique)


def feasible_point(S: SetDescription, x: Sequence[float] | np.ndarray
                   ) -> np.ndarray | None | list[np.ndarray | None]:
    """A nearby (not necessarily closest) point of S, or None: Newton
    restoration on each DNF term in the order of a linearized distance bound,
    then, as fallback, `project_term` on the two most promising terms from x
    and its restoration. A term whose restoration leaves its leaves' domain
    is skipped. Cheap enough for samplers; use projection() when the
    minimizer itself matters.

    Given an (N, n) block, returns the list of the N rows' answers, equal to
    calling feasible_point on each row in order (and raising where that
    would first raise): the restoration stage runs in lockstep over the rows
    (`_restoration_rows`), and each row it does not settle runs alone."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return _feasible_point(S, x)
    settled = [None] * len(x)
    if len(x) >= _ROWS_MIN:
        with np.errstate(all="ignore"):
            settled = _restoration_rows(S, x)
    return [y if y is not None else _feasible_point(S, xi) for xi, y in zip(x, settled)]


def _feasible_point(S: SetDescription, x: np.ndarray) -> np.ndarray | None:
    closed = S.closure()
    if closed.classify(x, 0.0) != Membership.OUTSIDE:
        return x.copy()
    terms = sorted(closed._terms, key=lambda lv: _term_lower_bound(lv, x))
    for leaves in terms:
        try:
            y = _newton_feasibility(leaves, x, iters=30)
            if max(leaf.constraint.value_checked(y) for leaf in leaves) <= _FEAS_TOL:
                return y
        except EvaluationError:
            continue  # restoration left the leaves' domain
    for leaves in terms[:2]:
        got = project_term(leaves, x, _local_starts(leaves, x))
        if got is not None:
            return got[0]
    return None


def _restoration_rows(S: SetDescription, X: np.ndarray) -> list[np.ndarray | None]:
    """feasible_point's answer for each row of X that its closure test or its
    restoration stage settles, else None. The stage runs in lockstep: the
    closure test and the terms' lower bounds on all rows, a stable sort of
    the terms per row, and then, term rank by term rank, 30 restoration
    iterations on the rows that try the same term. A row is left to the
    one-point path when it needs `project_term`, when a value or gradient
    that path reaches is non-finite, or when a leaf has no `grad_rows`."""
    closed = S.closure()
    terms = closed._terms
    out: list[np.ndarray | None] = [None] * len(X)
    ranks, err = closed.classify_many(X, 0.0)
    for i in np.flatnonzero(~err & (ranks != 2)):
        out[i] = X[i].copy()
    live = np.flatnonzero(~err & (ranks == 2))
    if not len(live) or any(not leaves or any(leaf.constraint.grad_rows is None
                                              for leaf in leaves) for leaves in terms):
        return out
    # _term_lower_bound for every term and row; ok drops the rows where it raises
    Xl = X[live]
    ok = np.ones(len(live), bool)
    bounds = np.zeros((len(terms), len(live)))
    for lb, leaves in zip(bounds, terms):
        for leaf in leaves:
            v = leaf.constraint.value_rows(Xl)
            g = leaf.constraint.grad_rows(Xl)
            violated = v > 0.0
            ok &= np.isfinite(v) & (~violated | np.all(np.isfinite(g), axis=1))
            q = v / (np.sqrt(np.vecdot(g, g)) + 1e-12)
            lb[violated & (q > lb)] = q[violated & (q > lb)]
    order = np.argsort(bounds, axis=0, kind="stable")
    pending = np.flatnonzero(ok)
    for k in range(len(terms)):
        tried = []
        for t, leaves in enumerate(terms):
            rows = pending[order[k, pending] == t]
            if len(rows):
                Y, feasible, bad = _restore_rows(leaves, Xl[rows])
                for r, y in zip(rows[feasible], Y[feasible]):
                    out[live[r]] = y
                tried.append(rows[~feasible & ~bad])
        pending = np.sort(np.concatenate(tried)) if tried else pending[:0]
    return out


def _restore_rows(leaves: Sequence[Leaf], X: np.ndarray, iters: int = 30
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Y, feasible, bad): `_newton_feasibility(leaves, x, iters)` in lockstep
    over the rows of X, and feasible_point's test max_j c_j(y) <= _FEAS_TOL
    on its results. bad marks the rows where a value or gradient that the
    one-point loop reaches is non-finite; such a row is neither feasible nor
    infeasible. Row dot products use np.vecdot, bit-equal to g @ g."""
    fields = [leaf.constraint for leaf in leaves]
    Y = X.copy()
    bad = np.zeros(len(Y), bool)
    on = np.arange(len(Y))
    for _ in range(iters):
        if not len(on):
            break
        V = np.column_stack([f.value_rows(Y[on]) for f in fields])
        finite = np.all(np.isfinite(V), axis=1)
        bad[on[~finite]] = True
        worst = np.argmax(V, axis=1)
        vw = V[np.arange(len(on)), worst]
        go = finite & ~(vw <= 0.0)
        G = np.zeros((len(on), Y.shape[1]))
        for j, f in enumerate(fields):
            sel = go & (worst == j)
            if sel.any():
                G[sel] = f.grad_rows(Y[on[sel]])
        g_finite = np.all(np.isfinite(G), axis=1)
        bad[on[go & ~g_finite]] = True
        gg = np.vecdot(G, G)
        step = go & g_finite & ~(gg < 1e-18)
        Y[on[step]] = Y[on[step]] - (vw[step] / gg[step])[:, None] * G[step]
        on = on[step]
    V = np.column_stack([f.value_rows(Y) for f in fields])
    bad |= ~np.all(np.isfinite(V), axis=1)
    return Y, ~bad & (np.max(V, axis=1) <= _FEAS_TOL), bad


# ---------------------------------------------------------------------------
# Cones


@dataclass(frozen=True)
class Transversality:
    feasible: bool
    direction: np.ndarray | None
    best: float  # min over |v| <= 1 of max_i <g_i, v>, attained at `direction`


def _min_norm_point(G: np.ndarray) -> np.ndarray:
    """The least-norm point of the convex hull of the rows of G, by Wolfe's
    algorithm (Wolfe 1976, "Finding the nearest point in a polytope"): a
    corral of rows whose affine hull's least-norm point lies inside their
    hull grows by the row most opposed to the current point, and shrinks
    along a line search whenever that point falls outside."""
    sq = np.einsum("ij,ij->i", G, G)
    scale = float(np.sqrt(np.max(sq)))
    corral = [int(np.argmin(sq))]
    w = np.ones(1)
    p = G[corral[0]]
    for _ in range(10 * len(G) + 10):  # finite in exact arithmetic; capped for rounding
        # stop when no row improves on p by more than 1e-12 * scale in the
        # value max_i <g_i, -p/|p|>, which is what transversality reads
        j = int(np.argmin(G @ p))
        if p @ p - G[j] @ p <= 1e-12 * scale * float(np.sqrt(p @ p)) or j in corral:
            break
        corral.append(j)
        w = np.append(w, 0.0)
        while True:
            P = G[corral]
            # weights a (summing to 1) of the least-norm point of aff(P)
            b, *_ = np.linalg.lstsq((P[1:] - P[0]).T, -P[0], rcond=None)
            a = np.concatenate([[1.0 - b.sum()], b])
            if np.all(a > 0.0):
                w = a
                break
            # step from w toward a until the first weight reaches zero
            neg = np.flatnonzero(a <= 0.0)
            gap = w[neg] - a[neg]
            ratios = np.divide(w[neg], gap, out=np.zeros(len(neg)), where=gap > 0.0)
            i = int(np.argmin(ratios))
            w = w + ratios[i] * (a - w)
            w[neg[i]] = 0.0
            keep = w > 0.0
            corral = [c for c, kept in zip(corral, keep) if kept]
            w = w[keep]
        p = w @ G[corral]
    return p


def transversality_check(gradients: Sequence[np.ndarray], *,
                         margin: float = 1e-8) -> Transversality:
    """Find a unit v with <g_i, v> < 0 for all i, or declare infeasibility.

    min over |v| <= 1 of max_i <g_i, v> is -|p| for the least-norm point p of
    conv{g_i}, attained at v = -p/|p|; `best` is -|p|, which is better
    conditioned than evaluating max_i <g_i, v> when |p| << |g_i|. A zero
    gradient, or p = 0, makes the condition unsatisfiable.
    """
    gs = [np.asarray(g, dtype=float) for g in gradients]
    if not gs:
        raise PreconditionError("gradient list must be nonempty")
    G = np.array(gs)
    norms = np.linalg.norm(G, axis=1)
    p = _min_norm_point(G)
    pn = float(np.linalg.norm(p))
    # below 1e-12 * max|g_i|, p = 0 up to rounding: 0 lies in conv{g_i}
    feasible = (float(np.min(norms)) > 1e-12 and pn > 1e-12 * float(np.max(norms))
                and -pn < -margin)
    return Transversality(feasible, -p / pn if feasible else None, -pn if pn else 0.0)


# an active leaf is 0 at x to rounding when |c(x)| <= _ROUNDING (1 + |x|)
_ROUNDING = 1e-12


@dataclass(frozen=True)
class LinearizedCone:
    """T_S(x) from first-order data: the union, over the DNF terms of S's
    closure that hold x, of {v : g @ v <= 0 for each active gradient g of the
    term}. `exact` when every active leaf is 0 at x to rounding: only then
    is x on the boundary the gradients describe, so that the distance to the
    cone is the cone ratio; at a point that EPS_ACT calls active but that
    lies inside a leaf, a non-member is left to the sweep."""

    terms: tuple[tuple[np.ndarray, ...], ...]
    exact: bool

    def contains(self, v: np.ndarray) -> bool:
        """Some term has no float(g @ v) > 0.0."""
        return any(not any(float(g @ v) > 0.0 for g in term) for term in self.terms)

    def distance(self, v: np.ndarray) -> float:
        """dist(v, cone): the least over the terms of the distance from v to
        the term's polyhedral cone, one `_qp_project` with b = 0 each."""
        z = np.asarray(v, dtype=float).tolist()
        best = math.inf
        for term in self.terms:
            if not term:
                return 0.0
            u, _ = _qp_project([g.tolist() for g in term], [0.0] * len(term), z)
            best = min(best, math.sqrt(_sqdist(u, z)))
        return best


def linearized_cone(S: SetDescription, x: Sequence[float] | np.ndarray) -> LinearizedCone | None:
    """T_S(x) as a LinearizedCone, or None where this reading is not
    available: no term of S's closure holds x (every term has a leaf above
    EPS_ACT there), or some term that holds x has active leaves (|c(x)| <=
    EPS_ACT) whose gradients fail transversality_check (an exactly opposed
    pair g, -g fails it without the solve), or an active leaf without an
    analytic gradient has a kink within its difference step along any
    coordinate (`_difference_row`; without a kink, its central difference
    is its gradient). A term with no active leaf makes the cone all of
    R^n. Each term's leaves are evaluated in tree order up to the first one
    above EPS_ACT."""
    x = np.asarray(x, dtype=float)
    tol = _ROUNDING * (1.0 + float(np.linalg.norm(x)))
    values: dict[int, float] = {}
    terms: list[tuple[np.ndarray, ...]] = []
    exact = True
    for leaves in S.closure()._terms:
        active: list[tuple[Leaf, float]] = []
        for leaf in leaves:
            v = values.get(id(leaf))
            if v is None:
                v = values[id(leaf)] = leaf.constraint.value_checked(x)
            if v > EPS_ACT:
                break
            if abs(v) <= EPS_ACT:
                active.append((leaf, v))
        else:
            grads = []
            for leaf, v in active:
                f = leaf.constraint
                if f.grad is not None:
                    grads.append(gradient(f, x))
                else:
                    g, kinks = _difference_row(f, x, v)
                    if kinks:
                        return None
                    grads.append(np.array(g))
                exact = exact and abs(v) <= tol
            if any(np.array_equal(g, -g2) for g, g2 in itertools.combinations(grads, 2)):
                return None  # an opposed pair puts 0 in conv{g_i}: no v passes
            if grads and not transversality_check(grads).feasible:
                return None
            terms.append(tuple(grads))
    return LinearizedCone(tuple(terms), exact) if terms else None


def _min_ratio(S: SetDescription, x: np.ndarray, v: np.ndarray, seed: int, d0: float,
               warm: np.ndarray | None) -> float:
    """min over CONE_H of (dist(S, x + h v) - d0)/h, stopping once it is
    <= CONE_TOL; each projection starts warm from the previous one."""
    best = np.inf
    for h in CONE_H:
        warm, d, _ = projection(S, x + h * v, starts=6, seed=seed, warm=warm)
        best = min(best, (d - d0) / h)
        if best <= CONE_TOL:
            break
    return best


def contingent_min_ratio(S: SetDescription, x: Sequence[float] | np.ndarray,
                         v: Sequence[float] | np.ndarray, *, seed: int = 0,
                         cone: LinearizedCone | None = None) -> float:
    """The cone ratio of v at x: liminf over h -> 0 of distance(S, x + h v)/h;
    v is in the contingent cone T_S(x) when the value is <= CONE_TOL.

    `cone` is the caller's linearized_cone(S, x). A member of it has ratio
    0.0. Where the cone is exact, any other v has the closed form
    dist(v, T_S(x)) (`LinearizedCone.distance`). Elsewhere the ratio is
    swept: min over CONE_H of distance(S, x + h v)/h, a sampled
    under-approximation of the liminf. Raises NonConvergence if the distance
    solver fails (caller reports Inconclusive).
    """
    x, v = np.asarray(x, dtype=float), np.asarray(v, dtype=float)
    if float(np.linalg.norm(v)) == 0.0 or (cone is not None and cone.contains(v)):
        return 0.0
    if cone is not None and cone.exact:
        return cone.distance(v)
    return _min_ratio(S, x, v, seed, 0.0, None)


def external_min_ratio(S: SetDescription, x: Sequence[float] | np.ndarray,
                       v: Sequence[float] | np.ndarray, *, seed: int = 0,
                       base: Projection | None = None) -> float:
    """The rate (d/dh) dist(S, x + h v) at h = 0+; v is in the external cone
    when the value is <= CONE_TOL. `base` is x's projection
    projection(S, x, starts=8, seed=seed), which a caller that tries several
    v at one x computes once; it is computed here when not given.

    Where base.closed_form holds (x off S, its projection y0 unique), the
    rate is the directional derivative <v, (x - y0)/d0> (Danskin). Elsewhere
    it is swept: min over CONE_H of (dist(S, x+hv) - dist(S, x))/h."""
    x, v = np.asarray(x, dtype=float), np.asarray(v, dtype=float)
    if base is None:
        base = projection(S, x, starts=8, seed=seed)
    if base.closed_form:
        return float(v @ (x - base.y)) / base.d
    return _min_ratio(S, x, v, seed, base.d, base.y)


# ---------------------------------------------------------------------------
# Minkowski functional (C-sets)


def minkowski(S: SetDescription, x: Sequence[float] | np.ndarray) -> float | np.ndarray:
    """inf { mu >= 0 : x in mu*S } by ray bisection on membership, to a
    relative width of 1e-13, over scalings up to 1e12.

    Requires 0 in int(S) (the C-set precondition), checked by membership.
    Given an (N, n) block, returns the N values as an array: the bisections
    run in lockstep, one `classify_many` per step, and a block raises what
    the first row that fails would raise on its own."""
    x = np.asarray(x, dtype=float)
    if S.classify(np.zeros(S.n), 0.0) != Membership.INSIDE:
        raise PreconditionError("Minkowski functional needs 0 in int(S)")
    values = _minkowski_rows(S, np.atleast_2d(x))
    return float(values[0]) if x.ndim == 1 else values


def _minkowski_rows(S: SetDescription, X: np.ndarray) -> np.ndarray:
    """Each row's mu, as the one-point bisection finds it: double hi from 1
    until x/hi is a member, halve lo from hi/2 while x/lo is one, then
    bisect. Rows leave each phase on their own step."""
    hi, lo = np.ones(len(X)), np.zeros(len(X))
    failed: dict[int, np.ndarray | None] = {}  # row -> scaled point, or None
    dead = np.zeros(len(X), bool)

    def member(rows: np.ndarray, mu: np.ndarray) -> np.ndarray:
        P = X[rows] / mu[:, None]
        ranks, err = S.classify_many(P, 0.0)
        for i in np.flatnonzero(err):
            failed[int(rows[i])] = P[i]
        dead[rows[err]] = True
        return ranks != 2

    # |x| == 0 as np.linalg.norm rounds it, which gives mu = 0
    on = rows = np.flatnonzero(np.vecdot(X, X) != 0.0)
    while len(on):
        inside = member(on, hi[on])
        on = on[~dead[on] & ~inside]
        hi[on] *= 2.0
        over = on[hi[on] > 1e12]
        failed.update(dict.fromkeys(over.tolist()))
        dead[over] = True
        on = on[~dead[on]]
    on = rows[~dead[rows]]
    lo[on] = hi[on] / 2.0
    while len(on):
        on = on[lo[on] > 1e-300]
        if len(on):
            inside = member(on, lo[on])
            on = on[~dead[on] & inside]
            lo[on] /= 2.0
    hi[lo <= 1e-300] = 0.0  # |x| == 0, or x/lo a member down to 1e-300
    on = np.flatnonzero((lo > 1e-300) & ~dead)
    for _ in range(200):
        if not len(on):
            break
        mid = 0.5 * (lo[on] + hi[on])
        inside = member(on, mid)
        ok = ~dead[on]
        on, mid, inside = on[ok], mid[ok], inside[ok]
        hi[on[inside]] = mid[inside]
        lo[on[~inside]] = mid[~inside]
        on = on[~(hi[on] - lo[on] <= 1e-13 * hi[on])]
    if failed:
        point = failed[min(failed)]
        if point is None:
            raise NonConvergence("no finite Minkowski scaling found (set unbounded toward x?)")
        _raise_scalar(S, point, 0.0)
    return hi


# ---------------------------------------------------------------------------
# Sampling


@dataclass(frozen=True)
class SampleResult:
    points: list[np.ndarray]
    requested: int
    achieved: int
    short: bool
    used_projection: bool = False


def in_box(x: np.ndarray, box: np.ndarray) -> bool:
    """x lies in the box, up to a slack of 1e-9 on each face."""
    return bool(np.all(x >= box[:, 0] - 1e-9) and np.all(x <= box[:, 1] + 1e-9))


def rng_for(seed: int | tuple, tag: str) -> np.random.Generator:
    """The substream of an int or tuple seed tagged `tag`: numpy's generator
    seeded with (*seed, crc32(tag))."""
    key = seed if isinstance(seed, tuple) else (seed,)
    return np.random.default_rng((*(int(s) for s in key), zlib.crc32(tag.encode())))


def _box_draws(rng: np.random.Generator, box: np.ndarray, count: int) -> np.ndarray:
    lo, hi = box[:, 0], box[:, 1]
    return lo + rng.uniform(size=(count, box.shape[0])) * (hi - lo)


def _raise_scalar(S: SetDescription, x: np.ndarray, tol: float) -> None:
    """Re-run classify at a row that classify_many marked, so that the
    EvaluationError the one-point loop would raise there is raised."""
    S.classify(x, tol)
    raise AssertionError(f"classify_many marked {x.tolist()}, but classify did not raise")


def _rows_ranked(S: SetDescription, X: np.ndarray, tol: float,
                 wanted: tuple[int, ...]) -> Iterator[int]:
    """The indices, in order, of the rows of X whose rank at tol is in
    `wanted`, from one classify_many; a marked row raises when the caller
    reaches it, as the one-point loop would, and not if it stops before."""
    ranks, err = S.classify_many(X, tol)
    for i in np.flatnonzero(err | np.isin(ranks, wanted)):
        if err[i]:
            _raise_scalar(S, X[i], tol)
        yield int(i)


def sample(S: SetDescription, box: Sequence[Sequence[float]] | np.ndarray, n: int,
           seed: int = 0) -> SampleResult:
    """Deterministic points of S inside the box; rejection first, then
    projection of box draws for thin or measure-zero sets. Each draw of
    rejection is classified at once and the projection fallback runs over
    blocks of the draws it still needs; the points are those of a loop over
    the draws one at a time."""
    if n <= 0:
        raise PreconditionError("n must be positive")
    if not S.closure()._terms:  # every DNF term holds a constant leaf > 0
        return SampleResult(points=[], requested=n, achieved=0, short=True)
    box = np.asarray(box, dtype=float)
    rng = rng_for(seed, "sample")
    points: list[np.ndarray] = []
    budget = max(50 * n, 4000)
    drawn = 0
    while drawn < budget and len(points) < n:
        batch = _box_draws(rng, box, min(512, budget - drawn))
        drawn += len(batch)
        for i in _rows_ranked(S, batch, 0.0, (0, 1)):
            points.append(batch[i])
            if len(points) >= n:
                break
    used_projection = False
    if len(points) < n:
        draws = _box_draws(rng, box, 8 * n)
        done = 0
        # each draw adds at most one point, so a block of the points still
        # needed holds only draws that the one-at-a-time loop reaches
        while done < len(draws) and len(points) < n:
            block = draws[done:done + n - len(points)]
            done += len(block)
            for y in feasible_point(S, block):
                if y is not None and in_box(y, box):
                    points.append(y)
                    used_projection = True
    return SampleResult(points=points[:n], requested=n, achieved=len(points[:n]),
                        short=len(points) < n, used_projection=used_projection)


def sample_boundary(S: SetDescription, box: Sequence[Sequence[float]] | np.ndarray,
                    n: int, band: float, seed: int = 0) -> SampleResult:
    """Points with membership Boundary at tolerance `band`, found by bisection
    between set points and outside points (plus set points already in band).
    Pools are classified a batch at a time, and the bisections run in
    lockstep over blocks of the attempts still needed; the points and the
    draws from the stream are those of one attempt at a time."""
    if n <= 0 or band <= 0:
        raise PreconditionError("need n > 0 and band > 0")
    box = np.asarray(box, dtype=float)
    rng = rng_for(seed, "boundary")
    inside = sample(S, box, max(2 * n, 32), seed=seed)
    points: list[np.ndarray] = []
    if inside.points:
        for i in _rows_ranked(S, np.array(inside.points), band, (1,)):
            points.append(inside.points[i])
            if len(points) >= n:
                break
    if len(points) < n and inside.points:
        outside_pool: list[np.ndarray] = []
        drawn = 0
        while drawn < 4000 and len(outside_pool) < max(2 * n, 32):
            batch = _box_draws(rng, box, 256)
            drawn += len(batch)
            for i in _rows_ranked(S, batch, 0.0, (2,)):
                outside_pool.append(batch[i])
                if len(outside_pool) >= max(2 * n, 32):
                    break
        attempts = 0
        while outside_pool and len(points) < n and attempts < 8 * n:
            # each attempt adds at most one point, as in sample's fallback
            m = min(n - len(points), 8 * n - attempts)
            attempts += m
            pairs = [(int(rng.integers(len(inside.points))), int(rng.integers(len(outside_pool))))
                     for _ in range(m)]
            A = np.array([inside.points[i] for i, _ in pairs])
            B = np.array([outside_pool[j] for _, j in pairs])
            failed: dict[int, np.ndarray] = {}  # attempt -> midpoint classify raises at
            on = np.arange(m)
            for _ in range(80):
                mid = 0.5 * (A[on] + B[on])
                ranks, err = S.classify_many(mid, 0.0)
                for i in np.flatnonzero(err):
                    failed[int(on[i])] = mid[i]
                out = ranks == 2
                B[on[out & ~err]] = mid[out & ~err]
                A[on[~out & ~err]] = mid[~out & ~err]
                on = on[~err]
            ranks, err = S.classify_many(A, band)
            for i in range(m):
                if i in failed:
                    _raise_scalar(S, failed[i], 0.0)
                if err[i]:
                    _raise_scalar(S, A[i], band)
                if ranks[i] == 1:
                    points.append(A[i])
    return SampleResult(points=points[:n], requested=n, achieved=len(points[:n]),
                        short=len(points) < n, used_projection=inside.used_projection)
