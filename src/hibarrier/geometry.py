"""Constraint-described subsets of R^n: membership, cones, distance, sampling.

A set is a tree of sublevel constraints c(x) <= 0 combined by intersection and
union. Half-open leaves (c(x) < 0) keep strict membership at tolerance zero
and behave as their closure for distance and projection.
"""

from __future__ import annotations

import enum
import itertools
import zlib
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from .fields import EvaluationError, ScalarField, fd_step, gradient

__all__ = [
    "Membership",
    "ConeVerdict",
    "NonConvergence",
    "PreconditionError",
    "Leaf",
    "Intersection",
    "Union",
    "SetDescription",
    "SampleResult",
    "Transversality",
    "project",
    "minkowski",
    "transversality_check",
    "contingent_cone_member_analytic",
    "contingent_min_ratio",
    "dm_cone_member",
    "external_min_ratio",
    "sample",
    "sample_boundary",
]


class Membership(enum.Enum):
    INSIDE = "inside"
    BOUNDARY = "boundary"
    OUTSIDE = "outside"


class ConeVerdict(enum.Enum):
    MEMBER = "member"
    NON_MEMBER = "non_member"
    NOT_APPLICABLE = "not_applicable"


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
_PROJECT_MAXITER = 80  # SLSQP iterations per projection start that falls back


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


def _compile_classifier(root: Node):
    """One generated function f(x, tol, strict_tol) -> rank, where ranks 0, 1,
    2 index _MEMBERSHIP. Leaves are evaluated in tree order through their
    value_checked; an intersection stops at its first outside child, a union
    at its first inside one. A child of the same kind as its parent is
    spliced in (the same leaves in the same order, the same stopping point);
    every other inner node gets its own function."""
    namespace: dict[str, object] = {}
    sources: list[str] = []

    def leaf_lines(leaf: Leaf) -> list[str]:
        vc = f"vc{len(namespace)}"
        namespace[vc] = leaf.constraint.value_checked
        rank = ("(0 if v < 0.0 else 2) if st == 0.0 else (0 if v < -st else 2 if v > st else 1)"
                if leaf.strict else "0 if v < -tol else 2 if v > tol else 1")
        return [f"    v = {vc}(x)", f"    r = {rank}"]

    def children(node: Node) -> list[Node]:
        out: list[Node] = []
        for child in node.children:
            out.extend(children(child) if type(child) is type(node) else [child])
        return out

    def node_function(node: Node) -> str:
        if isinstance(node, Leaf):
            body = leaf_lines(node) + ["    return r"]
        elif isinstance(node, (Intersection, Union)):
            stop, better = (2, ">") if isinstance(node, Intersection) else (0, "<")
            body = [f"    w = {2 - stop}"]
            for child in children(node):
                body += (leaf_lines(child) if isinstance(child, Leaf)
                         else [f"    r = {node_function(child)}(x, tol, st)"])
                body += [f"    if r {better} w:", f"        if r == {stop}:",
                         f"            return {stop}", "        w = r"]
            body.append("    return w")
        else:
            raise TypeError(f"not a set node: {node!r}")
        name = f"node{len(sources)}"
        sources.append("\n".join([f"def {name}(x, tol, st):", *body]))
        return name

    entry = node_function(root)
    exec(compile("\n\n".join(sources) + "\n", "<hibarrier.geometry classifier>", "exec"),
         namespace)
    return namespace[entry]


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
        out: list[Leaf] = []

        def walk(node: Node) -> None:
            if isinstance(node, Leaf):
                out.append(node)
            else:
                for child in node.children:
                    walk(child)

        walk(self.root)
        return out

    def intersect(self, other: "SetDescription", name: str = "") -> "SetDescription":
        return SetDescription(self.n, Intersection((self.root, other.root)), name)

    def union(self, other: "SetDescription", name: str = "") -> "SetDescription":
        return SetDescription(self.n, Union((self.root, other.root)), name)

    def flat_intersection_leaves(self) -> list[Leaf] | None:
        """Leaves when the tree is a pure intersection (no unions), else None."""

        out: list[Leaf] = []

        def walk(node: Node) -> bool:
            if isinstance(node, Leaf):
                out.append(node)
                return True
            if isinstance(node, Intersection):
                return all(walk(child) for child in node.children)
            return False

        return out if walk(self.root) else None


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


def minimize(*args, **kwargs):
    """scipy.optimize.minimize, imported on the first call. SLSQP runs only
    for a projection start that Lagrange-Newton does not converge from, so a
    run that never falls back never loads scipy."""
    from scipy.optimize import minimize as scipy_minimize
    return scipy_minimize(*args, **kwargs)


def term_constraint(leaves: Sequence[Leaf]) -> dict:
    """One SLSQP inequality constraint for an intersection of leaves: the
    vector of -c_j(y) (>= 0 inside) and its Jacobian, rows in leaf order."""
    fields = [leaf.constraint for leaf in leaves]

    def fun(y: np.ndarray) -> np.ndarray:
        y = np.asarray(y)
        return -np.array([c.value_checked(y) for c in fields])

    def jac(y: np.ndarray) -> np.ndarray:
        y = np.asarray(y)
        return -np.array([gradient(c, y) for c in fields])

    return {"type": "ineq", "fun": fun, "jac": jac}


def _lstsq(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The least-squares, least-norm x with M x = v, for an M whose rows or
    columns are unit vectors and linearly independent: a dot product for
    one column or one row, a solve for a square M, numpy's lstsq otherwise."""
    rows, cols = M.shape
    if cols == 1:
        return np.array([float(M[:, 0] @ v)])
    if rows == 1:
        return M[0] * float(v[0])
    if rows == cols:
        return np.linalg.solve(M, v)
    return np.linalg.lstsq(M, v, rcond=None)[0]


def _qp_project(A: np.ndarray, b: np.ndarray, z: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray] | None:
    """(y, lam): the closest point y to z of {y : A y <= b} and the rows'
    multipliers lam >= 0, with y = z - A^T lam; None when the rows are
    inconsistent. This is the dual active-set method of Goldfarb and Idnani
    (1983) for an identity Hessian (Nocedal & Wright, ch. 16). From z, the
    most violated row joins a set of linearly independent active rows; an
    active row whose multiplier would turn negative first leaves the set.
    A row that depends on the active ones, such as -x2 beside x2, never
    joins it. Rows are scaled to unit norm, so the tolerance is a distance."""
    norms = np.sqrt(np.einsum("ij,ij->i", A, A))
    scale = np.where(norms > 0.0, norms, 1.0)
    An, bn = A / scale[:, None], b / scale
    tol = 1e-12 * (1.0 + float(np.abs(z).max()))
    y = z.astype(float)
    lam = np.zeros(len(b))
    active: list[int] = []
    for _ in range(4 * (len(b) + len(z)) + 8):
        viol = An @ y - bn
        if viol.max() <= tol:
            return y, np.maximum(lam, 0.0) / scale
        # the row violated most in its own units joins, so that of dependent
        # rows the one with the larger gradient carries the multiplier
        p = int(np.where(viol > tol, viol * scale, -np.inf).argmax())
        if p in active:  # only rounding leaves an active row violated
            return y, np.maximum(lam, 0.0) / scale
        a = An[p]
        while True:
            # r: a's coefficients on the active rows; d: minus the part of a
            # orthogonal to them, the direction that keeps them active
            N = An[active]
            r = _lstsq(N.T, a) if active else np.zeros(0)
            d = r @ N - a
            dd = float(d @ d)
            # the primal step that makes row p active, and the dual step at
            # which an active multiplier reaches zero
            t2 = (float(a @ y) - bn[p]) / dd if dd > 1e-24 else np.inf
            t1, k = np.inf, -1
            for i, ri in enumerate(r):
                if ri > 1e-14 and lam[active[i]] / ri < t1:
                    t1, k = lam[active[i]] / ri, i
            if t1 == np.inf and t2 == np.inf:
                return None
            t = min(t1, t2)
            if t2 < np.inf:
                y = y + t * d
            if active:
                lam[active] -= t * r
            lam[p] += t
            if t2 <= t1:
                active.append(p)
                # land exactly on the active rows, so that rounding in a long
                # step does not leave a row that depends on them violated
                N = An[active]
                y = y - _lstsq(N, N @ y - bn[active])
                break
            lam[active[k]] = 0.0
            del active[k]
    return None


def _violation(fields: list[ScalarField], y: np.ndarray) -> float:
    """sum_j max(c_j(y), 0); inf where a leaf cannot be evaluated."""
    try:
        return sum(max(f.value_checked(y), 0.0) for f in fields)
    except EvaluationError:
        return np.inf


def _leaf_models(f: ScalarField, y: np.ndarray, value: float) -> list[list[np.ndarray]]:
    """Linear models of a leaf at y for a Newton step: alternatives, each a
    list of gradient rows that must all hold. A leaf with an analytic
    gradient has one row. Without one, the row is gradient()'s central
    difference, unless the one-sided differences disagree along exactly one
    coordinate: a kink of abs, max or min then lies within the step, and the
    central difference would average its sides, which can hold the iterate
    on the kink. A convex kink (a max) needs both one-sided rows; a concave
    one (a min) holds on either side, so each side is an alternative."""
    if f.grad is not None:
        return [[gradient(f, y)]]
    h = fd_step(y)
    g = np.empty(f.n)
    kinks = []
    for i in range(f.n):
        e = np.zeros(f.n)
        e[i] = h
        up, down = f.fn(y + e), f.fn(y - e)
        g[i] = (up - down) / (2.0 * h)
        forward, backward = (up - value) / h, (value - down) / h
        if abs(forward - backward) > 1e-3 * (1.0 + abs(forward) + abs(backward)):
            kinks.append((i, forward, backward))
    if not np.all(np.isfinite(g)):
        raise EvaluationError(f"finite-difference gradient of {f.name or '<anon>'} is non-finite", y)
    if len(kinks) != 1:
        return [[g]]
    (i, forward, backward), = kinks
    sides = [g.copy(), g.copy()]
    sides[0][i], sides[1][i] = forward, backward
    return [sides] if forward > backward else [[sides[0]], [sides[1]]]


def _curvature_factor(fields: list[ScalarField], lam: np.ndarray,
                      y: np.ndarray) -> np.ndarray | None:
    """The Cholesky factor L of the Lagrangian's Hessian I + sum_j lam_j H_j
    at y, over the leaves with exact second partials; None when no such
    leaf has a positive multiplier, or when the Hessian is not safely
    positive definite, so that the step is a Gauss-Newton step."""
    terms = [lj * f.hess(y) for f, lj in zip(fields, lam) if lj > 0.0 and f.hess is not None]
    if not terms:
        return None
    H = np.eye(len(y)) + sum(terms)
    if not np.all(np.isfinite(H)):
        return None
    try:
        L = np.linalg.cholesky(H)
    except np.linalg.LinAlgError:
        return None
    return L if float(np.min(np.diag(L))) >= 1e-3 else None


def _kink_qp(models: list[list[list[np.ndarray]]], c: np.ndarray, w: np.ndarray,
             L: np.ndarray | None) -> tuple[np.ndarray, np.ndarray] | None:
    """(u, lam): the step of one Newton iteration and the leaves'
    multipliers, or None when the linearization is inconsistent. The QP
    min 0.5 |u - L^-1 w|^2 over {u : G L^-T u <= -c} is solved for each
    choice of the leaves' alternative models, and the closest solution
    kept; L = None stands for the identity (a Gauss-Newton step)."""
    best = None
    centre = w if L is None else np.linalg.solve(L, w)
    for choice in itertools.product(*models):
        owner = [j for j, rows in enumerate(choice) for _ in rows]
        G = np.array([row for rows in choice for row in rows])
        got = _qp_project(G if L is None else np.linalg.solve(L, G.T).T, -c[owner], centre)
        if got is not None:
            gap = float((got[0] - centre) @ (got[0] - centre))
            if best is None or gap < best[0]:
                best = (gap, got[0], np.bincount(owner, got[1], minlength=len(c)))
    return None if best is None else best[1:]


def _newton_term(leaves: Sequence[Leaf], z: np.ndarray, y0: np.ndarray) -> np.ndarray | None:
    """A KKT point of min |y - z| over the intersection of the leaves, by
    Lagrange-Newton from y0 (Nocedal & Wright, ch. 18), or None when it does
    not converge. Each step solves the QP of the leaves linearized at y
    (`_kink_qp`) with the Lagrangian's Hessian I + sum_j lam_j H_j; its
    active rows are the working set, and on a settled working set the step
    is Newton's on the KKT system. Leaves without exact second partials add
    no curvature, so their steps are Gauss-Newton steps. A backtracking
    search on the l1 merit function accepts each step, and a step from a
    point of the term that heads straight for z stops where it leaves the
    term. An inconsistent linearization is met once by Newton restoration.
    The iteration stops when the error left, predicted from the ratio of
    successive steps, is below 1e-10 (1 + |y|). An affine term's
    linearization is exact, so its first step is the answer, and an
    inconsistent one proves the term empty."""
    fields = [leaf.constraint for leaf in leaves]
    affine = all(f.affine for f in fields)
    y, lam, mu = np.asarray(y0, dtype=float).copy(), np.zeros(len(fields)), 0.0
    restored, previous = False, 0.0
    for _ in range(_NEWTON_MAXITER):
        c = np.array([f.value_checked(y) for f in fields])
        L = _curvature_factor(fields, lam, y)
        got = _kink_qp([_leaf_models(f, y, cj) for f, cj in zip(fields, c)], c, z - y, L)
        if got is None:
            if affine or restored:
                return None
            # the linearization is inconsistent here: restore feasibility
            # once by Newton steps on the most violated leaf, then go on
            y, lam, restored = _newton_feasibility(leaves, y), np.zeros(len(fields)), True
            continue
        d = got[0] if L is None else np.linalg.solve(L.T, got[0])
        if affine:
            return y + d
        lam = got[1]
        # the error left after this step, predicted from the steps' ratio
        # (quadratic and linear convergence alike)
        step = float(np.abs(d).max())
        rate = step / previous if previous > 0.0 else np.inf
        previous = step
        tol = 1e-10 * (1.0 + float(np.abs(y).max()))
        if step <= tol or (rate < 0.5 and step * rate / (1.0 - rate) <= tol):
            y = y + d
            return y if max(f.value_checked(y) for f in fields) <= _FEAS_TOL else None
        if float(np.max(lam, initial=0.0)) > 1e6:
            # diverging multipliers: the active gradients vanish ahead, so
            # no regular KKT point lies there; a feasible y still bounds
            # the distance from above
            return y if float(np.max(c)) <= _FEAS_TOL else None
        if float(np.max(c)) <= 0.0 and not np.any(lam > 0.0):
            # from a point of the term the step heads straight for z, which
            # lies outside it: stop where the segment leaves the term
            lo, hi = 0.0, 1.0
            for _ in range(30):
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if _violation(fields, y + mid * d) == 0.0 else (lo, mid)
            if lo > 0.0:
                y = y + lo * d
                continue
        mu = max(mu, 2.0 * float(np.max(lam, initial=0.0)))
        phi = 0.5 * float((y - z) @ (y - z)) + mu * float(np.sum(np.maximum(c, 0.0)))
        slope = float((y - z) @ d) - mu * float(np.sum(np.maximum(c, 0.0)))
        t = 1.0
        while True:
            trial = y + t * d
            viol = _violation(fields, trial)
            if viol < np.inf and (0.5 * float((trial - z) @ (trial - z)) + mu * viol
                                  <= phi + 1e-4 * t * min(slope, 0.0)):
                break
            t *= 0.5
            if t < 1e-10:
                return None
        y = y + t * d
    return None


def _slsqp_start(leaves: Sequence[Leaf], z: np.ndarray, y0: np.ndarray,
                 maxiter: int) -> np.ndarray:
    """One SLSQP run for min |y - z|^2 over the leaves, from y0."""
    res = minimize(lambda y: float((y - z) @ (y - z)), y0, jac=lambda y: 2.0 * (y - z),
                   method="SLSQP", constraints=[term_constraint(leaves)],
                   options={"maxiter": maxiter, "ftol": 1e-16})
    return np.asarray(res.x, dtype=float)


def project_term(leaves: Sequence[Leaf], z: np.ndarray, starts: list[np.ndarray],
                 maxiter: int) -> tuple[np.ndarray, float] | None:
    """Closest point to z on the intersection of leaf sublevel sets, or None.

    Each start runs Lagrange-Newton, and one it does not converge from runs
    at most `maxiter` SLSQP iterations instead. A start whose leaves cannot
    be evaluated is skipped. A term of affine leaves is convex, so it is
    solved once, exactly, and an empty one is not handed to SLSQP."""
    affine = all(leaf.constraint.affine for leaf in leaves)
    best: tuple[np.ndarray, float] | None = None
    stale = 0
    for i, y0 in enumerate([z] if affine else starts):
        try:
            y = _newton_term(leaves, z, y0)
            if y is None:
                if affine:
                    return None
                y = _slsqp_start(leaves, z, y0, maxiter)
            y = _newton_feasibility(leaves, y, 4, slack=_FEAS_TOL * 1e-3)
            vals = [leaf.constraint.value_checked(y) for leaf in leaves]
        except (EvaluationError, FloatingPointError):
            continue
        if max(vals) > _FEAS_TOL:
            continue
        d = float(np.linalg.norm(y - z))
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


def _local_starts(leaves: Sequence[Leaf], x: np.ndarray) -> list[np.ndarray]:
    """x and its Newton restoration onto the leaves; the restoration is left
    out when it steps where a leaf cannot be evaluated."""
    try:
        return [x.copy(), _newton_feasibility(leaves, x)]
    except EvaluationError:
        return [x.copy()]


def project(S: SetDescription, x: Sequence[float] | np.ndarray, *, starts: int = 16,
            seed: int = 0, warm: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    """(y, d): a closest point y of S (its closure) to x and d = |x - y|, which
    approximates inf_{y in S} |x - y| from above.

    Each DNF term of S (`SetDescription._terms`) is projected onto by
    `project_term`, in the order of a linearized distance bound, skipping a
    term whose bound is over 4 d of the best so far. A term of affine leaves
    is an exact QP. Any other term runs Lagrange-Newton from `warm`, x, x's
    Newton restoration onto the term and seed-tagged random points, up to
    `starts` in all, and stops once two further starts fail to improve; a
    start that does not converge falls back to SLSQP. Raises NonConvergence
    when no start of any term finds a feasible point."""
    x = np.asarray(x, dtype=float)
    closed = S.closure()
    if closed.classify(x, 0.0) != Membership.OUTSIDE:
        return x.copy(), 0.0
    rng = np.random.default_rng((int(seed), zlib.crc32(b"project")))
    best: tuple[np.ndarray, float] | None = None
    terms = sorted(closed._terms, key=lambda lv: _term_lower_bound(lv, x))
    for leaves in terms:
        if best is not None and _term_lower_bound(leaves, x) > 4.0 * best[1] + 1e-12:
            continue  # cannot beat the incumbent (heuristic prune)
        term_starts: list[np.ndarray] = []
        if warm is not None:
            term_starts.append(np.asarray(warm, dtype=float))
        term_starts.extend(_local_starts(leaves, x))
        scale = 1.0 + float(np.linalg.norm(x))
        while len(term_starts) < max(3, starts):
            radius = scale * float(rng.uniform(0.05, 1.5))
            term_starts.append(x + radius * rng.normal(size=S.n) / np.sqrt(S.n))
        got = project_term(leaves, x, term_starts, _PROJECT_MAXITER)
        if got is not None and (best is None or got[1] < best[1]):
            best = got
    if best is None:
        raise NonConvergence(f"no feasible point found for {S.name or 'set'} near {x.tolist()}")
    return best


def feasible_point(S: SetDescription, x: Sequence[float] | np.ndarray) -> np.ndarray | None:
    """A nearby (not necessarily closest) point of S, or None: Newton
    restoration on each DNF term in the order of a linearized distance bound,
    then, as fallback, `project_term` on the two most promising terms from x
    and its restoration. A term whose restoration leaves its leaves' domain
    is skipped. Cheap enough for samplers; use project() when the minimizer
    itself matters."""
    x = np.asarray(x, dtype=float)
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
        got = project_term(leaves, x, _local_starts(leaves, x), 40)
        if got is not None:
            return got[0]
    return None


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


def _active_leaves(S: SetDescription, x: np.ndarray) -> tuple[list[Leaf], bool] | None:
    """(active leaves, any_outside) for pure intersections; None for unions."""
    leaves = S.flat_intersection_leaves()
    if leaves is None:
        return None
    active: list[Leaf] = []
    for leaf in leaves:
        v = leaf.constraint.value_checked(x)
        if v > EPS_ACT:
            return active, True
        if abs(v) <= EPS_ACT:
            active.append(leaf)
    return active, False


def contingent_cone_member_analytic(S: SetDescription, x: Sequence[float] | np.ndarray,
                                    v: Sequence[float] | np.ndarray) -> ConeVerdict:
    """Gradient test for T_S(x) on intersections of smooth sublevel leaves.

    Member iff <grad c_j(x), v> <= 0 for every active j; NotApplicable when the
    tree contains unions or the active gradients fail transversality.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    got = _active_leaves(S, x)
    if got is None:
        return ConeVerdict.NOT_APPLICABLE
    active, outside = got
    if outside:
        return ConeVerdict.NOT_APPLICABLE
    if not active:
        return ConeVerdict.MEMBER
    grads = [gradient(leaf.constraint, x) for leaf in active]
    if not transversality_check(grads).feasible:
        return ConeVerdict.NOT_APPLICABLE
    for g in grads:
        if float(g @ v) > 0.0:
            return ConeVerdict.NON_MEMBER
    return ConeVerdict.MEMBER


def dm_cone_member(S: SetDescription, x: Sequence[float] | np.ndarray,
                   v: Sequence[float] | np.ndarray) -> ConeVerdict:
    """Gradient test for the interior-directions cone D_int(S)(x).

    Member iff <grad c_j(x), v> < -1e-8 for every active j. Needs nonzero
    active gradients (not joint transversality: opposed nonzero gradients are
    a legitimate NonMember).
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    got = _active_leaves(S, x)
    if got is None:
        return ConeVerdict.NOT_APPLICABLE
    active, outside = got
    if outside:
        return ConeVerdict.NOT_APPLICABLE
    if not active:
        return ConeVerdict.MEMBER
    grads = [gradient(leaf.constraint, x) for leaf in active]
    for g in grads:
        if float(np.linalg.norm(g)) <= 1e-12:
            return ConeVerdict.NOT_APPLICABLE
    for g in grads:
        if float(g @ v) >= -1e-8:
            return ConeVerdict.NON_MEMBER
    return ConeVerdict.MEMBER


def _min_ratio(S: SetDescription, x: np.ndarray, v: np.ndarray, seed: int, d0: float,
               warm: np.ndarray | None) -> float:
    """min over CONE_H of (dist(S, x + h v) - d0)/h, stopping once it is
    <= CONE_TOL; each projection starts warm from the previous one."""
    best = np.inf
    for h in CONE_H:
        warm, d = project(S, x + h * v, starts=6, seed=seed, warm=warm)
        best = min(best, (d - d0) / h)
        if best <= CONE_TOL:
            break
    return best


def contingent_min_ratio(S: SetDescription, x: Sequence[float] | np.ndarray,
                         v: Sequence[float] | np.ndarray, *, seed: int = 0) -> float:
    """min over CONE_H of distance(S, x + h v)/h.

    A sampled under-approximation of the liminf in the cone definition;
    v is in the contingent cone when the value is <= CONE_TOL. Raises
    NonConvergence if the distance solver fails (caller reports Inconclusive).
    """
    x, v = np.asarray(x, dtype=float), np.asarray(v, dtype=float)
    if float(np.linalg.norm(v)) == 0.0:
        return 0.0
    return _min_ratio(S, x, v, seed, 0.0, None)


def external_min_ratio(S: SetDescription, x: Sequence[float] | np.ndarray,
                       v: Sequence[float] | np.ndarray, *, seed: int = 0) -> float:
    """min over CONE_H of (dist(S, x+hv) - dist(S, x))/h; v is in the external
    cone when the value is <= CONE_TOL."""
    x, v = np.asarray(x, dtype=float), np.asarray(v, dtype=float)
    y0, d0 = project(S, x, starts=8, seed=seed)
    return _min_ratio(S, x, v, seed, d0, y0)


# ---------------------------------------------------------------------------
# Minkowski functional (C-sets)


def minkowski(S: SetDescription, x: Sequence[float] | np.ndarray) -> float:
    """inf { mu >= 0 : x in mu*S } by ray bisection on membership, to a
    relative width of 1e-13, over scalings up to 1e12.

    Requires 0 in int(S) (the C-set precondition), checked by membership.
    """
    x = np.asarray(x, dtype=float)
    origin = np.zeros(S.n)
    if S.classify(origin, 0.0) != Membership.INSIDE:
        raise PreconditionError("Minkowski functional needs 0 in int(S)")
    if float(np.linalg.norm(x)) == 0.0:
        return 0.0

    def member(mu: float) -> bool:
        return S.classify(x / mu, 0.0) != Membership.OUTSIDE

    hi = 1.0
    while not member(hi):
        hi *= 2.0
        if hi > 1e12:
            raise NonConvergence("no finite Minkowski scaling found (set unbounded toward x?)")
    lo = hi / 2.0
    while lo > 1e-300 and member(lo):
        lo /= 2.0
    if lo <= 1e-300:
        return 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if member(mid):
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-13 * hi:
            break
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

    def __iter__(self):
        return iter(self.points)

    def __len__(self) -> int:
        return len(self.points)


def in_box(x: np.ndarray, box: np.ndarray) -> bool:
    """x lies in the box, up to a slack of 1e-9 on each face."""
    return bool(np.all(x >= box[:, 0] - 1e-9) and np.all(x <= box[:, 1] + 1e-9))


def _box_draws(rng: np.random.Generator, box: np.ndarray, count: int) -> np.ndarray:
    lo, hi = box[:, 0], box[:, 1]
    return lo + rng.uniform(size=(count, box.shape[0])) * (hi - lo)


def sample(S: SetDescription, box: Sequence[Sequence[float]] | np.ndarray, n: int,
           seed: int = 0) -> SampleResult:
    """Deterministic points of S inside the box; rejection first, then
    projection of box draws for thin or measure-zero sets."""
    if n <= 0:
        raise PreconditionError("n must be positive")
    if not S.closure()._terms:  # every DNF term holds a constant leaf > 0
        return SampleResult(points=[], requested=n, achieved=0, short=True)
    box = np.asarray(box, dtype=float)
    rng = np.random.default_rng((int(seed), zlib.crc32(b"sample")))
    points: list[np.ndarray] = []
    budget = max(50 * n, 4000)
    drawn = 0
    while drawn < budget and len(points) < n:
        batch = _box_draws(rng, box, min(512, budget - drawn))
        drawn += len(batch)
        for x in batch:
            if S.classify(x, 0.0) != Membership.OUTSIDE:
                points.append(x)
                if len(points) >= n:
                    break
    used_projection = False
    if len(points) < n:
        for x in _box_draws(rng, box, 8 * n):
            if len(points) >= n:
                break
            y = feasible_point(S, x)
            if y is not None and in_box(y, box):
                points.append(y)
                used_projection = True
    return SampleResult(points=points[:n], requested=n, achieved=len(points[:n]),
                        short=len(points) < n, used_projection=used_projection)


def sample_boundary(S: SetDescription, box: Sequence[Sequence[float]] | np.ndarray,
                    n: int, band: float, seed: int = 0) -> SampleResult:
    """Points with membership Boundary at tolerance `band`, found by bisection
    between set points and outside points (plus set points already in band)."""
    if n <= 0 or band <= 0:
        raise PreconditionError("need n > 0 and band > 0")
    box = np.asarray(box, dtype=float)
    rng = np.random.default_rng((int(seed), zlib.crc32(b"boundary")))
    inside = sample(S, box, max(2 * n, 32), seed=seed)
    points: list[np.ndarray] = []
    for x in inside.points:
        if len(points) >= n:
            break
        if S.classify(x, band) == Membership.BOUNDARY:
            points.append(x)
    if len(points) < n and inside.points:
        outside_pool: list[np.ndarray] = []
        drawn = 0
        while drawn < 4000 and len(outside_pool) < max(2 * n, 32):
            batch = _box_draws(rng, box, 256)
            drawn += len(batch)
            for x in batch:
                if S.classify(x, 0.0) == Membership.OUTSIDE:
                    outside_pool.append(x)
                    if len(outside_pool) >= max(2 * n, 32):
                        break
        attempts = 0
        while outside_pool and len(points) < n and attempts < 8 * n:
            attempts += 1
            a = inside.points[int(rng.integers(len(inside.points)))]
            b = outside_pool[int(rng.integers(len(outside_pool)))]
            for _ in range(80):
                mid = 0.5 * (a + b)
                if S.classify(mid, 0.0) == Membership.OUTSIDE:
                    b = mid
                else:
                    a = mid
            if S.classify(a, band) == Membership.BOUNDARY:
                points.append(a)
    return SampleResult(points=points[:n], requested=n, achieved=len(points[:n]),
                        short=len(points) < n, used_projection=inside.used_projection)
