"""Scalar fields with gradients, Clarke gradient sampling, and set-valued maps."""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "EvaluationError",
    "BudgetError",
    "ScalarField",
    "SetValuedMap",
    "gradient",
    "negated",
    "clarke_support",
    "image_samples",
    "filter_by_cone",
    "grid",
    "Vertices",
    "Grid",
]

C1 = "c1"
LIPSCHITZ = "lipschitz"

# Clarke gradients are sampled at CLARKE_COUNT points within CLARKE_RADIUS
CLARKE_RADIUS = 1e-4
CLARKE_COUNT = 64


class EvaluationError(ArithmeticError):
    """A field produced a non-finite value; carries the offending point."""

    def __init__(self, message: str, x: np.ndarray):
        super().__init__(f"{message} at x={np.asarray(x).tolist()}")
        self.x = np.asarray(x, dtype=float)


class BudgetError(ValueError):
    pass


@dataclass(frozen=True)
class ScalarField:
    """A scalar function on R^n with an optional analytic gradient.

    tag is "c1" or "lipschitz"; a missing gradient falls back to central
    finite differences at (assumed) differentiable points. `hess`, when
    present, gives the exact n x n matrix of second partials. `affine` marks
    a field whose second partials are all identically zero, so its gradient
    is the same at every point. `rows` and `grad_rows`, when present, are
    the row targets of `fn` and `grad`: an (N, n) block to the N values, or
    to the (N, n) gradients, each row equal to the one-point result bit for
    bit. `ast`, when present, is the expression `fn` was compiled from, for
    code generators that inline the field.
    """

    n: int
    fn: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray] | None = None
    tag: str = C1
    name: str = ""
    affine: bool = False
    hess: Callable[[np.ndarray], np.ndarray] | None = None
    rows: Callable[[np.ndarray], np.ndarray] | None = None
    grad_rows: Callable[[np.ndarray], np.ndarray] | None = None
    ast: object = None

    def __call__(self, x: Sequence[float] | np.ndarray) -> float:
        return float(self.fn(np.asarray(x, dtype=float)))

    def value_checked(self, x: np.ndarray) -> float:
        v = float(self.fn(x))
        if not math.isfinite(v):
            raise EvaluationError(f"field {self.name or '<anon>'} is non-finite", x)
        return v

    def value_rows(self, X: np.ndarray) -> np.ndarray:
        """fn at every row of the (N, n) block X, unchecked: `rows` when the
        field has it, else a loop of fn over the rows."""
        if self.rows is not None:
            return self.rows(X)
        return np.array([float(self.fn(x)) for x in X], dtype=float)


def negated(f: ScalarField) -> ScalarField:
    """-f, keeping f's gradient, second partials, row targets and affinity
    (negated); named -(name), which parses back to -f."""
    return ScalarField(
        f.n, lambda x: -float(f.fn(x)),
        grad=None if f.grad is None else (lambda x: -np.asarray(f.grad(x), dtype=float)),
        tag=f.tag, name=f"-({f.name})", affine=f.affine,
        hess=None if f.hess is None else (lambda x: -f.hess(x)),
        rows=None if f.rows is None else (lambda X: -f.rows(X)),
        grad_rows=None if f.grad_rows is None else (lambda X: -f.grad_rows(X)))


def fd_step(x: np.ndarray, scale: float = 1e-6) -> float:
    # balances truncation against rounding at double precision
    return scale * (1.0 + float(np.linalg.norm(x)))


def gradient(f: ScalarField, x: Sequence[float] | np.ndarray,
             h: float | None = None) -> np.ndarray:
    """Analytic gradient when present, else central finite differences."""
    x = np.asarray(x, dtype=float)
    if f.grad is not None:
        g = np.asarray(f.grad(x), dtype=float)
        if not all(map(math.isfinite, g.tolist())):
            raise EvaluationError(f"gradient of {f.name or '<anon>'} is non-finite", x)
        return g
    g = _central_difference(f, x, fd_step(x) if h is None else h)
    if not all(map(math.isfinite, g.tolist())):
        raise EvaluationError(f"finite-difference gradient of {f.name or '<anon>'} is non-finite", x)
    return g


def _central_difference(f: ScalarField, x: np.ndarray, h: float) -> np.ndarray:
    """The central difference quotients of f at x with step h, unchecked."""
    g = np.empty(f.n)
    for i in range(f.n):
        e = np.zeros(f.n)
        e[i] = h
        g[i] = (f.fn(x + e) - f.fn(x - e)) / (2.0 * h)
    return g


def _ball_points(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    u = rng.normal(size=(count, n))
    norms = np.linalg.norm(u, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    radii = rng.uniform(size=(count, 1)) ** (1.0 / n)
    return u / norms * radii


def clarke_support(f: ScalarField, x: Sequence[float] | np.ndarray,
                   v: Sequence[float] | np.ndarray, radius: float = CLARKE_RADIUS,
                   count: int = CLARKE_COUNT, seed: int = 0) -> float:
    """Sampled support function max_k <zeta_k, v> of the Clarke gradient at x.

    The zeta_k are finite-difference gradients at `count` points perturbed
    within `radius` of x; non-finite samples are discarded and redrawn (the
    zero-measure set of non-differentiability is avoided with probability
    one). An under-approximation of the true support value; deterministic
    per seed. Smooth fields with an analytic gradient use it directly
    (singleton set).
    """
    v = np.asarray(v, dtype=float)
    if f.grad is not None and f.tag == C1:
        return float(np.dot(gradient(f, x), v))
    x = np.asarray(x, dtype=float)
    rng = np.random.default_rng((int(seed), 0x5C1A))
    grads: list[np.ndarray] = []
    attempts = 0
    fd = min(radius * 0.1, fd_step(x))
    while len(grads) < count and attempts < 8 * count:
        batch = _ball_points(rng, f.n, count)
        for u in batch:
            attempts += 1
            g = _central_difference(f, x + radius * u, fd)
            if np.all(np.isfinite(g)):
                grads.append(g)
                if len(grads) >= count:
                    break
    if not grads:
        raise EvaluationError("no finite Clarke gradient samples", x)
    return float(np.max(np.array(grads) @ v))


# ---------------------------------------------------------------------------
# Set-valued maps F(x) = { f(x, lam) : lam in [0,1]^k }


@dataclass(frozen=True)
class SetValuedMap:
    """`rk4`, when present, is a generated step(x, lam, h) equal bit for bit
    to step's numpy RK4 over fn (config builds it with expr.compile_step)."""

    n: int
    k: int
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    name: str = ""
    rk4: Callable[[np.ndarray, np.ndarray, float], np.ndarray] | None = None

    def __call__(self, x: Sequence[float] | np.ndarray,
                 lam: Sequence[float] | np.ndarray = ()) -> np.ndarray:
        out = np.asarray(self.fn(np.asarray(x, dtype=float),
                                 np.asarray(lam, dtype=float)), dtype=float)
        return out

    def step(self, x: np.ndarray, lam: np.ndarray, h: float) -> np.ndarray:
        """One classical 4-stage step of x' = f(x, lam) from the float array
        x with step h."""
        if self.rk4 is not None:
            return self.rk4(x, lam, h)
        k1 = self(x, lam)
        k2 = self(x + 0.5 * h * k1, lam)
        k3 = self(x + 0.5 * h * k2, lam)
        k4 = self(x + h * k3, lam)
        return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@dataclass(frozen=True)
class Vertices:
    pass


@dataclass(frozen=True)
class Grid:
    d: int = 5


Scheme = Vertices | Grid  # Vertices is Grid(2): linspace(0, 1, 2) is {0, 1}

_GRID_LIMIT = 4096  # lambda grid points (2^12 vertices)


@functools.lru_cache(maxsize=None)
def grid(k: int, d: int) -> tuple[np.ndarray, ...]:
    """The d^k points of linspace(0, 1, d)^k in itertools.product order (one
    empty point for k = 0), built once per (k, d) as read-only rows that
    every caller shares. Raises BudgetError, before building anything, for
    more than _GRID_LIMIT points."""
    if d ** min(k, 13) > _GRID_LIMIT:  # d^13 > 4096 for every d >= 2
        raise BudgetError(f"a lambda grid of {d}^{k} points exceeds the budget "
                          f"of {_GRID_LIMIT} points")
    rows = tuple(np.array(p) for p in itertools.product(np.linspace(0.0, 1.0, d), repeat=k))
    for lam in rows:
        lam.setflags(write=False)
    return rows


def image_samples(F: SetValuedMap, x: Sequence[float] | np.ndarray,
                  scheme: Scheme = Grid(5)) -> list[np.ndarray]:
    """Finite sample of the image F(x) over the lambda grid of the scheme."""
    x = np.asarray(x, dtype=float)
    out = []
    for lam in grid(F.k, 2 if isinstance(scheme, Vertices) else scheme.d):
        y = F(x, lam)
        if not np.all(np.isfinite(y)):
            raise EvaluationError(f"map {F.name or '<anon>'} is non-finite", x)
        out.append(y)
    return out


def filter_by_cone(etas: Iterable[np.ndarray], S,
                   x: Sequence[float] | np.ndarray) -> list[np.ndarray]:
    """Keep directions with contingent membership in T_S(x).

    Interior points keep everything (the cone is all of R^n there); otherwise
    the linearized cone, computed once at x, decides where it applies, and a
    numeric sweep at seed 0 decides each direction where it does not.
    """
    from . import geometry  # local import to keep module layering acyclic

    x = np.asarray(x, dtype=float)
    etas = [np.asarray(e, dtype=float) for e in etas]
    if not etas:
        return []
    if S.classify(x, 1e-9) == geometry.Membership.INSIDE:
        return list(etas)
    cone = geometry.linearized_cone(S, x)
    if cone is None:
        return [eta for eta in etas
                if geometry.contingent_min_ratio(S, x, eta) <= geometry.CONE_TOL]
    return [eta for eta in etas if cone.contains(eta)]
