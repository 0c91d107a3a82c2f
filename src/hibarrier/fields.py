"""Scalar fields with gradients, Clarke gradient sampling, and set-valued maps."""

from __future__ import annotations

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
    "Vertices",
    "Grid",
    "Random",
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
    is the same at every point.
    """

    n: int
    fn: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray] | None = None
    tag: str = C1
    name: str = ""
    affine: bool = False
    hess: Callable[[np.ndarray], np.ndarray] | None = None

    def __call__(self, x: Sequence[float] | np.ndarray) -> float:
        return float(self.fn(np.asarray(x, dtype=float)))

    def value_checked(self, x: np.ndarray) -> float:
        v = float(self.fn(x))
        if not math.isfinite(v):
            raise EvaluationError(f"field {self.name or '<anon>'} is non-finite", x)
        return v


def negated(f: ScalarField) -> ScalarField:
    """-f, keeping f's gradient, second partials and affinity (negated)."""
    return ScalarField(
        f.n, lambda x: -float(f.fn(x)),
        grad=None if f.grad is None else (lambda x: -np.asarray(f.grad(x), dtype=float)),
        tag=f.tag, name=f"-{f.name}", affine=f.affine,
        hess=None if f.hess is None else (lambda x: -f.hess(x)))


def fd_step(x: np.ndarray, scale: float = 1e-6) -> float:
    # balances truncation against rounding at double precision
    return scale * (1.0 + float(np.linalg.norm(x)))


def gradient(f: ScalarField, x: Sequence[float] | np.ndarray,
             h: float | None = None) -> np.ndarray:
    """Analytic gradient when present, else central finite differences."""
    x = np.asarray(x, dtype=float)
    if f.grad is not None:
        g = np.asarray(f.grad(x), dtype=float)
        if not np.all(np.isfinite(g)):
            raise EvaluationError(f"gradient of {f.name or '<anon>'} is non-finite", x)
        return g
    h = fd_step(x) if h is None else h
    g = np.empty(f.n)
    for i in range(f.n):
        e = np.zeros(f.n)
        e[i] = h
        g[i] = (f.fn(x + e) - f.fn(x - e)) / (2.0 * h)
    if not np.all(np.isfinite(g)):
        raise EvaluationError(f"finite-difference gradient of {f.name or '<anon>'} is non-finite", x)
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
            xi = x + radius * u
            g = np.empty(f.n)
            ok = True
            for i in range(f.n):
                e = np.zeros(f.n)
                e[i] = fd
                gi = (f.fn(xi + e) - f.fn(xi - e)) / (2.0 * fd)
                if not np.isfinite(gi):
                    ok = False
                    break
                g[i] = gi
            if ok:
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
    n: int
    k: int
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    name: str = ""

    def __call__(self, x: Sequence[float] | np.ndarray,
                 lam: Sequence[float] | np.ndarray = ()) -> np.ndarray:
        out = np.asarray(self.fn(np.asarray(x, dtype=float),
                                 np.asarray(lam, dtype=float)), dtype=float)
        return out


@dataclass(frozen=True)
class Vertices:
    pass


@dataclass(frozen=True)
class Grid:
    d: int = 5


@dataclass(frozen=True)
class Random:
    count: int = 32
    seed: int = 0


Scheme = Vertices | Grid | Random

_VERTEX_LIMIT = 12


def _lambda_grid(k: int, scheme: Scheme) -> np.ndarray:
    if k == 0:
        return np.zeros((1, 0))
    if isinstance(scheme, Vertices):
        if k > _VERTEX_LIMIT:
            raise BudgetError(f"vertices scheme with k={k} exceeds 2^{_VERTEX_LIMIT} budget; use random")
        return np.array(list(itertools.product((0.0, 1.0), repeat=k)))
    if isinstance(scheme, Grid):
        axes = [np.linspace(0.0, 1.0, scheme.d)] * k
        return np.array(list(itertools.product(*axes)))
    if isinstance(scheme, Random):
        rng = np.random.default_rng((int(scheme.seed), 0x1A6))
        return rng.uniform(size=(scheme.count, k))
    raise TypeError(f"unknown scheme {scheme!r}")


def image_samples(F: SetValuedMap, x: Sequence[float] | np.ndarray,
                  scheme: Scheme = Grid(5)) -> list[np.ndarray]:
    """Finite sample of the image F(x) over the lambda box."""
    x = np.asarray(x, dtype=float)
    lams = _lambda_grid(F.k, scheme)
    out = []
    for lam in lams:
        y = F(x, lam)
        if not np.all(np.isfinite(y)):
            raise EvaluationError(f"map {F.name or '<anon>'} is non-finite", x)
        out.append(y)
    return out


def filter_by_cone(etas: Iterable[np.ndarray], S,
                   x: Sequence[float] | np.ndarray) -> list[np.ndarray]:
    """Keep directions with contingent membership in T_S(x).

    Interior points keep everything (the cone is all of R^n there); otherwise
    the analytic test is used where applicable with a numeric fallback.
    """
    from . import geometry  # local import to keep module layering acyclic

    x = np.asarray(x, dtype=float)
    etas = [np.asarray(e, dtype=float) for e in etas]
    if not etas:
        return []
    if S.classify(x, 1e-9) == geometry.Membership.INSIDE:
        return list(etas)
    kept = []
    for eta in etas:
        verdict = geometry.contingent_cone_member_analytic(S, x, eta)
        if verdict == geometry.ConeVerdict.NOT_APPLICABLE:
            if geometry.contingent_min_ratio(S, x, eta) <= geometry.CONE_TOL:
                kept.append(eta)
        elif verdict == geometry.ConeVerdict.MEMBER:
            kept.append(eta)
    return kept
