"""Hybrid inclusions H = (C, F, D, G), barrier candidates, the induced set K
with its derived sets, hybrid time domains, and solution-candidate validation."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from . import geometry as geo
from .fields import C1, LIPSCHITZ, Grid, ScalarField, SetValuedMap, image_samples, gradient

__all__ = [
    "HybridSystem",
    "BarrierCandidate",
    "HybridTimeDomain",
    "ArcInterval",
    "HybridArc",
    "KComplex",
    "build_k_complex",
    "Violation",
    "validate_arc",
    "ScenarioResult",
    "scenario_classify",
    "STAYS_IN_K",
    "LEAVES_BY_JUMP",
    "LEAVES_BY_FLOW",
]

STAYS_IN_K = "stays_in_k"
LEAVES_BY_JUMP = "leaves_by_jump"
LEAVES_BY_FLOW = "leaves_by_flow"


@dataclass(frozen=True)
class HybridSystem:
    n: int
    C: geo.SetDescription
    F: SetValuedMap
    D: geo.SetDescription
    G: SetValuedMap
    name: str = ""
    constants: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (self.C.n == self.D.n == self.F.n == self.G.n == self.n):
            raise ValueError("arity mismatch between system pieces")


@dataclass(frozen=True)
class BarrierCandidate:
    components: tuple[ScalarField, ...]

    def __post_init__(self):
        if len(self.components) < 1:
            raise ValueError("barrier candidate needs at least one component")

    @property
    def m(self) -> int:
        return len(self.components)

    def values(self, x: Sequence[float] | np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.array([c.fn(x) for c in self.components])

    def bar_value(self, x: Sequence[float] | np.ndarray) -> float:
        return float(np.max(self.values(x)))

    def scalarized(self) -> ScalarField:
        """max_i B_i; only continuous in general even when every B_i is C1."""
        if self.m == 1:
            return self.components[0]
        comps = self.components

        def fn(x: np.ndarray) -> float:
            return max(c.fn(x) for c in comps)

        return ScalarField(comps[0].n, fn, grad=None, tag=LIPSCHITZ, name="max(B)")

    def all_c1(self) -> bool:
        return all(c.tag == C1 for c in self.components)


# ---------------------------------------------------------------------------
# Hybrid time domains and arcs


@dataclass(frozen=True)
class HybridTimeDomain:
    """Jump times 0 = t_0 <= t_1 <= ... <= t_{J+1}."""

    times: tuple[float, ...]

    def __post_init__(self):
        if len(self.times) < 2 or self.times[0] != 0.0:
            raise ValueError("domain needs t_0 = 0 and at least one interval")
        if any(b < a for a, b in zip(self.times, self.times[1:])):
            raise ValueError("jump times must be nondecreasing")

    @property
    def jumps(self) -> int:
        return len(self.times) - 2

    @property
    def degenerate(self) -> tuple[bool, ...]:
        """Per-interval flag for zero-length flow intervals [t_j, t_j]."""
        return tuple(b == a for a, b in zip(self.times, self.times[1:]))


@dataclass
class ArcInterval:
    j: int
    times: list[float]
    states: list[np.ndarray]

    def __post_init__(self):
        if len(self.times) != len(self.states) or not self.times:
            raise ValueError("interval needs matching, nonempty times/states")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ValueError("sample times must be strictly increasing within an interval")
        n = np.asarray(self.states[0]).size
        if any(np.asarray(s).size != n for s in self.states):
            raise ValueError("state dimension must be constant along an interval")


@dataclass
class HybridArc:
    """A solution candidate: per-interval ordered samples plus termination cause."""

    intervals: list[ArcInterval]
    termination: str = "horizon_reached"
    flags: list[str] = field(default_factory=list)

    def samples(self) -> Iterator[tuple[float, int, np.ndarray]]:
        for interval in self.intervals:
            for t, x in zip(interval.times, interval.states):
                yield t, interval.j, x

    def domain(self) -> HybridTimeDomain:
        times = [0.0] + [iv.times[-1] for iv in self.intervals]
        return HybridTimeDomain(tuple(times))

    @property
    def start(self) -> np.ndarray:
        return self.intervals[0].states[0]

    @property
    def end(self) -> tuple[float, int, np.ndarray]:
        last = self.intervals[-1]
        return last.times[-1], last.j, last.states[-1]


# ---------------------------------------------------------------------------
# The K complex


@dataclass
class KComplex:
    n: int
    barrier: BarrierCandidate
    K: geo.SetDescription
    K_e: geo.SetDescription
    K_ei: tuple[geo.SetDescription, ...]
    CuD: geo.SetDescription
    bar: ScalarField
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def _cached(self, key, compute):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def sample_k(self, box, n: int, seed: int = 0) -> geo.SampleResult:
        box = np.asarray(box, dtype=float)
        key = ("k", box.tobytes(), n, seed)
        return self._cached(key, lambda: geo.sample(self.K, box, n, seed=seed))

    def sample_boundary_k(self, box, n: int, band: float, seed: int = 0) -> geo.SampleResult:
        box = np.asarray(box, dtype=float)
        key = ("bk", box.tobytes(), n, band, seed)
        return self._cached(key, lambda: geo.sample_boundary(self.K, box, n, band, seed=seed))

    def sample_m(self, i: int, box, n: int, band: float, seed: int = 0) -> geo.SampleResult:
        box = np.asarray(box, dtype=float)
        key = ("m", i, box.tobytes(), n, band, seed)
        return self._cached(key, lambda: self._sample_m(i, box, n, band, seed))

    def _sample_m(self, i: int, box, n: int, band: float, seed: int = 0) -> geo.SampleResult:
        """Points of M_i = { x in dK : B_i(x) = 0 } within the band tolerance.

        Candidates come from K and dK samples pushed onto { B_i = 0 } by
        Newton steps; kept when they stay boundary-classified for K.
        """
        box = np.asarray(box, dtype=float)
        b_i = self.barrier.components[i]
        pool: list[np.ndarray] = []
        pool.extend(self.sample_boundary_k(box, max(2 * n, 32), band, seed=seed).points)
        pool.extend(self.sample_k(box, max(2 * n, 32), seed=seed).points)
        points: list[np.ndarray] = []
        for cand in pool:
            if len(points) >= n:
                break
            y = cand.astype(float).copy()
            ok = False
            for _ in range(40):
                v = float(b_i.fn(y))
                if abs(v) <= 1e-12:
                    ok = True
                    break
                g = gradient(b_i, y)
                gg = float(g @ g)
                if gg < 1e-18:
                    break
                y = y - (v / gg) * g
            if not ok and abs(float(b_i.fn(y))) > min(band, 1e-9):
                continue
            if geo.in_box(y, box) and self.K.classify(y, band) == geo.Membership.BOUNDARY:
                points.append(y)
        return geo.SampleResult(points=points, requested=n, achieved=len(points),
                                short=len(points) < n)


def build_k_complex(H: HybridSystem, B: BarrierCandidate) -> KComplex:
    """K = { x in C u D : B(x) <= 0 } and its derived sets."""
    n = H.n
    if any(c.n != n for c in B.components):
        raise ValueError("barrier arity does not match the system")
    k_ei = tuple(
        geo.SetDescription(n, geo.Leaf(c), name=f"K_e{i + 1}")
        for i, c in enumerate(B.components)
    )
    k_e = geo.SetDescription(n, geo.Intersection(tuple(geo.Leaf(c) for c in B.components)),
                             name="K_e")
    cud = geo.SetDescription(n, geo.Union((H.C.root, H.D.root)), name="CuD")
    k = geo.SetDescription(n, geo.Intersection((k_e.root, cud.root)), name="K")
    return KComplex(n=n, barrier=B, K=k, K_e=k_e, K_ei=k_ei, CuD=cud,
                    bar=B.scalarized())


# ---------------------------------------------------------------------------
# Solution-candidate validation: (S0)-(S2)


@dataclass(frozen=True)
class Violation:
    kind: str  # S0 | S1-membership | S1-velocity | S2-domain | S2-image
    t: float
    j: int
    value: float
    detail: str


def _image_residual(F: SetValuedMap, x: np.ndarray, w: np.ndarray,
                    grid_d: int) -> tuple[float, float]:
    """(min |w - eta| over a lambda grid, image spread slack)."""
    etas = image_samples(F, x, Grid(grid_d))
    dists = [float(np.linalg.norm(w - e)) for e in etas]
    if len(etas) > 1:
        arr = np.array(etas)
        spread = float(np.max(np.linalg.norm(arr - arr[0], axis=1)))
        slack = spread / max(grid_d - 1, 1)
    else:
        slack = 0.0
    return min(dists), slack


def validate_arc(arc: HybridArc, H: HybridSystem, *, tol: float = 1e-6,
                 vel_atol: float = 1e-8, vel_slope: float = 2.0,
                 jump_tol: float = 1e-6, grid_d: int = 9,
                 max_velocity_checks: int = 400) -> list[Violation]:
    """Check (S0) initial membership, (S1) flow membership and velocities,
    (S2) jump domain and image conditions. Violations are data, not errors."""
    out: list[Violation] = []
    c_closed = H.C.closure()

    x00 = arc.intervals[0].states[0]
    if (c_closed.classify(x00, tol) == geo.Membership.OUTSIDE
            and H.D.classify(x00, tol) == geo.Membership.OUTSIDE):
        out.append(Violation("S0", 0.0, 0, float(H.C.value(x00)),
                             "x(0,0) outside cl(C) u D"))

    # (S1) membership at all flow samples; velocities on a stride
    n_pairs = sum(max(len(iv.times) - 1, 0) for iv in arc.intervals)
    stride = max(1, n_pairs // max_velocity_checks)
    pair_idx = 0
    for iv in arc.intervals:
        for s_idx, (t, x) in enumerate(zip(iv.times, iv.states)):
            interior = 0 < s_idx < len(iv.times) - 1
            if len(iv.times) > 1 and interior:
                if H.C.classify(x, tol) == geo.Membership.OUTSIDE:
                    out.append(Violation("S1-membership", t, iv.j, float(H.C.value(x)),
                                         "flow sample outside C"))
        for s_idx in range(len(iv.times) - 1):
            check_this = (pair_idx % stride == 0) or s_idx == 0 or s_idx == len(iv.times) - 2
            pair_idx += 1
            if not check_this:
                continue
            t1, t2 = iv.times[s_idx], iv.times[s_idx + 1]
            x1, x2 = iv.states[s_idx], iv.states[s_idx + 1]
            h = t2 - t1
            w = (x2 - x1) / h
            best, slack = np.inf, 0.0
            for probe in (0.5 * (x1 + x2), x1, x2):
                r, s = _image_residual(H.F, probe, w, grid_d)
                slack = max(slack, s)
                best = min(best, r)
                if best <= vel_atol:
                    break
            # last term: cancellation noise floor of the forward difference
            bound = (vel_atol + vel_slope * h * (1.0 + float(np.linalg.norm(w))) + slack
                     + 4e-15 * (1.0 + float(np.linalg.norm(x1))) / h)
            if best > bound:
                out.append(Violation("S1-velocity", t1, iv.j, best,
                                     f"forward-difference velocity {best:.3e} beyond "
                                     f"F-image tolerance {bound:.3e}"))

    # (S2) jumps
    for iv_pre, iv_post in zip(arc.intervals, arc.intervals[1:]):
        t = iv_pre.times[-1]
        x_pre, x_post = iv_pre.states[-1], iv_post.states[0]
        if H.D.classify(x_pre, jump_tol) == geo.Membership.OUTSIDE:
            out.append(Violation("S2-domain", t, iv_pre.j, float(H.D.value(x_pre)),
                                 "jump from a point outside D"))
        res, slack = _image_residual(H.G, x_pre, x_post, grid_d)
        if res > jump_tol + slack:
            out.append(Violation("S2-image", t, iv_pre.j, res,
                                 f"post-jump state {res:.3e} from sampled G image "
                                 f"(tolerance {jump_tol + slack:.3e})"))
    return out


# ---------------------------------------------------------------------------
# Exit-scenario classification


@dataclass(frozen=True)
class ScenarioResult:
    kind: str  # stays_in_k | leaves_by_jump | leaves_by_flow
    t: float | None = None
    j: int | None = None
    x: np.ndarray | None = None


def scenario_classify(arc: HybridArc, K: geo.SetDescription,
                      exit_tol: float = 1e-6) -> ScenarioResult:
    """Classify the first exit from K: after a jump (Sc1) or by flowing (Sc2)."""
    first = arc.intervals[0].states[0]
    if K.classify(first, exit_tol) == geo.Membership.OUTSIDE:
        raise geo.PreconditionError("arc must start in K")
    for iv_idx, iv in enumerate(arc.intervals):
        for s_idx, (t, x) in enumerate(zip(iv.times, iv.states)):
            if K.classify(x, exit_tol) == geo.Membership.OUTSIDE:
                if s_idx == 0 and iv_idx > 0:
                    return ScenarioResult(LEAVES_BY_JUMP, t, iv.j, x)
                return ScenarioResult(LEAVES_BY_FLOW, t, iv.j, x)
    return ScenarioResult(STAYS_IN_K)
