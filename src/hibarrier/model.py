"""Hybrid inclusions H = (C, F, D, G), barrier candidates, the induced set K
with its derived sets, hybrid arcs, and solution-candidate validation."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from . import geometry as geo
from .fields import C1, LIPSCHITZ, Grid, ScalarField, SetValuedMap, image_samples, negated

__all__ = [
    "HybridSystem",
    "BarrierCandidate",
    "ArcInterval",
    "HybridArc",
    "KComplex",
    "build_k_complex",
    "Violation",
    "validate_arc",
    "ScenarioResult",
    "scenario_classify",
    "EXIT_TOL",
    "STAYS_IN_K",
    "LEAVES_BY_JUMP",
    "LEAVES_BY_FLOW",
]

STAYS_IN_K = "stays_in_k"
LEAVES_BY_JUMP = "leaves_by_jump"
LEAVES_BY_FLOW = "leaves_by_flow"
EXIT_TOL = 1e-6  # a state counts as outside K beyond this slack


@dataclass(frozen=True)
class HybridSystem:
    n: int
    C: geo.SetDescription
    F: SetValuedMap
    D: geo.SetDescription
    G: SetValuedMap
    name: str = ""

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
        """max_i B_i(x) as np.max gives it: a nan propagates, and of equal
        values (0.0 and -0.0) the later is kept."""
        x = np.asarray(x, dtype=float)
        best, *rest = [float(c.fn(x)) for c in self.components]
        for v in rest:
            if best == best and not v < best:
                best = v
        return best

    def scalarized(self) -> ScalarField:
        """max_i B_i as bar_value gives it; only continuous in general even
        when every B_i is C1."""
        if self.m == 1:
            return self.components[0]
        return ScalarField(self.components[0].n, self.bar_value, tag=LIPSCHITZ, name="max(B)")

    def all_c1(self) -> bool:
        return all(c.tag == C1 for c in self.components)


# ---------------------------------------------------------------------------
# Hybrid arcs


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
    CuD: geo.SetDescription
    KC: geo.SetDescription  # K cap C, simplified to K_e cap C (C is inside C u D)
    KD: geo.SetDescription  # K cap D = K_e cap D
    bar: ScalarField
    _pools: dict = field(default_factory=dict, repr=False, compare=False)

    def pool(self, S: geo.SetDescription, box, n: int, seed: int,
             band: float | None = None) -> geo.SampleResult:
        """n points of S in the box, or of its boundary band when a band is
        given; drawn once per (set name, box, n, band, seed) and then shared
        by the checks of one command, so sets are told apart by name. Callers
        copy the points before changing them."""
        box = np.asarray(box, dtype=float)
        key = (S.name, box.tobytes(), n, band, seed)
        if key not in self._pools:
            self._pools[key] = (geo.sample(S, box, n, seed=seed) if band is None
                                else geo.sample_boundary(S, box, n, band, seed=seed))
        return self._pools[key]

    def sample_m(self, i: int, box, n: int, band: float, seed: int = 0) -> geo.SampleResult:
        """Points of M_i = { x in dK : B_i(x) = 0 } within the band tolerance,
        memoised with the pools.

        Candidates come from K and dK samples pushed onto { B_i = 0 } by up
        to 40 Newton steps on {B_i <= 0, -B_i <= 0}; kept when |B_i| is at
        most max(1e-12, min(band, 1e-9)) there and the point stays
        boundary-classified for K.
        """
        box = np.asarray(box, dtype=float)
        key = (("M", i), box.tobytes(), n, band, seed)  # never a set name
        if key in self._pools:
            return self._pools[key]
        b_i = self.barrier.components[i]
        level = (geo.Leaf(b_i), geo.Leaf(negated(b_i)))
        cands = [*self.pool(self.K, box, max(2 * n, 32), seed, band).points,
                 *self.pool(self.K, box, max(2 * n, 32), seed).points]
        points: list[np.ndarray] = []
        for cand in cands:
            if len(points) >= n:
                break
            y = geo._newton_feasibility(level, cand, 40, slack=1e-12)
            if abs(float(b_i.fn(y))) > max(1e-12, min(band, 1e-9)):
                continue
            if geo.in_box(y, box) and self.K.classify(y, band) == geo.Membership.BOUNDARY:
                points.append(y)
        self._pools[key] = geo.SampleResult(points=points, requested=n,
                                            achieved=len(points), short=len(points) < n)
        return self._pools[key]


def build_k_complex(H: HybridSystem, B: BarrierCandidate) -> KComplex:
    """K = { x in C u D : B(x) <= 0 } and its derived sets."""
    n = H.n
    if any(c.n != n for c in B.components):
        raise ValueError("barrier arity does not match the system")
    k_e = geo.SetDescription(n, geo.Intersection(tuple(geo.Leaf(c) for c in B.components)),
                             name="K_e")
    cud = geo.SetDescription(n, geo.Union((H.C.root, H.D.root)), name="CuD")
    k = geo.SetDescription(n, geo.Intersection((k_e.root, cud.root)), name="K")
    kc = geo.SetDescription(n, geo.Intersection((k_e.root, H.C.root)), name="KcapC")
    kd = geo.SetDescription(n, geo.Intersection((H.D.root, k_e.root)), name="KcapD")
    return KComplex(n=n, barrier=B, K=k, K_e=k_e, CuD=cud, KC=kc, KD=kd,
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


def scenario_classify(arc: HybridArc, K: geo.SetDescription) -> ScenarioResult:
    """Classify the first exit from K: after a jump (Sc1) or by flowing (Sc2)."""
    first = arc.intervals[0].states[0]
    if K.classify(first, EXIT_TOL) == geo.Membership.OUTSIDE:
        raise geo.PreconditionError("arc must start in K")
    for iv_idx, iv in enumerate(arc.intervals):
        for s_idx, (t, x) in enumerate(zip(iv.times, iv.states)):
            if K.classify(x, EXIT_TOL) == geo.Membership.OUTSIDE:
                if s_idx == 0 and iv_idx > 0:
                    return ScenarioResult(LEAVES_BY_JUMP, t, iv.j, x)
                return ScenarioResult(LEAVES_BY_FLOW, t, iv.j, x)
    return ScenarioResult(STAYS_IN_K)
