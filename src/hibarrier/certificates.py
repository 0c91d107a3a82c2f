"""Sampling-based checkers for the barrier sufficient conditions.

Every checker returns a Verdict: NoViolationFound is explicitly
sampling-relative (never a proof), Violated carries re-checkable witnesses,
Inconclusive records what prevented a call either way.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, asdict
from typing import Callable

import numpy as np

from . import geometry as geo
from . import regions
from .config import ConfigError
from .fields import (CLARKE_RADIUS, Grid, Vertices, clarke_support, gradient,
                     image_samples, filter_by_cone, negated)
from .model import BarrierCandidate, HybridSystem, KComplex

__all__ = [
    "NO_VIOLATION",
    "VIOLATED",
    "INCONCLUSIVE",
    "CheckConfig",
    "Evaluation",
    "Verdict",
    "UniquenessFunction",
    "check_thm1",
    "check_thm_boundary",
    "check_thm_external",
    "check_thm_lipschitz",
    "check_relaxed",
    "check_invariance_completion",
    "check_contractive_c1",
    "check_contractive_lip",
    "check_contractivity_completion",
    "check_cset",
]

NO_VIOLATION = "no_violation_found"
VIOLATED = "violated"
INCONCLUSIVE = "inconclusive"

_HULL_VERTEX_CAP = 3  # parameter count above which vertex enumeration is skipped


@dataclass(frozen=True)
class CheckConfig:
    box: tuple  # bounding box [[lo, hi]] * n
    radius: float = 0.1          # realizes the neighborhoods U(.)
    band: float = 0.01           # boundary band delta
    samples: int = 48            # per region
    scheme: object = Grid(5)     # image sampling scheme for F and G
    tol_eq: float = 1e-9         # slack for <= conditions
    margin_strict: float = 1e-6  # required margin for < conditions
    seed: int = 0

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.radius, self.band, self.tol_eq,
                                              self.margin_strict)):
            raise geo.PreconditionError("radius, band, tol_eq and margin_strict must be finite")
        if not (self.radius > self.band > 0):
            raise geo.PreconditionError("need radius > band > 0")
        if self.samples < 1 or self.margin_strict <= 0:
            raise geo.PreconditionError("need samples >= 1 and margin_strict > 0")

    def box_array(self) -> np.ndarray:
        return np.asarray(self.box, dtype=float)

    def echo(self) -> dict:
        d = asdict(self)
        d["scheme"] = repr(self.scheme)
        return d


@dataclass(frozen=True)
class Evaluation:
    condition: str
    x: tuple
    value: float
    bound: float
    eta: tuple | None = None
    note: str = ""

    @property
    def margin(self) -> float:
        return self.value - self.bound

    @property
    def violated(self) -> bool:
        return self.value > self.bound


@dataclass
class Verdict:
    check: str
    status: str
    witnesses: list[Evaluation]
    evaluations: list[Evaluation]
    samples_evaluated: int
    worst_margin: float | None
    vacuous: bool
    flags: list[str]
    notes: list[str]
    config: dict

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "status": self.status,
            "witnesses": [dict(vars(w)) for w in self.witnesses],
            "samples_evaluated": self.samples_evaluated,
            "worst_margin": self.worst_margin,
            "vacuous": self.vacuous,
            "flags": self.flags,
            "notes": self.notes,
            "config": self.config,
            "evaluations": [dict(vars(e)) for e in self.evaluations],
        }


class _Collector:
    def __init__(self) -> None:
        self.evaluations: list[Evaluation] = []
        self.flags: list[str] = []
        self.notes: list[str] = []
        self.inconclusive = False

    def add(self, condition: str, x: np.ndarray, value: float, bound: float,
            eta: np.ndarray | None = None, note: str = "") -> None:
        self.evaluations.append(Evaluation(
            condition=condition,
            x=tuple(float(v) for v in np.asarray(x).ravel()),
            value=float(value), bound=float(bound),
            eta=None if eta is None else tuple(float(v) for v in np.asarray(eta).ravel()),
            note=note))

    def flag(self, name: str) -> None:
        if name not in self.flags:
            self.flags.append(name)

    def note(self, text: str) -> None:
        self.notes.append(text)

    def mark_inconclusive(self, why: str) -> None:
        self.inconclusive = True
        self.note(why)

    def finish(self, check: str, cfg: CheckConfig) -> Verdict:
        witnesses = sorted(
            (e for e in self.evaluations if e.violated),
            key=lambda e: (e.condition, float(np.linalg.norm(e.x)), e.x))
        vacuous = not self.evaluations
        if witnesses:
            status = VIOLATED
        elif self.inconclusive:
            status = INCONCLUSIVE
        else:
            status = NO_VIOLATION
        if vacuous and status == NO_VIOLATION:
            self.flag("vacuous")
        self.flag("sampling-relative")
        worst = max((e.margin for e in self.evaluations), default=None)
        return Verdict(check=check, status=status, witnesses=witnesses,
                       evaluations=list(self.evaluations),
                       samples_evaluated=len(self.evaluations),
                       worst_margin=worst, vacuous=vacuous and status == NO_VIOLATION,
                       flags=list(self.flags), notes=list(self.notes),
                       config=cfg.echo())


# ---------------------------------------------------------------------------
# Uniqueness functions


@dataclass(frozen=True)
class UniquenessFunction:
    kind: str  # linear | osgood
    k: float = 1.0

    def __post_init__(self):
        if self.kind not in ("linear", "osgood"):
            raise geo.PreconditionError(f"unknown uniqueness function {self.kind!r}")
        if self.kind == "linear" and not 0 < self.k < math.inf:
            raise geo.PreconditionError("linear uniqueness function needs a finite k > 0")

    def __call__(self, w: float) -> float:
        if self.kind == "linear":
            return self.k * w
        return w * math.log(w) if w > 0.0 else 0.0

    def label(self) -> str:
        if self.kind == "linear":
            return f"linear:{self.k}"
        return self.kind

    @staticmethod
    def parse(text: str) -> "UniquenessFunction":
        """linear[:k] (k = 1 when omitted) or osgood."""
        if text == "osgood":
            return UniquenessFunction("osgood")
        name, colon, arg = text.partition(":")
        if name == "linear":
            try:
                k = float(arg) if colon else 1.0
            except ValueError:
                raise ConfigError(f"linear uniqueness function needs a number: {text!r}") from None
            return UniquenessFunction("linear", k=k)
        raise geo.PreconditionError(f"unknown uniqueness function {text!r}")


# ---------------------------------------------------------------------------
# Shared pieces


def _require_c1(B: BarrierCandidate) -> None:
    if not B.all_c1():
        raise geo.PreconditionError("this check needs every barrier component tagged C1")


def _filtered_images(H: HybridSystem, x: np.ndarray, cfg: CheckConfig,
                     col: _Collector) -> list[np.ndarray]:
    etas = image_samples(H.F, x, cfg.scheme)
    try:
        return filter_by_cone(etas, H.C, x)
    except geo.NonConvergence:
        col.mark_inconclusive(f"T_C filter did not converge at {x.tolist()}")
        col.flag("distance-approximate")
        return []


def _jump_legs(col: _Collector, kc: KComplex, H: HybridSystem, cfg: CheckConfig,
               *, strict: bool, prefix: str, interior_on_boundary: bool = False) -> None:
    """B(G(x)) <= 0 (or < 0) and sampled containment G(x) in C u D (or its
    interior from dK cap D when interior_on_boundary)."""
    box = cfg.box_array()
    pts = regions.jump_region(kc, H, box, cfg.samples, seed=cfg.seed)
    bound_b = -cfg.margin_strict if strict else cfg.tol_eq
    for x in pts:
        gs = image_samples(H.G, x, cfg.scheme)
        for g in gs:
            col.add(f"{prefix}:jump:barrier", x, kc.barrier.bar_value(g), bound_b, eta=g)
            col.add(f"{prefix}:jump:in-cud", x, float(kc.CuD.value(g)), cfg.tol_eq, eta=g)
    if interior_on_boundary:
        bpts = regions.boundary_jump_region(kc, H, box, cfg.samples, cfg.band,
                                            seed=cfg.seed)
        for x in bpts:
            gs = image_samples(H.G, x, cfg.scheme)
            for g in gs:
                col.add(f"{prefix}:jump:interior", x, float(kc.CuD.value(g)),
                        -cfg.margin_strict, eta=g)
    col.flag("sampled-containment")


def _tangent_ratio(S: geo.SetDescription, x: np.ndarray, eta: np.ndarray,
                   cone: geo.LinearizedCone | None, cfg: CheckConfig,
                   col: _Collector) -> float | None:
    """The cone ratio of eta at x, given the caller's geo.linearized_cone(S,
    x): 0.0 when eta lies in the cone, else geo.contingent_min_ratio, in
    closed form where the cone is exact and swept where it is not; None when
    the distance solver fails (marked inconclusive). The path is flagged
    `cone:linearized` or `cone:sweep`.

    A linearized non-member at a point that is not exact is re-confirmed
    numerically: at sampled points the active-constraint tolerance can
    attribute a boundary cone to a point that is actually interior.
    """
    if cone is not None and cone.contains(eta):
        col.flag("cone:linearized")
        return 0.0
    if cone is not None and cone.exact:
        col.flag("cone:linearized")
    else:
        col.flag("distance-approximate")
        col.flag("cone:sweep")
    try:
        return geo.contingent_min_ratio(S, x, eta, seed=cfg.seed, cone=cone)
    except geo.NonConvergence:
        col.mark_inconclusive(f"tangent-cone distance solve failed at {x.tolist()}")
        return None


def _corner_ratios(col: _Collector, kc: KComplex, H: HybridSystem, cfg: CheckConfig,
                   condition: str, pts: list[np.ndarray]) -> None:
    """The tangent-cone ratio of K cap C at each point for every sampled eta
    in F(x), with the linearized cone computed once per point."""
    for x in pts:
        etas = image_samples(H.F, x, cfg.scheme)
        cone = geo.linearized_cone(kc.KC, x)
        for eta in etas:
            ratio = _tangent_ratio(kc.KC, x, eta, cone, cfg, col)
            if ratio is not None:
                col.add(condition, x, min(ratio, 1e6), geo.CONE_TOL, eta=eta)


def _active_components(B: BarrierCandidate, x: np.ndarray, cfg: CheckConfig) -> list[int]:
    """Indices of the barrier components that vanish at x within the band."""
    return [i for i in range(B.m)
            if abs(float(B.components[i].fn(x))) <= max(geo.EPS_ACT, cfg.band)]


def _first_outside_midpoint(S: geo.SetDescription,
                            pairs: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray | None:
    """The first midpoint 0.5 (a + b) of the pairs that lies outside S at
    1e-9, or None: a sampled convexity test. The midpoints are classified
    in one block; one where classify raises raises when it is reached, as
    in a loop over the pairs."""
    if not pairs:
        return None
    mids = np.array([0.5 * (a + b) for a, b in pairs])
    return next((mids[i] for i in geo._rows_ranked(S, mids, 1e-9, (2,))), None)


def _clear_of_box(pts: list[np.ndarray], box: np.ndarray) -> bool:
    """Every point lies in the box shrunk about its center to 98%."""
    center = 0.5 * (box[:, 0] + box[:, 1])
    half = 0.5 * (box[:, 1] - box[:, 0])
    return all(bool(np.all(np.abs(x - center) <= 0.98 * half)) for x in pts)


# ---------------------------------------------------------------------------
# Theorem checks


def check_thm1(H: HybridSystem, kc: KComplex, cfg: CheckConfig) -> Verdict:
    """Flow: <grad B_i, eta> <= 0 on (U(M_i) \\ K_ei) cap C for eta in F cap T_C.
    Jump: B(G(x)) <= 0 and G(x) in C u D on D cap K."""
    B = kc.barrier
    _require_c1(B)
    col = _Collector()
    box = cfg.box_array()
    for i in range(B.m):
        for x in regions.m_band(kc, H, i, box, cfg.samples, cfg.radius, cfg.band,
                                seed=cfg.seed):
            for eta in _filtered_images(H, x, cfg, col):
                val = float(gradient(B.components[i], x) @ eta)
                col.add(f"thm1:flow:B{i + 1}", x, val, cfg.tol_eq, eta=eta)
    _jump_legs(col, kc, H, cfg, strict=False, prefix="thm1")
    return col.finish("thm1", cfg)


def check_thm_boundary(H: HybridSystem, kc: KComplex, cfg: CheckConfig,
                       rho: UniquenessFunction, option: str = "a") -> Verdict:
    """Boundary-only flow condition under a Lipschitz-like estimate with a
    uniqueness function, transversality, and one of the corner options a/b/c."""
    B = kc.barrier
    _require_c1(B)
    if option not in ("a", "b", "c"):
        raise geo.PreconditionError("option must be one of a, b, c")
    col = _Collector()
    col.note(f"uniqueness function {rho.label()}")
    box = cfg.box_array()

    # (1) <grad B_i, eta> <= 0 on M_i cap C for ALL eta in F(x)
    for i in range(B.m):
        for x in regions.m_on_c(kc, H, i, box, cfg.samples, cfg.band,
                                seed=cfg.seed):
            for eta in image_samples(H.F, x, cfg.scheme):
                val = float(gradient(B.components[i], x) @ eta)
                col.add(f"boundary:eq9:B{i + 1}", x, val, cfg.tol_eq, eta=eta)

    # (2) transversality of active barrier gradients on dK_e cap C
    for x in regions.ke_boundary_in_c(kc, H, box, cfg.samples, cfg.band,
                                      seed=cfg.seed):
        active = _active_components(B, x, cfg)
        if not active:
            continue
        grads = [gradient(B.components[i], x) for i in active]
        tv = geo.transversality_check(grads, margin=cfg.margin_strict)
        col.add("boundary:transversality", x, tv.best, -cfg.margin_strict,
                note="infeasible" if not tv.feasible else "")

    # (3) Lipschitz-like estimate (x paired with its projection on d(K cap C))
    band_pts = regions.outside_band(kc, H, box, cfg.samples, cfg.radius, cfg.band,
                                    seed=cfg.seed)
    pair_targets: list[tuple[np.ndarray, np.ndarray]] = []
    for x in band_pts:
        try:
            y, _ = geo.project(kc.KC, x, starts=8, seed=cfg.seed)
        except geo.NonConvergence:
            col.mark_inconclusive(f"projection onto d(K cap C) failed at {x.tolist()}")
            continue
        pair_targets.append((x, y))
    for x, y in pair_targets:
        dxy = float(np.linalg.norm(x - y))
        if dxy < 1e-12:
            continue
        sx = [float((x - y) @ ex) for ex in image_samples(H.F, x, cfg.scheme)]
        sy = [float((x - y) @ ey) for ey in image_samples(H.F, y, cfg.scheme)]
        bound = dxy * abs(rho(dxy)) + cfg.tol_eq
        for s in sx:
            residual = min(abs(s - t) for t in sy)
            col.add("boundary:lipschitz-estimate", x, residual, bound)

    # (4) the chosen corner option
    if option == "a":
        for x in regions.region_a(kc, H, box, cfg.samples, cfg.radius, cfg.band,
                                  seed=cfg.seed):
            active = _active_components(B, x, cfg)
            if not active:
                continue
            grads = [gradient(B.components[i], x) for i in active]
            tv = geo.transversality_check(grads, margin=cfg.margin_strict)
            col.add("boundary:a:transversality", x, tv.best, -cfg.margin_strict)
            for eta in image_samples(H.F, x, cfg.scheme):
                for i, g in zip(active, grads):
                    col.add(f"boundary:a:flow:B{i + 1}", x, float(g @ eta), cfg.tol_eq,
                            eta=eta)
    elif option == "b":
        _corner_ratios(col, kc, H, cfg, "boundary:b:eqraj2",
                       regions.region_b(kc, H, box, cfg.samples, cfg.radius, cfg.band,
                                        seed=cfg.seed))
    else:
        c_pts = geo.sample(H.C, box, 2 * cfg.samples, seed=cfg.seed).points[:40]
        mid = _first_outside_midpoint(H.C, list(itertools.combinations(c_pts, 2)))
        if mid is not None:
            col.mark_inconclusive(f"the set C is not convex: midpoint {mid.tolist()} of "
                                  f"sampled points is outside C")
        else:
            # anchors lie only within `band` of dC, so each is checked against C too
            anchors = [x for x in regions.anchors_ke_dc(kc, H, box, cfg.samples, cfg.band,
                                                        seed=cfg.seed)
                       if regions._in_ke_cap_c(kc, H, x)]
            if not anchors:
                col.flag("empty-leg:boundary:c")
                col.note("boundary:c: no sampled anchor lies in K_e cap C near dC; "
                         "the corner condition was not evaluated")
            _corner_ratios(col, kc, H, cfg, "boundary:c:eqraj2", anchors)

    _jump_legs(col, kc, H, cfg, strict=False, prefix="boundary")
    return col.finish(f"boundary:{option}", cfg)


def check_thm_external(H: HybridSystem, kc: KComplex, cfg: CheckConfig) -> Verdict:
    """eta in E_K(x) for filtered flow directions on (U(dK) \\ K) cap C."""
    col = _Collector()
    box = cfg.box_array()
    col.flag("distance-approximate")
    for x in regions.outside_band(kc, H, box, cfg.samples, cfg.radius, cfg.band,
                                  seed=cfg.seed):
        base = None  # x's projection onto K, shared by its etas
        for eta in _filtered_images(H, x, cfg, col):
            try:
                if base is None:
                    base = geo.projection(kc.K, x, starts=8, seed=cfg.seed)
                rate = geo.external_min_ratio(kc.K, x, eta, seed=cfg.seed, base=base)
            except geo.NonConvergence:
                col.mark_inconclusive(f"external-cone distance solve failed at {x.tolist()}")
                continue
            col.flag("cone:linearized" if base.closed_form else "cone:sweep")
            col.add("external:flow", x, rate, geo.CONE_TOL, eta=eta)
    _jump_legs(col, kc, H, cfg, strict=False, prefix="external")
    return col.finish("external", cfg)


def check_thm_lipschitz(H: HybridSystem, kc: KComplex, cfg: CheckConfig) -> Verdict:
    """Clarke support condition max_{zeta} <zeta, eta> <= 0 on the outside band
    (B auto-scalarized via the max when it has several components)."""
    bar = kc.bar
    col = _Collector()
    if kc.barrier.m > 1:
        col.note("vector candidate scalarized as max_i B_i")
    box = cfg.box_array()
    for x in regions.outside_band(kc, H, box, cfg.samples, cfg.radius, cfg.band,
                                  seed=cfg.seed):
        for eta in _filtered_images(H, x, cfg, col):
            val = clarke_support(bar, x, eta, seed=cfg.seed)
            col.add("lipschitz:flow", x, val, cfg.tol_eq, eta=eta)
    col.flag("clarke-sampled")
    _jump_legs(col, kc, H, cfg, strict=False, prefix="lipschitz")
    return col.finish("lipschitz", cfg)


def check_relaxed(H: HybridSystem, kc: KComplex, cfg: CheckConfig,
                  rho: UniquenessFunction) -> Verdict:
    """Same bands as check_thm1 with right-hand side rho(B_i(x)) instead of 0."""
    B = kc.barrier
    col = _Collector()
    col.note(f"uniqueness function {rho.label()}")
    box = cfg.box_array()
    if B.all_c1():
        for i in range(B.m):
            pts = regions.m_band(kc, H, i, box, cfg.samples, cfg.radius, cfg.band,
                                 seed=cfg.seed)
            for x in pts:
                rhs = rho(float(B.components[i].fn(x)))
                for eta in _filtered_images(H, x, cfg, col):
                    val = float(gradient(B.components[i], x) @ eta)
                    col.add(f"relaxed:flow:B{i + 1}", x, val - rhs, cfg.tol_eq, eta=eta,
                            note=f"rho(B_i)={rhs:.6g}")
    elif B.m == 1:
        bar = kc.bar
        for x in regions.outside_band(kc, H, box, cfg.samples, cfg.radius, cfg.band,
                                      seed=cfg.seed):
            rhs = rho(float(bar.fn(x)))
            for eta in _filtered_images(H, x, cfg, col):
                val = clarke_support(bar, x, eta, seed=cfg.seed)
                col.add("relaxed:flow-lipschitz", x, val - rhs, cfg.tol_eq, eta=eta)
        col.flag("clarke-sampled")
    else:
        raise geo.PreconditionError(
            "relaxed check needs C1 components or a scalar Lipschitz candidate")
    _jump_legs(col, kc, H, cfg, strict=False, prefix="relaxed")
    return col.finish("relaxed", cfg)


def _no_finite_escape_note(kc: KComplex, H: HybridSystem, cfg: CheckConfig,
                           col: _Collector) -> None:
    """Heuristic assumption flag, not a proof: K cap C bounded inside the box,
    or |F| bounded on its samples."""
    box = cfg.box_array()
    pts = regions.ke_c_volume(kc, H, box, cfg.samples, seed=cfg.seed)
    if not pts:
        col.note("no-finite-escape heuristic: K cap C produced no samples")
        return
    inside = _clear_of_box(pts, box)
    sup_f = 0.0
    for x in pts:
        for eta in image_samples(H.F, x, cfg.scheme):
            sup_f = max(sup_f, float(np.linalg.norm(eta)))
    if inside:
        col.flag("assumed-no-finite-escape")
        col.note("no-finite-escape heuristic: sampled K cap C stays inside the box "
                 f"(sup |F| over samples = {sup_f:.6g})")
    elif np.isfinite(sup_f):
        col.flag("assumed-no-finite-escape")
        col.note(f"no-finite-escape heuristic: sampled sup |F| = {sup_f:.6g} is finite "
                 "although K cap C touches the box")
    else:
        col.note("no-finite-escape heuristic: unverified")


_SHRINK_LEVELS = 7  # radii r * 4^-k, k = 0..6


def _persistent_neighborhood_failures(
        kc: KComplex, H: HybridSystem, cfg: CheckConfig, col: _Collector,
        x_o: np.ndarray, condition: str,
        fail_value: Callable[[np.ndarray], float | None]) -> None:
    """The neighborhood quantifier is existential (some U(x_o) must work), so
    a nearby failure only refutes it if failures persist as the radius
    shrinks toward x_o."""
    worst_at_level: list[tuple[float, np.ndarray] | None] = []
    for k in range(_SHRINK_LEVELS):
        radius = cfg.radius * 0.25 ** k
        pts = regions.neighborhood_on_kdc(kc, H, x_o, cfg.box_array(), radius, 4,
                                          cfg.band, seed=cfg.seed + 7 * k)
        level_worst: tuple[float, np.ndarray] | None = None
        for p in pts:
            val = fail_value(p)
            if val is not None and val > geo.CONE_TOL:
                if level_worst is None or val > level_worst[0]:
                    level_worst = (val, p)
        worst_at_level.append(level_worst)
    if all(w is not None for w in worst_at_level):
        val, p = worst_at_level[-1]  # smallest radius
        col.add(condition, p, val, geo.CONE_TOL,
                note=f"persists across shrinking neighborhoods of {x_o.tolist()}")
    elif any(w is not None for w in worst_at_level):
        col.note(f"{condition}: transient neighborhood failures near "
                 f"{x_o.tolist()} vanish under shrinking radii (sensitivity only)")


def _completion_leg(kc: KComplex, H: HybridSystem, cfg: CheckConfig, col: _Collector,
                    S: geo.SetDescription, condition: str,
                    neighborhood: str | None) -> None:
    """On (K cap dC) \\ D: the least sampled tangent-cone ratio of F(x) to S
    (capped at 1e6), and, when `neighborhood` names a condition, whether its
    failures persist on shrinking neighborhoods."""

    def min_ratio(p: np.ndarray) -> float | None:
        best: float | None = None
        etas = image_samples(H.F, p, cfg.scheme)
        cone = geo.linearized_cone(S, p)
        for eta in etas:
            r = _tangent_ratio(S, p, eta, cone, cfg, col)
            if r is None:
                continue
            best = r if best is None else min(best, r)
            if best <= geo.CONE_TOL:
                break
        return None if best is None else min(best, 1e6)

    pts = regions.kdc_not_d(kc, H, cfg.box_array(), cfg.samples, cfg.band, seed=cfg.seed)
    for x_o in pts:
        best = min_ratio(x_o)
        if best is None:
            col.mark_inconclusive(f"no usable flow directions at {x_o.tolist()}")
            continue
        col.add(condition, x_o, best, geo.CONE_TOL)
        if neighborhood:
            _persistent_neighborhood_failures(kc, H, cfg, col, x_o, neighborhood, min_ratio)
    if not pts:
        col.note("(K cap dC) \\ D produced no samples; completion is vacuous")


def check_invariance_completion(H: HybridSystem, kc: KComplex, cfg: CheckConfig,
                                mode: str = "prop2") -> Verdict:
    """Pre-invariance to invariance: nontrivial-flow existence on
    (K cap dC) \\ D (prop2) or the cone nonemptiness condition on shrinking
    neighborhoods (prop3), plus the no-finite-escape heuristic flag."""
    if mode not in ("prop2", "prop3"):
        raise geo.PreconditionError("mode must be prop2 or prop3")
    col = _Collector()
    _no_finite_escape_note(kc, H, cfg, col)
    _completion_leg(kc, H, cfg, col, kc.KC, f"invariance:{mode}:flow-exists",
                    "invariance:prop3:neighborhood" if mode == "prop3" else None)
    return col.finish(f"invariance:{mode}", cfg)


def _with_hull_edges(etas: list[np.ndarray]) -> list[np.ndarray]:
    """Augment image samples with pairwise midpoints (members of the convex
    hull, hence of convex images) to reduce emptiness-test misses."""
    if len(etas) < 2 or len(etas) > 12:
        return etas
    out = list(etas)
    for i in range(len(etas)):
        for j in range(i + 1, len(etas)):
            out.append(0.5 * (etas[i] + etas[j]))
    return out


def _corner_emptiness_leg(col: _Collector, kc: KComplex, H: HybridSystem,
                          cfg: CheckConfig, prefix: str) -> None:
    """F(x) cap T_{dC cap dK}(x) must be empty on dK cap dC."""
    box = cfg.box_array()
    eps = max(geo.EPS_ACT, cfg.band)
    for x in regions.dk_dc(kc, H, box, cfg.samples, cfg.band, seed=cfg.seed):
        # the constraints active at x among C leaves and barrier components:
        # the active-constraint description of dC cap dK
        active = ([leaf.constraint for leaf in H.C.leaves()
                   if abs(float(leaf.constraint.value_checked(x))) <= eps]
                  + [kc.barrier.components[i] for i in _active_components(kc.barrier, x, cfg)])
        grads = [gradient(c, x) for c in active]
        eq_set = geo.SetDescription(kc.n, geo.Intersection(tuple(
            geo.Leaf(f) for c in active for f in (c, negated(c)))), name="dC_cap_dK")
        for eta in _with_hull_edges(image_samples(H.F, x, Vertices())
                                    if H.F.k <= _HULL_VERTEX_CAP
                                    else image_samples(H.F, x, cfg.scheme)):
            if not active or any(abs(float(g @ eta)) > cfg.margin_strict for g in grads):
                continue  # eta transversal to some active level set: not tangent
            # confirm numerically against the equality description, whose
            # leaf pairs {c <= 0, -c <= 0} have no linearized cone
            col.flag("cone:sweep")
            try:
                ratio = geo.contingent_min_ratio(eq_set, x, eta, seed=cfg.seed)
            except geo.NonConvergence:
                col.mark_inconclusive(f"corner tangency solve failed at {x.tolist()}")
                continue
            # violation when eta is tangent to the corner set (ratio small)
            col.add(f"{prefix}:corner-empty", x, -min(ratio, 1e6), -geo.CONE_TOL, eta=eta)


def check_contractive_c1(H: HybridSystem, kc: KComplex, cfg: CheckConfig) -> Verdict:
    """Strict flow inequality on M_i cap C, corner-tangency emptiness on
    dK cap dC, and strict jump conditions with interior containment."""
    B = kc.barrier
    _require_c1(B)
    col = _Collector()
    box = cfg.box_array()
    for i in range(B.m):
        for x in regions.m_on_c(kc, H, i, box, cfg.samples, cfg.band,
                                seed=cfg.seed):
            for eta in _filtered_images(H, x, cfg, col):
                val = float(gradient(B.components[i], x) @ eta)
                col.add(f"contract:flow:B{i + 1}", x, val, -cfg.margin_strict, eta=eta)
    _corner_emptiness_leg(col, kc, H, cfg, prefix="contract")
    _jump_legs(col, kc, H, cfg, strict=True, prefix="contract",
               interior_on_boundary=True)
    return col.finish("contract-c1", cfg)


def check_contractive_lip(H: HybridSystem, kc: KComplex, cfg: CheckConfig) -> Verdict:
    """Strict Clarke support condition sampled over all of K_e cap C (a larger
    region than the smooth checker's boundary-only one), plus corner and
    strict jump legs.

    The sampled support under-approximates the true one, so satisfaction
    subtracts a 2 * CLARKE_RADIUS safety margin.
    """
    bar = kc.bar
    col = _Collector()
    if kc.barrier.m > 1:
        col.note("vector candidate scalarized as max_i B_i")
    box = cfg.box_array()
    pts = (regions.ke_c_volume(kc, H, box, cfg.samples, seed=cfg.seed)
           + regions.ke_boundary_in_c(kc, H, box, cfg.samples, cfg.band, seed=cfg.seed))
    bound = -(cfg.margin_strict + 2.0 * CLARKE_RADIUS)
    for x in pts:
        for eta in _filtered_images(H, x, cfg, col):
            val = clarke_support(bar, x, eta, seed=cfg.seed)
            col.add("contract-lip:flow", x, val, bound, eta=eta)
    col.flag("clarke-sampled")
    _corner_emptiness_leg(col, kc, H, cfg, prefix="contract-lip")
    _jump_legs(col, kc, H, cfg, strict=True, prefix="contract-lip",
               interior_on_boundary=True)
    return col.finish("contract-lip", cfg)


def check_contractivity_completion(H: HybridSystem, kc: KComplex,
                                   cfg: CheckConfig) -> Verdict:
    """Pre-contractivity to contractivity: sampled F cap T_C nonempty around
    (K cap dC) \\ D, plus the no-finite-escape heuristic flag."""
    col = _Collector()
    _no_finite_escape_note(kc, H, cfg, col)
    _completion_leg(kc, H, cfg, col, H.C, "contract-complete:flow-in-tc",
                    "contract-complete:neighborhood")
    return col.finish("contract-complete", cfg)


def _cset_spot_checks(kc: KComplex, H: HybridSystem, cfg: CheckConfig,
                      col: _Collector) -> bool:
    box = cfg.box_array()
    origin = np.zeros(kc.n)
    if kc.K.classify(origin, 0.0) != geo.Membership.INSIDE:
        col.mark_inconclusive("C-set precondition fails: 0 not in int(K)")
        return False
    pts = kc.pool(kc.K, box, 2 * cfg.samples, cfg.seed).points
    if not pts:
        col.mark_inconclusive("C-set precondition: K produced no samples")
        return False
    rng = geo.rng_for(cfg.seed, "cset-convexity")
    pairs = [(pts[int(rng.integers(len(pts)))], pts[int(rng.integers(len(pts)))])
             for _ in range(cfg.samples)]
    mid = _first_outside_midpoint(kc.K, pairs)
    if mid is not None:
        col.mark_inconclusive(f"C-set precondition fails: K not convex at "
                              f"midpoint {mid.tolist()}")
        return False
    if not _clear_of_box(pts, box):
        col.note("compactness heuristic: K samples touch the bounding box")
    return True


_CSET_H_FLOOR = 1e-4  # quotient noise guard for Minkowski/limsup estimates


def _minkowski(K: geo.SetDescription, points: list[np.ndarray]) -> list[float]:
    """The Minkowski functional of K at each point, from one block call."""
    return list(geo.minkowski(K, np.array(points))) if points else []


def check_cset(H: HybridSystem, kc: KComplex, cfg: CheckConfig,
               direction: str = "minkowski") -> Verdict:
    """C-set contractivity via the Minkowski-functional rate (definition) or
    the one-sided barrier difference quotients (sufficient condition)."""
    if direction not in ("minkowski", "barrier"):
        raise geo.PreconditionError("direction must be minkowski or barrier")
    col = _Collector()
    box = cfg.box_array()
    if not _cset_spot_checks(kc, H, cfg, col):
        return col.finish(f"cset:{direction}", cfg)

    hs = [h for h in geo.CONE_H if h >= _CSET_H_FLOOR]

    if direction == "minkowski":
        # each leg's Minkowski values come from one call over all its points
        xs = regions.boundary_k_in_c(kc, H, box, cfg.samples, cfg.band, seed=cfg.seed)
        # a point not boundary-accurate enough for the rate quotient is skipped
        legs = [(x, _filtered_images(H, x, cfg, col))
                for x, psi_x in zip(xs, _minkowski(kc.K, xs)) if abs(psi_x - 1.0) <= 1e-6]
        psi = iter(_minkowski(kc.K, [x + h * eta for x, etas in legs
                                     for eta in etas for h in hs]))
        for x, etas in legs:
            for eta in etas:
                rate = min((next(psi) - 1.0) / h for h in hs)
                col.add("cset:mink:flow", x, rate, -cfg.margin_strict, eta=eta)
        images = [(x, g) for x in regions.jump_region(kc, H, box, cfg.samples, seed=cfg.seed)
                  for g in image_samples(H.G, x, cfg.scheme)]
        for (x, g), psi_g in zip(images, _minkowski(kc.K, [g for _, g in images])):
            col.add("cset:mink:jump", x, psi_g, 1.0 - cfg.margin_strict, eta=g)
    else:
        for i, b_i in enumerate(kc.barrier.components):
            for x in regions.m_on_c(kc, H, i, box, cfg.samples, cfg.band,
                                    seed=cfg.seed):
                bx = float(b_i.fn(x))
                for eta in _filtered_images(H, x, cfg, col):
                    rate = min((float(b_i.fn(x + h * eta)) - bx) / h for h in hs)
                    col.add(f"cset:barrier:flow:B{i + 1}", x, rate,
                            -cfg.margin_strict, eta=eta)
        for x in regions.jump_region(kc, H, box, cfg.samples, seed=cfg.seed):
            for g in image_samples(H.G, x, cfg.scheme):
                col.add("cset:barrier:jump", x, kc.barrier.bar_value(g),
                        -cfg.margin_strict, eta=g)
                col.add("cset:barrier:jump-in-cud", x, float(kc.CuD.value(g)),
                        cfg.tol_eq, eta=g)
        col.flag("sampled-containment")
    return col.finish(f"cset:{direction}", cfg)
