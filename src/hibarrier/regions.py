"""Deterministic samplers for the state-space regions quantified over by the
sufficient conditions (boundary bands, level-set pieces, corner sets).

Point pools for a given (set, box, seed) are cached on the KComplex so the
checkers share them across legs; per-region randomness comes from tagged
substreams of the same seed.
"""

from __future__ import annotations

import zlib
from typing import Callable

import numpy as np
from scipy.optimize import minimize

from . import geometry as geo
from .fields import EvaluationError, gradient
from .model import HybridSystem, KComplex

__all__ = [
    "rng_for",
    "m_on_c",
    "m_band",
    "outside_band",
    "ke_boundary_in_c",
    "anchors_ke_dc",
    "region_a",
    "region_b",
    "dk_dc",
    "jump_region",
    "boundary_jump_region",
    "kdc_not_d",
    "neighborhood_on_kdc",
    "ke_c_volume",
    "boundary_k_in_c",
    "kc_set",
]

_IN_C_TOL = 1e-6  # membership slack when filtering "x in C" after refinement


def rng_for(seed: int, tag: str) -> np.random.Generator:
    return np.random.default_rng((int(seed), zlib.crc32(tag.encode())))


def _ball(rng: np.random.Generator, n: int, radius: float) -> np.ndarray:
    u = rng.normal(size=n)
    nu = float(np.linalg.norm(u))
    if nu == 0.0:
        u[0] = 1.0
        nu = 1.0
    return (radius * float(rng.uniform()) ** (1.0 / n)) * u / nu


def _pull_into(S: geo.SetDescription, p: np.ndarray) -> np.ndarray | None:
    """p itself if it is not outside S, else a nearby point of S (None if none)."""
    if S.classify(p, 0.0) == geo.Membership.OUTSIDE:
        return geo.feasible_point(S, p)
    return p


def _in_ke_cap_c(kc: KComplex, H: HybridSystem, x: np.ndarray) -> bool:
    """x lies in K_e and in C, up to the refinement slack `_IN_C_TOL`."""
    return (kc.K_e.classify(x, _IN_C_TOL) != geo.Membership.OUTSIDE
            and H.C.classify(x, _IN_C_TOL) != geo.Membership.OUTSIDE)


def _perturb(rng: np.random.Generator, anchors: list[np.ndarray], n: int,
             radius: float, reach: float, box: np.ndarray,
             step: Callable[[np.ndarray, np.ndarray], np.ndarray | None],
             out: list[np.ndarray] | None = None) -> list[np.ndarray]:
    """Fill `out` up to n points in at most 20n draws. A draw picks an anchor a
    (numpy draws nothing for a single anchor), moves it by a random point of
    the ball of `radius`, and lets `step(a, p)` reflect, pull or reject it
    (None); the result is kept when it lies within reach * radius of a and in
    the box."""
    out = [] if out is None else out
    attempts = 0
    while len(out) < n and attempts < 20 * n:
        attempts += 1
        a = anchors[int(rng.integers(len(anchors)))]
        p = step(a, a + _ball(rng, len(a), radius))
        if p is None or float(np.linalg.norm(p - a)) > reach * radius or not geo.in_box(p, box):
            continue
        out.append(p)
    return out


def kc_set(kc: KComplex, H: HybridSystem) -> geo.SetDescription:
    """K intersect C, simplified to K_e intersect C (C is inside C u D)."""
    return geo.SetDescription(kc.n, geo.Intersection((kc.K_e.root, H.C.root)), name="KcapC")


# -- shared pools ------------------------------------------------------------


def _bk_pool(kc: KComplex, box: np.ndarray, n: int, band: float, seed: int) -> list[np.ndarray]:
    return list(kc.sample_boundary_k(box, max(4 * n, 32), band, seed=seed).points)


def _k_pool(kc: KComplex, box: np.ndarray, n: int, seed: int) -> list[np.ndarray]:
    return list(kc.sample_k(box, max(3 * n, 32), seed=seed).points)


def _bke_pool(kc: KComplex, box: np.ndarray, n: int, band: float,
              seed: int) -> list[np.ndarray]:
    return kc._cached(("bke", box.tobytes(), n, band, seed),
                      lambda: geo.sample_boundary(kc.K_e, box, max(4 * n, 32), band,
                                                  seed=seed).points)


def _m_pool(kc: KComplex, i: int, box: np.ndarray, n: int, band: float,
            seed: int) -> list[np.ndarray]:
    return list(kc.sample_m(i, box, max(2 * n, 16), band, seed=seed).points)


# -- regions -----------------------------------------------------------------


def m_on_c(kc: KComplex, H: HybridSystem, i: int, box: np.ndarray, n: int,
           band: float, seed: int) -> list[np.ndarray]:
    """Samples of M_i cap C.

    C-membership is filtered at near-machine tolerance: boundary-only flow
    conditions (eq. on M_i cap C) are sensitive to off-C drift near corners
    where the condition genuinely fails just outside C.
    """
    out = [x for x in _m_pool(kc, i, box, n, band, seed)
           if H.C.classify(x, 1e-9) != geo.Membership.OUTSIDE]
    return out[:n]


def m_band(kc: KComplex, H: HybridSystem, i: int, box: np.ndarray, n: int,
           radius: float, band: float, seed: int) -> list[np.ndarray]:
    """Samples of (U_radius(M_i) \\ K_ei) cap C: perturb M_i anchors off the
    zero level of B_i, then pull back onto C."""
    b_i = kc.barrier.components[i]
    anchors = _m_pool(kc, i, box, n, band, seed)
    if not anchors:
        return []

    def step(a: np.ndarray, p: np.ndarray) -> np.ndarray | None:
        if float(b_i.fn(p)) <= 1e-12:
            p = a - (p - a)
            if float(b_i.fn(p)) <= 1e-12:
                return None
        p = _pull_into(H.C, p)
        if (p is None or float(b_i.fn(p)) <= 1e-12
                or H.C.classify(p, _IN_C_TOL) == geo.Membership.OUTSIDE):
            return None
        return p

    return _perturb(rng_for(seed, f"m-band-{i}"), anchors, n, radius, 2.0, box, step)


def outside_band(kc: KComplex, H: HybridSystem, box: np.ndarray, n: int,
                 radius: float, band: float, seed: int) -> list[np.ndarray]:
    """Samples of (U_radius(dK) \\ K) cap C."""
    anchors = _bk_pool(kc, box, n, band, seed)
    if not anchors:
        return []

    def step(a: np.ndarray, p: np.ndarray) -> np.ndarray | None:
        if kc.K.classify(p, 0.0) != geo.Membership.OUTSIDE:
            p = a - (p - a)
        p = _pull_into(H.C, p)
        if (p is None or kc.K.classify(p, 0.0) != geo.Membership.OUTSIDE
                or H.C.classify(p, _IN_C_TOL) == geo.Membership.OUTSIDE):
            return None
        return p

    return _perturb(rng_for(seed, "outside-band"), anchors, n, radius, 2.0, box, step)


def ke_boundary_in_c(kc: KComplex, H: HybridSystem, box: np.ndarray, n: int,
                     band: float, seed: int) -> list[np.ndarray]:
    """Samples of dK_e cap C."""
    pts = _bke_pool(kc, box, n, band, seed)
    out = [x for x in pts if H.C.classify(x, _IN_C_TOL) != geo.Membership.OUTSIDE]
    return out[:n]


def anchors_ke_dc(kc: KComplex, H: HybridSystem, box: np.ndarray, n: int,
                  band: float, seed: int) -> list[np.ndarray]:
    """Approximate dK_e cap dC: boundary points of K_e that are boundary-
    classified for C at the band tolerance."""
    pts = _bke_pool(kc, box, n, band, seed)
    out = [x for x in pts if H.C.classify(x, band) == geo.Membership.BOUNDARY]
    return out[:n]


def region_a(kc: KComplex, H: HybridSystem, box: np.ndarray, n: int,
             radius: float, band: float, seed: int) -> list[np.ndarray]:
    """(U_radius(dK_e cap dC) cap dK_e) \\ C."""
    anchors = anchors_ke_dc(kc, H, box, max(n, 16), band, seed)
    if not anchors:
        return []
    bar = kc.barrier

    def step(a: np.ndarray, p: np.ndarray) -> np.ndarray | None:
        if bar.bar_value(p) <= 0.0:
            p = a - (p - a)
        y = geo.feasible_point(kc.K_e, p)
        if (y is None or H.C.classify(y, 0.0) != geo.Membership.OUTSIDE
                or abs(bar.bar_value(y)) > band):
            return None
        return y

    return _perturb(rng_for(seed, "region-a"), anchors, n, radius, 2.0, box, step)


def region_b(kc: KComplex, H: HybridSystem, box: np.ndarray, n: int,
             radius: float, band: float, seed: int) -> list[np.ndarray]:
    """U_radius(dK_e cap dC) cap dK cap dC, via projections onto C."""
    anchors = anchors_ke_dc(kc, H, box, max(n, 16), band, seed)
    if not anchors:
        return []

    def step(a: np.ndarray, p: np.ndarray) -> np.ndarray | None:
        if H.C.classify(p, 0.0) != geo.Membership.OUTSIDE:
            p = a - (p - a)
            if H.C.classify(p, 0.0) != geo.Membership.OUTSIDE:
                return None
        y = geo.feasible_point(H.C, p)
        if (y is None or kc.K_e.classify(y, _IN_C_TOL) == geo.Membership.OUTSIDE
                or H.C.classify(y, band) != geo.Membership.BOUNDARY):
            return None
        return y

    # anchors lie only within `band` of dC, so each is checked against C too
    seeded = [a for a in anchors[:max(2, n // 4)] if _in_ke_cap_c(kc, H, a)]
    return _perturb(rng_for(seed, "region-b"), anchors, n, radius, 2.0, box, step,
                    out=seeded)[:n]


def dk_dc(kc: KComplex, H: HybridSystem, box: np.ndarray, n: int, band: float,
          seed: int) -> list[np.ndarray]:
    """Samples of dK cap dC (band-approximate)."""
    pts = _bk_pool(kc, box, n, band, seed)
    out = [x for x in pts if H.C.classify(x, band) == geo.Membership.BOUNDARY]
    return out[:n]


def jump_region(kc: KComplex, H: HybridSystem, box: np.ndarray, n: int,
                seed: int) -> list[np.ndarray]:
    """Samples of K cap D (= K_e cap D)."""

    def compute() -> list[np.ndarray]:
        kd = geo.SetDescription(kc.n, geo.Intersection((H.D.root, kc.K_e.root)),
                                name="KcapD")
        return list(geo.sample(kd, box, n, seed=seed).points)

    return kc._cached(("jump", box.tobytes(), n, seed), compute)


def boundary_jump_region(kc: KComplex, H: HybridSystem, box: np.ndarray, n: int,
                         band: float, seed: int) -> list[np.ndarray]:
    """Samples of dK cap D."""
    pts = jump_region(kc, H, box, 2 * n, seed)
    out = [x for x in pts if kc.K.classify(x, band) == geo.Membership.BOUNDARY]
    return out[:n]


def _strict_leaf_targets(kc: KComplex, H: HybridSystem, box: np.ndarray,
                         starts: list[np.ndarray], band: float,
                         seed: int) -> list[np.ndarray]:
    """Candidate points where a strict leaf of D vanishes on K cap dC.

    Strict leaves carve open exclusions out of D; the excluded boundary piece
    (where flow-existence must be checked) is exactly their zero set.
    """
    out: list[np.ndarray] = []
    strict = [leaf for leaf in H.D.leaves() if leaf.strict]
    if not strict or not starts:
        return out
    cons = [geo.term_constraint(kc.K_e.leaves())]
    for leaf in strict:
        c = leaf.constraint

        def obj(y: np.ndarray, _c=c) -> float:
            return float(_c.value_checked(np.asarray(y)) ** 2)

        def obj_jac(y: np.ndarray, _c=c) -> np.ndarray:
            y = np.asarray(y)
            return 2.0 * _c.value_checked(y) * gradient(_c, y)

        for y0 in starts[:8]:
            try:
                res = minimize(obj, y0, jac=obj_jac, method="SLSQP", constraints=cons,
                               options={"maxiter": 60, "ftol": 1e-18})
            except (EvaluationError, FloatingPointError):
                continue
            y = np.asarray(res.x, dtype=float)
            if abs(float(c.value_checked(y))) <= 1e-8 and geo.in_box(y, box):
                out.append(y)
    return out


def _on_strict_exclusion(D: geo.SetDescription, x: np.ndarray,
                         snap: float = 1e-8) -> bool:
    """x sits (numerically) on the zero set of a strict D-leaf, i.e. on the
    boundary piece that D's half-open constraints carve out."""
    return any(leaf.strict and abs(float(leaf.constraint.value_checked(x))) <= snap
               for leaf in D.leaves())


def kdc_not_d(kc: KComplex, H: HybridSystem, box: np.ndarray, n: int,
              band: float, seed: int) -> list[np.ndarray]:
    """Samples of (K cap dC) \\ D.

    Strict membership in D is evaluated at tolerance zero, so half-open
    exclusions count as "not in D"; isolated exclusion points are recovered by
    driving strict D-leaves to zero over K and accepted within a snap
    tolerance (the exact excluded set has measure zero).
    """
    base: list[np.ndarray] = []
    base.extend(_k_pool(kc, box, n, seed))
    base.extend(_bk_pool(kc, box, n, band, seed))
    on_dc = [x for x in base if H.C.classify(x, band) == geo.Membership.BOUNDARY]
    cands = list(on_dc)
    cands.extend(_strict_leaf_targets(kc, H, box, on_dc, band, seed))
    out: list[np.ndarray] = []
    for x in cands:
        if len(out) >= n:
            break
        if H.C.classify(x, band) != geo.Membership.BOUNDARY:
            continue
        # "not in D" with noise slack on closed leaves, strict leaves exact
        if (H.D.classify(x, 1e-9, strict_tol=0.0) != geo.Membership.OUTSIDE
                and not _on_strict_exclusion(H.D, x)):
            continue
        if kc.K.classify(x, _IN_C_TOL) == geo.Membership.OUTSIDE:
            continue
        out.append(x)
    return out


def neighborhood_on_kdc(kc: KComplex, H: HybridSystem, x_o: np.ndarray,
                        box: np.ndarray, radius: float, count: int, band: float,
                        seed: int) -> list[np.ndarray]:
    """Points of K cap dC within `radius` of x_o."""

    def step(a: np.ndarray, p: np.ndarray) -> np.ndarray | None:
        p = _pull_into(H.C, p)
        if (p is None or H.C.classify(p, band) != geo.Membership.BOUNDARY
                or kc.K.classify(p, _IN_C_TOL) == geo.Membership.OUTSIDE):
            return None
        return p

    return _perturb(rng_for(seed, "kdc-neighborhood"), [x_o], count, radius, 1.5, box,
                    step)


def ke_c_volume(kc: KComplex, H: HybridSystem, box: np.ndarray, n: int,
                seed: int) -> list[np.ndarray]:
    """Samples of K_e cap C (including its interior)."""

    def compute() -> list[np.ndarray]:
        kec = geo.SetDescription(kc.n, geo.Intersection((kc.K_e.root, H.C.root)),
                                 name="Ke_cap_C")
        return list(geo.sample(kec, box, n, seed=seed).points)

    return kc._cached(("kec", box.tobytes(), n, seed), compute)


def boundary_k_in_c(kc: KComplex, H: HybridSystem, box: np.ndarray, n: int,
                    band: float, seed: int) -> list[np.ndarray]:
    """Samples of dK cap C."""
    pts = _bk_pool(kc, box, n, band, seed)
    out = [x for x in pts if H.C.classify(x, _IN_C_TOL) != geo.Membership.OUTSIDE]
    return out[:n]
