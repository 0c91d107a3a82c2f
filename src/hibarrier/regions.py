"""Deterministic samplers for the state-space regions quantified over by the
sufficient conditions (boundary bands, level-set pieces, corner sets).

Every region starts from a point pool of one of the K complex's sets (K, K_e,
K cap C, K cap D, or M_i), drawn by `KComplex.pool` or `KComplex.sample_m`.
A pool is drawn once per (set name, box, pool size, band, seed) and memoised
on the K complex, so the checks of one command share it; a region filters or
perturbs the pool into a fresh list. Per-region randomness comes from tagged
substreams of the same seed.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import geometry as geo
from .fields import negated
from .model import HybridSystem, KComplex

__all__ = [
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
]

_IN_C_TOL = 1e-6  # membership slack when filtering "x in C" after refinement


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


def _kept(points: list[np.ndarray], S: geo.SetDescription, tol: float, n: int, *,
          boundary: bool = False) -> list[np.ndarray]:
    """The first n points that S classifies at `tol` as boundary points (with
    `boundary`) or as not outside; every point is classified."""
    if boundary:
        out = [x for x in points if S.classify(x, tol) == geo.Membership.BOUNDARY]
    else:
        out = [x for x in points if S.classify(x, tol) != geo.Membership.OUTSIDE]
    return out[:n]


# -- regions -----------------------------------------------------------------


def m_on_c(kc: KComplex, H: HybridSystem, i: int, box: np.ndarray, n: int,
           band: float, seed: int) -> list[np.ndarray]:
    """Samples of M_i cap C.

    C-membership is filtered at near-machine tolerance: boundary-only flow
    conditions (eq. on M_i cap C) are sensitive to off-C drift near corners
    where the condition genuinely fails just outside C.
    """
    return _kept(kc.sample_m(i, box, max(2 * n, 16), band, seed=seed).points, H.C, 1e-9, n)


def m_band(kc: KComplex, H: HybridSystem, i: int, box: np.ndarray, n: int,
           radius: float, band: float, seed: int) -> list[np.ndarray]:
    """Samples of (U_radius(M_i) \\ K_ei) cap C: perturb M_i anchors off the
    zero level of B_i, then pull back onto C."""
    b_i = kc.barrier.components[i]
    anchors = kc.sample_m(i, box, max(2 * n, 16), band, seed=seed).points
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

    return _perturb(geo.rng_for(seed, f"m-band-{i}"), anchors, n, radius, 2.0, box, step)


def outside_band(kc: KComplex, H: HybridSystem, box: np.ndarray, n: int,
                 radius: float, band: float, seed: int) -> list[np.ndarray]:
    """Samples of (U_radius(dK) \\ K) cap C."""
    anchors = kc.pool(kc.K, box, max(4 * n, 32), seed, band).points
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

    return _perturb(geo.rng_for(seed, "outside-band"), anchors, n, radius, 2.0, box, step)


def ke_boundary_in_c(kc: KComplex, H: HybridSystem, box: np.ndarray, n: int,
                     band: float, seed: int) -> list[np.ndarray]:
    """Samples of dK_e cap C."""
    return _kept(kc.pool(kc.K_e, box, max(4 * n, 32), seed, band).points, H.C, _IN_C_TOL, n)


def anchors_ke_dc(kc: KComplex, H: HybridSystem, box: np.ndarray, n: int,
                  band: float, seed: int) -> list[np.ndarray]:
    """Approximate dK_e cap dC: boundary points of K_e that are boundary-
    classified for C at the band tolerance."""
    return _kept(kc.pool(kc.K_e, box, max(4 * n, 32), seed, band).points, H.C, band, n,
                 boundary=True)


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

    return _perturb(geo.rng_for(seed, "region-a"), anchors, n, radius, 2.0, box, step)


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
    return _perturb(geo.rng_for(seed, "region-b"), anchors, n, radius, 2.0, box, step,
                    out=seeded)[:n]


def dk_dc(kc: KComplex, H: HybridSystem, box: np.ndarray, n: int, band: float,
          seed: int) -> list[np.ndarray]:
    """Samples of dK cap dC (band-approximate)."""
    return _kept(kc.pool(kc.K, box, max(4 * n, 32), seed, band).points, H.C, band, n,
                 boundary=True)


def jump_region(kc: KComplex, H: HybridSystem, box: np.ndarray, n: int,
                seed: int) -> list[np.ndarray]:
    """Samples of K cap D (= K_e cap D)."""
    return list(kc.pool(kc.KD, box, n, seed).points)


def boundary_jump_region(kc: KComplex, H: HybridSystem, box: np.ndarray, n: int,
                         band: float, seed: int) -> list[np.ndarray]:
    """Samples of dK cap D."""
    return _kept(kc.pool(kc.KD, box, 2 * n, seed).points, kc.K, band, n, boundary=True)


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
    for leaf in strict:
        c = leaf.constraint
        # {c <= 0, -c <= 0} is the zero set of c
        term = (geo.Leaf(c), geo.Leaf(negated(c)), *kc.K_e.leaves())
        for y0 in starts[:8]:
            got = geo.project_term(term, y0, [y0])
            if got is not None and abs(float(c.value_checked(got[0]))) <= 1e-8 \
                    and geo.in_box(got[0], box):
                out.append(got[0])
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
    base = [*kc.pool(kc.K, box, max(3 * n, 32), seed).points,
            *kc.pool(kc.K, box, max(4 * n, 32), seed, band).points]
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

    return _perturb(geo.rng_for(seed, "kdc-neighborhood"), [x_o], count, radius, 1.5, box,
                    step)


def ke_c_volume(kc: KComplex, H: HybridSystem, box: np.ndarray, n: int,
                seed: int) -> list[np.ndarray]:
    """Samples of K_e cap C (including its interior)."""
    return list(kc.pool(kc.KC, box, n, seed).points)


def boundary_k_in_c(kc: KComplex, H: HybridSystem, box: np.ndarray, n: int,
                    band: float, seed: int) -> list[np.ndarray]:
    """Samples of dK cap C."""
    return _kept(kc.pool(kc.K, box, max(4 * n, 32), seed, band).points, H.C, _IN_C_TOL, n)
