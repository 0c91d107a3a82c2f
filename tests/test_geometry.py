import itertools
import json
import math
import struct
import zlib

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.optimize import minimize

from hibarrier import fields as fl
from hibarrier import geometry as geo


def leaf(fn, grad=None, name="", strict=False):
    return geo.Leaf(fl.ScalarField(2, fn, grad=grad, name=name), strict=strict)


def disk():
    return geo.SetDescription(2, leaf(lambda x: float(x @ x) - 1.0,
                                      grad=lambda x: 2.0 * x, name="disk"))


def halfspace(g, b):
    g = np.asarray(g, dtype=float)
    return leaf(lambda x, _g=g, _b=b: float(_g @ x) - _b,
                grad=lambda x, _g=g: _g.copy(), name=f"hs{g.tolist()}")


def box_set():
    leaves = [halfspace([1, 0], 1.0), halfspace([-1, 0], 1.0),
              halfspace([0, 1], 1.0), halfspace([0, -1], 1.0)]
    return geo.SetDescription(2, geo.Intersection(tuple(leaves)), name="box")


BOX2 = [[-2.0, 2.0], [-2.0, 2.0]]


# ---------------------------------------------------------------------------
# membership


def test_membership_disk():
    S = disk()
    assert S.classify([0, 0], 1e-9) == geo.Membership.INSIDE
    assert S.classify([1, 0], 1e-9) == geo.Membership.BOUNDARY
    assert S.classify([2, 0], 1e-9) == geo.Membership.OUTSIDE


def test_membership_monotone_in_tolerance():
    S = disk()
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = rng.uniform(-1.5, 1.5, size=2)
        if S.classify(x, 1e-6) == geo.Membership.INSIDE:
            assert S.classify(x, 1e-2) != geo.Membership.OUTSIDE


def test_membership_strict_leaf():
    S = geo.SetDescription(2, leaf(lambda x: float(x @ x) - 1.0, strict=True))
    assert S.classify([1, 0], 0.0) == geo.Membership.OUTSIDE  # |x| < 1 strict
    assert S.classify([0.5, 0], 0.0) == geo.Membership.INSIDE
    # at positive tolerance the band applies (closure semantics)
    assert S.classify([1, 0], 1e-6) == geo.Membership.BOUNDARY


def test_membership_union_compose():
    two = geo.SetDescription(2, geo.Union((
        leaf(lambda x: float((x - np.array([1, 0])) @ (x - np.array([1, 0]))) - 1.0),
        leaf(lambda x: float((x + np.array([1, 0])) @ (x + np.array([1, 0]))) - 1.0))))
    assert two.classify([1, 0], 1e-9) == geo.Membership.INSIDE
    assert two.classify([0, 0], 1e-9) == geo.Membership.BOUNDARY
    assert two.classify([0, 2], 1e-9) == geo.Membership.OUTSIDE


def test_membership_nonfinite_raises():
    S = geo.SetDescription(2, leaf(lambda x: float("inf")))
    with pytest.raises(fl.EvaluationError):
        S.classify([0, 0], 1e-9)


# ---------------------------------------------------------------------------
# linearized (analytic) contingent cone


def cone_member(cone, v):
    """v lies in the linearized cone: some term has no float(g @ v) > 0."""
    return cone.contains(np.asarray(v, dtype=float))


def test_analytic_halfplane():
    S = geo.SetDescription(2, halfspace([0, 1], 0.0))  # x2 <= 0
    cone = geo.linearized_cone(S, [0.0, 0.0])
    assert [[g.tolist() for g in term] for term in cone.terms] == [[[0.0, 1.0]]]
    assert cone.exact
    assert cone_member(cone, [1, -1])
    assert not cone_member(cone, [0, 1])
    # no active leaf: the cone is all of R^n; a leaf above EPS_ACT: no reading
    assert geo.linearized_cone(S, [0.0, -0.5]).terms == ((),)
    assert geo.linearized_cone(S, [0.0, 0.5]) is None


def test_analytic_intersection_with_brute_force_oracle():
    # x1 <= 0 and x2 <= 0 at the origin, v = (-1, -1): the definition's test
    # sequence x + h_k v with h_k = 2^-k stays in S for every k
    S = geo.SetDescription(2, geo.Intersection((halfspace([1, 0], 0.0),
                                                halfspace([0, 1], 0.0))))
    v = np.array([-1.0, -1.0])
    for k in range(1, 30):
        h = 2.0 ** -k
        assert S.classify(h * v, 0.0) != geo.Membership.OUTSIDE
    assert cone_member(geo.linearized_cone(S, [0, 0]), v)


def test_linearized_cone_of_a_union():
    # x1 <= 0 or x2 <= 0: at the origin both terms hold, and the cone is the
    # union of theirs; at (0, 0.5) only the first holds
    S = geo.SetDescription(2, geo.Union((halfspace([1, 0], 0.0),
                                         halfspace([0, 1], 0.0))))
    cone = geo.linearized_cone(S, [0, 0])
    assert [[g.tolist() for g in term] for term in cone.terms] == [[[1.0, 0.0]], [[0.0, 1.0]]]
    assert cone_member(cone, [1, -1]) and cone_member(cone, [-1, 1])
    assert not cone_member(cone, [1, 2])
    assert cone.distance(np.array([1.0, 2.0])) == 1.0
    one = geo.linearized_cone(S, [0, 0.5])
    assert len(one.terms) == 1 and not cone_member(one, [1, -1])
    assert one.distance(np.array([3.0, -1.0])) == 3.0
    assert geo.linearized_cone(S, [0.5, 0.5]) is None  # no term holds x


def test_analytic_not_applicable_without_transversality():
    S = geo.SetDescription(2, geo.Intersection((halfspace([1, 0], 0.0),
                                                halfspace([-1, 0], 0.0))))
    assert geo.linearized_cone(S, [0, 0.3]) is None


# ---------------------------------------------------------------------------
# numeric contingent cone


def test_numeric_disk_tangent():
    # distance((1,0) + h(0,1)) = sqrt(1+h^2) - 1 = O(h^2): ratio -> 0
    assert geo.contingent_min_ratio(disk(), [1.0, 0.0], [0.0, 1.0]) <= 1e-3


def test_numeric_disk_outward():
    # ratio -> 1 along the outward normal
    r = geo.contingent_min_ratio(disk(), [1.0, 0.0], [1.0, 0.0])
    assert not r <= 1e-3
    assert r == pytest.approx(1.0, abs=0.05)


def test_numeric_zero_direction():
    assert geo.contingent_min_ratio(disk(), [1.0, 0.0], [0.0, 0.0]) <= 1e-3


# ---------------------------------------------------------------------------
# external contingent cone


def test_external_disk():
    x = np.array([2.0, 0.0])
    S = disk()
    # distance decreases at rate 1 toward the disk
    assert geo.external_min_ratio(S, x, [-1.0, 0.0]) <= 1e-3
    # rate +1 away from it
    assert not geo.external_min_ratio(S, x, [1.0, 0.0]) <= 1e-3
    # tangential: d/dh (sqrt(4+h^2) - 1) = 0 at h=0
    assert geo.external_min_ratio(S, x, [0.0, 1.0]) <= 1e-3


# ---------------------------------------------------------------------------
# distance / projection


def test_distance_disk_radial():
    S = disk()
    y, d, _ = geo.projection(S, [3, 0])
    assert d == pytest.approx(2.0, abs=1e-9)
    assert y == pytest.approx([1.0, 0.0], abs=1e-9)


def test_distance_inside_is_zero():
    S = disk()
    y, d, _ = geo.projection(S, [0.3, -0.2])
    assert d == 0.0
    assert y == pytest.approx([0.3, -0.2], abs=0)


def test_distance_box_corner_with_grid_oracle():
    # brute force over the box boundary as the independent oracle
    S = box_set()
    x = np.array([2.0, 2.0])
    ts = np.linspace(-1, 1, 20001)
    cands = []
    for t in ts:
        cands.extend([(t, 1.0), (t, -1.0), (1.0, t), (-1.0, t)])
    oracle = min(np.hypot(x[0] - a, x[1] - b) for a, b in cands)
    assert oracle == pytest.approx(np.sqrt(2.0), abs=1e-7)
    y, d, _ = geo.projection(S, x)
    assert d == pytest.approx(oracle, abs=1e-7)
    assert y == pytest.approx([1.0, 1.0], abs=1e-7)


def test_distance_strict_leaf_uses_closure():
    S = geo.SetDescription(2, leaf(lambda x: float(x @ x) - 1.0, strict=True))
    assert geo.projection(S, [2, 0]).d == pytest.approx(1.0, abs=1e-9)


def test_nonconvergence_on_empty_set():
    S = geo.SetDescription(2, leaf(lambda x: 1.0, grad=lambda x: np.zeros(2)))
    with pytest.raises(geo.NonConvergence):
        geo.projection(S, [0.0, 0.0])


def test_distance_project_consistency_random():
    S = box_set()
    rng = np.random.default_rng(5)
    pts = rng.uniform(-3, 3, size=(20, 2))
    ds = []
    for x in pts:
        y, d, _ = geo.projection(S, x)
        assert np.linalg.norm(x - y) == pytest.approx(d, abs=1e-9)
        ds.append(d)
    # 1-Lipschitz on sampled pairs
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            assert abs(ds[i] - ds[j]) <= np.linalg.norm(pts[i] - pts[j]) + 1e-9


# ---------------------------------------------------------------------------
# Minkowski functional


def test_minkowski_ball():
    assert geo.minkowski(disk(), [2, 0]) == pytest.approx(2.0, abs=1e-9)


def test_minkowski_origin():
    assert geo.minkowski(disk(), [0, 0]) == 0.0
    assert geo.minkowski(box_set(), [0, 0]) == 0.0


def test_minkowski_box_max_norm():
    # gauge of [-1,1]^2 is the max-norm
    assert geo.minkowski(box_set(), [0.5, 1.0]) == pytest.approx(1.0, abs=1e-9)
    assert geo.minkowski(box_set(), [0.25, -0.75]) == pytest.approx(0.75, abs=1e-9)


def test_minkowski_needs_origin_interior():
    shifted = geo.SetDescription(2, leaf(
        lambda x: float((x - np.array([5, 0])) @ (x - np.array([5, 0]))) - 1.0))
    with pytest.raises(geo.PreconditionError):
        geo.minkowski(shifted, [1, 0])


def test_minkowski_homogeneity():
    rng = np.random.default_rng(11)
    sets = [disk(), box_set()]
    for S in sets:
        for _ in range(10):
            x = rng.uniform(-1, 1, size=2)
            if np.linalg.norm(x) < 1e-3:
                continue
            base = geo.minkowski(S, x)
            for alpha in (0.5, 2.0, 10.0):
                scaled = geo.minkowski(S, alpha * x)
                assert abs(scaled - alpha * base) <= 1e-6 * (1 + alpha)


# ---------------------------------------------------------------------------
# transversality


def test_transversality_feasible():
    got = geo.transversality_check([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
    assert got.feasible
    v = got.direction
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-6)
    assert v @ np.array([1.0, 0.0]) < 0 and v @ np.array([0.0, 1.0]) < 0


def test_transversality_opposed():
    got = geo.transversality_check([np.array([1.0, 0.0]), np.array([-1.0, 0.0])])
    assert not got.feasible


def test_transversality_zero_gradient():
    assert not geo.transversality_check([np.zeros(2)]).feasible


def _multistart_transversality(gradients, *, margin=1e-8, starts=8, seed=0):
    """The former transversality_check, kept as the reference: min t s.t.
    <g_i, v> <= t, |v|^2 <= 1 (the epigraph form of minimizing the max over
    the unit ball) by multi-start SLSQP."""
    G = np.array([np.asarray(g, dtype=float) for g in gradients])
    n = G.shape[1]
    if np.any(np.linalg.norm(G, axis=1) <= 1e-12):
        return geo.Transversality(False, None, 0.0)

    def objective_jac(z):
        j = np.zeros(n + 1)
        j[-1] = 1.0
        return j

    cons = [{"type": "ineq", "fun": lambda z, gi=g: z[-1] - float(gi @ z[:-1]),
             "jac": lambda z, gi=g: np.concatenate([-gi, [1.0]])} for g in G]
    cons.append({"type": "ineq", "fun": lambda z: 1.0 - float(z[:-1] @ z[:-1]),
                 "jac": lambda z: np.concatenate([-2.0 * z[:-1], [0.0]])})
    rng = np.random.default_rng((int(seed), zlib.crc32(b"transversality")))
    seeds = []
    mean = -np.sum(G / np.linalg.norm(G, axis=1, keepdims=True), axis=0)
    if np.linalg.norm(mean) > 1e-12:
        seeds.append(mean / np.linalg.norm(mean))
    for g in G[:3]:
        seeds.append(-g / np.linalg.norm(g))
    while len(seeds) < starts:
        u = rng.normal(size=n)
        seeds.append(u / np.linalg.norm(u))
    best_v, best_t = None, np.inf
    for v0 in seeds:
        z0 = np.concatenate([v0, [float(np.max(G @ v0))]])
        res = minimize(lambda z: z[-1], z0, jac=objective_jac, method="SLSQP",
                       constraints=cons, options={"maxiter": 80, "ftol": 1e-14})
        v = np.asarray(res.x[:-1], dtype=float)
        nv = float(np.linalg.norm(v))
        if nv < 1e-12:
            continue
        v = v / nv
        t = float(np.max(G @ v))
        if t < best_t:
            best_t, best_v = t, v
        if best_t < -max(margin, 1e-6) * 10:
            break
    if best_v is None or best_t >= -margin:
        return geo.Transversality(False, None, best_t if np.isfinite(best_t) else 0.0)
    return geo.Transversality(True, best_v, best_t)


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 3).flatmap(lambda n: st.lists(
    st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n), min_size=1, max_size=4)))
def test_transversality_matches_multistart_reference(rows):
    grads = [np.array(r) for r in rows]
    margin = 1e-6
    exact = geo.transversality_check(grads, margin=margin)
    ref = _multistart_transversality(grads, margin=margin)
    # the exact value is the minimum the reference searches for
    assert exact.best <= ref.best + 1e-9
    if abs(ref.best + margin) > 1e-6:
        assert exact.feasible == ref.feasible
    if exact.feasible:
        # v = -p/|p| attains best up to the solver's 1e-12 * max|g_i| stopping
        # test and the rounding of p, which grows as |p| shrinks
        v = exact.direction
        scale = max(float(np.linalg.norm(g)) for g in grads)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
        assert max(float(g @ v) for g in grads) == pytest.approx(
            exact.best, abs=1e-11 * scale + 1e-14 * scale ** 2 / -exact.best)


def test_transversality_closed_forms():
    one = geo.transversality_check([np.array([3.0, -4.0])])
    assert one.feasible and one.best == pytest.approx(-5.0, rel=1e-15)
    assert np.allclose(one.direction, [-0.6, 0.8], atol=1e-15)
    two = geo.transversality_check([np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])])
    assert two.feasible and two.best == pytest.approx(-1.0 / np.sqrt(2.0), rel=1e-12)
    opposite = geo.transversality_check([np.array([1.0, 2.0]), np.array([-2.0, -4.0])])
    assert not opposite.feasible and opposite.direction is None


# ---------------------------------------------------------------------------
# sampling


def test_sample_disk():
    res = geo.sample(disk(), BOX2, 100, seed=1)
    assert res.achieved == 100 and not res.short
    assert all(float(np.linalg.norm(p)) <= 1 + 1e-9 for p in res.points)


def test_sample_empty_set_flagged():
    S = geo.SetDescription(2, leaf(lambda x: 1.0, grad=lambda x: np.zeros(2)))
    res = geo.sample(S, BOX2, 10, seed=1)
    assert res.achieved == 0 and res.short


def test_sample_deterministic():
    a = geo.sample(disk(), BOX2, 25, seed=42)
    b = geo.sample(disk(), BOX2, 25, seed=42)
    assert all(np.array_equal(p, q) for p, q in zip(a.points, b.points))


def test_sample_boundary_halfplane():
    S = geo.SetDescription(2, halfspace([0, 1], 0.0))
    res = geo.sample_boundary(S, BOX2, 30, band=1e-6, seed=2)
    assert res.achieved >= 20
    assert all(abs(p[1]) <= 1e-6 for p in res.points)


def test_sample_thin_set_via_projection():
    # the segment {0} x [0, 1] has measure zero; rejection alone finds nothing
    S = geo.SetDescription(2, geo.Intersection((
        halfspace([1, 0], 0.0), halfspace([-1, 0], 0.0),
        halfspace([0, -1], 0.0), halfspace([0, 1], 1.0))))
    res = geo.sample(S, BOX2, 20, seed=3)
    assert res.achieved == 20 and res.used_projection
    for p in res.points:
        assert abs(p[0]) <= 1e-8 and -1e-8 <= p[1] <= 1 + 1e-8


# ---------------------------------------------------------------------------
# cone properties (the oracle-equivalence and inclusion suites)


def _random_polyhedron(rng, dim):
    m = int(rng.integers(2, 5))
    leaves = []
    for _ in range(m):
        g = rng.normal(size=dim)
        g /= np.linalg.norm(g)
        b = float(rng.uniform(0.2, 1.0))
        leaves.append(geo.Leaf(fl.ScalarField(
            dim, (lambda x, _g=g, _b=b: float(_g @ x) - _b),
            grad=(lambda x, _g=g: _g.copy()))))
    return geo.SetDescription(dim, geo.Intersection(tuple(leaves)))


def test_cone_oracle_equivalence_random_polyhedra():
    # analytic Member <=> numeric ratio <= tol outside the 10*tol margin band
    rng = np.random.default_rng(2024)
    tol = 1e-3
    agree = total = 0
    while total < 250:
        dim = int(rng.integers(2, 4))
        S = _random_polyhedron(rng, dim)
        outside = rng.normal(size=dim) * 2.0
        try:
            x = geo.projection(S, outside, starts=4).y
        except geo.NonConvergence:
            continue
        v = rng.normal(size=dim)
        v /= np.linalg.norm(v)
        cone = geo.linearized_cone(S, x)
        if cone is None:
            continue
        grads = [fl.gradient(l.constraint, x) for l in S.leaves()
                 if abs(l.constraint(x)) <= 1e-6]
        if any(abs(float(g @ v)) <= 10 * tol for g in grads):
            continue  # margin band excluded per the equivalence statement
        numeric = geo.contingent_min_ratio(S, x, v) <= tol
        total += 1
        if numeric == cone_member(cone, v):
            agree += 1
    assert agree / total >= 0.99


def test_closure_under_intersection_lemma():
    # v in D_int(K1)(x) and v in T_K2(x) imply v in T_{K1 cap K2}(x),
    # on random half-space pairs through a shared boundary point
    rng = np.random.default_rng(13)
    done = 0
    while done < 40:
        g1 = rng.normal(size=2)
        g2 = rng.normal(size=2)
        if np.linalg.norm(g1) < 1e-6 or np.linalg.norm(g2) < 1e-6:
            continue
        g1, g2 = g1 / np.linalg.norm(g1), g2 / np.linalg.norm(g2)
        K2 = geo.SetDescription(2, halfspace(g2, 0.0))
        v = rng.normal(size=2)
        x = np.zeros(2)
        if not float(g1 @ v) < -1e-8:  # D_int(K1)(x) of the half-space g1 @ y <= 0
            continue
        if not cone_member(geo.linearized_cone(K2, x), v):
            continue
        both = geo.SetDescription(2, geo.Intersection((halfspace(g1, 0.0), K2.root)))
        assert geo.contingent_min_ratio(both, x, v) <= 1e-3
        done += 1


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=-1.4, max_value=1.4),
       st.floats(min_value=-1.4, max_value=1.4))
def test_distance_zero_iff_member(x1, x2):
    S = disk()
    x = np.array([x1, x2])
    d = geo.projection(S, x).d
    if S.classify(x, 0.0) != geo.Membership.OUTSIDE:
        assert d == 0.0
    else:
        assert d > 0.0


# ---------------------------------------------------------------------------
# DNF terms of a projection


def _expr_leaf(text, n=2):
    from hibarrier.config import _field_from_expr
    return geo.Leaf(_field_from_expr(text, n, {}, "test"))


def test_constant_leaves_settle_their_terms(monkeypatch):
    # {1 <= 0} empties its term; {-1 <= 0} leaves the rest of its term
    S = geo.SetDescription(2, geo.Union((
        geo.Intersection((_expr_leaf("x1"), _expr_leaf("1"))),
        geo.Intersection((_expr_leaf("x2 - 1"), _expr_leaf("-1"))))))
    terms = S.closure()._terms
    assert terms is S.closure()._terms  # built once per set
    assert [[leaf.constraint.name for leaf in t] for t in terms] == [["x2 - 1"]]
    y, d, _ = geo.projection(S, [0.0, 3.0])
    assert d == pytest.approx(2.0, abs=1e-9)
    # a set with no term left samples nothing, without classifying a draw
    empty = geo.SetDescription(2, geo.Intersection((_expr_leaf("x1"), _expr_leaf("1"))))
    monkeypatch.setattr(geo.SetDescription, "classify",
                        lambda *a, **k: pytest.fail("classified a draw"))
    res = geo.sample(empty, BOX2, 10, seed=0)
    assert res.points == [] and res.short and res.achieved == 0


# ---------------------------------------------------------------------------
# Projection onto a DNF term: the exact solvers against the SLSQP path they
# replaced


def term_constraint(leaves):
    """One SLSQP inequality constraint for an intersection of leaves: the
    vector of -c_j(y) (>= 0 inside) and its Jacobian, rows in leaf order."""
    fields = [leaf.constraint for leaf in leaves]

    def fun(y):
        y = np.asarray(y)
        return -np.array([c.value_checked(y) for c in fields])

    def jac(y):
        y = np.asarray(y)
        return -np.array([fl.gradient(c, y) for c in fields])

    return {"type": "ineq", "fun": fun, "jac": jac}


def _slsqp_project_term(leaves, z, starts, maxiter):
    """The former geometry._project_term, kept as the reference: SLSQP from
    every start, polished by Newton restoration, with the same stale rule."""
    constraints = [term_constraint(leaves)]
    best = None
    stale = 0
    for i, y0 in enumerate(starts):
        try:
            res = minimize(lambda y: float((y - z) @ (y - z)), y0,
                           jac=lambda y: 2.0 * (y - z), method="SLSQP",
                           constraints=constraints,
                           options={"maxiter": maxiter, "ftol": 1e-16})
        except (fl.EvaluationError, FloatingPointError):
            continue
        y = geo._newton_feasibility(leaves, np.asarray(res.x, dtype=float), 4,
                                    slack=geo._FEAS_TOL * 1e-3)
        if max(leaf.constraint.value_checked(y) for leaf in leaves) > geo._FEAS_TOL:
            continue
        d = float(np.linalg.norm(y - z))
        if best is None or d < best[1] - 1e-12 * (1.0 + best[1]):
            best = (y, d)
            stale = 0
        else:
            stale += 1
            if stale >= 2 and i >= 2:
                break
    return best


def _term_starts(leaves, z, rng, count=6):
    """projection()'s start list for one term: z, its Newton restoration and
    random points around z."""
    starts = list(geo._local_starts(leaves, z))
    scale = 1.0 + float(np.linalg.norm(z))
    while len(starts) < count:
        starts.append(z + scale * float(rng.uniform(0.05, 1.5))
                      * rng.normal(size=len(z)) / np.sqrt(len(z)))
    return starts


def _degenerate(leaves, y):
    """The active gradients at y vanish or are nearly dependent, once the
    two rows of a hyperplane (c and -c) count as one. There the 1e-9
    feasibility tolerance admits points up to ~1e-3 from the projection
    (on expcount, x2 = 0 meets x2 + max(x1, 0)^3 <= 0 tangentially), and
    both solvers stop somewhere inside that slack."""
    rows = []
    for leaf in leaves:
        if abs(leaf.constraint(y)) <= 1e-9:
            g = fl.gradient(leaf.constraint, y)
            if float(np.linalg.norm(g)) <= 1e-3:
                return True
            u = g / np.linalg.norm(g)
            if not any(np.array_equal(u, r) or np.array_equal(u, -r) for r in rows):
                rows.append(u)
    return len(rows) > 1 and np.linalg.svd(np.array(rows), compute_uv=False)[-1] <= 1e-3


def _assert_no_worse(leaves, z, rng):
    """The new solver's distance is at most the reference's + 1e-9 where the
    reference succeeds (+ 1e-3 at a degenerate reference point); its point
    is feasible and at its distance from z. Returns whether the reference
    succeeded."""
    starts = _term_starts(leaves, z, rng)
    ref = _slsqp_project_term(leaves, z, starts, 80)
    new = geo.project_term(leaves, z, starts)
    if ref is not None:
        assert new is not None, (z, [leaf.constraint.name for leaf in leaves])
        slack = 1e-3 if _degenerate(leaves, ref[0]) else 1e-9
        assert new[1] <= ref[1] + slack, (z, new, ref, [l.constraint.name for l in leaves])
    if new is not None:
        y, d = new
        assert max(leaf.constraint.value_checked(y) for leaf in leaves) <= 1e-9
        assert float(np.linalg.norm(y - z)) == pytest.approx(d, abs=1e-15)
    return ref is not None


def _affine(coef, b):
    # "c1*x1 + c2*x2 (+ c3*x3) - b", with the variable count from coef
    text = " + ".join(f"({c!r})*x{i + 1}" for i, c in enumerate(coef)) + f" - ({b!r})"
    return _expr_leaf(text, len(coef))


def test_affine_terms_match_slsqp_on_random_polyhedra():
    rng = np.random.default_rng(99)
    succeeded = 0
    for case in range(120):
        n = 2 + case % 2
        leaves = []
        for _ in range(int(rng.integers(1, 7))):
            g = rng.normal(size=n)
            b = float(rng.uniform(-0.5, 1.0))
            leaves.append(_affine(g.tolist(), b))
            kind = rng.uniform()
            if kind < 0.25:  # an opposite pair: a hyperplane
                leaves.append(_affine((-g).tolist(), -b))
            elif kind < 0.4:  # a redundant parallel leaf
                leaves.append(_affine(g.tolist(), b + 0.5))
            elif kind < 0.5:  # a duplicate
                leaves.append(leaves[-1])
        assert all(leaf.constraint.affine for leaf in leaves)
        z = rng.normal(size=n) * 2.0
        if max(leaf.constraint(z) for leaf in leaves) <= 0.0:
            continue
        succeeded += _assert_no_worse(tuple(leaves), z, rng)
    assert succeeded >= 60


_SMOOTH = [
    lambda r: f"(x1 - {r.uniform(-1, 1)!r})^2 + (x2 - {r.uniform(-1, 1)!r})^2 - {r.uniform(0.2, 1.5)!r}",
    lambda r: f"{r.uniform(0.2, 1.5)!r} - (x1 - {r.uniform(-1, 1)!r})^2 - (x2 - {r.uniform(-1, 1)!r})^2",
    lambda r: f"x2 - {r.uniform(-2, 2)!r}*x1^2 - {r.uniform(-1, 1)!r}",
    lambda r: "x2*(x1^2 + x2^2 - 1)",
    lambda r: f"{r.uniform(-1, 1)!r}*x1 + {r.uniform(-1, 1)!r}*x2 - {r.uniform(0, 1)!r}",
]


def test_smooth_terms_match_slsqp():
    rng = np.random.default_rng(7)
    succeeded = 0
    for _ in range(150):
        kinds = rng.integers(len(_SMOOTH), size=int(rng.integers(1, 4)))
        leaves = tuple(_expr_leaf(_SMOOTH[k](rng)) for k in kinds)
        z = rng.uniform(-2.0, 2.0, size=2)
        if max(leaf.constraint(z) for leaf in leaves) <= 0.0:
            continue
        succeeded += _assert_no_worse(leaves, z, rng)
    assert succeeded >= 60


def test_catalog_terms_match_slsqp():
    from hibarrier.catalog import EXAMPLE_IDS, example_bundle
    from hibarrier.model import build_k_complex

    rng = np.random.default_rng(3)
    checked = 0
    for name in EXAMPLE_IDS:
        b = example_bundle(name)
        kc = build_k_complex(b.system, b.barrier)
        for S in (kc.K, kc.K_e, kc.KC, b.system.C):
            for leaves in S.closure()._terms:
                for z in geo._box_draws(rng, b.box, 50):
                    if max((leaf.constraint(z) for leaf in leaves), default=0.0) > 0.0:
                        _assert_no_worse(leaves, z, rng)
                        checked += 1
    assert checked >= 1000


@pytest.fixture()
def scipy_refused(monkeypatch):
    """Every import of scipy, or of a module of it, raises ImportError."""
    import sys

    for name in ["scipy", "scipy.optimize", *[m for m in sys.modules if m.startswith("scipy.")]]:
        monkeypatch.setitem(sys.modules, name, None)


def test_vanishing_gradient_converges_without_scipy(scipy_refused):
    # the gradient of (|x|^2 - 1)^2 vanishes on its zero set, the unit circle,
    # and at the origin, where Newton has no step from x itself
    S = geo.SetDescription(2, _expr_leaf("(x1^2 + x2^2 - 1)^2"))
    y, d, _ = geo.projection(S, [0.0, 0.0])
    assert d == pytest.approx(1.0, abs=1e-4)
    assert abs(float(y @ y) - 1.0) <= 1e-4


# Projection starts that Lagrange-Newton did not converge from while SLSQP
# was its fallback, recorded over the benchmark's operations; the answers
# are worked out by hand


def _term(*texts):
    return tuple(_expr_leaf(t) for t in texts)


_EXPCSETS_KD = ("x2 + 1", "-((x1+1)^2 + (x2+1)^2)", "x1^2 + x2^2 - 2", "-(x2 + 1)")


@pytest.mark.parametrize("z,y0", [
    ((-1.7963001904771065, 0.737021668872492), (-1.7963001904771065, 0.737021668872492)),
    # Newton restoration leaves x2 + 1 = 7e-9 at this start
    ((-1.2952686057482818, 0.21848539468040773), (-1.0000569928293828, -1.0)),
])
def test_concave_leaf_that_holds_everywhere(scipy_refused, z, y0):
    # expCsets' K cap D is the segment x2 = -1, |x1| <= 1, with the closure
    # of a strict leaf that holds everywhere and whose gradient vanishes at
    # the answer (-1, -1); its linearization makes the Newton QP inconsistent
    got = geo.project_term(_term(*_EXPCSETS_KD), np.array(z), [np.array(y0)])
    assert got is not None and np.abs(got[0] - [-1.0, -1.0]).max() <= 1e-12


@pytest.mark.parametrize("y0", [(6.566227761711599e-4, -8.17e-25),
                                (1.2816185659358813e-3, 1.6425461485515447e-06),
                                (3.131030086794222e-10, -8.17e-25)])
def test_kink_closer_than_the_difference_step(scipy_refused, y0):
    # the kink of abs(x2) lies within the 1e-6 difference step of z, and
    # the move needed, 4.3e-7, is shorter than the step
    z = np.array([6.566227761711599e-4, -8.17e-25])
    got = geo.project_term(_term("x1^2 - abs(x2)"), z, [np.array(y0)])
    assert got is not None and got[1] == pytest.approx(4.31153095e-7, rel=1e-8)


@pytest.mark.parametrize("z,y0,x1", [
    # Gauss-Newton steps along x2 = -x1^2 shrank below what the merit
    # function resolved
    ((-0.6163264370281675, 0.06283756251169469),
     (-0.0295657023109428, -0.0008741307531392883), -0.41787347426047483),
    ((3.784224073146358e-4, 0.0465631925284756),
     (3.784224073146358e-4, 0.0465631925284756), 3.4618350587115943e-4),
    # a full step along the tangent leaves the parabola far behind; the
    # line search accepts it only after a second-order correction
    ((0.33671031654309375, 0.0), (0.43348664062322373, 0.5396900592407093),
     0.28862357120210497),
])
def test_curved_kinked_leaf_of_expcount(scipy_refused, z, y0, x1):
    # expcount's K cap C term: the answer is on x2 = -x1^2, where x1 is the
    # real root of 2 x1^3 + (1 + 2 z2) x1 - z1 = 0
    z = np.array(z)
    got = geo.project_term(_term("x2 + (2/3)*max(x1, 0)^3", "x1^2 - abs(x2)"), z,
                           [np.array(y0)])
    assert got is not None
    assert got[1] == pytest.approx(float(np.linalg.norm([x1 - z[0], -x1 * x1 - z[1]])),
                                   abs=1e-12)


def test_answer_where_the_barrier_gradient_vanishes(scipy_refused):
    # {B <= 0, x2 = 0} is x1 <= 0 on the axis, so the answer is the origin,
    # where B's gradient (2 max(x1, 0)^2, 1) turns parallel to x2's and its
    # multiplier diverges; the closest feasible iterate stands for it. The
    # 1e-9 feasibility slack admits the axis up to x1 = 1.1e-3, so its
    # distance lies between z2 and |z|. Projected onto all of expcount's
    # K cap C, z gets no farther than the answer of the term above.
    from hibarrier.catalog import example_bundle
    from hibarrier.model import build_k_complex

    z = np.array([3.784224073146358e-4, 0.0465631925284756])
    leaves = _term("x2 + (2/3)*max(x1, 0)^3", "x2", "-x2")
    starts = [z, np.array([3.784090713167036e-4, -3.612379404621024e-11]),
              np.array([-1.4467013007975804, 1.2176752056695557]),
              np.array([0.517775268529134, -0.6765186462733274])]
    for y0 in starts:
        got = geo.project_term(leaves, z, [y0])
        assert got is not None
        assert z[1] <= got[1] <= float(np.linalg.norm(z))
    b = example_bundle("expcount")
    y, d, _ = geo.projection(build_k_complex(b.system, b.barrier).KC, z)
    x1 = 3.4618350587115943e-4
    assert z[1] <= d <= float(np.linalg.norm([x1 - z[0], -x1 * x1 - z[1]])) + 1e-12


@pytest.mark.parametrize("y0", [(-1.75030348, 0.22632328), (0.4054264417477875, -0.52314375236892)])
def test_indefinite_lagrangian_hessian(scipy_refused, y0):
    # exp1nwbis' upper half disk: the Hessian of x2 (|x|^2 - 1) makes the
    # Lagrangian's indefinite near the answer z/|z| on the unit circle
    z = np.array([-1.75030348, 0.22632328])
    got = geo.project_term(_term("x2*(x1^2 + x2^2 - 1)", "-x2", "x1 - 1", "-1 - x1"), z,
                           [np.array(y0)])
    assert got is not None and got[1] == pytest.approx(float(np.linalg.norm(z)) - 1.0, abs=1e-12)


def test_importing_the_cli_leaves_scipy_unloaded(tmp_path):
    # three CLI runs that projected through SLSQP before, in a fresh process
    # whose importer refuses scipy, reach the catalog's statuses
    import subprocess
    import sys
    from pathlib import Path

    script = """
import importlib.abc, json, sys

class Refuse(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError("scipy refused: " + name)
        return None

sys.meta_path.insert(0, Refuse())
from hibarrier.cli import main

d = sys.argv[1]
out = []
for args in (["check", "expCsets", "--theorem", "cset", "--samples", "30"],
             ["check", "expcount", "--theorem", "boundary", "--option", "a", "--samples", "20"],
             ["falsify", "expcount-fixed", "--budget", "8", "--horizon", "1.5,2"]):
    assert main(["examples", "emit", args[1], "--dir", d]) == 0
    report = d + "/report.json"
    code = main([args[0], d + "/" + args[1] + ".json", *args[2:], "--seed", "0",
                 "--report", report])
    doc = json.load(open(report))
    out.append([code, [c["status"] for c in doc["checks"]]])
print(json.dumps(["scipy" in sys.modules, out]))
"""
    src = Path(geo.__file__).resolve().parents[1]
    run = subprocess.run([sys.executable, "-c", script, str(tmp_path)], capture_output=True,
                         text=True, check=True, env={"PYTHONPATH": str(src), "PATH": ""})
    loaded, results = json.loads(run.stdout.strip().splitlines()[-1])
    assert not loaded
    assert results == [[0, ["no_violation_found", "no_violation_found"]],
                       [1, ["violated"]], [0, []]]


def test_evaluation_error_in_one_start_does_not_abort_the_projection():
    # Newton restoration from x steps to x1 < 0, outside log's domain
    S = geo.SetDescription(2, geo.Intersection((_expr_leaf("log(x1) + x2"),
                                                _expr_leaf("x1 - 2"))))
    x = np.array([0.01, 10.0])
    y, d, _ = geo.projection(S, x)
    assert S.classify(y, 1e-9) != geo.Membership.OUTSIDE
    assert d == pytest.approx(float(np.linalg.norm(y - x)), abs=1e-15)
    assert d == pytest.approx(0.0099546, abs=1e-6)
    f = geo.feasible_point(S, x)
    assert f is not None and S.classify(f, 1e-9) != geo.Membership.OUTSIDE


def test_qp_accepts_opposite_and_dependent_rows():
    # {x2 <= 0, -x2 <= 0, 2 x2 <= 0, x1 <= 1}: the segment x2 = 0, x1 <= 1
    A = [[0.0, 1.0], [0.0, -1.0], [0.0, 2.0], [1.0, 0.0]]
    y, lam = geo._qp_project(A, [0.0, 0.0, 0.0, 1.0], [3.0, 2.0])
    assert y == pytest.approx([1.0, 0.0], abs=1e-15)
    assert min(lam) >= 0.0
    assert np.array([3.0, 2.0]) - np.array(A).T @ lam == pytest.approx(y, abs=1e-12)
    # x1 <= 0 and -x1 <= -1 have no common point
    assert geo._qp_project([[1.0, 0.0], [-1.0, 0.0]], [0.0, -1.0], [0.0, 0.0]) is None


# The numpy kernels that the Newton loop ran on before it ran on floats, kept
# as references


def _lstsq_ref(M, v):
    """The former geometry._lstsq: the least-squares, least-norm x with
    M x = v, for an M whose rows or columns are unit vectors and linearly
    independent."""
    rows, cols = M.shape
    if cols == 1:
        return np.array([float(M[:, 0] @ v)])
    if rows == 1:
        return M[0] * float(v[0])
    if rows == cols:
        return np.linalg.solve(M, v)
    return np.linalg.lstsq(M, v, rcond=None)[0]


def _qp_project_ref(A, b, z):
    """The former numpy geometry._qp_project: Goldfarb and Idnani's dual
    active-set method for an identity Hessian, through _lstsq_ref."""
    norms = np.sqrt(np.einsum("ij,ij->i", A, A))
    scale = np.where(norms > 0.0, norms, 1.0)
    An, bn = A / scale[:, None], b / scale
    tol = 1e-12 * (1.0 + float(np.abs(z).max()))
    y = z.astype(float)
    lam = np.zeros(len(b))
    active = []
    for _ in range(4 * (len(b) + len(z)) + 8):
        viol = An @ y - bn
        if viol.max() <= tol:
            return y, np.maximum(lam, 0.0) / scale
        p = int(np.where(viol > tol, viol * scale, -np.inf).argmax())
        if p in active:
            return y, np.maximum(lam, 0.0) / scale
        a = An[p]
        while True:
            N = An[active]
            r = _lstsq_ref(N.T, a) if active else np.zeros(0)
            d = r @ N - a
            dd = float(d @ d)
            # a row that depends on the active ones leaves in d only the
            # rounding of r @ N, which grows with |r| where active rows
            # nearly depend on each other
            t2 = (float(a @ y) - bn[p]) / dd if dd > 1e-24 * (1.0 + float(r @ r)) else np.inf
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
                N = An[active]
                y = y - _lstsq_ref(N, N @ y - bn[active])
                break
            lam[active[k]] = 0.0
            del active[k]
    return None


def _curvature_factor_ref(fields, lam, y, models):
    """The former geometry._curvature_factor: numpy's Cholesky on the
    Lagrangian's Hessian, with rho G^T G added along the ladder."""
    terms = [lj * f.hess(y) for f, lj in zip(fields, lam) if lj > 0.0 and f.hess is not None]
    if not terms:
        return None
    H = np.eye(len(y)) + sum(terms)
    if not np.all(np.isfinite(H)):
        return None
    GG = None
    for rho in (0.0, 1.0, 10.0, 1e2, 1e3, 1e4, 1e5, 1e6):
        if rho and GG is None:
            G = np.array([g for m, lj in zip(models, lam) if lj > 0.0 for g, _ in m[0]])
            norms = np.sqrt(np.einsum("ij,ij->i", G, G))
            G = G[norms > 0.0] / norms[norms > 0.0, None]
            GG = G.T @ G
        try:
            L = np.linalg.cholesky(H + rho * GG if rho else H)
        except np.linalg.LinAlgError:
            continue
        if float(np.min(np.diag(L))) >= 1e-3:
            return L
    return None


# a coefficient is 0 or at least 0.1 in size, so that a row is zero or
# of a size that the 1e-12 tolerances refer to
_COEF = st.one_of(st.just(0.0), st.floats(0.1, 1.0), st.floats(-1.0, -0.1))


@st.composite
def _qp_systems(draw):
    """(A, b, z): rows in 2 or 3 dimensions, each with a partner that is
    its opposite (a hyperplane or a slab), a multiple, a near-dependent
    copy a + 1e-3 e, a zero row or an opposite that excludes it; or none."""
    n = draw(st.sampled_from([2, 3]))
    vec = st.lists(_COEF, min_size=n, max_size=n)
    A, b = [], []
    directions = []
    for _ in range(draw(st.integers(1, 4))):
        a, bi = draw(vec), draw(st.floats(-1.0, 1.0))
        A.append(a)
        b.append(bi)
        directions.append(a)
        kind = draw(st.sampled_from(["none", "opposite", "multiple", "near", "zero",
                                     "inconsistent"]))
        if kind == "opposite":
            A.append([-v for v in a])
            b.append(-bi + draw(st.sampled_from([0.0, 0.5])))
        elif kind == "multiple":
            k = draw(st.sampled_from([0.5, 2.0, 3.0]))
            A.append([k * v for v in a])
            b.append(k * bi + draw(st.sampled_from([0.0, 0.25])))
        elif kind == "near":
            # both rows hold as equalities where a y = bi and e y = beta,
            # a point at a distance of order 1 however near the rows are
            e = draw(vec)
            A.append([v + 1e-3 * ei for v, ei in zip(a, e)])
            b.append(bi + 1e-3 * draw(st.floats(-1.0, 1.0)))
            directions.append(e)
        elif kind == "zero":
            A.append([0.0] * n)
            b.append(draw(st.sampled_from([0.5, 0.0, -0.5])))
        elif kind == "inconsistent":
            A.append([-v for v in a])
            b.append(-bi - 0.5)
    z = draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n))
    # the drawn directions depend on each other exactly or not nearly, so
    # that every near dependence is a designed one; where draws depend to
    # between 1e-13 and 1e-2 by accident, the answer lies far out and is
    # ill-posed at the 1e-12 the kernels are compared to
    unit = [np.array(a) / np.linalg.norm(a) for a in directions if any(a)]
    for k in range(2, n + 1):
        for rows in itertools.combinations(unit, k):
            sigma = np.linalg.svd(np.array(rows), compute_uv=False)[-1]
            assume(not 1e-13 < sigma < 1e-2)
    return A, b, z


def _active_sigma(A, b, y):
    """The least singular value of the distinct unit directions of the rows
    active at y (1.0 for at most one; 0.0 for more than the dimension, which
    depend on each other), which a row's multiples and opposite share.
    Above 1e-6 the active rows' multipliers are unique up to the
    split between a row and its multiples or opposite; at or below it more
    rows meet at y, and which of them joins the active set is a tie that
    rounding breaks."""
    rows = []
    for a, bi in zip(np.array(A), b):
        norm = float(np.linalg.norm(a))
        if norm == 0.0 or abs(float(a @ y) - bi) > 1e-9 * norm:
            continue
        u = a / norm
        if not any(np.abs(u - r).max() <= 1e-12 or np.abs(u + r).max() <= 1e-12 for r in rows):
            rows.append(u)
    if len(rows) <= 1:
        return 1.0
    if len(rows) > len(y):
        return 0.0
    return float(np.linalg.svd(np.array(rows), compute_uv=False)[-1])


@settings(max_examples=1500, deadline=None)
@given(_qp_systems())
# x1 = 0 with x2 >= 0 and 1.09375e-4 x1 + x2 <= -1e-3 is inconsistent. -e1
# depends on the near row and -e2; under an absolute test dd > 1e-24 the
# reference took the rounding left in d for a step, moved y by 3.8e12 and
# failed on a singular solve
@example(system=([[1.0, 0.0, 0.0], [-1.0, -0.0, -0.0], [0.0, 1.0, 0.0],
                  [0.000109375, 1.0, 0.0], [0.0, -1.0, 0.0]],
                 [0.0, 0.0, 0.0, -0.001, 0.0], [0.0, 0.0, 0.0]))
# rows 1.8e-4 apart in angle, both active: the multipliers (0.49952316284,
# 0.00047683716) come out 5.1e-9 off in the kernel and 3.0e-9 in the
# reference, each with y within 1.3e-12 of (1.5, 0, 1.5)
@example(system=([[1.0, 0.0, -1.0], [1.0, -0.00025, -1.0]], [0.0, 0.0],
                 [2.0, -1.192092896e-07, 1.0]))
# three rows meet at y = 0 in the plane: which two of them carry the
# multipliers is a tie
@example(system=([[1.0, 0.0], [0.9995, -0.001], [0.0, 0.0], [-0.5, -1.0]],
                 [0.0, 0.0, 0.0, 0.0], [0.0, -1.0]))
def test_qp_project_matches_the_numpy_reference(system):
    A, b, z = system
    ref = _qp_project_ref(np.array(A), np.array(b), np.array(z))
    got = geo._qp_project(A, b, z)
    assert (got is None) == (ref is None)
    if ref is None:
        return
    y, lam = np.array(got[0]), np.array(got[1])
    assert np.abs(y - ref[0]).max() <= 1e-12 * (1.0 + float(np.linalg.norm(z)))
    assert lam.min() >= 0.0
    sigma = _active_sigma(A, b, ref[0])
    if sigma <= 1e-6:
        lam, ref = np.array(A).T @ lam, (ref[0], np.array(A).T @ ref[1])
    tol = 1e-9 * max(1.0, float(np.abs(ref[1]).max()))
    if sigma > 1e-6:
        # z - y fixes the multipliers of active rows that nearly depend on
        # each other only to its error over sigma, and each kernel's y is
        # within 1e-12 (1 + |z|) of the answer
        tol = max(tol, 2e-12 * (1.0 + float(np.linalg.norm(z))) / sigma)
    assert np.abs(lam - ref[1]).max() <= tol


@st.composite
def _curvatures(draw):
    """(fields, lam, models): up to three leaves with constant symmetric
    second partials, their multipliers (some zero) and model rows."""
    n = draw(st.sampled_from([2, 3]))
    fields, lam, models = [], [], []
    for _ in range(draw(st.integers(1, 3))):
        h = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=n * n, max_size=n * n)))
        h = (h.reshape(n, n) + h.reshape(n, n).T) / 2.0
        fields.append(fl.ScalarField(n, lambda x: 0.0, hess=lambda x, _h=h: _h.copy()))
        lam.append(draw(st.one_of(st.just(0.0), st.floats(0.0, 2.0))))
        models.append([[(draw(st.lists(_COEF, min_size=n, max_size=n)), 0.0)]])
    return fields, lam, models


@settings(max_examples=1000, deadline=None)
@given(_curvatures(), st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3))
def test_curvature_factor_and_solves_match_numpy(curvature, w):
    fields, lam, models = curvature
    n = fields[0].n
    y = np.zeros(n)
    ref = _curvature_factor_ref(fields, np.array(lam), y,
                                [[[(np.array(g), c) for g, c in alt] for alt in m]
                                 for m in models])
    L = geo._curvature_factor(fields, lam, y, models)
    assert (L is None) == (ref is None)
    if ref is None:
        return
    Lf = np.array([row + [0.0] * (n - len(row)) for row in L])
    assert np.abs(Lf - ref).max() <= 1e-12 * float(np.abs(ref).max())
    w = w[:n]
    for mine, theirs in ((geo._solve_lower(L, w), np.linalg.solve(ref, w)),
                         (geo._solve_upper(L, w), np.linalg.solve(ref.T, w))):
        assert np.abs(np.array(mine) - theirs).max() <= 1e-9 * (1.0 + float(np.abs(theirs).max()))


@pytest.mark.parametrize("text", [
    # the gradient vanishes at the start x = 0: the step's QP has a zero row
    "(x1^2 + x2^2 - 1)^2",
    # the first step lands on (0, 1) with multiplier 1, where the
    # Lagrangian's Hessian I + diag(-1, 0) has a zero pivot for every rho
    "1 - x1^2/2 - x2",
])
def test_degenerate_steps_do_not_raise_out_of_project(text):
    S = geo.SetDescription(2, _expr_leaf(text))
    y, d, _ = geo.projection(S, [0.0, 0.0])
    assert d == pytest.approx(1.0, abs=1e-4)


def test_zero_pivot_moves_along_the_rho_ladder():
    f = _expr_leaf("1 - x1^2/2 - x2").constraint
    models = [geo._leaf_models(f, np.array([0.0, 1.0]), 0.0)]
    assert geo._curvature_factor([f], [1.0], np.array([0.0, 1.0]), models) is None
    assert geo._cholesky([[0.0, 0.0], [0.0, 1.0]]) is None


# The list-and-sum float kernels that the Newton loop ran on before its sums
# were written out left to right, kept as references. Python 3.11's builtin
# sum adds left to right from the int 0, so the kernels must give the same
# bits; outputs are compared as packed doubles, where -0.0 is not 0.0 and a
# nan equals a nan. IEEE 754 leaves the sign and payload of a nan result
# open, and which of two nans an addition returns depends on how the
# interpreter was compiled (its sum and its float + differ here), so every
# nan counts as the same.


def _dot_ref(a, b):
    return sum([p * q for p, q in zip(a, b)])


def _sqdist_ref(a, b):
    return sum([(p - q) * (p - q) for p, q in zip(a, b)])


def _cholesky_ref(M):
    L = []
    for i, Mi in enumerate(M):
        row = []
        for k in range(i):
            row.append((Mi[k] - sum([row[j] * L[k][j] for j in range(k)])) / L[k][k])
        s = Mi[i] - sum([v * v for v in row])
        if not s > 0.0:
            return None
        row.append(math.sqrt(s))
        L.append(row)
    return L


def _solve_lower_ref(L, w):
    x = []
    for i, row in enumerate(L):
        x.append((w[i] - sum([row[k] * x[k] for k in range(i)])) / row[i])
    return x


def _solve_upper_ref(L, w):
    n = len(L)
    x = [0.0] * n
    for i in reversed(range(n)):
        x[i] = (w[i] - sum([L[k][i] * x[k] for k in range(i + 1, n)])) / L[i][i]
    return x


def _orthogonalized_ref(Q, a):
    c = [0.0] * len(Q)
    v = list(a)
    for _ in range(2):
        for j, q in enumerate(Q):
            s = _dot_ref(q, v)
            c[j] += s
            v = [vi - s * qi for vi, qi in zip(v, q)]
    return c, v


def _violation_ref(fields, y):
    try:
        return sum(max(f.value_checked(y), 0.0) for f in fields)
    except fl.EvaluationError:
        return math.inf


def _curvature_factor_sum_ref(fields, lam, y, models):
    """The list-and-sum geometry._curvature_factor, through the reference
    kernels."""
    curved = [(lj, f.hess(y).tolist()) for f, lj in zip(fields, lam)
              if lj > 0.0 and f.hess is not None]
    if not curved:
        return None
    n = len(y)
    H = [[(1.0 if i == k else 0.0) + sum([lj * h[i][k] for lj, h in curved])
          for k in range(n)] for i in range(n)]
    if not all(math.isfinite(v) for row in H for v in row):
        return None
    GG = None
    for rho in (0.0, 1.0, 10.0, 1e2, 1e3, 1e4, 1e5, 1e6):
        M = H
        if rho:
            if GG is None:
                G = [g for m, lj in zip(models, lam) if lj > 0.0 for g, _ in m[0]]
                G = [[v / s for v in g] for g, s in ((g, math.sqrt(_dot_ref(g, g))) for g in G)
                     if s > 0.0]
                GG = [[_dot_ref(gi, gk) for gk in zip(*G)] for gi in zip(*G)] if G \
                    else [[0.0] * n for _ in range(n)]
            M = [[h + rho * v for h, v in zip(hs, gs)] for hs, gs in zip(H, GG)]
        L = _cholesky_ref(M)
        if L is not None and min(row[i] for i, row in enumerate(L)) >= 1e-3:
            return L
    return None


_KERNEL_REFS = {"_dot": _dot_ref, "_sqdist": _sqdist_ref, "_cholesky": _cholesky_ref,
                "_solve_lower": _solve_lower_ref, "_solve_upper": _solve_upper_ref,
                "_orthogonalized": _orthogonalized_ref}


def _with_reference_kernels(call):
    """call() with geometry's kernels replaced by the list-and-sum ones, so
    that the QP runs as it did on them."""
    with pytest.MonkeyPatch.context() as mp:
        for name, ref in _KERNEL_REFS.items():
            mp.setattr(geo, name, ref)
        return call()


def _bits(value):
    """A kernel's result as bytes: floats packed as doubles, in order, or the
    type of the exception it raised."""
    if isinstance(value, BaseException):
        return type(value).__name__
    if value is None:
        return None
    if isinstance(value, (int, float)):
        return b"nan" if math.isnan(value) else struct.pack("<d", value)
    return tuple(_bits(v) for v in value)


def _run(call):
    try:
        return call()
    except (ZeroDivisionError, ValueError, OverflowError, IndexError) as e:
        return e


# every kind of double: signed zeros, infinities, nan, small and large
_ANY = st.one_of(st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1.0, -1.0]),
                 st.floats(-4.0, 4.0), st.floats(allow_nan=True, allow_infinity=True))


def _vectors(n, elements=_ANY):
    return st.lists(elements, min_size=n, max_size=n)


@settings(max_examples=600, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(_vectors(n), _vectors(n),
                                                    st.lists(_vectors(n), max_size=3),
                                                    _vectors(n * n), _vectors(n))))
def test_float_kernels_give_the_bits_of_the_list_and_sum_kernels(args):
    a, b, Q, m, w = args
    n = len(a)
    M = [m[i * n:(i + 1) * n] for i in range(n)]
    L = [row[:i + 1] for i, row in enumerate(M)]  # lower triangular, as rows
    for new, ref, inputs in ((geo._dot, _dot_ref, (a, b)), (geo._sqdist, _sqdist_ref, (a, b)),
                             (geo._cholesky, _cholesky_ref, (M,)),
                             (geo._solve_lower, _solve_lower_ref, (L, w)),
                             (geo._solve_upper, _solve_upper_ref, (L, w)),
                             (geo._orthogonalized, _orthogonalized_ref, (Q, a))):
        assert _bits(_run(lambda: new(*inputs))) == _bits(_run(lambda: ref(*inputs))), \
            (new.__name__, inputs)


@st.composite
def _any_qp_systems(draw):
    """(A, b, z): 0-6 rows in 1-4 dimensions, each new, the opposite or a
    multiple of an earlier one, or zero, with any doubles in them."""
    n = draw(st.integers(1, 4))
    A, b = [], []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["new", "opposite", "multiple", "zero"]) if A
                    else st.just("new"))
        if kind == "new":
            A.append(draw(_vectors(n, st.one_of(_COEF, _ANY))))
        elif kind == "opposite":
            A.append([-v for v in draw(st.sampled_from(A))])
        elif kind == "multiple":
            k = draw(st.sampled_from([0.5, 2.0, -3.0]))
            A.append([k * v for v in draw(st.sampled_from(A))])
        else:
            A.append([0.0] * n)
        b.append(draw(st.one_of(st.floats(-1.0, 1.0), _ANY)))
    return A, b, draw(_vectors(n, st.one_of(st.floats(-3.0, 3.0), _ANY)))


@settings(max_examples=1500, deadline=None)
@given(_any_qp_systems())
def test_qp_project_gives_the_bits_of_the_list_and_sum_kernels(system):
    A, b, z = system
    assert _bits(_run(lambda: geo._qp_project(A, b, z))) == \
        _bits(_run(lambda: _with_reference_kernels(lambda: geo._qp_project(A, b, z))))


@settings(max_examples=600, deadline=None)
@given(_curvatures(), st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3))
def test_curvature_factor_and_kink_qp_give_the_bits_of_the_list_and_sum_kernels(curvature, w):
    fields, lam, models = curvature
    n = fields[0].n
    y = np.zeros(n)
    L = geo._curvature_factor(fields, lam, y, models)
    assert _bits(L) == _bits(_curvature_factor_sum_ref(fields, lam, y, models))
    step = geo._kink_qp(models, w[:n], L)
    assert _bits(step) == _bits(_with_reference_kernels(lambda: geo._kink_qp(models, w[:n], L)))


def test_violation_gives_the_bits_of_the_list_and_sum_kernel():
    rng = np.random.default_rng(5)
    fields = [_expr_leaf(t).constraint for t in ("x1^2 + x2^2 - 1", "x2 - x1", "log(x1)")]
    for _ in range(200):
        y = rng.uniform(-2.0, 2.0, size=2)
        for k in range(1, 4):
            assert _bits(geo._violation(fields[:k], y)) == _bits(_violation_ref(fields[:k], y))


def _neumaier_sum(values, start=0):
    """Python 3.12's builtin sum over floats: Neumaier's compensated sum."""
    total, compensation = float(start), 0.0
    for v in values:
        t = total + v
        if abs(total) >= abs(v):
            compensation += (total - t) + v
        else:
            compensation += (v - t) + total
        total = t
    return total + compensation


def test_kernels_do_not_depend_on_the_builtin_sum(monkeypatch):
    # compensated, each sum of three or more terms below differs from the
    # left-to-right one (1e16 + 1 + 1 is 1e16 + 2, not 1e16); a sum of two
    # terms is the same either way
    assert _neumaier_sum([1e16, 1.0, 1.0]) == 1e16 + 2.0
    assert _dot_ref([1e16, 1.0, 1.0], [1.0] * 3) == 1e16
    ones = [_expr_leaf(t).constraint for t in ("1e16 + 0*x1", "1 + 0*x1", "1 + 0*x2")]
    calls = [
        lambda: geo._dot([1e16, 1.0, -1e16], [1.0, 1.0, 1.0]),
        lambda: geo._sqdist([1e8, 1.0, 1.0], [0.0, 0.0, 0.0]),
        lambda: geo._cholesky([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0],
                               [0.0, 0.0, 1.0, 0.0], [1e8, 1.0, 1.0, 1e16 + 4.0]]),
        lambda: geo._solve_lower([[1.0], [0.0, 1.0], [0.0, 0.0, 1.0], [1e16, 1.0, -1e16, 1.0]],
                                 [1.0, 1.0, 1.0, 0.0]),
        lambda: geo._solve_upper([[1.0], [1e16, 1.0], [1.0, 0.0, 1.0], [-1e16, 0.0, 0.0, 1.0]],
                                 [0.0, 1.0, 1.0, 1.0]),
        lambda: geo._orthogonalized([[1.0, 1.0, 1.0]], [1e16, 1.0, -1e16]),
        lambda: geo._violation(ones, np.zeros(2)),
    ]
    builtin = [_bits(_run(call)) for call in calls]
    monkeypatch.setattr(geo, "sum", _neumaier_sum, raising=False)
    assert [_bits(_run(call)) for call in calls] == builtin


# projection() against a copy of its former loop, which drew every term's
# random starts before projecting onto the term: max(3, starts) less the warm
# start and _LOCAL_STARTS, whether or not x's restoration succeeds


def _project_eager_ref(S, x, *, starts=16, seed=0, warm=None):
    x = np.asarray(x, dtype=float)
    closed = S.closure()
    if closed.classify(x, 0.0) != geo.Membership.OUTSIDE:
        return x.copy(), 0.0
    rng = geo.rng_for(seed, "project")
    best = None
    bounds = [(geo._term_lower_bound(leaves, x), leaves) for leaves in closed._terms]
    for bound, leaves in sorted(bounds, key=lambda pair: pair[0]):
        if best is not None and bound > 4.0 * best[1] + 1e-12:
            continue
        term_starts = []
        if warm is not None:
            term_starts.append(np.asarray(warm, dtype=float))
        share = max(3, starts) - len(term_starts) - geo._LOCAL_STARTS
        term_starts.extend(geo._local_starts(leaves, x))
        scale = 1.0 + float(np.linalg.norm(x))
        for _ in range(share):
            radius = scale * float(rng.uniform(0.05, 1.5))
            term_starts.append(x + radius * rng.normal(size=S.n) / np.sqrt(S.n))
        got = geo.project_term(leaves, x, term_starts)
        if got is not None and (best is None or got[1] < best[1]):
            best = got
    if best is None:
        raise geo.NonConvergence(f"no feasible point found for {S.name or 'set'} near {x.tolist()}")
    return best


def test_project_draws_the_starts_of_the_eager_loop_on_catalog_sets():
    from hibarrier.catalog import EXAMPLE_IDS, example_bundle
    from hibarrier.model import build_k_complex

    rng = np.random.default_rng(15)
    projected = 0
    for name in EXAMPLE_IDS:
        b = example_bundle(name)
        kc = build_k_complex(b.system, b.barrier)
        wide = b.box + np.array([-0.5, 0.5])
        for S in (kc.K, kc.K_e, kc.KC, b.system.C, b.system.D):
            for x in geo._box_draws(rng, wide, 6):
                starts, seed = int(rng.integers(1, 17)), int(rng.integers(0, 1000))
                for warm in (None, geo._box_draws(rng, b.box, 1)[0]):
                    new = _outcome(lambda: geo.projection(S, x, starts=starts, seed=seed,
                                                          warm=warm)[:2])
                    ref = _outcome(lambda: _project_eager_ref(S, x, starts=starts, seed=seed,
                                                              warm=warm))
                    assert new == ref, (name, S.name, x, starts, seed, warm)
                    projected += S.closure().classify(x, 0.0) == geo.Membership.OUTSIDE
    assert projected >= 200


def test_a_failed_restoration_leaves_the_term_its_share(monkeypatch):
    # x's restoration onto log(x1) + 10 <= 0 steps from x1 = 1 to x1 = -9,
    # where the leaf cannot be evaluated; the term's share of the random
    # stream is still max(3, starts) less _LOCAL_STARTS
    S = geo.SetDescription(2, _expr_leaf("log(x1) + 10"))
    x = np.array([1.0, 0.0])
    assert len(list(geo._local_starts(S.closure()._terms[0], x))) == 1
    shares = []
    share = geo._RandomStarts.share
    monkeypatch.setattr(geo._RandomStarts, "share",
                        lambda self, count: shares.append(count) or share(self, count))
    y, d, _ = geo.projection(S, x, starts=16)
    assert shares == [16 - geo._LOCAL_STARTS]
    assert y[0] == pytest.approx(math.exp(-10.0), rel=1e-9)


def test_a_cone_sweep_that_reaches_no_random_start_never_seeds_the_stream(monkeypatch):
    # on expcount's K cap C, every projection of the sweep from (-0.5, 0)
    # along (0, 1) starts warm from the previous one, and two of its first
    # three starts agree, so the stale rule stops before a random start
    from hibarrier.catalog import example_bundle
    from hibarrier.model import build_k_complex

    b = example_bundle("expcount")
    S = build_k_complex(b.system, b.barrier).KC
    tags = []

    def recorded(seed, tag):
        tags.append(tag)
        return rng_for(seed, tag)

    rng_for = geo.rng_for
    monkeypatch.setattr(geo, "rng_for", recorded)
    x, v = np.array([-0.5, 0.0]), np.array([0.0, 1.0])
    ratio = geo.external_min_ratio(S, x, v, seed=0)
    assert ratio == pytest.approx(1.0, abs=1e-9)  # every x + h v lies outside
    assert "project" not in tags
    # a cold projection does reach its random starts
    geo.contingent_min_ratio(S, x, v, seed=0)
    assert tags.count("project") == 1


# ---------------------------------------------------------------------------
# Closed-form cone ratios against a fine sweep, and their fallbacks


# the sweep's range of h with finer steps, more starts and no stop at the
# first member: the reference the closed forms are held to
_FINE_H = tuple(h for h in (1e-2 * 0.8 ** i for i in range(60)) if h >= 1e-6)
# |closed form - fine sweep| <= _AGREE |v|^2, O(h_min); on 150 draws of each
# test below the largest difference was 8.1e-7 |v|^2
_AGREE = 10.0 * _FINE_H[-1]


def _fine_sweep(S, x, v, d0=0.0, warm=None):
    best = math.inf
    for h in _FINE_H:
        warm, d, _ = geo.projection(S, x + h * v, starts=24, seed=1, warm=warm)
        best = min(best, (d - d0) / h)
    return best


def _agrees_with_fine_sweep(closed, fine, v):
    assert abs(closed - fine) <= _AGREE * float(v @ v), (closed, fine)
    if abs(closed - geo.CONE_TOL) > _AGREE * float(v @ v):
        assert (closed <= geo.CONE_TOL) == (fine <= geo.CONE_TOL), (closed, fine)


def _polyhedron(gs, bs):
    """The leaves g @ y <= b."""
    dim = len(gs[0])
    return geo.Intersection(tuple(geo.Leaf(fl.ScalarField(
        dim, (lambda x, _g=np.array(g), _b=b: float(_g @ x) - _b),
        grad=(lambda x, _g=np.array(g): _g.copy()), affine=True)) for g, b in zip(gs, bs)))


def _cone_polyhedron(rng, dim):
    """1 to dim leaves g @ y <= 0 through the origin and two g @ y <= b,
    b in [0.2, 1], that are not active there."""
    active = int(rng.integers(1, dim + 1))
    return _polyhedron(rng.normal(size=(active + 2, dim)),
                       [0.0] * active + list(rng.uniform(0.2, 1.0, size=2)))


def _direction(rng, dim):
    v = rng.normal(size=dim)
    return v / np.linalg.norm(v) * float(rng.uniform(0.5, 2.0))


def _contingent_agrees(S, x, v):
    cone = geo.linearized_cone(S, x)
    assume(cone is not None)
    assert cone.exact
    closed = geo.contingent_min_ratio(S, x, v, cone=cone)
    assert closed == cone.distance(v)
    assert (closed == 0.0) == cone.contains(v)
    _agrees_with_fine_sweep(closed, _fine_sweep(S, x, v), v)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_contingent_closed_form_matches_a_fine_sweep_on_polyhedra(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 4))
    S = geo.SetDescription(dim, _cone_polyhedron(rng, dim))
    _contingent_agrees(S, np.zeros(dim), _direction(rng, dim))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_contingent_closed_form_matches_a_fine_sweep_on_smooth_terms(seed):
    # the ellipse (x1/a)^2 + (x2/b)^2 <= 1, a disk where a = b, at a
    # boundary point
    rng = np.random.default_rng(seed)
    a, b = rng.uniform(0.5, 2.0, size=2)
    if rng.integers(2):
        b = a
    w = np.array([1.0 / a ** 2, 1.0 / b ** 2])
    S = geo.SetDescription(2, leaf(lambda x: float(w @ (x * x)) - 1.0,
                                   grad=lambda x: 2.0 * w * x, name="ellipse"))
    t = float(rng.uniform(0.0, 2.0 * math.pi))
    _contingent_agrees(S, np.array([a * math.cos(t), b * math.sin(t)]), _direction(rng, 2))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_contingent_closed_form_matches_a_fine_sweep_on_unions(seed):
    # two polyhedral terms through the origin, or two overlapping disks at a
    # point where both boundaries cross: the cone is the union of two
    rng = np.random.default_rng(seed)
    if rng.integers(2):
        dim = int(rng.integers(2, 4))
        S = geo.SetDescription(dim, geo.Union((_cone_polyhedron(rng, dim),
                                               _cone_polyhedron(rng, dim))))
        x = np.zeros(dim)
    else:
        c, dim = float(rng.uniform(0.2, 0.8)), 2
        S = geo.SetDescription(2, geo.Union(tuple(
            leaf(lambda x, _c=np.array([s * c, 0.0]): float((x - _c) @ (x - _c)) - 1.0,
                 grad=lambda x, _c=np.array([s * c, 0.0]): 2.0 * (x - _c)) for s in (1, -1))))
        x = np.array([0.0, math.sqrt(1.0 - c * c)])
        assert len(geo.linearized_cone(S, x).terms) == 2
    _contingent_agrees(S, x, _direction(rng, dim))


def test_contingent_closed_form_of_a_non_member():
    # on the unit circle at (1, 0), v = (2, 1) leaves at rate 2: dist(v, T) = 2
    S, x, v = disk(), np.array([1.0, 0.0]), np.array([2.0, 1.0])
    cone = geo.linearized_cone(S, x)
    assert cone.exact and not cone.contains(v)
    closed = geo.contingent_min_ratio(S, x, v, cone=cone)
    assert closed == 2.0
    _agrees_with_fine_sweep(closed, _fine_sweep(S, x, v), v)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_external_closed_form_matches_a_fine_sweep(seed):
    # convex sets (a disk, a polyhedron) and two disjoint disks, from points
    # at distance >= 0.05 where the projection is unique
    rng = np.random.default_rng(seed)
    kind = int(rng.integers(3))
    if kind == 0:
        c, r = rng.uniform(-1.0, 1.0, size=2), float(rng.uniform(0.3, 1.5))
        S = geo.SetDescription(2, leaf(lambda x: float((x - c) @ (x - c)) - r * r,
                                       grad=lambda x: 2.0 * (x - c)))
    elif kind == 1:
        S = geo.SetDescription(2, _polyhedron(rng.normal(size=(3, 2)),
                                              rng.uniform(0.2, 1.0, size=3)))
    else:
        S = geo.SetDescription(2, geo.Union(tuple(
            leaf(lambda x, _c=np.array([s, 0.0]): float((x - _c) @ (x - _c)) - 0.25,
                 grad=lambda x, _c=np.array([s, 0.0]): 2.0 * (x - _c)) for s in (2.0, -2.0))))
    x = rng.uniform(-3.0, 3.0, size=2)
    if kind == 2:
        assume(abs(x[0]) > 0.1)  # off the line of points equidistant from both disks
    try:
        base = geo.projection(S, x, starts=8, seed=0)
    except geo.NonConvergence:
        assume(False)
    assume(base.d >= 0.05)
    assert base.unique and base.closed_form
    v = _direction(rng, 2)
    closed = geo.external_min_ratio(S, x, v, base=base)
    assert closed == float(v @ (x - base.y)) / base.d
    _agrees_with_fine_sweep(closed, _fine_sweep(S, x, v, base.d, base.y), v)


def _tangent_ratio(S, x, eta):
    """certificates' cone ratio of eta at x, with the flags of its path."""
    from hibarrier import certificates as cert

    col = cert._Collector()
    cfg = cert.CheckConfig(box=((-2.0, 2.0), (-2.0, 2.0)))
    ratio = cert._tangent_ratio(S, x, np.asarray(eta, dtype=float),
                                geo.linearized_cone(S, x), cfg, col)
    return ratio, col.flags


def test_external_rate_sweeps_where_the_projection_is_not_unique():
    # (0, 0.5) is equidistant from two disjoint disks; the rate is the least
    # over both projections, which one projection's closed form would miss
    S = geo.SetDescription(2, geo.Union((_expr_leaf("(x1 + 2)^2 + x2^2 - 1"),
                                         _expr_leaf("(x1 - 2)^2 + x2^2 - 1"))))
    x = np.array([0.0, 0.5])
    base = geo.projection(S, x, starts=8, seed=0)
    assert not base.unique and not base.closed_form
    # the values of the sweep before the closed forms
    for v, ratio in (([1.0, 0.0], -0.9699991576276323), ([0.0, -1.0], -0.24025026080447542),
                     ([0.3, 0.4], -0.19351298394914007)):
        assert geo.external_min_ratio(S, x, v, seed=0, base=base) == ratio
        assert geo.external_min_ratio(S, x, v, seed=0) == ratio


def test_contingent_ratio_sweeps_near_the_interior():
    # x2 = -5e-7 is active at EPS_ACT but inside the leaf x2 <= 0: the cone
    # is not exact, and the sweep measures what the closed form (1.0) would not
    S, x = geo.SetDescription(2, _expr_leaf("x2")), np.array([0.0, -5e-7])
    cone = geo.linearized_cone(S, x)
    assert cone is not None and not cone.exact
    for eta in ([0.0, 1.0], [1.0, 1.0]):
        ratio, flags = _tangent_ratio(S, x, eta)
        assert ratio == 0.5904 and "cone:sweep" in flags and "cone:linearized" not in flags


def test_contingent_ratio_of_a_member_of_an_inexact_cone_is_zero():
    # (0, 5e-7) lies 5e-7 outside x2 <= 0, where the cone is not exact;
    # (1, 0) is a member of it, which the sweep would put at about 5e-5
    S, x = geo.SetDescription(2, _expr_leaf("x2")), np.array([0.0, 5e-7])
    cone = geo.linearized_cone(S, x)
    assert cone is not None and not cone.exact and cone.contains(np.array([1.0, 0.0]))
    assert geo.contingent_min_ratio(S, x, [1.0, 0.0], cone=cone) == 0.0


def test_contingent_ratio_sweeps_on_a_kink():
    # abs(x2) + x1 <= 1 has a kink at (1, 0): its central difference (1, 0)
    # is no gradient there, so there is no linearized cone
    S, x = geo.SetDescription(2, _expr_leaf("abs(x2) + x1 - 1")), np.array([1.0, 0.0])
    assert geo.linearized_cone(S, x) is None
    for eta, want in (([1.0, 0.5], 1.1180339887496342), ([1.0, 2.0], 2.1213203434966386)):
        ratio, flags = _tangent_ratio(S, x, eta)
        assert ratio == want and flags == ["distance-approximate", "cone:sweep"]
    # away from the kink the central difference is the gradient
    cone = geo.linearized_cone(S, np.array([0.5, 0.5]))
    assert [[g.tolist() for g in t] for t in cone.terms] == [[pytest.approx([1.0, 1.0])]]
    # min(x1, x2) and max(x1, x2) kink on x1 = x2, which shows along both
    # coordinates, where the central difference (0.5, 0.5) is no gradient:
    # (1, -0.5) stays in {min <= 1} (ratio 0) and (1, -0.999) leaves
    # {max <= 1} at rate about 1
    x = np.array([1.0, 1.0])
    for text, eta, want in (("min(x1, x2) - 1", [1.0, -0.5], 0.0),
                            ("max(x1, x2) - 1", [1.0, -0.999], 1.0)):
        S = geo.SetDescription(2, _expr_leaf(text))
        assert geo.linearized_cone(S, x) is None
        ratio, flags = _tangent_ratio(S, x, eta)
        assert ratio == pytest.approx(want, abs=1e-9)
        assert flags == ["distance-approximate", "cone:sweep"]


# ---------------------------------------------------------------------------
# Row-batched samplers against the one-point loops they replaced


def _sample_ref(S, box, n, seed=0):
    """geometry.sample with one classify or feasible_point call per draw."""
    box = np.asarray(box, dtype=float)
    rng = np.random.default_rng((int(seed), zlib.crc32(b"sample")))
    points, budget, drawn = [], max(50 * n, 4000), 0
    while drawn < budget and len(points) < n:
        batch = geo._box_draws(rng, box, min(512, budget - drawn))
        drawn += len(batch)
        for x in batch:
            if S.classify(x, 0.0) != geo.Membership.OUTSIDE:
                points.append(x)
                if len(points) >= n:
                    break
    if len(points) < n:
        for x in geo._box_draws(rng, box, 8 * n):
            if len(points) >= n:
                break
            y = geo.feasible_point(S, x)
            if y is not None and geo.in_box(y, box):
                points.append(y)
    return points[:n]


def _sample_boundary_ref(S, box, n, band, seed=0):
    """geometry.sample_boundary with one classify call per point and step."""
    box = np.asarray(box, dtype=float)
    rng = np.random.default_rng((int(seed), zlib.crc32(b"boundary")))
    inside = _sample_ref(S, box, max(2 * n, 32), seed=seed)
    points = []
    for x in inside:
        if len(points) >= n:
            break
        if S.classify(x, band) == geo.Membership.BOUNDARY:
            points.append(x)
    if len(points) < n and inside:
        pool, drawn = [], 0
        while drawn < 4000 and len(pool) < max(2 * n, 32):
            batch = geo._box_draws(rng, box, 256)
            drawn += len(batch)
            for x in batch:
                if S.classify(x, 0.0) == geo.Membership.OUTSIDE:
                    pool.append(x)
                    if len(pool) >= max(2 * n, 32):
                        break
        attempts = 0
        while pool and len(points) < n and attempts < 8 * n:
            attempts += 1
            a = inside[int(rng.integers(len(inside)))]
            b = pool[int(rng.integers(len(pool)))]
            for _ in range(80):
                mid = 0.5 * (a + b)
                if S.classify(mid, 0.0) == geo.Membership.OUTSIDE:
                    b = mid
                else:
                    a = mid
            if S.classify(a, band) == geo.Membership.BOUNDARY:
                points.append(a)
    return points[:n]


def _minkowski_ref(S, x):
    """geometry.minkowski for one point, one classify call per step."""
    x = np.asarray(x, dtype=float)
    if float(np.linalg.norm(x)) == 0.0:
        return 0.0

    def member(mu):
        return S.classify(x / mu, 0.0) != geo.Membership.OUTSIDE

    hi = 1.0
    while not member(hi):
        hi *= 2.0
        if hi > 1e12:
            raise geo.NonConvergence("no finite Minkowski scaling found (set unbounded toward x?)")
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


def _outcome(call):
    """The points or values a call returns, as bytes, or the error it raises."""
    try:
        got = call()
    except (fl.EvaluationError, geo.NonConvergence) as e:
        return (type(e).__name__, str(e), getattr(e, "x", np.zeros(0)).tobytes())
    return [np.asarray(p, dtype=float).tobytes() for p in got]


def _expr_set(tree, n=2):
    from hibarrier.config import _set_from_tree

    return geo.SetDescription(n, _set_from_tree(tree, n, {}, "C"), name="C")


# Blocks below geo._ROWS_MIN rows run one row at a time; the tests below also
# run with the threshold at 1, so that every block takes the row path.
rows_min = pytest.mark.parametrize("rows_min", [1, geo._ROWS_MIN])


@rows_min
def test_batched_samplers_match_one_point_loops_on_catalog_sets(monkeypatch, rows_min):
    from hibarrier.catalog import EXAMPLE_IDS, example_bundle
    from hibarrier.model import build_k_complex

    monkeypatch.setattr(geo, "_ROWS_MIN", rows_min)

    for name in EXAMPLE_IDS:
        b = example_bundle(name)
        kc = build_k_complex(b.system, b.barrier)
        for S in (b.system.C, kc.K, kc.KD):
            for n in (5, 40):
                assert _outcome(lambda: geo.sample(S, b.box, n, seed=1).points) == \
                    _outcome(lambda: _sample_ref(S, b.box, n, seed=1)), (name, S.name)
            for n in (12, 48):
                assert _outcome(lambda: geo.sample_boundary(S, b.box, n, 1e-3, seed=2).points) \
                    == _outcome(lambda: _sample_boundary_ref(S, b.box, n, 1e-3, seed=2))


# log(x2 + 0.5) is non-finite below x2 = -0.5, and reached only inside the disk
_LOG_DISK = {"all": ["x1^2 + x2^2 - 1", "log(x2 + 0.5) - 5"]}


@rows_min
def test_sample_raises_where_the_one_point_loop_does(monkeypatch, rows_min):
    monkeypatch.setattr(geo, "_ROWS_MIN", rows_min)
    S = _expr_set(_LOG_DISK)
    raised = kept = 0
    for seed in range(12):
        for n in (1, 2, 30):
            got = _outcome(lambda: geo.sample(S, BOX2, n, seed=seed).points)
            assert got == _outcome(lambda: _sample_ref(S, BOX2, n, seed=seed))
            raised += isinstance(got, tuple)
            kept += not isinstance(got, tuple)
    # some draws reach the bad leaf before the n-th point and some only after it
    assert raised and kept
    with pytest.raises(fl.EvaluationError, match=r"log\(x2 \+ 0.5\) - 5"):
        geo.sample(S, BOX2, 30, seed=0)


@rows_min
def test_sample_boundary_raises_where_the_one_point_loop_does(monkeypatch, rows_min):
    monkeypatch.setattr(geo, "_ROWS_MIN", rows_min)
    # at tolerance 0 the union stops at the disk for every point inside it;
    # at the band tolerance a point of the inner band goes on to the second
    # leaf, which is non-finite there for x1 > 0
    def bad(x):
        return np.nan if x[0] > 0.0 and 0.95 <= float(x @ x) < 1.0 else 1.0

    S = geo.SetDescription(2, geo.Union((disk().root, leaf(bad, name="bad"))))
    outcomes = []
    for seed in range(8):
        for n in (1, 2, 6, 40):
            got = _outcome(lambda: geo.sample_boundary(S, BOX2, n, 0.05, seed=seed).points)
            assert got == _outcome(lambda: _sample_boundary_ref(S, BOX2, n, 0.05, seed=seed))
            outcomes.append(isinstance(got, tuple))
    assert any(outcomes) and not all(outcomes)
    # here the bisections' midpoints themselves reach a non-finite leaf
    near = leaf(lambda x: np.nan if abs(float(x @ x) - 1.0) < 1e-4 else -1.0, name="near")
    S = geo.SetDescription(2, geo.Intersection((disk().root, near)))
    for seed in range(3):
        got = _outcome(lambda: geo.sample_boundary(S, BOX2, 40, 1e-2, seed=seed).points)
        assert got == _outcome(lambda: _sample_boundary_ref(S, BOX2, 40, 1e-2, seed=seed))
        assert got[0] == "EvaluationError"


@rows_min
def test_minkowski_rows_match_one_point_values_and_errors(monkeypatch, rows_min):
    monkeypatch.setattr(geo, "_ROWS_MIN", rows_min)
    S = _expr_set({"all": ["log(x1 + 2) - 1", "x1^2 + x2^2 - 1"]})
    X = np.random.default_rng(6).uniform(-1.5, 1.5, size=(60, 2))
    X[7] = 0.0
    X[8] = [1e-200, 0.0]  # |x| rounds to 0
    got = geo.minkowski(S, X)
    assert got.shape == (60,)
    assert got.tobytes() == np.array([_minkowski_ref(S, x) for x in X]).tobytes()
    assert geo.minkowski(S, X[0]) == got[0] and isinstance(geo.minkowski(S, X[0]), float)
    # x1/mu < -2 makes log(x1 + 2) non-finite; the first such row raises
    bad = np.array([[3.0, 0.0], [-5.0, 0.0], [-7.0, 1.0]])
    assert _outcome(lambda: geo.minkowski(S, bad)) == \
        _outcome(lambda: [_minkowski_ref(S, x) for x in bad])
    far = np.array([[0.5, 0.0], [1e13, 0.0]])  # 1e13 / 2^39 is still outside
    got = _outcome(lambda: geo.minkowski(disk(), far))
    assert got[0] == "NonConvergence"
    assert got == _outcome(lambda: [_minkowski_ref(disk(), x) for x in far])


def test_lockstep_restoration_matches_feasible_point_on_catalog_sets(monkeypatch):
    from hibarrier.catalog import EXAMPLE_IDS, example_bundle
    from hibarrier.model import build_k_complex

    monkeypatch.setattr(geo, "_ROWS_MIN", 1)

    settled = 0
    rng = np.random.default_rng(8)
    for name in EXAMPLE_IDS:
        b = example_bundle(name)
        kc = build_k_complex(b.system, b.barrier)
        H = b.system
        k_ei = [geo.SetDescription(kc.n, geo.Leaf(c), name=f"K_e{i + 1}")
                for i, c in enumerate(b.barrier.components)]
        for S in (H.C, H.D, kc.K, kc.K_e, kc.KC, kc.KD, kc.CuD, *k_ei):
            X = geo._box_draws(rng, b.box, 40)
            rows = geo.feasible_point(S, X)
            one = [geo.feasible_point(S, x) for x in X]
            assert [None if y is None else y.tobytes() for y in rows] == \
                [None if y is None else y.tobytes() for y in one], (name, S.name)
            ranks, _ = S.closure().classify_many(X, 0.0)
            settled += sum(y is not None and r == 2
                           for y, r in zip(geo._restoration_rows(S, X), ranks))
    assert settled > 100  # rows the lockstep restoration itself settled
