import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
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
# analytic contingent cone


def test_analytic_halfplane():
    S = geo.SetDescription(2, halfspace([0, 1], 0.0))  # x2 <= 0
    at = [0.0, 0.0]
    assert geo.contingent_cone_member_analytic(S, at, [1, -1]) == geo.ConeVerdict.MEMBER
    assert geo.contingent_cone_member_analytic(S, at, [0, 1]) == geo.ConeVerdict.NON_MEMBER


def test_analytic_intersection_with_brute_force_oracle():
    # x1 <= 0 and x2 <= 0 at the origin, v = (-1, -1): the definition's test
    # sequence x + h_k v with h_k = 2^-k stays in S for every k
    S = geo.SetDescription(2, geo.Intersection((halfspace([1, 0], 0.0),
                                                halfspace([0, 1], 0.0))))
    v = np.array([-1.0, -1.0])
    for k in range(1, 30):
        h = 2.0 ** -k
        assert S.classify(h * v, 0.0) != geo.Membership.OUTSIDE
    assert geo.contingent_cone_member_analytic(S, [0, 0], v) == geo.ConeVerdict.MEMBER


def test_analytic_not_applicable_on_union():
    S = geo.SetDescription(2, geo.Union((halfspace([1, 0], 0.0),
                                         halfspace([0, 1], 0.0))))
    got = geo.contingent_cone_member_analytic(S, [0, 0], [1, 1])
    assert got == geo.ConeVerdict.NOT_APPLICABLE


def test_analytic_not_applicable_without_transversality():
    S = geo.SetDescription(2, geo.Intersection((halfspace([1, 0], 0.0),
                                                halfspace([-1, 0], 0.0))))
    got = geo.contingent_cone_member_analytic(S, [0, 0.3], [0, 1])
    assert got == geo.ConeVerdict.NOT_APPLICABLE


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
# Dubovitsky-Miliutin cone


def test_dm_halfplane():
    S = geo.SetDescription(2, halfspace([0, 1], 0.0))
    assert geo.dm_cone_member(S, [0, 0], [0, -1]) == geo.ConeVerdict.MEMBER
    # tangential directions are not interior-pointing
    assert geo.dm_cone_member(S, [0, 0], [1, 0]) == geo.ConeVerdict.NON_MEMBER


def test_dm_opposed_gradients():
    S = geo.SetDescription(2, geo.Intersection((halfspace([1, 0], 0.0),
                                                halfspace([-1, 0], 0.0))))
    for v in ([1, 0], [-1, 0], [0, 1], [0.3, -0.7]):
        assert geo.dm_cone_member(S, [0, 0.5], v) == geo.ConeVerdict.NON_MEMBER


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
    y, d = geo.project(S, [3, 0])
    assert d == pytest.approx(2.0, abs=1e-9)
    assert y == pytest.approx([1.0, 0.0], abs=1e-9)


def test_distance_inside_is_zero():
    S = disk()
    y, d = geo.project(S, [0.3, -0.2])
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
    y, d = geo.project(S, x)
    assert d == pytest.approx(oracle, abs=1e-7)
    assert y == pytest.approx([1.0, 1.0], abs=1e-7)


def test_distance_strict_leaf_uses_closure():
    S = geo.SetDescription(2, leaf(lambda x: float(x @ x) - 1.0, strict=True))
    assert geo.project(S, [2, 0])[1] == pytest.approx(1.0, abs=1e-9)


def test_nonconvergence_on_empty_set():
    S = geo.SetDescription(2, leaf(lambda x: 1.0, grad=lambda x: np.zeros(2)))
    with pytest.raises(geo.NonConvergence):
        geo.project(S, [0.0, 0.0])


def test_distance_project_consistency_random():
    S = box_set()
    rng = np.random.default_rng(5)
    pts = rng.uniform(-3, 3, size=(20, 2))
    ds = []
    for x in pts:
        y, d = geo.project(S, x)
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
            x, _ = geo.project(S, outside, starts=4)
        except geo.NonConvergence:
            continue
        v = rng.normal(size=dim)
        v /= np.linalg.norm(v)
        verdict = geo.contingent_cone_member_analytic(S, x, v)
        if verdict == geo.ConeVerdict.NOT_APPLICABLE:
            continue
        grads = [fl.gradient(l.constraint, x) for l in S.leaves()
                 if abs(l.constraint(x)) <= 1e-6]
        if any(abs(float(g @ v)) <= 10 * tol for g in grads):
            continue  # margin band excluded per the equivalence statement
        numeric = geo.contingent_min_ratio(S, x, v) <= tol
        total += 1
        if numeric == (verdict == geo.ConeVerdict.MEMBER):
            agree += 1
    assert agree / total >= 0.99


def test_dm_subset_of_contingent():
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 60:
        S = _random_polyhedron(rng, 2)
        outside = rng.normal(size=2) * 2.0
        try:
            x, _ = geo.project(S, outside, starts=4)
        except geo.NonConvergence:
            continue
        v = rng.normal(size=2)
        dm = geo.dm_cone_member(S, x, v)
        if dm == geo.ConeVerdict.MEMBER:
            assert geo.contingent_cone_member_analytic(S, x, v) == geo.ConeVerdict.MEMBER
        if dm != geo.ConeVerdict.NOT_APPLICABLE:
            checked += 1


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
        K1 = geo.SetDescription(2, halfspace(g1, 0.0))
        K2 = geo.SetDescription(2, halfspace(g2, 0.0))
        v = rng.normal(size=2)
        x = np.zeros(2)
        if geo.dm_cone_member(K1, x, v) != geo.ConeVerdict.MEMBER:
            continue
        if geo.contingent_cone_member_analytic(K2, x, v) != geo.ConeVerdict.MEMBER:
            continue
        both = K1.intersect(K2)
        assert geo.contingent_min_ratio(both, x, v) <= 1e-3
        done += 1


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=-1.4, max_value=1.4),
       st.floats(min_value=-1.4, max_value=1.4))
def test_distance_zero_iff_member(x1, x2):
    S = disk()
    x = np.array([x1, x2])
    _, d = geo.project(S, x)
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
    y, d = geo.project(S, [0.0, 3.0])
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


def _slsqp_project_term(leaves, z, starts, maxiter):
    """The former geometry._project_term, kept as the reference: SLSQP from
    every start, polished by Newton restoration, with the same stale rule."""
    constraints = [geo.term_constraint(leaves)]
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
    """project()'s start list for one term: z, its Newton restoration and
    random points around z."""
    starts = geo._local_starts(leaves, z)
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
    new = geo.project_term(leaves, z, starts, 80)
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


def test_vanishing_gradient_falls_back_to_slsqp(monkeypatch):
    # the gradient of (|x|^2 - 1)^2 vanishes on its zero set, the unit circle,
    # and at the origin, where Newton has no step and SLSQP takes over
    S = geo.SetDescription(2, _expr_leaf("(x1^2 + x2^2 - 1)^2"))
    calls = []
    real = geo.minimize

    def counted(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(geo, "minimize", counted)
    y, d = geo.project(S, [0.0, 0.0])
    assert calls and np.allclose(calls[0], 0.0)
    assert d == pytest.approx(1.0, abs=1e-4)
    assert abs(float(y @ y) - 1.0) <= 1e-4


def test_importing_the_cli_leaves_scipy_unloaded():
    import subprocess
    import sys
    from pathlib import Path

    src = Path(geo.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-c", "import sys, hibarrier.cli; print('scipy' in sys.modules)"],
        capture_output=True, text=True, check=True,
        env={"PYTHONPATH": str(src), "PATH": ""})
    assert out.stdout.strip() == "False"


def test_evaluation_error_in_one_start_does_not_abort_the_projection():
    # Newton restoration from x steps to x1 < 0, outside log's domain
    S = geo.SetDescription(2, geo.Intersection((_expr_leaf("log(x1) + x2"),
                                                _expr_leaf("x1 - 2"))))
    x = np.array([0.01, 10.0])
    y, d = geo.project(S, x)
    assert S.classify(y, 1e-9) != geo.Membership.OUTSIDE
    assert d == pytest.approx(float(np.linalg.norm(y - x)), abs=1e-15)
    assert d == pytest.approx(0.0099546, abs=1e-6)
    f = geo.feasible_point(S, x)
    assert f is not None and S.classify(f, 1e-9) != geo.Membership.OUTSIDE


def test_qp_accepts_opposite_and_dependent_rows():
    # {x2 <= 0, -x2 <= 0, 2 x2 <= 0, x1 <= 1}: the segment x2 = 0, x1 <= 1
    A = np.array([[0.0, 1.0], [0.0, -1.0], [0.0, 2.0], [1.0, 0.0]])
    b = np.array([0.0, 0.0, 0.0, 1.0])
    y, lam = geo._qp_project(A, b, np.array([3.0, 2.0]))
    assert y == pytest.approx([1.0, 0.0], abs=1e-15)
    assert np.all(lam >= 0.0)
    assert np.array([3.0, 2.0]) - A.T @ lam == pytest.approx(y, abs=1e-12)
    # x1 <= 0 and -x1 <= -1 have no common point
    assert geo._qp_project(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([0.0, -1.0]),
                           np.zeros(2)) is None
