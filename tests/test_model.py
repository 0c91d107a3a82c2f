import math

import numpy as np
import pytest

from hibarrier import fields as fl
from hibarrier import geometry as geo
from hibarrier import model as mo
from hibarrier import simulate as sim
from hibarrier.catalog import example_bundle


@pytest.fixture(scope="module")
def thermostat():
    return example_bundle("thermostat")


@pytest.fixture(scope="module")
def bouncing():
    return example_bundle("bouncing-ball")


def kc_of(bundle):
    return mo.build_k_complex(bundle.system, bundle.barrier)


# ---------------------------------------------------------------------------
# K complex construction


def test_thermostat_k_is_product_set(thermostat):
    # K = {0,1} x [z_min, z_max], checked by membership agreement on a grid
    kc = kc_of(thermostat)
    for q in np.linspace(-0.4, 1.4, 10):
        for z in np.linspace(-0.4, 2.4, 15):
            in_product = (abs(q) < 1e-12 or abs(q - 1) < 1e-12) and 0.5 <= z <= 1.5
            got = kc.K.classify([q, z], 1e-9) != geo.Membership.OUTSIDE
            assert got == in_product, (q, z)


def test_trivial_barrier_gives_cud(thermostat):
    # B = -1: K = C u D and every M_i sampler is empty
    H = thermostat.system
    B = mo.BarrierCandidate((fl.ScalarField(2, lambda x: -1.0,
                                            grad=lambda x: np.zeros(2)),))
    kc = mo.build_k_complex(H, B)
    rng = np.random.default_rng(3)
    for _ in range(60):
        x = rng.uniform(-1, 2.5, size=2)
        assert kc.K.classify(x, 1e-9) == kc.CuD.classify(x, 1e-9)
    ms = kc.sample_m(0, thermostat.box, 10, 0.01, seed=1)
    assert ms.achieved == 0 and ms.short


def test_bouncing_ke_boundary_point(bouncing):
    # B(0, 1) = 2*0 + (1-1)(1+1) = 0: the point lies on dK_e
    kc = kc_of(bouncing)
    assert kc.K_e.classify([0.0, 1.0], 1e-12) == geo.Membership.BOUNDARY


def test_ke_is_intersection_of_kei():
    # membership agreement on random points for every example system
    rng = np.random.default_rng(9)
    for name in ("exp1", "thermostat", "bouncing-ball", "exprj", "expCsets"):
        b = example_bundle(name)
        kc = kc_of(b)
        k_ei = [geo.SetDescription(kc.n, geo.Leaf(c)) for c in b.barrier.components]
        lo, hi = b.box[:, 0], b.box[:, 1]
        for _ in range(200):
            x = lo + rng.uniform(size=2) * (hi - lo)
            joint = kc.K_e.classify(x, 1e-9)
            parts = [ki.classify(x, 1e-9) for ki in k_ei]
            if any(p == geo.Membership.OUTSIDE for p in parts):
                assert joint == geo.Membership.OUTSIDE
            elif all(p == geo.Membership.INSIDE for p in parts):
                assert joint == geo.Membership.INSIDE
            else:
                assert joint == geo.Membership.BOUNDARY


def test_m_samples_on_boundary(thermostat):
    kc = kc_of(thermostat)
    band = 0.01
    for i in (0, 1):
        got = kc.sample_m(i, thermostat.box, 20, band, seed=4)
        assert got.achieved >= 10
        for x in got.points:
            assert abs(kc.barrier.components[i](x)) <= band
            assert kc.K.classify(x, band) == geo.Membership.BOUNDARY


def test_scalarization_equivalence(bouncing):
    b = example_bundle("exprj")
    kc = kc_of(b)
    rng = np.random.default_rng(21)
    for _ in range(200):
        x = rng.uniform(-2.5, 2.5, size=2)
        componentwise = bool(np.all(kc.barrier.values(x) <= 0.0))
        assert (kc.barrier.bar_value(x) <= 0.0) == componentwise


# ---------------------------------------------------------------------------
# hybrid arcs


def test_interval_strictly_increasing():
    with pytest.raises(ValueError):
        mo.ArcInterval(0, [0.0, 0.0], [np.zeros(2), np.zeros(2)])


# ---------------------------------------------------------------------------
# validate_arc


def _closed_form_thermostat_arc(z0=1.0, T=0.5, steps=100):
    ts = np.linspace(0.0, T, steps + 1)
    states = [np.array([0.0, (z0 - 0.0) * math.exp(-t) + 0.0]) for t in ts]
    return mo.HybridArc([mo.ArcInterval(0, list(ts), states)])


def test_validate_closed_form_thermostat_flow(thermostat):
    arc = _closed_form_thermostat_arc()
    violations = mo.validate_arc(arc, thermostat.system, vel_slope=4.0)
    assert violations == []


def test_validate_flags_jump_from_outside_d(thermostat):
    # jump taken at z = 1.0, strictly between z_min and z_max: not in D
    arc = mo.HybridArc([
        mo.ArcInterval(0, [0.0], [np.array([0.0, 1.0])]),
        mo.ArcInterval(1, [0.0], [np.array([1.0, 1.0])]),
    ])
    violations = mo.validate_arc(arc, thermostat.system)
    assert any(v.kind == "S2-domain" for v in violations)


def test_validate_flags_bad_jump_image(thermostat):
    # pre-jump in D but the landed state is not G(x) = (1-q, z)
    arc = mo.HybridArc([
        mo.ArcInterval(0, [0.0], [np.array([0.0, 0.5])]),
        mo.ArcInterval(1, [0.0], [np.array([1.0, 2.3])]),
    ])
    violations = mo.validate_arc(arc, thermostat.system)
    assert any(v.kind == "S2-image" for v in violations)


def test_validate_trivial_arc(thermostat):
    arc = mo.HybridArc([mo.ArcInterval(0, [0.0], [np.array([0.0, 1.0])])])
    assert mo.validate_arc(arc, thermostat.system) == []


def test_validate_flags_s0(thermostat):
    arc = mo.HybridArc([mo.ArcInterval(0, [0.0], [np.array([0.4, 1.0])])])
    violations = mo.validate_arc(arc, thermostat.system)
    assert any(v.kind == "S0" for v in violations)


def test_simulator_arcs_validate():
    for name, policy in (("thermostat", sim.SelectionPolicy()),
                         ("bouncing-ball", sim.SelectionPolicy()),
                         ("exprj", sim.SelectionPolicy(overlap=sim.Overlap("jump"))),
                         ("exp1", sim.SelectionPolicy(sim.PerStepRandom(),
                                                      sim.PerStepRandom(),
                                                      sim.Overlap("bernoulli", 0.5))),
                         ("exp1", sim.SelectionPolicy(sim.AdversarialGrid(5),
                                                      sim.AdversarialGrid(5),
                                                      sim.Overlap("flow")))):
        b = example_bundle(name)
        kc = kc_of(b)
        start = kc.pool(kc.K, b.box, 1, 6).points[0]
        arc = sim.solve(b.system, start, policy, sim.Horizon(1.0, 4, 2e-3),
                        kc=kc, seed=8)
        violations = mo.validate_arc(arc, b.system, vel_slope=4.0)
        assert violations == [], (name, violations[:3])


# ---------------------------------------------------------------------------
# scenario classification


def test_scenario_expillu_leaves_by_flow():
    # the nonunique solution x(t) = (t, t^2/4) leaves K = {x2 <= 0} by flowing
    b = example_bundle("expillu")
    kc = kc_of(b)
    ts = np.linspace(0.0, 1.0, 101)
    arc = mo.HybridArc([mo.ArcInterval(0, list(ts),
                                       [np.array([t, t * t / 4]) for t in ts])])
    got = mo.scenario_classify(arc, kc.K)
    assert got.kind == mo.LEAVES_BY_FLOW
    assert got.t > 0


def test_scenario_stays(thermostat):
    kc = kc_of(thermostat)
    arc = _closed_form_thermostat_arc(z0=1.0, T=0.4)
    assert mo.scenario_classify(arc, kc.K).kind == mo.STAYS_IN_K


def test_scenario_leaves_by_jump(thermostat):
    kc = kc_of(thermostat)
    arc = mo.HybridArc([
        mo.ArcInterval(0, [0.0], [np.array([0.0, 0.5])]),
        mo.ArcInterval(1, [0.0], [np.array([1.0, 2.5])]),  # B1 > 0 after jump
    ])
    got = mo.scenario_classify(arc, kc.K)
    assert got.kind == mo.LEAVES_BY_JUMP and got.j == 1


def test_scenario_requires_start_in_k(thermostat):
    kc = kc_of(thermostat)
    arc = mo.HybridArc([mo.ArcInterval(0, [0.0], [np.array([0.0, 2.4])])])
    with pytest.raises(geo.PreconditionError):
        mo.scenario_classify(arc, kc.K)


def test_k_membership_equivalence_spot_check(thermostat):
    # membership(K, x) <=> membership(CuD, x) and B(x) <= 0 componentwise
    kc = kc_of(thermostat)
    rng = np.random.default_rng(31)
    for _ in range(300):
        x = rng.uniform(-1, 3, size=2)
        in_k = kc.K.classify(x, 1e-9) != geo.Membership.OUTSIDE
        in_cud = kc.CuD.classify(x, 1e-9) != geo.Membership.OUTSIDE
        b_ok = bool(np.all(kc.barrier.values(x) <= 1e-9))
        assert in_k == (in_cud and b_ok)


def test_interval_dimension_consistency():
    with pytest.raises(ValueError):
        mo.ArcInterval(0, [0.0, 1.0], [np.zeros(2), np.zeros(3)])
