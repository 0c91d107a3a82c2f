import hashlib
import math

import numpy as np
import pytest

from hibarrier import fields as fl
from hibarrier import geometry as geo
from hibarrier import model as mo
from hibarrier import simulate as sim
from hibarrier.catalog import example_bundle


def kc_of(bundle):
    return mo.build_k_complex(bundle.system, bundle.barrier)


def linear_decay_system():
    """x' = -x on C = R^2 (no jumps)."""
    C = geo.SetDescription(2, geo.Leaf(fl.ScalarField(2, lambda x: -1.0,
                                                      grad=lambda x: np.zeros(2))))
    D = geo.SetDescription(2, geo.Leaf(fl.ScalarField(2, lambda x: 1.0,
                                                      grad=lambda x: np.zeros(2))))
    F = fl.SetValuedMap(2, 0, lambda x, lam: -x)
    G = fl.SetValuedMap(2, 0, lambda x, lam: x.copy())
    return mo.HybridSystem(2, C, F, D, G, name="decay")


# ---------------------------------------------------------------------------
# solve


def test_thermostat_flow_matches_closed_form():
    b = example_bundle("thermostat")
    arc = sim.solve(b.system, [0.0, 1.0], sim.SelectionPolicy(),
                    sim.Horizon(1.0, 4, 1e-3), kc=kc_of(b))
    worst = 0.0
    for iv in arc.intervals[:1]:
        for t, x in zip(iv.times, iv.states):
            worst = max(worst, abs(x[1] - math.exp(-t)))
    assert worst < 1e-6


def test_expillu_tracks_parabola():
    b = example_bundle("expillu")
    # from a hair above the boundary the square-root branch takes over
    arc = sim.solve(b.system, [0.0, 1e-12], sim.SelectionPolicy(),
                    sim.Horizon(1.0, 0, 1e-4))
    t_end, j_end, x_end = arc.end
    assert t_end == pytest.approx(1.0, abs=1e-12)
    assert abs(x_end[1] - t_end ** 2 / 4) < 1e-4
    assert abs(x_end[0] - t_end) < 1e-12


def test_equilibrium_constant_arc():
    H = linear_decay_system()
    arc = sim.solve(H, [0.0, 0.0], sim.SelectionPolicy(), sim.Horizon(1.0, 0, 1e-2))
    assert arc.termination == sim.HORIZON_REACHED
    for _, _, x in arc.samples():
        assert np.allclose(x, 0.0)


def test_s0_precondition():
    b = example_bundle("thermostat")
    with pytest.raises(geo.PreconditionError):
        sim.solve(b.system, [0.5, 1.0], sim.SelectionPolicy(), sim.Horizon(1.0, 2, 1e-3))


def test_integrator_fourth_order():
    # global error at T=1 for x' = -x scales as h^4: ratio ~16 per halving
    H = linear_decay_system()
    errs = []
    for h in (1e-2, 5e-3, 2.5e-3):
        arc = sim.solve(H, [1.0, 0.0], sim.SelectionPolicy(), sim.Horizon(1.0, 0, h))
        _, _, x_end = arc.end
        errs.append(abs(x_end[0] - math.exp(-1.0)))
    for a, b in zip(errs, errs[1:]):
        assert 8.0 <= a / b <= 32.0


def test_guard_refinement_jump_states():
    # every pre-jump state is (boundary-)inside D at the refinement tolerance
    for name in ("thermostat", "bouncing-ball", "exprj"):
        b = example_bundle(name)
        kc = kc_of(b)
        arc = sim.solve(b.system, kc.pool(kc.K, b.box, 1, 2).points[0],
                        sim.SelectionPolicy(), sim.Horizon(2.0, 6, 1e-3), kc=kc)
        for pre, post in zip(arc.intervals, arc.intervals[1:]):
            x_pre = pre.states[-1]
            assert b.system.D.classify(x_pre, 1e-8) != geo.Membership.OUTSIDE


def test_bouncing_energy_conserved_on_flow():
    b = example_bundle("bouncing-ball")
    arc = sim.solve(b.system, [0.0, 1.0], sim.SelectionPolicy(),
                    sim.Horizon(3.0, 8, 1e-4), kc=kc_of(b))
    assert len(arc.intervals) >= 2  # it actually bounces
    for iv in arc.intervals:
        if len(iv.times) < 2:
            continue
        es = [2.0 * x[0] + x[1] ** 2 for x in iv.states]
        duration = iv.times[-1] - iv.times[0]
        assert abs(es[-1] - es[0]) <= 1e-8 * max(duration, 1e-9) + 1e-12


def test_zeno_guard():
    # jump map fixed on a point of D: infinitely many zero-time jumps
    C = geo.SetDescription(1, geo.Leaf(fl.ScalarField(1, lambda x: 1.0)))
    D = geo.SetDescription(1, geo.Leaf(fl.ScalarField(1, lambda x: -1.0)))
    F = fl.SetValuedMap(1, 0, lambda x, lam: np.zeros(1))
    G = fl.SetValuedMap(1, 0, lambda x, lam: x.copy())
    H = mo.HybridSystem(1, C, F, D, G, name="zeno")
    arc = sim.solve(H, [0.0], sim.SelectionPolicy(overlap=sim.Overlap("jump")),
                    sim.Horizon(1.0, 1000, 1e-2))
    assert "zeno" in arc.flags


def test_solution_dies_at_blocked_boundary():
    b = example_bundle("expcount-fixed")
    arc = sim.solve(b.system, [-0.5, 0.0], sim.SelectionPolicy(),
                    sim.Horizon(2.0, 2, 1e-3), kc=kc_of(b))
    assert arc.termination == sim.SOLUTION_DIES
    _, _, x_end = arc.end
    # guard accuracy is sqrt(flow_tol) against the quadratic constraint
    assert x_end[0] == pytest.approx(0.0, abs=1e-4)


def test_csv_deterministic_and_structured():
    b = example_bundle("bouncing-ball")
    kc = kc_of(b)
    pol = sim.SelectionPolicy(sim.PerStepRandom(), sim.PerStepRandom(),
                              sim.Overlap("bernoulli", 0.5))
    # from (0,1) the first flight lasts exactly 2 time units, so T > 2 bounces
    a1 = sim.solve(b.system, [0.0, 1.0], pol, sim.Horizon(3.5, 5, 1e-3), kc=kc, seed=5)
    a2 = sim.solve(b.system, [0.0, 1.0], pol, sim.Horizon(3.5, 5, 1e-3), kc=kc, seed=5)
    c1, c2 = sim.arc_to_csv(a1, b.barrier), sim.arc_to_csv(a2, b.barrier)
    assert c1 == c2
    header = c1.splitlines()[0]
    assert header == "t,j,x1,x2,B1,flag"
    # jumps emit two rows with equal t and consecutive j
    rows = [line.split(",") for line in c1.splitlines()[1:]]
    jump_rows = [i for i, r in enumerate(rows) if r[-1].startswith("jump")]
    assert jump_rows
    for i in jump_rows:
        assert rows[i][0] == rows[i - 1][0]
        assert int(rows[i][1]) == int(rows[i - 1][1]) + 1


_H = 1e-3
# x2 = 0.5 after one 4-stage step of x2' = -x2: the first step lands in C and D
_THERMOSTAT_GUARD_START = 0.5 / (1 - _H + _H ** 2 / 2 - _H ** 3 / 6 + _H ** 4 / 24)


@pytest.mark.parametrize("name,x0,policy,horizon,seed,digest", [
    # C exit, then a D-entry bisection under the jump-preferring overlap rule
    ("thermostat", [0.0, _THERMOSTAT_GUARD_START],
     sim.SelectionPolicy(overlap=sim.Overlap("jump")), sim.Horizon(2.0, 4, _H), 0,
     "39b581980d6dc4e5791f29db9078f64a26918e8e88959785e8a5e117bbc7af41"),
    # C exit by bisection, then a jump from D
    ("bouncing-ball", [0.0, 1.0], sim.SelectionPolicy(), sim.Horizon(3.5, 5, _H), 0,
     "2f5e6ee807ccc38014a2ecc425ae690585a060296616543ddf3d73f6e68e8995"),
    # random parameters and a random flow/jump choice on C cap D
    ("exp1", [0.5, 0.0],
     sim.SelectionPolicy(sim.PerStepRandom(), sim.PerStepRandom(),
                         sim.Overlap("bernoulli", 0.5)), sim.Horizon(1.0, 4, 2e-3), 8,
     "abc029b8baa077b093fb6ca4d613b12532f7279bdcf1c71ed92b8fae6fd1b486"),
    # no progress at the boundary of C: the feasible-flow search, then death
    ("expcount-fixed", [-0.5, 0.0], sim.SelectionPolicy(), sim.Horizon(2.0, 2, _H), 0,
     "f5fda48c6df29f953e81a9e4d306835014237a501cd35fa5b29151cc996fb9c2"),
    # AdversarialGrid(5) scoring: a scored jump out of D, then scored flow in C
    ("exp1", [0.5, -0.3], sim.default_policy_pool()[0], sim.Horizon(1.0, 4, 2e-3), 3,
     "65e297d07ead18a6f8b021730a67a5507b9fb4e050e9569dceeee2eaae01d6d0"),
    # scored jumps until the jump budget runs out
    ("exp1", [0.5, -0.3], sim.default_policy_pool()[1], sim.Horizon(1.0, 4, 2e-3), 3,
     "e1b009483f08db01d5b5b85998d7edf5339fe7196e2e3ccf57e75c9887d5d990"),
    # scored flow only
    ("exp1", [0.9, 0.05], sim.default_policy_pool()[1], sim.Horizon(1.0, 4, 2e-3), 3,
     "254d2b7a7db6b19b861b38562a217a2028a0babbedaafa388c0167e943e9a08b"),
])
def test_arc_digests(name, x0, policy, horizon, seed, digest):
    # recorded before the event paths of solve were folded into one
    b = example_bundle(name)
    arc = sim.solve(b.system, x0, policy, horizon, kc=kc_of(b), seed=seed)
    assert hashlib.sha256(sim.arc_to_csv(arc, b.barrier).encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# falsification


def test_falsify_expillu_finds_flow_escape():
    b = example_bundle("expillu")
    kc = kc_of(b)
    res = sim.falsify_invariance(
        b.system, kc, sim.FalsifyBudget(starts=50, horizon=sim.Horizon(1.0, 2, 1e-4)),
        box=b.box, seed=0)
    assert res.found
    assert res.scenario.kind == mo.LEAVES_BY_FLOW
    assert res.scenario.x[1] > 0  # exit barrier value B = x2 positive


def test_falsify_expcount_finds_escape_along_axis():
    b = example_bundle("expcount")
    kc = kc_of(b)
    res = sim.falsify_invariance(
        b.system, kc, sim.FalsifyBudget(starts=24, horizon=sim.Horizon(1.5, 2, 5e-3)),
        box=b.box, seed=0)
    assert res.found and res.scenario.kind == mo.LEAVES_BY_FLOW
    # the escape runs along x(t) = (x1_0 + t, 0)
    assert res.scenario.x[1] == pytest.approx(0.0, abs=1e-9)
    assert res.scenario.x[0] > 0


def test_falsify_thermostat_finds_nothing():
    b = example_bundle("thermostat")
    kc = kc_of(b)
    res = sim.falsify_invariance(
        b.system, kc, sim.FalsifyBudget(starts=100, horizon=sim.Horizon(2.0, 6, 5e-3)),
        box=b.box, seed=0)
    assert not res.found
    assert res.stats["tasks_run"] == 100


# ---------------------------------------------------------------------------
# contractivity probe


def test_probe_bouncing_ball_lingers():
    # the flow conserves B, so boundary starts never enter int(K)
    b = example_bundle("bouncing-ball")
    kc = kc_of(b)
    res = sim.probe_contractivity(
        b.system, kc, sim.FalsifyBudget(starts=12, horizon=sim.Horizon(1.0, 2, 1e-3)),
        0.05, box=b.box, seed=0)
    assert res.lingering
    assert res.witness_arc is not None


def test_probe_exprj_immediate_entry():
    b = example_bundle("exprj")
    kc = kc_of(b)
    res = sim.probe_contractivity(
        b.system, kc, sim.FalsifyBudget(starts=50, horizon=sim.Horizon(1.0, 2, 1e-3)),
        0.05, box=b.box, seed=0)
    assert not res.lingering
    assert res.stats["starts"] == 50


def test_probe_requires_positive_window():
    b = example_bundle("exprj")
    kc = kc_of(b)
    with pytest.raises(geo.PreconditionError):
        sim.probe_contractivity(b.system, kc, sim.FalsifyBudget(starts=4), 0.0,
                                box=b.box, seed=0)


def test_numerical_failure_records_last_valid():
    # x' = exp(x1) blows up in finite time; the arc ends with the cause
    C = geo.SetDescription(1, geo.Leaf(fl.ScalarField(1, lambda x: -1.0,
                                                      grad=lambda x: np.zeros(1))))
    D = geo.SetDescription(1, geo.Leaf(fl.ScalarField(1, lambda x: 1.0,
                                                      grad=lambda x: np.zeros(1))))
    F = fl.SetValuedMap(1, 0, lambda x, lam: np.array(
        [math.exp(x[0]) if x[0] < 700 else math.inf]))
    G = fl.SetValuedMap(1, 0, lambda x, lam: x.copy())
    H = mo.HybridSystem(1, C, F, D, G, name="blowup")
    arc = sim.solve(H, [1.0], sim.SelectionPolicy(), sim.Horizon(5.0, 0, 1e-2))
    assert arc.termination == sim.NUMERICAL_FAILURE
    assert all(np.all(np.isfinite(x)) for _, _, x in arc.samples())


def test_constant_rule_validates_range():
    with pytest.raises(ValueError):
        sim.Constant((1.5,))


def test_constrained_equilibrium_constant_arc():
    # exp1's corner (1, 0) has F = (0, 0): the solution is constant and the
    # run ends only at the horizon
    b = example_bundle("exp1")
    arc = sim.solve(b.system, [1.0, 0.0], sim.SelectionPolicy(),
                    sim.Horizon(0.5, 2, 1e-2), kc=kc_of(b))
    assert arc.termination == sim.HORIZON_REACHED
    for _, _, x in arc.samples():
        assert np.allclose(x, [1.0, 0.0])


@pytest.mark.parametrize("name,horizon", [("thermostat", sim.Horizon(2.0, 6, 5e-3)),
                                          ("expcount", sim.Horizon(1.5, 2, 5e-3)),
                                          ("expillu", sim.Horizon(1.0, 2, 1e-3))])
def test_stop_flag_marks_exactly_the_arcs_that_leave_k(name, horizon):
    # falsify_invariance reads the flag instead of rescanning each arc
    b = example_bundle(name)
    kc = kc_of(b)
    pool = sim.default_policy_pool()
    kinds = set()
    for s_idx, x0 in enumerate(sim._start_points(kc, b.box, 24, 0)):
        p_idx = s_idx % len(pool)
        arc = sim.solve(b.system, x0, pool[p_idx], horizon, kc=kc, seed=(0, s_idx, p_idx),
                        stop_when=lambda y: kc.K.classify(y, mo.EXIT_TOL)
                        == geo.Membership.OUTSIDE)
        kind = mo.scenario_classify(arc, kc.K).kind
        assert ("stopped-by-predicate" in arc.flags) == (kind != mo.STAYS_IN_K)
        kinds.add(kind)
    assert (len(kinds) > 1) == (name != "thermostat")


@pytest.mark.parametrize("starts", [0, -3])
def test_falsify_budget_needs_a_start(starts):
    with pytest.raises(geo.PreconditionError):
        sim.FalsifyBudget(starts=starts)
