import json
import math

import numpy as np
import pytest

from hibarrier import certificates as cert
from hibarrier import fields as fl
from hibarrier import geometry as geo
from hibarrier import model as mo
from hibarrier.catalog import example_bundle

LINEAR1 = cert.UniquenessFunction("linear", k=1.0)


def kc_of(bundle):
    return mo.build_k_complex(bundle.system, bundle.barrier)


def cfg_for(bundle, samples=24, seed=0, **kw):
    return cert.CheckConfig(box=tuple(tuple(r) for r in bundle.box.tolist()),
                            samples=samples, seed=seed, **kw)


def full_plane(n=2):
    return geo.SetDescription(n, geo.Leaf(fl.ScalarField(
        n, lambda x: -1.0, grad=lambda x: np.zeros(n))))


def empty_plane(n=2):
    return geo.SetDescription(n, geo.Leaf(fl.ScalarField(
        n, lambda x: 1.0, grad=lambda x: np.zeros(n))))


def decay_ball_system():
    """x' = -x on C = R^2, D empty; K the unit ball via B = |x|^2 - 1."""
    F = fl.SetValuedMap(2, 0, lambda x, lam: -x)
    G = fl.SetValuedMap(2, 0, lambda x, lam: x.copy())
    H = mo.HybridSystem(2, full_plane(), F, empty_plane(), G, name="decay-ball")
    B = mo.BarrierCandidate((fl.ScalarField(
        2, lambda x: float(x @ x) - 1.0, grad=lambda x: 2.0 * x, name="ball"),))
    return H, B


DECAY_CFG = cert.CheckConfig(box=((-2.0, 2.0), (-2.0, 2.0)), samples=24, seed=0)


# ---------------------------------------------------------------------------
# banded flow + jump conditions (check_thm1)


def test_thm1_thermostat_margins():
    b = example_bundle("thermostat")
    v = cert.check_thm1(b.system, kc_of(b), cfg_for(b))
    assert v.status == cert.NO_VIOLATION and not v.vacuous
    z_o, z_delta = 0.0, 2.0
    flow1 = [e for e in v.evaluations if e.condition == "thm1:flow:B1"]
    flow2 = [e for e in v.evaluations if e.condition == "thm1:flow:B2"]
    assert flow1 and flow2
    for e in flow1:  # on the M1 band the margin equals z_o - z <= 0
        assert e.value == pytest.approx(z_o - e.x[1], abs=1e-9)
        assert e.value <= 0
    for e in flow2:
        assert e.value == pytest.approx(e.x[1] - z_o - z_delta, abs=1e-9)
        assert e.value <= 0


def test_thm1_bouncing_flow_identically_zero():
    b = example_bundle("bouncing-ball")
    v = cert.check_thm1(b.system, kc_of(b), cfg_for(b, samples=32))
    assert v.status == cert.NO_VIOLATION
    flows = [e for e in v.evaluations if e.condition.startswith("thm1:flow")]
    assert flows
    assert max(abs(e.value) for e in flows) <= 1e-12


def test_thm1_expillu_violated_with_sqrt_witness():
    b = example_bundle("expillu")
    v = cert.check_thm1(b.system, kc_of(b), cfg_for(b))
    assert v.status == cert.VIOLATED
    for w in v.witnesses:
        assert w.condition == "thm1:flow:B1"
        assert w.x[1] > 0
        assert w.value == pytest.approx(math.sqrt(w.x[1]), abs=1e-6)


def test_thm1_exp1_passes():
    b = example_bundle("exp1")
    v = cert.check_thm1(b.system, kc_of(b), cfg_for(b))
    assert v.status == cert.NO_VIOLATION and not v.vacuous


def test_thm1_requires_c1():
    b = example_bundle("thermostat")
    B = mo.BarrierCandidate((fl.ScalarField(2, lambda x: float(x[1]) - 1.5,
                                            tag=fl.LIPSCHITZ),))
    with pytest.raises(geo.PreconditionError):
        cert.check_thm1(b.system, mo.build_k_complex(b.system, B), cfg_for(b))


# ---------------------------------------------------------------------------
# boundary-only flow condition with uniqueness functions (check_thm_boundary)


def test_boundary_expcount_option_a():
    b = example_bundle("expcount")
    v = cert.check_thm_boundary(b.system, kc_of(b), cfg_for(b, samples=20),
                                LINEAR1, option="a")
    assert v.status == cert.VIOLATED
    ws = [w for w in v.witnesses if w.condition == "boundary:a:flow:B1"]
    assert ws
    for w in ws:
        # the worked gradient values: <grad B, F> = 2 x1^2 on {x2 = -(2/3)x1^3}
        assert w.x[0] > 0
        assert w.value == pytest.approx(2.0 * w.x[0] ** 2, rel=1e-4, abs=1e-8)
    assert any(w.x[0] <= 0.1 for w in ws)


def test_boundary_expcount_option_b():
    b = example_bundle("expcount")
    v = cert.check_thm_boundary(b.system, kc_of(b), cfg_for(b, samples=20),
                                LINEAR1, option="b")
    assert v.status == cert.VIOLATED
    assert any(w.condition == "boundary:b:eqraj2" for w in v.witnesses)


def test_boundary_expcount_option_c_nonconvex():
    b = example_bundle("expcount")
    v = cert.check_thm_boundary(b.system, kc_of(b), cfg_for(b, samples=20),
                                LINEAR1, option="c")
    assert v.status == cert.INCONCLUSIVE
    assert any("not convex" in n for n in v.notes)


def test_boundary_linear_decay_passes():
    # x' = -x is globally Lipschitz with k = 1; every boundary-check leg holds
    H, B = decay_ball_system()
    v = cert.check_thm_boundary(H, mo.build_k_complex(H, B), DECAY_CFG, LINEAR1, option="a")
    assert v.status == cert.NO_VIOLATION
    eq9 = [e for e in v.evaluations if e.condition == "boundary:eq9:B1"]
    assert eq9
    for e in eq9:  # <2x, -x> = -2|x|^2 = -2 on the unit circle
        assert e.value == pytest.approx(-2.0, abs=1e-6)
    lip = [e for e in v.evaluations if e.condition == "boundary:lipschitz-estimate"]
    assert lip
    for e in lip:  # residual |x-y|^2 meets the k=1 bound |x-y|*rho(|x-y|)
        assert e.value <= e.bound


def test_boundary_rejects_bad_option():
    H, B = decay_ball_system()
    with pytest.raises(geo.PreconditionError):
        cert.check_thm_boundary(H, mo.build_k_complex(H, B), DECAY_CFG, LINEAR1, option="z")


def test_cone_transversality_once_per_point(monkeypatch):
    # the T_C filter and option b compute the linearized cone once per point,
    # not once per direction: one transversality_check without a margin (the
    # transversality legs pass one) per point
    calls = []
    real = geo.transversality_check

    def counted(grads, **kw):
        if not kw:
            calls.append(len(grads))
        return real(grads, **kw)

    monkeypatch.setattr(geo, "transversality_check", counted)
    S = geo.SetDescription(2, geo.Leaf(fl.ScalarField(
        2, lambda x: float(x[1]), grad=lambda x: np.array([0.0, 1.0]))))  # x2 <= 0
    etas = [np.array([1.0, t]) for t in (-1.0, -0.5, 0.0, 0.5, 1.0)]
    assert len(fl.filter_by_cone(etas, S, [0.0, 0.0])) == 3
    assert calls == [1]

    # x' = -x + p1 (-x2, x1) around the unit ball: five directions per point
    H, B = decay_ball_system()
    H = mo.HybridSystem(2, H.C, fl.SetValuedMap(
        2, 1, lambda x, lam: -x + lam[0] * np.array([-x[1], x[0]])), H.D, H.G)
    pts = [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([-0.6, 0.8])]
    monkeypatch.setattr(cert.regions, "region_b", lambda *a, **kw: [p.copy() for p in pts])
    calls.clear()
    v = cert.check_thm_boundary(H, mo.build_k_complex(H, B), DECAY_CFG, LINEAR1, option="b")
    ratios = [e for e in v.evaluations if e.condition == "boundary:b:eqraj2"]
    assert len(ratios) == 5 * len(pts)
    assert all(e.value == 0.0 for e in ratios)  # -x + p1 (-x2, x1) points inward
    assert calls == [1] * len(pts)


def test_option_b_ratios_in_closed_form_on_expcount():
    # K cap C is a union on expcount; at each option-b point one term holds
    # x, with the leaf x1^2 - abs(x2) at 0 away from its kink, so every
    # ratio is the linearized cone's distance. The sweep it replaces gives
    # the same values within 2e-6.
    b = example_bundle("expcount")
    kc = kc_of(b)
    v = cert.check_thm_boundary(b.system, kc, cfg_for(b, samples=20), LINEAR1, option="b")
    assert v.status == cert.VIOLATED
    assert "cone:linearized" in v.flags and "cone:sweep" not in v.flags
    ratios = [e for e in v.evaluations if e.condition == "boundary:b:eqraj2"]
    assert len(ratios) == 20 and any(e.value > geo.CONE_TOL for e in ratios)
    for e in ratios:
        swept = geo._min_ratio(kc.KC, np.array(e.x), np.array(e.eta), 0, 0.0, None)
        assert abs(e.value - min(swept, 1e6)) <= 2e-6


# ---------------------------------------------------------------------------
# external-cone flow condition (check_thm_external)


def test_external_exp1nwbis_passes():
    b = example_bundle("exp1nwbis")
    v = cert.check_thm_external(b.system, kc_of(b), cfg_for(b, samples=16))
    assert v.status == cert.NO_VIOLATION and not v.vacuous


def test_external_expillu_violated():
    b = example_bundle("expillu")
    v = cert.check_thm_external(b.system, kc_of(b), cfg_for(b, samples=16))
    assert v.status == cert.VIOLATED
    for w in v.witnesses:
        # the distance to K grows at rate sqrt(x2) along the flow
        assert w.value > 0


def test_external_trivial_barrier_vacuous():
    b = example_bundle("expillu")
    B = mo.BarrierCandidate((fl.ScalarField(2, lambda x: -1.0,
                                            grad=lambda x: np.zeros(2)),))
    v = cert.check_thm_external(b.system, mo.build_k_complex(b.system, B), cfg_for(b, samples=8))
    assert v.status == cert.NO_VIOLATION
    assert v.vacuous and "vacuous" in v.flags


# ---------------------------------------------------------------------------
# Clarke-gradient condition for locally Lipschitz candidates (check_thm_lipschitz)


def test_lipschitz_thermostat_scalarized():
    b = example_bundle("thermostat")
    v = cert.check_thm_lipschitz(b.system, kc_of(b), cfg_for(b))
    assert v.status == cert.NO_VIOLATION


def test_lipschitz_agrees_with_thm1_on_smooth_candidate():
    H, B = decay_ball_system()
    v_smooth = cert.check_thm1(H, mo.build_k_complex(H, B), DECAY_CFG)
    v_clarke = cert.check_thm_lipschitz(H, mo.build_k_complex(H, B), DECAY_CFG)
    assert v_smooth.status == v_clarke.status == cert.NO_VIOLATION


def test_lipschitz_abs_barrier_violated_for_outward_flow():
    # B = |x1| - 1 with rightward constant flow: support = +1 on the right band
    F = fl.SetValuedMap(2, 0, lambda x, lam: np.array([1.0, 0.0]))
    G = fl.SetValuedMap(2, 0, lambda x, lam: x.copy())
    H = mo.HybridSystem(2, full_plane(), F, empty_plane(), G, name="slab")
    B = mo.BarrierCandidate((fl.ScalarField(2, lambda x: abs(float(x[0])) - 1.0,
                                            tag=fl.LIPSCHITZ, name="|x1|-1"),))
    v = cert.check_thm_lipschitz(H, mo.build_k_complex(H, B), DECAY_CFG)
    assert v.status == cert.VIOLATED
    assert any(w.value == pytest.approx(1.0, abs=1e-3) for w in v.witnesses)


# ---------------------------------------------------------------------------
# relaxed flow condition (check_relaxed)


def radial_growth_system():
    """x' = x/2 on C = R^2: <grad B, F> = B(x) on the band of B = log|x|^2."""
    F = fl.SetValuedMap(2, 0, lambda x, lam: 0.5 * x)
    G = fl.SetValuedMap(2, 0, lambda x, lam: x.copy())
    H = mo.HybridSystem(2, full_plane(), F, empty_plane(), G, name="radial")
    # B = log(|x|^2): <grad B, x/2> = <2x/|x|^2, x/2> = 1... use B = |x|^2 - 1:
    # <2x, x/2> = |x|^2 = B + 1; instead take B with equality <grad B, F> = B:
    # B = |x|^2 - 1 under x' = x*(B/(B+1))/... keep it simple and synthetic:
    return H


def equality_system():
    """1-D x' = x with B = x: <grad B, F> = x = B(x) everywhere."""
    C = geo.SetDescription(1, geo.Leaf(fl.ScalarField(1, lambda x: -1.0,
                                                      grad=lambda x: np.zeros(1))))
    D = geo.SetDescription(1, geo.Leaf(fl.ScalarField(1, lambda x: 1.0,
                                                      grad=lambda x: np.zeros(1))))
    F = fl.SetValuedMap(1, 0, lambda x, lam: x.copy())
    G = fl.SetValuedMap(1, 0, lambda x, lam: x.copy())
    H = mo.HybridSystem(1, C, F, D, G, name="equality")
    B = mo.BarrierCandidate((fl.ScalarField(1, lambda x: float(x[0]),
                                            grad=lambda x: np.ones(1), name="x"),))
    return H, B


def test_relaxed_equality_meets_linear_bound():
    H, B = equality_system()
    cfg = cert.CheckConfig(box=((-2.0, 2.0),), samples=16, seed=0)
    v = cert.check_relaxed(H, mo.build_k_complex(H, B), cfg,
                           cert.UniquenessFunction("linear", k=1.0))
    assert v.status == cert.NO_VIOLATION and not v.vacuous


def test_relaxed_equality_fails_halved_bound():
    H, B = equality_system()
    cfg = cert.CheckConfig(box=((-2.0, 2.0),), samples=16, seed=0)
    v = cert.check_relaxed(H, mo.build_k_complex(H, B), cfg,
                           cert.UniquenessFunction("linear", k=0.5))
    assert v.status == cert.VIOLATED
    for w in v.witnesses:
        assert w.x[0] > 0  # witnesses have B(x) > 0 on the band


def test_relaxed_thermostat_catalog_rhos():
    b = example_bundle("thermostat")
    for rho in (cert.UniquenessFunction("linear", k=1.0),
                cert.UniquenessFunction("osgood")):
        v = cert.check_relaxed(b.system, kc_of(b), cfg_for(b, samples=16), rho)
        assert v.status == cert.NO_VIOLATION, rho.label()


def test_osgood_values():
    rho = cert.UniquenessFunction("osgood")
    assert rho(0.0) == 0.0
    assert rho(-1.0) == 0.0
    w = 0.05
    assert rho(w) == pytest.approx(w * math.log(w))


# ---------------------------------------------------------------------------
# invariance completion: flow existence at the boundary (prop2/prop3 modes)


def test_invariance_thermostat_prop2():
    b = example_bundle("thermostat")
    v = cert.check_invariance_completion(b.system, kc_of(b), cfg_for(b),
                                         mode="prop2")
    assert v.status == cert.NO_VIOLATION and not v.vacuous
    assert "assumed-no-finite-escape" in v.flags


def test_invariance_bouncing_prop3():
    b = example_bundle("bouncing-ball")
    v = cert.check_invariance_completion(b.system, kc_of(b), cfg_for(b, samples=16),
                                         mode="prop3")
    assert v.status == cert.NO_VIOLATION


def test_invariance_detects_outward_flow():
    # flow pushes strictly out of C at (K cap dC) \ D: no nontrivial flow there
    C = geo.SetDescription(2, geo.Leaf(fl.ScalarField(
        2, lambda x: float(x[0]), grad=lambda x: np.array([1.0, 0.0]))))  # x1 <= 0
    D = empty_plane()
    F = fl.SetValuedMap(2, 0, lambda x, lam: np.array([1.0, 0.0]))  # outward
    G = fl.SetValuedMap(2, 0, lambda x, lam: x.copy())
    H = mo.HybridSystem(2, C, F, D, G, name="outward")
    B = mo.BarrierCandidate((fl.ScalarField(
        2, lambda x: float(x @ x) - 1.0, grad=lambda x: 2.0 * x),))
    cfg = cert.CheckConfig(box=((-2.0, 2.0), (-2.0, 2.0)), samples=16, seed=0)
    v = cert.check_invariance_completion(H, mo.build_k_complex(H, B), cfg, mode="prop2")
    assert v.status == cert.VIOLATED


# ---------------------------------------------------------------------------
# strict contractivity conditions, smooth candidates (check_contractive_c1)


def test_contractive_exprj_margins_and_jumps():
    b = example_bundle("exprj")
    v = cert.check_contractive_c1(b.system, kc_of(b), cfg_for(b))
    assert v.status == cert.NO_VIOLATION and not v.vacuous
    flow1 = [e for e in v.evaluations if e.condition == "contract:flow:B1"]
    assert flow1
    for e in flow1:  # <grad B1, F> = -4 (x2+1)^2 exactly
        assert e.value == pytest.approx(-4.0 * (e.x[1] + 1.0) ** 2, abs=1e-9)
    jumps = [e for e in v.evaluations if e.condition == "contract:jump:barrier"]
    assert jumps
    for e in jumps:  # B(G(x)) = (x1^2/3 - 7/4, -1/2)
        g = np.array(e.eta)
        b1 = g[0] ** 2 + (g[1] + 1.0) ** 2 - 4.0
        assert b1 == pytest.approx(e.x[0] ** 2 / 3.0 - 7.0 / 4.0, abs=1e-9)
        assert -g[1] == pytest.approx(-0.5, abs=1e-9)


def test_contractive_bouncing_violated_by_strictness():
    b = example_bundle("bouncing-ball")
    v = cert.check_contractive_c1(b.system, kc_of(b), cfg_for(b))
    assert v.status == cert.VIOLATED
    ws = [w for w in v.witnesses if w.condition.startswith("contract:flow")]
    assert ws
    for w in ws:  # the flow value is identically zero, failing strictness
        assert abs(w.value) <= 1e-9


# ---------------------------------------------------------------------------
# strict contractivity via Clarke support (check_contractive_lip)


def test_contractive_lip_decay_ball():
    H, B = decay_ball_system()
    bar = mo.BarrierCandidate((fl.ScalarField(
        2, lambda x: float(np.linalg.norm(x)) - 1.0, tag=fl.LIPSCHITZ, name="|x|-1"),))
    v = cert.check_contractive_lip(H, mo.build_k_complex(H, bar), DECAY_CFG)
    assert v.status == cert.NO_VIOLATION and not v.vacuous


def test_contractive_lip_bouncing_violated():
    b = example_bundle("bouncing-ball")
    v = cert.check_contractive_lip(b.system, kc_of(b), cfg_for(b, samples=16))
    assert v.status == cert.VIOLATED


def test_contractive_lip_vacuous_jump_leg():
    H, B = decay_ball_system()  # D empty
    v = cert.check_contractive_lip(H, mo.build_k_complex(H, B), DECAY_CFG)
    assert not any(e.condition.endswith("jump:barrier") for e in v.evaluations)


# ---------------------------------------------------------------------------
# contractivity completion


def test_contract_complete_exprj():
    b = example_bundle("exprj")
    v = cert.check_contractivity_completion(b.system, kc_of(b), cfg_for(b))
    assert v.status == cert.NO_VIOLATION
    evals = [e for e in v.evaluations if e.condition == "contract-complete:flow-in-tc"]
    assert evals  # the isolated point (0, 1) with F = (-2, -4) in T_C
    assert any(abs(e.x[0]) < 0.2 and abs(e.x[1] - 1.0) < 0.2 for e in evals)


def test_contract_complete_expcsets_exclusion_point():
    b = example_bundle("expCsets")
    v = cert.check_contractivity_completion(b.system, kc_of(b), cfg_for(b))
    assert v.status == cert.NO_VIOLATION
    evals = [e for e in v.evaluations if e.condition == "contract-complete:flow-in-tc"]
    assert evals
    # the target piece of (K cap dC) \ D is the excluded point (-1, -1);
    # band-approximate near-boundary candidates may appear alongside it
    assert any(np.hypot(e.x[0] + 1.0, e.x[1] + 1.0) < 1e-3 for e in evals)


def test_contract_complete_vacuous_when_region_empty():
    H, B = decay_ball_system()  # C = R^2: dC empty
    v = cert.check_contractivity_completion(H, mo.build_k_complex(H, B), DECAY_CFG)
    assert v.status == cert.NO_VIOLATION
    assert any("vacuous" in n for n in v.notes) or v.vacuous


# ---------------------------------------------------------------------------
# C-sets


def test_cset_expcsets_both_directions():
    b = example_bundle("expCsets")
    for direction in ("minkowski", "barrier"):
        v = cert.check_cset(b.system, kc_of(b), cfg_for(b, samples=20),
                            direction=direction)
        assert v.status == cert.NO_VIOLATION, direction
        assert not v.vacuous


def test_cset_unit_ball_rate_minus_one():
    H, B = decay_ball_system()
    v = cert.check_cset(H, mo.build_k_complex(H, B), DECAY_CFG, direction="minkowski")
    assert v.status == cert.NO_VIOLATION
    rates = [e.value for e in v.evaluations if e.condition == "cset:mink:flow"]
    assert rates
    for r in rates:  # d/dh |x - h x| at h=0 is -1 on the unit sphere
        assert r == pytest.approx(-1.0, abs=5e-3)


def test_cset_square_constant_flow_violated():
    F = fl.SetValuedMap(2, 0, lambda x, lam: np.array([1.0, 0.0]))
    G = fl.SetValuedMap(2, 0, lambda x, lam: x.copy())
    H = mo.HybridSystem(2, full_plane(), F, empty_plane(), G, name="square-drift")
    leaves = []
    for g in ([1, 0], [-1, 0], [0, 1], [0, -1]):
        gv = np.array(g, dtype=float)
        leaves.append(fl.ScalarField(2, (lambda x, _g=gv: float(_g @ x) - 1.0),
                                     grad=(lambda x, _g=gv: _g.copy())))
    B = mo.BarrierCandidate(tuple(leaves))
    v = cert.check_cset(H, mo.build_k_complex(H, B), DECAY_CFG, direction="minkowski")
    assert v.status == cert.VIOLATED


def test_cset_rejects_shifted_set():
    # 0 not in int(K): the C-set precondition spot-check reports Inconclusive
    F = fl.SetValuedMap(2, 0, lambda x, lam: -x)
    G = fl.SetValuedMap(2, 0, lambda x, lam: x.copy())
    H = mo.HybridSystem(2, full_plane(), F, empty_plane(), G, name="shifted")
    B = mo.BarrierCandidate((fl.ScalarField(
        2, lambda x: float((x - np.array([5.0, 0.0])) @ (x - np.array([5.0, 0.0]))) - 1.0,
        grad=lambda x: 2.0 * (x - np.array([5.0, 0.0]))),))
    v = cert.check_cset(H, mo.build_k_complex(H, B), DECAY_CFG, direction="minkowski")
    assert v.status == cert.INCONCLUSIVE


# ---------------------------------------------------------------------------
# cross-cutting verdict properties


def test_strictness_monotonicity_on_catalog():
    # strict conditions imply the non-strict ones: contract-c1 passing forces
    # thm1 to pass on the same seed and config
    for name in ("exprj", "thermostat", "bouncing-ball", "expillu"):
        b = example_bundle(name)
        cfg = cfg_for(b, samples=12, seed=3)
        strict = cert.check_contractive_c1(b.system, kc_of(b), cfg)
        if strict.status == cert.NO_VIOLATION:
            loose = cert.check_thm1(b.system, kc_of(b), cfg)
            assert loose.status == cert.NO_VIOLATION, name


def test_seed_determinism_bit_identical():
    b = example_bundle("thermostat")
    a = cert.check_thm1(b.system, kc_of(b), cfg_for(b, samples=12, seed=5))
    c = cert.check_thm1(b.system, kc_of(b), cfg_for(b, samples=12, seed=5))
    assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(c.to_dict(), sort_keys=True)


def test_vacuity_honesty():
    # B = -1 and empty D: no band, no jumps, flagged vacuous
    b = example_bundle("expillu")
    B = mo.BarrierCandidate((fl.ScalarField(2, lambda x: -1.0,
                                            grad=lambda x: np.zeros(2)),))
    v = cert.check_thm1(b.system, mo.build_k_complex(b.system, B), cfg_for(b, samples=8))
    assert v.status == cert.NO_VIOLATION
    assert v.vacuous and "vacuous" in v.flags
    assert v.samples_evaluated == 0


def test_scalar_vector_consistency_thermostat():
    b = example_bundle("thermostat")
    vec = cert.check_thm1(b.system, kc_of(b), cfg_for(b, samples=16))
    scal = cert.check_thm_lipschitz(b.system, kc_of(b), cfg_for(b, samples=16))
    assert vec.status == scal.status


def test_witness_validity_reevaluates():
    # every Violated witness re-checks as a violation standalone
    b = example_bundle("expillu")
    v = cert.check_thm1(b.system, kc_of(b), cfg_for(b, samples=16))
    assert v.status == cert.VIOLATED
    for w in v.witnesses:
        x = np.array(w.x)
        eta = np.array(w.eta)
        grad_b1 = fl.gradient(b.barrier.components[0], x)
        assert float(grad_b1 @ eta) == pytest.approx(w.value, rel=1e-12, abs=1e-12)
        assert w.value > w.bound


def test_verdict_echoes_config():
    b = example_bundle("thermostat")
    cfg = cfg_for(b, samples=9, seed=77)
    v = cert.check_thm1(b.system, kc_of(b), cfg)
    assert v.config["samples"] == 9
    assert v.config["seed"] == 77
    assert v.config["radius"] == cfg.radius


def test_config_invariants():
    with pytest.raises(geo.PreconditionError):
        cert.CheckConfig(box=((-1, 1),), radius=0.01, band=0.1)
    with pytest.raises(geo.PreconditionError):
        cert.CheckConfig(box=((-1, 1),), samples=0)


def test_uniqueness_function_parse():
    assert cert.UniquenessFunction.parse("osgood").kind == "osgood"
    assert cert.UniquenessFunction.parse("linear:2.5").k == 2.5
    with pytest.raises(geo.PreconditionError):
        cert.UniquenessFunction.parse("cubic")
    with pytest.raises(geo.PreconditionError):
        cert.UniquenessFunction("linear", k=0.0)


def test_relaxed_bound_binds_on_expillu():
    # sqrt(x2) > rho(x2) = x2 near the boundary: the relaxation does not save it
    b = example_bundle("expillu")
    v = cert.check_relaxed(b.system, kc_of(b), cfg_for(b, samples=16), LINEAR1)
    assert v.status == cert.VIOLATED
    for w in v.witnesses:
        x2 = w.x[1]
        assert w.value == pytest.approx(math.sqrt(x2) - x2, abs=1e-6)


def test_boundary_eq9_unfiltered_quantifier_exprj():
    # eq9 ranges over all of F(x), so exprj fails it on the bottom edge where
    # the flow points out of C (value 2 - x1 > 0); the set is still invariant,
    # which is exactly the sufficiency gap the option legs close elsewhere
    b = example_bundle("exprj")
    v = cert.check_thm_boundary(b.system, kc_of(b), cfg_for(b, samples=16),
                                LINEAR1, option="a")
    ws = [w for w in v.witnesses if w.condition == "boundary:eq9:B2"]
    assert ws
    for w in ws:
        assert w.value == pytest.approx(2.0 - w.x[0], abs=1e-9)
