"""Acceptance criteria: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
status lines.
"""

import json
import math
import time

import numpy as np
import pytest

from hibarrier import certificates as cert
from hibarrier import fields as fl
from hibarrier import geometry as geo
from hibarrier import model as mo
from hibarrier import simulate as sim
from hibarrier.catalog import example_bundle, example_config
from hibarrier.cli import main as cli_main


def kc_of(bundle):
    return mo.build_k_complex(bundle.system, bundle.barrier)


def cfg_for(bundle, **kw):
    kw.setdefault("samples", 32)
    kw.setdefault("seed", 0)
    return cert.CheckConfig(box=tuple(tuple(r) for r in bundle.box.tolist()), **kw)


def report(k, text):
    print(f"\nACCEPTANCE {k}: PASS — {text}")


def test_acceptance_1_thermostat(tmp_path):
    t0 = time.perf_counter()
    b = example_bundle("thermostat")
    kc = mo.build_k_complex(b.system, b.barrier)

    cfg_path = tmp_path / "thermostat.json"
    cfg_path.write_text(json.dumps(example_config("thermostat")))
    rep = tmp_path / "rep.json"
    code = cli_main(["check", str(cfg_path), "--theorem", "thm1",
                     "--theorem", "invariance", "--samples", "24", "--seed", "0",
                     "--report", str(rep)])
    assert code == 0
    doc = json.loads(rep.read_text())
    assert all(c["status"] == "no_violation_found" for c in doc["checks"])

    v = cert.check_thm1(b.system, kc_of(b), cfg_for(b, samples=24))
    z_o, z_delta = 0.0, 2.0
    flow1 = [e for e in v.evaluations if e.condition == "thm1:flow:B1"]
    flow2 = [e for e in v.evaluations if e.condition == "thm1:flow:B2"]
    assert flow1 and flow2
    assert max(abs(e.value - (z_o - e.x[1])) for e in flow1) <= 1e-9
    assert max(abs(e.value - (e.x[1] - z_o - z_delta)) for e in flow2) <= 1e-9
    assert all(e.value <= 1e-9 for e in flow1 + flow2)

    res = sim.falsify_invariance(
        b.system, kc, sim.FalsifyBudget(starts=100, horizon=sim.Horizon(2.0, 6, 5e-3)),
        box=b.box, seed=0)
    assert not res.found and res.stats["tasks_run"] == 100

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f} s"
    report(1, f"thermostat thm1+invariance clean, band margins exact, "
              f"100-start falsifier empty in {elapsed:.1f} s")


def test_acceptance_2_bouncing_ball():
    b = example_bundle("bouncing-ball")
    lam = 0.5

    v = cert.check_thm1(b.system, kc_of(b), cfg_for(b, samples=1100))
    flows = [e for e in v.evaluations if e.condition.startswith("thm1:flow")]
    assert len(flows) >= 1000
    assert max(abs(e.value) for e in flows) <= 1e-12

    jumps = [e for e in v.evaluations if e.condition == "thm1:jump:barrier"]
    assert jumps
    for e in jumps:  # B(G(x)) <= -(1 - lam^2) x2^2
        assert e.value <= -(1.0 - lam * lam) * e.x[1] ** 2 + 1e-9
    assert v.status == cert.NO_VIOLATION

    v3 = cert.check_invariance_completion(b.system, kc_of(b),
                                          cfg_for(b, samples=16), mode="prop3")
    assert v3.status == cert.NO_VIOLATION

    vc = cert.check_contractive_c1(b.system, kc_of(b), cfg_for(b, samples=16))
    assert vc.status == cert.VIOLATED  # flow value identically 0 fails strictness

    kc = mo.build_k_complex(b.system, b.barrier)
    probe = sim.probe_contractivity(
        b.system, kc, sim.FalsifyBudget(starts=12, horizon=sim.Horizon(1.0, 2, 1e-3)),
        0.05, box=b.box, seed=0)
    assert probe.lingering

    report(2, f"bouncing ball: {len(flows)} flow values at 0 within 1e-12, "
              f"jump margin (1-lam^2)x2^2 held, prop3 passes, contractivity "
              f"Violated, probe lingers")


def test_acceptance_3_expillu():
    b = example_bundle("expillu")
    kc = mo.build_k_complex(b.system, b.barrier)

    res = sim.falsify_invariance(
        b.system, kc, sim.FalsifyBudget(starts=50, horizon=sim.Horizon(1.0, 2, 1e-4)),
        box=b.box, seed=0)
    assert res.found and res.start_index < 50
    t_exit, x_exit = res.scenario.t, res.scenario.x
    assert abs(x_exit[1] - t_exit ** 2 / 4.0) <= 1e-4
    assert abs((x_exit[0] - res.start[0]) - t_exit) <= 1e-4

    v = cert.check_thm1(b.system, kc_of(b), cfg_for(b, samples=24))
    assert v.status == cert.VIOLATED
    for w in v.witnesses:
        assert abs(w.value - math.sqrt(w.x[1])) <= 1e-6

    report(3, f"expillu: escape found at start #{res.start_index}, exit matches "
              f"(t, t^2/4) to {abs(x_exit[1] - t_exit**2/4):.1e}, thm1 witnesses "
              f"carry value sqrt(x2)")


def test_acceptance_4_expcount():
    b = example_bundle("expcount")
    rho = cert.UniquenessFunction("linear", k=1.0)

    va = cert.check_thm_boundary(b.system, kc_of(b), cfg_for(b, samples=20),
                                 rho, option="a")
    assert va.status == cert.VIOLATED
    ws = [w for w in va.witnesses if w.condition == "boundary:a:flow:B1"]
    assert ws
    for w in ws:
        assert w.value == pytest.approx(2.0 * w.x[0] ** 2, rel=1e-4, abs=1e-8)
    assert any(0.0 < w.x[0] <= 0.1 for w in ws)

    vb = cert.check_thm_boundary(b.system, kc_of(b), cfg_for(b, samples=20),
                                 rho, option="b")
    assert vb.status == cert.VIOLATED

    vc = cert.check_thm_boundary(b.system, kc_of(b), cfg_for(b, samples=20),
                                 rho, option="c")
    assert vc.status == cert.INCONCLUSIVE
    assert any("not convex" in n for n in vc.notes)

    kc = mo.build_k_complex(b.system, b.barrier)
    res = sim.falsify_invariance(
        b.system, kc, sim.FalsifyBudget(starts=24, horizon=sim.Horizon(1.5, 2, 5e-3)),
        box=b.box, seed=0)
    assert res.found
    assert res.scenario.x[1] == pytest.approx(0.0, abs=1e-9)  # escape along (t, 0)

    # sufficiency-not-necessity: the modified flow set keeps a-c failing while
    # no behavioral counterexample exists
    bf = example_bundle("expcount-fixed")
    kcf = mo.build_k_complex(bf.system, bf.barrier)
    resf = sim.falsify_invariance(
        bf.system, kcf, sim.FalsifyBudget(starts=24, horizon=sim.Horizon(1.5, 2, 5e-3)),
        box=bf.box, seed=0)
    assert not resf.found
    for option, want in (("a", cert.VIOLATED), ("b", cert.VIOLATED),
                         ("c", cert.INCONCLUSIVE)):
        got = cert.check_thm_boundary(bf.system, kc_of(bf),
                                      cfg_for(bf, samples=20), rho, option=option)
        assert got.status == want, option

    report(4, "expcount: options a/b/c fail as worked (a-witness value 2*x1^2, "
              "x1 in (0, 0.1]), escape along (t, 0) found; expcount-fixed keeps "
              "a-c failing with no escape")


def test_acceptance_5_exprj():
    b = example_bundle("exprj")

    vc = cert.check_contractive_c1(b.system, kc_of(b), cfg_for(b, samples=24))
    assert vc.status == cert.NO_VIOLATION
    flow1 = [e for e in vc.evaluations if e.condition == "contract:flow:B1"]
    assert flow1
    min_sq = min((e.x[1] + 1.0) ** 2 for e in flow1)
    for e in flow1:
        assert e.value <= -4.0 * min_sq + 1e-6
        assert e.value == pytest.approx(-4.0 * (e.x[1] + 1.0) ** 2, abs=1e-9)
    jumps = [e for e in vc.evaluations if e.condition == "contract:jump:barrier"]
    assert jumps
    for e in jumps:
        g = np.array(e.eta)
        b1 = g[0] ** 2 + (g[1] + 1.0) ** 2 - 4.0
        b2 = -g[1]
        assert abs(b1 - (e.x[0] ** 2 / 3.0 - 7.0 / 4.0)) <= 1e-9
        assert abs(b2 - (-0.5)) <= 1e-9

    vcc = cert.check_contractivity_completion(b.system, kc_of(b),
                                              cfg_for(b, samples=24))
    assert vcc.status == cert.NO_VIOLATION

    kc = mo.build_k_complex(b.system, b.barrier)
    probe = sim.probe_contractivity(
        b.system, kc, sim.FalsifyBudget(starts=50, horizon=sim.Horizon(1.0, 2, 1e-3)),
        0.05, box=b.box, seed=0)
    assert not probe.lingering and probe.stats["starts"] == 50

    report(5, "exprj: contract-c1 margins -4(x2+1)^2, jump values "
              "(x1^2/3 - 7/4, -1/2) to 1e-9, completion clean, immediate entry "
              "on 50 boundary starts")


def test_acceptance_6_expcsets():
    b = example_bundle("expCsets")
    cfg = cfg_for(b, samples=240, scheme=fl.Vertices())

    vm = cert.check_cset(b.system, kc_of(b), cfg, direction="minkowski")
    assert vm.status == cert.NO_VIOLATION
    rates = [e for e in vm.evaluations if e.condition == "cset:mink:flow"]
    pts = {tuple(np.round(e.x, 12)) for e in rates}
    assert len(pts) >= 200
    assert all(e.value < 0 for e in rates)

    vb = cert.check_cset(b.system, kc_of(b), cfg_for(b, samples=24),
                         direction="barrier")
    assert vb.status == cert.NO_VIOLATION

    report(6, f"expCsets: both C-set directions clean; Minkowski rates strictly "
              f"negative on {len(pts)} boundary samples "
              f"(worst {max(e.value for e in rates):.3f})")


def test_acceptance_7_property_suites():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240808)
    tol = 1e-3

    # --- cone oracle equivalence on 1000 random polyhedral cases
    def random_polyhedron(dim):
        m = int(rng.integers(2, 5))
        leaves = []
        for _ in range(m):
            g = rng.normal(size=dim)
            g /= np.linalg.norm(g)
            bnd = float(rng.uniform(0.2, 1.0))
            leaves.append(geo.Leaf(fl.ScalarField(
                dim, (lambda x, _g=g, _b=bnd: float(_g @ x) - _b),
                grad=(lambda x, _g=g: _g.copy()))))
        return geo.SetDescription(dim, geo.Intersection(tuple(leaves)))

    agree = total = 0
    while total < 1000:
        dim = int(rng.integers(2, 4))
        S = random_polyhedron(dim)
        try:
            x = geo.projection(S, rng.normal(size=dim) * 2.0, starts=4).y
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
            continue
        numeric = geo.contingent_min_ratio(S, x, v) <= tol
        total += 1
        if numeric == cone.contains(v):
            agree += 1
    assert agree / total >= 0.99

    # --- Minkowski homogeneity within 1e-6
    ball = geo.SetDescription(2, geo.Leaf(fl.ScalarField(
        2, lambda x: float(x @ x) - 1.0, grad=lambda x: 2.0 * x)))
    for _ in range(20):
        half = rng.uniform(0.5, 2.0, size=2)
        leaves = []
        for i, sgn in ((0, 1), (0, -1), (1, 1), (1, -1)):
            leaves.append(geo.Leaf(fl.ScalarField(
                2, (lambda x, _i=i, _s=sgn, _h=half: _s * float(x[_i]) - _h[_i]))))
        S = geo.SetDescription(2, geo.Intersection(tuple(leaves)))
        x = rng.uniform(-0.5, 0.5, size=2)
        if np.linalg.norm(x) < 1e-3:
            continue
        for target in (ball, S):
            base = geo.minkowski(target, x)
            for alpha in (0.5, 2.0, 10.0):
                assert abs(geo.minkowski(target, alpha * x) - alpha * base) \
                    <= 1e-6 * (1 + alpha)

    # --- Clarke support vs gradient on smooth fields, c <= 10
    radius = 1e-4
    for _ in range(30):
        coeffs = {(i, j): rng.uniform(-0.5, 0.5)
                  for i in range(4) for j in range(4) if i + j <= 3}

        def f(x, c=coeffs):
            return sum(v * x[0] ** i * x[1] ** j for (i, j), v in c.items())

        def grad(x, c=coeffs):
            gx = sum(v * i * x[0] ** (i - 1) * x[1] ** j
                     for (i, j), v in c.items() if i > 0)
            gy = sum(v * j * x[0] ** i * x[1] ** (j - 1)
                     for (i, j), v in c.items() if j > 0)
            return np.array([gx, gy])

        field = fl.ScalarField(2, f, tag=fl.LIPSCHITZ)
        x = rng.uniform(-1, 1, size=2)
        v = rng.normal(size=2)
        v /= np.linalg.norm(v)
        s = fl.clarke_support(field, x, v, radius=radius, seed=31)
        assert abs(s - float(grad(x) @ v)) <= 10 * radius

    # --- integrator order-4 convergence
    C = geo.SetDescription(2, geo.Leaf(fl.ScalarField(2, lambda x: -1.0,
                                                      grad=lambda x: np.zeros(2))))
    D = geo.SetDescription(2, geo.Leaf(fl.ScalarField(2, lambda x: 1.0,
                                                      grad=lambda x: np.zeros(2))))
    H = mo.HybridSystem(2, C, fl.SetValuedMap(2, 0, lambda x, lam: -x), D,
                        fl.SetValuedMap(2, 0, lambda x, lam: x.copy()), name="decay")
    errs = []
    for h in (1e-2, 5e-3, 2.5e-3):
        arc = sim.solve(H, [1.0, 0.0], sim.SelectionPolicy(), sim.Horizon(1.0, 0, h))
        errs.append(abs(arc.end[2][0] - math.exp(-1.0)))
    ratios = [a / b for a, b in zip(errs, errs[1:])]
    assert all(8.0 <= r <= 32.0 for r in ratios)

    # --- seed determinism: a repeated run is byte-exact; each run builds its
    # own KComplex, so no cached point pool is shared between runs
    b = example_bundle("thermostat")
    budget = sim.FalsifyBudget(starts=20, horizon=sim.Horizon(1.0, 4, 5e-3))
    texts = []
    for _ in range(2):
        kc = mo.build_k_complex(b.system, b.barrier)
        res = sim.falsify_invariance(b.system, kc, budget, box=b.box, seed=9)
        texts.append(json.dumps({"found": res.found, "stats": res.stats},
                                sort_keys=True))
    assert texts[0] == texts[1]
    verdicts = [json.dumps(cert.check_thm1(b.system, kc_of(b),
                                           cfg_for(b, samples=12, seed=9)).to_dict(),
                           sort_keys=True)
                for _ in range(2)]
    assert verdicts[0] == verdicts[1]

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"property suite took {elapsed:.1f} s"
    report(7, f"cone oracle agreement {agree}/{total}, Minkowski homogeneity, "
              f"Clarke c<=10, RK4 ratios {[float(round(r, 1)) for r in ratios]}, "
              f"repeat determinism — in {elapsed:.1f} s")
