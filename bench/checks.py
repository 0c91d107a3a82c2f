"""Output checks for the benchmark, computed apart from hibarrier.

Every check here uses hand-written formulas for the catalog systems in
`bench/systems/` and plain float arithmetic; nothing from `hibarrier` is
imported. A check returns a list of problems; an empty list means the report
passed.
"""

from __future__ import annotations

import math
import re

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)

# Cone h-sequence of the default CheckConfig (h0 = 1e-2, decay 0.5, 20 steps)
# cut at the C-set quotient floor 1e-4, as the cset checker uses it.
CSET_HS = [1e-2 * 0.5 ** i for i in range(20) if 1e-2 * 0.5 ** i >= 1e-4]

VALUE_TOL = 1e-9      # relative agreement of recomputed values
RATIO_SLACK = 1e-6    # slack on the 1-Lipschitz distance bounds
MINK_TOL = 1e-8       # Minkowski-rate agreement (bisection at rel_tol 1e-13)
EXIT_TOL = 1e-6       # the falsifier's default exit tolerance
PROBE_BAND = 1e-7     # the contractivity probe's boundary band
FEAS_TOL = 1e-9       # the samplers' feasibility tolerance on projected points


class System:
    """Flow map F(x, p), jump map G(x, p) (affine in the one optional
    parameter p in [0, 1]), barrier components B_i and their gradients."""

    def __init__(self, k, F, G, B, dB):
        self.k, self.F, self.G, self.B, self.dB = k, F, G, B, dB

    def bmax(self, x):
        return max(b(x) for b in self.B)


def _thermostat():
    z_o, z_delta, z_min, z_max = 0.0, 2.0, 0.5, 1.5
    return System(
        0,
        lambda x, p: (0.0, -x[1] + z_o + z_delta * x[0]),
        lambda x, p: (1.0 - x[0], x[1]),
        [lambda x: x[1] - z_max, lambda x: z_min - x[1]],
        [lambda x: (0.0, 1.0), lambda x: (0.0, -1.0)])


def _expcount():
    return System(
        0,
        lambda x, p: (1.0, 0.0),
        lambda x, p: (0.0, 0.0),
        [lambda x: x[1] + (2.0 / 3.0) * max(x[0], 0.0) ** 3],
        [lambda x: (2.0 * max(x[0], 0.0) ** 2, 1.0)])


SYSTEMS = {
    "exp1": System(
        1,
        lambda x, p: (-x[1] ** 2,
                      x[1] * x[0] - x[1] * ((2.0 + 2.0 * p) - (x[0] ** 2 + x[1] ** 2))),
        lambda x, p: (0.0, p * abs(x[0])),
        [lambda x: x[0] ** 2 + x[1] ** 2 - 1.0, lambda x: -x[1]],
        [lambda x: (2.0 * x[0], 2.0 * x[1]), lambda x: (0.0, -1.0)]),
    "thermostat": _thermostat(),
    "bouncing-ball": System(
        0,
        lambda x, p: (x[1], -1.0),
        lambda x, p: (0.0, -0.5 * x[1]),
        [lambda x: 2.0 * x[0] + (x[1] - 1.0) * (x[1] + 1.0)],
        [lambda x: (2.0, 2.0 * x[1])]),
    "exp1nwbis": System(
        1,
        lambda x, p: (-x[1] ** 2 * x[0],
                      -((x[0] ** 2 + x[1] ** 2) - p) * (2.0 - (x[0] ** 2 + x[1] ** 2))),
        lambda x, p: (0.0, p * abs(x[0])),
        [lambda x: x[1] * (x[0] ** 2 + x[1] ** 2 - 1.0)],
        [lambda x: (2.0 * x[0] * x[1], x[0] ** 2 + 3.0 * x[1] ** 2 - 1.0)]),
    "expillu": System(
        0,
        lambda x, p: (1.0, math.sqrt(abs(x[1]))),
        lambda x, p: (0.0, 0.0),
        [lambda x: x[1]],
        [lambda x: (0.0, 1.0)]),
    "expcount": _expcount(),
    "expcount-fixed": _expcount(),
    "exprj": System(
        0,
        lambda x, p: (-(x[1] + 1.0), -2.0 * (x[1] + 1.0) + x[0]),
        lambda x, p: (x[0] / SQRT3, 0.5),
        [lambda x: x[0] ** 2 + (x[1] + 1.0) ** 2 - 4.0, lambda x: -x[1]],
        [lambda x: (2.0 * x[0], 2.0 * (x[1] + 1.0)), lambda x: (0.0, -1.0)]),
    "expCsets": System(
        1,
        lambda x, p: (-(1.0 + p) * x[0] + x[1] / 2.0, -x[1] - x[0] / 2.0),
        lambda x, p: ((p / 2.0) * x[0], (p / 2.0) * -x[1]),
        [lambda x: x[0] ** 2 + x[1] ** 2 - 2.0, lambda x: -(x[1] + 1.0)],
        [lambda x: (2.0 * x[0], 2.0 * x[1]), lambda x: (0.0, -1.0)]),
}


# -- small vector helpers ------------------------------------------------------


def _dot(a, b):
    return sum(u * v for u, v in zip(a, b))


def _norm(a):
    return math.sqrt(_dot(a, a))


def _close(a, b, tol=VALUE_TOL):
    return abs(a - b) <= tol * (1.0 + abs(a) + abs(b))


def _in_image(fmap, k, x, eta, tol=VALUE_TOL):
    """eta lies on the image of p -> fmap(x, p) over [0, 1] (affine in p)."""
    a = fmap(x, 0.0)
    if k == 0:
        return all(_close(u, v, tol) for u, v in zip(eta, a))
    b = fmap(x, 1.0)
    d = [v - u for u, v in zip(a, b)]
    dd = _dot(d, d)
    t = 0.0 if dd == 0.0 else _dot([e - u for e, u in zip(eta, a)], d) / dd
    if not -1e-9 <= t <= 1.0 + 1e-9:
        return False
    return all(_close(e, u + t * v, tol) for e, u, v in zip(eta, a, d))


def _max_speed(sys_, x):
    """max |eta| over F(x); |F(x, p)| is convex in p, so the ends bound it."""
    ends = (0.0, 1.0) if sys_.k else (0.0,)
    return max(_norm(sys_.F(x, p)) for p in ends)


def gauge_expcsets(x):
    """Minkowski functional of K = {|x|^2 <= 2, x2 >= -1} in expCsets."""
    return max(_norm(x) / SQRT2, max(0.0, -x[1]))


# -- check reports ---------------------------------------------------------------

_FLOW = re.compile(r"^(?:thm1:flow|boundary:eq9|boundary:a:flow|contract:flow):B(\d+)$")


def check_evaluation(system, e):
    """Problems with one recorded evaluation of a `check` report."""
    s = SYSTEMS[system]
    cond, x, val, eta = e["condition"], tuple(e["x"]), e["value"], e["eta"]
    out = []

    def bad(what):
        out.append(f"{system} {cond} at x={list(x)}: {what}")

    m = _FLOW.match(cond)
    if m:
        i = int(m.group(1)) - 1
        if not _in_image(s.F, s.k, x, eta):
            bad(f"eta={eta} is not in F(x)")
        want = _dot(s.dB[i](x), eta)
        if not _close(val, want):
            bad(f"flow value {val!r} != grad B.eta = {want!r}")
    elif cond.endswith(":jump:barrier") or cond == "cset:barrier:jump":
        if not _in_image(s.G, s.k, x, eta):
            bad(f"g={eta} is not in G(x)")
        want = s.bmax(eta)
        if not _close(val, want):
            bad(f"jump value {val!r} != max B(g) = {want!r}")
    elif cond in ("boundary:b:eqraj2", "boundary:c:eqraj2"):
        if not 0.0 <= val <= _norm(eta) + RATIO_SLACK:
            bad(f"tangent-cone ratio {val!r} outside [0, |eta|={_norm(eta)!r}]")
    elif cond.endswith(":corner-empty"):
        if not 0.0 <= -val <= _norm(eta) + RATIO_SLACK:
            bad(f"corner ratio {-val!r} outside [0, |eta|={_norm(eta)!r}]")
    elif cond == "external:flow":
        if abs(val) > _norm(eta) + RATIO_SLACK:
            bad(f"external rate {val!r} outside [-|eta|, |eta|], |eta|={_norm(eta)!r}")
    elif cond.endswith(":flow-exists") or cond.endswith(":flow-in-tc") \
            or cond.endswith(":neighborhood"):
        top = _max_speed(s, x)
        if not 0.0 <= val <= top + RATIO_SLACK:
            bad(f"min tangent-cone ratio {val!r} outside [0, max|F(x)|={top!r}]")
    elif cond == "cset:mink:flow":
        if not _in_image(s.F, s.k, x, eta):
            bad(f"eta={eta} is not in F(x)")
        want = min((gauge_expcsets([a + h * b for a, b in zip(x, eta)]) - 1.0) / h
                   for h in CSET_HS)
        if abs(val - want) > MINK_TOL:
            bad(f"Minkowski rate {val!r} != {want!r} from the gauge")
        if not val < 0.0:
            bad(f"Minkowski rate {val!r} is not below 0")
    elif cond == "cset:mink:jump":
        if not _in_image(s.G, s.k, x, eta):
            bad(f"g={eta} is not in G(x)")
        want = gauge_expcsets(eta)
        if abs(val - want) > MINK_TOL:
            bad(f"Minkowski value {val!r} != {want!r} from the gauge")
    elif cond.startswith("cset:barrier:flow:B"):
        i = int(cond.rsplit("B", 1)[1]) - 1
        bx = s.B[i](x)
        want = min((s.B[i]([a + h * b for a, b in zip(x, eta)]) - bx) / h for h in CSET_HS)
        if not _close(val, want, 1e-7):
            bad(f"barrier quotient {val!r} != {want!r}")
    elif cond == "lipschitz:flow":  # its value is a closed form, checked below
        if not _in_image(s.F, s.k, x, eta):
            bad(f"eta={eta} is not in F(x)")

    out.extend(_closed_form(system, cond, x, val))
    return out


def _closed_form(system, cond, x, val):
    """The paper's worked values, recomputed from x alone."""
    x1, x2 = x
    want = None
    if system == "thermostat":
        # z_o = 0, z_delta = 2: B1 is checked on the x1 = 0 branch, B2 on x1 = 1;
        # the Clarke gradient of max(B1, B2) is that of B1 above x2 = 1, else B2's
        if cond == "thm1:flow:B1" or (cond == "lipschitz:flow" and x2 > 1.0):
            want = 0.0 - x2
        elif cond == "thm1:flow:B2" or (cond == "lipschitz:flow" and x2 < 1.0):
            want = x2 - 0.0 - 2.0
        tol = 1e-6 if cond == "lipschitz:flow" else VALUE_TOL
        if want is not None and not _close(val, want, tol):
            return [f"thermostat {cond} at x={list(x)}: {val!r} != {want!r}"]
        return []
    if system == "bouncing-ball":
        if cond == "thm1:flow:B1" and abs(val) > 1e-12:
            return [f"bouncing-ball flow value {val!r} at x={list(x)} is not 0"]
        # B(G(x)) = lam^2 x2^2 - 1 = B(x) - (1 - lam^2) x2^2 on D, and B(x) <= 0
        # up to the feasibility tolerance of the projected jump samples
        if cond == "thm1:jump:barrier" and val > -(1.0 - 0.25) * x2 * x2 + FEAS_TOL:
            return [f"bouncing-ball jump value {val!r} at x={list(x)} exceeds "
                    f"-(1-lam^2)x2^2 = {-(0.75) * x2 * x2!r}"]
        return []
    if system == "expcount" and cond == "boundary:a:flow:B1":
        want = 2.0 * x1 * x1
    elif system == "exprj" and cond == "contract:flow:B1":
        want = -4.0 * (x2 + 1.0) ** 2
    elif system == "exprj" and cond == "contract:jump:barrier":
        want = max(x1 * x1 / 3.0 - 7.0 / 4.0, -0.5)
    if want is not None and not _close(val, want):
        return [f"{system} {cond} at x={list(x)}: {val!r} != closed form {want!r}"]
    return []


def check_report(op, rc, report):
    """Problems with one `check` operation: exit code, statuses, evaluations."""
    out = []
    statuses = [c["status"] for c in report["checks"]]
    if statuses != list(op.expect):
        out.append(f"{op.label}: statuses {statuses} != expected {list(op.expect)}")
    want_rc = 1 if "violated" in statuses else 2 if "inconclusive" in statuses else 0
    if rc != want_rc:
        out.append(f"{op.label}: exit code {rc} != {want_rc} for statuses {statuses}")
    for c in report["checks"]:
        if c["samples_evaluated"] != len(c["evaluations"]):
            out.append(f"{op.label}: samples_evaluated {c['samples_evaluated']} != "
                       f"{len(c['evaluations'])} evaluations")
        for e in c["evaluations"]:
            out.extend(check_evaluation(op.system, e))
        want_w = sorted(map(_key, (e for e in c["evaluations"] if e["value"] > e["bound"])))
        if sorted(map(_key, c["witnesses"])) != want_w:
            out.append(f"{op.label}: witnesses are not exactly the evaluations "
                       "with value > bound")
    return out


def _key(e):
    return (e["condition"], tuple(e["x"]), e["value"], e["bound"])


# -- falsify reports --------------------------------------------------------------


def check_falsify(op, rc, report):
    """Problems with one `falsify` operation: outcome, budget, exit point."""
    s = SYSTEMS[op.system]
    out = []
    stats = report["stats"]
    contract = op.mode == "contractivity"
    found = ("lingering" if contract else "counterexample") in report
    outcome = "counterexample" if found else "none"
    if outcome != op.expect[0]:
        out.append(f"{op.label}: outcome {outcome} != expected {op.expect[0]}")
    if rc != (1 if found else 0):
        out.append(f"{op.label}: exit code {rc} for outcome {outcome}")
    if stats["starts"] != op.budget:
        out.append(f"{op.label}: {stats['starts']} starts for a budget of {op.budget}")
    if not found:
        want = stats["starts"] * (2 if contract else 1)
        if stats["tasks_run"] != want:
            out.append(f"{op.label}: outcome none after {stats['tasks_run']} of "
                       f"{want} tasks")
        return out
    if contract:
        start = report["lingering"]["start"]
        if abs(s.bmax(start)) > PROBE_BAND * 10:
            out.append(f"{op.label}: probe start {start} is not on dK "
                       f"(max B = {s.bmax(start)!r})")
        return out
    cx = report["counterexample"]
    x, start, t = cx["x"], cx["start"], cx["t"]
    bx = [b(x) for b in s.B]
    if not all(_close(u, v) for u, v in zip(cx["barrier"], bx)):
        out.append(f"{op.label}: recorded B(x) {cx['barrier']} != {bx}")
    if not max(bx) > EXIT_TOL:
        out.append(f"{op.label}: exit point {x} has max B = {max(bx)!r}, not outside K")
    if s.bmax(start) > EXIT_TOL:
        out.append(f"{op.label}: start {start} is not in K")
    if cx["kind"] != "leaves_by_flow" or cx["j"] != 0:
        out.append(f"{op.label}: exit kind {cx['kind']} at j={cx['j']}, "
                   "expected leaves_by_flow at j=0")
    if op.system in ("expcount", "expillu") and not _close(x[0] - start[0], t):
        out.append(f"{op.label}: x1 moved {x[0] - start[0]!r} in time {t!r} at unit speed")
    if op.system == "expcount" and abs(x[1]) > 1e-12:
        out.append(f"{op.label}: escape at x2 = {x[1]!r}, expected 0")
    if op.system == "expillu":
        # x2' = sqrt|x2|: from x2(0) = -a <= 0, x2 reaches 0 at t0 = 2 sqrt(a)
        # and then follows (t - t0)^2 / 4; RK4 lags by at most a few steps.
        t0 = 2.0 * math.sqrt(max(0.0, -start[1]))
        lag = (t - t0) - 2.0 * math.sqrt(max(0.0, x[1]))
        if not -1e-9 <= lag <= 3.0 * op.step:
            out.append(f"{op.label}: exit {x} at t={t!r} is off the parabola "
                       f"x2 = (t - {t0!r})^2/4 by a lag of {lag!r}")
    return out
