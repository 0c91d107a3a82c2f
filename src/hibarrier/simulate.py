"""Hybrid solution candidates under selection policies, plus behavioral
counterexample search for invariance and contractivity."""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import geometry as geo
from .fields import EvaluationError, Grid, image_samples, filter_by_cone
from .model import (ArcInterval, BarrierCandidate, HybridArc, HybridSystem,
                    KComplex, ScenarioResult, scenario_classify)

__all__ = [
    "HORIZON_REACHED",
    "SOLUTION_DIES",
    "LEFT_C_UNION_D",
    "NUMERICAL_FAILURE",
    "Constant",
    "PerStepRandom",
    "AdversarialGrid",
    "Overlap",
    "SelectionPolicy",
    "Horizon",
    "FalsifyBudget",
    "FalsifyResult",
    "ProbeResult",
    "solve",
    "falsify_invariance",
    "probe_contractivity",
    "default_policy_pool",
    "arc_to_csv",
]

HORIZON_REACHED = "horizon_reached"
SOLUTION_DIES = "solution_dies"
LEFT_C_UNION_D = "left_c_union_d"
NUMERICAL_FAILURE = "numerical_failure"

_ZENO_MAX = 50
_FLOW_TOL = 1e-9     # membership slack for C and D along a solution
_S0_TOL = 1e-6       # membership slack for the initial state (S0)
_REFINE_TOL = 1e-12  # guard bisection stops below this bracket width
_BOUNDARY_BAND = 1e-7  # band of dK that search starts are drawn from
_EXIT_TOL = 1e-6     # a state counts as outside K beyond this slack
_ENTRY_MARGIN = 1e-4  # max_i B_i below -margin counts as entry into int(K)


# ---------------------------------------------------------------------------
# Selection policies


@dataclass(frozen=True)
class Constant:
    lam: tuple[float, ...] = ()

    def __post_init__(self):
        if any(not (0.0 <= v <= 1.0) for v in self.lam):
            raise ValueError("constant flow/jump parameters must lie in [0,1]")


@dataclass(frozen=True)
class PerStepRandom:
    pass


@dataclass(frozen=True)
class AdversarialGrid:
    """Choose the parameter on a grid maximizing the one-step increase of max_i B_i."""

    d: int = 5

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("adversarial grid needs d >= 2")


Rule = Constant | PerStepRandom | AdversarialGrid


@dataclass(frozen=True)
class Overlap:
    kind: str = "flow"  # flow | jump | bernoulli
    p: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("overlap probability must lie in [0,1]")


@dataclass(frozen=True)
class SelectionPolicy:
    flow: Rule = Constant()
    jump: Rule = Constant()
    overlap: Overlap = Overlap("flow")

    def label(self) -> str:
        def rule_label(r: Rule) -> str:
            if isinstance(r, Constant):
                return "const"
            if isinstance(r, PerStepRandom):
                return "random"
            return f"adv{r.d}"

        return f"{rule_label(self.flow)}/{rule_label(self.jump)}/{self.overlap.kind}"


@dataclass(frozen=True)
class Horizon:
    T: float
    J: int
    step: float = 1e-3

    def __post_init__(self):
        if self.T < 0 or self.J < 0 or self.step <= 0:
            raise ValueError("need T >= 0, J >= 0, step > 0")


def default_policy_pool() -> tuple[SelectionPolicy, ...]:
    return (
        SelectionPolicy(AdversarialGrid(5), AdversarialGrid(5), Overlap("flow")),
        SelectionPolicy(AdversarialGrid(5), AdversarialGrid(5), Overlap("jump")),
        SelectionPolicy(PerStepRandom(), PerStepRandom(), Overlap("bernoulli", 0.5)),
    )


# ---------------------------------------------------------------------------
# Integration


def _rk4(f: Callable[[np.ndarray], np.ndarray], x: np.ndarray, h: float) -> np.ndarray:
    k1 = f(x)
    k2 = f(x + 0.5 * h * k1)
    k3 = f(x + 0.5 * h * k2)
    k4 = f(x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _lambda_candidates(k: int, rule: Rule, rng: np.random.Generator) -> list[np.ndarray]:
    if k == 0:
        return [np.zeros(0)]
    if isinstance(rule, Constant):
        lam = np.asarray(rule.lam if rule.lam else [0.5] * k, dtype=float)
        return [lam]
    if isinstance(rule, PerStepRandom):
        return [rng.uniform(size=k)]
    axes = np.linspace(0.0, 1.0, rule.d)
    mesh = np.meshgrid(*([axes] * k), indexing="ij")
    return [np.array(v) for v in zip(*(m.ravel() for m in mesh))]


def _select_lambda(k: int, rule: Rule, rng: np.random.Generator,
                   score: Callable[[np.ndarray], float] | None) -> np.ndarray:
    """The rule's parameter; among several candidates, the one whose finite
    `score` (max_i B_i after the step) is largest."""
    cands = _lambda_candidates(k, rule, rng)
    if len(cands) == 1 or score is None:
        return cands[0]
    best, best_val = cands[0], -np.inf
    for lam in cands:
        try:
            val = score(lam)
        except (EvaluationError, FloatingPointError):
            continue
        if np.isfinite(val) and val > best_val:
            best, best_val = lam, val
    return best


def _bisect(f: Callable[[np.ndarray], np.ndarray], x: np.ndarray, h: float,
            x_h: np.ndarray, crossed: Callable[[np.ndarray], bool],
            refine_tol: float) -> tuple[float, np.ndarray, float, np.ndarray]:
    """Bracket a guard crossing of the flow from x, where x_h (at time h) has
    crossed: (lo, x_lo, hi, x_hi) with x_lo not crossed and x_hi crossed."""
    lo, x_lo, hi, x_hi = 0.0, x, h, x_h
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        x_mid = _rk4(f, x, mid)
        if crossed(x_mid):
            hi, x_hi = mid, x_mid
        else:
            lo, x_lo = mid, x_mid
        if hi - lo < refine_tol:
            break
    return lo, x_lo, hi, x_hi


def solve(H: HybridSystem, x0: Sequence[float] | np.ndarray,
          policy: SelectionPolicy, horizon: Horizon, *,
          kc: KComplex | None = None, seed: int | tuple = 0,
          stop_when: Callable[[np.ndarray], bool] | None = None) -> HybridArc:
    """Compute a hybrid solution candidate.

    Flow segments use a classical 4-stage one-step method with fixed step on
    the policy-selected f(., lam); guard events (leaving C, entering D under a
    jump-preferring policy) are located by bisection to _REFINE_TOL. The arc
    ends at the first recorded state (x0 included) that satisfies
    `stop_when`, flagged "stopped-by-predicate".
    """
    x0 = np.asarray(x0, dtype=float)
    if (H.C.closure().classify(x0, _S0_TOL) == geo.Membership.OUTSIDE
            and H.D.classify(x0, _S0_TOL) == geo.Membership.OUTSIDE):
        raise geo.PreconditionError("x0 violates (S0): outside cl(C) u D")
    seed_key = seed if isinstance(seed, tuple) else (seed,)
    rng = np.random.default_rng((*(int(s) for s in seed_key), zlib.crc32(b"solve")))

    def score(step: Callable[[np.ndarray], np.ndarray]):
        """max_i B_i after `step(lam)`, or None without a barrier to rank by."""
        return None if kc is None else (lambda lam: kc.barrier.bar_value(step(lam)))

    def outside_c(y: np.ndarray) -> bool:
        return H.C.classify(y, _FLOW_TOL) == geo.Membership.OUTSIDE

    def in_d_at(y: np.ndarray) -> bool:
        return H.D.classify(y, _FLOW_TOL) != geo.Membership.OUTSIDE

    intervals = [ArcInterval(0, [0.0], [x0.copy()])]
    flags: list[str] = []
    t, j, x = 0.0, 0, x0.copy()
    cause = HORIZON_REACHED
    zeno_run = 0
    flowed_since_jump = True
    max_steps = int(horizon.T / horizon.step * 4) + 8 * horizon.J + 2000
    blocked = False  # flow made no progress at the current state
    recorded = True  # x is a new state of the arc, not yet stop-tested

    for steps in range(max_steps + 1):
        if recorded and stop_when is not None and stop_when(x):
            flags.append("stopped-by-predicate")
            break
        recorded = False
        if t >= horizon.T - 1e-15:
            break
        if steps == max_steps:
            flags.append("step-budget")
            break
        try:
            in_c = not outside_c(x)
            in_d = in_d_at(x)
        except EvaluationError:
            cause = NUMERICAL_FAILURE
            break
        if not in_c and not in_d:
            cause = LEFT_C_UNION_D
            break

        want_jump = False
        if in_d and (not in_c or blocked):
            want_jump = True
        elif in_d and in_c:
            if policy.overlap.kind == "jump":
                want_jump = True
            elif policy.overlap.kind == "bernoulli":
                want_jump = bool(rng.uniform() < policy.overlap.p)

        if want_jump:
            if j >= horizon.J:
                cause = HORIZON_REACHED
                flags.append("jump-budget")
                break
            lam = _select_lambda(H.G.k, policy.jump, rng,
                                 score(lambda l: H.G(x, l)))
            try:
                g = H.G(x, lam)
            except EvaluationError:
                cause = NUMERICAL_FAILURE
                break
            if not np.all(np.isfinite(g)):
                cause = NUMERICAL_FAILURE
                break
            if not flowed_since_jump:
                zeno_run += 1
                if zeno_run > _ZENO_MAX:
                    cause = HORIZON_REACHED
                    flags.append("zeno")
                    break
            else:
                zeno_run = 0
            j += 1
            x = g.copy()
            intervals.append(ArcInterval(j, [t], [x.copy()]))
        else:
            # flow attempt: the full step, the part before a guard, or a
            # feasible direction from the boundary of C
            h = min(horizon.step, horizon.T - t)
            lam = _select_lambda(H.F.k, policy.flow, rng,
                                 score(lambda l: _rk4(lambda y: H.F(y, l), x, h)))
            f = lambda y, _l=lam: H.F(y, _l)
            try:
                x_full = _rk4(f, x, h)
            except EvaluationError:
                cause = NUMERICAL_FAILURE
                break
            if not np.all(np.isfinite(x_full)):
                cause = NUMERICAL_FAILURE
                break

            step: tuple[float, np.ndarray] | None = (h, x_full)
            if outside_c(x_full):
                lo, x_lo, _, _ = _bisect(f, x, h, x_full, outside_c, _REFINE_TOL)
                # progress below the membership-tolerance slack is numerical noise,
                # not flow; treat the state as blocked instead of recording it
                if lo > max(4e-6 * h, 1e-12):
                    step = (lo, x_lo)
                elif in_d:
                    blocked = True
                    continue
                else:
                    step = _attempt_feasible_flow(H, x, h, rng)
                    if step is None:
                        cause = SOLUTION_DIES
                        flags.append("dies-sampled")
                        break
            elif policy.overlap.kind == "jump" and not in_d and in_d_at(x_full):
                _, _, hi, x_hi = _bisect(f, x, h, x_full, in_d_at, _REFINE_TOL)
                if hi > 1e-14:
                    step = (hi, x_hi)
            tau, x_new = step
            t += tau
            x = x_new.copy()
            intervals[-1].times.append(t)
            intervals[-1].states.append(x.copy())
        flowed_since_jump = not want_jump
        blocked = False
        recorded = True

    return HybridArc(intervals=intervals, termination=cause, flags=flags)


def _attempt_feasible_flow(H: HybridSystem, x: np.ndarray, h: float,
                           rng: np.random.Generator) -> tuple[float, np.ndarray] | None:
    """At a boundary point of C (outside D): look for a flow selection that
    makes progress. None means no sampled direction works (solution dies)."""
    etas = image_samples(H.F, x, Grid(5))
    kept = filter_by_cone(etas, H.C, x)
    if not kept:
        return None
    for lam in _lambda_candidates(H.F.k, AdversarialGrid(5), rng):
        f = lambda y, _l=lam: H.F(y, _l)
        for shrink in (1.0, 0.25, 0.0625):
            try:
                x_try = _rk4(f, x, h * shrink)
            except EvaluationError:
                continue
            if (np.all(np.isfinite(x_try))
                    and H.C.classify(x_try, _FLOW_TOL) != geo.Membership.OUTSIDE):
                return h * shrink, x_try
    return None


# ---------------------------------------------------------------------------
# Counterexample search


@dataclass(frozen=True)
class FalsifyBudget:
    starts: int = 50
    horizon: Horizon = Horizon(2.0, 8, 5e-3)
    policies: tuple[SelectionPolicy, ...] = field(default_factory=default_policy_pool)

    def __post_init__(self):
        if self.starts < 1:
            raise geo.PreconditionError("the search needs at least one start")


@dataclass
class FalsifyResult:
    found: bool
    arc: HybridArc | None = None
    scenario: ScenarioResult | None = None
    start: np.ndarray | None = None
    start_index: int = -1
    policy_index: int = -1
    stats: dict = field(default_factory=dict)


def _start_points(kc: KComplex, box, n: int, seed: int) -> list[np.ndarray]:
    n_boundary = max(1, n // 2)
    pts = list(kc.sample_boundary_k(box, n_boundary, _BOUNDARY_BAND, seed=seed).points)
    if len(pts) < n:
        pts.extend(kc.sample_k(box, n - len(pts), seed=seed ^ 0x5EED).points)
    return pts[:n]


def _first_hit(run: Callable[[int], object | None], total: int) -> tuple[int, object | None]:
    """Run tasks 0, 1, ... in order until one returns a hit: (tasks run, hit),
    or (total, None) when none does."""
    for task_index in range(total):
        hit = run(task_index)
        if hit is not None:
            return task_index + 1, hit
    return total, None


def falsify_invariance(H: HybridSystem, kc: KComplex, budget: FalsifyBudget, *,
                       box, seed: int = 0) -> FalsifyResult:
    """Multi-start search for an arc leaving K; policies from the pool cycle
    across starts. Stops at the first start whose arc leaves K, so the result
    is deterministic for a fixed seed.

    `solve` stop-tests every state it records, so only an arc it stopped has
    a state outside K, and that state is the arc's last."""
    starts = _start_points(kc, box, budget.starts, seed)
    policies = budget.policies
    K = kc.K

    def run(s_idx: int) -> tuple[HybridArc, ScenarioResult] | None:
        p_idx = s_idx % len(policies)
        try:
            arc = solve(H, starts[s_idx], policies[p_idx], budget.horizon, kc=kc,
                        seed=(seed, s_idx, p_idx),
                        stop_when=lambda y: K.classify(y, _EXIT_TOL) == geo.Membership.OUTSIDE)
            if "stopped-by-predicate" not in arc.flags:
                return None
            return arc, scenario_classify(arc, K, _EXIT_TOL)
        except (geo.PreconditionError, geo.NonConvergence, EvaluationError):
            return None

    tasks_run, hit = _first_hit(run, len(starts))
    stats = {"starts": len(starts), "policies": len(policies), "tasks_run": tasks_run}
    if hit is None:
        return FalsifyResult(found=False, stats=stats)
    s_idx = tasks_run - 1
    arc, scenario = hit
    return FalsifyResult(found=True, arc=arc, scenario=scenario, start=starts[s_idx],
                         start_index=s_idx, policy_index=s_idx % len(policies),
                         stats=stats)


# ---------------------------------------------------------------------------
# Contractivity probe


@dataclass
class ProbeResult:
    lingering: bool  # True => BoundaryLingering, False => ImmediateEntry
    witness_arc: HybridArc | None = None
    witness_start: np.ndarray | None = None
    note: str = ""
    stats: dict = field(default_factory=dict)


def probe_contractivity(H: HybridSystem, kc: KComplex, budget: FalsifyBudget,
                        tau_probe: float, *, box, seed: int = 0,
                        starts: Sequence[np.ndarray] | None = None) -> ProbeResult:
    """From dK starts, test immediate entry of max_i B_i below -_ENTRY_MARGIN
    after the first nontrivial flow step or jump within (0, tau_probe]."""
    if tau_probe <= 0:
        raise geo.PreconditionError("tau_probe must be positive")
    if starts is not None:
        pts = [np.asarray(s, dtype=float) for s in starts]
        for s in pts:
            if kc.K.classify(s, _BOUNDARY_BAND) == geo.Membership.INSIDE:
                raise geo.PreconditionError("probe start lies in int(K); must start on dK")
    else:
        pts = list(kc.sample_boundary_k(box, budget.starts, _BOUNDARY_BAND,
                                        seed=seed).points)
    horizon = Horizon(tau_probe, 2, min(budget.horizon.step, tau_probe / 20.0))
    policies = (SelectionPolicy(Constant(), Constant(), Overlap("jump")),
                SelectionPolicy(Constant(), Constant(), Overlap("flow")))

    def run(task_index: int) -> tuple[str, HybridArc] | None:
        s_idx, p_idx = divmod(task_index, len(policies))
        try:
            arc = solve(H, pts[s_idx], policies[p_idx], horizon, kc=kc,
                        seed=(seed, s_idx, p_idx))
        except (geo.PreconditionError, geo.NonConvergence, EvaluationError):
            return None
        vals = [kc.barrier.bar_value(x) for t, j, x in arc.samples()
                if (t, j) != (0.0, 0) and t <= tau_probe]
        if not vals:
            return None  # only the trivial solution was produced
        worst = max(vals)
        if worst > _EXIT_TOL:
            return ("left", arc)
        # lingering means the band [-_ENTRY_MARGIN, tol] holds throughout;
        # dipping below the margin anywhere counts as entry
        if min(vals) >= -_ENTRY_MARGIN:
            return ("lingered", arc)
        return None

    tasks_run, hit = _first_hit(run, len(pts) * len(policies))
    stats = {"starts": len(pts), "tasks_run": tasks_run}
    if hit is None:
        return ProbeResult(lingering=False, stats=stats)
    kind, arc = hit
    s_idx = (tasks_run - 1) // len(policies)
    note = ("arc leaves K from the boundary" if kind == "left"
            else "max_i B_i stays within the boundary band along the arc")
    return ProbeResult(lingering=True, witness_arc=arc, witness_start=pts[s_idx],
                       note=note, stats=stats)


# ---------------------------------------------------------------------------
# Arc CSV (the plotting interface)


def arc_to_csv(arc: HybridArc, barrier: BarrierCandidate | None = None) -> str:
    n = arc.intervals[0].states[0].size
    m = barrier.m if barrier is not None else 0
    header = ["t", "j"] + [f"x{i + 1}" for i in range(n)] + [f"B{i + 1}" for i in range(m)] + ["flag"]
    lines = [",".join(header)]
    rows = list(arc.samples())
    for idx, (t, j, x) in enumerate(rows):
        flag = ""
        if idx > 0 and rows[idx - 1][1] != j:
            flag = "jump"
        if idx == len(rows) - 1:
            flag = arc.termination if not flag else f"jump;{arc.termination}"
        cells = [repr(float(t)), str(j)]
        cells += [repr(float(v)) for v in x]
        if barrier is not None:
            cells += [repr(float(v)) for v in barrier.values(x)]
        cells.append(flag)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
