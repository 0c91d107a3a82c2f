"""Command-line interface: check, simulate, falsify, examples."""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from . import catalog
from . import certificates as cert
from . import geometry as geo
from . import simulate as sim
from .config import ConfigError, SystemBundle, load_system
from .fields import BudgetError, EvaluationError
from .model import HybridSystem, KComplex, build_k_complex

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3

THEOREM_IDS = ("thm1", "boundary", "external", "lipschitz", "relaxed", "invariance",
               "contract-c1", "contract-lip", "contract-complete", "cset")


def _build_config(bundle: SystemBundle, args) -> cert.CheckConfig:
    return cert.CheckConfig(
        box=tuple(tuple(r) for r in bundle.box.tolist()),
        radius=args.radius, band=args.band, samples=args.samples,
        tol_eq=args.tol, margin_strict=args.margin, seed=args.seed)


def run_named_check(name: str, H: HybridSystem, kc: KComplex, cfg: cert.CheckConfig, *,
                    rho: cert.UniquenessFunction | None = None,
                    option: str = "a", mode: str = "prop2",
                    direction: str | None = None) -> list[cert.Verdict]:
    """Dispatch one theorem id to its checker; `cset` runs both directions
    unless one is forced."""
    rho = rho or cert.UniquenessFunction("linear", k=1.0)
    if name == "thm1":
        return [cert.check_thm1(H, kc, cfg)]
    if name == "boundary":
        return [cert.check_thm_boundary(H, kc, cfg, rho, option=option)]
    if name == "external":
        return [cert.check_thm_external(H, kc, cfg)]
    if name == "lipschitz":
        return [cert.check_thm_lipschitz(H, kc, cfg)]
    if name == "relaxed":
        return [cert.check_relaxed(H, kc, cfg, rho)]
    if name == "invariance":
        return [cert.check_invariance_completion(H, kc, cfg, mode=mode)]
    if name == "contract-c1":
        return [cert.check_contractive_c1(H, kc, cfg)]
    if name == "contract-lip":
        return [cert.check_contractive_lip(H, kc, cfg)]
    if name == "contract-complete":
        return [cert.check_contractivity_completion(H, kc, cfg)]
    if name == "cset":
        if direction:
            return [cert.check_cset(H, kc, cfg, direction=direction)]
        return [cert.check_cset(H, kc, cfg, direction="minkowski"),
                cert.check_cset(H, kc, cfg, direction="barrier")]
    raise ConfigError(f"unknown theorem id {name!r}; known: {', '.join(THEOREM_IDS)}")


def _report_doc(command: str, source: str, bundle: SystemBundle,
                verdicts: list[cert.Verdict], extra: dict, elapsed: float) -> dict:
    return {
        "tool": {"name": "hibarrier", "version": __version__},
        "command": command,
        "source": source,
        "system": bundle.name,
        "checks": [v.to_dict() for v in verdicts],
        **extra,
        "timing": {"seconds": elapsed},
    }


def _write(path: str | Path, text: str) -> None:
    """Write an output file; a path that cannot be written is a usage error."""
    try:
        Path(path).write_text(text)
    except OSError as e:
        raise ConfigError(f"cannot write {path}: {e.strerror or e}") from None


def _write_report(path: str | None, doc: dict) -> None:
    if path:
        _write(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _exit_from_verdicts(verdicts: list[cert.Verdict]) -> int:
    statuses = {v.status for v in verdicts}
    if cert.VIOLATED in statuses:
        return EXIT_VIOLATED
    if cert.INCONCLUSIVE in statuses:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def _print_verdict(v: cert.Verdict) -> None:
    line = f"[{v.status:>20}] {v.check} (samples={v.samples_evaluated}"
    if v.worst_margin is not None:
        line += f", worst margin={v.worst_margin:.3e}"
    if v.vacuous:
        line += ", vacuous"
    line += ")"
    print(line)
    for w in v.witnesses[:3]:
        print(f"    witness {w.condition} at x={list(w.x)} value={w.value:.6g} "
              f"bound={w.bound:.6g}")
    if len(v.witnesses) > 3:
        print(f"    ... {len(v.witnesses) - 3} more witnesses")
    for note in v.notes:
        print(f"    note: {note}")


def cmd_check(args) -> int:
    bundle = load_system(args.config)
    cfg = _build_config(bundle, args)
    rho = cert.UniquenessFunction.parse(args.rho)
    theorems = args.theorem or ["thm1"]
    verdicts: list[cert.Verdict] = []
    t0 = time.perf_counter()
    kc = build_k_complex(bundle.system, bundle.barrier)  # its pools serve every check
    for name in theorems:
        verdicts.extend(run_named_check(name, bundle.system, kc, cfg, rho=rho,
                                        option=args.option, mode=args.mode))
    elapsed = time.perf_counter() - t0
    for v in verdicts:
        _print_verdict(v)
    _write_report(args.report,
                  _report_doc("check", str(args.config), bundle, verdicts,
                              {"theorems": theorems}, elapsed))
    return _exit_from_verdicts(verdicts)


def _parse_policy(text: str) -> tuple[sim.Rule, sim.Rule]:
    name, colon, arg = text.partition(":")
    try:
        if text == "random":
            return sim.PerStepRandom(), sim.PerStepRandom()
        if name == "adversarial":
            d = int(arg) if colon else 5
            return sim.AdversarialGrid(d), sim.AdversarialGrid(d)
        if name == "const":
            lam = tuple(float(v) for v in arg.split(",") if v)
            return sim.Constant(lam), sim.Constant(lam)
    except ValueError as e:
        raise ConfigError(f"bad --policy {text!r}: {e}") from None
    raise ConfigError(f"unknown policy {text!r}; use const[:l1,l2], random, "
                      "or adversarial[:d]")


def _parse_overlap(text: str) -> sim.Overlap:
    if text in ("flow", "jump"):
        return sim.Overlap(text)
    if text.startswith("bernoulli"):
        try:
            return sim.Overlap("bernoulli",
                               float(text.split(":", 1)[1]) if ":" in text else 0.5)
        except ValueError as e:
            raise ConfigError(f"bad --overlap {text!r}: {e}") from None
    raise ConfigError(f"unknown overlap rule {text!r}; use flow, jump, or "
                      "bernoulli[:p]")


def _parse_horizon(text: str, step: float) -> sim.Horizon:
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError("--horizon expects T,J")
    try:
        return sim.Horizon(float(parts[0]), int(parts[1]), step)
    except BudgetError:
        raise
    except ValueError as e:
        raise ConfigError(f"bad --horizon {text!r}: {e}") from None


def cmd_simulate(args) -> int:
    bundle = load_system(args.config)
    kc = build_k_complex(bundle.system, bundle.barrier)
    try:
        x0 = np.array([float(v) for v in args.x0.split(",")])
    except ValueError as e:
        raise ConfigError(f"bad --x0 {args.x0!r}: {e}") from None
    if x0.size != bundle.system.n:
        raise ConfigError(f"--x0 needs {bundle.system.n} components")
    flow_rule, jump_rule = _parse_policy(args.policy)
    k = bundle.system.F.k
    if isinstance(flow_rule, sim.Constant) and len(flow_rule.lam) not in (0, k):
        raise ConfigError(f"--policy {args.policy!r} gives {len(flow_rule.lam)} "
                          f"parameters; the system has {k}")
    policy = sim.SelectionPolicy(flow_rule, jump_rule, _parse_overlap(args.overlap))
    horizon = _parse_horizon(args.horizon, args.step)
    arc = sim.solve(bundle.system, x0, policy, horizon, kc=kc, seed=args.seed)
    csv_text = sim.arc_to_csv(arc, bundle.barrier)
    if args.out:
        _write(args.out, csv_text)
    else:
        sys.stdout.write(csv_text)
    print(f"termination: {arc.termination}"
          + (f" [{', '.join(arc.flags)}]" if arc.flags else ""))
    return EXIT_OK


def _search(bundle: SystemBundle, kc: KComplex, mode: str, budget: sim.FalsifyBudget,
            tau: float, seed: int) -> tuple[bool, sim.FalsifyResult | sim.ProbeResult]:
    """(found, result) of the invariance search, or of the contractivity probe
    with window tau, from starts in bundle's box."""
    if mode == "invariance":
        res = sim.falsify_invariance(bundle.system, kc, budget, box=bundle.box, seed=seed)
        return res.found, res
    res = sim.probe_contractivity(bundle.system, kc, budget, tau, box=bundle.box, seed=seed)
    return res.lingering, res


def cmd_falsify(args) -> int:
    bundle = load_system(args.config)
    kc = build_k_complex(bundle.system, bundle.barrier)
    horizon = _parse_horizon(args.horizon, args.step)
    budget = sim.FalsifyBudget(starts=args.budget, horizon=horizon)
    t0 = time.perf_counter()
    extra: dict = {"mode": args.mode}
    found, result = _search(bundle, kc, args.mode, budget, args.tau, args.seed)
    if found and args.mode == "invariance":
        sc = result.scenario
        print(f"counterexample: {sc.kind} at (t={sc.t:.6g}, j={sc.j}), "
              f"x={sc.x.tolist()}, B={kc.barrier.values(sc.x).tolist()}")
        extra["counterexample"] = {
            "kind": sc.kind, "t": sc.t, "j": sc.j, "x": sc.x.tolist(),
            "barrier": kc.barrier.values(sc.x).tolist(),
            "start": result.start.tolist(),
        }
        if args.witness and result.arc is not None:
            _write(args.witness, sim.arc_to_csv(result.arc, kc.barrier))
    elif found:
        print(f"boundary lingering from {result.witness_start.tolist()}: "
              f"{result.note}")
        extra["lingering"] = {"start": result.witness_start.tolist(),
                              "note": result.note}
        if args.witness and result.witness_arc is not None:
            _write(args.witness, sim.arc_to_csv(result.witness_arc, kc.barrier))
    elif args.mode == "invariance":
        print(f"no counterexample found ({result.stats})")
    else:
        print(f"immediate entry on all boundary starts ({result.stats})")
    extra["stats"] = result.stats
    elapsed = time.perf_counter() - t0
    _write_report(args.report, _report_doc("falsify", str(args.config), bundle,
                                           [], extra, elapsed))
    return EXIT_VIOLATED if found else EXIT_OK


def _run_expected(bundle: SystemBundle, seed: int) -> tuple[bool, list[str]]:
    expected = bundle.expected
    lines: list[str] = []
    ok = True
    samples = int(expected.get("samples", 32))
    cfg = cert.CheckConfig(box=tuple(tuple(r) for r in bundle.box.tolist()),
                           samples=samples, seed=seed)
    kc = build_k_complex(bundle.system, bundle.barrier)  # shared by the checks and falsify
    for spec in expected.get("checks", []):
        name = spec["theorem"]
        rho = cert.UniquenessFunction.parse(spec.get("rho", "linear:1"))
        verdicts = run_named_check(
            name, bundle.system, kc, cfg, rho=rho, option=spec.get("option", "a"),
            mode=spec.get("mode", "prop2"), direction=spec.get("direction"))
        status = verdicts[0].status
        want = spec["status"]
        good = status == want
        ok = ok and good
        label = name + (f":{spec['option']}" if "option" in spec else "") \
            + (f":{spec['direction']}" if "direction" in spec else "")
        lines.append(f"  {'PASS' if good else 'FAIL'} {label}: {status}"
                     + ("" if good else f" (expected {want})"))
    fal = expected.get("falsify")
    if fal:
        horizon = sim.Horizon(*fal.get("horizon", [1.5, 6]), 5e-3)
        budget = sim.FalsifyBudget(starts=int(fal.get("starts", 24)), horizon=horizon)
        found, _ = _search(bundle, kc, fal["mode"], budget,
                           float(fal.get("tau_probe", 0.05)), seed)
        outcome = "counterexample" if found else "none"
        good = outcome == fal["outcome"]
        ok = ok and good
        lines.append(f"  {'PASS' if good else 'FAIL'} falsify:{fal['mode']}: {outcome}"
                     + ("" if good else f" (expected {fal['outcome']})"))
    return ok, lines


def cmd_examples(args) -> int:
    if args.action == "list":
        for name in catalog.EXAMPLE_IDS:
            print(name)
        return EXIT_OK
    if not args.name:
        print("error: examples run/emit need an example name", file=sys.stderr)
        return EXIT_USAGE
    if args.action == "emit":
        doc = catalog.example_config(args.name)
        out = Path(args.dir or ".") / f"{args.name}.json"
        _write(out, json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"wrote {out}")
        return EXIT_OK
    # run
    bundle = catalog.example_bundle(args.name)
    for note in bundle.notes:
        print(f"note: {note}")
    ok, lines = _run_expected(bundle, args.seed)
    print(f"{args.name}:")
    for line in lines:
        print(line)
    print("PASS" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_VIOLATED


def _seed(text: str) -> int:
    """A seed is a nonnegative integer, as numpy's generators require."""
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"the seed must be nonnegative, not {seed}")
    return seed


def build_parser() -> argparse.ArgumentParser:
    # a string default goes through type=_seed too, so a malformed or negative
    # HIBARRIER_SEED is a usage error, and an explicit --seed still wins
    seed_default = os.environ.get("HIBARRIER_SEED", "0")
    parser = argparse.ArgumentParser(
        prog="hibarrier",
        description="Barrier-function invariance and contractivity checks for "
                    "hybrid inclusions")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("check", help="run sufficient-condition checkers")
    pc.add_argument("config")
    pc.add_argument("--theorem", action="append", choices=THEOREM_IDS,
                    help="repeatable; defaults to thm1")
    pc.add_argument("--samples", type=int, default=48)
    pc.add_argument("--radius", type=float, default=0.1)
    pc.add_argument("--band", type=float, default=0.01)
    pc.add_argument("--tol", type=float, default=1e-9)
    pc.add_argument("--margin", type=float, default=1e-6)
    pc.add_argument("--seed", type=_seed, default=seed_default)
    pc.add_argument("--rho", default="linear:1")
    pc.add_argument("--option", choices=("a", "b", "c"), default="a")
    pc.add_argument("--mode", choices=("prop2", "prop3"), default="prop2",
                    help="completion proposition for --theorem invariance")
    pc.add_argument("--report")
    pc.set_defaults(fn=cmd_check)

    ps = sub.add_parser("simulate", help="compute one hybrid solution candidate")
    ps.add_argument("config")
    ps.add_argument("--x0", required=True, help="comma-separated initial state")
    ps.add_argument("--policy", default="const",
                    help="const[:l1,...,lk] (no values: 0.5 each), random, "
                         "or adversarial[:d]")
    ps.add_argument("--overlap", default="flow")
    ps.add_argument("--horizon", default="1,4", help="T,J")
    ps.add_argument("--step", type=float, default=1e-3)
    ps.add_argument("--seed", type=_seed, default=seed_default)
    ps.add_argument("--out")
    ps.set_defaults(fn=cmd_simulate)

    pf = sub.add_parser("falsify", help="search for behavioral counterexamples")
    pf.add_argument("config")
    pf.add_argument("--budget", type=int, default=50, help="number of starts")
    pf.add_argument("--horizon", default="2,8", help="T,J")
    pf.add_argument("--step", type=float, default=5e-3)
    pf.add_argument("--seed", type=_seed, default=seed_default)
    pf.add_argument("--mode", choices=("invariance", "contractivity"),
                    default="invariance")
    pf.add_argument("--tau", type=float, default=0.05,
                    help="contractivity probe window")
    pf.add_argument("--report")
    pf.add_argument("--witness", help="write the counterexample arc CSV here")
    pf.set_defaults(fn=cmd_falsify)

    pe = sub.add_parser("examples", help="list, run, or emit the built-in catalog")
    pe.add_argument("action", choices=("list", "run", "emit"))
    pe.add_argument("name", nargs="?")
    pe.add_argument("--dir")
    pe.add_argument("--seed", type=_seed, default=seed_default)
    pe.set_defaults(fn=cmd_examples)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_OK if e.code in (0, None) else EXIT_USAGE
    try:
        return args.fn(args)
    except (ConfigError, geo.PreconditionError, BudgetError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (geo.NonConvergence, EvaluationError) as e:
        print(f"inconclusive: {e}", file=sys.stderr)
        return EXIT_INCONCLUSIVE


if __name__ == "__main__":
    sys.exit(main())
