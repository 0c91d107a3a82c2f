"""The benchmark's workloads: each is a list of hibarrier CLI operations.

Every operation runs one `hibarrier check` or `hibarrier falsify` command on
a catalog system from `bench/systems/` and writes a `--report`. The expected
statuses and outcomes are the paper's worked examples, as the catalog's
`expected` blocks state them; they are written out here so that the checks do
not read them from the program.
"""

from __future__ import annotations

from dataclasses import dataclass

NV, V, INC = "no_violation_found", "violated", "inconclusive"
CEX, NONE = "counterexample", "none"


@dataclass(frozen=True)
class Op:
    command: str            # check | falsify
    system: str             # file stem in bench/systems
    args: tuple             # the rest of the command line, before --seed/--report
    expect: tuple           # verdict statuses in order, or (falsify outcome,)
    fixed_seed: int | None = None  # program seed that does not follow --seed
    known_fault: str = ""   # why this operation is counted as failed

    @property
    def label(self) -> str:
        return " ".join((self.command, self.system) + self.args)

    @property
    def mode(self) -> str:
        return self.args[self.args.index("--mode") + 1] if "--mode" in self.args \
            else "invariance"

    @property
    def budget(self) -> int:
        return int(self.args[self.args.index("--budget") + 1])

    @property
    def step(self) -> float:
        return float(self.args[self.args.index("--step") + 1]) if "--step" in self.args \
            else 5e-3

    def seed_for(self, seed: int) -> int:
        return self.fixed_seed if self.fixed_seed is not None else seed

    def argv(self, systems_dir: str, seed: int, report: str) -> list[str]:
        return [self.command, f"{systems_dir}/{self.system}.json", *self.args,
                "--seed", str(self.seed_for(seed)), "--report", report]


def _check(system, theorem, samples, *expect, option=None, **kw):
    args = ("--theorem", theorem) + (("--option", option) if option else ()) \
        + ("--samples", str(samples))
    return Op("check", system, args, expect, **kw)


def _falsify(system, budget, *args, expect):
    return Op("falsify", system, ("--budget", str(budget)) + args, (expect,))


REGION_B_FAULT = ("regions.region_b keeps up to max(2, n//4) anchors from "
                  "anchors_ke_dc without checking them against C, so points "
                  "outside K cap C reach the tangent-cone test")

WORKLOADS: dict[str, list[Op]] = {
    # bulk set classification and expression evaluation over sampled regions
    "sample": [
        _check("bouncing-ball", "thm1", 150, NV),
        _check("thermostat", "thm1", 50, NV),
        _check("thermostat", "lipschitz", 30, NV),
        _check("expCsets", "cset", 30, NV, NV),
        _check("exp1", "thm1", 30, NV),
    ],
    # distance and cone solves (SLSQP) at the catalog's sample counts.
    # Left out because they fail on some seeds only: expcount-fixed option b
    # (region_b fault; seeds 1, 4, 7, 8 of 0-11), expcount option c and exprj
    # contract-complete (both `violated` at seed 27 of 0-32)
    "cone": [
        _check("expcount", "boundary", 20, V, option="a"),
        _check("expcount", "boundary", 20, V, option="b", fixed_seed=0,
               known_fault=REGION_B_FAULT),
        _check("expcount-fixed", "boundary", 20, V, option="a"),
        _check("expcount-fixed", "boundary", 20, INC, option="c"),
        _check("exp1nwbis", "external", 16, NV),
        _check("expillu", "external", 24, V),
        _check("exprj", "contract-c1", 20, NV),
        _check("thermostat", "invariance", 24, NV),
        _check("exp1", "invariance", 24, NV),
        _check("expCsets", "contract-complete", 20, NV),
    ],
    # point-at-a-time classification along simulated arcs
    "falsify": [
        _falsify("thermostat", 24, "--horizon", "2.0,6", expect=NONE),
        _falsify("exp1", 8, "--horizon", "1.5,6", expect=NONE),
        _falsify("expcount-fixed", 8, "--horizon", "1.5,2", expect=NONE),
        _falsify("exp1nwbis", 4, "--horizon", "1.5,6", expect=NONE),
        _falsify("expcount", 24, "--horizon", "1.5,2", expect=CEX),
        _falsify("expillu", 50, "--horizon", "1.0,2", "--step", "1e-4", expect=CEX),
        _falsify("exprj", 16, "--mode", "contractivity", "--tau", "0.05", expect=NONE),
        _falsify("bouncing-ball", 12, "--mode", "contractivity", "--tau", "0.05",
                 expect=CEX),
    ],
}
