"""Built-in example systems with expected check outcomes.

Each fixture is a plain config document (the same schema `load_system`
accepts), so `examples emit` round-trips through `check`/`simulate`.
"""

from __future__ import annotations

import copy

from .config import ConfigError, SystemBundle, system_from_dict

__all__ = ["EXAMPLE_IDS", "example_config", "example_bundle"]


def _exp1() -> dict:
    return {
        "name": "exp1",
        "dim": 2,
        "constants": {},
        "params": 1,
        "C": {"all": ["-x2", "x1 - 1", "-1 - x1"]},
        "F": ["-x2^2", "x2*x1 - x2*((2 + 2*p1) - (x1^2 + x2^2))"],
        "D": {"all": ["x2", {"leaf": "x1^2 + x2^2 - 1", "strict": True}]},
        "G": ["0", "p1*abs(x1)"],
        "barrier": [
            {"expr": "x1^2 + x2^2 - 1", "smoothness": "c1"},
            {"expr": "-x2", "smoothness": "c1"},
        ],
        "box": [[-2.0, 2.0], [-2.0, 2.0]],
        "notes": [
            "jump map ambiguity: the data block lists G(x) = [0, x2] x [0, |x1|] "
            "but the worked verification uses G(x) = [0, [0,1]*|x1|]^T with first "
            "component identically 0; this fixture follows the verification text",
        ],
        "expected": {
            "checks": [
                {"theorem": "thm1", "status": "no_violation_found"},
                {"theorem": "invariance", "mode": "prop2",
                 "status": "no_violation_found"},
            ],
            "falsify": {"mode": "invariance", "outcome": "none",
                        "starts": 24, "horizon": [1.5, 6]},
            "samples": 24,
        },
    }


def _thermostat() -> dict:
    # constants satisfy z_o < z_min < z_max < z_o + z_delta
    return {
        "name": "thermostat",
        "dim": 2,
        "constants": {"z_o": 0.0, "z_delta": 2.0, "z_min": 0.5, "z_max": 1.5},
        "params": 0,
        "C": {"any": [
            {"all": ["x1", "-x1", "z_min - x2"]},
            {"all": ["x1 - 1", "1 - x1", "x2 - z_max"]},
        ]},
        "F": ["0", "-x2 + z_o + z_delta*x1"],
        "D": {"any": [
            {"all": ["x1", "-x1", "x2 - z_min"]},
            {"all": ["x1 - 1", "1 - x1", "z_max - x2"]},
        ]},
        "G": ["1 - x1", "x2"],
        "barrier": [
            {"expr": "x2 - z_max", "smoothness": "c1"},
            {"expr": "z_min - x2", "smoothness": "c1"},
        ],
        "box": [[-0.5, 1.5], [-0.5, 2.5]],
        "expected": {
            "checks": [
                {"theorem": "thm1", "status": "no_violation_found"},
                {"theorem": "invariance", "mode": "prop2",
                 "status": "no_violation_found"},
                {"theorem": "lipschitz", "status": "no_violation_found"},
            ],
            "falsify": {"mode": "invariance", "outcome": "none",
                        "starts": 40, "horizon": [2.0, 6]},
            "samples": 24,
        },
    }


def _bouncing_ball() -> dict:
    return {
        "name": "bouncing-ball",
        "dim": 2,
        "constants": {"g": 1.0, "lam": 0.5},
        "params": 0,
        "C": {"any": [
            {"leaf": "-x1", "strict": True},
            {"all": ["x1", "-x1", "-x2"]},
        ]},
        "F": ["x2", "-g"],
        "D": {"all": ["x1", "-x1", "x2"]},
        "G": ["0", "-lam*x2"],
        "barrier": [{"expr": "2*g*x1 + (x2-1)*(x2+1)", "smoothness": "c1"}],
        "box": [[-0.25, 1.0], [-1.5, 1.5]],
        "expected": {
            "checks": [
                {"theorem": "thm1", "status": "no_violation_found"},
                {"theorem": "invariance", "mode": "prop3",
                 "status": "no_violation_found"},
                {"theorem": "contract-c1", "status": "violated"},
            ],
            "falsify": {"mode": "contractivity", "outcome": "counterexample",
                        "starts": 12, "tau_probe": 0.05},
            "samples": 20,
        },
    }


def _exp1nwbis() -> dict:
    return {
        "name": "exp1nwbis",
        "dim": 2,
        "constants": {},
        "params": 1,
        "C": {"all": ["-x2", "x1 - 1", "-1 - x1"]},
        "F": ["-x2^2*x1", "-((x1^2 + x2^2) - p1)*(2 - (x1^2 + x2^2))"],
        "D": {"all": ["x2", "-x2", "x1^2 + x2^2 - 1"]},
        "G": ["0", "p1*abs(x1)"],
        "barrier": [{"expr": "x2*(x1^2 + x2^2 - 1)", "smoothness": "c1"}],
        "box": [[-2.0, 2.0], [-2.0, 2.0]],
        "expected": {
            "checks": [{"theorem": "external", "status": "no_violation_found"}],
            "falsify": {"mode": "invariance", "outcome": "none",
                        "starts": 16, "horizon": [1.5, 6]},
            "samples": 16,
        },
    }


def _expillu() -> dict:
    return {
        "name": "expillu",
        "dim": 2,
        "constants": {},
        "params": 0,
        "C": {"leaf": "-1"},
        "F": ["1", "sqrt(abs(x2))"],
        "D": {"leaf": "1"},
        "G": ["0", "0"],
        "barrier": [{"expr": "x2", "smoothness": "c1"}],
        "box": [[-2.0, 2.0], [-2.0, 2.0]],
        "expected": {
            "checks": [
                {"theorem": "thm1", "status": "violated"},
                {"theorem": "external", "status": "violated"},
            ],
            "falsify": {"mode": "invariance", "outcome": "counterexample",
                        "starts": 50, "horizon": [1.0, 2]},
            "samples": 24,
        },
    }


def _expcount() -> dict:
    # The barrier uses (2/3)x1^3 so that its gradient matches the worked
    # values [2*x1^2, 1] on the x1 > 0 branch.
    return {
        "name": "expcount",
        "dim": 2,
        "constants": {},
        "params": 0,
        "C": {"any": [
            "x1^2 - abs(x2)",
            "x1",
            {"all": ["x2", "-x2"]},
        ]},
        "F": ["1", "0"],
        "D": {"leaf": "1"},
        "G": ["0", "0"],
        "barrier": [{"expr": "x2 + (2/3)*max(x1, 0)^3", "smoothness": "c1"}],
        "box": [[-1.0, 1.0], [-1.0, 1.0]],
        "expected": {
            "checks": [
                {"theorem": "boundary", "option": "a", "rho": "linear:1",
                 "status": "violated"},
                {"theorem": "boundary", "option": "b", "rho": "linear:1",
                 "status": "violated"},
                {"theorem": "boundary", "option": "c", "rho": "linear:1",
                 "status": "inconclusive"},
            ],
            "falsify": {"mode": "invariance", "outcome": "counterexample",
                        "starts": 24, "horizon": [1.5, 2]},
            "samples": 20,
        },
    }


def _expcount_fixed() -> dict:
    doc = _expcount()
    doc["name"] = "expcount-fixed"
    doc["C"] = {"any": ["x1^2 - abs(x2)", "x1"]}
    doc["expected"]["falsify"] = {"mode": "invariance", "outcome": "none",
                                  "starts": 24, "horizon": [1.5, 2]}
    return doc


def _exprj() -> dict:
    return {
        "name": "exprj",
        "dim": 2,
        "constants": {},
        "params": 0,
        "C": {"all": ["-x2", "x2 - 1", "x1 - sqrt(3)", "-sqrt(3) - x1"]},
        "F": ["-(x2 + 1)", "-2*(x2 + 1) + x1"],
        "D": {"all": ["x2", "-x2", "x1 - sqrt(3)", "-sqrt(3) - x1"]},
        "G": ["x1/sqrt(3)", "1/2"],
        "barrier": [
            {"expr": "x1^2 + (x2+1)^2 - 4", "smoothness": "c1"},
            {"expr": "-x2", "smoothness": "c1"},
        ],
        "box": [[-2.5, 2.5], [-1.0, 2.0]],
        "expected": {
            "checks": [
                {"theorem": "contract-c1", "status": "no_violation_found"},
                {"theorem": "contract-complete", "status": "no_violation_found"},
            ],
            "falsify": {"mode": "contractivity", "outcome": "none",
                        "starts": 16, "tau_probe": 0.05},
            "samples": 20,
        },
    }


def _expcsets() -> dict:
    return {
        "name": "expCsets",
        "dim": 2,
        "constants": {},
        "params": 1,
        "C": {"leaf": "-(x2 + 1)"},
        "F": ["-(1 + p1)*x1 + x2/2", "-x2 - x1/2"],
        "D": {"all": [
            "x2 + 1",
            {"leaf": "-((x1+1)^2 + (x2+1)^2)", "strict": True},
        ]},
        "G": ["(p1/2)*x1", "(p1/2)*(-x2)"],
        "barrier": [
            {"expr": "x1^2 + x2^2 - 2", "smoothness": "c1"},
            {"expr": "-(x2 + 1)", "smoothness": "c1"},
        ],
        "box": [[-2.0, 2.0], [-2.0, 2.0]],
        "expected": {
            "checks": [
                {"theorem": "cset", "direction": "minkowski",
                 "status": "no_violation_found"},
                {"theorem": "cset", "direction": "barrier",
                 "status": "no_violation_found"},
                {"theorem": "contract-complete", "status": "no_violation_found"},
            ],
            "samples": 20,
        },
    }


_BUILDERS = {
    "exp1": _exp1,
    "thermostat": _thermostat,
    "bouncing-ball": _bouncing_ball,
    "exp1nwbis": _exp1nwbis,
    "expillu": _expillu,
    "expcount": _expcount,
    "expcount-fixed": _expcount_fixed,
    "exprj": _exprj,
    "expCsets": _expcsets,
}

EXAMPLE_IDS = tuple(_BUILDERS)


def example_config(name: str) -> dict:
    if name not in _BUILDERS:
        raise ConfigError(f"unknown example {name!r}; known: {', '.join(EXAMPLE_IDS)}")
    return copy.deepcopy(_BUILDERS[name]())


def example_bundle(name: str) -> SystemBundle:
    return system_from_dict(example_config(name), source=f"<example:{name}>")
