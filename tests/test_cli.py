import json
import math
from pathlib import Path

import copy

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hibarrier.cli import main
from hibarrier.catalog import EXAMPLE_IDS, example_config
from hibarrier.config import ConfigError, SystemBundle, system_from_dict


@pytest.fixture()
def emitted(tmp_path):
    def emit(name: str) -> Path:
        assert main(["examples", "emit", name, "--dir", str(tmp_path)]) == 0
        return tmp_path / f"{name}.json"

    return emit


def test_examples_list(capsys):
    assert main(["examples", "list"]) == 0
    out = capsys.readouterr().out.split()
    assert list(EXAMPLE_IDS) == out
    assert "thermostat" in out and "expCsets" in out


def test_check_thermostat_exit_zero(emitted, tmp_path):
    cfg = emitted("thermostat")
    report = tmp_path / "rep.json"
    code = main(["check", str(cfg), "--theorem", "thm1", "--theorem", "invariance",
                 "--samples", "16", "--seed", "0", "--report", str(report)])
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["system"] == "thermostat"
    assert {c["check"] for c in doc["checks"]} == {"thm1", "invariance:prop2"}
    assert all(c["status"] == "no_violation_found" for c in doc["checks"])


def test_check_expillu_exit_one_with_witness(emitted, tmp_path):
    cfg = emitted("expillu")
    report = tmp_path / "rep.json"
    code = main(["check", str(cfg), "--theorem", "thm1", "--samples", "12",
                 "--report", str(report)])
    assert code == 1
    doc = json.loads(report.read_text())
    (check,) = doc["checks"]
    assert check["status"] == "violated"
    assert check["witnesses"]


def test_check_inconclusive_exit_two(emitted):
    cfg = emitted("expcount")
    code = main(["check", str(cfg), "--theorem", "boundary", "--option", "c",
                 "--samples", "12"])
    assert code == 2


def test_check_missing_config_exit_three(tmp_path, capsys):
    assert main(["check", str(tmp_path / "nope.json")]) == 3


def test_check_malformed_config_exit_three(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "name": "bad", "dim": 2, "C": "x1 +", "D": "x1", "F": ["0", "0"],
        "G": ["0", "0"], "barrier": ["x1"], "box": [[-1, 1], [-1, 1]],
    }))
    assert main(["check", str(bad)]) == 3


def test_report_reproducible_minus_timing(emitted, tmp_path):
    cfg = emitted("bouncing-ball")
    reps = []
    for tag in ("a", "b"):
        rep = tmp_path / f"rep-{tag}.json"
        code = main(["check", str(cfg), "--theorem", "thm1", "--samples", "12",
                     "--seed", "3", "--report", str(rep)])
        assert code == 0
        doc = json.loads(rep.read_text())
        doc.pop("timing")
        reps.append(json.dumps(doc, sort_keys=True))
    assert reps[0] == reps[1]


def test_simulate_thermostat_matches_closed_form(emitted, tmp_path):
    cfg = emitted("thermostat")
    out = tmp_path / "arc.csv"
    code = main(["simulate", str(cfg), "--x0", "0,1.0", "--horizon", "0.5,2",
                 "--step", "1e-3", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,j,x1,x2,B1,B2,flag"
    worst = 0.0
    for line in lines[1:]:
        cells = line.split(",")
        t, j, z = float(cells[0]), int(cells[1]), float(cells[3])
        if j == 0:
            worst = max(worst, abs(z - math.exp(-t)))
    assert worst < 1e-6


def test_simulate_rejects_bad_x0(emitted):
    cfg = emitted("thermostat")
    assert main(["simulate", str(cfg), "--x0", "0.5,1.0"]) == 3
    assert main(["simulate", str(cfg), "--x0", "0.0"]) == 3


def test_simulate_bouncing_stays_in_k(emitted, tmp_path):
    cfg = emitted("bouncing-ball")
    out = tmp_path / "arc.csv"
    code = main(["simulate", str(cfg), "--x0", "0,1", "--horizon", "5,10",
                 "--step", "1e-3", "--overlap", "jump", "--out", str(out)])
    assert code == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert max(int(r[1]) for r in rows) >= 2  # alternating flow and jumps
    assert max(float(r[4]) for r in rows) <= 1e-6  # B stays nonpositive


def test_falsify_expillu_exit_one(emitted, tmp_path):
    cfg = emitted("expillu")
    witness = tmp_path / "w.csv"
    code = main(["falsify", str(cfg), "--budget", "20", "--horizon", "1,2",
                 "--step", "1e-3", "--witness", str(witness)])
    assert code == 1
    assert witness.exists()
    # the witness arc leaves K: its last B1 column is positive
    last = witness.read_text().splitlines()[-1].split(",")
    assert float(last[4]) > 0


def test_falsify_thermostat_exit_zero(emitted):
    cfg = emitted("thermostat")
    code = main(["falsify", str(cfg), "--budget", "30", "--horizon", "1.5,4",
                 "--step", "5e-3"])
    assert code == 0


def test_falsify_contractivity_modes(emitted):
    bb = emitted("bouncing-ball")
    assert main(["falsify", str(bb), "--mode", "contractivity", "--budget", "10",
                 "--tau", "0.05"]) == 1
    rj = emitted("exprj")
    assert main(["falsify", str(rj), "--mode", "contractivity", "--budget", "10",
                 "--tau", "0.05"]) == 0


@pytest.mark.parametrize("seed", ["0", "1"])
def test_falsify_budget_one(emitted, tmp_path, seed):
    # the one start comes from the boundary of K; no interior start is asked for
    cfg = emitted("thermostat")
    report = tmp_path / "rep.json"
    code = main(["falsify", str(cfg), "--budget", "1", "--horizon", "1,2",
                 "--seed", seed, "--report", str(report)])
    assert code == 0
    assert json.loads(report.read_text())["stats"]["starts"] == 1


def test_check_invariance_mode_flag(emitted, tmp_path):
    # bouncing-ball's catalog expectation is invariance under prop3
    cfg = emitted("bouncing-ball")
    names = {}
    for mode in ("prop2", "prop3", None):
        report = tmp_path / f"{mode}.json"
        argv = ["check", str(cfg), "--theorem", "invariance", "--samples", "16",
                "--seed", "0", "--report", str(report)]
        assert main(argv + (["--mode", mode] if mode else [])) == 0
        (check,) = json.loads(report.read_text())["checks"]
        assert check["status"] == "no_violation_found"
        names[mode] = check["check"]
    assert names == {"prop2": "invariance:prop2", "prop3": "invariance:prop3",
                     None: "invariance:prop2"}
    assert main(["check", str(cfg), "--theorem", "invariance", "--mode", "prop4"]) == 3


def test_boundary_option_b_points_lie_in_c(emitted, tmp_path):
    # region_b's anchors lie only near dC; each one kept must be in C
    from hibarrier.config import load_system
    from hibarrier.geometry import Membership

    cfg = emitted("expcount")
    report = tmp_path / "rep.json"
    code = main(["check", str(cfg), "--theorem", "boundary", "--option", "b",
                 "--samples", "20", "--seed", "0", "--report", str(report)])
    assert code == 1
    (check,) = json.loads(report.read_text())["checks"]
    xs = [e["x"] for e in check["evaluations"] if e["condition"] == "boundary:b:eqraj2"]
    assert xs
    C = load_system(cfg).system.C
    assert all(C.classify(x, 1e-6) != Membership.OUTSIDE for x in xs)


def test_usage_error_exit_three():
    assert main(["check"]) == 3
    assert main(["frobnicate"]) == 3
    assert main([]) == 3


def test_examples_run_matches_emitted_check(emitted, tmp_path):
    # `emit` then `check` reproduces the statuses `run` compares against
    cfg = emitted("expillu")
    report = tmp_path / "rep.json"
    assert main(["check", str(cfg), "--theorem", "thm1", "--theorem", "external",
                 "--samples", "24", "--seed", "0", "--report", str(report)]) == 1
    doc = json.loads(report.read_text())
    statuses = {c["check"]: c["status"] for c in doc["checks"]}
    assert statuses == {"thm1": "violated", "external": "violated"}
    assert main(["examples", "run", "expillu"]) == 0


def test_examples_run_unknown_name():
    assert main(["examples", "run", "not-a-fixture"]) == 3


def test_examples_run_exp1_prints_note(capsys):
    assert main(["examples", "run", "exp1"]) == 0
    out = capsys.readouterr().out
    assert "note:" in out and "PASS" in out


def test_env_seed_default(emitted, monkeypatch, tmp_path):
    cfg = emitted("bouncing-ball")
    docs = []
    for env in ("123", "123"):
        monkeypatch.setenv("HIBARRIER_SEED", env)
        rep = tmp_path / f"env-{len(docs)}.json"
        assert main(["check", str(cfg), "--theorem", "thm1", "--samples", "10",
                     "--report", str(rep)]) == 0
        doc = json.loads(rep.read_text())
        doc.pop("timing")
        docs.append(json.dumps(doc, sort_keys=True))
        assert '"seed": 123' in docs[-1]
    assert docs[0] == docs[1]


def test_remaining_theorem_ids(emitted):
    thermo = emitted("thermostat")
    assert main(["check", str(thermo), "--theorem", "lipschitz", "--theorem",
                 "relaxed", "--rho", "osgood", "--samples", "10"]) == 0
    csets = emitted("expCsets")
    assert main(["check", str(csets), "--theorem", "cset", "--theorem",
                 "contract-complete", "--samples", "10"]) == 0
    bb = emitted("bouncing-ball")
    assert main(["check", str(bb), "--theorem", "contract-lip",
                 "--samples", "10"]) == 1  # strictness fails on conserved flow


def test_emit_round_trips_catalog(tmp_path):
    from hibarrier.catalog import example_bundle
    from hibarrier.config import load_system
    rng = np.random.default_rng(4)
    for name in EXAMPLE_IDS:
        assert main(["examples", "emit", name, "--dir", str(tmp_path)]) == 0
        loaded = load_system(tmp_path / f"{name}.json")
        ref = example_bundle(name)
        assert loaded.expected == ref.expected
        assert loaded.system.n == ref.system.n
        for _ in range(20):
            x = rng.uniform(-1.5, 1.5, size=ref.system.n)
            assert (loaded.system.C.classify(x, 1e-9)
                    == ref.system.C.classify(x, 1e-9))
            assert np.allclose(loaded.barrier.values(x), ref.barrier.values(x))


def test_repeat_runs_byte_identical(emitted, tmp_path):
    # thermostat has two barrier components, so thm1 runs two flow legs; every
    # CLI run builds its own KComplex, so no cached pool is shared
    cfg = emitted("thermostat")
    for command in (["check", str(cfg), "--theorem", "thm1", "--samples", "12"],
                    ["falsify", str(cfg), "--budget", "12", "--horizon", "1,4"]):
        docs = []
        for run in ("a", "b"):
            rep = tmp_path / f"{command[0]}-{run}.json"
            assert main(command + ["--seed", "2", "--report", str(rep)]) == 0
            doc = json.loads(rep.read_text())
            doc.pop("timing")
            docs.append(json.dumps(doc, sort_keys=True))
        assert docs[0] == docs[1]


def test_found_falsify_counts_tasks_run(emitted, tmp_path):
    # the search stops at its first hit: tasks_run is that start's index + 1
    from hibarrier import simulate as sim
    from hibarrier.config import load_system
    from hibarrier.model import build_k_complex

    bundle = load_system(emitted("expcount"))
    kc = build_k_complex(bundle.system, bundle.barrier)
    budget = sim.FalsifyBudget(starts=24, horizon=sim.Horizon(1.5, 2, 5e-3))
    res = sim.falsify_invariance(bundle.system, kc, budget, box=bundle.box, seed=0)
    assert res.found
    assert res.stats["tasks_run"] == res.start_index + 1
    assert res.stats["starts"] == 24


def test_boundary_option_c_points_lie_in_c(emitted, tmp_path):
    # option c's anchors lie only near dC; each one evaluated must be in C.
    # At seed 0 every anchor is outside C, so the points come from seed 1.
    from hibarrier.config import load_system
    from hibarrier.geometry import Membership

    cfg = emitted("expcount")
    report = tmp_path / "rep.json"
    xs = []
    for seed in ("0", "1"):
        main(["check", str(cfg), "--theorem", "boundary", "--option", "c",
              "--samples", "6", "--seed", seed, "--report", str(report)])
        (check,) = json.loads(report.read_text())["checks"]
        assert check["status"] != "violated"
        xs += [e["x"] for e in check["evaluations"] if e["condition"] == "boundary:c:eqraj2"]
    assert xs
    C = load_system(cfg).system.C
    assert all(C.classify(x, 1e-6) != Membership.OUTSIDE for x in xs)


_GOOD = {"name": "ok", "dim": 2, "C": "x1", "D": "-x1", "F": ["1", "0"],
         "G": ["x1", "x2"], "barrier": ["x2"], "box": [[-1, 1], [-1, 1]]}


@pytest.mark.parametrize("change", [
    {"constants": {"a": "b"}},
    {"constants": [1]},
    {"params": "x"},
    {"notes": 5},
    {"expected": [1]},
    {"box": [[-1, 1], [-1]]},
    {"box": "wide"},
    {"C": {"leaf": 5}},
    {"F": ["1", 0]},
    {"C": {"all": 5}},
    {"C": {"any": None}},
    {"C": {"leaf": "x1", "strict": "no"}},
    {"dim": 2.7},
    {"dim": True},
    {"params": True},
    {"box": [[-1, 1], [-1, float("nan")]]},
    {"box": [[-1, 1], [-1, float("inf")]]},
])
def test_malformed_config_raises_config_error(change, tmp_path):
    doc = {**_GOOD, **change}
    field = next(iter(change))
    with pytest.raises(ConfigError, match=field):
        system_from_dict(doc, source="doc")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["check", str(bad)]) == 3


_JUNK = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.floats(),
                  st.text(max_size=4), st.lists(st.integers(-2, 2), max_size=2),
                  st.dictionaries(st.sampled_from(["leaf", "all", "any", "strict", "x"]),
                                  st.integers(-1, 2), max_size=2))


def _slots(node, out):
    """Every (container, key) pair under node, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        out.append((node, key))
        if isinstance(value, (dict, list)):
            _slots(value, out)
    return out


@st.composite
def _mutated_catalog_doc(draw):
    doc = copy.deepcopy(example_config(draw(st.sampled_from(EXAMPLE_IDS))))
    for _ in range(draw(st.integers(1, 4))):
        slots = _slots(doc, [])
        if not slots:
            break
        parent, key = slots[draw(st.integers(0, len(slots) - 1))]
        action = draw(st.sampled_from(["drop", "swap", "nest"]))
        if action == "drop":
            del parent[key]
        elif action == "swap":
            parent[key] = draw(_JUNK)
        else:
            kind = draw(st.sampled_from(["all", "any", "leaf"]))
            other = draw(st.one_of(_JUNK, st.just("x1 - 1")))
            parent[key] = ({"leaf": parent[key], "strict": other} if kind == "leaf"
                           else {kind: [parent[key], other]})
    return doc


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_mutated_catalog_doc())
def test_system_from_dict_fuzz_gives_bundle_or_config_error(doc):
    # dropped keys, swapped value types and nested trees: never a traceback
    try:
        bundle = system_from_dict(doc, source="fuzz")
    except ConfigError:
        return
    assert isinstance(bundle, SystemBundle)


def test_key_error_in_a_command_propagates(emitted, monkeypatch):
    # only malformed input maps to exit 3; a KeyError is a programming error
    from hibarrier import cli

    def broken(*args, **kwargs):
        raise KeyError("bug")

    monkeypatch.setattr(cli, "run_named_check", broken)
    with pytest.raises(KeyError):
        main(["check", str(emitted("thermostat"))])


@pytest.mark.parametrize("argv", [
    ["simulate", "--x0", "0,1", "--policy", "const:a"],
    ["simulate", "--x0", "0,1", "--policy", "const:2"],
    ["simulate", "--x0", "0,1", "--policy", "adversarial:1"],
    ["simulate", "--x0", "0,1", "--horizon", "1,x"],
    ["simulate", "--x0", "0,a"],
    ["simulate", "--x0", "0,1", "--overlap", "bernoulli:2"],
    ["check", "--rho", "linear:abc"],
    ["check", "--rho", "linearfoo"],
    ["simulate", "--x0", "0,1", "--policy", "const:0.3"],
    ["simulate", "--x0", "0,1", "--policy", "constantly:0.3"],
    ["simulate", "--x0", "0,1", "--policy", "adversarialX"],
    ["falsify", "--budget", "0"],
    ["falsify", "--budget", "-3"],
])
def test_malformed_cli_values_exit_three(argv, emitted, capsys):
    cfg = str(emitted("thermostat"))
    assert main([argv[0], cfg, *argv[1:]]) == 3
    assert "error:" in capsys.readouterr().err


def test_const_policy_needs_one_value_per_parameter(emitted, tmp_path, capsys):
    exp1 = emitted("exp1")
    argv = ["simulate", str(exp1), "--x0", "0.5,0.5", "--horizon", "0.05,1"]
    assert main(argv + ["--policy", "const:0.3,0.9"]) == 3  # exp1 has one parameter
    assert main(argv + ["--policy", "const:0.3"]) == 0
    doc = json.loads(exp1.read_text())
    two = tmp_path / "exp1-two.json"
    two.write_text(json.dumps({**doc, "params": 2}))
    argv[1] = str(two)
    assert main(argv + ["--policy", "const:0.3"]) == 3
    assert "the system has 2" in capsys.readouterr().err
    assert main(argv + ["--policy", "const:0.3,0.9"]) == 0
    assert main(argv) == 0  # bare const: 0.5 for every parameter


def test_malformed_env_seed_is_a_usage_error(emitted, monkeypatch, capsys):
    cfg = str(emitted("thermostat"))
    monkeypatch.setenv("HIBARRIER_SEED", "abc")
    assert main(["check", cfg, "--samples", "4"]) == 3
    assert "error: argument --seed" in capsys.readouterr().err
    # an explicit --seed still wins over the environment
    assert main(["check", cfg, "--samples", "4", "--seed", "1"]) == 0


def test_empty_corner_leg_is_flagged(emitted, tmp_path):
    # at seed 0 no bouncing-ball anchor near dC lies in K_e cap C
    rep = tmp_path / "c.json"
    assert main(["check", str(emitted("bouncing-ball")), "--theorem", "boundary",
                 "--option", "c", "--samples", "20", "--seed", "0",
                 "--report", str(rep)]) == 0
    check = json.loads(rep.read_text())["checks"][0]
    assert check["status"] == "no_violation_found"
    assert "empty-leg:boundary:c" in check["flags"]
    assert not any(e["condition"] == "boundary:c:eqraj2" for e in check["evaluations"])
