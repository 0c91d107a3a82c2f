"""sha256 digests of whole verdicts on catalog systems at samples=12, seed=0.

They pin every status, witness, evaluation, note and flag of the checkers
that reach the cone, Clarke, corner and Minkowski paths. The report's
`config` echo is left out of the digest for the keys that are no longer
caller settings (they became module constants with unchanged values), so
the digests hold on both sides of that change.

Digests marked "re-recorded" changed when exact small solvers replaced
SLSQP in the projections, when its fallback was retired, when the
Lagrange-Newton loop moved from numpy calls to Python floats, or when cone
ratios took closed forms and verdicts flagged the cone path, after their
whole verdicts were compared with the earlier ones: the same statuses, check names, flags, witness kinds and
counts, and evaluation counts; the largest difference in a number is noted
beside each (cone ratios within CONE_TOL, everything else within 1e-7,
except where noted).
"""

import hashlib
import json

import pytest

from hibarrier import certificates as cert
from hibarrier.catalog import example_bundle
from hibarrier.cli import run_named_check
from hibarrier.model import build_k_complex

_FIXED_SETTINGS = ("eps_act", "cone_tol", "cone_h0", "cone_decay", "cone_count",
                   "cone_hmin", "clarke_radius", "clarke_count", "lipschitz_pairs")

# recorded before the fixed settings became constants
DIGESTS = [
    ("exp1", "contract-c1", {},  # violated, 257 evaluations; re-recorded for the
     # cone:sweep flag, every number unchanged; re-recorded for the corner leg's
     # distance-approximate flag, flags only, numbers unchanged
     "67a5cf38972876fbe90d5610b0e90908baf5aaac3e63aadf9e322c196479c875"),
    ("thermostat", "contract-c1", {},  # violated, 50 evaluations; re-recorded for
     # the cone:sweep flag, every number unchanged; re-recorded for the corner
     # leg's distance-approximate flag, flags only, numbers unchanged
     "e61bc50f1e2b63d05045e9f130c52731ffbdd0550f45055a2f31d3d5bd46366c"),
    ("bouncing-ball", "contract-lip", {},  # violated, 60 evaluations
     "4ae17365caab761c6f395c78d8ef09db57fe767e63d9ee5e4322efc8902ef6ba"),
    ("thermostat", "contract-lip", {},  # violated, 45 evaluations; re-recorded for
     # the cone:sweep flag, every number unchanged; re-recorded for the corner
     # leg's distance-approximate flag, flags only, numbers unchanged
     "b94d29eb9d942e167990bd6a1cf765b5a07b23a68ce97b0ca6bf8b66fb93ea77"),
    ("expillu", "relaxed", {},  # violated, 12 evaluations
     "c0dae424dceb8bbf767235c4830324334997f8b2902b51a9b8c48ba2378a1444"),
    ("expcount", "boundary", {"option": "a"},  # violated, 58 evaluations; re-recorded, 2.6e-15
     "c6565853ecc6b145857e0f25f8f4b11fa06ce710cc290dcbaabe873c612d11a3"),
    ("expcount", "boundary", {"option": "b"},  # violated, 46 evaluations; re-recorded,
     # cone ratios 6.5e-7, other numbers 2.6e-15; re-recorded with the closed-form
     # cone, 9.8e-7 (a cone ratio), cone:linearized in place of distance-approximate
     "ed67df385edf3075bbc254ed2a15027d940c666db7860203351ed1a0ff2d797c"),
    ("expcount-fixed", "boundary", {"option": "c"},  # inconclusive, 34 evaluations;
     # re-recorded, 2.6e-15; re-recorded without the SLSQP fallback, 3.1e-15
     "7eaac114916d86c6311ce4e9aff8a6ffa63dc1c25aff23daa045a7cfb711ce72"),
    ("thermostat", "lipschitz", {},  # no_violation_found, 36 evaluations
     "06d4a1cd6b43be74068e5918add09409ccc0567f71807d9ea4458b72ec3af946"),
    ("expCsets", "cset", {"direction": "minkowski"},  # no_violation_found, 115 evaluations;
     # re-recorded, 1.8e-10; re-recorded without the SLSQP fallback: the points
     # K cap D samples by projection are now at its exact answer (-1, -1),
     # where SLSQP stopped up to 6.2e-7 away
     "515faa6bf1ff09ba7f86f6d21fda71ae9a383b4c58cd30ec9ab3dbf170e8385d"),
    ("exp1", "invariance", {"mode": "prop3"},  # no_violation_found, 9 evaluations;
     # re-recorded, 2.7e-10; re-recorded on floats, 3.7e-40 (a point's x2 near 0);
     # re-recorded for the cone:linearized and cone:sweep flags, numbers unchanged
     "f2902ab6e2837233decc03e65266f79ad57af4c147ab7ecfee3a436df87ad628"),
    ("expCsets", "contract-complete", {},  # no_violation_found, 8 evaluations;
     # re-recorded: the points where D's strict leaf vanishes are now projections
     # onto its zero set, (-1, -1) to 3e-12, where SLSQP stopped 3.1e-5 away;
     # re-recorded on floats, 1.1e-16; re-recorded for the cone:linearized flag,
     # numbers unchanged
     "d19e1f7700bdb7bd6a79da3f6ccedf96f0f3596476ec06934101d25fe53531da"),
    ("exp1nwbis", "external", {},  # no_violation_found, 180 evaluations; re-recorded, 1.1e-10;
     # re-recorded on floats, 1.7e-14 (an external-cone ratio); re-recorded with the
     # closed-form rate <eta, (x - y0)/d0>, 4.0e-3 (an external-cone rate of a member,
     # which the sweep overstated), and the cone:linearized flag
     "877f5b5422fdfa8e788019eb61a2a8f888d86f80ba006d8bbd76372596bcef44"),
]


def verdict_digest(verdict: cert.Verdict) -> str:
    doc = verdict.to_dict()
    doc["config"] = {k: v for k, v in doc["config"].items() if k not in _FIXED_SETTINGS}
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("system,theorem,kw,digest", DIGESTS,
                         ids=[f"{s}-{t}-{'-'.join(kw.values())}".rstrip("-")
                              for s, t, kw, _ in DIGESTS])
def test_verdict_digest(system, theorem, kw, digest):
    bundle = example_bundle(system)
    cfg = cert.CheckConfig(box=tuple(tuple(r) for r in bundle.box.tolist()),
                           samples=12, seed=0)
    kc = build_k_complex(bundle.system, bundle.barrier)
    [verdict] = run_named_check(theorem, bundle.system, kc, cfg, **kw)
    assert verdict_digest(verdict) == digest
