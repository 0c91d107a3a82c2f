"""sha256 digests of whole verdicts on catalog systems at samples=12, seed=0.

They pin every status, witness, evaluation, note and flag of the checkers
that reach the cone, Clarke, corner and Minkowski paths. The report's
`config` echo is left out of the digest for the keys that are no longer
caller settings (they became module constants with unchanged values), so
the digests hold on both sides of that change.

Digests marked "re-recorded" changed when exact small solvers replaced
SLSQP in the projections, when its fallback was retired, or when the
Lagrange-Newton loop moved from numpy calls to Python floats, after their
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
    ("exp1", "contract-c1", {},  # violated, 257 evaluations
     "ec48b7211e0527572431f819c5a0552c86511f711a5228f1162684f3040e195d"),
    ("thermostat", "contract-c1", {},  # violated, 50 evaluations
     "5c6c5bda8f24425b55c5d6b65ed65bd9fe521baec94c56e9111308c098aa50bc"),
    ("bouncing-ball", "contract-lip", {},  # violated, 60 evaluations
     "4ae17365caab761c6f395c78d8ef09db57fe767e63d9ee5e4322efc8902ef6ba"),
    ("thermostat", "contract-lip", {},  # violated, 45 evaluations
     "a29e99ae1fec32ab7b3e76dac9f5e6efa5e65356247c4942d70fcf2147f85893"),
    ("expillu", "relaxed", {},  # violated, 12 evaluations
     "c0dae424dceb8bbf767235c4830324334997f8b2902b51a9b8c48ba2378a1444"),
    ("expcount", "boundary", {"option": "a"},  # violated, 58 evaluations; re-recorded, 2.6e-15
     "c6565853ecc6b145857e0f25f8f4b11fa06ce710cc290dcbaabe873c612d11a3"),
    ("expcount", "boundary", {"option": "b"},  # violated, 46 evaluations; re-recorded,
     # cone ratios 6.5e-7, other numbers 2.6e-15
     "a3b2a54f67604010e0e33073bb0e38720f58ff2c3189068b9e9938212253196d"),
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
     # re-recorded, 2.7e-10; re-recorded on floats, 3.7e-40 (a point's x2 near 0)
     "308d916d2851051249322d5b09c46ba0e6fb211628e27feb2844f5ada0dbe3fc"),
    ("expCsets", "contract-complete", {},  # no_violation_found, 8 evaluations;
     # re-recorded: the points where D's strict leaf vanishes are now projections
     # onto its zero set, (-1, -1) to 3e-12, where SLSQP stopped 3.1e-5 away;
     # re-recorded on floats, 1.1e-16
     "0d7caef3c3c4775c03836646bf2278ccd86ee82f258683327b3b944b03b7c1ec"),
    ("exp1nwbis", "external", {},  # no_violation_found, 180 evaluations; re-recorded, 1.1e-10;
     # re-recorded on floats, 1.7e-14 (an external-cone ratio)
     "426de17b86c2d3b5c636ed0b69944e40bcf124cbde93d1e87d9000440e4e3b90"),
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
