"""sha256 digests of whole verdicts on catalog systems at samples=12, seed=0.

They pin every status, witness, evaluation, note and flag of the checkers
that reach the cone, Clarke, corner and Minkowski paths. The report's
`config` echo is left out of the digest for the keys that are no longer
caller settings (they became module constants with unchanged values), so
the digests hold on both sides of that change.
"""

import hashlib
import json

import pytest

from hibarrier import certificates as cert
from hibarrier.catalog import example_bundle
from hibarrier.cli import run_named_check

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
    ("expcount", "boundary", {"option": "a"},  # violated, 58 evaluations
     "1c5c3fb438c9be09f62a3f82918bba63982b7c8e7edd1ca9f8b5b3f38076bb81"),
    ("expcount", "boundary", {"option": "b"},  # violated, 46 evaluations
     "cedf045a3f757c3353a2da5d70aa064cafce598e09765b69d7d082d7f2290021"),
    ("expcount-fixed", "boundary", {"option": "c"},  # inconclusive, 34 evaluations
     "17e742f5053add400f55e53dcec02b3579a38ad3ae8b124b0ca34b27d5da63d5"),
    ("thermostat", "lipschitz", {},  # no_violation_found, 36 evaluations
     "06d4a1cd6b43be74068e5918add09409ccc0567f71807d9ea4458b72ec3af946"),
    ("expCsets", "cset", {"direction": "minkowski"},  # no_violation_found, 115 evaluations
     "618f5659cb0a60381ec802dd4536554ec4d0c88c41e0b900c41a91c8fddabee8"),
    ("exp1", "invariance", {"mode": "prop3"},  # no_violation_found, 9 evaluations
     "a0ac62a895042ec0079b067c1a446a9c89bc5a71885fbb93322bf6e3f8bab3dd"),
    ("expCsets", "contract-complete", {},  # no_violation_found, 8 evaluations
     "8a5efacdffa5277cce5d5821248db38b70035299db9e8ac6f7487565ccaaad83"),
    ("exp1nwbis", "external", {},  # no_violation_found, 180 evaluations
     "da445c009dd66e321b74666df883638cad912c52b84e32f5d7e9df79ef056010"),
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
    [verdict] = run_named_check(theorem, bundle, cfg, **kw)
    assert verdict_digest(verdict) == digest
