"""Golden points of the perturbation samplers in `hibarrier.regions`.

The digests were recorded before the five samplers shared one perturbation
loop; any change to their RNG tags, draw order, reflect/pull/accept steps or
attempt budget changes a digest.
"""

import hashlib

import numpy as np
import pytest

from hibarrier import regions
from hibarrier.catalog import example_bundle
from hibarrier.model import build_k_complex

GOLDEN = {
    ("expcount", 4): {
        "m_band0": (4, "2740a6dff9455af3"),
        "outside_band": (4, "e22c90fcda29bf7b"),
        "region_a": (4, "8a22d9dfdc4cf089"),
        "region_b": (4, "35e0c7e62a035b10"),
        "neighborhood_on_kdc": (4, "38d6890eaa3b9453"),
    },
    ("expcount", 16): {
        "m_band0": (16, "5b5d3b30c3206ac8"),
        "outside_band": (16, "4bc49b88dc1ab167"),
        "region_a": (16, "12487b20392d61c1"),
        "region_b": (16, "1ef8812fea6db65c"),
        "neighborhood_on_kdc": (16, "b8923577cb021c58"),
    },
    ("thermostat", 4): {
        "m_band0": (4, "1cc6842797adb49e"),
        "m_band1": (4, "c29efc576ed42ba8"),
        "outside_band": (4, "a6da904bd02ddf36"),
        "region_a": (4, "343b2f1598819620"),
        "region_b": (4, "f7df606465751d6f"),
        "neighborhood_on_kdc": (4, "3dc32013b9aa91bd"),
    },
    ("thermostat", 16): {
        "m_band0": (16, "e6f68487a1bf4e39"),
        "m_band1": (16, "724b5eb09b44ff39"),
        "outside_band": (16, "77c5573818cdc7b1"),
        "region_a": (16, "8e667ee53f1572e9"),
        "region_b": (16, "b77cc5b14ffa43c7"),
        "neighborhood_on_kdc": (16, "c6509555eb3e8d32"),
    },
}


def _digest(points):
    """Point count and a hash of the points rounded to 1e-9."""
    a = np.round(np.asarray(points, dtype=float).ravel(), 9) + 0.0
    return len(points), hashlib.sha256(a.tobytes()).hexdigest()[:16]


@pytest.mark.parametrize("name,n", sorted(GOLDEN))
def test_perturbation_samplers_golden(name, n):
    b = example_bundle(name)
    H, box = b.system, b.box
    kc = build_k_complex(H, b.barrier)
    radius, band, seed = 0.1, 0.01, 0
    got = {f"m_band{i}": _digest(regions.m_band(kc, H, i, box, n, radius, band, seed))
           for i in range(b.barrier.m)}
    got["outside_band"] = _digest(regions.outside_band(kc, H, box, n, radius, band, seed))
    got["region_a"] = _digest(regions.region_a(kc, H, box, n, radius, band, seed))
    got["region_b"] = _digest(regions.region_b(kc, H, box, n, radius, band, seed))
    x_o = regions.dk_dc(kc, H, box, n, band, seed)[0]
    got["neighborhood_on_kdc"] = _digest(
        regions.neighborhood_on_kdc(kc, H, x_o, box, radius, n, band, seed))
    assert got == GOLDEN[(name, n)]


@pytest.mark.parametrize("seeded", [0, 3])
def test_perturbation_budget_is_20n_draws(seeded):
    # seeded points count toward n but not against the 20n draw budget
    calls = []

    def reject(a, p):
        calls.append(p)
        return None

    anchors = [np.zeros(2), np.ones(2)]
    out = regions._perturb(regions.rng_for(0, "budget"), anchors, 8, 0.1, 2.0,
                           np.array([[-5.0, 5.0], [-5.0, 5.0]]), reject,
                           out=[np.zeros(2)] * seeded)
    assert len(out) == seeded
    assert len(calls) == 20 * 8
