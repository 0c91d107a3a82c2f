"""Golden points of the region samplers in `hibarrier.regions` and of the
search starts in `hibarrier.simulate`.

The perturbation-sampler digests were recorded before the five samplers
shared one perturbation loop; any change to their RNG tags, draw order,
reflect/pull/accept steps or attempt budget changes a digest. The filter-region
and start-point digests were recorded before the K complex drew every point
pool through one memoised primitive; a change to a pool size, a filter or its
tolerance changes one of them.
"""

import hashlib

import numpy as np
import pytest

from hibarrier import geometry as geo
from hibarrier import regions, simulate
from hibarrier.catalog import example_bundle
from hibarrier.model import build_k_complex

GOLDEN = {
    ("expcount", 4): {
        "m_band0": (4, "2740a6dff9455af3"),
        "outside_band": (4, "e22c90fcda29bf7b"),
        "region_a": (4, "8a22d9dfdc4cf089"),
        "region_b": (4, "35e0c7e62a035b10"),
        "neighborhood_on_kdc": (4, "38d6890eaa3b9453"),
        "m_on_c0": (4, "9da1e91ed9abc01f"),
        "ke_boundary_in_c": (4, "d2d702d9af536a51"),
        "anchors_ke_dc": (3, "bae3bf9685605d35"),
        "dk_dc": (4, "768de0542e29cbd2"),
        "jump_region": (0, "e3b0c44298fc1c14"),
        "boundary_jump_region": (0, "e3b0c44298fc1c14"),
        "kdc_not_d": (4, "2bb3c17d57359e8f"),
        "ke_c_volume": (4, "06def1e39377ca25"),
        "boundary_k_in_c": (4, "e9ee089ef1456c36"),
        "start_points": (4, "cb3bede3400b25d9"),
    },
    ("expcount", 16): {
        "m_band0": (16, "5b5d3b30c3206ac8"),
        "outside_band": (16, "4bc49b88dc1ab167"),
        "region_a": (16, "12487b20392d61c1"),
        "region_b": (16, "1ef8812fea6db65c"),
        "neighborhood_on_kdc": (16, "b8923577cb021c58"),
        "m_on_c0": (16, "bb5cb8e20af8db46"),
        "ke_boundary_in_c": (16, "bf4e89ac230bf8f1"),
        "anchors_ke_dc": (14, "70dc0cb355434bc1"),
        "dk_dc": (16, "a35ebfcb4bb0ff22"),
        "jump_region": (0, "e3b0c44298fc1c14"),
        "boundary_jump_region": (0, "e3b0c44298fc1c14"),
        "kdc_not_d": (16, "87c274f92bf1e4a5"),
        "ke_c_volume": (16, "63f7a5f0586a13a9"),
        "boundary_k_in_c": (16, "ae28f21bef1a543b"),
        "start_points": (16, "40cf834d45d88aa3"),
    },
    ("thermostat", 4): {
        "m_band0": (4, "1cc6842797adb49e"),
        "m_band1": (4, "c29efc576ed42ba8"),
        "outside_band": (4, "a6da904bd02ddf36"),
        "region_a": (4, "343b2f1598819620"),
        "region_b": (4, "f7df606465751d6f"),
        "neighborhood_on_kdc": (4, "3dc32013b9aa91bd"),
        "m_on_c0": (4, "d668847e488dba68"),
        "m_on_c1": (4, "707d839de296c107"),
        "ke_boundary_in_c": (0, "e3b0c44298fc1c14"),
        "anchors_ke_dc": (1, "ae32fd240a3b244c"),
        "dk_dc": (4, "5431082125bf5646"),
        "jump_region": (4, "0fd3f1ddfdeb6107"),
        "boundary_jump_region": (4, "0fd3f1ddfdeb6107"),
        "kdc_not_d": (4, "f572d8e19d68e72c"),
        "ke_c_volume": (4, "5431082125bf5646"),
        "boundary_k_in_c": (4, "5431082125bf5646"),
        "start_points": (4, "102a35e8c7680027"),
    },
    ("thermostat", 16): {
        "m_band0": (16, "e6f68487a1bf4e39"),
        "m_band1": (16, "724b5eb09b44ff39"),
        "outside_band": (16, "77c5573818cdc7b1"),
        "region_a": (16, "8e667ee53f1572e9"),
        "region_b": (16, "b77cc5b14ffa43c7"),
        "neighborhood_on_kdc": (16, "c6509555eb3e8d32"),
        "m_on_c0": (16, "6e683421ba06deac"),
        "m_on_c1": (16, "0f9e500c8d07085f"),
        "ke_boundary_in_c": (0, "e3b0c44298fc1c14"),
        "anchors_ke_dc": (1, "cb6f878e01d6eff2"),
        "dk_dc": (16, "421f30450492478c"),
        "jump_region": (16, "6c771b56165860d5"),
        "boundary_jump_region": (16, "6c771b56165860d5"),
        "kdc_not_d": (16, "0b0271cee3c09025"),
        "ke_c_volume": (16, "efc6b88efdb93678"),
        "boundary_k_in_c": (16, "421f30450492478c"),
        "start_points": (16, "c789e62a1b5461f5"),
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
    for i in range(b.barrier.m):
        got[f"m_on_c{i}"] = _digest(regions.m_on_c(kc, H, i, box, n, band, seed))
    for region in ("ke_boundary_in_c", "anchors_ke_dc", "dk_dc", "boundary_jump_region",
                   "kdc_not_d", "boundary_k_in_c"):
        got[region] = _digest(getattr(regions, region)(kc, H, box, n, band, seed))
    for region in ("jump_region", "ke_c_volume"):
        got[region] = _digest(getattr(regions, region)(kc, H, box, n, seed))
    got["start_points"] = _digest(simulate._start_points(kc, box, n, seed))
    assert got == GOLDEN[(name, n)]


@pytest.mark.parametrize("seeded", [0, 3])
def test_perturbation_budget_is_20n_draws(seeded):
    # seeded points count toward n but not against the 20n draw budget
    calls = []

    def reject(a, p):
        calls.append(p)
        return None

    anchors = [np.zeros(2), np.ones(2)]
    out = regions._perturb(geo.rng_for(0, "budget"), anchors, 8, 0.1, 2.0,
                           np.array([[-5.0, 5.0], [-5.0, 5.0]]), reject,
                           out=[np.zeros(2)] * seeded)
    assert len(out) == seeded
    assert len(calls) == 20 * 8


def test_returned_region_lists_are_fresh():
    # a caller that extends a returned list leaves the memoised pool unchanged
    b = example_bundle("thermostat")
    H, box = b.system, b.box
    kc = build_k_complex(H, b.barrier)
    n, band, seed = 8, 0.01, 0
    for call in (lambda: regions.jump_region(kc, H, box, n, seed),
                 lambda: regions.ke_c_volume(kc, H, box, n, seed),
                 lambda: regions.dk_dc(kc, H, box, n, band, seed),
                 lambda: regions.m_on_c(kc, H, 0, box, n, band, seed)):
        first = call()
        assert first
        first.append(np.zeros(kc.n))
        assert len(call()) == len(first) - 1
