from fractions import Fraction as F

import pytest

from conftest import FREE3, HYPER, M5, Z4, random_orbit_suite
from oracles import orbit_to_json
from torusfibre.errors import GenusTooSmall, InvalidBranch
from torusfibre.orbit import OrbitData, seifert_invariants, total_genus, validate_orbit


def test_hyperelliptic_valid():
    report = validate_orbit(HYPER)
    assert report["valid"] and report["genus"] == 2


def test_divisibility_failure():
    with pytest.raises(InvalidBranch) as exc:
        validate_orbit(OrbitData(4, 1, [(3, 1)]))
    assert exc.value.check == "divisibility"


def test_free_action_valid():
    assert validate_orbit(FREE3)["genus"] == 4


def test_total_genus_fixtures():
    assert total_genus(HYPER) == 2
    assert total_genus(Z4) == 3
    assert total_genus(M5) == 2
    for m, gq in ((2, 2), (3, 2), (5, 3)):
        assert total_genus(OrbitData(m, gq, [])) == m * (gq - 1) + 1


def test_genus_too_small():
    with pytest.raises(GenusTooSmall):
        total_genus(OrbitData(2, 1, []))  # free involution on the torus


def test_seifert_fixtures():
    s = seifert_invariants(HYPER)
    assert (s.b, s.base_genus, s.pairs) == (-3, 0, ((2, 1),) * 6)
    assert s.euler_number() == 0
    s = seifert_invariants(Z4)
    assert (s.b, s.base_genus, s.pairs) == (-1, 0, ((4, 1),) * 4)
    s = seifert_invariants(FREE3)
    assert (s.b, s.base_genus, s.pairs) == (0, 2, ())


def test_realizability_failure():
    # k = (1, 1, 2), weighted sum 4 != 0 mod 5
    with pytest.raises(InvalidBranch) as exc:
        validate_orbit(OrbitData(5, 0, [(5, 1), (5, 1), (5, 3)]))
    assert exc.value.check == "realizability"


def test_covering_group_failure():
    # all isotropy orders divide 4, so no Z_8 action exists over genus 0
    data = OrbitData(8, 0, [(4, 3), (4, 1), (2, 1), (2, 1), (4, 1), (4, 3)])
    report = validate_orbit(data, raise_on_failure=False)
    assert not report["valid"]
    assert not report["checks"]["covering_group"]["pass"]


def test_euler_number_vanishes_on_suite():
    for data in random_orbit_suite(seed=3, count=60):
        s = seifert_invariants(data)
        assert s.euler_number() == 0
        for alpha, beta in s.pairs:
            assert 0 < beta < alpha
            assert F(beta, alpha).denominator == alpha  # coprime


def test_validation_matches_genus_route():
    # validate passes iff total_genus returns without error
    for data in random_orbit_suite(seed=4, count=40):
        assert validate_orbit(data, raise_on_failure=False)["valid"]
        total_genus(data)


def test_json_roundtrip():
    assert OrbitData.from_json(orbit_to_json(HYPER)) == HYPER
    assert seifert_invariants(HYPER).to_json()["euler"] == "0"
