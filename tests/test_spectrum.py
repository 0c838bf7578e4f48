from fractions import Fraction as F
from math import gcd

import pytest

from conftest import FREE2, FREE3, HYPER, Z4, random_orbit_suite
from oracles import conjugate, is_rational, mu_bruteforce, rational_value
from torusfibre.errors import GcdViolation, InvalidBranch
from torusfibre.exact import Cyclotomic
from torusfibre.orbit import OrbitData, total_genus
from torusfibre.spectrum import (
    EigenSpectrum,
    eigen_dimensions,
    lefschetz_trace,
    mu_value,
    wall_signature,
)


def test_mu_value_examples():
    assert mu_value(2, 1, 1) == F(1, 2)
    assert mu_value(3, 1, 1) == 0
    assert mu_value(5, 2, 3) == 2  # 2*4 = 8 = 3 mod 5
    for m in (2, 3, 7, 10):
        for n in range(1, m):
            if gcd(n, m) == 1:
                assert mu_value(m, n, 0) == -F(m - 1, 2)


def test_mu_value_gcd_violation():
    with pytest.raises(GcdViolation):
        mu_value(6, 2, 1)


def test_mu_bruteforce_examples():
    assert mu_bruteforce(2, 1, 1) == F(1, 2)
    assert mu_bruteforce(3, 1, 0) == -1
    assert mu_bruteforce(5, 2, 3) == mu_value(5, 2, 3)


def test_mu_bruteforce_matches_closed_form_sample():
    for m in (2, 3, 4, 6, 9, 12):
        for n in range(1, m):
            if gcd(n, m) != 1:
                continue
            for a in range(m):
                v = mu_bruteforce(m, n, a)
                assert is_rational(v)
                assert rational_value(v) == mu_value(m, n, a)


def test_lefschetz_trace_fixtures():
    assert lefschetz_trace(HYPER, 1) == -2
    z4 = Cyclotomic.zeta(4)
    assert lefschetz_trace(Z4, 1) == -1 - 2 * z4
    assert lefschetz_trace(HYPER, 0) == 2
    assert lefschetz_trace(Z4, 0) == 3


def test_trace_conjugation_symmetry(orbit_suite):
    for data in orbit_suite[:40]:
        for b in range(1, data.m):
            assert lefschetz_trace(data, data.m - b) == conjugate(lefschetz_trace(data, b))


def test_eigen_dimensions_fixtures():
    assert eigen_dimensions(HYPER).d == (0, 2)
    assert eigen_dimensions(Z4).d == (0, 0, 1, 2)
    assert eigen_dimensions(FREE2).d == (2, 1)
    assert eigen_dimensions(FREE3).d == (2, 1, 1)


def test_spectrum_sum_rules(orbit_suite):
    for data in orbit_suite[:80]:
        spec = eigen_dimensions(data)
        assert sum(spec.d) == total_genus(data)
        assert spec.d[0] == data.quotient_genus


def test_fixed_point_closed_form():
    # all branch orbits fixed points: m d_a = g - 1 + sum_j mu(n_j) for a != 0
    for data in random_orbit_suite(seed=13, count=25, fixed_points_only=True):
        spec = eigen_dimensions(data)
        g = total_genus(data)
        for a in range(1, data.m):
            total = g - 1 + sum(mu_value(data.m, n, a) for _, n in data.branches)
            assert F(total, data.m) == spec.d[a]


def test_inconsistent_data_rejected():
    # branch data without an action behind it is stopped at validation; with
    # the validation bypassed the trace certificates catch it instead
    bad = OrbitData(8, 0, [(4, 3), (4, 1), (2, 1), (2, 1), (4, 1), (4, 3)])
    with pytest.raises(InvalidBranch):
        eigen_dimensions(bad)
    m = bad.m
    traces = [lefschetz_trace(bad, b) for b in range(m)]
    d4 = sum(
        (tr * Cyclotomic.zeta(m, (-4 * b) % m) for b, tr in enumerate(traces)),
        Cyclotomic.from_rational(0, m),
    )
    assert rational_value(d4) / m < 0  # negative "multiplicity"


def test_wall_signature_fixtures():
    assert wall_signature(EigenSpectrum(2, (0, 2))) == 0
    assert wall_signature(EigenSpectrum(3, (2, 1, 1))) == 0
    assert wall_signature(EigenSpectrum(4, (0, 0, 1, 2))) == -2


def test_spectrum_json():
    spec = eigen_dimensions(Z4)
    assert spec.to_json() == {"m": 4, "d": [0, 0, 1, 2], "wall_signature": -2}


def test_branches_of_one_type_are_summed_once(monkeypatch):
    """m = 1024 fixed points, each with n = 1, over a genus-0 quotient:
    d_a = -1 + sum_i (a mod m) / m = a - 1 for a != 0.  The 1024 branches
    are one (l, n) type, so each d_a takes one term, not 1024."""
    import torusfibre.spectrum as spectrum

    m = 1024
    calls = []
    monkeypatch.setattr(spectrum, "pow", lambda *args: calls.append(args) or pow(*args), raising=False)
    spec = eigen_dimensions(OrbitData(m, 0, [(m, 1)] * m))
    assert spec.d == (0, 0, *range(1, m - 1))
    assert calls == [(1, -1, m)]
