"""The integer closed forms against their literal oracles, on randomized
asymmetric rotation data.

Spectrum: the Chevalley-Weil multiplicities against the average of the
holomorphic Lefschetz traces.  Strata: integer class residues, enumeration
and ranks against Fraction references kept here (the formulas the integer
code replaced), and the Burnside count against the enumeration.  Census
values: the Seifert b, the framing exponent B and the phase series against
their one-Fraction-per-term loops in oracles.
"""

import random
from fractions import Fraction as F
from itertools import combinations_with_replacement, product
from math import gcd

import pytest

from conftest import FREE2, FREE3, HYPER, M5, Z3, Z4, is_asymmetric, random_asymmetric_orbits
from oracles import (
    angles as class_angles,
    branch_vector_sum,
    conj_class_from_angles,
    framing_B_fractions,
    is_central,
    phase_series_fractions,
    seifert_b_fractions,
    translate,
)
from torusfibre.exact import Cyclotomic, PhaseSeries
from torusfibre.framing import GroupData, framing_phase
from torusfibre.orbit import OrbitData, seifert_invariants, total_genus
from torusfibre.spectrum import eigen_dimensions, lefschetz_trace, wall_signature
from torusfibre.strata import (
    classes_with_power_central,
    count_strata_burnside,
    enumerate_strata,
    root_eigendata,
    stratum_ranks,
)

# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------


def trace_average(data):
    """d_a = (1/m) sum_beta Tr(f^beta) zeta^{-a beta}, exactly."""
    m = data.m
    traces = [lefschetz_trace(data, beta) for beta in range(m)]
    out = []
    for a in range(m):
        acc = Cyclotomic.from_rational(0, m)
        for beta, tr in enumerate(traces):
            acc = acc + tr * Cyclotomic.zeta(m, (-a * beta) % m)
        assert acc.is_rational()
        out.append(acc.rational_value() / m)
    return out


@pytest.fixture(scope="module")
def asymmetric_suite():
    """200 draws as they come (free actions and symmetric data included)
    and 120 asymmetric ones."""
    mixed = random_asymmetric_orbits(seed=20261018, count=200, m_choices=range(2, 17))
    pool = random_asymmetric_orbits(seed=20261019, count=400, m_choices=range(3, 17))
    return mixed + [d for d in pool if is_asymmetric(d)][:120]


def test_asymmetric_suite_shape(asymmetric_suite):
    assert len(asymmetric_suite) >= 300
    assert sum(map(is_asymmetric, asymmetric_suite)) >= 120
    assert any(l < d.m for d in asymmetric_suite for l, _ in d.branches)
    assert any(d.quotient_genus > 0 and d.branches for d in asymmetric_suite)


def test_closed_form_matches_trace_average(asymmetric_suite):
    for data in asymmetric_suite:
        assert list(eigen_dimensions(data).d) == trace_average(data), data


def test_sign_flipped_closed_form_fails_on_asymmetric_data(asymmetric_suite):
    # the a -> -a variant of the formula agrees with the traces on every
    # symmetric input, so only asymmetric data can tell the two apart
    wrong = 0
    for data in asymmetric_suite:
        m, g0 = data.m, data.quotient_genus
        flipped = [g0] + [
            g0 - 1 + sum(F(-a * pow(n, -1, l) % l, l) for l, n in data.branches)
            for a in range(1, m)
        ]
        if flipped != trace_average(data):
            assert is_asymmetric(data)
            wrong += 1
    assert wrong >= 50


def test_conjugate_rotations_reverse_spectrum(asymmetric_suite):
    su3 = GroupData(3)
    for data in asymmetric_suite:
        conj = OrbitData(data.m, data.quotient_genus, [(l, l - n) for l, n in data.branches])
        spec, spec_c = eigen_dimensions(data), eigen_dimensions(conj)
        assert spec_c.d[0] == spec.d[0]
        assert spec_c.d[1:] == spec.d[1:][::-1]
        assert wall_signature(spec_c) == -wall_signature(spec)
        assert framing_phase(spec_c, su3).B == -framing_phase(spec, su3).B


# ---------------------------------------------------------------------------
# Seifert b, framing exponent B and phase series: one Fraction per term
# ---------------------------------------------------------------------------

FIXTURES = [HYPER, Z3, Z4, M5, FREE2, FREE3]


def test_seifert_b_matches_the_fraction_sum(asymmetric_suite):
    for data in FIXTURES + asymmetric_suite:
        b = seifert_invariants(data).b
        assert type(b) is int and b == seifert_b_fractions(data), data


@pytest.mark.parametrize("N", [2, 3, 4, 5])
def test_framing_exponent_and_series_match_the_fraction_loops(asymmetric_suite, N):
    """B against one Fraction per eigenvalue on every orbit; the series of
    each distinct B at orders 0..60 against (-B h)^n / n!, its lower powers
    of Pi the int 0 and its JSON the text of the Fraction coefficients."""
    group = GroupData(N)
    amounts = set()
    for data in FIXTURES + asymmetric_suite:
        spec = eigen_dimensions(data)
        B = framing_phase(spec, group).B
        assert B == framing_B_fractions(spec, group), data
        amounts.add(B)
    assert len(amounts) > 20
    for B in sorted(amounts)[::4]:
        ref = phase_series_fractions(B, N, 60)
        assert PhaseSeries.from_exponent(B, N, 60).to_json()["coeffs"] == [
            [str(c) for c in poly] for poly in ref
        ]
        for order in range(61):
            coeffs = PhaseSeries.from_exponent(B, N, order).coeffs
            assert coeffs == ref[: order + 1]
            assert all(type(c) is int and c == 0 for poly in coeffs for c in poly[:-1])


# ---------------------------------------------------------------------------
# conjugacy classes: Fraction references
# ---------------------------------------------------------------------------


def ref_normalize(angles):
    return tuple(sorted(F(a) % 1 for a in angles))


def ref_classes(N, l, z):
    z %= N
    candidates = [F(z + N * j, N * l) % 1 for j in range(l)]
    return [
        tuple(sorted(combo))
        for combo in combinations_with_replacement(candidates, N)
        if sum(combo) % 1 == 0
    ]


def ref_root_eigendata(angles, m):
    r = [0] * m
    for i, a in enumerate(angles):
        for j, b in enumerate(angles):
            if i != j:
                scaled = (a - b) % 1 * m
                assert scaled.denominator == 1
                r[int(scaled) % m] += 1
    return r


def test_classes_match_fraction_reference():
    for N in range(1, 5):
        for l in range(1, 7):
            for z in range(-N, 2 * N):
                got = classes_with_power_central(N, l, z)
                assert [class_angles(c) for c in got] == ref_classes(N, l, z)


def random_class(rng):
    N = rng.randint(1, 5)
    den = rng.randint(1, 24)
    angles = [F(rng.randrange(den), den) for _ in range(N - 1)]
    angles.append(-sum(angles) + rng.randint(-2, 2))
    return N, angles


def test_class_operations_match_fraction_reference():
    rng = random.Random(4)
    for _ in range(400):
        N, angles = random_class(rng)
        c = conj_class_from_angles(N, angles)
        ref = ref_normalize(angles)
        assert class_angles(c) == ref
        assert gcd(c.denominator, *c.residues) == 1
        assert c.to_json() == [f"{a.numerator}/{a.denominator}" for a in ref]
        assert is_central(c) == (len(set(ref)) == 1)
        p = rng.randint(-7, 7)
        assert class_angles(c.power(p)) == ref_normalize(a * p for a in ref)
        t = rng.randint(-6, 6)
        assert class_angles(translate(c, t)) == ref_normalize(a + F(t, N) for a in ref)
        assert translate(c, t) == conj_class_from_angles(N, [a + F(t, N) for a in ref])
        m = rng.randint(1, 12) * c.denominator
        assert root_eigendata(c, m) == ref_root_eigendata(ref, m)


# ---------------------------------------------------------------------------
# strata: Fraction reference enumeration and rank formula
# ---------------------------------------------------------------------------


def ref_mu(m, n, a):
    return F((pow(n, -1, m) * a) % m) - F(m - 1, 2)


def ref_strata(data, N):
    """The enumeration on Fraction angle tuples: least orbit member as the
    representative, stabilizer by direct count."""
    m, sizes = data.m, data.orbit_sizes()

    def act(zp, z, classes):
        return (
            (z + m * zp) % N,
            tuple(ref_normalize(a + F(zp * mi, N) for a in c) for c, mi in zip(classes, sizes)),
        )

    seen, reps = set(), []
    for z in range(N):
        for combo in product(*[ref_classes(N, l, z) for l, _ in data.branches]):
            if (z, combo) in seen:
                continue
            orbit = {act(zp, z, combo) for zp in range(N)}
            seen |= orbit
            reps.append(min(orbit))
    reps.sort()
    out = []
    for z, classes in reps:
        stab = sum(act(zp, z, classes) == (z, classes) for zp in range(N))
        c_delta = tuple(
            ref_normalize(-a * pow(n, -1, l) for a in c)
            for c, (l, n) in zip(classes, data.branches)
        )
        out.append((z, classes, stab, c_delta))
    return out


def ref_ranks(data, c_delta, group):
    m, g = data.m, total_genus(data)
    ranks = []
    for i in range(m):
        acc = F(group.dim_G * (g - 1))
        for (_, n), c in zip(data.branches, c_delta):
            r_s = ref_root_eigendata(c, m)
            acc += ref_mu(m, n, i) * group.rank
            for j in range(m):
                acc += r_s[j] * ref_mu(m, n, (i - j) % m)
        assert (acc / m).denominator == 1
        ranks.append(int(acc / m))
    return tuple(ranks)


def strata_cases():
    """Fixtures, random asymmetric data (orbits with l < m included) and
    random asymmetric fixed-point data, where every stratum carries ranks."""
    cases = [(HYPER, 2), (Z3, 2), (Z4, 2), (M5, 2), (Z3, 3), (HYPER, 3), (HYPER, 4)]
    for N, seed, count, m_max, fixed in [
        (2, 7, 12, 8, False), (3, 8, 8, 6, False), (4, 9, 6, 4, False),
        (2, 11, 10, 8, True), (3, 12, 6, 6, True), (4, 13, 4, 4, True),
    ]:
        suite = random_asymmetric_orbits(
            seed, count, range(2, m_max), max_branches=4 if N == 2 else 3,
            fixed_points_only=fixed,
        )
        cases += [(d, N) for d in suite]
    # the cells the canonical enumeration branches on that the draws above
    # miss: g = gcd(m, N) = N at N = 4, and orbits with l < m at every N and g
    for N, seed, count, m_choices, fixed, max_branches in [
        (4, 14, 2, [4], True, 2), (4, 15, 1, [4], False, 3), (4, 16, 1, [6], False, 3),
        (4, 17, 1, [9], False, 3), (3, 18, 2, [4], False, 3), (3, 19, 2, [6], False, 3),
        (2, 20, 2, [9, 15], False, 4),
    ]:
        pool = random_asymmetric_orbits(
            seed, 40, m_choices, max_branches=max_branches, fixed_points_only=fixed
        )
        drawn = [d for d in pool if d.branches and (fixed or _has_orbit(d))]
        cases += [(d, N) for d in drawn[:count]]
    return cases


def _has_orbit(data):
    return any(l < data.m for l, _ in data.branches)


def _cell(data, N):
    g = gcd(data.m, N)
    return (N, "g=1" if g == 1 else "g=N" if g == N else "1<g<N", "l<m" if _has_orbit(data) else "fixed")


def test_strata_cases_cover_every_cell():
    cells = {_cell(d, N) for d, N in strata_cases() if d.branches}
    expected = {
        (N, g, kind)
        for N in (2, 3, 4)
        for g in (["g=1", "1<g<N", "g=N"] if N == 4 else ["g=1", "g=N"])
        for kind in ("fixed", "l<m")
    }
    assert cells == expected


@pytest.mark.parametrize("data, N", strata_cases())
def test_strata_match_fraction_reference(data, N):
    group = GroupData(N)
    got = enumerate_strata(data, group)
    ref = ref_strata(data, N)
    assert [(s.z, tuple(class_angles(c) for c in s.classes), s.z_delta_order,
             tuple(class_angles(c) for c in s.c_delta)) for s in got] == ref
    assert count_strata_burnside(data, group) == len(got)
    if all(l == data.m for l, _ in data.branches) and data.branches:
        for s, (_, _, _, c_delta) in zip(got, ref):
            assert s.ranks == ref_ranks(data, c_delta, group)
            vector = branch_vector_sum(data, group, s.c_delta)
            assert stratum_ranks(data, group, vector) == (s.ranks, s.d_c)
    else:
        assert all(s.ranks is None for s in got)
