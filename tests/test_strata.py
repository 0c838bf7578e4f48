from fractions import Fraction as F
from itertools import product
from math import gcd

import pytest

from conftest import FREE2, HYPER, M5, Z3, enumerable_asymmetric_orbits
from oracles import angles, conj_class_from_angles, is_central, stratum_ranks_convolution
from torusfibre.errors import IncompatibleClass, UnsupportedOrbitStructure
from torusfibre.framing import GroupData
from torusfibre.orbit import OrbitData, total_genus
from torusfibre.strata import (
    classes_with_power_central,
    count_strata_burnside,
    enumerate_strata,
    root_eigendata,
    stratum_ranks,
)

SU2 = GroupData(2)
SU3 = GroupData(3)


def test_classes_with_power_central_su2():
    got = classes_with_power_central(2, 2, 0)
    assert sorted(angles(c) for c in got) == [(F(0), F(0)), (F(1, 2), F(1, 2))]
    got = classes_with_power_central(2, 2, 1)
    assert [angles(c) for c in got] == [(F(1, 4), F(3, 4))]


def test_classes_with_power_central_su3():
    got = classes_with_power_central(3, 1, 1)
    assert [angles(c) for c in got] == [(F(1, 3), F(1, 3), F(1, 3))]


def test_class_operations():
    c = conj_class_from_angles(2, [F(1, 4), F(3, 4)])
    assert angles(c.power(2)) == (F(1, 2), F(1, 2))
    assert c.power(-1) == c
    assert c.translate(1) == c
    assert not is_central(c)


def test_hyperelliptic_strata_count():
    strata = enumerate_strata(HYPER, SU2)
    assert len(strata) == 33
    assert count_strata_burnside(HYPER, SU2) == 33
    z1 = [s for s in strata if s.z == 1]
    assert len(z1) == 1
    assert z1[0].z_delta_order == 2
    assert z1[0].ranks == (3, 0)
    assert z1[0].d_c == 3


def test_free_action_strata():
    strata = enumerate_strata(FREE2, SU2)
    assert len(strata) == 2
    assert sorted(s.z for s in strata) == [0, 1]
    assert all(s.ranks is None for s in strata)


def test_trivial_group_single_stratum():
    assert len(enumerate_strata(HYPER, GroupData(1))) == 1


def test_enumeration_completeness_small():
    # re-expanding every orbit by the center action must reproduce all legal
    # tuples exactly once
    for data, group in [
        (HYPER, SU2),
        (Z3, SU2),
        (OrbitData(2, 1, [(2, 1), (2, 1)]), SU3),
    ]:
        N = group.N
        m = data.m
        sizes = data.orbit_sizes()
        legal = set()
        for z in range(N):
            pools = [classes_with_power_central(N, l, z) for l, _ in data.branches]
            for combo in product(*pools):
                legal.add((z, combo))
        regenerated = []
        for s in enumerate_strata(data, group):
            orbit = set()
            for zp in range(N):
                z2 = (s.z + m * zp) % N
                cl2 = tuple(c.translate(zp * mi) for c, mi in zip(s.classes, sizes))
                orbit.add((z2, cl2))
            assert len(orbit) * s.z_delta_order == N
            regenerated.extend(orbit)
        assert len(regenerated) == len(set(regenerated))
        assert set(regenerated) == legal


def test_z_delta_divides_center():
    for s in enumerate_strata(Z3, SU2):
        assert SU2.N % s.z_delta_order == 0


def test_root_eigendata_examples():
    assert root_eigendata(conj_class_from_angles(2, [F(1, 4), F(3, 4)]), 2) == [0, 2]
    assert root_eigendata(conj_class_from_angles(2, [F(1, 6), F(5, 6)]), 3) == [0, 1, 1]
    assert root_eigendata(conj_class_from_angles(3, [0, 0, 0]), 4) == [6, 0, 0, 0]
    c = conj_class_from_angles(2, [F(1, 8), F(7, 8)])
    assert sum(root_eigendata(c, 4)) == 2
    with pytest.raises(IncompatibleClass):
        root_eigendata(c, 3)


def test_stratum_ranks_fixtures():
    strata = enumerate_strata(Z3, SU2)
    assert any(s.ranks == (1, 1, 1) and s.d_c == 1 for s in strata)
    g = total_genus(Z3)
    for s in strata:
        assert sum(s.ranks) == (g - 1) * SU2.dim_G


def test_stratum_ranks_refuses_free_actions():
    strata = enumerate_strata(FREE2, SU2)
    with pytest.raises(UnsupportedOrbitStructure):
        stratum_ranks(FREE2, SU2, [root_eigendata(c, FREE2.m) for c in strata[0].c_delta])


def test_rank_sum_rule_various_groups():
    cases = [
        (HYPER, 2),
        (Z3, 2),
        (M5, 2),
        (OrbitData(2, 1, [(2, 1), (2, 1)]), 3),
        (OrbitData(2, 1, [(2, 1), (2, 1)]), 4),
        (OrbitData(3, 1, [(3, 1), (3, 2)]), 3),
    ]
    for data, N in cases:
        group = GroupData(N)
        strata = enumerate_strata(data, group)
        assert strata
        g = total_genus(data)
        for s in strata:
            assert sum(s.ranks) == (g - 1) * group.dim_G


def test_regular_class_dimension_count():
    # genus-0 quotient, all c(delta) regular: 2 d_c matches the flat-moduli
    # dimension count (2 g~ - 2) dim G + sum_s (dim G - rank G)
    for data in (M5, Z3):
        for s in enumerate_strata(data, SU2):
            if any(len(set(angles(c))) < SU2.N for c in s.c_delta):
                continue
            n_branches = len(data.branches)
            expect = (0 - 2) * SU2.dim_G + n_branches * (SU2.dim_G - SU2.rank)
            assert 2 * s.d_c == expect


def test_ranks_independent_of_representative():
    # recompute from a second orbit representative: translation acts on all
    # angles at once, leaving every difference (hence all ranks) unchanged
    for s in enumerate_strata(Z3, SU2):
        shifted = [c.translate(1) for c in s.c_delta]
        for c0, c1 in zip(s.c_delta, shifted):
            assert root_eigendata(c0, Z3.m) == root_eigendata(c1, Z3.m)


@pytest.mark.parametrize("N", [2, 3, 4])
def test_ranks_match_the_per_tuple_convolution(N):
    """The ranks enumerate_strata attaches, summed from branch vectors
    built once per call, are the circular convolution done afresh for each
    stratum's root data, on asymmetric fixed-point data."""
    group = GroupData(N)
    suite = enumerable_asymmetric_orbits(50 + N, 6, N)
    assert len(suite) == 6
    for data in suite:
        for s in enumerate_strata(data, group):
            roots = [root_eigendata(c, data.m) for c in s.c_delta]
            assert (s.ranks, s.d_c) == stratum_ranks_convolution(data, group, roots)
