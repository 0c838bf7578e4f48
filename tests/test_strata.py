import hashlib
from fractions import Fraction as F
from itertools import product
from math import gcd, prod
from pathlib import Path

import pytest

from conftest import (
    FREE2,
    FREE3,
    HYPER,
    M5,
    Z3,
    Z4,
    enumerable_asymmetric_orbits,
    is_asymmetric,
    random_asymmetric_orbits,
)
from oracles import (
    angles,
    branch_vector_sum,
    conj_class_from_angles,
    count_strata_burnside_translate,
    is_central,
    stratum_ranks_convolution,
    translate,
)
from torusfibre.errors import IncompatibleClass, UnsupportedOrbitStructure
from torusfibre.framing import GroupData
from torusfibre.orbit import OrbitData, total_genus
from torusfibre import cli, strata
from torusfibre.strata import (
    MAX_TUPLES,
    classes_with_power_central,
    count_strata_burnside,
    enumerate_strata,
    root_eigendata,
    stratum_ranks,
)

SU2 = GroupData(2)
SU3 = GroupData(3)
INPUTS = Path(__file__).parent / "golden" / "inputs"


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
    assert translate(c, 1) == c
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
                cl2 = tuple(translate(c, zp * mi) for c, mi in zip(s.classes, sizes))
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
        stratum_ranks(FREE2, SU2, branch_vector_sum(FREE2, SU2, strata[0].c_delta))


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
        shifted = [translate(c, 1) for c in s.c_delta]
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


def test_burnside_on_residues_matches_the_translate_count():
    """count_strata_burnside, which moves residues, against the count through
    one translated ConjClassSU per (class, z') on seeded asymmetric orbits
    with orbits of m/l > 1 points, on free actions and for SU(2..5), with
    g = gcd(m, N) > 1 among them."""
    suite = random_asymmetric_orbits(71, 30, range(2, 13)) + [FREE2, FREE3]
    assert any(is_asymmetric(d) for d in suite)
    assert any(l < d.m for d in suite for l, _ in d.branches)
    gs = set()
    for data in suite:
        for N in (2, 3, 4, 5):
            group = GroupData(N)
            expected = count_strata_burnside_translate(data, group)
            assert count_strata_burnside(data, group) == expected
            gs.add(gcd(data.m, N))
    assert gs > {1}


def test_class_lists_come_in_angle_order():
    # enumerate_strata numbers the classes of a list in this order
    for N, l, z in [(2, 4, 0), (3, 4, 1), (4, 6, 2), (5, 3, 0)]:
        keys = [angles(c) for c in classes_with_power_central(N, l, z)]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)


def _record(monkeypatch, name):
    """The argument tuples of every call of strata.<name> until the test ends."""
    calls, fn = [], getattr(strata, name)
    monkeypatch.setattr(strata, name, lambda *args: calls.append(args) or fn(*args))
    return calls


def test_strata_builds_one_class_list_per_power_and_center(monkeypatch, capsys):
    """strata Z4 SU(3): enumerate_strata visits z < gcd(4, 3) = 1 and
    count_strata_burnside z < 3, all four branches with l = 4, so one class
    list is built per (l, z): 3 calls, not one per branch, and Burnside
    reads (3, 4, 0) from the cache; stratum_ranks still gives the ranks.
    The 471 KB listing is pinned by its sha256."""
    calls = _record(monkeypatch, "classes_with_power_central")
    ranks = _record(monkeypatch, "stratum_ranks")
    assert cli.main(["strata", "--orbit", str(INPUTS / "z4.json"), "--group", "SU(3)"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "276b7795fb6aa0cfc1ef3ca6434acd8f021f0664534007417ea8ef6e20b3b662"
    )
    assert calls == [(3, 4, 0), (3, 4, 1), (3, 4, 2)]
    assert ranks


def test_strata_builds_each_branch_vector_once(monkeypatch, capsys):
    """strata Z4 SU(3): the four branches share (l, n, z) = (4, 1, 0), so
    enumerate_strata builds one branch vector per class of that list, and
    stratum_ranks, which takes the summed vector, builds none."""
    vectors = _record(monkeypatch, "_branch_vector")
    ranks = _record(monkeypatch, "stratum_ranks")
    assert cli.main(["strata", "--orbit", str(INPUTS / "z4.json"), "--group", "SU(3)"]) == 0
    capsys.readouterr()
    assert len(vectors) == len(classes_with_power_central(3, 4, 0))
    assert all(args[:3] == (4, 2, 1) for args in vectors)
    assert ranks and all(len(vector) == 4 for _, _, vector in ranks)


def _refuse(*args):
    raise AssertionError("enumeration started")


@pytest.mark.parametrize("command", ["strata", "contributions", "invariant"])
def test_oversized_enumeration_is_refused_before_its_loop(command, monkeypatch, capsys):
    # Z4 SU(8) would visit 11650497 class tuples; the loop over them never starts
    monkeypatch.setattr(strata, "product", _refuse)
    assert cli.main([command, "--orbit", str(INPUTS / "z4.json"), "--group", "SU(8)"]) == 1
    err = capsys.readouterr().err
    assert "11650497 class tuples" in err and f"MAX_TUPLES = {MAX_TUPLES}" in err


def test_oversized_class_search_is_refused_before_it_starts(monkeypatch, capsys):
    # asym_m12 has branches with l = 4, 3 and 12; SU(30) classes with c^12
    # central would take a search of C(41, 30) angle multisets
    calls = _record(monkeypatch, "classes_with_power_central")
    assert cli.main(["strata", "--orbit", str(INPUTS / "asym_m12.json"), "--group", "SU(30)"]) == 1
    assert "c^12 central" in capsys.readouterr().err
    assert calls and all(l < 12 for _, l, _ in calls)


def test_ceiling_admits_the_largest_fixtures():
    def tuples(data, N):
        return sum(
            prod(len(classes_with_power_central(N, l, z)) for l, _ in data.branches)
            for z in range(gcd(data.m, N))
        )

    assert tuples(Z4, 5) == 38416 and tuples(M5, 5) == 80076 <= MAX_TUPLES
    assert tuples(Z4, 6) > MAX_TUPLES
