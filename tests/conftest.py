import random
import sys
from fractions import Fraction
from math import gcd

import pytest

from torusfibre.orbit import OrbitData, total_genus, validate_orbit
from torusfibre.strata import classes_with_power_central


def random_orbit_suite(seed, count, m_max=12, g_max=30, fixed_points_only=False):
    """Deterministic list of valid OrbitData.  Branch rotations come in
    (n, l-n) pairs, which keeps the realizability sum at 0 mod m by
    construction; everything else is rejection sampling."""
    rng = random.Random(seed)
    out = []
    guard = 0
    while len(out) < count:
        guard += 1
        if guard > 200 * count:
            raise RuntimeError("suite generator starved; loosen the bounds")
        m = rng.randint(2, m_max)
        gq = rng.randint(0, 3)
        branches = []
        for _ in range(rng.randint(0, 3)):
            if fixed_points_only:
                l = m
            else:
                l = rng.choice([l for l in range(2, m + 1) if m % l == 0])
            units = [n for n in range(1, l) if gcd(n, l) == 1]
            n = rng.choice(units)
            if l > 2:
                branches += [(l, n), (l, l - n)]
            else:
                branches += [(l, 1), (l, 1)]
        if fixed_points_only and not branches:
            continue
        data = OrbitData(m, gq, branches)
        if not validate_orbit(data, raise_on_failure=False)["valid"]:
            continue
        if total_genus(data) > g_max:
            continue
        out.append(data)
    return out


def is_asymmetric(data):
    """True when the rotation data is not closed under n -> l - n, so that a
    sign error a <-> -a in a spectrum formula shows."""
    return sorted(data.branches) != sorted((l, l - n) for l, n in data.branches)


def random_asymmetric_orbits(
    seed, count, m_choices=range(2, 13), g_max=40, max_branches=5, fixed_points_only=False
):
    """Deterministic list of valid OrbitData with independently drawn
    rotation data.  Each branch takes any divisor l >= 2 of m (so orbits of
    m/l > 1 points occur unless fixed_points_only) and any unit n mod l;
    realizability is left to rejection on validate_orbit, so the (n, l - n)
    pairing of random_orbit_suite is not built in and most draws are
    asymmetric."""
    rng = random.Random(seed)
    m_choices = list(m_choices)
    out = []
    guard = 0
    while len(out) < count:
        guard += 1
        if guard > 5000 * count:
            raise RuntimeError("asymmetric generator starved; loosen the bounds")
        m = rng.choice(m_choices)
        divisors = [m] if fixed_points_only else [l for l in range(2, m + 1) if m % l == 0]
        branches = []
        for _ in range(rng.randint(0, max_branches)):
            l = rng.choice(divisors)
            branches.append((l, rng.choice([n for n in range(1, l) if gcd(n, l) == 1])))
        if fixed_points_only and not branches:
            continue
        data = OrbitData(m, rng.randint(0, 2), branches)
        if not validate_orbit(data, raise_on_failure=False)["valid"]:
            continue
        if total_genus(data) > g_max:
            continue
        out.append(data)
    return out


def enumerable_asymmetric_orbits(seed, count, N):
    """Asymmetric fixed-point data (every l = m <= 12) with 2 to 5 branches
    whose SU(N) strata enumeration visits at most 3000 class tuples."""
    def tuples(data):
        total = 0
        for z in range(gcd(data.m, N)):
            n = 1
            for l, _ in data.branches:
                n *= len(classes_with_power_central(N, l, z))
            total += n
        return total

    suite = random_asymmetric_orbits(seed, 40 * count, range(2, 13), fixed_points_only=True)
    out = []
    for d in suite:
        if d not in out and len(d.branches) >= 2 and is_asymmetric(d) and tuples(d) <= 3000:
            out.append(d)
    return out[:count]


def clear_caches():
    """Empty the package's lru caches, as a fresh process starts."""
    for name, module in list(sys.modules.items()):
        if name == "torusfibre" or name.startswith("torusfibre."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


@pytest.fixture(autouse=True)
def cold_caches():
    """Every test starts with empty torusfibre caches, whatever ran before."""
    clear_caches()


@pytest.fixture(scope="session")
def orbit_suite():
    return random_orbit_suite(seed=20240817, count=200)


HYPER = OrbitData(2, 0, [(2, 1)] * 6)
Z4 = OrbitData(4, 0, [(4, 1)] * 4)
Z3 = OrbitData(3, 0, [(3, 1), (3, 1), (3, 2), (3, 2)])
M5 = OrbitData(5, 0, [(5, 1), (5, 1), (5, 2)])
FREE2 = OrbitData(2, 2, [])
FREE3 = OrbitData(3, 2, [])


def hook_fractions(monkeypatch, record):
    """Call record(args) with the arguments of every Fraction built until
    the test ends."""
    new = Fraction.__new__

    def recording(cls, *args, **kwargs):
        record(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(recording))
