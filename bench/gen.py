"""Seeded input generators for the benchmark workloads.

Everything here depends only on the seed it is given (through a
``random.Random``), so the same seed always produces byte-identical input
files.  The program under test only ever sees the files written from these
descriptions.
"""

from __future__ import annotations

import cmath
import json
from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd

# The four orbit fixtures of the test suite: hyperelliptic involution,
# order 3 and 4 actions with four fixed points, and the order 5 action with
# three fixed points.
FIXTURES = {
    "HYPER": (2, 0, [1] * 6),
    "Z3": (3, 0, [1, 1, 2, 2]),
    "Z4": (4, 0, [1] * 4),
    "M5": (5, 0, [1, 1, 2]),
}


def orbit_json(m, g0, rotations):
    """Orbit data file contents: every branch orbit a fixed point (l = m)."""
    return {
        "m": m,
        "quotient_genus": g0,
        "branches": [{"l": m, "n": n} for n in rotations],
    }


def fixture(name):
    m, g0, rotations = FIXTURES[name]
    return orbit_json(m, g0, rotations)


def genus(orbit):
    """Riemann-Hurwitz for fixed-point data: 2g - 2 = m(2g0 - 2) + b(m - 1)."""
    m, b = orbit["m"], len(orbit["branches"])
    return 1 + m * (orbit["quotient_genus"] - 1) + b * (m - 1) // 2


def asymmetric_orbit(rng, m, branches, g0):
    """Fixed-point orbit data with rotation inverses k_i drawn as units of
    Z/m with sum k_i = 0 mod m.  Multisets closed under k -> -k (the
    symmetric (n, m - n) pairings) are drawn only when no other multiset
    exists, as for two branches.  Rotation numbers are n_i = k_i^-1 mod m."""
    units = [u for u in range(1, m) if gcd(u, m) == 1]
    sets = [ks for ks in combinations_with_replacement(units, branches) if sum(ks) % m == 0]
    asymmetric = [ks for ks in sets if sorted(ks) != sorted((-k) % m for k in ks)]
    ks = list(rng.choice(asymmetric or sets))
    rng.shuffle(ks)
    orbit = orbit_json(m, g0, [pow(k, -1, m) for k in ks])
    if genus(orbit) < 2:
        raise ValueError(f"m = {m}, {branches} branches, g0 = {g0} gives genus below 2")
    return orbit


# ---------------------------------------------------------------------------
# Chern-Simons phases and intersection oracles
# ---------------------------------------------------------------------------


# The twelve phases p/q with q dividing 12.
PHASES_12 = sorted({Fraction(p, 12) for p in range(12)})


def cs_phases(rng, count, live):
    """Stratum index -> rational phase "p/q" with q dividing 12.  The live
    strata take the twelve phases in a seeded order, cycling if there are
    more than twelve, so that every seed gives them the same number of
    distinct phases; the invariant has one term per distinct phase, and its
    cost grows with that number.  The other strata draw theirs."""
    order = list(PHASES_12)
    rng.shuffle(order)
    phases = [rng.choice(PHASES_12) for _ in range(count)]
    for j, i in enumerate(live):
        phases[i] = order[j % len(order)]
    return {str(i): f"{q.numerator}/{q.denominator}" for i, q in enumerate(phases)}


def oracle(rng, d_c):
    """Single-generator oracle for a stratum of dimension d_c > 0: one
    generator u of degree 2, omega = u, a top-degree pairing <u^d_c>, and a
    tangent bundle of rank d_c with c_1 = a u."""
    top = "u" if d_c == 1 else f"u^{d_c}"
    num, den = rng.randint(1, 9), rng.randint(1, 4)
    return {
        "d_c": d_c,
        "generators": [{"name": "u", "degree": 2}],
        "pairing": {top: f"{num}/{den}"},
        "chern": {
            "omega": {"u": "1"},
            "T_c": {"rank": d_c, "classes": [{"u": str(rng.randint(-3, 3))}]},
        },
    }


def oracles(rng, strata):
    """One generated oracle for every stratum with d_c > 0, keyed by index."""
    return {
        str(i): oracle(rng, s["d_c"])
        for i, s in enumerate(strata)
        if s["d_c"] is not None and s["d_c"] > 0
    }


# ---------------------------------------------------------------------------
# asymptotic models for the fit
# ---------------------------------------------------------------------------


def fit_model(rng, phases, qmax, d0):
    """A sum of ``phases`` terms e^{2 pi i q k} (b k^d + a_1 k^{d-1/2} + ...).

    Phases are reduced fractions with denominator <= qmax, pairwise at least
    1/20 apart on the circle.  Leading degrees lie in {d0, d0 + 1/2, d0 + 1}
    and leading coefficients have modulus in [0.5, 2.3], so every term stays
    within a factor k of the others and above the fit's pruning tolerance.
    Subleading terms sit on the half-integer grid, never below degree 0.
    """
    qs = []
    while len(qs) < phases:
        den = rng.randint(1, qmax)
        num = rng.randrange(den)
        if gcd(num, den) != 1:
            continue
        q = Fraction(num, den)
        if all(min(abs(q - p), 1 - abs(q - p)) >= Fraction(1, 20) for p in qs):
            qs.append(q)
    terms = []
    for q in sorted(qs):
        d = d0 + Fraction(rng.randint(0, 2), 2)
        b = complex(rng.uniform(0.5, 2.0) * rng.choice((1, -1)), rng.uniform(-1.0, 1.0))
        sub = [
            complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            for _ in range(min(int(2 * d), rng.randint(0, 2)))
        ]
        terms.append({"q": q, "d": d, "b": b, "sub": sub})
    return terms


def model_value(terms, k):
    acc = 0j
    for t in terms:
        v = t["b"] * k ** float(t["d"])
        for i, a in enumerate(t["sub"]):
            v += a * k ** float(t["d"] - Fraction(i + 1, 2))
        acc += cmath.exp(2j * cmath.pi * float(t["q"]) * k) * v
    return acc


def fit_csv(rng, terms, k0, count, noise):
    """CSV text "k,re,im" with repr floats; noise is Gaussian with standard
    deviation ``noise`` times the largest sample modulus."""
    values = [(k, model_value(terms, k)) for k in range(k0, k0 + count)]
    scale = max(abs(v) for _, v in values)
    lines = ["k,re,im"]
    for k, v in values:
        if noise:
            v += complex(rng.gauss(0, 1), rng.gauss(0, 1)) * noise * scale
        lines.append(f"{k},{v.real!r},{v.imag!r}")
    return "\n".join(lines) + "\n"


def dumps(obj):
    return json.dumps(obj, sort_keys=True)
