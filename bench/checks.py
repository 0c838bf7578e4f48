"""Independent output checks.

Each check takes the parsed stdout of one CLI call and the generated input it
was run on, recomputes what it can from first principles (closed forms,
Riemann-Hurwitz, orbit counting, float re-evaluation) and returns ``None``
when the output is right or a one-line reason when it is not.  Nothing here
imports the program.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from itertools import combinations_with_replacement

from gen import genus


def fmt(r):
    r = Fraction(r)
    return str(r.numerator) if r.denominator == 1 else f"{r.numerator}/{r.denominator}"


def inverses(orbit):
    m = orbit["m"]
    return [pow(br["n"], -1, m) for br in orbit["branches"]]


def spectrum_closed_form(orbit):
    """Chevalley-Weil for fixed-point data: d_0 = g0 and, for a != 0,
    d_a = g0 - 1 + sum_i {a k_i / m} with k_i = n_i^-1 mod m."""
    m, g0 = orbit["m"], orbit["quotient_genus"]
    ks = inverses(orbit)
    d = [g0]
    for a in range(1, m):
        val = g0 - 1 + sum(Fraction((a * k) % m, m) for k in ks)
        if val.denominator != 1:
            raise ValueError(f"closed form gives non-integral d_{a} = {val}")
        d.append(int(val))
    return d


def framing_b(orbit, N):
    """B = -(dim G / 2) sum_{a != 0, 2a != m} d_a ahat / m, ahat the signed
    residue of a in (-m/2, m/2)."""
    m = orbit["m"]
    d = spectrum_closed_form(orbit)
    acc = Fraction(0)
    for a in range(1, m):
        if 2 * a == m:
            continue
        acc += d[a] * Fraction(a if 2 * a < m else a - m, m)
    return -Fraction(N * N - 1, 2) * acc


def predicted_conductor(orbit, N, k, phases):
    """lcm of the framing phase denominator at level k, of every stratum
    phase times k, and of the order m."""
    b = framing_b(orbit, N) * Fraction(k, k + N)
    out = math.lcm(b.denominator, orbit["m"])
    for p in phases.values():
        out = math.lcm(out, (Fraction(p) * k).denominator)
    return out


def euler_phi(n):
    return sum(1 for a in range(1, n + 1) if math.gcd(a, n) == 1)


def fit_candidates(qmax):
    """Reduced fractions in [0, 1) with denominator at most qmax."""
    return 1 + sum(euler_phi(d) for d in range(2, qmax + 1))


# ---------------------------------------------------------------------------
# census
# ---------------------------------------------------------------------------


def check_validate(out, orbit):
    if out.get("valid") is not True:
        return f"valid = {out.get('valid')}"
    if out.get("genus") != genus(orbit):
        return f"genus {out.get('genus')} != Riemann-Hurwitz {genus(orbit)}"
    return None


def check_seifert(out, orbit):
    m = orbit["m"]
    ks = inverses(orbit)
    b = -sum(Fraction(k, m) for k in ks)
    expect = {
        "b": int(b),
        "genus": orbit["quotient_genus"],
        "pairs": [[m, k] for k in ks],
        "euler": "0",
    }
    if b.denominator != 1 or out != expect:
        return f"seifert {out} != {expect}"
    return None


def _check_d(d, orbit):
    g, g0 = genus(orbit), orbit["quotient_genus"]
    if sum(d) != g:
        return f"sum d = {sum(d)} != g = {g}"
    if d[0] != g0:
        return f"d_0 = {d[0]} != g0 = {g0}"
    closed = spectrum_closed_form(orbit)
    if list(d) != closed:
        return f"d = {d} != Chevalley-Weil {closed}"
    return None


def check_spectrum(out, orbit):
    m = orbit["m"]
    d = out.get("d")
    if out.get("m") != m or not isinstance(d, list) or len(d) != m:
        return f"malformed spectrum {out}"
    err = _check_d(d, orbit)
    if err:
        return err
    wall = sum(d[a] for a in range(1, m) if 2 * a < m) - sum(
        d[a] for a in range(1, m) if 2 * a > m
    )
    if out.get("wall_signature") != wall:
        return f"wall signature {out.get('wall_signature')} != {wall}"
    return None


def check_framing(out, orbit, N, level, truncation):
    B = framing_b(orbit, N)
    if out.get("B") != f"{B.numerator}/{B.denominator}":
        return f"B = {out.get('B')} != {B}"
    if out.get("group") != f"SU({N})":
        return f"group {out.get('group')}"
    phase = (B * Fraction(level, level + N)) % 1
    if out.get("phase_at_k") != f"{fmt(phase)} mod 1":
        return f"phase at k = {out.get('phase_at_k')} != {fmt(phase)}"
    series = out.get("series") or {}
    coeffs = [["0"] * n + [fmt((-B * N) ** n / math.factorial(n))] for n in range(truncation + 1)]
    expect = {
        "leading": f"{fmt(B % 1)} mod 1",
        "shift": N,
        "order": truncation,
        "coeffs": coeffs,
    }
    if series != expect:
        return f"series {series} != {expect}"
    return None


def _classes(N, l, z):
    """Multisets of N residues j in Z/l with sum j = -z mod l: the SU(N)
    classes whose l-th power is zeta_N^z, eigenvalue angles (z + N j)/(N l)."""
    return [c for c in combinations_with_replacement(range(l), N) if (sum(c) + z) % l == 0]


def _fixed(c, l, tau):
    return tuple(sorted((j + tau) % l for j in c)) == c


def strata_count(orbit, N):
    """Orbit counting over the center Z/N acting on tuples (z, c_1..c_b).
    Shifting by z' moves z to z + m z' and every angle by z'/N; a class with
    angles (z + N j)/(N l) maps into the same candidate set only when
    l z' = 0 mod N, and then j -> j + l z'/N."""
    m = orbit["m"]
    ls = [m] * len(orbit["branches"])
    total = 0
    for zp in range(N):
        if (m * zp) % N:
            continue
        for z in range(N):
            fixed = 1
            for l in ls:
                if (l * zp) % N:
                    fixed = 0
                    break
                tau = (l * zp // N) % l
                fixed *= sum(1 for c in _classes(N, l, z) if _fixed(c, l, tau))
                if not fixed:
                    break
            total += fixed
    if total % N:
        raise ValueError(f"orbit count {total}/{N} is not an integer")
    return total // N


# Stratum counts pinned by the test suite.
KNOWN_COUNTS = {("HYPER", 2): 33, ("M5", 2): 27}


def check_strata(out, orbit, N, name):
    strata = out.get("strata")
    if not isinstance(strata, list) or out.get("count") != len(strata):
        return f"count {out.get('count')} does not match the list"
    known = KNOWN_COUNTS.get((name, N))
    if known is not None and len(strata) != known:
        return f"{name} SU({N}) has {len(strata)} strata, expected {known}"
    expect = strata_count(orbit, N)
    if len(strata) != expect:
        return f"{len(strata)} strata, orbit counting gives {expect}"
    target = (genus(orbit) - 1) * (N * N - 1)
    for i, s in enumerate(strata):
        ranks = s.get("ranks")
        if ranks is None or len(ranks) != orbit["m"]:
            return f"stratum {i}: ranks {ranks}"
        if sum(ranks) != target:
            return f"stratum {i}: rank sum {sum(ranks)} != (g-1) dim G = {target}"
        if s.get("d_c") != ranks[0]:
            return f"stratum {i}: d_c {s.get('d_c')} != r_0 {ranks[0]}"
    return None


# ---------------------------------------------------------------------------
# level_sweep
# ---------------------------------------------------------------------------


def cyclotomic_complex(obj):
    """(value, sum of moduli of the terms) of a serialized Cyclotomic."""
    M = obj["conductor"]
    acc, scale = 0j, 0.0
    for j, c in enumerate(obj["coeffs"]):
        if c == "0":
            continue
        v = float(Fraction(c)) * cmath.exp(2j * cmath.pi * j / M)
        acc += v
        scale += abs(v)
    return acc, scale


def check_invariant(out, orbit, N, level, phases):
    value = out.get("value") or {}
    if value.get("level") != level:
        return f"level {value.get('level')} != {level}"
    B = framing_b(orbit, N)
    if out.get("framing", {}).get("B") != f"{B.numerator}/{B.denominator}":
        return f"framing B {out.get('framing')} != {B}"
    numeric = complex(*value["numeric"])
    # float re-evaluation of the emitted model
    acc, scale = 0j, 0.0
    for t in out["terms"]:
        q = Fraction(t["q"].removesuffix(" mod 1"))
        poly, poly_scale = 0j, 0.0
        for p, c in enumerate(t["coefficients"]):
            v, s = cyclotomic_complex(c)
            poly += v * level**p
            poly_scale += s * level**p
        acc += cmath.exp(2j * cmath.pi * float(q * level % 1)) * poly
        scale += poly_scale
    acc *= cmath.exp(2j * cmath.pi * float(B * Fraction(level, level + N) % 1))
    tol = 1e-9 * max(scale, 1.0)
    if abs(acc - numeric) > tol:
        return f"model re-evaluation {acc} != numeric {numeric}"
    exact, exact_scale = cyclotomic_complex(value["exact"])
    if abs(exact - numeric) > 1e-9 * max(exact_scale, 1.0):
        return f"exact value {exact} != numeric {numeric}"
    # every term's phase and coefficient field lies in Q(zeta_M) for the
    # predicted M, so the conductor used must divide it
    expect_m = predicted_conductor(orbit, N, level, phases)
    if expect_m % value["exact"]["conductor"]:
        return f"conductor {value['exact']['conductor']} does not divide {expect_m}"
    return None


# ---------------------------------------------------------------------------
# fit_recovery
# ---------------------------------------------------------------------------


def check_fit(out, terms, noise):
    got = {(t["q"], t["d"]): complex(*t["b"]) for t in out.get("terms", [])}
    truth = {(fmt(t["q"]), fmt(t["d"])): t["b"] for t in terms}
    if set(got) != set(truth):
        return f"recovered (q, d) {sorted(got)} != truth {sorted(truth)}"
    tol = 1e-2 if noise else 1e-6
    for key, b in truth.items():
        if abs(got[key] - b) > tol * abs(b):
            return f"b at {key}: {got[key]} != {b} (rel tol {tol})"
    return None
