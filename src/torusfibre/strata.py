"""Fixed point strata of the flat moduli space for G = SU(N).

A stratum is indexed by a center element zeta_N^z and one conjugacy class
c_i per branch orbit with c_i^{l_i} central equal to zeta_N^z, all taken
modulo the simultaneous center action.  Conjugacy classes are recorded by
their sorted eigenvalue angles as integer residues over one denominator,
which makes every operation here integer combinatorics.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import gcd, lcm

from .errors import (
    IncompatibleClass,
    InvariantViolation,
    NonIntegralRank,
    UnsupportedOrbitStructure,
)
from .orbit import total_genus, validate_orbit
from .spectrum import mu2_table

__all__ = [
    "ConjClassSU",
    "StratumDescriptor",
    "classes_with_power_central",
    "enumerate_strata",
    "count_strata_burnside",
    "root_eigendata",
    "stratum_ranks",
]


def _ratio(p, q):
    """p/q in lowest terms, as text."""
    g = gcd(p, q)
    return f"{p // g}/{q // g}"


@dataclass(frozen=True)
class ConjClassSU:
    """A conjugacy class of SU(N): N eigenvalue angles in [0,1) summing to an
    integer, stored sorted as residues[i] / denominator with no factor
    common to the denominator and all residues."""

    N: int
    residues: tuple
    denominator: int

    @classmethod
    def from_residues(cls, N, residues, denominator):
        """The class with angles r / denominator, for any ints r."""
        res = sorted(r % denominator for r in residues)
        if len(res) != N:
            raise ValueError(f"need {N} angles, got {len(res)}")
        if sum(res) % denominator != 0:
            raise ValueError(
                f"angles {[_ratio(r, denominator) for r in res]} do not sum to an integer"
            )
        g = gcd(denominator, *res)
        if g != 1:
            res = [r // g for r in res]
            denominator //= g
        return cls(N, tuple(res), denominator)

    @classmethod
    def from_angles(cls, N, angles):
        """The class with the given rational angles (ints or Fractions)."""
        den = lcm(*(a.denominator for a in angles))
        return cls.from_residues(N, [a.numerator * (den // a.denominator) for a in angles], den)

    @property
    def angles(self):
        """The sorted angles as Fractions (a read-only view)."""
        return tuple(Fraction(r, self.denominator) for r in self.residues)

    def residues_over(self, den):
        """The angles as integers over den, a multiple of the denominator."""
        scale = den // self.denominator
        return tuple(r * scale for r in self.residues)

    def power(self, p):
        return ConjClassSU.from_residues(
            self.N, [r * p for r in self.residues], self.denominator
        )

    def translate(self, t):
        """Multiply by the center element zeta_N^t."""
        den = lcm(self.denominator, self.N)
        shift = t * (den // self.N)
        return ConjClassSU.from_residues(
            self.N, [r + shift for r in self.residues_over(den)], den
        )

    def is_central(self):
        return len(set(self.residues)) == 1

    def to_json(self):
        return [_ratio(r, self.denominator) for r in self.residues]


@dataclass(frozen=True)
class StratumDescriptor:
    z: int
    classes: tuple  # of ConjClassSU, one per branch orbit
    z_delta_order: int
    c_delta: tuple  # of ConjClassSU, the classes c_i^{-k_i}
    ranks: tuple | None  # r_0 ... r_{m-1}, when all orbits are fixed points
    d_c: int | None

    def to_json(self):
        return {
            "z": self.z,
            "classes": [c.to_json() for c in self.classes],
            "Z_delta": self.z_delta_order,
            "c_delta": [c.to_json() for c in self.c_delta],
            "ranks": list(self.ranks) if self.ranks is not None else None,
            "d_c": self.d_c,
        }


def classes_with_power_central(N, l, z):
    """All SU(N) classes c with c^l = zeta_N^z as a central element.

    The eigenvalue angles of such a class lie in {(z + N j)/(N l) : 0 <= j < l};
    the SU(N) constraint keeps only multisets summing to an integer.
    """
    if l < 1:
        raise ValueError("power l must be positive")
    den = N * l
    return [
        ConjClassSU.from_residues(N, combo, den)
        for combo in combinations_with_replacement(range(z % N, den, N), N)
        if sum(combo) % den == 0
    ]


def enumerate_strata(data, group, with_ranks=True):
    """All strata for the given branch data, one descriptor per center orbit.

    The center element z' acts by (z, c_1..c_n) -> (z + m z', c_i zeta^{z' m_i}).
    Orbit representatives are the lexicographically least tuples (z, classes)
    in the angles, so output order is deterministic; the stabilizer order is
    N over the orbit size.  Ranks are attached when the rank formula applies
    (every branch orbit a fixed point), else left None; strata whose classes
    c_delta share their root data share ranks.
    """
    validate_orbit(data)
    N = group.N
    m = data.m
    orbit_sizes = data.orbit_sizes()
    k_invs = [pow(n, -1, l) for l, n in data.branches]
    # every angle of every class met here lies in (1/(N m))Z
    den = N * m
    moved = {}  # (class, t) -> class times zeta_N^t, per call

    def translate(c, t):
        out = moved.get((c, t))
        if out is None:
            out = moved[c, t] = c.translate(t)
        return out

    def key(t):
        return (t[0], tuple(c.residues_over(den) for c in t[1]))

    seen = set()
    reps = []
    for z in range(N):
        per_branch = [classes_with_power_central(N, l, z) for l, _ in data.branches]
        for combo in product(*per_branch):
            if (z, combo) in seen:
                continue
            orbit = {
                (
                    (z + m * zp) % N,
                    tuple(translate(c, zp * mi % N) for c, mi in zip(combo, orbit_sizes)),
                )
                for zp in range(N)
            }
            seen |= orbit
            reps.append((min(orbit, key=key), N // len(orbit)))
    reps.sort(key=lambda rep: key(rep[0]))

    rankable = with_ranks and data.branches and all(l == m for l, _ in data.branches)
    memo = {}  # root data of c_delta -> (ranks, d_c), per call
    out = []
    for (z, classes), z_delta_order in reps:
        desc = StratumDescriptor(
            z=z,
            classes=classes,
            z_delta_order=z_delta_order,
            c_delta=tuple(c.power(-k) for c, k in zip(classes, k_invs)),
            ranks=None,
            d_c=None,
        )
        if rankable:
            roots = tuple(tuple(root_eigendata(c, m)) for c in desc.c_delta)
            if roots not in memo:
                memo[roots] = stratum_ranks(data, desc, group)
            ranks, d_c = memo[roots]
            desc = replace(desc, ranks=ranks, d_c=d_c)
        out.append(desc)
    return out


def count_strata_burnside(data, group):
    """Independent stratum count: average over the center of the number of
    fixed tuples (orbit counting lemma)."""
    N = group.N
    m = data.m
    orbit_sizes = data.orbit_sizes()
    total = 0
    for zp in range(N):
        if (m * zp) % N != 0:
            continue
        for z in range(N):
            fixed = 1
            for (l, _), mi in zip(data.branches, orbit_sizes):
                cnt = sum(
                    1
                    for c in classes_with_power_central(N, l, z)
                    if c.translate(zp * mi) == c
                )
                fixed *= cnt
                if fixed == 0:
                    break
            total += fixed
    if N == 0 or total % N != 0:
        raise InvariantViolation(f"orbit count {total}/{N} is not an integer")
    return total // N


def root_eigendata(c, m):
    """Counts r^i of ordered root values: r^i = number of ordered pairs of
    distinct eigenvalue slots whose angle difference is i/m mod 1.  Both
    signs of each root are counted, so the total is N^2 - N."""
    den = c.denominator
    r = [0] * m
    for i, a in enumerate(c.residues):
        for j, b in enumerate(c.residues):
            if i == j:
                continue
            diff = (a - b) % den
            scaled, rest = divmod(diff * m, den)
            if rest:
                raise IncompatibleClass(
                    f"root value angle {_ratio(diff, den)} is not a multiple of 1/{m}"
                )
            r[scaled] += 1
    return r


def stratum_ranks(data, stratum, group):
    """Eigenspace ranks r_0 ... r_{m-1} of the stratum tangent action and the
    stratum dimension d_c = r_0, in integers from the root data r_s of each
    class of c_delta:

        2 m r_i = 2 dim G (g - 1)
                  + sum_s [rank G mu2_s(i) + sum_j r_s[j] mu2_s(i - j)]

    with mu2_s = mu2_table(m, n_s), twice the mu values.

    Only valid when every branch orbit is a single fixed point (l_s = m); the
    holomorphic fixed point count behind the formula has no extension to
    larger orbits here, so anything else is refused.
    """
    if not data.branches or any(l != data.m for l, _ in data.branches):
        raise UnsupportedOrbitStructure(
            "rank formula needs every branch orbit to be a fixed point (l = m)"
        )
    m = data.m
    g = total_genus(data)
    base = 2 * group.dim_G * (g - 1)
    terms = []
    for (_, n), c in zip(data.branches, stratum.c_delta):
        r_s = root_eigendata(c, m)
        terms.append((mu2_table(m, n), [(j, r) for j, r in enumerate(r_s) if r]))
    ranks = []
    for i in range(m):
        acc = base
        for mu2, support in terms:
            acc += group.rank * mu2[i] + sum(r * mu2[i - j] for j, r in support)
        # On strata of reducible connections (central classes) the count is an
        # index and can go negative; only integrality is demanded here.
        val, rest = divmod(acc, 2 * m)
        if rest:
            raise NonIntegralRank(f"rank r_{i} = {_ratio(acc, 2 * m)} is not an integer")
        ranks.append(val)
    if sum(ranks) != (g - 1) * group.dim_G:
        raise InvariantViolation(
            f"ranks sum to {sum(ranks)}, expected (g-1) dim G = {(g - 1) * group.dim_G}"
        )
    return tuple(ranks), ranks[0]
