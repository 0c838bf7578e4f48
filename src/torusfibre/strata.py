"""Fixed point strata of the flat moduli space for G = SU(N).

A stratum is indexed by a center element zeta_N^z and one conjugacy class
c_i per branch orbit with c_i^{l_i} central equal to zeta_N^z, all taken
modulo the simultaneous center action.  Conjugacy classes are recorded by
their sorted eigenvalue angles as integer residues over one denominator,
which makes every operation here integer combinatorics.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import combinations_with_replacement, product
from math import comb, gcd, prod
from operator import attrgetter, getitem

from .errors import (
    IncompatibleClass,
    InvariantViolation,
    NonIntegralRank,
    UnsupportedOrbitStructure,
    ValidationError,
)
from .orbit import validate_orbit
from .spectrum import check_branch_terms, mu2_table
from .value import Value

__all__ = [
    "MAX_TUPLES",
    "ConjClassSU",
    "StratumDescriptor",
    "classes_with_power_central",
    "enumerate_strata",
    "count_strata_burnside",
    "root_eigendata",
    "stratum_ranks",
]


# The most class tuples an enumeration visits, and the most angle multisets a
# class list searches; M5 SU(5), 80076 tuples, is the largest fixture.
MAX_TUPLES = 2**17


def _ratio(p, q):
    """p/q in lowest terms, as text."""
    g = gcd(p, q)
    return f"{p // g}/{q // g}"


class ConjClassSU(Value):
    """A conjugacy class of SU(N): N eigenvalue angles in [0,1) summing to an
    integer, stored sorted as residues[i] / denominator with no factor
    common to the denominator and all residues."""

    __slots__ = _fields = ("N", "residues", "denominator")
    _key = attrgetter(*_fields)

    def __init__(self, N, residues, denominator):
        self.N = N
        self.residues = residues
        self.denominator = denominator

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

    def moved(self, den, shift=0):
        """The angles as integers over den, a multiple of the denominator,
        each moved by shift, sorted mod den."""
        scale = den // self.denominator
        return tuple(sorted((r * scale + shift) % den for r in self.residues))

    def power(self, p):
        return ConjClassSU.from_residues(
            self.N, [r * p for r in self.residues], self.denominator
        )

    def to_json(self):
        return [_ratio(r, self.denominator) for r in self.residues]


class StratumDescriptor(Value):
    __slots__ = _fields = ("z", "classes", "z_delta_order", "c_delta", "ranks", "d_c")
    _key = attrgetter(*_fields)

    def __init__(self, z, classes, z_delta_order, c_delta, ranks, d_c):
        self.z = z
        self.classes = classes  # tuple of ConjClassSU, one per branch orbit
        self.z_delta_order = z_delta_order
        self.c_delta = c_delta  # tuple of ConjClassSU, the classes c_i^{-k_i}
        self.ranks = ranks  # r_0 ... r_{m-1} when all orbits are fixed points, else None
        self.d_c = d_c  # int, or None with ranks

    def to_json(self):
        """The fields in output order; the classes stay ConjClassSU values,
        which ``--format table`` resolves.  The JSON of ``strata`` is written
        from the fields by ``cli._write_strata``, which renders each class
        once per call."""
        return {
            "z": self.z,
            "classes": self.classes,
            "Z_delta": self.z_delta_order,
            "c_delta": self.c_delta,
            "ranks": self.ranks,
            "d_c": self.d_c,
        }


def classes_with_power_central(N, l, z):
    """All SU(N) classes c with c^l = zeta_N^z as a central element, in angle
    order (lexicographic in the sorted angles).

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


@lru_cache(maxsize=None)
def _class_table(N, l, z):
    """classes_with_power_central(N, l, z) as a tuple, built once; the angle
    multisets it would search are counted first and refused above
    MAX_TUPLES."""
    if comb(l + N - 1, N) > MAX_TUPLES:
        raise ValidationError(
            f"SU({N}) classes c with c^{l} central: more than "
            f"MAX_TUPLES = {MAX_TUPLES} angle multisets to search"
        )
    return tuple(classes_with_power_central(N, l, z))


def enumerate_strata(data, group):
    """All strata for the given branch data, one descriptor per center orbit.

    The center element z' acts by (z, c_1..c_n) -> (z + m z', c_i zeta^{z' m_i}).
    Orbit representatives are the lexicographically least tuples (z, classes)
    in the angles, so output order is deterministic.  Since z' moves z by
    m z' mod N, every orbit meets z < g = gcd(m, N) in exactly one orbit of
    H = {z' : m z' = 0 mod N}, the subgroup of order g, so only those z are
    visited and the stabilizer order is g over the H-orbit size.  Classes
    are numbered in angle order per branch, so a tuple of numbers orders as
    its classes do: the first tuple met in an H-orbit is its least member,
    and representatives come out sorted.  The class list of each (l, z) is
    built once, and the tuples to visit are counted from the lists and
    refused above MAX_TUPLES before any is visited.

    Ranks are attached when the rank formula applies (every branch orbit a
    fixed point), else left None.  Each class of each branch gets its branch
    vector v_s once, from its root data; a stratum sums one vector per
    branch, and stratum_ranks turns each distinct sum into ranks, with its
    integrality and sum checks, so strata with equal sums share one ranks
    tuple.  Where a z has one class per branch, its one sum adds the vector
    of each distinct (l, n) times the branches with it.  The entries the
    sums add are counted first (check_branch_terms).
    """
    validate_orbit(data)
    N = group.N
    m = data.m
    g = gcd(m, N)
    per_z = [[_class_table(N, l, z) for l, _ in data.branches] for z in range(g)]
    tuples = sum(prod(map(len, per_branch)) for per_branch in per_z)
    if tuples > MAX_TUPLES:
        raise ValidationError(
            f"SU({N}) strata of this orbit: {tuples} class tuples to visit, "
            f"above MAX_TUPLES = {MAX_TUPLES}"
        )
    rankable = data.branches and all(l == m for l, _ in data.branches)
    # Every branch of a rankable orbit has l = m, so the branches of a z
    # share one class list.  A list of one class gives one tuple, whose sum
    # adds the vector of each (l, n) once, times its branches; else each
    # tuple adds one vector per branch.
    types = Counter(data.branches)
    if rankable:
        check_branch_terms(m * sum(
            len(types) if len(cs[0]) == 1 else prod(map(len, cs)) * len(cs) for cs in per_z
        ), f"SU({N}) strata sums of {len(types)} distinct branch types (l, n)")
    # H acts on branch i by the shifts zeta_N^{h m_i}, h a multiple of N / g
    shifts = [[h * mi % N for h in range(0, N, N // g)] for mi in data.orbit_sizes()]
    branch = {}  # (l, n, z) -> per class: c^{-k}, and its branch vector if rankable
    memo = {}  # sum of branch vectors -> (ranks, d_c), per call

    out = []
    for z, per_branch in enumerate(per_z):
        if not all(per_branch):
            continue
        reps = product(*(range(len(cs)) for cs in per_branch))
        if g > 1:
            # perms[i][j][a]: the number of class a of branch i moved by the j-th shift
            perms = []
            for cs, (l, _), ts in zip(per_branch, data.branches, shifts):
                number = {c.moved(N * l): a for a, c in enumerate(cs)}
                perms.append([[number[c.moved(N * l, t * l)] for c in cs] for t in ts])
            seen = set()
            found = []
            for combo in reps:
                if combo in seen:
                    continue
                orbit = {tuple(p[j][a] for p, a in zip(perms, combo)) for j in range(g)}
                seen |= orbit
                found.append((combo, g // len(orbit)))
        else:
            found = ((combo, 1) for combo in reps)
        for cs, (l, n) in zip(per_branch, data.branches):
            if (l, n, z) not in branch:
                cds = [c.power(-pow(n, -1, l)) for c in cs]
                vs = [
                    _branch_vector(m, group.rank, n, tuple(root_eigendata(c, m))) for c in cds
                ] if rankable else []
                branch[l, n, z] = cds, vs
        per = [branch[l, n, z] for l, n in data.branches]
        per_delta, per_vector = zip(*per) if per else ((), ())
        shared = rankable and len(per_branch[0]) == 1 and tuple(map(sum, zip(*(
            [count * x for x in branch[l, n, z][1][0]] for (l, n), count in types.items()
        ))))
        for combo, z_delta_order in found:
            classes = tuple(map(getitem, per_branch, combo))
            c_delta = tuple(map(getitem, per_delta, combo))
            ranks = d_c = None
            if rankable:
                key = shared or tuple(map(sum, zip(*map(getitem, per_vector, combo))))
                if key not in memo:
                    memo[key] = stratum_ranks(data, group, key)
                ranks, d_c = memo[key]
            out.append(StratumDescriptor(z, classes, z_delta_order, c_delta, ranks, d_c))
    return out


def count_strata_burnside(data, group):
    """Independent stratum count: average over the center of the number of
    fixed tuples (orbit counting lemma).  zeta_N^t fixes a class when its
    angles over N l, moved by t l and sorted, come back; that count is kept
    per (l, t) for each z."""
    N = group.N
    m = data.m
    orbit_sizes = data.orbit_sizes()
    H = [zp for zp in range(N) if (m * zp) % N == 0]  # the z' that fix z
    total = 0
    for z in range(N):
        counts = {}  # (l, t) -> classes with c^l = zeta_N^z fixed by zeta_N^t
        for zp in H:
            fixed = 1
            for (l, _), mi in zip(data.branches, orbit_sizes):
                t = zp * mi % N
                if (l, t) not in counts:
                    cs = _class_table(N, l, z)
                    # the identity fixes every class
                    counts[l, t] = len(cs) if t == 0 else sum(
                        1 for c in cs if c.moved(N * l, t * l) == c.moved(N * l)
                    )
                fixed *= counts[l, t]
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


@lru_cache(maxsize=None)
def _branch_vector(m, rank, n, r_s):
    """v_s[i] = rank G mu2_s(i) + sum_j r_s[j] mu2_s(i - j) for the branch
    point with rotation number n and root data r_s: one pass over mu2_s
    rotated by j for each of the at most N^2 - N j with r_s[j] != 0."""
    mu2 = mu2_table(m, n)
    v = [rank * x for x in mu2]
    for j, r in enumerate(r_s):
        if r:
            v = [a + r * b for a, b in zip(v, mu2[m - j:] + mu2[:m - j])]
    return tuple(v)


def stratum_ranks(data, group, vector):
    """Eigenspace ranks r_0 ... r_{m-1} of the stratum tangent action and the
    stratum dimension d_c = r_0, in integers from ``vector``, the sum over
    the branch points s of the branch vectors v_s of the classes of c_delta:

        2 m r_i = 2 dim G (g - 1) + vector[i],
        v_s[i] = rank G mu2_s(i) + sum_j r_s[j] mu2_s(i - j)

    with r_s = root_eigendata(c_s, m) and mu2_s = mu2_table(m, n_s), twice
    the mu values (_branch_vector).

    Only valid when every branch orbit is a single fixed point (l_s = m); the
    holomorphic fixed point count behind the formula has no extension to
    larger orbits here, so anything else is refused.  For b fixed points
    over a quotient of genus g_q, Riemann-Hurwitz reads 2 (g - 1) =
    2 m (g_q - 1) + b (m - 1), so no genus is computed per vector: data is
    a valid orbit (enumerate_strata validates it, once per call).
    """
    if not data.branches or any(l != data.m for l, _ in data.branches):
        raise UnsupportedOrbitStructure(
            "rank formula needs every branch orbit to be a fixed point (l = m)"
        )
    m = data.m
    base = group.dim_G * (2 * m * (data.quotient_genus - 1) + len(data.branches) * (m - 1))
    ranks = []
    for i, v in enumerate(vector):
        a = base + v
        # On strata of reducible connections (central classes) the count is an
        # index and can go negative; only integrality is demanded here.
        val, rest = divmod(a, 2 * m)
        if rest:
            raise NonIntegralRank(f"rank r_{i} = {_ratio(a, 2 * m)} is not an integer")
        ranks.append(val)
    if 2 * sum(ranks) != base:
        raise InvariantViolation(
            f"ranks sum to {sum(ranks)}, expected (g-1) dim G = {base // 2}"
        )
    return tuple(ranks), ranks[0]
