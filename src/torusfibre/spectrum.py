"""Action of a finite order diffeomorphism on holomorphic differentials.

The eigenvalue multiplicities d_a come from the Chevalley-Weil closed form
in integers, and the mu weights from the closed form nbar - (m-1)/2.  The
holomorphic Lefschetz traces, whose average over the group gives the same
d_a, are the tests' oracle for the former; the brute-force root-of-unity
sum for mu lives with the other literal routes in tests/oracles.py.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import attrgetter

from .errors import DegenerateTerm, GcdViolation, NonIntegralMultiplicity, ValidationError
from .exact import Cyclotomic, inverse_one_minus_zeta
from .orbit import total_genus, validate_orbit
from .value import Value

__all__ = [
    "MAX_BRANCH_TERMS",
    "check_branch_terms",
    "EigenSpectrum",
    "mu_value",
    "mu2_table",
    "lefschetz_trace",
    "eigen_dimensions",
    "wall_signature",
]


# The most branch terms a spectrum adds, (m - 1) times the distinct (l, n)
# branch types, and the most entries the strata sums of an orbit add, m per
# branch vector summed (strata.enumerate_strata).  At m = 2**16 with 64
# fixed-point types, just inside, the spectrum takes 0.5 to 0.7 s and
# strata SU(1) 1.2 s (Python 3.11, shared 2-vCPU VM); 66 types are refused.
MAX_BRANCH_TERMS = 2**22


def check_branch_terms(terms, what):
    """terms, if at most MAX_BRANCH_TERMS; a ValidationError naming what
    otherwise."""
    if terms > MAX_BRANCH_TERMS:
        raise ValidationError(f"{what}: {terms} terms to add, above MAX_BRANCH_TERMS = {MAX_BRANCH_TERMS}")


class EigenSpectrum(Value):
    __slots__ = _fields = ("m", "d")
    _key = attrgetter(*_fields)

    def __init__(self, m, d):
        self.m = m
        self.d = d  # tuple, d[a] = multiplicity of eigenvalue e^{2 pi i a/m}

    def to_json(self):
        return {"m": self.m, "d": list(self.d), "wall_signature": wall_signature(self)}


@lru_cache(maxsize=None)
def mu2_table(m, n):
    """Twice the mu values as integers: entry a is 2 * mu_value(m, n, a) =
    2 nbar - (m - 1), with n * nbar = a mod m and 0 <= nbar < m."""
    if m < 2:
        raise GcdViolation(f"order m = {m} must be at least 2")
    if gcd(n, m) != 1:
        raise GcdViolation(f"rotation number n = {n} is not a unit mod {m}")
    k = pow(n, -1, m)
    return tuple(2 * (k * a % m) - (m - 1) for a in range(m))


def mu_value(m, n, a):
    """Closed form nbar - (m-1)/2 where n*nbar = a mod m, 0 <= nbar < m."""
    return Fraction(mu2_table(m, n)[a % m], 2)


def lefschetz_trace(data, beta):
    """Trace of f^beta on holomorphic differentials, exact in Q(zeta_m).

    beta = 0 returns the genus.  For beta != 0 the holomorphic fixed point
    formula gives 1 - Tr(f^beta) as a sum over the fixed points of f^beta:
    every branch orbit whose size m_i divides beta contributes m_i points,
    each with local weight (1 - zeta_{l_i}^{n_i beta/m_i})^{-1}.  A fixed
    point with trivial rotation (l_i | n_i beta/m_i) would make that weight
    infinite; it cannot occur with beta != 0 mod m and is refused.
    """
    m = data.m
    beta %= m
    if beta == 0:
        return Cyclotomic.from_rational(total_genus(data), m)
    acc = Cyclotomic.from_rational(1, m)
    for l, n in data.branches:
        mi = m // l
        if beta % mi != 0:
            continue
        rot = (n * (beta // mi)) % l
        if rot == 0:
            raise DegenerateTerm(
                f"fixed point of f^{beta} with trivial rotation at an orbit of "
                f"isotropy {l}; trace formula degenerates"
            )
        acc = acc - mi * inverse_one_minus_zeta(m, mi * rot)
    return acc


def eigen_dimensions(data):
    """Multiplicities d_a of the eigenvalue zeta_m^a on differentials.

    Chevalley-Weil: d_0 is the quotient genus g_0 and, for a != 0,

        d_a = g_0 - 1 + sum_i ((a k_i) mod l_i) / l_i,   k_i = n_i^{-1} mod l_i,

    summed over the branch orbits; it is evaluated as an integer sum over
    the common denominator m, one term per distinct (l, n) times the number
    of branches with it.  Those (m - 1) terms per type are counted first
    and refused above MAX_BRANCH_TERMS.  Certified on every call: each d_a
    is a non-negative integer, and g minus the d_a with a != 0 is the
    quotient genus (the sum rule sum d_a = g with d_0 = g_0).  The average
    of the Lefschetz traces (lefschetz_trace) is the independent oracle.
    """
    validate_orbit(data)
    m = data.m
    types = Counter(data.branches)
    check_branch_terms((m - 1) * len(types), f"spectrum of {len(types)} distinct branch types (l, n)")
    g = total_genus(data)
    g0 = data.quotient_genus
    terms = [(pow(n, -1, l), l, m // l * count) for (l, n), count in types.items()]
    d = [None]
    for a in range(1, m):
        total = sum(a * k % l * mi for k, l, mi in terms)
        val, rest = divmod(total, m)
        val += g0 - 1
        if rest or val < 0:
            raise NonIntegralMultiplicity(
                f"closed form gives multiplicity d_{a} = {Fraction(total, m) + g0 - 1}"
            )
        d.append(val)
    d[0] = g - sum(d[1:])
    if d[0] != g0:
        raise NonIntegralMultiplicity(
            f"multiplicities d_1..d_{m - 1} leave d_0 = {d[0]} of genus {g}, "
            f"quotient genus is {g0}; branch data inconsistent"
        )
    return EigenSpectrum(m=m, d=tuple(d))


def wall_signature(spec):
    """Signature cocycle count: sum over eigenvalues of the sign of the
    imaginary part, i.e. sum_{0<a<m/2} d_a - sum_{m/2<a<m} d_a."""
    m = spec.m
    pos = sum(spec.d[a] for a in range(1, m) if 2 * a < m)
    neg = sum(spec.d[a] for a in range(1, m) if 2 * a > m)
    return pos - neg
