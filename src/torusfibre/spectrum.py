"""Action of a finite order diffeomorphism on holomorphic differentials.

Everything here is exact in Q(zeta_m): mu sums with a literal brute-force
evaluator, holomorphic Lefschetz traces, eigenvalue multiplicities d_a and
the signature-cocycle count.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

import numpy as np

from .errors import DegenerateTerm, GcdViolation, NonIntegralMultiplicity
from .exact import Cyclotomic, cyclotomic_polynomial
from .orbit import total_genus, validate_orbit

__all__ = [
    "EigenSpectrum",
    "mu_value",
    "mu_bruteforce",
    "lefschetz_trace",
    "eigen_dimensions",
    "wall_signature",
]


@dataclass(frozen=True)
class EigenSpectrum:
    m: int
    d: tuple  # d[a] = multiplicity of eigenvalue e^{2 pi i a/m}

    def genus(self):
        return sum(self.d)

    def to_json(self):
        return {"m": self.m, "d": list(self.d), "wall_signature": wall_signature(self)}


def mu_value(m, n, a):
    """Closed form nbar - (m-1)/2 where n*nbar = a mod m, 0 <= nbar < m."""
    if m < 2:
        raise GcdViolation(f"order m = {m} must be at least 2")
    if gcd(n, m) != 1:
        raise GcdViolation(f"rotation number n = {n} is not a unit mod {m}")
    nbar = (pow(n, -1, m) * a) % m
    return Fraction(nbar) - Fraction(m - 1, 2)


@lru_cache(maxsize=64)
def _mu_tables(m):
    """Integer tables for the literal mu sum at order m.

    Wmat[j] holds prod_{i != j, 1<=i<=m-1} (1 - x^i) mod x^m - 1, so that
    (1 - zeta^j)^{-1} = Wmat[j]/m exactly.  R reduces a length-m coefficient
    vector modulo Phi_m.  All entries are small integers (worst case a few
    hundred for m <= 50), far inside int64 range.
    """

    def mul(a, b):
        out = [0] * m
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        out[(i + j) % m] += x * y
        return out

    factors = []
    for i in range(1, m):
        p = [0] * m
        p[0] += 1
        p[i] -= 1
        factors.append(p)
    one = [0] * m
    one[0] = 1
    prefix = [one]
    for p in factors:
        prefix.append(mul(prefix[-1], p))
    suffix = [one] * m
    for idx in range(m - 2, -1, -1):
        suffix[idx] = mul(factors[idx], suffix[idx + 1])
    Wmat = np.zeros((m, m), dtype=np.int64)
    for j in range(1, m):
        Wmat[j] = mul(prefix[j - 1], suffix[j])
    # sanity: (1 - x^j) * W_j = x^m - 1 ... = m at every root, i.e. the
    # product of all factors reduces to the constant m mod Phi_m
    phi = cyclotomic_polynomial(m)
    deg = len(phi) - 1
    R = np.zeros((deg, m), dtype=np.int64)
    cur = [0] * deg
    cur[0] = 1
    for t in range(m):
        R[:, t] = cur
        carry = cur[-1]
        cur = [0] + cur[:-1]
        if carry:
            for j in range(deg):
                cur[j] -= carry * phi[j]
    full = R @ np.asarray(mul(list(Wmat[1]), factors[0]), dtype=np.int64)
    assert full[0] == m and not full[1:].any(), "cofactor table failed self-check"
    return Wmat, R


def mu_bruteforce(m, n, a):
    """The literal sum -sum_{beta=1}^{m-1} zeta^{-a beta} / (1 - zeta^{n beta}),
    evaluated exactly in Q(zeta_m).

    Uses cached integer cofactor vectors for the inverses: each term is
    zeta^{-a beta} * W_{n beta} / m with W_j the product of the other
    (1 - zeta^i) factors, so the whole sum is an integer vector gather
    followed by one reduction modulo Phi_m.
    """
    if gcd(n, m) != 1:
        raise GcdViolation(f"rotation number n = {n} is not a unit mod {m}")
    Wmat, R = _mu_tables(m)
    beta = np.arange(1, m)
    rows = (n * beta) % m
    # multiplying by zeta^{-a beta} rotates coefficients: coeff t of the
    # term is W[n beta][(t + a beta) mod m]
    idx = (np.arange(m)[None, :] + (a * beta)[:, None]) % m
    acc = Wmat[rows[:, None], idx].sum(axis=0)
    reduced = R @ acc
    return Cyclotomic(m, [Fraction(-int(c), m) for c in reduced])


def lefschetz_trace(data, beta):
    """Trace of f^beta on holomorphic differentials, exact in Q(zeta_m).

    beta = 0 returns the genus.  For beta != 0 the holomorphic fixed point
    formula gives 1 - Tr(f^beta) as a sum over the fixed points of f^beta:
    every branch orbit whose size m_i divides beta contributes m_i points,
    each with local weight (1 - zeta_{l_i}^{n_i beta/m_i})^{-1}.  Orbits with
    l_i | beta are skipped only after confirming they contribute no fixed
    point of f^beta with nontrivial rotation (l_i | beta means f^beta is the
    identity near that orbit, excluded with beta != 0 mod m by m_i | beta
    failing... asserted below).
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
        w = (1 - Cyclotomic.zeta(m, (m // l) * rot)).inverse()
        acc = acc - mi * w
    return acc


def eigen_dimensions(data):
    """Multiplicities d_a of the eigenvalue zeta_m^a on differentials.

    Computed by averaging the traces: d_a = (1/m) sum_beta Tr(f^beta)
    zeta^{-a beta}.  Certified against the sum rule sum d_a = g, the
    quotient count d_0 = quotient genus, and (when every branch orbit is a
    single fixed point) the closed form m d_a = g - 1 + sum_j mu_m^a(n_j)
    for a != 0.
    """
    validate_orbit(data)
    m = data.m
    g = total_genus(data)
    traces = [lefschetz_trace(data, beta) for beta in range(m)]
    d = []
    for a in range(m):
        acc = Cyclotomic.from_rational(0, m)
        for beta, tr in enumerate(traces):
            acc = acc + tr * Cyclotomic.zeta(m, (-a * beta) % m)
        if not acc.is_rational():
            raise NonIntegralMultiplicity(f"trace average for a = {a} is irrational")
        val = acc.rational_value() / m
        if val.denominator != 1 or val < 0:
            raise NonIntegralMultiplicity(
                f"trace average for a = {a} gives multiplicity {val}"
            )
        d.append(int(val))
    if sum(d) != g:
        raise NonIntegralMultiplicity(
            f"multiplicities sum to {sum(d)}, genus is {g}; trace sum inconsistent"
        )
    if d[0] != data.quotient_genus:
        raise NonIntegralMultiplicity(
            f"invariant multiplicity {d[0]} differs from quotient genus "
            f"{data.quotient_genus}"
        )
    if all(l == m for l, _ in data.branches) and data.branches:
        for a in range(1, m):
            closed = Fraction(g - 1 + sum(mu_value(m, n, a) for _, n in data.branches), m)
            if closed != d[a]:
                raise NonIntegralMultiplicity(
                    f"closed form gives d_{a} = {closed}, trace average {d[a]}"
                )
    return EigenSpectrum(m=m, d=tuple(d))


def wall_signature(spec):
    """Signature cocycle count: sum over eigenvalues of the sign of the
    imaginary part, i.e. sum_{0<a<m/2} d_a - sum_{m/2<a<m} d_a."""
    m = spec.m
    pos = sum(spec.d[a] for a in range(1, m) if 2 * a < m)
    neg = sum(spec.d[a] for a in range(1, m) if 2 * a > m)
    return pos - neg
