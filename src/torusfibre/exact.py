"""Exact arithmetic substrate: phases in Q/Z, cyclotomic field elements and
truncated symbolic phase series.

Cyclotomic values are kept in canonical form, i.e. reduced modulo the M-th
cyclotomic polynomial over the power basis 1, z, ..., z^(phi(M)-1) with
z = exp(2*pi*i/M).  Equality of canonical forms is exact equality in Q(z_M).
Conductors are only ever changed by explicit embedding into a common multiple
(smallest lcm, no global conductor).
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, factorial

__all__ = [
    "cyclotomic_polynomial",
    "euler_phi",
    "Cyclotomic",
    "PhaseQ",
    "PhaseSeries",
    "format_rational",
]


def format_rational(r):
    r = Fraction(r)
    return f"{r.numerator}/{r.denominator}" if r.denominator != 1 else str(r.numerator)


def _trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _divisors(m):
    out = [d for d in range(1, m + 1) if m % d == 0]
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m):
    """Integer coefficients of Phi_m, low degree first, monic."""
    if m == 1:
        return (-1, 1)
    # (x^m - 1) / prod_{d | m, d < m} Phi_d, exact division of monic polys
    num = [0] * (m + 1)
    num[0], num[m] = -1, 1
    for d in _divisors(m)[:-1]:
        den = cyclotomic_polynomial(d)
        num = _polydiv_exact(num, den)
    return tuple(num)


def _polydiv_exact(num, den):
    """Exact division of integer polynomials, den monic."""
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c == 0:
            continue
        out[i - dd] = c
        for j, b in enumerate(den):
            num[i - dd + j] -= c * b
    assert not any(num), "non-exact polynomial division"
    return out


@lru_cache(maxsize=None)
def euler_phi(m):
    return len(cyclotomic_polynomial(m)) - 1


def _reduce_mod_phi(coeffs, m):
    """Reduce a coefficient list modulo Phi_m; returns tuple of Fractions of
    length phi(m)."""
    phi = cyclotomic_polynomial(m)
    deg = len(phi) - 1
    work = [Fraction(c) for c in coeffs]
    for i in range(len(work) - 1, deg - 1, -1):
        c = work[i]
        if c == 0:
            continue
        work[i] = Fraction(0)
        for j in range(deg):
            work[i - deg + j] -= c * phi[j]
    work = work[:deg]
    work += [Fraction(0)] * (deg - len(work))
    return tuple(work)


class Cyclotomic:
    """An element of Q(zeta_M) in canonical form."""

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor, coeffs):
        if conductor < 1:
            raise ValueError("conductor must be positive")
        self.conductor = conductor
        self.coeffs = _reduce_mod_phi(coeffs, conductor)

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_rational(cls, r, conductor=1):
        c = [Fraction(0)] * euler_phi(conductor)
        c[0] = Fraction(r)
        return cls(conductor, c)

    @classmethod
    def zeta(cls, m, exponent=1):
        """zeta_m ** exponent."""
        e = exponent % m
        c = [Fraction(0)] * (e + 1)
        c[e] = Fraction(1)
        return cls(m, c)

    # -- conductor handling ---------------------------------------------

    def embed(self, conductor):
        """Embed into Q(zeta_M') for a multiple M' of the conductor."""
        if conductor == self.conductor:
            return self
        if conductor % self.conductor != 0:
            raise ValueError(
                f"cannot embed conductor {self.conductor} into {conductor}"
            )
        t = conductor // self.conductor
        out = [Fraction(0)] * ((len(self.coeffs) - 1) * t + 1)
        for k, c in enumerate(self.coeffs):
            out[k * t] = c
        return Cyclotomic(conductor, out)

    @staticmethod
    def _common(a, b):
        m = lcm(a.conductor, b.conductor)
        return a.embed(m), b.embed(m)

    def _coerce(self, other):
        if isinstance(other, Cyclotomic):
            return other
        if isinstance(other, (int, Fraction)):
            return Cyclotomic.from_rational(other, 1)
        return None

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = Cyclotomic._common(self, other)
        return Cyclotomic(a.conductor, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.conductor, [-c for c in self.coeffs])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Cyclotomic(self.conductor, [c * other for c in self.coeffs])
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        a, b = Cyclotomic._common(self, other)
        out = [Fraction(0)] * (len(a.coeffs) + len(b.coeffs) - 1)
        for i, x in enumerate(a.coeffs):
            if x == 0:
                continue
            for j, y in enumerate(b.coeffs):
                if y:
                    out[i + j] += x * y
        return Cyclotomic(a.conductor, out)

    __rmul__ = __mul__

    def inverse(self):
        """Multiplicative inverse via extended gcd with Phi_M."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic element")
        phi = [Fraction(c) for c in cyclotomic_polynomial(self.conductor)]
        # extended Euclid in Q[x]: t1*self + (...)*phi = constant gcd, since
        # Phi_M is irreducible over Q
        r0, r1 = phi, _trim([Fraction(c) for c in self.coeffs])
        t0, t1 = [Fraction(0)], [Fraction(1)]
        while len(r1) > 1:
            q, r = _poly_divmod_q(r0, r1)
            t0, t1 = t1, [a - b for a, b in _zip_pad(t0, _poly_mul_q(q, t1))]
            r0, r1 = r1, _trim(r)
        if not r1 or r1[0] == 0:
            raise ZeroDivisionError("element is a zero divisor (not canonical?)")
        inv_c = 1 / r1[0]
        return Cyclotomic(self.conductor, [c * inv_c for c in t1])

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        if isinstance(other, Cyclotomic):
            return self * other.inverse()
        return NotImplemented

    def __pow__(self, e):
        if e < 0:
            return self.inverse() ** (-e)
        out = Cyclotomic.from_rational(1, 1)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    # -- predicates and conversions --------------------------------------

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def is_rational(self):
        return all(c == 0 for c in self.coeffs[1:])

    def rational_value(self):
        if not self.is_rational():
            raise ValueError(f"not a rational value: {self!r}")
        return self.coeffs[0]

    def galois(self, t):
        """The Galois map zeta -> zeta^t, for t a unit modulo the conductor."""
        if gcd(t, self.conductor) != 1:
            raise ValueError("galois exponent must be a unit mod the conductor")
        out = [Fraction(0)] * self.conductor
        for k, c in enumerate(self.coeffs):
            out[(k * t) % self.conductor] += c
        return Cyclotomic(self.conductor, out)

    def conjugate(self):
        return self.galois(self.conductor - 1) if self.conductor > 1 else self

    def to_complex(self):
        z = cmath.exp(2j * cmath.pi / self.conductor)
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * z + complex(c)
        return acc

    def to_mpc(self, ctx):
        """High precision complex value under an mpmath context."""
        z = ctx.expjpi(ctx.mpf(2) / self.conductor)
        acc = ctx.mpc(0)
        for c in reversed(self.coeffs):
            acc = acc * z + ctx.mpf(c.numerator) / c.denominator
        return acc

    # -- comparisons, hashing, repr ---------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = Cyclotomic._common(self, other)
        return a.coeffs == b.coeffs

    __hash__ = None

    def __repr__(self):
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            elif k == 1:
                terms.append(f"{c}*z{self.conductor}")
            else:
                terms.append(f"{c}*z{self.conductor}^{k}")
        return " + ".join(terms) if terms else "0"

    # -- serialization ----------------------------------------------------

    def to_json(self):
        return {
            "conductor": self.conductor,
            "coeffs": [format_rational(c) for c in self.coeffs],
        }

    @classmethod
    def from_json(cls, obj):
        return cls(obj["conductor"], [Fraction(s) for s in obj["coeffs"]])


def _zip_pad(a, b):
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    b = list(b) + [Fraction(0)] * (n - len(b))
    return list(zip(a, b))


def _poly_mul_q(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1) if a and b else [Fraction(0)]
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_divmod_q(a, b):
    a = [Fraction(c) for c in a]
    b = _trim([Fraction(c) for c in b])
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    lead = b[-1]
    for i in range(len(a) - 1, len(b) - 2, -1):
        c = a[i] / lead
        if c == 0:
            continue
        q[i - (len(b) - 1)] = c
        for j, bc in enumerate(b):
            a[i - (len(b) - 1) + j] -= c * bc
    return q, _trim(a)


class PhaseQ:
    """A phase exp(2*pi*i*q) represented by q in Q/Z, stored in [0, 1)."""

    __slots__ = ("q",)

    def __init__(self, q):
        self.q = Fraction(q) % 1

    def __add__(self, other):
        if isinstance(other, PhaseQ):
            return PhaseQ(self.q + other.q)
        if isinstance(other, (int, Fraction)):
            return PhaseQ(self.q + other)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return PhaseQ(-self.q)

    def scale(self, k):
        """k*q mod 1 for an integer k."""
        return PhaseQ(self.q * k)

    def to_cyclotomic(self, conductor=None):
        den = self.q.denominator
        m = den if conductor is None else conductor
        if m % den != 0:
            raise ValueError(f"denominator {den} does not divide conductor {m}")
        return Cyclotomic.zeta(m, self.q.numerator * (m // den))

    def to_complex(self):
        return cmath.exp(2j * cmath.pi * float(self.q))

    def to_mpc(self, ctx):
        return ctx.expjpi(2 * ctx.mpf(self.q.numerator) / self.q.denominator)

    def __eq__(self, other):
        if isinstance(other, PhaseQ):
            return self.q == other.q
        if isinstance(other, (int, Fraction)):
            return self.q == Fraction(other) % 1
        return NotImplemented

    def __lt__(self, other):
        return self.q < other.q

    def __hash__(self):
        return hash(("PhaseQ", self.q))

    def __repr__(self):
        return f"{format_rational(self.q)} mod 1"

    def to_json(self):
        return f"{format_rational(self.q)} mod 1"

    @classmethod
    def from_json(cls, s):
        if isinstance(s, str) and s.endswith(" mod 1"):
            s = s[: -len(" mod 1")]
        return cls(Fraction(s))


class PhaseSeries:
    """exp(2*pi*i*A*k/(k+h)) as exp(2*pi*i*A) * sum_n c_n/(k+h)^n, truncated.

    The symbol Pi stands for 2*pi*i, kept uninterpreted so every coefficient
    lives in Q[Pi]; c_n = (-Pi*A*h)^n / n!.  Numeric evaluation substitutes a
    high precision value for Pi only at output time.
    """

    __slots__ = ("leading", "shift", "coeffs", "order")

    def __init__(self, leading, shift, coeffs, order):
        self.leading = leading          # PhaseQ
        self.shift = shift              # non-negative integer h
        self.coeffs = [tuple(Fraction(c) for c in poly) for poly in coeffs]
        self.order = order
        assert len(self.coeffs) == order + 1
        assert self.coeffs[0] and self.coeffs[0][0] == 1

    @classmethod
    def from_exponent(cls, amount, shift, order):
        """Series for exp(2*pi*i*amount*k/(k+shift)) to the given order."""
        amount = Fraction(amount)
        coeffs = []
        for n in range(order + 1):
            poly = [Fraction(0)] * n + [Fraction((-amount * shift) ** n, factorial(n))]
            coeffs.append(poly)
        return cls(PhaseQ(amount), shift, coeffs, order)

    def eval_numeric(self, k, ctx=None):
        """Evaluate at integer level k; complex (or mpmath mpc if ctx given)."""
        if ctx is None:
            pi_val = 2j * cmath.pi
            lead = self.leading.to_complex()
            acc = 0j
        else:
            pi_val = 2j * ctx.pi
            lead = self.leading.to_mpc(ctx)
            acc = ctx.mpc(0)
        for n, poly in enumerate(self.coeffs):
            val = 0
            for p, c in reversed(list(enumerate(poly))):
                val = val + (float(c) if ctx is None else ctx.mpf(c.numerator) / c.denominator) * pi_val**p
            acc += val / (k + self.shift) ** n
        return lead * acc

    def to_json(self):
        return {
            "leading": self.leading.to_json(),
            "shift": self.shift,
            "order": self.order,
            "coeffs": [[format_rational(c) for c in poly] for poly in self.coeffs],
        }
