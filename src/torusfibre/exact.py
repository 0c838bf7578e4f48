"""Exact arithmetic substrate: phases in Q/Z, cyclotomic field elements and
truncated symbolic phase series.

Cyclotomic values are kept in canonical form, i.e. reduced modulo the M-th
cyclotomic polynomial over the power basis 1, z, ..., z^(phi(M)-1) with
z = exp(2*pi*i/M), stored as integer numerators over one positive common
denominator with no common factor.  Equality of canonical forms is exact
equality in Q(z_M).  Conductors are only ever changed by explicit embedding
into a common multiple (smallest lcm, no global conductor).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import gcd, lcm, prod
from operator import add, sub

from .errors import ValidationError

__all__ = [
    "cyclotomic_polynomial",
    "euler_phi",
    "Cyclotomic",
    "inverse_one_minus_zeta",
    "PhaseQ",
    "PhaseSeries",
    "format_rational",
    "rational_from_json",
]


def format_rational(r):
    r = Fraction(r)
    return f"{r.numerator}/{r.denominator}" if r.denominator != 1 else str(r.numerator)


def rational_from_json(value, what):
    """value, a string p/q or a JSON number, as (numerator, denominator) in
    lowest terms; a ValidationError naming what otherwise, or for a decimal
    exponent above 4300 (int_max_str_digits)."""
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ValidationError(f"{what} is {value!r}, not a string p/q or a number")
    try:
        return _rational(value)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ValidationError(f"{what} = {value!r}: {exc}") from None


@lru_cache(maxsize=None)
def _rational(value):
    if isinstance(value, int):
        return value, 1
    if isinstance(value, str):
        num, slash, den = value.partition("/")
        parts = num[1:] if num[:1] in "+-" else num, den if slash else "1"
        if all(p.isascii() and p.isdigit() for p in parts) and int(parts[1]):
            g = gcd(int(num), int(parts[1]))
            return int(num) // g, int(parts[1]) // g
        exp = value.strip().lower().partition("e")[2]
        exp = (exp[1:] if exp[:1] in "+-" else exp).replace("_", "").lstrip("0")
        if exp.isascii() and exp.isdigit() and (len(exp) > 4 or int(exp) > 4300):
            raise ValueError(f"decimal exponent {exp} is beyond 4300")
    r = Fraction(value)
    return r.numerator, r.denominator


@lru_cache(maxsize=None)
def _prime_factors(m):
    """The primes dividing m, ascending, as a tuple."""
    out, p = [], 2
    while p * p <= m:
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out.append(m)
    return tuple(out)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m):
    """Integer coefficients of Phi_m, low degree first, monic.

    Phi_m(x) = Phi_r(x^(m/r)) for r the product of the primes dividing m.
    For r > 1, Phi_r is the power series prod_{d | r} (1 - x^d)^mu(r/d)
    kept to its phi(r) + 1 terms, so a factor with d > phi(r) is 1 and is
    skipped.  Times (1 - x^d) is one slice difference; over (1 - x^d) is a
    running sum along each residue class mod d, or block by block of d
    terms, whichever takes fewer Python-level steps.
    """
    primes = _prime_factors(m)
    r = prod(primes)
    if r == 1:
        return (-1, 1)
    n = euler_phi(r) + 1
    poly = [1] + [0] * (n - 1)
    for mask in range(1 << len(primes)):
        picked = [p for i, p in enumerate(primes) if mask >> i & 1]
        d = r // prod(picked)
        if d >= n:
            continue
        if len(picked) % 2 == 0:
            poly[d:] = map(sub, poly[d:], poly[:n - d])
        elif d * d < n:
            for c in range(d):
                poly[c::d] = accumulate(poly[c::d])
        else:
            for i in range(d, n, d):
                poly[i:i + d] = map(add, poly[i:i + d], poly[i - d:i])
    s = m // r
    out = [0] * ((n - 1) * s + 1)
    out[::s] = poly
    return tuple(out)


@lru_cache(maxsize=None)
def euler_phi(m):
    """m prod_{p | m} (1 - 1/p), from the primes of m: no Phi_m is built."""
    primes = _prime_factors(m)
    return m // prod(primes) * prod(p - 1 for p in primes)


@lru_cache(maxsize=None)
def _phi_tail(m):
    """phi(m) and the nonzero coefficients of Phi_m below the leading one,
    grouped by value: ((c, (j, ...)), ...)."""
    phi = cyclotomic_polynomial(m)
    deg = len(phi) - 1
    groups = {}
    for j, c in enumerate(phi[:deg]):
        if c:
            groups.setdefault(c, []).append(j)
    return deg, tuple((c, tuple(js)) for c, js in sorted(groups.items()))


def _reduce(nums, m):
    """Reduce the integer coefficient list nums (consumed) modulo Phi_m and
    return the phi(m) coefficients of the remainder as a list.

    x^m = 1 is folded in first.  Then, with r the product of the primes of
    m, the remainder comes down the tower (_tower) when m > 1 and fewer
    than r / 4 of the coefficients are nonzero, and from one long division
    by Phi_m (_divide) otherwise: a sparse vector at a prime or a prime
    power takes the tower too.  The long division is the cheaper one for
    dense input at small conductors, where the tower pays a Python-level
    step per class.  Both routes give the same remainder."""
    n = len(nums)
    if n > m:
        for i in range(m, n):
            if nums[i]:
                nums[i % m] += nums[i]
        del nums[m:]
    if m > 1 and 4 * (len(nums) - nums.count(0)) < prod(_prime_factors(m)):
        return _tower(nums, m)
    return _divide(nums, m)


def _divide(nums, m):
    """nums (consumed) modulo Phi_m by long division, from the top down to
    x^phi(m), visiting only the nonzero coefficients of Phi_m; the phi(m)
    coefficients of the remainder as a list."""
    n = len(nums)
    deg, tail = _phi_tail(m)
    for i in range(n - 1, deg - 1, -1):
        c = nums[i]
        if c:
            base = i - deg
            for p, js in tail:
                cp = c * p
                for j in js:
                    nums[base + j] -= cp
    if n > deg:
        del nums[deg:]
    else:
        nums.extend([0] * (deg - n))
    return nums


def _tower(g, m):
    """g (consumed, at most m entries) modulo Phi_m, m > 1, down the
    cyclotomic tower, as a list of phi(m).  A zero class costs one test.

    For m a prime p, y^(p-1) is -(1 + y + ... + y^(p-2)).  For m not
    squarefree, with r the product of its primes and s = m / r,
    Phi_m(x) = Phi_r(x^s): the class g[c::s] is a polynomial in x^s whose
    remainder mod Phi_r fills the class c of the result, with no division.
    For m squarefree with largest prime p and n = m / p, Phi_m divides
    Phi_n(y^p): each class g[c::p] is reduced mod Phi_n, which leaves
    p phi(n) coefficients, and only their top phi(n) are long-divided by
    Phi_m."""
    primes = _prime_factors(m)
    if primes == (m,):
        if len(g) < m:
            return g + [0] * (m - 1 - len(g))
        t = g.pop()
        return [c - t for c in g] if t else g
    squarefree = prod(primes) == m
    s = primes[-1] if squarefree else m // prod(primes)
    out = [0] * (s * euler_phi(m // s))
    for c in range(s):
        part = g[c::s]
        if any(part):
            out[c::s] = _tower(part, m // s)
    return _divide(out, m) if squarefree else out


def reduce_rows(rows, m):
    """sum_c rows[c] z^c for integer lists rows of one length, reduced mod
    Phi_m column by column, as at most phi(m) lists, the last one nonzero
    unless it is the only one."""
    if len(rows) > euler_phi(m):
        rows = [list(r) for r in zip(*(_reduce(list(col), m) for col in zip(*rows)))]
    while len(rows) > 1 and not any(rows[-1]):
        rows.pop()
    return rows


def _fill(obj, conductor, nums, den):
    """Store the reduced integer coefficients nums over den > 0 in obj,
    divided by their common factor."""
    g = gcd(den, *nums)
    obj.conductor = conductor
    obj.numerators = tuple(c // g for c in nums) if g != 1 else tuple(nums)
    obj.denominator = den // g
    return obj


# Cyclotomic.to_float64 sums a value over its nonzero terms when its power
# basis has more than STEPS_PER_TERM coefficients per term.  A term, one
# cosine and sine at SUM_PRECISION bits, costs about 4 Horner steps of
# to_mpc at 128 bits (14 us against 3.6 us at M = 2940, 3 to 5.4 steps at
# the conductors 300 to 2388, on a shared 2-vCPU VM).  4, at that ratio,
# keeps a value the sum cannot certify (a real one, say), which pays for
# both, within about twice its Horner.
STEPS_PER_TERM = 4
# Working precision of that sum, whatever the precision of the Horner whose
# float64 pair it certifies.
SUM_PRECISION = 140


def _certified_pair(x, prec, terms, den):
    """The float64 pair of x.to_mpc(prec) as a complex, decided from the
    terms of x, or None where they do not decide it.

    terms lists pairs (e, n) of ints, 0 <= e < M = x.conductor, with
    x = S = sum_e n zeta_M^e / den.  S is summed at w = SUM_PRECISION
    bits: zeta^e is the cosine and sine of pi times 2e/M rounded to w bits,
    each rounded down to a multiple of 2^-(w + 8) and multiplied by n
    exactly.  Each component of S and of H = x.to_mpc(prec) then lies
    within B = B_S + B_H of that of x, with u = 2^-prec, phi = phi(M) and
    A = sum_j |c_j| / d over the reduced numerators c_j / d of x:

    B_S = 16 2^-w sum |n| / den.  Per term and component, the angle
    2e/M < 2 rounds by at most 2 2^-w, so pi times it by less than
    7 2^-w, which cosine and sine do not amplify; mpmath's cosine and
    sine, computed with 10 guard bits and rounded, add at most 2 2^-w, and
    rounding down 2^-(w + 8): less than 10 2^-w.

    B_H = (32 phi + 8) u A.  H is the recurrence h <- h r + a_j over the
    coefficients a_j = c_j / d, from the top, with r the rotation
    exp(2 pi i / M) rounded as above at prec bits, so |r - z| < 10 u.
    Every rounding in it (a product component formed exactly, a sum, each
    of the two in n / d) errs by at most 2 u times the exact result: half
    an ulp is at most u, and mpf_add's shortcut for an operand far below
    the other adds at most an ulp / 16.  While the error E so far is below
    A, |h| <= A exactly and |H| <= 2 A, so a step adds at most
    10 u |E| + 10 u A (rotation) + 2.9 u 2.01 A (product) +
    2 u (2.01 A + 1.01 |a_j|) (sum) + 2.01 u |a_j| (quotient)
    < 10 u |E| + 20 u A + 4.1 u |a_j|, and after at most phi steps
    |E| <= exp(10 phi u) (20 phi + 4.1) u A < (32 phi + 8) u A, as
    phi u <= 2^-31 (phi <= M <= 2^22 in evaluate_invariant, prec >= 53).

    If S_c - B and S_c + B, rounded outward to w bits, do not enclose 0 and
    give the same float64 (compared by float.hex, so -0.0 is not 0.0),
    then H_c lies between them and float(H_c), mpmath's to_float rounding
    to nearest, which is monotone, is that float.  An exactly zero
    component is enclosed, as |S_c| <= B_S, and never decided; nor is any
    normal float64 at prec = 53, where 2 B_H >= 40 2^-52 A is wider than
    the rounding interval, at most 2^-52 |f|, of a float64 f with
    |f| <= 2 A."""
    from mpmath.libmp import (
        from_int,
        from_rational,
        mpf_cos_sin_pi,
        mpf_div,
        mpf_shift,
        round_ceiling,
        round_floor,
        round_nearest,
        to_float,
        to_int,
    )

    wp, rnd = SUM_PRECISION, round_nearest
    fix = wp + 8
    m = from_int(x.conductor)
    re = im = size = 0
    for e, n in terms:
        c, s = mpf_cos_sin_pi(mpf_div(from_int(2 * e), m, wp, rnd), wp, rnd)
        re += n * to_int(mpf_shift(c, fix), round_floor)
        im += n * to_int(mpf_shift(s, fix), round_floor)
        size += abs(n)
    # B in units of 2^-fix / den, rounded up
    top = (32 * len(x.numerators) + 8) * sum(map(abs, x.numerators)) * den
    bottom = x.denominator << max(prec - fix, 0)
    bound = (size << fix - wp + 4) - (-(top << max(fix - prec, 0)) // bottom)
    scale = den << fix
    pair = []
    for v in (re, im):
        lo, hi = v - bound, v + bound
        if lo <= 0 <= hi:
            return None
        low = to_float(from_rational(lo, scale, wp, round_floor), rnd=rnd)
        if low.hex() != to_float(from_rational(hi, scale, wp, round_ceiling), rnd=rnd).hex():
            return None
        pair.append(low)
    return complex(*pair)


def _make(conductor, nums, den):
    return _fill(object.__new__(Cyclotomic), conductor, nums, den)


class Cyclotomic:
    """An element of Q(zeta_M) in canonical form: coefficient j of the power
    basis is numerators[j] / denominator."""

    __slots__ = ("conductor", "numerators", "denominator")

    def __init__(self, conductor, nums, den=1):
        """The element sum_j nums[j] z^j / den of Q(zeta_conductor), for any
        list of ints (consumed) and den > 0: one reduction mod Phi."""
        _fill(self, conductor, _reduce(nums, conductor), den)

    @property
    def coeffs(self):
        """The canonical coefficients as Fractions (a read-only view)."""
        den = self.denominator
        return tuple(Fraction(c, den) for c in self.numerators)

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_rational(cls, r, conductor=1):
        if not isinstance(r, (int, Fraction)):
            r = Fraction(r)
        nums = [0] * euler_phi(conductor)
        nums[0] = r.numerator
        return _make(conductor, nums, r.denominator)

    @classmethod
    def zeta(cls, m, exponent=1):
        """zeta_m ** exponent."""
        return cls(m, [0] * (exponent % m) + [1])

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
        out = [0] * ((len(self.numerators) - 1) * t + 1)
        out[::t] = self.numerators
        return Cyclotomic(conductor, out, self.denominator)

    @staticmethod
    def _common(a, b):
        if a.conductor == b.conductor:
            return a, b
        m = lcm(a.conductor, b.conductor)
        return a.embed(m), b.embed(m)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            den = lcm(self.denominator, other.denominator)
            nums = [c * (den // self.denominator) for c in self.numerators]
            nums[0] += other.numerator * (den // other.denominator)
            return _make(self.conductor, nums, den)
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        a, b = Cyclotomic._common(self, other)
        den = lcm(a.denominator, b.denominator)
        sa, sb = den // a.denominator, den // b.denominator
        return _make(
            a.conductor,
            [x * sa + y * sb for x, y in zip(a.numerators, b.numerators)],
            den,
        )

    __radd__ = __add__

    def __neg__(self):
        return _make(self.conductor, [-c for c in self.numerators], self.denominator)

    def __sub__(self, other):
        if not isinstance(other, (int, Fraction, Cyclotomic)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scaled(other.numerator, other.denominator)
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        a, b = self, other
        if a.conductor != b.conductor:
            a, b = Cyclotomic._common(a, b)
        bn = [(j, y) for j, y in enumerate(b.numerators) if y]
        out = [0] * (len(a.numerators) + len(b.numerators) - 1)
        for i, x in enumerate(a.numerators):
            if x:
                for j, y in bn:
                    out[i + j] += x * y
        return Cyclotomic(a.conductor, out, a.denominator * b.denominator)

    __rmul__ = __mul__

    def scaled(self, n, d):
        """self * n / d for ints n and d > 0, with no Fraction built."""
        return _make(self.conductor, [c * n for c in self.numerators], self.denominator * d)

    def inverse(self):
        """Multiplicative inverse by the Galois norm: with P the product of
        the conjugates sigma_t(x), t a unit mod M other than 1, the norm
        N(x) = x * P is a nonzero rational for x != 0, and x^-1 = P / N(x)."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic element")
        m = self.conductor
        others = Cyclotomic.from_rational(1, m)
        for t in range(2, m):
            if gcd(t, m) == 1:
                others = others * self.galois(t)
        return others * (1 / (self * others).rational_value())

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        if isinstance(other, Cyclotomic):
            return self * other.inverse()
        return NotImplemented

    def __pow__(self, e):
        if e < 0:
            return self.inverse() ** (-e)
        if e == 0:
            return Cyclotomic.from_rational(1, 1)
        # square-and-multiply from the lowest set bit: no squaring after
        # the highest one
        base = self
        while not e & 1:
            base = base * base
            e >>= 1
        out = base
        e >>= 1
        while e:
            base = base * base
            if e & 1:
                out = out * base
            e >>= 1
        return out

    # -- predicates and conversions --------------------------------------

    def is_zero(self):
        return not any(self.numerators)

    def is_rational(self):
        return not any(self.numerators[1:])

    def rational_value(self):
        if not self.is_rational():
            raise ValueError(f"not a rational value: {self!r}")
        return Fraction(self.numerators[0], self.denominator)

    def galois(self, t):
        """The Galois map zeta -> zeta^t, for t a unit modulo the conductor."""
        if gcd(t, self.conductor) != 1:
            raise ValueError("galois exponent must be a unit mod the conductor")
        m = self.conductor
        out = [0] * m
        for k, c in enumerate(self.numerators):
            out[(k * t) % m] += c
        return Cyclotomic(m, out, self.denominator)

    def to_mpc(self, prec):
        """The complex value computed at prec bits, as an mpc of mpmath.mp
        (later arithmetic on it runs at mpmath.mp's precision).  Horner in
        z = exp(2 pi i / M) on the integer numerators: each step is one
        complex product (mpc_mul) and, for a nonzero coefficient, the
        addition (mpc_add_mpf) of n/den in lowest terms, rounded to nearest
        at every operation.  mpmath is imported here, so that only a caller
        of to_mpc loads it."""
        import mpmath
        from mpmath.libmp import fzero, from_int, mpc_add_mpf, mpc_expjpi, mpc_mul, mpf_div, round_nearest

        rnd = round_nearest
        den = self.denominator
        angle = mpf_div(from_int(2), from_int(self.conductor), prec, rnd)
        z = mpc_expjpi((angle, fzero), prec, rnd)
        acc = (fzero, fzero)
        for n in reversed(self.numerators):
            acc = mpc_mul(acc, z, prec, rnd)
            if n:
                g = gcd(n, den)
                c = mpf_div(from_int(n // g, prec, rnd), from_int(den // g), prec, rnd)
                acc = mpc_add_mpf(acc, c, prec, rnd)
        return mpmath.mp.make_mpc(acc)

    def to_float64(self, prec, terms, den):
        """The float64 pair of to_mpc(prec), complex(float(re), float(im)),
        for self = sum_e n zeta_M^e / den over the pairs (e, n) of terms,
        0 <= e < M.
        With more than STEPS_PER_TERM coefficients per term it is taken from
        the sum over the terms where that sum certifies it (_certified_pair),
        so the phi(M) steps of to_mpc are paid only where it does not."""
        if len(self.numerators) > STEPS_PER_TERM * len(terms) > 0:
            pair = _certified_pair(self, prec, terms, den)
            if pair is not None:
                return pair
        value = self.to_mpc(prec)
        return complex(float(value.real), float(value.imag))

    # -- comparisons, hashing, repr ---------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and Fraction(
                self.numerators[0], self.denominator
            ) == other
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        a, b = Cyclotomic._common(self, other)
        return a.denominator == b.denominator and a.numerators == b.numerators

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
        den = self.denominator
        coeffs = []
        for n in self.numerators:
            g = gcd(n, den)
            coeffs.append(str(n // g) if g == den else f"{n // g}/{den // g}")
        return {"conductor": self.conductor, "coeffs": coeffs}


def inverse_one_minus_zeta(m, e):
    """(1 - zeta_m^e)^(-1) in Q(zeta_m), for e not divisible by m.

    With w = zeta_m^e of order m' = m / gcd(m, e) this is
    -(1/m') * sum_{t=1}^{m'-1} t w^t, read off from
    (1 - w) * sum_t t w^t = sum_{t=1}^{m'} w^t - m' w^m' = -m'.
    """
    order = m // gcd(m, e)
    if order == 1:
        raise ZeroDivisionError(f"1 - zeta_{m}^{e} is zero")
    nums = [0] * m
    for t in range(1, order):
        nums[e * t % m] = -t
    return Cyclotomic(m, nums, order)


class PhaseQ:
    """A phase exp(2*pi*i*q) represented by q in Q/Z, stored in [0, 1)."""

    __slots__ = ("q",)

    def __init__(self, q):
        self.q = Fraction(q) % 1

    def scale(self, k):
        """k*q mod 1 for an integer k."""
        return PhaseQ(self.q * k)

    def __eq__(self, other):
        if isinstance(other, PhaseQ):
            return self.q == other.q
        if isinstance(other, (int, Fraction)):
            return self.q == Fraction(other) % 1
        return NotImplemented

    def __hash__(self):
        return hash(("PhaseQ", self.q))

    def __repr__(self):
        return f"{format_rational(self.q)} mod 1"

    def to_json(self):
        return f"{format_rational(self.q)} mod 1"


class PhaseSeries:
    """exp(2*pi*i*A*k/(k+h)) as exp(2*pi*i*A) * sum_n c_n/(k+h)^n, truncated.

    The symbol Pi stands for 2*pi*i, kept uninterpreted so every coefficient
    lives in Q[Pi]; c_n = (-Pi*A*h)^n / n!.  Numeric evaluation substitutes
    the float value of Pi only at evaluation time.
    """

    __slots__ = ("leading", "shift", "coeffs", "order")

    def __init__(self, leading, shift, coeffs, order):
        self.leading = leading          # PhaseQ
        self.shift = shift              # non-negative integer h
        self.coeffs = coeffs            # per power of 1/(k+h), a tuple over powers of Pi
        self.order = order
        assert len(self.coeffs) == order + 1
        assert self.coeffs[0] and self.coeffs[0][0] == 1

    @classmethod
    def from_exponent(cls, amount, shift, order):
        """Series for exp(2*pi*i*amount*k/(k+shift)) to the given order.  The
        power 1/(k+shift)^n has the one term c_n Pi^n, from the recurrence
        c_{n+1} = c_n (-amount*shift)/(n + 1); the lower powers of Pi are the
        int 0."""
        amount = Fraction(amount)
        step = -amount * shift
        coeffs, c = [], Fraction(1)
        for n in range(order + 1):
            coeffs.append((0,) * n + (c,))
            c = c * step / (n + 1)
        return cls(PhaseQ(amount), shift, coeffs, order)

    def to_json(self):
        return {
            "leading": self.leading.to_json(),
            "shift": self.shift,
            "order": self.order,
            "coeffs": [[format_rational(c) for c in poly] for poly in self.coeffs],
        }
