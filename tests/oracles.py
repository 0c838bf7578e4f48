"""Literal routes that the tests compare the production closed forms with.

None of this runs outside the tests: extended Euclid over Fraction
polynomials as the reference for Cyclotomic.inverse, cyclotomic
polynomials as full-length products and quotients of binomials as the
reference for cyclotomic_polynomial, the brute-force root-of-unity sum for
mu, complex conjugation and float evaluation of Cyclotomic values, their
evaluation under an mpmath context over the Fraction view as the reference
for Cyclotomic.to_mpc, and the sorted Fraction candidates and per-entry
np.exp probe of fit_expansion's phase search, the formal log of the
Bernoulli series for the Todd class, the lambda_{-1}-inverse of the
integer route as a dict over the basis monomials (lambda_inverse_dict),
the per-tuple convolution behind the stratum ranks, the Seifert b, the
framing exponent B and the phase series coefficients as one Fraction per
term (the loops their integer forms replaced), the Burnside count
through one translated class per (class, z'), and the merge of stratum
contributions by one Cyclotomic addition per coefficient pair
(assemble_pairwise).  The two localization
references, the literal route (RefRing) and the root reference, live in
test_localization_oracle.py; they take their (1 - zeta^j)^{-1} from
euclid_inverse, the root reference its eigenbundle weights from
mu_bruteforce, and the literal route its Todd coefficients from
todd_log_series.
Also here: Cyclotomic values from Fraction coefficients, the readers of
the JSON forms of Cyclotomic and PhaseQ values, the JSON form of orbit data,
phases as roots of unity and as complex floats, float evaluation of phase
series, conjugacy classes built from or read as rational angles, and a
class times a center element.
"""

import cmath
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, lcm

import numpy as np

from torusfibre.errors import GcdViolation, InvariantViolation, NonIntegralRank
from torusfibre.exact import Cyclotomic, PhaseQ, cyclotomic_polynomial
from torusfibre.localization import ContributionPolynomial, _exp, lambda_inverse_expansion
from torusfibre.orbit import total_genus
from torusfibre.spectrum import mu2_table
from torusfibre.strata import ConjClassSU, classes_with_power_central, root_eigendata

# -- extended Euclid in Q[x] ---------------------------------------------------


def _trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


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


def euclid_inverse(x):
    """x^-1 by extended gcd of its numerators with Phi_M in Q[x]."""
    if x.is_zero():
        raise ZeroDivisionError("inverse of zero cyclotomic element")
    phi = [Fraction(c) for c in cyclotomic_polynomial(x.conductor)]
    # t1*nums + (...)*phi = constant gcd, since Phi_M is irreducible over Q
    r0, r1 = phi, _trim([Fraction(c) for c in x.numerators])
    t0, t1 = [Fraction(0)], [Fraction(1)]
    while len(r1) > 1:
        q, r = _poly_divmod_q(r0, r1)
        t0, t1 = t1, [a - b for a, b in _zip_pad(t0, _poly_mul_q(q, t1))]
        r0, r1 = r1, _trim(r)
    if not r1 or r1[0] == 0:
        raise ZeroDivisionError("element is a zero divisor (not canonical?)")
    return cyclotomic(x.conductor, t1) * (x.denominator / r1[0])


# -- cyclotomic polynomials by binomial products ------------------------------


def cyclotomic_polynomial_by_division(m):
    """Phi_m, low degree first, as Phi_r(x^(m/r)) for r the product of the
    primes of m, with Phi_r = prod_{d | r} (x^d - 1)^mu(r/d) at full length:
    the binomials with mu = 1 multiplied in, then those with mu = -1 divided
    out exactly.  The reference for the truncated series of
    cyclotomic_polynomial."""
    primes, rest, p = [], m, 2
    while rest > 1:
        if rest % p == 0:
            primes.append(p)
            while rest % p == 0:
                rest //= p
        p += 1
    r = 1
    for p in primes:
        r *= p
    up, down = [], []
    for mask in range(1 << len(primes)):
        picked = [p for i, p in enumerate(primes) if mask >> i & 1]
        d = r
        for p in picked:
            d //= p
        (down if len(picked) % 2 else up).append(d)
    poly = [1]
    for d in up:
        # times (x^d - 1)
        poly = [-c for c in poly] + [0] * d
        for i in range(len(poly) - 1, d - 1, -1):
            poly[i] -= poly[i - d]
    for d in down:
        # exact quotient by (x^d - 1): q_i = q_{i-d} - p_i
        quot = [0] * (len(poly) - d)
        for i in range(len(quot)):
            quot[i] = (quot[i - d] if i >= d else 0) - poly[i]
        assert all(poly[i] == quot[i - d] for i in range(len(quot), len(poly))), "inexact quotient"
        poly = quot
    s = m // r
    out = [0] * ((len(poly) - 1) * s + 1)
    out[::s] = poly
    return tuple(out)


# -- brute-force mu sum --------------------------------------------------------


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
    return Cyclotomic(m, [-int(c) for c in reduced], m)


# -- complex conjugation and float evaluation -----------------------------------


def conjugate(x):
    """The Galois map zeta -> zeta^-1, i.e. complex conjugation."""
    return x.galois(x.conductor - 1) if x.conductor > 1 else x


def to_complex(x):
    """x as a Python complex, by Horner in the power basis."""
    z = cmath.exp(2j * cmath.pi / x.conductor)
    acc = 0j
    for c in reversed(x.coeffs):
        acc = acc * z + complex(c)
    return acc


def horner_mpc(x, ctx):
    """x as an mpc of the mpmath context ctx, by Horner over the Fraction
    view in ctx arithmetic."""
    z = ctx.expjpi(ctx.mpf(2) / x.conductor)
    acc = ctx.mpc(0)
    for c in reversed(x.coeffs):
        acc = acc * z + ctx.mpf(c.numerator) / c.denominator
    return acc


# -- phase search of fit_expansion ---------------------------------------------


def phase_candidates_sorted(q_bound):
    """The reduced fractions in [0, 1) with denominator at most q_bound, as
    Fractions, by filtering every num/den and sorting."""
    out = [Fraction(0)]
    for den in range(2, q_bound + 1):
        for num in range(1, den):
            if gcd(num, den) == 1:
                out.append(Fraction(num, den))
    return sorted(out)


def probe_exp(candidates, levels):
    """The matched-filter matrix e^{-2 pi i q k} for Fraction phases q, one
    np.exp per entry of the float product q k."""
    return np.exp(-2j * np.pi * np.outer([float(q) for q in candidates], levels))


# -- Todd class ------------------------------------------------------------------


def todd_log_series(top_n):
    """Coefficients f_1..f_top_n of log(x/(1-e^{-x})) = sum f_n x^n: the
    series x/(1-e^{-x}) = sum B_n^+ x^n / n! from the Bernoulli recurrence,
    then log(1 + s) = sum_i (-1)^{i+1} s^i / i over its tail s by truncated
    power products."""
    order = top_n + 1
    bern = [Fraction(0)] * order
    bern[0] = Fraction(1)
    for n in range(1, order):
        acc = Fraction(0)
        for j in range(n):
            acc += comb(n + 1, j) * bern[j]
        bern[n] = -acc / (n + 1)
    series = [b / factorial(n) for n, b in enumerate(bern)]
    if order > 1:
        series[1] = Fraction(1, 2)  # flip to the B_1^+ convention
    logc = [Fraction(0)] * order
    power = [Fraction(1)] + [Fraction(0)] * (order - 1)  # s^i accumulator
    tail = [Fraction(0)] + series[1:]
    for i in range(1, order):
        nxt = [Fraction(0)] * order
        for a in range(order):
            if power[a] == 0:
                continue
            for b in range(1, order - a):
                nxt[a + b] += power[a] * tail[b]
        power = nxt
        for n in range(order):
            logc[n] += Fraction((-1) ** (i + 1), i) * power[n]
    return tuple(logc[1:top_n + 1])


# -- localization: the lambda-inverse as a dict, per-tuple ranks ----------------


def lambda_inverse_dict(data, stratum, group, oracle):
    """The lambda_{-1}-inverse of lambda_inverse_expansion as {exponent tuple:
    Cyclotomic} on the oracle's basis, prefactor included: the prefactor
    times the nonzero coefficients of exp(E), a lone unit monomial when E
    has no terms."""
    pref, terms = lambda_inverse_expansion(data, stratum, group, oracle)
    rows, den = _exp(oracle.basis, terms, data.m)
    return {expo: pref * Cyclotomic(data.m, list(nums), den)
            for expo, nums in zip(oracle.basis.index, zip(*rows)) if any(nums)}


def assemble_pairwise(contributions):
    """The terms of assemble_invariant, merged one contribution at a time:
    polynomials of one phase (PhaseQ by value, a symbolic tag by its
    string) are added coefficient by coefficient with Cyclotomic.__add__,
    and after each addition the zero top coefficients are dropped."""
    buckets = {}
    for contrib in contributions:
        key = (0, contrib.q.q) if isinstance(contrib.q, PhaseQ) else (1, str(contrib.q))
        if key not in buckets:
            buckets[key] = ContributionPolynomial(list(contrib.coefficients), contrib.q)
            continue
        cur = buckets[key]
        a, b = cur.coefficients, contrib.coefficients
        if len(b) > len(a):
            a, b = b, a
        merged = list(a)
        for i, c in enumerate(b):
            merged[i] = merged[i] + c
        while len(merged) > 1 and merged[-1].is_zero():
            merged.pop()
        buckets[key] = ContributionPolynomial(merged, cur.q)
    return [buckets[k] for k in sorted(buckets)]


def branch_vector_sum(data, group, c_delta):
    """sum_s v_s, the vector stratum_ranks takes, by the circular convolution
    done afresh for the classes c_delta:
    v_s[i] = rank G mu2_s(i) + sum_j r_s[j] mu2_s(i - j)."""
    m = data.m
    out = [0] * m
    for (_, n), c in zip(data.branches, c_delta):
        mu2, r_s = mu2_table(m, n), root_eigendata(c, m)
        for i in range(m):
            out[i] += group.rank * mu2[i] + sum(r * mu2[i - j] for j, r in enumerate(r_s))
    return tuple(out)


def stratum_ranks_convolution(data, group, roots):
    """(ranks, d_c) from the root data of each class of c_delta by the
    circular convolution of each r_s with mu2_s, done afresh per tuple:
    2 m r_i = 2 dim G (g - 1) + sum_s [rank G mu2_s(i) + sum_j r_s[j] mu2_s(i - j)]."""
    m = data.m
    g = total_genus(data)
    ranks = []
    for i in range(m):
        acc = 2 * group.dim_G * (g - 1)
        for (_, n), r_s in zip(data.branches, roots):
            mu2 = mu2_table(m, n)
            acc += group.rank * mu2[i] + sum(r * mu2[i - j] for j, r in enumerate(r_s))
        val, rest = divmod(acc, 2 * m)
        if rest:
            raise NonIntegralRank(f"rank r_{i} = {acc}/{2 * m}")
        ranks.append(val)
    if sum(ranks) != (g - 1) * group.dim_G:
        raise InvariantViolation(f"ranks sum to {sum(ranks)}")
    return tuple(ranks), ranks[0]


# -- the census values as one Fraction per term ---------------------------------


def seifert_b_fractions(data):
    """b = -sum_i k_i / l_i, one Fraction per branch, k_i the inverse of n_i
    mod l_i."""
    acc = Fraction(0)
    for l, n in data.branches:
        acc += Fraction(pow(n, -1, l), l)
    return -acc


def framing_B_fractions(spec, group):
    """B = -(dim G / 2) sum_a d_a ahat/m over a away from 0 and m/2, one
    Fraction per eigenvalue, ahat the signed residue of a in (-m/2, m/2)."""
    m = spec.m
    acc = Fraction(0)
    for a in range(m):
        if a == 0 or 2 * a == m:
            continue
        ahat = a if 2 * a < m else a - m
        acc += spec.d[a] * Fraction(ahat, m)
    return -Fraction(group.dim_G, 2) * acc


def phase_series_fractions(amount, shift, order):
    """The coefficients of PhaseSeries.from_exponent as Fractions:
    (-amount*shift)^n / n! at Pi^n for n = 0..order, Fraction(0) below."""
    amount = Fraction(amount)
    return [
        tuple([Fraction(0)] * n + [Fraction((-amount * shift) ** n, factorial(n))])
        for n in range(order + 1)
    ]


# -- Fraction and JSON forms, phases and classes --------------------------------


def cyclotomic(m, coeffs):
    """The element sum_j coeffs[j] z^j of Q(zeta_m), for rational coeffs
    (ints, Fractions or strings p/q), over their common denominator."""
    coeffs = [Fraction(c) for c in coeffs]
    den = lcm(1, *(c.denominator for c in coeffs))
    return Cyclotomic(m, [c.numerator * (den // c.denominator) for c in coeffs], den)


def cyclotomic_from_json(obj):
    """The Cyclotomic value written as ``Cyclotomic.to_json`` writes it."""
    return cyclotomic(obj["conductor"], obj["coeffs"])


def orbit_to_json(data):
    """OrbitData in the JSON form ``OrbitData.from_json`` reads."""
    return {
        "m": data.m,
        "quotient_genus": data.quotient_genus,
        "branches": [{"l": l, "n": n} for l, n in data.branches],
    }


def phase_from_json(s):
    """The PhaseQ written as ``PhaseQ.to_json`` writes it ("p/q mod 1"), or
    a bare rational."""
    if isinstance(s, str) and s.endswith(" mod 1"):
        s = s[: -len(" mod 1")]
    return PhaseQ(Fraction(s))


def phase_to_cyclotomic(p, conductor=None):
    """exp(2 pi i q) as a root of unity in Q(zeta_conductor); the conductor
    defaults to the denominator of q and must be a multiple of it."""
    den = p.q.denominator
    m = den if conductor is None else conductor
    if m % den != 0:
        raise ValueError(f"denominator {den} does not divide conductor {m}")
    return Cyclotomic.zeta(m, p.q.numerator * (m // den))


def phase_to_complex(p):
    """exp(2 pi i q) as a Python complex."""
    return cmath.exp(2j * cmath.pi * float(p.q))


def series_eval_numeric(series, k):
    """A PhaseSeries evaluated at integer level k as a float complex."""
    pi_val = 2j * cmath.pi
    acc = 0j
    for n, poly in enumerate(series.coeffs):
        val = 0
        for p, c in reversed(list(enumerate(poly))):
            val = val + float(c) * pi_val**p
        acc += val / (k + series.shift) ** n
    return phase_to_complex(series.leading) * acc


def conj_class_from_angles(N, angles):
    """The SU(N) class with the given rational angles (ints or Fractions)."""
    den = lcm(*(a.denominator for a in angles))
    return ConjClassSU.from_residues(N, [a.numerator * (den // a.denominator) for a in angles], den)


def translate(c, t):
    """The class c multiplied by the center element zeta_N^t, through
    ConjClassSU.from_residues."""
    den = lcm(c.denominator, c.N)
    shift = t * (den // c.N)
    return ConjClassSU.from_residues(c.N, [r + shift for r in c.moved(den)], den)


def count_strata_burnside_translate(data, group):
    """The Burnside stratum count with one translated ConjClassSU per
    (class, z'): the average over the center of the number of fixed tuples."""
    N = group.N
    m = data.m
    H = [zp for zp in range(N) if (m * zp) % N == 0]
    total = 0
    for z in range(N):
        per_branch = [classes_with_power_central(N, l, z) for l, _ in data.branches]
        for zp in H:
            fixed = 1
            for classes, mi in zip(per_branch, data.orbit_sizes()):
                fixed *= sum(1 for c in classes if translate(c, zp * mi) == c)
            total += fixed
    assert total % N == 0, (total, N)
    return total // N


def angles(c):
    """The sorted eigenvalue angles of the class c as Fractions."""
    return tuple(Fraction(r, c.denominator) for r in c.residues)


def is_central(c):
    """Whether the class is a central element: all angles equal."""
    return len(set(c.residues)) == 1
