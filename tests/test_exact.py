import cmath
import contextlib
import io
import json
import math
import random
import sys
from fractions import Fraction as F
from pathlib import Path

import mpmath
import pytest

from oracles import (
    conjugate,
    cyclotomic,
    cyclotomic_from_json,
    cyclotomic_polynomial_by_division,
    euclid_inverse,
    horner_mpc,
    phase_from_json,
    phase_to_cyclotomic,
    series_eval_numeric,
    to_complex,
)
from torusfibre import exact
from torusfibre.exact import (
    Cyclotomic,
    PhaseQ,
    PhaseSeries,
    cyclotomic_polynomial,
    euler_phi,
    format_rational,
    inverse_one_minus_zeta,
    reduce_rows,
)

GOLDEN = Path(__file__).parent / "golden"


def test_norm_of_one_minus_zeta3():
    z3 = Cyclotomic.zeta(3)
    assert (1 - z3) * (1 - z3**2) == 3


def test_i_squared():
    z4 = Cyclotomic.zeta(4)
    assert z4 * z4 == -1


def test_sum_of_nontrivial_fifth_roots():
    acc = Cyclotomic.from_rational(0)
    for b in range(1, 5):
        acc = acc + Cyclotomic.zeta(5, b)
    assert acc == -1


def test_invert_one_minus_i():
    z4 = Cyclotomic.zeta(4)
    inv = (1 - z4).inverse()
    assert inv == (1 + z4) / 2
    assert (1 - z4) * inv == 1


def test_invert_rational():
    two = Cyclotomic.from_rational(2)
    assert two.inverse() == F(1, 2)


def test_invert_one_minus_zeta3_oracle():
    # oracle: multiply back and reduce, must give exactly 1
    z3 = Cyclotomic.zeta(3)
    inv = (1 - z3).inverse()
    assert (1 - z3) * inv == 1
    assert inv == (1 - z3**2) / 3


def test_invert_zero_raises():
    with pytest.raises(ZeroDivisionError):
        Cyclotomic.from_rational(0).inverse()


def test_phase_ops():
    assert PhaseQ(F(2, 5)).scale(5) == PhaseQ(0)
    assert phase_to_cyclotomic(PhaseQ(F(1, 3))) == Cyclotomic.zeta(3)


def test_invert_random_elements():
    rng = random.Random(11)
    for _ in range(40):
        m = rng.randint(2, 24)
        coeffs = [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(euler_phi(m))]
        a = cyclotomic(m, coeffs)
        if a.is_zero():
            continue
        assert a * a.inverse() == 1


def test_canonical_idempotence():
    rng = random.Random(5)
    for _ in range(50):
        m = rng.randint(2, 30)
        coeffs = [F(rng.randint(-50, 50)) for _ in range(2 * m)]
        a = cyclotomic(m, coeffs)
        b = cyclotomic(m, a.coeffs)
        assert a.coeffs == b.coeffs


def test_embedding_compatibility():
    rng = random.Random(6)
    for _ in range(30):
        m = rng.randint(2, 20)
        pa = [F(rng.randint(-9, 9)) for _ in range(euler_phi(m))]
        pb = [F(rng.randint(-9, 9)) for _ in range(euler_phi(m))]
        a, b = cyclotomic(m, pa), cyclotomic(m, pb)
        assert (a * b).embed(2 * m) == a.embed(2 * m) * b.embed(2 * m)
        assert (a + b).embed(2 * m) == a.embed(2 * m) + b.embed(2 * m)


def test_float_crosscheck():
    rng = random.Random(9)
    for _ in range(30):
        m = rng.randint(2, 60)
        pa = [F(rng.randint(-1000, 1000)) for _ in range(euler_phi(m))]
        pb = [F(rng.randint(-1000, 1000)) for _ in range(euler_phi(m))]
        a, b = cyclotomic(m, pa), cyclotomic(m, pb)
        lhs = to_complex(a * b)
        rhs = to_complex(a) * to_complex(b)
        scale = max(abs(lhs), abs(rhs), 1.0)
        assert abs(lhs - rhs) / scale < 1e-9


def test_galois_conjugate_matches_complex_conjugate():
    a = cyclotomic(7, [F(1), F(2), F(-1), F(0), F(3), F(1, 2)])
    assert abs(to_complex(conjugate(a)) - to_complex(a).conjugate()) < 1e-12


def test_cyclotomic_polynomial_values():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_serialization_roundtrip():
    a = cyclotomic(12, [F(1, 2), F(0), F(3), F(-7, 3)])
    assert cyclotomic_from_json(a.to_json()) == a
    p = PhaseQ(F(5, 8))
    assert phase_from_json(p.to_json()) == p


def test_phase_series_exact_coefficients():
    s = PhaseSeries.from_exponent(F(3, 4), 2, 2)
    assert s.leading == PhaseQ(F(3, 4))
    # c_n = (-Pi B h)^n / n! with B h = 3/2
    assert s.coeffs[0] == (F(1),)
    assert s.coeffs[1] == (F(0), F(-3, 2))
    assert s.coeffs[2] == (F(0), F(0), F(9, 8))


def test_phase_series_numeric():
    s = PhaseSeries.from_exponent(F(3, 4), 2, 6)
    for k in (100, 10000):
        target = cmath.exp(2j * cmath.pi * 0.75 * k / (k + 2))
        assert abs(series_eval_numeric(s, k) - target) < 1e-10
        assert abs(series_eval_numeric(_as_inverse_k(s), k) - target) < 1e-8


def _as_inverse_k(s, order=None):
    """Re-expand a PhaseSeries in powers of 1/k.

    1/(k+h)^n = sum_j binom(-n, j) h^j k^-(n+j).
    """
    order = s.order if order is None else order
    out = [[F(0)] * (s.order + 1) for _ in range(order + 1)]
    for n, poly in enumerate(s.coeffs):
        for t in range(n, order + 1):
            j = t - n
            if n == 0 and j > 0:
                continue
            binom = F(1)
            for i in range(j):
                binom *= F(-(n + i), i + 1)
            for p, c in enumerate(poly):
                out[t][p] += c * binom * s.shift**j
    return PhaseSeries(s.leading, 0, [tuple(_trim_f(poly)) for poly in out], order)


def _trim_f(poly):
    poly = list(poly)
    while len(poly) > 1 and poly[-1] == 0:
        poly.pop()
    return poly


# -- oracles for the integer representation ----------------------------------

_PHI_ORACLE = {}


def _phi_recursive(m):
    """Phi_m as (x^m - 1) / prod_{d | m, d < m} Phi_d, by exact long
    division of integer polynomials (low degree first)."""
    if m not in _PHI_ORACLE:
        num = [-1] + [0] * (m - 1) + [1]
        for d in range(1, m):
            if m % d == 0:
                num = _polydiv_exact(num, _phi_recursive(d))
        _PHI_ORACLE[m] = tuple(num)
    return _PHI_ORACLE[m]


def _polydiv_exact(num, den):
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


@pytest.mark.parametrize("m", list(range(1, 401)) + [1260, 1740, 2388, 2940])
def test_cyclotomic_polynomial_matches_recursive_division(m):
    assert cyclotomic_polynomial(m) == _phi_recursive(m)


def test_cyclotomic_polynomial_matches_binomial_products():
    """The truncated series is the full-length multiply-then-divide product
    for every m < 3000."""
    for m in range(1, 3000):
        assert cyclotomic_polynomial(m) == cyclotomic_polynomial_by_division(m), m


def _folded(f, m):
    """f modulo x^m - 1, as a list of min(len(f), m) entries."""
    out = [0] * min(len(f), m)
    for i, c in enumerate(f):
        out[i % m] += c
    return out


def _sparse(rng, length, top=None):
    """At most 15 nonzero entries of up to 2^100 among the first top (or all
    length) positions, one of them the highest."""
    top = length if top is None else top
    out = [0] * length
    for i in rng.sample(range(top - 1), min(top - 1, rng.randint(0, 14))) + [top - 1]:
        out[i] = rng.choice((-1, 1)) * rng.randint(1, 2 ** 100)
    return out


def test_tower_and_long_division_agree(monkeypatch):
    """_reduce, the tower (exact._tower) and the long division
    (exact._divide) give one remainder, so the route _reduce does not take
    is its oracle: for every m from 2 to 399 on sparse and dense input of
    lengths m, m/2 + 1, 2m - 1 and 2m + 3; at the level_sweep conductors
    on sparse input of length m and 2m + 3 and dense input of length m;
    and at M = 15015 and 37515 on sparse input of length M whose support
    lies below phi(M) + 128, so that the long division stays cheap (the
    golden cases at levels 2000 and 5000 pin their evaluation vectors at
    these M, recorded from the long division).  _reduce takes both routes,
    and a sparse vector at a prime power goes down the tower."""
    tower, taken = exact._tower, []

    def counted_tower(nums, m):
        # _reduce's entries into the tower, not the tower's own recursion
        if sys._getframe(1).f_code is exact._reduce.__code__:
            taken.append(m)
        return tower(nums, m)

    monkeypatch.setattr(exact, "_tower", counted_tower)
    rng = random.Random(25)
    inputs = []
    for m in range(2, 400):
        for length in (m, m // 2 + 1, 2 * m - 1, 2 * m + 3):
            inputs.append((m, _sparse(rng, length)))
            inputs.append((m, [rng.randint(-2 ** 40, 2 ** 40) for _ in range(length)]))
    for m in (1260, 1308, 1740, 1788, 2388, 2940):
        inputs += [(m, _sparse(rng, m)), (m, _sparse(rng, 2 * m + 3))]
        inputs.append((m, [rng.randint(-2 ** 40, 2 ** 40) for _ in range(m)]))
    for m in (15015, 37515):
        inputs += [(m, _sparse(rng, m, euler_phi(m) + 128)) for _ in range(2)]
    for m, f in inputs:
        want = exact._divide(_folded(f, m), m)
        assert tower(_folded(f, m), m) == want, (m, len(f))
        assert exact._reduce(list(f), m) == want, (m, len(f))
    assert 0 < len(taken) < len(inputs)
    assert {15015, 37515} <= set(taken)
    # a sparse vector at a prime power p^j, j > 1
    assert any(len(exact._prime_factors(m)) == 1 and m not in exact._prime_factors(m) for m in taken)


def test_level_2000_long_divides_only_the_top_of_each_class(monkeypatch):
    """Counts the work of the golden M5 SU(2) evaluation at level 2000
    (M = 15015 = 3 5 7 11 13) instead of timing it: its vector goes down the
    tower, and each step long-divides at most phi(n) positions, for Phi_r
    with largest prime p and n = r / p.  Long division of the whole vector
    would visit 9255 positions by the 5370 taps of Phi_15015."""
    from torusfibre import cli

    tower, divide = exact._tower, exact._divide
    towers, steps, depth = [], [], [0]

    def counted_tower(nums, m):
        towers.append(m)
        depth[0] += 1
        try:
            return tower(nums, m)
        finally:
            depth[0] -= 1

    def counted_divide(nums, m):
        steps.append((m, len(nums) - euler_phi(m), depth[0]))
        return divide(nums, m)

    monkeypatch.setattr(exact, "_tower", counted_tower)
    monkeypatch.setattr(exact, "_divide", counted_divide)
    monkeypatch.chdir(GOLDEN)
    case = "invariant_m5_su2_k2000"
    argv = json.loads((GOLDEN / "manifest.json").read_text())[case]["argv"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == 0
    assert out.getvalue() == (GOLDEN / f"{case}.out").read_text()
    assert towers.count(15015) == 1
    inside = [(m, positions) for m, positions, d in steps if d]
    assert {m for m, _ in inside} == {15015, 1155, 105, 15}
    for m, positions in inside:
        assert positions <= euler_phi(m // max(exact._prime_factors(m))), (m, positions)
    assert all(m < 15 for m, _, d in steps if not d)


def _ref_reduce(coeffs, m):
    """Fraction coefficients reduced mod Phi_m by dense long division."""
    phi = _phi_recursive(m)
    deg = len(phi) - 1
    work = [F(c) for c in coeffs] + [F(0)] * deg
    for i in range(len(work) - 1, deg - 1, -1):
        c = work[i]
        if c:
            for j in range(deg + 1):
                work[i - deg + j] -= c * phi[j]
    return tuple(work[:deg])


def _ref_mul(a, b):
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _spread(coeffs, step, size):
    out = [F(0)] * size
    for j, c in enumerate(coeffs):
        out[(j * step) % size] += c
    return out


def _random_coeffs(rng, n):
    return [
        F(rng.randint(-40, 40), rng.choice((1, 2, 3, 6, 7, 12, 35))) if rng.random() < 0.8 else F(0)
        for _ in range(n)
    ]


def _assert_canonical(a):
    assert len(a.numerators) == euler_phi(a.conductor)
    assert a.denominator > 0
    assert math.gcd(a.denominator, *a.numerators) == 1


# prime, prime power, and products of three or more primes
ORACLE_CONDUCTORS = [7, 13, 31, 8, 9, 25, 27, 30, 42, 66, 105, 210]


@pytest.mark.parametrize("m", ORACLE_CONDUCTORS)
def test_arithmetic_matches_fraction_reference(m):
    rng = random.Random(1000 + m)
    phi = euler_phi(m)
    for _ in range(4):
        raw = _random_coeffs(rng, rng.randint(1, 2 * m + 3))
        a = cyclotomic(m, raw)
        _assert_canonical(a)
        assert a.coeffs == _ref_reduce(raw, m)
        b = cyclotomic(m, _random_coeffs(rng, phi))
        s = rng.choice((F(-3, 4), F(5, 6), 2, 0))

        assert (a + b).coeffs == _ref_reduce([x + y for x, y in zip(a.coeffs, b.coeffs)], m)
        assert (a - b).coeffs == _ref_reduce([x - y for x, y in zip(a.coeffs, b.coeffs)], m)
        assert (a * b).coeffs == _ref_reduce(_ref_mul(a.coeffs, b.coeffs), m)
        assert (a * s).coeffs == _ref_reduce([x * s for x in a.coeffs], m)
        assert (-a).coeffs == tuple(-x for x in a.coeffs)
        for x in (a + b, a * b, a * s, -a):
            _assert_canonical(x)

        for t in (2, 3, 5):
            big = a.embed(m * t)
            _assert_canonical(big)
            assert big.coeffs == _ref_reduce(_spread(a.coeffs, t, m * t), m * t)

        u = rng.choice([u for u in range(1, m) if math.gcd(u, m) == 1])
        assert a.galois(u).coeffs == _ref_reduce(_spread(a.coeffs, u, m), m)

        # the Euclid oracle is slow on a dense element at large phi(m) (its
        # remainders grow to hundreds of digits); invert a sparse one
        c = [F(0)] * phi
        for j in rng.sample(range(phi), min(phi, 3)):
            c[j] = F(rng.randint(1, 9), rng.choice((1, 5, 12)))
        c = cyclotomic(m, c)
        inv = c.inverse()
        _assert_canonical(inv)
        assert _ref_reduce(_ref_mul(c.coeffs, inv.coeffs), m) == (F(1),) + (F(0),) * (phi - 1)
        assert inv == euclid_inverse(c)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 12, 30, 42])
def test_scaled_and_reduce_rows_match_fraction_reference(m):
    rng = random.Random(2000 + m)
    for _ in range(4):
        a = cyclotomic(m, _random_coeffs(rng, euler_phi(m)))
        n, d = rng.randint(-9, 9), rng.randint(1, 12)
        assert a.scaled(n, d) == a * F(n, d)
        _assert_canonical(a.scaled(n, d))
        # rows of integer columns: row c holds the coefficients of z^c
        width = rng.randint(1, 4)
        rows = [[rng.choice((0, rng.randint(-20, 20))) for _ in range(width)]
                for _ in range(rng.randint(1, 2 * m + 2))]
        out = reduce_rows([list(r) for r in rows], m)
        assert 1 <= len(out) <= euler_phi(m)
        assert len(out) == 1 or any(out[-1])
        for k in range(width):
            want = _ref_reduce([F(r[k]) for r in rows], m)
            assert tuple(F(r[k]) for r in out) + (F(0),) * (euler_phi(m) - len(out)) == want


@pytest.mark.parametrize("m", [m for m in range(1, 91) if euler_phi(m) <= 24])
def test_inverse_matches_euclid_on_dense_elements(m):
    rng = random.Random(3000 + m)
    for _ in range(2):
        a = cyclotomic(m, _random_coeffs(rng, euler_phi(m)))
        if not a.is_zero():
            assert a.inverse() == euclid_inverse(a)


@pytest.mark.parametrize("m", [105, 210])
def test_inverse_of_dense_element_at_large_conductor(m):
    # phi = 48, where extended Euclid over Fractions needs seconds
    a = cyclotomic(m, _random_coeffs(random.Random(m), euler_phi(m)))
    assert a * a.inverse() == 1


@pytest.mark.parametrize("m", ORACLE_CONDUCTORS + [1, 2, 2940])
def test_zeta_matches_fraction_reference(m):
    phi = euler_phi(m)
    special = {-3, -1, 0, 1, phi - 1, phi, phi + 1, m - 1, m, 2 * m + 1}
    for e in sorted(special | set(range(0, m, max(1, m // 12)))):
        z = Cyclotomic.zeta(m, e)
        _assert_canonical(z)
        assert z.coeffs == _ref_reduce([F(0)] * (e % m) + [F(1)], m)


def test_inverse_one_minus_zeta_matches_euclid():
    for m in range(1, 61):
        for j in range(-m, 2 * m):
            if j % m == 0:
                with pytest.raises(ZeroDivisionError):
                    inverse_one_minus_zeta(m, j)
            elif j in range(1, m):
                inv = inverse_one_minus_zeta(m, j)
                assert inv == euclid_inverse(1 - Cyclotomic.zeta(m, j))
                assert inv == (1 - Cyclotomic.zeta(m, j)).inverse()
            else:
                assert inverse_one_minus_zeta(m, j) == inverse_one_minus_zeta(m, j % m)


# -- rendering from the integer numerators ---------------------------------------

# 10010 = 2 * 5 * 7 * 11 * 13 is a conductor above 10^4 with phi = 2880
RENDER_CONDUCTORS = [1, 2, 12, 60, 2940, 10010]
BIG = 2**140


def _render_elements(m):
    """Seeded elements of Q(zeta_m): zero, a rational, small integers, and
    dense ones with about 30% zero coefficients and numerators and
    denominators above 2^128."""
    rng = random.Random(f"render-{m}")
    phi = euler_phi(m)
    out = [
        Cyclotomic.from_rational(0, m),
        Cyclotomic.from_rational(F(-7, 3), m),
        Cyclotomic(m, [rng.randint(-9, 9) for _ in range(phi)]),
    ]
    for _ in range(2 if phi > 1000 else 4):
        nums = [0 if rng.random() < 0.3 else rng.randrange(-BIG, BIG) for _ in range(phi)]
        nums[0] = rng.randrange(-BIG, BIG)
        if phi > 1:
            nums[phi // 2] = 0
        out.append(Cyclotomic(m, nums, rng.randrange(2**129, BIG)))
    return out


@pytest.mark.parametrize("m", RENDER_CONDUCTORS)
def test_to_mpc_matches_fraction_horner(m):
    elements = _render_elements(m)
    big = [x for x in elements if x.denominator > 2**128]
    assert big and all(max(map(abs, x.numerators)) > 2**128 for x in big)
    if euler_phi(m) > 1:
        assert all(0 in x.numerators for x in big)
    for prec in (53, 128, 300):
        ctx = mpmath.mp.clone()
        ctx.prec = prec
        for x in elements:
            assert x.to_mpc(prec)._mpc_ == horner_mpc(x, ctx)._mpc_


def _cancelling_element(ctx):
    """An element of Q(zeta_8) whose Horner accumulator is exactly 0 after
    three of its four steps in ctx arithmetic.  z = (c, c) there, so from
    (1, 0) the steps give (c, c), then (-c, c) after adding -2c, then
    (-round(2c^2), 0) times z plus round(2c^2) = (0, 0); the value is the
    last coefficient 5 / 2^K."""
    z = ctx.expjpi(ctx.mpf(2) / 8)
    assert z.real == z.imag
    _, man, exp, _ = z.real._mpf_
    square = ctx.mpf((man * man, 2 * exp + 1))._mpf_
    scale = -min(exp, square[2])
    nums = [5, square[1] << scale + square[2], -man << scale + exp + 1, 1 << scale]
    return Cyclotomic(8, nums, 1 << scale)


@pytest.mark.parametrize("prec", [53, 128, 300])
def test_to_mpc_edge_cases_match_fraction_horner(prec):
    """Bit equality with mpmath's Horner where its rounding takes its less
    common branches: operands 2^400 next to +-1 (exponent offsets above 100
    bits, where mpf_add keeps only the sign of the smaller one), conductors
    1, 2 and 4 with z exact and numerators 2^prec + 1 and 2^prec + 3
    (half-way cases, rounded to even), and an accumulator that cancels to
    exactly 0 before the last step."""
    ctx = mpmath.mp.clone()
    ctx.prec = prec
    big = 2**400
    elements = []
    for m in (3, 5, 7, 12, 60):
        phi = euler_phi(m)
        for signs in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            for den in (1, 3, 2**200 + 1):
                for first in (0, 1):
                    nums = [
                        (signs[0] * big if (j + first) % 2 else signs[1])
                        for j in range(phi)
                    ]
                    elements.append(Cyclotomic(m, nums, den))
    for m in (1, 2, 4):
        for n in (2**prec + 1, 2**prec + 3):
            for sign in (1, -1):
                nums = [sign * n] + [n - 2 * sign] * (euler_phi(m) - 1)
                elements += [Cyclotomic(m, list(nums), den) for den in (1, 3)]
    cancelling = _cancelling_element(ctx)
    elements.append(cancelling)
    value = horner_mpc(cancelling, ctx)
    assert value.imag == 0 and value.real == ctx.mpf(5) / cancelling.denominator
    for x in elements:
        assert x.to_mpc(prec)._mpc_ == horner_mpc(x, ctx)._mpc_


# -- the printed float64 pair, certified from the terms -------------------------

CERTIFY_CONDUCTORS = [60, 420, 1308, 2388, 2940]


def _pair_hex(value):
    return value.real.hex(), value.imag.hex()


def _horner_pair(x, prec):
    value = x.to_mpc(prec)
    return float(value.real).hex(), float(value.imag).hex()


def _sparse_element(rng, m, kind):
    """A seeded element sum_e n_e zeta_m^e / den of 2 to 18 terms, with its
    terms and den: n_e = n_-e for kind "real", n_e = -n_-e for
    "imaginary", the n_e independent otherwise; numerators up to 10, 2^40
    or 2^130."""
    size = rng.choice((10, 2**40, 2**130))
    sparse = {}
    for _ in range(rng.randint(1, 9)):
        e = rng.randrange(1, m)
        if 2 * e == m:
            continue
        n = rng.randrange(-size, size) or 1
        sparse[e] = sparse.get(e, 0) + n
        if kind != "generic":
            sparse[m - e] = sparse.get(m - e, 0) + (n if kind == "real" else -n)
    terms = [(e, n) for e, n in sparse.items() if n]
    den = rng.choice((1, 3, rng.randrange(1, 2**70)))
    vec = [0] * m
    for e, n in terms:
        vec[e] = n
    return Cyclotomic(m, vec, den), terms, den


@pytest.mark.parametrize("m", CERTIFY_CONDUCTORS)
def test_certified_pair_is_the_horner_pair(m):
    """Every pair the terms certify is the float64 pair of to_mpc, bit for
    bit; an exactly zero component and prec = 53 are never certified; and
    to_float64 gives the Horner pair whichever route it takes."""
    rng = random.Random(f"certify-{m}")
    routes = {"certified": 0, "fallback": 0}
    for i in range(16):
        kind = ("generic", "generic", "real", "imaginary")[i % 4]
        x, terms, den = _sparse_element(rng, m, kind)
        conj = x.galois(m - 1)
        zero_component = (x + conj).is_zero() or (x - conj).is_zero()
        assert zero_component == (kind != "generic")
        for prec in (53, 128, 160):
            want = _horner_pair(x, prec)
            pair = exact._certified_pair(x, prec, terms, den)
            if pair is None:
                routes["fallback"] += 1
            else:
                routes["certified"] += 1
                assert _pair_hex(pair) == want
                assert prec > 53 and not zero_component
            assert _pair_hex(x.to_float64(prec, terms, den)) == want
    assert routes["certified"] and routes["fallback"]


def test_to_float64_of_zero_is_the_horner_zero():
    for m in (1, 60, 2940):
        x = Cyclotomic.from_rational(0, m)
        assert _pair_hex(x.to_float64(128, [], 1)) == _horner_pair(x, 128) == ("0x0.0p+0",) * 2


@pytest.mark.parametrize("prec", [53, 128, 160, exact.SUM_PRECISION])
def test_rounded_cosine_and_sine_are_within_the_bounds(prec):
    """The accuracy the certificate assumes of mpmath: cos and sin of pi
    times a prec-bit angle 2e/M, rounded to prec bits, within 2 2^-prec of
    the values at that angle, so the rotation of to_mpc is within 10 2^-prec
    of exp(2 pi i / M), checked against 400 bits."""
    from mpmath.libmp import from_int, mpf_cos_sin_pi, mpf_div, round_nearest

    ctx = mpmath.mp.clone()
    ctx.prec = 400
    rng = random.Random(f"cos-sin-{prec}")
    for m in [1, 2, 4, 7, *CERTIFY_CONDUCTORS, 10010, 4194060]:
        for e in {1, m - 1, *(rng.randrange(m) for _ in range(8))}:
            angle = mpf_div(from_int(2 * e), from_int(m), prec, round_nearest)
            c, s = map(ctx.make_mpf, mpf_cos_sin_pi(angle, prec, round_nearest))
            near = ctx.cospi(ctx.make_mpf(angle)), ctx.sinpi(ctx.make_mpf(angle))
            assert max(abs(c - near[0]), abs(s - near[1])) <= ctx.ldexp(2, -prec)
            if e == 1:
                exact_root = ctx.expjpi(ctx.mpf(2) / m)
                assert abs(ctx.mpc(c, s) - exact_root) < ctx.ldexp(10, -prec)


def test_euler_phi_is_the_degree_of_the_cyclotomic_polynomial():
    for m in [*range(1, 3000), 15015, 37515]:
        assert euler_phi(m) == len(cyclotomic_polynomial(m)) - 1, m


@pytest.mark.parametrize("m", RENDER_CONDUCTORS)
def test_to_json_matches_fraction_view(m):
    for x in _render_elements(m):
        assert x.to_json() == {
            "conductor": m,
            "coeffs": [format_rational(c) for c in x.coeffs],
        }
