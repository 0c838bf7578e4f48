import cmath
import random
from fractions import Fraction as F

import pytest

from torusfibre.exact import Cyclotomic, PhaseQ, PhaseSeries, cyclotomic_polynomial, euler_phi


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
    assert PhaseQ(F(3, 4)) + PhaseQ(F(1, 2)) == PhaseQ(F(1, 4))
    assert PhaseQ(F(2, 5)).scale(5) == PhaseQ(0)
    assert PhaseQ(F(1, 3)).to_cyclotomic() == Cyclotomic.zeta(3)


def test_invert_random_elements():
    rng = random.Random(11)
    for _ in range(40):
        m = rng.randint(2, 24)
        coeffs = [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(euler_phi(m))]
        a = Cyclotomic(m, coeffs)
        if a.is_zero():
            continue
        assert a * a.inverse() == 1


def test_canonical_idempotence():
    rng = random.Random(5)
    for _ in range(50):
        m = rng.randint(2, 30)
        coeffs = [F(rng.randint(-50, 50)) for _ in range(2 * m)]
        a = Cyclotomic(m, coeffs)
        b = Cyclotomic(m, a.coeffs)
        assert a.coeffs == b.coeffs


def test_embedding_compatibility():
    rng = random.Random(6)
    for _ in range(30):
        m = rng.randint(2, 20)
        pa = [F(rng.randint(-9, 9)) for _ in range(euler_phi(m))]
        pb = [F(rng.randint(-9, 9)) for _ in range(euler_phi(m))]
        a, b = Cyclotomic(m, pa), Cyclotomic(m, pb)
        assert (a * b).embed(2 * m) == a.embed(2 * m) * b.embed(2 * m)
        assert (a + b).embed(2 * m) == a.embed(2 * m) + b.embed(2 * m)


def test_float_crosscheck():
    rng = random.Random(9)
    for _ in range(30):
        m = rng.randint(2, 60)
        pa = [F(rng.randint(-1000, 1000)) for _ in range(euler_phi(m))]
        pb = [F(rng.randint(-1000, 1000)) for _ in range(euler_phi(m))]
        a, b = Cyclotomic(m, pa), Cyclotomic(m, pb)
        lhs = (a * b).to_complex()
        rhs = a.to_complex() * b.to_complex()
        scale = max(abs(lhs), abs(rhs), 1.0)
        assert abs(lhs - rhs) / scale < 1e-9


def test_galois_conjugate_matches_complex_conjugate():
    a = Cyclotomic(7, [F(1), F(2), F(-1), F(0), F(3), F(1, 2)])
    assert abs(a.conjugate().to_complex() - a.to_complex().conjugate()) < 1e-12


def test_cyclotomic_polynomial_values():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_serialization_roundtrip():
    a = Cyclotomic(12, [F(1, 2), F(0), F(3), F(-7, 3)])
    assert Cyclotomic.from_json(a.to_json()) == a
    p = PhaseQ(F(5, 8))
    assert PhaseQ.from_json(p.to_json()) == p


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
        assert abs(s.eval_numeric(k) - target) < 1e-10
        assert abs(_as_inverse_k(s).eval_numeric(k) - target) < 1e-8


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
