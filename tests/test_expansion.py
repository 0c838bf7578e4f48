import cmath
from fractions import Fraction as F

import numpy as np
import pytest

from torusfibre.errors import (
    IllConditioned,
    ResidualTooLarge,
    SymbolicPhaseInNumericContext,
)
from torusfibre.exact import Cyclotomic, PhaseQ
from torusfibre.expansion import (
    InvariantModel,
    _lstsq,
    assemble_invariant,
    evaluate_invariant,
    fit_expansion,
)
from torusfibre.framing import FramingPhase, GroupData
from torusfibre.localization import ContributionPolynomial

SU2 = GroupData(2)
FLAT = FramingPhase(B=F(0), group=SU2)


def _poly(q, *rational_coeffs):
    return ContributionPolynomial(
        coefficients=[Cyclotomic.from_rational(F(c)) for c in rational_coeffs],
        q=q,
    )


def test_assemble_merges_equal_phases():
    t1 = _poly(PhaseQ(F(1, 3)), 1, 2)
    t2 = _poly(PhaseQ(F(1, 3)), 5)
    t3 = _poly(PhaseQ(F(2, 5)), 1)
    model = assemble_invariant(None, SU2, [t1, t2, t3], FLAT)
    assert len(model.terms) == 2
    merged = next(t for t in model.terms if t.q == PhaseQ(F(1, 3)))
    assert merged.coefficients[0] == 6 and merged.coefficients[1] == 2


def test_assemble_keeps_symbols_apart():
    model = assemble_invariant(None, SU2, [_poly("q0", 1), _poly("q1", 1)], FLAT)
    assert len(model.terms) == 2


def test_evaluate_constant_model():
    model = InvariantModel(framing=FLAT, terms=[_poly(PhaseQ(0), F(1, 8))])
    for k in (1, 5, 12):
        exact, numeric = evaluate_invariant(model, k)
        assert exact == F(1, 8)
        assert abs(numeric - 0.125) < 1e-30


def test_evaluate_phase_polynomial():
    model = InvariantModel(framing=FLAT, terms=[_poly(PhaseQ(F(1, 3)), 1, 2)])
    exact, _ = evaluate_invariant(model, 3)  # phase is trivial at k = 3
    assert exact == 7


def test_evaluate_with_framing():
    model = InvariantModel(
        framing=FramingPhase(B=F(3, 4), group=SU2),
        terms=[_poly(PhaseQ(0), 1)],
    )
    exact, numeric = evaluate_invariant(model, 2)
    assert exact == Cyclotomic.zeta(8, 3)
    assert abs(complex(numeric) - cmath.exp(2j * cmath.pi * 3 / 8)) < 1e-15


def test_evaluate_rejects_symbols():
    model = InvariantModel(framing=FLAT, terms=[_poly("q0", 1)])
    with pytest.raises(SymbolicPhaseInNumericContext):
        evaluate_invariant(model, 2)


def test_fit_linear_growth():
    samples = [(k, complex(k + 1)) for k in range(1, 41)]
    res = fit_expansion(samples, q_denominator_bound=10, max_terms=1, degree_bound=1)
    assert len(res.terms) == 1
    t = res.terms[0]
    assert (t["q"], t["d"]) == (F(0), F(1))
    assert abs(t["b"] - 1) < 1e-10
    assert res.residual < 1e-10


def test_fit_single_phase():
    samples = [
        (k, cmath.exp(2j * cmath.pi * k / 3) * (2 * k + 1)) for k in range(1, 41)
    ]
    res = fit_expansion(samples, 10, 1, 1)
    t = res.terms[0]
    assert (t["q"], t["d"]) == (F(1, 3), F(1))
    assert abs(t["b"] - 2) < 1e-10


def test_fit_two_phases():
    def f(k):
        return cmath.exp(2j * cmath.pi * k / 4) * (3 * k * k - k + 0.5) + cmath.exp(
            2j * cmath.pi * 2 * k / 5
        ) * 1.25

    samples = [(k, f(k)) for k in range(1, 201)]
    res = fit_expansion(samples, 60, 4, 3)
    by_q = {t["q"]: t for t in res.terms}
    assert set(by_q) == {F(1, 4), F(2, 5)}
    assert by_q[F(1, 4)]["d"] == 2 and abs(by_q[F(1, 4)]["b"] - 3) < 1e-8
    assert by_q[F(2, 5)]["d"] == 0 and abs(by_q[F(2, 5)]["b"] - 1.25) < 1e-8


def test_fit_half_integer_degree():
    samples = [(k, complex(2.5 * k ** 1.5)) for k in range(1, 41)]
    res = fit_expansion(samples, 5, 1, 2)
    t = res.terms[0]
    assert (t["q"], t["d"]) == (F(0), F(3, 2))
    assert abs(t["b"] - 2.5) < 1e-9


def test_fit_integer_only_mode():
    samples = [(k, complex(4 * k * k)) for k in range(1, 41)]
    res = fit_expansion(samples, 5, 1, 2, half_integer_degrees=False)
    t = res.terms[0]
    assert (t["q"], t["d"]) == (F(0), F(2))


def test_fit_shifted_variable():
    samples = [(k, complex(3 * (k + 2) ** 2)) for k in range(1, 41)]
    res = fit_expansion(samples, 5, 1, 2, variable_shift=2)
    t = res.terms[0]
    assert (t["q"], t["d"]) == (F(0), F(2))
    assert abs(t["b"] - 3) < 1e-10


def test_fit_insufficient_samples():
    with pytest.raises(ValueError):
        fit_expansion([(k, 1.0 + 0j) for k in range(1, 6)], 5, 2, 2)


def test_fit_residual_threshold():
    # quadratic data fit with a degree-0 basis cannot be tight
    samples = [(k, complex(k * k)) for k in range(1, 41)]
    with pytest.raises(ResidualTooLarge):
        fit_expansion(samples, 3, 1, 0, residual_threshold=1e-6)


def test_fit_condition_threshold():
    samples = [(k, complex(k + 1)) for k in range(1, 41)]
    with pytest.raises(IllConditioned):
        fit_expansion(samples, 3, 1, 1, condition_threshold=0.01)


def test_fit_default_condition_gate():
    # far from k = 1 the k^3 .. k^0 columns are nearly dependent
    samples = [(k, complex(k + 1)) for k in range(400, 440)]
    with pytest.raises(IllConditioned):
        fit_expansion(samples, 3, 1, 3)


def test_dependent_columns_exceed_default_condition_threshold():
    col = np.arange(1.0, 41.0) + 0j
    _, _, cond = _lstsq(np.stack([col, np.zeros(40)], axis=1), col)
    assert cond == np.inf
    _, _, cond = _lstsq(np.stack([col, 2 * col], axis=1), col)
    assert cond > 2.0 ** 32


def test_fit_needs_a_term_and_a_degree():
    samples = [(k, complex(k + 1)) for k in range(1, 41)]
    for terms, degree in ((0, 1), (1, -1), (1, -2)):
        with pytest.raises(ValueError):
            fit_expansion(samples, 3, terms, degree)


def test_fit_rejects_non_finite_samples():
    samples = [(k, complex(k + 1)) for k in range(1, 41)]
    samples[7] = (8, complex("nan"))
    with pytest.raises(ValueError):
        fit_expansion(samples, 3, 1, 1)


def test_model_roundtrip_through_fit():
    terms = [
        _poly(PhaseQ(F(1, 3)), 2, 0, 1),   # degree 2
        _poly(PhaseQ(F(7, 60)), F(5, 4)),  # degree 0
        _poly(PhaseQ(0), 0, 3),            # degree 1
    ]
    model = InvariantModel(framing=FLAT, terms=terms)
    samples = []
    for k in range(1, 161):
        _, numeric = evaluate_invariant(model, k, precision=160)
        samples.append((k, complex(numeric)))
    res = fit_expansion(samples, 60, 4, 3)
    by_q = {t["q"]: t for t in res.terms}
    assert set(by_q) == {F(0), F(1, 3), F(7, 60)}
    assert by_q[F(1, 3)]["d"] == 2 and abs(by_q[F(1, 3)]["b"] - 1) < 1e-8
    assert by_q[F(7, 60)]["d"] == 0 and abs(by_q[F(7, 60)]["b"] - 1.25) < 1e-8
    assert by_q[F(0)]["d"] == 1 and abs(by_q[F(0)]["b"] - 3) < 1e-8
