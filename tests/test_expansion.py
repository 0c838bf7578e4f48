import cmath
import json
import random
from fractions import Fraction as F
from math import lcm
from pathlib import Path

import numpy as np
import pytest

from oracles import assemble_pairwise, phase_to_cyclotomic, rational_value
from torusfibre.cli import _collect_contributions, main
from torusfibre.errors import (
    IllConditioned,
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
from torusfibre.framing import FramingPhase, GroupData, framing_evaluate, framing_phase
from torusfibre.localization import ContributionPolynomial
from torusfibre.orbit import OrbitData
from torusfibre.spectrum import eigen_dimensions
from torusfibre.strata import enumerate_strata

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


def test_assemble_orders_phases_by_value_then_tags_by_text():
    # numerator and denominator orders both differ from the value order here
    rng = random.Random("assemble-order")
    qs = {F(rng.randrange(d), d) for d in range(1, 31) for _ in range(3)}
    contributions = [_poly(PhaseQ(q), 1) for q in qs] + [_poly(t, 1) for t in ("q2", "q10", "q1")]
    rng.shuffle(contributions)
    model = assemble_invariant(None, SU2, contributions, FLAT)
    assert [t.q for t in model.terms[:len(qs)]] == [PhaseQ(q) for q in sorted(qs)]
    assert [t.q for t in model.terms[len(qs):]] == ["q1", "q10", "q2"]


def _random_coefficient(rng, m):
    """A Cyclotomic of conductor 1, m, 2m or 3m, a zero one time in five."""
    conductor = rng.choice([1, m, 2 * m, 3 * m])
    if rng.random() < 0.2:
        return Cyclotomic.from_rational(0, conductor)
    return Cyclotomic(conductor, [rng.randint(-3, 3) for _ in range(conductor)], rng.randint(1, 6))


def test_assemble_matches_the_pairwise_merge():
    """assemble_invariant sums each coefficient once; the pairwise merge of
    tests/oracles.py adds one contribution at a time and drops zero top
    coefficients after each.  On seeded lists of unequal length over
    conductors 1, m and their multiples, with PhaseQ phases and symbolic
    tags, where a later contribution cancels the top coefficients of its
    phase (or all of them) and the next ones fill them again, both give the
    same terms, conductors of zeros included."""
    refilled = 0
    for seed in range(60):
        rng = random.Random(f"assemble-{seed}")
        m = rng.choice([2, 3, 4, 6])
        phases = [PhaseQ(F(rng.randrange(6), 6)) for _ in range(3)] + ["q1", "q2"]
        contributions, cancelled = [], set()
        for _ in range(rng.randint(1, 25)):
            q = rng.choice(phases)
            coeffs = [_random_coefficient(rng, m) for _ in range(rng.randint(1, 4))]
            current = next((t.coefficients for t in assemble_pairwise(contributions)
                            if str(t.q) == str(q)), None)
            if current and len(current) > 1 and rng.random() < 0.4:
                # cancel the top coefficient, or the whole polynomial
                low = [-c for c in current[:-1]] if rng.random() < 0.5 else coeffs[:len(current) - 1]
                coeffs = low + [-current[-1]] + [Cyclotomic.from_rational(0, m)] * rng.randint(0, 1)
                cancelled.add((str(q), len(current) - 1))
            elif any((str(q), i) in cancelled for i in range(len(coeffs))):
                refilled += 1
            contributions.append(ContributionPolynomial(coefficients=coeffs, q=q))
        want = assemble_pairwise(contributions)
        got = assemble_invariant(None, SU2, contributions, FLAT).terms
        assert [t.to_json() for t in got] == [t.to_json() for t in want]
    assert refilled > 20


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


# -- literal evaluation route as an oracle --------------------------------------

GOLDEN_INPUTS = Path(__file__).parent / "golden" / "inputs"


def _evaluate_literal(model, k):
    """The invariant at level k by embedding every coefficient into the
    common conductor M and multiplying and adding there, term by term."""
    fr = framing_evaluate(model.framing, k)
    conductor = fr.q.denominator
    for t in model.terms:
        conductor = lcm(conductor, PhaseQ(t.q.q * k).q.denominator)
        for c in t.coefficients:
            conductor = lcm(conductor, c.conductor)
    acc = Cyclotomic.from_rational(0, conductor)
    for t in model.terms:
        poly = Cyclotomic.from_rational(0, conductor)
        kp = 1
        for c in t.coefficients:
            poly = poly + c.embed(conductor) * kp
            kp *= k
        acc = acc + phase_to_cyclotomic(PhaseQ(t.q.q * k), conductor) * poly
    return phase_to_cyclotomic(fr, conductor) * acc


def _golden_model(name, seed):
    """The SU(2) model of a golden orbit with the golden oracles and a seeded
    CS-phase map with denominator 12 and no symmetry between strata."""
    rng = random.Random(f"{name}-{seed}")
    return _model(name, lambda strata: {str(i): f"{rng.randrange(12)}/12" for i in range(len(strata))})


def _model(name, cs_of):
    """The SU(2) model of a golden orbit with the golden oracles and the
    CS-phase map cs_of(strata)."""
    data = OrbitData.from_json(json.loads((GOLDEN_INPUTS / f"{name}.json").read_text()))
    oracles = json.loads((GOLDEN_INPUTS / f"{name}_su2_oracles.json").read_text())
    strata = enumerate_strata(data, SU2)
    cs = cs_of(strata)
    entries = _collect_contributions(data, SU2, strata, cs, oracles, strict=True)
    contributions = [e["contribution"] for e in entries if "contribution" in e]
    framing = framing_phase(eigen_dimensions(data), SU2)
    return assemble_invariant(data, SU2, contributions, framing)


@pytest.mark.parametrize("name", ["m5", "z4"])
def test_evaluate_matches_literal_route(name):
    for seed in (1, 2):
        model = _golden_model(name, seed)
        for k in (5, 47, 197, 565):
            exact, _ = evaluate_invariant(model, k)
            literal = _evaluate_literal(model, k)
            assert exact.conductor == literal.conductor
            assert exact == literal
            assert exact.to_json() == literal.to_json()


@pytest.mark.parametrize("name", ["m5", "z4"])
def test_evaluate_prints_the_horner_pair(name, monkeypatch):
    """The float64 pair evaluate_invariant returns is that of the Horner
    rendering at the requested precision, bit for bit, whether the sum over
    the value's terms certified it or to_mpc ran; both happen here."""
    to_mpc, horner_calls = Cyclotomic.to_mpc, []

    def counted(self, prec):
        horner_calls.append(prec)
        return to_mpc(self, prec)

    monkeypatch.setattr(Cyclotomic, "to_mpc", counted)
    routes = set()
    model = _golden_model(name, 1)
    for k in (5, 47, 197, 565):
        for prec in (53, 128, 160):
            horner_calls.clear()
            exact, numeric = evaluate_invariant(model, k, precision=prec)
            routes.add(bool(horner_calls))
            value = to_mpc(exact, prec)
            assert (numeric.real.hex(), numeric.imag.hex()) == (
                float(value.real).hex(),
                float(value.imag).hex(),
            )
    assert routes == {True, False}


@pytest.mark.parametrize("prec", [128, 65536])
def test_level_5_pair_comes_from_the_terms(prec, capsys, monkeypatch):
    """invariant --level 5 on the golden M5 SU(2) inputs renders a value of
    phi(420) = 96 coefficients and 14 terms, more than STEPS_PER_TERM
    coefficients per term, whose pair the sum over the terms decides at
    both precisions: to_mpc never runs, and the printed pair is that of
    to_mpc(prec), bit for bit."""
    to_mpc, to_float64 = Cyclotomic.to_mpc, Cyclotomic.to_float64
    horner_calls, rendered = [], []

    def counted(self, p):
        horner_calls.append(p)
        return to_mpc(self, p)

    def recorded(self, p, terms, den):
        rendered.append(self)
        return to_float64(self, p, terms, den)

    monkeypatch.setattr(Cyclotomic, "to_mpc", counted)
    monkeypatch.setattr(Cyclotomic, "to_float64", recorded)
    monkeypatch.chdir(GOLDEN_INPUTS.parent)
    code = main([
        "invariant", "--orbit", "inputs/m5.json", "--group", "SU(2)",
        "--cs-phases", "inputs/m5_su2_cs.json", "--oracles", "inputs/m5_su2_oracles.json",
        "--level", "5", "--precision", str(prec),
    ])
    numeric = json.loads(capsys.readouterr().out)["value"]["numeric"]
    assert code == 0 and horner_calls == [] and len(rendered) == 1
    value = to_mpc(rendered[0], prec)
    assert [x.hex() for x in numeric] == [float(value.real).hex(), float(value.imag).hex()]


def test_fit_keeps_the_linear_term_of_the_hyper_model():
    """The HYPER SU(2) model with the golden inputs is (2/3)k^3 + k^2 + k/3
    at phase 2/3, with B = 0.  Fitted from k = 1..200, all three terms come
    back: the k term adds up to 200/3 to a sample, far above the pruning
    tolerance of 1e-7 of the largest sample (about 0.54), though its
    coefficient 1/3 is below it."""
    cs = json.loads((GOLDEN_INPUTS / "hyper_su2_cs.json").read_text())
    model = _model("hyper", lambda strata: cs)
    assert model.framing.B == 0 and len(model.terms) == 1
    assert model.terms[0].q == PhaseQ(F(2, 3))
    assert [rational_value(c) for c in model.terms[0].coefficients] == [0, F(1, 3), 1, F(2, 3)]
    samples = [(k, evaluate_invariant(model, k)[1]) for k in range(1, 201)]
    res = fit_expansion(samples, 12, 4, 4, half_integer_degrees=False)
    assert len(res.terms) == 1
    term = res.terms[0]
    assert term["q"] == F(2, 3) and term["d"] == 3
    b, a = term["b"], term["a"]
    assert len(a) == 2
    assert abs(b - F(2, 3)) < 1e-6
    assert abs(a[0] * b - 1) < 1e-6
    assert abs(a[1] * b - F(1, 3)) < 1e-6
