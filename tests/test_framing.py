import cmath
from fractions import Fraction as F

from conftest import random_orbit_suite
from oracles import phase_to_complex, series_eval_numeric
from torusfibre.exact import PhaseQ
from torusfibre.framing import (
    FramingPhase,
    GroupData,
    framing_evaluate,
    framing_phase,
    framing_series,
)
from torusfibre.spectrum import EigenSpectrum, eigen_dimensions

SU2 = GroupData(2)


def test_group_data():
    g = GroupData(3)
    assert (g.dim_G, g.dual_coxeter, g.rank) == (8, 3, 2)
    assert GroupData.parse("SU(4)").N == 4
    assert GroupData.parse("su2").N == 2


def test_z4_framing():
    fp = framing_phase(EigenSpectrum(4, (0, 0, 1, 2)), SU2)
    assert fp.B == F(3, 4)
    assert framing_evaluate(fp, 2) == PhaseQ(F(3, 8))
    assert framing_evaluate(fp, 998) == PhaseQ(F(1497, 2000))


def test_m2_framing_vanishes():
    assert framing_phase(EigenSpectrum(2, (0, 2)), SU2).B == 0
    assert framing_phase(EigenSpectrum(2, (5, 3)), GroupData(4)).B == 0


def test_free_action_framing_vanishes():
    from conftest import FREE2, FREE3
    from torusfibre.orbit import OrbitData

    frees = [FREE2, FREE3, OrbitData(5, 2, []), OrbitData(7, 2, []), OrbitData(12, 3, [])]
    frees += [d for d in random_orbit_suite(seed=21, count=30) if not d.branches]
    assert len(frees) >= 5
    for data in frees:
        spec = eigen_dimensions(data)
        for N in (2, 3):
            assert framing_phase(spec, GroupData(N)).B == 0


def test_conjugation_antisymmetry():
    spec = EigenSpectrum(5, (1, 3, 0, 2, 1))
    flipped = EigenSpectrum(5, (1, 1, 2, 0, 3))
    assert framing_phase(spec, SU2).B == -framing_phase(flipped, SU2).B


def test_series_coefficients():
    fp = FramingPhase(B=F(3, 4), group=SU2)
    s = framing_series(fp, 2)
    assert s.leading == PhaseQ(F(3, 4))
    assert s.shift == 2
    assert s.coeffs[1] == (F(0), F(-3, 2))
    assert s.coeffs[2] == (F(0), F(0), F(9, 8))
    assert framing_series(FramingPhase(B=F(0), group=SU2), 3).leading == PhaseQ(0)


def test_series_matches_exact_evaluation():
    fp = FramingPhase(B=F(3, 4), group=SU2)
    s = framing_series(fp, 6)
    for k in (100, 1000, 10000):
        exact = phase_to_complex(framing_evaluate(fp, k))
        bound = 10 * abs(2 * cmath.pi * float(fp.B) * 2) ** 7 / 5040 / (k + 2) ** 7
        assert abs(series_eval_numeric(s, k) - exact) < max(bound, 1e-12)
