"""Acceptance gate.

Each test covers one numbered release criterion and prints a single
pass/fail line (outside pytest's capture) so the run log shows the
scorecard at a glance.
"""

import cmath
import json
import time
from fractions import Fraction as F
from math import gcd

from conftest import FREE2, FREE3, HYPER, M5, Z3, Z4, random_orbit_suite
from oracles import is_rational, mu_bruteforce, orbit_to_json, rational_value, series_eval_numeric
from torusfibre.cli import main as cli_main
from torusfibre.exact import PhaseQ
from torusfibre.framing import GroupData, framing_evaluate, framing_phase, framing_series
from torusfibre.localization import CohomologyOracle, point_contribution, smooth_contribution
from torusfibre.orbit import OrbitData, seifert_invariants, total_genus
from torusfibre.spectrum import eigen_dimensions, mu_value, wall_signature
from torusfibre.strata import count_strata_burnside, enumerate_strata

SU2 = GroupData(2)


def _check(num, name, capsys, body):
    try:
        ok = bool(body())
        detail = ""
    except Exception as exc:  # report, then fail loudly below
        ok = False
        detail = f" ({type(exc).__name__}: {exc})"
    with capsys.disabled():
        print(f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {name}{detail}")
    assert ok, f"criterion {num} failed: {name}{detail}"


def test_criterion_01_mu_oracle_equivalence(capsys):
    def body():
        start = time.monotonic()
        for m in range(2, 51):
            for n in range(1, m):
                if gcd(n, m) != 1:
                    continue
                for a in range(m):
                    v = mu_bruteforce(m, n, a)
                    if not is_rational(v) or rational_value(v) != mu_value(m, n, a):
                        return False
        return time.monotonic() - start < 10.0

    _check(1, "root-of-unity sum: brute force matches closed form, m <= 50", capsys, body)


def test_criterion_02_spectrum_sum_rules(capsys, orbit_suite):
    def body():
        assert len(orbit_suite) >= 200
        for data in orbit_suite:
            spec = eigen_dimensions(data)
            if sum(spec.d) != total_genus(data) or spec.d[0] != data.quotient_genus:
                return False
        return True

    _check(2, "eigenvalue multiplicities: sum rules on 200 random inputs", capsys, body)


def test_criterion_03_hyperelliptic_fixture(capsys):
    def body():
        spec = eigen_dimensions(HYPER)
        sf = seifert_invariants(HYPER)
        return (
            spec.d == (0, 2)
            and wall_signature(spec) == 0
            and framing_phase(spec, SU2).B == 0
            and sf.b == -3
            and sf.base_genus == 0
            and sf.pairs == ((2, 1),) * 6
            and sf.euler_number() == 0
        )

    _check(3, "hyperelliptic involution fixture, all exact", capsys, body)


def test_criterion_04_order_four_fixture(capsys):
    def body():
        spec = eigen_dimensions(Z4)
        if spec.d != (0, 0, 1, 2) or wall_signature(spec) != -2:
            return False
        fp = framing_phase(spec, SU2)
        if fp.B != F(3, 4):
            return False
        k = 1000
        if framing_evaluate(fp, k) != PhaseQ(F(3, 4) * k / (k + 2)):
            return False
        series = framing_series(fp, 4)
        exact = cmath.exp(2j * cmath.pi * float(F(3, 4) * k / (k + 2)))
        return abs(series_eval_numeric(series, k) - exact) < 1e-8

    _check(4, "order-four fixture with framing series at k = 1000", capsys, body)


def test_criterion_05_free_action_framing(capsys, orbit_suite):
    def body():
        frees = [FREE2, FREE3, OrbitData(5, 2, []), OrbitData(12, 3, [])]
        frees += [d for d in orbit_suite if not d.branches]
        for data in frees:
            spec = eigen_dimensions(data)
            for N in (2, 3, 4):
                if framing_phase(spec, GroupData(N)).B != 0:
                    return False
        return True

    _check(5, "free actions carry no framing correction", capsys, body)


def test_criterion_06_strata_count(capsys):
    def body():
        strata = enumerate_strata(HYPER, SU2)
        if len(strata) != 33 or count_strata_burnside(HYPER, SU2) != 33:
            return False
        z1 = [s for s in strata if s.z == 1]
        return len(z1) == 1 and z1[0].ranks == (3, 0) and z1[0].d_c == 3

    _check(6, "33 hyperelliptic strata by two independent counts", capsys, body)


def test_criterion_07_rank_sum_rule(capsys):
    cases = [
        (HYPER, 2),
        (Z3, 2),
        (Z4, 2),
        (M5, 2),
        (OrbitData(2, 1, [(2, 1), (2, 1)]), 2),
        (OrbitData(2, 1, [(2, 1), (2, 1)]), 3),
        (OrbitData(3, 1, [(3, 1), (3, 2)]), 3),
        (Z3, 3),
        (OrbitData(2, 1, [(2, 1), (2, 1)]), 4),
        (OrbitData(3, 1, [(3, 1), (3, 2)]), 4),
    ]
    cases += [
        (d, 2)
        for d in random_orbit_suite(seed=13, count=25, fixed_points_only=True)
        if d.m <= 8 and len(d.branches) <= 5
    ]

    def body():
        seen = 0
        for data, N in cases:
            group = GroupData(N)
            g = total_genus(data)
            for s in enumerate_strata(data, group):
                seen += 1
                if sum(s.ranks) != (g - 1) * group.dim_G:
                    return False
        return seen > 0

    _check(7, "stratum rank sums equal (g-1) dim G for N <= 4", capsys, body)


def test_criterion_08_localization_collapse(capsys):
    def body():
        if point_contribution([0, 1, 1], 1) != F(1, 3):
            return False
        checked = 0
        for data in (M5, Z4):
            for s in enumerate_strata(data, SU2):
                if s.d_c != 0:
                    continue
                checked += 1
                value = point_contribution(s.ranks, s.z_delta_order)
                contrib = smooth_contribution(
                    data, s, SU2, CohomologyOracle.trivial(), PhaseQ(0)
                )
                if len(contrib.coefficients) != 1 or contrib.coefficients[0] != value:
                    return False
        return checked > 0

    _check(8, "zero-dimensional localization collapses to the point formula", capsys, body)


def test_criterion_09_fit_roundtrip(capsys):
    from torusfibre.exact import Cyclotomic
    from torusfibre.expansion import (
        InvariantModel,
        evaluate_invariant,
        fit_expansion,
    )
    from torusfibre.framing import FramingPhase
    from torusfibre.localization import ContributionPolynomial

    def poly(q, *coeffs):
        return ContributionPolynomial(
            coefficients=[Cyclotomic.from_rational(F(c)) for c in coeffs], q=q
        )

    def body():
        truth = {
            F(1, 3): (F(2), F(1)),     # 1*k^2 + ... leading coeff 1
            F(7, 60): (F(0), F(5, 4)),
            F(0): (F(1), F(3)),
        }
        model = InvariantModel(
            framing=FramingPhase(B=F(0), group=SU2),
            terms=[
                poly(PhaseQ(F(1, 3)), 2, 0, 1),
                poly(PhaseQ(F(7, 60)), F(5, 4)),
                poly(PhaseQ(0), 0, 3),
            ],
        )
        samples = []
        for k in range(1, 201):
            _, numeric = evaluate_invariant(model, k, precision=160)
            samples.append((k, complex(numeric)))
        res = fit_expansion(samples, 60, 4, 3)
        got = {t["q"]: (t["d"], t["b"]) for t in res.terms}
        if set(got) != set(truth):
            return False
        for q, (d, b) in truth.items():
            dd, bb = got[q]
            if dd != d or abs(bb - b) / abs(b) > 1e-8:
                return False
        lin = fit_expansion([(k, complex(k + 1)) for k in range(1, 41)], 10, 1, 1)
        if len(lin.terms) != 1:
            return False
        t = lin.terms[0]
        return t["q"] == 0 and t["d"] == 1 and abs(t["b"] - 1) < 1e-8

    _check(9, "asymptotic fit recovers assembled models exactly in (q, d)", capsys, body)


def test_criterion_10_cli_determinism(capsys, tmp_path):
    fixtures = {
        "hyper.json": HYPER,
        "z4.json": Z4,
        "m5.json": M5,
    }
    for name, data in fixtures.items():
        (tmp_path / name).write_text(json.dumps(orbit_to_json(data)))
    cs = tmp_path / "cs.json"
    cs.write_text(json.dumps({str(i): "0" for i in range(27)}))
    commands = [
        ["validate", "--orbit", str(tmp_path / "hyper.json")],
        ["seifert", "--orbit", str(tmp_path / "hyper.json")],
        ["spectrum", "--orbit", str(tmp_path / "z4.json")],
        ["framing", "--orbit", str(tmp_path / "z4.json"), "--level", "2"],
        ["strata", "--orbit", str(tmp_path / "hyper.json")],
        ["contributions", "--orbit", str(tmp_path / "m5.json")],
        [
            "invariant",
            "--orbit",
            str(tmp_path / "m5.json"),
            "--cs-phases",
            str(cs),
            "--level",
            "5",
        ],
    ]

    def body():
        for argv in commands:
            outputs = set()
            for _ in range(2):
                code = cli_main(argv)
                captured = capsys.readouterr()
                if code != 0:
                    return False
                outputs.add(captured.out)
            if len(outputs) != 1:
                return False
        return True

    _check(10, "repeated CLI runs are byte-identical", capsys, body)
