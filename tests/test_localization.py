from fractions import Fraction as F
from itertools import combinations

import pytest

from conftest import FREE2, HYPER, M5, Z3, Z4, clear_caches, is_asymmetric, random_asymmetric_orbits
from oracles import euclid_inverse, lambda_inverse_dict, todd_log_series
from torusfibre.errors import (
    InvariantViolation,
    MissingChernData,
    NotZeroDimensional,
    OracleDegreeOverflow,
)
from torusfibre.exact import Cyclotomic, PhaseQ
from torusfibre.framing import GroupData
from torusfibre import localization
from torusfibre.localization import (
    CohomologyOracle,
    lambda_inverse_expansion,
    point_contribution,
    smooth_contribution,
)
from torusfibre.orbit import OrbitData
from torusfibre.spectrum import lefschetz_trace
from torusfibre.strata import StratumDescriptor, enumerate_strata

SU2 = GroupData(2)


def _prefactor(ranks):
    m = len(ranks)
    acc = Cyclotomic.from_rational(1, m)
    for i in range(1, m):
        acc = acc * (1 - Cyclotomic.zeta(m, i)) ** (-ranks[i])
    return acc


def test_point_contribution_m2():
    assert point_contribution([0, 2], 2) == F(1, 8)


def test_point_contribution_m3():
    assert point_contribution([0, 1, 1], 1) == F(1, 3)


def test_point_contribution_requires_zero_dimension():
    with pytest.raises(NotZeroDimensional):
        point_contribution([3, 0], 2)


def test_m5_zero_dimensional_strata_exact():
    strata = [s for s in enumerate_strata(M5, SU2) if s.d_c == 0]
    assert len(strata) == 8
    for s in strata:
        value = point_contribution(s.ranks, s.z_delta_order)
        assert not value.is_zero()


def _point_strata():
    """(data, group, stratum) for every point stratum of the fixtures in
    SU(2) and SU(3); FREE2 (no fixed points, so no rank data) and HYPER in
    SU(2) have none."""
    return [
        (data, group, s)
        for data in (HYPER, Z3, Z4, M5, FREE2)
        for group in (SU2, GroupData(3))
        for s in enumerate_strata(data, group)
        if s.d_c == 0
    ]


def test_zero_dimensional_collapse():
    # the oracle route over the trivial oracle must reproduce the closed
    # form: there the exponential of no terms is 1
    points = _point_strata()
    assert len(points) == 250
    for data, group, s in points:
        value = point_contribution(s.ranks, s.z_delta_order)
        contrib = smooth_contribution(data, s, group, CohomologyOracle.trivial(), PhaseQ(0))
        assert len(contrib.coefficients) == 1
        assert contrib.coefficients[0] == value


def test_lambda_inverse_trivial_oracle_is_scalar():
    for data, group, s in _point_strata():
        pref, terms = lambda_inverse_expansion(data, s, group, CohomologyOracle.trivial())
        assert pref == _prefactor(s.ranks)
        assert terms == []


def _z3_stratum():
    return next(s for s in enumerate_strata(Z3, SU2) if s.ranks == (1, 1, 1))


def _toy_oracle(extra_chern=None, pairing="7/2"):
    chern = {"omega": {"u": "1"}}
    if extra_chern:
        chern.update(extra_chern)
    return CohomologyOracle.from_json(
        {
            "d_c": 1,
            "generators": [{"name": "u", "degree": 2}],
            "pairing": {"u": pairing},
            "chern": chern,
        }
    )


def test_toy_oracle_linear_term():
    s = _z3_stratum()
    contrib = smooth_contribution(Z3, s, SU2, _toy_oracle(), PhaseQ(F(1, 4)))
    assert len(contrib.coefficients) == 2
    expect = _prefactor(s.ranks) * F(7, 2) * Z3.m * F(1, s.z_delta_order)
    assert contrib.coefficients[1] == expect
    assert contrib.q == PhaseQ(F(1, 4))


def test_toy_oracle_with_tangent_chern():
    # T_c with c_1 = 2u: Todd contributes c_1/2 and the reduced lambda class
    # contributes sum_j beta_j * (-c_1) = +c_1 for m = 3, so the constant
    # term is (3/2) c_1 paired, scaled by the prefactor
    s = _z3_stratum()
    oracle = _toy_oracle({"T_c": {"rank": 1, "classes": [{"u": "2"}]}})
    contrib = smooth_contribution(Z3, s, SU2, oracle, PhaseQ(0))
    pref = _prefactor(s.ranks)
    assert contrib.coefficients[0] == pref * F(3, 2) * 2 * F(7, 2) * F(1, s.z_delta_order)
    assert contrib.coefficients[1] == pref * F(7, 2) * Z3.m * F(1, s.z_delta_order)


def test_symbolic_phase_passthrough():
    s = _z3_stratum()
    contrib = smooth_contribution(Z3, s, SU2, _toy_oracle())
    assert contrib.is_symbolic()


def test_eigen_rank_certificate():
    s = _z3_stratum()
    oracle = _toy_oracle({"E[0][1]": {"rank": 5, "classes": []}})
    with pytest.raises(InvariantViolation):
        smooth_contribution(Z3, s, SU2, oracle, PhaseQ(0))


def test_oracle_dimension_mismatch():
    s = _z3_stratum()
    with pytest.raises(MissingChernData):
        smooth_contribution(Z3, s, SU2, CohomologyOracle.trivial(), PhaseQ(0))


def test_degree_overflow():
    with pytest.raises(OracleDegreeOverflow):
        CohomologyOracle.from_json(
            {
                "d_c": 1,
                "generators": [{"name": "u", "degree": 2}],
                "pairing": {"u": "1"},
                "chern": {"omega": {"u^2": "1"}},
            }
        )


def test_empty_stratum_refused():
    s = next(s for s in enumerate_strata(M5, SU2) if s.d_c < 0)
    with pytest.raises(NotZeroDimensional):
        smooth_contribution(M5, s, SU2, CohomologyOracle.trivial(), PhaseQ(0))


def test_todd_of_trivial_bundle_is_one():
    from torusfibre.localization import _exp, _power_sums, _todd_log_coefficients

    oracle = _toy_oracle()
    p = _power_sums(oracle.basis, [], 1)
    log_td = [((a,), v, d * b) for (v, d), (a, b) in zip(p[1:], _todd_log_coefficients(1))]
    # rows over the basis 1, u of Q(zeta_1) = Q, and their denominator
    assert _exp(oracle.basis, log_td, 1) == ([[1, 0]], 1)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_power_sums_of_split_bundles(r):
    """A bundle with Chern roots y_1..y_r, generators of degree 2, has the
    Chern classes e_k(y) and the power sums p_n = sum_i y_i^n, read off
    without Newton's identities, for n <= 4."""
    names = [f"y{i}" for i in range(r)]
    classes = [{"*".join(c): "1" for c in combinations(names, k)} for k in range(1, r + 1)]
    oracle = CohomologyOracle.from_json({
        "d_c": 4,
        "generators": [{"name": y, "degree": 2} for y in names],
        "pairing": {"y0^4": "1"},
        "chern": {"T_c": {"rank": r, "classes": classes}},
    })
    for n, (nums, den) in enumerate(oracle.tangent_power_sums[1:], 1):
        roots = {tuple(n * (j == i) for j in range(r)): (1, 1) for i in range(r)}
        want, want_den = oracle.dense(roots)
        assert [F(x, den) for x in nums] == [F(x, want_den) for x in want]


def test_basis_size_is_predicted_exactly():
    """The monomial and product-table counts that the basis budget reads
    equal those of the built basis, degree-0 generators included."""
    from torusfibre.localization import _Basis, _basis_size

    for degrees in [(), (0,), (2,), (2, 1, 0), (1, 3), (2, 2, 2, 2), (4, 0, 1, 2), (1,) * 5]:
        for top in range(11):
            basis = _Basis(degrees, top)
            assert _basis_size(degrees, top) == (len(basis.degree), sum(map(len, basis.table)))


@pytest.mark.parametrize("top_n", range(25))
def test_todd_closed_form_matches_formal_log(top_n):
    from torusfibre.localization import _todd_log_coefficients

    assert tuple(F(*f) for f in _todd_log_coefficients(top_n)) == todd_log_series(top_n)


def test_todd_log_coefficients_first_values():
    from torusfibre.localization import _todd_log_coefficients

    assert _todd_log_coefficients(6) == (
        (1, 2), (-1, 24), (0, 1), (1, 2880), (0, 1), (-1, 181440)
    )


def test_trace_and_lambda_inverse_need_no_euclid(monkeypatch):
    # (1 - zeta^j)^{-1} comes from the closed form -(1/m') sum_t t zeta^{jt}
    def refuse(self):
        raise AssertionError("Cyclotomic.inverse called")

    monkeypatch.setattr(Cyclotomic, "inverse", refuse)
    for data in (M5, Z3, OrbitData(12, 1, [(4, 1), (3, 1), (12, 5)])):
        for beta in range(data.m):
            lefschetz_trace(data, beta)
    s = _z3_stratum()
    lambda_inverse_dict(Z3, s, SU2, _toy_oracle({"T_c": {"rank": 1, "classes": [{"u": "2"}]}}))
    for s in enumerate_strata(M5, SU2):
        if s.d_c == 0:
            lambda_inverse_dict(M5, s, SU2, CohomologyOracle.trivial())


def test_point_route_needs_no_closed_form_inverse(monkeypatch):
    # the CLI certifies point_contribution against the oracle route, which
    # takes (1 - zeta^j)^{-1} from inverse_one_minus_zeta; the point route
    # must not, or the certificate compares a computation with itself
    points = [
        (data, s)
        for data in (M5, Z4)
        for s in enumerate_strata(data, SU2)
        if s.d_c == 0
    ]
    assert {data.m for data, _ in points} == {M5.m, Z4.m}
    expected = [point_contribution(s.ranks, s.z_delta_order) for _, s in points]

    def refuse(m, e):
        raise AssertionError("inverse_one_minus_zeta called")

    monkeypatch.setattr("torusfibre.exact.inverse_one_minus_zeta", refuse)
    monkeypatch.setattr("torusfibre.localization.inverse_one_minus_zeta", refuse)
    for (data, s), value in zip(points, expected):
        assert point_contribution(s.ranks, s.z_delta_order) == value
        with pytest.raises(AssertionError, match="inverse_one_minus_zeta"):
            smooth_contribution(data, s, SU2, CohomologyOracle.trivial(), PhaseQ(0))


def _euclid_product(ranks, inverses):
    """prod_i (1 - zeta_m^i)^{-r_i}, with inverses[i] = (1 - zeta_m^i)^{-1}."""
    m = len(ranks)
    acc = Cyclotomic.from_rational(1, m)
    for i in range(1, m):
        r = ranks[i]
        acc = acc * (inverses[i] ** r if r > 0 else (1 - Cyclotomic.zeta(m, i)) ** -r)
    return acc


def test_memo_scalars_match_direct_products():
    """The cached point and oracle products, shared by every stratum of an
    orbit, and the weights beta_j^t / t equal the products built directly
    for each stratum, on seeded asymmetric fixed-point data."""
    suite = random_asymmetric_orbits(
        43, 120, range(2, 9), max_branches=4, fixed_points_only=True
    )
    suite = [d for d in suite if is_asymmetric(d)][:10]
    assert len(suite) == 10 and len({d.m for d in suite}) > 3
    strata_seen = 0
    for data in suite:
        m = data.m
        inverses = [None] + [euclid_inverse(1 - Cyclotomic.zeta(m, i)) for i in range(1, m)]
        strata = [s for s in enumerate_strata(data, SU2) if s.d_c is not None and s.d_c >= 0]
        for s in strata:
            direct = _euclid_product(s.ranks, inverses)
            assert localization._point_product(s.ranks) == direct
            assert localization._prefactor(s.ranks) == direct
            if s.d_c == 0:
                value = direct * F(1, s.z_delta_order)
                assert point_contribution(s.ranks, s.z_delta_order) == value
                contrib = smooth_contribution(
                    data, s, SU2, CohomologyOracle.trivial(), PhaseQ(0)
                )
                assert contrib.coefficients == [value]
        for j in range(1, m):
            beta = Cyclotomic.zeta(m, j) * inverses[j]
            for t in range(1, 4):
                assert localization._weight(m, j, t) == beta**t * F(1, t)
        # the routes keep their own values, keyed by rank vector
        assert all(
            localization._point_product(s.ranks) is not localization._prefactor(s.ranks)
            for s in strata
        )
        strata_seen += len(strata)
    kept = localization._prefactor.cache_info().currsize
    assert localization._point_product.cache_info().currsize == kept
    assert kept < strata_seen and strata_seen > 2 * len(suite)


def test_rank_certificate_runs_with_a_warm_memo():
    s = _z3_stratum()
    smooth_contribution(Z3, s, SU2, _toy_oracle(), PhaseQ(0))
    assert localization._prefactor.cache_info().currsize
    bad = _toy_oracle({"E[0][1]": {"rank": 5, "classes": []}})
    with pytest.raises(InvariantViolation):
        smooth_contribution(Z3, s, SU2, bad, PhaseQ(0))


def test_rank_certificate_runs_with_filled_tables():
    """The canonical ranks and the w2 table are cached; a stratum with a
    wrong rank entry, after one with the same c_delta classes has filled
    them, still fails the 2m r_j certificate."""
    eigen_ranks = localization._eigen_ranks
    cases = [(M5, next(s for s in enumerate_strata(M5, SU2) if s.d_c == 0),
              CohomologyOracle.trivial()),
             (Z3, _z3_stratum(), _toy_oracle())]
    for data, good, oracle in cases:
        smooth_contribution(data, good, SU2, oracle, PhaseQ(0))
        filled = eigen_ranks.cache_info()
        for (_, n), c in zip(data.branches, good.c_delta):
            eigen_ranks(data.m, n, SU2.rank, c)
        assert eigen_ranks.cache_info().misses == filled.misses
        for j in range(1, data.m):
            ranks = list(good.ranks)
            ranks[j] += 1
            bad = StratumDescriptor(
                good.z, good.classes, good.z_delta_order, good.c_delta, tuple(ranks), good.d_c
            )
            with pytest.raises(InvariantViolation, match=f"r_{j} = {ranks[j]}"):
                smooth_contribution(data, bad, SU2, oracle, PhaseQ(0))
        assert eigen_ranks.cache_info().currsize == filled.currsize


def test_warm_caches_keep_orbits_apart():
    """Orbits of one order, among them Z3 with its branches reordered (so
    the eigenbundle E[1][1] sits at another branch type), get on caches
    that the orbits before them warmed what cold caches give each, and the
    override makes the reordering show."""
    orbits = [Z3, OrbitData(3, 0, [(3, 1), (3, 2), (3, 1), (3, 2)]), OrbitData(3, 1, [(3, 2)] * 3)]
    oracle = _toy_oracle({"E[1][1]": {"classes": [{"u": "3"}]}, "T_c": {"rank": 1, "classes": [{"u": "2"}]}})

    def values(data):
        return [
            (s.d_c, smooth_contribution(
                data, s, SU2, oracle if s.d_c else CohomologyOracle.trivial(), PhaseQ(0)
            ).coefficients)
            for s in enumerate_strata(data, SU2)
            if s.d_c in (0, 1)
        ]

    warm = [values(data) for data in orbits]
    assert localization._exponent_scalar.cache_info().hits
    cold = []
    for data in orbits:
        clear_caches()
        cold.append(values(data))
    assert warm == cold
    # the d_c = 1 strata of the two genus-0 orbits
    smooth = [got for gots in warm[:2] for d_c, got in gots if d_c]
    assert len(smooth) == 2 and smooth[0] != smooth[1]


def test_memo_routes_read_their_own_inverses(monkeypatch):
    # caches filled by the oracle route must not feed the point route, nor
    # the other way round
    points = [s for s in enumerate_strata(M5, SU2) if s.d_c == 0]
    for s in points:
        smooth_contribution(M5, s, SU2, CohomologyOracle.trivial(), PhaseQ(0))

    def refuse(self):
        raise AssertionError("Cyclotomic.inverse called")

    monkeypatch.setattr(Cyclotomic, "inverse", refuse)
    with pytest.raises(AssertionError, match="Cyclotomic.inverse"):
        point_contribution(points[0].ranks, points[0].z_delta_order)
    monkeypatch.undo()

    clear_caches()
    for s in points:
        point_contribution(s.ranks, s.z_delta_order)

    def refuse_closed_form(m, e):
        raise AssertionError("inverse_one_minus_zeta called")

    monkeypatch.setattr("torusfibre.localization.inverse_one_minus_zeta", refuse_closed_form)
    with pytest.raises(AssertionError, match="inverse_one_minus_zeta"):
        smooth_contribution(M5, points[0], SU2, CohomologyOracle.trivial(), PhaseQ(0))
