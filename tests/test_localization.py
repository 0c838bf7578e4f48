import json
import random
from fractions import Fraction as F
from itertools import combinations
from math import gcd
from pathlib import Path

import pytest

from conftest import FREE2, HYPER, M5, Z3, Z4, clear_caches, is_asymmetric, random_asymmetric_orbits
from oracles import (
    euclid_inverse,
    lambda_inverse_dict,
    mu_bruteforce,
    norm_point_product,
    rational_value,
    todd_log_series,
)
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
from torusfibre.spectrum import lefschetz_trace, mu2_table
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


GOLDEN_INPUTS = Path(__file__).parent / "golden" / "inputs"
# the orbits of the golden cases with rank data, and their groups there
GOLDEN_RANKED = [("hyper", (2, 3, 4)), ("m5", (2, 3)), ("p17", (2,)), ("z3", (2, 3)),
                 ("z4", (2, 3)), ("z4_g1", (2, 3, 4))]


def _golden_rank_tuples():
    out = set()
    for name, groups in GOLDEN_RANKED:
        data = OrbitData.from_json(json.loads((GOLDEN_INPUTS / f"{name}.json").read_text()))
        for N in groups:
            out |= {s.ranks for s in enumerate_strata(data, GroupData(N))}
    return sorted(out)


def test_point_product_matches_both_routes_on_golden_rank_tuples():
    """The norm identity route equals the Galois-norm point route it
    replaced and the closed-form oracle route, on every rank tuple of the
    golden orbits (611 tuples, m up to 17)."""
    tuples = _golden_rank_tuples()
    assert len(tuples) > 600 and {len(t) for t in tuples} == {2, 3, 4, 5, 17}
    for ranks in tuples:
        got = localization._point_product(ranks)
        assert got == norm_point_product(ranks) == localization._prefactor(ranks), ranks


POINT_CONDUCTORS = [2, 3, 4, 5, 8, 9, 12, 15, 21, 25, 27, 29, 30, 35, 49]


@pytest.mark.parametrize("m", POINT_CONDUCTORS)
def test_point_product_matches_both_routes_on_random_ranks(m):
    """Seeded tuples with ranks of both signs; in half of them every
    exponent of one order d carries one rank, so that the Phi_d(1)
    extraction takes the whole group, with a positive or a negative power
    of Phi_d(1).  Each group is taken whole at least once."""
    rng = random.Random(f"point-{m}")
    orbits = localization._galois_orbits(m)
    assert sorted(j for _, orbit in orbits for j in orbit) == list(range(1, m))
    for norm, orbit in orbits:
        # the exponents of order d, and Phi_d(1): p for d a power of p, else 1
        d = m // gcd(orbit[0], m)
        assert [j for j in range(1, m) if m // gcd(j, m) == d] == list(orbit)
        primes = [p for p in range(2, d + 1) if d % p == 0 and all(p % q for q in range(2, p))]
        assert norm == (primes[0] if len(primes) == 1 else 1)
    # few scattered ranks where the Galois-norm route is slow
    nonzero = min(m - 1, 4 if m > 20 else 6)
    wholes = list(orbits) + [rng.choice(orbits) for _ in range(4)]
    for norm, orbit in wholes:
        for whole in (False, True):
            ranks = [0] * m
            for j in rng.sample(range(1, m), rng.randint(1, nonzero)):
                ranks[j] = rng.choice([-3, -2, -1, 1, 2, 3])
            if whole:
                rank = rng.choice([-2, -1, 1, 2])
                for j in orbit:
                    ranks[j] = rank
            ranks = tuple(ranks)
            got = localization._point_product(ranks)
            assert got == norm_point_product(ranks) == localization._prefactor(ranks), ranks


def test_point_route_builds_one_element_per_rank_tuple(monkeypatch):
    """point_contribution on the golden point strata builds one Cyclotomic
    per distinct rank tuple, by one reduction, and multiplies and inverts
    nothing."""
    counts = {"construct": 0, "mul": 0, "inverse": 0}

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(Cyclotomic, "__init__", counted("construct", Cyclotomic.__init__))
    monkeypatch.setattr(Cyclotomic, "__mul__", counted("mul", Cyclotomic.__mul__))
    monkeypatch.setattr(Cyclotomic, "inverse", counted("inverse", Cyclotomic.inverse))
    points = []
    for name, groups in GOLDEN_RANKED:
        data = OrbitData.from_json(json.loads((GOLDEN_INPUTS / f"{name}.json").read_text()))
        strata = [s for N in groups for s in enumerate_strata(data, GroupData(N))]
        points += [s for s in strata if s.d_c == 0]
    for s in points:
        point_contribution(s.ranks, s.z_delta_order)
    distinct = len({s.ranks for s in points})
    assert len(points) > distinct > 100
    assert counts == {"construct": distinct, "mul": 0, "inverse": 0}


def test_rank_certificate_runs_with_a_warm_memo():
    s = _z3_stratum()
    smooth_contribution(Z3, s, SU2, _toy_oracle(), PhaseQ(0))
    assert localization._prefactor.cache_info().currsize
    bad = _toy_oracle({"E[0][1]": {"rank": 5, "classes": []}})
    with pytest.raises(InvariantViolation):
        smooth_contribution(Z3, s, SU2, bad, PhaseQ(0))


def test_rank_certificate_runs_with_filled_tables():
    """The canonical ranks and their weighted sums are cached per (n,
    class); a stratum with a wrong rank entry, after one with the same
    c_delta classes has filled them, still fails the 2m r_j certificate."""
    eigen_ranks = localization._eigen_ranks
    cases = [(M5, next(s for s in enumerate_strata(M5, SU2) if s.d_c == 0),
              CohomologyOracle.trivial()),
             (Z3, _z3_stratum(), _toy_oracle())]
    for data, good, oracle in cases:
        smooth_contribution(data, good, SU2, oracle, PhaseQ(0))
        filled = eigen_ranks.cache_info()
        for (_, n), c in zip(data.branches, good.c_delta):
            eigen_ranks(data.m, n, SU2.rank, c.residues, c.denominator)
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


def test_mu2_tables_have_distinct_entries():
    """a -> mu2_table(m, n)[a] is injective for every unit n, so each
    weight row of E^nu is 0 at j = 0 only: no weight that
    lambda_inverse_expansion and _exponent_scalar sum is 0."""
    rng = random.Random(33)
    for _ in range(300):
        m = rng.randint(2, 500)
        n = rng.choice([n for n in range(1, m) if gcd(n, m) == 1])
        mu2 = mu2_table(m, n)
        assert len(set(mu2)) == m, (m, n)
        nu = rng.randrange(m)
        weights = localization._eigen_weights(mu2, nu)
        assert [j for j, w in enumerate(weights) if not w] == [0], (m, n, nu)


def test_eigen_rank_sums_match_the_literal_double_sum():
    """The sums of _eigen_ranks, one rotated row per nonzero rank, equal
    sum_nu rank(E^nu) 2 (mu(-nu) - mu(j - nu)) over every nu and j, mu the
    brute-force root-of-unity sum, on the classes of asymmetric fixed-point
    orbits in SU(2) and SU(3)."""
    orbits = random_asymmetric_orbits(3301, 12, range(2, 10), fixed_points_only=True)
    assert any(map(is_asymmetric, orbits))
    seen = set()
    for data in orbits:
        m = data.m
        for group in (SU2, GroupData(3)):
            for s in enumerate_strata(data, group):
                for (_, n), c in zip(data.branches, s.c_delta):
                    key = (m, n, group.rank, c.residues, c.denominator)
                    if key in seen:
                        continue
                    seen.add(key)
                    ranks, sums = localization._eigen_ranks(*key)
                    mu2 = [2 * rational_value(mu_bruteforce(m, n, a)) for a in range(m)]
                    assert list(sums) == [
                        sum(r * (mu2[-nu] - mu2[(j - nu) % m]) for nu, r in enumerate(ranks))
                        for j in range(m)
                    ], key
    assert len(seen) > 50


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
    values = [
        smooth_contribution(M5, s, SU2, CohomologyOracle.trivial(), PhaseQ(0)).coefficients
        for s in points
    ]

    def refuse(*args):
        raise AssertionError("oracle route read")

    # the point route, on the caches the oracle route filled, reads neither
    # inverse_one_minus_zeta nor the oracle caches, and inverts nothing
    for name in ("inverse_one_minus_zeta", "_oracle_inverses", "_oracle_factor", "_prefactor"):
        monkeypatch.setattr(localization, name, refuse)
    monkeypatch.setattr("torusfibre.exact.inverse_one_minus_zeta", refuse)
    monkeypatch.setattr(Cyclotomic, "inverse", refuse)
    for s, value in zip(points, values):
        assert [point_contribution(s.ranks, s.z_delta_order)] == value
    monkeypatch.undo()

    clear_caches()
    for s in points:
        point_contribution(s.ranks, s.z_delta_order)

    def refuse_closed_form(m, e):
        raise AssertionError("inverse_one_minus_zeta called")

    monkeypatch.setattr("torusfibre.localization.inverse_one_minus_zeta", refuse_closed_form)
    with pytest.raises(AssertionError, match="inverse_one_minus_zeta"):
        smooth_contribution(M5, points[0], SU2, CohomologyOracle.trivial(), PhaseQ(0))
