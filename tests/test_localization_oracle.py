"""The integer localization route against the literal cyclotomic one and
the ring routes of `oracles.py`, on seeded random oracles.

The reference below is the route `localization` took before its ring
algebra moved to rational coefficients: every ring coefficient is a
Cyclotomic, every eigenbundle (s, nu) gets a full Chern character, and the
power sums sum_i (e^{y_i} - 1)^t come from the binomial expansion in Adams
operations.  It reads the oracle as `oracles.ring_oracle` does, one dict
per polynomial.  `smooth_contribution` and `lambda_inverse_expansion` (as
the dict `oracles.lambda_inverse_dict` builds from it) must agree with it
coefficient by coefficient, conductor included, on fixture strata and on
random asymmetric fixed-point data, with random T_c, E[s][nu] and omega
classes over one or two generators and d_c <= 3.  At
the end, `smooth_contribution` (integer basis, one exponential, pairing
vector, prefactor last) is compared with the dict route it replaced and
with the ring-product route of `oracles.py` on asymmetric orbits in
SU(2..4) with d_c up to 4, pairings that read no integrand monomial and
generators that only the pairing names included.
"""

import copy
import itertools
import random
from fractions import Fraction as F
from math import comb, factorial

import pytest

from conftest import (
    HYPER,
    M5,
    Z3,
    Z4,
    enumerable_asymmetric_orbits,
    is_asymmetric,
    random_asymmetric_orbits,
)
from oracles import (
    euclid_inverse,
    lambda_inverse_dict,
    ring_lambda_inverse_expansion,
    ring_oracle,
    ring_smooth_contribution,
    smooth_contribution_two_exponentials,
    todd_log_series,
)
from torusfibre.errors import InvariantViolation
from torusfibre.exact import Cyclotomic, PhaseQ
from torusfibre.framing import GroupData
from torusfibre.localization import (
    CohomologyOracle,
    _prefactor,
    smooth_contribution,
)
from torusfibre.spectrum import mu2_table
from torusfibre.strata import enumerate_strata, root_eigendata

# ---------------------------------------------------------------------------
# reference: Cyclotomic coefficients, Adams operations, every eigenbundle
# ---------------------------------------------------------------------------


class RefRing:
    """Q(zeta)[generators] truncated above the top degree; coefficients are
    Cyclotomic throughout."""

    def __init__(self, ring):
        self.degrees = ring.degrees
        self.top = ring.top_degree
        self.unit = (0,) * len(ring.names)

    def deg(self, expo):
        return sum(e * d for e, d in zip(expo, self.degrees))

    def lift(self, elem):
        return {k: Cyclotomic.from_rational(v) for k, v in elem.items()}

    def scalar(self, r):
        return {self.unit: Cyclotomic.from_rational(r)} if r else {}

    def add(self, a, b):
        out = dict(a)
        for k, v in b.items():
            s = out[k] + v if k in out else v
            if s.is_zero():
                out.pop(k, None)
            else:
                out[k] = s
        return out

    def scale(self, a, c):
        c = c if isinstance(c, Cyclotomic) else Cyclotomic.from_rational(c)
        return {} if c.is_zero() else {k: v * c for k, v in a.items()}

    def mul(self, a, b):
        out = {}
        for ka, va in a.items():
            for kb, vb in b.items():
                k = tuple(x + y for x, y in zip(ka, kb))
                if self.deg(k) <= self.top:
                    out = self.add(out, {k: va * vb})
        return out

    def exp(self, a):
        out = term = self.scalar(1)
        n = 1
        while True:
            term = self.scale(self.mul(term, a), F(1, n))
            if not term:
                return out
            out = self.add(out, term)
            n += 1


def ref_chern_character(ring, rank, classes, top_n):
    """[ch_0, ..., ch_top_n] by Newton's identities."""
    e = [ring.scalar(1)] + [ring.lift(c) for c in classes]
    e += [{}] * (top_n + 1 - len(e))
    p = [ring.scalar(rank)]
    for n in range(1, top_n + 1):
        acc = ring.scale(e[n], (-1) ** (n - 1) * n)
        for i in range(1, n):
            acc = ring.add(acc, ring.scale(ring.mul(e[i], p[n - i]), (-1) ** (i - 1)))
        p.append(acc)
    return [p[0]] + [ring.scale(p[n], F(1, factorial(n))) for n in range(1, top_n + 1)]


def ref_adams_total(ring, ch, u):
    """The sum of all degrees of psi^u(ch)."""
    acc = {}
    for n, c in enumerate(ch):
        acc = ring.add(acc, ring.scale(c, F(u) ** n if n else 1))
    return acc


def ref_lambda(data, stratum, group, oracle):
    m, d_c = data.m, oracle.d_c
    ring = RefRing(oracle.ring)
    inverses = [None] + [euclid_inverse(1 - Cyclotomic.zeta(m, i)) for i in range(1, m)]
    pref = Cyclotomic.from_rational(1, m)
    for i in range(1, m):
        r = stratum.ranks[i]
        pref = pref * (inverses[i] ** r if r > 0 else (1 - Cyclotomic.zeta(m, i)) ** -r)
    tangent = ref_chern_character(ring, oracle.tangent_rank, oracle.tangent_chern, d_c)
    ch_t_dual = [ring.scale(c, (-1) ** n) for n, c in enumerate(tangent)]
    roots = [root_eigendata(c, m) for c in stratum.c_delta]
    eigen = {}
    for s, r_s in enumerate(roots):
        for nu in range(m):
            rank = r_s[nu] + (group.rank if nu == 0 else 0)
            override = oracle.eigen_chern.get((s, nu))
            if override is not None and override[0] not in (None, rank):
                raise InvariantViolation(f"E[{s}][{nu}] rank")
            classes = [] if override is None else override[1]
            eigen[s, nu] = ref_chern_character(ring, rank, classes, d_c)
    exponent = {}
    for j in range(1, m):
        ch = ch_t_dual
        for s, (_, n_s) in enumerate(data.branches):
            mu2 = mu2_table(m, n_s)
            for nu in range(m):
                w2 = mu2[-nu] - mu2[j - nu]
                if w2:
                    ch = [ring.add(a, ring.scale(b, F(-w2, 2 * m))) for a, b in zip(ch, eigen[s, nu])]
        rank = ch[0].get(ring.unit, Cyclotomic.from_rational(0)).rational_value()
        if rank != stratum.ranks[j]:
            raise InvariantViolation(f"rank of N_{j}")
        beta = inverses[j] - 1
        beta_pow = Cyclotomic.from_rational(1, m)
        for t in range(1, d_c + 1):
            beta_pow = beta_pow * beta
            p_jt = {}
            for u in range(t + 1):
                p_jt = ring.add(
                    p_jt, ring.scale(ref_adams_total(ring, ch, u), (-1) ** (t - u) * comb(t, u))
                )
            p_jt = {k: v for k, v in p_jt.items() if ring.deg(k) >= 2 * t}
            exponent = ring.add(exponent, ring.scale(p_jt, beta_pow * F(1, t)))
    return ring.scale(ring.exp(exponent), pref)


def ref_todd(ring, rank, classes, top_n):
    if top_n == 0:
        return ring.scalar(1)
    ch = ref_chern_character(ring, rank, classes, top_n)
    f = todd_log_series(top_n)
    acc = {}
    for n in range(1, top_n + 1):
        acc = ring.add(acc, ring.scale(ch[n], factorial(n) * f[n - 1]))
    return ring.exp(acc)


def ref_contribution(data, stratum, group, oracle):
    ring = RefRing(oracle.ring)
    base = ring.mul(
        ref_lambda(data, stratum, group, oracle),
        ref_todd(ring, oracle.tangent_rank, oracle.tangent_chern, oracle.d_c),
    )
    omega = ring.lift(oracle.omega)
    coeffs = []
    omega_pow = ring.scalar(1)
    for t in range(stratum.d_c + 1):
        if t:
            omega_pow = ring.mul(omega_pow, omega)
        paired = Cyclotomic.from_rational(0)
        for expo, coeff in ring.mul(omega_pow, base).items():
            if ring.deg(expo) == 2 * oracle.d_c and expo in oracle.pairing:
                paired = paired + coeff * oracle.pairing[expo]
        coeffs.append(paired * F(data.m**t, factorial(t) * stratum.z_delta_order))
    while len(coeffs) > 1 and coeffs[-1].is_zero():
        coeffs.pop()
    return coeffs


# ---------------------------------------------------------------------------
# random oracles
# ---------------------------------------------------------------------------


def _monomial(names, expo):
    parts = [n if e == 1 else f"{n}^{e}" for n, e in zip(names, expo) if e]
    return "*".join(parts) or "1"


def random_oracle(rng, data, stratum, group):
    """Oracle JSON for the stratum: 1-2 generators of degree 1, 2 or 4, a
    pairing on the top-degree monomials, T_c of rank d_c with classes c_1..,
    a random omega, and classes on a random set of eigenbundles, half of
    them with their (correct) rank spelled out."""
    d_c, m = stratum.d_c, data.m
    gens = [("u", 2)] + ([("v", rng.choice([1, 2, 4]))] if rng.random() < 0.6 else [])
    names, degrees = [g[0] for g in gens], [g[1] for g in gens]
    monos = [
        e for e in itertools.product(range(2 * d_c + 1), repeat=len(gens))
        if sum(a * b for a, b in zip(e, degrees)) <= 2 * d_c
    ]
    positive = [e for e in monos if any(e)]

    def rat():
        return f"{rng.randint(-6, 6)}/{rng.randint(1, 4)}"

    def poly(pool, terms):
        if not pool:
            return {}
        return {_monomial(names, e): rat() for e in rng.sample(pool, min(terms, len(pool)))}

    def chern_classes(count):
        # c_i mostly in degree 2i, sometimes spread over all positive degrees
        out = []
        for i in range(1, count + 1):
            homog = [e for e in positive if sum(a * b for a, b in zip(e, degrees)) == 2 * i]
            out.append(poly(homog if homog and rng.random() < 0.7 else positive, 2))
        return out

    top = [e for e in monos if sum(a * b for a, b in zip(e, degrees)) == 2 * d_c]
    chern = {
        "omega": poly(positive, rng.randint(1, 3)),
        "T_c": {"rank": d_c, "classes": chern_classes(rng.randint(0, d_c))},
    }
    roots = [root_eigendata(c, m) for c in stratum.c_delta]
    keys = [(s, nu) for s in range(len(data.branches)) for nu in range(m)]
    for s, nu in rng.sample(keys, min(len(keys), rng.randint(0, 4))):
        entry = {"classes": chern_classes(rng.randint(1, max(1, d_c)))}
        if rng.random() < 0.5:
            entry["rank"] = roots[s][nu] + (group.rank if nu == 0 else 0)
        chern[f"E[{s}][{nu}]"] = entry
    return {
        "d_c": d_c,
        "generators": [{"name": n, "degree": d} for n, d in gens],
        "pairing": {_monomial(names, e): rat() for e in top},
        "chern": chern,
    }


def eligible_strata(data, N):
    return [s for s in enumerate_strata(data, GroupData(N)) if s.d_c is not None and 0 <= s.d_c <= 3]


def oracle_cases():
    """(data, N, seed) triples: fixtures in SU(2) and SU(3), and random
    asymmetric fixed-point data in SU(2) and SU(3) with a stratum of
    dimension at most 3."""
    cases = [(d, N, 0) for d, N in [(HYPER, 2), (Z3, 2), (Z4, 2), (M5, 2), (Z3, 3), (Z4, 3)]]
    for N, seed, count, m_max in [(2, 31, 6, 8), (3, 32, 3, 6)]:
        suite = random_asymmetric_orbits(
            seed, 8 * count, range(2, m_max), max_branches=4 if N == 2 else 3,
            fixed_points_only=True,
        )
        suite = [d for d in suite if is_asymmetric(d) and eligible_strata(d, N)]
        cases += [(d, N, seed) for d in suite[:count]]
    return cases


def _case_id(case):
    data, N, seed = case
    return f"m{data.m}-g{data.quotient_genus}-{'-'.join(f'{l}.{n}' for l, n in data.branches)}-SU{N}-s{seed}"


@pytest.mark.parametrize("case", oracle_cases(), ids=_case_id)
def test_smooth_contribution_matches_cyclotomic_reference(case):
    data, N, seed = case
    group = GroupData(N)
    strata = eligible_strata(data, N)
    rng = random.Random(_case_id(case))
    smooth = [s for s in strata if s.d_c > 0]
    points = [s for s in strata if s.d_c == 0]
    picked = rng.sample(smooth, min(len(smooth), 4)) + rng.sample(points, min(len(points), 2))
    for stratum in picked:
        for _ in range(2):
            obj = random_oracle(rng, data, stratum, group)
            oracle = CohomologyOracle.from_json(obj)
            got = smooth_contribution(data, stratum, group, oracle, PhaseQ(0))
            ref = ref_contribution(data, stratum, group, ring_oracle(obj))
            assert [c.to_json() for c in got.coefficients] == [c.to_json() for c in ref]
            lam = lambda_inverse_dict(data, stratum, group, oracle)
            ref_lam = ref_lambda(data, stratum, group, ring_oracle(obj))
            assert lam.keys() == ref_lam.keys()
            assert all(lam[k].to_json() == ref_lam[k].to_json() for k in lam)


@pytest.mark.parametrize("case", oracle_cases(), ids=_case_id)
def test_shared_memo_matches_cyclotomic_reference(case):
    """The strata of a case on caches that the strata before them warmed,
    as the CLI runs them."""
    data, N, seed = case
    group = GroupData(N)
    strata = eligible_strata(data, N)
    rng = random.Random("memo-" + _case_id(case))
    for stratum in rng.sample(strata, min(len(strata), 6)):
        obj = random_oracle(rng, data, stratum, group)
        oracle = CohomologyOracle.from_json(obj)
        got = smooth_contribution(data, stratum, group, oracle, PhaseQ(0))
        ref = ref_contribution(data, stratum, group, ring_oracle(obj))
        assert [c.to_json() for c in got.coefficients] == [c.to_json() for c in ref]
    assert _prefactor.cache_info().currsize


def test_random_oracles_reach_every_feature():
    """The generator above draws what the comparison is meant to cover."""
    rng = random.Random(5)
    group = GroupData(2)
    stratum = next(s for s in enumerate_strata(HYPER, group) if s.d_c == 3)
    seen = set()
    for _ in range(40):
        obj = random_oracle(rng, HYPER, stratum, group)
        degrees = {g["degree"] for g in obj["generators"]}
        seen.add(f"{len(degrees)} degrees")
        seen.update(k[:2] for k in obj["chern"] if k.startswith("E["))
        if any(len(c) for c in obj["chern"]["T_c"]["classes"][1:]):
            seen.add("c2+")
        if obj["chern"]["omega"]:
            seen.add("omega")
    assert {"1 degrees", "2 degrees", "E[", "c2+", "omega"} <= seen


def test_wrong_override_rank_refused_by_both_routes():
    group = GroupData(2)
    stratum = next(s for s in enumerate_strata(Z4, group) if s.d_c == 1)
    obj = random_oracle(random.Random(3), Z4, stratum, group)
    obj["chern"]["E[1][2]"] = {"rank": 7, "classes": [{"u": "1"}]}
    oracle = CohomologyOracle.from_json(obj)
    with pytest.raises(InvariantViolation):
        smooth_contribution(Z4, stratum, group, oracle, PhaseQ(0))
    with pytest.raises(InvariantViolation):
        ref_contribution(Z4, stratum, group, ring_oracle(obj))


# ---------------------------------------------------------------------------
# one exponential and a rational pairing against the ring route
# ---------------------------------------------------------------------------


def oracle_variants(rng, data, stratum, group):
    """Oracle JSON for the stratum: random_oracle's, and for d_c > 0 the
    same with its pairing on a generator w that nothing else names (so no
    monomial of the integrand meets it), with every pairing value 0, and
    with omega = 0; for d_c = 0 the same with an empty pairing."""
    obj = random_oracle(rng, data, stratum, group)
    variants = [obj, copy.deepcopy(obj)]
    if stratum.d_c == 0:
        variants[1]["pairing"] = {}
        return variants
    variants[1]["generators"].append({"name": "w", "degree": 2})
    variants[1]["pairing"] = {"w" if stratum.d_c == 1 else f"w^{stratum.d_c}": "3/2"}
    variants += [copy.deepcopy(obj), copy.deepcopy(obj)]
    variants[2]["pairing"] = dict.fromkeys(obj["pairing"], "0")
    variants[3]["chern"]["omega"] = {}
    return variants


def equivalence_strata(data, N):
    return [s for s in enumerate_strata(data, GroupData(N)) if s.d_c is not None and 0 <= s.d_c <= 4]


def equivalence_cases():
    """Asymmetric fixed-point data, m <= 12 and 2 to 5 branches, in SU(2),
    SU(3) and SU(4), with a stratum of dimension 1 to 4."""
    cases = []
    for N, count in [(2, 6), (3, 3), (4, 3)]:
        suite = enumerable_asymmetric_orbits(70 + N, 4 * count, N)
        suite = [d for d in suite if any(s.d_c > 0 for s in equivalence_strata(d, N))]
        cases += [(d, N, 70 + N) for d in suite[:count]]
    return cases


@pytest.mark.parametrize("case", equivalence_cases(), ids=_case_id)
def test_one_exponential_matches_the_ring_route(case):
    """smooth_contribution against lambda^{-1} times a separate Td(T_c)
    and omega^t as ring products, by to_json: the conductor of every zero
    coefficient is compared too."""
    data, N, seed = case
    group = GroupData(N)
    strata = equivalence_strata(data, N)
    rng = random.Random("one-exp-" + _case_id(case))
    smooth = [s for s in strata if s.d_c > 0]
    points = [s for s in strata if s.d_c == 0]
    picked = rng.sample(smooth, min(len(smooth), 4)) + rng.sample(points, min(len(points), 2))
    for stratum in picked:
        objs = oracle_variants(rng, data, stratum, group)
        if stratum.d_c == 0:
            objs.append({"d_c": 0, "pairing": {"1": 1}})  # CohomologyOracle.trivial()
        for obj in objs:
            oracle = CohomologyOracle.from_json(obj)
            got = smooth_contribution(data, stratum, group, oracle, PhaseQ(0))
            want = smooth_contribution_two_exponentials(data, stratum, group, ring_oracle(obj))
            assert [c.to_json() for c in got.coefficients] == [c.to_json() for c in want]


@pytest.mark.parametrize("case", equivalence_cases(), ids=_case_id)
def test_integer_route_matches_the_dict_route(case):
    """smooth_contribution and lambda_inverse_expansion (as the dict of
    oracles.lambda_inverse_dict) on the integer basis against the route on
    dicts of Fractions and Cyclotomics that they replaced
    (oracles.ring_smooth_contribution), by to_json: conductors
    included, so a pairing that meets no integrand monomial must give the
    conductor-1 zero there too."""
    data, N, seed = case
    group = GroupData(N)
    strata = equivalence_strata(data, N)
    rng = random.Random("integer-" + _case_id(case))
    smooth = [s for s in strata if s.d_c > 0]
    points = [s for s in strata if s.d_c == 0]
    picked = rng.sample(smooth, min(len(smooth), 4)) + rng.sample(points, min(len(points), 2))
    for stratum in picked:
        for obj in oracle_variants(rng, data, stratum, group):
            oracle = CohomologyOracle.from_json(obj)
            got = smooth_contribution(data, stratum, group, oracle, PhaseQ(0))
            want = ring_smooth_contribution(data, stratum, group, ring_oracle(obj))
            assert [c.to_json() for c in got.coefficients] == [c.to_json() for c in want]
            lam = lambda_inverse_dict(data, stratum, group, oracle)
            ref_lam = ring_lambda_inverse_expansion(data, stratum, group, ring_oracle(obj))
            assert {k: v.to_json() for k, v in lam.items()} == {k: v.to_json() for k, v in ref_lam.items()}


def test_oracle_variants_reach_non_homogeneous_classes():
    """The oracles of the equivalence test include Chern classes with terms
    of more than one degree."""
    group = GroupData(2)
    stratum = next(s for s in enumerate_strata(HYPER, group) if s.d_c == 3)
    rng = random.Random(9)
    degrees_seen = []
    for _ in range(10):
        obj = oracle_variants(rng, HYPER, stratum, group)[0]
        degree = {g["name"]: g["degree"] for g in obj["generators"]}
        bundles = [v for k, v in obj["chern"].items() if k != "omega"]
        for c in (c for b in bundles for c in b["classes"]):
            degrees_seen.append({
                sum(degree[n] * int(e or 1) for n, _, e in (p.partition("^") for p in mono.split("*")))
                for mono in c
            })
    assert any(len(d) > 1 for d in degrees_seen)


def test_oracle_variants_reach_both_zero_forms():
    """A pairing that meets no monomial of the integrand gives the
    conductor-1 zero; a pairing that meets them with value 0 gives the
    conductor-m zero."""
    group = GroupData(2)
    stratum = next(s for s in enumerate_strata(Z4, group) if s.d_c == 1)
    _, missing, zero, _ = oracle_variants(random.Random(8), Z4, stratum, group)
    for obj, conductor, coeffs in ((missing, 1, ["0"]), (zero, 4, ["0", "0"])):
        got = smooth_contribution(Z4, stratum, group, CohomologyOracle.from_json(obj), PhaseQ(0))
        assert [c.to_json() for c in got.coefficients] == [{"conductor": conductor, "coeffs": coeffs}]
