"""The integer localization route against two references on seeded random
oracles: the literal route for any Chern classes, and the root reference
for split bundles.

The literal route (RefRing) keeps every ring coefficient a Cyclotomic,
gives every eigenbundle (s, nu) a full Chern character, takes the power
sums sum_i (e^{y_i} - 1)^t from Adams operations, and reads the oracle
JSON itself (`ref_oracle`).  `smooth_contribution` and its lambda-inverse
(the dict of `oracles.lambda_inverse_dict`) must agree with it coefficient
by coefficient, conductor included, on fixture strata and on random
asymmetric fixed-point data in SU(2..4) with d_c up to 4, including
non-homogeneous classes, pairings that meet no integrand monomial,
all-zero pairings and omega = 0.

The root reference takes split oracles, whose Chern roots are rational
linear forms in degree-2 generators and whose classes are e_k of them.  Per
root it integrates f'/f for log(y/(1 - e^{-y})) and sum_j w_j log(1 -
zeta^j e^{-+y}) as one-variable series, then takes one exponential in the
truncated ring and pairs with omega^t.  It uses no Newton recursion, no
Stirling numbers, no Bernoulli recurrence and no helper of `localization`:
(1 - zeta^j)^{-1} comes from `oracles.euclid_inverse` and w_j from
`oracles.mu_bruteforce`, and a test reads its imports to keep it so.
"""

import ast
import copy
import itertools
import random
from fractions import Fraction as F
from functools import lru_cache
from math import comb, factorial
from pathlib import Path
from types import SimpleNamespace

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
from oracles import euclid_inverse, lambda_inverse_dict, mu_bruteforce, rational_value, todd_log_series
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
# the truncated ring and the oracle reader of both references
# ---------------------------------------------------------------------------


class RefRing:
    """Q(zeta)[generators] truncated above the top degree; coefficients are
    Cyclotomic throughout."""

    def __init__(self, degrees, top):
        self.degrees = degrees
        self.top = top
        self.unit = (0,) * len(degrees)

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


def ref_oracle(obj):
    """The oracle JSON read as {exponent tuple: Fraction} polynomials without
    zero terms (the pairing keeps its zero values), and the bundles as
    (rank or None, classes); obj must be valid, with each monomial written
    once, as the random oracles below write them."""
    gens = obj.get("generators", [])
    names = [g["name"] for g in gens]

    def exponents(mono):
        expo = [0] * len(names)
        for part in mono.split("*") if mono.strip() not in ("1", "") else ():
            name, hat, e = part.partition("^")
            expo[names.index(name.strip())] += int(e) if hat else 1
        return tuple(expo)

    def poly(value):
        return {exponents(mono): F(coeff) for mono, coeff in (value or {}).items() if F(coeff)}

    def bundle(entry):
        return entry.get("rank"), [poly(c) for c in entry.get("classes", [])]

    chern = obj.get("chern", {})
    rank, tangent = bundle(chern.get("T_c", {}))
    return SimpleNamespace(
        d_c=obj["d_c"],
        degrees=[g["degree"] for g in gens],
        pairing={exponents(mono): F(val) for mono, val in obj.get("pairing", {}).items()},
        tangent_rank=obj["d_c"] if rank is None else rank,
        tangent_chern=tangent,
        eigen_chern={
            tuple(int(i) for i in key[2:-1].split("][")): bundle(val)
            for key, val in chern.items() if key.startswith("E[")
        },
        omega=poly(chern.get("omega")),
    )


def ref_coefficients(ring, oracle, integrand, m, z_delta_order):
    """The coefficients (m^t / (t! |Z_delta|)) <omega^t integrand> of P_c(k):
    a coefficient that no pairing monomial of omega^t integrand meets is the
    conductor-1 zero; trailing zeros are dropped."""
    omega = ring.lift(oracle.omega)
    coeffs, form = [], ring.scalar(1)
    for t in range(oracle.d_c + 1):
        if t:
            form = ring.mul(form, omega)
        paired = Cyclotomic.from_rational(0)
        for expo, coeff in ring.mul(form, integrand).items():
            if expo in oracle.pairing:
                paired = paired + coeff * oracle.pairing[expo]
        coeffs.append(paired * F(m**t, factorial(t) * z_delta_order))
    while len(coeffs) > 1 and coeffs[-1].is_zero():
        coeffs.pop()
    return coeffs


# ---------------------------------------------------------------------------
# literal route: Cyclotomic coefficients, Adams operations, every eigenbundle
# ---------------------------------------------------------------------------


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


@lru_cache(maxsize=None)
def ref_inverses(m):
    """(None, (1 - zeta^i)^{-1} for i = 1..m-1) by euclid_inverse."""
    return (None,) + tuple(euclid_inverse(1 - Cyclotomic.zeta(m, i)) for i in range(1, m))


def ref_prefactor(ranks):
    """ref_inverses(m), and prod_{i>=1} (1 - zeta^i)^{-r_i}, m = len(ranks)."""
    m = len(ranks)
    inverses = ref_inverses(m)
    pref = Cyclotomic.from_rational(1, m)
    for i in range(1, m):
        r = ranks[i]
        pref = pref * (inverses[i] ** r if r > 0 else (1 - Cyclotomic.zeta(m, i)) ** -r)
    return inverses, pref


def ref_lambda(data, stratum, group, oracle):
    m, d_c = data.m, oracle.d_c
    ring = RefRing(oracle.degrees, 2 * d_c)
    inverses, pref = ref_prefactor(stratum.ranks)
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
        rank = rational_value(ch[0].get(ring.unit, Cyclotomic.from_rational(0)))
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
    ch = ref_chern_character(ring, rank, classes, top_n)
    f = todd_log_series(top_n)
    acc = {}
    for n in range(1, top_n + 1):
        acc = ring.add(acc, ring.scale(ch[n], factorial(n) * f[n - 1]))
    return ring.exp(acc)


def ref_contribution(data, stratum, group, oracle, lam=None):
    """The coefficients of P_c(k), on lam, what ref_lambda returns for these
    arguments, when given."""
    ring = RefRing(oracle.degrees, 2 * oracle.d_c)
    lam = ref_lambda(data, stratum, group, oracle) if lam is None else lam
    base = ring.mul(lam, ref_todd(ring, oracle.tangent_rank, oracle.tangent_chern, oracle.d_c))
    return ref_coefficients(ring, oracle, base, data.m, stratum.z_delta_order)


# ---------------------------------------------------------------------------
# root reference: split bundles, one-variable series per Chern root
# ---------------------------------------------------------------------------


def series_log(a, inverse0):
    """log(a / a[0]) to the order of the series a, the integral of a'/a,
    with inverse0 = 1/a[0]."""
    n = len(a) - 1
    inverse = [inverse0]
    for k in range(1, n):
        inverse.append(-inverse0 * sum(a[i] * inverse[k - i] for i in range(1, k + 1)))
    quotient = [sum((i + 1) * a[i + 1] * inverse[k - i] for i in range(k + 1)) for k in range(n)]
    return [0] + [c * F(1, k) for k, c in enumerate(quotient, 1)]


def linear_form(root):
    """The root sum_i root[i] g_i as a polynomial in the generators g_i."""
    return {tuple(int(i == k) for i in range(len(root))): c for k, c in enumerate(root) if c}


def substitute(ring, series, root):
    """series(y) in the ring, for a series without constant term and the
    root y."""
    y, power, out = ring.lift(linear_form(root)), ring.scalar(1), {}
    for c in series[1:]:
        power = ring.mul(power, y)
        out = ring.add(out, ring.scale(power, c))
    return out


def root_contribution(data, stratum, group, obj, roots):
    """The coefficients of P_c(k) for the split oracle obj whose bundles have
    the Chern roots ``roots`` ({"T_c": [...], (s, nu): [...]}, each root the
    coefficients of a linear form in the generators).

    E^nu at branch s enters N_j with weight w_j = (mu(j - nu) - mu(-nu)) / m
    and T_c^dual with weight 1; the ranks r_j of the N_j are summed from
    them, over the canonical ranks of every E^nu, and must be the stratum's.
    The integrand is prod_j (1 - zeta^j)^{-r_j} exp(L), where L sums over the
    roots y of T_c log(y/(1 - e^{-y})) - sum_j log((1 - zeta^j e^{-y}) /
    (1 - zeta^j)), and over the roots y of each E[s][nu] the same j-sum
    with e^{y} and weights w_j."""
    m, d_c = data.m, stratum.d_c
    oracle = ref_oracle(obj)
    ring = RefRing(oracle.degrees, 2 * d_c)
    mu = {n: [rational_value(mu_bruteforce(m, n, a)) for a in range(m)] for _, n in data.branches}
    weights, ranks = {}, [d_c] * m
    for s, ((_, n), c) in enumerate(zip(data.branches, stratum.c_delta)):
        for nu, r in enumerate(root_eigendata(c, m)):
            weights[s, nu] = [(mu[n][(j - nu) % m] - mu[n][-nu % m]) / m for j in range(m)]
            ranks = [a + w * (r + (group.rank if nu == 0 else 0)) for a, w in zip(ranks, weights[s, nu])]
    assert ranks[1:] == list(stratum.ranks[1:]), "normal ranks"
    inverse, pref = ref_prefactor(stratum.ranks)

    def normal(sign, w):
        """-sum_j w_j log((1 - zeta^j e^{sign x}) / (1 - zeta^j))."""
        total = [0] * (d_c + 1)
        for j in range(1, m):
            if w[j]:
                z = Cyclotomic.zeta(m, j)
                h = [1 - z] + [-z * F(sign**k, factorial(k)) for k in range(1, d_c + 1)]
                total = [a - b * w[j] for a, b in zip(total, series_log(h, inverse[j]))]
        return total

    # (1 - e^{-x}) / x, whose log is minus that of the Todd series
    todd = [F((-1) ** k, factorial(k + 1)) for k in range(d_c + 1)]
    series = {"T_c": [a - b for a, b in zip(normal(-1, [1] * m), series_log(todd, 1))]}
    series.update((key, normal(1, weights[key])) for key in roots if key != "T_c")
    log = {}
    for key, ys in roots.items():
        for y in ys:
            log = ring.add(log, substitute(ring, series[key], y))
    integrand = ring.scale(ring.exp(log), pref)
    return ref_coefficients(ring, oracle, integrand, m, stratum.z_delta_order)


# ---------------------------------------------------------------------------
# random oracles
# ---------------------------------------------------------------------------


def _monomial(names, expo):
    parts = [n if e == 1 else f"{n}^{e}" for n, e in zip(names, expo) if e]
    return "*".join(parts) or "1"


def _rat(rng):
    return f"{rng.randint(-6, 6)}/{rng.randint(1, 4)}"


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

    def poly(pool, terms):
        if not pool:
            return {}
        return {_monomial(names, e): _rat(rng) for e in rng.sample(pool, min(terms, len(pool)))}

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
        "pairing": {_monomial(names, e): _rat(rng) for e in top},
        "chern": chern,
    }


def oracle_variants(rng, data, stratum, group):
    """Oracle JSON for the stratum: random_oracle's, and for d_c > 0 the
    same with its pairing on a generator w that nothing else names (so no
    monomial of the integrand meets it), with every pairing value 0, and
    with omega = 0; for d_c = 0 the same with an empty pairing, and the
    trivial oracle."""
    obj = random_oracle(rng, data, stratum, group)
    variants = [obj, copy.deepcopy(obj)]
    if stratum.d_c == 0:
        variants[1]["pairing"] = {}
        return variants + [{"d_c": 0, "pairing": {"1": 1}}]  # CohomologyOracle.trivial()
    variants[1]["generators"].append({"name": "w", "degree": 2})
    variants[1]["pairing"] = {"w" if stratum.d_c == 1 else f"w^{stratum.d_c}": "3/2"}
    variants += [copy.deepcopy(obj), copy.deepcopy(obj)]
    variants[2]["pairing"] = dict.fromkeys(obj["pairing"], "0")
    variants[3]["chern"]["omega"] = {}
    return variants


def random_split_oracle(rng, data, stratum, group):
    """(oracle JSON, Chern roots) for the stratum with every bundle split:
    generators u and, half the time, v, of degree 2; d_c roots for T_c and
    the canonical rank many for each of 0-4 random E[s][nu], each a random
    rational linear form (0 at times), with classes c_k = e_k of the roots;
    a random omega over all positive degrees and pairing on the top ones."""
    d_c, m = stratum.d_c, data.m
    names = ["u", "v"][: rng.randint(1, 2)]
    ring = RefRing([2] * len(names), 2 * d_c)
    monos = [e for e in itertools.product(range(d_c + 1), repeat=len(names)) if sum(e) <= d_c]

    def bundle(rank):
        ys = [tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in names) for _ in range(rank)]
        total = ring.scalar(1)
        for y in ys:
            total = ring.mul(total, ring.add(ring.scalar(1), ring.lift(linear_form(y))))
        classes = [
            {_monomial(names, e): str(rational_value(c)) for e, c in total.items() if sum(e) == k}
            for k in range(1, min(rank, d_c) + 1)
        ]
        return ys, {"rank": rank, "classes": classes}

    ys, tangent = bundle(d_c)
    roots, omega = {"T_c": ys}, rng.sample(monos[1:], min(len(monos) - 1, 3))
    chern = {"T_c": tangent, "omega": {_monomial(names, e): _rat(rng) for e in omega}}
    eigen = [root_eigendata(c, m) for c in stratum.c_delta]
    keys = [(s, nu) for s in range(len(data.branches)) for nu in range(m)]
    for s, nu in rng.sample(keys, min(len(keys), rng.randint(0, 4))):
        roots[s, nu], entry = bundle(eigen[s][nu] + (group.rank if nu == 0 else 0))
        if rng.random() < 0.5:
            del entry["rank"]
        chern[f"E[{s}][{nu}]"] = entry
    pairing = {_monomial(names, e): _rat(rng) for e in monos if sum(e) == d_c}
    generators = [{"name": n, "degree": 2} for n in names]
    return {"d_c": d_c, "generators": generators, "pairing": pairing, "chern": chern}, roots


# ---------------------------------------------------------------------------
# cases
# ---------------------------------------------------------------------------


def eligible_strata(data, N, top):
    return [s for s in enumerate_strata(data, GroupData(N)) if s.d_c is not None and 0 <= s.d_c <= top]


def oracle_cases():
    """(data, N, seed, top d_c) cases: fixtures in SU(2) and SU(3), and
    random asymmetric fixed-point data in SU(2) and SU(3) with a stratum of
    dimension at most 3."""
    cases = [(d, N, 0, 3) for d, N in [(HYPER, 2), (Z3, 2), (Z4, 2), (M5, 2), (Z3, 3), (Z4, 3)]]
    for N, seed, count, m_max in [(2, 31, 6, 8), (3, 32, 3, 6)]:
        suite = random_asymmetric_orbits(
            seed, 8 * count, range(2, m_max), max_branches=4 if N == 2 else 3,
            fixed_points_only=True,
        )
        suite = [d for d in suite if is_asymmetric(d) and eligible_strata(d, N, 3)]
        cases += [(d, N, seed, 3) for d in suite[:count]]
    return cases


def equivalence_cases():
    """Asymmetric fixed-point data, m <= 12 and 2 to 5 branches, in SU(2),
    SU(3) and SU(4), with a stratum of dimension 1 to 4."""
    cases = []
    for N, count in [(2, 6), (3, 3), (4, 3)]:
        suite = enumerable_asymmetric_orbits(70 + N, 4 * count, N)
        suite = [d for d in suite if any(s.d_c > 0 for s in eligible_strata(d, N, 4))]
        cases += [(d, N, 70 + N, 4) for d in suite[:count]]
    return cases


CASES = oracle_cases() + equivalence_cases()


def _case_id(case):
    data, N, seed, _ = case
    return f"m{data.m}-g{data.quotient_genus}-{'-'.join(f'{l}.{n}' for l, n in data.branches)}-SU{N}-s{seed}"


def pick_strata(rng, strata):
    """Up to 4 positive-dimensional strata and 2 points."""
    smooth = [s for s in strata if s.d_c > 0]
    points = [s for s in strata if s.d_c == 0]
    return rng.sample(smooth, min(len(smooth), 4)) + rng.sample(points, min(len(points), 2))


def assert_matches_literal_route(data, stratum, group, objs, with_lambda=True):
    """smooth_contribution on each oracle JSON of objs against the literal
    route, by to_json, and with_lambda its lambda-inverse (the dict of
    oracles.lambda_inverse_dict) too.  Oracles that differ only in omega and
    the pairing share one literal lambda-inverse."""
    lams = {}
    for obj in objs:
        oracle, ref = CohomologyOracle.from_json(obj), ref_oracle(obj)
        got = smooth_contribution(data, stratum, group, oracle, PhaseQ(0))
        key = repr((obj.get("generators"), {k: v for k, v in obj.get("chern", {}).items() if k != "omega"}))
        if key not in lams:
            lams[key] = ref_lambda(data, stratum, group, ref)
        want = ref_contribution(data, stratum, group, ref, lams[key])
        assert [c.to_json() for c in got.coefficients] == [c.to_json() for c in want]
        if with_lambda:
            lam = lambda_inverse_dict(data, stratum, group, oracle)
            assert {k: v.to_json() for k, v in lam.items()} == {k: v.to_json() for k, v in lams[key].items()}


# ---------------------------------------------------------------------------
# comparisons
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("case", oracle_cases(), ids=_case_id)
def test_smooth_contribution_matches_cyclotomic_reference(case):
    """smooth_contribution and its lambda-inverse against the literal route,
    by to_json, on two random oracles per picked stratum, d_c up to 3."""
    data, N, seed, top = case
    group = GroupData(N)
    rng = random.Random(_case_id(case))
    for stratum in pick_strata(rng, eligible_strata(data, N, top)):
        objs = [random_oracle(rng, data, stratum, group) for _ in range(2)]
        assert_matches_literal_route(data, stratum, group, objs)


@pytest.mark.parametrize("case", equivalence_cases(), ids=_case_id)
def test_one_exponential_matches_the_ring_route(case):
    """smooth_contribution (one exponential, rational pairing, prefactor
    last) against the literal route, which multiplies its lambda-inverse by
    a Td(T_c) from a second exponential and by omega^t as ring products
    before it pairs, by to_json: the conductor of every zero coefficient is
    compared too.  SU(2..4), d_c up to 4, on the oracle_variants."""
    data, N, seed, top = case
    group = GroupData(N)
    rng = random.Random("one-exp-" + _case_id(case))
    for stratum in pick_strata(rng, eligible_strata(data, N, top)):
        objs = oracle_variants(rng, data, stratum, group)
        assert_matches_literal_route(data, stratum, group, objs, with_lambda=False)


@pytest.mark.parametrize("case", equivalence_cases(), ids=_case_id)
def test_integer_route_matches_the_dict_route(case):
    """smooth_contribution and its lambda-inverse on the integer basis
    against the literal route on dicts of Cyclotomic coefficients, by
    to_json: conductors included, so a pairing that meets no integrand
    monomial must give the conductor-1 zero there too.  SU(2..4), d_c up to
    4, on the oracle_variants."""
    data, N, seed, top = case
    group = GroupData(N)
    rng = random.Random("integer-" + _case_id(case))
    for stratum in pick_strata(rng, eligible_strata(data, N, top)):
        objs = oracle_variants(rng, data, stratum, group)
        assert_matches_literal_route(data, stratum, group, objs)


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_smooth_contribution_matches_root_reference(case):
    """smooth_contribution against the root reference, by to_json, on two
    split oracles per picked stratum, d_c up to 4."""
    data, N, seed, _ = case
    group = GroupData(N)
    rng = random.Random("roots-" + _case_id(case))
    for stratum in pick_strata(rng, eligible_strata(data, N, 4)):
        for _ in range(2):
            obj, roots = random_split_oracle(rng, data, stratum, group)
            got = smooth_contribution(data, stratum, group, CohomologyOracle.from_json(obj), PhaseQ(0))
            want = root_contribution(data, stratum, group, obj, roots)
            assert [c.to_json() for c in got.coefficients] == [c.to_json() for c in want]


@pytest.mark.parametrize("case", oracle_cases(), ids=_case_id)
def test_shared_memo_matches_cyclotomic_reference(case):
    """The strata of a case on caches that the strata before them warmed,
    as the CLI runs them."""
    data, N, seed, top = case
    group = GroupData(N)
    strata = eligible_strata(data, N, top)
    rng = random.Random("memo-" + _case_id(case))
    for stratum in rng.sample(strata, min(len(strata), 6)):
        obj = random_oracle(rng, data, stratum, group)
        oracle = CohomologyOracle.from_json(obj)
        got = smooth_contribution(data, stratum, group, oracle, PhaseQ(0))
        ref = ref_contribution(data, stratum, group, ref_oracle(obj))
        assert [c.to_json() for c in got.coefficients] == [c.to_json() for c in ref]
    assert _prefactor.cache_info().currsize


def test_wrong_override_rank_refused_by_both_routes():
    group = GroupData(2)
    stratum = next(s for s in enumerate_strata(Z4, group) if s.d_c == 1)
    obj = random_oracle(random.Random(3), Z4, stratum, group)
    obj["chern"]["E[1][2]"] = {"rank": 7, "classes": [{"u": "1"}]}
    oracle = CohomologyOracle.from_json(obj)
    with pytest.raises(InvariantViolation):
        smooth_contribution(Z4, stratum, group, oracle, PhaseQ(0))
    with pytest.raises(InvariantViolation):
        ref_contribution(Z4, stratum, group, ref_oracle(obj))


# ---------------------------------------------------------------------------
# what the draws reach, and what the root reference reads
# ---------------------------------------------------------------------------


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


def test_split_oracles_reach_every_feature():
    """The root reference's cases reach SU(4) with d_c = 4; its oracles two
    generators, a nonzero c_3 of T_c, eigenbundle roots and a zero root."""
    assert any(N == 4 and any(s.d_c == 4 for s in eligible_strata(d, N, 4)) for d, N, _, _ in CASES)
    group = GroupData(2)
    stratum = next(s for s in enumerate_strata(HYPER, group) if s.d_c == 3)
    rng, seen = random.Random(6), set()
    for _ in range(20):
        obj, roots = random_split_oracle(rng, HYPER, stratum, group)
        hits = {"c3": obj["chern"]["T_c"]["classes"][2], "E[": len(roots) > 1,
                "zero root": any(not any(y) for ys in roots.values() for y in ys)}
        seen |= {f"{len(obj['generators'])} generators"} | {k for k, hit in hits.items() if hit}
    assert seen == {"1 generators", "2 generators", "c3", "E[", "zero root"}


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


# The closed forms and tables of the integer route; the root reference must
# compute what they compute without them.
PRODUCTION_HELPERS = {
    "_power_sums", "_todd_log_coefficients", "_exponent_scalar", "_weight", "_eigen_weights",
    "_prefactor", "_eigen_ranks", "lambda_inverse_expansion", "inverse_one_minus_zeta",
    "mu2_table", "_surjections", "factor_pairs", "pairing_factors", "forms", "_galois_orbits",
    "_parse_monomial",
}


def test_root_reference_imports_no_production_helper():
    """Every name that the root reference reads, in its own functions and in
    the functions and classes of tests/ that they reach (RefRing,
    oracles.euclid_inverse, ...), under any name it is imported as, is
    parsed with ast; none is a helper of the route it checks."""
    here, parsed = Path(__file__).parent, {}
    for name in ("test_localization_oracle", "oracles"):
        tree = ast.parse((here / f"{name}.py").read_text())
        defs = {n.name: n for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
        imports = {a.asname or a.name: (node.module, a.name) for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) for a in node.names}
        parsed[name] = defs, imports
    todo = [("test_localization_oracle", "root_contribution"), ("test_localization_oracle", "random_split_oracle")]
    reached, names = set(), set()
    while todo:
        where, name = todo.pop()
        reached.add((where, name))
        defs, imports = parsed[where]
        for node in ast.walk(defs[name]):
            read = node.name if isinstance(node, ast.alias) else getattr(node, "id", getattr(node, "attr", None))
            source, original = imports.get(read, (where, read))
            names |= {read, original}
            if source in parsed and original in parsed[source][0] and (source, original) not in reached:
                todo.append((source, original))
    assert {("oracles", "euclid_inverse"), ("oracles", "mu_bruteforce"), ("test_localization_oracle", "RefRing")} <= reached
    assert not names & PRODUCTION_HELPERS
