"""Exact stratum contributions to the invariant.

Zero-dimensional strata evaluate in closed form.  Positive-dimensional
strata are integrated against a user-supplied intersection oracle: a graded
ring presentation with a top-degree pairing table and Chern data for the
stratum tangent bundle, the fixed-point eigenbundles and the symplectic
class.  Nothing about the actual moduli cohomology is computed here; the
oracle is the single source of ring facts.

The equivariant lambda_{-1}-inverse of the normal bundle is evaluated per
eigenvalue: a rank r_j eigen-summand with eigenvalue zeta^j and Chern roots
y_i contributes

    prod_i (1 - zeta^j e^{y_i})^{-1}
      = (1 - zeta^j)^{-r_j} * exp( sum_t (beta_j^t / t) * sum_i (e^{y_i}-1)^t )

with beta_j = zeta^j/(1 - zeta^j).  Bundles are kept as power sums p_n of
their Chern roots.  The inner sums sum_i (e^{y_i}-1)^t are sum_{n>=t}
t! S(n, t) p_n(N_j)/n!; they start in cohomological degree 2t, so
truncation at the stratum dimension is exact.  Each N_j is T_c^dual plus
rational multiples of the eigenbundles the oracle overrides, so the
exponent E is summed per bundle, with the sum over j in its Q(zeta_m)
scalar.  The Chern data are rational, so the ring algebra runs over Q until
it meets beta_j and the prefactor.  The integrand is one exponential
X = exp(E + log Td(T_c)), paired rationally as sum_a X[a] sum_b
omega^t[b] pairing[a + b]; the prefactor and m^t/(t! |Z_delta|) multiply
the paired scalars last.  The prefactor is exactly the point-stratum
product, which makes the zero-dimensional collapse automatic: there the
value is the prefactor times the pairing of the point, with no ring algebra.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, factorial

from .errors import (
    InvariantViolation,
    MissingChernData,
    NotZeroDimensional,
    OracleDegreeOverflow,
    ValidationError,
)
from .exact import Cyclotomic, PhaseQ, inverse_one_minus_zeta, rational_from_json
from .spectrum import mu2_table
from .strata import root_eigendata

__all__ = [
    "CohomologyOracle",
    "ContributionPolynomial",
    "ScalarMemo",
    "point_contribution",
    "lambda_inverse_expansion",
    "smooth_contribution",
]


# ---------------------------------------------------------------------------
# graded ring elements over the oracle generators
# ---------------------------------------------------------------------------


class _Ring:
    """Commutative graded ring over the oracle generators, truncated above
    the oracle's top degree.  Elements are dicts exponent-tuple -> nonzero
    coefficient: a Fraction for Chern data, a Cyclotomic once a value meets
    beta_j or the prefactor."""

    def __init__(self, names, degrees, top_degree):
        self.names = list(names)
        self.degrees = list(degrees)
        self.top_degree = top_degree

    @staticmethod
    def is_zero(c):
        return c.is_zero() if isinstance(c, Cyclotomic) else not c

    def monomial_degree(self, expo):
        return sum(e * d for e, d in zip(expo, self.degrees))

    def one(self):
        return {(0,) * len(self.names): Fraction(1)}

    def add(self, a, b):
        out = dict(a)
        for k, v in b.items():
            cur = out.get(k)
            s = v if cur is None else cur + v
            if self.is_zero(s):
                out.pop(k, None)
            else:
                out[k] = s
        return out

    def scale(self, a, c):
        # a Cyclotomic factor goes on the left, so that a Fraction never
        # tries it first
        if self.is_zero(c):
            return {}
        if isinstance(c, Cyclotomic):
            return {k: c * v for k, v in a.items()}
        return {k: v * c for k, v in a.items()}

    def mul(self, a, b):
        out = {}
        for ka, va in a.items():
            for kb, vb in b.items():
                k = tuple(x + y for x, y in zip(ka, kb))
                if self.monomial_degree(k) > self.top_degree:
                    continue
                cur = out.get(k)
                v = vb * va if isinstance(vb, Cyclotomic) else va * vb
                s = v if cur is None else cur + v
                if self.is_zero(s):
                    out.pop(k, None)
                else:
                    out[k] = s
        return out

    def exp(self, a):
        """exp of an element with no degree-0 part (nilpotent after
        truncation)."""
        if any(self.monomial_degree(k) == 0 for k in a):
            raise ValueError("exp needs a positive-degree argument")
        out = self.one()
        term = self.one()
        n = 1
        while True:
            term = self.scale(self.mul(term, a), Fraction(1, n))
            if not term:
                break
            out = self.add(out, term)
            n += 1
        return out


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


_JSON_KINDS = {dict: "a JSON object", list: "a JSON list", int: "an integer"}


def _expect(value, kind, what):
    """value, if it is a JSON value of the given kind (dict, list or int);
    a ValidationError otherwise."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValidationError(f"oracle {what} must be {_JSON_KINDS[kind]}, not {value!r}")
    return value


def _parse_poly(ring, obj, what, chern=False):
    """Polynomial given as {monomial string: "p/q"}; monomials are generator
    names joined by '*' with optional '^e' (e >= 0), or "1" for the
    constant.  A Chern class (``chern``) has no term of degree 0."""
    if obj is None:
        return {}
    out = {}
    for mono, coeff in _expect(obj, dict, what).items():
        expo = [0] * len(ring.names)
        if mono.strip() not in ("1", ""):
            for part in mono.split("*"):
                name, hat, e = part.partition("^")
                e = e.strip() if hat else "1"
                if not e.isdecimal():
                    raise ValidationError(
                        f"{what}: monomial {mono!r} needs non-negative integer exponents"
                    )
                name = name.strip()
                if name not in ring.names:
                    raise MissingChernData(f"{what}: unknown generator {name!r}")
                expo[ring.names.index(name)] += int(e)
        expo = tuple(expo)
        if ring.monomial_degree(expo) > ring.top_degree:
            raise OracleDegreeOverflow(
                f"{what}: monomial {mono!r} exceeds the declared top degree"
            )
        if chern and ring.monomial_degree(expo) == 0:
            raise ValidationError(
                f"{what}: Chern class term {mono!r} has degree 0; "
                f"a Chern class starts in positive degree"
            )
        out = ring.add(out, {expo: rational_from_json(coeff, f"oracle {what}")})
    return out


def _parse_bundle(ring, entry, what):
    """A T_c or E[s][nu] entry {"rank": r, "classes": [c_1, c_2, ...]}: the
    rank, None when not given, and the Chern classes as ring elements."""
    entry = _expect(entry, dict, what)
    for key in entry:
        if key not in ("rank", "classes"):
            raise ValidationError(
                f"oracle {what} has unknown key {key!r}; an entry holds rank and classes"
            )
    rank = _expect(entry["rank"], int, f"{what} rank") if "rank" in entry else None
    classes = _expect(entry.get("classes", []), list, f"{what} classes")
    return rank, [_parse_poly(ring, c, what, chern=True) for c in classes]


@dataclass
class CohomologyOracle:
    """Intersection data for one stratum, as supplied by the user."""

    d_c: int
    ring: _Ring
    pairing: dict          # exponent tuple -> Fraction, top degree only
    tangent_chern: list    # Chern classes c_1.. of T_c as ring elements
    tangent_rank: int
    eigen_chern: dict      # (s, nu) -> (rank override or None, chern class list)
    omega: dict            # ring element

    @classmethod
    def trivial(cls, d_c=0):
        """The oracle with no generators; at d_c = 0 the point pairs to 1."""
        return cls.from_json({"d_c": d_c, "pairing": {} if d_c else {"1": 1}})

    @classmethod
    def from_json(cls, obj):
        if not isinstance(obj, dict):
            raise ValidationError(f"oracle entry must be a JSON object, not {obj!r}")
        if "d_c" not in obj:
            raise ValidationError("oracle entry has no d_c")
        d_c = _expect(obj["d_c"], int, "d_c")
        names, degrees = [], []
        for gen in _expect(obj.get("generators", []), list, "generators"):
            gen = _expect(gen, dict, "generator")
            if not isinstance(gen.get("name"), str):
                raise ValidationError(f"oracle generator {gen!r} has no string name")
            if gen["name"] in names:
                raise ValidationError(f"oracle generator name {gen['name']!r} is given twice")
            names.append(gen["name"])
            degrees.append(_expect(gen.get("degree"), int, f"degree of {gen['name']!r}"))
        if any(d <= 0 for d in degrees):
            raise ValidationError("generator degrees must be positive")
        ring = _Ring(names, degrees, 2 * d_c)
        pairing = {}
        keys = {}  # exponent tuple -> the pairing key that named it
        for mono, val in _expect(obj.get("pairing", {}), dict, "pairing").items():
            elem = _parse_poly(ring, {mono: "1"}, "pairing")
            (expo,) = elem.keys()
            if ring.monomial_degree(expo) != 2 * d_c:
                raise ValidationError(
                    f"pairing entry {mono!r} is not of top degree {2 * d_c}"
                )
            if expo in keys:
                raise ValidationError(
                    f"oracle pairing keys {keys[expo]!r} and {mono!r} name the same monomial"
                )
            keys[expo] = mono
            pairing[expo] = rational_from_json(val, f"oracle pairing {mono!r}")
        chern = _expect(obj.get("chern", {}), dict, "chern")
        tc = chern.get("T_c")
        tangent_chern = []
        tangent_rank = d_c
        if tc is not None:
            rank, tangent_chern = _parse_bundle(ring, tc, "T_c")
            if rank is not None:
                tangent_rank = rank
        eigen = {}
        for key, val in chern.items():
            if key in ("T_c", "omega"):
                continue
            match = re.fullmatch(r"E\[(\d+)\]\[(\d+)\]", key)
            if match is None:
                raise ValidationError(
                    f"oracle chern key {key!r} is not T_c, omega or E[s][nu] "
                    f"with integers s, nu >= 0"
                )
            s, nu = int(match[1]), int(match[2])
            if (s, nu) in eigen:
                raise ValidationError(f"oracle chern key {key!r} repeats E[{s}][{nu}]")
            eigen[(s, nu)] = _parse_bundle(ring, val, key)
        omega = _parse_poly(ring, chern.get("omega"), "omega")
        return cls(
            d_c=d_c,
            ring=ring,
            pairing=pairing,
            tangent_chern=tangent_chern,
            tangent_rank=tangent_rank,
            eigen_chern=eigen,
            omega=omega,
        )

    @cached_property
    def tangent_power_sums(self):
        """The power sums p_0..p_{d_c} of T_c's Chern roots, built once and
        shared by the normal bundle and the Todd class."""
        return _power_sums(self.ring, self.tangent_rank, self.tangent_chern, self.d_c)

    def pair(self, x, form):
        """<form x> for a rational form, as sum_a x[a] sum_b form[b]
        pairing[a + b] with the rational sums first; None when no monomial
        of the pairing table has a nonzero coefficient in form x."""
        dual = {}  # a -> sum_b form[b] pairing[a + b]
        for b, fb in form.items():
            for k, pk in self.pairing.items():
                a = tuple(i - j for i, j in zip(k, b))
                if min(a, default=0) >= 0:
                    dual[a] = dual.get(a, 0) + fb * pk
        terms = [x[a] * w for a, w in dual.items() if a in x and w]
        acc = sum(terms[1:], terms[0]) if terms else Fraction(0)
        if self.ring.is_zero(acc) and not any(k in self.ring.mul(form, x) for k in self.pairing):
            return None
        return acc


# ---------------------------------------------------------------------------
# characteristic classes on power sums of Chern roots
# ---------------------------------------------------------------------------


def _power_sums(ring, rank, classes, top_n):
    """[p_0, ..., p_top_n]: the power sums of the Chern roots of a bundle of
    the given rank with Chern classes c_1, c_2, ..., by Newton's identities;
    p_0 = rank, and ch_n = p_n / n!."""
    e = [ring.one()] + list(classes) + [{}] * top_n
    p = [ring.scale(ring.one(), rank)]
    for n in range(1, top_n + 1):
        acc = ring.scale(e[n], n)
        for i in range(1, n):
            acc = ring.add(acc, ring.scale(ring.mul(e[i], p[n - i]), (-1) ** i))
        p.append(ring.scale(acc, (-1) ** (n + 1)))
    return p


@lru_cache(maxsize=None)
def _todd_log_coefficients(top_n):
    """f_1, ..., f_top_n with log(x/(1-e^{-x})) = sum_{n>=1} f_n x^n, so that
    Td(V) = exp(sum f_n p_n(V)).  The log has derivative 1/x - 1/(e^x - 1)
    = -sum_{n>=1} B_n x^{n-1}/n!, so f_n = -B_n/(n n!) with B_1 = -1/2."""
    bern = [Fraction(1)]
    for n in range(1, top_n + 1):
        bern.append(-sum(comb(n + 1, j) * b for j, b in enumerate(bern)) / (n + 1))
    return tuple(-bern[n] / (n * factorial(n)) for n in range(1, top_n + 1))


def _todd_class(ring, p, exponent=None):
    """Td(V) from the power sums p = [p_0, ..., p_top_n] of V, times exp(exponent)."""
    f = _todd_log_coefficients(len(p) - 1)
    acc = {} if exponent is None else exponent
    for n in range(1, len(p)):
        acc = ring.add(acc, ring.scale(p[n], f[n - 1]))
    return ring.exp(acc)


# ---------------------------------------------------------------------------
# contributions
# ---------------------------------------------------------------------------


@dataclass
class ContributionPolynomial:
    """One stratum's polynomial P_c(k) with its phase tag."""

    coefficients: list     # Cyclotomic, k^0 .. k^degree
    q: object              # PhaseQ, or a string tag for a symbolic phase

    def is_symbolic(self):
        return not isinstance(self.q, PhaseQ)

    def to_json(self):
        return {
            "q": self.q.to_json() if isinstance(self.q, PhaseQ) else str(self.q),
            "coefficients": [c.to_json() for c in self.coefficients],
        }


class ScalarMemo:
    """The values that the strata of one computation share, each built once.

    The point route keeps (1 - zeta^i)^{-r} from Cyclotomic.inverse per
    (i, r) and their product per rank vector.  The oracle route keeps the
    closed-form inverses (1 - zeta^i)^{-1} per m, their powers per (i, r),
    the lambda prefactor per rank vector, the weights beta_j^t / t per
    (j, t), and the tables that depend only on the orbit data: the w2
    table, the canonical eigenbundle ranks per class, the surjection
    coefficients and the exponent scalars per bundle.  Entries that depend
    on the orbit are keyed by its OrbitData, so one memo never mixes two
    orbits.  Neither route reads the other's entries, so the CLI's
    comparison of the two stays a comparison of independent computations.
    A memo only grows: make one per computation."""

    def __init__(self):
        self.point_factors = {}    # (m, i, r) -> (1 - zeta_m^i)^{-r}
        self.point_products = {}   # ranks -> prod_i (1 - zeta_m^i)^{-r_i}
        self.inverses = {}         # m -> [None, (1 - zeta_m^i)^{-1} for i = 1..m-1]
        self.oracle_factors = {}   # (m, i, r) -> (1 - zeta_m^i)^{-r}
        self.prefactors = {}       # ranks -> prod_i (1 - zeta_m^i)^{-r_i}
        self.weights = {}          # (m, j, t) -> beta_j^t / t
        self.w2 = {}               # data -> w2[s][nu][j]
        self.ranks = {}            # (data, group, s, c) -> canonical ranks of E^nu, w2 sums
        self.surjections = {}      # (t, n) -> t! S(n, t) / n!
        self.scalars = {}          # (data, bundle, t) -> sum_j w_j beta_j^t / t

    @staticmethod
    def _product(products, factors, ranks, factor):
        """prod_{i>=1} factor(m, i, r_i) over m = len(ranks) and r_i != 0,
        kept in products per rank vector and factors per (m, i, r)."""
        out = products.get(ranks)
        if out is None:
            m = len(ranks)
            for i in range(1, m):
                if ranks[i]:
                    key = (m, i, ranks[i])
                    if key not in factors:
                        factors[key] = factor(m, i, ranks[i])
                    out = factors[key] if out is None else out * factors[key]
            if out is None:
                out = Cyclotomic.from_rational(1, m)
            products[ranks] = out
        return out

    def point_product(self, ranks):
        """prod_{i>=1} (1 - zeta_m^i)^{-r_i}, m = len(ranks), with the
        negative powers through Cyclotomic.inverse."""
        return self._product(
            self.point_products, self.point_factors, ranks,
            lambda m, i, r: (1 - Cyclotomic.zeta(m, i)) ** -r,
        )

    def oracle_inverses(self, m):
        """[None] + [(1 - zeta_m^i)^{-1} for i = 1..m-1], from the closed
        form of inverse_one_minus_zeta."""
        if m not in self.inverses:
            self.inverses[m] = [None] + [inverse_one_minus_zeta(m, i) for i in range(1, m)]
        return self.inverses[m]

    def prefactor(self, ranks):
        """The same product as point_product, from oracle_inverses; a
        negative rank is a positive power of 1 - zeta^i and needs no
        inverse."""
        inverses = self.oracle_inverses(len(ranks))
        return self._product(
            self.prefactors, self.oracle_factors, ranks,
            lambda m, i, r: inverses[i] ** r if r > 0 else (1 - Cyclotomic.zeta(m, i)) ** -r,
        )

    def weight(self, m, j, t):
        """beta_j^t / t with beta_j = zeta^j / (1 - zeta^j) = (1 - zeta^j)^{-1} - 1."""
        key = (m, j, t)
        if key not in self.weights:
            beta = self.oracle_inverses(m)[j] - 1
            self.weights[key] = beta**t * Fraction(1, t)
        return self.weights[key]

    def w2_table(self, data):
        """w2[s][nu][j] = twice mu_m(n_s)(-nu) - mu_m(n_s)(j - nu), per
        branch point s."""
        if data not in self.w2:
            m = data.m
            self.w2[data] = [
                [[mu2[-nu] - mu2[j - nu] for j in range(m)] for nu in range(m)]
                for mu2 in (mu2_table(m, n) for _, n in data.branches)
            ]
        return self.w2[data]

    def eigen_ranks(self, data, group, s, c):
        """The canonical ranks of E^nu, nu = 0..m-1, at the s-th fixed point
        with class c (the root count r^nu, plus the rank of G at nu = 0),
        and their sums sum_nu w2[s][nu][j] rank(E^nu) per j."""
        key = (data, group, s, c)
        if key not in self.ranks:
            m = data.m
            ranks = [r + (group.rank if nu == 0 else 0) for nu, r in enumerate(root_eigendata(c, m))]
            w2 = self.w2_table(data)[s]
            sums = [sum(w2[nu][j] * ranks[nu] for nu in range(m)) for j in range(m)]
            self.ranks[key] = ranks, sums
        return self.ranks[key]

    def surjection(self, t, n):
        """t! S(n, t) / n!, from the surjection count
        t! S(n, t) = sum_u (-1)^{t-u} C(t, u) u^n."""
        key = (t, n)
        if key not in self.surjections:
            surj = sum((-1) ** (t - u) * comb(t, u) * u**n for u in range(1, t + 1))
            self.surjections[key] = Fraction(surj, factorial(n))
        return self.surjections[key]

    def exponent_scalar(self, data, bundle, t):
        """sum_{j=1}^{m-1} w_j beta_j^t / t for the weights w_j with which a
        bundle enters N_j: 1 for T_c^dual (bundle None) and -w2[s][nu][j]/(2m)
        for E[s][nu] (bundle (s, nu))."""
        key = (data, bundle, t)
        if key not in self.scalars:
            m = data.m
            if bundle is None:
                weights = dict.fromkeys(range(1, m), 1)
            else:
                w = self.w2_table(data)[bundle[0]][bundle[1]]
                weights = {j: Fraction(-w[j], 2 * m) for j in range(1, m) if w[j]}
            self.scalars[key] = sum(self.weight(m, j, t) * w for j, w in weights.items())
        return self.scalars[key]


def point_contribution(ranks, z_delta_order, memo=None):
    """(1/|Z_delta|) prod_{i=1}^{m-1} (1 - zeta_m^i)^{-r_i} for a
    zero-dimensional stratum.

    The negative powers go through Cyclotomic.inverse, a product of Galois
    conjugates over the norm.  The oracle route (smooth_contribution with a
    trivial oracle) takes (1 - zeta^j)^{-1} from the closed form of
    inverse_one_minus_zeta instead, so the CLI's certificate that the two
    agree compares independent computations.  The product is taken from
    memo (a ScalarMemo) when one is given."""
    if ranks[0] != 0:
        raise NotZeroDimensional(
            f"stratum has r_0 = {ranks[0]}; the closed form needs r_0 = 0"
        )
    memo = ScalarMemo() if memo is None else memo
    return memo.point_product(tuple(ranks)) * Fraction(1, z_delta_order)


def _lambda_exponent(data, stratum, group, oracle, memo):
    """The exponent of the lambda_{-1}-inverse of the normal bundle, without
    its prefactor.  It is linear in N_j = T_c^dual - sum w2/(2m) E^nu, E^nu
    trivial of its canonical rank unless overridden, so T_c^dual (bundle
    None) and each overridden E[s][nu] (bundle (s, nu)) enter once per t with
    ScalarMemo.exponent_scalar.  The ranks are certified as 2m r_j."""
    m = data.m
    if oracle.tangent_rank != stratum.d_c:
        raise InvariantViolation(
            f"oracle tangent rank {oracle.tangent_rank} differs from stratum "
            f"dimension {stratum.d_c}"
        )
    eigen = [memo.eigen_ranks(data, group, s, c) for s, c in enumerate(stratum.c_delta)]
    ranks = [r for r, _ in eigen]
    for j in range(1, m):
        rank2m = 2 * m * oracle.tangent_rank - sum(sums[j] for _, sums in eigen)
        if rank2m != 2 * m * stratum.ranks[j]:
            raise InvariantViolation(
                f"normal bundle eigen-rank {Fraction(rank2m, 2 * m)} for j = {j} "
                f"differs from stratum rank r_{j} = {stratum.ranks[j]}"
            )
    ring = oracle.ring
    bundles = [([ring.scale(p, (-1) ** n) for n, p in enumerate(oracle.tangent_power_sums)], None)]
    for (s, nu), (rank, classes) in oracle.eigen_chern.items():
        if s >= len(ranks) or nu >= m:
            raise ValidationError(
                f"oracle key E[{s}][{nu}] names no eigenbundle: s < {len(ranks)} "
                f"(branch points) and nu < m = {m} are needed"
            )
        if rank not in (None, ranks[s][nu]):
            raise InvariantViolation(
                f"oracle rank {rank} for E[{s}][{nu}] disagrees with the stratum "
                f"root count {ranks[s][nu]}"
            )
        if any(memo.w2_table(data)[s][nu][1:]):
            bundles.append((_power_sums(ring, ranks[s][nu], classes, oracle.d_c), (s, nu)))
    exponent = {}
    for p, bundle in bundles:
        for t in range(1, oracle.d_c + 1):
            # sum_i (e^{y_i} - 1)^t = sum_{n >= t} t! S(n, t) p_n / n!
            p_t = {}
            for n in range(t, oracle.d_c + 1):
                p_t = ring.add(p_t, ring.scale(p[n], memo.surjection(t, n)))
            # this starts in degree 2t; drop what a non-homogeneous user
            # class puts below
            p_t = {k: v for k, v in p_t.items() if ring.monomial_degree(k) >= 2 * t}
            if p_t:
                scalar = memo.exponent_scalar(data, bundle, t)
                exponent = ring.add(exponent, ring.scale(p_t, scalar))
    return exponent


def lambda_inverse_expansion(data, stratum, group, oracle, memo=None):
    """The equivariant lambda_{-1}-inverse of the normal bundle as a ring
    element, prefactor included (for the trivial oracle the scalar
    prod (1 - zeta^i)^{-r_i}); memo (a ScalarMemo) supplies shared scalars."""
    ring = oracle.ring
    memo = ScalarMemo() if memo is None else memo
    pref = memo.prefactor(tuple(stratum.ranks))
    return ring.scale(ring.exp(_lambda_exponent(data, stratum, group, oracle, memo)), pref)


def smooth_contribution(data, stratum, group, oracle, cs_phase=None, memo=None):
    """P_c(k): the full polynomial contribution of one stratum over its
    oracle.  coefficient of k^t is

        (1/|Z_delta|) * (m^t/t!) * < omega^t  lambda^{-1}  Td(T_c) >

    with the lambda-inverse prefactor included, from exp(k m omega).  The
    prefactor and m^t/(t! |Z_delta|) multiply the pairings of one exponential
    exp(E + log Td(T_c)), E the exponent of lambda^{-1}; d_c = 0 pairs the
    prefactor alone.  memo (a ScalarMemo) shares scalars between strata."""
    if stratum.ranks is None:
        raise MissingChernData("stratum carries no rank data; run stratum_ranks first")
    if stratum.d_c < 0:
        raise NotZeroDimensional(
            f"stratum index d_c = {stratum.d_c} is negative (empty stratum)"
        )
    if oracle.d_c != stratum.d_c:
        raise MissingChernData(
            f"oracle dimension {oracle.d_c} does not match stratum d_c = {stratum.d_c}"
        )
    ring = oracle.ring
    memo = ScalarMemo() if memo is None else memo
    if stratum.d_c == 0:
        ((unit, scalar),) = lambda_inverse_expansion(data, stratum, group, oracle, memo).items()
        val = oracle.pairing.get(unit)
        coeffs = [Cyclotomic.from_rational(0) if val is None else scalar * val]
    else:
        pref = memo.prefactor(tuple(stratum.ranks))
        exponent = _lambda_exponent(data, stratum, group, oracle, memo)
        integrand = _todd_class(ring, oracle.tangent_power_sums, exponent)
        coeffs = []
        omega_pow = ring.one()
        for t in range(stratum.d_c + 1):
            if t > 0:
                omega_pow = ring.mul(omega_pow, oracle.omega)
            paired = oracle.pair(integrand, omega_pow)
            coeffs.append(Cyclotomic.from_rational(0) if paired is None else pref * paired)
    z = stratum.z_delta_order
    coeffs = [c * Fraction(data.m**t, factorial(t) * z) for t, c in enumerate(coeffs)]
    while len(coeffs) > 1 and coeffs[-1].is_zero():
        coeffs.pop()
    q = cs_phase if cs_phase is not None else "q?"
    return ContributionPolynomial(coefficients=coeffs, q=q)
