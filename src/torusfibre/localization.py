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

with beta_j = zeta^j/(1 - zeta^j).  The inner sums sum_i (e^{y_i}-1)^t start
in cohomological degree 2t, so truncation at the stratum dimension is exact.
The scalar prefactor is exactly the point-stratum product, which is what
makes the zero-dimensional collapse automatic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .errors import (
    InvariantViolation,
    MissingChernData,
    NotZeroDimensional,
    OracleDegreeOverflow,
    ValidationError,
)
from .exact import Cyclotomic, PhaseQ
from .spectrum import mu_value
from .strata import root_eigendata

__all__ = [
    "CohomologyOracle",
    "ContributionPolynomial",
    "point_contribution",
    "lambda_inverse_expansion",
    "smooth_contribution",
]


# ---------------------------------------------------------------------------
# graded ring elements over the oracle generators
# ---------------------------------------------------------------------------


class _Ring:
    """Commutative graded ring Q(zeta)[generators], truncated above the
    oracle's top degree.  Elements are dicts exponent-tuple -> Cyclotomic."""

    def __init__(self, names, degrees, top_degree):
        self.names = list(names)
        self.degrees = list(degrees)
        self.top_degree = top_degree

    def monomial_degree(self, expo):
        return sum(e * d for e, d in zip(expo, self.degrees))

    def zero(self):
        return {}

    def one(self):
        return {(0,) * len(self.names): Cyclotomic.from_rational(1)}

    def scalar(self, c):
        if isinstance(c, (int, Fraction)):
            c = Cyclotomic.from_rational(c)
        if c.is_zero():
            return {}
        return {(0,) * len(self.names): c}

    def add(self, a, b):
        out = dict(a)
        for k, v in b.items():
            cur = out.get(k)
            s = v if cur is None else cur + v
            if s.is_zero():
                out.pop(k, None)
            else:
                out[k] = s
        return out

    def scale(self, a, c):
        if isinstance(c, (int, Fraction)):
            c = Cyclotomic.from_rational(c)
        if c.is_zero():
            return {}
        return {k: v * c for k, v in a.items()}

    def mul(self, a, b):
        out = {}
        for ka, va in a.items():
            for kb, vb in b.items():
                k = tuple(x + y for x, y in zip(ka, kb))
                if self.monomial_degree(k) > self.top_degree:
                    continue
                cur = out.get(k)
                s = va * vb if cur is None else cur + va * vb
                if s.is_zero():
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


def _parse_poly(ring, obj, what):
    """Polynomial given as {monomial string: "p/q"}; monomials are generator
    names joined by '*' with optional '^e', or "1" for the constant."""
    if obj is None:
        return ring.zero()
    out = ring.zero()
    for mono, coeff in obj.items():
        expo = [0] * len(ring.names)
        if mono.strip() not in ("1", ""):
            for part in mono.split("*"):
                part = part.strip()
                if "^" in part:
                    name, e = part.split("^")
                    e = int(e)
                else:
                    name, e = part, 1
                try:
                    expo[ring.names.index(name.strip())] += e
                except ValueError:
                    raise MissingChernData(
                        f"{what}: unknown generator {name.strip()!r}"
                    ) from None
        expo = tuple(expo)
        if ring.monomial_degree(expo) > ring.top_degree:
            raise OracleDegreeOverflow(
                f"{what}: monomial {mono!r} exceeds the declared top degree"
            )
        out = ring.add(out, {expo: Cyclotomic.from_rational(Fraction(coeff))})
    return out


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
        ring = _Ring([], [], 2 * d_c)
        pairing = {(): Fraction(1)} if d_c == 0 else {}
        return cls(
            d_c=d_c,
            ring=ring,
            pairing=pairing,
            tangent_chern=[],
            tangent_rank=d_c,
            eigen_chern={},
            omega=ring.zero(),
        )

    @classmethod
    def from_json(cls, obj):
        d_c = int(obj["d_c"])
        gens = obj.get("generators", [])
        names = [g["name"] for g in gens]
        degrees = [int(g["degree"]) for g in gens]
        if any(d <= 0 for d in degrees):
            raise ValidationError("generator degrees must be positive")
        ring = _Ring(names, degrees, 2 * d_c)
        pairing = {}
        for mono, val in obj.get("pairing", {}).items():
            elem = _parse_poly(ring, {mono: "1"}, "pairing")
            (expo,) = elem.keys()
            if ring.monomial_degree(expo) != 2 * d_c:
                raise ValidationError(
                    f"pairing entry {mono!r} is not of top degree {2 * d_c}"
                )
            pairing[expo] = Fraction(val)
        chern = obj.get("chern", {})
        tc = chern.get("T_c")
        tangent_chern = []
        tangent_rank = d_c
        if tc is not None:
            tangent_rank = int(tc.get("rank", d_c))
            tangent_chern = [
                _parse_poly(ring, c, "T_c") for c in tc.get("classes", [])
            ]
        eigen = {}
        for key, val in chern.items():
            if not key.startswith("E["):
                continue
            inner = key[1:].replace("]", "")
            s, nu = (int(x) for x in inner.strip("[").split("["))
            eigen[(s, nu)] = (
                int(val["rank"]) if "rank" in val else None,
                [_parse_poly(ring, c, key) for c in val.get("classes", [])],
            )
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

    def pair(self, elem):
        """Evaluate against the fundamental class: picks out top degree."""
        acc = Cyclotomic.from_rational(0)
        for expo, coeff in elem.items():
            if self.ring.monomial_degree(expo) != 2 * self.d_c:
                continue
            val = self.pairing.get(expo)
            if val is not None:
                acc = acc + coeff * val
        return acc


# ---------------------------------------------------------------------------
# Chern characters
# ---------------------------------------------------------------------------


class _ChernCharacter:
    """ch(V) stored by cohomological degree: comps[n] is the degree-2n part;
    comps[0] is the (rational) rank times 1."""

    def __init__(self, ring, comps):
        self.ring = ring
        self.comps = comps

    @classmethod
    def from_chern_classes(cls, ring, rank, classes, top_n):
        # Newton's identities give the power sums of the Chern roots from the
        # elementary symmetric functions c_1, c_2, ...
        e = [ring.one()] + list(classes)
        while len(e) <= top_n:
            e.append(ring.zero())
        p = [ring.scalar(rank)]
        for n in range(1, top_n + 1):
            acc = ring.scale(e[n], Fraction(n))
            sign = -1
            for i in range(1, n):
                acc = ring.add(acc, ring.scale(ring.mul(e[i], p[n - i]), sign))
                sign = -sign
            if n % 2 == 0:
                acc = ring.scale(acc, -1)
            p.append(acc)
        comps = [ring.scalar(rank)]
        for n in range(1, top_n + 1):
            comps.append(ring.scale(p[n], Fraction(1, factorial(n))))
        return cls(ring, comps)

    def rank(self):
        c0 = self.comps[0]
        if not c0:
            return Fraction(0)
        (coeff,) = c0.values()
        return coeff.rational_value()

    def add(self, other):
        return _ChernCharacter(
            self.ring,
            [self.ring.add(a, b) for a, b in zip(self.comps, other.comps)],
        )

    def scale(self, c):
        return _ChernCharacter(self.ring, [self.ring.scale(a, c) for a in self.comps])

    def dual(self):
        return _ChernCharacter(
            self.ring,
            [
                self.ring.scale(c, Fraction((-1) ** n))
                for n, c in enumerate(self.comps)
            ],
        )

    def adams(self, u):
        """psi^u: scales the degree-2n part by u^n (u = 0 keeps the rank)."""
        return _ChernCharacter(
            self.ring,
            [self.ring.scale(c, Fraction(u) ** n if n else Fraction(1)) for n, c in enumerate(self.comps)],
        )

    def total(self):
        acc = self.ring.zero()
        for c in self.comps:
            acc = self.ring.add(acc, c)
        return acc


@lru_cache(maxsize=None)
def _todd_log_coefficients(top_n):
    """Coefficients f_n with log(x/(1-e^{-x})) = sum_{n>=1} f_n x^n, so that
    Td(V) = exp(sum f_n p_n(V)) on power sums of Chern roots."""
    # Bernoulli numbers with the B_1 = +1/2 convention give the series
    # x/(1-e^{-x}) = sum B_n^+ x^n / n!
    order = top_n + 1
    bern = [Fraction(0)] * order
    bern[0] = Fraction(1)
    for n in range(1, order):
        acc = Fraction(0)
        for j in range(n):
            acc += comb(n + 1, j) * bern[j]
        bern[n] = -acc / (n + 1)
    series = [b / factorial(n) for n, b in enumerate(bern)]
    if order > 1:
        series[1] = Fraction(1, 2)  # flip to the B_1^+ convention
    # formal log: log(1 + s) with s the tail of the series
    logc = [Fraction(0)] * order
    power = [Fraction(1)] + [Fraction(0)] * (order - 1)  # s^i accumulator
    tail = [Fraction(0)] + series[1:]
    for i in range(1, order):
        nxt = [Fraction(0)] * order
        for a in range(order):
            if power[a] == 0:
                continue
            for b in range(1, order - a):
                nxt[a + b] += power[a] * tail[b]
        power = nxt
        for n in range(order):
            logc[n] += Fraction((-1) ** (i + 1), i) * power[n]
    return tuple(logc[1:top_n + 1])


def _todd_class(ring, rank, classes, top_n):
    if top_n == 0:
        return ring.one()
    ch = _ChernCharacter.from_chern_classes(ring, rank, classes, top_n)
    # recover power sums p_n = n! * ch_n
    f = _todd_log_coefficients(top_n)
    acc = ring.zero()
    for n in range(1, top_n + 1):
        p_n = ring.scale(ch.comps[n], Fraction(factorial(n)))
        acc = ring.add(acc, ring.scale(p_n, f[n - 1]))
    return ring.exp(acc)


# ---------------------------------------------------------------------------
# contributions
# ---------------------------------------------------------------------------


@dataclass
class ContributionPolynomial:
    """One stratum's polynomial P_c(k) with its phase tag."""

    coefficients: list     # Cyclotomic, k^0 .. k^degree
    q: object              # PhaseQ, or a string tag for a symbolic phase

    @property
    def degree(self):
        return len(self.coefficients) - 1

    def is_symbolic(self):
        return not isinstance(self.q, PhaseQ)

    def to_json(self):
        return {
            "q": self.q.to_json() if isinstance(self.q, PhaseQ) else str(self.q),
            "coefficients": [c.to_json() for c in self.coefficients],
        }


def point_contribution(ranks, z_delta_order):
    """(1/|Z_delta|) prod_{i=1}^{m-1} (1 - zeta_m^i)^{-r_i} for a
    zero-dimensional stratum."""
    m = len(ranks)
    if ranks[0] != 0:
        raise NotZeroDimensional(
            f"stratum has r_0 = {ranks[0]}; the closed form needs r_0 = 0"
        )
    acc = Cyclotomic.from_rational(Fraction(1, z_delta_order), m)
    for i in range(1, m):
        factor = 1 - Cyclotomic.zeta(m, i)
        acc = acc * factor ** (-ranks[i])
    return acc


def _eigen_character(oracle, s, nu, default_rank):
    """ch of E^nu at the s-th fixed point; trivial of the canonical rank
    unless the oracle overrides it."""
    ring = oracle.ring
    top_n = oracle.d_c
    override = oracle.eigen_chern.get((s, nu))
    if override is None:
        return _ChernCharacter.from_chern_classes(ring, default_rank, [], top_n)
    rank, classes = override
    rank = default_rank if rank is None else rank
    if rank != default_rank:
        raise InvariantViolation(
            f"oracle rank {rank} for E[{s}][{nu}] disagrees with the stratum "
            f"root count {default_rank}"
        )
    return _ChernCharacter.from_chern_classes(ring, rank, classes, top_n)


def _normal_characters(data, stratum, group, oracle):
    """ch(N_j) for j = 1..m-1: the eigen-components of the virtual normal
    bundle, with ranks certified against the stratum ranks."""
    m = data.m
    ring = oracle.ring
    top_n = oracle.d_c
    if oracle.tangent_rank != stratum.d_c:
        raise InvariantViolation(
            f"oracle tangent rank {oracle.tangent_rank} differs from stratum "
            f"dimension {stratum.d_c}"
        )
    ch_t_dual = _ChernCharacter.from_chern_classes(
        ring, oracle.tangent_rank, oracle.tangent_chern, top_n
    ).dual()
    roots = [root_eigendata(c, m) for c in stratum.c_delta]
    eigen = {}
    for s, r_s in enumerate(roots):
        for nu in range(m):
            default = r_s[nu] + (group.rank if nu == 0 else 0)
            eigen[(s, nu)] = _eigen_character(oracle, s, nu, default)
    out = {}
    for j in range(1, m):
        acc = ch_t_dual
        for s, (l, n) in enumerate(data.branches):
            for nu in range(m):
                w = mu_value(m, n, (-nu) % m) - mu_value(m, n, (j - nu) % m)
                if w == 0:
                    continue
                acc = acc.add(eigen[(s, nu)].scale(-w / m))
        if acc.rank() != stratum.ranks[j]:
            raise InvariantViolation(
                f"normal bundle eigen-rank {acc.rank()} for j = {j} differs "
                f"from stratum rank r_{j} = {stratum.ranks[j]}"
            )
        out[j] = acc
    return out


def lambda_inverse_expansion(data, stratum, group, oracle):
    """The equivariant lambda_{-1}-inverse of the normal bundle as a ring
    element, scalar prefactor included.  For the trivial oracle this is the
    scalar prod (1 - zeta^i)^{-r_i}."""
    m = data.m
    ring = oracle.ring
    pref = Cyclotomic.from_rational(1, m)
    for i in range(1, m):
        pref = pref * (1 - Cyclotomic.zeta(m, i)) ** (-stratum.ranks[i])
    normals = _normal_characters(data, stratum, group, oracle)
    exponent = ring.zero()
    for j in range(1, m):
        beta = Cyclotomic.zeta(m, j) * (1 - Cyclotomic.zeta(m, j)).inverse()
        ch = normals[j]
        beta_pow = Cyclotomic.from_rational(1, m)
        for t in range(1, oracle.d_c + 1):
            beta_pow = beta_pow * beta
            # sum_i (e^{y_i} - 1)^t via binomial expansion in Adams operations
            p_jt = ring.zero()
            for u in range(t + 1):
                term = ch.adams(u).total()
                p_jt = ring.add(
                    p_jt, ring.scale(term, Fraction((-1) ** (t - u) * comb(t, u)))
                )
            # everything below degree 2t cancels exactly; drop the numerical
            # zeros and keep the honest part
            p_jt = {
                k: v
                for k, v in p_jt.items()
                if ring.monomial_degree(k) >= 2 * t and not v.is_zero()
            }
            exponent = ring.add(
                exponent, ring.scale(p_jt, beta_pow * Fraction(1, t))
            )
    return ring.scale(ring.exp(exponent), pref)


def smooth_contribution(data, stratum, group, oracle, cs_phase=None):
    """P_c(k): the full polynomial contribution of one stratum over its
    oracle.  coefficient of k^t is

        (1/|Z_delta|) * (m^t/t!) * < omega^t  lambda^{-1}  Td(T_c) >

    with the lambda-inverse prefactor included, from exp(k m omega)."""
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
    m = data.m
    lam = lambda_inverse_expansion(data, stratum, group, oracle)
    todd = _todd_class(ring, oracle.tangent_rank, oracle.tangent_chern, oracle.d_c)
    base = ring.mul(lam, todd)
    coeffs = []
    omega_pow = ring.one()
    for t in range(stratum.d_c + 1):
        if t > 0:
            omega_pow = ring.mul(omega_pow, oracle.omega)
        paired = oracle.pair(ring.mul(omega_pow, base))
        scale = Fraction(m**t, factorial(t) * stratum.z_delta_order)
        coeffs.append(paired * scale)
    while len(coeffs) > 1 and coeffs[-1].is_zero():
        coeffs.pop()
    q = cs_phase if cs_phase is not None else "q?"
    return ContributionPolynomial(coefficients=coeffs, q=q)
