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
scalar.  The ring algebra runs on integers: per oracle, the monomials of
degree <= 2 d_c are numbered once in degree order, with a table of their
products.  A rational element is a list of integer numerators over one
denominator, a Q(zeta_m) element phi(m) such lists (list c for z^c) over
one denominator.  The integrand is one exponential X = exp(A), A = E + log
Td(T_c), a nilpotent series on the table that starts at A and stops where
its powers pass the top degree, with no product of the unit and none that
is known to vanish.  Each pairing <omega^t X> is, per pairing monomial, a
sum over the index pairs (i, j) whose product is that monomial of
omega^t[i] X[j]; no other product is formed.  The prefactor and m^t/(t!
|Z_delta|) multiply the paired scalars last.  The prefactor is exactly the
point-stratum product, which makes the zero-dimensional collapse
automatic: at d_c = 0 the exponent has no terms, X = 1, and the value is
the prefactor times the pairing of the point.  Every stratum takes this one
path.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate, zip_longest
from math import comb, factorial, gcd, lcm
from operator import add, attrgetter, sub

from .errors import (
    InvariantViolation,
    MissingChernData,
    NotZeroDimensional,
    OracleDegreeOverflow,
    ValidationError,
)
from .exact import (
    Cyclotomic,
    PhaseQ,
    _prime_factors,
    inverse_one_minus_zeta,
    rational_from_json,
    reduce_rows,
)
from .spectrum import mu2_table
from .strata import ConjClassSU, root_eigendata
from .value import Value

__all__ = [
    "CohomologyOracle",
    "ContributionPolynomial",
    "point_contribution",
    "lambda_inverse_expansion",
    "smooth_contribution",
]


# ---------------------------------------------------------------------------
# integer vectors on a monomial basis
# ---------------------------------------------------------------------------


class _Basis:
    """Monomials of degree <= top in generators of the given degrees (one of
    degree 0 keeps exponent 0), in degree order; start[d] is the first of
    degree >= d, table[i][j] the index of monomial i times j, for deg i +
    deg j <= top, and factor_pairs[k] the index pairs (i, j) whose product
    is k, for each k of degree top."""

    def __init__(self, degrees, top):
        terms = [(0, ())]
        for d in degrees:
            terms = [(s + e * d, x + (e,)) for s, x in terms
                     for e in range((top - s) // d + 1 if d else 1)]
        terms.sort()
        self.top, self.degree, monos = top, [s for s, _ in terms], [x for _, x in terms]
        index = self.index = {x: i for i, x in enumerate(monos)}
        self.start = [bisect_left(self.degree, d) for d in range(top + 2)]
        self.table = [[index[tuple(map(add, x, y))] for y in monos[:self.start[top - s + 1]]]
                      for s, x in terms]
        self.factor_pairs = {}
        for i, row in enumerate(self.table):
            lo = self.start[top - self.degree[i]]
            for j, k in enumerate(row[lo:], lo):
                self.factor_pairs.setdefault(k, []).append((i, j))


# The most product-table entries a basis may have.  Building the table costs
# about 1 s per million entries, and every product of the integration reads
# it.  The largest basis the tests, golden cases and benchmark ops build has
# 495 entries (70 monomials: four generators of degree 2, top degree 8, in
# tests/test_localization.py::test_power_sums_of_split_bundles).
MAX_BASIS_PRODUCTS = 2**20


def _basis_size(degrees, top):
    """(monomials, product-table entries) of _Basis(degrees, top), counted
    from the degrees alone: count[s] monomials of degree s, and a monomial
    of degree s has a table row over the monomials of degree <= top - s."""
    count = [1] + [0] * top
    for d in degrees:
        if d:
            for s in range(d, top + 1):
                count[s] += count[s - d]
    below = list(accumulate(count))
    return below[top], sum(c * below[top - s] for s, c in enumerate(count))


@lru_cache(maxsize=None)
def _basis(degrees, top):
    """The _Basis of (degrees, top), built once and shared by every oracle
    that uses it; nothing writes to it.  Its size is predicted first and
    refused above MAX_BASIS_PRODUCTS."""
    monomials, products = _basis_size(degrees, top)
    if products > MAX_BASIS_PRODUCTS:
        raise ValidationError(
            f"oracle basis of degree <= {top} in generators of degrees "
            f"{[d for d in degrees if d]} has {monomials} monomials and {products} "
            f"products, more than MAX_BASIS_PRODUCTS = {MAX_BASIS_PRODUCTS}"
        )
    return _Basis(degrees, top)


def _mul(basis, a, b, out):
    """Add the product of the numerator lists a and b into out; returns
    out."""
    for i, x in enumerate(a):
        if x:
            for k, y in zip(basis.table[i], b):
                if y:
                    out[k] += x * y
    return out


def _combination(terms, size):
    """sum cs[r] v / d into row r over the terms (cs, v, d), as (rows,
    denominator)."""
    den = lcm(*(d for _, _, d in terms))
    out = [[0] * size for _ in range(max(len(cs) for cs, _, _ in terms))]
    for cs, v, d in terms:
        for r, c in enumerate(cs):
            if c:
                c *= den // d
                out[r] = [a + c * x for a, x in zip(out[r], v)]
    return out, den


def _times(basis, a, b, m):
    """The product of the Q(zeta_m) row lists a and b, in the form that
    reduce_rows gives."""
    out = [[0] * len(basis.degree) for _ in range(len(a) + len(b) - 1)]
    for r, x in enumerate(a):
        for s, y in enumerate(b):
            _mul(basis, x, y, out[r + s])
    return reduce_rows(out, m)


def _exp(basis, terms, m):
    """exp(A), A = rows / den the _combination of terms, of positive degree,
    as (rows, denominator): 1 + sum_{n>=1} T_n / (den^n n!), T_1 = rows and
    T_n = T_{n-1} rows.  A^n starts in degree n low, low the least degree
    in which rows has an entry, and is nonzero below the top, so the series
    ends before the first n with n low > top and takes no product past it.
    Rows are kept as reduce_rows leaves them, so a rational exponent (a
    T_c-only oracle) stays one row; no terms (a point stratum), or A = 0,
    give the unit."""
    size = len(basis.degree)
    total, tden, n = [[1] + [0] * (size - 1)], 1, 1
    if terms:
        rows, den = _combination(terms, size)
        rows = reduce_rows(rows, m)
        low = min((basis.degree[i] for row in rows for i, x in enumerate(row) if x),
                  default=basis.top + 1)
        while n * low <= basis.top:
            term = rows if n == 1 else _times(basis, term, rows, m)
            total = [[den * n * x + y for x, y in zip(a, b)]
                     for a, b in zip_longest(total, term, fillvalue=[0] * size)]
            tden *= den * n
            n += 1
    return total, tden


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


@lru_cache(maxsize=None)
def _parse_monomial(names, degrees, mono):
    """(exponent tuple, degree) of a monomial string over the generator
    names of the given degrees (tuples): names joined by '*' with optional
    '^e' (e >= 0), or "1" for the constant.  A refused string raises, and
    is not cached."""
    expo = [0] * len(names)
    if mono.strip() not in ("1", ""):
        for part in mono.split("*"):
            name, hat, e = part.partition("^")
            e = e.strip() if hat else "1"
            if not e.isdecimal():
                raise ValidationError(f"monomial {mono!r} needs non-negative integer exponents")
            name = name.strip()
            if name not in names:
                raise MissingChernData(f"unknown generator {name!r}")
            expo[names.index(name)] += int(e)
    return tuple(expo), sum(map(int.__mul__, expo, degrees))


def _parse_poly(names, degrees, top, obj, what, chern=False):
    """Polynomial given as {monomial string: "p/q"}, as {exponent tuple:
    (p, q)}; the monomials are read by _parse_monomial.  A Chern class
    (``chern``) has no term of degree 0."""
    if obj is None:
        return {}
    out = {}
    for mono, coeff in _expect(obj, dict, what).items():
        try:
            expo, degree = _parse_monomial(names, degrees, mono)
        except ValidationError as exc:
            raise type(exc)(f"{what}: {exc}") from None
        if degree > top:
            raise OracleDegreeOverflow(
                f"{what}: monomial {mono!r} exceeds the declared top degree"
            )
        if chern and degree == 0:
            raise ValidationError(
                f"{what}: Chern class term {mono!r} has degree 0; "
                f"a Chern class starts in positive degree"
            )
        n, d = rational_from_json(coeff, f"oracle {what}")
        a, b = out.get(expo, (0, 1))
        out[expo] = a * d + n * b, b * d
    return out


def _parse_bundle(poly, entry, what):
    """A T_c or E[s][nu] entry {"rank": r, "classes": [c_1, c_2, ...]}: the
    rank, None when not given, and the Chern classes read by poly."""
    entry = _expect(entry, dict, what)
    for key in entry:
        if key not in ("rank", "classes"):
            raise ValidationError(
                f"oracle {what} has unknown key {key!r}; an entry holds rank and classes"
            )
    rank = _expect(entry["rank"], int, f"{what} rank") if "rank" in entry else None
    classes = _expect(entry.get("classes", []), list, f"{what} classes")
    return rank, [poly(c, what, True) for c in classes]


class CohomologyOracle(Value):
    """Intersection data for one stratum, as supplied by the user.  The
    polynomials are {exponent tuple: (p, q)}; they go onto the integer
    basis when a stratum of the oracle's dimension uses them.  No
    __slots__: the cached properties below keep their values in __dict__."""

    _fields = (
        "d_c", "degrees", "pairing", "tangent_chern", "tangent_rank", "eigen_chern", "omega",
    )
    _key = attrgetter(*_fields)
    __hash__ = None  # mutable

    def __init__(self, d_c, degrees, pairing, tangent_chern, tangent_rank, eigen_chern, omega):
        self.d_c = d_c
        self.degrees = degrees                # list of generator degrees
        self.pairing = pairing                # exponent tuple -> (p, q), top degree only
        self.tangent_chern = tangent_chern    # Chern classes c_1.. of T_c as polynomials
        self.tangent_rank = tangent_rank
        self.eigen_chern = eigen_chern        # (s, nu) -> (rank override or None, chern classes)
        self.omega = omega                    # polynomial

    @classmethod
    def trivial(cls):
        """The point oracle: no generators, and the point pairs to 1."""
        return cls.from_json({"d_c": 0, "pairing": {"1": 1}})

    @classmethod
    def from_json(cls, obj):
        """The oracle of a JSON object."""
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

        gens = tuple(names), tuple(degrees)

        def poly(value, what, chern=False):
            return _parse_poly(*gens, 2 * d_c, value, what, chern)

        pairing, named = {}, {}
        for mono, val in _expect(obj.get("pairing", {}), dict, "pairing").items():
            ((expo, _),) = poly({mono: 1}, "pairing").items()
            if sum(map(int.__mul__, expo, degrees)) != 2 * d_c:
                raise ValidationError(
                    f"pairing entry {mono!r} is not of top degree {2 * d_c}"
                )
            if expo in named:
                raise ValidationError(
                    f"oracle pairing keys {named[expo]!r} and {mono!r} name the same monomial"
                )
            named[expo] = mono
            pairing[expo] = rational_from_json(val, f"oracle pairing {mono!r}")
        chern = _expect(obj.get("chern", {}), dict, "chern")
        tc = chern.get("T_c")
        rank, tangent_chern = _parse_bundle(poly, {} if tc is None else tc, "T_c")
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
            eigen[(s, nu)] = _parse_bundle(poly, val, key)
        omega = poly(chern.get("omega"), "omega")
        return cls(
            d_c=d_c,
            degrees=degrees,
            pairing=pairing,
            tangent_chern=tangent_chern,
            tangent_rank=d_c if rank is None else rank,
            eigen_chern=eigen,
            omega=omega,
        )

    @cached_property
    def basis(self):
        """The basis in which a generator that no nonzero Chern or omega term
        names counts as degree 0: no product reaches it."""
        used = [e for p in (self.omega, *self.tangent_chern, *(c for _, cs in
                self.eigen_chern.values() for c in cs)) for e, (n, _) in p.items() if n]
        degrees = tuple(d if any(e[i] for e in used) else 0 for i, d in enumerate(self.degrees))
        return _basis(degrees, 2 * self.d_c)

    def dense(self, poly):
        """poly as (numerators, denominator) on the basis, without the terms
        off it."""
        den = lcm(*(d for _, d in poly.values()))
        nums = [0] * len(self.basis.degree)
        for expo, (n, d) in poly.items():
            k = self.basis.index.get(expo)
            if k is not None:
                nums[k] += n * (den // d)
        return nums, den

    @cached_property
    def pairing_factors(self):
        """([(p, pairs), ...], denominator): per pairing monomial on the
        basis, zero values included, its value p over the denominator and
        the index pairs whose product it is (_Basis.factor_pairs)."""
        index, pairs = self.basis.index, self.basis.factor_pairs
        den = lcm(*(d for _, d in self.pairing.values()))
        return [(n * (den // d), pairs[index[expo]])
                for expo, (n, d) in self.pairing.items() if expo in index], den

    @cached_property
    def forms(self):
        """omega^t for t = 0..d_c, as (numerators, denominator) on the
        basis."""
        (omega, wd), basis = self.dense(self.omega), self.basis
        out = [([1] + [0] * (len(omega) - 1), 1)]
        for _ in range(self.d_c):
            f, fd = out[-1]
            out.append((_mul(basis, f, omega, [0] * len(omega)), fd * wd))
        return out

    @cached_property
    def tangent_power_sums(self):
        """The power sums p_1..p_{d_c} of T_c's Chern roots, built once and
        shared by the normal bundle and the Todd class."""
        return _power_sums(self.basis, list(map(self.dense, self.tangent_chern)), self.d_c)

    def pair(self, x, form):
        """<form x> for x in Q(zeta_m), as (numerator per row, denominator);
        None when no pairing monomial has a nonzero coefficient in form x.
        That coefficient, per row, is the sum of form[i] row[j] over the
        index pairs (i, j) of the monomial; no other product is formed."""
        (rows, den), (f, fd), (pairing, pd) = x, form, self.pairing_factors
        tops = [[sum([f[i] * row[j] for i, j in pairs]) for _, pairs in pairing] for row in rows]
        if not any(map(any, tops)):
            return None
        return [sum([p * v for (p, _), v in zip(pairing, top)]) for top in tops], den * fd * pd


# ---------------------------------------------------------------------------
# characteristic classes on power sums of Chern roots
# ---------------------------------------------------------------------------


def _power_sums(basis, classes, top_n):
    """[None, p_1, ..., p_top_n] for a bundle with Chern classes c_i =
    C_i / D, each p_n as (P_n, D^n), by Newton's identities p_n = sum_{0<i<n}
    (-1)^(i-1) c_i p_(n-i) + (-1)^(n-1) n c_n: P_n = n E_n + sum_{0<i<n}
    E_i P_(n-i) with E_i = (-1)^(i-1) D^(i-1) C_i."""
    size, den = len(basis.degree), lcm(*(d for _, d in classes))
    es = [[(-1) ** (i - 1) * den ** i // d * x for x in v] for i, (v, d) in enumerate(classes, 1)]
    p = [None]
    for n in range(1, top_n + 1):
        acc = [n * x for x in es[n - 1]] if n <= len(es) else [0] * size
        for i in range(1, min(n, len(es) + 1)):
            _mul(basis, es[i - 1], p[n - i], acc)
        p.append(acc)
    return [None] + [(v, den**n) for n, v in enumerate(p[1:], 1)]


@lru_cache(maxsize=None)
def _todd_log_coefficients(top_n):
    """f_1, ..., f_top_n with log(x/(1-e^{-x})) = sum_{n>=1} f_n x^n, so that
    Td(V) = exp(sum f_n p_n(V)), each as (numerator, denominator).  The log
    has derivative 1/x - 1/(e^x - 1) = -sum_{n>=1} B_n x^{n-1}/n!, so
    f_n = -B_n/(n n!) with B_1 = -1/2; the B_n are b_n / (top_n + 1)!, over
    a common denominator of all of them."""
    b, out = [factorial(top_n + 1)], []
    for n in range(1, top_n + 1):
        b.append(-sum(comb(n + 1, j) * x for j, x in enumerate(b)) // (n + 1))
        d = b[0] * n * factorial(n)
        out.append((-b[n] // gcd(b[n], d), d // gcd(b[n], d)))
    return tuple(out)


# ---------------------------------------------------------------------------
# contributions
# ---------------------------------------------------------------------------


class ContributionPolynomial(Value):
    """One stratum's polynomial P_c(k) with its phase tag."""

    __slots__ = _fields = ("coefficients", "q")
    _key = attrgetter(*_fields)
    __hash__ = None  # mutable

    def __init__(self, coefficients, q):
        self.coefficients = coefficients  # list of Cyclotomic, k^0 .. k^degree
        self.q = q                        # PhaseQ, or a string tag for a symbolic phase

    def is_symbolic(self):
        return not isinstance(self.q, PhaseQ)

    def to_json(self):
        return {
            "q": self.q.to_json() if isinstance(self.q, PhaseQ) else str(self.q),
            "coefficients": [c.to_json() for c in self.coefficients],
        }


# The values that strata share are module-level caches keyed by the plain
# values they depend on.  The point route (_point_product, the norm identity
# over each Galois orbit of exponents) and the oracle route (_product of the
# closed-form inverses of inverse_one_minus_zeta) share no cache and no
# inverse, so the CLI's comparison of the two stays a comparison of
# independent computations.


def _product(ranks, factor):
    """prod_{i>=1} factor(m, i, r_i) over m = len(ranks) and r_i != 0."""
    m, out = len(ranks), None
    for i in range(1, m):
        if ranks[i]:
            f = factor(m, i, ranks[i])
            out = f if out is None else out * f
    return Cyclotomic.from_rational(1, m) if out is None else out


@lru_cache(maxsize=None)
def _galois_orbits(m):
    """(Phi_d(1), the exponents j of order d) for each d > 1 dividing m:
    1 - zeta_m^j over those j are the conjugates of 1 - zeta_d, and their
    product, its norm, is Phi_d(1), which is p for d a power of the prime p
    and 1 otherwise."""
    out = []
    for g in range(1, m):
        if m % g == 0:
            primes = _prime_factors(m // g)
            out.append((primes[0] if len(primes) == 1 else 1,
                        tuple(j for j in range(1, m) if gcd(j, m) == g)))
    return tuple(out)


@lru_cache(maxsize=None)
def _point_product(ranks):
    """prod_{i>=1} (1 - zeta_m^i)^{-r_i}, m = len(ranks), on the point route,
    with no inverse and no dense product.  Over the exponents of one order
    d (_galois_orbits) the factors 1 - zeta^j multiply to Phi_d(1), so with
    P the largest r_j among them their part is Phi_d(1)^{-P} prod_j
    (1 - zeta^j)^{P - r_j}: every exponent is >= 0 and the smallest is 0.
    The binomials multiply as one integer vector mod x^m - 1, each factor
    1 - x^j one rotate-and-subtract pass, and the vector is reduced mod
    Phi_m once."""
    m = len(ranks)
    num = den = 1
    vec = [1] + [0] * (m - 1)
    for norm, orbit in _galois_orbits(m):
        top = max([ranks[j] for j in orbit])
        if top > 0:
            den *= norm**top
        else:
            num *= norm**-top
        for j in orbit:
            for _ in range(top - ranks[j]):
                vec = list(map(sub, vec, vec[-j:] + vec[:-j]))
    return Cyclotomic(m, vec).scaled(num, den)


@lru_cache(maxsize=None)
def _oracle_inverses(m):
    """(None,) + ((1 - zeta_m^i)^{-1} for i = 1..m-1), from the closed form
    of inverse_one_minus_zeta."""
    return (None,) + tuple(inverse_one_minus_zeta(m, i) for i in range(1, m))


@lru_cache(maxsize=None)
def _oracle_factor(m, i, r):
    """(1 - zeta_m^i)^{-r} from _oracle_inverses; a negative r is a positive
    power of 1 - zeta^i and needs no inverse."""
    return _oracle_inverses(m)[i] ** r if r > 0 else (1 - Cyclotomic.zeta(m, i)) ** -r


@lru_cache(maxsize=None)
def _prefactor(ranks):
    """The product of _point_product on the oracle route."""
    return _product(ranks, _oracle_factor)


@lru_cache(maxsize=None)
def _surjections(n, t):
    """t! S(n, t), the number of maps of n elements onto t:
    sum_{u=1}^{t} (-1)^(t-u) C(t, u) u^n."""
    return sum((-1) ** (t - u) * comb(t, u) * u**n for u in range(1, t + 1))


def _weight(m, j, t):
    """beta_j^t / t with beta_j = zeta^j / (1 - zeta^j) = (1 - zeta^j)^{-1} - 1."""
    return ((_oracle_inverses(m)[j] - 1) ** t).scaled(1, t)


@lru_cache(maxsize=None)
def _w2(m, n):
    """w2[nu][j] = twice mu_m(n)(-nu) - mu_m(n)(j - nu) at a fixed point with
    rotation number n."""
    mu2 = mu2_table(m, n)
    return tuple(tuple(mu2[-nu] - mu2[j - nu] for j in range(m)) for nu in range(m))


@lru_cache(maxsize=None)
def _eigen_ranks(m, n, rank, residues, denominator):
    """The canonical ranks of E^nu, nu = 0..m-1, at a fixed point with
    rotation number n and the SU(N) class of angles residues / denominator
    (the root count r^nu, plus rank G at nu = 0), and their sums
    sum_nu w2[nu][j] rank(E^nu) per j.  Keyed by ints, so that a lookup
    hashes no class."""
    ranks = root_eigendata(ConjClassSU(len(residues), residues, denominator), m)
    ranks[0] += rank
    w2 = _w2(m, n)
    return tuple(ranks), tuple(sum(w2[nu][j] * ranks[nu] for nu in range(m)) for j in range(m))


@lru_cache(maxsize=None)
def _exponent_scalar(m, n, nu, t):
    """sum_{j=1}^{m-1} w_j beta_j^t / t for the weights w_j with which a
    bundle enters N_j: 1 for T_c^dual (n None) and -w2[nu][j]/(2m) for
    E^nu at a fixed point with rotation number n, summed as -2m w_j over
    2m."""
    w = [-2 * m] * m if n is None else _w2(m, n)[nu]
    acc = sum((_weight(m, j, t) * -w[j] for j in range(1, m) if w[j]),
              Cyclotomic.from_rational(0, m))
    return acc.scaled(1, 2 * m)


def point_contribution(ranks, z_delta_order):
    """(1/|Z_delta|) prod_{i=1}^{m-1} (1 - zeta_m^i)^{-r_i} for a
    zero-dimensional stratum.

    The product comes from the norm identity prod_{u in (Z/d)^x}
    (1 - zeta_d^u) = Phi_d(1) (_point_product): a rational times
    nonnegative powers of binomials 1 - zeta^j, with no inverse.  The
    oracle route (smooth_contribution with a trivial oracle) takes
    (1 - zeta^j)^{-1} from the closed form of inverse_one_minus_zeta
    instead, so the CLI's certificate that the two agree compares
    independent computations."""
    if ranks[0] != 0:
        raise NotZeroDimensional(
            f"stratum has r_0 = {ranks[0]}; the closed form needs r_0 = 0"
        )
    return _point_product(tuple(ranks)).scaled(1, z_delta_order)


def lambda_inverse_expansion(data, stratum, group, oracle):
    """The lambda_{-1}-inverse of the normal bundle as (prefactor, exponent
    terms): the prefactor prod (1 - zeta^i)^{-r_i} on the oracle route, and
    its exponent E as _combination terms (rows of a Q(zeta_m) scalar, a
    rational vector, a denominator), none when d_c = 0.  E is linear in
    N_j = T_c^dual - sum w2/(2m) E^nu, E^nu trivial of its canonical rank
    unless overridden, so T_c^dual and each overridden E[s][nu] enter once
    per t with _exponent_scalar.  The ranks are certified as 2m r_j."""
    m, d_c, basis = data.m, oracle.d_c, oracle.basis
    if oracle.tangent_rank != stratum.d_c:
        raise InvariantViolation(
            f"oracle tangent rank {oracle.tangent_rank} differs from stratum "
            f"dimension {stratum.d_c}"
        )
    rotations = [n for _, n in data.branches]
    eigen = [_eigen_ranks(m, n, group.rank, c.residues, c.denominator)
             for n, c in zip(rotations, stratum.c_delta)]
    ranks = [r for r, _ in eigen]
    sums = [sum(col) for col in zip(*(s for _, s in eigen))] or [0] * m
    for j in range(1, m):
        rank2m = 2 * m * oracle.tangent_rank - sums[j]
        if rank2m != 2 * m * stratum.ranks[j]:
            raise InvariantViolation(
                f"normal bundle eigen-rank {Fraction(rank2m, 2 * m)} for j = {j} "
                f"differs from stratum rank r_{j} = {stratum.ranks[j]}"
            )
    # p_n(T_c^dual) = (-1)^n p_n(T_c); a bundle is (power sums, sign, n, nu)
    bundles = [(oracle.tangent_power_sums, -1, None, None)]
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
        if any(_w2(m, rotations[s])[nu][1:]):
            p = _power_sums(basis, list(map(oracle.dense, classes)), d_c)
            bundles.append((p, 1, rotations[s], nu))
    terms = []
    for p, sign, n, nu in bundles:
        den = lcm(*(d for _, d in p[1:])) * factorial(d_c)
        for t in range(1, d_c + 1):
            # sum_i (e^{y_i} - 1)^t = sum_{n >= t} t! S(n, t) p_n / n!
            q = [0] * len(basis.degree)
            for k in range(t, d_c + 1):
                c = sign**k * _surjections(k, t) * (den // (p[k][1] * factorial(k)))
                q = [a + c * x for a, x in zip(q, p[k][0])]
            # this starts in degree 2t; drop what a non-homogeneous user
            # class puts below
            q[: basis.start[2 * t]] = [0] * basis.start[2 * t]
            if any(q):
                scalar = _exponent_scalar(m, n, nu, t).embed(m)
                terms.append((scalar.numerators, q, den * scalar.denominator))
    return _prefactor(tuple(stratum.ranks)), terms


def smooth_contribution(data, stratum, group, oracle, cs_phase=None):
    """P_c(k): the full polynomial contribution of one stratum over its
    oracle.  coefficient of k^t is

        (1/|Z_delta|) * (m^t/t!) * < omega^t  lambda^{-1}  Td(T_c) >

    with the lambda-inverse prefactor included, from exp(k m omega).  The
    prefactor and m^t/(t! |Z_delta|) multiply the pairings of one exponential
    exp(E + log Td(T_c)), E the exponent of lambda^{-1}; at d_c = 0 neither
    has a term, the exponential is 1 and the prefactor is paired alone."""
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
    m, d_c, basis = data.m, stratum.d_c, oracle.basis
    pref, terms = lambda_inverse_expansion(data, stratum, group, oracle)
    todd = zip(oracle.tangent_power_sums[1:], _todd_log_coefficients(d_c))
    x = _exp(basis, terms + [((a,), v, d * b) for (v, d), (a, b) in todd], m)
    coeffs = []
    for t, form in enumerate(oracle.forms):
        paired = oracle.pair(x, form)
        if paired is None:
            coeffs.append(Cyclotomic.from_rational(0))
            continue
        nums, den = [a * m**t for a in paired[0]], paired[1] * factorial(t) * stratum.z_delta_order
        # a rational pairing (every T_c-only oracle) scales the prefactor
        coeffs.append(pref.scaled(nums[0], den) if not any(nums[1:])
                      else pref * Cyclotomic(m, nums, den))
    while len(coeffs) > 1 and coeffs[-1].is_zero():
        coeffs.pop()
    q = cs_phase if cs_phase is not None else "q?"
    return ContributionPolynomial(coefficients=coeffs, q=q)
