"""Branch data of a finite order surface diffeomorphism and the Seifert
invariants of its mapping torus.

An order-m diffeomorphism f of a closed surface of genus g presents the
surface as an m-fold branched cover of the quotient, with one (l_i, n_i)
pair per exceptional orbit: l_i is the isotropy order (so the orbit has
m_i = m/l_i points) and n_i the local rotation number.  The mapping torus
is then a Seifert fibred space over the quotient orbifold with vanishing
Euler number.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import attrgetter

from .errors import (
    InvalidBranch,
    NonIntegralGenus,
    GenusTooSmall,
    ValidationError,
)
from .exact import format_rational
from .value import Value

__all__ = ["OrbitData", "SeifertData", "validate_orbit", "total_genus", "seifert_invariants"]

# Largest order m handled.  The spectrum adds m - 1 terms per distinct (l, n)
# branch type, within spectrum.MAX_BRANCH_TERMS: m = 2**16 fixed points of
# one type take 0.3 s and write 0.7 MB (Python 3.11, shared 2-vCPU VM).  The
# tables of length m alone would take days at m = 10**12.
MAX_ORDER = 2**16


class OrbitData(Value):
    __slots__ = _fields = ("m", "quotient_genus", "branches")
    _key = attrgetter(*_fields)

    def __init__(self, m, quotient_genus, branches):
        self.m = m
        self.quotient_genus = quotient_genus
        self.branches = tuple((int(l), int(n)) for l, n in branches)  # of (l, n) pairs

    def orbit_sizes(self):
        return [self.m // l for l, _ in self.branches]

    @classmethod
    def from_json(cls, obj):
        """Parse {"m", "quotient_genus", "branches": [{"l", "n"}, ...]}, each
        number a JSON integer; a wrong shape is a ValidationError."""
        try:
            return cls(
                _integer(obj["m"], "m"),
                _integer(obj["quotient_genus"], "quotient_genus"),
                [
                    (_integer(br["l"], f"branches[{i}].l"), _integer(br["n"], f"branches[{i}].n"))
                    for i, br in enumerate(obj.get("branches", []))
                ],
            )
        except KeyError as exc:
            raise ValidationError(f"orbit data has no field {exc}") from None
        except TypeError as exc:
            raise ValidationError(f"orbit data has the wrong shape: {exc}") from None


def _integer(value, field):
    """value, a JSON integer (not a bool, float or string); a
    ValidationError naming field otherwise."""
    if type(value) is not int:
        raise ValidationError(f"orbit field {field} is {value!r}, not an integer")
    return value


class SeifertData(Value):
    __slots__ = _fields = ("b", "base_genus", "pairs")
    _key = attrgetter(*_fields)

    def __init__(self, b, base_genus, pairs):
        self.b = b
        self.base_genus = base_genus
        self.pairs = pairs  # tuple of (alpha, beta), 0 < beta < alpha, coprime

    def euler_number(self):
        return -(self.b + sum(Fraction(beta, alpha) for alpha, beta in self.pairs))

    def to_json(self):
        return {
            "b": self.b,
            "genus": self.base_genus,
            "pairs": [[a, b] for a, b in self.pairs],
            "euler": format_rational(self.euler_number()),
        }


def _inverse_mod(n, l):
    return pow(n % l, -1, l)


def validate_orbit(data, raise_on_failure=True):
    """Run all realizability checks; returns a report dict.

    Checks: 2 <= m <= MAX_ORDER, (a) each l_i >= 2 divides m, (b)
    gcd(n_i, l_i) = 1 with 0 < n_i < l_i, (c) the total genus is an integer
    >= 2, (d) the branch data is realizable: sum_i (m/l_i) * k_i = 0 mod m
    with k_i the inverse of n_i mod l_i (equivalently, b is integral).
    """
    report = {"m": data.m, "checks": {}, "valid": True}

    def fail(check, index, message):
        report["checks"][check] = {"pass": False, "index": index, "message": message}
        report["valid"] = False
        if raise_on_failure:
            raise InvalidBranch(check, index, message)

    if not 2 <= data.m <= MAX_ORDER:
        fail("order", None, f"order m = {data.m} must be at least 2 and at most {MAX_ORDER}")
        return report
    if data.quotient_genus < 0:
        fail("quotient_genus", None, "quotient genus must be non-negative")
        return report

    for i, (l, n) in enumerate(data.branches):
        if l < 2 or data.m % l != 0:
            fail("divisibility", i, f"l = {l} does not divide m = {data.m} (or l < 2)")
            return report
    report["checks"]["divisibility"] = {"pass": True}

    for i, (l, n) in enumerate(data.branches):
        if not (0 < n < l) or gcd(n, l) != 1:
            fail("rotation_coprime", i, f"n = {n} is not a unit in (0, {l})")
            return report
    report["checks"]["rotation_coprime"] = {"pass": True}

    chi_twice, g = _genus(data)
    if g is None:
        fail("genus", None, f"Riemann-Hurwitz count 2-2g = {chi_twice} is odd")
        return report
    if g < 2:
        fail("genus", None, f"total genus g = {g} is below 2")
        return report
    report["checks"]["genus"] = {"pass": True}
    report["genus"] = g

    total = sum((data.m // l) * _inverse_mod(n, l) for l, n in data.branches)
    if total % data.m != 0:
        fail(
            "realizability",
            None,
            f"orbit-weighted rotation inverses sum to {total}, not 0 mod {data.m}",
        )
        return report
    report["checks"]["realizability"] = {"pass": True}

    # Over a genus-0 quotient the local rotations are the only generators of
    # the deck group, so they must generate all of Z_m: lcm of the isotropy
    # orders equal to m.  (A positive-genus quotient has handle generators to
    # make up any missing order.)  Without this the trace bookkeeping below
    # has no actual action behind it.
    if data.quotient_genus == 0:
        acc = 1
        for l, _ in data.branches:
            acc = acc * l // gcd(acc, l)
        if acc != data.m:
            fail(
                "covering_group",
                None,
                f"isotropy orders generate a subgroup of order {acc} < {data.m}",
            )
            return report
    report["checks"]["covering_group"] = {"pass": True}
    return report


def _genus(data):
    """(2 - 2g, g) for the total surface by Riemann-Hurwitz, 2 - 2g =
    m (2 - 2 g_quotient) - sum_i (m / l_i)(l_i - 1); g is None when 2 - 2g
    is odd."""
    chi_twice = data.m * (2 - 2 * data.quotient_genus) - sum(
        (data.m // l) * (l - 1) for l, _ in data.branches
    )
    return chi_twice, None if chi_twice % 2 else (2 - chi_twice) // 2


def total_genus(data):
    """Genus of the total surface from the branched-cover Euler counts."""
    chi_twice, g = _genus(data)
    if g is None:
        raise NonIntegralGenus(f"2 - 2g = {chi_twice} is odd; branch data inconsistent")
    if g < 2:
        raise GenusTooSmall(f"total genus g = {g}; need g >= 2")
    return g


def seifert_invariants(data):
    """Seifert invariants (b, base genus, (alpha_i, beta_i)) of the mapping
    torus, with beta_i = k_i the inverse rotation number.  The Euler number
    e = -(b + sum beta/alpha) vanishes exactly, which forces
    b = -sum k_i / l_i = -(sum_i (m/l_i) k_i) / m.  That integer sum is the
    one of check (d) of validate_orbit, run first, which refuses it unless
    m divides it: the division is exact."""
    validate_orbit(data)
    m = data.m
    pairs = tuple((l, _inverse_mod(n, l)) for l, n in data.branches)
    b = -sum(m // l * k for l, k in pairs) // m
    return SeifertData(b=b, base_genus=data.quotient_genus, pairs=pairs)
