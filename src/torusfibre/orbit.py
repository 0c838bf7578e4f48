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

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import (
    InvalidBranch,
    NonIntegralGenus,
    GenusTooSmall,
    NonIntegralB,
    ValidationError,
)

__all__ = ["OrbitData", "SeifertData", "validate_orbit", "total_genus", "seifert_invariants"]


@dataclass(frozen=True)
class OrbitData:
    m: int
    quotient_genus: int
    branches: tuple  # of (l, n) pairs

    def __post_init__(self):
        object.__setattr__(self, "branches", tuple((int(l), int(n)) for l, n in self.branches))

    def orbit_sizes(self):
        return [self.m // l for l, _ in self.branches]

    @classmethod
    def from_json(cls, obj):
        """Parse {"m", "quotient_genus", "branches": [{"l", "n"}, ...]};
        a wrong shape is a ValidationError."""
        try:
            return cls(
                int(obj["m"]),
                int(obj["quotient_genus"]),
                [(br["l"], br["n"]) for br in obj.get("branches", [])],
            )
        except KeyError as exc:
            raise ValidationError(f"orbit data has no field {exc}") from None
        except TypeError as exc:
            raise ValidationError(f"orbit data has the wrong shape: {exc}") from None

    def to_json(self):
        return {
            "m": self.m,
            "quotient_genus": self.quotient_genus,
            "branches": [{"l": l, "n": n} for l, n in self.branches],
        }


@dataclass(frozen=True)
class SeifertData:
    b: int
    base_genus: int
    pairs: tuple  # of (alpha, beta), 0 < beta < alpha, coprime

    def euler_number(self):
        return -(self.b + sum(Fraction(beta, alpha) for alpha, beta in self.pairs))

    def to_json(self):
        e = self.euler_number()
        return {
            "b": self.b,
            "genus": self.base_genus,
            "pairs": [[a, b] for a, b in self.pairs],
            "euler": str(e.numerator) if e.denominator == 1 else f"{e.numerator}/{e.denominator}",
        }


def _inverse_mod(n, l):
    return pow(n % l, -1, l)


def validate_orbit(data, raise_on_failure=True):
    """Run all realizability checks; returns a report dict.

    Checks: (a) each l_i >= 2 divides m, (b) gcd(n_i, l_i) = 1 with
    0 < n_i < l_i, (c) the total genus is an integer >= 2, (d) the branch
    data is realizable: sum_i (m/l_i) * k_i = 0 mod m with k_i the inverse
    of n_i mod l_i (equivalently, the obstruction term b is integral).
    """
    report = {"m": data.m, "checks": {}, "valid": True}

    def fail(check, index, message):
        report["checks"][check] = {"pass": False, "index": index, "message": message}
        report["valid"] = False
        if raise_on_failure:
            raise InvalidBranch(check, index, message)

    if data.m < 2:
        fail("order", None, f"order m = {data.m} must be at least 2")
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

    branching = sum((data.m // l) * (l - 1) for l, _ in data.branches)
    chi_twice = data.m * (2 - 2 * data.quotient_genus) - branching
    if chi_twice % 2 != 0:
        fail("genus", None, f"Riemann-Hurwitz count 2-2g = {chi_twice} is odd")
        return report
    g = (2 - chi_twice) // 2
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


def total_genus(data):
    """Genus of the total surface from the branched-cover Euler counts."""
    branching = sum((data.m // l) * (l - 1) for l, _ in data.branches)
    chi_twice = data.m * (2 - 2 * data.quotient_genus) - branching
    if chi_twice % 2 != 0:
        raise NonIntegralGenus(f"2 - 2g = {chi_twice} is odd; branch data inconsistent")
    g = (2 - chi_twice) // 2
    if g < 2:
        raise GenusTooSmall(f"total genus g = {g}; need g >= 2")
    return g


def seifert_invariants(data):
    """Seifert invariants (b, base genus, (alpha_i, beta_i)) of the mapping
    torus, with beta_i = k_i the inverse rotation number.  The Euler number
    e = -(b + sum beta/alpha) vanishes exactly, which forces
    b = -sum k_i / l_i and is what makes check (d) above a realizability
    condition."""
    validate_orbit(data)
    pairs = []
    acc = Fraction(0)
    for l, n in data.branches:
        k = _inverse_mod(n, l)
        pairs.append((l, k))
        acc += Fraction(k, l)
    if acc.denominator != 1:
        raise NonIntegralB(f"obstruction term b = {-acc} is not an integer")
    return SeifertData(b=-int(acc), base_genus=data.quotient_genus, pairs=tuple(pairs))
