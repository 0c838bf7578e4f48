"""Framing correction phase for the quantum invariant of a mapping torus.

With the canonical 2-framing the determinant-line factor is a pure phase
exp(2 pi i B k/(k+h)) where h is the dual Coxeter number and B is a rational
built from the eigenvalue spectrum of f on holomorphic differentials.  The
central charge is taken as zeta = k * dim G / (k + h); the dim G constant is
isolated below so a different normalization is a one-line change.
"""

from __future__ import annotations

from fractions import Fraction
from operator import attrgetter

from .errors import ValidationError
from .exact import PhaseQ, PhaseSeries
from .value import Value

__all__ = [
    "GroupData",
    "FramingPhase",
    "MAX_SERIES_ORDER",
    "check_level",
    "framing_phase",
    "framing_evaluate",
    "framing_series",
]


class GroupData(Value):
    """The group SU(N)."""

    __slots__ = _fields = ("N",)
    _key = attrgetter(*_fields)

    def __init__(self, N):
        if N < 1:
            raise ValueError("N must be positive")
        self.N = N

    @property
    def dim_G(self):
        return self.N * self.N - 1

    @property
    def dual_coxeter(self):
        return self.N

    @property
    def rank(self):
        return self.N - 1

    def label(self):
        return f"SU({self.N})"

    @classmethod
    def parse(cls, label):
        s = label.strip().upper().replace(" ", "")
        if s.startswith("SU(") and s.endswith(")"):
            digits = s[3:-1]
        else:
            digits = s[2:] if s.startswith("SU") else ""
        try:
            n = int(digits)
        except ValueError:
            raise ValueError(f"unrecognized group label {label!r}; expected SU(N)") from None
        return cls(n)


class FramingPhase(Value):
    __slots__ = _fields = ("B", "group")
    _key = attrgetter(*_fields)

    def __init__(self, B, group):
        self.B = B  # Fraction
        self.group = group  # GroupData

    def to_json(self):
        return {
            "B": f"{self.B.numerator}/{self.B.denominator}",
            "group": self.group.label(),
        }


def framing_phase(spec, group):
    """B = -(dim G / 2) * sum over eigenvalues away from +-1 of d_a * ahat/m,
    with ahat the signed residue of a in (-m/2, m/2); the +-1 eigenvalues
    (a = 0 and, for even m, a = m/2) carry no phase with the branch of the
    logarithm in (-pi, pi).  The sum of d_a * ahat is an integer, so B is
    one fraction over 2m."""
    m = spec.m
    total = sum(spec.d[a] * (a if 2 * a < m else a - m) for a in range(1, m) if 2 * a != m)
    return FramingPhase(B=Fraction(-group.dim_G * total, 2 * m), group=group)


def check_level(k, source):
    """A ValidationError naming the source of the value unless the level k
    is a positive integer."""
    if k < 1:
        raise ValidationError(f"{source} = {k} is not a positive integer")


def framing_evaluate(p, k):
    """The exact phase exponent B k/(k+h) at level k, as an element of Q/Z."""
    check_level(k, "level k")
    h = p.group.dual_coxeter
    return PhaseQ(p.B * Fraction(k, k + h))


# Highest order framing_series is asked for on the command line (framing
# --truncation).  Order n writes n + 1 polynomials of up to n + 1
# coefficients, and the digits of (B h)^n / n! grow like n log n, so output
# and time grow faster than n^2: order 200 takes about 0.1 s and writes about
# 0.3 MB, order 1000 takes seconds and 8 MB, and order 2000 passes Python's
# limit on the digits of an int converted to a string.
MAX_SERIES_ORDER = 200


def framing_series(p, order):
    """Truncated series for exp(2 pi i B k/(k+h)) in powers of 1/(k+h)."""
    return PhaseSeries.from_exponent(p.B, p.group.dual_coxeter, order)
