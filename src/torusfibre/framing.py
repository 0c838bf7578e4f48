"""Framing correction phase for the quantum invariant of a mapping torus.

With the canonical 2-framing the determinant-line factor is a pure phase
exp(2 pi i B k/(k+h)) where h is the dual Coxeter number and B is a rational
built from the eigenvalue spectrum of f on holomorphic differentials.  The
central charge is taken as zeta = k * dim G / (k + h); the dim G constant is
isolated below so a different normalization is a one-line change.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import PhaseQ, PhaseSeries

__all__ = ["GroupData", "FramingPhase", "framing_phase", "framing_evaluate", "framing_series"]


@dataclass(frozen=True)
class GroupData:
    """The group SU(N)."""

    N: int

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("N must be positive")

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
    def parse(cls, s):
        s = s.strip().upper().replace(" ", "")
        if s.startswith("SU(") and s.endswith(")"):
            return cls(int(s[3:-1]))
        if s.startswith("SU"):
            return cls(int(s[2:]))
        raise ValueError(f"unrecognized group label {s!r}; expected SU(N)")


@dataclass(frozen=True)
class FramingPhase:
    B: Fraction
    group: GroupData

    def to_json(self):
        return {
            "B": f"{self.B.numerator}/{self.B.denominator}",
            "group": self.group.label(),
        }


def framing_phase(spec, group):
    """B = -(dim G / 2) * sum over eigenvalues away from +-1 of d_a * ahat/m,
    with ahat the signed residue of a in (-m/2, m/2); the +-1 eigenvalues
    (a = 0 and, for even m, a = m/2) carry no phase with the branch of the
    logarithm in (-pi, pi)."""
    m = spec.m
    acc = Fraction(0)
    for a in range(m):
        if a == 0 or 2 * a == m:
            continue
        ahat = a if 2 * a < m else a - m
        acc += spec.d[a] * Fraction(ahat, m)
    B = -Fraction(group.dim_G, 2) * acc
    return FramingPhase(B=B, group=group)


def framing_evaluate(p, k):
    """The exact phase exponent B k/(k+h) at level k, as an element of Q/Z."""
    if k < 1:
        raise ValueError("level k must be a positive integer")
    h = p.group.dual_coxeter
    return PhaseQ(p.B * Fraction(k, k + h))


def framing_series(p, order):
    """Truncated series for exp(2 pi i B k/(k+h)) in powers of 1/(k+h)."""
    return PhaseSeries.from_exponent(p.B, p.group.dual_coxeter, order)
