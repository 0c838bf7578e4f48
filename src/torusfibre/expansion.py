"""Assembly of the invariant from stratum contributions, exact evaluation at
integer levels, and recovery of the expansion data (phases, growth orders,
leading coefficients) from sampled values.

The recovery problem is the classical one for finite exponential-polynomial
sums: phases are searched over reduced fractions with bounded denominator
(they enter only through e^{2 pi i k q}), growth orders over a half-integer
grid.  Phases are located with a windowed matched filter; every linear fit
on the chosen phases is one column-scaled float64 least-squares solve.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

import mpmath
import numpy as np

from .errors import (
    IllConditioned,
    ResidualTooLarge,
    SymbolicPhaseInNumericContext,
)
from .exact import Cyclotomic, PhaseQ, format_rational
from .framing import framing_evaluate
from .localization import ContributionPolynomial

__all__ = [
    "InvariantModel",
    "FitResult",
    "assemble_invariant",
    "evaluate_invariant",
    "fit_expansion",
    "default_precision",
]


def default_precision():
    return int(os.environ.get("TORUSFIBRE_PRECISION", "128"))


@dataclass
class InvariantModel:
    framing: object            # FramingPhase
    terms: list                # of ContributionPolynomial, phases merged

    def to_json(self):
        return {
            "framing": self.framing.to_json(),
            "terms": [t.to_json() for t in self.terms],
        }


def _merge_key(q):
    if isinstance(q, PhaseQ):
        return (0, q.q)
    return (1, str(q))


def assemble_invariant(data, group, contributions, framing):
    """Collect stratum contributions into one model, adding polynomials that
    share a phase.  Symbolic phases merge only on equal tags."""
    buckets = {}
    for contrib in contributions:
        key = _merge_key(contrib.q)
        if key not in buckets:
            buckets[key] = ContributionPolynomial(
                coefficients=list(contrib.coefficients), q=contrib.q
            )
            continue
        cur = buckets[key]
        a, b = cur.coefficients, contrib.coefficients
        if len(b) > len(a):
            a, b = b, a
        merged = list(a)
        for i, c in enumerate(b):
            merged[i] = merged[i] + c
        while len(merged) > 1 and merged[-1].is_zero():
            merged.pop()
        buckets[key] = ContributionPolynomial(coefficients=merged, q=cur.q)
    terms = [buckets[k] for k in sorted(buckets)]
    return InvariantModel(framing=framing, terms=terms)


def evaluate_invariant(model, k, precision=None):
    """Value at level k: the exact element of Q(zeta) together with a high
    precision complex rendering.  Needs every phase resolved."""
    if any(t.is_symbolic() for t in model.terms):
        tags = [str(t.q) for t in model.terms if t.is_symbolic()]
        raise SymbolicPhaseInNumericContext(
            f"cannot evaluate with unresolved phase symbols {tags}"
        )
    if k < 1:
        raise ValueError("level k must be a positive integer")
    fr = framing_evaluate(model.framing, k)
    conductor = fr.q.denominator
    for t in model.terms:
        phase_k = PhaseQ(t.q.q * k)
        conductor = lcm(conductor, phase_k.q.denominator)
        for c in t.coefficients:
            conductor = lcm(conductor, c.conductor)
    acc = Cyclotomic.from_rational(0, conductor)
    for t in model.terms:
        poly = Cyclotomic.from_rational(0, conductor)
        kp = 1
        for c in t.coefficients:
            poly = poly + c.embed(conductor) * kp
            kp *= k
        acc = acc + PhaseQ(t.q.q * k).to_cyclotomic(conductor) * poly
    exact = fr.to_cyclotomic(conductor) * acc
    ctx = mpmath.mp.clone()
    ctx.prec = precision or default_precision()
    return exact, exact.to_mpc(ctx)


@dataclass
class FitResult:
    terms: list        # of dicts: q (Fraction), d (Fraction), b (complex), a (list)
    residual: float

    def to_json(self):
        out = []
        for t in self.terms:
            out.append(
                {
                    "q": format_rational(t["q"]),
                    "d": format_rational(t["d"]),
                    "b": [float(t["b"].real), float(t["b"].imag)],
                    "a": [[float(c.real), float(c.imag)] for c in t["a"]],
                }
            )
        return {"terms": out, "residual": float(self.residual)}


def _phase_candidates(q_bound):
    out = [Fraction(0)]
    for den in range(2, q_bound + 1):
        for num in range(1, den):
            if gcd(num, den) == 1:
                out.append(Fraction(num, den))
    return sorted(out)


def _exponent_grid(degree_bound, half_steps):
    if half_steps:
        return [Fraction(degree_bound) - Fraction(l, 2) for l in range(2 * degree_bound + 1)]
    return [Fraction(e) for e in range(degree_bound, -1, -1)]


def _design_matrix(levels, ks, phases, exponents):
    """Columns e^{2 pi i q k} (k + shift)^e for integer levels k and the
    shifted variable ks.  q k is reduced mod 1 exactly before rounding, so
    the phase is accurate to one ulp at any level."""
    cols = []
    for q in phases:
        osc = np.exp(2j * np.pi * (q.numerator * levels % q.denominator) / q.denominator)
        for e in exponents:
            cols.append(osc * ks ** float(e))
    return np.stack(cols, axis=1)


def _lstsq(A, y):
    """Float64 least squares on A with its columns scaled to unit norm.
    Returns the coefficients for A, the residual vector and the condition
    number of the scaled matrix (inf for an exactly dependent column)."""
    scale = np.linalg.norm(A, axis=0)
    scale[scale == 0] = 1.0
    scaled = A / scale
    coef, _, _, sv = np.linalg.lstsq(scaled, y, rcond=None)
    cond = sv[0] / sv[-1] if sv[-1] > 0 else np.inf
    return coef / scale, y - scaled @ coef, cond


def fit_expansion(
    samples,
    q_denominator_bound,
    max_terms,
    degree_bound,
    half_integer_degrees=True,
    variable_shift=0,
    coefficient_tolerance=1e-7,
    residual_threshold=None,
    condition_threshold=None,
):
    """Recover (q_j, d_j, b_j) from values at consecutive integer levels.

    samples: list of (k, complex).  Phases are detected greedily with a
    triangular-window matched filter over all reduced fractions with
    denominator up to the bound, each pick followed by a joint linear fit
    on the phases chosen so far; small terms of the final fit are pruned.

    The condition number is that of the design matrix with unit-norm
    columns; above condition_threshold (default 2**32, which leaves at least
    six significant digits of float64 in the coefficients) the fit raises
    IllConditioned.
    """
    if max_terms < 1 or degree_bound < 0:
        raise ValueError("need at least one term and a non-negative degree bound")
    samples = sorted(samples)
    ks_int = [int(k) for k, _ in samples]
    need = 2 * max_terms * (degree_bound + 2)
    if len(samples) < need or ks_int != list(range(ks_int[0], ks_int[0] + len(ks_int))):
        raise ValueError(
            f"need at least {need} samples at consecutive integer levels"
        )
    levels = np.array(ks_int)
    ks = levels + float(variable_shift)
    y = np.array([complex(v) for _, v in samples])
    if not np.isfinite(y).all():
        raise ValueError("samples must be finite")
    yscale = float(np.max(np.abs(y))) or 1.0

    candidates = _phase_candidates(q_denominator_bound)
    cand_arr = np.array([float(q) for q in candidates])
    # triangular window suppresses leakage from the other phases
    window = 1.0 - np.abs(np.linspace(-1.0, 1.0, len(ks)))
    window /= window.sum()
    probe = np.exp(-2j * np.pi * np.outer(cand_arr, levels))
    exponents = _exponent_grid(degree_bound, half_integer_degrees)
    detect_weights = [ks ** -float(d) for d in range(degree_bound + 1)]

    def joint_fit(phase_list):
        return _lstsq(_design_matrix(levels, ks, phase_list, exponents), y)

    chosen = []
    resid = y.copy()
    for _ in range(max_terms):
        best = None
        for w in detect_weights:
            scores = np.abs(probe @ (resid * w * window))
            # mask phases already taken
            for q in chosen:
                scores[candidates.index(q)] = -1.0
            i = int(np.argmax(scores))
            if best is None or scores[i] > best[0]:
                best = (scores[i], candidates[i])
        chosen.append(best[1])
        coeffs, resid, cond = joint_fit(chosen)
        if np.max(np.abs(resid)) < 1e-12 * yscale:
            break
    # coordinate-descent refinement when the greedy pick did not converge
    if np.max(np.abs(resid)) > 1e-9 * yscale:
        for _round in range(2):
            improved = False
            for slot in range(len(chosen)):
                best_q, best_r = chosen[slot], float(np.linalg.norm(resid))
                for q in candidates:
                    if q in chosen:
                        continue
                    trial = chosen[:slot] + [q] + chosen[slot + 1:]
                    r = float(np.linalg.norm(joint_fit(trial)[1]))
                    if r < best_r * 0.999:
                        best_q, best_r = q, r
                if best_q != chosen[slot]:
                    chosen[slot] = best_q
                    coeffs, resid, cond = joint_fit(chosen)
                    improved = True
            if not improved:
                break

    if condition_threshold is None:
        condition_threshold = 2.0 ** 32
    if cond > condition_threshold:
        raise IllConditioned(
            f"condition number {cond:.3g} of the column-scaled design matrix "
            f"exceeds {condition_threshold:.3g}; start the samples nearer "
            f"k = 1 or lower the degree bound"
        )
    rel_resid = float(np.linalg.norm(resid)) / yscale
    if residual_threshold is not None and rel_resid > residual_threshold:
        raise ResidualTooLarge(
            f"relative residual {rel_resid:.3e} above {residual_threshold:.3e}"
        )

    tol = coefficient_tolerance * yscale
    terms = []
    for i, q in enumerate(chosen):
        block = coeffs[i * len(exponents):(i + 1) * len(exponents)]
        lead = None
        for j, e in enumerate(exponents):
            if abs(block[j]) > tol:
                lead = j
                break
        if lead is None:
            continue
        b = complex(block[lead])
        lower = [complex(c) / b for c in block[lead + 1:]]
        while lower and abs(lower[-1]) * abs(b) < tol:
            lower.pop()
        terms.append({"q": q, "d": exponents[lead], "b": b, "a": lower})
    terms.sort(key=lambda t: t["q"])
    return FitResult(terms=terms, residual=rel_resid)
