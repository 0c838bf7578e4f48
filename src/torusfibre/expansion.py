"""Assembly of the invariant from stratum contributions, exact evaluation at
integer levels, and recovery of the expansion data (phases, growth orders,
leading coefficients) from sampled values.

The recovery problem is the classical one for finite exponential-polynomial
sums: phases are searched over reduced fractions with bounded denominator
(they enter only through e^{2 pi i k q}), growth orders over a half-integer
grid.  Phases are located with a windowed matched filter, gathered from a
table of roots of unity; every linear fit on the chosen phases is one
column-scaled float64 least-squares solve.  numpy is imported inside the
functions of the recovery, so that no other command pays for loading it.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import attrgetter

from .errors import (
    IllConditioned,
    SymbolicPhaseInNumericContext,
    ValidationError,
)
from .exact import Cyclotomic, PhaseQ, format_rational
from .framing import framing_evaluate
from .localization import ContributionPolynomial
from .value import Value

__all__ = [
    "InvariantModel",
    "FitResult",
    "assemble_invariant",
    "evaluate_invariant",
    "fit_expansion",
    "check_precision",
    "check_probe_size",
]


# bits of a float64, the precision in which the numeric value is printed
MIN_PRECISION = 53
# Working precision of the Horner rendering unless a caller gives one
DEFAULT_PRECISION = 128
# The precision fixes the Horner (Cyclotomic.to_mpc) whose float64 pair is
# printed.  Its rotation and its phi(M) products of prec-bit numbers are
# paid only where a sum over the value's few terms does not certify the
# pair: at 65536 bits level 1 on the M5 inputs (M = 60, 16 steps) takes 0.2
# to 0.4 s, level 5 is decided from its terms, and a million bits runs past
# 100 s.
MAX_PRECISION = 2 ** 16
# Largest conductor M evaluated: the value is an integer vector of length M
# reduced mod Phi_M, so this bounds memory, not time.  The reduction's cost
# follows the primes of M, not M alone: ``invariant --level 69899`` on the
# M5 inputs (M = 4194060) is inside, and exits 0 after 376 s on a shared
# 2-vCPU VM, most of it in the tower's top step.  A bound on time is the
# predicted-cost budget of ROADMAP item 4; item 2 shortens the top step.
MAX_CONDUCTOR = 2 ** 22


def check_precision(bits, source):
    """bits, if it lies in [MIN_PRECISION, MAX_PRECISION]; a ValidationError
    naming the source of the value otherwise."""
    if bits < MIN_PRECISION:
        raise ValidationError(
            f"{source} = {bits} is below {MIN_PRECISION} bits, the precision "
            f"of the printed float64"
        )
    if bits > MAX_PRECISION:
        raise ValidationError(
            f"{source} = {bits} is above {MAX_PRECISION} bits, the highest "
            f"precision rendered"
        )
    return bits


class InvariantModel(Value):
    __slots__ = _fields = ("framing", "terms")
    _key = attrgetter(*_fields)
    __hash__ = None  # mutable

    def __init__(self, framing, terms):
        self.framing = framing  # FramingPhase
        self.terms = terms      # list of ContributionPolynomial, phases merged

    def to_json(self):
        return {
            "framing": self.framing.to_json(),
            "terms": [t.to_json() for t in self.terms],
        }


def _merge_key(q):
    if isinstance(q, PhaseQ):
        return (0, q.q)
    return (1, str(q))


def _total(parts):
    """The sum of the Cyclotomic values in parts, which then holds it
    alone: their numerators placed at the exponents j M/m < M of zeta_M, M
    the lcm of the conductors, over the lcm of the denominators, and
    reduced once.  That is the sum, conductor M included, that adding them
    one by one gives."""
    if len(parts) > 1:
        m, den = lcm(*(c.conductor for c in parts)), lcm(*(c.denominator for c in parts))
        nums = [0] * m
        for c in parts:
            step, scale = m // c.conductor, den // c.denominator
            for j, n in enumerate(c.numerators):
                nums[j * step] += n * scale
        parts[:] = [Cyclotomic(m, nums, den)]
    return parts[0]


def assemble_invariant(data, group, contributions, framing):
    """Collect stratum contributions into one model, adding polynomials that
    share a phase.  Symbolic phases merge only on equal tags.  The values
    added to a coefficient are kept in a list and summed by _total when it
    is read.  After each merge a zero top coefficient is dropped, so a
    coefficient that reappears later starts afresh, with the conductor of
    the values added since."""
    buckets = {}
    for contrib in contributions:
        key = _merge_key(contrib.q)
        if key not in buckets:
            buckets[key] = contrib.q, [[c] for c in contrib.coefficients]
            continue
        parts = buckets[key][1]
        for i, c in enumerate(contrib.coefficients):
            if i < len(parts):
                parts[i].append(c)
            else:
                parts.append([c])
        while len(parts) > 1 and _total(parts[-1]).is_zero():
            parts.pop()
    terms = [ContributionPolynomial(coefficients=list(map(_total, parts)), q=q)
             for q, parts in map(buckets.get, sorted(buckets))]
    return InvariantModel(framing=framing, terms=terms)


def evaluate_invariant(model, k, precision=DEFAULT_PRECISION):
    """Value at level k: the exact element of Q(zeta) together with its
    printed float64 pair as a complex, that of the Horner rendering at
    precision bits (Cyclotomic.to_float64), checked by check_precision.
    No environment variable is read here: the command line resolves its
    --precision and TORUSFIBRE_PRECISION before any work.  Needs every
    phase resolved."""
    if any(t.is_symbolic() for t in model.terms):
        tags = [str(t.q) for t in model.terms if t.is_symbolic()]
        raise SymbolicPhaseInNumericContext(
            f"cannot evaluate with unresolved phase symbols {tags}"
        )
    # framing_evaluate refuses a level below 1, before the precision is read
    fr = framing_evaluate(model.framing, k).q
    prec = check_precision(precision, "precision")
    phases = [t.q.scale(k).q for t in model.terms]
    conductor = fr.denominator
    for t, phase in zip(model.terms, phases):
        conductor = lcm(conductor, phase.denominator)
        for c in t.coefficients:
            conductor = lcm(conductor, c.conductor)
    if conductor > MAX_CONDUCTOR:
        raise ValidationError(
            f"level {k} needs conductor M = {conductor}, above the "
            f"{MAX_CONDUCTOR} evaluated"
        )
    # Each term (framing phase) (term phase) k^i c_i is the coefficient
    # vector of c_i, spread into conductor M and shifted by the exponent of
    # the two roots of unity.  All terms go into one sum of integer
    # multiples n_e of zeta_M^e over a common denominator: as a vector mod
    # x^M - 1 it is reduced once mod Phi_M, and its few nonzero n_e give the
    # printed float64 pair (Cyclotomic.to_float64).
    den = lcm(1, *(c.denominator for t in model.terms for c in t.coefficients))
    sparse = {}
    fr_shift = fr.numerator * (conductor // fr.denominator)
    for t, phase in zip(model.terms, phases):
        shift = fr_shift + phase.numerator * (conductor // phase.denominator)
        kp = 1
        for c in t.coefficients:
            step = conductor // c.conductor
            scale = kp * (den // c.denominator)
            for j, n in enumerate(c.numerators):
                if n:
                    e = (shift + j * step) % conductor
                    sparse[e] = sparse.get(e, 0) + n * scale
            kp *= k
    vec = [0] * conductor
    for e, n in sparse.items():
        vec[e] = n
    exact = Cyclotomic(conductor, vec, den)
    return exact, exact.to_float64(prec, [(e, n) for e, n in sparse.items() if n], den)


class FitResult(Value):
    __slots__ = _fields = ("terms", "residual")
    _key = attrgetter(*_fields)
    __hash__ = None  # mutable

    def __init__(self, terms, residual):
        self.terms = terms  # list of dicts: q (Fraction), d (Fraction), b (complex), a (list)
        self.residual = residual  # float

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


# Largest matched-filter matrix fit_expansion builds, in entries of phase
# candidates times samples: 64 MiB of complex128.
MAX_PROBE_ENTRIES = 2 ** 22

# A fitted coefficient whose largest contribution to a sample is below this
# fraction of the largest sample is pruned.
COEFFICIENT_TOLERANCE = 1e-7


def check_probe_size(q_bound, n_samples, source):
    """q_bound, if the matched-filter matrix for it and n_samples samples has
    at most MAX_PROBE_ENTRIES entries; a ValidationError naming the source
    of the bound otherwise.  The candidates with denominator up to top are
    counted, before any is made, as the sum of Euler's phi(d) for d <= top
    from a sieve, with top doubling up to q_bound while the count is inside
    the limit, so a huge bound is refused after a sieve of a few thousand."""
    # with no samples (refused by the fit itself) the count alone is bounded
    columns = max(n_samples, 1)
    count, top = 0, 0
    while top < q_bound and count * columns <= MAX_PROBE_ENTRIES:
        top = min(q_bound, 2 * top + 64)
        phi = list(range(top + 1))
        for p in range(2, top + 1):
            if phi[p] == p:
                for m in range(p, top + 1, p):
                    phi[m] -= phi[m] // p
        count = sum(phi)
    if count * columns > MAX_PROBE_ENTRIES:
        raise ValidationError(
            f"{source} {q_bound} with {n_samples} samples: at least {count} "
            f"phase candidates, so more than the {MAX_PROBE_ENTRIES} entries "
            f"allowed in the phase probe (candidates x samples)"
        )
    return q_bound


def _phase_candidates(q_bound):
    """The reduced fractions in [0, 1) with denominator at most q_bound, as
    (numerator, denominator) pairs in ascending order: the Farey sequence of
    order q_bound without its last term 1/1, made by the next-term
    recurrence, so nothing is sorted."""
    a, b, c, d = 0, 1, 1, q_bound
    out = [(0, 1)]
    while c < d:
        out.append((c, d))
        t = (q_bound + b) // d
        a, b, c, d = c, d, t * c - a, t * d - b
    return out


def _probe(candidates, levels):
    """The matched-filter matrix e^{-2 pi i q k} for the candidate phases
    q = num/den and the integer levels k, gathered from a table of the
    den-th roots of unity at index num k mod den, so q k is reduced mod 1
    exactly and np.exp runs once per table entry."""
    import numpy as np

    nums = np.array([n for n, _ in candidates])[:, None]
    dens = np.array([d for _, d in candidates])[:, None]
    sizes = np.arange(1, int(dens.max()) + 1)
    # the den-th roots for den = 1, 2, ..., each block from den (den - 1) / 2
    start = sizes * (sizes - 1) // 2
    den_of = np.repeat(sizes, sizes)
    table = np.exp(-2j * np.pi * (np.arange(len(den_of)) - start[den_of - 1]) / den_of)
    # levels past int64 come as Python ints; their residues fit an index
    index = np.asarray(levels % sizes[:, None], dtype=np.intp)[dens[:, 0] - 1]
    index *= nums
    index %= dens
    index += start[dens - 1]
    return table[index]


def _exponent_grid(degree_bound, half_steps):
    if half_steps:
        return [Fraction(degree_bound) - Fraction(l, 2) for l in range(2 * degree_bound + 1)]
    return [Fraction(e) for e in range(degree_bound, -1, -1)]


def _design_matrix(levels, ks, phases, exponents):
    """Columns e^{2 pi i q k} (k + shift)^e for integer levels k and the
    shifted variable ks.  q k is reduced mod 1 exactly before rounding, so
    the phase is accurate to one ulp at any level."""
    import numpy as np

    cols = []
    for q in phases:
        # k mod den first, so num k neither overflows int64 nor needs object arithmetic
        res = np.asarray(levels % q.denominator, dtype=np.int64) * q.numerator % q.denominator
        osc = np.exp(2j * np.pi * res / q.denominator)
        for e in exponents:
            cols.append(osc * ks ** float(e))
    return np.stack(cols, axis=1)


def _lstsq(A, y):
    """Float64 least squares on A with its columns scaled to unit norm.
    Returns the coefficients for A, the residual vector and the condition
    number of the scaled matrix (inf for an exactly dependent column)."""
    import numpy as np

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
    condition_threshold=None,
):
    """Recover (q_j, d_j, b_j) from values at consecutive integer levels.

    samples: list of (k, complex).  Phases are detected greedily with a
    triangular-window matched filter over all reduced fractions with
    denominator up to the bound (at most MAX_PROBE_ENTRIES candidates times
    samples, or ValidationError), each pick followed by a joint linear fit
    on the phases chosen so far; a coefficient c of (k + shift)^e in the
    final fit is pruned when its largest contribution to a sample,
    |c| max_k |k + shift|^e, is below COEFFICIENT_TOLERANCE of the largest
    sample.

    The condition number is that of the design matrix with unit-norm
    columns; above condition_threshold (default 2**32, which leaves at least
    six significant digits of float64 in the coefficients) the fit raises
    IllConditioned.  A fit whose residual or coefficients overflow float64
    raises ValueError (numpy's overflow warning is silenced here).
    """
    import numpy as np

    if max_terms < 1 or degree_bound < 0:
        raise ValueError("need at least one term and a non-negative degree bound")
    samples = sorted(samples, key=lambda sample: sample[0])
    ks_int = [int(k) for k, _ in samples]
    for k, after in zip(ks_int, ks_int[1:]):
        if k == after:
            raise ValueError(f"level {k} is given more than once")
    need = 2 * max_terms * (degree_bound + 2)
    if len(samples) < need or ks_int != list(range(ks_int[0], ks_int[0] + len(ks_int))):
        raise ValueError(
            f"need at least {need} samples at consecutive integer levels"
        )
    with np.errstate(over="ignore"):
        # exact integer levels: int64 where they fit, Python ints past it
        try:
            levels = np.array(ks_int, dtype=np.int64)
        except OverflowError:
            levels = np.array(ks_int, dtype=object)
        try:
            ks = levels.astype(float) + float(variable_shift)
        except OverflowError:
            raise ValueError("sample levels must lie within the float64 range") from None
        y = np.array([complex(v) for _, v in samples])
        if not np.isfinite(y).all():
            raise ValueError("samples must be finite")
        yscale = float(np.max(np.abs(y))) or 1.0

        check_probe_size(q_denominator_bound, len(samples), "q_denominator_bound")
        candidates = _phase_candidates(q_denominator_bound)
        # triangular window suppresses leakage from the other phases
        window = 1.0 - np.abs(np.linspace(-1.0, 1.0, len(ks)))
        window /= window.sum()
        probe = _probe(candidates, levels)
        exponents = _exponent_grid(degree_bound, half_integer_degrees)
        detect_weights = [ks ** -float(d) for d in range(degree_bound + 1)]

        def joint_fit(phase_list):
            return _lstsq(_design_matrix(levels, ks, phase_list, exponents), y)

        def phase(i):
            return Fraction(*candidates[i])

        # chosen phases as candidate indices, and as Fractions for the fits
        taken, chosen = [], []
        resid = y.copy()
        for _ in range(max_terms):
            best = None
            for w in detect_weights:
                scores = np.abs(probe @ (resid * w * window))
                scores[taken] = -1.0
                i = int(np.argmax(scores))
                if best is None or scores[i] > best[0]:
                    best = (scores[i], i)
            taken.append(best[1])
            chosen.append(phase(best[1]))
            coeffs, resid, cond = joint_fit(chosen)
            if np.max(np.abs(resid)) < 1e-12 * yscale:
                break
        # coordinate-descent refinement when the greedy pick did not converge
        if np.max(np.abs(resid)) > 1e-9 * yscale:
            for _round in range(2):
                improved = False
                for slot in range(len(chosen)):
                    best_i, best_r = taken[slot], float(np.linalg.norm(resid))
                    for i in range(len(candidates)):
                        if i in taken:
                            continue
                        trial = chosen[:slot] + [phase(i)] + chosen[slot + 1:]
                        r = float(np.linalg.norm(joint_fit(trial)[1]))
                        if r < best_r * 0.999:
                            best_i, best_r = i, r
                    if best_i != taken[slot]:
                        taken[slot] = best_i
                        chosen[slot] = phase(best_i)
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
        if not (np.isfinite(rel_resid) and np.isfinite(coeffs).all()):
            raise ValueError(
                f"the fit left the float64 range (relative residual {rel_resid}); "
                f"scale the samples down"
            )

        tol = COEFFICIENT_TOLERANCE * yscale
        # the coefficient of (k + shift)^exponents[j] moves a sample by at most
        # its modulus times reach[j]
        top = np.max(np.abs(ks))
        reach = [float(top ** float(e)) for e in exponents]
        terms = []
        for i, q in enumerate(chosen):
            block = coeffs[i * len(exponents):(i + 1) * len(exponents)]
            lead = next((j for j, r in enumerate(reach) if abs(block[j]) * r > tol), None)
            if lead is None:
                continue
            b = complex(block[lead])
            lower = [complex(c) / b for c in block[lead + 1:]]
            while lower and abs(lower[-1]) * abs(b) * reach[lead + len(lower)] < tol:
                lower.pop()
            terms.append({"q": q, "d": exponents[lead], "b": b, "a": lower})
        terms.sort(key=lambda t: t["q"])
        return FitResult(terms=terms, residual=rel_resid)
