"""fit_expansion's phase search on integers against the old Fraction route.

The production route makes the candidates as (num, den) pairs by the Farey
recurrence and gathers the matched-filter matrix from a table of roots of
unity.  tests/oracles.py keeps the route it replaced: sorted Fractions and
one np.exp per candidate and level.
"""

import random
from fractions import Fraction as F

import numpy as np
import pytest

from oracles import phase_candidates_sorted, probe_exp
from torusfibre import expansion
from torusfibre.errors import IllConditioned, ValidationError
from torusfibre.expansion import (
    MAX_PROBE_ENTRIES,
    _phase_candidates,
    _probe,
    check_probe_size,
    fit_expansion,
)

EPS = 2.0 ** -53


@pytest.mark.parametrize("q_bound", range(1, 101))
def test_candidates_match_sorted_fractions(q_bound):
    got = _phase_candidates(q_bound)
    assert all(type(n) is int and type(d) is int for n, d in got)
    assert [F(n, d) for n, d in got] == phase_candidates_sorted(q_bound)
    # reduced pairs, so Fraction(n, d) keeps them as they are
    assert all((F(n, d).numerator, F(n, d).denominator) == (n, d) for n, d in got)


LEVELS = [np.arange(1, 201), np.arange(500, 700), np.arange(4901, 5101), np.arange(9801, 10001)]


@pytest.mark.parametrize("q_bound", [24, 60])
@pytest.mark.parametrize("levels", LEVELS, ids=lambda l: f"{l[0]}-{l[-1]}")
def test_probe_matches_exp_route(q_bound, levels):
    cands = _phase_candidates(q_bound)
    got = _probe(cands, levels)
    assert got.shape == (len(cands), len(levels))
    # the phase reduced mod 1 exactly, then one exp per entry
    nums = np.array([n for n, _ in cands])[:, None]
    dens = np.array([d for _, d in cands])[:, None]
    exact = np.exp(-2j * np.pi * (nums * levels % dens) / dens)
    assert np.abs(got - exact).max() < 1e-12
    # the old route rounds q k before reducing it, an error of a few ulps of
    # 2 pi k: within 1e-12 while that is, and within that bound beyond
    old = probe_exp([F(n, d) for n, d in cands], levels)
    tol = 1e-12 + 2 * np.pi * levels * 4 * EPS
    assert (np.abs(got - old) < tol[None, :]).all()
    low = levels <= 150
    assert np.abs(got - old)[:, low].max(initial=0.0) < 1e-12


def _model(rng, phases, q_bound):
    """Distinct phases with denominator at most q_bound, leading degrees on
    the half-integer grid up to 2 and lower-order terms down to k^0, so that
    the fit's basis holds the model exactly."""
    qs = set()
    while len(qs) < phases:
        den = rng.randint(1, q_bound)
        qs.add(F(rng.randrange(den), den))
    terms = []
    for q in sorted(qs):
        d = F(rng.randint(0, 4), 2)
        b = complex(rng.uniform(0.5, 3), rng.uniform(-3, 3))
        sub = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(rng.randint(0, int(2 * d)))]
        terms.append((q, d, b, sub))
    return terms


def _samples(rng, terms, count, noise):
    first = rng.randint(1, 20)
    ks = range(first, first + count)
    vals = []
    for k in ks:
        v = 0j
        for q, d, b, sub in terms:
            osc = np.exp(2j * np.pi * (q.numerator * k % q.denominator) / q.denominator)
            tail = 1 + sum(a * k ** -((j + 1) / 2) for j, a in enumerate(sub))
            v += b * osc * k ** float(d) * tail
        vals.append(v)
    scale = max(abs(v) for v in vals)
    return [
        (k, v + noise * scale * complex(rng.gauss(0, 1), rng.gauss(0, 1)))
        for k, v in zip(ks, vals)
    ]


def _oracle_route(monkeypatch):
    monkeypatch.setattr(
        expansion, "_phase_candidates",
        lambda q_bound: [(q.numerator, q.denominator) for q in phase_candidates_sorted(q_bound)],
    )
    monkeypatch.setattr(
        expansion, "_probe", lambda cands, levels: probe_exp([F(n, d) for n, d in cands], levels)
    )


def _outcome(samples, q_bound, phases):
    try:
        return fit_expansion(samples, q_bound, phases, 2)
    except IllConditioned as exc:
        return str(exc)


FIT_CASES = [
    (seed, phases, q_bound, noise)
    for phases, q_bound, seeds in ((2, 24, (1, 2)), (3, 24, (3, 4)), (2, 60, (5,)), (3, 60, (6,)))
    for seed in seeds
    for noise in (0.0, 1e-6)
]


@pytest.mark.parametrize("seed, phases, q_bound, noise", FIT_CASES)
def test_fit_matches_oracle_route(monkeypatch, seed, phases, q_bound, noise):
    rng = random.Random(f"phase-search-{seed}")
    samples = _samples(rng, _model(rng, phases, q_bound), 100, noise)
    solves = []
    real = expansion._lstsq
    with monkeypatch.context() as m:
        m.setattr(expansion, "_lstsq", lambda A, y: solves.append(1) or real(A, y))
        got = _outcome(samples, q_bound, phases)
    # noise keeps the greedy fit from converging, so the coordinate descent
    # tries candidates by index
    assert len(solves) > phases or not noise
    with monkeypatch.context() as m:
        _oracle_route(m)
        want = _outcome(samples, q_bound, phases)
    if isinstance(want, str):
        assert got == want
        return
    assert [(t["q"], t["d"]) for t in got.terms] == [(t["q"], t["d"]) for t in want.terms]
    for a, b in zip(got.terms, want.terms):
        assert abs(a["b"] - b["b"]) <= 1e-12 * abs(b["b"])
    assert got.residual == pytest.approx(want.residual, rel=1e-9, abs=1e-15)


# -- size of the probe --------------------------------------------------------


def test_probe_size_limit_at_default_bound():
    count = len(_phase_candidates(60))
    most = MAX_PROBE_ENTRIES // count
    assert check_probe_size(60, most, "--qmax") == 60
    with pytest.raises(ValidationError, match="--qmax 60"):
        check_probe_size(60, most + 1, "--qmax")


def test_benchmark_sizes_are_well_inside_the_limit():
    # fit --qmax 24 on up to 200 samples, and the default --qmax 60
    assert len(_phase_candidates(24)) * 200 * 100 < MAX_PROBE_ENTRIES
    assert len(_phase_candidates(60)) * 200 * 10 < MAX_PROBE_ENTRIES


@pytest.mark.parametrize(
    "q_bound, n_samples",
    [(10 ** 5, 200), (10 ** 5, 4), (10 ** 12, 4), (10 ** 12, 0), (2 ** 64, 40)],
)
def test_oversized_bound_is_refused_before_any_candidate(monkeypatch, q_bound, n_samples):
    def fail(*args):
        raise AssertionError("candidates built for an oversized bound")

    monkeypatch.setattr(expansion, "_phase_candidates", fail)
    monkeypatch.setattr(expansion, "_probe", fail)
    with pytest.raises(ValidationError, match=f"bound {q_bound} "):
        check_probe_size(q_bound, n_samples, "bound")


def test_fit_expansion_refuses_an_oversized_bound(monkeypatch):
    def fail(*args):
        raise AssertionError("candidates built for an oversized bound")

    monkeypatch.setattr(expansion, "_phase_candidates", fail)
    samples = [(k, complex(k + 1)) for k in range(1, 41)]
    with pytest.raises(ValidationError, match="q_denominator_bound 100000"):
        fit_expansion(samples, 10 ** 5, 1, 1)
