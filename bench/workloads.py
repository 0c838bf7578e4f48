"""The three workloads: which CLI calls make up one round, on which
generated inputs, and how each call's output is checked.

A round is a fixed list of ops built from the seed.  Every op is one
``torusfibre`` command line, run in-process; its input files are written by
the runner before the first round.  The size classes below are fixed per
workload so that different seeds give rounds of the same shape and cost;
the seed chooses rotation data, phases, levels, oracles and fit models
inside each class.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

import checks
import gen


@dataclass
class Op:
    kind: str
    argv: list               # CLI arguments; input files named relative to the work dir
    sizes: dict              # the input sizes that drive this op's cost
    check: object            # parsed stdout -> None or a reason string
    inputs: list = field(default_factory=list)   # input file names, for failure reports


@dataclass
class Workload:
    files: dict              # file name -> text
    ops: list                # one round
    warmup: Op               # run once during each set-up


# ---------------------------------------------------------------------------
# census: validate / seifert / spectrum / framing / strata
# ---------------------------------------------------------------------------

# Orders for the spectrum ops; the trace-average cost grows as m^3.  The
# tail is a block of HEAVY_DRAWS ops at m = HEAVY_M, each with its own
# rotation data, so that the tail percentile falls inside a block of ops of
# one size rather than on the edge between two sizes.
SPECTRUM_M = [8, 9, 10, 12, 15, 16, 20, 24, 30, 48]
HEAVY_M, HEAVY_DRAWS = 36, 8
# Framing ops recompute the spectrum; they take the smaller half.
FRAMING_M_MAX = 16
# (m, branches, quotient genus, N) of the small seeded strata ops.  Class
# counts grow as C(m + N - 1, N) per branch, so m and N stay small.
STRATA_SMALL = [
    (3, 3, 1, 2), (4, 4, 0, 2), (5, 3, 0, 2), (6, 2, 1, 2), (7, 3, 0, 2),
    (3, 2, 1, 3), (4, 2, 1, 3), (2, 4, 1, 3), (2, 2, 1, 4), (3, 2, 1, 4),
]
STRATA_FIXTURES = [("HYPER", 2), ("HYPER", 3), ("Z3", 2), ("Z3", 3), ("Z4", 2), ("M5", 2), ("M5", 3)]


def build_census(seed, query):
    rng = random.Random(f"census-{seed}")
    files = {}
    orbits = {}

    def add_orbit(name, orbit):
        orbits[name] = orbit
        files[f"{name}.json"] = gen.dumps(orbit)

    for name in gen.FIXTURES:
        add_orbit(name, gen.fixture(name))
    spectrum_names = [f"s{m}" for m in SPECTRUM_M] + [f"h{i}" for i in range(HEAVY_DRAWS)]
    for name, m in zip(spectrum_names, SPECTRUM_M + [HEAVY_M] * HEAVY_DRAWS):
        add_orbit(name, gen.asymmetric_orbit(rng, m, 4 if m % 2 == 0 else 3, rng.choice((0, 1))))
    for i, (m, b, g0, _) in enumerate(STRATA_SMALL):
        add_orbit(f"t{i}", gen.asymmetric_orbit(rng, m, b, g0))

    def sizes(name, **extra):
        o = orbits[name]
        return {"m": o["m"], "branches": len(o["branches"]), "genus": gen.genus(o), **extra}

    def op(kind, name, argv, check, **extra):
        return Op(kind, [kind, "--orbit", f"{name}.json", *argv], sizes(name, **extra), check, [f"{name}.json"])

    ops = []
    main_orbits = list(gen.FIXTURES) + spectrum_names
    small_orbits = [f"t{i}" for i in range(len(STRATA_SMALL))]
    for name in orbits:
        o = orbits[name]
        ops.append(op("validate", name, [], lambda out, o=o: checks.check_validate(out, o)))
        ops.append(op("seifert", name, [], lambda out, o=o: checks.check_seifert(out, o)))
    for name in main_orbits + small_orbits:
        o = orbits[name]
        ops.append(op("spectrum", name, [], lambda out, o=o: checks.check_spectrum(out, o)))
    for name in main_orbits + small_orbits:
        o = orbits[name]
        if o["m"] > FRAMING_M_MAX:
            continue
        N, level, trunc = rng.choice((2, 3)), rng.randint(1, 1000), rng.randint(2, 4)
        ops.append(op(
            "framing", name,
            ["--group", f"SU({N})", "--level", str(level), "--truncation", str(trunc)],
            lambda out, o=o, N=N, k=level, t=trunc: checks.check_framing(out, o, N, k, t),
            N=N, level=level,
        ))
    strata_ops = [(name, N) for name, N in STRATA_FIXTURES]
    strata_ops += [(f"t{i}", spec[3]) for i, spec in enumerate(STRATA_SMALL)]
    for name, N in strata_ops:
        o = orbits[name]
        ops.append(op(
            "strata", name, ["--group", f"SU({N})"],
            lambda out, o=o, N=N, name=name: checks.check_strata(out, o, N, name),
            N=N, strata=checks.strata_count(o, N),
        ))
    rng.shuffle(ops)
    z4 = orbits["Z4"]
    warmup = op("spectrum", "Z4", [], lambda out: checks.check_spectrum(out, z4))
    return Workload(files, ops, warmup)


# ---------------------------------------------------------------------------
# level_sweep: invariant --cs-phases --oracles --level k
# ---------------------------------------------------------------------------

# Levels of the SU(2) ops, one op per entry and round.  They are prime to 6,
# so with phase denominators dividing 12 every stratum phase q keeps its
# denominator at q k.  The live strata take at least eight of the twelve
# such phases (gen.cs_phases), among them denominators divisible by 4 and by
# 3, so the conductor is M = lcm(den(B k/(k+2)), 12, m) and the number of
# terms is fixed: the cost of a slot, about terms * phi(M)^2, is the same
# for every seed.  M runs from 60 to about 3000.
# Repeated levels get another seeded draw each, so that both percentiles
# fall inside a group of ops of about the same cost rather than on the edge
# between two costs.  M5 at k = 565 and Z4 at k = 197 (M = 1260 and 2388)
# form a block of four that holds the tail percentile, under the SU(3) op
# and the two M5 ops above them.  The second Z4 op at k = 107 makes 22 ops
# a round, so that the median falls between M5 at k = 5 and Z4 at k = 673,
# which cost about the same.
LEVELS = {
    "M5": [1, 79, 13, 5, 241, 403, 565, 565, 85, 47],          # M = 60 .. 2940
    "Z4": [13, 11, 187, 295, 47, 673, 107, 107, 445, 197, 197],  # M = 60 .. 2388
}
# Z4 with SU(3) has 179 positive-dimensional strata up to d_c = 4; at this
# small level M stays small and the localization route dominates.  One op
# of a few seconds: it shows in ops_per_s, above every percentile.
SU3_LEVEL = 1


def build_level_sweep(seed, query):
    rng = random.Random(f"level_sweep-{seed}")
    files = {}
    ops = []
    for name in ("M5", "Z4"):
        files[f"{name}.json"] = gen.dumps(gen.fixture(name))

    strata_of = {}

    def add_op(name, N, level, idx):
        orbit = gen.fixture(name)
        if (name, N) not in strata_of:
            argv = ["strata", "--orbit", f"{name}.json", "--group", f"SU({N})"]
            strata_of[name, N] = query(argv, files)["strata"]
        strata = strata_of[name, N]
        live = [i for i, s in enumerate(strata) if s["d_c"] is not None and s["d_c"] >= 0]
        phases = gen.cs_phases(rng, len(strata), live)
        used = {i: phases[str(i)] for i in live}
        target = checks.predicted_conductor(orbit, N, level, used)
        if target != checks.predicted_conductor(orbit, N, level, {0: "1/12"}):
            raise RuntimeError(f"the phases of {name} SU({N}) miss a denominator 4 or 3")
        tag = f"{name}_su{N}_{idx}"
        orc = gen.oracles(rng, strata)
        files[f"{tag}_cs.json"] = gen.dumps(phases)
        files[f"{tag}_oracles.json"] = gen.dumps(orc)
        argv = [
            "invariant", "--orbit", f"{name}.json", "--group", f"SU({N})",
            "--cs-phases", f"{tag}_cs.json", "--oracles", f"{tag}_oracles.json",
            "--level", str(level),
        ]
        sizes = {
            "m": orbit["m"], "genus": gen.genus(orbit), "N": N, "level": level,
            "strata": len(strata), "oracles": len(orc), "conductor": target,
            "phi_M": checks.euler_phi(target),
        }
        check = lambda out, o=orbit, N=N, k=level, p=used: checks.check_invariant(out, o, N, k, p)
        return Op("invariant", argv, sizes, check, [f"{name}.json", f"{tag}_cs.json", f"{tag}_oracles.json"])

    for name, levels in LEVELS.items():
        for i, level in enumerate(levels):
            ops.append(add_op(name, 2, level, i))
    ops.append(add_op("Z4", 3, SU3_LEVEL, "small"))
    warmup = ops[0]
    rng.shuffle(ops)
    return Workload(files, ops, warmup)


# ---------------------------------------------------------------------------
# fit_recovery: fit on sampled asymptotic models
# ---------------------------------------------------------------------------

# (samples, phases, models) per round.  A fit costs about samples * phases
# in the 128-bit refit, whatever the model, so the round is three blocks of
# twelve ops of about equal cost: the median falls inside the middle block
# (100 samples of three phases, 200 of two) and the tail percentile inside
# the top one (200 samples of three phases), not on the edge between two
# costs.  The cost of one fit still varies with its model (greedy steps),
# so each block holds several draws.
FIT_SLOTS = [
    (60, 2, 3), (100, 2, 3), (60, 3, 3), (150, 2, 3),
    (100, 3, 6), (200, 2, 6),
    (200, 3, 12),
]
FIT_QMAX = 24
# Every fit is asked for degrees up to 2, the highest leading degree of a
# model, so that every model of a slot has the same exponent grid.
FIT_DEGREE = 2
# Noise of the fit_noise probe, relative to the largest sample.
FIT_NOISE = 1e-6


def build_fit(seed, noise):
    rng = random.Random(f"fit_recovery-{seed}")
    files = {}
    ops = []
    for count, phases, models in FIT_SLOTS:
        for i in range(models):
            terms = gen.fit_model(rng, phases, FIT_QMAX, Fraction(1))
            tag = f"fit_{count}_{phases}_{i}"
            files[f"{tag}.csv"] = gen.fit_csv(rng, terms, rng.randint(1, 20), count, noise)
            argv = [
                "fit", "--samples", f"{tag}.csv", "--qmax", str(FIT_QMAX),
                "--terms", str(phases), "--degree", str(FIT_DEGREE),
            ]
            sizes = {
                "samples": count, "phases": phases, "degree_bound": FIT_DEGREE,
                "noise": noise, "candidates": checks.fit_candidates(FIT_QMAX),
            }
            check = lambda out, t=terms: checks.check_fit(out, t, noise)
            ops.append(Op("fit", argv, sizes, check, [f"{tag}.csv"]))
    rng.shuffle(ops)
    # the warm-up is the same for every seed: one phase, linear growth
    warm_terms = [{"q": Fraction(1, 3), "d": Fraction(1), "b": 2 + 0j, "sub": [1 + 0j]}]
    files["warmup.csv"] = gen.fit_csv(rng, warm_terms, 1, 40, 0.0)
    warmup = Op(
        "fit", ["fit", "--samples", "warmup.csv", "--qmax", "10", "--terms", "1", "--degree", "1"],
        {"samples": 40, "phases": 1, "degree_bound": 1, "noise": 0.0, "candidates": checks.fit_candidates(10)},
        lambda out: checks.check_fit(out, warm_terms, 0.0), ["warmup.csv"],
    )
    return Workload(files, ops, warmup)


def build_fit_recovery(seed, query):
    return build_fit(seed, 0.0)


def build_fit_noise(seed, query):
    """Not a benchmark workload: the fit_recovery models with Gaussian noise
    of FIT_NOISE, on which fit_expansion gets a share of the fits wrong
    (see README.md).  Kept so that the defect can be reproduced and its
    fix measured; its runs report ``correct: false`` until then."""
    return build_fit(seed, FIT_NOISE)


BUILDERS = {
    "census": build_census,
    "level_sweep": build_level_sweep,
    "fit_recovery": build_fit_recovery,
    "fit_noise": build_fit_noise,
}
