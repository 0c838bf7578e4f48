"""Command line front end.

JSON is the wire format for both input and output; --format=table renders a
human-readable view of the same data.  Exit codes: 0 success, 1 invalid
input, 2 violated internal consistency check, 3 I/O trouble.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .errors import ConsistencyError, ValidationError
from .exact import PhaseQ
from .expansion import assemble_invariant, evaluate_invariant, fit_expansion
from .framing import GroupData, framing_evaluate, framing_phase, framing_series
from .localization import CohomologyOracle, point_contribution, smooth_contribution
from .orbit import OrbitData, seifert_invariants, validate_orbit
from .spectrum import eigen_dimensions
from .strata import count_strata_burnside, enumerate_strata

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INCONSISTENT = 2
EXIT_IO = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INVALID)


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _load_orbit(path):
    return OrbitData.from_json(_load_json(path))


def _emit(obj, fmt):
    if fmt == "table":
        _print_table(obj)
    else:
        print(json.dumps(obj, sort_keys=True, indent=2))


def _print_table(obj, indent=0):
    pad = "  " * indent
    if isinstance(obj, dict):
        for key in obj:
            val = obj[key]
            if isinstance(val, (dict, list)):
                print(f"{pad}{key}:")
                _print_table(val, indent + 1)
            else:
                print(f"{pad}{key}: {val}")
    elif isinstance(obj, list):
        for i, val in enumerate(obj):
            if isinstance(val, (dict, list)):
                print(f"{pad}[{i}]")
                _print_table(val, indent + 1)
            else:
                print(f"{pad}[{i}] {val}")
    else:
        print(f"{pad}{obj}")


def _is_trivial_stratum(stratum):
    return stratum.z == 0 and all(
        all(a == 0 for a in c.angles) for c in stratum.classes
    )


def _stratum_phases(strata, cs_map):
    phases = []
    for i, s in enumerate(strata):
        key = str(i)
        if cs_map is not None and key in cs_map:
            phases.append(PhaseQ(Fraction(cs_map[key])))
        elif _is_trivial_stratum(s):
            phases.append(PhaseQ(0))
        else:
            phases.append(f"q{i}")
    return phases


def _collect_contributions(data, group, strata, cs_map, oracle_map, strict):
    """One entry per stratum: a ContributionPolynomial where computable, a
    marker dict otherwise.  strict mode turns markers into errors."""
    phases = _stratum_phases(strata, cs_map)
    entries = []
    for i, s in enumerate(strata):
        if s.ranks is None:
            raise ValidationError(
                "rank data unavailable: the rank formula needs every branch "
                "orbit to be a fixed point"
            )
        if s.d_c is not None and s.d_c < 0:
            entries.append({"index": i, "empty": True})
            continue
        if s.d_c == 0:
            value = point_contribution(s.ranks, s.z_delta_order)
            contrib = smooth_contribution(
                data, s, group, CohomologyOracle.trivial(0), cs_phase=phases[i]
            )
            if not (len(contrib.coefficients) == 1 and contrib.coefficients[0] == value):
                raise ConsistencyError(
                    f"stratum {i}: closed form and oracle route disagree"
                )
            entries.append({"index": i, "contribution": contrib})
            continue
        oracle_obj = None if oracle_map is None else oracle_map.get(str(i))
        if oracle_obj is None:
            if strict:
                raise ValidationError(
                    f"stratum {i} has dimension {s.d_c}; supply an intersection "
                    f"oracle to evaluate it"
                )
            entries.append({"index": i, "needs_oracle": True, "d_c": s.d_c})
            continue
        oracle = CohomologyOracle.from_json(oracle_obj)
        entries.append(
            {
                "index": i,
                "contribution": smooth_contribution(
                    data, s, group, oracle, cs_phase=phases[i]
                ),
            }
        )
    return entries


def _cmd_validate(args):
    data = _load_orbit(args.orbit)
    report = validate_orbit(data, raise_on_failure=False)
    _emit(report, args.format)
    return EXIT_OK if report["valid"] else EXIT_INVALID


def _cmd_seifert(args):
    data = _load_orbit(args.orbit)
    _emit(seifert_invariants(data).to_json(), args.format)
    return EXIT_OK


def _cmd_spectrum(args):
    data = _load_orbit(args.orbit)
    _emit(eigen_dimensions(data).to_json(), args.format)
    return EXIT_OK


def _cmd_framing(args):
    data = _load_orbit(args.orbit)
    group = GroupData.parse(args.group)
    spec = eigen_dimensions(data)
    fp = framing_phase(spec, group)
    out = fp.to_json()
    if args.level is not None:
        out["phase_at_k"] = framing_evaluate(fp, args.level).to_json()
    if args.truncation is not None:
        out["series"] = framing_series(fp, args.truncation).to_json()
    _emit(out, args.format)
    return EXIT_OK


def _cmd_strata(args):
    data = _load_orbit(args.orbit)
    group = GroupData.parse(args.group)
    strata = enumerate_strata(data, group)
    count = count_strata_burnside(data, group)
    if count != len(strata):
        raise ConsistencyError(
            f"orbit enumeration found {len(strata)} strata, orbit counting "
            f"gives {count}"
        )
    _emit(
        {"count": len(strata), "strata": [s.to_json() for s in strata]},
        args.format,
    )
    return EXIT_OK


def _cmd_contributions(args):
    data = _load_orbit(args.orbit)
    group = GroupData.parse(args.group)
    strata = enumerate_strata(data, group)
    cs_map = _load_json(args.cs_phases) if args.cs_phases else None
    oracle_map = _load_json(args.oracles) if args.oracles else None
    entries = _collect_contributions(data, group, strata, cs_map, oracle_map, strict=False)
    out = []
    for e in entries:
        if "contribution" in e:
            out.append({"index": e["index"], **e["contribution"].to_json()})
        else:
            out.append(e)
    _emit(out, args.format)
    return EXIT_OK


def _cmd_invariant(args):
    data = _load_orbit(args.orbit)
    group = GroupData.parse(args.group)
    strata = enumerate_strata(data, group)
    cs_map = _load_json(args.cs_phases) if args.cs_phases else None
    oracle_map = _load_json(args.oracles) if args.oracles else None
    entries = _collect_contributions(data, group, strata, cs_map, oracle_map, strict=True)
    contributions = [e["contribution"] for e in entries if "contribution" in e]
    spec = eigen_dimensions(data)
    framing = framing_phase(spec, group)
    model = assemble_invariant(data, group, contributions, framing)
    out = model.to_json()
    if args.level is not None:
        exact, numeric = evaluate_invariant(model, args.level, precision=args.precision)
        out["value"] = {
            "level": args.level,
            "exact": exact.to_json(),
            "numeric": [float(numeric.real), float(numeric.imag)],
        }
    _emit(out, args.format)
    return EXIT_OK


def _cmd_fit(args):
    samples = []
    with open(args.samples) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            try:
                k = int(parts[0])
            except ValueError:
                continue  # header line
            if len(parts) < 3:
                raise ValidationError(f"sample line {line!r} is not k,re,im")
            samples.append((k, complex(float(parts[1]), float(parts[2]))))
    result = fit_expansion(
        samples,
        q_denominator_bound=args.qmax,
        max_terms=args.terms,
        degree_bound=args.degree,
        half_integer_degrees=not args.integer_degrees,
        variable_shift=args.shift,
    )
    _emit(result.to_json(), args.format)
    return EXIT_OK


def build_parser():
    parser = _Parser(prog="torusfibre")
    parser.add_argument("--format", choices=["json", "table"], default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, orbit=True, group=False):
        p = sub.add_parser(name)
        p.set_defaults(func=func)
        p.add_argument("--format", dest="format_sub", choices=["json", "table"], default=None)
        if orbit:
            p.add_argument("--orbit", required=True, help="orbit data JSON file")
        if group:
            p.add_argument("--group", default="SU(2)", help="group label, e.g. SU(2)")
        return p

    add("validate", _cmd_validate)
    add("seifert", _cmd_seifert)
    add("spectrum", _cmd_spectrum)

    p = add("framing", _cmd_framing, group=True)
    p.add_argument("--level", type=int)
    p.add_argument("--truncation", type=int)

    add("strata", _cmd_strata, group=True)

    p = add("contributions", _cmd_contributions, group=True)
    p.add_argument("--cs-phases", help="JSON file: stratum index -> phase p/q")
    p.add_argument("--oracles", help="JSON file: stratum index -> oracle data")

    p = add("invariant", _cmd_invariant, group=True)
    p.add_argument("--cs-phases")
    p.add_argument("--oracles")
    p.add_argument("--level", type=int)
    p.add_argument("--precision", type=int, default=None)

    p = add("fit", _cmd_fit, orbit=False)
    p.add_argument("--samples", required=True, help="CSV file with lines k,re,im")
    p.add_argument("--qmax", type=int, default=60)
    p.add_argument("--terms", type=int, default=4)
    p.add_argument("--degree", type=int, default=3)
    p.add_argument("--integer-degrees", action="store_true")
    p.add_argument("--shift", type=int, default=0)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_OK
    args.format = getattr(args, "format_sub", None) or args.format or "json"
    try:
        return args.func(args)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValidationError, ValueError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ConsistencyError as exc:
        print(f"consistency check failed: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT


if __name__ == "__main__":
    sys.exit(main())
