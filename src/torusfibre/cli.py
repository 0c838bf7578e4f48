"""Command line front end.

JSON is the wire format for both input and output; --format=table renders a
human-readable view of the same data.  Exit codes: 0 success, 1 invalid
input, 2 violated internal consistency check, 3 I/O trouble.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction
from types import SimpleNamespace

from .errors import ConsistencyError, ValidationError
from .exact import PhaseQ, rational_from_json
from .expansion import (
    DEFAULT_PRECISION,
    assemble_invariant,
    check_precision,
    check_probe_size,
    evaluate_invariant,
    fit_expansion,
)
from .framing import (
    MAX_SERIES_ORDER,
    GroupData,
    check_level,
    framing_evaluate,
    framing_phase,
    framing_series,
)
from .localization import (
    CohomologyOracle,
    point_contribution,
    smooth_contribution,
)
from .orbit import OrbitData, seifert_invariants, validate_orbit
from .spectrum import eigen_dimensions
from .strata import count_strata_burnside, enumerate_strata

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INCONSISTENT = 2
EXIT_IO = 3


def _load_json(path):
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise json.JSONDecodeError("arrays or objects nested too deeply", "", 0) from None


def _load_orbit(path):
    return OrbitData.from_json(_load_json(path))


def _emit(obj, fmt):
    """Print ``obj``: JSON values, where a value with a ``to_json`` method
    stands for what that method returns.  Every command but ``strata`` writes
    its JSON through _write_json; ``strata`` comes here for its table only."""
    if fmt == "table":
        _print_table(obj)
    else:
        _write_json(obj, sys.stdout)


_CHUNK = 1 << 16  # characters per write
_INF = float("inf")


def _flush(parts, out, last=False):
    """Write the joined ``parts`` to ``out`` and empty them once they come to
    _CHUNK characters, or when ``last``; else leave them joined as one part."""
    text = "".join(parts)
    parts.clear()
    if last or len(text) >= _CHUNK:
        out.write(text)
    else:
        parts.append(text)


def _write_json(obj, out):
    """Write exactly ``json.dumps(obj, sort_keys=True, indent=2,
    default=lambda o: o.to_json()) + "\\n"`` to ``out`` in writes of at least
    _CHUNK characters (but the last), without building the whole text: a
    value with a ``to_json`` method stands for what that method returns."""
    quote = json.encoder.encode_basestring_ascii
    # leaves of exactly these types; subclasses take the isinstance route
    leaves = {str: quote, int: int.__repr__, float: _scalar, bool: _scalar, type(None): _scalar}
    top = []

    def put(o, depth):
        keyed = isinstance(o, dict)
        if not (keyed or isinstance(o, (list, tuple))):
            text = _scalar(o)
            if text is not None:
                top.append(text)
            elif hasattr(o, "to_json"):
                put(o.to_json(), depth)
            else:
                raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
            return
        brackets = "{}" if keyed else "[]"
        if not o:
            top.append(brackets)
            return
        inner = "\n" + "  " * (depth + 1)
        sep = brackets[0] + inner
        for v in sorted(o.items()) if keyed else o:
            label = sep
            if keyed:
                # json writes number, bool and None keys as their text; any
                # other key type fails in quote()
                k, v = v
                label += quote(k if isinstance(k, str) else _scalar(k)) + ": "
            leaf = leaves.get(type(v))
            if leaf is not None:
                top.append(label + leaf(v))
            else:
                top.append(label)
                put(v, depth + 1)
            sep = "," + inner
            if len(top) >= 512:
                _flush(top, out)
        top.append(inner[:-2] + brackets[1])

    put(obj, 0)
    top.append("\n")
    _flush(top, out, last=True)


# One stratum of the strata list, its keys in sorted order, at the depth
# json.dumps(indent=2) gives it; the first field is "[" or "," before it.
_STRATUM = (
    '%s\n    {\n      "Z_delta": %d,\n      "c_delta": %s,\n      "classes": %s,\n'
    '      "d_c": %s,\n      "ranks": %s,\n      "z": %d\n    }'
)


def _write_strata(strata, out):
    """Write ``{"count": len(strata), "strata": strata}`` to ``out`` exactly
    as _write_json would, each StratumDescriptor standing for its to_json, by
    filling one template per stratum.  Each class and each ranks tuple is
    rendered once per call, keyed by its id alone: every value it keys stays
    alive in ``strata`` for the whole call, so no other value takes the id,
    and a class sits at the same depth in ``classes`` and ``c_delta``.  A
    class has N >= 1 angles and ranks m >= 2 entries, so only a tuple of
    classes can be empty."""
    quote = json.encoder.encode_basestring_ascii
    texts = {}  # id of a class or a ranks tuple -> its text

    def classes(cs):
        items = []
        for c in cs:
            text = texts.get(id(c))
            if text is None:
                angles = ",\n          ".join(map(quote, c.to_json()))
                text = texts[id(c)] = "[\n          " + angles + "\n        ]"
            items.append(text)
        return "[\n        " + ",\n        ".join(items) + "\n      ]" if items else "[]"

    def ranks(r):
        if r is None:
            return "null"
        text = texts.get(id(r))
        if text is None:
            text = texts[id(r)] = "[\n        " + ",\n        ".join(map(int.__repr__, r)) + "\n      ]"
        return text

    parts = ['{\n  "count": %d,\n  "strata": ' % len(strata)]
    lead = "["
    for s in strata:
        parts.append(_STRATUM % (
            lead, s.z_delta_order, classes(s.c_delta), classes(s.classes),
            "null" if s.d_c is None else s.d_c, ranks(s.ranks), s.z,
        ))
        lead = ","
        if len(parts) >= 64:
            _flush(parts, out)
    parts.append("\n  ]\n}\n" if strata else "[]\n}\n")
    _flush(parts, out, last=True)


def _scalar(o):
    """The JSON text of a str, None, bool, int or float as ``json`` writes
    it, else None."""
    if isinstance(o, str):
        return json.encoder.encode_basestring_ascii(o)
    if o is None or o is True or o is False:
        return "null" if o is None else "true" if o else "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if o != o:
            return "NaN"
        return "Infinity" if o == _INF else "-Infinity" if o == -_INF else float.__repr__(o)
    return None


def _print_table(obj, indent=0):
    pad = "  " * indent
    obj = obj.to_json() if hasattr(obj, "to_json") else obj
    if isinstance(obj, dict):
        rows = [(f"{key}:", f"{key}: ", val) for key, val in obj.items()]
    elif isinstance(obj, (list, tuple)):
        rows = [(f"[{i}]", f"[{i}] ", val) for i, val in enumerate(obj)]
    else:
        print(f"{pad}{obj}")
        return
    for head, label, val in rows:
        val = val.to_json() if hasattr(val, "to_json") else val
        if isinstance(val, (dict, list, tuple)):
            print(pad + head)
            _print_table(val, indent + 1)
        else:
            print(f"{pad}{label}{val}")


def _is_trivial_stratum(stratum):
    return stratum.z == 0 and not any(any(c.residues) for c in stratum.classes)


def _stratum_phases(strata, cs_map):
    if cs_map is not None and not isinstance(cs_map, dict):
        raise ValidationError(
            "cs-phases must be a JSON object mapping stratum index to phase"
        )
    phases, made = [], {}  # (p, q) -> PhaseQ: few values, many strata
    for i, s in enumerate(strata):
        key = str(i)
        if cs_map is not None and key in cs_map:
            q = rational_from_json(cs_map[key], f"cs-phase {key!r}")
            phases.append(made.get(q) or made.setdefault(q, PhaseQ(Fraction(*q))))
        elif _is_trivial_stratum(s):
            phases.append(PhaseQ(0))
        else:
            phases.append(f"q{i}")
    return phases


def _collect_contributions(data, group, strata, cs_map, oracle_map, strict):
    """One entry per stratum: a ContributionPolynomial where computable, a
    marker dict otherwise.  strict mode turns markers into errors.  The
    point strata share one trivial oracle, and each is certified against the
    closed form of point_contribution."""
    phases = _stratum_phases(strata, cs_map)
    if oracle_map is not None and not isinstance(oracle_map, dict):
        raise ValidationError(
            "oracles must be a JSON object mapping stratum index to oracle data"
        )
    point = CohomologyOracle.trivial()
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
            oracle = point
        else:
            oracle_obj = None if oracle_map is None else oracle_map.get(str(i))
            if oracle_obj is None:
                if strict:
                    raise ValidationError(
                        f"stratum {i} has dimension {s.d_c}; supply an intersection "
                        f"oracle to evaluate it"
                    )
                entries.append({"index": i, "needs_oracle": True, "d_c": s.d_c})
                continue
            try:
                oracle = CohomologyOracle.from_json(oracle_obj)
            except ValidationError as exc:
                raise ValidationError(f"stratum {i}: {exc}") from None
        contrib = smooth_contribution(data, s, group, oracle, cs_phase=phases[i])
        if s.d_c == 0 and contrib.coefficients != [point_contribution(s.ranks, s.z_delta_order)]:
            raise ConsistencyError(f"stratum {i}: closed form and oracle route disagree")
        entries.append({"index": i, "contribution": contrib})
    return entries


def _load_contributions(args, strict):
    """The orbit, the group and the _collect_contributions entries of a
    command line with --orbit, --group, --cs-phases and --oracles."""
    data = _load_orbit(args.orbit)
    group = GroupData.parse(args.group)
    strata = enumerate_strata(data, group)
    cs_map = _load_json(args.cs_phases) if args.cs_phases else None
    oracle_map = _load_json(args.oracles) if args.oracles else None
    return data, group, _collect_contributions(data, group, strata, cs_map, oracle_map, strict)


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
    if args.level is not None:
        check_level(args.level, "--level")
    if args.truncation is not None:
        if args.truncation < 0:
            raise ValidationError(f"--truncation {args.truncation} is negative")
        if args.truncation > MAX_SERIES_ORDER:
            raise ValidationError(
                f"--truncation {args.truncation} is above {MAX_SERIES_ORDER}, "
                f"the highest series order written"
            )
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
    if args.format == "json":
        _write_strata(strata, sys.stdout)
    else:
        _emit({"count": len(strata), "strata": strata}, args.format)
    return EXIT_OK


def _cmd_contributions(args):
    _, _, entries = _load_contributions(args, strict=False)
    out = []
    for e in entries:
        if "contribution" in e:
            out.append({"index": e["index"], **e["contribution"].to_json()})
        else:
            out.append(e)
    _emit(out, args.format)
    return EXIT_OK


def _precision(given):
    """The working precision of the rendering: ``given`` (--precision),
    else the TORUSFIBRE_PRECISION environment variable, else
    DEFAULT_PRECISION bits, checked by check_precision under the name of
    its source."""
    if given is not None:
        return check_precision(given, "--precision")
    value = os.environ.get("TORUSFIBRE_PRECISION", str(DEFAULT_PRECISION))
    try:
        bits = int(value)
    except ValueError:
        raise ValidationError(f"TORUSFIBRE_PRECISION = {value!r} is not an integer") from None
    return check_precision(bits, "TORUSFIBRE_PRECISION")


def _cmd_invariant(args):
    if args.level is not None:
        check_level(args.level, "--level")
    precision = _precision(args.precision)
    data, group, entries = _load_contributions(args, strict=True)
    contributions = [e["contribution"] for e in entries if "contribution" in e]
    spec = eigen_dimensions(data)
    framing = framing_phase(spec, group)
    model = assemble_invariant(data, group, contributions, framing)
    out = model.to_json()
    if args.level is not None:
        exact, numeric = evaluate_invariant(model, args.level, precision)
        out["value"] = {
            "level": args.level,
            "exact": exact.to_json(),
            "numeric": [numeric.real, numeric.imag],
        }
    _emit(out, args.format)
    return EXIT_OK


def _cmd_fit(args):
    samples = []
    with open(args.samples) as fh:
        first = True
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            is_first, first = first, False
            parts = line.split(",")
            try:
                k = int(parts[0])
            except ValueError:
                if is_first:
                    continue  # header line
                raise ValidationError(
                    f"sample line {number} {line!r}: level {parts[0]!r} is not an integer"
                ) from None
            if len(parts) < 3:
                raise ValidationError(f"sample line {line!r} is not k,re,im")
            samples.append((k, complex(float(parts[1]), float(parts[2]))))
    if args.qmax < 1:
        raise ValidationError(f"--qmax {args.qmax}: the phase denominator bound must be at least 1")
    if samples:
        check_probe_size(args.qmax, len(samples), "--qmax")
    low = min((k for k, _ in samples), default=None)
    if low is not None and low + args.shift <= 0:
        raise ValidationError(
            f"--shift {args.shift}: level {low} gives k + shift = {low + args.shift}; "
            f"every sample needs k + shift > 0"
        )
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


# name -> (handler, takes --orbit, takes --group, extra arguments), in help order
INT = {"type": int}
COMMANDS = {
    "validate": (_cmd_validate, True, False, ()),
    "seifert": (_cmd_seifert, True, False, ()),
    "spectrum": (_cmd_spectrum, True, False, ()),
    "framing": (_cmd_framing, True, True, (("--level", INT), ("--truncation", INT))),
    "strata": (_cmd_strata, True, True, ()),
    "contributions": (_cmd_contributions, True, True, (
        ("--cs-phases", {"help": "JSON file: stratum index -> phase p/q"}),
        ("--oracles", {"help": "JSON file: stratum index -> oracle data"}),
    )),
    "invariant": (_cmd_invariant, True, True, (
        ("--cs-phases", {}), ("--oracles", {}), ("--level", INT), ("--precision", INT),
    )),
    "fit": (_cmd_fit, False, False, (
        ("--samples", {"required": True, "help": "CSV file with lines k,re,im"}),
        ("--qmax", {"type": int, "default": 60}),
        ("--terms", {"type": int, "default": 4}),
        ("--degree", {"type": int, "default": 3}),
        ("--integer-degrees", {"action": "store_true"}),
        ("--shift", {"type": int, "default": 0}),
    )),
}


FORMATS = ["json", "table"]


def _options(name):
    """The (flag, add_argument keywords) pairs of a subcommand, in help order."""
    _, orbit, group, extra = COMMANDS[name]
    options = [("--format", {"dest": "format_sub", "choices": FORMATS, "default": None})]
    if orbit:
        options.append(("--orbit", {"required": True, "help": "orbit data JSON file"}))
    if group:
        options.append(("--group", {"default": "SU(2)", "help": "group label, e.g. SU(2)"}))
    return options + list(extra)


def build_parser():
    """The argument parser with every subcommand, for help and refusals.
    argparse is imported here, since the fast path of main needs none."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):
            print(f"error: {message}", file=sys.stderr)
            raise SystemExit(EXIT_INVALID)

    parser = _Parser(prog="torusfibre")
    parser.add_argument("--format", choices=FORMATS, default=None)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.set_defaults(func=COMMANDS[name][0])
        for flag, kwargs in _options(name):
            p.add_argument(flag, **kwargs)
    return parser


def _fast_parse(argv):
    """The namespace ``build_parser().parse_args(argv)`` returns when argv is
    an optional top-level --format, a command and exact long flags of that
    command, each given once as ``--flag value`` or ``--flag=value`` with a
    value that is not empty and does not start with "-"; None for anything
    else, which is left to argparse (help, usage errors, abbreviations)."""
    top = {}
    i = 0
    if argv and argv[0].partition("=")[0] == "--format":
        i = _fast_option(argv, 0, {"--format": {"choices": FORMATS}}, top)
    if i is None or i >= len(argv) or argv[i] not in COMMANDS:
        return None
    name = argv[i]
    options = dict(_options(name))
    given = {}
    i += 1
    while i is not None and i < len(argv):
        i = _fast_option(argv, i, options, given)
    if i is None:
        return None
    args = SimpleNamespace(format=top.get("--format"), command=name, func=COMMANDS[name][0])
    for flag, kwargs in options.items():
        if flag not in given and kwargs.get("required"):
            return None
        default = False if kwargs.get("action") == "store_true" else kwargs.get("default")
        setattr(args, kwargs.get("dest", flag[2:].replace("-", "_")), given.get(flag, default))
    return args


def _fast_option(argv, i, options, given):
    """Read the flag at argv[i], and its value, into ``given``; the index
    after them, or None unless the flag is one of ``options``, not yet in
    ``given`` and well-formed with a valid value."""
    flag, eq, value = argv[i].partition("=")
    kwargs = options.get(flag)
    if kwargs is None or flag in given:
        return None
    if kwargs.get("action") == "store_true":
        given[flag] = True
        return None if eq else i + 1
    if not eq:
        i += 1
        value = argv[i] if i < len(argv) else ""
    if not value or value[0] == "-":
        return None
    if "type" in kwargs:
        try:
            value = kwargs["type"](value)
        except ValueError:
            return None
    if "choices" in kwargs and value not in kwargs["choices"]:
        return None
    given[flag] = value
    return i + 1


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = _fast_parse(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
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
