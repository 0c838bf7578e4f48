"""Every function and method defined in src/torusfibre has a caller in the
program.  The golden command lines, a noise-free fit, an argparse refusal and
a spectrum on an invalid orbit run through main under sys.setprofile, on the
empty caches that conftest's autouse fixture leaves (a cache hit never
enters its function); a definition that none of them calls fails the test
unless it is listed below with its reason."""

import ast
import cmath
import contextlib
import io
import json
import sys
from pathlib import Path

import torusfibre
from torusfibre import cli

SRC = Path(torusfibre.__file__).resolve().parent
GOLDEN = Path(__file__).resolve().parent / "golden"

# Read by bench/layertrace.py (Cyclotomic.coeffs for its size counters, the
# others wrapped by name); they leave src/ when in-program spans replace it.
TRACER_NAMES = {
    ("exact.py", "Cyclotomic.coeffs"),
    ("exact.py", "Cyclotomic.__truediv__"),
    ("spectrum.py", "lefschetz_trace"),
    ("spectrum.py", "mu_value"),
}
# Python's protocol for equality, hashing and display: kept consistent with
# each other and with the value semantics whether or not main uses them.
PROTOCOL = {"__eq__", "__hash__", "__repr__"}


def _definitions():
    """(file name, first line) -> (file name, qualified name) for every def
    in the package, nested ones with their ``<locals>`` path as in
    ``__qualname__``.  The first line is that of the code object: the first
    decorator's, if any."""
    out = {}

    def walk(node, prefix, name):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                out[name, first] = (name, prefix + child.name)
                walk(child, f"{prefix}{child.name}.<locals>.", name)
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.", name)

    for path in SRC.glob("*.py"):
        walk(ast.parse(path.read_text()), "", path.name)
    return out


def _runs(tmp_path):
    """(argv, expected exit code) for every run, relative to golden/."""
    manifest = json.loads((GOLDEN / "manifest.json").read_text())
    runs = [(entry["argv"], entry["exit"]) for _, entry in sorted(manifest.items())]
    samples = tmp_path / "samples.csv"
    samples.write_text("k,re,im\n" + "".join(
        f"{k},{v.real!r},{v.imag!r}\n"
        for k, v in ((k, (k + 1) * cmath.exp(2j * cmath.pi * k / 3)) for k in range(1, 41))
    ))
    fit = ["fit", "--samples", str(samples), "--qmax", "10", "--terms", "1", "--degree", "1"]
    runs.append((fit, 0))
    runs.append((["strata", "--group", "SU(2)"], 1))  # no --orbit: argparse refuses
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "m": 4, "quotient_genus": 0, "branches": [{"l": 4, "n": 1}, {"l": 3, "n": 1}],
    }))
    runs.append((["spectrum", "--orbit", str(bad)], 1))
    return runs


def test_every_definition_is_reached(monkeypatch, tmp_path):
    runs = _runs(tmp_path)
    monkeypatch.chdir(GOLDEN)
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            called.add((code.co_filename, code.co_firstlineno))

    codes = []
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for argv, _ in runs:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                codes.append(cli.main(argv))
    finally:
        sys.setprofile(previous)
    assert codes == [code for _, code in runs]

    where = _definitions()
    defined = set(where.values())
    reached = {
        where[Path(filename).name, line]
        for filename, line in called
        if Path(filename).resolve().parent == SRC and (Path(filename).name, line) in where
    }
    assert TRACER_NAMES <= defined
    assert not TRACER_NAMES & reached, "reached now: drop them from TRACER_NAMES"
    unreached = {
        (name, qualname)
        for name, qualname in defined - reached - TRACER_NAMES
        if qualname.rpartition(".")[2] not in PROTOCOL
    }
    assert not unreached, sorted(unreached)
