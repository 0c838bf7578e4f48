"""Start-up cost and the value classes that keep it low.

Every CLI call is a fresh process, so what importing the package costs is
paid on every call: the package generates no code at import (its value
classes share one ``Value`` base, whose ``==``, ``hash`` and ``repr`` go by
the fields each class lists, and no dataclasses), numpy is loaded only by
``fit``, mpmath only by ``Cyclotomic.to_float64`` (``invariant --level``), and
argparse only when a command line leaves the fast path of ``cli.main`` (help
and usage errors).  The classes keep the value semantics the dataclasses gave
them.
"""

import ast
import json
import os
import subprocess
import sys
from fractions import Fraction
from functools import cached_property
from pathlib import Path

import pytest

from torusfibre import localization
from torusfibre.exact import Cyclotomic, PhaseQ
from torusfibre.expansion import FitResult, InvariantModel
from torusfibre.framing import FramingPhase, GroupData
from torusfibre.localization import CohomologyOracle, ContributionPolynomial
from torusfibre.orbit import OrbitData, SeifertData
from torusfibre.spectrum import EigenSpectrum
from torusfibre.strata import ConjClassSU, StratumDescriptor
from torusfibre.value import Value

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = Path(__file__).resolve().parents[1] / "src"
MANIFEST = json.loads((GOLDEN / "manifest.json").read_text())

# Runs the golden cases named on the command line through main, each
# checked against its recorded stdout and exit code, then prints which of
# numpy, mpmath and argparse are loaded and which torusfibre classes are
# dataclasses.
PROBE = """
import contextlib, io, json, sys
from pathlib import Path
from torusfibre.cli import main

manifest = json.loads(Path("manifest.json").read_text())
for case in sys.argv[1:]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(manifest[case]["argv"])
    assert code == manifest[case]["exit"], case
    assert out.getvalue() == Path(case + ".out").read_text(), case
print(json.dumps({
    "loaded": sorted(m for m in ("numpy", "mpmath", "argparse") if m in sys.modules),
    "dataclasses": sorted(
        f"{name}.{cls.__qualname__}"
        for name, module in list(sys.modules.items())
        if name == "torusfibre" or name.startswith("torusfibre.")
        for cls in vars(module).values()
        if isinstance(cls, type) and hasattr(cls, "__dataclass_fields__")
    ),
}))
"""


def _fresh_process(cases):
    path = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *cases],
        cwd=GOLDEN, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _command(case):
    """The subcommand of a golden case, after an optional top-level --format."""
    argv = MANIFEST[case]["argv"]
    return argv[2] if argv[0] == "--format" else argv[0]


def _cases(*commands):
    return [case for case in sorted(MANIFEST) if _command(case) in commands]


EXACT = ("validate", "seifert", "spectrum", "framing", "strata", "contributions")


def test_exact_commands_load_neither_numpy_nor_mpmath():
    cases = _cases(*EXACT)
    assert {_command(case) for case in cases} == set(EXACT)
    assert _fresh_process(cases) == {"loaded": [], "dataclasses": []}


def test_invariant_at_a_level_loads_mpmath_but_not_numpy():
    cases = [case for case in _cases("invariant") if "--level" in MANIFEST[case]["argv"]]
    # with the test above, every golden case runs, and none loads argparse
    assert len(cases) + len(_cases(*EXACT)) == len(MANIFEST)
    assert _fresh_process(cases) == {"loaded": ["mpmath"], "dataclasses": []}


def _values():
    """(class, build, hashable, repr) for every value class: build() makes a
    new instance, equal in every field to the one before; the formerly frozen
    dataclasses are hashable; repr is the instance's, written out."""
    c = ConjClassSU.from_residues(2, [1, 3], 4)
    term = ContributionPolynomial([Cyclotomic.from_rational(1, 2)], PhaseQ(Fraction(1, 3)))
    framing = FramingPhase(Fraction(-3, 8), GroupData(2))
    c_text = "ConjClassSU(N=2, residues=(1, 3), denominator=4)"
    term_text = "ContributionPolynomial(coefficients=[1], q=1/3 mod 1)"
    return [
        (
            OrbitData, lambda: OrbitData(4, 0, [[4, 1], [4, 3]]), True,
            "OrbitData(m=4, quotient_genus=0, branches=((4, 1), (4, 3)))",
        ),
        (
            SeifertData, lambda: SeifertData(-1, 0, ((4, 1), (4, 3))), True,
            "SeifertData(b=-1, base_genus=0, pairs=((4, 1), (4, 3)))",
        ),
        (GroupData, lambda: GroupData(3), True, "GroupData(N=3)"),
        (
            FramingPhase, lambda: FramingPhase(Fraction(-3, 8), GroupData(2)), True,
            "FramingPhase(B=Fraction(-3, 8), group=GroupData(N=2))",
        ),
        (
            EigenSpectrum, lambda: EigenSpectrum(4, (0, 1, 0, 1)), True,
            "EigenSpectrum(m=4, d=(0, 1, 0, 1))",
        ),
        (
            ConjClassSU, lambda: ConjClassSU.from_residues(2, [3, 1], 4), True,
            "ConjClassSU(N=2, residues=(1, 3), denominator=4)",
        ),
        (
            StratumDescriptor,
            lambda: StratumDescriptor(0, (c, c), 2, (c, c), (1, 0, 0, 0), 0),
            True,
            f"StratumDescriptor(z=0, classes=({c_text}, {c_text}), z_delta_order=2, "
            f"c_delta=({c_text}, {c_text}), ranks=(1, 0, 0, 0), d_c=0)",
        ),
        (
            CohomologyOracle, CohomologyOracle.trivial, False,
            "CohomologyOracle(d_c=0, degrees=[], pairing={(): (1, 1)}, tangent_chern=[], "
            "tangent_rank=0, eigen_chern={}, omega={})",
        ),
        (
            ContributionPolynomial,
            lambda: ContributionPolynomial(list(term.coefficients), term.q),
            False,
            term_text,
        ),
        (
            InvariantModel, lambda: InvariantModel(framing, [term]), False,
            "InvariantModel(framing=FramingPhase(B=Fraction(-3, 8), group=GroupData(N=2)), "
            f"terms=[{term_text}])",
        ),
        (
            FitResult, lambda: FitResult([{"q": Fraction(1, 3), "b": 1j}], 0.0), False,
            "FitResult(terms=[{'q': Fraction(1, 3), 'b': 1j}], residual=0.0)",
        ),
    ]


VALUES = _values()
IDS = [v[0].__name__ for v in VALUES]


@pytest.mark.parametrize("cls, build, hashable, text", VALUES, ids=IDS)
def test_value_semantics(cls, build, hashable, text):
    """Equal fields give equal objects with equal reprs; the formerly frozen
    classes hash by their fields and the mutable ones are unhashable."""
    a, b = build(), build()
    assert type(a) is cls and a is not b
    assert a == b and not a != b
    assert a != object()
    assert repr(a) == repr(b) and repr(a).startswith(cls.__name__ + "(")
    assert repr(a) == text
    # __slots__ everywhere but where cached properties need a __dict__
    assert hasattr(a, "__dict__") == (cls is CohomologyOracle)
    if hashable:
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)


@pytest.mark.parametrize("cls, build, hashable, text", VALUES, ids=IDS)
def test_fields_are_what_init_sets(cls, build, hashable, text):
    """``_fields``, which ``==``, ``hash`` and ``repr`` go by, names every
    attribute that ``__init__`` sets, in order, and ``_key`` reads them: a
    field left out would be ignored by all three."""
    obj = build()
    if "__slots__" in cls.__dict__:
        assert cls._fields == cls.__slots__
        assert all(hasattr(obj, name) for name in cls._fields)
    else:
        cached = {name for name, v in vars(cls).items() if isinstance(v, cached_property)}
        assert tuple(name for name in vars(obj) if name not in cached) == cls._fields
    key = cls._key(obj)
    values = key if len(cls._fields) > 1 else (key,)
    assert len(values) == len(cls._fields)
    assert all(v is getattr(obj, name) for v, name in zip(values, cls._fields))
    # the 4 mutable classes, and only they, are unhashable
    assert (cls.__hash__ is None) == (not hashable)


def test_every_value_class_is_listed():
    assert set(Value.__subclasses__()) == {cls for cls, *_ in VALUES}


# Cyclotomic equals ints and Fractions and is unhashable; PhaseQ compares
# mod 1 and hashes as ("PhaseQ", q).  No other class writes the protocol.
PROTOCOL_WRITERS = {"Value", "Cyclotomic", "PhaseQ"}


def test_only_the_value_base_writes_the_protocol():
    writers = {
        cls.name
        for path in (SRC / "torusfibre").glob("*.py")
        for cls in ast.walk(ast.parse(path.read_text()))
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and node.name in ("__eq__", "__hash__", "__repr__")
    }
    assert writers == PROTOCOL_WRITERS


def test_an_equal_class_hits_the_eigen_rank_cache():
    first, second = (ConjClassSU.from_residues(3, [1, 2, 3], 6) for _ in range(2))
    assert first == second and first is not second
    eigen_ranks = localization._eigen_ranks
    value = eigen_ranks(6, 1, 2, first)
    before = eigen_ranks.cache_info()
    assert eigen_ranks(6, 1, 2, second) == value
    after = eigen_ranks.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
