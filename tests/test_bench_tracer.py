"""The benchmark's layer tracer (bench/layertrace.py) wraps program functions
by name; a rename or move in src/ that drops one of its targets would only
show when the benchmark runs with --trace.  This installs the tracer over
the loaded package and removes it again, writing nothing under bench/."""

import importlib
import json
import sys
from pathlib import Path

import torusfibre.cli  # loads every module the tracer wraps
from torusfibre.exact import Cyclotomic

BENCH = Path(__file__).resolve().parent.parent / "bench"
GOLDEN = Path(__file__).resolve().parent / "golden"


def test_layer_tracer_targets_resolve(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    layertrace = importlib.import_module("layertrace")
    inverse = Cyclotomic.__dict__["inverse"]
    tracer = layertrace.Tracer()
    try:
        tracer.install()
        assert Cyclotomic.__dict__["inverse"] is not inverse
    finally:
        tracer.uninstall()
    assert Cyclotomic.__dict__["inverse"] is inverse


def test_layer_tracer_counts_localization(monkeypatch, capsys):
    """A traced contributions call on golden inputs with oracles reaches
    every localization counter, so a refactor that bypasses a wrapped
    function cannot leave its counter silently at 0, and every
    smooth_contribution call takes lambda_inverse_expansion once; stdout is
    the golden one."""
    case = "contributions_z4_su3"
    argv = json.loads((GOLDEN / "manifest.json").read_text())[case]["argv"]
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.chdir(GOLDEN)
    layertrace = importlib.import_module("layertrace")
    tracer = layertrace.Tracer()
    try:
        tracer.install()
        code = torusfibre.cli.main(argv)
    finally:
        tracer.uninstall()
    assert code == 0
    assert capsys.readouterr().out == (GOLDEN / f"{case}.out").read_text()
    for name in ("localization.smooth", "localization.lambda", "localization.point"):
        assert tracer.calls[name] > 0, name
    # every stratum, a point or not, takes lambda_inverse_expansion once
    assert tracer.calls["localization.lambda"] == tracer.calls["localization.smooth"]
    assert tracer.calls["strata.ranks"] > 0


def test_layer_tracer_counts_constructions(monkeypatch, capsys):
    """A traced invariant call at level 47 on the golden M5 inputs counts
    Cyclotomic constructions and sees the conductor of the evaluation,
    M = 2940; stdout is the golden one."""
    case = "invariant_m5_su2_k47"
    argv = json.loads((GOLDEN / "manifest.json").read_text())[case]["argv"]
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.chdir(GOLDEN)
    layertrace = importlib.import_module("layertrace")
    tracer = layertrace.Tracer()
    try:
        tracer.install()
        code = torusfibre.cli.main(argv)
    finally:
        tracer.uninstall()
    assert code == 0
    assert capsys.readouterr().out == (GOLDEN / f"{case}.out").read_text()
    assert tracer.calls["exact.construct"] > 0
    assert tracer.max_conductor == 2940
