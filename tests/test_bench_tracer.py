"""The benchmark's layer tracer (bench/layertrace.py) wraps program functions
by name; a rename or move in src/ that drops one of its targets would only
show when the benchmark runs with --trace.  This installs the tracer over
the loaded package and removes it again, writing nothing under bench/."""

import importlib
import sys
from pathlib import Path

import torusfibre.cli  # noqa: F401  (loads every module the tracer wraps)
from torusfibre.exact import Cyclotomic

BENCH = Path(__file__).resolve().parent.parent / "bench"


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
