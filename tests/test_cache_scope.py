"""Every functools cache in src/torusfibre is a module-level function of the
kind ``bench/run.py``'s ``program_caches()`` finds, so the benchmark empties
it before each op as a fresh CLI process starts without it.  A cache on a
method or in a closure would outlive that and time a warm process;
``cached_property``, one value per instance, is not such a cache."""

import ast
import importlib
import sys
from pathlib import Path

import torusfibre
import torusfibre.cli  # noqa: F401  (loads every module)

SRC = Path(torusfibre.__file__).resolve().parent
BENCH = Path(__file__).resolve().parent.parent / "bench"
CACHES = {"lru_cache", "cache"}


def _cached_functions(path):
    """The names of the module-level functions that a cache decorates; a use
    of lru_cache or cache anywhere else fails."""
    tree = ast.parse(path.read_text())
    decorating = {
        id(node): f.name
        for f in tree.body if isinstance(f, ast.FunctionDef)
        for d in f.decorator_list for node in ast.walk(d)
    }
    out = set()
    for node in ast.walk(tree):
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if name in CACHES:
            assert id(node) in decorating, (
                f"{path.name}:{node.lineno}: {name} outside the decorators of a module-level function"
            )
            out.add(decorating[id(node)])
    return out


def test_every_cache_is_one_the_benchmark_empties(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    run = importlib.import_module("run")
    found = {
        ("torusfibre" if path.stem == "__init__" else f"torusfibre.{path.stem}") + f".{name}"
        for path in SRC.glob("*.py") for name in _cached_functions(path)
    }
    assert found and found == set(run.program_caches())
