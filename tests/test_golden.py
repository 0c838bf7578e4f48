"""Byte comparison of CLI stdout against recorded golden files.

``golden/manifest.json`` maps a case name to its argv (paths relative to
``golden/``) and exit code; ``golden/<case>.out`` holds the stdout.  `fit`
is not covered: its float digits are not part of the contract.

After an intended output change, re-record with ``python tests/test_golden.py``
and review the diff of ``tests/golden/``.
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"
MANIFEST = json.loads((GOLDEN / "manifest.json").read_text())


def _run(argv):
    from torusfibre.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("case", sorted(MANIFEST))
def test_golden_output(case, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    code, out = _run(MANIFEST[case]["argv"])
    assert code == MANIFEST[case]["exit"]
    assert out == (GOLDEN / f"{case}.out").read_text()


if __name__ == "__main__":
    sys.path.insert(0, str(GOLDEN.parent.parent / "src"))
    os.chdir(GOLDEN)
    for case, entry in MANIFEST.items():
        entry["exit"], out = _run(entry["argv"])
        Path(f"{case}.out").write_text(out)
    with open("manifest.json", "w") as fh:
        json.dump(MANIFEST, fh, sort_keys=True, indent=1)
        fh.write("\n")
