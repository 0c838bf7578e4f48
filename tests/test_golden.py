"""Byte comparison of CLI stdout against recorded golden files.

``golden/manifest.json`` maps a case name to its argv (paths relative to
``golden/``) and exit code; ``golden/<case>.out`` holds the stdout.  `fit`
is not covered: its float digits are not part of the contract.

After an intended output change, re-record with ``python tests/test_golden.py``
and review the diff of ``tests/golden/``: it prints ``changed: <case>`` for
every case whose stdout or exit code changed, and rewrites only the files
of those cases (the manifest only when an exit code changed).
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


def test_calls_in_a_row_share_nothing(monkeypatch):
    """Calls in a row share only their caches of pure values: Z4 SU(3)
    contributions, then an M5 invariant, then Z4 SU(3) again, all in one
    process, each give their golden bytes."""
    monkeypatch.chdir(GOLDEN)
    for case in ("contributions_z4_su3", "invariant_m5_su2_k50", "contributions_z4_su3"):
        code, out = _run(MANIFEST[case]["argv"])
        assert code == MANIFEST[case]["exit"]
        assert out == (GOLDEN / f"{case}.out").read_text()


def test_localization_builds_no_fraction(monkeypatch):
    """CohomologyOracle.from_json and smooth_contribution run on integers:
    the Z4 SU(3) level-1 invariant builds no Fraction inside either (12372
    before the integer basis), and its stdout is still the golden one."""
    from conftest import hook_fractions
    from torusfibre import cli
    from torusfibre.localization import CohomologyOracle

    depth, inside, outside = [0], [], []

    def tracked(f):
        def run(*args, **kwargs):
            depth[0] += 1
            try:
                return f(*args, **kwargs)
            finally:
                depth[0] -= 1

        return run

    monkeypatch.setattr(cli, "smooth_contribution", tracked(cli.smooth_contribution))
    from_json = tracked(CohomologyOracle.from_json.__func__)
    monkeypatch.setattr(CohomologyOracle, "from_json", classmethod(from_json))
    hook_fractions(monkeypatch, lambda args: (inside if depth[0] else outside).append(args))
    monkeypatch.chdir(GOLDEN)
    case = "invariant_z4_su3_k1"
    code, out = _run(MANIFEST[case]["argv"])
    assert code == 0
    assert out == (GOLDEN / f"{case}.out").read_text()
    assert outside, "the hook saw no Fraction at all"
    assert len(inside) == 0


def test_localization_takes_no_product_known_in_advance(monkeypatch):
    """The Z4 SU(3) level-1 invariant, with its golden stdout, takes no
    series product whose result is known before it is formed: every
    product of the integrand exponential (localization._times) is nonzero
    and neither factor is the unit.  A^n of the exponent A first vanishes
    at n low > top, low its least degree, so no product is taken from
    there on.  The point route inverts each 1 - zeta_m^i once, whatever
    power of it a stratum needs: at most 3 inversions for m = 4.  At most
    101 products are taken."""
    from torusfibre import localization
    from torusfibre.exact import Cyclotomic

    products, inverted = [], []
    times, inverse = localization._times, Cyclotomic.inverse

    def counted_times(basis, a, b, m):
        out = times(basis, a, b, m)
        unit = [[1] + [0] * (len(basis.degree) - 1)]
        products.append((a == unit or b == unit, any(map(any, out))))
        return out

    def counted_inverse(self):
        inverted.append((self.conductor, self.numerators, self.denominator))
        return inverse(self)

    monkeypatch.setattr(localization, "_times", counted_times)
    monkeypatch.setattr(Cyclotomic, "inverse", counted_inverse)
    monkeypatch.chdir(GOLDEN)
    case = "invariant_z4_su3_k1"
    code, out = _run(MANIFEST[case]["argv"])
    assert code == 0
    assert out == (GOLDEN / f"{case}.out").read_text()
    assert products and all(nonzero and not unit for unit, nonzero in products)
    assert len(products) <= 101
    assert len(set(inverted)) == len(inverted) <= 3


if __name__ == "__main__":
    sys.path.insert(0, str(GOLDEN.parent.parent / "src"))
    os.chdir(GOLDEN)
    exits_changed = False
    for case, entry in MANIFEST.items():
        code, out = _run(entry["argv"])
        path = Path(f"{case}.out")
        if code == entry.get("exit") and path.exists() and path.read_text() == out:
            continue
        print(f"changed: {case}")
        exits_changed |= code != entry.get("exit")
        entry["exit"] = code
        path.write_text(out)
    if exits_changed:
        with open("manifest.json", "w") as fh:
            json.dump(MANIFEST, fh, sort_keys=True, indent=1)
            fh.write("\n")
