import cmath
import json
import re
import warnings
from pathlib import Path

import pytest

from conftest import hook_fractions
from torusfibre.cli import main

HYPER_JSON = {
    "m": 2,
    "quotient_genus": 0,
    "branches": [{"l": 2, "n": 1}] * 6,
}
M5_JSON = {
    "m": 5,
    "quotient_genus": 0,
    "branches": [{"l": 5, "n": 1}, {"l": 5, "n": 1}, {"l": 5, "n": 2}],
}
Z4_JSON = {
    "m": 4,
    "quotient_genus": 0,
    "branches": [{"l": 4, "n": 1}] * 4,
}
BAD_JSON = {
    "m": 4,
    "quotient_genus": 0,
    "branches": [{"l": 4, "n": 1}, {"l": 3, "n": 1}],
}


@pytest.fixture
def orbit_file(tmp_path):
    def write(obj, name="orbit.json"):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(orbit_file, capsys):
    code, out, _ = run(capsys, "validate", "--orbit", orbit_file(HYPER_JSON))
    assert code == 0
    report = json.loads(out)
    assert report["valid"] is True
    assert report["genus"] == 2


def test_validate_failure_exit_code(orbit_file, capsys):
    code, out, _ = run(capsys, "validate", "--orbit", orbit_file(BAD_JSON))
    assert code == 1
    report = json.loads(out)
    assert report["valid"] is False
    assert report["checks"]["divisibility"]["pass"] is False


def test_orbit_order_above_the_ceiling_is_invalid(orbit_file, capsys):
    """An order too large to handle is refused by validate (exit 1, the
    order check failed with a message) and by spectrum before it loops over
    the order; MAX_ORDER itself is valid."""
    from torusfibre.orbit import MAX_ORDER

    for m in (10**12, MAX_ORDER + 1):
        orbit = orbit_file({"m": m, "quotient_genus": 2, "branches": []})
        code, out, _ = run(capsys, "validate", "--orbit", orbit)
        report = json.loads(out)
        assert (code, report["valid"]) == (1, False)
        assert f"order m = {m} must be at least 2 and at most {MAX_ORDER}" in (
            report["checks"]["order"]["message"]
        )
        code, out, err = run(capsys, "spectrum", "--orbit", orbit)
        assert (code, out) == (1, "")
        assert f"order m = {m}" in err and "Traceback" not in err
    edge = orbit_file({"m": MAX_ORDER, "quotient_genus": 2, "branches": []})
    code, out, _ = run(capsys, "validate", "--orbit", edge)
    assert code == 0 and json.loads(out)["valid"] is True


def test_missing_file_is_io_error(capsys):
    code, _, err = run(capsys, "validate", "--orbit", "/nonexistent/orbit.json")
    assert code == 3
    assert "i/o error" in err


def test_malformed_json_is_io_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, _ = run(capsys, "validate", "--orbit", str(path))
    assert code == 3


def test_bad_arguments_exit_one(capsys):
    code, _, _ = run(capsys, "validate")  # missing --orbit
    assert code == 1
    code, _, _ = run(capsys, "nosuchcommand")
    assert code == 1


def test_top_level_list_is_invalid_input(orbit_file, capsys):
    code, _, err = run(capsys, "validate", "--orbit", orbit_file([HYPER_JSON]))
    assert code == 1
    assert "invalid input" in err


def test_missing_orbit_field_is_invalid_input(orbit_file, capsys):
    for key in ("m", "quotient_genus"):
        obj = {k: v for k, v in HYPER_JSON.items() if k != key}
        code, _, err = run(capsys, "seifert", "--orbit", orbit_file(obj))
        assert code == 1
        assert f"'{key}'" in err


def test_branch_without_l_or_n_is_invalid_input(orbit_file, capsys):
    for key in ("l", "n"):
        obj = dict(HYPER_JSON, branches=[{key: 2}] * 6)
        code, _, err = run(capsys, "spectrum", "--orbit", orbit_file(obj))
        assert code == 1
        assert "invalid input" in err


def test_fractional_rotation_number_is_invalid_input(orbit_file, capsys):
    obj = dict(Z4_JSON, branches=[{"l": 4, "n": 1.7}] + Z4_JSON["branches"][1:])
    code, out, err = run(capsys, "validate", "--orbit", orbit_file(obj))
    assert code == 1
    assert out == ""
    assert "branches[0].n" in err and "1.7" in err


def test_string_order_is_invalid_input(orbit_file, capsys):
    code, _, err = run(capsys, "validate", "--orbit", orbit_file(dict(HYPER_JSON, m="2")))
    assert code == 1
    assert "orbit field m is '2', not an integer" in err


def test_boolean_quotient_genus_is_invalid_input(orbit_file, capsys):
    obj = dict(HYPER_JSON, quotient_genus=True)
    code, _, err = run(capsys, "spectrum", "--orbit", orbit_file(obj))
    assert code == 1
    assert "orbit field quotient_genus is True, not an integer" in err


def test_overflowing_order_is_invalid_input(tmp_path, capsys):
    path = tmp_path / "orbit.json"
    path.write_text('{"m": 1e400, "quotient_genus": 0, "branches": []}')
    code, _, err = run(capsys, "seifert", "--orbit", str(path))
    assert code == 1
    assert "orbit field m is inf, not an integer" in err


def test_deeply_nested_json_is_io_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    code, out, err = run(capsys, "validate", "--orbit", str(path))
    assert code == 3
    assert out == ""
    assert err.startswith("i/o error: ") and "nested too deeply" in err


@pytest.mark.parametrize("command", ["validate", "seifert", "spectrum", "strata"])
def test_crlf_line_ends_give_the_same_output(tmp_path, capsys, command):
    text = json.dumps(HYPER_JSON, indent=2) + "\n"
    (tmp_path / "lf.json").write_bytes(text.encode())
    (tmp_path / "crlf.json").write_bytes(text.replace("\n", "\r\n").encode())
    lf = run(capsys, command, "--orbit", str(tmp_path / "lf.json"))
    assert lf[0] == 0
    assert run(capsys, command, "--orbit", str(tmp_path / "crlf.json")) == lf


def test_utf8_byte_order_mark_is_io_error(tmp_path, capsys):
    # RFC 8259 forbids a BOM in exchanged JSON text; it is not skipped
    path = tmp_path / "bom.json"
    path.write_bytes(b"\xef\xbb\xbf" + json.dumps(HYPER_JSON).encode())
    code, out, err = run(capsys, "validate", "--orbit", str(path))
    assert (code, out) == (3, "")
    assert err == (
        "i/o error: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)\n"
    )


def test_bytes_that_are_not_utf8_are_invalid_input(tmp_path, capsys):
    text = json.dumps(HYPER_JSON).encode()
    path = tmp_path / "latin.json"
    path.write_bytes(text[:10] + b"\xff" + text[10:])
    code, out, err = run(capsys, "seifert", "--orbit", str(path))
    assert (code, out) == (1, "")
    assert err == (
        "invalid input: 'utf-8' codec can't decode byte 0xff in position 10: "
        "invalid start byte\n"
    )


def test_fit_byte_order_mark_changes_no_sample(tmp_path, monkeypatch, capsys):
    # a header-less file: the BOM must not turn line 1 into a header
    import torusfibre.cli as cli

    fitted, fit = [], cli.fit_expansion
    monkeypatch.setattr(cli, "fit_expansion", lambda samples, **kw: fitted.append(samples) or fit(samples, **kw))
    text = "".join(f"{k},{2.0 * k + 1},0.5\r\n" for k in range(1, 41)).encode()
    outs = []
    for name, data in (("plain.csv", text), ("bom.csv", b"\xef\xbb\xbf" + text)):
        (tmp_path / name).write_bytes(data)
        outs.append(run(capsys, "fit", "--samples", str(tmp_path / name), "--qmax", "10", "--terms", "1"))
    assert outs[0][0] == 0 and outs[0] == outs[1]
    assert fitted[0] == fitted[1]
    assert [k for k, _ in fitted[0]] == list(range(1, 41))


def test_fit_bytes_that_are_not_utf8_are_invalid_input(tmp_path, capsys):
    path = tmp_path / "latin.csv"
    path.write_bytes(b"k,re,im\n1,1.0,0.0\n2,2.0,0.0 \xe9\n")
    code, out, err = run(capsys, "fit", "--samples", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("invalid input: 'utf-8' codec can't decode byte 0xe9 in position 28")


def test_short_fit_sample_line_is_invalid_input(tmp_path, capsys):
    path = tmp_path / "samples.csv"
    path.write_text("k,re,im\n1,1.0\n")
    code, _, err = run(capsys, "fit", "--samples", str(path))
    assert code == 1
    assert "1,1.0" in err


def test_seifert_hyperelliptic(orbit_file, capsys):
    code, out, _ = run(capsys, "seifert", "--orbit", orbit_file(HYPER_JSON))
    assert code == 0
    obj = json.loads(out)
    assert obj["b"] == -3
    assert obj["pairs"] == [[2, 1]] * 6
    assert obj["euler"] == "0"


def test_spectrum_z4(orbit_file, capsys):
    code, out, _ = run(capsys, "spectrum", "--orbit", orbit_file(Z4_JSON))
    assert code == 0
    obj = json.loads(out)
    assert obj["d"] == [0, 0, 1, 2]
    assert obj["wall_signature"] == -2


def test_framing_with_level_and_series(orbit_file, capsys):
    code, out, _ = run(
        capsys,
        "framing",
        "--orbit",
        orbit_file(Z4_JSON),
        "--group",
        "SU(2)",
        "--level",
        "2",
        "--truncation",
        "2",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["B"] == "3/4"
    assert obj["phase_at_k"] == "3/8 mod 1"
    assert "series" in obj


def test_strata_hyperelliptic_count(orbit_file, capsys):
    code, out, _ = run(capsys, "strata", "--orbit", orbit_file(HYPER_JSON))
    assert code == 0
    obj = json.loads(out)
    assert obj["count"] == 33
    assert len(obj["strata"]) == 33


def test_contributions_m5(orbit_file, capsys):
    code, out, _ = run(capsys, "contributions", "--orbit", orbit_file(M5_JSON))
    assert code == 0
    entries = json.loads(out)
    assert len(entries) == 27
    assert sum(1 for e in entries if "coefficients" in e) == 8
    assert all("empty" in e or "coefficients" in e for e in entries)


def test_invariant_strict_needs_oracles(orbit_file, capsys):
    # hyperelliptic strata are positive-dimensional: strict mode refuses
    code, _, err = run(capsys, "invariant", "--orbit", orbit_file(HYPER_JSON))
    assert code == 1
    assert "oracle" in err


def test_invariant_m5_with_level(orbit_file, tmp_path, capsys):
    cs = tmp_path / "cs.json"
    cs.write_text(json.dumps({str(i): "0" for i in range(27)}))
    code, out, _ = run(
        capsys,
        "invariant",
        "--orbit",
        orbit_file(M5_JSON),
        "--cs-phases",
        str(cs),
        "--level",
        "3",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["terms"]
    val = obj["value"]
    assert val["level"] == 3
    assert abs(val["numeric"][0]) < 1e6  # finite, parsed


def test_fit_roundtrip(tmp_path, capsys):
    path = tmp_path / "samples.csv"
    lines = ["k,re,im"]
    for k in range(1, 41):
        z = cmath.exp(2j * cmath.pi * k / 3) * (2 * k + 1)
        lines.append(f"{k},{z.real!r},{z.imag!r}")
    path.write_text("\n".join(lines))
    code, out, _ = run(
        capsys, "fit", "--samples", str(path), "--qmax", "10", "--terms", "1",
        "--degree", "1",
    )
    assert code == 0
    obj = json.loads(out)
    assert len(obj["terms"]) == 1
    assert obj["terms"][0]["q"] == "1/3"
    assert obj["terms"][0]["d"] == "1"


def test_table_format_smoke(orbit_file, capsys):
    code, out, _ = run(
        capsys, "--format", "table", "spectrum", "--orbit", orbit_file(Z4_JSON)
    )
    assert code == 0
    assert "wall_signature: -2" in out
    assert "{" not in out


def test_output_is_deterministic(orbit_file, capsys):
    path = orbit_file(M5_JSON)
    outputs = set()
    for _ in range(3):
        code, out, _ = run(capsys, "strata", "--orbit", path)
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


GOLDEN_INPUTS = Path(__file__).parent / "golden" / "inputs"


def _invariant_z4(capsys, tmp_path, cs=None, oracles=None):
    """invariant on Z4 SU(2) with the golden inputs, either replaced by the
    given JSON value."""
    paths = {}
    for name, value in (("cs", cs), ("oracles", oracles)):
        path = GOLDEN_INPUTS / f"z4_su2_{name}.json"
        if value is not None:
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(value))
        paths[name] = str(path)
    return run(
        capsys, "invariant", "--orbit", str(GOLDEN_INPUTS / "z4.json"),
        "--cs-phases", paths["cs"], "--oracles", paths["oracles"], "--level", "5",
    )


def test_cs_phases_top_level_list_is_invalid_input(tmp_path, capsys):
    code, _, err = _invariant_z4(capsys, tmp_path, cs=["1/12", "1/6"])
    assert code == 1
    assert "cs-phases must be a JSON object" in err


def test_cs_phase_zero_denominator_is_invalid_input(tmp_path, capsys):
    cs = json.loads((GOLDEN_INPUTS / "z4_su2_cs.json").read_text())
    cs["3"] = "1/0"
    code, _, err = _invariant_z4(capsys, tmp_path, cs=cs)
    assert code == 1
    assert "'3'" in err and "1/0" in err


@pytest.mark.parametrize("value", [None, True, [1, 12], {"p": 1}])
def test_cs_phase_of_wrong_type_is_invalid_input(tmp_path, capsys, value):
    cs = json.loads((GOLDEN_INPUTS / "z4_su2_cs.json").read_text())
    cs["3"] = value
    code, _, err = _invariant_z4(capsys, tmp_path, cs=cs)
    assert code == 1
    assert "not a string p/q or a number" in err


def _invariant_m5_k5(monkeypatch, capsys, tmp_path, cs):
    """The golden M5 SU(2) invariant at level 5 with its --cs-phases map
    replaced by cs."""
    path = tmp_path / "cs.json"
    path.write_text(json.dumps(cs))
    monkeypatch.chdir(GOLDEN_INPUTS.parent)
    argv = json.loads((GOLDEN_INPUTS.parent / "manifest.json").read_text())["invariant_m5_su2_k5"]["argv"]
    return run(capsys, *[str(path) if a.endswith("_cs.json") else a for a in argv])


def test_cs_phase_with_a_huge_exponent_is_refused_unparsed(monkeypatch, tmp_path, capsys):
    """A decimal exponent beyond 4300 digits' worth is refused before any
    number is built from it (Fraction took 29 s on this one and exited 0)."""
    literals = []
    hook_fractions(monkeypatch, literals.extend)
    cs = json.loads((GOLDEN_INPUTS / "m5_su2_cs.json").read_text())
    cs["0"] = "1e20000000"
    code, out, err = _invariant_m5_k5(monkeypatch, capsys, tmp_path, cs)
    assert (code, out) == (1, "")
    assert "cs-phase '0' = '1e20000000': decimal exponent 20000000 is beyond 4300" in err
    assert "1e20000000" not in literals


def test_oracle_pairing_with_a_huge_exponent_is_refused_unparsed(monkeypatch, tmp_path, capsys):
    """The same for an oracle pairing value, which used to run the whole
    computation and fail only when the output was written."""
    literals = []
    hook_fractions(monkeypatch, literals.extend)
    oracles = json.loads((GOLDEN_INPUTS / "z4_su2_oracles.json").read_text())
    (key,) = oracles["40"]["pairing"]
    oracles["40"]["pairing"][key] = "1e3000000"
    code, out, err = _invariant_z4(capsys, tmp_path, oracles=oracles)
    assert (code, out) == (1, "")
    assert f"stratum 40: oracle pairing {key!r} = '1e3000000': decimal exponent" in err
    assert "1e3000000" not in literals


@pytest.mark.parametrize("entry", [
    {"d_c": -1},
    {"d_c": 3000, "generators": [{"name": "u", "degree": 2}], "chern": {"omega": {"u": "1"}}},
], ids=["negative", "large"])
def test_oracle_of_another_dimension_builds_no_basis(monkeypatch, tmp_path, capsys, entry):
    """An oracle whose d_c is not its stratum's is refused with the
    dimension message before its basis, whose size grows with d_c, is
    built."""
    import torusfibre.localization as localization

    tops = []
    basis = localization._Basis
    monkeypatch.setattr(localization, "_Basis", lambda degrees, top: tops.append(top) or basis(degrees, top))
    oracles = json.loads((GOLDEN_INPUTS / "z4_su2_oracles.json").read_text())
    oracles["40"] = entry
    code, out, err = _invariant_z4(capsys, tmp_path, oracles=oracles)
    assert (code, out) == (1, "")
    assert f"oracle dimension {entry['d_c']} does not match stratum d_c = 1" in err
    assert tops and 2 * entry["d_c"] not in tops


def test_oversized_oracle_basis_is_refused_from_its_predicted_size(monkeypatch, tmp_path, capsys):
    """Sixteen generators of degree 1 on the d_c = 4 stratum 63 of HYPER
    SU(3) would make a basis of 735471 monomials; it is refused from the
    predicted counts, unbuilt."""
    import torusfibre.localization as localization

    basis = localization._Basis

    def point_bases_only(degrees, top):
        assert top == 0, "_Basis built"
        return basis(degrees, top)

    monkeypatch.setattr(localization, "_Basis", point_bases_only)
    names = [f"g{i}" for i in range(16)]
    oracle = {"d_c": 4, "generators": [{"name": n, "degree": 1} for n in names], "pairing": {"g0^8": "1"},
              "chern": {"T_c": {"rank": 4}, "omega": dict.fromkeys(names, "1")}}
    path = tmp_path / "oracles.json"
    path.write_text(json.dumps({"63": oracle}))
    code, out, err = run(capsys, "contributions", "--orbit", str(GOLDEN_INPUTS / "hyper.json"),
                         "--group", "SU(3)", "--oracles", str(path))
    assert (code, out) == (1, "")
    assert "has 735471 monomials and 76904685 products, more than MAX_BASIS_PRODUCTS" in err


def test_huge_oracle_top_degree_is_refused_before_any_list(monkeypatch, tmp_path, capsys):
    """Stratum 0 of two fixed points of order 2 over a quotient of genus
    10**30 has d_c = 3 10**30 - 3; an oracle of one generator of degree
    2 d_c is refused from its top degree, before the basis is counted or
    built."""
    import torusfibre.localization as localization

    def unbuilt(*args):
        raise AssertionError("basis counted or built")

    monkeypatch.setattr(localization, "_basis_size", unbuilt)
    monkeypatch.setattr(localization, "_Basis", unbuilt)
    d_c = 3 * 10**30 - 3
    orbit = tmp_path / "orbit.json"
    orbit.write_text(json.dumps({"m": 2, "quotient_genus": 10**30, "branches": [{"l": 2, "n": 1}] * 2}))
    oracles = tmp_path / "oracles.json"
    oracles.write_text(json.dumps({"0": {"d_c": d_c, "generators": [{"name": "x", "degree": 2 * d_c}],
                                         "pairing": {"x": 1}}}))
    code, out, err = run(capsys, "contributions", "--orbit", str(orbit), "--group", "SU(2)",
                         "--oracles", str(oracles))
    assert (code, out) == (1, "")
    assert f"degree <= {2 * d_c}: its degree lists have {2 * d_c + 1} entries, more than MAX_BASIS_PRODUCTS" in err


def test_one_branch_type_reads_its_eigen_ranks_once(tmp_path, capsys):
    """2**16 fixed points of one type over a genus-0 quotient: the SU(1)
    invariant sums the eigen ranks of the one (n, class) once, times its
    count, and builds no table of m**2 weights."""
    from torusfibre.localization import _eigen_ranks

    m = 2**16
    path = tmp_path / "orbit.json"
    path.write_text(json.dumps({"m": m, "quotient_genus": 0, "branches": [{"l": m, "n": 1}] * m}))
    code, out, _ = run(capsys, "invariant", "--orbit", str(path), "--group", "SU(1)")
    assert code == 0
    assert _eigen_ranks.cache_info().misses == 1
    (term,) = json.loads(out)["terms"]
    assert term["coefficients"] == [{"conductor": m, "coeffs": ["1"] + ["0"] * (m // 2 - 1)}]


# m = 2**16 with 66 fixed points of distinct rotation numbers n = +-1, +-3,
# ..., +-65 mod m: realizable (the inverses of n and m - n sum to m), over a
# genus-0 quotient.
MANY_TYPES_JSON = {
    "m": 2**16,
    "quotient_genus": 0,
    "branches": [{"l": 2**16, "n": n} for k in range(1, 67, 2) for n in (k, 2**16 - k)],
}


SPECTRUM_TERMS = "spectrum of 66 distinct branch types (l, n): 4325310 terms"  # 65535 * 66
STRATA_TERMS = "SU(1) strata sums of 66 distinct branch types (l, n): 4325376 terms"  # 65536 * 66


@pytest.mark.parametrize("argv, size", [
    (["spectrum"], SPECTRUM_TERMS),
    (["framing", "--level", "3"], SPECTRUM_TERMS),
    (["strata", "--group", "SU(1)"], STRATA_TERMS),
    (["invariant", "--group", "SU(1)", "--level", "3"], STRATA_TERMS),
])
def test_many_branch_types_are_refused_from_the_predicted_size(monkeypatch, orbit_file, capsys, argv, size):
    """The spectrum adds m - 1 terms per distinct (l, n), and the strata
    sums m entries per distinct (l, n) here: 66 types at m = 2**16 are
    refused above MAX_BRANCH_TERMS before the genus is taken or any branch
    vector is built."""
    import torusfibre.spectrum as spectrum
    import torusfibre.strata as strata

    def work(*args):
        raise AssertionError("work started before the predicted size was checked")

    monkeypatch.setattr(spectrum, "total_genus", work)
    monkeypatch.setattr(strata, "_branch_vector", work)
    monkeypatch.setattr(strata, "stratum_ranks", work)
    code, out, err = run(capsys, argv[0], "--orbit", orbit_file(MANY_TYPES_JSON), *argv[1:])
    assert (code, out) == (1, "")
    assert size in err and "above MAX_BRANCH_TERMS = 4194304" in err and "Traceback" not in err
    assert spectrum.MAX_BRANCH_TERMS == 2**22


@pytest.mark.parametrize("value", ["1e4300", "-2.5E-4300", "1_0e0_4300", "7/0", " 3/4 ", "+5/10"])
def test_rational_literals_read_as_fraction_reads_them(value):
    """Below the exponent bound, every string reads as Fraction reads it,
    or fails with Fraction's message."""
    from fractions import Fraction

    from torusfibre.errors import ValidationError
    from torusfibre.exact import rational_from_json

    try:
        want = Fraction(value)
    except ZeroDivisionError as exc:
        with pytest.raises(ValidationError, match=re.escape(str(exc))):
            rational_from_json(value, "x")
    else:
        assert rational_from_json(value, "x") == (want.numerator, want.denominator)


def test_oracles_top_level_list_is_invalid_input(tmp_path, capsys):
    oracles = json.loads((GOLDEN_INPUTS / "z4_su2_oracles.json").read_text())
    code, _, err = _invariant_z4(capsys, tmp_path, oracles=list(oracles.values()))
    assert code == 1
    assert "oracles must be a JSON object" in err


def test_oracle_entry_not_an_object_is_invalid_input(tmp_path, capsys):
    oracles = json.loads((GOLDEN_INPUTS / "z4_su2_oracles.json").read_text())
    oracles["40"] = [oracles["40"]]
    code, _, err = _invariant_z4(capsys, tmp_path, oracles=oracles)
    assert code == 1
    assert "oracle entry must be a JSON object" in err


def test_oracle_entry_without_d_c_is_invalid_input(tmp_path, capsys):
    oracles = json.loads((GOLDEN_INPUTS / "z4_su2_oracles.json").read_text())
    del oracles["40"]["d_c"]
    code, _, err = _invariant_z4(capsys, tmp_path, oracles=oracles)
    assert code == 1
    assert "no d_c" in err


def test_fit_sample_row_after_header_must_have_integer_level(tmp_path, capsys):
    path = tmp_path / "samples.csv"
    lines = ["k,re,im"]
    for k in range(1, 41):
        z = cmath.exp(2j * cmath.pi * k / 3) * (2 * k + 1)
        lines.append(f"{k},{z.real!r},{z.imag!r}")
    lines[5] = "1.0,2.0,0.0"
    path.write_text("\n".join(lines))
    code, out, err = run(
        capsys, "fit", "--samples", str(path), "--qmax", "10", "--terms", "1",
        "--degree", "1",
    )
    assert code == 1
    assert out == ""
    assert "sample line 6" in err and "1.0,2.0,0.0" in err


def _set_generators(entry, value):
    entry["generators"] = value


def _set_chern_field(field, value):
    def mutate(entry):
        if field == "chern":
            entry["chern"] = value
        else:
            entry["chern"][field] = value

    return mutate


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda e: _set_generators(e, 5), "generators must be a JSON list"),
        (lambda e: _set_generators(e, {"name": "u", "degree": 2}), "generators must be a JSON list"),
        (lambda e: _set_generators(e, ["u"]), "generator must be a JSON object"),
        (lambda e: _set_generators(e, [{"degree": 2}]), "has no string name"),
        (lambda e: _set_generators(e, [{"name": "u"}]), "must be an integer"),
        (lambda e: _set_generators(e, [{"name": "u", "degree": 1.5}]), "must be an integer"),
        (lambda e: _set_generators(e, [{"name": "u", "degree": "2"}]), "must be an integer"),
        (lambda e: _set_generators(e, [{"name": "u", "degree": True}]), "must be an integer"),
        (lambda e: e.update(pairing=["u", "1/2"]), "pairing must be a JSON object"),
        (lambda e: e.update(pairing={"u": [1, 2]}), "not a string p/q or a number"),
        (_set_chern_field("chern", 3), "chern must be a JSON object"),
        (_set_chern_field("T_c", "u"), "T_c must be a JSON object"),
        (_set_chern_field("T_c", {"rank": 1, "classes": {"u": "2"}}), "T_c classes must be a JSON list"),
        (_set_chern_field("omega", ["u"]), "omega must be a JSON object"),
    ],
    ids=[
        "generators-int", "generators-object", "generator-not-object", "generator-no-name",
        "generator-no-degree", "degree-float", "degree-string", "degree-bool",
        "pairing-list", "pairing-value-list", "chern-int", "T_c-string", "T_c-classes-object",
        "omega-list",
    ],
)
def test_malformed_oracle_field_is_invalid_input(tmp_path, capsys, mutate, message):
    oracles = json.loads((GOLDEN_INPUTS / "z4_su2_oracles.json").read_text())
    mutate(oracles["40"])
    code, out, err = _invariant_z4(capsys, tmp_path, oracles=oracles)
    assert code == 1
    assert out == ""
    assert message in err


@pytest.mark.parametrize(
    "mutate, message",
    [
        (_set_chern_field("E[9][0]", {"rank": 99, "classes": [{"u": "5"}]}), "E[9][0]"),
        (_set_chern_field("E[0][4]", {"classes": [{"u": "1"}]}), "E[0][4]"),
        (_set_chern_field("E[-1][0]", {"classes": []}), "'E[-1][0]'"),
        (_set_chern_field("E[0][-2]", {"classes": []}), "'E[0][-2]'"),
        (_set_chern_field("E[0]", {"classes": []}), "'E[0]'"),
        (_set_chern_field("c_1", {"u": "1"}), "'c_1'"),
        (
            lambda e: e["chern"].update({"E[1][2]": {"classes": []}, "E[01][2]": {"classes": []}}),
            "repeats E[1][2]",
        ),
        (lambda e: e.update(pairing={"u^2*u^-1": "1"}), "'u^2*u^-1' needs non-negative integer exponents"),
        (_set_chern_field("omega", {"u^-1": "1"}), "'u^-1' needs non-negative integer exponents"),
        (_set_chern_field("omega", {"u^x": "1"}), "'u^x' needs non-negative integer exponents"),
        (
            lambda e: _set_generators(e, [{"name": "u", "degree": 2}, {"name": "u", "degree": 4}]),
            "generator name 'u' is given twice",
        ),
    ],
    ids=[
        "E-s-above-branches", "E-nu-above-m", "E-negative-s", "E-negative-nu", "E-one-index",
        "unknown-chern-key", "E-repeated", "pairing-negative-exponent", "omega-negative-exponent",
        "omega-non-integer-exponent", "generator-twice",
    ],
)
def test_oracle_key_or_exponent_out_of_range_is_invalid_input(tmp_path, capsys, mutate, message):
    oracles = json.loads((GOLDEN_INPUTS / "z4_su2_oracles.json").read_text())
    mutate(oracles["40"])
    code, out, err = _invariant_z4(capsys, tmp_path, oracles=oracles)
    assert code == 1
    assert out == ""
    assert message in err


@pytest.mark.parametrize(
    "key, first",
    [("v*u", "u*v"), ("u^2*u", "u^3"), ("u*u*u", "u^3")],
)
def test_duplicate_pairing_monomial_is_invalid_input(tmp_path, capsys, key, first):
    oracles = json.loads((GOLDEN_INPUTS / "hyper_su2_oracles_classes.json").read_text())
    oracles["32"]["pairing"][key] = "7"
    path = tmp_path / "oracles.json"
    path.write_text(json.dumps(oracles))
    code, out, err = run(
        capsys, "contributions", "--orbit", str(GOLDEN_INPUTS / "hyper.json"),
        "--cs-phases", str(GOLDEN_INPUTS / "hyper_su2_cs.json"), "--oracles", str(path),
    )
    assert code == 1
    assert out == ""
    assert f"{first!r} and {key!r} name the same monomial" in err


@pytest.mark.parametrize(
    "mutate, key",
    [
        (_set_chern_field("T_c", {"u": "1"}), "'u'"),
        (_set_chern_field("E[0][1]", {"rank": 0, "clases": []}), "'clases'"),
    ],
    ids=["T_c", "E"],
)
def test_unknown_key_in_oracle_bundle_entry_is_invalid_input(tmp_path, capsys, mutate, key):
    oracles = json.loads((GOLDEN_INPUTS / "z4_su2_oracles.json").read_text())
    mutate(oracles["40"])
    code, out, err = _invariant_z4(capsys, tmp_path, oracles=oracles)
    assert code == 1
    assert out == ""
    assert "stratum 40" in err and f"unknown key {key}" in err


def test_degree_zero_chern_class_term_is_invalid_input(tmp_path, capsys):
    oracles = json.loads((GOLDEN_INPUTS / "z4_su2_oracles.json").read_text())
    oracles["40"]["chern"]["T_c"]["classes"] = [{"1": "2", "u": "1"}]
    code, out, err = _invariant_z4(capsys, tmp_path, oracles=oracles)
    assert code == 1
    assert out == ""
    assert "stratum 40" in err and "T_c" in err and "term '1' has degree 0" in err


COMMAND_NAMES = [
    "validate", "seifert", "spectrum", "framing", "strata", "contributions", "invariant", "fit",
]


@pytest.mark.parametrize(
    "argv",
    [
        ["-h"],
        ["--help"],
        ["-h", "spectrum"],
        *[[name, "-h"] for name in COMMAND_NAMES],
        ["--format", "table", "framing", "--help"],
        [],
        ["nosuchcommand"],
        ["--format", "xml", "spectrum"],
        ["--format=table", "spectrum"],
        ["--form", "table", "spectrum"],
        ["--format"],
        ["--format", "spectrum"],
        ["validate"],
        ["spectrum", "--orbit"],
        ["framing", "--orbit", "x.json", "--level", "five"],
        ["strata", "--orbit", "x.json", "--bogus"],
        ["fit", "--orbit", "x.json"],
        ["fit", "--samples", "s.csv", "--shift", "-3"],
        ["framing", "--orbit", "x.json", "--lev", "5"],
        ["fit", "--samples", "s.csv", "--integer-degrees=1"],
        ["framing", "--orbit", "x.json", "--level", "5", "--level", "6"],
        ["spectrum", "--", "--orbit", "x.json"],
        ["spectrum", "--orbit="],
    ],
    ids=lambda argv: " ".join(argv) or "no-arguments",
)
def test_front_end_matches_full_parser_tree(monkeypatch, tmp_path, capsys, argv):
    """Every front-end outcome of main is the full tree's: for help and
    usage errors, the exit code, stdout and stderr of
    build_parser().parse_args(argv); a line the tree parses runs the
    command it names, here on an input file that does not exist (exit 3,
    naming the file the tree parsed)."""
    import torusfibre.cli as cli

    assert list(cli.COMMANDS) == COMMAND_NAMES
    monkeypatch.chdir(tmp_path)
    got = run(capsys, *argv)
    try:
        args = cli.build_parser().parse_args(argv)
    except SystemExit as exc:
        out, err = capsys.readouterr()
        assert got == (0 if exc.code is None else exc.code, out, err)
    else:
        path = args.samples if args.command == "fit" else args.orbit
        assert got[:2] == (3, "")
        assert got[2].startswith("i/o error") and repr(path) in got[2]


OWN_FLAGS = {
    "framing": ["--group", "--level", "--truncation"],
    "strata": ["--group"],
    "contributions": ["--group", "--cs-phases", "--oracles"],
    "invariant": ["--group", "--cs-phases", "--oracles", "--level", "--precision"],
    "fit": ["--qmax", "--terms", "--degree", "--integer-degrees", "--shift"],
}
FLAGS = sorted({flag for flags in OWN_FLAGS.values() for flag in flags}) + [
    "--format", "--orbit", "--samples", "--lev", "--", "-h",
]
VALUES = ["x.json", "SU(3)", "json", "table", "5", "0", "+7"]
ODD_VALUES = ["xml", "-3", "five", "", "--lev", "--", "-h"]


def _draw_argv(rng):
    """A command line built mostly of a command and its own flags with
    values, with the forms and values argparse refuses or reads its own way
    mixed in."""
    argv = []
    if rng.random() < 0.3:
        value = rng.choice(["json", "table", "xml", ""])
        argv += rng.choice([["--format", value], [f"--format={value}"]])
    command = rng.choice(COMMAND_NAMES + ["", "-h", "--", "nosuchcommand"])
    argv.append(command)
    if rng.random() < 0.9:
        argv += ["--samples" if command == "fit" else "--orbit", "x.json"]
    own = OWN_FLAGS.get(command, []) + ["--format"]
    for _ in range(rng.randint(0, 3)):
        flag = rng.choice(own if rng.random() < 0.7 else FLAGS)
        value = rng.choice(VALUES if rng.random() < 0.8 else ODD_VALUES)
        form = rng.random()
        argv += [flag, value] if form < 0.5 else [f"{flag}={value}"] if form < 0.85 else [flag]
    return argv


def test_fast_parse_matches_the_full_parser_tree(capsys):
    """Whenever the front end reads a command line without argparse, it
    reads it as the full parser tree does."""
    import random

    import torusfibre.cli as cli

    rng = random.Random(12)
    accepted = 0
    for _ in range(8000):
        argv = _draw_argv(rng)
        fast = cli._fast_parse(argv)
        if fast is not None:
            accepted += 1
            assert vars(fast) == vars(cli.build_parser().parse_args(argv)), argv
    assert accepted > 1000
    assert capsys.readouterr() == ("", "")


def test_golden_command_lines_build_no_parser(monkeypatch):
    """Every golden command line is well formed, so main reads it without
    building an argument parser and exits as recorded."""
    import contextlib
    import io

    import torusfibre.cli as cli

    def fail():
        raise AssertionError("argparse built for a well-formed command line")

    monkeypatch.setattr(cli, "build_parser", fail)
    golden = GOLDEN_INPUTS.parent
    monkeypatch.chdir(golden)
    manifest = json.loads((golden / "manifest.json").read_text())
    for case, entry in sorted(manifest.items()):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(entry["argv"]) == entry["exit"], case


# -- flag ranges ----------------------------------------------------------------


def test_negative_truncation_is_invalid_input(orbit_file, capsys):
    code, out, err = run(
        capsys, "framing", "--orbit", orbit_file(M5_JSON), "--truncation", "-1"
    )
    assert (code, out) == (1, "")
    assert "--truncation" in err and "Traceback" not in err
    code, out, _ = run(capsys, "framing", "--orbit", orbit_file(M5_JSON), "--truncation", "0")
    assert code == 0 and json.loads(out)["series"]["order"] == 0


@pytest.mark.parametrize("group", ["SU(2)", "SU(5)"])
def test_truncation_above_the_highest_order_is_invalid_input(orbit_file, capsys, group):
    from torusfibre.framing import MAX_SERIES_ORDER

    orbit = orbit_file(M5_JSON)
    argv = ["framing", "--orbit", orbit, "--group", group, "--truncation"]
    code, out, _ = run(capsys, *argv, str(MAX_SERIES_ORDER))
    assert code == 0
    series = json.loads(out)["series"]
    assert series["order"] == MAX_SERIES_ORDER == len(series["coeffs"]) - 1
    for order in (MAX_SERIES_ORDER + 1, 2000, 10 ** 5):
        code, out, err = run(capsys, *argv, str(order))
        assert (code, out) == (1, "")
        assert f"--truncation {order}" in err and "Traceback" not in err


M5_INVARIANT = [
    "invariant", "--orbit", str(GOLDEN_INPUTS / "m5.json"),
    "--cs-phases", str(GOLDEN_INPUTS / "m5_su2_cs.json"),
    "--oracles", str(GOLDEN_INPUTS / "m5_su2_oracles.json"), "--level", "5",
]


def test_certificate_fires_when_the_oracle_route_is_wrong(monkeypatch, capsys):
    """A wrong (1 - zeta^e)^{-1} on the oracle route makes the certificate
    against the point route fail: exit 2, nothing on stdout."""
    import torusfibre.localization as localization

    right = localization.inverse_one_minus_zeta
    monkeypatch.setattr(localization, "inverse_one_minus_zeta", lambda m, e: 2 * right(m, e))
    code, out, err = run(capsys, *M5_INVARIANT)
    assert (code, out) == (2, "")
    assert "closed form and oracle route disagree" in err


@pytest.mark.parametrize("bits", ["1", "-5", "0", "52"])
def test_precision_below_float64_is_invalid_input(capsys, bits):
    code, out, err = run(capsys, *M5_INVARIANT, "--precision", bits)
    assert (code, out) == (1, "")
    assert "--precision" in err and "53" in err


@pytest.mark.parametrize("bits", ["-3", "0", "52", "many"])
def test_precision_variable_below_float64_is_invalid_input(monkeypatch, capsys, bits):
    monkeypatch.setenv("TORUSFIBRE_PRECISION", bits)
    code, out, err = run(capsys, *M5_INVARIANT)
    assert (code, out) == (1, "")
    assert "TORUSFIBRE_PRECISION" in err


@pytest.mark.parametrize("bits", [2**16 + 1, 10**6])
def test_precision_above_the_ceiling_is_invalid_input(monkeypatch, capsys, bits):
    # a million bits ran past 100 s; the ceiling is checked before any work
    from torusfibre.expansion import MAX_PRECISION, check_precision

    assert check_precision(MAX_PRECISION, "bits") == MAX_PRECISION == 2**16
    code, out, err = run(capsys, *M5_INVARIANT, "--precision", str(bits))
    assert (code, out) == (1, "")
    assert f"--precision = {bits}" in err and "65536" in err and "Traceback" not in err
    monkeypatch.setenv("TORUSFIBRE_PRECISION", str(bits))
    code, out, err = run(capsys, *M5_INVARIANT)
    assert (code, out) == (1, "")
    assert f"TORUSFIBRE_PRECISION = {bits}" in err and "65536" in err


def test_level_above_the_conductor_ceiling_is_invalid_input(capsys):
    # the vector of length M was allocated first, and M past an index
    # overflowed; level 99991 (M = 1999860) stays inside the ceiling
    from torusfibre.expansion import MAX_CONDUCTOR

    assert MAX_CONDUCTOR >= max(2**22, 1999860)
    level = 10**30 + 1
    argv = [a if a != "5" else str(level) for a in M5_INVARIANT]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert f"M = {60 * level + 120}" in err and str(MAX_CONDUCTOR) in err
    assert "Traceback" not in err


Z4_SU3_INVARIANT = [
    "invariant", "--orbit", str(GOLDEN_INPUTS / "z4.json"), "--group", "SU(3)",
    "--cs-phases", str(GOLDEN_INPUTS / "z4_su3_cs.json"),
    "--oracles", str(GOLDEN_INPUTS / "z4_su3_oracles_all.json"),
]
FRAMING_M5 = ["framing", "--orbit", str(GOLDEN_INPUTS / "m5.json")]


@pytest.mark.parametrize("argv, flag", [
    ([*Z4_SU3_INVARIANT, "--level", "0"], "--level = 0"),
    ([*Z4_SU3_INVARIANT, "--level", "-7"], "--level = -7"),
    ([*FRAMING_M5, "--level", "0"], "--level = 0"),
    ([*FRAMING_M5, "--level", "2", "--truncation", "-1"], "--truncation -1"),
    ([*FRAMING_M5, "--truncation", "201"], "--truncation 201"),
])
def test_level_and_truncation_are_checked_before_any_work(monkeypatch, capsys, argv, flag):
    """A level below 1 or a truncation out of range is refused, naming its
    flag, before the spectrum or the strata are computed."""
    import torusfibre.cli as cli

    def work(*args):
        raise AssertionError("work started before the flags were checked")

    monkeypatch.setattr(cli, "enumerate_strata", work)
    monkeypatch.setattr(cli, "eigen_dimensions", work)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert flag in err and "Traceback" not in err


@pytest.mark.parametrize("bits", ["many", "52"])
@pytest.mark.parametrize("level", [[], ["--level", "1"]], ids=["no-level", "level-1"])
def test_precision_variable_is_checked_before_any_work(monkeypatch, capsys, bits, level):
    """A bad TORUSFIBRE_PRECISION is refused, naming the variable, before
    the strata or the spectrum are computed, whether or not a level is
    evaluated; a given --precision wins over it."""
    import torusfibre.cli as cli

    argv = [*Z4_SU3_INVARIANT, *level]
    code, want, _ = run(capsys, *argv, "--precision", "53")
    assert code == 0
    monkeypatch.setenv("TORUSFIBRE_PRECISION", bits)
    code, out, _ = run(capsys, *argv, "--precision", "53")
    assert (code, out) == (0, want)

    def work(*args):
        raise AssertionError("work started before the precision was checked")

    monkeypatch.setattr(cli, "enumerate_strata", work)
    monkeypatch.setattr(cli, "eigen_dimensions", work)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert f"TORUSFIBRE_PRECISION = {bits if bits == '52' else repr(bits)}" in err
    assert "Traceback" not in err


def test_precision_of_float64_is_accepted(monkeypatch, capsys):
    # the value is about -0.1397 - 0.1050i; at 53 bits the Horner rounding
    # errors stay in the last few ulps
    code, out, _ = run(capsys, *M5_INVARIANT)
    assert code == 0
    numeric = json.loads(out)["value"]["numeric"]
    assert abs(numeric[0] + 0.1397) < 1e-4 and abs(numeric[1] + 0.1050) < 1e-4
    for argv in ([*M5_INVARIANT, "--precision", "53"], M5_INVARIANT):
        monkeypatch.setenv("TORUSFIBRE_PRECISION", "53")
        code, got, _ = run(capsys, *argv)
        assert code == 0
        got = json.loads(got)["value"]["numeric"]
        assert all(abs(a - b) < 1e-14 for a, b in zip(got, numeric))


def _fit_samples(tmp_path, first=1, count=40):
    path = tmp_path / "samples.csv"
    lines = []
    for k in range(first, first + count):
        z = cmath.exp(2j * cmath.pi * k / 3) * (2 * k + 1)
        lines.append(f"{k},{z.real!r},{z.imag!r}")
    path.write_text("\n".join(lines))
    return str(path)


@pytest.mark.parametrize(
    "flags, first, name",
    [
        (["--qmax", "-3"], 1, "--qmax"),
        (["--qmax", "0"], 1, "--qmax"),
        (["--shift", "-1"], 1, "--shift"),
        (["--shift", "-40"], 1, "--shift"),
        (["--shift", "-5"], 5, "--shift"),
        ([], 0, "--shift"),
    ],
)
def test_fit_flag_out_of_range_is_invalid_input(tmp_path, capsys, flags, first, name):
    samples = _fit_samples(tmp_path, first)
    code, out, err = run(
        capsys, "fit", "--samples", samples, "--terms", "1", "--degree", "1", *flags
    )
    assert (code, out) == (1, "")
    assert name in err


@pytest.mark.parametrize("qmax", ["100000", "1000000000000"])
def test_oversized_qmax_is_refused_before_any_candidate(tmp_path, capsys, monkeypatch, qmax):
    from torusfibre import expansion

    def fail(*args):
        raise AssertionError("phase candidates built for an oversized --qmax")

    monkeypatch.setattr(expansion, "_phase_candidates", fail)
    monkeypatch.setattr(expansion, "_probe", fail)
    samples = _fit_samples(tmp_path)
    code, out, err = run(
        capsys, "fit", "--samples", samples, "--qmax", qmax, "--terms", "1", "--degree", "1"
    )
    assert (code, out) == (1, "")
    assert f"--qmax {qmax} with 40 samples" in err and "Traceback" not in err


def test_fit_accepts_the_least_valid_flags(tmp_path, capsys):
    samples = _fit_samples(tmp_path, first=5)
    code, out, _ = run(
        capsys, "fit", "--samples", samples, "--qmax", "3", "--terms", "1",
        "--degree", "1", "--shift", "-4",
    )
    assert code == 0
    assert json.loads(out)["terms"][0]["q"] == "1/3"


def _phase_samples(tmp_path, first, num, den, count=40):
    """count samples of 1.5 e^{2 pi i (num/den) k} from level first, with the
    phase reduced exactly in integers."""
    path = tmp_path / "samples.csv"
    lines = []
    for k in range(first, first + count):
        z = 1.5 * cmath.exp(2j * cmath.pi * (num * k % den) / den)
        lines.append(f"{k},{z.real!r},{z.imag!r}")
    path.write_text("\n".join(lines))
    return str(path)


@pytest.mark.parametrize("first", [2**63 - 20, 2**64 - 20, 10**30])
def test_fit_levels_past_int64_stay_exact(tmp_path, capsys, first):
    samples = _phase_samples(tmp_path, first, 1, 3)
    code, out, _ = run(
        capsys, "fit", "--samples", samples, "--terms", "1", "--degree", "0", "--qmax", "10"
    )
    assert code == 0
    obj = json.loads(out)
    assert [(t["q"], t["d"]) for t in obj["terms"]] == [("1/3", "0")]
    assert obj["residual"] < 1e-12


def test_fit_levels_past_float64_are_invalid_input(tmp_path, capsys):
    samples = _phase_samples(tmp_path, 10**309, 1, 3)
    code, out, err = run(
        capsys, "fit", "--samples", samples, "--terms", "1", "--degree", "0", "--qmax", "10"
    )
    assert (code, out) == (1, "")
    assert "float64 range" in err and "Traceback" not in err


def test_fit_phase_at_large_int64_levels(tmp_path, capsys):
    # 7 k overflows int64 at k = 2**62 unless k is reduced mod 10 first
    samples = _phase_samples(tmp_path, 2**62, 7, 10)
    code, out, _ = run(
        capsys, "fit", "--samples", samples, "--terms", "1", "--degree", "0", "--qmax", "10"
    )
    assert code == 0
    (term,) = json.loads(out)["terms"]
    assert term["q"] == "7/10"
    assert abs(complex(*term["b"]) - 1.5) < 1e-9


def test_fit_repeated_level_is_invalid_input(tmp_path, capsys):
    path = Path(_fit_samples(tmp_path))
    path.write_text(path.read_text() + "\n6,1.0,0.0")
    code, out, err = run(
        capsys, "fit", "--samples", str(path), "--terms", "1", "--degree", "1", "--qmax", "10"
    )
    assert (code, out) == (1, "")
    assert "level 6 is given more than once" in err and "Traceback" not in err


def test_fit_overflowing_float64_is_invalid_input(tmp_path, capsys):
    path = tmp_path / "samples.csv"
    lines = []
    for k in range(1, 61):
        z = cmath.exp(2j * cmath.pi * k / 3) * (2 * k + 1) * 1e298
        lines.append(f"{k},{z.real!r},{z.imag!r}")
    path.write_text("\n".join(lines))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "fit", "--samples", str(path))
    assert (code, out) == (1, "")
    assert "float64 range" in err and "Traceback" not in err


@pytest.mark.parametrize("group", ["SU(2", "SU", "SU()", "SP(2)", "5", "SU(two)"])
def test_unreadable_group_label_is_invalid_input(orbit_file, capsys, group):
    code, out, err = run(capsys, "strata", "--orbit", orbit_file(M5_JSON), "--group", group)
    assert (code, out) == (1, "")
    assert f"unrecognized group label {group!r}; expected SU(N)" in err


# -- warm caches between calls ------------------------------------------------


def test_invariant_calls_on_warm_caches_give_golden_bytes(monkeypatch, capsys):
    """Invariant calls in a row, with the caches the calls before them
    filled, give their golden bytes: M5, then Z4, then M5 again."""
    from torusfibre.localization import _point_product, _prefactor

    golden = GOLDEN_INPUTS.parent
    manifest = json.loads((golden / "manifest.json").read_text())
    monkeypatch.chdir(golden)
    misses = []
    for case in ["invariant_m5_su2_k47", "invariant_z4_su2_k197", "invariant_m5_su2_k47"]:
        code, out, _ = run(capsys, *manifest[case]["argv"])
        assert code == manifest[case]["exit"] == 0
        assert out == (golden / f"{case}.out").read_text()
        misses.append(_point_product.cache_info().misses + _prefactor.cache_info().misses)
    # the second M5 call finds every product in the first one's caches
    assert misses[0] < misses[1] == misses[2]


def test_bad_cs_phase_is_refused_on_every_call(tmp_path, capsys):
    """A refused value is not cached: "1/0" fails the second call as it
    failed the first."""
    cs = json.loads((GOLDEN_INPUTS / "z4_su2_cs.json").read_text())
    cs["3"] = "1/0"
    for _ in range(2):
        code, out, err = _invariant_z4(capsys, tmp_path, cs=cs)
        assert (code, out) == (1, "")
        assert "cs-phase '3' = '1/0'" in err
