import cmath
import json

import pytest

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
