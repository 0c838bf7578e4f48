"""The CLI's JSON writers against their oracle, json.dumps(sort_keys=True, indent=2).

``_write_json`` writes every command's JSON but that of ``strata``, which
``_write_strata`` writes from one template per stratum.  A value with a
``to_json`` method stands for what that method returns, which is what
``json.dumps`` does with ``default=`` calling it.
"""

import contextlib
import enum
import io
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import random_asymmetric_orbits
from oracles import orbit_to_json

from torusfibre import cli
from torusfibre.cli import _CHUNK, _write_json, _write_strata, main
from torusfibre.framing import GroupData
from torusfibre.orbit import OrbitData
from torusfibre.strata import ConjClassSU, count_strata_burnside, enumerate_strata

GOLDEN = Path(__file__).parent / "golden"
MANIFEST = json.loads((GOLDEN / "manifest.json").read_text())


def _oracle(obj):
    return json.dumps(obj, sort_keys=True, indent=2, default=lambda o: o.to_json()) + "\n"


class _Recorder:
    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)


def _written(obj):
    out = _Recorder()
    _write_json(obj, out)
    return out.writes


STRINGS = [
    "", "a", "key", '"', "\\", "/", "\x00", "\x1f", "\x7f", "\b\f\n\r\t", "\u0080", "é",
    " ", "☃", "\ud800", "\udfff", "\U0010ffff", "\U0001f600", "ab\ud834cd",
]
INTS = [0, 1, -1, 2**63, 2**64 + 1, -(2**64) - 7, 10**40, -(10**40)]
FLOATS = [0.0, -0.0, 1.5, -2.25, 1e300, -1e300, 5e-324, 1e16, 0.1, float("nan"), float("inf"), float("-inf")]


def _text(rng):
    pieces = [rng.choice(STRINGS) for _ in range(rng.randrange(4))]
    pieces += [chr(rng.randrange(0x110000)) for _ in range(rng.randrange(3))]
    rng.shuffle(pieces)
    return "".join(pieces)


def _leaf(rng):
    kind = rng.randrange(6)
    if kind == 0:
        return _text(rng)
    if kind == 1:
        return rng.choice(INTS + [rng.randrange(-10**6, 10**6)])
    if kind == 2:
        return rng.choice(FLOATS + [rng.uniform(-1, 1) * 10.0 ** rng.randrange(-30, 30)])
    return rng.choice([None, True, False])


def _value(rng, depth=0):
    kind = rng.randrange(6) if depth < 4 else 0
    if kind <= 1:
        return _leaf(rng)
    size = rng.choice([0, 1, 2, 5])
    if kind == 2:
        return [_value(rng, depth + 1) for _ in range(size)]
    if kind == 3:
        return tuple(_value(rng, depth + 1) for _ in range(size))
    if kind == 4:
        return {_text(rng): _value(rng, depth + 1) for _ in range(size)}
    keys = [rng.choice(INTS + FLOATS[:9] + [True, False, rng.random()]) for _ in range(size)]
    return {k: _value(rng, depth + 1) for k in keys}


@pytest.mark.parametrize("seed", range(40))
def test_random_values_match_json_dumps(seed):
    rng = random.Random(seed)
    obj = [_value(rng) for _ in range(8)]
    assert "".join(_written(obj)) == _oracle(obj)


@pytest.mark.parametrize(
    "obj",
    [
        None, True, False, 0, -1, 2**64, -(2**100), -0.0, 1e300, float("nan"), float("inf"),
        float("-inf"), "", "\ud800", [], {}, (), [[]], [{}], {"a": []}, {"a": {}}, [(), ()],
        {"b": 1, "a": 2, "": 3}, {2: "x", 1.5: "y", True: "z", -0.0: "w"}, {None: 1},
    ],
)
def test_edge_values_match_json_dumps(obj):
    assert "".join(_written(obj)) == _oracle(obj)


def test_subclass_leaves_render_as_json_renders_them():
    class Colour(enum.IntEnum):
        RED = 3

    class Loud(float):
        def __repr__(self):
            return "loud"

    class Text(str):
        pass

    obj = [{"e": Colour.RED, "f": Loud(2.5), "s": Text("t\n")}, {Colour.RED: [Loud(-0.0)], 1: Loud(1e300)}]
    assert "".join(_written(obj)) == _oracle(obj)


def test_equal_numbers_of_different_types_render_apart():
    obj = [
        [1, True, 1.0], (1,), (True,), (1.0,), [(1,), (True,), (1.0,)],
        {"a": (1, 1.0), "b": (True, 1), "c": (1.0, True)},
    ]
    assert "".join(_written(obj)) == _oracle(obj)


def test_writes_come_in_chunks():
    rng = random.Random(7)
    obj = {"rows": [{"n": i, "s": _text(rng), "v": [i, -i, 0.5]} for i in range(20000)]}
    writes = _written(obj)
    total = "".join(writes)
    assert total == _oracle(obj)
    assert len(writes) > 4
    assert all(len(w) >= _CHUNK for w in writes[:-1])
    assert max(map(len, writes)) < len(total) // 4


def test_small_value_is_one_write():
    assert _written({"a": [1, 2]}) == [_oracle({"a": [1, 2]})]


@pytest.mark.parametrize(
    "obj", [{1, 2}, Fraction(1, 2), [object()], {(1, 2): "tuple key"}, {"a": 1, 2: "mixed keys"}]
)
def test_values_json_refuses_are_refused(obj):
    with pytest.raises(TypeError):
        json.dumps(obj, sort_keys=True, indent=2)
    with pytest.raises(TypeError):
        _written(obj)


def test_main_calls_share_no_fragments(monkeypatch, capsys):
    calls = []
    to_json = ConjClassSU.to_json
    monkeypatch.setattr(ConjClassSU, "to_json", lambda self: calls.append(self) or to_json(self))
    argv = ["strata", "--orbit", str(GOLDEN / "inputs" / "m5.json"), "--group", "SU(3)"]
    counts = []
    for _ in range(2):
        before = len(calls)
        assert main(argv) == 0
        assert capsys.readouterr().out == (GOLDEN / "strata_m5_su3.out").read_text()
        counts.append(len(calls) - before)
    assert counts[0] == counts[1] > 0
    # each class is rendered once per depth in a call, not once per stratum
    assert counts[0] < 343


def _strata_oracle(strata):
    return _oracle({"count": len(strata), "strata": [s.to_json() for s in strata]})


# Shapes that the golden strata cases and the bench digests do not all reach.
STRATA_CASES = {
    # no classes, null ranks and d_c
    "free_action": ({"m": 2, "quotient_genus": 2, "branches": []}, "SU(3)"),
    # classes, but null ranks and d_c
    "orbit_of_two_points": ({"m": 4, "quotient_genus": 0, "branches": [
        {"l": 4, "n": 1}, {"l": 4, "n": 3}, {"l": 2, "n": 1}, {"l": 2, "n": 1},
    ]}, "SU(2)"),
    # gcd(m, N) > 1: z > 0 and Z_delta > 1
    "center_orbits": ({"m": 4, "quotient_genus": 0, "branches": [
        {"l": 4, "n": 1}, {"l": 4, "n": 1}, {"l": 4, "n": 1}, {"l": 4, "n": 1},
    ]}, "SU(2)"),
    "su1": (json.loads((GOLDEN / "inputs" / "m5.json").read_text()), "SU(1)"),
}


def _strata_stdout(tmp_path, orbit, group):
    path = tmp_path / "orbit.json"
    path.write_text(json.dumps(orbit))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["strata", "--orbit", str(path), "--group", group]) == 0
    return out.getvalue()


@pytest.mark.parametrize("case", sorted(STRATA_CASES))
def test_strata_shapes_match_json_dumps(tmp_path, case):
    orbit, group = STRATA_CASES[case]
    strata = enumerate_strata(OrbitData.from_json(orbit), GroupData.parse(group))
    stdout = _strata_stdout(tmp_path, orbit, group)
    assert stdout == _strata_oracle(strata)
    listed = json.loads(stdout)["strata"]
    if case == "free_action":
        assert all(s["classes"] == [] and s["ranks"] is s["d_c"] is None for s in listed)
    elif case == "orbit_of_two_points":
        assert all(s["classes"] and s["ranks"] is s["d_c"] is None for s in listed)
    elif case == "center_orbits":
        assert any(s["z"] > 0 for s in listed) and any(s["Z_delta"] > 1 for s in listed)


@pytest.mark.parametrize("seed", range(6))
def test_random_strata_match_json_dumps(tmp_path, seed):
    rng = random.Random(seed)
    for data in random_asymmetric_orbits(seed, 4, m_choices=range(2, 7), g_max=12, max_branches=3):
        label = f"SU({rng.randint(1, 3)})"
        group = GroupData.parse(label)
        if count_strata_burnside(data, group) > 400:
            continue
        strata = enumerate_strata(data, group)
        assert _strata_stdout(tmp_path, orbit_to_json(data), label) == _strata_oracle(strata)


def test_no_strata_is_an_empty_list():
    out = _Recorder()
    _write_strata([], out)
    assert out.writes == [_strata_oracle([])]
    assert json.loads(out.writes[0]) == {"count": 0, "strata": []}


def test_strata_renders_each_class_object_once(monkeypatch, capsys):
    calls, listed = [], []
    to_json = ConjClassSU.to_json
    monkeypatch.setattr(ConjClassSU, "to_json", lambda self: calls.append(self) or to_json(self))
    monkeypatch.setattr(cli, "enumerate_strata", lambda *a: listed.append(enumerate_strata(*a)) or listed[0])
    argv = ["strata", "--orbit", str(GOLDEN / "inputs" / "m5.json"), "--group", "SU(3)"]
    assert main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / "strata_m5_su3.out").read_text()
    distinct = {id(c) for s in listed[0] for c in s.classes + s.c_delta}
    assert 1 < len(distinct) < 343
    assert sorted(map(id, calls)) == sorted(distinct)


def test_golden_command_lines_write_in_chunks(monkeypatch):
    """Neither writer holds the whole document: every write but the last
    has at least _CHUNK characters.  The --format table lines print row by
    row through _print_table and are left out."""
    monkeypatch.chdir(GOLDEN)
    sizes = {}
    for case, entry in sorted(MANIFEST.items()):
        if "table" in entry["argv"]:
            continue
        out = _Recorder()
        monkeypatch.setattr("sys.stdout", out)
        with contextlib.redirect_stderr(io.StringIO()):
            assert main(entry["argv"]) == entry["exit"]
        monkeypatch.undo()
        monkeypatch.chdir(GOLDEN)
        assert "".join(out.writes) == (GOLDEN / f"{case}.out").read_text(), case
        assert all(len(w) >= _CHUNK for w in out.writes[:-1]), case
        sizes[case] = len(out.writes)
    assert sizes["strata_m5_su3"] > 1
