"""The CLI's JSON writer against its oracle, json.dumps(sort_keys=True, indent=2).

A value with a ``to_json`` method stands for what that method returns, which
is what ``json.dumps`` does with ``default=`` calling it.
"""

import enum
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from torusfibre.cli import _CHUNK, _write_json, main
from torusfibre.strata import ConjClassSU

GOLDEN = Path(__file__).parent / "golden"


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


def test_equal_classes_at_two_depths(monkeypatch):
    calls = []
    to_json = ConjClassSU.to_json
    monkeypatch.setattr(ConjClassSU, "to_json", lambda self: calls.append(self) or to_json(self))
    c = ConjClassSU.from_residues(3, [1, 2, 0], 3)
    twin = ConjClassSU.from_residues(3, [2, 0, 1], 3)
    other = ConjClassSU.from_residues(2, [1, 1], 2)
    obj = {"a": c, "b": [twin, [c, twin, other]], "c": (other,)}
    assert twin == c and twin is not c
    expected = _oracle(obj)
    calls.clear()
    assert "".join(_written(obj)) == expected
    # once per (value, depth): c at depths 1, 2 and 3, other at depths 2 and 3
    assert len(calls) == 5


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
