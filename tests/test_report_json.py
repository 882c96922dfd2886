"""The report JSON: the CLI's renderer against the standard library's
indented encoder, and every payload the CLI writes against a json round trip."""

import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from h1gauge.cli import _json_text, main


def _oracle(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


# --- the renderer against json.dumps ---------------------------------------------------

EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
               1.7976931348623157e308, 1e16, 1e-7, math.nan, math.inf, -math.inf]
EDGE_STRINGS = ['"', "\\", '\\"', "\x00\x08\t\n\x0c\r\x1f\x7f", "\u00e9\u2028\u00a0",
                "\U0001f600", "\ud800", "</script>", ""]

floats = st.one_of(st.floats(allow_subnormal=True), st.sampled_from(EDGE_FLOATS))
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-10**60, max_value=10**60),
    floats,
    floats.map(np.float64),
    st.text(),
    st.sampled_from(EDGE_STRINGS),
)
keys = st.one_of(st.text(), st.sampled_from(EDGE_STRINGS), st.integers(), floats,
                 floats.map(np.float64), st.booleans(), st.none())


def _trees(depth):
    """Values nested up to `depth` containers deep."""
    if depth == 0:
        return scalars
    sub = _trees(depth - 1)
    return st.one_of(
        scalars,
        st.lists(sub, max_size=3),
        st.lists(sub, max_size=3).map(tuple),
        st.dictionaries(keys, sub, max_size=3),
    )


@settings(max_examples=300, deadline=None)
@given(_trees(6))
def test_renderer_matches_json_dumps(obj):
    assert _json_text(obj) == _oracle(obj)


@pytest.mark.parametrize("obj", [
    {}, [], (), "", {"a": {}, "b": [], "c": ()}, [[[]]], [{}],
    {"x": [1.0, math.nan, -math.inf], "y": (True, False, None)},
    {1: "int key", 2.5: "float key", True: "bool key", None: "null key"},
    {math.nan: 1, math.inf: 2, -math.inf: 3},
    [np.float64(0.1), {"eta": np.float64(-0.0)}, {np.float64(1e308): "key"}],
], ids=lambda o: repr(o)[:40])
def test_renderer_matches_json_dumps_on_edge_cases(obj):
    assert _json_text(obj) == _oracle(obj)


class _Str(str):
    pass


class _Int(int):
    pass


class _Float(float):
    def __repr__(self):
        return "not used"


class _List(list):
    pass


class _Dict(dict):
    pass


def test_renderer_treats_subclasses_as_json_does():
    obj = _Dict(a=_List([_Str("s"), _Int(7), _Float(0.5), (_Float(math.nan),)]),
                b=_Dict({_Str("k"): _List()}))
    assert _json_text(obj) == _oracle(obj)


@pytest.mark.parametrize("bad", [
    {1, 2}, np.bool_(True), object(), np.int64(3), b"bytes",
    {(1, 2): "tuple key"}, [1.0, {"deep": [frozenset()]}],
], ids=["set", "np.bool_", "object", "np.int64", "bytes", "tuple-key", "nested-frozenset"])
def test_renderer_rejects_what_json_rejects(bad):
    with pytest.raises(TypeError):
        _oracle(bad)
    with pytest.raises(TypeError):
        _json_text(bad)
    with pytest.raises(TypeError):
        _json_text({"report": [bad]})


# --- every CLI payload against a json round trip ------------------------------------------

GAUGES = {
    "linear": '{"type": "linear"}',
    "oscillatory": '{"type": "oscillatory"}',
    "piecewise": '{"type": "piecewise", "breakpoints": [1e-6, 1, 4], "values": [1e-12, 1, 9]}',
}
COMMANDS = {
    "verify": ["verify", "--samples", "6"],
    "gauge-check": ["gauge-check"],
    "probe-a": ["probe", "a"],
    "probe-beta": ["probe", "beta"],
    "probe-derivability": ["probe", "derivability"],
    "probe-metric-diff": ["probe", "metric-diff", "--base=0.3,-0.2,0.5"],
    "counterexample": ["counterexample", "--samples", "6"],
}


def _round_trip(text: str) -> str:
    """The text json gives back after reading `text`, which shares no code
    with the CLI's renderer."""
    return json.dumps(json.loads(text), indent=2) + "\n"


@pytest.mark.parametrize("fmt", ["table", "structured"])
@pytest.mark.parametrize("gauge", GAUGES)
@pytest.mark.parametrize("command", COMMANDS)
def test_every_payload_round_trips(capsys, tmp_path, command, gauge, fmt):
    out = tmp_path / "out"
    code = main([*COMMANDS[command], "--gauge", GAUGES[gauge], "--format", fmt, "--out", str(out)])
    stdout = capsys.readouterr().out
    assert code in (0, 1)
    reports = [(out / name).read_text(encoding="utf-8")
               for name in sorted(os.listdir(out)) if name.endswith(".json")]
    assert len(reports) == 1
    if fmt == "structured":
        assert stdout == reports[0]
        reports.append(stdout)
    for text in reports:
        assert text == _round_trip(text)
