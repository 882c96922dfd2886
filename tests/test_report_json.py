"""The report JSON: the CLI's one output path on edge-case payloads, and
every payload the CLI writes against a json round trip and the report
header."""

import contextlib
import io
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from h1gauge.cli import RunConfig, _finish, main
from h1gauge.gauges import Gauge, check_gauge, linear_gauge, oscillatory_gauge
from h1gauge.heisenberg import point
from h1gauge.limits import (
    id_derivability_probe, metric_diff_probe, rescaled_product_probe, vertical_limit_probe,
)

LIN = linear_gauge()
HEADER = {"command": "test", "gauge": "linear"}


# --- the output path on edge-case payloads -----------------------------------------------

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


# body -> the exact report text after the header: one line, the encoder's
# default separators, json's spellings of non-finite floats and ASCII escapes
EDGE_PAYLOADS = [
    ({}, "{}"),
    ({"a": {}, "b": [], "c": ()}, '{"a": {}, "b": [], "c": []}'),
    ({"x": [1.0, math.nan, -math.inf], "y": (True, False, None)},
     '{"x": [1.0, NaN, -Infinity], "y": [true, false, null]}'),
    ({2: "int key", 2.5: "float key", True: "bool key", None: "null key"},
     '{"2": "int key", "2.5": "float key", "true": "bool key", "null": "null key"}'),
    ({math.nan: 1, math.inf: 2, -math.inf: 3}, '{"NaN": 1, "Infinity": 2, "-Infinity": 3}'),
    ({"v": [np.float64(0.1), {"eta": np.float64(-0.0)}, {np.float64(1e308): "key"}]},
     '{"v": [0.1, {"eta": -0.0}, {"1e+308": "key"}]}'),
    ({"f": [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 1e16, 1e-7]},
     '{"f": [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e+308, '
     '1e+16, 1e-07]}'),
    ({"n": [10**60, -7, 0]}, '{"n": [' + "1" + "0" * 60 + ", -7, 0]}"),
    ({"s": "\"\\\n\t\x00\x1f\x7f\u00e9\u2028\U0001f600\ud800</script>"},
     r'{"s": "\"\\\n\t\u0000\u001f\u007f\u00e9\u2028\ud83d\ude00\ud800</script>"}'),
    ({"line\nbreak": "a\r\nb"}, r'{"line\nbreak": "a\r\nb"}'),
    (_Dict(a=_List([_Str("s"), _Int(7), _Float(0.5), (_Float(math.nan),)]),
           b=_Dict({_Str("k"): _List()})),
     '{"a": ["s", 7, 0.5, [NaN]], "b": {"k": []}}'),
]


@pytest.mark.parametrize("payload,text", EDGE_PAYLOADS, ids=lambda o: repr(o)[:40])
def test_finish_writes_one_line_report(capsys, tmp_path, payload, text):
    out = tmp_path / "out"
    config = RunConfig(out=out, fmt="structured")
    assert _finish(config, "test", LIN, "report.json", payload, lambda: "unused", code=1) == 1
    report = '{"command": "test", "gauge": "linear"' + ("}" if text == "{}" else ", " + text[1:])
    assert capsys.readouterr().out == report + "\n"
    assert (out / "report.json").read_text(encoding="utf-8") == report + "\n"
    assert os.listdir(out) == ["report.json"]


@pytest.mark.parametrize("bad", [
    {1, 2}, np.bool_(True), object(), np.int64(3), b"bytes",
    {(1, 2): "tuple key"}, [1.0, {"deep": [frozenset()]}],
], ids=["set", "np.bool_", "object", "np.int64", "bytes", "tuple-key", "nested-frozenset"])
def test_finish_rejects_unencodable_payload_before_writing(capsys, tmp_path, bad):
    out = tmp_path / "out"
    config = RunConfig(out=out, fmt="structured")
    with pytest.raises(TypeError):
        _finish(config, "test", LIN, "report.json", {"report": [bad]}, lambda: "unused",
                files=lambda: {"extra.csv": "a,b\n"})
    assert capsys.readouterr().out == ""
    assert not out.exists()


floats = st.one_of(st.floats(allow_subnormal=True),
                   st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324]))
scalars = st.one_of(st.none(), st.booleans(), st.integers(), floats, floats.map(np.float64),
                    st.text())
trees = st.recursive(
    scalars,
    lambda sub: st.one_of(st.lists(sub, max_size=3), st.lists(sub, max_size=3).map(tuple),
                          st.dictionaries(st.text(), sub, max_size=3)),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.text(), trees, max_size=4))
def test_finish_prints_the_encoder_default_text_on_one_line(payload):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert _finish(RunConfig(fmt="structured"), "test", LIN, "report.json", payload, str) == 0
    text = stdout.getvalue()
    # the header keys come first even where the body repeats one of them
    assert text == json.dumps({**HEADER, **payload}) + "\n"
    assert text.startswith('{"command": ')
    assert "\n" not in text[:-1] and text.isascii()


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
    """The text json gives back after reading `text`: one line, from the
    encoder's defaults, with a final newline."""
    return json.dumps(json.loads(text)) + "\n"


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
        keys = list(json.loads(text))
        assert keys[:2] == ["command", "gauge"]
        assert (keys[2] == "probe") == command.startswith("probe")
        if command in ("probe-a", "probe-beta", "probe-derivability"):
            # R decides each default probe; its classification is the response
            report = json.loads(text)
            assert keys[3:6] == ["classification", "response", "parameters"]
            assert report["response"]["kind"] == report["classification"]["kind"]


@pytest.mark.parametrize("gauge", [LIN, oscillatory_gauge()], ids=["linear", "oscillatory"])
def test_library_reports_round_trip(gauge):
    # every report the library builds is json's: its dict comes back equal,
    # and every check's verdict, and metric-diff's, is a plain bool, also for
    # a raw k returning numpy floats
    checked = check_gauge(Gauge(k=lambda t: np.float64(t) * 1.0))
    md = metric_diff_probe(gauge, point(0.3, -0.2, 0.5))
    dicts = [checked.to_dict(), md.to_dict(),
             vertical_limit_probe(gauge, 0.5).summary(),
             rescaled_product_probe(gauge, point(1, 0, 0), point(0, 1, 0)).summary(),
             id_derivability_probe(gauge, point(1, 0, -1)).summary()]
    for d in dicts:
        assert json.loads(json.dumps(d)) == d, d
    for check in checked.checks:
        assert type(check.passed) is bool
    assert type(md.differentiable) is bool
