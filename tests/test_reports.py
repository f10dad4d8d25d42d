"""The report writer against its oracle: ``reports.json_text`` must give
the bytes of ``json.dumps(obj, indent=2)`` on every tree it accepts, and
raise ``TypeError`` where ``json.dumps`` does."""

import contextlib
import enum
import io
import json
import math
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cstarcat.cli import main
from cstarcat.groupoids import cyclic_groupoid
from cstarcat.reports import Report, json_text


def oracle(obj) -> str:
    return json.dumps(obj, indent=2)


class Colour(enum.IntEnum):
    RED = 3


class Text(str):
    pass


class Real(float):
    pass


SPECIAL_CHARS = ['"', "\\", "/", "\x00", "\x1f", "\x7f", "\n", "\t", "é", " ",
                 "\ud800", "\U0001f600", "a"]
SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324,
                  2.2250738585072014e-308, 1e16, 1e-7, 0.1, 1.7976931348623157e308]

floats = st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS))
ints = st.one_of(st.integers(), st.integers(-2**70, 2**70),
                 st.sampled_from([2**64, 2**64 + 1, -2**64 - 1, 10**30]))
strings = st.one_of(st.text(max_size=8), st.text(st.sampled_from(SPECIAL_CHARS), max_size=8))
scalars = st.one_of(st.none(), st.booleans(), ints, floats, strings,
                    floats.map(np.float64), floats.map(Real), strings.map(Text),
                    st.just(Colour.RED))
keys = st.one_of(strings, ints, floats, st.booleans(), st.none(), st.just(Colour.RED))


@st.composite
def pair_matrices(draw):
    """A ``matrix_to_json`` layout, regular or broken in one place."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(0, 4))
    entries = st.floats(-1e3, 1e3) if draw(st.booleans()) else floats
    m = [[[draw(entries), draw(entries)] for _ in range(cols)] for _ in range(rows)]
    flaw = draw(st.sampled_from(["none", "none", "ragged", "triple", "int", "tuple",
                                 "numpy", "nan", "row-dict"]))
    if flaw == "none" or cols == 0:
        return m
    row = m[draw(st.integers(0, rows - 1))]
    col = draw(st.integers(0, cols - 1))
    if flaw == "ragged":
        row.pop()
    elif flaw == "triple":
        row[col].append(0.5)
    elif flaw == "int":
        row[col][draw(st.integers(0, 1))] = draw(st.integers(-3, 3))
    elif flaw == "tuple":
        row[col] = tuple(row[col])
    elif flaw == "numpy":
        row[col][0] = np.float64(row[col][0])
    elif flaw == "nan":
        row[col][1] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    else:
        m[-1] = {"re": row[col][0]}
    return m


leaves = st.one_of(scalars, pair_matrices(), st.just([]), st.just({}), st.just(()))
trees = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(keys, children, max_size=4),
        st.dictionaries(strings, children, max_size=3).map(OrderedDict)),
    max_leaves=24)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(trees)
def test_json_text_is_json_dumps(obj):
    assert json_text(obj) == oracle(obj)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(pair_matrices(), min_size=1, max_size=3), st.integers(0, 3))
def test_matrices_at_any_depth_are_json_dumps(matrices, depth):
    obj = matrices
    for level in range(depth):
        obj = {f"level{level}": obj, "n": level}
    assert json_text(obj) == oracle(obj)


def test_regular_matrix_keeps_every_float_spelling():
    m = [[[-0.0, 5e-324], [1e16, 0.1]], [[1.7976931348623157e308, -1e-7], [3.0, 2.5]]]
    assert json_text({"homs": {"x|x": [m, m]}}) == oracle({"homs": {"x|x": [m, m]}})
    for special in (math.nan, math.inf, -math.inf):
        bad = [[[1.0, special]]]
        assert json_text(bad) == oracle(bad)
    # two float keys iterate like a pair, but a dict is written as a dict
    keyed = [[[1.0, 2.0], {1.5: 0.0, 2.5: 1.0}]]
    assert json_text(keyed) == oracle(keyed)


@pytest.mark.parametrize("value", [
    {1, 2}, frozenset(), np.int64(3), np.bool_(True), 1 + 2j, b"x", object(),
    np.zeros(2), [1.0, {"k": [np.int64(1)]}], {"k": (1, {2})},
    [[[1.0, 2.0], {1.5, 2.5}]],
])
def test_unsupported_value_raises_type_error_like_json(value):
    with pytest.raises(TypeError) as expected:
        oracle(value)
    with pytest.raises(TypeError) as got:
        json_text(value)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("key", [(1, 2), b"k", np.int64(1), frozenset()])
def test_unsupported_key_raises_type_error_like_json(key):
    value = {"ok": 1, key: 2}
    with pytest.raises(TypeError) as expected:
        oracle(value)
    with pytest.raises(TypeError) as got:
        json_text(value)
    assert str(got.value) == str(expected.value)


def reports():
    full = Report("factorize:path")
    full.add("first", "pass")
    full.add("second", "fail", residual=1e-3, witness=["x", 2], detail="é \"quoted\"\n")
    full.add("third", "unknown", residual=math.inf)
    full.payload = {"homs": {"x|x": [[[[1.0, -0.0], [0.5, 2.0]]]]}, "objects": ["x"],
                    "nested": {"empty": [], "none": {}, "n": 2**70}}
    empty_payload = Report("nerve", payload={})
    no_checks = Report("verify-axioms:mc")
    bare = Report("generate:random_groupoid", payload={"objects": []})
    return [full, empty_payload, no_checks, bare]


@pytest.mark.parametrize("report", reports(), ids=lambda r: r.command)
def test_report_dumps_is_json_dumps_of_to_json(report):
    text, payload = report.dumps()
    assert text == oracle(report.to_json()) + "\n"
    if report.payload is None:
        assert payload is None
    else:
        assert payload == oracle(report.payload) + "\n"


@pytest.mark.parametrize("argv", [
    ["nerve", "{z2}", "--dim-cap", "2"],
    ["groupoid-cstar", "{z2}"],
    ["generate", "--kind", "random_matcat", "--seed", "3"],
])
def test_artifact_and_report_share_one_payload_text(tmp_path, argv):
    z2 = tmp_path / "z2.json"
    z2.write_text(oracle(cyclic_groupoid(2).to_json()) + "\n", encoding="utf-8")
    out = tmp_path / "out.json"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main([a.format(z2=z2) for a in argv] + ["--output", str(out)])
    assert code == 0
    artifact, report = out.read_text(encoding="utf-8"), stdout.getvalue()
    payload = json.loads(artifact)
    assert artifact == oracle(payload) + "\n"
    parsed = json.loads(report)
    assert parsed["payload"] == payload
    assert report == oracle(parsed) + "\n"
