import ast
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import omtl
from omtl.errors import ValidationError
from omtl.fields import has_kind, json_floats, json_lines

from conftest import JSON


def json_parse_calls(path: Path) -> list[int]:
    """Lines of path that call json.load or json.loads, or import either."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text())):
        if (isinstance(node, ast.Attribute) and node.attr in ("load", "loads")
                and isinstance(node.value, ast.Name) and node.value.id == "json"):
            lines.append(node.lineno)
        elif (isinstance(node, ast.ImportFrom) and node.module == "json"
              and any(a.name in ("load", "loads") for a in node.names)):
            lines.append(node.lineno)
    return lines


def test_only_fields_parses_json():
    # every input file is read through omtl.fields, so its checks on
    # unreadable, undecodable and unparsable files hold for every loader
    parsers = {path.name for path in Path(omtl.__file__).parent.glob("*.py")
               if json_parse_calls(path)}
    assert parsers == {"fields.py"}


def json_dump_calls(path: Path) -> list[int]:
    """Lines of path that call json.dump, or import it."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text())):
        if (isinstance(node, ast.Attribute) and node.attr == "dump"
                and isinstance(node.value, ast.Name) and node.value.id == "json"):
            lines.append(node.lineno)
        elif (isinstance(node, ast.ImportFrom) and node.module == "json"
              and any(a.name == "dump" for a in node.names)):
            lines.append(node.lineno)
    return lines


def test_only_write_json_writes_json():
    # every JSON output goes through fields.write_json, which encodes with
    # json.dumps; json.dump to a stream runs the slower pure-Python encoder
    writers = {path.name: json_dump_calls(path)
               for path in Path(omtl.__file__).parent.glob("*.py")}
    assert {name: lines for name, lines in writers.items() if lines} == {}


def test_write_json_writes_the_bytes_of_json_dumps(tmp_path):
    # compact output is encoded a value at a time; it must read as one dumps
    import json

    from omtl.fields import write_json
    obj = {"spec": {"n": 1, "é": [0.1, -0.0, 1e-300]}, "params": {
        "a.w": {"shape": [1, 2], "values": [3.5, float("nan")]}, "b": {}},
        "flag": True, "none": None}
    for args in ({}, {"indent": 1, "sort_keys": True}):
        path = tmp_path / "out.json"
        write_json(str(path), obj, **args)
        assert path.read_text(encoding="utf-8") == json.dumps(obj, **args) + "\n"
    write_json(str(path), [1, {"x": 2}])
    assert path.read_text(encoding="utf-8") == "[1, {\"x\": 2}]\n"
    # keys that are not strings read as json.dumps writes them, not as str()
    keyed = {"keys": {True: 1, None: 2, 1.5: 3, 7: 4, "7": 5}, False: {"x": 1}, 2: [3]}
    write_json(str(path), keyed)
    assert path.read_text(encoding="utf-8") == json.dumps(keyed) + "\n"


def test_write_json_encodes_runs_of_bounded_entries(tmp_path, monkeypatch):
    # a dict directly in obj goes to the encoder in runs of items holding at
    # most ENCODE_ENTRIES list entries, an item larger than that alone; the
    # file still holds the bytes of one dumps
    from omtl import fields
    params = {f"p{i}": {"shape": [1, i], "values": [0.5] * i} for i in range(7)}
    params["big"] = {"shape": [3, 3], "values": list(range(9))}
    obj = {"spec": {"n": 1}, "params": params, "empty": {}, "ids": ["a"] * 20}
    dumps, calls = json.dumps, []
    monkeypatch.setattr(json, "dumps", lambda value, **kw: calls.append(value)
                        or dumps(value, **kw))
    monkeypatch.setattr(fields, "ENCODE_ENTRIES", 8)
    path = tmp_path / "out.json"
    fields.write_json(str(path), obj)
    assert path.read_text(encoding="utf-8") == dumps(obj) + "\n"
    runs = [c for c in calls if isinstance(c, dict) and c and set(c) <= set(params)]
    assert [key for run in runs for key in run] == list(params)
    assert 1 < len(runs) < len(params)
    for run in runs:
        assert len(run) == 1 or sum(map(fields._entries, run.values())) <= 8


def lines_one_by_one(path: Path) -> list:
    """(line number, value) of each non-blank line of path as json.loads
    reads it, up to the first line it cannot parse; then that line's error."""
    out = []
    for lineno, line in enumerate(path.read_text(encoding="utf-8").split("\n"), start=1):
        if line.strip():
            try:
                out.append((lineno, json.dumps(json.loads(line.strip()))))
            except ValueError as exc:
                return out + [f"{path}:{lineno}: invalid JSON: {exc}"]
    return out


# text around a JSON value: none, whitespace, or enough to make it invalid
AROUND = [("", ""), (" \t", " "), ("", " extra"), ("", "}"), ("", ", 1"),
          ("\ufeff", ""), ("[", "")]


@settings(derandomize=True, database=None, max_examples=200)
@given(st.lists(st.one_of(st.just(""), st.tuples(st.sampled_from(AROUND), JSON).map(
    lambda a: a[0][0] + json.dumps(a[1]) + a[0][1])), max_size=7), st.integers(1, 3))
def test_json_lines_reads_lines_as_json_loads_in_order(tmp_path_factory, lines, chunk):
    # every list but the last holds chunk lines, and a bad line's error
    # comes after the values of the lines before it
    path = tmp_path_factory.getbasetemp() / "lines.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    got, sizes = [], []
    try:
        for linenos, objs in json_lines(str(path), "lines", chunk):
            sizes.append(len(objs))
            got += [(n, json.dumps(obj)) for n, obj in zip(linenos, objs, strict=True)]
    except ValidationError as exc:
        got.append(str(exc))
    assert got == lines_one_by_one(path)
    assert all(size == chunk for size in sizes[:-1]) and all(sizes)


# the Python types json.load produces
JSON_TYPES = {"int", "float", "str", "bool", "dict", "list", "NoneType"}


def json_type_sets(path: Path) -> list[int]:
    """Lines of path holding a set literal of JSON value types, such as
    {int, float}."""
    return [node.lineno for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Set) and all(
                isinstance(e, ast.Name) and e.id in JSON_TYPES for e in node.elts)]


def test_only_fields_names_json_types():
    # which Python types a JSON kind holds is stated once, in omtl.fields
    named = {path.name: json_type_sets(path)
             for path in Path(omtl.__file__).parent.glob("*.py")}
    assert {name for name, lines in named.items() if lines} == {"fields.py"}


@pytest.mark.parametrize("values, kind, has", [
    ([1, 2.5, -0.0], "float", True), ([1, True], "float", False), ([1, 2], "int", True),
    ([1.0], "int", False), ([True, False], "bool", True), (["a", None], "str | None", True),
    ([None], "str", False), ([[1, 2.5], []], "list[float]", True),
    ([[1, "2"]], "list[float]", False), ([[1], None], "list[float]", False),
    ([[1, None]], "list[float]", False), ([[None, 2]], "list[int]", False),
    ([["a", None]], "tuple[str, ...]", False),
    ([["a"], ["b", "c"]], "tuple[str, ...]", True), ([{}, {"a": 1}], "dict", True),
    ([[]], "dict", False), ([], "list[int]", True)])
def test_has_kind_checks_each_value_and_item(values, kind, has):
    assert has_kind(values, kind) is has


@settings(derandomize=True, database=None, max_examples=200)
@given(st.lists(st.lists(st.floats() | st.integers(-2 ** 70, 2 ** 70), max_size=5),
                max_size=5))
def test_json_floats_reads_numbers_as_float(lists):
    # the bits of float() of each number, in order, in one flat array
    flat = [x for row in lists for x in row]
    got = json_floats(lists, len(flat))
    assert got.dtype == np.float64
    assert got.tobytes() == np.array([float(x) for x in flat], dtype=np.float64).tobytes()
    assert json_floats([[1.0], [10 ** 400]], 2) is None
