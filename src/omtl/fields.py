"""Reading and writing the program's files. `read_json` (JSON) and
`json_lines` (JSONL, a chunk of lines at a time) read every input file:
one that cannot be opened, read, decoded as UTF-8 or parsed (JSON nested
too deeply included) is a `ValidationError` naming it, and for JSONL the
line. The JSON type rules are stated here alone: `has_kind` (the Python
types of a field kind) and `json_floats` (JSON numbers to float64 in one
pass). `json_field` applies them to one field; the record and model
loaders to a chunk's fields or all parameter entries at once, falling back
on `json_field` only to name a fault, and check float arrays for
finiteness themselves. `output_file` opens every output, and `write_json`
writes every JSON output. A configuration whose arrays would hold more
than `MAX_SIZE` numbers is rejected before any is allocated."""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import MISSING
from functools import cache
from itertools import chain

import numpy as np

from .errors import ValidationError

# the most numbers one allocation a configuration asks for may hold: a
# model's parameters, a synthetic cohort's features, its node count
MAX_SIZE = 10 ** 8

# raised on bad UTF-8 or JSON and over-long integers, or on deep nesting
_UNPARSABLE = (ValueError, RecursionError)


def read_json(path: str, what: str):
    """The parsed UTF-8 JSON file at path; what names its kind in errors."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, *_UNPARSABLE) as exc:
        raise ValidationError(f"cannot read {what} {path}: {exc}") from exc


def json_lines(path: str, what: str, chunk: int):
    """The line numbers and the parsed JSON values of the non-blank lines
    of the UTF-8 JSONL file at path, as a pair of lists of chunk lines
    each, the last pair shorter; what names its kind in errors. The error
    of a line that cannot be read or parsed is raised after the lists of
    the lines before it, so a caller that checks each pair in turn finds
    an earlier line's fault first."""
    linenos, objs = [], []
    try:
        for lineno, obj in _parsed_lines(path, what):
            linenos.append(lineno)
            objs.append(obj)
            if len(objs) == chunk:
                yield linenos, objs
                linenos, objs = [], []
    except ValidationError:
        if objs:
            yield linenos, objs
        raise
    if objs:
        yield linenos, objs


# json.loads without its checks for a str, a byte-order mark and trailing
# text: a stripped line needs only the last, which _parsed_lines makes
_raw_decode = json.JSONDecoder().raw_decode


def _parsed_lines(path: str, what: str):
    try:
        # an undecodable byte reads as a lone surrogate, which encode() rejects
        with open(path, encoding="utf-8", errors="surrogateescape") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not (line := line.strip()):
                    continue
                try:
                    if not line.isascii():
                        line.encode("utf-8")
                    try:
                        obj, end = _raw_decode(line)
                    except _UNPARSABLE:
                        end = None
                    if end != len(line):  # json.loads raises, with its message
                        obj = json.loads(line)
                except UnicodeEncodeError:
                    raise ValidationError(f"{path}:{lineno}: invalid UTF-8") from None
                except _UNPARSABLE as exc:
                    raise ValidationError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
                yield lineno, obj
    except OSError as exc:
        raise ValidationError(f"cannot read {what} {path}: {exc}") from exc


@contextmanager
def output_file(path: str):
    """The file at path, open to write UTF-8 text; an OSError while opening,
    writing or closing it is a ValidationError naming path."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc.strerror or exc}") from exc


# write_json encodes the items of a dict in runs whose values hold at most
# this many list entries in all, so one encoder call writes about 80 KB
ENCODE_ENTRIES = 1 << 12


def write_json(path: str, obj, **dumps_args) -> None:
    """obj as JSON text, then a newline, in the file at path: the bytes
    `json.dumps(obj, **dumps_args)` gives. `json.dumps` runs the C encoder,
    far faster than `json.dump`'s chunked writes. Without dumps_args, each
    value of obj is encoded on its own, and the items of a dict directly in
    obj in runs of at most `ENCODE_ENTRIES` list entries (`_entries`), so a
    large file, such as a model's parameters, is never one string, and a
    model's hundreds of parameters take a few encoder calls."""
    with output_file(path) as fh:
        if dumps_args or not isinstance(obj, dict):
            fh.write(json.dumps(obj, **dumps_args))
        else:
            fh.write("{")
            for i, (key, value) in enumerate(obj.items()):
                fh.write(f"{', ' if i else ''}{_key_text(key)}: ")
                if isinstance(value, dict):
                    _write_items(fh, value)
                else:
                    fh.write(json.dumps(value))
            fh.write("}")
        fh.write("\n")


def _key_text(key) -> str:
    """key as `json.dumps` writes a dict key ("true" for True, "1.5" for
    1.5), not as str() would."""
    return json.dumps({key: 0})[1:-4]


def _entries(value) -> int:
    """The list entries value holds, looking one level into a dict, and
    at least 1: the measure of `ENCODE_ENTRIES`."""
    if type(value) is dict:
        return 1 + sum([len(v) for v in value.values() if type(v) is list])
    return max(len(value), 1) if type(value) is list else 1


def _write_items(fh, obj: dict) -> None:
    """obj's JSON text, its items encoded in runs of `ENCODE_ENTRIES`."""
    fh.write("{")
    run, held, sep = {}, 0, ""
    for key, value in obj.items():
        entries = _entries(value)
        if run and held + entries > ENCODE_ENTRIES:
            fh.write(sep + json.dumps(run)[1:-1])
            run, held, sep = {}, 0, ", "
        run[key] = value
        held += entries
    if run:
        fh.write(sep + json.dumps(run)[1:-1])
    fh.write("}")


# Python types json.load produces for each JSON kind a field may declare
_JSON_KINDS = {"int": {int}, "float": {int, float}, "bool": {bool},
               "str": {str}, "dict": {dict}}


@cache
def _parse_kind(kind: str) -> tuple[set, bool]:
    """(types allowed for the value or its items, is an array) of an
    annotation: X, X | None, list[X] or tuple[X, ...], X in _JSON_KINDS.
    Only a scalar X | None allows None; an array's items never do."""
    base = kind.removesuffix(" | None")
    if base.startswith(("list[", "tuple[")):
        return _JSON_KINDS[base[base.index("[") + 1:-1].removesuffix(", ...")], True
    return _JSON_KINDS[base] | ({type(None)} if base != kind else set()), False


def has_kind(values: list, kind: str) -> bool:
    """Whether each of values has kind's JSON types (`_parse_kind`), for an
    array kind each item; one set of types a call, for a chunk's field."""
    allowed, array = _parse_kind(kind)
    types = set(map(type, values))
    if array:
        return types <= {list} and set(map(type, chain.from_iterable(values))) <= allowed
    return types <= allowed


def json_floats(lists: list, size: int) -> np.ndarray | None:
    """The size JSON numbers of lists as one float64 array, or None if one
    is too large for a float."""
    try:
        return np.fromiter(chain.from_iterable(lists), np.float64, size)
    except OverflowError:
        return None


def json_field(obj, key: str, kind: str, where: str, default=MISSING):
    """obj[key] of a parsed JSON object, checked against kind (`has_kind`) and
    as floats for a float kind, finite when scalar; default, when given, stands
    in for a missing key."""
    if not isinstance(obj, dict):
        raise ValidationError(f"{where} must be a JSON object")
    if key not in obj:
        if default is not MISSING:
            return default
        raise ValidationError(f"{where}: missing field {key!r}")
    value = obj[key]
    if not has_kind([value], kind):
        try:
            shown = json.dumps(value)[:40]
        except RecursionError:
            shown = f"a {type(value).__name__} nested too deeply to show"
        raise ValidationError(f"{where}: field {key!r} must be {kind}, got {shown}")
    allowed, array = _parse_kind(kind)
    if float not in allowed or value is None:
        return value
    floats = json_floats([value if array else [value]], len(value) if array else 1)
    if floats is None:
        raise ValidationError(f"{where}: field {key!r} is too large for a float")
    if not (array or math.isfinite(floats[0])):
        raise ValidationError(f"{where}: field {key!r} must be a finite number, "
                              f"got {float(floats[0])}")
    return floats if array else float(floats[0])


def config_fields(cls, obj, where: str) -> dict:
    """Keyword arguments for the dataclass cls from a JSON object: every
    key must name a field, every value must have the field's declared
    type, and fields without a default must be present. Arrays become
    tuples."""
    if not isinstance(obj, dict):
        raise ValidationError(f"{where} must be a JSON object")
    fields = cls.__dataclass_fields__
    for key in obj:
        if key not in fields:
            raise ValidationError(f"unknown {where} field {key!r}")
    out = {}
    for name, f in fields.items():
        if name in obj or (f.default is MISSING and f.default_factory is MISSING):
            value = json_field(obj, name, f.type, where)
            out[name] = tuple(value) if isinstance(value, list) else value
    return out
