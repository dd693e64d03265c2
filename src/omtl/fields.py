"""Typed fields of parsed JSON objects: every loader reads its input
through `json_field`, so a value of the wrong JSON type is a
`ValidationError` naming the field, never a traceback or a silent
conversion."""

from __future__ import annotations

import json
from dataclasses import MISSING

from .errors import ValidationError


# Python types json.load produces for each JSON kind a field may declare
_JSON_KINDS = {"int": {int}, "float": {int, float}, "bool": {bool},
               "str": {str}, "dict": {dict}}


def _json_type_ok(value, kind: str) -> bool:
    """Whether a parsed JSON value has the type a field annotation names:
    a key of _JSON_KINDS, X | None, or list[X] / tuple[X, ...] (both JSON
    arrays) of such an X."""
    if kind.endswith(" | None"):
        return value is None or _json_type_ok(value, kind[:-len(" | None")])
    if kind.startswith(("list[", "tuple[")):
        allowed = _JSON_KINDS[kind[kind.index("[") + 1:-1].removesuffix(", ...")]
        return type(value) is list and all(type(v) in allowed for v in value)
    return type(value) in _JSON_KINDS[kind]


def json_field(obj, key: str, kind: str, where: str, default=MISSING):
    """obj[key] from a parsed JSON object, checked against kind (see
    `_json_type_ok`); default, when given, stands in for a missing key."""
    if not isinstance(obj, dict):
        raise ValidationError(f"{where} must be a JSON object")
    if key not in obj:
        if default is not MISSING:
            return default
        raise ValidationError(f"{where}: missing field {key!r}")
    value = obj[key]
    if not _json_type_ok(value, kind):
        raise ValidationError(f"{where}: field {key!r} must be {kind}, "
                              f"got {json.dumps(value)[:40]}")
    return value


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
