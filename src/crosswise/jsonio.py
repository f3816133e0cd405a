"""The JSON boundary: the one decoder of every JSON input, the one whole-file
reader, and the checks of the keys and numbers they return."""

import json
import sys
from dataclasses import fields
from pathlib import Path
from typing import Iterable

JSON_NUMBER = frozenset((int, float))  # what the decoder gives for a number; not bool

_FLOAT_MAX = sys.float_info.max


def _refuse_constant(literal: str):
    raise ValueError(f"{literal} is not a JSON number")


# json.loads with parse_constant would build a decoder per call. NaN and
# Infinity are Python extensions to JSON, refused here. On a duplicate key
# the last one wins, as in json.loads.
JSON_DECODER = json.JSONDecoder(parse_constant=_refuse_constant)


def decode_object(data: bytes, what: str, error: type[ValueError] = ValueError) -> dict:
    """The JSON object in the UTF-8 ``data``. Any failure, nesting past the
    recursion limit and a top level of another type included, raises ``error``."""
    try:
        obj = JSON_DECODER.decode(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError is a ValueError
        raise error(f"{what} is not valid JSON: {exc}") from exc
    if type(obj) is not dict:
        raise error(f"{what} must be a JSON object, got a JSON {type(obj).__name__}")
    return obj


def load_json(path: str | Path, what: str, error: type[ValueError] = ValueError) -> dict:
    """decode_object on the whole file at ``path``."""
    return decode_object(Path(path).read_bytes(), what, error)


def refuse_unknown_keys(obj: dict, known: Iterable[str], what: str,
                        error: type[ValueError] = ValueError) -> None:
    """Raise ``error`` naming the keys of ``obj`` that are not in ``known``."""
    unknown = sorted(set(obj) - set(known))
    if unknown:
        raise error(f"unknown {what} keys {unknown}")


def json_value(obj: dict, key: str, kind: type, what: str,
               error: type[ValueError] = ValueError, default=None):
    """``obj.get(key, default)`` if it is a JSON object (``kind`` dict) or list
    (``kind`` list), else raise ``error`` naming ``what`` and ``key``."""
    value = obj.get(key, default)
    if type(value) is not kind:
        name = "object" if kind is dict else "list"
        raise error(f"{what} must hold a JSON {name} {key!r}, got {value!r}")
    return value


def check_json_number(value, key: str, integer: bool = False,
                      error: type[ValueError] = ValueError):
    """``value`` if it is a JSON integer (``integer``) or a JSON number within
    float range, else raise ``error`` naming ``key``: never a bool or a
    string, which int() and float() would coerce, nor a literal such as
    ``1e400`` that the decoder reads as inf."""
    if integer:
        ok = type(value) is int
    else:  # a NaN fails both comparisons
        ok = type(value) in JSON_NUMBER and -_FLOAT_MAX <= value <= _FLOAT_MAX
    if not ok:
        kind = "JSON integer" if integer else "finite JSON number"
        raise error(f"{key} must be a {kind}, got {value!r}")
    return value


def check_json_numbers(values: dict, cls, error: type[ValueError] = ValueError) -> None:
    """check_json_number on each value in ``values`` for an ``int`` or
    ``float`` field of the dataclass ``cls``."""
    for f in fields(cls):
        if f.name in values and f.type in ("int", "float"):
            check_json_number(values[f.name], f.name, f.type == "int", error)


def json_floats(values, key: str, n: int, error: type[ValueError] = ValueError) -> tuple:
    """``values``, a JSON list of ``n`` JSON numbers, as floats."""
    if type(values) is not list or len(values) != n:
        raise error(f"{key} must hold {n} JSON numbers, got {values!r}")
    return tuple(float(check_json_number(v, key, error=error)) for v in values)
