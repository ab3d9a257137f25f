"""JSON text spelled by hand, byte for byte as the stdlib spells it.

`compact(value)` is `json.dumps(value, sort_keys=True, separators=(",", ":"))`
and `indented(value)` is `json.dumps(value, sort_keys=True, indent=2)`.
Request digests and record files are built from these, so each must keep the
stdlib's exact bytes: a digest that moves orphans every recording and cache
entry made before it. They are faster on the shapes those callers pass.
`compact` skips building an encoder for the strings and numbers a digest is
made of. `indented` is one recursive function where, on CPython, `indent`
puts the stdlib on its pure-Python path of nested generators. Whatever they
do not spell themselves (subclasses, non-string keys, unknown types) goes to
the stdlib, which spells it or raises its own error.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _string

_COMPACT = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_INF = float("inf")


def _float(value: float) -> str:
    if value != value:
        return "NaN"
    if value == _INF:
        return "Infinity"
    if value == -_INF:
        return "-Infinity"
    return float.__repr__(value)


def compact(value: object) -> str:
    """`value` as compact, key-sorted, ASCII-only JSON."""
    kind = type(value)
    if kind is str:
        return _string(value)
    if kind is int:
        return int.__repr__(value)
    if kind is float:
        return _float(value)
    return _COMPACT.encode(value)


def indented(value: object) -> str:
    """`value` as key-sorted, ASCII-only JSON indented by two spaces."""
    parts: list[str] = []
    try:
        _indented(value, "\n", parts)
    except TypeError:
        return json.dumps(value, sort_keys=True, indent=2)
    return "".join(parts)


def _indented(value: object, newline: str, parts: list[str]) -> None:
    """Append `value` at the depth whose line break and indent is `newline`.
    Raises TypeError on anything but exact str, int, float, bool, None, dict
    with str keys, list and tuple."""
    kind = type(value)
    if kind is str:
        parts.append(_string(value))
    elif kind is dict:
        if not value:
            parts.append("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key, item in sorted(value.items()):
            if type(key) is not str:
                raise TypeError("non-string key")
            parts.append(f"{separator}{_string(key)}: ")
            _indented(item, inner, parts)
            separator = "," + inner
        parts.append(newline + "}")
    elif kind is list or kind is tuple:
        if not value:
            parts.append("[]")
            return
        inner = newline + "  "
        separator = "[" + inner
        for item in value:
            parts.append(separator)
            _indented(item, inner, parts)
            separator = "," + inner
        parts.append(newline + "]")
    elif kind is int:
        parts.append(int.__repr__(value))
    elif kind is float:
        parts.append(_float(value))
    elif value is None:
        parts.append("null")
    elif value is True:
        parts.append("true")
    elif value is False:
        parts.append("false")
    else:
        raise TypeError(f"{kind.__name__} is left to the stdlib")
