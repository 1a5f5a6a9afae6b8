"""Scalar value model shared by the store, the checkers, and the oracle.

Values are plain Python objects:

    int            -> tag "int"
    float          -> tag "decimal"
    str            -> tag "str"
    datetime.date  -> tag "date"
    None           -> null (no tag of its own)

Null semantics are two-valued: any ordering comparison involving a null
is false, equality against the null literal tests null-ness itself, and
nulls never compare equal to anything (including each other).
"""

from __future__ import annotations

import datetime
import math

TAGS = ("int", "decimal", "str", "date")

DATE_FIELDS = ("year", "month", "day")


def tag_of(value) -> str | None:
    """Tag for a concrete value; None for a null."""
    if value is None:
        return None
    if isinstance(value, bool):
        raise TypeError("boolean values are not supported")
    if isinstance(value, int):
        return "int"
    if isinstance(value, float):
        return "decimal"
    if isinstance(value, str):
        return "str"
    if isinstance(value, datetime.date):
        return "date"
    raise TypeError(f"unsupported value type: {type(value)!r}")


def tags_comparable(a: str, b: str) -> bool:
    """Whether two declared tags may appear on opposite sides of an operator.

    Equal tags always compare; int and decimal are mutually comparable.
    """
    if a == b:
        return True
    return {a, b} <= {"int", "decimal"}


def parse_date(text: str) -> datetime.date:
    return datetime.date.fromisoformat(text)


def parse_cell(text: str, tag: str):
    """Parse a CSV cell under a declared tag. Empty string means null.
    A decimal must be finite: NaN has no place in the total order of
    ``sort_key``, and neither NaN nor an infinity is a JSON number."""
    if text == "":
        return None
    if tag == "int":
        return int(text)
    if tag == "decimal":
        return _finite(float(text), text)
    if tag == "str":
        return text
    if tag == "date":
        return parse_date(text)
    raise ValueError(f"unknown tag {tag!r}")


def value_to_json(value):
    if isinstance(value, datetime.date):
        return value.isoformat()
    return value


def value_from_json(raw, tag: str):
    """Decode a JSON value under a declared tag. Only a JSON value of the
    tag's own kind is accepted: an integer for ``int``, any number for
    ``decimal``, a string for ``str`` and an ISO date string for ``date``;
    booleans are never numbers. Anything else is a TypeError, and a
    malformed date or a decimal that is not finite a ValueError."""
    if raw is None:
        return None
    number = isinstance(raw, (int, float)) and not isinstance(raw, bool)
    if tag == "int" and number and isinstance(raw, int):
        return raw
    if tag == "decimal" and number:
        return _finite(float(raw), raw)
    if tag == "str" and isinstance(raw, str):
        return raw
    if tag == "date" and isinstance(raw, str):
        return parse_date(raw)
    if tag not in TAGS:
        raise ValueError(f"unknown tag {tag!r}")
    raise TypeError(f"JSON {type(raw).__name__} value {raw!r}")


def _finite(value: float, raw) -> float:
    if not math.isfinite(value):
        raise ValueError(f"decimal {raw!r} is not finite")
    return value


def sort_key(value):
    """Total order over mixed values for deterministic output; an int
    and a float compare exactly, so ints past 2**53 do not tie."""
    if value is None:
        return (0, "")
    tag = tag_of(value)
    if tag in ("int", "decimal"):
        return (1, value)
    if tag == "str":
        return (2, value)
    return (3, value.isoformat())
