"""Canonical text formatting: reports must be byte-identical across reruns.

Floats render with ``%.9g``.  Keys appear in a fixed order.  ``None``
renders as ``NA``.  A message quotes a bad input value with ``quoted``.
"""

from __future__ import annotations

__all__ = ["fmt9", "fmt_value", "kv_line", "quoted"]

_QUOTED_WHOLE = 200
_QUOTED_KEPT = 40


def fmt9(x):
    return "%.9g" % float(x)


def fmt_value(v):
    if v is None:
        return "NA"
    if isinstance(v, float):
        return fmt9(v)
    return str(v)


def kv_line(key, value):
    return f"{key} = {fmt_value(value)}"


def quoted(value):
    """``value``'s text quoted for an error message.  Text longer than 200
    characters keeps its first 40 and gives its length, so a huge bad
    value cannot flood the message."""
    text = str(value)
    if len(text) <= _QUOTED_WHOLE:
        return repr(text)
    return f"{text[:_QUOTED_KEPT]!r}... ({len(text):,} characters)"
