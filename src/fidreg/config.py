"""Flat key/value config blocks.

All on-disk configs use the same trivial format: one ``key = value`` pair per
line, ``#`` comments, blank lines ignored. Values keep full round-trip float
precision (shortest decimal that parses back exactly, i.e. Python ``repr``).

Each text format is one field table, ``{key: kind}`` in output order, where a
kind is a ``(parse, format)`` pair such as :data:`INT` or :data:`FLOAT`.
:func:`read_fields` and :func:`write_fields` are the only reader and writer,
so a format's keys, their order and their spelling live in its table alone.

:func:`write_json` is the one writer of fidreg's JSON outputs.
"""

from __future__ import annotations

import json

from .errors import ConfigError


def format_float(x: float) -> str:
    """Shortest decimal representation that round-trips the float exactly."""
    return repr(float(x))


def write_json(data, path) -> None:
    """Write ``data`` as ASCII JSON indented by 2, ending in a newline."""
    text = json.dumps(data, indent=2) + "\n"
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def parse_number(text: str, kind: type = float):
    """``kind(text)`` for ``int`` or ``float``, but ValueError on ``_`` or non-ASCII text."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"not a plain ASCII number: {text!r}")
    return kind(text)


def format_triple(v) -> str:
    return " ".join(format_float(c) for c in v)


def parse_kv_text(text: str) -> dict[str, str]:
    """Parse a flat key/value block into a string dict.

    Raises ConfigError naming the offending 1-based line on anything that is
    not ``key = value``, a comment, or a blank line.
    """
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"config line {lineno}: empty key or value in {raw!r}")
        if key in out:
            raise ConfigError(f"config line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def format_kv(pairs: dict[str, str]) -> str:
    return "".join(f"{k} = {v}\n" for k, v in pairs.items())


def kv_float(kv: dict[str, str], key: str) -> float:
    try:
        return parse_number(kv[key])
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: not a number: {kv[key]!r}") from exc


def kv_int(kv: dict[str, str], key: str) -> int:
    try:
        return parse_number(kv[key], int)
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: not an integer: {kv[key]!r}") from exc


def kv_triple(kv: dict[str, str], key: str) -> tuple[float, float, float]:
    parts = kv[key].split()
    if len(parts) != 3:
        raise ConfigError(f"config key {key!r}: expected 3 numbers, got {kv[key]!r}")
    try:
        x, y, z = (parse_number(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: not numeric: {kv[key]!r}") from exc
    return (x, y, z)


def require_keys(kv: dict[str, str], required: tuple[str, ...], known: tuple[str, ...]) -> None:
    for key in required:
        if key not in kv:
            raise ConfigError(f"config missing required key {key!r}")
    for key in kv:
        if key not in known:
            raise ConfigError(f"config has unknown key {key!r}")


INT = (kv_int, str)
FLOAT = (kv_float, format_float)
TRIPLE = (kv_triple, format_triple)


def read_fields(text: str, fields: dict, required: tuple[str, ...] = ()) -> dict:
    """Parse ``text`` against a field table into constructor keyword arguments.

    Keys absent from the text are left out, so the dataclass defaults apply.
    Values are parsed in table order, so the first malformed one is reported.
    """
    kv = parse_kv_text(text)
    require_keys(kv, required=required, known=tuple(fields))
    return {key: parse(kv, key) for key, (parse, _) in fields.items() if key in kv}


def write_fields(obj, fields: dict) -> str:
    """Format every field of ``obj`` named in the table, in table order."""
    return format_kv({key: fmt(getattr(obj, key)) for key, (_, fmt) in fields.items()})
