"""Flat key/value config blocks, and the type check of every option value.

All on-disk configs use the same trivial format: one ``key = value`` pair per
line, ``#`` comments, blank lines ignored. fidreg reads them, never writes.
Each format is one field table, ``{key: parser}`` such as :func:`kv_int`,
and :func:`read_fields` is its only reader.

:func:`integer` and :func:`real` are the only type checks of option values:
a config class passes every field through one of them before its range
checks. A ``bool``, ``str`` or ``None`` is refused, not coerced, and a numpy
scalar becomes a plain number.

:func:`write_json` is the one writer of fidreg's JSON outputs.
"""

from __future__ import annotations

import json
import numbers

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


def read_fields(text: str, fields: dict, required: tuple[str, ...] = ()) -> dict:
    """Parse ``text`` against a field table into constructor keyword arguments.

    Keys absent from the text are left out, so the dataclass defaults apply.
    Values are parsed in table order, so the first malformed one is reported.
    """
    kv = parse_kv_text(text)
    require_keys(kv, required=required, known=tuple(fields))
    return {key: parse(kv, key) for key, parse in fields.items() if key in kv}


# Each check tests the plain type first: the ABC test costs several times more.
def integer(value, key: str) -> int:
    """``value`` as a plain int: an int or numpy integer, never a bool."""
    if type(value) is int or isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    raise ConfigError(f"{key} must be an integer, got {value!r}")


def real(value, key: str) -> float:
    """``value`` as a plain float: an int, float or numpy number, never a bool."""
    if type(value) is float or isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(value)
    raise ConfigError(f"{key} must be a number, got {value!r}")
