"""Deterministic TOML writing for plain mappings.

:mod:`tomllib` only reads, so the artifacts this package writes — the
hunter's regression specs and the lint policy file — go through
:func:`dumps_toml`. It imports nothing beyond :mod:`repro.errors`, so a
caller such as ``repro lint`` can write TOML without pulling in the
scenario stack.
"""

from __future__ import annotations

import re
from typing import Any, List, Mapping

from repro.errors import ConfigurationError

__all__ = ["dumps_toml"]

_BARE_KEY = re.compile(r"^[A-Za-z0-9_-]+$")


def dumps_toml(data: Mapping[str, Any]) -> str:
    """Serialise a plain mapping as TOML.

    Supports what scenario/regression specs need: strings, bools,
    ints/floats, homogeneous lists (nested lists included), nested
    mappings (as ``[table]``) and lists of mappings (as ``[[table]]``).
    Key order follows the mapping's insertion order, scalars before
    sub-tables, so output is deterministic for a deterministically built
    dict. The result round-trips through :mod:`tomllib`.
    """
    lines: List[str] = []
    _emit_table(data, prefix="", lines=lines)
    return "\n".join(lines) + "\n"


def _emit_table(table: Mapping[str, Any], prefix: str, lines: List[str]) -> None:
    scalars = [(k, v) for k, v in table.items() if not _is_table_like(v)]
    nested = [(k, v) for k, v in table.items() if _is_table_like(v)]
    for key, value in scalars:
        lines.append(f"{_format_key(key)} = {_format_value(value)}")
    for key, value in nested:
        path = f"{prefix}{_format_key(key)}"
        if isinstance(value, Mapping):
            if lines:
                lines.append("")
            lines.append(f"[{path}]")
            _emit_table(value, prefix=f"{path}.", lines=lines)
        else:  # list of mappings
            for entry in value:
                if lines:
                    lines.append("")
                lines.append(f"[[{path}]]")
                _emit_table(entry, prefix=f"{path}.", lines=lines)


def _is_table_like(value: Any) -> bool:
    if isinstance(value, Mapping):
        return True
    return (
        isinstance(value, (list, tuple))
        and len(value) > 0
        and all(isinstance(v, Mapping) for v in value)
    )


def _format_key(key: str) -> str:
    if _BARE_KEY.match(key):
        return key
    return _format_string(key)


def _format_value(value: Any) -> str:
    # bool before int: bool is an int subclass.
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            raise ConfigurationError(f"cannot serialise non-finite float {value!r}")
        text = repr(value)
        return text if ("." in text or "e" in text or "E" in text) else text + ".0"
    if isinstance(value, str):
        return _format_string(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_format_value(v) for v in value) + "]"
    raise ConfigurationError(
        f"cannot serialise {type(value).__name__!r} value {value!r} as TOML"
    )


def _format_string(value: str) -> str:
    escaped = value.replace("\\", "\\\\").replace('"', '\\"')
    escaped = escaped.replace("\n", "\\n").replace("\t", "\\t").replace("\r", "\\r")
    return f'"{escaped}"'
