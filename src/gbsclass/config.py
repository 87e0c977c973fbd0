"""Runtime limits and output defaults, optionally read from a config file.

The CLI looks for the environment variable ``GBSCLASS_CONFIG``; when set,
it must point at a ``key=value`` file (one entry per line, ``#`` starts a
comment).  Recognized keys:

    enum_cap    largest dimension enumerated for triples (pairs go up to
                its square), default 32
    format      default output format: text, json or csv
    i3_a        comma-separated probe exponents for the third invariant
    powers      comma-separated power maps applied before re-probing
"""

from __future__ import annotations

import os
from dataclasses import dataclass

ENV_VAR = "GBSCLASS_CONFIG"

FORMATS = ("text", "json", "csv")

DEFAULT_ENUM_CAP = 32


@dataclass(frozen=True)
class Config:
    enum_cap: int = DEFAULT_ENUM_CAP
    format: str = "text"
    i3_probes: tuple[int, ...] | None = None
    power_probes: tuple[int, ...] | None = None


def _parse_int(key: str, raw: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{key} expects an integer, got {raw!r}") from None
    if value < 2:
        raise ValueError(f"{key} must be at least 2, got {value}")
    return value


def _parse_probes(key: str, raw: str) -> tuple[int, ...]:
    try:
        probes = tuple(int(x) for x in raw.split(",") if x.strip())
    except ValueError:
        raise ValueError(f"{key} expects comma-separated integers, got {raw!r}") from None
    if not probes or any(a < 1 for a in probes):
        raise ValueError(f"{key} needs at least one positive entry, got {raw!r}")
    return probes


def parse_config(text: str) -> Config:
    """Parse key=value configuration text; unknown keys are errors."""
    values: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key == "enum_cap":
            values["enum_cap"] = _parse_int(key, raw)
        elif key == "format":
            if raw not in FORMATS:
                raise ValueError(f"format must be one of {FORMATS}, got {raw!r}")
            values["format"] = raw
        elif key == "i3_a":
            values["i3_probes"] = _parse_probes(key, raw)
        elif key == "powers":
            values["power_probes"] = _parse_probes(key, raw)
        else:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
    return Config(**values)


def load_config(environ=None) -> Config:
    """The active configuration: defaults, overridden by GBSCLASS_CONFIG."""
    env = os.environ if environ is None else environ
    path = env.get(ENV_VAR)
    if not path:
        return Config()
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read())
