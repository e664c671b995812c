"""Flat key-value configuration files for the CLI.

Format: one ``key = value`` pair per line, ``#`` starts a comment, blank
lines ignored.  Keys mirror the physical parameter fields (the optical
wavelength uses the key ``lambda``); unknown or repeated keys are errors.
"""

from __future__ import annotations

from dataclasses import fields

from .errors import ParameterError
from .kicks import PhysicalParams

# config key -> PhysicalParams attribute, in field order
KEY_TO_FIELD = {
    {"wavelength": "lambda"}.get(f.name, f.name): f.name for f in fields(PhysicalParams)
}
FIELD_TO_KEY = {v: k for k, v in KEY_TO_FIELD.items()}


def parse_config(text: str) -> PhysicalParams:
    """Parse config text into validated physical parameters.

    Raises ParameterError with a line/field diagnostic on malformed input.
    """
    overrides: dict[str, float] = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in KEY_TO_FIELD:
            raise ParameterError(f"line {lineno}: unknown key {key!r}")
        field = KEY_TO_FIELD[key]
        if field in overrides:
            raise ParameterError(f"line {lineno}: repeated key {key!r}")
        try:
            overrides[field] = float(value)
        except ValueError:
            raise ParameterError(f"line {lineno}: field {key}: cannot parse {value!r} as a number")
    return PhysicalParams(**overrides)


def read_text(path: str, what: str) -> str:
    r"""The UTF-8 text of an input file; split it at "\n" only, as editors count lines."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    # ValueError: a path with a NUL byte, or a UnicodeDecodeError
    except (OSError, ValueError) as exc:
        raise ParameterError(f"cannot read {what} {path!r}: {exc}")


def load_config(path: str | None) -> PhysicalParams:
    """Read a config file, or return the built-in defaults when path is None."""
    if path is None:
        return PhysicalParams()
    return parse_config(read_text(path, "config"))
