"""Plain-text ideal format.

The first significant line is ``n=<nvars>``; every following non-empty
line holds one exponent vector as n space-separated nonnegative integers.
``#`` starts a comment anywhere in a line.  Serialization writes the
generators in canonical order, so parse -> serialize is a fixed point on
canonical input.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .ideal import MonomialIdeal

_HEADER = re.compile(r"n\s*=\s*(\d+)\s*$")


class IdealFormatError(ValueError):
    """Malformed ideal text; carries the 1-based line and column."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class ParsedIdeal:
    ideal: MonomialIdeal
    was_minimal: bool  # input rows already formed the minimal generating set


def parse_rows(text: str, expected_nvars: int | None = None):
    """Parse the text format into (nvars, rows) without minimalizing.

    Rows keep their input order and multiplicity.  When ``expected_nvars``
    is given, a header declaring another count is an error.
    """
    nvars = None
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        if nvars is None:
            m = _HEADER.match(line.strip())
            if not m:
                raise IdealFormatError(
                    f"expected header 'n=<count>', got {line.strip()!r}", lineno
                )
            nvars = int(m.group(1))
            if nvars < 1:
                raise IdealFormatError("variable count must be positive", lineno)
            if expected_nvars is not None and nvars != expected_nvars:
                raise IdealFormatError(
                    f"header declares {nvars} variables, expected "
                    f"{expected_nvars}",
                    lineno,
                )
            continue
        try:
            row = tuple(map(int, line.split()))
        except ValueError:
            row = None
        if row is None or min(row) < 0:
            raise _token_error(line, lineno)
        if len(row) != nvars:
            raise IdealFormatError(
                f"expected {nvars} exponents, got {len(row)}", lineno
            )
        rows.append(row)
    if nvars is None:
        raise IdealFormatError("missing 'n=<count>' header", 1)
    return nvars, rows


def _token_error(line: str, lineno: int) -> IdealFormatError:
    """The error naming the first token of ``line`` that is not a
    nonnegative integer, at its column."""
    for tok in re.finditer(r"\S+", line):
        col = tok.start() + 1
        try:
            value = int(tok.group())
        except ValueError:
            return IdealFormatError(
                f"exponent {tok.group()!r} is not an integer", lineno, col
            )
        if value < 0:
            return IdealFormatError(f"exponent {value} is negative", lineno, col)
    raise RuntimeError(f"line {lineno}: every token of {line!r} is an exponent")


def parse_ideal_details(text: str) -> ParsedIdeal:
    """Parse the text format, reporting whether the input was minimal."""
    nvars, rows = parse_rows(text)
    ideal = MonomialIdeal._from_valid(nvars, rows)
    was_minimal = len(rows) == len(set(rows)) == len(ideal.gens)
    return ParsedIdeal(ideal, was_minimal)


def parse_ideal(text: str) -> MonomialIdeal:
    """Parse the text format into a minimalized ideal."""
    return parse_ideal_details(text).ideal


def serialize_ideal(ideal: MonomialIdeal) -> str:
    """Render an ideal in the text format, generators in canonical order."""
    lines = [f"n={ideal.nvars}"]
    lines.extend(" ".join(map(str, g)) for g in ideal.gens)
    return "\n".join(lines) + "\n"
