"""Text format round trips and parse errors."""

import random
from pathlib import Path

import pytest

from polyquot import (
    IdealFormatError,
    parse_ideal,
    parse_ideal_details,
    serialize_ideal,
)
from polyquot.textio import parse_rows
from conftest import ideal, I3_GENS
from oracles import reference_parse_rows

DATA = Path(__file__).parent / "data"


def test_parse_basic():
    I = parse_ideal("n=2\n3 0\n0 3\n")
    assert set(I.gens) == {(3, 0), (0, 3)}


def test_parse_comments_and_blanks():
    text = "# staircase\nn=2\n\n3 0  # pure power\n0 3\n"
    assert parse_ideal(text) == ideal(2, (3, 0), (0, 3))


def test_parse_zero_ideal():
    assert parse_ideal("n=4\n").is_zero


def test_parse_non_minimal_warns():
    parsed = parse_ideal_details("n=2\n2 0\n3 0\n")
    assert set(parsed.ideal.gens) == {(2, 0)}
    assert not parsed.was_minimal
    dup = parse_ideal_details("n=2\n2 0\n2 0\n")
    assert not dup.was_minimal
    ok = parse_ideal_details("n=2\n2 0\n0 2\n")
    assert ok.was_minimal


def test_parse_errors_report_position():
    with pytest.raises(IdealFormatError) as err:
        parse_ideal("m=2\n1 0\n")
    assert err.value.line == 1
    with pytest.raises(IdealFormatError) as err:
        parse_ideal("n=2\n1 x\n")
    assert err.value.line == 2 and err.value.column == 3
    with pytest.raises(IdealFormatError) as err:
        parse_ideal("n=2\n1 0 0\n")
    assert err.value.line == 2
    with pytest.raises(IdealFormatError):
        parse_ideal("")
    with pytest.raises(IdealFormatError):
        parse_ideal("n=0\n")


def test_serialize_parse_fixed_point():
    I = ideal(2, *I3_GENS)
    text = serialize_ideal(I)
    assert parse_ideal(text) == I
    assert serialize_ideal(parse_ideal(text)) == text


def test_i3_data_file_roundtrips_byte_identically():
    text = (DATA / "i3.txt").read_text()
    parsed = parse_ideal_details(text)
    assert len(parsed.ideal.gens) == 11
    assert parsed.was_minimal
    assert parsed.ideal == ideal(2, *I3_GENS)
    assert serialize_ideal(parsed.ideal) == text


def test_serialize_zero_ideal():
    from polyquot import zero_ideal

    text = serialize_ideal(zero_ideal(3))
    assert text == "n=3\n"
    assert parse_ideal(text).is_zero


def _outcome(parse, text, expected_nvars):
    try:
        return "rows", parse(text, expected_nvars)
    except IdealFormatError as exc:
        return "error", (str(exc), exc.line, exc.column)


def test_parse_rows_matches_reference_tokenizer():
    # the split-and-int fast path gives the reference's rows, and its error
    # (message, line and column) wherever a token is not a nonnegative
    # integer; tokens int() reads (signs, underscores, non-ASCII digits) and
    # whitespace str.split() splits on (tabs, form feeds, no-break spaces)
    # are mixed in
    tokens = ["0", "1", "2", "7", "12", "007", "-0", "+3", "-1", "-2", "1_0", "\u0663",
              "x", "1.0", "0x1", "_1", "--1", "1-", "", "#", "# 1 2", "n=2"]
    spaces = [" "] * 12 + ["  ", "\t", "\f", "\v", "\xa0", "\u3000"]
    headers = ["n=2"] * 6 + ["n = 3", " n=3 ", "# head\nn=1", "n=0", "m=2", "n=2 1"]
    rng = random.Random(19)
    seen = {"rows": 0, "header or width": 0, "token": 0}
    for _ in range(4000):
        header = rng.choice(headers)
        nvars = int(header[-1]) if header[-1].isdigit() else 2
        lines = [header]
        for _ in range(rng.randint(0, 4)):
            width = nvars if rng.random() < 0.8 else rng.randint(0, 4)
            cells = [rng.choice(tokens) if rng.random() < 0.1 else str(rng.randint(0, 9))
                     for _ in range(width)]
            line = "".join(rng.choice(spaces) + c for c in cells)
            lines.append(line + rng.choice(["", " ", "\t", " # note"]))
        text = rng.choice(["\n", "\r\n"]).join(lines) + rng.choice(["", "\n"])
        expected_nvars = rng.choice([None, None, None, None, 2, 3])
        got = _outcome(parse_rows, text, expected_nvars)
        assert got == _outcome(reference_parse_rows, text, expected_nvars), text
        if got[0] == "rows":
            seen["rows"] += 1
        else:
            seen["token" if got[1][0].split(": ")[1].startswith("exponent") else "header or width"] += 1
    assert min(seen.values()) > 200, seen
