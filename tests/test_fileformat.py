"""Parsing, serialization, and the round-trip guarantee."""

import pytest

from efalg.catalog import named_catalog
from efalg.core import AxiomViolationError, FiniteEffectAlgebra, MalformedTableError
from efalg.fileformat import (
    MAX_ORDER,
    ParseError,
    parse,
    parse_generalized,
    parse_raw,
    serialize,
    serialize_generalized,
)
from efalg.structure import meager_algebra

MINIMAL = """\
efa 1
order 2
zero 0
one 1
sum 0 0 0
sum 0 1 1
"""


def test_minimal_two_chain():
    alg = parse(MINIMAL)
    assert alg.order == 2 and alg.zero == 0 and alg.one == 1
    assert serialize(alg) == MINIMAL


def test_serialize_parse_fixpoint_on_catalog(catalog):
    for entry in catalog:
        text = serialize(entry.algebra)
        again = parse(text)
        assert again == entry.algebra
        assert serialize(again) == text


def test_generalized_round_trip(catalog):
    for entry in catalog:
        mea, _ = meager_algebra(entry.algebra)
        text = serialize_generalized(mea)
        assert parse_generalized(text) == mea


def test_comments_and_blank_lines():
    text = "# header comment\n\nefa 1\norder 2\nzero 0  # trailing\none 1\nsum 0 0 0\nsum 0 1 1\n"
    assert parse(text).order == 2


def test_names_round_trip():
    text = MINIMAL + "name 0 bottom\nname 1 top element\n"
    alg = parse(text)
    assert alg.names == ("bottom", "top element")
    assert parse(serialize(alg)) == alg


@pytest.mark.parametrize("bad", ["a#b", " x", "x ", "", "a\nsum 0 0 0", "a\n", "a\x1cb", 7, None])
def test_names_a_file_cannot_hold_are_refused(bad):
    two = parse(MINIMAL)
    with pytest.raises(MalformedTableError, match=r"^element 0 has a name a file cannot hold: "):
        FiniteEffectAlgebra(two.table, two.zero, two.one, (bad, "top"))


def test_names_with_inner_whitespace_round_trip():
    two = parse(MINIMAL)
    alg = FiniteEffectAlgebra(two.table, two.zero, two.one, ("a  b", "c\td"))
    assert parse(serialize(alg)).names == alg.names


def test_symmetric_closure_on_read():
    text = "efa 1\norder 3\nzero 0\none 2\nsum 0 0 0\nsum 1 0 1\nsum 2 0 2\nsum 1 1 2\n"
    alg = parse(text)
    assert alg.sum(0, 1) == 1


def test_integers_are_ascii_digits_after_an_optional_minus():
    # leading zeros and -0 are such integers, though the serializer writes neither
    text = "efa 1\norder 03\nzero -0\none 002\nsum 0 0 0\nsum 01 0 1\nsum 2 -0 2\nsum 1 1 02\n"
    canonical = "efa 1\norder 3\nzero 0\none 2\nsum 0 0 0\nsum 1 0 1\nsum 2 0 2\nsum 1 1 2\n"
    assert serialize(parse(text)) == serialize(parse(canonical))


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "empty"),
        ("gefa 1\norder 2\nzero 0\n", "expected header"),
        ("efa 1\nzero 0\n", "'order' must come before"),
        ("efa 1\norder 2\nzero 0\nzero 0\n", "duplicate 'zero'"),
        ("efa 1\norder 2\nzero 0\none 1\nsum 1 1\n", "exactly three"),
        ("efa 1\norder 2\nzero 0\none 1\nsum 0 0 5\n", "out of range"),
        ("efa 1\norder 2\nzero 0\none 1\nfrob 1\n", "unknown directive"),
        ("efa 1\norder 2\nzero 0\nsum 0 0 0\n", "missing 'one'"),
        ("efa 1\norder 0\nzero 0\none 1\n", "order must be positive"),
        ("efa 1\norder 2 7\nzero 0\none 1\n", "'order' takes one value, got 2"),
        ("efa 1\norder 2\nzero 0 1\none 1\n", "'zero' takes one value, got 2"),
        ("efa 1\norder 2\nzero 0\none 1 junk\n", "'one' takes one value, got 2"),
        ("efa 1\norder 0_3\nzero 0\none 2\n", "order is not an integer: '0_3'"),
        ("efa 1\norder +3\nzero 0\none 2\n", "order is not an integer: '+3'"),
        ("efa 1\norder 3\nzero +0\none 2\n", "element is not an integer: '+0'"),
        ("efa 1\norder 3\nzero 0\none \u0662\n", "element is not an integer: '\u0662'"),
        ("efa 1\norder 3\nzero 0\none 2\nname \u0661 a\n", "element is not an integer: '\u0661'"),
    ],
)
def test_parse_errors_carry_line_and_reason(text, fragment):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert fragment in str(err.value)


def test_duplicate_sum_rejected():
    base = "efa 1\norder 4\nzero 0\none 3\n"
    with pytest.raises(ParseError) as err:
        parse(base + "sum 1 1 2\nsum 1 1 3\n")
    assert "duplicate definition" in str(err.value)
    assert err.value.line_no == 6
    # the mirrored pair counts as the same definition
    with pytest.raises(ParseError) as err:
        parse(base + "sum 1 2 3\nsum 2 1 3\n")
    assert str(err.value) == "line 6: duplicate definition for pair (1, 2)"


# Each field of a sum line gets its own bad values, so a message names the field.
_BAD_SUM_FIELDS = [
    ("sum a 1 2", "element is not an integer: 'a'"),
    ("sum 1 b 2", "element is not an integer: 'b'"),
    ("sum 1 1 c", "element is not an integer: 'c'"),
    ("sum 4 1 2", "element 4 out of range for order 4"),
    ("sum 1 5 2", "element 5 out of range for order 4"),
    ("sum 1 1 -6", "element -6 out of range for order 4"),
    # int() takes these spellings too, but an integer is ASCII digits after an optional '-'
    ("sum 0_1 1 2", "element is not an integer: '0_1'"),
    ("sum 1 +1 2", "element is not an integer: '+1'"),
    ("sum 1 1 \u0662", "element is not an integer: '\u0662'"),
    ("sum 1 1 \uff12", "element is not an integer: '\uff12'"),
    # the first bad field is named, whatever follows it
    ("sum 1 b 6", "element is not an integer: 'b'"),
    ("sum 1 5 c", "element 5 out of range for order 4"),
]


@pytest.mark.parametrize("line,reason", _BAD_SUM_FIELDS)
def test_bad_sum_field_is_named_on_its_line(line, reason):
    with pytest.raises(ParseError) as err:
        parse_raw(f"efa 1\norder 4\nzero 0\none 3\nsum 0 0 0\n{line}\n")
    assert (err.value.line_no, err.value.reason) == (6, reason)


def test_axiom_failure_is_not_a_parse_error():
    text = "efa 1\norder 3\nzero 0\none 2\nsum 0 0 0\nsum 0 1 1\nsum 0 2 2\n"
    table, zero, one, _ = parse_raw(text)  # parse fine
    with pytest.raises(AxiomViolationError):
        FiniteEffectAlgebra(table, zero, one)


def test_order_ceiling():
    # the ceiling admits the largest algebras the toolkit is run on
    assert MAX_ORDER >= 405
    body = "zero 0\none {}\nsum 0 0 0\n"
    with pytest.raises(ParseError, match=f"{(MAX_ORDER + 1) ** 2} cells") as info:
        parse_raw(f"efa 1\norder {MAX_ORDER + 1}\n" + body.format(MAX_ORDER))
    assert info.value.line_no == 2
    assert str(info.value).endswith("MB and at least 0.026 s to parse and verify")
    # 94 bytes per cell, measured on `efalg verify` of the 401-element chain,
    # and at least 0.1 us per cell, on the sparsest valid tables
    with pytest.raises(ParseError, match="25000000 cells, about 2,350 MB and at least 2.5 s to parse and verify"):
        parse_raw("efa 1\norder 5000\n")
    with pytest.raises(ParseError, match="ceiling"):
        parse_generalized(f"gefa 1\norder {MAX_ORDER + 1}\nzero 0\n")
    table, *_ = parse_raw(f"efa 1\norder {MAX_ORDER}\n" + body.format(MAX_ORDER - 1))
    assert table.order == MAX_ORDER
