"""Line-oriented text format for algebra files.

Effect algebras:

    efa 1
    order 3
    zero 0
    one 2
    name 0 bottom        (optional, one per element at most)
    sum 0 0 0
    sum 0 1 1
    sum 0 2 2
    sum 1 1 2

Generalized effect algebras use the magic line ``gefa 1`` and carry no
``one`` header. Each header line (``order``, ``zero``, ``one``) takes exactly
one value; trailing tokens are refused on their line. Every integer is
written as ASCII digits with an optional leading ``-``. ``#`` starts a
comment. A ``sum I J K`` line states that I + J = K; absent pairs are
undefined. The serializer emits sums only for I <= J in sorted order, so
output is canonical and diff friendly; the parser applies the commutative
closure and rejects duplicate definitions for a pair, contradictory or not.
An ``order`` above ``MAX_ORDER`` is refused on its own line, with the
table's cell count, an estimate of the memory that parsing and verifying it
would take and a lower bound on the time.
"""

from __future__ import annotations

import re

from .core import (
    UNDEFINED,
    FiniteEffectAlgebra,
    FiniteGeneralizedEffectAlgebra,
    PartialOpTable,
)

__all__ = [
    "MAX_ORDER",
    "ParseError",
    "ceiling_message",
    "magic_line",
    "parse",
    "parse_raw",
    "serialize",
    "parse_generalized",
    "parse_raw_generalized",
    "serialize_generalized",
]

# The largest order a file may declare, checked on the 'order' line before any
# order x order table is built. The table, the axiom check and the order data
# grow with the square of the order or faster; 512 admits the largest algebras
# the toolkit is run on (a 405-element product, a 401-element chain).
MAX_ORDER = 512

# Peak memory per table cell of `efalg verify`, which parses and checks the
# table: the growth of peak RSS over an idle interpreter on the 401-element
# chain, whose sums fill about half the cells (Python 3.11.7, x86-64 Linux).
# `efalg roundtrip` on the same file peaks at about 300 bytes per cell.
BYTES_PER_CELL = 94

# Time per table cell of `efalg verify` on the sparsest valid tables, the
# horizontal sums of 3-chains: their sum lines grow with the order, so the
# work done for every cell (building the table, its range check and the
# axiom scans) is nearly the whole cost. main(["verify", file]) in process,
# median of fifteen, at orders 512, 256 and 128: 0.11-0.13, 0.15 and
# 0.26-0.27 us per cell (Intel Xeon, Python 3.11.7, x86-64 Linux); the
# smaller orders carry more per-line cost. More sums only add work, so the
# estimate is a lower bound.
SECONDS_PER_CELL = 1e-7

# The only integer spelling a file holds: int() alone would also take a '+'
# sign, '_' between digits and non-ASCII digits, which the format never writes.
_INTEGER = re.compile(r"-?[0-9]+")


class ParseError(ValueError):
    def __init__(self, line_no: int, reason: str):
        self.line_no = line_no
        self.reason = reason
        super().__init__(f"line {line_no}: {reason}")


def _meaningful_lines(text: str):
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield no, line


def magic_line(text: str) -> str | None:
    """The first meaningful line, such as 'efa 1' or 'gefa 1'; None for an empty file."""
    return next((line for _, line in _meaningful_lines(text)), None)


def _parse_common(text: str, magic: str, with_one: bool):
    lines = list(_meaningful_lines(text))
    if not lines:
        raise ParseError(0, "empty file")
    no, first = lines[0]
    if first != f"{magic} 1":
        raise ParseError(no, f"expected header '{magic} 1'")

    order: int | None = None
    headers: dict[str, int] = {}
    element_ids: dict[str, int] = {}  # each element's id as the serializer spells it
    names: dict[int, str] = {}
    rows: list[list[int]] = []

    def need_order(no: int) -> int:
        if order is None:
            raise ParseError(no, "'order' must come before this line")
        return order

    for no, line in lines[1:]:
        fields = line.split()
        kind = fields[0]
        if kind == "sum":
            n = need_order(no)
            if len(fields) != 4:
                raise ParseError(no, "'sum' needs exactly three elements")
            i, j, k = element_ids.get(fields[1]), element_ids.get(fields[2]), element_ids.get(fields[3])
            if i is None or j is None or k is None:  # another spelling, or a bad field to name
                i, j, k = (_element_field(no, fields, f, n) for f in (1, 2, 3))
            # A line writes its cell and the mirrored one, so a pair stated
            # twice, in either order, finds its cell already set.
            if rows[i][j] != UNDEFINED:
                raise ParseError(no, f"duplicate definition for pair {(min(i, j), max(i, j))}")
            rows[i][j] = rows[j][i] = k
        elif kind in ("order", "zero", "one"):
            if kind == "one" and not with_one:
                raise ParseError(no, "'one' not allowed here")
            if kind in headers:
                raise ParseError(no, f"duplicate '{kind}'")
            if len(fields) > 2:
                raise ParseError(no, f"'{kind}' takes one value, got {len(fields) - 1}")
            if kind == "order":
                order = headers[kind] = _int_field(no, fields, 1, "order")
                if order < 1:
                    raise ParseError(no, "order must be positive")
                if order > MAX_ORDER:
                    raise ParseError(no, ceiling_message(order))
                rows = [[UNDEFINED] * order for _ in range(order)]
                element_ids = {str(v): v for v in range(order)}
            else:
                headers[kind] = _element_field(no, fields, 1, need_order(no))
        elif kind == "name":
            if len(fields) < 3:
                raise ParseError(no, "'name' needs an element and a label")
            i = _element_field(no, fields, 1, need_order(no))
            if i in names:
                raise ParseError(no, f"duplicate name for element {i}")
            names[i] = line.split(None, 2)[2]
        else:
            raise ParseError(no, f"unknown directive {kind!r}")

    last = lines[-1][0]
    for kind in ("order", "zero", "one") if with_one else ("order", "zero"):
        if kind not in headers:
            raise ParseError(last, f"missing '{kind}'")

    table = PartialOpTable.from_rows(rows)
    name_tuple = None
    if names:
        name_tuple = tuple(names.get(i, str(i)) for i in range(order))
    return table, headers["zero"], headers.get("one"), name_tuple


def ceiling_message(order: int) -> str:
    """Why an order above MAX_ORDER is refused: its cells, memory and time."""
    cells = order * order
    return (
        f"order {order} exceeds the ceiling {MAX_ORDER}; its table would hold {cells} cells,"
        f" about {_bytes(cells * BYTES_PER_CELL)} and at least"
        f" {_seconds(cells * SECONDS_PER_CELL)} to parse and verify"
    )


def _bytes(n: int) -> str:
    return f"{n / 1e9:,.0f} GB" if n >= 1e10 else f"{n / 1e6:,.0f} MB"


def _seconds(s: float) -> str:
    return f"{s:,.0f} s" if s >= 10 else f"{s:.2g} s"


def _int_field(no: int, fields: list[str], idx: int, what: str) -> int:
    if len(fields) <= idx:
        raise ParseError(no, f"missing value for {what}")
    if not _INTEGER.fullmatch(fields[idx]):
        raise ParseError(no, f"{what} is not an integer: {fields[idx]!r}")
    return int(fields[idx])


def _element_field(no: int, fields: list[str], idx: int, order: int) -> int:
    v = _int_field(no, fields, idx, "element")
    if not (0 <= v < order):
        raise ParseError(no, f"element {v} out of range for order {order}")
    return v


def parse_raw(text: str) -> tuple[PartialOpTable, int, int, tuple[str, ...] | None]:
    """Read an effect algebra file without running the axiom check."""
    table, zero, one, names = _parse_common(text, "efa", with_one=True)
    assert one is not None
    return table, zero, one, names


def parse(text: str) -> FiniteEffectAlgebra:
    """Read and validate an effect algebra file."""
    table, zero, one, names = parse_raw(text)
    return FiniteEffectAlgebra(table, zero, one, names)


def parse_raw_generalized(text: str) -> tuple[PartialOpTable, int, tuple[str, ...] | None]:
    """Read a generalized effect algebra file without running the axiom check."""
    table, zero, _, names = _parse_common(text, "gefa", with_one=False)
    return table, zero, names


def parse_generalized(text: str) -> FiniteGeneralizedEffectAlgebra:
    return FiniteGeneralizedEffectAlgebra(*parse_raw_generalized(text))


def _write(magic: str, order: int, zero: int, one: int | None, names, rows) -> str:
    """The text of an algebra whose row i of defined sums lists the pairs
    (j, i + j) in column order; only pairs with j >= i are read."""
    lines = [f"{magic} 1", f"order {order}", f"zero {zero}"]
    if one is not None:
        lines.append(f"one {one}")
    if names:
        for i, label in enumerate(names):
            lines.append(f"name {i} {label}")
    for i, row in enumerate(rows):
        lines.extend(f"sum {i} {j} {v}" for j, v in row if j >= i)
    return "\n".join(lines) + "\n"


def serialize(alg: FiniteEffectAlgebra) -> str:
    """Canonical text form: fixed header order, sums sorted with i <= j only."""
    return _write("efa", alg.order, alg.zero, alg.one, alg.names, alg.table.row_sums)


def serialize_generalized(alg: FiniteGeneralizedEffectAlgebra) -> str:
    return _write("gefa", alg.order, alg.zero, None, alg.names, alg.table.row_sums)
