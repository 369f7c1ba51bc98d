"""Finite effect algebras and generalized effect algebras over explicit sum tables.

An algebra lives on elements 0..order-1. The partial operation is a square
lookup table whose cells hold either an element id or UNDEFINED. The table
also lists the defined sums of each row, PartialOpTable.row_sums; every walk
over the defined sums x + y, here and in the other modules, reads that list.
A table has two entry points, which build the same value: the dense
constructor, PartialOpTable(entries) or from_rows, reads every cell to list
the defined sums, and from_sums writes the listed sums into an otherwise
undefined table. A producer that holds its defined sums (the restrictions,
the triple rebuild, the canonical relabelling, the products and horizontal
sums) builds through from_sums, so it never pays a Python pass over every
cell; the parser, which fills a dense table line by line, and the producers
that fill every cell use the dense constructor.

Validation is eager: the public constructors run the full axiom check and
refuse bad tables, so every algebra a caller builds, parses or enumerates
is checked once. An algebra derived from one already verified is not
checked again when its axioms follow from the construction. Those
constructions build through the private _SumAlgebra._trusted, and each
proves the axioms in its docstring:
- structure.restrict, once its closure check passed and the subset holds
  zero, one and every member's supplement (a sub-effect algebra: Sh(E),
  blocks, the centre);
- structure.restrict_downset on a down-set holding zero (Mea(E)) and
  structure.interval_algebra;
- iso.canonical_algebra, a relabelling of a verified table;
- catalog.direct_product and catalog.horizontal_sum of verified factors;
- the rebuild of triple.verify_roundtrip, once its map to the source is an
  isomorphism; on any failure the rebuild gets the full check first.
No constructor builds derived data: the order data, the rank data, the meet
table and heavier memoized structure are built on first read and freed with
the algebra, and a pickle holds the fields only.

Associativity is decided on a symmetric table by walking only the triples
whose left side (x + y) + z is defined, checking that x + (y + z) is defined
and equal. That is exact: on a symmetric table x + (y + z) = (z + y) + x,
so (x, y, z) -> (z, y, x) swaps the two sides of the axiom, and a triple
whose right side is defined mirrors a walked triple, where both sides were
already compared. The walk costs the number of left-defined triples instead
of order³. An asymmetric table, or one the walk rejects, gets the
lexicographic scan over all triples, which names the least witness; only
invalid tables pay for it.

Commutativity compares each row with its column as a whole. Only the first
row unequal to its column is walked cell by cell, to name the least
asymmetric pair: every earlier row equals its column, so that row's first
mismatch lies right of the diagonal.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import Iterable

UNDEFINED = -1

__all__ = [
    "UNDEFINED",
    "MalformedTableError",
    "AxiomViolationError",
    "Violation",
    "Verdict",
    "PartialOpTable",
    "verify_effect_algebra",
    "verify_generalized",
    "FiniteEffectAlgebra",
    "FiniteGeneralizedEffectAlgebra",
]


class MalformedTableError(ValueError):
    """Structurally broken input: wrong shape or out-of-range cells."""


class AxiomViolationError(ValueError):
    """Construction was attempted from a table that fails the algebra axioms."""

    def __init__(self, verdict: "Verdict"):
        self.verdict = verdict
        msg = "; ".join(v.describe() for v in verdict.violations) or "invalid table"
        super().__init__(msg)


@dataclass(frozen=True)
class Violation:
    """One failed axiom with the lexicographically least witness found."""

    axiom: str
    witness: tuple[int, ...]
    detail: str = ""

    def describe(self) -> str:
        extra = f" ({self.detail})" if self.detail else ""
        return f"{self.axiom} at {self.witness}{extra}"


@dataclass(frozen=True)
class Verdict:
    ok: bool
    violations: tuple[Violation, ...] = ()

    @property
    def axioms(self) -> frozenset[str]:
        return frozenset(v.axiom for v in self.violations)


@dataclass(frozen=True)
class PartialOpTable:
    """Square table of the partial sum; cell value UNDEFINED marks a missing sum.

    The table is fully materialized and immutable. Squareness and cell range
    are enforced here; everything semantic (symmetry included) is the
    verifier's job, so that broken tables can still be diagnosed.

    row_sums[x] holds the pairs (y, x + y) of the defined cells of row x, in
    column order; it is the one list of defined sums that every walk over
    x + y reads. It is an instance attribute, not a field, so it takes no
    part in ==, hash or repr. The two entry points build it differently: the
    dense constructor (and from_rows) lists it in its range check's pass over
    every cell, and from_sums takes it as given and writes only its cells.
    """

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        # rows given as lists would compare unequal to the tuple columns the
        # verifier reads; tuple(row) is row itself for a tuple row
        object.__setattr__(self, "entries", tuple(map(tuple, self.entries)))
        n = len(self.entries)
        if n < 1:
            raise MalformedTableError("empty table")
        sums = []
        for i, row in enumerate(self.entries):
            if len(row) != n:
                raise MalformedTableError(f"row {i} has length {len(row)}, expected {n}")
            sums.append(tuple([(j, v) for j, v in enumerate(row) if v != UNDEFINED]))
            for j, v in sums[-1]:
                if not (0 <= v < n):
                    raise MalformedTableError(f"cell ({i},{j}) holds {v}, out of range")
        object.__setattr__(self, "row_sums", tuple(sums))

    @property
    def order(self) -> int:
        return len(self.entries)

    @staticmethod
    def from_rows(rows: Iterable[Iterable[int]]) -> "PartialOpTable":
        return PartialOpTable(rows)

    @staticmethod
    def from_sums(sums: Iterable[Iterable[tuple[int, int]]]) -> "PartialOpTable":
        """The table whose row x defines exactly the pairs (y, x + y) of sums[x],
        given in strictly increasing column order.

        It equals the dense constructor's table of the same cells, row_sums
        included, and refuses what that one refuses, naming the cell; a
        column out of range or out of order is refused too. Only the listed
        cells are read and written.
        """
        sums = tuple(map(tuple, sums))
        n = len(sums)
        if n < 1:
            raise MalformedTableError("empty table")
        entries = []
        for i, row in enumerate(sums):
            cells = [UNDEFINED] * n
            last = -1
            for j, v in row:
                if not (last < j < n and 0 <= v < n):
                    if not 0 <= j < n:
                        raise MalformedTableError(f"cell ({i},{j}) lies outside the {n} columns")
                    if j <= last:
                        raise MalformedTableError(f"cell ({i},{j}) does not follow column {last}")
                    raise MalformedTableError(f"cell ({i},{j}) holds {v}, out of range")
                cells[j] = v
                last = j
            entries.append(tuple(cells))
        table = object.__new__(PartialOpTable)
        object.__setattr__(table, "entries", tuple(entries))
        object.__setattr__(table, "row_sums", sums)
        return table


def _check_constants(table: PartialOpTable, *constants: int) -> None:
    for c in constants:
        if not (0 <= c < table.order):
            raise MalformedTableError(f"distinguished element {c} out of range")


def verify_effect_algebra(table: PartialOpTable, zero: int, one: int) -> Verdict:
    """Check the four effect-algebra axioms plus distinctness of 0 and 1.

    Returns ok, or one violation per failed axiom with the least witness in
    lexicographic scan order. Malformed tables raise MalformedTableError
    instead; shape problems are input errors, not axiom violations.

    Associativity is decided by the walk over left-defined triples when Ei
    holds, which is exact on a symmetric table (see the module docstring);
    the full lexicographic scan runs only to name the least witness of a
    failure, or when Ei fails and the walk would prove nothing.
    """
    _check_constants(table, zero, one)
    violations: list[Violation] = []

    if zero == one:
        violations.append(Violation("E0", (zero,), "zero and one coincide"))

    # (Ei) commutativity and (Eii) associativity.
    violations.extend(_table_laws(table, "Ei", "Eii"))

    # (Eiii) every x has exactly one y with x + y = one.
    for x, row in enumerate(table.entries):
        if row.count(one) == 1:
            continue
        sups = [y for y, v in table.row_sums[x] if v == one]
        if not sups:
            violations.append(Violation("Eiii", (x,), "no orthosupplement"))
            break
        if len(sups) > 1:
            violations.append(Violation("Eiii", (x, sups[0], sups[1]), "orthosupplement not unique"))
            break

    # (Eiv) one + x defined forces x = zero.
    for x, _ in table.row_sums[one]:
        if x != zero:
            violations.append(Violation("Eiv", (x,), "sum with one defined"))
            break

    return Verdict(not violations, tuple(violations))


def verify_generalized(table: PartialOpTable, zero: int) -> Verdict:
    """Check the five generalized-effect-algebra axioms over the stored table."""
    _check_constants(table, zero)
    violations = _table_laws(table, "GE1", "GE2")

    # (GE3) cancellation: a row may not repeat a defined value. first maps
    # each value to the first column holding it; the witness is the first
    # column that repeats one.
    for x, row in enumerate(table.row_sums):
        first = {v: y for y, v in reversed(row)}
        if len(first) < len(row):
            y, v = next((y, v) for y, v in row if first[v] != y)
            violations.append(Violation("GE3", (x, first[v], y), "cancellation fails"))
            break

    # (GE4) x + y = 0 only for x = y = 0.
    hit = next(
        ((x, y) for x, row in enumerate(table.row_sums) for y, v in row if v == zero and (x, y) != (zero, zero)),
        None,
    )
    if hit is not None:
        violations.append(Violation("GE4", hit, "nonzero elements sum to zero"))

    # (GE5) zero is neutral.
    for x, row in enumerate(table.entries):
        if row[zero] != x:
            violations.append(Violation("GE5", (x,), "zero not neutral"))
            break

    return Verdict(not violations, tuple(violations))


def axiom_verdict(alg: "_SumAlgebra") -> Verdict:
    """The full axiom check of an algebra's table: the effect-algebra axioms
    when it has a unit, the generalized ones otherwise."""
    one = getattr(alg, "one", None)
    if one is None:
        return verify_generalized(alg.table, alg.zero)
    return verify_effect_algebra(alg.table, alg.zero, one)


def _table_laws(table: PartialOpTable, commutativity: str, associativity: str) -> list[Violation]:
    """The commutativity violation, then the associativity one, under the given axiom tags."""
    asymmetric = _commutativity_violation(table.entries, table.order, commutativity)
    return asymmetric + _associativity_violation(table, associativity, symmetric=not asymmetric)


def _commutativity_violation(t, n: int, axiom: str) -> list[Violation]:
    # Reads every cell: an asymmetric pair may hold UNDEFINED on either side.
    for x, (row, column) in enumerate(zip(t, zip(*t))):
        if row != column:
            hit = next(y for y in range(x + 1, n) if t[x][y] != t[y][x])
            return [Violation(axiom, (x, hit), "asymmetric cells")]
    return []


def _associativity_violation(table: PartialOpTable, axiom: str, symmetric: bool) -> list[Violation]:
    if symmetric and _left_defined_triples_agree(table):
        return []
    # The lexicographic scan names the least witness, which may be a triple
    # whose left side is undefined, so it reads every cell.
    t, n = table.entries, table.order
    for x in range(n):
        for y in range(n):
            xy = t[x][y]
            for z in range(n):
                yz = t[y][z]
                left = t[xy][z] if xy != UNDEFINED else UNDEFINED
                right = t[x][yz] if yz != UNDEFINED else UNDEFINED
                if left != right:
                    return [Violation(axiom, (x, y, z), "associativity fails")]
    return []


def _left_defined_triples_agree(table: PartialOpTable) -> bool:
    """Whether x + (y + z) is defined and equals (x + y) + z wherever the
    latter is defined; on a symmetric table this is the whole axiom."""
    t, sums = table.entries, table.row_sums
    for tx, dx in zip(t, sums):
        for y, xy in dx:
            ty = t[y]
            for z, v in sums[xy]:
                yz = ty[z]
                if yz == UNDEFINED or tx[yz] != v:
                    return False
    return True


_MEMO = "_memo"


class _Memoizing:
    """Base of immutable dataclass values that carry their derived data.

    The derived data (the memo, the cached properties) live in the instance
    __dict__ outside the fields, so they take no part in ==, hash, repr,
    dataclasses.replace or pickling: a pickle holds the fields only.
    """

    def __getstate__(self):
        return {f.name: self.__dict__[f.name] for f in dataclasses.fields(self)}


def memoized(fn):
    """Memoize fn(obj, *args) on obj itself, keyed by fn and the other arguments.

    Results are computed on first use and freed together with obj. Arguments
    after obj must be hashable and passed positionally.
    """

    @functools.wraps(fn)
    def wrapper(obj, *args):
        key = (fn, args)
        try:
            return obj.__dict__[_MEMO][key]
        except KeyError:
            pass
        value = fn(obj, *args)
        obj.__dict__.setdefault(_MEMO, {})[key] = value
        return value

    return wrapper


class _SumAlgebra(_Memoizing):
    """Order-theoretic machinery shared by effect and generalized effect algebras.

    The public constructor checks the names and the axioms and builds nothing
    else; _trusted sets the same fields without the check, for a table whose
    axioms a construction proves (see the module docstring). The defined sums
    live on the table, as table.row_sums; sum and defined read table.entries.
    Every derived datum is built on first read (see _Memoizing): the order
    data _below, _ominus and, for effect algebras, _sup; the rank numbering
    and masks; the meet table _meets. Every join, in both algebra kinds, is
    the least element of the AND of the up-set rank masks _rabove.
    """

    table: PartialOpTable
    zero: int
    names: tuple[str, ...] | None

    def __post_init__(self):
        n = self.table.order
        if self.names is not None:
            object.__setattr__(self, "names", tuple(self.names))
            if len(self.names) != n:
                raise MalformedTableError("names must cover every element")
            for x, name in enumerate(self.names):
                # the file format writes "name x <name>" on one line, and the
                # parser drops what follows '#' and strips the line
                one_line = isinstance(name, str) and name.splitlines() == [name]
                if not one_line or name != name.strip() or "#" in name:
                    raise MalformedTableError(f"element {x} has a name a file cannot hold: {name!r}")
        verdict = axiom_verdict(self)
        if not verdict.ok:
            raise AxiomViolationError(verdict)

    @classmethod
    def _trusted(cls, *values):
        """The instance the constructor would build from these field values,
        built without the axiom check.

        Only for a table whose axioms the caller has proven: it sets the
        fields alone, as the constructor does. Names are not passed; they
        default to None.
        """
        self = object.__new__(cls)
        # in field order, as the generated __init__ sets them: instances
        # that share one attribute layout keep attribute lookups fast
        for i, f in enumerate(dataclasses.fields(cls)):
            object.__setattr__(self, f.name, values[i] if i < len(values) else f.default)
        return self

    @functools.cached_property
    def _below(self) -> tuple[int, ...]:
        """Down-set masks, built with _ominus in one pass over the defined sums:
        y + z = v puts y below v with v minus y = z (unique by cancellation)."""
        n = self.table.order
        below = [0] * n
        ominus = []
        for y, row in enumerate(self.table.row_sums):
            bit = 1 << y
            diffs: list[int | None] = [None] * n
            for z, v in row:
                below[v] |= bit
                diffs[v] = z
            ominus.append(tuple(diffs))
        self.__dict__["_ominus"] = tuple(ominus)
        return tuple(below)

    @functools.cached_property
    def _ominus(self) -> tuple[tuple[int | None, ...], ...]:
        """x minus y as _ominus[y][x], None unless y <= x; see _below."""
        self._below  # builds both
        return self.__dict__["_ominus"]

    @property
    def order(self) -> int:
        return len(self.table.entries)

    def elements(self) -> range:
        return range(self.table.order)

    # The point methods refuse an id outside 0..order-1 with ValueError.
    def sum(self, x: int, y: int) -> int | None:
        _check_element(self, x)
        _check_element(self, y)
        v = self.table.entries[x][y]
        return None if v == UNDEFINED else v

    def defined(self, x: int, y: int) -> bool:
        _check_element(self, x)
        _check_element(self, y)
        return self.table.entries[x][y] != UNDEFINED

    def leq(self, x: int, y: int) -> bool:
        _check_element(self, x)
        _check_element(self, y)
        return (self._below[y] >> x) & 1 == 1

    def ominus(self, x: int, y: int) -> int | None:
        """x minus y: the unique z with y + z = x, or None when y is not below x."""
        _check_element(self, x)
        _check_element(self, y)
        return self._ominus[y][x]

    def below_mask(self, x: int) -> int:
        """Bitmask of elements z with z <= x."""
        _check_element(self, x)
        return self._below[x]

    def above_mask(self, x: int) -> int:
        """Bitmask of elements z with x <= z: the rank up-set _rabove[x] in labels."""
        _check_element(self, x)
        return sum(1 << self._by_rank[r] for r in _mask_elements(self._rabove[x]))

    def down_set(self, x: int) -> tuple[int, ...]:
        _check_element(self, x)
        return _mask_elements(self._below[x])

    def orthogonal_sum(self, family: Iterable[int]) -> int | None:
        """Left fold of the partial sum over a finite multiset; empty sums to zero.

        Validated associativity and commutativity make the result independent
        of the traversal order, so any iteration order of the multiset works.
        """
        acc = self.zero
        for x in family:
            _check_element(self, x)  # every member, also past an undefined partial sum
            if acc is not None:
                acc = self.sum(acc, x)
        return acc

    # Rank numbering: the elements sorted by the size of their down-sets,
    # ties broken by label. x < y gives y a strictly larger down-set, so this
    # is a linear extension of the order, and a set's greatest element, if it
    # has one, holds the set's top rank and its least element the bottom
    # rank. The label down-sets _below, by their iteration order, fix every
    # witness; up-sets live only in rank numbering, as _rabove.
    @functools.cached_property
    def _by_rank(self) -> tuple[int, ...]:
        below = self._below
        return tuple(sorted(self.elements(), key=lambda x: (below[x].bit_count(), x)))

    @functools.cached_property
    def _rank(self) -> tuple[int, ...]:
        rank = [0] * self.order
        for r, x in enumerate(self._by_rank):
            rank[x] = r
        return tuple(rank)

    @functools.cached_property
    def _rbelow(self) -> tuple[int, ...]:
        """Down-set of each element (indexed by label) in rank numbering.

        Built together with _rabove in one pass over the defined sums: y + z = v
        puts rank[y] in v's down-set and rank[v] in y's up-set.
        """
        bits = [1 << r for r in self._rank]
        rbelow = [0] * self.order
        rabove = []
        for y, row in enumerate(self.table.row_sums):
            bit, up = bits[y], 0
            for _, v in row:
                rbelow[v] |= bit
                up |= bits[v]
            rabove.append(up)
        self.__dict__["_rabove"] = tuple(rabove)
        return tuple(rbelow)

    @functools.cached_property
    def _rabove(self) -> tuple[int, ...]:
        """Up-set of each element (indexed by label) in rank numbering; see _rbelow."""
        self._rbelow  # builds both
        return self.__dict__["_rabove"]

    def _rank_mask(self, mask: int) -> int:
        """A label mask renumbered by rank."""
        rank = self._rank
        out = 0
        for x in _mask_elements(mask):
            out |= 1 << rank[x]
        return out

    @functools.cached_property
    def _meets(self) -> tuple[tuple[int | None, ...], ...]:
        """The meet of every pair, indexed [x][y] by label; None where the
        common lower bounds have no greatest element.

        Filled once, upper triangle mirrored, with _greatest's test: zero lies
        below everything, so the mask of common lower bounds is never empty.
        """
        n, by_rank, rbelow = self.order, self._by_rank, self._rbelow
        rows: list[list[int | None]] = [[None] * n for _ in range(n)]
        for x, row in enumerate(rows):
            bx = rbelow[x]
            for y in range(x, n):
                common = bx & rbelow[y]
                m = by_rank[common.bit_length() - 1]
                if common & ~rbelow[m] == 0:
                    row[y] = rows[y][x] = m
        return tuple(map(tuple, rows))

    # Meets and joins in the derived partial order. A missing bound is a
    # first-class None, never an error; an id outside 0..order-1 is.
    def meet(self, x: int, y: int) -> int | None:
        _check_element(self, x)
        _check_element(self, y)
        return self._meets[x][y]

    def join(self, x: int, y: int) -> int | None:
        _check_element(self, x)
        _check_element(self, y)
        return self._least(self._rabove[x] & self._rabove[y])

    def join_set(self, xs: Iterable[int]) -> int | None:
        mask = (1 << self.order) - 1
        for x in xs:
            _check_element(self, x)
            mask &= self._rabove[x]
        return self._least(mask)

    def _greatest(self, rmask: int) -> int | None:
        """Greatest element of a rank mask's set, or None when it has none.

        Only the top rank can be the greatest element; it is when its
        down-set covers the set.
        """
        if not rmask:
            return None
        m = self._by_rank[rmask.bit_length() - 1]
        return m if rmask & ~self._rbelow[m] == 0 else None

    def _least(self, rmask: int) -> int | None:
        """Least element of a rank mask's set, or None when it has none."""
        if not rmask:
            return None
        m = self._by_rank[(rmask & -rmask).bit_length() - 1]
        return m if rmask & ~self._rabove[m] == 0 else None


def _check_element(alg: _SumAlgebra, x: int) -> None:
    """Refuse an id outside 0..order-1 with ValueError, before it is read as
    a Python index (where -1 would name the last element)."""
    if not 0 <= x < alg.order:
        raise ValueError(f"element {x} out of range for order {alg.order}")


def _mask_elements(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


@dataclass(frozen=True)
class FiniteEffectAlgebra(_SumAlgebra):
    """A validated finite effect algebra.

    Instances are immutable; all operations are pure functions of the value,
    so sharing across threads or workers is safe.
    """

    table: PartialOpTable
    zero: int
    one: int
    names: tuple[str, ...] | None = None

    def orthosupplement(self, x: int) -> int:
        """The unique y with x + y = one; involutive."""
        _check_element(self, x)
        return self._sup[x]

    @functools.cached_property
    def _sup(self) -> tuple[int, ...]:
        return tuple(diffs[self.one] for diffs in self._ominus)  # one minus each element


@dataclass(frozen=True)
class FiniteGeneralizedEffectAlgebra(_SumAlgebra):
    """A validated finite generalized effect algebra (zero, no unit)."""

    table: PartialOpTable
    zero: int
    names: tuple[str, ...] | None = None
