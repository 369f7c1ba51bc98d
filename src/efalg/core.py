"""Finite effect algebras and generalized effect algebras over explicit sum tables.

An algebra lives on elements 0..order-1. The partial operation is a square
lookup table whose cells hold either an element id or UNDEFINED. The table
also lists the defined sums of each row, PartialOpTable.row_sums, built with
its range check; every walk over the defined sums x + y, here and in the
other modules, reads that list. Validation is eager: constructing an algebra
runs the full axiom check once and refuses bad tables, so downstream code
never re-checks axioms. The same constructor builds the order data
(below/above masks, the ominus matrix, supplements) once; heavier derived structure is memoized per instance on first use.

Associativity is decided on a symmetric table by walking only the triples
whose left side (x + y) + z is defined, checking that x + (y + z) is defined
and equal. That is exact: on a symmetric table x + (y + z) = (z + y) + x,
so (x, y, z) -> (z, y, x) swaps the two sides of the axiom, and a triple
whose right side is defined mirrors a walked triple, where both sides were
already compared. The walk costs the number of left-defined triples instead
of order³. An asymmetric table, or one the walk rejects, gets the
lexicographic scan over all triples, which names the least witness; only
invalid tables pay for it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Mapping

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

    The table is fully materialized (no sparse rows) and immutable. Squareness
    and cell range are enforced here; everything semantic (symmetry included)
    is the verifier's job, so that broken tables can still be diagnosed.

    row_sums[x] holds the pairs (y, x + y) of the defined cells of row x, in
    column order. It is built in the range check's pass over every cell and
    is the one list of defined sums that every walk over x + y reads. It is
    an instance attribute, not a field, so it takes no part in ==, hash or
    repr.
    """

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.entries)
        if n < 1:
            raise MalformedTableError("empty table")
        sums = []
        for i, row in enumerate(self.entries):
            if len(row) != n:
                raise MalformedTableError(f"row {i} has length {len(row)}, expected {n}")
            sums.append(tuple((j, v) for j, v in enumerate(row) if v != UNDEFINED))
            for j, v in sums[-1]:
                if not (0 <= v < n):
                    raise MalformedTableError(f"cell ({i},{j}) holds {v}, out of range")
        object.__setattr__(self, "row_sums", tuple(sums))

    @property
    def order(self) -> int:
        return len(self.entries)

    @staticmethod
    def from_rows(rows: Iterable[Iterable[int]]) -> "PartialOpTable":
        return PartialOpTable(tuple(tuple(r) for r in rows))

    @staticmethod
    def from_pairs(order: int, pairs: Mapping[tuple[int, int], int]) -> "PartialOpTable":
        """Build a symmetric table from {(i, j): k} given for unordered pairs."""
        rows = [[UNDEFINED] * order for _ in range(order)]
        for (i, j), k in pairs.items():
            if not (0 <= i < order and 0 <= j < order):
                raise MalformedTableError(f"pair ({i},{j}) out of range for order {order}")
            for a, b in ((i, j), (j, i)):
                if rows[a][b] != UNDEFINED and rows[a][b] != k:
                    raise MalformedTableError(f"conflicting values for cell ({a},{b})")
                rows[a][b] = k
        return PartialOpTable.from_rows(rows)


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
    t = table.entries
    n = table.order
    violations: list[Violation] = []

    if zero == one:
        violations.append(Violation("E0", (zero,), "zero and one coincide"))

    # (Ei) commutativity, read off the stored table.
    asymmetric = _commutativity_violation(t, n, "Ei")
    violations.extend(asymmetric)

    # (Eii) associativity: if one side is defined, both are and they agree.
    violations.extend(_associativity_violation(table, "Eii", symmetric=not asymmetric))

    # (Eiii) every x has exactly one y with x + y = one.
    for x, row in enumerate(table.row_sums):
        sups = [y for y, v in row if v == one]
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
    t = table.entries
    n = table.order
    violations: list[Violation] = []

    asymmetric = _commutativity_violation(t, n, "GE1")
    violations.extend(asymmetric)
    violations.extend(_associativity_violation(table, "GE2", symmetric=not asymmetric))

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
    for x in range(n):
        if t[x][zero] != x:
            violations.append(Violation("GE5", (x,), "zero not neutral"))
            break

    return Verdict(not violations, tuple(violations))


def _commutativity_violation(t, n: int, axiom: str) -> list[Violation]:
    # Reads every cell: an asymmetric pair may hold UNDEFINED on either side.
    for x in range(n):
        hit = next((y for y in range(x + 1, n) if t[x][y] != t[y][x]), None)
        if hit is not None:
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
    """Base of immutable values that carry a memo of their derived data.

    The memo lives in the instance __dict__, outside the dataclass fields, so
    it takes no part in ==, hash, repr or dataclasses.replace, and pickling
    leaves it out.
    """

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k != _MEMO}


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

    Construction verifies the table once and then builds the order data that
    every method reads: the below and above masks, the ominus matrix and, for
    effect algebras, the orthosupplement vector. The defined sums themselves
    live on the table, as table.row_sums; sum and defined are point lookups
    in table.entries. The order data are plain instance
    attributes, not dataclass fields, so they take no part in ==, hash, repr
    or dataclasses.replace. The rank numbering that greatest/least lookups
    read, and heavier derived structure, are built on first use per instance
    (instances are immutable) and freed with the algebra.
    """

    table: PartialOpTable
    zero: int
    names: tuple[str, ...] | None
    _below: tuple[int, ...]
    _above: tuple[int, ...]
    _ominus: tuple[tuple[int | None, ...], ...]

    def __post_init__(self):
        n = self.table.order
        if self.names is not None:
            object.__setattr__(self, "names", tuple(self.names))
            if len(self.names) != n:
                raise MalformedTableError("names must cover every element")
        one = getattr(self, "one", None)
        if one is None:
            verdict = verify_generalized(self.table, self.zero)
        else:
            verdict = verify_effect_algebra(self.table, self.zero, one)
        if not verdict.ok:
            raise AxiomViolationError(verdict)

        # y + z = v puts y below v with v minus y = z; cancellation makes z unique.
        below = [0] * n
        above = []
        ominus = []
        for y, row in enumerate(self.table.row_sums):
            up = 0
            diffs: list[int | None] = [None] * n
            for z, v in row:
                below[v] |= 1 << y
                up |= 1 << v
                diffs[v] = z
            above.append(up)
            ominus.append(tuple(diffs))
        self.__dict__.update(_below=tuple(below), _above=tuple(above), _ominus=tuple(ominus))
        if one is not None:
            # the supplement of y is one minus y
            self.__dict__["_sup"] = tuple(diffs[one] for diffs in ominus)

    @property
    def order(self) -> int:
        return self.table.order

    def elements(self) -> range:
        return range(self.table.order)

    def sum(self, x: int, y: int) -> int | None:
        v = self.table.entries[x][y]
        return None if v == UNDEFINED else v

    def defined(self, x: int, y: int) -> bool:
        return self.table.entries[x][y] != UNDEFINED

    def leq(self, x: int, y: int) -> bool:
        return (self._below[y] >> x) & 1 == 1

    def ominus(self, x: int, y: int) -> int | None:
        """x minus y: the unique z with y + z = x, or None when y is not below x."""
        return self._ominus[y][x]

    def below_mask(self, x: int) -> int:
        """Bitmask of elements z with z <= x."""
        return self._below[x]

    def above_mask(self, x: int) -> int:
        return self._above[x]

    def down_set(self, x: int) -> tuple[int, ...]:
        return _mask_elements(self._below[x])

    def orthogonal_sum(self, family: Iterable[int]) -> int | None:
        """Left fold of the partial sum over a finite multiset; empty sums to zero.

        Validated associativity and commutativity make the result independent
        of the traversal order, so any iteration order of the multiset works.
        """
        acc = self.zero
        for x in family:
            nxt = self.sum(acc, x)
            if nxt is None:
                return None
            acc = nxt
        return acc

    # Rank numbering, built on first use: the elements sorted by the size of
    # their down-sets, ties broken by label. x < y gives y a strictly larger
    # down-set, so this is a linear extension of the order, and a set's
    # greatest element, if it has one, holds the set's top rank and its least
    # element the bottom rank. The label masks _below/_above stay the primary
    # order data; their iteration order fixes every witness.
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
        """Down-set of each element (indexed by label) in rank numbering."""
        return tuple(self._rank_mask(m) for m in self._below)

    @functools.cached_property
    def _rabove(self) -> tuple[int, ...]:
        """Up-set of each element (indexed by label) in rank numbering."""
        return tuple(self._rank_mask(m) for m in self._above)

    def _rank_mask(self, mask: int) -> int:
        """A label mask renumbered by rank."""
        rank = self._rank
        out = 0
        for x in _mask_elements(mask):
            out |= 1 << rank[x]
        return out

    # Meets and joins in the derived partial order. A missing bound is a
    # first-class None, never an error.
    def meet(self, x: int, y: int) -> int | None:
        return self._greatest(self._rbelow[x] & self._rbelow[y])

    def join(self, x: int, y: int) -> int | None:
        return self._least(self._rabove[x] & self._rabove[y])

    def meet_set(self, xs: Iterable[int]) -> int | None:
        mask = (1 << self.order) - 1
        for x in xs:
            mask &= self._rbelow[x]
        return self._greatest(mask)

    def join_set(self, xs: Iterable[int]) -> int | None:
        mask = (1 << self.order) - 1
        for x in xs:
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
        return self._sup[x]


@dataclass(frozen=True)
class FiniteGeneralizedEffectAlgebra(_SumAlgebra):
    """A validated finite generalized effect algebra (zero, no unit)."""

    table: PartialOpTable
    zero: int
    names: tuple[str, ...] | None = None
