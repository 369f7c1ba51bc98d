"""Named example algebras, random sampling, and exhaustive enumeration.

The enumerator completes partial sum tables cell by cell with constraint
propagation (forced zero row, forbidden unit row, cancellation within rows,
orthosupplement uniqueness, associativity) and de-duplicates leaves by
their canonical labelling, building one canonical algebra per class. Three
devices keep the search small:

- the supplement map first: x -> x' is an involution of the interior
  labels 1..n-2, and two involutions with the same number f of fixed points
  are conjugate. So every class has labellings whose supplement map is the
  pattern P_f that fixes 1..f and pairs (f+1, f+2), (f+3, f+4), and so on.
  One run per f with f = n (mod 2) pre-assigns x + P_f(x) = one;
- lex-leader constraints (Crawford, Ginsberg, Luks & Roy, "Symmetry-breaking
  predicates for search problems", KR 1996) for the involutions g that
  generate the centralizer C_f of P_f: the swaps of adjacent fixed points,
  the swap inside each pair and the swap of two adjacent pairs. Cells are
  filled column by column, and the table T, read as the sequence of its
  interior cells in that order with UNDEFINED below every label, must not
  exceed its relabelling g.T, which holds g(T[g(i)][g(j)]) at (i, j). A node
  is pruned once its assigned cells prove g.T < T for some g;
- watch lists: a newly assigned cell re-examines only its two rows and the
  interior triples that read it, found through an index from each value to
  the cells holding it, instead of rescanning every triple.

The search keeps a member of every class. A class has f interior x with
x + x = one, an invariant, so it meets the run for that f alone. Let T* be
the least table, in cell order, among its relabellings that fix zero and
one and carry P_f. For g in C_f, g.T* is another such relabelling, since
g P_f g^-1 = P_f; so T* passes every test. Propagation only assigns cells
that every completion shares. Hence T* is a leaf.

Pruning is a speed device only: every surviving leaf is re-validated by the
full axiom check, and completeness is guarded in the test suite by an
independent generate-and-filter oracle, by a seeded search without symmetry
breaking, and by counting that search's leaves: an order-n class E has
(n-2)!/|Aut(E)| labellings that fix zero and one (orbit-stabilizer).
"""

from __future__ import annotations

import random
from typing import Iterator, NamedTuple, Sequence

from .core import (
    UNDEFINED,
    AxiomViolationError,
    FiniteEffectAlgebra,
    PartialOpTable,
    verify_effect_algebra,  # not called here; perfbench's tracer wraps this module-level name
)
from .iso import _search, canonical_algebra, canonical_form

__all__ = [
    "GENERATOR_VERSION",
    "CatalogEntry",
    "EnumerationBoundError",
    "make_chain",
    "make_boolean",
    "horizontal_sum",
    "direct_product",
    "named_catalog",
    "enumerate_all",
    "random_algebra",
]

# Raised whenever the canonical tables that enumerate_all streams, or their
# order, change.
GENERATOR_VERSION = 3

DEFAULT_BOUND = 6
HARD_BOUND = 12

# (search nodes, leaves) that _complete_tables(n) visits, measured per order.
SEARCH_COST = {
    2: (1, 1),
    3: (1, 1),
    4: (7, 3),
    5: (17, 4),
    6: (92, 11),
    7: (225, 15),
    8: (1058, 53),
    9: (2605, 85),
    10: (12767, 384),
    11: (39413, 685),
    12: (257444, 4176),
    13: (1802041, 8106),
}

_UNDECIDED = -2


class EnumerationBoundError(ValueError):
    def __init__(self, max_order: int, bound: int):
        if max_order in SEARCH_COST:
            nodes, leaves = SEARCH_COST[max_order]
            cost = (
                f"the search at order {max_order} visits {nodes} nodes "
                f"and validates {leaves} leaves"
            )
        else:
            cost = f"the search cost at order {max_order} is not measured"
        super().__init__(f"max_order {max_order} exceeds the configured bound {bound}; {cost}")


class CatalogEntry(NamedTuple):
    """A named algebra, in the (name, algebra) shape ``run_suite`` reads."""

    name: str
    algebra: FiniteEffectAlgebra


def make_chain(n: int) -> FiniteEffectAlgebra:
    """The (n+1)-element chain with i + j defined exactly when i + j <= n."""
    if n < 1:
        raise ValueError("chain needs n >= 1; n = 0 collapses zero and one")
    rows = [[i + j if i + j <= n else UNDEFINED for j in range(n + 1)] for i in range(n + 1)]
    return FiniteEffectAlgebra(PartialOpTable.from_rows(rows), 0, n)


def make_boolean(k: int) -> FiniteEffectAlgebra:
    """Power-set algebra on k atoms; elements are bitmasks, sums disjoint unions."""
    if not (1 <= k <= 6):
        raise ValueError("boolean algebra supported for 1 <= k <= 6 atoms")
    n = 1 << k
    rows = [[i | j if i & j == 0 else UNDEFINED for j in range(n)] for i in range(n)]
    return FiniteEffectAlgebra(PartialOpTable.from_rows(rows), 0, n - 1)


def horizontal_sum(algebras: Sequence[FiniteEffectAlgebra]) -> FiniteEffectAlgebra:
    """Glue the summands at a shared zero and a shared unit.

    Sums inside a summand are inherited; sums across summands are undefined
    except through zero. Two-element summands contribute no interior and are
    absorbed, so a sum of 2-chains is the 2-chain.

    The result skips the axiom check, since the verified summands prove the
    axioms. Zero is neutral and one sums only with zero, as in every
    summand. A defined sum of two other elements puts both in one summand
    A, where it is computed, so commutativity and associativity reduce to
    A's (zero and one belong to every summand). An interior x of A has its
    supplement in A and sums to one with nothing outside A; and zero != one,
    as the order is at least two.
    """
    if not algebras:
        raise ValueError("horizontal sum needs at least one summand")
    order = sum(alg.order - 2 for alg in algebras) + 2
    one = order - 1
    # zero's and one's rows are shared by every summand: zero is neutral and
    # one sums only with zero
    rows = [[(y, y) for y in range(order)]] + [[] for _ in range(order - 2)] + [[(0, one)]]
    next_id = 1
    for alg in algebras:
        label = {alg.zero: 0, alg.one: one}
        for x in alg.elements():
            if x not in label:
                label[x] = next_id
                next_id += 1
        for x, row in enumerate(alg.table.row_sums):
            if x != alg.zero and x != alg.one:
                rows[label[x]] = sorted((label[y], label[v]) for y, v in row)
    return FiniteEffectAlgebra._trusted(PartialOpTable.from_sums(rows), 0, one)


def direct_product(a: FiniteEffectAlgebra, b: FiniteEffectAlgebra) -> FiniteEffectAlgebra:
    """Componentwise algebra on pairs, indexed row major.

    The result skips the axiom check, since the verified factors prove the
    axioms: sums are defined and computed coordinate by coordinate, so
    commutativity and associativity hold in each coordinate, the only
    supplement of (x, y) is (x', y'), (one, one) + (x, y) is defined only
    for x and y zero, and (zero, zero) != (one, one).
    """
    nb = b.order
    # row x1 * nb + y1 combines row x1 of a with row y1 of b; its columns
    # x2 * nb + y2 ascend with x2, then y2
    rows = [
        [(x2 * nb + y2, u * nb + v) for x2, u in row_a for y2, v in row_b]
        for row_a in a.table.row_sums
        for row_b in b.table.row_sums
    ]
    return FiniteEffectAlgebra._trusted(
        PartialOpTable.from_sums(rows), a.zero * nb + b.zero, a.one * nb + b.one
    )


def named_catalog() -> tuple[CatalogEntry, ...]:
    """The fixed example algebras exercised by tests and the property suite."""
    return tuple(CatalogEntry(f"chain-{n + 1}", make_chain(n)) for n in range(1, 7)) + (
        CatalogEntry("boolean-4", make_boolean(2)),
        CatalogEntry("boolean-8", make_boolean(3)),
        CatalogEntry("hsum-3-3", horizontal_sum([make_chain(2), make_chain(2)])),
        CatalogEntry("hsum-3-3-3", horizontal_sum([make_chain(2)] * 3)),
        CatalogEntry("hsum-4-3", horizontal_sum([make_chain(3), make_chain(2)])),
        CatalogEntry("hsum-4-4", horizontal_sum([make_chain(3), make_chain(3)])),
        CatalogEntry("hsum-b4-3", horizontal_sum([make_boolean(2), make_chain(2)])),
        CatalogEntry("product-3x2", direct_product(make_chain(2), make_chain(1))),
        CatalogEntry("product-4x2", direct_product(make_chain(3), make_chain(1))),
    )


# ---------------------------------------------------------------------------
# enumeration


def _complete_tables(n: int, rng: random.Random | None = None) -> Iterator[FiniteEffectAlgebra]:
    """Depth-first completion of sum tables with zero = 0 and one = n - 1.

    Every isomorphism class has a representative in this labeling, so the
    stream is complete up to isomorphism once de-duplicated. Yields only
    tables that pass the full axiom check.

    Unseeded, one run per supplement pattern P_f fills cells column by
    column and prunes nodes that break a lex-leader constraint. Seeded
    (``rng``), cells are filled row by row and every candidate is tried in
    shuffled order, so that search shares no symmetry breaking with the
    unseeded one.
    """
    one = n - 1
    t = [[_UNDECIDED] * n for _ in range(n)]
    for x in range(n):
        t[0][x] = t[x][0] = x
        if x != 0:
            t[one][x] = t[x][one] = UNDEFINED

    interior = range(1, one)
    if rng is None:
        cells = [(i, j) for j in interior for i in range(1, j + 1)]
    else:
        cells = [(i, j) for i in interior for j in range(i, one)]
    # watch data, restored by undo: the defined values of each row (as a
    # mask), the undecided interior cells of each row, and for each value
    # the ordered interior cells holding it
    used = [1 << x for x in range(n)]
    open_cells = [n - 2] * n
    holding: list[list[tuple[int, int]]] = [[] for _ in range(n)]

    def assign(i: int, j: int, v: int, trail: list) -> bool:
        if v != UNDEFINED:
            # cancellation: a defined value may appear once per row
            bit = 1 << v
            if (used[i] | used[j]) & bit:
                return False
            used[i] |= bit
            used[j] |= bit
            holding[v].append((i, j))
            if i != j:
                holding[v].append((j, i))
        t[i][j] = t[j][i] = v
        open_cells[i] -= 1
        if i != j:
            open_cells[j] -= 1
        trail.append((i, j, v))
        return True

    def settle(x: int, xy: int, yz: int, z: int, left: int, right: int, trail: list) -> bool:
        # (x + y) + z reads `left`, x + (y + z) reads `right`, and they differ
        if left == _UNDECIDED or right == _UNDECIDED:
            if left >= 0 and yz >= 0:
                return assign(x, yz, left, trail)
            if right >= 0 and xy >= 0:
                return assign(xy, z, right, trail)
            return True
        return False

    def propagate(trail: list) -> bool:
        """Close the trail under the rules, examining only what each new cell reads."""
        head = 0
        while head < len(trail):
            a, b, _ = trail[head]
            head += 1
            for x, y in ((a, b), (b, a)) if a != b else ((a, b),):
                tx = t[x]
                # orthosupplement: each interior row needs exactly one cell = one
                if not used[x] >> one & 1:
                    if open_cells[x] == 0:
                        return False
                    if open_cells[x] == 1 and not assign(x, tx.index(_UNDECIDED), one, trail):
                        return False
                # associativity of interior triples; triples touching zero or
                # one hold automatically in this frame. A triple and its
                # mirror (z, y, x) compare the same two sides, so only one of
                # them is examined. First the cell read as x + y (and, with
                # the mirror, as y + z) ...
                xy = tx[y]
                ty = t[y]
                txy = t[xy] if xy >= 0 else None
                for z in interior:
                    yz = ty[z]
                    left = txy[z] if xy >= 0 else xy
                    right = tx[yz] if yz >= 0 else yz
                    if left != right and not settle(x, xy, yz, z, left, right, trail):
                        return False
                # ... then as (p + q) + y with p + q = x (and, with the
                # mirror, as p + (q + y))
                for p, q in holding[x]:
                    yz = t[q][y]
                    right = t[p][yz] if yz >= 0 else yz
                    if xy != right and not settle(p, x, yz, y, xy, right, trail):
                        return False
        return True

    def undo(trail: list):
        for i, j, v in reversed(trail):
            t[i][j] = t[j][i] = _UNDECIDED
            open_cells[i] += 1
            if i != j:
                open_cells[j] += 1
            if v != UNDEFINED:
                used[i] &= ~(1 << v)
                used[j] &= ~(1 << v)
                del holding[v][-2 if i != j else -1 :]

    def candidates(i: int, j: int) -> list[int]:
        free = ~(used[i] | used[j])
        values = [v for v in range(1, n) if free >> v & 1]
        if rng is not None:
            rng.shuffle(values)
            if rng.random() < 0.5:
                return values + [UNDEFINED]
        return [UNDEFINED] + values

    def lex_open(pending: list) -> list | None:
        """The comparisons T <= g.T still undecided, or None if the assigned cells prove g.T < T.

        Each entry is (g, image, p): cells before p agree in T and g.T, and
        image holds, per cell (i, j) in cell order, the row and column of T
        at (i, j) and at (g(i), g(j)); g.T holds g(T[g(i)][g(j)]) at (i, j).
        """
        out = []
        for g, image, p in pending:
            while p < len(image):
                row, j, grow, gj = image[p]
                x, y = row[j], grow[gj]
                if x == _UNDECIDED or y == _UNDECIDED:
                    out.append((g, image, p))
                    break
                y = g[y]
                if x != y:
                    if y < x:
                        return None
                    break
                p += 1
        return out

    def dfs(k: int, pending: list) -> Iterator[FiniteEffectAlgebra]:
        while k < len(cells) and t[cells[k][0]][cells[k][1]] != _UNDECIDED:
            k += 1
        if k == len(cells):
            try:
                alg = FiniteEffectAlgebra(PartialOpTable.from_rows(t), 0, one)
            except AxiomViolationError:
                return
            yield alg
            return
        i, j = cells[k]
        for v in candidates(i, j):
            trail: list = []
            if assign(i, j, v, trail) and propagate(trail):
                still = lex_open(pending)
                if still is not None:
                    yield from dfs(k + 1, still)
            undo(trail)

    if rng is not None:
        yield from dfs(0, [])
        return
    # one run per fixed-point count f of x -> x': pre-assign x + P_f(x) = one,
    # then test T <= g.T for the involutions g that generate P_f's centralizer
    for f in range(n % 2, n - 1, 2):
        pairs = range(f + 1, one, 2)
        generators = [((k, k + 1),) for k in range(1, f)]
        generators += [((a, a + 1),) for a in pairs]
        generators += [((a, a + 2), (a + 1, a + 3)) for a in pairs if a + 3 < one]
        pending = []
        for swaps in generators:
            # g as a lookup table; its last entry maps UNDEFINED (-1) to itself
            g = list(range(n)) + [UNDEFINED]
            for a, b in swaps:
                g[a], g[b] = b, a
            pending.append((g, [(t[i], j, t[g[i]], g[j]) for i, j in cells], 0))
        trail = []
        if (
            all(assign(x, x, one, trail) for x in range(1, f + 1))
            and all(assign(a, a + 1, one, trail) for a in pairs)
            and propagate(trail)
        ):
            yield from dfs(0, pending)
        undo(trail)


def enumerate_all(max_order: int, *, bound: int = DEFAULT_BOUND) -> Iterator[FiniteEffectAlgebra]:
    """Stream all effect algebras up to the given order, one per isomorphism class.

    Streams canonical relabelings, order by order, each order's classes
    sorted by canonical bytes, so the stream does not depend on the search.
    Refuses orders past the configured bound with the measured search cost,
    at the call, before anything is streamed. The hard ceiling is the
    largest order whose class count a search with other symmetry breaking
    has confirmed; the search is exponential in the cell count.
    """
    if max_order > min(bound, HARD_BOUND):
        raise EnumerationBoundError(max_order, min(bound, HARD_BOUND))
    return _stream(max_order)


def _stream(max_order: int) -> Iterator[FiniteEffectAlgebra]:
    for n in range(2, max_order + 1):
        # equal labelling keys give equal canonical tables, so one leaf of
        # each class is relabelled into a new algebra. That leaf's memo holds
        # its class, so each leaf is dropped as its class is yielded.
        leaves = {_search(alg)[0]: alg for alg in _complete_tables(n)}.values()
        leaves = sorted(leaves, key=canonical_form, reverse=True)
        while leaves:
            yield canonical_algebra(leaves.pop())


def random_algebra(seed: int, order: int, *, bound: int = DEFAULT_BOUND) -> FiniteEffectAlgebra:
    """First completed table of a seed-shuffled search; deterministic per seed."""
    if order > min(bound, HARD_BOUND):
        raise EnumerationBoundError(order, min(bound, HARD_BOUND))
    if order < 2:
        raise ValueError("order must be at least 2")
    rng = random.Random(seed)
    alg = next(_complete_tables(order, rng), None)
    if alg is None:
        raise AssertionError("search space unexpectedly empty")
    return alg
