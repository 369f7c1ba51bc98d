"""Isomorphism testing and canonical forms for finite effect algebras.

One individualization-refinement search (McKay & Piperno, "Practical graph
isomorphism, II", J. Symbolic Comput. 60, 2014) labels each algebra. An
ordered partition of the elements, seeded with label-invariant data, is
refined against the sum table; the first non-singleton cell is then
individualized one element at a time. Each discrete partition (a leaf)
relabels the table, and the least relabelled table is the canonical form.
Two leaves with equal tables differ by an automorphism; those found prune
the children that lie in one orbit of the automorphisms fixing the current
path, and together they generate the whole automorphism group. Every map
handed out is re-verified.

`isomorphisms(a, b)` does two things less than searching both algebras in
full, and neither moves a witness or a canonical byte:
- an invariant filter. Each element's invariant (non-zero, the unit, sharp,
  its order) is preserved by every isomorphism, so when the two sorted
  invariant lists differ the algebras are not isomorphic and no search runs.
  Equal lists run the searches as before.
- an early stop for b. When a and b are isomorphic, b's least key is a's,
  and b's least leaf is its first leaf with that key: the least leaf is only
  replaced by a strictly smaller key, and the search up to that leaf is the
  full one, pruning included. So b's search stops there with the labelling
  the full search returns, and the hunt for b's automorphisms after it is
  skipped; only a's generators are read. The stopped search is memoized
  under its target, apart from b's full search, so a later canonical form
  or automorphism group of b still comes from b's full search.
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter
from typing import Iterator, Sequence

from .core import (
    UNDEFINED,
    FiniteEffectAlgebra,
    PartialOpTable,
    _SumAlgebra,
    memoized,
)
from .fileformat import _write
from .structure import element_order, sharp_elements

__all__ = ["find_isomorphism", "isomorphisms", "morphism_failure", "canonical_algebra", "canonical_form"]


def _split(xs, key) -> list[list[int]]:
    """xs grouped by key, groups ordered by key, each in the order of xs."""
    groups: dict = {}
    for x in xs:
        groups.setdefault(key(x), []).append(x)
    return [groups[k] for k in sorted(groups)]


def _refine(sums, cells: list[list[int]]) -> list[list[int]]:
    """Split cells by the multiset of (cell of y, cell of x+y) over defined sums, until stable.

    sums is a table's row_sums: sums[x] lists the pairs (y, x + y) of the
    defined sums in row x.
    """
    n = len(sums)
    while True:
        cell_of = [0] * n
        for k, cell in enumerate(cells):
            for x in cell:
                cell_of[x] = k
        m = len(cells)

        def signature(x):
            return tuple(sorted([cell_of[y] * m + cell_of[v] for y, v in sums[x]]))

        refined = []
        for cell in cells:
            refined.extend(_split(cell, signature) if len(cell) > 1 else (cell,))
        if len(refined) == len(cells):
            return cells
        cells = refined


def _orbit_min(gens, n: int) -> list[int]:
    """Least element of each point's orbit under the group the generators generate."""
    root = list(range(n))

    def find(x):
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for g in gens:
        for x, y in enumerate(g):
            a, b = find(x), find(y)
            if a != b:
                root[max(a, b)] = min(a, b)
    return [find(x) for x in range(n)]


@memoized
def _invariants(alg: _SumAlgebra) -> tuple[tuple[bool, bool, bool, int], ...]:
    """Per element: non-zero, the unit, sharp, and its order; every isomorphism preserves each."""
    if isinstance(alg, FiniteEffectAlgebra):
        sharp, one = set(sharp_elements(alg)), alg.one
    else:
        sharp, one = set(), None
    return tuple((x != alg.zero, x == one, x in sharp, element_order(alg, x)) for x in alg.elements())


@memoized
def _search(
    alg: _SumAlgebra, target: tuple[int, ...] | None = None
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """The least leaf's key and labelling, and generators of the automorphism group.

    The key is the relabelled table, row-major, with UNDEFINED encoded as the
    order; the labelling maps each element to its new label. Zero gets label 0
    and, in an effect algebra, one gets label order-1.

    Given a target key, the search stops at the first leaf whose key equals
    it. When the target is the least key, that leaf is the least leaf, so
    the key and labelling are the full search's, but the generators are
    only those found so far. The memo keeps each target apart, so the full
    search, _search(alg), never reads a stopped one.
    """
    n = alg.order
    rows, sums = alg.table.entries, alg.table.row_sums
    gens: list[tuple[int, ...]] = []
    first = best = None  # (key, labelling, path) of the first and of the least leaf

    def leaf(cells, path) -> int:
        nonlocal first, best
        order = [x for (x,) in cells]
        label = [0] * n + [n]  # label[UNDEFINED] is label[-1], which is n
        for i, x in enumerate(order):
            label[x] = i
        if n == 1:  # itemgetter of one index returns the item, not a tuple
            key = (label[rows[0][0]],)
        else:  # row x of the key is label[rows[x][y]] for y in order
            pick = itemgetter(*order)
            key = itemgetter(*chain.from_iterable(map(pick, pick(rows))))(label)
        for ref in (first, best):
            if ref is not None and key == ref[0]:
                gens.append(tuple(order[ref[1][x]] for x in range(n)))
                # the subtree below the first differing choice is the image of
                # the one holding ref: resume at their common ancestor
                return next((d for d, (u, v) in enumerate(zip(path, ref[2])) if u != v), len(path))
        if best is None or key < best[0]:
            best = (key, label, path)
            if key == target:
                return -1  # unwinds the whole search
        if first is None:
            first = best
        return len(path)

    def visit(cells, path) -> int:
        """Explore a node; return the depth at which the search resumes.

        A child w is pruned when a found automorphism fixing the path maps it
        to a smaller member of its cell. The cell's first member is never
        pruned, so its orbit is not computed: every cell is in ascending
        order (_split keeps the order of its input, and individualizing w
        leaves the rest in order), so the first member is the cell's least.
        An automorphism that fixes the path fixes each cell of the refined
        partition, so the first member's orbit lies in the cell and that
        member is its least.
        """
        cells = _refine(sums, cells)
        k = next((k for k, cell in enumerate(cells) if len(cell) > 1), None)
        if k is None:
            return leaf(cells, path)
        depth = len(path)
        known = -1
        cell = cells[k]
        for w in cell:
            if w != cell[0]:
                if len(gens) != known:  # orbits of the found automorphisms fixing the path
                    known = len(gens)
                    rep = _orbit_min([g for g in gens if all(g[v] == v for v in path)], n)
                if rep[w] != w:
                    continue
            rest = [u for u in cell if u != w]
            back = visit(cells[:k] + [[w], rest] + cells[k + 1 :], path + (w,))
            if back < depth:
                return back
        return depth

    visit(_split(alg.elements(), _invariants(alg).__getitem__), ())
    key, label, _ = best
    return key, tuple(label[:n]), tuple(gens)


def _group(gens, n: int) -> Iterator[tuple[int, ...]]:
    """Each element of the group the generators generate, once, identity first."""
    identity = tuple(range(n))
    seen = {identity}
    queue = [identity]
    for g in queue:
        yield g
        for s in gens:
            h = tuple(g[x] for x in s)
            if h not in seen:
                seen.add(h)
                queue.append(h)


def isomorphisms(a: _SumAlgebra, b: _SumAlgebra) -> Iterator[tuple[int, ...]]:
    """Yield every bijection preserving the constants and the partial sum, each once."""
    if type(a) is not type(b) or a.order != b.order:
        return
    if sorted(_invariants(a)) != sorted(_invariants(b)):
        return
    key_a, label_a, gens = _search(a)
    key_b, label_b, _ = _search(b, key_a)  # b's generators are not read: stop at its first leaf keyed key_a
    if key_a != key_b:
        return
    by_label_b = sorted(range(b.order), key=label_b.__getitem__)
    witness = [by_label_b[i] for i in label_a]
    for auto in _group(gens, a.order):
        mapping = tuple(witness[x] for x in auto)
        if morphism_failure(a, b, mapping) is None:
            yield mapping


def morphism_failure(a: _SumAlgebra, b: _SumAlgebra, mapping: Sequence[int]) -> tuple | None:
    """Why mapping is not an isomorphism from a onto b, as (reason, witness), or None.

    The first failure in this order: "not bijective", None, also for unequal
    orders; "zero not preserved", (a.zero,); for effect algebras "one not
    preserved", (a.one,); then over a's pairs (x, y), row-major,
    "definedness mismatch" or "sum value mismatch", (x, y).

    Both tables must be symmetric, as every algebra's is (verified, or
    trusted after a proof). Then the cell (x, y) fails exactly when (y, x)
    does: it compares a's x + y = y + x with b's image cell, which is the
    same on both sides. So the first row-major failure has x <= y.

    The check decides on the defined sums: a bijection that keeps the
    constants fails no cell exactly when each row x of a has as many defined
    sums as row mapping[x] of b, and each defined x + y = v of a with y >= x
    has b's image cell equal to mapping[v]. Necessary, as an isomorphism
    maps row x's defined cells onto row mapping[x]'s. Enough: by the
    symmetry of both tables every defined cell of a, left of the diagonal
    too, then maps onto a defined cell of b holding the mapped value;
    (x, y) -> (mapping[x], mapping[y]) is injective, so these images fill
    all of row mapping[x]'s defined cells, and every undefined cell of row
    x maps onto an undefined one. Only on a failed decision are the cells
    on and right of the diagonal scanned, to name the first failure.
    """
    n = a.order
    if b.order != n or sorted(mapping) != list(range(n)):
        return "not bijective", None
    if mapping[a.zero] != b.zero:
        return "zero not preserved", (a.zero,)
    if isinstance(a, FiniteEffectAlgebra) and mapping[a.one] != b.one:
        return "one not preserved", (a.one,)
    if _keeps_defined_sums(a, b, mapping):
        return None
    # Every cell of the triangle, not a's row_sums: a cell defined in b but
    # not in a is a failure.
    for x, row in enumerate(a.table.entries):
        image = b.table.entries[mapping[x]]
        for y, v in enumerate(row[x:], x):
            w = image[mapping[y]]
            if (v == UNDEFINED) != (w == UNDEFINED):
                return "definedness mismatch", (x, y)
            if v != UNDEFINED and mapping[v] != w:
                return "sum value mismatch", (x, y)
    return None


def _keeps_defined_sums(a: _SumAlgebra, b: _SumAlgebra, mapping: Sequence[int]) -> bool:
    """morphism_failure's decision: equal defined-sum counts on row x and row
    mapping[x], and each defined x + y = v of a with y >= x sent to b's cell."""
    image_sums, image_rows = b.table.row_sums, b.table.entries
    for x, row in enumerate(a.table.row_sums):
        mx = mapping[x]
        if len(row) != len(image_sums[mx]):
            return False
        image = image_rows[mx]
        for y, v in row:
            if y >= x and image[mapping[y]] != mapping[v]:
                return False
    return True


def find_isomorphism(a: _SumAlgebra, b: _SumAlgebra) -> tuple[int, ...] | None:
    """A verified isomorphism witness between the two algebras, or None."""
    return next(isomorphisms(a, b), None)


def _effect_algebra(alg: _SumAlgebra) -> FiniteEffectAlgebra:
    """alg itself; anything other than a FiniteEffectAlgebra, which has no
    unit to relabel as order-1, is refused with ValueError."""
    if not isinstance(alg, FiniteEffectAlgebra):
        raise ValueError(f"canonical form needs a FiniteEffectAlgebra, got {type(alg).__name__}")
    return alg


@memoized
def canonical_algebra(alg: FiniteEffectAlgebra) -> FiniteEffectAlgebra:
    """A canonical relabeling: the least relabelled table over the leaves of the search.

    Zero is relabeled 0 and one is relabeled order-1. The search tree of a
    relabelled copy is the relabelled tree, so its leaves give the same
    tables; equal outputs exactly characterize isomorphism.

    The result skips the axiom check: the key is alg's table relabelled by
    a bijection that sends zero to 0 and one to order-1, so the result is
    isomorphic to the verified alg and satisfies the same axioms.
    """
    key = _search(_effect_algebra(alg))[0]
    n = alg.order
    sums = [[(j, v) for j, v in enumerate(key[i * n : (i + 1) * n]) if v != n] for i in range(n)]
    return FiniteEffectAlgebra._trusted(PartialOpTable.from_sums(sums), 0, n - 1)


def canonical_form(alg: FiniteEffectAlgebra) -> bytes:
    """Canonical byte serialization; equal bytes exactly when isomorphic.

    The bytes are serialize(canonical_algebra(alg)), written straight from
    the search key: the serializer's writer reads each row's (column, value)
    pairs off the key, where the value n marks an undefined sum.
    """
    key = _search(_effect_algebra(alg))[0]
    n = alg.order
    rows = [
        [(j, v) for j, v in enumerate(key[i * n + i : (i + 1) * n], start=i) if v != n] for i in range(n)
    ]
    return _write("efa", n, 0, n - 1, None, rows).encode("ascii")
