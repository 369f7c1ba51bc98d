"""Isomorphism testing and canonical forms for finite effect algebras.

Backtracking over element bijections, pruned by cheap per-element invariants
(order of the element, height, down-set size, sum degree, sharpness). The
pruning only speeds things up; soundness comes from re-verifying every
witness and completeness from exhausting the invariant-respecting search
space.
"""

from __future__ import annotations

import math
from typing import Iterator

from .core import (
    UNDEFINED,
    FiniteEffectAlgebra,
    FiniteGeneralizedEffectAlgebra,
    PartialOpTable,
    _SumAlgebra,
    memoized,
)
from .structure import element_order, sharp_elements

__all__ = ["find_isomorphism", "isomorphisms", "canonical_algebra", "canonical_form"]

_CANDIDATE_CAP = 2_000_000


@memoized
def _invariants(alg: _SumAlgebra) -> tuple[tuple, ...]:
    n = alg.order
    heights = _heights(alg)
    sharp = set(sharp_elements(alg)) if isinstance(alg, FiniteEffectAlgebra) else set()
    one = alg.one if isinstance(alg, FiniteEffectAlgebra) else None
    rows = alg.table.entries
    out = []
    for x in range(n):
        o = element_order(alg, x)
        degree = sum(1 for v in rows[x] if v != UNDEFINED)
        indegree = sum(1 for a in range(n) for b in range(n) if rows[a][b] == x)
        down = bin(alg.below_mask(x)).count("1")
        out.append(
            (
                x == alg.zero,
                x == one,
                x in sharp,
                -1 if o == math.inf else int(o),
                heights[x],
                down,
                degree,
                indegree,
            )
        )
    return tuple(out)


@memoized
def _heights(alg: _SumAlgebra) -> tuple[int, ...]:
    n = alg.order
    heights = [0] * n
    order_by_down = sorted(range(n), key=lambda x: bin(alg.below_mask(x)).count("1"))
    for x in order_by_down:
        below = [z for z in range(n) if z != x and alg.leq(z, x)]
        heights[x] = 1 + max((heights[z] for z in below), default=-1)
    return tuple(heights)


def _compatible_kinds(a, b) -> bool:
    return type(a) is type(b)


def isomorphisms(a: _SumAlgebra, b: _SumAlgebra) -> Iterator[tuple[int, ...]]:
    """Yield every bijection preserving the constants and the partial sum."""
    if not _compatible_kinds(a, b) or a.order != b.order:
        return
    inv_a = _invariants(a)
    inv_b = _invariants(b)
    if sorted(inv_a) != sorted(inv_b):
        return
    n = a.order
    ta = a.table.entries
    tb = b.table.entries
    candidates = [
        tuple(y for y in range(n) if inv_b[y] == inv_a[x]) for x in range(n)
    ]
    mapping: list[int] = [-1] * n
    used = [False] * n

    def image(v: int, y: int, x: int) -> int:
        # Image of v under the partial map extended with x -> y; -1 if unmapped.
        if v == x:
            return y
        return mapping[v] if v < x else -1

    def consistent(x: int, y: int) -> bool:
        for u in range(x + 1):
            va = ta[u][x]
            vb = tb[image(u, y, x)][y]
            if (va == UNDEFINED) != (vb == UNDEFINED):
                return False
            if va != UNDEFINED:
                img = image(va, y, x)
                if img != -1 and img != vb:
                    return False
        return True

    def extend(x: int) -> Iterator[tuple[int, ...]]:
        if x == n:
            yield tuple(mapping)
            return
        for y in candidates[x]:
            if used[y] or not consistent(x, y):
                continue
            mapping[x] = y
            used[y] = True
            yield from extend(x + 1)
            mapping[x] = -1
            used[y] = False

    for full in extend(0):
        if _is_morphism(a, b, full):
            yield full


def _is_morphism(a: _SumAlgebra, b: _SumAlgebra, mapping: tuple[int, ...]) -> bool:
    """Full re-verification: definedness and values agree in both directions."""
    n = a.order
    if sorted(mapping) != list(range(n)):
        return False
    if mapping[a.zero] != b.zero:
        return False
    if isinstance(a, FiniteEffectAlgebra) and mapping[a.one] != b.one:
        return False
    ta = a.table.entries
    tb = b.table.entries
    for x in range(n):
        for y in range(n):
            va = ta[x][y]
            vb = tb[mapping[x]][mapping[y]]
            if va == UNDEFINED:
                if vb != UNDEFINED:
                    return False
            elif vb == UNDEFINED or mapping[va] != vb:
                return False
    return True


def find_isomorphism(a: _SumAlgebra, b: _SumAlgebra) -> tuple[int, ...] | None:
    """A verified isomorphism witness between the two algebras, or None."""
    return next(isomorphisms(a, b), None)


def _relabel_key(alg: _SumAlgebra, perm: tuple[int, ...]) -> tuple[int, ...]:
    """Row-major relabeled table with UNDEFINED encoded past every element id."""
    n = alg.order
    t = alg.table.entries
    inverse = [0] * n
    for old, new in enumerate(perm):
        inverse[new] = old
    flat = []
    for i in range(n):
        oi = inverse[i]
        row = t[oi]
        for j in range(n):
            v = row[inverse[j]]
            flat.append(n if v == UNDEFINED else perm[v])
    return tuple(flat)


def _relabel_perms(alg: FiniteEffectAlgebra) -> Iterator[tuple[int, ...]]:
    """All invariant-respecting relabelings fixing zero at 0 and one at order-1."""
    n = alg.order
    inv = _invariants(alg)
    classes: dict[tuple, list[int]] = {}
    for x in range(n):
        if x in (alg.zero, alg.one):
            continue
        classes.setdefault(inv[x], []).append(x)
    ordered = [classes[k] for k in sorted(classes)]

    total = 1
    for cls in ordered:
        for c in range(2, len(cls) + 1):
            total *= c
        if total > _CANDIDATE_CAP:
            raise RuntimeError("canonical labeling search space too large")

    label_blocks: list[tuple[int, list[int]]] = []
    next_label = 1
    for cls in ordered:
        label_blocks.append((next_label, cls))
        next_label += len(cls)

    perm = [0] * n
    perm[alg.zero] = 0
    perm[alg.one] = n - 1

    def assign(block_idx: int) -> Iterator[tuple[int, ...]]:
        if block_idx == len(label_blocks):
            yield tuple(perm)
            return
        start, cls = label_blocks[block_idx]
        yield from _permute_into(cls, start, perm, lambda: assign(block_idx + 1))

    yield from assign(0)


def _permute_into(cls, start, perm, cont) -> Iterator[tuple[int, ...]]:
    if not cls:
        yield from cont()
        return
    for i, x in enumerate(cls):
        rest = cls[:i] + cls[i + 1 :]
        perm[x] = start
        yield from _permute_into(rest, start + 1, perm, cont)


@memoized
def canonical_algebra(alg: FiniteEffectAlgebra) -> FiniteEffectAlgebra:
    """A canonical relabeling: least row-major table over the refined search space.

    Zero is relabeled 0 and one is relabeled order-1; the remaining labels
    are assigned within invariant classes (classes and their order are
    themselves isomorphism invariants, so restricting the search preserves
    the canonical property) minimizing the row-major relabeled table. Equal
    outputs exactly characterize isomorphism.
    """
    best_key = None
    best_perm = None
    for perm in _relabel_perms(alg):
        key = _relabel_key(alg, perm)
        if best_key is None or key < best_key:
            best_key = key
            best_perm = perm
    assert best_perm is not None
    n = alg.order
    rows = [[UNDEFINED] * n for _ in range(n)]
    t = alg.table.entries
    for i in range(n):
        for j in range(n):
            v = t[i][j]
            if v != UNDEFINED:
                rows[best_perm[i]][best_perm[j]] = best_perm[v]
    table = PartialOpTable.from_rows(rows)
    return FiniteEffectAlgebra(table, 0, n - 1)


def canonical_form(alg: FiniteEffectAlgebra) -> bytes:
    """Canonical byte serialization; equal bytes exactly when isomorphic."""
    from .fileformat import serialize

    return serialize(canonical_algebra(alg)).encode("ascii")
