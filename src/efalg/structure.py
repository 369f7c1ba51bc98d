"""Structural analysis of finite effect algebras.

Computes the distinguished element sets (sharp, meager, hypermeager,
principal, central), blocks, the classifier flags, sharp bounds and the
unique sharp-meager decomposition, the closure operators used in the block
theory, and the Heyting check for blocks.

Finiteness is load bearing in three places and all are deliberate:
every orthogonal family of nonzero elements has size below the order
(partial sums strictly increase), so orthocompleteness and its meager
variant hold automatically; every nonzero element has finite order,
so the Archimedean property holds, and is_archimedean is decided by that
proof (element_order still walks each element's multiples, so a table that
breaks it fails there); and every nonzero element is a sum of atoms, so the
blocks are the maximal sub-sum sets of the atom decompositions of the unit.
One walk over orthogonal families, `_families`, finds those sets and also
decides internal compatibility.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

from .core import (
    UNDEFINED,
    FiniteEffectAlgebra,
    FiniteGeneralizedEffectAlgebra,
    PartialOpTable,
    _SumAlgebra,
    _check_element,
    _mask_elements,
    memoized,
)

__all__ = [
    "Flag",
    "SharpBounds",
    "StructureReport",
    "HypothesisError",
    "sharp_elements",
    "meager_elements",
    "hypermeager_elements",
    "element_order",
    "is_archimedean",
    "principal_elements",
    "central_elements",
    "are_compatible",
    "is_internally_compatible",
    "blocks",
    "rdp_counterexample",
    "has_rdp",
    "homogeneity_counterexample",
    "is_homogeneous",
    "orthoalgebra_counterexample",
    "lattice_counterexample",
    "is_lattice",
    "sharp_bounds",
    "is_sharply_dominating",
    "decompose",
    "vartheta",
    "theta_map",
    "sigma_closure",
    "is_sub_effect_algebra",
    "restrict",
    "restrict_downset",
    "interval_algebra",
    "meager_algebra",
    "hypermeager_algebra",
    "is_boolean_algebra",
    "heyting_block_check",
    "structure_report",
]


class HypothesisError(RuntimeError):
    """An operation was applied to an algebra that violates its hypotheses."""

    def __init__(self, hypothesis: str, witness=None):
        self.hypothesis = hypothesis
        self.witness = witness
        suffix = f" (witness {witness})" if witness is not None else ""
        super().__init__(f"hypothesis not met: {hypothesis}{suffix}")


# ---------------------------------------------------------------------------
# element sets


@memoized
def _below_both(E: FiniteEffectAlgebra) -> tuple[int, ...]:
    """Per element x, the mask of the common lower bounds of x and x'."""
    below, sup = E._below, E._sup
    return tuple(below[x] & below[sup[x]] for x in E.elements())


@memoized
def sharp_elements(E: FiniteEffectAlgebra) -> tuple[int, ...]:
    """Elements whose only common lower bound with their supplement is zero."""
    zero = 1 << E.zero
    return tuple(x for x, common in enumerate(_below_both(E)) if common == zero)


@memoized
def meager_elements(E: FiniteEffectAlgebra) -> tuple[int, ...]:
    """Elements with no nonzero sharp element below them."""
    sharp = sum(1 << s for s in sharp_elements(E))
    return tuple(x for x in E.elements() if E._below[x] & sharp == 1 << E.zero)


@memoized
def hypermeager_elements(E: FiniteEffectAlgebra) -> tuple[int, ...]:
    """Elements lying below some y and below its supplement at the same time:
    the union over y of the common lower bounds of y and y'."""
    union = 0
    for common in _below_both(E):
        union |= common
    return _mask_elements(union)


def element_order(alg: _SumAlgebra, x: int) -> int | float:
    """Largest n with the n-fold sum of x defined; math.inf for the zero element.

    Zero sums to itself forever, so its order is reported as infinite and it
    is excluded from Archimedean checks.
    """
    _check_element(alg, x)
    if x == alg.zero:
        return math.inf
    rows = alg.table.entries
    n = 1
    acc = x
    while True:
        nxt = rows[acc][x]
        if nxt == UNDEFINED:
            return n
        acc = nxt
        n += 1
        if n > alg.order:  # unreachable in a lawful finite algebra
            raise AssertionError("unbounded order in a finite table")


def is_archimedean(alg: _SumAlgebra) -> bool:
    """True when every nonzero element has finite order, which finiteness proves.

    Let x be nonzero. If j < k and jx = kx, then jx + 0 = jx + (k - j)x, so
    (k - j)x = 0 by cancellation, and x = 0 by positivity. Hence the
    multiples of x are distinct while defined, and only finitely many are.
    element_order still walks them, and raises AssertionError on a table
    where this fails.
    """
    return True


@memoized
def principal_elements(E: FiniteEffectAlgebra) -> tuple[int, ...]:
    """Elements x whose down-set holds every defined sum of two of its members.

    For y <= x and z orthogonal to y (z <= y'), y + z <= x exactly when
    z <= x - y, so one mask test per y decides x.
    """
    below, sup, ominus = E._below, E._sup, E._ominus
    return tuple(
        x
        for x in E.elements()
        if all(below[x] & below[sup[y]] & ~below[ominus[y][x]] == 0 for y in _mask_elements(below[x]))
    )


@memoized
def central_elements(E: FiniteEffectAlgebra) -> tuple[int, ...]:
    """Elements x with x, x' principal such that every y splits across x and x'.

    y splits when y = y1 + y2 with y1 <= x and y2 <= x', so x is central iff
    _split_mask(E, x) covers every element (Greechie, Foulis and Pulmannova,
    "The center of an effect algebra", Order 12, 1995).
    """
    principal = principal_elements(E)
    is_principal = sum(1 << p for p in principal)
    full, sup = (1 << E.order) - 1, E._sup
    return tuple(x for x in principal if (is_principal >> sup[x]) & 1 and _split_mask(E, x) == full)


# ---------------------------------------------------------------------------
# compatibility and blocks


def are_compatible(alg: _SumAlgebra, x: int, y: int) -> bool:
    """Pairwise compatibility: x = p+q, y = q+r with p+q+r defined.

    Works in effect algebras and generalized effect algebras alike.
    """
    _check_element(alg, x)
    _check_element(alg, y)
    return (_compat_masks(alg)[x] >> y) & 1 == 1


@memoized
def _compat_masks(alg: _SumAlgebra) -> tuple[int, ...]:
    """Per element, the mask of the elements compatible with it."""
    return tuple(_split_mask(alg, x) for x in alg.elements())


def _split_mask(alg: _SumAlgebra, x: int) -> int:
    """Mask of the sums q + r with q <= x and x + r defined.

    These are exactly the elements y compatible with x. Given such q and r,
    p = x - q gives x = p + q, y = q + r and p + q + r = x + r defined.
    Conversely, x = p + q and y = q + r with p + q + r defined give q <= x
    with x + r defined. Each q + r is defined, since q <= x and x + r is.
    In an effect algebra x + r is defined exactly when r <= x', so the mask
    also holds the elements that split across x and x'. It reads x's row of
    defined sums and no supplement, so it serves generalized effect algebras.
    """
    rows = alg.table.entries
    summands = [r for r, _ in alg.table.row_sums[x]]
    mask = 0
    for q in _mask_elements(alg._below[x]):
        row = rows[q]
        for r in summands:
            mask |= 1 << row[r]
    return mask


def is_internally_compatible(alg: _SumAlgebra, subset: frozenset[int] | Iterable[int]) -> bool:
    """Decide whether one orthogonal family drawn from the subset refines all of it.

    At finite order the definition's quantifier over finite parts collapses
    to the whole subset, so a single witnessing family suffices. The search
    runs over nondecreasing multisets of nonzero members with a defined sum;
    family size is bounded by the order because partial sums strictly grow.
    The walk is lazy and stops at the first witness: walked to the end on
    make_chain(100) it would visit every partition of 100.
    """
    members = _members(alg, subset)
    pool = tuple(m for m in members if m != alg.zero)
    return _family_refines(alg, members, (sums for _, sums in _families(alg, pool)))


def _families(alg: _SumAlgebra, pool: tuple[int, ...]) -> Iterator[tuple[int, int]]:
    """(sum of F, mask of the sub-sums of F) for each nondecreasing orthogonal
    multiset F drawn from the pool, the empty family first.

    Adding x to F adds v + x for every sub-sum v; those sums are defined
    because v <= sum of F. A family stops growing at order - 1 members, which
    loses nothing on a lawful table: k nonzero members with a defined sum
    give k + 1 distinct partial sums, as partial sums strictly increase. The
    cap ends the walk on a table that breaks Ei or Eii (only _trusted builds
    one), where a sum can cycle.
    """
    rows = alg.table.entries
    cap = alg.order - 1
    stack = [(0, alg.zero, 1 << alg.zero, 0)]
    while stack:
        start, total, sums, size = stack.pop()
        yield total, sums
        if size == cap:
            continue
        for k in reversed(range(start, len(pool))):
            x = pool[k]
            nxt = rows[total][x]
            if nxt == UNDEFINED:
                continue
            extra = 0
            for v in _mask_elements(sums):
                extra |= 1 << rows[v][x]
            stack.append((k, nxt, sums | extra, size + 1))


def _family_refines(alg: _SumAlgebra, members: Iterable[int], covers: Iterable[int]) -> bool:
    """Whether one of the sub-sum masks in covers holds every member.

    Pairwise compatibility of the members is necessary, so it prunes first.
    """
    need = sum(1 << m for m in frozenset(members) if m != alg.zero)
    compat = _compat_masks(alg)
    if any(need & ~compat[m] for m in _mask_elements(need)):
        return False
    return any(sums & need == need for sums in covers)


def blocks(E: FiniteEffectAlgebra) -> tuple[tuple[int, ...], ...]:
    """All maximal internally compatible subsets containing the unit, each
    as its ascending members, in ascending order of those tuples.

    In a homogeneous algebra these are exactly the blocks of the theory
    (maximal RDP sub-effect algebras; Jenča, "Blocks of homogeneous effect
    algebras", Bull. Austral. Math. Soc. 64, 2001); on other input the
    operation still returns the maximal internally compatible subsets, and
    callers consult the homogeneity flag to know whether the block theory
    applies. The members are read off the memo `_block_masks`, which finds
    the blocks (see there) and keeps their masks.
    """
    return tuple(members for members, _, _ in _block_masks(E))


@memoized
def _block_masks(E: FiniteEffectAlgebra) -> tuple[tuple[tuple[int, ...], int, int], ...]:
    """Per block, in `blocks` order: (members, label mask, rank mask).

    The blocks are the maximal sub-sum sets R(F) over the multisets F of
    atoms that sum to the unit, and the label mask is the sub-sum mask that
    `_families` returns for F. R(F) is internally compatible, since F lies
    in it and refines it; every internally compatible M lies in R(F) for a
    family F drawn from M; and splitting a member of F into atoms (finite
    order makes every nonzero element a sum of atoms) or adding the
    supplement of the sum of F only enlarges R(F). The rank mask is the
    label mask renumbered by rank, which a meet or join inside the block
    ANDs in (see restrictions).
    """
    atoms = tuple(x for x in E.elements() if x != E.zero and E._below[x] == (1 << E.zero) | (1 << x))
    found = {sums for total, sums in _families(E, atoms) if total == E.one}
    maximal = sorted((_mask_elements(m), m) for m in found if not any(m != o and m & o == m for o in found))
    return tuple((members, mask, E._rank_mask(mask)) for members, mask in maximal)


def rdp_counterexample(E: FiniteEffectAlgebra) -> tuple[int, int, int] | None:
    """Least (u, v1, v2) with u <= v1 + v2 admitting no matching split, if any."""
    return _riesz_counterexample(E, False)


def has_rdp(E: FiniteEffectAlgebra) -> bool:
    return rdp_counterexample(E) is None


def homogeneity_counterexample(E: FiniteEffectAlgebra) -> tuple[int, int, int] | None:
    """Least (u, v1, v2) with u <= v1 + v2 <= u' admitting no split, if any."""
    return _riesz_counterexample(E, True)


def is_homogeneous(E: FiniteEffectAlgebra) -> bool:
    return homogeneity_counterexample(E) is None


@memoized
def _riesz_counterexample(E: FiniteEffectAlgebra, bounded: bool) -> tuple[int, int, int] | None:
    """The least witness of the Riesz scan: unbounded for RDP, bounded by u'
    for homogeneity.

    Per (u, v1), on rank masks (_rbelow, _rabove) of the sums s = v1 + v2,
    with the common lower bounds walked in label order: the targets are the s
    above u and v1 (and below u' when bounded). u splits as u1 + u2 with
    u1 <= v1, u2 <= v2 = s - v1 exactly when s - v1 >= u - u1 for a common
    lower bound u1, i.e. s >= v1 + (u - u1), so the covered sums are the
    up-sets of those translates. u1 -> u - u1 is antitone, so when u and v1
    have a meet its translate's up-set holds all the others; otherwise every
    common lower bound is tried. s -> s - v1 is one to one, so the least v2
    without a split is the least difference over the uncovered targets,
    whatever their numbering.
    A u comparable with v1 always splits: as u + 0 when u <= v1, as
    v1 + (u - v1) when v1 <= u <= v1 + v2. The bounded targets are a subset
    of the unbounded ones and the covered sums are the same, so an algebra
    with RDP is homogeneous and needs one scan, not two.

    The unbounded scan reads each unordered pair once, as (u, v1) with
    u < v1. Whether a pair fails is symmetric in u and v1: so are the targets
    up(u) & up(v1), comparability and the common lower bounds (or the meet),
    and the translates agree, v1 + (u - u1) = u + (v1 - u1), both defined or
    both undefined, since each is u1 + (u - u1) + (v1 - u1) by commutativity
    and associativity. So if the first failing pair of the row-major scan
    had v1 < u, the pair (v1, u) would fail earlier: the first failing pair
    has u < v1, and its v2 is decoded as before. The bounded scan reads every
    pair, since its targets up(u) & down(u') & up(v1) are not symmetric.
    """
    if bounded and _riesz_counterexample(E, False) is None:
        return None
    below, ominus, rows, rbelow, rabove, rank = E._below, E._ominus, E.table.entries, E._rbelow, E._rabove, E._rank
    for u in E.elements():
        targets_u = rabove[u] & rbelow[E._sup[u]] if bounded else rabove[u]
        comparable = rbelow[u] | rabove[u]
        for v1 in E.elements() if bounded else range(u + 1, E.order):
            targets = targets_u & rabove[v1]
            if not targets or (comparable >> rank[v1]) & 1:
                continue
            meet = E._meets[u][v1]  # read here: a chain has no incomparable pair and builds no table
            row = rows[v1]
            covered = 0
            for u1 in (meet,) if meet is not None else _mask_elements(below[u] & below[v1]):
                t = row[ominus[u1][u]]
                if t != UNDEFINED:
                    covered |= rabove[t]
            if missing := targets & ~covered:
                return (u, v1, min(ominus[v1][E._by_rank[r]] for r in _mask_elements(missing)))
    return None


def orthoalgebra_counterexample(E: FiniteEffectAlgebra) -> tuple[int] | None:
    rows = E.table.entries
    for x in E.elements():
        if x != E.zero and rows[x][x] != UNDEFINED:
            return (x,)
    return None


@memoized
def lattice_counterexample(alg: _SumAlgebra) -> tuple[int, int, str] | None:
    """Least pair (x, y), in label order, without a meet or without a join.

    A join is the least element of the AND of the up-set rank masks, as
    everywhere. An effect algebra whose meet table holds no None
    needs no scan: x -> x' reverses the order (Foulis and Bennett, "Effect
    algebras and unsharp quantum logics", Found. Phys. 24, 1994), so it maps
    the upper bounds of x and y onto the lower bounds of x' and y', and
    x' ^ y' existing makes (x' ^ y')' the least upper bound of x and y. A
    generalized effect algebra, or an effect algebra missing a meet, is
    scanned pair by pair for its least witness.
    """
    meets = alg._meets
    if getattr(alg, "one", None) is not None and all(None not in row for row in meets):
        return None
    rabove, least = alg._rabove, alg._least
    for x, row in enumerate(meets):
        ax = rabove[x]
        for y in range(x + 1, alg.order):
            if row[y] is None:
                return (x, y, "meet")
            if least(ax & rabove[y]) is None:
                return (x, y, "join")
    return None


def is_lattice(alg: _SumAlgebra) -> bool:
    return lattice_counterexample(alg) is None


# ---------------------------------------------------------------------------
# sharp bounds and decomposition


@dataclass(frozen=True)
class SharpBounds:
    """Per element: greatest sharp element below and smallest sharp above."""

    below: tuple[int | None, ...]
    above: tuple[int | None, ...]


@memoized
def sharp_bounds(E: FiniteEffectAlgebra) -> SharpBounds:
    sharp = E._rank_mask(sum(1 << s for s in sharp_elements(E)))
    return SharpBounds(
        tuple(E._greatest(sharp & below) for below in E._rbelow),
        tuple(E._least(sharp & above) for above in E._rabove),
    )


@memoized
def _missing_sharp_bound(E: FiniteEffectAlgebra) -> tuple[int, str] | None:
    """Least element lacking a sharp bound, with the side ("below" first) it
    lacks: the one decision that is_sharply_dominating, decompose,
    check_corcduya and structure_report read."""
    bounds = sharp_bounds(E)
    for x, (lo, hi) in enumerate(zip(bounds.below, bounds.above)):
        if lo is None:
            return (x, "below")
        if hi is None:
            return (x, "above")
    return None


def is_sharply_dominating(E: FiniteEffectAlgebra) -> bool:
    return _missing_sharp_bound(E) is None


def decompose(E: FiniteEffectAlgebra, x: int) -> tuple[int, int]:
    """Split x into its sharp part and meager part; unique in qualifying algebras."""
    _check_element(E, x)
    if not is_sharply_dominating(E):
        raise HypothesisError("sharply_dominating", _missing_sharp_bound(E)[0])
    xt = sharp_bounds(E).below[x]
    rest = E.ominus(x, xt)
    assert rest is not None
    return xt, rest


# ---------------------------------------------------------------------------
# restrictions
#
# Each of these refuses an id outside the carrier with ValueError, through
# _members, before it reads the table.
#
# A restriction's order is E's order on its carrier. In a sub-effect
# algebra Q, x <= y in E with x, y in Q puts y - x in Q by two-out-of-three
# closure; in a down-set D, y - x <= y puts it in D. So the meet or join of
# members inside the sub-structure is E's _greatest or _least over E's rank
# mask of their bounds, ANDed with the carrier's rank mask
# (E._rank_mask(...)), and an order question needs no restriction built.


def _sub_effect_failure(E: FiniteEffectAlgebra, elems: tuple[int, ...]) -> str | None:
    """Why the members elems (ascending) are not a sub-effect algebra of E, or
    None when they are.

    A sub-effect algebra Q holds one and is closed two out of three: a
    defined sum x + y = z with two of x, y, z in Q has the third in Q. With
    one in Q that holds exactly when Q is closed under defined sums, holds
    zero and one, and holds each member's supplement. Forward: x, y in Q
    give z; one + zero = one gives zero; x + x' = one gives x'. Back: if
    x + y = z with x and z in Q, then x + z' is defined, since
    (x + y) + z' = one, and y = (x + z')' lies in Q; the case y, z in Q is
    the same. The first failure is named in that order: the first member x
    (ascending) with a defined sum x + y, y a member and x + y not, in
    row_sums order; then zero, one; then the least member whose supplement
    is missing.
    """
    q = sum(1 << x for x in elems)
    for x in elems:
        for y, z in E.table.row_sums[x]:
            if (q >> y) & 1 and not (q >> z) & 1:
                return f"subset not closed under defined sums at ({x},{y})"
    for role, c in (("zero", E.zero), ("one", E.one)):
        if not (q >> c) & 1:
            return f"subset does not hold {role} ({c})"
    sup = E._sup
    for x in elems:
        if not (q >> sup[x]) & 1:
            return f"subset does not hold the supplement of {x} ({sup[x]})"
    return None


def is_sub_effect_algebra(E: FiniteEffectAlgebra, subset: Iterable[int]) -> bool:
    """Unit membership plus two-out-of-three closure under defined sums; see
    _sub_effect_failure."""
    return _sub_effect_failure(E, _members(E, subset)) is None


def restrict(E: FiniteEffectAlgebra, subset: Iterable[int]) -> tuple[FiniteEffectAlgebra, tuple[int, ...]]:
    """Sub-effect algebra on a subset, with the element back-map.

    The result skips the axiom check: the subset Q is a sub-effect algebra
    of the verified E, closed under defined sums and holding zero, one and
    each member's supplement. The induced table is E's table on Q. Commutativity and
    associativity are inherited: if (x + y) + z is defined for members, E
    defines y + z, a member, and x + (y + z) equals it (and symmetrically).
    Each member x has its supplement in Q, the only y with x + y = one, as
    in E; one + x is defined only for x = zero, and zero != one, as in E.
    Any other subset is refused with ValueError naming its first failure in
    _sub_effect_failure's order (the empty subset lacks zero).
    """
    table, pos, elems = _induced_table(E, subset)
    failure = _sub_effect_failure(E, elems)
    if failure is not None:
        raise ValueError(failure)
    return FiniteEffectAlgebra._trusted(table, pos[E.zero], pos[E.one]), elems


@memoized
def _block_algebra(E: FiniteEffectAlgebra, block: tuple[int, ...]) -> tuple[FiniteEffectAlgebra, tuple[int, ...]]:
    """The restriction to a block (a sorted tuple), shared by every caller."""
    return restrict(E, block)


@memoized
def _sub_center(E: FiniteEffectAlgebra, block: tuple[int, ...]) -> frozenset[int]:
    """The centre of a block's restriction (a sorted tuple), as elements of E."""
    sub, elems = _block_algebra(E, block)
    return frozenset(elems[c] for c in central_elements(sub))


def _members(E: _SumAlgebra, subset: Iterable[int]) -> tuple[int, ...]:
    """The distinct members of the subset in ascending order; an id outside
    0..order-1 is refused with ValueError."""
    elems = tuple(sorted(frozenset(subset)))
    for e in elems[:1] + elems[-1:]:
        _check_element(E, e)
    return elems


def _induced_table(
    E: FiniteEffectAlgebra, subset: Iterable[int]
) -> tuple[PartialOpTable, list[int], tuple[int, ...]]:
    """Sums that stay inside the subset, re-indexed in ascending element order.

    pos[e] is e's new index, UNDEFINED outside the subset. It ascends on the
    members, so each member's defined sums, mapped through pos, keep their
    column order. The empty subset lacks zero and is refused with ValueError.
    """
    elems = _members(E, subset)
    if not elems:
        raise ValueError(f"subset does not hold zero ({E.zero})")
    pos = [UNDEFINED] * E.order
    for i, e in enumerate(elems):
        pos[e] = i
    sums = E.table.row_sums
    rows = [[(pos[b], pos[v]) for b, v in sums[a] if pos[b] != UNDEFINED and pos[v] != UNDEFINED] for a in elems]
    return PartialOpTable.from_sums(rows), pos, elems


def restrict_downset(
    E: FiniteEffectAlgebra, downset: Iterable[int]
) -> tuple[FiniteGeneralizedEffectAlgebra, tuple[int, ...]]:
    """Generalized effect algebra on a down-set: sums defined when they stay inside.

    On a down-set D holding zero the result skips the axiom check, since
    the axioms follow from those of the verified E. Commutativity is
    inherited. Associativity: if (x + y) + z is defined in D, E defines
    y + z and x + (y + z) with the same value, and y + z lies below it, so
    in D; the other direction is symmetric. Cancellation and
    "x + y = zero only for x = y = zero" hold in E, and x + zero = x is in
    D. A subset without zero, the empty one included, is refused with
    ValueError naming zero; any other subset that is not a down-set is
    refused naming its least member x with some y <= x outside it, and the
    least such y. The callers pass down-sets that hold zero: Mea(E), since
    a nonzero sharp element below y <= x lies below x; and HMea(E), a union
    of the down-sets of common lower bounds of y and y'.
    """
    table, pos, elems = _induced_table(E, downset)
    if pos[E.zero] == UNDEFINED:
        raise ValueError(f"subset does not hold zero ({E.zero})")
    inside = sum(1 << x for x in elems)
    for x in elems:
        outside = E._below[x] & ~inside
        if outside:
            raise ValueError(f"subset is not a down-set: {_mask_elements(outside)[0]} <= {x} lies outside it")
    return FiniteGeneralizedEffectAlgebra._trusted(table, pos[E.zero]), elems


def interval_algebra(E: FiniteEffectAlgebra, top: int) -> tuple[FiniteEffectAlgebra, tuple[int, ...]]:
    """The interval from zero to top as an effect algebra with unit top.

    It skips the axiom check. The interval is a down-set holding zero, so
    the generalized axioms hold as in restrict_downset. Each x <= top has
    top - x, the only y with x + y = top by cancellation. If top + x is
    defined and at most top, then (top + x) + w = top for some w, so
    x + w = zero by cancellation and x = zero. And top is checked to be an
    element other than zero.
    """
    _members(E, (top,))
    if top == E.zero:
        raise ValueError("interval with top = zero is not an effect algebra")
    table, pos, elems = _induced_table(E, _mask_elements(E._below[top]))
    return FiniteEffectAlgebra._trusted(table, pos[E.zero], pos[top]), elems


@memoized
def meager_algebra(E: FiniteEffectAlgebra) -> tuple[FiniteGeneralizedEffectAlgebra, tuple[int, ...]]:
    return restrict_downset(E, meager_elements(E))


@memoized
def hypermeager_algebra(E: FiniteEffectAlgebra) -> tuple[FiniteGeneralizedEffectAlgebra, tuple[int, ...]]:
    return restrict_downset(E, hypermeager_elements(E))


# ---------------------------------------------------------------------------
# closure operators


def _orthogonal_pool(E: FiniteEffectAlgebra, x: int) -> tuple[int, ...]:
    """Nonzero elements below x that stay summable with x itself."""
    return _mask_elements(_below_both(E)[x] & ~(1 << E.zero))


@memoized
def _orthogonal_totals(E: FiniteEffectAlgebra, x: int) -> int:
    """Mask of the sums of orthogonal multisets from x's pool that lie below x.

    Partial sums lie below the total, so the totals are the closure of zero
    under adding pool elements inside the down-set of x. A reader that keeps
    the totals inside a down-set D reads this mask & D: a total in D has its
    members and its partial sums below it, so in D too.
    """
    rows, pool, allowed = E.table.entries, _orthogonal_pool(E, x), E._below[x]
    reached = 1 << E.zero
    frontier = [E.zero]
    while frontier:
        t = frontier.pop()
        for y in pool:
            s = rows[t][y]
            if s != UNDEFINED and (allowed >> s) & 1 and not (reached >> s) & 1:
                reached |= 1 << s
                frontier.append(s)
    return reached


@memoized
def vartheta(E: FiniteEffectAlgebra, u: int) -> tuple[int, ...]:
    """Elements v and u - v for sums v of meager families orthogonal to u.

    The families range over meager elements below the supplement of u, with
    a defined sum that stays below u and lands in the meager set. The meager
    set is a down-set, so these are u's orthogonal totals inside it (see
    _orthogonal_totals): a meager total has meager members.
    """
    _check_element(E, u)
    meager = sum(1 << m for m in meager_elements(E))
    out = set()
    ominus = E._ominus
    for v in _mask_elements(_orthogonal_totals(E, u) & meager):
        out.add(v)
        w = ominus[v][u]
        assert w is not None
        out.add(w)
    return tuple(sorted(out))


def theta_map(E: FiniteEffectAlgebra, subset: Iterable[int]) -> frozenset[int]:
    out: set[int] = set()
    for u in frozenset(subset):
        out |= set(vartheta(E, u))
    return frozenset(out)


def sigma_closure(E: FiniteEffectAlgebra, subset: Iterable[int]) -> frozenset[int]:
    """Least superset of the input closed under the theta operator."""
    current = frozenset(subset)
    while True:
        nxt = current | theta_map(E, current)
        if nxt == current:
            return current
        current = nxt


# ---------------------------------------------------------------------------
# Heyting check for blocks


def is_boolean_algebra(E: FiniteEffectAlgebra) -> bool:
    """A Boolean algebra: exactly an orthoalgebra with RDP, at finite order.

    A finite effect algebra with RDP is a product of chains (Ravindran, PhD
    thesis, Kansas State 1996; Dvurecenskij and Pulmannova, "New Trends in
    Quantum Structures", Kluwer 2000). A chain of three or more elements has
    an atom a with a + a defined, and so does any product with such a factor.
    So the product is an orthoalgebra only when every factor is the 2-chain,
    which makes it a Boolean algebra. Conversely a Boolean algebra, with
    x + y = x v y for disjoint x and y, defines x + x only for x = 0 and has
    RDP, being a product of 2-chains.
    """
    return orthoalgebra_counterexample(E) is None and rdp_counterexample(E) is None


@dataclass(frozen=True)
class HeytingVerdict:
    ok: bool
    failed_clause: str | None = None
    witness: tuple | None = None


def heyting_block_check(E: FiniteEffectAlgebra, block: Iterable[int]) -> HeytingVerdict:
    """Verify a block is a lattice with pseudocomplement (smallest sharp cover)'
    whose image is exactly the center of the block.

    The verdict fails on one of three clauses: "hypothesis" (E is not
    homogeneous, or the set is not one of its blocks), "pseudocomplement" or
    "heyting_center". Past the hypothesis the rest of the statement holds by
    theorem, so it is not tested here. A finite effect algebra is
    orthocomplete, so a homogeneous one is sharply dominating (the paper's
    corollary; see properties.py) and every x has its sharp cover. Every block
    of a homogeneous E has RDP (Jenča 2001, cited in `blocks`), and a finite
    effect algebra with RDP is a product of chains (see is_boolean_algebra),
    hence a lattice. The suite still ticks both facts on every block: RDP in
    gejzasum (iv), the lattice in blocksar.
    """
    b = tuple(sorted(frozenset(block)))
    if homogeneity_counterexample(E) is not None:
        return HeytingVerdict(False, "hypothesis", ("homogeneous",))
    if b not in blocks(E):
        return HeytingVerdict(False, "hypothesis", ("block", b))

    above, sup, below = sharp_bounds(E).above, E._sup, E._below
    b_mask = sum(1 << x for x in b)
    star = {}
    for x in b:
        star[x] = sup[above[x]]
        if not b_mask >> star[x] & 1:
            return HeytingVerdict(False, "pseudocomplement", (x, "image outside block"))

    # the block's meets are E's, read inside the block (see restrictions)
    rbelow, greatest, b_rank = E._rbelow, E._greatest, E._rank_mask(b_mask)
    for x in b:
        for y in b:
            if (greatest(rbelow[x] & rbelow[y] & b_rank) == E.zero) != (below[star[y]] >> x & 1 == 1):
                return HeytingVerdict(False, "pseudocomplement", (x, y))

    heyting_center = frozenset(star[x] for x in b)
    center = _sub_center(E, b)
    if heyting_center != center:
        return HeytingVerdict(False, "heyting_center", (tuple(sorted(heyting_center)), tuple(sorted(center))))
    return HeytingVerdict(True)


# ---------------------------------------------------------------------------
# report


@dataclass(frozen=True)
class Flag:
    value: bool
    witness: tuple | None = None


@dataclass(frozen=True)
class StructureReport:
    order: int
    zero: int
    one: int
    sharp: tuple[int, ...]
    meager: tuple[int, ...]
    hypermeager: tuple[int, ...]
    center: tuple[int, ...]
    principal: tuple[int, ...]
    blocks: tuple[tuple[int, ...], ...]
    ord: tuple[int | None, ...]
    bounds_below: tuple[int | None, ...]
    bounds_above: tuple[int | None, ...]
    homogeneous: Flag
    rdp: Flag
    lattice: Flag
    sharply_dominating: Flag
    archimedean: Flag
    orthoalgebra: Flag

    @property
    def block_theory_applies(self) -> bool:
        return self.homogeneous.value

    def to_json_dict(self) -> dict:
        def flag(f: Flag) -> dict:
            return {"value": f.value, "witness": list(f.witness) if f.witness else None}

        return {
            "schema_version": 1,
            "order": self.order,
            "zero": self.zero,
            "one": self.one,
            "sharp": list(self.sharp),
            "meager": list(self.meager),
            "hypermeager": list(self.hypermeager),
            "center": list(self.center),
            "principal": list(self.principal),
            "blocks": [list(b) for b in self.blocks],
            "ord": list(self.ord),
            "sharp_bounds": {
                "below": list(self.bounds_below),
                "above": list(self.bounds_above),
            },
            "flags": {
                "homogeneous": flag(self.homogeneous),
                "rdp": flag(self.rdp),
                "lattice": flag(self.lattice),
                "sharply_dominating": flag(self.sharply_dominating),
                "archimedean": flag(self.archimedean),
                "orthoalgebra": flag(self.orthoalgebra),
            },
            "block_theory_applies": self.block_theory_applies,
        }


def structure_report(E: FiniteEffectAlgebra) -> StructureReport:
    # the homogeneity test runs the memoized RDP scan first, so asking for
    # RDP first puts the scan's time under rdp_counterexample
    rdp = rdp_counterexample(E)
    hom = homogeneity_counterexample(E)
    lat = lattice_counterexample(E)
    orth = orthoalgebra_counterexample(E)
    b = sharp_bounds(E)
    sd_witness = _missing_sharp_bound(E)
    orders = [element_order(E, x) for x in E.elements()]
    return StructureReport(
        order=E.order,
        zero=E.zero,
        one=E.one,
        sharp=sharp_elements(E),
        meager=meager_elements(E),
        hypermeager=hypermeager_elements(E),
        center=central_elements(E),
        principal=principal_elements(E),
        blocks=blocks(E),
        ord=tuple(None if x == E.zero else int(k) for x, k in enumerate(orders)),
        bounds_below=b.below,
        bounds_above=b.above,
        homogeneous=Flag(hom is None, hom),
        rdp=Flag(rdp is None, rdp),
        lattice=Flag(lat is None, lat),
        sharply_dominating=Flag(sd_witness is None, sd_witness),
        archimedean=Flag(is_archimedean(E)),
        orthoalgebra=Flag(orth is None, orth),
    )
