"""Per-anchor property checks swept over catalog and enumerated algebras.

Each check is a pure function of one algebra returning how many instances it
examined and which failed. The suite runner aggregates the outcomes into a
table keyed by short anchor tags; the tags are stable identifiers for the
individual laws, used verbatim in reports so failures are greppable.

The anchor table states each law's hypothesis through `_requires`, so a law
examines nothing on inputs outside its class: E homogeneous, the Triple
Representation Theorem's, or Sh(E) a sub-effect algebra. The theorem holds
for orthocomplete homogeneous E, and a finite E is orthocomplete, so it is
sharply dominating when homogeneous; extract_triple and check_corcduya
still refuse a table, built without the axiom check, that is not. Only
gejzasum tests homogeneity mid-body: its first clauses hold on every algebra.

The laws read the algebra's tables, bound to locals once per law, instead
of its point methods, which check their ids on every call: E.sum(x, y) is
E.table.entries[x][y], UNDEFINED for None, which is compared with UNDEFINED
before it is used as an id; E.leq(x, y) is E._below[y] >> x & 1;
E.ominus(x, y) is E._ominus[y][x]; E.meet(x, y) is E._meets[x][y];
E.orthosupplement(x) is E._sup[x]; E.join(x, y) is
_least(_rabove[x] & _rabove[y]) in E and in Mea(E) alike, join_set taking
the AND over the set; are_compatible(E, x, y) is _compat_masks(E)[x] >> y
& 1. The triple's maps read its memoized tables: x in h(s) is
_h_masks(T)[s] >> x & 1, widehat_triple(T, x) is _widehat_vector(T)[x],
r_map(T, x) is _r_vector(T)[x], pi_s(T, s, x) is _pi_table(T)[s][x] and
s_map(T, x, y) is _split_table(T)[0][x][y]. A bit that enters a witness is
compared with 1 first, so the witness holds a bool, as the methods return.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from .core import UNDEFINED, FiniteEffectAlgebra, _mask_elements, _table_laws, axiom_verdict, memoized
from .iso import find_isomorphism  # not called here; perfbench's tracer wraps this module-level name
from .structure import (
    HypothesisError,
    _below_both,
    _block_algebra,
    _compat_masks,
    _families,
    _family_refines,
    _missing_sharp_bound,
    _orthogonal_pool,
    _reachable_totals,
    _sub_center,
    blocks,
    central_elements,
    element_order,
    has_rdp,
    heyting_block_check,
    hypermeager_algebra,
    hypermeager_elements,
    interval_algebra,
    is_archimedean,
    is_boolean_algebra,
    is_homogeneous,
    is_internally_compatible,
    is_lattice,
    is_sub_effect_algebra,
    lattice_counterexample,
    meager_algebra,
    meager_elements,
    orthoalgebra_counterexample,
    principal_elements,
    restrict,
    sharp_bounds,
    sharp_elements,
    theta_map,
)
from .triple import (
    ReconstructionError,
    _h_masks,
    _pi_table,
    _r_vector,
    _rebuild,
    _split_table,
    _widehat_vector,
    extract_triple,
    reconstruct_tea,
    s_map_top_missing,
    verify_roundtrip,
)

__all__ = ["CheckOutcome", "AnchorReport", "ANCHORS", "run_checks", "run_suite", "worker_count"]


@dataclass
class CheckOutcome:
    checked: int = 0
    failures: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def tick(self, witness=None, ok: bool = True):
        self.checked += 1
        if not ok:
            self.failures.append(witness)


@dataclass
class AnchorReport:
    anchor: str
    algebras: int
    checked: int
    failures: list
    notes: list


# ---------------------------------------------------------------------------
# law shapes stated by several checks


def _meet_distributes(meets, rows, a: int, b: int, c: int, whole: int | None) -> bool:
    """a ^ b and a ^ c exist and sum to whole, the caller's a ^ (b + c); meets
    and rows are E's meet table and sum table.

    b + c is defined, so a sum of lower bounds of b and c is too, and a
    missing whole (None) fails the law.
    """
    ab, ac = meets[a][b], meets[a][c]
    return ab is not None and ac is not None and rows[ab][ac] == (UNDEFINED if whole is None else whole)


def _maximal_totals(E: FiniteEffectAlgebra, x: int, allowed: int) -> Iterator[int]:
    """Sums of the orthogonal families below x inside the down-set mask
    allowed that no further member of x's pool extends inside allowed."""
    rows = E.table.entries
    pool = _orthogonal_pool(E, x)
    for t in _reachable_totals(E, pool, allowed):
        row = rows[t]
        if not any((n := row[y]) != UNDEFINED and allowed >> n & 1 for y in pool):
            yield t


# ---------------------------------------------------------------------------
# structure checks


def check_xshom(E: FiniteEffectAlgebra) -> CheckOutcome:
    out = CheckOutcome()
    sharp = set(sharp_elements(E))
    below, sup, meets, zero = E._below, E._sup, E._meets, E.zero
    for v1, row in enumerate(E.table.row_sums):
        if v1 not in sharp:
            continue
        for v2, s in row:
            for u in _mask_elements(below[s]):
                if not below[sup[u]] >> s & 1:
                    continue
                ok = below[v2] >> u & 1 and meets[u][v1] == zero
                out.tick((u, v1, v2), ok)
    return out


def check_modyjem(E: FiniteEffectAlgebra) -> CheckOutcome:
    out = CheckOutcome()
    sharp = set(sharp_elements(E))
    below, ominus, both = E._below, E._ominus, _below_both(E)
    for v in E.elements():
        # per w <= v: the common lower bounds of w and w', and those of w and v - w
        pairs = [(both[w], below[w] & below[ominus[w][v]]) for w in _mask_elements(below[v])]
        c1 = v in sharp
        c2 = all(common & ~rest == 0 for common, rest in pairs)
        c3 = all(common == rest for common, rest in pairs)
        out.tick((v, c1, c2, c3), c1 == c2 == c3)
    return out


def check_soucethat(E: FiniteEffectAlgebra) -> CheckOutcome:
    out = CheckOutcome()
    rows, below = E.table.entries, E._below
    for w in sharp_elements(E):
        below_w = below[w]
        for y in _mask_elements(below_w):
            acc = y
            k = 1
            while True:
                nxt = rows[acc][y]
                if nxt == UNDEFINED:
                    break
                acc, k = nxt, k + 1
                out.tick((y, w, k), below_w >> acc & 1)
                if y == E.zero:
                    break
    return out


def check_suplem(E: FiniteEffectAlgebra) -> CheckOutcome:
    out = CheckOutcome()
    b = sharp_bounds(E)
    sup, ominus = E._sup, E._ominus
    for x in E.elements():
        xc = sup[x]
        if b.above[x] is not None:
            hat = b.above[x]
            t1 = ominus[x][hat]
            floor_xc = b.below[xc]
            ok = (
                floor_xc is not None
                and t1 == ominus[sup[hat]][xc]
                and t1 == ominus[floor_xc][xc]
            )
            out.tick((x, "above"), ok)
        if b.below[x] is not None:
            floor = b.below[x]
            d1 = ominus[floor][x]
            hat_xc = b.above[xc]
            ok = (
                hat_xc is not None
                and d1 == ominus[xc][sup[floor]]
                and d1 == ominus[xc][hat_xc]
            )
            out.tick((x, "below"), ok)
    return out


def check_dusuplem(E: FiniteEffectAlgebra) -> CheckOutcome:
    out = CheckOutcome()
    b = sharp_bounds(E)
    rows, below, sup, ominus = E.table.entries, E._below, E._sup, E._ominus
    for x in E.elements():
        row, below_x, below_xc = rows[x], below[x], below[sup[x]]
        hat, floor = b.above[x], b.below[x]
        below_gap = None if hat is None else below[ominus[x][hat]]
        below_rest = None if floor is None else below[ominus[floor][x]]
        for y in E.elements():
            if hat is not None:
                lhs = below_gap >> y & 1
                rhs = below_xc >> y & 1 and b.above[None if (s := row[y]) == UNDEFINED else s] == hat
                out.tick((x, y, "above"), lhs == rhs)
            if floor is not None:
                lhs = below_rest >> y & 1
                rhs = below_x >> y & 1 and b.below[ominus[y][x]] == floor
                out.tick((x, y, "below"), lhs == rhs)
    return out


def check_xssuplem(E: FiniteEffectAlgebra) -> CheckOutcome:
    out = CheckOutcome()
    b, both = sharp_bounds(E), _below_both(E)
    below, sup, ominus = E._below, E._sup, E._ominus
    for x in E.elements():
        floor, hat = b.below[x], b.above[x]
        if floor is not None:
            t = ominus[floor][x]
            ok = both[x] == below[t] & below[sup[x]] == both[t]
            out.tick((x, "below"), ok)
        if hat is not None:
            r = ominus[x][hat]
            ok = both[x] == below[x] & below[r] == both[r]
            out.tick((x, "above"), ok)
        if floor is not None and hat is not None:
            out.tick((x, "both"), both[x] == below[t] & below[r])
    return out


def check_exssuplem(E: FiniteEffectAlgebra) -> CheckOutcome:
    out = CheckOutcome()
    b = sharp_bounds(E)
    below, ominus = E._below, E._ominus
    for x in E.elements():
        floor = b.below[x]
        if floor is None:
            continue
        below_rest = below[ominus[floor][x]]
        for total in _reachable_totals(E, _orthogonal_pool(E, x), below[x]):
            ok = below_rest >> total & 1 and b.below[ominus[total][x]] == floor
            out.tick((x, total), ok)
    return out


def check_jmpy2(E: FiniteEffectAlgebra) -> CheckOutcome:
    out = CheckOutcome()
    sharp = set(sharp_elements(E))
    meager = meager_elements(E)
    meager_set = set(meager)
    above = sharp_bounds(E).above
    rows, ominus = E.table.entries, E._ominus
    for x in meager:
        hat = above[x]
        if hat is None:
            continue
        out.tick((x, "gap"), ominus[x][hat] in meager_set)
        row = rows[x]
        for y in meager:
            z = row[y]
            if z != UNDEFINED and z in sharp:
                out.tick((x, y), hat == z)
    return out


def check_jpy2(E: FiniteEffectAlgebra) -> CheckOutcome:
    out = CheckOutcome()
    sharp_mask = sum(1 << s for s in sharp_elements(E))
    meager = set(meager_elements(E))
    floors = sharp_bounds(E).below
    lattice = is_lattice(E)
    below, ominus, meets, rabove, least = E._below, E._ominus, E._meets, E._rabove, E._least
    for x in E.elements():
        floor = floors[x]
        if floor is None:
            continue
        rest = ominus[floor][x]
        out.tick((x, "meager"), rest in meager)
        # x = s + m exactly when s <= x and m = x - s, so each sharp s below x
        # with x - s meager must be the floor
        unique = all(s == floor for s in _mask_elements(sharp_mask & below[x]) if ominus[s][x] in meager)
        out.tick((x, "unique"), unique)
        out.tick((x, "disjoint"), meets[floor][rest] == E.zero)
        if lattice:
            out.tick((x, "join"), least(rabove[floor] & rabove[rest]) == x)
    return out


def check_gejzapulm(E: FiniteEffectAlgebra) -> CheckOutcome:
    out = CheckOutcome()
    centre, meets, rows = central_elements(E), E._meets, E.table.entries
    for c in centre:
        for x, row in enumerate(E.table.row_sums):
            for y, s in row:
                out.tick((c, x, y, "i"), _meet_distributes(meets, rows, c, x, y, meets[c][s]))
        for d in centre:
            cd = rows[c][d]
            if cd == UNDEFINED:
                continue
            for x in E.elements():
                out.tick((c, d, x, "ii"), _meet_distributes(meets, rows, x, c, d, meets[x][cd]))
    return out


def check_gejzasum(E: FiniteEffectAlgebra) -> CheckOutcome:
    out = CheckOutcome()
    hom = is_homogeneous(E)
    if orthoalgebra_counterexample(E) is None:
        out.tick(("i",), hom)
    if is_lattice(E):
        out.tick(("ii",), hom)
    rdp = has_rdp(E)
    out.tick(("iii",), rdp == (hom and is_internally_compatible(E, frozenset(E.elements()))))
    if not hom:
        return out
    blks = blocks(E)
    block_masks = [sum(1 << x for x in b) for b in blks]
    covered = 0
    for b, b_mask in zip(blks, block_masks):
        sub, _ = _block_algebra(E, b)  # a restriction, so b is a sub-effect algebra
        out.tick(("iv", b), has_rdp(sub))
        covered |= b_mask
    out.tick(("v", "union"), covered == (1 << E.order) - 1)
    if E.order <= 8:
        # compatibility with the witnessing family drawn from the whole
        # algebra, with one walk over the families shared by every subset
        covers = {sums for _, sums in _families(E, tuple(x for x in E.elements() if x != E.zero))}
        block_sets = [frozenset(b) for b in blks]
        universe = [x for x in E.elements() if x not in (E.zero, E.one)]
        for r in range(len(universe) + 1):
            for combo in itertools.combinations(universe, r):
                if _family_refines(E, combo + (E.one,), covers):
                    # every block holds zero and one
                    out.tick(("v", combo), any(b.issuperset(combo) for b in block_sets))
    out.tick(("vi",), _sharp_closed(E))
    sharp = frozenset(sharp_elements(E))
    both = _below_both(E)
    for b, b_mask in zip(blks, block_masks):
        out.tick(("vii", b), _sub_center(E, b) == sharp & frozenset(b))
        outside = ~b_mask
        for x in b:
            # the common lower bounds of x and x' lie in the block
            out.tick(("viii", b, x), both[x] & outside == 0)
    return out


def check_archim(E: FiniteEffectAlgebra) -> CheckOutcome:
    out = CheckOutcome()
    mea, _ = meager_algebra(E)
    hmea, _ = hypermeager_algebra(E)
    flags = (is_archimedean(E), is_archimedean(mea), is_archimedean(hmea))
    out.tick(flags, len(set(flags)) == 1)
    return out


def check_cduya(E: FiniteEffectAlgebra) -> CheckOutcome:
    out = CheckOutcome()
    below = E._below
    for x in meager_elements(E):
        for t in _maximal_totals(E, x, below[x]):
            out.tick((x, t), t == x)
    return out


def check_corcduya(E: FiniteEffectAlgebra) -> CheckOutcome:
    if _missing_sharp_bound(E) is not None:  # floor and hat are read below
        raise HypothesisError("sharply_dominating", _missing_sharp_bound(E)[0])
    out = CheckOutcome()
    meager_mask = sum(1 << m for m in meager_elements(E))
    bounds = sharp_bounds(E)
    block_masks = [(b, E._rank_mask(sum(1 << y for y in b))) for b in blocks(E)]
    rows, below, rbelow, rabove, rank = E.table.entries, E._below, E._rbelow, E._rabove, E._rank
    for x in E.elements():
        floor, hat = bounds.below[x], bounds.above[x]
        for t in _maximal_totals(E, x, below[x] & meager_mask):
            out.tick((x, t), rows[floor][t] == x)
        # the intervals [floor, x] and [x, hat], as one rank mask
        span = rabove[floor] & rbelow[x] | rabove[x] & rbelow[hat]
        for b, b_mask in block_masks:
            if b_mask >> rank[x] & 1:
                out.tick((x, b), not span & ~b_mask)
    return out


def check_duscduya(E: FiniteEffectAlgebra) -> CheckOutcome:
    out = CheckOutcome()
    meager = frozenset(meager_elements(E))
    below = E._below
    for b in blocks(E):
        outside = ~sum(1 << y for y in b)
        for x in b:
            if x in meager:
                out.tick((b, x), below[x] & outside == 0)
        sub, elems = _block_algebra(E, b)
        sub_meager = {elems[m] for m in meager_elements(sub)}
        out.tick((b, "meager"), sub_meager <= meager)
    return out


def check_ocmdcduya(E: FiniteEffectAlgebra) -> CheckOutcome:
    out = CheckOutcome()
    for x in meager_elements(E):
        if x == E.zero:
            continue
        sub, _ = interval_algebra(E, x)
        out.tick((x,), is_lattice(sub) and has_rdp(sub))
    return out


def check_dusminimax(E: FiniteEffectAlgebra) -> CheckOutcome:
    out = CheckOutcome()
    mea, _ = meager_algebra(E)
    for x, row in enumerate(mea._meets):
        for y in range(x, mea.order):
            out.tick((x, y), row[y] is not None)
    return out


def check_meetmodjen(E: FiniteEffectAlgebra) -> CheckOutcome:
    out = CheckOutcome()
    above = sharp_bounds(E).above
    meets = E._meets
    for b in blocks(E):
        sub, elems = _block_algebra(E, b)  # b is sorted, so elems == b
        for x, sub_row in zip(elems, sub._meets):
            for y, m in zip(elems, sub_row):
                if m == sub.zero:
                    out.tick((b, x, y), meets[above[x]][above[y]] == E.zero)
    return out


def check_blocksar(E: FiniteEffectAlgebra) -> CheckOutcome:
    out = CheckOutcome()
    for b in blocks(E):
        sub, _ = _block_algebra(E, b)
        out.tick((b,), lattice_counterexample(sub) is None)
    return out


def check_archimde(E: FiniteEffectAlgebra) -> CheckOutcome:
    out = CheckOutcome()
    out.tick(None, is_archimedean(E))
    return out


def check_ycoveredhea(E: FiniteEffectAlgebra) -> CheckOutcome:
    out = CheckOutcome()
    for b in blocks(E):
        verdict = heyting_block_check(E, b)
        out.tick((b, verdict.failed_clause, verdict.witness), verdict.ok)
    return out


def check_modjen(E: FiniteEffectAlgebra) -> CheckOutcome:
    out = CheckOutcome()
    meager = frozenset(meager_elements(E))
    bounds = sharp_bounds(E)
    mea, mea_src = meager_algebra(E)
    mea_index = {e: i for i, e in enumerate(mea_src)}
    mea_rabove, mea_least = mea._rabove, mea._least
    rows, below, ominus, meets = E.table.entries, E._below, E._ominus, E._meets
    for b in blocks(E):
        sub, elems = _block_algebra(E, b)
        index = {e: i for i, e in enumerate(elems)}
        sub_meets, sub_rabove, sub_least = sub._meets, sub._rabove, sub._least
        b_meager = [x for x in b if x in meager]
        for y in b_meager:
            for v in b:
                mb = sub_meets[index[v]][index[y]]
                me = meets[v][y]
                out.tick((b, v, y, "i"), me is not None and mb is not None and elems[mb] == me)
        for x in b_meager:
            hat = bounds.above[x]
            if hat != E.zero:
                ivl, ivl_elems = interval_algebra(E, hat)
                ivl_index = {e: i for i, e in enumerate(ivl_elems)}
                ivl_rabove, ivl_least = ivl._rabove, ivl._least
            for y in b_meager:
                if bounds.above[y] != hat:
                    continue
                m = meets[x][y]
                out.tick((b, x, y, "ii"), m is not None and ominus[m][hat] in meager)
                jm = mea_least(mea_rabove[mea_index[x]] & mea_rabove[mea_index[y]])
                jb = sub_least(sub_rabove[index[x]] & sub_rabove[index[y]])
                if hat == E.zero:
                    ji_src: int | None = E.zero
                else:
                    ji = ivl_least(ivl_rabove[ivl_index[x]] & ivl_rabove[ivl_index[y]])
                    ji_src = None if ji is None else ivl_elems[ji]
                ok = (
                    jm is not None
                    and jb is not None
                    and ji_src is not None
                    and mea_src[jm] == elems[jb] == ji_src
                )
                out.tick((b, x, y, "iii"), ok)
                out.tick((b, x, y, "iv"), m is not None and bounds.above[m] == hat)
        for x in b_meager:
            for v in b:
                if not below[v] >> x & 1:
                    continue
                vs = bounds.below[v]
                # x <= v = vs + (v - vs), so the whole is x
                out.tick((b, x, v, "v"), _meet_distributes(meets, rows, x, vs, ominus[vs][v], x))
    return out


def check_modchov(E: FiniteEffectAlgebra) -> CheckOutcome:
    out = CheckOutcome()
    mea, mea_src = meager_algebra(E)
    compat, mea_compat = _compat_masks(E), _compat_masks(mea)
    ominus, mea_meets, mea_rabove, mea_least = E._ominus, mea._meets, mea._rabove, mea._least
    for i, x in enumerate(mea_src):
        for j, y in enumerate(mea_src):
            c1 = compat[x] >> y & 1 == 1
            c2 = mea_compat[i] >> j & 1 == 1
            join = mea_least(mea_rabove[i] & mea_rabove[j])
            meet = mea_meets[i][j]
            c3 = (
                join is not None
                and meet is not None
                and ominus[y][mea_src[join]] == ominus[mea_src[meet]][x]
            )
            out.tick((x, y, c1, c2, c3), c1 == c2 == c3)
    return out


def check_blockua(E: FiniteEffectAlgebra) -> CheckOutcome:
    out = CheckOutcome()
    for b in blocks(E):
        # sigma_closure's first step is b | theta(b), so theta(b) = b makes b its own closure
        out.tick((b,), theta_map(E, b) == frozenset(b))
    return out


def check_center_boolean(E: FiniteEffectAlgebra) -> CheckOutcome:
    out = CheckOutcome()
    centre = central_elements(E)
    try:
        sub, _ = restrict(E, centre)
    except ValueError:  # restrict refuses exactly the subsets that are not sub-effect algebras
        out.tick(("closure",), ok=False)
    else:
        out.tick(("closure",))
        out.tick(("boolean",), is_boolean_algebra(sub))
    rows, meets, sup, rabove, least = E.table.entries, E._meets, E._sup, E._rabove, E._least
    for c in centre:
        cc = sup[c]
        for y in E.elements():
            # y ^ (c + c') = y ^ 1 = y
            out.tick((c, y, "split"), _meet_distributes(meets, rows, y, c, cc, y))
        for d in centre:
            s = rows[c][d]
            if s != UNDEFINED:
                out.tick((c, d, "orth"), least(rabove[c] & rabove[d]) == s and meets[c][d] == E.zero)
    return out


def check_infasoc(E: FiniteEffectAlgebra) -> CheckOutcome:
    """For each nondecreasing family of 2 to 4 nonzero elements and each split
    of it into two parts whose sums are defined and summable, that sum is the
    sum of the whole family; a split is keyed (family, bits), bits marking the
    first part.

    The families are walked depth first, each one extending its parent's
    list of sub-sums by its last member, so a family of size k computes
    2^(k-1) sums instead of 2^k - 1. The pre-order walk meets the families
    of one size in combinations_with_replacement order; failures are held
    per size and reported size by size, as a loop over sizes would.

    When the table is commutative and associative (Ei and Eii), the walk
    skips a family whose sum is undefined, with every extension of it. That
    loses no tick and no failure. By Ei and Eii, two sums of one multiset,
    taken in any order and bracketing, are both undefined or equal; so a
    split whose two parts and their sum are all defined sums to the whole
    family, and a family with an undefined sum has no defined split. An
    extension adds members to the fold, and UNDEFINED absorbs, so its sum is
    undefined too. A table that breaks Ei or Eii, which only _trusted can
    build, gets the full walk and keeps every failure.
    """
    out = CheckOutcome()
    prune = not _table_laws(E.table, "Ei", "Eii")
    # ext[a][b] = a + b, UNDEFINED where undefined or where a or b is
    # UNDEFINED (the extra last row and column, which index -1 reads)
    ext = [row + (UNDEFINED,) for row in E.table.entries]
    ext.append((UNDEFINED,) * (E.order + 1))
    nonzero = [x for x in E.elements() if x != E.zero]
    columns = [[row[x] for row in ext] for x in nonzero]
    failures: dict[int, list] = {2: [], 3: [], 4: []}

    def visit(start: int, family: tuple[int, ...], sums: list[int]) -> None:
        # sums[bits]: the left fold of the members picked by bits, in index
        # order, as E.orthogonal_sum computes it; UNDEFINED once undefined
        for k in range(start, len(nonzero)):
            column = columns[k]
            if prune and column[sums[-1]] == UNDEFINED:
                continue
            grown = sums + [column[s] for s in sums]
            member = family + (nonzero[k],)
            if len(member) >= 2:
                whole = grown[-1]
                # full ^ bits = full - bits: the complement's sum, read backwards
                both = [ext[a][b] for a, b in zip(grown, reversed(grown))]
                undefined = both.count(UNDEFINED)
                out.checked += len(both) - undefined
                agree = 0 if whole == UNDEFINED else both.count(whole)
                if agree + undefined != len(both):
                    failures[len(member)].extend(
                        (member, bits) for bits, v in enumerate(both) if v not in (UNDEFINED, whole)
                    )
            if len(member) < 4:
                visit(k, member, grown)

    visit(0, (), [E.zero])
    for size in (2, 3, 4):
        out.failures.extend(failures[size])
    return out


def check_ordinffin(E: FiniteEffectAlgebra) -> CheckOutcome:
    out = CheckOutcome()
    hyper = set(hypermeager_elements(E))
    rows = E.table.entries
    for y in E.elements():
        if y == E.zero:
            continue
        ny = int(element_order(E, y))
        acc = E.zero
        for k in range(1, ny // 2 + 1):
            acc = rows[acc][y]
            if acc == UNDEFINED:  # None, as E.sum returns it: it is no id
                acc = None
            out.tick((y, k), acc in hyper)
    return out


def check_structure_sets(E: FiniteEffectAlgebra) -> CheckOutcome:
    out = CheckOutcome()
    sharp = frozenset(sharp_elements(E))
    meager = frozenset(meager_elements(E))
    hyper = frozenset(hypermeager_elements(E))
    centre = frozenset(central_elements(E))
    principal = frozenset(principal_elements(E))
    out.tick(("sharp-meager",), sharp & meager == {E.zero})
    out.tick(("hyper-subset",), hyper <= meager)
    below, sup = E._below, E._sup
    for tag, members in (("downset-meager", meager), ("downset-hyper", hyper)):
        outside = ~sum(1 << x for x in members)
        out.tick((tag,), all(below[x] & outside == 0 for x in members))
    out.tick(("center-principal",), centre <= principal)
    out.tick(("principal-sharp",), principal <= sharp)
    out.tick(("sharp-closed",), all(sup[s] in sharp for s in sharp))
    # the down-set algebras skip the axiom check when built, so it runs here
    valid = all(axiom_verdict(build(E)[0]).ok for build in (meager_algebra, hypermeager_algebra))
    out.tick(("generalized-valid",), valid)
    for b in blocks(E):
        out.tick(("block-unit", b), E.one in b and is_internally_compatible(E, frozenset(b)))
    return out


# ---------------------------------------------------------------------------
# triple checks


def check_m2(E: FiniteEffectAlgebra) -> CheckOutcome:
    out = CheckOutcome()
    T = extract_triple(E)
    assert T.sharp_to_source and T.meager_to_source
    mea = T.meager
    meager = frozenset(meager_elements(E))
    meets, compat, mea_below = E._meets, _compat_masks(E), mea._below
    mea_rabove, mea_least, everything = mea._rabove, mea._least, (1 << mea.order) - 1
    for s, h_mask in enumerate(_h_masks(T)):
        s_src = T.sharp_to_source[s]
        for x in mea.elements():
            x_src = T.meager_to_source[x]
            # the join of the members of h(s) below x
            upper = everything
            for y in _mask_elements(mea_below[x] & h_mask):
                upper &= mea_rabove[y]
            join = mea_least(upper)
            out.tick((s_src, x_src, "sup"), join is not None)
            meet = meets[x_src][s_src]
            if meet is not None:
                ok = (
                    meet in meager
                    and join is not None
                    and T.meager_to_source[join] == meet
                )
                out.tick((s_src, x_src, "meet"), ok)
            if compat[x_src] >> s_src & 1:
                out.tick((s_src, x_src, "comp"), meet is not None)
    return out


def check_m3(E: FiniteEffectAlgebra) -> CheckOutcome:
    out = CheckOutcome()
    T = extract_triple(E)
    assert T.meager_to_source
    above = sharp_bounds(E).above
    try:
        r = _r_vector(T)
    except ReconstructionError as exc:  # uniqueness failures are check failures, one per meager element
        for x_src in T.meager_to_source:
            out.tick((x_src, str(exc)), False)
        return out
    for x_src, r_x in zip(T.meager_to_source, r):
        out.tick((x_src,), T.meager_to_source[r_x] == E._ominus[x_src][above[x_src]])
    return out


def check_triple_maps(E: FiniteEffectAlgebra) -> CheckOutcome:
    out = CheckOutcome()
    T = extract_triple(E)
    assert T.sharp_to_source and T.meager_to_source
    bounds = sharp_bounds(E)
    sharp = sharp_elements(E)
    rows, below, meets = E.table.entries, E._below, E._meets
    pi, tops = _pi_table(T), _split_table(T)[0]
    for x_src, hat in zip(T.meager_to_source, _widehat_vector(T)):
        out.tick((x_src, "hat"), T.sharp_to_source[hat] == bounds.above[x_src])
    for s in T.sharp.elements():
        s_src = T.sharp_to_source[s]
        for x in T.meager.elements():
            x_src = T.meager_to_source[x]
            p = pi[s][x]
            meet = meets[s_src][x_src]
            ok = (p is None) == (meet is None) and (
                p is None or T.meager_to_source[p] == meet
            )
            out.tick((s_src, x_src, "pi"), ok)
    for x in T.meager.elements():
        for y in T.meager.elements():
            x_src = T.meager_to_source[x]
            y_src = T.meager_to_source[y]
            # the sharp z with (z ^ x) + (z ^ y) = z, and the one above them all
            direct = [
                z
                for z in sharp
                if (zx := meets[z][x_src]) is not None and (zy := meets[z][y_src]) is not None and rows[zx][zy] == z
            ]
            direct_mask = sum(1 << z for z in direct)
            top = next((m for m in direct if direct_mask & ~below[m] == 0), None)
            got = tops[x][y]
            ok = (got is None) == (top is None) and (
                got is None or T.sharp_to_source[got] == top
            )
            out.tick((x_src, y_src, "s"), ok)
    missing = s_map_top_missing(T)
    if missing:
        out.notes.append(f"{len(missing)} meager pairs lack a top split piece")
    return out


def check_pommeag(E: FiniteEffectAlgebra) -> CheckOutcome:
    out = CheckOutcome()
    T = extract_triple(E)
    assert T.sharp_to_source and T.meager_to_source
    rows, sharp_sup, hm = E.table.entries, T.sharp._sup, _h_masks(T)
    tops, sums, _ = _split_table(T)
    for x in T.meager.elements():
        for y in T.meager.elements():
            x_src = T.meager_to_source[x]
            y_src = T.meager_to_source[y]
            lhs = rows[x_src][y_src] != UNDEFINED
            s, diff_sum = tops[x][y], sums[x][y]
            # diff_sum is None where s is
            rhs = diff_sum is not None and hm[sharp_sup[s]] >> diff_sum & 1 == 1
            out.tick((x_src, y_src, "iff"), lhs == rhs)
            if lhs and rhs:
                total = rows[T.sharp_to_source[s]][T.meager_to_source[diff_sum]]
                out.tick((x_src, y_src, "split"), total == rows[x_src][y_src])
    return out


def check_tripletheor(E: FiniteEffectAlgebra) -> CheckOutcome:
    out = CheckOutcome()
    result = verify_roundtrip(E)
    out.tick((result.failure, result.witness), result.ok)
    return out


def check_triple_pure(E: FiniteEffectAlgebra) -> CheckOutcome:
    """The rebuild reads no back-map: T and T stripped rebuild equal algebras.

    Only T's rebuild is checked against the axioms, and it is the one
    triple_idem reads. Equal tables have one axiom verdict, and unequal ones
    fail the law either way, so the stripped rebuild is compared unchecked.
    """
    out = CheckOutcome()
    T = extract_triple(E)
    out.tick(None, reconstruct_tea(T) == _rebuild(T.stripped()))
    return out


def check_triple_idem(E: FiniteEffectAlgebra) -> CheckOutcome:
    """The triple of T's rebuild is T itself, back-maps aside.

    The rebuilt carrier is sharp-major, with meager parts ascending, so by
    the theorem its sharp elements (s, 0) and meager elements (0, m) appear
    in T's own index order. restrict and restrict_downset re-index in
    ascending order, so the extracted triple is T: equality is the
    isomorphism of triples that idempotence asks for, with the identity as
    its witness, and needs no search.
    """
    out = CheckOutcome()
    T = extract_triple(E)
    out.tick(None, extract_triple(reconstruct_tea(T).algebra).stripped() == T.stripped())
    return out


CheckFn = Callable[[FiniteEffectAlgebra], CheckOutcome]


def _homogeneous(E) -> bool:
    return is_homogeneous(E)


@memoized
def _sharp_closed(E) -> bool:
    return is_sub_effect_algebra(E, sharp_elements(E))


def _requires(hypothesis: Callable[[FiniteEffectAlgebra], bool], check: CheckFn) -> CheckFn:
    """`check`, run only on algebras that satisfy `hypothesis`; the others
    get an empty outcome, which the suite does not count as examined.

    The predicates above call is_homogeneous and sharp_elements through
    this module's globals, not through names bound here: perfbench/tracing.py
    swaps those globals for timing wrappers, so a hypothesis test is timed
    as the structure layer it calls. No gate tests sharp domination, which
    homogeneity implies on a finite, hence orthocomplete, E.
    """

    def guarded(E: FiniteEffectAlgebra) -> CheckOutcome:
        return check(E) if hypothesis(E) else CheckOutcome()

    return guarded


_dusminimax = _requires(_homogeneous, check_dusminimax)

ANCHORS: tuple[tuple[str, CheckFn], ...] = (
    ("infasoc", check_infasoc),
    ("structure_sets", check_structure_sets),
    ("ordinffin", check_ordinffin),
    ("archim", check_archim),
    ("center_boolean", check_center_boolean),
    ("gejzapulm", check_gejzapulm),
    ("gejzasum", check_gejzasum),
    ("xshom", _requires(_homogeneous, check_xshom)),
    ("modyjem", _requires(_homogeneous, check_modyjem)),
    ("soucethat", _requires(_homogeneous, check_soucethat)),
    ("suplem", check_suplem),
    ("dusuplem", check_dusuplem),
    ("xssuplem", _requires(_homogeneous, check_xssuplem)),
    ("exssuplem", _requires(_homogeneous, check_exssuplem)),
    ("jmpy2", _requires(_sharp_closed, check_jmpy2)),
    ("jpy2", _requires(_sharp_closed, check_jpy2)),
    ("cduya", _requires(_homogeneous, check_cduya)),
    ("corcduya", _requires(_homogeneous, check_corcduya)),
    ("duscduya", _requires(_homogeneous, check_duscduya)),
    ("ocmdcduya", _requires(_homogeneous, check_ocmdcduya)),
    ("dusminimax", _dusminimax),
    # the same law under a second tag; run_checks runs it once for both rows
    ("minimax", _dusminimax),
    ("meetmodjen", _requires(_homogeneous, check_meetmodjen)),
    ("blocksar", _requires(_homogeneous, check_blocksar)),
    ("archimde", _requires(_homogeneous, check_archimde)),
    ("ycoveredhea", _requires(_homogeneous, check_ycoveredhea)),
    ("modjen", _requires(_homogeneous, check_modjen)),
    ("modchov", _requires(_homogeneous, check_modchov)),
    ("blockua", _requires(_homogeneous, check_blockua)),
    ("m2", _requires(_homogeneous, check_m2)),
    ("m3", _requires(_homogeneous, check_m3)),
    ("triple_maps", _requires(_homogeneous, check_triple_maps)),
    ("pommeag", _requires(_homogeneous, check_pommeag)),
    ("tripletheor", _requires(_homogeneous, check_tripletheor)),
    ("triple_pure", _requires(_homogeneous, check_triple_pure)),
    ("triple_idem", _requires(_homogeneous, check_triple_idem)),
)


def run_checks(E: FiniteEffectAlgebra) -> list[tuple[str, CheckOutcome]]:
    """Each anchor's outcome on E; a check listed under two tags runs once."""
    outcomes = {fn: fn(E) for fn in dict.fromkeys(fn for _anchor, fn in ANCHORS)}
    return [(anchor, outcomes[fn]) for anchor, fn in ANCHORS]


def worker_count() -> int:
    """Worker override from the environment; invalid values mean one worker."""
    raw = os.environ.get("EFALG_JOBS", "1")
    try:
        jobs = int(raw)
    except ValueError:
        return 1
    return max(jobs, 1)


def _named_checks(item: tuple[str, FiniteEffectAlgebra]):
    name, alg = item
    return name, run_checks(alg)


def run_suite(
    universe: Iterable[tuple[str, FiniteEffectAlgebra]], jobs: int | None = None
) -> list[AnchorReport]:
    """Run every anchor over the universe; output is independent of job count.

    One worker checks each algebra as it reads it; more list the universe once.
    The job count, which comes from outside the program, is capped at the CPU
    count, so no value starts more processes than the machine can run.
    """
    if jobs is None:
        jobs = worker_count()
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs > 1:
        import multiprocessing

        with multiprocessing.get_context("fork").Pool(jobs) as pool:
            outcomes = pool.map(_named_checks, universe)
    else:
        outcomes = map(_named_checks, universe)

    reports = [AnchorReport(anchor, 0, 0, [], []) for anchor, _fn in ANCHORS]
    for name, checks in outcomes:
        for report, (_anchor, outcome) in zip(reports, checks):
            if outcome.checked or outcome.failures:
                report.algebras += 1
            report.checked += outcome.checked
            report.failures.extend((name, w) for w in outcome.failures)
            report.notes.extend(f"{name}: {n}" for n in outcome.notes)
    return reports
