"""Per-anchor property checks swept over catalog and enumerated algebras.

Each check is a pure function of one algebra returning how many instances it
examined and which failed. The suite runner aggregates the outcomes into a
table keyed by short anchor tags; the tags are stable identifiers for the
individual laws, used verbatim in reports so failures are greppable.

The anchor table states each law's hypothesis (E homogeneous; E homogeneous
and sharply dominating, the Triple Representation Theorem's own; or Sh(E) a
sub-effect algebra) through `_requires`, so a law examines nothing on inputs
outside its class. Only gejzasum tests homogeneity mid-body: its first
clauses hold on every algebra.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .core import FiniteEffectAlgebra
from .iso import find_isomorphism, isomorphisms
from .structure import (
    _block_algebra,
    _family_refines,
    _orthogonal_pool,
    _reachable_totals,
    _sub_center,
    are_compatible,
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
    is_sharply_dominating,
    is_sub_effect_algebra,
    lattice_counterexample,
    meager_algebra,
    meager_elements,
    orthoalgebra_counterexample,
    principal_elements,
    restrict,
    sharp_bounds,
    sharp_elements,
    sigma_closure,
    theta_map,
)
from .triple import (
    _split,
    extract_triple,
    pi_s,
    r_map,
    reconstruct_tea,
    s_map,
    s_map_top_missing,
    verify_roundtrip,
    widehat_triple,
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
# structure checks


def check_xshom(E: FiniteEffectAlgebra) -> CheckOutcome:
    out = CheckOutcome()
    sharp = set(sharp_elements(E))
    for v1, row in enumerate(E.table.row_sums):
        if v1 not in sharp:
            continue
        for v2, s in row:
            for u in E.down_set(s):
                if not E.leq(s, E.orthosupplement(u)):
                    continue
                ok = E.leq(u, v2) and E.meet(u, v1) == E.zero
                out.tick((u, v1, v2), ok)
    return out


def check_modyjem(E: FiniteEffectAlgebra) -> CheckOutcome:
    out = CheckOutcome()
    sharp = set(sharp_elements(E))
    for v in E.elements():
        c1 = v in sharp
        c2 = _modyjem_ii(E, v)
        c3 = _modyjem_iii(E, v)
        out.tick((v, c1, c2, c3), c1 == c2 == c3)
    return out


def _modyjem_ii(E, v) -> bool:
    for w in E.down_set(v):
        z = E.ominus(v, w)
        wc = E.orthosupplement(w)
        for y in E.elements():
            if E.leq(y, w) and E.leq(y, wc) and not E.leq(y, z):
                return False
    return True


def _modyjem_iii(E, v) -> bool:
    for w in E.down_set(v):
        lhs = E.below_mask(w) & E.below_mask(E.orthosupplement(w))
        rhs = E.below_mask(w) & E.below_mask(E.ominus(v, w))
        if lhs != rhs:
            return False
    return True


def check_soucethat(E: FiniteEffectAlgebra) -> CheckOutcome:
    out = CheckOutcome()
    for w in sharp_elements(E):
        for y in E.down_set(w):
            acc = y
            k = 1
            while True:
                nxt = E.sum(acc, y)
                if nxt is None:
                    break
                acc, k = nxt, k + 1
                out.tick((y, w, k), E.leq(acc, w))
                if y == E.zero:
                    break
    return out


def check_suplem(E: FiniteEffectAlgebra) -> CheckOutcome:
    out = CheckOutcome()
    b = sharp_bounds(E)
    for x in E.elements():
        xc = E.orthosupplement(x)
        if b.above[x] is not None:
            hat = b.above[x]
            t1 = E.ominus(hat, x)
            floor_xc = b.below[xc]
            ok = (
                floor_xc is not None
                and t1 == E.ominus(xc, E.orthosupplement(hat))
                and t1 == E.ominus(xc, floor_xc)
            )
            out.tick((x, "above"), ok)
        if b.below[x] is not None:
            floor = b.below[x]
            d1 = E.ominus(x, floor)
            hat_xc = b.above[xc]
            ok = (
                hat_xc is not None
                and d1 == E.ominus(E.orthosupplement(floor), xc)
                and d1 == E.ominus(hat_xc, xc)
            )
            out.tick((x, "below"), ok)
    return out


def check_dusuplem(E: FiniteEffectAlgebra) -> CheckOutcome:
    out = CheckOutcome()
    b = sharp_bounds(E)
    for x in E.elements():
        xc = E.orthosupplement(x)
        hat, floor = b.above[x], b.below[x]
        for y in E.elements():
            if hat is not None:
                lhs = E.leq(y, E.ominus(hat, x))
                rhs = E.leq(y, xc) and b.above[E.sum(x, y)] == hat
                out.tick((x, y, "above"), lhs == rhs)
            if floor is not None:
                lhs = E.leq(y, E.ominus(x, floor))
                rhs = E.leq(y, x) and b.below[E.ominus(x, y)] == floor
                out.tick((x, y, "below"), lhs == rhs)
    return out


def check_xssuplem(E: FiniteEffectAlgebra) -> CheckOutcome:
    out = CheckOutcome()
    b = sharp_bounds(E)
    for x in E.elements():
        xc = E.orthosupplement(x)
        base = E.below_mask(x) & E.below_mask(xc)
        floor, hat = b.below[x], b.above[x]
        if floor is not None:
            t = E.ominus(x, floor)
            ok = (
                base == E.below_mask(t) & E.below_mask(xc)
                == E.below_mask(t) & E.below_mask(E.orthosupplement(t))
            )
            out.tick((x, "below"), ok)
        if hat is not None:
            r = E.ominus(hat, x)
            ok = (
                base == E.below_mask(x) & E.below_mask(r)
                == E.below_mask(E.orthosupplement(r)) & E.below_mask(r)
            )
            out.tick((x, "above"), ok)
        if floor is not None and hat is not None:
            t = E.ominus(x, floor)
            r = E.ominus(hat, x)
            out.tick((x, "both"), base == E.below_mask(t) & E.below_mask(r))
    return out


def check_exssuplem(E: FiniteEffectAlgebra) -> CheckOutcome:
    out = CheckOutcome()
    b = sharp_bounds(E)
    for x in E.elements():
        floor = b.below[x]
        if floor is None:
            continue
        rest = E.ominus(x, floor)
        for total in _reachable_totals(E, _orthogonal_pool(E, x), E.below_mask(x)):
            ok = E.leq(total, rest) and b.below[E.ominus(x, total)] == floor
            out.tick((x, total), ok)
    return out


def check_jmpy2(E: FiniteEffectAlgebra) -> CheckOutcome:
    out = CheckOutcome()
    sharp = set(sharp_elements(E))
    meager = meager_elements(E)
    above = sharp_bounds(E).above
    for x in meager:
        hat = above[x]
        if hat is None:
            continue
        out.tick((x, "gap"), E.ominus(hat, x) in set(meager))
        for y in meager:
            z = E.sum(x, y)
            if z is not None and z in sharp:
                out.tick((x, y), hat == z)
    return out


def check_jpy2(E: FiniteEffectAlgebra) -> CheckOutcome:
    out = CheckOutcome()
    sharp = sharp_elements(E)
    meager = set(meager_elements(E))
    below = sharp_bounds(E).below
    lattice = is_lattice(E)
    for x in E.elements():
        floor = below[x]
        if floor is None:
            continue
        rest = E.ominus(x, floor)
        out.tick((x, "meager"), rest in meager)
        unique = all(
            (s, m) == (floor, rest)
            for s in sharp
            for m in meager
            if E.sum(s, m) == x
        )
        out.tick((x, "unique"), unique)
        out.tick((x, "disjoint"), E.meet(floor, rest) == E.zero)
        if lattice:
            out.tick((x, "join"), E.join(floor, rest) == x)
    return out


def check_gejzapulm(E: FiniteEffectAlgebra) -> CheckOutcome:
    out = CheckOutcome()
    centre = central_elements(E)
    for c in centre:
        for x, row in enumerate(E.table.row_sums):
            for y, s in row:
                cx, cy, cs = E.meet(c, x), E.meet(c, y), E.meet(c, s)
                ok = (
                    cx is not None
                    and cy is not None
                    and cs is not None
                    and E.sum(cx, cy) == cs
                )
                out.tick((c, x, y, "i"), ok)
        for d in centre:
            cd = E.sum(c, d)
            if cd is None:
                continue
            for x in E.elements():
                xc, xd, xcd = E.meet(x, c), E.meet(x, d), E.meet(x, cd)
                ok = (
                    xc is not None
                    and xd is not None
                    and xcd is not None
                    and E.sum(xc, xd) == xcd
                )
                out.tick((c, d, x, "ii"), ok)
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
    for b in blks:
        sub, _ = _block_algebra(E, b)
        out.tick(("iv", b), is_sub_effect_algebra(E, b) and has_rdp(sub))
    covered = set()
    for b in blks:
        covered |= set(b)
    out.tick(("v", "union"), covered == set(E.elements()))
    if E.order <= 8:
        # compatibility with the witnessing family drawn from the whole algebra
        nonzero = tuple(x for x in E.elements() if x != E.zero)
        universe = [x for x in E.elements() if x not in (E.zero, E.one)]
        for r in range(len(universe) + 1):
            for combo in itertools.combinations(universe, r):
                subset = frozenset(combo) | {E.zero, E.one}
                if _family_refines(E, subset, nonzero):
                    out.tick(
                        ("v", combo), any(subset <= set(b) for b in blks)
                    )
    out.tick(("vi",), is_sub_effect_algebra(E, sharp_elements(E)))
    sharp = frozenset(sharp_elements(E))
    for b in blks:
        out.tick(("vii", b), _sub_center(E, b) == sharp & frozenset(b))
        bset = set(b)
        for x in b:
            xc = E.orthosupplement(x)
            inner = {y for y in E.elements() if E.leq(y, x) and E.leq(y, xc)}
            out.tick(("viii", b, x), inner <= bset)
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
    for x in meager_elements(E):
        pool = _orthogonal_pool(E, x)
        totals = _reachable_totals(E, pool, E.below_mask(x))
        for t in totals:
            extendable = any(
                (n := E.sum(t, y)) is not None and E.leq(n, x) for y in pool
            )
            if not extendable:
                out.tick((x, t), t == x)
    return out


def check_corcduya(E: FiniteEffectAlgebra) -> CheckOutcome:
    out = CheckOutcome()
    meager = frozenset(meager_elements(E))
    meager_mask = sum(1 << m for m in meager)
    bounds = sharp_bounds(E)
    for x in E.elements():
        floor, hat = bounds.below[x], bounds.above[x]
        pool = _orthogonal_pool(E, x)
        totals = _reachable_totals(E, pool, E.below_mask(x) & meager_mask)
        for t in totals:
            extendable = any(
                (n := E.sum(t, y)) is not None and E.leq(n, x) and n in meager
                for y in pool
            )
            if not extendable:
                out.tick((x, t), E.sum(floor, t) == x)
        for b in blocks(E):
            if x not in b:
                continue
            bset = set(b)
            lower = {y for y in E.elements() if E.leq(floor, y) and E.leq(y, x)}
            upper = {y for y in E.elements() if E.leq(x, y) and E.leq(y, hat)}
            out.tick((x, b), lower <= bset and upper <= bset)
    return out


def check_duscduya(E: FiniteEffectAlgebra) -> CheckOutcome:
    out = CheckOutcome()
    meager = frozenset(meager_elements(E))
    for b in blocks(E):
        bset = set(b)
        for x in b:
            if x in meager:
                out.tick((b, x), set(E.down_set(x)) <= bset)
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
    for x in mea.elements():
        for y in range(x, mea.order):
            out.tick((x, y), mea.meet(x, y) is not None)
    return out


def check_meetmodjen(E: FiniteEffectAlgebra) -> CheckOutcome:
    out = CheckOutcome()
    above = sharp_bounds(E).above
    for b in blocks(E):
        sub, elems = _block_algebra(E, b)
        index = {e: i for i, e in enumerate(elems)}
        for x in b:
            for y in b:
                if sub.meet(index[x], index[y]) == sub.zero:
                    out.tick((b, x, y), E.meet(above[x], above[y]) == E.zero)
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
    for b in blocks(E):
        sub, elems = _block_algebra(E, b)
        index = {e: i for i, e in enumerate(elems)}
        b_meager = [x for x in b if x in meager]
        for y in b_meager:
            for v in b:
                mb = sub.meet(index[v], index[y])
                me = E.meet(v, y)
                out.tick((b, v, y, "i"), me is not None and mb is not None and elems[mb] == me)
        for x in b_meager:
            hat = bounds.above[x]
            for y in b_meager:
                if bounds.above[y] != hat:
                    continue
                m = E.meet(x, y)
                out.tick((b, x, y, "ii"), m is not None and E.ominus(hat, m) in meager)
                jm = mea.join(mea_index[x], mea_index[y])
                jb = sub.join(index[x], index[y])
                if hat == E.zero:
                    ji_src: int | None = E.zero
                else:
                    ivl, ivl_elems = interval_algebra(E, hat)
                    ivl_index = {e: i for i, e in enumerate(ivl_elems)}
                    ji = ivl.join(ivl_index[x], ivl_index[y])
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
                if not E.leq(x, v):
                    continue
                vs, vm = bounds.below[v], E.ominus(v, bounds.below[v])
                ms, mm = E.meet(x, vs), E.meet(x, vm)
                ok = ms is not None and mm is not None and E.sum(ms, mm) == x
                out.tick((b, x, v, "v"), ok)
    return out


def check_modchov(E: FiniteEffectAlgebra) -> CheckOutcome:
    out = CheckOutcome()
    mea, mea_src = meager_algebra(E)
    for i, x in enumerate(mea_src):
        for j, y in enumerate(mea_src):
            c1 = are_compatible(E, x, y)
            c2 = are_compatible(mea, i, j)
            join = mea.join(i, j)
            meet = mea.meet(i, j)
            c3 = (
                join is not None
                and meet is not None
                and E.ominus(mea_src[join], y) == E.ominus(x, mea_src[meet])
            )
            out.tick((x, y, c1, c2, c3), c1 == c2 == c3)
    return out


def check_blockua(E: FiniteEffectAlgebra) -> CheckOutcome:
    out = CheckOutcome()
    for b in blocks(E):
        bset = frozenset(b)
        out.tick((b,), theta_map(E, bset) == bset and sigma_closure(E, bset) == bset)
    return out


def check_center_boolean(E: FiniteEffectAlgebra) -> CheckOutcome:
    out = CheckOutcome()
    centre = central_elements(E)
    out.tick(("closure",), is_sub_effect_algebra(E, centre))
    sub, elems = restrict(E, centre)
    out.tick(("boolean",), is_boolean_algebra(sub))
    for c in centre:
        cc = E.orthosupplement(c)
        for y in E.elements():
            yc, ycc = E.meet(y, c), E.meet(y, cc)
            ok = yc is not None and ycc is not None and E.sum(yc, ycc) == y
            out.tick((c, y, "split"), ok)
        for d in centre:
            s = E.sum(c, d)
            if s is not None:
                out.tick((c, d, "orth"), E.join(c, d) == s and E.meet(c, d) == E.zero)
    return out


def check_infasoc(E: FiniteEffectAlgebra) -> CheckOutcome:
    out = CheckOutcome()
    nonzero = [x for x in E.elements() if x != E.zero]
    for size in range(2, 5):
        full = (1 << size) - 1
        for family in itertools.combinations_with_replacement(nonzero, size):
            # sums[bits]: the left fold of the members picked by bits, in
            # index order, as E.orthogonal_sum computes it; None once undefined
            sums = [E.zero]
            for x in family:
                sums += [None if s is None else E.sum(s, x) for s in sums]
            whole = sums[full]
            for bits in range(1 << size):
                s1 = sums[bits]
                s2 = sums[full ^ bits]
                if s1 is None or s2 is None:
                    continue
                both = E.sum(s1, s2)
                if both is None:
                    continue
                out.tick((family, bits), whole == both)
    return out


def check_ordinffin(E: FiniteEffectAlgebra) -> CheckOutcome:
    out = CheckOutcome()
    hyper = set(hypermeager_elements(E))
    for y in E.elements():
        if y == E.zero:
            continue
        ny = int(element_order(E, y))
        acc = E.zero
        for k in range(1, ny // 2 + 1):
            acc = E.sum(acc, y)
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
    out.tick(("downset-meager",), all(set(E.down_set(x)) <= meager for x in meager))
    out.tick(("downset-hyper",), all(set(E.down_set(x)) <= hyper for x in hyper))
    out.tick(("center-principal",), centre <= principal)
    out.tick(("principal-sharp",), principal <= sharp)
    out.tick(("sharp-closed",), all(E.orthosupplement(s) in sharp for s in sharp))
    meager_algebra(E)
    hypermeager_algebra(E)
    out.tick(("generalized-valid",), True)
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
    for s in T.sharp.elements():
        s_src = T.sharp_to_source[s]
        for x in mea.elements():
            x_src = T.meager_to_source[x]
            below = [y for y in mea.elements() if mea.leq(y, x) and y in T.h[s]]
            join = mea.join_set(below)
            out.tick((s_src, x_src, "sup"), join is not None)
            meet = E.meet(x_src, s_src)
            if meet is not None:
                ok = (
                    meet in meager
                    and join is not None
                    and T.meager_to_source[join] == meet
                )
                out.tick((s_src, x_src, "meet"), ok)
            if are_compatible(E, x_src, s_src):
                out.tick((s_src, x_src, "comp"), meet is not None)
    return out


def check_m3(E: FiniteEffectAlgebra) -> CheckOutcome:
    out = CheckOutcome()
    T = extract_triple(E)
    assert T.meager_to_source
    above = sharp_bounds(E).above
    for x in T.meager.elements():
        x_src = T.meager_to_source[x]
        try:
            r = r_map(T, x)
        except Exception as exc:  # uniqueness failures are check failures
            out.tick((x_src, str(exc)), False)
            continue
        expected = E.ominus(above[x_src], x_src)
        out.tick((x_src,), T.meager_to_source[r] == expected)
    return out


def check_triple_maps(E: FiniteEffectAlgebra) -> CheckOutcome:
    out = CheckOutcome()
    T = extract_triple(E)
    assert T.sharp_to_source and T.meager_to_source
    bounds = sharp_bounds(E)
    sharp = sharp_elements(E)
    for x in T.meager.elements():
        x_src = T.meager_to_source[x]
        out.tick((x_src, "hat"), T.sharp_to_source[widehat_triple(T, x)] == bounds.above[x_src])
    for s in T.sharp.elements():
        s_src = T.sharp_to_source[s]
        for x in T.meager.elements():
            x_src = T.meager_to_source[x]
            p = pi_s(T, s, x)
            meet = E.meet(x_src, s_src)
            ok = (p is None) == (meet is None) and (
                p is None or T.meager_to_source[p] == meet
            )
            out.tick((s_src, x_src, "pi"), ok)
    for x in T.meager.elements():
        for y in T.meager.elements():
            x_src = T.meager_to_source[x]
            y_src = T.meager_to_source[y]
            direct = [
                z
                for z in sharp
                if E.meet(z, x_src) is not None
                and E.meet(z, y_src) is not None
                and E.sum(E.meet(z, x_src), E.meet(z, y_src)) == z
            ]
            top = next(
                (m for m in direct if all(E.leq(c, m) for c in direct)), None
            )
            got = s_map(T, x, y)
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
    for x in T.meager.elements():
        for y in T.meager.elements():
            x_src = T.meager_to_source[x]
            y_src = T.meager_to_source[y]
            lhs = E.sum(x_src, y_src) is not None
            s, diff_sum = _split(T, x, y)
            rhs = diff_sum is not None and diff_sum in T.h[T.sharp.orthosupplement(s)]
            out.tick((x_src, y_src, "iff"), lhs == rhs)
            if lhs and rhs:
                total = E.sum(T.sharp_to_source[s], T.meager_to_source[diff_sum])
                out.tick((x_src, y_src, "split"), total == E.sum(x_src, y_src))
    return out


def check_tripletheor(E: FiniteEffectAlgebra) -> CheckOutcome:
    out = CheckOutcome()
    result = verify_roundtrip(E)
    out.tick((result.failure, result.witness), result.ok)
    return out


def check_triple_pure(E: FiniteEffectAlgebra) -> CheckOutcome:
    out = CheckOutcome()
    T = extract_triple(E)
    full = reconstruct_tea(T)
    bare = reconstruct_tea(T.stripped())
    ok = full.algebra.table == bare.algebra.table and full.carrier == bare.carrier
    out.tick(None, ok)
    return out


def check_triple_idem(E: FiniteEffectAlgebra) -> CheckOutcome:
    out = CheckOutcome()
    T = extract_triple(E)
    tea = reconstruct_tea(T)
    T2 = extract_triple(tea.algebra)
    found = False
    for f in isomorphisms(T.sharp, T2.sharp):
        for g in isomorphisms(T.meager, T2.meager):
            if all(
                frozenset(g[m] for m in T.h[s]) == T2.h[f[s]]
                for s in T.sharp.elements()
            ):
                found = True
                break
        if found:
            break
    out.tick(None, found)
    return out


CheckFn = Callable[[FiniteEffectAlgebra], CheckOutcome]


def _homogeneous(E) -> bool:
    return is_homogeneous(E)


def _qualifies(E) -> bool:
    return is_homogeneous(E) and is_sharply_dominating(E)


def _sharp_closed(E) -> bool:
    return is_sub_effect_algebra(E, sharp_elements(E))


def _requires(hypothesis: Callable[[FiniteEffectAlgebra], bool], check: CheckFn) -> CheckFn:
    """`check`, run only on algebras that satisfy `hypothesis`; the others
    get an empty outcome, which the suite does not count as examined.

    The predicates above call is_homogeneous, is_sharply_dominating and
    sharp_elements through this module's globals when they run, not through
    names bound here: perfbench/tracing.py swaps those globals for timing
    wrappers, so a hypothesis test is timed as the structure layer it calls.
    """

    def guarded(E: FiniteEffectAlgebra) -> CheckOutcome:
        return check(E) if hypothesis(E) else CheckOutcome()

    return guarded


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
    ("corcduya", _requires(_qualifies, check_corcduya)),
    ("duscduya", _requires(_qualifies, check_duscduya)),
    ("ocmdcduya", _requires(_qualifies, check_ocmdcduya)),
    ("dusminimax", _requires(_qualifies, check_dusminimax)),
    # alias of dusminimax; kept so the suite table is unchanged
    ("minimax", _requires(_qualifies, check_dusminimax)),
    ("meetmodjen", _requires(_qualifies, check_meetmodjen)),
    ("blocksar", _requires(_qualifies, check_blocksar)),
    ("archimde", _requires(_qualifies, check_archimde)),
    ("ycoveredhea", _requires(_qualifies, check_ycoveredhea)),
    ("modjen", _requires(_qualifies, check_modjen)),
    ("modchov", _requires(_qualifies, check_modchov)),
    ("blockua", _requires(_qualifies, check_blockua)),
    ("m2", _requires(_qualifies, check_m2)),
    ("m3", _requires(_qualifies, check_m3)),
    ("triple_maps", _requires(_qualifies, check_triple_maps)),
    ("pommeag", _requires(_qualifies, check_pommeag)),
    ("tripletheor", _requires(_qualifies, check_tripletheor)),
    ("triple_pure", _requires(_qualifies, check_triple_pure)),
    ("triple_idem", _requires(_qualifies, check_triple_idem)),
)


def run_checks(E: FiniteEffectAlgebra) -> list[tuple[str, CheckOutcome]]:
    return [(anchor, fn(E)) for anchor, fn in ANCHORS]


def worker_count() -> int:
    """Worker override from the environment; invalid values mean one worker."""
    raw = os.environ.get("EFALG_JOBS", "1")
    try:
        jobs = int(raw)
    except ValueError:
        return 1
    return max(jobs, 1)


def run_suite(
    universe: Sequence[tuple[str, FiniteEffectAlgebra]], jobs: int | None = None
) -> list[AnchorReport]:
    """Run every anchor over the universe; output is independent of job count."""
    if jobs is None:
        jobs = worker_count()
    items = list(universe)
    algebras = [alg for _name, alg in items]
    if jobs > 1 and len(items) > 1:
        import multiprocessing

        with multiprocessing.get_context("fork").Pool(jobs) as pool:
            outcomes = pool.map(run_checks, algebras)
    else:
        outcomes = map(run_checks, algebras)

    reports = [AnchorReport(anchor, 0, 0, [], []) for anchor, _fn in ANCHORS]
    for (name, _alg), checks in zip(items, outcomes):
        for report, (_anchor, outcome) in zip(reports, checks):
            if outcome.checked or outcome.failures:
                report.algebras += 1
            report.checked += outcome.checked
            report.failures.extend((name, w) for w in outcome.failures)
            report.notes.extend(f"{name}: {n}" for n in outcome.notes)
    return reports
