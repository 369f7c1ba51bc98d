"""Structural classifiers: element sets, bounds, blocks, closures, Heyting."""

import hashlib
import itertools
import math
import random

import pytest

from efalg.catalog import direct_product, enumerate_all, horizontal_sum, make_boolean, make_chain
from efalg.structure import (
    HypothesisError,
    are_compatible,
    blocks,
    central_elements,
    decompose,
    element_order,
    has_rdp,
    heyting_block_check,
    homogeneity_counterexample,
    hypermeager_elements,
    interval_algebra,
    is_archimedean,
    is_boolean_algebra,
    is_homogeneous,
    is_internally_compatible,
    is_lattice,
    is_sharply_dominating,
    is_sub_effect_algebra,
    meager_algebra,
    meager_elements,
    principal_elements,
    rdp_counterexample,
    restrict,
    sharp_bounds,
    sharp_elements,
    sigma_closure,
    structure_report,
    theta_map,
    vartheta,
)

from naive_oracles import (
    naive_blocks,
    naive_central,
    naive_internally_compatible,
    naive_join,
    naive_join_set,
    naive_meet,
    naive_meet_set,
    naive_principal,
    naive_riesz_counterexample,
)
from test_iso import LARGE, permuted_copy, plain


@pytest.fixture(scope="module")
def chain4():
    return make_chain(3)  # 0, p=1, q=2, 1=3


@pytest.fixture(scope="module")
def diamond():
    # horizontal sum of two 3-chains: 0, a=1, b=2, 1=3 with a+a = b+b = 1
    return horizontal_sum([make_chain(2), make_chain(2)])


# Smallest not sharply dominating example we know of, found by bounded table
# search at order 8: element 6 sits below the incomparable sharp elements
# 2 and 3 and below nothing sharp in between.
NOT_SHARPLY_DOMINATING = """
efa 1
order 8
zero 0
one 7
sum 0 0 0
sum 0 1 1
sum 0 2 2
sum 0 3 3
sum 0 4 4
sum 0 5 5
sum 0 6 6
sum 0 7 7
sum 1 6 7
sum 2 5 7
sum 3 4 7
sum 4 5 1
sum 4 6 2
sum 5 6 3
sum 6 6 1
"""


@pytest.fixture(scope="module")
def no_sharp_cover():
    from efalg.fileformat import parse

    return parse(NOT_SHARPLY_DOMINATING)


class TestMeetJoin:
    def test_meet_with_zero_join_with_one(self, universe_6):
        for _, alg in universe_6:
            for x in alg.elements():
                assert alg.meet(x, alg.zero) == alg.zero
                assert alg.join(x, alg.one) == alg.one

    def test_diamond_meets_and_joins(self, diamond):
        assert diamond.meet(1, 2) == 0
        assert diamond.join(1, 2) == 3

    def test_meet_matches_naive_oracle(self, universe_6, catalog):
        # meet, join and their set versions against the order's definition, on
        # the universe, relabelled copies, products with the 2-chain and a GEA
        rng = random.Random(12)
        algebras = [alg for _, alg in universe_6]
        algebras += [permuted_copy(alg, rng) for alg in algebras]
        algebras += [direct_product(alg, make_chain(1)) for alg in algebras if alg.order <= 6]
        hsum, = (e.algebra for e in catalog if e.name == "hsum-3-3")
        mea, _ = meager_algebra(hsum)
        atoms = [x for x in mea.elements() if x != mea.zero]
        assert len(atoms) == 2 and mea.join(*atoms) is None  # no common upper bound
        for alg in algebras + [mea]:
            entries = [list(r) for r in alg.table.entries]
            elems = list(alg.elements())
            for x in elems:
                for y in elems:
                    assert alg.meet(x, y) == naive_meet(entries, x, y)
                    assert alg.join(x, y) == naive_join(entries, x, y)
            for xs in ([], *([x] for x in elems), elems, elems[::2], elems[1::2], elems[1:3]):
                assert alg.meet_set(xs) == naive_meet_set(entries, xs)
                assert alg.join_set(xs) == naive_join_set(entries, xs)

    def test_lattice_flag_matches_totality(self, universe_6):
        for _, alg in universe_6:
            total = all(
                alg.meet(x, y) is not None and alg.join(x, y) is not None
                for x in alg.elements()
                for y in alg.elements()
            )
            assert is_lattice(alg) == total


class TestElementSets:
    def test_boolean_all_sharp(self):
        b = make_boolean(2)
        assert sharp_elements(b) == (0, 1, 2, 3)
        assert meager_elements(b) == (0,)
        assert hypermeager_elements(b) == (0,)

    def test_three_chain_sharp(self):
        c = make_chain(2)
        assert sharp_elements(c) == (0, 2)

    def test_four_chain_meager_hypermeager(self, chain4):
        assert meager_elements(chain4) == (0, 1, 2)
        assert hypermeager_elements(chain4) == (0, 1)

    def test_sharp_set_closed_and_is_subalgebra_on_homogeneous(self, universe_6):
        for _, alg in universe_6:
            if is_homogeneous(alg):
                assert is_sub_effect_algebra(alg, sharp_elements(alg))

    def test_meager_downset(self, universe_6):
        for _, alg in universe_6:
            meager = set(meager_elements(alg))
            for x in meager:
                assert set(alg.down_set(x)) <= meager


class TestOrdArchimedean:
    def test_four_chain_ord(self, chain4):
        assert element_order(chain4, 1) == 3
        assert element_order(chain4, 2) == 1

    def test_ord_of_one_is_one(self, universe_6):
        for _, alg in universe_6:
            assert element_order(alg, alg.one) == 1

    def test_ord_zero_infinite_marker(self, chain4):
        assert element_order(chain4, 0) == math.inf

    def test_archimedean_everywhere_finite(self, universe_6):
        for _, alg in universe_6:
            assert is_archimedean(alg)


class TestPrincipalCentral:
    def test_diamond_principal_and_center(self, diamond):
        assert principal_elements(diamond) == (0, 3)
        assert central_elements(diamond) == (0, 3)

    def test_boolean_center_is_everything(self):
        b = make_boolean(2)
        assert central_elements(b) == (0, 1, 2, 3)

    def test_center_chain_is_boolean(self, universe_6):
        for _, alg in universe_6:
            centre = central_elements(alg)
            sub, _ = restrict(alg, centre)
            assert is_boolean_algebra(sub)

    def test_central_subset_principal_subset_sharp(self, universe_6):
        for _, alg in universe_6:
            centre = set(central_elements(alg))
            principal = set(principal_elements(alg))
            sharp = set(sharp_elements(alg))
            assert centre <= principal <= sharp


def brute_compatible(alg, x, y):
    """Direct search over all decompositions x = p+q, y = q+r with p+q+r defined."""
    for p in alg.elements():
        for q in alg.elements():
            if alg.sum(p, q) != x:
                continue
            for r in alg.elements():
                if alg.sum(q, r) != y:
                    continue
                pq = alg.sum(p, q)
                if pq is not None and alg.sum(pq, r) is not None:
                    return True
    return False


class TestCompatibility:
    def test_supplement_always_compatible(self, universe_6):
        for _, alg in universe_6:
            for x in alg.elements():
                assert are_compatible(alg, x, alg.orthosupplement(x))

    def test_compatibility_matches_brute_force(self, universe_6):
        for _, alg in universe_6:
            if alg.order > 6:
                continue
            for x in alg.elements():
                for y in alg.elements():
                    assert are_compatible(alg, x, y) == brute_compatible(alg, x, y)

    def test_blocks_match_subset_filter_oracle(self, universe_6):
        rng = random.Random(11)
        for _, alg in universe_6:
            for copy in (alg, permuted_copy(alg, rng)):
                assert list(blocks(copy)) == naive_blocks(*plain(copy))

    def test_internal_compatibility_matches_oracle(self, universe_6):
        for _, alg in universe_6:
            if alg.order > 6:
                continue
            entries, zero, one = plain(alg)
            rest = [x for x in alg.elements() if x != one]
            for r in range(len(rest) + 1):
                for combo in itertools.combinations(rest, r):
                    subset = frozenset(combo) | {one}
                    expected = naive_internally_compatible(entries, zero, subset)
                    assert is_internally_compatible(alg, subset) == expected

    def test_diamond_interiors_incompatible(self, diamond):
        assert not are_compatible(diamond, 1, 2)

    def test_comparable_implies_compatible(self, universe_6):
        for _, alg in universe_6:
            for x in alg.elements():
                for y in alg.elements():
                    if alg.leq(x, y):
                        assert are_compatible(alg, x, y)

    def test_internal_compatibility_not_hereditary(self, chain4):
        # {q, 1} has no refining family inside itself, but the whole chain does
        assert is_internally_compatible(chain4, {0, 1, 2, 3})
        assert not is_internally_compatible(chain4, {2, 3})


class TestBlocks:
    def test_boolean_single_block(self):
        assert blocks(make_boolean(2)) == ((0, 1, 2, 3),)

    def test_diamond_two_blocks(self, diamond):
        assert blocks(diamond) == ((0, 1, 3), (0, 2, 3))

    def test_blocks_cover_homogeneous(self, universe_6):
        for _, alg in universe_6:
            if not is_homogeneous(alg):
                continue
            covered = set()
            for b in blocks(alg):
                covered |= set(b)
                sub, _ = restrict(alg, b)
                assert has_rdp(sub)
            assert covered == set(alg.elements())

    def test_blocks_still_returned_without_homogeneity(self, enumerated_6):
        # the operation keeps its meaning on non-homogeneous input; the
        # report's flag tells callers the block theory does not apply
        alg = next(a for a in enumerated_6 if not is_homogeneous(a))
        got = blocks(alg)
        assert list(got) == naive_blocks(*plain(alg))
        assert all(alg.one in b for b in got)
        report = structure_report(alg)
        assert not report.block_theory_applies

    def test_block_center_matches_sharp_intersection(self, universe_6):
        for _, alg in universe_6:
            if not is_homogeneous(alg):
                continue
            sharp = frozenset(sharp_elements(alg))
            for b in blocks(alg):
                sub, elems = restrict(alg, b)
                centre = {elems[c] for c in central_elements(sub)}
                assert centre == sharp & frozenset(b)


class TestRdpHomogeneity:
    def test_three_chain_rdp(self):
        assert has_rdp(make_chain(2))

    def test_lattice_implies_homogeneous(self, universe_6):
        for _, alg in universe_6:
            if is_lattice(alg):
                assert is_homogeneous(alg)

    def test_smallest_non_homogeneous_is_order_six(self, enumerated_6):
        non_hom = [a for a in enumerated_6 if not is_homogeneous(a)]
        assert [a.order for a in non_hom] == [6]
        witness = homogeneity_counterexample(non_hom[0])
        assert witness is not None
        u, v1, v2 = witness
        alg = non_hom[0]
        s = alg.sum(v1, v2)
        assert s is not None
        assert alg.leq(u, s) and alg.leq(s, alg.orthosupplement(u))
        down1 = alg.down_set(v1)
        assert not any(
            alg.ominus(u, u1) is not None and alg.leq(alg.ominus(u, u1), v2)
            for u1 in down1
        )


def test_mask_classifiers_match_naive_oracles(universe_6, catalog, enumerated_8):
    """Exact answers, witnesses included, against the definitions, on the
    constructors' labellings and on seeded relabellings."""
    rng = random.Random(5)
    algs = [alg for _, alg in universe_6]
    algs += [permuted_copy(alg, rng) for alg in algs]
    algs += [permuted_copy(LARGE[name](), rng) for name in ("chain-3x3x3", "hsum-5x5", "boolean-4xchain-6")]
    # a product with a chain puts several failing v2 behind the least (u, v1)
    algs += [direct_product(alg, make_chain(1)) for _, alg in universe_6 if alg.order <= 6]
    # the Riesz scan takes one translate per (u, v1) when u and v1 have a meet
    # and every common lower bound otherwise; some order-7 classes, and their
    # horizontal sums with a chain, lack meets below a common upper bound
    order_7 = [alg for alg in enumerated_8 if alg.order == 7]
    more = [horizontal_sum([a.algebra, b.algebra]) for a, b in itertools.combinations_with_replacement(catalog, 2)]
    more += order_7 + [horizontal_sum([alg, make_chain(2)]) for alg in order_7]
    more += [permuted_copy(alg, rng) for alg in more]
    assert sum(_meet_missing_below_a_bound(alg) for alg in more) >= 8
    for alg in algs + more:
        assert rdp_counterexample(alg) == naive_riesz_counterexample(*plain(alg), False)
        assert homogeneity_counterexample(alg) == naive_riesz_counterexample(*plain(alg), True)
        assert principal_elements(alg) == naive_principal(*plain(alg))
        assert central_elements(alg) == naive_central(*plain(alg))


def _meet_missing_below_a_bound(alg) -> bool:
    """Some two elements with a common upper bound have no meet."""
    return any(
        alg.above_mask(u) & alg.above_mask(v) and alg.meet(u, v) is None
        for u in alg.elements()
        for v in alg.elements()
    )


def test_riesz_witnesses_do_not_move():
    """The RDP and homogeneity witnesses of every class to order 9, a seeded
    relabelling of each and each one's product with the 2-chain, pinned by
    digest to the output of the scan that decoded every target."""
    classes = tuple(enumerate_all(9, bound=9))
    rng = random.Random(13)
    algs = list(classes)
    algs += [permuted_copy(alg, rng) for alg in classes]
    algs += [direct_product(alg, make_chain(1)) for alg in classes]
    witnesses = repr([(rdp_counterexample(alg), homogeneity_counterexample(alg)) for alg in algs])
    assert len(algs) == 399
    assert hashlib.sha256(witnesses.encode()).hexdigest() == (
        "a4569ed6b8b986fa1283991f3a44516c4cf857734e32db981e4e1670bcd005fd"
    )


class TestSharpBounds:
    def test_sharp_elements_are_their_own_bounds(self, universe_6):
        for _, alg in universe_6:
            b = sharp_bounds(alg)
            for s in sharp_elements(alg):
                assert b.below[s] == s and b.above[s] == s

    def test_four_chain_bounds(self, chain4):
        b = sharp_bounds(chain4)
        assert b.above[1] == 3 and b.above[2] == 3
        assert b.below[1] == 0 and b.below[2] == 0

    def test_decompose(self, chain4):
        assert decompose(chain4, 2) == (0, 2)
        assert decompose(chain4, 3) == (3, 0)
        assert decompose(chain4, 0) == (0, 0)

    def test_decompose_unique_over_universe(self, universe_6):
        for _, alg in universe_6:
            if not is_sharply_dominating(alg):
                continue
            sharp = sharp_elements(alg)
            meager = meager_elements(alg)
            for x in alg.elements():
                xs, xm = decompose(alg, x)
                pairs = [
                    (s, m)
                    for s in sharp
                    for m in meager
                    if alg.sum(s, m) == x
                ]
                assert pairs == [(xs, xm)]


def brute_vartheta(alg, u):
    """Reference enumeration over explicit meager multisets via itertools."""
    import itertools

    meager = set(meager_elements(alg))
    uc = alg.orthosupplement(u)
    pool = sorted(m for m in meager if m != alg.zero and alg.leq(m, uc))
    out = {alg.zero, u}
    for size in range(1, alg.order):
        for family in itertools.combinations_with_replacement(pool, size):
            v = alg.orthogonal_sum(family)
            if v is None or v not in meager or not alg.leq(v, u):
                continue
            out.add(v)
            out.add(alg.ominus(u, v))
    return tuple(sorted(out))


class TestClosures:
    def test_vartheta_zero(self, universe_6):
        for _, alg in universe_6:
            assert vartheta(alg, alg.zero) == (alg.zero,)

    def test_vartheta_matches_brute_enumeration(self, universe_6):
        for _, alg in universe_6:
            if alg.order > 6:
                continue
            for u in alg.elements():
                assert vartheta(alg, u) == brute_vartheta(alg, u)

    def test_vartheta_sharp_is_pair(self, universe_6):
        for _, alg in universe_6:
            for s in sharp_elements(alg):
                assert set(vartheta(alg, s)) == {alg.zero, s}

    def test_sigma_closure_of_blocks(self, universe_6):
        for _, alg in universe_6:
            if not (is_homogeneous(alg) and is_sharply_dominating(alg)):
                continue
            for b in blocks(alg):
                assert theta_map(alg, b) == frozenset(b)
                assert sigma_closure(alg, b) == frozenset(b)


class TestHeyting:
    def test_boolean_block(self):
        b = make_boolean(2)
        assert heyting_block_check(b, (0, 1, 2, 3)).ok
        # in a Boolean block the pseudocomplement is the orthosupplement
        above = sharp_bounds(b).above
        for x in b.elements():
            assert b.orthosupplement(above[x]) == b.orthosupplement(x)

    def test_four_chain_block(self, chain4):
        verdict = heyting_block_check(chain4, (0, 1, 2, 3))
        assert verdict.ok

    def test_rejects_non_blocks(self, chain4):
        verdict = heyting_block_check(chain4, (0, 3))
        assert not verdict.ok and verdict.failed_clause == "hypothesis"

    def test_all_qualifying_blocks_pass(self, universe_6):
        for _, alg in universe_6:
            if not (is_homogeneous(alg) and is_sharply_dominating(alg)):
                continue
            for b in blocks(alg):
                assert heyting_block_check(alg, b).ok


class TestIntervalAndReport:
    def test_meager_intervals_are_mv(self, universe_6):
        for _, alg in universe_6:
            if not (is_homogeneous(alg) and is_sharply_dominating(alg)):
                continue
            for x in meager_elements(alg):
                if x == alg.zero:
                    continue
                sub, _ = interval_algebra(alg, x)
                assert is_lattice(sub) and has_rdp(sub)

    def test_restrict_refuses_a_subset_not_closed_under_sums(self):
        # in the 4-chain 1 + 1 = 2, which the subset leaves out
        with pytest.raises(ValueError, match=r"^subset not closed under defined sums at \(1,1\)$"):
            restrict(make_chain(3), {0, 1, 3})

    def test_interval_refuses_top_zero(self):
        E = make_chain(3)
        with pytest.raises(ValueError, match="top = zero"):
            interval_algebra(E, E.zero)

    def test_report_set_invariants(self, universe_6):
        for _, alg in universe_6:
            r = structure_report(alg)
            assert set(r.sharp) & set(r.meager) == {alg.zero}
            assert set(r.hypermeager) <= set(r.meager)
            assert set(r.center) <= set(r.sharp)
            for b in r.blocks:
                assert alg.one in b

    def test_decompose_requires_sharp_domination(self, no_sharp_cover):
        assert not is_sharply_dominating(no_sharp_cover)
        bounds = sharp_bounds(no_sharp_cover)
        assert bounds.above[6] is None and bounds.below[1] is None
        with pytest.raises(HypothesisError) as err:
            decompose(no_sharp_cover, 6)
        assert err.value.hypothesis == "sharply_dominating"

    def test_meager_algebra_is_meet_semilattice_when_qualifying(self, universe_6):
        for _, alg in universe_6:
            if not (is_homogeneous(alg) and is_sharply_dominating(alg)):
                continue
            mea, _ = meager_algebra(alg)
            for x in mea.elements():
                for y in mea.elements():
                    assert mea.meet(x, y) is not None
