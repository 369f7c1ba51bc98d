"""Triple extraction, the four derived mappings, reconstruction, roundtrip."""

import dataclasses
import hashlib
import random

import pytest

from efalg import properties, triple
from efalg.catalog import direct_product, horizontal_sum, make_boolean, make_chain
from efalg.core import AxiomViolationError
from efalg.structure import (
    HypothesisError,
    is_homogeneous,
    is_sharply_dominating,
    sharp_bounds,
)
from efalg.triple import (
    ReconstructionError,
    extract_triple,
    pi_s,
    r_map,
    _split_table,
    reconstruct_tea,
    s_map,
    s_map_top_missing,
    verify_roundtrip,
    widehat_triple,
)

from naive_oracles import (
    naive_pi,
    naive_r_map,
    naive_rebuild,
    naive_split,
    naive_split_pieces,
    naive_triple_pieces,
    naive_triple_split,
    naive_widehat,
)
from test_acceptance import _mutations
from test_iso import LARGE, permuted_copy


@pytest.fixture(scope="module")
def chain3_triple():
    return extract_triple(make_chain(2))


@pytest.fixture(scope="module")
def diamond_triple():
    return extract_triple(horizontal_sum([make_chain(2), make_chain(2)]))


def qualifying(universe):
    for name, alg in universe:
        if is_homogeneous(alg) and is_sharply_dominating(alg):
            yield name, alg


class TestExtract:
    def test_boolean_collapses_meager(self):
        T = extract_triple(make_boolean(2))
        assert T.meager.order == 1
        assert T.sharp.order == 4
        assert all(T.h[s] == frozenset({0}) for s in T.sharp.elements())

    def test_three_chain(self, chain3_triple):
        T = chain3_triple
        assert T.sharp.order == 2
        assert T.meager.order == 2
        assert T.h[T.sharp.zero] == frozenset({0})
        assert T.h[T.sharp.one] == frozenset({0, 1})

    def test_diamond_meager_sum_undefined(self, diamond_triple):
        T = diamond_triple
        # the two interior points stay meager but their double is not
        assert T.meager.order == 3
        a = 1
        assert T.meager.sum(a, a) is None

    def test_h_monotone(self, universe_6):
        for _, alg in qualifying(universe_6):
            T = extract_triple(alg)
            for s in T.sharp.elements():
                for t in T.sharp.elements():
                    if T.sharp.leq(s, t):
                        assert T.h[s] <= T.h[t]

    def test_h_is_the_meager_part_below_each_sharp_element(self, universe_6):
        """On every qualifying algebra and a relabelled copy, h(s) holds the
        meager m whose source lies below the source of s, read off the sum
        table; each h(s) is a down-set of the meager algebra, h(0) is the
        meager zero alone and h(1) is the whole meager carrier."""
        rng = random.Random(25)
        algs = [alg for _, alg in qualifying(universe_6)]
        for alg in algs + [permuted_copy(alg, rng) for alg in algs]:
            T = extract_triple(alg)
            rows = alg.table.entries
            for s, s_src in enumerate(T.sharp_to_source):
                # m <= s when m + z = s for some z: s appears in m's row
                assert T.h[s] == {m for m, m_src in enumerate(T.meager_to_source) if s_src in rows[m_src]}
                assert all(T.h[s].issuperset(T.meager.down_set(m)) for m in T.h[s])
            assert T.h[T.sharp.zero] == {T.meager.zero}
            assert T.h[T.sharp.one] == set(T.meager.elements())

    @pytest.mark.parametrize("sharp", [(0, 1, 3), (0, 2, 3)])
    def test_sharp_set_refused_by_restrict_is_a_reconstruction_error(self, monkeypatch, sharp):
        # {0, 1, 3} is not closed (1 + 1 = 2); {0, 2, 3} is closed but lacks
        # the supplement of 2, so the constructor refuses it
        monkeypatch.setattr(triple, "sharp_elements", lambda E: sharp)
        with pytest.raises(ReconstructionError, match="^sharp elements fail the sub-effect-algebra closure$"):
            extract_triple(make_chain(3))

    def test_hypothesis_failure_reported(self, enumerated_6):
        non_hom = [a for a in enumerated_6 if not is_homogeneous(a)]
        assert non_hom
        with pytest.raises(HypothesisError) as err:
            extract_triple(non_hom[0])
        assert err.value.hypothesis == "homogeneous"
        assert err.value.witness is not None


class TestMappings:
    def test_widehat_of_zero(self, chain3_triple):
        assert widehat_triple(chain3_triple, 0) == chain3_triple.sharp.zero

    def test_widehat_three_chain_interior(self, chain3_triple):
        assert widehat_triple(chain3_triple, 1) == chain3_triple.sharp.one

    def test_widehat_agrees_with_bounds(self, universe_6):
        for _, alg in qualifying(universe_6):
            T = extract_triple(alg)
            above = sharp_bounds(alg).above
            for x in T.meager.elements():
                got = T.sharp_to_source[widehat_triple(T, x)]
                assert got == above[T.meager_to_source[x]]

    def test_pi_at_one_is_identity(self, universe_6):
        for _, alg in qualifying(universe_6):
            T = extract_triple(alg)
            for x in T.meager.elements():
                assert pi_s(T, T.sharp.one, x) == x
                assert pi_s(T, T.sharp.zero, x) == T.meager.zero

    def test_r_map_three_chain(self, chain3_triple):
        assert r_map(chain3_triple, 0) == 0
        assert r_map(chain3_triple, 1) == 1  # cover of a is 1, gap is a again

    def test_r_map_four_chain(self):
        T = extract_triple(make_chain(3))
        # p's cover is the top, so the gap is q
        p = T.meager_to_source.index(1)
        q = T.meager_to_source.index(2)
        assert r_map(T, p) == q

    def test_pi_and_r_agree_with_naive_oracles(self, universe_6):
        # relabellings and products with the 2-chain move elements off the
        # constructor order, where a kernel that leans on it would diverge
        rng = random.Random(4242)
        inputs = []
        for name, alg in universe_6:
            inputs += [
                (name, alg),
                (f"{name} relabelled", permuted_copy(alg, rng)),
                (f"{name} x 2-chain", direct_product(alg, make_chain(1))),
            ]
        checked = 0
        for name, alg in qualifying(inputs):
            T = extract_triple(alg)
            mea = [list(row) for row in T.meager.table.entries]
            src = [list(row) for row in alg.table.entries]
            for s in T.sharp.elements():
                for x in T.meager.elements():
                    assert pi_s(T, s, x) == naive_pi(mea, T.h[s], x), (name, s, x)
            for x in T.meager.elements():
                got = T.meager_to_source[r_map(T, x)]
                want = naive_r_map(src, alg.zero, alg.one, T.meager_to_source[x])
                assert got == want, (name, x)
            checked += 1
        assert checked > 90

    def test_split_table_agrees_with_naive_oracle(self, universe_6):
        # s_map and s_map_top_missing read _split_table, built from the
        # triple; the oracle takes the top split piece from the source order
        rng = random.Random(2718)
        inputs = []
        for name, alg in universe_6:
            inputs += [
                (name, alg),
                (f"{name} relabelled", permuted_copy(alg, rng)),
                (f"{name} x 2-chain", direct_product(alg, make_chain(1))),
            ]
        checked = 0
        for name, alg in qualifying(inputs):
            T = extract_triple(alg)
            tops, sums, _ = _split_table(T)
            src = [list(row) for row in alg.table.entries]
            to_sharp, to_mea = T.sharp_to_source, T.meager_to_source
            missing = []
            for x in T.meager.elements():
                for y in T.meager.elements():
                    args = (src, alg.zero, alg.one, to_mea[x], to_mea[y])
                    s, zm = tops[x][y], sums[x][y]
                    assert s == s_map(T, x, y)
                    got = (None if s is None else to_sharp[s], None if zm is None else to_mea[zm])
                    assert got == naive_split(*args), (name, x, y)
                    if s is None and naive_split_pieces(*args):
                        missing.append((x, y))
            assert s_map_top_missing(T) == tuple(missing), name
            checked += 1
        assert checked > 90

    def test_pi_and_split_tables_on_corrupted_triples(self, catalog):
        """_pi_table and _split_table on sampled corruptions of every catalog
        triple: each table a call returns agrees with the oracles that read
        the triple alone, and which call raises what, exception type and
        message, is pinned by a digest recorded before the kernels read the
        rank masks inline. An h-set without the meager zero leaves sets to search empty:
        pi cells with no member of h(s) below x, meager pairs without a split
        piece. An empty set has no greatest element, never the last rank's."""
        rng = random.Random(36)
        outcomes = []
        empty_pi = empty_split = 0
        for name, E in catalog:
            for label, T in _mutations(extract_triple(E), rng, per_kind=12):
                if T is None:
                    continue
                mea = [list(row) for row in T.meager.table.entries]
                sharp = [list(row) for row in T.sharp.table.entries]
                elements = T.meager.elements()
                pi = triple._pi_table(T)
                assert [list(row) for row in pi] == [[naive_pi(mea, hs, x) for x in elements] for hs in T.h]
                empty_pi += sum(not any(x in mea[m] for m in hs) for hs in T.h for x in elements)
                try:
                    tops, sums, missing = triple._split_table(T)
                except ReconstructionError as exc:
                    outcomes.append((name, label, type(exc).__name__, str(exc)))
                    continue
                widehat, r = triple._widehat_vector(T), triple._r_vector(T)
                assert list(widehat) == [naive_widehat(sharp, T.h, x) for x in elements], (name, label)
                want_missing = []
                for x in elements:
                    for y in elements:
                        args = (sharp, mea, pi, widehat, r, x, y)
                        assert (tops[x][y], sums[x][y]) == naive_triple_split(*args), (name, label, x, y)
                        pieces = naive_triple_pieces(pi, widehat, r, x, y)
                        empty_split += not pieces
                        if tops[x][y] is None and pieces:
                            want_missing.append((x, y))
                assert missing == tuple(want_missing), (name, label)
                outcomes.append((name, label, "split"))
        assert (len(outcomes), empty_pi, empty_split) == (196, 160, 236)
        assert hashlib.sha256(repr(outcomes).encode()).hexdigest() == (
            "5ad1da27324512058a8f2dc024df53490bddd5d89541d998c47600097ebab39f"
        )

    @pytest.mark.parametrize(
        "function, arguments, bad, order",
        [
            # chain(4)'s triple: a sharp carrier of order 2, a meager one of order 3
            (widehat_triple, (-1,), -1, 3),
            (widehat_triple, (3,), 3, 3),
            (pi_s, (-1, 0), -1, 2),
            (pi_s, (2, 0), 2, 2),
            (pi_s, (0, -1), -1, 3),
            (pi_s, (1, 3), 3, 3),
            (r_map, (-1,), -1, 3),
            (r_map, (3,), 3, 3),
            (s_map, (-1, 0), -1, 3),
            (s_map, (0, 3), 3, 3),
        ],
    )
    def test_point_functions_refuse_an_id_outside_the_carrier(self, function, arguments, bad, order):
        # -1 would otherwise read the last row of a table
        T = extract_triple(make_chain(3))
        with pytest.raises(ValueError, match=rf"^element {bad} out of range for order {order}$"):
            function(T, *arguments)

    def test_s_map_trivial_and_diamond(self, chain3_triple, diamond_triple):
        assert s_map(chain3_triple, 0, 0) == chain3_triple.sharp.zero
        assert s_map(chain3_triple, 1, 1) == chain3_triple.sharp.one
        a, b = 1, 2
        assert s_map(diamond_triple, a, b) == diamond_triple.sharp.zero


class TestReconstruct:
    def test_boolean_carrier_collapses(self):
        T = extract_triple(make_boolean(2))
        tea = reconstruct_tea(T)
        assert len(tea.carrier) == 4
        assert all(m == 0 for _, m in tea.carrier)

    def test_three_chain_carrier_and_sum(self, chain3_triple):
        tea = reconstruct_tea(chain3_triple)
        assert tea.carrier == ((0, 0), (0, 1), (1, 0))
        k = tea.carrier.index((0, 1))
        top = tea.carrier.index((1, 0))
        assert tea.algebra.sum(k, k) == top

    def test_roundtrip_catalog(self, catalog):
        for entry in catalog:
            result = verify_roundtrip(entry.algebra)
            assert result.ok, (entry.name, result.failure, result.witness)
            assert result.tea is not None and result.tea.phi is not None

    def test_phi_sends_constants(self, catalog):
        for entry in catalog:
            alg = entry.algebra
            result = verify_roundtrip(alg)
            tea = result.tea
            assert tea.carrier[tea.phi[alg.zero]] == (0, 0)
            sharp_one = extract_triple(alg).sharp.one
            assert tea.carrier[tea.phi[alg.one]] == (sharp_one, 0)

    @pytest.mark.slow
    def test_rebuild_matches_the_dense_walk(self, enumerated_8):
        """The rebuild, which walks only the defined sharp sums, writes the
        table, carrier and constants of the walk over every carrier pair, for
        every qualifying class to order 8 and LARGE algebra, with and without
        back-maps."""
        algs = [(f"enum-{i}", alg) for i, alg in enumerate(enumerated_8)]
        algs += [(name, build()) for name, build in LARGE.items()]
        rebuilt = 0
        for name, alg in qualifying(algs):
            T = extract_triple(alg)
            for U in (T, T.stripped()):
                tea = triple._rebuild(U)
                tops, sums, _ = _split_table(U)
                sharp = U.sharp
                rows, carrier, zero, one = naive_rebuild(
                    sharp.table.entries, sharp.zero, sharp.one, U.meager.zero, U.h, tops, sums
                )
                assert tea.algebra.table.entries == tuple(map(tuple, rows)), name
                assert (tea.carrier, tea.algebra.zero, tea.algebra.one) == (tuple(carrier), zero, one), name
                rebuilt += 1
        assert rebuilt > 2 * len(LARGE)

    def test_roundtrip_needs_backmaps(self, chain3_triple):
        with pytest.raises(ValueError, match="back-maps"):
            verify_roundtrip(make_chain(2), chain3_triple.stripped())

    def test_roundtrip_enumerated(self, universe_6):
        for name, alg in qualifying(universe_6):
            assert verify_roundtrip(alg).ok, name

    def test_rebuild_isomorphic_by_independent_search(self, universe_6):
        # confirm the rebuild with the generic backtracking search, not
        # just with the explicitly constructed map
        from efalg.iso import find_isomorphism

        for name, alg in qualifying(universe_6):
            tea = reconstruct_tea(extract_triple(alg))
            assert find_isomorphism(tea.algebra, alg) is not None, name


class TestPurityAndMutation:
    def test_reconstruction_ignores_backmaps(self, universe_6):
        for _, alg in qualifying(universe_6):
            T = extract_triple(alg)
            full = reconstruct_tea(T)
            bare = reconstruct_tea(T.stripped())
            assert full.algebra.table == bare.algebra.table
            assert full.carrier == bare.carrier

    def test_corrupted_h_detected(self, diamond_triple):
        T = diamond_triple
        # drop one meager element from h(one)
        h = list(T.h)
        h[T.sharp.one] = h[T.sharp.one] - {1}
        corrupted = dataclasses.replace(T, h=tuple(h))
        with pytest.raises(ReconstructionError):
            reconstruct_tea(corrupted)

    def test_memoized_rebuild_does_not_reach_a_corrupted_copy(self):
        T = extract_triple(horizontal_sum([make_chain(2), make_chain(2)]))
        assert reconstruct_tea(T) is reconstruct_tea(T)
        h = list(T.h)
        h[T.sharp.one] = h[T.sharp.one] - {1}
        with pytest.raises(ReconstructionError):
            reconstruct_tea(dataclasses.replace(T, h=tuple(h)))

    @pytest.mark.parametrize("at", ["zero", "one"])
    def test_h_without_the_meager_zero_is_a_reconstruction_error(self, diamond_triple, at):
        T = diamond_triple
        s = getattr(T.sharp, at)
        h = list(T.h)
        h[s] = h[s] - {T.meager.zero}
        corrupted = dataclasses.replace(T, h=tuple(h))
        with pytest.raises(ReconstructionError, match="meager zero"):
            reconstruct_tea(corrupted)

    @pytest.mark.parametrize(
        "corrupt, reason",
        [
            (lambda h: h[:1] + (h[1] | {7},), r"h\(1\) holds 7, outside the meager carrier 0\.\.1"),
            (lambda h: h[:1] + (h[1] | {-1},), r"h\(1\) holds -1, outside the meager carrier 0\.\.1"),
            (lambda h: h[:1], r"h has 1 sets for the 2 sharp elements"),
        ],
        ids=["high", "negative", "short"],
    )
    def test_h_outside_the_meager_carrier_is_a_reconstruction_error(self, chain3_triple, corrupt, reason):
        T = dataclasses.replace(chain3_triple, h=corrupt(chain3_triple.h))
        reads = (lambda: verify_roundtrip(make_chain(2), T), lambda: reconstruct_tea(T), lambda: widehat_triple(T, 0))
        for read in reads:
            with pytest.raises(ReconstructionError, match=f"^{reason}$"):
                read()

    @pytest.mark.slow
    def test_extract_of_rebuild_isomorphic(self, catalog, enumerated_9):
        """The idempotence check is an identity: on the catalog, every
        qualifying class to order 9 and a relabelling of each whose zero is
        not 0, the triple of the rebuild is the triple itself."""
        rng = random.Random(21)
        algebras = [e.algebra for e in catalog] + list(enumerated_9)
        algebras = [alg for alg in algebras if is_homogeneous(alg) and is_sharply_dominating(alg)]
        for alg in list(algebras):
            copy = permuted_copy(alg, rng)
            while copy.zero == 0:
                copy = permuted_copy(alg, rng)
            algebras.append(copy)
        assert len(algebras) == 2 * 104
        for alg in algebras:
            outcome = properties.check_triple_idem(alg)
            assert (outcome.checked, outcome.failures) == (1, [])

    def test_idempotence_fails_when_one_h_set_moves(self, catalog, monkeypatch):
        """The identity is not vacuous: a rebuild whose extracted triple
        differs from T in one h-set, h(one), fails the check."""
        real = properties.extract_triple
        tested = 0
        for name, E in qualifying(catalog):
            if real(E).meager.order == 1:
                continue  # h(one) holds only the meager zero

            def skewed(alg, E=E):
                T2 = real(alg)
                if alg is E:
                    return T2
                h = list(T2.h)
                h[T2.sharp.one] = h[T2.sharp.one] - {max(h[T2.sharp.one] - {T2.meager.zero})}
                return dataclasses.replace(T2, h=tuple(h))

            monkeypatch.setattr(properties, "extract_triple", skewed)
            outcome = properties.check_triple_idem(E)
            assert (outcome.checked, outcome.failures) == (1, [None]), name
            tested += 1
        assert tested > 0

    def test_roundtrip_failure_reports_do_not_move(self, catalog):
        """verify_roundtrip's (ok, failure, witness) on sampled single-cell
        corruptions of every catalog triple, pinned by a digest recorded
        before its isomorphism check was shared with isomorphisms. A
        corruption the constructor refuses reads "invalid", a rebuild that
        raises reads as the exception's type name. The back-map swaps reach
        the two constant checks."""
        rng = random.Random(15)
        reports = []
        for entry in catalog:
            E = entry.algebra
            for label, mutated in _mutations(extract_triple(E), rng, per_kind=24):
                if mutated is None:
                    reports.append((label, "invalid"))
                    continue
                try:
                    result = verify_roundtrip(E, mutated)
                except (ReconstructionError, AxiomViolationError) as exc:
                    reports.append((label, type(exc).__name__))
                else:
                    reports.append((label, result.ok, result.failure, result.witness))
        reached = {r[2] for r in reports if len(r) == 4}
        assert {"not bijective", "definedness mismatch", "sum value mismatch"} <= reached
        swaps = [r for r in reports if r[0][0] == "back"]
        assert {r[2] for r in swaps} == {"zero not preserved", "one not preserved"}
        # the digest was recorded before _mutations swapped back-maps
        reports = [r for r in reports if r[0][0] != "back"]
        assert hashlib.sha256(repr(reports).encode()).hexdigest() == (
            "d17155f90d866256b5ab62594d8a79a2c081cf95818cc2a590a7bf215dcaf66e"
        )
