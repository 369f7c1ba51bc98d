"""Axioms, derived order, supplements, orthogonal sums, and the memo of derived data."""

import gc
import itertools
import pickle
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from efalg.core import (
    UNDEFINED,
    AxiomViolationError,
    FiniteEffectAlgebra,
    FiniteGeneralizedEffectAlgebra,
    MalformedTableError,
    PartialOpTable,
    Verdict,
    Violation,
    verify_effect_algebra,
    verify_generalized,
)
from efalg.catalog import direct_product, enumerate_all, horizontal_sum, make_chain, named_catalog, random_algebra
from efalg.fileformat import parse, serialize
from efalg.iso import canonical_algebra
from efalg.properties import run_checks
from efalg.structure import (
    blocks,
    hypermeager_algebra,
    interval_algebra,
    is_homogeneous,
    is_sharply_dominating,
    meager_algebra,
    restrict,
    sharp_elements,
    structure_report,
)
from efalg.triple import _rebuild, extract_triple, verify_roundtrip

from naive_oracles import (
    naive_effect_verdict,
    naive_generalized_verdict,
    oracle_effect_axioms,
    oracle_generalized_axioms,
)
from test_iso import LARGE, permuted_copy


def table_of(rows):
    return PartialOpTable.from_rows(rows)


CHAIN3_ROWS = [
    [0, 1, 2],
    [1, 2, UNDEFINED],
    [2, UNDEFINED, UNDEFINED],
]


class TestVerifyEffectAlgebra:
    def test_three_chain_ok(self):
        assert verify_effect_algebra(table_of(CHAIN3_ROWS), 0, 2).ok

    def test_asymmetric_table_reports_commutativity(self):
        rows = [r[:] for r in CHAIN3_ROWS]
        rows[1][2] = 1  # record a + b only one way
        verdict = verify_effect_algebra(table_of(rows), 0, 2)
        assert not verdict.ok
        assert "Ei" in verdict.axioms
        violation = next(v for v in verdict.violations if v.axiom == "Ei")
        assert violation.witness == (1, 2)

    def test_missing_orthosupplement(self):
        rows = [
            [0, 1, 2],
            [1, UNDEFINED, UNDEFINED],
            [2, UNDEFINED, UNDEFINED],
        ]
        verdict = verify_effect_algebra(table_of(rows), 0, 2)
        assert "Eiii" in verdict.axioms

    def test_zero_equals_one_rejected(self):
        verdict = verify_effect_algebra(table_of(CHAIN3_ROWS), 0, 0)
        assert "E0" in verdict.axioms

    def test_malformed_table_is_input_error(self):
        with pytest.raises(MalformedTableError):
            PartialOpTable.from_rows([[0, 1], [1]])
        with pytest.raises(MalformedTableError):
            PartialOpTable.from_rows([[0, 5], [1, UNDEFINED]])
        with pytest.raises(MalformedTableError):
            verify_effect_algebra(table_of(CHAIN3_ROWS), 0, 7)
        with pytest.raises(MalformedTableError, match="empty table"):
            PartialOpTable.from_rows([])
        with pytest.raises(MalformedTableError, match="names must cover every element"):
            FiniteEffectAlgebra(table_of(CHAIN3_ROWS), 0, 2, ("a", "b"))

    def test_a_table_given_as_lists_is_the_table_given_as_tuples(self):
        """The dense constructor takes rows as lists too: the value, its hash
        and every verdict are those of the tuple rows."""
        table = PartialOpTable(CHAIN3_ROWS)
        assert table == PartialOpTable.from_rows(CHAIN3_ROWS)
        assert hash(table) == hash(PartialOpTable.from_rows(CHAIN3_ROWS))
        E = FiniteEffectAlgebra(table, 0, 2)
        assert E == make_chain(2) and hash(E) == hash(make_chain(2))
        assert verify_effect_algebra(table, 0, 2).ok
        assert verify_generalized(PartialOpTable([[0, 1], [1, UNDEFINED]]), 0).ok
        rows = [r[:] for r in CHAIN3_ROWS]
        rows[1][0] = 2  # 1 + 0 = 2 but 0 + 1 = 1
        verdict = verify_effect_algebra(PartialOpTable(rows), 0, 2)
        assert verdict.violations[0] == Violation("Ei", (0, 1), "asymmetric cells")
        with pytest.raises(AxiomViolationError, match=r"^Ei at \(0, 1\)"):
            FiniteEffectAlgebra(PartialOpTable(rows), 0, 2)

    @pytest.mark.parametrize(
        "sums, message",
        [
            ([], "empty table"),
            ([[(0, 0), (2, 1)], [(0, 1)]], r"cell \(0,2\) lies outside the 2 columns"),
            ([[(0, 0)], [(-1, 1)]], r"cell \(1,-1\) lies outside the 2 columns"),
            ([[(0, 0), (1, 5)], [(0, 1)]], r"cell \(0,1\) holds 5, out of range"),
            ([[(0, 0), (1, UNDEFINED)], [(0, 1)]], r"cell \(0,1\) holds -1, out of range"),
            ([[(1, 1), (0, 0)], [(0, 1)]], r"cell \(0,0\) does not follow column 1"),
            ([[(0, 0), (0, 1)], [(0, 1)]], r"cell \(0,0\) does not follow column 0"),
            ([[(0, 0), (1, 1.0)], [(0, 1)]], r"cell \(0,1\) holds 1\.0, not an int"),
            ([[(0, 0), (1, True)], [(0, 1)]], r"cell \(0,1\) holds True, not an int"),
        ],
    )
    def test_from_sums_refuses_a_malformed_table_naming_the_cell(self, sums, message):
        with pytest.raises(MalformedTableError, match=f"^{message}$"):
            PartialOpTable.from_sums(sums)

    @pytest.mark.parametrize("column, shown", [(1.0, r"1\.0"), (True, "True")])
    def test_from_sums_refuses_a_column_that_is_not_an_int(self, column, shown):
        """A float column cannot index a row, and a bool one would stand in
        row_sums as given, unlike the dense constructor's int; both are
        refused, naming the cell."""
        with pytest.raises(MalformedTableError, match=f"^cell \\(0,{shown}\\) has column {shown}, not an int$"):
            PartialOpTable.from_sums([[(0, 0), (column, 1)], [(0, 1)]])

    def test_constructor_refuses_bad_tables(self):
        rows = [r[:] for r in CHAIN3_ROWS]
        rows[1][1] = 1  # a + a = a breaks cancellation and supplements
        with pytest.raises(AxiomViolationError):
            FiniteEffectAlgebra(table_of(rows), 0, 2)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: FiniteEffectAlgebra(make_chain(3).table, 0.0, 3), r"distinguished element 0\.0 is not an int"),
            (lambda: FiniteEffectAlgebra(make_chain(3).table, 0, True), r"distinguished element True is not an int"),
            (lambda: FiniteGeneralizedEffectAlgebra(make_chain(3).table, 0.0), r"distinguished element 0\.0 is not an int"),
            (lambda: PartialOpTable([[0.0, 1.0], [1.0, -1]]), r"cell \(0,0\) holds 0\.0, not an int"),
            # a cell equal to UNDEFINED is refused too when it is no int
            (lambda: PartialOpTable([[0, 1], [1, -1.0]]), r"cell \(1,1\) holds -1\.0, not an int"),
        ],
        ids=["float-zero", "bool-one", "generalized-float-zero", "float-cell", "float-undefined"],
    )
    def test_constructor_refuses_a_non_integer_constant_or_cell(self, build, message):
        """A float, a bool or another non-int id is refused by name before
        any of it is read as an index or shifted into a mask."""
        with pytest.raises(MalformedTableError, match=f"^{message}$"):
            build()


class TestVerifyGeneralized:
    def test_truncated_chain_ok(self):
        rows = [
            [0, 1, 2],
            [1, 2, UNDEFINED],
            [2, UNDEFINED, UNDEFINED],
        ]
        assert verify_generalized(table_of(rows), 0).ok

    def test_asymmetric_table_reports_ge1(self):
        rows = [r[:] for r in CHAIN3_ROWS]
        rows[1][2] = 1
        verdict = verify_generalized(table_of(rows), 0)
        violation = next(v for v in verdict.violations if v.axiom == "GE1")
        assert (violation.witness, violation.detail) == ((1, 2), "asymmetric cells")

    def test_cancellation_to_zero_rejected(self):
        rows = [
            [0, 1],
            [1, 0],  # 1 + 1 = 0
        ]
        verdict = verify_generalized(table_of(rows), 0)
        assert "GE4" in verdict.axioms

    def test_meager_restriction_passes_on_catalog(self, catalog):
        for entry in catalog:
            meager_algebra(entry.algebra)  # constructor validates


U = UNDEFINED

# Planted violations: (rows, zero, one). Every axiom of both verifiers is hit.
# "eii-right-only" defines x + (y + z) but not (x + y) + z at its least
# witness (1, 1, 2); "ei-eii-right-only" records 1 + 2 = 2 one way only, so
# every triple whose left side is defined agrees and only the right side at
# (1, 1, 1) exposes the failure.
PLANTED = {
    "e0": ([[0, 1], [1, U]], 0, 0),
    "eii-right-only": (
        [[0, 1, 2, 3, 4], [1, U, 3, 4, U], [2, 3, 4, U, U], [3, 4, U, U, U], [4, U, U, U, U]],
        0,
        4,
    ),
    "eii-values-differ": (
        [[0, 1, 2, 3, 4], [1, 2, 3, 4, U], [2, 3, 3, U, U], [3, 4, U, U, U], [4, U, U, U, U]],
        0,
        4,
    ),
    "eiii-missing": ([[0, 1, 2], [1, U, U], [2, U, U]], 0, 2),
    "eiii-not-unique": ([[0, 1, 2, 3], [1, 3, 3, U], [2, 3, U, U], [3, U, U, U]], 0, 3),
    "eiv": ([[0, 1, 2], [1, 2, U], [2, U, 2]], 0, 2),
    "ge4": ([[0, 1], [1, 0]], 0, 1),
    "ge5": ([[0, U], [U, U]], 0, 1),
    "ei": ([[0, 1, 2], [1, 2, 1], [2, U, U]], 0, 2),
    "ei-eii": ([[0, 1, 2, 3], [1, 2, 3, U], [2, 3, U, U], [3, 2, U, U]], 0, 3),
    "ei-eii-right-only": ([[0, 1, 2], [1, 2, 2], [2, U, U]], 0, 2),
}

# describe() of each violation, pinned from the full lexicographic scan.
PLANTED_VERDICTS = {
    "e0": (
        ["E0 at (0,) (zero and one coincide)", "Eiii at (1,) (no orthosupplement)",
         "Eiv at (1,) (sum with one defined)"],
        [],
    ),
    "eii-right-only": (
        ["Eii at (1, 1, 2) (associativity fails)"],
        ["GE2 at (1, 1, 2) (associativity fails)"],
    ),
    "eii-values-differ": (
        ["Eii at (1, 1, 2) (associativity fails)", "Eiii at (2,) (no orthosupplement)"],
        ["GE2 at (1, 1, 2) (associativity fails)", "GE3 at (2, 1, 2) (cancellation fails)"],
    ),
    "eiii-missing": (["Eiii at (1,) (no orthosupplement)"], []),
    "eiii-not-unique": (
        ["Eiii at (1, 1, 2) (orthosupplement not unique)"],
        ["GE3 at (1, 1, 2) (cancellation fails)"],
    ),
    "eiv": (
        ["Eii at (1, 1, 2) (associativity fails)",
         "Eiii at (2, 0, 2) (orthosupplement not unique)", "Eiv at (2,) (sum with one defined)"],
        ["GE2 at (1, 1, 2) (associativity fails)", "GE3 at (2, 0, 2) (cancellation fails)"],
    ),
    "ge4": (
        ["Eiv at (1,) (sum with one defined)"],
        ["GE4 at (1, 1) (nonzero elements sum to zero)"],
    ),
    "ge5": (["Eiii at (0,) (no orthosupplement)"], ["GE5 at (1,) (zero not neutral)"]),
    "ei": (
        ["Ei at (1, 2) (asymmetric cells)", "Eii at (1, 1, 1) (associativity fails)"],
        ["GE1 at (1, 2) (asymmetric cells)", "GE2 at (1, 1, 1) (associativity fails)",
         "GE3 at (1, 0, 2) (cancellation fails)"],
    ),
    "ei-eii": (
        ["Ei at (1, 3) (asymmetric cells)", "Eii at (1, 2, 1) (associativity fails)",
         "Eiv at (1,) (sum with one defined)"],
        ["GE1 at (1, 3) (asymmetric cells)", "GE2 at (1, 2, 1) (associativity fails)"],
    ),
    "ei-eii-right-only": (
        ["Ei at (1, 2) (asymmetric cells)", "Eii at (1, 1, 1) (associativity fails)",
         "Eiii at (1, 1, 2) (orthosupplement not unique)"],
        ["GE1 at (1, 2) (asymmetric cells)", "GE2 at (1, 1, 1) (associativity fails)",
         "GE3 at (1, 1, 2) (cancellation fails)"],
    ),
}


@pytest.mark.parametrize("name", sorted(PLANTED))
def test_planted_verdicts_are_pinned(name):
    rows, zero, one = PLANTED[name]
    effect, generalized = PLANTED_VERDICTS[name]
    assert table_of(rows).row_sums == tuple(
        tuple((y, v) for y, v in enumerate(row) if v != UNDEFINED) for row in rows
    )
    verdict = verify_effect_algebra(table_of(rows), zero, one)
    assert [v.describe() for v in verdict.violations] == effect and verdict.ok == (not effect)
    gen = verify_generalized(table_of(rows), zero)
    assert [v.describe() for v in gen.violations] == generalized and gen.ok == (not generalized)


def _random_table(rng: random.Random):
    """Random symmetric-ish tables biased toward near-miss algebras."""
    n = rng.randint(2, 5)
    mode = rng.random()
    if mode < 0.45:
        alg = random_algebra(rng.randrange(2**30), n)
        rows = [list(r) for r in alg.table.entries]
        # corrupt up to two cells, symmetrically or not
        for _ in range(rng.randint(1, 2)):
            i, j = rng.randrange(n), rng.randrange(n)
            v = rng.choice([UNDEFINED] + list(range(n)))
            rows[i][j] = v
            if rng.random() < 0.7:
                rows[j][i] = v
        return rows, 0, n - 1
    rows = [[UNDEFINED] * n for _ in range(n)]
    if mode < 0.9:
        for x in range(n):
            rows[0][x] = rows[x][0] = x
    for i in range(1, n):
        for j in range(i, n):
            if rng.random() < 0.4:
                rows[i][j] = rows[j][i] = rng.randrange(n)
    return rows, 0, n - 1


def test_verify_agrees_with_oracle_quick():
    rng = random.Random(20240817)
    for _ in range(500):
        rows, zero, one = _random_table(rng)
        verdict = verify_effect_algebra(table_of(rows), zero, one)
        assert verdict.axioms == frozenset(oracle_effect_axioms(rows, zero, one))
        gen = verify_generalized(table_of(rows), zero)
        assert gen.axioms == frozenset(oracle_generalized_axioms(rows, zero))


def _single_cell_mutations(alg):
    """Every table that differs from alg's in one cell, written one way only
    or on both sides of the diagonal."""
    n = alg.order
    for i, j in itertools.product(range(n), repeat=2):
        for v in [UNDEFINED, *range(n)]:
            if v == alg.table.entries[i][j]:
                continue
            for both in (False, True) if i != j else (False,):
                rows = [list(r) for r in alg.table.entries]
                rows[i][j] = v
                if both:
                    rows[j][i] = v
                yield rows, alg.zero, alg.one


def _oracle_inputs(kind, universe_6):
    if kind == "universe":
        rng = random.Random(8)
        for _, alg in universe_6:
            for a in (alg, permuted_copy(alg, rng)):
                yield [list(r) for r in a.table.entries], a.zero, a.one
    elif kind == "mutations":
        for alg in enumerate_all(5):
            yield from _single_cell_mutations(alg)
    else:
        rng = random.Random(20240817)
        for _ in range(500):
            yield _random_table(rng)


@pytest.mark.parametrize("kind", ["universe", "mutations", "random"])
def test_verdicts_match_naive_oracle_exactly(kind, universe_6):
    """Axiom, least witness and detail of every violation, in order."""
    for rows, zero, one in _oracle_inputs(kind, universe_6):
        expected = tuple(Violation(*v) for v in naive_effect_verdict(rows, zero, one))
        assert verify_effect_algebra(table_of(rows), zero, one) == Verdict(not expected, expected)
        expected = tuple(Violation(*v) for v in naive_generalized_verdict(rows, zero))
        assert verify_generalized(table_of(rows), zero) == Verdict(not expected, expected)


def test_zero_neutrality_is_forced_by_the_axioms():
    # any table with a broken zero row must fail some axiom
    rng = random.Random(7)
    broken = 0
    for _ in range(200):
        rows, zero, one = _random_table(rng)
        n = len(rows)
        x = rng.randrange(1, n)
        rows[zero][x] = rows[x][zero] = rng.choice([UNDEFINED] + [v for v in range(n) if v != x])
        if not verify_effect_algebra(table_of(rows), zero, one).ok:
            broken += 1
    assert broken == 200


class TestDerivedOperations:
    def test_orthosupplement_three_chain(self):
        c = make_chain(2)
        assert c.orthosupplement(1) == 1
        assert c.orthosupplement(0) == 2
        assert c.orthosupplement(2) == 0

    def test_orthosupplement_four_chain(self):
        c = make_chain(3)
        assert c.orthosupplement(1) == 2

    def test_supplement_involutive_on_catalog(self, catalog):
        for entry in catalog:
            alg = entry.algebra
            assert alg.orthosupplement(alg.zero) == alg.one
            assert alg.orthosupplement(alg.one) == alg.zero
            for x in alg.elements():
                assert alg.sum(x, alg.orthosupplement(x)) == alg.one
                assert alg.orthosupplement(alg.orthosupplement(x)) == x

    def test_leq_and_ominus_four_chain(self):
        c = make_chain(3)
        assert c.ominus(2, 1) == 1  # q minus p is p
        assert c.ominus(1, 2) is None
        assert all(c.leq(0, x) for x in c.elements())

    def test_order_is_partial_order(self, universe_6):
        for _, alg in universe_6:
            for x in alg.elements():
                assert alg.leq(x, x)
                assert alg.leq(alg.zero, x) and alg.leq(x, alg.one)
                for y in alg.elements():
                    if alg.leq(x, y) and alg.leq(y, x):
                        assert x == y
                    for z in alg.elements():
                        if alg.leq(x, y) and alg.leq(y, z):
                            assert alg.leq(x, z)

    def test_cancellation(self, universe_6):
        for _, alg in universe_6:
            for x in alg.elements():
                seen = {}
                for y in alg.elements():
                    v = alg.sum(x, y)
                    if v is not None:
                        assert v not in seen
                        seen[v] = y


class TestOrthogonalSum:
    def test_empty_family_is_zero(self, catalog):
        for entry in catalog:
            assert entry.algebra.orthogonal_sum([]) == entry.algebra.zero

    def test_four_chain_triple_overflows(self):
        c = make_chain(3)
        assert c.orthogonal_sum([1, 1, 1]) == 3
        assert c.orthogonal_sum([1, 1, 1, 1]) is None
        assert c.orthogonal_sum([2, 2]) is None

    def test_permutation_invariance(self, universe_6):
        for _, alg in universe_6:
            elems = list(alg.elements())
            for size in (2, 3, 4):
                for family in itertools.combinations_with_replacement(elems, size):
                    results = {
                        alg.orthogonal_sum(p) for p in itertools.permutations(family)
                    }
                    assert len(results) == 1


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**20), order=st.integers(2, 5))
def test_random_algebras_satisfy_axioms(seed, order):
    alg = random_algebra(seed, order)
    assert verify_effect_algebra(alg.table, alg.zero, alg.one).ok


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**20), order=st.integers(2, 5), data=st.data())
def test_orthosum_split_property(seed, order, data):
    alg = random_algebra(seed, order)
    elems = list(alg.elements())
    family = data.draw(st.lists(st.sampled_from(elems), min_size=0, max_size=4))
    cut = data.draw(st.integers(0, len(family)))
    s1 = alg.orthogonal_sum(family[:cut])
    s2 = alg.orthogonal_sum(family[cut:])
    if s1 is not None and s2 is not None and alg.sum(s1, s2) is not None:
        assert alg.orthogonal_sum(family) == alg.sum(s1, s2)


def test_memo_is_invisible_and_freed_with_its_algebra():
    text = serialize(make_chain(4))
    alg = parse(text)
    assert structure_report(alg).sharp == (0, 4)
    assert verify_roundtrip(alg).ok

    fresh = parse(text)
    assert alg == fresh and hash(alg) == hash(fresh) and repr(alg) == repr(fresh)
    assert pickle.loads(pickle.dumps(alg)) == fresh

    # the table's row_sums, read by the walks above, stay out of ==, hash and repr too
    built, bare = alg.table, PartialOpTable(alg.table.entries)
    assert built.row_sums and "row_sums" not in repr(built)
    assert built == bare and hash(built) == hash(bare) and repr(built) == repr(bare)
    back = pickle.loads(pickle.dumps(built))
    assert back == bare and back.row_sums == bare.row_sums

    ref = weakref.ref(alg)
    del alg
    gc.collect()
    assert ref() is None


ORDER_DATA = {"_below", "_ominus", "_sup"}


def test_order_data_are_built_on_first_read():
    """A freshly parsed algebra holds no order data; a read of _below builds
    _ominus with it, and _sup is built when a supplement is first read."""
    alg = parse(serialize(make_chain(4)))
    assert not alg.__dict__.keys() & ORDER_DATA
    assert alg.leq(1, 3) and alg.__dict__.keys() & ORDER_DATA == {"_below", "_ominus"}
    assert alg.orthosupplement(1) == 3 and alg.__dict__.keys() >= ORDER_DATA
    mea, _ = meager_algebra(parse(serialize(make_chain(4))))
    assert not mea.__dict__.keys() & ORDER_DATA
    assert mea.ominus(3, 1) == 2 and mea.__dict__.keys() & ORDER_DATA == {"_below", "_ominus"}


def test_a_pickle_holds_the_value_whatever_was_read_before_it(universe_6):
    """pickle.dumps gives the same bytes before and after structure_report and
    verify_roundtrip, and the same bytes as a fresh parse of the same text."""
    for name, E in universe_6 + [(name, build()) for name, build in LARGE.items()]:
        text = serialize(E)
        alg = parse(text)
        before = pickle.dumps(alg)
        structure_report(alg)
        if is_homogeneous(alg) and is_sharply_dominating(alg):
            assert verify_roundtrip(alg).ok
        assert pickle.dumps(alg) == before == pickle.dumps(parse(text)), name


def test_catalog_algebras_are_freed_with_the_catalog():
    # named_catalog builds fresh algebras on each call and keeps none of them
    catalog = named_catalog()
    hsum, = (e.algebra for e in catalog if e.name == "hsum-3-3")
    assert structure_report(hsum).sharp == (0, 3)

    ref = weakref.ref(hsum)
    del catalog, hsum
    gc.collect()
    assert ref() is None


def _assert_order_data_matches_table(alg):
    n = alg.order
    for x in range(n):
        assert alg.table.row_sums[x] == tuple((y, alg.sum(x, y)) for y in range(n) if alg.defined(x, y))
        for y in range(n):
            diffs = [z for z in range(n) if alg.sum(x, z) == y]
            assert alg.leq(x, y) == bool(diffs)
            assert alg.ominus(y, x) == (diffs[0] if diffs else None)
            assert (alg.above_mask(x) >> y) & 1 == (alg.below_mask(y) >> x) & 1
        if isinstance(alg, FiniteEffectAlgebra):
            assert [y for y in range(n) if alg.sum(x, y) == alg.one] == [alg.orthosupplement(x)]


def test_order_data_matches_the_table(universe_6):
    for _, alg in universe_6:
        mea, _ = meager_algebra(alg)
        for a in (alg, mea):
            _assert_order_data_matches_table(a)
            _assert_order_data_matches_table(pickle.loads(pickle.dumps(a)))


def test_rank_masks_renumber_the_order_masks(universe_6):
    """_rbelow and _rabove, read off the defined sums in one pass, are the
    label down-sets _below and the up-sets read off them (x <= v exactly
    when bit x of _below[v] is set) renumbered by rank, whichever of the
    two is read first."""
    rng = random.Random(29)
    algs = [alg for _, alg in universe_6]
    algs += [permuted_copy(alg, rng) for alg in algs]
    algs += [meager_algebra(alg)[0] for alg in algs]
    algs += [build() for build in LARGE.values()]
    for i, alg in enumerate(algs):
        first, second = ("_rbelow", "_rabove")[:: 1 if i % 2 else -1]
        getattr(alg, first)
        getattr(alg, second)
        assert alg._rbelow == tuple(map(alg._rank_mask, alg._below))
        above = [sum(1 << v for v, below in enumerate(alg._below) if below >> x & 1) for x in alg.elements()]
        assert alg._rabove == tuple(map(alg._rank_mask, above))


def _assert_same_table(built, dense):
    """built equals the dense constructor's table: the same cells and sums,
    ==, hash and repr, before and after a pickle roundtrip."""
    assert built.entries == dense.entries and built.row_sums == dense.row_sums
    assert built == dense and hash(built) == hash(dense) and repr(built) == repr(dense)
    back = pickle.loads(pickle.dumps(built))
    assert back.entries == dense.entries and back.row_sums == dense.row_sums
    assert back == dense and hash(back) == hash(dense) and repr(back) == repr(dense)


def _routed_products(alg):
    """The algebras that each producer building through from_sums makes from alg."""
    E = parse(serialize(alg))
    out = [restrict(E, sharp_elements(E))[0], meager_algebra(E)[0], hypermeager_algebra(E)[0]]
    out += [interval_algebra(E, top)[0] for top in E.elements() if top != E.zero]
    out += [restrict(E, block)[0] for block in blocks(E)]
    out += [canonical_algebra(E), direct_product(E, make_chain(2)), horizontal_sum([E, make_chain(2)])]
    if is_homogeneous(E) and is_sharply_dominating(E):
        out.append(_rebuild(extract_triple(E)).algebra)
    return out


def test_from_sums_builds_the_dense_constructors_table(universe_6):
    algs = [alg for _, alg in universe_6] + [build() for build in LARGE.values()]
    for alg in algs:
        _assert_same_table(PartialOpTable.from_sums(alg.table.row_sums), PartialOpTable(alg.table.entries))
    for alg in algs:
        for product in _routed_products(alg):
            _assert_same_table(product.table, PartialOpTable(product.table.entries))


def test_the_pipeline_builds_no_table_through_the_dense_constructor(universe_6, monkeypatch):
    """Past the parser, which fills a dense table line by line and builds it
    once with the dense constructor, structure_report, verify_roundtrip and
    run_checks build every table they need from its defined sums: no call
    reaches the dense constructor's pass over every cell."""
    rng = random.Random(17)
    algs = [alg for _, alg in universe_6] + [build() for build in LARGE.values()]
    texts = [serialize(permuted_copy(alg, rng)) for alg in algs]
    calls = []
    dense = PartialOpTable.__post_init__

    def counted(self):
        calls.append(self.order)
        dense(self)

    monkeypatch.setattr(PartialOpTable, "__post_init__", counted)
    for text in texts:
        E = parse(text)
        assert calls == [E.order]
        calls.clear()
        structure_report(E)
        if is_homogeneous(E) and is_sharply_dominating(E):
            assert verify_roundtrip(E).ok
        run_checks(E)
        assert calls == []
