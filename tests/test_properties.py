"""Suite plumbing: anchor registry, worker handling, witness quality."""

import gc
import inspect
import itertools
import multiprocessing
import os
import pickle
import random
import time
import weakref

import pytest

from efalg.catalog import direct_product, horizontal_sum, make_chain, named_catalog
import efalg.core
import efalg.triple
from efalg import properties
from efalg.core import UNDEFINED, FiniteEffectAlgebra, PartialOpTable, Verdict, Violation, _mask_elements
from efalg.properties import (
    ANCHORS,
    AnchorReport,
    CheckOutcome,
    _maximal_totals,
    _meet_distributes,
    check_center_boolean,
    check_corcduya,
    check_dusminimax,
    check_gejzasum,
    check_infasoc,
    check_jpy2,
    check_meetmodjen,
    check_modchov,
    check_modjen,
    check_modyjem,
    check_structure_sets,
    run_checks,
    run_suite,
)
from efalg.structure import (
    HypothesisError,
    _families,
    _family_refines,
    _orthogonal_totals,
    decompose,
    homogeneity_counterexample,
    is_homogeneous,
    is_sharply_dominating,
    meager_algebra,
    meager_elements,
    rdp_counterexample,
    restrict,
    sharp_elements,
)
from efalg.triple import ReconstructionError, TripleRep, r_map

from naive_oracles import (
    naive_corcduya,
    naive_infasoc,
    naive_jpy2_unique,
    naive_maximal_totals,
    naive_meet,
    naive_modyjem,
    naive_orthogonal_ticks,
    naive_orthogonal_totals,
    naive_refined_cores,
)
from test_core import PLANTED
from test_iso import permuted_copy, plain


TRIPLE_ANCHORS = {"m2", "m3", "triple_maps", "pommeag", "tripletheor", "triple_pure", "triple_idem"}


def test_anchor_names_unique():
    names = [a for a, _ in ANCHORS]
    assert len(names) == len(set(names))


# Public point methods the suite's laws may still call, each with its reason.
# The laws read the order tables instead: every call checks its ids, and a
# sweep runs the laws' inner loops tens of thousands of times.
POINT_METHODS_THE_LAWS_MAY_CALL: dict[str, str] = {}


def test_the_laws_read_the_tables_not_the_checked_point_methods(universe_6, monkeypatch):
    """run_checks calls none of the point methods that check their ids, on
    any algebra (sub-algebras and triples included). Each algebra is rebuilt
    from its table, so no memoized result from an earlier test hides a
    call."""
    calls = {}

    def counting(name, method):
        def counted(self, *args):
            calls[name] = calls.get(name, 0) + 1
            return method(self, *args)

        return counted

    # the shared methods, join included, are patched on the base class, so
    # calls on E and on Mea(E) count alike
    shared = (
        "sum", "defined", "leq", "ominus", "below_mask", "above_mask", "down_set", "orthogonal_sum",
        "meet", "join", "join_set",
    )
    targets = [(efalg.core._SumAlgebra, name) for name in shared]
    targets += [(FiniteEffectAlgebra, "orthosupplement")]
    checking = {
        (cls, name)
        for cls in (efalg.core._SumAlgebra, FiniteEffectAlgebra)
        for name, fn in vars(cls).items()
        if inspect.isfunction(fn) and "_check_element" in fn.__code__.co_names
    }
    assert checking == set(targets)
    for cls, name in targets:
        monkeypatch.setattr(cls, name, counting(f"{cls.__name__}.{name}", getattr(cls, name)))
    checked = 0
    for _, alg in universe_6:
        fresh = FiniteEffectAlgebra(PartialOpTable(alg.table.entries), alg.zero, alg.one)
        checked += sum(outcome.checked for _, outcome in run_checks(fresh))
    assert checked > 0
    assert set(calls) <= set(POINT_METHODS_THE_LAWS_MAY_CALL), calls


def test_the_triple_laws_read_the_triple_tables_not_its_point_functions(universe_6, monkeypatch):
    """run_checks reads h, the cover and r from the triple's memoized
    tables: no id passes through efalg.triple's range check. The algebras
    are rebuilt fresh, as above."""
    calls = []

    def counted(alg, x):
        calls.append(x)
        return check_element(alg, x)

    check_element = efalg.triple._check_element
    monkeypatch.setattr(efalg.triple, "_check_element", counted)
    checked = 0
    for _, alg in universe_6:
        fresh = FiniteEffectAlgebra(PartialOpTable(alg.table.entries), alg.zero, alg.one)
        checked += sum(outcome.checked for anchor, outcome in run_checks(fresh) if anchor in TRIPLE_ANCHORS)
    assert checked > 0
    assert len(calls) == 0


def test_m3_ticks_a_failed_r_vector_once_per_meager_element(enumerated_6, monkeypatch):
    """When the difference-to-cover search fails, m3 ticks the search's
    message for every meager element, in carrier order. The triples are
    built as extract_triple builds them, without its homogeneity gate, on
    the sharply dominating classes that are not homogeneous."""
    real = properties.extract_triple
    tested = 0
    for E in enumerated_6:
        if is_homogeneous(E) or not is_sharply_dominating(E):
            continue
        try:
            sharp, sharp_src = restrict(E, sharp_elements(E))
        except ValueError:
            continue
        meager, meager_src = meager_algebra(E)
        pos = {m: i for i, m in enumerate(meager_src)}
        h = tuple(frozenset(pos[m] for m in meager_src if E._below[s] >> m & 1) for s in sharp_src)
        T = TripleRep(sharp, meager, h, sharp_src, meager_src)
        try:
            r_map(T, 0)
            continue
        except ReconstructionError as exc:
            message = str(exc)
        monkeypatch.setattr(properties, "extract_triple", lambda alg, E=E, T=T: T if alg is E else real(alg))
        outcome = properties.check_m3(E)
        assert outcome.checked == meager.order
        assert outcome.failures == [(x_src, message) for x_src in meager_src]
        tested += 1
    assert tested > 0


@pytest.mark.parametrize("name", ["ge4", "ei-eii"])
def test_the_family_walk_ends_on_tables_whose_sums_cycle(name):
    """1 + 1 = 0 in ge4, and 3 + 1 = 2, 2 + 1 = 3 in ei-eii: partial sums
    cycle, and the walk still ends, as it stops a family at order - 1
    members."""
    rows, zero, one = PLANTED[name]
    E = FiniteEffectAlgebra._trusted(PartialOpTable.from_rows(rows), zero, one)
    pool = tuple(x for x in E.elements() if x != E.zero)
    assert sum(1 for _ in itertools.islice(_families(E, pool), 10_000)) < 10_000


@pytest.mark.parametrize("name", sorted(PLANTED))
def test_run_checks_ends_on_every_planted_table(name):
    """A table that breaks the axioms, built without the check, may make a
    law raise; the run must end either way."""
    rows, zero, one = PLANTED[name]
    try:
        run_checks(FiniteEffectAlgebra._trusted(PartialOpTable.from_rows(rows), zero, one))
    except Exception:
        pass


def test_every_check_passes_on_diamond():
    hs = horizontal_sum([make_chain(2), make_chain(2)])
    for anchor, outcome in run_checks(hs):
        assert not outcome.failures, (anchor, outcome.failures[:1])


def test_minimax_shares_the_dusminimax_run(catalog, monkeypatch):
    """Both rows hold one outcome object, from one run of the shared check
    per algebra; a check listed under one tag runs once too."""
    runs = []

    def counted(anchor, fn):
        def run(E):
            runs.append(anchor)
            return fn(E)

        return run

    wrapped = {}
    for anchor, fn in ANCHORS:
        wrapped.setdefault(fn, counted(anchor, fn))
    monkeypatch.setattr(properties, "ANCHORS", tuple((a, wrapped[fn]) for a, fn in ANCHORS))
    for entry in catalog:
        runs.clear()
        out = dict(run_checks(entry.algebra))
        assert out["dusminimax"] is out["minimax"], entry.name
        assert sorted(runs) == sorted(set(out) - {"minimax"}), entry.name
    assert out["dusminimax"].checked > 0


def test_run_suite_aggregates(universe_6):
    sample = universe_6[:3]
    reports = run_suite(sample, jobs=1)
    assert [r.anchor for r in reports] == [a for a, _ in ANCHORS]
    assert all(not r.failures for r in reports)


def test_run_suite_holds_only_the_algebra_it_has_just_checked():
    """One worker reads the universe as it checks it: when the next algebra
    is drawn, every earlier one is freed, memo and all, except the one the
    generator itself still names."""
    refs, alive = [], []

    def universe():
        for k in range(1, 7):
            gc.collect()
            alive.append(sum(ref() is not None for ref in refs))
            alg = make_chain(k)
            refs.append(weakref.ref(alg))
            yield f"c{k}", alg

    reports = run_suite(universe(), jobs=1)
    assert alive == [0, 1, 1, 1, 1, 1]
    assert all(not r.failures for r in reports)


def _fails_on_odd_order(E):
    out = CheckOutcome()
    out.tick(("order", E.order), E.order % 2 == 0)
    return out


def _notes_order_4(E):
    out = CheckOutcome()
    if E.order == 4:
        out.notes.append("order 4")  # a note alone does not count the algebra
    else:
        out.tick()
    return out


# Stand-in anchors that reach the suite's failure and note paths, which the
# paper's laws never take on a correct program.
FAILING_ANCHORS = (("odd", _fails_on_odd_order), ("noted", _notes_order_4))


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_suite_gathers_failures_and_notes_in_universe_order(monkeypatch, jobs):
    monkeypatch.setattr(properties, "ANCHORS", FAILING_ANCHORS)
    universe = [(f"c{k}", make_chain(k)) for k in range(1, 6)]
    assert run_suite(universe, jobs=jobs) == [
        AnchorReport("odd", 5, 5, [("c2", ("order", 3)), ("c4", ("order", 5))], []),
        AnchorReport("noted", 4, 4, [], ["c3: order 4"]),
    ]


@pytest.mark.slow
def test_suite_passes_on_the_order_8_universe(enumerated_8):
    universe = list(named_catalog())
    universe += [(f"enum-{a.order}-{i:03d}", a) for i, a in enumerate(enumerated_8)]
    reports = run_suite(universe, jobs=1)
    assert len(universe) == 88
    assert [(r.anchor, r.failures) for r in reports] == [(a, []) for a, _ in ANCHORS]


@pytest.mark.slow
def test_suite_passes_on_the_order_9_classes(enumerated_9):
    universe = [(f"enum-9-{i:03d}", a) for i, a in enumerate(a for a in enumerated_9 if a.order == 9)]
    reports = run_suite(universe, jobs=1)
    assert len(universe) == 60
    assert [(r.anchor, r.failures) for r in reports] == [(a, []) for a, _ in ANCHORS]


def test_job_count_is_capped_at_the_cpu_count(monkeypatch):
    """A huge job count asks for a pool of the CPU count. The pool is a fake that records its size and maps in
    process, so no process starts."""
    sizes = []

    class FakePool:
        def __init__(self, size):
            sizes.append(size)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return list(map(fn, items))

    class FakeContext:
        Pool = FakePool

    monkeypatch.setattr(multiprocessing, "get_context", lambda method: FakeContext)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    universe = [("chain-3", make_chain(2))]
    want = run_suite(universe, jobs=1)
    assert run_suite(universe, jobs=10**6) == want
    # an unknown CPU count means one worker, in process
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert run_suite(universe, jobs=10**6) == want
    assert sizes == [3]


def test_false_flags_carry_least_witness():
    hs = horizontal_sum([make_chain(2), make_chain(2)])
    # first failing triple in lexicographic scan order: u=1 needs a split
    # below v1=v2=2 but only 0 and 2 sit below 2
    assert rdp_counterexample(hs) == (1, 2, 2)
    assert homogeneity_counterexample(hs) is None


def test_checks_are_label_agnostic():
    # nothing may silently assume zero = 0 or one = order - 1
    rng = random.Random(31337)
    for entry in named_catalog():
        if entry.algebra.order > 5:
            continue
        shuffled = permuted_copy(entry.algebra, rng)
        for anchor, outcome in run_checks(shuffled):
            assert not outcome.failures, (entry.name, anchor, outcome.failures[:1])


def test_infasoc_matches_naive_oracle(universe_6):
    """The subset-sum table gives the same ticks and witnesses as folding
    every part of every split afresh, and it ticks all 2^k splits of each
    family of k nonzero elements whose sum is defined, and nothing else."""
    rng = random.Random(11)
    algs = [alg for _, alg in universe_6]
    algs += [permuted_copy(alg, rng) for alg in algs]
    algs += [direct_product(alg, make_chain(1)) for _, alg in universe_6]
    for alg in algs:
        outcome = check_infasoc(alg)
        entries, zero, _ = plain(alg)
        assert (outcome.checked, outcome.failures) == naive_infasoc(entries, zero)
        assert (outcome.checked, outcome.failures) == (naive_orthogonal_ticks(entries, zero), [])


def test_infasoc_skips_the_families_whose_sum_is_undefined():
    """chain(7) x chain(7) has 766,416 families of 2 to 4 nonzero elements,
    and 5,787 of them have a defined sum. Walking them all takes about 2.9 s
    of CPU time on a 2-vCPU Xeon, and skipping each family whose sum is
    undefined, with its extensions, about 0.02 s; the bound sits between
    the two, with room for a slower machine. The skip loses no tick."""
    E = direct_product(make_chain(7), make_chain(7))
    start = time.process_time()
    outcome = check_infasoc(E)
    assert time.process_time() - start < 0.5
    entries, zero, _ = plain(E)
    assert (outcome.checked, outcome.failures) == (naive_orthogonal_ticks(entries, zero), [])
    assert outcome.checked == 69_912


@pytest.fixture(scope="module")
def relabelled_6(universe_6):
    """Every algebra of universe_6 and one relabelled copy of each."""
    rng = random.Random(24)
    algs = [alg for _, alg in universe_6]
    return algs + [permuted_copy(alg, rng) for alg in algs]


def test_meet_distributes_matches_the_law_read_off_the_order(relabelled_6):
    """_meet_distributes(a, b, c, a ^ (b + c)) holds exactly when
    a ^ (b + c) = (a ^ b) + (a ^ c) with all three meets defined, each meet
    taken from the definition of the order, over every triple with b + c
    defined; the law fails on some of them."""
    outcomes = set()
    for alg in relabelled_6:
        entries, _, _ = plain(alg)
        meets = [[naive_meet(entries, a, b) for b in alg.elements()] for a in alg.elements()]
        for a in alg.elements():
            for b in alg.elements():
                for c in alg.elements():
                    s = entries[b][c]
                    if s == UNDEFINED:
                        continue
                    ab, ac, whole = meets[a][b], meets[a][c], meets[a][s]
                    law = None not in (ab, ac, whole) and entries[ab][ac] == whole
                    assert _meet_distributes(alg._meets, alg.table.entries, a, b, c, whole) == law, (a, b, c)
                    outcomes.add(law)
    assert outcomes == {True, False}


def test_maximal_totals_match_the_maximal_families_listed_one_by_one(relabelled_6):
    """For every x, with the families kept below x and inside the meager set
    or inside the down-set of any z, the totals _maximal_totals yields are
    those of the maximal orthogonal families listed member by member."""
    for alg in relabelled_6:
        entries, zero, _ = plain(alg)
        meager = set(meager_elements(alg))
        for x in alg.elements():
            for within in [meager] + [set(alg.down_set(z)) for z in alg.elements()]:
                allowed = alg.below_mask(x) & sum(1 << y for y in within)
                got = list(_maximal_totals(alg, x, allowed))
                assert got == sorted(naive_maximal_totals(entries, zero, x, within)), (x, within)


def test_orthogonal_totals_match_the_families_listed_one_by_one(relabelled_6):
    """For every x, with D the meager set or the down-set of any z, the
    orthogonal totals of x that lie in D are the totals in D of the
    orthogonal families below x, each folded member by member. Some x has
    totals besides zero, and some D keeps only part of them."""
    grown = cut = 0
    for alg in relabelled_6:
        entries, zero, _ = plain(alg)
        meager = set(meager_elements(alg))
        for x in alg.elements():
            totals = _orthogonal_totals(alg, x)
            grown += totals != 1 << zero
            for within in [meager] + [set(alg.down_set(z)) for z in alg.elements()]:
                inside = totals & sum(1 << y for y in within)
                cut += inside != totals
                got = _mask_elements(inside)
                assert got == tuple(sorted(naive_orthogonal_totals(entries, zero, x, within))), (x, within)
    assert grown and cut


def test_corcduya_ticks_the_law_read_off_the_table(catalog, enumerated_8):
    """corcduya, called without its gate on every sharply dominating algebra
    of the catalog and up to order 8, ticks as the oracle reading the table
    alone: the same count and the same failures in order. The block clause
    fails on some of the non-homogeneous ones, so both of its outcomes are
    compared."""
    block_failures = 0
    for alg in [alg for _, alg in catalog] + list(enumerated_8):
        if not is_sharply_dominating(alg):
            continue
        outcome = check_corcduya(alg)
        assert (outcome.checked, outcome.failures) == naive_corcduya(*plain(alg)), alg
        block_failures += sum(isinstance(witness, tuple) for _, witness in outcome.failures)
    assert block_failures > 0


def test_corcduya_refuses_an_algebra_that_is_not_sharply_dominating(catalog, enumerated_8):
    """Outside its hypothesis corcduya refuses by name, with the witness that
    decompose names, instead of crashing on a missing sharp bound."""
    outside = [alg for alg in [alg for _, alg in catalog] + list(enumerated_8) if not is_sharply_dominating(alg)]
    assert outside
    for alg in outside:
        with pytest.raises(HypothesisError, match="sharply_dominating") as refused:
            check_corcduya(alg)
        with pytest.raises(HypothesisError) as expected:
            decompose(alg, alg.zero)
        assert refused.value.witness == expected.value.witness


@pytest.mark.slow
def test_every_homogeneous_algebra_to_order_10_is_sharply_dominating(catalog, enumerated_10):
    """The suite gates the theorem's laws on homogeneity alone. The paper
    proves the theorem "for sharply dominating meager-orthocomplete
    homogeneous effect algebras, in particular orthocomplete homogeneous
    effect algebras"; a finite effect algebra is orthocomplete, as an
    orthogonal family of nonzero elements has fewer than `order` members, so
    every homogeneous one is sharply dominating. Checked on the catalog and
    every class to order 10, where sharp domination does fail on some
    algebras that are not homogeneous."""
    algebras = [alg for _, alg in catalog] + list(enumerated_10)
    homogeneous = [alg for alg in algebras if is_homogeneous(alg)]
    assert len(homogeneous) == 168
    assert all(is_sharply_dominating(alg) for alg in homogeneous)
    assert not all(is_sharply_dominating(alg) for alg in algebras)


def test_m3_lets_an_error_other_than_a_failed_reconstruction_through(monkeypatch):
    """Only a ReconstructionError of the r vector ticks as a law failure; any
    other error is a fault of the program and propagates."""

    def planted(T):
        raise IndexError("planted")

    monkeypatch.setattr(properties, "_r_vector", planted)
    with pytest.raises(IndexError, match="planted"):
        properties.check_m3(make_chain(3))


def test_modyjem_and_jpy2_tick_the_laws_walked_element_by_element(relabelled_6, monkeypatch):
    """modyjem's (ii) and (iii), read off the order masks, and jpy2's
    "unique", read off the sharp elements below x, tick as the laws walked
    element by element and over every sharp + meager sum; (ii) and (iii)
    each read both true and false."""
    ticked = []
    tick = CheckOutcome.tick

    def record(self, witness=None, ok=True):
        ticked.append((witness, ok))
        tick(self, witness, ok)

    monkeypatch.setattr(CheckOutcome, "tick", record)
    seen_ii, seen_iii = set(), set()
    for alg in relabelled_6:
        entries, zero, one = plain(alg)
        ticked.clear()
        check_modyjem(alg)
        got = {v: (ii, iii) for (v, _, ii, iii), _ in ticked}
        assert got == naive_modyjem(entries, one)
        seen_ii |= {ii for ii, _ in got.values()}
        seen_iii |= {iii for _, iii in got.values()}
        ticked.clear()
        check_jpy2(alg)
        got = {x: ok for (x, tag), ok in ticked if tag == "unique"}
        assert got == naive_jpy2_unique(entries, zero, one)
    assert seen_ii == seen_iii == {True, False}


@pytest.mark.parametrize(
    "name, sizes", [("eii-right-only", {3}), ("eii-values-differ", {3, 4}), ("eiv", {4})]
)
def test_infasoc_failures_match_naive_oracle_in_order(name, sizes):
    """On a commutative table that fails associativity, built without the
    axiom check, infasoc reports the oracle's failures in the oracle's order:
    size by size, and within a size in combinations_with_replacement order.
    Failures of sizes 3 and 4 meet interleaved in a depth-first walk."""
    rows, zero, one = PLANTED[name]
    outcome = check_infasoc(FiniteEffectAlgebra._trusted(PartialOpTable.from_rows(rows), zero, one))
    assert {len(family) for family, _ in outcome.failures} == sizes
    assert (outcome.checked, outcome.failures) == naive_infasoc(rows, zero)


def test_generalized_valid_runs_the_axiom_check(catalog, monkeypatch):
    """Mea(E) and the hypermeager algebra are built without the axiom check,
    so the structure_sets tick runs it: a failing verdict fails the tick."""
    failing = Verdict(False, (Violation("GE1", (0, 1), "planted"),))
    monkeypatch.setattr(efalg.core, "verify_generalized", lambda *a: failing)
    for entry in catalog:
        outcome = check_structure_sets(entry.algebra)
        assert ("generalized-valid",) in outcome.failures, entry.name


def test_gejzasum_clause_v_ticks_the_refined_subsets(universe_6, monkeypatch):
    """Clause (v) examines exactly the subsets, holding zero and one, that the
    sub-sums of one orthogonal family of nonzero elements cover. The family is
    drawn from the whole algebra, so every internally compatible subset is
    among them, and on most algebras more."""
    ticked = []
    tick = CheckOutcome.tick

    def record(self, witness=None, ok=True):
        ticked.append(witness)
        tick(self, witness, ok)

    monkeypatch.setattr(CheckOutcome, "tick", record)
    wider = 0
    for name, alg in universe_6:
        ticked.clear()
        check_gejzasum(alg)
        got = [w[1] for w in ticked if w[0] == "v" and w[1] != "union"]
        if not is_homogeneous(alg):
            assert got == [], name
            continue
        assert got == naive_refined_cores(*plain(alg), internal=False), name
        internal = naive_refined_cores(*plain(alg), internal=True)
        assert set(internal) <= set(got), name
        wider += len(internal) < len(got)
    assert wider > 0


def test_gejzasum_clause_v_agrees_with_family_refinement(catalog, enumerated_8, monkeypatch):
    """Clause (v) reads one set of refined interior submasks; per subset it
    ticks exactly what _family_refines decides over the same covers, in the
    same order, on every homogeneous algebra to order 8."""
    ticked = []
    tick = CheckOutcome.tick

    def record(self, witness=None, ok=True):
        ticked.append(witness)
        tick(self, witness, ok)

    monkeypatch.setattr(CheckOutcome, "tick", record)
    seen = 0
    for alg in [e.algebra for e in catalog] + list(enumerated_8):
        if alg.order > 8 or not is_homogeneous(alg):
            continue
        ticked.clear()
        check_gejzasum(alg)
        covers = {sums for _, sums in _families(alg, tuple(x for x in alg.elements() if x != alg.zero))}
        universe = [x for x in alg.elements() if x not in (alg.zero, alg.one)]
        want = [
            ("v", combo)
            for r in range(len(universe) + 1)
            for combo in itertools.combinations(universe, r)
            if _family_refines(alg, combo + (alg.one,), covers)
        ]
        v = [i for i, w in enumerate(ticked) if w[0] == "v" and w[1] != "union"]
        assert [ticked[i] for i in v] == want
        # contiguous, between the union tick and clause (vi)
        assert v == list(range(v[0], v[0] + len(v)))
        assert ticked[v[0] - 1] == ("v", "union") and ticked[v[-1] + 1] == ("vi",)
        seen += 1
    assert seen == 70


@pytest.mark.parametrize("centre", [(0, 1, 3), (0, 2, 3)])
def test_center_boolean_ticks_a_centre_that_is_no_sub_effect_algebra(monkeypatch, centre):
    """A centre that restrict refuses fails the closure tick instead of
    raising: {0, 1, 3} is not closed (1 + 1 = 2), and {0, 2, 3} is closed but
    lacks the supplement of 2, so the constructor refuses it."""
    monkeypatch.setattr(properties, "central_elements", lambda E: centre)
    outcome = check_center_boolean(make_chain(3))
    assert ("closure",) in outcome.failures


def test_order_questions_build_no_sub_algebra(monkeypatch, universe_6):
    """modjen, meetmodjen, dusminimax and modchov ask for meets and joins
    inside blocks, Mea(E) and intervals, which E's own order answers: they
    build no block or interval algebra and no meet table of Mea(E). Each
    algebra is a fresh copy, so no memoized restriction hides a call."""
    calls = []
    for name in ("interval_algebra", "_block_algebra"):
        real = getattr(properties, name)
        monkeypatch.setattr(
            properties, name, lambda E, *args, real=real, name=name: calls.append(name) or real(E, *args)
        )
    seen = 0
    for _, alg in universe_6:
        if not is_homogeneous(alg):
            continue
        E = pickle.loads(pickle.dumps(alg))
        for check in (check_modjen, check_meetmodjen, check_dusminimax, check_modchov):
            check(E)
        assert "_meets" not in meager_algebra(E)[0].__dict__
        seen += 1
    assert calls == [] and seen > 0


def test_gejzasum_clause_v_failures_keep_the_combinations_order(catalog, enumerated_8, monkeypatch):
    """Clause (v) ticks its refined subsets sorted by size, then members,
    which is itertools.combinations order: with the first block dropped from
    the block memo the law reads, every refined subset that only the first
    block holds fails, and the failures come in the order of a walk over
    every subset, on every homogeneous algebra to order 8 with two or more
    blocks."""
    block_masks = properties._block_masks
    monkeypatch.setattr(properties, "_block_masks", lambda E: block_masks(E)[1:])
    seen = failed = 0
    for alg in [e.algebra for e in catalog] + list(enumerated_8):
        if alg.order > 8 or not is_homogeneous(alg) or len(block_masks(alg)) < 2:
            continue
        refined = set(naive_refined_cores(*plain(alg), internal=False))
        rest = [frozenset(members) for members, _, _ in block_masks(alg)[1:]]
        universe = [x for x in alg.elements() if x not in (alg.zero, alg.one)]
        want = [
            ("v", combo)
            for r in range(len(universe) + 1)
            for combo in itertools.combinations(universe, r)
            if combo in refined and not any(b.issuperset(combo) for b in rest)
        ]
        got = [w for w in check_gejzasum(alg).failures if w[0] == "v" and w[1] != "union"]
        assert got == want
        seen += 1
        failed += len(want)
    assert (seen, failed) == (49, 278)
