"""Suite plumbing: anchor registry, worker handling, witness quality."""

import random

import pytest

from efalg.catalog import direct_product, enumerate_all, horizontal_sum, make_chain, named_catalog
from efalg import properties
from efalg.properties import (
    ANCHORS,
    AnchorReport,
    CheckOutcome,
    check_infasoc,
    run_checks,
    run_suite,
    worker_count,
)
from efalg.structure import homogeneity_counterexample, rdp_counterexample

from naive_oracles import naive_infasoc
from test_iso import permuted_copy, plain


def test_anchor_names_unique():
    names = [a for a, _ in ANCHORS]
    assert len(names) == len(set(names))


def test_every_check_passes_on_diamond():
    hs = horizontal_sum([make_chain(2), make_chain(2)])
    for anchor, outcome in run_checks(hs):
        assert not outcome.failures, (anchor, outcome.failures[:1])


def test_run_suite_aggregates(universe_6):
    sample = universe_6[:3]
    reports = run_suite(sample, jobs=1)
    assert [r.anchor for r in reports] == [a for a, _ in ANCHORS]
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
    universe = [(e.name, e.algebra) for e in named_catalog()]
    universe += [(f"enum-{a.order}-{i:03d}", a) for i, a in enumerate(enumerated_8)]
    reports = run_suite(universe, jobs=1)
    assert len(universe) == 88
    assert [(r.anchor, r.failures) for r in reports] == [(a, []) for a, _ in ANCHORS]


@pytest.mark.slow
def test_suite_passes_on_the_order_9_classes():
    universe = [(f"enum-9-{i:03d}", a) for i, a in enumerate(a for a in enumerate_all(9, bound=9) if a.order == 9)]
    reports = run_suite(universe, jobs=1)
    assert len(universe) == 60
    assert [(r.anchor, r.failures) for r in reports] == [(a, []) for a, _ in ANCHORS]


def test_worker_count_env(monkeypatch):
    monkeypatch.setenv("EFALG_JOBS", "4")
    assert worker_count() == 4
    monkeypatch.setenv("EFALG_JOBS", "garbage")
    assert worker_count() == 1
    monkeypatch.setenv("EFALG_JOBS", "-2")
    assert worker_count() == 1
    monkeypatch.delenv("EFALG_JOBS")
    assert worker_count() == 1


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
    every part of every split afresh."""
    rng = random.Random(11)
    algs = [alg for _, alg in universe_6]
    algs += [permuted_copy(alg, rng) for alg in algs]
    algs += [direct_product(alg, make_chain(1)) for _, alg in universe_6]
    for alg in algs:
        outcome = check_infasoc(alg)
        entries, zero, _ = plain(alg)
        assert (outcome.checked, outcome.failures) == naive_infasoc(entries, zero)
