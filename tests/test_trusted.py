"""Algebras derived from verified ones, built without the axiom check.

The oracle rebuilds every such algebra through the public constructor, which
runs the full verifier, and requires the same value and the same order data.
"""

import ast
import dataclasses
import itertools
import pickle
import random
import re
from pathlib import Path

import pytest

import efalg.core
from efalg.catalog import direct_product, horizontal_sum, make_boolean, make_chain
from efalg.core import UNDEFINED, FiniteEffectAlgebra, FiniteGeneralizedEffectAlgebra, axiom_verdict
from efalg.fileformat import parse, serialize
from efalg.iso import canonical_algebra
from efalg.structure import (
    blocks,
    central_elements,
    hypermeager_algebra,
    interval_algebra,
    is_homogeneous,
    is_sharply_dominating,
    is_sub_effect_algebra,
    meager_algebra,
    restrict,
    restrict_downset,
    sharp_elements,
    structure_report,
)
from efalg.triple import ReconstructionError, extract_triple, verify_roundtrip

from naive_oracles import naive_sub_effect_algebra
from test_iso import LARGE, permuted_copy, plain


def checked(alg):
    """alg rebuilt by the public constructor, which runs the full verifier."""
    if isinstance(alg, FiniteEffectAlgebra):
        return FiniteEffectAlgebra(alg.table, alg.zero, alg.one)
    return FiniteGeneralizedEffectAlgebra(alg.table, alg.zero)


def assert_verified(alg, label):
    assert axiom_verdict(alg).ok, label
    fresh = checked(alg)
    assert fresh == alg and hash(fresh) == hash(alg) and repr(fresh) == repr(alg), label
    for name in ("_below", "_ominus", "_sup"):
        assert getattr(fresh, name, None) == getattr(alg, name, None), (label, name)


def derived(E):
    """Every trusted construction the library makes from E, with a label."""
    yield "canonical", canonical_algebra(E)
    yield "meager", meager_algebra(E)[0]
    yield "hypermeager", hypermeager_algebra(E)[0]
    yield "centre", restrict(E, central_elements(E))[0]
    for top in E.elements():
        if top != E.zero:
            yield f"interval {top}", interval_algebra(E, top)[0]
    for b in blocks(E):
        try:
            yield f"block {b}", restrict(E, b)[0]
        except ValueError:  # not a sub-effect algebra, refused by name
            pass
    sharp = sharp_elements(E)
    if is_sub_effect_algebra(E, sharp):
        yield "sharp", restrict(E, sharp)[0]
    if is_homogeneous(E) and is_sharply_dominating(E):
        result = verify_roundtrip(E)
        assert result.ok
        yield "rebuild", result.tea.algebra


def every_subset_restriction(E):
    """restrict and restrict_downset on every subset that they accept."""
    for k in range(1, E.order + 1):
        for subset in itertools.combinations(E.elements(), k):
            for fn in (restrict, restrict_downset):
                try:
                    yield f"{fn.__name__} {subset}", fn(E, subset)[0]
                except ValueError:
                    pass


def with_relabelling(algebras, seed):
    rng = random.Random(seed)
    for name, alg in algebras:
        yield name, alg
        yield f"{name} relabelled", permuted_copy(alg, rng)


def test_derived_algebras_of_the_universe_pass_the_full_check(universe_6):
    for name, E in with_relabelling(universe_6, 18):
        for label, alg in derived(E):
            assert_verified(alg, (name, label))
        for label, alg in every_subset_restriction(E):
            assert_verified(alg, (name, label))


def test_derived_algebras_of_the_large_algebras_pass_the_full_check():
    built = [(name, build()) for name, build in LARGE.items()]
    for name, E in with_relabelling(built, 18):
        assert_verified(E, name)  # products and horizontal sums are trusted too
        for label, alg in derived(E):
            assert_verified(alg, (name, label))


def test_products_and_horizontal_sums_pass_the_full_check(catalog):
    algebras = [e.algebra for e in catalog if e.algebra.order <= 8]
    rng = random.Random(18)
    for a, b in itertools.product(algebras, repeat=2):
        for alg in (direct_product(a, b), horizontal_sum([a, permuted_copy(b, rng)])):
            assert_verified(alg, (a, b))
    assert_verified(horizontal_sum([make_chain(1)]), "2-chain")
    assert_verified(horizontal_sum([make_chain(3), make_chain(1), make_boolean(2)]), "mixed")


def test_a_restriction_missing_a_supplement_is_still_refused():
    # {0, 1, 3} is closed under sums and holds zero and one, but 2 = 1' is missing
    with pytest.raises(ValueError, match=r"^subset does not hold the supplement of 1 \(2\)$"):
        restrict(make_boolean(2), [0, 1, 3])


def test_restrict_trusts_exactly_the_sub_effect_algebras(universe_6, monkeypatch):
    """On every subset holding one, is_sub_effect_algebra agrees with the
    two-out-of-three oracle, and restrict skips the verifier exactly there."""
    calls = []
    original = efalg.core.verify_effect_algebra
    monkeypatch.setattr(efalg.core, "verify_effect_algebra", lambda *a: calls.append(a) or original(*a))
    seen = {True: 0, False: 0}
    for name, E in with_relabelling(universe_6, 20):
        entries, _, one = plain(E)
        rest = [x for x in E.elements() if x != one]
        for r in range(len(rest) + 1):
            for combo in itertools.combinations(rest, r):
                subset = combo + (one,)
                expected = naive_sub_effect_algebra(entries, one, subset)
                assert is_sub_effect_algebra(E, subset) == expected, (name, subset)
                calls.clear()
                try:
                    restrict(E, subset)
                    trusted = calls == []
                except ValueError:  # not a sub-effect algebra, refused by name
                    trusted = False
                assert trusted == expected, (name, subset)
                seen[expected] += 1
    assert min(seen.values()) > 0


def test_only_down_sets_skip_the_check(monkeypatch):
    calls = []
    original = efalg.core.verify_generalized
    monkeypatch.setattr(efalg.core, "verify_generalized", lambda *a: calls.append(a) or original(*a))
    chain = make_chain(3)
    restrict_downset(chain, [0, 1, 2])
    assert calls == []
    with pytest.raises(ValueError, match=r"^subset is not a down-set: 1 <= 2 lies outside it$"):
        restrict_downset(chain, [0, 2])
    assert calls == []


def refusal_reason(entries, zero, one, subset, message):
    """The kind of a restriction's refusal message, or None unless the
    message is true of the table."""
    inside = set(subset)
    if m := re.fullmatch(r"subset not closed under defined sums at \((\d+),(\d+)\)", message):
        a, b = map(int, m.groups())
        holds = {a, b} <= inside and entries[a][b] != UNDEFINED and entries[a][b] not in inside
        return "sum" if holds else None
    if m := re.fullmatch(r"subset does not hold (zero|one) \((\d+)\)", message):
        c = int(m[2])
        return m[1] if c == {"zero": zero, "one": one}[m[1]] and c not in inside else None
    if m := re.fullmatch(r"subset does not hold the supplement of (\d+) \((\d+)\)", message):
        x, sup = map(int, m.groups())
        return "supplement" if x in inside and entries[x][sup] == one and sup not in inside else None
    if m := re.fullmatch(r"subset is not a down-set: (\d+) <= (\d+) lies outside it", message):
        y, x = map(int, m.groups())
        return "down-set" if x in inside and x in entries[y] and y not in inside else None
    return None


def test_no_restriction_runs_the_axiom_check(universe_6, monkeypatch):
    """restrict and restrict_downset trust every subset they accept and
    refuse every other one with a true reason, without the verifier."""
    corpus = list(with_relabelling(universe_6, 44))  # relabelling runs the verifier
    calls = []
    for fn in ("verify_effect_algebra", "verify_generalized"):
        original = getattr(efalg.core, fn)
        monkeypatch.setattr(efalg.core, fn, lambda *a, original=original: calls.append(a) or original(*a))
    reasons = {restrict: set(), restrict_downset: set()}
    for name, E in corpus:
        entries, zero, one = plain(E)
        for k in range(E.order + 1):
            for subset in itertools.combinations(E.elements(), k):
                for fn in (restrict, restrict_downset):
                    try:
                        fn(E, subset)
                    except ValueError as exc:
                        reason = refusal_reason(entries, zero, one, subset, str(exc))
                        assert reason is not None, (name, fn.__name__, subset, exc)
                        reasons[fn].add(reason)
    assert calls == []
    assert reasons == {restrict: {"sum", "zero", "one", "supplement"}, restrict_downset: {"zero", "down-set"}}


def constructor_calls(source: str) -> set[str]:
    """The enclosing function paths, such as outer/inner, of the calls
    FiniteEffectAlgebra(...) and FiniteGeneralizedEffectAlgebra(...)."""
    found = set()

    def walk(node, path):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            path = path + (node.name,)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in ("FiniteEffectAlgebra", "FiniteGeneralizedEffectAlgebra"):
                found.add("/".join(path))
        for child in ast.iter_child_nodes(node):
            walk(child, path)

    walk(ast.parse(source), ())
    return found


def test_only_outside_input_named_constructions_and_leaves_run_the_axiom_check():
    """The public constructors, which run the verifier, are called only on
    outside input, on the dense named constructions and on the enumerator's
    leaves; every derived algebra is built trusted, by proof."""
    src = Path(efalg.core.__file__).parent
    calls = {(path.stem, fn) for path in sorted(src.glob("*.py")) for fn in constructor_calls(path.read_text())}
    assert calls == {
        ("fileformat", "parse"),
        ("fileformat", "parse_generalized"),
        ("catalog", "make_chain"),
        ("catalog", "make_boolean"),
        ("catalog", "_complete_tables/dfs"),
    }


def test_trusted_instances_compare_hash_print_and_pickle_like_checked_ones():
    E = permuted_copy(direct_product(make_chain(2), make_boolean(2)), random.Random(3))
    for alg in (canonical_algebra(E), meager_algebra(E)[0], interval_algebra(E, E.one)[0]):
        fresh = checked(alg)
        assert alg == fresh and hash(alg) == hash(fresh) and repr(alg) == repr(fresh)
        back = pickle.loads(pickle.dumps(alg))
        assert back == fresh and back.__dict__.keys() == {f.name for f in dataclasses.fields(back)}
        for name in ("_below", "_ominus", "_sup"):
            assert getattr(back, name, None) == getattr(fresh, name, None), name


def test_the_rebuild_holds_no_order_data(universe_6):
    """verify_roundtrip compares the rebuild with E by its table alone, so the
    rebuilt algebra holds no _below, _ominus or _sup. Each input is parsed
    afresh, so no earlier test has read its rebuild's order data."""
    inputs = [alg for _, alg in universe_6] + [build() for build in LARGE.values()]
    tested = 0
    for E in (parse(serialize(alg)) for alg in inputs):
        if is_homogeneous(E) and is_sharply_dominating(E):
            result = verify_roundtrip(E)
            assert result.ok and not result.tea.algebra.__dict__.keys() & {"_below", "_ominus", "_sup"}, E
            tested += 1
    assert tested > len(LARGE)


@pytest.mark.parametrize("name", LARGE)
def test_analyze_and_roundtrip_verify_only_the_parsed_input(monkeypatch, name):
    text = serialize(permuted_copy(LARGE[name](), random.Random(18)))
    calls = {"verify_effect_algebra": 0, "verify_generalized": 0}
    for fn in calls:
        original = getattr(efalg.core, fn)

        def counting(*args, fn=fn, original=original):
            calls[fn] += 1
            return original(*args)

        monkeypatch.setattr(efalg.core, fn, counting)
    alg = parse(text)
    structure_report(alg)
    assert verify_roundtrip(alg).ok
    assert calls == {"verify_effect_algebra": 1, "verify_generalized": 0}


def test_a_failing_roundtrip_checks_the_rebuild_once(monkeypatch, catalog):
    # swapping the back-maps' images of two sharp elements breaks the map,
    # not the rebuild: the failure comes from the rebuild's one full check
    E = next(e.algebra for e in catalog if len(sharp_elements(e.algebra)) > 2)
    T = extract_triple(E)
    src = list(T.sharp_to_source)
    src[0], src[-1] = src[-1], src[0]
    calls = []
    original = efalg.core.verify_effect_algebra
    monkeypatch.setattr(efalg.core, "verify_effect_algebra", lambda *a: calls.append(a) or original(*a))
    result = verify_roundtrip(E, dataclasses.replace(T, sharp_to_source=tuple(src)))
    assert not result.ok and len(calls) == 1


def test_an_invalid_rebuild_is_reported_before_a_broken_back_map():
    E = make_chain(2)
    T = extract_triple(E)
    h = list(T.h)
    h[T.sharp.zero] = h[T.sharp.zero] | {1}  # the rebuild fails associativity
    corrupted = dataclasses.replace(T, h=tuple(h), sharp_to_source=T.sharp_to_source[:1])
    with pytest.raises(ReconstructionError, match="fails the axioms"):
        verify_roundtrip(E, corrupted)
    with pytest.raises(KeyError):  # a valid rebuild lets the broken back-map through
        verify_roundtrip(E, dataclasses.replace(T, sharp_to_source=T.sharp_to_source[:1]))

