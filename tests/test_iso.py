"""Isomorphism witnesses and canonical forms."""

import dataclasses
import hashlib
import random
from itertools import combinations, islice

import pytest

from efalg.catalog import direct_product, horizontal_sum, make_boolean, make_chain, named_catalog
from efalg.core import FiniteEffectAlgebra, FiniteGeneralizedEffectAlgebra, PartialOpTable, UNDEFINED
from efalg import iso
from efalg.fileformat import serialize
from efalg.iso import (
    _invariants,
    _search,
    canonical_algebra,
    canonical_form,
    find_isomorphism,
    isomorphisms,
    morphism_failure,
)
from efalg.structure import meager_algebra

from naive_oracles import naive_automorphism_count, naive_isomorphic


def permuted_copy(alg, rng: random.Random):
    """A randomly relabelled copy of an effect algebra or a generalized effect algebra."""
    perm = list(range(alg.order))
    rng.shuffle(perm)
    return relabelled_copy(alg, perm)


def relabelled_copy(alg, perm):
    """The copy of an effect algebra or a generalized effect algebra that labels x as perm[x]."""
    n = alg.order
    rows = [[UNDEFINED] * n for _ in range(n)]
    t = alg.table.entries
    for i in range(n):
        for j in range(n):
            if t[i][j] != UNDEFINED:
                rows[perm[i]][perm[j]] = perm[t[i][j]]
    if isinstance(alg, FiniteEffectAlgebra):
        return FiniteEffectAlgebra(PartialOpTable.from_rows(rows), perm[alg.zero], perm[alg.one])
    return FiniteGeneralizedEffectAlgebra(PartialOpTable.from_rows(rows), perm[alg.zero])


def plain(alg):
    """The (entries, zero, one) form the naive oracles take; one is None without a unit."""
    return [list(row) for row in alg.table.entries], alg.zero, getattr(alg, "one", None)


def is_witness(a, b, mapping):
    if mapping[a.zero] != b.zero or mapping[a.one] != b.one:
        return False
    for x in a.elements():
        for y in a.elements():
            va = a.sum(x, y)
            vb = b.sum(mapping[x], mapping[y])
            if (va is None) != (vb is None):
                return False
            if va is not None and mapping[va] != vb:
                return False
    return True


def test_identity_witness():
    c = make_chain(3)
    w = find_isomorphism(c, c)
    assert w is not None and is_witness(c, c, w)


def test_different_orders_not_isomorphic():
    assert find_isomorphism(make_chain(2), make_boolean(2)) is None


def test_same_order_non_isomorphic():
    assert find_isomorphism(make_chain(3), make_boolean(2)) is None


def test_permuted_recovery():
    rng = random.Random(99)
    for entry in named_catalog():
        if entry.algebra.order > 8:
            continue
        shuffled = permuted_copy(entry.algebra, rng)
        w = find_isomorphism(entry.algebra, shuffled)
        assert w is not None and is_witness(entry.algebra, shuffled, w)


def test_every_witness_verifies():
    c = make_boolean(2)
    count = 0
    for w in isomorphisms(c, c):
        assert is_witness(c, c, w)
        count += 1
    assert count >= 1  # automorphisms of the 4-element Boolean algebra
    assert count == 2  # identity and the atom swap


@pytest.mark.parametrize(
    "a, b, mapping, expected",
    [
        (make_chain(3), make_chain(3), (0, 0, 2, 3), ("not bijective", None)),
        (make_chain(2), make_chain(3), (0, 1, 2), ("not bijective", None)),
        (make_chain(3), make_chain(3), (1, 0, 2, 3), ("zero not preserved", (0,))),
        (make_chain(3), make_chain(3), (0, 1, 3, 2), ("one not preserved", (3,))),
        # a + a is undefined in the Boolean algebra, p + p = 2p in the chain
        (make_boolean(2), make_chain(3), (0, 1, 2, 3), ("definedness mismatch", (1, 1))),
        # swapping the joins {a, b} and {a, c} keeps every definedness
        (make_boolean(3), make_boolean(3), (0, 1, 2, 5, 4, 3, 6, 7), ("sum value mismatch", (1, 2))),
        (make_boolean(3), make_boolean(3), tuple(range(8)), None),
    ],
)
def test_morphism_failure_names_the_first_failure(a, b, mapping, expected):
    assert morphism_failure(a, b, mapping) == expected


def test_morphism_failure_passes_witnesses_of_relabelled_copies():
    rng = random.Random(15)
    for entry in named_catalog():
        for x in (entry.algebra, meager_algebra(entry.algebra)[0]):
            y = permuted_copy(x, rng)
            w = find_isomorphism(x, y)
            assert w is not None and morphism_failure(x, y, w) is None, entry.name
            if isinstance(x, FiniteEffectAlgebra):
                assert is_witness(x, y, w), entry.name


def full_scan_failure(a, b, mapping):
    """morphism_failure's contract read off every cell of a's table, row-major:
    the reference the check must agree with."""
    n = a.order
    if b.order != n or sorted(mapping) != list(range(n)):
        return "not bijective", None
    if mapping[a.zero] != b.zero:
        return "zero not preserved", (a.zero,)
    if getattr(a, "one", None) is not None and mapping[a.one] != b.one:
        return "one not preserved", (a.one,)
    for x in range(n):
        for y in range(n):
            v, w = a.sum(x, y), b.sum(mapping[x], mapping[y])
            if (v is None) != (w is None):
                return "definedness mismatch", (x, y)
            if v is not None and mapping[v] != w:
                return "sum value mismatch", (x, y)
    return None


def seeded_mappings(a, b, rng):
    """Maps from a to b: the isomorphism witness if any and its images with
    two non-constant values swapped, bijections that keep the constants,
    bijections that need not, and maps that repeat a value."""
    n = a.order
    fixed = {a.zero: b.zero}
    if getattr(a, "one", None) is not None:
        fixed[a.one] = b.one
    free = [x for x in range(n) if x not in fixed]
    maps = []
    w = find_isomorphism(a, b)
    if w is not None:
        maps.append(w)
    for _ in range(4):
        if w is not None and len(free) > 1:
            x, y = rng.sample(free, 2)
            swapped = list(w)
            swapped[x], swapped[y] = w[y], w[x]
            maps.append(tuple(swapped))
        images = [v for v in range(n) if v not in fixed.values()]
        rng.shuffle(images)
        kept = {**fixed, **dict(zip(free, images))}
        maps.append(tuple(kept[x] for x in range(n)))
        maps.append(tuple(rng.sample(range(n), n)))
        maps.append(tuple(rng.randrange(n) for _ in range(n)))
    return maps


def test_morphism_failure_matches_a_full_row_major_scan(universe_6):
    """Seeded maps between each catalog algebra and a relabelled copy, between
    non-isomorphic algebras of equal order, and between their meager algebras
    (generalized effect algebras): the check names the failure that the
    full scan over every cell names first, on the diagonal or right of it."""
    rng = random.Random(31)
    algs = [alg for _, alg in universe_6]
    meager = [meager_algebra(alg)[0] for alg in algs]
    pairs = []
    for _, alg in named_catalog():
        for x in (alg, meager_algebra(alg)[0]):
            pairs.append((x, permuted_copy(x, rng)))
    for group in (algs, meager):
        pairs += [(a, b) for a, b in combinations(group, 2) if a.order == b.order and find_isomorphism(a, b) is None]
    kinds = set()  # each reason, a mismatch split by whether it lies on the diagonal
    for a, b in pairs:
        for mapping in seeded_mappings(a, b, rng):
            expected = full_scan_failure(a, b, mapping)
            assert morphism_failure(a, b, mapping) == expected, (a, b, mapping)
            if expected is None or expected[1] is None or len(expected[1]) == 1:
                kinds.add(expected and expected[0])
            else:
                x, y = expected[1]
                kinds.add((expected[0], "diagonal" if x == y else "right"))
    assert kinds == {
        None,
        "not bijective",
        "zero not preserved",
        "one not preserved",
        ("definedness mismatch", "diagonal"),
        ("definedness mismatch", "right"),
        ("sum value mismatch", "diagonal"),
        ("sum value mismatch", "right"),
    }


def test_morphism_failure_decides_on_the_defined_sums():
    """On boolean-64 the check of an isomorphism reads only the defined sums:
    one mapping read per row, two per defined cell on or right of the
    diagonal (365 of them) and the two constants. Reading every cell of the
    triangle took 2,511 reads, the full square 4,891."""

    class Counted(tuple):
        reads = 0

        def __getitem__(self, i):
            Counted.reads += 1
            return tuple.__getitem__(self, i)

    b64 = make_boolean(6)
    n = b64.order
    defined = sum(1 for x in range(n) for y, _ in b64.table.row_sums[x] if x <= y)
    assert morphism_failure(b64, b64, Counted(range(n))) is None
    assert Counted.reads == n + 2 * defined + 2 == 796


def test_canonical_form_constant_for_two_chain():
    assert canonical_form(make_chain(1)) == b"efa 1\norder 2\nzero 0\none 1\nsum 0 0 0\nsum 0 1 1\n"


def test_canonical_forms_refuse_a_generalized_effect_algebra():
    mea, _ = meager_algebra(make_chain(4))
    for canonical in (canonical_algebra, canonical_form):
        with pytest.raises(ValueError, match="^canonical form needs a FiniteEffectAlgebra, got FiniteGeneralized"):
            canonical(mea)
    assert find_isomorphism(mea, mea) is not None


def test_canonical_form_permutation_invariant():
    rng = random.Random(4)
    for entry in named_catalog():
        if entry.algebra.order > 8:
            continue
        base = canonical_form(entry.algebra)
        for _ in range(25):
            assert canonical_form(permuted_copy(entry.algebra, rng)) == base


def test_canonical_form_thousand_random_permutations():
    from efalg.catalog import random_algebra

    rng = random.Random(2718)
    for trial in range(1000):
        alg = random_algebra(trial, rng.randint(2, 5))
        assert canonical_form(permuted_copy(alg, rng)) == canonical_form(alg)


def test_catalog_canonical_forms_distinct():
    forms = [canonical_form(e.algebra) for e in named_catalog()]
    assert len(set(forms)) == len(forms)


def test_canonical_equality_characterizes_isomorphism(enumerated_6):
    algs = list(enumerated_6)
    forms = [canonical_form(a) for a in algs]
    for i, a in enumerate(algs):
        for j, b in enumerate(algs):
            iso = naive_isomorphic(plain(a), plain(b))
            assert (forms[i] == forms[j]) == iso == (find_isomorphism(a, b) is not None)


def test_each_automorphism_once(universe_6):
    for name, alg in universe_6:
        for x in (alg, meager_algebra(alg)[0]):
            autos = list(isomorphisms(x, x))
            assert len(autos) == len(set(autos)) == naive_automorphism_count(plain(x)), name


def test_pairs_passing_the_invariant_filter_are_told_apart(enumerated_8):
    """Classes with equal invariant multisets pass isomorphisms' filter, so
    the labelling searches tell them apart: b's targeted search never meets
    a's key and runs to its end."""
    groups: dict = {}
    for alg in enumerated_8:
        groups.setdefault(tuple(sorted(_invariants(alg))), []).append(alg)
    shared = [group for group in groups.values() if len(group) > 1]
    assert sum(map(len, shared)) == 18 and {alg.order for group in shared for alg in group} == {8}
    rng = random.Random(8)
    for group in shared:
        for x, y in combinations(group, 2):
            a, b = permuted_copy(x, rng), permuted_copy(y, rng)
            assert find_isomorphism(a, b) is None and find_isomorphism(b, a) is None
            assert canonical_form(a) != canonical_form(b)
        for x in group:
            copy = permuted_copy(x, rng)
            w = find_isomorphism(x, copy)
            assert w is not None and is_witness(x, copy, w)


def test_early_stop_leaves_full_search_intact(universe_6):
    """find_isomorphism stops b's search early; b's later searches, and a
    repeated find_isomorphism, must be those of a fresh copy of b."""
    rng = random.Random(6)
    for name, alg in universe_6:
        for x in (alg, meager_algebra(alg)[0]):
            a, b = permuted_copy(x, rng), permuted_copy(x, rng)
            fresh = dataclasses.replace(b)
            w = find_isomorphism(a, b)
            assert w is not None and find_isomorphism(a, b) == w, name
            assert list(isomorphisms(b, b)) == list(isomorphisms(fresh, fresh)), name
            if isinstance(b, FiniteEffectAlgebra):
                assert canonical_form(b) == canonical_form(fresh), name


LARGE = {
    "boolean-32": lambda: make_boolean(5),
    "boolean-64": lambda: make_boolean(6),
    "chain-3x3x3": lambda: direct_product(direct_product(make_chain(2), make_chain(2)), make_chain(2)),
    "hsum-5x5": lambda: horizontal_sum([make_chain(4)] * 5),
    "hsum-8x3": lambda: horizontal_sum([make_chain(2)] * 8),
    "boolean-4xchain-6": lambda: direct_product(make_boolean(2), make_chain(5)),
}


def test_canonical_form_of_large_symmetric_algebras():
    forms = {}
    for name, build in LARGE.items():
        alg = build()
        got = {canonical_form(permuted_copy(alg, random.Random(seed))) for seed in range(3)}
        assert len(got) == 1, name
        forms[name] = got.pop()
    assert len(set(forms.values())) == len(forms)


def test_canonical_form_prints_the_canonical_algebra(universe_6):
    """canonical_form writes the search key itself; its bytes are the
    serialization of the canonical algebra built from the same key."""
    algs = [alg for _, alg in universe_6] + [build() for build in LARGE.values()]
    for alg in algs:
        assert canonical_form(alg) == serialize(canonical_algebra(alg)).encode()


def test_orbits_are_not_computed_for_a_cells_first_member(monkeypatch):
    """The horizontal sum of k 3-chains has the automorphism group S_k. Its
    search computes orbits at most 2k times, since a cell's first member is
    never pruned; testing every member cost 1,321 orbit computations at k = 50."""
    calls = []

    def counted(gens, n):
        calls.append(n)
        return orbit_min(gens, n)

    orbit_min = iso._orbit_min
    monkeypatch.setattr(iso, "_orbit_min", counted)
    k = 50
    canonical_form(horizontal_sum([make_chain(2)] * k))
    assert 0 < len(calls) <= 2 * k


def test_boolean_64_relabelled_pair():
    # perfbench/README.md reports this pair running past 3.5 minutes under
    # a bijection backtracker that follows the first argument's labels
    rng = random.Random(9)
    b64 = make_boolean(6)
    a, b = permuted_copy(b64, rng), permuted_copy(b64, rng)
    w = find_isomorphism(a, b)
    assert w is not None and is_witness(a, b, w)


def test_witnesses_and_canonical_bytes_do_not_move(enumerated_9):
    """Two seeded relabellings of every class to order 9, of each LARGE
    algebra and of each one's meager GEA: the find_isomorphism witness
    between them, the first 50 maps of isomorphisms, the canonical forms and
    the search results, pinned by digests recorded before the invariant
    filter, the lists of defined sums and the early stop were added."""
    rng = random.Random(14)
    bases = list(enumerated_9) + [build() for build in LARGE.values()]
    bases += [meager_algebra(alg)[0] for alg in bases]
    pairs = [(permuted_copy(alg, rng), permuted_copy(alg, rng)) for alg in bases]
    assert len(pairs) == 278 and min(alg.order for alg in bases) == 1

    def digest(values):
        return hashlib.sha256(repr(values).encode()).hexdigest()

    # fresh pairs first, so the witnesses come from the searches isomorphisms runs itself
    witnesses = [find_isomorphism(a, b) for a, b in pairs]
    maps = [list(islice(isomorphisms(a, b), 50)) for a, b in pairs]
    forms = [canonical_form(x) for pair in pairs for x in pair if isinstance(x, FiniteEffectAlgebra)]
    searches = [_search(x) for pair in pairs for x in pair]
    assert all(w is not None for w in witnesses)
    assert digest(witnesses) == (
        "5fffa4cd4949de05c74204ad1e517e041d506f3ee32ce915ed5f7ed9d8c1e729"
    )
    assert digest(maps) == (
        "d0ffa91387c3148d2c76d130855fe26289929c1a8ff9005700add3d32bf61813"
    )
    assert digest(forms) == (
        "408ad4fdb3ecc873b2a0b126e0649e62421f5aa51273a3f3e060da908ac66716"
    )
    assert digest(searches) == (
        "e446446dedb9e3ddb3ed9420046df45c611356a81d132434e1b503716eb5a42d"
    )
