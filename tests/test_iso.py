"""Isomorphism witnesses and canonical forms."""

import random

from efalg.catalog import direct_product, horizontal_sum, make_boolean, make_chain, named_catalog
from efalg.core import FiniteEffectAlgebra, PartialOpTable, UNDEFINED
from efalg.iso import canonical_form, find_isomorphism, isomorphisms
from efalg.structure import meager_algebra

from naive_oracles import naive_automorphism_count, naive_isomorphic


def permuted_copy(alg: FiniteEffectAlgebra, rng: random.Random) -> FiniteEffectAlgebra:
    n = alg.order
    perm = list(range(n))
    rng.shuffle(perm)
    rows = [[UNDEFINED] * n for _ in range(n)]
    t = alg.table.entries
    for i in range(n):
        for j in range(n):
            if t[i][j] != UNDEFINED:
                rows[perm[i]][perm[j]] = perm[t[i][j]]
    return FiniteEffectAlgebra(
        PartialOpTable.from_rows(rows), perm[alg.zero], perm[alg.one]
    )


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


def test_canonical_form_constant_for_two_chain():
    assert canonical_form(make_chain(1)) == b"efa 1\norder 2\nzero 0\none 1\nsum 0 0 0\nsum 0 1 1\n"


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


def test_boolean_64_relabelled_pair():
    # perfbench/README.md reports this pair running past 3.5 minutes under
    # a bijection backtracker that follows the first argument's labels
    rng = random.Random(9)
    b64 = make_boolean(6)
    a, b = permuted_copy(b64, rng), permuted_copy(b64, rng)
    w = find_isomorphism(a, b)
    assert w is not None and is_witness(a, b, w)
