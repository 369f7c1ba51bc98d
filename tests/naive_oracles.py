"""Independent brute-force reference implementations for cross-checking.

Everything here works on plain nested lists with -1 as the undefined marker
and deliberately shares no code with the package: the verdict checker walks
all triples directly, and the enumeration oracle generates every symmetric
table over the free cells and filters. Slow and dumb on purpose.
"""

from __future__ import annotations

import itertools

UNDEF = -1


def oracle_effect_axioms(entries, zero, one) -> set[str]:
    """Set of violated axiom tags, checked straight from the definitions."""
    n = len(entries)
    bad: set[str] = set()

    if zero == one:
        bad.add("E0")

    for x in range(n):
        for y in range(n):
            if entries[x][y] != entries[y][x]:
                bad.add("Ei")

    for x in range(n):
        for y in range(n):
            for z in range(n):
                xy = entries[x][y]
                left = entries[xy][z] if xy != UNDEF else UNDEF
                yz = entries[y][z]
                right = entries[x][yz] if yz != UNDEF else UNDEF
                if left != right:
                    bad.add("Eii")

    for x in range(n):
        sups = [y for y in range(n) if entries[x][y] == one]
        if len(sups) != 1:
            bad.add("Eiii")

    for x in range(n):
        if x != zero and entries[one][x] != UNDEF:
            bad.add("Eiv")

    return bad


def oracle_generalized_axioms(entries, zero) -> set[str]:
    n = len(entries)
    bad: set[str] = set()
    for x in range(n):
        for y in range(n):
            if entries[x][y] != entries[y][x]:
                bad.add("GE1")
    for x in range(n):
        for y in range(n):
            for z in range(n):
                xy = entries[x][y]
                left = entries[xy][z] if xy != UNDEF else UNDEF
                yz = entries[y][z]
                right = entries[x][yz] if yz != UNDEF else UNDEF
                if left != right:
                    bad.add("GE2")
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if (
                    y != z
                    and entries[x][y] != UNDEF
                    and entries[x][y] == entries[x][z]
                ):
                    bad.add("GE3")
    for x in range(n):
        for y in range(n):
            if entries[x][y] == zero and not (x == zero and y == zero):
                bad.add("GE4")
    for x in range(n):
        if entries[x][zero] != x:
            bad.add("GE5")
    return bad


def naive_assoc_witness(entries, axiom):
    """(axiom, (x, y, z), detail) for the least triple, scanning x, then y,
    then z upward, where exactly one of (x + y) + z and x + (y + z) is
    defined or the two differ; None when the table is associative."""
    n = len(entries)
    for x, y, z in itertools.product(range(n), repeat=3):
        xy, yz = entries[x][y], entries[y][z]
        left = entries[xy][z] if xy != UNDEF else UNDEF
        right = entries[x][yz] if yz != UNDEF else UNDEF
        if left != right:
            return (axiom, (x, y, z), "associativity fails")
    return None


def _naive_asymmetry(entries, axiom):
    n = len(entries)
    pairs = itertools.combinations(range(n), 2)
    hit = next(((x, y) for x, y in pairs if entries[x][y] != entries[y][x]), None)
    return [(axiom, hit, "asymmetric cells")] if hit else []


def naive_effect_verdict(entries, zero, one):
    """Every violation (axiom, witness, detail) in the order, and with the
    least witness, that verify_effect_algebra documents."""
    n = len(entries)
    out = [("E0", (zero,), "zero and one coincide")] if zero == one else []
    out += _naive_asymmetry(entries, "Ei")
    out += [w for w in [naive_assoc_witness(entries, "Eii")] if w]
    sups = [[y for y in range(n) if entries[x][y] == one] for x in range(n)]
    x = next((x for x in range(n) if len(sups[x]) != 1), None)
    if x is not None and not sups[x]:
        out.append(("Eiii", (x,), "no orthosupplement"))
    elif x is not None:
        out.append(("Eiii", (x, sups[x][0], sups[x][1]), "orthosupplement not unique"))
    x = next((x for x in range(n) if x != zero and entries[one][x] != UNDEF), None)
    if x is not None:
        out.append(("Eiv", (x,), "sum with one defined"))
    return out


def naive_generalized_verdict(entries, zero):
    """Every violation (axiom, witness, detail) in the order, and with the
    least witness, that verify_generalized documents."""
    n = len(entries)
    out = _naive_asymmetry(entries, "GE1")
    out += [w for w in [naive_assoc_witness(entries, "GE2")] if w]
    repeat = next(
        (
            (x, y1, y2)
            for x in range(n)
            for y2 in range(n)
            for y1 in range(y2)
            if entries[x][y2] != UNDEF and entries[x][y1] == entries[x][y2]
        ),
        None,
    )
    if repeat:
        out.append(("GE3", repeat, "cancellation fails"))
    pairs = itertools.product(range(n), repeat=2)
    hit = next(((x, y) for x, y in pairs if entries[x][y] == zero and (x, y) != (zero, zero)), None)
    if hit:
        out.append(("GE4", hit, "nonzero elements sum to zero"))
    x = next((x for x in range(n) if entries[x][zero] != x), None)
    if x is not None:
        out.append(("GE5", (x,), "zero not neutral"))
    return out


def naive_enumerate_tables(n: int):
    """Every symmetric table with zero 0, one n-1, and a forced neutral row.

    The zero row is pinned to neutrality because any table violating it
    fails the axioms (checked separately); the remaining cells range over
    every combination of undefined and every element. Yields entries lists
    that pass the axiom oracle.
    """
    free = [(i, j) for i in range(1, n) for j in range(i, n)]
    values = [UNDEF] + list(range(n))
    for combo in itertools.product(values, repeat=len(free)):
        entries = [[UNDEF] * n for _ in range(n)]
        for x in range(n):
            entries[0][x] = entries[x][0] = x
        for (i, j), v in zip(free, combo):
            entries[i][j] = entries[j][i] = v
        if not oracle_effect_axioms(entries, 0, n - 1):
            yield entries


def naive_is_lex_leader(entries, n: int) -> bool:
    """The table carries the supplement pattern P_f, and no generator of
    P_f's centralizer makes it smaller.

    f counts the interior x with x + x = one; P_f fixes 1..f and pairs
    (f+1, f+2), (f+3, f+4), and so on. The generators are the swaps of
    adjacent fixed points, the swap inside each pair and the swap of two
    adjacent pairs. Each relabels the whole table; the two tables are then
    compared as the sequences of their interior cells i <= j, column by
    column, with the undefined marker below every element.
    """
    one = n - 1
    f = sum(1 for x in range(1, one) if entries[x][x] == one)
    pattern = list(range(n))
    for a in range(f + 1, one, 2):
        pattern[a], pattern[a + 1] = a + 1, a
    if any(entries[x][pattern[x]] != one for x in range(1, one)):
        return False
    generators = [[(k, k + 1)] for k in range(1, f)]
    generators += [[(a, a + 1)] for a in range(f + 1, one, 2)]
    generators += [[(a, a + 2), (a + 1, a + 3)] for a in range(f + 1, one - 3, 2)]
    cells = [(i, j) for j in range(1, one) for i in range(1, j + 1)]
    for swaps in generators:
        perm = list(range(n))
        for a, b in swaps:
            perm[a], perm[b] = b, a
        assert all(perm[pattern[x]] == pattern[perm[x]] for x in range(n)), swaps
        relabelled = [[UNDEF] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                v = entries[i][j]
                relabelled[perm[i]][perm[j]] = UNDEF if v == UNDEF else perm[v]
        if [relabelled[i][j] for i, j in cells] < [entries[i][j] for i, j in cells]:
            return False
    return True


def naive_meet_set(entries, xs):
    """Greatest element below every member of xs, from the definition of the
    order; below everything when xs is empty. None when there is none."""
    leq = _naive_leq(entries)
    lower = [m for m in range(len(entries)) if all((m, x) in leq for x in xs)]
    return next((m for m in lower if all((l, m) in leq for l in lower)), None)


def naive_join_set(entries, xs):
    """Least element above every member of xs, or None; the mirror of naive_meet_set."""
    leq = _naive_leq(entries)
    upper = [m for m in range(len(entries)) if all((x, m) in leq for x in xs)]
    return next((m for m in upper if all((m, u) in leq for u in upper)), None)


def naive_meet(entries, x, y):
    """Greatest common lower bound computed straight from the definition."""
    return naive_meet_set(entries, (x, y))


def naive_join(entries, x, y):
    """Least common upper bound computed straight from the definition."""
    return naive_join_set(entries, (x, y))


def naive_lattice_counterexample(entries):
    """Least pair x < y, in label order, without a meet or else without a
    join, from the definition of the order; None for a lattice."""
    n = len(entries)
    for x in range(n):
        for y in range(x + 1, n):
            if naive_meet(entries, x, y) is None:
                return (x, y, "meet")
            if naive_join(entries, x, y) is None:
                return (x, y, "join")
    return None


def _naive_isomorphisms(a, b):
    """Every bijection between two (entries, zero, one) algebras preserving
    zero, one (None when there is no unit) and the partial sum."""
    ea, za, oa = a
    eb, zb, ob = b
    n = len(ea)
    if len(eb) != n or (oa is None) != (ob is None):
        return
    fixed = {za: zb} if oa is None else {za: zb, oa: ob}
    rest_a = [x for x in range(n) if x not in fixed]
    rest_b = [x for x in range(n) if x not in fixed.values()]
    for images in itertools.permutations(rest_b):
        m = dict(fixed)
        m.update(zip(rest_a, images))
        if all(
            (ea[x][y] == UNDEF and eb[m[x]][m[y]] == UNDEF)
            or (ea[x][y] != UNDEF and eb[m[x]][m[y]] == m[ea[x][y]])
            for x in range(n)
            for y in range(n)
        ):
            yield m


def naive_isomorphic(a, b) -> bool:
    """Brute force over every permutation fixing zero (and one)."""
    return next(_naive_isomorphisms(a, b), None) is not None


def naive_automorphism_count(a) -> int:
    return sum(1 for _ in _naive_isomorphisms(a, a))


def _naive_leq(entries) -> set[tuple[int, int]]:
    """Pairs (x, y) with x + z = y for some z: the order, from its definition."""
    n = len(entries)
    return {(x, entries[x][z]) for x in range(n) for z in range(n) if entries[x][z] != UNDEF}


def _naive_supplement(entries, one) -> list[int]:
    n = len(entries)
    return [next(y for y in range(n) if entries[x][y] == one) for x in range(n)]


def naive_riesz_counterexample(entries, zero, one, bounded):
    """Least (u, v1, v2), scanning u, then v1, then v2 upward, with
    u <= v1 + v2 (and v1 + v2 <= u' when bounded) and no u1 + u2 = u with
    u1 <= v1, u2 <= v2; None when every such u splits (RDP/homogeneity)."""
    n = len(entries)
    leq = _naive_leq(entries)
    sup = _naive_supplement(entries, one)
    for u in range(n):
        splits = [(u1, u2) for u1 in range(n) for u2 in range(n) if entries[u1][u2] == u]
        for v1 in range(n):
            for v2 in range(n):
                s = entries[v1][v2]
                if s == UNDEF or (u, s) not in leq:
                    continue
                if bounded and (s, sup[u]) not in leq:
                    continue
                if not any((u1, v1) in leq and (u2, v2) in leq for u1, u2 in splits):
                    return (u, v1, v2)
    return None


def naive_principal(entries, zero, one) -> tuple[int, ...]:
    """x with y + z <= x whenever y, z <= x and y + z is defined."""
    n = len(entries)
    leq = _naive_leq(entries)
    return tuple(
        x
        for x in range(n)
        if all(
            entries[y][z] == UNDEF or (entries[y][z], x) in leq
            for y in range(n)
            for z in range(n)
            if (y, x) in leq and (z, x) in leq
        )
    )


def naive_central(entries, zero, one) -> tuple[int, ...]:
    """x with x and x' principal such that every y is y1 + y2 with y1 <= x, y2 <= x'."""
    n = len(entries)
    leq = _naive_leq(entries)
    sup = _naive_supplement(entries, one)
    principal = set(naive_principal(entries, zero, one))
    return tuple(
        x
        for x in range(n)
        if x in principal
        and sup[x] in principal
        and all(
            any(
                entries[y1][y2] == y and (y1, x) in leq and (y2, sup[x]) in leq
                for y1 in range(n)
                for y2 in range(n)
            )
            for y in range(n)
        )
    )


def _naive_fold(entries, zero, family):
    """x1 + ... + xk summed left to right, or None where a sum is undefined."""
    acc = zero
    for x in family:
        acc = entries[acc][x]
        if acc == UNDEF:
            return None
    return acc


def _naive_families(entries, zero):
    """(members, sub-sums) of every multiset of nonzero elements, of size below
    the order, whose fold is defined; the sub-sums fold every sub-multiset."""
    n = len(entries)
    nonzero = [x for x in range(n) if x != zero]
    out = []
    for size in range(n):
        for family in itertools.combinations_with_replacement(nonzero, size):
            if _naive_fold(entries, zero, family) is None:
                continue
            subs = {
                _naive_fold(entries, zero, [family[i] for i in idx])
                for r in range(size + 1)
                for idx in itertools.combinations(range(size), r)
            }
            out.append((frozenset(family), frozenset(subs)))
    return out


def naive_maximal_totals(entries, zero, x, within) -> set[int]:
    """Totals of the maximal orthogonal families below x inside within.

    A family is a multiset of the nonzero y <= x with x + y defined, summed
    member by member; it counts when its total lies below x and in within,
    and it is maximal when no further such y keeps the total there.
    """
    leq = _naive_leq(entries)
    allowed = {t for t in within if (t, x) in leq}
    pool = [y for y in range(len(entries)) if y != zero and (y, x) in leq and entries[x][y] != UNDEF]
    families = []

    def grow(start, family):
        families.append(family)
        for k in range(start, len(pool)):
            if _naive_fold(entries, zero, family + (pool[k],)) is not None:
                grow(k, family + (pool[k],))

    grow(0, ())
    totals = set()
    for family in families:
        total = _naive_fold(entries, zero, family)
        if total in allowed and not any(
            _naive_fold(entries, zero, family + (y,)) in allowed for y in pool
        ):
            totals.add(total)
    return totals


def naive_orthogonal_totals(entries, zero, x, within) -> set[int]:
    """Totals of the orthogonal families below x inside within.

    Every multiset of the nonzero y <= x with x + y defined, of size below
    the order, is folded member by member; its total counts when it is
    defined, lies below x and is in within.
    """
    leq = _naive_leq(entries)
    pool = [y for y in range(len(entries)) if y != zero and (y, x) in leq and entries[x][y] != UNDEF]
    totals = set()
    for size in range(len(entries)):
        for family in itertools.combinations_with_replacement(pool, size):
            total = _naive_fold(entries, zero, family)
            if total is not None and (total, x) in leq and total in within:
                totals.add(total)
    return totals


def _naive_refined(families, subset) -> bool:
    return any(members <= subset <= subs for members, subs in families)


def naive_internally_compatible(entries, zero, subset) -> bool:
    """Some multiset of nonzero members of the subset, of size below the order,
    has a defined fold and sub-sums covering the subset."""
    return _naive_refined(_naive_families(entries, zero), frozenset(subset))


def naive_sub_effect_algebra(entries, one, subset) -> bool:
    """One is a member, and no defined x + y = z has exactly two of x, y, z
    in the subset: the two-out-of-three definition, read over every cell."""
    members = set(subset)
    if one not in members:
        return False
    n = len(entries)
    for x in range(n):
        for y in range(n):
            z = entries[x][y]
            if z != UNDEF and [x in members, y in members, z in members].count(True) == 2:
                return False
    return True


def naive_blocks(entries, zero, one) -> list[tuple[int, ...]]:
    """The maximal internally compatible subsets containing one, by filtering
    every subset of the carrier."""
    families = _naive_families(entries, zero)
    rest = [x for x in range(len(entries)) if x != one]
    good = [
        frozenset(combo) | {one}
        for r in range(len(rest) + 1)
        for combo in itertools.combinations(rest, r)
        if _naive_refined(families, frozenset(combo) | {one})
    ]
    return sorted(tuple(sorted(s)) for s in good if not any(s < t for t in good))


def naive_corcduya(entries, zero, one):
    """(checked, failures) of corcduya in a sharply dominating algebra, ticked
    in the library's order. For each x, with floor the greatest sharp element
    below x and hat the least above: each maximal total t of the meager
    families below x, in ascending order, ticks (x, t) on floor + t = x; then
    each block holding x, in naive_blocks order, ticks (x, block) on the
    intervals [floor, x] and [x, hat] lying inside it."""
    n = len(entries)
    leq = _naive_leq(entries)
    sharp = naive_sharp(entries, zero, one)
    meager = {x for x in range(n) if not any(s != zero and (s, x) in leq for s in sharp)}
    blocks = naive_blocks(entries, zero, one)
    ticks = []
    for x in range(n):
        lower = [s for s in sharp if (s, x) in leq]
        upper = [s for s in sharp if (x, s) in leq]
        floor = next(s for s in lower if all((t, s) in leq for t in lower))
        hat = next(s for s in upper if all((s, t) in leq for t in upper))
        for t in sorted(naive_maximal_totals(entries, zero, x, meager)):
            ticks.append(((x, t), entries[floor][t] == x))
        span = {y for y in range(n) if (floor, y) in leq and (y, x) in leq or (x, y) in leq and (y, hat) in leq}
        for b in blocks:
            if x in b:
                ticks.append(((x, b), span <= set(b)))
    return len(ticks), [witness for witness, ok in ticks if not ok]


def naive_pi(entries, hs, x):
    """Join of the members of hs below x, kept when it lies in hs; entries is a
    generalized effect algebra's table and hs a set of its elements."""
    n = len(entries)
    leq = _naive_leq(entries)
    part = [y for y in hs if (y, x) in leq]
    upper = [u for u in range(n) if all((y, u) in leq for y in part)]
    join = next((u for u in upper if all((u, v) in leq for v in upper)), None)
    return join if join in hs else None


def naive_sharp(entries, zero, one) -> list[int]:
    """s is sharp when zero is the only lower bound of s and its supplement."""
    n = len(entries)
    leq = _naive_leq(entries)
    sup = _naive_supplement(entries, one)
    return [
        s for s in range(n)
        if all(z == zero for z in range(n) if (z, s) in leq and (z, sup[s]) in leq)
    ]


def naive_hypermeager(entries, zero, one) -> list[int]:
    """x is hypermeager when x <= y and x <= y' for some y."""
    n = len(entries)
    leq = _naive_leq(entries)
    sup = _naive_supplement(entries, one)
    return [x for x in range(n) if any((x, y) in leq and (x, sup[y]) in leq for y in range(n))]


def _naive_minus(entries, x, y):
    """x minus y: the z with y + z = x, or None when y is not below x."""
    return next((z for z in range(len(entries)) if entries[y][z] == x), None)


def naive_r_map(entries, zero, one, x):
    """(least sharp element above x) minus x."""
    leq = _naive_leq(entries)
    covers = [s for s in naive_sharp(entries, zero, one) if (x, s) in leq]
    cover = next(c for c in covers if all((c, d) in leq for d in covers))
    return _naive_minus(entries, cover, x)


def naive_split_pieces(entries, zero, one, x, y) -> list[int]:
    """Sharp z such that the meets z ^ x and z ^ y exist and (z ^ x) + (z ^ y) = z."""
    out = []
    for z in naive_sharp(entries, zero, one):
        zx, zy = naive_meet(entries, z, x), naive_meet(entries, z, y)
        if zx is not None and zy is not None and entries[zx][zy] == z:
            out.append(z)
    return out


def naive_s_map(entries, zero, one, x, y):
    """The top sharp z with (z ^ x) + (z ^ y) = z, or None when no such z lies
    above all the others."""
    leq = _naive_leq(entries)
    pieces = naive_split_pieces(entries, zero, one, x, y)
    return next((z for z in pieces if all((c, z) in leq for c in pieces)), None)


def naive_split(entries, zero, one, x, y):
    """(s, (x - (s ^ x)) + (y - (s ^ y))) for s = naive_s_map(...): the sum is
    taken among the meager elements (no nonzero sharp element below), so it is
    None when undefined or not meager; (None, None) without a top piece."""
    s = naive_s_map(entries, zero, one, x, y)
    if s is None:
        return None, None
    v = entries[_naive_minus(entries, x, naive_meet(entries, s, x))][
        _naive_minus(entries, y, naive_meet(entries, s, y))
    ]
    leq = _naive_leq(entries)
    meager = v != UNDEF and not any(z != zero and (z, v) in leq for z in naive_sharp(entries, zero, one))
    return s, v if meager else None


def naive_widehat(sharp_entries, h, x):
    """Least sharp s, in the sharp order, whose h-set holds the meager x; None
    when those s have no least one. Read off a triple alone."""
    leq = _naive_leq(sharp_entries)
    covers = [s for s in range(len(sharp_entries)) if x in h[s]]
    return next((c for c in covers if all((c, d) in leq for d in covers)), None)


def naive_triple_pieces(pi, widehat, r, x, y) -> list[int]:
    """Sharp z with pi[z][x] and pi[z][y] defined, widehat[pi[z][x]] = z and
    r[pi[z][x]] = pi[z][y]: the split pieces of a triple's meager pair, given
    its pi table (indexed [z][x], None where undefined) and cover and gap maps."""
    return [
        z
        for z, pz in enumerate(pi)
        if pz[x] is not None and pz[y] is not None and widehat[pz[x]] == z and r[pz[x]] == pz[y]
    ]


def naive_triple_split(sharp_entries, mea_entries, pi, widehat, r, x, y):
    """(s, (x - pi_s x) + (y - pi_s y)) for the top piece s, in the sharp
    order, of naive_triple_pieces; the sum None when undefined; (None, None)
    without a top piece."""
    leq = _naive_leq(sharp_entries)
    pieces = naive_triple_pieces(pi, widehat, r, x, y)
    s = next((z for z in pieces if all((c, z) in leq for c in pieces)), None)
    if s is None:
        return None, None
    v = mea_entries[_naive_minus(mea_entries, x, pi[s][x])][_naive_minus(mea_entries, y, pi[s][y])]
    return s, None if v == UNDEF else v


def naive_rebuild(sharp_entries, sharp_zero, sharp_one, meager_zero, h, tops, sums):
    """The triple's rebuild by the dense walk over every carrier pair k2 >= k1:
    (table, carrier, zero, one). The carrier lists (s, m) for m in h(s'),
    sharp-major; the pair sums to (xs + ys + tops[xm][ym], sums[xm][ym]) when
    xs + ys and that sum are defined, sums[xm][ym] is not None and it lies in
    h of the sharp part's supplement. tops and sums are the split pieces and
    split sums of the meager pairs, given as tables indexed [x][y]."""
    sup = _naive_supplement(sharp_entries, sharp_one)
    carrier = [(s, m) for s in range(len(sharp_entries)) for m in sorted(h[sup[s]])]
    index = {pair: k for k, pair in enumerate(carrier)}
    n = len(carrier)
    rows = [[UNDEF] * n for _ in range(n)]
    for k1, (xs, xm) in enumerate(carrier):
        for k2 in range(k1, n):
            ys, ym = carrier[k2]
            t, zm = sharp_entries[xs][ys], sums[xm][ym]
            if t == UNDEF or zm is None:
                continue
            zs = sharp_entries[t][tops[xm][ym]]
            if zs != UNDEF and zm in h[sup[zs]]:
                rows[k1][k2] = rows[k2][k1] = index[(zs, zm)]
    return rows, carrier, index[(sharp_zero, meager_zero)], index[(sharp_one, meager_zero)]


def naive_modyjem(entries, one) -> dict[int, tuple[bool, bool]]:
    """{v: (ii, iii)}, walked element by element over every w <= v: (ii)
    each common lower bound of w and w' lies below v - w, and (iii) y lies
    below w and w' exactly when it lies below w and v - w."""
    n = len(entries)
    leq = _naive_leq(entries)
    sup = _naive_supplement(entries, one)
    out = {}
    for v in range(n):
        ii = iii = True
        for w in range(n):
            if (w, v) not in leq:
                continue
            z = _naive_minus(entries, v, w)
            for y in range(n):
                common = (y, w) in leq and (y, sup[w]) in leq
                ii = ii and (not common or (y, z) in leq)
                iii = iii and common == ((y, w) in leq and (y, z) in leq)
        out[v] = (ii, iii)
    return out


def naive_jpy2_unique(entries, zero, one) -> dict[int, bool]:
    """{x: unique} for each x with a greatest sharp element f below it:
    unique when every sum s + m = x, s sharp and m meager, is f + (x - f)."""
    n = len(entries)
    leq = _naive_leq(entries)
    sharp = naive_sharp(entries, zero, one)
    meager = [m for m in range(n) if not any(s != zero and (s, m) in leq for s in sharp)]
    out = {}
    for x in range(n):
        below = [s for s in sharp if (s, x) in leq]
        floor = next((f for f in below if all((s, f) in leq for s in below)), None)
        if floor is not None:
            rest = _naive_minus(entries, x, floor)
            out[x] = all((s, m) == (floor, rest) for s in sharp for m in meager if entries[s][m] == x)
    return out


def naive_infasoc(entries, zero):
    """(checked, failures) of the finite associativity law: for every multiset
    of 2 to 4 nonzero elements and every split of it into two parts whose
    folds are defined and summable, that sum equals the fold of the whole;
    each split is keyed (family, bits), bits marking the first part."""
    n = len(entries)
    nonzero = [x for x in range(n) if x != zero]
    checked, failures = 0, []
    for size in range(2, 5):
        for family in itertools.combinations_with_replacement(nonzero, size):
            whole = _naive_fold(entries, zero, family)
            for bits in range(1 << size):
                s1 = _naive_fold(entries, zero, [family[i] for i in range(size) if bits >> i & 1])
                s2 = _naive_fold(entries, zero, [family[i] for i in range(size) if not bits >> i & 1])
                if s1 is None or s2 is None or entries[s1][s2] == UNDEF:
                    continue
                checked += 1
                if entries[s1][s2] != whole:
                    failures.append((family, bits))
    return checked, failures


def naive_orthogonal_ticks(entries, zero):
    """The number of splits infasoc ticks on an effect algebra: 2^k for each
    multiset of k = 2 to 4 nonzero elements whose fold is defined, since
    every part of such a family and the complement part sum to the whole."""
    n = len(entries)
    nonzero = [x for x in range(n) if x != zero]
    return sum(
        1 << size
        for size in range(2, 5)
        for family in itertools.combinations_with_replacement(nonzero, size)
        if _naive_fold(entries, zero, family) is not None
    )


def naive_is_boolean(entries, zero, one) -> bool:
    """Every pair has a meet and a join, each x has x ^ x' = zero and
    x v x' = one, and meets distribute over joins for every triple."""
    n = len(entries)
    meet = [[naive_meet(entries, x, y) for y in range(n)] for x in range(n)]
    join = [[naive_join(entries, x, y) for y in range(n)] for x in range(n)]
    if any(v is None for row in meet + join for v in row):
        return False
    sup = _naive_supplement(entries, one)
    if any(meet[x][sup[x]] != zero or join[x][sup[x]] != one for x in range(n)):
        return False
    return all(
        meet[x][join[y][z]] == join[meet[x][y]][meet[x][z]]
        for x, y, z in itertools.product(range(n), repeat=3)
    )



def naive_refined_cores(entries, zero, one, internal: bool) -> list[tuple[int, ...]]:
    """Each subset C of the elements other than zero and one, in
    itertools.combinations order, such that C with zero and one lies in the
    sub-sums of one multiset of nonzero elements with a defined fold. With
    internal, the multiset is drawn from C with one, as in
    naive_internally_compatible; without, from the whole algebra."""
    families = _naive_families(entries, zero)
    rest = [x for x in range(len(entries)) if x not in (zero, one)]
    out = []
    for r in range(len(rest) + 1):
        for combo in itertools.combinations(rest, r):
            subset = frozenset(combo) | {zero, one}
            if any(subset <= subs and (not internal or members <= subset) for members, subs in families):
                out.append(combo)
    return out
