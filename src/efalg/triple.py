"""Triple extraction and reconstruction for finite effect algebras.

A homogeneous, sharply dominating finite effect algebra is determined up to
isomorphism by three pieces of data: its sharp elements as an effect
algebra, its meager elements as a generalized effect algebra, and the map
sending each sharp element to the meager elements below it. This module
extracts that triple, rebuilds an algebra from the triple alone, and checks
that the rebuild is isomorphic to the source.

Reconstruction is deliberately quarantined from the source algebra: the
triple's carriers are re-indexed fresh and the element back-maps live in
fields that the rebuild never reads, so the rebuild cannot cheat by peeking
at the original sum table. The back-maps exist only for verification.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .core import (
    UNDEFINED,
    FiniteEffectAlgebra,
    FiniteGeneralizedEffectAlgebra,
    PartialOpTable,
    _Memoizing,
    _check_element,
    _mask_elements,
    axiom_verdict,
    memoized,
)
from .iso import morphism_failure
from .structure import (
    HypothesisError,
    homogeneity_counterexample,
    meager_algebra,
    restrict,
    sharp_bounds,
    sharp_elements,
)

__all__ = [
    "TripleRep",
    "TeaAlgebra",
    "ReconstructionError",
    "extract_triple",
    "widehat_triple",
    "pi_s",
    "r_map",
    "s_map",
    "s_map_top_missing",
    "reconstruct_tea",
    "RoundtripResult",
    "verify_roundtrip",
]


class ReconstructionError(RuntimeError):
    """A step that the theory guarantees failed; indicates an implementation bug
    or corrupted triple data."""


@dataclass(frozen=True)
class TripleRep(_Memoizing):
    """The triple with freshly indexed carriers.

    h maps each sharp index to the set of meager indices below it. The two
    back-map fields translate fresh indices to source element ids; they are
    verification-only and may be stripped without affecting reconstruction.
    """

    sharp: FiniteEffectAlgebra
    meager: FiniteGeneralizedEffectAlgebra
    h: tuple[frozenset[int], ...]
    sharp_to_source: tuple[int, ...] | None = None
    meager_to_source: tuple[int, ...] | None = None

    def stripped(self) -> "TripleRep":
        return replace(self, sharp_to_source=None, meager_to_source=None)


@dataclass(frozen=True)
class TeaAlgebra:
    """Rebuilt algebra over pairs (sharp part, meager part)."""

    algebra: FiniteEffectAlgebra
    carrier: tuple[tuple[int, int], ...]
    phi: tuple[int, ...] | None = None


@memoized
def extract_triple(E: FiniteEffectAlgebra) -> TripleRep:
    """Split E into (sharp algebra, meager algebra, h) with fresh indices.

    Requires E homogeneous, and refuses any other E with the homogeneity
    witness. The theorem also asks for sharp domination, which needs no
    test: the finite table makes E orthocomplete, hence sharply dominating
    when homogeneous (the paper's corollary).

    Sh(E) of a homogeneous E is a sub-effect algebra, so restrict accepts
    it and the ReconstructionError below is a fault detector. Take s, t
    sharp with s + t = u, and w <= u, u'. Then u <= w', so w <= s + t <= w',
    and homogeneity splits w = w1 + w2 with w1 <= s and w2 <= t. Since
    s <= u, w1 <= w <= u' <= s', so w1 = 0 as s is sharp; likewise w2 = 0.
    So u is sharp. Zero and one are sharp, and x is sharp exactly when x'
    is, so _sub_effect_failure finds nothing.

    h(s) = {m in Mea(E) : m <= s} needs no check once built. Mea(E) is a
    down-set of E, so its order is E's restricted: h(s) is a down-set of
    Mea(E), h(0) = {0} and h(1) is all of Mea(E). Sh(E)'s order lies inside
    E's and <= is transitive, so s <= t gives h(s) within h(t). A triple
    supplied from outside is checked where its h is first read, in _h_masks,
    and where it is rebuilt.
    """
    witness = homogeneity_counterexample(E)
    if witness is not None:
        raise HypothesisError("homogeneous", witness)

    try:
        sharp, sharp_src = restrict(E, sharp_elements(E))
    except ValueError:  # restrict refuses exactly the subsets that are not sub-effect algebras
        raise ReconstructionError("sharp elements fail the sub-effect-algebra closure") from None
    meager, meager_src = meager_algebra(E)

    below = E._below
    pos = {src_m: m for m, src_m in enumerate(meager_src)}
    meager_mask = sum(1 << src_m for src_m in meager_src)
    h = tuple(frozenset(map(pos.get, _mask_elements(below[src_s] & meager_mask))) for src_s in sharp_src)
    return TripleRep(sharp, meager, h, sharp_src, meager_src)


@memoized
def _h_masks(T: TripleRep) -> tuple[int, ...]:
    """h(s) as a bitmask over the meager carrier, one per sharp element.

    The triple's maps and its rebuild read h through these masks, so a
    supplied triple is checked here, once: it must hold one h-set per sharp
    element, and each set only ids of the meager carrier. Otherwise
    ReconstructionError names the sharp element and the id.
    """
    carrier = frozenset(T.meager.elements())
    if len(T.h) != T.sharp.order:
        raise ReconstructionError(f"h has {len(T.h)} sets for the {T.sharp.order} sharp elements")
    for s, hs in enumerate(T.h):
        if not carrier.issuperset(hs):
            outside = min(set(hs) - carrier)
            raise ReconstructionError(f"h({s}) holds {outside}, outside the meager carrier 0..{len(carrier) - 1}")
    return tuple(sum(1 << m for m in hs) for hs in T.h)


@memoized
def _widehat_vector(T: TripleRep) -> tuple[int, ...]:
    sharp, n = T.sharp, T.meager.order
    hm, rank = _h_masks(T), sharp._rank
    # covers[x]: the sharp elements whose h-set holds x, as a rank mask
    covers = [0] * n
    for s in sharp.elements():
        bit = 1 << rank[s]
        for x in _mask_elements(hm[s]):
            covers[x] |= bit
    out = []
    for x, mask in enumerate(covers):
        best = sharp._least(mask)
        if best is None:
            raise ReconstructionError(f"no least sharp cover for meager element {x}")
        out.append(best)
    return tuple(out)


def widehat_triple(T: TripleRep, x: int) -> int:
    """Least sharp element whose h-set contains x, in the sharp algebra's order."""
    _check_element(T.meager, x)
    return _widehat_vector(T)[x]


@memoized
def _pi_table(T: TripleRep) -> tuple[tuple[int | None, ...], ...]:
    # The join of D = {y <= x in h(s)} lies in h(s) exactly when D has a
    # greatest element, and then it is that element: _greatest, inline. D is
    # empty when h(s) lacks the meager zero, and then has none.
    mea = T.meager
    rbelow, by_rank = mea._rbelow, mea._by_rank
    table = []
    for hs in map(mea._rank_mask, _h_masks(T)):
        row = []
        for below in rbelow:
            d = below & hs
            m = by_rank[d.bit_length() - 1]
            row.append(m if d and not d & ~rbelow[m] else None)
        table.append(tuple(row))
    return tuple(table)


def pi_s(T: TripleRep, s: int, x: int) -> int | None:
    """Join inside the meager algebra of the h(s) part below x, when it lands
    back in h(s); mirrors the meet of x with s in the source algebra."""
    _check_element(T.sharp, s)
    _check_element(T.meager, x)
    return _pi_table(T)[s][x]


@memoized
def _r_vector(T: TripleRep) -> tuple[int, ...]:
    mea = T.meager
    rows, below, ominus = mea.table.entries, mea._below, mea._ominus
    rbelow, greatest = mea._rbelow, mea._greatest
    widehat = _widehat_vector(T)
    hm = _h_masks(T)
    # Cancellation profile: adding z to x stays under the cover exactly for
    # the z below y that leave the cover of the difference unchanged. Group
    # each y by its cover and its side R(y), then look x up by its side L(x).
    by_profile: dict[tuple[int, int], list[int]] = {}
    for y in mea.elements():
        hat = widehat[y]
        right = sum(1 << z for z in _mask_elements(hm[hat] & below[y]) if widehat[ominus[z][y]] == hat)
        by_profile.setdefault((hat, right), []).append(y)
    out = []
    for x, sums in enumerate(mea.table.row_sums):
        hat = widehat[x]
        h = hm[hat]
        # L(x): the z in h(hat) with x + z defined and in h(hat) too
        left = h & sum(1 << z for z, v in sums if h >> v & 1)
        # the pair must meet inside the meager algebra and x + (y - (x meet y))
        # must stay meager and below the cover; one meet per candidate, so
        # the meager algebra builds no meet table
        matches = []
        row = rows[x]
        for y in by_profile.get((hat, left), ()):
            u = greatest(rbelow[x] & rbelow[y])
            if u is not None and (w := row[ominus[u][y]]) != UNDEFINED and h >> w & 1:
                matches.append(y)
        if len(matches) != 1:
            raise ReconstructionError(
                f"difference-to-cover search for meager {x} found {len(matches)} candidates"
            )
        out.append(matches[0])
    return tuple(out)


def r_map(T: TripleRep, x: int) -> int:
    """The unique meager element behaving like the gap between x and its cover.

    Located purely by the triple-expressible characterization; the equality
    with the source-side difference is a test, not the definition.
    """
    _check_element(T.meager, x)
    return _r_vector(T)[x]


@memoized
def _split_table(T: TripleRep) -> tuple[
    tuple[tuple[int | None, ...], ...], tuple[tuple[int | None, ...], ...], tuple[tuple[int, int], ...]
]:
    """Per meager pair (x, y): the top split piece s and the sum
    (x - pi_s x) + (y - pi_s y), as two tables indexed [x][y]; then the pairs
    whose split pieces have maximal elements but no maximum.

    z is a split piece of x and y when pi_z x and pi_z y are defined, z is the
    cover of pi_z x and r(pi_z x) = pi_z y. The first two conditions read x
    alone, so each x filters the sharp elements once and each y then costs
    one lookup per remaining piece. Both table entries are None without a top
    piece, and the sum is None where it is undefined; pi_s x lies below x, so
    both differences exist.
    """
    sharp, mea = T.sharp, T.meager
    pi = _pi_table(T)
    widehat, r_vec = _widehat_vector(T), _r_vector(T)
    rank, by_rank, rbelow = sharp._rank, sharp._by_rank, sharp._rbelow
    rows, ominus = mea.table.entries, mea._ominus
    tops, sums, missing = [], [], []
    for x in mea.elements():
        pieces = []
        for z in sharp.elements():
            px = pi[z][x]
            if px is not None and widehat[px] == z:
                pieces.append((1 << rank[z], pi[z], r_vec[px]))
        top_row, sum_row = [], []
        for y in mea.elements():
            found = 0
            for bit, pz, want in pieces:
                if pz[y] == want:
                    found |= bit
            # the greatest piece, _greatest inline: the top rank when its
            # down-set covers the others; none when no piece was found
            s = by_rank[found.bit_length() - 1]
            if found and not found & ~rbelow[s]:
                ps = pi[s]
                v = rows[ominus[ps[x]][x]][ominus[ps[y]][y]]
            else:
                if found:
                    missing.append((x, y))
                s = v = None
            top_row.append(s)
            sum_row.append(None if v == UNDEFINED else v)
        tops.append(tuple(top_row))
        sums.append(tuple(sum_row))
    return tuple(tops), tuple(sums), tuple(missing)


def s_map(T: TripleRep, x: int, y: int) -> int | None:
    """Top element of the sharp pieces splitting across x and y, if one exists."""
    _check_element(T.meager, x)
    _check_element(T.meager, y)
    return _split_table(T)[0][x][y]


def s_map_top_missing(T: TripleRep) -> tuple[tuple[int, int], ...]:
    """Meager pairs whose candidate set has maximal elements but no maximum.

    Recorded as empirical data; the reconstruction never needs these pairs
    when the source sum is defined.
    """
    return _split_table(T)[2]


@memoized
def reconstruct_tea(T: TripleRep) -> TeaAlgebra:
    """Rebuild the algebra on pairs (z_S, z_M) with z_M in h(z_S').

    Uses only the triple's own data. A pair sums to (x_S + y_S + s, z_M) for
    the split (s, z_M) of its meager parts, when that sum is defined and z_M
    lies in h of its supplement; any axiom failure of the result is reported
    as a theorem violation, never repaired. The rebuild is the one
    verify_roundtrip reads; this runs the full axiom check on it.
    """
    tea = _rebuild(T)
    verdict = axiom_verdict(tea.algebra)
    if not verdict.ok:
        raise ReconstructionError(f"rebuilt table fails the axioms: {verdict.violations}")
    return tea


@memoized
def _rebuild(T: TripleRep) -> TeaAlgebra:
    """reconstruct_tea's rebuild, without its axiom check."""
    sharp = T.sharp
    mea = T.meager
    srows, ssup, hm = sharp.table.entries, sharp._sup, _h_masks(T)
    carrier = tuple((s, m) for s in sharp.elements() for m in _mask_elements(hm[ssup[s]]))
    if not (hm[sharp.zero] & hm[sharp.one]) >> mea.zero & 1:
        raise ReconstructionError("h at zero and at one must contain the meager zero")
    # index[s][m] is the pair (s, m)'s place in the carrier, None off it;
    # pairs[s] lists s's pairs as (place, m), m ascending
    index = [[None] * mea.order for _ in sharp.elements()]
    pairs: list[list[tuple[int, int]]] = [[] for _ in sharp.elements()]
    for k, (s, m) in enumerate(carrier):
        index[s][m] = k
        pairs[s].append((k, m))
    zero = index[sharp.zero][mea.zero]
    one = index[sharp.one][mea.zero]

    # A pair k2 >= k1 can sum only where its sharp parts do, so each k1
    # walks the pairs of each ys >= xs with xs + ys defined, and each sum
    # found is written with its mirror. As k1 ascends, every row receives
    # its columns in ascending order.
    tops, sums, _ = _split_table(T)
    rows: list[list[tuple[int, int]]] = [[] for _ in carrier]
    for k1, (xs, xm) in enumerate(carrier):
        top, zms, row = tops[xm], sums[xm], rows[k1]
        for ys, t in sharp.table.row_sums[xs]:
            if ys < xs:
                continue
            trow = srows[t]
            for k2, ym in pairs[ys]:
                zm = zms[ym]
                if k2 < k1 or zm is None:
                    continue
                zs = trow[top[ym]]
                if zs == UNDEFINED:
                    continue
                v = index[zs][zm]
                if v is not None:
                    row.append((k2, v))
                    if k2 != k1:
                        rows[k2].append((k1, v))

    return TeaAlgebra(FiniteEffectAlgebra._trusted(PartialOpTable.from_sums(rows), zero, one), carrier)


@dataclass(frozen=True)
class RoundtripResult:
    ok: bool
    tea: TeaAlgebra | None
    failure: str | None = None
    witness: tuple | None = None


def verify_roundtrip(E: FiniteEffectAlgebra, triple: TripleRep | None = None) -> RoundtripResult:
    """Rebuild from a triple and check that x -> (sharp floor, rest) is an isomorphism.

    The triple defaults to the one extracted from E; a supplied triple must
    carry its back-maps. An image outside the rebuilt carrier fails with its
    element; otherwise iso.morphism_failure, the check every isomorphisms
    witness passes, names the first failure. Under the hypotheses a failure
    means a bug, not a property of the input.

    The rebuild is read before its axiom check. When the map is an
    isomorphism, the rebuild is a relabelled copy of the verified E and
    satisfies the axioms, so the check is skipped. On any failure,
    reconstruct_tea checks the rebuild first, so a rebuild that fails the
    axioms raises ReconstructionError as if it had been checked at once.
    """
    T = extract_triple(E) if triple is None else triple
    if T.sharp_to_source is None or T.meager_to_source is None:
        raise ValueError("triple lacks its back-maps sharp_to_source and meager_to_source")
    tea = _rebuild(T)
    try:
        phi, failure = _roundtrip_failure(E, T, tea)
    except Exception:
        reconstruct_tea(T)  # a rebuild that fails the axioms is reported first
        raise
    if failure is not None:
        return RoundtripResult(False, reconstruct_tea(T), *failure)
    return RoundtripResult(True, replace(tea, phi=phi))


def _roundtrip_failure(
    E: FiniteEffectAlgebra, T: TripleRep, tea: TeaAlgebra
) -> tuple[tuple[int, ...], tuple | None]:
    """The map x -> (sharp floor, rest) into the rebuild, and why it is not
    an isomorphism as (reason, witness), or None."""
    sharp_inv = {src: i for i, src in enumerate(T.sharp_to_source)}
    meager_inv = {src: i for i, src in enumerate(T.meager_to_source)}
    index = {pair: k for k, pair in enumerate(tea.carrier)}

    bounds = sharp_bounds(E)
    ominus = E._ominus
    phi: list[int] = []
    for x in E.elements():
        floor = bounds.below[x]
        assert floor is not None
        rest = ominus[floor][x]
        assert rest is not None
        pair = (sharp_inv[floor], meager_inv[rest])
        if pair not in index:
            return tuple(phi), ("image outside carrier", (x,))
        phi.append(index[pair])
    return tuple(phi), morphism_failure(E, tea.algebra, phi)
