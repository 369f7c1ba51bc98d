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
    AxiomViolationError,
    FiniteEffectAlgebra,
    FiniteGeneralizedEffectAlgebra,
    PartialOpTable,
    _Memoizing,
    memoized,
)
from .structure import (
    HypothesisError,
    _missing_sharp_bound,
    homogeneity_counterexample,
    is_sharply_dominating,
    is_sub_effect_algebra,
    meager_algebra,
    meager_elements,
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

    Requires E homogeneous and sharply dominating; the finite table makes
    the remaining orthocompleteness hypotheses automatic. A violated
    hypothesis aborts with its witness.
    """
    witness = homogeneity_counterexample(E)
    if witness is not None:
        raise HypothesisError("homogeneous", witness)
    if not is_sharply_dominating(E):
        raise HypothesisError("sharply_dominating", _missing_sharp_bound(sharp_bounds(E))[0])

    sharp_ids = sharp_elements(E)
    if not is_sub_effect_algebra(E, sharp_ids):
        raise ReconstructionError("sharp elements fail the sub-effect-algebra closure")
    sharp, sharp_src = restrict(E, sharp_ids)
    meager, meager_src = meager_algebra(E)

    h = tuple(
        frozenset(
            m for m, src_m in enumerate(meager_src) if E.leq(src_m, sharp_src[s])
        )
        for s in sharp.elements()
    )

    if h[sharp.zero] != frozenset({meager.zero}):
        raise ReconstructionError("h at zero must be the zero singleton")
    if h[sharp.one] != frozenset(meager.elements()):
        raise ReconstructionError("h at one must cover the meager carrier")
    for s in sharp.elements():
        for m in h[s]:
            if not frozenset(meager.down_set(m)) <= h[s]:
                raise ReconstructionError("h values must be down-sets")
        for t in sharp.elements():
            if sharp.leq(s, t) and not h[s] <= h[t]:
                raise ReconstructionError("h is not monotone")

    return TripleRep(sharp, meager, h, sharp_src, meager_src)


@memoized
def _widehat_vector(T: TripleRep) -> tuple[int, ...]:
    out = []
    for x in T.meager.elements():
        best = T.sharp._least(sum(1 << s for s in T.sharp.elements() if x in T.h[s]))
        if best is None:
            raise ReconstructionError(f"no least sharp cover for meager element {x}")
        out.append(best)
    return tuple(out)


def widehat_triple(T: TripleRep, x: int) -> int:
    """Least sharp element whose h-set contains x, in the sharp algebra's order."""
    return _widehat_vector(T)[x]


@memoized
def _pi_table(T: TripleRep) -> tuple[tuple[int | None, ...], ...]:
    mea = T.meager
    rows = []
    for s in T.sharp.elements():
        row: list[int | None] = []
        for x in mea.elements():
            below = [y for y in mea.elements() if mea.leq(y, x) and y in T.h[s]]
            z = mea.join_set(below)
            row.append(z if z is not None and z in T.h[s] else None)
        rows.append(tuple(row))
    return tuple(rows)


def pi_s(T: TripleRep, s: int, x: int) -> int | None:
    """Join inside the meager algebra of the h(s) part below x, when it lands
    back in h(s); mirrors the meet of x with s in the source algebra."""
    return _pi_table(T)[s][x]


@memoized
def _r_vector(T: TripleRep) -> tuple[int, ...]:
    mea = T.meager
    widehat = _widehat_vector(T)
    out = []
    for x in mea.elements():
        matches = [y for y in mea.elements() if _r_candidate(T, widehat, x, y)]
        if len(matches) != 1:
            raise ReconstructionError(
                f"difference-to-cover search for meager {x} found {len(matches)} candidates"
            )
        out.append(matches[0])
    return tuple(out)


def _r_candidate(T: TripleRep, widehat: tuple[int, ...], x: int, y: int) -> bool:
    mea = T.meager
    hat = widehat[x]
    if widehat[y] != hat:
        return False
    # the pair must meet inside the meager algebra and x + (y - (x meet y))
    # must stay meager and below the cover
    u = mea.meet(x, y)
    if u is None:
        return False
    d = mea.ominus(y, u)
    if d is None:
        return False
    w = mea.sum(x, d)
    if w is None or w not in T.h[hat]:
        return False
    # cancellation profile: adding z to x stays under the cover exactly for
    # z below y that leave the cover of the difference unchanged
    for z in sorted(T.h[hat]):
        zx = mea.sum(z, x)
        lhs = zx is not None and zx in T.h[hat]
        if mea.leq(z, y):
            rest = mea.ominus(y, z)
            rhs = rest is not None and widehat[rest] == hat
        else:
            rhs = False
        if lhs != rhs:
            return False
    return True


def r_map(T: TripleRep, x: int) -> int:
    """The unique meager element behaving like the gap between x and its cover.

    Located purely by the triple-expressible characterization; the equality
    with the source-side difference is a test, not the definition.
    """
    return _r_vector(T)[x]


@memoized
def _s_candidates(T: TripleRep, x: int, y: int) -> tuple[int, ...]:
    pi = _pi_table(T)
    widehat = _widehat_vector(T)
    r_vec = _r_vector(T)
    out = []
    for z in T.sharp.elements():
        px = pi[z][x]
        py = pi[z][y]
        if px is None or py is None:
            continue
        if widehat[px] == z and r_vec[px] == py:
            out.append(z)
    return tuple(out)


def s_map(T: TripleRep, x: int, y: int) -> int | None:
    """Top element of the sharp pieces splitting across x and y, if one exists."""
    return T.sharp._greatest(sum(1 << c for c in _s_candidates(T, x, y)))


def s_map_top_missing(T: TripleRep) -> tuple[tuple[int, int], ...]:
    """Meager pairs whose candidate set has maximal elements but no maximum.

    Recorded as empirical data; the reconstruction never needs these pairs
    when the source sum is defined.
    """
    out = []
    for x in T.meager.elements():
        for y in T.meager.elements():
            if _s_candidates(T, x, y) and s_map(T, x, y) is None:
                out.append((x, y))
    return tuple(out)


def reconstruct_tea(T: TripleRep) -> TeaAlgebra:
    """Rebuild the algebra on pairs (z_S, z_M) with z_M in h(z_S').

    Uses only the triple's own data. The four definedness conditions are
    evaluated in order and short-circuit; any axiom failure of the result
    is reported as a theorem violation, never repaired.
    """
    sharp = T.sharp
    mea = T.meager
    carrier = tuple(
        (s, m)
        for s in sharp.elements()
        for m in sorted(T.h[sharp.orthosupplement(s)])
    )
    index = {pair: k for k, pair in enumerate(carrier)}
    zero = index[(sharp.zero, mea.zero)]
    one = index[(sharp.one, mea.zero)]

    pi = _pi_table(T)
    pairs: dict[tuple[int, int], int] = {}
    for k1, (xs, xm) in enumerate(carrier):
        for k2 in range(k1, len(carrier)):
            ys, ym = carrier[k2]
            s = s_map(T, xm, ym)
            if s is None:
                continue
            partial = sharp.sum(xs, ys)
            if partial is None:
                continue
            zs = sharp.sum(partial, s)
            if zs is None:
                continue
            px = pi[s][xm]
            py = pi[s][ym]
            if px is None or py is None:
                raise ReconstructionError(
                    f"split piece lacks its meet against pair ({xm},{ym})"
                )
            a = mea.ominus(xm, px)
            b = mea.ominus(ym, py)
            if a is None or b is None:
                raise ReconstructionError("meager difference undefined below its element")
            zm = mea.sum(a, b)
            if zm is None:
                continue
            if zm not in T.h[sharp.orthosupplement(zs)]:
                continue
            pairs[(k1, k2)] = index[(zs, zm)]

    table = PartialOpTable.from_pairs(len(carrier), pairs)
    try:
        algebra = FiniteEffectAlgebra(table, zero, one)
    except AxiomViolationError as exc:
        raise ReconstructionError(
            f"rebuilt table fails the axioms: {exc.verdict.violations}"
        ) from exc
    return TeaAlgebra(algebra, carrier)


@dataclass(frozen=True)
class RoundtripResult:
    ok: bool
    tea: TeaAlgebra | None
    failure: str | None = None
    witness: tuple | None = None


def verify_roundtrip(E: FiniteEffectAlgebra, triple: TripleRep | None = None) -> RoundtripResult:
    """Rebuild from a triple and check that x -> (sharp floor, rest) is an isomorphism.

    The triple defaults to the one extracted from E; a supplied triple must
    carry its back-maps. Checks bijectivity, that zero and one are preserved
    and, in both directions, that sums are defined together and map to each
    other. Any failure is reported with the first offending pair; under the
    hypotheses a failure means a bug, not a property of the input.
    """
    T = extract_triple(E) if triple is None else triple
    tea = reconstruct_tea(T)
    assert T.sharp_to_source is not None and T.meager_to_source is not None
    sharp_inv = {src: i for i, src in enumerate(T.sharp_to_source)}
    meager_inv = {src: i for i, src in enumerate(T.meager_to_source)}
    index = {pair: k for k, pair in enumerate(tea.carrier)}

    bounds = sharp_bounds(E)
    phi: list[int] = []
    for x in E.elements():
        floor = bounds.below[x]
        assert floor is not None
        rest = E.ominus(x, floor)
        assert rest is not None
        pair = (sharp_inv[floor], meager_inv[rest])
        if pair not in index:
            return RoundtripResult(False, tea, "image outside carrier", (x,))
        phi.append(index[pair])

    if len(set(phi)) != E.order or len(tea.carrier) != E.order:
        return RoundtripResult(False, tea, "not bijective", None)
    if phi[E.zero] != index[(T.sharp.zero, T.meager.zero)]:
        return RoundtripResult(False, tea, "zero not preserved", (E.zero,))
    if phi[E.one] != index[(T.sharp.one, T.meager.zero)]:
        return RoundtripResult(False, tea, "one not preserved", (E.one,))

    rebuilt = tea.algebra
    for x in E.elements():
        for y in E.elements():
            v = E.sum(x, y)
            w = rebuilt.sum(phi[x], phi[y])
            if (v is None) != (w is None):
                return RoundtripResult(False, tea, "definedness mismatch", (x, y))
            if v is not None and phi[v] != w:
                return RoundtripResult(False, tea, "sum value mismatch", (x, y))

    return RoundtripResult(True, replace(tea, phi=tuple(phi)))
