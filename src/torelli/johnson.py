"""Depth in the lower-central filtration of the mapping class group, the
graded homomorphisms attached to it, and the bordism-equivalence test.

A mapping class f sits at filtration level k when every generator is moved
by an element of the k-th lower central subgroup: f(alpha_i) alpha_i^-1 in
F_k for all i.  The level-k invariant tau_k(f) records, per generator, the
class of f(alpha_i) alpha_i^-1 in F_k/F_{k+1}, extracted here as the
degree-k part of a truncated Magnus expansion and written in Lyndon
coordinates.  Key facts wired into this module:

  - tau_k vanishes exactly on level k+1, and is additive at level k;
  - the image of tau_k lands in the kernel of the bracket contraction
    once rewritten through the symplectic pairing (slot of a_i carries
    tau(b_i), slot of b_i carries -tau(a_i));
  - two level-k classes induce bordant structures exactly when they
    differ by an element of level 2k-1, so that test reduces to a depth
    computation on the words f(alpha_i) h(alpha_i)^-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import GenusMismatch, NotInJk
from .freegroup import (MappingClass, Word, displacements, invert, letter_name,
                        multiply)
from .freelie import H1LieTensor, LieElement, bracket_map
from .magnus import DEFAULT_DEPTH, TruncatedSeries, magnus_expand

DEFAULT_TOWER_MAX = 5


@dataclass(frozen=True)
class DepthReport:
    """Per-generator lower-central depths of f(alpha_i) alpha_i^-1.

    A witness of None means no term survived the cutoff, i.e. that
    generator's displacement sits at depth cutoff+1 or deeper.
    """

    genus: int
    cutoff: int
    witnesses: tuple[Optional[int], ...]

    @property
    def depth(self) -> Optional[int]:
        finite = [w for w in self.witnesses if w is not None]
        return min(finite) if finite else None


def _until_moves(w: Word, rank: int, cutoff: int) -> TruncatedSeries:
    """Expansion of w at the first cutoff c in 2, 3, ..., ``cutoff`` at
    which a positive degree survives, else at ``cutoff``.

    Either way the lowest surviving degree (if any) is exact: it is the
    lowest degree of the full expansion.  The ladder starts at 2 because
    degree 1 never survives for a class acting trivially on homology, and
    a cutoff-2 pass costs at most ``rank`` more updates per letter.  The
    empty word never moves, so it is answered without expanding, whatever
    the cutoff.
    """
    if not w:
        return TruncatedSeries(rank, cutoff, {0: {(): 1}})
    for c in range(2, cutoff):
        s = magnus_expand(w, rank, c)
        if s.min_positive_degree() is not None:
            return s
    return magnus_expand(w, rank, cutoff)


def _level_series(f: MappingClass, k: int,
                  cutoff: int) -> list[TruncatedSeries]:
    """Each displacement of f expanded until it moves, never past
    ``cutoff`` nor past the lowest degree found so far; raises NotInJk at
    the first generator that moves below level k.

    Every series is then exact up to the lowest degree D over all the
    displacements, and level D is the highest level a caller reads.
    """
    rank = 2 * f.genus
    series = []
    for j, w in enumerate(displacements(f), start=1):
        s = _until_moves(w, rank, cutoff)
        d = s.min_positive_degree()
        if d is not None:
            if d < k:
                raise NotInJk(
                    f"generator {letter_name(j)} moves at depth {d} < {k}",
                    k=k, witness=letter_name(j), degree=d)
            cutoff = d
        series.append(s)
    return series


def _layer(series: list[TruncatedSeries], genus: int, k: int) -> H1LieTensor:
    """Degree-k parts of the displacements, in Lyndon coordinates."""
    return H1LieTensor(genus, k, tuple(
        LieElement.from_polynomial(2 * genus, k, s.degree_terms(k))
        for s in series))


def filtration_depth(f: MappingClass, cutoff: int = DEFAULT_DEPTH) -> DepthReport:
    """Largest certified filtration level of f, up to the cutoff; each
    displacement is expanded only until it moves."""
    rank = 2 * f.genus
    return DepthReport(f.genus, cutoff, tuple(
        _until_moves(w, rank, cutoff).min_positive_degree()
        for w in displacements(f)))


def tau(f: MappingClass, k: int) -> H1LieTensor:
    """Level-k invariant of f, one degree-k Lie element per generator;
    requires membership at level k, and refuses a shallower f at the
    degree where its first generator moves."""
    if k < 1:
        raise ValueError(f"level must be >= 1, got {k}")
    return _layer(_level_series(f, k, k), f.genus, k)


def symplectic_dual(t: H1LieTensor) -> H1LieTensor:
    """Rewrite a Hom-form value as a tensor via the intersection pairing:
    the slot of a_i receives tau(b_i), the slot of b_i receives -tau(a_i)."""
    comps: list[LieElement] = []
    for i in range(1, t.genus + 1):
        comps.append(t.components[2 * i - 1])        # slot a_i <- tau(b_i)
        comps.append(t.components[2 * i - 2].neg())  # slot b_i <- -tau(a_i)
    return H1LieTensor(t.genus, t.degree, tuple(comps))


@dataclass(frozen=True)
class MoritaReport:
    k: int
    contained: bool
    bracket: LieElement  # degree k+1; zero exactly when contained


def morita_check(f: MappingClass, k: int) -> MoritaReport:
    """Containment of the level-k value in the bracket-contraction kernel.
    Always true for genuine mapping classes; a false is a diagnostic that
    something upstream is broken, not a classification."""
    value = bracket_map(symplectic_dual(tau(f, k)))
    return MoritaReport(k, value.is_zero(), value)


def bordant(f: MappingClass, h: MappingClass, k: int) -> bool:
    """Whether the level-k structures attached to f and h are bordant,
    i.e. f h^-1 sits at level 2k-1.

    Level m is the kernel of Aut(F) -> Aut(F/F_m), so f h^-1 sits there
    exactly when every f(alpha_j) h(alpha_j)^-1 is in F_m: only images are
    read, and neither class needs inverse images.  Both inputs must
    certify level k and have the same genus.
    """
    if k < 1:
        raise ValueError(f"level must be >= 1, got {k}")
    # raises NotInJk unless both are at level k; degrees below k decide it
    for g in (f, h):
        _level_series(g, k, k - 1)
    if f.genus != h.genus:
        raise GenusMismatch(f"genus mismatch: {f.genus} vs {h.genus}")
    rank = 2 * f.genus
    # membership at level 2k-1 needs no surviving term below degree 2k-1;
    # the check stops at the first generator that moves
    return all(_until_moves(multiply(u, invert(v)), rank,
                            2 * k - 2).min_positive_degree() is None
               for u, v in zip(f.images, h.images))


@dataclass(frozen=True)
class TowerReport:
    """Successive levels kmin..: each value, stopping after the first
    nonzero one (which determines the rest of the bordism data)."""

    genus: int
    kmin: int
    kmax: int
    entries: tuple[tuple[int, H1LieTensor], ...]
    first_nonzero: Optional[int]


def tau_tower(f: MappingClass, kmin: int = 2,
              kmax: int = DEFAULT_TOWER_MAX) -> TowerReport:
    """Values at levels kmin, kmin+1, ...; stops at the first nonzero level
    or at kmax.

    The first nonzero level is the lowest degree surviving in any
    displacement, so the series of :func:`_level_series` are exact at
    each level the loop reads.
    """
    if not 1 <= kmin <= kmax:
        raise ValueError(f"bad level range {kmin}..{kmax}")
    series = _level_series(f, kmin, kmax)
    entries = []
    first_nonzero = None
    for k in range(kmin, kmax + 1):
        value = _layer(series, f.genus, k)
        entries.append((k, value))
        if not value.is_zero():
            first_nonzero = k
            break
    return TowerReport(f.genus, kmin, kmax, tuple(entries), first_nonzero)
