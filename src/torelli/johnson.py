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
    computation on f h^-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import NotInJk
from .freegroup import (MappingClass, Word, compose, displacements,
                        letter_name)
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

    def certifies(self, k: int) -> bool:
        """Membership at level k, valid for k <= cutoff+1."""
        if k > self.cutoff + 1:
            raise ValueError(f"level {k} not decidable at cutoff {self.cutoff}")
        d = self.depth
        return d is None or d >= k


def displacement_series(f: MappingClass, cutoff: int) -> list[TruncatedSeries]:
    """Expansions of f(alpha_j) alpha_j^-1 for every generator j, each in
    full up to degree ``cutoff``."""
    rank = 2 * f.genus
    return [magnus_expand(w, rank, cutoff) for w in displacements(f)]


def _until_moves(w: Word, rank: int, cutoff: int) -> TruncatedSeries:
    """Expansion of w at the lowest cutoff c <= ``cutoff`` at which a
    positive degree survives, else at ``cutoff``.

    Either way no degree below the returned cutoff survives, and the
    surviving degree (if any) is exact: it is the lowest degree of the
    full expansion.
    """
    for c in range(1, cutoff):
        s = magnus_expand(w, rank, c)
        if s.min_positive_degree() is not None:
            return s
    return magnus_expand(w, rank, cutoff)


def _check_level(series: Iterable[TruncatedSeries], k: int):
    # no term of degree < k may survive in any generator's displacement
    for j, s in enumerate(series, start=1):
        d = s.min_positive_degree()
        if d is not None and d < k:
            raise NotInJk(
                f"generator {letter_name(j)} moves at depth {d} < {k}",
                k=k, witness=letter_name(j), degree=d)


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
    requires membership at level k."""
    if k < 1:
        raise ValueError(f"level must be >= 1, got {k}")
    series = displacement_series(f, k)
    _check_level(series, k)
    return _layer(series, f.genus, k)


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

    Both inputs must certify level k, and h must carry inverse images.
    """
    if k < 1:
        raise ValueError(f"level must be >= 1, got {k}")
    rank = 2 * f.genus
    # only degrees below k decide level k; each check stops at the first
    # generator that moves
    for g in (f, h):
        _check_level((magnus_expand(w, rank, k - 1)
                      for w in displacements(g)), k)
    diff = compose(f, h.inverse())
    # membership at level 2k-1 needs no surviving term below degree 2k-1
    return all(magnus_expand(w, rank, 2 * k - 2).min_positive_degree() is None
               for w in displacements(diff))


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

    Each generator is expanded only until it moves, and never past the
    lowest degree found so far (where the first nonzero level sits), so
    every expansion is exact at each level the loop reads.
    """
    if not 1 <= kmin <= kmax:
        raise ValueError(f"bad level range {kmin}..{kmax}")
    rank = 2 * f.genus
    series = []
    cap = kmax
    for w in displacements(f):
        s = _until_moves(w, rank, cap)
        series.append(s)
        d = s.min_positive_degree()
        if d is not None:
            cap = d
    _check_level(series, kmin)
    entries = []
    first_nonzero = None
    for k in range(kmin, kmax + 1):
        value = _layer(series, f.genus, k)
        entries.append((k, value))
        if not value.is_zero():
            first_nonzero = k
            break
    return TowerReport(f.genus, kmin, kmax, tuple(entries), first_nonzero)
