"""Fundamental-group presentations of the mapping torus of a mapping
class, of its filling along the distinguished circle direction, and the
rank bookkeeping for the level-k bordism target.

The mapping torus of f adds one generator gamma to the surface group and
imposes, per surface generator, that conjugation by gamma realizes f.
Filling kills gamma, leaving the relators f(alpha) alpha^-1 alone; their
lower-central depth mirrors the filtration depth of f.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import GenusMismatch
from .freegroup import (MappingClass, Word, commutator, displacements,
                        format_word, letter_name, multiply)
from .freelie import witt_dim


@dataclass(frozen=True, slots=True)
class Presentation:
    """A finite presentation; generator j of the surface keeps letter j,
    and gamma (when present) is letter 2g+1."""

    genus: int
    generator_names: tuple[str, ...]
    relators: tuple[Word, ...]

    def __post_init__(self):
        n = 2 * self.genus
        if len(self.generator_names) not in (n, n + 1):
            raise GenusMismatch(
                f"expected {n} or {n + 1} generators, got "
                f"{len(self.generator_names)}")

    def text(self) -> str:
        lines = ["gens: " + " ".join(self.generator_names)]
        for r in self.relators:
            lines.append("rel: " + format_word(r, self.genus))
        return "\n".join(lines) + "\n"


def present_mapping_torus(f: MappingClass) -> Presentation:
    """Presentation on a_1..b_g and gamma with one relator per surface
    generator: [alpha, gamma] f(alpha) alpha^-1."""
    n = 2 * f.genus
    gamma = n + 1
    names = tuple(letter_name(j, f.genus) for j in range(1, gamma + 1))
    relators = tuple(multiply(commutator(Word((j,)), Word((gamma,))), d)
                     for j, d in enumerate(displacements(f), start=1))
    return Presentation(f.genus, names, relators)


def present_filled(f: MappingClass) -> Presentation:
    """Presentation after filling: gamma is killed, leaving the relators
    f(alpha) alpha^-1 on the surface generators alone."""
    n = 2 * f.genus
    names = tuple(letter_name(j, f.genus) for j in range(1, n + 1))
    return Presentation(f.genus, names, displacements(f))


@dataclass(frozen=True, slots=True)
class BlockRankReport:
    """Ranks of the graded pieces feeding the level-k bordism target.

    The degree-2 block is the k-th free Lie layer mod 2, the degree-1
    block is H1 with Z2 coefficients, the degree-0 block vanishes, and
    the degree-3 block is out of scope here.
    """

    genus: int
    k: int
    h2_rank: int
    h1_rank: int
    h0_rank: int
    h3_status: str = "NOT COMPUTED"

    def text(self) -> str:
        return (f"blocks genus {self.genus} level {self.k}\n"
                f"H2-block rank: {self.h2_rank}\n"
                f"H1-block rank: {self.h1_rank}\n"
                f"H0-block rank: {self.h0_rank}\n"
                f"H3-block: {self.h3_status}\n")


def eta_block_ranks(genus: int, k: int) -> BlockRankReport:
    if genus < 1:
        raise GenusMismatch(f"genus must be >= 1, got {genus}")
    if k < 2:
        raise ValueError(f"level must be >= 2, got {k}")
    return BlockRankReport(genus, k, witt_dim(2 * genus, k), 2 * genus, 0)
