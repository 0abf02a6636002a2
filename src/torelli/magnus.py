"""Truncated Magnus expansion of the free group.

Each generator embeds into formal power series in noncommuting variables
t_1, ..., t_r via a_j -> 1 + t_j, so a_j^-1 -> 1 - t_j + t_j^2 - ...
Everything is truncated at a total-degree cutoff.  The key fact used
throughout: a reduced word lies in the k-th lower central subgroup of the
free group exactly when its expansion is 1 + (terms of degree >= k), so
the lowest surviving degree reads off lower-central depth.

Monomials are tuples of variable indices (1-based); a series keeps its
terms bucketed by total degree, ``terms[d][mono] = coeff``, with zero
coefficients and empty buckets dropped.
"""

from __future__ import annotations

from typing import Optional

from .errors import GenusMismatch
from .freegroup import Word

DEFAULT_DEPTH = 6

Monomial = tuple[int, ...]
Bucket = dict[Monomial, int]


class TruncatedSeries:
    """Integer power series in noncommuting variables, truncated by degree."""

    __slots__ = ("rank", "cutoff", "terms")

    def __init__(self, rank: int, cutoff: int,
                 terms: Optional[dict[int, Bucket]] = None):
        if rank < 1 or cutoff < 0:
            raise ValueError(f"bad series shape: rank {rank}, cutoff {cutoff}")
        self.rank = rank
        self.cutoff = cutoff
        self.terms: dict[int, Bucket] = {}
        if terms:
            for d, bucket in terms.items():
                if d > cutoff:
                    continue
                cleaned = {m: c for m, c in bucket.items() if c}
                if cleaned:
                    self.terms[d] = cleaned

    def degree_terms(self, degree: int) -> Bucket:
        return dict(self.terms.get(degree, {}))

    def min_positive_degree(self) -> Optional[int]:
        """Lowest degree >= 1 carrying a nonzero term, None if there is none."""
        positive = [d for d in self.terms if d >= 1]
        return min(positive) if positive else None

    def __eq__(self, other) -> bool:
        return (isinstance(other, TruncatedSeries) and self.rank == other.rank
                and self.cutoff == other.cutoff and self.terms == other.terms)

    def __hash__(self):
        raise TypeError("TruncatedSeries is mutable-shaped; not hashable")

    def __repr__(self) -> str:
        n = sum(len(b) for b in self.terms.values())
        return f"TruncatedSeries(rank={self.rank}, cutoff={self.cutoff}, terms={n})"


def magnus_expand(w: Word, rank: int, cutoff: int = DEFAULT_DEPTH) -> TruncatedSeries:
    """Expansion of a reduced word, truncated at total degree ``cutoff``.

    The product is built in one list of degree buckets, updated in place
    letter by letter.  For a_j add S_{d-1} t_j into S_d, from the top
    degree down; for a_j^-1 solve R (1 + t_j) = S as R_d = S_d - R_{d-1} t_j,
    from degree 1 up.  A coefficient is deleted the moment it reaches 0.

    Inside a bucket the monomial (j_1, ..., j_d) is keyed by the integer
    with base-``rank`` digits j_1 - 1, ..., j_d - 1, so appending t_j is
    ``key * rank + j - 1``; the keys become tuples once, at the end.
    """
    if w.max_index() > rank:
        raise GenusMismatch(
            f"word uses generator index {w.max_index()} beyond rank {rank}")
    buckets: list[dict[int, int]] = [{0: 1}] + [{} for _ in range(cutoff)]
    up, down = range(1, cutoff + 1), range(cutoff, 0, -1)
    for b in w.data:
        if b < 0x80:
            digit, sign, degrees = b - 1, 1, down
        else:
            digit, sign, degrees = 255 - b, -1, up
        for d in degrees:
            src = buckets[d - 1]
            if not src:
                continue
            tgt = buckets[d]
            for m, c in src.items():
                key = m * rank + digit
                v = tgt.get(key, 0) + sign * c
                if v:
                    tgt[key] = v
                else:
                    del tgt[key]
    terms: dict[int, Bucket] = {0: {(): 1}}
    for d in range(1, cutoff + 1):
        keys = list(buckets[d])
        digits = [[k // p % rank + 1 for k in keys]
                  for p in [rank ** e for e in range(d - 1, -1, -1)]]
        terms[d] = dict(zip(zip(*digits), buckets[d].values()))
    return TruncatedSeries(rank, cutoff, terms)
