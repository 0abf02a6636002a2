"""Truncated Magnus expansion and Fox calculus for the free group.

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

from typing import Iterable, Optional, Union

from .errors import GenusMismatch
from .freegroup import Word

DEFAULT_DEPTH = 6

Monomial = tuple[int, ...]
Bucket = dict[Monomial, int]


def _clean(bucket: Bucket) -> Bucket:
    return {m: c for m, c in bucket.items() if c}


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
                cleaned = _clean(bucket)
                if cleaned:
                    self.terms[d] = cleaned

    @classmethod
    def one(cls, rank: int, cutoff: int) -> "TruncatedSeries":
        return cls(rank, cutoff, {0: {(): 1}})

    def coefficient(self, mono: Monomial) -> int:
        return self.terms.get(len(mono), {}).get(tuple(mono), 0)

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


def _mul_letter(series: TruncatedSeries, j: int, positive: bool) -> TruncatedSeries:
    """Right-multiply by the expansion of a generator or its inverse.

    For a_j the product is S + S t_j.  For a_j^-1 solve R (1 + t_j) = S
    degree by degree: R_d = S_d - R_{d-1} t_j.
    """
    cutoff = series.cutoff
    out: dict[int, Bucket] = {}
    if positive:
        for d, bucket in series.terms.items():
            out.setdefault(d, {})
            for m, c in bucket.items():
                out[d][m] = out[d].get(m, 0) + c
            if d + 1 <= cutoff:
                tgt = out.setdefault(d + 1, {})
                for m, c in bucket.items():
                    key = m + (j,)
                    tgt[key] = tgt.get(key, 0) + c
    else:
        for d in range(cutoff + 1):
            bucket = dict(series.terms.get(d, {}))
            for m, c in out.get(d - 1, {}).items():
                key = m + (j,)
                bucket[key] = bucket.get(key, 0) - c
            cleaned = _clean(bucket)
            if cleaned:
                out[d] = cleaned
    return TruncatedSeries(series.rank, cutoff, out)


def magnus_expand(w: Word, rank: int, cutoff: int = DEFAULT_DEPTH) -> TruncatedSeries:
    """Expansion of a reduced word, truncated at total degree ``cutoff``."""
    if w.max_index() > rank:
        raise GenusMismatch(
            f"word uses generator index {w.max_index()} beyond rank {rank}")
    acc = TruncatedSeries.one(rank, cutoff)
    for x in w.letters:
        acc = _mul_letter(acc, abs(x), x > 0)
    return acc


# ---------------------------------------------------------------------------
# Fox calculus on the integral group ring

RingElement = dict[tuple[int, ...], int]


def _word_fox(letters: tuple[int, ...], j: int) -> RingElement:
    out: RingElement = {}
    for p, x in enumerate(letters):
        if x == j:
            key = letters[:p]
            out[key] = out.get(key, 0) + 1
        elif x == -j:
            key = letters[:p + 1]
            out[key] = out.get(key, 0) - 1
    return {k: c for k, c in out.items() if c}


def fox_derivative(element: Union[Word, RingElement], j: int) -> RingElement:
    """Free derivative with respect to generator j, extended linearly.

    Satisfies d(uv) = d(u) + u d(v), d(a_j) = 1, d(a_j^-1) = -a_j^-1.
    """
    if isinstance(element, Word):
        element = {element.letters: 1}
    out: RingElement = {}
    for letters, coeff in element.items():
        for key, c in _word_fox(letters, j).items():
            out[key] = out.get(key, 0) + coeff * c
    return {k: c for k, c in out.items() if c}


def augmentation(element: RingElement) -> int:
    return sum(element.values())


def fox_coefficient(w: Word, mono: Iterable[int]) -> int:
    """Coefficient of t_{j1}...t_{jk} in the expansion of w, via iterated
    derivatives: innermost derivative is the last variable of the monomial.
    """
    element: RingElement = {w.letters: 1}
    for j in reversed(tuple(mono)):
        element = fox_derivative(element, j)
        if not element:
            return 0
    return augmentation(element)
