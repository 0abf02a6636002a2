"""Free Lie ring on r letters, coordinatized by Lyndon words.

A Lyndon word is lexicographically strictly smaller than all of its proper
suffixes; the bracketed Lyndon words of degree d form a basis of the
degree-d layer of the free Lie ring over the integers, of dimension given
by the Witt formula.  Bracketing uses the standard factorization w = u v
with v the smallest proper suffix.

Expanding a bracketed Lyndon word into the tensor algebra is triangular:
the smallest monomial is the word itself, with coefficient 1.  Coordinate
extraction runs that triangle backwards and certifies on the way that the
input really was a Lie element.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

from .errors import NotALieElement, TooLarge

Polynomial = dict[tuple[int, ...], int]


def _mobius(n: int) -> int:
    if n == 1:
        return 1
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    if n > 1:
        result = -result
    return result


# Bound on degree * ceil(log2 rank), the bits of the largest power that
# witt_dim takes.  The rank it returns then has at most 1,234 decimal
# digits, well inside the 4,300 that Python converts to text by default
# (3.10.7 and later).
MAX_WITT_BITS = 4096


def witt_dim(rank: int, degree: int) -> int:
    """Rank of the degree-d layer of the free Lie ring on ``rank`` letters:
    (1/d) sum over the divisors e of d of mu(e) rank^(d/e).

    Refused with TooLarge, before any power is taken, when
    degree * ceil(log2 rank) exceeds MAX_WITT_BITS."""
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    bits = degree * (rank - 1).bit_length()
    if bits > MAX_WITT_BITS:
        raise TooLarge(f"the degree-{degree} layer on {rank} letters is not "
                       f"ranked: degree * ceil(log2 rank) = {bits} exceeds "
                       f"{MAX_WITT_BITS}")
    total = 0
    e = 1
    while e * e <= degree:
        if degree % e == 0:
            total += _mobius(e) * rank ** (degree // e)
            if e * e != degree:
                total += _mobius(degree // e) * rank ** e
        e += 1
    return total // degree


def is_lyndon(word: tuple[int, ...]) -> bool:
    if not word:
        return False
    return all(word < word[i:] for i in range(1, len(word)))


def lyndon_words(rank: int, max_degree: int) -> list[tuple[int, ...]]:
    """All Lyndon words over 1..rank of length <= max_degree, in lex order
    (Duval's generation)."""
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    out: list[tuple[int, ...]] = []
    w = [1]
    while w:
        out.append(tuple(w))
        m = len(w)
        while len(w) < max_degree:
            w.append(w[len(w) % m])
        while w and w[-1] == rank:
            w.pop()
        if w:
            w[-1] += 1
    return out


def lyndon_basis(rank: int, degree: int) -> list[tuple[int, ...]]:
    return [w for w in lyndon_words(rank, degree) if len(w) == degree]


def standard_factorization(word: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split w = u v with v the lex-smallest proper suffix."""
    if len(word) < 2:
        raise ValueError("factorization needs length >= 2")
    best = 1
    for i in range(2, len(word)):
        if word[i:] < word[best:]:
            best = i
    return word[:best], word[best:]


def _concat_mul(p: Polynomial, q: Polynomial) -> Polynomial:
    out: Polynomial = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            key = m1 + m2
            out[key] = out.get(key, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def _commutator_poly(p: Polynomial, q: Polynomial) -> Polynomial:
    out = dict(_concat_mul(p, q))
    for k, c in _concat_mul(q, p).items():
        new = out.get(k, 0) - c
        if new:
            out[k] = new
        elif k in out:
            del out[k]
    return out


@lru_cache(maxsize=None)
def bracket_polynomial(word: tuple[int, ...]) -> Polynomial:
    """Tensor-algebra expansion of the bracketed Lyndon word.  Treat the
    returned dict as read-only; it is cached."""
    if not is_lyndon(word):
        raise ValueError(f"{word} is not a Lyndon word")
    if len(word) == 1:
        return {word: 1}
    u, v = standard_factorization(word)
    return _commutator_poly(bracket_polynomial(u), bracket_polynomial(v))


def to_lyndon_coords(poly: Polynomial, degree: int) -> dict[tuple[int, ...], int]:
    """Coordinates of a homogeneous degree-d Lie element in the Lyndon
    basis; raises NotALieElement (with the surviving remainder attached)
    when the input is not in the Lie ring."""
    rem: Polynomial = {}
    for m, c in poly.items():
        if c == 0:
            continue
        if len(m) != degree:
            raise ValueError(f"monomial {m} is not homogeneous of degree {degree}")
        rem[m] = c
    coords: dict[tuple[int, ...], int] = {}
    while rem:
        m = min(rem)
        if not is_lyndon(m):
            raise NotALieElement(
                f"lowest surviving monomial {m} is not a basis word",
                remainder=dict(rem))
        c = rem[m]
        coords[m] = c
        for mono, cc in bracket_polynomial(m).items():
            new = rem.get(mono, 0) - c * cc
            if new:
                rem[mono] = new
            elif mono in rem:
                del rem[mono]
    return coords


@dataclass
class LieElement:
    """Homogeneous element of the free Lie ring in Lyndon coordinates."""

    rank: int
    degree: int
    coords: dict[tuple[int, ...], int] = field(default_factory=dict)

    def __post_init__(self):
        cleaned = {}
        for w, c in self.coords.items():
            if c == 0:
                continue
            if len(w) != self.degree:
                raise ValueError(f"basis word {w} has wrong degree")
            if not is_lyndon(w):
                raise ValueError(f"{w} is not a basis word")
            if any(not 1 <= x <= self.rank for x in w):
                raise ValueError(f"{w} uses letters beyond rank {self.rank}")
            cleaned[w] = c
        self.coords = cleaned

    @classmethod
    def zero(cls, rank: int, degree: int) -> "LieElement":
        return cls(rank, degree, {})

    @classmethod
    def from_polynomial(cls, rank: int, degree: int, poly: Polynomial) -> "LieElement":
        return cls(rank, degree, to_lyndon_coords(poly, degree))

    def is_zero(self) -> bool:
        return not self.coords

    def add(self, other: "LieElement") -> "LieElement":
        if (self.rank, self.degree) != (other.rank, other.degree):
            raise ValueError("mismatched Lie layers")
        coords = dict(self.coords)
        for w, c in other.coords.items():
            coords[w] = coords.get(w, 0) + c
        return LieElement(self.rank, self.degree, coords)

    def scale(self, c: int) -> "LieElement":
        return LieElement(self.rank, self.degree,
                          {w: c * v for w, v in self.coords.items()})

    def neg(self) -> "LieElement":
        return self.scale(-1)

    def to_polynomial(self) -> Polynomial:
        out: Polynomial = {}
        for w, c in self.coords.items():
            for mono, cc in bracket_polynomial(w).items():
                new = out.get(mono, 0) + c * cc
                if new:
                    out[mono] = new
                elif mono in out:
                    del out[mono]
        return out

    def sorted_items(self) -> list[tuple[tuple[int, ...], int]]:
        return [(w, self.coords[w]) for w in sorted(self.coords)]


def lie_bracket(x: LieElement, y: LieElement) -> LieElement:
    if x.rank != y.rank:
        raise ValueError("mismatched ranks")
    poly = _commutator_poly(x.to_polynomial(), y.to_polynomial())
    return LieElement.from_polynomial(x.rank, x.degree + y.degree, poly)


def generator_element(rank: int, j: int) -> LieElement:
    return LieElement(rank, 1, {(j,): 1})


# ---------------------------------------------------------------------------
# H_1 tensor the Lie ring, and the bracket contraction

@dataclass
class H1LieTensor:
    """Element of H_1 tensor (degree-d Lie layer) for a genus-g surface.

    ``components[j-1]`` is the Lie element sitting in the slot of basis
    vector j of H_1, so the tensor reads sum_j e_j (x) components[j-1].
    A level-d Johnson value has the same shape, read as a homomorphism:
    ``components[j-1]`` is the value on generator j.
    """

    genus: int
    degree: int
    components: tuple[LieElement, ...]

    def __post_init__(self):
        n = 2 * self.genus
        if len(self.components) != n:
            raise ValueError(f"expected {n} components, got {len(self.components)}")
        for comp in self.components:
            if comp.rank != n or comp.degree != self.degree:
                raise ValueError("component in the wrong Lie layer")

    @classmethod
    def zero(cls, genus: int, degree: int) -> "H1LieTensor":
        rank = 2 * genus
        return cls(genus, degree,
                   tuple(LieElement.zero(rank, degree) for _ in range(rank)))

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def add(self, other: "H1LieTensor") -> "H1LieTensor":
        if (self.genus, self.degree) != (other.genus, other.degree):
            raise ValueError("mismatched tensors")
        return H1LieTensor(
            self.genus, self.degree,
            tuple(a.add(b) for a, b in zip(self.components, other.components)))

    def scale(self, c: int) -> "H1LieTensor":
        return H1LieTensor(self.genus, self.degree,
                           tuple(comp.scale(c) for comp in self.components))

    def neg(self) -> "H1LieTensor":
        return self.scale(-1)


def bracket_map(tensor: H1LieTensor) -> LieElement:
    """Contraction H_1 (x) L_d -> L_{d+1} sending e_j (x) s to [x_j, s]."""
    rank = 2 * tensor.genus
    total = LieElement.zero(rank, tensor.degree + 1)
    for j, comp in enumerate(tensor.components, start=1):
        if comp.is_zero():
            continue
        total = total.add(lie_bracket(generator_element(rank, j), comp))
    return total
