"""Independent answer checks for the benchmark.

Nothing here imports ``torelli``.  Words are tuples of signed letters
(``2i-1`` is a_i, ``2i`` is b_i, negation inverts), a mapping class is a
pair of image lists (images, inverse images), and every reference answer is
recomputed from first principles:

- composition by plain substitution of images;
- Magnus expansion by plain polynomial products, a_j -> 1 + t_j;
- the CLI's bracket text read back into polynomials through [u,v] = uv - vu;
- Birman-Craggs bits in closed form from a form's basis values;
- form counts 2^(g-1)(2^g+1) and the Witt formula;
- tau additivity over commuting library letters, and the commutator law
  [J(a), J(b)] in J(a+b-1) for classes built as iterated commutators.

A check raises :class:`CheckFailure` with a one-line reason.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from typing import Optional

Poly = dict  # monomial tuple -> int


class CheckFailure(Exception):
    pass


def expect(cond: bool, why: str):
    if not cond:
        raise CheckFailure(why)


# ---------------------------------------------------------------------------
# words and mapping classes


def reduce(letters) -> tuple:
    out: list[int] = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def invert(w) -> tuple:
    return tuple(-x for x in reversed(w))


def substitute(images, w) -> tuple:
    """Image of the word w under the automorphism with these images."""
    out = []
    for x in w:
        out.extend(images[x - 1] if x > 0 else invert(images[-x - 1]))
    return reduce(out)


class MapClass:
    """Images and inverse images of the 2g standard generators."""

    def __init__(self, genus: int, images, inverse):
        self.genus = genus
        self.images = tuple(tuple(w) for w in images)
        self.inverse = tuple(tuple(w) for w in inverse)

    @classmethod
    def identity(cls, genus: int) -> "MapClass":
        gens = tuple((j,) for j in range(1, 2 * genus + 1))
        return cls(genus, gens, gens)

    def then(self, h: "MapClass") -> "MapClass":
        """self after h: a_j -> self(h(a_j)), the order ``torelli`` composes."""
        return MapClass(self.genus,
                        [substitute(self.images, w) for w in h.images],
                        [substitute(h.inverse, w) for w in self.inverse])

    def inv(self) -> "MapClass":
        return MapClass(self.genus, self.inverse, self.images)

    def letters(self) -> int:
        return sum(len(w) for w in self.images)


def product(genus: int, factors) -> MapClass:
    f = MapClass.identity(genus)
    for g in factors:
        f = f.then(g)
    return f


def power(f: MapClass, n: int) -> MapClass:
    g = f if n > 0 else f.inv()
    return product(f.genus, [g] * abs(n))


def commutator(f: MapClass, h: MapClass) -> MapClass:
    return product(f.genus, [f, h, f.inv(), h.inv()])


def boundary_word(genus: int) -> tuple:
    w = []
    for i in range(1, genus + 1):
        w += [2 * i - 1, 2 * i, -(2 * i - 1), -2 * i]
    return tuple(w)


def abelian_matrix(f: MapClass) -> list[list[int]]:
    n = 2 * f.genus
    mat = [[0] * n for _ in range(n)]
    for j, w in enumerate(f.images):
        for x in w:
            mat[abs(x) - 1][j] += 1 if x > 0 else -1
    return mat


def determinant(mat) -> int:
    """Exact determinant by elimination over the rationals."""
    a = [[Fraction(v) for v in row] for row in mat]
    n, det = len(a), Fraction(1)
    for k in range(n):
        piv = next((r for r in range(k, n) if a[r][k] != 0), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det *= a[k][k]
        for r in range(k + 1, n):
            factor = a[r][k] / a[k][k]
            for c in range(k, n):
                a[r][c] -= factor * a[k][c]
    return int(det)


def is_torelli_automorphism(f: MapClass) -> bool:
    """Boundary word fixed, identity on H1, inverses two-sided."""
    n = 2 * f.genus
    zeta = boundary_word(f.genus)
    ab = abelian_matrix(f)
    gens = tuple((j,) for j in range(1, n + 1))
    return (substitute(f.images, zeta) == zeta
            and all(ab[i][j] == (i == j) for i in range(n) for j in range(n))
            and f.then(f.inv()).images == gens
            and f.inv().then(f).images == gens)


# ---------------------------------------------------------------------------
# text forms


def letter_name(x: int, genus: Optional[int] = None) -> str:
    j = abs(x)
    if genus is not None and j == 2 * genus + 1:
        base = "gamma"
    else:
        base = f"a{(j + 1) // 2}" if j % 2 else f"b{j // 2}"
    return base + ("'" if x < 0 else "")


def word_text(w, genus: Optional[int] = None) -> str:
    return " ".join(letter_name(x, genus) for x in w) if w else "1"


def map_file_text(f: MapClass) -> str:
    lines = [f"genus {f.genus}", "map"]
    lines += [f"{letter_name(j)} -> {word_text(w)}"
              for j, w in enumerate(f.images, start=1)]
    lines.append("inverse")
    lines += [f"{letter_name(j)} -> {word_text(w)}"
              for j, w in enumerate(f.inverse, start=1)]
    return "\n".join(lines) + "\n"


_NAME = re.compile(r"([ab])(\d+)$")


def letter_index(name: str) -> int:
    m = _NAME.match(name)
    if not m:
        raise CheckFailure(f"unknown generator name {name!r}")
    i = int(m.group(2))
    return 2 * i - 1 if m.group(1) == "a" else 2 * i


# ---------------------------------------------------------------------------
# polynomials in noncommuting variables


def poly_add(p: Poly, q: Poly, scale: int = 1) -> Poly:
    out = dict(p)
    for m, c in q.items():
        v = out.get(m, 0) + scale * c
        if v:
            out[m] = v
        else:
            out.pop(m, None)
    return out


def poly_mul(p: Poly, q: Poly, cutoff: Optional[int] = None) -> Poly:
    out: Poly = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            if cutoff is not None and len(m1) + len(m2) > cutoff:
                continue
            m = m1 + m2
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def bracket(p: Poly, q: Poly) -> Poly:
    return poly_add(poly_mul(p, q), poly_mul(q, p), -1)


def naive_magnus(w, cutoff: int) -> Poly:
    """Expansion of w truncated at ``cutoff``, by plain polynomial products."""
    acc: Poly = {(): 1}
    for x in w:
        j = abs(x)
        if x > 0:
            letter = {(): 1, (j,): 1}
        else:
            letter = {(j,) * i: (-1) ** i for i in range(cutoff + 1)}
        acc = poly_mul(acc, letter, cutoff)
    return acc


def degree_part(p: Poly, d: int) -> Poly:
    return {m: c for m, c in p.items() if len(m) == d}


class _LieReader:
    """Reads ``2*[a1 [b1 a2]] - [a1 b2]`` back into a polynomial."""

    _TOKEN = re.compile(r"\[|\]|[+-]|\d+\*|[ab]\d+|\S+")

    def __init__(self, text: str):
        self.toks = self._TOKEN.findall(text)
        self.pos = 0

    def _next(self):
        if self.pos >= len(self.toks):
            raise CheckFailure("bracket text ends early")
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def _atom(self) -> Poly:
        tok = self._next()
        if tok == "[":
            u = self._atom()
            v = self._atom()
            expect(self._next() == "]", "unbalanced bracket")
            return bracket(u, v)
        return {(letter_index(tok),): 1}

    def read(self) -> Poly:
        if self.toks == ["0"]:
            return {}
        total: Poly = {}
        sign = 1
        first = True
        while self.pos < len(self.toks):
            tok = self.toks[self.pos]
            if tok in "+-":
                expect(not first or tok == "-", "leading '+'")
                sign = 1 if tok == "+" else -1
                self.pos += 1
            elif not first:
                raise CheckFailure(f"missing sign before {tok!r}")
            coeff = 1
            if self.toks[self.pos].endswith("*"):
                coeff = int(self._next()[:-1])
                expect(coeff > 1, "coefficient 0 or 1 written out")
            total = poly_add(total, self._atom(), sign * coeff)
            sign, first = 1, False
        expect(total != {} or not self.toks, "terms cancel to zero")
        return total


def read_lie(text: str) -> Poly:
    return _LieReader(text).read()


# ---------------------------------------------------------------------------
# references: what is known about a class's displacement series
#
# part(j, k) is the degree-k part of the expansion of f(a_j) a_j^-1, or
# None when the reference cannot know it.


class NaiveRef:
    """Exact parts up to ``cutoff`` from plain expansion of the images."""

    def __init__(self, f: MapClass, cutoff: int):
        self.f = f
        self.genus = f.genus
        self.cutoff = cutoff
        self.series = None   # expanded on first use

    def part(self, j: int, k: int) -> Optional[Poly]:
        if k > self.cutoff:
            return None
        if self.series is None:
            self.series = [naive_magnus(reduce(img + (-j,)), self.cutoff)
                           for j, img in enumerate(self.f.images, start=1)]
        return degree_part(self.series[j - 1], k)


class AdditiveRef:
    """A product of commuting library generators with net exponents.

    tau_k is additive on J(k), so the lowest surviving level and its value
    are sums of the generators' own values, each expanded plainly from its
    short images.  Levels above that one stay unknown.
    """

    def __init__(self, genus: int, exps: dict, gen_refs: dict):
        self.genus = genus
        n = 2 * genus
        self.known: dict[int, list[Poly]] = {1: [{} for _ in range(n)]}
        live = [name for name, e in exps.items() if e]
        cutoff = min(ref.cutoff for ref in gen_refs.values())
        for k in range(2, cutoff + 1):
            # the sum is tau_k only if every letter sits in J(k)
            if any(gen_refs[name].part(j, d) for name in live
                   for j in range(1, n + 1) for d in range(1, k)):
                return
            parts = [{} for _ in range(n)]
            for name in live:
                for j in range(1, n + 1):
                    parts[j - 1] = poly_add(parts[j - 1],
                                            gen_refs[name].part(j, k),
                                            exps[name])
            self.known[k] = parts
            if any(parts):
                return

    def part(self, j: int, k: int) -> Optional[Poly]:
        parts = self.known.get(k)
        return None if parts is None else parts[j - 1]


class DeepRef:
    """A class built to lie in J(level): every part below level vanishes."""

    def __init__(self, genus: int, level: int):
        self.genus = genus
        self.level = level

    def part(self, j: int, k: int) -> Optional[Poly]:
        return {} if k < self.level else None


def known(ref, j: int, k: int) -> Poly:
    p = ref.part(j, k)
    if p is None:
        raise CheckFailure(f"reference cannot decide degree {k}")
    return p


def level_of(ref, kmax: int) -> Optional[int]:
    """Lowest degree <= kmax with a nonzero part, None if all vanish."""
    for k in range(1, kmax + 1):
        if any(known(ref, j, k) for j in range(1, 2 * ref.genus + 1)):
            return k
    return None


# ---------------------------------------------------------------------------
# Z2 forms and the Birman-Craggs closed forms


def forms(genus: int):
    """All basis-value tuples, in lexicographic order."""
    return itertools.product((0, 1), repeat=2 * genus)


def arf(bits) -> int:
    return sum(bits[k] * bits[k + 1] for k in range(0, len(bits), 2)) % 2


def arf0_count(genus: int) -> int:
    return 2 ** (genus - 1) * (2 ** genus + 1)


def rho_closed(bits, word) -> int:
    """word: (name, exponent) pairs of library generators.

    BSCC:h gives sum_{i<=h} q(x_i)q(y_i), BDRY is BSCC:g, and BP:std gives
    0 when q(x2)=1 and q(x1)q(y1) otherwise.
    """
    g = len(bits) // 2
    total = 0
    for name, _exp in word:
        if name == "BP:std":
            total += 0 if bits[2] else bits[0] * bits[1]
        else:
            h = g if name == "BDRY" else int(name.split(":")[1])
            total += sum(bits[2 * i] * bits[2 * i + 1] for i in range(h))
    return total % 2


def form_text(bits) -> str:
    return "q: " + " ".join(f"{'xy'[k % 2]}{k // 2 + 1}={b}"
                            for k, b in enumerate(bits))


# ---------------------------------------------------------------------------
# the free Lie ring


def mobius(n: int) -> int:
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


def witt(rank: int, k: int) -> int:
    return sum(mobius(d) * rank ** (k // d) for d in range(1, k + 1)
               if k % d == 0) // k


def is_lyndon(w) -> bool:
    return bool(w) and all(w < w[i:] for i in range(1, len(w)))


def letters_of(text: str) -> tuple:
    """The letters named in a line of text, in order."""
    return tuple(letter_index(t) for t in re.findall(r"[ab]\d+", text))
