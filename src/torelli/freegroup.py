"""Words and mapping classes for a genus-g surface with one boundary circle.

The fundamental group of the surface is free of rank 2g on standard
generators a_1, b_1, ..., a_g, b_g.  Letters are nonzero signed integers:
``2i-1`` stands for a_i, ``2i`` for b_i, and negation is inversion.  A word
is always stored freely reduced, one signed byte per letter, so the genus
is at most :data:`MAX_GENUS`.  The boundary circle reads

    zeta = [a_1, b_1] [a_2, b_2] ... [a_g, b_g],

with the commutator convention [u, v] = u v u^-1 v^-1.

A mapping class is recorded by the images of the 2g generators under the
induced automorphism of the free group; any genuine mapping class fixes
zeta exactly, which is the first validation check.  Building a class runs
the shape, boundary and determinant checks; a supplied inverse block is
checked once, the first time it is read (by :meth:`MappingClass.inverse`
or :func:`compose`), so the operations that read images only never pay
for it.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from .errors import (GenusMismatch, MissingInverse, NotReduced, ParseError,
                     TooLarge, ValidationFailure)

# A letter x is stored as the byte x & 0xFF and read back signed by
# array("b"), so |x| <= 127: the 2g surface generators and the
# mapping-torus generator gamma = 2g+1.
MAX_GENUS = 63

# NEG takes the byte of x to the byte of -x, so the inverse of an encoded
# word is data[::-1].translate(NEG); ABS takes it to |x|.
NEG = bytes(-b & 0xFF for b in range(256))
ABS = bytes(min(b, 256 - b) for b in range(256))


def check_genus(genus: int) -> None:
    """Raise GenusMismatch unless 1 <= genus <= MAX_GENUS."""
    if not 1 <= genus <= MAX_GENUS:
        raise GenusMismatch(f"genus must be in 1..{MAX_GENUS}, got {genus}")


def _encode(letters: Iterable[int]) -> bytes:
    """One signed byte per letter; a letter beyond +-127 is a GenusMismatch."""
    try:
        data = array("b", letters).tobytes()
        if 0x80 not in data:
            return data
    except OverflowError:
        pass
    raise GenusMismatch(f"letters beyond +-{2 * MAX_GENUS + 1} need a genus "
                        f"above {MAX_GENUS}")


@dataclass(frozen=True, slots=True, init=False)
class Word:
    """A freely reduced word in the surface group generators.

    Built from its letters, which are checked; ``data`` holds them one
    signed byte each, and ``letters`` decodes them.  The operations below
    build their results from reduced bytes, with no second check.

    >>> Word((1, 2, -1))
    Word("a1 b1 a1'")
    >>> Word((1, -1))
    Traceback (most recent call last):
        ...
    torelli.errors.NotReduced: adjacent inverse pair at position 0
    """

    data: bytes

    def __init__(self, letters: Iterable[int]):
        letters = tuple(letters)
        for pos, (x, y) in enumerate(zip(letters, letters[1:])):
            if x == -y:
                raise NotReduced(f"adjacent inverse pair at position {pos}")
        if 0 in letters:
            raise NotReduced("letter 0 is not a generator index")
        object.__setattr__(self, "data", _encode(letters))

    @property
    def letters(self) -> tuple[int, ...]:
        return tuple(array("b", self.data))

    def __len__(self) -> int:
        return len(self.data)

    def __iter__(self) -> Iterator[int]:
        return iter(array("b", self.data))

    def __bool__(self) -> bool:
        return bool(self.data)

    def __repr__(self) -> str:
        return f"Word({format_word(self)!r})"

    def max_index(self) -> int:
        return max(self.data.translate(ABS), default=0)


def _word(data: bytes) -> Word:
    """A Word on encoded letters already known to be reduced; no check runs."""
    w = object.__new__(Word)
    object.__setattr__(w, "data", data)
    return w


def reduce(letters: Iterable[int]) -> Word:
    """Freely reduce a letter sequence.

    >>> reduce([1, 2, -2, -1, 3])
    Word('a2')
    """
    out: list[int] = []
    for x in letters:
        if x == 0:
            raise NotReduced("letter 0 is not a generator index")
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return _word(_encode(out))


def _join(out: bytearray, seq: bytes, inv: bytes) -> None:
    """Extend the reduced word ``out`` by the reduced word ``seq``, whose
    inverse is ``inv``, cancelling at the join.

    The first L letters of seq cancel exactly when out ends with their
    inverse, inv[n-L:], so the cancelled length is the length of the
    common suffix of out and inv.  Read as big-endian integers of equal
    length, two byte strings agree in their last L bytes exactly when
    their XOR ends in L zero bytes, so L takes a few C calls and no Python
    loop over letters.
    """
    m, n = len(out), len(seq)
    if not m or not n or out[-1] != inv[-1]:
        out += seq
        return
    t = min(m, n)
    x = int.from_bytes(out[m - t:], "big") ^ int.from_bytes(inv[n - t:], "big")
    cancel = ((x & -x).bit_length() - 1) >> 3 if x else t
    del out[m - cancel:]
    out += seq[cancel:]


def multiply(u: Word, v: Word) -> Word:
    """Concatenate and reduce.  multiply(w, invert(w)) is the identity."""
    out = bytearray(u.data)
    _join(out, v.data, v.data[::-1].translate(NEG))
    return _word(bytes(out))


def invert(w: Word) -> Word:
    return _word(w.data[::-1].translate(NEG))


def commutator(u: Word, v: Word) -> Word:
    return multiply(multiply(u, v), multiply(invert(u), invert(v)))


def conjugate(u: Word, by: Word) -> Word:
    """by u by^-1."""
    return multiply(multiply(by, u), invert(by))


def boundary_word(genus: int) -> Word:
    """zeta = [a_1, b_1] ... [a_g, b_g]; the reduced word, length 4g."""
    check_genus(genus)
    return _word(_encode(x for a in range(1, 2 * genus, 2)
                         for x in (a, a + 1, -a, -a - 1)))


# ---------------------------------------------------------------------------
# word <-> token text

def letter_name(letter: int, genus: Optional[int] = None) -> str:
    """Token for a signed letter; index 2g+1 (when genus is given) is the
    mapping-torus generator ``gamma``."""
    j = abs(letter)
    if genus is not None and j == 2 * genus + 1:
        base = "gamma"
    elif j % 2 == 1:
        base = f"a{(j + 1) // 2}"
    else:
        base = f"b{j // 2}"
    return base + ("'" if letter < 0 else "")


def format_word(w: Word, genus: Optional[int] = None) -> str:
    """Render a word in token syntax; the identity renders as ``1``."""
    if not w.letters:
        return "1"
    return " ".join(letter_name(x, genus) for x in w.letters)


# A .map file may spell at most this many letters over its aliases and
# images, counted before free reduction: an alias doubled 40 times would
# spell 2^41 letters.  The benchmark's .map files spell at most 3,526, and
# a depth-5 commutator class of genus 2 with its inverse block 30,132.
MAX_LETTERS = 1_000_000

_TOKENS: dict[int, dict[str, bytes]] = {}


def _token_table(genus: int) -> dict[str, bytes]:
    """The encoded letters of each token ``a<i>``, ``b<i>`` (i <= genus),
    their primed forms, and ``1`` (the empty word).  Built on first use
    and shared, so callers copy it before adding to it."""
    table = _TOKENS.get(genus)
    if table is None:
        table = {"1": b""}
        for i in range(1, genus + 1):
            for name, j in ((f"a{i}", 2 * i - 1), (f"b{i}", 2 * i)):
                table[name] = bytes((j,))
                table[name + "'"] = bytes((-j & 0xFF,))
        _TOKENS[genus] = table
    return table


class WordReader:
    """Reads the token lines of one input at one genus.

    Tokens are ``a<i>``/``b<i>``, a trailing apostrophe inverts, ``1`` is
    the identity, and names bound with :meth:`bind` splice in (inverted
    under the apostrophe).  Every token spelled the usual way is one key
    of ``table``, so a line is the join of its lookups.  The reader counts
    the letters its lines spell and refuses more than :data:`MAX_LETTERS`.
    """

    __slots__ = ("genus", "table", "letters")

    def __init__(self, genus: int):
        self.genus = genus
        self.table = dict(_token_table(max(0, min(genus, MAX_GENUS))))
        self.letters = 0

    def bind(self, name: str, w: Word) -> None:
        """Bind an alias; it shadows a generator of the same name.

        A token is read as a name with at most one apostrophe stripped, so
        alias N is read from the tokens N' and, unless N ends in an
        apostrophe itself, N.  ``1`` always reads as the identity."""
        if name == "1":
            return
        if not name.endswith("'"):
            self.table[name] = w.data
        self.table[name + "'"] = w.data[::-1].translate(NEG)

    def read(self, text: str, line: Optional[int] = None) -> Word:
        """Parse one line of tokens into a reduced word.

        An adjacent inverse pair shows as a zero byte in the XOR of
        ``data[1:]`` and the inverses of ``data[:-1]``; only then does
        :func:`reduce` walk the letters.
        """
        table = self.table
        try:
            parts = [table[tok] for tok in text.split()]
        except KeyError:
            parts = self._spelled(text, line)
        self.letters += sum(map(len, parts))
        if self.letters > MAX_LETTERS:
            loc = "" if line is None else f"line {line}: "
            raise TooLarge(f"{loc}input spells more than {MAX_LETTERS} letters")
        data = b"".join(parts)
        n = len(data) - 1
        if n > 0 and 0 in (int.from_bytes(data[1:], "big")
                           ^ int.from_bytes(data[:-1].translate(NEG), "big")
                           ).to_bytes(n, "big"):
            return reduce(array("b", data))
        return _word(data)

    def _spelled(self, text: str, line: Optional[int]) -> list[bytes]:
        """Token by token, for a line with a token outside the table: a
        generator spelled another way (``a01``), or an error, reported at
        the token's column."""
        parts = []
        col = 0
        for raw in text.split():
            col = text.index(raw, col)
            seq = self.table.get(raw)
            if seq is None:
                seq = _encode((_generator(raw, self.genus, line, col + 1),))
            parts.append(seq)
            col += len(raw)
        return parts


def _generator(raw: str, genus: int, line: Optional[int], col: int) -> int:
    """The letter of a generator token, or the ParseError it raises."""
    tok, inv = raw, False
    if tok.endswith("'"):
        tok, inv = tok[:-1], True
    if tok == "1":
        raise ParseError("1 takes no inverse mark", line, col)
    kind, digits = tok[:1], tok[1:]
    if kind not in ("a", "b") or not digits.isdecimal():
        raise ParseError(f"unknown token {raw!r}", line, col)
    try:
        i = int(digits)
    except ValueError:  # more digits than int() converts: out of range
        i = 0
    if not 1 <= i <= genus:
        raise ParseError(f"generator {tok!r} out of range for genus {genus}",
                         line, col)
    j = 2 * i - 1 if kind == "a" else 2 * i
    return -j if inv else j


def parse_word(text: str, genus: int, aliases: Optional[dict[str, Word]] = None,
               line: Optional[int] = None) -> Word:
    """Parse token syntax into a reduced word, as :meth:`WordReader.read`
    does with ``aliases`` bound."""
    reader = WordReader(genus)
    for name, w in (aliases or {}).items():
        reader.bind(name, w)
    return reader.read(text, line)


# ---------------------------------------------------------------------------
# mapping classes

@dataclass(frozen=True, slots=True)
class MappingClass:
    """A mapping class of the genus-g one-boundary surface, recorded by the
    images of the standard generators.

    ``images[j-1]`` is the image of generator j.  ``inverse_images``, when
    supplied, records the inverse automorphism; it is never computed by
    search.  Building a class checks its shape, that it fixes zeta and
    that its action on H1 has determinant +-1, and raises
    ValidationFailure (naming every failed check of :func:`validate`)
    otherwise.  The inverse block is checked the first time it is read, by
    :meth:`inverse` or :func:`compose`, and raises ValidationFailure there
    if it does not invert the images.  Results of :func:`compose`,
    :meth:`inverse` and :func:`identity_class` are valid by construction
    and skip every check.
    """

    genus: int
    images: tuple[Word, ...]
    inverse_images: Optional[tuple[Word, ...]] = None
    # whether inverse_images is known to invert images
    _inverse_ok: bool = field(default=False, init=False, repr=False,
                              compare=False)

    def __post_init__(self):
        n = 2 * self.genus
        check_genus(self.genus)
        if len(self.images) != n:
            raise GenusMismatch(
                f"expected {n} generator images, got {len(self.images)}")
        for w in self.images:
            if w.max_index() > n:
                raise GenusMismatch(
                    f"image uses generator index {w.max_index()} beyond 2g={n}")
        if self.inverse_images is not None:
            if len(self.inverse_images) != n:
                raise GenusMismatch(
                    f"expected {n} inverse images, got {len(self.inverse_images)}")
            for w in self.inverse_images:
                if w.max_index() > n:
                    raise GenusMismatch(
                        f"inverse image uses index {w.max_index()} beyond 2g={n}")
        if any(c.status == "fail" for c in _image_checks(self)):
            require_valid(self)

    def is_identity(self) -> bool:
        return all(w.data == bytes((j,))
                   for j, w in enumerate(self.images, start=1))

    def inverse(self) -> "MappingClass":
        if self.inverse_images is None:
            raise MissingInverse("mapping class carries no inverse images")
        _require_inverse(self)
        return _trusted(self.genus, self.inverse_images, self.images)


def _trusted(genus: int, images: tuple[Word, ...],
             inverse_images: Optional[tuple[Word, ...]] = None) -> MappingClass:
    """Build a class without the checks of ``MappingClass.__post_init__``,
    its inverse block (if any) taken as checked.

    Only for classes valid by construction: composites and inverses of
    valid classes, the built-in generator tables, and the class of inverse
    images :func:`validate` builds (which must not validate itself)."""
    f = object.__new__(MappingClass)
    object.__setattr__(f, "genus", genus)
    object.__setattr__(f, "images", images)
    object.__setattr__(f, "inverse_images", inverse_images)
    object.__setattr__(f, "_inverse_ok", True)
    return f


def identity_class(genus: int) -> MappingClass:
    check_genus(genus)
    gens = tuple(_word(bytes((j,))) for j in range(1, 2 * genus + 1))
    return _trusted(genus, gens, gens)


def displacements(f: MappingClass) -> tuple[Word, ...]:
    """The words f(alpha_j) alpha_j^-1, one per generator j."""
    return tuple(multiply(image, Word((-j,)))
                 for j, image in enumerate(f.images, start=1))


def apply(f: MappingClass, w: Word) -> Word:
    """Image of a word under f, reduced.

    Substitutes encoded images into one bytearray; :func:`_join` cancels
    each join in C.  Each image used is inverted once, and the result is
    built from the reduced bytes without a second check.
    """
    n = 2 * f.genus
    if w.max_index() > n:
        raise GenusMismatch(
            f"word uses generator index {w.max_index()} beyond 2g={n}")
    images = f.images
    subst: dict[int, tuple[bytes, bytes]] = {}
    out = bytearray()
    for b in w.data:
        pair = subst.get(b)
        if pair is None:
            seq = images[ABS[b] - 1].data
            inv = seq[::-1].translate(NEG)
            pair = subst[b] = (seq, inv) if b < 0x80 else (inv, seq)
        _join(out, *pair)
    return _word(bytes(out))


def compose(f: MappingClass, h: MappingClass) -> MappingClass:
    """The mapping class acting as f after h.

    Images substitute h's images into f; inverse images (when both factors
    carry them) compose the other way around, so each block is checked
    here if it has not been yet.  The composite of valid classes fixes
    zeta, has determinant +-1 and is inverted by the composite of the
    inverses, so it is built unchecked.
    """
    if f.genus != h.genus:
        raise GenusMismatch(f"genus mismatch: {f.genus} vs {h.genus}")
    images = tuple(apply(f, w) for w in h.images)
    inverse_images = None
    if f.inverse_images is not None and h.inverse_images is not None:
        _require_inverse(f)
        _require_inverse(h)
        h_inv = _trusted(h.genus, h.inverse_images)
        inverse_images = tuple(apply(h_inv, w) for w in f.inverse_images)
    return _trusted(f.genus, images, inverse_images)


def abelianization(f: MappingClass) -> list[list[int]]:
    """The induced 2g x 2g integer matrix on H_1: column j lists the signed
    letter counts of the image of generator j."""
    n = 2 * f.genus
    mat = [[0] * n for _ in range(n)]
    for j, w in enumerate(f.images):
        for b in w.data:
            if b < 0x80:
                mat[b - 1][j] += 1
            else:
                mat[255 - b][j] -= 1
    return mat


def _int_det(mat: list[list[int]]) -> int:
    # Bareiss fraction-free elimination; exact over the integers.
    a = [row[:] for row in mat]
    n = len(a)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[-1][-1]


@dataclass(frozen=True, slots=True)
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "skipped"
    detail: str = ""


@dataclass(frozen=True, slots=True)
class ValidationReport:
    genus: int
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.status != "fail" for c in self.checks)


def _image_checks(f: MappingClass) -> list[CheckResult]:
    """The checks that read images only: boundary word fixed exactly, and
    abelianized action of determinant +-1.  Building a class runs them."""
    checks = []
    zeta = boundary_word(f.genus)
    img = apply(f, zeta)
    if img == zeta:
        checks.append(CheckResult("boundary", "pass", "zeta fixed"))
    else:
        checks.append(CheckResult("boundary", "fail",
                                  f"zeta maps to {format_word(img)}"))
    det = _int_det(abelianization(f))
    status = "pass" if det in (1, -1) else "fail"
    checks.append(CheckResult("abelianization", status, f"det = {det}"))
    return checks


def validate(f: MappingClass) -> ValidationReport:
    """Structural checks: boundary word fixed exactly, abelianized action
    of determinant +-1, and (when inverse images are supplied) that the two
    automorphisms invert each other, read off the one product f g."""
    checks = _image_checks(f)
    if f.inverse_images is None:
        checks.append(CheckResult("inverse", "skipped", "inverse images not supplied"))
    else:
        # f g = id makes f onto.  Free groups of finite rank are Hopfian
        # (Magnus-Karrass-Solitar, Combinatorial Group Theory, 2.4), so an
        # onto endomorphism is an automorphism: g = f^-1 and g f = id too.
        g_inv = _trusted(f.genus, f.inverse_images)
        ok = compose(f, g_inv).is_identity()
        if ok:
            object.__setattr__(f, "_inverse_ok", True)
        checks.append(CheckResult("inverse", "pass" if ok else "fail",
                                  "two-sided inverse" if ok else
                                  "compositions are not the identity"))
    return ValidationReport(f.genus, tuple(checks))


def require_valid(f: MappingClass) -> ValidationReport:
    """The report of :func:`validate`; raise ValidationFailure naming every
    failed check instead if one fails."""
    report = validate(f)
    if not report.ok:
        failing = "; ".join(f"{c.name}: {c.detail}" for c in report.checks
                            if c.status == "fail")
        raise ValidationFailure(f"mapping class rejected ({failing})")
    return report


def _require_inverse(f: MappingClass) -> None:
    """Check f's inverse block the first time it is read; it is known
    to pass afterwards."""
    if not f._inverse_ok:
        require_valid(f)
