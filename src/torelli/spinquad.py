"""Z2 quadratic forms on H1 of the surface, Arf invariants, and the
Birman-Craggs family of homomorphisms.

A quadratic form is stored by its values on the standard basis
x1, y1, ..., xg, yg and extended to all of H1 by the polarization law
q(u+v) = q(u) + q(v) + u.v, where u.v is the mod-2 intersection pairing.
Forms with Arf invariant 0 index the Birman-Craggs homomorphisms; each is
evaluated on a Torelli word letterwise from its generator descriptor and
summed in Z2.  Over all forms at once, q(v) is affine in the basis values,
so every Birman-Craggs bit of a word is one Boolean polynomial of degree at
most 3 in them (Johnson, Trans. AMS 1980), evaluated on truth tables: one
bit per form in :func:`rho_bits`, one form's values in :func:`rho`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import ArfNonZero, GenusMismatch, ParseError, ValidationFailure
from .freegroup import MappingClass, abelianization, compose, identity_class
from .freelie import H1LieTensor
from .johnson import tau

H1Vector = int
"""An H1 class mod 2 as a bit mask: x_i at bit 2i-2, y_i at bit 2i-1."""

MAX_FORM_GENUS = 8


def basis_vector(genus: int, index: int) -> H1Vector:
    """Standard basis vector; index 2i-1 is x_i, index 2i is y_i."""
    n = 2 * genus
    if not 1 <= index <= n:
        raise GenusMismatch(f"basis index {index} out of range for genus {genus}")
    return 1 << (index - 1)


def symbol_bit(name: str) -> Optional[int]:
    """The bit of basis symbol `x<i>`/`y<i>` in an :data:`H1Vector`, -1
    when the index is 0 or has more digits than int() converts, and None
    when ``name`` is no basis symbol.  Any decimal digits spell the index,
    as int() reads them."""
    kind, digits = name[:1], name[1:]
    if kind not in ("x", "y") or not digits.isdecimal():
        return None
    try:
        i = int(digits)
    except ValueError:  # more digits than int() converts: out of range
        return -1
    return 2 * i - 2 + (kind == "y") if i else -1


def h1_sum_text(v: H1Vector) -> str:
    """`x1+y2`-style text of an H1 vector, `0` for the zero class."""
    return "+".join(f"{'xy'[k & 1]}{k // 2 + 1}"
                    for k in range(v.bit_length()) if v >> k & 1) or "0"


@dataclass(frozen=True, slots=True)
class QuadForm:
    """A Z2 quadratic form, determined by its 2g basis values."""

    basis_values: tuple[int, ...]

    def __post_init__(self):
        if len(self.basis_values) % 2 != 0 or not self.basis_values:
            raise GenusMismatch("need 2g basis values")
        if any(b not in (0, 1) for b in self.basis_values):
            raise ValidationFailure("basis values must be bits")

    @property
    def genus(self) -> int:
        return len(self.basis_values) // 2


def arf(q: QuadForm) -> int:
    """Arf invariant: sum of q(x_i) q(y_i) over the handles."""
    vals = q.basis_values
    return sum(vals[k] * vals[k + 1] for k in range(0, len(vals), 2)) % 2


def _require_symplectic(pairs: Sequence[tuple[H1Vector, H1Vector]], n: int):
    """Pairs of vectors of n coordinates must form part of a symplectic
    basis: x_i.y_j = delta_ij, x_i.x_j = y_i.y_j = 0.

    With the two bits of each handle swapped in one factor, u.v is the
    parity of ``u & swap(v)``.
    """
    even = ((1 << n) - 1) // 3  # the x bits, 0b0101...01
    swapped = [[(u & even) << 1 | (u >> 1) & even for u in p] for p in pairs]
    for i, (xi, yi) in enumerate(pairs):
        for j, (xj, yj) in enumerate(swapped):
            if (xi & yj).bit_count() & 1 != (1 if i == j else 0):
                raise ValidationFailure(
                    f"pair list not symplectic: x_{i + 1}.y_{j + 1} wrong")
            if (xi & xj).bit_count() & 1 or (yi & yj).bit_count() & 1:
                raise ValidationFailure(
                    f"pair list not symplectic: pairs {i + 1},{j + 1} interact")


def _check_form_genus(genus: int) -> None:
    if not 1 <= genus <= MAX_FORM_GENUS:
        raise GenusMismatch(f"genus must be in 1..{MAX_FORM_GENUS}, got {genus}")


def _side(lo: int, hi: int) -> list[tuple[str, int]]:
    """``(text, parity)`` over the basis values of handles lo..hi in
    lexicographic order: the form literal text of those handles, and the
    parity of the number of handles whose two values are both 1."""
    out = [("", 0)]
    for i in range(hi, lo - 1, -1):
        out = [(_literal_cell(i, a, b) + rest, p ^ (a & b))
               for a in (0, 1) for b in (0, 1) for rest, p in out]
    return out


def enumerate_forms(genus: int, arf_filter: Optional[int] = None) -> list[QuadForm]:
    """All 2^{2g} forms in lexicographic basis-value order, optionally
    filtered by Arf invariant.  Supported through genus 8.

    The CLI builds no form: it lists them with :func:`form_literal_blocks`
    and reads Birman-Craggs bits with :func:`rho_bits`."""
    _check_form_genus(genus)
    forms = map(QuadForm, itertools.product((0, 1), repeat=2 * genus))
    return [q for q in forms if arf_filter is None or arf(q) == arf_filter]


def form_literal_blocks(genus: int,
                        arf_filter: Optional[int] = None) -> list[tuple[str, list[str]]]:
    """:func:`form_literal` of each form of :func:`enumerate_forms`, in the
    same order, as ``head + tail`` over ``(head, tails)`` blocks.

    Heads cover the first g // 2 handles and tails the rest.  The Arf
    invariant is the parity of the handles with both values 1, so a head
    takes the tails of matching parity and no form is tested on its own.
    """
    _check_form_genus(genus)
    half = genus // 2
    heads = _side(1, half)
    tails = _side(half + 1, genus)
    if arf_filter is None:
        every = [t for t, _ in tails]
        return [(head, every) for head, _ in heads]
    by_parity = ([t for t, p in tails if p == 0], [t for t, p in tails if p == 1])
    return [(head, by_parity[p ^ arf_filter]) for head, p in heads]


def parse_form_literal(text: str) -> QuadForm:
    """Parse `q: x1=0 y1=1 x2=0 y2=0` (the `q:` prefix is optional).

    Every basis symbol through the largest index mentioned must appear
    exactly once.
    """
    body = text.strip()
    if body.startswith("q:"):
        body = body[2:].strip()
    seen: dict[int, int] = {}
    for tok in body.split():
        name, eq, val = tok.partition("=")
        k = symbol_bit(name)
        if eq != "=" or k is None or k < 0 or val not in ("0", "1"):
            raise ParseError(f"bad form term {tok!r}")
        if k in seen:
            raise ParseError(f"repeated form term {name!r}")
        seen[k] = int(val)
    if not seen:
        raise ParseError("empty form literal")
    n = max(seen) + 1
    if n % 2 == 1:
        n += 1
    # the keys are distinct and below n, so they cover it when there are n
    if len(seen) != n:
        raise ParseError("form literal must cover every basis symbol")
    return QuadForm(tuple(seen[k] for k in range(n)))


def _literal_cell(i: int, a: int, b: int) -> str:
    """Handle i's part of a form literal, with the `q:` prefix on handle 1."""
    return f"{'q:' if i == 1 else ''} x{i}={a} y{i}={b}"


def form_literal(q: QuadForm) -> str:
    vals = q.basis_values
    return "".join(_literal_cell(i, vals[2 * i - 2], vals[2 * i - 1])
                   for i in range(1, q.genus + 1))


# ---------------------------------------------------------------------------
# Torelli generator descriptors

@dataclass(frozen=True, slots=True)
class TorelliGenDescriptor:
    """One named Torelli generator: its action and Birman-Craggs data.

    kind "bscc": a twist about a bounding simple closed curve, with a
    symplectic basis of the bounded subsurface.  kind "bp": a bounding-pair
    map, with the pair's common homology class and a symplectic basis of
    the genus-1 cobounded subsurface.  ``action`` is the free-group action
    used for the tau side of eta2; ``action_path`` is the `.map` file a
    `.tor` file read it from.  Building a descriptor runs
    :func:`validate_descriptor`, so one in hand has symplectic pairs; the
    built-ins, valid by construction, come from :func:`_trusted_descriptor`.
    """

    name: str
    kind: str
    action: MappingClass
    pairs: tuple[tuple[H1Vector, H1Vector], ...] = ()
    curve_class: Optional[H1Vector] = None
    action_path: Optional[str] = None

    def __post_init__(self):
        if self.kind not in ("bscc", "bp"):
            raise ValidationFailure(f"unknown descriptor kind {self.kind!r}")
        if self.kind == "bp" and (self.curve_class is None or len(self.pairs) != 1):
            raise ValidationFailure("bp descriptor needs a curve class and one pair")
        if self.kind == "bscc" and self.curve_class is not None:
            raise ValidationFailure("bscc descriptor carries no curve class")
        validate_descriptor(self)


def _trusted_descriptor(name: str, kind: str, action: MappingClass,
                        pairs: tuple[tuple[H1Vector, H1Vector], ...],
                        curve_class: Optional[H1Vector] = None
                        ) -> TorelliGenDescriptor:
    """Build a descriptor without :func:`validate_descriptor`.

    Only for the built-in library, whose handle pairs are symplectic and
    whose actions fix H1 by construction (the library tests validate every
    built-in through genus 8, and three at genus 63)."""
    d = object.__new__(TorelliGenDescriptor)
    for field, value in (("name", name), ("kind", kind), ("action", action),
                         ("pairs", pairs), ("curve_class", curve_class),
                         ("action_path", None)):
        object.__setattr__(d, field, value)
    return d


def validate_descriptor(d: TorelliGenDescriptor) -> None:
    """Full invariant check: symplectic pairs, nonzero class for bp, an
    action (validated when it was built) in the kernel of the H1 action."""
    n = 2 * d.action.genus
    for x, y in d.pairs:
        if x < 0 or y < 0 or x >> n or y >> n:
            raise ValidationFailure("descriptor vectors of the wrong rank")
    _require_symplectic(d.pairs, n)
    if d.kind == "bp":
        if d.curve_class < 0 or d.curve_class >> n:
            raise ValidationFailure("curve class of the wrong rank")
        if not d.curve_class:
            raise ValidationFailure("bp curve class must be nonzero")
    ab = abelianization(d.action)
    if any(ab[i][j] != (1 if i == j else 0) for i in range(n) for j in range(n)):
        raise ValidationFailure(
            f"descriptor {d.name!r} action does not act trivially on H1")


TorelliWord = Sequence[tuple[TorelliGenDescriptor, int]]


def _bc_sum(word: TorelliWord, basis: Sequence[int], ones: int) -> int:
    """The Birman-Craggs rule summed over the word, as a truth table.

    ``basis`` holds the tables of q(x_1), q(y_1), ..., and ``ones`` that of
    the constant 1; XOR adds and AND multiplies.  q(v) is the XOR of the
    basis tables v picks, complemented when v has an odd number of handles
    with both bits set.  A bscc letter adds q(x) q(y) over its pairs (Arf
    of q on the bounded subsurface); a bp letter adds the same masked by
    1 + q(c).  Exponents are irrelevant in Z2.
    """
    even = ((1 << len(basis)) - 1) // 3  # the x bits, 0b0101...01

    def value(v: H1Vector) -> int:
        table = ones if (v & v >> 1 & even).bit_count() & 1 else 0
        while v:
            table ^= basis[(v & -v).bit_length() - 1]
            v &= v - 1
        return table

    total = 0
    for desc, _exp in word:
        table = 0
        for x, y in desc.pairs:
            table ^= value(x) & value(y)
        if desc.kind == "bp":
            table &= ones ^ value(desc.curve_class)
        total ^= table
    return total


def rho(q: QuadForm, word: TorelliWord) -> int:
    """Birman-Craggs homomorphism for the Arf-0 form q: :func:`_bc_sum`
    on one-bit tables, the values of q, so at any genus."""
    if arf(q) != 0:
        raise ArfNonZero("Birman-Craggs homomorphisms exist only for Arf-0 forms")
    word_genus(word, q.genus)
    return _bc_sum(word, q.basis_values, 1)


def rho_bits(word: TorelliWord, genus: Optional[int] = None) -> str:
    """:func:`rho` of the word at every Arf-0 form of
    :func:`enumerate_forms`, one character '0' or '1' per form, in order.

    No form is visited: each function of the basis values is a truth table,
    a 4^g-bit integer whose bit i is its value at the form of enumeration
    index i, and :func:`_bc_sum` runs the rule on these tables.  Supported
    through genus 8, like :func:`enumerate_forms`.
    """
    g = word_genus(word, genus)
    _check_form_genus(g)
    n = 2 * g
    size = 1 << n
    ones = (1 << size) - 1
    # basis value k (1-based) is bit n-k of the enumeration index: runs of
    # 2^(n-k) zeros then as many ones, repeated across the table
    basis = []
    for k in range(1, n + 1):
        run = 1 << (n - k)
        basis.append((((1 << run) - 1) << run) * (ones // ((1 << 2 * run) - 1)))
    total = _bc_sum(word, basis, ones)
    arf_table = 0
    for k in range(0, n, 2):
        arf_table ^= basis[k] & basis[k + 1]
    # bit i of a table is character i of its reversed binary text
    bits = format(total, f"0{size}b")[::-1]
    arfs = format(arf_table, f"0{size}b")[::-1]
    return "".join(itertools.compress(bits, map("0".__eq__, arfs)))


@dataclass(frozen=True, slots=True)
class Eta2Value:
    """The level-2 combined invariant: tau_2 of the word plus one
    Birman-Craggs bit per Arf-0 form, in enumeration order."""

    genus: int
    tau2: H1LieTensor
    rho_bits: tuple[int, ...]

    def is_trivial(self) -> bool:
        return self.tau2.is_zero() and not any(self.rho_bits)


def word_genus(word: TorelliWord, genus: Optional[int] = None) -> int:
    """Genus of the word's actions, checked against ``genus`` when given
    and against every letter; an empty word needs the explicit genus."""
    if word:
        inferred = word[0][0].action.genus
        if genus is not None and genus != inferred:
            raise GenusMismatch(
                f"word is at genus {inferred}, asked for {genus}")
        for desc, _exp in word:
            if desc.action.genus != inferred:
                raise GenusMismatch(
                    f"word mixes genus {inferred} and {desc.action.genus}")
        return inferred
    if genus is None:
        raise GenusMismatch("empty word needs an explicit genus")
    return genus


def composed_action(word: TorelliWord,
                    genus: Optional[int] = None) -> MappingClass:
    """Left fold of compose over the word's letters, starting from the
    first letter; the empty word acts as the identity."""
    g = word_genus(word, genus)
    f = None
    for desc, exp in word:
        step = desc.action if exp >= 0 else desc.action.inverse()
        f = step if f is None else compose(f, step)
    return identity_class(g) if f is None else f


def eta2(word: TorelliWord, genus: Optional[int] = None) -> Eta2Value:
    """tau_2 of the word together with all Birman-Craggs values.

    tau_2 is a homomorphism on the Torelli group (Johnson, Math. Ann.
    1980), so it is the sum of tau_2 over the word's distinct generators,
    each scaled by its net exponent; a letter counts +1 when its exponent
    is >= 0 and -1 otherwise, as in :func:`composed_action`.  Nothing is
    composed, and no inverse images are needed.
    """
    g = word_genus(word, genus)
    bits = rho_bits(word, g)
    net: dict[int, list] = {}
    for desc, exp in word:
        entry = net.setdefault(id(desc), [desc, 0])
        entry[1] += 1 if exp >= 0 else -1
    t2 = H1LieTensor.zero(g, 2)
    for desc, e in net.values():
        if e:
            t2 = t2.add(tau(desc.action, 2).scale(e))
    return Eta2Value(g, t2, tuple(map(int, bits)))
