"""A validated library of Torelli generators, and parsers for
user-supplied mapping classes (.map) and Torelli words (.tor).

Twists about separating curves act by conjugation on the handles inside
the curve.  Bounding-pair maps ship as literal word tables; each table is
committed only after passing the validation triple (boundary word fixed,
trivial H1 action, nonzero level-2 invariant), which pins the class modulo
the next filtration step.
"""

from __future__ import annotations

import io
from typing import Callable

from .errors import GenusMismatch, ParseError, ValidationFailure
from .freegroup import (MAX_GENUS, MappingClass, Word, WordReader, _trusted,
                        check_genus, conjugate, format_word, invert,
                        letter_name, parse_word, reduce, require_valid)
from .spinquad import (H1Vector, TorelliGenDescriptor, TorelliWord,
                       _trusted_descriptor, basis_vector, h1_sum_text,
                       symbol_bit)


def _run_curve(start: int, end: int) -> Word:
    """Word of the separating curve around handles start..end: the product
    of the handle commutators [a_i, b_i], which is already reduced."""
    return Word(tuple(x for i in range(start, end + 1)
                      for x in (2 * i - 1, 2 * i, 1 - 2 * i, -2 * i)))


def _run_twist(genus: int, start: int, end: int) -> MappingClass:
    """Conjugate the handles in the run by the run's curve; fix the rest.
    Fixes the boundary word because the run is contiguous, so the class is
    built unchecked (the library tests validate every table)."""
    c = _run_curve(start, end)
    ci = invert(c)
    images, inverses = [], []
    for j in range(1, 2 * genus + 1):
        i = (j + 1) // 2
        if start <= i <= end:
            images.append(conjugate(Word((j,)), c))
            inverses.append(conjugate(Word((j,)), ci))
        else:
            images.append(Word((j,)))
            inverses.append(Word((j,)))
    return _trusted(genus, tuple(images), tuple(inverses))


def _handle_pairs(h: int) -> tuple[tuple[H1Vector, H1Vector], ...]:
    """The basis pairs (x_i, y_i) of handles 1..h."""
    return tuple((1 << 2 * i - 2, 1 << 2 * i - 1) for i in range(1, h + 1))


def bscc_twist(genus: int, h: int) -> TorelliGenDescriptor:
    """Twist about the separating curve enclosing handles 1..h, h < g."""
    if not 1 <= h < genus:
        raise GenusMismatch(
            f"subsurface genus must satisfy 1 <= h < g, got h={h}, g={genus}")
    return _trusted_descriptor(f"BSCC:{h}", "bscc", _run_twist(genus, 1, h),
                               _handle_pairs(h))


def boundary_twist(genus: int) -> TorelliGenDescriptor:
    """Twist about a curve parallel to the boundary: conjugation by zeta."""
    check_genus(genus)
    return _trusted_descriptor("BDRY", "bscc", _run_twist(genus, 1, genus),
                               _handle_pairs(genus))


# Bounding-pair word table, genus 2 block.  z is the curve word of the
# band sum of the handle-1 separating curve with a parallel of the second
# a-curve; the pair (that band sum, the a2 curve) cobounds the genus-1
# subsurface spanned by handle 1.  Derived from a disk-with-identifications
# model of the twists and frozen here after passing the validation triple;
# tau_2 equals the wedge of the pair's class with the cobounded handle's
# basis, pinning the class modulo the next filtration step.
_BP_Z = (1, 2, -1, -2, 3)


def _bp_std_action(genus: int) -> MappingClass:
    z = Word(_BP_Z)
    zi = invert(z)
    images = [conjugate(Word((1,)), zi), conjugate(Word((2,)), zi),
              conjugate(Word((3,)), zi),
              reduce((4, -3) + _BP_Z)]
    inverses = [conjugate(Word((1,)), z), conjugate(Word((2,)), z),
                conjugate(Word((3,)), z),
                reduce((4, 3) + zi.letters)]
    for j in range(5, 2 * genus + 1):
        images.append(Word((j,)))
        inverses.append(Word((j,)))
    return _trusted(genus, tuple(images), tuple(inverses))


def bp_map(genus: int) -> TorelliGenDescriptor:
    """The library bounding-pair map `BP:std`: a band-sum curve in the
    class of a2 paired with the a2 curve itself, cobounding handle 1."""
    if genus < 2:
        raise GenusMismatch(f"bounding pairs need genus >= 2, got {genus}")
    return _trusted_descriptor("BP:std", "bp", _bp_std_action(genus),
                               _handle_pairs(1), basis_vector(genus, 3))


def _builtin_names(genus: int) -> list[str]:
    """Names available in .tor files without declaration."""
    names = ["BDRY"] + [f"BSCC:{h}" for h in range(1, genus)]
    if genus >= 2:
        names.append("BP:std")
    return names


def _builtin(genus: int, name: str) -> TorelliGenDescriptor:
    """Build the built-in generator of one of :func:`_builtin_names`."""
    if name == "BDRY":
        return boundary_twist(genus)
    if name == "BP:std":
        return bp_map(genus)
    return bscc_twist(genus, int(name[len("BSCC:"):]))


def builtin_entries(genus: int) -> dict[str, TorelliGenDescriptor]:
    """Every built-in generator at this genus, by name."""
    check_genus(genus)
    return {name: _builtin(genus, name) for name in _builtin_names(genus)}


# ---------------------------------------------------------------------------
# .map files

def _meaningful_lines(text: str):
    """(line_number, content) with comments and blank lines dropped."""
    for ln, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            yield ln, body


def _parse_genus_line(lines) -> int:
    try:
        ln, body = next(lines)
    except StopIteration:
        raise ParseError("empty file, expected a genus line") from None
    parts = body.split()
    if len(parts) != 2 or parts[0] != "genus" or not parts[1].isdecimal():
        raise ParseError("expected `genus <g>`", ln)
    try:
        g = int(parts[1])
    except ValueError:  # more digits than int() converts: above MAX_GENUS
        raise GenusMismatch(f"genus must be in 1..{MAX_GENUS}") from None
    if g < 1:
        raise ParseError("genus must be >= 1", ln)
    check_genus(g)
    return g


def _parse_image_lines(lines, genus: int, reader: WordReader, header_ln: int):
    """2g lines `<gen> -> <tokens>`, each generator exactly once."""
    images: dict[int, Word] = {}
    last_ln = header_ln
    while len(images) < 2 * genus:
        try:
            ln, body = next(lines)
        except StopIteration:
            raise ParseError(
                f"expected {2 * genus} image lines, got {len(images)}",
                last_ln) from None
        last_ln = ln
        if "->" not in body:
            raise ParseError("expected `<gen> -> <tokens>`", ln)
        lhs, rhs = body.split("->", 1)
        target = parse_word(lhs.strip(), genus, line=ln)
        if len(target.letters) != 1 or target.letters[0] < 0:
            raise ParseError("left side must be a single plain generator", ln)
        j = target.letters[0]
        if j in images:
            raise ParseError(f"duplicate image for {letter_name(j)}", ln)
        images[j] = reader.read(rhs.strip(), ln)
    return tuple(images[j] for j in range(1, 2 * genus + 1)), last_ln


def parse_map_file(text: str) -> MappingClass:
    """Parse a .map file; building the class runs its image checks, and
    an inverse block is checked where it is read.

    Layout: a genus line, optional `let <name> = <tokens>` aliases, a
    `map` header with 2g image lines, and an optional `inverse` header
    with 2g more.  Aliases may reference earlier aliases.  The file may
    spell at most MAX_LETTERS letters over its aliases and images
    (TooLarge).
    """
    lines = _meaningful_lines(text)
    genus = _parse_genus_line(lines)
    reader = WordReader(genus)
    aliases: set[str] = set()
    ln, body = 0, None
    for ln, body in lines:
        if body == "map":
            break
        parts = body.split("=", 1)
        head = parts[0].split()
        if len(parts) != 2 or len(head) != 2 or head[0] != "let":
            raise ParseError("expected `let <name> = <tokens>` or `map`", ln)
        name = head[1]
        if name in aliases:
            raise ParseError(f"alias {name!r} redefined", ln)
        aliases.add(name)
        reader.bind(name, reader.read(parts[1].strip(), ln))
    else:
        raise ParseError("missing `map` header", ln if body else 1)
    images, last_ln = _parse_image_lines(lines, genus, reader, ln)
    inverse_images = None
    tail = next(lines, None)
    if tail is not None:
        ln, body = tail
        if body != "inverse":
            raise ParseError("expected `inverse` or end of file", ln)
        inverse_images, last_ln = _parse_image_lines(lines, genus, reader, ln)
        tail = next(lines, None)
        if tail is not None:
            raise ParseError("unexpected content after the inverse block", tail[0])
    return MappingClass(genus, images, inverse_images)


def serialize_map_file(f: MappingClass) -> str:
    """Emit the .map text for a mapping class; inverse of parse_map_file."""
    out = io.StringIO()
    out.write(f"genus {f.genus}\n")
    out.write("map\n")
    for j, w in enumerate(f.images, start=1):
        out.write(f"{letter_name(j)} -> {format_word(w)}\n")
    if f.inverse_images is not None:
        out.write("inverse\n")
        for j, w in enumerate(f.inverse_images, start=1):
            out.write(f"{letter_name(j)} -> {format_word(w)}\n")
    return out.getvalue()


# ---------------------------------------------------------------------------
# .tor files

def _parse_h1_sum(token: str, genus: int, ln: int) -> H1Vector:
    """`x1+y2`-style sums of basis symbols into an H1 vector."""
    v = 0
    for part in token.split("+"):
        part = part.strip()
        k = symbol_bit(part)
        if k is None:
            raise ParseError(f"bad homology term {part!r}", ln)
        if not 0 <= k < 2 * genus:
            raise ParseError(f"homology index {part!r} out of range", ln)
        v ^= 1 << k
    return v


def _parse_pair_list(rest: str, genus: int, ln: int):
    """`(x1 y1)(x2 y2)...` into H1 vector pairs."""
    pairs = []
    s = rest.strip()
    while s:
        if not s.startswith("("):
            raise ParseError("expected `(` starting a pair", ln)
        close = s.find(")")
        if close < 0:
            raise ParseError("unclosed pair", ln)
        inner = s[1:close].split()
        if len(inner) != 2:
            raise ParseError("a pair holds exactly two sums", ln)
        pairs.append((_parse_h1_sum(inner[0], genus, ln),
                      _parse_h1_sum(inner[1], genus, ln)))
        s = s[close + 1:].strip()
    if not pairs:
        raise ParseError("empty pair list", ln)
    return tuple(pairs)


def _basis_pair_handles(pairs, genus: int, ln: int) -> list[int]:
    """Require each pair to be a standard handle pair (x_i, y_i); the
    built-in action model only covers those."""
    basis = _handle_pairs(genus)
    for pair in pairs:
        if pair not in basis:
            raise ParseError(
                "bscc pairs must be standard handle pairs (x_i y_i); "
                "supply general actions through a bp `action` file", ln)
    return [basis.index(pair) + 1 for pair in pairs]


def _inline_bscc(name: str, rest: str, genus: int,
                 ln: int) -> TorelliGenDescriptor:
    if not rest.startswith("pairs"):
        raise ParseError("bscc generator needs `pairs (...)`", ln)
    pairs = _parse_pair_list(rest[len("pairs"):], genus, ln)
    handles = sorted(_basis_pair_handles(pairs, genus, ln))
    if handles != list(range(handles[0], handles[-1] + 1)):
        raise ParseError(
            "bscc handle set must be a contiguous run for the built-in "
            "conjugation model", ln)
    return TorelliGenDescriptor(
        name=name, kind="bscc",
        action=_run_twist(genus, handles[0], handles[-1]), pairs=pairs)


def _inline_bp(name: str, rest: str, genus: int, ln: int,
               load: Callable[[str], str]) -> TorelliGenDescriptor:
    parts = rest.split()
    if (len(parts) < 6 or parts[0] != "class" or parts[2] != "pair"
            or parts[-2] != "action"):
        raise ParseError(
            "bp generator needs `class <sum> pair (<sum> <sum>) action <file>`",
            ln)
    curve_class = _parse_h1_sum(parts[1], genus, ln)
    pair_text = " ".join(parts[3:-2])
    pairs = _parse_pair_list(pair_text, genus, ln)
    if len(pairs) != 1:
        raise ParseError("bp generator takes exactly one pair", ln)
    path = parts[-1]
    action = parse_map_file(load(path))
    # a bp letter may be inverted, which reads the inverse block: check it
    # here, so every verb on the file refuses a bad one alike
    require_valid(action)
    if action.genus != genus:
        raise ParseError(
            f"action file has genus {action.genus}, word has genus {genus}", ln)
    return TorelliGenDescriptor(name=name, kind="bp", action=action,
                                curve_class=curve_class, pairs=pairs,
                                action_path=path)


def read_text(path: str) -> str:
    """Text of a UTF-8 file; a file that cannot be read or decoded is a
    ParseError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path!r}: {exc}") from exc


def parse_tor_file(text: str,
                   load: Callable[[str], str] = read_text) -> TorelliWord:
    """Parse a .tor file into its Torelli word: one (descriptor, exponent)
    pair per letter, with exponent +1 or -1.

    Layout: a genus line, `gen` declarations, and a final `word` line.
    Built-in names (BDRY, BSCC:h, BP:std) need no declaration; each is
    built once, when the word first names it, and every letter naming a
    generator holds the same descriptor.  ``load`` maps a bp action path
    to that file's text.
    """
    lines = _meaningful_lines(text)
    genus = _parse_genus_line(lines)
    builtins = set(_builtin_names(genus))
    entries: dict[str, TorelliGenDescriptor] = {}
    word_line = None
    for ln, body in lines:
        head, _, rest = body.partition(" ")
        if head == "word":
            word_line = (ln, rest.strip())
            break
        if head != "gen":
            raise ParseError("expected `gen` or `word`", ln)
        name, _, spec_rest = rest.strip().partition(" ")
        if not name:
            raise ParseError("missing generator name", ln)
        if name in entries or name in builtins:
            raise ParseError(f"generator {name!r} already defined", ln)
        kind, _, tail = spec_rest.strip().partition(" ")
        if kind == "bscc":
            entries[name] = _inline_bscc(name, tail.strip(), genus, ln)
        elif kind == "bp":
            entries[name] = _inline_bp(name, tail.strip(), genus, ln, load)
        else:
            raise ParseError(f"unknown generator kind {kind!r}", ln)
    if word_line is None:
        raise ParseError("missing `word` line")
    ln, body = word_line
    if next(lines, None) is not None:
        raise ParseError("content after the `word` line", ln + 1)
    if not body:
        raise ParseError("empty word line", ln)
    letters = []
    for tok in body.split():
        name, exp = tok, 1
        if name.endswith("'"):
            name, exp = name[:-1], -1
        if name not in entries:
            if name not in builtins:
                raise ParseError(f"unknown generator name {name!r}", ln)
            entries[name] = _builtin(genus, name)
        letters.append((entries[name], exp))
    return tuple(letters)


def serialize_tor_file(genus: int, word: TorelliWord) -> str:
    """Emit .tor text for a word; built-ins stay bare, inline generators
    are re-declared from their descriptors."""
    builtins = set(_builtin_names(genus))
    out = io.StringIO()
    out.write(f"genus {genus}\n")
    seen = set()
    for d, _exp in word:
        if d.name in builtins or d.name in seen:
            continue
        seen.add(d.name)
        body = descriptor_spec(d)
        if d.kind == "bp":
            if d.action_path is None:
                raise ValidationFailure(
                    f"bp generator {d.name!r} has no action path to emit")
            body += f" action {d.action_path}"
        out.write(f"gen {d.name} {d.kind} {body}\n")
    toks = [d.name + ("'" if exp < 0 else "") for d, exp in word]
    out.write("word " + " ".join(toks) + "\n")
    return out.getvalue()


def descriptor_spec(d: TorelliGenDescriptor) -> str:
    """The `.tor` text of a descriptor's homology data: `pairs (..)(..)`
    for bscc, `class .. pair (..)` for bp (its action path not included)."""
    pairs = "".join(f"({h1_sum_text(x)} {h1_sum_text(y)})" for x, y in d.pairs)
    if d.kind == "bscc":
        return "pairs " + pairs
    return f"class {h1_sum_text(d.curve_class)} pair {pairs}"
