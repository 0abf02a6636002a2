"""Command-line front end.

One verb per library operation, plain-text output with fixed ordering.
Exit codes: 0 success, 1 domain errors, 2 usage or syntax errors; every
failure also prints a machine-parsable ``error: <CODE>`` line on stdout.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

from .errors import ParseError, TooLarge, TorelliError
from .freegroup import MappingClass, identity_class, letter_name, require_valid
from .freelie import LieElement, lyndon_basis, standard_factorization, witt_dim
from .johnson import (DEFAULT_DEPTH, DEFAULT_TOWER_MAX, bordant,
                      filtration_depth, morita_check, tau, tau_tower)
from .mcglib import (builtin_entries, descriptor_spec, parse_map_file,
                     parse_tor_file, read_text)
from .present import eta_block_ranks, present_filled, present_mapping_torus
from .spinquad import (composed_action, eta2, form_literal_blocks,
                       parse_form_literal, rho, rho_bits, word_genus)

# ---------------------------------------------------------------------------
# shared text forms


def bracket_text(word: tuple[int, ...], genus: int,
                 memo: Optional[dict] = None) -> str:
    """Render a Lyndon word as its bracketing, innermost letters named.

    ``memo`` maps factors already rendered to their text; a listing passes
    one dict, so each shorter Lyndon word is factorized once per listing.
    """
    if len(word) == 1:
        return letter_name(word[0], genus)
    if memo is None:
        memo = {}
    parts = []
    for factor in standard_factorization(word):
        text = memo.get(factor)
        if text is None:
            text = memo[factor] = bracket_text(factor, genus, memo)
        parts.append(text)
    return f"[{parts[0]} {parts[1]}]"


def lie_text(el: LieElement, genus: int) -> str:
    items = el.sorted_items()
    if not items:
        return "0"
    parts = []
    for word, coeff in items:
        term = bracket_text(word, genus)
        mag = abs(coeff)
        if mag != 1:
            term = f"{mag}*{term}"
        if not parts:
            parts.append(term if coeff > 0 else f"-{term}")
        else:
            parts.append(f"{'+' if coeff > 0 else '-'} {term}")
    return " ".join(parts)


def tau_block(value, genus: int) -> str:
    lines = [f"tau k={value.degree}"]
    for j, comp in enumerate(value.components, start=1):
        lines.append(f"{letter_name(j, genus)}: {lie_text(comp, genus)}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# input loading


def _sniff_kind(text: str) -> str:
    for raw in text.splitlines():
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        head = body.split()[0]
        if head in ("map", "let") or "->" in body:
            return "map"
        if head in ("gen", "word"):
            return "tor"
    return "map"


def load_input(path: str):
    """Parse -i input; returns ("map", MappingClass) or ("tor", word).
    A bp action path inside a .tor file is read relative to that file."""
    text = read_text(path)
    if _sniff_kind(text) == "map":
        return "map", parse_map_file(text)
    base = os.path.dirname(os.path.abspath(path))
    # an absolute action path replaces the base in os.path.join
    return "tor", parse_tor_file(
        text, load=lambda rel: read_text(os.path.join(base, rel)))


def load_mapping_class(path: str) -> MappingClass:
    kind, obj = load_input(path)
    return obj if kind == "map" else composed_action(obj)


def load_tor_word(path: str):
    kind, obj = load_input(path)
    if kind != "tor":
        raise ParseError(f"{path!r} is a .map input; this command needs a "
                         "Torelli word file")
    return obj


# ---------------------------------------------------------------------------
# verbs


def cmd_depth(args) -> int:
    f = load_mapping_class(args.input)
    report = filtration_depth(f, args.max_k)
    if report.depth is None:
        print(f"depth >= {args.max_k + 1}")
    else:
        print(f"depth = {report.depth}")
        for j, w in enumerate(report.witnesses, start=1):
            shown = "none" if w is None else str(w)
            print(f"witness {letter_name(j, f.genus)}: {shown}")
    return 0


def cmd_tau(args) -> int:
    f = load_mapping_class(args.input)
    print(tau_block(tau(f, args.k), f.genus))
    return 0


def cmd_tau_tower(args) -> int:
    f = load_mapping_class(args.input)
    report = tau_tower(f, kmax=args.max_k)
    print(f"tower k={report.kmin}..{report.kmax}")
    for k, value in report.entries:
        print(f"k={k}: {'zero' if value.is_zero() else 'nonzero'}")
    if report.first_nonzero is None:
        print(f"all zero through k={report.kmax}")
    else:
        print(f"first nonzero: k={report.first_nonzero}")
        print(tau_block(report.entries[-1][1], f.genus))
    return 0


def cmd_bordant(args) -> int:
    f = load_mapping_class(args.input)
    if args.with_input is None:
        h = identity_class(f.genus)
    else:
        h = load_mapping_class(args.with_input)
    result = bordant(f, h, args.k)
    print(f"bordant k={args.k}: {'true' if result else 'false'}")
    return 0


def cmd_morita_check(args) -> int:
    f = load_mapping_class(args.input)
    report = morita_check(f, args.k)
    if report.contained:
        print(f"morita k={report.k}: contained")
    else:
        print(f"morita k={report.k}: violated")
        print(f"bracket: {lie_text(report.bracket, f.genus)}")
    return 0


def cmd_bc(args) -> int:
    word = load_tor_word(args.input)
    if args.all_forms:
        print(f"rho: {rho_bits(word)}")
    elif args.form:
        q = parse_form_literal(args.form)
        print(f"rho: {rho(q, word)}")
    else:
        raise ParseError("bc needs --form or --all-forms")
    return 0


def cmd_eta2(args) -> int:
    word = load_tor_word(args.input)
    value = eta2(word)
    print(tau_block(value.tau2, value.genus))
    print("rho: " + "".join(str(b) for b in value.rho_bits))
    print(f"trivial: {'true' if value.is_trivial() else 'false'}")
    return 0


def cmd_forms(args) -> int:
    count = 0
    for head, tails in form_literal_blocks(args.genus, args.arf):
        sys.stdout.write(head + ("\n" + head).join(tails) + "\n")
        count += len(tails)
    print(f"count: {count}")
    return 0


# Largest `lie` listing answered, in basis words.  On a 2-core x86-64 host
# (Python 3.11), with the factor memo of `bracket_text`, genus 2 lists
# 29,120 words (k=9) in 0.6 s and genus 1 lists 99,858 (k=21, 10.3 MB of
# text) in 2.9 s.
MAX_LISTING = 100_000


def cmd_lie(args) -> int:
    rank = 2 * args.genus
    dim = witt_dim(rank, args.k)
    if dim > MAX_LISTING:
        raise TooLarge(f"the degree-{args.k} layer at genus {args.genus} has "
                       f"{dim} basis words; the listing budget is "
                       f"{MAX_LISTING}")
    basis = lyndon_basis(rank, args.k)
    print(f"lie rank={rank} degree={args.k} basis={args.basis}")
    memo: dict = {}
    for word in basis:
        if args.basis == "lyndon":
            print(bracket_text(word, args.genus, memo))
        else:
            print(" ".join(letter_name(x, args.genus) for x in word))
    print(f"dim: {dim}")
    return 0


def cmd_present(args) -> int:
    f = load_mapping_class(args.input)
    p = present_filled(f) if args.filled else present_mapping_torus(f)
    sys.stdout.write(p.text())
    return 0


def cmd_blocks(args) -> int:
    sys.stdout.write(eta_block_ranks(args.genus, args.k).text())
    return 0


def cmd_gens(args) -> int:
    for name, d in sorted(builtin_entries(args.genus).items()):
        print(f"{name} {d.kind} {descriptor_spec(d)}")
    return 0


def cmd_validate(args) -> int:
    kind, obj = load_input(args.input)
    if kind == "map":
        # the parser has rejected a class failing an image check; the
        # inverse block, if any, is checked here, before any output
        for c in require_valid(obj).checks:
            detail = f" ({c.detail})" if c.detail else ""
            print(f"{c.name}: {c.status}{detail}")
        print("result: ok")
    else:
        # descriptors were validated during parsing; report the word
        print(f"word length: {len(obj)}")
        print(f"genus: {word_genus(obj)}")
        print("result: ok")
    return 0


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print("error: USAGE")
        super().error(message)


def _int_at_least(low: int):
    """argparse ``type=`` for integers >= low; anything else is a usage error."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="torelli",
                     description="Johnson filtration invariants of surface "
                                 "mapping classes.")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, handler, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(handler=handler)
        return p

    p = add("depth", cmd_depth, help="filtration depth of a mapping class")
    p.add_argument("-i", dest="input", required=True)
    p.add_argument("--max-k", type=_int_at_least(0), default=DEFAULT_DEPTH)

    p = add("tau", cmd_tau, help="level-k value on the generators")
    p.add_argument("-i", dest="input", required=True)
    p.add_argument("-k", type=_int_at_least(1), required=True)

    p = add("tau-tower", cmd_tau_tower,
            help="successive levels up to the first nonzero one")
    p.add_argument("-i", dest="input", required=True)
    p.add_argument("--max-k", type=_int_at_least(2), default=DEFAULT_TOWER_MAX)

    p = add("bordant", cmd_bordant,
            help="level-k bordism comparison (default: against identity)")
    p.add_argument("-i", dest="input", required=True)
    p.add_argument("--with", dest="with_input")
    p.add_argument("-k", type=_int_at_least(1), required=True)

    p = add("morita-check", cmd_morita_check,
            help="bracket-contraction containment of the level-k value")
    p.add_argument("-i", dest="input", required=True)
    p.add_argument("-k", type=_int_at_least(1), required=True)

    p = add("bc", cmd_bc, help="Birman-Craggs value of a Torelli word")
    p.add_argument("-i", dest="input", required=True)
    p.add_argument("--form")
    p.add_argument("--all-forms", action="store_true")

    p = add("eta2", cmd_eta2,
            help="combined level-2 invariant of a Torelli word")
    p.add_argument("-i", dest="input", required=True)

    p = add("forms", cmd_forms, help="enumerate quadratic forms")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--arf", type=int, choices=(0, 1), default=None)

    p = add("lie", cmd_lie, help="free Lie layer basis and dimension")
    p.add_argument("--genus", type=_int_at_least(1), required=True)
    p.add_argument("-k", type=_int_at_least(1), required=True)
    p.add_argument("--basis", choices=("lyndon", "monomial"),
                   default="lyndon")

    p = add("present", cmd_present, help="mapping-torus presentation")
    p.add_argument("-i", dest="input", required=True)
    p.add_argument("--filled", action="store_true")

    p = add("blocks", cmd_blocks, help="level-k block ranks")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("-k", type=_int_at_least(2), required=True)

    p = add("gens", cmd_gens, help="list the built-in Torelli generators")
    p.add_argument("--genus", type=int, required=True)

    p = add("validate", cmd_validate, help="check an input file")
    p.add_argument("-i", dest="input", required=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ParseError as exc:
        print(f"error: {exc.code}")
        print(str(exc), file=sys.stderr)
        return 2
    except TorelliError as exc:
        print(f"error: {exc.code}")
        print(str(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
