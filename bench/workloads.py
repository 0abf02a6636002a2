"""Seeded inputs and query lists for the four workloads.

Each workload writes ``.map``/``.tor`` files into a work directory and
returns one *round*: a fixed list of queries, each one ``cli.main`` argv
with the independent check its answer must pass.  A run repeats whole
rounds, so every run attempts the same mix.

The seed never changes how many queries of each kind a round holds, which
keeps the metrics comparable from one seed to the next.  In sweep and spin
it picks inputs within fixed strata (genus, word length, letter make-up)
and the query order; in long and deep, where one heavy class sets much of a
round's cost, the classes are fixed and the seed sets only the order.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Callable, Optional

import checks as C
from checks import CheckFailure, MapClass, expect, letter_name

NAMES = ("sweep", "long", "deep", "spin")


@dataclass
class Query:
    verb: str                  # label shared by queries of one kind
    argv: list
    check: Callable            # check(code, out) raises CheckFailure


@dataclass
class Workload:
    name: str
    queries: list              # one round
    cold: list                 # argv lists for a cold start: each verb once,
                               # on a small input that does not move with
                               # the seed


class Inputs:
    """Writes input files into the work directory."""

    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)

    def put(self, name: str, text: str) -> str:
        path = os.path.join(self.root, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path


def tor_text(genus: int, word) -> str:
    toks = [n + ("'" if e < 0 else "") for n, e in word]
    return f"genus {genus}\nword {' '.join(toks)}\n"


def net_exponents(word) -> dict:
    out: dict = {}
    for n, e in word:
        out[n] = out.get(n, 0) + e
    return out


def compose_word(lib, genus: int, word) -> MapClass:
    """Left fold of composition over the word, as the CLI reads a .tor."""
    gens = lib[genus]
    return C.product(genus, [gens[n] if e > 0 else gens[n].inv()
                             for n, e in word])


def arf0_forms(genus: int) -> list:
    return [b for b in C.forms(genus) if C.arf(b) == 0]


# ---------------------------------------------------------------------------
# answer checks for each verb


def _bump_digit(text, positions):
    for pos in positions:
        if text[pos].isdigit():
            return text[:pos] + str((int(text[pos]) + 1) % 10) + text[pos + 1:]
    return None


def altered(code, out):
    """For the self-test: the answer with its last digit bumped, or with its
    exit code flipped when it has no digit."""
    new = _bump_digit(out, range(len(out) - 1, -1, -1))
    return (code, new) if new is not None else ((1 if code == 0 else 0), out)


def _bump_first_line(code, out):
    """A depth answer with its depth line changed; the witnesses above the
    depth are not all decidable from an additive or commutator reference."""
    first = out.split("\n", 1)[0]
    return code, _bump_digit(out, range(len(first) - 1, -1, -1)) or out + "x"


def _ok(code):
    expect(code == 0, f"exit {code}")


def _tau_block(lines, ref, k):
    g = ref.genus
    expect(len(lines) == 1 + 2 * g, "tau block has the wrong length")
    expect(lines[0] == f"tau k={k}", f"bad tau header {lines[0]!r}")
    for j, line in enumerate(lines[1:], start=1):
        head = f"{letter_name(j)}: "
        expect(line.startswith(head), f"bad tau line {line!r}")
        expect(C.read_lie(line[len(head):]) == C.known(ref, j, k),
               f"tau k={k} wrong on {letter_name(j)}")


def check_rejected(code, out):
    lines = out.splitlines()
    expect(code in (1, 2), f"exit {code}, expected 1 or 2")
    expect(bool(lines) and lines[-1].startswith("error: ")
           and lines[-1][7:].replace("_", "").isalpha(),
           "no `error: <CODE>` line")


def check_not_in_jk(code, out):
    expect(code == 1 and out == "error: NOT_IN_JK\n", "expected NOT_IN_JK")


def depth_check(ref, max_k):
    def check(code, out):
        _ok(code)
        lines = out.splitlines()
        n = 2 * ref.genus
        if lines and lines[0].startswith("depth >="):
            expect(lines == [f"depth >= {max_k + 1}"], "bad depth line")
            expect(C.level_of(ref, max_k) is None, "depth claimed too deep")
            return
        expect(len(lines) == 1 + n, "wrong number of witness lines")
        head = lines[0].split(" = ")
        expect(head[0] == "depth" and len(head) == 2 and head[1].isdigit(),
               "bad depth line")
        found = []
        for j, line in enumerate(lines[1:], start=1):
            prefix = f"witness {letter_name(j)}: "
            expect(line.startswith(prefix), f"bad witness line {line!r}")
            val = line[len(prefix):]
            w = None if val == "none" else int(val)
            expect(w is None or 1 <= w <= max_k, "witness out of range")
            for k in range(1, (max_k if w is None else w - 1) + 1):
                p = ref.part(j, k)
                expect(p is None or not p,
                       f"{letter_name(j)} moves at degree {k}, below its witness")
            if w is not None:
                p = ref.part(j, w)
                expect(p is None or bool(p), f"{letter_name(j)} witness wrong")
                found.append(w)
        expect(bool(found) and int(head[1]) == min(found),
               "depth is not the least witness")
    check.alter = _bump_first_line
    return check


def tau_check(ref, k):
    def check(code, out):
        if C.level_of(ref, k - 1) is not None:
            return check_not_in_jk(code, out)
        _ok(code)
        _tau_block(out.splitlines(), ref, k)
    return check


def tower_check(ref, max_k):
    def check(code, out):
        _ok(code)
        expect(C.level_of(ref, 1) is None, "reference is not in Torelli")
        lines = out.splitlines()
        expect(lines[:1] == [f"tower k=2..{max_k}"], "bad tower header")
        i, first = 1, None
        for k in range(2, max_k + 1):
            nonzero = any(C.known(ref, j, k)
                          for j in range(1, 2 * ref.genus + 1))
            want = f"k={k}: {'nonzero' if nonzero else 'zero'}"
            expect(lines[i:i + 1] == [want], f"tower line k={k} wrong")
            i += 1
            if nonzero:
                first = k
                break
        if first is None:
            expect(lines[i:] == [f"all zero through k={max_k}"],
                   "bad tower tail")
        else:
            expect(lines[i:i + 1] == [f"first nonzero: k={first}"],
                   "bad first-nonzero line")
            _tau_block(lines[i + 1:], ref, first)
    return check


def tau2_equal(ref_f, ref_h) -> bool:
    """f h^-1 in J(3), for f and h in Torelli: tau_2 is additive there."""
    n = 2 * ref_f.genus
    for ref in (ref_f, ref_h):
        expect(C.level_of(ref, 1) is None, "bordant input not in Torelli")
    return all(C.known(ref_f, j, 2) == C.known(ref_h, j, 2)
               for j in range(1, n + 1))


def bordant_check(expected: Callable[[], bool]):
    def check(code, out):
        _ok(code)
        want = "true" if expected() else "false"
        expect(out == f"bordant k=2: {want}\n", f"bordant should be {want}")
    return check


def morita_check(ref, k):
    def check(code, out):
        if C.level_of(ref, k - 1) is not None:
            return check_not_in_jk(code, out)
        _ok(code)
        expect(out == f"morita k={k}: contained\n",
               "level value must lie in the contraction kernel")
    return check


def present_check(f: MapClass, filled: bool):
    g, n = f.genus, 2 * f.genus
    names = [letter_name(j, g) for j in range(1, n + 1 if filled else n + 2)]
    rels = []
    for j in range(1, n + 1):
        head = () if filled else (j, n + 1, -j, -(n + 1))
        rels.append(C.reduce(head + f.images[j - 1] + (-j,)))
    want = "gens: " + " ".join(names) + "\n" + "".join(
        f"rel: {C.word_text(r, g)}\n" for r in rels)

    def check(code, out):
        _ok(code)
        expect(out == want, "presentation differs from plain substitution")
    return check


def validate_map_check(f: MapClass):
    def check(code, out):
        _ok(code)
        expect(C.is_torelli_automorphism(f), "reference class is not valid")
        det = C.determinant(C.abelian_matrix(f))
        want = ("boundary: pass (zeta fixed)\n"
                f"abelianization: pass (det = {det})\n"
                "inverse: pass (two-sided inverse)\nresult: ok\n")
        expect(out == want, "validation report wrong")
    return check


def validate_tor_check(genus: int, word):
    def check(code, out):
        _ok(code)
        expect(out == f"word length: {len(word)}\ngenus: {genus}\nresult: ok\n",
               "word report wrong")
    return check


def bc_check(word, bits_list):
    """bits_list: one form, or every Arf-0 form for --all-forms."""
    def check(code, out):
        _ok(code)
        bits = "".join(str(C.rho_closed(b, word)) for b in bits_list)
        expect(out == f"rho: {bits}\n", "Birman-Craggs bits wrong")
    return check


def eta2_check(ref, genus: int, word):
    def check(code, out):
        _ok(code)
        lines = out.splitlines()
        n = 2 * genus
        expect(len(lines) == n + 3, "eta2 output has the wrong length")
        _tau_block(lines[:n + 1], ref, 2)
        forms = arf0_forms(genus)
        expect(len(forms) == C.arf0_count(genus), "Arf-0 count")
        bits = "".join(str(C.rho_closed(b, word)) for b in forms)
        expect(lines[n + 1] == f"rho: {bits}", "eta2 rho bits wrong")
        trivial = not any(C.known(ref, j, 2) for j in range(1, n + 1)) \
            and "1" not in bits
        expect(lines[n + 2] == f"trivial: {'true' if trivial else 'false'}",
               "eta2 triviality wrong")
    return check


def forms_check(genus: int, arf: Optional[int]):
    def check(code, out):
        _ok(code)
        lines = out.splitlines()
        listed = [b for b in C.forms(genus) if arf is None or C.arf(b) == arf]
        total = 4 ** genus
        count = {None: total, 0: C.arf0_count(genus),
                 1: total - C.arf0_count(genus)}[arf]
        expect(len(listed) == count, "form count formula")
        expect(lines[-1:] == [f"count: {count}"], "bad count line")
        expect(lines[:-1] == [C.form_text(b) for b in listed],
               "form listing wrong")
    return check


def lie_check(genus: int, k: int, basis: str):
    rank = 2 * genus

    def check(code, out):
        _ok(code)
        lines = out.splitlines()
        dim = C.witt(rank, k)
        expect(lines[0] == f"lie rank={rank} degree={k} basis={basis}",
               "bad lie header")
        expect(lines[-1] == f"dim: {dim}" and len(lines) == dim + 2,
               "Witt dimension wrong")
        prev = ()
        for line in lines[1:-1]:
            w = C.letters_of(line)
            expect(len(w) == k and C.is_lyndon(w) and w > prev,
                   f"{line!r} is not the next Lyndon word")
            if basis == "lyndon":
                poly = C.read_lie(line)
                expect(min(poly) == w and poly[w] == 1,
                       f"{line!r} is not the bracketing of its word")
            prev = w
    return check


def blocks_check(genus: int, k: int):
    want = (f"blocks genus {genus} level {k}\n"
            f"H2-block rank: {C.witt(2 * genus, k)}\n"
            f"H1-block rank: {2 * genus}\nH0-block rank: 0\n"
            "H3-block: NOT COMPUTED\n")

    def check(code, out):
        _ok(code)
        expect(out == want, "block ranks wrong")
    return check


# ---------------------------------------------------------------------------
# sweep: every verb on short library words, plus rejected inputs


SWEEP_WORDS = ((2, 3), (3, 2))   # (genus, longest word): 258 + 72 words
SWEEP_CUTOFF = 3
SWEEP_VERBS = ("depth", "tau", "tau-tower", "morita-check", "bc", "bc-all",
               "eta2", "present", "validate", "bordant")


def _library_letters(lib, genus):
    return [(n, e) for n in sorted(lib[genus]) for e in (1, -1)]


def build_sweep(rng: random.Random, files: Inputs, lib):
    """Every word goes through one verb.  Within each (genus, length) group
    the verbs take turns in a seeded order, so each verb sees about a tenth
    of every group and the cost of a round barely moves with the seed."""
    qs = []
    for genus, longest in SWEEP_WORDS:
        placed = []
        for length in range(1, longest + 1):
            words = list(_words(_library_letters(lib, genus), length))
            rng.shuffle(words)
            turn = rng.randrange(len(SWEEP_VERBS))
            for k, word in enumerate(words):
                f = compose_word(lib, genus, word)
                stem = f"g{genus}_{len(placed)}"
                placed.append((SWEEP_VERBS[(turn + k) % len(SWEEP_VERBS)],
                               k % 2 == 0, word, f, C.NaiveRef(f, SWEEP_CUTOFF),
                               files.put(stem + ".tor", tor_text(genus, word)),
                               files.put(stem + ".map", C.map_file_text(f))))
        for verb, alt, word, f, ref, tor, mp in placed:
            partner = rng.choice(placed)
            qs.append(_sweep_query(rng, verb, alt, genus, word, f, ref, tor,
                                   mp, partner))
    fixed, cold = _fixed_sweep_queries(files, lib)
    qs += fixed
    rng.shuffle(qs)
    return qs, cold


def _sweep_query(rng, verb, alt, genus, word, f, ref, tor, mp, partner):
    k = str(SWEEP_CUTOFF)
    if verb == "depth":
        argv, check = ["depth", "--max-k", k, "-i", mp], depth_check(ref, SWEEP_CUTOFF)
    elif verb == "tau":
        argv, check = ["tau", "-k", "2", "-i", tor], tau_check(ref, 2)
    elif verb == "tau-tower":
        argv = ["tau-tower", "--max-k", k, "-i", mp]
        check = tower_check(ref, SWEEP_CUTOFF)
    elif verb == "morita-check":
        argv, check = ["morita-check", "-k", "2", "-i", mp], morita_check(ref, 2)
    elif verb == "bc":
        form = rng.choice(arf0_forms(genus))
        argv = ["bc", "--form", C.form_text(form), "-i", tor]
        check = bc_check(word, [form])
    elif verb == "bc-all":
        argv = ["bc", "--all-forms", "-i", tor]
        check = bc_check(word, arf0_forms(genus))
    elif verb == "eta2":
        argv, check = ["eta2", "-i", tor], eta2_check(ref, genus, word)
    elif verb == "present":
        argv = ["present", "-i", tor] if alt else ["present", "--filled", "-i", mp]
        check = present_check(f, filled=not alt)
    elif verb == "validate":
        argv = ["validate", "-i", tor if alt else mp]
        check = validate_tor_check(genus, word) if alt else validate_map_check(f)
    else:
        if alt:
            argv = ["bordant", "-k", "2", "-i", tor, "--with", partner[6]]
            other = partner[4]
        else:
            argv = ["bordant", "-k", "2", "-i", tor]
            other = C.NaiveRef(MapClass.identity(genus), 2)
        check = bordant_check(lambda: tau2_equal(ref, other))
    return Query(verb, argv, check)


def _words(letters, length):
    if length == 0:
        yield ()
        return
    for head in _words(letters, length - 1):
        for x in letters:
            yield head + (x,)


def _fixed_sweep_queries(files: Inputs, lib):
    """The same on every seed: Lie/block listings and rejected inputs, and
    the cold-start list, every verb once on the genus-2 bounding-pair map."""
    bp = files.put("bp.map", C.map_file_text(lib[2]["BP:std"]))
    bp_tor = files.put("bp.tor", tor_text(2, [("BP:std", 1)]))
    bp_ref = C.NaiveRef(lib[2]["BP:std"], 2)
    malformed = files.put("malformed.map", "genus 2\nmap\na1 -> a1 a1\n")
    # a1 <-> b1 fixes no boundary word and has determinant -1
    invalid = files.put("invalid.map", "genus 1\nmap\na1 -> b1\nb1 -> a1\n")
    qs = [
        Query("lie", ["lie", "--genus", "2", "-k", "3"], lie_check(2, 3, "lyndon")),
        Query("lie", ["lie", "--genus", "2", "-k", "4", "--basis", "monomial"],
              lie_check(2, 4, "monomial")),
        Query("lie", ["lie", "--genus", "1", "-k", "5"], lie_check(1, 5, "lyndon")),
        Query("blocks", ["blocks", "--genus", "2", "-k", "3"], blocks_check(2, 3)),
        Query("blocks", ["blocks", "--genus", "3", "-k", "4"], blocks_check(3, 4)),
        Query("reject", ["depth", "-i", malformed], check_rejected),
        Query("reject", ["validate", "-i", invalid], check_rejected),
        Query("reject", ["tau", "-k", "3", "-i", bp], tau_check(bp_ref, 3)),
        Query("reject", ["bc", "--all-forms", "-i", bp], check_rejected),
    ]
    # Out-of-range levels.  These escape as a bare ValueError today and so
    # fail on every run until the error contract covers them.
    for argv in (["tau", "-k", "0", "-i", bp],
                 ["bordant", "-k", "0", "-i", bp],
                 ["morita-check", "-k", "0", "-i", bp],
                 ["tau-tower", "--max-k", "1", "-i", bp],
                 ["depth", "--max-k", "-1", "-i", bp],
                 ["blocks", "--genus", "2", "-k", "1"],
                 ["lie", "--genus", "2", "-k", "0"]):
        qs.append(Query("reject-level", argv, check_rejected))
    cold = [["depth", "--max-k", "3", "-i", bp], ["tau", "-k", "2", "-i", bp_tor],
            ["tau-tower", "--max-k", "3", "-i", bp],
            ["morita-check", "-k", "2", "-i", bp],
            ["bc", "--form", C.form_text((0, 0, 0, 0)), "-i", bp_tor],
            ["bc", "--all-forms", "-i", bp_tor], ["eta2", "-i", bp_tor],
            ["present", "-i", bp_tor], ["validate", "-i", bp],
            ["bordant", "-k", "2", "-i", bp_tor],
            ["lie", "--genus", "2", "-k", "3"], ["blocks", "--genus", "2", "-k", "3"]]
    return qs, cold


# ---------------------------------------------------------------------------
# long: products of commuting library generators with long images
#
# One class per stratum: (genus, about how many letters over all images,
# the level the answer shows at, net exponents).  Each is the median-cost
# member of 16 to 30 random exponent vectors of that stratum, timed on a
# 2-core x86-64 host under Python 3.11.7.  The classes are fixed: letting
# the seed pick among members whose summed cost agreed within 2.5% still
# moved latency_p50_ms by up to 29% between seeds, since cost per query
# depends on each class's structure and not on its length alone.  The
# heaviest stratum has two classes so that latency_p90_ms falls inside a
# block of similar queries; a lone 1,028-letter genus-4 class put its two
# ~0.7 s queries alone above a 2x gap, right at the 90th percentile.

LONG_CLASSES = (
    (3, 200, 2, {"BDRY": 1, "BP:std": -1, "BSCC:1": -1}),
    (4, 200, 3, {"BSCC:2": 3}),
    (3, 450, 3, {"BDRY": -2, "BSCC:1": 4, "BSCC:2": 3}),
    (4, 450, 2, {"BP:std": 2, "BSCC:1": -3, "BSCC:3": -2}),
    (3, 800, 2, {"BDRY": 2, "BP:std": 1, "BSCC:1": -2, "BSCC:2": -6}),
    (3, 800, 2, {"BDRY": 2, "BP:std": 2, "BSCC:1": 3, "BSCC:2": -6}),
)


def build_long(rng: random.Random, files: Inputs, lib):
    gen_refs = {g: {n: C.NaiveRef(f, 3) for n, f in lib[g].items()}
                for g in (3, 4)}
    made = []
    for i, (genus, _letters, level, exps) in enumerate(LONG_CLASSES):
        f = C.product(genus, [C.power(lib[genus][n], e)
                              for n, e in exps.items()])
        ref = C.AdditiveRef(genus, exps, gen_refs[genus])
        if C.level_of(ref, level) != level:
            raise CheckFailure(f"long class {exps} is not at level {level}")
        made.append((genus, level, f, ref,
                     files.put(f"long{i}.map", C.map_file_text(f))))
    qs, cold = [], []
    for i, (genus, level, f, ref, path) in enumerate(made):
        # partner: the next class of the same genus, cyclically
        j = next(j for j in list(range(i + 1, len(made))) + list(range(i))
                 if made[j][0] == genus)
        if f.letters() < 300:
            qs.append(Query("depth", ["depth", "--max-k", "8", "-i", path],
                            depth_check(ref, 8)))
        mine = [
            Query("depth", ["depth", "--max-k", "6", "-i", path],
                  depth_check(ref, 6)),
            Query("depth", ["depth", "--max-k", "3", "-i", path],
                  depth_check(ref, 3)),
            Query("tau-tower", ["tau-tower", "--max-k", "6", "-i", path],
                  tower_check(ref, 6)),
            Query("tau", ["tau", "-k", str(level), "-i", path],
                  tau_check(ref, level)),
            Query("bordant", ["bordant", "-k", "2", "-i", path,
                              "--with", made[j][4]],
                  bordant_check(lambda a=ref, b=made[j][3]: tau2_equal(a, b))),
        ]
        qs += mine
        if i == 0:   # cold start: each verb once, on the smallest class
            cold = [q.argv for q in mine]
    rng.shuffle(qs)
    return qs, cold


# ---------------------------------------------------------------------------
# deep: iterated commutators, deep by construction
#
# c1 = BP:std and c2 = t c1 t^-1 for a Dehn twist t about b2; then
# d3 = [c1, c2] lies in J(3) and d4 = [d3, c] in J(4) for c = c1 or c2.
# A variant is (genus, twist sign, c, d3 reversed, d4 reversed); reversing
# a commutator inverts it, which keeps its level but not its cost.  The five
# variants span d4 sizes of about 670, 700, 960, 1,900 and 1,600 letters.
# They are fixed for the same reason as the long classes: a seeded choice
# among variants of near-equal cost moved latency_p50_ms by up to 32%.  Two
# heavy variants and the cheap J(3) queries place the 90th and 50th
# percentiles inside blocks of similar queries, not on a step between two.

DEEP_VARIANTS = ((2, 1, "c2", 0, 0), (3, 1, "c1", 1, 1),
                 (2, -1, "c1", 0, 0), (2, 1, "c1", 0, 0), (3, 1, "c1", 0, 1))


def dehn_twist_b2(genus: int, sign: int) -> MapClass:
    """Twist about the b2 curve: a2 -> a2 b2^sign, other generators fixed.
    It fixes the boundary word since [a2 b2, b2] = [a2, b2]."""
    gens = [(j,) for j in range(1, 2 * genus + 1)]
    images, inverse = list(gens), list(gens)
    images[2], inverse[2] = (3, 4 * sign), (3, -4 * sign)
    return MapClass(genus, images, inverse)


def deep_classes(lib, genus, sign, second, flip3, flip4):
    t = dehn_twist_b2(genus, sign)
    c1 = lib[genus]["BP:std"]
    c2 = C.product(genus, [t, c1, t.inv()])
    d3 = C.commutator(c2, c1) if flip3 else C.commutator(c1, c2)
    c = c1 if second == "c1" else c2
    d4 = C.commutator(c, d3) if flip4 else C.commutator(d3, c)
    return c2, d3, d4


def build_deep(rng: random.Random, files: Inputs, lib):
    qs, cold = [], []
    for i, variant in enumerate(DEEP_VARIANTS):
        genus = variant[0]
        c2, d3, d4 = deep_classes(lib, *variant)
        p_d3, p_d4, p_c2, p_c2d3 = (
            files.put(f"{name}{i}.map", C.map_file_text(f))
            for name, f in (("d3_", d3), ("d4_", d4), ("c2_", c2),
                            ("c2d3_", c2.then(d3))))
        for path, level in ((p_d3, 3), (p_d4, 4)):
            ref = C.DeepRef(genus, level)
            m = level - 1
            mine = [
                Query("depth", ["depth", "--max-k", str(m), "-i", path],
                      depth_check(ref, m)),
                Query("tau-tower", ["tau-tower", "--max-k", str(m), "-i", path],
                      tower_check(ref, m)),
                Query("tau", ["tau", "-k", str(m), "-i", path],
                      tau_check(ref, m)),
            ]
            if level == 3:
                # d3 is in J(3): its level-2 value vanishes, so it lies in
                # the contraction kernel and is bordant to the identity
                mine += [Query("morita-check", ["morita-check", "-k", "2",
                                                "-i", path], morita_check(ref, 2)),
                         Query("bordant", ["bordant", "-k", "2", "-i", path],
                               bordant_check(lambda: True))]
            qs += mine
            if not cold:   # cold start: the first variant's J(3) class
                cold = [q.argv for q in mine]
        # both pairs differ by an element of J(3) = J(2k-1) for k = 2
        pairs = [Query("bordant", ["bordant", "-k", "2", "-i", a, "--with", b],
                       bordant_check(lambda: True))
                 for a, b in ((p_d4, p_d3), (p_c2d3, p_c2))]
        qs += pairs
        if i == 0:
            cold.append(pairs[1].argv)
    rng.shuffle(qs)
    return qs, cold


# ---------------------------------------------------------------------------
# spin: the Z2 form layer at genus 4-8

# (genus, words per round)
SPIN_STRATA = ((4, 8), (5, 3), (6, 2))
SPIN_FORMS = (["forms", "--genus", "7"], ["forms", "--genus", "8", "--arf", "0"])


def _spin_word(rng, genus):
    """Six letters: two BP:std, BDRY and three separating twists.

    rho's cost per letter grows with the letter's subsurface genus, so the
    letters are fixed per genus and the seed picks only signs and order.
    """
    names = ["BP:std", "BP:std", "BDRY", "BSCC:1",
             f"BSCC:{(genus + 1) // 2}", f"BSCC:{genus - 1}"]
    rng.shuffle(names)
    return [(n, rng.choice((1, -1))) for n in names]


def build_spin(rng: random.Random, files: Inputs, lib):
    qs = []
    for genus, count in SPIN_STRATA:
        gen_refs = {n: C.NaiveRef(f, 2) for n, f in lib[genus].items()}
        forms0 = arf0_forms(genus)
        for i in range(count):
            word = _spin_word(rng, genus)
            ref = C.AdditiveRef(genus, net_exponents(word), gen_refs)
            path = files.put(f"spin{genus}_{i}.tor", tor_text(genus, word))
            qs += [Query("eta2", ["eta2", "-i", path],
                         eta2_check(ref, genus, word)),
                   Query("bc-all", ["bc", "--all-forms", "-i", path],
                         bc_check(word, forms0))]
    # cold start: a genus-4 word through both verbs, and the smaller listing
    cold = [q.argv for q in qs[:2]] + [SPIN_FORMS[0]]
    for argv in SPIN_FORMS:
        genus = int(argv[2])
        arf = int(argv[4]) if len(argv) > 3 else None
        qs.append(Query("forms", argv, forms_check(genus, arf)))
    rng.shuffle(qs)
    return qs, cold


BUILDERS = {"sweep": build_sweep, "long": build_long, "deep": build_deep,
            "spin": build_spin}


def build(name: str, seed: int, workdir: str, lib) -> Workload:
    """lib[genus][name]: the library generators as MapClass, genus 2..6."""
    for g, gens in lib.items():
        for n, f in gens.items():
            if not C.is_torelli_automorphism(f):
                raise CheckFailure(f"library generator {n} at genus {g} "
                                   "is not a Torelli automorphism")
    rng = random.Random(f"{name}:{seed}")
    return Workload(name, *BUILDERS[name](rng, Inputs(workdir), lib))
