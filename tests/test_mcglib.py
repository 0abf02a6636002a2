import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torelli.errors import (GenusMismatch, ParseError, TooLarge, TorelliError,
                            ValidationFailure)
from torelli.freegroup import (
    MappingClass,
    Word,
    apply,
    boundary_word,
    commutator,
    compose,
    conjugate,
    format_word,
    identity_class,
    invert,
    validate,
)
from torelli.johnson import filtration_depth, tau
from torelli.mcglib import (
    boundary_twist,
    bp_map,
    bscc_twist,
    builtin_entries,
    parse_map_file,
    parse_tor_file,
    serialize_map_file,
    serialize_tor_file,
)
from torelli.spinquad import (basis_vector, composed_action, h1_sum_text,
                              parse_form_literal, validate_descriptor)

from helpers import (as_tuple, handle_twists, naive_form_literal, naive_h1_sum,
                     symplectic_failure)


class TestSurfaceModel:
    """The genus-g one-boundary surface the built-ins are written on."""

    def test_generator_names(self):
        lines = serialize_map_file(bp_map(2).action).splitlines()
        assert [ln.split(" -> ")[0] for ln in lines[2:6]] == [
            "a1", "b1", "a2", "b2"]

    def test_zeta(self):
        z = boundary_word(3)
        for entry in builtin_entries(3).values():
            assert apply(entry.action, z) == z

    def test_basis_vectors(self):
        x1, y1, x2, y2 = (basis_vector(2, i) for i in range(1, 5))
        assert (x1, y1, x2, y2) == (0b0001, 0b0010, 0b0100, 0b1000)
        assert bscc_twist(2, 1).pairs == ((x1, y1),)
        assert boundary_twist(2).pairs == ((x1, y1), (x2, y2))
        assert bp_map(2).curve_class == x2
        assert bp_map(2).pairs == ((x1, y1),)

    def test_genus_bound(self):
        with pytest.raises(GenusMismatch):
            boundary_twist(0)
        with pytest.raises(GenusMismatch):
            builtin_entries(0)


class TestBsccTwist:
    def test_images_genus2(self):
        e = bscc_twist(2, 1)
        c = commutator(Word((1,)), Word((2,)))
        assert e.action.images == (
            conjugate(Word((1,)), c), conjugate(Word((2,)), c),
            Word((3,)), Word((4,)))

    def test_validates_and_fixes_h1(self):
        e = bscc_twist(2, 1)
        report = validate(e.action)
        assert report.ok
        validate_descriptor(e)

    def test_tau2_vanishes(self):
        assert tau(bscc_twist(2, 1).action, 2).is_zero()

    def test_deeper_handle_run(self):
        e = bscc_twist(3, 2)
        c2 = Word((1, 2, -1, -2, 3, 4, -3, -4))
        assert e.action.images[0] == conjugate(Word((1,)), c2)
        assert e.action.images[4] == Word((5,))
        assert len(e.pairs) == 2

    @pytest.mark.parametrize("genus,h", [(2, 0), (2, 2), (1, 1), (3, 3)])
    def test_range_errors(self, genus, h):
        with pytest.raises(GenusMismatch):
            bscc_twist(genus, h)


class TestBoundaryTwist:
    def test_conjugates_by_zeta(self):
        e = boundary_twist(2)
        z = boundary_word(2)
        for j, w in enumerate(e.action.images, start=1):
            assert w == conjugate(Word((j,)), z)

    def test_genus1_depth(self):
        assert filtration_depth(boundary_twist(1).action).depth == 3

    def test_descriptor_covers_all_handles(self):
        assert len(boundary_twist(3).pairs) == 3


class TestBpMap:
    def test_validates(self):
        e = bp_map(2)
        assert validate(e.action).ok
        validate_descriptor(e)

    def test_tau2_nonzero(self):
        assert not tau(bp_map(2).action, 2).is_zero()

    def test_depth_exactly_two(self):
        assert filtration_depth(bp_map(2).action).depth == 2

    def test_genus3_extension(self):
        e = bp_map(3)
        assert validate(e.action).ok
        assert e.action.images[4] == Word((5,))
        assert filtration_depth(e.action).depth == 2

    def test_errors(self):
        with pytest.raises(GenusMismatch):
            bp_map(1)

    def test_descriptor_matches_tau2_support(self):
        # tau2 couples the pair's class to the cobounded handle basis:
        # the a2 component dies, the b2 component is the handle-1 bracket
        t2 = tau(bp_map(2).action, 2)
        assert t2.components[2].is_zero()
        assert t2.components[3].coords == {(1, 2): 1}


class TestBuiltinEntries:
    def test_names_genus2(self):
        assert set(builtin_entries(2)) == {"BDRY", "BSCC:1", "BP:std"}

    def test_names_genus1(self):
        assert set(builtin_entries(1)) == {"BDRY"}

    def test_all_validate(self):
        # the tables and descriptors are built unchecked, so this pins them
        for g in range(1, 9):
            for entry in builtin_entries(g).values():
                assert validate(entry.action).ok
                validate_descriptor(entry)
        top = builtin_entries(63)
        for name in ("BDRY", "BSCC:62", "BP:std"):
            assert validate(top[name].action).ok
            validate_descriptor(top[name])

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_composites_validate(self, data):
        # compose and inverse build their results unchecked; the built-ins
        # commute with each other, so the handle twists join the alphabet
        genus = data.draw(st.integers(2, 4))
        alphabet = ([e.action for e in builtin_entries(genus).values()]
                    + handle_twists(genus))
        letters = data.draw(st.lists(
            st.tuples(st.integers(0, len(alphabet) - 1), st.booleans()),
            max_size=6))
        f = identity_class(genus)
        for i, inv in letters:
            f = compose(f, alphabet[i].inverse() if inv else alphabet[i])
        assert validate(f).ok
        assert validate(f.inverse()).ok


IDENTITY_MAP = """\
genus 1
map
a1 -> a1
b1 -> b1
"""

BDRY_MAP = """\
# twist along a curve hugging the boundary
genus 1
let z = a1 b1 a1' b1'
map
a1 -> z a1 z'
b1 -> z b1 z'
inverse
a1 -> z' a1 z
b1 -> z' b1 z
"""


class TestParseMapFile:
    def test_identity(self):
        f = parse_map_file(IDENTITY_MAP)
        assert f.is_identity()

    def test_alias_expansion(self):
        f = parse_map_file(BDRY_MAP)
        assert f.images == boundary_twist(1).action.images
        assert f.inverse_images == boundary_twist(1).action.inverse_images

    def test_zeta_violation_rejected(self):
        text = ("genus 2\nmap\na1 -> a2\nb1 -> b1\na2 -> a1\nb2 -> b2\n")
        with pytest.raises(ValidationFailure):
            parse_map_file(text)

    def test_comments_and_blanks_ignored(self):
        text = "\n# header\ngenus 1\n\nmap  # start\na1 -> a1\nb1 -> b1\n"
        assert parse_map_file(text).is_identity()

    @pytest.mark.parametrize("text,fragment", [
        ("", "genus"),
        ("genus x\n", "genus"),
        ("genus 1\na1 -> a1\n", "map"),
        ("genus 1\nmap\na1 -> a1\n", "image lines"),
        ("genus 1\nmap\na1 -> a1\na1 -> a1\n", "duplicate"),
        ("genus 1\nmap\na1 b1 -> a1\nb1 -> b1\n", "single plain"),
        ("genus 1\nmap\na1 -> a1\nb1 -> b1\ninverse\na1 -> a1\nb1 -> b1\nmap\n",
         "after the inverse"),
    ])
    def test_syntax_errors(self, text, fragment):
        with pytest.raises(ParseError) as err:
            parse_map_file(text)
        assert fragment in str(err.value)

    def test_error_carries_line(self):
        with pytest.raises(ParseError) as err:
            parse_map_file("genus 1\nmap\na1 -> a9\nb1 -> b1\n")
        assert err.value.line == 3

    @staticmethod
    def alias_chain(k):
        """x0 = a1 b1 and x_i = x_(i-1) x_(i-1) for i <= k, then the
        identity: x_i spells 2^(i+1) letters, the file 2^(k+2) + 2."""
        return "\n".join(["genus 2", "let x0 = a1 b1"]
                         + [f"let x{i} = x{i - 1} x{i - 1}" for i in range(1, k + 1)]
                         + ["map"] + [f"{c}{i} -> {c}{i}" for i in (1, 2)
                                      for c in "ab"])

    def test_letter_budget(self):
        assert parse_map_file(self.alias_chain(17)).is_identity()  # 524,290
        with pytest.raises(TooLarge, match="line 20"):  # 1,048,578
            parse_map_file(self.alias_chain(18))

    def test_aliases_shadow_generators(self):
        # an alias is read from the lines after its own; it shadows the
        # generator of its name on right sides only, `a01` still spells
        # a1, and `1` is never an alias
        text = ("genus 1\nlet a1 = a1 b1 a1' b1'\nlet 1 = b1\nmap\n"
                "a1 -> a1 a01 a1'\nb1 -> 1 a1 b1 a1'\n"
                "inverse\na1 -> a1' a01 a1\nb1 -> a1' b1 a1 1\n")
        assert parse_map_file(text) == boundary_twist(1).action

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_round_trip_random_products(self, data):
        genus = data.draw(st.integers(2, 4))
        alphabet = ([e.action for e in builtin_entries(genus).values()]
                    + handle_twists(genus))
        f = identity_class(genus)
        for i, inv in data.draw(st.lists(st.tuples(
                st.integers(0, len(alphabet) - 1), st.booleans()), max_size=5)):
            f = compose(f, alphabet[i].inverse() if inv else alphabet[i])
        if data.draw(st.booleans()):
            f = MappingClass(genus, f.images)
        assert parse_map_file(serialize_map_file(f)) == f

    def test_round_trip(self):
        for f in (boundary_twist(1).action, bp_map(2).action,
                  bscc_twist(3, 2).action):
            text = serialize_map_file(f)
            again = parse_map_file(text)
            assert again.images == f.images
            assert again.inverse_images == f.inverse_images
            assert serialize_map_file(again) == text


class TestParseTorFile:
    def test_builtin_word(self):
        word = parse_tor_file("genus 2\nword BSCC:1 BP:std\n")
        assert [(e.name, x) for e, x in word] == [("BSCC:1", 1), ("BP:std", 1)]

    def test_inverse_pair_composes_to_identity(self):
        word = parse_tor_file("genus 2\nword BP:std BP:std'\n")
        assert composed_action(word, 2).is_identity()

    def test_commutator_word(self):
        text = "genus 2\ngen T1 bscc pairs (x1 y1)\nword T1 BP:std T1' BP:std'\n"
        word = parse_tor_file(text)
        assert [x for _, x in word] == [1, 1, -1, -1]
        assert word[0][0].action.images == bscc_twist(2, 1).action.images

    def test_unknown_name(self):
        with pytest.raises(ParseError) as err:
            parse_tor_file("genus 2\nword T9\n")
        assert "T9" in str(err.value)

    def test_builds_only_named_builtins(self, monkeypatch):
        import torelli.mcglib as mcg
        built = []
        for name in ("boundary_twist", "bscc_twist", "bp_map"):
            original = getattr(mcg, name)
            monkeypatch.setattr(mcg, name, lambda *a, _f=original, _n=name:
                                built.append(_n) or _f(*a))
        word = parse_tor_file("genus 6\nword BSCC:2 BSCC:2' BSCC:2\n")
        assert built == ["bscc_twist"]
        assert word[0][0] is word[1][0] is word[2][0]
        assert word[0][0].action.images == bscc_twist(6, 2).action.images

    @pytest.mark.parametrize("text,message", [
        ("genus 2\ngen BDRY bscc pairs (x1 y1)\nword BDRY\n",
         "generator 'BDRY' already defined"),
        ("genus 2\ngen T bscc pairs (x1 y1)\ngen T bscc pairs (x2 y2)\n"
         "word T\n", "generator 'T' already defined"),
        ("genus 2\nword BSCC:01\n", "unknown generator name"),
        ("genus 2\nword BSCC:2\n", "unknown generator name"),
        ("genus 1\nword BP:std\n", "unknown generator name"),
    ])
    def test_name_errors(self, text, message):
        with pytest.raises(ParseError, match=message):
            parse_tor_file(text)

    def test_inline_bscc_second_handle(self):
        word = parse_tor_file("genus 2\ngen S bscc pairs (x2 y2)\nword S\n")
        entry = word[0][0]
        d = commutator(Word((3,)), Word((4,)))
        assert entry.action.images[2] == conjugate(Word((3,)), d)
        assert entry.action.images[0] == Word((1,))

    def test_non_contiguous_handles_rejected(self):
        text = "genus 3\ngen S bscc pairs (x1 y1)(x3 y3)\nword S\n"
        with pytest.raises(ParseError) as err:
            parse_tor_file(text)
        assert "contiguous" in str(err.value)

    def test_non_basis_pairs_rejected(self):
        text = "genus 2\ngen S bscc pairs (x1+y1 y1)\nword S\n"
        with pytest.raises(ParseError):
            parse_tor_file(text)

    def test_inline_bp_with_loader(self):
        action_text = serialize_map_file(bp_map(2).action)
        text = ("genus 2\n"
                "gen P bp class x2 pair (x1 y1) action table.map\n"
                "word P P'\n")
        word = parse_tor_file(text, load={"table.map": action_text}.__getitem__)
        assert word[0][0].action.images == bp_map(2).action.images
        assert word[0][0].curve_class == basis_vector(2, 3)
        assert word[0][0].action_path == "table.map"

    def test_bp_without_action_path_not_serialized(self):
        # a bp generator re-declared in .tor text must name its action file
        unnamed = dataclasses.replace(bp_map(2), name="P")
        with pytest.raises(ValidationFailure, match="no action path"):
            serialize_tor_file(2, [(unnamed, 1)])

    def test_inline_bp_validates_its_action_once(self, monkeypatch):
        import torelli.freegroup as fg
        calls = []
        original = fg.validate
        monkeypatch.setattr(fg, "validate",
                            lambda f: calls.append(f) or original(f))
        action_text = serialize_map_file(bp_map(2).action)
        text = ("genus 2\n"
                "gen P bp class x2 pair (x1 y1) action t.map\n"
                "word P\n")
        parse_tor_file(text, load={"t.map": action_text}.__getitem__)
        assert len(calls) == 1

    def test_bp_action_failing_boundary_check(self):
        swapped = ("genus 2\nmap\na1 -> a2\nb1 -> b2\na2 -> a1\nb2 -> b1\n")
        text = ("genus 2\n"
                "gen P bp class x2 pair (x1 y1) action t.map\n"
                "word P\n")
        with pytest.raises(ValidationFailure) as err:
            parse_tor_file(text, load={"t.map": swapped}.__getitem__)
        assert "boundary" in str(err.value)

    def test_bp_action_failing_torelli_gate(self):
        # a valid automorphism that moves H1 cannot back a descriptor
        moving = ("genus 2\nmap\na1 -> a1\nb1 -> b1 a1\na2 -> a2\nb2 -> b2\n")
        text = ("genus 2\n"
                "gen P bp class x2 pair (x1 y1) action t.map\n"
                "word P\n")
        with pytest.raises(ValidationFailure):
            parse_tor_file(text, load={"t.map": moving}.__getitem__)

    def test_missing_word_line(self):
        with pytest.raises(ParseError):
            parse_tor_file("genus 2\ngen T1 bscc pairs (x1 y1)\n")

    def test_malformed_descriptor(self):
        with pytest.raises(ParseError):
            parse_tor_file("genus 2\ngen T1 bscc pairs x1 y1\nword T1\n")

    def test_round_trip(self):
        action_text = serialize_map_file(bp_map(2).action)
        loader = {"t.map": action_text}.__getitem__
        text = ("genus 2\n"
                "gen S bscc pairs (x2 y2)\n"
                "gen P bp class x2 pair (x1 y1) action t.map\n"
                "word S BP:std P' S' BDRY\n")
        word = parse_tor_file(text, load=loader)
        emitted = serialize_tor_file(2, word)
        again = parse_tor_file(emitted, load=loader)
        assert [(e.name, x) for e, x in again] == [(e.name, x) for e, x in word]
        for (e1, _), (e2, _) in zip(word, again):
            assert e1.action.images == e2.action.images
        assert serialize_tor_file(2, again) == emitted

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_round_trip_random_words(self, data):
        genus = data.draw(st.integers(2, 4))
        loader = {"t.map": serialize_map_file(bp_map(genus).action)}.__getitem__

        def declared(decl):
            text = f"genus {genus}\ngen {decl}\nword {decl.split()[0]}\n"
            return parse_tor_file(text, load=loader)[0][0]

        alphabet = list(builtin_entries(genus).values())
        for n in range(data.draw(st.integers(0, 3))):
            # a bscc run of handles lo..hi, its pairs in any order
            lo = data.draw(st.integers(1, genus))
            run = data.draw(st.permutations(range(lo, data.draw(
                st.integers(lo, genus)) + 1)))
            alphabet.append(declared(f"S{n} bscc pairs " + "".join(
                f"(x{i} y{i})" for i in run)))
        for n in range(data.draw(st.integers(0, 2))):
            # a bp on one handle pair, with any class the pair leaves nonzero
            h = data.draw(st.integers(1, genus))
            c = data.draw(st.integers(1, 4 ** genus - 1))
            alphabet.append(declared(
                f"P{n} bp class {h1_sum_text(c)} pair (x{h} y{h}) action t.map"))
        word = tuple(data.draw(st.lists(st.tuples(
            st.sampled_from(alphabet), st.sampled_from([1, -1])),
            min_size=1, max_size=6)))
        assert parse_tor_file(serialize_tor_file(genus, word), load=loader) == word


# Basis-symbol indices: in and out of range, leading zeros, digits that
# int() reads (Arabic-Indic) and digits it does not (superscripts), and
# runs longer than int() converts.
_ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
_SUPERSCRIPT = str.maketrans("0123456789", "⁰¹²³⁴⁵⁶⁷⁸⁹")


def spellings(indices):
    """Decimal spellings of the drawn indices that int() reads."""
    return st.one_of(
        indices.map(str),
        st.tuples(st.integers(1, 3), indices).map(lambda z: "0" * z[0] + str(z[1])),
        indices.map(lambda i: str(i).translate(_ARABIC_INDIC)))


def index_texts(genus, clean):
    spelled = spellings(st.integers(1, genus))
    if clean:
        return spelled
    return spelled | st.one_of(
        st.sampled_from([0, genus + 1, 62, 63, 64, 10 ** 9]).map(str),
        st.integers(1, 70).map(lambda i: str(i).translate(_SUPERSCRIPT)),
        st.sampled_from(["1" * 5000, "0" * 4999 + "1", "9" * 5000]),
        st.sampled_from(["", "1a", "-1", "1.0"]))


def symbol_texts(genus, clean=False):
    kinds = st.sampled_from("xy") if clean else st.sampled_from(["x", "y", "z", ""])
    return st.tuples(kinds, index_texts(genus, clean)).map("".join).filter(bool)


def outcome_of(fn, *args):
    """fn(*args), or the type and text of the TorelliError it raises."""
    try:
        return fn(*args)
    except TorelliError as exc:
        return type(exc), str(exc)


class TestH1SymbolText:
    """`.tor` sums and form literals read basis symbols as the regex
    oracles in tests/helpers.py do: the same value or the same error."""

    @staticmethod
    def sum_texts(data, genus):
        count = data.draw(st.integers(1, 3))
        clean = data.draw(st.integers(0, 2)) > 0  # two sums in three
        return "+".join(data.draw(symbol_texts(genus, clean))
                        for _ in range(count))

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_tor_pair_and_class(self, data):
        genus = data.draw(st.integers(2, 4))
        c, x, y = (self.sum_texts(data, genus) for _ in range(3))
        loader = {"t.map": serialize_map_file(bp_map(genus).action)}.__getitem__
        text = (f"genus {genus}\ngen P bp class {c} pair ({x} {y}) "
                f"action t.map\nword P\n")

        def parsed():
            d = parse_tor_file(text, load=loader)[0][0]
            n = 2 * genus
            return tuple(as_tuple(v, n) for v in (d.curve_class,) + d.pairs[0])

        def expected():
            vc, vx, vy = (naive_h1_sum(t, genus, 2) for t in (c, x, y))
            failure = symplectic_failure([(vx, vy)])
            if failure:
                raise ValidationFailure(failure)
            if not any(vc):
                raise ValidationFailure("bp curve class must be nonzero")
            return vc, vx, vy

        assert outcome_of(parsed) == outcome_of(expected)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_form_literal(self, data):
        # every symbol of a genus once, in any order and spelling, less at
        # most one; then up to two more terms of any kind
        genus = data.draw(st.integers(1, 3))
        symbols = data.draw(st.permutations(
            [(kind, i) for i in range(1, genus + 1) for kind in "xy"]))
        symbols = symbols[:data.draw(st.integers(2 * genus - 1, 2 * genus))]
        tokens = [kind + data.draw(spellings(st.just(i))) + "="
                  + data.draw(st.sampled_from("01")) for kind, i in symbols]
        for _ in range(data.draw(st.integers(0, 2))):
            tokens.insert(data.draw(st.integers(0, len(tokens))),
                          data.draw(symbol_texts(genus)) + "="
                          + data.draw(st.sampled_from(["0", "1", "2", ""])))
        text = data.draw(st.sampled_from(["", "q: "])) + " ".join(tokens)
        assert outcome_of(parse_form_literal, text) == \
            outcome_of(naive_form_literal, text)
