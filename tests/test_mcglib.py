import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torelli.errors import GenusMismatch, ParseError, ValidationFailure
from torelli.freegroup import (
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
from torelli.spinquad import basis_vector, composed_action, validate_descriptor

from helpers import handle_twists


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
        assert (x1, y2) == ((1, 0, 0, 0), (0, 0, 0, 1))
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
        with pytest.raises(ParseError):
            bp_map(2, "diag")

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
        # the tables are built unchecked, so this pins them
        for g in range(1, 9):
            for entry in builtin_entries(g).values():
                assert validate(entry.action).ok
                validate_descriptor(entry)

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
        assert word[0][0].curve_class == (0, 0, 1, 0)
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
