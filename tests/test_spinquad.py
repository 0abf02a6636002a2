import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torelli.errors import ArfNonZero, GenusMismatch, ParseError, ValidationFailure
from torelli.freegroup import (Word, commutator, compose, conjugate,
                               identity_class, invert, MappingClass)
from torelli.johnson import tau
from torelli.mcglib import boundary_twist, bp_map, bscc_twist, builtin_entries
from torelli.spinquad import (
    Eta2Value,
    QuadForm,
    TorelliGenDescriptor,
    arf,
    basis_vector,
    composed_action,
    enumerate_forms,
    eta2,
    form_literal,
    parse_form_literal,
    rho,
    rho_bits,
    validate_descriptor,
)

from helpers import (as_tuple, handle_twists, intersect, naive_form_literal,
                     naive_rho, product_forms, q_eval, symplectic_failure)

bits_st = st.lists(st.sampled_from([0, 1]), min_size=4, max_size=4).map(tuple)


def form(*vals):
    return QuadForm(tuple(vals))


def add_vectors(u, v):
    return tuple((a + b) % 2 for a, b in zip(u, v))


def as_mask(v):
    """The H1 bit mask of a tuple vector."""
    return sum(bit << k for k, bit in enumerate(v))


class TestQEval:
    def test_zero_vector(self):
        q = form(1, 0, 1, 1)
        assert q_eval(q, (0, 0, 0, 0)) == 0

    @pytest.mark.parametrize("idx", range(1, 5))
    def test_basis_values_returned(self, idx):
        q = form(0, 1, 1, 0)
        assert q_eval(q, as_tuple(basis_vector(2, idx), 4)) == \
            q.basis_values[idx - 1]

    def test_cross_term_within_handle(self):
        # q == 0 on the basis, but x1+y1 picks up the intersection term
        q = form(0, 0)
        assert q_eval(q, (1, 1)) == 1

    def test_length_mismatch(self):
        with pytest.raises(GenusMismatch):
            q_eval(form(0, 0), (1, 0, 0, 0))

    @given(bits_st, bits_st, bits_st)
    @settings(max_examples=80, deadline=None)
    def test_polarization_identity(self, qb, u, v):
        q = QuadForm(qb)
        lhs = q_eval(q, add_vectors(u, v))
        rhs = (q_eval(q, u) + q_eval(q, v) + intersect(u, v)) % 2
        assert lhs == rhs

    def test_polarization_exhaustive_g1(self):
        for qb in itertools.product((0, 1), repeat=2):
            q = QuadForm(qb)
            for u in itertools.product((0, 1), repeat=2):
                for v in itertools.product((0, 1), repeat=2):
                    assert q_eval(q, add_vectors(u, v)) == (
                        q_eval(q, u) + q_eval(q, v) + intersect(u, v)) % 2


def random_symplectic(genus, rng, steps=12):
    """Random product of elementary symplectic transvections over Z2,
    acting on row vectors."""
    n = 2 * genus
    mat = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def apply_transvection(v):
        # u -> u + <u, v> v preserves the pairing
        for r in range(n):
            coef = intersect(tuple(mat[r]), v)
            if coef:
                mat[r] = [(a + b) % 2 for a, b in zip(mat[r], v)]

    for _ in range(steps):
        v = tuple(rng.randint(0, 1) for _ in range(n))
        if any(v):
            apply_transvection(v)
    return [tuple(row) for row in mat]


class TestArf:
    def test_zero_form(self):
        assert arf(form(0, 0, 0, 0)) == 0

    def test_genus_one_both_set(self):
        assert arf(form(1, 1)) == 1

    def test_genus_two_all_set(self):
        assert arf(form(1, 1, 1, 1)) == 0

    @pytest.mark.parametrize("genus", [1, 2, 3])
    def test_symplectic_invariance(self, genus):
        rng = random.Random(97 + genus)
        for q in enumerate_forms(genus):
            s = random_symplectic(genus, rng)
            moved = QuadForm(tuple(q_eval(q, row) for row in s))
            assert arf(moved) == arf(q)


def pairs_descriptor(genus, pairs):
    """A bscc descriptor with the given pairs; rho reads only the pairs."""
    return TorelliGenDescriptor(name="P", kind="bscc",
                                action=identity_class(genus), pairs=tuple(pairs))


def arf_on_pairs(q, pairs):
    """Arf of q restricted to the span of the pairs, as rho sums it."""
    return rho(q, [(pairs_descriptor(q.genus, pairs), 1)])


X1, Y1, X2, Y2 = (basis_vector(2, i) for i in range(1, 5))


class TestArfOnPairs:
    def test_empty_pairs(self):
        assert arf_on_pairs(form(1, 1, 1, 1), []) == 0

    def test_single_handle(self):
        assert arf_on_pairs(form(1, 1, 1, 1), [(X1, Y1)]) == 1

    def test_two_handles_cancel(self):
        assert arf_on_pairs(form(1, 1, 1, 1), [(X1, Y1), (X2, Y2)]) == 0

    def test_rejects_non_symplectic(self):
        # a descriptor cannot be built on pairs that are not symplectic
        for pairs, match in ((((X1, X2),), "x_1.y_1 wrong"),
                             (((X1, Y1), (X1, Y2)), "x_2.y_1 wrong"),
                             (((X1, Y1), (X2, Y2 ^ X1)),
                              "pairs 1,2 interact")):
            with pytest.raises(ValidationFailure, match=match):
                pairs_descriptor(2, pairs)

    def test_whole_surface_matches_arf(self):
        # the Arf invariant does not depend on the symplectic basis
        twisted = [(X1, Y1 ^ X2), (X2, Y2 ^ X1)]
        for q in enumerate_forms(2, 0):
            for pairs in ([(X1, Y1), (X2, Y2)], twisted):
                assert arf_on_pairs(q, pairs) == arf(q)


class TestEnumerateForms:
    @pytest.mark.parametrize("genus,count0,count1", [
        (1, 3, 1), (2, 10, 6), (3, 36, 28), (4, 136, 120)])
    def test_counts(self, genus, count0, count1):
        assert len(enumerate_forms(genus, 0)) == count0
        assert len(enumerate_forms(genus, 1)) == count1
        assert len(enumerate_forms(genus)) == 2 ** (2 * genus)

    def test_lexicographic_order(self):
        forms = enumerate_forms(2)
        vals = [f.basis_values for f in forms]
        assert vals == sorted(vals)

    def test_genus_bound(self):
        with pytest.raises(GenusMismatch):
            enumerate_forms(0)
        with pytest.raises(GenusMismatch):
            enumerate_forms(9)

    @pytest.mark.parametrize("genus", range(1, 6))
    @pytest.mark.parametrize("arf_filter", [None, 0, 1])
    def test_matches_product_order(self, genus, arf_filter):
        assert enumerate_forms(genus, arf_filter) == \
            product_forms(genus, arf_filter)


class TestFormLiteral:
    def test_parse(self):
        q = parse_form_literal("q: x1=0 y1=1 x2=0 y2=0")
        assert q.basis_values == (0, 1, 0, 0)

    def test_prefix_optional_and_order_free(self):
        assert parse_form_literal("y2=0 x1=0 y1=1 x2=0") == \
            parse_form_literal("q: x1=0 y1=1 x2=0 y2=0")

    def test_round_trip_all_genus2_forms(self):
        for q in enumerate_forms(2):
            assert parse_form_literal(form_literal(q)) == q

    def test_literal_shape(self):
        assert form_literal(QuadForm((1, 0))) == "q: x1=1 y1=0"

    @pytest.mark.parametrize("text", [
        "",
        "q:",
        "x1=2",
        "z1=0 y1=0",
        "x1=0 x1=1 y1=0",   # repeated symbol
        "x1=0 y2=0",        # gap: y1, x2 missing
        "x0=0 y0=0",
        "x1 = 0 y1=0",      # spaces split the term
    ])
    def test_rejects(self, text):
        with pytest.raises(ParseError):
            parse_form_literal(text)


class TestDescriptors:
    def test_library_descriptors_validate(self):
        for entry in (bscc_twist(2, 1), boundary_twist(2), bp_map(2)):
            validate_descriptor(entry)

    def test_bp_needs_curve_class(self):
        action = bp_map(2).action
        with pytest.raises(ValidationFailure):
            TorelliGenDescriptor(name="bad", kind="bp", action=action,
                                 pairs=((basis_vector(2, 1), basis_vector(2, 2)),))

    def test_zero_curve_class_rejected(self):
        action = bp_map(2).action
        with pytest.raises(ValidationFailure, match="curve class must be nonzero"):
            TorelliGenDescriptor(
                name="bad", kind="bp", action=action,
                curve_class=0,
                pairs=((basis_vector(2, 1), basis_vector(2, 2)),))

    def test_action_outside_torelli_rejected(self):
        # a plain twist moves H1, so it cannot carry a descriptor
        moved = MappingClass(2, (Word((1,)), Word((2, 1)), Word((3,)), Word((4,))),
                             (Word((1,)), Word((2, -1)), Word((3,)), Word((4,))))
        with pytest.raises(ValidationFailure, match="act trivially on H1"):
            TorelliGenDescriptor(
                name="bad", kind="bscc", action=moved,
                pairs=((basis_vector(2, 1), basis_vector(2, 2)),))


class TestRho:
    def test_arf_one_rejected(self):
        q = form(1, 1, 0, 0)
        with pytest.raises(ArfNonZero):
            rho(q, [])

    def test_empty_word(self):
        assert rho(form(0, 0, 0, 0), []) == 0

    def test_bscc_rule(self):
        d = bscc_twist(2, 1)
        q = form(1, 1, 1, 1)
        assert rho(q, [(d, 1)]) == 1

    def test_bp_rule_kills_forms_on_the_class(self):
        d = bp_map(2)
        for q in enumerate_forms(2, 0):
            x, y = (as_tuple(v, 4) for v in d.pairs[0])
            expected = 0 if q_eval(q, as_tuple(d.curve_class, 4)) == 1 else \
                q_eval(q, x) * q_eval(q, y)
            assert rho(q, [(d, 1)]) == expected

    def test_exponent_sign_irrelevant(self):
        d = bscc_twist(2, 1)
        for q in enumerate_forms(2, 0):
            assert rho(q, [(d, 1)]) == rho(q, [(d, -1)])

    def test_additive_and_order_blind(self):
        d1 = bscc_twist(2, 1)
        d2 = bp_map(2)
        for q in enumerate_forms(2, 0):
            w12 = rho(q, [(d1, 1), (d2, 1)])
            assert w12 == (rho(q, [(d1, 1)]) + rho(q, [(d2, 1)])) % 2
            assert w12 == rho(q, [(d2, 1), (d1, 1)])

    def test_boundary_twist_invisible(self):
        # whole-surface restriction is Arf itself, zero on admissible forms
        d = boundary_twist(2)
        for q in enumerate_forms(2, 0):
            assert rho(q, [(d, 1)]) == 0


class TestEta2:
    def test_empty_word_needs_genus(self):
        with pytest.raises(GenusMismatch):
            eta2([])

    def test_empty_word(self):
        v = eta2([], genus=2)
        assert v.tau2.is_zero()
        assert v.rho_bits == (0,) * 10
        assert v.is_trivial()

    def test_single_bscc_genus2(self):
        d = bscc_twist(2, 1)
        v = eta2([(d, 1)])
        assert v.tau2.is_zero()
        forms = enumerate_forms(2, 0)
        hot = [q for q, bit in zip(forms, v.rho_bits) if bit]
        assert hot, "some admissible form must see the twist"
        assert all(q.basis_values[0] == q.basis_values[1] == 1 for q in hot)
        assert not v.is_trivial()

    def test_single_bp_genus2(self):
        d = bp_map(2)
        v = eta2([(d, 1)])
        assert not v.tau2.is_zero()
        assert not v.is_trivial()

    def test_square_kills_rho_part(self):
        d = bp_map(2)
        v = eta2([(d, 1), (d, 1)])
        assert v.rho_bits == (0,) * 10
        assert v.tau2 == eta2([(d, 1)]).tau2.add(eta2([(d, 1)]).tau2)

    def test_commutator_word_trivial(self):
        d1 = bscc_twist(2, 1)
        d2 = bp_map(2)
        word = [(d1, 1), (d2, 1), (d1, -1), (d2, -1)]
        assert eta2(word).is_trivial()

    def test_composed_action_is_left_fold(self):
        d = bp_map(2)
        f = composed_action([(d, 1), (d, -1)], 2)
        assert f.is_identity()

    def test_composed_action_starts_from_first_letter(self):
        d = bp_map(2)
        assert composed_action([(d, 1)]) is d.action
        assert composed_action([], 2).is_identity()
        with pytest.raises(GenusMismatch):
            composed_action([(d, 1)], 3)
        with pytest.raises(GenusMismatch):
            composed_action([])

    def test_genus3_bp_has_visible_rho(self):
        # with a spare handle the Arf condition no longer kills the
        # nonzero branch of the pair rule
        d = bp_map(3)
        v = eta2([(d, 1)])
        assert any(v.rho_bits)


@st.composite
def rho_words(draw, genus):
    """A word over the built-ins and over descriptors on a random
    symplectic basis: bscc letters on a set of its pairs, bp letters on
    one pair with any nonzero class.  rho reads only the homology data, so
    the drawn descriptors carry the identity action."""
    basis = random_symplectic(genus, random.Random(draw(st.integers(0, 2 ** 16))))
    pairs = [(as_mask(basis[2 * i]), as_mask(basis[2 * i + 1]))
             for i in range(genus)]
    builtins = [boundary_twist(genus)] + [bscc_twist(genus, h)
                                          for h in range(1, genus)]
    if genus >= 2:
        builtins.append(bp_map(genus))
    vectors = st.integers(0, 4 ** genus - 1)
    handles = st.lists(st.integers(0, genus - 1), unique=True, max_size=genus)
    letter = st.one_of(
        st.sampled_from(builtins),
        handles.map(lambda hs: TorelliGenDescriptor(
            name="S", kind="bscc", action=identity_class(genus),
            pairs=tuple(pairs[h] for h in hs))),
        st.tuples(vectors.filter(bool), st.integers(0, genus - 1)).map(
            lambda cp: TorelliGenDescriptor(
                name="P", kind="bp", action=identity_class(genus),
                curve_class=cp[0], pairs=(pairs[cp[1]],))))
    return draw(st.lists(st.tuples(letter, st.sampled_from([1, -1])),
                         min_size=1, max_size=6))


class TestRhoBits:
    @pytest.mark.parametrize("genus", range(1, 6))
    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_matches_rho_per_form(self, genus, data):
        # the letterwise rule of tests/helpers.py, form by form
        word = data.draw(rho_words(genus))
        forms = enumerate_forms(genus, 0)
        expected = "".join(str(naive_rho(q, word)) for q in forms)
        assert rho_bits(word, genus) == expected
        assert "".join(str(rho(q, word)) for q in forms) == expected

    def test_empty_word(self):
        assert rho_bits([], 3) == "0" * 36
        with pytest.raises(GenusMismatch):
            rho_bits([])

    def test_genus_bound(self):
        # the same refusal as the form enumeration it stands for
        word = [(pairs_descriptor(9, []), 1)]
        with pytest.raises(GenusMismatch, match="genus must be in 1..8"):
            rho_bits(word)


class TestRhoAboveFormGenus:
    """rho evaluates one form, so it takes no genus cap: above
    MAX_FORM_GENUS it still matches the letterwise rule."""

    @pytest.mark.parametrize("genus", [9, 10])
    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_matches_naive_rho(self, genus, data):
        word = data.draw(rho_words(genus))
        q = data.draw(st.lists(st.sampled_from([0, 1]), min_size=2 * genus,
                               max_size=2 * genus).map(lambda b: QuadForm(tuple(b)))
                      .filter(lambda q: arf(q) == 0))
        assert rho(q, word) == naive_rho(q, word)

    def test_form_and_word_genus_must_agree(self):
        with pytest.raises(GenusMismatch, match="word is at genus 9, asked for 2"):
            rho(form(0, 0, 0, 0), [(pairs_descriptor(9, []), 1)])


class TestPackedSymplecticCheck:
    """The descriptor check on bit masks gives the verdict and message of
    the tuple pairing, on symplectic pair lists and perturbed ones."""

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_tuple_pairing(self, data):
        genus = data.draw(st.integers(1, 5))
        basis = random_symplectic(genus, random.Random(data.draw(st.integers(0, 2 ** 16))))
        pairs = [[as_mask(basis[2 * i]), as_mask(basis[2 * i + 1])]
                 for i in data.draw(st.permutations(range(genus)))]
        pairs = pairs[:data.draw(st.integers(1, genus))]
        for _ in range(data.draw(st.integers(0, 2))):
            # flip one coordinate of one vector
            i = data.draw(st.integers(0, len(pairs) - 1))
            side = data.draw(st.integers(0, 1))
            pairs[i][side] ^= 1 << data.draw(st.integers(0, 2 * genus - 1))
        pairs = [tuple(p) for p in pairs]
        expected = symplectic_failure(
            [(as_tuple(x, 2 * genus), as_tuple(y, 2 * genus)) for x, y in pairs])
        if expected is None:
            pairs_descriptor(genus, pairs)
        else:
            with pytest.raises(ValidationFailure) as exc:
                pairs_descriptor(genus, pairs)
            assert str(exc.value) == expected


@functools.lru_cache(maxsize=None)
def torelli_letters(genus):
    """The built-ins, and conjugates t c t^-1 of their actions by handle
    twists t as pair-less bscc descriptors (tau reads only the action)."""
    builtins = list(builtin_entries(genus).values())
    conjugates = [
        TorelliGenDescriptor(
            name=f"T{i}", kind="bscc",
            action=compose(compose(t, c.action), t.inverse()))
        for i, (t, c) in enumerate(itertools.product(handle_twists(genus),
                                                     builtins))]
    return builtins + conjugates


class TestEta2Additive:
    @pytest.mark.parametrize("genus", [2, 3])
    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_matches_composed_action(self, genus, data):
        word = data.draw(st.lists(
            st.tuples(st.sampled_from(torelli_letters(genus)),
                      st.sampled_from([1, -1])),
            min_size=1, max_size=5))
        assert eta2(word, genus).tau2 == tau(composed_action(word, genus), 2)

    def test_needs_no_inverse_images(self):
        # eta2 never composes, so a bp action without inverse images will do
        bp = bp_map(2)
        bare = TorelliGenDescriptor(
            name="P", kind="bp", action=MappingClass(2, bp.action.images),
            curve_class=bp.curve_class, pairs=bp.pairs)
        assert eta2([(bare, -1)]) == eta2([(bp, -1)])
        assert eta2([(bare, -1)]).tau2 == eta2([(bp, 1)]).tau2.neg()

    def test_mixed_genus_word(self):
        word = [(bp_map(2), 1), (bp_map(3), 1)]
        for fn in (eta2, rho_bits):
            with pytest.raises(GenusMismatch, match="mixes genus 2 and 3"):
                fn(word)

