import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torelli.errors import NotALieElement, TooLarge
from torelli.freegroup import Word
from torelli.freelie import (
    MAX_WITT_BITS,
    H1LieTensor,
    LieElement,
    bracket_map,
    bracket_polynomial,
    generator_element,
    is_lyndon,
    lie_bracket,
    lyndon_basis,
    lyndon_words,
    standard_factorization,
    to_lyndon_coords,
    witt_dim,
    _mobius,
)
from torelli.magnus import magnus_expand

from helpers import (dynkin_map, left_normed_polynomial, nested_commutator,
                     rand_word)


def rand_lie(rng, rank, degree, spread=3):
    basis = lyndon_basis(rank, degree)
    coords = {w: rng.randint(-spread, spread) for w in rng.sample(basis, min(3, len(basis)))}
    return LieElement(rank, degree, coords)


class TestWitt:
    def test_mobius(self):
        assert [_mobius(n) for n in range(1, 13)] == \
            [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]

    @pytest.mark.parametrize("rank,degree,expected", [
        (2, 1, 2), (2, 2, 1), (2, 3, 2), (2, 4, 3), (2, 5, 6), (2, 6, 9),
        (3, 2, 3), (3, 3, 8),
        (4, 1, 4), (4, 2, 6), (4, 3, 20), (4, 4, 60), (4, 5, 204),
        (6, 2, 15), (6, 3, 70),
    ])
    def test_dimensions(self, rank, degree, expected):
        assert witt_dim(rank, degree) == expected

    def test_degree_check(self):
        with pytest.raises(ValueError):
            witt_dim(2, 0)

    @pytest.mark.parametrize("rank", range(1, 7))
    def test_divisor_pairs_match_every_divisor(self, rank):
        # the sum over e <= sqrt(d) and d/e against the sum over all e
        for degree in range(1, 121):
            full = sum(_mobius(e) * rank ** (degree // e)
                       for e in range(1, degree + 1) if degree % e == 0)
            assert witt_dim(rank, degree) == full // degree

    @pytest.mark.parametrize("rank,degree,refused", [
        (2, 4096, False), (2, 4097, True), (3, 2048, False), (3, 2049, True),
        (4, 2049, True), (100, 585, False), (100, 586, True),
        (1, 10 ** 8, False)])
    def test_size_bound(self, rank, degree, refused):
        # degree * ceil(log2 rank) may not exceed MAX_WITT_BITS
        assert MAX_WITT_BITS == 4096
        if refused:
            with pytest.raises(TooLarge):
                witt_dim(rank, degree)
        else:
            assert witt_dim(rank, degree) >= 0


class TestLyndon:
    def test_is_lyndon(self):
        assert is_lyndon((1,))
        assert is_lyndon((1, 2))
        assert not is_lyndon((2, 1))
        assert not is_lyndon((1, 1))
        assert is_lyndon((1, 1, 2))
        assert is_lyndon((1, 2, 2))
        assert not is_lyndon((1, 2, 1))
        assert not is_lyndon((1, 2, 1, 2))
        assert not is_lyndon(())

    def test_enumeration_small(self):
        assert lyndon_words(2, 2) == [(1,), (1, 2), (2,)]
        assert lyndon_basis(2, 3) == [(1, 1, 2), (1, 2, 2)]
        assert lyndon_basis(2, 4) == [(1, 1, 1, 2), (1, 1, 2, 2), (1, 2, 2, 2)]

    @pytest.mark.parametrize("rank", [0, -1])
    def test_enumeration_needs_a_letter(self, rank):
        with pytest.raises(ValueError):
            lyndon_words(rank, 2)

    def test_enumeration_is_lex_sorted_lyndon(self):
        words = lyndon_words(3, 4)
        assert words == sorted(words)
        assert all(is_lyndon(w) for w in words)
        assert len(set(words)) == len(words)

    @pytest.mark.parametrize("rank", [2, 3, 4])
    @pytest.mark.parametrize("degree", [1, 2, 3, 4, 5])
    def test_counts_match_witt(self, rank, degree):
        assert len(lyndon_basis(rank, degree)) == witt_dim(rank, degree)

    def test_standard_factorization(self):
        assert standard_factorization((1, 2)) == ((1,), (2,))
        assert standard_factorization((1, 1, 2)) == ((1,), (1, 2))
        assert standard_factorization((1, 2, 2)) == ((1, 2), (2,))
        assert standard_factorization((1, 1, 2, 1, 2)) == ((1, 1, 2), (1, 2))
        with pytest.raises(ValueError):
            standard_factorization((1,))


class TestBracketing:
    def test_letters(self):
        assert bracket_polynomial((1,)) == {(1,): 1}

    def test_degree_two(self):
        assert bracket_polynomial((1, 2)) == {(1, 2): 1, (2, 1): -1}

    def test_degree_three_by_hand(self):
        # [x1, [x1, x2]]
        assert bracket_polynomial((1, 1, 2)) == \
            {(1, 1, 2): 1, (1, 2, 1): -2, (2, 1, 1): 1}
        # [[x1, x2], x2]
        assert bracket_polynomial((1, 2, 2)) == \
            {(1, 2, 2): 1, (2, 1, 2): -2, (2, 2, 1): 1}

    def test_rejects_non_lyndon(self):
        with pytest.raises(ValueError):
            bracket_polynomial((2, 1))

    @pytest.mark.parametrize("rank,degree", [(2, 3), (2, 5), (3, 4)])
    def test_triangularity(self, rank, degree):
        for w in lyndon_basis(rank, degree):
            poly = bracket_polynomial(w)
            assert min(poly) == w
            assert poly[w] == 1

    def test_left_normed(self):
        assert left_normed_polynomial((1,)) == {(1,): 1}
        assert left_normed_polynomial((1, 2)) == {(1, 2): 1, (2, 1): -1}
        # [[x1, x2], x1] = -[x1, [x1, x2]]
        expected = {(1, 1, 2): -1, (1, 2, 1): 2, (2, 1, 1): -1}
        assert left_normed_polynomial((1, 2, 1)) == expected


class TestCoordinates:
    @pytest.mark.parametrize("rank,degree", [(2, 2), (2, 4), (3, 3), (4, 3)])
    def test_roundtrip(self, rank, degree):
        rng = random.Random(rank * 10 + degree)
        for _ in range(10):
            x = rand_lie(rng, rank, degree)
            assert to_lyndon_coords(x.to_polynomial(), degree) == x.coords

    def test_rejects_non_lie(self):
        with pytest.raises(NotALieElement):
            to_lyndon_coords({(1, 2): 1}, 2)
        with pytest.raises(NotALieElement) as exc:
            to_lyndon_coords({(1, 2): 1, (2, 1): 1}, 2)
        assert exc.value.remainder

    def test_rejects_inhomogeneous(self):
        with pytest.raises(ValueError):
            to_lyndon_coords({(1,): 1, (1, 2): 1}, 2)

    def test_zero(self):
        assert to_lyndon_coords({}, 3) == {}
        assert to_lyndon_coords({(1, 2): 0}, 2) == {}


class TestDynkin:
    def test_criterion_on_lie_elements(self):
        rng = random.Random(5)
        for rank, degree in [(2, 2), (2, 3), (2, 4), (3, 3), (4, 2)]:
            for _ in range(8):
                x = rand_lie(rng, rank, degree)
                poly = x.to_polynomial()
                scaled = {m: degree * c for m, c in poly.items()}
                assert dynkin_map(poly) == scaled

    def test_criterion_rejects_products(self):
        # x1 x2 is not a Lie element: its image is [x1, x2], not 2 x1 x2
        assert dynkin_map({(1, 2): 1}) == {(1, 2): 1, (2, 1): -1}

    def test_agrees_with_elimination(self):
        # independent certificate: elimination succeeds exactly when the
        # Dynkin criterion holds, over a seeded sample of polynomials
        rng = random.Random(41)
        basis3 = lyndon_basis(2, 3)
        for _ in range(40):
            poly = {}
            for m in [(1, 1, 2), (1, 2, 1), (2, 1, 1), (1, 2, 2), (2, 2, 1)]:
                c = rng.randint(-2, 2)
                if c:
                    poly[m] = c
            is_lie_by_dynkin = dynkin_map(poly) == \
                {m: 3 * c for m, c in poly.items()}
            try:
                to_lyndon_coords(dict(poly), 3)
                is_lie_by_elim = True
            except NotALieElement:
                is_lie_by_elim = False
            assert is_lie_by_dynkin == is_lie_by_elim


class TestLieElement:
    def test_validation(self):
        with pytest.raises(ValueError):
            LieElement(2, 2, {(2, 1): 1})
        with pytest.raises(ValueError):
            LieElement(2, 2, {(1, 3): 1})
        with pytest.raises(ValueError):
            LieElement(2, 3, {(1, 2): 1})
        assert LieElement(2, 2, {(1, 2): 0}).is_zero()

    def test_arithmetic(self):
        x = LieElement(2, 2, {(1, 2): 3})
        y = LieElement(2, 2, {(1, 2): -3})
        assert x.add(y).is_zero()
        assert x.neg() == y
        assert x.scale(2).coords == {(1, 2): 6}
        with pytest.raises(ValueError):
            x.add(LieElement(2, 3, {}))

    def test_sorted_items(self):
        x = LieElement(2, 3, {(1, 2, 2): -1, (1, 1, 2): 2})
        assert x.sorted_items() == [((1, 1, 2), 2), ((1, 2, 2), -1)]

    def test_bracket_antisymmetry_and_jacobi(self):
        rng = random.Random(9)
        for _ in range(15):
            x = rand_lie(rng, 2, 1)
            y = rand_lie(rng, 2, 2)
            z = rand_lie(rng, 2, 1)
            assert lie_bracket(x, z).add(lie_bracket(z, x)).is_zero()
            jac = lie_bracket(lie_bracket(x, y), z) \
                .add(lie_bracket(lie_bracket(y, z), x)) \
                .add(lie_bracket(lie_bracket(z, x), y))
            assert jac.is_zero()

    def test_bracket_degrees(self):
        x = generator_element(2, 1)
        y = generator_element(2, 2)
        b = lie_bracket(x, y)
        assert b.degree == 2 and b.coords == {(1, 2): 1}
        assert lie_bracket(x, x).is_zero()


class TestMagnusBridge:
    """Leading Magnus buckets of nested commutator words are the matching
    left-normed brackets; this ties the series side to the Lie side."""

    @pytest.mark.parametrize("letters", [
        (1, 2), (1, 2, 1), (1, 2, 2), (1, 2, 1, 1), (3, 1), (2, 3, 1),
    ])
    def test_leading_bucket_is_left_normed_bracket(self, letters):
        w = nested_commutator([Word((j,)) for j in letters])
        k = len(letters)
        series = magnus_expand(w, 3, k)
        assert series.degree_terms(k) == left_normed_polynomial(letters)
        assert series.min_positive_degree() == k

    def test_leading_bucket_is_lie_random(self):
        rng = random.Random(77)
        for _ in range(25):
            depth = rng.randint(2, 4)
            parts = [rand_word(rng, 2, rng.randint(1, 3)) for _ in range(depth)]
            w = nested_commutator(parts)
            series = magnus_expand(w, 2, 4)
            d = series.min_positive_degree()
            if d is None:
                continue
            LieElement.from_polynomial(2, d, series.degree_terms(d))


class TestH1Tensor:
    def test_shape_checks(self):
        z1 = LieElement.zero(2, 1)
        with pytest.raises(ValueError):
            H1LieTensor(1, 1, (z1,))
        with pytest.raises(ValueError):
            H1LieTensor(1, 2, (z1, z1))

    def test_bracket_map_simple(self):
        x1, x2 = generator_element(2, 1), generator_element(2, 2)
        zero = LieElement.zero(2, 1)
        # e_1 (x) x1 contracts to [x1, x1] = 0
        assert bracket_map(H1LieTensor(1, 1, (x1, zero))).is_zero()
        # e_1 (x) x2 contracts to [x1, x2]
        out = bracket_map(H1LieTensor(1, 1, (x2, zero)))
        assert out.coords == {(1, 2): 1}

    def test_bracket_map_kernel_element(self):
        # e_1 (x) x2 + e_2 (x) x1 maps to [x1,x2] + [x2,x1] = 0
        x1, x2 = generator_element(2, 1), generator_element(2, 2)
        t = H1LieTensor(1, 1, (x2, x1))
        assert bracket_map(t).is_zero()
        assert not t.is_zero()

    def test_add_neg(self):
        x1 = generator_element(2, 1)
        z = LieElement.zero(2, 1)
        t = H1LieTensor(1, 1, (x1, z))
        assert t.add(t.neg()).is_zero()
        with pytest.raises(ValueError):
            t.add(H1LieTensor(1, 2, (LieElement.zero(2, 2), LieElement.zero(2, 2))))
