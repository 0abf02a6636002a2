import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torelli.errors import GenusMismatch
from torelli.freegroup import Word, boundary_word, commutator, invert, multiply, reduce
from torelli.magnus import DEFAULT_DEPTH, TruncatedSeries, magnus_expand

from helpers import (augmentation, flatten_series, fox_coefficient,
                     fox_derivative, naive_magnus, nested_commutator,
                     poly_mul, rand_word)

letters_st = st.lists(
    st.sampled_from([1, -1, 2, -2, 3, -3, 4, -4]), max_size=14)


def one(rank, cutoff):
    return TruncatedSeries(rank, cutoff, {0: {(): 1}})


class TestSeries:
    def test_construction_cleans(self):
        s = TruncatedSeries(2, 2, {0: {(): 1}, 1: {(1,): 0}, 5: {(1, 1, 1, 1, 1): 7}})
        assert s.terms == {0: {(): 1}}

    def test_one_zero(self):
        unit = one(2, 3)
        zero = TruncatedSeries(2, 3)
        assert unit.terms == {0: {(): 1}} and not zero.terms
        assert unit.degree_terms(0) == {(): 1}
        assert zero.degree_terms(0) == {}
        assert unit != zero

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            TruncatedSeries(0, 3)
        with pytest.raises(ValueError):
            TruncatedSeries(2, -1)

    def test_coefficient_and_degrees(self):
        s = TruncatedSeries(2, 3, {2: {(1, 2): 4}})
        assert s.degree_terms(2) == {(1, 2): 4}
        assert s.degree_terms(1) == {}
        assert s.min_positive_degree() == 2
        assert one(2, 3).min_positive_degree() is None

    def test_not_hashable(self):
        with pytest.raises(TypeError):
            hash(one(1, 1))


class TestMagnus:
    def test_single_letters(self):
        s = magnus_expand(Word((1,)), 2, 3)
        assert s.terms == {0: {(): 1}, 1: {(1,): 1}}
        s = magnus_expand(Word((-1,)), 2, 3)
        assert flatten_series(s) == {(): 1, (1,): -1, (1, 1): 1, (1, 1, 1): -1}

    def test_commutator_leading_term(self):
        s = magnus_expand(commutator(Word((1,)), Word((2,))), 2, 2)
        assert flatten_series(s) == {(): 1, (1, 2): 1, (2, 1): -1}

    def test_product_word(self):
        s = magnus_expand(Word((1, 2)), 2, 2)
        assert s.degree_terms(2) == {(1, 2): 1}

    def test_empty_word(self):
        assert magnus_expand(Word(()), 2, 4) == one(2, 4)

    def test_rank_check(self):
        with pytest.raises(GenusMismatch):
            magnus_expand(Word((3,)), 2, 2)

    @pytest.mark.parametrize("rank,cutoff", [(2, 3), (4, 3), (2, 5)])
    def test_against_naive_oracle(self, rank, cutoff):
        rng = random.Random(100 + rank + cutoff)
        for _ in range(40):
            w = rand_word(rng, rank, rng.randint(0, 12))
            assert flatten_series(magnus_expand(w, rank, cutoff)) == \
                naive_magnus(w, cutoff)

    @settings(deadline=None, max_examples=100)
    @given(st.data())
    def test_matches_naive_oracle(self, data):
        rank = data.draw(st.integers(1, 6))
        cutoff = data.draw(st.integers(0, 6))
        letter = st.integers(1, rank).flatmap(
            lambda j: st.sampled_from([j, -j]))
        w = reduce(data.draw(st.lists(letter, max_size=10)))
        assert flatten_series(magnus_expand(w, rank, cutoff)) == \
            naive_magnus(w, cutoff)

    @settings(deadline=None, max_examples=60)
    @given(letters_st, letters_st)
    def test_homomorphism(self, xs, ys):
        u, v = reduce(xs), reduce(ys)
        lhs = flatten_series(magnus_expand(multiply(u, v), 4, 3))
        rhs = poly_mul(flatten_series(magnus_expand(u, 4, 3)),
                       flatten_series(magnus_expand(v, 4, 3)), 3)
        assert lhs == rhs

    @settings(deadline=None, max_examples=60)
    @given(letters_st)
    def test_inverse_series(self, xs):
        w = reduce(xs)
        prod = poly_mul(flatten_series(magnus_expand(invert(w), 4, 3)),
                        flatten_series(magnus_expand(w, 4, 3)), 3)
        assert prod == {(): 1}


class TestLcsDegree:
    def test_default_cutoff(self):
        assert DEFAULT_DEPTH == 6

    @pytest.mark.parametrize("words,expected", [
        ([Word((1,))], 1),
        ([Word((1, 1))], 1),
        ([Word((1,)), Word((2,))], 2),
        ([Word((1,)), Word((2,)), Word((1,))], 3),
        ([Word((1,)), Word((2,)), Word((1,)), Word((1,))], 4),
        ([Word((1,)), Word((2,)), Word((1,)), Word((1,)), Word((2,))], 5),
    ])
    def test_nested_commutators(self, words, expected):
        w = nested_commutator(words)
        assert magnus_expand(w, 2).min_positive_degree() == expected

    def test_commutator_of_commutators(self):
        u = commutator(Word((1,)), Word((2,)))
        v = commutator(Word((1,)), Word((3,)))
        assert magnus_expand(commutator(u, v), 3).min_positive_degree() == 4

    def test_identity_is_none(self):
        assert magnus_expand(Word(()), 2).min_positive_degree() is None

    def test_cutoff_semantics(self):
        w = nested_commutator([Word((1,)), Word((2,)), Word((1,))])
        assert magnus_expand(w, 2, cutoff=2).min_positive_degree() is None
        assert magnus_expand(w, 2, cutoff=3).min_positive_degree() == 3

    @pytest.mark.parametrize("genus", [1, 2, 3])
    def test_boundary_word_depth(self, genus):
        expansion = magnus_expand(boundary_word(genus), 2 * genus)
        assert expansion.min_positive_degree() == 2

    def test_commutators_sit_deeper(self):
        rng = random.Random(31)
        for _ in range(60):
            u = rand_word(rng, 2, rng.randint(1, 8))
            v = rand_word(rng, 2, rng.randint(1, 8))
            d = magnus_expand(commutator(u, v), 2, cutoff=3).min_positive_degree()
            assert d is None or d >= 2


class TestFox:
    def test_generator_rules(self):
        assert fox_derivative(Word((1,)), 1) == {(): 1}
        assert fox_derivative(Word((1,)), 2) == {}
        assert fox_derivative(Word((-1,)), 1) == {(-1,): -1}

    def test_commutator_by_hand(self):
        w = commutator(Word((1,)), Word((2,)))  # a1 a2 a1' a2'
        assert fox_derivative(w, 1) == {(): 1, (1, 2, -1): -1}
        assert fox_derivative(w, 2) == {(1,): 1, (1, 2, -1, -2): -1}

    def test_product_rule(self):
        # d(uv) = d(u) + u d(v) with words kept reduced
        rng = random.Random(17)
        for _ in range(60):
            u = rand_word(rng, 2, rng.randint(0, 8))
            v = rand_word(rng, 2, rng.randint(0, 8))
            j = rng.randint(1, 2)
            lhs = fox_derivative(multiply(u, v), j)
            rhs = dict(fox_derivative(u, j))
            for key, c in fox_derivative(v, j).items():
                shifted = multiply(u, Word(key)).letters
                rhs[shifted] = rhs.get(shifted, 0) + c
            assert lhs == {k: c for k, c in rhs.items() if c}

    def test_augmentation_counts_exponent(self):
        rng = random.Random(19)
        for _ in range(40):
            w = rand_word(rng, 3, rng.randint(0, 10))
            for j in (1, 2, 3):
                total = sum(1 if x == j else -1 if x == -j else 0
                            for x in w.letters)
                assert augmentation(fox_derivative(w, j)) == total

    @settings(deadline=None, max_examples=40)
    @given(letters_st)
    def test_fox_matches_magnus(self, xs):
        w = reduce(xs)
        series = flatten_series(magnus_expand(w, 4, 3))
        monos = [(1,), (2, 1), (1, 2), (3, 3), (1, 2, 1), (4, 1, 2), (2, 2, 2)]
        for mono in monos:
            assert fox_coefficient(w, mono) == series.get(mono, 0)

    def test_fox_coefficient_early_exit(self):
        assert fox_coefficient(Word((1,)), (2, 2)) == 0
        assert fox_coefficient(Word(()), (1,)) == 0
