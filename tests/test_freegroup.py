import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torelli.errors import (GenusMismatch, MissingInverse, NotReduced, ParseError,
                            TooLarge, ValidationFailure)
from torelli.freegroup import (
    MAX_GENUS,
    MAX_LETTERS,
    CheckResult,
    MappingClass,
    Word,
    abelianization,
    apply,
    boundary_word,
    commutator,
    compose,
    conjugate,
    format_word,
    identity_class,
    invert,
    letter_name,
    multiply,
    parse_word,
    reduce,
    require_valid,
    validate,
    WordReader,
    _int_det,
    _trusted,
)
from torelli.mcglib import builtin_entries
from torelli.present import present_mapping_torus

from helpers import handle_twists, naive_apply, naive_parse_word


def rand_word(rng, genus, length):
    letters = []
    for _ in range(length):
        j = rng.randint(1, 2 * genus) * rng.choice([1, -1])
        letters.append(j)
    return reduce(letters)


class TestWord:
    def test_rejects_unreduced(self):
        with pytest.raises(NotReduced):
            Word((1, -1))
        with pytest.raises(NotReduced):
            Word((2, 3, -3, 1))

    def test_rejects_zero_letter(self):
        with pytest.raises(NotReduced):
            Word((1, 0))
        with pytest.raises(NotReduced):
            reduce([0])

    def test_reduce_examples(self):
        assert reduce([1, 2, -2, -1, 3]).letters == (3,)
        assert reduce([1, -2, 2, -1]).letters == ()
        assert reduce([]).letters == ()
        # nested cancellation collapses fully
        assert reduce([1, 2, 3, -3, -2, -1, 4]).letters == (4,)

    def test_reduce_idempotent_random(self):
        rng = random.Random(11)
        for _ in range(200):
            w = rand_word(rng, 2, rng.randint(0, 30))
            assert reduce(w.letters) == w

    def test_multiply_invert(self):
        u = Word((1, 2))
        v = Word((-2, 3))
        assert multiply(u, v).letters == (1, 3)
        assert invert(u).letters == (-2, -1)
        assert multiply(u, invert(u)).letters == ()

    def test_multiply_associative_random(self):
        rng = random.Random(7)
        for _ in range(100):
            u, v, w = (rand_word(rng, 2, rng.randint(0, 12)) for _ in range(3))
            assert multiply(multiply(u, v), w) == multiply(u, multiply(v, w))

    def test_commutator_and_conjugate(self):
        a, b = Word((1,)), Word((2,))
        assert commutator(a, b).letters == (1, 2, -1, -2)
        assert conjugate(a, b).letters == (2, 1, -2)
        assert commutator(a, a).letters == ()

    def test_boundary_word(self):
        assert boundary_word(1).letters == (1, 2, -1, -2)
        assert boundary_word(2).letters == (1, 2, -1, -2, 3, 4, -3, -4)
        assert len(boundary_word(5)) == 20
        with pytest.raises(GenusMismatch):
            boundary_word(0)

    def test_max_index(self):
        assert Word(()).max_index() == 0
        assert Word((1, -4)).max_index() == 4


class TestTokens:
    def test_letter_names(self):
        assert letter_name(1) == "a1"
        assert letter_name(2) == "b1"
        assert letter_name(-3) == "a2'"
        assert letter_name(4) == "b2"
        assert letter_name(5, genus=2) == "gamma"
        assert letter_name(-5, genus=2) == "gamma'"

    def test_format_roundtrip(self):
        w = Word((1, 2, -1, -2, 3))
        text = format_word(w)
        assert text == "a1 b1 a1' b1' a2"
        assert parse_word(text, genus=2) == w
        assert format_word(Word(())) == "1"

    def test_parse_identity_and_reduction(self):
        assert parse_word("1", genus=1).letters == ()
        assert parse_word("a1 a1' b1", genus=1).letters == (2,)
        assert parse_word("", genus=1).letters == ()

    def test_parse_aliases(self):
        aliases = {"c": Word((1, 2))}
        assert parse_word("c b1", genus=1, aliases=aliases).letters == (1, 2, 2)
        assert parse_word("c'", genus=1, aliases=aliases).letters == (-2, -1)

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse_word("x1", genus=1)
        with pytest.raises(ParseError):
            parse_word("a2", genus=1)
        with pytest.raises(ParseError):
            parse_word("a0", genus=1)
        with pytest.raises(ParseError):
            parse_word("1'", genus=1)
        err = None
        try:
            parse_word("a1 q7", genus=1, line=3)
        except ParseError as e:
            err = e
        assert err is not None and "line 3" in str(err) and "col 4" in str(err)

    def test_parse_digits_int_cannot_read(self):
        # a superscript two is a digit to str.isdigit but no decimal, and
        # int() reads at most 4,300 digits: both are ParseErrors
        with pytest.raises(ParseError, match="unknown token 'a\u00b2'"):
            parse_word("a1 a\u00b2", genus=2)
        with pytest.raises(ParseError, match="out of range"):
            parse_word("a" + "9" * 5000, genus=2)
        # other decimal digits and leading zeros read as before
        assert parse_word("a\u0663 a01", genus=3).letters == (5, 1)

    def test_letter_budget_counts_before_reduction(self):
        reader = WordReader(1)
        reader.letters = MAX_LETTERS - 2
        assert reader.read("a1 a1'").letters == ()
        with pytest.raises(TooLarge, match="line 7"):
            reader.read("1 b1", line=7)

    def test_format_parse_random(self):
        rng = random.Random(23)
        for _ in range(100):
            w = rand_word(rng, 3, rng.randint(0, 20))
            assert parse_word(format_word(w), genus=3) == w



def twist_alpha(genus=1):
    """b1 -> b1 a1 on the first handle, rest fixed."""
    images = [Word((j,)) for j in range(1, 2 * genus + 1)]
    inv = [Word((j,)) for j in range(1, 2 * genus + 1)]
    images[1] = Word((2, 1))
    inv[1] = Word((2, -1))
    return MappingClass(genus, tuple(images), tuple(inv))


def twist_beta(genus=1):
    """a1 -> a1 b1' on the first handle, rest fixed."""
    images = [Word((j,)) for j in range(1, 2 * genus + 1)]
    inv = [Word((j,)) for j in range(1, 2 * genus + 1)]
    images[0] = Word((1, -2))
    inv[0] = Word((1, 2))
    return MappingClass(genus, tuple(images), tuple(inv))


# Alias names: plain, primed, named like generators, and "1", which never
# reads as an alias.
ALIAS_NAMES = ("x", "y", "w'", "z''", "a1", "b2", "a01", "1", "1'", "c3")
ODD_TOKENS = ("1", "1'", "q7", "a", "b-1", "a1''", "a\u00b2", "x\u00b2")
SEPARATORS = (" ", "  ", "\t", " \u3000 ")


def _inverse_token(tok):
    if tok == "1":
        return tok
    return tok[:-1] if tok.endswith("'") else tok + "'"


def _alias_tokens(name):
    """The tokens that read alias ``name``: at most one apostrophe is
    stripped, and ``1`` is never an alias."""
    if name == "1":
        return []
    return [name + "'"] if name.endswith("'") else [name, name + "'"]


@st.composite
def token_lines(draw):
    """(text, genus, aliases as letter tuples, line): lines of valid tokens
    (generators, some spelled ``a01``, ``1`` and aliases) with inverse pairs
    at the first, last and alias-boundary positions, and up to two tokens
    that may be errors.  The number of tokens is drawn first."""
    genus = draw(st.integers(1, 4))
    letter = st.integers(1, 2 * genus).flatmap(lambda j: st.sampled_from([j, -j]))
    aliases = {}
    for name in draw(st.lists(st.sampled_from(ALIAS_NAMES), unique=True,
                              max_size=4)):
        size = draw(st.integers(0, 6))
        aliases[name] = reduce(draw(st.lists(letter, min_size=size,
                                             max_size=size))).letters
    def spell(kind, zero, i, prime):
        return kind + "0" * zero + str(i) + "'" * prime
    generator = st.builds(spell, st.sampled_from("ab"),
                          st.sampled_from([0, 0, 0, 1]), st.integers(1, genus),
                          st.integers(0, 1))
    valid = [generator, generator, generator, st.just("1")]
    readable = [t for name in aliases for t in _alias_tokens(name)]
    if readable:
        valid += [st.sampled_from(readable)] * 2
    size = draw(st.integers(0, 12))
    tokens = draw(st.lists(st.one_of(valid), min_size=size, max_size=size))
    for _ in range(draw(st.integers(0, 3)) if tokens else 0):
        pos = draw(st.integers(0, len(tokens) - 1))
        tokens.insert(pos + 1, _inverse_token(tokens[pos]))
    if tokens and draw(st.booleans()):
        tokens.insert(0, _inverse_token(tokens[0]))
    odd = st.one_of(
        st.sampled_from(ODD_TOKENS + tuple(n + p for n in ALIAS_NAMES
                                           for p in ("", "'"))),
        st.builds(spell, st.sampled_from("ab"), st.integers(0, 1),
                  st.sampled_from([0, genus + 1, 99]), st.integers(0, 1)))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        tokens.insert(draw(st.integers(0, len(tokens))), draw(odd))
    text = draw(st.sampled_from(SEPARATORS + ("",)))
    for tok in tokens:
        text += tok + draw(st.sampled_from(SEPARATORS))
    line = draw(st.one_of(st.none(), st.integers(1, 99)))
    return text, genus, aliases, line


def _outcome(fn, *args):
    try:
        return "word", fn(*args)
    except ParseError as exc:
        return "error", str(exc), exc.line, exc.column


class TestTokenTable:
    """parse_word reads a line through a token table and a zero-byte test
    for inverse pairs; a regex tokenizer with a stack must agree."""

    @settings(deadline=None, max_examples=400)
    @given(token_lines())
    def test_matches_naive_parser(self, case):
        text, genus, aliases, line = case
        words = {name: Word(letters) for name, letters in aliases.items()}
        got = _outcome(lambda: parse_word(text, genus, words, line).letters)
        want = _outcome(naive_parse_word, text, genus, aliases, line)
        assert got == want



class TestMappingClass:
    def test_shape_checks(self):
        with pytest.raises(GenusMismatch):
            MappingClass(1, (Word((1,)),))
        with pytest.raises(GenusMismatch):
            MappingClass(1, (Word((1,)), Word((3,))))
        with pytest.raises(GenusMismatch):
            MappingClass(0, ())

    def test_identity(self):
        e = identity_class(2)
        assert e.is_identity()
        w = Word((1, 4, -2))
        assert apply(e, w) == w
        assert e.inverse().is_identity()

    def test_apply_homomorphic_random(self):
        rng = random.Random(5)
        f = twist_alpha()
        for _ in range(100):
            u = rand_word(rng, 1, rng.randint(0, 10))
            v = rand_word(rng, 1, rng.randint(0, 10))
            assert apply(f, multiply(u, v)) == multiply(apply(f, u), apply(f, v))
            assert apply(f, invert(u)) == invert(apply(f, u))

    def test_apply_genus_check(self):
        f = twist_alpha(genus=1)
        with pytest.raises(GenusMismatch):
            apply(f, Word((3,)))

    def test_compose_is_f_after_h(self):
        f, h = twist_alpha(), twist_beta()
        fh = compose(f, h)
        # (f after h)(a1) = f(a1 b1') = a1 (b1 a1)' = b1'
        assert fh.images[0].letters == (-2,)
        # compare pointwise against composing the actions
        w = Word((1, 2, -1))
        assert apply(fh, w) == apply(f, apply(h, w))

    def test_compose_threads_inverse_and_decomposition(self):
        f, h = twist_alpha(), twist_beta()
        fh = compose(f, h)
        assert fh.inverse_images is not None
        assert compose(fh, fh.inverse()).is_identity()
        assert compose(fh.inverse(), fh).is_identity()

    def test_compose_genus_mismatch(self):
        with pytest.raises(GenusMismatch):
            compose(twist_alpha(1), identity_class(2))

    def test_inverse_missing(self):
        f = MappingClass(1, (Word((1,)), Word((2, 1))))
        with pytest.raises(MissingInverse):
            f.inverse()

    def test_braid_relation(self):
        # T_alpha T_beta T_alpha = T_beta T_alpha T_beta on the one-holed torus
        A, B = twist_alpha(), twist_beta()
        lhs = compose(A, compose(B, A))
        rhs = compose(B, compose(A, B))
        assert lhs.images == rhs.images
        assert apply(lhs, Word((1,))).letters == (-2,)

    def test_twists_fix_boundary(self):
        for f in (twist_alpha(), twist_beta()):
            zeta = boundary_word(f.genus)
            assert apply(f, zeta) == zeta


class TestAbelianization:
    def test_identity_matrix(self):
        assert abelianization(identity_class(2)) == [
            [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]

    def test_twist_matrix(self):
        # b1 -> b1 a1: column of b1 gains an a1 entry
        assert abelianization(twist_alpha()) == [[1, 1], [0, 1]]
        assert abelianization(twist_beta()) == [[1, 0], [-1, 1]]

    def test_det_helper(self):
        assert _int_det([]) == 1
        assert _int_det([[5]]) == 5
        assert _int_det([[1, 2], [3, 4]]) == -2
        assert _int_det([[0, 1], [1, 0]]) == -1
        assert _int_det([[2, 0, 1], [1, 1, 0], [0, 3, 1]]) == 5
        assert _int_det([[1, 2], [2, 4]]) == 0

    def test_det_random_vs_expansion(self):
        def perm_det(m):
            import itertools
            n = len(m)
            total = 0
            for perm in itertools.permutations(range(n)):
                sign = 1
                for i in range(n):
                    for j in range(i + 1, n):
                        if perm[i] > perm[j]:
                            sign = -sign
                prod = 1
                for i in range(n):
                    prod *= m[i][perm[i]]
                total += sign * prod
            return total

        rng = random.Random(2)
        for _ in range(30):
            n = rng.randint(1, 4)
            m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            assert _int_det(m) == perm_det(m)


class TestValidate:
    def test_good_class(self):
        rep = validate(twist_alpha())
        assert rep.ok
        statuses = {c.name: c.status for c in rep.checks}
        assert statuses == {"boundary": "pass", "abelianization": "pass",
                            "inverse": "pass"}

    def test_skipped_inverse(self):
        f = MappingClass(1, (Word((1,)), Word((2, 1))))
        rep = validate(f)
        assert rep.ok
        assert {c.name: c.status for c in rep.checks}["inverse"] == "skipped"

    def test_boundary_failure(self):
        # swap a1 and b1: an automorphism, but zeta is not fixed
        with pytest.raises(ValidationFailure) as err:
            MappingClass(1, (Word((2,)), Word((1,))))
        assert "boundary: zeta maps to" in str(err.value)
        assert "abelianization" not in str(err.value)

    def test_bad_inverse(self):
        with pytest.raises(ValidationFailure) as err:
            MappingClass(1, (Word((2, 1)), Word((2,))),
                         inverse_images=(Word((1,)), Word((2,))))
        assert "inverse: compositions are not the identity" in str(err.value)

    def test_require_valid_names_failed_checks(self):
        require_valid(twist_alpha())
        with pytest.raises(ValidationFailure) as err:
            require_valid(MappingClass(1, (Word((2,)), Word((1,)))))
        assert "boundary" in str(err.value)
        assert "abelianization" not in str(err.value)

    def test_non_unimodular(self):
        with pytest.raises(ValidationFailure) as err:
            MappingClass(1, (Word((1, 1)), Word((2,))))
        assert "abelianization: det = 2" in str(err.value)


def draw_class(data, genus_range=(2, 3)):
    """A product of built-ins and handle twists (and their inverses)."""
    genus = data.draw(st.integers(*genus_range))
    alphabet = ([d.action for d in builtin_entries(genus).values()]
                + handle_twists(genus))
    f = identity_class(genus)
    for i, inv in data.draw(st.lists(
            st.tuples(st.integers(0, len(alphabet) - 1), st.booleans()),
            max_size=4)):
        f = compose(f, alphabet[i].inverse() if inv else alphabet[i])
    return f


def corrupt_one_letter(data, w: Word, rank: int) -> Word:
    """w with one letter replaced, or dropped, the result still reduced."""
    letters = list(w.letters)
    pos = data.draw(st.integers(0, len(letters) - 1))
    prev = letters[pos - 1] if pos > 0 else None
    nxt = letters[pos + 1] if pos + 1 < len(letters) else None
    droppable = prev is None or nxt is None or prev != -nxt
    if droppable and data.draw(st.booleans()):
        del letters[pos]
    else:
        choices = [y for x in range(1, rank + 1) for y in (x, -x)
                   if y != letters[pos] and -y not in (prev, nxt)]
        letters[pos] = data.draw(st.sampled_from(choices))
    return Word(tuple(letters))


class TestOneSidedInverse:
    """validate checks f g = id only; its verdict must be the two-sided one."""

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_verdict_matches_two_sided(self, data):
        f = draw_class(data)
        n = 2 * f.genus
        images, inverse = list(f.images), list(f.inverse_images)
        side = data.draw(st.sampled_from(["none", "images", "inverse"]))
        if side != "none":
            words = images if side == "images" else inverse
            j = data.draw(st.integers(0, n - 1))
            words[j] = corrupt_one_letter(data, words[j], n)
        fwd = _trusted(f.genus, tuple(images))
        back = _trusted(f.genus, tuple(inverse))
        two_sided = (compose(fwd, back).is_identity()
                     and compose(back, fwd).is_identity())
        report = validate(_trusted(f.genus, tuple(images), tuple(inverse)))
        status = {c.name: c.status for c in report.checks}["inverse"]
        assert status == ("pass" if two_sided else "fail")
        assert two_sided == (side == "none")

    def test_one_composition(self, monkeypatch):
        import torelli.freegroup as fg
        calls = []
        original = fg.compose
        monkeypatch.setattr(fg, "compose",
                            lambda f, h: calls.append(1) or original(f, h))
        assert validate(builtin_entries(3)["BP:std"].action).ok
        assert len(calls) == 1


class TestSubstitutionOracle:
    """apply, multiply and compose against list substitution plus stack
    reduction, on words built so that most letters cancel at a junction."""

    @staticmethod
    def words(data, rank):
        letter = st.integers(1, rank).flatmap(lambda x: st.sampled_from((x, -x)))
        return [reduce(data.draw(st.lists(letter, max_size=size)))
                for size in (12, 30, 12)]

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_multiply(self, data):
        rank = 2 * data.draw(st.integers(1, 3))
        ident = [(x,) for x in range(1, rank + 1)]
        w, u, v = self.words(data, rank)
        # w u times u^-1 v, and a conjugate by a long word
        left, right = multiply(w, u), multiply(invert(u), v)
        assert multiply(left, right).letters == naive_apply(
            ident, left.letters + right.letters)
        conj = multiply(multiply(u, w), invert(u))
        assert conj.letters == naive_apply(
            ident, u.letters + w.letters + invert(u).letters)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_apply(self, data):
        f = draw_class(data)
        rank = 2 * f.genus
        images = [w.letters for w in f.images]
        w, u, v = self.words(data, rank)
        g = f.inverse()
        for word in (multiply(multiply(w, u), multiply(invert(u), v)),
                     conjugate(w, u), conjugate(apply(g, w), u)):
            assert apply(f, word).letters == naive_apply(images, word.letters)
        # f(f^-1(x)) = x: every junction of the substitution cancels
        for j, back in enumerate(g.images, start=1):
            assert naive_apply(images, back.letters) == (j,)
            assert apply(f, back).letters == (j,)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_compose(self, data):
        f = draw_class(data)
        h = draw_class(data, (f.genus, f.genus))
        fh = compose(f, h)
        assert [w.letters for w in fh.images] == [
            naive_apply([x.letters for x in f.images], w.letters)
            for w in h.images]
        assert [w.letters for w in fh.inverse_images] == [
            naive_apply([x.letters for x in h.inverse_images], w.letters)
            for w in f.inverse_images]


class TestByteKernel:
    """The byte kernel against list substitution plus stack reduction, on
    cancelled runs of every length, up to whole words of 300 letters."""

    @staticmethod
    def reduced(rank, max_size):
        """Reduced words of random letters, the length drawn first (a
        plain list strategy mostly draws short lists)."""
        letter = st.integers(-rank, rank).filter(bool)
        return st.integers(0, max_size).flatmap(
            lambda n: st.lists(letter, min_size=n, max_size=n)).map(reduce)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_products_cancel_long_runs(self, data):
        rank = 2 * data.draw(st.integers(1, 3))
        ident = [(x,) for x in range(1, rank + 1)]
        u = data.draw(self.reduced(rank, 300))
        w, v = (data.draw(self.reduced(rank, 20)) for _ in range(2))
        # w u times u^-1 v: the surviving part of u cancels at the join,
        # and more when w and v cancel too; empty w or v cancels whole words
        left, right = multiply(w, u), multiply(invert(u), v)
        product = multiply(left, right)
        assert product.letters == naive_apply(ident, left.letters + right.letters)
        assert product == multiply(w, v)
        assert multiply(left, invert(left)).letters == ()
        assert multiply(invert(right), right).letters == ()

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_apply_and_compose_on_long_conjugates(self, data):
        f = draw_class(data)
        rank = 2 * f.genus
        u = data.draw(self.reduced(rank, 300))
        w = data.draw(self.reduced(rank, 20))
        images = [x.letters for x in f.images]
        conj = conjugate(w, u)
        assert apply(f, conj).letters == naive_apply(images, conj.letters)
        assert apply(f, conj) == conjugate(apply(f, w), apply(f, u))
        # conjugation by u, with its inverse conjugation by u^-1: every
        # junction of a substitution into it cancels a copy of u
        gens = [Word((j,)) for j in range(1, rank + 1)]
        h = _trusted(f.genus, tuple(conjugate(x, u) for x in gens),
                     tuple(conjugate(x, invert(u)) for x in gens))
        for outer, inner in ((f, h), (h, f)):
            composite = compose(outer, inner)
            assert [x.letters for x in composite.images] == [
                naive_apply([y.letters for y in outer.images], x.letters)
                for x in inner.images]
            assert [x.letters for x in composite.inverse_images] == [
                naive_apply([y.letters for y in inner.inverse_images],
                            x.letters)
                for x in outer.inverse_images]

    def test_letters_at_the_byte_edges(self):
        top = 2 * MAX_GENUS  # b63, the largest surface letter
        w = Word((top, -(top - 1), top + 1))
        assert w.letters == (126, -125, 127)
        assert list(w) == [126, -125, 127] and len(w) == 3
        assert invert(w).letters == (-127, 125, -126)
        assert multiply(w, invert(w)).letters == ()
        assert multiply(invert(w), w).letters == ()
        assert w.max_index() == invert(w).max_index() == 127
        assert format_word(w, MAX_GENUS) == "b63 a63' gamma"
        for bad in ((128,), (-128,), (1, 300)):
            with pytest.raises(GenusMismatch):
                Word(bad)
            with pytest.raises(GenusMismatch):
                reduce(bad)

    def test_genus_bound(self):
        assert len(boundary_word(MAX_GENUS)) == 4 * MAX_GENUS
        assert identity_class(MAX_GENUS).is_identity()
        for build in (boundary_word, identity_class):
            with pytest.raises(GenusMismatch, match="1..63"):
                build(MAX_GENUS + 1)
        with pytest.raises(GenusMismatch, match="1..63"):
            MappingClass(MAX_GENUS + 1, ())

    def test_top_handle_twist_and_gamma(self):
        # b63 -> b63 a63 at genus 63; the mapping-torus gamma is letter 127
        g, a, b = MAX_GENUS, 2 * MAX_GENUS - 1, 2 * MAX_GENUS
        images = [Word((j,)) for j in range(1, 2 * g + 1)]
        inverses = list(images)
        images[b - 1], inverses[b - 1] = Word((b, a)), Word((b, -a))
        f = MappingClass(g, tuple(images), tuple(inverses))
        assert apply(f, Word((-b, a, -b))).letters == naive_apply(
            [x.letters for x in images], (-b, a, -b))
        assert compose(f, f.inverse()).is_identity()
        gamma = 2 * g + 1
        ident = [(x,) for x in range(1, gamma + 1)]
        p = present_mapping_torus(f)
        for j, rel in enumerate(p.relators, start=1):
            # [alpha, gamma] f(alpha) alpha^-1
            assert rel.letters == naive_apply(
                ident, (j, gamma, -j, -gamma) + images[j - 1].letters + (-j,))
        assert p.text().splitlines()[-1] == (
            "rel: b63 gamma b63' gamma' b63 a63 b63'")
