import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torelli.errors import GenusMismatch, NotInJk, ValidationFailure
from torelli.freegroup import (
    MappingClass,
    Word,
    boundary_word,
    commutator,
    compose,
    conjugate,
    displacements,
    identity_class,
    invert,
    multiply,
)
from torelli import johnson
from torelli.freelie import H1LieTensor, LieElement, to_lyndon_coords
from torelli.johnson import (
    DepthReport,
    MoritaReport,
    TowerReport,
    bordant,
    filtration_depth,
    morita_check,
    symplectic_dual,
    tau,
    tau_tower,
)
from torelli.magnus import magnus_expand
from torelli.mcglib import bp_map, builtin_entries

from helpers import (flatten_series, full_bordant, full_depth_witnesses,
                     full_tower, handle_twists, naive_magnus, outcome)


def conjugation_twist(genus, curve, handles):
    """Conjugate the generators of the listed handles by the curve word."""
    images, inv = [], []
    curve_inv = invert(curve)
    for j in range(1, 2 * genus + 1):
        if (j + 1) // 2 in handles:
            images.append(conjugate(Word((j,)), curve))
            inv.append(conjugate(Word((j,)), curve_inv))
        else:
            images.append(Word((j,)))
            inv.append(Word((j,)))
    return MappingClass(genus, tuple(images), tuple(inv))


def boundary_twist(genus):
    return conjugation_twist(genus, boundary_word(genus),
                             list(range(1, genus + 1)))


def bscc1_twist(genus):
    c = commutator(Word((1,)), Word((2,)))
    return conjugation_twist(genus, c, [1])


def humphries_alpha(genus=1):
    images = [Word((j,)) for j in range(1, 2 * genus + 1)]
    inv = list(images)
    images[1] = Word((2, 1))
    inv[1] = Word((2, -1))
    return MappingClass(genus, tuple(images), tuple(inv))


def humphries_beta(genus=1):
    images = [Word((j,)) for j in range(1, 2 * genus + 1)]
    inv = list(images)
    images[0] = Word((1, -2))
    inv[0] = Word((1, 2))
    return MappingClass(genus, tuple(images), tuple(inv))


class TestDepthReport:
    def test_depth_is_min_witness(self):
        r = DepthReport(2, 4, (3, None, 4, None))
        assert r.depth == 3
        assert DepthReport(1, 4, (None, None)).depth is None

    def test_certifies(self):
        # level k (k <= cutoff + 1) holds when no generator moves below k
        for witnesses in ((3, 3), (3, None), (None, None), (2, 4)):
            d = DepthReport(1, 5, witnesses).depth
            for k in range(1, 7):
                assert (d is None or d >= k) == all(
                    w is None or w >= k for w in witnesses)


class TestFiltrationDepth:
    def test_identity(self):
        r = filtration_depth(identity_class(2), 6)
        assert r.depth is None and r.cutoff == 6
        assert r.witnesses == (None,) * 4

    def test_boundary_twist_genus1(self):
        r = filtration_depth(boundary_twist(1), 5)
        assert r.witnesses == (3, 3)
        assert r.depth == 3

    def test_bscc_twist_genus2(self):
        r = filtration_depth(bscc1_twist(2), 4)
        assert r.depth == 3
        assert r.witnesses == (3, 3, None, None)

    def test_non_torelli(self):
        r = filtration_depth(humphries_alpha(), 4)
        assert r.depth == 1
        assert r.witnesses == (None, 1)

    def test_validation_propagates(self):
        with pytest.raises(ValidationFailure, match="boundary"):
            filtration_depth(MappingClass(1, (Word((2,)), Word((1,)))), 3)

    def test_displacement_series_match_naive(self):
        f = boundary_twist(1)
        for j, w in enumerate(displacements(f), start=1):
            assert w == multiply(f.images[j - 1], Word((-j,)))
            assert flatten_series(magnus_expand(w, 2, 4)) == naive_magnus(w, 4)


class TestTau:
    def test_identity_zero(self):
        for k in (2, 3, 4):
            assert tau(identity_class(2), k).is_zero()
        assert H1LieTensor(2, 3, (LieElement.zero(4, 3),) * 4).is_zero()

    def test_boundary_twist_genus1_level3(self):
        t = tau(boundary_twist(1), 3)
        assert t.components[0].coords == {(1, 1, 2): -1}
        assert t.components[1].coords == {(1, 2, 2): 1}
        assert not t.is_zero()

    def test_boundary_twist_components_match_naive_expansion(self):
        f = boundary_twist(1)
        t = tau(f, 3)
        for j in (1, 2):
            w = multiply(f.images[j - 1], Word((-j,)))
            poly = naive_magnus(w, 3)
            deg3 = {m: c for m, c in poly.items() if len(m) == 3}
            assert t.components[j - 1].coords == to_lyndon_coords(deg3, 3)

    def test_level2_of_level3_class_vanishes(self):
        assert tau(boundary_twist(1), 2).is_zero()
        assert tau(bscc1_twist(2), 2).is_zero()

    def test_not_deep_enough(self):
        with pytest.raises(NotInJk) as exc:
            tau(humphries_alpha(), 2)
        assert exc.value.degree == 1
        assert exc.value.witness == "b1"
        assert exc.value.k == 2

    def test_additivity_level3(self):
        f, h = bscc1_twist(2), boundary_twist(2)
        lhs = tau(compose(f, h), 3)
        rhs = tau(f, 3).add(tau(h, 3))
        assert lhs == rhs
        assert tau(compose(f, f), 3) == tau(f, 3).add(tau(f, 3))

    def test_inverse_negates(self):
        f = boundary_twist(2)
        assert tau(f.inverse(), 3) == tau(f, 3).neg()

    def test_kernel_law(self):
        # vanishing at level k means depth reaches k+1
        f = bscc1_twist(2)
        assert tau(f, 2).is_zero()
        assert filtration_depth(f, 3).depth == 3
        h = boundary_twist(1)
        assert not tau(h, 3).is_zero()
        assert filtration_depth(h, 4).depth == 3

    def test_value_arithmetic_checks(self):
        with pytest.raises(ValueError):
            tau(identity_class(1), 2).add(tau(identity_class(1), 3))
        with pytest.raises(ValueError):
            H1LieTensor(1, 2, (LieElement.zero(2, 2),))
        with pytest.raises(ValueError):
            tau(identity_class(1), 0)


class TestSymplecticDual:
    def test_slot_wiring_genus1(self):
        t = tau(boundary_twist(1), 3)
        dual = symplectic_dual(t)
        assert dual.components[0] == t.components[1]
        assert dual.components[1] == t.components[0].neg()

    def test_slot_wiring_genus2(self):
        t = tau(boundary_twist(2), 3)
        dual = symplectic_dual(t)
        assert dual.components[0] == t.components[1]
        assert dual.components[1] == t.components[0].neg()
        assert dual.components[2] == t.components[3]
        assert dual.components[3] == t.components[2].neg()


class TestMorita:
    def test_identity(self):
        rep = morita_check(identity_class(1), 2)
        assert rep.contained and rep.bracket.is_zero()
        assert rep.bracket.degree == 3

    @pytest.mark.parametrize("f,k", [
        (boundary_twist(1), 3),
        (boundary_twist(2), 3),
        (bscc1_twist(2), 3),
        (compose(bscc1_twist(2), boundary_twist(2)), 3),
    ])
    def test_containment(self, f, k):
        rep = morita_check(f, k)
        assert rep.contained
        assert rep.bracket.is_zero()

    def test_not_in_level(self):
        with pytest.raises(NotInJk):
            morita_check(humphries_beta(), 2)


class TestBordant:
    def test_reflexive(self):
        f = boundary_twist(1)
        assert bordant(f, f, 2)
        assert bordant(f, f, 3)

    def test_boundary_twist_vs_identity(self):
        f = boundary_twist(1)
        e = identity_class(1)
        # depth 3 >= 2*2-1 but 3 < 2*3-1
        assert bordant(f, e, 2)
        assert not bordant(f, e, 3)

    def test_symmetric_sampled(self):
        f, e = boundary_twist(1), identity_class(1)
        assert bordant(e, f, 2) == bordant(f, e, 2)
        assert bordant(e, f, 3) == bordant(f, e, 3)

    def test_transitive_sampled(self):
        e = identity_class(1)
        f = boundary_twist(1)
        ff = compose(f, f)
        for k in (2,):
            assert bordant(f, e, k) and bordant(ff, f, k)
            assert bordant(ff, e, k)

    def test_composition_compatibility(self):
        u = bscc1_twist(2)
        f = boundary_twist(2)
        e = identity_class(2)
        assert bordant(f, e, 2)
        assert bordant(compose(u, f), compose(u, e), 2)

    def test_requires_level(self):
        with pytest.raises(NotInJk):
            bordant(humphries_alpha(), identity_class(1), 2)
        with pytest.raises(NotInJk):
            bordant(identity_class(1), humphries_alpha(), 2)

    def test_missing_inverse(self):
        # bordant reads images only, so h needs no inverse images
        f = boundary_twist(1)
        e = identity_class(1)
        for g in (f, e):
            h = MappingClass(1, g.images)  # no inverse images
            for k in (2, 3):
                assert bordant(f, h, k) == bordant(f, g, k)
                assert bordant(h, f, k) == bordant(g, f, k)

    def test_genus_mismatch(self):
        g2, g3 = (builtin_entries(g)["BP:std"].action for g in (2, 3))
        for f, h in ((g2, g3), (g3, g2)):
            with pytest.raises(GenusMismatch, match="genus mismatch: "):
                bordant(f, h, 2)


class TestTower:
    def test_identity(self):
        rep = tau_tower(identity_class(1), 2, 5)
        assert rep.first_nonzero is None
        assert [k for k, _ in rep.entries] == [2, 3, 4, 5]
        assert all(v.is_zero() for _, v in rep.entries)

    def test_boundary_twist(self):
        rep = tau_tower(boundary_twist(1), 2, 4)
        assert [k for k, _ in rep.entries] == [2, 3]
        assert rep.entries[0][1].is_zero()
        assert not rep.entries[1][1].is_zero()
        assert rep.first_nonzero == 3

    def test_bscc(self):
        rep = tau_tower(bscc1_twist(2), 2, 3)
        assert rep.first_nonzero == 3
        assert rep.entries[0][1].is_zero()

    def test_matches_tau(self):
        f = boundary_twist(1)
        rep = tau_tower(f, 2, 4)
        for k, value in rep.entries:
            assert value == tau(f, k)

    def test_rejects_below_kmin(self):
        with pytest.raises(NotInJk):
            tau_tower(humphries_alpha(), 2, 3)
        with pytest.raises(ValueError):
            tau_tower(identity_class(1), 3, 2)


class TestFailFastLevel:
    """A level far above the depth is refused at the degree where the first
    generator moves, without expanding any displacement to the level."""

    @pytest.fixture
    def shallow(self, monkeypatch):
        real = johnson.magnus_expand

        def guarded(w, rank, cutoff):
            if cutoff > 2:
                pytest.fail(f"expanded to degree {cutoff}")
            return real(w, rank, cutoff)

        monkeypatch.setattr(johnson, "magnus_expand", guarded)

    def test_tau(self, shallow):
        with pytest.raises(NotInJk) as exc:
            tau(bp_map(2).action, 40)
        assert (exc.value.witness, exc.value.degree) == ("a1", 2)

    def test_bordant(self, shallow):
        bp = bp_map(2).action
        with pytest.raises(NotInJk) as exc:
            bordant(bp, bp, 40)
        assert (exc.value.witness, exc.value.degree) == ("a1", 2)


class TestLargeLevel:
    """A level far above every displacement's depth answers at once: a
    generator the class fixes has the empty displacement, which is never
    expanded.  The answers are the ones at a small level."""

    HUGE = 10 ** 6

    @pytest.mark.parametrize("name", ["id", "BSCC:1"])
    def test_answers_at_once(self, name):
        # genus-2 BSCC:1 fixes a2 and b2
        f = (identity_class(2) if name == "id"
             else builtin_entries(2)["BSCC:1"].action)
        e = identity_class(2)
        start = time.perf_counter()
        depth = filtration_depth(f, self.HUGE).witnesses
        big_tau = outcome(tau, f, self.HUGE)
        big_bordant = [outcome(bordant, f, h, self.HUGE) for h in (e, f)]
        assert time.perf_counter() - start < 1
        assert depth == filtration_depth(f).witnesses
        small_tau = outcome(tau, f, 4)
        if name == "id":
            assert depth == (None,) * 4
            assert big_tau.degree == self.HUGE and small_tau.degree == 4
            assert big_tau.is_zero() and small_tau.is_zero()
            assert big_bordant == [outcome(bordant, f, h, 2) for h in (e, f)]
            assert big_bordant == [True, True]
        else:
            assert depth == (3, 3, None, None)
            assert big_tau == small_tau == ("NotInJk", "a1", 3)
            assert big_bordant == [("NotInJk", "a1", 3)] * 2
            assert outcome(bordant, f, f, 4) == big_bordant[1]


class TestCommutatorLaw:
    # commutators drop through the filtration: [level k, level l] lands at
    # level k+l-1; both instances below are sharp

    def _swap_handles(self):
        c = commutator(Word((1,)), Word((2,)))
        d = commutator(Word((3,)), Word((4,)))
        return MappingClass(
            2,
            images=(conjugate(Word((3,)), c), conjugate(Word((4,)), c),
                    Word((1,)), Word((2,))),
            inverse_images=(Word((3,)), Word((4,)),
                            conjugate(Word((1,)), invert(d)),
                            conjugate(Word((2,)), invert(d))))

    def test_two_bounding_pairs(self):
        bp = bp_map(2).action
        swap = self._swap_handles()
        other = compose(compose(swap, bp), swap.inverse())
        assert filtration_depth(other).depth == 2
        comm = compose(compose(bp, other),
                       compose(bp.inverse(), other.inverse()))
        assert not comm.is_identity()
        assert filtration_depth(comm).depth == 3

    def test_bounding_pair_against_separating(self):
        bp = bp_map(2).action
        swap = self._swap_handles()
        sep2 = compose(compose(swap, bscc1_twist(2)), swap.inverse())
        assert filtration_depth(sep2).depth == 3
        comm = compose(compose(bp, sep2),
                       compose(bp.inverse(), sep2.inverse()))
        assert not comm.is_identity()
        assert filtration_depth(comm).depth == 4

    def test_disjoint_supports_commute(self):
        bp = bp_map(2).action
        sep = bscc1_twist(2)
        comm = compose(compose(bp, sep),
                       compose(bp.inverse(), sep.inverse()))
        assert comm.is_identity()

    def test_tau2_additive_on_bounding_pair(self):
        bp = bp_map(2).action
        doubled = tau(compose(bp, bp), 2)
        single = tau(bp, 2)
        assert doubled == single.add(single)
        # composing with a deeper class leaves tau2 alone
        assert tau(compose(bp, bscc1_twist(2)), 2) == single


@st.composite
def classes(draw, genus, torelli=False):
    """t c t^-1, or (unless ``torelli``) t c t^-1 e: c a product of one to
    three built-ins or their inverses, t and e products of handle twists.
    Without e the class is in the Torelli group, at depth 2, 3 or deeper;
    with e it usually is not, and moves at degree 1."""
    builtins = [e.action for e in builtin_entries(genus).values()]
    twists = handle_twists(genus)

    def product(alphabet, min_size, max_size):
        f = identity_class(genus)
        for i, inv in draw(st.lists(
                st.tuples(st.integers(0, len(alphabet) - 1), st.booleans()),
                min_size=min_size, max_size=max_size)):
            f = compose(f, alphabet[i].inverse() if inv else alphabet[i])
        return f

    t = product(twists, 0, 2)
    f = compose(compose(t, product(builtins, 1, 3)), t.inverse())
    if not torelli and draw(st.booleans()):
        f = compose(f, product(twists, 1, 2))
    return f


class TestAgainstFullCutoff:
    # each verb expands a displacement only as far as its answer needs;
    # the answers must be those read off full expansions at the cutoff.
    # The levels are drawn before the classes, which keeps them spread.

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_filtration_depth(self, data):
        genus = data.draw(st.integers(2, 3))
        cutoff = data.draw(st.integers(0, 6))
        f = data.draw(classes(genus))
        assert filtration_depth(f, cutoff).witnesses == \
            full_depth_witnesses(f, cutoff)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_tau_tower(self, data):
        genus = data.draw(st.integers(2, 3))
        kmax = data.draw(st.integers(1, 6))
        kmin = data.draw(st.integers(1, kmax))
        f = data.draw(classes(genus))
        rep = outcome(tau_tower, f, kmin, kmax)
        if isinstance(rep, TowerReport):
            rep = (rep.entries, rep.first_nonzero)
        assert rep == full_tower(f, kmin, kmax)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_bordant(self, data):
        genus = data.draw(st.integers(2, 3))
        k = data.draw(st.integers(1, 4))
        f = data.draw(classes(genus))
        h = data.draw(classes(genus, torelli=True))
        expected = full_bordant(f, h, k)
        assert outcome(bordant, f, h, k) == expected
        # the same answer from h without its inverse images
        bare = MappingClass(h.genus, h.images)
        assert outcome(bordant, f, bare, k) == expected
