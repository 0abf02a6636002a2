import pytest

from torelli.errors import GenusMismatch, ValidationFailure
from torelli.freegroup import (
    MappingClass,
    Word,
    boundary_word,
    identity_class,
    reduce,
)
from torelli.johnson import filtration_depth
from torelli.magnus import magnus_expand
from torelli.mcglib import boundary_twist, bp_map, bscc_twist
from torelli.present import (
    BlockRankReport,
    Presentation,
    eta_block_ranks,
    present_filled,
    present_mapping_torus,
)

from helpers import strip_gamma


class TestMappingTorus:
    def test_identity_genus1(self):
        p = present_mapping_torus(identity_class(1))
        assert p.generator_names == ("a1", "b1", "gamma")
        # f(alpha) alpha^-1 cancels, leaving the pure commutators
        assert p.relators == (Word((1, 3, -1, -3)), Word((2, 3, -2, -3)))

    def test_relator_count_genus3(self):
        p = present_mapping_torus(identity_class(3))
        assert len(p.relators) == 6
        assert len(p.generator_names) == 7

    def test_boundary_twist_genus1(self):
        f = boundary_twist(1).action
        p = present_mapping_torus(f)
        z = boundary_word(1)
        for j, rel in enumerate(p.relators, start=1):
            expected = reduce((j, 3, -j, -3) + z.letters + (j,)
                              + tuple(-x for x in reversed(z.letters)) + (-j,))
            assert rel == expected

    def test_relators_reduced(self):
        p = present_mapping_torus(bp_map(2).action)
        for rel in p.relators:
            assert rel == reduce(rel.letters)

    def test_rejects_invalid(self):
        with pytest.raises(ValidationFailure, match="boundary"):
            present_mapping_torus(MappingClass(1, (Word((2,)), Word((1,)))))

    def test_text_format(self):
        p = present_mapping_torus(identity_class(1))
        lines = p.text().splitlines()
        assert lines[0] == "gens: a1 b1 gamma"
        assert lines[1] == "rel: a1 gamma a1' gamma'"


class TestFilled:
    def test_identity_has_trivial_relators(self):
        p = present_filled(identity_class(2))
        assert p.generator_names == ("a1", "b1", "a2", "b2")
        assert all(r == Word(()) for r in p.relators)

    def test_boundary_twist_genus1(self):
        f = boundary_twist(1).action
        p = present_filled(f)
        z = boundary_word(1)
        for j, rel in enumerate(p.relators, start=1):
            expected = reduce(z.letters + (j,)
                              + tuple(-x for x in reversed(z.letters)) + (-j,))
            assert rel == expected

    def test_equals_gamma_stripped_torus(self):
        for f in (boundary_twist(1).action, bp_map(2).action,
                  bscc_twist(2, 1).action):
            torus = present_mapping_torus(f)
            assert strip_gamma(torus).relators == present_filled(f).relators

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_relator_depth_tracks_filtration(self, k):
        for f in (bp_map(2).action, bscc_twist(2, 1).action,
                  boundary_twist(2).action, identity_class(2)):
            depth = filtration_depth(f).depth
            in_level = depth is None or depth >= k
            relator_degrees = [magnus_expand(r, 4, k).min_positive_degree()
                               for r in present_filled(f).relators]
            all_deep = all(d is None or d >= k for d in relator_degrees)
            assert all_deep == in_level


class TestBlockRanks:
    @pytest.mark.parametrize("genus,k,h2,h1", [
        (2, 2, 6, 4), (1, 2, 1, 2), (2, 3, 20, 4), (3, 2, 15, 6)])
    def test_rank_table(self, genus, k, h2, h1):
        r = eta_block_ranks(genus, k)
        assert (r.h2_rank, r.h1_rank, r.h0_rank) == (h2, h1, 0)
        assert r.h3_status == "NOT COMPUTED"

    def test_text(self):
        out = eta_block_ranks(2, 2).text()
        assert "H2-block rank: 6" in out
        assert "NOT COMPUTED" in out

    def test_bad_arguments(self):
        with pytest.raises(GenusMismatch):
            eta_block_ranks(0, 2)
        with pytest.raises(ValueError):
            eta_block_ranks(2, 1)


class TestPresentationType:
    def test_generator_count_enforced(self):
        with pytest.raises(GenusMismatch):
            Presentation(1, ("a1",), ())

    def test_gamma_detection(self):
        # gamma is the extra generator past a_1..b_g
        torus = present_mapping_torus(identity_class(1))
        filled = present_filled(identity_class(1))
        assert len(torus.generator_names) == 2 * torus.genus + 1
        assert len(filled.generator_names) == 2 * filled.genus
