import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from torelli.cli import main
from torelli.errors import ValidationFailure
from torelli.freegroup import (MAX_GENUS, MappingClass, compose,
                               identity_class, letter_name)
from torelli.mcglib import (
    boundary_twist,
    builtin_entries,
    serialize_map_file,
    serialize_tor_file,
)
from torelli.spinquad import MAX_FORM_GENUS, form_literal

from helpers import product_forms
from test_freegroup import corrupt_one_letter, draw_class


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Input corpus: identity, library generators, a few Torelli words."""
    root = tmp_path_factory.mktemp("cli")
    ents = builtin_entries(2)

    def put(name, text):
        p = root / name
        p.write_text(text)
        return str(p)

    return {
        "id": put("id.map", serialize_map_file(identity_class(2))),
        "bscc": put("bsccg2.map", serialize_map_file(ents["BSCC:1"].action)),
        "bp": put("bp.map", serialize_map_file(ents["BP:std"].action)),
        "bdry1": put("bdry1.map",
                     serialize_map_file(boundary_twist(1).action)),
        "bp_tor": put("bp.tor", serialize_tor_file(2, [(ents["BP:std"], 1)])),
        "comm_tor": put("comm.tor", serialize_tor_file(2, [
            (ents["BSCC:1"], 1), (ents["BP:std"], 1),
            (ents["BSCC:1"], -1), (ents["BP:std"], -1)])),
        "bad": put("bad.map", "genus 2\nmap\na1 -> a2\nb1 -> b2\n"
                              "a2 -> a1\nb2 -> b1\n"),
        "root": str(root),
    }


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestDepth:
    def test_identity_exceeds_cutoff(self, capsys, files):
        code, out, _ = run(capsys, ["depth", "--max-k", "5", "-i", files["id"]])
        assert code == 0
        assert out == "depth >= 6\n"

    def test_bounding_pair_depth_two(self, capsys, files):
        code, out, _ = run(capsys, ["depth", "-i", files["bp"]])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "depth = 2"
        assert lines[1] == "witness a1: 2"
        assert len(lines) == 5


class TestTau:
    def test_separating_twist_level2_zero(self, capsys, files):
        code, out, _ = run(capsys, ["tau", "-k", "2", "-i", files["bscc"]])
        assert code == 0
        assert out.splitlines() == [
            "tau k=2", "a1: 0", "b1: 0", "a2: 0", "b2: 0"]

    def test_bounding_pair_level2(self, capsys, files):
        code, out, _ = run(capsys, ["tau", "-k", "2", "-i", files["bp"]])
        assert code == 0
        assert out.splitlines() == [
            "tau k=2",
            "a1: [a1 a2]",
            "b1: [b1 a2]",
            "a2: 0",
            "b2: [a1 b1]",
        ]

    def test_level_above_depth_is_domain_error(self, capsys, files):
        code, out, err = run(capsys, ["tau", "-k", "4", "-i", files["bp"]])
        assert code == 1
        assert "error: NOT_IN_JK" in out
        assert err  # human-readable reason on stderr

    @pytest.mark.parametrize("verb", ["tau", "bordant"])
    def test_level_far_above_depth_fails_fast(self, capsys, files, verb):
        # the depth-2 map is refused at degree 2, not expanded to degree 40
        code, out, _ = run(capsys, [verb, "-k", "40", "-i", files["bp"]])
        assert (code, out) == (1, "error: NOT_IN_JK\n")


class TestTauTower:
    def test_boundary_twist_tower(self, capsys, files):
        code, out, _ = run(capsys, ["tau-tower", "-i", files["bdry1"]])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "tower k=2..5"
        assert "k=2: zero" in lines
        assert "k=3: nonzero" in lines
        assert "first nonzero: k=3" in lines
        assert "tau k=3" in lines


class TestBordant:
    @pytest.mark.parametrize("k,answer", [(2, "true"), (3, "false")])
    def test_boundary_twist_vs_identity(self, capsys, files, k, answer):
        code, out, _ = run(capsys,
                           ["bordant", "-i", files["bdry1"], "-k", str(k)])
        assert code == 0
        assert out == f"bordant k={k}: {answer}\n"

    def test_with_flag_reflexive(self, capsys, files):
        code, out, _ = run(capsys, ["bordant", "-i", files["bp"],
                                    "--with", files["bp"], "-k", "2"])
        assert code == 0
        assert out == "bordant k=2: true\n"

    def test_level_precondition(self, capsys, files):
        # both inputs must certify level k; a depth-2 map fails at k=3
        code, out, _ = run(capsys, ["bordant", "-i", files["bp"],
                                    "--with", files["bp"], "-k", "3"])
        assert code == 1
        assert "error: NOT_IN_JK" in out

    def test_with_map_without_inverse_block(self, capsys, files, tmp_path):
        # bordant reads images only, so --with needs no inverse block
        bare = tmp_path / "id_bare.map"
        bare.write_text(serialize_map_file(
            MappingClass(1, identity_class(1).images)))
        assert "inverse" not in bare.read_text()
        for k, answer in ((2, "true"), (3, "false")):
            code, out, _ = run(capsys, ["bordant", "-i", files["bdry1"],
                                        "--with", str(bare), "-k", str(k)])
            assert (code, out) == (0, f"bordant k={k}: {answer}\n")

    def test_with_map_of_another_genus(self, capsys, files, tmp_path):
        other = tmp_path / "bp_g3.map"
        other.write_text(serialize_map_file(builtin_entries(3)["BP:std"].action))
        code, out, _ = run(capsys, ["bordant", "-i", files["bp"],
                                    "--with", str(other), "-k", "2"])
        assert (code, out) == (1, "error: GENUS_MISMATCH\n")


class TestMoritaCheck:
    def test_contained(self, capsys, files):
        code, out, _ = run(capsys,
                           ["morita-check", "-i", files["bp"], "-k", "2"])
        assert code == 0
        assert out == "morita k=2: contained\n"


class TestBc:
    def test_all_forms_bitstring(self, capsys, files):
        code, out, _ = run(capsys, ["bc", "-i", files["bp_tor"],
                                    "--all-forms"])
        assert code == 0
        assert out.startswith("rho: ")
        assert len(out.split()[1]) == 10  # Arf-0 forms at genus 2

    def test_single_form(self, capsys, files):
        code, out, _ = run(capsys, ["bc", "-i", files["bp_tor"],
                                    "--form", "q: x1=0 y1=1 x2=0 y2=0"])
        assert code == 0
        assert out in ("rho: 0\n", "rho: 1\n")

    def test_arf_one_form_rejected(self, capsys, files):
        code, out, _ = run(capsys, ["bc", "-i", files["bp_tor"],
                                    "--form", "q: x1=1 y1=1 x2=0 y2=0"])
        assert code == 1
        assert "error: ARF_NONZERO" in out

    def test_needs_a_form_flag(self, capsys, files):
        code, out, _ = run(capsys, ["bc", "-i", files["bp_tor"]])
        assert code == 2
        assert "error: SYNTAX_ERROR" in out


class TestEta2:
    def test_commutator_trivial(self, capsys, files):
        code, out, _ = run(capsys, ["eta2", "-i", files["comm_tor"]])
        assert code == 0
        lines = out.splitlines()
        assert lines[-1] == "trivial: true"
        assert lines[-2] == "rho: 0000000000"

    def test_single_generator_not_trivial(self, capsys, files):
        code, out, _ = run(capsys, ["eta2", "-i", files["bp_tor"]])
        assert code == 0
        assert out.splitlines()[-1] == "trivial: false"

    def test_inverse_letter_without_inverse_block(self, capsys, tmp_path):
        # eta2 sums tau_2 over the letters instead of composing them, so an
        # action file with no `inverse` block serves an inverted letter
        bp = builtin_entries(2)["BP:std"]
        (tmp_path / "p.map").write_text(
            serialize_map_file(MappingClass(2, bp.action.images)))
        (tmp_path / "p.tor").write_text(
            "genus 2\ngen P bp class x2 pair (x1 y1) action p.map\nword P'\n")
        (tmp_path / "std.tor").write_text("genus 2\nword BP:std'\n")
        code, out, _ = run(capsys, ["eta2", "-i", str(tmp_path / "p.tor")])
        assert code == 0
        assert (code, out) == run(capsys, ["eta2", "-i",
                                           str(tmp_path / "std.tor")])[:2]
        assert "a1: -[a1 a2]" in out.splitlines()


class TestForms:
    @pytest.mark.parametrize("genus,count", [(1, 3), (2, 10)])
    def test_arf0_counts(self, capsys, genus, count):
        code, out, _ = run(capsys, ["forms", "--genus", str(genus),
                                    "--arf", "0"])
        assert code == 0
        lines = out.splitlines()
        assert lines[-1] == f"count: {count}"
        assert len(lines) == count + 1
        assert all(line.startswith("q: ") for line in lines[:-1])

    def test_unfiltered_total(self, capsys):
        code, out, _ = run(capsys, ["forms", "--genus", "2"])
        assert code == 0
        assert out.splitlines()[-1] == "count: 16"

    @pytest.mark.parametrize("genus", range(4, 8))
    @pytest.mark.parametrize("arf", [None, 0, 1])
    def test_listing_matches_form_literal(self, capsys, genus, arf):
        argv = ["forms", "--genus", str(genus)]
        if arf is not None:
            argv += ["--arf", str(arf)]
        forms = product_forms(genus, arf)
        expected = "".join(form_literal(q) + "\n" for q in forms)
        assert run(capsys, argv)[:2] == (0, expected + f"count: {len(forms)}\n")

    @pytest.mark.parametrize("genus", [0, MAX_FORM_GENUS + 1])
    def test_genus_out_of_range(self, capsys, genus):
        assert run(capsys, ["forms", "--genus", str(genus)]) == (
            1, "error: GENUS_MISMATCH\n",
            f"genus must be in 1..{MAX_FORM_GENUS}, got {genus}\n")


class TestLie:
    def test_lyndon_brackets(self, capsys):
        code, out, _ = run(capsys, ["lie", "--genus", "1", "-k", "3"])
        assert code == 0
        assert out.splitlines() == [
            "lie rank=2 degree=3 basis=lyndon",
            "[a1 [a1 b1]]",
            "[[a1 b1] b1]",
            "dim: 2",
        ]

    def test_monomial_basis(self, capsys):
        code, out, _ = run(capsys, ["lie", "--genus", "1", "-k", "3",
                                    "--basis", "monomial"])
        assert code == 0
        assert "a1 a1 b1" in out.splitlines()
        assert out.splitlines()[-1] == "dim: 2"

    @pytest.mark.parametrize("genus,k", [("1", "200"), ("50", "8")])
    def test_oversized_listing_refused(self, capsys, monkeypatch, genus, k):
        # refused from the layer's rank alone, before any word is listed
        import torelli.cli as cli
        monkeypatch.setattr(cli, "lyndon_basis",
                            lambda *a: pytest.fail("listing was built"))
        code, out, err = run(capsys, ["lie", "--genus", genus, "-k", k])
        assert (code, out) == (1, "error: TOO_LARGE\n")
        assert "listing budget is 100000" in err

    @pytest.mark.parametrize("verb,k", [("lie", "20000"), ("blocks", "20000"),
                                        ("lie", "100000000")])
    def test_huge_degree_refused(self, capsys, verb, k):
        # refused before the Witt rank's powers are taken, so the rank is
        # never formatted past Python's integer-to-text digit limit
        code, out, err = run(capsys, [verb, "--genus", "1", "-k", k])
        assert (code, out) == (1, "error: TOO_LARGE\n")
        assert "exceeds 4096" in err

    def test_budget_is_inclusive(self, capsys, monkeypatch):
        import torelli.cli as cli
        monkeypatch.setattr(cli, "MAX_LISTING", 2)
        code, out, _ = run(capsys, ["lie", "--genus", "1", "-k", "3"])
        assert (code, out.splitlines()[-1]) == (0, "dim: 2")
        code, out, _ = run(capsys, ["lie", "--genus", "1", "-k", "4"])
        assert (code, out) == (1, "error: TOO_LARGE\n")


class TestPresent:
    def test_torus_has_gamma(self, capsys, files):
        code, out, _ = run(capsys, ["present", "-i", files["bdry1"]])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "gens: a1 b1 gamma"
        assert sum(1 for x in lines if x.startswith("rel: ")) == 2

    def test_filled_drops_gamma(self, capsys, files):
        code, out, _ = run(capsys, ["present", "-i", files["bdry1"],
                                    "--filled"])
        assert code == 0
        assert out.splitlines()[0] == "gens: a1 b1"
        assert "gamma" not in out


class TestBlocks:
    def test_genus2_level2(self, capsys):
        code, out, _ = run(capsys, ["blocks", "--genus", "2", "-k", "2"])
        assert code == 0
        lines = out.splitlines()
        assert "H2-block rank: 6" in lines
        assert "H1-block rank: 4" in lines
        assert "H0-block rank: 0" in lines
        assert "H3-block: NOT COMPUTED" in lines


class TestGens:
    def test_listing(self, capsys):
        code, out, _ = run(capsys, ["gens", "--genus", "2"])
        assert code == 0
        assert out.splitlines() == [
            "BDRY bscc pairs (x1 y1)(x2 y2)",
            "BP:std bp class x2 pair (x1 y1)",
            "BSCC:1 bscc pairs (x1 y1)",
        ]


class TestValidate:
    def test_map_ok(self, capsys, files):
        code, out, _ = run(capsys, ["validate", "-i", files["bp"]])
        assert code == 0
        assert out.splitlines()[-1] == "result: ok"

    def test_tor_ok(self, capsys, files):
        code, out, _ = run(capsys, ["validate", "-i", files["comm_tor"]])
        assert code == 0
        assert "word length: 4" in out

    def test_zeta_violation_is_domain_error(self, capsys, files, tmp_path):
        bad = tmp_path / "bad.map"
        bad.write_text("genus 2\nmap\na1 -> a2\nb1 -> b2\n"
                       "a2 -> a1\nb2 -> b1\n")
        code, out, _ = run(capsys, ["validate", "-i", str(bad)])
        assert code == 1
        assert "error: VALIDATION_FAILED" in out

    def test_alias_doubling_is_too_large(self, capsys, tmp_path):
        # 40 doublings would spell 2^42 letters; line 20 (x18) passes the
        # budget of 1,000,000
        lines = ["genus 2", "let x0 = a1 b1"]
        lines += [f"let x{i} = x{i - 1} x{i - 1}" for i in range(1, 41)]
        lines += ["map"] + [f"{c}{i} -> {c}{i}" for i in (1, 2) for c in "ab"]
        path = tmp_path / "alias.map"
        path.write_text("\n".join(lines) + "\n")
        code, out, err = run(capsys, ["validate", "-i", str(path)])
        assert (code, out) == (1, "error: TOO_LARGE\n")
        assert "line 20" in err


def main_captured(argv):
    """Exit code and stdout of one in-process run; Hypothesis tests cannot
    share the function-scoped capsys fixture across examples."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


class TestCorruptInverseBlock:
    """A .map whose inverse block does not invert its images: the verbs that
    read images only answer as if the block were absent, and the block is
    refused where it is read."""

    VERBS = (["depth"], ["tau", "-k", "2"], ["tau-tower"],
             ["bordant", "-k", "2"], ["morita-check", "-k", "2"],
             ["present"], ["present", "--filled"])

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_block_read_only_where_needed(self, data):
        f = draw_class(data)
        n = 2 * f.genus
        inverse = list(f.inverse_images)
        j = data.draw(st.integers(0, n - 1))
        inverse[j] = corrupt_one_letter(data, inverse[j], n)
        bad = MappingClass(f.genus, f.images, tuple(inverse))
        with tempfile.TemporaryDirectory() as root:
            bad_path, plain_path = Path(root) / "bad.map", Path(root) / "plain.map"
            bad_path.write_text(serialize_map_file(bad))
            plain_path.write_text(serialize_map_file(
                MappingClass(f.genus, f.images)))
            for verb in self.VERBS:
                assert (main_captured(verb + ["-i", str(bad_path)])
                        == main_captured(verb + ["-i", str(plain_path)]))
            for side in (bad_path, plain_path):
                other = plain_path if side == bad_path else bad_path
                assert (main_captured(["bordant", "-k", "2", "-i", str(side),
                                       "--with", str(bad_path)])
                        == main_captured(["bordant", "-k", "2", "-i", str(side),
                                          "--with", str(other)]))
            assert main_captured(["validate", "-i", str(bad_path)]) == (
                1, "error: VALIDATION_FAILED\n")
        for read in (bad.inverse, lambda: compose(bad, f),
                     lambda: compose(f, bad)):
            with pytest.raises(ValidationFailure):
                read()


class TestGenusBound:
    """A genus enters words through a .map or .tor genus line and through
    `gens --genus`; one byte per letter bounds it by MAX_GENUS = 63."""

    @staticmethod
    def input_text(kind, genus):
        if kind == "tor":
            return f"genus {genus}\nword BSCC:1\n"
        # the parser stops at the genus line, so a huge genus needs no images
        small = isinstance(genus, int) and genus <= MAX_GENUS + 3
        lines = range(1, 2 * genus + 1) if small else ()
        return f"genus {genus}\nmap\n" + "".join(
            f"{letter_name(j)} -> {letter_name(j)}\n" for j in lines)

    @given(genus=st.integers(MAX_GENUS - 2, MAX_GENUS + 3)
           | st.sampled_from([0, 1, 2 * MAX_GENUS + 1, 200, 10 ** 30,
                              "²", "1" * 5000]),
           kind=st.sampled_from(["map", "tor"]),
           verb=st.sampled_from(["validate", "depth", "present", "tau"]))
    @example(genus="²", kind="map", verb="depth")
    @example(genus="1" * 5000, kind="tor", verb="validate")
    @settings(max_examples=40, deadline=None)
    def test_inputs_around_the_bound(self, genus, kind, verb):
        with tempfile.TemporaryDirectory() as root:
            path = Path(root) / f"in.{kind}"
            path.write_text(self.input_text(kind, genus))
            argv = [verb, "-i", str(path)] + (["-k", "2"] if verb == "tau" else [])
            code, out = main_captured(argv)
        assert code in (0, 1, 2)
        if code:
            assert out.startswith("error: ")
        if genus in ("²", 0) or (kind == "tor" and genus == 1):
            # a genus that is no decimal or 0, or BSCC:1 named where it
            # does not exist
            assert (code, out) == (2, "error: SYNTAX_ERROR\n")
        elif genus == "1" * 5000 or genus > MAX_GENUS:
            # more digits than int() converts is a genus above the bound
            assert (code, out) == (1, "error: GENUS_MISMATCH\n")
        else:
            assert code == 0

    @given(genus=st.integers(MAX_GENUS + 1, MAX_GENUS + 3)
           | st.sampled_from([-1, 0, 1, 2, 200, 10 ** 30]))
    @settings(max_examples=15, deadline=None)
    def test_gens_around_the_bound(self, genus):
        code, out = main_captured(["gens", "--genus", str(genus)])
        if 1 <= genus <= MAX_GENUS:
            assert code == 0 and out.startswith("BDRY ")
        else:
            assert (code, out) == (1, "error: GENUS_MISMATCH\n")

    def test_gens_answers_the_largest_genus(self):
        code, out = main_captured(["gens", "--genus", str(MAX_GENUS)])
        assert code == 0
        assert out.splitlines()[-1].startswith("BSCC:9 ")
        assert len(out.splitlines()) == MAX_GENUS + 1


class TestErrorPaths:
    def test_syntax_error_exit_2(self, capsys, tmp_path):
        broken = tmp_path / "broken.map"
        broken.write_text("genus 2\nmap\nnonsense\n")
        code, out, _ = run(capsys, ["depth", "-i", str(broken)])
        assert code == 2
        assert "error: SYNTAX_ERROR" in out

    def test_missing_file_exit_2(self, capsys, tmp_path):
        code, out, _ = run(capsys,
                           ["depth", "-i", str(tmp_path / "nope.map")])
        assert code == 2
        assert "error: SYNTAX_ERROR" in out

    @pytest.mark.parametrize("case", ["map", "tor", "action"])
    def test_not_utf8_is_syntax_error(self, capsys, tmp_path, case):
        # a .map, a .tor, and a bp action file named inside a .tor
        bad = b"genus 2\nmap\na1 -> \xff\n"
        texts = {"map": {"in.map": bad},
                 "tor": {"in.tor": b"genus 2\nword BP:std \xff\n"},
                 "action": {"in.tor": b"genus 2\ngen P bp class x2 pair "
                                      b"(x1 y1) action act.map\nword P\n",
                            "act.map": bad}}[case]
        for name, data in texts.items():
            (tmp_path / name).write_bytes(data)
        path = str(tmp_path / ("in.map" if case == "map" else "in.tor"))
        code, out, err = run(capsys, ["tau", "-k", "2", "-i", path])
        assert (code, out) == (2, "error: SYNTAX_ERROR\n")
        assert "decode" in err

    def test_unknown_verb_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
        assert "error: USAGE" in capsys.readouterr().out

    def test_bad_flag_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["depth", "--no-such-flag"])
        assert exc.value.code == 2
        assert "error: USAGE" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["tau", "-k", "0", "-i", "{bp}"],
        ["bordant", "-k", "0", "-i", "{bp}"],
        ["morita-check", "-k", "0", "-i", "{bp}"],
        ["tau-tower", "--max-k", "1", "-i", "{bp}"],
        ["depth", "--max-k", "-1", "-i", "{bp}"],
        ["blocks", "--genus", "2", "-k", "1"],
        ["lie", "--genus", "2", "-k", "0"],
        ["lie", "--genus", "0", "-k", "2"],
    ], ids=" ".join)
    def test_out_of_range_value_usage(self, capsys, files, argv):
        with pytest.raises(SystemExit) as exc:
            main([tok.format(**files) for tok in argv])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "error: USAGE\n"
        assert "must be >= " in err


class TestDeterminism:
    @pytest.mark.parametrize("argv_key", ["tower", "eta2", "forms"])
    def test_byte_identical_reruns(self, capsys, files, argv_key):
        argv = {
            "tower": ["tau-tower", "-i", files["bdry1"]],
            "eta2": ["eta2", "-i", files["comm_tor"]],
            "forms": ["forms", "--genus", "3", "--arf", "0"],
        }[argv_key]
        first = run(capsys, argv)
        second = run(capsys, argv)
        assert first == second


# Exact stdout and exit code of every verb on the corpus above, recorded
# before the Johnson-layer refactor; ``{key}`` names a corpus file.
GOLDEN = json.loads(Path(__file__).with_name("cli_golden.json").read_text())


@pytest.mark.parametrize("record", GOLDEN,
                         ids=[" ".join(r["argv"]) for r in GOLDEN])
def test_golden_output(capsys, files, record):
    argv = [tok.format(**files) for tok in record["argv"]]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert (code, capsys.readouterr().out) == (record["code"], record["stdout"])
