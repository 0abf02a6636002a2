"""End-to-end acceptance checks, one test per criterion.

Each test prints one ``criterion N: PASS`` line (run with -s to see them
all); a failing criterion fails its test.  Stated time budgets are
enforced with wall-clock asserts.
"""

import itertools
import random
import time

import pytest

from torelli.errors import NotALieElement
from torelli.freegroup import Word, apply, compose, identity_class, invert, reduce
from torelli.freelie import (
    bracket_polynomial,
    generator_element,
    lie_bracket,
    lyndon_basis,
    to_lyndon_coords,
    witt_dim,
)
from torelli.johnson import (
    bordant,
    bracket_map,
    filtration_depth,
    symplectic_dual,
    tau,
)
from torelli.magnus import magnus_expand
from torelli.mcglib import boundary_twist, builtin_entries
from torelli.present import eta_block_ranks, present_filled
from torelli.spinquad import QuadForm, arf, enumerate_forms, eta2

from helpers import (augmentation, dynkin_map, flatten_series, fox_derivative,
                     intersect, q_eval)

# ---------------------------------------------------------------------------
# shared sweep: all words of length <= 3 over the genus-2 library
# generators and their inverses, with their mapping classes

SWEEP_CUTOFF = 4


@pytest.fixture(scope="module")
def sweep():
    entries = builtin_entries(2)
    letters = []
    for name in sorted(entries):
        act = entries[name].action
        letters.append((name, act))
        letters.append((name + "'", act.inverse()))

    level = [((), identity_class(2))]
    out = []
    t0 = time.perf_counter()
    for _ in range(3):
        nxt = []
        for word, f in level:
            for name, act in letters:
                nxt.append((word + (name,), compose(f, act)))
        out.extend(nxt)
        level = nxt
    return {"words": out, "entries": entries,
            "build_seconds": time.perf_counter() - t0}


def test_criterion_01_form_counts():
    t0 = time.perf_counter()
    arf0 = {g: len(enumerate_forms(g, 0)) for g in (1, 2, 3, 4)}
    totals = {g: len(enumerate_forms(g)) for g in (1, 2, 3, 4)}
    elapsed = time.perf_counter() - t0
    assert arf0 == {1: 3, 2: 10, 3: 36, 4: 136}
    assert totals == {g: 4 ** g for g in (1, 2, 3, 4)}
    assert elapsed < 1.0, f"form scan took {elapsed:.2f}s"
    print("criterion 1: PASS")


def _random_symplectic(genus, rng, steps=12):
    n = 2 * genus
    mat = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        v = tuple(rng.randint(0, 1) for _ in range(n))
        if not any(v):
            continue
        for r in range(n):
            if intersect(tuple(mat[r]), v):
                mat[r] = [(a + b) % 2 for a, b in zip(mat[r], v)]
    return [tuple(row) for row in mat]


def test_criterion_02_arf_formula_and_invariance():
    t0 = time.perf_counter()
    for g in (1, 2, 3):
        for q in enumerate_forms(g):
            handle_sum = sum(q.basis_values[2 * i] * q.basis_values[2 * i + 1]
                             for i in range(g)) % 2
            assert arf(q) == handle_sum
    rng = random.Random(7)
    for g in (2, 3):
        forms = enumerate_forms(g)
        for _ in range(500):
            s = _random_symplectic(g, rng)
            q = forms[rng.randrange(len(forms))]
            moved = QuadForm(tuple(q_eval(q, row) for row in s))
            assert arf(moved) == arf(q)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"arf checks took {elapsed:.2f}s"
    print("criterion 2: PASS")


def test_criterion_03_fox_magnus_agreement():
    t0 = time.perf_counter()
    rng = random.Random(11)
    per_genus = (167, 167, 166)
    for g, count in zip((1, 2, 3), per_genus):
        rank = 2 * g
        alphabet = [j for j in range(1, rank + 1)] + \
                   [-j for j in range(1, rank + 1)]
        for _ in range(count):
            length = rng.randint(1, 10)
            w = reduce(tuple(rng.choice(alphabet) for _ in range(length)))
            series = flatten_series(magnus_expand(w, rank, 3))
            # iterated derivatives share suffixes: the innermost
            # derivative is the monomial's last variable
            elems = {(): {w.letters: 1}}
            for degree in (1, 2, 3):
                for mono in itertools.product(range(1, rank + 1),
                                              repeat=degree):
                    elem = fox_derivative(elems[mono[1:]], mono[0])
                    elems[mono] = elem
                    assert augmentation(elem) == series.get(mono, 0)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"fox/magnus sweep took {elapsed:.2f}s"
    print("criterion 3: PASS")


def test_criterion_04_kernel_law(sweep):
    t0 = time.perf_counter()
    checked = 0
    for word, f in sweep["words"]:
        d = filtration_depth(f, SWEEP_CUTOFF).depth
        for k in (2, 3):
            if d is not None and d < k:
                continue
            assert tau(f, k).is_zero() == (d is None or d >= k + 1), word
            checked += 1
    elapsed = time.perf_counter() - t0 + sweep["build_seconds"]
    # every word checks k=2; words in J(3) check k=3 as well
    assert checked > 300
    assert elapsed < 30.0, f"kernel-law sweep took {elapsed:.2f}s"
    print("criterion 4: PASS")


def test_criterion_05_morita_containment(sweep):
    for word, f in sweep["words"]:
        d = filtration_depth(f, SWEEP_CUTOFF).depth
        for k in (2, 3, 4):
            if d is not None and d < k:
                continue
            value = bracket_map(symplectic_dual(tau(f, k)))
            assert value.is_zero(), (word, k)
    print("criterion 5: PASS")


def test_criterion_06_commutator_law(sweep):
    entries = sweep["entries"]
    j2 = [entries[n].action for n in ("BSCC:1", "BP:std", "BDRY")]
    j3 = [entries[n].action for n in ("BSCC:1", "BDRY")]
    for f in j2:
        for h in j3:
            c = compose(compose(f, h), compose(f.inverse(), h.inverse()))
            d = filtration_depth(c, 4).depth
            assert d is None or d >= 4
    for f in j2:
        for h in j2:
            c = compose(compose(f, h), compose(f.inverse(), h.inverse()))
            d = filtration_depth(c, 3).depth
            assert d is None or d >= 3
    print("criterion 6: PASS")


def test_criterion_07_bordism_kernel_and_equivalence(sweep):
    tw = boundary_twist(1).action
    ident = identity_class(1)
    assert bordant(tw, ident, 2) is True
    assert bordant(tw, ident, 3) is False

    entries = sweep["entries"]
    bscc = entries["BSCC:1"].action
    bp = entries["BP:std"].action
    bdry = entries["BDRY"].action
    sample = [
        identity_class(2), bscc, bp, bdry,
        compose(bp, bp), compose(bscc, bp), compose(bp, bscc),
        compose(bdry, bp), compose(bscc, bscc), bp.inverse(),
    ]
    rel = [[bordant(a, b, 2) for b in sample] for a in sample]
    n = len(sample)
    for i in range(n):
        assert rel[i][i] is True
        for j in range(n):
            assert rel[i][j] == rel[j][i]
            for l in range(n):
                if rel[i][j] and rel[j][l]:
                    assert rel[i][l], (i, j, l)
    # the sample splits nontrivially: id ~ bscc but id !~ bp
    assert rel[0][1] and not rel[0][2]
    print("criterion 7: PASS")


def test_criterion_08_boundary_twist_tower():
    tw = boundary_twist(1).action
    assert filtration_depth(tw).depth == 3
    assert tau(tw, 2).is_zero()
    value = tau(tw, 3)
    t1 = generator_element(2, 1)
    t2 = generator_element(2, 2)
    base = lie_bracket(t1, t2)
    for i, gen in enumerate((t1, t2)):
        assert value.components[i] == lie_bracket(base, gen)
    print("criterion 8: PASS")


def _scale(poly, c):
    return {m: c * v for m, v in poly.items()}


def _add(p, q):
    out = dict(p)
    for m, c in q.items():
        new = out.get(m, 0) + c
        if new:
            out[m] = new
        elif m in out:
            del out[m]
    return out


def test_criterion_09_witt_lyndon_dynkin():
    t0 = time.perf_counter()
    for n in range(2, 7):
        for k in range(1, 7):
            assert witt_dim(n, k) == len(lyndon_basis(n, k))

    rng = random.Random(23)
    agreements = {True: 0, False: 0}
    for trial in range(500):
        rank = rng.choice((2, 3))
        degree = rng.choice((2, 3, 4, 5))
        poly = {}
        for w in lyndon_basis(rank, degree):
            c = rng.randint(-2, 2)
            if c:
                poly = _add(poly, _scale(bracket_polynomial(w), c))
        if trial % 2:
            # break Lie-ness: bump one non-basis monomial
            mono = (1,) * (degree - 1) + (2,)
            poly = _add(poly, {mono[::-1]: rng.choice((1, -1, 2))})
        if not poly:
            continue
        dynkin_lie = dynkin_map(poly) == _scale(poly, degree)
        try:
            to_lyndon_coords(poly, degree)
            elimination_lie = True
        except NotALieElement:
            elimination_lie = False
        assert dynkin_lie == elimination_lie
        agreements[elimination_lie] += 1
    assert agreements[True] > 100 and agreements[False] > 100
    elapsed = time.perf_counter() - t0
    assert elapsed < 20.0, f"lie-basis checks took {elapsed:.2f}s"
    print("criterion 9: PASS")


def test_criterion_10_abelianization_separation(sweep):
    entries = sweep["entries"]
    names = ("BSCC:1", "BP:std", "BDRY")
    for u in names:
        for v in names:
            word = [(entries[u], 1), (entries[v], 1),
                    (entries[u], -1), (entries[v], -1)]
            assert eta2(word, genus=2).is_trivial(), (u, v)
    for name in ("BSCC:1", "BP:std"):
        single = [(entries[name], 1)]
        assert not eta2(single, genus=2).is_trivial(), name
    print("criterion 10: PASS")


def test_criterion_11_presentation_filling_coherence(sweep):
    for word, f in sweep["words"]:
        pres = present_filled(f)
        degrees = []
        for j, relator in enumerate(pres.relators, start=1):
            expected = reduce(f.images[j - 1].letters + (-j,))
            assert relator.letters == expected.letters
            degrees.append(magnus_expand(relator, 4, SWEEP_CUTOFF)
                           .min_positive_degree())
        depth = filtration_depth(f, SWEEP_CUTOFF).depth
        for k in (2, 3, 4):
            relators_deep = all(d is None or d >= k for d in degrees)
            assert (depth is None or depth >= k) == relators_deep, (word, k)
    print("criterion 11: PASS")


def test_criterion_12_block_ranks():
    expect = {(2, 2): (6, 4, 0), (1, 2): (1, 2, 0), (2, 3): (20, 4, 0)}
    for (g, k), (h2, h1, h0) in expect.items():
        report = eta_block_ranks(g, k)
        assert (report.h2_rank, report.h1_rank, report.h0_rank) == \
            (h2, h1, h0)
        assert report.h3_status == "NOT COMPUTED"
    print("criterion 12: PASS")
