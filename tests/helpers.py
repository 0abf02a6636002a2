"""Independent slow-path oracles used to pin down the fast implementations."""

import itertools
import re
from functools import lru_cache

from torelli.errors import ArfNonZero, GenusMismatch, NotInJk, ParseError
from torelli.freegroup import (MappingClass, Word, commutator, compose,
                               letter_name, multiply, reduce)
from torelli.freelie import H1LieTensor, LieElement
from torelli.magnus import magnus_expand
from torelli.present import Presentation
from torelli.spinquad import QuadForm, arf


def rand_word(rng, rank, length):
    letters = []
    for _ in range(length):
        letters.append(rng.randint(1, rank) * rng.choice([1, -1]))
    return reduce(letters)


def naive_apply(images, letters) -> tuple:
    """Substitute ``images[j-1]`` (a letter sequence) for each letter j of
    ``letters``, reversed and negated for -j, then freely reduce the whole
    list with a stack: the word layer's substitution, with no shortcut."""
    subst = []
    for x in letters:
        image = list(images[abs(x) - 1])
        subst.extend(image if x > 0 else [-y for y in reversed(image)])
    stack = []
    for y in subst:
        if stack and stack[-1] == -y:
            stack.pop()
        else:
            stack.append(y)
    return tuple(stack)


_TOKEN = re.compile(r"\S+")
_GENERATOR = re.compile(r"([ab])(\d+)")


def naive_parse_word(text, genus, aliases=None, line=None) -> tuple:
    """Letters of a line of word tokens, or the ParseError it raises.

    A regex tokenizer and a stack, sharing no code with ``freegroup``.  A
    token is a name with at most one apostrophe (inverse) stripped; the
    name ``1`` is the identity, then come the aliases (name -> letter
    tuple), then ``a<i>``/``b<i>``.  Columns count from 1."""
    aliases = aliases or {}
    stack = []
    for m in _TOKEN.finditer(text):
        raw, col = m.group(), m.start() + 1
        name = raw[:-1] if raw.endswith("'") else raw
        sign = -1 if name != raw else 1
        if name == "1":
            if sign < 0:
                raise ParseError("1 takes no inverse mark", line, col)
            seq = []
        elif name in aliases:
            seq = list(aliases[name])
            if sign < 0:
                seq = [-x for x in reversed(seq)]
        else:
            g = _GENERATOR.fullmatch(name)
            if g is None:
                raise ParseError(f"unknown token {raw!r}", line, col)
            i = int(g.group(2))
            if not 1 <= i <= genus:
                raise ParseError(
                    f"generator {name!r} out of range for genus {genus}",
                    line, col)
            seq = [sign * (2 * i - (g.group(1) == "a"))]
        for y in seq:
            if stack and stack[-1] == -y:
                stack.pop()
            else:
                stack.append(y)
    return tuple(stack)


def poly_mul(p, q, cutoff):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            if len(m1) + len(m2) > cutoff:
                continue
            key = m1 + m2
            out[key] = out.get(key, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def naive_magnus(w: Word, cutoff: int) -> dict:
    """Flat monomial->coefficient expansion by plain polynomial products."""
    acc = {(): 1}
    for x in w.letters:
        j = abs(x)
        if x > 0:
            letter = {(): 1, (j,): 1}
        else:
            letter = {tuple([j] * i): (-1) ** i for i in range(cutoff + 1)}
        acc = poly_mul(acc, letter, cutoff)
    return acc


def poly_commutator(p, q) -> dict:
    """pq - qp, untruncated."""
    out = poly_mul(p, q, float("inf"))
    for k, c in poly_mul(q, p, float("inf")).items():
        out[k] = out.get(k, 0) - c
    return {k: c for k, c in out.items() if c}


# ---------------------------------------------------------------------------
# Dynkin-Specht-Wever: a Lie-membership test independent of the Lyndon basis

@lru_cache(maxsize=None)
def left_normed_polynomial(letters: tuple) -> dict:
    """Expansion of [[...[x_{l1}, x_{l2}], ...], x_{ln}]."""
    if not letters:
        raise ValueError("empty bracket")
    cur = {letters[:1]: 1}
    for j in letters[1:]:
        cur = poly_commutator(cur, {(j,): 1})
    return cur


def dynkin_map(poly: dict) -> dict:
    """Monomial-wise left-normed bracketing, extended linearly.  A
    homogeneous degree-d element is a Lie element exactly when this map
    multiplies it by d."""
    out = {}
    for mono, c in poly.items():
        for k, cc in left_normed_polynomial(mono).items():
            out[k] = out.get(k, 0) + c * cc
    return {k: c for k, c in out.items() if c}


def flatten_series(series) -> dict:
    out = {}
    for d, bucket in series.terms.items():
        for m, c in bucket.items():
            out[m] = c
    return out


def nested_commutator(words) -> Word:
    """Left-normed bracket [[...[w1,w2],w3...],wn] of a list of words."""
    acc = words[0]
    for w in words[1:]:
        acc = commutator(acc, w)
    return acc


# ---------------------------------------------------------------------------
# Fox calculus on the integral group ring: a second, independent route to
# the Magnus coefficients

RingElement = dict[tuple[int, ...], int]


def _word_fox(letters: tuple[int, ...], j: int) -> RingElement:
    out: RingElement = {}
    for p, x in enumerate(letters):
        if x == j:
            key = letters[:p]
            out[key] = out.get(key, 0) + 1
        elif x == -j:
            key = letters[:p + 1]
            out[key] = out.get(key, 0) - 1
    return {k: c for k, c in out.items() if c}


def fox_derivative(element, j: int) -> RingElement:
    """Free derivative with respect to generator j of a Word or a ring
    element, extended linearly.

    Satisfies d(uv) = d(u) + u d(v), d(a_j) = 1, d(a_j^-1) = -a_j^-1.
    """
    if isinstance(element, Word):
        element = {element.letters: 1}
    out: RingElement = {}
    for letters, coeff in element.items():
        for key, c in _word_fox(letters, j).items():
            out[key] = out.get(key, 0) + coeff * c
    return {k: c for k, c in out.items() if c}


def augmentation(element: RingElement) -> int:
    return sum(element.values())


def fox_coefficient(w: Word, mono) -> int:
    """Coefficient of t_{j1}...t_{jk} in the expansion of w, via iterated
    derivatives: innermost derivative is the last variable of the monomial.
    """
    element: RingElement = {w.letters: 1}
    for j in reversed(tuple(mono)):
        element = fox_derivative(element, j)
        if not element:
            return 0
    return augmentation(element)


def intersect(u, v) -> int:
    """Mod-2 intersection pairing of tuple vectors; x_i.y_i = 1 and all
    else vanishes."""
    if len(u) != len(v):
        raise GenusMismatch("H1 vectors of different rank")
    total = 0
    for k in range(0, len(u), 2):
        total += u[k] * v[k + 1] + u[k + 1] * v[k]
    return total % 2


def symplectic_failure(pairs):
    """The message the descriptor check gives for a pair list, by the tuple
    pairing, or None when the pairs are part of a symplectic basis."""
    for i, (xi, yi) in enumerate(pairs):
        for j, (xj, yj) in enumerate(pairs):
            if intersect(xi, yj) != (1 if i == j else 0):
                return f"pair list not symplectic: x_{i + 1}.y_{j + 1} wrong"
            if intersect(xi, xj) != 0 or intersect(yi, yj) != 0:
                return f"pair list not symplectic: pairs {i + 1},{j + 1} interact"
    return None


def q_eval(q: QuadForm, v) -> int:
    """Value of q on v via polarization.

    Writing v as a sum of distinct basis vectors, the cross terms
    pair up only within a handle, so they count handles where both
    bits of v are set.
    """
    if len(v) != len(q.basis_values):
        raise GenusMismatch("vector rank does not match the form")
    total = sum(b for b, bit in zip(q.basis_values, v) if bit)
    for k in range(0, len(v), 2):
        total += v[k] * v[k + 1]
    return total % 2


def naive_rho(q: QuadForm, word) -> int:
    """Birman-Craggs homomorphism for the form q, letter by letter through
    :func:`q_eval`: a bscc twist adds the Arf invariant of q on the bounded
    subsurface, a bp map adds nothing when q is 1 on the pair's class and
    otherwise the Arf invariant on the cobounded genus-1 piece."""
    if arf(q) != 0:
        raise ArfNonZero("Birman-Craggs homomorphisms exist only for Arf-0 forms")
    total = 0
    for desc, _exp in word:
        if desc.kind == "bp" and q_eval(q, desc.curve_class) == 1:
            continue
        total += sum(q_eval(q, x) * q_eval(q, y) for x, y in desc.pairs)
    return total % 2


def product_forms(genus, arf_filter=None):
    """Every form by itertools.product, each tested for its Arf invariant:
    the reference order and filter of the form enumeration."""
    return [q for q in map(QuadForm, itertools.product((0, 1), repeat=2 * genus))
            if arf_filter is None or arf(q) == arf_filter]


def strip_gamma(p: Presentation) -> Presentation:
    """Delete gamma from every relator and re-reduce; the filling quotient."""
    if len(p.generator_names) != 2 * p.genus + 1:
        return p
    gamma = 2 * p.genus + 1
    names = p.generator_names[:-1]
    relators = tuple(reduce([x for x in r.letters if abs(x) != gamma])
                     for r in p.relators)
    return Presentation(p.genus, names, relators)


def handle_twists(genus):
    """Twists about the a_i and b_i curves (b_i -> b_i a_i, a_i -> a_i b_i')."""
    out = []
    for i in range(1, genus + 1):
        a, b = 2 * i - 1, 2 * i
        for j, image, inverse in ((b, (b, a), (b, -a)), (a, (a, -b), (a, b))):
            images = [Word((k,)) for k in range(1, 2 * genus + 1)]
            inverses = list(images)
            images[j - 1], inverses[j - 1] = Word(image), Word(inverse)
            out.append(MappingClass(genus, tuple(images), tuple(inverses)))
    return out


# ---------------------------------------------------------------------------
# The Johnson verbs by the full-cutoff rule: every displacement
# f(alpha_j) alpha_j^-1 expanded in full up to the cutoff, with nothing
# stopped early.  A verb that raises NotInJk is recorded as
# ("NotInJk", witness, degree).

def full_expansions(f, cutoff):
    rank = 2 * f.genus
    return [magnus_expand(multiply(image, Word((-j,))), rank, cutoff)
            for j, image in enumerate(f.images, start=1)]


def _first_below(series, k):
    for j, s in enumerate(series, start=1):
        d = s.min_positive_degree()
        if d is not None and d < k:
            return ("NotInJk", letter_name(j), d)
    return None


def full_depth_witnesses(f, cutoff):
    return tuple(s.min_positive_degree() for s in full_expansions(f, cutoff))


def full_tower(f, kmin, kmax):
    """(entries, first_nonzero) of the level values kmin.. off one
    expansion at kmax, stopping at the first nonzero one."""
    series = full_expansions(f, kmax)
    below = _first_below(series, kmin)
    if below:
        return below
    entries, first_nonzero = [], None
    for k in range(kmin, kmax + 1):
        value = H1LieTensor(f.genus, k, tuple(
            LieElement.from_polynomial(2 * f.genus, k, s.degree_terms(k))
            for s in series))
        entries.append((k, value))
        if not value.is_zero():
            first_nonzero = k
            break
    return tuple(entries), first_nonzero


def full_bordant(f, h, k):
    """Whether f h^-1 has no surviving degree below 2k-1, after checking
    that f and h have none below k."""
    for g in (f, h):
        below = _first_below(full_expansions(g, k), k)
        if below:
            return below
    diff = compose(f, h.inverse())
    return all(s.min_positive_degree() is None
               for s in full_expansions(diff, 2 * k - 2))


def outcome(fn, *args):
    """fn(*args), or ("NotInJk", witness, degree) where it raises NotInJk."""
    try:
        return fn(*args)
    except NotInJk as exc:
        return ("NotInJk", exc.witness, exc.degree)
