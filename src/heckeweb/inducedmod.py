"""Mixed induced Hecke modules: sign on one parabolic, trivial on a
commuting one, induced up to the full Hecke algebra.

The module has basis N_w indexed by the shortest representatives of the
double-parabolic left quotient.  A generator H_i acts by one of four
rules: it moves the index within the quotient (two cases, by length), or
it hits the sign wall (eigenvalue -q) or the trivial wall (eigenvalue
q^-1).  The bar involution is induced from the Hecke algebra through
N_w = N_e . H_w.  With both walls empty the module is the Hecke algebra
itself, acting on itself from the right; `hecke` is a view of that case.

Every computation keys N_w by an int label, the code of w: its one-line
word packed into bit fields of width B = n.bit_length(), w(j) in bits
B(j-1) to Bj - 1.  The code is a function of the word alone, so no table
numbers labels and clearing any cache changes no value, and a module's
basis is never listed to key it.  Right multiplication by s_i swaps two
fields.  A Permutation is built or encoded only at the boundary: the
checked constructors (`InducedModule.standard`, `ModuleElement(...)`,
`from_json`, `canonical_basis_element`), `coeff`, `permutation_support`,
printing and JSON (du Cloux's Coxeter programs, cited below, likewise
keep group elements as small integer data).

Which rule applies is read off the two entries a = w(i), b = w(i+1) that
s_i swaps (Deodhar, J. Algebra 111, 1987): if they are consecutive values
j, j+1 with s_j in a wall, then w s_i = s_j w and H_i acts by that wall's
eigenvalue; otherwise w s_i is again a shortest representative, longer
exactly when a < b.  A step thus costs O(1) per support term.  This needs
every support index to be a shortest representative, which the
constructors that take outside input check.

Every linear operation on elements (the action, the bar involution and
the four maps) is one call of _apply, which sends each N_w to a row of
(target, exponent shift, coefficient) triples and sums the rows in one
loop over plain {label: {exponent: int}} dicts, so each coefficient of
the result is built once.  For each (module, i) and each diagonal term d
(none for the action, q - q^-1 for H_i^-1 in the bar involution), a
table filled in as labels are met holds the rows of N_y . (H_i + d),
read off the four cases with like terms combined; the canonical step
reads its blocks off the same rows for d = q.  The rows of bar(N_w) and
N_e . H_w are cached in the same form, and so are the images of N_w
under the inclusions map_i and map_j.  The bar involution is
semilinear, so it bars the coefficients and sends each N_w to bar(N_w).
An element with fractional coefficients is taken as integer numerators
over the lcm of its denominators, a coefficient already over the lcm
without a division; dividing the result's coefficients by it costs one
reduction per distinct (numerator, denominator) pair, since the
normalizer of `qarith` is memoized by value.

The canonical basis is built by multiplying and correcting: C_w is
C_{w s_i} . (H_i + q) minus integer multiples of lower C_y.  It runs on
shared values: every coefficient, at every stage, is a LaurentPoly
shared by all canonical elements with that value (du Cloux, "Computing
Kazhdan-Lusztig polynomials for arbitrarily large Coxeter groups", 2002,
stores each polynomial once in the same way).  Right multiplication by
H_i + q acts on each right coset {y, y s_i} by a fixed 2x2 block, read
off the four cases: on lo < hi = lo s_i the new coefficients are
c_hi + q c_lo at lo and c_lo + q^-1 c_hi at hi, on the trivial wall
(q + q^-1) c_y and on the sign wall 0.  So the step visits each coset of
the support once, and one lookup in a memo of blocks, keyed by the two
shared operands and the kind, gives both new coefficients.  Each
correction is one lookup in a memo of sums keyed by its two operands, so
each distinct block or sum is computed once, and unitriangularity is
read once per distinct value.

In the regular module (both walls empty) the step runs once per orbit
of {w, w^-1, w0 w w0, w0 w^-1 w0}.  The anti-involution H_x -> H_{x^-1}
and the automorphism H_x -> H_{w0 x w0} (conjugation by w0, sending H_i
to H_{n-i}) both commute with bar, permute the standard basis and keep
unitriangularity, so they map C_w to C_{w^-1} and C_{w0 w w0}: with
P_{x,w} the coefficients, P_{x,w} = P_{x^-1,w^-1} = P_{w0 x w0,w0 w w0}
(Kazhdan and Lusztig, Invent. Math. 53, 1979).  The least label of each
orbit is stepped, and every other element of the orbit is read off it
with its labels relabelled, sharing its coefficient objects, so the
labels the step builds do not depend on the call order.  With a wall,
the two maps lead out of the module (inversion turns the left quotient
by the walls into a right one, and conjugation by w0 reflects the
walls), so every other module runs the step for each label.
"""

from __future__ import annotations

from functools import cache, partial

from .qarith import (
    Immutable, LaurentPoly, RationalFunction, SparseVector, _coefficient, common_denominator,
    json_parser,
)
from .symgrp import ParabolicSubgroup, Permutation, is_shortest_rep, shortest_coset_reps

__all__ = ["InducedModule", "ModuleElement", "map_i", "map_Q", "map_j", "map_z"]

_Q = LaurentPoly.q
_ONE = LaurentPoly.one()


class InducedModule(Immutable):
    """The module given by n and its two walls, frozensets of generators.
    Equal modules have equal (n, p_gens, q_gens); the hash of that triple
    is computed once, since every module-keyed cache hashes the module on
    each lookup."""

    __slots__ = ("n", "p_gens", "q_gens", "_hash")
    FIELDS = ("n", "p_gens", "q_gens")

    def __init__(self, n: int, p_gens: frozenset[int], q_gens: frozenset[int]):
        p, q = ParabolicSubgroup(n, p_gens), ParabolicSubgroup(n, q_gens)
        if not p.commutes_elementwise_with(q):
            raise ValueError(
                f"parabolic subgroups {p} and {q} do not commute elementwise"
            )
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "p_gens", p_gens)
        object.__setattr__(self, "q_gens", q_gens)
        object.__setattr__(self, "_hash", hash((n, p_gens, q_gens)))

    def __hash__(self):
        return self._hash

    @staticmethod
    def of(n: int, p_gens=(), q_gens=()) -> "InducedModule":
        """The module of S_n with these walls, interned: equal arguments
        give one object, so the module-keyed caches find it by identity
        instead of comparing fields.  The constructor builds an equal
        twin; `clear_caches()` forgets the interned modules.  Only int
        arguments are interned, since True or 1.0 equals 1 as a key and
        the constructor must still reject them."""
        p_gens, q_gens = frozenset(p_gens), frozenset(q_gens)
        if type(n) is int and all(type(g) is int for g in p_gens | q_gens):
            return _interned(n, p_gens, q_gens)
        return InducedModule(n, p_gens, q_gens)

    def parabolic_p(self) -> ParabolicSubgroup:
        return ParabolicSubgroup(self.n, self.p_gens)

    def parabolic_q(self) -> ParabolicSubgroup:
        return ParabolicSubgroup(self.n, self.q_gens)

    def parabolic_pq(self) -> ParabolicSubgroup:
        return ParabolicSubgroup(self.n, self.p_gens | self.q_gens)

    def basis_index(self) -> list[Permutation]:
        """Shortest coset representatives, sorted by (length, one-line)."""
        return shortest_coset_reps(_parabolic_pq(self))

    def __str__(self):
        return f"M(n={self.n}, p={sorted(self.p_gens)}, q={sorted(self.q_gens)})"

    # -- element constructors -----------------------------------------

    def standard(self, w: Permutation) -> "ModuleElement":
        return ModuleElement._of(self, {_index(self, w): _ONE})

    def generator(self) -> "ModuleElement":
        return self.standard(Permutation.identity(self.n))

    def to_json(self):
        return {
            "n": self.n,
            "p_generators": sorted(self.p_gens),
            "q_generators": sorted(self.q_gens),
        }

    @staticmethod
    @json_parser
    def from_json(data) -> "InducedModule":
        return InducedModule.of(data["n"], data["p_generators"], data["q_generators"])


@cache
def _interned(n: int, p_gens: frozenset, q_gens: frozenset) -> InducedModule:
    """The one module InducedModule.of hands out for these fields."""
    return InducedModule(n, p_gens, q_gens)


class ModuleElement(SparseVector):
    """sum_w c_w N_w in the induced module `parent`, labelled by shortest
    coset representatives w and keyed in `support` by their codes."""

    __slots__ = ()
    PREFIX = "N"  # printed before each basis vector's index

    def __init__(self, parent: InducedModule, support: dict):
        """The element with a {Permutation: nonzero coefficient} support;
        each Permutation must index a basis element of parent."""
        SparseVector.__init__(self, parent, {_index(parent, w): c for w, c in support.items()})

    def _sort_key(self, code: int):
        return _term_key(self.parent.n, code)

    def _label(self, code: int) -> str:
        return _label_text(self.PREFIX, self.parent.n, code)

    def _shown(self, code: int) -> Permutation:
        return _permutation(self.parent.n, code)

    def coeff(self, w: Permutation):
        """The coefficient of N_w."""
        return SparseVector.coeff(self, _encode(w))

    def permutation_support(self) -> dict:
        """The support as a new {Permutation: coefficient} dict."""
        n = self.parent.n
        return {_permutation(n, code): c for code, c in self.support.items()}

    def check_unitriangular(self, top: Permutation, below=None) -> None:
        """SparseVector.check_unitriangular, with top and below's argument
        as Permutations."""
        n = self.parent.n
        if type(top) is not Permutation or top.n != n:
            raise ArithmeticError(f"no diagonal coefficient at {top}")
        on_codes = None if below is None else lambda code: below(_permutation(n, code))
        SparseVector.check_unitriangular(self, _encode(top), on_codes)

    def act_generator(self, i: int) -> "ModuleElement":
        return act_generator(self, i)

    def bar(self) -> "ModuleElement":
        """Bar involution via N_w = N_e . H_w and bar(N_e) = N_e: it is
        semilinear, so the barred coefficients go to bar(N_w)."""
        mod = self.parent
        barred = self._of(mod, {w: c.bar() for w, c in self.support.items()})
        return _apply(barred, type(self), mod, lambda w: _word_times(mod, w, _H_INVERSE))

    def to_json(self):
        return {"module": self.parent.to_json(), "support": self._support_json_by_word()}

    def _support_json_by_word(self) -> list:
        """The support as JSON, each index written as its one-line word."""
        n = self.parent.n
        return self._support_json("w", lambda code: list(_permutation(n, code).one_line))

    @staticmethod
    @json_parser
    def from_json(data) -> "ModuleElement":
        mod = InducedModule.from_json(data["module"])
        return ModuleElement._from_support_json(
            mod, data["support"], "w", lambda w: Permutation(tuple(w))
        )


# -- labels: one-line words packed into ints -----------------------------


def _encode(w: Permutation) -> int:
    """The code of w: w(j) in bits B(j-1) to Bj - 1, B = n.bit_length()."""
    width = w.n.bit_length()
    return sum(v << (width * j) for j, v in enumerate(w.one_line))


def _entries(n: int, code: int) -> list[int]:
    """The one-line word packed into code."""
    width = n.bit_length()
    mask = (1 << width) - 1
    return [(code >> (width * j)) & mask for j in range(n)]


@cache
def _permutation(n: int, code: int) -> Permutation:
    """The permutation of S_n with this code."""
    return Permutation._unchecked(tuple(_entries(n, code)))


@cache
def _term_key(n: int, code: int) -> tuple:
    """(length, one-line word) of the permutation with this code: terms
    print in this order, leading terms first."""
    w = _permutation(n, code)
    return (w.length(), w.one_line)


@cache
def _label_text(prefix: str, n: int, code: int) -> str:
    """The printed basis vector with this code, e.g. N[2,1,3]."""
    return f"{prefix}{_permutation(n, code)}"


def _times_simple(code: int, i: int, width: int) -> int:
    """The code of w s_i: the fields of w(i) and w(i+1) swapped."""
    low = width * (i - 1)
    flip = ((code >> low) ^ (code >> (low + width))) & ((1 << width) - 1)
    return code ^ (flip << low) ^ (flip << (low + width))


def _first_descent(n: int, code: int) -> int:
    """The least i with w(i) > w(i+1), 0 for the identity."""
    width = n.bit_length()
    mask = (1 << width) - 1
    a = code & mask
    for i in range(1, n):
        b = (code >> (width * i)) & mask
        if a > b:
            return i
        a = b
    return 0


def _index(mod: InducedModule, w: Permutation) -> int:
    """The code of w, which must index a basis element of mod."""
    if type(w) is not Permutation:
        raise TypeError(f"a basis element of {mod} is indexed by a Permutation, not {w!r}")
    if w.n != mod.n or not is_shortest_rep(w, _parabolic_pq(mod)):
        raise ValueError(f"{w} does not index a basis element of {mod}")
    return _encode(w)


@cache
def _parabolic_pq(mod: InducedModule) -> ParabolicSubgroup:
    """mod.parabolic_pq(), built once per module."""
    return mod.parabolic_pq()


_SIGN, _TRIVIAL, _RISING, _FALLING = range(4)


def _case(mod: InducedModule, code: int, i: int) -> int:
    """Which of the four rules H_i acts on N_w by, read off the entries
    a = w(i), b = w(i+1) that s_i swaps."""
    width = mod.n.bit_length()
    mask = (1 << width) - 1
    a = (code >> (width * (i - 1))) & mask
    b = (code >> (width * i)) & mask
    if a - b in (1, -1):
        j = min(a, b)
        if j in mod.p_gens:
            return _SIGN
        if j in mod.q_gens:
            return _TRIVIAL
    return _FALLING if a > b else _RISING


# N_y . H_i in each case, as (moves to y s_i, exponent shift, coefficient)
# triples: -q N_y on the sign wall, q^-1 N_y on the trivial wall, N_{y s_i}
# on a rising step and N_{y s_i} + (q^-1 - q) N_y on a falling one.
_H_TERMS = {
    _SIGN: ((False, 1, -1),),
    _TRIVIAL: ((False, -1, 1),),
    _RISING: ((True, 0, 1),),
    _FALLING: ((True, 0, 1), (False, -1, 1), (False, 1, -1)),
}

# Diagonal terms added to H_i, as (exponent shift, coefficient) pairs: none
# for the action, q for the canonical step H_i + q, and q - q^-1 for
# H_i^-1 = H_i + q - q^-1 in the bar involution.
_H = ()
_H_PLUS_Q = ((1, 1),)
_H_INVERSE = ((1, 1), (-1, -1))


def _folded(case: int, diagonal: tuple) -> tuple:
    """The triples of N_y . (H_i + diagonal) in this case, like terms
    combined: on the sign wall and on a falling step the -q of H_i
    cancels against an added q."""
    out = {}
    for move, shift, coeff in _H_TERMS[case] + tuple((False, e, v) for e, v in diagonal):
        out[move, shift] = out.get((move, shift), 0) + coeff
    return tuple((move, shift, coeff) for (move, shift), coeff in out.items() if coeff)


_FOLDED = {
    (case, diagonal): _folded(case, diagonal)
    for case in _H_TERMS
    for diagonal in (_H, _H_PLUS_Q, _H_INVERSE)
}


class _Table(dict):
    """label -> the row row_of(label), computed the first time the label
    is met, so that a small element of a large module does not list the
    whole basis."""

    __slots__ = ("row_of",)

    def __init__(self, row_of):
        self.row_of = row_of

    def __missing__(self, label: int):
        row = self[label] = self.row_of(label)
        return row


@cache
def _step_table(mod: InducedModule, i: int, diagonal: tuple) -> _Table:
    """label y -> the (target, exponent shift, coefficient) triples of
    N_y . (H_i + diagonal)."""
    width = mod.n.bit_length()

    def row_of(y: int) -> tuple:
        terms = _FOLDED[_case(mod, y, i), diagonal]
        moved = _times_simple(y, i, width)
        return tuple((moved if move else y, shift, coeff) for move, shift, coeff in terms)

    return _Table(row_of)


def _accumulate(work: dict, pairs) -> dict:
    """Add c * coeff q^shift N_target into work, a {label: {exponent: int}}
    dict, for each (c, row) of pairs, c an {exponent: int} dict, and each
    (target, shift, coeff) triple of row.  Every module operation but the
    canonical step runs through this loop, by way of _apply."""
    for c, row in pairs:
        c = c.items()
        for target, shift, coeff in row:
            poly = work.get(target)
            if poly is None:
                poly = work[target] = {}
            for e, v in c:
                e += shift
                poly[e] = poly.get(e, 0) + v * coeff
    return work


def _apply(x: ModuleElement, cls, dst: InducedModule, row_of, norm=None) -> ModuleElement:
    """sum_w c_w row_of(w) for x = sum_w c_w N_w, as an element of class
    cls of dst, divided by norm when one is given; row_of(w) is a tuple of
    (target, exponent shift, coefficient) triples.  The coefficients are
    taken as {exponent: int} numerators over the lcm of their
    denominators, a coefficient already over the lcm without a division,
    and each coefficient of the result is divided once."""
    den = common_denominator(x.support.values())
    if den is None:
        pairs = ((c.terms, row_of(w)) for w, c in x.support.items())
    else:
        def numerator(c) -> dict:
            if not isinstance(c, RationalFunction):
                return (c * den).terms
            return c.num.terms if c.den == den else (c.num * den.divexact(c.den)).terms

        pairs = ((numerator(c), row_of(w)) for w, c in x.support.items())
    work = _accumulate({}, pairs)
    if norm is not None:
        den = norm if den is None else den * norm
    support = {}
    for y, poly in work.items():
        if not all(poly.values()):
            poly = {e: v for e, v in poly.items() if v}
        if poly:
            c = LaurentPoly._of(poly)
            support[y] = c if den is None else c / den
    return cls._of(dst, support)


def act_generator(x: ModuleElement, i: int) -> ModuleElement:
    """Right action of H_i by the four-case rule."""
    mod = x.parent
    if type(i) is not int:
        raise ValueError(f"generator index must be an integer, not {i!r}")
    if not 1 <= i <= mod.n - 1:
        raise ValueError(f"generator index {i} out of range for S_{mod.n}")
    return _apply(x, type(x), mod, _step_table(mod, i, _H).__getitem__)


@cache
def _word_times(mod: InducedModule, code: int, diagonal: tuple) -> tuple:
    """N_e . (H_i1 + diagonal) ... (H_ik + diagonal) along the reduced
    word of w that ends in its first right descent, as (label, exponent,
    coefficient) triples: N_e . H_w for _H, and bar(N_w) = N_e . bar(H_w)
    = N_e . H_i1^-1 ... H_ik^-1 for _H_INVERSE.  H_w is the same along
    every reduced word, so the word is the canonical step's."""
    i = _first_descent(mod.n, code)
    if not i:
        return ((code, 0, 1),)
    table = _step_table(mod, i, diagonal)
    shorter = _word_times(mod, _times_simple(code, i, mod.n.bit_length()), diagonal)
    work = _accumulate({}, (({e: v}, table[y]) for y, e, v in shorter))
    return tuple((y, e, v) for y, poly in work.items() for e, v in poly.items() if v)


@cache
def _coset_table(mod: InducedModule, i: int) -> _Table:
    """label y -> (lo, hi, kind), the right coset {y, y s_i} of y: lo = y
    and kind its case when y is rising or on a wall, else lo = y s_i and
    kind _RISING; hi is the other label.  On a wall hi is no basis label
    (y s_i = s_j y), so it never holds a coefficient."""
    width = mod.n.bit_length()

    def row_of(y: int) -> tuple:
        case = _case(mod, y, i)
        moved = _times_simple(y, i, width)
        return (moved, y, _RISING) if case == _FALLING else (y, moved, case)

    return _Table(row_of)


@cache
def _sums() -> dict:
    """The memo of the canonical step's corrections on shared values:
    (id(a), id(b), shift, coeff) -> (a + coeff q^shift b, a, b).  Each
    entry holds its operands, so no other value can take an id in its key
    while it lives, whatever else is cleared."""
    return {}


@cache
def _blocks() -> dict:
    """The memo of the canonical step's coset blocks on shared values:
    (id(a), id(b), kind) -> (new a, new b, a, b), for the coefficients a
    at lo and b at hi of a coset of this kind.  Its entries hold their
    operands, as those of _sums do."""
    return {}


def _shared(poly: dict) -> LaurentPoly:
    """The shared value with these {exponent: int} terms, zeros dropped."""
    return _coefficient(tuple(sorted(item for item in poly.items() if item[1])))


def _add(sums: dict, a: LaurentPoly, b: LaurentPoly, shift: int, coeff: int) -> tuple:
    """The entry of sums for a + coeff q^shift b, computed once."""
    poly = dict(a.terms)
    for e, v in b.terms.items():
        e += shift
        poly[e] = poly.get(e, 0) + coeff * v
    entry = sums[id(a), id(b), shift, coeff] = (_shared(poly), a, b)
    return entry


def _block(blocks: dict, a: LaurentPoly, b: LaurentPoly, kind: int) -> tuple:
    """The entry of blocks for a at lo and b at hi of a coset of this kind,
    read off the rows of N_lo . (H_i + q) and N_hi . (H_i + q): a term
    that moves goes to the other label of the coset."""
    new_a, new_b = {}, {}
    hi_case = _FALLING if kind == _RISING else kind
    for c, case, stay, moved in ((a, kind, new_a, new_b), (b, hi_case, new_b, new_a)):
        for move, shift, coeff in _FOLDED[case, _H_PLUS_Q]:
            out = moved if move else stay
            for e, v in c.terms.items():
                e += shift
                out[e] = out.get(e, 0) + coeff * v
    entry = blocks[id(a), id(b), kind] = (_shared(new_a), _shared(new_b), a, b)
    return entry


@cache
def canonical_basis_element(mod: InducedModule, w: Permutation) -> ModuleElement:
    """The unique bar-invariant element N_w + (qZ[q]-combination of lower
    N_y), for w a basis index of mod.  Cached by w, so a repeated call
    skips the index check; the element is _canonical's."""
    return _canonical(mod, _index(mod, w))


@cache
def _canonical(mod: InducedModule, code: int) -> ModuleElement:
    """The canonical element at the label code, built by the canonical
    step.  In the regular module only the least label of each symmetry
    orbit is stepped, and any other label is read off it (see _read_off)
    through the label map that takes code to it: each map is an
    involution, so it takes the least label back to code."""
    if mod.p_gens or mod.q_gens:
        return _stepped(mod, code)
    image = min(_symmetries(mod), key=lambda table: table[code])
    top = image[code]
    if top >= code:
        return _stepped(mod, code)
    return _read_off(mod, code, _canonical(mod, top), top, image)


def _stepped(mod: InducedModule, code: int) -> ModuleElement:
    """The canonical element at the label code, built as C_{w s_i} .
    (H_i + q) for the first descent i of w, corrected by m C_y for each
    constant term m at a label y != w.  Any descent gives C_w; at the
    least labels of the regular module's orbits the first one meets about
    half the corrections of the last (416,140 against 784,184 correction
    terms for S_7).

    Each label's coefficient is a shared value at every stage.  The step
    visits each right coset {y, y s_i} of the support once, and one lookup
    in the memo of blocks gives both new coefficients (Kazhdan and
    Lusztig, 1979, and du Cloux, 2002, step a coset at a time): for S_7
    the step reads 507,441 blocks, half the terms of the elements it
    builds, where one lookup per step term read 1,423,986 sums.  A
    falling label whose partner is not in the support is a coset with 0
    at lo.  A correction is one lookup in the memo of sums, so each
    distinct sum is computed once.  Each C_y has a constant term only at
    y, so the corrections do not interact.  Unitriangularity is read once
    per distinct value of the result."""
    i = _first_descent(mod.n, code)
    if not i:
        return ModuleElement._of(mod, {code: _coefficient(((0, 1),))})
    shorter = _canonical(mod, _times_simple(code, i, mod.n.bit_length())).support
    cosets = _coset_table(mod, i)
    blocks, sums = _blocks(), _sums()
    zero = _coefficient(())
    work = {}
    for y, c in shorter.items():
        lo, hi, kind = cosets[y]
        if y == lo:
            a, b = c, shorter.get(hi, zero)
        elif lo in shorter:
            continue  # the coset is met at lo
        else:
            a, b = zero, c
        entry = blocks.get((id(a), id(b), kind)) or _block(blocks, a, b, kind)
        work[lo], work[hi] = entry[0], entry[1]
    for y, m in [(y, a.terms[0]) for y, a in work.items() if 0 in a.terms and y != code]:
        for z, c in _canonical(mod, y).support.items():
            a = work.get(z, zero)
            entry = sums.get((id(a), id(c), 0, -m)) or _add(sums, a, c, 0, -m)
            work[z] = entry[0]
    result = ModuleElement._of(mod, {y: a for y, a in work.items() if a.terms})
    SparseVector.check_unitriangular(result, code)
    return result


# -- the symmetries of the regular module ---------------------------------


def _images(n: int, code: int) -> tuple:
    """The codes of w^-1, w0 w w0 and w0 w^-1 w0, read off one decode of
    w: for each w(j) = v, w^-1(v) = j, (w0 w w0)(n + 1 - j) = n + 1 - v
    and (w0 w^-1 w0)(n + 1 - v) = n + 1 - j."""
    width = n.bit_length()
    inverse = conjugate = both = 0
    for j, v in enumerate(_entries(n, code), 1):
        inverse |= j << (width * (v - 1))
        conjugate |= (n + 1 - v) << (width * (n - j))
        both |= (n + 1 - j) << (width * (n - v))
    return inverse, conjugate, both


@cache
def _symmetries(mod: InducedModule) -> tuple:
    """The label maps w -> w^-1, w0 w w0 and w0 w^-1 w0 of the regular
    module mod, each an involution and a table filled in as labels are
    met: a label one table meets is entered in all three."""
    n = mod.n

    def fill(k: int, y: int) -> int:
        images = _images(n, y)
        for table, image in zip(tables, images):
            table[y] = image
        return images[k]

    tables = tuple(_Table(partial(fill, k)) for k in range(3))
    return tables


def _read_off(mod: InducedModule, code: int, source: ModuleElement, top: int, image):
    """The canonical element at code, source = C_top relabelled by image,
    which maps top to code.  The relabelled element shares source's
    coefficient objects, so it is checked in O(1): no two labels merge,
    and its coefficient at code is source's diagonal one."""
    support = source.support
    result = dict(zip(map(image.__getitem__, support), support.values()))
    if len(result) != len(support) or result.get(code) is not support[top]:
        raise ArithmeticError(
            f"relabelling the canonical element at {_permutation(mod.n, top)} "
            f"does not give the one at {_permutation(mod.n, code)}"
        )
    return ModuleElement._of(mod, result)


# -- maps between modules with nested parabolic data --------------------


@cache
def _short_reps_inside(outer: ParabolicSubgroup, inner_gens: frozenset) -> tuple:
    """Shortest representatives r for (inner \\ outer), as elements of
    outer, each paired with its length."""
    inner = ParabolicSubgroup(outer.n, frozenset(inner_gens))
    return tuple(
        (x, x.length()) for x in outer.elements() if is_shortest_rep(x, inner)
    )


@cache
def _quotient_norm(outer: ParabolicSubgroup, inner_gens: frozenset) -> LaurentPoly:
    """sum_r q^(top - 2 l(r)) over the representatives r above, where top
    is the largest l(r)."""
    reps = _short_reps_inside(outer, inner_gens)
    top = max(length for _, length in reps)
    c_norm = LaurentPoly.zero()
    for _, length in reps:
        c_norm = c_norm + _Q(top - 2 * length)
    return c_norm


@cache
def _map_table(src: InducedModule, dst: InducedModule) -> _Table:
    """label w -> the (target, exponent shift, coefficient) triples of the
    image of N_w under map_i from src to dst when their sign walls agree,
    else under map_j: with r over the representatives of the shrunk wall,
    N_w goes to sum_r q^(top - l(r)) N_{r w} under map_i, top the largest
    l(r), and to sum_r (-q)^l(r) N_{r w} under map_j."""
    if src.p_gens == dst.p_gens:
        reps = _short_reps_inside(src.parabolic_q(), dst.q_gens)
        top = max(length for _, length in reps)
        reps = tuple((r.one_line, top - length, 1) for r, length in reps)
    else:
        reps = _short_reps_inside(src.parabolic_p(), dst.p_gens)
        reps = tuple((r.one_line, length, -1 if length & 1 else 1) for r, length in reps)
    n = dst.n
    width = n.bit_length()

    def row_of(w: int) -> tuple:
        entries = _entries(n, w)
        # (r w)(j) = r(w(j))
        return tuple(
            (sum(r[v - 1] << (width * j) for j, v in enumerate(entries)), shift, coeff)
            for r, shift, coeff in reps
        )

    return _Table(row_of)


def map_i(src: InducedModule, dst: InducedModule, x: ModuleElement) -> ModuleElement:
    """Inclusion along a shrinking trivial wall: requires the destination
    q-parabolic to sit inside the source one, same p."""
    _check_map(x, src, big=src, small=dst, which="q")
    return _apply(x, ModuleElement, dst, _map_table(src, dst).__getitem__)


def map_Q(src: InducedModule, dst: InducedModule, x: ModuleElement) -> ModuleElement:
    """Left inverse of map_i: the scaled quotient map along a growing
    trivial wall (source q-parabolic inside the destination one), sum_w
    c_w N_e . H_w divided by the norm of the quotient."""
    _check_map(x, src, big=dst, small=src, which="q")
    norm = _quotient_norm(dst.parabolic_q(), src.q_gens)
    return _apply(x, ModuleElement, dst, lambda w: _word_times(dst, w, _H), norm)


def map_j(src: InducedModule, dst: InducedModule, x: ModuleElement) -> ModuleElement:
    """Inclusion along a shrinking sign wall: destination p-parabolic
    inside the source one, same q."""
    _check_map(x, src, big=src, small=dst, which="p")
    return _apply(x, ModuleElement, dst, _map_table(src, dst).__getitem__)


def map_z(src: InducedModule, dst: InducedModule, x: ModuleElement) -> ModuleElement:
    """Quotient map along a growing sign wall, normalized by N_e -> N_e:
    sum_w c_w N_e . H_w."""
    _check_map(x, src, big=dst, small=src, which="p")
    return _apply(x, ModuleElement, dst, lambda w: _word_times(dst, w, _H))


def _check_map(
    x: ModuleElement, src: InducedModule, big: InducedModule, small: InducedModule, which: str
) -> None:
    """Raise ValueError unless big and small are modules over one S_n
    whose `which` walls nest (small's inside big's) and whose other walls
    agree, and x lives in src."""
    if big.n != small.n:
        raise ValueError("modules over different symmetric groups")
    if which == "q":
        if big.p_gens != small.p_gens or not small.q_gens <= big.q_gens:
            raise ValueError("need identical p-walls and nested q-walls")
    else:
        if big.q_gens != small.q_gens or not small.p_gens <= big.p_gens:
            raise ValueError("need identical q-walls and nested p-walls")
    if x.parent != src:
        raise ValueError("element does not live in the source module")
