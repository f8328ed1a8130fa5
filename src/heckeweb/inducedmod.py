"""Mixed induced Hecke modules: sign on one parabolic, trivial on a
commuting one, induced up to the full Hecke algebra.

The module has basis N_w indexed by the shortest representatives of the
double-parabolic left quotient.  A generator H_i acts by one of four
rules: it moves the index within the quotient (two cases, by length), or
it hits the sign wall (eigenvalue -q) or the trivial wall (eigenvalue
q^-1).  The bar involution is induced from the Hecke algebra through
N_w = N_e . H_w.  With both walls empty the module is the Hecke algebra
itself, acting on itself from the right; `hecke` is a view of that case.

Which rule applies is read off the two entries a = w(i), b = w(i+1) that
s_i swaps (Deodhar, J. Algebra 111, 1987): if they are consecutive values
j, j+1 with s_j in a wall, then w s_i = s_j w and H_i acts by that wall's
eigenvalue; otherwise w s_i is again a shortest representative, longer
exactly when a < b.  A step thus costs O(1) per support term.  This needs
every support index to be a shortest representative, which the
constructors that take outside input check.

The canonical basis is built by multiplying and correcting: C_w is
C_{w s_i} . (H_i + q) minus integer multiples of lower C_y.  For each
(module, i) a step table, filled in as labels are met, holds the targets
of N_y . (H_i + q) with their exponent shifts, so a step is one pass over
plain {label: {exponent: int}} dicts; each final coefficient is a
LaurentPoly shared by every canonical element with that value (du Cloux,
"Computing Kazhdan-Lusztig polynomials for arbitrarily large Coxeter
groups", 2002, stores each polynomial once in the same way).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .qarith import LaurentPoly, SparseVector, json_parser
from .symgrp import ParabolicSubgroup, Permutation, is_shortest_rep, shortest_coset_reps

__all__ = ["InducedModule", "ModuleElement", "map_i", "map_Q", "map_j", "map_z"]

_Q = LaurentPoly.q
_ONE = LaurentPoly.one()
_SIGN_WALL = -_Q(1)  # eigenvalue of H_i on the sign wall
_TRIVIAL_WALL = _Q(-1)  # eigenvalue of H_i on the trivial wall
_SHORTEN = _Q(-1) - _Q(1)  # extra term of a length-dropping step
_INVERSE_SHIFT = _Q(1) - _Q(-1)  # H_i^-1 = H_i + (q - q^-1)


@dataclass(frozen=True, slots=True)
class InducedModule:
    n: int
    p_gens: frozenset[int]
    q_gens: frozenset[int]

    def __post_init__(self):
        p, q = self.parabolic_p(), self.parabolic_q()
        if not p.commutes_elementwise_with(q):
            raise ValueError(
                f"parabolic subgroups {p} and {q} do not commute elementwise"
            )

    @staticmethod
    def of(n: int, p_gens=(), q_gens=()) -> "InducedModule":
        return InducedModule(n, frozenset(p_gens), frozenset(q_gens))

    def parabolic_p(self) -> ParabolicSubgroup:
        return ParabolicSubgroup(self.n, self.p_gens)

    def parabolic_q(self) -> ParabolicSubgroup:
        return ParabolicSubgroup(self.n, self.q_gens)

    def parabolic_pq(self) -> ParabolicSubgroup:
        return ParabolicSubgroup(self.n, self.p_gens | self.q_gens)

    def basis_index(self) -> list[Permutation]:
        """Shortest coset representatives, sorted by (length, one-line)."""
        return shortest_coset_reps(self.parabolic_pq())

    def __str__(self):
        return f"M(n={self.n}, p={sorted(self.p_gens)}, q={sorted(self.q_gens)})"

    # -- element constructors -----------------------------------------

    def standard(self, w: Permutation) -> "ModuleElement":
        _check_index(self, w)
        return ModuleElement(self, {w: _ONE})

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


class ModuleElement(SparseVector):
    """sum_w c_w N_w in the induced module `parent`, labelled by shortest
    coset representatives w."""

    __slots__ = ()

    @staticmethod
    def _sort_key(w: Permutation):
        return (w.length(), w.one_line)

    def _label(self, w: Permutation) -> str:
        return f"N{w}"

    def act_generator(self, i: int) -> "ModuleElement":
        return act_generator(self, i)

    def act_hecke(self, x: "ModuleElement") -> "ModuleElement":
        """Right action of a Hecke algebra element."""
        if x.parent.n != self.parent.n:
            raise ValueError("Hecke element size mismatch")
        terms = []
        for w, c in x.support.items():
            piece = self
            for i in w.reduced_word():
                piece = piece.act_generator(i)
            terms.extend((k, v * c) for k, v in piece.support.items())
        return self.from_terms(self.parent, terms)

    def bar(self) -> "ModuleElement":
        """Bar involution via N_w = N_e . H_w and bar(N_e) = N_e."""
        mod = self.parent
        return self.from_terms(mod, (
            (k, v * c.bar())
            for w, c in self.support.items()
            for k, v in _bar_of_standard(mod, w).support.items()
        ))

    def to_json(self):
        return {
            "module": self.parent.to_json(),
            "support": self._support_json("w", lambda w: list(w.one_line)),
        }

    @staticmethod
    @json_parser
    def from_json(data) -> "ModuleElement":
        mod = InducedModule.from_json(data["module"])
        return ModuleElement._from_support_json(
            mod, data["support"], "w", lambda w: _check_index(mod, Permutation(tuple(w)))
        )


_SIGN, _TRIVIAL, _RISING, _FALLING = range(4)


def _case(mod: InducedModule, w: Permutation, i: int) -> int:
    """Which of the four rules H_i acts on N_w by, read off the entries
    a = w(i), b = w(i+1) that s_i swaps."""
    a, b = w.one_line[i - 1], w.one_line[i]
    if a - b in (1, -1):
        j = min(a, b)
        if j in mod.p_gens:
            return _SIGN
        if j in mod.q_gens:
            return _TRIVIAL
    return _FALLING if a > b else _RISING


def act_generator(x: ModuleElement, i: int) -> ModuleElement:
    """Right action of H_i by the four-case rule."""
    mod = x.parent
    if not 1 <= i <= mod.n - 1:
        raise ValueError(f"generator index {i} out of range for S_{mod.n}")
    terms = []
    for w, c in x.support.items():
        case = _case(mod, w, i)
        if case == _SIGN:
            terms.append((w, c * _SIGN_WALL))
        elif case == _TRIVIAL:
            terms.append((w, c * _TRIVIAL_WALL))
        else:
            terms.append((w.times_simple(i), c))
            if case == _FALLING:
                terms.append((w, c * _SHORTEN))
    return x.from_terms(mod, terms)


def _check_index(mod: InducedModule, w: Permutation) -> Permutation:
    if w.n != mod.n or not is_shortest_rep(w, mod.parabolic_pq()):
        raise ValueError(f"{w} does not index a basis element of {mod}")
    return w


@cache
def _generator_times(mod: InducedModule, w: Permutation) -> ModuleElement:
    """N_e . H_w, for any w in S_n.  The reduced word of w is that of
    w s_i followed by i, for i the last right descent of w."""
    descents = w.right_descents()
    if not descents:
        return mod.generator()
    i = descents[-1]
    return act_generator(_generator_times(mod, w.times_simple(i)), i)


@cache
def _bar_of_standard(mod: InducedModule, w: Permutation) -> ModuleElement:
    """bar(N_w) = N_e . bar(H_w) = N_e . H_{i1}^-1 ... H_{ik}^-1, with
    H_i^-1 = H_i + (q - q^-1), along the same reduced word."""
    descents = w.right_descents()
    if not descents:
        return mod.generator()
    i = descents[-1]
    x = _bar_of_standard(mod, w.times_simple(i))
    return act_generator(x, i) + x.scale(_INVERSE_SHIFT)


# N_y . (H_i + q) in each case, as (moves to y s_i, exponent shift) pairs
# with coefficient 1: on the sign wall and on a falling step the -q of H_i
# cancels against the added q.
_PLUS_Q_TERMS = {
    _SIGN: (),
    _TRIVIAL: ((False, 1), (False, -1)),
    _RISING: ((True, 0), (False, 1)),
    _FALLING: ((True, 0), (False, -1)),
}


@cache
def _step_table(mod: InducedModule, i: int) -> dict:
    """label y -> the (target, exponent shift) pairs of N_y . (H_i + q),
    filled in by `canonical_basis_element` as labels are first met, so
    that a small element of a large module does not list the whole basis."""
    return {}


@cache
def _coefficient(terms: tuple) -> LaurentPoly:
    """The Laurent polynomial with these sorted nonzero (exponent,
    coefficient) pairs, one shared object per value."""
    return LaurentPoly(dict(terms))


@cache
def canonical_basis_element(mod: InducedModule, w: Permutation) -> ModuleElement:
    """The unique bar-invariant element N_w + (qZ[q]-combination of lower
    N_y), built as C_{w s_i} . (H_i + q) for the last descent i of w,
    corrected by m C_y for each constant term m at a label y != w.

    The product and the corrections run on {label: {exponent: int}}
    dicts through the step table; each C_y has a constant term only at y,
    so the corrections do not interact.  Equal coefficients of the result
    are one shared LaurentPoly."""
    _check_index(mod, w)
    descents = w.right_descents()
    if not descents:
        return ModuleElement(mod, {w: _coefficient(((0, 1),))})
    i = descents[-1]
    shorter = canonical_basis_element(mod, w.times_simple(i))
    table = _step_table(mod, i)
    work: dict[Permutation, dict[int, int]] = {}
    for y, c in shorter.support.items():
        targets = table.get(y)
        if targets is None:
            moved = y.times_simple(i)
            targets = table[y] = tuple(
                (moved if move else y, shift) for move, shift in _PLUS_Q_TERMS[_case(mod, y, i)]
            )
        for target, shift in targets:
            poly = work.setdefault(target, {})
            for e, v in c.terms.items():
                e += shift
                poly[e] = poly.get(e, 0) + v
    corrections = [(y, poly[0]) for y, poly in work.items() if poly.get(0) and y != w]
    for y, m in corrections:
        for z, c in canonical_basis_element(mod, y).support.items():
            poly = work.setdefault(z, {})
            for e, v in c.terms.items():
                poly[e] = poly.get(e, 0) - m * v
    support = {}
    for y, poly in work.items():
        terms = tuple(sorted(item for item in poly.items() if item[1]))
        if terms:
            support[y] = _coefficient(terms)
    result = ModuleElement(mod, support)
    result.check_unitriangular(w)
    return result


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
def _quotient_scale(outer: ParabolicSubgroup, inner_gens: frozenset):
    """1 / sum_r q^(top - 2 l(r)) over the representatives r above,
    where top is the largest l(r)."""
    reps = _short_reps_inside(outer, inner_gens)
    top = max(length for _, length in reps)
    c_norm = LaurentPoly.zero()
    for _, length in reps:
        c_norm = c_norm + _Q(top - 2 * length)
    return 1 / c_norm


def map_i(src: InducedModule, dst: InducedModule, x: ModuleElement) -> ModuleElement:
    """Inclusion along a shrinking trivial wall: requires the destination
    q-parabolic to sit inside the source one, same p."""
    _check_shrink(src, dst, which="q")
    if x.parent != src:
        raise ValueError("element does not live in the source module")
    reps = _short_reps_inside(src.parabolic_q(), dst.q_gens)
    top = max(length for _, length in reps)
    return ModuleElement.from_terms(dst, (
        (r * w, c * _Q(top - length)) for w, c in x.support.items() for r, length in reps
    ))


def map_Q(src: InducedModule, dst: InducedModule, x: ModuleElement) -> ModuleElement:
    """Left inverse of map_i: the scaled quotient map along a growing
    trivial wall (source q-parabolic inside the destination one)."""
    _check_shrink(dst, src, which="q")
    if x.parent != src:
        raise ValueError("element does not live in the source module")
    return _push_forward(dst, x).scale(_quotient_scale(dst.parabolic_q(), src.q_gens))


def map_j(src: InducedModule, dst: InducedModule, x: ModuleElement) -> ModuleElement:
    """Inclusion along a shrinking sign wall: destination p-parabolic
    inside the source one, same q."""
    _check_shrink(src, dst, which="p")
    if x.parent != src:
        raise ValueError("element does not live in the source module")
    reps = _short_reps_inside(src.parabolic_p(), dst.p_gens)
    minus_q = -LaurentPoly.q()
    return ModuleElement.from_terms(dst, (
        (r * w, c * minus_q ** length) for w, c in x.support.items() for r, length in reps
    ))


def map_z(src: InducedModule, dst: InducedModule, x: ModuleElement) -> ModuleElement:
    """Quotient map along a growing sign wall, normalized by N_e -> N_e."""
    _check_shrink(dst, src, which="p")
    if x.parent != src:
        raise ValueError("element does not live in the source module")
    return _push_forward(dst, x)


def _push_forward(dst: InducedModule, x: ModuleElement) -> ModuleElement:
    """sum_w c_w N_e . H_w in dst, for x = sum_w c_w N_w in a module over
    the same S_n."""
    return ModuleElement.from_terms(dst, (
        (k, v * c)
        for w, c in x.support.items()
        for k, v in _generator_times(dst, w).support.items()
    ))


def _check_shrink(big: InducedModule, small: InducedModule, which: str) -> None:
    if big.n != small.n:
        raise ValueError("modules over different symmetric groups")
    if which == "q":
        if big.p_gens != small.p_gens or not small.q_gens <= big.q_gens:
            raise ValueError("need identical p-walls and nested q-walls")
    else:
        if big.q_gens != small.q_gens or not small.p_gens <= big.p_gens:
            raise ValueError("need identical q-walls and nested p-walls")
