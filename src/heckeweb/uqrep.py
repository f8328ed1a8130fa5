"""Tensor representations of the quantum superalgebra with odd generators.

V(a) is two-dimensional with even basis vector v^a_0 and odd v^a_1; on a
tensor product V(a_1) x ... x V(a_l) the generators act through the
comultiplication with Koszul signs: an odd operator passing an odd tensor
factor picks up a minus sign.  The standard basis is indexed by 0/1
sequences eta; the weight space of index k consists of the vectors with
sum(eta) = n - k, where n = a_1 + ... + a_l.

Implements the raising/lowering/Cartan actions, the merge and split
intertwiners, the bar involution built from Theta' = 1 + (q^-1 - q) E x F,
standard/canonical/dual bases, the bilinear form with rescaled quantum
multinomial values, the rescaled adjoint E' of F, and the Hecke action on
tensor powers of the vector representation.

The canonical basis and its dual are block products in closed form.  Cut
eta before each of its 1s: its leading 0s, then one block per 1, the 1
with the 0s after it.  c_eta is the tensor product of the leading v_0s and
one vector per block, the sum over the block's positions j of
q^(a_1 + ... + a_(j-1)) times the block's 1 moved to position j, where a_1,
a_2, ... are the block's parts: every coefficient is a monomial q^d.  This
is what the canonical basis diagram of webcat evaluates to (each split of
a 1-labelled edge a+b gives v_10 + q^a v_01); that diagram and bar-fixing
(canonical_basis_by_bar) are its check routes.  d_eta mirrors it in the
dual standard basis v^e = v_e / (v_e, v_e): the 0s move instead, the block
of a 0 holds the 1s after it, and moving the 0 j places gives
(-1)^j q^(a_1 + ... + a_j).  The triple suite checks (c_h, d_eta) = delta.
"""

from __future__ import annotations

from functools import cache
from itertools import accumulate, combinations
from operator import le

from .qarith import (
    LaurentPoly,
    SparseVector,
    _coefficient,
    _quantum_multinom0,
    json_parser,
    quantum_binom,
    quantum_int,
    quantum_int0,
)
from .symgrp import seq_act_right
from .inducedmod import ModuleElement

__all__ = [
    "composition",
    "TensorVector",
    "parse_bits",
    "standard_vector",
    "act_E",
    "act_F",
    "act_K",
    "act_qh",
    "act_Eprime",
    "merged_type",
    "split_type",
    "phi_merge",
    "phi_split",
    "bar",
    "canonical_basis",
    "canonical_basis_by_bar",
    "standard_norm",
    "bilinear_form",
    "dual_standard",
    "dual_canonical",
    "schur_weyl_H",
    "stl_C",
    "psi_iso",
    "weight_index",
    "weight_etas",
    "eta_leq",
]

_Q = LaurentPoly.q
_ONE = LaurentPoly.one()


def composition(parts) -> tuple[int, ...]:
    """Validated composition: a tuple of strictly positive integers."""
    if isinstance(parts, str):
        raise ValueError(f"composition must be a sequence of parts, not {parts!r}")
    comp = tuple(parts)
    if not all(type(p) is int for p in comp):
        raise ValueError(f"composition parts must be integers: {comp}")
    if not all(p >= 1 for p in comp):
        raise ValueError(f"composition parts must be strictly positive: {comp}")
    return comp


def regular_composition(n: int) -> tuple[int, ...]:
    return (1,) * n


def _check_eta(comp, eta) -> tuple[int, ...]:
    """eta as a tuple, or ValueError unless it has one entry per part of
    comp and each entry is the int 0 or 1 (a bool or a float is not)."""
    eta = tuple(eta)
    if len(eta) != len(comp) or any(type(e) is not int or e not in (0, 1) for e in eta):
        raise ValueError(f"bad 0/1 sequence {eta} for composition {comp}")
    return eta


def parse_bits(text: str) -> tuple[int, ...]:
    """The 0/1 tuple written as the string text, such as "0101"."""
    if not isinstance(text, str) or any(ch not in "01" for ch in text):
        raise ValueError(f"malformed bitstring {text!r}")
    return tuple(int(ch) for ch in text)


class TensorVector(SparseVector):
    """sum_eta c_eta v_eta in the tensor product of type `parent`, the
    composition."""

    __slots__ = ()
    PARENTHESIZE_FRACTIONS = True

    @property
    def comp(self) -> tuple[int, ...]:
        return self.parent

    @staticmethod
    def _sort_key(eta):
        """Leading terms (most inversions) first."""
        return _eta_key(eta)

    def _label(self, eta) -> str:
        return _label_text(eta)

    def to_json(self):
        return {"comp": list(self.comp), "support": self._support_json("eta", _bits)}

    @staticmethod
    @json_parser
    def from_json(data) -> "TensorVector":
        comp = composition(data["comp"])
        return TensorVector._from_support_json(
            comp, data["support"], "eta", lambda bits: _check_eta(comp, parse_bits(bits))
        )


@cache
def _bits(eta) -> str:
    return "".join(str(e) for e in eta)


@cache
def _label_text(eta) -> str:
    """The printed standard vector, e.g. v[0101]."""
    return f"v[{_bits(eta)}]"


def standard_vector(comp, eta) -> TensorVector:
    comp = composition(comp)
    eta = _check_eta(comp, eta)
    return TensorVector(comp, {eta: _ONE})


def zero_vector(comp) -> TensorVector:
    return TensorVector(composition(comp), {})


def _inversions(eta) -> int:
    out = 0
    ones = 0
    for e in eta:
        if e == 1:
            ones += 1
        else:
            out += ones
    return out


@cache
def _eta_key(eta) -> tuple:
    """The sort key of eta: (inversions, eta)."""
    return (_inversions(eta), eta)


def eta_leq(eta, gamma) -> bool:
    """Partial order on 0/1 sequences of equal weight: eta below gamma if
    every prefix of eta carries at most as many ones.  Matches the Bruhat
    order on shortest coset representatives under the standard bijection."""
    return _below(gamma)(eta)


def _below(gamma):
    """The predicate eta -> eta_leq(eta, gamma), which compares the prefix
    sums of eta with those of gamma, computed once."""
    size, weight, bound = len(gamma), sum(gamma), tuple(accumulate(gamma))

    def below(eta) -> bool:
        return len(eta) == size and sum(eta) == weight and all(map(le, accumulate(eta), bound))

    return below


def weight_index(comp, eta) -> int:
    """The k with v_eta inside the weight space (V(a))_k."""
    return sum(comp) - sum(eta)


def weight_etas(comp, k: int) -> list[tuple[int, ...]]:
    """All eta with weight index k, sorted increasingly (inversions, lex),
    as a new list; ValueError unless k is an int."""
    if type(k) is not int:
        raise ValueError(f"weight index k must be an integer, not {k!r}")
    return list(_weight_etas(composition(comp), k))


@cache
def _weight_etas(comp, k: int) -> tuple:
    ell = len(comp)
    m = sum(comp) - k
    if m < 0 or m > ell:
        return ()
    out = []
    for ones in combinations(range(ell), m):
        eta = [0] * ell
        for i in ones:
            eta[i] = 1
        out.append(tuple(eta))
    out.sort(key=_eta_key)
    return tuple(out)


# -- generator actions ---------------------------------------------------


def act_E(v: TensorVector) -> TensorVector:
    """E acts on the r-th factor as v_1 -> [a_r] v_0 with K^-1 weights on
    the later factors and a Koszul sign from the earlier odd factors."""
    comp = v.comp
    tail = [0] * (len(comp) + 1)
    for r in range(len(comp) - 1, -1, -1):
        tail[r] = tail[r + 1] + comp[r]
    terms = []
    for eta, c in v.support.items():
        odd = 0
        for r, e in enumerate(eta):
            if e == 1:
                coeff = c * quantum_int(comp[r]) * _Q(-tail[r + 1])
                if odd % 2:
                    coeff = -coeff
                terms.append((eta[:r] + (0,) + eta[r + 1 :], coeff))
                odd += 1
    return TensorVector.from_terms(comp, terms)


def act_F(v: TensorVector) -> TensorVector:
    """F acts on the r-th factor as v_0 -> v_1 with K weights on the
    earlier factors and the same Koszul sign convention."""
    comp = v.comp
    head = [0] * (len(comp) + 1)
    for r in range(len(comp)):
        head[r + 1] = head[r] + comp[r]
    terms = []
    for eta, c in v.support.items():
        odd = 0
        for r, e in enumerate(eta):
            if e == 0:
                coeff = c * _Q(head[r])
                if odd % 2:
                    coeff = -coeff
                terms.append((eta[:r] + (1,) + eta[r + 1 :], coeff))
            else:
                odd += 1
    return TensorVector.from_terms(comp, terms)


def act_K(v: TensorVector) -> TensorVector:
    return v.scale(_Q(sum(v.comp)))


def act_qh(h1_coeff: int, h2_coeff: int, v: TensorVector) -> TensorVector:
    """Diagonal action of q^h for h = h1_coeff h_1 + h2_coeff h_2."""
    n = sum(v.comp)
    out: dict = {}
    for eta, c in v.support.items():
        m = sum(eta)
        out[eta] = c * _Q(h1_coeff * (n - m) + h2_coeff * m)
    return TensorVector(v.comp, out)


def act_Eprime(v: TensorVector) -> TensorVector:
    """The rescaled raising operator adjoint to F: on the weight space
    with beta-sum s it is q^(n-1)/[s+1]_0 times E."""
    if v.is_zero():
        return v
    n = sum(v.comp)
    weights = {sum(eta) for eta in v.support}
    if len(weights) > 1:
        raise ValueError("input mixes weight spaces")
    m = weights.pop()
    scalar = _Q(n - 1) / quantum_int0(n - m + 1)
    return act_E(v).scale(scalar)


# -- merge and split intertwiners ----------------------------------------


def merged_type(comp, i: int) -> tuple[int, ...]:
    """The type comp with its parts i and i+1 (1-based) merged into one."""
    if not (type(i) is int and 1 <= i <= len(comp) - 1):
        raise ValueError(f"merge position {i!r} out of range for {comp}")
    return comp[: i - 1] + (comp[i - 1] + comp[i],) + comp[i + 1 :]


def split_type(comp, i: int, a: int, b: int) -> tuple[int, ...]:
    """The type comp with its part i (1-based) split into the pair (a, b)."""
    if not (type(i) is int and 1 <= i <= len(comp)):
        raise ValueError(f"split position {i!r} out of range for {comp}")
    label = comp[i - 1]
    if not (type(a) is type(b) is int and 1 <= a < label and a + b == label):
        raise ValueError(f"cannot split label {label} as {a!r}+{b!r}")
    return comp[: i - 1] + (a, b) + comp[i:]


def phi_merge(v: TensorVector, i: int) -> TensorVector:
    """Project the adjacent factors i, i+1 (1-based) onto their merge:
    v_00, v_01 and v_10 of V(a) x V(b) go to qbin(a+b, a) v_0,
    qbin(a+b-1, a) v_1 and q^-b qbin(a+b-1, b) v_1, and v_11 to zero.
    The three scalars are computed once per (a, b) and shared, so each
    term costs one product."""
    comp = v.comp
    new_comp = merged_type(comp, i)
    scalars = _merge_scalars(comp[i - 1], comp[i])
    terms = []
    for eta, c in v.support.items():
        x, y = eta[i - 1], eta[i]
        if not (x and y):
            terms.append((eta[: i - 1] + (x | y,) + eta[i + 1 :], c * scalars[2 * x + y]))
    return TensorVector.from_terms(new_comp, terms)


@cache
def _merge_scalars(a: int, b: int) -> tuple:
    """The merge's scalars on v_00, v_01 and v_10, indexed by the pair
    read as a binary number."""
    return (
        quantum_binom(a + b, a),
        quantum_binom(a + b - 1, a),
        _Q(-b) * quantum_binom(a + b - 1, b),
    )


def phi_split(v: TensorVector, i: int, a: int, b: int) -> TensorVector:
    """Embed the factor i of type a+b into a pair of factors (a, b)."""
    new_comp = split_type(v.comp, i, a, b)
    qa = _Q(a)
    terms = []
    for eta, c in v.support.items():
        head, tail = eta[: i - 1], eta[i:]
        if eta[i - 1] == 0:
            terms.append((head + (0, 0) + tail, c))
        else:
            terms.append((head + (1, 0) + tail, c))
            terms.append((head + (0, 1) + tail, c * qa))
    return TensorVector.from_terms(new_comp, terms)


# -- bar involution -------------------------------------------------------

@cache
def _bar_basis(comp, eta) -> TensorVector:
    """Bar of a standard basis vector, by the left-nested recursion
    bar(w x w') = Theta'(bar w x bar w')."""
    if len(comp) <= 1:
        return standard_vector(comp, eta)
    prefix = _bar_basis(comp[:-1], eta[:-1])
    last = eta[-1]
    ext = TensorVector(
        comp, {g + (last,): c for g, c in prefix.support.items()}
    )
    correction = []
    if last == 0:
        # (E x F) acts only when the last factor is v_0; F turns it
        # into v_1 and E hits the prefix with a sign per odd prefix
        shift = _Q(-1) - _Q(1)
        for g, c in ext.support.items():
            sign = -1 if sum(g[:-1]) % 2 else 1
            e_part = act_E(standard_vector(comp[:-1], g[:-1]))
            for ge, ce in e_part.support.items():
                correction.append((ge + (1,), ce * c * sign * shift))
    return TensorVector.from_terms(comp, correction, ext.support)


def bar(v: TensorVector) -> TensorVector:
    return TensorVector.from_terms(v.comp, (
        (g, d * c.bar())
        for eta, c in v.support.items()
        for g, d in _bar_basis(v.comp, eta).support.items()
    ))


# -- canonical and dual bases ---------------------------------------------

def canonical_basis(comp, eta) -> TensorVector:
    """The unique bar-invariant vector equal to v_eta plus a qZ[q]-linear
    combination of standard vectors strictly below eta, by the block
    product of the module docstring.  The evaluated canonical basis
    diagram (webcat) and bar-fixing (canonical_basis_by_bar) are its
    check routes."""
    comp = composition(comp)
    return _canonical_basis(comp, _check_eta(comp, eta))


@cache
def _canonical_basis(comp, eta) -> TensorVector:
    """The block product on ints, every q^d interned once by value."""
    x = TensorVector._of(comp, {g: _coefficient(((d, 1),)) for g, d in _blocks(comp, eta, 1).items()})
    x.check_unitriangular(eta, _below(eta))
    return x


def _blocks(comp, eta, mover) -> dict:
    """The block product of the module docstring as {label: d}: eta is cut
    before each entry equal to mover, which moves right in its block, and
    the term's monomial is q^d, d the sum of the parts the movers passed.
    Each block's choices are read from a cache shared by c_eta and d_eta."""
    cuts = [r for r, e in enumerate(eta) if e == mover] + [len(eta)]
    terms = {eta[: cuts[0]]: 0}
    for start, end in zip(cuts, cuts[1:]):
        choices = _block_choices(comp, start, end, mover)
        terms = {head + bits: d + s for head, d in terms.items() for bits, s in choices}
    return terms


@cache
def _block_choices(comp, start, end, mover) -> tuple:
    """The (bits, shift) choices of the block of comp[start:end] whose
    first entry is the mover: the mover at each position r of the block,
    and the sum of the parts it passed to get there."""
    pad, mark = (1 - mover,), (mover,)
    choices = []
    shift = 0
    for r in range(start, end):
        choices.append((pad * (r - start) + mark + pad * (end - r - 1), shift))
        shift += comp[r]
    return tuple(choices)


def canonical_basis_by_bar(comp, eta) -> TensorVector:
    """The same vector by bar-fixing, the independent check route: peel
    the leading bar defect and correct with lower canonical vectors."""
    comp = composition(comp)
    return _canonical_basis_by_bar(comp, _check_eta(comp, eta))


@cache
def _canonical_basis_by_bar(comp, eta) -> TensorVector:
    x = standard_vector(comp, eta)
    defect = bar(x) - x
    while not defect.is_zero():
        gamma, c = max(defect.support.items(), key=lambda item: _eta_key(item[0]))
        if not isinstance(c, LaurentPoly) or c.bar() != -c:
            raise ArithmeticError(f"bar defect at {gamma} is not antisymmetric: {c}")
        pos = LaurentPoly({e: v for e, v in c.terms.items() if e > 0})
        lower = _canonical_basis_by_bar(comp, gamma)
        x = x + lower.scale(pos)
        defect = defect - lower.scale(c)
    x.check_unitriangular(eta, _below(eta))
    return x


def standard_norm(comp, eta) -> LaurentPoly:
    """The form value (v_eta, v_eta): the rescaled quantum multinomial of
    (a_j - eta_j); ValueError unless comp is a composition and eta a 0/1
    sequence with one entry per part."""
    comp = composition(comp)
    return _standard_norm(comp, _check_eta(comp, eta))


@cache
def _standard_norm(comp, eta) -> LaurentPoly:
    return _quantum_multinom0(tuple(a - e for a, e in zip(comp, eta)))


def bilinear_form(v: TensorVector, w: TensorVector):
    """Symmetric form, diagonal on the standard basis with value
    standard_norm."""
    if v.comp != w.comp:
        raise ValueError(f"composition mismatch: {v.comp} vs {w.comp}")
    out = LaurentPoly.zero()
    for eta, c in v.support.items():
        d = w.support.get(eta)
        if d is not None:
            out = out + c * d * _standard_norm(v.comp, eta)
    return out


def dual_standard(comp, eta) -> TensorVector:
    """The vector pairing to 1 with v_eta and to 0 with the others."""
    comp = composition(comp)
    eta = _check_eta(comp, eta)
    return TensorVector(comp, {eta: 1 / _standard_norm(comp, eta)})


def dual_canonical(comp, eta) -> TensorVector:
    """The basis dual to the canonical one, (c_h, d_eta) = delta_{h,eta}: the
    block product of the module docstring in the dual standard basis, each
    coefficient one interned +-q^d divided by one form value (v_g, v_g)."""
    comp = composition(comp)
    return _dual_canonical(comp, _check_eta(comp, eta))


@cache
def _dual_canonical(comp, eta) -> TensorVector:
    # a 0 moved j places passes j 1s and adds j inversions: the sign
    # (-1)^j of all blocks is (-1)^(inversions(g) - inversions(eta))
    base = _inversions(eta)
    return TensorVector._of(comp, {
        g: _coefficient(((d, (-1) ** (_inversions(g) - base)),)) / _standard_norm(comp, g)
        for g, d in _blocks(comp, eta, 0).items()
    })


# -- Hecke action on tensor powers of the vector representation -----------


def schur_weyl_H(v: TensorVector, i: int) -> TensorVector:
    """The Hecke generator on adjacent factors of the regular composition."""
    comp = v.comp
    if any(a != 1 for a in comp):
        raise ValueError(f"Hecke action needs the regular composition, got {comp}")
    if not 1 <= i <= len(comp) - 1:
        raise ValueError(f"position {i} out of range for {comp}")
    shorten = _Q(-1) - _Q(1)
    terms = []
    for eta, c in v.support.items():
        pair = (eta[i - 1], eta[i])
        swapped = eta[: i - 1] + (eta[i], eta[i - 1]) + eta[i + 1 :]
        if pair == (1, 1):
            terms.append((eta, c * (-_Q(1))))
        elif pair == (1, 0):
            terms.append((swapped, c))
            terms.append((eta, c * shorten))
        elif pair == (0, 1):
            terms.append((swapped, c))
        else:
            terms.append((eta, c * _Q(-1)))
    return TensorVector.from_terms(comp, terms)


def stl_C(v: TensorVector, i: int) -> TensorVector:
    """The Temperley-Lieb style generator C_i = H_i + q."""
    return schur_weyl_H(v, i) + v.scale(_Q(1))


def psi_iso(x: ModuleElement, k: int) -> TensorVector:
    """The weight-space isomorphism N_w -> v_{eta_min . w} from the mixed
    induced module with trivial wall s_1..s_{k-1} and sign wall
    s_{k+1}..s_{n-1} onto the k-th weight space of the tensor power."""
    mod = x.parent
    n = mod.n
    expected_q = frozenset(range(1, k))
    expected_p = frozenset(range(k + 1, n))
    if mod.q_gens != expected_q or mod.p_gens != expected_p:
        raise ValueError(
            f"module walls {sorted(mod.p_gens)}/{sorted(mod.q_gens)} do not "
            f"match the weight-space shape for k={k}"
        )
    comp = regular_composition(n)
    eta_min = (0,) * k + (1,) * (n - k)
    return TensorVector.from_terms(
        comp, ((seq_act_right(eta_min, w), c) for w, c in x.permutation_support().items())
    )
