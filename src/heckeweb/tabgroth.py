"""Hook tableaux and the decategorified module classes.

A hook of shape (n-k, k) has a row of n-k boxes (corner included) and a
detached column of k boxes.  Boxes are numbered 1..k up the column and
k+1..n along the row; the symmetric group permutes boxes from the left.
A tableau of type a is a filling by 1 (a_1 times), 2 (a_2 times), ...;
it is admissible when the row increases strictly and the column does not
increase from bottom to top.  Admissible tableaux of type a biject with
the index permutations of the classes at weight k, and with the 0/1
sequences eta marking which values sit in the row.  The tableaux are
the definition and the `tableaux` listing.  Every computation below
takes and returns a class as its eta, whose number of ones fixes the
weight; `index_perm` and its inverse `class_eta` are the closed-form
bijection with index permutations, for the command line and the tests.
Only `class_eta` takes the weight k, which a permutation alone does not
fix.

The four distinguished bases of each weight space (standard, proper
standard, projective, simple) are realized as vectors: a standard
vector, its form-normalized multiple, the canonical vector, the dual
canonical vector.  A translation across a merge position is a row per
source eta, {target eta: coefficient}, given by the case analysis on eta
and, independently, by the evaluated merge/split webs transported
through the class isomorphism; a matrix maps the etas of one weight
through a row.  The commutativity check compares the two rows on every
source eta, all weights at once, and the test suite requires it to pass
for every composition at desk scale.  The translations of projective
and simple classes, which the paper states through coset
representatives, are closed forms on eta too.  The raising/lowering
rules on the class bases are stated by the `efm` suite of `checks`.
`hom_dim` counts diagram labelings; the `homdim` suite compares that
count with the bilinear-form route `hom_dim_form_route`.
"""

from __future__ import annotations

from functools import cache
from itertools import accumulate, product
from math import factorial, prod

from .qarith import Immutable, LaurentPoly, json_parser, quantum_binom0
from .symgrp import Permutation
from . import uqrep, webcat
from .uqrep import TensorVector, bilinear_form, composition

__all__ = [
    "HookTableau",
    "perm_from_tableau",
    "is_admissible",
    "tableau_of_eta",
    "admissible_tableaux",
    "MAX_TABLEAUX",
    "all_tableaux",
    "index_perm",
    "class_eta",
    "class_vector",
    "check_weight",
    "translate_onto_wall",
    "translate_out_of_wall",
    "web_translation_matrix",
    "theorem1_check",
    "translate_projective",
    "translate_simple",
    "hom_dim",
    "hom_dim_form_route",
]

_Q = LaurentPoly.q
_ONE = LaurentPoly.one()


class HookTableau(Immutable):
    """A hook tableau of type comp: its column, bottom to top (k entries),
    and its row, left to right (n-k entries)."""

    __slots__ = FIELDS = ("comp", "column", "row")

    def __init__(self, comp: tuple[int, ...], column: tuple[int, ...], row: tuple[int, ...]):
        if sorted(column + row) != sorted(_type_sequence(comp)):
            raise ValueError(f"entries {column + row} do not fill type {comp}")
        object.__setattr__(self, "comp", comp)
        object.__setattr__(self, "column", column)
        object.__setattr__(self, "row", row)

    def entries(self) -> tuple[int, ...]:
        """Entries in box order: column bottom to top, then row."""
        return self.column + self.row

    def __str__(self):
        row = " ".join(str(e) for e in self.row)
        col = " ".join(str(e) for e in self.column)
        return f"row[{row}] col[{col}]"

    def to_json(self):
        return {"row": list(self.row), "column": list(self.column), "type": list(self.comp)}

    @staticmethod
    @json_parser
    def from_json(data):
        comp = composition(data["type"])
        column = tuple(data["column"])
        row = tuple(data["row"])
        if not all(type(e) is int for e in column + row):
            raise ValueError(f"tableau entries must be integers: {column + row}")
        return HookTableau(comp, column, row)


def _type_sequence(comp) -> tuple[int, ...]:
    out = []
    for value, count in enumerate(comp, start=1):
        out.extend([value] * count)
    return tuple(out)


def perm_from_tableau(t: HookTableau) -> Permutation:
    """The index permutation of a tableau: the i-th smallest box holding
    the value j is the image of the i-th position of the block of j."""
    positions: dict[int, list[int]] = {}
    for box, e in enumerate(t.entries(), start=1):
        positions.setdefault(e, []).append(box)
    return Permutation(tuple(positions[value].pop(0) for value in _type_sequence(t.comp)))


def is_admissible(t: HookTableau) -> bool:
    row_ok = all(a < b for a, b in zip(t.row, t.row[1:]))
    col_ok = all(a >= b for a, b in zip(t.column, t.column[1:]))
    return row_ok and col_ok


def tableau_of_eta(comp, eta) -> HookTableau:
    """The admissible tableau whose row holds exactly the marked values."""
    comp = composition(comp)
    eta = uqrep._check_eta(comp, eta)
    row = tuple(i + 1 for i, e in enumerate(eta) if e == 1)
    column_multiset = list(_type_sequence(comp))
    for value in row:
        column_multiset.remove(value)
    column = tuple(sorted(column_multiset, reverse=True))
    return HookTableau(comp, column, row)


def admissible_tableaux(comp, k: int) -> list[HookTableau]:
    """The admissible tableaux of the weight space k, one per eta;
    raises ValueError unless k is a weight of comp."""
    comp = check_weight(comp, k)
    return [tableau_of_eta(comp, eta) for eta in uqrep.weight_etas(comp, k)]


# the most tableaux all_tableaux lists: (1^8) has 8! = 40320, (1^9) too many
MAX_TABLEAUX = 100_000


def all_tableaux(comp, k: int) -> list[HookTableau]:
    """Every filling of the hook (n-k, k) by the type comp, admissible or
    not, in lexicographic order of the entries in box order.  There are
    n!/(a_1! ... a_l!) of them; raises ValueError past MAX_TABLEAUX."""
    _check_int(k)
    comp = composition(comp)
    n = sum(comp)
    if not 0 <= k <= n:
        raise ValueError(f"hook parameter k={k} out of range for n={n}")
    count = factorial(n) // prod(factorial(a) for a in comp)
    if count > MAX_TABLEAUX:
        raise ValueError(
            f"type {comp} has {count} tableaux, more than the {MAX_TABLEAUX} listed at most"
        )
    return [
        HookTableau(comp, entries[:k], entries[k:])
        for entries in _multiset_permutations(_type_sequence(comp))
    ]


def _multiset_permutations(seq):
    """The distinct arrangements of seq in lexicographic order, each once:
    repeatedly step to the next permutation (Knuth, TAOCP 7.2.1.2, L)."""
    a = sorted(seq)
    while True:
        yield tuple(a)
        i = len(a) - 2
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(a) - 1
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1 :] = reversed(a[i + 1 :])


# -- the eta index ---------------------------------------------------------


def index_perm(comp, eta) -> Permutation:
    """The index permutation of the class eta, equal to
    perm_from_tableau(tableau_of_eta(comp, eta)) in O(n): the block of
    value j goes to its column boxes and then to its row box.  The column
    holds the values that are not in the row, with the largest in box 1.

    >>> print(index_perm((1, 2, 2, 2), (0, 1, 1, 1)))
    [4,3,5,2,6,1,7]
    """
    comp = composition(comp)
    eta = uqrep._check_eta(comp, eta)
    one_line = []
    # column boxes above top and row boxes up to row are filled
    top = row = uqrep.weight_index(comp, eta)
    for a, e in zip(comp, eta):
        top -= a - e
        one_line.extend(range(top + 1, top + 1 + a - e))
        if e:
            row += 1
            one_line.append(row)
    return Permutation(tuple(one_line))


def class_eta(w: Permutation, comp, k: int) -> tuple[int, ...] | None:
    """The eta at weight k with index_perm(comp, eta) == w, or None when w indexes
    no class at weight k.  Value j is in the row exactly when the last
    entry of its block of w is past box k.

    >>> class_eta(Permutation((4, 3, 5, 2, 6, 1, 7)), (1, 2, 2, 2), 4)
    (0, 1, 1, 1)
    >>> class_eta(Permutation((1, 2, 3, 4, 5, 6, 7)), (1, 2, 2, 2), 4) is None
    True
    """
    _check_int(k)
    comp = composition(comp)
    if w.n != sum(comp):
        return None
    eta = tuple(int(w(end) > k) for end in accumulate(comp))
    if sum(eta) != w.n - k or index_perm(comp, eta) != w:
        return None
    return eta


_KINDS = {
    "standard": uqrep.standard_vector,
    "proper_standard": uqrep.dual_standard,
    "projective": uqrep.canonical_basis,
    "simple": uqrep.dual_canonical,
}


def class_vector(comp, eta, kind: str) -> TensorVector:
    """The weight-space vector of the class indexed by eta."""
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {tuple(_KINDS)}, got {kind!r}")
    return _KINDS[kind](comp, eta)


# -- translation across a merge position ---------------------------------


def _check_int(k) -> None:
    """Raise ValueError unless k is an int: True or 1.0 equals 1 as a key
    and as an index, and would be taken for it."""
    if type(k) is not int:
        raise ValueError(f"weight index k must be an integer, not {k!r}")


def check_weight(comp, k: int) -> tuple[int, ...]:
    """The validated composition comp; ValueError unless k is a weight of
    its tensor product, that is unless uqrep.weight_etas(comp, k) is nonempty."""
    comp = composition(comp)
    _check_int(k)
    n = sum(comp)
    if not n - len(comp) <= k <= n:
        raise ValueError(f"k={k} is not a weight of {comp}: needs {n - len(comp)}..{n}")
    return comp


def translate_onto_wall(comp, i: int, k: int) -> dict:
    """Matrix of the wall-crossing on proper standard classes, from type
    comp to the type with parts i, i+1 merged.  Keyed by source eta;
    values map target etas to coefficients.  Slots i, i+1 of eta merge
    into one slot, in the row when either was; both in the row give zero.

    >>> translate_onto_wall((1, 1), 1, 1)
    {(0, 1): {(1,): LaurentPoly(1)}, (1, 0): {(1,): LaurentPoly(q^-1)}}
    """
    comp = check_weight(comp, k)
    src, closed, _ = _rows(comp, i, "onto")
    return {eta: closed(eta) for eta in uqrep._weight_etas(src, k)}


def translate_out_of_wall(comp, i: int, k: int) -> dict:
    """Matrix of the wall-crossing on proper standard classes, from the
    merged type back to comp.  A merged slot i in the row splits two ways
    with rescaled binomial coefficients; one in the column goes to the
    single target with both slots in the column."""
    comp = check_weight(comp, k)
    src, closed, _ = _rows(comp, i, "out")
    return {eta: closed(eta) for eta in uqrep._weight_etas(src, k)}


def web_translation_matrix(comp, i: int, k: int, direction: str) -> dict:
    """The same matrices through the evaluated webs and the class
    isomorphism sending a proper standard class to its normalized
    standard vector v_eta / (v_eta, v_eta): the web is applied to the
    plain standard vector and each entry divided once.  Raises ValueError
    unless k is a weight of comp, as the closed forms do."""
    comp = check_weight(comp, k)
    src, _, web = _rows(comp, i, direction)
    return {eta: web(eta) for eta in uqrep._weight_etas(src, k)}


def _rows(comp, i: int, direction: str):
    """The source type of the translation across position i of the valid
    composition comp, "onto" or "out" of the wall, and its two rows, each
    taking one source eta to {target eta: coefficient}: the closed form
    and the web route.  i and the direction are checked, and the closed
    form's scalars computed, once, here.  The web row sends v_eta through
    uqrep.phi_merge or phi_split, looked up on every call, and divides
    each entry, the image coefficient times the target norm (memoized by
    the two values), by the source norm."""
    merged = uqrep.merged_type(comp, i)
    ai, aj = comp[i - 1], comp[i]
    if direction == "onto":
        src, dst = comp, merged
        apply_web = lambda v: uqrep.phi_merge(v, i)
        # q^(-a_j) q^(-(a_i - 1) a_j) for (1, 0) is q^(-a_i a_j), as for (0, 0)
        scalars = {(0, 0): _Q(-ai * aj), (0, 1): _Q(-ai * (aj - 1)), (1, 0): _Q(-ai * aj)}

        def closed(eta):
            c = scalars.get(eta[i - 1 : i + 1])  # none for (1, 1): both in the row
            return {} if c is None else {eta[: i - 1] + (eta[i - 1] | eta[i],) + eta[i + 1 :]: c}

    elif direction == "out":
        src, dst = merged, comp
        apply_web = lambda v: uqrep.phi_split(v, i, ai, aj)
        row = quantum_binom0(ai - 1, aj), _Q(ai) * quantum_binom0(ai, aj - 1)
        column = quantum_binom0(ai, aj)

        def closed(eta):
            head, tail = eta[: i - 1], eta[i:]
            if eta[i - 1]:
                return {head + (1, 0) + tail: row[0], head + (0, 1) + tail: row[1]}
            return {head + (0, 0) + tail: column}

    else:
        raise ValueError(f"direction must be 'onto' or 'out', got {direction!r}")

    def web(eta):
        norm_src = uqrep._standard_norm(src, eta)
        image = apply_web(TensorVector._of(src, {eta: _ONE}))
        return {
            gamma: _product(c, uqrep._standard_norm(dst, gamma)) / norm_src
            for gamma, c in image.support.items()
        }

    return src, closed, web


@cache
def _product(a, b):
    """a * b, computed once per pair of values."""
    return a * b


def theorem1_check(comp, i: int) -> bool:
    """The case analysis on eta equals the web route, both directions, all
    weights: the two rows agree on every 0/1 sequence of the source.
    comp is checked once, i and the direction once per direction."""
    comp = composition(comp)
    for direction in ("onto", "out"):
        src, closed, web = _rows(comp, i, direction)
        if any(closed(eta) != web(eta) for eta in product((0, 1), repeat=len(src))):
            return False
    return True


def translate_projective(comp, i: int, eta) -> TensorVector:
    """Out-of-wall translation of the indecomposable projective class eta
    of the merged type: the projective whose eta splits slot i as
    (eta_i, 0), the paper's w y_0 with y_0 longest in
    (S_merged / S_comp)^short."""
    comp = composition(comp)
    eta = uqrep._check_eta(uqrep.merged_type(comp, i), eta)
    return uqrep.canonical_basis(comp, eta[:i] + (0,) + eta[i:])


def translate_simple(comp, i: int, eta) -> TensorVector:
    """Onto-wall translation of the simple class eta: zero when slot i+1
    of eta is in the row, else q^(-a_i a_(i+1)) = q^(-l(y_0)) times the
    simple whose eta drops that slot, the paper's z with w = z y_0."""
    comp = composition(comp)
    merged = uqrep.merged_type(comp, i)
    eta = uqrep._check_eta(comp, eta)
    if eta[i]:
        return uqrep.zero_vector(merged)
    simple = uqrep.dual_canonical(merged, eta[:i] + eta[i + 1 :])
    return simple.scale(_Q(-comp[i - 1] * comp[i]))


# -- dimension counting through diagram labelings --------------------------


def _weight_space(eta_w, eta_z) -> tuple[tuple[int, ...], int]:
    """The regular composition and the weight k of two classes, or
    ValueError unless both etas index classes of one weight space."""
    comp = uqrep.regular_composition(len(eta_w))
    weight = sum(uqrep._check_eta(comp, eta_w))
    if sum(uqrep._check_eta(comp, eta_z)) != weight:
        raise ValueError(f"{eta_w} and {eta_z} index classes of different weight spaces")
    return comp, len(comp) - weight


def hom_dim(eta_w, eta_z) -> int:
    """k! times the number of weight-space indices whose top labeling
    gives a nonzero value on both canonical diagrams."""
    comp, k = _weight_space(eta_w, eta_z)
    dw = webcat.canonical_basis_diagram(comp, eta_w)
    dz = webcat.canonical_basis_diagram(comp, eta_z)
    count = 0
    for eta_x in uqrep.weight_etas(comp, k):
        val_w = webcat.matrix_coefficient(
            webcat.LabeledWebDiagram(dw.web, dw.bottom, eta_x)
        )
        if val_w.is_zero():
            continue
        val_z = webcat.matrix_coefficient(
            webcat.LabeledWebDiagram(dz.web, dz.bottom, eta_x)
        )
        if not val_z.is_zero():
            count += 1
    return factorial(k) * count


def hom_dim_form_route(eta_w, eta_z) -> int:
    """The q=1 specialization of the form pairing of the two canonical
    classes against all standard classes of the weight space: the second
    route to hom_dim, compared with it by the homdim suite of checks."""
    comp, k = _weight_space(eta_w, eta_z)
    cw = class_vector(comp, eta_w, "projective")
    cz = class_vector(comp, eta_z, "projective")
    total = 0
    for eta in uqrep.weight_etas(comp, k):
        vx = uqrep.standard_vector(comp, eta)
        total += bilinear_form(cw, vx).at_one() * bilinear_form(cz, vx).at_one()
    value, remainder = divmod(total, factorial(k))
    if remainder:
        raise ArithmeticError(f"form total {total} is not divisible by {k}!")
    return int(value)
