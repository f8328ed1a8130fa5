"""Independent reference computations used only by the tests."""

from itertools import combinations

from heckeweb.qarith import LaurentPoly
from heckeweb.symgrp import (
    ParabolicSubgroup,
    Permutation,
    is_shortest_rep,
    shortest_rep_of_coset,
)
from heckeweb import hecke, uqrep


def subword_bruhat_leq(u: Permutation, w: Permutation) -> bool:
    """Subword criterion: u is below w when some subword of a fixed
    reduced word of w multiplies to u with the right length."""
    word = w.reduced_word()
    target_len = u.length()
    for picks in combinations(range(len(word)), target_len):
        prod = Permutation.identity(w.n)
        for idx in picks:
            prod = prod * Permutation.simple(w.n, word[idx])
        if prod == u:
            return True
    return False


def act_generator_by_products(mod, w: Permutation, i: int):
    """N_w . H_i by permutation products: if w s_i is again a shortest
    representative the index moves (with an extra term when the length
    drops); otherwise w s_i w^-1 is a simple reflection s_j of one of the
    walls, and H_i acts by that wall's eigenvalue."""
    Q = LaurentPoly.q
    n = mod.n
    wsi = w * Permutation.simple(n, i)
    if is_shortest_rep(wsi, mod.parabolic_pq(), side="left"):
        if wsi.length() > w.length():
            return mod.standard(wsi)
        return mod.standard(wsi) + mod.standard(w).scale(Q(-1) - Q(1))
    t = wsi * w.inverse()
    (j,) = [j for j in range(1, n) if t == Permutation.simple(n, j)]
    if j in mod.p_gens:
        return mod.standard(w).scale(-Q(1))
    assert j in mod.q_gens
    return mod.standard(w).scale(Q(-1))


def hecke_generator_inverse(n: int, i: int):
    """H_i^-1 = H_i + (q - q^-1), read off the quadratic relation
    H_i^2 = (q^-1 - q) H_i + 1; it is also bar(H_i)."""
    Q = LaurentPoly.q
    return hecke.standard_basis_element(Permutation.simple(n, i)) + hecke.standard_basis_element(
        Permutation.identity(n)
    ).scale(Q(1) - Q(-1))


def generator_times_closed_form(mod, w: Permutation):
    """N_e . H_w for any w in S_n: with w = x w', w' the shortest element
    of W_pq w and x = x_p x_q in W_p x W_q, it is
    (-q)^l(x_p) q^-l(x_q) N_w'."""
    short = shortest_rep_of_coset(w, mod.parabolic_pq(), side="left")
    x = w * short.inverse()
    x_p = shortest_rep_of_coset(x, ParabolicSubgroup(mod.n, mod.q_gens), side="right")
    len_p = x_p.length()
    len_q = x.length() - len_p
    return mod.standard(short).scale(
        LaurentPoly.q(len_p - len_q) * (-1) ** len_p
    )


def bar_right_nested(v: uqrep.TensorVector) -> uqrep.TensorVector:
    """Bar involution with the opposite bracketing (first factor against
    the rest); must agree with the library's left-nested version."""
    comp = v.comp
    out = uqrep.zero_vector(comp)
    for eta, c in v.support.items():
        out = out + _bar_basis_right(comp, eta).scale(c.bar())
    return out


def _bar_basis_right(comp, eta) -> uqrep.TensorVector:
    if len(comp) <= 1:
        return uqrep.standard_vector(comp, eta)
    head_comp, tail_comp = comp[:1], comp[1:]
    tail = _bar_basis_right(tail_comp, eta[1:])
    ext = uqrep.TensorVector(comp, {(eta[0],) + g: c for g, c in tail.support.items()})
    correction = uqrep.zero_vector(comp)
    # E acts on the first factor, F on the rest; F passing the first
    # factor contributes the Koszul sign
    for g, c in ext.support.items():
        if g[0] != 1:
            continue
        e_first = uqrep.act_E(uqrep.standard_vector(head_comp, g[:1]))
        f_rest = uqrep.act_F(uqrep.standard_vector(tail_comp, g[1:]))
        for ge, ce in e_first.support.items():
            for gf, cf in f_rest.support.items():
                correction = correction + uqrep.TensorVector(
                    comp, {ge + gf: ce * cf * c * (-1)}
                )
    shift = LaurentPoly.q(-1) - LaurentPoly.q(1)
    return ext + correction.scale(shift)


def invert_matrix(rows):
    """Gauss-Jordan inverse over the rational function field; a singular
    matrix raises ArithmeticError."""
    size = len(rows)
    one, zero = LaurentPoly.one(), LaurentPoly.zero()
    aug = [
        list(row) + [one if r == c else zero for c in range(size)]
        for r, row in enumerate(rows)
    ]
    for col in range(size):
        pivot = next((r for r in range(col, size) if not aug[r][col].is_zero()), None)
        if pivot is None:
            raise ArithmeticError(f"singular matrix: no pivot in column {col}")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv_p = aug[col][col].inverse()
        aug[col] = [v * inv_p for v in aug[col]]
        for r in range(size):
            if r != col and not aug[r][col].is_zero():
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return [row[size:] for row in aug]


def dual_canonical_by_gram(comp, k: int) -> dict:
    """The basis dual to the canonical one on the weight space k, by
    inverting the Gram matrix of the canonical vectors: eta -> vector."""
    etas = uqrep.weight_etas(comp, k)
    basis = [uqrep.canonical_basis(comp, g) for g in etas]
    gram = [[uqrep.bilinear_form(r, c) for c in basis] for r in basis]
    inv = invert_matrix(gram)
    return {
        g: uqrep.TensorVector.from_terms(comp, (
            (gamma, d * inv[row][col])
            for row in range(len(etas))
            for gamma, d in basis[row].support.items()
        ))
        for col, g in enumerate(etas)
    }


def tableaux_by_permutations(comp, k: int):
    """Every hook tableau of type comp: walk all n! orderings of the type
    sequence and keep the first occurrence of each arrangement."""
    from itertools import permutations

    from heckeweb.tabgroth import HookTableau, _type_sequence

    n = sum(comp)
    seen = set()
    tabs = []
    for arrangement in permutations(_type_sequence(comp)):
        if arrangement in seen:
            continue
        seen.add(arrangement)
        tabs.append(HookTableau(n, k, tuple(comp), arrangement[:k], arrangement[k:]))
    return tabs


def redistribution_targets(t, i, fine_comp):
    """All admissible refinements of a merged-type tableau: increment the
    entries above i, then hand the merged entries out to the values i and
    i+1 in every way and resort the column.  Reference oracle for the
    out-of-wall translation targets."""
    from heckeweb.tabgroth import HookTableau, is_admissible

    ai, aj = fine_comp[i - 1], fine_comp[i]
    entries = list(t.entries())
    bumped = [e + 1 if e > i else e for e in entries]
    slots = [idx for idx, e in enumerate(bumped) if e == i]
    assert len(slots) == ai + aj
    out = set()
    for ups in combinations(slots, aj):
        filled = list(bumped)
        for idx in ups:
            filled[idx] = i + 1
        column = tuple(sorted(filled[: t.k], reverse=True))
        row = tuple(filled[t.k :])
        cand = HookTableau(t.n, t.k, tuple(fine_comp), column, row)
        if is_admissible(cand):
            out.add(cand)
    return out


def decrement_entries(t, i, merged_comp):
    """Merge the values i and i+1 of a tableau by decrementing every entry
    above i.  Reference oracle for the onto-wall translation targets: the
    target is this tableau when it is admissible, and there is none when
    it is not."""
    from heckeweb.tabgroth import HookTableau

    def dec(e):
        return e - 1 if e > i else e

    column = tuple(dec(e) for e in t.column)
    row = tuple(dec(e) for e in t.row)
    return HookTableau(t.n, t.k, tuple(merged_comp), column, row)


def eta_to_perm(eta, k: int) -> Permutation:
    """The shortest coset representative w with eta_min . w = eta."""
    n = len(eta)
    if sum(eta) != n - k:
        raise ValueError(f"{eta} is not in the weight space of index {k}")
    zeros = [i + 1 for i, e in enumerate(eta) if e == 0]
    ones = [i + 1 for i, e in enumerate(eta) if e == 1]
    # the zero slots of eta receive the values 1..k in increasing order
    one_line = [0] * n
    for val, pos in zip(range(1, k + 1), zeros):
        one_line[pos - 1] = val
    for val, pos in zip(range(k + 1, n + 1), ones):
        one_line[pos - 1] = val
    return Permutation(tuple(one_line))
