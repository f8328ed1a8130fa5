"""Independent reference computations used only by the tests."""

from functools import cache
from itertools import combinations
from math import factorial, gcd

from heckeweb.qarith import LaurentPoly, RationalFunction
from heckeweb.symgrp import (
    ParabolicSubgroup,
    Permutation,
    all_permutations,
    is_shortest_rep,
)
from heckeweb import hecke, inducedmod, tabgroth, uqrep
from heckeweb.uqrep import composition


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
    if is_shortest_rep(wsi, mod.parabolic_pq()):
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


@cache
def canonical_basis_by_products(mod, w: Permutation):
    """The canonical element of N_w by module arithmetic: C_{w s_i} . H_i
    + q C_{w s_i} for the last descent i of w, minus m C_y for each
    constant term m at a label y != w, highest y first."""
    descents = w.right_descents()
    if not descents:
        return mod.standard(w)
    i = descents[-1]
    shorter = canonical_basis_by_products(mod, w.times_simple(i))
    result = shorter.act_generator(i) + shorter.scale(LaurentPoly.q(1))
    corrections = [
        y for y, c in result.permutation_support().items() if y != w and c.terms.get(0, 0) != 0
    ]
    corrections.sort(key=lambda y: (y.length(), y.one_line), reverse=True)
    for y in corrections:
        m = result.coeff(y).terms.get(0, 0)
        if m:
            result = result - canonical_basis_by_products(mod, y).scale(m)
    return result


@cache
def canonical_basis_element_by_accumulate(mod, w: Permutation):
    """The canonical element of N_w by the integer-dict kernel: C_{w s_i} .
    (H_i + q) through the step table on {label: {exponent: int}} dicts,
    corrected by m C_y for each constant term m at a label y != w, each
    coefficient sorted and interned, then checked by
    SparseVector.check_unitriangular."""
    code = inducedmod._index(mod, w)
    descents = w.right_descents()
    if not descents:
        return inducedmod.ModuleElement(mod, {w: inducedmod._coefficient(((0, 1),))})
    i = descents[-1]
    shorter = canonical_basis_element_by_accumulate(mod, w.times_simple(i))
    table = inducedmod._step_table(mod, i, inducedmod._H_PLUS_Q)
    work = inducedmod._accumulate({}, ((c.terms, table[y]) for y, c in shorter.support.items()))
    for y, m in [(y, poly[0]) for y, poly in work.items() if poly.get(0) and y != code]:
        lower = canonical_basis_element_by_accumulate(mod, inducedmod._permutation(mod.n, y))
        inducedmod._accumulate(work, ((c.terms, ((z, 0, -m),)) for z, c in lower.support.items()))
    support = {}
    for y, poly in work.items():
        terms = tuple(sorted(item for item in poly.items() if item[1]))
        if terms:
            support[y] = inducedmod._coefficient(terms)
    result = inducedmod.ModuleElement._of(mod, support)
    result.check_unitriangular(w)
    return result


@cache
def canonical_basis_by_step(mod, code: int):
    """The canonical element at the label code by the canonical step alone,
    for every module and every label: C_{w s_i} . (H_i + q) on shared
    values for the last descent i of w, one memo-of-sums lookup per step
    term, corrected by m C_y for each constant term m at a label y != w,
    then checked by SparseVector.check_unitriangular.  The production
    route steps the first descent one coset {y, y s_i} at a time and reads
    most of the regular module's elements off a computed symmetric one."""
    n = mod.n
    i = max(inducedmod._permutation(n, code).right_descents(), default=0)
    if not i:
        return inducedmod.ModuleElement._of(mod, {code: inducedmod._coefficient(((0, 1),))})
    shorter = canonical_basis_by_step(mod, inducedmod._times_simple(code, i, n.bit_length()))
    table = inducedmod._step_table(mod, i, inducedmod._H_PLUS_Q)
    zero = inducedmod._coefficient(())
    work = {}

    def add(label, c, shift, coeff):
        a = work.get(label, zero)
        key = (id(a), id(c), shift, coeff)
        sums = inducedmod._sums()
        work[label] = (sums.get(key) or inducedmod._add(sums, a, c, shift, coeff))[0]

    for y, c in shorter.support.items():
        for target, shift, coeff in table[y]:
            add(target, c, shift, coeff)
    for y, m in [(y, a.terms[0]) for y, a in work.items() if 0 in a.terms and y != code]:
        for z, c in canonical_basis_by_step(mod, y).support.items():
            add(z, c, 0, -m)
    result = inducedmod.ModuleElement._of(mod, {y: a for y, a in work.items() if a.terms})
    result.check_unitriangular(inducedmod._permutation(n, code))
    return result


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


# -- LaurentPoly-level gcd and normal form of a fraction -----------------


def primitive(p: LaurentPoly) -> LaurentPoly:
    c = p.content()
    if c in (0, 1):
        return p
    return LaurentPoly({e: v // c for e, v in p.terms.items()})


def pseudo_rem(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Pseudo-remainder of a by b, both ordinary polynomials."""
    db = b.max_exp()
    lead_b = b.terms[b.max_exp()]
    r = a
    while not r.is_zero() and r.max_exp() >= db:
        k = r.max_exp() - db
        r = r * lead_b - b * LaurentPoly.q(k, r.terms[r.max_exp()])
    return r


def poly_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Gcd in Z[q] of two nonzero polynomials with valuation 0, positive
    leading coefficient, times the gcd of their contents."""
    g = gcd(a.content(), b.content())
    a, b = primitive(a), primitive(b)
    while not b.is_zero():
        a, b = b, primitive(pseudo_rem(a, b))
    if a.terms[a.max_exp()] < 0:
        a = -a
    return a * g


def divexact(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """a / b by long division on dicts; ValueError if it is not exact."""
    if b.is_zero():
        raise ZeroDivisionError("division by zero Laurent polynomial")
    if a.is_zero():
        return LaurentPoly.zero()
    shift = a.min_exp() - b.min_exp()
    num = dict(a.shift(-a.min_exp()).terms)
    den = b.shift(-b.min_exp()).terms
    dmax = max(den)
    out = {}
    while num:
        nmax = max(num)
        if nmax < dmax:
            raise ValueError("inexact Laurent division")
        c, r = divmod(num[nmax], den[dmax])
        if r:
            raise ValueError("inexact Laurent division")
        out[nmax - dmax] = c
        for de, dc in den.items():
            k = de + nmax - dmax
            v = num.get(k, 0) - dc * c
            if v:
                num[k] = v
            else:
                num.pop(k, None)
    return LaurentPoly(out).shift(shift)


def fraction_normal_form(num: LaurentPoly, den: LaurentPoly) -> tuple:
    """(numerator, denominator) of num/den reduced: the denominator a
    polynomial with nonzero constant term and positive leading
    coefficient, the gcd and the shared content cancelled."""
    vn, vd = num.min_exp(), den.min_exp()
    p, d = num.shift(-vn), den.shift(-vd)
    g = poly_gcd(p, d)
    p, d = divexact(p, g), divexact(d, g)
    if d.terms[d.max_exp()] < 0:
        p, d = -p, -d
    return p.shift(vn - vd), d


# -- module operations term by term, through SparseVector.from_terms -----


def act_generator_by_terms(x, i: int):
    """x . H_i by the four-case rule, one LaurentPoly product per term."""
    mod = x.parent
    Q = LaurentPoly.q
    terms = []
    for w, c in x.permutation_support().items():
        case = inducedmod._case(mod, inducedmod._encode(w), i)
        if case == inducedmod._SIGN:
            terms.append((w, c * -Q(1)))
        elif case == inducedmod._TRIVIAL:
            terms.append((w, c * Q(-1)))
        else:
            terms.append((w.times_simple(i), c))
            if case == inducedmod._FALLING:
                terms.append((w, c * (Q(-1) - Q(1))))
    return x.from_terms(mod, terms)


def act_hecke(x, h):
    """x . h for a Hecke algebra element h, through the reduced word of
    each H_w."""
    if h.parent.n != x.parent.n:
        raise ValueError("Hecke element size mismatch")
    terms = []
    for w, c in h.permutation_support().items():
        piece = x
        for i in w.reduced_word():
            piece = piece.act_generator(i)
        terms.extend((k, v * c) for k, v in piece.permutation_support().items())
    return x.from_terms(x.parent, terms)


@cache
def generator_times_by_terms(mod, w: Permutation):
    """N_e . H_w along the reduced word ending in the last descent of w."""
    descents = w.right_descents()
    if not descents:
        return mod.generator()
    i = descents[-1]
    return act_generator_by_terms(generator_times_by_terms(mod, w.times_simple(i)), i)


@cache
def bar_of_standard_by_terms(mod, w: Permutation):
    """bar(N_w) = N_e . H_{i1}^-1 ... H_{ik}^-1, H_i^-1 = H_i + q - q^-1."""
    descents = w.right_descents()
    if not descents:
        return mod.generator()
    i = descents[-1]
    x = bar_of_standard_by_terms(mod, w.times_simple(i))
    return act_generator_by_terms(x, i) + x.scale(LaurentPoly.q(1) - LaurentPoly.q(-1))


def bar_by_terms(x):
    mod = x.parent
    return x.from_terms(mod, (
        (k, v * c.bar())
        for w, c in x.permutation_support().items()
        for k, v in bar_of_standard_by_terms(mod, w).permutation_support().items()
    ))


def push_forward_by_terms(dst, x):
    """sum_w c_w N_e . H_w in dst."""
    return inducedmod.ModuleElement.from_terms(dst, (
        (k, v * c)
        for w, c in x.permutation_support().items()
        for k, v in generator_times_by_terms(dst, w).permutation_support().items()
    ))


def _reps_inside(outer, inner_gens):
    inner = ParabolicSubgroup(outer.n, frozenset(inner_gens))
    return [(r, r.length()) for r in outer.elements() if is_shortest_rep(r, inner)]


def map_i_by_terms(src, dst, x):
    reps = _reps_inside(src.parabolic_q(), dst.q_gens)
    top = max(length for _, length in reps)
    return inducedmod.ModuleElement.from_terms(dst, (
        (r * w, c * LaurentPoly.q(top - length))
        for w, c in x.permutation_support().items()
        for r, length in reps
    ))


def map_Q_by_terms(src, dst, x):
    reps = _reps_inside(dst.parabolic_q(), src.q_gens)
    top = max(length for _, length in reps)
    c_norm = LaurentPoly.zero()
    for _, length in reps:
        c_norm = c_norm + LaurentPoly.q(top - 2 * length)
    return push_forward_by_terms(dst, x).scale(1 / c_norm)


def map_j_by_terms(src, dst, x):
    reps = _reps_inside(src.parabolic_p(), dst.p_gens)
    return inducedmod.ModuleElement.from_terms(dst, (
        (r * w, c * LaurentPoly.q(length, (-1) ** length))
        for w, c in x.permutation_support().items()
        for r, length in reps
    ))


def map_z_by_terms(src, dst, x):
    return push_forward_by_terms(dst, x)


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

    seen = set()
    tabs = []
    for arrangement in permutations(_type_sequence(comp)):
        if arrangement in seen:
            continue
        seen.add(arrangement)
        tabs.append(HookTableau(tuple(comp), arrangement[:k], arrangement[k:]))
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
    k = len(t.column)
    out = set()
    for ups in combinations(slots, aj):
        filled = list(bumped)
        for idx in ups:
            filled[idx] = i + 1
        column = tuple(sorted(filled[:k], reverse=True))
        row = tuple(filled[k:])
        cand = HookTableau(tuple(fine_comp), column, row)
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
    return HookTableau(tuple(merged_comp), column, row)


def enumerate_lambda(comp, k: int) -> list[Permutation]:
    """Index permutations of the classes at weight k, increasing order."""
    perms = [tabgroth.index_perm(comp, eta) for eta in uqrep.weight_etas(comp, k)]
    perms.sort(key=lambda w: (w.length(), w.one_line))
    return perms


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


# -- parabolic cosets: the paper's factorization lemmas ---------------------


def parabolic_order(p: ParabolicSubgroup) -> int:
    size = 1
    for b in p.blocks():
        size *= factorial(len(b))
    return size


def parabolic_contains(p: ParabolicSubgroup, w: Permutation) -> bool:
    if w.n != p.n:
        return False
    for block in p.blocks():
        lo, hi = block[0], block[-1]
        if any(not lo <= w(pos) <= hi for pos in block):
            return False
    return True


def parabolic_longest_element(p: ParabolicSubgroup) -> Permutation:
    base = list(range(1, p.n + 1))
    for block in p.blocks():
        for k, pos in enumerate(block):
            base[pos - 1] = block[-1] - k
    return Permutation(tuple(base))


def is_shortest_right_rep(w: Permutation, p: ParabolicSubgroup) -> bool:
    """Shortest representative of the coset w W_p."""
    return all(w(i) < w(i + 1) for i in p.generators)


def shortest_right_coset_reps(p: ParabolicSubgroup) -> list[Permutation]:
    """Shortest coset representatives for S_n/W_p."""
    return [w for w in all_permutations(p.n) if is_shortest_right_rep(w, p)]


def longest_coset_reps(p: ParabolicSubgroup) -> list[Permutation]:
    """Longest coset representatives for W_p\\S_n."""
    return [
        w for w in all_permutations(p.n)
        if all(w.inverse()(i) > w.inverse()(i + 1) for i in p.generators)
    ]


def shortest_rep_of_coset(w: Permutation, p: ParabolicSubgroup, side: str = "right") -> Permutation:
    """The shortest element of w W_p (side="right") or W_p w (side="left")."""
    if side == "right":
        word = list(w.one_line)
        for block in p.blocks():
            vals = sorted(word[block[0] - 1 : block[-1]])
            word[block[0] - 1 : block[-1]] = vals
        return Permutation(tuple(word))
    if side == "left":
        return shortest_rep_of_coset(w.inverse(), p, side="right").inverse()
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def factor_through_wall(
    w: Permutation, lam: ParabolicSubgroup, mu: ParabolicSubgroup
) -> tuple[Permutation, Permutation]:
    """Factor w = w' x with w' shortest for S_n/S_mu and x in S_mu shortest
    for S_mu/S_lam, with additive lengths.  Requires S_lam <= S_mu and w a
    shortest representative for S_n/S_lam."""
    if not lam.generators <= mu.generators:
        raise ValueError("inner parabolic is not contained in the outer one")
    if not is_shortest_right_rep(w, lam):
        raise ValueError(f"{w} is not a shortest coset representative for S_n/S_lam")
    wp = shortest_rep_of_coset(w, mu, side="right")
    x = wp.inverse() * w
    assert parabolic_contains(mu, x)
    assert is_shortest_right_rep(x, lam)
    assert w.length() == wp.length() + x.length()
    return wp, x


def longest_quotient_rep(mu: ParabolicSubgroup, lam: ParabolicSubgroup) -> Permutation:
    """Longest element of (S_mu/S_lam)^short, namely w_mu w_lam."""
    if not lam.generators <= mu.generators:
        raise ValueError("inner parabolic is not contained in the outer one")
    return parabolic_longest_element(mu) * parabolic_longest_element(lam)


def lambda_set(n: int, p_gens, q_gens, lam_gens) -> list[Permutation]:
    """The index set of shortest representatives w for S_n/S_lam with
    w S_lam inside W^p and w S_lam meeting the longest representatives
    of W_q\\S_n, sorted by (length, one-line word)."""
    p = ParabolicSubgroup.of(n, p_gens)
    q = ParabolicSubgroup.of(n, q_gens)
    lam = ParabolicSubgroup.of(n, lam_gens)
    lam_elements = lam.elements()
    out = []
    for w in shortest_right_coset_reps(lam):
        coset = [w * y for y in lam_elements]
        if not all(is_shortest_rep(u, p) for u in coset):
            continue
        wi_longest = lambda u: all(u.inverse()(i) > u.inverse()(i + 1) for i in q.generators)
        if not any(wi_longest(u) for u in coset):
            continue
        out.append(w)
    out.sort(key=lambda w: (w.length(), w.one_line))
    return out


def lemma10_completion(
    w: Permutation,
    q: ParabolicSubgroup,
    p: ParabolicSubgroup,
    lam_gens=(),
) -> Permutation:
    """The unique x in W_q with x w in the lambda set for (p, q) and
    additive lengths l(xw) = l(x) + l(w)."""
    members = set(lambda_set(w.n, p.generators, q.generators, lam_gens))
    found = None
    for x in q.elements():
        xw = x * w
        if xw in members and xw.length() == x.length() + w.length():
            if found is not None:
                raise ValueError(f"completion of {w} is not unique")
            found = x
    if found is None:
        raise ValueError(f"no completion of {w} inside W_q = {q}")
    return found


# -- tableaux as permuted boxes ----------------------------------------------


def comp_parabolic(comp) -> ParabolicSubgroup:
    """The stabilizer of the minimal tableau: block subgroup of type comp."""
    comp = composition(comp)
    n = sum(comp)
    gens = set(range(1, n))
    total = 0
    for a in comp[:-1]:
        total += a
        gens.discard(total)
    return ParabolicSubgroup.of(n, gens)


def minimal_tableau(comp, k: int):
    comp = composition(comp)
    n = sum(comp)
    if not 0 <= k <= n:
        raise ValueError(f"hook parameter k={k} out of range for n={n}")
    seq = tabgroth._type_sequence(comp)
    return tabgroth.HookTableau(comp, seq[:k], seq[k:])


def tableau_from_perm(w: Permutation, comp, k: int):
    """T(box b) = minimal entry at box w^-1(b)."""
    comp = composition(comp)
    n = sum(comp)
    if w.n != n:
        raise ValueError(f"permutation size {w.n} does not match n={n}")
    if not is_shortest_right_rep(w, comp_parabolic(comp)):
        raise ValueError(f"{w} is not a shortest representative for the type stabilizer")
    seq = tabgroth._type_sequence(comp)
    wi = w.inverse()
    entries = tuple(seq[wi(b) - 1] for b in range(1, n + 1))
    return tabgroth.HookTableau(comp, entries[:k], entries[k:])


def act_on_tableau(w: Permutation, t):
    """Left action permuting boxes: (w.T)(b) = T(w^-1(b))."""
    wi = w.inverse()
    entries = t.entries()
    k = len(t.column)
    moved = tuple(entries[wi(b) - 1] for b in range(1, len(entries) + 1))
    return tabgroth.HookTableau(t.comp, moved[:k], moved[k:])


def eta_of_tableau(t) -> tuple[int, ...]:
    """1 at the values appearing in the row."""
    in_row = set(t.row)
    return tuple(1 if value in in_row else 0 for value in range(1, len(t.comp) + 1))


# -- translations through y_0, as the paper states them ----------------------


def translate_projective_by_y0(comp, i: int, k: int, w: Permutation):
    """The projective indexed by w y_0 on the finer type, y_0 the longest
    element of (S_merged / S_comp)^short."""
    comp = composition(comp)
    tabgroth.check_weight(comp, k)
    merged = uqrep.merged_type(comp, i)
    if tabgroth.class_eta(w, merged, k) is None:
        raise ValueError(f"{w} indexes no class of the merged type at weight {k}")
    y0 = longest_quotient_rep(comp_parabolic(merged), comp_parabolic(comp))
    return tabgroth.class_vector(comp, tabgroth.class_eta(w * y0, comp, k), "projective")


def translate_simple_by_y0(comp, i: int, k: int, w: Permutation):
    """q^(-l(y_0)) times the simple at z when w = z y_0 reduces through
    the wall, else zero."""
    comp = composition(comp)
    tabgroth.check_weight(comp, k)
    merged = uqrep.merged_type(comp, i)
    if tabgroth.class_eta(w, comp, k) is None:
        raise ValueError(f"{w} indexes no class of type {comp} at weight {k}")
    y0 = longest_quotient_rep(comp_parabolic(merged), comp_parabolic(comp))
    z = w * y0.inverse()
    if w.length() != z.length() + y0.length():
        return uqrep.zero_vector(merged)
    eta_z = tabgroth.class_eta(z, merged, k)
    if eta_z is None:
        return uqrep.zero_vector(merged)
    return uqrep.dual_canonical(merged, eta_z).scale(LaurentPoly.q(-y0.length()))
