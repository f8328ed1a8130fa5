"""Desk-scale verification battery.

Every check recomputes an identity by two routes, or validates a frozen
hand-derived value, in exact arithmetic.  A check raises CheckFailure
with a pinpointed message; success returns None.  The command line
exposes these as named suites, and the acceptance tests drive the same
functions with the documented size bounds.
"""

from __future__ import annotations

from itertools import product

from .qarith import (
    LaurentPoly,
    quantum_binom,
    quantum_factorial,
    quantum_factorial0,
    quantum_int,
)
from .symgrp import (
    ParabolicSubgroup,
    Permutation,
    all_permutations,
    is_shortest_rep,
)
from . import hecke, inducedmod, uqrep, webcat, tabgroth

__all__ = ["CheckFailure", "SUITES", "run_suite", "compositions_of"]

_Q = LaurentPoly.q


class CheckFailure(AssertionError):
    pass


def _require(cond: bool, msg) -> None:
    """Raise CheckFailure(msg()) unless cond: only a failure formats its message."""
    if not cond:
        raise CheckFailure(msg())


def compositions_of(n: int):
    """All compositions of n, in lexicographic-by-first-part order."""
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in compositions_of(n - first):
            yield (first,) + rest


# -- criterion 1: example fidelity ----------------------------------------


def check_examples(max_n: int = 4) -> None:
    c01 = uqrep.canonical_basis((1, 1), (0, 1))
    _require(
        c01 == uqrep.standard_vector((1, 1), (0, 1)),
        lambda: f"canonical (1,1)/01 is {c01}",
    )
    c10 = uqrep.canonical_basis((1, 1), (1, 0))
    want = uqrep.standard_vector((1, 1), (1, 0)) + uqrep.standard_vector(
        (1, 1), (0, 1)
    ).scale(_Q(1))
    _require(c10 == want, lambda: f"canonical (1,1)/10 is {c10}")

    comp = (3, 1, 4, 4, 2, 1, 1)
    eta = (0, 1, 0, 0, 1, 0, 1)
    expected = {
        (0, 1, 0, 0, 1, 0, 1): 0,
        (0, 0, 1, 0, 1, 0, 1): 1,
        (0, 0, 0, 1, 1, 0, 1): 5,
        (0, 1, 0, 0, 0, 1, 1): 2,
        (0, 0, 1, 0, 0, 1, 1): 3,
        (0, 0, 0, 1, 0, 1, 1): 7,
    }
    cb = uqrep.canonical_basis(comp, eta)
    _require(
        len(cb.support) == len(expected), lambda: f"six-term expansion has {len(cb.support)} terms"
    )
    for gamma, exp in expected.items():
        _require(
            cb.coeff(gamma) == _Q(exp),
            lambda: f"coefficient at {gamma} is {cb.coeff(gamma)}, wanted q^{exp}",
        )


# -- criterion 2: canonical basis vs brute-force solver --------------------


def kl_bruteforce(w: Permutation) -> hecke.HeckeElement:
    """Solve the bar-invariant unitriangular system directly: process the
    Bruhat interval below w from the top, reading each coefficient off
    its antisymmetrized defect.  Independent of the multiply-and-correct
    construction."""
    n = w.n
    elems = [v for v in all_permutations(n) if v.bruhat_leq(w)]
    bar_mat = {v: hecke.bar(hecke.standard_basis_element(v)) for v in elems}
    coeffs: dict[Permutation, LaurentPoly] = {w: LaurentPoly.one()}
    for y in sorted(elems, key=lambda v: (v.length(), v.one_line), reverse=True):
        if y == w:
            continue
        rhs = LaurentPoly.zero()
        for v, p_v in coeffs.items():
            rhs = rhs + p_v.bar() * bar_mat[v].coeff(y)
        _require(
            rhs.bar() == -rhs, lambda: f"defect at {y} below {w} is not antisymmetric: {rhs}"
        )
        coeffs[y] = LaurentPoly({e: c for e, c in rhs.terms.items() if e > 0})
    support = {v: p for v, p in coeffs.items() if not p.is_zero()}
    out = hecke.HeckeElement(inducedmod.InducedModule.of(n), support)
    _require(hecke.bar(out) == out, lambda: f"brute-force element at {w} is not bar invariant")
    return out


def check_hecke(max_n: int = 4) -> None:
    for n in range(1, max_n + 1):
        for w in all_permutations(n):
            mine = hecke.kl_basis_element(w)
            brute = kl_bruteforce(w)
            _require(mine == brute, lambda: f"canonical basis mismatch at {w} in S_{n}")


# -- criterion 3: induced module maps --------------------------------------


def _commuting_pairs(n: int):
    gens = list(range(1, n))
    for bits_p in range(1 << len(gens)):
        p = frozenset(g for j, g in enumerate(gens) if bits_p >> j & 1)
        allowed = [g for g in gens if all(abs(g - h) >= 2 for h in p)]
        for bits_q in range(1 << len(allowed)):
            q = frozenset(g for j, g in enumerate(allowed) if bits_q >> j & 1)
            yield p, q


def _subsets(s: frozenset):
    items = sorted(s)
    for bits in range(1 << len(items)):
        yield frozenset(g for j, g in enumerate(items) if bits >> j & 1)


def _longest_rep_between(n: int, outer: frozenset, inner: frozenset) -> Permutation:
    big = ParabolicSubgroup.of(n, outer)
    small = ParabolicSubgroup.of(n, inner)
    reps = [x for x in big.elements() if is_shortest_rep(x, small)]
    return max(reps, key=lambda x: x.length())


def _standard_images(mod) -> list:
    """(w, N_w, [N_w . H_i for i = 1, ..., n-1], bar(N_w)) for each basis
    index w of mod: each operand is built once for every identity that
    compares it."""
    images = []
    for w in mod.basis_index():
        x = mod.standard(w)
        images.append((w, x, [x.act_generator(i) for i in range(1, mod.n)], x.bar()))
    return images


def _require_equivariant(name, fmap, src, dst, w, moved, img) -> None:
    """fmap(src, dst, x . H_i) == img . H_i for every generator H_i, where
    moved lists the x . H_i, img is fmap(src, dst, x) and x is N_w."""
    for i, x_i in enumerate(moved, start=1):
        _require(
            fmap(src, dst, x_i) == img.act_generator(i),
            lambda: f"{name} not equivariant at {src}->{dst}, w={w}, i={i}",
        )


def _require_bar_compatible(name, fmap, src, dst, w, x_bar, img) -> None:
    """fmap(src, dst, bar(x)) == bar(img), where x_bar is bar(x) and img
    is fmap(src, dst, x)."""
    _require(
        fmap(src, dst, x_bar) == img.bar(),
        lambda: f"{name} does not commute with bar at {src}->{dst}, w={w}",
    )


def check_induced_maps(max_n: int = 4) -> None:
    """The four maps between every two modules whose walls are nested:
    i and Q along a trivial wall, j and z along a sign wall.  The pairs
    are grouped by their module with the shrunk wall, which has the
    larger basis: its standard images are built once for all its pairs,
    the other module's once per pair, so at most two modules' images are
    held at a time."""
    for n in range(2, max_n + 1):
        walls = list(_commuting_pairs(n))
        for p_gens, q_gens in walls:
            dst = inducedmod.InducedModule.of(n, p_gens, q_gens)
            dst_images = _standard_images(dst)
            for p, q in walls:
                if p == p_gens and q_gens <= q:
                    _check_trivial_wall(inducedmod.InducedModule.of(n, p, q), dst, dst_images)
            for p, q in walls:
                if q == q_gens and p_gens <= p:
                    _check_sign_wall(inducedmod.InducedModule.of(n, p, q), dst, dst_images)


def _check_trivial_wall(mod, dst, dst_images) -> None:
    """i from mod to dst, which has the same sign wall and a trivial wall
    inside mod's, and Q back; dst_images are dst's standard images."""
    n = mod.n
    mod_images = dst_images if mod == dst else _standard_images(mod)
    included = []  # i(N_w) for each w of mod's basis, in order
    for w, x, moved, x_bar in mod_images:
        img = inducedmod.map_i(mod, dst, x)
        included.append(img)
        back = inducedmod.map_Q(dst, mod, img)
        _require(back == x, lambda: f"Q(i(N_{w})) != N_{w} on {mod} -> {dst}")
        _require_equivariant("i", inducedmod.map_i, mod, dst, w, moved, img)
        _require_bar_compatible("i", inducedmod.map_i, mod, dst, w, x_bar, img)
    for w, x, moved, _ in dst_images:
        img = inducedmod.map_Q(dst, mod, x)
        _require_equivariant("Q", inducedmod.map_Q, dst, mod, w, moved, img)
    # canonical transport
    top = _longest_rep_between(n, mod.q_gens, dst.q_gens)
    for w, *_ in mod_images:
        img = inducedmod.map_i(mod, dst, inducedmod.canonical_basis_element(mod, w))
        want = inducedmod.canonical_basis_element(dst, top * w)
        _require(
            img == want,
            lambda: f"i(canonical {w}) != canonical {top * w} at {mod}->{dst}",
        )
    # naturality through intermediate walls
    for q_mid in _subsets(mod.q_gens):
        if not dst.q_gens <= q_mid:
            continue
        mid = inducedmod.InducedModule.of(n, mod.p_gens, q_mid)
        for (w, x, *_), once in zip(mod_images, included):
            twice = inducedmod.map_i(mid, dst, inducedmod.map_i(mod, mid, x))
            _require(
                once == twice,
                lambda: f"naturality fails {mod}->{mid}->{dst} at {w}",
            )


def _check_sign_wall(mod, dst, dst_images) -> None:
    """j from mod to dst, which has the same trivial wall and a sign wall
    inside mod's, and z back; dst_images are dst's standard images."""
    n = mod.n
    mod_images = dst_images if mod == dst else _standard_images(mod)
    scale = LaurentPoly.zero()
    big = ParabolicSubgroup.of(n, mod.p_gens)
    small = ParabolicSubgroup.of(n, dst.p_gens)
    for x_elt in big.elements():
        if is_shortest_rep(x_elt, small):
            scale = scale + _Q(2 * x_elt.length())
    for w, x, moved, _ in mod_images:
        img = inducedmod.map_j(mod, dst, x)
        back = inducedmod.map_z(dst, mod, img)
        _require(
            back == x.scale(scale),
            lambda: f"z(j(N_{w})) != scale * N_{w} on {mod} -> {dst}",
        )
        _require_equivariant("j", inducedmod.map_j, mod, dst, w, moved, img)
    basis = {w for w, *_ in mod_images}
    for w, x, moved, x_bar in dst_images:
        img = inducedmod.map_z(dst, mod, x)
        _require_equivariant("z", inducedmod.map_z, dst, mod, w, moved, img)
        _require_bar_compatible("z", inducedmod.map_z, dst, mod, w, x_bar, img)
        cb = inducedmod.canonical_basis_element(dst, w)
        img_cb = inducedmod.map_z(dst, mod, cb)
        if w in basis:
            _require(
                img_cb == inducedmod.canonical_basis_element(mod, w),
                lambda: f"z(canonical {w}) wrong at {dst}->{mod}",
            )
        else:
            _require(
                img_cb.is_zero(),
                lambda: f"z(canonical {w}) nonzero at {dst}->{mod}",
            )


# -- criterion 4: representation identities --------------------------------


def check_rep_identities(max_n: int = 5) -> None:
    for n in range(1, max_n + 1):
        for comp in compositions_of(n):
            for eta in product((0, 1), repeat=len(comp)):
                v = uqrep.standard_vector(comp, eta)
                _require(uqrep.act_E(uqrep.act_E(v)).is_zero(), lambda: f"E^2 != 0 on {comp}")
                _require(uqrep.act_F(uqrep.act_F(v)).is_zero(), lambda: f"F^2 != 0 on {comp}")
                anti = uqrep.act_E(uqrep.act_F(v)) + uqrep.act_F(uqrep.act_E(v))
                _require(
                    anti == v.scale(quantum_int(n)),
                    lambda: f"EF+FE != [n] id on {comp} at {eta}",
                )
    for a in range(1, 5):
        for b in range(1, 5):
            comp = (a, b)
            merged = (a + b,)
            for eta in product((0, 1), repeat=2):
                v = uqrep.standard_vector(comp, eta)
                for act in (uqrep.act_E, uqrep.act_F, uqrep.act_K):
                    _require(
                        act(uqrep.phi_merge(v, 1)) == uqrep.phi_merge(act(v), 1),
                        lambda: f"merge not equivariant for {act.__name__} at {comp} {eta}",
                    )
            for eta in product((0, 1), repeat=1):
                v = uqrep.standard_vector(merged, eta)
                for act in (uqrep.act_E, uqrep.act_F, uqrep.act_K):
                    _require(
                        act(uqrep.phi_split(v, 1, a, b))
                        == uqrep.phi_split(act(v), 1, a, b),
                        lambda: f"split not equivariant for {act.__name__} at {merged} {eta}",
                    )
                loop = uqrep.phi_merge(uqrep.phi_split(v, 1, a, b), 1)
                _require(
                    loop == v.scale(quantum_binom(a + b, a)),
                    lambda: f"merge(split) != binomial at a={a}, b={b}",
                )
    for a in range(1, 4):
        for b in range(1, 4):
            for eta in product((0, 1), repeat=2):
                for gamma in product((0, 1), repeat=1):
                    v = uqrep.standard_vector((a, b), eta)
                    vp = uqrep.standard_vector((a + b,), gamma)
                    lhs = uqrep.bilinear_form(uqrep.phi_merge(v, 1), vp)
                    rhs = uqrep.bilinear_form(
                        v, uqrep.phi_split(vp, 1, a, b).scale(_Q(-a * b))
                    )
                    _require(
                        lhs == rhs, lambda: f"pairing adjunction fails a={a} b={b} {eta} {gamma}"
                    )
    for n in range(1, min(max_n, 4) + 1):
        for comp in compositions_of(n):
            etas = list(product((0, 1), repeat=len(comp)))
            vs = [uqrep.standard_vector(comp, eta) for eta in etas]
            # F v and E' w once per vector, for every pair that pairs them
            lowered = [uqrep.act_F(v) for v in vs]
            raised = [uqrep.act_Eprime(w) for w in vs]
            for eta, v, f_v in zip(etas, vs, lowered):
                for gamma, w, e_w in zip(etas, vs, raised):
                    _require(
                        uqrep.bilinear_form(f_v, w) == uqrep.bilinear_form(v, e_w),
                        lambda: f"F/E' adjunction fails on {comp} at {eta},{gamma}",
                    )


# -- criterion 5: Hecke generators and their quotient relations ------------


def check_schur_weyl_stl(max_n: int = 5) -> None:
    two = _Q(1) + _Q(-1)
    for n in range(2, max_n + 1):
        comp = (1,) * n
        basis = [uqrep.standard_vector(comp, eta) for eta in product((0, 1), repeat=n)]

        for v in basis:
            for i in range(1, n):
                h = uqrep.schur_weyl_H(v, i)
                hh = uqrep.schur_weyl_H(h, i)
                _require(
                    hh == h.scale(_Q(-1) - _Q(1)) + v,
                    lambda: f"quadratic relation fails at n={n}, i={i}",
                )
                c = uqrep.stl_C(v, i)
                _require(
                    uqrep.stl_C(c, i) == c.scale(two),
                    lambda: f"idempotent-like relation fails at n={n}, i={i}",
                )
            for i in range(1, n - 1):
                a = uqrep.schur_weyl_H(uqrep.schur_weyl_H(uqrep.schur_weyl_H(v, i), i + 1), i)
                b = uqrep.schur_weyl_H(uqrep.schur_weyl_H(uqrep.schur_weyl_H(v, i + 1), i), i + 1)
                _require(a == b, lambda: f"braid relation fails at n={n}, i={i}")
                c, d = uqrep.stl_C(v, i), uqrep.stl_C(v, i + 1)
                lhs = uqrep.stl_C(uqrep.stl_C(c, i + 1), i) - c
                rhs = uqrep.stl_C(uqrep.stl_C(d, i), i + 1) - d
                _require(lhs == rhs, lambda: f"hexagon relation fails at n={n}, i={i}")
            for i in range(1, n):
                for j in range(i + 2, n):
                    _require(
                        uqrep.stl_C(uqrep.stl_C(v, i), j) == uqrep.stl_C(uqrep.stl_C(v, j), i),
                        lambda: f"distant commutation fails at n={n}, {i},{j}",
                    )
            for i in range(2, n - 1):
                w1 = uqrep.stl_C(uqrep.stl_C(uqrep.stl_C(v, i - 1), i + 1), i)
                w1 = w1.scale(two) - uqrep.stl_C(w1, i - 1)
                w1 = w1.scale(two) - uqrep.stl_C(w1, i + 1)
                _require(w1.is_zero(), lambda: f"first degree-5 relation fails at n={n}, i={i}")
                w2 = v.scale(two) - uqrep.stl_C(v, i - 1)
                w2 = w2.scale(two) - uqrep.stl_C(w2, i + 1)
                w2 = uqrep.stl_C(uqrep.stl_C(uqrep.stl_C(w2, i), i - 1), i + 1)
                _require(w2.is_zero(), lambda: f"second degree-5 relation fails at n={n}, i={i}")


# -- criterion 6: web relations and the labeling oracle --------------------


def check_web_relations(max_n: int = 5) -> None:
    for a in range(1, max_n):
        for b in range(1, max_n - a + 1):
            loop = webcat.parse_word((a + b,), f"s1:{a},{b}.m1")
            scalar = quantum_binom(a + b, a)
            for eta, v in webcat.evaluate_matrix(loop).items():
                _require(
                    v == uqrep.standard_vector((a + b,), eta).scale(scalar),
                    lambda: f"loop relation fails a={a} b={b}",
                )
    for a in range(1, max_n - 1):
        for b in range(1, max_n - a):
            for c in range(1, max_n - a - b + 1):
                merges = [webcat.parse_word((a, b, c), word) for word in ("m1.m1", "m2.m1")]
                splits = [
                    webcat.parse_word((a + b + c,), f"s1:{a + b},{c}.s1:{a},{b}"),
                    webcat.parse_word((a + b + c,), f"s1:{a},{b + c}.s2:{b},{c}"),
                ]
                for left, right in (merges, splits):
                    _require(
                        webcat.evaluate_matrix(left) == webcat.evaluate_matrix(right),
                        lambda: f"associativity fails {a},{b},{c}",
                    )
    c1, c2, c121, c212 = (
        webcat.evaluate_matrix(webcat.parse_word((1, 1, 1), word))
        for word in ("m1.s1", "m2.s2", "m1.s1.m2.s2.m1.s1", "m2.s2.m1.s1.m2.s2")
    )
    for eta in c1:
        _require(
            c121[eta] + c2[eta] == c212[eta] + c1[eta], lambda: "three-strand relation fails"
        )
    for n in range(1, max_n + 1):
        loop = webcat.compose(webcat.merge_bundle(n), webcat.split_bundle(n))
        scalar = quantum_factorial(n)
        for eta, v in webcat.evaluate_matrix(loop).items():
            _require(
                v == uqrep.standard_vector((n,), eta).scale(scalar),
                lambda: f"bundle loop != [n]! at n={n}",
            )
    # labeling oracle against matrix composition, every elementary web
    for n in range(2, 4):
        for comp in compositions_of(n):
            webs = []
            for i in range(1, len(comp)):
                webs.append(webcat.merge_web(comp, i))
            for i, a in enumerate(comp, start=1):
                for left in range(1, a):
                    webs.append(webcat.split_web(comp, i, left, a - left))
            for web in webs:
                mat = webcat.evaluate_matrix(web)
                for bottom in product((0, 1), repeat=len(web.source)):
                    img = mat[bottom]
                    for top in product((0, 1), repeat=len(web.target)):
                        got = webcat.matrix_coefficient(
                            webcat.LabeledWebDiagram(web, bottom, top)
                        )
                        _require(
                            got == img.coeff(top),
                            lambda: f"labeling oracle differs at {web.word_str()} {bottom}->{top}",
                        )


# -- criterion 7: canonical basis triple agreement -------------------------


def check_canonical_triple(max_n: int = 4) -> None:
    for n in range(1, max_n + 1):
        comp = (1,) * n
        for k in range(0, n + 1):
            mod = inducedmod.InducedModule.of(
                n, p_gens=range(k + 1, n), q_gens=range(1, k)
            )
            for w in mod.basis_index():
                eta = uqrep.seq_act_right((0,) * k + (1,) * (n - k), w)
                bar_route = uqrep.canonical_basis_by_bar(comp, eta)
                _require(
                    uqrep.canonical_basis(comp, eta) == bar_route,
                    lambda: f"closed form differs from bar-fixing at n={n}, eta={eta}",
                )
                diagram = webcat.canonical_basis_diagram(comp, eta)
                web_route = webcat.evaluate_canonical_diagram(diagram)
                _require(
                    web_route == bar_route,
                    lambda: f"web route differs from bar-fixing at n={n}, eta={eta}",
                )
                hecke_route = uqrep.psi_iso(
                    inducedmod.canonical_basis_element(mod, w), k
                )
                _require(
                    hecke_route == bar_route,
                    lambda: f"Hecke route differs from bar-fixing at n={n}, eta={eta}",
                )
        # the dual canonical basis pairs with the canonical one to delta
        for comp in compositions_of(n):
            for k in range(n - len(comp), n + 1):
                etas = uqrep.weight_etas(comp, k)
                for h in etas:
                    c_h = uqrep.canonical_basis(comp, h)
                    for g in etas:
                        _require(
                            uqrep.bilinear_form(c_h, uqrep.dual_canonical(comp, g))
                            == (1 if h == g else 0),
                            lambda: f"dual canonical pairing fails on {comp} at {h},{g}",
                        )


# -- criterion 8: translation matrices vs webs ------------------------------


def check_theorem1(max_n: int = 5) -> None:
    for n in range(2, max_n + 1):
        for comp in compositions_of(n):
            for i in range(1, len(comp)):
                _require(
                    tabgroth.theorem1_check(comp, i),
                    lambda: f"translation/web mismatch at {comp}, position {i}",
                )


# -- criterion 9: raising/lowering on the class bases -----------------------


def check_kgroup(max_n: int = 4) -> None:
    for n in range(1, max_n + 1):
        for comp in compositions_of(n):
            lo = n - len(comp)
            zero = uqrep.zero_vector(comp)
            # lowering keeps a projective's index when slot 1 of eta is in
            # the column, moving it to the row; raising keeps a simple's
            # index when slot 1 is in the row, moving it to the column
            for k in range(lo, n):
                for eta in uqrep.weight_etas(comp, k + 1):
                    if eta[0]:
                        want = zero
                    else:
                        want = uqrep.canonical_basis(comp, (1,) + eta[1:])
                    _require(
                        uqrep.act_F(uqrep.canonical_basis(comp, eta)) == want,
                        lambda: f"lowering rule on projectives fails at {comp}, k={k}",
                    )
                for eta in uqrep.weight_etas(comp, k):
                    if eta[0]:
                        want = uqrep.dual_canonical(comp, (0,) + eta[1:])
                    else:
                        want = zero
                    _require(
                        uqrep.act_Eprime(uqrep.dual_canonical(comp, eta)) == want,
                        lambda: f"raising rule on simples fails at {comp}, k={k}",
                    )
            # squares vanish at the matrix level
            for k in range(lo, n - 1):
                for eta in uqrep.weight_etas(comp, k + 2):
                    v = uqrep.standard_vector(comp, eta)
                    _require(
                        uqrep.act_F(uqrep.act_F(v)).is_zero(),
                        lambda: f"F^2 != 0 at {comp}, k={k}",
                    )
                for eta in uqrep.weight_etas(comp, k):
                    v = uqrep.standard_vector(comp, eta)
                    _require(
                        uqrep.act_Eprime(uqrep.act_Eprime(v)).is_zero(),
                        lambda: f"E'^2 != 0 at {comp}, k={k}",
                    )
            # commutation with the wall crossings
            for i in range(1, len(comp)):
                ai, aj = comp[i - 1], comp[i]
                walls = (
                    ("merge", comp, lambda v: uqrep.phi_merge(v, i)),
                    ("split", uqrep.merged_type(comp, i), lambda v: uqrep.phi_split(v, i, ai, aj)),
                )
                for wall, src, cross in walls:
                    for eta in product((0, 1), repeat=len(src)):
                        v = uqrep.standard_vector(src, eta)
                        for name, act in (("F", uqrep.act_F), ("E'", uqrep.act_Eprime)):
                            _require(
                                cross(act(v)) == act(cross(v)),
                                lambda: f"{wall}/{name} do not commute at {comp}, i={i}, {eta}",
                            )
        # standard = [k]_0! proper standard on the regular composition
        comp = (1,) * n
        for k in range(0, n + 1):
            for eta in uqrep.weight_etas(comp, k):
                std = tabgroth.class_vector(comp, eta, "standard")
                prop = tabgroth.class_vector(comp, eta, "proper_standard")
                _require(
                    std == prop.scale(quantum_factorial0(k)),
                    lambda: f"length-of-filtration identity fails at n={n}, k={k}, eta={eta}",
                )


# -- criterion 10: hom dimensions -------------------------------------------


def check_homdim(max_n: int = 4) -> None:
    for n in range(1, max_n + 1):
        for k in range(0, n + 1):
            members = uqrep.weight_etas((1,) * n, k)
            for eta_w in members:
                for eta_z in members:
                    count = tabgroth.hom_dim(eta_w, eta_z)
                    form = tabgroth.hom_dim_form_route(eta_w, eta_z)
                    _require(
                        count == form,
                        lambda: f"diagram count {count} disagrees with the form value {form}"
                        f" at {eta_w}, {eta_z}",
                    )


# -- suite registry ----------------------------------------------------------

SUITES = {
    "examples": check_examples,
    "hecke": lambda max_n: check_hecke(min(max_n, 4)),
    "induced": lambda max_n: check_induced_maps(min(max_n, 4)),
    "adjunction": check_rep_identities,
    "stl": check_schur_weyl_stl,
    "webs": check_web_relations,
    "triple": check_canonical_triple,
    "theorem1": check_theorem1,
    "efm": check_kgroup,
    "homdim": check_homdim,
}


def run_suite(name: str, max_n: int):
    """Run one suite or all of them; returns a list of (name, error) pairs
    where error is None on success.  A size bound below 1 would check
    next to nothing, so it raises ValueError."""
    if max_n < 1:
        raise ValueError(f"size bound max_n={max_n} must be at least 1")
    names = list(SUITES) if name == "all" else [name]
    results = []
    for suite in names:
        if suite not in SUITES:
            raise ValueError(f"unknown suite {suite!r}")
        try:
            SUITES[suite](max_n)
            results.append((suite, None))
        except CheckFailure as exc:
            results.append((suite, str(exc)))
    return results
