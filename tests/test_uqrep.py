from itertools import product

import pytest

import heckeweb
from heckeweb.qarith import (
    LaurentPoly,
    quantum_binom,
    quantum_factorial0,
    quantum_int,
    quantum_int0,
    quantum_multinom0,
)
from heckeweb.symgrp import Permutation
from heckeweb import inducedmod, uqrep
from heckeweb.checks import compositions_of

from oracles import bar_right_nested, dual_canonical_by_gram, invert_matrix

Q = LaurentPoly.q


def v(comp, eta):
    return uqrep.standard_vector(comp, eta)


def all_etas(comp):
    return list(product((0, 1), repeat=len(comp)))


def test_composition_validation():
    with pytest.raises(ValueError):
        uqrep.composition((1, 0, 2))
    with pytest.raises(ValueError):
        uqrep.standard_vector((1, 1), (0, 2))


def test_single_factor_action():
    a = 3
    v0, v1 = v((a,), (0,)), v((a,), (1,))
    assert uqrep.act_E(v0).is_zero()
    assert uqrep.act_E(v1) == v0.scale(quantum_int(a))
    assert uqrep.act_F(v0) == v1
    assert uqrep.act_F(v1).is_zero()
    assert uqrep.act_K(v0) == v0.scale(Q(a))
    assert uqrep.act_qh(1, 0, v1) == v1.scale(Q(a - 1))
    assert uqrep.act_qh(0, 1, v1) == v1.scale(Q(1))


def test_comultiplied_F():
    got = uqrep.act_F(v((1, 1), (0, 0)))
    assert got == v((1, 1), (1, 0)) + v((1, 1), (0, 1)).scale(Q(1))
    assert uqrep.act_F(got).is_zero()


def test_squares_vanish_and_anticommutator():
    for n in range(1, 6):
        for comp in compositions_of(n):
            for eta in all_etas(comp):
                x = v(comp, eta)
                assert uqrep.act_E(uqrep.act_E(x)).is_zero()
                assert uqrep.act_F(uqrep.act_F(x)).is_zero()
                anti = uqrep.act_E(uqrep.act_F(x)) + uqrep.act_F(uqrep.act_E(x))
                assert anti == x.scale(quantum_int(n))


def test_phi_examples():
    for a in range(1, 4):
        for b in range(1, 4):
            assert uqrep.phi_merge(v((a, b), (1, 1)), 1).is_zero()
            split1 = uqrep.phi_split(v((a + b,), (1,)), 1, a, b)
            assert split1 == v((a, b), (1, 0)) + v((a, b), (0, 1)).scale(Q(a))
            loop = uqrep.phi_merge(split1, 1)
            assert loop == v((a + b,), (1,)).scale(quantum_binom(a + b, a))


def test_phi_equivariance():
    for a in range(1, 5):
        for b in range(1, 5):
            for eta in all_etas((a, b)):
                x = v((a, b), eta)
                for act in (uqrep.act_E, uqrep.act_F, uqrep.act_K):
                    assert act(uqrep.phi_merge(x, 1)) == uqrep.phi_merge(act(x), 1)
            for eta in all_etas((a + b,)):
                x = v((a + b,), eta)
                for act in (uqrep.act_E, uqrep.act_F, uqrep.act_K):
                    assert act(uqrep.phi_split(x, 1, a, b)) == uqrep.phi_split(
                        act(x), 1, a, b
                    )


def test_bar_two_factor_example():
    assert uqrep.bar(v((1, 1), (0, 1))) == v((1, 1), (0, 1))
    got = uqrep.bar(v((1, 1), (1, 0)))
    assert got == v((1, 1), (1, 0)) + v((1, 1), (0, 1)).scale(Q(1) - Q(-1))


def test_bar_involution_and_minimal_element():
    for n in range(1, 5):
        for comp in compositions_of(n):
            ell = len(comp)
            for k in range(0, ell + 1):
                minimal = (0,) * k + (1,) * (ell - k)
                assert uqrep.bar(v(comp, minimal)) == v(comp, minimal)
            for eta in all_etas(comp):
                x = v(comp, eta)
                assert uqrep.bar(uqrep.bar(x)) == x


def test_bar_bracketing_independence():
    for comp in [(1, 1), (1, 1, 1), (2, 1), (1, 2, 1), (2, 1, 1)]:
        for eta in all_etas(comp):
            x = v(comp, eta)
            assert uqrep.bar(x) == bar_right_nested(x)


def test_bar_commutes_with_phi():
    for comp in [(1, 1), (2, 1), (1, 1, 1), (2, 2)]:
        for i in range(1, len(comp)):
            for eta in all_etas(comp):
                x = v(comp, eta)
                assert uqrep.bar(uqrep.phi_merge(x, i)) == uqrep.phi_merge(
                    uqrep.bar(x), i
                )


def test_canonical_basis_two_factors():
    assert uqrep.canonical_basis((1, 1), (0, 1)) == v((1, 1), (0, 1))
    got = uqrep.canonical_basis((1, 1), (1, 0))
    assert got == v((1, 1), (1, 0)) + v((1, 1), (0, 1)).scale(Q(1))


def test_canonical_basis_seven_factor_example():
    comp = (3, 1, 4, 4, 2, 1, 1)
    cb = uqrep.canonical_basis(comp, (0, 1, 0, 0, 1, 0, 1))
    expected = {
        (0, 1, 0, 0, 1, 0, 1): 0,
        (0, 0, 1, 0, 1, 0, 1): 1,
        (0, 0, 0, 1, 1, 0, 1): 5,
        (0, 1, 0, 0, 0, 1, 1): 2,
        (0, 0, 1, 0, 0, 1, 1): 3,
        (0, 0, 0, 1, 0, 1, 1): 7,
    }
    assert {g: c for g, c in cb.support.items()} == {
        g: Q(e) for g, e in expected.items()
    }


def test_canonical_unitriangular():
    for comp in [(1, 1, 1), (2, 1, 1), (3, 2)]:
        for eta in all_etas(comp):
            cb = uqrep.canonical_basis(comp, eta)
            assert cb.coeff(eta).is_one()
            assert uqrep.bar(cb) == cb
            for gamma, c in cb.support.items():
                if gamma == eta:
                    continue
                assert uqrep.eta_leq(gamma, eta) and gamma != eta
                assert isinstance(c, LaurentPoly)
                assert c.terms.get(0, 0) == 0 and c.min_exp() >= 1


@pytest.mark.parametrize("top, support, message", [
    ((0, 1), {(0, 1): 0, (1, 0): 1}, "coefficient q at (1, 0) breaks unitriangularity"),
    # q at a label below top, then the same object at one that is not
    ((1, 0, 1), {(1, 0, 1): 0, (0, 1, 1): 1, (1, 1, 0): 1},
     "coefficient q at (1, 1, 0) breaks unitriangularity"),
    ((1, 0, 1), {(1, 0, 1): 0, (1, 0, 0): 2}, "coefficient q^2 at (1, 0, 0) breaks unitriangularity"),
    ((1, 0), {(1, 0): 1, (0, 1): 1}, "diagonal coefficient q at (1, 0)"),
])
def test_a_label_not_below_top_or_a_diagonal_not_1_is_refused(top, support, message):
    # exponent d stands for q^d, one shared object per exponent
    monomials = {d: Q(d) for d in set(support.values())}
    x = uqrep.TensorVector((1,) * len(top), {eta: monomials[d] for eta, d in support.items()})
    with pytest.raises(ArithmeticError) as refused:
        x.check_unitriangular(top, uqrep._below(top))
    assert str(refused.value) == message


def test_bilinear_form_values():
    assert uqrep.bilinear_form(v((1, 1), (0, 1)), v((1, 1), (0, 1))).is_one()
    assert uqrep.bilinear_form(v((1, 1), (0, 0)), v((1, 1), (0, 0))) == Q(0) + Q(2)
    assert uqrep.bilinear_form(v((1, 1), (0, 1)), v((1, 1), (1, 0))).is_zero()
    # regular weight spaces carry the rescaled factorial
    for n in range(1, 5):
        comp = (1,) * n
        for k in range(0, n + 1):
            for eta in uqrep.weight_etas(comp, k):
                val = uqrep.bilinear_form(v(comp, eta), v(comp, eta))
                assert val == quantum_factorial0(k)
    with pytest.raises(ValueError):
        uqrep.bilinear_form(v((1, 1), (0, 1)), v((2,), (0,)))


@pytest.mark.parametrize("comp, eta", [
    ((1, 2), (0,)),  # eta too short: zip would drop the second part
    ((1,), (0, 1)),  # eta too long
    ((1,), (-1,)),  # not a 0/1 entry
    ((0, 1), (0, 0)),  # not a composition
])
def test_standard_norm_refuses_a_bad_eta_or_composition(comp, eta):
    with pytest.raises(ValueError):
        uqrep.standard_norm(comp, eta)


@pytest.mark.parametrize("comp, eta", [
    ((2, 1), (True, False)),  # equal to (1, 0) as a key, but not 0/1 ints
    ((2.0, 1), (1, 0)),  # equal to (2, 1) as a key, but not a composition
])
def test_standard_norm_refuses_an_input_equal_to_a_cached_valid_one(comp, eta):
    heckeweb.clear_caches()
    for _ in range(2):  # cold, then with the valid input cached
        with pytest.raises(ValueError):
            uqrep.standard_norm(comp, eta)
        assert uqrep.standard_norm((2, 1), (1, 0)) == quantum_multinom0((1, 1))


@pytest.mark.parametrize("k", [2.0, True, "2", None])
def test_weight_etas_refuses_a_k_that_is_not_an_int_warm_or_cold(k):
    heckeweb.clear_caches()
    for _ in range(2):  # cold, then with the valid input cached
        with pytest.raises(ValueError, match="weight index k must be an integer"):
            uqrep.weight_etas((1, 2), k)
        assert uqrep.weight_etas((1, 2), 2) == [(0, 1), (1, 0)]
        assert uqrep.weight_etas((1, 2), 1) == [(1, 1)]


def test_standard_norm_is_the_multinomial_of_the_lowered_parts():
    for comp in [(1,), (3,), (2, 1), (1, 3, 2)]:
        for eta in all_etas(comp):
            beta = tuple(a - e for a, e in zip(comp, eta))
            assert uqrep.standard_norm(list(comp), list(eta)) == quantum_multinom0(beta)


def test_pairing_adjunction_of_phi():
    for a in range(1, 4):
        for b in range(1, 4):
            for eta in all_etas((a, b)):
                for gamma in all_etas((a + b,)):
                    x, y = v((a, b), eta), v((a + b,), gamma)
                    lhs = uqrep.bilinear_form(uqrep.phi_merge(x, 1), y)
                    rhs = uqrep.bilinear_form(
                        x, uqrep.phi_split(y, 1, a, b).scale(Q(-a * b))
                    )
                    assert lhs == rhs


def test_dual_standard():
    assert uqrep.dual_standard((2,), (1,)) == v((2,), (1,))
    assert uqrep.dual_standard((1, 1), (0, 0)) == v((1, 1), (0, 0)).scale(
        1 / quantum_int0(2)
    )
    for comp in [(1, 1), (2, 1)]:
        for eta in all_etas(comp):
            for gamma in all_etas(comp):
                got = uqrep.bilinear_form(v(comp, eta), uqrep.dual_standard(comp, gamma))
                assert got == (LaurentPoly.one() if eta == gamma else LaurentPoly.zero())


def test_dual_canonical_defining_property():
    for comp in [(1, 1), (2, 1), (1, 1, 1)]:
        for eta in all_etas(comp):
            for gamma in all_etas(comp):
                got = uqrep.bilinear_form(
                    uqrep.canonical_basis(comp, eta), uqrep.dual_canonical(comp, gamma)
                )
                assert got == (
                    LaurentPoly.one() if eta == gamma else LaurentPoly.zero()
                )


def test_dual_canonical_matches_gram_inversion():
    for n in range(1, 6):
        for comp in compositions_of(n):
            for k in range(n - len(comp), n + 1):
                for eta, want in dual_canonical_by_gram(comp, k).items():
                    assert uqrep.dual_canonical(comp, eta) == want, (comp, eta)


def test_eprime_examples_and_adjunction():
    assert uqrep.act_Eprime(v((1,), (0,))).is_zero()
    assert uqrep.act_Eprime(v((1,), (1,))) == v((1,), (0,))
    for n in range(1, 5):
        for comp in compositions_of(n):
            for eta in all_etas(comp):
                for gamma in all_etas(comp):
                    x, y = v(comp, eta), v(comp, gamma)
                    assert uqrep.bilinear_form(uqrep.act_F(x), y) == uqrep.bilinear_form(
                        x, uqrep.act_Eprime(y)
                    )
    with pytest.raises(ValueError):
        uqrep.act_Eprime(v((1, 1), (0, 1)) + v((1, 1), (1, 1)))


def test_lowering_shifts_canonical_index():
    for n in range(1, 5):
        for comp in compositions_of(n):
            for eta in all_etas(comp):
                img = uqrep.act_F(uqrep.canonical_basis(comp, eta))
                if eta[0] == 0:
                    assert img == uqrep.canonical_basis(comp, (1,) + eta[1:])
                else:
                    assert img.is_zero()


def test_raising_rescales_dual_canonical():
    # the rescaling is read off the target weight space
    for n in range(1, 5):
        for comp in compositions_of(n):
            for eta in all_etas(comp):
                img = uqrep.act_E(uqrep.dual_canonical(comp, eta))
                if eta[0] == 1:
                    target = (0,) + eta[1:]
                    beta_sum = sum(a - e for a, e in zip(comp, target))
                    scal = quantum_int0(beta_sum) / Q(n - 1)
                    assert img == uqrep.dual_canonical(comp, target).scale(scal)
                else:
                    assert img.is_zero()


def test_schur_weyl_rules():
    assert uqrep.schur_weyl_H(v((1, 1), (0, 1)), 1) == v((1, 1), (1, 0))
    assert uqrep.schur_weyl_H(v((1, 1), (0, 0)), 1) == v((1, 1), (0, 0)).scale(Q(-1))
    assert uqrep.schur_weyl_H(v((1, 1), (1, 1)), 1) == v((1, 1), (1, 1)).scale(-Q(1))
    got = uqrep.schur_weyl_H(v((1, 1), (1, 0)), 1)
    assert got == v((1, 1), (0, 1)) + v((1, 1), (1, 0)).scale(Q(-1) - Q(1))
    with pytest.raises(ValueError):
        uqrep.schur_weyl_H(v((2, 1), (0, 0)), 1)


def test_eq84_cap_cup():
    for eta in all_etas((1, 1)):
        x = v((1, 1), eta)
        merged = uqrep.phi_merge(x, 1)
        lhs = uqrep.phi_split(merged, 1, 1, 1)
        rhs = uqrep.schur_weyl_H(x, 1) + x.scale(Q(1))
        assert lhs == rhs


def test_psi_iso():
    n = 2
    mod = inducedmod.InducedModule.of(2)
    assert uqrep.psi_iso(mod.generator(), 1) == v((1, 1), (0, 1))
    assert uqrep.psi_iso(mod.standard(Permutation.simple(2, 1)), 1) == v((1, 1), (1, 0))
    with pytest.raises(ValueError):
        uqrep.psi_iso(mod.generator(), 2)


def test_psi_intertwines_and_canonical():
    for n in range(2, 6):
        for k in range(0, n + 1):
            mod = inducedmod.InducedModule.of(
                n, p_gens=range(k + 1, n), q_gens=range(1, k)
            )
            eta_min = (0,) * k + (1,) * (n - k)
            for w in mod.basis_index():
                x = mod.standard(w)
                for i in range(1, n):
                    assert uqrep.psi_iso(x.act_generator(i), k) == uqrep.schur_weyl_H(
                        uqrep.psi_iso(x, k), i
                    )
                cb = inducedmod.canonical_basis_element(mod, w)
                from heckeweb.symgrp import seq_act_right

                assert uqrep.psi_iso(cb, k) == uqrep.canonical_basis(
                    (1,) * n, seq_act_right(eta_min, w)
                )


def test_lemma19_form_transport():
    for n in range(2, 5):
        for k in range(0, n + 1):
            mod = inducedmod.InducedModule.of(
                n, p_gens=range(k + 1, n), q_gens=range(1, k)
            )
            scal = quantum_factorial0(k)
            for w in mod.basis_index():
                for z in mod.basis_index():
                    lhs = uqrep.bilinear_form(
                        uqrep.psi_iso(mod.standard(w), k), uqrep.psi_iso(mod.standard(z), k)
                    )
                    rhs = mod.standard(w).bilinear_form(mod.standard(z)) * scal
                    assert lhs == rhs


def test_eta_order_matches_bruhat():
    from oracles import eta_to_perm, subword_bruhat_leq

    for ell in range(2, 5):
        for k in range(0, ell + 1):
            etas = uqrep.weight_etas((1,) * ell, ell - k)
            for e1 in etas:
                for e2 in etas:
                    w1 = eta_to_perm(e1, ell - sum(e1))
                    w2 = eta_to_perm(e2, ell - sum(e2))
                    assert uqrep.eta_leq(e1, e2) == subword_bruhat_leq(w1, w2)


def test_rendering_and_json():
    cb = uqrep.canonical_basis((1, 1), (1, 0))
    assert str(cb) == "v[10] + q*v[01]"
    back = uqrep.TensorVector.from_json(cb.to_json())
    assert back == cb


def test_singular_matrix_is_an_internal_error():
    zero, one = LaurentPoly.zero(), LaurentPoly.one()
    with pytest.raises(ArithmeticError, match="singular"):
        invert_matrix([[one, one], [one, one]])
    with pytest.raises(ArithmeticError):
        invert_matrix([[zero]])
