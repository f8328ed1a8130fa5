import hashlib
from itertools import product
from math import comb

import pytest

import heckeweb
from heckeweb.qarith import LaurentPoly, quantum_factorial0, quantum_int0
from heckeweb.symgrp import Permutation
from heckeweb import cli, tabgroth, uqrep
from heckeweb.checks import compositions_of

from oracles import (
    act_on_tableau,
    comp_parabolic,
    decrement_entries,
    enumerate_lambda,
    eta_of_tableau,
    lambda_set,
    minimal_tableau,
    redistribution_targets,
    shortest_right_coset_reps,
    tableau_from_perm,
    translate_projective_by_y0,
    translate_simple_by_y0,
)

Q = LaurentPoly.q
E2 = Permutation.identity(2)
S1 = Permutation.simple(2, 1)


def by_perm(matrix, src, dst):
    """An eta-keyed translation matrix from type src to type dst, keyed by
    the index permutations instead, as the command line prints it."""
    perm = tabgroth.index_perm
    return {
        perm(src, eta): {perm(dst, gamma): c for gamma, c in row.items()}
        for eta, row in matrix.items()
    }


def regular_eta(w, k):
    """The eta of the class w of the regular composition at weight k."""
    return tabgroth.class_eta(w, (1,) * w.n, k)


def test_minimal_tableau_figure():
    t = minimal_tableau((1, 2, 2, 2), 4)
    assert t.column == (1, 2, 2, 3)
    assert t.row == (3, 4, 4)
    assert not tabgroth.is_admissible(t)


def test_admissibility_figure_cases():
    # the four hook fillings of type (1,2,2,2) shown side by side:
    # only the one with strictly increasing row and non-increasing column passes
    minimal = tabgroth.HookTableau((1, 2, 2, 2), (1, 2, 2, 3), (3, 4, 4))
    middle_a = tabgroth.HookTableau((1, 2, 2, 2), (1, 3, 2, 4), (2, 3, 4))
    middle_b = tabgroth.HookTableau((1, 2, 2, 2), (4, 3, 3, 1), (2, 2, 4))
    last = tabgroth.HookTableau((1, 2, 2, 2), (4, 3, 2, 2), (1, 3, 4))
    assert not tabgroth.is_admissible(minimal)
    assert not tabgroth.is_admissible(middle_a)
    assert not tabgroth.is_admissible(middle_b)
    assert tabgroth.is_admissible(last)


def test_entry_multiset_validated():
    with pytest.raises(ValueError):
        tabgroth.HookTableau((2, 1), (2,), (2, 2))


def test_minimal_is_identity_image():
    for comp in [(1, 1, 1), (2, 1), (1, 2, 2)]:
        n = sum(comp)
        for k in range(0, n + 1):
            t = tableau_from_perm(Permutation.identity(n), comp, k)
            assert t == minimal_tableau(comp, k)


def test_bijection_round_trip():
    for comp in [(1, 1, 1), (2, 1), (1, 2, 1), (2, 2), (1, 1, 1, 1)]:
        n = sum(comp)
        stab = comp_parabolic(comp)
        for k in range(0, n + 1):
            reps = shortest_right_coset_reps(stab)
            seen = set()
            for w in reps:
                t = tableau_from_perm(w, comp, k)
                assert tabgroth.perm_from_tableau(t) == w
                seen.add(t)
            assert len(seen) == len(reps)


def test_action_compatibility():
    comp = (1, 1, 1)
    w = Permutation((2, 3, 1))
    t = tableau_from_perm(w, comp, 1)
    assert t == act_on_tableau(w, minimal_tableau(comp, 1))


def test_eta_index_matches_the_tableau_definition():
    for n in range(1, 7):
        for comp in compositions_of(n):
            reps = shortest_right_coset_reps(comp_parabolic(comp))
            for k in range(0, n + 1):
                for eta in uqrep.weight_etas(comp, k):
                    want = tabgroth.perm_from_tableau(tabgroth.tableau_of_eta(comp, eta))
                    assert tabgroth.index_perm(comp, eta) == want, (comp, k, eta)
                for w in reps:
                    t = tableau_from_perm(w, comp, k)
                    want = eta_of_tableau(t) if tabgroth.is_admissible(t) else None
                    assert tabgroth.class_eta(w, comp, k) == want, (comp, k, w)


def test_class_eta_rejects_what_indexes_no_class():
    comp, k = (2, 1, 1), 2
    # not increasing on the block of value 1
    assert tabgroth.class_eta(Permutation((2, 1, 3, 4)), comp, k) is None
    # wrong size, and a k that is no weight of comp
    assert tabgroth.class_eta(Permutation.identity(3), comp, k) is None
    assert tabgroth.class_eta(Permutation.identity(4), comp, 9) is None
    for eta in [(1, 1), (2, 0, 0)]:
        with pytest.raises(ValueError):
            tabgroth.index_perm(comp, eta)


@pytest.mark.parametrize("build", [tabgroth.tableau_of_eta, tabgroth.index_perm])
@pytest.mark.parametrize("eta", [(2, -2, 1), (1, 0), (True, 0, 1), (1, 0, "x")])
def test_eta_maps_reject_what_indexes_no_class(build, eta):
    # (2, -2, 1) has the right length but is no 0/1 sequence, and a bool is no 0/1 entry
    with pytest.raises(ValueError):
        build((1, 1, 1), eta)


def test_admissible_enumeration_counts():
    for comp in [(1, 1, 1, 1), (2, 1, 1), (3, 1), (2, 2), (4,)]:
        n = sum(comp)
        ell = len(comp)
        for k in range(0, n + 1):
            members = enumerate_lambda(comp, k)
            assert len(members) == len(uqrep.weight_etas(comp, k))
            if n - ell <= k <= n:
                assert len(members) == comb(ell, n - k)
            else:
                assert members == []


def test_lambda_agrees_with_group_theoretic_set():
    for comp in [(1, 1), (1, 1, 1), (2, 1), (1, 2), (2, 1, 1), (1, 1, 1, 1)]:
        n = sum(comp)
        stab = comp_parabolic(comp).generators
        for k in range(0, n + 1):
            via_tableaux = enumerate_lambda(comp, k)
            via_cosets = lambda_set(n, range(k + 1, n), range(1, k), stab)
            assert via_tableaux == via_cosets, (comp, k)


def test_class_vectors():
    eta = tabgroth.class_eta
    assert tabgroth.class_vector(
        (1, 1), eta(E2, (1, 1), 1), "proper_standard"
    ) == uqrep.standard_vector((1, 1), (0, 1))
    assert tabgroth.class_vector((2,), eta(E2, (2,), 2), "standard") == uqrep.standard_vector(
        (2,), (0,)
    )
    assert tabgroth.class_vector(
        (2,), eta(E2, (2,), 2), "proper_standard"
    ) == uqrep.standard_vector((2,), (0,))
    assert tabgroth.class_vector((1, 1), eta(S1, (1, 1), 1), "projective") == (
        uqrep.canonical_basis((1, 1), (1, 0))
    )
    with pytest.raises(ValueError):
        tabgroth.class_vector((1, 1), eta(E2, (1, 1), 1), "nonsense")
    # the identity does not index a class at the top weight of (1,1), and
    # a sequence of the wrong length indexes no class at all
    assert eta(E2, (1, 1), 2) is None
    with pytest.raises(ValueError):
        tabgroth.class_vector((1, 1), (0, 0, 0), "standard")


def test_proper_standard_spans_weight_space():
    for comp in [(1, 1), (2, 1), (1, 1, 1)]:
        n = sum(comp)
        total = 0
        for k in range(n - len(comp), n + 1):
            vectors = [
                tabgroth.class_vector(comp, tabgroth.class_eta(w, comp, k), "proper_standard")
                for w in enumerate_lambda(comp, k)
            ]
            supports = [next(iter(v.support)) for v in vectors]
            assert len(set(supports)) == len(vectors)
            total += len(vectors)
        assert total == 2 ** len(comp)


def test_translate_onto_wall_examples():
    m = by_perm(tabgroth.translate_onto_wall((1, 1), 1, 1), (1, 1), (2,))
    target = enumerate_lambda((2,), 1)[0]
    assert m[E2] == {target: LaurentPoly.one()}
    assert m[S1] == {target: Q(-1)}
    # the (2,1) case at the top weight crosses with exponent -2
    m4 = by_perm(tabgroth.translate_onto_wall((2, 1), 1, 3), (2, 1), (3,))
    (w,) = enumerate_lambda((2, 1), 3)
    (coeff,) = m4[w].values()
    assert coeff == Q(-2)


def test_translate_onto_wall_kills_double_row():
    # both marked slots in the row: the merged tableau is inadmissible
    comp = (1, 1)
    m = tabgroth.translate_onto_wall(comp, 1, 0)
    for w, row in m.items():
        assert row == {}


def test_translate_out_of_wall_examples():
    src = enumerate_lambda((2,), 1)[0]
    m = by_perm(tabgroth.translate_out_of_wall((1, 1), 1, 1), (2,), (1, 1))
    assert m[src] == {S1: LaurentPoly.one(), E2: Q(1)}
    src2 = enumerate_lambda((2,), 2)[0]
    m2 = by_perm(tabgroth.translate_out_of_wall((1, 1), 1, 2), (2,), (1, 1))
    (target2,) = enumerate_lambda((1, 1), 2)
    assert m2[src2] == {target2: quantum_int0(2)}


def test_out_targets_match_redistribution_oracle():
    for comp in [(1, 1), (2, 1), (1, 2), (2, 2), (1, 1, 2), (3, 1)]:
        n = sum(comp)
        for i in range(1, len(comp)):
            merged = uqrep.merged_type(comp, i)
            for k in range(n - len(merged), n + 1):
                matrix = by_perm(tabgroth.translate_out_of_wall(comp, i, k), merged, comp)
                assert set(matrix) == set(enumerate_lambda(merged, k))
                for w, row in matrix.items():
                    t = tableau_from_perm(w, merged, k)
                    targets = redistribution_targets(t, i, comp)
                    want = {tabgroth.perm_from_tableau(u) for u in targets}
                    assert set(row) == want, (comp, i, k, w)


def test_onto_targets_match_decrement_oracle():
    for n in range(2, 6):
        for comp in compositions_of(n):
            for i in range(1, len(comp)):
                merged = uqrep.merged_type(comp, i)
                for k in range(n - len(comp), n + 1):
                    matrix = by_perm(tabgroth.translate_onto_wall(comp, i, k), comp, merged)
                    assert set(matrix) == set(enumerate_lambda(comp, k))
                    for w, row in matrix.items():
                        t = tableau_from_perm(w, comp, k)
                        target = decrement_entries(t, i, merged)
                        if tabgroth.is_admissible(target):
                            want = {tabgroth.perm_from_tableau(target)}
                        else:
                            want = set()
                        assert set(row) == want, (comp, i, k, w)


def test_merged_type_rejects_positions_outside_the_parts():
    assert uqrep.merged_type((1, 2, 3), 2) == (1, 5)
    for i in (0, 3, -1):
        with pytest.raises(ValueError, match=f"merge position {i}"):
            uqrep.merged_type((1, 2, 3), i)


def test_translation_matches_webs_all_compositions_n4():
    for n in range(2, 5):
        for comp in compositions_of(n):
            for i in range(1, len(comp)):
                assert tabgroth.theorem1_check(comp, i), (comp, i)


def test_the_translation_matrices_keep_their_values():
    """One digest of every matrix of the three functions over every
    composition with n <= 5, position and weight, in both directions: the
    values, their types and the order of rows and entries."""
    web = tabgroth.web_translation_matrix
    matrices = [
        (
            comp, i, k,
            tabgroth.translate_onto_wall(comp, i, k),
            tabgroth.translate_out_of_wall(comp, i, k),
            web(comp, i, k, "onto"),
            web(comp, i, k, "out"),
        )
        for n in range(1, 6)
        for comp in compositions_of(n)
        for i in range(1, len(comp))
        for k in range(n - len(comp), n + 1)
    ]
    assert len(matrices) == 209
    digest = hashlib.sha256(repr(matrices).encode()).hexdigest()
    assert digest == "ec3fa6acc7a3ab1e0a64ff748068b57fdb6d6b4ca112a2c1e17c965e52f2be51"


def _routes_agree(comp, i, direction):
    closed = tabgroth.translate_onto_wall if direction == "onto" else tabgroth.translate_out_of_wall
    n = sum(comp)
    return all(
        closed(comp, i, k) == tabgroth.web_translation_matrix(comp, i, k, direction)
        for k in range(n - len(comp), n + 1)
    )


@pytest.mark.parametrize("wrong", ["onto", "out"])
def test_theorem1_check_detects_a_wrong_closed_form_in_either_direction(monkeypatch, wrong):
    if wrong == "out":
        binom0 = tabgroth.quantum_binom0
        monkeypatch.setattr(tabgroth, "quantum_binom0", lambda a, b: binom0(a, b) * Q(1))
    else:
        # the onto rows read q^e with e <= 0, the out rows q^(a_i) only
        monkeypatch.setattr(tabgroth, "_Q", lambda e: Q(e - 1) if e < 0 else Q(e))
    right = "onto" if wrong == "out" else "out"
    for comp in [(1, 1), (2, 1, 1), (1, 3)]:
        for i in range(1, len(comp)):
            assert not tabgroth.theorem1_check(comp, i), (comp, i)
            assert not _routes_agree(comp, i, wrong), (comp, i)
            assert _routes_agree(comp, i, right), (comp, i)


def test_theorem1_check_validates_once_and_never_per_weight(monkeypatch):
    calls = {"composition": 0, "check_weight": 0}
    for name in calls:

        def counted(*args, f=getattr(tabgroth, name), name=name):
            calls[name] += 1
            return f(*args)

        monkeypatch.setattr(tabgroth, name, counted)
    assert tabgroth.theorem1_check((1,) * 6, 3)
    assert calls == {"composition": 1, "check_weight": 0}


@pytest.mark.parametrize("comp", [(1.5,), "ab"])
def test_check_weight_validates_its_composition(comp):
    with pytest.raises(ValueError, match="composition"):
        tabgroth.check_weight(comp, 1)
    assert tabgroth.check_weight([2, 1], 2) == (2, 1)


def test_theorem1_check_detects_a_wrong_merge_scalar(monkeypatch):
    merge = uqrep.phi_merge
    monkeypatch.setattr(uqrep, "phi_merge", lambda v, i: merge(v, i).scale(Q(1)))
    for comp in [(1, 1), (2, 1, 1), (1, 3)]:
        for i in range(1, len(comp)):
            assert not tabgroth.theorem1_check(comp, i), (comp, i)


def test_theorem1_check_detects_a_wrong_split_scalar_after_a_correct_run(monkeypatch):
    """The web route's memo of products is keyed by values: a split that
    gives q^(a+1) in place of q^a is caught after the memo is warm."""
    comps = [(1, 1), (2, 1, 1), (1, 3)]
    for comp in comps:
        for i in range(1, len(comp)):
            assert tabgroth.theorem1_check(comp, i), (comp, i)
    split = uqrep.phi_split

    def wrong_split(v, i, a, b):
        out = split(v, i, a, b)
        return uqrep.TensorVector._of(out.comp, {
            g: c * Q(1) if g[i - 1 : i + 1] == (0, 1) else c for g, c in out.support.items()
        })

    monkeypatch.setattr(uqrep, "phi_split", wrong_split)
    for comp in comps:
        for i in range(1, len(comp)):
            assert not tabgroth.theorem1_check(comp, i), (comp, i)


@pytest.mark.parametrize("wrong", range(3))
def test_theorem1_check_detects_one_wrong_cached_merge_scalar(monkeypatch, wrong):
    scalars = uqrep._merge_scalars

    def one_wrong(a, b):
        out = list(scalars(a, b))
        out[wrong] = out[wrong] * Q(1)
        return tuple(out)

    monkeypatch.setattr(uqrep, "_merge_scalars", one_wrong)
    for comp in [(1, 1), (2, 1, 1), (1, 3)]:
        for i in range(1, len(comp)):
            assert not tabgroth.theorem1_check(comp, i), (comp, i)


def test_the_cached_merge_scalars_cannot_be_changed():
    scalars = uqrep._merge_scalars(2, 3)
    with pytest.raises(TypeError):
        scalars[0] = Q(1)
    assert uqrep._merge_scalars(2, 3) is scalars
    v = uqrep.standard_vector((2, 3), (0, 1))
    assert uqrep.phi_merge(v, 1).coeff((1,)) is scalars[1]


def test_translate_projective_examples():
    (src,) = enumerate_lambda((2,), 1)
    got = tabgroth.translate_projective((1, 1), 1, tabgroth.class_eta(src, (2,), 1))
    assert got == uqrep.canonical_basis((1, 1), (1, 0))
    assert tabgroth.translate_projective([1, 1], 1, [1]) == got


def test_translations_match_the_y0_routes():
    for n in range(2, 7):
        for comp in compositions_of(n):
            for i in range(1, len(comp)):
                merged = uqrep.merged_type(comp, i)
                for k in range(n - len(comp), n + 1):
                    for w in enumerate_lambda(merged, k):
                        got = tabgroth.translate_projective(
                            comp, i, tabgroth.class_eta(w, merged, k)
                        )
                        assert got == translate_projective_by_y0(comp, i, k, w), (comp, i, k, w)
                    for w in enumerate_lambda(comp, k):
                        got = tabgroth.translate_simple(comp, i, tabgroth.class_eta(w, comp, k))
                        assert got == translate_simple_by_y0(comp, i, k, w), (comp, i, k, w)


def test_translations_match_the_merge_and_split_images():
    # the projective class is the split image of the merged canonical
    # vector, the simple class the merge image of the dual canonical one
    cases = 0
    for n in range(1, 6):
        for comp in compositions_of(n):
            for i in range(1, len(comp)):
                merged = uqrep.merged_type(comp, i)
                for eta in product((0, 1), repeat=len(merged)):
                    want = uqrep.phi_split(
                        uqrep.canonical_basis(merged, eta), i, comp[i - 1], comp[i]
                    )
                    assert tabgroth.translate_projective(comp, i, eta) == want, (comp, i, eta)
                    cases += 1
                for eta in product((0, 1), repeat=len(comp)):
                    want = uqrep.phi_merge(uqrep.dual_canonical(comp, eta), i)
                    assert tabgroth.translate_simple(comp, i, eta) == want, (comp, i, eta)
                    cases += 1
    assert cases == 852


def test_survival_flips_match_the_index_permutations():
    # the index permutation of eta at one weight indexes a class at the
    # next one exactly when moving slot 1 across the hook gives its eta
    for n in range(1, 9):
        for comp in compositions_of(n):
            for k in range(n - len(comp), n):
                for eta in uqrep.weight_etas(comp, k + 1):
                    low = None if eta[0] else (1,) + eta[1:]
                    assert tabgroth.class_eta(tabgroth.index_perm(comp, eta), comp, k) == low
                for eta in uqrep.weight_etas(comp, k):
                    up = (0,) + eta[1:] if eta[0] else None
                    assert tabgroth.class_eta(tabgroth.index_perm(comp, eta), comp, k + 1) == up


def test_translate_simple_examples():
    assert tabgroth.translate_simple((1, 1), 1, regular_eta(E2, 1)).is_zero()
    got = tabgroth.translate_simple((1, 1), 1, regular_eta(S1, 1))
    assert got == uqrep.dual_canonical((2,), (1,)).scale(Q(-1))


def test_translate_adjoint_consistency():
    # onto-wall on simples is dual to out-of-wall on projectives:
    # (T Q(w), S(v)) with the dual pairing matches (Q(w), T' S(v)) up to
    # the fixed power of q from the graded adjunction
    comp = (1, 1)
    i, k = 1, 1
    merged = (2,)
    y0_len = 1
    for w in enumerate_lambda(merged, k):
        eta_w = tabgroth.class_eta(w, merged, k)
        qw = tabgroth.translate_projective(comp, i, eta_w)
        for v in enumerate_lambda(comp, k):
            eta_v = tabgroth.class_eta(v, comp, k)
            sv = tabgroth.class_vector(comp, eta_v, "simple")
            lhs = uqrep.bilinear_form(qw, sv)
            rhs = uqrep.bilinear_form(
                tabgroth.class_vector(merged, eta_w, "projective"),
                tabgroth.translate_simple(comp, i, eta_v),
            )
            assert lhs == rhs * Q(y0_len)


def test_standard_is_factorial_multiple_of_proper():
    for n in range(1, 5):
        comp = (1,) * n
        for k in range(0, n + 1):
            for w in enumerate_lambda(comp, k):
                eta = tabgroth.class_eta(w, comp, k)
                std = tabgroth.class_vector(comp, eta, "standard")
                prop = tabgroth.class_vector(comp, eta, "proper_standard")
                assert std == prop.scale(quantum_factorial0(k))


def test_dual_pairings():
    for comp in [(1, 1), (2, 1), (1, 1, 1)]:
        n = sum(comp)
        for k in range(n - len(comp), n + 1):
            members = enumerate_lambda(comp, k)
            for w in members:
                for z in members:
                    delta = LaurentPoly.one() if w == z else LaurentPoly.zero()
                    eta_w = tabgroth.class_eta(w, comp, k)
                    eta_z = tabgroth.class_eta(z, comp, k)
                    assert (
                        uqrep.bilinear_form(
                            tabgroth.class_vector(comp, eta_w, "projective"),
                            tabgroth.class_vector(comp, eta_z, "simple"),
                        )
                        == delta
                    )
                    assert (
                        uqrep.bilinear_form(
                            tabgroth.class_vector(comp, eta_w, "standard"),
                            tabgroth.class_vector(comp, eta_z, "proper_standard"),
                        )
                        == delta
                    )


def test_homdim_examples():
    assert tabgroth.hom_dim(regular_eta(E2, 1), regular_eta(E2, 1)) == 1
    assert tabgroth.hom_dim(regular_eta(E2, 1), regular_eta(S1, 1)) == 1
    (top,) = enumerate_lambda((1, 1), 2)
    assert tabgroth.hom_dim(regular_eta(top, 2), regular_eta(top, 2)) == 2
    # the identity indexes no class at k=2, and classes of two weights
    # share no hom space
    assert regular_eta(E2, 2) is None
    with pytest.raises(ValueError):
        tabgroth.hom_dim(regular_eta(E2, 1), regular_eta(top, 2))


def test_homdim_command_rejects_non_class_indices(capsys):
    # the identity indexes no class at k=2, nor at any k outside 0..2
    for k in (2, -1, 3):
        code = cli.main(["homdim", "--n", "2", "--k", str(k), "--w", "e", "--z", "e"])
        _, err = capsys.readouterr()
        assert code == 2
        assert "both indices must label classes at this weight" in err


def test_homdim_routes_agree_n3():
    for n in [2, 3]:
        for k in range(0, n + 1):
            members = enumerate_lambda((1,) * n, k)
            for w in members:
                for z in members:
                    diagram = tabgroth.hom_dim(regular_eta(w, k), regular_eta(z, k))
                    form = tabgroth.hom_dim_form_route(regular_eta(w, k), regular_eta(z, k))
                    assert diagram == form


def test_homdim_symmetric():
    n, k = 3, 1
    members = enumerate_lambda((1,) * n, k)
    for w in members:
        for z in members:
            eta_w, eta_z = regular_eta(w, k), regular_eta(z, k)
            assert tabgroth.hom_dim(eta_w, eta_z) == tabgroth.hom_dim(eta_z, eta_w)


def test_tableau_rendering_and_json():
    t = minimal_tableau((2, 1), 1)
    assert str(t) == "row[1 2] col[1]"
    back = tabgroth.HookTableau.from_json(t.to_json())
    assert back == t


@pytest.mark.parametrize("k", [1.0, True])
def test_translations_refuse_a_k_that_is_not_an_int_warm_or_cold(k):
    heckeweb.clear_caches()
    web = tabgroth.web_translation_matrix
    translations = (
        tabgroth.translate_onto_wall,
        tabgroth.translate_out_of_wall,
        lambda comp, i, k: web(comp, i, k, "onto"),
    )
    for _ in range(2):  # cold, then with k = 1 computed
        for translate in translations:
            with pytest.raises(ValueError, match="weight index k must be an integer"):
                translate((1, 1), 1, k)
            assert translate((1, 1), 1, 1)


@pytest.mark.parametrize("k", [1.0, True])
def test_the_tableau_listing_and_class_eta_refuse_a_k_that_is_not_an_int(k):
    # True once listed the k = 1 tableaux, 1.0 failed as a slice index, and
    # class_eta took 1.0 for 1
    e = Permutation.identity(2)
    for call in (
        lambda: tabgroth.all_tableaux((2, 1), k),
        lambda: tabgroth.class_eta(e, (1, 1), k),
    ):
        with pytest.raises(ValueError, match=r"^weight index k must be an integer, not "):
            call()
    assert len(tabgroth.all_tableaux((2, 1), 1)) == 3
    assert tabgroth.class_eta(e, (1, 1), 1) == (0, 1)


def test_translations_reject_k_outside_the_weights():
    # (1,1) has weights 0, 1, 2; the merged type (2) has 1, 2
    web = tabgroth.web_translation_matrix
    for k in (-1, 3, 5, 9):
        for translate in (
            tabgroth.translate_onto_wall,
            tabgroth.translate_out_of_wall,
            lambda comp, i, k: web(comp, i, k, "onto"),
            lambda comp, i, k: web(comp, i, k, "out"),
        ):
            with pytest.raises(ValueError, match="not a weight"):
                translate((1, 1), 1, k)
        # the class translations take an eta, which fixes its weight: the
        # identity indexes no class there, and the command line rejects k
        for basis, direction, src in [("projective", "out", (2,)), ("simple", "onto", (1, 1))]:
            assert tabgroth.class_eta(Permutation.identity(2), src, k) is None
            args = cli.build_parser().parse_args([
                "translate", "--comp", "1,1", "--pos", "1", "--k", str(k),
                "--dir", direction, "--basis", basis,
            ])
            with pytest.raises(ValueError, match="not a weight"):
                args.func(args)
    # weight 0 of (1,1) exists, so out of the wall it is the empty map
    assert tabgroth.translate_out_of_wall((1, 1), 1, 0) == {}
    assert tabgroth.web_translation_matrix((1, 1), 1, 0, "out") == {}
