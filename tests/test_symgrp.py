import copy
import inspect
import pickle

import pytest

from heckeweb import symgrp, tabgroth
from heckeweb.symgrp import (
    ParabolicSubgroup,
    Permutation,
    all_permutations,
    is_shortest_rep,
    seq_act_right,
    shortest_coset_reps,
)

from oracles import (
    factor_through_wall,
    is_shortest_right_rep,
    lambda_set,
    lemma10_completion,
    longest_coset_reps,
    longest_quotient_rep,
    parabolic_contains,
    parabolic_longest_element,
    parabolic_order,
    shortest_right_coset_reps,
    subword_bruhat_leq,
)


def test_lengths():
    assert Permutation.identity(4).length() == 0
    assert Permutation((3, 2, 1)).length() == 3
    w = Permutation((2, 4, 1, 3))
    assert w.length() == len(w.reduced_word())
    assert Permutation.from_word(4, w.reduced_word()) == w


def test_group_operations():
    s1 = Permutation.simple(3, 1)
    s2 = Permutation.simple(3, 2)
    assert (s1 * s2).one_line == (2, 3, 1)
    assert (s1 * s2).inverse() == s2 * s1
    with pytest.raises(ValueError):
        s1 * Permutation.identity(4)
    with pytest.raises(ValueError):
        Permutation((1, 1, 2))


def test_products_keep_the_eq_hash_contract():
    for w in all_permutations(4):
        for i in range(1, 4):
            for built in (w.times_simple(i), w * Permutation.simple(4, i)):
                same = Permutation(built.one_line)
                assert built == same and hash(built) == hash(same)
        inv = w.inverse()
        assert inv == Permutation(inv.one_line) and hash(inv) == hash(Permutation(inv.one_line))
        assert w != w.one_line and w.one_line != w
        assert w not in {w.one_line: 0}
        assert copy.copy(w) == w and pickle.loads(pickle.dumps(w)) == w
    with pytest.raises(AttributeError):
        Permutation((2, 1)).one_line = (1, 2)
    for bad in ((1, 1, 2), (1.0, 2.0), (True, 2), ("1", "2")):
        with pytest.raises(ValueError):
            Permutation(bad)


def test_reduced_words_all_n4():
    for w in all_permutations(4):
        word = w.reduced_word()
        assert len(word) == w.length()
        assert Permutation.from_word(4, word) == w


@pytest.mark.parametrize("n", [2, 3, 4])
def test_bruhat_matches_subword_oracle(n):
    perms = all_permutations(n)
    for u in perms:
        for w in perms:
            assert u.bruhat_leq(w) == subword_bruhat_leq(u, w), (u, w)


def test_bruhat_examples():
    s1 = Permutation.simple(3, 1)
    w = Permutation.from_word(3, [1, 2, 1])
    assert s1.bruhat_leq(w)
    assert not w.bruhat_leq(s1)


def test_bruhat_matches_subword_oracle_sampled_n5():
    import random

    rng = random.Random(5315)
    perms = all_permutations(5)
    for _ in range(300):
        u, w = rng.choice(perms), rng.choice(perms)
        assert u.bruhat_leq(w) == subword_bruhat_leq(u, w)


def test_shortest_coset_reps_counts():
    assert shortest_coset_reps(ParabolicSubgroup.of(2, [1])) == [Permutation.identity(2)]
    assert len(shortest_coset_reps(ParabolicSubgroup.of(3, [1]))) == 3
    assert len(shortest_coset_reps(ParabolicSubgroup.of(3, []))) == 6
    for n in range(2, 6):
        for gens in [(1,), tuple(range(1, n))]:
            p = ParabolicSubgroup.of(n, gens)
            reps = shortest_coset_reps(p)
            assert len(reps) * parabolic_order(p) == len(all_permutations(n))


def test_reps_meet_subgroup_only_at_identity():
    for n in range(2, 5):
        for gens in [(), (1,), tuple(range(1, n))]:
            p = ParabolicSubgroup.of(n, gens)
            reps = set(shortest_coset_reps(p))
            members = set(p.elements())
            assert reps & members == {Permutation.identity(n)}


def test_longest_element():
    assert parabolic_longest_element(ParabolicSubgroup.of(3, [])) == Permutation.identity(3)
    assert parabolic_longest_element(ParabolicSubgroup.of(3, [1])) == Permutation.simple(3, 1)
    w0 = parabolic_longest_element(ParabolicSubgroup.of(3, [1, 2]))
    assert w0 == Permutation((3, 2, 1)) and w0.length() == 3
    # oracle: maximal length over the enumerated subgroup
    for n in range(2, 5):
        for gens in [(1,), (1, 2), tuple(range(1, n))]:
            if max(gens) >= n:
                continue
            p = ParabolicSubgroup.of(n, gens)
            best = max(p.elements(), key=lambda w: w.length())
            assert parabolic_longest_element(p) == best


def test_coset_factorization_exhaustive():
    # every w factors uniquely as (shortest rep) * (member) with additive lengths
    for n in range(2, 6):
        for gens in [(), (1,), (n - 1,), tuple(range(1, n))]:
            p = ParabolicSubgroup.of(n, gens)
            reps = shortest_right_coset_reps(p)
            members = p.elements()
            seen = {}
            for r in reps:
                for m in members:
                    w = r * m
                    assert w.length() == r.length() + m.length()
                    assert w not in seen
                    seen[w] = (r, m)
            assert len(seen) == len(all_permutations(n))


def test_factor_through_wall_examples():
    s1 = Permutation.simple(3, 1)
    s2 = Permutation.simple(3, 2)
    lam = ParabolicSubgroup.of(3, [])
    mu = ParabolicSubgroup.of(3, [1])
    assert factor_through_wall(Permutation.identity(3), lam, mu) == (
        Permutation.identity(3),
        Permutation.identity(3),
    )
    assert factor_through_wall(s1, lam, mu) == (Permutation.identity(3), s1)
    assert factor_through_wall(s2 * s1, lam, mu) == (s2, s1)


def test_factor_through_wall_exhaustive():
    for n in range(2, 6):
        pairs = [((), (1,)), ((), tuple(range(1, n))), ((1,), (1,) if n < 3 else (1, 2))]
        for lam_gens, mu_gens in pairs:
            if not set(lam_gens) <= set(mu_gens):
                continue
            lam = ParabolicSubgroup.of(n, lam_gens)
            mu = ParabolicSubgroup.of(n, mu_gens)
            for w in shortest_right_coset_reps(lam):
                wp, x = factor_through_wall(w, lam, mu)
                assert wp * x == w
                assert is_shortest_right_rep(wp, mu)
                assert parabolic_contains(mu, x)
                assert is_shortest_right_rep(x, lam)
                assert w.length() == wp.length() + x.length()


def test_factor_through_wall_rejects_bad_input():
    lam = ParabolicSubgroup.of(3, [1])
    mu = ParabolicSubgroup.of(3, [1])
    s1 = Permutation.simple(3, 1)
    with pytest.raises(ValueError):
        factor_through_wall(s1, lam, mu)  # s1 is not shortest for S_3/<s1>


def test_longest_quotient_rep_matches_enumeration():
    for n in range(2, 6):
        for mu_gens, lam_gens in [((1,), ()), (tuple(range(1, n)), ()), ((1, 2) if n > 2 else (1,), (1,))]:
            mu = ParabolicSubgroup.of(n, mu_gens)
            lam = ParabolicSubgroup.of(n, lam_gens)
            if not lam.generators <= mu.generators:
                continue
            reps = [x for x in mu.elements() if is_shortest_right_rep(x, lam)]
            best = max(reps, key=lambda x: x.length())
            got = longest_quotient_rep(mu, lam)
            assert got.length() == best.length()
            assert got == best


def test_lambda_set_regular():
    # for the regular weight the set consists of the longest coset
    # representatives for the trivial wall that are shortest for the sign wall
    for n in range(2, 5):
        for k in range(0, n + 1):
            p_gens = tuple(range(k + 1, n))
            q_gens = tuple(range(1, k))
            got = set(lambda_set(n, p_gens, q_gens, ()))
            q = ParabolicSubgroup.of(n, q_gens)
            p = ParabolicSubgroup.of(n, p_gens)
            expect = {
                w
                for w in longest_coset_reps(q)
                if is_shortest_rep(w, p)
            }
            assert got == expect


def test_wall_completion_examples():
    s1 = Permutation.simple(2, 1)
    assert lemma10_completion(
        Permutation.identity(2), ParabolicSubgroup.of(2, [1]), ParabolicSubgroup.of(2, [])
    ) == s1
    assert lemma10_completion(
        Permutation.simple(3, 2), ParabolicSubgroup.of(3, [1]), ParabolicSubgroup.of(3, [])
    ) == Permutation.simple(3, 1)
    # already inside: completion is trivial
    for w in lambda_set(3, (), (1,), ()):
        x = lemma10_completion(w, ParabolicSubgroup.of(3, [1]), ParabolicSubgroup.of(3, []))
        assert x == Permutation.identity(3)


def test_seq_act_right():
    s1 = Permutation.simple(2, 1)
    assert seq_act_right((0, 1), s1) == (1, 0)
    w = Permutation((2, 3, 1))
    eta = (7, 8, 9)
    assert seq_act_right(eta, w) == (8, 9, 7)
    u, v = Permutation((2, 1, 3)), Permutation((1, 3, 2))
    assert seq_act_right(seq_act_right(eta, u), v) == seq_act_right(eta, u * v)


def test_rendering():
    w = Permutation((2, 1, 3))
    assert str(w) == "[2,1,3]"
    assert w.word_str() == "s1"
    assert Permutation.identity(2).word_str() == "e"


def test_coset_lemmas_and_tableau_maps_stay_test_references():
    moved = {
        symgrp: {
            "longest_coset_reps", "shortest_rep_of_coset", "factor_through_wall",
            "longest_quotient_rep", "lambda_set", "lemma10_completion",
        },
        tabgroth: {
            "comp_parabolic", "minimal_tableau", "tableau_from_perm",
            "act_on_tableau", "eta_of_tableau",
        },
    }
    defined = [
        f"{module.__name__}.{name}" for module, names in moved.items() for name in names
        if hasattr(module, name)
    ]
    defined += [
        f"ParabolicSubgroup.{name}" for name in ("order", "contains", "longest_element")
        if hasattr(ParabolicSubgroup, name)
    ]
    assert defined == []
    for fn in (is_shortest_rep, shortest_coset_reps):
        assert "side" not in inspect.signature(fn).parameters
