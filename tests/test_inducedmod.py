import gc
import pickle
import random
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

import heckeweb
from heckeweb.qarith import LaurentPoly, RationalFunction
from heckeweb.symgrp import ParabolicSubgroup, Permutation, all_permutations
from heckeweb import cli, hecke, inducedmod
from heckeweb.checks import kl_bruteforce

from oracles import (
    act_generator_by_products,
    act_generator_by_terms,
    act_hecke,
    bar_by_terms,
    canonical_basis_by_products,
    canonical_basis_by_step,
    canonical_basis_element_by_accumulate,
    generator_times_closed_form,
    hecke_generator_inverse,
    map_i_by_terms,
    map_j_by_terms,
    map_Q_by_terms,
    map_z_by_terms,
    parabolic_order,
)

Q = LaurentPoly.q


def commuting_modules(max_n):
    """Every module M(n, p, q) with commuting walls and 2 <= n <= max_n."""
    for n in range(2, max_n + 1):
        gens = range(1, n)
        for p_bits in range(1 << (n - 1)):
            p = {g for g in gens if p_bits >> (g - 1) & 1}
            free = [g for g in gens if all(abs(g - h) >= 2 for h in p)]
            for q_bits in range(1 << len(free)):
                q = {g for k, g in enumerate(free) if q_bits >> k & 1}
                yield inducedmod.InducedModule.of(n, p, q)


def test_equal_modules_hash_alike_and_print_as_their_fields():
    mod = inducedmod.InducedModule.of(4, p_gens=[1], q_gens=[3])
    same = inducedmod.InducedModule(4, frozenset({1}), frozenset((3,)))
    assert mod == same and mod is not same
    assert hash(mod) == hash(same) == hash((4, frozenset({1}), frozenset({3})))
    assert mod != inducedmod.InducedModule.of(4, p_gens=[1])
    assert mod != inducedmod.InducedModule.of(4, q_gens=[1], p_gens=[3])
    assert len({mod, same, inducedmod.InducedModule.of(4)}) == 2
    assert repr(mod) == "InducedModule(n=4, p_gens=frozenset({1}), q_gens=frozenset({3}))"
    copies = (pickle.loads(pickle.dumps(mod)), inducedmod.InducedModule(mod.n, mod.p_gens, mod.q_gens))
    for copy in copies:
        assert copy == mod and hash(copy) == hash(mod)
    shrunk = inducedmod.InducedModule(mod.n, mod.p_gens, frozenset())
    assert hash(shrunk) == hash(inducedmod.InducedModule.of(4, p_gens=[1]))
    with pytest.raises(AttributeError):
        mod.n = 5


def test_of_interns_the_module_until_the_caches_are_cleared():
    mod = inducedmod.InducedModule.of(4, [1], [3])
    assert inducedmod.InducedModule.of(4, (1,), {3}) is mod
    assert inducedmod.InducedModule.of(4, p_gens=frozenset({1}), q_gens=[3]) is mod
    heckeweb.clear_caches()
    fresh = inducedmod.InducedModule.of(4, [1], [3])
    assert fresh == mod and fresh is not mod
    assert inducedmod.InducedModule.of(4, [1], [3]) is fresh


@pytest.mark.parametrize("n,p_gens,q_gens", [(True, (), ()), (2, (True,), ()), (2, (), (1.0,))])
def test_of_rejects_a_non_int_equal_to_an_interned_one(n, p_gens, q_gens):
    # True and 1.0 equal 1 as cache keys
    inducedmod.InducedModule.of(1)
    inducedmod.InducedModule.of(2, [1])
    inducedmod.InducedModule.of(2, (), [1])
    with pytest.raises(ValueError, match="must be integers"):
        inducedmod.InducedModule.of(n, p_gens, q_gens)


def test_commuting_validation():
    with pytest.raises(ValueError):
        inducedmod.InducedModule.of(3, p_gens=[1], q_gens=[2])
    inducedmod.InducedModule.of(4, p_gens=[1], q_gens=[3])


def test_basis_size():
    for n, p, q in [(3, (1,), ()), (4, (1,), (3,)), (4, (), (1, 2))]:
        mod = inducedmod.InducedModule.of(n, p, q)
        order = parabolic_order(ParabolicSubgroup.of(n, set(p) | set(q)))
        assert len(mod.basis_index()) * order == factorial(n)


def test_action_walls():
    # sign wall
    M = inducedmod.InducedModule.of(2, p_gens=[1])
    assert M.generator().act_generator(1) == M.generator().scale(-LaurentPoly.q())
    # trivial wall
    Mq = inducedmod.InducedModule.of(2, q_gens=[1])
    assert Mq.generator().act_generator(1) == Mq.generator().scale(Q(-1))
    # regular module, length drop
    Mr = inducedmod.InducedModule.of(2)
    ns1 = Mr.standard(Permutation.simple(2, 1))
    assert ns1.act_generator(1) == Mr.generator() + ns1.scale(Q(-1) - Q(1))


def test_action_satisfies_hecke_relations():
    for n, p, q in [(3, (1,), ()), (3, (), (2,)), (4, (1,), (3,)), (4, (), ())]:
        mod = inducedmod.InducedModule.of(n, p, q)
        for w in mod.basis_index():
            x = mod.standard(w)
            for i in range(1, n):
                sq = x.act_generator(i).act_generator(i)
                assert sq == x.act_generator(i).scale(Q(-1) - Q(1)) + x
            for i in range(1, n - 1):
                lhs = x.act_generator(i).act_generator(i + 1).act_generator(i)
                rhs = x.act_generator(i + 1).act_generator(i).act_generator(i + 1)
                assert lhs == rhs


def test_regular_module_matches_algebra():
    # with both walls empty the module is the right regular representation,
    # so its canonical basis is the brute-force Kazhdan-Lusztig basis
    for n in [3, 4]:
        mod = inducedmod.InducedModule.of(n)
        for w in mod.basis_index():
            cb = inducedmod.canonical_basis_element(mod, w)
            assert cb.permutation_support() == kl_bruteforce(w).permutation_support()


def test_canonical_examples():
    Mr = inducedmod.InducedModule.of(2)
    s1 = Permutation.simple(2, 1)
    assert inducedmod.canonical_basis_element(Mr, Permutation.identity(2)) == Mr.generator()
    assert inducedmod.canonical_basis_element(Mr, s1) == Mr.standard(s1) + Mr.generator().scale(Q(1))


def test_canonical_bar_invariant_unitriangular():
    for n, p, q in [(3, (1,), ()), (3, (), (1,)), (4, (1,), (3,)), (4, (1, 2), ())]:
        mod = inducedmod.InducedModule.of(n, p, q)
        for w in mod.basis_index():
            cb = inducedmod.canonical_basis_element(mod, w)
            assert cb.bar() == cb
            assert cb.coeff(w).is_one()
            for y, c in cb.permutation_support().items():
                if y == w:
                    continue
                assert isinstance(c, LaurentPoly)
                assert c.terms.get(0, 0) == 0 and c.min_exp() >= 1
                assert y.bruhat_leq(w)


def test_map_i_examples():
    src = inducedmod.InducedModule.of(2, q_gens=[1])
    dst = inducedmod.InducedModule.of(2)
    s1 = Permutation.simple(2, 1)
    img = inducedmod.map_i(src, dst, src.generator())
    assert img == dst.generator().scale(Q(1)) + dst.standard(s1)
    assert img == inducedmod.canonical_basis_element(dst, s1)
    # identity case
    same = inducedmod.map_i(src, src, src.generator())
    assert same == src.generator()


def test_map_Q_examples():
    src = inducedmod.InducedModule.of(2, q_gens=[1])
    dst = inducedmod.InducedModule.of(2)
    # the normalizing scalar is q + q^-1
    img = inducedmod.map_Q(dst, src, dst.generator())
    c = 1 / LaurentPoly({1: 1, -1: 1})
    assert img == src.generator().scale(c)


def test_map_j_z_examples():
    src = inducedmod.InducedModule.of(2, p_gens=[1])
    dst = inducedmod.InducedModule.of(2)
    s1 = Permutation.simple(2, 1)
    jm = inducedmod.map_j(src, dst, src.generator())
    assert jm == dst.generator() - dst.standard(s1).scale(Q(1))
    back = inducedmod.map_z(dst, src, jm)
    assert back == src.generator().scale(LaurentPoly({0: 1, 2: 1}))
    # the canonical element regular at s1 dies in the sign quotient
    dead = inducedmod.map_z(dst, src, inducedmod.canonical_basis_element(dst, s1))
    assert dead.is_zero()
    # e survives
    assert inducedmod.map_z(dst, src, dst.generator()) == src.generator()


def test_subgroup_condition_enforced():
    a = inducedmod.InducedModule.of(3, q_gens=[1])
    b = inducedmod.InducedModule.of(3, q_gens=[2])
    with pytest.raises(ValueError):
        inducedmod.map_i(a, b, a.generator())
    with pytest.raises(ValueError):
        inducedmod.map_j(a, b, a.generator())


def test_bar_via_module_action():
    # bar fixes the generator and is an involution
    for n, p, q in [(3, (1,), ()), (3, (), (1, 2)), (4, (1,), (3,))]:
        mod = inducedmod.InducedModule.of(n, p, q)
        assert mod.generator().bar() == mod.generator()
        for w in mod.basis_index():
            x = mod.standard(w)
            assert x.bar().bar() == x


def test_bar_is_semilinear_over_the_algebra():
    for n, p, q in [(3, (1,), ()), (3, (), (1,)), (4, (1,), (3,))]:
        mod = inducedmod.InducedModule.of(n, p, q)
        for w in mod.basis_index():
            x = mod.standard(w)
            for i in range(1, n):
                lhs = x.act_generator(i).bar()
                assert lhs == act_hecke(x.bar(), hecke_generator_inverse(n, i))


def test_json_round_trip():
    mod = inducedmod.InducedModule.of(3, p_gens=[2])
    w = mod.basis_index()[-1]
    cb = inducedmod.canonical_basis_element(mod, w)
    back = inducedmod.ModuleElement.from_json(cb.to_json())
    assert back == cb


def test_json_rejects_an_index_outside_the_quotient():
    mod = inducedmod.InducedModule.of(3, p_gens=[1])
    good = mod.standard(Permutation((1, 3, 2))).to_json()
    assert inducedmod.ModuleElement.from_json(good) == mod.standard(Permutation((1, 3, 2)))
    for bad_w in ([2, 1, 3], [1, 2], [1.0, 3.0, 2.0], [1, "3", 2]):
        bad = dict(good, support=[{"w": bad_w, "coeff": good["support"][0]["coeff"]}])
        with pytest.raises(ValueError):
            inducedmod.ModuleElement.from_json(bad)


@pytest.mark.parametrize("i", [1.0, True])
def test_a_generator_index_that_is_not_an_int_is_refused_before_any_cache(i):
    heckeweb.clear_caches()
    mod = inducedmod.InducedModule.of(3)
    w = Permutation((2, 1, 3))
    for _ in range(2):  # cold, then with the table of H_1 cached
        with pytest.raises(ValueError, match="generator index must be an integer"):
            inducedmod.act_generator(mod.standard(w), i)
        assert inducedmod.act_generator(mod.standard(w), 1) == act_generator_by_products(mod, w, 1)
        assert hecke.standard_basis_element(w).times_generator(1) == hecke.HeckeElement._of(
            mod, act_generator_by_products(mod, w, 1).support
        )


def test_action_matches_permutation_products():
    for mod in commuting_modules(4):
        for w in mod.basis_index():
            for i in range(1, mod.n):
                want = act_generator_by_products(mod, w, i)
                assert mod.standard(w).act_generator(i) == want, (mod, w, i)


def test_bar_matches_action_of_algebra_bar():
    for mod in commuting_modules(4):
        gen = mod.generator()
        for w in mod.basis_index():
            want = act_hecke(gen, hecke.bar(hecke.standard_basis_element(w)))
            assert mod.standard(w).bar() == want, (mod, w)


def test_generator_times_standard_matches_closed_form():
    # N_e . H_w is the push-forward of the standard element H_w of the algebra
    for mod in commuting_modules(4):
        regular = inducedmod.InducedModule.of(mod.n)
        for w in all_permutations(mod.n):
            want = generator_times_closed_form(mod, w)
            got = inducedmod._apply(
                regular.standard(w), inducedmod.ModuleElement, mod,
                lambda code: inducedmod._word_times(mod, code, inducedmod._H),
            )
            assert got == want, (mod, w)


def test_canonical_basis_matches_module_arithmetic():
    modules = list(commuting_modules(5))
    assert inducedmod.InducedModule.of(5) in modules  # all of S_5
    for mod in modules:
        for w in mod.basis_index():
            want = canonical_basis_by_products(mod, w)
            assert inducedmod.canonical_basis_element(mod, w) == want, (mod, w)


def test_equal_canonical_coefficients_are_one_object():
    shared = {}
    for mod in (inducedmod.InducedModule.of(5), inducedmod.InducedModule.of(5, (1,), (3, 4))):
        for w in mod.basis_index():
            for c in inducedmod.canonical_basis_element(mod, w).support.values():
                assert shared.setdefault(c, c) is c
    assert len(shared) > 1


def test_canonical_basis_matches_the_accumulate_oracle():
    modules = list(commuting_modules(4)) + [inducedmod.InducedModule.of(5)]
    for mod in modules:
        for w in mod.basis_index():
            got = inducedmod.canonical_basis_element(mod, w)
            assert got == canonical_basis_element_by_accumulate(mod, w), (mod, w)
            shared = {}
            assert all(shared.setdefault(c, c) is c for c in got.support.values()), (mod, w)


def test_the_shared_value_check_is_check_unitriangular():
    one, q = inducedmod._coefficient(((0, 1),)), inducedmod._coefficient(((1, 1),))
    e, s1, s2 = (Permutation(w) for w in ((1, 2, 3), (2, 1, 3), (1, 3, 2)))
    supports = [
        {s1: one, e: q},
        {s1: one},
        {s1: one, e: one},  # the diagonal's own object off the diagonal
        {s1: one, e: LaurentPoly.one()},  # an equal 1 off the diagonal
        {s1: one, e: LaurentPoly({0: 1, 1: 1})},
        {s1: one, e: LaurentPoly.q(-1), s2: q},
        {s1: q, e: q},  # diagonal not 1
        {s1: LaurentPoly.one(), e: q},  # an unshared diagonal 1
        {e: q},  # no diagonal
    ]
    accepted = [True, True, False, False, False, False, False, True, False]
    mod = inducedmod.InducedModule.of(3)
    for support, want in zip(supports, accepted, strict=True):
        x = inducedmod.ModuleElement(mod, support)
        try:
            x.check_unitriangular(s1)
            got = True
        except ArithmeticError:
            got = False
        assert got == want, support
    # below's argument and the labels of the messages are Permutations
    x = inducedmod.ModuleElement(mod, supports[0])
    x.check_unitriangular(s1, below=lambda w: w.length() <= 1)
    with pytest.raises(ArithmeticError, match=r"^coefficient q at \[1,2,3\] breaks"):
        x.check_unitriangular(s1, below=lambda w: w != e)
    with pytest.raises(ArithmeticError, match=r"^no diagonal coefficient at \[2,1\]$"):
        x.check_unitriangular(Permutation((2, 1)))


@pytest.fixture
def fresh_caches():
    heckeweb.clear_caches()
    canonical_basis_element_by_accumulate.cache_clear()
    yield
    heckeweb.clear_caches()
    canonical_basis_element_by_accumulate.cache_clear()


def _breaks_the_step(monkeypatch, how):
    if how == "H_i + q - q^-1":
        monkeypatch.setattr(inducedmod, "_H_PLUS_Q", inducedmod._H_INVERSE)
    else:  # the rising step moves 2 N_y
        key = (inducedmod._RISING, inducedmod._H_PLUS_Q)
        monkeypatch.setitem(inducedmod._FOLDED, key, ((True, 0, 2), (False, 1, 1)))


@pytest.mark.parametrize("how,message", [
    ("H_i + q - q^-1", "coefficient -q^-1 + q at [1,2] breaks unitriangularity"),
    ("2 N_y", "diagonal coefficient 2 at [2,1]"),
])
def test_a_broken_canonical_step_raises_check_unitriangular_message(
    fresh_caches, monkeypatch, capsys, how, message
):
    _breaks_the_step(monkeypatch, how)
    mod, w = inducedmod.InducedModule.of(2), Permutation((2, 1))
    with pytest.raises(ArithmeticError) as want:
        canonical_basis_element_by_accumulate(mod, w)
    with pytest.raises(ArithmeticError) as got:
        inducedmod.canonical_basis_element(mod, w)
    assert str(got.value) == str(want.value) == message
    heckeweb.clear_caches()
    assert cli.main(["mod-basis", "--n", "3", "--q", "2", "--w", "s1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("internal error:")


def _s5_with_a_clear_halfway(clear):
    mod = inducedmod.InducedModule.of(5)
    index = mod.basis_index()
    out = []
    for k, w in enumerate(index):
        if k == len(index) // 2:
            clear()
            gc.collect()
        out.append(inducedmod.canonical_basis_element(mod, w))
    return out


@pytest.mark.parametrize("table", [
    "clear_caches", "_sums", "_blocks", "_coset_table", "_coefficient", "_step_table",
    "canonical_basis_element", "_canonical",
])
def test_a_cleared_table_halfway_changes_no_value(fresh_caches, table):
    fresh = _s5_with_a_clear_halfway(lambda: None)
    heckeweb.clear_caches()
    if table == "clear_caches":
        clear = heckeweb.clear_caches
    else:
        clear = getattr(inducedmod, table).cache_clear
    assert _s5_with_a_clear_halfway(clear) == fresh


def test_each_memo_entry_holds_the_operands_its_key_names(fresh_caches):
    _s5_with_a_clear_halfway(inducedmod._coefficient.cache_clear)
    sums = inducedmod._sums()
    assert sums
    for (a, b, _, _), (_, *operands) in sums.items():
        assert [id(x) for x in operands] == [a, b]
    blocks = inducedmod._blocks()
    assert blocks
    for (a, b, _), (_, _, *operands) in blocks.items():
        assert [id(x) for x in operands] == [a, b]


def _elements(mod, others):
    """Standard and canonical elements of mod, and elements with
    fractional coefficients: the map_Q images of standard and canonical
    elements from every module of `others` with a smaller trivial wall,
    and for the regular module the Hecke algebra's own elements."""
    out = []
    for w in mod.basis_index():
        out += [mod.standard(w), inducedmod.canonical_basis_element(mod, w)]
    for src in others:
        if src.p_gens == mod.p_gens and src.q_gens < mod.q_gens:
            for v in src.basis_index():
                for y in (src.standard(v), inducedmod.canonical_basis_element(src, v)):
                    out.append(inducedmod.map_Q(src, mod, y))
    if not mod.p_gens and not mod.q_gens:
        half = 1 / LaurentPoly({1: 1, -1: 1})
        for w in mod.basis_index():
            h = hecke.kl_basis_element(w)
            out += [hecke.standard_basis_element(w), h, h.scale(half)]
    return out


def _same(got, want):
    return type(got) is type(want) and got == want


def test_module_operations_match_the_term_by_term_oracles():
    modules = list(commuting_modules(4))
    mixed = 0  # elements whose coefficients have two or more denominators
    for mod in modules:
        others = [m for m in modules if m.n == mod.n]
        for x in _elements(mod, others):
            dens = {c.den if isinstance(c, RationalFunction) else 1 for c in x.support.values()}
            mixed += len(dens) > 1
            for i in range(1, mod.n):
                assert _same(x.act_generator(i), act_generator_by_terms(x, i)), (mod, x, i)
            assert _same(x.bar(), bar_by_terms(x)), (mod, x)
            for dst in others:
                if dst.p_gens == mod.p_gens and dst.q_gens <= mod.q_gens:
                    assert _same(inducedmod.map_i(mod, dst, x), map_i_by_terms(mod, dst, x))
                if dst.p_gens == mod.p_gens and mod.q_gens <= dst.q_gens:
                    assert _same(inducedmod.map_Q(mod, dst, x), map_Q_by_terms(mod, dst, x))
                if dst.q_gens == mod.q_gens and dst.p_gens <= mod.p_gens:
                    assert _same(inducedmod.map_j(mod, dst, x), map_j_by_terms(mod, dst, x))
                if dst.q_gens == mod.q_gens and mod.p_gens <= dst.p_gens:
                    assert _same(inducedmod.map_z(mod, dst, x), map_z_by_terms(mod, dst, x))
    assert mixed > 20, mixed


def test_step_table_targets_are_the_basis_codes():
    mod = inducedmod.InducedModule.of(4, q_gens=(1,))
    targets = set()
    met_by = {}
    for diagonal in (inducedmod._H, inducedmod._H_PLUS_Q, inducedmod._H_INVERSE):
        for i in range(1, mod.n):
            table = inducedmod._step_table(mod, i, diagonal)
            for w in mod.basis_index():
                code = inducedmod._encode(w)
                for target, _, _ in table[code]:
                    targets.add(target)
                    if target != code:
                        met_by.setdefault(target, set()).add(i)
    assert targets == {inducedmod._encode(w) for w in mod.basis_index()}
    assert any(len(steps) > 1 for steps in met_by.values())


def _case_by_products(mod, w, i):
    """The rule H_i acts on N_w by, read off w s_i w^-1 and the lengths."""
    ws = w.times_simple(i)
    simple = [j for j in range(1, w.n) if ws * w.inverse() == Permutation.simple(w.n, j)]
    if simple and simple[0] in mod.p_gens:
        return inducedmod._SIGN
    if simple and simple[0] in mod.q_gens:
        return inducedmod._TRIVIAL
    return inducedmod._RISING if ws.length() > w.length() else inducedmod._FALLING


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_a_code_is_the_one_line_word_and_steps_with_it(data):
    n = data.draw(st.integers(1, 12))
    w = Permutation(tuple(data.draw(st.permutations(range(1, n + 1)))))
    code = inducedmod._encode(w)
    assert inducedmod._entries(n, code) == list(w.one_line)
    assert inducedmod._permutation(n, code) == w
    assert inducedmod._term_key(n, code) == (w.length(), w.one_line)
    assert inducedmod._first_descent(n, code) == min(w.right_descents(), default=0)
    if n == 1:
        return
    i = data.draw(st.integers(1, n - 1))
    moved = w.times_simple(i)
    assert inducedmod._times_simple(code, i, n.bit_length()) == inducedmod._encode(moved)
    p = data.draw(st.sets(st.integers(1, n - 1)))
    free = [g for g in range(1, n) if all(abs(g - h) >= 2 for h in p)]
    q = data.draw(st.sets(st.sampled_from(free))) if free else set()
    mod = inducedmod.InducedModule.of(n, p, q)
    assert inducedmod._case(mod, code, i) == _case_by_products(mod, w, i)


def test_codes_of_different_sizes_differ():
    codes = [inducedmod._encode(w) for n in range(1, 7) for w in all_permutations(n)]
    assert len(set(codes)) == len(codes)


def test_a_small_element_of_s10_lists_only_the_labels_it_meets(fresh_caches):
    w = Permutation.from_word(10, (1, 3, 2))
    kl = hecke.kl_basis_element(w)
    tail = tuple(range(5, 11))
    interval = [
        Permutation(v.one_line + tail)
        for v in all_permutations(4)
        if v.bruhat_leq(Permutation(w.one_line[:4]))
    ]
    below = set(map(inducedmod._encode, interval))
    assert set(kl.support) == below
    # the step may run at another member of w's symmetry orbit
    w0 = Permutation(tuple(range(10, 0, -1)))
    images = {
        inducedmod._encode(x)
        for v in interval
        for x in (v.inverse(), w0 * v * w0, w0 * v.inverse() * w0)
    }
    mod = inducedmod.InducedModule.of(10)
    met = set()
    for i in range(1, 10):
        for diagonal in (inducedmod._H, inducedmod._H_PLUS_Q, inducedmod._H_INVERSE):
            table = inducedmod._step_table(mod, i, diagonal)
            met |= set(table) | {target for row in table.values() for target, _, _ in row}
    assert met <= below | images


def test_a_support_is_keyed_by_code_whichever_constructor_builds_it():
    mod = inducedmod.InducedModule.of(3, p_gens=[1])
    w = Permutation((1, 3, 2))
    one = LaurentPoly.one()
    built = [
        mod.standard(w),
        inducedmod.ModuleElement(mod, {w: one}),
        inducedmod.ModuleElement.from_terms(mod, [(w, one)]),
        inducedmod.ModuleElement.from_json(mod.standard(w).to_json()),
        mod.standard(w) + mod.generator() - mod.generator(),
        -mod.standard(w).scale(-1),
    ]
    for x in built:
        assert x == mod.standard(w)
        assert [type(label) for label in x.support] == [int]
        assert x.permutation_support() == {w: one} and x.coeff(w) == one
    regular = hecke.standard_basis_element(w)
    assert [type(label) for label in regular.support] == [int]
    assert regular == hecke.HeckeElement(inducedmod.InducedModule.of(3), {w: one})


@pytest.mark.parametrize("label,error", [
    ("code", TypeError),  # a code is not a Permutation
    ((1, 3, 2), TypeError),
    (Permutation((2, 1, 3)), ValueError),  # not a shortest representative
    (Permutation((2, 1)), ValueError),  # not in S_3
])
def test_the_constructor_rejects_a_support_it_cannot_encode(label, error):
    mod = inducedmod.InducedModule.of(3, p_gens=[1])
    if label == "code":
        label = inducedmod._encode(Permutation((1, 3, 2)))
    with pytest.raises(error):
        inducedmod.ModuleElement(mod, {label: LaurentPoly.one()})
    with pytest.raises(error):
        inducedmod.ModuleElement.from_terms(mod, [(label, LaurentPoly.one())])


@pytest.mark.parametrize("order", ["increasing", "decreasing", "shuffled"])
def test_the_orbit_route_gives_the_step_route_in_any_call_order(fresh_caches, order):
    """In any call order, the orbit route gives the values of the step
    route, which steps every label."""
    for n in range(1, 7):
        mod = inducedmod.InducedModule.of(n)
        codes = sorted(inducedmod._encode(w) for w in all_permutations(n))
        if order == "decreasing":
            codes.reverse()
        elif order == "shuffled":
            random.Random(n).shuffle(codes)
        for code in codes:
            got = hecke.kl_basis_element(inducedmod._permutation(n, code))
            assert got.support == canonical_basis_by_step(mod, code).support, (n, code)


@pytest.mark.parametrize("order", ["increasing", "decreasing", "shuffled"])
def test_the_step_builds_the_least_label_of_each_orbit_in_any_call_order(
    fresh_caches, monkeypatch, order
):
    stepped = []
    step = inducedmod._stepped

    def recorded(mod, code):
        stepped.append(code)
        return step(mod, code)

    monkeypatch.setattr(inducedmod, "_stepped", recorded)
    for n in range(1, 7):
        w0 = Permutation(tuple(range(n, 0, -1)))
        orbits = {
            frozenset(map(inducedmod._encode, (w, w.inverse(), w0 * w * w0, w0 * w.inverse() * w0)))
            for w in all_permutations(n)
        }
        codes = sorted(inducedmod._encode(w) for w in all_permutations(n))
        if order == "decreasing":
            codes.reverse()
        elif order == "shuffled":
            random.Random(n).shuffle(codes)
        stepped.clear()
        for code in codes:
            hecke.kl_basis_element(inducedmod._permutation(n, code))
        assert sorted(stepped) == sorted(min(orbit) for orbit in orbits), n


def _steps(monkeypatch):
    """The number of canonical elements built by the step from now on."""
    count = [0]
    stepped = inducedmod._stepped

    def counted(mod, code):
        count[0] += 1
        return stepped(mod, code)

    monkeypatch.setattr(inducedmod, "_stepped", counted)
    return count


@pytest.mark.parametrize("n,orbits", [(5, 45), (6, 230)])
def test_the_kl_basis_runs_the_step_once_per_symmetry_orbit(fresh_caches, monkeypatch, n, orbits):
    steps = _steps(monkeypatch)
    for w in all_permutations(n):
        hecke.kl_basis_element(w)
    assert steps[0] == orbits


@pytest.mark.parametrize("n,blocks", [(5, 757), (6, 16_762)])
def test_the_step_reads_one_block_per_coset(fresh_caches, monkeypatch, n, blocks):
    """Each stepped element's support is a union of cosets {y, y s_i} for
    its descent i, and the step reads one block for each: half its terms."""
    terms = [0]
    stepped = inducedmod._stepped

    def counted(mod, code):
        result = stepped(mod, code)
        if inducedmod._first_descent(mod.n, code):
            terms[0] += len(result.support)
        return result

    class Lookups(dict):
        def get(self, key):
            self.count += 1
            return dict.get(self, key)

    memo = Lookups()
    memo.count = 0
    monkeypatch.setattr(inducedmod, "_stepped", counted)
    monkeypatch.setattr(inducedmod, "_blocks", lambda: memo)
    for w in all_permutations(n):
        hecke.kl_basis_element(w)
    assert 2 * memo.count == terms[0] == 2 * blocks


def test_a_module_with_a_wall_runs_the_step_for_every_label(fresh_caches, monkeypatch):
    steps = _steps(monkeypatch)
    mod = inducedmod.InducedModule.of(5, q_gens=[1])
    for w in mod.basis_index():
        inducedmod.canonical_basis_element(mod, w)
    assert steps[0] == len(mod.basis_index())


def test_the_label_maps_are_inversion_and_conjugation_by_w0():
    for n in range(1, 6):
        w0 = Permutation(tuple(range(n, 0, -1)))
        for w in all_permutations(n):
            images = inducedmod._images(n, inducedmod._encode(w))
            want = (w.inverse(), w0 * w * w0, w0 * w.inverse() * w0)
            assert tuple(inducedmod._permutation(n, code) for code in images) == want, w


@pytest.mark.parametrize("image", ["merges two labels", "misses the diagonal"])
def test_a_broken_relabelling_is_an_internal_error(fresh_caches, monkeypatch, capsys, image):
    mod = inducedmod.InducedModule.of(3)
    w, partner = Permutation((2, 3, 1)), Permutation((3, 1, 2))  # w^-1 = w0 w w0
    hecke.kl_basis_element(w)
    top, code = inducedmod._encode(w), inducedmod._encode(partner)
    assert min(table[code] for table in inducedmod._symmetries(mod)) == top
    # each broken map still takes code to top, so partner is read off w
    if image == "merges two labels":
        broken = inducedmod._Table(lambda y: top if y == code else code)
    else:
        broken = inducedmod._Table(lambda y: top if y == code else y)
    monkeypatch.setattr(inducedmod, "_symmetries", lambda mod: (broken,))
    with pytest.raises(ArithmeticError, match=r"relabelling the canonical element at \[2,3,1\]"):
        hecke.kl_basis_element(partner)
    assert cli.main(["kl-basis", "--n", "3", "--w", "s2*s1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("internal error:")
