"""The library's memo tables: each is a functools.cache on a module-level
function, and heckeweb.clear_caches() empties every one of them."""

import importlib
import pkgutil

import pytest

import heckeweb
from heckeweb import checks, cli, hecke, inducedmod, qarith, tabgroth, uqrep
from heckeweb.symgrp import Permutation, all_permutations


def _modules():
    return [
        importlib.import_module(f"heckeweb.{info.name}")
        for info in pkgutil.iter_modules(heckeweb.__path__)
    ]


def _cached_callables():
    return {
        f"{module.__name__}.{name}": obj
        for module in _modules()
        for name, obj in vars(module).items()
        if hasattr(obj, "cache_info") and obj.__module__ == module.__name__
    }


def _compute():
    w = Permutation((3, 4, 1, 2))
    mod = inducedmod.InducedModule.of(4, p_gens=(3,), q_gens=(1,))
    top = mod.basis_index()[-1]
    small = inducedmod.InducedModule.of(4, q_gens=(1,))
    big = inducedmod.InducedModule.of(4, q_gens=(1, 2))
    comp = (2, 1, 2, 1)
    values = [
        hecke.kl_basis_element(w),
        hecke.kl_basis_element(Permutation((3, 1, 4, 2))),
        # its inverse: read off it, the least label of their orbit
        hecke.kl_basis_element(Permutation((2, 4, 1, 3))),
        inducedmod.canonical_basis_element(mod, top),
        mod.standard(top).bar(),
        inducedmod.map_Q(small, big, small.standard(small.basis_index()[-1])),
        uqrep.canonical_basis(comp, (1, 0, 1, 0)),
        uqrep.canonical_basis_by_bar(list(comp), [1, 0, 1, 0]),
        uqrep.dual_canonical(comp, (0, 1, 1, 0)),
        uqrep.weight_etas(comp, 4),
        tabgroth.theorem1_check(comp, 2),
    ]
    return values, [str(value) for value in values], cli.build_parser().format_usage()


def test_clear_caches_empties_every_cache_and_changes_no_value():
    before = _compute()
    cached = _cached_callables()
    filled = {name for name, fn in cached.items() if fn.cache_info().currsize}
    assert filled >= {
        "heckeweb.inducedmod.canonical_basis_element",
        "heckeweb.inducedmod._canonical",
        "heckeweb.inducedmod._word_times",
        "heckeweb.inducedmod._step_table",
        "heckeweb.inducedmod._quotient_norm",
        "heckeweb.qarith._coefficient",
        "heckeweb.inducedmod._sums",
        "heckeweb.inducedmod._blocks",
        "heckeweb.inducedmod._coset_table",
        "heckeweb.inducedmod._symmetries",
        "heckeweb.uqrep._canonical_basis",
        "heckeweb.uqrep._canonical_basis_by_bar",
        "heckeweb.uqrep._bar_basis",
        "heckeweb.uqrep._dual_canonical",
        "heckeweb.uqrep._bits",
        "heckeweb.uqrep._eta_key",
        "heckeweb.uqrep._weight_etas",
        "heckeweb.uqrep._standard_norm",
        "heckeweb.qarith._fraction",
        "heckeweb.inducedmod._label_text",
        "heckeweb.inducedmod._parabolic_pq",
        "heckeweb.cli.build_parser",
        "heckeweb.tabgroth._product",
        "heckeweb.uqrep._block_choices",
        "heckeweb.qarith._prefix",
        "heckeweb.uqrep._label_text",
        "heckeweb.qarith._quantum_binom0",
        "heckeweb.qarith._quantum_binom",
    }
    heckeweb.clear_caches()
    assert {name: fn.cache_info().currsize for name, fn in cached.items()} == {
        name: 0 for name in cached
    }
    assert _compute() == before


def _kl_of_s4_from_a_cold_start():
    """KL of all of S_4 in a fixed order after clear_caches(), and the
    regular module's label maps it leaves behind."""
    heckeweb.clear_caches()
    values = [hecke.kl_basis_element(w) for w in all_permutations(4)]
    tables = inducedmod._symmetries(inducedmod.InducedModule.of(4))
    return values, [dict(table) for table in tables]


def test_the_symmetry_caches_refill_to_the_same_values():
    """After clear_caches() the same calls refill the label maps alike."""
    before = _kl_of_s4_from_a_cold_start()
    assert all(before[1])
    assert _kl_of_s4_from_a_cold_start() == before


def test_no_class_carries_a_cache():
    """clear_caches() reaches module-level caches only: a cached method or
    staticmethod would be silently left full."""
    cached = [
        f"{module.__name__}.{cls.__name__}.{name}"
        for module in _modules()
        for cls in vars(module).values()
        if isinstance(cls, type) and cls.__module__ == module.__name__
        for name in dir(cls)
        if hasattr(getattr(cls, name), "cache_info")
    ]
    assert cached == []


def test_cached_tensor_listings_take_lists_and_hand_out_copies():
    heckeweb.clear_caches()
    want = uqrep.weight_etas((1, 2, 1), 2)
    assert uqrep.weight_etas([1, 2, 1], 2) == want == [(0, 1, 1), (1, 0, 1), (1, 1, 0)]
    listed = uqrep.weight_etas((1, 2, 1), 2)
    listed.append((0, 0, 0))
    listed[0] = (1, 1, 1)
    listed.sort(reverse=True)
    assert uqrep.weight_etas((1, 2, 1), 2) == want
    assert uqrep.weight_etas([1, 2, 1], 2) is not uqrep.weight_etas([1, 2, 1], 2)
    assert uqrep.standard_norm([2, 1], [1, 0]) == uqrep.standard_norm((2, 1), (1, 0))
    assert uqrep.standard_norm([2, 1], [1, 0]) == qarith.quantum_multinom0((1, 1))


def test_no_hand_rolled_memo_table():
    tables = [
        f"{module.__name__}.{name}"
        for module in _modules()
        for name, obj in vars(module).items()
        if name.endswith("_cache") and isinstance(obj, dict)
    ]
    assert tables == []


@pytest.mark.parametrize(
    "check,max_n",
    [(checks.check_theorem1, 5), (checks.check_kgroup, 5), (checks.check_induced_maps, 4)],
)
def test_most_divisions_repeat_a_reduced_quotient(check, max_n):
    """A suite asks for few distinct quotients, many times each: counted
    from a cold start, the memo answers at least five calls from its
    table for each quotient it reduces."""
    heckeweb.clear_caches()
    check(max_n)
    info = qarith._fraction.cache_info()
    assert info.misses and info.hits >= 5 * info.misses, info
