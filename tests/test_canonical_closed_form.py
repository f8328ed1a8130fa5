"""The tensor canonical basis in closed form (one block vector per 1 of
eta) against its check route, the evaluated canonical basis diagram."""

import random
from itertools import product

import pytest

import heckeweb
from heckeweb import uqrep, webcat


def by_web(comp, eta):
    return webcat.evaluate_canonical_diagram(webcat.canonical_basis_diagram(comp, eta))


def regular_cases(max_n):
    return [((1,) * n, eta) for n in range(1, max_n + 1) for eta in product((0, 1), repeat=n)]


def assert_same(got, want, case):
    assert got.comp == want.comp, case
    assert got.support == want.support, case
    assert str(got) == str(want), case


def compositions(factors):
    """Every composition with parts in 1..3 for up to 5 factors; above
    that, a seeded sample of 100 of them (every composition of 7 factors
    with every eta would take half a minute)."""
    comps = list(product((1, 2, 3), repeat=factors))
    return comps if factors <= 5 else random.Random(factors).sample(comps, 100)


@pytest.mark.parametrize("factors", range(1, 8))
def test_closed_form_equals_the_web_route_on_parts_up_to_3(factors):
    for comp in compositions(factors):
        for eta in product((0, 1), repeat=factors):
            assert_same(uqrep.canonical_basis(comp, eta), by_web(comp, eta), (comp, eta))


def test_closed_form_equals_the_web_route_on_regular_compositions():
    for comp, eta in regular_cases(10):
        assert_same(uqrep.canonical_basis(comp, eta), by_web(comp, eta), (comp, eta))


def test_every_coefficient_is_one_shared_monomial():
    for comp, eta in regular_cases(8):
        support = uqrep.canonical_basis(comp, eta).support
        assert all(len(c.terms) == 1 and set(c.terms.values()) == {1} for c in support.values())
        by_exponent = {c.min_exp(): c for c in support.values()}
        assert all(by_exponent[c.min_exp()] is c for c in support.values())


def _values(cases):
    out = {}
    for case in cases:
        vec = uqrep.canonical_basis(*case)
        out[case] = (dict(vec.support), str(vec))
    return out


def test_call_order_changes_no_value():
    cases = regular_cases(10) + [
        (comp, eta)
        for factors in range(1, 5)
        for comp in product((1, 2, 3), repeat=factors)
        for eta in product((0, 1), repeat=factors)
    ]
    heckeweb.clear_caches()
    in_order = _values(cases)
    shuffled = list(cases)
    random.Random(21).shuffle(shuffled)
    heckeweb.clear_caches()
    assert _values(shuffled) == in_order
