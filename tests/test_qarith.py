import random
import re

import pytest
from hypothesis import given, settings, strategies as st

import heckeweb
from heckeweb import qarith
from heckeweb.qarith import (
    LaurentPoly,
    RationalFunction,
    coeff_to_json,
    quantum_binom,
    quantum_binom0,
    quantum_factorial,
    quantum_factorial0,
    quantum_int,
    quantum_int0,
    quantum_multinom,
    quantum_multinom0,
)

from oracles import divexact, fraction_normal_form, poly_gcd

rng = random.Random(20240817)


def rand_poly():
    return LaurentPoly(
        {rng.randint(-5, 5): rng.randint(-9, 9) for _ in range(rng.randint(0, 5))}
    )


def rand_rational():
    num = rand_poly()
    den = LaurentPoly.zero()
    while den.is_zero():
        den = rand_poly()
    return num / den


def test_quantum_int_small_values():
    assert quantum_int(0).is_zero()
    assert quantum_int(1).is_one()
    assert quantum_int(2) == LaurentPoly({1: 1, -1: 1})
    assert quantum_int(3) == LaurentPoly({2: 1, 0: 1, -2: 1})


def test_quantum_binom_values():
    assert quantum_binom(2, 1) == quantum_int(2)
    for n in range(0, 8):
        assert quantum_binom(n, 0).is_one()
        for k in range(0, n + 1):
            assert quantum_binom(n, k) == quantum_binom(n, n - k)
    with pytest.raises(ValueError):
        quantum_binom(2, 3)


@pytest.mark.parametrize(
    "f,bad,good",
    [
        (quantum_binom, (3.0, 1), (3, 1)),
        (quantum_binom, (3, True), (3, 1)),
        (quantum_binom0, (1.0, 2), (1, 2)),
        (quantum_multinom0, ([1.0, 2],), ([1, 2],)),
    ],
)
def test_the_memoized_binomials_refuse_a_part_that_is_not_an_int_warm_or_cold(f, bad, good):
    # a key with 3.0 equals the key with 3, so a warm memo once served 3's value
    heckeweb.clear_caches()
    for _ in range(2):  # cold, then with the int value memoized
        with pytest.raises(ValueError, match="integer"):
            f(*bad)
        assert f(*good) == f(*good)


def test_the_multinomials_refuse_a_negative_or_float_part_alike():
    message = "quantum multinomial needs nonnegative integer parts, got [1, -1]"
    for f in (quantum_multinom, quantum_multinom0):
        with pytest.raises(ValueError, match=re.escape(message)):
            f((1, -1))
        with pytest.raises(ValueError, match="integer parts"):
            f([1.0, 2])


def test_multinom_matches_binom():
    assert quantum_multinom([1, 1]) == quantum_binom(2, 1)
    assert quantum_multinom([2, 3]) == quantum_binom(5, 2)


def test_rescaled_values():
    assert quantum_int0(2) == LaurentPoly({2: 1, 0: 1})
    assert quantum_factorial0(2) == LaurentPoly({2: 1, 0: 1})
    assert quantum_multinom0([1, 1]) == LaurentPoly({2: 1, 0: 1})
    assert quantum_binom0(1, 1) == LaurentPoly({2: 1, 0: 1})


def test_rescaled_constant_term_one():
    for parts in [(1,), (2,), (1, 2), (3, 1), (2, 2, 1), (1, 1, 1, 1)]:
        p = quantum_multinom0(parts)
        assert p.terms.get(0, 0) == 1
        assert p.min_exp() == 0


def test_factorization_identity():
    # the rescaled multinomial times the part factorials gives the total
    def comps(n):
        if n == 0:
            yield ()
            return
        for first in range(1, n + 1):
            for rest in comps(n - first):
                yield (first,) + rest

    for n in range(0, 9):
        for parts in comps(n):
            prod = LaurentPoly.one()
            for p in parts:
                prod = prod * quantum_factorial0(p)
            assert quantum_multinom0(parts) * prod == quantum_factorial0(n), parts


def test_rescaled_multinomial_from_binomials_matches_the_definition():
    """The rescaled multinomial, built as a product of rescaled binomials,
    is q^(sum_{i<j} p_i p_j) times the multinomial on every short tuple."""
    from itertools import combinations, product

    for length in range(5):
        for parts in product(range(5), repeat=length):
            exp = sum(a * b for a, b in combinations(parts, 2))
            assert qarith._quantum_multinom0(parts) == quantum_multinom(parts).shift(exp), parts


def test_binom_at_one_is_ordinary():
    from math import comb

    for n in range(0, 11):
        for k in range(0, n + 1):
            assert quantum_binom(n, k).at_one() == comb(n, k)


def test_bar_examples():
    q = LaurentPoly.q
    assert q(1).bar() == q(-1)
    sym = q(1) + q(-1)
    assert sym.bar() == sym
    x = LaurentPoly.one() / LaurentPoly({2: 1, 0: 1})
    assert x.bar() == LaurentPoly.q(2) / LaurentPoly({2: 1, 0: 1})


def test_bar_is_involution_on_samples():
    for _ in range(200):
        x = rand_rational()
        assert x.bar().bar() == x


def test_quantum_int_bar_invariant():
    for k in range(0, 9):
        p = quantum_int(k)
        assert p.bar() == p


def test_ring_axioms_spot():
    for _ in range(100):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_rational_normal_form():
    q = LaurentPoly.q
    # gcd cancellation
    num = quantum_int(2) * quantum_int(3)
    den = quantum_int(2)
    x = num / den
    assert isinstance(x, LaurentPoly) and x == quantum_int(3)
    # denominators get positive leading coefficient, valuation zero
    y = LaurentPoly.one() / (-q(-3) * LaurentPoly({1: 1, 0: 1}))
    assert isinstance(y, RationalFunction)
    assert y.den.min_exp() == 0
    assert y.den.terms[y.den.max_exp()] > 0
    # structural equality is mathematical equality
    a = quantum_int(2) / quantum_int(4)
    b = (quantum_int(2) * quantum_int(3)) / (quantum_int(4) * quantum_int(3))
    assert a == b
    # a monomial denominator leaves a Laurent polynomial
    assert LaurentPoly({3: 2, 1: -4}) / LaurentPoly.q(5, -2) == LaurentPoly({-2: -1, -4: 2})


def test_field_axioms_spot():
    for _ in range(60):
        x, y = rand_rational(), rand_rational()
        assert x + y == y + x
        assert x * y == y * x
        if not y.is_zero():
            assert (x / y) * y == x
    x = rand_rational()
    with pytest.raises(ZeroDivisionError):
        x / LaurentPoly.zero()


def test_divexact():
    a = quantum_factorial(4)
    b = quantum_factorial(2) * quantum_factorial(2)
    assert a.divexact(b) == quantum_binom(4, 2)
    with pytest.raises(ValueError):
        (LaurentPoly({1: 1, 0: 1})).divexact(LaurentPoly({0: 3}))


laurent = st.dictionaries(st.integers(-4, 4), st.integers(-6, 6), max_size=4).map(LaurentPoly)
nonzero = laurent.filter(bool)
constant = st.integers(-12, 12).filter(bool).map(LaurentPoly.const)


@st.composite
def fraction_inputs(draw):
    """(num, den), drawn to cover constant denominators, negative leading
    coefficients, shared integer content and shared factors, num == den
    and num a multiple of den."""
    num, den = draw(laurent), draw(st.one_of(nonzero, constant))
    shape = draw(st.sampled_from(("plain", "negative", "content", "factor", "equal", "multiple")))
    if shape == "negative" and den.terms[den.max_exp()] > 0:
        den = -den
    elif shape == "content":
        k = draw(st.integers(2, 6))
        num, den = num * k, den * k
    elif shape == "factor":
        g = draw(nonzero)
        num, den = num * g, den * g
    elif shape == "equal":
        num = den
    elif shape == "multiple":
        num = num * den
    return num, den


@given(fraction_inputs())
@settings(max_examples=300, deadline=None)
def test_fraction_matches_the_normal_form_of_the_oracle(pair):
    num, den = pair
    got = qarith._fraction(num, den)
    if num.is_zero():
        assert type(got) is LaurentPoly and got.is_zero()
        return
    want_num, want_den = fraction_normal_form(num, den)
    if want_den.is_one():
        assert type(got) is LaurentPoly and got.terms == want_num.terms
    else:
        assert type(got) is RationalFunction
        assert (got.num.terms, got.den.terms) == (want_num.terms, want_den.terms)


@given(nonzero, nonzero)
@settings(max_examples=200, deadline=None)
def test_list_gcd_and_division_match_the_oracle(a, b):
    a, b = a.shift(-a.min_exp()), b.shift(-b.min_exp())
    g = poly_gcd(a, b)
    got = qarith._poly_gcd(qarith._dense(a.terms)[1], qarith._dense(b.terms)[1])
    assert qarith._sparse(got, 0) == g
    assert (a * b).divexact(b) == divexact(a * b, b) == a
    try:
        want = divexact(a, b)
    except ValueError:
        with pytest.raises(ValueError):
            a.divexact(b)
    else:
        assert a.divexact(b) == want


def test_gcd_cancellation_stress():
    # common factors always cancel: g*a / g*b reduces to a/b
    for _ in range(120):
        g = rand_poly()
        a = rand_poly()
        b = rand_poly()
        if g.is_zero() or b.is_zero():
            continue
        lhs = (g * a) / (g * b)
        rhs = a / b
        assert lhs == rhs, (g, a, b)


def test_rendering_ascending():
    p = LaurentPoly({-2: 1, 0: 3, 5: 2})
    assert str(p) == "q^-2 + 3 + 2*q^5"
    assert str(LaurentPoly.zero()) == "0"
    assert str(LaurentPoly({1: -1, 0: 1})) == "1 - q"


def test_json_round_trip():
    for _ in range(50):
        p = rand_poly()
        assert LaurentPoly.from_json(p.to_json()) == p
        x = rand_rational()
        assert RationalFunction.from_json(coeff_to_json(x)) == x


def test_at_one():
    from fractions import Fraction

    x = quantum_int(3) / quantum_int(2)
    assert x.at_one() == Fraction(3, 2)


def test_constants_hash_as_the_ints_they_equal():
    for c in (-3, -1, 0, 1, 2):
        for x in (LaurentPoly.const(c), LaurentPoly.const(2 * c) / 2):
            assert x == c and hash(x) == hash(c)
            assert {c: "x"}.get(x) == "x"


def test_laurent_rational_hashes_as_its_numerator():
    for _ in range(50):
        p = rand_poly()
        x = (p * quantum_int(3)) / quantum_int(3)
        assert isinstance(x, LaurentPoly) and x == p and hash(x) == hash(p)
    assert {LaurentPoly.q(): "q"}.get(LaurentPoly.q(3) / LaurentPoly.q(2)) == "q"


@given(fraction_inputs())
@settings(max_examples=200, deadline=None)
def test_fraction_memo_shares_each_value_and_never_caches_an_error(pair):
    num, den = pair
    got = qarith._fraction(num, den)
    want = qarith._fraction.__wrapped__(num, den)
    assert type(got) is type(want) and got == want
    # equal operands that are other objects hit the same entry
    again = qarith._fraction(LaurentPoly(dict(num.terms)), LaurentPoly(dict(den.terms)))
    assert again is got
    for _ in range(2):
        with pytest.raises(ZeroDivisionError):
            qarith._fraction(num, LaurentPoly.zero())


def _built_every_way(terms: dict) -> list:
    """The polynomial with these terms, built by each route that makes one."""
    import copy
    import pickle

    p = LaurentPoly(terms)
    shift = LaurentPoly.q(3)
    return [
        LaurentPoly(dict(terms)),
        LaurentPoly._of({e: c for e, c in terms.items() if c}),
        qarith._coefficient(tuple(sorted(p.terms.items()))),
        (p + shift) - shift,
        p * shift * LaurentPoly.q(-3),
        LaurentPoly.from_json(p.to_json()),
        pickle.loads(pickle.dumps(LaurentPoly(terms))),
        copy.copy(LaurentPoly(terms)),
        copy.deepcopy(LaurentPoly(terms)),
    ]


@pytest.mark.parametrize("terms", [{}, {0: 3}, {0: -1}, {2: 1, -2: 1, 0: 1}, {1: -4, 5: 2, 7: 0}])
def test_equal_polynomials_hash_alike_however_built_and_first_hashed(terms):
    count = len(_built_every_way(terms))
    for first in range(count):
        qarith._coefficient.cache_clear()
        built = _built_every_way(terms)
        want = hash(built[first])  # the hash is first read on this one only
        for x in built:
            assert x == built[first] and hash(x) == want, (first, x)


def test_a_hash_read_changes_no_pickle_and_no_copy():
    import copy
    import pickle

    for x in (LaurentPoly({-1: 2, 3: 5}), quantum_int(4), LaurentPoly.const(7)):
        before = pickle.dumps(x)
        hash(x)
        assert pickle.dumps(x) == before
        for twin in (pickle.loads(before), copy.copy(x), copy.deepcopy(x)):
            assert twin == x and hash(twin) == hash(x)
            assert twin.terms is not x.terms


def test_the_shortcuts_keep_the_checks():
    for p in (LaurentPoly.q(True), LaurentPoly.q(1, True), LaurentPoly.q(True, True)):
        assert p == LaurentPoly.q()
        assert [type(x) for x in (*p.terms, *p.terms.values())] == [int, int]
    assert LaurentPoly.q(4, 0).terms == {}
    for args in [(1.0,), (1, 1.0), ("1",), (1, None)]:
        with pytest.raises(TypeError):
            LaurentPoly.q(*args)
    # exceptions are not cached
    for _ in range(3):
        with pytest.raises(ValueError):
            quantum_int(-1)
    assert quantum_int(3) is quantum_int(3)
    # an equal float is another cache key, so it still reaches range()
    with pytest.raises(TypeError):
        quantum_int(3.0)
    one = LaurentPoly.one()
    for x in (quantum_int(3), LaurentPoly.q(-2, 5), LaurentPoly.zero(), quantum_int(3) / quantum_int0(2)):
        assert x * one == x == one * x == x * 1 == 1 * x
        if isinstance(x, LaurentPoly):
            assert x * one is x and one * x is x and x * 1 is x


def test_a_bool_operand_leaves_no_bool_in_a_shared_quotient():
    q = LaurentPoly.q()
    # True / q fills the entry that 1 / q then reads
    for x in (True / q, q.inverse(), LaurentPoly({0: True, 1: True}) / 2):
        parts = (x.num, x.den) if isinstance(x, RationalFunction) else (x,)
        assert all(type(c) is int for p in parts for c in p.terms.values()), x


def test_a_bool_term_is_stored_as_its_int_and_shares_no_bool():
    # coeff_to_json is memoized by value, and q^-1 with coefficient True
    # equals q^-1: the entry it fills must be the int one
    coeff_to_json.cache_clear()
    assert coeff_to_json(LaurentPoly({-1: True})) == {"num": {"-1": 1}, "den": {"0": 1}}
    got = coeff_to_json(LaurentPoly.q(-1))
    assert [type(c) for c in got["num"].values()] == [int]
    p = LaurentPoly({True: True, 2: False})
    assert p == LaurentPoly.q() and [type(x) for x in (*p.terms, *p.terms.values())] == [int, int]
    assert p.to_json() == {"1": 1}


@pytest.mark.parametrize("terms", [{0: 1.5}, {0: 2.0}, {0.5: 1}, {"1": 1}, {0: None}])
def test_a_term_that_is_not_an_int_is_a_type_error(terms):
    with pytest.raises(TypeError):
        LaurentPoly(terms)


def test_a_product_that_cancels_a_term_stores_no_zero():
    got = LaurentPoly({0: 1, 1: 1}) * LaurentPoly({0: 1, 1: -1})
    assert got.terms == {0: 1, 2: -1}
