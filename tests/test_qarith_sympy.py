"""Property tests of the Laurent and rational-function arithmetic, with
sympy as the independent oracle for reduction, for q -> 1/q and for the
choice of representation."""

from operator import truediv

import sympy as sp
from hypothesis import assume, given, settings, strategies as st

from heckeweb.qarith import LaurentPoly, RationalFunction

Q = sp.Symbol("q")

laurent = st.dictionaries(st.integers(-3, 3), st.integers(-4, 4), max_size=3).map(LaurentPoly)
nonzero = laurent.filter(lambda p: not p.is_zero())
# quotients: a LaurentPoly when the denominator cancels, else a RationalFunction
quotient = st.builds(truediv, laurent, nonzero)
value = st.one_of(laurent, quotient)

examples = settings(max_examples=120, deadline=None)


def to_sympy(p: LaurentPoly):
    return sum((c * Q**e for e, c in p.terms.items()), sp.Integer(0))


def num_den(x) -> tuple[LaurentPoly, LaurentPoly]:
    if isinstance(x, LaurentPoly):
        return x, LaurentPoly.one()
    assert isinstance(x, RationalFunction)
    return x.num, x.den


def rational_to_sympy(x):
    num, den = num_den(x)
    return to_sympy(num) / to_sympy(den)


def has_monomial_denominator(expr) -> bool:
    """Whether expr, cancelled by sympy over the integers, has the
    denominator +-q^k."""
    num, den = sp.fraction(sp.cancel(expr))
    c_top, top = sp.Poly(num, Q, domain="QQ").clear_denoms(convert=True)
    c_bottom, bottom = sp.Poly(den, Q, domain="QQ").clear_denoms(convert=True)
    # expr = (top * c_bottom) / (bottom * c_top), both over ZZ
    _, bottom = (top * int(c_bottom)).cancel(bottom * int(c_top), include=True)
    terms = bottom.terms()
    return len(terms) == 1 and abs(terms[0][1]) == 1


def from_poly(poly: sp.Poly, shift: int = 0) -> LaurentPoly:
    return LaurentPoly({e + shift: int(c) for (e,), c in poly.terms()})


def sympy_normal_form(num: LaurentPoly, den: LaurentPoly):
    """num/den reduced by sympy's Poly.cancel over ZZ, then put in the
    library's stated normalization: the denominator a polynomial with
    nonzero constant term and positive leading coefficient, every power of
    q in the numerator."""
    a, b = num.min_exp(), den.min_exp()
    top = sp.Poly(to_sympy(num.shift(-a)), Q, domain="ZZ")
    bottom = sp.Poly(to_sympy(den.shift(-b)), Q, domain="ZZ")
    sign, p, d = top.cancel(bottom)
    v = min(e for (e,), _ in d.terms())
    p_l, d_l = from_poly(p, a - b - v) * int(sign), from_poly(d, -v)
    if d_l.terms[d_l.max_exp()] < 0:
        p_l, d_l = -p_l, -d_l
    return p_l, d_l


@examples
@given(nonzero, nonzero)
def test_normal_form_matches_sympy_cancel(num, den):
    assert num_den(num / den) == sympy_normal_form(num, den)


@examples
@given(laurent, nonzero)
def test_normal_form_has_the_same_value(num, den):
    x = num / den
    assert sp.cancel(rational_to_sympy(x) - to_sympy(num) / to_sympy(den)) == 0
    _, d = num_den(x)
    assert d.min_exp() == 0 and d.terms[d.max_exp()] > 0


@examples
@given(laurent)
def test_laurent_bar_is_q_to_inverse_q(p):
    assert sp.expand(to_sympy(p.bar()) - to_sympy(p).subs(Q, 1 / Q)) == 0


@examples
@given(quotient)
def test_rational_bar_is_q_to_inverse_q(x):
    assert sp.cancel(rational_to_sympy(x.bar()) - rational_to_sympy(x).subs(Q, 1 / Q)) == 0


@examples
@given(value, value, value)
def test_field_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x and x * y == y * x
    assert x - x == LaurentPoly.zero()


@examples
@given(value)
def test_inverse(x):
    assume(not x.is_zero())
    assert x * x.inverse() == LaurentPoly.one()
    assert x / x == LaurentPoly.one()


@examples
@given(value, value)
def test_sum_and_product_match_sympy(x, y):
    sx, sy = rational_to_sympy(x), rational_to_sympy(y)
    assert sp.cancel(rational_to_sympy(x + y) - (sx + sy)) == 0
    assert sp.cancel(rational_to_sympy(x * y) - sx * sy) == 0


@examples
@given(value, value)
def test_a_result_is_laurent_exactly_when_its_denominator_cancels(x, y):
    sx, sy = rational_to_sympy(x), rational_to_sympy(y)
    results = [
        (x + y, sx + sy),
        (x - y, sx - sy),
        (x * y, sx * sy),
        (2 - x, 2 - sx),
        (x.bar(), sx.subs(Q, 1 / Q)),
    ]
    if not y.is_zero():
        results += [(x / y, sx / sy), (y.inverse(), 1 / sy), (1 / y, 1 / sy)]
    for got, want in results:
        assert sp.cancel(rational_to_sympy(got) - want) == 0
        assert isinstance(got, LaurentPoly) == has_monomial_denominator(want), (got, want)
        if got:  # and in the normal form
            assert num_den(got) == sympy_normal_form(*num_den(got)), got
