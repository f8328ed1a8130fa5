"""Property tests of the Laurent and rational-function arithmetic, with
sympy as the independent oracle for reduction and for q -> 1/q."""

import sympy as sp
from hypothesis import assume, given, settings, strategies as st

from heckeweb.qarith import LaurentPoly, RationalFunction

Q = sp.Symbol("q")

laurent = st.dictionaries(st.integers(-3, 3), st.integers(-4, 4), max_size=3).map(LaurentPoly)
nonzero = laurent.filter(lambda p: not p.is_zero())
rational = st.builds(RationalFunction, laurent, nonzero)

examples = settings(max_examples=120, deadline=None)


def to_sympy(p: LaurentPoly):
    return sum((c * Q**e for e, c in p.terms.items()), sp.Integer(0))


def rational_to_sympy(x: RationalFunction):
    return to_sympy(x.num) / to_sympy(x.den)


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
    if d_l.leading_coeff() < 0:
        p_l, d_l = -p_l, -d_l
    return p_l, d_l


@examples
@given(nonzero, nonzero)
def test_normal_form_matches_sympy_cancel(num, den):
    x = RationalFunction(num, den)
    assert (x.num, x.den) == sympy_normal_form(num, den)


@examples
@given(laurent, nonzero)
def test_normal_form_has_the_same_value(num, den):
    x = RationalFunction(num, den)
    assert sp.cancel(rational_to_sympy(x) - to_sympy(num) / to_sympy(den)) == 0
    assert x.den.min_exp() == 0 and x.den.leading_coeff() > 0


@examples
@given(laurent)
def test_laurent_bar_is_q_to_inverse_q(p):
    assert sp.expand(to_sympy(p.bar()) - to_sympy(p).subs(Q, 1 / Q)) == 0


@examples
@given(rational)
def test_rational_bar_is_q_to_inverse_q(x):
    assert sp.cancel(rational_to_sympy(x.bar()) - rational_to_sympy(x).subs(Q, 1 / Q)) == 0


@examples
@given(rational, rational, rational)
def test_field_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x and x * y == y * x
    assert x - x == RationalFunction.zero()


@examples
@given(rational)
def test_inverse(x):
    assume(not x.is_zero())
    assert x * x.inverse() == RationalFunction.one()
    assert x / x == RationalFunction.one()


@examples
@given(rational, rational)
def test_sum_and_product_match_sympy(x, y):
    sx, sy = rational_to_sympy(x), rational_to_sympy(y)
    assert sp.cancel(rational_to_sympy(x + y) - (sx + sy)) == 0
    assert sp.cancel(rational_to_sympy(x * y) - sx * sy) == 0
