"""Property tests of the shared sparse-vector type against a plain-dict
reference: a vector is the dict of its nonzero coefficients, summed term
by term."""

import pytest
from hypothesis import given, settings, strategies as st

from heckeweb import hecke, inducedmod, tabgroth, uqrep, webcat
from heckeweb.qarith import (
    LaurentPoly, RationalFunction, SparseVector, _coefficient, coeff_to_json,
)

ZERO = LaurentPoly.zero()

laurent = st.dictionaries(st.integers(-3, 3), st.integers(-3, 3), max_size=3).map(LaurentPoly)
nonzero = laurent.filter(bool)
# Laurent coefficients (zero included) and quotients, some of them fractions
coeffs = st.one_of(laurent, st.builds(lambda p, d: p / d, laurent, nonzero))
terms = st.lists(st.tuples(st.sampled_from("abcd"), coeffs), max_size=8)

examples = settings(max_examples=150, deadline=None)


def reference(pairs) -> dict:
    out = {}
    for label, c in pairs:
        out[label] = out.get(label, ZERO) + c
    return {label: c for label, c in out.items() if not c.is_zero()}


def vec(pairs) -> SparseVector:
    return SparseVector.from_terms("V", pairs)


def stores_no_zero(v: SparseVector) -> bool:
    return all(not c.is_zero() for c in v.support.values())


@examples
@given(terms)
def test_from_terms_sums_like_the_reference(a):
    v = vec(a)
    assert v.support == reference(a)
    assert stores_no_zero(v)
    for label in "abcd":
        assert v.coeff(label) == reference(a).get(label, ZERO)


@examples
@given(terms, terms)
def test_add_is_commutative_and_termwise(a, b):
    x, y = vec(a), vec(b)
    assert x + y == y + x
    assert (x + y).support == reference(a + b)
    assert stores_no_zero(x + y)


@examples
@given(terms, terms)
def test_sub_and_neg_invert_add(a, b):
    x, y = vec(a), vec(b)
    assert (x + y) - y == x
    assert (x - y).support == reference(a + [(k, -c) for k, c in b])
    assert -(-x) == x
    assert (x - x).is_zero() and (x + -x) == vec([])
    assert stores_no_zero(x - y) and stores_no_zero(-x)


@examples
@given(terms, coeffs)
def test_scale(a, c):
    x = vec(a)
    assert x.scale(0) == x.scale(ZERO) == vec([])
    assert x.scale(c).support == reference([(k, v * c) for k, v in x.support.items()])
    assert stores_no_zero(x.scale(c))


@examples
@given(terms, terms)
def test_bilinear_form_is_the_orthonormal_dot_product(a, b):
    x, y = vec(a), vec(b)
    want = ZERO
    for label, c in reference(a).items():
        want = want + c * reference(b).get(label, ZERO)
    assert x.bilinear_form(y) == y.bilinear_form(x) == want


def test_different_spaces_do_not_mix():
    one = LaurentPoly.one()
    x = SparseVector.from_terms("V", [("a", one)])
    y = SparseVector.from_terms("W", [("a", one)])
    assert x != y
    with pytest.raises(ValueError):
        x + y
    v = uqrep.standard_vector((1, 1), (1, 0))
    assert v != uqrep.TensorVector((1, 1, 1), {(1, 0, 0): one})
    with pytest.raises(ValueError):
        v - uqrep.standard_vector((1, 1, 1), (1, 0, 0))


def test_json_input_stores_no_zero():
    data = {"comp": [1, 1], "support": [
        {"eta": "10", "coeff": coeff_to_json(ZERO)},
        {"eta": "01", "coeff": coeff_to_json(LaurentPoly.one())},
    ]}
    assert uqrep.TensorVector.from_json(data) == uqrep.standard_vector((1, 1), (0, 1))


ONE = coeff_to_json(LaurentPoly.one())
MERGE = {"kind": "merge", "i": 1, "comp": [1, 1]}


@pytest.mark.parametrize("parse, args, message", [
    (tabgroth.HookTableau.from_json, ({"row": [1], "column": []},), "no field 'type'"),
    (uqrep.TensorVector.from_json, ({"support": []},), "no field 'comp'"),
    (uqrep.TensorVector.from_json, ({"comp": [1], "support": [{"coeff": ONE}]},), "no field 'eta'"),
    (RationalFunction.from_json, ({"num": {"0": 1}},), "no field 'den'"),
    (hecke.HeckeElement.from_json, (2, [{"coeff": ONE}]), "no field 'w'"),
    (inducedmod.ModuleElement.from_json, ({"support": []},), "no field 'module'"),
    (inducedmod.InducedModule.from_json, ({"n": 3, "q_generators": []},), "no field 'p_generators'"),
    (webcat.Web.from_json, ({"slices": []},), "no field 'source'"),
    # a string is not read digit by digit, and a string or boolean is no position
    (webcat.Web.from_json, ({"source": "11", "slices": []},), "not '11'"),
    (webcat.Web.from_json, ({"source": [1, 1], "slices": [{**MERGE, "i": "1"}]},), "position '1'"),
    (webcat.Web.from_json, ({"source": [1, 1], "slices": [{**MERGE, "i": True}]},), "position True"),
    # the writer lists each label once, as a bit string
    (uqrep.TensorVector.from_json, (
        {"comp": [1, 1], "support": [{"eta": "01", "coeff": ONE}, {"eta": "01", "coeff": ONE}]},
    ), "eta '01' is listed twice"),
    (uqrep.TensorVector.from_json, (
        {"comp": [1, 1], "support": [{"eta": [0, 1], "coeff": ONE}]},
    ), "malformed bitstring"),
])
def test_json_parsers_name_what_they_cannot_read(parse, args, message):
    with pytest.raises(ValueError, match=message):
        parse(*args)


@pytest.mark.parametrize("parse, data", [
    (webcat.Web.from_json, {"source": [1.5, 1], "slices": []}),
    (webcat.Web.from_json, {"source": [1, 1], "slices": [{**MERGE, "comp": [1.9, 1]}]}),
    (uqrep.TensorVector.from_json, {"comp": [1.9], "support": []}),
    (uqrep.TensorVector.from_json, {"comp": ["2"], "support": []}),
    (uqrep.TensorVector.from_json, {"comp": [True, 1], "support": []}),
    (tabgroth.HookTableau.from_json, {"type": [1.5], "row": [1], "column": []}),
    (tabgroth.HookTableau.from_json, {"type": [2.0], "row": [1, 1], "column": []}),
    (RationalFunction.from_json, {"num": {"0": True}, "den": {"0": 1}}),
    (RationalFunction.from_json, {"num": {"0": 1}, "den": {"0": "3"}}),
    (uqrep.TensorVector.from_json, {"comp": [1, 1], "support": [
        {"eta": "01", "coeff": {"num": {"0": 2.5}, "den": {"0": 1}}},
    ]}),
    (inducedmod.InducedModule.from_json, {"n": True, "p_generators": [], "q_generators": []}),
    (inducedmod.InducedModule.from_json, {"n": "3", "p_generators": [], "q_generators": []}),
    (inducedmod.InducedModule.from_json, {"n": 3.0, "p_generators": [], "q_generators": []}),
    (inducedmod.InducedModule.from_json, {"n": 3, "p_generators": [1.5], "q_generators": []}),
])
def test_json_parsers_reject_a_part_that_is_no_int(parse, data):
    with pytest.raises(ValueError, match="must be integers"):
        parse(data)


@pytest.mark.parametrize("row, column", [([1.0], [2]), ([1], [2.0]), ([True], [2]), (["1"], [2])])
def test_tableau_json_rejects_an_entry_that_is_no_int(row, column):
    data = {"type": [1, 1], "row": row, "column": column}
    with pytest.raises(ValueError, match="entries must be integers"):
        tabgroth.HookTableau.from_json(data)
    assert str(tabgroth.HookTableau.from_json({**data, "row": [1], "column": [2]})) == "row[1] col[2]"


@pytest.mark.parametrize("build", [
    lambda: uqrep.canonical_basis((1, 1), (True, 0.5)),
    lambda: uqrep.standard_vector((1, 1), (0, 1.9)),
    lambda: webcat.LabeledWebDiagram(webcat.merge_web((1, 1), 1), (1, 2), (0,)),
    lambda: webcat.LabeledWebDiagram(webcat.merge_web((1, 1), 1), (1, 0), (1.0,)),
    # one label too many or too few
    lambda: webcat.LabeledWebDiagram(webcat.merge_web((1, 1), 1), (1, 0, 0), (0,)),
    lambda: webcat.LabeledWebDiagram(webcat.merge_web((1, 1), 1), (1, 0), ()),
])
def test_a_label_that_is_not_the_int_0_or_1_is_rejected(build):
    with pytest.raises(ValueError, match="bad 0/1 sequence"):
        build()


def test_unitriangular_shape_check():
    one, q = LaurentPoly.one(), LaurentPoly.q()
    good = SparseVector.from_terms("V", [("a", one), ("b", q + q * q)])
    good.check_unitriangular("a")
    bad = [
        [("a", one), ("b", q / (one + q * q))],  # a fraction
        [("a", one), ("b", one + q)],  # constant term off the diagonal
        [("a", one), ("b", LaurentPoly.q(-1))],  # negative power
        [("a", q), ("b", q)],  # diagonal not 1
        [("b", q)],  # no diagonal
    ]
    for terms in bad:
        with pytest.raises(ArithmeticError):
            SparseVector.from_terms("V", terms).check_unitriangular("a")
    with pytest.raises(ArithmeticError):
        good.check_unitriangular("a", below=lambda label: label < "a")
    # the off-diagonal 1 is the diagonal's own object, not only an equal one
    shared = SparseVector("V", {"a": one, "b": one})
    assert shared.support["b"] is shared.support["a"]
    with pytest.raises(ArithmeticError, match="breaks unitriangularity"):
        shared.check_unitriangular("a")


_ONE, _Q = _coefficient(((0, 1),)), _coefficient(((1, 1),))


@pytest.mark.parametrize("support, message", [
    # the interned 1 of the diagonal again at a second label
    ({"a": _ONE, "b": _Q, "c": _ONE}, "coefficient 1 at c breaks unitriangularity"),
    # two labels break the shape: the first in support order is named
    ({"a": _ONE, "c": LaurentPoly.q(-1), "b": _ONE + _Q},
     "coefficient q^-1 at c breaks unitriangularity"),
    ({"a": _ONE, "b": _ONE + _Q, "c": LaurentPoly.q(-1)},
     "coefficient 1 + q at b breaks unitriangularity"),
    ({"b": LaurentPoly.q(-1), "a": _Q}, "coefficient q^-1 at b breaks unitriangularity"),
    ({"a": _Q, "b": LaurentPoly.q(-1)}, "diagonal coefficient q at a"),
    # a coefficient that is not a Laurent polynomial, off and on the diagonal
    ({"a": _ONE, "b": _Q / (_ONE + _Q * _Q)},
     "coefficient (q)/(1 + q^2) at b is not a Laurent polynomial"),
    ({"a": _Q / (_ONE + _Q * _Q), "b": _Q},
     "coefficient (q)/(1 + q^2) at a is not a Laurent polynomial"),
])
def test_the_shape_check_without_below_names_the_first_label_that_breaks_it(support, message):
    x = SparseVector._of("V", support)
    for below in (None, lambda label: True):
        with pytest.raises(ArithmeticError) as refused:
            x.check_unitriangular("a", below)
        assert str(refused.value) == message


shared = st.sampled_from([
    _ONE, _Q, _coefficient(((1, 2), (3, -1))), _coefficient(((-1, 1),)), LaurentPoly.one(),
    _Q / (_ONE + _Q),
])


@examples
@given(st.dictionaries(st.sampled_from("abcd"), shared, max_size=4))
def test_the_shape_check_without_below_reads_as_with_a_below_that_holds(support):
    """The check without `below` collects the distinct coefficients; with
    a predicate it walks the labels.  Both accept the same vectors and
    name the same label."""
    x = SparseVector._of("V", support)

    def outcome(*below):
        try:
            x.check_unitriangular("a", *below)
        except ArithmeticError as refused:
            return str(refused)

    assert outcome() == outcome(lambda label: True)
