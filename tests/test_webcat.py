import ast
from itertools import product
from pathlib import Path

import pytest

import heckeweb
from heckeweb.qarith import LaurentPoly, quantum_binom
from heckeweb import checks, uqrep, webcat
from heckeweb.checks import compositions_of

Q = LaurentPoly.q


def test_typing_and_composition():
    w = webcat.merge_web((1, 1, 1), 2)
    assert w.target == (1, 2)
    s = webcat.split_web((1, 2), 2, 1, 1)
    assert s.target == (1, 1, 1)
    both = webcat.compose(s, w)
    assert both.source == (1, 1, 1) and both.target == (1, 1, 1)
    with pytest.raises(ValueError):
        webcat.compose(w, w)
    with pytest.raises(ValueError):
        webcat.split_web((3,), 1, 1, 1)


@pytest.mark.parametrize("source", [(0, 1), (1, -2), (1.0,), (True,), "12"])
def test_a_web_rejects_a_source_that_is_not_a_composition(source):
    """The evaluations build standard vectors on a web's source unchecked,
    so the web itself refuses a source that is not a composition."""
    with pytest.raises(ValueError):
        webcat.Web(source, ())


def test_identity_and_tensor():
    ident = webcat.identity_web((2, 1))
    assert webcat.compose(webcat.merge_web((2, 1), 1), ident) == webcat.merge_web((2, 1), 1)
    t = webcat.tensor(webcat.merge_web((1, 1), 1), webcat.identity_web((1,)))
    assert t.source == (1, 1, 1) and t.target == (2, 1)
    assert t.slices[0].kind == "merge" and t.slices[0].i == 1
    # shifting: merge on the right factor
    t2 = webcat.tensor(webcat.identity_web((1,)), webcat.merge_web((1, 1), 1))
    assert t2.slices[0].i == 2


def test_evaluate_matrix_of_merge():
    mat = webcat.evaluate_matrix(webcat.merge_web((1, 1), 1))
    assert mat[(0, 0)] == uqrep.standard_vector((2,), (0,)).scale(quantum_binom(2, 1))
    assert mat[(0, 1)] == uqrep.standard_vector((2,), (1,))
    assert mat[(1, 0)] == uqrep.standard_vector((2,), (1,)).scale(Q(-1))
    assert mat[(1, 1)].is_zero()


def test_functoriality():
    lower = webcat.merge_web((1, 1, 1), 1)
    upper = webcat.merge_web((2, 1), 1)
    both = webcat.compose(upper, lower)
    m_lower = webcat.evaluate_matrix(lower)
    m_both = webcat.evaluate_matrix(both)
    for eta, image in m_lower.items():
        assert webcat.evaluate(upper, image) == m_both[eta]
    # tensor evaluation is a plain tensor product of matrices
    left, right = webcat.merge_web((1, 1), 1), webcat.split_bundle(2)
    t = webcat.tensor(left, right)
    ml, mr, mt = (webcat.evaluate_matrix(x) for x in (left, right, t))
    for ea in product((0, 1), repeat=2):
        for eb in product((0, 1), repeat=1):
            expected = {}
            for ga, ca in ml[ea].support.items():
                for gb, cb in mr[eb].support.items():
                    expected[ga + gb] = ca * cb
            assert mt[ea + eb].support == expected


def test_equivariance_of_evaluation():
    for n in range(2, 5):
        for comp in compositions_of(n):
            webs = [webcat.merge_web(comp, i) for i in range(1, len(comp))]
            if len(comp) >= 2:
                # a genuinely composite word: merge then split back apart
                cap = webcat.merge_web(comp, 1)
                webs.append(
                    webcat.compose(
                        webcat.split_web(cap.target, 1, comp[0], comp[1]), cap
                    )
                )
            webs.append(webcat.standard_inclusion(comp))
            for web in webs:
                for eta in product((0, 1), repeat=len(comp)):
                    x = uqrep.standard_vector(comp, eta)
                    for act in (uqrep.act_E, uqrep.act_F, uqrep.act_K):
                        assert act(webcat.evaluate(web, x)) == webcat.evaluate(web, act(x))


def test_defining_relations():
    # loop up to a = b = 3, associativity up to 2,2,2, the three-strand
    # relation and the bundle loop up to n = 4 all lie within size 6
    checks.check_web_relations(6)


def test_matrix_coefficient_local_rules():
    # split rules read straight off the embedding
    web = webcat.split_web((5,), 1, 2, 3)
    assert webcat.matrix_coefficient(webcat.LabeledWebDiagram(web, (1,), (1, 0))).is_one()
    assert webcat.matrix_coefficient(webcat.LabeledWebDiagram(web, (1,), (0, 1))) == Q(2)
    assert webcat.matrix_coefficient(webcat.LabeledWebDiagram(web, (0,), (0, 0))).is_one()
    assert webcat.matrix_coefficient(webcat.LabeledWebDiagram(web, (0,), (1, 1))).is_zero()
    # merge rules
    web = webcat.merge_web((2, 3), 1)
    got = webcat.matrix_coefficient(webcat.LabeledWebDiagram(web, (1, 0), (1,)))
    assert got == Q(-3) * quantum_binom(4, 3)
    got = webcat.matrix_coefficient(webcat.LabeledWebDiagram(web, (0, 1), (1,)))
    assert got == quantum_binom(4, 2)
    got = webcat.matrix_coefficient(webcat.LabeledWebDiagram(web, (0, 0), (0,)))
    assert got == quantum_binom(5, 2)


def test_matrix_coefficient_vs_matrix_composition():
    for n in range(2, 4):
        for comp in compositions_of(n):
            webs = [webcat.merge_web(comp, i) for i in range(1, len(comp))]
            for i, a in enumerate(comp, start=1):
                for left in range(1, a):
                    webs.append(webcat.split_web(comp, i, left, a - left))
            if len(comp) >= 2:
                webs.append(
                    webcat.compose(
                        webcat.split_web(
                            comp[: len(comp) - 2] + (comp[-2] + comp[-1],),
                            len(comp) - 1,
                            comp[-2],
                            comp[-1],
                        ),
                        webcat.merge_web(comp, len(comp) - 1),
                    )
                )
            for web in webs:
                mat = webcat.evaluate_matrix(web)
                for bottom in product((0, 1), repeat=len(web.source)):
                    for top in product((0, 1), repeat=len(web.target)):
                        got = webcat.matrix_coefficient(
                            webcat.LabeledWebDiagram(web, bottom, top)
                        )
                        assert got == mat[bottom].coeff(top)


def test_cap_cup_is_hecke_generator_plus_q():
    cap_cup = webcat.compose(webcat.split_web((2,), 1, 1, 1), webcat.merge_web((1, 1), 1))
    mat = webcat.evaluate_matrix(cap_cup)
    for eta in product((0, 1), repeat=2):
        x = uqrep.standard_vector((1, 1), eta)
        assert mat[eta] == uqrep.schur_weyl_H(x, 1) + x.scale(Q(1))


def test_canonical_diagram_trivial_case():
    d = webcat.canonical_basis_diagram((1, 1), (0, 1))
    assert d.web.slices == ()
    assert d.bottom == (0, 1)


def test_canonical_diagram_single_join():
    d = webcat.canonical_basis_diagram((1, 1), (1, 0))
    assert d.web.source == (2,)
    assert webcat.evaluate_canonical_diagram(d) == uqrep.canonical_basis_by_bar(
        (1, 1), (1, 0)
    )


def test_canonical_diagram_seven_factors():
    comp = (3, 1, 4, 4, 2, 1, 1)
    eta = (0, 1, 0, 0, 1, 0, 1)
    d = webcat.canonical_basis_diagram(comp, eta)
    assert d.web.source == (3, 9, 3, 1)
    assert d.bottom == (0, 1, 1, 1)
    assert webcat.evaluate_canonical_diagram(d) == uqrep.canonical_basis_by_bar(comp, eta)


def test_canonical_diagram_join_order_irrelevant():
    # one down-label swallowing two up-labels: expand the multi-vertex both ways
    comp = (2, 1, 1)
    eta = (1, 0, 0)
    library = webcat.canonical_basis_diagram(comp, eta)
    assert library.web.source == (4,)
    left_nested = webcat.compose(
        webcat.split_web((3, 1), 1, 2, 1), webcat.split_web((4,), 1, 3, 1)
    )
    right_nested = webcat.compose(
        webcat.split_web((2, 2), 2, 1, 1), webcat.split_web((4,), 1, 2, 2)
    )
    vec = uqrep.standard_vector((4,), (1,))
    lib_vec = webcat.evaluate_canonical_diagram(library)
    assert webcat.evaluate(left_nested, vec) == lib_vec
    assert webcat.evaluate(right_nested, vec) == lib_vec


def test_canonical_diagrams_match_bar_route():
    for n in range(1, 6):
        for comp in compositions_of(n):
            for eta in product((0, 1), repeat=len(comp)):
                d = webcat.canonical_basis_diagram(comp, eta)
                assert webcat.evaluate_canonical_diagram(
                    d
                ) == uqrep.canonical_basis_by_bar(comp, eta), (comp, eta)


def test_canonical_routes_agree_on_a_nine_factor_listing():
    comp = (2, 1, 3, 1, 4, 4, 4, 4, 2)
    for eta in product((0, 1), repeat=len(comp)):
        assert uqrep.canonical_basis(comp, eta) == uqrep.canonical_basis_by_bar(
            comp, eta
        ), eta


def test_bundles_and_standard_inclusion():
    sb = webcat.split_bundle(3)
    assert sb.source == (3,) and sb.target == (1, 1, 1)
    mb = webcat.merge_bundle(3)
    assert mb.source == (1, 1, 1) and mb.target == (3,)
    inc = webcat.standard_inclusion((2, 1))
    assert inc.source == (2, 1) and inc.target == (1, 1, 1)
    proj = webcat.standard_projection((2, 1))
    assert proj.source == (1, 1, 1) and proj.target == (2, 1)


def test_word_parsing():
    web = webcat.parse_word((1, 1), "m1.s1")
    assert web.source == (1, 1) and web.target == (1, 1)
    with pytest.raises(ValueError):
        webcat.parse_word((3,), "s1")  # ambiguous split needs labels
    explicit = webcat.parse_word((3,), "s1:1,2")
    assert explicit.target == (1, 2)
    assert webcat.parse_word((2, 1), "id").slices == ()
    with pytest.raises(ValueError):
        webcat.parse_word((1, 1), "x1")


def test_json_round_trip():
    web = webcat.parse_word((1, 1, 1), "m1.s1:1,1.m2")
    back = webcat.Web.from_json(web.to_json())
    assert back == web


def test_json_parser_rejects_what_it_cannot_read():
    merge = {"kind": "merge", "i": 1, "comp": [1, 1]}
    split = {"kind": "split", "i": 1, "comp": [2], "left": 1, "right": 1}
    bad = [
        ([2], {**split, "kind": "Merge"}, "unknown kind 'Merge'"),
        ([1, 1], {**merge, "comp": [5, 5]}, r"upper source \(5, 5\)"),
        ([1, 1], {"kind": "merge", "comp": [1, 1]}, "has no 'i'"),
        ([1, 1], {"kind": "merge", "i": 1}, "has no 'comp'"),
        ([2], {key: v for key, v in split.items() if key != "right"}, "has no 'right'"),
        ([1, 1], {**merge, "i": 3}, "merge position 3"),
    ]
    for source, item, message in bad:
        with pytest.raises(ValueError, match=f"web slice 1.*{message}"):
            webcat.Web.from_json({"source": source, "slices": [item]})
    # the second slice is named, not the first
    data = {"source": [1, 1], "slices": [merge, {**merge, "comp": [1, 1]}]}
    with pytest.raises(ValueError, match=r"web slice 2: .*target \(2,\) vs upper source \(1, 1\)"):
        webcat.Web.from_json(data)


def test_a_slice_records_no_type():
    assert webcat.Slice.__slots__ == ("kind", "i", "parts")


@pytest.mark.parametrize("kind, parts", [
    ("bogus", None),  # no such kind
    ("split", None),  # a split without its pair
    ("split", (1,)),
    ("split", [1, 1]),
    ("merge", (1, 1)),  # a merge with parts
])
def test_a_slice_refuses_a_bad_kind_or_parts(kind, parts):
    with pytest.raises(ValueError, match="bad slice"):
        webcat.Slice(kind, 1, parts)


def test_each_type_rule_error_is_raised_in_one_place():
    raisers = {"merge position": set(), "split position": set(), "cannot split label": set()}
    for path in Path(heckeweb.__file__).parent.glob("*.py"):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, ast.FunctionDef):
                for node in ast.walk(fn):
                    if isinstance(node, ast.Raise):
                        for text, where in raisers.items():
                            if text in ast.unparse(node):
                                where.add(f"{path.stem}.{fn.name}")
    assert raisers == {
        "merge position": {"uqrep.merged_type"},
        "split position": {"uqrep.split_type"},
        "cannot split label": {"uqrep.split_type"},
    }


# The webs below are built one compose at a time, the way the library
# built them while each slice recorded its own type.


def _split_bundle_by_compose(m):
    web = webcat.identity_web((m,))
    while any(a > 1 for a in web.target):
        comp = web.target
        j = next(idx for idx, a in enumerate(comp) if a > 1)
        web = webcat.compose(webcat.split_web(comp, j + 1, 1, comp[j] - 1), web)
    return web


def _merge_bundle_by_compose(m):
    web = webcat.identity_web((1,) * m)
    while len(web.target) > 1:
        web = webcat.compose(webcat.merge_web(web.target, 1), web)
    return web


def _canonical_web_by_compose(comp, eta):
    items = list(zip(comp, eta))
    joins = []
    while True:
        pos = next((j for j in range(len(items) - 1) if items[j][1] > items[j + 1][1]), None)
        if pos is None:
            break
        (a, _), (b, _) = items[pos], items[pos + 1]
        joins.append((pos + 1, a, b))
        items[pos : pos + 2] = [(a + b, 1)]
    web = webcat.identity_web(tuple(size for size, _ in items))
    for pos, a, b in reversed(joins):
        web = webcat.compose(webcat.split_web(web.target, pos, a, b), web)
    return web, tuple(bit for _, bit in items)


def _tensor_by_compose(left, right):
    web = webcat.identity_web(left.source + right.source)
    for s, offset in [(s, 0) for s in left.slices] + [(s, len(left.target)) for s in right.slices]:
        if s.kind == "merge":
            step = webcat.merge_web(web.target, s.i + offset)
        else:
            step = webcat.split_web(web.target, s.i + offset, *s.parts)
        web = webcat.compose(step, web)
    return web


def _prefix_targets(web):
    return tuple(webcat.Web(web.source, web.slices[:j]).target for j in range(len(web.slices) + 1))


def test_directly_built_words_match_the_compose_loops():
    for m in range(1, 7):
        for built, by_compose in [
            (webcat.split_bundle(m), _split_bundle_by_compose(m)),
            (webcat.merge_bundle(m), _merge_bundle_by_compose(m)),
        ]:
            assert built == by_compose and built.types == _prefix_targets(by_compose), m
    for n in range(1, 7):
        for comp in compositions_of(n):
            for eta in product((0, 1), repeat=len(comp)):
                d = webcat.canonical_basis_diagram(comp, eta)
                assert (d.web, d.bottom) == _canonical_web_by_compose(comp, eta), (comp, eta)


def test_tensor_matches_the_compose_loop():
    webs = [
        webcat.identity_web((2,)),
        webcat.merge_web((1, 2), 1),
        webcat.split_bundle(3),
        webcat.parse_word((1, 1, 2), "m1.s2:1,1"),
        webcat.parse_word((2, 1), "m1.s1:1,2.m1"),
    ]
    for left, right in product(webs, repeat=2):
        t = webcat.tensor(left, right)
        assert t == _tensor_by_compose(left, right), (left, right)
        assert t.types == _prefix_targets(t)
        assert t.target == left.target + right.target
