"""The value classes' contract: immutable, pickled and copied as equal
objects with equal hashes, hashed as their field tuple, and printed as
`Class(field=value, ...)`."""

import copy
import importlib
import pickle
import pkgutil
from pathlib import Path
from types import SimpleNamespace

import pytest

import heckeweb
from heckeweb import hecke, inducedmod, qarith, symgrp, tabgroth, uqrep, webcat

_ONE = qarith.LaurentPoly.one()
_WEB = webcat.parse_word((1, 1, 2), "m1.s2:1,1")
_WEB_REPR = (
    "Web(source=(1, 1, 2), slices=(Slice(kind='merge', i=1, parts=None), "
    "Slice(kind='split', i=2, parts=(1, 1))))"
)

# (value, its compared fields, its repr)
CASES = {
    "SparseVector": (
        qarith.SparseVector("V", {"a": _ONE}),
        {"parent": "V", "support": {"a": _ONE}},
        "SparseVector(parent='V', support={'a': LaurentPoly(1)})",
    ),
    "TensorVector": (
        uqrep.TensorVector((1, 1), {(1, 0): _ONE, (0, 1): qarith.LaurentPoly.q()}),
        {"parent": (1, 1), "support": {(1, 0): _ONE, (0, 1): qarith.LaurentPoly.q()}},
        "TensorVector(parent=(1, 1), support={(1, 0): LaurentPoly(1), (0, 1): LaurentPoly(q)})",
    ),
    "HeckeElement": (
        hecke.standard_basis_element(symgrp.Permutation((2, 1, 3))),
        {"parent": inducedmod.InducedModule.of(3), "support": {54: _ONE}},
        "HeckeElement(parent=InducedModule(n=3, p_gens=frozenset(), q_gens=frozenset()), "
        "support={54: LaurentPoly(1)})",
    ),
    "ModuleElement": (
        inducedmod.InducedModule.of(3, [1]).standard(symgrp.Permutation((1, 3, 2))),
        {"parent": inducedmod.InducedModule.of(3, [1]), "support": {45: _ONE}},
        "ModuleElement(parent=InducedModule(n=3, p_gens=frozenset({1}), q_gens=frozenset()), "
        "support={45: LaurentPoly(1)})",
    ),
    "InducedModule": (
        inducedmod.InducedModule.of(4, [1], [3]),
        {"n": 4, "p_gens": frozenset({1}), "q_gens": frozenset({3})},
        "InducedModule(n=4, p_gens=frozenset({1}), q_gens=frozenset({3}))",
    ),
    "Permutation": (
        symgrp.Permutation((2, 3, 1)),
        {"one_line": (2, 3, 1)},
        "Permutation(one_line=(2, 3, 1))",
    ),
    "ParabolicSubgroup": (
        symgrp.ParabolicSubgroup(4, frozenset({1, 3})),
        {"n": 4, "generators": frozenset({1, 3})},
        "ParabolicSubgroup(n=4, generators=frozenset({1, 3}))",
    ),
    "HookTableau": (
        tabgroth.HookTableau((1, 2), (2,), (1, 2)),
        {"comp": (1, 2), "column": (2,), "row": (1, 2)},
        "HookTableau(comp=(1, 2), column=(2,), row=(1, 2))",
    ),
    "Slice": (
        webcat.Slice("split", 2, (1, 1)),
        {"kind": "split", "i": 2, "parts": (1, 1)},
        "Slice(kind='split', i=2, parts=(1, 1))",
    ),
    "Web": (
        _WEB,
        {"source": (1, 1, 2), "slices": _WEB.slices},
        _WEB_REPR,
    ),
    "LabeledWebDiagram": (
        webcat.LabeledWebDiagram(_WEB, (1, 0, 1), (0, 1, 1)),
        {"web": _WEB, "bottom": (1, 0, 1), "top": (0, 1, 1)},
        f"LabeledWebDiagram(web={_WEB_REPR}, bottom=(1, 0, 1), top=(0, 1, 1))",
    ),
    "LabeledWebDiagram without top": (
        webcat.LabeledWebDiagram(_WEB, (1, 0, 1)),
        {"web": _WEB, "bottom": (1, 0, 1), "top": None},
        f"LabeledWebDiagram(web={_WEB_REPR}, bottom=(1, 0, 1), top=None)",
    ),
}


@pytest.mark.parametrize("name", CASES)
def test_a_value_refuses_every_write(name):
    value, fields, _ = CASES[name]
    for field in [*type(value).__slots__, "other"]:
        with pytest.raises(AttributeError, match="is immutable"):
            setattr(value, field, None)
        with pytest.raises(AttributeError, match="is immutable"):
            delattr(value, field)
    assert {field: getattr(value, field) for field in fields} == fields


@pytest.mark.parametrize("name", CASES)
def test_a_pickled_or_copied_value_is_equal_with_an_equal_hash(name):
    value, fields, _ = CASES[name]
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(twin) is type(value) and twin == value and not twin != value
        if type(value).__hash__ is not None:
            assert hash(twin) == hash(value)
        if isinstance(value, webcat.Web):  # types is derived, not compared
            assert twin.types == value.types == ((1, 1, 2), (2, 2), (2, 1, 1))


@pytest.mark.parametrize("name", CASES)
def test_a_value_hashes_as_its_field_tuple(name):
    value, fields, _ = CASES[name]
    if isinstance(value, qarith.SparseVector):  # a dict support: unhashable
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)
    else:
        assert hash(value) == hash(tuple(fields.values()))


@pytest.mark.parametrize("name", CASES)
def test_a_value_prints_as_its_fields(name):
    value, _, text = CASES[name]
    assert repr(value) == text


@pytest.mark.parametrize("name", CASES)
def test_an_object_of_another_class_with_the_same_fields_is_not_equal(name):
    value, fields, _ = CASES[name]
    other = SimpleNamespace(**fields)
    assert value != other and other != value
    assert not value == other


def _value_classes():
    """Every Immutable subclass that a heckeweb module defines."""
    for info in pkgutil.iter_modules(heckeweb.__path__):
        importlib.import_module(f"heckeweb.{info.name}")
    found, todo = [], [qarith.Immutable]
    while todo:
        subclasses = todo.pop().__subclasses__()
        found += [cls for cls in subclasses if cls.__module__.startswith("heckeweb.")]
        todo += subclasses
    return found


def test_every_value_class_has_a_case():
    names = {cls.__name__ for cls in _value_classes()}
    assert names and names <= {type(value).__name__ for value, _, _ in CASES.values()}


def test_a_value_class_states_its_fields_and_inherits_the_rest():
    # the overrides that stay: a stored hash (Permutation, InducedModule),
    # and SparseVector's rebuild through _of and its unhashable dict support
    overrides = {
        "Permutation": {"__hash__"},
        "InducedModule": {"__hash__"},
        "SparseVector": {"__hash__", "__reduce__"},
    }
    for cls in _value_classes():
        defined = {"__eq__", "__hash__", "__reduce__", "__repr__"} & set(vars(cls))
        assert defined == overrides.get(cls.__name__, set()), cls
    setters = [
        f"{path.name}: {line.strip()}"
        for path in Path(heckeweb.__file__).parent.glob("*.py")
        for line in path.read_text().splitlines()
        if ".__set__" in line
    ]
    assert setters == []
