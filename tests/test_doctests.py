"""The examples in the docstrings of every heckeweb module run and pass."""

import doctest
import importlib
import pkgutil

import pytest

import heckeweb

MODULES = sorted(f"heckeweb.{info.name}" for info in pkgutil.iter_modules(heckeweb.__path__))


def _examples(module) -> int:
    return sum(len(test.examples) for test in doctest.DocTestFinder().find(module))


@pytest.mark.parametrize("name", MODULES)
def test_every_example_of_the_module_runs_and_passes(name):
    module = importlib.import_module(name)
    result = doctest.testmod(module)
    assert result.failed == 0
    assert result.attempted == _examples(module)


def test_the_modules_with_examples():
    with_examples = {name for name in MODULES if _examples(importlib.import_module(name))}
    assert with_examples >= {"heckeweb.qarith", "heckeweb.symgrp", "heckeweb.webcat",
                             "heckeweb.tabgroth"}
