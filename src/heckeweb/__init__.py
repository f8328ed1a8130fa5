"""Exact-arithmetic canonical bases, web calculus and hook-tableau classes.

Modules:
    qarith      Laurent polynomials over Z, rational functions, quantum numbers
    symgrp      permutations, Bruhat order, parabolic coset machinery
    hecke       the Hecke algebra and its canonical basis
    inducedmod  mixed induced modules and the four wall-changing maps
    uqrep       tensor representations, intertwiners, bilinear form, bases
    webcat      merge/split diagram words and their exact evaluation
    tabgroth    hook tableaux, class bases, translation matrices
    checks      the desk-scale verification battery
    cli         command line entry point

All values are immutable after construction and all operations are pure.
The value classes with named fields (Permutation, ParabolicSubgroup,
InducedModule, SparseVector and its subclasses, HookTableau, Slice, Web,
LabeledWebDiagram) keep it by `__slots__` and the refusing `__setattr__`
and `__delattr__` of their base `qarith.Immutable`, which also derives
their equality, hash, pickling and repr from their `FIELDS`: each
constructor writes its slots once, through `object.__setattr__`.  A
LaurentPoly or a RationalFunction has its slots written only where it
is built.
Every cache is a `functools.cache` on a pure function: the caches grow
without bound, are safe under concurrent readers (at worst two threads
compute the same value), and `clear_caches()` empties them all.  The one
cached object that is not a value, the CLI's argument parser, is built
once per process and never changed by parsing.
"""

__version__ = "0.1.0"


def clear_caches() -> None:
    """Empty every memo table of the library: call `cache_clear()` on each
    module-level object of a heckeweb module that has one."""
    import importlib
    import pkgutil

    for info in pkgutil.iter_modules(__path__):
        module = importlib.import_module(f"{__name__}.{info.name}")
        for obj in vars(module).values():
            clear = getattr(obj, "cache_clear", None)
            if clear is not None:
                clear()
