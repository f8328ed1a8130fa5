"""Per-layer tracing from outside the program.

`Tracer.install()` replaces the public functions and methods of every
heckeweb module with counting wrappers, in every module namespace that
binds them (so `from .qarith import quantum_binom` style bindings and
aliases such as `_Q = RationalFunction.q_power` are covered too), and
`uninstall()` puts the originals back. Each module is a layer. A call that
enters a layer from another one opens a span; a call within the layer it
is already in is only counted. A layer's self time is the time its spans
cover minus the time of the spans they open, so the self times add up to
the time of the outermost spans exactly (integer nanoseconds).

Comparison and hashing dunders (`__eq__`, `__hash__`, `__bool__`, ...)
are not wrapped: their cost lands on the calling layer. Generator
functions are counted but open no span, since their body runs in the
consumer's frames.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
import types
from collections import defaultdict

from workloads import SUITES

LAYERS = (
    "qarith", "symgrp", "hecke", "inducedmod", "uqrep",
    "webcat", "tabgroth", "checks", "cli",
)
WRAPPED_DUNDERS = frozenset({
    "__init__", "__call__", "__str__", "__neg__", "__pow__",
    "__add__", "__radd__", "__sub__", "__rsub__",
    "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
})
# Private helpers wrapped for a count the metrics need.
PRIVATE_WRAPPED = {"qarith": ("_poly_gcd",)}

# metric -> the wrapped callables whose calls it sums. Delegating entry
# points (`__radd__`, `__sub__`, `ModuleElement.act_generator`, ...) reach
# these, so each call is counted once.
CALLS = {
    "qarith.laurent_new.calls": ("qarith.LaurentPoly.__init__",),
    "qarith.laurent_mul.calls": ("qarith.LaurentPoly.__mul__",),
    "qarith.laurent_add.calls": ("qarith.LaurentPoly.__add__",),
    "qarith.rational_new.calls": ("qarith.RationalFunction.__init__",),
    # the only caller of _poly_gcd is the reducing RationalFunction constructor
    "qarith.rational_reduce.calls": ("qarith._poly_gcd",),
    "symgrp.perm_new.calls": ("symgrp.Permutation.__init__",),
    "symgrp.length.calls": ("symgrp.Permutation.length",),
    "symgrp.inverse.calls": ("symgrp.Permutation.inverse",),
    "symgrp.bruhat_leq.calls": ("symgrp.Permutation.bruhat_leq",),
    "symgrp.is_shortest_rep.calls": ("symgrp.is_shortest_rep",),
    "hecke.kl_basis_element.calls": ("hecke.kl_basis_element",),
    "hecke.times_generator.calls": ("hecke.HeckeElement.times_generator",),
    "hecke.bar.calls": ("hecke.bar",),
    "inducedmod.act_generator.calls": ("inducedmod.act_generator",),
    "inducedmod.canonical_basis_element.calls": ("inducedmod.canonical_basis_element",),
    "inducedmod.map.calls": (
        "inducedmod.map_i", "inducedmod.map_Q", "inducedmod.map_j", "inducedmod.map_z",
    ),
    "inducedmod.bar.calls": ("inducedmod.ModuleElement.bar",),
    "uqrep.canonical_basis.calls": ("uqrep.canonical_basis",),
    "uqrep.bar.calls": ("uqrep.bar",),
    "uqrep.dual_canonical.calls": ("uqrep.dual_canonical",),
    "uqrep.intertwiner.calls": ("uqrep.phi_merge", "uqrep.phi_split"),
    "uqrep.action.calls": ("uqrep.act_E", "uqrep.act_F", "uqrep.act_K", "uqrep.act_Eprime"),
    "webcat.evaluate.calls": ("webcat.evaluate",),
    "webcat.matrix_coefficient.calls": ("webcat.matrix_coefficient",),
    "webcat.canonical_basis_diagram.calls": ("webcat.canonical_basis_diagram",),
    "tabgroth.class_vector.calls": ("tabgroth.class_vector",),
    "tabgroth.theorem1_check.calls": ("tabgroth.theorem1_check",),
    "tabgroth.hom_dim.calls": ("tabgroth.hom_dim",),
}
# metric -> the cached builder whose distinct arguments it divides by its calls
MISS_FRAC = {
    "hecke.kl_basis_element.miss_frac": "hecke.kl_basis_element",
    "inducedmod.canonical_basis_element.miss_frac": "inducedmod.canonical_basis_element",
    "uqrep.canonical_basis.miss_frac": "uqrep.canonical_basis",
}
# wrapped callable -> metric name for its inclusive (outermost-call) time
_TIMED = {
    "uqrep.dual_canonical": lambda args: "uqrep.dual_canonical.s",
    "checks.run_suite": lambda args: f"checks.suite.{args[0]}.s",
}
_RATIONAL_OPS = ("qarith.RationalFunction.__add__", "qarith.RationalFunction.__mul__")
_DIVISION_FREE = "qarith.RationalFunction.division_free"

PER_LAYER = (
    [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    + [(name, "count", "lower") for name in CALLS]
    + [(name, "frac", "lower") for name in MISS_FRAC]
    + [("qarith.division_free_frac", "frac", "higher"),
       ("uqrep.dual_canonical.s", "s", "lower")]
    + [(f"checks.suite.{s}.s", "s", "lower") for s in SUITES]
    + [("trace.overhead_frac", "frac", "lower")]
)


def _hashable(value):
    return tuple(value) if isinstance(value, list) else value


class Tracer:
    """Spans and counts for one traced pass, kept in memory until `summary()`."""

    def __init__(self):
        self._counts = {}  # key -> [calls]
        self._distinct = {}  # key -> set of argument tuples
        self._self_ns = {layer: [0] for layer in LAYERS}
        self._timed_ns = defaultdict(int)
        self._root_ns = [0]
        self._current = [None]  # layer of the innermost open span
        self._frames = []  # child-span time of each open span
        self._saved = []  # (namespace, name, original) to restore
        self._division_free = None

    # -- wrapping --------------------------------------------------------

    def _wrap(self, fn, key: str, layer: str):
        calls = self._counts.setdefault(key, [0])
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                calls[0] += 1
                return fn(*args, **kwargs)
            return counted

        current = self._current
        frames = self._frames
        clock = time.perf_counter_ns
        own = self._self_ns[layer]
        root = self._root_ns

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            calls[0] += 1
            outer = current[0]
            if outer is layer:
                return fn(*args, **kwargs)
            current[0] = layer
            frame = [0]
            frames.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ns = clock() - start
                frames.pop()
                current[0] = outer
                own[0] += ns - frame[0]
                if frames:
                    frames[-1][0] += ns
                else:
                    root[0] += ns

        if key in MISS_FRAC.values():
            return self._with_distinct(spanned, key)
        if key in _RATIONAL_OPS:
            return self._with_division_free(spanned)
        if key in _TIMED:
            return self._with_timer(spanned, _TIMED[key])
        return spanned

    def _with_distinct(self, inner, key):
        seen = self._distinct.setdefault(key, set())

        @functools.wraps(inner)
        def wrapper(*args, **kwargs):
            seen.add(tuple(map(_hashable, args)) + tuple(sorted(kwargs.items())))
            return inner(*args, **kwargs)

        return wrapper

    def _with_division_free(self, inner):
        hits = self._counts.setdefault(_DIVISION_FREE, [0])
        both_den_one = self._division_free

        @functools.wraps(inner)
        def wrapper(a, b):
            if both_den_one(a, b):
                hits[0] += 1
            return inner(a, b)

        return wrapper

    def _with_timer(self, inner, metric_of):
        timed_ns = self._timed_ns
        active = set()
        clock = time.perf_counter_ns

        @functools.wraps(inner)
        def wrapper(*args, **kwargs):
            name = metric_of(args)
            if name in active:  # only the outermost call is timed
                return inner(*args, **kwargs)
            active.add(name)
            start = clock()
            try:
                return inner(*args, **kwargs)
            finally:
                timed_ns[name] += clock() - start
                active.discard(name)

        return wrapper

    def install(self) -> None:
        modules = [importlib.import_module(f"heckeweb.{layer}") for layer in LAYERS]
        self._division_free = _division_free_check()  # before is_one is wrapped
        wrappers = {}  # id(original function) -> (original, wrapper)
        try:
            for module, layer in zip(modules, LAYERS):
                for name, obj in list(vars(module).items()):
                    if isinstance(obj, type) and obj.__module__ == module.__name__:
                        self._wrap_class(obj, layer, wrappers)
                    elif _is_function(obj) and obj.__module__ == module.__name__ and (
                        not name.startswith("_") or name in PRIVATE_WRAPPED.get(layer, ())
                    ):
                        wrappers[id(obj)] = (obj, self._wrap(obj, f"{layer}.{name}", layer))
            for module in modules:
                for name, obj in list(vars(module).items()):
                    hit = wrappers.get(id(obj))
                    if hit is not None and hit[0] is obj:
                        self._saved.append((module, name, obj))
                        setattr(module, name, hit[1])
        except BaseException:
            self.uninstall()
            raise

    def _wrap_class(self, cls, layer: str, wrappers: dict) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in WRAPPED_DUNDERS:
                continue
            if isinstance(attr, (staticmethod, classmethod)):
                fn = attr.__func__
            elif isinstance(attr, types.FunctionType):
                fn = attr
            else:
                continue
            wrapper = self._wrap(fn, f"{layer}.{cls.__name__}.{name}", layer)
            # module-level aliases such as `_Q = RationalFunction.q_power`
            wrappers[id(fn)] = (fn, wrapper)
            self._saved.append((cls, name, attr))
            setattr(cls, name, wrapper if fn is attr else type(attr)(wrapper))

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    # -- results ---------------------------------------------------------

    def summary(self) -> dict:
        """Counts, per-layer span times and timed calls, as plain JSON data."""
        return {
            "counts": {k: c[0] for k, c in sorted(self._counts.items()) if c[0]},
            "distinct": {k: len(v) for k, v in sorted(self._distinct.items())},
            "self_ns": {layer: ns[0] for layer, ns in self._self_ns.items()},
            "timed_ns": dict(sorted(self._timed_ns.items())),
            "root_ns": self._root_ns[0],
            "missing": sorted(
                {k for keys in CALLS.values() for k in keys} - set(self._counts)
            ),
        }


def _is_function(obj) -> bool:
    # functools.lru_cache wrappers (symgrp.all_permutations) count as functions
    return isinstance(obj, types.FunctionType) or (
        callable(obj) and hasattr(obj, "cache_info") and hasattr(obj, "__wrapped__")
    )


def _division_free_check():
    """A test, using the unwrapped `LaurentPoly.is_one`, that both operands
    of a RationalFunction add or multiply have denominator 1."""
    from heckeweb.qarith import LaurentPoly, RationalFunction

    is_one = LaurentPoly.is_one

    def den_one(x) -> bool:
        return not isinstance(x, RationalFunction) or is_one(x.den)

    return lambda a, b: den_one(a) and den_one(b)


def counts_of(summary: dict) -> dict:
    """Everything in a summary that must repeat exactly for one seed."""
    return {"counts": summary["counts"], "distinct": summary["distinct"]}


def metrics(summary: dict) -> dict[str, float]:
    """The per-layer metrics of one traced pass, except trace.overhead_frac."""
    counts = summary["counts"]
    out = {f"{layer}.self_s": summary["self_ns"][layer] / 1e9 for layer in LAYERS}
    for name, keys in CALLS.items():
        out[name] = sum(counts.get(k, 0) for k in keys)
    for name, key in MISS_FRAC.items():
        calls = counts.get(key, 0)
        out[name] = summary["distinct"].get(key, 0) / calls if calls else 0.0
    ops = sum(counts.get(k, 0) for k in _RATIONAL_OPS)
    out["qarith.division_free_frac"] = counts.get(_DIVISION_FREE, 0) / ops if ops else 0.0
    timed = summary["timed_ns"]
    out["uqrep.dual_canonical.s"] = timed.get("uqrep.dual_canonical.s", 0) / 1e9
    for s in SUITES:
        out[f"checks.suite.{s}.s"] = timed.get(f"checks.suite.{s}.s", 0) / 1e9
    return out

