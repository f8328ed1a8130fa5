"""The Hecke algebra of S_n in Soergel normalization.

Generators H_i satisfy H_i^2 = (q^-1 - q) H_i + 1 together with the braid
relations; H_w for a reduced word is well defined and the H_w form the
standard basis.  The bar involution fixes the H_i + q and sends q to q^-1;
the canonical basis elements are the unique bar-invariant elements that
are unitriangular over the standard basis with off-diagonal coefficients
in qZ[q].

The algebra is the induced module with both walls empty, acting on itself
from the right (H_w = N_e . H_w), so every operation here is the
`inducedmod` one on `InducedModule.of(n)`; a HeckeElement only prints its
basis vectors as H[...] and has its own JSON form.

The canonical basis has two symmetries that only this module has:
C_{w^-1} is C_w with each H_x replaced by H_{x^-1}, and C_{w0 w w0} is
C_w with each H_x replaced by H_{w0 x w0}.  The inversion is an
anti-involution and conjugation by w0 an automorphism (H_i -> H_{n-i});
both fix q, commute with bar and permute the standard basis, so they
carry the canonical basis to itself.  `inducedmod` therefore steps the
least label of each orbit {w, w^-1, w0 w w0, w0 w^-1 w0} and relabels
its element for the others.  In a module with a wall both maps lead out
of the module, so it builds every element.
"""

from __future__ import annotations

from .qarith import LaurentPoly, json_parser
from .symgrp import Permutation
from . import inducedmod
from .inducedmod import InducedModule, ModuleElement

__all__ = [
    "HeckeElement",
    "standard_basis_element",
    "bar",
    "kl_basis_element",
]

_ONE = LaurentPoly.one()


class HeckeElement(ModuleElement):
    """sum_w c_w H_w, an element of the regular module `parent`."""

    __slots__ = ()
    PREFIX = "H"

    @property
    def n(self) -> int:
        return self.parent.n

    def times_generator(self, i: int) -> "HeckeElement":
        """Right multiplication by H_i: H_w H_i = H_{w s_i} if the length
        goes up, and H_{w s_i} + (q^-1 - q) H_w otherwise."""
        return inducedmod.act_generator(self, i)

    def to_json(self):
        return self._support_json_by_word()

    @staticmethod
    @json_parser
    def from_json(n: int, data) -> "HeckeElement":
        mod = InducedModule.of(n)
        return HeckeElement._from_support_json(mod, data, "w", lambda w: Permutation(tuple(w)))


def standard_basis_element(w: Permutation) -> HeckeElement:
    return HeckeElement(InducedModule.of(w.n), {w: _ONE})


def bar(x: HeckeElement) -> HeckeElement:
    """The bar involution: q -> q^-1 and H_w -> H_{w^-1}^-1."""
    return x.bar()


def kl_basis_element(w: Permutation) -> HeckeElement:
    """The canonical basis element: the canonical basis element of the
    regular module, read as an element of the algebra."""
    cb = inducedmod.canonical_basis_element(InducedModule.of(w.n), w)
    return HeckeElement._of(cb.parent, cb.support)
