"""Exact arithmetic in Z[q,q^-1] and its field of fractions.

A Laurent polynomial is stored as a dict mapping integer exponents to
nonzero integer coefficients (arbitrary precision).  The zero polynomial
is the empty dict.  Every value in Z[q,q^-1] is a LaurentPoly, and the
ring operations keep it one.  A RationalFunction exists only when a
division leaves a denominator: it is a reduced fraction whose
denominator is an honest polynomial in q with positive leading
coefficient, all negative powers of q having been pushed into the
numerator, and the gcd (including the shared integer content)
cancelled.  The gcd and the exact quotients run on dense integer
coefficient lists, by the primitive polynomial remainder sequence
(Brown, J. ACM 18, 1971); a constant denominator needs only the integer
gcd.  The one normalizer behind every division is memoized by its
operand values, so each distinct quotient is reduced once and its
result is shared; no value changes after construction, so sharing is
safe.  For the same reason a LaurentPoly computes its hash once, on
first use, and keeps it, so a value that keys many memo lookups is
hashed once; and values are shared, not copied, where they can be:
`quantum_int` is memoized, a product with 1 is the other operand itself,
and `LaurentPoly.q` builds a monomial of exact ints without the
constructor's checks.  Every operation that can cancel the denominator
(`/`, `inverse`, `bar`, the field operations on fractions and
`RationalFunction.from_json`) returns a LaurentPoly when it does, so
each value has exactly one representation and structural equality
coincides with mathematical equality.  SparseVector is the finite
linear combination of labelled basis vectors with these coefficients
which the Hecke algebra, its induced modules and the tensor
representations all use.

>>> str(quantum_int(3))
'q^-2 + 1 + q^2'
>>> str(quantum_binom(2, 1))
'q^-1 + q'
>>> one_over = 1 / quantum_int0(2)
>>> str(one_over.bar())
'(q^2)/(1 + q^2)'
>>> type(quantum_int(2) * quantum_int(3) / quantum_int(2)).__name__
'LaurentPoly'
"""

from __future__ import annotations

from functools import cache, wraps
from math import gcd as _int_gcd
from operator import attrgetter

__all__ = [
    "LaurentPoly",
    "RationalFunction",
    "SparseVector",
    "coeff_to_json",
    "common_denominator",
    "json_parser",
    "quantum_int",
    "quantum_factorial",
    "quantum_binom",
    "quantum_multinom",
    "quantum_int0",
    "quantum_factorial0",
    "quantum_binom0",
    "quantum_multinom0",
]


class Immutable:
    """The base of the value classes with named fields.  A class lists its
    compared fields once, in `FIELDS`; equality (with its own class only),
    the hash of the field tuple, pickling through the constructor and the
    repr `Class(field=value, ...)` follow from that list.  A constructor
    writes each slot once, past the refusing `__setattr__`, through
    `object.__setattr__`."""

    __slots__ = ()

    def __init_subclass__(cls):
        # the field tuple, read at C speed (attrgetter of one name gives a bare value)
        get = attrgetter(*cls.FIELDS)
        cls._values = property(get if len(cls.FIELDS) > 1 else lambda self: (get(self),))

    def __eq__(self, other):
        if other is self:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return self._values == other._values

    def __hash__(self):
        return hash(self._values)

    def __reduce__(self):
        return type(self), self._values

    def __repr__(self):
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self.FIELDS, self._values))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set {name}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot delete {name}")


class LaurentPoly:
    """Sparse Laurent polynomial in q with integer coefficients."""

    # _hash is written on the first hash() and never copied: pickling and
    # copying rebuild a value from its terms alone
    __slots__ = ("terms", "_hash")

    def __init__(self, terms=None):
        """The polynomial with the {exponent: coefficient} terms, zeros
        dropped.  Exponents and coefficients must be ints; a bool is taken
        as the int it equals, so no bool is stored."""
        self.terms = out = {}
        if terms:
            for e, c in terms.items():
                if type(e) is not int or type(c) is not int:
                    if not isinstance(e, int) or not isinstance(c, int):
                        raise TypeError(f"LaurentPoly terms are ints, not q^{e!r} with {c!r}")
                    e, c = int(e), int(c)
                if c:
                    out[e] = c

    @staticmethod
    def _of(terms: dict) -> "LaurentPoly":
        """The polynomial with the given terms, which must hold no zero
        coefficient; the dict is taken over, not copied or filtered."""
        p = object.__new__(LaurentPoly)
        p.terms = terms
        return p

    # -- constructors ------------------------------------------------

    @staticmethod
    def zero() -> "LaurentPoly":
        return LaurentPoly()

    @staticmethod
    def one() -> "LaurentPoly":
        return LaurentPoly._of({0: 1})

    @staticmethod
    def q(exp: int = 1, coeff: int = 1) -> "LaurentPoly":
        """The monomial coeff * q^exp; checked by the constructor unless
        both are exact ints."""
        if type(exp) is int and type(coeff) is int:
            return LaurentPoly._of({exp: coeff} if coeff else {})
        return LaurentPoly({exp: coeff})

    @staticmethod
    def const(c: int) -> "LaurentPoly":
        return LaurentPoly({0: c})

    # -- predicates and views ----------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == {0: 1}

    def min_exp(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no valuation")
        return min(self.terms)

    def max_exp(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no degree")
        return max(self.terms)

    def content(self) -> int:
        """Positive gcd of the coefficients (0 for the zero polynomial)."""
        g = 0
        for c in self.terms.values():
            g = _int_gcd(g, abs(c))
        return g

    # -- ring operations ---------------------------------------------

    # An operand that is neither a LaurentPoly nor an int gives
    # NotImplemented, so a RationalFunction operand is handled by its class.

    def __add__(self, other):
        other = _to_laurent(other)
        if other is NotImplemented:
            return other
        out = dict(self.terms)
        for e, c in other.terms.items():
            c += out.get(e, 0)
            if c:
                out[e] = c
            else:
                del out[e]
        return LaurentPoly._of(out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._of({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        """The product; the other operand itself when one side is 1."""
        if isinstance(other, int):
            if not other:
                return LaurentPoly._of({})
            if other == 1:
                return self
            return LaurentPoly._of({e: c * other for e, c in self.terms.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if len(other.terms) == 1 and other.terms.get(0) == 1:
            return self
        if len(self.terms) == 1:
            if self.terms.get(0) == 1:
                return other
            self, other = other, self
        if len(other.terms) == 1:
            ((e2, c2),) = other.terms.items()
            return LaurentPoly._of({e + e2: c * c2 for e, c in self.terms.items()})
        out: dict[int, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly._of({e: c for e, c in out.items() if c})

    __rmul__ = __mul__

    def __truediv__(self, other):
        """The reduced fraction: a LaurentPoly when other divides self."""
        other = _to_laurent(other)
        if other is NotImplemented:
            return other
        return _fraction(self, other)

    def __rtruediv__(self, other):
        other = _to_laurent(other)
        if other is NotImplemented:
            return other
        return _fraction(other, self)

    def inverse(self):
        return _fraction(LaurentPoly.one(), self)

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            pass
        # a constant hashes as the int it equals
        if self.terms.keys() <= {0}:
            h = hash(self.terms.get(0, 0))
        else:
            h = hash(frozenset(self.terms.items()))
        self._hash = h
        return h

    def __reduce__(self):
        return LaurentPoly, (self.terms,)

    def __bool__(self):
        return bool(self.terms)

    # -- q-specific operations ---------------------------------------

    def bar(self) -> "LaurentPoly":
        """Substitute q -> q^-1."""
        return LaurentPoly._of({-e: c for e, c in self.terms.items()})

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by q^k."""
        return LaurentPoly._of({e + k: c for e, c in self.terms.items()})

    def at_one(self) -> int:
        """Evaluate at q = 1."""
        return sum(self.terms.values())

    def divexact(self, other: "LaurentPoly") -> "LaurentPoly":
        """Exact division; raises if the division leaves a remainder."""
        if other.is_zero():
            raise ZeroDivisionError("division by zero Laurent polynomial")
        if self.is_zero():
            return LaurentPoly.zero()
        vn, num = _dense(self.terms)
        vd, den = _dense(other.terms)
        return _sparse(_divide(num, den), vn - vd)

    # -- rendering ----------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms):
            c = self.terms[e]
            if e == 0:
                body = str(abs(c))
            else:
                head = "" if abs(c) == 1 else f"{abs(c)}*"
                power = "q" if e == 1 else f"q^{e}"
                body = head + power
            if not parts:
                parts.append(("-" if c < 0 else "") + body)
            else:
                parts.append(("- " if c < 0 else "+ ") + body)
        return " ".join(parts)

    def __repr__(self):
        return f"LaurentPoly({self})"

    def to_json(self) -> dict:
        return {str(e): c for e, c in sorted(self.terms.items())}

    @staticmethod
    def from_json(data: dict) -> "LaurentPoly":
        for e, c in data.items():
            if type(c) is not int:
                raise ValueError(f"coefficients must be integers: q^{e} has {c!r}")
        return LaurentPoly({int(e): c for e, c in data.items()})


def _to_laurent(x):
    """x as a LaurentPoly if it is one or an int, else NotImplemented."""
    if isinstance(x, LaurentPoly):
        return x
    if isinstance(x, int):
        return LaurentPoly.const(x)
    return NotImplemented


@cache
def _coefficient(terms: tuple) -> LaurentPoly:
    """The Laurent polynomial with these sorted nonzero (exponent,
    coefficient) pairs, one shared object per value."""
    return LaurentPoly(dict(terms))


# -- polynomials over Z[q] as dense coefficient lists ------------------
#
# A nonzero polynomial of degree d is a list of d + 1 ints, the
# coefficient of q^k at index k, with a nonzero last entry.


def _dense(terms: dict) -> tuple[int, list]:
    """(v, coefficients) for the nonzero Laurent polynomial with these
    terms and valuation v: q^-v times it as a dense list."""
    v = min(terms)
    out = [0] * (max(terms) - v + 1)
    for e, c in terms.items():
        out[e - v] = c
    return v, out


def _sparse(coeffs: list, shift: int) -> LaurentPoly:
    """q^shift times the polynomial with these coefficients."""
    return LaurentPoly._of({k + shift: c for k, c in enumerate(coeffs) if c})


def _divide(a: list, b: list) -> list:
    """The exact quotient a / b; ValueError if b does not divide a."""
    db, lead = len(b) - 1, b[-1]
    r = a[:]
    out = [0] * (len(a) - db)
    for k in range(len(a) - 1 - db, -1, -1):
        c, rem = divmod(r[k + db], lead)
        if rem:
            raise ValueError("inexact Laurent division")
        if c:
            out[k] = c
            for j in range(db):
                r[k + j] -= c * b[j]
    if not out or any(r[:db]):
        raise ValueError("inexact Laurent division")
    return out


def _poly_gcd(a: list, b: list) -> list:
    """Gcd in Z[q] of two nonzero polynomials: the last nonzero member of
    their primitive polynomial remainder sequence (Brown, J. ACM 18,
    1971), with positive leading coefficient, times the gcd of their
    integer contents."""
    ca, cb = _int_gcd(*a), _int_gcd(*b)
    if ca != 1:
        a = [c // ca for c in a]
    if cb != 1:
        b = [c // cb for c in b]
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        # a pseudo-remainder of a by b, each top term cancelled by the
        # smallest integer multiples
        r, db, lead = a[:], len(b) - 1, b[-1]
        while len(r) > db:
            top = r.pop()
            g = _int_gcd(top, lead)
            if lead != g:
                scale = lead // g
                r = [c * scale for c in r]
            top //= g
            k = len(r) - db
            for j in range(db):
                r[k + j] -= top * b[j]
            while r and not r[-1]:
                r.pop()
        if not r:
            break
        g = _int_gcd(*r)
        a, b = b, [c // g for c in r] if g != 1 else r
    else:
        b = [1]
    if b[-1] < 0:
        b = [-c for c in b]
    g = _int_gcd(ca, cb)
    return b if g == 1 else [c * g for c in b]


@cache
def _fraction(num: LaurentPoly, den: LaurentPoly):
    """num/den in normal form: the LaurentPoly it equals when den divides
    num, else a RationalFunction.  A constant denominator only shares
    integer content with the numerator, so it needs no polynomial gcd.
    Memoized by the values of num and den, never by identity; a zero
    denominator raises on every call, as exceptions are not cached."""
    if den.is_zero():
        raise ZeroDivisionError("division by the zero Laurent polynomial")
    if num.is_zero():
        return num
    vn, p = _dense(num.terms)
    vd, d = _dense(den.terms)
    g = [_int_gcd(d[0], *p)] if len(d) == 1 else _poly_gcd(p, d)
    if g != [1]:
        p, d = _divide(p, g), _divide(d, g)
    if d[-1] < 0:
        p, d = [-c for c in p], [-c for c in d]
    p = _sparse(p, vn - vd)
    if d == [1]:
        return p
    return RationalFunction(p, _sparse(d, 0))


def _num_den(x) -> tuple[LaurentPoly, LaurentPoly]:
    """x as a (numerator, denominator) pair."""
    if isinstance(x, RationalFunction):
        return x.num, x.den
    p = _to_laurent(x)
    if p is NotImplemented:
        raise TypeError(f"unsupported operand type {type(x).__name__}")
    return p, LaurentPoly.one()


def json_parser(parse):
    """Make a missing field in a from_json parser's input a ValueError naming it."""

    @wraps(parse)
    def parse_or_name_the_field(*args, **kwargs):
        try:
            return parse(*args, **kwargs)
        except KeyError as exc:
            raise ValueError(f"JSON input has no field {exc.args[0]!r}") from None

    return parse_or_name_the_field


class RationalFunction:
    """Reduced fraction of integer Laurent polynomials whose denominator
    is not 1.  Built by `/` (or `inverse`), never directly: the
    constructor stores a pair already in normal form."""

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly):
        self.num = num
        self.den = den

    # a zero or a Laurent value is a LaurentPoly, never a RationalFunction

    def is_zero(self) -> bool:
        return False

    def __bool__(self):
        return True

    # -- field operations ----------------------------------------------

    def __add__(self, other):
        num, den = _num_den(other)
        return _fraction(self.num * den + num * self.den, self.den * den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        num, den = _num_den(other)
        return _fraction(self.num * num, self.den * den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        num, den = _num_den(other)
        return _fraction(self.num * den, self.den * num)

    def __rtruediv__(self, other):
        num, den = _num_den(other)
        return _fraction(num * self.den, den * self.num)

    def inverse(self):
        return _fraction(self.den, self.num)

    def __eq__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    # -- q-specific operations ------------------------------------------

    def bar(self):
        """Substitute q -> q^-1 in numerator and denominator."""
        return _fraction(self.num.bar(), self.den.bar())

    def at_one(self):
        """Exact evaluation at q = 1 as a Fraction."""
        from fractions import Fraction

        d = self.den.at_one()
        if d == 0:
            raise ZeroDivisionError("denominator vanishes at q = 1")
        return Fraction(self.num.at_one(), d)

    # -- rendering -------------------------------------------------------

    def __str__(self):
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"RationalFunction({self})"

    @staticmethod
    @json_parser
    def from_json(data: dict):
        """The coefficient written by coeff_to_json: a LaurentPoly when
        the reduced denominator is 1."""
        return _fraction(
            LaurentPoly.from_json(data["num"]), LaurentPoly.from_json(data["den"])
        )


@cache
def coeff_to_json(c) -> dict:
    """The JSON of a coefficient: always a fraction, with denominator
    {"0": 1} for a LaurentPoly.  Built once per value and shared, so no
    caller may change it."""
    if isinstance(c, LaurentPoly):
        return {"num": c.to_json(), "den": {"0": 1}}
    num, den = _num_den(c)
    return {"num": num.to_json(), "den": den.to_json()}


def common_denominator(coeffs):
    """The lcm of the denominators of the coefficients, or None when
    every one is a LaurentPoly."""
    out = None
    for c in coeffs:
        if isinstance(c, RationalFunction):
            d = c.den
            if out is None:
                out = d
            elif d != out:
                # d / gcd(out, d) is the reduced denominator of out / d
                out = out * _num_den(out / d)[1]
    return out


# -- finite linear combinations ------------------------------------------


class SparseVector(Immutable):
    """A finite linear combination of labelled basis vectors of the space
    `parent`, stored as a dict from label to nonzero coefficient (a
    LaurentPoly, or a RationalFunction after a division); no zero
    coefficient is ever stored, so equal vectors have equal dicts.

    Subclasses fix only the format: `_sort_key(label)` orders the terms
    (leading terms first), `_label(label)` renders a basis vector,
    `_shown(label)` gives the label as messages name it, and
    `PARENTHESIZE_FRACTIONS` says whether a non-Laurent coefficient is
    printed in parentheses.  A subclass's constructor may take other
    labels than it stores (ModuleElement takes Permutations and stores
    their codes); the vector operations build their results through
    `_of`, which takes a support over as it is."""

    __slots__ = FIELDS = ("parent", "support")
    __hash__ = None  # the support is a dict
    PARENTHESIZE_FRACTIONS = False

    def __init__(self, parent, support: dict):
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "support", support)

    @classmethod
    def _of(cls, parent, support: dict):
        """The vector with this support, taken over as it is: its labels
        are the ones the class stores, which the constructor may not take."""
        v = object.__new__(cls)
        object.__setattr__(v, "parent", parent)
        object.__setattr__(v, "support", support)
        return v

    def __reduce__(self):
        return self._of, (self.parent, self.support)

    @classmethod
    def from_terms(cls, parent, terms, start=()):
        """The vector sum of c * [label] over the (label, c) pairs of
        `terms`, added onto the support dict `start`, with labels as the
        constructor takes them."""
        return cls(parent, _summed(terms, start))

    def coeff(self, label):
        return self.support.get(label, _ZERO)

    def _shown(self, label):
        return label

    def is_zero(self) -> bool:
        return not self.support

    def _check_same_space(self, other) -> None:
        if type(other) is not type(self) or other.parent != self.parent:
            raise ValueError(
                f"cannot combine {type(self).__name__} of {self.parent} "
                f"with {type(other).__name__} of {other.parent}"
            )

    def __add__(self, other):
        self._check_same_space(other)
        return self._of(self.parent, _summed(other.support.items(), self.support))

    def __neg__(self):
        return self._of(self.parent, {k: -c for k, c in self.support.items()})

    def __sub__(self, other):
        self._check_same_space(other)
        negated = ((k, -c) for k, c in other.support.items())
        return self._of(self.parent, _summed(negated, self.support))

    def scale(self, c):
        """c times the vector, for c an int, LaurentPoly or RationalFunction."""
        if not c:
            return self._of(self.parent, {})
        if isinstance(c, int):
            c = LaurentPoly.const(c)
        return self._of(self.parent, {k: v * c for k, v in self.support.items()})

    def bilinear_form(self, other):
        """The form making the labelled basis orthonormal."""
        self._check_same_space(other)
        small, big = sorted((self.support, other.support), key=len)
        out = _ZERO
        for k, c in small.items():
            d = big.get(k)
            if d is not None:
                out = out + c * d
        return out

    def terms_sorted(self):
        """(label, coeff) pairs, leading terms first."""
        key = self._sort_key
        return sorted(self.support.items(), key=lambda item: key(item[0]), reverse=True)

    def __str__(self):
        """The terms, leading first, joined by " + "; each coefficient's
        printed prefix ("", "c*" or "(c)*") is rendered once per value."""
        if not self.support:
            return "0"
        label, paren = self._label, self.PARENTHESIZE_FRACTIONS
        return " + ".join([_prefix(c, paren) + label(k) for k, c in self.terms_sorted()])

    def check_unitriangular(self, top, below=None) -> None:
        """Raise ArithmeticError unless the coefficient at `top` is 1 and
        every other one lies in qZ[q], at a label with below(label) when
        the predicate `below` is given: the shape of a canonical basis
        element.  The distinct coefficient objects off the diagonal are
        collected at C speed and each is checked once; the labels are
        walked only to name the first one in support order that breaks
        the shape."""
        shown = self._shown
        if top not in self.support:
            raise ArithmeticError(f"no diagonal coefficient at {shown(top)}")
        off = self.support.copy()
        diagonal = off.pop(top)
        values = off.values()
        distinct = dict(zip(map(id, values), values)).values()
        if isinstance(diagonal, LaurentPoly) and diagonal.is_one() and all(
            isinstance(c, LaurentPoly) and c.terms and min(c.terms) >= 1 for c in distinct
        ) and (below is None or all(map(below, off))):
            return
        for label, c in self.support.items():
            if not isinstance(c, LaurentPoly):
                raise ArithmeticError(
                    f"coefficient {c} at {shown(label)} is not a Laurent polynomial"
                )
            if label == top:
                if not c.is_one():
                    raise ArithmeticError(f"diagonal coefficient {c} at {shown(top)}")
            elif c.min_exp() < 1 or (below is not None and not below(label)):
                raise ArithmeticError(f"coefficient {c} at {shown(label)} breaks unitriangularity")

    def _support_json(self, key: str, label_json) -> list:
        return [
            {key: label_json(k), "coeff": coeff_to_json(c)} for k, c in self.terms_sorted()
        ]

    @classmethod
    def _from_support_json(cls, parent, items, key: str, parse_label):
        """The vector written by _support_json, which lists each label once."""
        support = {}
        for item in items:
            label = parse_label(item[key])
            if label in support:
                raise ValueError(f"{key} {item[key]!r} is listed twice")
            support[label] = RationalFunction.from_json(item["coeff"])
        return cls.from_terms(parent, support.items())


@cache
def _prefix(c, parenthesize_fractions: bool) -> str:
    """The text printed before a basis vector with coefficient c: nothing
    for 1, parentheses around a Laurent polynomial of several terms and,
    when asked, around a fraction."""
    if isinstance(c, LaurentPoly):
        if c.is_one():
            return ""
        parenthesize = len(c.terms) > 1
    else:
        parenthesize = parenthesize_fractions
    return f"({c})*" if parenthesize else f"{c}*"


def _summed(terms, start) -> dict:
    """The support dict start plus c * [label] for each (label, c) of terms."""
    out = dict(start)
    for label, c in terms:
        prev = out.get(label)
        if prev is not None:
            c = prev + c
        if not c:
            out.pop(label, None)
        else:
            out[label] = c
    return out


_ZERO = LaurentPoly.zero()


# -- quantum integers, factorials, binomials ---------------------------

# The memoized ones below return shared LaurentPolys, which is safe because
# nothing mutates a LaurentPoly after construction.


@cache
def quantum_int(k: int) -> LaurentPoly:
    """[k] = (q^k - q^-k)/(q - q^-1) = q^(k-1) + q^(k-3) + ... + q^(1-k).
    The check may sit inside the memo: a lone float or bool is another
    cache key than the int it equals, so it always reaches the check."""
    if type(k) is not int or k < 0:
        raise ValueError(f"quantum integer needs an integer k >= 0, got {k!r}")
    return LaurentPoly({k - 1 - 2 * i: 1 for i in range(k)})


@cache
def quantum_factorial(k: int) -> LaurentPoly:
    """[k]! = [k][k-1]...[1], with quantum_int's check."""
    if type(k) is not int or k < 0:
        raise ValueError(f"quantum factorial needs an integer k >= 0, got {k!r}")
    out = LaurentPoly.one()
    for i in range(2, k + 1):
        out = out * quantum_int(i)
    return out


def quantum_binom(n: int, k: int) -> LaurentPoly:
    """[n]!/([k]![n-k]!); symmetric in k <-> n-k.  The ints are checked
    before the memo, where 3.0 would be served the value of 3."""
    if not (type(n) is type(k) is int and 0 <= k <= n):
        raise ValueError(f"quantum binomial needs integers 0 <= k <= n, got n={n!r}, k={k!r}")
    return _quantum_binom(n, k)


@cache
def _quantum_binom(n: int, k: int) -> LaurentPoly:
    return quantum_factorial(n).divexact(quantum_factorial(k) * quantum_factorial(n - k))


def quantum_multinom(parts) -> LaurentPoly:
    """[k1+...+kl]! / ([k1]! ... [kl]!)."""
    parts = _parts(parts)
    den = LaurentPoly.one()
    for p in parts:
        den = den * quantum_factorial(p)
    return quantum_factorial(sum(parts)).divexact(den)


def _parts(parts) -> tuple[int, ...]:
    """parts as a tuple, or ValueError unless each is a nonnegative int;
    checked before a memo, where 3.0 would be served the value of 3."""
    parts = tuple(parts)
    if not all(type(p) is int and p >= 0 for p in parts):
        raise ValueError(f"quantum multinomial needs nonnegative integer parts, got {list(parts)}")
    return parts


# Rescaled variants: polynomials in q with constant term 1 when nonzero.
# The pairwise-product exponent runs over unordered pairs {i,j}.


def quantum_int0(k: int) -> LaurentPoly:
    """[k]_0 = q^(k-1) [k]."""
    return quantum_int(k).shift(k - 1)


def quantum_factorial0(k: int) -> LaurentPoly:
    """[k]_0! = q^(k(k-1)/2) [k]!."""
    return quantum_factorial(k).shift(k * (k - 1) // 2)


def quantum_binom0(a: int, b: int) -> LaurentPoly:
    """qbin(a+b, a)_0 = q^(ab) qbin(a+b, a), indexed by the two parts: the
    rescaled multinomial of (a, b), whose parts are checked likewise."""
    return _quantum_binom0(*_parts((a, b)))


@cache
def _quantum_binom0(a: int, b: int) -> LaurentPoly:
    return quantum_binom(a + b, a).shift(a * b)


def quantum_multinom0(parts) -> LaurentPoly:
    """Rescaled multinomial q^(sum_{i<j} k_i k_j) * multinom(parts)."""
    return _quantum_multinom0(_parts(parts))


@cache
def _quantum_multinom0(parts: tuple[int, ...]) -> LaurentPoly:
    """The rescaled multinomial of a tuple of nonnegative parts, one
    product per part: that of all parts but the last (memoized, so the
    prefixes of a family of tuples are shared) times the rescaled
    binomial of their sum and the last part."""
    if not parts:
        return LaurentPoly.one()
    head, last = parts[:-1], parts[-1]
    return _quantum_multinom0(head) * _quantum_binom0(sum(head), last)
