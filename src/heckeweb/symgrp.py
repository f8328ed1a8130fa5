"""Symmetric group combinatorics: lengths, Bruhat order, parabolic cosets.

Permutations of {1..n} are stored in one-line notation.  Products compose
as functions, (u * v)(i) = u(v(i)); right multiplication by the simple
transposition s_i swaps the entries in positions i, i+1 of the one-line
word, left multiplication swaps the values i, i+1.

>>> w = Permutation((2, 3, 1))
>>> w.length()
2
>>> w.reduced_word()
(1, 2)
>>> w.inverse().one_line
(3, 1, 2)
"""

from __future__ import annotations

from functools import cache
from itertools import permutations as _itperms

from .qarith import Immutable

__all__ = [
    "Permutation",
    "ParabolicSubgroup",
    "all_permutations",
    "shortest_coset_reps",
    "is_shortest_rep",
    "seq_act_right",
]


class Permutation(Immutable):
    """An immutable permutation in one-line notation.  The constructor
    validates its input; products, inverses and `times_simple` build their
    results unchecked, since they are permutations by construction.  The
    hash is computed once."""

    __slots__ = ("one_line", "_hash")
    FIELDS = ("one_line",)

    def __init__(self, one_line):
        one_line = tuple(one_line)
        n = len(one_line)
        if any(type(v) is not int for v in one_line) or sorted(one_line) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {one_line}")
        _init(self, one_line)

    @classmethod
    def _unchecked(cls, one_line: tuple[int, ...]) -> "Permutation":
        w = object.__new__(cls)
        _init(w, one_line)
        return w

    def __hash__(self):
        return self._hash

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(tuple(range(1, n + 1)))

    @staticmethod
    def simple(n: int, i: int) -> "Permutation":
        """The simple transposition s_i in S_n."""
        if not 1 <= i <= n - 1:
            raise ValueError(f"s_{i} is not a generator of S_{n}")
        w = list(range(1, n + 1))
        w[i - 1], w[i] = w[i], w[i - 1]
        return Permutation(tuple(w))

    @staticmethod
    def from_word(n: int, word) -> "Permutation":
        w = Permutation.identity(n)
        for i in word:
            w = w * Permutation.simple(n, i)
        return w

    @property
    def n(self) -> int:
        return len(self.one_line)

    def __call__(self, i: int) -> int:
        return self.one_line[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if self.n != other.n:
            raise ValueError(f"size mismatch: S_{self.n} vs S_{other.n}")
        w = self.one_line
        return Permutation._unchecked(tuple([w[j - 1] for j in other.one_line]))

    def inverse(self) -> "Permutation":
        out = [0] * self.n
        for i, v in enumerate(self.one_line, start=1):
            out[v - 1] = i
        return Permutation._unchecked(tuple(out))

    def length(self) -> int:
        """Number of inversions."""
        w = self.one_line
        return sum(1 for i in range(self.n) for j in range(i + 1, self.n) if w[i] > w[j])

    def right_descents(self) -> list[int]:
        w = self.one_line
        return [i for i in range(1, self.n) if w[i - 1] > w[i]]

    def times_simple(self, i: int) -> "Permutation":
        """Right multiplication by s_i (swap positions i, i+1)."""
        w = list(self.one_line)
        w[i - 1], w[i] = w[i], w[i - 1]
        return Permutation._unchecked(tuple(w))

    def reduced_word(self) -> tuple[int, ...]:
        """A reduced word by repeated removal of the last descent."""
        word: list[int] = []
        w = self
        while True:
            ds = w.right_descents()
            if not ds:
                break
            i = ds[-1]
            word.append(i)
            w = w.times_simple(i)
        return tuple(reversed(word))

    def bruhat_leq(self, other: "Permutation") -> bool:
        """Bruhat order via the rank-matrix (dot) criterion."""
        if self.n != other.n:
            raise ValueError(f"size mismatch: S_{self.n} vs S_{other.n}")
        n = self.n
        u, w = self.one_line, other.one_line
        for i in range(1, n):
            ru = rw = 0
            cu = sorted(u[:i], reverse=True)
            cw = sorted(w[:i], reverse=True)
            # compare #{a <= i : u(a) >= j} <= #{a <= i : w(a) >= j} for all j
            for j in range(n, 0, -1):
                while ru < len(cu) and cu[ru] >= j:
                    ru += 1
                while rw < len(cw) and cw[rw] >= j:
                    rw += 1
                if ru > rw:
                    return False
        return True

    def __str__(self):
        return "[" + ",".join(str(v) for v in self.one_line) + "]"

    def word_str(self) -> str:
        word = self.reduced_word()
        return "*".join(f"s{i}" for i in word) if word else "e"


def _init(w: Permutation, one_line: tuple[int, ...]) -> None:
    object.__setattr__(w, "one_line", one_line)
    # hashed as a 1-tuple, the field-tuple hash every value class uses, so
    # sets of permutations keep the iteration order they had
    object.__setattr__(w, "_hash", hash((one_line,)))


def seq_act_right(eta, w: Permutation):
    """Right action of S_n on sequences: (eta . w)_i = eta_{w(i)}."""
    if len(eta) != w.n:
        raise ValueError("sequence length does not match permutation size")
    return tuple(eta[w(i) - 1] for i in range(1, w.n + 1))


@cache
def all_permutations(n: int) -> tuple[Permutation, ...]:
    """All of S_n sorted by (length, one-line word)."""
    perms = [Permutation._unchecked(p) for p in _itperms(range(1, n + 1))]
    perms.sort(key=lambda w: (w.length(), w.one_line))
    return tuple(perms)


class ParabolicSubgroup(Immutable):
    """The subgroup of S_n generated by the simple transpositions s_i, i
    in the frozenset `generators`."""

    __slots__ = FIELDS = ("n", "generators")

    def __init__(self, n: int, generators: frozenset[int]):
        if type(n) is not int or any(type(i) is not int for i in generators):
            raise ValueError(f"n and the generators must be integers: n={n!r}, {set(generators)}")
        bad = [i for i in generators if not 1 <= i <= n - 1]
        if bad:
            raise ValueError(f"generators {bad} out of range for S_{n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "generators", generators)

    @staticmethod
    def of(n: int, gens) -> "ParabolicSubgroup":
        return ParabolicSubgroup(n, frozenset(gens))

    def blocks(self) -> list[tuple[int, ...]]:
        """Maximal intervals of positions connected by the generators."""
        out = []
        start = 1
        for p in range(1, self.n + 1):
            if p == self.n or p not in self.generators:
                out.append(tuple(range(start, p + 1)))
                start = p + 1
        return out

    def elements(self) -> list[Permutation]:
        """All elements, as permutations of the ambient S_n."""
        out = [Permutation.identity(self.n)]
        for block in self.blocks():
            if len(block) == 1:
                continue
            new = []
            for assignment in _itperms(block):
                base = list(range(1, self.n + 1))
                for pos, val in zip(block, assignment):
                    base[pos - 1] = val
                blockperm = Permutation(tuple(base))
                new.extend(w * blockperm for w in out)
            out = new
        out.sort(key=lambda w: (w.length(), w.one_line))
        return out

    def commutes_elementwise_with(self, other: "ParabolicSubgroup") -> bool:
        return all(abs(i - j) >= 2 for i in self.generators for j in other.generators)

    def __str__(self):
        gens = ",".join(str(i) for i in sorted(self.generators))
        return f"<{gens}>" if gens else "<>"


def is_shortest_rep(w: Permutation, p: ParabolicSubgroup) -> bool:
    """Shortest representative of the coset W_p w."""
    # l(s_i w) > l(w) for all generators  <=>  w^-1(i) < w^-1(i+1): the
    # value i stands left of i+1 in the one-line word
    word = w.one_line
    return all(word.index(i) < word.index(i + 1) for i in p.generators)


def shortest_coset_reps(p: ParabolicSubgroup) -> list[Permutation]:
    """Shortest coset representatives for W_p\\S_n."""
    return [w for w in all_permutations(p.n) if is_shortest_rep(w, p)]
