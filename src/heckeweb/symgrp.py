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

from dataclasses import dataclass
from functools import cache
from itertools import permutations as _itperms

__all__ = [
    "Permutation",
    "ParabolicSubgroup",
    "all_permutations",
    "shortest_coset_reps",
    "longest_coset_reps",
    "is_shortest_rep",
    "factor_through_wall",
    "lambda_set",
    "lemma10_completion",
    "longest_quotient_rep",
    "seq_act_right",
]


@dataclass(frozen=True, slots=True)
class Permutation:
    one_line: tuple[int, ...]

    def __post_init__(self):
        n = len(self.one_line)
        if sorted(self.one_line) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {self.one_line}")

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
        return Permutation(tuple(self.one_line[j - 1] for j in other.one_line))

    def inverse(self) -> "Permutation":
        out = [0] * self.n
        for i, v in enumerate(self.one_line, start=1):
            out[v - 1] = i
        return Permutation(tuple(out))

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
        return Permutation(tuple(w))

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


def seq_act_right(eta, w: Permutation):
    """Right action of S_n on sequences: (eta . w)_i = eta_{w(i)}."""
    if len(eta) != w.n:
        raise ValueError("sequence length does not match permutation size")
    return tuple(eta[w(i) - 1] for i in range(1, w.n + 1))


@cache
def all_permutations(n: int) -> tuple[Permutation, ...]:
    """All of S_n sorted by (length, one-line word)."""
    perms = [Permutation(p) for p in _itperms(range(1, n + 1))]
    perms.sort(key=lambda w: (w.length(), w.one_line))
    return tuple(perms)


@dataclass(frozen=True, slots=True)
class ParabolicSubgroup:
    n: int
    generators: frozenset[int]

    def __post_init__(self):
        bad = [i for i in self.generators if not 1 <= i <= self.n - 1]
        if bad:
            raise ValueError(f"generators {bad} out of range for S_{self.n}")

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

    def order(self) -> int:
        from math import factorial

        size = 1
        for b in self.blocks():
            size *= factorial(len(b))
        return size

    def contains(self, w: Permutation) -> bool:
        if w.n != self.n:
            return False
        for block in self.blocks():
            lo, hi = block[0], block[-1]
            if any(not lo <= w(p) <= hi for p in block):
                return False
        return True

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

    def longest_element(self) -> Permutation:
        base = list(range(1, self.n + 1))
        for block in self.blocks():
            for k, pos in enumerate(block):
                base[pos - 1] = block[-1] - k
        return Permutation(tuple(base))

    def commutes_elementwise_with(self, other: "ParabolicSubgroup") -> bool:
        return all(abs(i - j) >= 2 for i in self.generators for j in other.generators)

    def __str__(self):
        gens = ",".join(str(i) for i in sorted(self.generators))
        return f"<{gens}>" if gens else "<>"


def is_shortest_rep(w: Permutation, p: ParabolicSubgroup, side: str = "left") -> bool:
    """Shortest representative of W_p w (side="left") or w W_p (side="right")."""
    if side == "left":
        # l(s_i w) > l(w) for all generators  <=>  w^-1(i) < w^-1(i+1)
        wi = w.inverse()
        return all(wi(i) < wi(i + 1) for i in p.generators)
    if side == "right":
        return all(w(i) < w(i + 1) for i in p.generators)
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def shortest_coset_reps(p: ParabolicSubgroup, side: str = "left") -> list[Permutation]:
    """Shortest coset representatives for W_p\\S_n (left) or S_n/W_p (right)."""
    return [w for w in all_permutations(p.n) if is_shortest_rep(w, p, side)]


def longest_coset_reps(p: ParabolicSubgroup, side: str = "left") -> list[Permutation]:
    """Longest coset representatives (w_p times the shortest ones, on the left)."""
    if side == "left":
        wi_test = lambda w: all(w.inverse()(i) > w.inverse()(i + 1) for i in p.generators)
    elif side == "right":
        wi_test = lambda w: all(w(i) > w(i + 1) for i in p.generators)
    else:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    return [w for w in all_permutations(p.n) if wi_test(w)]


def shortest_rep_of_coset(w: Permutation, p: ParabolicSubgroup, side: str = "right") -> Permutation:
    """The shortest element of w W_p (side="right") or W_p w (side="left")."""
    if side == "right":
        word = list(w.one_line)
        for block in p.blocks():
            vals = sorted(word[block[0] - 1 : block[-1]])
            word[block[0] - 1 : block[-1]] = vals
        return Permutation(tuple(word))
    if side == "left":
        return shortest_rep_of_coset(w.inverse(), p, side="right").inverse()
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def factor_through_wall(
    w: Permutation, lam: ParabolicSubgroup, mu: ParabolicSubgroup
) -> tuple[Permutation, Permutation]:
    """Factor w = w' x with w' shortest for S_n/S_mu and x in S_mu shortest
    for S_mu/S_lam, with additive lengths.  Requires S_lam <= S_mu and w a
    shortest representative for S_n/S_lam."""
    if not lam.generators <= mu.generators:
        raise ValueError("inner parabolic is not contained in the outer one")
    if not is_shortest_rep(w, lam, side="right"):
        raise ValueError(f"{w} is not a shortest coset representative for S_n/S_lam")
    wp = shortest_rep_of_coset(w, mu, side="right")
    x = wp.inverse() * w
    assert mu.contains(x)
    assert is_shortest_rep(x, lam, side="right")
    assert w.length() == wp.length() + x.length()
    return wp, x


def longest_quotient_rep(mu: ParabolicSubgroup, lam: ParabolicSubgroup) -> Permutation:
    """Longest element of (S_mu/S_lam)^short, namely w_mu w_lam."""
    if not lam.generators <= mu.generators:
        raise ValueError("inner parabolic is not contained in the outer one")
    return mu.longest_element() * lam.longest_element()


def lambda_set(
    n: int,
    p_gens,
    q_gens,
    lam_gens,
) -> list[Permutation]:
    """The index set of shortest representatives w for S_n/S_lam with
    w S_lam inside W^p and w S_lam meeting the longest representatives
    of W_q\\S_n, sorted by (length, one-line word)."""
    p = ParabolicSubgroup.of(n, p_gens)
    q = ParabolicSubgroup.of(n, q_gens)
    lam = ParabolicSubgroup.of(n, lam_gens)
    lam_elements = lam.elements()
    out = []
    for w in shortest_coset_reps(lam, side="right"):
        coset = [w * y for y in lam_elements]
        if not all(is_shortest_rep(u, p, side="left") for u in coset):
            continue
        wi_longest = lambda u: all(u.inverse()(i) > u.inverse()(i + 1) for i in q.generators)
        if not any(wi_longest(u) for u in coset):
            continue
        out.append(w)
    out.sort(key=lambda w: (w.length(), w.one_line))
    return out


def lemma10_completion(
    w: Permutation,
    q: ParabolicSubgroup,
    p: ParabolicSubgroup,
    lam_gens=(),
) -> Permutation:
    """The unique x in W_q with x w in the lambda set for (p, q) and
    additive lengths l(xw) = l(x) + l(w)."""
    members = set(lambda_set(w.n, p.generators, q.generators, lam_gens))
    found = None
    for x in q.elements():
        xw = x * w
        if xw in members and xw.length() == x.length() + w.length():
            if found is not None:
                raise ValueError(f"completion of {w} is not unique")
            found = x
    if found is None:
        raise ValueError(f"no completion of {w} inside W_q = {q}")
    return found
