"""Typed words of merge/split generators and their evaluation.

A web is a word of elementary slices read bottom to top; each slice
merges two adjacent edges (labels add) or splits one edge into an
ordered pair of positive labels.  Evaluation sends a merge to the
projection intertwiner and a split to the embedding, so a web becomes
an exact matrix between standard bases.  A second, independent
evaluation sums local vertex values over all internal edge labelings;
the two routes are compared entry by entry in the tests.

A web records only its source type and its word; its intermediate types
follow by the merge/split type rule of uqrep that the intertwiners use:

>>> web = parse_word((1, 1, 2), "m1.s2:1,1")
>>> web.types
((1, 1, 2), (2, 2), (2, 1, 1))
>>> [item["comp"] for item in web.to_json()["slices"]]
[[1, 1, 2], [2, 2]]

Words are never normalized: equality of morphisms is always decided by
comparing evaluations, which is faithful on the objects used here.
Whether two specific words are equal before imposing the defining
relations is deliberately not decided by this module; the `webs` suite
of `checks` compares the evaluations of both sides of each relation.
"""

from __future__ import annotations

import re
from functools import reduce
from itertools import product

from .qarith import Immutable, LaurentPoly, json_parser, quantum_binom
from . import uqrep
from .uqrep import TensorVector, composition

__all__ = [
    "Slice",
    "Web",
    "LabeledWebDiagram",
    "identity_web",
    "merge_web",
    "split_web",
    "compose",
    "tensor",
    "evaluate",
    "evaluate_matrix",
    "matrix_coefficient",
    "canonical_basis_diagram",
    "split_bundle",
    "merge_bundle",
    "standard_inclusion",
    "standard_projection",
    "parse_word",
]

_Q = LaurentPoly.q
_ONE = LaurentPoly.one()


class Slice(Immutable):
    """A slice of kind "merge" or "split" at the 1-based position i; the
    parts of a split are its labels (left, right), those of a merge None."""

    __slots__ = FIELDS = ("kind", "i", "parts")

    def __init__(self, kind: str, i: int, parts: tuple[int, int] | None):
        if not (
            kind == "merge" and parts is None
            or kind == "split" and type(parts) is tuple and len(parts) == 2
        ):
            raise ValueError(f"bad slice {kind!r}, parts {parts!r}: a merge has none, a split two")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "parts", parts)

    def target(self, comp) -> tuple[int, ...]:
        """The type this slice reaches from comp; ValueError if it cannot act there."""
        if self.kind == "merge":
            return uqrep.merged_type(comp, self.i)
        return uqrep.split_type(comp, self.i, *self.parts)


class Web(Immutable):
    """The word `slices`, read bottom to top, on the type `source`, which
    the constructor validates as a composition.  It is compared, hashed
    and printed by (source, slices); types[j] is the type slice j acts
    on, and types[-1] is the target."""

    __slots__ = ("source", "slices", "types")
    FIELDS = ("source", "slices")

    def __init__(self, source: tuple[int, ...], slices: tuple[Slice, ...]):
        source = composition(source)
        types = [source]
        for s in slices:
            types.append(s.target(types[-1]))
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "slices", slices)
        object.__setattr__(self, "types", tuple(types))

    @property
    def target(self) -> tuple[int, ...]:
        return self.types[-1]

    def word_str(self) -> str:
        toks = []
        for s in self.slices:
            if s.kind == "merge":
                toks.append(f"m{s.i}")
            else:
                toks.append(f"s{s.i}:{s.parts[0]},{s.parts[1]}")
        return ".".join(toks) if toks else "id"

    def __str__(self):
        src = ",".join(str(a) for a in self.source)
        tgt = ",".join(str(a) for a in self.target)
        return f"web[({src}) -> ({tgt}): {self.word_str()}]"

    def to_json(self):
        out = []
        for s, comp in zip(self.slices, self.types):
            item = {"kind": s.kind, "i": s.i, "comp": list(comp)}
            if s.kind == "split":
                item["left"], item["right"] = s.parts
            out.append(item)
        return {"source": list(self.source), "slices": out}

    @staticmethod
    @json_parser
    def from_json(data) -> "Web":
        web = identity_web(data["source"])
        for number, item in enumerate(data["slices"], start=1):
            try:
                if item["kind"] == "merge":
                    step = merge_web(item["comp"], item["i"])
                elif item["kind"] == "split":
                    step = split_web(item["comp"], item["i"], item["left"], item["right"])
                else:
                    raise ValueError(f"unknown kind {item['kind']!r}")
                web = compose(step, web)
            except KeyError as exc:
                raise ValueError(f"web slice {number} has no {exc.args[0]!r}") from None
            except ValueError as exc:
                raise ValueError(f"web slice {number}: {exc}") from None
        return web


def identity_web(comp) -> Web:
    return Web(comp, ())


def merge_web(comp, i: int) -> Web:
    return Web(comp, (Slice("merge", i, None),))


def split_web(comp, i: int, a: int, b: int) -> Web:
    return Web(comp, (Slice("split", i, (a, b)),))


def compose(upper: Web, lower: Web) -> Web:
    """Stack upper on top of lower (lower acts first)."""
    if lower.target != upper.source:
        raise ValueError(
            f"cannot compose: lower target {lower.target} vs upper source {upper.source}"
        )
    return Web(lower.source, lower.slices + upper.slices)


def tensor(left: Web, right: Web) -> Web:
    """Horizontal concatenation: the left word acts first, then the right
    word with its positions shifted by the arity of the left target."""
    offset = len(left.target)
    shifted = tuple(Slice(s.kind, s.i + offset, s.parts) for s in right.slices)
    return Web(left.source + right.source, left.slices + shifted)


def evaluate(web: Web, v: TensorVector) -> TensorVector:
    """Apply the intertwiner of the web to a vector on its source."""
    if v.comp != web.source:
        raise ValueError(f"vector lives on {v.comp}, web starts at {web.source}")
    for s in web.slices:
        if s.kind == "merge":
            v = uqrep.phi_merge(v, s.i)
        else:
            v = uqrep.phi_split(v, s.i, *s.parts)
    return v


def evaluate_matrix(web: Web) -> dict:
    """Column map: source standard index -> image vector, each standard
    vector built on the web's validated source without checking again."""
    out = {}
    for eta in product((0, 1), repeat=len(web.source)):
        out[eta] = evaluate(web, TensorVector._of(web.source, {eta: _ONE}))
    return out


class LabeledWebDiagram(Immutable):
    """A web with a 0/1 labeling of its bottom edges and, for a matrix
    coefficient, of its top edges."""

    __slots__ = FIELDS = ("web", "bottom", "top")

    def __init__(self, web: Web, bottom: tuple[int, ...], top: tuple[int, ...] | None = None):
        object.__setattr__(self, "web", web)
        object.__setattr__(self, "bottom", uqrep._check_eta(web.source, bottom))
        object.__setattr__(self, "top", None if top is None else uqrep._check_eta(web.target, top))


def matrix_coefficient(d: LabeledWebDiagram) -> LaurentPoly:
    """Sum of products of local vertex values over all internal labelings.
    Merges propagate deterministically; a split of a 1-label branches."""
    if d.top is None:
        raise ValueError("matrix coefficient needs a top labeling")
    total = LaurentPoly.zero()
    stack = [(0, d.bottom, LaurentPoly.one())]
    slices, types = d.web.slices, d.web.types
    while stack:
        depth, labels, coeff = stack.pop()
        if depth == len(slices):
            if labels == d.top:
                total = total + coeff
            continue
        s, comp = slices[depth], types[depth]
        j = s.i - 1
        if s.kind == "merge":
            a, b = comp[j], comp[j + 1]
            pair = (labels[j], labels[j + 1])
            rest = labels[:j] + labels[j + 2 :]
            if pair == (1, 1):
                continue
            if pair == (1, 0):
                value = _Q(-b) * quantum_binom(a + b - 1, b)
                new = rest[:j] + (1,) + rest[j:]
            elif pair == (0, 1):
                value = quantum_binom(a + b - 1, a)
                new = rest[:j] + (1,) + rest[j:]
            else:
                value = quantum_binom(a + b, a)
                new = rest[:j] + (0,) + rest[j:]
            stack.append((depth + 1, new, coeff * value))
        else:
            a, b = s.parts
            head, tail = labels[:j], labels[j + 1 :]
            if labels[j] == 0:
                stack.append((depth + 1, head + (0, 0) + tail, coeff))
            else:
                stack.append((depth + 1, head + (1, 0) + tail, coeff))
                stack.append((depth + 1, head + (0, 1) + tail, coeff * _Q(a)))
    return total


def canonical_basis_diagram(comp, eta) -> LabeledWebDiagram:
    """Join every down-label with the up-labels following it, recording
    each join as a split generator; the result carries the minimal
    labeling (ups then downs) on its coarsened bottom line."""
    comp = composition(comp)
    eta = uqrep._check_eta(comp, eta)
    items = list(zip(comp, eta))
    joins = []  # (position, left size, right size) in join order
    while True:
        pos = next(
            (
                j
                for j in range(len(items) - 1)
                if items[j][1] == 1 and items[j + 1][1] == 0
            ),
            None,
        )
        if pos is None:
            break
        left, right = items[pos], items[pos + 1]
        joins.append((pos + 1, left[0], right[0]))
        items[pos : pos + 2] = [(left[0] + right[0], 1)]
    bottom_comp = tuple(size for size, _ in items)
    bottom_eta = tuple(bit for _, bit in items)
    web = Web(bottom_comp, tuple(Slice("split", pos, (a, b)) for pos, a, b in reversed(joins)))
    return LabeledWebDiagram(web, bottom_eta, None)


def evaluate_canonical_diagram(d: LabeledWebDiagram) -> TensorVector:
    # the diagram has validated its source type and bottom labels
    return evaluate(d.web, TensorVector._of(d.web.source, {d.bottom: _ONE}))


def split_bundle(m: int) -> Web:
    """The web splitting one m-labeled edge into m single strands, one
    strand off the left at a time."""
    return Web((m,), tuple(Slice("split", j, (1, m - j)) for j in range(1, m)))


def merge_bundle(m: int) -> Web:
    """The web merging m single strands into one m-labeled edge, one
    strand onto the left at a time."""
    return Web((1,) * m, (Slice("merge", 1, None),) * (m - 1))


def standard_inclusion(comp) -> Web:
    """Tensor product of split bundles: from comp down to all-ones."""
    return reduce(tensor, map(split_bundle, composition(comp)))


def standard_projection(comp) -> Web:
    """Tensor product of merge bundles: from all-ones onto comp."""
    return reduce(tensor, map(merge_bundle, composition(comp)))


def parse_word(comp, word: str) -> Web:
    """Build a web from a compact word like "m1.s2.m1", read bottom to top.
    A split "sI" may carry explicit parts "sI:a,b"; without them the label
    must be 2, the only unambiguous case."""
    web = identity_web(comp)
    word = word.strip()
    if word in ("", "id"):
        return web
    for tok in word.split("."):
        tok = tok.strip()
        match = re.fullmatch(r"m(-?\d+)|s(-?\d+)(?::(-?\d+),(-?\d+))?", tok)
        if match is None:
            raise ValueError(f"malformed web token {tok!r}")
        merge, split, a, b = match.groups()
        if merge is not None:
            web = compose(merge_web(web.target, int(merge)), web)
            continue
        i = int(split)
        if a is None:
            # an out-of-range position is left for split_web to reject
            if 1 <= i <= len(web.target) and web.target[i - 1] != 2:
                raise ValueError(
                    f"split s{i} on label {web.target[i - 1]} is ambiguous; use s{i}:a,b"
                )
            a = b = 1
        web = compose(split_web(web.target, i, int(a), int(b)), web)
    return web
