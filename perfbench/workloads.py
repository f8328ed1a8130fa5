"""Workload inputs and output verification for the heckeweb benchmark.

A workload is a list of operations made from ``--seed`` alone. An op is
one CLI call (``cli.main(argv)`` with stdout captured) or, for ``kl``, one
``hecke.kl_basis_element`` call through the library. Every op is checked
after the timed region: fixed inputs against the digests in ``refs.json``
(recorded on the seed commit), the seeded ``canonical`` call of ``tensor``
against the independent web-diagram route.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from itertools import permutations, product
from pathlib import Path

REFS_PATH = Path(__file__).resolve().parent / "refs.json"

# The ten suites of `check --suite all`, named here so that the inputs do
# not depend on the program under test.
SUITES = (
    "examples", "hecke", "induced", "adjunction", "stl",
    "webs", "triple", "theorem1", "efm", "homdim",
)

# The README's command-line examples other than `check --suite all`.
README_EXAMPLES = (
    ("canonical", "--comp", "1,1", "--eta", "10"),
    ("canonical", "--comp", "3,1,4,4,2,1,1", "--eta", "0100101"),
    ("kl-basis", "--n", "3", "--w", "s1*s2*s1"),
    ("mod-basis", "--n", "4", "--p", "3", "--q", "1", "--w", "e"),
    ("web-eval", "--comp", "1,1", "--word", "m1"),
    ("web-coeff", "--comp", "1,1", "--word", "m1.s1", "--bottom", "10", "--top", "01"),
    ("tableaux", "--comp", "1,2,2,2", "--k", "4", "--admissible-only"),
    ("translate", "--comp", "1,1", "--pos", "1", "--k", "1", "--dir", "out", "--basis", "proper"),
    ("homdim", "--n", "3", "--k", "1", "--w", "e", "--z", "s1"),
)

# The 20 members of the weight space (n=6, k=3), in the order
# tabgroth.enumerate_lambda((1,) * 6, 3) lists them on the seed commit.
HOMDIM_MEMBERS = (
    (3, 2, 1, 4, 5, 6), (3, 2, 4, 1, 5, 6), (3, 2, 4, 5, 1, 6), (3, 4, 2, 1, 5, 6),
    (3, 2, 4, 5, 6, 1), (3, 4, 2, 5, 1, 6), (4, 3, 2, 1, 5, 6), (3, 4, 2, 5, 6, 1),
    (3, 4, 5, 2, 1, 6), (4, 3, 2, 5, 1, 6), (3, 4, 5, 2, 6, 1), (4, 3, 2, 5, 6, 1),
    (4, 3, 5, 2, 1, 6), (3, 4, 5, 6, 2, 1), (4, 3, 5, 2, 6, 1), (4, 5, 3, 2, 1, 6),
    (4, 3, 5, 6, 2, 1), (4, 5, 3, 2, 6, 1), (4, 5, 3, 6, 2, 1), (4, 5, 6, 3, 2, 1),
)


@dataclass(frozen=True)
class Op:
    """One call into the program.

    kind  "cli" (args is an argv tuple) or "kl" (args is a one-line permutation)
    check "digest" (compare with refs.json under `name`) or "web" (compare a
          full `canonical --comp` listing with the web-diagram route)
    """

    name: str
    kind: str
    args: tuple
    check: str = "digest"


def _cli(*argv: str, check: str = "digest") -> Op:
    prefix = "web-checked: " if check == "web" else ""
    return Op(prefix + " ".join(argv), "cli", argv, check)


def _one_line(w) -> str:
    return "[" + ",".join(map(str, w)) + "]"


def battery(rng: random.Random) -> list[Op]:
    """The ten suites of `check --max-n 4` in seeded order, then the README
    examples: the ROADMAP's end-to-end definition."""
    checks = [_cli("check", "--suite", s, "--max-n", "4") for s in SUITES]
    rng.shuffle(checks)
    return checks + [_cli(*argv) for argv in README_EXAMPLES]


def kl(rng: random.Random) -> list[Op]:
    """The canonical basis of all of S_6 through the library, in seeded order."""
    perms = list(permutations(range(1, 7)))
    rng.shuffle(perms)
    return [Op("kl " + _one_line(w), "kl", w) for w in perms]


def tensor(rng: random.Random) -> list[Op]:
    """Tensor-representation, web and tableau calls, with real denominators
    (translate onto the wall on simples) next to division-free ones."""
    comp = ",".join(str(rng.randint(1, 4)) for _ in range(9))
    w = _one_line(HOMDIM_MEMBERS[0])
    ops = [
        _cli("canonical", "--comp", "1,1,1,1,1,1,1,1,1"),
        _cli("canonical", "--comp", comp, check="web"),
        _cli("translate", "--comp", "1,1,1,1,1,1,1,1", "--pos", "4", "--k", "4",
             "--dir", "onto", "--basis", "simple"),
        _cli("check", "--suite", "theorem1", "--max-n", "6"),
    ] + [
        _cli("homdim", "--n", "6", "--k", "3", "--w", w, "--z", _one_line(z))
        for z in HOMDIM_MEMBERS
    ]
    rng.shuffle(ops)
    return ops


WORKLOADS = {"battery": battery, "kl": kl, "tensor": tensor}


def ops_for(workload: str, seed: int) -> list[Op]:
    return WORKLOADS[workload](random.Random(seed))


def load_refs() -> dict[str, str]:
    with open(REFS_PATH) as fh:
        return json.load(fh)


def output_text(op: Op, output) -> str:
    """The bytes an op's output is judged by: CLI stdout, or the canonical
    JSON of a Hecke algebra element."""
    if op.kind == "kl":
        return json.dumps(output.to_json(), sort_keys=True)
    return output


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _inversions(bits: str) -> int:
    ones = out = 0
    for b in bits:
        if b == "1":
            ones += 1
        else:
            out += ones
    return out


def _check_by_web_route(comp_text: str, stdout: str) -> str | None:
    """Check a full `canonical --comp` listing: one line per 0/1 sequence,
    in (weight, inversions, sequence) order, each equal to the evaluated
    canonical basis diagram."""
    from heckeweb import webcat

    comp = tuple(int(p) for p in comp_text.split(","))
    lines = stdout.splitlines()
    got = dict(line.split(": ", 1) for line in lines if ": " in line)
    expected_order = sorted(
        ("".join(map(str, e)) for e in product((0, 1), repeat=len(comp))),
        key=lambda b: (b.count("1"), _inversions(b), b),
    )
    if len(lines) != len(got) or list(got) != expected_order:
        return "listing does not have one line per sequence in canonical order"
    for bits in expected_order:
        diagram = webcat.canonical_basis_diagram(comp, tuple(map(int, bits)))
        want = str(webcat.evaluate_canonical_diagram(diagram))
        if got[bits] != want:
            return f"eta {bits}: bar-fixing gives {got[bits]}, web route gives {want}"
    return None


def verify(op: Op, code, output, refs: dict[str, str]) -> str | None:
    """None if the op succeeded with the expected output, else the reason."""
    if code != 0:
        return code if isinstance(code, str) else f"exit status {code}"
    if op.check == "web":
        return _check_by_web_route(op.args[op.args.index("--comp") + 1], output)
    want = refs.get(op.name)
    if want is None:
        return "no reference digest"
    if digest(output_text(op, output)) != want:
        return "output differs from the reference digest"
    return None
