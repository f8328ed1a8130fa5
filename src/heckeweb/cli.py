"""Command line interface: exact computations with machine-readable output.

Exit codes: 0 on success (and when every requested check passes), 1 when
a check suite fails, 2 on malformed input, 3 when an internal invariant
breaks (a canonical basis element of the wrong shape, a singular matrix
that must be invertible), 4 when the computation runs out of memory.
"""

from __future__ import annotations

import argparse
import re
import sys
from functools import cache

from .qarith import coeff_to_json
from .symgrp import Permutation
from . import checks, hecke, inducedmod, tabgroth, uqrep, webcat

__all__ = ["main"]


def _parse_comp(text: str) -> tuple[int, ...]:
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"malformed composition {text!r}")
    return uqrep.composition(parts)


def _parse_gens(text: str) -> tuple[int, ...]:
    if text.strip() == "":
        return ()
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"malformed generator list {text!r}")


def _parse_perm(text: str, n: int) -> Permutation:
    if n < 1:
        raise ValueError(f"--n must be a positive integer, got {n}")
    text = text.strip()
    if text in ("e", "", "id"):
        return Permutation.identity(n)
    if text.startswith("["):
        try:
            if not text.endswith("]"):
                raise ValueError
            entries = tuple(int(p) for p in text[1:-1].split(","))
        except ValueError:
            raise ValueError(f"malformed one-line permutation {text!r}") from None
        if len(entries) != n:
            raise ValueError(f"one-line permutation {text!r} does not have n={n} entries")
        return Permutation(entries)
    gens = [re.fullmatch(r"s(-?\d+)", tok.strip()) for tok in text.split("*")]
    if None in gens:
        raise ValueError(f"malformed reduced word {text!r}")
    return Permutation.from_word(n, [int(g[1]) for g in gens])


def _emit(args, text_lines, json_payload) -> None:
    """Print the text lines or the JSON payload, and write the payload to
    --out; each is a function called only when its format is wanted."""
    if args.format == "json" or args.out:
        import json  # here, not at the top: only JSON output pays for it

        payload = json.dumps(json_payload(), indent=2, sort_keys=True) + "\n"
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(payload)
        except OSError as exc:
            raise ValueError(f"cannot write --out {args.out}: {exc.strerror}") from exc
    sys.stdout.write(payload if args.format == "json" else "\n".join(text_lines()) + "\n")


def _cmd_kl_basis(args) -> int:
    w = _parse_perm(args.w, args.n)
    elt = hecke.kl_basis_element(w)
    _emit(args, lambda: [str(elt)],
          lambda: {"n": args.n, "w": list(w.one_line), "element": elt.to_json()})
    return 0


def _cmd_mod_basis(args) -> int:
    mod = inducedmod.InducedModule.of(args.n, _parse_gens(args.p), _parse_gens(args.q))
    w = _parse_perm(args.w, args.n)
    elt = inducedmod.canonical_basis_element(mod, w)
    _emit(args, lambda: [str(elt)], elt.to_json)
    return 0


def _cmd_canonical(args) -> int:
    comp = _parse_comp(args.comp)
    if args.eta is not None:
        eta = uqrep.parse_bits(args.eta)
        vec = uqrep.canonical_basis(comp, eta)
        _emit(args, lambda: [str(vec)], vec.to_json)
        return 0
    # comp is validated once; every eta listed for it is valid
    n = sum(comp)
    rows = [
        (uqrep._bits(eta), uqrep._canonical_basis(comp, eta))
        for k in range(n, n - len(comp) - 1, -1)
        for eta in uqrep._weight_etas(comp, k)
    ]
    _emit(args, lambda: [f"{bits}: {vec}" for bits, vec in rows],
          lambda: [{"eta": bits, "vector": vec.to_json()} for bits, vec in rows])
    return 0


def _cmd_web_eval(args) -> int:
    comp = _parse_comp(args.comp)
    web = webcat.parse_word(comp, args.word)
    matrix = webcat.evaluate_matrix(web)
    tgt = ",".join(str(a) for a in web.target)
    columns = [("".join(str(b) for b in eta), matrix[eta]) for eta in sorted(matrix)]
    _emit(args, lambda: [f"target type ({tgt})"] + [f"v[{bits}] -> {v}" for bits, v in columns],
          lambda: {"web": web.to_json(), "target": list(web.target), "columns": [
              {"eta": bits, "image": v.to_json()} for bits, v in columns
          ]})
    return 0


def _cmd_web_coeff(args) -> int:
    comp = _parse_comp(args.comp)
    web = webcat.parse_word(comp, args.word)
    bottom = uqrep.parse_bits(args.bottom)
    top = uqrep.parse_bits(args.top)
    value = webcat.matrix_coefficient(webcat.LabeledWebDiagram(web, bottom, top))
    _emit(args, lambda: [str(value)],
          lambda: {"web": web.to_json(), "coeff": coeff_to_json(value)})
    return 0


def _cmd_tableaux(args) -> int:
    comp = _parse_comp(args.comp)
    if args.admissible_only:
        tabs = tabgroth.admissible_tableaux(comp, args.k)
    else:
        tabs = tabgroth.all_tableaux(comp, args.k)
    rows = [(t, tabgroth.perm_from_tableau(t), tabgroth.is_admissible(t)) for t in tabs]
    _emit(
        args,
        lambda: [f"{t}  w={w}  {'admissible' if adm else 'not admissible'}" for t, w, adm in rows],
        lambda: [{**t.to_json(), "w": list(w.one_line), "admissible": adm} for t, w, adm in rows],
    )
    return 0


def _by_length(pairs) -> list:
    """(w, value) pairs sorted by (length, one_line) of the permutation w."""
    return sorted(pairs, key=lambda pair: (pair[0].length(), pair[0].one_line))


def _cmd_translate(args) -> int:
    comp = _parse_comp(args.comp)
    i, k = args.pos, args.k
    tabgroth.check_weight(comp, k)
    if args.basis == "projective" and args.dir != "out":
        raise ValueError("projective classes translate out of the wall only")
    if args.basis == "simple" and args.dir != "onto":
        raise ValueError("simple classes translate onto the wall only")
    merged = uqrep.merged_type(comp, i)
    onto = args.dir == "onto"
    src, dst = (comp, merged) if onto else (merged, comp)
    # the library keys classes by eta; rows and terms print by index permutation
    keyed = _by_length((tabgroth.index_perm(src, eta), eta) for eta in uqrep.weight_etas(src, k))
    if args.basis == "proper":
        wall = tabgroth.translate_onto_wall if onto else tabgroth.translate_out_of_wall
        matrix = wall(comp, i, k)
        rows = [
            (w, _by_length((tabgroth.index_perm(dst, g), c) for g, c in matrix[eta].items()))
            for w, eta in keyed
        ]

        def text(terms):
            return " + ".join(f"({c})*[{wp}]" for wp, c in terms) if terms else "0"

        def image(terms):
            return [{"w": list(wp.one_line), "coeff": coeff_to_json(c)} for wp, c in terms]
    else:
        translate = tabgroth.translate_simple if onto else tabgroth.translate_projective
        rows = [(w, translate(comp, i, eta)) for w, eta in keyed]
        text, image = str, lambda vec: vec.to_json()
    payload = {"comp": list(comp), "pos": i, "k": k, "basis": args.basis, "dir": args.dir}
    _emit(args, lambda: [f"[{w}] -> {text(x)}" for w, x in rows], lambda: {
        **payload, "rows": [{"w": list(w.one_line), "image": image(x)} for w, x in rows]
    })
    return 0


def _cmd_homdim(args) -> int:
    comp = uqrep.regular_composition(args.n)
    eta_w = tabgroth.class_eta(_parse_perm(args.w, args.n), comp, args.k)
    eta_z = tabgroth.class_eta(_parse_perm(args.z, args.n), comp, args.k)
    if eta_w is None or eta_z is None:
        raise ValueError("both indices must label classes at this weight")
    value = tabgroth.hom_dim(eta_w, eta_z)
    _emit(args, lambda: [str(value)], lambda: {"n": args.n, "k": args.k, "dim": value})
    return 0


def _cmd_check(args) -> int:
    results = checks.run_suite(args.suite, args.max_n)
    _emit(
        args,
        lambda: [f"{name}: {'PASS' if err is None else f'FAIL ({err})'}" for name, err in results],
        lambda: [{"suite": name, "pass": err is None, "error": err} for name, err in results],
    )
    return 0 if all(err is None for _, err in results) else 1


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process and shared: parsing never
    changes it, and no caller may."""
    parser = argparse.ArgumentParser(
        prog="heckeweb",
        description="Exact canonical-basis, web-calculus and hook-tableau computations.",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--out", help="also write the JSON payload to this file")
    # the output flags are also accepted after the subcommand
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default=argparse.SUPPRESS)
    common.add_argument("--out", default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kl-basis", parents=[common], help="canonical basis element of the Hecke algebra")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--w", required=True, help='permutation: "s1*s2", "[2,1,3]" or "e"')
    p.set_defaults(func=_cmd_kl_basis)

    p = sub.add_parser("mod-basis", parents=[common], help="canonical basis element of a mixed induced module")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", default="", help="sign-wall generators, e.g. 1,3")
    p.add_argument("--q", default="", help="trivial-wall generators")
    p.add_argument("--w", required=True)
    p.set_defaults(func=_cmd_mod_basis)

    p = sub.add_parser("canonical", parents=[common], help="canonical basis of a tensor representation")
    p.add_argument("--comp", required=True, help="composition, e.g. 3,1,4")
    p.add_argument("--eta", help="0/1 sequence; omit to list all")
    p.set_defaults(func=_cmd_canonical)

    p = sub.add_parser("web-eval", parents=[common], help="evaluate a web word as an exact matrix")
    p.add_argument("--comp", required=True)
    p.add_argument("--word", required=True, help='bottom-to-top word, e.g. "m1.s1"')
    p.set_defaults(func=_cmd_web_eval)

    p = sub.add_parser("web-coeff", parents=[common], help="one matrix coefficient via diagram labelings")
    p.add_argument("--comp", required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--bottom", required=True)
    p.add_argument("--top", required=True)
    p.set_defaults(func=_cmd_web_coeff)

    p = sub.add_parser("tableaux", parents=[common], help="hook tableaux of a type")
    p.add_argument("--comp", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--admissible-only", action="store_true")
    p.set_defaults(func=_cmd_tableaux)

    p = sub.add_parser("translate", parents=[common], help="wall-crossing matrices on class bases")
    p.add_argument("--comp", required=True)
    p.add_argument("--pos", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--dir", choices=("onto", "out"), required=True)
    p.add_argument("--basis", choices=("proper", "projective", "simple"), required=True)
    p.set_defaults(func=_cmd_translate)

    p = sub.add_parser("homdim", parents=[common], help="hom dimension between projective classes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--w", required=True)
    p.add_argument("--z", required=True)
    p.set_defaults(func=_cmd_homdim)

    p = sub.add_parser("check", parents=[common], help="run a verification suite")
    p.add_argument(
        "--suite",
        default="all",
        choices=sorted(checks.SUITES) + ["all"],
    )
    p.add_argument("--max-n", type=int, default=4)
    p.set_defaults(func=_cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # RecursionError, the one RuntimeError left, comes from Python itself
    except (ArithmeticError, RuntimeError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'the input is too large'}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
