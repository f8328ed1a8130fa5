import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import heckeweb
from heckeweb import checks, cli, inducedmod, tabgroth, uqrep, webcat
from heckeweb.hecke import HeckeElement
from heckeweb.qarith import LaurentPoly, coeff_to_json

from oracles import tableaux_by_permutations


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_canonical_with_eta(capsys):
    code, out, _ = run_cli(capsys, "canonical", "--comp", "1,1", "--eta", "10")
    assert code == 0
    assert out.strip() == "v[10] + q*v[01]"


def test_canonical_lists_all(capsys):
    code, out, _ = run_cli(capsys, "canonical", "--comp", "1,1")
    assert code == 0
    lines = out.strip().splitlines()
    assert "01: v[01]" in lines
    assert "10: v[10] + q*v[01]" in lines


def test_canonical_seven_factors(capsys):
    code, out, _ = run_cli(
        capsys, "canonical", "--comp", "3,1,4,4,2,1,1", "--eta", "0100101"
    )
    assert code == 0
    assert (
        out.strip()
        == "v[0100101] + q^2*v[0100011] + q*v[0010101] + q^3*v[0010011]"
        " + q^5*v[0001101] + q^7*v[0001011]"
    )


def test_kl_basis(capsys):
    code, out, _ = run_cli(capsys, "kl-basis", "--n", "2", "--w", "s1")
    assert code == 0
    assert out.strip() == "H[2,1] + q*H[1,2]"
    code, out, _ = run_cli(capsys, "kl-basis", "--n", "2", "--w", "[2,1]")
    assert out.strip() == "H[2,1] + q*H[1,2]"


def test_kl_basis_json_round_trip(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "json", "kl-basis", "--n", "3", "--w", "s1*s2"
    )
    assert code == 0
    payload = json.loads(out)
    elt = HeckeElement.from_json(payload["n"], payload["element"])
    from heckeweb import hecke
    from heckeweb.symgrp import Permutation

    assert elt == hecke.kl_basis_element(Permutation.from_word(3, [1, 2]))


def test_mod_basis(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "json", "mod-basis", "--n", "2", "--q", "1", "--w", "e"
    )
    assert code == 0
    elt = inducedmod.ModuleElement.from_json(json.loads(out))
    mod = inducedmod.InducedModule.of(2, q_gens=[1])
    assert elt == mod.generator()


def test_web_eval(capsys):
    code, out, _ = run_cli(capsys, "web-eval", "--comp", "1,1", "--word", "m1")
    assert code == 0
    assert "target type (2)" in out
    assert "v[00] -> (q^-1 + q)*v[0]" in out


def test_web_eval_json_round_trip(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "json", "web-eval", "--comp", "1,1", "--word", "m1.s1"
    )
    payload = json.loads(out)
    web = webcat.Web.from_json(payload["web"])
    assert web == webcat.parse_word((1, 1), "m1.s1")
    for col in payload["columns"]:
        vec = uqrep.TensorVector.from_json(col["image"])
        eta = tuple(int(c) for c in col["eta"])
        assert vec == webcat.evaluate(web, uqrep.standard_vector((1, 1), eta))


def test_web_coeff(capsys):
    code, out, _ = run_cli(
        capsys,
        "web-coeff", "--comp", "1,1", "--word", "m1.s1", "--bottom", "10", "--top", "01",
    )
    assert code == 0
    assert out.strip() == "1"


def test_tableaux(capsys):
    code, out, _ = run_cli(
        capsys, "tableaux", "--comp", "1,2,2,2", "--k", "4", "--admissible-only"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    assert all("admissible" in line for line in lines)
    assert any("row[1 3 4] col[4 3 2 2]" in line for line in lines)


def test_tableaux_listing_matches_the_permutation_walk(capsys, monkeypatch):
    from heckeweb import tabgroth

    cases = [("1,2", "1"), ("2,1,1", "2"), ("1,2,2", "0"), ("3,1,2", "6"), ("1,1,1,1", "2")]
    for fmt in ("text", "json"):
        for comp, k in cases:
            argv = ("--format", fmt, "tableaux", "--comp", comp, "--k", k)
            with monkeypatch.context() as m:
                m.setattr(tabgroth, "all_tableaux", tableaux_by_permutations)
                want = run_cli(capsys, *argv)
            assert run_cli(capsys, *argv) == want, (fmt, comp, k)
            assert want[0] == 0


def test_tableaux_size_bound(capsys):
    code, out, _ = run_cli(capsys, "tableaux", "--comp", "13", "--k", "5")
    assert code == 0 and out.startswith("row[1 1 1 1 1 1 1 1] col[1 1 1 1 1]  w=[1,2,")
    assert len(out.splitlines()) == 1
    code, out, err = run_cli(capsys, "tableaux", "--comp", "1,1,1,1,1,1,1,1,1", "--k", "4")
    assert code == 2 and out == "" and "error:" in err and "362880" in err
    code, out, _ = run_cli(capsys, "tableaux", "--comp", "1,1,1,1,1,1,1,1,1", "--k", "4",
                           "--admissible-only")
    assert code == 0 and len(out.splitlines()) == 126


def test_translate(capsys):
    code, out, _ = run_cli(
        capsys,
        "translate", "--comp", "1,1", "--pos", "1", "--k", "1",
        "--dir", "out", "--basis", "proper",
    )
    assert code == 0
    assert "[[1,2]] -> (q)*[[1,2]] + (1)*[[2,1]]" in out

    code, out, _ = run_cli(
        capsys,
        "translate", "--comp", "1,1", "--pos", "1", "--k", "1",
        "--dir", "onto", "--basis", "simple",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert "[[1,2]] -> 0" in lines
    # projective translation only goes out of the wall
    code, _, err = run_cli(
        capsys,
        "translate", "--comp", "1,1", "--pos", "1", "--k", "1",
        "--dir", "onto", "--basis", "projective",
    )
    assert code == 2
    assert "error:" in err


def test_homdim(capsys):
    code, out, _ = run_cli(
        capsys, "homdim", "--n", "2", "--k", "1", "--w", "e", "--z", "s1"
    )
    assert code == 0
    assert out.strip() == "1"


def test_check_suite_pass(capsys):
    code, out, _ = run_cli(capsys, "check", "--suite", "stl", "--max-n", "3")
    assert code == 0
    assert "stl: PASS" in out


def test_check_suite_failure_sets_exit_code(capsys, monkeypatch):
    from heckeweb import checks

    def broken(max_n):
        raise checks.CheckFailure("synthetic defect for the exit-code path")

    monkeypatch.setitem(checks.SUITES, "stl", broken)
    code, out, _ = run_cli(capsys, "check", "--suite", "stl", "--max-n", "3")
    assert code == 1
    assert "stl: FAIL (synthetic defect" in out


def test_check_suite_failure_reports_the_failing_case(capsys, monkeypatch):
    merge = uqrep.phi_merge
    monkeypatch.setattr(uqrep, "phi_merge", lambda v, i: merge(v, i).scale(LaurentPoly.q(1)))
    code, out, _ = run_cli(capsys, "check", "--suite", "theorem1", "--max-n", "2")
    assert code == 1
    assert out == "theorem1: FAIL (translation/web mismatch at (1, 1), position 1)\n"


@pytest.mark.parametrize(
    "suite,module,name,breaks,line",
    [
        (
            "webs", checks, "quantum_binom", lambda f: lambda n, k: f(n, k) * LaurentPoly.q(1),
            "loop relation fails a=1 b=1",
        ),
        (
            "webs", checks, "quantum_factorial",
            lambda f: lambda n: f(n) if n < 3 else f(n) * LaurentPoly.q(1),
            "bundle loop != [n]! at n=3",
        ),
        (
            "efm", uqrep, "act_F", lambda f: lambda v: f(v).scale(LaurentPoly.q(1)),
            "lowering rule on projectives fails at (1,), k=0",
        ),
        (
            "efm", uqrep, "act_Eprime", lambda f: lambda v: f(v).scale(LaurentPoly.q(1)),
            "raising rule on simples fails at (1,), k=0",
        ),
        (
            "homdim", tabgroth, "hom_dim_form_route", lambda f: lambda a, b: f(a, b) + 1,
            "diagram count 1 disagrees with the form value 2 at (1,), (1,)",
        ),
    ],
)
def test_check_suite_names_the_identity_that_fails(
    capsys, monkeypatch, suite, module, name, breaks, line
):
    monkeypatch.setattr(module, name, breaks(getattr(module, name)))
    code, out, _ = run_cli(capsys, "check", "--suite", suite, "--max-n", "4")
    assert code == 1 and out == f"{suite}: FAIL ({line})\n"


def test_a_route_disagreement_fails_its_suite_and_the_battery_goes_on(capsys, monkeypatch):
    form = tabgroth.hom_dim_form_route
    monkeypatch.setattr(tabgroth, "hom_dim_form_route", lambda a, b: form(a, b) + 1)
    code, out, _ = run_cli(capsys, "check", "--suite", "all", "--max-n", "2")
    *passed, failed = out.splitlines()
    assert code == 1
    assert passed == [f"{suite}: PASS" for suite in checks.SUITES if suite != "homdim"]
    assert failed == "homdim: FAIL (diagram count 1 disagrees with the form value 2 at (1,), (1,))"


def _in_image(fmap, partner, src, dst, x) -> bool:
    """Whether x lies in the image of partner, given that fmap after
    partner is a scalar s times the identity."""
    (s,) = fmap(src, dst, partner(dst, src, dst.generator())).support.values()
    return partner(dst, src, fmap(src, dst, x)) == x.scale(s)


@pytest.mark.parametrize(
    "name,partner,line",
    [
        (
            "map_i", None,
            "i not equivariant at M(n=2, p=[], q=[])->M(n=2, p=[], q=[]), w=[2,1], i=1",
        ),
        (
            "map_Q", "map_i",
            "Q not equivariant at M(n=2, p=[], q=[])->M(n=2, p=[], q=[1]), w=[2,1], i=1",
        ),
        (
            "map_j", None,
            "j not equivariant at M(n=2, p=[], q=[])->M(n=2, p=[], q=[]), w=[2,1], i=1",
        ),
        (
            "map_z", "map_j",
            "z not equivariant at M(n=2, p=[], q=[])->M(n=2, p=[1], q=[]), w=[2,1], i=1",
        ),
    ],
)
def test_induced_suite_names_the_map_that_is_not_equivariant(
    capsys, monkeypatch, name, partner, line
):
    # the map stays right on a standard vector and on the image of its
    # partner, the inputs of Q(i(x)) == x and z(j(x)) == scale * x, so
    # the first identity to fail is the equivariance of the map
    fmap = getattr(inducedmod, name)

    def broken(src, dst, x):
        y = fmap(src, dst, x)
        if list(x.support.values()) == [LaurentPoly.one()]:
            return y
        if partner and _in_image(fmap, getattr(inducedmod, partner), src, dst, x):
            return y
        return y.scale(LaurentPoly.q(1))

    monkeypatch.setattr(inducedmod, name, broken)
    code, out, _ = run_cli(capsys, "check", "--suite", "induced", "--max-n", "2")
    assert code == 1 and out == f"induced: FAIL ({line})\n"


def test_translate_onto_proper(capsys):
    code, out, _ = run_cli(
        capsys,
        "translate", "--comp", "1,1", "--pos", "1", "--k", "1",
        "--dir", "onto", "--basis", "proper",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert "[[1,2]] -> (1)*[[1,2]]" in lines
    assert "[[2,1]] -> (q^-1)*[[1,2]]" in lines


def test_check_all_small(capsys):
    code, out, _ = run_cli(capsys, "check", "--suite", "all", "--max-n", "2")
    assert code == 0
    for suite in ("examples", "hecke", "stl", "webs", "theorem1", "efm", "homdim"):
        assert f"{suite}: PASS" in out


def test_usage_errors(capsys):
    code, _, err = run_cli(capsys, "canonical", "--comp", "1,x")
    assert code == 2 and "error:" in err
    code, _, err = run_cli(capsys, "canonical", "--comp", "1,1", "--eta", "012")
    assert code == 2
    code, _, err = run_cli(capsys, "canonical", "--comp", "1,1", "--eta", "101")
    assert code == 2
    code, _, err = run_cli(
        capsys,
        "web-coeff", "--comp", "1,1", "--word", "m1", "--bottom", "10", "--top", "01",
    )
    assert code == 2
    code, _, err = run_cli(capsys, "web-eval", "--comp", "1,1", "--word", "m7")
    assert code == 2
    code, _, err = run_cli(capsys, "kl-basis", "--n", "2", "--w", "s5")
    assert code == 2


@pytest.mark.parametrize("bottom, top, bad", [
    ("1", "01", "(1,)"),  # the source (1, 1) has two factors
    ("101", "01", "(1, 0, 1)"),
    ("10", "0", "(0,)"),  # so has the target of the identity web
    ("10", "011", "(0, 1, 1)"),
])
def test_web_coeff_refuses_a_labeling_of_the_wrong_length(capsys, bottom, top, bad):
    code, out, err = run_cli(
        capsys, "web-coeff", "--comp", "1,1", "--word", "id", "--bottom", bottom, "--top", top
    )
    assert (code, out) == (2, "")
    assert err == f"error: bad 0/1 sequence {bad} for composition (1, 1)\n"


def _main_output(capsys, argv):
    """(exit status, stdout, stderr) of cli.main(argv), usage errors included."""
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_the_cached_parser_prints_what_a_fresh_parser_prints(capsys, monkeypatch):
    calls = [
        ("check", "--suite", "stl", "--max-n", "3"),
        ("canonical", "--comp", "2,1"),
        ("kl-basis", "--n", "0", "--w", "e"),
        ("--format", "json", "canonical", "--comp", "2,1"),
        ("check", "--suite", "no-such-suite"),
        ("canonical", "--comp", "1,1", "--eta", "10", "--format", "json"),
        ("check", "--suite", "stl", "--max-n", "3", "--format", "json"),
        ("canonical", "--comp", "2,1"),
    ]
    assert cli.build_parser() is cli.build_parser()
    cached = [_main_output(capsys, argv) for argv in calls]
    assert [code for code, _, _ in cached] == [0, 0, 2, 0, 2, 0, 0, 0]
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert [_main_output(capsys, argv) for argv in calls] == cached


def test_argparse_exit_code_on_bad_subcommand():
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 2


def test_out_file(tmp_path, capsys):
    target = tmp_path / "payload.json"
    code, out, _ = run_cli(
        capsys, "canonical", "--comp", "1,1", "--eta", "10", "--out", str(target)
    )
    assert code == 0
    payload = json.loads(target.read_text())
    assert uqrep.TensorVector.from_json(payload) == uqrep.canonical_basis((1, 1), (1, 0))


def test_out_path_that_cannot_be_written_is_an_input_error(tmp_path, capsys):
    for target in (tmp_path / "missing" / "x.json", tmp_path):
        for fmt in ("text", "json"):
            code, out, err = run_cli(
                capsys, "--format", fmt, "--out", str(target),
                "canonical", "--comp", "1,1", "--eta", "10",
            )
            assert code == 2 and out == "", (target, fmt)
            assert err.startswith("error: cannot write --out"), err
    # a writable path gets the same bytes as JSON stdout
    target = tmp_path / "payload.json"
    code, out, _ = run_cli(
        capsys, "--format", "json", "--out", str(target), "canonical", "--comp", "1,1"
    )
    assert code == 0 and target.read_text() == out


TEXT_ONLY_COMMANDS = [
    ("kl-basis", "--n", "3", "--w", "s1*s2"),
    ("mod-basis", "--n", "3", "--q", "2", "--w", "s1"),
    ("canonical", "--comp", "1,1", "--eta", "10"),
    ("canonical", "--comp", "2,1"),
    ("web-eval", "--comp", "1,1", "--word", "m1"),
    ("tableaux", "--comp", "2,1,2", "--k", "2"),
    ("translate", "--comp", "2,1,2", "--pos", "1", "--k", "3", "--dir", "out", "--basis", "proper"),
    ("translate", "--comp", "2,1,2", "--pos", "1", "--k", "3", "--dir", "out",
     "--basis", "projective"),
]


@pytest.mark.parametrize("argv", TEXT_ONLY_COMMANDS, ids=" ".join)
def test_text_output_builds_no_json(capsys, monkeypatch, tmp_path, argv):
    want = run_cli(capsys, *argv)
    json_out = run_cli(capsys, "--format", "json", *argv)[1]

    def no_json(*args, **kwargs):
        raise AssertionError("JSON built for text output")

    owners = (HeckeElement, inducedmod.ModuleElement, uqrep.TensorVector, webcat.Web,
              tabgroth.HookTableau)
    for owner in owners:
        monkeypatch.setattr(owner, "to_json", no_json)
    monkeypatch.setattr(cli, "coeff_to_json", no_json)
    assert run_cli(capsys, *argv) == want
    monkeypatch.undo()
    # --out in text mode still prints the text and writes the JSON
    target = tmp_path / "payload.json"
    assert run_cli(capsys, "--out", str(target), *argv) == want
    assert target.read_text() == json_out


def test_console_entry_point():
    # the subprocess imports the heckeweb package that this test imported
    package_root = Path(heckeweb.__file__).parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "heckeweb.cli", "canonical", "--comp", "1,1", "--eta", "10"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(package_root)},
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "v[10] + q*v[01]"


def test_importing_the_cli_loads_no_introspection_or_json_module():
    # a fresh interpreter, so that no module this test run loaded hides one
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import heckeweb.cli\n"
        "heckeweb.cli.build_parser()\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    package_root = Path(heckeweb.__file__).parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(package_root)},
        check=True,
    )
    added = set(proc.stdout.split())
    assert "heckeweb.cli" in added
    assert added.isdisjoint({"dataclasses", "inspect", "ast", "dis", "tokenize", "json"}), added


def test_permutation_size_must_match_n(capsys):
    code, out, err = run_cli(capsys, "kl-basis", "--n", "3", "--w", "[2,1]")
    assert code == 2 and out == "" and "error:" in err
    code, out, err = run_cli(
        capsys, "homdim", "--n", "3", "--k", "1", "--w", "e", "--z", "[2,1]"
    )
    assert code == 2 and out == "" and "error:" in err
    one = coeff_to_json(LaurentPoly.one())
    assert HeckeElement.from_json(2, [{"w": [2, 1], "coeff": one}]).n == 2
    with pytest.raises(ValueError):
        HeckeElement.from_json(3, [{"w": [2, 1], "coeff": one}])


@pytest.mark.parametrize(
    "argv,message",
    [
        (("web-eval", "--comp", "2", "--word", "s1:1"), "malformed web token 's1:1'"),
        (("web-eval", "--comp", "2", "--word", "s1:1,1,1"), "malformed web token 's1:1,1,1'"),
        (("web-eval", "--comp", "2", "--word", "m"), "malformed web token 'm'"),
        (("web-eval", "--comp", "2", "--word", "s1:a,b"), "malformed web token 's1:a,b'"),
        (("kl-basis", "--n", "3", "--w", "s"), "malformed reduced word 's'"),
        (("kl-basis", "--n", "3", "--w", "sx"), "malformed reduced word 'sx'"),
        (("kl-basis", "--n", "3", "--w", "[1,2,3"), "malformed one-line permutation '[1,2,3'"),
        # a well-formed web token with a bad value keeps its own message
        (("web-eval", "--comp", "2", "--word", "m5"), "merge position 5 out of range for (2,)"),
        (("web-eval", "--comp", "2", "--word", "s1:0,2"), "cannot split label 2 as 0+2"),
        (
            ("web-eval", "--comp", "3", "--word", "s1"),
            "split s1 on label 3 is ambiguous; use s1:a,b",
        ),
    ],
)
def test_a_bad_word_exits_2_with_a_message_that_names_it(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and err == f"error: {message}\n"


def test_nonpositive_n_is_a_usage_error(capsys):
    for n in ("0", "-2"):
        for argv in [
            ("kl-basis", "--n", n, "--w", "e"),
            ("mod-basis", "--n", n, "--w", "e"),
            ("homdim", "--n", n, "--k", "0", "--w", "e", "--z", "e"),
        ]:
            code, out, err = run_cli(capsys, *argv)
            assert code == 2 and out == "" and "positive" in err, argv


def test_translate_rejects_k_outside_the_weights(capsys):
    # (1,1) has weights k = 0, 1, 2
    for direction, basis in [
        ("out", "proper"), ("onto", "proper"), ("out", "projective"), ("onto", "simple"),
    ]:
        code, out, err = run_cli(
            capsys,
            "translate", "--comp", "1,1", "--pos", "1", "--k", "9",
            "--dir", direction, "--basis", basis,
        )
        assert code == 2 and out == "" and "error:" in err, (direction, basis)


def test_broken_invariant_exits_3_not_1(capsys, monkeypatch):
    from heckeweb import tabgroth

    def broken(*args):
        raise ArithmeticError("synthetic shape defect")

    monkeypatch.setattr(inducedmod, "canonical_basis_element", broken)
    code, out, err = run_cli(capsys, "mod-basis", "--n", "2", "--w", "e")
    assert code == 3 and out == ""
    assert err.strip() == "internal error: synthetic shape defect"

    def disagree(*args):
        raise RuntimeError("synthetic route disagreement")

    monkeypatch.setattr(tabgroth, "hom_dim", disagree)
    code, _, err = run_cli(
        capsys, "homdim", "--n", "2", "--k", "1", "--w", "e", "--z", "s1"
    )
    assert code == 3 and err.startswith("internal error:")


@pytest.mark.parametrize("exc", [MemoryError(), MemoryError("no room for the listing")])
def test_running_out_of_memory_exits_4_not_1(capsys, monkeypatch, exc):
    def exhausted(*args):
        raise exc

    monkeypatch.setattr(inducedmod, "canonical_basis_element", exhausted)
    code, out, err = run_cli(capsys, "mod-basis", "--n", "2", "--w", "e")
    assert code == 4 and out == ""
    assert err.startswith("error: out of memory: ") and err.count("\n") == 1
    assert str(exc) in err


def test_translate_rejects_a_position_outside_the_parts(capsys):
    # (1,1,1) has merge positions 1 and 2
    for pos in ("0", "3"):
        for direction, basis in [("out", "projective"), ("onto", "simple")]:
            code, out, err = run_cli(
                capsys,
                "translate", "--comp", "1,1,1", "--pos", pos, "--k", "2",
                "--dir", direction, "--basis", basis,
            )
            assert code == 2 and out == "", (pos, basis)
            assert f"merge position {pos}" in err, (pos, basis)


def test_check_rejects_a_size_bound_below_one(capsys):
    for max_n in ("0", "-3"):
        code, out, err = run_cli(capsys, "check", "--suite", "all", "--max-n", max_n)
        assert code == 2 and out == "" and "max_n" in err, max_n


def test_empty_composition_part_is_a_usage_error(capsys):
    commands = [
        ("canonical",),
        ("web-eval", "--word", "id"),
        ("web-coeff", "--word", "id", "--bottom", "", "--top", ""),
        ("tableaux", "--k", "0"),
        ("translate", "--pos", "1", "--k", "0", "--dir", "onto", "--basis", "proper"),
    ]
    for comp in (",", "", "1,,1", "1,1,", ",1"):
        for command, *rest in commands:
            code, out, err = run_cli(capsys, command, "--comp", comp, *rest)
            assert code == 2 and out == "", (command, comp)
            assert "malformed composition" in err, (command, comp)


@pytest.mark.parametrize(
    "suite,module,name,size",
    [
        ("triple", uqrep, "canonical_basis_by_bar", lambda comp, eta: len(comp)),
        ("efm", uqrep, "act_F", lambda v: sum(v.comp)),
        ("homdim", tabgroth, "hom_dim", lambda eta_w, eta_z: len(eta_w)),
    ],
)
def test_check_reaches_the_size_bound(capsys, monkeypatch, suite, module, name, size):
    sizes = set()
    original = getattr(module, name)

    def spy(*args):
        sizes.add(size(*args))
        return original(*args)

    monkeypatch.setattr(module, name, spy)
    code, out, _ = run_cli(capsys, "check", "--suite", suite, "--max-n", "5")
    assert code == 0 and out == f"{suite}: PASS\n"
    assert max(sizes) == 5


def test_admissible_listing_rejects_k_outside_the_weights(capsys):
    from heckeweb import tabgroth

    # (2,) has weights k = 1, 2
    for fmt in ("text", "json"):
        code, out, err = run_cli(
            capsys, "--format", fmt, "tableaux", "--comp", "2", "--k", "0", "--admissible-only"
        )
        assert code == 2 and out == "" and "k=0 is not a weight of (2,)" in err, fmt
    with pytest.raises(ValueError):
        tabgroth.admissible_tableaux((2,), 0)
    # the full listing still takes every k in 0..n
    code, out, _ = run_cli(capsys, "tableaux", "--comp", "2", "--k", "0")
    assert code == 0 and out == "row[1 1] col[]  w=[1,2]  not admissible\n"


def test_fractional_canonical_coefficient_is_an_internal_error(capsys, monkeypatch):
    interned = uqrep._coefficient

    def with_a_fraction(terms):
        return interned(terms) / LaurentPoly({0: 1, 2: 1})

    monkeypatch.setattr(uqrep, "_coefficient", with_a_fraction)
    heckeweb.clear_caches()
    code, out, err = run_cli(capsys, "canonical", "--comp", "1,1", "--eta", "10")
    assert code == 3 and out == ""
    assert err.startswith("internal error:") and "not a Laurent polynomial" in err


# SHA-256 of the `--format json` stdout of each command: the JSON output is
# pinned byte for byte, Laurent coefficients (den {"0": 1}) and fractions alike.
JSON_DIGESTS = [
    (("kl-basis", "--n", "4", "--w", "[4,2,3,1]"),
     "cf92d7f63e69f3d6498adf6c8a80fe0d372b621e818251ac86b0a876c9c38a45"),
    (("mod-basis", "--n", "4", "--p", "3", "--q", "1", "--w", "s2*s1*s3*s2"),
     "ac783b6ed48f8b303e6a3bfffdd0045c3cf121582982c749ff70423f611039b3"),
    (("canonical", "--comp", "3,1,4,4,2,1,1", "--eta", "0100101"),
     "25983929badb1cc6749d495331275e4b492703dfa5651f2135582ee67361dfcd"),
    (("canonical", "--comp", "2,1,2,1"),
     "6ba0776c6062e127eb22222d0a875e138f2b45d35fd8f95ccd39b70c07264538"),
    (("web-eval", "--comp", "1,1,1", "--word", "m1.m1.s1:1,2"),
     "69b0f4838d087e07aea4bc8214dc73d2a7b18d601c9a26fc5c503a9af8b14d8d"),
    (("web-coeff", "--comp", "1,1,1", "--word", "m1.m1.s1:1,2",
      "--bottom", "001", "--top", "10"),
     "1062a8f06f2f6eb041d9e2afddb6183d281e9de4208ba14f235db0b18d8e0d72"),
    (("homdim", "--n", "3", "--k", "1", "--w", "e", "--z", "s1"),
     "929dfb8887eb161ccda4a7877ed26d3010cd8a0a96947ea9c982e1c8395d8e8d"),
    (("translate", "--comp", "2,1,2", "--pos", "1", "--k", "3",
      "--dir", "out", "--basis", "proper"),
     "7a28c998542bd3f672521176209ed4af992950319c62ca0b3a4862db93ad68ad"),
    (("translate", "--comp", "2,1,2", "--pos", "1", "--k", "3",
      "--dir", "onto", "--basis", "proper"),
     "9538964a11eb9b3282519a7b4ee8c176502f649d0dd03f3abd164d633014696b"),
    (("translate", "--comp", "2,1,2", "--pos", "1", "--k", "3",
      "--dir", "out", "--basis", "projective"),
     "a87311c34dfd870814991d36e86e91be2fed5a9a6f67d699a39ca6d78e1b8b59"),
    (("translate", "--comp", "2,1,2", "--pos", "1", "--k", "4",
      "--dir", "onto", "--basis", "simple"),
     "b2ca69901e314204d99624d15e5851cd2d4f684edd886e7561e1f73b0b1f8c00"),
    (("tableaux", "--comp", "1,2,2,2", "--k", "4", "--admissible-only"),
     "877b9ac8266c481f8205044a9ff90c0529165d898ed35d66a7506c08567c6aed"),
    (("tableaux", "--comp", "2,1,2", "--k", "2"),
     "f8417dbeac7366e81afb0907e0ab833d9496beb8b5066940697e9ccdf4be73d8"),
]


@pytest.mark.parametrize(
    "argv,digest", JSON_DIGESTS, ids=[" ".join(argv) for argv, _ in JSON_DIGESTS]
)
def test_json_output_is_pinned(capsys, argv, digest):
    import hashlib

    code, out, err = run_cli(capsys, "--format", "json", *argv)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# SHA-256 of the text stdout of `translate` in each basis/direction mode, of
# `homdim` and of `tableaux`: the rows and terms keep their (length, one_line)
# order of the index permutations, whatever index the library computes with.
TEXT_DIGESTS = [
    (("translate", "--comp", "2,1,2", "--pos", "2", "--k", "3",
      "--dir", "onto", "--basis", "proper"),
     "b40971170d973c2f207dfcb8d60ead9ddb0f477f52f1a564fe9e3479e8c47198"),
    (("translate", "--comp", "2,1,2", "--pos", "2", "--k", "4",
      "--dir", "out", "--basis", "proper"),
     "efb90405473bed002d04496b1a7fbbac2eb413139215ee64175eea7893bfcadd"),
    (("translate", "--comp", "2,1,2", "--pos", "2", "--k", "3",
      "--dir", "out", "--basis", "projective"),
     "9ebebd3d2e0af394cfa5883cbbc5dd9f68bd6b875fb9b8011476c56eda98593f"),
    (("translate", "--comp", "2,1,2", "--pos", "2", "--k", "3",
      "--dir", "onto", "--basis", "simple"),
     "7162f455c939cc7c5254f04d813329d1e0ea392adf3697f60c562d26982acd4b"),
    (("translate", "--comp", "1,1,1,1,1", "--pos", "2", "--k", "2",
      "--dir", "onto", "--basis", "proper"),
     "c36195de998af39c1a839dcd191a1dd54d22f3189c767d6d290beee71a152b17"),
    (("translate", "--comp", "1,1,1,1,1", "--pos", "3", "--k", "3",
      "--dir", "out", "--basis", "proper"),
     "b5d0f4fbbd04fbb3701049e0675c1e081b1de062b5534b253f85b074dd41f01d"),
    (("translate", "--comp", "1,1,1,1,1", "--pos", "2", "--k", "2",
      "--dir", "out", "--basis", "projective"),
     "79b8f8ab6ddde8862df1002374a1f09bb19b1554b8ba5a39346ab09fbe92af7d"),
    (("translate", "--comp", "1,1,1,1,1", "--pos", "3", "--k", "2",
      "--dir", "onto", "--basis", "simple"),
     "964a9cbde56b86012c920cf12f00f02964f9ac71240ab1616294a5e6ee78ef90"),
    (("homdim", "--n", "4", "--k", "1", "--w", "e", "--z", "s1"),
     "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865"),
    (("homdim", "--n", "4", "--k", "2", "--w", "[3,2,1,4]", "--z", "[3,2,4,1]"),
     "7de1555df0c2700329e815b93b32c571c3ea54dc967b89e81ab73b9972b72d1d"),
    (("homdim", "--n", "4", "--k", "2", "--w", "[2,3,1,4]", "--z", "[3,4,2,1]"),
     "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa"),
    (("homdim", "--n", "4", "--k", "3", "--w", "[3,4,2,1]", "--z", "[4,3,2,1]"),
     "7ee29791fc17e986b97128845622b077fb45e349fdb80523fac9dba879b4ad60"),
    (("homdim", "--n", "4", "--k", "4", "--w", "[4,3,2,1]", "--z", "[4,3,2,1]"),
     "68ca3fba3b7e864770cb61aeb306d4bd4354b68ab4dd38450860c5d823e42a53"),
    (("tableaux", "--comp", "1,2,2,2", "--k", "4", "--admissible-only"),
     "7739fc5cba5b4bff6ec9574f42097b220916d21b967859315586efa0048d3dc6"),
    (("tableaux", "--comp", "2,1,2", "--k", "2"),
     "c35866d02e09606d5807f4af6da5743bce57e94caafa01ca5c37b99e4c428f1c"),
]


@pytest.mark.parametrize(
    "argv,digest", TEXT_DIGESTS, ids=[" ".join(argv) for argv, _ in TEXT_DIGESTS]
)
def test_text_output_is_pinned(capsys, argv, digest):
    import hashlib

    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest
