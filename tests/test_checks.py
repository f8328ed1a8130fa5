"""The battery's identities: how many each suite compares, and that an
operand built once and shared by many identities is still compared."""

from collections import Counter

from heckeweb import checks, cli, inducedmod, uqrep
from heckeweb.symgrp import Permutation

# the number of _require calls of each suite at max_n = 4
IDENTITIES_AT_4 = {
    "examples": 9,
    "hecke": 269,
    "induced": 6934,
    "adjunction": 1256,
    "stl": 264,
    "webs": 212,
    "triple": 284,
    "theorem1": 17,
    "efm": 634,
    "homdim": 98,
}


def test_each_suite_compares_its_pinned_number_of_identities(monkeypatch):
    counts = Counter()
    require = checks._require

    def counted(cond, msg):
        counts[suite] += 1
        require(cond, msg)

    monkeypatch.setattr(checks, "_require", counted)
    for suite in checks.SUITES:
        assert checks.run_suite(suite, 4) == [(suite, None)]
    assert counts == IDENTITIES_AT_4


def _check(capsys, suite):
    code = cli.main(["check", "--suite", suite, "--max-n", "4"])
    return code, capsys.readouterr().out


def test_a_wrong_generator_image_of_a_shared_standard_vector_fails_induced(capsys, monkeypatch):
    # N_w . H_2 for w = s1 in the regular module of S_4, one operand the
    # suite builds once for all the pairs of that module
    target = inducedmod.InducedModule.of(4).standard(Permutation((2, 1, 3, 4)))
    act = inducedmod.act_generator

    def broken(x, i):
        y = act(x, i)
        return y + x if i == 2 and x == target else y

    monkeypatch.setattr(inducedmod, "act_generator", broken)
    assert _check(capsys, "induced") == (1, (
        "induced: FAIL (Q not equivariant at M(n=4, p=[], q=[])->M(n=4, p=[], q=[1]),"
        " w=[2,1,3,4], i=2)\n"
    ))


def test_a_wrong_raised_vector_shared_by_its_pairs_fails_adjunction(capsys, monkeypatch):
    target = uqrep.standard_vector((1, 2), (0, 1))
    raise_ = uqrep.act_Eprime
    monkeypatch.setattr(uqrep, "act_Eprime", lambda v: raise_(v) + v if v == target else raise_(v))
    assert _check(capsys, "adjunction") == (
        1, "adjunction: FAIL (F/E' adjunction fails on (1, 2) at (0, 1),(0, 1))\n"
    )


def test_a_wrong_dual_canonical_vector_fails_triple(capsys, monkeypatch):
    # d_01 of (1, 2) plus the dual standard vector of v_10, which c_10 meets
    comp = (1, 2)
    wrong = uqrep.dual_canonical(comp, (0, 1)) + uqrep.dual_standard(comp, (1, 0))
    dual = uqrep.dual_canonical
    monkeypatch.setattr(
        uqrep, "dual_canonical", lambda c, eta: wrong if (c, eta) == (comp, (0, 1)) else dual(c, eta)
    )
    assert _check(capsys, "triple") == (
        1, "triple: FAIL (dual canonical pairing fails on (1, 2) at (1, 0),(0, 1))\n"
    )
