"""Acceptance battery: one test per criterion, exact tolerances, timed.

Each test prints a single pass line with its runtime (visible with -s);
a failure surfaces as an ordinary pytest failure with the pinpointed
message raised by the check.
"""

import io
import time
from contextlib import redirect_stdout

from heckeweb import checks, cli


def _timed(number, label, bound_seconds, fn, *args):
    start = time.perf_counter()
    fn(*args)
    elapsed = time.perf_counter() - start
    print(f"criterion {number:2d} ({label}): PASS in {elapsed:.2f}s (bound {bound_seconds}s)")
    assert elapsed < bound_seconds, f"criterion {number} exceeded {bound_seconds}s: {elapsed:.2f}s"


def _run_cli(*argv) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(list(argv))
    assert code == 0
    return buf.getvalue()


def _example_fidelity():
    checks.check_examples()
    out = _run_cli("canonical", "--comp", "1,1")
    lines = out.strip().splitlines()
    assert "01: v[01]" in lines
    assert "10: v[10] + q*v[01]" in lines
    out = _run_cli("canonical", "--comp", "3,1,4,4,2,1,1", "--eta", "0100101")
    assert out.strip() == (
        "v[0100101] + q^2*v[0100011] + q*v[0010101] + q^3*v[0010011]"
        " + q^5*v[0001101] + q^7*v[0001011]"
    )


def test_criterion_01_example_fidelity(capsys):
    with capsys.disabled():
        _timed(1, "example fidelity", 1, _example_fidelity)


def test_criterion_02_hecke_canonical_basis(capsys):
    with capsys.disabled():
        _timed(2, "Hecke canonical basis vs brute force, n<=4", 5, checks.check_hecke, 4)


def test_criterion_03_induced_module_maps(capsys):
    with capsys.disabled():
        _timed(3, "induced module maps, n<=4", 10, checks.check_induced_maps, 4)


def test_criterion_04_representation_identities(capsys):
    with capsys.disabled():
        _timed(4, "representation identities, n<=5", 30, checks.check_rep_identities, 5)


def test_criterion_05_schur_weyl_stl(capsys):
    with capsys.disabled():
        _timed(5, "Hecke generators and quotient relations, n<=5", 30, checks.check_schur_weyl_stl, 5)


def test_criterion_06_web_relations(capsys):
    with capsys.disabled():
        _timed(6, "web relations and labeling oracle, n<=5", 30, checks.check_web_relations, 5)


def test_criterion_07_canonical_triple_agreement(capsys):
    with capsys.disabled():
        _timed(7, "canonical basis triple agreement, n<=4", 10, checks.check_canonical_triple, 4)


def test_criterion_08_translation_vs_webs(capsys):
    with capsys.disabled():
        _timed(8, "translation matrices vs webs, n<=5", 60, checks.check_theorem1, 5)


def test_criterion_09_kgroup_structure(capsys):
    with capsys.disabled():
        _timed(9, "raising/lowering on class bases, n<=4", 30, checks.check_kgroup, 4)


def test_criterion_10_hom_dimensions(capsys):
    with capsys.disabled():
        _timed(10, "hom dimension double counting, n<=4", 10, checks.check_homdim, 4)
