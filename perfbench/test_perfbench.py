"""Self-tests of the benchmark harness. They are fast and assert no timing
threshold, so the repository's test run can collect them."""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _small_ops() -> list[workloads.Op]:
    """The README examples of `battery` plus a few `kl` ops: fast, fixed."""
    readme = [op for op in workloads.ops_for("battery", 1) if op.args[0] != "check"]
    return readme + workloads.ops_for("kl", 1)[:5]


def _bindings() -> dict:
    """Every module- and class-level binding the tracer may replace."""
    out = {}
    for layer in layers.LAYERS:
        module = importlib.import_module(f"heckeweb.{layer}")
        for name, obj in vars(module).items():
            out[(layer, name)] = obj
            if isinstance(obj, type):
                for attr, value in vars(obj).items():
                    out[(layer, name, attr)] = value
    return out


def _run_benchmark(*args, cwd=None):
    return subprocess.run(
        [sys.executable, str(Path("perfbench") / "run.py"), *args],
        cwd=cwd or HERE.parent, capture_output=True, text=True, timeout=120,
    )


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [
        (m["name"], m["unit"], m["better"]) for m in spec["per_layer"]
    ] == list(layers.PER_LAYER)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_inputs_come_from_the_seed_alone():
    for name in workloads.WORKLOADS:
        assert workloads.ops_for(name, 3) == workloads.ops_for(name, 3)
        assert workloads.ops_for(name, 3) != workloads.ops_for(name, 4)
        names = [op.name for op in workloads.ops_for(name, 3)]
        assert len(names) == len(set(names))


def test_corrupted_reference_digest_fails_the_op():
    worker.load_program()
    ops = _small_ops()
    refs = workloads.load_refs()
    assert worker.run_pass(ops, refs)["failures"] == {}
    for victim in (ops[0], ops[-1]):  # one CLI op, one library op
        bad = dict(refs, **{victim.name: "0" * 64})
        assert list(worker.run_pass(ops, bad)["failures"]) == [victim.name]


def test_web_route_rejects_a_wrong_listing():
    worker.load_program()
    op = workloads.Op(
        "web-checked: canonical --comp 2,1,3", "cli",
        ("canonical", "--comp", "2,1,3"), "web",
    )
    code, out = worker.execute(op)
    assert workloads.verify(op, code, out, {}) is None
    lines = out.splitlines()
    wrong_term = "\n".join(lines[:-1] + [lines[-1] + " + v[000]"]) + "\n"
    wrong_order = "\n".join([lines[1], lines[0]] + lines[2:]) + "\n"
    for bad in (wrong_term, wrong_order, out + out):
        assert workloads.verify(op, code, bad, {}) is not None
    assert workloads.verify(op, 2, out, {}) == "exit status 2"


def test_layer_self_times_add_up_within_traced_wall():
    worker.load_program()
    before = _bindings()
    tracer = layers.Tracer()
    result = worker.run_pass(_small_ops(), workloads.load_refs(), tracer)
    assert _bindings() == before  # the tracer put every original back
    trace = result["trace"]
    assert result["failures"] == {}
    assert sum(trace["self_ns"].values()) == trace["root_ns"] <= result["wall_ns"]
    assert trace["self_ns"]["cli"] > 0 and trace["self_ns"]["hecke"] > 0
    assert trace["missing"] == []
    assert trace["counts"]["hecke.kl_basis_element"] >= 5
    metrics = layers.metrics(trace)
    assert set(metrics) | {"trace.overhead_frac"} == {m[0] for m in layers.PER_LAYER}


def test_unknown_workload_exits_nonzero_without_a_result():
    proc = _run_benchmark("--workload", "nope", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_checkout_without_sources_exits_nonzero_without_a_result(tmp_path):
    shutil.copytree(
        HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = _run_benchmark(
        "--workload", "kl", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
