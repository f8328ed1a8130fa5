"""One benchmark pass in a fresh interpreter; prints one JSON line.

    python3 perfbench/worker.py setup
    python3 perfbench/worker.py pass <workload> <seed> <trace 0|1>

`setup` times what every CLI call pays before it computes anything:
importing heckeweb.cli and building its parser. Nothing beyond `os`,
`sys` and `time` (which the interpreter loads at start-up) is imported
before that, so the program pays for its own imports. `pass` then runs
every op of the workload, timing them as one region, and checks the
outputs after it (with the tracer, if any, already removed). The tracer
is imported only for a traced pass, so it adds nothing to the memory of
an untraced one.
"""

import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.realpath(__file__))), "src")


def load_program():
    """Import heckeweb from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "heckeweb", "__init__.py")):
        raise SystemExit(f"error: no heckeweb sources under {SRC}")
    sys.path.insert(0, SRC)
    import heckeweb.cli

    origin = os.path.realpath(heckeweb.cli.__file__)
    if os.path.commonpath([origin, SRC]) != SRC:
        raise SystemExit(f"error: heckeweb was imported from {origin}, not {SRC}")
    return heckeweb.cli


def execute(op):
    """Run one `workloads.Op`; returns (status, output), where status is 0
    on success, else an exit status or a message. Nothing is checked here."""
    import contextlib
    import io

    from heckeweb import cli, hecke
    from heckeweb.symgrp import Permutation

    try:
        if op.kind == "kl":
            return 0, hecke.kl_basis_element(Permutation(op.args))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(op.args))
            except SystemExit as exc:
                code = exc.code
        if code != 0 and err.getvalue().strip():
            code = f"exit status {code}: {err.getvalue().strip()}"
        return code, out.getvalue()
    except Exception as exc:  # an op that raises is a failed op, not a crash
        return f"raised {type(exc).__name__}: {exc}", None


def _cpu_s() -> float:
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_pass(ops, refs, tracer=None) -> dict:
    """Time all ops as one region, then check every output."""
    import resource

    import workloads

    if tracer is not None:
        tracer.install()
    try:
        cpu0 = _cpu_s()
        start = time.perf_counter_ns()
        results = [execute(op) for op in ops]
        wall_ns = time.perf_counter_ns() - start
        cpu_s = _cpu_s() - cpu0
        maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    finally:
        if tracer is not None:
            tracer.uninstall()
    failures = {}
    for op, (code, output) in zip(ops, results):
        reason = workloads.verify(op, code, output, refs)
        if reason is not None:
            failures[op.name] = reason
    out = {
        "wall_ns": wall_ns,
        "cpu_s": cpu_s,
        "peak_rss_mb": maxrss_kb / 1024,
        "attempted": len(ops),
        "failures": failures,
    }
    if tracer is not None:
        out["trace"] = tracer.summary()
    return out


def main(argv: list[str]) -> None:
    start = time.perf_counter()
    cli = load_program()
    cli.build_parser()
    setup_s = time.perf_counter() - start
    import json

    result = {"setup_s": setup_s}
    if argv != ["setup"]:
        import workloads

        _, workload, seed, trace = argv
        ops = workloads.ops_for(workload, int(seed))
        tracer = None
        if trace == "1":
            import layers

            tracer = layers.Tracer()
        result.update(run_pass(ops, workloads.load_refs(), tracer))
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
