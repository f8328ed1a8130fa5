"""heckeweb benchmark: every pass of a workload in a fresh interpreter.

    python3 perfbench/run.py --workload {battery,kl,tensor} --seed N \\
        --seconds S --trace {0,1}

A CLI user pays cold caches on every invocation and the library's caches
cannot be cleared, so no interpreter is reused: each pass and each set-up
sample is its own `worker.py` process, run one after another (a closed
loop with one client). Untraced (`--trace 0`), the run makes passes
until `--seconds` have gone by, with set-up samples between them, and
reports medians. Traced (`--trace 1`), it runs one untraced pass and
two traced ones, which must produce identical counts, and reports the
per-layer metrics; `--seconds` does not apply. The last line of stdout
is the JSON result; the full record, with every pass and, when traced,
the per-layer span times and all counts, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import workloads

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
WORKER = HERE / "worker.py"
DEADLINE_S = 170  # every run must end within 180 s
SETUP_BETWEEN = 3  # extra set-up samples after each pass

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class BenchError(Exception):
    pass


def _worker(args: list[str], deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"out of time before `worker.py {' '.join(args)}`")
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args],
            capture_output=True, text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"`worker.py {' '.join(args)}` did not finish in time")
    if proc.returncode != 0:
        raise BenchError(
            f"`worker.py {' '.join(args)}` exited {proc.returncode}: {proc.stderr.strip()}"
        )
    return json.loads(proc.stdout.splitlines()[-1])


def _passes(workload, seed, seconds, deadline) -> tuple[list[dict], list[float]]:
    """Passes until `seconds` have gone by, and set-up samples spread over
    the same time: each pass's own set-up plus SETUP_BETWEEN more."""
    _worker(["setup"], deadline)  # unmeasured: byte-compiles a fresh checkout
    passes, setups = [], []
    start = time.monotonic()
    while not passes or time.monotonic() - start < seconds:
        passes.append(_worker(["pass", workload, str(seed), "0"], deadline))
        setups.append(passes[-1]["setup_s"])
        setups += [_worker(["setup"], deadline)["setup_s"] for _ in range(SETUP_BETWEEN)]
    return passes, setups


def _untraced(args, deadline):
    passes, setups = _passes(args.workload, args.seed, args.seconds, deadline)
    metrics = {
        "wall_s": statistics.median(p["wall_ns"] / 1e9 for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    units = dict(END_TO_END)
    record = {"passes": passes, "setup_samples": setups}
    notes = [f"medians of {len(passes)} passes and {len(setups)} set-ups"]
    return {k: (v, units[k]) for k, v in metrics.items()}, passes, record, notes


def _traced(args, deadline):
    plain = _worker(["pass", args.workload, str(args.seed), "0"], deadline)
    traced = [
        _worker(["pass", args.workload, str(args.seed), "1"], deadline) for _ in range(2)
    ]
    summaries = [p["trace"] for p in traced]
    stable = layers.counts_of(summaries[0]) == layers.counts_of(summaries[1])
    per_pass = [layers.metrics(s) for s in summaries]
    units = {name: unit for name, unit, _ in layers.PER_LAYER}
    metrics = {  # counts are those of the first pass; times and shares, medians
        name: value if units[name] == "count" else statistics.median(m[name] for m in per_pass)
        for name, value in per_pass[0].items()
    }
    metrics["trace.overhead_frac"] = (
        statistics.median(p["wall_ns"] for p in traced) / plain["wall_ns"] - 1
    )
    record = {"passes": [plain, *traced], "counts_identical": stable}
    notes = [
        f"two traced passes, counts identical: {stable}; "
        f"overhead against one untraced pass"
    ]
    notes += [f"warning: no such callable to count: {k}" for k in summaries[0]["missing"]]
    if not stable:
        record["count_error"] = "two traced passes with one seed counted differently"
    return {k: (v, units[k]) for k, v in metrics.items()}, [plain, *traced], record, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    try:
        metrics, passes, record, notes = (_traced if args.trace else _untraced)(args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in passes)
    failures = [f"{op}: {why}" for p in passes for op, why in p["failures"].items()]
    correct = not failures and "count_error" not in record
    for line in notes:
        print(f"# {args.workload} seed={args.seed} trace={args.trace}: {line}")
    for name, (value, unit) in metrics.items():
        shown = f"{value:14d}" if isinstance(value, int) else f"{value:14.6f}"
        print(f"{name:44s} {shown} {unit}")
    print(f"{'failed_frac':44s} {len(failures) / attempted:14.6f} frac "
          f"({len(failures)} of {attempted} ops)")
    for failure in failures:
        print(f"FAILED {failure}")
    if "count_error" in record:
        print(f"FAILED {record['count_error']}")

    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({"args": vars(args), **record}, indent=1) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
