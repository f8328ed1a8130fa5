"""Record the benchmark's baseline into perfbench/baseline.json.

    python3 perfbench/baseline.py

For every workload in BENCHMARK.json, runs `run.py` untraced once per
seed 1..10 for `run_seconds` and reports each end-to-end metric's median,
quartiles and spread (the distance between the quartiles as a share of
the median), then one traced run for the per-layer metrics. The summary
is stamped with the Python version, the CPU count and the CPU model.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SEEDS = list(range(1, 11))
OUT = HERE / "baseline.json"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=HERE.parent,
    )
    if not proc.stdout.strip():
        raise SystemExit(f"{workload} seed {seed}: no result\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def _summary(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main() -> None:
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}

    report = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "seeds": SEEDS,
        "run_seconds": SPEC["run_seconds"],
        "workloads": {},
    }
    for workload in (w["name"] for w in SPEC["workloads"]):
        runs = [_run(workload, seed, SPEC["run_seconds"], 0) for seed in SEEDS]
        entry = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "correct": all(r["correct"] for r in runs),
            "end_to_end": {
                name: _summary([r["metrics"][name]["value"] for r in runs])
                for name in bounds
            },
        }
        entry["failed_frac"] = entry["failed"] / entry["attempted"]
        for name, s in entry["end_to_end"].items():
            flag = "" if s["spread"] < bounds[name] / 3 else "  <-- spread >= bound/3"
            print(f"{workload:8s} {name:12s} median {s['median']:12.6f}  "
                  f"spread {s['spread']:.4f} (bound {bounds[name]}){flag}", flush=True)
        print(f"{workload:8s} failed_frac  {entry['failed_frac']} "
              f"({entry['failed']} of {entry['attempted']})", flush=True)
        traced = _run(workload, SEEDS[0], SPEC["run_seconds"], 1)
        entry["traced_correct"] = traced["correct"]
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        report["workloads"][workload] = entry

    OUT.write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
