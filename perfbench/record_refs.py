"""Record the reference digests of every fixed-input op into refs.json.

    python3 perfbench/record_refs.py

Run it only on a commit whose outputs are known good (refs.json was made
on the seed commit); after that, a changed output is a failed op. The
seeded `canonical` call of `tensor` has no digest: the web-diagram route
checks it.
"""

from __future__ import annotations

import json

import workloads
from worker import execute, load_program


def main() -> None:
    load_program()
    refs = {}
    for name in sorted(workloads.WORKLOADS):
        for op in workloads.ops_for(name, 0):
            if op.check != "digest":
                continue
            code, output = execute(op)
            if code != 0:
                raise SystemExit(f"{op.name}: exit status {code}")
            refs[op.name] = workloads.digest(workloads.output_text(op, output))
    with open(workloads.REFS_PATH, "w") as fh:
        json.dump(refs, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"{len(refs)} digests written to {workloads.REFS_PATH}")


if __name__ == "__main__":
    main()
