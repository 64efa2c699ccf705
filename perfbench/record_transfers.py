"""Record the simulated transfer counts that perfbench/run.py compares against.

Run from the root of a source checkout::

    python3 perfbench/record_transfers.py

It runs every workload and variant once for each seed in run.RECORDED_SEEDS,
checks the outputs as run.py does, and writes perfbench/transfers.json.
Record again only with a change that means to alter the counts, and say so
with that change.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    copq = run.load_copq()
    table: dict[str, dict[str, dict[str, list[int]]]] = {}
    for workload, (cls, cache_bytes) in run.WORKLOADS.items():
        for seed in run.RECORDED_SEEDS:
            r = run.Run(cls(copq, seed, cache_bytes), calibrated=False)
            counts = {}
            for v in run.VARIANTS:
                s = r.sample(v)
                if not all(s.checks.values()):
                    raise SystemExit(f"perfbench: {workload} seed {seed} {v} failed: {s.checks}")
                counts[v] = list(s.counts)
            table.setdefault(workload, {})[str(seed)] = counts
            print(f"{workload} seed {seed}: {counts}", file=sys.stderr)
    # One line per seed, so that a change of the counts reads as a small diff.
    blocks = [
        f"  {json.dumps(workload)}: {{\n"
        + ",\n".join(f"    {json.dumps(seed)}: {json.dumps(c)}" for seed, c in seeds.items())
        + "\n  }"
        for workload, seeds in table.items()
    ]
    with open(run.RECORDED, "w", encoding="utf-8") as f:
        f.write("{\n" + ",\n".join(blocks) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
