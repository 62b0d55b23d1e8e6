"""Write the committed output reference of a workload for given seeds.

Usage (from the repository root)::

    python3 perfbench/make_reference.py --workload fig06_adv --seeds 0-31

This is the only command that writes ``perfbench/references/``; a
benchmark run never does.  Each seed is one fresh-process repeat with an
empty cache; the run must be valid (no error, no cache hit, native
kernel loaded) or nothing is written.  Regenerate a reference only when
the program's results are meant to change, and say so in the change.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List

import run


def parse_seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        lo, _sep, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(run.WORKLOADS))
    ap.add_argument("--seeds", required=True, help="e.g. 0-31 or 1,5,9")
    args = ap.parse_args()

    root = os.getcwd()
    env = run.child_env(root)
    os.makedirs(run.build_dir(root), exist_ok=True)
    if not run.warm_up(root, env):
        print("warm-up failed", file=sys.stderr)
        return 3
    for seed in parse_seeds(args.seeds):
        record, err = run.run_repeat(
            root, env, args.workload, seed, traced=False, index=0,
            timeout=run.LOOP_CAP_S,
        )
        if record is None:
            print(f"seed {seed}: {err}", file=sys.stderr)
            return 1
        bad = [
            uid for uid, out in zip(record["unit_ids"], record["outputs"])
            if out is None
        ]
        if bad or record["errors"] or record["cache_hits"] or not record[
            "native_kernel"
        ]:
            print(f"seed {seed}: invalid run, nothing written: "
                  f"{record['errors'] or bad}", file=sys.stderr)
            return 1
        path = run.reference_path(args.workload, seed)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({
                "workload": args.workload,
                "seed": seed,
                "units": [
                    {"id": uid, "value": out}
                    for uid, out in zip(record["unit_ids"], record["outputs"])
                ],
            }, fh, indent=1)
            fh.write("\n")
        print(f"seed {seed}: {len(record['unit_ids'])} units -> "
              f"{os.path.relpath(path, root)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
