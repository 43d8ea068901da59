#!/usr/bin/env python3
"""Collect perfbench's simulated sections for the fixed seeds into one JSON.

    python3 tools/perfbench_sim.py [--root DIR] [--trace 0|1]
                                   [--sections sim [substrate ...]]

Runs perfbench/run.py in DIR (default: this repository) for every workload
at seeds 1, 1988 and 404 with the given --trace, at the shortest run length
(the simulated sections do not depend on how many passes a run makes), and
prints one document keyed "<workload>-seed<seed>-trace<trace>" holding the
chosen sections of each result.  Simulated output is exact, so two trees
whose simulations agree print byte-identical documents.

With the defaults this prints ci/perfbench_sim.golden.json, which
ci/check.sh compares byte for byte; tools/identity.sh runs it on two trees
with both --trace values and both sections.  An intended simulated change
regenerates the golden file:

    python3 tools/perfbench_sim.py > ci/perfbench_sim.golden.json
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("gauss", "serve", "observed")
SEEDS = (1, 1988, 404)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--root", type=Path,
                    default=Path(__file__).resolve().parent.parent)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--sections", nargs="+", default=["sim"])
    args = ap.parse_args()

    results = args.root / ".bench_build" / "perfbench" / "results"
    out = {}
    for w in WORKLOADS:
        for s in SEEDS:
            cmd = [sys.executable, "perfbench/run.py", "--workload", w,
                   "--seed", str(s), "--seconds", "0.01",
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=args.root, capture_output=True,
                                  text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
                sys.exit(f"perfbench_sim: {' '.join(cmd[1:])} failed")
            tag = f"{w}-seed{s}-trace{args.trace}"
            doc = json.loads((results / f"{tag}.json").read_text())
            out[tag] = {k: doc[k] for k in args.sections}
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
