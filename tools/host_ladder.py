#!/usr/bin/env python3
"""Append one row of perfbench's host-cost ladder to BENCH_host_sim.json.

    python3 tools/host_ladder.py [--root DIR]

Parses DIR/BENCH_host_sim.json (default: this repository) strictly, with
repeated keys rejected, before measuring anything: a file that is missing
or does not parse makes the tool exit 1 and stays byte-for-byte untouched,
because its rows are the cross-run history of the simulator's host cost.

Then runs perfbench/run.py --workload gauss --seed 1 --trace 1 (the ladder
runs at full length whatever --seconds says; about 3 s after the first
build) and appends one row: the run's provenance and every ladder rung,
`<layer>.ladder.<rung>_ns` (host nanoseconds per operation) and
`<layer>.ladder.<rung>_sim_us` (simulated microseconds per operation).
The file is rewritten through a temporary file renamed over it.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

FILE = "BENCH_host_sim.json"
RESULT = Path(".bench_build/perfbench/results/gauss-seed1-trace1.json")


def unique_keys(pairs):
    """json object_pairs_hook that refuses duplicate keys."""
    out = {}
    for k, v in pairs:
        if k in out:
            raise ValueError(f"duplicate JSON key {k!r}")
        out[k] = v
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--root", type=Path,
                    default=Path(__file__).resolve().parent.parent)
    args = ap.parse_args()

    path = args.root / FILE
    try:
        doc = json.loads(path.read_text(), object_pairs_hook=unique_keys)
        if not isinstance(doc["runs"], list):
            raise ValueError("\"runs\" is not an array")
    except (OSError, ValueError, KeyError, TypeError) as e:
        sys.exit(f"host_ladder: {path} is not usable ({e}); left untouched")

    cmd = [sys.executable, "perfbench/run.py", "--workload", "gauss",
           "--seed", "1", "--seconds", "0.01", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=args.root, capture_output=True, text=True)
    if proc.returncode != 0 or not json.loads(
            proc.stdout.strip().splitlines()[-1])["correct"]:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        sys.exit(f"host_ladder: {' '.join(cmd[1:])} failed")
    result = json.loads((args.root / RESULT).read_text())
    rungs = {k: m["value"] for k, m in result["metrics"].items()
             if ".ladder." in k and k.endswith(("_ns", "_sim_us"))}

    doc["runs"].append({"label": "perfbench-ladder",
                        "provenance": result["provenance"], **rungs})
    with tempfile.NamedTemporaryFile("w", dir=path.parent, prefix=FILE,
                                     delete=False) as tmp:
        tmp.write(json.dumps(doc, separators=(",", ":")) + "\n")
    os.chmod(tmp.name, path.stat().st_mode)
    os.replace(tmp.name, path)
    for k, v in rungs.items():
        print(f"{k:<40} {v:.6g}")


if __name__ == "__main__":
    main()
