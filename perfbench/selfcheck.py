#!/usr/bin/env python3
"""Fast self-check of the benchmark's output contract.

    python3 perfbench/selfcheck.py

Checks BENCHMARK.json's shape, then runs every workload in smoke mode (tiny
sizes, one second) with --trace 0 and --trace 1 and checks that:

  * the last output line is exactly {correct, attempted, failed, metrics};
  * its metrics are exactly BENCHMARK.json's end-to-end set (--trace 0) or
    per-layer set (--trace 1), each emitted once, with its unit and a number;
  * no JSON object in the summary or the full result repeats a key;
  * every correctness check passed and the result records its provenance.

Exits non-zero on the first violation.  Takes about ten seconds once the
benchmark is built.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # leave no __pycache__ beside the sources
import run  # noqa: E402  (the benchmark's own helpers)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PROVENANCE = ("commit", "dirty", "source_sha256", "build_type", "compiler",
              "host", "nproc", "seed")


def die(msg):
    print(f"selfcheck: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_spec(spec):
    want = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    if set(spec) != want:
        die(f"BENCHMARK.json keys {sorted(spec)} != {sorted(want)}")
    names = []
    if not 2 <= len(spec["workloads"]) <= 8:
        die("need 2 to 8 workloads")
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or "\n" in w["why"] or len(w["why"]) > 200:
            die(f"bad workload entry {w}")
        names.append(w["name"])
    for section, keys in (("end_to_end", {"name", "unit", "better", "bound"}),
                          ("per_layer", {"name", "unit", "better"})):
        for m in spec[section]:
            if set(m) != keys:
                die(f"{section} entry {m} must have keys {sorted(keys)}")
            if not UNIT.match(m["unit"]) or m["better"] not in ("lower",
                                                                "higher"):
                die(f"bad unit or direction in {m}")
            if section == "end_to_end" and not 0 < m["bound"] <= 0.25:
                die(f"bound of {m['name']} must be in (0, 0.25]")
            names.append(m["name"])
    for n in names:
        if not NAME.match(n):
            die(f"bad name {n!r}")
    if len(names) != len(set(names)):
        die("a name is used twice in BENCHMARK.json")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        die("end_to_end must hold setup_s in s, lower is better")
    if setup[0]["bound"] != max(m["bound"] for m in spec["end_to_end"]):
        die("setup_s must have the largest bound")


def check_run(spec, workload, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(run.DEFAULT_SEED), "--seconds", "1", "--trace",
           str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    what = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-3000:])
        die(f"{what}: exit {proc.returncode}")
    try:
        summary = run.loads_strict(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError) as e:
        die(f"{what}: last line is not a JSON object with unique keys: {e}")
    if set(summary) != {"correct", "attempted", "failed", "metrics"}:
        die(f"{what}: summary keys {sorted(summary)}")
    if summary["correct"] is not True or summary["failed"] != 0:
        die(f"{what}: checks failed: {proc.stdout[-2000:]}")
    if not isinstance(summary["attempted"], int) or summary["attempted"] < 1:
        die(f"{what}: attempted must be a whole number >= 1")
    rows = spec["per_layer"] if trace else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in rows}
    got = summary["metrics"]
    if set(got) != set(want):
        die(f"{what}: missing {sorted(set(want) - set(got))}, "
            f"extra {sorted(set(got) - set(want))}")
    for name, m in got.items():
        if set(m) != {"value", "unit"} or m["unit"] != want[name]:
            die(f"{what}: {name} is {m}, unit should be {want[name]}")
        if isinstance(m["value"], bool) or not isinstance(m["value"],
                                                          (int, float)):
            die(f"{what}: {name} value {m['value']!r} is not a number")
    tag = f"{workload}-seed{run.DEFAULT_SEED}-trace{trace}"
    doc = run.loads_strict((run.RESULTS / f"{tag}.json").read_text())
    missing = [k for k in PROVENANCE if k not in doc["provenance"]]
    if missing:
        die(f"{what}: provenance lacks {missing}")
    if "sim" not in doc or "host" not in doc:
        die(f"{what}: result must keep simulated and host values apart")
    print(f"selfcheck: {what}: {len(got)} metrics ok")


def main():
    spec = run.loads_strict((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_run(spec, w["name"], trace)
    print("selfcheck: ok")


if __name__ == "__main__":
    main()
