#!/usr/bin/env python3
"""The repository benchmark: one command that builds and runs a workload.

    python3 perfbench/run.py --workload gauss|serve|observed --seed N \
        --seconds S --trace 0|1 [--smoke]

Run it from the repository root.  It builds the simulator and the measuring
program (perfbench/CMakeLists.txt) under .bench_build/perfbench, runs the
workload for about S host seconds, checks every output, writes the full
result with provenance under .bench_build/perfbench/results, and prints as
its last line the summary

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metrics are the end-to-end set of BENCHMARK.json (--trace 0) or its
per-layer set (--trace 1).  --smoke shrinks every workload for the
self-check (perfbench/selfcheck.py); its numbers are not comparable.
README.md in this directory explains the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RESULTS = BUILD / "results"
BINARY = BUILD / "perfbench"
RUN_TIMEOUT_S = 170
WORKLOADS = ("gauss", "serve", "observed")
# Seeds: DEFAULT_SEED when none is given on the command line by hand, and a
# held-back seed that is never used while tuning a change, only to confirm
# a claimed gain on inputs the change was not written against.
DEFAULT_SEED = 1
HELD_OUT_SEED = 1988


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def unique_keys(pairs):
    """json object_pairs_hook that refuses duplicate keys."""
    out = {}
    for k, v in pairs:
        if k in out:
            raise ValueError(f"duplicate JSON key {k!r}")
        out[k] = v
    return out


def loads_strict(text):
    return json.loads(text, object_pairs_hook=unique_keys)


def run_quiet(cmd, what):
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
        fail(f"{what} failed (exit {proc.returncode})")


def build():
    """Configures once, then builds incrementally (a no-op when current)."""
    if not (ROOT / "src").is_dir():
        fail(f"no simulator sources under {ROOT / 'src'}")
    BUILD.mkdir(parents=True, exist_ok=True)
    if not (BUILD / "CMakeCache.txt").exists():
        run_quiet(["cmake", "-S", str(HERE), "-B", str(BUILD),
                   "-DCMAKE_BUILD_TYPE=Release"], "cmake configure")
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", str(BUILD), "-j", jobs], "build")


def cmake_cache(key):
    try:
        for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
            if line.startswith(key + ":"):
                return line.split("=", 1)[1]
    except OSError:
        pass
    return None


def first_line(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=20)
        lines = out.stdout.strip().splitlines()
        return lines[0] if out.returncode == 0 and lines else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def source_digest():
    """sha256 over src/ and perfbench/ sources: identifies the code measured
    even where the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for p in sorted(top.rglob("*")):
            if p.is_file() and p.suffix in (".cpp", ".hpp", ".txt", ".py"):
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()


def provenance(args):
    commit = first_line(["git", "rev-parse", "HEAD"])
    dirty = None
    if commit is not None:
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                                capture_output=True, text=True)
        dirty = bool(status.stdout.strip())
    compiler = cmake_cache("CMAKE_CXX_COMPILER")
    return {
        "commit": commit,
        "dirty": dirty,
        "source_sha256": source_digest(),
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "compiler": first_line([compiler, "--version"]) if compiler else None,
        "host": platform.node(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "smoke": args.smoke,
    }


def expected_metrics(trace):
    """(name -> unit) the summary must carry, from BENCHMARK.json."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        return None
    spec = loads_strict(spec_path.read_text())
    rows = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in rows}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"workload seed (default {DEFAULT_SEED}; "
                    f"{HELD_OUT_SEED} is held back for confirming gains)")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")

    build()
    RESULTS.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    if args.trace:
        cmd += ["--spans-out", str(RESULTS / f"spans-{tag}.json")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload {args.workload} did not finish in {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"measuring program failed (exit {proc.returncode})")
    try:
        doc = loads_strict(lines[-1])
    except ValueError as e:
        fail(f"malformed result: {e}")

    checks = doc["checks"]
    metrics = doc["metrics"]
    correct = checks["failed"] == 0
    for name, m in metrics.items():
        if not isinstance(m["value"], (int, float)):
            print(f"perfbench: metric {name} has no value", file=sys.stderr)
            correct = False
            m["value"] = 0
    want = expected_metrics(args.trace)
    if want is not None:
        got = {k: v["unit"] for k, v in metrics.items()}
        if got != want:
            missing = sorted(set(want) - set(got))
            extra = sorted(set(got) - set(want))
            wrong = sorted(k for k in set(want) & set(got)
                           if want[k] != got[k])
            print(f"perfbench: metrics differ from BENCHMARK.json: missing "
                  f"{missing}, extra {extra}, wrong unit {wrong}",
                  file=sys.stderr)
            correct = False

    doc["provenance"] = provenance(args)
    (RESULTS / f"{tag}.json").write_text(json.dumps(doc, indent=1) + "\n")

    width = max(len(k) for k in metrics) if metrics else 0
    for name, m in metrics.items():
        print(f"{name:<{width}}  {m['value']:.6g} {m['unit']}")
    for f in checks["failures"]:
        print(f"FAILED CHECK: {f}")
    summary = {
        "correct": correct,
        "attempted": checks["attempted"],
        "failed": checks["failed"],
        "metrics": metrics,
    }
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
