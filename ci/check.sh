#!/usr/bin/env bash
# CI gate: tier-1 build + tests, the sanitizer preset, and lint.
#
# Exits nonzero on the first failure (set -e), so a red step fails the
# whole job.  Steps:
#   1. default preset  — Release build, full ctest suite
#      (first, on x86-64: libbfly_sim.a must not reference swapcontext, or
#       the hand-written fiber switch was compiled out)
#   2. fault smoke     — the fault-injection and recovery benches (fast
#                        mode, fixed seeds) rerun verbosely so a hang or
#                        crash in the kill/restart paths is easy to read
#      (the chaos and partition smokes rerun the serving and switch-fault
#       benches the same way: fast mode, fixed seeds, self-gating)
#   2b. bench smoke    — every other paper bench (fig5, fig6, tref, tprim,
#                        though, tcont, tamdahl, trpc, treplay, tbridge,
#                        tspeedup, tscope_overhead, ablation) runs once in
#                        fast mode; gated on the exit code (label
#                        bench-smoke)
#   3. sched-fuzz smoke— the moviola deadlock detector rides a reduced
#                        PCT schedule sweep (10 seeds x 4 workloads); any
#                        finding, lint or wedge on any seed is a failure
#   3b. sync smoke     — the scalable-synchronization suites (MCS, tree
#                        barrier, idle counters, observer contract) plus
#                        the tsync weak-scaling bench's self-gates at
#                        256/1K nodes (label sync-smoke)
#   4. scope smoke     — a traced Gauss run exports a Chrome trace, then
#                        the standalone validator re-checks the file on
#                        disk (parses, monotone timestamps, balanced B/E)
#   5. perf smoke      — the host-simulator microbenchmarks at a tiny
#                        min-time, printing the BENCH_host_sim.json row.
#                        NON-GATING: CI machines have wildly variable
#                        throughput, so a slow run only warns
#   5b. perfbench contract — perfbench/selfcheck.py runs every benchmark
#                        workload in smoke mode and checks the output
#                        contract (named metrics with units, unique keys,
#                        passing checks, provenance).  Gating
#   6. asan preset     — ASan+UBSan build, full ctest suite
#   7. lint            — clang-tidy over src/ against the compile database
#                        (skips with a notice when clang-tidy isn't installed;
#                        the `lint` target handles that itself); concurrency-*
#                        findings are promoted to errors via WarningsAsErrors
#
# Usage: ci/check.sh [jobs]        (default: nproc)
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

step() { printf '\n=== %s ===\n' "$*"; }

step "configure + build (default preset)"
cmake --preset default
cmake --build --preset default -j "$JOBS"

step "fiber switch (x86-64: libbfly_sim must not call swapcontext)"
if [ "$(uname -m)" = x86_64 ]; then
  undefined_syms="$(nm -u build/src/sim/libbfly_sim.a)"
  if grep -qw swapcontext <<<"$undefined_syms"; then
    echo "libbfly_sim.a calls swapcontext: the x86-64 fiber switch is compiled out"
    exit 1
  fi
fi

step "test (default preset)"
ctest --preset default -j "$JOBS"

step "fault-heavy smoke (tfault + trecovery benches, fast mode)"
ctest --preset default -L fault-smoke --output-on-failure --verbose

step "chaos smoke (tserving bench: kills + gray failure gates, fast mode)"
ctest --preset default -L chaos-smoke --output-on-failure --verbose

step "partition smoke (tpartition bench: dead card + split-brain gates, fast mode)"
ctest --preset default -L partition-smoke --output-on-failure --verbose

step "bench smoke (every other paper bench, fast mode, exit code)"
ctest --preset default -L bench-smoke --output-on-failure

step "sched-fuzz smoke (moviola detector over PCT schedule seeds)"
ctest --preset default -L sched-fuzz-smoke --output-on-failure --verbose

step "sync smoke (MCS/tree-barrier/counter suites + tsync scaling gates)"
ctest --preset default -L sync-smoke --output-on-failure

step "scope smoke (traced Gauss -> Chrome trace -> validator)"
./build/tools/trace_gauss build/scope_ci_trace.json build/scope_ci_metrics.json
./build/tools/trace_validate build/scope_ci_trace.json

step "perf smoke (host simulator microbenchmarks, non-gating)"
# Note: this google-benchmark takes --benchmark_min_time as a plain double
# (seconds); the "0.05s" suffix form is a newer addition it rejects.
if BFLY_HOST_SIM_OUT=build/BENCH_host_sim_ci.json \
    ./build/bench/bench_host_simulator --benchmark_min_time=0.05; then
  :
else
  echo "perf smoke failed (non-gating; host throughput varies in CI)"
fi

step "perfbench contract (every workload in smoke mode, gating)"
python3 perfbench/selfcheck.py

step "configure + build (asan preset)"
cmake --preset asan
cmake --build --preset asan -j "$JOBS"

step "test (asan preset)"
ctest --preset asan -j "$JOBS"

step "lint (clang-tidy)"
cmake --build build --target lint

step "all checks passed"
