#!/usr/bin/env bash
# CI gate: tier-1 build + tests, the sanitizer preset, and lint.
#
# Exits nonzero on the first failure (set -e), so a red step fails the
# whole job.  Steps:
#   0. strict doubles  — no CMakeLists.txt (top level or nested) and no
#                        CMakePresets.json may add -ffast-math, -Ofast,
#                        -march= or -ffp-contract=fast.  The committed
#                        BENCH files are byte-compared and the Gauss
#                        programs must equal the scalar reference exactly;
#                        both rely on every double being rounded by plain
#                        IEEE multiply/add, never fused or reassociated
#   0b. sim layering   — no file under src/sim may include a project header
#                        from outside src/sim: the machine model knows no
#                        layer above it (Chrysalis, the runtimes, rescue)
#   0c. ground truth   — ratchet on the simulator's oracle: the count of
#                        `.node_alive(` / `.reachable(` calls per file in
#                        src/ outside src/sim and src/chrysalis/kernel.cpp
#                        (create_process's own checks) may only shrink,
#                        and no new file may start asking (the list
#                        is below; lower a count when a call goes away).
#                        Fault handling should run on what a node could
#                        know; ROADMAP item 4 removes these calls
#   1. default preset  — Release build, full ctest suite
#      (first, on x86-64: libbfly_sim.a must not reference swapcontext, or
#       the hand-written fiber switch was compiled out)
#   2. bench smoke     — every paper bench runs once in fast mode (fixed
#                        seeds and fault plans) from build/bench, so its
#                        rows file never touches the committed copy; gated
#                        on the exit code, which carries each bench's
#                        self-gates (label bench-smoke)
#   2b. bench drift    — tserving, tpartition, tsync, fig5, tbridge and
#                        trecovery regenerate their rows files at full
#                        size in a scratch directory; each must be
#                        byte-identical to the committed BENCH_*.json
#                        (~30 s, almost all of it the sync sweep).  A
#                        difference means the simulation moved: regenerate
#                        the file and say why in the change.  Then the
#                        FIG5 table in EXPERIMENTS.md must equal
#                        tools/fig5_table.py's render of the (now
#                        verified) BENCH_fig5.json, and perfbench's
#                        `sim` sections for gauss, serve and observed at
#                        seeds 1, 1988 and 404 (tools/perfbench_sim.py)
#                        must equal ci/perfbench_sim.golden.json
#   3. sched-fuzz smoke— the moviola deadlock detector rides a reduced
#                        PCT schedule sweep (10 seeds x 4 workloads); any
#                        finding, lint or wedge on any seed is a failure
#   3b. sync smoke     — the scalable-synchronization suites (MCS, tree
#                        barrier, idle counters, observer contract; label
#                        sync-smoke)
#   4. scope smoke     — a Gauss run with all three probes attached (tracer,
#                        race detector, wait-for graph) exports a Chrome
#                        trace and fails on any race or blocked process;
#                        then the standalone validator re-checks the file on
#                        disk (parses, monotone timestamps, balanced B/E),
#                        and the trace and metrics files must match the
#                        digests in ci/trace_gauss.sha256 (the run is
#                        deterministic).  After an intended change to what
#                        the trace records, regenerate the digests from the
#                        repository root once this step has written the
#                        files:
#                          (cd build && sha256sum scope_ci_trace.json \
#                             scope_ci_metrics.json) >ci/trace_gauss.sha256
#                        and say in the change why they moved
#   5. perfbench contract — perfbench/selfcheck.py runs every benchmark
#                        workload in smoke mode and checks the output
#                        contract (named metrics with units, unique keys,
#                        passing checks, provenance).  Gating
#   6. asan preset     — ASan+UBSan build, full ctest suite, then the
#                        scope smoke's trace_gauss run from the sanitized
#                        build (all three probes, the tracer's chunked
#                        series log included), whose trace and metrics
#                        must match the same ci/trace_gauss.sha256 digests
#   7. lint            — clang-tidy over src/ against the compile database
#                        (skips with a notice when clang-tidy isn't installed;
#                        the `lint` target handles that itself); concurrency-*
#                        findings are promoted to errors via WarningsAsErrors
#
# Usage: ci/check.sh [jobs]        (default: nproc)
set -euo pipefail

cd "$(dirname "$0")/.."
ROOT="$PWD"
JOBS="${1:-$(nproc)}"

step() { printf '\n=== %s ===\n' "$*"; }

step "strict doubles (no fast-math, -Ofast, -march= or FP contraction)"
mapfile -t cmake_lists < <(find . \( -name 'build*' -o -name .bench_build \) \
  -prune -o -name CMakeLists.txt -print)
if grep -nE -e '-ffast-math|-Ofast|-march=|-ffp-contract=fast' \
    CMakePresets.json "${cmake_lists[@]}"; then
  echo "a build file relaxes IEEE double arithmetic: results stop being" \
       "bit-exact against the committed BENCH files and the Gauss reference"
  exit 1
fi

step "sim layering (src/sim includes no project header outside src/sim)"
if grep -rnE '^[[:space:]]*#[[:space:]]*include[[:space:]]*"' src/sim |
    grep -vE '#[[:space:]]*include[[:space:]]*"sim/'; then
  echo "src/sim includes a header from a layer above it: the machine model" \
       "must not depend on Chrysalis, the runtimes or rescue"
  exit 1
fi

step "ground truth (oracle calls outside sim and the kernel may only shrink)"
ground_truth_allowed="\
6 src/rescue/rescue.cpp
1 src/serve/serve.cpp
1 src/serve/serve.hpp
1 src/sync/counter.cpp
1 src/us/uniform_system.cpp"
ground_truth_now="$(grep -roE '\.(node_alive|reachable)\(' src \
    --include='*.cpp' --include='*.hpp' |
  grep -vE '^src/(sim/|chrysalis/kernel\.cpp:)' | cut -d: -f1 | sort | uniq -c)"
if ! awk 'NR == FNR { allowed[$2] = $1; next }
          !($2 in allowed) { print "new caller: " $2 " (" $1 ")"; bad = 1; next }
          $1 > allowed[$2] { print $2 ": " $1 " calls, allowed " allowed[$2]; bad = 1 }
          END { exit bad }' \
    <(echo "$ground_truth_allowed") <(echo "$ground_truth_now"); then
  echo "production code gained a Machine::node_alive/reachable call: fault" \
       "handling must use what a node could know (ROADMAP item 4)"
  exit 1
fi

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

step "bench smoke (every paper bench, fast mode, self-gates + exit code)"
ctest --preset default -L bench-smoke --output-on-failure

step "bench drift (full-size rows files vs the committed BENCH_*.json)"
drift_dir="$(mktemp -d)"
for b in tserving:serving tpartition:partition tsync_scaling:sync \
         fig5_gauss:fig5 tbridge_scaling:bridge trecovery:recovery; do
  bin="bench_${b%%:*}" file="BENCH_${b##*:}.json"
  (cd "$drift_dir" && "$ROOT/build/bench/$bin" >/dev/null)
  cmp "$drift_dir/$file" "$file" || {
    echo "$file drifted from $bin's output: regenerate it and say why"
    exit 1
  }
done
python3 tools/fig5_table.py --check
python3 tools/perfbench_sim.py >"$drift_dir/perfbench_sim.json"
cmp "$drift_dir/perfbench_sim.json" ci/perfbench_sim.golden.json || {
  echo "perfbench's simulated output drifted from ci/perfbench_sim.golden.json:"
  echo "regenerate it with tools/perfbench_sim.py and say why"
  exit 1
}
rm -rf "$drift_dir"

step "sched-fuzz smoke (moviola detector over PCT schedule seeds)"
ctest --preset default -L sched-fuzz-smoke --output-on-failure --verbose

step "sync smoke (MCS/tree-barrier/counter/observer suites)"
ctest --preset default -L sync-smoke --output-on-failure

step "scope smoke (Gauss with all probes -> Chrome trace -> validator)"
./build/tools/trace_gauss build/scope_ci_trace.json build/scope_ci_metrics.json
./build/tools/trace_validate build/scope_ci_trace.json
(cd build && sha256sum --quiet -c "$ROOT/ci/trace_gauss.sha256") || {
  echo "trace_gauss's trace or metrics drifted from ci/trace_gauss.sha256:"
  echo "if intended, regenerate the digests (see the header) and say why"
  exit 1
}

step "perfbench contract (every workload in smoke mode, gating)"
python3 perfbench/selfcheck.py

step "configure + build (asan preset)"
cmake --preset asan
cmake --build --preset asan -j "$JOBS"

step "test (asan preset)"
ctest --preset asan -j "$JOBS"

step "scope smoke (asan preset, same digests)"
ASAN_OPTIONS=detect_leaks=0:detect_stack_use_after_return=0 \
  ./build-asan/tools/trace_gauss build-asan/scope_ci_trace.json \
  build-asan/scope_ci_metrics.json
(cd build-asan && sha256sum --quiet -c "$ROOT/ci/trace_gauss.sha256") || {
  echo "the asan build's trace_gauss output differs from ci/trace_gauss.sha256"
  exit 1
}

step "lint (clang-tidy)"
cmake --build build --target lint

step "all checks passed"
