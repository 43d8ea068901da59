#!/usr/bin/env bash
# Identity proof for a host-only change: "no simulated bit moved".
#
# Builds <base-ref> and the working tree side by side (Release, each in its
# own build directory under the work directory), runs every simulated
# output on both, and diffs them:
#   * every paper bench the two trees share, at BFLY_FAST=1 and at full
#     size: stdout and any BENCH rows file it writes.
#     bench_tscope_overhead is left out: it prints host time;
#   * trace_gauss: the exported Chrome trace and its metrics JSON;
#   * quickstart --trace: stdout and the exported Chrome trace;
#   * perfbench gauss, serve and observed at seeds 1, 1988 and 404, with
#     --trace 0 and 1: the `sim` and `substrate` sections
#     (tools/perfbench_sim.py).
# The base is extracted with `git archive`, so the repository's own state
# (branches, worktree list, index) is never touched.  Offline; needs only
# git, tar, cmake, a C++ compiler and python3.
#
# Prints nothing but the differences (build logs go to the work directory)
# and exits 0 when there are none, 1 when any output differs, 2 on a usage
# or build error.  Takes about ten minutes on a 4-core host.
#
# Usage: tools/identity.sh <base-ref> [work-dir]
#   work-dir defaults to a fresh temporary directory, removed on success.
set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
  echo "usage: tools/identity.sh <base-ref> [work-dir]" >&2
  exit 2
fi
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
base_ref="$1"
if ! git -C "$ROOT" rev-parse --verify -q "$base_ref^{commit}" >/dev/null; then
  echo "identity: unknown ref $base_ref" >&2
  exit 2
fi
if [ $# -eq 2 ]; then
  WORK="$2"
  mkdir -p "$WORK"
  keep=1
else
  WORK="$(mktemp -d)"
  keep=0
fi
WORK="$(cd "$WORK" && pwd)"
JOBS="$(nproc)"
[ "$JOBS" -gt 4 ] && JOBS=4
LOG="$WORK/identity.log"
: >"$LOG"

fail_build() {
  echo "identity: $1 failed; see $LOG" >&2
  exit 2
}

rm -rf "$WORK/base"
mkdir -p "$WORK/base"
git -C "$ROOT" archive --format=tar "$base_ref" | tar -x -C "$WORK/base"

# run_side <name> <source-tree>: build and collect every output in
# $WORK/<name>-out.
run_side() {
  local name="$1" src="$2"
  local bd="$WORK/$name-build" out="$WORK/$name-out"
  rm -rf "$out"
  mkdir -p "$out/fast" "$out/full"
  cmake -S "$src" -B "$bd" -DCMAKE_BUILD_TYPE=Release >>"$LOG" 2>&1 ||
    fail_build "configure $name"
  local benches=() b
  for b in "$ROOT"/bench/bench_*.cpp; do
    b="$(basename "$b" .cpp)"
    [ "$b" != bench_tscope_overhead ] && [ -e "$src/bench/$b.cpp" ] || continue
    benches+=("$b")
  done
  cmake --build "$bd" -j "$JOBS" --target "${benches[@]}" trace_gauss \
    quickstart >>"$LOG" 2>&1 || fail_build "build $name"
  # Each output is run from its own directory with relative paths: the
  # benches write rows files to the working directory, and trace_gauss and
  # quickstart print the names they wrote.
  for b in "${benches[@]}"; do
    (cd "$out/fast" && BFLY_FAST=1 "$bd/bench/$b" >"$b.stdout" 2>>"$LOG") ||
      echo "$b (fast) exited nonzero" >>"$out/exit-status"
    (cd "$out/full" && BFLY_FAST=0 "$bd/bench/$b" >"$b.stdout" 2>>"$LOG") ||
      echo "$b (full) exited nonzero" >>"$out/exit-status"
  done
  (cd "$out" && "$bd/tools/trace_gauss" trace_gauss.json \
    trace_gauss.metrics.json >trace_gauss.stdout 2>>"$LOG") ||
    echo "trace_gauss exited nonzero" >>"$out/exit-status"
  (cd "$out" && "$bd/examples/quickstart" --trace quickstart.json \
    >quickstart.stdout 2>>"$LOG") ||
    echo "quickstart exited nonzero" >>"$out/exit-status"
  for t in 0 1; do
    python3 "$ROOT/tools/perfbench_sim.py" --root "$src" --trace "$t" \
      --sections sim substrate >"$out/perfbench-trace$t.json" 2>>"$LOG" ||
      fail_build "perfbench on $name (--trace $t)"
  done
}

run_side base "$WORK/base"
run_side change "$ROOT"

status=0
while IFS= read -r f; do
  a="$WORK/base-out/$f" b="$WORK/change-out/$f"
  if [ ! -e "$a" ] || [ ! -e "$b" ]; then
    echo "=== $f: only in $([ -e "$a" ] && echo base || echo change)"
    status=1
  elif ! cmp -s "$a" "$b"; then
    echo "=== $f differs"
    diff -u --label "base/$f" --label "change/$f" "$a" "$b" | head -n 60 || true
    status=1
  fi
done < <( (cd "$WORK/base-out" && find . -type f; cd "$WORK/change-out" &&
  find . -type f) | sed 's|^\./||' | sort -u)

if [ "$status" -eq 0 ] && [ "$keep" -eq 0 ]; then rm -rf "$WORK"; fi
exit "$status"
