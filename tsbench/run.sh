#!/usr/bin/env bash
# Builds tsbench from this checkout and runs the benchmark.
#
#   bash tsbench/run.sh [--workload NAME]... [--seed N]... [--seconds S]
#                       [--trace [0|1]] [--repeat R] [--out DIR]
#
# Without --workload every workload runs, each in its own process.  Each
# run exports the artifact and references (untimed), then serves; it
# prints every metric with its unit and, last, its JSON result line.
# --trace 1 reports the per-layer metrics instead, writes a Chrome trace
# to $BUILD/traces/ and checks it.  --out DIR also writes each result,
# stamped with the host, to DIR for compare.py.  Exits nonzero if any
# served output is wrong or a run fails.
#
# The build goes to ${CARGO_TARGET_DIR:-.bench_build}/tsbench under the
# checkout root; its output goes to build.log there, and to stderr if it
# fails.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd -P)"
root="$(cd "$here/.." && pwd -P)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
build="$build/tsbench"

workloads=()
seeds=()
seconds=20
trace=0
repeat=1
out=""
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workloads+=("$2"); shift 2 ;;
    --seed) seeds+=("$2"); shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace)
      if [ "${2:-}" = 0 ] || [ "${2:-}" = 1 ]; then trace="$2"; shift 2
      else trace=1; shift; fi ;;
    --repeat) repeat="$2"; shift 2 ;;
    --out) out="$2"; shift 2 ;;
    *) echo "run.sh: unknown argument '$1'" >&2; exit 2 ;;
  esac
done
[ ${#workloads[@]} -gt 0 ] ||
  workloads=(prefill-tw prefill-dense prefill-tw-int8 online-tw)
[ ${#seeds[@]} -gt 0 ] || seeds=(1)

mkdir -p "$build"
log="$build/build.log"
if ! { cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release &&
       cmake --build "$build" --target tsbench -j "$(nproc)"; } > "$log" 2>&1
then
  cat "$log" >&2
  echo "run.sh: building tsbench failed (log: $log)" >&2
  exit 1
fi
bin="$build/tsbench"

# The commit under test, when this checkout is itself a git work tree.
git_desc=unknown
if [ "$(git -C "$root" rev-parse --show-toplevel 2>/dev/null)" = "$root" ]; then
  git_desc="$(git -C "$root" describe --always --dirty)"
fi

status=0
for ((r = 0; r < repeat; r++)); do
  for seed in "${seeds[@]}"; do
    for w in "${workloads[@]}"; do
      work="$build/work/$w-$seed-$$"
      rm -rf "$work"
      mkdir -p "$work"
      "$bin" export --workload "$w" --seed "$seed" --dir "$work"
      args=(serve --workload "$w" --seed "$seed" --seconds "$seconds"
            --trace "$trace" --dir "$work" --git "$git_desc")
      if [ -n "$out" ]; then
        mkdir -p "$out"
        args+=(--out "$out/${w}_seed${seed}_trace${trace}_run${r}.json")
      fi
      "$bin" "${args[@]}" || status=1
      if [ "$trace" = 1 ] && [ -f "$work/trace.json" ]; then
        mkdir -p "$build/traces"
        saved="$build/traces/${w}_seed${seed}.json"
        mv "$work/trace.json" "$saved"
        echo "trace: $saved" >&2
        python3 "$here/check_trace.py" "$saved" >&2 || status=1
      fi
      rm -rf "$work"
    done
  done
done
exit "$status"
