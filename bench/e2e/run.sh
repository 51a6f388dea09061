#!/usr/bin/env bash
# Measured end-to-end benchmark (bench/e2e/README.md).
#
#   bench/e2e/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
#                    [--smoke] [--out FILE]
#   bench/e2e/run.sh --compare A.json[,A2.json...] B.json[,B2.json...]
#
# Builds bench/e2e into build-e2e/ (Release), then runs the five workloads,
# or only those named by --workload, one after another, each in its own
# process and with every ADAQP_* variable unset. Each workload prints
# `<workload> <metric> <value> <unit>` per metric and, as its last line, one
# JSON result. --trace 1 (the default) adds the traced run and the isolated
# calls, so every metric is printed; --trace 0 runs set-up and the untraced
# window only. The combined results go to build-e2e/results/<utc>.json, or
# to --out, with the git revision, nproc, the dispatched ISA and every
# metric. Exits non-zero when the build or any correctness check fails.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$root"
build=build-e2e
all_workloads=(adaqp-tcp vanilla-tcp pipegcn-tcp adaqp-24dev single-device)

while read -r var; do
  unset "$var"
done < <(compgen -e | grep '^ADAQP_' || true)

seed=1
seconds=10
trace=1
smoke=()
out=""
workloads=()
compare=()
while (($#)); do
  case "$1" in
    --workload) workloads+=("$2"); shift 2 ;;
    --seed) seed=$2; shift 2 ;;
    --seconds) seconds=$2; shift 2 ;;
    --trace) trace=$2; shift 2 ;;
    --smoke) smoke=(--smoke); shift ;;
    --out) out=$2; shift 2 ;;
    --compare) compare=("$2" "$3"); shift 3 ;;
    *) echo "run.sh: unknown option $1" >&2; exit 2 ;;
  esac
done

# Build output goes to a log so that stdout carries only results.
mkdir -p "$build"
log="$build/build.log"
if ! {
  { [[ -f $build/Makefile ]] ||
      cmake -G "Unix Makefiles" -S bench/e2e -B "$build" \
        -DCMAKE_BUILD_TYPE=Release; } &&
    cmake --build "$build" -j 4 --target e2e_bench e2e_compare
} >"$log" 2>&1; then
  tail -n 30 "$log" >&2
  echo "run.sh: build failed (full log: $log)" >&2
  exit 1
fi

if ((${#compare[@]})); then
  exec "$build/e2e_compare" BENCHMARK.json "${compare[@]}"
fi

((${#workloads[@]})) || workloads=("${all_workloads[@]}")
stamp=$(date -u +%Y%m%dT%H%M%SZ)
out=${out:-$build/results/$stamp.json}
parts=$(mktemp -d "$build/parts.XXXXXX")
trap 'rm -rf "$parts"' EXIT
mkdir -p "$(dirname "$out")"

status=0
for w in "${workloads[@]}"; do
  "$build/e2e_bench" --workload "$w" --seed "$seed" --seconds "$seconds" \
    --trace "$trace" "${smoke[@]}" --out "$parts/$w.json" || status=1
done

rev=$(git rev-parse HEAD 2>/dev/null || echo unknown)
{
  printf '{"schema": "adaqp-e2e-results-v1", "git_rev": "%s", "nproc": %s,\n' \
    "$rev" "$(nproc)"
  printf '"workloads": [\n'
  sep=""
  for w in "${workloads[@]}"; do
    [[ -s $parts/$w.json ]] || continue
    printf '%s' "$sep"
    cat "$parts/$w.json"
    sep=","
  done
  printf ']}\n'
} >"$out"
echo "run.sh: results written to $out" >&2
exit "$status"
