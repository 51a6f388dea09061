#!/usr/bin/env bash
# Perf trajectory tracker: runs bench_table4_main, bench_table7_scalability
# and bench_pipeline_overlap, and *appends* one run record to the
# machine-readable BENCH_runtime.json (schema adaqp-bench-v2: {"runs": [...]},
# so the perf trajectory across commits/hosts accumulates instead of being
# overwritten). Every run records the host's hardware thread count — the
# ROADMAP "re-record on multi-core" check is now just reading the file.
# bench_table7_scalability is swept over THREAD_COUNTS so the multi-thread
# speedup of the runtime is recorded; bench_pipeline_overlap records the
# async pipeline's measured exchange||central overlap efficiency. The run
# record also carries the zero-allocation steady-state gate result
# (bench_alloc_steady_state — the script aborts on a regression) and the
# aggregation/element-wise fold kernel speedups vs scalar per SIMD ISA
# (bench_aggregate_kernels).
#
# Env knobs:
#   BUILD_DIR          build directory (default: build)
#   OUT                output JSON path (default: BENCH_runtime.json)
#   THREAD_COUNTS      sweep for table7 (default: "1 4 8")
#   BENCH_TABLE4_FULL  set to 1 for the full table4 sweep (default: --quick)
#   BENCH_OVERLAP_FULL set to 1 for the full overlap bench (default: --quick)
#   PROFILE_GATE       profile_report regression gate: hard (default, abort
#                      the run past thresholds) | warn (report only)
#   PROFILE_MAX_WALL_REGRESS_PCT   gate threshold, wall growth % (default 50)
#   PROFILE_MAX_SHARE_REGRESS_PP   gate threshold, category-share growth in
#                                  percentage points (default 15)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build}
OUT=${OUT:-BENCH_runtime.json}
THREAD_COUNTS=${THREAD_COUNTS:-"1 4 8"}
TABLE4_ARGS=()
[[ "${BENCH_TABLE4_FULL:-0}" == "1" ]] || TABLE4_ARGS+=("--quick")
OVERLAP_ARGS=()
[[ "${BENCH_OVERLAP_FULL:-0}" == "1" ]] || OVERLAP_ARGS+=("--quick")

if [[ ! -x "$BUILD_DIR/bench_table4_main" ||
      ! -x "$BUILD_DIR/bench_table7_scalability" ||
      ! -x "$BUILD_DIR/bench_pipeline_overlap" ||
      ! -x "$BUILD_DIR/bench_alloc_steady_state" ||
      ! -x "$BUILD_DIR/bench_aggregate_kernels" ||
      ! -x "$BUILD_DIR/metrics_schema_check" ||
      ! -x "$BUILD_DIR/profile_report" ||
      ! -x "$BUILD_DIR/isa_info" ]]; then
  cmake -B "$BUILD_DIR" -S . >/dev/null
  cmake --build "$BUILD_DIR" -j \
    --target bench_table4_main bench_table7_scalability \
             bench_pipeline_overlap bench_alloc_steady_state \
             bench_aggregate_kernels metrics_schema_check profile_report \
             isa_info >/dev/null
fi

# SIMD ISA the kernel registry dispatches to for this run (honors ADAQP_ISA).
SIMD_ISA=$("./$BUILD_DIR/isa_info" 2>/dev/null || echo unknown)

# Host hardware threads, stamped next to every wall/overlap/speedup entry so
# a reader (or tools/profile_report) can tell real concurrency from
# time-slicing. low_par <requested> prints the machine-readable flag.
HOST_THREADS=$(nproc)
low_par() { [[ "$HOST_THREADS" -lt "$1" ]] && echo true || echo false; }

mkdir -p bench/out

# Seconds (fractional) since epoch.
now() { date +%s.%N; }

# csv_rows <csv> <dataset_col> <method_col> <throughput_col>
# Emits comma-joined JSON objects {"dataset","method","epochs_per_s"}.
csv_rows() {
  awk -F',' -v dc="$2" -v mc="$3" -v tc="$4" 'NR > 1 && NF >= tc {
    printf "%s{\"dataset\":\"%s\",\"method\":\"%s\",\"epochs_per_s\":%s}",
           sep, $dc, $mc, $tc; sep=","
  }' "$1"
}

# metric_value <csv> <metric-name>  — pull one Metric,Value row.
metric_value() {
  awk -F',' -v m="$2" 'NR > 1 && $1 == m { print $2; exit }' "$1"
}

entries=""
append_entry() { entries="${entries:+$entries,}$1"; }

# run_bench <name> <threads> <csv> <dataset_col> <method_col> <tp_col> [args...]
# Appends a JSON entry and leaves the wall seconds in $wall.
run_bench() {
  local name=$1 threads=$2 csv=$3 dc=$4 mc=$5 tc=$6
  shift 6
  echo "[bench.sh] $name (ADAQP_THREADS=$threads) ..." >&2
  local t0 t1
  t0=$(now)
  ADAQP_THREADS=$threads "./$BUILD_DIR/$name" "$@" >/dev/null 2>&1
  t1=$(now)
  wall=$(awk -v a="$t0" -v b="$t1" 'BEGIN { printf "%.3f", b - a }')
  append_entry "{\"bench\":\"$name\",\"threads\":$threads,\"host_hardware_threads\":$HOST_THREADS,\"low_parallelism_host\":$(low_par "$threads"),\"wall_seconds\":$wall,\"results\":[$(csv_rows "bench/out/$csv" "$dc" "$mc" "$tc")]}"
}

declare -A table7_wall
for t in $THREAD_COUNTS; do
  run_bench bench_table7_scalability "$t" table7_scalability.csv 1 2 3
  table7_wall[$t]=$wall
done

run_bench bench_table4_main "$(nproc)" table4_main.csv 1 4 6 \
  "${TABLE4_ARGS[@]}"

# Async pipeline overlap: measured exchange||central concurrency. The run
# also exercises the ADAQP_METRICS exporter end to end: the bench's last
# training run writes an adaqp-metrics-v1 report, the schema checker gates
# it (non-zero exit aborts the script), and a condensed summary is folded
# into the run record below.
METRICS_REPORT=bench/out/metrics_report.json
echo "[bench.sh] bench_pipeline_overlap (ADAQP_THREADS=$(nproc)) ..." >&2
t0=$(now)
ADAQP_THREADS=$(nproc) ADAQP_METRICS="$METRICS_REPORT" \
  "./$BUILD_DIR/bench_pipeline_overlap" "${OVERLAP_ARGS[@]}" >/dev/null 2>&1
t1=$(now)
overlap_wall=$(awk -v a="$t0" -v b="$t1" 'BEGIN { printf "%.3f", b - a }')
ocsv=bench/out/pipeline_overlap.csv
append_entry "{\"bench\":\"bench_pipeline_overlap\",\"threads\":$(nproc),\"host_hardware_threads\":$HOST_THREADS,\"low_parallelism_host\":$(low_par "$(nproc)"),\"wall_seconds\":$overlap_wall,\"overlap_efficiency\":$(metric_value "$ocsv" "measured overlap efficiency"),\"sync_over_async_speedup\":$(metric_value "$ocsv" "wall speedup sync/async")}"

echo "[bench.sh] metrics_schema_check $METRICS_REPORT ..." >&2
"./$BUILD_DIR/metrics_schema_check" "$METRICS_REPORT" >&2
metrics_summary="{}"
if command -v python3 >/dev/null 2>&1; then
  metrics_summary=$(REPORT_PATH="$METRICS_REPORT" python3 - <<'PY'
import json, os
with open(os.environ["REPORT_PATH"]) as f:
    doc = json.load(f)
epochs = doc.get("epochs", [])
wire = {k: 0 for k in ("b2", "b4", "b8", "b32")}
messages = 0
fwd_eff, bwd_eff = [], []
for e in epochs:
    ex = e.get("exchange", {})
    messages += ex.get("messages", 0)
    for k, v in ex.get("wire_bytes", {}).items():
        wire[k] = wire.get(k, 0) + v
    ov = e.get("overlap", {})
    fwd_eff.append(ov.get("forward", {}).get("efficiency", 0.0))
    bwd_eff.append(ov.get("backward", {}).get("efficiency", 0.0))
mean = lambda xs: round(sum(xs) / len(xs), 4) if xs else 0.0
summary = {
    "schema": doc.get("schema"),
    "method": doc.get("method"),
    "dataset": doc.get("dataset"),
    "epochs_captured": doc.get("epochs_captured"),
    "hardware_threads": doc.get("hardware_threads"),
    "low_parallelism_host": doc.get("low_parallelism_host"),
    "messages": messages,
    "wire_bytes": wire,
    "mean_fwd_overlap_efficiency": mean(fwd_eff),
    "mean_bwd_overlap_efficiency": mean(bwd_eff),
}
# Condensed adaqp-profile-v1 summary: warm-epoch means (matching what
# tools/profile_report computes), so the BENCH_runtime.json history doubles
# as the regression-gate baseline.
prof_epochs = doc.get("profile", {}).get("epochs", [])
warm = [e for e in prof_epochs if e.get("epoch", 0) > 0] or prof_epochs
if warm:
    n = len(warm)
    pmean = lambda key: round(sum(e.get(key, 0.0) for e in warm) / n, 9)
    attribution = {}
    for e in warm:
        for k, v in e.get("attribution", {}).items():
            attribution[k] = attribution.get(k, 0.0) + v
    summary["profile"] = {
        "epochs": n,
        "mean_attributed_wall_s": pmean("attributed_wall_s"),
        "mean_critical_path_s": pmean("critical_path_s"),
        "mean_zero_wire_s": round(
            sum(e.get("what_if", {}).get("zero_wire_s", 0.0)
                for e in warm) / n, 9),
        "mean_infinite_thread_s": round(
            sum(e.get("what_if", {}).get("infinite_thread_s", 0.0)
                for e in warm) / n, 9),
        "attribution_s": {k: round(v / n, 9) for k, v in attribution.items()},
    }
print(json.dumps(summary))
PY
)
fi
append_entry "{\"bench\":\"metrics_report\",\"report\":\"$METRICS_REPORT\",\"schema_valid\":true,\"summary\":$metrics_summary}"

# Perf-regression gate (docs/OBSERVABILITY.md): compare this run's profile
# against the newest profiled run already in $OUT. Runs before the new
# record is appended, so the baseline is genuinely the previous trajectory
# point. PROFILE_GATE=warn downgrades a breach to a report (CI does this on
# 1-core runners, where attribution shares are dominated by time-slicing).
if [[ -f "$OUT" ]]; then
  echo "[bench.sh] profile_report gate ($METRICS_REPORT vs $OUT) ..." >&2
  gate_args=(--max-wall-regress-pct "${PROFILE_MAX_WALL_REGRESS_PCT:-50}"
             --max-share-regress-pp "${PROFILE_MAX_SHARE_REGRESS_PP:-15}")
  [[ "${PROFILE_GATE:-hard}" == "warn" ]] && gate_args+=(--warn-only)
  "./$BUILD_DIR/profile_report" "$METRICS_REPORT" "$OUT" "${gate_args[@]}" >&2
else
  echo "[bench.sh] profile_report (no $OUT history yet — summary only) ..." >&2
  "./$BUILD_DIR/profile_report" "$METRICS_REPORT" >&2
fi

# Zero-allocation steady state (docs/ARCHITECTURE.md, "Memory subsystem"):
# every method x async mode x thread count must finish its warm epochs with
# zero heap allocations. The bench exits 1 on a regression, which aborts
# this script (set -e) — a run record is only appended for a clean gate.
echo "[bench.sh] bench_alloc_steady_state (threads: $THREAD_COUNTS) ..." >&2
t0=$(now)
"./$BUILD_DIR/bench_alloc_steady_state" --threads "$THREAD_COUNTS" >/dev/null
t1=$(now)
alloc_wall=$(awk -v a="$t0" -v b="$t1" 'BEGIN { printf "%.3f", b - a }')
acsv=bench/out/alloc_steady_state.csv
alloc_cases=$(awk -F',' 'NR > 1 { n++ } END { print n + 0 }' "$acsv")
alloc_warm=$(awk -F',' 'NR > 1 { s += $5 } END { print s + 0 }' "$acsv")
append_entry "{\"bench\":\"bench_alloc_steady_state\",\"wall_seconds\":$alloc_wall,\"cases\":$alloc_cases,\"warm_allocs_total\":$alloc_warm,\"steady_state_zero_alloc\":true}"

# Kernel matrix: aggregation / element-wise fold kernel throughput per ISA at
# cache-resident sizes, recorded as speedup vs the scalar reference (the
# >=2x-on-AVX2 target of the kernel-matrix roadmap item).
echo "[bench.sh] bench_aggregate_kernels (ISA sweep) ..." >&2
"./$BUILD_DIR/bench_aggregate_kernels" --benchmark_filter='n1024|dim256' \
  --benchmark_min_time=0.5 \
  --benchmark_out=bench/out/aggregate_kernels.json \
  --benchmark_out_format=json >/dev/null 2>&1
kernel_speedups="{}"
if command -v python3 >/dev/null 2>&1; then
  kernel_speedups=$(python3 - <<'PY'
import collections, json
with open("bench/out/aggregate_kernels.json") as f:
    doc = json.load(f)
times = {}  # (kernel, case, isa) -> cpu_time
for b in doc.get("benchmarks", []):
    # BM_ScaleRow/avx2/n1024 or BM_GatherAxpy/avx2/deg32/dim256
    kernel, isa, *case = b["name"].split("/")
    times[(kernel[3:], "_".join(case), isa)] = b["cpu_time"]
out = collections.defaultdict(dict)
for (kernel, case, isa), t in sorted(times.items()):
    ref = times.get((kernel, case, "scalar"))
    if isa != "scalar" and ref:
        out[isa][f"{kernel}_{case}"] = round(ref / t, 2)
print(json.dumps(out))
PY
)
fi
append_entry "{\"bench\":\"bench_aggregate_kernels\",\"speedup_vs_scalar\":$kernel_speedups}"

speedups=""
base=${table7_wall[1]:-}
if [[ -n "$base" ]]; then
  for t in $THREAD_COUNTS; do
    [[ "$t" == "1" ]] && continue
    s=$(awk -v a="$base" -v b="${table7_wall[$t]}" \
        'BEGIN { printf "%.2f", a / b }')
    speedups="${speedups:+$speedups,}\"x$t\":$s"
    echo "[bench.sh] table7 speedup at $t threads: ${s}x" >&2
  done
fi

# One run record; appended to OUT (never overwriting earlier runs).
run_record=$(cat <<EOF
{
 "generated_utc": "$(date -u +%Y-%m-%dT%H:%M:%SZ)",
 "host_hardware_threads": $(nproc),
 "simd_isa": "$SIMD_ISA",
 "git_rev": "$(git rev-parse --short HEAD 2>/dev/null || echo unknown)",
 "table7_wall_speedup_vs_1_thread": {${speedups}},
 "entries": [${entries}]
}
EOF
)

if command -v python3 >/dev/null 2>&1; then
  RUN_RECORD="$run_record" OUT_PATH="$OUT" python3 - <<'PY'
import json, os

run = json.loads(os.environ["RUN_RECORD"])
out = os.environ["OUT_PATH"]
doc = None
if os.path.exists(out):
    try:
        with open(out) as f:
            doc = json.load(f)
    except Exception:
        doc = None
if not isinstance(doc, dict) or doc.get("schema") != "adaqp-bench-v2":
    runs = []
    if isinstance(doc, dict) and doc.get("schema") == "adaqp-bench-v1":
        runs.append(doc)  # migrate the old single-run format as run #0
    doc = {"schema": "adaqp-bench-v2", "runs": runs}
doc["runs"].append(run)
with open(out, "w") as f:
    json.dump(doc, f, indent=1)
    f.write("\n")
print(f"[bench.sh] appended run #{len(doc['runs']) - 1} to {out}")
PY
else
  # No python3: still emit valid v2 JSON, but only this run survives.
  printf '{"schema":"adaqp-bench-v2","runs":[%s]}\n' "$run_record" > "$OUT"
  echo "[bench.sh] python3 missing — wrote $OUT with this run only" >&2
fi
