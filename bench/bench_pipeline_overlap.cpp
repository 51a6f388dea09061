// Measured pipeline overlap vs the cost model's max(comm, central) claim.
//
// The paper's §4.1 parallelization argument — marginal-row communication
// hides central-subgraph computation — is applied to *simulated* time by the
// trainer's EpochBreakdown. This bench validates it on the *real* execution
// path: it runs AdaQP with the async stage scheduler under the trace
// recorder and reports, from actual stage timestamps, how much
// encode/wire/decode wall time ran concurrently with central compute
// (overlap efficiency), alongside the sync-vs-async wall-clock comparison
// and the modeled breakdown. On a 1-hardware-thread host the scheduler
// degrades to inline execution and measured overlap is ~0 by construction;
// run on a multi-core host for the real number. Writes the Chrome trace to
// bench/out/pipeline_trace.json (or argv[2]) so the overlap is inspectable
// in chrome://tracing.
//
// Usage: bench_pipeline_overlap [--quick] [trace.json path]
#include <algorithm>
#include <chrono>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "obs/profile.h"
#include "pipeline/config.h"
#include "pipeline/trace.h"
#include "runtime/thread_pool.h"

using namespace adaqp;
using namespace adaqp::bench;

namespace {

double wall_run(const Dataset& ds, const std::string& setting, int epochs,
                bool async, RunResult* out) {
  pipeline::AsyncModeGuard mode(async);
  const auto t0 = std::chrono::steady_clock::now();
  RunResult r = run_method(ds, setting, Aggregator::kGcn, Method::kAdaQP,
                           /*seed=*/1, /*eval_every_epoch=*/false, epochs);
  const auto t1 = std::chrono::steady_clock::now();
  if (out) *out = std::move(r);
  return std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string trace_path = "bench/out/pipeline_trace.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0)
      quick = true;
    else
      trace_path = argv[i];
  }

  DatasetSpec spec;
  spec.name = quick ? "overlap_quick" : "overlap_medium";
  spec.num_nodes = quick ? 800 : 4000;
  spec.avg_degree = 12.0;
  spec.feature_dim = 64;
  spec.num_classes = 7;
  spec.intra_prob = 0.7;
  Rng rng(1234);
  const Dataset ds = make_dataset(spec, rng);
  const std::string setting = "2M-2D";
  const int epochs = quick ? 3 : 6;

  // Warm-up + sync reference wall time (phased execution, same numerics).
  RunResult sync_result;
  const double sync_wall = wall_run(ds, setting, epochs, false, &sync_result);

  // Traced async run.
  auto& rec = pipeline::TraceRecorder::instance();
  rec.start();
  RunResult async_result;
  const double async_wall = wall_run(ds, setting, epochs, true, &async_result);
  rec.stop();
  if (!rec.write_json(trace_path))
    std::printf("WARNING: could not write %s\n", trace_path.c_str());

  // Classify stage spans: exchange work (forward pairs + backward
  // encode/accumulate) vs *forward* central/marginal compute. The backward
  // row-subset adjoints ("L<l>b/central/..." etc.) are deliberately
  // excluded so this stays a forward-only metric;
  // bench_table2_overlap_headroom part 2 measures the backward overlap
  // separately.
  std::vector<std::pair<double, double>> exchange_iv, central_iv, marginal_iv;
  for (const auto& e : rec.events()) {
    const auto iv = std::make_pair(e.ts_us, e.ts_us + e.dur_us);
    const bool backward = e.name->find("b/") != std::string::npos;
    if (obs::is_exchange(obs::classify_stage(*e.name)))
      exchange_iv.push_back(iv);
    else if (!backward && e.name->find("/central/") != std::string::npos)
      central_iv.push_back(iv);
    else if (!backward && e.name->find("/marginal/") != std::string::npos)
      marginal_iv.push_back(iv);
  }
  const double exchange_busy = interval_union_seconds(exchange_iv);
  const double central_busy = interval_union_seconds(central_iv);
  const double marginal_busy = interval_union_seconds(marginal_iv);
  const double overlap =
      interval_intersection_seconds(exchange_iv, central_iv);
  const double denom = std::min(exchange_busy, central_busy);
  const double efficiency = denom > 0.0 ? overlap / denom : 0.0;

  // Modeled per-epoch prediction for context: comm and the central compute
  // it claims to hide (max-composed in the trainer's breakdown).
  const EpochBreakdown& model = async_result.avg_breakdown;

  Table table({"Metric", "Value"});
  table.add_row({"hardware threads (pool)", std::to_string(num_threads())});
  table.add_row({"epochs", std::to_string(epochs)});
  table.add_row({"wall seconds (ADAQP_ASYNC=0)", Table::fmt(sync_wall, 3)});
  table.add_row({"wall seconds (ADAQP_ASYNC=1)", Table::fmt(async_wall, 3)});
  table.add_row({"wall speedup sync/async", Table::fmt(sync_wall / async_wall, 3)});
  table.add_row({"exchange stage busy (s)", Table::fmt(exchange_busy, 4)});
  table.add_row({"central stage busy (s)", Table::fmt(central_busy, 4)});
  table.add_row({"marginal stage busy (s)", Table::fmt(marginal_busy, 4)});
  table.add_row({"measured overlap (s)", Table::fmt(overlap, 6)});
  table.add_row({"measured overlap efficiency", Table::fmt(efficiency, 6)});
  table.add_row({"modeled comm (s/epoch)", Table::fmt(model.comm, 6)});
  table.add_row({"modeled marginal comp (s/epoch)", Table::fmt(model.comp, 6)});
  table.add_row({"modeled quant kernels (s/epoch)", Table::fmt(model.quant, 6)});
  table.add_row({"modeled epoch total (s)", Table::fmt(model.total, 6)});
  emit(table,
       "Pipeline overlap: measured exchange||central concurrency vs the "
       "modeled max(comm, central) composition",
       "pipeline_overlap.csv");
  std::printf("(trace: %s — open in chrome://tracing)\n", trace_path.c_str());

  // Sanity: both modes must agree bitwise on training results.
  bool equal = sync_result.epochs.size() == async_result.epochs.size();
  for (std::size_t e = 0; equal && e < sync_result.epochs.size(); ++e)
    equal = sync_result.epochs[e].train_loss ==
            async_result.epochs[e].train_loss;
  std::printf("sync/async loss curves bit-identical: %s\n",
              equal ? "yes" : "NO (BUG)");
  return equal ? 0 : 1;
}
