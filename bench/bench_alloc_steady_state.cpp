// Zero-allocation steady-state gate (docs/ARCHITECTURE.md, "Memory
// subsystem"): runs every trainer method under the steady-state
// configuration across async on/off, a thread sweep and both transports the
// contract covers (loopback, single-process TCP), and reports the
// per-phase heap-allocation counts of the warm epochs measured by the
// always-on counters behind ADAQP_ALLOC_TRACK. Any warm epoch with a
// nonzero count is a regression: the process exits 1, which is the CI
// alloc-regression gate. Writes bench/out/alloc_steady_state.csv.
//
// Usage: bench_alloc_steady_state [--threads "1 4 8"]
#include <cstdio>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/trainer.h"
#include "memory/alloc_track.h"
#include "pipeline/config.h"
#include "runtime/thread_pool.h"
#include "transport/loopback.h"
#include "transport/tcp.h"
#include "transport/transport.h"

using namespace adaqp;

namespace {

struct CaseResult {
  Method method;
  bool async;
  int threads;
  bool tcp;
  int warm_epochs = 0;
  std::uint64_t warm_allocs = 0;  ///< summed over all warm epochs
  std::uint64_t warmup_allocs = 0;
};

/// Scoped global-pool override. Declared before the trainer so the pool
/// outlives any still-queued deferred exchange stages (set_num_threads must
/// not run while pipeline work is in flight).
class ThreadCountGuard {
 public:
  explicit ThreadCountGuard(int n) : prev_(num_threads()) {
    set_num_threads(n);
  }
  ~ThreadCountGuard() { set_num_threads(prev_); }

 private:
  int prev_;
};

CaseResult run_case(const Dataset& ds, Method method, bool async, int threads,
                    bool tcp) {
  pipeline::AsyncModeGuard mode(async);
  ThreadCountGuard thread_guard(threads);
  // The transports the contract covers (see
  // memory::steady_state_definition()), pinned regardless of the
  // environment's ADAQP_TRANSPORT.
  std::unique_ptr<transport::Transport> wire;
  if (tcp)
    wire = std::make_unique<transport::TcpTransport>(transport::TcpOptions{});
  else
    wire = std::make_unique<transport::LoopbackTransport>();
  transport::ScopedTransport scoped(std::move(wire));

  Rng rng(4242);
  const auto part = MultilevelPartitioner().partition(ds.graph, 4, rng);
  const DistGraph dist = build_dist_graph(ds.graph, part);
  const ClusterSpec cluster = ClusterSpec::machines(2, 2);
  ModelConfig mc;
  mc.aggregator = Aggregator::kGcn;
  mc.in_dim = ds.spec.feature_dim;
  mc.hidden_dim = 32;
  mc.out_dim = ds.num_classes();
  mc.num_layers = 3;
  mc.dropout = 0.3f;
  TrainOptions opts;
  opts.method = method;
  opts.epochs = 5;
  opts.seed = 7;
  opts.reassign_period = 1 << 20;  // refresh only at epoch 0
  opts.eval_every_epoch = false;   // steady-state contract requirement
  DistTrainer trainer(ds, dist, cluster, mc, opts);

  CaseResult r{method, async, threads, tcp};
  for (int e = 0; e < opts.epochs; ++e) {
    trainer.train_epoch();
    const EpochAllocReport& report = trainer.last_alloc_report();
    if (report.steady_state) {
      ++r.warm_epochs;
      r.warm_allocs += report.total();
    } else {
      r.warmup_allocs += report.total();
    }
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<int> thread_counts = {1, 4, 8};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      thread_counts.clear();
      std::istringstream in(argv[++i]);
      for (int t; in >> t;) thread_counts.push_back(t);
    }
  }

  DatasetSpec spec;
  spec.name = "alloc_gate";
  spec.num_nodes = 1200;
  spec.avg_degree = 10.0;
  spec.feature_dim = 16;
  spec.num_classes = 6;
  spec.intra_prob = 0.8;
  Rng rng(11);
  const Dataset ds = make_dataset(spec, rng);

  const Method methods[] = {Method::kVanilla, Method::kAdaQP,
                            Method::kAdaQPUniform, Method::kPipeGCN,
                            Method::kSancus};

  std::printf("%-14s %-9s %-6s %-8s %-12s %-12s %-14s\n", "method",
              "transport", "async", "threads", "warm_epochs", "warm_allocs",
              "warmup_allocs");
  std::FILE* csv = nullptr;
  if (std::FILE* f = std::fopen("bench/out/alloc_steady_state.csv", "w")) {
    csv = f;
    std::fprintf(csv,
                 "method,transport,async,threads,warm_epochs,warm_allocs,"
                 "warmup_allocs\n");
  }

  bool failed = false;
  for (Method method : methods) {
    for (bool tcp : {false, true}) {
      for (bool async : {false, true}) {
        for (int threads : thread_counts) {
          const CaseResult r = run_case(ds, method, async, threads, tcp);
          const std::string name = method_name(method);
          const char* wire = tcp ? "tcp" : "loopback";
          std::printf("%-14s %-9s %-6d %-8d %-12d %-12llu %-14llu%s\n",
                      name.c_str(), wire, async ? 1 : 0, threads,
                      r.warm_epochs,
                      static_cast<unsigned long long>(r.warm_allocs),
                      static_cast<unsigned long long>(r.warmup_allocs),
                      r.warm_allocs != 0 ? "  <-- REGRESSION" : "");
          if (csv)
            std::fprintf(csv, "%s,%s,%d,%d,%d,%llu,%llu\n", name.c_str(),
                         wire, async ? 1 : 0, threads, r.warm_epochs,
                         static_cast<unsigned long long>(r.warm_allocs),
                         static_cast<unsigned long long>(r.warmup_allocs));
          if (r.warm_allocs != 0 || r.warm_epochs == 0) failed = true;
        }
      }
    }
  }
  if (csv) std::fclose(csv);

  if (failed) {
    std::fprintf(stderr,
                 "\nFAIL: a steady-state epoch allocated (contract: %s)\n",
                 memory::steady_state_definition());
    return 1;
  }
  std::printf("\nOK: all steady-state epochs performed zero heap "
              "allocations\n");
  return 0;
}
