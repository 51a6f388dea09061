// lint:hot-path-file — steady-state epochs run through this TU; every
// allocation below must be warmup/build-time only (docs/ARCHITECTURE.md,
// "Memory subsystem").
#include "gnn/model.h"

#include "common/check.h"
#include "common/rng.h"

namespace adaqp {

GnnModel::GnnModel(const ModelConfig& config, Rng& rng) : config_(config) {
  ADAQP_CHECK(config.num_layers >= 1);
  ADAQP_CHECK(config.in_dim > 0 && config.out_dim > 0);
  for (int l = 0; l < config.num_layers; ++l) {
    LayerConfig lc;
    lc.aggregator = config.aggregator;
    lc.in_dim = l == 0 ? config.in_dim : config.hidden_dim;
    lc.out_dim = l == config.num_layers - 1 ? config.out_dim
                                            : config.hidden_dim;
    lc.is_output = l == config.num_layers - 1;
    lc.dropout = config.dropout;
    layers_.emplace_back(lc);  // lint:allow(hot-path-alloc) ctor
    layers_.back().init_weights(rng);
  }
}

std::vector<Param*> GnnModel::params() {
  std::vector<Param*> out;
  for (auto& layer : layers_)
    for (Param* p : layer.params()) out.push_back(p);  // lint:allow(hot-path-alloc) setup; trainer caches result
  return out;
}

std::size_t GnnModel::grad_bytes() const {
  std::size_t total = 0;
  for (const auto& layer : layers_) total += layer.grad_bytes();
  return total;
}

}  // namespace adaqp
