// Multi-layer GNN model, weight-replicated across simulated devices.
//
// One GnnModel instance holds the single authoritative weight set; per-device
// state (layer inputs/outputs, backward caches) lives in DeviceWork objects
// owned by the trainer. This mirrors data-parallel training where weights
// are identical replicas kept in sync by gradient allreduce.
//
// Gradient fold discipline: concurrent backward passes never touch the
// shared Param gradients directly — they write per-device (and, in the
// full-duplex backward, per-row-subset) LayerGrads sinks, which the trainer
// folds via GnnLayer::apply_grads in a fixed order: ascending device, and
// within a device marginal subset before central. Any schedule that
// respects that fold order produces bit-identical Param.grad (and thus
// bit-identical Adam moments) at any thread count, async mode or kernel
// ISA — see docs/ARCHITECTURE.md, "The determinism contract".
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "gnn/layers.h"

namespace adaqp {

struct ModelConfig {
  Aggregator aggregator = Aggregator::kGcn;
  std::size_t in_dim = 0;
  std::size_t hidden_dim = 256;
  std::size_t out_dim = 0;
  int num_layers = 3;            ///< paper uses 3-layer models
  float dropout = 0.5f;

  std::string name() const {
    switch (aggregator) {
      case Aggregator::kGcn: return "GCN";
      case Aggregator::kSageMean: return "GraphSAGE";
    }
    return "?";
  }
};

class GnnModel {
 public:
  explicit GnnModel(const ModelConfig& config, Rng& rng);

  const ModelConfig& config() const { return config_; }
  int num_layers() const { return static_cast<int>(layers_.size()); }
  GnnLayer& layer(int l) { return layers_[l]; }
  const GnnLayer& layer(int l) const { return layers_[l]; }

  /// Input/output dimension of layer l.
  std::size_t layer_in_dim(int l) const { return layers_[l].config().in_dim; }
  std::size_t layer_out_dim(int l) const { return layers_[l].config().out_dim; }

  std::vector<Param*> params();
  /// Total gradient bytes (model-gradient allreduce volume).
  std::size_t grad_bytes() const;

 private:
  ModelConfig config_;
  std::vector<GnnLayer> layers_;
};

}  // namespace adaqp
