// Workspace — the per-trainer scratch-memory subsystem behind the
// zero-allocation steady state (docs/ARCHITECTURE.md, "Memory subsystem").
//
// Two complementary pieces:
//
//   Arena      A bump allocator of 64-byte-aligned raw spans with *epoch*
//              lifetime: reset() rewinds the cursor but keeps the chunks, so
//              after the warmup epoch has sized it, per-epoch spans cost a
//              pointer bump and no heap traffic. Spans are invalidated by
//              reset(); nothing in an arena is destructed (trivial types
//              only).
//
//   keyed pool A map from (kind, layer, a, b) to a persistent container
//              (Matrix, std::vector<float/double/int/uint32/uint8>) with
//              *trainer* lifetime. The first request for a key inserts
//              (warmup); later requests return the same object, whose
//              capacity sticks, so steady-state reuse is allocation-free.
//              References are stable across inserts (node-based map).
//
// Ownership / lifetime rules (enforced by convention + the alloc tracker):
//   1. The Workspace outlives everything that holds one of its references —
//      it is a DistTrainer member declared before the pipeline state that
//      borrows from it.
//   2. The pool and arena are NOT thread-safe. All scratch is resolved on
//      the main thread while building an epoch's stage graphs; stages only
//      *use* the buffers they were handed, and the stage-DAG discipline
//      (disjoint writes, declared dependencies) covers them like any other
//      buffer.
//   3. A key identifies one logical buffer. Two call sites may share a key
//      only if their lifetimes never overlap within an epoch.
//   4. Steady state admits no new keys: every key is first requested during
//      warmup (epoch 0), so pool inserts/rehashes never happen afterwards.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "tensor/matrix.h"

namespace adaqp::memory {

/// Epoch-lifetime bump allocator. allocate() returns 64-byte-aligned spans
/// carved from chunks that reset() retains, so a warm arena never touches
/// the heap again (until a larger epoch forces growth).
class Arena {
 public:
  explicit Arena(std::size_t min_chunk_bytes = 1u << 20);

  /// 64-byte-aligned span of `bytes` bytes, valid until reset().
  void* allocate(std::size_t bytes);

  /// Typed span helper for trivial T.
  template <typename T>
  T* span(std::size_t count) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena spans are never destructed");
    return static_cast<T*>(allocate(count * sizeof(T)));
  }

  /// Rewind every chunk cursor; capacity is retained.
  void reset();

  std::size_t capacity_bytes() const;
  std::size_t used_bytes() const;

 private:
  struct Chunk {
    std::unique_ptr<unsigned char[]> data;
    std::size_t size = 0;
    std::size_t used = 0;
  };

  std::vector<Chunk> chunks_;
  std::size_t active_ = 0;  ///< chunk currently bump-allocated from
  std::size_t min_chunk_bytes_;
};

/// Keys name the logical scratch buffers of the training loop; docs list the
/// owner of each kind. Adding a kind is free — the key space is (kind,
/// layer, a, b) and kinds only disambiguate call sites.
enum class Scratch : std::uint8_t {
  kSancusSnapshot,   ///< boundary-row snapshot, per (layer, device)
  kSancusDiff,       ///< drift diff vs last broadcast, per (layer, device)
  kLossGradSink,     ///< evaluation-loss gradient sink, per device
  kLossProb,         ///< softmax probability row, per device
  kGeneric,          ///< anything else; disambiguate via (layer, a, b)
};

/// Per-trainer scratch store: a bump Arena plus keyed pools of persistent
/// containers. See the header comment for the ownership rules.
class Workspace {
 public:
  Workspace() = default;
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  Arena& arena() { return arena_; }

  /// Persistent containers, keyed by (kind, layer, a, b); inserted empty on
  /// first request, returned as-is afterwards (callers resize/overwrite —
  /// contents are stale by design).
  Matrix& matrix(Scratch kind, int layer = 0, int a = 0, int b = 0);
  std::vector<float>& floats(Scratch kind, int layer = 0, int a = 0,
                             int b = 0);
  std::vector<double>& doubles(Scratch kind, int layer = 0, int a = 0,
                               int b = 0);
  std::vector<int>& ints(Scratch kind, int layer = 0, int a = 0, int b = 0);
  std::vector<std::uint32_t>& u32s(Scratch kind, int layer = 0, int a = 0,
                                   int b = 0);
  std::vector<std::uint8_t>& bytes(Scratch kind, int layer = 0, int a = 0,
                                   int b = 0);

  /// Number of distinct pooled buffers (all types) — warmup sizing metric.
  std::size_t pool_entries() const;

 private:
  static std::uint64_t key(Scratch kind, int layer, int a, int b);

  Arena arena_;
  std::unordered_map<std::uint64_t, Matrix> matrices_;
  std::unordered_map<std::uint64_t, std::vector<float>> floats_;
  std::unordered_map<std::uint64_t, std::vector<double>> doubles_;
  std::unordered_map<std::uint64_t, std::vector<int>> ints_;
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> u32s_;
  std::unordered_map<std::uint64_t, std::vector<std::uint8_t>> bytes_;
};

}  // namespace adaqp::memory
