// Task losses and metrics.
//
// Single-label node classification (Reddit/ogbn-products analogues) uses
// softmax cross-entropy + accuracy; multi-label classification
// (Yelp/AmazonProducts analogues) uses sigmoid BCE-with-logits + micro-F1.
// The paper reports both metrics under the single name "accuracy"; we do the
// same. Gradients are normalized by the *global* number of training nodes so
// distributed training matches centralized training exactly.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tensor/matrix.h"

namespace adaqp {

/// Softmax cross-entropy over the rows listed in `rows` (distinct).
/// labels[i] is the class of row rows[i]. grad (same shape as logits) gets
/// (softmax - onehot)/normalizer added into the listed rows.
/// Returns the summed loss (caller divides by normalizer if averaging).
/// Rows run in parallel_for bands; the per-row loss terms are summed in
/// list order afterwards, so loss and gradient bits do not depend on the
/// thread count.
double softmax_cross_entropy(const Matrix& logits,
                             std::span<const std::uint32_t> rows,
                             std::span<const std::int32_t> labels,
                             double normalizer, Matrix& grad);

/// Steady-state variant: the per-row loss terms and the softmax
/// probabilities live in the caller-provided `scratch` (resized to a size
/// fixed by the row and class counts), so repeated calls perform no heap
/// allocation. Bit-identical to the overload above.
double softmax_cross_entropy(const Matrix& logits,
                             std::span<const std::uint32_t> rows,
                             std::span<const std::int32_t> labels,
                             double normalizer, Matrix& grad,
                             std::vector<double>& scratch);

/// Sigmoid BCE-with-logits over listed rows against multi-hot targets
/// (targets has one row per listed row, aligned by position).
double bce_with_logits(const Matrix& logits,
                       std::span<const std::uint32_t> rows,
                       const Matrix& targets, double normalizer, Matrix& grad);

/// Fraction of listed rows whose argmax equals the label.
double accuracy(const Matrix& logits, std::span<const std::uint32_t> rows,
                std::span<const std::int32_t> labels);

/// Micro-averaged F1 with a 0.5 sigmoid threshold (logit > 0).
double micro_f1(const Matrix& logits, std::span<const std::uint32_t> rows,
                const Matrix& targets);

}  // namespace adaqp
