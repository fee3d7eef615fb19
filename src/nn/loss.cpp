#include "nn/loss.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "gemm/fused_ops.hpp"

namespace tilesparse {

float softmax_cross_entropy(const MatrixF& logits,
                            const std::vector<int>& labels, MatrixF& dlogits) {
  assert(labels.size() == logits.rows());
  const std::size_t batch = logits.rows();
  const std::size_t classes = logits.cols();
  dlogits = MatrixF(batch, classes);
  double loss = 0.0;
  const float inv_batch = 1.0f / static_cast<float>(batch);
  for (std::size_t b = 0; b < batch; ++b) {
    const float* row = logits.data() + b * classes;
    float* drow = dlogits.data() + b * classes;
    std::copy(row, row + classes, drow);
    softmax_row(drow, classes);
    const auto label = static_cast<std::size_t>(labels[b]);
    for (std::size_t c = 0; c < classes; ++c) {
      const float p = drow[c];
      drow[c] = (p - (c == label ? 1.0f : 0.0f)) * inv_batch;
      if (c == label) loss -= std::log(std::max(p, 1e-12f));
    }
  }
  return static_cast<float>(loss / static_cast<double>(batch));
}

double accuracy(const MatrixF& logits, const std::vector<int>& labels) {
  assert(labels.size() == logits.rows());
  if (logits.rows() == 0) return 0.0;
  std::size_t correct = 0;
  for (std::size_t b = 0; b < logits.rows(); ++b) {
    const float* row = logits.data() + b * logits.cols();
    const auto pred = std::max_element(row, row + logits.cols()) - row;
    correct += (pred == labels[b]);
  }
  return static_cast<double>(correct) / static_cast<double>(logits.rows());
}

}  // namespace tilesparse
