#include "gemm/fused_ops.hpp"

#include <algorithm>
#include <cmath>

namespace tilesparse {

void gelu_row(const float* in, float* out, std::size_t n) noexcept {
  const float c = 0.7978845608028654f;  // sqrt(2/pi)
  for (std::size_t j = 0; j < n; ++j) {
    const float x = in[j];
    out[j] = 0.5f * x * (1.0f + std::tanh(c * (x + 0.044715f * x * x * x)));
  }
}

float layer_norm_row(const float* in, float* out, std::size_t n,
                     const float* gamma, const float* beta, float eps,
                     float* normalized) noexcept {
  float mean = 0.0f;
  for (std::size_t j = 0; j < n; ++j) mean += in[j];
  mean /= static_cast<float>(n);
  float var = 0.0f;
  for (std::size_t j = 0; j < n; ++j) {
    const float d = in[j] - mean;
    var += d * d;
  }
  var /= static_cast<float>(n);
  const float inv = 1.0f / std::sqrt(var + eps);
  for (std::size_t j = 0; j < n; ++j) {
    const float nj = (in[j] - mean) * inv;
    if (normalized) normalized[j] = nj;
    out[j] = nj * gamma[j] + beta[j];
  }
  return inv;
}

void softmax_row(float* row, std::size_t n) noexcept {
  float maxv = row[0];
  for (std::size_t j = 1; j < n; ++j) maxv = std::max(maxv, row[j]);
  float sum = 0.0f;
  for (std::size_t j = 0; j < n; ++j) {
    row[j] = std::exp(row[j] - maxv);
    sum += row[j];
  }
  const float inv = 1.0f / sum;
  for (std::size_t j = 0; j < n; ++j) row[j] *= inv;
}

}  // namespace tilesparse
