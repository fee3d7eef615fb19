#include "gemm/fused_ops.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>

#include "gemm/micro_kernel.hpp"
#include "util/guards.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define TILESPARSE_X86_DISPATCH 1
#include <immintrin.h>
#endif

namespace tilesparse {
namespace {

// GELU lane arithmetic, shared by the scalar and AVX2 bodies:
//   z = -2u = (x * (1 + 0.044715 x^2)) * (-2 sqrt(2/pi)), clamped to ±88
//   (z >= 88 gives -0: gelu(x) has underflowed)
//   e^z = 2^n * p(r),  n = round(z log2 e),  r = z - n ln2 (two-part ln2)
//   gelu(x) = x / (1 + e^z)
// Every multiply-add is an explicit FMA and no other product feeds an
// add, so compiler contraction cannot make the two bodies diverge.
constexpr float kGeluCubic = 0.044715f;
constexpr float kGeluNeg2SqrtTwoOverPi = -1.5957691216057308f;
constexpr float kExpClamp = 88.0f;
constexpr float kLog2e = 1.4426950408889634f;
constexpr float kLn2Hi = 0.693359375f;
constexpr float kLn2Lo = -2.12194440e-4f;
// Taylor coefficients 1/k!, k = 6..0 (Horner order).
constexpr float kExpPoly[] = {1.0f / 720.0f, 1.0f / 120.0f, 1.0f / 24.0f,
                              1.0f / 6.0f,   0.5f,          1.0f,
                              1.0f};
constexpr std::size_t kGeluLanes = 8;

float gelu_lane(float x) noexcept {
  const float t = std::fma(x * x, kGeluCubic, 1.0f);
  float z = (x * t) * kGeluNeg2SqrtTwoOverPi;
  // Past the clamp x / (1 + e^z) would divide by e^88, not e^z: the
  // true value has underflowed, so the lane is -0 (NaN z compares false).
  if (z >= kExpClamp) return -0.0f;
  // _mm256_max_ps / _mm256_min_ps semantics: a NaN z takes the bound.
  z = z > -kExpClamp ? z : -kExpClamp;
  z = z < kExpClamp ? z : kExpClamp;
  const float n = std::nearbyint(z * kLog2e);
  float r = std::fma(n, -kLn2Hi, z);
  r = std::fma(n, -kLn2Lo, r);
  float p = kExpPoly[0];
  for (std::size_t k = 1; k < std::size(kExpPoly); ++k)
    p = std::fma(p, r, kExpPoly[k]);
  const float scale =
      std::bit_cast<float>(static_cast<std::uint32_t>(static_cast<int>(n) + 127)
                           << 23);
  return x / std::fma(p, scale, 1.0f);
}

void gelu_row_scalar(const float* in, float* out, std::size_t n) noexcept {
  for (std::size_t j = 0; j < n; ++j) out[j] = gelu_lane(in[j]);
}

#ifdef TILESPARSE_X86_DISPATCH

__attribute__((target("avx2,fma"))) inline __m256 gelu_lanes_avx2(__m256 x) {
  const __m256 t = _mm256_fmadd_ps(_mm256_mul_ps(x, x),
                                   _mm256_set1_ps(kGeluCubic),
                                   _mm256_set1_ps(1.0f));
  __m256 z = _mm256_mul_ps(_mm256_mul_ps(x, t),
                           _mm256_set1_ps(kGeluNeg2SqrtTwoOverPi));
  const __m256 underflow =
      _mm256_cmp_ps(z, _mm256_set1_ps(kExpClamp), _CMP_GE_OQ);
  z = _mm256_max_ps(z, _mm256_set1_ps(-kExpClamp));
  z = _mm256_min_ps(z, _mm256_set1_ps(kExpClamp));
  const __m256 n =
      _mm256_round_ps(_mm256_mul_ps(z, _mm256_set1_ps(kLog2e)),
                      _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  __m256 r = _mm256_fmadd_ps(n, _mm256_set1_ps(-kLn2Hi), z);
  r = _mm256_fmadd_ps(n, _mm256_set1_ps(-kLn2Lo), r);
  __m256 p = _mm256_set1_ps(kExpPoly[0]);
  for (std::size_t k = 1; k < std::size(kExpPoly); ++k)
    p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(kExpPoly[k]));
  const __m256 scale = _mm256_castsi256_ps(_mm256_slli_epi32(
      _mm256_add_epi32(_mm256_cvtps_epi32(n), _mm256_set1_epi32(127)), 23));
  const __m256 y =
      _mm256_div_ps(x, _mm256_fmadd_ps(p, scale, _mm256_set1_ps(1.0f)));
  return _mm256_blendv_ps(y, _mm256_set1_ps(-0.0f), underflow);
}

__attribute__((target("avx2,fma"))) void gelu_row_avx2(const float* in,
                                                       float* out,
                                                       std::size_t n) noexcept {
  std::size_t j = 0;
  for (; j + kGeluLanes <= n; j += kGeluLanes)
    _mm256_storeu_ps(out + j, gelu_lanes_avx2(_mm256_loadu_ps(in + j)));
  if (j == n) return;
  // Ragged tail: the same 8-lane body over a zero-padded buffer, so a
  // value's bits never depend on where it sits in the row.
  alignas(32) float lanes[kGeluLanes] = {};
  std::copy(in + j, in + n, lanes);
  _mm256_store_ps(lanes, gelu_lanes_avx2(_mm256_load_ps(lanes)));
  std::copy(lanes, lanes + (n - j), out + j);
}

#endif  // TILESPARSE_X86_DISPATCH

}  // namespace

void gelu_row(const float* in, float* out, std::size_t n) noexcept {
#ifdef TILESPARSE_X86_DISPATCH
  if (active_simd_level() == SimdLevel::kAvx2) {
    gelu_row_avx2(in, out, n);
    return;
  }
#endif
  gelu_row_scalar(in, out, n);
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

void apply_gemm_epilogue(const MatrixF* bias, GemmActivation activation,
                         const MatrixF* residual, MatrixF& c,
                         std::size_t n0) {
  const std::size_t cols = c.cols();
  TS_CHECK(!bias || n0 + cols <= bias->cols(),
           "GEMM epilogue bias is narrower than the output");
  TS_CHECK(!residual ||
               (residual->rows() == c.rows() && n0 + cols <= residual->cols()),
           "GEMM epilogue residual does not cover the output");
  const float* b = bias ? bias->data() + n0 : nullptr;
  const bool gelu = activation == GemmActivation::kGelu;
  for (std::size_t r = 0; r < c.rows(); ++r) {
    float* row = c.data() + r * cols;
    if (b)
      for (std::size_t j = 0; j < cols; ++j) row[j] += b[j];
    if (gelu) gelu_row(row, row, cols);
    if (residual) {
      const float* res = residual->data() + r * residual->cols() + n0;
      for (std::size_t j = 0; j < cols; ++j) row[j] += res[j];
    }
  }
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
