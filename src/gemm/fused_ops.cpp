#include "gemm/fused_ops.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>

#include "gemm/micro_kernel.hpp"
#include "util/guards.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define TILESPARSE_X86_DISPATCH 1
#include <immintrin.h>
#endif

namespace tilesparse {
namespace {

// exp lane arithmetic, shared by GELU and softmax and by the scalar and
// AVX2 bodies:
//   z clamped to [-88, 88] (a NaN z stays NaN)
//   e^z = p(r) * 2^n,  n = round(z log2 e),  r = z - n ln2 (two-part ln2)
// It returns the two factors so GELU can fold 1 + p * 2^n into one FMA.
// Below about -87.7, n = -127 and 2^n's bit pattern is +0, so e^z is
// exactly 0 from there down to -inf.  Every multiply-add is an explicit
// FMA and no other product feeds an add, so compiler contraction cannot
// make the two bodies diverge.
constexpr float kExpClamp = 88.0f;
constexpr float kLog2e = 1.4426950408889634f;
constexpr float kLn2Hi = 0.693359375f;
constexpr float kLn2Lo = -2.12194440e-4f;
// Taylor coefficients 1/k!, k = 6..0 (Horner order).
constexpr float kExpPoly[] = {1.0f / 720.0f, 1.0f / 120.0f, 1.0f / 24.0f,
                              1.0f / 6.0f,   0.5f,          1.0f,
                              1.0f};
// GELU: z = -2u = (x * (1 + 0.044715 x^2)) * (-2 sqrt(2/pi)); z >= 88
// gives -0 (gelu(x) has underflowed); gelu(x) = x / (1 + e^z).
constexpr float kGeluCubic = 0.044715f;
constexpr float kGeluNeg2SqrtTwoOverPi = -1.5957691216057308f;
constexpr std::size_t kLanes = 8;

struct ExpParts {
  float p;      ///< p(r)
  float scale;  ///< 2^n
};

ExpParts exp_parts(float z) noexcept {
  // The AVX2 body carries a NaN lane through as p = z, and its NaN n
  // converts to INT_MIN, whose (n + 127) << 23 is the bit pattern of 1.
  if (std::isnan(z)) return {z, 1.0f};
  z = std::clamp(z, -kExpClamp, kExpClamp);
  const float n = std::nearbyint(z * kLog2e);
  float r = std::fma(n, -kLn2Hi, z);
  r = std::fma(n, -kLn2Lo, r);
  float p = kExpPoly[0];
  for (std::size_t k = 1; k < std::size(kExpPoly); ++k)
    p = std::fma(p, r, kExpPoly[k]);
  const float scale =
      std::bit_cast<float>(static_cast<std::uint32_t>(static_cast<int>(n) + 127)
                           << 23);
  return {p, scale};
}

float gelu_lane(float x) noexcept {
  const float t = std::fma(x * x, kGeluCubic, 1.0f);
  const float z = (x * t) * kGeluNeg2SqrtTwoOverPi;
  // Past the clamp x / (1 + e^z) would divide by e^88, not e^z: the
  // true value has underflowed, so the lane is -0 (NaN z compares false).
  if (z >= kExpClamp) return -0.0f;
  const ExpParts e = exp_parts(z);
  return x / std::fma(e.p, e.scale, 1.0f);
}

void gelu_row_scalar(const float* in, float* out, std::size_t n) noexcept {
  for (std::size_t j = 0; j < n; ++j) out[j] = gelu_lane(in[j]);
}

/// Softmax's last pass: row *= 1 / sum.  A NaN sum (a NaN input, +inf,
/// or a row of -inf) makes the whole row the one quiet NaN, so both
/// bodies agree on every bit, NaN rows included.
void softmax_scale(float* row, std::size_t n, float sum) noexcept {
  if (std::isnan(sum)) {
    std::fill(row, row + n, std::numeric_limits<float>::quiet_NaN());
    return;
  }
  const float inv = 1.0f / sum;
  for (std::size_t j = 0; j < n; ++j) row[j] *= inv;
}

/// The exponentials are summed in kLanes interleaved partial sums
/// (element j into lane j % kLanes), reduced as
/// ((l0 + l4) + (l2 + l6)) + ((l1 + l5) + (l3 + l7)) — the AVX2 body's
/// register order, reproduced here.
void softmax_row_scalar(float* row, std::size_t n) noexcept {
  float maxv = -std::numeric_limits<float>::infinity();
  for (std::size_t j = 0; j < n; ++j) maxv = std::max(maxv, row[j]);
  float lanes[kLanes] = {};
  for (std::size_t j = 0; j < n; ++j) {
    const ExpParts e = exp_parts(row[j] - maxv);
    row[j] = e.p * e.scale;
    lanes[j % kLanes] += row[j];
  }
  const float sum = ((lanes[0] + lanes[4]) + (lanes[2] + lanes[6])) +
                    ((lanes[1] + lanes[5]) + (lanes[3] + lanes[7]));
  softmax_scale(row, n, sum);
}

#ifdef TILESPARSE_X86_DISPATCH

__attribute__((target("avx2,fma"))) inline void exp_parts_avx2(__m256 z,
                                                               __m256& p,
                                                               __m256& scale) {
  // The bound is the first operand: max/min return the second one when
  // either is NaN, so a NaN lane passes through.
  z = _mm256_max_ps(_mm256_set1_ps(-kExpClamp), z);
  z = _mm256_min_ps(_mm256_set1_ps(kExpClamp), z);
  const __m256 n =
      _mm256_round_ps(_mm256_mul_ps(z, _mm256_set1_ps(kLog2e)),
                      _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  __m256 r = _mm256_fmadd_ps(n, _mm256_set1_ps(-kLn2Hi), z);
  r = _mm256_fmadd_ps(n, _mm256_set1_ps(-kLn2Lo), r);
  p = _mm256_set1_ps(kExpPoly[0]);
  for (std::size_t k = 1; k < std::size(kExpPoly); ++k)
    p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(kExpPoly[k]));
  scale = _mm256_castsi256_ps(_mm256_slli_epi32(
      _mm256_add_epi32(_mm256_cvtps_epi32(n), _mm256_set1_epi32(127)), 23));
}

__attribute__((target("avx2,fma"))) inline __m256 gelu_lanes_avx2(__m256 x) {
  const __m256 t = _mm256_fmadd_ps(_mm256_mul_ps(x, x),
                                   _mm256_set1_ps(kGeluCubic),
                                   _mm256_set1_ps(1.0f));
  const __m256 z = _mm256_mul_ps(_mm256_mul_ps(x, t),
                                 _mm256_set1_ps(kGeluNeg2SqrtTwoOverPi));
  const __m256 underflow =
      _mm256_cmp_ps(z, _mm256_set1_ps(kExpClamp), _CMP_GE_OQ);
  __m256 p, scale;
  exp_parts_avx2(z, p, scale);
  const __m256 y =
      _mm256_div_ps(x, _mm256_fmadd_ps(p, scale, _mm256_set1_ps(1.0f)));
  return _mm256_blendv_ps(y, _mm256_set1_ps(-0.0f), underflow);
}

__attribute__((target("avx2,fma"))) void gelu_row_avx2(const float* in,
                                                       float* out,
                                                       std::size_t n) noexcept {
  std::size_t j = 0;
  for (; j + kLanes <= n; j += kLanes)
    _mm256_storeu_ps(out + j, gelu_lanes_avx2(_mm256_loadu_ps(in + j)));
  if (j == n) return;
  // Ragged tail: the same 8-lane body over a zero-padded buffer, so a
  // value's bits never depend on where it sits in the row.
  alignas(32) float lanes[kLanes] = {};
  std::copy(in + j, in + n, lanes);
  _mm256_store_ps(lanes, gelu_lanes_avx2(_mm256_load_ps(lanes)));
  std::copy(lanes, lanes + (n - j), out + j);
}

__attribute__((target("avx2,fma"))) inline __m256 softmax_exp_avx2(
    __m256 x, __m256 maxv) {
  __m256 p, scale;
  exp_parts_avx2(_mm256_sub_ps(x, maxv), p, scale);
  return _mm256_mul_ps(p, scale);
}

__attribute__((target("avx2,fma"))) void softmax_row_avx2(
    float* row, std::size_t n) noexcept {
  const std::size_t body = n - n % kLanes;
  // The maximum of a row without NaN is exact in any order (a zero's
  // sign cannot reach an output: e^(x - 0) is the same for both zeros).
  __m256 vmax = _mm256_set1_ps(-std::numeric_limits<float>::infinity());
  for (std::size_t j = 0; j < body; j += kLanes)
    vmax = _mm256_max_ps(vmax, _mm256_loadu_ps(row + j));
  alignas(32) float lanes[kLanes];
  _mm256_store_ps(lanes, vmax);
  float maxv = lanes[0];
  for (std::size_t l = 1; l < kLanes; ++l) maxv = std::max(maxv, lanes[l]);
  for (std::size_t j = body; j < n; ++j) maxv = std::max(maxv, row[j]);

  const __m256 vmaxv = _mm256_set1_ps(maxv);
  __m256 acc = _mm256_setzero_ps();
  for (std::size_t j = 0; j < body; j += kLanes) {
    const __m256 e = softmax_exp_avx2(_mm256_loadu_ps(row + j), vmaxv);
    _mm256_storeu_ps(row + j, e);
    acc = _mm256_add_ps(acc, e);
  }
  if (body < n) {
    // Ragged tail: -inf padding lanes add e^-inf = +0 to their sums.
    std::fill(lanes, lanes + kLanes, -std::numeric_limits<float>::infinity());
    std::copy(row + body, row + n, lanes);
    const __m256 e = softmax_exp_avx2(_mm256_load_ps(lanes), vmaxv);
    _mm256_store_ps(lanes, e);
    std::copy(lanes, lanes + (n - body), row + body);
    acc = _mm256_add_ps(acc, e);
  }
  const __m128 half = _mm_add_ps(_mm256_castps256_ps128(acc),
                                 _mm256_extractf128_ps(acc, 1));
  const __m128 quarter = _mm_add_ps(half, _mm_movehl_ps(half, half));
  const float sum = _mm_cvtss_f32(
      _mm_add_ss(quarter, _mm_shuffle_ps(quarter, quarter, 1)));
  softmax_scale(row, n, sum);
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
                         const MatrixF* residual, MatrixF& c) {
  const std::size_t cols = c.cols();
  TS_CHECK(!bias || bias->cols() == cols,
           "GEMM epilogue bias width differs from the output's");
  TS_CHECK(!residual ||
               (residual->rows() == c.rows() && residual->cols() == cols),
           "GEMM epilogue residual shape differs from the output's");
  const float* b = bias ? bias->data() : nullptr;
  const bool gelu = activation == GemmActivation::kGelu;
  for (std::size_t r = 0; r < c.rows(); ++r) {
    float* row = c.data() + r * cols;
    if (b)
      for (std::size_t j = 0; j < cols; ++j) row[j] += b[j];
    if (gelu) gelu_row(row, row, cols);
    if (residual) {
      const float* res = residual->data() + r * cols;
      for (std::size_t j = 0; j < cols; ++j) row[j] += res[j];
    }
  }
}

void softmax_row(float* row, std::size_t n) noexcept {
#ifdef TILESPARSE_X86_DISPATCH
  if (active_simd_level() == SimdLevel::kAvx2) {
    softmax_row_avx2(row, n);
    return;
  }
#endif
  softmax_row_scalar(row, n);
}

}  // namespace tilesparse
