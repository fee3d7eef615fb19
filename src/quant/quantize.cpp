#include "quant/quantize.hpp"

#include <algorithm>
#include <cmath>

#include "gemm/micro_kernel.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define TILESPARSE_X86_DISPATCH 1
#include <immintrin.h>
#endif

namespace tilesparse {
namespace {

// The one int8 round/clamp: q = clamp(lround(x * inv), -127, 127).
// The scalar body is the reference; the AVX2 body produces the same
// bits.  Its abs-max is a lane-wise max, which is order-free and so
// exact, and it rounds half away from zero as trunc(s) + (|s - trunc(s)|
// >= 0.5 ? sign(s) : 0), where every step is exact.  A lane lround
// cannot represent (NaN, or |s| >= 2^63, e.g. the infinite s of a row
// whose abs-max is below ~4e-37) takes lround's x86-64 result,
// LONG_MIN, which clamps to -127.
constexpr float kQuantMax = 127.0f;

float scale_for(float abs_max) noexcept {
  return abs_max > 0.0f ? abs_max / kQuantMax : 1.0f;
}

float abs_max_scalar(const float* x, std::size_t n) noexcept {
  float m = 0.0f;
  for (std::size_t j = 0; j < n; ++j) m = std::max(m, std::fabs(x[j]));
  return m;
}

void round_scalar(const float* x, std::size_t n, float inv,
                  std::int8_t* q) noexcept {
  for (std::size_t j = 0; j < n; ++j)
    q[j] = static_cast<std::int8_t>(
        std::clamp(std::lround(x[j] * inv), -127l, 127l));
}

#ifdef TILESPARSE_X86_DISPATCH

constexpr std::size_t kLanes = 8;
constexpr std::size_t kBlock = 4 * kLanes;  // one 32-byte int8 store

__attribute__((target("avx2"))) float abs_max_avx2(const float* x,
                                                   std::size_t n) noexcept {
  const __m256 sign = _mm256_set1_ps(-0.0f);
  // max_ps(|x|, acc) keeps acc when x is NaN, as std::max(m, |x|) does.
  __m256 acc[4] = {_mm256_setzero_ps(), _mm256_setzero_ps(),
                   _mm256_setzero_ps(), _mm256_setzero_ps()};
  std::size_t j = 0;
  for (; j + kBlock <= n; j += kBlock)
    for (std::size_t v = 0; v < 4; ++v)
      acc[v] = _mm256_max_ps(
          _mm256_andnot_ps(sign, _mm256_loadu_ps(x + j + v * kLanes)), acc[v]);
  const __m256 m8 = _mm256_max_ps(_mm256_max_ps(acc[0], acc[1]),
                                  _mm256_max_ps(acc[2], acc[3]));
  alignas(32) float lanes[kLanes];
  _mm256_store_ps(lanes, m8);
  float m = 0.0f;
  for (float v : lanes) m = std::max(m, v);
  return std::max(m, abs_max_scalar(x + j, n - j));
}

// Rounds and clamps 8 lanes of x * inv to int32 values in [-127, 127].
__attribute__((target("avx2"))) inline __m256i round_lanes_avx2(__m256 x,
                                                                __m256 inv) {
  const __m256 sign = _mm256_set1_ps(-0.0f);
  const __m256 s = _mm256_mul_ps(x, inv);
  const __m256 t = _mm256_round_ps(s, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
  const __m256 half_up = _mm256_cmp_ps(
      _mm256_andnot_ps(sign, _mm256_sub_ps(s, t)), _mm256_set1_ps(0.5f),
      _CMP_GE_OQ);
  const __m256 away = _mm256_and_ps(
      half_up, _mm256_or_ps(_mm256_and_ps(sign, s), _mm256_set1_ps(1.0f)));
  __m256 r = _mm256_add_ps(t, away);
  r = _mm256_max_ps(r, _mm256_set1_ps(-kQuantMax));
  r = _mm256_min_ps(r, _mm256_set1_ps(kQuantMax));
  const __m256 out_of_range =
      _mm256_cmp_ps(_mm256_andnot_ps(sign, s), _mm256_set1_ps(0x1p63f),
                    _CMP_NLT_UQ);
  r = _mm256_blendv_ps(r, _mm256_set1_ps(-kQuantMax), out_of_range);
  return _mm256_cvtps_epi32(r);
}

// 32 lanes of x * inv to 32 int8 values.
__attribute__((target("avx2"))) inline __m256i round_block_avx2(
    const float* x, __m256 inv) {
  const __m256i a = round_lanes_avx2(_mm256_loadu_ps(x), inv);
  const __m256i b = round_lanes_avx2(_mm256_loadu_ps(x + kLanes), inv);
  const __m256i c = round_lanes_avx2(_mm256_loadu_ps(x + 2 * kLanes), inv);
  const __m256i d = round_lanes_avx2(_mm256_loadu_ps(x + 3 * kLanes), inv);
  // packs work within 128-bit halves: the bytes come out as 4-lane
  // groups a0 b0 c0 d0 | a1 b1 c1 d1; the permute restores a b c d.
  const __m256i packed = _mm256_packs_epi16(_mm256_packs_epi32(a, b),
                                            _mm256_packs_epi32(c, d));
  return _mm256_permutevar8x32_epi32(packed,
                                     _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7));
}

__attribute__((target("avx2"))) void round_avx2(const float* x, std::size_t n,
                                                float inv,
                                                std::int8_t* q) noexcept {
  const __m256 inv8 = _mm256_set1_ps(inv);
  std::size_t j = 0;
  for (; j + kBlock <= n; j += kBlock)
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(q + j),
                        round_block_avx2(x + j, inv8));
  if (j == n) return;
  // Ragged tail: the same 32-lane body over a zero-padded buffer, so a
  // value's bits never depend on where it sits in the row.
  alignas(32) float lanes[kBlock] = {};
  alignas(32) std::int8_t out[kBlock];
  std::copy(x + j, x + n, lanes);
  _mm256_store_si256(reinterpret_cast<__m256i*>(out),
                     round_block_avx2(lanes, inv8));
  std::copy(out, out + (n - j), q + j);
}

#endif  // TILESPARSE_X86_DISPATCH

// Quantises n contiguous values with one scale chosen from their
// abs-max; returns that scale.
float quantize_span(const float* x, std::size_t n, std::int8_t* q) noexcept {
#ifdef TILESPARSE_X86_DISPATCH
  if (active_simd_level() == SimdLevel::kAvx2) {
    const float scale = scale_for(abs_max_avx2(x, n));
    round_avx2(x, n, 1.0f / scale, q);
    return scale;
  }
#endif
  const float scale = scale_for(abs_max_scalar(x, n));
  round_scalar(x, n, 1.0f / scale, q);
  return scale;
}

}  // namespace

QuantMatrix quantize(const MatrixF& m) {
  QuantMatrix q;
  q.values = MatrixI8(m.rows(), m.cols());
  q.scale = quantize_span(m.data(), m.size(), q.values.data());
  return q;
}

QuantRowMatrix quantize_rows(const MatrixF& m) {
  QuantRowMatrix q;
  q.values = MatrixI8(m.rows(), m.cols());
  q.scales.resize(m.rows());
  for (std::size_t r = 0; r < m.rows(); ++r)
    q.scales[r] = quantize_span(m.data() + r * m.cols(), m.cols(),
                                q.values.data() + r * m.cols());
  return q;
}

MatrixF dequantize(const QuantMatrix& q) {
  MatrixF m(q.values.rows(), q.values.cols());
  const std::int8_t* src = q.values.data();
  float* dst = m.data();
  for (std::size_t i = 0; i < m.size(); ++i)
    dst[i] = static_cast<float>(src[i]) * q.scale;
  return m;
}

}  // namespace tilesparse
