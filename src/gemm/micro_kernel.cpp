#include "gemm/micro_kernel.hpp"

#include <atomic>

#include "tensor/half.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define TILESPARSE_X86_DISPATCH 1
#include <cpuid.h>
#include <immintrin.h>
#endif

#if defined(TILESPARSE_X86_DISPATCH) && defined(__linux__)
#define TILESPARSE_AMX_PROBE 1
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace tilesparse {
namespace {

// ------------------------------------------------------ scalar kernels

void kernel_f32_scalar(std::size_t kc, const float* a_panel,
                       const float* b_panel, float* c, std::size_t ldc,
                       std::size_t rows, std::size_t cols) {
  float acc[kMr][kNr] = {};
  for (std::size_t kk = 0; kk < kc; ++kk) {
    const float* brow = b_panel + kk * kNr;
    const float* acol = a_panel + kk * kMr;
    for (std::size_t r = 0; r < kMr; ++r) {
      const float a = acol[r];
#pragma omp simd
      for (std::size_t j = 0; j < kNr; ++j) acc[r][j] += a * brow[j];
    }
  }
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t j = 0; j < cols; ++j) c[r * ldc + j] += acc[r][j];
}

void kernel_i8_scalar(std::size_t kc, const std::int8_t* a_panel,
                      const std::int8_t* b_panel, float scale, float* c,
                      std::size_t ldc, std::size_t rows, std::size_t cols) {
  std::int32_t acc[kMr][kNr] = {};
  const std::size_t kc_even = round_up_pair(kc);
  for (std::size_t kk = 0; kk < kc_even; kk += kKPair) {
    const std::int8_t* bpair = b_panel + kk * kNr;  // (kk/2) * 2 * kNr
    const std::int8_t* a0 = a_panel + kk * kMr;
    const std::int8_t* a1 = a_panel + (kk + 1) * kMr;
    for (std::size_t r = 0; r < kMr; ++r) {
      const std::int32_t av0 = a0[r];
      const std::int32_t av1 = a1[r];
#pragma omp simd
      for (std::size_t j = 0; j < kNr; ++j) {
        acc[r][j] += av0 * static_cast<std::int32_t>(bpair[j * 2]) +
                     av1 * static_cast<std::int32_t>(bpair[j * 2 + 1]);
      }
    }
  }
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t j = 0; j < cols; ++j)
      c[r * ldc + j] += scale * static_cast<float>(acc[r][j]);
}

// -------------------------------------------------------- AVX2 kernels

#ifdef TILESPARSE_X86_DISPATCH

__attribute__((target("avx2,fma"))) void kernel_f32_avx2(
    std::size_t kc, const float* a_panel, const float* b_panel, float* c,
    std::size_t ldc, std::size_t rows, std::size_t cols) {
  // 6x16 C fragment in 12 ymm accumulators; B strip streams through 2
  // more, A broadcasts through 1.
  __m256 acc[kMr][2];
  for (std::size_t r = 0; r < kMr; ++r) {
    acc[r][0] = _mm256_setzero_ps();
    acc[r][1] = _mm256_setzero_ps();
  }
  for (std::size_t kk = 0; kk < kc; ++kk) {
    const __m256 b0 = _mm256_loadu_ps(b_panel + kk * kNr);
    const __m256 b1 = _mm256_loadu_ps(b_panel + kk * kNr + 8);
    const float* acol = a_panel + kk * kMr;
    for (std::size_t r = 0; r < kMr; ++r) {
      const __m256 av = _mm256_broadcast_ss(acol + r);
      acc[r][0] = _mm256_fmadd_ps(av, b0, acc[r][0]);
      acc[r][1] = _mm256_fmadd_ps(av, b1, acc[r][1]);
    }
  }
  if (cols == kNr) {
    for (std::size_t r = 0; r < rows; ++r) {
      float* crow = c + r * ldc;
      _mm256_storeu_ps(crow, _mm256_add_ps(_mm256_loadu_ps(crow), acc[r][0]));
      _mm256_storeu_ps(crow + 8,
                       _mm256_add_ps(_mm256_loadu_ps(crow + 8), acc[r][1]));
    }
    return;
  }
  alignas(32) float tmp[kNr];
  for (std::size_t r = 0; r < rows; ++r) {
    _mm256_store_ps(tmp, acc[r][0]);
    _mm256_store_ps(tmp + 8, acc[r][1]);
    float* crow = c + r * ldc;
    for (std::size_t j = 0; j < cols; ++j) crow[j] += tmp[j];
  }
}

__attribute__((target("avx2,fma"))) void kernel_i8_avx2(
    std::size_t kc, const std::int8_t* a_panel, const std::int8_t* b_panel,
    float scale, float* c, std::size_t ldc, std::size_t rows,
    std::size_t cols) {
  // K-pair interleaved B strip: one vpmaddwd consumes two K rows for 8
  // columns, accumulating straight into int32 lanes.
  __m256i acc[kMr][2];
  for (std::size_t r = 0; r < kMr; ++r) {
    acc[r][0] = _mm256_setzero_si256();
    acc[r][1] = _mm256_setzero_si256();
  }
  const std::size_t kc_even = round_up_pair(kc);
  for (std::size_t kk = 0; kk < kc_even; kk += kKPair) {
    const __m256i raw = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(b_panel + kk * kNr));
    const __m256i blo = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(raw));
    const __m256i bhi = _mm256_cvtepi8_epi16(_mm256_extracti128_si256(raw, 1));
    const std::int8_t* a0 = a_panel + kk * kMr;
    const std::int8_t* a1 = a_panel + (kk + 1) * kMr;
    for (std::size_t r = 0; r < kMr; ++r) {
      const std::uint32_t pair =
          (static_cast<std::uint32_t>(static_cast<std::uint16_t>(
               static_cast<std::int16_t>(a0[r])))) |
          (static_cast<std::uint32_t>(static_cast<std::uint16_t>(
               static_cast<std::int16_t>(a1[r])))
           << 16);
      const __m256i av = _mm256_set1_epi32(static_cast<int>(pair));
      acc[r][0] = _mm256_add_epi32(acc[r][0], _mm256_madd_epi16(blo, av));
      acc[r][1] = _mm256_add_epi32(acc[r][1], _mm256_madd_epi16(bhi, av));
    }
  }
  const __m256 vscale = _mm256_set1_ps(scale);
  if (cols == kNr) {
    for (std::size_t r = 0; r < rows; ++r) {
      float* crow = c + r * ldc;
      _mm256_storeu_ps(
          crow, _mm256_fmadd_ps(vscale, _mm256_cvtepi32_ps(acc[r][0]),
                                _mm256_loadu_ps(crow)));
      _mm256_storeu_ps(
          crow + 8, _mm256_fmadd_ps(vscale, _mm256_cvtepi32_ps(acc[r][1]),
                                    _mm256_loadu_ps(crow + 8)));
    }
    return;
  }
  alignas(32) std::int32_t tmp[kNr];
  for (std::size_t r = 0; r < rows; ++r) {
    _mm256_store_si256(reinterpret_cast<__m256i*>(tmp), acc[r][0]);
    _mm256_store_si256(reinterpret_cast<__m256i*>(tmp + 8), acc[r][1]);
    float* crow = c + r * ldc;
    for (std::size_t j = 0; j < cols; ++j)
      crow[j] += scale * static_cast<float>(tmp[j]);
  }
}

#endif  // TILESPARSE_X86_DISPATCH

// ------------------------------------------------------- sparse strips

void spmm_strip_scalar(const float* a_panel, const std::int32_t* row_idx,
                       const std::int64_t* row_ptr, std::size_t nrows,
                       const std::int32_t* col, const float* val,
                       float* frag) {
  for (std::size_t i = 0; i < nrows; ++i) {
    const float* av = a_panel + static_cast<std::size_t>(row_idx[i]) * kNr;
    for (auto p = row_ptr[i]; p < row_ptr[i + 1]; ++p) {
      const auto idx = static_cast<std::size_t>(p);
      float* f = frag + static_cast<std::size_t>(col[idx]) * kNr;
      const float v = val[idx];
#pragma omp simd
      for (std::size_t r = 0; r < kNr; ++r) f[r] += v * av[r];
    }
  }
}

#ifdef TILESPARSE_X86_DISPATCH

__attribute__((target("avx2,fma"))) void spmm_strip_avx2(
    const float* a_panel, const std::int32_t* row_idx,
    const std::int64_t* row_ptr, std::size_t nrows, const std::int32_t* col,
    const float* val, float* frag) {
  for (std::size_t i = 0; i < nrows; ++i) {
    const float* av = a_panel + static_cast<std::size_t>(row_idx[i]) * kNr;
    const __m256 a0 = _mm256_loadu_ps(av);
    const __m256 a1 = _mm256_loadu_ps(av + 8);
    for (auto p = row_ptr[i]; p < row_ptr[i + 1]; ++p) {
      const auto idx = static_cast<std::size_t>(p);
      float* f = frag + static_cast<std::size_t>(col[idx]) * kNr;
      const __m256 v = _mm256_broadcast_ss(val + idx);
      _mm256_storeu_ps(f, _mm256_fmadd_ps(v, a0, _mm256_loadu_ps(f)));
      _mm256_storeu_ps(f + 8, _mm256_fmadd_ps(v, a1, _mm256_loadu_ps(f + 8)));
    }
  }
}

#endif  // TILESPARSE_X86_DISPATCH

// ------------------------------------------------------------ dispatch

SimdLevel detect() noexcept {
#ifdef TILESPARSE_X86_DISPATCH
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma"))
    return SimdLevel::kAvx2;
#endif
  return SimdLevel::kScalar;
}

bool detect_amx_int8() noexcept {
#ifdef TILESPARSE_AMX_PROBE
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  constexpr unsigned kAmxTile = 1u << 24;  // CPUID.(7,0):EDX
  constexpr unsigned kAmxInt8 = 1u << 25;
  if ((edx & kAmxTile) == 0 || (edx & kAmxInt8) == 0) return false;
  if (!__builtin_cpu_supports("avx512bw") ||
      !__builtin_cpu_supports("avx512vbmi2"))
    return false;
  // Linux keeps the 8 KiB tile state off until a process asks for it.
  constexpr long kArchReqXcompPerm = 0x1023;
  constexpr long kXfeatureXtiledata = 18;
  return syscall(SYS_arch_prctl, kArchReqXcompPerm, kXfeatureXtiledata) == 0;
#else
  return false;
#endif
}

std::atomic<SimdLevel>& active_level() noexcept {
  static std::atomic<SimdLevel> level{detect()};
  return level;
}

}  // namespace

SimdLevel detected_simd_level() noexcept {
  static const SimdLevel level = detect();
  return level;
}

bool amx_int8_available() noexcept {
  static const bool available = detect_amx_int8();
  return available;
}

SimdLevel active_simd_level() noexcept {
  return active_level().load(std::memory_order_relaxed);
}

SimdLevel set_simd_level(SimdLevel level) noexcept {
  if (level == SimdLevel::kAvx2 && detected_simd_level() != SimdLevel::kAvx2)
    level = SimdLevel::kScalar;
  active_level().store(level, std::memory_order_relaxed);
  return level;
}

void micro_kernel_f32(std::size_t kc, const float* a_panel,
                      const float* b_panel, float* c, std::size_t ldc,
                      std::size_t rows, std::size_t cols) {
  TS_ASSERT(rows <= kMr && cols <= kNr && cols <= ldc);
#ifdef TILESPARSE_X86_DISPATCH
  if (active_simd_level() == SimdLevel::kAvx2) {
    kernel_f32_avx2(kc, a_panel, b_panel, c, ldc, rows, cols);
    return;
  }
#endif
  kernel_f32_scalar(kc, a_panel, b_panel, c, ldc, rows, cols);
}

void micro_kernel_i8(std::size_t kc, const std::int8_t* a_panel,
                     const std::int8_t* b_panel, float scale, float* c,
                     std::size_t ldc, std::size_t rows, std::size_t cols) {
  TS_ASSERT(rows <= kMr && cols <= kNr && cols <= ldc);
#ifdef TILESPARSE_X86_DISPATCH
  if (active_simd_level() == SimdLevel::kAvx2) {
    kernel_i8_avx2(kc, a_panel, b_panel, scale, c, ldc, rows, cols);
    return;
  }
#endif
  kernel_i8_scalar(kc, a_panel, b_panel, scale, c, ldc, rows, cols);
}

void spmm_strip_f32(const float* a_panel, const std::int32_t* row_idx,
                    const std::int64_t* row_ptr, std::size_t nrows,
                    const std::int32_t* col, const float* val, float* frag) {
#ifdef TILESPARSE_X86_DISPATCH
  if (active_simd_level() == SimdLevel::kAvx2) {
    spmm_strip_avx2(a_panel, row_idx, row_ptr, nrows, col, val, frag);
    return;
  }
#endif
  spmm_strip_scalar(a_panel, row_idx, row_ptr, nrows, col, val, frag);
}

// ------------------------------------------------------- panel packing

void pack_b_panel_f32(const float* b, std::size_t ldb, std::size_t kc,
                      std::size_t cols, float* out) {
  if (cols == kNr) {
    for (std::size_t kk = 0; kk < kc; ++kk) {
      const float* brow = b + kk * ldb;
      float* orow = out + kk * kNr;
#pragma omp simd
      for (std::size_t j = 0; j < kNr; ++j) orow[j] = brow[j];
    }
    return;
  }
  for (std::size_t kk = 0; kk < kc; ++kk) {
    const float* brow = b + kk * ldb;
    float* orow = out + kk * kNr;
    std::size_t j = 0;
    for (; j < cols; ++j) orow[j] = brow[j];
    for (; j < kNr; ++j) orow[j] = 0.0f;
  }
}

void pack_b_panel_i8(const std::int8_t* b, std::size_t ldb, std::size_t kc,
                     std::size_t cols, std::int8_t* out) {
  const std::size_t kc_even = round_up_pair(kc);
  for (std::size_t kk = 0; kk < kc_even; kk += kKPair) {
    std::int8_t* opair = out + kk * kNr;
    const std::int8_t* b0 = b + kk * ldb;
    const std::int8_t* b1 = b0 + ldb;
    const bool has1 = kk + 1 < kc;
    for (std::size_t j = 0; j < kNr; ++j) {
      opair[j * 2] = j < cols ? b0[j] : std::int8_t{0};
      opair[j * 2 + 1] = (has1 && j < cols) ? b1[j] : std::int8_t{0};
    }
  }
}

void pack_a_panel_f32(const float* a, std::size_t lda, std::size_t rows,
                      std::size_t kc, float alpha, bool fp16_inputs,
                      float* out) {
  for (std::size_t kk = 0; kk < kc; ++kk) {
    float* ocol = out + kk * kMr;
    for (std::size_t r = 0; r < kMr; ++r) {
      float v = (r < rows) ? a[r * lda + kk] : 0.0f;
      if (fp16_inputs) v = round_to_half(v);
      ocol[r] = alpha * v;
    }
  }
}

void pack_a_panel_gather_f32(const float* a, std::size_t lda,
                             std::size_t rows, const std::int32_t* col_idx,
                             std::size_t kc, float alpha, bool fp16_inputs,
                             float* out) {
  for (std::size_t kk = 0; kk < kc; ++kk) {
    const std::size_t src = static_cast<std::size_t>(col_idx[kk]);
    float* ocol = out + kk * kMr;
    for (std::size_t r = 0; r < kMr; ++r) {
      float v = (r < rows) ? a[r * lda + src] : 0.0f;
      if (fp16_inputs) v = round_to_half(v);
      ocol[r] = alpha * v;
    }
  }
}

void pack_at_panel_f32(const float* a, std::size_t lda, std::size_t rows,
                       std::size_t kc, float* out) {
  for (std::size_t kk = 0; kk < kc; ++kk) {
    float* lane = out + kk * kNr;
    std::size_t r = 0;
    for (; r < rows; ++r) lane[r] = a[r * lda + kk];
    for (; r < kNr; ++r) lane[r] = 0.0f;
  }
}

void pack_a_panel_gather_i8(const std::int8_t* a, std::size_t lda,
                            std::size_t rows, const std::int32_t* col_idx,
                            std::size_t kc, std::int8_t* out) {
  const std::size_t kc_even = round_up_pair(kc);
  for (std::size_t kk = 0; kk < kc_even; ++kk) {
    std::int8_t* ocol = out + kk * kMr;
    if (kk >= kc) {
      for (std::size_t r = 0; r < kMr; ++r) ocol[r] = 0;
      continue;
    }
    const std::size_t src = static_cast<std::size_t>(col_idx[kk]);
    for (std::size_t r = 0; r < kMr; ++r)
      ocol[r] = (r < rows) ? a[r * lda + src] : std::int8_t{0};
  }
}

GemmScratch& thread_gemm_scratch() {
  thread_local GemmScratch scratch;
  return scratch;
}

}  // namespace tilesparse
