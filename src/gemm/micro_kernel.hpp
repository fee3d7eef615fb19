#pragma once
// Shared register-tiled micro-kernel core for every PackedWeight
// execution path.
//
// Before this existed, each backend funnelled into its own innermost
// loop family (a scalar 4x16 kernel in dense_gemm, hand-rolled
// accumulator loops in masked_gemm / quant_tw_gemm).  The paper's
// argument is that tile-wise sparsity wins *because* the dense
// execution substrate stays fast; this header is that substrate: one
// blocked, B-panel-packed, SIMD-vectorized inner kernel that
// dense_gemm, the TW/TEW masked paths and the int8 TW path all share.
//
// Two kernels are exposed:
//  * fp32:       C(rows x cols) += A_panel^T * B_panel (FMA)
//  * int8->int32 with fused dequant: C += scale * (A_panel^T * B_panel)
//    accumulated in int32 on 16-bit vpmaddwd lanes
//
// The int8 TW kernel (quant/quant_gemm) has one more body, on the CPU's
// matrix unit: AMX-INT8 tiles, a CPU's analogue of the tensor-core
// IMMA the paper runs TW tiles on.  It is not a SimdLevel, because AMX
// is a property of the int8 unit rather than of the vector ISA:
// amx_int8_available() below probes it once, and quant_tw_gemm runs it
// in place of micro_kernel_i8 when the active level is kAvx2.
//
// Dispatch is resolved at runtime: an AVX2+FMA implementation via
// intrinsics (compiled with function-level target attributes, so the
// rest of the library keeps its baseline ISA) with a portable
// `#pragma omp simd` scalar fallback.  set_simd_level() lets tests and
// ablations force the fallback on AVX2 hosts.
//
// Panel layouts (packed by the helpers below, zero-padded to full
// micro-tile size so kernels never branch on ragged edges):
//  * fp32 A panel: a_panel[kk * kMr + r], kc x kMr
//  * fp32 B panel: b_panel[kk * kNr + j], kc x kNr
//  * int8 A panel: a_panel[kk * kMr + r], kc rounded up to even
//  * int8 B panel: K-pair interleaved, b_panel[(kk/2)*2*kNr + j*2 + (kk&1)]
//    — pairs of K rows sit adjacent per column so the AVX2 kernel can
//    consume them with a single 16-bit multiply-add (vpmaddwd).

#include <cstddef>
#include <cstdint>

#include "util/guards.hpp"

namespace tilesparse {

/// Register micro-tile: 6 rows x 16 columns of C per innermost
/// iteration (12 of 16 ymm registers hold C fragments on AVX2).
inline constexpr std::size_t kMr = 6;
inline constexpr std::size_t kNr = 16;

/// int8 kernels consume K two rows at a time (16-bit multiply-add).
inline constexpr std::size_t kKPair = 2;

enum class SimdLevel {
  kScalar = 0,  ///< portable `#pragma omp simd` fallback
  kAvx2 = 1,    ///< AVX2 + FMA intrinsics
};

/// Best level this host supports (detected once, cached).
SimdLevel detected_simd_level() noexcept;

/// Level the kernels currently dispatch to (defaults to detected).
SimdLevel active_simd_level() noexcept;

/// Forces dispatch to `level` (clamped to detected_simd_level()); used
/// by tests and the scalar-vs-SIMD ablation.  Returns the level now
/// active.
SimdLevel set_simd_level(SimdLevel level) noexcept;

inline const char* simd_level_name(SimdLevel level) noexcept {
  return level == SimdLevel::kAvx2 ? "avx2" : "scalar";
}

/// True when this process may run AMX-INT8 tile instructions: the CPU
/// has AMX-TILE, AMX-INT8, AVX512-BW and AVX512-VBMI2 (the int8 gather),
/// and the kernel granted the XTILEDATA state permission
/// (arch_prctl(ARCH_REQ_XCOMP_PERM)), without which the first tile
/// instruction raises SIGILL.  Probed once per process, then cached.
/// Independent of set_simd_level(): callers gate on both.
bool amx_int8_available() noexcept;

// ------------------------------------------------------------- kernels

/// fp32 inner kernel: C(rows x cols) += A_panel^T * B_panel.
/// `a_panel` is kc x kMr (layout above, rows beyond `rows` zero),
/// `b_panel` is kc x kNr (cols beyond `cols` zero), `c` is row-major
/// with leading dimension `ldc`; only the rows x cols corner is
/// touched.  rows <= kMr, cols <= kNr.
void micro_kernel_f32(std::size_t kc, const float* a_panel,
                      const float* b_panel, float* c, std::size_t ldc,
                      std::size_t rows, std::size_t cols);

/// int8 inner kernel with int32 accumulation and fused dequant:
/// C(rows x cols) += scale * (A_panel^T * B_panel).  Panels use the
/// int8 layouts above (kc zero-padded to even).  The full K extent is
/// expected in one call (int8 panels are small enough to stay cache
/// resident), so the int32 accumulators live entirely in registers and
/// quantisation scaling happens exactly once per output element.
void micro_kernel_i8(std::size_t kc, const std::int8_t* a_panel,
                     const std::int8_t* b_panel, float scale, float* c,
                     std::size_t ldc, std::size_t rows, std::size_t cols);

// ------------------------------------------------------- panel packing

/// Rounds kc up to the int8 K-pair granularity.
inline constexpr std::size_t round_up_pair(std::size_t kc) noexcept {
  return (kc + (kKPair - 1)) & ~(kKPair - 1);
}

/// Packs one kNr-wide strip of B: out[kk*kNr + j] = b[kk*ldb + j] for
/// j < cols, zero beyond.
void pack_b_panel_f32(const float* b, std::size_t ldb, std::size_t kc,
                      std::size_t cols, float* out);

/// int8 strip, K-pair interleaved (layout above), kc padded to even.
void pack_b_panel_i8(const std::int8_t* b, std::size_t ldb, std::size_t kc,
                     std::size_t cols, std::int8_t* out);

/// Packs an fp32 A micro-panel: out[kk*kMr + r] = alpha * A(row0 + r,
/// k0 + kk) for r < rows, zero-padded to kMr; optionally rounds values
/// through binary16 first (tensor-core input numerics).
void pack_a_panel_f32(const float* a, std::size_t lda, std::size_t rows,
                      std::size_t kc, float alpha, bool fp16_inputs,
                      float* out);

/// Gathering variant for the masked (TW) paths: column kk of the panel
/// reads A column col_idx[kk] — the packing step that restores
/// coalesced access (paper Fig. 7-2).
void pack_a_panel_gather_f32(const float* a, std::size_t lda,
                             std::size_t rows, const std::int32_t* col_idx,
                             std::size_t kc, float alpha, bool fp16_inputs,
                             float* out);

/// Transposed activation pack for the panel SpMM path:
/// out[kk*kNr + r] = A(row0 + r, kk) for r < rows (zero beyond), so the
/// sparse row-broadcast kernel reads one contiguous kNr-lane vector of
/// activations per sparse weight row.
void pack_at_panel_f32(const float* a, std::size_t lda, std::size_t rows,
                       std::size_t kc, float* out);

/// Sparse row-broadcast strip kernel for panel SpMM.  `a_panel` is the
/// transposed activation panel above (one kNr lane vector per weight
/// row); `frag` holds the strip's C fragment transposed, kNr lanes per
/// local output column.  For each listed weight row i (global row
/// row_idx[i]) and each of its nonzeros p in [row_ptr[i], row_ptr[i+1])
/// with strip-local column col[p] and value val[p]:
///   frag[col[p]*kNr + r] += val[p] * a_panel[row_idx[i]*kNr + r]
/// Work is proportional to nnz — no dense K loop — while every FMA is
/// a full-width vector op on the activation lanes.
void spmm_strip_f32(const float* a_panel, const std::int32_t* row_idx,
                    const std::int64_t* row_ptr, std::size_t nrows,
                    const std::int32_t* col, const float* val, float* frag);

/// Gathered int8 A micro-panel (column kk reads A column col_idx[kk]),
/// kc padded to even.
void pack_a_panel_gather_i8(const std::int8_t* a, std::size_t lda,
                            std::size_t rows, const std::int32_t* col_idx,
                            std::size_t kc, std::int8_t* out);

// ------------------------------------------------------ thread scratch

/// Per-thread packing scratch.  GEMM outer loops run under
/// `omp parallel for`; allocating panels inside the loop body puts a
/// heap allocation on every row block (the seed kernel's a_panel bug).
/// Each worker instead reuses these buffers across blocks and across
/// GEMM calls; resize() is a no-op once the high-water mark is reached.
/// Under TILESPARSE_ENABLE_GUARDS each buffer carries front/back
/// canaries (verified on resize and release) and fresh float growth is
/// NaN-poisoned, so a kernel that reads or writes outside its packed
/// panel fails loudly (util/guards.hpp).
struct GemmScratch {
  GuardedVec<float> a_f32;        ///< packed A micro-panels
  GuardedVec<float> b_f32;        ///< packed B panels
  GuardedVec<float> acc_f32;      ///< dense accumulator before scatter
  GuardedVec<std::int8_t> a_i8;   ///< packed int8 A micro-panels
  GuardedVec<std::int8_t> b_i8;   ///< packed int8 B panels
};

/// The calling thread's scratch (thread_local storage).
GemmScratch& thread_gemm_scratch();

}  // namespace tilesparse
