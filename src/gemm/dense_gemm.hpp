#pragma once
// Blocked, multithreaded dense GEMM — the CPU stand-in for the GPU's
// dense GEMM pipeline (cuBLAS / CUTLASS on tensor cores).
//
// The kernel mirrors the three-level tiling CUTLASS uses (paper Sec. VI):
//   * outer M/N blocking  -> "thread block tile" (one per pool worker/SM)
//   * K blocking          -> "warp tile" panel resident in L1/L2
//   * 6x16 register tile  -> "thread fragment" kept in registers
//     (the shared SIMD core in gemm/micro_kernel.hpp, AVX2/FMA with a
//     portable fallback — the same inner kernel the masked TW/TEW and
//     int8 paths execute)
//
// Output row-blocks are annotated with `#pragma omp parallel for`,
// matching the one-output-tile-per-SM mapping the paper builds its
// sparsity on.  The pragmas are only live when the build enables OpenMP
// (the top-level CMakeLists links OpenMP::OpenMP_CXX when found); in a
// non-OpenMP build the kernel runs the same blocked loop serially.
//
// Callers above the kernel layer should not use this header directly:
// the exec/ subsystem (PackedWeight / ExecContext) wraps it with unified
// alpha/beta + numerics handling shared by all weight formats.

#include <cstddef>

#include "tensor/matrix.hpp"

namespace tilesparse {

struct GemmConfig {
  std::size_t mc = 64;   ///< rows of A packed per panel
  std::size_t kc = 256;  ///< K-extent of a panel
  bool fp16_inputs = false;  ///< round A inputs through binary16 (tensor-core numerics)
};

/// B pre-packed into the micro-kernel's per-(K-block, strip) panel
/// layout.  B is typically a static weight matrix: pack it once at
/// weight-pack time (DenseWeight does) and the repack pass — which at
/// small batch costs as much as the compute — drops out of every
/// matmul call.  Panels are independent of alpha/beta/fp16 (only A is
/// rounded), so one PackedDenseB serves every ExecContext.  MatrixF
/// storage is 64-byte aligned, so every kNr-float panel row is one
/// cache line; column ranges read these panels in place.
struct PackedDenseB {
  MatrixF panels;  ///< k x round_up(n, kNr) floats, in panel order
  std::size_t k = 0;   ///< B rows
  std::size_t n = 0;   ///< B cols
  std::size_t kc = 0;  ///< K-extent each block was packed with
};

/// Packs B(KxN) for dense_gemm with the given K blocking.
PackedDenseB pack_dense_b(const MatrixF& b, const GemmConfig& config = {});

/// C = alpha * A(MxK) * B(KxN) + beta * C.  C must be MxN.
void dense_gemm(const MatrixF& a, const MatrixF& b, MatrixF& c,
                float alpha = 1.0f, float beta = 0.0f,
                const GemmConfig& config = {});

/// Same, with B already packed (config.kc is ignored; the panels' own
/// blocking is used).  C may hold a column range of the product: it is
/// M x c.cols() and receives columns [n0, n0 + c.cols()) of A * B, each
/// accumulated exactly as the whole product accumulates it.
void dense_gemm(const MatrixF& a, const PackedDenseB& b, MatrixF& c,
                float alpha = 1.0f, float beta = 0.0f,
                const GemmConfig& config = {}, std::size_t n0 = 0);

/// Convenience allocating wrapper: returns A*B.
MatrixF matmul(const MatrixF& a, const MatrixF& b, const GemmConfig& config = {});

/// Floating-point operation count of an MxNxK GEMM (2*M*N*K).
constexpr double gemm_flops(std::size_t m, std::size_t n, std::size_t k) noexcept {
  return 2.0 * static_cast<double>(m) * static_cast<double>(n) *
         static_cast<double>(k);
}

}  // namespace tilesparse
