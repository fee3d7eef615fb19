#include "exec/packed_weight.hpp"

#include <stdexcept>
#include <string>

#include "tensor/ops.hpp"
#include "util/fault_injection.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace tilesparse {
namespace {

/// Applies ctx.threads for the duration of one kernel launch (OpenMP
/// builds only; a no-op otherwise).
class ThreadScope {
 public:
  explicit ThreadScope(int threads) {
#ifdef _OPENMP
    if (threads > 0) {
      saved_ = omp_get_max_threads();
      omp_set_num_threads(threads);
    }
#else
    (void)threads;
#endif
  }
  ~ThreadScope() {
#ifdef _OPENMP
    if (saved_ > 0) omp_set_num_threads(saved_);
#endif
  }
  ThreadScope(const ThreadScope&) = delete;
  ThreadScope& operator=(const ThreadScope&) = delete;

 private:
  int saved_ = 0;
};

}  // namespace

void PackedWeight::save(std::ostream&) const {
  throw std::logic_error(std::string("PackedWeight::save: format '") +
                         std::string(format()) +
                         "' has no serializer (only the built-in formats "
                         "can be saved and loaded)");
}

void PackedWeight::matmul(const ExecContext& ctx, const MatrixF& a,
                          MatrixF& c) const {
  // Kernel-entry fault site: the one gate every GEMM kernel family runs
  // behind, and still outside the OpenMP regions so an injected
  // exception unwinds safely (see util/fault_injection.hpp).
  fault_point(FaultSite::kKernelEntry);
  if (a.cols() != k_) {
    throw std::invalid_argument("PackedWeight::matmul: A has " +
                                std::to_string(a.cols()) +
                                " cols, weight K = " + std::to_string(k_));
  }
  if (c.rows() != a.rows() || c.cols() != n_) {
    throw std::invalid_argument("PackedWeight::matmul: C must be " +
                                std::to_string(a.rows()) + " x " +
                                std::to_string(n_));
  }

  // Unified beta handling: the backends only accumulate.
  if (ctx.beta == 0.0f) {
    c.fill(0.0f);
  } else if (ctx.beta != 1.0f) {
    for (float& v : c.flat()) v *= ctx.beta;
  }
  if (ctx.alpha == 0.0f || a.rows() == 0 || k_ == 0 || n_ == 0) return;

  // Non-native fp16: round a copy of A through binary16 so every format
  // sees identical tensor-core activation numerics.
  const MatrixF* input = &a;
  MatrixF rounded;
  if (ctx.fp16() && !native_fp16()) {
    rounded = a;
    round_matrix_to_half(rounded);
    input = &rounded;
  }

  ThreadScope scope(ctx.threads);
  if (ctx.alpha == 1.0f) {
    accumulate(ctx, *input, c);
    return;
  }
  if (ctx.beta == 0.0f) {
    // C was just zeroed: accumulate then scale in place.
    accumulate(ctx, *input, c);
    for (float& v : c.flat()) v *= ctx.alpha;
    return;
  }
  // General case: accumulate into scratch, then C += alpha * scratch.
  MatrixF scratch(a.rows(), n_);
  accumulate(ctx, *input, scratch);
  for (std::size_t i = 0; i < c.size(); ++i)
    c.data()[i] += ctx.alpha * scratch.data()[i];
}

MatrixF PackedWeight::matmul(const ExecContext& ctx, const MatrixF& a) const {
  MatrixF c(a.rows(), n_);
  ExecContext overwrite = ctx;
  overwrite.beta = 0.0f;
  matmul(overwrite, a, c);
  return c;
}

}  // namespace tilesparse
