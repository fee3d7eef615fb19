#pragma once
// Test helpers for code that dispatches on active_simd_level(): run a
// scope at a chosen level, and list the levels this host can run.

#include <vector>

#include "gemm/micro_kernel.hpp"

namespace tilesparse {

/// Restores the previous dispatch level on scope exit.
class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(SimdLevel level) : saved_(active_simd_level()) {
    set_simd_level(level);
  }
  ~ScopedSimdLevel() { set_simd_level(saved_); }
  ScopedSimdLevel(const ScopedSimdLevel&) = delete;
  ScopedSimdLevel& operator=(const ScopedSimdLevel&) = delete;

 private:
  SimdLevel saved_;
};

/// kScalar, then the detected level when it is not kScalar.
inline std::vector<SimdLevel> testable_simd_levels() {
  std::vector<SimdLevel> levels{SimdLevel::kScalar};
  if (detected_simd_level() != SimdLevel::kScalar)
    levels.push_back(detected_simd_level());
  return levels;
}

}  // namespace tilesparse
