#pragma once
// PlannerCalibration — measured cost-model constants for the format
// planner.
//
// The planner charges each candidate format a MAC count scaled by a
// per-format efficiency factor plus a weight-traffic term.  The seed
// shipped those factors as hard-coded guesses (CSR gather 8x, int8
// 0.5x); this struct makes them data, populated on a given host by the
// `calibrate_planner` bench tool (which times the real kernels and
// writes the result as JSON via io/serialize).  A process-wide default
// is installed with set_planner_calibration(); rank_formats() consults
// it unless the caller passes an explicit override.

#include <string>
#include <string_view>

namespace tilesparse {

struct PlannerCalibration {
  /// Cost of one CSR MAC relative to one dense-panel fp32 MAC.  The
  /// seed's scalar gather/scatter kernel ran ~14x off dense; the panel
  /// SpMM (strip fragments + vector row broadcast) brings the default
  /// down to ~2.5 (measured ratio on the reference host).
  double csr_mac_penalty = 2.5;
  /// Cost of one TW masked-panel MAC relative to dense.  ~1 by design
  /// (TW keeps the dense substrate), but measured on this host it also
  /// absorbs pack/scatter overhead.
  double tw_mac_penalty = 1.0;
  /// Cost of one BSR MAC relative to dense (stored-block micro-GEMMs;
  /// > 1 because blocks bound the K-reuse per panel pack).
  double bsr_mac_penalty = 1.5;
  /// Cost of one int8 MAC relative to one fp32 MAC (narrower
  /// arithmetic; < 1 when the int8 kernel outruns fp32).
  double int8_mac_discount = 0.5;
  /// Weight-traffic term: MAC-equivalents charged per packed byte, so
  /// the memory footprint breaks ties when the batch is small.
  double macs_per_byte = 4.0;
  /// Fixed cost (microseconds) of dispatching one extra row shard:
  /// stream handoff and the per-call kernel setup a shard repeats.  The
  /// scheduler's shard sizing charges this against the per-shard
  /// speedup ("tile-shard" entry of the calibration artifact).
  double shard_overhead_us = 20.0;
  /// Measured dense fp32 rate (GFLOP/s) the ratios were derived from;
  /// 0 means the constants are the uncalibrated defaults.
  double dense_gflops = 0.0;
  /// Free-form provenance tag ("hostname, date, shape") written by the
  /// calibration tool.
  std::string source;

  bool measured() const noexcept { return dense_gflops > 0.0; }

  /// Relative cost of one MAC in `format` ("dense", "tw", "tew", "csr",
  /// "bsr", "tw-int8") vs a dense fp32 MAC; unknown formats price as
  /// dense.  Used by the planner's ranking and the scheduler's shard
  /// sizing.
  double mac_penalty(std::string_view format) const noexcept;
};

/// Process-wide calibration the planner uses by default.  On first use
/// it auto-loads a host artifact: the file named by the
/// TS_PLANNER_CALIBRATION environment variable, else
/// "planner_calibration.json" in the working directory (where
/// calibrate_planner writes it); any failure silently falls back to
/// the uncalibrated constants above.
const PlannerCalibration& planner_calibration() noexcept;

/// Installs `calibration` as the process-wide default.  Thread-
/// compatible: expected at startup, before concurrent planning begins.
void set_planner_calibration(const PlannerCalibration& calibration);

}  // namespace tilesparse
