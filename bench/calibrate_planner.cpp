// calibrate_planner — measures the format planner's cost-model
// constants on THIS host instead of trusting the shipped guesses.
//
// The planner charges each format `macs * penalty + macs_per_byte *
// bytes`.  Here we time the real kernels behind each PackedWeight
// format at a reference shape, derive the penalties as throughput
// ratios against dense fp32, and write the result as a JSON artifact
// (default planner_calibration.json) that io/serialize's
// load_planner_calibration() installs process-wide.
//
// Usage: calibrate_planner [--out=<path>] [--m=<rows>] [--kn=<dim>]

#include <cstdio>
#include <ctime>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "exec/backend_registry.hpp"
#include "exec/planner.hpp"
#include "io/serialize.hpp"
#include "sparse/bsr.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

using namespace tilesparse;
using namespace tilesparse::bench;

namespace {

/// Effective MACs/s of one packed format: macs(m) / best-of wall time.
double measured_rate(const PackedWeight& packed, const MatrixF& a,
                     MatrixF& c) {
  const ExecContext ctx;
  const double t = time_best_of([&] { packed.matmul(ctx, a, c); }, 7);
  return packed.macs(a.rows()) / t;
}

std::string flag_value(int argc, char** argv, const char* name,
                       const std::string& fallback) {
  const std::size_t len = std::strlen(name);
  for (int i = 1; i < argc; ++i)
    if (std::strncmp(argv[i], name, len) == 0 && argv[i][len] == '=')
      return argv[i] + len + 1;
  return fallback;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path =
      flag_value(argc, argv, "--out", "planner_calibration.json");
  std::size_t m = 0, kn = 0;
  try {
    m = std::stoul(flag_value(argc, argv, "--m", "64"));  // planner default
    kn = std::stoul(flag_value(argc, argv, "--kn", "512"));
  } catch (const std::exception&) {
    m = 0;
  }
  if (m == 0 || kn == 0) {
    std::fprintf(stderr,
                 "usage: calibrate_planner [--out=<path>] [--m=<rows>] "
                 "[--kn=<dim>]  (--m/--kn take positive integers)\n");
    return 1;
  }

  std::printf("== Planner calibration (m=%zu, k=n=%zu) ==\n\n", m, kn);
  Rng rng(11);
  MatrixF a(m, kn);
  fill_normal(a, rng);
  MatrixF w(kn, kn);
  fill_normal(w, rng);
  MatrixF c(m, kn);

  // Dense fp32: the reference rate everything else is normalised to.
  const auto dense = make_packed("dense", w);
  const double dense_rate = measured_rate(*dense, a, c);

  // TW at moderate sparsity (the format's design point).
  const TilePattern pattern =
      tw_pattern_from_scores(synthetic_scores(kn, kn, 17), 0.5, 64);
  MatrixF pruned = w;
  apply_pattern(pattern, pruned);
  PackOptions pack;
  pack.pattern = &pattern;
  const auto tw = make_packed("tw", pruned, pack);
  const double tw_rate = measured_rate(*tw, a, c);

  // int8 TW on the same pattern.
  const auto tw_int8 = make_packed("tw-int8", pruned, pack);
  const double int8_rate = measured_rate(*tw_int8, a, c);

  // CSR at 75% unstructured sparsity (its claimed regime), through the
  // strip-panel SpMM the CsrWeight backend executes.
  MatrixF unstructured = w;
  for (float& v : unstructured.flat())
    if (rng.uniform() < 0.75f) v = 0.0f;
  const auto csr = make_packed("csr", unstructured);
  const double csr_rate = measured_rate(*csr, a, c);

  // BSR at 50% block sparsity (32x32 blocks): not a PackedWeight
  // backend, but the planner prices it for format comparisons.
  MatrixF blocky = w;
  {
    Rng block_rng(29);
    const std::size_t blk = 32;
    for (std::size_t br = 0; br < kn / blk; ++br)
      for (std::size_t bc = 0; bc < kn / blk; ++bc) {
        if (block_rng.uniform() >= 0.5) continue;
        for (std::size_t r = 0; r < blk; ++r)
          for (std::size_t col = 0; col < blk; ++col)
            blocky(br * blk + r, bc * blk + col) = 0.0f;
      }
  }
  const Bsr bsr = bsr_from_dense(blocky, 32);
  const double bsr_macs = static_cast<double>(m) *
                          static_cast<double>(bsr.stored_blocks()) * 32.0 *
                          32.0;
  const double bsr_time = time_best_of(
      [&] {
        c.fill(0.0f);
        bsr_gemm_accumulate(a, bsr, c);
      },
      7);
  const double bsr_rate = bsr_macs / bsr_time;

  PlannerCalibration calib;
  calib.csr_mac_penalty = dense_rate / csr_rate;
  calib.tw_mac_penalty = dense_rate / tw_rate;
  calib.bsr_mac_penalty = dense_rate / bsr_rate;
  calib.int8_mac_discount = dense_rate / int8_rate;
  calib.dense_gflops = 2.0 * dense_rate * 1e-9;

  // Shard overhead: time the wide dense matmul whole vs split into 4
  // row shards run back-to-back, each writing its rows of C in place
  // through row views (the scheduler's shard unit, with zero overlap);
  // the per-shard surcharge prices shard dispatch for the scheduler.
  {
    constexpr std::size_t kShards = 4;
    const ExecContext shard_ctx;
    const double t_whole =
        time_best_of([&] { dense->matmul(shard_ctx, a, c); }, 7);
    const double t_shards = time_best_of(
        [&] {
          for (std::size_t s = 0; s < kShards; ++s) {
            const std::size_t r0 = s * m / kShards, r1 = (s + 1) * m / kShards;
            MatrixF rows = c.row_view(r0, r1);
            dense->matmul(shard_ctx, a.row_view(r0, r1), rows);
          }
        },
        7);
    calib.shard_overhead_us =
        std::max(1.0, (t_shards - t_whole) / kShards * 1e6);
  }

  // Weight-traffic term: at m=1 a dense matmul is memory bound, so its
  // cost over and above its MACs prices the packed bytes.
  MatrixF a1(1, kn), c1(1, kn);
  fill_normal(a1, rng);
  const ExecContext ctx;
  const double t1 = time_best_of([&] { dense->matmul(ctx, a1, c1); }, 7);
  const double mac_equiv = t1 * dense_rate - static_cast<double>(kn) *
                                                 static_cast<double>(kn);
  calib.macs_per_byte =
      std::max(0.25, mac_equiv / static_cast<double>(dense->bytes()));

  const std::time_t now = std::time(nullptr);
  char stamp[32] = "?";
  std::strftime(stamp, sizeof(stamp), "%Y-%m-%d", std::localtime(&now));
  calib.source = std::string("calibrate_planner m=") + std::to_string(m) +
                 " kn=" + std::to_string(kn) + " " + stamp;

  const PlannerCalibration defaults;
  Table table("Measured planner constants vs shipped defaults");
  table.set_header({"constant", "default", "measured"});
  table.add_row({"csr_mac_penalty", format_double(defaults.csr_mac_penalty, 2),
                 format_double(calib.csr_mac_penalty, 2)});
  table.add_row({"tw_mac_penalty", format_double(defaults.tw_mac_penalty, 2),
                 format_double(calib.tw_mac_penalty, 2)});
  table.add_row({"bsr_mac_penalty", format_double(defaults.bsr_mac_penalty, 2),
                 format_double(calib.bsr_mac_penalty, 2)});
  table.add_row({"shard_overhead_us",
                 format_double(defaults.shard_overhead_us, 2),
                 format_double(calib.shard_overhead_us, 2)});
  table.add_row({"int8_mac_discount",
                 format_double(defaults.int8_mac_discount, 2),
                 format_double(calib.int8_mac_discount, 2)});
  table.add_row({"macs_per_byte", format_double(defaults.macs_per_byte, 2),
                 format_double(calib.macs_per_byte, 2)});
  table.add_row({"dense GFLOP/s", "-", format_double(calib.dense_gflops, 2)});
  table.print();

  // Show what the measurement changes: format ranking for the pruned
  // reference matrix under default vs measured constants.
  PlannerOptions options;
  options.m = m;
  options.allow_int8 = true;
  const auto before = rank_formats(pruned, &pattern, options);
  options.calibration = &calib;
  const auto after = rank_formats(pruned, &pattern, options);
  std::printf("\nranking (default):  ");
  for (const auto& choice : before) std::printf("%s ", choice.format.c_str());
  std::printf("\nranking (measured): ");
  for (const auto& choice : after) std::printf("%s ", choice.format.c_str());
  std::printf("\n\n");

  save_calibration(out_path, calib);
  set_planner_calibration(calib);
  std::printf("wrote %s (load with load_planner_calibration())\n",
              out_path.c_str());
  return 0;
}
