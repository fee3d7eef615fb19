// Measured (not modelled) kernels on the CPU substrate under
// google-benchmark: dense GEMM, TW masked GEMM at several sparsities
// (gather vs packed variants — the coalescing ablation), CSR SpMM and
// BSR GEMM.  Sanity anchor for the analytical model: TW time must fall
// with sparsity because work is actually skipped.
//
// Shapes run at BERT-mini Linear (128x256x256) and BERT-base-ish
// (256x768x768).  Pass --json=<path> (conventionally BENCH_gemm.json)
// to also dump {name, format, shape, GFLOP/s, ns/iter} records — the
// perf trajectory future PRs diff against.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/tile_exec.hpp"
#include "exec/backend_registry.hpp"
#include "gemm/dense_gemm.hpp"
#include "gemm/masked_gemm.hpp"
#include "prune/tw_pruner.hpp"
#include "sparse/bsr.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace {

using namespace tilesparse;

MatrixF random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Rng rng(seed);
  MatrixF m(rows, cols);
  fill_normal(m, rng);
  return m;
}

TilePattern pattern_at(std::size_t k, std::size_t n, double sparsity) {
  Rng rng(3);
  MatrixF scores(k, n);
  fill_uniform(scores, rng, 0.01f, 1.0f);
  return tw_pattern_from_scores(scores, sparsity, 128);
}

void set_shape_counters(benchmark::State& state, std::size_t m, std::size_t k,
                        std::size_t n, double flops_per_iter) {
  state.counters["m"] = static_cast<double>(m);
  state.counters["k"] = static_cast<double>(k);
  state.counters["n"] = static_cast<double>(n);
  state.counters["flops_per_iter"] = flops_per_iter;
}

void BM_DenseGemm(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto k = static_cast<std::size_t>(state.range(1));
  const auto n = static_cast<std::size_t>(state.range(2));
  const MatrixF a = random_matrix(m, k, 1);
  const MatrixF w = random_matrix(k, n, 2);
  MatrixF c(m, n);
  for (auto _ : state) {
    dense_gemm(a, w, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations());
  set_shape_counters(state, m, k, n, gemm_flops(m, n, k));
}
BENCHMARK(BM_DenseGemm)->Args({128, 256, 256})->Args({256, 768, 768});

void BM_TwMaskedGemm(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto k = static_cast<std::size_t>(state.range(1));
  const auto n = static_cast<std::size_t>(state.range(2));
  const double sparsity = static_cast<double>(state.range(3)) / 100.0;
  const MatrixF a = random_matrix(m, k, 1);
  MatrixF w = random_matrix(k, n, 2);
  const TilePattern pattern = pattern_at(k, n, sparsity);
  apply_pattern(pattern, w);
  PackOptions pack;
  pack.pattern = &pattern;
  const auto tw = make_packed("tw", w, pack);
  const ExecContext ctx;
  MatrixF c(m, n);
  for (auto _ : state) {
    tw->matmul(ctx, a, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["sparsity"] = sparsity;
  set_shape_counters(state, m, k, n, 2.0 * tw->macs(m));
}
BENCHMARK(BM_TwMaskedGemm)
    ->Args({256, 768, 768, 0})
    ->Args({256, 768, 768, 25})
    ->Args({256, 768, 768, 50})
    ->Args({256, 768, 768, 75})
    ->Args({256, 768, 768, 90})
    ->Args({256, 768, 768, 99});

void BM_TwPrepackedPanels(benchmark::State& state) {
  // Replaces the old tw-gather row (the uncoalesced fallback that ran
  // at ~13 GFLOP/s): tile B panels are now pre-packed once at pack
  // time, so the steady-state matmul pays zero per-call weight packing.
  // Deliberately below the PackedWeight API to time exactly the kernel
  // the "tw" backend executes.
  constexpr std::size_t m = 256, k = 768, n = 768;
  const MatrixF a = random_matrix(m, k, 1);
  const MatrixF w = random_matrix(k, n, 2);
  const auto tiles = compact_tiles(w, pattern_at(k, n, 0.75));
  const auto panels = prepack_all_tile_panels(tiles);
  MatrixF c(m, n);
  double macs = 0.0;
  for (const auto& tile : tiles)
    macs += static_cast<double>(m) * static_cast<double>(tile.kept_rows.size()) *
            static_cast<double>(tile.out_cols.size());
  for (auto _ : state) {
    c.fill(0.0f);
    masked_gemm_all(a, tiles, panels, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["sparsity"] = 0.75;
  set_shape_counters(state, m, k, n, 2.0 * macs);
}
BENCHMARK(BM_TwPrepackedPanels);

void BM_CsrSpmm(benchmark::State& state) {
  constexpr std::size_t m = 256, k = 768, n = 768;
  const double sparsity = static_cast<double>(state.range(0)) / 100.0;
  Rng rng(4);
  const MatrixF a = random_matrix(m, k, 1);
  MatrixF w = random_matrix(k, n, 2);
  for (float& v : w.flat())
    if (rng.uniform() < sparsity) v = 0.0f;
  const auto csr = make_packed("csr", w);
  const ExecContext ctx;
  MatrixF c(m, n);
  for (auto _ : state) {
    csr->matmul(ctx, a, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["sparsity"] = sparsity;
  set_shape_counters(state, m, k, n, 2.0 * csr->macs(m));
}
BENCHMARK(BM_CsrSpmm)->Arg(75)->Arg(95);

void BM_BsrGemm(benchmark::State& state) {
  constexpr std::size_t m = 256, k = 768, n = 768;
  const double sparsity = static_cast<double>(state.range(0)) / 100.0;
  Rng rng(5);
  const MatrixF a = random_matrix(m, k, 1);
  MatrixF w = random_matrix(k, n, 2);
  // Block-sparse weights: zero whole 32x32 blocks.
  std::size_t live_blocks = 0;
  for (std::size_t br = 0; br < k / 32; ++br)
    for (std::size_t bc = 0; bc < n / 32; ++bc) {
      if (rng.uniform() < sparsity) {
        for (std::size_t r = 0; r < 32; ++r)
          for (std::size_t c = 0; c < 32; ++c) w(br * 32 + r, bc * 32 + c) = 0.0f;
      } else {
        ++live_blocks;
      }
    }
  const Bsr bsr = bsr_from_dense(w, 32);
  MatrixF c(m, n);
  for (auto _ : state) {
    c.fill(0.0f);
    bsr_gemm_accumulate(a, bsr, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["sparsity"] = sparsity;
  set_shape_counters(state, m, k, n,
                     2.0 * static_cast<double>(m) *
                         static_cast<double>(live_blocks) * 32.0 * 32.0);
}
BENCHMARK(BM_BsrGemm)->Arg(50)->Arg(75);

/// Console output as usual, plus one BenchRecord per run for --json.
class JsonCaptureReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonCaptureReporter(tilesparse::bench::BenchJson* sink)
      : sink_(sink) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      // Aggregate rows (_mean/_median/_stddev/_cv under --benchmark_
      // repetitions) are statistics over other rows, not measurements;
      // recording them would corrupt the cross-PR trajectory.
      if (run.run_type == Run::RT_Aggregate) continue;
      if (run.iterations <= 0) continue;
      tilesparse::bench::BenchRecord record;
      record.name = run.benchmark_name();
      record.format = format_of(record.name);
      const double seconds_per_iter =
          run.real_accumulated_time / static_cast<double>(run.iterations);
      record.ns_per_iter = seconds_per_iter * 1e9;
      record.m = counter_of(run, "m");
      record.k = counter_of(run, "k");
      record.n = counter_of(run, "n");
      const auto flops = run.counters.find("flops_per_iter");
      if (flops != run.counters.end() && seconds_per_iter > 0.0)
        record.gflops = flops->second.value / seconds_per_iter * 1e-9;
      const auto sparsity = run.counters.find("sparsity");
      if (sparsity != run.counters.end())
        record.sparsity = sparsity->second.value;
      sink_->add(std::move(record));
    }
  }

 private:
  static std::size_t counter_of(const Run& run, const char* key) {
    const auto it = run.counters.find(key);
    return it == run.counters.end()
               ? 0
               : static_cast<std::size_t>(it->second.value);
  }

  static std::string format_of(const std::string& name) {
    if (name.find("BM_DenseGemm") == 0) return "dense";
    if (name.find("BM_TwMaskedGemm") == 0) return "tw";
    if (name.find("BM_TwPrepackedPanels") == 0) return "tw-prepacked";
    if (name.find("BM_CsrSpmm") == 0) return "csr";
    if (name.find("BM_BsrGemm") == 0) return "bsr";
    return "?";
  }

  tilesparse::bench::BenchJson* sink_;
};

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = tilesparse::bench::take_json_flag(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  tilesparse::bench::BenchJson sink;
  JsonCaptureReporter reporter(&sink);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (!json_path.empty() && !sink.write(json_path)) return 1;
  return 0;
}
