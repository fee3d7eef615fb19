// Extension bench: TW + INT8 quantization (the paper's stated future
// work, Sec. VIII).  Measures on the CPU substrate:
//  * numerical error of int8 TW execution vs fp32 and fp16 TW,
//  * measured kernel time, on the int8 unit it prints (AMX-INT8 tiles,
//    AVX2 or scalar; int8 arithmetic is narrower, and on a matrix unit
//    it multiplies peak throughput on top of the sparsity win),
//  * measured time of per-row activation quantisation (quantize_rows,
//    which every int8 GEMM runs on its A) at each SIMD level,
// and reports the projected energy per inference from the device model.

#include <cstdio>

#include "bench_util.hpp"
#include "exec/backend_registry.hpp"
#include "gemm/dense_gemm.hpp"
#include "gemm/micro_kernel.hpp"
#include "quant/quant_gemm.hpp"
#include "quant/quantize.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

using namespace tilesparse;
using namespace tilesparse::bench;

int main(int argc, char** argv) {
  const std::string json_path = take_json_flag(argc, argv);
  BenchJson sink;
  std::puts("== Extension: TW x INT8 quantization ==\n");
  std::printf("int8 unit: %s\n\n", quant_tw_unit());
  Rng rng(3);
  const std::size_t m = 256, k = 768, n = 768;
  MatrixF a(m, k);
  fill_normal(a, rng, 0.0f, 0.5f);
  MatrixF w(k, n);
  fill_normal(w, rng, 0.0f, 0.5f);

  Table table("TW GEMM numerics and measured CPU time per sparsity");
  table.set_header({"sparsity", "fp16 max err", "int8 max err",
                    "fp32 time (ms)", "int8 time (ms)"});
  for (double s : {0.0, 0.5, 0.75, 0.9}) {
    const TilePattern p =
        tw_pattern_from_scores(synthetic_scores(k, n, 17), s, 128);
    MatrixF pruned = w;
    apply_pattern(p, pruned);

    // One artifact, three execution modes: the "tw" backend under fp32
    // and fp16 activation numerics, and the "tw-int8" backend.
    PackOptions pack;
    pack.pattern = &p;
    const auto tw = make_packed("tw", pruned, pack);
    const auto tw_int8 = make_packed("tw-int8", pruned, pack);

    ExecContext fp32_ctx, fp16_ctx;
    fp16_ctx.numerics = Numerics::kFp16;

    const MatrixF c_fp32 = tw->matmul(fp32_ctx, a);
    const MatrixF c_fp16 = tw->matmul(fp16_ctx, a);
    const MatrixF c_int8 = tw_int8->matmul(fp32_ctx, a);

    MatrixF c(m, n);
    const double t_fp32 = time_best_of([&] { tw->matmul(fp32_ctx, a, c); });
    const double t_int8 = time_best_of([&] { tw_int8->matmul(fp32_ctx, a, c); });

    const char* fmt[] = {"tw", "tw-int8"};
    const PackedWeight* packed[] = {tw.get(), tw_int8.get()};
    const double times[] = {t_fp32, t_int8};
    for (int v = 0; v < 2; ++v) {
      BenchRecord record;
      record.name = std::string("quant_tw/") + fmt[v];
      record.format = fmt[v];
      record.m = m;
      record.k = k;
      record.n = n;
      record.sparsity = s;
      record.ns_per_iter = times[v] * 1e9;
      record.gflops = 2.0 * packed[v]->macs(m) / times[v] * 1e-9;
      sink.add(std::move(record));
    }

    table.add_row({format_double(s, 2),
                   format_double(max_abs_diff(c_fp32, c_fp16), 4),
                   format_double(max_abs_diff(c_fp32, c_int8), 4),
                   format_double(t_fp32 * 1e3, 3),
                   format_double(t_int8 * 1e3, 3)});
  }
  table.print();

  Table qtable("Per-row activation quantisation (quantize_rows), measured");
  qtable.set_header({"M x K", "level", "time (ms)", "GB/s read"});
  const SimdLevel saved = active_simd_level();
  std::vector<SimdLevel> levels{SimdLevel::kScalar};
  if (detected_simd_level() != SimdLevel::kScalar)
    levels.push_back(detected_simd_level());
  for (const std::size_t qk : {std::size_t{256}, std::size_t{1024}}) {
    MatrixF x(m, qk);
    fill_normal(x, rng, 0.0f, 0.5f);
    for (const SimdLevel level : levels) {
      set_simd_level(level);
      const double t = time_best_of([&] { (void)quantize_rows(x); });
      BenchRecord record;
      record.name = std::string("quant_tw/quantize_rows/") +
                    simd_level_name(level);
      record.format = "quantize_rows";
      record.m = m;
      record.k = qk;
      record.ns_per_iter = t * 1e9;
      sink.add(std::move(record));
      qtable.add_row({std::to_string(m) + " x " + std::to_string(qk),
                      simd_level_name(level), format_double(t * 1e3, 3),
                      format_double(x.size() * sizeof(float) / t * 1e-9, 2)});
    }
  }
  set_simd_level(saved);
  std::puts("");
  qtable.print();

  std::puts("\nProjected V100 energy per BERT inference (device model):");
  const DeviceModel dev = DeviceModel::v100();
  const auto gemms = bert_base_gemms();
  double dense_energy = 0.0, tw_energy = 0.0;
  std::uint64_t seed = 3000;
  for (const auto& gemm : gemms) {
    dense_energy += dense_gemm_latency(dev, gemm.shape, Core::kTensor)
                        .energy_joules(dev, Core::kTensor);
    const TilePattern p = make_tw_pattern(gemm.shape, 0.75, 128, seed++);
    tw_energy += tw_gemm_latency(dev, gemm.shape.m, p)
                     .energy_joules(dev, Core::kTensor);
  }
  std::printf("  dense %.3f mJ | TW-75%% %.3f mJ | saving %.1f%%\n",
              dense_energy * 1e3, tw_energy * 1e3,
              100.0 * (1.0 - tw_energy / dense_energy));
  if (!json_path.empty() && !sink.write(json_path)) return 1;
  return 0;
}
