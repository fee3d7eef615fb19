// Serialize bench: artifact load time vs re-pack time per PackedWeight
// format — the number that justifies shipping whole packed objects.  A
// serving process that re-packs (and for int8, re-quantises) a weight
// it already packed at training time pays the "pack" column on every
// cold start; loading the artifact pays the "load" column instead.
//
// A second table compares the two *file* load paths the runtime offers.
// Both run the same parser over an aligned image of the file: stream
// loads read the file into one private buffer first, mmap loads parse
// the page cache in place, so they are faster AND add almost no
// process-private RSS (the mapping is shared with every other process
// serving the same artifact — see examples/shared_weights).
//
// Usage: serialize [--k=3072] [--n=768] [--layers=4] [--sparsity=75]
//                  [--json=<path>]
// (--sparsity is an integer percent)

#include <malloc.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "exec/backend_registry.hpp"
#include "io/serialize.hpp"
#include "prune/importance.hpp"
#include "prune/tw_pruner.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

using namespace tilesparse;

namespace {

using LoadFn = std::vector<NamedWeight> (*)(const std::string&);

/// VmRSS growth across one load of `path`, measured in a freshly forked
/// child while the loaded weights are held.  In this process the delta
/// reads ~0: the allocator hands the load heap pages that packing
/// freed but kept resident.  The child first returns those free pages
/// to the kernel (malloc_trim), so every page the load touches counts.
std::size_t load_rss_delta_kb(LoadFn load, const std::string& path) {
  int report[2];
  if (pipe(report) != 0) std::abort();
  const pid_t pid = fork();
  if (pid < 0) std::abort();
  if (pid == 0) {
    close(report[0]);
    malloc_trim(0);
    const std::size_t before = process_rss_kb();
    const auto held = load(path);
    const std::size_t after = process_rss_kb();
    const std::size_t delta = after > before ? after - before : 0;
    const bool sent = write(report[1], &delta, sizeof(delta)) ==
                      static_cast<ssize_t>(sizeof(delta));
    _exit(sent ? 0 : 1);
  }
  close(report[1]);
  std::size_t delta = 0;
  const bool got = read(report[0], &delta, sizeof(delta)) ==
                   static_cast<ssize_t>(sizeof(delta));
  close(report[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (!got || !WIFEXITED(status) || WEXITSTATUS(status) != 0) std::abort();
  return delta;
}

}  // namespace

int main(int argc, char** argv) {
  using tilesparse::bench::size_flag;
  const std::string json_path = tilesparse::bench::take_json_flag(argc, argv);
  const std::size_t k = size_flag(argc, argv, "k", 3072);
  const std::size_t n = size_flag(argc, argv, "n", 768);
  const std::size_t layers = size_flag(argc, argv, "layers", 4);
  const double sparsity =
      static_cast<double>(size_flag(argc, argv, "sparsity", 75)) / 100.0;

  // One BERT-ish FFN weight per layer, pruned once (training-time cost,
  // not measured here) — the bench compares what happens after.
  Rng rng(17);
  std::vector<MatrixF> weights;
  std::vector<TilePattern> patterns;
  std::vector<MatrixF> scores;
  for (std::size_t i = 0; i < layers; ++i) {
    MatrixF w(k, n);
    fill_normal(w, rng);
    TwPruneOptions options;
    options.target_sparsity = sparsity;
    options.g = 64;
    patterns.push_back(tw_prune_single(w, options));
    scores.push_back(magnitude_scores(w));
    weights.push_back(std::move(w));
  }

  std::printf("serialize bench: %zu layers of %zu x %zu, %.0f%% target TW "
              "sparsity\n\n",
              layers, k, n, 100.0 * sparsity);

  Table table("artifact load vs re-pack (" + std::to_string(layers) +
              " layers, ms)");
  table.set_header({"format", "artifact KiB", "pack ms", "save ms", "load ms",
                    "pack/load"});

  for (const std::string& format : registered_formats()) {
    const auto pack_all = [&] {
      std::vector<std::unique_ptr<PackedWeight>> packed;
      for (std::size_t i = 0; i < layers; ++i) {
        PackOptions options;
        options.pattern = &patterns[i];
        options.scores = &scores[i];
        packed.push_back(make_packed(format, weights[i], options));
      }
      return packed;
    };
    const double pack_s = time_best_of([&] { pack_all(); }, 3);

    std::vector<std::pair<std::string, const PackedWeight*>> entries;
    const auto packed = pack_all();
    for (std::size_t i = 0; i < layers; ++i)
      entries.emplace_back("layer." + std::to_string(i), packed[i].get());

    std::string artifact;
    const double save_s = time_best_of(
        [&] {
          std::ostringstream out;
          write_model_weights(out, entries);
          artifact = out.str();
        },
        3);

    const double load_s = time_best_of(
        [&] {
          std::istringstream in(artifact);
          const auto loaded = read_model_weights(in);
          if (loaded.size() != layers) std::abort();
        },
        3);

    table.add_row({format, std::to_string(artifact.size() / 1024),
                   format_double(pack_s * 1e3, 2),
                   format_double(save_s * 1e3, 2),
                   format_double(load_s * 1e3, 2),
                   format_double(pack_s / load_s, 1)});
  }

  table.print();
  std::printf("\n");

  // ---- file artifacts: stream load (private image) vs mmap load
  // (zero-copy).
  //
  // One on-disk artifact per format; load latency is best-of-3 and the
  // RSS delta is taken across a single load in a forked child
  // (load_rss_delta_kb).  Read the RSS columns carefully: the stream
  // delta is private heap, while the mmap delta is shared page cache —
  // counted in VmRSS once validation touches the pages, but reclaimable
  // under pressure and shared with every other process mapping the
  // same artifact (examples/shared_weights measures the per-process
  // Pss, which is what multi-process serving pays).
  const char* tmpdir = std::getenv("TMPDIR");
  const std::string artifact_path =
      std::string(tmpdir && *tmpdir ? tmpdir : "/tmp") +
      "/tilesparse_bench_serialize_" + std::to_string(getpid()) + ".bin";

  tilesparse::bench::BenchJson json;
  Table load_table("file artifact: stream vs mmap load (" +
                   std::to_string(layers) + " layers)");
  load_table.set_header(
      {"format", "file KiB", "stream ms", "mmap ms", "speedup",
       "stream +KiB (private)", "mmap +KiB (shared)"});

  for (const std::string& format : registered_formats()) {
    std::vector<std::unique_ptr<PackedWeight>> packed;
    std::vector<std::pair<std::string, const PackedWeight*>> entries;
    for (std::size_t i = 0; i < layers; ++i) {
      PackOptions options;
      options.pattern = &patterns[i];
      options.scores = &scores[i];
      packed.push_back(make_packed(format, weights[i], options));
      entries.emplace_back("layer." + std::to_string(i), packed.back().get());
    }
    save_model_weights(artifact_path, entries);
    const std::size_t file_bytes = [&] {
      std::ifstream in(artifact_path, std::ios::binary | std::ios::ate);
      return static_cast<std::size_t>(in.tellg());
    }();

    struct LoadPath {
      const char* label;
      LoadFn load;
    };
    const LoadPath paths[] = {
        {"stream", &load_model_weights},
        {"mmap", &load_model_weights_mapped},
    };
    double load_ms[2] = {0.0, 0.0};
    std::size_t rss_delta_kb[2] = {0, 0};
    for (int p = 0; p < 2; ++p) {
      rss_delta_kb[p] = load_rss_delta_kb(paths[p].load, artifact_path);
      load_ms[p] = 1e3 * time_best_of(
                             [&] {
                               const auto loaded =
                                   paths[p].load(artifact_path);
                               if (loaded.size() != layers) std::abort();
                             },
                             3);

      tilesparse::bench::BenchRecord record;
      record.name = "serialize/" + format + "/" + paths[p].label;
      record.format = format;
      record.k = k;
      record.n = n;
      record.load_ms = load_ms[p];
      record.rss_kb = static_cast<std::int64_t>(rss_delta_kb[p]);
      record.file_bytes = static_cast<std::int64_t>(file_bytes);
      json.add(std::move(record));
    }

    load_table.add_row({format, std::to_string(file_bytes / 1024),
                        format_double(load_ms[0], 2),
                        format_double(load_ms[1], 2),
                        format_double(load_ms[0] / load_ms[1], 1),
                        std::to_string(rss_delta_kb[0]),
                        std::to_string(rss_delta_kb[1])});
  }
  std::remove(artifact_path.c_str());

  load_table.print();
  if (!json_path.empty() && !json.write(json_path)) return 1;
  return 0;
}
