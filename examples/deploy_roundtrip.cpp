// Deployment round-trip: the training side prunes, packs and writes ONE
// format-tagged artifact holding every layer's complete PackedWeight —
// compacted tiles, CSR arrays, int8 tiles *with their scales*.  The
// inference side loads the artifact straight into execution backends
// (the stored format name picks each backend) and serves requests without
// re-pruning, re-packing or re-quantising anything.  This is the flow a
// production integration of TW would use: prune once, ship the packed
// bytes, serve forever.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <unistd.h>

#include "exec/backend_registry.hpp"
#include "gemm/dense_gemm.hpp"
#include "io/serialize.hpp"
#include "prune/importance.hpp"
#include "prune/tw_pruner.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/stopwatch.hpp"

using namespace tilesparse;

namespace {

/// Removes the artifact on every exit path.  CI runs examples in
/// parallel, so the path is unique per run (pid) and never left behind.
class ScopedArtifact {
 public:
  ScopedArtifact() {
    const char* tmpdir = std::getenv("TMPDIR");
    path_ = std::string(tmpdir && *tmpdir ? tmpdir : "/tmp") +
            "/tilesparse_deploy_" + std::to_string(getpid()) + ".bin";
  }
  ~ScopedArtifact() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace

int main() {
  const ScopedArtifact artifact;

  // The model: three GEMM layers served under different formats from
  // the same file — the paper's TW format, the TEW hybrid, and int8 TW.
  struct LayerSpec {
    const char* name;
    std::size_t k, n;
    const char* format;
  };
  const std::vector<LayerSpec> specs = {
      {"encoder.ffn_in.w", 512, 1024, "tw"},
      {"encoder.ffn_out.w", 1024, 512, "tew"},
      {"classifier.w", 512, 256, "tw-int8"},
  };

  // ---- "training side": prune, pack, export one artifact.
  {
    Rng rng(11);
    std::vector<std::unique_ptr<PackedWeight>> packed;
    std::vector<std::pair<std::string, const PackedWeight*>> entries;
    for (const LayerSpec& spec : specs) {
      MatrixF weights(spec.k, spec.n);
      fill_normal(weights, rng);
      TwPruneOptions options;
      options.target_sparsity = 0.8;
      options.g = 64;
      options.stages = 3;
      const TilePattern pattern = tw_prune_single(weights, options);
      // Pack from the unpruned weights: the TW-family factories gather
      // kept entries through the pattern, and "tew" restores its
      // element-wise remainder from the values the pattern pruned.
      const MatrixF scores = magnitude_scores(weights);

      PackOptions pack;
      pack.pattern = &pattern;
      pack.scores = &scores;
      packed.push_back(make_packed(spec.format, weights, pack));
      entries.emplace_back(spec.name, packed.back().get());
      std::printf("packed  %-20s %-8s %5.1f%% sparse %6zu KiB\n", spec.name,
                  spec.format, 100.0 * pattern.sparsity(),
                  packed.back()->bytes() / 1024);
    }
    save_model_weights(artifact.path(), entries);
    std::printf("exported %zu layers -> %s\n\n", entries.size(),
                artifact.path().c_str());
  }

  // ---- "inference side": the same artifact through both load paths —
  // stream (the file is read into one private aligned buffer) and mmap
  // (the file is mapped) — with load latency and the RSS cost of each
  // reported side by side.  Both parse the same image, and the backends
  // borrow bulk payloads from it.
  struct LoadPath {
    const char* label;
    std::vector<NamedWeight> (*load)(const std::string&);
  };
  const LoadPath paths[] = {
      {"stream", &load_model_weights},
      {"mmap", &load_model_weights_mapped},
  };
  for (const LoadPath& path : paths) {
    const std::size_t rss_before = process_rss_kb();
    Stopwatch timer;
    const std::vector<NamedWeight> layers = path.load(artifact.path());
    const double load_ms = timer.milliseconds();
    const std::size_t rss_after = process_rss_kb();
    std::printf("loaded   %zu layers via %-6s in %6.2f ms, RSS +%zu KiB%s\n",
                layers.size(), path.label, load_ms,
                rss_after > rss_before ? rss_after - rss_before : 0,
                layers.front().weight->borrows_storage()
                    ? " (weights borrow the artifact image)"
                    : "");

    Rng rng(12);
    const ExecContext ctx;
    for (const NamedWeight& layer : layers) {
      MatrixF activations(64, layer.weight->k());
      fill_normal(activations, rng);
      const MatrixF served = layer.weight->matmul(ctx, activations);
      // The packed representation is ground truth: serving must equal
      // dense execution of its own reconstruction.
      const MatrixF reference = matmul(activations, layer.weight->to_dense());
      const double norm =
          frobenius_norm(reference) / std::sqrt(reference.size());
      std::printf("served  %-20s %-8s %6zu KiB  max |diff| vs own dense "
                  "= %.4g (output norm %.2f)\n",
                  layer.name.c_str(),
                  std::string(layer.weight->format()).c_str(),
                  layer.weight->bytes() / 1024,
                  max_abs_diff(served, reference), norm);
      // fp32 formats serve exactly; int8 is bounded by the dynamic
      // activation-quantisation step (see the backend conformance suite).
      if (max_abs_diff(served, reference) > 0.15 * norm + 1e-4) {
        std::fprintf(stderr, "FAIL: served output diverged for %s\n",
                     layer.name.c_str());
        return 1;
      }
    }
    std::printf("\n");
  }
  return 0;
}
