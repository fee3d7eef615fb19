#include "exec/backend_registry.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <stdexcept>

#include "exec/csr_weight.hpp"
#include "exec/dense_weight.hpp"
#include "exec/quant_tw_weight.hpp"
#include "exec/tew_weight.hpp"
#include "exec/tw_weight.hpp"
#include "io/mmap_file.hpp"
#include "io/wire.hpp"
#include "prune/importance.hpp"

namespace tilesparse {
namespace {

const TilePattern& require_pattern(const char* format,
                                   const PackOptions& options) {
  if (!options.pattern) {
    throw std::invalid_argument(std::string(format) +
                                " packing requires PackOptions.pattern");
  }
  return *options.pattern;
}

std::map<std::string, BackendFactory>& registry() {
  static std::map<std::string, BackendFactory> backends = {
      {"dense",
       [](const MatrixF& w, const PackOptions&) -> std::unique_ptr<PackedWeight> {
         return std::make_unique<DenseWeight>(w);
       }},
      {"tw",
       [](const MatrixF& w,
          const PackOptions& o) -> std::unique_ptr<PackedWeight> {
         return std::make_unique<TwWeight>(w, require_pattern("tw", o));
       }},
      {"tew",
       [](const MatrixF& w,
          const PackOptions& o) -> std::unique_ptr<PackedWeight> {
         const TilePattern& pattern = require_pattern("tew", o);
         if (o.scores) {
           return std::make_unique<TewWeight>(w, pattern, *o.scores,
                                              o.tew_delta);
         }
         const MatrixF scores = magnitude_scores(w);
         return std::make_unique<TewWeight>(w, pattern, scores, o.tew_delta);
       }},
      {"csr",
       [](const MatrixF& w,
          const PackOptions& o) -> std::unique_ptr<PackedWeight> {
         return std::make_unique<CsrWeight>(w, o.csr_tol);
       }},
      {"tw-int8",
       [](const MatrixF& w,
          const PackOptions& o) -> std::unique_ptr<PackedWeight> {
         return std::make_unique<QuantTwWeight>(w, require_pattern("tw-int8", o));
       }},
  };
  return backends;
}

template <typename Weight>
std::unique_ptr<PackedWeight> load_as(MappedArtifact& in, std::size_t k,
                                      std::size_t n) {
  return Weight::load(in, k, n);
}

using LoadFn = std::unique_ptr<PackedWeight> (*)(MappedArtifact&, std::size_t,
                                                 std::size_t);

/// Format name -> load factory of every serializable (built-in) format.
const std::map<std::string, LoadFn, std::less<>>& loaders() {
  static const std::map<std::string, LoadFn, std::less<>> table = {
      {"dense", &load_as<DenseWeight>},  {"tw", &load_as<TwWeight>},
      {"tew", &load_as<TewWeight>},      {"csr", &load_as<CsrWeight>},
      {"tw-int8", &load_as<QuantTwWeight>},
  };
  return table;
}

// Every on-wire index is int32, so no legitimate artifact can name a
// larger dimension — reject before any k- or n-sized allocation.
constexpr std::uint64_t kMaxDim = std::numeric_limits<std::int32_t>::max();

}  // namespace

void register_backend(const std::string& format, BackendFactory factory) {
  registry()[format] = std::move(factory);
}

std::vector<std::string> registered_formats() {
  std::vector<std::string> names;
  names.reserve(registry().size());
  for (const auto& [name, factory] : registry()) names.push_back(name);
  return names;  // std::map iterates sorted
}

bool backend_registered(const std::string& format) {
  return registry().count(format) != 0;
}

std::unique_ptr<PackedWeight> make_packed(const std::string& format,
                                          const MatrixF& weights,
                                          const PackOptions& options) {
  const auto it = registry().find(format);
  if (it == registry().end()) {
    std::string known;
    for (const auto& name : registered_formats())
      known += (known.empty() ? "" : ", ") + name;
    throw std::out_of_range("make_packed: unknown weight format '" + format +
                            "' (registered: " + known + ")");
  }
  return it->second(weights, options);
}

std::unique_ptr<PackedWeight> load_packed_weight_mapped(MappedArtifact& in) {
  if (in.pod<std::uint32_t>() != wire::kMagicPackedWeight)
    throw std::runtime_error(
        "load_packed_weight: not a packed-weight artifact (bad magic)");
  if (in.pod<std::uint32_t>() != wire::kContainerVersion)
    throw std::runtime_error(
        "load_packed_weight: unsupported artifact version");
  const std::string format = in.string();
  const auto k = in.pod<std::uint64_t>();
  const auto n = in.pod<std::uint64_t>();
  if (k > kMaxDim || n > kMaxDim)
    throw std::runtime_error(
        "load_packed_weight: corrupt artifact dimensions");

  const auto it = loaders().find(format);
  if (it == loaders().end()) {
    std::string known;
    for (const auto& [name, load] : loaders())
      known += (known.empty() ? "" : ", ") + name;
    throw std::runtime_error("load_packed_weight: unknown weight format '" +
                             format + "' in artifact (loadable: " + known +
                             ")");
  }
  return it->second(in, static_cast<std::size_t>(k),
                    static_cast<std::size_t>(n));
}

}  // namespace tilesparse
