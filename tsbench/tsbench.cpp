// tsbench — the repository benchmark: BERT-mini served from a deployment
// artifact through the real serving path (load_packed_linear_layers ->
// make_bert_entry -> ServingRuntime with batching on).
//
//   tsbench export --workload W --seed N --dir D
//       Training side, untimed: packs BERT-mini in the workload's format,
//       writes the artifact D/model.tsmw, and writes the serial reference
//       output of every pooled input (BatchEntry::run on a streams=1
//       scheduler) to D/reference.bin.
//   tsbench serve --workload W --seed N --seconds S --trace 0|1 --dir D
//                 [--git DESC] [--out FILE]
//       Serving side: five cold setups (artifact load -> first OK
//       response), the measured window, and the correctness gate (every
//       OK response bit-equal to its reference; Stats and per-tenant
//       conservation after shutdown).  --trace 1 adds the per-layer
//       probes after the window and writes D/trace.json (Chrome
//       trace-event format).  Prints one "metric" line per metric and,
//       as the last line, the JSON result; --out also writes the result
//       with its host stamp to FILE.
//
// run.sh builds this program and runs both steps; README.md lists every
// workload and metric.  Every timing here is taken around calls into
// public library functions, from the outside.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exec/backend_registry.hpp"
#include "exec/batch_entry.hpp"
#include "exec/graph.hpp"
#include "exec/scheduler.hpp"
#include "exec/validate.hpp"
#include "gemm/micro_kernel.hpp"
#include "nn/batch_entry.hpp"
#include "nn/bert_mini.hpp"
#include "prune/importance.hpp"
#include "prune/tw_pruner.hpp"
#include "quant/quantize.hpp"
#include "serve/serving_runtime.hpp"
#include "util/rng.hpp"
#include "util/threadpool.hpp"
#include "workload/datasets.hpp"

#ifndef TSBENCH_BUILD_TYPE
#define TSBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace tilesparse;
using Clock = std::chrono::steady_clock;

// ------------------------------------------------------------ configuration

// The served model: L4 / H256 / 4 heads / FFN 1024 / seq 32, weights from
// a fixed seed.  --seed varies the traffic, never the model.
BertMiniConfig model_config() {
  BertMiniConfig config;
  config.dim = 256;
  config.heads = 4;
  config.layers = 4;
  config.ffn_dim = 1024;
  config.seq = 32;
  config.classes = 4;
  config.seed = 1;
  return config;
}
constexpr std::size_t kVocab = 64;
constexpr std::uint64_t kDatasetSeed = 77;
constexpr double kSparsity = 0.75;  // pruned formats: TW, G = 64
constexpr std::size_t kTileG = 64;

// One runtime configuration for every workload: 2 workers, each with 2
// scheduler streams of 2 kernel threads (streams x threads = 4 cores).
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kStreams = 2;
constexpr int kKernelThreads = 2;
constexpr std::size_t kQueueCapacity = 64;

struct Workload {
  const char* name;
  const char* format;
  bool online;
  ArtifactLoad load;
};

// prefill-*: one closed-loop client, 8 sequences (M = 256) per request —
//   kernels, scheduler and host nodes do the work; one client never
//   coalesces, so the batcher does none.  dense is the paper's baseline;
//   tw-int8 is the only workload that runs per-row activation quantize.
// online-tw: open-loop Poisson arrivals of single sequences (M = 32) in
//   three rate steps — admission, batcher, row gather/scatter and the
//   M-keyed graph cache dominate, kernels run at small, varying M.
constexpr Workload kWorkloads[] = {
    {"prefill-tw", "tw", false, ArtifactLoad::kStream},
    {"prefill-dense", "dense", false, ArtifactLoad::kStream},
    {"prefill-tw-int8", "tw-int8", false, ArtifactLoad::kStream},
    {"online-tw", "tw", true, ArtifactLoad::kMapped},
};

constexpr std::size_t kPrefillSeqs = 8;
constexpr std::size_t kPrefillPool = 16;
constexpr std::size_t kOnlinePool = 64;
// Below the knee on 4 cores: past ~80 req/s the batches grow to more
// distinct M than the entry's graph cache holds, every miss re-plans a
// graph (tens to hundreds of ms), and latency measures a growing backlog.
constexpr double kOnlineRates[] = {20.0, 40.0, 60.0};
constexpr double kSloMs = 150.0;
constexpr int kColdSetups = 5;
constexpr int kSubWindows = 5;
constexpr double kWarmupSeconds = 1.0;

// ------------------------------------------------------------ arguments

struct Args {
  std::string command;
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string dir;
  std::string git = "unknown";
  std::string out;
};

Args parse_args(int argc, char** argv) {
  if (argc < 2) throw std::invalid_argument("missing command (export | serve)");
  Args args;
  args.command = argv[1];
  if (args.command != "export" && args.command != "serve")
    throw std::invalid_argument("unknown command '" + args.command + "'");
  for (int i = 2; i < argc; i += 2) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      for (const Workload& w : kWorkloads)
        if (value == w.name) args.workload = &w;
      if (!args.workload)
        throw std::invalid_argument("unknown workload '" + value + "'");
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
      if (!(args.seconds > 0.0))
        throw std::invalid_argument("--seconds must be positive");
    } else if (key == "--trace") {
      if (value != "0" && value != "1")
        throw std::invalid_argument("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (key == "--dir") {
      args.dir = value;
    } else if (key == "--git") {
      args.git = value;
    } else if (key == "--out") {
      args.out = value;
    } else {
      throw std::invalid_argument("unknown option " + key);
    }
  }
  if (!args.workload) throw std::invalid_argument("--workload is required");
  if (args.dir.empty()) throw std::invalid_argument("--dir is required");
  return args;
}

std::string artifact_path(const Args& args) { return args.dir + "/model.tsmw"; }
std::string reference_path(const Args& args) {
  return args.dir + "/reference.bin";
}

// ------------------------------------------------------------ model + inputs

const TokenTeacherDataset& dataset() {
  static const TokenTeacherDataset data(kVocab, model_config().seq,
                                        model_config().classes,
                                        model_config().dim, kDatasetSeed);
  return data;
}

std::unique_ptr<BertMini> make_model() {
  return std::make_unique<BertMini>(model_config(), dataset().embedding());
}

/// The pooled request inputs (embedded token rows), drawn from `seed`.
std::vector<MatrixF> make_inputs(BertMini& model, const Workload& workload,
                                 std::uint64_t seed) {
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 0x51);
  const std::size_t count = workload.online ? kOnlinePool : kPrefillPool;
  const std::size_t seqs = workload.online ? 1 : kPrefillSeqs;
  std::vector<MatrixF> inputs;
  inputs.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    inputs.push_back(model.embed(dataset().sample(seqs, rng)));
  return inputs;
}

std::unique_ptr<PackedWeight> pack_for(const std::string& format,
                                       const MatrixF& w) {
  if (format == "dense") return make_packed(format, w);
  const TilePattern pattern =
      tw_pattern_from_scores(magnitude_scores(w), kSparsity, kTileG);
  MatrixF pruned = w;
  apply_pattern(pattern, pruned);
  PackOptions pack;
  pack.pattern = &pattern;
  return make_packed(format, pruned, pack);
}

ExecContext kernel_context() {
  ExecContext ctx;
  ctx.threads = kKernelThreads;
  return ctx;
}

void write_matrices(const std::string& path, const std::vector<MatrixF>& ms) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  const auto put = [&out](std::uint64_t v) {
    out.write(reinterpret_cast<const char*>(&v), sizeof v);
  };
  put(ms.size());
  for (const MatrixF& m : ms) {
    put(m.rows());
    put(m.cols());
    out.write(reinterpret_cast<const char*>(m.data()),
              static_cast<std::streamsize>(m.size() * sizeof(float)));
  }
  if (!out) throw std::runtime_error("cannot write " + path);
}

std::vector<MatrixF> read_matrices(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  const auto get = [&in, &path] {
    std::uint64_t v = 0;
    in.read(reinterpret_cast<char*>(&v), sizeof v);
    if (!in) throw std::runtime_error("truncated " + path);
    return v;
  };
  const std::uint64_t count = get();
  if (count > (1u << 20)) throw std::runtime_error("corrupt " + path);
  std::vector<MatrixF> ms;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t rows = get();
    const std::uint64_t cols = get();
    if (rows > (1u << 16) || cols > (1u << 16) || rows * cols > (1u << 24))
      throw std::runtime_error("corrupt " + path);
    MatrixF m(rows, cols);
    in.read(reinterpret_cast<char*>(m.data()),
            static_cast<std::streamsize>(m.size() * sizeof(float)));
    if (!in) throw std::runtime_error("truncated " + path);
    ms.push_back(std::move(m));
  }
  return ms;
}

bool same_bits(const MatrixF& a, const MatrixF& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

int run_export(const Args& args) {
  const std::unique_ptr<BertMini> model = make_model();
  for (Linear* layer : model->prunable_layers()) {
    layer->set_packed_weight(
        pack_for(args.workload->format, layer->weight().value));
    layer->set_exec_context(kernel_context());
  }
  save_packed_linear_layers(artifact_path(args), model->prunable_layers());

  const std::vector<MatrixF> inputs =
      make_inputs(*model, *args.workload, args.seed);
  const std::unique_ptr<GraphBatchEntry> entry =
      make_bert_entry("reference", *model);
  SchedulerOptions serial;
  serial.streams = 1;
  ExecScheduler scheduler(serial);
  std::vector<MatrixF> references;
  references.reserve(inputs.size());
  for (const MatrixF& input : inputs)
    references.push_back(entry->run(scheduler, input));
  write_matrices(reference_path(args), references);
  return 0;
}

// ------------------------------------------------------------ statistics

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (q in (0, 1]) of a sorted sample.
double nearest_rank(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

std::size_t beyond(std::size_t n, double q) {
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return n - std::min(rank, n);
}

/// A tail: the highest of p99.9 / p99 / p95 / p90 / p75 / p50 with at
/// least ten samples beyond it.
struct Tail {
  double pct = 0.0;
  double value = 0.0;
  std::size_t n = 0;
};

Tail tail_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  Tail tail;
  tail.n = v.size();
  for (const double q : {0.999, 0.99, 0.95, 0.90, 0.75, 0.50}) {
    if (beyond(v.size(), q) >= 10) {
      tail.pct = q * 100.0;
      tail.value = nearest_rank(v, q);
      return tail;
    }
  }
  tail.pct = 50.0;
  tail.value = nearest_rank(v, 0.5);
  return tail;
}

/// a / b, or 0 when b is not positive (a role with no nodes).
double ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

double ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

std::int64_t ns(Clock::duration d) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
  }
  return 0.0;
}

// ------------------------------------------------------------ trace events

/// Chrome trace-event spans, kept in memory and written at the end.
class Trace {
 public:
  explicit Trace(Clock::time_point origin) : origin_(origin) {}

  void span(int pid, std::int64_t tid, const std::string& name,
            const char* category, Clock::time_point start,
            Clock::time_point end, std::string args = "") {
    span_ns(pid, tid, name, category, ns(start - origin_), ns(end - start),
            std::move(args));
  }

  /// Offsets in nanoseconds since the origin; written in microseconds
  /// with all three fractional digits, so no precision is lost.
  void span_ns(int pid, std::int64_t tid, const std::string& name,
               const char* category, std::int64_t start_ns,
               std::int64_t dur_ns, std::string args = "") {
    char head[160];
    std::snprintf(head, sizeof head,
                  "{\"ph\":\"X\",\"pid\":%d,\"tid\":%lld,\"ts\":%lld.%03lld,"
                  "\"dur\":%lld.%03lld,\"cat\":\"%s\",\"name\":\"",
                  pid, static_cast<long long>(tid),
                  static_cast<long long>(start_ns / 1000),
                  static_cast<long long>(start_ns % 1000),
                  static_cast<long long>(dur_ns / 1000),
                  static_cast<long long>(dur_ns % 1000), category);
    events_.push_back(std::string(head) + name + "\",\"args\":{" + args + "}}");
  }

  void process_name(int pid, const char* name) {
    events_.push_back("{\"ph\":\"M\",\"pid\":" + std::to_string(pid) +
                      ",\"name\":\"process_name\",\"args\":{\"name\":\"" +
                      name + "\"}}");
  }

  void write(const std::string& path, const std::string& metadata) const {
    std::ofstream out(path, std::ios::trunc);
    out << "{\"displayTimeUnit\":\"ms\",\"metadata\":" << metadata
        << ",\"traceEvents\":[\n";
    for (std::size_t i = 0; i < events_.size(); ++i)
      out << events_[i] << (i + 1 < events_.size() ? ",\n" : "\n");
    out << "]}\n";
    if (!out) throw std::runtime_error("cannot write " + path);
  }

 private:
  Clock::time_point origin_;
  std::vector<std::string> events_;
};

constexpr int kLayerPid = 1;
constexpr int kRequestPid = 2;

// ------------------------------------------------------------ metrics

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  ///< printed only: sample counts, layer -> moves
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string host_stamp(const Args& args) {
  return "{\"nproc\":" + std::to_string(std::thread::hardware_concurrency()) +
         ",\"simd\":\"" + simd_level_name(detected_simd_level()) +
         "\",\"compiler\":\"" + json_escape(__VERSION__) +
         "\",\"build_type\":\"" + json_escape(TSBENCH_BUILD_TYPE) +
         "\",\"seed\":" + std::to_string(args.seed) + ",\"git\":\"" +
         json_escape(args.git) + "\"}";
}

// ------------------------------------------------------------ serving

serve::ServingOptions serving_options() {
  serve::ServingOptions options;
  options.workers = kWorkers;
  options.streams = kStreams;
  options.queue_capacity = kQueueCapacity;
  options.batch.enabled = true;  // BatchPolicy defaults otherwise
  return options;
}

/// One cold setup: the model skeleton plus the runtime serving it.  The
/// runtime is declared last so it is destroyed before the model its
/// entry refers to.
struct Served {
  std::unique_ptr<BertMini> model;
  std::unique_ptr<serve::ServingRuntime> runtime;
};

struct SetupTimes {
  Clock::time_point start, loaded, started, first_ok;
};

/// Artifact load -> registered entry on a running runtime -> first OK
/// response.  The skeleton (architecture and non-GEMM parameters) is
/// built before the clock starts.
Served cold_setup(const Args& args, const MatrixF& first_input,
                  const MatrixF& first_reference, SetupTimes& times) {
  Served served;
  served.model = make_model();
  times.start = Clock::now();
  load_packed_linear_layers(artifact_path(args),
                            served.model->prunable_layers(), kernel_context(),
                            args.workload->load);
  times.loaded = Clock::now();
  served.runtime = std::make_unique<serve::ServingRuntime>(serving_options());
  served.runtime->register_batch_entry(make_bert_entry("bert", *served.model));
  times.started = Clock::now();
  serve::Request request;
  request.entry = "bert";
  request.input = first_input;
  const serve::RequestHandle handle =
      served.runtime->submit(std::move(request));
  const serve::Response& response = handle->wait();
  times.first_ok = Clock::now();
  if (response.status != serve::RequestStatus::kOk ||
      !same_bits(response.result, first_reference))
    throw std::runtime_error("cold setup: first response is not the reference");
  return served;
}

/// One request of the measured window, timed from its due time:
/// latency = (submit - due) + queue_wait + service_time.
struct Sent {
  std::size_t input = 0;
  std::size_t step = 0;
  Clock::time_point due, submitted;
  serve::RequestHandle handle;
};

struct Done {
  std::size_t step = 0;
  std::int64_t due_ns = 0;        ///< since the trace origin
  std::int64_t late_ns = 0;       ///< due -> submit
  std::int64_t queue_wait_ns = 0;
  std::int64_t service_ns = 0;
  bool ok = false;
  bool correct = false;
  std::size_t batch_rows = 0;  ///< input rows of the run that served it
  std::int64_t latency_ns() const {
    return late_ns + queue_wait_ns + service_ns;
  }
  double latency_ms() const { return static_cast<double>(latency_ns()) * 1e-6; }
};

serve::RequestHandle submit(serve::ServingRuntime& runtime,
                            const MatrixF& input) {
  serve::Request request;
  request.entry = "bert";
  request.input = input;
  return runtime.submit(std::move(request));
}

Done finish(const Sent& sent, const std::vector<MatrixF>& references,
            Clock::time_point origin) {
  const serve::Response& response = sent.handle->wait();
  Done done;
  done.step = sent.step;
  done.due_ns = ns(sent.due - origin);
  done.late_ns = ns(sent.submitted - sent.due);
  done.queue_wait_ns = ns(response.queue_wait);
  done.service_ns = ns(response.service_time);
  done.ok = response.status == serve::RequestStatus::kOk;
  done.batch_rows = response.batch_rows;
  done.correct =
      done.ok && same_bits(response.result, references[sent.input]);
  return done;
}

/// Closed loop, one client: the next request is due when the previous
/// one completes.
std::vector<Done> closed_loop(serve::ServingRuntime& runtime,
                              const std::vector<MatrixF>& inputs,
                              const std::vector<MatrixF>& references,
                              Rng& rng, double seconds,
                              Clock::time_point origin) {
  std::vector<Done> done;
  const Clock::time_point end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  while (Clock::now() < end) {
    Sent sent;
    sent.input = static_cast<std::size_t>(rng.below(inputs.size()));
    sent.due = sent.submitted = Clock::now();
    sent.handle = submit(runtime, inputs[sent.input]);
    done.push_back(finish(sent, references, origin));
  }
  return done;
}

struct StepStats {
  double rate = 0.0;
  double active_s = 0.0;       ///< step start -> last completion
  std::size_t backlog_end = 0;  ///< not yet complete at the last arrival
};

/// Open loop: `rate` requests per second for `seconds`, as a Poisson
/// process conditioned on its count (sorted uniform due times), then a
/// drain.  The generator submits at each due time and never waits.
std::vector<Done> open_loop_step(serve::ServingRuntime& runtime,
                                 const std::vector<MatrixF>& inputs,
                                 const std::vector<MatrixF>& references,
                                 Rng& rng, double rate, double seconds,
                                 std::size_t step, Clock::time_point origin,
                                 StepStats& stats) {
  const auto count = static_cast<std::size_t>(std::llround(rate * seconds));
  std::vector<double> offsets(count);
  for (double& t : offsets) t = static_cast<double>(rng.uniform()) * seconds;
  std::sort(offsets.begin(), offsets.end());

  std::vector<Sent> sent(count);
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < count; ++i) {
    Sent& s = sent[i];
    s.input = static_cast<std::size_t>(rng.below(inputs.size()));
    s.step = step;
    s.due = start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(offsets[i]));
    std::this_thread::sleep_until(s.due);
    s.submitted = Clock::now();
    s.handle = submit(runtime, inputs[s.input]);
  }
  for (const Sent& s : sent) stats.backlog_end += s.handle->done() ? 0 : 1;

  std::vector<Done> done;
  done.reserve(count);
  Clock::time_point last = start;
  for (const Sent& s : sent) {
    done.push_back(finish(s, references, origin));
    last = std::max(last, s.submitted +
                              std::chrono::nanoseconds(
                                  done.back().queue_wait_ns +
                                  done.back().service_ns));
  }
  stats.rate = rate;
  stats.active_s = std::chrono::duration<double>(last - start).count();
  return done;
}

// ------------------------------------------------------------ layer probes

/// Graph node roles, from the node names BertMini::append_exec_graph
/// gives them.  "cls" runs as a host node (the classifier is not in the
/// artifact) but is a GEMM by role.
struct Role {
  std::string name;
  bool gemm = false;
};

bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

Role classify(const ExecGraph::Node& node) {
  const std::string& n = node.name;
  if (ends_with(n, ".core")) return {"attn_core", false};
  if (ends_with(n, ".q.w") || ends_with(n, ".k.w") || ends_with(n, ".v.w"))
    return {"qkv", true};
  if (ends_with(n, ".attn.out.w")) return {"attn_out", true};
  if (ends_with(n, ".ffn_in.w")) return {"ffn_in", true};
  if (ends_with(n, ".ffn_out.w")) return {"ffn_out", true};
  if (n == "cls.w") return {"cls", true};
  if (ends_with(n, ".gelu")) return {"gelu", false};
  if (ends_with(n, ".ln1") || ends_with(n, ".ln2")) return {"layernorm", false};
  if (ends_with(n, ".res1") || ends_with(n, ".res2"))
    return {"residual", false};
  if (n == "pool") return {"pool", false};
  return {"other", node.kind == ExecGraph::NodeKind::kGemm};
}

constexpr const char* kGemmRoles[] = {"qkv", "attn_out", "ffn_in", "ffn_out",
                                      "cls"};
constexpr const char* kHostRoles[] = {"attn_core", "gelu", "layernorm",
                                      "residual", "pool"};

struct BuiltGraph {
  std::unique_ptr<ExecGraph> graph;
  ExecGraph::SlotId input = 0;
};

BuiltGraph build_graph(BertMini& model) {
  BuiltGraph built;
  built.graph = std::make_unique<ExecGraph>();
  built.input = built.graph->add_slot("x");
  built.graph->mark_input(built.input);
  built.graph->mark_output(model.append_exec_graph(*built.graph, built.input));
  return built;
}

/// Times `fn` `reps` times (after `warm` untimed calls); returns the
/// median in milliseconds.
template <typename Fn>
double median_ms(int warm, int reps, Fn&& fn) {
  for (int i = 0; i < warm; ++i) fn();
  std::vector<double> samples;
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point t0 = Clock::now();
    fn();
    samples.push_back(ms(Clock::now() - t0));
  }
  return median(samples);
}

/// The first `rows` rows of the pooled inputs stacked end to end.
MatrixF stacked_rows(const std::vector<MatrixF>& inputs, std::size_t rows) {
  const std::size_t cols = inputs.front().cols();
  MatrixF out(rows, cols);
  std::size_t r = 0;
  for (std::size_t i = 0; r < rows; ++i) {
    const MatrixF& in = inputs[i % inputs.size()];
    for (std::size_t k = 0; k < in.rows() && r < rows; ++k, ++r)
      std::memcpy(out.data() + r * cols, in.data() + k * cols,
                  cols * sizeof(float));
  }
  return out;
}

/// A worker-shaped scheduler: `kStreams` streams on a private pool of
/// kStreams - 1 threads plus the caller, as ServingRuntime builds them.
struct WorkerScheduler {
  ThreadPool pool{kStreams - 1};
  ExecScheduler scheduler;
  WorkerScheduler() : scheduler(options(), &pool) {}
  static SchedulerOptions options() {
    SchedulerOptions o;
    o.streams = kStreams;
    return o;
  }
};

struct LayerReport {
  std::vector<Metric> metrics;
  void add(const std::string& name, double value, const char* unit,
           const char* layer, const char* moves) {
    metrics.push_back(
        {name, value, unit, std::string("layer=") + layer + " moves=" + moves});
  }
};

constexpr const char* kMovesSetup = "setup_s";
constexpr const char* kMovesKernels =
    "throughput_rps+latency_p50_ms(prefill-*),latency_p50_ms(online-tw)";
constexpr const char* kMovesSched =
    "throughput_rps(prefill-*),latency_p50_ms(online-tw)";
constexpr const char* kMovesGemm = "throughput_rps(prefill-tw,prefill-tw-int8)";
constexpr const char* kMovesQuant = "throughput_rps(prefill-tw-int8 only)";
constexpr const char* kMovesServe =
    "latency_p50_ms+throughput_rps(online-tw),flat(prefill-*)";

/// The exec, gemm and quant probes, on the served model after the
/// window.  Node times come from a serial node-by-node pass
/// (topo_order + execute_node) at the workload's request M.
void probe_layers(BertMini& model, const std::vector<MatrixF>& inputs,
                  Trace& trace, LayerReport& report) {
  const MatrixF& request = inputs.front();
  const std::size_t m = request.rows();

  // exec setup: graph build, static validation, first scheduled run.
  report.add("exec.graph_build_ms",
             median_ms(1, 5, [&model] { (void)build_graph(model); }), "ms",
             "exec", kMovesSetup);
  {
    const BuiltGraph built = build_graph(model);
    report.add("exec.validate_ms", median_ms(0, 3, [&built] {
                 (void)validate_graph(*built.graph);
               }),
               "ms", "exec", kMovesSetup);
  }
  std::vector<double> first_runs;
  for (int i = 0; i < 3; ++i) {
    BuiltGraph built = build_graph(model);
    built.graph->slot(built.input) = request;
    WorkerScheduler worker;
    const Clock::time_point t0 = Clock::now();
    worker.scheduler.run(*built.graph);
    const Clock::time_point t1 = Clock::now();
    first_runs.push_back(ms(t1 - t0));
    trace.span(kLayerPid, 3, "exec.first_run", "exec", t0, t1);
  }
  report.add("exec.first_run_ms", median(first_runs), "ms", "exec",
             kMovesSetup);

  // exec nodes: serial node-by-node passes.
  BuiltGraph built = build_graph(model);
  ExecGraph& graph = *built.graph;
  graph.slot(built.input) = request;
  const std::vector<ExecGraph::NodeId> order = graph.topo_order();
  std::vector<Role> roles;
  for (const ExecGraph::NodeId id : order)
    roles.push_back(classify(graph.nodes()[id]));
  const int reps = m >= 128 ? 12 : 40;
  std::map<std::string, std::vector<double>> role_ms;
  std::vector<double> gemm_total, host_total;
  for (ExecGraph::NodeId id : order) graph.execute_node(id);  // warm
  for (int rep = 0; rep < reps; ++rep) {
    std::map<std::string, double> sums;
    double gemm = 0.0, host = 0.0;
    for (std::size_t i = 0; i < order.size(); ++i) {
      const Clock::time_point t0 = Clock::now();
      graph.execute_node(order[i]);
      const Clock::time_point t1 = Clock::now();
      const double t = ms(t1 - t0);
      sums[roles[i].name] += t;
      (roles[i].gemm ? gemm : host) += t;
      if (rep + 1 == reps)
        trace.span(kLayerPid, 1, graph.nodes()[order[i]].name, "exec.node", t0,
                   t1, "\"role\":\"" + roles[i].name + "\"");
    }
    for (const auto& [role, t] : sums) role_ms[role].push_back(t);
    gemm_total.push_back(gemm);
    host_total.push_back(host);
  }

  // Per GEMM role: MACs per request and the shape of one node.
  struct Shape {
    std::size_t m = 0, k = 0, n = 0, count = 0;
    double macs = 0.0;
  };
  std::map<std::string, Shape> shapes;
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (!roles[i].gemm) continue;
    const ExecGraph::Node& node = graph.nodes()[order[i]];
    const MatrixF& in = graph.slot(node.reads.front());
    const MatrixF& out = graph.slot(node.writes.front());
    Shape& s = shapes[roles[i].name];
    s.m = in.rows();
    s.k = in.cols();
    s.n = out.cols();
    s.count += 1;
    s.macs += node.weight ? node.weight->macs(in.rows())
                          : static_cast<double>(s.m * s.k * s.n);
  }
  for (const char* role : kGemmRoles) {
    const double t = median(role_ms[role]);
    report.add(std::string("exec.gemm.") + role + "_ms", t, "ms", "exec",
               kMovesKernels);
    report.add(std::string("exec.gemm.") + role + "_gflops",
               ratio(2.0 * shapes[role].macs, t * 1e6), "GFLOP/s", "exec",
               kMovesKernels);
  }
  for (const char* role : kHostRoles)
    report.add(std::string("exec.host.") + role + "_ms", median(role_ms[role]),
               "ms", "exec", kMovesKernels);
  const double gemm_ms = median(gemm_total);
  const double host_ms = median(host_total);
  report.add("exec.gemm_ms", gemm_ms, "ms", "exec", kMovesKernels);
  report.add("exec.host_ms", host_ms, "ms", "exec", kMovesKernels);
  report.add("exec.host_share", ratio(host_ms, gemm_ms + host_ms), "ratio",
             "exec", kMovesKernels);

  // exec scheduler: the same graph through a worker-shaped scheduler.
  {
    WorkerScheduler worker;
    const double run_ms =
        median_ms(2, reps, [&] { worker.scheduler.run(graph); });
    const ExecScheduler::RunStats& stats = worker.scheduler.last_stats();
    report.add("exec.sched.run_ms", run_ms, "ms", "exec", kMovesSched);
    report.add("exec.sched.overlap", ratio(gemm_ms + host_ms, run_ms),
               "ratio", "exec", kMovesSched);
    report.add("exec.sched.tasks", static_cast<double>(stats.tasks), "count",
               "exec", kMovesSched);
    report.add("exec.sched.shards", static_cast<double>(stats.shards), "count",
               "exec", kMovesSched);
  }
  {
    WorkerScheduler worker;
    const std::unique_ptr<GraphBatchEntry> entry =
        make_bert_entry("probe", model);
    for (const std::size_t rows : {32, 64, 128, 256}) {
      const MatrixF input = stacked_rows(inputs, rows);
      const Clock::time_point t0 = Clock::now();
      const double t = median_ms(
          2, 10, [&] { (void)entry->run(worker.scheduler, input); });
      trace.span(kLayerPid, 4, "exec.entry_run.m" + std::to_string(rows),
                 "exec", t0, Clock::now());
      report.add("exec.entry_run_ms.m" + std::to_string(rows), t, "ms", "exec",
                 kMovesSched);
    }
  }

  // gemm: the dense micro-kernel at each role's shape and thread count.
  Rng rng(2024);
  for (const char* role : kGemmRoles) {
    const Shape& s = shapes[role];
    if (s.count == 0) {
      report.add(std::string("gemm.dense_ref_gflops.") + role, 0.0, "GFLOP/s",
                 "gemm", kMovesGemm);
      report.add(std::string("exec.gemm.") + role + "_vs_dense", 0.0, "x",
                 "gemm", kMovesGemm);
      continue;
    }
    MatrixF w(s.k, s.n), a(s.m, s.k), c(s.m, s.n);
    for (float& v : w.flat()) v = rng.normal() * 0.05f;
    for (float& v : a.flat()) v = rng.normal();
    const std::unique_ptr<PackedWeight> dense = make_packed("dense", w);
    const ExecContext ctx = kernel_context();
    const double t = median_ms(2, 10, [&] { dense->matmul(ctx, a, c); });
    report.add(std::string("gemm.dense_ref_gflops.") + role,
               ratio(2.0 * static_cast<double>(s.m * s.k * s.n), t * 1e6),
               "GFLOP/s", "gemm", kMovesGemm);
    report.add(std::string("exec.gemm.") + role + "_vs_dense",
               ratio(t * static_cast<double>(s.count), median(role_ms[role])),
               "x", "gemm", kMovesGemm);
  }

  // quant: per-row activation quantization on every packed GEMM node's
  // input, summed per request (only tw-int8 runs it while serving).
  std::vector<const MatrixF*> quant_inputs;
  for (const ExecGraph::Node& node : graph.nodes())
    if (node.kind == ExecGraph::NodeKind::kGemm)
      quant_inputs.push_back(&graph.slot(node.in));
  report.add("quant.quantize_rows_ms", median_ms(1, 10, [&] {
               for (const MatrixF* in : quant_inputs) (void)quantize_rows(*in);
             }),
             "ms", "quant", kMovesQuant);
}

// ------------------------------------------------------------ serve command

/// What the measured window produced.
struct Window {
  std::vector<Done> done;
  std::vector<StepStats> steps;  ///< online only
  double seconds = 0.0;          ///< measured time (online: active step time)
  std::int64_t start_ns = 0;     ///< since the trace origin
  serve::RequestBatcher::BatchStats batch_before, batch_after;
};

std::vector<double> latencies_ms(const std::vector<Done>& done,
                                 std::size_t step = SIZE_MAX) {
  std::vector<double> v;
  for (const Done& d : done)
    if (step == SIZE_MAX || d.step == step) v.push_back(d.latency_ms());
  return v;
}

/// OK completions per second in each of `parts` equal slices of the
/// window, by completion time.
std::vector<double> subwindow_rates(const Window& window, int parts) {
  std::vector<double> counts(static_cast<std::size_t>(parts), 0.0);
  const double slice_ns = window.seconds * 1e9 / parts;
  for (const Done& d : window.done) {
    if (!d.ok) continue;
    const double end_ns =
        static_cast<double>(d.due_ns + d.latency_ns() - window.start_ns);
    const int k =
        std::clamp(static_cast<int>(end_ns / slice_ns), 0, parts - 1);
    counts[static_cast<std::size_t>(k)] += 1.0;
  }
  for (double& c : counts) c /= slice_ns * 1e-9;
  return counts;
}

/// Per online step: latency at its rate, SLO attainment, backlog and
/// generator lateness; then the highest rate at which >= 99% of the
/// requests sent completed OK within the SLO.
void print_steps(const Window& window) {
  double max_rate = 0.0;
  for (std::size_t s = 0; s < window.steps.size(); ++s) {
    const std::vector<double> lat = latencies_ms(window.done, s);
    std::size_t ok_slo = 0;
    std::vector<double> late;
    for (const Done& d : window.done) {
      if (d.step != s) continue;
      ok_slo += d.ok && d.latency_ms() <= kSloMs ? 1 : 0;
      late.push_back(static_cast<double>(d.late_ns) * 1e-6);
    }
    const Tail step_tail = tail_of(lat);
    const Tail late_tail = tail_of(late);
    const double slo_ok = ratio(static_cast<double>(ok_slo),
                                static_cast<double>(lat.size()));
    if (slo_ok >= 0.99) max_rate = window.steps[s].rate;
    std::printf("step r%g sent=%zu slo_ok=%.4f p50=%.3f ms p%g=%.3f ms (n=%zu) "
                "backlog_end=%zu gen_late_p%g=%.3f ms active=%.3f s\n",
                window.steps[s].rate, lat.size(), slo_ok, median(lat),
                step_tail.pct, step_tail.value, step_tail.n,
                window.steps[s].backlog_end, late_tail.pct, late_tail.value,
                window.steps[s].active_s);
  }
  std::printf("max_rate_rps %g (SLO %g ms for 99%% of sent)\n", max_rate,
              kSloMs);
}

/// Request phase spans: due -> submit, queue wait, service.  They tile
/// [due, due + latency] exactly (integer nanoseconds).
void add_request_spans(Trace& trace, const Window& window) {
  for (std::size_t i = 0; i < window.done.size(); ++i) {
    const Done& d = window.done[i];
    const auto tid = static_cast<std::int64_t>(i);
    const std::string a = "\"latency_ns\":" + std::to_string(d.latency_ns()) +
                          ",\"step\":" + std::to_string(d.step) +
                          ",\"batch_rows\":" + std::to_string(d.batch_rows);
    trace.span_ns(kRequestPid, tid, "due_to_submit", "request", d.due_ns,
                  d.late_ns, a);
    trace.span_ns(kRequestPid, tid, "queue_wait", "request",
                  d.due_ns + d.late_ns, d.queue_wait_ns, a);
    trace.span_ns(kRequestPid, tid, "service", "request",
                  d.due_ns + d.late_ns + d.queue_wait_ns, d.service_ns, a);
  }
}

void print_metric(const Metric& m) {
  std::printf("metric %-36s %16.6f %-8s %s\n", m.name.c_str(), m.value,
              m.unit.c_str(), m.note.c_str());
}

int run_serve(const Args& args) {
  const Clock::time_point origin = Clock::now();
  Trace trace(origin);
  const Workload& workload = *args.workload;
  std::printf("tsbench %s seed=%llu seconds=%g trace=%d\n", workload.name,
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("host %s\n", host_stamp(args).c_str());

  const std::vector<MatrixF> references = read_matrices(reference_path(args));
  std::vector<MatrixF> inputs;
  {
    const std::unique_ptr<BertMini> skeleton = make_model();
    inputs = make_inputs(*skeleton, workload, args.seed);
  }
  if (references.size() != inputs.size())
    throw std::runtime_error("reference count does not match the input pool");

  // Setup: kColdSetups cold setups in this process; the last one serves.
  Served served;
  std::vector<double> setup_s, load_ms;
  double setup_rss_mb = 0.0;
  for (int i = 0; i < kColdSetups; ++i) {
    served.runtime.reset();  // stop the previous runtime before its model
    served.model.reset();
    SetupTimes t;
    served = cold_setup(args, inputs.front(), references.front(), t);
    setup_s.push_back(
        std::chrono::duration<double>(t.first_ok - t.start).count());
    load_ms.push_back(ms(t.loaded - t.start));
    trace.span(kLayerPid, 2, "setup.load", "io", t.start, t.loaded);
    trace.span(kLayerPid, 2, "setup.start_runtime", "serve", t.loaded,
               t.started);
    trace.span(kLayerPid, 2, "setup.first_response", "serve", t.started,
               t.first_ok);
    // Only the first setup runs on a fresh heap; later ones reuse freed
    // memory from per-thread arenas in an order that varies run to run.
    if (i == 0) setup_rss_mb = peak_rss_mb();
  }
  std::printf("setups");
  for (const double s : setup_s) std::printf(" %.4f", s);
  std::printf(" s\n");
  serve::ServingRuntime& runtime = *served.runtime;

  Rng traffic(args.seed * 0xD1B54A32D192ED03ull + 0x7);
  Window window;
  std::vector<Done> warmup;  // checked for correctness, not measured
  if (!workload.online) {
    warmup = closed_loop(runtime, inputs, references, traffic, kWarmupSeconds,
                         origin);
    window.batch_before = runtime.batch_stats();
    const Clock::time_point t0 = Clock::now();
    window.done =
        closed_loop(runtime, inputs, references, traffic, args.seconds, origin);
    window.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
    window.start_ns = ns(t0 - origin);
  } else {
    StepStats warm;
    warmup = open_loop_step(runtime, inputs, references, traffic,
                            kOnlineRates[1], kWarmupSeconds, 0, origin, warm);
    window.batch_before = runtime.batch_stats();
    const double step_seconds = args.seconds / std::size(kOnlineRates);
    for (std::size_t s = 0; s < std::size(kOnlineRates); ++s) {
      StepStats stats;
      std::vector<Done> step =
          open_loop_step(runtime, inputs, references, traffic, kOnlineRates[s],
                         step_seconds, s, origin, stats);
      window.done.insert(window.done.end(), step.begin(), step.end());
      window.steps.push_back(stats);
      window.seconds += stats.active_s;
    }
  }
  window.batch_after = runtime.batch_stats();
  runtime.shutdown(serve::ServingRuntime::Shutdown::kDrain);

  // Correctness gate.
  std::size_t failed = 0, wrong = 0, within_slo = 0;
  for (const Done& d : window.done) {
    failed += d.ok ? 0 : 1;
    within_slo += d.ok && d.latency_ms() <= kSloMs ? 1 : 0;
  }
  for (const std::vector<Done>* run : {&warmup, &window.done})
    for (const Done& d : *run) wrong += d.ok && !d.correct ? 1 : 0;
  const serve::ServingRuntime::Stats stats = runtime.stats();
  bool conserved = stats.conserved();
  std::uint64_t tenant_submitted = 0;
  for (const auto& [tenant, ledger] : runtime.tenant_stats()) {
    conserved = conserved && ledger.conserved();
    tenant_submitted += ledger.submitted;
  }
  conserved = conserved && tenant_submitted == stats.submitted;
  const bool correct = wrong == 0 && conserved;
  std::printf("check responses=%zu non_ok=%zu mismatched=%zu conserved=%s\n",
              warmup.size() + window.done.size(), failed, wrong,
              conserved ? "yes" : "NO");
  const serve::RequestBatcher::BatchStats& batch = window.batch_after;
  std::printf("serve submitted=%llu retries=%llu degraded_ok=%llu "
              "rejected=%llu timeouts=%llu failed=%llu batches=%llu "
              "solo_bypass=%llu solo_fallback=%llu\n",
              static_cast<unsigned long long>(stats.submitted),
              static_cast<unsigned long long>(stats.retries),
              static_cast<unsigned long long>(stats.degraded_ok),
              static_cast<unsigned long long>(
                  stats.rejected_full + stats.rejected_closed + stats.evicted),
              static_cast<unsigned long long>(stats.timeout),
              static_cast<unsigned long long>(stats.failed),
              static_cast<unsigned long long>(batch.batches),
              static_cast<unsigned long long>(batch.solo_bypass),
              static_cast<unsigned long long>(batch.solo_fallback));

  // End-to-end metrics.
  std::vector<Metric> e2e;
  const std::vector<double> all = latencies_ms(window.done);
  // Online: OK within the SLO per second of active step time (steps
  // start at their first due time and end at their last completion).
  // Closed loop: the median over equal sub-windows of OK completions per
  // second, so a few seconds of interference from other tenants of a
  // shared host do not set the number.
  const double throughput =
      workload.online
          ? static_cast<double>(within_slo) / window.seconds
          : median(subwindow_rates(window, kSubWindows));
  e2e.push_back({"throughput_rps", throughput, "req/s",
                 workload.online ? "ok within SLO" : "closed loop"});
  e2e.push_back({"latency_p50_ms", median(all), "ms",
                 "n=" + std::to_string(all.size())});
  e2e.push_back({"setup_s", median(setup_s), "s",
                 "median of " + std::to_string(kColdSetups) + " cold setups"});
  e2e.push_back({"setup_rss_mb", setup_rss_mb, "MB",
                 "VmHWM after the first setup"});
  const double window_rss_mb = peak_rss_mb();

  const Tail tail = tail_of(all);
  std::printf("tail p%g=%.3f ms n=%zu\n", tail.pct, tail.value, tail.n);
  if (workload.online) print_steps(window);

  std::vector<Metric> layers;
  if (args.trace) {
    LayerReport report;
    std::vector<double> qw, svc;
    for (const Done& d : window.done) {
      qw.push_back(static_cast<double>(d.queue_wait_ns) * 1e-6);
      svc.push_back(static_cast<double>(d.service_ns) * 1e-6);
    }
    const auto& b0 = window.batch_before;
    const auto& b1 = window.batch_after;
    const double batches = static_cast<double>(b1.batches - b0.batches);
    report.add("io.load_ms", median(load_ms), "ms", "io", kMovesSetup);
    std::ifstream artifact(artifact_path(args),
                           std::ios::binary | std::ios::ate);
    report.add("io.artifact_mb",
               static_cast<double>(artifact.tellg()) / (1024.0 * 1024.0), "MB",
               "io", kMovesSetup);
    probe_layers(*served.model, inputs, trace, report);
    report.add("serve.queue_wait_p50_ms", median(qw), "ms", "serve",
               kMovesServe);
    report.add("serve.service_p50_ms", median(svc), "ms", "serve", kMovesServe);
    report.add("serve.latency_tail_ms", tail.value, "ms", "serve", kMovesServe);
    double sum = 0.0;
    for (const double v : all) sum += v;
    report.add("serve.latency_mean_ms",
               ratio(sum, static_cast<double>(all.size())), "ms", "serve",
               kMovesServe);
    report.add("serve.batch.members_mean",
               batches > 0 ? static_cast<double>(b1.batched_members -
                                                 b0.batched_members) /
                                 batches
                           : 0.0,
               "count", "serve", kMovesServe);
    report.add("serve.batch.max_rows", static_cast<double>(b1.max_batch_rows),
               "count", "serve", kMovesServe);
    report.add("serve.peak_rss_mb", window_rss_mb, "MB", "serve",
               "none(graph and plan caches churn with M; no stable bound)");
    layers = std::move(report.metrics);

    trace.process_name(kLayerPid, "layers");
    trace.process_name(kRequestPid, "requests");
    add_request_spans(trace, window);
    trace.write(args.dir + "/trace.json", host_stamp(args));
  }

  // Report: every metric with its unit, then the result line.
  for (const Metric& m : e2e) print_metric(m);
  for (const Metric& m : layers) print_metric(m);
  const std::vector<Metric>& reported = args.trace ? layers : e2e;
  std::string json = "{\"correct\": " +
                     std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(window.done.size()) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < reported.size(); ++i) {
    const Metric& m = reported[i];
    if (!std::isfinite(m.value))
      throw std::runtime_error("metric " + m.name + " is not finite");
    json += (i ? ", \"" : "\"") + m.name +
            "\": {\"value\": " + number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  if (!args.out.empty()) {
    std::ofstream out(args.out, std::ios::trunc);
    out << "{\"workload\": \"" << workload.name << "\", \"seed\": " << args.seed
        << ", \"seconds\": " << number(args.seconds)
        << ", \"trace\": " << (args.trace ? 1 : 0)
        << ", \"host\": " << host_stamp(args) << ", \"result\": " << json
        << "}\n";
    if (!out) throw std::runtime_error("cannot write " + args.out);
  }
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    return args.command == "export" ? run_export(args) : run_serve(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tsbench: %s\n", e.what());
    return 2;
  }
}
