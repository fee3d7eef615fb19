// Chaos suite for the serving runtime: many iterations of mixed
// traffic — healthy GEMM graphs, requests that always throw, slow
// graphs racing tight deadlines, artifact loads — under deterministic
// seeded fault injection (when the build carries the points;
// -DTILESPARSE_ENABLE_FAULTS=ON).  Every iteration asserts the three
// promises the runtime makes:
//
//   1. Conservation: every submitted request reaches exactly one
//      terminal status (stats().conserved() after shutdown).
//   2. No deadlock: shutdown(kDrain) returns (the ctest TIMEOUT is the
//      backstop).
//   3. Bit-identity: every OK response for a healthy GEMM request
//      equals the fault-free serial reference exactly, injected faults
//      and degraded retries notwithstanding.
//
// Without TILESPARSE_ENABLE_FAULTS the suite still runs fault-free and
// checks the same invariants under concurrency alone.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exec/backend_registry.hpp"
#include "exec/batch_entry.hpp"
#include "exec/exec_context.hpp"
#include "exec/graph.hpp"
#include "io/serialize.hpp"
#include "prune/importance.hpp"
#include "prune/tw_pruner.hpp"
#include "serve/serving_runtime.hpp"
#include "tensor/ops.hpp"
#include "util/fault_injection.hpp"
#include "util/rng.hpp"

namespace tilesparse::serve {
namespace {

using namespace std::chrono_literals;

MatrixF random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Rng rng(seed);
  MatrixF m(rows, cols);
  fill_normal(m, rng);
  return m;
}

bool bit_identical(const MatrixF& a, const MatrixF& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  return a.size() == 0 ||
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

std::unique_ptr<PackedWeight> pack_sparse(const MatrixF& w, std::size_t g) {
  const MatrixF scores = magnitude_scores(w);
  const TilePattern pattern = tw_pattern_from_scores(scores, 0.6, g);
  PackOptions options;
  options.pattern = &pattern;
  options.scores = &scores;
  return make_packed("tw", w, options);
}

// Shared fixture state: weights, inputs, the fault-free serial
// reference results, and a small on-disk artifact for the io requests.
class ServeChaosTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dense_w_ = new MatrixF(random_matrix(48, 96, 101));
    sparse_w_ = new MatrixF(random_matrix(48, 96, 102));
    input_ = new MatrixF(random_matrix(6, 48, 103));
    dense_packed_ = pack_for("dense");
    sparse_packed_ = pack_sparse(*sparse_w_, 16).release();
    // References computed here, before any test arms fault injection.
    dense_ref_ = new MatrixF(dense_packed_->matmul(ExecContext{}, *input_));
    sparse_ref_ = new MatrixF(sparse_packed_->matmul(ExecContext{}, *input_));
    artifact_path_ = new std::string(
        (std::filesystem::temp_directory_path() / "serve_chaos_w.tspw")
            .string());
    save_packed_weight(*artifact_path_, *dense_packed_);
  }

  static void TearDownTestSuite() {
    std::remove(artifact_path_->c_str());
    delete dense_w_;
    delete sparse_w_;
    delete input_;
    delete dense_packed_;
    delete sparse_packed_;
    delete dense_ref_;
    delete sparse_ref_;
    delete artifact_path_;
  }

  static PackedWeight* pack_for(const std::string& format) {
    return make_packed(format, *dense_w_).release();
  }

  static MatrixF* dense_w_;
  static MatrixF* sparse_w_;
  static MatrixF* input_;
  static PackedWeight* dense_packed_;
  static PackedWeight* sparse_packed_;
  static MatrixF* dense_ref_;
  static MatrixF* sparse_ref_;
  static std::string* artifact_path_;
};

MatrixF* ServeChaosTest::dense_w_ = nullptr;
MatrixF* ServeChaosTest::sparse_w_ = nullptr;
MatrixF* ServeChaosTest::input_ = nullptr;
PackedWeight* ServeChaosTest::dense_packed_ = nullptr;
PackedWeight* ServeChaosTest::sparse_packed_ = nullptr;
MatrixF* ServeChaosTest::dense_ref_ = nullptr;
MatrixF* ServeChaosTest::sparse_ref_ = nullptr;
std::string* ServeChaosTest::artifact_path_ = nullptr;

// Request factories.  Each builds its graph locally inside the work
// callable, so concurrent workers never share mutable graph state.

Request gemm_request(const PackedWeight* packed, const MatrixF* input,
                     Priority priority, std::string tag) {
  Request request;
  request.priority = priority;
  request.tag = std::move(tag);
  request.work = [packed, input](WorkerContext& ctx) {
    ExecGraph g;
    const auto in = g.add_slot("in");
    const auto out = g.add_slot("out");
    g.add_gemm("gemm", packed, in, out);
    g.slot(in) = *input;
    ctx.scheduler.run(g);
    return std::move(g.slot(out));
  };
  return request;
}

Request poison_request(std::string tag) {
  Request request;
  request.priority = Priority::kBatch;
  request.tag = std::move(tag);
  request.work = [](WorkerContext& ctx) -> MatrixF {
    ExecGraph g;
    const auto s = g.add_slot("s");
    g.add_host("boom", {}, {s}, [](ExecGraph&) {
      throw std::runtime_error("poisoned node");
    });
    ctx.scheduler.run(g);
    return MatrixF(1, 1);
  };
  return request;
}

Request slow_request(std::string tag) {
  Request request;
  request.priority = Priority::kNormal;
  request.tag = std::move(tag);
  request.deadline = Clock::now() + 2ms;
  request.work = [](WorkerContext& ctx) {
    ExecGraph g;
    ExecGraph::SlotId prev = g.add_slot("s0");
    g.add_host("n0", {}, {prev},
               [](ExecGraph&) { std::this_thread::sleep_for(500us); });
    for (int i = 1; i < 8; ++i) {
      const auto next = g.add_slot("s" + std::to_string(i));
      g.add_host("n" + std::to_string(i), {prev}, {next},
                 [](ExecGraph&) { std::this_thread::sleep_for(500us); });
      prev = next;
    }
    ctx.scheduler.run(g);
    MatrixF done(1, 1);
    done(0, 0) = 1.0f;
    return done;
  };
  return request;
}

Request artifact_request(const std::string* path, const MatrixF* input,
                         std::string tag) {
  Request request;
  request.priority = Priority::kNormal;
  request.tag = std::move(tag);
  request.work = [path, input](WorkerContext&) {
    // Exercises the kIoRead fault site; a corrupt/unreadable artifact
    // surfaces as a FAILED request, never a dead worker.
    const auto packed = load_packed_weight(*path);
    return packed->matmul(ExecContext{}, *input);
  };
  return request;
}

// The retry books, rebuilt from the responses: every attempt beyond a
// request's first is one retry, and degraded_ok counts exactly the OK
// responses served on the fallback.  Classic and batched traffic must
// both balance against runtime.stats(), whichever path each took.
struct RetryLedger {
  std::uint64_t retries = 0;
  std::uint64_t degraded_ok = 0;

  void add(const Response& response) {
    retries += std::max<std::uint32_t>(response.attempts, 1) - 1;
    if (response.status == RequestStatus::kOk && response.degraded)
      ++degraded_ok;
  }

  void expect_matches(const ServingRuntime::Stats& stats, int iter) const {
    EXPECT_EQ(stats.retries, retries) << "iteration " << iter;
    EXPECT_EQ(stats.degraded_ok, degraded_ok) << "iteration " << iter;
  }
};

TEST_F(ServeChaosTest, HundredIterationsConserveAndStayBitIdentical) {
  constexpr int kIterations = 100;
  std::uint64_t total_ok = 0, total_failed = 0, total_timeout = 0,
                total_shed = 0;

  for (int iter = 0; iter < kIterations; ++iter) {
    FaultConfig config;
    config.seed = 1000 + static_cast<std::uint64_t>(iter);
    config.with_rate(FaultSite::kSchedulerDispatch, 0.05)
        .with_rate(FaultSite::kKernelEntry, 0.02)
        .with_rate(FaultSite::kIoRead, 0.10);
    ScopedFaults faults(config);

    ServingOptions options;
    options.workers = 3;
    options.streams = 2;
    // Big enough to admit the whole burst: the poison/slow requests must
    // actually execute to exercise FAILED/TIMEOUT (shedding under
    // saturation has its own deterministic coverage in serve_test).
    options.queue_capacity = 16;
    options.max_attempts = 2;
    options.retry_backoff = 50us;
    ServingRuntime runtime(options);

    struct Expected {
      RequestHandle handle;
      const MatrixF* reference;  ///< non-null: OK must be bit-identical
    };
    std::vector<Expected> submitted;
    for (int i = 0; i < 12; ++i) {
      const std::string tag = std::to_string(iter) + "/" + std::to_string(i);
      switch (i % 6) {
        case 0:
        case 1:
          submitted.push_back(
              {runtime.submit(gemm_request(dense_packed_, input_,
                                           Priority::kInteractive,
                                           "dense-" + tag)),
               dense_ref_});
          break;
        case 2:
          submitted.push_back(
              {runtime.submit(gemm_request(sparse_packed_, input_,
                                           Priority::kNormal, "tw-" + tag)),
               sparse_ref_});
          break;
        case 3:
          submitted.push_back(
              {runtime.submit(poison_request("poison-" + tag)), nullptr});
          break;
        case 4:
          submitted.push_back(
              {runtime.submit(slow_request("slow-" + tag)), nullptr});
          break;
        case 5:
          submitted.push_back(
              {runtime.submit(artifact_request(artifact_path_, input_,
                                               "artifact-" + tag)),
               dense_ref_});
          break;
      }
    }

    // No-deadlock promise: this must return (ctest TIMEOUT backstops).
    runtime.shutdown(ServingRuntime::Shutdown::kDrain);

    RetryLedger retry_ledger;
    for (const Expected& entry : submitted) {
      ASSERT_TRUE(entry.handle->done());
      const Response& response = entry.handle->response();
      ASSERT_NE(response.status, RequestStatus::kPending);
      retry_ledger.add(response);
      switch (response.status) {
        case RequestStatus::kOk:
          ++total_ok;
          if (entry.reference != nullptr) {
            // Bit-identity even when retries ran degraded or faults
            // fired around this request.
            ASSERT_TRUE(bit_identical(response.result, *entry.reference))
                << "tag " << response.tag << " attempts " << response.attempts
                << " degraded " << response.degraded;
          }
          break;
        case RequestStatus::kFailed:
          ++total_failed;
          EXPECT_FALSE(response.error.empty());
          break;
        case RequestStatus::kTimeout:
          ++total_timeout;
          break;
        case RequestStatus::kRejected:
          ++total_shed;
          break;
        case RequestStatus::kPending:
          break;
      }
    }

    const auto stats = runtime.stats();
    ASSERT_TRUE(stats.conserved())
        << "iteration " << iter << ": submitted " << stats.submitted
        << " terminal " << stats.terminal() << " admitted " << stats.admitted;
    ASSERT_EQ(stats.submitted, 12u);
    retry_ledger.expect_matches(stats, iter);
  }

  // Poison requests exist every iteration, so failures are guaranteed;
  // OK traffic must also have survived the chaos.
  EXPECT_GE(total_failed, static_cast<std::uint64_t>(kIterations));
  EXPECT_GT(total_ok, 0u);
  if (faults_compiled_in()) {
    // The injection points must actually have fired under these rates
    // (deterministic for the fixed seeds above).
    EXPECT_GT(fault_counts().total_fired(), 0u);
  }
  (void)total_timeout;
  (void)total_shed;
}

// The same chaos mix with cross-request batching ENABLED and every
// request billed to a tenant: batchable dense/tw traffic coalesces into
// wide-M runs while poison and deadline-racing requests ride alongside.
// On top of the three global promises, conservation must hold PER
// TENANT — one tenant's faults never leak statuses into another's
// ledger — and every OK batchable response must still be bit-identical
// to the fault-free solo reference, whether it was served batched, solo
// after a bypass, or re-run on the fallback after a batch fault.
TEST_F(ServeChaosTest, BatchedHundredIterationsConservePerTenant) {
  constexpr int kIterations = 100;
  std::uint64_t total_ok = 0, total_failed = 0, total_batched_members = 0;

  for (int iter = 0; iter < kIterations; ++iter) {
    FaultConfig config;
    config.seed = 5000 + static_cast<std::uint64_t>(iter);
    config.with_rate(FaultSite::kSchedulerDispatch, 0.05)
        .with_rate(FaultSite::kKernelEntry, 0.02);
    ScopedFaults faults(config);

    ServingOptions options;
    options.workers = 3;
    options.streams = 2;
    options.queue_capacity = 16;
    options.max_attempts = 2;
    options.retry_backoff = 50us;
    options.batch.enabled = true;
    options.batch.max_linger = 500us;
    options.batch.max_batch_m = 64;
    ServingRuntime runtime(options);
    runtime.register_batch_entry(make_gemm_entry("dense", dense_packed_));
    runtime.register_batch_entry(make_gemm_entry("tw", sparse_packed_));

    struct Expected {
      RequestHandle handle;
      const MatrixF* reference;  ///< non-null: OK must be bit-identical
    };
    std::vector<Expected> submitted;
    auto batchable = [&](const char* entry, std::string tenant,
                         Clock::time_point deadline) {
      Request request;
      request.entry = entry;
      request.input = *input_;
      request.tenant_id = std::move(tenant);
      request.deadline = deadline;
      request.tag = entry;
      return request;
    };
    const auto never = Clock::time_point::max();
    for (int i = 0; i < 12; ++i) {
      const std::string tenant = "tenant-" + std::to_string(i % 3);
      switch (i % 6) {
        case 0:
        case 1:
          submitted.push_back(
              {runtime.submit(batchable("dense", tenant, never)), dense_ref_});
          break;
        case 2:
          submitted.push_back(
              {runtime.submit(batchable("tw", tenant, never)), sparse_ref_});
          break;
        case 3: {
          Request poison = poison_request("poison");
          poison.tenant_id = tenant;
          submitted.push_back({runtime.submit(std::move(poison)), nullptr});
          break;
        }
        case 4: {
          Request slow = slow_request("slow");
          slow.tenant_id = tenant;
          submitted.push_back({runtime.submit(std::move(slow)), nullptr});
          break;
        }
        case 5:
          // Deadline racing the linger window: exercises the bypass
          // path and in-batch expiry, whichever the race produces.
          submitted.push_back(
              {runtime.submit(batchable("dense", tenant,
                                        Clock::now() + 300us)),
               dense_ref_});
          break;
      }
    }

    runtime.shutdown(ServingRuntime::Shutdown::kDrain);

    RetryLedger retry_ledger;
    for (const Expected& entry : submitted) {
      ASSERT_TRUE(entry.handle->done());
      const Response& response = entry.handle->response();
      retry_ledger.add(response);
      switch (response.status) {
        case RequestStatus::kOk:
          ++total_ok;
          if (entry.reference != nullptr) {
            ASSERT_TRUE(bit_identical(response.result, *entry.reference))
                << "tag " << response.tag << " batched " << response.batched
                << " attempts " << response.attempts << " degraded "
                << response.degraded;
          }
          break;
        case RequestStatus::kFailed:
          ++total_failed;
          break;
        default:
          break;
      }
    }

    const auto stats = runtime.stats();
    ASSERT_TRUE(stats.conserved())
        << "iteration " << iter << ": submitted " << stats.submitted
        << " terminal " << stats.terminal();
    ASSERT_EQ(stats.submitted, 12u);
    retry_ledger.expect_matches(stats, iter);
    std::uint64_t tenant_submitted = 0;
    for (const auto& [tenant, per_tenant] : runtime.tenant_stats()) {
      ASSERT_TRUE(per_tenant.conserved())
          << "iteration " << iter << " tenant " << tenant << ": submitted "
          << per_tenant.submitted << " terminal " << per_tenant.terminal()
          << " admitted " << per_tenant.admitted;
      tenant_submitted += per_tenant.submitted;
    }
    // The tenant ledgers partition the global one exactly.
    ASSERT_EQ(tenant_submitted, stats.submitted);
    total_batched_members += runtime.batch_stats().batched_members;
  }

  EXPECT_GE(total_failed, static_cast<std::uint64_t>(kIterations));
  EXPECT_GT(total_ok, 0u);
  // Batching must actually have happened across the run, not just
  // degraded to solo everywhere.
  EXPECT_GT(total_batched_members, 0u);
}

TEST_F(ServeChaosTest, InjectedIoFaultSurfacesAsRequestError) {
  if (!faults_compiled_in()) GTEST_SKIP() << "faults not compiled in";
  FaultConfig config;
  config.seed = 7;
  config.with_rate(FaultSite::kIoRead, 1.0);  // every read throws
  ScopedFaults faults(config);

  ServingOptions options;
  options.workers = 1;
  options.max_attempts = 2;
  options.retry_backoff = 50us;
  ServingRuntime runtime(options);
  auto handle =
      runtime.submit(artifact_request(artifact_path_, input_, "io-fault"));
  const Response& response = handle->wait();
  EXPECT_EQ(response.status, RequestStatus::kFailed);
  EXPECT_NE(response.error.find("io.read"), std::string::npos);
  EXPECT_EQ(response.attempts, 2u);  // retried, then exhausted
  runtime.shutdown();
  EXPECT_TRUE(runtime.stats().conserved());
}

TEST_F(ServeChaosTest, TruncatedArtifactFailsRequestNotRuntime) {
  // A genuinely corrupt artifact (no fault injection involved): copy
  // the container and cut it short, then serve from the stump.
  const std::string corrupt_path =
      (std::filesystem::temp_directory_path() / "serve_chaos_corrupt.tspw")
          .string();
  {
    std::ifstream in(*artifact_path_, std::ios::binary);
    ASSERT_TRUE(in.good());
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    ASSERT_GT(bytes.size(), 16u);
    std::ofstream out(corrupt_path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }

  ServingOptions options;
  options.workers = 1;
  options.retry_backoff = 50us;
  ServingRuntime runtime(options);
  auto bad =
      runtime.submit(artifact_request(&corrupt_path, input_, "corrupt"));
  EXPECT_EQ(bad->wait().status, RequestStatus::kFailed);
  // The worker that absorbed the load failure still serves real work.
  auto good = runtime.submit(
      gemm_request(dense_packed_, input_, Priority::kNormal, "after-corrupt"));
  const Response& response = good->wait();
  ASSERT_EQ(response.status, RequestStatus::kOk) << response.error;
  EXPECT_TRUE(bit_identical(response.result, *dense_ref_));
  runtime.shutdown();
  EXPECT_TRUE(runtime.stats().conserved());
  std::remove(corrupt_path.c_str());
}

}  // namespace
}  // namespace tilesparse::serve
