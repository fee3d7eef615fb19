#include "serve/serving_runtime.hpp"

#include <stdexcept>
#include <utility>

#include "util/guards.hpp"

namespace tilesparse::serve {

std::shared_ptr<const SharedModel> SharedModel::load(const std::string& path) {
  auto model = std::make_shared<SharedModel>();
  model->path = path;
  model->weights = load_model_weights(path);
  return model;
}

std::shared_ptr<const SharedModel> SharedModel::load_mapped(
    const std::string& path) {
  auto model = std::make_shared<SharedModel>();
  model->path = path;
  model->weights = load_model_weights_mapped(path);
  return model;
}

const PackedWeight* SharedModel::find(std::string_view name) const noexcept {
  for (const NamedWeight& entry : weights)
    if (entry.name == name) return entry.weight.get();
  return nullptr;
}

ServingRuntime::ServingRuntime(ServingOptions options) : options_(options) {
  if (options_.workers == 0) options_.workers = 1;
  if (options_.streams == 0) options_.streams = 1;
  if (options_.max_attempts == 0) options_.max_attempts = 1;
  queue_ = std::make_unique<AdmissionQueue<std::shared_ptr<Item>>>(
      options_.queue_capacity);
  batcher_ = std::make_unique<RequestBatcher>(options_.batch, ledger_);
  for (std::size_t w = 0; w < options_.workers; ++w)
    executors_.push_back(std::make_unique<AttemptExecutor>(options_, w));
  // Threads last: workers touch only fully-constructed state.
  for (std::size_t w = 0; w < options_.workers; ++w)
    threads_.emplace_back([this, w] { worker_loop(w); });
}

ServingRuntime::~ServingRuntime() { shutdown(Shutdown::kDrain); }

RequestHandle ServingRuntime::submit(Request request) {
  const bool batchable = !request.entry.empty();
  if (!batchable && !request.work) {
    throw std::invalid_argument("ServingRuntime::submit: null work callable");
  }
  if (batchable && request.work) {
    throw std::invalid_argument(
        "ServingRuntime::submit: a request carries either work or a batch "
        "entry, not both");
  }
  auto item = std::make_shared<Item>();
  if (batchable) {
    item->entry = batch_entry(request.entry);
    if (!item->entry) {
      throw std::invalid_argument("ServingRuntime::submit: unknown batch entry '" +
                                  request.entry + "'");
    }
    if (request.input.rows() == 0 ||
        request.input.rows() % item->entry->group_rows_in() != 0 ||
        request.input.cols() != item->entry->input_cols()) {
      throw std::invalid_argument(
          "ServingRuntime::submit: input for entry '" + request.entry +
          "' must be a non-empty multiple of " +
          std::to_string(item->entry->group_rows_in()) + " rows x " +
          std::to_string(item->entry->input_cols()) + " cols");
    }
  }
  BatchMember& member = item->member;
  member.handle = std::make_shared<PendingRequest>(
      next_id_.fetch_add(1, std::memory_order_relaxed));
  member.enqueued = Clock::now();
  member.deadline = request.deadline;
  if (member.deadline == Clock::time_point::max() &&
      options_.default_deadline != Clock::duration::max()) {
    member.deadline = member.enqueued + options_.default_deadline;
  }
  member.input = std::move(request.input);
  member.tenant = std::move(request.tenant_id);
  member.tag = std::move(request.tag);
  member.cost = item->entry ? item->entry->cost(member.input.rows()) : 0.0;
  item->work = std::move(request.work);
  // Copies: once admitted, a worker may pop the item and move from it.
  const RequestHandle handle = member.handle;
  const std::string tenant = member.tenant;
  ledger_.submitted(tenant);

  std::shared_ptr<Item> shed;
  switch (queue_->push(item, request.priority,
                       options_.evict_lower_priority ? &shed : nullptr,
                       tenant)) {
    case PushOutcome::kAdmittedAfterEvict:
      TS_CHECK(shed != nullptr, "ServingRuntime: evict outcome without victim");
      ledger_.finish(shed->member,
                     terminal_response(RequestStatus::kRejected,
                                       "shed from admission queue for a "
                                       "higher-priority arrival"),
                     RequestLedger::Shed::kEvicted);
      [[fallthrough]];
    case PushOutcome::kAdmitted:
      ledger_.admitted(tenant);
      break;
    case PushOutcome::kRejectedFull:
      ledger_.finish(member,
                     terminal_response(RequestStatus::kRejected,
                                       "admission queue full"),
                     RequestLedger::Shed::kQueueFull);
      break;
    case PushOutcome::kRejectedClosed:
      ledger_.finish(member,
                     terminal_response(RequestStatus::kRejected,
                                       "runtime shutting down"),
                     RequestLedger::Shed::kClosed);
      break;
  }
  return handle;
}

void ServingRuntime::register_batch_entry(std::shared_ptr<BatchEntry> entry) {
  TS_CHECK(entry != nullptr, "register_batch_entry: null entry");
  std::lock_guard lock(entries_mutex_);
  entries_[entry->name()] = std::move(entry);
}

std::shared_ptr<BatchEntry> ServingRuntime::batch_entry(
    std::string_view name) const {
  std::lock_guard lock(entries_mutex_);
  auto it = entries_.find(name);
  return it == entries_.end() ? nullptr : it->second;
}

void ServingRuntime::serve_one(AttemptExecutor& executor, Item& item) {
  BatchMember& member = item.member;
  member.arrival = Clock::now();
  if (member.arrival >= member.deadline) {
    ledger_.finish(member,
                   terminal_response(RequestStatus::kTimeout,
                                     "deadline expired in admission queue"));
    return;
  }
  if (item.entry) {
    // Entry request: the batcher completes it — inside a wide-M run
    // with members other workers deposited, or solo when batching is
    // off or its deadline cannot afford the linger.  This worker may
    // serve as the batch leader for a while; that is by design — the
    // remaining workers keep popping and feeding the forming batch.
    batcher_->serve(item.entry, std::move(member), executor);
    return;
  }
  Response response =
      executor.run(member.deadline, [&](WorkerContext& context) {
        // Pin the attached model for this attempt: a concurrent
        // attach_model must not destroy storage (possibly a borrowed
        // mmap) the work callable is executing against.
        const std::shared_ptr<const SharedModel> pinned_model = model();
        context.model = pinned_model.get();
        return item.work(context);
      });
  ledger_.finish(member, std::move(response));
}

void ServingRuntime::worker_loop(std::size_t worker_id) {
  AttemptExecutor& executor = *executors_[worker_id];
  std::shared_ptr<Item> item;
  while (queue_->pop(item)) {
    serve_one(executor, *item);
    item = nullptr;  // release it before blocking on the next pop
  }
}

void ServingRuntime::shutdown(Shutdown mode) {
  {
    std::lock_guard lock(shutdown_mutex_);
    if (shut_down_) return;
    shut_down_ = true;
  }
  if (mode == Shutdown::kCancel) {
    // Backlog first (so workers cannot pop any of it), then members
    // queued inside the batcher, then in-flight work.
    std::vector<std::shared_ptr<Item>> backlog = queue_->close_and_drain();
    for (std::shared_ptr<Item>& item : backlog) {
      ledger_.finish(item->member,
                     terminal_response(RequestStatus::kTimeout,
                                       "cancelled: runtime shutdown"));
    }
    batcher_->close(RequestBatcher::Close::kCancel);
    for (auto& executor : executors_) executor->cancel();
  } else {
    queue_->close();
    // Leaders flush without further lingering; members still drain.
    batcher_->close(RequestBatcher::Close::kDrain);
  }
  for (std::thread& thread : threads_)
    if (thread.joinable()) thread.join();
}

void ServingRuntime::attach_model(std::shared_ptr<const SharedModel> model) {
  const std::lock_guard<std::mutex> lock(model_mutex_);
  model_ = std::move(model);
}

std::shared_ptr<const SharedModel> ServingRuntime::model() const {
  const std::lock_guard<std::mutex> lock(model_mutex_);
  return model_;
}

}  // namespace tilesparse::serve
