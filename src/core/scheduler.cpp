#include "core/scheduler.hpp"

#include <algorithm>
#include <vector>

#include "util/error.hpp"

namespace parcl::core {

Scheduler::Scheduler(const Options& options, Executor& executor)
    : options_(options),
      executor_(executor),
      slots_(options.effective_jobs()),
      pressure_gated_(options.memfree_bytes > 0 || options.load_max > 0.0) {}

std::size_t Scheduler::acquire_slot() {
  // SlotPool only hands out the lowest free slot, so scan by acquiring and
  // setting aside the unusable ones, then give those back. Default backends
  // accept every slot, making this a single acquire.
  std::vector<std::size_t> rejected;
  std::optional<std::size_t> got;
  while (slots_.any_free()) {
    std::size_t slot = slots_.acquire();
    if (executor_.slot_usable(slot)) {
      got = slot;
      break;
    }
    rejected.push_back(slot);
  }
  for (std::size_t slot : rejected) slots_.release(slot);
  if (!got) throw util::InternalError("no usable slot free");
  return *got;
}

bool Scheduler::sync_capacity() {
  std::size_t capacity = executor_.slot_capacity();
  if (capacity <= slots_.capacity()) return false;
  slots_.grow_to(capacity);
  return true;
}

bool Scheduler::slot_free() const {
  if (!slots_.any_free()) return false;
  for (std::size_t slot = 1; slot <= slots_.capacity(); ++slot) {
    if (!slots_.held(slot) && executor_.slot_usable(slot)) return true;
  }
  return false;
}

std::optional<std::size_t> Scheduler::acquire_slot_distinct(std::size_t other) {
  std::vector<std::size_t> rejected;
  std::optional<std::size_t> got;
  while (slots_.any_free()) {
    std::size_t slot = slots_.acquire();
    if (executor_.slot_usable(slot) && !executor_.same_failure_domain(slot, other)) {
      got = slot;
      break;
    }
    rejected.push_back(slot);
  }
  for (std::size_t slot : rejected) slots_.release(slot);
  return got;
}

double Scheduler::next_start_time() const {
  if (options_.delay_seconds <= 0.0) return executor_.now();
  return std::max(executor_.now(), last_start_ + options_.delay_seconds);
}

bool Scheduler::pressure_allows_start() {
  if (!pressure_gated_) return true;
  double now = executor_.now();
  if (pressure_checked_at_ >= 0.0 && now - pressure_checked_at_ < kPressureRecheck) {
    return !pressure_blocked_;
  }
  pressure_checked_at_ = now;
  ResourcePressure pressure = executor_.pressure();
  bool blocked = false;
  if (options_.memfree_bytes > 0 && pressure.mem_free_bytes >= 0.0 &&
      pressure.mem_free_bytes < static_cast<double>(options_.memfree_bytes)) {
    blocked = true;
  }
  if (options_.load_max > 0.0 && pressure.load_avg >= 0.0 &&
      pressure.load_avg > options_.load_max) {
    blocked = true;
  }
  pressure_blocked_ = blocked;
  return !blocked;
}

void Scheduler::set_stage_limit(std::size_t stage, std::size_t cap) {
  if (stage == 0 || cap == 0) return;  // stage 0 / cap 0: never gated
  stages_by_id_[stage].cap = cap;
}

bool Scheduler::stage_allows(std::size_t stage) const noexcept {
  auto it = stages_by_id_.find(stage);
  if (it == stages_by_id_.end() || it->second.cap == 0) return true;
  return it->second.in_flight < it->second.cap;
}

void Scheduler::note_stage_start(std::size_t stage) {
  if (stage == 0) return;
  ++stages_by_id_[stage].in_flight;
}

void Scheduler::note_stage_end(std::size_t stage) {
  if (stage == 0) return;
  auto it = stages_by_id_.find(stage);
  if (it == stages_by_id_.end() || it->second.in_flight == 0) {
    throw util::InternalError("stage gate underflow");
  }
  --it->second.in_flight;
}

Scheduler::HaltAction Scheduler::evaluate_halt(std::size_t failed, std::size_t succeeded,
                                               std::size_t done,
                                               std::size_t total_jobs) {
  if (stop_starting_ ||
      !options_.halt.triggered(failed, succeeded, done, total_jobs)) {
    return HaltAction::kNone;
  }
  stop_starting_ = true;
  return options_.halt.when == HaltWhen::kNow ? HaltAction::kKillRunning
                                              : HaltAction::kStopStarting;
}

// ---------------------------------------------------------------------------
// FairShareQueue
// ---------------------------------------------------------------------------

void FairShareQueue::attach(const std::string& tenant, double weight) {
  util::require(weight > 0.0, "tenant weight must be > 0");
  auto it = tenants_.find(tenant);
  if (it != tenants_.end()) {
    it->second.weight = weight;
    return;
  }
  Tenant t;
  t.weight = weight;
  tenants_.emplace(tenant, std::move(t));
  order_.push_back(tenant);
}

std::vector<std::uint64_t> FairShareQueue::detach(const std::string& tenant) {
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) return {};
  std::vector<std::uint64_t> dropped(it->second.queue.begin(),
                                     it->second.queue.end());
  total_queued_ -= it->second.queue.size();
  tenants_.erase(it);
  auto pos = std::find(order_.begin(), order_.end(), tenant);
  std::size_t index = static_cast<std::size_t>(pos - order_.begin());
  order_.erase(pos);
  // Keep the cursor on the tenant it was pointing at; removing an earlier
  // entry shifts everything after it left by one.
  if (!order_.empty()) {
    if (cursor_ > index) --cursor_;
    if (cursor_ >= order_.size()) cursor_ = 0;
  } else {
    cursor_ = 0;
  }
  return dropped;
}

bool FairShareQueue::attached(const std::string& tenant) const {
  return tenants_.count(tenant) != 0;
}

bool FairShareQueue::push(const std::string& tenant, std::uint64_t id) {
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) return false;
  it->second.queue.push_back(id);
  ++total_queued_;
  return true;
}

void FairShareQueue::advance() {
  cursor_ = (cursor_ + 1) % order_.size();
  tenants_[order_[cursor_]].credited_this_visit = false;
}

std::optional<FairShareQueue::Popped> FairShareQueue::pop() {
  if (total_queued_ == 0) return std::nullopt;
  while (true) {
    Tenant& t = tenants_[order_[cursor_]];
    if (t.queue.empty()) {
      // Idle tenants forfeit accumulated credit: deficit is a claim on
      // *contended* service, not a bankable asset.
      t.credit = 0.0;
      advance();
      continue;
    }
    if (!t.credited_this_visit) {
      t.credit += t.weight;
      t.credited_this_visit = true;
    }
    if (t.credit < 1.0) {
      // Sub-unit weight: this tenant serves only every 1/weight rounds.
      advance();
      continue;
    }
    t.credit -= 1.0;
    Popped popped{order_[cursor_], t.queue.front()};
    t.queue.pop_front();
    --total_queued_;
    if (t.queue.empty()) {
      t.credit = 0.0;
      advance();
    } else if (t.credit < 1.0) {
      advance();
    }
    return popped;
  }
}

std::size_t FairShareQueue::queued(const std::string& tenant) const {
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? 0 : it->second.queue.size();
}

}  // namespace parcl::core
