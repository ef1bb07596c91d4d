#include "sim/engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "obs/catalog.hpp"

namespace beesim::sim {

// Instrument references are resolved once (function-local statics) so the
// registry lock is never taken after the first flush. The engine keeps
// its own plain counters on the hot path and flushes deltas here at the
// end of each run()/run_until() call (and on destruction): with
// observability disabled the event loop performs zero instrument calls,
// and with it enabled the flushed totals match per-event increments
// exactly.
namespace {

struct EngineMetrics {
  obs::Counter& scheduled =
      obs::registry().counter(obs::metric::kEngineEventsScheduled);
  obs::Counter& executed =
      obs::registry().counter(obs::metric::kEngineEventsExecuted);
  obs::Counter& cancelled =
      obs::registry().counter(obs::metric::kEngineEventsCancelled);
  obs::Gauge& max_queue_depth =
      obs::registry().gauge(obs::metric::kEngineMaxQueueDepth);

  static EngineMetrics& get() {
    static EngineMetrics m;
    return m;
  }
};

/// Heap order: std::push_heap/pop_heap keep the greatest element on top,
/// so "greater" means later in (at, seq) order.
constexpr auto later = [](const auto& a, const auto& b) noexcept {
  return a.at != b.at ? a.at > b.at : a.seq > b.seq;
};

EventId make_id(std::uint32_t slot, std::uint32_t gen) noexcept {
  return (static_cast<EventId>(gen) << 32) | static_cast<EventId>(slot + 1);
}

}  // namespace

Engine::~Engine() { flush_metrics(); }

void Engine::flush_metrics() noexcept {
  if (!obs::enabled()) return;
  auto& m = EngineMetrics::get();
  m.scheduled.inc(scheduled_total_ - flushed_scheduled_);
  m.executed.inc(executed_ - flushed_executed_);
  m.cancelled.inc(cancelled_total_ - flushed_cancelled_);
  flushed_scheduled_ = scheduled_total_;
  flushed_executed_ = executed_;
  flushed_cancelled_ = cancelled_total_;
  m.max_queue_depth.update_max(static_cast<double>(max_live_));
}

EventId Engine::schedule_at(SimTime at, Callback fn) {
  if (at < now_)
    throw std::invalid_argument("Engine::schedule_at: time in the past");
  if (!fn) throw std::invalid_argument("Engine::schedule_at: null callback");
  std::uint32_t idx;
  if (free_slots_.empty()) {
    idx = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    idx = free_slots_.back();
    free_slots_.pop_back();
  }
  Slot& s = slots_[idx];
  s.fn = std::move(fn);
  queue_.push_back({at, next_seq_++, idx, s.gen});
  std::push_heap(queue_.begin(), queue_.end(), later);
  ++scheduled_total_;
  if (++live_ > max_live_) max_live_ = live_;
  return make_id(idx, s.gen);
}

EventId Engine::schedule_after(SimTime delay, Callback fn) {
  if (delay < 0.0)
    throw std::invalid_argument("Engine::schedule_after: negative delay");
  return schedule_at(now_ + delay, std::move(fn));
}

void Engine::free_slot(std::uint32_t slot) {
  ++slots_[slot].gen;  // the slot's heap entry and EventId go stale
  free_slots_.push_back(slot);
}

bool Engine::cancel(EventId id) {
  // Id 0 ("none") decodes to slot 0xffffffff and fails the bounds check.
  const auto idx = static_cast<std::uint32_t>(id) - 1;
  if (idx >= slots_.size() || slots_[idx].gen != id >> 32) return false;
  slots_[idx].fn = nullptr;
  free_slot(idx);
  --live_;
  ++cancelled_total_;
  return true;
}

void Engine::execute_top() {
  std::pop_heap(queue_.begin(), queue_.end(), later);
  const Entry e = queue_.back();
  queue_.pop_back();
  if (slots_[e.slot].gen != e.gen) return;  // cancelled
  // The slot is freed before the callback runs: the callback may grow
  // slots_, and its own id no longer cancels anything.
  Callback fn = std::move(slots_[e.slot].fn);
  free_slot(e.slot);
  --live_;
  now_ = e.at;
  ++executed_;
  fn(*this);
}

void Engine::run_until(SimTime until) {
  if (until < now_)
    throw std::invalid_argument("Engine::run_until: horizon in the past");
  while (!queue_.empty() && queue_.front().at <= until) execute_top();
  now_ = until;
  flush_metrics();
}

void Engine::run() {
  while (!queue_.empty()) execute_top();
  flush_metrics();
}

PeriodicTask::PeriodicTask(Engine& engine, SimTime start, SimTime period,
                           Callback fn)
    : engine_(&engine), period_(period), fn_(std::move(fn)) {
  if (period_ <= 0.0)
    throw std::invalid_argument("PeriodicTask: non-positive period");
  arm(engine, start);
}

PeriodicTask::~PeriodicTask() { stop(); }

void PeriodicTask::stop() {
  if (stopped_) return;
  stopped_ = true;
  if (pending_ != 0) engine_->cancel(pending_);
  pending_ = 0;
}

void PeriodicTask::set_period(SimTime period) {
  if (period <= 0.0)
    throw std::invalid_argument("PeriodicTask: non-positive period");
  period_ = period;
}

void PeriodicTask::arm(Engine& engine, SimTime at) {
  // The next firing is scheduled after the callback returns, so it takes
  // a later sequence number than anything the callback schedules. stop()
  // from inside the callback cancels nothing (the executing event is no
  // longer pending) and skips the re-arm.
  pending_ = engine.schedule_at(at, [this](Engine& eng) {
    fn_(eng, *this);
    if (!stopped_) arm(eng, eng.now() + period_);
  });
}

}  // namespace beesim::sim
