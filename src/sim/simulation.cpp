#include "sim/simulation.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <utility>

namespace flower::sim {

Simulation::Simulation() : wheel_(kWheelSize) {}

void Simulation::SetTelemetry(obs::Telemetry* telemetry) {
  if (telemetry == nullptr) {
    exec_time_us_ = nullptr;
    events_counter_ = nullptr;
    return;
  }
  // Event handlers run in micro- to milliseconds; buckets up to 10 s
  // catch pathological ones.
  obs::HistogramOptions opts;
  opts.min = 0.1;    // 100 ns.
  opts.max = 1e7;    // 10 s.
  exec_time_us_ = telemetry->metrics().GetHistogram("sim.event_exec_us", {},
                                                    opts);
  events_counter_ = telemetry->metrics().GetCounter("sim.events_executed");
  telemetry->trace().SetTrackName(obs::kSimulatorTid, "simulator");
}

Status Simulation::ScheduleAt(SimTime at, Callback cb) {
  if (at < now_) {
    return Status::InvalidArgument("ScheduleAt: time is in the past");
  }
  const int64_t tick = TickOf(at);
  Event ev{at, next_seq_++, std::move(cb)};
  if (active_valid_ && tick == cursor_tick_) {
    // Scheduling onto the tick currently being executed: keep the
    // active bucket sorted. `at >= now_` and the fresh seq guarantee
    // the slot is at or after active_pos_, so already-executed entries
    // are never disturbed.
    auto it = std::lower_bound(active_.begin() +
                                   static_cast<std::ptrdiff_t>(active_pos_),
                               active_.end(), ev, EventBefore);
    active_.insert(it, std::move(ev));
  } else if (tick < cursor_tick_ + static_cast<int64_t>(kWheelSize)) {
    PushToWheel(tick, std::move(ev));
  } else {
    overflow_.push(std::move(ev));
  }
  return Status::OK();
}

Status Simulation::SchedulePeriodic(SimTime start, SimTime period,
                                    std::function<bool()> cb) {
  if (period <= 0) {
    return Status::InvalidArgument("SchedulePeriodic: period must be > 0");
  }
  if (start < now_) {
    return Status::InvalidArgument("SchedulePeriodic: start is in the past");
  }
  size_t id;
  if (!periodic_free_.empty()) {
    id = periodic_free_.back();
    periodic_free_.pop_back();
    periodic_tasks_[id] = PeriodicTask{period, std::move(cb)};
  } else {
    id = periodic_tasks_.size();
    periodic_tasks_.push_back(PeriodicTask{period, std::move(cb)});
  }
  // {this, id} fits std::function's inline storage: no per-recurrence
  // allocation.
  return ScheduleAt(start, [this, id] { RunPeriodic(id); });
}

void Simulation::RunPeriodic(size_t id) {
  // Run the callback from a local: it may itself schedule periodic
  // tasks, growing (reallocating) periodic_tasks_ mid-call.
  std::function<bool()> cb = std::move(periodic_tasks_[id].cb);
  const SimTime period = periodic_tasks_[id].period;
  if (cb()) {
    periodic_tasks_[id].cb = std::move(cb);
    // Ignore failure: re-scheduling "now + period" cannot be in the
    // past.
    (void)ScheduleAfter(period, [this, id] { RunPeriodic(id); });
  } else {
    // Stopped recurring: destroy the callback now so its captures are
    // released (pinned by PeriodicCallbackIsFreedWhenItStopsRecurring),
    // then recycle the slot.
    periodic_free_.push_back(id);
  }
}

void Simulation::PullOverflow() {
  const int64_t horizon = cursor_tick_ + static_cast<int64_t>(kWheelSize);
  while (!overflow_.empty() && TickOf(overflow_.top().time) < horizon) {
    // priority_queue exposes only const top(); moving out before pop is
    // safe because the comparator reads time/seq, never the callback.
    Event& top = const_cast<Event&>(overflow_.top());
    PushToWheel(TickOf(top.time), std::move(top));
    overflow_.pop();
  }
}

void Simulation::PushToWheel(int64_t tick, Event ev) {
  const size_t b = static_cast<size_t>(tick) & kWheelMask;
  wheel_[b].push_back(std::move(ev));
  occupied_[b / 64] |= uint64_t{1} << (b % 64);
  ++wheel_count_;
}

int64_t Simulation::TicksToNextOccupied() const {
  const size_t from = static_cast<size_t>(cursor_tick_) & kWheelMask;
  const size_t first_word = from / 64;
  // Bits above `from` in its own word first, then the following words,
  // wrapping round to the bits below `from` (later ticks of the lap).
  uint64_t word = occupied_[first_word] & (~uint64_t{0} << (from % 64));
  size_t w = first_word;
  for (size_t i = 0; word == 0 && i < occupied_.size(); ++i) {
    w = (w + 1) % occupied_.size();
    word = occupied_[w];
  }
  const size_t next = w * 64 + static_cast<size_t>(std::countr_zero(word));
  return static_cast<int64_t>((next - from) & kWheelMask);
}

Simulation::Event* Simulation::PeekNextUpTo(int64_t limit_tick) {
  for (;;) {
    if (active_valid_) {
      if (active_pos_ < active_.size()) return &active_[active_pos_];
      // Bucket exhausted. Retire it; the cursor may then advance. New
      // events for this tick will land in the (now empty) wheel bucket
      // and re-activate it.
      active_.clear();
      active_pos_ = 0;
      active_valid_ = false;
      // Hand the storage back to the tick's home bucket (empty while
      // active: same-tick schedules went into active_, and overflow
      // never pulls into the active tick). Without this, capacities
      // would permute around the wheel — each activation swap leaves
      // the bucket with the *previous* bucket's buffer — and ticks
      // with above-average load would keep reallocating for many
      // rotations. Returning the buffer home makes a warmed-up wheel
      // allocation-free per bucket.
      {
        std::vector<Event>& home =
            wheel_[static_cast<size_t>(cursor_tick_) & kWheelMask];
        if (home.empty()) home.swap(active_);
      }
      if (cursor_tick_ >= limit_tick) return nullptr;
      ++cursor_tick_;
      PullOverflow();
      continue;
    }
    if (wheel_count_ == 0) {
      // Nothing inside the horizon: jump straight to the next overflow
      // event (or the limit, whichever is earlier).
      if (overflow_.empty()) {
        cursor_tick_ = std::max(cursor_tick_, limit_tick);
        return nullptr;
      }
      const int64_t next_tick = TickOf(overflow_.top().time);
      if (next_tick > limit_tick) {
        cursor_tick_ = std::max(cursor_tick_, limit_tick);
        return nullptr;
      }
      cursor_tick_ = std::max(cursor_tick_, next_tick);
      PullOverflow();
      continue;
    }
    std::vector<Event>& bucket =
        wheel_[static_cast<size_t>(cursor_tick_) & kWheelMask];
    if (!bucket.empty()) {
      // Activate: sort once per bucket. Swapping recycles capacity
      // between the bucket and the active slot, so a warmed-up wheel
      // schedules and activates without allocating.
      std::swap(active_, bucket);
      wheel_count_ -= active_.size();
      const size_t b = static_cast<size_t>(cursor_tick_) & kWheelMask;
      occupied_[b / 64] &= ~(uint64_t{1} << (b % 64));
      if (!std::is_sorted(active_.begin(), active_.end(), EventBefore)) {
        std::sort(active_.begin(), active_.end(), EventBefore);
      }
      active_pos_ = 0;
      active_valid_ = true;
      continue;
    }
    if (cursor_tick_ >= limit_tick) return nullptr;
    // Jump over the empty buckets. Every skipped tick is empty in the
    // wheel, and events pulled from overflow on the way would land at
    // tick >= old cursor + kWheelSize, past the target, so one pull at
    // the target tick is equivalent to stepping tick by tick.
    cursor_tick_ = std::min(limit_tick, cursor_tick_ + TicksToNextOccupied());
    PullOverflow();
  }
}

void Simulation::ExecuteActiveFront() {
  Event& ev = active_[active_pos_];
  now_ = ev.time;
  // Move the callback out: it may schedule into this same tick, which
  // inserts into (and can reallocate) active_ under our feet.
  Callback cb = std::move(ev.cb);
  ++active_pos_;
  ++events_executed_;
  if (events_counter_ != nullptr) events_counter_->Increment();
  if (exec_time_us_ != nullptr) {
    auto t0 = std::chrono::steady_clock::now();
    cb();
    auto t1 = std::chrono::steady_clock::now();
    exec_time_us_->Record(
        std::chrono::duration<double, std::micro>(t1 - t0).count());
  } else {
    cb();
  }
}

bool Simulation::Step() {
  if (pending_events() == 0) return false;
  Event* ev = PeekNextUpTo(kMaxTick);
  // pending_events() > 0 guarantees an event exists below kMaxTick.
  (void)ev;
  ExecuteActiveFront();
  return true;
}

void Simulation::RunUntil(SimTime end) {
  if (end < now_) return;  // Past horizon: nothing to run, clock keeps.
  const int64_t end_tick = TickOf(end);
  for (;;) {
    Event* ev = PeekNextUpTo(end_tick);
    if (ev == nullptr || ev->time > end) break;
    ExecuteActiveFront();
  }
  if (now_ < end) now_ = end;
}

}  // namespace flower::sim
