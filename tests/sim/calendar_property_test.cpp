// Property test pinning the timer-wheel calendar (sim::Simulation) to
// the binary-heap calendar it replaced (sim::RefCalendar): identical
// randomized schedules must execute in byte-identical order on both
// engines. Covers the order-sensitive corners the wheel must preserve:
// same-instant FIFO bursts, periodics landing exactly on RunUntil
// boundaries, in-callback reschedules (including zero-delay chains),
// far-future events beyond the 64 s wheel horizon, Step interleaves,
// RunUntil calls in the past, and sparse calendars whose empty
// stretches the wheel's cursor jumps over (wrapping past the last
// bucket, parking mid-gap, refilling from overflow right after a jump).

#include <functional>
#include <random>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/ref_calendar.h"
#include "sim/simulation.h"

namespace flower::sim {
namespace {

using Log = std::vector<std::pair<int, SimTime>>;

/// Drives one engine through a seeded randomized schedule, recording
/// (event id, firing time) for every execution. Both engines are run
/// with the same seed; the random draws made inside callbacks happen in
/// execution order, so any order divergence makes the logs differ (the
/// failure we are hunting) rather than masking itself.
template <typename Engine>
class ScriptRunner {
 public:
  explicit ScriptRunner(uint64_t seed) : rng_(seed) {}

  Log Run() {
    // Bursts at a handful of shared instants: FIFO within an instant.
    for (int i = 0; i < 48; ++i) {
      ScheduleOneShot(static_cast<double>(rng_() % 7) * 2.5);
    }
    // Far-future events beyond the 64 s wheel horizon (overflow heap).
    for (int i = 0; i < 16; ++i) {
      ScheduleOneShot(70.0 + static_cast<double>(rng_() % 4000) * 0.1);
    }
    // Periodics; the first lands exactly on the RunUntil(10.0) boundary.
    AddPeriodic(2.5, 2.5, 9);
    AddPeriodic(1.0, 3.0, 12);
    AddPeriodic(0.75, 0.5, 40);
    eng_.RunUntil(10.0);
    eng_.RunUntil(4.0);  // In the past: must be a no-op.
    for (int i = 0; i < 7; ++i) eng_.Step();
    eng_.RunUntil(80.0);
    while (eng_.Step()) {
    }
    log_.emplace_back(-1, eng_.Now());
    log_.emplace_back(static_cast<int>(eng_.events_executed()),
                      static_cast<double>(eng_.pending_events()));
    return log_;
  }

 private:
  void ScheduleOneShot(double t) {
    int id = next_id_++;
    Status st = eng_.ScheduleAt(t, [this, id] { OnFire(id); });
    ASSERT_TRUE(st.ok()) << st.ToString();
  }

  void AddPeriodic(double start, double period, int fires) {
    int id = next_id_++;
    auto left = std::make_shared<int>(fires);
    Status st = eng_.SchedulePeriodic(start, period, [this, id, left] {
      log_.emplace_back(id, eng_.Now());
      return --*left > 0;
    });
    ASSERT_TRUE(st.ok()) << st.ToString();
  }

  void OnFire(int id) {
    log_.emplace_back(id, eng_.Now());
    if (budget_ <= 0) return;
    uint64_t roll = rng_() % 100;
    // In-callback reschedules: zero-delay (same instant, later seq),
    // sub-tick, near-future, and past-the-horizon.
    if (roll < 25) {
      --budget_;
      int id2 = next_id_++;
      (void)eng_.ScheduleAfter(0.0, [this, id2] { OnFire(id2); });
    } else if (roll < 45) {
      --budget_;
      int id2 = next_id_++;
      (void)eng_.ScheduleAfter(0.003, [this, id2] { OnFire(id2); });
    } else if (roll < 65) {
      --budget_;
      int id2 = next_id_++;
      (void)eng_.ScheduleAfter(3.7, [this, id2] { OnFire(id2); });
    } else if (roll < 75) {
      --budget_;
      int id2 = next_id_++;
      (void)eng_.ScheduleAfter(120.0, [this, id2] { OnFire(id2); });
    }
  }

  Engine eng_;
  std::mt19937_64 rng_;
  Log log_;
  int next_id_ = 0;
  int budget_ = 200;
};

TEST(CalendarPropertyTest, RandomizedSchedulesMatchReference) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Log wheel = ScriptRunner<Simulation>(seed).Run();
    Log heap = ScriptRunner<RefCalendar>(seed).Run();
    ASSERT_EQ(wheel.size(), heap.size()) << "seed " << seed;
    for (size_t i = 0; i < wheel.size(); ++i) {
      ASSERT_EQ(wheel[i].first, heap[i].first)
          << "seed " << seed << " divergence at step " << i;
      ASSERT_DOUBLE_EQ(wheel[i].second, heap[i].second)
          << "seed " << seed << " divergence at step " << i;
    }
  }
}

TEST(CalendarPropertyTest, SameInstantBurstPreservesSchedulingOrder) {
  Simulation sim;
  std::vector<int> order;
  // 300 events at one instant: more than enough to force bucket
  // activation and mid-burst growth of the active vector.
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(sim.ScheduleAt(1.0, [&order, i] { order.push_back(i); }).ok());
  }
  sim.RunUntil(1.0);
  ASSERT_EQ(order.size(), 300u);
  for (int i = 0; i < 300; ++i) EXPECT_EQ(order[i], i);
}

TEST(CalendarPropertyTest, ZeroDelayChainAtBoundaryMatchesReference) {
  // A callback firing exactly at the RunUntil boundary spawns a
  // zero-delay chain; every link must run inside the same RunUntil on
  // both engines, after everything previously scheduled at that time.
  auto drive = [](auto& eng) {
    Log log;
    for (int i = 0; i < 3; ++i) {
      (void)eng.ScheduleAt(5.0, [&log, &eng, i] {
        log.emplace_back(i, eng.Now());
      });
    }
    std::function<void(int)> chain = [&](int depth) {
      log.emplace_back(100 + depth, eng.Now());
      if (depth < 4) {
        (void)eng.ScheduleAfter(0.0, [&chain, depth] { chain(depth + 1); });
      }
    };
    (void)eng.ScheduleAt(5.0, [&chain] { chain(0); });
    eng.RunUntil(5.0);
    log.emplace_back(-1, static_cast<double>(eng.pending_events()));
    return log;
  };
  Simulation wheel;
  RefCalendar heap;
  EXPECT_EQ(drive(wheel), drive(heap));
}

TEST(CalendarPropertyTest, PeriodicAcrossBoundariesMatchesReference) {
  auto drive = [](auto& eng) {
    Log log;
    (void)eng.SchedulePeriodic(2.0, 2.0, [&log, &eng] {
      log.emplace_back(1, eng.Now());
      return eng.Now() < 19.0;
    });
    (void)eng.SchedulePeriodic(1.0, 2.0, [&log, &eng] {
      log.emplace_back(2, eng.Now());
      return eng.Now() < 14.0;
    });
    // Boundaries land exactly on firings (10.0), between them, and in
    // the past (8.0: no-op).
    eng.RunUntil(10.0);
    eng.RunUntil(8.0);
    eng.RunUntil(10.5);
    eng.RunUntil(20.0);
    log.emplace_back(-1, eng.Now());
    return log;
  };
  Simulation wheel;
  RefCalendar heap;
  EXPECT_EQ(drive(wheel), drive(heap));
}

TEST(CalendarPropertyTest, OverflowMigrationKeepsOrder) {
  // Events far beyond the wheel horizon interleaved with near events;
  // order across the horizon boundary must match the reference.
  auto drive = [](auto& eng) {
    Log log;
    auto fire = [&log, &eng](int id) { log.emplace_back(id, eng.Now()); };
    (void)eng.ScheduleAt(100.0, [&] { fire(1); });
    (void)eng.ScheduleAt(63.9, [&] { fire(2); });
    (void)eng.ScheduleAt(64.1, [&] { fire(3); });
    (void)eng.ScheduleAt(100.0, [&] { fire(4); });  // Same far instant.
    (void)eng.ScheduleAt(1.0, [&] {
      fire(5);
      // Scheduled from inside a callback, still beyond the horizon.
      (void)eng.ScheduleAt(100.0, [&] { fire(6); });
    });
    eng.RunUntil(500.0);
    log.emplace_back(-1, eng.Now());
    return log;
  };
  Simulation wheel;
  RefCalendar heap;
  EXPECT_EQ(drive(wheel), drive(heap));
}

TEST(CalendarPropertyTest, StepDrainsInReferenceOrder) {
  auto drive = [](auto& eng) {
    Log log;
    for (int i = 0; i < 5; ++i) {
      (void)eng.ScheduleAt(3.0, [&log, &eng, i] {
        log.emplace_back(i, eng.Now());
      });
    }
    (void)eng.ScheduleAt(90.0, [&log, &eng] {  // Overflow event.
      log.emplace_back(99, eng.Now());
    });
    while (eng.Step()) {
    }
    EXPECT_FALSE(eng.Step());  // Idempotent on an empty calendar.
    log.emplace_back(-1, eng.Now());
    return log;
  };
  Simulation wheel;
  RefCalendar heap;
  EXPECT_EQ(drive(wheel), drive(heap));
}

// One wheel tick (1/64 s) and the wheel horizon (4096 ticks = 64 s).
constexpr double kTick = 1.0 / 64.0;
constexpr double kHorizon = 4096 * kTick;

TEST(CalendarPropertyTest, SparsePeriodicTimersMatchReference) {
  // Timers whose periods sit around the 64 s horizon: most buckets are
  // empty, and each firing lands on either side of the wheel/overflow
  // boundary. Driven once in a single RunUntil and once in uneven
  // slices.
  auto drive = [](auto& eng, const std::vector<double>& ends) {
    Log log;
    const double periods[] = {5.0, 60.0, 63.99, 64.0, 64.02};
    for (int i = 0; i < 5; ++i) {
      (void)eng.SchedulePeriodic(0.3 * i, periods[i], [&log, &eng, i] {
        log.emplace_back(i, eng.Now());
        return true;
      });
    }
    for (double end : ends) eng.RunUntil(end);
    log.emplace_back(-1, eng.Now());
    log.emplace_back(static_cast<int>(eng.events_executed()),
                     static_cast<double>(eng.pending_events()));
    return log;
  };
  std::vector<double> one_shot = {1000.0};
  std::vector<double> sliced;
  for (double t = 7.3; t < 1000.0; t += 37.7) sliced.push_back(t);
  sliced.push_back(1000.0);
  for (const auto& ends : {one_shot, sliced}) {
    Simulation wheel;
    RefCalendar heap;
    Log a = drive(wheel, ends);
    EXPECT_EQ(a, drive(heap, ends));
    EXPECT_GT(a.size(), 200u);
  }
}

TEST(CalendarPropertyTest, RunUntilEndingInEmptyStretchResumes) {
  // RunUntil ends inside empty stretches: with the next event still in
  // the wheel (20.0 before 40.0, 210.0 before 230.0), with only overflow
  // pending (150.0), and exactly one tick before an event (399.984375).
  // The cursor must park at the end, not at the next event: each resume
  // schedules at Now() and just after it, and those must fire before
  // the events beyond the stretch.
  auto drive = [](auto& eng) {
    Log log;
    auto fire = [&log, &eng](int id) { log.emplace_back(id, eng.Now()); };
    const double at[] = {1.0, 40.0, 200.0, 230.0, 330.0, 400.0};
    for (int i = 0; i < 6; ++i) {
      (void)eng.ScheduleAt(at[i], [&, i] { fire(i); });
    }
    int next = 10;
    for (double end : {20.0, 150.0, 210.0, 400.0 - kTick, 1000.0}) {
      eng.RunUntil(end);
      log.emplace_back(-1, eng.Now());
      const int id = next;
      next += 2;
      (void)eng.ScheduleAt(eng.Now(), [&, id] { fire(id); });
      (void)eng.ScheduleAfter(kTick / 3, [&, id] { fire(id + 1); });
    }
    eng.RunUntil(1000.0);  // Same end again: the Now() event fires.
    eng.RunUntil(2000.0);
    log.emplace_back(-1, eng.Now());
    return log;
  };
  Simulation wheel;
  RefCalendar heap;
  EXPECT_EQ(drive(wheel), drive(heap));
}

TEST(CalendarPropertyTest, SchedulesWrappingPastLastBucketMatchReference) {
  // With the cursor near the end of the first lap (60 s = tick 3840),
  // the horizon wraps: ticks 4096.. live in buckets 0.. behind the
  // cursor's bucket index, and the next-occupied scan must wrap too.
  auto drive = [](auto& eng) {
    Log log;
    auto fire = [&log, &eng](int id) { log.emplace_back(id, eng.Now()); };
    eng.RunUntil(60.0);
    const double at[] = {60.0 + kHorizon - kTick,  // Last wheel tick.
                         60.0 + kHorizon,          // First overflow tick.
                         63.99, 64.0, 64.0 + kTick, 65.5, 70.0,
                         127.0, 64.0 * 3, 64.0 * 3 - kTick};
    for (int i = 0; i < 10; ++i) {
      (void)eng.ScheduleAt(at[i], [&, i] { fire(i); });
    }
    (void)eng.ScheduleAt(64.0, [&] {
      fire(20);
      // From the wrapped bucket 0: wrap again past bucket 4095.
      (void)eng.ScheduleAfter(kHorizon - kTick, [&] { fire(21); });
      (void)eng.ScheduleAfter(kHorizon - 2 * kTick, [&] { fire(22); });
    });
    eng.RunUntil(64.0 - kTick);
    eng.RunUntil(500.0);
    log.emplace_back(-1, eng.Now());
    return log;
  };
  Simulation wheel;
  RefCalendar heap;
  EXPECT_EQ(drive(wheel), drive(heap));
}

TEST(CalendarPropertyTest, HorizonScheduleRightAfterJumpMatchesReference) {
  // Each callback runs right after the cursor jumped over an empty
  // stretch and schedules exactly one horizon (4096 ticks) ahead, which
  // goes to overflow, plus one tick short of it, which lands in the
  // bucket just behind the cursor. The overflow event must migrate
  // into the wheel and fire in (time, seq) order.
  auto drive = [](auto& eng) {
    Log log;
    std::function<void(int, int)> hop = [&](int id, int left) {
      log.emplace_back(id, eng.Now());
      if (left == 0) return;
      (void)eng.ScheduleAfter(kHorizon, [&, id, left] { hop(id, left - 1); });
      (void)eng.ScheduleAfter(kHorizon - kTick, [&log, &eng, id] {
        log.emplace_back(100 + id, eng.Now());
      });
    };
    (void)eng.ScheduleAt(0.5, [&] { log.emplace_back(0, eng.Now()); });
    (void)eng.ScheduleAt(30.0, [&] { hop(1, 6); });
    (void)eng.ScheduleAt(30.0 + 7 * kTick, [&] { hop(2, 6); });
    (void)eng.ScheduleAt(94.0, [&] { log.emplace_back(3, eng.Now()); });
    eng.RunUntil(200.0);
    eng.RunUntil(1000.0);
    log.emplace_back(-1, eng.Now());
    return log;
  };
  Simulation wheel;
  RefCalendar heap;
  EXPECT_EQ(drive(wheel), drive(heap));
}

TEST(CalendarPropertyTest, RandomizedSparseSchedulesMatchReference) {
  // Few events over a long horizon, delays clustered around the horizon
  // and the tick, RunUntil ends at random points, and a schedule near
  // Now() after each of them.
  auto drive = [](auto& eng, uint64_t seed) {
    Log log;
    std::mt19937_64 rng(seed);
    int next = 0;
    int budget = 300;
    std::function<void(int)> fire = [&](int id) {
      log.emplace_back(id, eng.Now());
      if (budget <= 0) return;
      const double delays[] = {0.0,          kTick,       kHorizon - kTick,
                               kHorizon,     kHorizon + kTick, 5.0,
                               150.0,        0.37};
      const int n = static_cast<int>(rng() % 3);
      for (int k = 0; k < n && budget > 0; ++k, --budget) {
        const int id2 = next++;
        (void)eng.ScheduleAfter(delays[rng() % 8], [&, id2] { fire(id2); });
      }
    };
    for (int i = 0; i < 12; ++i) {
      const int id = next++;
      (void)eng.ScheduleAt(static_cast<double>(rng() % 1000000) * 1e-3,
                           [&, id] { fire(id); });
    }
    double t = 0.0;
    while (t < 2000.0) {
      t += static_cast<double>(rng() % 200000) * 1e-3;
      eng.RunUntil(t);
      log.emplace_back(-1, eng.Now());
      // Schedules from outside any callback, between RunUntil calls.
      const int id = next++;
      (void)eng.ScheduleAfter(static_cast<double>(rng() % 3) * kTick,
                              [&, id] { fire(id); });
    }
    while (eng.Step()) {
    }
    log.emplace_back(-2, eng.Now());
    return log;
  };
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Simulation wheel;
    RefCalendar heap;
    EXPECT_EQ(drive(wheel, seed), drive(heap, seed)) << "seed " << seed;
  }
}

}  // namespace
}  // namespace flower::sim
