#include "fleet/fleet_manager.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>

namespace flower::fleet {
namespace {

/// Small fleet tuned for test speed: coarse ticks, short periods.
FleetConfig TestConfig(size_t num_threads) {
  FleetConfig c;
  c.fleet_budget_usd_per_hour = 2.0;  // Tight: forces contention.
  c.arbitration_period_sec = 300.0;
  c.num_threads = num_threads;
  c.partition.workload_emit_period_sec = 10.0;
  c.partition.storm_tick_period_sec = 10.0;
  c.partition.horizon_sec = 3600.0;
  c.arbiter_solver.population_size = 16;
  c.arbiter_solver.generations = 8;
  c.partition.flow_solver.population_size = 8;
  c.partition.flow_solver.generations = 4;
  return c;
}

std::unique_ptr<FleetManager> MakeStartedFleet(size_t tenants,
                                               size_t num_threads) {
  auto fleet = std::make_unique<FleetManager>(TestConfig(num_threads));
  for (TenantConfig& t : MakeTenantFleet(tenants, /*seed=*/7)) {
    // Short monitoring period so a 300 s test period sees steps.
    t.monitoring_period_sec = 60.0;
    EXPECT_TRUE(fleet->AddTenant(std::move(t)).ok());
  }
  EXPECT_TRUE(fleet->Start().ok());
  return fleet;
}

TEST(FleetManagerTest, LifecycleErrors) {
  FleetManager fleet(TestConfig(1));
  EXPECT_FALSE(fleet.Start().ok());  // No tenants.
  TenantConfig t;
  t.id = "dup";
  ASSERT_TRUE(fleet.AddTenant(t).ok());
  EXPECT_FALSE(fleet.AddTenant(t).ok());  // Duplicate id.
  t.id = "other";
  ASSERT_TRUE(fleet.AddTenant(t).ok());
  ASSERT_TRUE(fleet.Start().ok());
  EXPECT_FALSE(fleet.Start().ok());              // Double start.
  EXPECT_FALSE(fleet.AddTenant(t).ok());         // Add after start.
  EXPECT_FALSE(fleet.RunFor(-1.0).ok());         // Negative horizon.
  FleetManager unstarted(TestConfig(1));
  EXPECT_FALSE(unstarted.RunFor(10.0).ok());     // Run before start.
}

TEST(FleetManagerTest, StartRejectsNonFiniteOrNonPositiveBudget) {
  for (double budget : {std::nan(""), std::numeric_limits<double>::infinity(),
                        -std::numeric_limits<double>::infinity(), -1.0,
                        0.0}) {
    FleetConfig config = TestConfig(1);
    config.fleet_budget_usd_per_hour = budget;
    FleetManager fleet(config);
    TenantConfig t;
    t.id = "solo";
    ASSERT_TRUE(fleet.AddTenant(t).ok());
    Status st = fleet.Start();
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << "budget " << budget;
    EXPECT_FALSE(fleet.RunFor(10.0).ok()) << "budget " << budget;
  }
}

TEST(FleetManagerTest, RunForRejectsNonFiniteHorizon) {
  std::unique_ptr<FleetManager> fleet = MakeStartedFleet(2, 1);
  for (double horizon : {std::nan(""), std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()}) {
    Status st = fleet->RunFor(horizon);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << "horizon " << horizon;
  }
  // A rejected horizon leaves the fleet untouched and still runnable.
  EXPECT_DOUBLE_EQ(fleet->Now(), 0.0);
  EXPECT_TRUE(fleet->reports().empty());
  ASSERT_TRUE(fleet->RunFor(300.0).ok());
  EXPECT_DOUBLE_EQ(fleet->Now(), 300.0);
}

TEST(FleetManagerTest, PeriodsReportAndConserveBudget) {
  std::unique_ptr<FleetManager> fleet = MakeStartedFleet(4, 1);
  ASSERT_TRUE(fleet->RunFor(600.0).ok());
  ASSERT_EQ(fleet->reports().size(), 2u);
  for (const FleetPeriodReport& report : fleet->reports()) {
    EXPECT_TRUE(report.conservation_ok);
    ASSERT_EQ(report.tenants.size(), 4u);
    double sum = 0.0;
    for (const TenantPeriodOutcome& row : report.tenants) {
      EXPECT_GE(row.grant_usd, 0.0);
      EXPECT_LE(row.grant_usd, row.demand_usd + 1e-9);
      sum += row.grant_usd;
    }
    EXPECT_LE(sum, 2.0 * (1.0 + 1e-9));
    EXPECT_NEAR(sum, report.total_granted_usd, 1e-9);
  }
  EXPECT_DOUBLE_EQ(fleet->Now(), 600.0);
  // Controllers actually stepped during the run.
  uint64_t total_steps = 0;
  for (const TenantPeriodOutcome& row : fleet->reports()[1].tenants) {
    total_steps += row.steps;
  }
  EXPECT_GT(total_steps, 0u);
}

TEST(FleetManagerTest, MergedControlIdenticalAcrossThreadCounts) {
  std::unique_ptr<FleetManager> fleet1 = MakeStartedFleet(6, 1);
  std::unique_ptr<FleetManager> fleet4 = MakeStartedFleet(6, 4);
  ASSERT_TRUE(fleet1->RunFor(600.0).ok());
  ASSERT_TRUE(fleet4->RunFor(600.0).ok());
  std::string d1 = fleet1->ControlDigest();
  std::string d4 = fleet4->ControlDigest();
  EXPECT_FALSE(d1.empty());
  EXPECT_EQ(d1, d4);  // Byte-identical merged control decisions.
}

TEST(FleetManagerTest, RollupKeepsTenantsDistinct) {
  // Two tenants run identical topologies with identical layer names;
  // the fleet rollup must still report them as separate series.
  std::unique_ptr<FleetManager> fleet = MakeStartedFleet(2, 1);
  ASSERT_TRUE(fleet->RunFor(300.0).ok());
  obs::MetricsSnapshot snap = fleet->registry().AggregateSnapshot();
  size_t grant_series = 0;
  for (const obs::CounterSample& c : snap.counters) {
    if (c.name == "fleet.steps") ++grant_series;
  }
  size_t gauge_series = 0;
  for (const obs::GaugeSample& g : snap.gauges) {
    if (g.name == "fleet.grant_usd") ++gauge_series;
  }
  EXPECT_EQ(grant_series, 2u) << "tenant step counters merged";
  EXPECT_EQ(gauge_series, 2u) << "tenant grant gauges merged";
}

TEST(FleetManagerTest, PerFlowPlannerCountersAreTenantScoped) {
  // The managers share nothing, but their planner.* series must carry
  // the tenant label so any cross-flow aggregation stays per-tenant.
  std::unique_ptr<FleetManager> fleet = MakeStartedFleet(2, 1);
  ASSERT_TRUE(fleet->RunFor(300.0).ok());
  for (size_t i = 0; i < 2; ++i) {
    obs::MetricsSnapshot snap =
        fleet->partition(i)->telemetry().metrics().Snapshot();
    bool found = false;
    for (const obs::CounterSample& c : snap.counters) {
      if (c.name.rfind("planner.", 0) != 0) continue;
      for (const auto& [key, value] : c.labels) {
        if (key == "tenant" &&
            value == fleet->partition(i)->tenant().id) {
          found = true;
        }
      }
    }
    EXPECT_TRUE(found) << "partition " << i;
  }
}

TEST(FleetManagerTest, SpanNamespacesAreDisjointAndDeterministic) {
  FleetConfig config = TestConfig(1);
  config.partition.record_spans = true;
  FleetManager fleet(config);
  for (TenantConfig& t : MakeTenantFleet(3, /*seed=*/7)) {
    t.monitoring_period_sec = 60.0;
    ASSERT_TRUE(fleet.AddTenant(std::move(t)).ok());
  }
  ASSERT_TRUE(fleet.Start().ok());
  ASSERT_TRUE(fleet.RunFor(300.0).ok());
  for (size_t i = 0; i < 3; ++i) {
    const obs::SpanCollector& spans = fleet.partition(i)->telemetry().spans();
    EXPECT_EQ(spans.id_offset(),
              static_cast<obs::SpanId>(i) * obs::SpanCollector::kIdStride);
    EXPECT_GT(spans.total_started(), 0u) << "partition " << i;
    // Every retained id lives inside this partition's namespace.
    for (obs::SpanId id = spans.first_retained();
         id != 0 && id < spans.end_id(); ++id) {
      const obs::SpanRecord* r = spans.Find(id);
      if (r == nullptr) continue;
      EXPECT_GT(r->id, spans.id_offset());
      EXPECT_LE(r->id, spans.id_offset() + obs::SpanCollector::kIdStride);
    }
  }
}

}  // namespace
}  // namespace flower::fleet
