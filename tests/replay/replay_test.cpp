// Flight recorder + deterministic replay: recorder semantics, bundle
// round-trips, alert-triggered capture, solo-tenant replay determinism
// across solver thread counts, and divergence detection on corrupted
// bundles.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "fleet/fleet_manager.h"
#include "fleet/partition_spec.h"
#include "fleet/replay_harness.h"
#include "obs/replay/bundle.h"
#include "obs/replay/divergence.h"
#include "obs/replay/flight_recorder.h"
#include "obs/span.h"

namespace flower {
namespace {

using obs::replay::CaptureBundle;
using obs::replay::FlightRecorder;
using obs::replay::RecordedFault;
using obs::replay::RecorderConfig;

std::string TempPath(const char* name) {
  return testing::TempDir() + "/" + name;
}

obs::ControlDecisionRecord MakeDecision(double t, const char* loop, double y,
                                        double raw_u, double u) {
  obs::ControlDecisionRecord rec;
  rec.time = t;
  rec.loop = loop;
  rec.layer = loop;
  rec.sensed_y = y;
  rec.raw_u = raw_u;
  rec.clamped_u = u;
  return rec;
}

// --- FlightRecorder unit tests. ------------------------------------

TEST(FlightRecorderTest, ChainIsDeterministicAndOrderSensitive) {
  FlightRecorder a;
  FlightRecorder b;
  a.RecordDecision(MakeDecision(60.0, "analytics", 55.0, 4.0, 4.0));
  a.RecordDecision(MakeDecision(120.0, "storage", 70.0, 90.0, 80.0));
  b.RecordDecision(MakeDecision(60.0, "analytics", 55.0, 4.0, 4.0));
  b.RecordDecision(MakeDecision(120.0, "storage", 70.0, 90.0, 80.0));
  EXPECT_EQ(a.chain_hash(), b.chain_hash());
  EXPECT_EQ(a.total_decisions(), 2u);

  FlightRecorder c;  // Same decisions, swapped order: different chain.
  c.RecordDecision(MakeDecision(120.0, "storage", 70.0, 90.0, 80.0));
  c.RecordDecision(MakeDecision(60.0, "analytics", 55.0, 4.0, 4.0));
  EXPECT_NE(a.chain_hash(), c.chain_hash());
}

TEST(FlightRecorderTest, DecisionRingEvictsOldestAndKeepsCheckpoints) {
  RecorderConfig config;
  config.decision_capacity = 4;
  config.checkpoint_every = 2;
  config.checkpoint_capacity = 8;
  FlightRecorder rec(config);
  for (int i = 0; i < 10; ++i) {
    rec.RecordDecision(
        MakeDecision(60.0 * (i + 1), "analytics", 50.0 + i, 4.0, 4.0));
  }
  EXPECT_EQ(rec.total_decisions(), 10u);
  std::vector<obs::replay::DecisionEntry> kept = rec.Decisions();
  ASSERT_EQ(kept.size(), 4u);
  EXPECT_EQ(kept.front().index, 6u);  // Oldest retained.
  EXPECT_EQ(kept.back().index, 9u);
  EXPECT_DOUBLE_EQ(rec.window_start(), 60.0 * 7);
  // Every 2nd decision checkpointed: indexes 1, 3, 5, 7, 9.
  std::vector<obs::replay::HashCheckpoint> cps = rec.Checkpoints();
  ASSERT_EQ(cps.size(), 5u);
  EXPECT_EQ(cps.front().index, 1u);
  EXPECT_EQ(cps.back().index, 9u);
  EXPECT_EQ(cps.back().chain, kept.back().chain);
}

TEST(FlightRecorderTest, TriggerLatchesFirstAlert) {
  FlightRecorder rec;
  EXPECT_FALSE(rec.trigger().fired);
  rec.Trigger(900.0, "analytics/utilization", 15.0, 14.5);
  rec.Trigger(1800.0, "storage/utilization", 99.0, 99.0);
  EXPECT_TRUE(rec.trigger().fired);
  EXPECT_DOUBLE_EQ(rec.trigger().time, 900.0);
  EXPECT_EQ(rec.trigger().reason, "analytics/utilization");
  EXPECT_DOUBLE_EQ(rec.trigger().burn_fast, 15.0);
}

TEST(FlightRecorderTest, FingerprintCoversIdentitySpecAndFaults) {
  FlightRecorder a;
  a.SetIdentity("t0", 0, 42, 0);
  a.SetSpec({{"tenant.seed", "42"}});
  uint64_t base = a.Fingerprint();

  FlightRecorder b;
  b.SetIdentity("t0", 0, 42, 0);
  b.SetSpec({{"tenant.seed", "42"}});
  EXPECT_EQ(b.Fingerprint(), base);

  b.SetIdentity("t0", 0, 43, 0);  // Seed change.
  EXPECT_NE(b.Fingerprint(), base);
  b.SetIdentity("t0", 0, 42, 0);
  EXPECT_EQ(b.Fingerprint(), base);

  RecordedFault fault;
  fault.kind = "sensor-spike";
  fault.target = "analytics";
  b.AddFault(fault);  // Fault schedule change.
  EXPECT_NE(b.Fingerprint(), base);
  b.ClearFaults();
  EXPECT_EQ(b.Fingerprint(), base);
}

// --- Bundle JSON round-trip. ---------------------------------------

TEST(BundleTest, JsonRoundTripPreservesEveryField) {
  RecorderConfig config;
  config.decision_capacity = 8;
  FlightRecorder rec(config);
  rec.SetIdentity("tenant-7", 7, 0xDEADBEEFCAFEF00Dull,
                  7 * obs::SpanCollector::kIdStride);
  rec.SetSpec({{"tenant.id", "tenant-7"}, {"tenant.seed", "16045690985373815821"}});
  RecordedFault fault;
  fault.kind = "sensor-spike";
  fault.target = "analytics";
  fault.start = 300.0;
  fault.end = std::numeric_limits<double>::infinity();
  fault.offset = 200.0;
  rec.AddFault(fault);
  for (int i = 0; i < 12; ++i) {
    rec.RecordDecision(
        MakeDecision(60.0 * (i + 1), "analytics", 50.0 + 0.125 * i,
                     1.0 / 3.0 + i, 4.0));
  }
  rec.RecordGrant(0.0, 1.25, 0.75);
  rec.RecordGrant(600.0, 2.5, 1.5);
  const double shares[3] = {8.0, 4.0, 120.0};
  rec.RecordReplan(601.0, 1.5, shares, 3, true);
  rec.Trigger(720.0, "analytics/utilization", 20.0, 14.44);

  CaptureBundle bundle = obs::replay::BundleFromRecorder(rec);
  std::string path = TempPath("roundtrip_bundle.json");
  ASSERT_TRUE(obs::replay::WriteBundleJson(bundle, path).ok());
  auto loaded = obs::replay::LoadBundleJson(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();

  EXPECT_EQ(loaded->schema_version, obs::replay::kBundleSchemaVersion);
  EXPECT_EQ(loaded->tenant_id, "tenant-7");
  EXPECT_EQ(loaded->tenant_index, 7u);
  EXPECT_EQ(loaded->seed, 0xDEADBEEFCAFEF00Dull);  // > 2^53: exact u64.
  EXPECT_EQ(loaded->span_id_offset, 7 * obs::SpanCollector::kIdStride);
  EXPECT_EQ(loaded->fingerprint, bundle.fingerprint);
  EXPECT_EQ(loaded->chain_hash, bundle.chain_hash);
  EXPECT_EQ(loaded->total_decisions, 12u);
  EXPECT_EQ(loaded->spec, bundle.spec);

  ASSERT_EQ(loaded->faults.size(), 1u);
  EXPECT_EQ(loaded->faults[0].kind, "sensor-spike");
  EXPECT_TRUE(std::isinf(loaded->faults[0].end));  // Non-finite survives.
  EXPECT_DOUBLE_EQ(loaded->faults[0].offset, 200.0);

  EXPECT_TRUE(loaded->trigger.fired);
  EXPECT_DOUBLE_EQ(loaded->trigger.time, 720.0);
  EXPECT_EQ(loaded->trigger.reason, "analytics/utilization");

  ASSERT_EQ(loaded->grants.size(), 2u);
  EXPECT_DOUBLE_EQ(loaded->grants[1].grant_usd, 1.5);
  ASSERT_EQ(loaded->replans.size(), 1u);
  EXPECT_EQ(loaded->replans[0].num_shares, 3);
  EXPECT_DOUBLE_EQ(loaded->replans[0].shares[2], 120.0);

  ASSERT_EQ(loaded->decisions.size(), bundle.decisions.size());
  for (size_t i = 0; i < bundle.decisions.size(); ++i) {
    EXPECT_EQ(loaded->decisions[i].index, bundle.decisions[i].index);
    EXPECT_EQ(loaded->decisions[i].chain, bundle.decisions[i].chain);
    EXPECT_EQ(loaded->decisions[i].line_hash, bundle.decisions[i].line_hash);
    // %.17g doubles round-trip bit-exactly.
    EXPECT_DOUBLE_EQ(loaded->decisions[i].sensed_y,
                     bundle.decisions[i].sensed_y);
    EXPECT_DOUBLE_EQ(loaded->decisions[i].raw_u, bundle.decisions[i].raw_u);
    EXPECT_STREQ(loaded->decisions[i].loop, bundle.decisions[i].loop);
  }
  EXPECT_EQ(loaded->checkpoints.size(), bundle.checkpoints.size());
  EXPECT_EQ(obs::replay::BundleFingerprint(*loaded), loaded->fingerprint);
}

TEST(BundleTest, DeeplyNestedJsonIsRejectedWithoutCrashing) {
  auto load = [](const std::string& text) {
    std::string path = TempPath("nested_bundle.json");
    {
      std::ofstream out(path, std::ios::binary);
      out << text;
    }
    auto loaded = obs::replay::LoadBundleJson(path);
    std::remove(path.c_str());
    return loaded.status();
  };
  // A million unclosed '[': unbounded recursion would overflow the stack.
  Status deep = load(std::string(1000000, '['));
  EXPECT_FALSE(deep.ok());
  EXPECT_NE(deep.ToString().find("nesting"), std::string::npos) << deep;

  // 256 levels still parse (and fail later, as a non-object bundle);
  // one more trips the limit.
  Status at_limit = load(std::string(256, '[') + std::string(256, ']'));
  EXPECT_NE(at_limit.ToString().find("top level is not an object"),
            std::string::npos)
      << at_limit;
  Status over = load(std::string(257, '[') + std::string(257, ']'));
  EXPECT_NE(over.ToString().find("nesting"), std::string::npos) << over;
}

// --- Partition spec round-trip. ------------------------------------

TEST(PartitionSpecTest, SerializeParseRoundTrip) {
  fleet::TenantConfig tenant = fleet::MakeTenantFleet(3, 77)[2];
  fleet::PartitionConfig config;
  config.arbitration_period_sec = 450.0;
  config.flow_solver.population_size = 24;
  config.flow_incremental.stall_generations = 5;
  config.capture.slo_slow_window_sec = 600.0;
  auto spec = fleet::SerializePartitionSpec(tenant, config);

  fleet::TenantConfig tenant2;
  fleet::PartitionConfig config2;
  ASSERT_TRUE(fleet::ParsePartitionSpec(spec, &tenant2, &config2).ok());
  EXPECT_EQ(tenant2.id, tenant.id);
  EXPECT_EQ(tenant2.seed, tenant.seed);
  EXPECT_EQ(tenant2.pattern, tenant.pattern);
  EXPECT_DOUBLE_EQ(tenant2.base_rate_per_sec, tenant.base_rate_per_sec);
  EXPECT_DOUBLE_EQ(config2.arbitration_period_sec, 450.0);
  EXPECT_EQ(config2.flow_solver.population_size, 24u);
  EXPECT_EQ(config2.flow_incremental.stall_generations, 5u);
  EXPECT_DOUBLE_EQ(config2.capture.slo_slow_window_sec, 600.0);
  // Round-trip is a fixed point.
  EXPECT_EQ(fleet::SerializePartitionSpec(tenant2, config2), spec);
}

// --- Capture -> replay end to end. ---------------------------------

// One small fleet with a deterministic sensor-spike fault on tenant 0;
// capture armed with burn-rate health triggers. Returns the manager
// after running long enough for the alert edge to latch the trigger.
std::unique_ptr<fleet::FleetManager> RunCapturedFleet(size_t num_threads) {
  fleet::FleetConfig config;
  config.num_threads = num_threads;
  config.partition.capture.enabled = true;
  config.partition.capture.health_trigger = true;
  auto manager = std::make_unique<fleet::FleetManager>(config);
  std::vector<fleet::TenantConfig> tenants = fleet::MakeTenantFleet(2, 99);
  fleet::TenantFault fault;
  fault.kind = "sensor-spike";
  fault.target = "analytics";
  fault.start = 300.0;
  fault.offset = 200.0;  // Sensed y pinned far above any threshold.
  tenants[0].faults.push_back(fault);
  for (fleet::TenantConfig& t : tenants) {
    EXPECT_TRUE(manager->AddTenant(std::move(t)).ok());
  }
  EXPECT_TRUE(manager->Start().ok());
  EXPECT_TRUE(manager->RunFor(1800.0).ok());
  return manager;
}

TEST(ReplayTest, AlertTriggeredCaptureReplaysIdenticallyAtAnyThreadCount) {
  std::unique_ptr<fleet::FleetManager> manager = RunCapturedFleet(2);
  const FlightRecorder* rec = manager->partition(0)->recorder();
  ASSERT_NE(rec, nullptr);
  ASSERT_TRUE(rec->trigger().fired) << "burn-rate alert never fired";
  EXPECT_EQ(rec->trigger().reason, "analytics/utilization");
  ASSERT_GT(rec->total_decisions(), 0u);

  // Dump through the real file path: replay consumes what ops would.
  std::string path = TempPath("captured_bundle.json");
  ASSERT_TRUE(manager->DumpBundle(0, path).ok());
  auto bundle = obs::replay::LoadBundleJson(path);
  ASSERT_TRUE(bundle.ok()) << bundle.status();
  EXPECT_EQ(bundle->tenant_index, 0u);

  std::string digests[3];
  size_t thread_counts[3] = {1, 4, 16};
  for (int i = 0; i < 3; ++i) {
    fleet::ReplayOptions opts;
    opts.flow_solver_threads = thread_counts[i];
    auto harness = fleet::ReplayHarness::Create(*bundle, opts);
    ASSERT_TRUE(harness.ok()) << harness.status();
    ASSERT_TRUE((*harness)->Run().ok());
    obs::replay::DivergenceReport report = (*harness)->Check();
    EXPECT_FALSE(report.diverged) << report.ToString();
    EXPECT_TRUE(report.fingerprint_match);
    EXPECT_TRUE(report.chain_match);
    EXPECT_GE(report.replayed_total, report.recorded_total);
    (*harness)->partition().AppendDigest(&digests[i]);
    // Replay-rich telemetry is on even though the fleet run had it off.
    EXPECT_TRUE(
        (*harness)->partition().telemetry().spans().enabled());
    EXPECT_NE((*harness)->partition().health(), nullptr);
  }
  EXPECT_FALSE(digests[0].empty());
  EXPECT_EQ(digests[0], digests[1]);  // Byte-identical at 1 vs 4 threads.
  EXPECT_EQ(digests[0], digests[2]);  // ... and at 16.
}

TEST(ReplayTest, CaptureIsIdenticalAcrossFleetThreadCounts) {
  std::unique_ptr<fleet::FleetManager> one = RunCapturedFleet(1);
  std::unique_ptr<fleet::FleetManager> four = RunCapturedFleet(4);
  auto a = one->partition(0)->MakeBundle();
  auto b = four->partition(0)->MakeBundle();
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->fingerprint, b->fingerprint);
  EXPECT_EQ(a->chain_hash, b->chain_hash);
  EXPECT_EQ(a->total_decisions, b->total_decisions);
  EXPECT_DOUBLE_EQ(a->trigger.time, b->trigger.time);
}

TEST(ReplayTest, CorruptedSeedIsCaughtAtTheFirstDecision) {
  std::unique_ptr<fleet::FleetManager> manager = RunCapturedFleet(1);
  auto bundle = manager->partition(0)->MakeBundle();
  ASSERT_TRUE(bundle.ok());
  ASSERT_FALSE(bundle->decisions.empty());

  CaptureBundle corrupted = *bundle;
  corrupted.seed += 1;  // The recorded inputs no longer match the hash.
  EXPECT_NE(obs::replay::BundleFingerprint(corrupted),
            corrupted.fingerprint);

  auto harness = fleet::ReplayHarness::Create(corrupted, {});
  ASSERT_TRUE(harness.ok()) << harness.status();
  ASSERT_TRUE((*harness)->Run().ok());
  obs::replay::DivergenceReport report = (*harness)->Check();
  EXPECT_TRUE(report.diverged);
  EXPECT_FALSE(report.fingerprint_match);
  EXPECT_FALSE(report.chain_match);
  ASSERT_TRUE(report.has_first_mismatch);
  // A wrong seed perturbs the workload from t=0: the very first
  // retained decision must be the reported mismatch, at its recorded
  // timestamp.
  EXPECT_EQ(report.first_mismatch_index, bundle->decisions.front().index);
  EXPECT_DOUBLE_EQ(report.first_mismatch_time,
                   bundle->decisions.front().time);
}

TEST(ReplayTest, ExplicitDumpWithoutAlertIsReplayable) {
  fleet::FleetConfig config;
  config.partition.capture.enabled = true;  // No health trigger.
  fleet::FleetManager manager(config);
  for (fleet::TenantConfig& t : fleet::MakeTenantFleet(2, 7)) {
    ASSERT_TRUE(manager.AddTenant(std::move(t)).ok());
  }
  ASSERT_TRUE(manager.Start().ok());
  ASSERT_TRUE(manager.RunFor(1200.0).ok());
  std::string path = TempPath("explicit_bundle.json");
  ASSERT_TRUE(manager.DumpBundle(1, path).ok());
  auto bundle = obs::replay::LoadBundleJson(path);
  ASSERT_TRUE(bundle.ok()) << bundle.status();
  EXPECT_TRUE(bundle->trigger.fired);
  EXPECT_EQ(bundle->trigger.reason, "explicit");
  EXPECT_EQ(bundle->tenant_index, 1u);

  auto harness = fleet::ReplayHarness::Create(*bundle, {});
  ASSERT_TRUE(harness.ok()) << harness.status();
  ASSERT_TRUE((*harness)->Run().ok());
  obs::replay::DivergenceReport report = (*harness)->Check();
  EXPECT_FALSE(report.diverged) << report.ToString();
}

// A fleet whose tenants arbitrate on different horizons (450 s vs the
// fleet-wide 900 s): the work-stealing sweep interleaves their boundary
// events, and the captured bundle must still replay bit-for-bit.
std::unique_ptr<fleet::FleetManager> RunHeterogeneousCapturedFleet(
    size_t num_threads) {
  fleet::FleetConfig config;
  config.num_threads = num_threads;
  config.partition.capture.enabled = true;
  config.partition.capture.health_trigger = true;
  auto manager = std::make_unique<fleet::FleetManager>(config);
  std::vector<fleet::TenantConfig> tenants = fleet::MakeTenantFleet(2, 99);
  tenants[0].arbitration_period_sec = 450.0;  // Faster than the fleet.
  fleet::TenantFault fault;
  fault.kind = "sensor-spike";
  fault.target = "analytics";
  fault.start = 300.0;
  fault.offset = 200.0;
  tenants[0].faults.push_back(fault);
  for (fleet::TenantConfig& t : tenants) {
    EXPECT_TRUE(manager->AddTenant(std::move(t)).ok());
  }
  EXPECT_TRUE(manager->Start().ok());
  EXPECT_TRUE(manager->RunFor(1800.0).ok());
  return manager;
}

TEST(ReplayTest, HeterogeneousHorizonCaptureReplaysWithoutDivergence) {
  std::unique_ptr<fleet::FleetManager> one = RunHeterogeneousCapturedFleet(1);
  std::unique_ptr<fleet::FleetManager> four = RunHeterogeneousCapturedFleet(4);
  // The capture itself is thread-count-invariant even when boundary
  // events interleave across tenants.
  auto a = one->partition(0)->MakeBundle();
  auto b = four->partition(0)->MakeBundle();
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->fingerprint, b->fingerprint);
  EXPECT_EQ(a->chain_hash, b->chain_hash);

  const FlightRecorder* rec = four->partition(0)->recorder();
  ASSERT_NE(rec, nullptr);
  ASSERT_TRUE(rec->trigger().fired) << "burn-rate alert never fired";

  // The faster tenant recorded a grant at its own 450 s boundary, which
  // no tenant on the fleet's 900 s period shares.
  std::string path = TempPath("hetero_bundle.json");
  ASSERT_TRUE(four->DumpBundle(0, path).ok());
  auto bundle = obs::replay::LoadBundleJson(path);
  ASSERT_TRUE(bundle.ok()) << bundle.status();
  bool has_midperiod_grant = false;
  for (const auto& g : bundle->grants) {
    if (g.time == 450.0 || g.time == 1350.0) has_midperiod_grant = true;
  }
  EXPECT_TRUE(has_midperiod_grant);
  bool spec_has_period = false;
  for (const auto& [key, value] : bundle->spec) {
    if (key == "tenant.arbitration_period_sec" && value == "450") {
      spec_has_period = true;
    }
  }
  EXPECT_TRUE(spec_has_period);

  fleet::ReplayOptions opts;
  opts.flow_solver_threads = 4;
  auto harness = fleet::ReplayHarness::Create(*bundle, opts);
  ASSERT_TRUE(harness.ok()) << harness.status();
  ASSERT_TRUE((*harness)->Run().ok());
  obs::replay::DivergenceReport report = (*harness)->Check();
  EXPECT_FALSE(report.diverged) << report.ToString();
  EXPECT_TRUE(report.fingerprint_match);
  EXPECT_TRUE(report.chain_match);
}

// --- Satellite: span-id namespace exhaustion guard. ----------------

TEST(SpanOverflowTest, ExhaustedCollectorStopsAllocatingIds) {
  obs::SpanCollector spans(/*capacity=*/16);
  spans.set_enabled(true);
  ASSERT_TRUE(spans.set_id_offset(0).ok());
  obs::SpanId first = spans.Begin(obs::SpanKind::kSense, "s", 0.0, 1, 0);
  EXPECT_EQ(first, 1u);
  // Burn the namespace down to its last id, then take it.
  spans.AdvanceIdsForTest(obs::SpanCollector::kIdStride - 2);
  obs::SpanId last = spans.Begin(obs::SpanKind::kSense, "s", 1.0, 1, 0);
  EXPECT_EQ(last, obs::SpanCollector::kIdStride);
  EXPECT_EQ(spans.id_overflows(), 0u);
  EXPECT_EQ(spans.total_started(), obs::SpanCollector::kIdStride);

  // The namespace is exhausted: every further Begin drops the span,
  // counts the overflow, and never bleeds into the next sibling's
  // (offset + kIdStride, ...] namespace.
  obs::SpanId overflowed = spans.Begin(obs::SpanKind::kSense, "s", 2.0, 1, 0);
  EXPECT_EQ(overflowed, 0u);
  EXPECT_EQ(spans.id_overflows(), 1u);
  obs::SpanId again = spans.Begin(obs::SpanKind::kDecide, "d", 3.0, 1, 0);
  EXPECT_EQ(again, 0u);
  EXPECT_EQ(spans.id_overflows(), 2u);
  // total_started stays clamped at the stride; end_id stays in range.
  EXPECT_EQ(spans.total_started(), obs::SpanCollector::kIdStride);
  EXPECT_LE(spans.end_id(), obs::SpanCollector::kIdStride + 1);
}

// --- Satellite: fleet period report JSONL export. ------------------

TEST(FleetReportExportTest, JsonlHasOneRowPerTenantPeriod) {
  fleet::FleetConfig config;
  fleet::FleetManager manager(config);
  for (fleet::TenantConfig& t : fleet::MakeTenantFleet(3, 5)) {
    ASSERT_TRUE(manager.AddTenant(std::move(t)).ok());
  }
  ASSERT_TRUE(manager.Start().ok());
  ASSERT_TRUE(manager.RunFor(2700.0).ok());  // 3 periods.
  std::string path = TempPath("fleet_report.jsonl");
  ASSERT_TRUE(manager.ExportReportsJsonl(path).ok());

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  size_t rows = 0;
  while (std::getline(in, line)) {
    EXPECT_NE(line.find("\"tenant\":"), std::string::npos);
    EXPECT_NE(line.find("\"demand_usd\":"), std::string::npos);
    EXPECT_NE(line.find("\"grant_usd\":"), std::string::npos);
    EXPECT_NE(line.find("\"spend_usd\":"), std::string::npos);
    EXPECT_NE(line.find("\"steps\":"), std::string::npos);
    EXPECT_NE(line.find("\"conservation_ok\":true"), std::string::npos);
    ++rows;
  }
  EXPECT_EQ(rows, 3u * 3u);  // periods x tenants.
}

}  // namespace
}  // namespace flower
