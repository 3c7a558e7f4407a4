#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <random>

#include "cloudwatch/metric_store.h"
#include "core/flow_builder.h"
#include "core/resource_share.h"
#include "fleet/budget_arbiter.h"
#include "fleet/fleet_manager.h"
#include "obs/telemetry.h"
#include "opt/nsga2.h"
#include "opt/pareto.h"
#include "sim/simulation.h"
#include "workload/arrival.h"

namespace perfbench {

using namespace flower;

namespace {

// flower-sim's out-of-band half-width: a step is an overload when its
// sensed utilization exceeds the reference by more than this.
constexpr double kBandPct = 15.0;
constexpr double kHour = 3600.0;

const double* UnitPrices() {
  static const core::ResourceShareRequest kDefaults;
  return kDefaults.unit_price;
}

bool FiniteNonNegative(double v) { return std::isfinite(v) && v >= 0.0; }

std::string Fmt(const char* fmt, double a) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), fmt, a);
  return buf;
}

// Control outcome of one managed flow: overload steps, mean hourly
// spend of the applied actuations, resize count and loop counters.
void AddControlOutcome(const core::ElasticityManager& manager,
                       double reference_pct, const std::string& who,
                       Trial* t, Report* report) {
  for (int i = 0; i < core::kNumLayers; ++i) {
    auto state = manager.GetState(static_cast<core::Layer>(i));
    if (!state.ok()) continue;
    const core::LayerControlState& s = **state;
    for (const auto& y : s.sensed.samples()) {
      ++t->steps;
      if (y.value > reference_pct + kBandPct) ++t->overload_steps;
    }
    double sum = 0.0;
    double prev = 0.0;
    size_t n = 0;
    for (const auto& u : s.actuations.samples()) {
      if (!FiniteNonNegative(u.value)) {
        report->Check(false, who + ": applied capacity " +
                                 Fmt("%g", u.value) + " is not finite and "
                                 "non-negative");
      }
      if (n > 0 && u.value != prev) t->layer["control.resizes"] += 1.0;
      prev = u.value;
      sum += u.value;
      ++n;
    }
    if (n > 0) {
      t->cost_usd_per_h += sum / static_cast<double>(n) * UnitPrices()[i];
    }
    t->layer["control.sensor_misses"] += static_cast<double>(s.sensor_misses());
    t->layer["control.actuation_failures"] +=
        static_cast<double>(s.actuation_failures());
    t->layer["control.retries"] += static_cast<double>(s.actuation_retries());
  }
}

// The decision lines FlowPartition::AppendDigest writes, for one flow.
void AppendDecisions(const obs::Telemetry& telemetry, const std::string& who,
                     std::string* out) {
  char buf[256];
  for (const obs::ControlDecisionRecord& r : telemetry.decisions().Snapshot()) {
    std::snprintf(buf, sizeof(buf),
                  "%s t=%.3f loop=%s y=%.6f raw_u=%.6f u=%.6f out=%s\n",
                  who.c_str(), r.time, r.loop.c_str(), r.sensed_y, r.raw_u,
                  r.clamped_u, obs::StepOutcomeToString(r.outcome));
    *out += buf;
  }
}

void AppendOutcome(const Trial& t, std::string* out) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "outcome generated=%.0f dropped=%.0f steps=%llu "
                "overload=%llu cost=%.9g plans=%zu\n",
                t.generated, t.dropped,
                static_cast<unsigned long long>(t.steps),
                static_cast<unsigned long long>(t.overload_steps),
                t.cost_usd_per_h, t.plan_hv.size());
  *out += buf;
}

// Checks one plan result against its request: every plan within the
// bounds, meeting the constraints and costing no more than the budget.
// A request whose all-minimum plan already exceeds the budget has no
// feasible plan, so only its front's existence is checked.
bool CheckPlans(const core::ResourceShareRequest& req,
                const core::ResourceShareResult& res, const std::string& who,
                Report* report) {
  if (res.pareto_plans.empty()) {
    report->Check(false, who + ": empty plan front");
    return false;
  }
  double min_cost = 0.0;
  for (int i = 0; i < core::kNumLayers; ++i) {
    min_cost += req.bounds[i].min * req.unit_price[i];
  }
  if (min_cost > req.hourly_budget_usd) return true;
  constexpr double kTol = 1e-9;
  bool ok = true;
  for (const core::ProvisioningPlan& p : res.pareto_plans) {
    if (!(p.hourly_cost_usd <= req.hourly_budget_usd * (1.0 + kTol))) {
      ok = false;
      report->Check(false, who + ": plan costs $" +
                               Fmt("%.6f", p.hourly_cost_usd) +
                               "/h over budget $" +
                               Fmt("%.6f", req.hourly_budget_usd) + "/h");
    }
    for (int i = 0; i < core::kNumLayers; ++i) {
      if (!std::isfinite(p.shares[i]) ||
          p.shares[i] < req.bounds[i].min - kTol ||
          p.shares[i] > req.bounds[i].max + kTol) {
        ok = false;
        report->Check(false, who + ": plan share out of bounds");
      }
    }
    for (const core::LinearConstraint& c : req.constraints) {
      double lhs = 0.0;
      for (int i = 0; i < core::kNumLayers; ++i) lhs += c.coeff[i] * p.shares[i];
      if (lhs > c.rhs + kTol) {
        ok = false;
        report->Check(false, who + ": plan violates constraint " + c.label);
      }
    }
  }
  return ok;
}

// Hypervolume of the front with each share normalized by its upper
// bound, against the origin: 1.0 would be every layer at its maximum.
double NormalizedHypervolume(const core::ResourceShareRequest& req,
                             const core::ResourceShareResult& res) {
  std::vector<std::vector<double>> points;
  for (const core::ProvisioningPlan& p : res.pareto_plans) {
    std::vector<double> x(core::kNumLayers);
    for (int i = 0; i < core::kNumLayers; ++i) {
      x[static_cast<size_t>(i)] = p.shares[i] / req.bounds[i].max;
    }
    points.push_back(std::move(x));
  }
  return opt::Hypervolume3D(points, 0.0, 0.0, 0.0);
}

void AddPlannerCounters(const core::PlannerCounters& c, Trial* t) {
  t->layer["core.cache_hits"] += static_cast<double>(c.cache_hits);
  t->layer["core.cache_misses"] += static_cast<double>(c.cache_misses);
  t->layer["opt.evaluations"] += static_cast<double>(c.evaluations);
  t->layer["opt.early_exits"] += static_cast<double>(c.early_exits);
  t->layer["opt.warm_starts"] += static_cast<double>(c.warm_starts);
}

// Sum / max of one published CloudWatch series over the whole run.
double SeriesStat(const cloudwatch::MetricStore& metrics,
                  const cloudwatch::MetricId& id, SimTime now,
                  cloudwatch::Statistic stat) {
  auto v = metrics.GetStatistic(id, -1.0, now, stat);
  return v.ok() ? *v : 0.0;
}

// Layer counters of a flow the benchmark owns, read from the services'
// own accessors and their published series.
void AddSubstrateCounters(flow::DataAnalyticsFlow& f,
                          const cloudwatch::MetricStore& metrics, SimTime now,
                          Trial* t) {
  using cloudwatch::Statistic;
  kinesis::Stream& s = f.stream();
  storm::Cluster& c = f.cluster();
  dynamodb::Table& d = f.table();
  Counters& L = t->layer;
  L["workload.records"] += static_cast<double>(f.generator()->total_generated());
  L["kinesis.records_in"] += static_cast<double>(s.total_incoming());
  L["kinesis.throttled"] += static_cast<double>(s.total_throttled());
  L["kinesis.read_throttles"] += static_cast<double>(s.total_read_throttles());
  L["kinesis.records_read"] +=
      static_cast<double>(s.total_incoming() - s.BacklogRecords());
  const std::string& sn = f.stream_name();
  L["kinesis.backlog_max"] = std::max(
      L["kinesis.backlog_max"],
      SeriesStat(metrics, {"Flower/Kinesis", "BacklogRecords", sn}, now,
                 Statistic::kMaximum));
  L["kinesis.lag_s_max"] = std::max(
      L["kinesis.lag_s_max"],
      SeriesStat(metrics, {"Flower/Kinesis", "IteratorAge", sn}, now,
                 Statistic::kMaximum));
  L["storm.executed"] += static_cast<double>(c.total_executed());
  L["storm.acked"] += static_cast<double>(c.total_acked());
  L["storm.sink_throttles"] += static_cast<double>(c.total_sink_throttles());
  const std::string& cn = f.cluster_name();
  L["storm.pending_max"] = std::max(
      L["storm.pending_max"],
      SeriesStat(metrics, {"Flower/Storm", "PendingTuples", cn}, now,
                 Statistic::kMaximum));
  L["storm.workers_max"] = std::max(
      L["storm.workers_max"],
      SeriesStat(metrics, {"Flower/Storm", "WorkerCount", cn}, now,
                 Statistic::kMaximum));
  L["dynamodb.writes"] += static_cast<double>(d.total_writes());
  L["dynamodb.throttled_writes"] +=
      static_cast<double>(d.total_throttled_writes());
  L["dynamodb.items"] += static_cast<double>(d.ItemCount());
  L["cloudwatch.datapoints"] += static_cast<double>(metrics.total_datapoints());
}

// Invariants of a flow the benchmark owns, checked after every slice:
// generated = accepted + dropped, acked <= executed, and finite
// non-negative capacities.
bool CheckFlow(flow::DataAnalyticsFlow& f, std::string* why) {
  const workload::ClickStreamGenerator& g = *f.generator();
  kinesis::Stream& s = f.stream();
  if (g.total_generated() != s.total_incoming() + g.total_dropped() ||
      g.total_dropped() != s.total_throttled()) {
    *why = "generated != accepted + dropped";
    return false;
  }
  if (f.cluster().total_acked() > f.cluster().total_executed()) {
    *why = "acked > executed";
    return false;
  }
  if (s.shard_count() < 1 || f.cluster().worker_count() < 0 ||
      !FiniteNonNegative(f.table().provisioned_wcu())) {
    *why = "capacity not finite and non-negative";
    return false;
  }
  return true;
}

// Bench-owned hub for Simulation::SetTelemetry: tiny rings, only the
// registry's event-time histogram is used. Keeps the program's own
// telemetry (and its exports) exactly as in the untraced run.
std::unique_ptr<obs::Telemetry> SimProbe() {
  return std::make_unique<obs::Telemetry>(1, 1, 1);
}

double CallbackMs(obs::Telemetry& probe) {
  return probe.metrics().GetHistogram("sim.event_exec_us")->Sum() / 1e3;
}

// ---------------------------------------------------------------- fleet

constexpr size_t kFleetTenants = 1000;
constexpr double kFleetPeriodSec = 900.0;
constexpr double kFleetBudget = 100.0;
constexpr size_t kFleetThreads = 2;
constexpr size_t kHotTenantStride = 100;
constexpr double kHotTenantRate = 240.0;
constexpr size_t kWindowPasses = 4;  // Re-plans of each fleet window.

// One published series of a fleet partition over (now - window, now],
// read through the manager's public sensor factory (the partition's
// metric store is private). The default window covers the whole run.
double PartitionStat(const core::ElasticityManager& m, SimTime now,
                     const char* ns, const char* name, const std::string& dim,
                     cloudwatch::Statistic stat, double window = 0.0) {
  core::LayerControlConfig c;
  c.sensor_metric = {ns, name, dim};
  c.sensor_statistic = stat;
  c.monitoring_window_sec = window > 0.0 ? window : now + 1.0;
  auto v = m.MakeDefaultSensor(c)(now);
  return v.ok() ? *v : 0.0;
}

Trial FleetTrial(uint64_t seed, bool traced, bool setup_only, SpanLog* spans,
                 Report* report, const std::string&) {
  using cloudwatch::Statistic;
  Trial t;
  fleet::FleetConfig config;
  config.fleet_budget_usd_per_hour = kFleetBudget;
  config.arbitration_period_sec = kFleetPeriodSec;
  config.num_threads = kFleetThreads;
  config.partition.capture.enabled = true;
  config.partition.capture.health_trigger = true;
  config.partition.record_spans = true;
  std::vector<fleet::TenantConfig> tenants =
      fleet::MakeTenantFleet(kFleetTenants, seed);
  fleet::ApplyPeriodJitter(&tenants, kFleetPeriodSec, seed);
  // Every 100th tenant is a hot producer: its 5 s batches (~1200
  // records) overflow one shard's 1000-record write bucket, so Kinesis
  // throttles part of every batch while the shard's mean utilization
  // stays low. Without them no tenant of the fleet ever drops.
  for (size_t i = kHotTenantStride / 2; i < tenants.size();
       i += kHotTenantStride) {
    tenants[i].pattern = fleet::ArrivalPattern::kConstant;
    tenants[i].base_rate_per_sec = kHotTenantRate;
    tenants[i].initial_shards = 1;
  }

  double t0 = NowSec();
  auto fm = std::make_unique<fleet::FleetManager>(config);
  for (const fleet::TenantConfig& tenant : tenants) {
    Scoped s(spans, "fleet.AddTenant");
    Status st = fm->AddTenant(tenant);
    if (!st.ok()) {
      report->Check(false, "AddTenant: " + st.ToString());
      return t;
    }
  }
  double start0 = NowSec();
  {
    Scoped s(spans, "fleet.Start");
    Status st = fm->Start();
    if (!st.ok()) {
      report->Check(false, "Start: " + st.ToString());
      return t;
    }
  }
  t.setup_s = NowSec() - t0;
  t.layer["fleet.start_ms"] = 1e3 * (NowSec() - start0);
  if (setup_only) return t;

  std::vector<std::unique_ptr<obs::Telemetry>> probes;
  if (traced) {
    for (size_t i = 0; i < fm->num_tenants(); ++i) {
      probes.push_back(SimProbe());
      fm->partition(i)->sim().SetTelemetry(probes.back().get());
    }
  }
  double r0 = NowSec();
  Status st;
  {
    Scoped s(spans, "fleet.RunFor");
    st = fm->RunFor(kFleetPeriodSec);
  }
  t.run_s = NowSec() - r0;
  t.call_s.push_back(t.run_s);
  report->Op(st.ok(), "RunFor: " + st.ToString());
  t.flow_sim_s = kFleetPeriodSec * static_cast<double>(fm->num_tenants());

  // Arbitration invariants, per period report.
  for (const fleet::FleetPeriodReport& r : fm->reports()) {
    report->Check(r.conservation_ok,
                  "fleet period [" + Fmt("%g", r.start) + ", " +
                      Fmt("%g", r.end) + "] does not conserve the budget");
    report->Check(FiniteNonNegative(r.total_granted_usd),
                  "total grant not finite and non-negative");
    for (const fleet::TenantPeriodOutcome& row : r.tenants) {
      if (!FiniteNonNegative(row.grant_usd) ||
          !FiniteNonNegative(row.spend_usd) ||
          !FiniteNonNegative(row.demand_usd)) {
        report->Check(false, row.tenant + ": grant/spend/demand not finite "
                                          "and non-negative");
      }
    }
  }
  fleet::FleetSweepStats stats = fm->sweep_stats();
  report->Check(stats.conservation_violations == 0,
                "sweep counted conservation violations");

  // Per-tenant outcome through the partitions' public accessors.
  SimTime now = fm->Now();
  double spans_started = 0.0, spans_evicted = 0.0, recorded = 0.0;
  for (size_t i = 0; i < fm->num_tenants(); ++i) {
    fleet::FlowPartition* p = fm->partition(i);
    const fleet::TenantConfig& tc = p->tenant();
    core::ElasticityManager& m = p->manager();
    AddControlOutcome(m, tc.reference_utilization_pct, tc.id, &t, report);
    const std::string stream = tc.id + "-stream";
    const std::string storm = tc.id + "-storm";
    const std::string table = tc.id + "-table";
    double in = PartitionStat(m, now, "Flower/Kinesis", "IncomingRecords",
                              stream, Statistic::kSum);
    double thr = PartitionStat(m, now, "Flower/Kinesis", "ThrottledRecords",
                               stream, Statistic::kSum);
    // The last datapoint: the run ends on a 60 s publication instant.
    double backlog_end = PartitionStat(m, now, "Flower/Kinesis",
                                       "BacklogRecords", stream,
                                       Statistic::kMaximum, 1.0);
    t.generated += in + thr;
    t.dropped += thr;
    Counters& L = t.layer;
    L["workload.records"] += in + thr;
    L["kinesis.records_in"] += in;
    L["kinesis.throttled"] += thr;
    L["kinesis.records_read"] += in - backlog_end;
    L["kinesis.backlog_max"] = std::max(
        L["kinesis.backlog_max"],
        PartitionStat(m, now, "Flower/Kinesis", "BacklogRecords", stream,
                      Statistic::kMaximum));
    L["kinesis.lag_s_max"] = std::max(
        L["kinesis.lag_s_max"],
        PartitionStat(m, now, "Flower/Kinesis", "IteratorAge", stream,
                      Statistic::kMaximum));
    L["storm.executed"] += PartitionStat(m, now, "Flower/Storm",
                                         "ExecutedTuples", storm,
                                         Statistic::kSum);
    L["storm.sink_throttles"] += PartitionStat(
        m, now, "Flower/Storm", "SinkThrottles", storm, Statistic::kSum);
    L["storm.pending_max"] = std::max(
        L["storm.pending_max"],
        PartitionStat(m, now, "Flower/Storm", "PendingTuples", storm,
                      Statistic::kMaximum));
    L["storm.workers_max"] = std::max(
        L["storm.workers_max"],
        PartitionStat(m, now, "Flower/Storm", "WorkerCount", storm,
                      Statistic::kMaximum));
    L["dynamodb.throttled_writes"] += PartitionStat(
        m, now, "Flower/DynamoDB", "ThrottledRequests", table, Statistic::kSum);
    L["dynamodb.items"] += PartitionStat(m, now, "Flower/DynamoDB",
                                         "ItemCount", table,
                                         Statistic::kMaximum);
    // Consumed WCU is published as a per-second mean over each 60 s
    // period; one 128-byte aggregate costs one WCU.
    L["dynamodb.writes"] += 60.0 * PartitionStat(m, now, "Flower/DynamoDB",
                                                 "ConsumedWriteCapacityUnits",
                                                 table, Statistic::kSum);
    L["control.steps"] += static_cast<double>(p->StepsTaken());
    auto counters = m.ReplanCounters();
    if (counters.ok()) {
      AddPlannerCounters(*counters, &t);
      t.layer["core.replans"] +=
          static_cast<double>(counters->cache_hits + counters->cache_misses);
    }
    spans_started += static_cast<double>(p->telemetry().spans().total_started());
    spans_evicted += static_cast<double>(p->telemetry().spans().evicted());
    if (p->recorder() != nullptr) {
      recorded += static_cast<double>(p->recorder()->total_decisions());
    }
    if (traced) {
      t.layer["sim.callback_ms"] += CallbackMs(*probes[i]);
      p->sim().SetTelemetry(nullptr);
    }
    t.layer["sim.events"] += static_cast<double>(p->sim().events_executed());
  }
  if (fm->arbitration_spans() != nullptr) {
    spans_started +=
        static_cast<double>(fm->arbitration_spans()->total_started());
    spans_evicted += static_cast<double>(fm->arbitration_spans()->evicted());
  }
  t.layer["obs.spans"] = spans_started;
  t.layer["obs.spans_evicted"] = spans_evicted;
  t.layer["obs.recorder_decisions"] = recorded;
  t.layer["fleet.arbitrations"] = static_cast<double>(stats.arbitration_events);
  t.layer["fleet.mailbox_waits"] = static_cast<double>(stats.mailbox_waits);
  t.layer["fleet.conservation_violations"] =
      static_cast<double>(stats.conservation_violations);
  t.layer["exec.busy_s"] = stats.busy_sec;
  t.layer["exec.idle_s"] =
      static_cast<double>(kFleetThreads) * stats.wall_sec - stats.busy_sec;
  t.layer["exec.overlap_ratio"] = stats.overlap_ratio();
  t.layer["exec.steals"] = static_cast<double>(stats.steals);
  t.layer["exec.tasks"] = static_cast<double>(stats.tasks_executed);
  // Partition tasks run on two threads, so the simulator's own time is
  // the thread time inside them, not the sweep's wall time.
  t.layer["sim.run_ms"] = 1e3 * stats.busy_sec;

  // The fleet's planner is its budget arbiter, which runs inside RunFor
  // out of reach of a timer. Each recorded contended window is planned
  // again the way the sweep plans it: the arbiter's NSGA-II over the
  // window's demands and the remainder budget (the fleet budget minus
  // the grants held by tenants outside the window).
  struct Window {
    fleet::ArbiterConfig ac;
    std::vector<double> demands, weights;
    double total = 0.0;
  };
  std::vector<Window> windows;
  std::map<std::string, double> weight, held;
  for (const fleet::TenantConfig& tc : tenants) weight[tc.id] = tc.budget_weight;
  for (const fleet::FleetPeriodReport& r : fm->reports()) {
    Window w;
    double held_outside = 0.0;
    for (const auto& [id, g] : held) held_outside += g;
    for (const fleet::TenantPeriodOutcome& row : r.tenants) {
      w.demands.push_back(row.demand_usd);
      w.weights.push_back(weight[row.tenant]);
      w.total += row.demand_usd;
      held_outside -= held.count(row.tenant) ? held[row.tenant] : 0.0;
    }
    for (const fleet::TenantPeriodOutcome& row : r.tenants) {
      held[row.tenant] = row.grant_usd;
    }
    w.ac.fleet_budget_usd_per_hour = std::max(0.0, kFleetBudget - held_outside);
    w.ac.starvation_floor_frac = config.starvation_floor_frac;
    w.ac.solver = config.arbiter_solver;
    if (r.uncontended || w.total <= w.ac.fleet_budget_usd_per_hour) continue;
    windows.push_back(std::move(w));
  }
  // A window's solves take ~10 ms each, back to back, so one pass
  // samples the host at one moment. The windows are solved in
  // kWindowPasses passes, and every solve is a plan_ms sample; the
  // first pass's fronts are checked and give the quality and counters.
  double solve_ms = 0.0, evals = 0.0, front_points = 0.0;
  for (size_t pass = 0; pass < kWindowPasses; ++pass) {
    for (const Window& w : windows) {
      fleet::FleetBudgetProblem problem(w.ac, w.demands, w.weights);
      opt::Nsga2 solver(w.ac.solver);
      double p0 = NowSec();
      Result<opt::Nsga2Result> res = [&] {
        Scoped s(spans, "opt.Nsga2.Solve(arbiter)");
        return solver.Solve(problem);
      }();
      double ms = 1e3 * (NowSec() - p0);
      report->Op(res.ok() && !res->pareto_front.empty(),
                 "arbiter re-plan produced no front");
      if (!res.ok()) continue;
      t.plan_ms.push_back(ms);
      if (pass > 0) continue;
      // Front quality on (satisfied demand / budget, worst tenant's
      // satisfaction / the proportional share budget / demand).
      std::vector<std::vector<double>> points;
      double b = w.ac.fleet_budget_usd_per_hour;
      double fair = std::min(1.0, b / w.total);
      for (const opt::Solution& sol : res->pareto_front) {
        std::vector<double> grants = problem.Decode(sol.x);
        double granted = 0.0;
        for (double g : grants) {
          granted += g;
          if (!FiniteNonNegative(g)) {
            report->Check(false, "arbiter grant not finite");
          }
        }
        report->Check(granted <= b * (1.0 + 1e-9) + 1e-12,
                      "arbiter plan grants more than the remainder budget");
        points.push_back({sol.objectives[0] / b, sol.objectives[1] / fair});
      }
      t.plan_hv.push_back(opt::Hypervolume2D(points, 0.0, 0.0));
      solve_ms += ms;
      evals += static_cast<double>(res->evaluations);
      front_points += static_cast<double>(res->pareto_front.size());
    }
  }
  t.layer["fleet.arbitrate_ms"] = solve_ms;
  t.layer["opt.evals_per_s"] = solve_ms > 0.0 ? 1e3 * evals / solve_ms : 0.0;
  t.layer["opt.front_points"] =
      t.plan_hv.empty() ? 0.0
                        : front_points / static_cast<double>(t.plan_hv.size());

  t.digest = fm->ControlDigest();
  AppendOutcome(t, &t.digest);
  {
    Scoped s(spans, "fleet.teardown");
    fm.reset();
  }
  return t;
}

DriveInput FleetDriveInput(uint64_t seed) {
  // The fleet partitions' mix: 1000 users, 100 urls, one generator
  // instance flushing every 5 s. The rate only sizes the drive.
  DriveInput in;
  in.mix.num_users = 1000;
  in.mix.num_urls = 100;
  in.mix.generator_instances = 1;
  in.mix.emit_period_sec = 5.0;
  in.rate_per_sec = 2000.0;
  in.seconds = 120.0;
  in.seed = seed;
  return in;
}

// ------------------------------------------------- single managed flows

// Re-plan hooks shared by surge and replan: the update_request ->
// on_plan bracket times each plan, checks it and records its
// hypervolume. A request whose on_plan never comes is a failed plan.
struct PlanProbe {
  std::vector<core::ResourceShareRequest> requests;
  size_t next = 0;
  size_t answered = 0;
  double started = 0.0;
  size_t span = 0;
  SpanLog* spans = nullptr;
  Report* report = nullptr;
  Trial* trial = nullptr;
  const char* who = "";
  double front_points = 0.0;
  double plan_ms = 0.0;

  void Install(core::ReplanConfig* rc) {
    rc->update_request = [this](SimTime, core::ResourceShareRequest* req) {
      if (span != 0) spans->End(span);  // previous plan never answered
      *req = requests[std::min(next, requests.size() - 1)];
      ++next;
      span = spans->Begin("core.replan");
      started = NowSec();
    };
    rc->on_plan = [this](SimTime, const core::ResourceShareResult& res) {
      double ms = 1e3 * (NowSec() - started);
      spans->End(span);
      span = 0;
      const core::ResourceShareRequest& req =
          requests[std::min(next - 1, requests.size() - 1)];
      bool ok = CheckPlans(req, res, who, report);
      report->Op(ok, std::string(who) + ": plan failed its checks");
      ++answered;
      trial->plan_ms.push_back(ms);
      trial->plan_hv.push_back(NormalizedHypervolume(req, res));
      front_points += static_cast<double>(res.pareto_plans.size());
      plan_ms += ms;
    };
  }

  void Finish() {
    for (size_t i = answered; i < next; ++i) {
      report->Op(false, std::string(who) + ": re-plan produced no plan");
    }
    trial->layer["core.replan_ms"] += plan_ms;
    trial->layer["core.replans"] += static_cast<double>(answered);
  }
};

struct FlowSpec {
  std::string who;
  uint64_t seed = 1;
  std::shared_ptr<workload::ArrivalProcess> arrival;
  workload::ClickStreamConfig mix;
  flow::FlowConfig flow;
  core::LayerElasticityConfig layers[core::kNumLayers];
  bool record_spans = false;
  core::ReplanConfig replan;  ///< Hooks are installed by the trial.
  std::vector<core::ResourceShareRequest> requests;
};

core::LayerElasticityConfig LayerConfig(double min, double max) {
  core::LayerElasticityConfig lc;
  lc.reference_utilization_pct = 60.0;
  lc.monitoring_period_sec = 120.0;
  lc.monitoring_window_sec = 120.0;
  lc.min_resource = min;
  lc.max_resource = max;
  return lc;
}

// One managed flow the benchmark owns, with everything it runs on.
// Members are destroyed bottom-up: the flow before what it points into.
struct LiveFlow {
  FlowSpec spec;
  std::unique_ptr<obs::Telemetry> sim_probe;
  sim::Simulation sim;
  cloudwatch::MetricStore metrics;
  obs::Telemetry telemetry;
  PlanProbe probe;
  core::ManagedFlow mf;
};

// Builds the managed flows with their re-planning, advances them slice
// by slice (each flow to the same instant), checks each after every
// slice and collects the outcome. `between_slices` runs after each
// slice, outside RunUntil.
template <typename BetweenSlices>
Trial RunManagedFlows(std::vector<FlowSpec> specs, double horizon_sec,
                      double slice_sec, bool traced, bool setup_only,
                      SpanLog* spans, Report* report,
                      const std::string& out_dir,
                      BetweenSlices between_slices) {
  Trial t;
  std::vector<std::unique_ptr<LiveFlow>> flows;
  for (FlowSpec& spec : specs) {
    auto lf = std::make_unique<LiveFlow>();
    lf->spec = std::move(spec);
    LiveFlow& f = *lf;
    flows.push_back(std::move(lf));
    f.telemetry.spans().set_enabled(f.spec.record_spans);
    f.probe.requests = std::move(f.spec.requests);
    f.probe.spans = spans;
    f.probe.report = report;
    f.probe.trial = &t;
    f.probe.who = f.spec.who.c_str();
    f.probe.Install(&f.spec.replan);

    double t0 = NowSec();
    Result<core::ManagedFlow> built = [&] {
      Scoped s(spans, "core.FlowBuilder.Build");
      return core::FlowBuilder()
          .WithFlowConfig(f.spec.flow)
          .WithIngestion(f.spec.layers[0])
          .WithAnalytics(f.spec.layers[1])
          .WithStorage(f.spec.layers[2])
          .WithControllerKind(core::ControllerKind::kAdaptiveGain)
          .WithWorkload(f.spec.arrival, f.spec.mix)
          .WithSeed(f.spec.seed)
          .WithTelemetry(&f.telemetry)
          .Build(&f.sim, &f.metrics);
    }();
    t.layer["core.build_ms"] += 1e3 * (NowSec() - t0);
    if (!built.ok()) {
      report->Check(false, "FlowBuilder::Build: " + built.status().ToString());
      return t;
    }
    f.mf = built.MoveValueOrDie();
    {
      Scoped s(spans, "core.EnableReplanning");
      Status st = f.mf.manager->EnableReplanning(std::move(f.spec.replan));
      if (!st.ok()) {
        report->Check(false, "EnableReplanning: " + st.ToString());
        return t;
      }
    }
    t.setup_s += NowSec() - t0;
  }
  if (setup_only) return t;

  if (traced) {
    for (auto& f : flows) {
      f->sim_probe = SimProbe();
      f->sim.SetTelemetry(f->sim_probe.get());
    }
  }
  // The last slice ends on the horizon.
  size_t slices =
      static_cast<size_t>(std::ceil(horizon_sec / slice_sec - 1e-9));
  for (size_t k = 1; k <= slices; ++k) {
    double until = std::min(static_cast<double>(k) * slice_sec, horizon_sec);
    for (auto& f : flows) {
      double r0 = NowSec();
      {
        Scoped s(spans, "sim.RunUntil");
        f->sim.RunUntil(until);
      }
      t.call_s.push_back(NowSec() - r0);
      t.run_s += t.call_s.back();
      std::string why;
      bool ok = CheckFlow(*f->mf.flow, &why);
      report->Op(ok, f->spec.who + " slice " + std::to_string(k) + ": " + why);
    }
    between_slices(k, &t);
  }

  double front_points = 0.0;
  for (auto& f : flows) {
    f->probe.Finish();
    front_points += f->probe.front_points;
    flow::DataAnalyticsFlow& flow = *f->mf.flow;
    t.flow_sim_s += f->sim.Now();
    if (traced) {
      t.layer["sim.callback_ms"] += CallbackMs(*f->sim_probe);
      f->sim.SetTelemetry(nullptr);
    }
    t.layer["sim.events"] += static_cast<double>(f->sim.events_executed());
    t.generated += static_cast<double>(flow.generator()->total_generated());
    t.dropped += static_cast<double>(flow.generator()->total_dropped());
    AddSubstrateCounters(flow, f->metrics, f->sim.Now(), &t);
    AddControlOutcome(*f->mf.manager, 60.0, f->spec.who, &t, report);
    t.layer["control.steps"] +=
        static_cast<double>(f->telemetry.decisions().total_appended());
    auto counters = f->mf.manager->ReplanCounters();
    if (counters.ok()) AddPlannerCounters(*counters, &t);
    t.layer["obs.spans"] +=
        static_cast<double>(f->telemetry.spans().total_started());
    t.layer["obs.spans_evicted"] +=
        static_cast<double>(f->telemetry.spans().evicted());
    AppendDecisions(f->telemetry, f->spec.who, &t.digest);
  }
  t.layer["sim.run_ms"] = 1e3 * t.run_s;
  double evals = t.layer["opt.evaluations"];
  double ms = t.layer["core.replan_ms"];
  t.layer["opt.evals_per_s"] = ms > 0.0 ? 1e3 * evals / ms : 0.0;
  t.layer["opt.front_points"] =
      t.plan_hv.empty() ? 0.0
                        : front_points / static_cast<double>(t.plan_hv.size());

  for (auto& f : flows) {
    if (!f->spec.record_spans || out_dir.empty()) continue;
    // Exports of the program's own telemetry, as a user would take them.
    Scoped s(spans, "obs.export");
    double e0 = NowSec();
    std::string base = out_dir + "/" + f->spec.who;
    Status st = f->telemetry.ExportTrace(base + "-trace.json");
    if (st.ok()) st = f->telemetry.ExportSpans(base + "-spans.json");
    if (st.ok()) {
      st = f->telemetry.ExportJsonl(base + "-metrics.jsonl", f->sim.Now());
    }
    report->Check(st.ok(), "telemetry export: " + st.ToString());
    t.layer["obs.export_ms"] += 1e3 * (NowSec() - e0);
    for (const char* ext : {"-trace.json", "-spans.json", "-metrics.jsonl"}) {
      std::error_code ec;
      auto n = std::filesystem::file_size(base + ext, ec);
      if (!ec) t.layer["obs.export_bytes"] += static_cast<double>(n);
    }
  }
  AppendOutcome(t, &t.digest);
  return t;
}

// ---------------------------------------------------------------- surge

constexpr double kSurgeHours = 2.0;
constexpr double kSurgeReplanSec = 900.0;

Trial SurgeTrial(uint64_t seed, bool traced, bool setup_only, SpanLog* spans,
                 Report* report, const std::string& out_dir) {
  FlowSpec spec;
  spec.who = "surge";
  spec.seed = seed;
  // 800 rec/s plus a 2,500 rec/s flash crowd at mid-run, 30 min long
  // with 5 min ramps: about 10^7 records. The surge outruns the
  // provisioned shards, workers and WCU until the controllers catch up,
  // and the stream's 3-shard limit for as long as it lasts: Kinesis
  // throttles about 300 rec/s at the peak.
  auto arrival = std::make_shared<workload::CompositeArrival>();
  arrival->Add(std::make_shared<workload::ConstantArrival>(800.0));
  arrival->Add(std::make_shared<workload::FlashCrowdArrival>(
      0.0, 2500.0, kSurgeHours * kHour / 2.0, 1800.0, 300.0));
  spec.arrival = arrival;
  // FlowBuilder's default bounds, but at most 3 shards. Drops are then
  // set by the shard limit rather than by when the ingestion loop
  // happens to resize, and stay within a few percent from seed to seed.
  spec.layers[0] = LayerConfig(1.0, 3.0);
  spec.layers[1] = LayerConfig(1.0, 40.0);
  spec.layers[2] = LayerConfig(5.0, 2000.0);
  spec.record_spans = true;
  const double horizon = kSurgeHours * kHour;

  // Re-plans every 15 min under a budget of about $5/h, drifting a few
  // percent per plan: it binds (the all-maximum plan costs $5.35/h), yet
  // each layer alone can still reach its bound. Plain solves (no warm
  // start, cache or stall exit): each costs the full 40 generations.
  spec.replan.period_sec = kSurgeReplanSec;
  spec.replan.solver.population_size = 48;
  spec.replan.solver.generations = 40;
  spec.replan.solver.num_threads = 1;
  spec.replan.solver.seed = seed;
  std::mt19937_64 rng(seed ^ 0x5u);
  std::normal_distribution<double> drift(0.0, 0.03);
  double budget = 5.0;
  for (double at = 0.0; at <= horizon; at += kSurgeReplanSec) {
    core::ResourceShareRequest req;
    req.hourly_budget_usd = budget;
    for (int i = 0; i < core::kNumLayers; ++i) {
      req.bounds[i] = {spec.layers[i].min_resource, spec.layers[i].max_resource};
    }
    spec.requests.push_back(req);
    budget = std::clamp(budget * std::exp(drift(rng)), 4.5, 5.5);
  }
  std::vector<FlowSpec> specs;
  specs.push_back(std::move(spec));
  return RunManagedFlows(std::move(specs), horizon, 60.0, traced, setup_only,
                         spans, report, out_dir, [](size_t, Trial*) {});
}

DriveInput SurgeDriveInput(uint64_t seed) {
  DriveInput in;  // FlowBuilder's default click-stream mix.
  in.rate_per_sec = 3000.0;
  in.seconds = 120.0;
  in.seed = seed;
  return in;
}

// --------------------------------------------------------------- replan

constexpr size_t kReplanFlows = 32;
constexpr size_t kReplanRequestsPerFlow = 8;
constexpr double kReplanPeriodSec = 480.0;
constexpr double kReplanStaggerSec = 15.0;  // Flow i re-plans at i x 15 s.
constexpr size_t kRepeatEvery = 4;  // Every 4th request repeats the last.

// Budgets and upper bounds drift the way a re-planning flow's do: each
// request is a mean-reverting AR(1) step away from the flow's nominal
// request, so consecutive requests are alike (warm starts help) while
// every seed's sequence has the same spread. Every kRepeatEvery-th
// request repeats its predecessor exactly: 2 of a flow's 8 requests
// (25%) can be served from the plan cache.
std::vector<core::ResourceShareRequest> MakeReplanRequests(uint64_t seed) {
  std::mt19937_64 rng(seed ^ 0x7u);
  std::normal_distribution<double> noise(0.0, 1.0);
  const double nominal_budget = 2.2;
  const double nominal_max[3] = {12.0, 24.0, 400.0};
  const double min[3] = {1.0, 1.0, 5.0};
  constexpr double kPhi = 0.5;     // AR(1) persistence.
  constexpr double kSigma = 0.1;   // Relative step size.
  double dev[4] = {0.0, 0.0, 0.0, 0.0};  // Log-deviations: budget, bounds.
  core::ResourceShareRequest req;
  // Fig. 4-style dependencies: r_S >= 2 r_I and 5 r_A >= r_I.
  req.constraints.push_back(core::LinearConstraint::AtLeast(
      core::Layer::kStorage, 1.0, core::Layer::kIngestion, 2.0, "rS>=2rI"));
  req.constraints.push_back(core::LinearConstraint::AtLeast(
      core::Layer::kAnalytics, 5.0, core::Layer::kIngestion, 1.0, "5rA>=rI"));
  std::vector<core::ResourceShareRequest> out;
  for (size_t k = 0; k < kReplanRequestsPerFlow; ++k) {
    if (k % kRepeatEvery != kRepeatEvery - 1) {
      for (double& d : dev) d = kPhi * d + kSigma * noise(rng);
      req.hourly_budget_usd = nominal_budget * std::exp(dev[0]);
      for (int i = 0; i < core::kNumLayers; ++i) {
        req.bounds[i] = {min[i], std::round(nominal_max[i] * std::exp(dev[i + 1]))};
      }
    }
    out.push_back(req);
  }
  return out;
}

// Demand vectors of a 1000-tenant fleet (the flow is one tenant), drifting
// between arbitrations; total demand is about twice the budget, so the
// arbiter's solver runs every time.
struct ArbiterDrive {
  std::vector<double> demands, weights;
  std::mt19937_64 rng;
  explicit ArbiterDrive(uint64_t seed) : rng(seed ^ 0xau) {
    std::lognormal_distribution<double> d(std::log(0.18), 0.6);
    std::uniform_real_distribution<double> w(0.5, 2.0);
    for (size_t i = 0; i < kFleetTenants; ++i) {
      demands.push_back(d(rng));
      weights.push_back(w(rng));
    }
  }
  void Drift() {
    std::normal_distribution<double> n(0.0, 0.05);
    for (double& d : demands) d *= std::exp(n(rng));
  }
};

Trial ReplanTrial(uint64_t seed, bool traced, bool setup_only, SpanLog* spans,
                  Report* report, const std::string& out_dir) {
  // 32 small re-planning tenants: the planner takes about half of the
  // run, and its latency is pooled over 32 solver seeds (one seed's
  // stall exits are correlated across its plans). Tenant 0 carries 100
  // rec/s with a 1000 rec/s flash crowd that outruns one Kinesis shard
  // (drops) and the workers its plans allow (overload). The others
  // carry 10 rec/s with the fleet partitions' key space and 5 s Storm
  // ticks, plus a 300 rec/s flash crowd each, staggered across the run.
  // Their producers flush every second: 5 s batches at 300 rec/s would
  // overflow a shard's write bucket and drop a fifth of the records.
  std::vector<FlowSpec> specs;
  for (size_t i = 0; i < kReplanFlows; ++i) {
    FlowSpec spec;
    spec.who = "replan-" + std::to_string(i);
    spec.seed = seed * kReplanFlows + i;
    auto arrival = std::make_shared<workload::CompositeArrival>();
    arrival->Add(std::make_shared<workload::ConstantArrival>(i == 0 ? 100.0 : 10.0));
    if (i == 0) {
      arrival->Add(std::make_shared<workload::FlashCrowdArrival>(
          0.0, 1000.0, 2700.0, 900.0, 120.0));
    } else {
      arrival->Add(std::make_shared<workload::FlashCrowdArrival>(
          0.0, 300.0, 100.0 * static_cast<double>(i), 300.0, 60.0));
      spec.mix.num_users = 1000;
      spec.mix.num_urls = 100;
      spec.mix.generator_instances = 1;
      spec.flow.cluster.tick_period_sec = 5.0;
    }
    spec.arrival = arrival;
    spec.layers[0] = LayerConfig(1.0, 20.0);
    spec.layers[1] = LayerConfig(1.0, 40.0);
    spec.layers[2] = LayerConfig(5.0, 800.0);
    spec.replan.period_sec = kReplanPeriodSec;
    spec.replan.start_delay_sec = kReplanStaggerSec * static_cast<double>(i);
    spec.replan.solver.population_size = 48;
    spec.replan.solver.generations = 40;
    spec.replan.solver.num_threads = 1;
    spec.replan.solver.seed = spec.seed;
    spec.replan.incremental = fleet::PartitionConfig{}.flow_incremental;
    spec.requests = MakeReplanRequests(spec.seed);
    specs.push_back(std::move(spec));
  }
  // The last tenant's last re-plan lands on the horizon.
  const double horizon =
      kReplanPeriodSec * static_cast<double>(kReplanRequestsPerFlow - 1) +
      kReplanStaggerSec * static_cast<double>(kReplanFlows - 1);

  double a0 = NowSec();
  fleet::ArbiterConfig ac;
  ac.fleet_budget_usd_per_hour = kFleetBudget;
  ac.solver = fleet::FleetConfig{}.arbiter_solver;
  ac.solver.seed = seed;
  fleet::BudgetArbiter arbiter(ac);
  ArbiterDrive demand(seed);
  double arbiter_setup = NowSec() - a0;

  double arb_ms = 0.0;
  size_t arbitrations = 0;
  // The flows advance in rounds of one re-plan period, each flow in one
  // RunUntil call; one Arbitrate follows every round.
  Trial t = RunManagedFlows(
      std::move(specs), horizon, kReplanPeriodSec, traced, setup_only, spans,
      report, out_dir, [&](size_t k, Trial* trial) {
        demand.Drift();
        double s0 = NowSec();
        Result<fleet::BudgetSplit> split = [&] {
          Scoped s(spans, "fleet.Arbitrate");
          return arbiter.Arbitrate(demand.demands, demand.weights);
        }();
        arb_ms += 1e3 * (NowSec() - s0);
        ++arbitrations;
        bool ok = split.ok() && split->conserved &&
                  split->total_granted_usd <= kFleetBudget * (1.0 + 1e-9);
        if (split.ok()) {
          for (double g : split->grants_usd) ok = ok && FiniteNonNegative(g);
          char line[64];
          std::snprintf(line, sizeof(line), "arbitrate %zu granted=%.9g\n",
                        k, split->total_granted_usd);
          trial->digest += line;
        }
        report->Op(ok, "Arbitrate: split not conserving or not finite");
      });
  t.setup_s += arbiter_setup;
  t.layer["fleet.arbitrations"] = static_cast<double>(arbitrations);
  t.layer["fleet.arbitrate_ms"] = arb_ms;
  return t;
}

DriveInput ReplanDriveInput(uint64_t seed) {
  DriveInput in;
  in.rate_per_sec = 300.0;
  in.seconds = 300.0;
  in.seed = seed;
  return in;
}

const Workload kWorkloads[] = {
    {"fleet", FleetTrial, FleetDriveInput},
    {"surge", SurgeTrial, SurgeDriveInput},
    {"replan", ReplanTrial, ReplanDriveInput},
};

}  // namespace

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

bool SameDigest(const std::string& a, const std::string& b, std::string* why) {
  if (a == b) return true;
  size_t line = 1, i = 0;
  while (i < a.size() && i < b.size() && a[i] == b[i]) {
    if (a[i] == '\n') ++line;
    ++i;
  }
  *why = "digests differ at line " + std::to_string(line) + " (" +
         std::to_string(a.size()) + " vs " + std::to_string(b.size()) +
         " bytes)";
  return false;
}

}  // namespace perfbench
