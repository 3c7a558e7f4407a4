// flower_perfbench — the repository benchmark.
//
//   flower_perfbench --workload fleet|surge|replan --seed N --seconds S
//                    --trace 0|1 [--out-dir DIR]
//   flower_perfbench --self-test [--out-dir DIR]
//
// --trace 0 repeats whole trials (set-up + run) of the workload until S
// seconds have passed and reports the end-to-end metrics; --trace 1
// runs one untraced reference trial, then traced trials, then the layer
// drives, and reports the per-layer metrics. Every metric is printed
// by name with its unit and direction; the last line of stdout is the
// JSON result. Exit code 0 only when every check passed.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>

#include "report.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool self_test = false;
  std::string out_dir;
};

double PeakRssMiB() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux.
}

double SimRate(const Trial& t) {
  return t.run_s > 0.0 ? t.flow_sim_s / t.run_s : 0.0;
}

// sim_rate over the trials of one seed: a trial's simulated
// flow-seconds over the sum, call by call, of the median wall time of
// each RunFor / RunUntil call across the trials. A burst of host noise
// slows a few calls of one trial and is outvoted call by call. With one
// call per trial (fleet) this is the median of the trials' rates.
double SimRate(const std::vector<Trial>& trials, Report* report) {
  if (trials.empty()) return 0.0;
  const size_t calls = trials.front().call_s.size();
  for (const Trial& t : trials) {
    if (t.call_s.size() != calls) {
      report->Check(false, "trials of one seed made different run calls");
      return 0.0;
    }
  }
  double wall = 0.0;
  std::vector<double> call;
  for (size_t i = 0; i < calls; ++i) {
    call.clear();
    for (const Trial& t : trials) call.push_back(t.call_s[i]);
    wall += Median(call);
  }
  return wall > 0.0 ? trials.front().flow_sim_s / wall : 0.0;
}

double Pct(double num, double den) { return den > 0.0 ? 100.0 * num / den : 0.0; }

double Mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

// Trials are repeated until the budget is spent; at least this many, so
// set-up and run times are medians of several.
constexpr size_t kMinTrials = 3;
constexpr size_t kMinSetupPasses = 5;
constexpr size_t kMaxSetupPasses = 31;
constexpr double kSetupBudgetSec = 1.0;
constexpr double kSetupPassSec = 0.02;

void CheckSameOutcome(const Trial& first, const Trial& t, const char* what,
                      Report* report) {
  std::string why;
  report->Check(SameDigest(first.digest, t.digest, &why),
                std::string(what) + ": " + why);
}

void RunUntraced(const Workload& w, const Options& o, Report* report) {
  SpanLog off(false);
  std::vector<Trial> trials;
  double t0 = NowSec();
  // The first trial warms caches and the allocator; it is checked like
  // the others but left out of the timings.
  Trial warmup = w.run(o.seed, false, false, &off, report, o.out_dir);
  while (report->correct() &&
         (trials.size() < kMinTrials || NowSec() - t0 < o.seconds)) {
    trials.push_back(w.run(o.seed, false, false, &off, report, o.out_dir));
    std::fprintf(stderr,
                 "trial %zu: setup %.6f s, run %.6f s (plans %.6f s), "
                 "sim_rate %.1f\n",
                 trials.size(), trials.back().setup_s, trials.back().run_s,
                 trials.back().layer["core.replan_ms"] / 1e3,
                 SimRate(trials.back()));
    CheckSameOutcome(warmup, trials.back(), "repeated trial of one seed",
                     report);
  }
  std::vector<double> setups, plan_ms;
  for (const Trial& t : trials) {
    plan_ms.insert(plan_ms.end(), t.plan_ms.begin(), t.plan_ms.end());
  }
  // Set-up is timed in passes of its own after the trials, when the
  // allocator is as warm for every pass as for the next (a trial's
  // first set-up pays page faults its later ones do not). A pass
  // repeats the set-up until it has measured kSetupPassSec, so a
  // sub-millisecond set-up is averaged over many repetitions.
  double s0 = NowSec();
  while (setups.size() < kMinSetupPasses ||
         (setups.size() < kMaxSetupPasses && NowSec() - s0 < kSetupBudgetSec)) {
    double sum = 0.0;
    int reps = 0;
    while (reps == 0 || sum < kSetupPassSec) {
      sum += w.run(o.seed, false, true, &off, report, o.out_dir).setup_s;
      ++reps;
    }
    setups.push_back(sum / reps);
  }
  const Trial& f = warmup;
  size_t n = plan_ms.size();
  double top = HighestSupportedPercentile(n);
  char note[160];
  std::snprintf(note, sizeof(note),
                "median of %zu trials, call by call; run calls a trial: %zu",
                trials.size(), f.call_s.size());
  report->Add("sim_rate", SimRate(trials, report), "flow-s/s", "higher", note);
  report->Add("setup_s", Median(setups), "s", "lower",
              "median of " + std::to_string(setups.size()) + " set-up passes");
  report->Add("peak_rss_mb", PeakRssMiB(), "MiB", "lower");
  std::snprintf(note, sizeof(note), "n=%zu plans", n);
  report->Add("plan_ms_p50", Percentile(plan_ms, 50.0), "ms", "lower", note);
  std::snprintf(note, sizeof(note),
                "n=%zu, %zu samples beyond; highest percentile with >=10 "
                "beyond: p%g = %.4f ms",
                n, SamplesBeyond(n, 90.0), top,
                top > 0.0 ? Percentile(plan_ms, top) : 0.0);
  report->Add("plan_ms_p90", Percentile(plan_ms, 90.0), "ms", "lower", note);
  std::snprintf(note, sizeof(note), "mean over %zu fronts", f.plan_hv.size());
  report->Add("plan_hypervolume", Mean(f.plan_hv), "1", "higher", note);
  std::snprintf(note, sizeof(note), "%llu of %llu control steps",
                static_cast<unsigned long long>(f.overload_steps),
                static_cast<unsigned long long>(f.steps));
  report->Add("overload_pct", Pct(static_cast<double>(f.overload_steps),
                                  static_cast<double>(f.steps)),
              "%", "lower", note);
  std::snprintf(note, sizeof(note), "%.0f of %.0f records", f.dropped,
                f.generated);
  report->Add("drop_pct", Pct(f.dropped, f.generated), "%", "lower", note);
  report->Add("cost_usd_per_h", f.cost_usd_per_h, "usd/h", "lower");
}

struct LayerMetric {
  const char* name;
  const char* unit;
  const char* better;
};

// Every per-layer metric, in BENCHMARK.json order. A module the
// workload does not reach reports 0.
const LayerMetric kLayerMetrics[] = {
    {"sim.events", "count", "lower"},
    {"sim.run_ms", "ms", "lower"},
    {"sim.callback_ms", "ms", "lower"},
    {"sim.calendar_ms", "ms", "lower"},
    {"sim.ns_per_event", "ns", "lower"},
    {"sim.drive_est_ms", "ms", "lower"},
    {"sim.unattributed_ms", "ms", "lower"},
    {"workload.records", "count", "higher"},
    {"workload.gen_ns", "ns", "lower"},
    {"workload.gen_est_ms", "ms", "lower"},
    {"kinesis.records_in", "count", "higher"},
    {"kinesis.records_read", "count", "higher"},
    {"kinesis.throttled", "count", "lower"},
    {"kinesis.read_throttles", "count", "lower"},
    {"kinesis.backlog_max", "count", "lower"},
    {"kinesis.lag_s_max", "s", "lower"},
    {"kinesis.put_ns", "ns", "lower"},
    {"kinesis.put_est_ms", "ms", "lower"},
    {"kinesis.get_ns", "ns", "lower"},
    {"kinesis.get_est_ms", "ms", "lower"},
    {"storm.executed", "count", "higher"},
    {"storm.acked", "count", "higher"},
    {"storm.sink_throttles", "count", "lower"},
    {"storm.pending_max", "count", "lower"},
    {"storm.workers_max", "count", "lower"},
    {"flow.parse_ns", "ns", "lower"},
    {"flow.parse_est_ms", "ms", "lower"},
    {"flow.window_ns", "ns", "lower"},
    {"flow.window_est_ms", "ms", "lower"},
    {"flow.persist_ns", "ns", "lower"},
    {"flow.persist_est_ms", "ms", "lower"},
    {"dynamodb.writes", "count", "higher"},
    {"dynamodb.throttled_writes", "count", "lower"},
    {"dynamodb.items", "count", "higher"},
    {"dynamodb.put_ns", "ns", "lower"},
    {"cloudwatch.datapoints", "count", "lower"},
    {"cloudwatch.query_ns", "ns", "lower"},
    {"cloudwatch.query_est_ms", "ms", "lower"},
    {"control.steps", "count", "higher"},
    {"control.resizes", "count", "lower"},
    {"control.sensor_misses", "count", "lower"},
    {"control.actuation_failures", "count", "lower"},
    {"control.retries", "count", "lower"},
    {"core.build_ms", "ms", "lower"},
    {"core.replans", "count", "higher"},
    {"core.replan_ms", "ms", "lower"},
    {"core.cache_hit_ratio", "ratio", "higher"},
    {"core.cache_hits", "count", "higher"},
    {"core.cache_misses", "count", "lower"},
    {"opt.evaluations", "count", "lower"},
    {"opt.evals_per_s", "1/s", "higher"},
    {"opt.early_exits", "count", "higher"},
    {"opt.warm_starts", "count", "higher"},
    {"opt.front_points", "count", "higher"},
    {"fleet.start_ms", "ms", "lower"},
    {"fleet.arbitrations", "count", "higher"},
    {"fleet.arbitrate_ms", "ms", "lower"},
    {"fleet.mailbox_waits", "count", "lower"},
    {"fleet.conservation_violations", "count", "lower"},
    {"exec.busy_s", "s", "lower"},
    {"exec.idle_s", "s", "lower"},
    {"exec.overlap_ratio", "ratio", "higher"},
    {"exec.steals", "count", "lower"},
    {"exec.tasks", "count", "lower"},
    {"obs.spans", "count", "higher"},
    {"obs.spans_evicted", "count", "lower"},
    {"obs.recorder_decisions", "count", "higher"},
    {"obs.export_ms", "ms", "lower"},
    {"obs.export_bytes", "bytes", "lower"},
    {"trace.untraced_sim_rate", "flow-s/s", "higher"},
    {"trace.traced_sim_rate", "flow-s/s", "higher"},
    {"trace.overhead_pct", "%", "lower"},
    {"bench.spans", "count", "higher"},
};

void RunTraced(const Workload& w, const Options& o, Report* report) {
  SpanLog off(false);
  SpanLog spans(true);
  double t0 = NowSec();
  // The untraced reference doubles as the warm-up. Traced and untraced
  // trials then alternate, so the overhead compares like with like.
  Trial reference = w.run(o.seed, false, false, &off, report, o.out_dir);
  std::vector<Trial> traced, untraced;
  while (report->correct() &&
         (traced.empty() || untraced.empty() || NowSec() - t0 < o.seconds)) {
    traced.push_back(w.run(o.seed, true, false, &spans, report, o.out_dir));
    CheckSameOutcome(reference, traced.back(),
                     "traced trial vs untraced reference", report);
    untraced.push_back(w.run(o.seed, false, false, &off, report, o.out_dir));
    CheckSameOutcome(reference, untraced.back(), "repeated trial of one seed",
                     report);
  }

  Counters L = traced.back().layer;
  const Counters& U = reference.layer;
  auto u = [&](const char* k) {
    auto it = U.find(k);
    return it == U.end() ? 0.0 : it->second;
  };
  Counters drive;
  {
    Scoped s(&spans, "drives");
    drive = RunDrives(w.drive_input(o.seed), &spans, report);
  }
  for (const auto& [k, v] : drive) L[k] = v;

  // Estimate = ns/op from the drive x the untraced trial's op count.
  auto est = [&](const char* out, const char* ns, double ops) {
    L[out] = L[ns] * ops / 1e6;
    return L[out];
  };
  double total = 0.0;
  total += est("workload.gen_est_ms", "workload.gen_ns", u("workload.records"));
  total += est("kinesis.put_est_ms", "kinesis.put_ns", u("workload.records"));
  total += est("kinesis.get_est_ms", "kinesis.get_ns", u("kinesis.records_read"));
  total += est("flow.parse_est_ms", "flow.parse_ns", u("kinesis.records_read"));
  total += est("flow.window_est_ms", "flow.window_ns", u("kinesis.records_read"));
  total += est("flow.persist_est_ms", "flow.persist_ns",
               u("dynamodb.writes") + u("dynamodb.throttled_writes"));
  total += est("cloudwatch.query_est_ms", "cloudwatch.query_ns",
               u("control.steps"));
  L["sim.drive_est_ms"] = total;
  // Never clipped: a drive that overshoots shows as a negative residual.
  L["sim.unattributed_ms"] = L["sim.callback_ms"] - total;
  L["sim.calendar_ms"] = L["sim.run_ms"] - L["sim.callback_ms"];
  L["sim.ns_per_event"] =
      L["sim.events"] > 0.0 ? 1e6 * L["sim.run_ms"] / L["sim.events"] : 0.0;
  double lookups = L["core.cache_hits"] + L["core.cache_misses"];
  L["core.cache_hit_ratio"] = lookups > 0.0 ? L["core.cache_hits"] / lookups : 0.0;
  L["trace.untraced_sim_rate"] = SimRate(untraced, report);
  L["trace.traced_sim_rate"] = SimRate(traced, report);
  L["trace.overhead_pct"] =
      L["trace.traced_sim_rate"] > 0.0
          ? 100.0 * (L["trace.untraced_sim_rate"] / L["trace.traced_sim_rate"] - 1.0)
          : 0.0;
  L["bench.spans"] = static_cast<double>(spans.size());

  std::map<std::string, std::string> notes = {
      {"core.cache_hit_ratio",
       std::to_string(static_cast<long long>(L["core.cache_hits"])) + " hits / " +
           std::to_string(static_cast<long long>(lookups)) + " lookups"},
      {"sim.unattributed_ms", "callback_ms - drive_est_ms"},
      {"trace.overhead_pct",
       "untraced / traced sim_rate, medians call by call, " +
           std::to_string(traced.size()) + " trials each, alternating"},
      {"workload.gen_est_ms", "x workload.records of the untraced trial"},
      {"kinesis.put_est_ms", "x workload.records of the untraced trial"},
      {"kinesis.get_est_ms", "x kinesis.records_read of the untraced trial"},
      {"flow.parse_est_ms", "x kinesis.records_read of the untraced trial"},
      {"flow.window_est_ms", "x kinesis.records_read of the untraced trial"},
      {"flow.persist_est_ms", "x dynamodb writes+throttled of the untraced trial"},
      {"cloudwatch.query_est_ms", "x control.steps of the untraced trial"},
  };
  for (const LayerMetric& m : kLayerMetrics) {
    report->Add(m.name, L.count(m.name) ? L[m.name] : 0.0, m.unit, m.better,
                notes.count(m.name) ? notes[m.name] : "");
  }
  if (!o.out_dir.empty()) {
    std::string path = o.out_dir + "/" + w.name + "-bench-spans.json";
    report->Check(spans.WriteChromeTrace(path), "cannot write " + path);
    std::printf("bench spans: %zu written to %s\n", spans.size(), path.c_str());
    for (const auto& [name, ms] : spans.SelfMsByName()) {
      std::printf("  self %-32s %12.3f ms\n", name.c_str(), ms);
    }
  }
}

// Self-tests of the benchmark's own logic: the percentile selection
// and the digest comparison the traced run relies on.
int SelfTest(const Options& o) {
  int failures = 0;
  auto expect = [&](bool ok, const std::string& what) {
    std::printf("  [%s] %s\n", ok ? "ok" : "FAIL", what.c_str());
    if (!ok) ++failures;
  };
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  expect(Percentile(v, 50.0) == 50.0 && Percentile(v, 90.0) == 90.0,
         "nearest-rank p50 / p90 of 1..100");
  expect(SamplesBeyond(100, 90.0) == 10, "p90 of 100 samples has 10 beyond");
  expect(HighestSupportedPercentile(100) == 90.0,
         "100 samples support p90, not p95");
  expect(HighestSupportedPercentile(99) == 75.0, "99 samples support only p75");
  expect(HighestSupportedPercentile(1000) == 99.0, "1000 samples support p99");
  expect(HighestSupportedPercentile(19) == 0.0, "19 samples support nothing");
  expect(HighestSupportedPercentile(20) == 50.0, "20 samples support p50");

  const Workload* w = FindWorkload("replan");
  SpanLog off(false);
  SpanLog spans(true);
  Report scratch;
  Trial a = w->run(o.seed, false, false, &off, &scratch, o.out_dir);
  Trial same = w->run(o.seed, true, false, &spans, &scratch, o.out_dir);
  Trial other = w->run(o.seed + 1, true, false, &spans, &scratch, o.out_dir);
  std::string why;
  expect(SameDigest(a.digest, same.digest, &why),
         "traced and untraced trials of one seed have the same digest");
  bool differs = !SameDigest(a.digest, other.digest, &why);
  expect(differs, "digest comparison fails for a traced trial of another "
                  "seed (" + why + ")");
  expect(scratch.correct(), "self-test trials pass their checks");
  std::printf("self-test: %d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (a == "--self-test") {
      o->self_test = true;
      continue;
    }
    if (a != "--workload" && a != "--seed" && a != "--seconds" &&
        a != "--trace" && a != "--out-dir") {
      std::fprintf(stderr, "unknown argument %s\n", a.c_str());
      return false;
    }
    if ((v = value()) == nullptr) {
      std::fprintf(stderr, "%s needs a value\n", a.c_str());
      return false;
    }
    char* end = nullptr;
    if (a == "--workload") {
      o->workload = v;
    } else if (a == "--out-dir") {
      o->out_dir = v;
    } else if (a == "--seed") {
      o->seed = std::strtoull(v, &end, 10);
    } else if (a == "--seconds") {
      o->seconds = std::strtod(v, &end);
    } else {
      o->trace = std::strcmp(v, "1") == 0;
      end = const_cast<char*>(v) + std::strlen(v);
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) end = nullptr;
    }
    if (end != nullptr && *end != '\0') {
      std::fprintf(stderr, "bad value for %s: %s\n", a.c_str(), v);
      return false;
    }
    if (a == "--trace" && end == nullptr) {
      std::fprintf(stderr, "--trace takes 0 or 1\n");
      return false;
    }
  }
  if (!(o->seconds > 0.0 && o->seconds <= 600.0)) {
    std::fprintf(stderr, "--seconds must be in (0, 600]\n");
    return false;
  }
  return true;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options o;
  if (!ParseArgs(argc, argv, &o)) return 2;
  if (!o.out_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(o.out_dir, ec);
    if (ec) {
      std::fprintf(stderr, "cannot create %s\n", o.out_dir.c_str());
      return 2;
    }
  }
  if (o.self_test) return SelfTest(o);
  const Workload* w = FindWorkload(o.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown --workload '%s' (fleet, surge, replan)\n",
                 o.workload.c_str());
    return 2;
  }
  Report report;
  if (o.trace) {
    RunTraced(*w, o, &report);
  } else {
    RunUntraced(*w, o, &report);
  }
  report.Print(w->name, o.trace);
  return report.correct() && report.failed() == 0 ? 0 : 1;
}
