// The benchmark's three workloads. Each trial builds the system from
// the seed-derived inputs, times the program's set-up calls and its
// RunFor / RunUntil calls, checks the outputs, and returns what it saw.
#ifndef FLOWER_PERFBENCH_WORKLOADS_H_
#define FLOWER_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "report.h"
#include "workload/clickstream.h"

namespace perfbench {

/// Per-layer observations of one trial, keyed by per-layer metric name.
/// Counts come from public accessors in every trial; timings are filled
/// only by traced trials.
using Counters = std::map<std::string, double>;

struct Trial {
  double setup_s = 0.0;     ///< Wall time in the program's set-up calls.
  double run_s = 0.0;       ///< Wall time inside RunFor / RunUntil.
  /// Wall time of each RunFor / RunUntil call, in call order: the same
  /// calls, in the same order, in every trial of one seed.
  std::vector<double> call_s;
  double flow_sim_s = 0.0;  ///< Simulated seconds advanced, summed over flows.
  /// Control decisions plus the simulated statistics: identical for
  /// every trial of one seed, traced or not.
  std::string digest;
  uint64_t steps = 0;           ///< Sensed control steps, all layers.
  uint64_t overload_steps = 0;  ///< Steps sensed above reference + 15.
  double generated = 0.0;       ///< Click records generated.
  double dropped = 0.0;         ///< Records the simulated Kinesis rejected.
  double cost_usd_per_h = 0.0;  ///< Mean hourly spend of applied actuations.
  std::vector<double> plan_ms;  ///< One latency per plan.
  std::vector<double> plan_hv;  ///< One normalized hypervolume per plan.
  Counters layer;
};

/// What a workload feeds the per-layer drives: its record mix and rate.
struct DriveInput {
  flower::workload::ClickStreamConfig mix;
  double rate_per_sec = 1000.0;
  double seconds = 120.0;  ///< Simulated seconds of generated traffic.
  uint64_t seed = 1;
};

struct Workload {
  const char* name;
  /// Runs one trial. `traced` attaches the timing hooks and records
  /// bench-side spans into `spans`; `setup_only` stops after set-up.
  Trial (*run)(uint64_t seed, bool traced, bool setup_only, SpanLog* spans,
               Report* report, const std::string& out_dir);
  DriveInput (*drive_input)(uint64_t seed);
};

const Workload* FindWorkload(const std::string& name);

/// Runs each layer's public functions alone on the workload's record
/// and key mix and returns their cost in ns per op, keyed by per-layer
/// metric name (workload.gen_ns, kinesis.put_ns, ...).
Counters RunDrives(const DriveInput& input, SpanLog* spans, Report* report);

/// True when two trial digests are byte-identical; otherwise writes
/// the first differing line into `why`.
bool SameDigest(const std::string& a, const std::string& b, std::string* why);

}  // namespace perfbench

#endif  // FLOWER_PERFBENCH_WORKLOADS_H_
