// Drives: the layers that only run inside RunUntil, called alone
// through their public functions on the workload's own record and key
// mix. The records come from the program's ClickStreamGenerator, pass
// through a Kinesis stream and the flow's bolts in pipeline order, and
// each stage's calls are timed without the simulator around them.
#include <algorithm>
#include <memory>

#include "cloudwatch/metric_store.h"
#include "dynamodb/table.h"
#include "flow/bolts.h"
#include "flow/flow.h"
#include "flow/sliding_window.h"
#include "kinesis/stream.h"
#include "sim/simulation.h"
#include "storm/topology.h"
#include "workload/arrival.h"
#include "workload/clickstream.h"
#include "workloads.h"

namespace perfbench {

using namespace flower;

namespace {

double NsPer(double seconds, size_t ops) {
  return ops == 0 ? 0.0 : 1e9 * seconds / static_cast<double>(ops);
}

kinesis::StreamConfig WideStream() {
  // Enough shards that the drive never throttles: the cost measured is
  // the accepted path.
  kinesis::StreamConfig sc;
  sc.initial_shards = 64;
  sc.max_shards = 64;
  return sc;
}

}  // namespace

Counters RunDrives(const DriveInput& in, SpanLog* spans, Report* report) {
  Counters out;
  const flow::FlowConfig defaults;

  // Generator (+ PutRecord) on its own simulation and stream.
  sim::Simulation gen_sim;
  kinesis::Stream gen_stream(&gen_sim, nullptr, WideStream());
  // The generator's periodic emitters stay scheduled on gen_sim, so it
  // lives as long as gen_sim; Stop() keeps later RunUntil calls (the
  // read drive's) from emitting more.
  workload::ClickStreamGenerator gen(
      &gen_sim, &gen_stream,
      std::make_shared<workload::ConstantArrival>(in.rate_per_sec), in.mix,
      in.seed);
  double gen_s = 0.0;
  {
    Scoped s(spans, "drive.workload.generate");
    double t0 = NowSec();
    gen_sim.RunUntil(in.seconds);
    gen_s = NowSec() - t0;
  }
  gen.Stop();
  size_t generated = gen.total_generated();
  report->Check(gen.total_dropped() == 0, "generator drive throttled");

  // GetRecordsInto: drain every shard, advancing simulated time between
  // rounds so the read quotas (5 calls/s, 2 MiB/s per shard) refill.
  std::vector<kinesis::Record> records;
  records.reserve(generated);
  double get_s = 0.0;
  {
    Scoped s(spans, "drive.kinesis.GetRecordsInto");
    std::vector<kinesis::Record> buf;
    double now = in.seconds;
    while (gen_stream.BacklogRecords() > 0) {
      now += 1.0;
      gen_sim.RunUntil(now);
      for (int shard = 0; shard < gen_stream.shard_count(); ++shard) {
        buf.clear();
        double t0 = NowSec();
        Status st = gen_stream.GetRecordsInto(shard, 1000, &buf);
        get_s += NowSec() - t0;
        if (st.ok()) records.insert(records.end(), buf.begin(), buf.end());
      }
    }
  }
  report->Check(records.size() == generated, "get drive lost records");
  // Shards were drained round-robin; the bolts see arrival order.
  std::stable_sort(records.begin(), records.end(),
                   [](const kinesis::Record& a, const kinesis::Record& b) {
                     return a.timestamp < b.timestamp;
                   });

  // PutRecord of the same records into a fresh stream, 1 s of simulated
  // time per rate-second's worth so no shard throttles.
  double put_s = 0.0;
  {
    Scoped s(spans, "drive.kinesis.PutRecord");
    sim::Simulation sim;
    kinesis::Stream stream(&sim, nullptr, WideStream());
    size_t per_second = static_cast<size_t>(in.rate_per_sec);
    size_t throttled = 0;
    for (size_t i = 0; i < records.size(); ++i) {
      if (i % per_second == 0) sim.RunUntil(static_cast<double>(i / per_second));
      double t0 = NowSec();
      Status st = stream.PutRecord(records[i]);
      put_s += NowSec() - t0;
      if (!st.ok()) ++throttled;
    }
    report->Check(throttled == 0, "put drive throttled");
  }

  // The flow's bolts through BoltLogic::Execute, in topology order:
  // parse -> window-count -> persist.
  std::vector<storm::Tuple> tuples;
  tuples.reserve(records.size());
  for (const kinesis::Record& r : records) {
    storm::Tuple t;
    t.origin_time = r.timestamp;
    t.entity_id = r.entity_id;
    t.size_bytes = r.size_bytes;
    tuples.push_back(t);
  }
  size_t parsed = 0;
  double parse_s = 0.0;
  {
    Scoped s(spans, "drive.flow.parse");
    storm::StatelessBolt parse(1.0);
    std::function<void(storm::Tuple)> emit = [&](storm::Tuple) { ++parsed; };
    double t0 = NowSec();
    for (const storm::Tuple& t : tuples) (void)parse.Execute(t, t.origin_time, emit);
    parse_s = NowSec() - t0;
  }
  report->Check(parsed == tuples.size(), "parse drive lost tuples");

  std::vector<storm::Tuple> aggregates;
  double window_s = 0.0;
  {
    Scoped s(spans, "drive.flow.window");
    auto counter =
        flow::SlidingWindowCounter::Create(defaults.window_sec, defaults.slide_sec);
    if (!counter.ok()) {
      report->Check(false, "SlidingWindowCounter: " + counter.status().ToString());
      return out;
    }
    flow::WindowCountBolt window(counter.MoveValueOrDie());
    std::function<void(storm::Tuple)> emit = [&](storm::Tuple t) {
      aggregates.push_back(t);
    };
    double t0 = NowSec();
    for (const storm::Tuple& t : tuples) (void)window.Execute(t, t.origin_time, emit);
    window_s = NowSec() - t0;
  }

  // PersistBolt and Table::PutItem on a table provisioned above the
  // aggregate rate; simulated time follows the aggregates' emission.
  double persist_s = 0.0, table_s = 0.0;
  size_t persist_fail = 0;
  {
    Scoped s(spans, "drive.flow.persist");
    sim::Simulation sim;
    dynamodb::TableConfig tc;
    tc.initial_wcu = tc.max_wcu;
    dynamodb::Table table(&sim, nullptr, tc);
    flow::PersistBolt persist(&table);
    std::function<void(storm::Tuple)> emit = [](storm::Tuple) {};
    for (const storm::Tuple& t : aggregates) {
      if (t.origin_time > sim.Now()) sim.RunUntil(t.origin_time);
      double t0 = NowSec();
      Status st = persist.Execute(t, sim.Now(), emit);
      persist_s += NowSec() - t0;
      if (!st.ok()) ++persist_fail;
    }
  }
  {
    Scoped s(spans, "drive.dynamodb.PutItem");
    sim::Simulation sim;
    dynamodb::TableConfig tc;
    tc.initial_wcu = tc.max_wcu;
    dynamodb::Table table(&sim, nullptr, tc);
    for (const storm::Tuple& t : aggregates) {
      if (t.origin_time > sim.Now()) sim.RunUntil(t.origin_time);
      double t0 = NowSec();
      Status st = table.PutItem(t.entity_id,
                                std::to_string(static_cast<int64_t>(t.value)),
                                128);
      table_s += NowSec() - t0;
      if (!st.ok()) ++persist_fail;
    }
  }
  report->Check(persist_fail == 0, "storage drives throttled");

  // The window statistic a sensor reads: one datapoint a minute over
  // two hours, queried over its trailing 120 s window.
  double query_s = 0.0;
  size_t queries = 0;
  {
    Scoped s(spans, "drive.cloudwatch.GetStatistic");
    cloudwatch::MetricStore store;
    cloudwatch::MetricId id{"Flower/Storm", "CpuUtilization", "drive"};
    for (int k = 1; k <= 120; ++k) {
      (void)store.Put(id, 60.0 * k, 50.0 + (k % 7));
    }
    double sink = 0.0;
    double t0 = NowSec();
    for (int rep = 0; rep < 2000; ++rep) {
      for (int k = 2; k <= 120; ++k) {
        auto v = store.GetStatistic(id, 60.0 * k - 120.0, 60.0 * k,
                                    cloudwatch::Statistic::kAverage);
        if (v.ok()) sink += *v;
        ++queries;
      }
    }
    query_s = NowSec() - t0;
    report->Check(sink > 0.0, "query drive read nothing");
  }

  double put_ns = NsPer(put_s, records.size());
  out["kinesis.put_ns"] = put_ns;
  out["workload.gen_ns"] = NsPer(gen_s, generated) - put_ns;
  out["kinesis.get_ns"] = NsPer(get_s, records.size());
  out["flow.parse_ns"] = NsPer(parse_s, tuples.size());
  out["flow.window_ns"] = NsPer(window_s, tuples.size());
  out["flow.persist_ns"] = NsPer(persist_s, aggregates.size());
  out["dynamodb.put_ns"] = NsPer(table_s, aggregates.size());
  out["cloudwatch.query_ns"] = NsPer(query_s, queries);
  return out;
}

}  // namespace perfbench
