#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>

namespace perfbench {

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace {
size_t RankIndex(size_t n, double p) {
  double rank = std::ceil(p / 100.0 * static_cast<double>(n));
  size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return std::min(idx, n - 1);
}
}  // namespace

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[RankIndex(v.size(), p)];
}

size_t SamplesBeyond(size_t n, double p) {
  if (n == 0) return 0;
  return n - 1 - RankIndex(n, p);
}

double HighestSupportedPercentile(size_t n) {
  double best = 0.0;
  for (double p : {50.0, 75.0, 90.0, 95.0, 99.0, 99.9}) {
    if (SamplesBeyond(n, p) >= 10) best = p;
  }
  return best;
}

void Report::Add(std::string name, double value, std::string unit,
                 std::string better, std::string note) {
  if (!std::isfinite(value)) Check(false, name + " is not finite");
  metrics_.push_back({std::move(name), value, std::move(unit),
                      std::move(better), std::move(note)});
}

void Report::Op(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    errors_.push_back(what);
  }
}

void Report::Check(bool ok, const std::string& what) {
  if (!ok) errors_.push_back(what);
}

void Report::Print(const std::string& workload, bool traced) const {
  std::printf("workload %s (%s run): %llu operations attempted, %llu failed\n",
              workload.c_str(), traced ? "traced" : "untraced",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  for (const Metric& m : metrics_) {
    std::printf("  %-28s %18.6f %-9s (%s is better)%s%s\n", m.name.c_str(),
                m.value, m.unit.c_str(), m.better.c_str(),
                m.note.empty() ? "" : "  ", m.note.c_str());
  }
  size_t shown = 0;
  for (const std::string& e : errors_) {
    if (shown++ == 20) {
      std::printf("  ... %zu more failures\n", errors_.size() - 20);
      break;
    }
    std::printf("  FAILED: %s\n", e.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  char buf[64];
  bool first = true;
  for (const Metric& m : metrics_) {
    double v = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    json += first ? "" : ", ";
    json += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
            m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

size_t SpanLog::Begin(const char* name) {
  if (!enabled_) return 0;
  Span s;
  s.name = name;
  s.start = NowSec();
  s.parent = open_.empty() ? 0 : open_.back();
  spans_.push_back(s);
  open_.push_back(spans_.size());
  return spans_.size();
}

void SpanLog::End(size_t id) {
  if (id == 0) return;
  spans_[id - 1].end = NowSec();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::vector<std::pair<std::string, double>> SpanLog::SelfMsByName() const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent != 0) child[s.parent - 1] += s.end - s.start;
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[spans_[i].name] +=
        1e3 * (spans_[i].end - spans_[i].start - child[i]);
  }
  return {self.begin(), self.end()};
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\": [";
  char buf[256];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                  "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                  "\"args\": {\"id\": %zu, \"parent\": %zu}}",
                  i == 0 ? "" : ",", s.name, 1e6 * (s.start - t0_),
                  1e6 * (s.end - s.start), i + 1, s.parent);
    out << buf;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
