#include "measure.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <map>

namespace perfbench {

namespace {

/// The value of rank `index` (from 0) in `v`; reorders `v`.
double AtRank(std::vector<double>& v, size_t index) {
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(index),
                   v.end());
  return v[index];
}

}  // namespace

std::optional<double> Samples::Percentile(double p) const {
  const uint64_t n = values_.size();
  if (n == 0) return std::nullopt;
  const uint64_t windows = std::max<uint64_t>(1, n / kWindow);
  std::vector<double> at(windows);
  std::vector<double> window;
  for (uint64_t w = 0; w < windows; ++w) {
    const uint64_t begin = w * n / windows;
    const uint64_t size = (w + 1) * n / windows - begin;
    const uint64_t rank = static_cast<uint64_t>(std::ceil(p * size));
    const uint64_t index = rank == 0 ? 0 : rank - 1;
    if (size - 1 - index < 10) return std::nullopt;
    const auto first = values_.begin() + static_cast<ptrdiff_t>(begin);
    window.assign(first, first + static_cast<ptrdiff_t>(size));
    at[w] = AtRank(window, index);
  }
  return AtRank(at, (windows - 1) / 2);
}

double Samples::Median() const {
  if (values_.empty()) return 0;
  std::vector<double> v = values_;
  return AtRank(v, (v.size() - 1) / 2);
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit, uint64_t samples) {
  metrics_.push_back({name, value, unit, samples, true});
}

void Report::SetPercentile(const std::string& name, const Samples& samples,
                           double p, double scale, const std::string& unit) {
  const std::optional<double> v = samples.Percentile(p);
  metrics_.push_back(
      {name, v ? *v * scale : 0, unit, samples.count(), v.has_value()});
}

void Report::Op(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::fprintf(stderr, "FAILED: %s\n", what.c_str());
  }
}

void Report::Note(const std::string& line) { notes_.push_back(line); }

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

void Report::Print() const {
  for (const std::string& note : notes_) std::printf("# %s\n", note.c_str());
  const double failed_share =
      attempted_ == 0 ? 0.0
                      : static_cast<double>(failed_) /
                            static_cast<double>(attempted_);
  std::printf("%-40s %16.6g %-6s n=%" PRIu64 "\n", "failed_op_share",
              failed_share, "ratio", attempted_);
  for (const Metric& m : metrics_) {
    if (m.supported) {
      std::printf("%-40s %16.6g %-6s n=%" PRIu64 "\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.samples);
    } else {
      std::printf("%-40s %16s %-6s n=%" PRIu64 " (too few samples)\n",
                  m.name.c_str(), "-", m.unit.c_str(), m.samples);
    }
  }
  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics_) {
    if (!m.supported) continue;
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    if (!first) json += ", ";
    first = false;
    json += JsonString(m.name) + ": {\"value\": " + value +
            ", \"unit\": " + JsonString(m.unit) +
            ", \"samples\": " + std::to_string(m.samples) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int32_t Trace::Open(const char* name, uint64_t op, int64_t start_ns,
                    int32_t parent) {
  if (!on_) return -1;
  if (spans_.size() >= kCapacity) {
    ++dropped_;
    return -1;
  }
  spans_.push_back({name, op, start_ns, start_ns, parent});
  return static_cast<int32_t>(spans_.size() - 1);
}

void Trace::Close(int32_t index, int64_t end_ns) {
  if (index >= 0) spans_[static_cast<size_t>(index)].end_ns = end_ns;
}

int32_t Trace::Record(const char* name, uint64_t op, int64_t start_ns,
                      int64_t end_ns, int32_t parent) {
  const int32_t index = Open(name, op, start_ns, parent);
  Close(index, end_ns);
  return index;
}

std::vector<int64_t> Trace::SelfTimes() const {
  // One thread records every span, so a span's children never overlap
  // each other and their durations sum to the time they cover.
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] += spans_[i].end_ns - spans_[i].start_ns;
    const int32_t parent = spans_[i].parent;
    if (parent >= 0) {
      self[static_cast<size_t>(parent)] -= spans_[i].end_ns - spans_[i].start_ns;
    }
  }
  return self;
}

void Trace::Summarize(Report* report) const {
  const std::vector<int64_t> self = SelfTimes();
  std::map<std::string, Samples> by_name;
  for (size_t i = 0; i < spans_.size(); ++i) {
    by_name[spans_[i].name].Add(static_cast<double>(self[i]));
  }
  char line[160];
  std::snprintf(line, sizeof(line), "trace: %zu spans kept, %" PRIu64
                " dropped past the cap", spans_.size(), dropped_);
  report->Note(line);
  for (auto& [name, samples] : by_name) {
    const std::optional<double> p50 = samples.Percentile(0.5);
    std::snprintf(line, sizeof(line), "span %-34s n=%-8" PRIu64 " self p50 %s",
                  name.c_str(), samples.count(),
                  p50 ? (std::to_string(static_cast<int64_t>(*p50)) + " ns").c_str()
                      : "- (too few samples)");
    report->Note(line);
  }
}

bool Trace::WriteCsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<int64_t> self = SelfTimes();
  std::fprintf(f, "id,parent,op,name,start_ns,end_ns,self_ns\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu,%d,%" PRIu64 ",%s,%" PRId64 ",%" PRId64 ",%" PRId64 "\n",
                 i, s.parent, s.op, s.name, s.start_ns, s.end_ns, self[i]);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
