// Measurement primitives shared by the workloads: a monotonic clock, sample
// sets with the benchmark's percentile rule, the metric report, and the
// span recorder of the traced run.

#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Keeps `value` observable so the call that produced it is not optimized
/// away.
template <typename T>
inline void Keep(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

/// Observations of one quantity, in the order they were made.
class Samples {
 public:
  /// Consecutive samples per percentile window.
  static constexpr uint64_t kWindow = 2048;

  void Add(double v) { values_.push_back(v); }
  uint64_t count() const { return values_.size(); }
  /// Percentile `p` in (0, 1). The samples are cut into windows of at
  /// least kWindow consecutive ones (a single window when there are
  /// fewer), the nearest-rank percentile is taken in each, and the median
  /// of those is returned: a burst of host interference then moves only
  /// the windows it falls in, while a tail the program causes throughout
  /// shows in every window. nullopt unless at least ten samples of a
  /// window lie above its percentile, so a p99 needs 1000 samples and a
  /// p50 needs 20.
  std::optional<double> Percentile(double p) const;
  /// Middle value of a handful of repetitions (set-up runs), which the
  /// percentile rule above would refuse; 0 when empty.
  double Median() const;

 private:
  std::vector<double> values_;
};

/// Every metric a run computes, plus the operation ledger behind
/// `failed_op_share`. Print() writes one human-readable line per metric
/// (name, value, unit, sample count) and ends with one JSON line holding
/// all of them; run.py selects the ones BENCHMARK.json names.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit,
           uint64_t samples);
  /// Records the p-th percentile of `samples` times `scale`, or notes that
  /// the sample count does not support it.
  void SetPercentile(const std::string& name, const Samples& samples,
                     double p, double scale, const std::string& unit);
  /// Counts one client call or correctness check; a false `ok` also
  /// prints `what` to stderr.
  void Op(bool ok, const std::string& what = "");
  void Op(const ltree::Status& status, const char* what) {
    if (status.ok()) {
      Op(true);
    } else {
      Op(false, std::string(what) + ": " + status.ToString());
    }
  }
  /// Records the median of a handful of repetitions with its count.
  void SetMedian(const std::string& name, const Samples& samples,
                 double scale, const std::string& unit) {
    Set(name, samples.Median() * scale, unit, samples.count());
  }
  /// Free-form human-readable line (workload parameters, diagnostics).
  void Note(const std::string& line);

  bool correct() const { return failed_ == 0 && attempted_ > 0; }
  void Print() const;

 private:
  struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
    uint64_t samples = 0;
    bool supported = true;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// In-memory span log of the traced run. A span is opened before a call
/// into a module's public API and closed after it returns; children carry
/// their parent's index and all spans of one client operation share its op
/// id. The log keeps the first kCapacity spans and counts the rest.
class Trace {
 public:
  /// 262,144 spans, 10 MiB.
  static constexpr size_t kCapacity = size_t{1} << 18;

  /// Recording happens only while on: in the traced epochs of a traced
  /// run.
  void set_on(bool on) { on_ = on; }

  /// Opens a span at `start_ns`; returns its index, or -1 when off or full.
  int32_t Open(const char* name, uint64_t op, int64_t start_ns,
               int32_t parent = -1);
  void Close(int32_t index, int64_t end_ns);
  /// Open + Close for a span whose bounds are already known.
  int32_t Record(const char* name, uint64_t op, int64_t start_ns,
                 int64_t end_ns, int32_t parent = -1);

  /// Per span name: count and median self time (duration minus the time
  /// its direct children cover), as report notes.
  void Summarize(Report* report) const;
  /// Writes id,parent,op,name,start_ns,end_ns,self_ns rows; false on I/O
  /// error.
  bool WriteCsv(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    uint64_t op;
    int64_t start_ns;
    int64_t end_ns;
    int32_t parent;
  };
  std::vector<int64_t> SelfTimes() const;

  bool on_ = false;
  std::vector<Span> spans_;
  uint64_t dropped_ = 0;
};

/// Times `fn` and returns the elapsed nanoseconds.
template <typename Fn>
int64_t TimeNs(Fn&& fn) {
  const int64_t t0 = NowNs();
  fn();
  return NowNs() - t0;
}

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
