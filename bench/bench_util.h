// Shared helpers for the paper-reproduction bench harness.
//
// Each bench binary regenerates one of the paper's experiments (E1-E13),
// prints a table with paper-predicted columns next to measured columns and
// LTREE_CHECKs the claims it reproduces; bench/CMakeLists.txt registers
// each one as a CTest test labelled `paper`.

#ifndef LTREE_BENCH_BENCH_UTIL_H_
#define LTREE_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/random.h"
#include "core/ltree.h"
#include "workload/update_stream.h"

namespace ltree {
namespace bench {

inline void PrintHeader(const std::string& experiment,
                        const std::string& claim) {
  std::printf("\n=== %s ===\n%s\n\n", experiment.c_str(), claim.c_str());
}

/// Result of driving an LTree through a stream of single-leaf inserts.
struct InsertRunResult {
  double amortized_node_accesses = 0.0;  // paper's cost metric
  uint64_t splits = 0;
  uint64_t root_splits = 0;
  uint32_t label_bits = 0;
  uint64_t max_label = 0;
  double wall_seconds = 0.0;
};

/// Bulk loads `initial` leaves, applies `inserts` single-leaf insertions
/// drawn from `stream_options`, and reports the incremental-maintenance
/// statistics (bulk load excluded, as in the paper's amortization).
InsertRunResult RunInsertWorkload(const Params& params, uint64_t initial,
                                  uint64_t inserts,
                                  const workload::StreamOptions& stream_options);

/// Pins the calling thread to the core named by the BENCH_PIN_CPU env var
/// (an integer core id) so tail percentiles stop absorbing migrations; a
/// no-op returning -1 when the variable is unset. Warns on stderr when the
/// pinned core's cpufreq governor is not "performance" (tails then include
/// DVFS ramp-up). Returns the pinned core id on success.
int MaybePinCpu();

/// Keeps the compiler from eliding a benchmarked computation whose result
/// is otherwise dead (the classic empty-asm sink).
template <typename T>
inline void DoNotOptimize(T const& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

/// Tail-latency summary of one collector's samples, in nanoseconds.
struct LatencySummary {
  double p50_ns = 0.0;
  double p99_ns = 0.0;
  double p999_ns = 0.0;
  double max_ns = 0.0;
};

/// Per-operation latency recorder for the tail-latency columns: call
/// Record(ns) per op, then Summarize() for p50/p99/p999. Percentiles use
/// the nearest-rank method over the sorted sample buffer, so with fewer
/// than 1000 samples p999 degrades to the max — callers wanting a
/// meaningful tail record at least ~10k ops. Thread-compatible: one
/// collector per thread, Merge() the buffers afterwards.
class LatencyCollector {
 public:
  explicit LatencyCollector(size_t expected_samples = 0) {
    if (expected_samples > 0) samples_ns_.reserve(expected_samples);
  }

  void Record(int64_t ns) {
    samples_ns_.push_back(ns < 0 ? uint64_t{0}
                                 : static_cast<uint64_t>(ns));
  }

  /// Absorbs another thread's samples (after it has quiesced).
  void Merge(const LatencyCollector& other) {
    samples_ns_.insert(samples_ns_.end(), other.samples_ns_.begin(),
                       other.samples_ns_.end());
  }

  /// Sorts the buffer and computes the summary (empty buffer -> zeros).
  LatencySummary Summarize() const;

 private:
  mutable std::vector<uint64_t> samples_ns_;
};

}  // namespace bench
}  // namespace ltree

#endif  // LTREE_BENCH_BENCH_UTIL_H_
