// The benchmark's workloads. Each runs one closed-loop client on the
// calling thread: the next operation starts when the previous one returns.
// Inputs are generated outside the timed calls, outputs are checked against
// a reference, and everything is recorded into a Report.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "common/random.h"
#include "listlab/order_maintainer.h"
#include "measure.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  /// Traced run: spans plus replays into inner layers, per-layer metrics.
  bool trace = false;
  /// Reduced sizes, for the determinism check.
  bool small = false;
  /// Where the traced run writes its spans (CSV); empty keeps them in
  /// memory only.
  std::string spans_path;
};

/// The timed phase runs in epochs. Each epoch starts from a fresh set-up
/// (one setup_s sample) and runs a fixed number of operations on inputs
/// drawn from its own seed; epochs repeat until `seconds` of operation
/// time have been measured. The store's state drifts as edits accumulate
/// (tombstones, node-table garbage), so every epoch replays the same
/// evolution and the metrics do not depend on how many operations a host
/// fits into a run. The first `counted_epochs` always run, and the count
/// metrics are summed over exactly those, so they repeat for a seed.
///
/// In a traced run epochs come in pairs on the same inputs: the first runs
/// as the untraced pass does (no spans, no replays), the second records
/// spans and feeds the replays, so the pair's edits_per_s ratio is the
/// whole tracing overhead.
class Epochs {
 public:
  Epochs(const Options& options, uint64_t counted_epochs)
      : seed_(ltree::SplitMix64(options.seed).Next()),
        paired_(options.trace),
        target_ns_(static_cast<int64_t>(options.seconds * 1e9)),
        counted_epochs_(counted_epochs) {}
  /// True while another epoch should run.
  bool Next() {
    if (last()) return false;
    ++count_;
    return true;
  }
  /// Whether the current epoch feeds the count metrics.
  bool counted() const { return count_ <= counted_epochs_; }
  /// True once the current epoch is known to be the run's last.
  bool last() const {
    return count_ >= counted_epochs_ && measured_ns_ >= target_ns_ &&
           (!paired_ || traced());
  }
  /// Whether the current epoch records spans and runs the replays.
  bool traced() const { return paired_ && count_ % 2 == 0; }
  uint64_t count() const { return count_; }
  /// Seed of the current epoch's inputs. The run's seed and the epoch's
  /// number are mixed apart, so no two runs share an epoch's inputs.
  uint64_t seed() const {
    const uint64_t input = paired_ ? (count_ + 1) / 2 : count_;
    return ltree::SplitMix64(seed_ ^ (input * 0x9e3779b97f4a7c15ull)).Next();
  }
  /// Adds the wall time of one epoch's operations.
  void Measured(int64_t ns) { measured_ns_ += ns; }

 private:
  uint64_t seed_;
  bool paired_;
  int64_t target_ns_;
  uint64_t counted_epochs_;
  uint64_t count_ = 0;
  int64_t measured_ns_ = 0;
};

/// Count metrics summed over the counted epochs.
struct Counts {
  uint64_t inserts = 0;
  uint64_t relabeled = 0;
  uint64_t epochs = 0;
  double heap_bytes_per_item = 0;  ///< summed over epochs
  uint64_t label_bits = 0;         ///< largest seen
  uint64_t edits = 0;
  uint64_t wire_bytes = 0;

  /// One counted epoch: its label-store counter deltas and its end state.
  void AddEpoch(uint64_t epoch_inserts, uint64_t epoch_relabeled,
                uint64_t heap_bytes, uint64_t live_items, uint64_t bits) {
    inserts += epoch_inserts;
    relabeled += epoch_relabeled;
    ++epochs;
    heap_bytes_per_item +=
        static_cast<double>(heap_bytes) / static_cast<double>(live_items);
    if (bits > label_bits) label_bits = bits;
  }
  void Report(perfbench::Report* report, bool wire) const;
};

/// Client-call timings of a run, in nanoseconds.
struct CallTimes {
  Samples edit;  ///< the edit call of edit_p50/p99: InsertFragment or Apply
  Samples read;  ///< the workload's read call (see the report notes)
  Samples sync;  ///< tight-follower SyncRound
  Samples lag;   ///< lagging-follower SyncRound
  double edit_ns = 0;  ///< every edit call, DeleteSubtree included
  uint64_t edits = 0;
  double call_ns = 0;  ///< every client call
  uint64_t calls = 0;

  void Edit(int64_t ns) {
    edit_ns += static_cast<double>(ns);
    ++edits;
    Call(ns);
  }
  void Call(int64_t ns) {
    call_ns += static_cast<double>(ns);
    ++calls;
  }
};

/// Reports edit_p50_us, edit_p99_us, edits_per_s, read_p50_us,
/// read_p99_us and ops_per_s.
void ReportCallTimes(const CallTimes& times, Report* report);

/// Edit time split by untraced and traced epochs, for the traced run's
/// overhead ratio.
struct EditClock {
  double ns[2] = {0, 0};
  uint64_t edits[2] = {0, 0};
  void Add(bool traced, int64_t elapsed_ns) {
    ns[traced] += static_cast<double>(elapsed_ns);
    ++edits[traced];
  }
  /// traced edits_per_s / untraced edits_per_s.
  double TracedOverUntraced() const {
    if (edits[0] == 0 || edits[1] == 0 || ns[1] == 0) return 0;
    return (edits[1] / ns[1]) / (edits[0] / ns[0]);
  }
};

/// Adds the label-store counter deltas `now - base` to `moved`.
void AddMoved(const ltree::listlab::MaintStats& now,
              const ltree::listlab::MaintStats& base,
              ltree::listlab::MaintStats* moved);
/// Reports the listlab.* counter metrics from summed deltas.
void ReportLabelCounters(const ltree::listlab::MaintStats& moved,
                         uint64_t edits, Report* report);
/// Reports the tracing overhead and the span summary, and writes the
/// spans out when asked to.
void FinishTrace(const Trace& trace, const EditClock& edit_clock,
                 const Options& options, Report* report);

void RunDocEditQuery(const Options& options, Report* report);
void RunStoreEdit(const Options& options, Report* report);
void RunReplicaSync(const Options& options, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
