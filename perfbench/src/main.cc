// perfbench: the repository benchmark binary. Runs one workload and prints
// its metrics; see ../README.md.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--small] [--spans FILE]
//   perfbench --calibrate
//
// Exit status is 0 only when every operation and correctness check passed.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "measure.h"
#include "workloads.h"

namespace perfbench {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload doc_edit_query|store_edit|"
               "replica_sync --seed N --seconds S --trace 0|1 [--small] "
               "[--spans FILE]\n       perfbench --calibrate\n");
  return 2;
}

/// A fixed memory-bound loop: a dependent walk over a 64 MiB random
/// cycle. Its time per run tells host drift apart from a regression; it is
/// a diagnostic, not a metric.
int Calibrate() {
  constexpr size_t kSlots = size_t{1} << 23;
  std::vector<uint64_t> next(kSlots);
  for (size_t i = 0; i < kSlots; ++i) next[i] = i;
  uint64_t x = 0x9e3779b97f4a7c15ull;
  for (size_t i = kSlots - 1; i > 0; --i) {  // Sattolo: one single cycle
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::swap(next[i], next[x % i]);
  }
  uint64_t at = 0;
  const int64_t t0 = NowNs();
  for (size_t i = 0; i < size_t{1} << 22; ++i) at = next[at];
  const int64_t t1 = NowNs();
  Keep(at);
  std::printf("calibration_ms %.3f\n", static_cast<double>(t1 - t0) / 1e6);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using perfbench::Options;
  Options options;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--calibrate") return perfbench::Calibrate();
    if (arg == "--small") {
      options.small = true;
    } else if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      const std::string v = argv[++i];
      if (v != "0" && v != "1") return perfbench::Usage();
      options.trace = v == "1";
      have_trace = true;
    } else if (arg == "--spans" && has_value) {
      options.spans_path = argv[++i];
    } else {
      return perfbench::Usage();
    }
  }
  if (!have_trace || !(options.seconds > 0)) return perfbench::Usage();

  perfbench::Report report;
  if (options.workload == "doc_edit_query") {
    perfbench::RunDocEditQuery(options, &report);
  } else if (options.workload == "store_edit") {
    perfbench::RunStoreEdit(options, &report);
  } else if (options.workload == "replica_sync") {
    perfbench::RunReplicaSync(options, &report);
  } else {
    return perfbench::Usage();
  }
  report.Print();
  return report.correct() ? 0 : 1;
}
