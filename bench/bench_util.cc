// sched_setaffinity / CPU_SET are glibc extensions; the build is strict
// -std=c++20 (no gnu++), so opt in before the first glibc header.
#if defined(__linux__) && !defined(_GNU_SOURCE)
#define _GNU_SOURCE
#endif

#include "bench/bench_util.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#if defined(__linux__)
#include <sched.h>
#endif

#include "common/timer.h"

namespace ltree {
namespace bench {

// Position sampling note: ranks are not maintained explicitly (that would
// cost O(n) per op and pollute the measurement). Instead:
//  * uniform: a uniformly sampled existing leaf is exactly an insertion at
//    a uniform random rank;
//  * hotspot: inserts cluster after a rolling window of handles around the
//    middle of the initial document, with Zipf-weighted recency.
InsertRunResult RunInsertWorkload(
    const Params& params, uint64_t initial, uint64_t inserts,
    const workload::StreamOptions& stream_options) {
  InsertRunResult out;
  auto tree_or = LTree::Create(params);
  LTREE_CHECK(tree_or.ok());
  auto tree = std::move(tree_or).ValueOrDie();

  std::vector<LeafCookie> cookies(initial);
  for (uint64_t i = 0; i < initial; ++i) cookies[i] = i;
  std::vector<LTree::LeafHandle> handles;
  handles.reserve(initial + inserts);
  LTREE_CHECK_OK(tree->BulkLoad(cookies, &handles));
  tree->ResetStats();

  Rng rng(stream_options.seed);
  ZipfSampler zipf(1024, stream_options.zipf_theta);
  std::vector<LTree::LeafHandle> hot;
  if (stream_options.kind == workload::StreamKind::kHotspot) {
    hot.push_back(handles[handles.size() / 2]);
  }

  Timer timer;
  for (uint64_t i = 0; i < inserts; ++i) {
    Result<LTree::LeafHandle> fresh = Status::Internal("unset");
    switch (stream_options.kind) {
      case workload::StreamKind::kUniform: {
        const size_t r = static_cast<size_t>(rng.Uniform(handles.size()));
        fresh = tree->InsertAfter(handles[r], initial + i);
        break;
      }
      case workload::StreamKind::kAppend:
        fresh = tree->InsertAfter(handles.back(), initial + i);
        break;
      case workload::StreamKind::kPrepend:
        fresh = tree->InsertBefore(handles[0], initial + i);
        break;
      case workload::StreamKind::kHotspot: {
        const size_t pick = static_cast<size_t>(
            std::min<uint64_t>(zipf.Sample(&rng), hot.size() - 1));
        // Zipf rank 0 = most recent hotspot insert.
        fresh = tree->InsertAfter(hot[hot.size() - 1 - pick], initial + i);
        break;
      }
      case workload::StreamKind::kMixed: {
        const size_t r = static_cast<size_t>(rng.Uniform(handles.size()));
        if (rng.Bernoulli(stream_options.erase_fraction) &&
            !tree->deleted(handles[r])) {
          LTREE_CHECK_OK(tree->MarkDeleted(handles[r]));
        }
        const size_t r2 = static_cast<size_t>(rng.Uniform(handles.size()));
        fresh = tree->InsertAfter(handles[r2], initial + i);
        break;
      }
    }
    LTREE_CHECK(fresh.ok());
    handles.push_back(*fresh);
    if (stream_options.kind == workload::StreamKind::kHotspot) {
      hot.push_back(*fresh);
      if (hot.size() > 1024) hot.erase(hot.begin());
    }
  }
  out.wall_seconds = timer.ElapsedSeconds();

  const LTreeStats& st = tree->stats();
  out.amortized_node_accesses = st.AmortizedCostPerInsert();
  out.splits = st.splits;
  out.root_splits = st.root_splits;
  out.label_bits = tree->label_bits();
  out.max_label = tree->max_label();
  audit::AbortIfCorrupt(tree->Validate(), "L-Tree", "the insert run");
  return out;
}

namespace {

// Nearest-rank percentile over a sorted buffer: the smallest sample with
// at least q of the distribution at or below it.
double Percentile(const std::vector<uint64_t>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  size_t rank = static_cast<size_t>(q * static_cast<double>(sorted.size()));
  if (rank >= sorted.size()) rank = sorted.size() - 1;
  return static_cast<double>(sorted[rank]);
}

}  // namespace

LatencySummary LatencyCollector::Summarize() const {
  LatencySummary out;
  if (samples_ns_.empty()) return out;
  std::sort(samples_ns_.begin(), samples_ns_.end());
  out.p50_ns = Percentile(samples_ns_, 0.50);
  out.p99_ns = Percentile(samples_ns_, 0.99);
  out.p999_ns = Percentile(samples_ns_, 0.999);
  out.max_ns = static_cast<double>(samples_ns_.back());
  return out;
}

int MaybePinCpu() {
  const char* env = std::getenv("BENCH_PIN_CPU");
  if (env == nullptr || *env == '\0') return -1;
#if defined(__linux__)
  const int cpu = std::atoi(env);
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  if (sched_setaffinity(0, sizeof(set), &set) != 0) {
    std::fprintf(stderr, "BENCH_PIN_CPU=%d: sched_setaffinity failed: %s\n",
                 cpu, std::strerror(errno));
    return -1;
  }
  char path[128];
  std::snprintf(path, sizeof(path),
                "/sys/devices/system/cpu/cpu%d/cpufreq/scaling_governor",
                cpu);
  if (FILE* f = std::fopen(path, "r")) {
    char governor[64] = {0};
    if (std::fgets(governor, sizeof(governor), f) != nullptr) {
      governor[std::strcspn(governor, "\n")] = '\0';
      if (std::strcmp(governor, "performance") != 0) {
        std::fprintf(stderr,
                     "warning: cpu%d governor is '%s', not 'performance' — "
                     "tail latencies will include DVFS ramp-up\n",
                     cpu, governor);
      }
    }
    std::fclose(f);
  }
  std::fprintf(stderr, "BENCH_PIN_CPU: pinned to cpu%d\n", cpu);
  return cpu;
#else
  std::fprintf(stderr,
               "BENCH_PIN_CPU set, but thread pinning is only wired up on "
               "Linux — running unpinned\n");
  return -1;
#endif
}

}  // namespace bench
}  // namespace ltree
