// rdtsc-cycle A/B of the in-node search kernels: std::lower_bound (scalar)
// vs branchless vs AVX2, across the node widths both trees actually use.
// Every descent level of every query and relabel runs exactly one of
// these, so cycles saved here multiply by (tree height × op count).
//
// Serialized timing per SNIPPETS §3: lfence+rdtsc before, rdtscp+lfence
// after, a warmup pass, then SAMPLES outer runs of ITERATIONS lookups each;
// the sorted per-lookup cycle costs give median/avg/min. Probes are
// pre-generated and shuffled so the branchy baseline cannot ride a learned
// branch pattern, and every kernel consumes the identical probe stream.
// Checks that all kernels return bit-identical indices and that every
// timing is nonzero.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <random>
#include <vector>

#include "bench/bench_util.h"
#include "core/simd_search.h"

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#define BENCH_HAVE_RDTSC 1
#else
#define BENCH_HAVE_RDTSC 0
#endif

using namespace ltree;

namespace {

#if BENCH_HAVE_RDTSC
inline uint64_t TickBegin() {
  _mm_lfence();
  return __rdtsc();
}
inline uint64_t TickEnd() {
  unsigned int aux;
  const uint64_t t = __rdtscp(&aux);
  _mm_lfence();
  return t;
}
#else
// Non-x86 fallback: nanoseconds stand in for cycles (still comparable
// across kernels within one run).
inline uint64_t TickBegin() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
inline uint64_t TickEnd() { return TickBegin(); }
#endif

constexpr int kSamples = 60;
constexpr int kWarmupRounds = 4;
constexpr uint32_t kProbes = 4096;

struct KernelStats {
  double med_cycles = 0.0;
  double avg_cycles = 0.0;
  double min_cycles = 0.0;
  uint64_t checksum = 0;
};

using SearchFn = uint32_t (*)(const Label*, uint32_t, Label);

KernelStats RunKernel(SearchFn fn, const std::vector<Label>& keys,
                      const std::vector<Label>& probes) {
  const uint32_t n = static_cast<uint32_t>(keys.size());
  KernelStats out;
  std::vector<double> samples(kSamples);
  for (int w = 0; w < kWarmupRounds; ++w) {
    uint64_t sink = 0;
    for (Label p : probes) sink += fn(keys.data(), n, p);
    bench::DoNotOptimize(sink);
    out.checksum = sink;
  }
  for (int s = 0; s < kSamples; ++s) {
    uint64_t sink = 0;
    const uint64_t begin = TickBegin();
    for (Label p : probes) sink += fn(keys.data(), n, p);
    const uint64_t end = TickEnd();
    bench::DoNotOptimize(sink);
    samples[s] = static_cast<double>(end - begin) / kProbes;
  }
  std::sort(samples.begin(), samples.end());
  double sum = 0.0;
  for (double v : samples) sum += v;
  out.med_cycles = samples[kSamples / 2];
  out.avg_cycles = sum / kSamples;
  out.min_cycles = samples[0];
  return out;
}

}  // namespace

int main() {
  bench::PrintHeader(
      "search_micro: in-node lower_bound kernels (cycles/lookup)",
      "Claim: branchless/SIMD in-node search beats std::lower_bound at "
      "every node width the trees use (8..64).");
  bench::MaybePinCpu();

  struct NamedKernel {
    search::Kernel kernel;
    SearchFn fn;
  };
  std::vector<NamedKernel> kernels = {
      {search::Kernel::kScalar, search::LowerBoundScalar},
      {search::Kernel::kBranchless, search::LowerBoundBranchless},
  };
  if (search::KernelAvailable(search::Kernel::kAvx2)) {
    kernels.push_back({search::Kernel::kAvx2, search::LowerBoundAvx2});
  }

  std::printf("%-6s %-12s %12s %12s %12s\n", "width", "kernel",
              "med(cyc)", "avg(cyc)", "min(cyc)");
  std::mt19937_64 rng(0xb10c5);
  for (uint32_t width : {8u, 16u, 32u, 64u}) {
    // One node's key array, plus a shuffled probe stream covering hits,
    // misses, and out-of-range labels — identical for every kernel.
    std::vector<Label> keys(width);
    for (auto& k : keys) k = rng();
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    while (keys.size() < width) {
      keys.push_back(rng());
      std::sort(keys.begin(), keys.end());
      keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    }
    std::vector<Label> probes(kProbes);
    for (uint32_t i = 0; i < kProbes; ++i) {
      probes[i] = (i % 3 == 0) ? keys[rng() % width] : rng();
    }
    std::shuffle(probes.begin(), probes.end(), rng);

    uint64_t want_checksum = 0;
    bool first = true;
    for (const auto& nk : kernels) {
      const KernelStats stats = RunKernel(nk.fn, keys, probes);
      if (first) {
        want_checksum = stats.checksum;
        first = false;
      } else {
        LTREE_CHECK(stats.checksum == want_checksum);  // bit-identical
      }
      std::printf("%-6u %-12s %12.2f %12.2f %12.2f\n", width,
                  search::KernelName(nk.kernel), stats.med_cycles,
                  stats.avg_cycles, stats.min_cycles);
      LTREE_CHECK(stats.min_cycles > 0.0);
    }
  }
  return 0;
}
