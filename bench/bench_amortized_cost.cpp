// E3 / Section 3.1: amortized insertion cost is O(log n).
//
// Sweeps document size n for several (f, s) and compares the measured
// amortized node accesses per uniform random insertion against the paper's
// bound  cost(f,s,n) = (1 + 2f/(s-1)) * log n / log(f/s) + f.
// Expected shape: measured <= bound, both growing logarithmically in n
// (constant increments as n multiplies by 10). Checks: measured/bound < 1
// on every row.

#include <cstdio>

#include "bench/bench_util.h"
#include "model/cost_model.h"

using namespace ltree;

int main() {
  bench::PrintHeader(
      "E3 / Section 3.1: amortized insert cost vs n",
      "Claim: O(log n) node accesses per insertion, bounded by the Section "
      "3.1 formula.");

  const Params param_grid[] = {
      {.f = 4, .s = 2}, {.f = 16, .s = 4}, {.f = 32, .s = 2},
      {.f = 64, .s = 8}};
  const uint64_t sizes[] = {1000, 10000, 100000, 1000000};

  std::printf("%-14s %10s %12s %12s %10s %12s\n", "params", "n",
              "bound", "measured", "ratio", "us/insert");
  for (const Params& p : param_grid) {
    for (uint64_t n : sizes) {
      const uint64_t inserts = std::min<uint64_t>(n, 50000);
      workload::StreamOptions stream;
      stream.kind = workload::StreamKind::kUniform;
      stream.seed = 17;
      auto run = bench::RunInsertWorkload(p, n, inserts, stream);
      const double bound = model::CostModel::AmortizedInsertCost(
          p.f, p.s, static_cast<double>(n));
      const double ratio = run.amortized_node_accesses / bound;
      std::printf("f=%-3u s=%-3u %12llu %12.1f %12.2f %10.2f %12.2f\n", p.f,
                  p.s, (unsigned long long)n, bound,
                  run.amortized_node_accesses, ratio,
                  1e6 * run.wall_seconds / static_cast<double>(inserts));
      LTREE_CHECK(ratio < 1.0);
    }
    std::printf("\n");
  }
  std::printf(
      "Expected: ratio < 1 everywhere (the analysis is an upper bound), and "
      "the\nmeasured column grows by a roughly constant increment per 10x "
      "in n (log shape).\n");
  return 0;
}
