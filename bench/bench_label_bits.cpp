// E4 / Section 3.1: labels need O(log n) bits.
//
// For each (f, s) and n: bulk load + random insert churn, then compare the
// actual label-space bits against the paper's bits(f,s,n) =
// log2(f+1) * log n / log(f/s). Checks: actual <= bits(f,s,n) + log2(f+1)
// on every row. The formula uses the continuous height log n / log(f/s)
// while the tree's height is a whole number of levels, each worth
// log2(f+1) bits, so the actual width may exceed it by up to one level.

#include <cmath>
#include <cstdio>

#include "bench/bench_util.h"
#include "common/math_util.h"
#include "model/cost_model.h"

using namespace ltree;

int main() {
  bench::PrintHeader(
      "E4 / Section 3.1: label size vs n",
      "Claim: O(log n) bits per label; the Section 3.1 formula tracks the "
      "measured label space.");

  const Params param_grid[] = {
      {.f = 4, .s = 2}, {.f = 16, .s = 4}, {.f = 64, .s = 8}};
  const uint64_t sizes[] = {1000, 10000, 100000, 1000000};

  std::printf("%-14s %10s %14s %14s %12s %12s\n", "params", "n",
              "bits(formula)", "bits(actual)", "max label", "plain log2(n)");
  for (const Params& p : param_grid) {
    for (uint64_t n : sizes) {
      const uint64_t inserts = std::min<uint64_t>(n / 2, 20000);
      workload::StreamOptions stream;
      stream.kind = workload::StreamKind::kUniform;
      stream.seed = 23;
      auto run = bench::RunInsertWorkload(p, n, inserts, stream);
      const double predicted = model::CostModel::LabelBits(
          p.f, p.s, static_cast<double>(n + inserts));
      std::printf("f=%-3u s=%-3u %12llu %14.1f %14u %12llu %12.1f\n", p.f,
                  p.s, (unsigned long long)n, predicted, run.label_bits,
                  (unsigned long long)run.max_label,
                  std::log2(static_cast<double>(n + inserts)));
      LTREE_CHECK(run.label_bits <= predicted + std::log2(p.f + 1.0));
    }
    std::printf("\n");
  }
  std::printf(
      "Expected: actual bits within ~1 height-step of the formula, a small "
      "constant\nfactor above the information-theoretic log2(n) floor, and "
      "growing linearly in\nlog n. Larger f trades more bits for cheaper "
      "updates (see E3).\n");
  return 0;
}
