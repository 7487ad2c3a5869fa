// E9 / Section 4.1: batch (subtree) insertion lowers the amortized cost
// roughly logarithmically in the batch size.
//
// Inserts the same total number of leaves at uniform random positions, in
// batches of k, and compares the per-leaf amortized node accesses against
// the Section 4.1 bound. Besides the paper's cost metric the table tracks
// the wall-clock and allocator sides of the hot path:
//
//   * wall_ms        — wall time for the whole insert stream;
//   * allocs/leaf    — fresh NodeArena allocations per inserted leaf (real
//                      heap growth; the free-list recycles rebuild
//                      skeletons, so this stays near 1);
//   * reuse%         — share of allocation requests (fresh + reused)
//                      served by recycling;
//   * mallocs/leaf   — system allocations (256-node arena chunks) per leaf.
//
// Usage:   bench_batch_insert [initial] [total_leaves]
//
// Checks, per k: the measured cost stays within the batch(f,s,n,k) bound
// (0 < vs bound <= 1); the plan/apply pipeline runs exactly one relabel
// pass per batch operation, i.e. ceil(total/k) of them; node allocations
// are nonzero and arena chunks keep system mallocs below one per leaf.

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "model/cost_model.h"

using namespace ltree;

namespace {

struct BatchRunResult {
  double cost_per_leaf = 0.0;  // paper's amortized node accesses
  double wall_ms = 0.0;
  uint64_t relabel_passes = 0;   // plan/apply: one per batch op
  uint64_t nodes_allocated = 0;  // fresh arena allocations
  uint64_t nodes_reused = 0;
  uint64_t heap_allocs = 0;  // actual system allocations (arena chunks)

  uint64_t AllocRequests() const { return nodes_allocated + nodes_reused; }
};

BatchRunResult RunBatched(const Params& params, uint64_t initial,
                          uint64_t total_leaves, uint64_t k, uint64_t seed) {
  auto tree = LTree::Create(params).ValueOrDie();
  std::vector<LeafCookie> cookies(initial);
  for (uint64_t i = 0; i < initial; ++i) cookies[i] = i;
  std::vector<LTree::LeafHandle> handles;
  handles.reserve(initial + total_leaves);
  LTREE_CHECK_OK(tree->BulkLoad(cookies, &handles));
  tree->ResetStats();

  Rng rng(seed);
  std::vector<LeafCookie> batch_cookies;
  uint64_t remaining = total_leaves;
  uint64_t next_cookie = initial;
  const uint64_t chunks_before = tree->arena_stats().chunks;
  Timer timer;
  while (remaining > 0) {
    const uint64_t batch = std::min(k, remaining);
    batch_cookies.resize(batch);
    for (uint64_t i = 0; i < batch; ++i) batch_cookies[i] = next_cookie++;
    const size_t r = static_cast<size_t>(rng.Uniform(handles.size()));
    LTREE_CHECK_OK(
        tree->InsertBatchAfter(handles[r], batch_cookies, &handles));
    remaining -= batch;
  }
  BatchRunResult out;
  out.wall_ms = timer.ElapsedMillis();
  audit::AbortIfCorrupt(tree->Validate(), "L-Tree", "the batch run");
  const LTreeStats& st = tree->stats();
  out.cost_per_leaf = st.AmortizedCostPerInsert();
  out.relabel_passes = st.relabel_passes;
  out.nodes_allocated = st.nodes_allocated;
  out.nodes_reused = st.nodes_reused;
  out.heap_allocs = tree->arena_stats().chunks - chunks_before;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::PrintHeader(
      "E9 / Section 4.1: amortized cost vs batch size k",
      "Claim: inserting subtrees of k leaves at once cuts the per-leaf cost "
      "roughly logarithmically in k.");

  const Params params{.f = 16, .s = 4};
  const uint64_t initial =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 100000;
  const uint64_t total =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 50000;

  std::printf("params f=%u s=%u, initial n=%llu, %llu leaves inserted total\n\n",
              params.f, params.s, (unsigned long long)initial,
              (unsigned long long)total);
  std::printf("%8s %12s %14s %9s %8s %9s %12s %7s %13s\n", "k", "bound(4.1)",
              "measured/leaf", "vs bound", "vs k=1", "wall_ms",
              "allocs/leaf", "reuse%", "mallocs/leaf");

  double k1_cost = 0.0;
  for (uint64_t k : {1, 2, 4, 16, 64, 256, 1024, 4096}) {
    const BatchRunResult r = RunBatched(params, initial, total, k, 57);
    if (k == 1) k1_cost = r.cost_per_leaf;
    const double bound = model::CostModel::BatchAmortizedCost(
        params.f, params.s, static_cast<double>(initial),
        static_cast<double>(k));
    const double allocs_per_leaf =
        static_cast<double>(r.nodes_allocated) / static_cast<double>(total);
    const double reuse_pct =
        r.AllocRequests() == 0
            ? 0.0
            : 100.0 * static_cast<double>(r.nodes_reused) /
                  static_cast<double>(r.AllocRequests());
    const double mallocs_per_leaf =
        static_cast<double>(r.heap_allocs) / static_cast<double>(total);
    // The Section 4.1 amortization claim, made visible: measured amortized
    // cost next to the model's batch(f,s,n,k) prediction. < 1.0 means the
    // implementation beats the bound.
    const double bound_ratio = bound > 0.0 ? r.cost_per_leaf / bound : 0.0;
    std::printf(
        "%8llu %12.1f %14.2f %9.3f %7.2fx %9.2f %12.3f %6.1f%% %13.4f\n",
        (unsigned long long)k, bound, r.cost_per_leaf, bound_ratio,
        k1_cost / r.cost_per_leaf, r.wall_ms, allocs_per_leaf, reuse_pct,
        mallocs_per_leaf);
    LTREE_CHECK(bound_ratio > 0.0 && bound_ratio <= 1.0);
    LTREE_CHECK(r.relabel_passes == (total + k - 1) / k);
    LTREE_CHECK(allocs_per_leaf > 0.0);
    LTREE_CHECK(mallocs_per_leaf < 1.0);
  }
  std::printf(
      "\nExpected: the measured column decreases as k grows, tracking the "
      "bound's\nshape — each 4x in k removes roughly a constant amount, the "
      "logarithmic\ndecrease the paper derives — and vs bound stays < 1: "
      "the paper's\nbatch(f,s,n,k) amortized bound is the invariant the "
      "plan/apply pipeline\nis tested against. allocs/leaf is the node-slot "
      "growth that remains after\nfree-list recycling; mallocs/leaf is "
      "actual system allocations — arena\nchunks of 256 nodes — so the "
      "allocator leaves the hot path entirely.\n\n");
  return 0;
}
