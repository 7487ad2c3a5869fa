// Differential coverage for core/simd_search.h: every kernel (scalar,
// branchless, AVX2 — as available on the host) must return exactly
// std::lower_bound / std::upper_bound on every width a tree node can have,
// including adversarial shapes: boundary duplicates, all-equal runs, and
// min/max labels. Also pins the dispatcher (cpuid default, env override,
// SetKernelForTest) and the strided LowerBoundBy used on entry runs.

#include "core/simd_search.h"

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "gtest/gtest.h"
#include "obtree/counted_btree.h"

namespace ltree {
namespace search {
namespace {

using LowerFn = uint32_t (*)(const Label*, uint32_t, Label);

struct KernelFns {
  Kernel kernel;
  LowerFn lower;
  LowerFn upper;
};

std::vector<KernelFns> AvailableKernels() {
  std::vector<KernelFns> out = {
      {Kernel::kScalar, LowerBoundScalar, UpperBoundScalar},
      {Kernel::kBranchless, LowerBoundBranchless, UpperBoundBranchless},
  };
  if (KernelAvailable(Kernel::kAvx2)) {
    out.push_back({Kernel::kAvx2, LowerBoundAvx2, UpperBoundAvx2});
  }
  return out;
}

void CheckAllProbes(const std::vector<Label>& keys) {
  const uint32_t n = static_cast<uint32_t>(keys.size());
  // Probe every element, its neighbors, and the domain extremes.
  std::vector<Label> probes = {0, 1, ~Label{0}, ~Label{0} - 1};
  for (Label k : keys) {
    probes.push_back(k);
    if (k > 0) probes.push_back(k - 1);
    if (k < ~Label{0}) probes.push_back(k + 1);
  }
  for (const auto& fns : AvailableKernels()) {
    for (Label probe : probes) {
      const uint32_t want_lower = static_cast<uint32_t>(
          std::lower_bound(keys.begin(), keys.end(), probe) - keys.begin());
      const uint32_t want_upper = static_cast<uint32_t>(
          std::upper_bound(keys.begin(), keys.end(), probe) - keys.begin());
      ASSERT_EQ(fns.lower(keys.data(), n, probe), want_lower)
          << KernelName(fns.kernel) << " lower, n=" << n
          << " probe=" << probe;
      ASSERT_EQ(fns.upper(keys.data(), n, probe), want_upper)
          << KernelName(fns.kernel) << " upper, n=" << n
          << " probe=" << probe;
    }
  }
}

TEST(SimdSearchTest, EveryWidthRandomized) {
  std::mt19937_64 rng(42);
  // Every width a node can reach, and one beyond the widest.
  for (uint32_t n = 0; n <= obtree::kMaxNodeOrder + 1; ++n) {
    for (int rep = 0; rep < 8; ++rep) {
      std::vector<Label> keys(n);
      for (auto& k : keys) k = rng();
      std::sort(keys.begin(), keys.end());
      CheckAllProbes(keys);
    }
  }
}

TEST(SimdSearchTest, BoundaryDuplicates) {
  // Sorted-with-duplicates arrays: lower/upper bound diverge, which the
  // tree never exercises (unique keys) but the primitive must still get
  // right for any future caller.
  for (uint32_t n : {1u, 2u, 3u, 7u, 8u, 15u, 16u, 33u, 64u, 65u}) {
    std::vector<Label> all_equal(n, Label{1000});
    CheckAllProbes(all_equal);
    std::vector<Label> pairs(n);
    for (uint32_t i = 0; i < n; ++i) pairs[i] = 10 * (i / 2);
    CheckAllProbes(pairs);
  }
}

TEST(SimdSearchTest, MinMaxLabels) {
  CheckAllProbes({0});
  CheckAllProbes({~Label{0}});
  CheckAllProbes({0, ~Label{0}});
  CheckAllProbes({0, 0, 1, ~Label{0} - 1, ~Label{0}, ~Label{0}});
  // Sign-flip edge: values straddling the 2^63 boundary, where a naive
  // signed SIMD compare would order them wrong.
  CheckAllProbes({Label{1} << 62, (Label{1} << 63) - 1, Label{1} << 63,
                  (Label{1} << 63) + 1, Label{3} << 62});
}

TEST(SimdSearchTest, DispatchedEntryPointsMatchForcedKernels) {
  std::mt19937_64 rng(7);
  std::vector<Label> keys(37);
  for (auto& k : keys) k = rng() % 1000;
  std::sort(keys.begin(), keys.end());
  const uint32_t n = static_cast<uint32_t>(keys.size());
  for (const auto& fns : AvailableKernels()) {
    SetKernelForTest(fns.kernel);
    EXPECT_EQ(ActiveKernel(), fns.kernel);
    for (Label probe = 0; probe < 1001; probe += 13) {
      EXPECT_EQ(LowerBound(keys.data(), n, probe),
                LowerBoundScalar(keys.data(), n, probe));
      EXPECT_EQ(UpperBound(keys.data(), n, probe),
                UpperBoundScalar(keys.data(), n, probe));
    }
  }
  ResetKernel();
}

TEST(SimdSearchTest, EnvOverrideForcesScalarPath) {
  ASSERT_EQ(setenv("LTREE_SEARCH_KERNEL", "scalar", /*overwrite=*/1), 0);
  ResetKernel();
  EXPECT_EQ(ActiveKernel(), Kernel::kScalar);
  // Unknown names fall back to cpuid detection instead of crashing.
  ASSERT_EQ(setenv("LTREE_SEARCH_KERNEL", "quantum", 1), 0);
  ResetKernel();
  EXPECT_NE(ActiveKernel(), Kernel::kScalar);
  ASSERT_EQ(unsetenv("LTREE_SEARCH_KERNEL"), 0);
  ResetKernel();
}

TEST(SimdSearchTest, KernelNamesRoundTrip) {
  for (Kernel k : {Kernel::kScalar, Kernel::kBranchless, Kernel::kAvx2}) {
    EXPECT_STRNE(KernelName(k), "unknown");
  }
}

TEST(SimdSearchTest, LowerBoundByMatchesStdOnStridedRuns) {
  struct Row {
    Label key;
    uint64_t payload;
  };
  std::mt19937_64 rng(99);
  // Small (pure linear) through large (binary-narrowed) runs.
  for (uint32_t n : {0u, 1u, 5u, 32u, 33u, 100u, 1000u, 5000u}) {
    std::vector<Row> rows(n);
    for (auto& r : rows) r = {rng() % (4 * n + 1), rng()};
    std::sort(rows.begin(), rows.end(),
              [](const Row& a, const Row& b) { return a.key < b.key; });
    for (int rep = 0; rep < 200; ++rep) {
      const Label probe = rng() % (4 * n + 2);
      const uint32_t want = static_cast<uint32_t>(
          std::lower_bound(rows.begin(), rows.end(), probe,
                           [](const Row& r, Label key) {
                             return r.key < key;
                           }) -
          rows.begin());
      EXPECT_EQ(LowerBoundBy(rows.data(), n, probe,
                             [](const Row& r) { return r.key; }),
                want);
    }
  }
}

// The in-tree effect: the same tree queried through each kernel must
// produce bit-identical answers.
TEST(SimdSearchTest, TreeQueriesAgreeAcrossKernels) {
  std::mt19937_64 rng(1234);
  std::vector<Label> keys;
  for (int i = 0; i < 3000; ++i) keys.push_back(rng());
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());

  std::vector<obtree::Entry> entries;
  for (Label k : keys) entries.push_back({k, k ^ 0x5a5a});

  std::vector<std::vector<uint64_t>> ranks;
  for (const auto& fns : AvailableKernels()) {
    SetKernelForTest(fns.kernel);
    obtree::CountedBTree tree(8);
    ASSERT_TRUE(tree.BulkBuild(entries).ok());
    std::vector<uint64_t> r;
    std::mt19937_64 probe_rng(777);  // identical probe stream per kernel
    for (int i = 0; i < 500; ++i) {
      const Label probe = probe_rng();
      r.push_back(tree.CountLess(probe));
      const auto hit = tree.Lookup(keys[i % keys.size()]);
      ASSERT_TRUE(hit.ok());
      r.push_back(*hit);
    }
    ranks.push_back(std::move(r));
  }
  ResetKernel();
  for (size_t i = 1; i < ranks.size(); ++i) {
    EXPECT_EQ(ranks[i], ranks[0]) << "kernel " << i << " diverged";
  }
}

}  // namespace
}  // namespace search
}  // namespace ltree
