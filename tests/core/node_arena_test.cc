// NodeArena unit tests plus the two system-level guarantees the arena
// refactor must uphold:
//
//  * conservation — every node the arena ever handed out is either
//    reachable from the root or back on the free list, i.e.
//    arena_stats().live() == nodes reachable from root(), across any
//    insert/erase/purge script;
//  * paper fidelity — the node-access statistics (the paper's Section 3.1
//    cost accounting) are bit-identical to the pre-arena seed
//    implementation. The golden numbers below were captured from the seed
//    build; if they move, the allocator change leaked into the algorithm.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "core/ltree.h"
#include "core/node_arena.h"

namespace ltree {
namespace {

// ---------------------------------------------------------------------------
// NodeArena unit tests
// ---------------------------------------------------------------------------

TEST(NodeArenaTest, FreshAllocationsComeFromChunks) {
  NodeArena arena;
  EXPECT_EQ(arena.stats().chunks, 0u);
  Node* a = arena.Allocate();
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(arena.stats().chunks, 1u);
  EXPECT_EQ(arena.stats().fresh_allocs, 1u);
  EXPECT_EQ(arena.stats().reused_allocs, 0u);
  EXPECT_EQ(arena.stats().live(), 1u);

  // Fill the first chunk; the next allocation opens a second one.
  std::vector<Node*> nodes;
  for (size_t i = 1; i < NodeArena::kChunkNodes; ++i) {
    nodes.push_back(arena.Allocate());
  }
  EXPECT_EQ(arena.stats().chunks, 1u);
  nodes.push_back(arena.Allocate());
  EXPECT_EQ(arena.stats().chunks, 2u);
  EXPECT_EQ(arena.stats().fresh_allocs, NodeArena::kChunkNodes + 1);
}

TEST(NodeArenaTest, SlotsAreCacheLineAligned) {
  // Concurrent readers tag erased slot pointers in their low bit and the
  // planned SIMD node scan assumes line-aligned loads, so every slot —
  // fresh from a chunk or recycled off the free list — must start on a
  // 64-byte boundary.
  static_assert(NodeArena::kSlotAlign == 64, "slots must be line-aligned");
  static_assert(NodeArena::kSlotStride % NodeArena::kSlotAlign == 0,
                "stride must preserve the alignment of every slot");

  NodeArena arena;
  std::vector<Node*> nodes;
  // Span two chunks so chunk bases (not just strides) are covered.
  for (size_t i = 0; i < NodeArena::kChunkNodes + 8; ++i) {
    nodes.push_back(arena.Allocate());
  }
  ASSERT_EQ(arena.stats().chunks, 2u);
  for (const Node* n : nodes) {
    EXPECT_EQ(reinterpret_cast<uintptr_t>(n) % NodeArena::kSlotAlign, 0u);
  }

  // Recycling preserves alignment: the free list hands back slot bases.
  for (size_t i = 0; i < 8; ++i) arena.Release(nodes[i * 3]);
  for (size_t i = 0; i < 8; ++i) {
    const Node* n = arena.Allocate();
    EXPECT_EQ(reinterpret_cast<uintptr_t>(n) % NodeArena::kSlotAlign, 0u);
  }
  EXPECT_EQ(arena.stats().reused_allocs, 8u);
}

TEST(NodeArenaTest, ReleaseThenAllocateRecycles) {
  NodeArena arena;
  Node* a = arena.Allocate();
  a->height = 3;
  a->num = 42;
  a->deleted = true;
  arena.Release(a);
  EXPECT_EQ(arena.stats().releases, 1u);
  EXPECT_EQ(arena.stats().live(), 0u);

  Node* b = arena.Allocate();
  EXPECT_EQ(b, a);  // LIFO free list
  EXPECT_EQ(arena.stats().reused_allocs, 1u);
  EXPECT_EQ(arena.stats().fresh_allocs, 1u);
  // Recycled node is back in the default (fresh leaf) state.
  EXPECT_EQ(b->height, 0u);
  EXPECT_EQ(b->num, 0u);
  EXPECT_EQ(b->leaf_count, 1u);
  EXPECT_FALSE(b->deleted);
  EXPECT_EQ(b->parent, nullptr);
  EXPECT_TRUE(b->children.empty());
}

TEST(NodeArenaTest, RecycledNodeKeepsChildrenCapacity) {
  NodeArena arena;
  Node* a = arena.Allocate();
  a->children.reserve(17);
  const size_t cap = a->children.capacity();
  ASSERT_GE(cap, 17u);
  arena.Release(a);
  Node* b = arena.Allocate();
  ASSERT_EQ(b, a);
  EXPECT_TRUE(b->children.empty());
  EXPECT_EQ(b->children.capacity(), cap);  // the buffer survived recycling
}

TEST(NodeArenaStatsTest, TotalAllocsAndLive) {
  NodeArenaStats st;
  st.fresh_allocs = 10;
  st.reused_allocs = 4;
  st.releases = 6;
  EXPECT_EQ(st.TotalAllocs(), 14u);
  EXPECT_EQ(st.live(), 8u);
  EXPECT_NE(st.ToString().find("fresh=10"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Conservation: arena live count == nodes reachable from the root
// ---------------------------------------------------------------------------

uint64_t CountNodes(const Node* n) {
  if (n == nullptr) return 0;
  uint64_t total = 1;
  for (const Node* child : n->children) total += CountNodes(child);
  return total;
}

class ArenaConservationTest : public ::testing::TestWithParam<bool> {};

TEST_P(ArenaConservationTest, RandomScriptConservesNodes) {
  const bool purge = GetParam();
  Params params{.f = 8, .s = 2, .purge_tombstones_on_split = purge};
  auto tree = LTree::Create(params).ValueOrDie();

  auto check = [&](const char* where) {
    ASSERT_EQ(tree->arena_stats().live(), CountNodes(tree->root()))
        << where << " (purge=" << purge << ")";
  };
  check("empty tree");

  std::vector<LeafCookie> cookies(300);
  for (uint64_t i = 0; i < 300; ++i) cookies[i] = i;
  std::vector<LTree::LeafHandle> handles;
  ASSERT_TRUE(tree->BulkLoad(cookies, &handles).ok());
  check("after bulk load");

  // Randomized insert/erase script. Purging frees the node an erased
  // handle points at, so all positioning goes through live-leaf walks.
  Rng rng(2024);
  for (int i = 0; i < 2000; ++i) {
    if (rng.Bernoulli(0.25) && tree->num_live_leaves() > 1) {
      Node* victim = tree->FirstLiveLeaf();
      const size_t skip = static_cast<size_t>(rng.Uniform(8));
      for (size_t s = 0; s < skip; ++s) {
        Node* next = tree->NextLiveLeaf(victim);
        if (next == nullptr) break;
        victim = next;
      }
      ASSERT_TRUE(tree->MarkDeleted(victim).ok());
    }
    Node* pos = tree->FirstLiveLeaf();
    const size_t skip = static_cast<size_t>(rng.Uniform(32));
    for (size_t s = 0; s < skip; ++s) {
      Node* next = tree->NextLiveLeaf(pos);
      if (next == nullptr) break;
      pos = next;
    }
    ASSERT_TRUE(tree->InsertAfter(pos, 1000 + i).ok());
    if (i % 100 == 0) check("mid script");
  }
  check("after script");
  ASSERT_TRUE(tree->Validate().ok()) << tree->Validate().ToString();

  if (purge) {
    EXPECT_GT(tree->stats().tombstones_purged, 0u);
    EXPECT_GT(tree->stats().nodes_released, 0u);
  }
  // Splits happened, so recycling must have happened.
  EXPECT_GT(tree->stats().splits, 0u);
  EXPECT_GT(tree->arena_stats().reused_allocs, 0u);
}

INSTANTIATE_TEST_SUITE_P(PurgeModes, ArenaConservationTest,
                         ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "purge" : "tombstone";
                         });

TEST(ArenaConservationTest, BatchScriptConservesNodes) {
  Params params{.f = 16, .s = 4};
  auto tree = LTree::Create(params).ValueOrDie();
  std::vector<LTree::LeafHandle> handles;
  std::vector<LeafCookie> batch(64);
  uint64_t next = 0;
  Rng rng(7);
  for (int b = 0; b < 40; ++b) {
    for (auto& c : batch) c = next++;
    if (handles.empty()) {
      ASSERT_TRUE(tree->PushBackBatch(batch, &handles).ok());
    } else {
      const size_t r = static_cast<size_t>(rng.Uniform(handles.size()));
      ASSERT_TRUE(tree->InsertBatchAfter(handles[r], batch, &handles).ok());
    }
    ASSERT_EQ(tree->arena_stats().live(), CountNodes(tree->root()));
  }
  ASSERT_TRUE(tree->Validate().ok()) << tree->Validate().ToString();
}

// ---------------------------------------------------------------------------
// Stats window semantics
// ---------------------------------------------------------------------------

TEST(ArenaStatsWindowTest, ResetStatsRestartsAllocCounters) {
  Params params{.f = 8, .s = 2};
  auto tree = LTree::Create(params).ValueOrDie();
  std::vector<LeafCookie> cookies(100);
  for (uint64_t i = 0; i < 100; ++i) cookies[i] = i;
  std::vector<LTree::LeafHandle> handles;
  ASSERT_TRUE(tree->BulkLoad(cookies, &handles).ok());
  EXPECT_GT(tree->stats().nodes_allocated, 0u);

  tree->ResetStats();
  EXPECT_EQ(tree->stats().nodes_allocated, 0u);
  EXPECT_EQ(tree->stats().nodes_reused, 0u);
  EXPECT_EQ(tree->stats().nodes_released, 0u);

  ASSERT_TRUE(tree->InsertAfter(handles[50], 100).ok());
  // Exactly one node-slot was requested: the new leaf (no split here, and
  // even with one the skeleton recycles).
  EXPECT_EQ(tree->stats().nodes_allocated + tree->stats().nodes_reused, 1u);
  // Lifetime counters are monotonic and unaffected by the reset.
  EXPECT_GE(tree->arena_stats().TotalAllocs(), 101u);
}

// ---------------------------------------------------------------------------
// Paper fidelity: node-access stats bit-identical to the seed build
// ---------------------------------------------------------------------------

struct GoldenExpectation {
  uint64_t ancestor_updates;
  uint64_t nodes_relabeled;
  uint64_t leaves_relabeled;
  uint64_t splits;
  uint64_t root_splits;
  uint64_t escalations = 0;
  uint64_t relabel_passes = 0;
  uint64_t coalesced_regions = 0;
  uint64_t tombstones_purged;
  uint64_t max_label;
  uint32_t height;
};

void ExpectGolden(const LTree& tree, const GoldenExpectation& want) {
  const LTreeStats& st = tree.stats();
  EXPECT_EQ(st.ancestor_updates, want.ancestor_updates);
  EXPECT_EQ(st.nodes_relabeled, want.nodes_relabeled);
  EXPECT_EQ(st.leaves_relabeled, want.leaves_relabeled);
  EXPECT_EQ(st.splits, want.splits);
  EXPECT_EQ(st.root_splits, want.root_splits);
  EXPECT_EQ(st.escalations, want.escalations);
  // The plan/apply invariant: exactly one relabel pass per mutation, no
  // matter how many escalation levels the planner folded into the region.
  EXPECT_EQ(st.relabel_passes, want.relabel_passes);
  EXPECT_EQ(st.coalesced_regions, want.coalesced_regions);
  EXPECT_EQ(st.tombstones_purged, want.tombstones_purged);
  EXPECT_EQ(tree.max_label(), want.max_label);
  EXPECT_EQ(tree.height(), want.height);
}

TEST(SeedGoldenStatsTest, UniformSingleInserts) {
  Params p{.f = 16, .s = 4};
  auto tree = LTree::Create(p).ValueOrDie();
  std::vector<LeafCookie> cookies(1000);
  for (uint64_t i = 0; i < 1000; ++i) cookies[i] = i;
  std::vector<LTree::LeafHandle> handles;
  ASSERT_TRUE(tree->BulkLoad(cookies, &handles).ok());
  tree->ResetStats();
  Rng rng(123);
  for (uint64_t i = 0; i < 5000; ++i) {
    const size_t r = static_cast<size_t>(rng.Uniform(handles.size()));
    handles.push_back(tree->InsertAfter(handles[r], 1000 + i).ValueOrDie());
  }
  ASSERT_TRUE(tree->Validate().ok()) << tree->Validate().ToString();
  ExpectGolden(*tree, {.ancestor_updates = 26904,
                       .nodes_relabeled = 53482,
                       .leaves_relabeled = 36285,
                       .splits = 129,
                       .root_splits = 1,
                       .relabel_passes = 5000,  // one pass per insert
                       .tombstones_purged = 0,
                       .max_label = 4525800,
                       .height = 6});
}

TEST(SeedGoldenStatsTest, BatchInserts) {
  Params p{.f = 16, .s = 4};
  auto tree = LTree::Create(p).ValueOrDie();
  std::vector<LeafCookie> cookies(1000);
  for (uint64_t i = 0; i < 1000; ++i) cookies[i] = i;
  std::vector<LTree::LeafHandle> handles;
  ASSERT_TRUE(tree->BulkLoad(cookies, &handles).ok());
  tree->ResetStats();
  Rng rng(7);
  uint64_t next = 1000;
  for (int b = 0; b < 64; ++b) {
    std::vector<LeafCookie> batch(64);
    for (auto& c : batch) c = next++;
    const size_t r = static_cast<size_t>(rng.Uniform(handles.size()));
    ASSERT_TRUE(tree->InsertBatchAfter(handles[r], batch, &handles).ok());
  }
  ASSERT_TRUE(tree->Validate().ok()) << tree->Validate().ToString();
  ExpectGolden(*tree, {.ancestor_updates = 335,
                       .nodes_relabeled = 19262,
                       .leaves_relabeled = 9446,
                       .splits = 63,
                       .root_splits = 1,
                       .relabel_passes = 64,  // one pass per batch
                       .tombstones_purged = 0,
                       .max_label = 5945634,
                       .height = 6});
}

TEST(SeedGoldenStatsTest, MixedEraseInsertWithPurge) {
  Params p{.f = 8, .s = 2, .purge_tombstones_on_split = true};
  auto tree = LTree::Create(p).ValueOrDie();
  std::vector<LeafCookie> cookies(512);
  for (uint64_t i = 0; i < 512; ++i) cookies[i] = i;
  std::vector<LTree::LeafHandle> handles;
  ASSERT_TRUE(tree->BulkLoad(cookies, &handles).ok());
  tree->ResetStats();
  Rng rng(99);
  std::vector<bool> erased(handles.size(), false);
  for (uint64_t i = 0; i < 3000; ++i) {
    const size_t r = static_cast<size_t>(rng.Uniform(handles.size()));
    if (rng.Bernoulli(0.3) && !erased[r] && !tree->deleted(handles[r]) &&
        tree->num_live_leaves() > 1) {
      ASSERT_TRUE(tree->MarkDeleted(handles[r]).ok());
      erased[r] = true;
    }
    Node* live = tree->FirstLiveLeaf();
    const size_t skip = static_cast<size_t>(rng.Uniform(16));
    for (size_t s = 0; s < skip && live != nullptr; ++s) {
      Node* nxt = tree->NextLiveLeaf(live);
      if (nxt == nullptr) break;
      live = nxt;
    }
    handles.push_back(tree->InsertAfter(live, 512 + i).ValueOrDie());
    erased.push_back(false);
  }
  ASSERT_TRUE(tree->Validate().ok()) << tree->Validate().ToString();
  ExpectGolden(*tree, {.ancestor_updates = 15932,
                       .nodes_relabeled = 101354,
                       .leaves_relabeled = 68980,
                       .splits = 604,
                       .root_splits = 7,
                       .relabel_passes = 3000,  // one pass per insert
                       .tombstones_purged = 562,
                       .max_label = 81192,
                       .height = 6});
}

// Re-goldened for the plan/apply pipeline: batches large enough to overflow
// the parent fanout used to rebuild once per escalation level; the planner
// now folds the whole chain into one region, so `splits` counts regions
// (not levels) and every batch still pays exactly one relabel pass. The
// label outcome (max_label/height) is unchanged from the seed algorithm —
// only the per-level rebuild accounting collapsed.
TEST(SeedGoldenStatsTest, EscalatingBatchesCoalesceIntoOneRegion) {
  Params p{.f = 16, .s = 2};
  auto tree = LTree::Create(p).ValueOrDie();
  std::vector<LeafCookie> cookies(64);
  for (uint64_t i = 0; i < 64; ++i) cookies[i] = i;
  std::vector<LTree::LeafHandle> handles;
  ASSERT_TRUE(tree->BulkLoad(cookies, &handles).ok());
  tree->ResetStats();
  Rng rng(11);
  uint64_t next = 64;
  for (int b = 0; b < 48; ++b) {
    const uint64_t k = 8 + rng.Uniform(120);
    std::vector<LeafCookie> batch(k);
    for (auto& c : batch) c = next++;
    const size_t r = static_cast<size_t>(rng.Uniform(handles.size()));
    ASSERT_TRUE(tree->InsertBatchAfter(handles[r], batch, &handles).ok());
    ASSERT_TRUE(tree->Validate().ok())
        << "batch " << b << ": " << tree->Validate().ToString();
  }
  // 48 batches -> 48 relabel passes, even though one region absorbed a
  // fanout-overflow escalation (esc=1, coal=1): splits counts regions.
  ExpectGolden(*tree, {.ancestor_updates = 173,
                       .nodes_relabeled = 14850,
                       .leaves_relabeled = 9224,
                       .splits = 45,
                       .root_splits = 2,
                       .escalations = 1,
                       .relabel_passes = 48,
                       .coalesced_regions = 1,
                       .tombstones_purged = 0,
                       .max_label = 18332,
                       .height = 4});
  // The pipeline invariant in closed form: every mutation ran exactly one
  // relabel pass, regardless of how many levels its region coalesced.
  EXPECT_EQ(tree->stats().relabel_passes, tree->stats().batch_inserts);
}

}  // namespace
}  // namespace ltree
