// Behavioural tests for the individual labeling schemes behind the
// LabelStore interface.

#include <gtest/gtest.h>

#include <ostream>
#include <set>

#include "listlab/bender_list.h"
#include "listlab/factory.h"
#include "listlab/gap_list.h"
#include "listlab/ltree_store.h"
#include "listlab/sequential_list.h"
#include "workload/update_stream.h"

namespace ltree {
namespace listlab {
namespace {

TEST(SequentialListTest, BulkLoadIsConsecutive) {
  SequentialList list;
  std::vector<ItemHandle> ids;
  ASSERT_TRUE(list.BulkLoad(5, &ids).ok());
  EXPECT_EQ(list.Labels(), (std::vector<Label>{0, 1, 2, 3, 4}));
  EXPECT_EQ(list.size(), 5u);
  EXPECT_EQ(list.erase_semantics(), EraseSemantics::kPhysical);
  EXPECT_TRUE(list.Validate().ok()) << list.Validate().ToString();
}

TEST(SequentialListTest, MidInsertShiftsSuffix) {
  SequentialList list;
  std::vector<ItemHandle> ids;
  ASSERT_TRUE(list.BulkLoad(10, &ids).ok());
  // Insert after position 3: labels 4..9 shift.
  auto id = list.InsertAfter(ids[3], 77);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*list.GetLabel(*id), 4u);
  EXPECT_EQ(*list.GetCookie(*id), 77u);
  EXPECT_EQ(list.stats().items_relabeled, 6u);
  EXPECT_EQ(list.Labels(),
            (std::vector<Label>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}));
  EXPECT_TRUE(list.Validate().ok()) << list.Validate().ToString();
}

TEST(SequentialListTest, AppendIsFree) {
  SequentialList list;
  std::vector<ItemHandle> ids;
  ASSERT_TRUE(list.BulkLoad(10, &ids).ok());
  ASSERT_TRUE(list.PushBack(0).ok());
  EXPECT_EQ(list.stats().items_relabeled, 0u);
}

TEST(SequentialListTest, PushFrontShiftsEverything) {
  SequentialList list;
  std::vector<ItemHandle> ids;
  ASSERT_TRUE(list.BulkLoad(10, &ids).ok());
  ASSERT_TRUE(list.PushFront(0).ok());
  EXPECT_EQ(list.stats().items_relabeled, 10u);
}

TEST(SequentialListTest, EraseLeavesGapThatAbsorbsShift) {
  SequentialList list;
  std::vector<ItemHandle> ids;
  ASSERT_TRUE(list.BulkLoad(10, &ids).ok());
  ASSERT_TRUE(list.Erase(ids[5]).ok());  // label 5 vacated
  ASSERT_TRUE(list.InsertAfter(ids[2], 0).ok());
  // Shift stops at the vacated slot: labels 3,4 move to 4,5.
  EXPECT_EQ(list.stats().items_relabeled, 2u);
  EXPECT_TRUE(list.Validate().ok()) << list.Validate().ToString();
}

TEST(SequentialListTest, ErasedHandleRejected) {
  SequentialList list;
  std::vector<ItemHandle> ids;
  ASSERT_TRUE(list.BulkLoad(3, &ids).ok());
  ASSERT_TRUE(list.Erase(ids[1]).ok());
  EXPECT_TRUE(list.Erase(ids[1]).IsFailedPrecondition())
      << "double erase is FailedPrecondition in every scheme";
  EXPECT_TRUE(list.GetLabel(ids[1]).status().IsNotFound());
  EXPECT_TRUE(list.GetCookie(ids[1]).status().IsNotFound());
  EXPECT_TRUE(list.InsertAfter(ids[1], 0).status().IsNotFound());
  EXPECT_TRUE(list.GetLabel(999).status().IsNotFound());
  EXPECT_TRUE(list.Erase(999).IsNotFound());
}

TEST(GapListTest, BulkLoadLeavesGaps) {
  GapList list(10);
  std::vector<ItemHandle> ids;
  ASSERT_TRUE(list.BulkLoad(4, &ids).ok());
  EXPECT_EQ(list.Labels(), (std::vector<Label>{0, 10, 20, 30}));
}

TEST(GapListTest, MidpointInsertNoRelabel) {
  GapList list(10);
  std::vector<ItemHandle> ids;
  ASSERT_TRUE(list.BulkLoad(4, &ids).ok());
  auto id = list.InsertAfter(ids[1], 0);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*list.GetLabel(*id), 15u);
  EXPECT_EQ(list.stats().items_relabeled, 0u);
}

TEST(GapListTest, ExhaustedGapRenumbersAll) {
  GapList list(4);
  std::vector<ItemHandle> ids;
  ASSERT_TRUE(list.BulkLoad(8, &ids).ok());
  // Hammer one gap until it renumbers: gap 4 fits 2 midpoint inserts.
  ItemHandle pos = ids[0];
  uint64_t relabels_before = list.stats().items_relabeled;
  int renumbers = 0;
  for (int i = 0; i < 10; ++i) {
    auto id = list.InsertAfter(pos, 0);
    ASSERT_TRUE(id.ok());
    if (list.stats().rebalances > static_cast<uint64_t>(renumbers)) {
      ++renumbers;
    }
    ASSERT_TRUE(list.Validate().ok()) << list.Validate().ToString();
  }
  EXPECT_GT(renumbers, 0);
  EXPECT_GT(list.stats().items_relabeled, relabels_before);
}

TEST(GapListTest, AppendExtends) {
  GapList list(16);
  std::vector<ItemHandle> ids;
  ASSERT_TRUE(list.BulkLoad(2, &ids).ok());
  auto id = list.PushBack(0);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*list.GetLabel(*id), 32u);
  EXPECT_EQ(list.stats().items_relabeled, 0u);
}

TEST(GapListTest, FailedBatchRollsBack) {
  // Fallback batches are all-or-nothing: the third append overflows the
  // 64-bit label space, so the first two must be erased again.
  GapList list(uint64_t{1} << 62);
  std::vector<ItemHandle> ids;
  ASSERT_TRUE(list.BulkLoad(2, &ids).ok());
  const std::vector<LeafCookie> batch{9, 10, 11};
  std::vector<ItemHandle> fresh;
  auto st = list.PushBackBatch(batch, &fresh);
  EXPECT_TRUE(st.IsCapacityExceeded());
  EXPECT_TRUE(fresh.empty());
  EXPECT_EQ(list.size(), 2u);
  EXPECT_EQ(list.Labels().size(), 2u);
  EXPECT_TRUE(list.Validate().ok()) << list.Validate().ToString();
}

TEST(GapListTest, PushFrontUsesHalfGap) {
  GapList list(16);
  std::vector<ItemHandle> ids;
  ASSERT_TRUE(list.BulkLoad(2, &ids).ok());
  ASSERT_TRUE(list.PushFront(0).ok());
  EXPECT_EQ(list.Labels().front(), 0u);
  EXPECT_TRUE(list.Validate().ok()) << list.Validate().ToString();
}

TEST(BenderListTest, BulkLoadEvenSpread) {
  BenderList list;
  std::vector<ItemHandle> ids;
  ASSERT_TRUE(list.BulkLoad(16, &ids).ok());
  auto labels = list.Labels();
  ASSERT_EQ(labels.size(), 16u);
  EXPECT_TRUE(std::is_sorted(labels.begin(), labels.end()));
  EXPECT_TRUE(list.Validate().ok()) << list.Validate().ToString();
}

TEST(BenderListTest, HotspotInsertsStayCheap) {
  BenderList list;
  std::vector<ItemHandle> ids;
  ASSERT_TRUE(list.BulkLoad(64, &ids).ok());
  ItemHandle pos = ids[32];
  for (int i = 0; i < 2000; ++i) {
    auto id = list.InsertAfter(pos, 0);
    ASSERT_TRUE(id.ok());
    if (i % 200 == 0) {
      ASSERT_TRUE(list.Validate().ok()) << list.Validate().ToString();
    }
  }
  EXPECT_TRUE(list.Validate().ok()) << list.Validate().ToString();
  // Amortized relabels should be polylog, far below n/2 = ~1000.
  EXPECT_LT(list.stats().RelabelsPerInsert(), 100.0);
}

TEST(BenderListTest, UniverseGrowsWhenDense) {
  BenderList list(BenderList::Options{.initial_bits = 6, .root_density = 0.5});
  ASSERT_TRUE(list.BulkLoad(8, nullptr).ok());
  const uint32_t bits_before = list.universe_bits();
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(list.PushBack(0).ok());
  }
  EXPECT_GT(list.universe_bits(), bits_before);
  EXPECT_TRUE(list.Validate().ok()) << list.Validate().ToString();
}

TEST(BenderListTest, EmptyListPushBack) {
  BenderList list;
  auto id = list.PushBack(0);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(list.size(), 1u);
  auto id2 = list.PushFront(0);
  ASSERT_TRUE(id2.ok());
  auto labels = list.Labels();
  EXPECT_LT(labels[0], labels[1]);
}

TEST(LTreeStoreTest, WrapsTree) {
  auto m = LTreeStore::Make(Params{.f = 8, .s = 2}).ValueOrDie();
  std::vector<ItemHandle> ids;
  ASSERT_TRUE(m->BulkLoad(16, &ids).ok());
  EXPECT_EQ(m->size(), 16u);
  EXPECT_EQ(m->erase_semantics(), EraseSemantics::kTombstone);
  auto id = m->InsertAfter(ids[4], 1234);
  ASSERT_TRUE(id.ok());
  EXPECT_GT(*m->GetLabel(*id), *m->GetLabel(ids[4]));
  EXPECT_LT(*m->GetLabel(*id), *m->GetLabel(ids[5]));
  EXPECT_EQ(*m->GetCookie(*id), 1234u);
  EXPECT_EQ(*m->GetCookie(ids[3]), 3u);
  ASSERT_TRUE(m->Erase(ids[0]).ok());
  EXPECT_EQ(m->size(), 16u);
  EXPECT_TRUE(m->GetLabel(ids[0]).status().IsNotFound());
  EXPECT_TRUE(m->Erase(ids[0]).IsFailedPrecondition());
  EXPECT_EQ(m->stats().inserts, 1u);
  EXPECT_TRUE(m->Validate().ok()) << m->Validate().ToString();
}

TEST(LTreeStoreTest, PurgeSpecKeepsHandlesSafe) {
  auto m = MakeLabelStore("ltree:4:2:purge").ValueOrDie();
  EXPECT_EQ(m->erase_semantics(), EraseSemantics::kTombstonePurge);
  std::vector<ItemHandle> ids;
  ASSERT_TRUE(m->BulkLoad(8, &ids).ok());
  ASSERT_TRUE(m->Erase(ids[2]).ok());
  ASSERT_TRUE(m->Erase(ids[3]).ok());
  // Force splits around the tombstones so they get purged.
  ItemHandle pos = ids[1];
  for (int i = 0; i < 64; ++i) {
    auto fresh = m->InsertAfter(pos, 100 + i);
    ASSERT_TRUE(fresh.ok());
  }
  // The erased handles answer consistently even though their leaves are
  // gone.
  EXPECT_TRUE(m->GetLabel(ids[2]).status().IsNotFound());
  EXPECT_TRUE(m->Erase(ids[3]).IsFailedPrecondition());
  EXPECT_TRUE(m->Validate().ok()) << m->Validate().ToString();
}

TEST(LTreeStoreTest, BatchInsertIsOneRebalance) {
  auto m = LTreeStore::Make(Params{.f = 8, .s = 2}).ValueOrDie();
  std::vector<ItemHandle> ids;
  ASSERT_TRUE(m->BulkLoad(8, &ids).ok());
  const std::vector<LeafCookie> cookies{50, 51, 52, 53, 54};
  std::vector<ItemHandle> fresh;
  ASSERT_TRUE(m->InsertBatchAfter(ids[3], cookies, &fresh).ok());
  ASSERT_EQ(fresh.size(), 5u);
  EXPECT_EQ(m->stats().batch_inserts, 1u);
  // Batch items sit between ids[3] and ids[4], in batch order.
  Label prev = *m->GetLabel(ids[3]);
  for (size_t i = 0; i < fresh.size(); ++i) {
    const Label l = *m->GetLabel(fresh[i]);
    EXPECT_GT(l, prev);
    EXPECT_EQ(*m->GetCookie(fresh[i]), cookies[i]);
    prev = l;
  }
  EXPECT_LT(prev, *m->GetLabel(ids[4]));
  EXPECT_TRUE(m->Validate().ok()) << m->Validate().ToString();
}

TEST(VirtualLTreeStoreTest, TracksLabelsAcrossRelabeling) {
  auto m = VirtualLTreeStore::Make(Params{.f = 4, .s = 2}).ValueOrDie();
  std::vector<ItemHandle> ids;
  ASSERT_TRUE(m->BulkLoad(8, &ids).ok());
  // Force splits; the handle -> label map must stay consistent.
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(m->InsertAfter(ids[3], 1000 + i).ok());
  }
  auto labels = m->Labels();
  EXPECT_TRUE(std::is_sorted(labels.begin(), labels.end()));
  // ids[3] and ids[4] must still be in relative order, with their cookies.
  EXPECT_LT(*m->GetLabel(ids[3]), *m->GetLabel(ids[4]));
  EXPECT_EQ(*m->GetCookie(ids[3]), 3u);
  EXPECT_TRUE(m->Validate().ok()) << m->Validate().ToString();
}

TEST(VirtualLTreeStoreTest, BatchMatchesMaterialized) {
  // The Section 4.1 batch path must produce identical labels on both
  // L-Tree variants.
  auto mat = MakeLabelStore("ltree:4:2").ValueOrDie();
  auto virt = MakeLabelStore("virtual:4:2").ValueOrDie();
  for (LabelStore* m : {mat.get(), virt.get()}) {
    std::vector<ItemHandle> ids;
    ASSERT_TRUE(m->BulkLoad(6, &ids).ok());
    const std::vector<LeafCookie> batch{20, 21, 22, 23};
    ASSERT_TRUE(m->InsertBatchAfter(ids[2], batch, nullptr).ok());
    EXPECT_EQ(m->stats().batch_inserts, 1u) << m->name();
  }
  EXPECT_EQ(mat->Labels(), virt->Labels());
}

TEST(VirtualLTreeStoreTest, DoubleEraseFailedPrecondition) {
  auto m = VirtualLTreeStore::Make(Params{.f = 4, .s = 2}).ValueOrDie();
  std::vector<ItemHandle> ids;
  ASSERT_TRUE(m->BulkLoad(4, &ids).ok());
  ASSERT_TRUE(m->Erase(ids[1]).ok());
  EXPECT_TRUE(m->Erase(ids[1]).IsFailedPrecondition());
  EXPECT_TRUE(m->GetLabel(ids[1]).status().IsNotFound());
  EXPECT_TRUE(m->Erase(12345).IsNotFound());
}

TEST(FactoryTest, BuildsEverySpec) {
  for (const char* spec :
       {"sequential", "gap:64", "bender", "bender:0.75", "ltree:16:4",
        "ltree:16:4:purge", "ltree:4096:2048", "virtual:8:2",
        "virtual:8:2:purge"}) {
    auto m = MakeLabelStore(spec);
    ASSERT_TRUE(m.ok()) << spec;
    ASSERT_TRUE((*m)->BulkLoad(4, nullptr).ok()) << spec;
    EXPECT_EQ((*m)->size(), 4u) << spec;
  }
}

TEST(FactoryTest, RejectsBadSpecs) {
  for (const char* spec :
       {"nope", "gap", "gap:1", "bender:0", "bender:1.5", "ltree:16",
        "ltree:5:2", "ltree:16:4:oops", "sequential:1",
        // A NaN density, an f whose f + 1 wraps to 0 in 32 bits, an f
        // whose child array cannot be allocated, an f beyond 32 bits,
        // trailing junk, and a gap beyond 64 bits.
        "bender:nan", "virtual:4294967295:3", "ltree:4294967294:2",
        "ltree:4294967312:4", "ltree:16x:4", "gap:64abc", "bender:0.5x",
        "gap:18446744073709551617"}) {
    EXPECT_TRUE(MakeLabelStore(spec).status().IsInvalidArgument()) << spec;
  }
}

// The RelabelListener must fire for exactly the live items whose labels
// change, on every scheme.
class CountingListener : public RelabelListener {
 public:
  void OnRelabel(LeafCookie cookie, Label old_label,
                 Label new_label) override {
    EXPECT_NE(old_label, new_label);
    ++events;
    if (erased.count(cookie) != 0) ++erased_reported;
  }
  uint64_t events = 0;
  std::set<LeafCookie> erased;
  uint64_t erased_reported = 0;
};

class ListenerTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ListenerTest, RelabelEventsMatchStats) {
  auto m = MakeLabelStore(GetParam()).ValueOrDie();
  CountingListener listener;
  m->set_listener(&listener);
  std::vector<ItemHandle> ids;
  ASSERT_TRUE(m->BulkLoad(16, &ids).ok());
  EXPECT_EQ(listener.events, 0u) << "bulk load must not fire the listener";
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(m->InsertAfter(ids[7], 100 + i).ok());
  }
  EXPECT_EQ(listener.events, m->stats().items_relabeled) << m->name();
}

TEST_P(ListenerTest, ErasedItemsAreNeverReported) {
  // Rebuilds move the L-Tree schemes' tombstones and count those relabels
  // in the stats, but no one outside the scheme can read a tombstone.
  auto m = MakeLabelStore(GetParam()).ValueOrDie();
  CountingListener listener;
  m->set_listener(&listener);
  std::vector<ItemHandle> ids;
  ASSERT_TRUE(m->BulkLoad(16, &ids).ok());  // cookies 0..15
  for (size_t i = 0; i < ids.size(); i += 2) {
    ASSERT_TRUE(m->Erase(ids[i]).ok());
    listener.erased.insert(i);
  }
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(m->InsertAfter(ids[7], 100 + i).ok());
  }
  EXPECT_EQ(listener.erased_reported, 0u) << m->name();
  EXPECT_LE(listener.events, m->stats().items_relabeled) << m->name();
}

INSTANTIATE_TEST_SUITE_P(Schemes, ListenerTest,
                         ::testing::Values("sequential", "gap:16", "bender",
                                           "ltree:4:2", "virtual:4:2"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == ':' || c == '.') c = '_';
                           }
                           return name;
                         });

// ---------------------------------------------------------------------------
// Seed-golden maintenance stats: the paper-fidelity gate for perf work.
// The expected numbers were captured from the seed (pre-arena) build over a
// fixed uniform insert stream; any optimization of the L-Tree hot path must
// keep them bit-identical, since the paper's cost accounting counts node
// accesses, not wall time.
// ---------------------------------------------------------------------------

struct GoldenSweep {
  const char* spec;
  uint64_t items_relabeled;
  uint64_t rebalances;
  uint32_t label_bits;
};

// Without a printer gtest prints the struct's raw bytes, and the spec
// pointer in them changes with ASLR; CTest names are built from this output.
void PrintTo(const GoldenSweep& c, std::ostream* os) { *os << c.spec; }

class GoldenSweepTest : public ::testing::TestWithParam<GoldenSweep> {};

TEST_P(GoldenSweepTest, UniformStreamStatsMatchSeed) {
  const GoldenSweep& want = GetParam();
  auto store = MakeLabelStore(want.spec).ValueOrDie();
  std::vector<ItemHandle> handles;
  ASSERT_TRUE(store->BulkLoad(500, &handles).ok());
  store->ResetStats();
  workload::UpdateStream stream(workload::StreamOptions{
      .kind = workload::StreamKind::kUniform, .seed = 77});
  for (uint64_t i = 0; i < 2000; ++i) {
    const auto op = stream.Next(handles.size());
    auto h = store->InsertAfter(handles[op.rank], 500 + i);
    ASSERT_TRUE(h.ok());
    handles.push_back(*h);
  }
  ASSERT_TRUE(store->Validate().ok()) << store->Validate().ToString();
  const MaintStats& st = store->stats();
  EXPECT_EQ(st.items_relabeled, want.items_relabeled) << store->name();
  EXPECT_EQ(st.rebalances, want.rebalances) << store->name();
  EXPECT_EQ(store->label_bits(), want.label_bits) << store->name();
  EXPECT_EQ(st.inserts, 2000u);
  // Plan/apply pipeline invariant: both L-Tree variants pay exactly one
  // relabel pass per insert, and single-leaf inserts never escalate.
  EXPECT_EQ(st.relabel_passes, 2000u) << store->name();
  EXPECT_EQ(st.coalesced_regions, 0u) << store->name();
  // Allocator-traffic accounting must balance: both L-Tree variants run
  // over pooled nodes (NodeArena for the materialized tree, the counted
  // B+-tree's pool for the virtual one), so both must report real nonzero
  // counters after a 2000-insert stream — the virtual store silently
  // reporting zeros was a bug this sweep pins against regressing.
  EXPECT_GT(st.nodes_allocated, 0u) << store->name();
  EXPECT_GT(st.nodes_reused, 0u) << store->name();
  EXPECT_GT(st.nodes_released, 0u) << store->name();
}

INSTANTIATE_TEST_SUITE_P(
    SeedGolden, GoldenSweepTest,
    ::testing::Values(
        GoldenSweep{"ltree:16:4", 13008, 60, 21},
        GoldenSweep{"virtual:16:4", 13008, 60, 21},
        GoldenSweep{"ltree:8:2:purge", 17065, 246, 20}),
    [](const auto& info) {
      std::string name = info.param.spec;
      for (char& c : name) {
        if (c == ':' || c == '.') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace listlab
}  // namespace ltree
