// Basic behavioural tests of the materialized L-Tree: bulk loading
// (Section 2.2), labeling rule (Section 2.1) and single insertions with
// splits (Section 2.3 / Algorithm 1).

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "core/ltree.h"

namespace ltree {
namespace {

std::vector<LeafCookie> MakeCookies(size_t n) {
  std::vector<LeafCookie> cookies(n);
  std::iota(cookies.begin(), cookies.end(), 0);
  return cookies;
}

TEST(LTreeCreateTest, RejectsInvalidParams) {
  EXPECT_FALSE(LTree::Create(Params{.f = 5, .s = 2}).ok());
  EXPECT_TRUE(LTree::Create(Params{.f = 4, .s = 2}).ok());
}

TEST(LTreeCreateTest, EmptyTree) {
  auto tree = LTree::Create(Params{.f = 4, .s = 2}).ValueOrDie();
  EXPECT_EQ(tree->num_slots(), 0u);
  EXPECT_EQ(tree->num_live_leaves(), 0u);
  EXPECT_EQ(tree->height(), 1u);
  EXPECT_EQ(tree->FirstLeaf(), nullptr);
  EXPECT_TRUE(tree->Validate().ok()) << tree->Validate().ToString();
}

TEST(LTreeBulkLoadTest, PaperFigure2LabelAssignment) {
  // Figure 2(a): 8 tags bulk-loaded with f=4, s=2 -> complete binary tree of
  // height 3. With the Section 2.1 rule num(w) = num(v) + i*(f+1)^{h(w)},
  // the leaf labels are the base-5 encodings of leaf positions:
  // 0,1,5,6,25,26,30,31.
  auto tree = LTree::Create(Params{.f = 4, .s = 2}).ValueOrDie();
  auto cookies = MakeCookies(8);
  std::vector<LTree::LeafHandle> handles;
  ASSERT_TRUE(tree->BulkLoad(cookies, &handles).ok());
  ASSERT_EQ(handles.size(), 8u);
  EXPECT_EQ(tree->height(), 3u);
  std::vector<Label> expected{0, 1, 5, 6, 25, 26, 30, 31};
  EXPECT_EQ(tree->LiveLabels(), expected);
  EXPECT_TRUE(tree->Validate().ok()) << tree->Validate().ToString();
  EXPECT_EQ(tree->label_space(), 125u);
}

TEST(LTreeBulkLoadTest, SingleLeaf) {
  auto tree = LTree::Create(Params{.f = 4, .s = 2}).ValueOrDie();
  auto cookies = MakeCookies(1);
  ASSERT_TRUE(tree->BulkLoad(cookies).ok());
  EXPECT_EQ(tree->height(), 1u);
  EXPECT_EQ(tree->num_slots(), 1u);
  EXPECT_EQ(tree->LiveLabels(), std::vector<Label>{0});
  EXPECT_TRUE(tree->Validate().ok()) << tree->Validate().ToString();
}

TEST(LTreeBulkLoadTest, EmptyLoadIsNoop) {
  auto tree = LTree::Create(Params{.f = 4, .s = 2}).ValueOrDie();
  ASSERT_TRUE(tree->BulkLoad({}).ok());
  EXPECT_EQ(tree->num_slots(), 0u);
}

TEST(LTreeBulkLoadTest, SecondLoadRejected) {
  auto tree = LTree::Create(Params{.f = 4, .s = 2}).ValueOrDie();
  auto cookies = MakeCookies(4);
  ASSERT_TRUE(tree->BulkLoad(cookies).ok());
  EXPECT_TRUE(tree->BulkLoad(cookies).IsFailedPrecondition());
}

TEST(LTreeBulkLoadTest, NonPowerSizesKeepLeavesAtOneLevel) {
  for (size_t n : {2, 3, 5, 7, 9, 13, 100, 1000, 1023, 1025}) {
    auto tree = LTree::Create(Params{.f = 8, .s = 2}).ValueOrDie();
    auto cookies = MakeCookies(n);
    ASSERT_TRUE(tree->BulkLoad(cookies).ok()) << "n=" << n;
    EXPECT_EQ(tree->num_slots(), n);
    ASSERT_TRUE(tree->Validate().ok())
        << "n=" << n << ": " << tree->Validate().ToString();
    // Labels strictly increasing and cookie order preserved.
    auto labels = tree->LiveLabels();
    EXPECT_TRUE(std::is_sorted(labels.begin(), labels.end()));
    size_t i = 0;
    for (auto leaf = tree->FirstLeaf(); leaf != nullptr;
         leaf = tree->NextLeaf(leaf)) {
      EXPECT_EQ(tree->cookie(leaf), i++);
    }
  }
}

TEST(LTreeInsertTest, PaperFigure2cInsertWithoutSplit) {
  // Figure 2(b)->(c): inserting the begin tag "D" before "C" relabels the
  // right siblings within the height-1 node but does not split.
  auto tree = LTree::Create(Params{.f = 4, .s = 2}).ValueOrDie();
  auto cookies = MakeCookies(8);
  std::vector<LTree::LeafHandle> handles;
  ASSERT_TRUE(tree->BulkLoad(cookies, &handles).ok());
  // handles[2] is the leaf of tag "C" in the paper's running example.
  auto inserted = tree->InsertBefore(handles[2], 100);
  ASSERT_TRUE(inserted.ok());
  EXPECT_EQ(tree->stats().inserts, 1u);
  EXPECT_EQ(tree->stats().splits, 0u);
  EXPECT_EQ(tree->stats().root_splits, 0u);
  EXPECT_TRUE(tree->Validate().ok()) << tree->Validate().ToString();
  EXPECT_EQ(tree->num_slots(), 9u);
  // The new leaf lands between handles[1] and handles[2].
  EXPECT_GT(tree->label(*inserted), tree->label(handles[1]));
  EXPECT_LT(tree->label(*inserted), tree->label(handles[2]));
}

TEST(LTreeInsertTest, PaperFigure2dSecondInsertSplits) {
  // Figure 2(c)->(d): the second insertion into the same height-1 node
  // pushes it to lmax(1) = f = 4 leaves and splits it into s = 2 subtrees.
  auto tree = LTree::Create(Params{.f = 4, .s = 2}).ValueOrDie();
  auto cookies = MakeCookies(8);
  std::vector<LTree::LeafHandle> handles;
  ASSERT_TRUE(tree->BulkLoad(cookies, &handles).ok());
  auto first = tree->InsertBefore(handles[2], 100);
  ASSERT_TRUE(first.ok());
  auto second = tree->InsertAfter(*first, 101);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(tree->stats().splits, 1u);
  EXPECT_EQ(tree->stats().root_splits, 0u);
  EXPECT_TRUE(tree->Validate().ok()) << tree->Validate().ToString();
  // Order: handles[1] < first < second < handles[2].
  EXPECT_LT(tree->label(handles[1]), tree->label(*first));
  EXPECT_LT(tree->label(*first), tree->label(*second));
  EXPECT_LT(tree->label(*second), tree->label(handles[2]));
}

TEST(LTreeInsertTest, PushBackIntoEmptyTree) {
  auto tree = LTree::Create(Params{.f = 4, .s = 2}).ValueOrDie();
  auto h0 = tree->PushBack(7);
  ASSERT_TRUE(h0.ok());
  EXPECT_EQ(tree->label(*h0), 0u);
  auto h1 = tree->PushBack(8);
  ASSERT_TRUE(h1.ok());
  EXPECT_GT(tree->label(*h1), tree->label(*h0));
  EXPECT_TRUE(tree->Validate().ok()) << tree->Validate().ToString();
  EXPECT_EQ(tree->num_slots(), 2u);
}

TEST(LTreeInsertTest, PushFrontIntoEmptyAndNonEmpty) {
  auto tree = LTree::Create(Params{.f = 4, .s = 2}).ValueOrDie();
  auto h0 = tree->PushFront(1);
  ASSERT_TRUE(h0.ok());
  auto h1 = tree->PushFront(2);
  ASSERT_TRUE(h1.ok());
  EXPECT_LT(tree->label(*h1), tree->label(*h0));
  size_t count = 0;
  for (auto leaf = tree->FirstLeaf(); leaf != nullptr;
       leaf = tree->NextLeaf(leaf)) {
    ++count;
  }
  EXPECT_EQ(count, 2u);
}

TEST(LTreeInsertTest, RootSplitGrowsHeight) {
  // f=4, s=2: bulk 4 leaves -> height 2 (budget 8). Keep appending until the
  // root splits.
  auto tree = LTree::Create(Params{.f = 4, .s = 2}).ValueOrDie();
  auto cookies = MakeCookies(4);
  ASSERT_TRUE(tree->BulkLoad(cookies).ok());
  EXPECT_EQ(tree->height(), 2u);
  uint64_t cookie = 100;
  while (tree->stats().root_splits == 0) {
    ASSERT_TRUE(tree->PushBack(cookie++).ok());
    ASSERT_TRUE(tree->Validate().ok()) << tree->Validate().ToString();
    ASSERT_LT(cookie, 200u) << "root split never happened";
  }
  EXPECT_EQ(tree->height(), 3u);
  EXPECT_TRUE(tree->Validate().ok()) << tree->Validate().ToString();
}

TEST(LTreeInsertTest, OrderPreservedUnderManyAppends) {
  auto tree = LTree::Create(Params{.f = 8, .s = 2}).ValueOrDie();
  ASSERT_TRUE(tree->BulkLoad(MakeCookies(2)).ok());
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(tree->PushBack(static_cast<LeafCookie>(i + 10)).ok());
  }
  auto labels = tree->AllLabels();
  EXPECT_EQ(labels.size(), 502u);
  EXPECT_TRUE(std::is_sorted(labels.begin(), labels.end()));
  EXPECT_TRUE(tree->Validate().ok()) << tree->Validate().ToString();
}

TEST(LTreeDeleteTest, TombstoneDoesNotRelabel) {
  auto tree = LTree::Create(Params{.f = 4, .s = 2}).ValueOrDie();
  std::vector<LTree::LeafHandle> handles;
  ASSERT_TRUE(tree->BulkLoad(MakeCookies(8), &handles).ok());
  auto labels_before = tree->AllLabels();
  ASSERT_TRUE(tree->MarkDeleted(handles[3]).ok());
  EXPECT_EQ(tree->AllLabels(), labels_before);
  EXPECT_EQ(tree->num_slots(), 8u);
  EXPECT_EQ(tree->num_live_leaves(), 7u);
  EXPECT_TRUE(tree->deleted(handles[3]));
  EXPECT_EQ(tree->stats().deletes, 1u);
  EXPECT_EQ(tree->stats().leaves_relabeled, 0u);
  // Live iteration skips the tombstone.
  std::vector<LeafCookie> live;
  for (auto leaf = tree->FirstLiveLeaf(); leaf != nullptr;
       leaf = tree->NextLiveLeaf(leaf)) {
    live.push_back(tree->cookie(leaf));
  }
  EXPECT_EQ(live, (std::vector<LeafCookie>{0, 1, 2, 4, 5, 6, 7}));
}

TEST(LTreeDeleteTest, DoubleDeleteFails) {
  auto tree = LTree::Create(Params{.f = 4, .s = 2}).ValueOrDie();
  std::vector<LTree::LeafHandle> handles;
  ASSERT_TRUE(tree->BulkLoad(MakeCookies(4), &handles).ok());
  ASSERT_TRUE(tree->MarkDeleted(handles[0]).ok());
  EXPECT_TRUE(tree->MarkDeleted(handles[0]).IsFailedPrecondition());
}

TEST(LTreeLabelBitsTest, TracksHeight) {
  auto tree = LTree::Create(Params{.f = 4, .s = 2}).ValueOrDie();
  ASSERT_TRUE(tree->BulkLoad(MakeCookies(8)).ok());
  // label space 5^3 = 125 -> 7 bits
  EXPECT_EQ(tree->label_bits(), 7u);
}

class RecordingListener : public RelabelListener {
 public:
  void OnRelabel(LeafCookie cookie, Label old_label, Label new_label) override {
    events.push_back({cookie, old_label, new_label});
  }
  struct Event {
    LeafCookie cookie;
    Label old_label;
    Label new_label;
  };
  std::vector<Event> events;
};

TEST(LTreeListenerTest, FiredOnlyForChangedExistingLeaves) {
  auto tree = LTree::Create(Params{.f = 4, .s = 2}).ValueOrDie();
  std::vector<LTree::LeafHandle> handles;
  ASSERT_TRUE(tree->BulkLoad(MakeCookies(8), &handles).ok());
  RecordingListener listener;
  tree->set_listener(&listener);
  // Insert before the leaf with cookie 2: its sibling (cookie 3 shares the
  // height-1 parent) shifts.
  ASSERT_TRUE(tree->InsertBefore(handles[2], 99).ok());
  EXPECT_FALSE(listener.events.empty());
  for (const auto& e : listener.events) {
    EXPECT_NE(e.cookie, 99u) << "fresh leaf must not fire OnRelabel";
    EXPECT_NE(e.old_label, e.new_label);
  }
}

TEST(LTreeStatsTest, AmortizedCostAccounting) {
  auto tree = LTree::Create(Params{.f = 4, .s = 2}).ValueOrDie();
  ASSERT_TRUE(tree->BulkLoad(MakeCookies(8)).ok());
  EXPECT_EQ(tree->stats().NodeAccesses(), 0u) << "bulk load not counted";
  ASSERT_TRUE(tree->PushBack(50).ok());
  const auto& st = tree->stats();
  EXPECT_EQ(st.inserts, 1u);
  EXPECT_GT(st.ancestor_updates, 0u);
  EXPECT_GT(st.nodes_relabeled, 0u);
  EXPECT_GT(st.AmortizedCostPerInsert(), 0.0);
}

TEST(LTreeFindLeafByLabelTest, ResolvesEveryLeafArithmetically) {
  auto tree = LTree::Create(Params{.f = 4, .s = 2}).ValueOrDie();
  ASSERT_TRUE(tree->BulkLoad(MakeCookies(8)).ok());
  // Grow past one rebuild so labels are no longer the bulk-load pattern.
  auto mid = tree->FirstLeaf();
  for (int i = 0; i < 40; ++i) {
    mid = tree->InsertAfter(mid, 100 + i).ValueOrDie();
  }
  for (auto leaf = tree->FirstLeaf(); leaf != nullptr;
       leaf = tree->NextLeaf(leaf)) {
    EXPECT_EQ(tree->FindLeafByLabel(tree->label(leaf)), leaf);
  }
}

TEST(LTreeFindLeafByLabelTest, UnassignedLabelsResolveToNull) {
  auto tree = LTree::Create(Params{.f = 4, .s = 2}).ValueOrDie();
  ASSERT_TRUE(tree->BulkLoad(MakeCookies(8)).ok());
  std::vector<Label> assigned = tree->AllLabels();
  for (Label probe = 0; probe < tree->label_space() + 3; ++probe) {
    const bool taken =
        std::find(assigned.begin(), assigned.end(), probe) != assigned.end();
    const LTree::LeafHandle got = tree->FindLeafByLabel(probe);
    EXPECT_EQ(got != nullptr, taken) << "label " << probe;
    if (got != nullptr) {
      EXPECT_EQ(tree->label(got), probe);
    }
  }
}

TEST(LTreeFindLeafByLabelTest, TombstonedLeavesStillResolve) {
  auto tree = LTree::Create(Params{.f = 4, .s = 2}).ValueOrDie();
  ASSERT_TRUE(tree->BulkLoad(MakeCookies(8)).ok());
  auto leaf = tree->NextLeaf(tree->FirstLeaf());
  ASSERT_TRUE(tree->MarkDeleted(leaf).ok());
  EXPECT_EQ(tree->FindLeafByLabel(tree->label(leaf)), leaf);
}

TEST(LTreeDebugStringTest, MentionsShape) {
  auto tree = LTree::Create(Params{.f = 4, .s = 2}).ValueOrDie();
  ASSERT_TRUE(tree->BulkLoad(MakeCookies(4)).ok());
  std::string s = tree->DebugString();
  EXPECT_NE(s.find("height=2"), std::string::npos);
  EXPECT_NE(s.find("leaf num=0"), std::string::npos);
}

}  // namespace
}  // namespace ltree
