// Property tests of the materialized L-Tree, parameterized over (f, s):
//  * Proposition 1: document order == label order, always;
//  * Proposition 2: structural invariants after every operation;
//  * Proposition 3: a single-leaf insertion causes at most one split and
//    never escalates (no cascading);
//  * cookie sequence integrity under arbitrary op streams.

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "common/random.h"
#include "core/ltree.h"

namespace ltree {
namespace {

// gtest prints this parameter as its raw bytes, and CTest names are built
// from that output. The padding is spelled out and zeroed so the bytes, and
// with them the test names, are the same on every run.
struct PropertyCase {
  uint32_t f;
  uint32_t s;
  uint64_t initial;
  bool purge;
  uint8_t zero_pad[7] = {};
};

class LTreePropertyTest : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(LTreePropertyTest, RandomOpStreamKeepsAllInvariants) {
  const PropertyCase pc = GetParam();
  Params params{.f = pc.f, .s = pc.s, .purge_tombstones_on_split = pc.purge};
  auto tree = LTree::Create(params).ValueOrDie();
  std::vector<LeafCookie> cookies(pc.initial);
  std::iota(cookies.begin(), cookies.end(), 0);
  std::vector<LTree::LeafHandle> handles;
  ASSERT_TRUE(tree->BulkLoad(cookies, &handles).ok());

  // Reference sequence of cookies in document order.
  std::vector<LeafCookie> reference(cookies.begin(), cookies.end());

  Rng rng(pc.f * 7919 + pc.s * 131 + pc.initial);
  LeafCookie next_cookie = 1000000;
  for (int op = 0; op < 500; ++op) {
    const uint64_t dice = rng.Uniform(10);
    const size_t r = static_cast<size_t>(rng.Uniform(handles.size()));
    if (dice < 6) {
      auto h = tree->InsertAfter(handles[r], next_cookie);
      ASSERT_TRUE(h.ok());
      handles.insert(handles.begin() + static_cast<long>(r) + 1, *h);
      reference.insert(reference.begin() + static_cast<long>(r) + 1,
                       next_cookie);
      ++next_cookie;
    } else if (dice < 8) {
      auto h = tree->InsertBefore(handles[r], next_cookie);
      ASSERT_TRUE(h.ok());
      handles.insert(handles.begin() + static_cast<long>(r), *h);
      reference.insert(reference.begin() + static_cast<long>(r),
                       next_cookie);
      ++next_cookie;
    } else if (!pc.purge) {
      // Tombstone (skip when purging: handles would die inside splits).
      if (!tree->deleted(handles[r])) {
        ASSERT_TRUE(tree->MarkDeleted(handles[r]).ok());
      }
    }

    ASSERT_TRUE(tree->Validate().ok())
        << "op " << op << " params f=" << pc.f << " s=" << pc.s << ": "
        << tree->Validate().ToString();
  }

  if (!pc.purge) {
    // Proposition 1 via the reference: iterate leaves, compare cookies.
    std::vector<LeafCookie> seen;
    for (auto leaf = tree->FirstLeaf(); leaf != nullptr;
         leaf = tree->NextLeaf(leaf)) {
      seen.push_back(tree->cookie(leaf));
    }
    EXPECT_EQ(seen, reference);
    EXPECT_EQ(tree->num_slots(), reference.size());
  }
  // Labels strictly increasing in all cases.
  auto labels = tree->AllLabels();
  for (size_t i = 1; i < labels.size(); ++i) {
    ASSERT_LT(labels[i - 1], labels[i]);
  }
}

TEST_P(LTreePropertyTest, SingleInsertNeverCascades) {
  const PropertyCase pc = GetParam();
  Params params{.f = pc.f, .s = pc.s, .purge_tombstones_on_split = pc.purge};
  auto tree = LTree::Create(params).ValueOrDie();
  std::vector<LeafCookie> cookies(pc.initial);
  std::iota(cookies.begin(), cookies.end(), 0);
  std::vector<LTree::LeafHandle> handles;
  ASSERT_TRUE(tree->BulkLoad(cookies, &handles).ok());

  Rng rng(pc.f + pc.s + 1);
  uint64_t prev_splits = 0;
  uint64_t prev_roots = 0;
  for (int op = 0; op < 800; ++op) {
    const size_t r = static_cast<size_t>(rng.Uniform(handles.size()));
    auto h = tree->InsertAfter(handles[r], 5000 + op);
    ASSERT_TRUE(h.ok());
    handles.push_back(*h);
    const auto& st = tree->stats();
    // Proposition 3: at most one structural event per single insert, and
    // no fanout escalation ever.
    const uint64_t events =
        (st.splits - prev_splits) + (st.root_splits - prev_roots);
    ASSERT_LE(events, 1u) << "op " << op;
    ASSERT_EQ(st.escalations, 0u) << "op " << op;
    prev_splits = st.splits;
    prev_roots = st.root_splits;
  }
}

TEST_P(LTreePropertyTest, LabelDigitsEncodeAncestors) {
  // Section 4.2's premise: the base-(f+1) digits of every leaf label equal
  // the child indices along its root path.
  const PropertyCase pc = GetParam();
  Params params{.f = pc.f, .s = pc.s};
  auto tree = LTree::Create(params).ValueOrDie();
  std::vector<LeafCookie> cookies(pc.initial);
  std::iota(cookies.begin(), cookies.end(), 0);
  std::vector<LTree::LeafHandle> handles;
  ASSERT_TRUE(tree->BulkLoad(cookies, &handles).ok());
  Rng rng(3);
  for (int op = 0; op < 200; ++op) {
    const size_t r = static_cast<size_t>(rng.Uniform(handles.size()));
    auto h = tree->InsertAfter(handles[r], 9000 + op);
    ASSERT_TRUE(h.ok());
    handles.push_back(*h);
  }
  const uint64_t base = params.f + 1;
  for (auto leaf = tree->FirstLeaf(); leaf != nullptr;
       leaf = tree->NextLeaf(leaf)) {
    Label label = tree->label(leaf);
    const Node* node = leaf;
    uint32_t h = 0;
    while (node->parent != nullptr) {
      uint64_t pow = 1;
      for (uint32_t i = 0; i < h; ++i) pow *= base;
      ASSERT_EQ((label / pow) % base, node->index_in_parent)
          << "digit at height " << h;
      node = node->parent;
      ++h;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ParamGrid, LTreePropertyTest,
    ::testing::Values(PropertyCase{4, 2, 8, false},
                      PropertyCase{4, 2, 8, true},
                      PropertyCase{6, 2, 100, false},
                      PropertyCase{8, 4, 64, false},
                      PropertyCase{12, 3, 1, false},
                      PropertyCase{16, 4, 1000, false},
                      PropertyCase{16, 4, 1000, true},
                      PropertyCase{32, 2, 500, false},
                      PropertyCase{64, 8, 37, false}),
    [](const auto& info) {
      std::string name = "f";
      name += std::to_string(info.param.f);
      name += 's';
      name += std::to_string(info.param.s);
      name += 'n';
      name += std::to_string(info.param.initial);
      if (info.param.purge) name += "purge";
      return name;
    });

}  // namespace
}  // namespace ltree
