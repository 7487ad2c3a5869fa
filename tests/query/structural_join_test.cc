#include "query/structural_join.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"

namespace ltree {
namespace query {
namespace {

NodeRow Row(xml::NodeId id, Label start, Label end, int32_t level,
            const char* tag = "t") {
  NodeRow r;
  r.id = id;
  r.tag.append(tag);
  r.region = {start, end};
  r.level = level;
  return r;
}

using Rows = std::vector<const NodeRow*>;

/// A random forest of `size` regions, at most 8 levels deep, with tags
/// t0..t{tags-1}, in start order. Each node hangs under a uniformly chosen
/// earlier node (or starts a new tree); labels leave random gaps.
std::vector<NodeRow> RandomForest(Rng* rng, size_t size, uint32_t tags) {
  constexpr int32_t kMaxLevel = 7;
  std::vector<int32_t> level(size);
  std::vector<std::vector<size_t>> kids(size);
  std::vector<size_t> roots;
  for (size_t i = 0; i < size; ++i) {
    size_t p = i == 0 || rng->Uniform(16) == 0 ? size : rng->Uniform(i);
    while (p != size && level[p] == kMaxLevel) p = rng->Uniform(p + 1);
    if (p == size) {
      level[i] = 0;
      roots.push_back(i);
    } else {
      level[i] = level[p] + 1;
      kids[p].push_back(i);
    }
  }
  std::vector<NodeRow> rows;
  rows.reserve(size);
  Label next = 0;
  auto label = [&] { return next += 1 + rng->Uniform(3); };
  auto visit = [&](auto& self, size_t i) -> void {
    const size_t at = rows.size();
    rows.push_back(Row(static_cast<xml::NodeId>(i + 1), label(), 0, level[i],
                       "t0"));
    rows[at].tag.back() = static_cast<char>('0' + rng->Uniform(tags));
    for (const size_t k : kids[i]) self(self, k);
    rows[at].region.end = label();
  };
  for (const size_t r : roots) visit(visit, r);
  return rows;
}

/// Each row of `rows` with tag `tag` (any tag when empty), kept with
/// probability `keep`; start order is preserved.
Rows Pick(const std::vector<NodeRow>& rows, const std::string& tag,
          double keep, Rng* rng) {
  Rows out;
  for (const NodeRow& r : rows) {
    if ((tag.empty() || r.tag == tag) && rng->Bernoulli(keep)) {
      out.push_back(&r);
    }
  }
  return out;
}

/// The O(|A|·|D|) definition of both semi-joins.
Rows BruteForce(const Rows& ancestors, const Rows& descendants,
                bool child_only) {
  Rows out;
  for (const NodeRow* d : descendants) {
    for (const NodeRow* a : ancestors) {
      if (a->region.Contains(d->region) &&
          (!child_only || a->level + 1 == d->level)) {
        out.push_back(d);
        break;
      }
    }
  }
  return out;
}

void ExpectBothAxesMatch(const Rows& ancestors, const Rows& descendants,
                         const std::string& what) {
  EXPECT_EQ(DescendantsSemiJoin(ancestors, descendants),
            BruteForce(ancestors, descendants, false))
      << "descendant axis: " << what;
  EXPECT_EQ(ChildrenSemiJoin(ancestors, descendants),
            BruteForce(ancestors, descendants, true))
      << "child axis: " << what;
}

TEST(RegionTest, Containment) {
  Region outer{0, 100};
  Region inner{10, 20};
  EXPECT_TRUE(outer.Contains(inner));
  EXPECT_FALSE(inner.Contains(outer));
  EXPECT_FALSE(outer.Contains(outer)) << "containment is strict";
  EXPECT_FALSE(Region({0, 10}).Contains(Region({20, 30})));
}

TEST(StructuralJoinTest, PaperFigure1Example) {
  // book(0,7) -> chapter(1,4) -> title(2,3); book -> title(5,6).
  NodeRow book = Row(1, 0, 7, 0, "book");
  NodeRow chapter = Row(2, 1, 4, 1, "chapter");
  NodeRow t1 = Row(3, 2, 3, 2, "title");
  NodeRow t2 = Row(4, 5, 6, 1, "title");
  std::vector<const NodeRow*> books{&book};
  std::vector<const NodeRow*> titles{&t1, &t2};
  auto pairs = AncestorDescendantJoin(books, titles);
  ASSERT_EQ(pairs.size(), 2u) << "book//title matches both titles";
  EXPECT_EQ(pairs[0].second, &t1);
  EXPECT_EQ(pairs[1].second, &t2);

  // book/title (child axis) only matches the direct title.
  auto children = ParentChildJoin(books, titles);
  ASSERT_EQ(children.size(), 1u);
  EXPECT_EQ(children[0].second, &t2);
}

TEST(StructuralJoinTest, NestedAncestors) {
  NodeRow a1 = Row(1, 0, 100, 0);
  NodeRow a2 = Row(2, 10, 50, 1);
  NodeRow a3 = Row(3, 20, 30, 2);
  NodeRow d = Row(4, 24, 25, 3);
  std::vector<const NodeRow*> as{&a1, &a2, &a3};
  std::vector<const NodeRow*> ds{&d};
  auto pairs = AncestorDescendantJoin(as, ds);
  EXPECT_EQ(pairs.size(), 3u) << "d is under all three nested ancestors";
}

TEST(StructuralJoinTest, DisjointRegionsNoMatch) {
  NodeRow a = Row(1, 0, 10, 0);
  NodeRow d = Row(2, 20, 30, 0);
  auto pairs = AncestorDescendantJoin({&a}, {&d});
  EXPECT_TRUE(pairs.empty());
}

TEST(StructuralJoinTest, AncestorsRetiredByPosition) {
  // a1 ends before d2 starts; only a2 matches d2.
  NodeRow a1 = Row(1, 0, 10, 0);
  NodeRow a2 = Row(2, 15, 40, 0);
  NodeRow d1 = Row(3, 5, 6, 1);
  NodeRow d2 = Row(4, 20, 21, 1);
  auto pairs = AncestorDescendantJoin({&a1, &a2}, {&d1, &d2});
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_EQ(pairs[0].first, &a1);
  EXPECT_EQ(pairs[0].second, &d1);
  EXPECT_EQ(pairs[1].first, &a2);
  EXPECT_EQ(pairs[1].second, &d2);
}

TEST(StructuralJoinTest, SemiJoinDeduplicates) {
  NodeRow a1 = Row(1, 0, 100, 0);
  NodeRow a2 = Row(2, 10, 50, 1);
  NodeRow d = Row(3, 20, 21, 2);
  auto ds = DescendantsSemiJoin({&a1, &a2}, {&d});
  EXPECT_EQ(ds.size(), 1u) << "d reported once despite two ancestors";
}

TEST(StructuralJoinTest, EmptyInputs) {
  NodeRow a = Row(1, 0, 10, 0);
  EXPECT_TRUE(AncestorDescendantJoin({}, {&a}).empty());
  EXPECT_TRUE(AncestorDescendantJoin({&a}, {}).empty());
  EXPECT_TRUE(DescendantsSemiJoin({}, {}).empty());
}

TEST(StructuralJoinTest, ChildrenSemiJoinLevelFilter) {
  NodeRow p = Row(1, 0, 100, 3);
  NodeRow c_ok = Row(2, 10, 20, 4);
  NodeRow c_deep = Row(3, 12, 13, 5);
  auto out = ChildrenSemiJoin({&p}, {&c_ok, &c_deep});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], &c_ok);
}

TEST(StructuralJoinTest, SemiJoinMatchesBruteForce) {
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng(seed);
    const uint32_t tags = 1 + static_cast<uint32_t>(rng.Uniform(3));
    const std::vector<NodeRow> forest =
        RandomForest(&rng, 1 + rng.Uniform(300), tags);
    auto tag = [&] {
      // Empty (every tag) one time in four.
      std::string t;
      if (rng.Uniform(4) != 0) {
        t.append("t").append(std::to_string(rng.Uniform(tags)));
      }
      return t;
    };
    const double keep[] = {1.0, 0.5, 0.1};
    const Rows contexts = Pick(forest, tag(), keep[rng.Uniform(3)], &rng);
    const Rows candidates = rng.Uniform(4) == 0
                                ? contexts
                                : Pick(forest, tag(), keep[rng.Uniform(3)],
                                       &rng);
    std::string what = "seed ";
    what.append(std::to_string(seed));
    ExpectBothAxesMatch(contexts, candidates, what);
  }
}

TEST(StructuralJoinTest, OneContextContainsEveryCandidate) {
  // A root over 100 leaves: the run is found by galloping and copied in
  // bulk on the descendant axis.
  std::vector<NodeRow> rows{Row(1, 0, 1000, 0)};
  for (Label i = 0; i < 100; ++i) {
    rows.push_back(Row(i + 2, 1 + 2 * i, 2 + 2 * i, i % 3 == 0 ? 2 : 1));
  }
  Rows all;
  for (const NodeRow& r : rows) all.push_back(&r);
  const Rows root{all.front()};
  const Rows leaves(all.begin() + 1, all.end());
  EXPECT_EQ(DescendantsSemiJoin(root, leaves), leaves);
  ExpectBothAxesMatch(root, leaves, "root over 100 leaves");
  ExpectBothAxesMatch(all, all, "root over 100 leaves, same list");
}

TEST(StructuralJoinTest, CandidatesOnlyBeforeOrAfterContexts) {
  std::vector<NodeRow> before, after;
  for (Label i = 0; i < 40; ++i) {
    before.push_back(Row(i + 1, 2 * i, 2 * i + 1, 0));
    after.push_back(Row(i + 101, 1000 + 2 * i, 1001 + 2 * i, 0));
  }
  NodeRow c1 = Row(50, 100, 200, 0);
  NodeRow c2 = Row(51, 150, 160, 1);
  NodeRow c3 = Row(52, 300, 400, 0);
  const Rows contexts{&c1, &c2, &c3};
  Rows early, late;
  for (const NodeRow& r : before) early.push_back(&r);
  for (const NodeRow& r : after) late.push_back(&r);
  EXPECT_TRUE(DescendantsSemiJoin(contexts, early).empty());
  EXPECT_TRUE(ChildrenSemiJoin(contexts, early).empty());
  EXPECT_TRUE(DescendantsSemiJoin(contexts, late).empty());
  EXPECT_TRUE(ChildrenSemiJoin(contexts, late).empty());
}

TEST(StructuralJoinTest, ContextsWhoseRunsAreEmpty) {
  // Leaf contexts between candidates, and one context that contains only
  // other contexts: no run has an entry.
  NodeRow outer = Row(1, 0, 100, 0);
  NodeRow leaf1 = Row(2, 10, 11, 1);
  NodeRow cand1 = Row(3, 20, 21, 1);
  NodeRow leaf2 = Row(4, 30, 31, 1);
  NodeRow cand2 = Row(5, 40, 41, 1);
  NodeRow leaf3 = Row(6, 200, 201, 0);
  NodeRow cand3 = Row(7, 300, 301, 0);
  const Rows leaves{&leaf1, &leaf2, &leaf3};
  const Rows candidates{&cand1, &cand2, &cand3};
  EXPECT_TRUE(DescendantsSemiJoin(leaves, candidates).empty());
  EXPECT_TRUE(ChildrenSemiJoin(leaves, candidates).empty());
  const Rows nested_only{&outer, &leaf1, &leaf2};
  EXPECT_TRUE(DescendantsSemiJoin(nested_only, {&leaf3, &cand3}).empty());
  EXPECT_TRUE(ChildrenSemiJoin(nested_only, {&leaf3, &cand3}).empty());
}

TEST(StructuralJoinTest, NestedContextHoldsTheOnlyChildren) {
  // outer(0) > inner(1) > c1, c2 (2), and a grandchild of outer outside
  // inner: outer's run holds no child of outer, only inner's children.
  NodeRow outer = Row(1, 0, 100, 0);
  NodeRow inner = Row(2, 2, 20, 1);
  NodeRow c1 = Row(3, 3, 4, 2);
  NodeRow c2 = Row(4, 5, 6, 2);
  NodeRow other = Row(5, 30, 31, 2);
  const Rows contexts{&outer, &inner};
  const Rows candidates{&c1, &c2, &other};
  const Rows children{&c1, &c2};
  EXPECT_EQ(ChildrenSemiJoin(contexts, candidates), children);
  EXPECT_EQ(DescendantsSemiJoin(contexts, candidates), candidates);
}

}  // namespace
}  // namespace query
}  // namespace ltree
