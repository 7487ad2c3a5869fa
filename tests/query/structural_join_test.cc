#include "query/structural_join.h"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace query
}  // namespace ltree
