#include "query/node_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/random.h"
#include "query/path_query.h"

namespace ltree {
namespace query {

// Reaches into the indexes to seed the corruptions Validate() must report.
class NodeTableTestPeer {
 public:
  static std::vector<NodeTable::Slot>& TagIndex(NodeTable* t,
                                                const std::string& tag) {
    return t->tag_index_[t->tag_ids_.at(tag)];
  }
  static NodeTable::Key& KeyOf(NodeTable* t, xml::NodeId id) {
    return t->keys_[t->slot_of_id_[id]];
  }
  static void ForgetId(NodeTable* t, xml::NodeId id) {
    t->slot_of_id_[id] = NodeTable::kNoSlot;
  }
  static void DropChildList(NodeTable* t, xml::NodeId parent) {
    t->first_child_[parent] = NodeTable::kNoSlot;
  }
};

namespace {

NodeRow Row(xml::NodeId id, const char* tag, Label start, Label end,
            int32_t level = 0, xml::NodeId parent = 0) {
  NodeRow r;
  r.id = id;
  r.tag.append(tag);
  r.region = {start, end};
  r.level = level;
  r.parent_id = parent;
  return r;
}

TEST(NodeTableTest, AddFinalizeQuery) {
  NodeTable t;
  t.Add(Row(1, "a", 0, 9));
  t.Add(Row(2, "b", 1, 4, 1, 1));
  t.Add(Row(3, "b", 5, 8, 1, 1));
  ASSERT_TRUE(t.Finalize().ok());
  EXPECT_EQ(t.size(), 3u);
  auto bs = t.ByTag("b");
  ASSERT_EQ(bs.size(), 2u);
  EXPECT_EQ(bs[0]->id, 2u);
  EXPECT_EQ(bs[1]->id, 3u);
  EXPECT_TRUE(t.ByTag("zzz").empty());
  EXPECT_EQ(t.AllElements().size(), 3u);
  EXPECT_EQ(t.ChildrenOf(1).size(), 2u);
  EXPECT_TRUE(t.Validate().ok()) << t.Validate().ToString();
}

TEST(NodeTableTest, FinalizeRejectsBadRegions) {
  NodeTable t;
  t.Add(Row(1, "a", 5, 5));
  EXPECT_FALSE(t.Finalize().ok());
}

TEST(NodeTableTest, FinalizeRejectsDuplicateIds) {
  NodeTable t;
  t.Add(Row(1, "a", 0, 9));
  t.Add(Row(1, "b", 1, 2));
  EXPECT_TRUE(t.Finalize().IsAlreadyExists());
}

TEST(NodeTableTest, DoubleFinalizeRejected) {
  NodeTable t;
  t.Add(Row(1, "a", 0, 9));
  ASSERT_TRUE(t.Finalize().ok());
  EXPECT_TRUE(t.Finalize().IsFailedPrecondition());
}

TEST(NodeTableTest, UpdateLabelsInPlace) {
  NodeTable t;
  t.Add(Row(1, "a", 0, 9));
  t.Add(Row(2, "a", 2, 3, 1, 1));
  ASSERT_TRUE(t.Finalize().ok());
  ASSERT_TRUE(t.UpdateStart(2, 4).ok());
  ASSERT_TRUE(t.UpdateEnd(2, 6).ok());
  EXPECT_EQ((*t.Find(2))->region, (Region{4, 6}));
  // Order-preserving update keeps the index sorted.
  EXPECT_TRUE(t.Validate().ok()) << t.Validate().ToString();
  EXPECT_TRUE(t.UpdateStart(99, 1).IsNotFound());
}

TEST(NodeTableTest, InsertAfterFinalizeKeepsOrder) {
  NodeTable t;
  t.Add(Row(1, "a", 0, 99));
  t.Add(Row(2, "b", 10, 19, 1, 1));
  t.Add(Row(3, "b", 30, 39, 1, 1));
  ASSERT_TRUE(t.Finalize().ok());
  ASSERT_TRUE(t.Insert(Row(4, "b", 20, 29, 1, 1)).ok());
  auto bs = t.ByTag("b");
  ASSERT_EQ(bs.size(), 3u);
  EXPECT_EQ(bs[0]->id, 2u);
  EXPECT_EQ(bs[1]->id, 4u);
  EXPECT_EQ(bs[2]->id, 3u);
  EXPECT_TRUE(t.Validate().ok()) << t.Validate().ToString();
}

TEST(NodeTableTest, EraseRemovesFromAllIndexes) {
  NodeTable t;
  t.Add(Row(1, "a", 0, 99));
  t.Add(Row(2, "b", 10, 19, 1, 1));
  ASSERT_TRUE(t.Finalize().ok());
  ASSERT_TRUE(t.Erase(2).ok());
  EXPECT_EQ(t.size(), 1u);
  EXPECT_TRUE(t.ByTag("b").empty());
  EXPECT_TRUE(t.ChildrenOf(1).empty());
  EXPECT_TRUE(t.Find(2).status().IsNotFound());
  EXPECT_TRUE(t.Erase(2).IsNotFound());
}

TEST(NodeTableTest, TextRowsExcludedFromElementViews) {
  NodeTable t;
  t.Add(Row(1, "a", 0, 9));
  NodeRow text = Row(2, "", 1, 2, 1, 1);
  text.is_text = true;
  t.Add(text);
  ASSERT_TRUE(t.Finalize().ok());
  EXPECT_EQ(t.AllElements().size(), 1u);
}

std::vector<xml::NodeId> Ids(const std::vector<const NodeRow*>& rows) {
  std::vector<xml::NodeId> ids;
  for (const NodeRow* row : rows) ids.push_back(row->id);
  return ids;
}

std::vector<xml::NodeId> SortedIds(const std::vector<const NodeRow*>& rows) {
  std::vector<xml::NodeId> ids = Ids(rows);
  std::sort(ids.begin(), ids.end());
  return ids;
}

// <a><a><a/></a></a>: one tag index whose starts increase while its ends
// decrease.
TEST(NodeTableTest, NestedRowsWithTheSameTag) {
  NodeTable t;
  t.Add(Row(3, "a", 20, 30, 2, 2));
  t.Add(Row(1, "a", 0, 99));
  t.Add(Row(2, "a", 10, 50, 1, 1));
  ASSERT_TRUE(t.Finalize().ok());
  EXPECT_EQ(Ids(t.ByTag("a")), (std::vector<xml::NodeId>{1, 2, 3}));
  EXPECT_TRUE(t.Validate().ok()) << t.Validate().ToString();
  auto ids = [&](const char* path) {
    return Ids(EvaluateWithLabels(PathQuery::Parse(path).ValueOrDie(), t));
  };
  EXPECT_EQ(ids("//a//a"), (std::vector<xml::NodeId>{2, 3}));
  EXPECT_EQ(ids("//a/a"), (std::vector<xml::NodeId>{2, 3}));
  EXPECT_EQ(ids("/a/a/a"), (std::vector<xml::NodeId>{3}));
  ASSERT_TRUE(t.Erase(2).ok());
  EXPECT_EQ(Ids(t.ByTag("a")), (std::vector<xml::NodeId>{1, 3}));
  EXPECT_EQ(ids("//a//a"), (std::vector<xml::NodeId>{3}));
  EXPECT_TRUE(ids("//a/a").empty()) << "3's parent is gone";
  EXPECT_TRUE(t.Validate().ok()) << t.Validate().ToString();
}

TEST(NodeTableTest, InsertAndEraseAtHeadMiddleAndTail) {
  NodeTable t;
  t.Add(Row(1, "r", 0, 1000));
  t.Add(Row(2, "b", 100, 110, 1, 1));
  t.Add(Row(3, "b", 200, 210, 1, 1));
  ASSERT_TRUE(t.Finalize().ok());
  ASSERT_TRUE(t.Insert(Row(4, "b", 50, 60, 1, 1)).ok());    // head
  ASSERT_TRUE(t.Insert(Row(5, "b", 150, 160, 1, 1)).ok());  // middle
  ASSERT_TRUE(t.Insert(Row(6, "b", 300, 310, 1, 1)).ok());  // tail
  EXPECT_EQ(Ids(t.ByTag("b")), (std::vector<xml::NodeId>{4, 2, 5, 3, 6}));
  EXPECT_TRUE(t.Validate().ok()) << t.Validate().ToString();
  ASSERT_TRUE(t.Erase(4).ok());  // head
  EXPECT_EQ(Ids(t.ByTag("b")), (std::vector<xml::NodeId>{2, 5, 3, 6}));
  ASSERT_TRUE(t.Erase(5).ok());  // middle
  EXPECT_EQ(Ids(t.ByTag("b")), (std::vector<xml::NodeId>{2, 3, 6}));
  ASSERT_TRUE(t.Erase(6).ok());  // tail
  EXPECT_EQ(Ids(t.ByTag("b")), (std::vector<xml::NodeId>{2, 3}));
  EXPECT_EQ(t.size(), 3u);
  EXPECT_TRUE(t.Validate().ok()) << t.Validate().ToString();
}

TEST(NodeTableTest, EraseAfterRelabelMovedTheLabels) {
  NodeTable t;
  t.Add(Row(1, "r", 0, 1000));
  t.Add(Row(2, "b", 100, 110, 1, 1));
  t.Add(Row(3, "b", 200, 210, 1, 1));
  t.Add(Row(4, "b", 300, 310, 1, 1));
  ASSERT_TRUE(t.Finalize().ok());
  // An order-preserving relabel of every row, as a rebuild pass makes.
  for (xml::NodeId id = 1; id <= 4; ++id) {
    const Region old = (*t.Find(id))->region;
    ASSERT_TRUE(t.UpdateEnd(id, old.end * 3 + 7).ok());
    ASSERT_TRUE(t.UpdateStart(id, old.start * 3 + 1).ok());
  }
  EXPECT_EQ((*t.Find(3))->region, (Region{601, 637}));
  ASSERT_TRUE(t.Erase(3).ok()) << "found by its new start label";
  EXPECT_EQ(Ids(t.ByTag("b")), (std::vector<xml::NodeId>{2, 4}));
  EXPECT_TRUE(t.Validate().ok()) << t.Validate().ToString();
}

TEST(NodeTableTest, EraseThenReinsertReusesTheSlot) {
  NodeTable t;
  t.Add(Row(1, "r", 0, 1000));
  t.Add(Row(2, "b", 100, 110, 1, 1));
  t.Add(Row(3, "c", 200, 210, 1, 1));
  ASSERT_TRUE(t.Finalize().ok());
  const NodeRow* old = *t.Find(2);
  ASSERT_TRUE(t.Erase(2).ok());
  ASSERT_TRUE(t.Insert(Row(7, "c", 300, 310, 1, 3)).ok());
  const NodeRow* fresh = *t.Find(7);
  EXPECT_EQ(fresh, old) << "the freed slot is reused";
  EXPECT_EQ(fresh->tag, "c");
  EXPECT_EQ(fresh->region, (Region{300, 310}));
  EXPECT_EQ(fresh->parent_id, 3u);
  EXPECT_TRUE(t.Find(2).status().IsNotFound());
  EXPECT_TRUE(t.ByTag("b").empty());
  EXPECT_EQ(Ids(t.ByTag("c")), (std::vector<xml::NodeId>{3, 7}));
  EXPECT_EQ(Ids(t.ChildrenOf(1)), (std::vector<xml::NodeId>{3}));
  EXPECT_EQ(Ids(t.ChildrenOf(3)), (std::vector<xml::NodeId>{7}));
  EXPECT_EQ(t.size(), 3u);
  EXPECT_TRUE(t.Validate().ok()) << t.Validate().ToString();
}

TEST(NodeTableTest, ChildrenOfAfterErasingAMiddleChild) {
  NodeTable t;
  t.Add(Row(1, "r", 0, 1000));
  for (xml::NodeId id = 2; id <= 5; ++id) {
    t.Add(Row(id, "b", id * 100, id * 100 + 10, 1, 1));
  }
  ASSERT_TRUE(t.Finalize().ok());
  ASSERT_TRUE(t.Erase(3).ok());
  EXPECT_EQ(SortedIds(t.ChildrenOf(1)), (std::vector<xml::NodeId>{2, 4, 5}));
  ASSERT_TRUE(t.Erase(2).ok());
  ASSERT_TRUE(t.Erase(5).ok());
  EXPECT_EQ(SortedIds(t.ChildrenOf(1)), (std::vector<xml::NodeId>{4}));
  EXPECT_TRUE(t.Validate().ok()) << t.Validate().ToString();
}

// Random inserts, erases and order-preserving relabels, checked after every
// step against a plain vector of rows.
TEST(NodeTableTest, RandomOpsMatchAVectorOracle) {
  const char* const kTags[] = {"a", "b", "c"};
  const Label kSpacing = 1 << 20;
  Rng rng(20240917);
  NodeTable t;
  std::vector<NodeRow> oracle;
  xml::NodeId next_id = 1;
  auto fresh_row = [&](Label start) {
    NodeRow r = Row(next_id++, kTags[rng.Uniform(3)], start, start + 1,
                    static_cast<int32_t>(rng.Uniform(4)));
    if (!oracle.empty() && rng.Uniform(4) != 0) {
      r.parent_id = oracle[rng.Uniform(oracle.size())].id;
    }
    if (rng.Uniform(8) == 0) {
      r.tag.clear();
      r.is_text = true;
    }
    return r;
  };
  for (int i = 0; i < 40; ++i) {
    NodeRow r = fresh_row(static_cast<Label>(i + 1) * kSpacing);
    oracle.push_back(r);
    t.Add(r);
  }
  ASSERT_TRUE(t.Finalize().ok());

  auto by_start = [](const NodeRow& a, const NodeRow& b) {
    return a.region.start < b.region.start;
  };
  auto check = [&](int op) {
    std::sort(oracle.begin(), oracle.end(), by_start);
    ASSERT_EQ(t.size(), oracle.size()) << "op " << op;
    std::vector<xml::NodeId> all;
    std::map<std::string, std::vector<xml::NodeId>> tagged;
    std::map<xml::NodeId, std::vector<xml::NodeId>> children;
    for (const NodeRow& r : oracle) {
      if (!r.is_text) {
        all.push_back(r.id);
        tagged[r.tag].push_back(r.id);
      }
      if (r.parent_id != 0) children[r.parent_id].push_back(r.id);
      auto found = t.Find(r.id);
      ASSERT_TRUE(found.ok()) << "op " << op;
      EXPECT_EQ((*found)->region, r.region) << "op " << op;
      EXPECT_EQ((*found)->tag, r.tag) << "op " << op;
      EXPECT_EQ((*found)->level, r.level) << "op " << op;
      EXPECT_EQ((*found)->parent_id, r.parent_id) << "op " << op;
    }
    ASSERT_EQ(Ids(t.AllElements()), all) << "op " << op;
    for (const char* tag : kTags) {
      ASSERT_EQ(Ids(t.ByTag(tag)), tagged[tag]) << tag << " op " << op;
    }
    for (auto& [parent, kids] : children) {
      std::sort(kids.begin(), kids.end());
      ASSERT_EQ(SortedIds(t.ChildrenOf(parent)), kids) << "op " << op;
    }
    ASSERT_TRUE(t.Validate().ok())
        << "op " << op << ": " << t.Validate().ToString();
  };
  check(-1);

  for (int op = 0; op < 600; ++op) {
    std::sort(oracle.begin(), oracle.end(), by_start);
    const uint64_t dice = rng.Uniform(10);
    if (dice < 4 || oracle.size() < 4) {
      // Insert at a random gap of the start order.
      const size_t gap = rng.Uniform(oracle.size() + 1);
      const Label lo = gap == 0 ? 0 : oracle[gap - 1].region.start;
      const Label hi = gap == oracle.size() ? lo + 2 * kSpacing
                                            : oracle[gap].region.start;
      if (hi - lo < 2) continue;
      NodeRow r = fresh_row(lo + 1 + rng.Uniform(hi - lo - 1));
      ASSERT_TRUE(t.Insert(r).ok()) << "op " << op;
      oracle.push_back(r);
    } else if (dice < 7) {
      const size_t victim = rng.Uniform(oracle.size());
      const xml::NodeId id = oracle[victim].id;
      ASSERT_TRUE(t.Erase(id).ok()) << "op " << op;
      oracle.erase(oracle.begin() + static_cast<long>(victim));
      // Orphans keep their parent_id, as the table does.
      EXPECT_TRUE(t.Find(id).status().IsNotFound());
    } else {
      // Move one row's start within its gap, keeping the order.
      const size_t i = rng.Uniform(oracle.size());
      const Label lo = i == 0 ? 0 : oracle[i - 1].region.start;
      const Label hi = i + 1 == oracle.size() ? lo + 2 * kSpacing
                                              : oracle[i + 1].region.start;
      if (hi - lo < 2) continue;
      const Label start = lo + 1 + rng.Uniform(hi - lo - 1);
      NodeRow& r = oracle[i];
      r.region = {start, start + 1};
      ASSERT_TRUE(t.UpdateEnd(r.id, r.region.end).ok());
      ASSERT_TRUE(t.UpdateStart(r.id, r.region.start).ok());
    }
    check(op);
  }
}

// ------------------------------------------------------------------ audit

NodeTable AuditFixture() {
  NodeTable t;
  t.Add(Row(1, "r", 0, 1000));
  t.Add(Row(2, "b", 100, 110, 1, 1));
  t.Add(Row(3, "b", 200, 210, 1, 1));
  t.Add(Row(4, "b", 300, 310, 1, 1));
  LTREE_CHECK_OK(t.Finalize());
  audit::AbortIfCorrupt(t.Validate(), "NodeTable", "AuditFixture");
  return t;
}

audit::Report AuditOf(const NodeTable& t) {
  audit::Report report = t.Validate();
  EXPECT_FALSE(report.ok());
  return report;
}

TEST(NodeTableAuditTest, RowKeyRule) {
  NodeTable t = AuditFixture();
  NodeTableTestPeer::KeyOf(&t, 3).level = 7;
  EXPECT_TRUE(AuditOf(t).HasRule("row-key"));
}

TEST(NodeTableAuditTest, TagIndexMembershipRule) {
  NodeTable t = AuditFixture();
  auto& index = NodeTableTestPeer::TagIndex(&t, "b");
  index.erase(index.begin() + 1);
  const audit::Report report = AuditOf(t);
  EXPECT_TRUE(report.HasRule("tag-index-membership"));
  EXPECT_FALSE(report.HasRule("tag-index-order"));
}

TEST(NodeTableAuditTest, TagIndexOrderRule) {
  NodeTable t = AuditFixture();
  auto& index = NodeTableTestPeer::TagIndex(&t, "b");
  std::swap(index[0], index[2]);
  const audit::Report report = AuditOf(t);
  EXPECT_TRUE(report.HasRule("tag-index-order"));
  EXPECT_FALSE(report.HasRule("tag-index-membership"));
}

TEST(NodeTableAuditTest, IdMapRule) {
  NodeTable t = AuditFixture();
  NodeTableTestPeer::ForgetId(&t, 3);
  EXPECT_TRUE(AuditOf(t).HasRule("id-map"));
}

TEST(NodeTableAuditTest, ParentIndexRule) {
  NodeTable t = AuditFixture();
  NodeTableTestPeer::DropChildList(&t, 1);
  EXPECT_TRUE(AuditOf(t).HasRule("parent-index"));
}

}  // namespace
}  // namespace query
}  // namespace ltree
