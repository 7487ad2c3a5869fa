// Negative tests for the unified invariant auditor (core/validate.h).
//
// The positive direction — auditors stay clean across every scheme and
// workload — is covered implicitly by the whole suite (and explicitly by
// the LISTLAB_VALIDATE preset, which re-audits after every mutation). What
// nothing else covers is the other direction: a corrupted structure MUST
// be reported, with the right rule slug and a usable path. Each test here
// seeds one deliberate corruption and asserts the auditor names it.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <numeric>
#include <utility>
#include <vector>

#include "core/ltree.h"
#include "core/node.h"
#include "core/validate.h"
#include "listlab/factory.h"

namespace ltree {
namespace {

std::vector<LeafCookie> MakeCookies(uint64_t n) {
  std::vector<LeafCookie> cookies(n);
  std::iota(cookies.begin(), cookies.end(), 0);
  return cookies;
}

std::unique_ptr<LTree> MakeTree(uint64_t leaves) {
  auto tree = LTree::Create(Params{.f = 4, .s = 2}).ValueOrDie();
  EXPECT_TRUE(tree->BulkLoad(MakeCookies(leaves)).ok());
  return tree;
}

// ---------------------------------------------------------------------------
// Report mechanics
// ---------------------------------------------------------------------------

TEST(ReportTest, EmptyReportIsOk) {
  audit::Report report;
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.total(), 0u);
  EXPECT_TRUE(report.ToStatus().ok());
  EXPECT_EQ(report.ToString(), "ok");
}

TEST(ReportTest, ToStatusCarriesFirstViolationAndCount) {
  audit::Report report;
  report.Add("t:/0", "rule-a", "first");
  report.Add("t:/1", "rule-b", "second");
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.HasRule("rule-a"));
  EXPECT_TRUE(report.HasRule("rule-b"));
  EXPECT_FALSE(report.HasRule("rule-c"));
  const Status status = report.ToStatus();
  EXPECT_TRUE(status.IsCorruption());
  EXPECT_NE(status.message().find("rule-a"), std::string::npos);
  EXPECT_NE(status.message().find("t:/0"), std::string::npos);
  EXPECT_NE(status.message().find("+1 more"), std::string::npos);
}

TEST(ReportTest, CapsViolationsAndCountsDropped) {
  audit::Report report;
  for (int i = 0; i < 100; ++i) {
    report.Add("t:/", "flood", "violation");
  }
  EXPECT_EQ(report.violations().size(), 64u);
  EXPECT_EQ(report.total(), 100u);
  EXPECT_NE(report.ToString().find("36 more"), std::string::npos);
}

TEST(ReportTest, AbsorbPrefixesPaths) {
  audit::Report inner;
  inner.Add("/leaf", "inner-rule", "nested");
  audit::Report outer;
  outer.Absorb(inner, "store:");
  ASSERT_EQ(outer.total(), 1u);
  EXPECT_EQ(outer.violations()[0].path, "store:/leaf");
  EXPECT_TRUE(outer.HasRule("inner-rule"));
}

// ---------------------------------------------------------------------------
// Seeded corruptions: the auditor must name each one
// ---------------------------------------------------------------------------

TEST(LTreeAuditTest, CleanTreeHasNoViolations) {
  auto tree = MakeTree(300);
  const audit::Report report = tree->Validate();
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(LTreeAuditTest, DetectsSwappedLeafLabels) {
  auto tree = MakeTree(300);
  Node* first = tree->FirstLeaf();
  Node* second = tree->NextLeaf(first);
  ASSERT_NE(second, nullptr);
  std::swap(first->num, second->num);

  const audit::Report report = tree->Validate();
  EXPECT_TRUE(report.HasRule("label-order")) << report.ToString();
  // The swap also breaks the num(w) identity — both slugs must surface.
  EXPECT_TRUE(report.HasRule("label-identity")) << report.ToString();
}

TEST(LTreeAuditTest, DetectsOffByOneLeafLabel) {
  auto tree = MakeTree(300);
  Node* leaf = tree->FirstLeaf();
  for (int i = 0; i < 3; ++i) leaf = tree->NextLeaf(leaf);
  const Label saved = leaf->num;
  leaf->num = saved + 1;  // violates num(w) = num(v) + i*(f+1)^h

  const audit::Report report = tree->Validate();
  EXPECT_TRUE(report.HasRule("label-identity")) << report.ToString();
  leaf->num = saved;
  EXPECT_TRUE(tree->Validate().ok()) << tree->Validate().ToString();
}

TEST(LTreeAuditTest, DetectsLeafBudgetOverflow) {
  auto tree = MakeTree(300);
  // Proposition 2: l(t) < lmax(t). Inflate the root's count to its budget.
  Node* root = const_cast<Node*>(tree->root());
  const uint64_t saved = root->leaf_count;
  root->leaf_count = tree->powers().LeafBudget(root->height);

  const audit::Report report = tree->Validate();
  EXPECT_TRUE(report.HasRule("leaf-budget")) << report.ToString();
  root->leaf_count = saved;
  EXPECT_TRUE(tree->Validate().ok()) << tree->Validate().ToString();
}

TEST(LTreeAuditTest, DetectsBrokenParentLink) {
  auto tree = MakeTree(300);
  Node* leaf = tree->FirstLeaf();
  for (int i = 0; i < 10; ++i) leaf = tree->NextLeaf(leaf);
  Node* const saved = leaf->parent;
  leaf->parent = leaf;  // point anywhere but the real parent

  const audit::Report report = tree->Validate();
  EXPECT_TRUE(report.HasRule("parent-link")) << report.ToString();
  leaf->parent = saved;  // restore so teardown walks a sane tree
}

TEST(LTreeAuditTest, DetectsWrongSubtreeLeafCount) {
  auto tree = MakeTree(300);
  Node* root = const_cast<Node*>(tree->root());
  ASSERT_FALSE(root->children.empty());
  Node* child = root->children[0];
  child->leaf_count += 1;

  const audit::Report report = tree->Validate();
  // Wrong at the child (its children no longer sum to it) and at the root
  // (whose stored total now disagrees with the actual slot count).
  EXPECT_TRUE(report.HasRule("leaf-count-sum")) << report.ToString();
  child->leaf_count -= 1;
}

TEST(LTreeAuditTest, DetectsTombstoneAccountingDrift) {
  auto tree = MakeTree(300);
  Node* leaf = tree->FirstLeaf();
  // Tombstone a leaf behind the tree's back: num_live_leaves() is stale.
  ASSERT_FALSE(leaf->deleted);
  leaf->deleted = true;

  const audit::Report report = tree->Validate();
  EXPECT_TRUE(report.HasRule("live-count")) << report.ToString();
  leaf->deleted = false;
}

TEST(LTreeAuditTest, DetectsChildIndexMismatch) {
  auto tree = MakeTree(300);
  Node* root = const_cast<Node*>(tree->root());
  ASSERT_GE(root->children.size(), 2u);
  root->children[1]->index_in_parent = 0;

  const audit::Report report = tree->Validate();
  EXPECT_TRUE(report.HasRule("child-index")) << report.ToString();
  root->children[1]->index_in_parent = 1;
}

TEST(LTreeAuditTest, ViolationPathsAreStructural) {
  auto tree = MakeTree(300);
  Node* root = const_cast<Node*>(tree->root());
  Node* child = root->children[0];
  child->leaf_count += 1;

  const audit::Report report = tree->Validate();
  ASSERT_FALSE(report.ok());
  bool found = false;
  for (const audit::Violation& v : report.violations()) {
    if (v.rule == "leaf-count-sum" && v.path == "ltree:/0") found = true;
  }
  EXPECT_TRUE(found) << report.ToString();
  child->leaf_count -= 1;
}

// ---------------------------------------------------------------------------
// Seed-and-restore on a minimal (8-leaf, binary) tree: the fault is named,
// and undoing it reports clean again, so the rule has no false positive
// once the structure is whole.
// ---------------------------------------------------------------------------

std::unique_ptr<LTree> MakeSmallTree(std::vector<LTree::LeafHandle>* handles) {
  auto tree = LTree::Create(Params{.f = 4, .s = 2}).ValueOrDie();
  EXPECT_TRUE(tree->BulkLoad(MakeCookies(8), handles).ok());
  EXPECT_TRUE(tree->Validate().ok()) << tree->Validate().ToString();
  return tree;
}

TEST(InvariantCheckerTest, DetectsWrongLeafCount) {
  std::vector<LTree::LeafHandle> handles;
  auto tree = MakeSmallTree(&handles);
  Node* internal = handles[0]->parent;
  const uint64_t saved = internal->leaf_count;
  internal->leaf_count = saved + 1;
  EXPECT_TRUE(tree->Validate().HasRule("leaf-count-sum"))
      << tree->Validate().ToString();
  internal->leaf_count = saved;
  EXPECT_TRUE(tree->Validate().ok()) << tree->Validate().ToString();
}

TEST(InvariantCheckerTest, DetectsBrokenParentPointer) {
  std::vector<LTree::LeafHandle> handles;
  auto tree = MakeSmallTree(&handles);
  Node* leaf = handles[2];
  Node* const saved = leaf->parent;
  ASSERT_NE(saved, handles[7]->parent);
  leaf->parent = handles[7]->parent;  // a real internal node, just not ours
  EXPECT_TRUE(tree->Validate().HasRule("parent-link"))
      << tree->Validate().ToString();
  leaf->parent = saved;
  EXPECT_TRUE(tree->Validate().ok()) << tree->Validate().ToString();
}

TEST(InvariantCheckerTest, DetectsWrongIndexInParent) {
  std::vector<LTree::LeafHandle> handles;
  auto tree = MakeSmallTree(&handles);
  Node* leaf = handles[0];
  const uint32_t saved = leaf->index_in_parent;
  leaf->index_in_parent = saved + 1;
  EXPECT_TRUE(tree->Validate().HasRule("child-index"))
      << tree->Validate().ToString();
  leaf->index_in_parent = saved;
  EXPECT_TRUE(tree->Validate().ok()) << tree->Validate().ToString();
}

TEST(InvariantCheckerTest, DetectsStaleLiveCounter) {
  std::vector<LTree::LeafHandle> handles;
  auto tree = MakeSmallTree(&handles);
  handles[1]->deleted = true;  // bypassing MarkDeleted leaves counters stale
  EXPECT_TRUE(tree->Validate().HasRule("live-count"))
      << tree->Validate().ToString();
  handles[1]->deleted = false;
  EXPECT_TRUE(tree->Validate().ok()) << tree->Validate().ToString();
}

// ---------------------------------------------------------------------------
// Scheme-generic Validate(): every store self-audits clean after real work
// ---------------------------------------------------------------------------

TEST(StoreValidateTest, AllSchemesValidateCleanAfterMixedWorkload) {
  for (const char* spec :
       {"ltree:16:4", "ltree:16:4:purge", "virtual:16:4", "sequential",
        "gap:64", "bender"}) {
    auto store = listlab::MakeLabelStore(spec).ValueOrDie();
    std::vector<listlab::ItemHandle> handles;
    ASSERT_TRUE(store->BulkLoad(MakeCookies(500), &handles).ok()) << spec;
    for (int i = 0; i < 100; ++i) {
      auto h = store->InsertAfter(handles[i * 3], 1000 + i);
      ASSERT_TRUE(h.ok()) << spec;
      handles.push_back(*h);
    }
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(store->Erase(handles[i * 7]).ok()) << spec;
    }
    const audit::Report report = store->Validate();
    EXPECT_TRUE(report.ok()) << spec << ": " << report.ToString();
  }
}

}  // namespace
}  // namespace ltree
