// End-to-end tests of the LabeledDocument glue: labels stay consistent with
// document order across element/fragment insertion and subtree deletion,
// and label-based queries keep answering correctly — the system-level claim
// of the paper.

#include "docstore/labeled_document.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "query/path_query.h"
#include "workload/xml_generator.h"

namespace ltree {
namespace docstore {
namespace {

const char* const kScheme = "ltree:8:2";

TEST(LabeledDocumentTest, BuildFromXml) {
  auto store = LabeledDocument::FromXml(
      "<book><chapter><title/></chapter><title/></book>", kScheme);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ((*store)->table().size(), 4u);
  EXPECT_TRUE((*store)->CheckConsistency().ok());
}

TEST(LabeledDocumentTest, RejectsMalformedXml) {
  EXPECT_FALSE(LabeledDocument::FromXml("<a>", kScheme).ok());
  EXPECT_FALSE(LabeledDocument::FromXml("", kScheme).ok());
}

TEST(LabeledDocumentTest, RegionsReflectAncestry) {
  auto store = LabeledDocument::FromXml(
      "<book><chapter><title/></chapter><title/></book>", kScheme)
                   .MoveValueUnsafe();
  const xml::Node* book = store->document().root();
  const xml::Node* chapter = book->first_child;
  const xml::Node* inner_title = chapter->first_child;
  const xml::Node* outer_title = book->last_child;

  EXPECT_TRUE(*store->IsAncestor(book->id, inner_title->id));
  EXPECT_TRUE(*store->IsAncestor(book->id, outer_title->id));
  EXPECT_TRUE(*store->IsAncestor(chapter->id, inner_title->id));
  EXPECT_FALSE(*store->IsAncestor(chapter->id, outer_title->id));
  EXPECT_FALSE(*store->IsAncestor(inner_title->id, book->id));
  EXPECT_FALSE(*store->IsAncestor(book->id, book->id));
}

TEST(LabeledDocumentTest, InsertElementKeepsQueriesCorrect) {
  auto store = LabeledDocument::FromXml(
      "<book><chapter><title/></chapter></book>", kScheme)
                   .MoveValueUnsafe();
  const xml::Node* book = store->document().root();
  const xml::NodeId book_id = book->id;
  // Append 30 new chapters, each with a title inside.
  for (int i = 0; i < 30; ++i) {
    auto ch = store->InsertElement(book_id, 0, "chapter");
    ASSERT_TRUE(ch.ok());
    auto t = store->InsertElement(*ch, 0, "title");
    ASSERT_TRUE(t.ok());
    ASSERT_TRUE(store->CheckConsistency().ok()) << "i=" << i;
  }
  auto q = query::PathQuery::Parse("book//title").ValueOrDie();
  auto rows = query::EvaluateWithLabels(q, store->table());
  EXPECT_EQ(rows.size(), 31u);
  auto dom = query::EvaluateOnDocument(q, store->document());
  ASSERT_EQ(rows.size(), dom.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i]->id, dom[i]);
  }
}

TEST(LabeledDocumentTest, InsertAfterSpecificSibling) {
  auto store =
      LabeledDocument::FromXml("<r><a/><c/></r>", kScheme).MoveValueUnsafe();
  const xml::Node* r = store->document().root();
  const xml::NodeId a_id = r->first_child->id;
  auto b = store->InsertElement(r->id, a_id, "b");
  ASSERT_TRUE(b.ok());
  // Document order must now be a, b, c.
  std::vector<std::string> tags;
  for (const xml::Node* c = store->document().root()->first_child;
       c != nullptr; c = c->next_sibling) {
    tags.push_back(c->tag);
  }
  EXPECT_EQ(tags, (std::vector<std::string>{"a", "b", "c"}));
  // Region of b sits between a and c.
  auto ra = store->GetRegion(a_id);
  auto rb = store->GetRegion(*b);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_GT(rb->start, ra->end);
  EXPECT_TRUE(store->CheckConsistency().ok());
}

TEST(LabeledDocumentTest, InsertErrors) {
  auto store = LabeledDocument::FromXml("<r><a><g/></a><b/></r>", kScheme)
                   .MoveValueUnsafe();
  const xml::Node* r = store->document().root();
  const xml::NodeId root_id = r->id;
  const xml::NodeId grandchild = r->first_child->first_child->id;
  const xml::NodeId deleted = r->last_child->id;
  EXPECT_TRUE(store->InsertElement(9999, 0, "x").status().IsNotFound());
  EXPECT_TRUE(
      store->InsertElement(root_id, 12345, "x").status().IsNotFound());
  // Text node as parent is rejected.
  auto text = store->InsertText(root_id, 0, "hello");
  ASSERT_TRUE(text.ok());
  EXPECT_TRUE(store->InsertElement(*text, 0, "x").status().IsNotFound());

  // The anchor must be a live child of the parent.
  ASSERT_TRUE(store->DeleteSubtree(deleted).ok());
  const uint64_t rows = store->table().size();
  const uint64_t leaves = store->label_store().size();
  for (const xml::NodeId anchor :
       {grandchild, deleted, root_id, xml::NodeId{1000000}}) {
    EXPECT_TRUE(
        store->InsertElement(root_id, anchor, "x").status().IsNotFound())
        << "anchor " << anchor;
    EXPECT_TRUE(
        store->InsertText(root_id, anchor, "t").status().IsNotFound())
        << "anchor " << anchor;
    EXPECT_TRUE(
        store->InsertFragment(root_id, anchor, "<x/>").status().IsNotFound())
        << "anchor " << anchor;
  }
  EXPECT_EQ(store->table().size(), rows);
  EXPECT_EQ(store->label_store().size(), leaves);
  EXPECT_TRUE(store->CheckConsistency().ok());
}

TEST(LabeledDocumentTest, CheckConsistencyCatchesAGhostRow) {
  auto store =
      LabeledDocument::FromXml("<r><a/></r>", kScheme).MoveValueUnsafe();
  ASSERT_TRUE(store->CheckConsistency().ok());
  // A row no attached element owns, as an index bug could leave behind.
  query::NodeRow ghost;
  ghost.id = 50;
  ghost.tag = "ghost";
  ghost.region = {1, 2};
  ghost.parent_id = store->document().root()->id;
  ASSERT_TRUE(
      const_cast<query::NodeTable&>(store->table()).Insert(ghost).ok());
  const Status st = store->CheckConsistency();
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
}

TEST(LabeledDocumentTest, InsertTextOccupiesOrderSlot) {
  auto store =
      LabeledDocument::FromXml("<r><a/><b/></r>", kScheme).MoveValueUnsafe();
  const xml::Node* r = store->document().root();
  const xml::NodeId a_id = r->first_child->id;
  const xml::NodeId b_id = r->last_child->id;
  auto text = store->InsertText(r->id, a_id, "between");
  ASSERT_TRUE(text.ok());
  auto rt = store->GetRegion(*text);
  ASSERT_TRUE(rt.ok());
  EXPECT_GT(rt->start, store->GetRegion(a_id)->end);
  EXPECT_LT(rt->start, store->GetRegion(b_id)->start);
  EXPECT_TRUE(store->CheckConsistency().ok());
}

TEST(LabeledDocumentTest, FragmentInsertIsOneBatch) {
  auto store =
      LabeledDocument::FromXml("<site><books/></site>", kScheme)
          .MoveValueUnsafe();
  const xml::Node* books = store->document().root()->first_child;
  const uint64_t batches_before =
      store->label_store().stats().batch_inserts;
  auto frag = store->InsertFragment(
      books->id, 0,
      "<book id=\"b1\"><title>T</title><chapter><para>p</para></chapter>"
      "</book>");
  ASSERT_TRUE(frag.ok());
  EXPECT_EQ(store->label_store().stats().batch_inserts, batches_before + 1)
      << "the whole fragment enters as a single Section 4.1 batch";
  EXPECT_TRUE(store->CheckConsistency().ok());
  // The fragment is queryable immediately.
  auto q = query::PathQuery::Parse("//book//para").ValueOrDie();
  EXPECT_EQ(query::EvaluateWithLabels(q, store->table()).size(), 1u);
  // Attributes survived the copy.
  const xml::Node* book = store->document().FindById(*frag);
  ASSERT_NE(book, nullptr);
  ASSERT_NE(book->FindAttr("id"), nullptr);
  EXPECT_EQ(*book->FindAttr("id"), "b1");
}

TEST(LabeledDocumentTest, FragmentRejectsBadXml) {
  auto store =
      LabeledDocument::FromXml("<r/>", kScheme).MoveValueUnsafe();
  const xml::NodeId root_id = store->document().root()->id;
  EXPECT_TRUE(
      store->InsertFragment(root_id, 0, "<oops>").status().IsParseError());
  EXPECT_TRUE(store->CheckConsistency().ok());
}

TEST(LabeledDocumentTest, DeleteSubtree) {
  auto store = LabeledDocument::FromXml(
      "<r><a><b/><c/></a><d/></r>", kScheme)
                   .MoveValueUnsafe();
  const xml::Node* r = store->document().root();
  const xml::NodeId a_id = r->first_child->id;
  const uint64_t live_before = store->label_store().size();
  ASSERT_TRUE(store->DeleteSubtree(a_id).ok());
  // a, b, c each had 2 leaves -> 6 tombstones.
  EXPECT_EQ(store->label_store().size(), live_before - 6);
  EXPECT_EQ(store->table().size(), 2u);  // r and d remain
  EXPECT_TRUE(store->GetRegion(a_id).status().IsNotFound());
  EXPECT_TRUE(store->DeleteSubtree(a_id).IsNotFound());
  EXPECT_TRUE(store->CheckConsistency().ok());
  auto q = query::PathQuery::Parse("//b").ValueOrDie();
  EXPECT_TRUE(query::EvaluateWithLabels(q, store->table()).empty());
}

TEST(LabeledDocumentTest, RandomEditStormStaysConsistent) {
  auto store = LabeledDocument::FromDocument(
                   workload::GenerateCatalog(10, 2, 3), "ltree:4:2")
                   .MoveValueUnsafe();
  Rng rng(99);
  std::vector<xml::NodeId> elements;
  store->document().Visit([&](const xml::Node& n) {
    if (n.IsElement()) elements.push_back(n.id);
  });
  for (int op = 0; op < 200; ++op) {
    const xml::NodeId target =
        elements[static_cast<size_t>(rng.Uniform(elements.size()))];
    if (store->document().FindById(target) == nullptr ||
        !store->document().FindById(target)->IsElement()) {
      continue;
    }
    auto fresh = store->InsertElement(target, 0, "edit");
    if (fresh.ok()) elements.push_back(*fresh);
    if (op % 20 == 0) {
      ASSERT_TRUE(store->CheckConsistency().ok()) << "op " << op;
    }
  }
  ASSERT_TRUE(store->CheckConsistency().ok());
}

}  // namespace
}  // namespace docstore
}  // namespace ltree
