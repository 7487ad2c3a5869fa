// Path parsing plus the three-evaluator agreement property: the label plan
// and the edge plan must both match the naive DOM ground truth on random
// documents.

#include "query/path_query.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "docstore/labeled_document.h"
#include "workload/xml_generator.h"

namespace ltree {
namespace query {
namespace {

TEST(PathParseTest, Basic) {
  auto q = PathQuery::Parse("/site/books//title");
  ASSERT_TRUE(q.ok());
  const auto& steps = q->steps();
  ASSERT_EQ(steps.size(), 3u);
  EXPECT_EQ(steps[0].axis, PathStep::Axis::kChild);
  EXPECT_EQ(steps[0].tag, "site");
  EXPECT_EQ(steps[1].axis, PathStep::Axis::kChild);
  EXPECT_EQ(steps[1].tag, "books");
  EXPECT_EQ(steps[2].axis, PathStep::Axis::kDescendant);
  EXPECT_EQ(steps[2].tag, "title");
}

TEST(PathParseTest, LeadingDoubleSlash) {
  auto q = PathQuery::Parse("//title");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->steps()[0].axis, PathStep::Axis::kDescendant);
}

TEST(PathParseTest, NoLeadingSlashIsDescendant) {
  auto q = PathQuery::Parse("book//title");
  ASSERT_TRUE(q.ok());
  ASSERT_EQ(q->steps().size(), 2u);
  EXPECT_EQ(q->steps()[0].axis, PathStep::Axis::kDescendant);
}

TEST(PathParseTest, Wildcard) {
  auto q = PathQuery::Parse("/site/*//para");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->steps()[1].tag, "*");
}

TEST(PathParseTest, Errors) {
  EXPECT_FALSE(PathQuery::Parse("").ok());
  EXPECT_FALSE(PathQuery::Parse("/").ok());
  EXPECT_FALSE(PathQuery::Parse("a/").ok());
  EXPECT_FALSE(PathQuery::Parse("a//").ok());
  EXPECT_FALSE(PathQuery::Parse("a|b").ok());
}

class EvaluatorFixture : public ::testing::Test {
 protected:
  void Load(const std::string& xml_text) {
    store_ = docstore::LabeledDocument::FromXml(xml_text, "ltree:8:2")
                 .MoveValueUnsafe();
  }

  std::vector<xml::NodeId> LabelIds(const std::string& path) {
    auto q = PathQuery::Parse(path).ValueOrDie();
    std::vector<xml::NodeId> ids;
    for (const NodeRow* row : EvaluateWithLabels(q, store_->table())) {
      ids.push_back(row->id);
    }
    return ids;
  }

  std::vector<xml::NodeId> EdgeIds(const std::string& path,
                                   uint64_t* joins = nullptr) {
    auto q = PathQuery::Parse(path).ValueOrDie();
    std::vector<xml::NodeId> ids;
    for (const NodeRow* row :
         EvaluateWithEdges(q, store_->table(), joins)) {
      ids.push_back(row->id);
    }
    return ids;
  }

  std::vector<xml::NodeId> DomIds(const std::string& path) {
    auto q = PathQuery::Parse(path).ValueOrDie();
    return EvaluateOnDocument(q, store_->document());
  }

  std::unique_ptr<docstore::LabeledDocument> store_;
};

TEST_F(EvaluatorFixture, PaperIntroQuery) {
  // Section 1: "book//title" over the Figure 1 document.
  Load("<book><chapter><title/></chapter><title/></book>");
  auto ids = LabelIds("book//title");
  EXPECT_EQ(ids.size(), 2u);
  EXPECT_EQ(ids, DomIds("book//title"));
  EXPECT_EQ(ids, EdgeIds("book//title"));
  // Child axis: only the direct title.
  EXPECT_EQ(LabelIds("/book/title").size(), 1u);
  EXPECT_EQ(LabelIds("/book/title"), DomIds("/book/title"));
}

TEST_F(EvaluatorFixture, WildcardSteps) {
  Load("<a><b><c/></b><d><c/></d><c/></a>");
  EXPECT_EQ(LabelIds("/a/*/c").size(), 2u);
  EXPECT_EQ(LabelIds("/a/*/c"), DomIds("/a/*/c"));
  EXPECT_EQ(LabelIds("//c").size(), 3u);
  EXPECT_EQ(LabelIds("//*").size(), 6u);
  EXPECT_EQ(LabelIds("//*"), DomIds("//*"));
}

TEST_F(EvaluatorFixture, AnchoredRootMismatch) {
  Load("<a><b/></a>");
  EXPECT_TRUE(LabelIds("/b").empty());
  EXPECT_TRUE(DomIds("/b").empty());
  EXPECT_EQ(LabelIds("/a").size(), 1u);
}

TEST_F(EvaluatorFixture, AnchoredFirstStepFindsOnlyTheRoot) {
  // The inner <a> also matches "a" but sits below the root.
  Load("<a><b><a/></b></a>");
  const xml::NodeId root = store_->document().root()->id;
  EXPECT_EQ(LabelIds("/a"), std::vector<xml::NodeId>{root});
  EXPECT_EQ(LabelIds("/a"), DomIds("/a"));
  EXPECT_EQ(LabelIds("/a"), EdgeIds("/a"));
  ASSERT_EQ(LabelIds("/a//a").size(), 1u);
  EXPECT_NE(LabelIds("/a//a")[0], root);
  EXPECT_EQ(LabelIds("/a//a"), DomIds("/a//a"));
  EXPECT_EQ(LabelIds("/a//a"), EdgeIds("/a//a"));
}

TEST_F(EvaluatorFixture, SelfNestedTags) {
  // Same tag nested: //a//a must not report the outer node.
  Load("<a><a><a/></a></a>");
  EXPECT_EQ(LabelIds("//a").size(), 3u);
  EXPECT_EQ(LabelIds("a//a").size(), 2u);
  EXPECT_EQ(LabelIds("a//a"), DomIds("a//a"));
  EXPECT_EQ(LabelIds("a//a"), EdgeIds("a//a"));
}

TEST_F(EvaluatorFixture, ResultsSortedByDocumentOrder) {
  Load(workload::GenerateCatalogXml(20, 3, 11));
  auto rows = [&](const std::string& path) {
    auto q = PathQuery::Parse(path).ValueOrDie();
    return EvaluateWithLabels(q, store_->table());
  };
  auto titles = rows("//title");
  for (size_t i = 1; i < titles.size(); ++i) {
    EXPECT_LT(titles[i - 1]->region.start, titles[i]->region.start);
  }
}

TEST_F(EvaluatorFixture, EdgePlanCountsJoins) {
  Load(workload::GenerateCatalogXml(10, 3, 5));
  uint64_t joins = 0;
  EdgeIds("/site/books//title", &joins);
  // The descendant step must iterate multiple levels; the label plan always
  // needs one structural join per step.
  EXPECT_GT(joins, 2u);
}

class RandomDocAgreementTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void Load() {
    workload::RandomDocOptions opts;
    opts.num_elements = 400;
    opts.tag_vocabulary = 6;
    opts.seed = GetParam();
    store_ = docstore::LabeledDocument::FromDocument(
                 workload::GenerateRandomDocument(opts), "ltree:16:4")
                 .MoveValueUnsafe();
  }

  /// The label, edge and DOM plans return the same ids on every path.
  void ExpectAgreement(const std::string& when) {
    const char* paths[] = {"//tag0",         "//tag1//tag2", "/root//tag3",
                           "/root/*",        "//tag4/tag5",  "//*//tag0",
                           "root/tag1/tag1", "//tag2//*",    "//tag1/tag1",
                           "//tag0//tag0/tag2"};
    for (const char* path : paths) {
      auto q = query::PathQuery::Parse(path).ValueOrDie();
      std::vector<xml::NodeId> label_ids;
      for (const NodeRow* row : EvaluateWithLabels(q, store_->table())) {
        label_ids.push_back(row->id);
      }
      std::vector<xml::NodeId> edge_ids;
      for (const NodeRow* row : EvaluateWithEdges(q, store_->table())) {
        edge_ids.push_back(row->id);
      }
      std::vector<xml::NodeId> dom_ids =
          EvaluateOnDocument(q, store_->document());
      EXPECT_EQ(label_ids, dom_ids)
          << path << " seed " << GetParam() << " " << when;
      EXPECT_EQ(edge_ids, dom_ids)
          << path << " seed " << GetParam() << " " << when;
    }
  }

  std::unique_ptr<docstore::LabeledDocument> store_;
};

TEST_P(RandomDocAgreementTest, ThreeEvaluatorsAgree) {
  Load();
  ExpectAgreement("after load");
}

/// A 1-3-level fragment over the document's tags: a root with up to two
/// children, each with up to two children.
std::string RandomFragment(Rng* rng) {
  std::string xml;
  auto element = [&](auto& self, int levels) -> void {
    const std::string tag = std::to_string(rng->Uniform(6));
    xml.append("<tag").append(tag).append(">");
    if (levels > 1) {
      for (uint64_t k = rng->Uniform(3); k > 0; --k) self(self, levels - 1);
    }
    xml.append("</tag").append(tag).append(">");
  };
  element(element, 1 + static_cast<int>(rng->Uniform(3)));
  return xml;
}

TEST_P(RandomDocAgreementTest, ThreeEvaluatorsAgreeAfterEdits) {
  // Edits break the fresh load's slot order = document order and nest
  // tags anew, so joins see reused slots and nested child-step contexts.
  Load();
  Rng rng(GetParam());
  const xml::NodeId root = store_->document().root()->id;
  for (int round = 0; round < 6; ++round) {
    for (int edit = 0; edit < 10; ++edit) {
      const std::vector<const NodeRow*> elements =
          store_->table().AllElements();
      const NodeRow* target = elements[rng.Uniform(elements.size())];
      if (rng.Uniform(2) == 0 || target->id == root) {
        // Insert after a random child of the target, or as its last child.
        std::vector<xml::NodeId> children;
        for (const xml::Node* c =
                 store_->document().FindById(target->id)->first_child;
             c != nullptr; c = c->next_sibling) {
          children.push_back(c->id);
        }
        const xml::NodeId after =
            children.empty() || rng.Uniform(3) == 0
                ? 0
                : children[rng.Uniform(children.size())];
        ASSERT_TRUE(store_
                        ->InsertFragment(target->id, after,
                                         RandomFragment(&rng))
                        .ok())
            << "round " << round << " edit " << edit;
      } else {
        ASSERT_TRUE(store_->DeleteSubtree(target->id).ok())
            << "round " << round << " edit " << edit;
      }
    }
    std::string when = "after round ";
    when.append(std::to_string(round));
    ExpectAgreement(when);
    ASSERT_TRUE(store_->CheckConsistency().ok()) << when;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDocAgreementTest,
                         ::testing::Values(1, 2, 3, 7, 19));

}  // namespace
}  // namespace query
}  // namespace ltree
