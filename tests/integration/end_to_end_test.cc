// End-to-end integration: generator -> serializer -> parser -> labeled
// store -> queries -> random edits -> queries again, cross-checked against
// naive DOM evaluation throughout. This is the "XML database" loop the
// paper's introduction describes, exercised over every module at once —
// and, since the pipeline is scheme-pluggable, over every labeling scheme.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/random.h"
#include "docstore/labeled_document.h"
#include "query/path_query.h"
#include "workload/xml_generator.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace ltree {
namespace {

struct EndToEndCase {
  const char* spec;
  uint64_t books;
};

// Prints the fields, not gtest's default raw bytes: those include the
// spec pointer, which ASLR changes on every run, and CTest names are built
// from this output. The spec is already in the test name's suffix.
void PrintTo(const EndToEndCase& c, std::ostream* os) {
  *os << c.books << " books";
}

class EndToEndTest : public ::testing::TestWithParam<EndToEndCase> {};

TEST_P(EndToEndTest, FullPipelineStaysConsistent) {
  const EndToEndCase tc = GetParam();

  // Generate -> serialize -> reparse (exercises generator + serializer +
  // parser agreement), then label.
  const std::string xml_text = workload::GenerateCatalogXml(tc.books, 3, 77);
  auto store =
      docstore::LabeledDocument::FromXml(xml_text, tc.spec).MoveValueUnsafe();
  ASSERT_TRUE(store->CheckConsistency().ok());

  const char* paths[] = {"//book//title", "/site/books/book",
                         "//chapter/para", "//author/name", "/site//*"};
  auto verify_all = [&](const std::string& when) {
    for (const char* path : paths) {
      auto q = query::PathQuery::Parse(path).ValueOrDie();
      std::vector<xml::NodeId> label_ids;
      for (const auto* row : query::EvaluateWithLabels(q, store->table())) {
        label_ids.push_back(row->id);
      }
      auto dom_ids = query::EvaluateOnDocument(q, store->document());
      ASSERT_EQ(label_ids, dom_ids) << path << " " << when;
    }
  };
  verify_all("after load");

  // Edit storm: fragments, single elements, texts and deletions.
  auto books_q = query::PathQuery::Parse("/site/books").ValueOrDie();
  const xml::NodeId books_id =
      query::EvaluateWithLabels(books_q, store->table())[0]->id;
  Rng rng(std::hash<std::string>{}(tc.spec) & 0xffff);
  for (int op = 0; op < 120; ++op) {
    const uint64_t dice = rng.Uniform(10);
    if (dice < 4) {
      ASSERT_TRUE(store
                      ->InsertFragment(
                          books_id, 0,
                          "<book><title>x</title><chapter><title>y</title>"
                          "<para>z</para></chapter></book>")
                      .ok());
    } else if (dice < 7) {
      auto all_books = store->table().ByTag("book");
      if (!all_books.empty()) {
        const auto* victim = all_books[rng.Uniform(all_books.size())];
        auto ch = store->InsertElement(victim->id, 0, "chapter");
        ASSERT_TRUE(ch.ok());
        ASSERT_TRUE(store->InsertElement(*ch, 0, "para").ok());
      }
    } else if (dice < 8) {
      auto chapters = store->table().ByTag("chapter");
      if (!chapters.empty()) {
        const auto* target = chapters[rng.Uniform(chapters.size())];
        ASSERT_TRUE(store->InsertText(target->id, 0, "note").ok());
      }
    } else {
      auto chapters = store->table().ByTag("chapter");
      if (chapters.size() > 3) {
        const auto* victim = chapters[rng.Uniform(chapters.size())];
        ASSERT_TRUE(store->DeleteSubtree(victim->id).ok());
      }
    }
    if (op % 30 == 29) {
      ASSERT_TRUE(store->CheckConsistency().ok()) << "op " << op;
      verify_all("op " + std::to_string(op));
    }
  }
  ASSERT_TRUE(store->CheckConsistency().ok());
  verify_all("final");

  // The surviving document round-trips through the serializer.
  auto reparsed = xml::Parse(xml::Serialize(store->document()));
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->num_elements(), store->document().num_elements());
}

TEST_P(EndToEndTest, VirtualStoreTracksMaterializedLabels) {
  // Loading the same document over "ltree:f:s" and "virtual:f:s" must
  // produce label-for-label identical stores (Section 4.2: the virtual
  // variant mirrors the materialized algorithm decision-for-decision).
  const EndToEndCase tc = GetParam();
  const std::string spec = tc.spec;
  if (spec.rfind("ltree:", 0) != 0) {
    GTEST_SKIP() << "only meaningful for materialized L-Tree specs";
  }
  const std::string xml_text = workload::GenerateCatalogXml(tc.books, 2, 5);
  auto mat =
      docstore::LabeledDocument::FromXml(xml_text, spec).MoveValueUnsafe();
  auto virt = docstore::LabeledDocument::FromXml(
                  xml_text, "virtual:" + spec.substr(6))
                  .MoveValueUnsafe();
  EXPECT_EQ(mat->label_store().Labels(), virt->label_store().Labels());
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, EndToEndTest,
    ::testing::Values(EndToEndCase{"ltree:4:2", 20},
                      EndToEndCase{"ltree:16:4", 60},
                      EndToEndCase{"ltree:32:2", 40},
                      EndToEndCase{"ltree:16:4:purge", 30},
                      EndToEndCase{"virtual:16:4", 30},
                      EndToEndCase{"bender", 25},
                      EndToEndCase{"gap:64", 25},
                      EndToEndCase{"sequential", 12}),
    [](const auto& info) {
      std::string name = info.param.spec;
      for (char& c : name) {
        if (c == ':' || c == '.') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace ltree
