#include <gtest/gtest.h>

#include "workload/update_stream.h"
#include "workload/xml_generator.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace ltree {
namespace workload {
namespace {

TEST(RandomDocumentTest, SizeAndValidity) {
  RandomDocOptions opts;
  opts.num_elements = 500;
  opts.seed = 1;
  xml::Document doc = GenerateRandomDocument(opts);
  EXPECT_EQ(doc.num_elements(), 500u);
  EXPECT_TRUE(doc.Validate().ok()) << doc.Validate().ToString();
  // Serialized output re-parses.
  auto doc2 = xml::Parse(xml::Serialize(doc));
  ASSERT_TRUE(doc2.ok());
  EXPECT_EQ(doc2->num_elements(), 500u);
}

TEST(RandomDocumentTest, Deterministic) {
  RandomDocOptions opts;
  opts.num_elements = 200;
  opts.seed = 7;
  const std::string a = xml::Serialize(GenerateRandomDocument(opts));
  const std::string b = xml::Serialize(GenerateRandomDocument(opts));
  EXPECT_EQ(a, b);
  opts.seed = 8;
  EXPECT_NE(xml::Serialize(GenerateRandomDocument(opts)), a);
}

TEST(RandomDocumentTest, RespectsMaxDepth) {
  RandomDocOptions opts;
  opts.num_elements = 2000;
  opts.max_depth = 4;
  xml::Document doc = GenerateRandomDocument(opts);
  uint32_t max_depth = 0;
  doc.Visit([&](const xml::Node& n) {
    uint32_t d = 0;
    for (const xml::Node* p = n.parent; p != nullptr; p = p->parent) ++d;
    max_depth = std::max(max_depth, d);
  });
  // Elements are capped at max_depth; text children may sit one deeper.
  EXPECT_LE(max_depth, opts.max_depth + 1);
}

TEST(CatalogTest, StructureAndDeterminism) {
  xml::Document doc = GenerateCatalog(5, 3, 42);
  EXPECT_TRUE(doc.Validate().ok()) << doc.Validate().ToString();
  EXPECT_EQ(doc.root()->tag, "site");
  uint64_t books = 0;
  uint64_t titles = 0;
  doc.Visit([&](const xml::Node& n) {
    if (n.tag == "book") ++books;
    if (n.tag == "title") ++titles;
  });
  EXPECT_EQ(books, 5u);
  EXPECT_EQ(titles, 5u + 5u * 3u);  // one per book + one per chapter
  EXPECT_EQ(GenerateCatalogXml(5, 3, 42), GenerateCatalogXml(5, 3, 42));
}

TEST(UpdateStreamTest, AppendAlwaysTail) {
  UpdateStream stream(StreamOptions{.kind = StreamKind::kAppend, .seed = 1});
  for (uint64_t size : {1ull, 5ull, 100ull}) {
    ListOp op = stream.Next(size);
    EXPECT_EQ(op.kind, ListOp::Kind::kInsertAfter);
    EXPECT_EQ(op.rank, size - 1);
  }
}

TEST(UpdateStreamTest, PrependAlwaysHead) {
  UpdateStream stream(StreamOptions{.kind = StreamKind::kPrepend, .seed = 1});
  ListOp op = stream.Next(50);
  EXPECT_EQ(op.kind, ListOp::Kind::kInsertBefore);
  EXPECT_EQ(op.rank, 0u);
}

TEST(UpdateStreamTest, UniformInRange) {
  UpdateStream stream(StreamOptions{.kind = StreamKind::kUniform, .seed = 2});
  for (int i = 0; i < 1000; ++i) {
    ListOp op = stream.Next(37);
    EXPECT_LT(op.rank, 37u);
    EXPECT_EQ(op.kind, ListOp::Kind::kInsertAfter);
  }
}

TEST(UpdateStreamTest, HotspotConcentratesNearCenter) {
  UpdateStream stream(StreamOptions{.kind = StreamKind::kHotspot,
                                    .zipf_theta = 1.2,
                                    .seed = 3});
  const uint64_t size = 10000;
  int near = 0;
  const int kOps = 2000;
  for (int i = 0; i < kOps; ++i) {
    ListOp op = stream.Next(size);
    ASSERT_LT(op.rank, size);
    if (op.rank > size / 2 - size / 10 && op.rank < size / 2 + size / 10) {
      ++near;
    }
  }
  EXPECT_GT(near, kOps / 2) << "most inserts land near the hotspot";
}

TEST(UpdateStreamTest, MixedContainsErases) {
  UpdateStream stream(StreamOptions{.kind = StreamKind::kMixed,
                                    .erase_fraction = 0.4,
                                    .seed = 4});
  int erases = 0;
  const int kOps = 2000;
  for (int i = 0; i < kOps; ++i) {
    if (stream.Next(100).kind == ListOp::Kind::kErase) ++erases;
  }
  EXPECT_NEAR(erases / static_cast<double>(kOps), 0.4, 0.05);
}

TEST(UpdateStreamTest, KindNames) {
  EXPECT_STREQ(StreamKindName(StreamKind::kUniform), "uniform");
  EXPECT_STREQ(StreamKindName(StreamKind::kHotspot), "hotspot");
}

}  // namespace
}  // namespace workload
}  // namespace ltree
