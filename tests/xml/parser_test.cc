#include "xml/parser.h"

#include <gtest/gtest.h>

#include "xml/serializer.h"

namespace ltree {
namespace xml {
namespace {

TEST(ParserTest, MinimalDocument) {
  auto doc = Parse("<a/>");
  ASSERT_TRUE(doc.ok());
  ASSERT_NE(doc->root(), nullptr);
  EXPECT_EQ(doc->root()->tag, "a");
  EXPECT_EQ(doc->num_nodes(), 1u);
}

TEST(ParserTest, NestedElements) {
  auto doc = Parse("<book><chapter><title/></chapter><title/></book>");
  ASSERT_TRUE(doc.ok());
  Node* book = doc->root();
  ASSERT_EQ(book->tag, "book");
  ASSERT_EQ(book->ChildCount(), 2u);
  EXPECT_EQ(book->first_child->tag, "chapter");
  EXPECT_EQ(book->first_child->first_child->tag, "title");
  EXPECT_EQ(book->last_child->tag, "title");
}

TEST(ParserTest, TextContent) {
  auto doc = Parse("<a>hello <b>world</b>!</a>");
  ASSERT_TRUE(doc.ok());
  Node* a = doc->root();
  ASSERT_EQ(a->ChildCount(), 3u);
  EXPECT_TRUE(a->first_child->IsText());
  EXPECT_EQ(a->first_child->text, "hello ");
  EXPECT_EQ(a->first_child->next_sibling->tag, "b");
  EXPECT_EQ(a->last_child->text, "!");
}

TEST(ParserTest, Attributes) {
  auto doc = Parse(R"(<a id="1" name='two' empty=""/>)");
  ASSERT_TRUE(doc.ok());
  Node* a = doc->root();
  ASSERT_EQ(a->attrs.size(), 3u);
  EXPECT_EQ(*a->FindAttr("id"), "1");
  EXPECT_EQ(*a->FindAttr("name"), "two");
  EXPECT_EQ(*a->FindAttr("empty"), "");
}

TEST(ParserTest, EntityDecoding) {
  auto doc = Parse("<a x=\"&lt;&amp;&gt;\">&quot;&apos;&#65;&#x42;</a>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(*doc->root()->FindAttr("x"), "<&>");
  EXPECT_EQ(doc->root()->first_child->text, "\"'AB");
}

TEST(ParserTest, NumericEntityUtf8) {
  auto doc = Parse("<a>&#233;&#x4E2D;</a>");  // é + CJK
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root()->first_child->text, "\xC3\xA9\xE4\xB8\xAD");
}

TEST(ParserTest, CommentsSkipped) {
  auto doc = Parse("<!-- pre --><a><!-- inside -->x<!-- post --></a>");
  ASSERT_TRUE(doc.ok());
  ASSERT_EQ(doc->root()->ChildCount(), 1u);
  EXPECT_EQ(doc->root()->first_child->text, "x");
}

TEST(ParserTest, PrologAndDoctype) {
  auto doc = Parse(
      "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n"
      "<!DOCTYPE book [ <!ENTITY x \"y\"> ]>\n"
      "<book/>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root()->tag, "book");
}

TEST(ParserTest, CdataIsLiteral) {
  auto doc = Parse("<a><![CDATA[<not> &amp; parsed]]></a>");
  ASSERT_TRUE(doc.ok());
  ASSERT_EQ(doc->root()->ChildCount(), 1u);
  EXPECT_EQ(doc->root()->first_child->text, "<not> &amp; parsed");
}

TEST(ParserTest, WhitespaceTextDroppedByDefault) {
  auto doc = Parse("<a>\n  <b/>\n  <c/>\n</a>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root()->ChildCount(), 2u);
}

TEST(ParserTest, WhitespaceTextKeptOnRequest) {
  ParseOptions opts;
  opts.keep_whitespace_text = true;
  auto doc = Parse("<a>\n  <b/>\n</a>", opts);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root()->ChildCount(), 3u);
}

TEST(ParserTest, NamespacishTags) {
  auto doc = Parse("<ns:a xmlns:ns=\"urn:x\"><ns:b/></ns:a>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root()->tag, "ns:a");
  EXPECT_EQ(doc->root()->first_child->tag, "ns:b");
}

struct BadCase {
  const char* name;
  const char* input;
};

// Without a printer gtest prints the raw bytes of the struct, i.e. the
// pointer values, which ASLR changes on every run; the CTest names that
// gtest_discover_tests builds from that output would change per build.
void PrintTo(const BadCase& c, std::ostream* os) { *os << c.name; }

class ParserErrorTest : public ::testing::TestWithParam<BadCase> {};

TEST_P(ParserErrorTest, RejectsMalformedInput) {
  auto doc = Parse(GetParam().input);
  ASSERT_FALSE(doc.ok()) << GetParam().input;
  EXPECT_TRUE(doc.status().IsParseError());
  // Error messages carry location context.
  EXPECT_NE(doc.status().message().find("line"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ParserErrorTest,
    ::testing::Values(
        BadCase{"Empty", ""},
        BadCase{"TextOnly", "just text"},
        BadCase{"UnclosedRoot", "<a>"},
        BadCase{"MismatchedTags", "<a><b></a></b>"},
        BadCase{"TrailingGarbage", "<a/><b/>"},
        BadCase{"TrailingText", "<a/>extra"},
        BadCase{"BadAttrNoValue", "<a id></a>"},
        BadCase{"BadAttrUnquoted", "<a id=5></a>"},
        BadCase{"DuplicateAttr", "<a x=\"1\" x=\"2\"/>"},
        BadCase{"UnknownEntity", "<a>&nope;</a>"},
        BadCase{"UnterminatedEntity", "<a>&amp</a>"},
        BadCase{"BadCharRef", "<a>&#xZZ;</a>"},
        BadCase{"UnterminatedCdata", "<a><![CDATA[x</a>"},
        BadCase{"UnterminatedAttr", "<a x=\"1/>"},
        BadCase{"BadName", "<1a/>"}),
    [](const auto& info) { return info.param.name; });

TEST(ParserRoundTripTest, SerializeParseIdentity) {
  const char* kDoc =
      "<site><people><person id=\"p1\"><name>Alice &amp; Bob</name>"
      "<emails><email>a@x</email><email>b@x</email></emails></person>"
      "</people><regions><region name=\"eu\"/><region name=\"us\"/>"
      "</regions></site>";
  auto doc = Parse(kDoc);
  ASSERT_TRUE(doc.ok());
  const std::string serialized = Serialize(*doc);
  auto doc2 = Parse(serialized);
  ASSERT_TRUE(doc2.ok());
  EXPECT_EQ(Serialize(*doc2), serialized);
  EXPECT_EQ(doc2->num_nodes(), doc->num_nodes());
}

TEST(ParserRoundTripTest, PrettyPrintedRoundTrip) {
  auto doc = Parse("<a><b>text</b><c x=\"1\"/></a>");
  ASSERT_TRUE(doc.ok());
  SerializeOptions opts;
  opts.indent = 2;
  const std::string pretty = Serialize(*doc, opts);
  EXPECT_NE(pretty.find('\n'), std::string::npos);
  auto doc2 = Parse(pretty);
  ASSERT_TRUE(doc2.ok());
  EXPECT_EQ(Serialize(*doc2), Serialize(*doc));
}

TEST(SerializerTest, EscapesSpecials) {
  Document doc;
  Node* a = doc.CreateElement("a");
  a->attrs.emplace_back("q", "a\"b<c");
  ASSERT_TRUE(doc.SetRoot(a).ok());
  ASSERT_TRUE(doc.AppendChild(a, doc.CreateText("x<y&z")).ok());
  const std::string s = Serialize(doc);
  EXPECT_EQ(s, "<a q=\"a&quot;b&lt;c\">x&lt;y&amp;z</a>");
}

TEST(SerializerTest, EmptyDocument) {
  Document doc;
  EXPECT_EQ(Serialize(doc), "");
}

}  // namespace
}  // namespace xml
}  // namespace ltree
