// Differential fuzzer for path queries: parse, then three evaluators.
//
// Path text is untrusted input. The input bytes pick a small random
// document (workload::RandomDocOptions), a few fragment inserts and subtree
// deletes, and a path. Most path bytes map to the grammar's tokens ('/',
// '//', tagN, '*', root), so most inputs parse; a header bit appends the
// rest of the input verbatim, which also lets the corpus hold any path
// text. Checks:
//   * PathQuery::Parse returns OK or ParseError, nothing else;
//   * a parsed path gives the same ids, in the same order, from the label
//     plan (structural joins over the edited table), the edge plan and the
//     DOM walk;
//   * the edited document passes CheckConsistency().
//
// Input layout (missing bytes read as 0):
//   [0] elements  [1] tags  [2] depth  [3] seed  [4] spec  [5] edits
//   per edit: [target] [shape]
//   [path header] steps = h & 3, leading axis = (h >> 3) & 3
//                 ('', '/', '//', '//'), raw tail iff (h >> 5) == 7
//   per step: [b] axis = b & 1 ('/' or '//'), name = (b >> 1) % 6
//             (tag0..tag3, '*', root)
//   raw tail: the remaining bytes, appended to the path as they are

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "docstore/labeled_document.h"
#include "query/path_query.h"
#include "workload/xml_generator.h"

#include "fuzz_driver.h"

namespace {

using ltree::docstore::LabeledDocument;
using ltree::query::PathQuery;
using ltree::xml::NodeId;

struct ByteReader {
  const uint8_t* data;
  size_t size;
  size_t pos = 0;

  bool done() const { return pos >= size; }
  uint8_t U8() { return done() ? 0 : data[pos++]; }
};

[[noreturn]] void Die(const char* what, const std::string& path = "") {
  std::fprintf(stderr, "path-query fuzz violation: %s (path '%s')\n", what,
               path.c_str());
  std::abort();
}

std::string TagName(uint64_t n) {
  std::string tag = "tag";
  tag.append(std::to_string(n));
  return tag;
}

/// A fragment of one to three levels over `tags` tag names.
std::string Fragment(uint8_t shape, uint32_t tags) {
  ltree::Rng rng(shape);
  std::string xml;
  auto element = [&](auto& self, int levels) -> void {
    const std::string tag = TagName(rng.Uniform(tags));
    xml.append("<").append(tag).append(">");
    if (levels > 1) {
      for (uint64_t k = rng.Uniform(3); k > 0; --k) self(self, levels - 1);
    }
    xml.append("</").append(tag).append(">");
  };
  element(element, 1 + shape % 3);
  return xml;
}

void Edit(LabeledDocument* doc, uint8_t target_byte, uint8_t shape,
          uint32_t tags) {
  const auto elements = doc->table().AllElements();
  const NodeId target = elements[target_byte % elements.size()]->id;
  const NodeId root = doc->document().root()->id;
  if ((shape & 0x80) == 0 || target == root) {
    // After the k-th child (k from the shape byte), or as the last child.
    std::vector<NodeId> children{0};
    for (const ltree::xml::Node* c =
             doc->document().FindById(target)->first_child;
         c != nullptr; c = c->next_sibling) {
      children.push_back(c->id);
    }
    const NodeId after = children[(shape >> 2) % children.size()];
    if (!doc->InsertFragment(target, after, Fragment(shape, tags)).ok()) {
      Die("InsertFragment failed");
    }
  } else if (!doc->DeleteSubtree(target).ok()) {
    Die("DeleteSubtree failed");
  }
}

std::string DecodePath(ByteReader* in) {
  static const char* const kLeading[] = {"", "/", "//", "//"};
  const uint8_t header = in->U8();
  std::string path = kLeading[(header >> 3) & 3];
  for (int step = 0; step < (header & 3); ++step) {
    const uint8_t b = in->U8();
    if (step > 0) path.append(b & 1 ? "//" : "/");
    const int name = (b >> 1) % 6;
    path.append(name == 4 ? "*" : name == 5 ? "root" : TagName(name));
  }
  if ((header >> 5) == 7) {
    while (!in->done()) path.push_back(static_cast<char>(in->U8()));
  }
  return path;
}

std::vector<NodeId> Ids(
    const std::vector<const ltree::query::NodeRow*>& rows) {
  std::vector<NodeId> ids;
  for (const auto* row : rows) ids.push_back(row->id);
  return ids;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  static const char* const kSpecs[] = {"ltree:4:2", "ltree:4:2:purge",
                                       "virtual:4:2"};
  ByteReader in{data, size};
  ltree::workload::RandomDocOptions options;
  options.num_elements = 1 + in.U8() % 48;
  options.tag_vocabulary = 1 + in.U8() % 4;
  options.max_depth = 1 + in.U8() % 6;
  options.seed = in.U8();
  auto loaded = LabeledDocument::FromDocument(
      ltree::workload::GenerateRandomDocument(options), kSpecs[in.U8() % 3]);
  if (!loaded.ok()) Die("FromDocument failed");
  const std::unique_ptr<LabeledDocument> doc =
      std::move(loaded).ValueOrDie();
  for (int edits = in.U8() % 6; edits > 0; --edits) {
    const uint8_t target = in.U8();
    Edit(doc.get(), target, in.U8(), options.tag_vocabulary);
  }
  if (!doc->CheckConsistency().ok()) Die("CheckConsistency failed");

  const std::string path = DecodePath(&in);
  auto parsed = PathQuery::Parse(path);
  if (!parsed.ok()) {
    if (!parsed.status().IsParseError()) Die("not a ParseError", path);
    return 0;
  }
  const std::vector<NodeId> dom =
      ltree::query::EvaluateOnDocument(*parsed, doc->document());
  if (Ids(ltree::query::EvaluateWithLabels(*parsed, doc->table())) != dom) {
    Die("label plan disagrees with the DOM", path);
  }
  if (Ids(ltree::query::EvaluateWithEdges(*parsed, doc->table())) != dom) {
    Die("edge plan disagrees with the DOM", path);
  }
  return 0;
}
