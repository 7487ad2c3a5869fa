#include "docstore/labeled_document.h"

#include <vector>

#include "common/macros.h"
#include "common/string_util.h"
#include "listlab/factory.h"

namespace ltree {
namespace docstore {

using listlab::ItemHandle;
using listlab::kInvalidItemHandle;

namespace {

int32_t DepthOf(const xml::Node* node) {
  int32_t depth = 0;
  for (const xml::Node* p = node->parent; p != nullptr; p = p->parent) {
    ++depth;
  }
  return depth;
}

}  // namespace

LabeledDocument::LabeledDocument(xml::Document doc,
                                 std::unique_ptr<listlab::LabelStore> store,
                                 std::string spec)
    : doc_(std::move(doc)), store_(std::move(store)), spec_(std::move(spec)) {
  store_->set_listener(this);
}

LabeledDocument::~LabeledDocument() { store_->set_listener(nullptr); }

Result<std::unique_ptr<LabeledDocument>> LabeledDocument::FromXml(
    std::string_view xml_text, const std::string& scheme_spec) {
  LTREE_ASSIGN_OR_RETURN(xml::Document doc, xml::Parse(xml_text));
  return FromDocument(std::move(doc), scheme_spec);
}

Result<std::unique_ptr<LabeledDocument>> LabeledDocument::FromDocument(
    xml::Document doc, const std::string& scheme_spec) {
  if (doc.root() == nullptr) {
    return Status::InvalidArgument("document has no root element");
  }
  LTREE_ASSIGN_OR_RETURN(std::unique_ptr<listlab::LabelStore> store,
                         listlab::MakeLabelStore(scheme_spec));
  auto labeled = std::unique_ptr<LabeledDocument>(new LabeledDocument(
      std::move(doc), std::move(store), scheme_spec));
  LTREE_RETURN_IF_ERROR(labeled->BulkLoadFromDocument());
  return labeled;
}

Status LabeledDocument::BulkLoadFromDocument() {
  const std::vector<xml::TagEntry> stream = doc_.TagStream();
  std::vector<LeafCookie> cookies;
  cookies.reserve(stream.size());
  for (const xml::TagEntry& entry : stream) {
    cookies.push_back(entry.kind == xml::TagEntry::Kind::kEnd
                          ? EndCookie(entry.node->id)
                          : BeginCookie(entry.node->id));
  }
  std::vector<ItemHandle> handles;
  LTREE_RETURN_IF_ERROR(store_->BulkLoad(cookies, &handles));

  LTREE_RETURN_IF_ERROR(RegisterStream(stream, handles));
  return table_.Finalize();
}

Status LabeledDocument::RegisterStream(std::span<const xml::TagEntry> stream,
                                       std::span<const ItemHandle> handles) {
  for (size_t i = 0; i < stream.size(); ++i) {
    const xml::NodeId id = stream[i].node->id;
    if (id >= leaves_.size()) leaves_.resize(id + 1);
    LeafPair& pair = leaves_[id];
    if (stream[i].kind == xml::TagEntry::Kind::kEnd) {
      pair.end = handles[i];
    } else {
      pair.begin = handles[i];
    }
  }
  for (const xml::TagEntry& entry : stream) {
    if (entry.kind != xml::TagEntry::Kind::kBegin) continue;
    LTREE_RETURN_IF_ERROR(RegisterNode(entry.node, leaves_[entry.node->id]));
  }
  return Status::OK();
}

Status LabeledDocument::RegisterNode(const xml::Node* node, LeafPair leaves) {
  if (!node->IsElement()) return Status::OK();  // text: leaves only
  query::NodeRow row;
  row.id = node->id;
  row.tag = node->tag;
  LTREE_ASSIGN_OR_RETURN(const Label start, store_->GetLabel(leaves.begin));
  LTREE_ASSIGN_OR_RETURN(const Label end, store_->GetLabel(leaves.end));
  row.region = {start, end};
  row.level = DepthOf(node);
  row.parent_id = node->parent == nullptr ? 0 : node->parent->id;
  row.is_text = false;
  return table_.Insert(std::move(row));
}

void LabeledDocument::OnRelabel(LeafCookie cookie, Label old_label,
                                Label new_label) {
  (void)old_label;
  const xml::NodeId id = cookie >> 1;
  // Only live elements have a row: text nodes have no end leaf, and the
  // leaves of fresh or deleted nodes are not (or no longer) registered.
  // Schemes never report erased leaves.
  if (id >= leaves_.size() || leaves_[id].end == kInvalidItemHandle) return;
  Status st = (cookie & 1) != 0 ? table_.UpdateEnd(id, new_label)
                                : table_.UpdateStart(id, new_label);
  (void)st;  // CheckConsistency reports a row that went missing
}

const LabeledDocument::LeafPair* LabeledDocument::FindLeaves(
    xml::NodeId id) const {
  if (id >= leaves_.size() || leaves_[id].begin == kInvalidItemHandle) {
    return nullptr;
  }
  return &leaves_[id];
}

Result<xml::Node*> LabeledDocument::LiveParent(xml::NodeId parent_id) const {
  const LeafPair* leaves = FindLeaves(parent_id);
  if (leaves == nullptr || leaves->end == kInvalidItemHandle) {
    return Status::NotFound("parent is not a live element");
  }
  xml::Node* parent = doc_.FindById(parent_id);
  LTREE_CHECK(parent != nullptr);
  return parent;
}

Result<xml::Node*> LabeledDocument::ResolveSibling(const xml::Node* parent,
                                                   xml::NodeId after) const {
  if (after == 0) return static_cast<xml::Node*>(nullptr);
  xml::Node* sibling = doc_.FindById(after);
  if (sibling == nullptr || sibling->parent != parent) {
    return Status::NotFound("after_sibling is not a child of parent");
  }
  return sibling;
}

ItemHandle LabeledDocument::LastLeaf(const xml::Node* node) const {
  const LeafPair& leaves = leaves_[node->id];
  return leaves.end != kInvalidItemHandle ? leaves.end : leaves.begin;
}

Status LabeledDocument::InsertLeaves(const xml::Node* parent,
                                     const xml::Node* sibling,
                                     std::span<const LeafCookie> cookies,
                                     std::vector<ItemHandle>* handles) {
  return sibling == nullptr
             ? store_->InsertBatchBefore(leaves_[parent->id].end, cookies,
                                         handles)
             : store_->InsertBatchAfter(LastLeaf(sibling), cookies, handles);
}

// ---------------------------------------------------------------------------
// Updates
// ---------------------------------------------------------------------------

Result<xml::NodeId> LabeledDocument::InsertElement(xml::NodeId parent_id,
                                                   xml::NodeId after_sibling,
                                                   std::string tag) {
  LTREE_ASSIGN_OR_RETURN(xml::Node * parent, LiveParent(parent_id));
  LTREE_ASSIGN_OR_RETURN(xml::Node * sibling,
                         ResolveSibling(parent, after_sibling));

  xml::Node* fresh = doc_.CreateElement(std::move(tag));
  Status attach = sibling == nullptr
                      ? doc_.AppendChild(parent, fresh)
                      : doc_.InsertAfter(parent, sibling, fresh);
  LTREE_RETURN_IF_ERROR(attach);

  const LeafCookie cookies[2] = {BeginCookie(fresh->id), EndCookie(fresh->id)};
  std::vector<ItemHandle> handles;
  Status st = InsertLeaves(parent, sibling, cookies, &handles);
  if (!st.ok()) {
    LTREE_CHECK_OK(doc_.Remove(fresh));
    return st;
  }
  const xml::TagEntry stream[2] = {{xml::TagEntry::Kind::kBegin, fresh},
                                   {xml::TagEntry::Kind::kEnd, fresh}};
  LTREE_RETURN_IF_ERROR(RegisterStream(stream, handles));
  return fresh->id;
}

Result<xml::NodeId> LabeledDocument::InsertText(xml::NodeId parent_id,
                                                xml::NodeId after_sibling,
                                                std::string text) {
  LTREE_ASSIGN_OR_RETURN(xml::Node * parent, LiveParent(parent_id));
  LTREE_ASSIGN_OR_RETURN(xml::Node * sibling,
                         ResolveSibling(parent, after_sibling));

  xml::Node* fresh = doc_.CreateText(std::move(text));
  Status attach = sibling == nullptr
                      ? doc_.AppendChild(parent, fresh)
                      : doc_.InsertAfter(parent, sibling, fresh);
  LTREE_RETURN_IF_ERROR(attach);

  const LeafCookie cookie = BeginCookie(fresh->id);
  Result<ItemHandle> handle =
      sibling == nullptr
          ? store_->InsertBefore(leaves_[parent->id].end, cookie)
          : store_->InsertAfter(LastLeaf(sibling), cookie);
  if (!handle.ok()) {
    LTREE_CHECK_OK(doc_.Remove(fresh));
    return handle.status();
  }
  const xml::TagEntry entry{xml::TagEntry::Kind::kText, fresh};
  LTREE_RETURN_IF_ERROR(RegisterStream({&entry, 1}, {&*handle, 1}));
  return fresh->id;
}

xml::Node* LabeledDocument::CopySubtree(const xml::Node* src,
                                        xml::Node* parent) {
  xml::Node* clone = src->IsElement() ? doc_.CreateElement(src->tag)
                                      : doc_.CreateText(src->text);
  clone->attrs = src->attrs;
  if (parent != nullptr) {
    LTREE_CHECK_OK(doc_.AppendChild(parent, clone));
  }
  for (const xml::Node* c = src->first_child; c != nullptr;
       c = c->next_sibling) {
    CopySubtree(c, clone);
  }
  return clone;
}

Result<xml::NodeId> LabeledDocument::InsertFragment(xml::NodeId parent_id,
                                                    xml::NodeId after_sibling,
                                                    std::string_view fragment) {
  LTREE_ASSIGN_OR_RETURN(xml::Node * parent, LiveParent(parent_id));
  LTREE_ASSIGN_OR_RETURN(xml::Document frag, xml::Parse(fragment));
  LTREE_ASSIGN_OR_RETURN(xml::Node * sibling,
                         ResolveSibling(parent, after_sibling));

  // Clone the fragment into this document and attach it.
  xml::Node* clone_root = CopySubtree(frag.root(), nullptr);
  Status attach = sibling == nullptr
                      ? doc_.AppendChild(parent, clone_root)
                      : doc_.InsertAfter(parent, sibling, clone_root);
  LTREE_RETURN_IF_ERROR(attach);

  // Tag stream of the clone, in order, as one leaf batch (Section 4.1).
  std::vector<xml::TagEntry> stream;
  {
    // Reuse Document::TagStream logic via a local recursion.
    struct Walker {
      static void Walk(const xml::Node* n, std::vector<xml::TagEntry>* out) {
        if (n->IsText()) {
          out->push_back({xml::TagEntry::Kind::kText, n});
          return;
        }
        out->push_back({xml::TagEntry::Kind::kBegin, n});
        for (const xml::Node* c = n->first_child; c != nullptr;
             c = c->next_sibling) {
          Walk(c, out);
        }
        out->push_back({xml::TagEntry::Kind::kEnd, n});
      }
    };
    Walker::Walk(clone_root, &stream);
  }
  std::vector<LeafCookie> cookies;
  cookies.reserve(stream.size());
  for (const xml::TagEntry& entry : stream) {
    cookies.push_back(entry.kind == xml::TagEntry::Kind::kEnd
                          ? EndCookie(entry.node->id)
                          : BeginCookie(entry.node->id));
  }

  std::vector<ItemHandle> handles;
  Status st = InsertLeaves(parent, sibling, cookies, &handles);
  if (!st.ok()) {
    LTREE_CHECK_OK(doc_.Remove(clone_root));
    return st;
  }
  LTREE_RETURN_IF_ERROR(RegisterStream(stream, handles));
  return clone_root->id;
}

Status LabeledDocument::DeleteSubtree(xml::NodeId node_id) {
  if (FindLeaves(node_id) == nullptr) {
    return Status::NotFound("unknown node id");
  }
  xml::Node* node = doc_.FindById(node_id);
  if (node == nullptr) return Status::NotFound("node not attached");

  // Collect the subtree in document order.
  std::vector<const xml::Node*> subtree;
  std::vector<const xml::Node*> stack{node};
  while (!stack.empty()) {
    const xml::Node* n = stack.back();
    stack.pop_back();
    subtree.push_back(n);
    for (const xml::Node* c = n->first_child; c != nullptr;
         c = c->next_sibling) {
      stack.push_back(c);
    }
  }
  for (const xml::Node* n : subtree) {
    // The row goes first: NodeTable::Erase finds it by its start label,
    // which only a live leaf keeps in order with the other rows.
    if (n->IsElement()) {
      LTREE_RETURN_IF_ERROR(table_.Erase(n->id));
    }
    const LeafPair pair = leaves_[n->id];
    LTREE_RETURN_IF_ERROR(store_->Erase(pair.begin));
    if (pair.end != kInvalidItemHandle) {
      LTREE_RETURN_IF_ERROR(store_->Erase(pair.end));
    }
    leaves_[n->id] = LeafPair{};
  }
  return doc_.Remove(node);
}

// ---------------------------------------------------------------------------
// Queries / checks
// ---------------------------------------------------------------------------

Result<query::Region> LabeledDocument::GetRegion(xml::NodeId node_id) const {
  const LeafPair* leaves = FindLeaves(node_id);
  if (leaves == nullptr) return Status::NotFound("unknown node id");
  LTREE_ASSIGN_OR_RETURN(const Label start, store_->GetLabel(leaves->begin));
  Label end = start;
  if (leaves->end != kInvalidItemHandle) {
    LTREE_ASSIGN_OR_RETURN(end, store_->GetLabel(leaves->end));
  }
  return query::Region{start, end};
}

Result<bool> LabeledDocument::IsAncestor(xml::NodeId ancestor,
                                         xml::NodeId descendant) const {
  LTREE_ASSIGN_OR_RETURN(query::Region a, GetRegion(ancestor));
  LTREE_ASSIGN_OR_RETURN(query::Region d, GetRegion(descendant));
  return a.Contains(d);
}

Status LabeledDocument::CheckConsistency() const {
  // The parts' own audits first, merged so the Status counts every
  // violation (their paths already name the structure: "ltree:", "table:",
  // "doc:", ...).
  audit::Report parts = store_->Validate();
  parts.Absorb(table_.Validate(), "");
  parts.Absorb(doc_.Validate(), "");
  LTREE_RETURN_IF_ERROR(parts.ToStatus());
  // The labels read through the handles must be strictly increasing along
  // the current tag stream, and table regions must match them.
  Label prev = 0;
  bool first = true;
  uint64_t elements = 0;
  for (const xml::TagEntry& entry : doc_.TagStream()) {
    const LeafPair* leaves = FindLeaves(entry.node->id);
    if (leaves == nullptr) {
      return Status::Corruption("attached node missing from the leaf map");
    }
    const ItemHandle h = entry.kind == xml::TagEntry::Kind::kEnd
                             ? leaves->end
                             : leaves->begin;
    if (h == kInvalidItemHandle) {
      return Status::Corruption("missing leaf handle");
    }
    auto label = store_->GetLabel(h);
    if (!label.ok()) {
      return Status::Corruption("leaf handle no longer resolves: " +
                                label.status().ToString());
    }
    if (!first && *label <= prev) {
      return Status::Corruption("tag-stream labels not increasing");
    }
    prev = *label;
    first = false;
    if (entry.kind == xml::TagEntry::Kind::kBegin &&
        entry.node->IsElement()) {
      ++elements;
      LTREE_ASSIGN_OR_RETURN(const query::NodeRow* row,
                             table_.Find(entry.node->id));
      LTREE_ASSIGN_OR_RETURN(const Label start,
                             store_->GetLabel(leaves->begin));
      LTREE_ASSIGN_OR_RETURN(const Label end, store_->GetLabel(leaves->end));
      if (row->region.start != start || row->region.end != end) {
        return Status::Corruption(StrFormat(
            "table region stale for node %llu",
            static_cast<unsigned long long>(entry.node->id)));
      }
    }
  }
  // Every attached element has its row (checked above); a surplus row is a
  // ghost the DOM walk cannot reach.
  if (table_.size() != elements) {
    return Status::Corruption(StrFormat(
        "node table holds %llu rows for %llu attached elements",
        static_cast<unsigned long long>(table_.size()),
        static_cast<unsigned long long>(elements)));
  }
  return Status::OK();
}

}  // namespace docstore
}  // namespace ltree
