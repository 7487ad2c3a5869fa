// LabeledDocument: the end-to-end system of the paper.
//
// Binds an ordered XML document to a labeling scheme over its tag stream
// (begin tag, end tag and text-section leaves, Section 2) and maintains a
// relational NodeTable whose (start, end) interval labels stay valid across
// edits: the scheme's relabel notifications are applied to the table in
// place, so query plans built on label comparisons keep working without any
// re-indexing — the paper's core selling point.
//
// The labeling scheme is pluggable: the document owns a listlab::LabelStore
// chosen by spec string (factory.h grammar, e.g. "ltree:16:4",
// "virtual:16:4", "bender", "gap:64", "sequential"), so the same parse ->
// node table -> label-join -> edit pipeline runs unchanged over the paper's
// L-Tree, its virtual variant, and every baseline it compares against.
//
// Element updates:
//   * InsertElement        — single new element (two leaf insertions);
//   * InsertFragment*      — a parsed subtree, inserted as one leaf batch
//     (the Section 4.1 bulk insertion — on schemes with a native batch
//     path this rides the plan/apply pipeline: one coalesced rebuild
//     region, one relabel pass, surfaced as MaintStats::relabel_passes /
//     coalesced_regions);
//   * DeleteSubtree        — erases the leaves (tombstones on the L-Tree
//     variants, physical unlink on the baselines; see order_maintainer.h)
//     and drops the rows.
//
// Besides the labeling scheme's own cost, an insert resolves its anchor in
// O(1) (Document::FindById plus a parent check) and adds one table row per
// new element; a delete drops one row per element. Each row costs a binary
// search and a memmove of its tag index (node_table.h). A relabel
// notification is an O(1) table write. Leaf handles are kept in an array
// indexed by node id.

#ifndef LTREE_DOCSTORE_LABELED_DOCUMENT_H_
#define LTREE_DOCSTORE_LABELED_DOCUMENT_H_

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "listlab/order_maintainer.h"
#include "query/node_table.h"
#include "xml/parser.h"
#include "xml/xml_node.h"

namespace ltree {
namespace docstore {

class LabeledDocument : private RelabelListener {
 public:
  /// Builds the store from parsed XML text (bulk load, Section 2.2) over
  /// the labeling scheme named by `scheme_spec` (factory.h grammar).
  static Result<std::unique_ptr<LabeledDocument>> FromXml(
      std::string_view xml_text, const std::string& scheme_spec);

  /// Builds the store from an existing document (takes ownership).
  static Result<std::unique_ptr<LabeledDocument>> FromDocument(
      xml::Document doc, const std::string& scheme_spec);

  ~LabeledDocument() override;

  // ---------------------------------------------------------------- updates

  /// Inserts a new childless element under `parent_id`. If `after_sibling`
  /// is non-zero the new element goes right after that child; otherwise it
  /// becomes the last child. Returns the new element's node id.
  Result<xml::NodeId> InsertElement(xml::NodeId parent_id,
                                    xml::NodeId after_sibling,
                                    std::string tag);

  /// Inserts a new text node (single tag-stream leaf) under `parent_id`.
  Result<xml::NodeId> InsertText(xml::NodeId parent_id,
                                 xml::NodeId after_sibling, std::string text);

  /// Parses `fragment` and inserts the whole subtree right after
  /// `after_sibling` (a child of `parent_id`), or as the last child when
  /// `after_sibling` is 0. All leaves enter the label store as one batch
  /// (Section 4.1). Returns the fragment root's node id.
  Result<xml::NodeId> InsertFragment(xml::NodeId parent_id,
                                     xml::NodeId after_sibling,
                                     std::string_view fragment);

  /// Removes the subtree rooted at `node_id`: its leaves are erased from
  /// the label store (no relabeling), its rows leave the table, and the DOM
  /// subtree is destroyed.
  Status DeleteSubtree(xml::NodeId node_id);

  // ---------------------------------------------------------------- queries

  /// The current (start, end) interval label of a node.
  Result<query::Region> GetRegion(xml::NodeId node_id) const;

  /// True iff `ancestor` is a proper ancestor of `descendant`, decided
  /// purely by label comparison (Proposition 1 / Section 1).
  Result<bool> IsAncestor(xml::NodeId ancestor, xml::NodeId descendant) const;

  const query::NodeTable& table() const { return table_; }
  const xml::Document& document() const { return doc_; }

  /// The labeling scheme, read-only: name, stats, label bits, invariants.
  /// (Mutating the store directly would desync the node table, so no
  /// mutable accessor exists — use the update methods above.)
  const listlab::LabelStore& label_store() const { return *store_; }

  /// The spec string this document was constructed with.
  const std::string& scheme_spec() const { return spec_; }

  /// Runs the label store's, node table's and DOM's Validate(), then
  /// cross-checks DOM order/ancestry against table regions and the label
  /// store's labels. Corruption carries the first finding.
  Status CheckConsistency() const;

 private:
  struct LeafPair {
    listlab::ItemHandle begin = listlab::kInvalidItemHandle;
    listlab::ItemHandle end = listlab::kInvalidItemHandle;  ///< invalid for text
  };

  LabeledDocument(xml::Document doc,
                  std::unique_ptr<listlab::LabelStore> store,
                  std::string spec);

  void OnRelabel(LeafCookie cookie, Label old_label, Label new_label) override;

  Status BulkLoadFromDocument();

  /// The leaves of a live node, or nullptr.
  const LeafPair* FindLeaves(xml::NodeId id) const;
  /// The node `parent_id` if it is a live element, else NotFound.
  Result<xml::Node*> LiveParent(xml::NodeId parent_id) const;
  /// The insertion anchor: nullptr for `after` == 0 (append), the child
  /// `after` of `parent`, or NotFound. O(1).
  Result<xml::Node*> ResolveSibling(const xml::Node* parent,
                                    xml::NodeId after) const;
  /// The last tag-stream leaf of a live node (its end tag, or its text).
  listlab::ItemHandle LastLeaf(const xml::Node* node) const;
  /// Inserts `cookies` as one batch right after `sibling`, or at the end of
  /// `parent`'s content when `sibling` is null.
  Status InsertLeaves(const xml::Node* parent, const xml::Node* sibling,
                      std::span<const LeafCookie> cookies,
                      std::vector<listlab::ItemHandle>* handles);

  /// Records the leaves of a freshly labeled tag stream (handles[i] labels
  /// stream[i]) and adds a table row for each of its elements.
  Status RegisterStream(std::span<const xml::TagEntry> stream,
                        std::span<const listlab::ItemHandle> handles);
  /// Adds the table row of a freshly labeled element.
  Status RegisterNode(const xml::Node* node, LeafPair leaves);

  /// Recursively copies `src` (from another document) under `parent`,
  /// appending to `cookies`/`nodes` in tag-stream order.
  xml::Node* CopySubtree(const xml::Node* src, xml::Node* parent);

  static LeafCookie BeginCookie(xml::NodeId id) { return id << 1; }
  static LeafCookie EndCookie(xml::NodeId id) { return (id << 1) | 1; }

  xml::Document doc_;
  std::unique_ptr<listlab::LabelStore> store_;
  std::string spec_;
  query::NodeTable table_;
  // By node id (ids are dense and never reused); both handles are invalid
  // for ids with no live node.
  std::vector<LeafPair> leaves_;
};

}  // namespace docstore
}  // namespace ltree

#endif  // LTREE_DOCSTORE_LABELED_DOCUMENT_H_
