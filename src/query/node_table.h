// Labeled node table: the relational view of an XML document.
//
// This models the paper's motivating setup (Section 1): XML stored in an
// RDBMS as one row per node carrying the (start, end) interval labels
// produced by the labeling structure, its depth and its parent id. With
// interval labels, the ancestor-descendant test is
//     a.start < d.start && d.end < a.end
// so "//" steps become a single label-comparison join; the edge-table
// alternative [11] must chain one parent-id self-join per level.

#ifndef LTREE_QUERY_NODE_TABLE_H_
#define LTREE_QUERY_NODE_TABLE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/params.h"
#include "core/validate.h"
#include "xml/xml_node.h"

namespace ltree {
namespace query {

/// An interval label (begin-tag label, end-tag label).
struct Region {
  Label start = 0;
  Label end = 0;

  /// Strict containment: does this region contain `other`?
  /// (Proposition 1 territory: a is an ancestor of d iff a's interval
  /// includes d's.)
  bool Contains(const Region& other) const {
    return start < other.start && other.end < end;
  }

  bool operator==(const Region& other) const = default;
};

/// One row of the node table.
struct NodeRow {
  xml::NodeId id = 0;
  std::string tag;  ///< empty for text nodes
  Region region;
  int32_t level = 0;          ///< root element = 0
  xml::NodeId parent_id = 0;  ///< 0 for the root
  bool is_text = false;
};

/// In-memory node table. Every row lives in a slot: a stable index into
/// the row storage and into a parallel array of compact 24-byte join keys
/// (start, end, level, tag id). Three indexes sit on top:
///   * the tag index: per interned tag, the slots of its element rows
///     sorted by start label, which is all a structural join scans;
///   * the id map: node id -> slot, a dense array (node ids are dense and
///     never reused);
///   * the parent index: per parent id, a doubly linked list of child
///     slots, so unlinking a child is O(1).
/// Every labeling scheme in this library is order-preserving, so a relabel
/// never reorders a tag index: UpdateStart/UpdateEnd are O(1) writes found
/// through the id map.
///
/// Costs, for a table of n rows and a tag index of k rows: Find, UpdateStart
/// and UpdateEnd O(1); Insert and Erase O(log k) to find the row's position
/// by its current start label plus a memmove of the index tail (4 bytes per
/// row); TagSlots O(1); ByTag O(k); ChildrenOf O(children); AllElements
/// O(n log t) for t tags. Memory for the id map and the parent index is
/// proportional to the largest node id.
///
/// A `const NodeRow*` returned by Find, ByTag, AllElements, ChildrenOf or
/// row() stays valid, and reflects later relabels, until that row is
/// erased; the slot may then be reused by a later Insert. Slot spans from
/// TagSlots are invalidated by the next Insert or Erase.
class NodeTable {
 public:
  /// Index of a row's storage. Slots of erased rows are reused.
  using Slot = uint32_t;

  /// The part of a row a structural join reads, stored contiguously per
  /// slot so a join never touches NodeRow.
  struct Key {
    Label start = 0;
    Label end = 0;
    int32_t level = 0;
    uint32_t tag = 0;  ///< interned tag id of an element row
  };

  /// Stages a row. Call Finalize() before querying.
  void Add(NodeRow row);

  /// Indexes the staged rows. Fails if regions are malformed (start >=
  /// end) or duplicate ids exist.
  Status Finalize();

  /// Rewrites the start label of a node (relabel hook). O(1).
  Status UpdateStart(xml::NodeId id, Label start);
  /// Rewrites the end label of a node (relabel hook). O(1).
  Status UpdateEnd(xml::NodeId id, Label end);

  /// Adds a row after Finalize (used by live documents); stages it before.
  /// The tag index must be sorted, i.e. no relabel pass may be half done.
  Status Insert(NodeRow row);

  /// Removes a row by id and frees its slot for reuse. Same precondition as
  /// Insert.
  Status Erase(xml::NodeId id);

  uint64_t size() const { return live_count_; }

  Result<const NodeRow*> Find(xml::NodeId id) const;

  /// Element rows with this tag, sorted by start label.
  std::vector<const NodeRow*> ByTag(const std::string& tag) const;

  /// All element rows, sorted by start label.
  std::vector<const NodeRow*> AllElements() const;

  /// Direct children of a node (by parent id), in no particular order.
  std::vector<const NodeRow*> ChildrenOf(xml::NodeId parent) const;

  // ------------------------------------------------ columnar access (joins)

  /// Slots of the element rows tagged `tag`, sorted by start label; empty
  /// for an unknown tag.
  std::span<const Slot> TagSlots(const std::string& tag) const;

  /// Slots of all element rows, sorted by start label (a merge of the tag
  /// indexes).
  std::vector<Slot> AllElementSlots() const;

  /// The key and the row of a slot taken from TagSlots or AllElementSlots.
  const Key& key(Slot slot) const { return keys_[slot]; }
  const NodeRow& row(Slot slot) const {
    return chunks_[slot >> kChunkBits][slot & kChunkMask];
  }

  // ---------------------------------------------------------------- checks

  /// Deep validator. Rules:
  ///   * "row-key"       — each live row has start < end and a key equal
  ///     to its region, level and interned tag;
  ///   * "tag-index-membership" — each live element row sits exactly once
  ///     in its tag's index, and the indexes hold nothing else;
  ///   * "tag-index-order" — each tag index is strictly increasing by
  ///     start label;
  ///   * "id-map"        — the id map and the live rows match one to one,
  ///     and size() counts them;
  ///   * "parent-index"  — each parent's child list is well linked and
  ///     holds exactly the live rows whose parent_id is that parent.
  audit::Report Validate() const;

 private:
  friend class NodeTableTestPeer;  // seeds corruptions in negative tests

  // Key::tag of text rows and of free slots.
  static constexpr uint32_t kTextTag = UINT32_MAX - 1;
  static constexpr uint32_t kFreeSlot = UINT32_MAX;
  static constexpr Slot kNoSlot = UINT32_MAX;
  static constexpr uint32_t kChunkBits = 10;
  static constexpr uint32_t kChunkMask = (1u << kChunkBits) - 1;

  /// Neighbours in the parent's child list.
  struct Links {
    Slot prev = kNoSlot;
    Slot next = kNoSlot;
  };

  NodeRow& mutable_row(Slot slot) {
    return chunks_[slot >> kChunkBits][slot & kChunkMask];
  }
  Slot SlotOf(xml::NodeId id) const {
    return id < slot_of_id_.size() ? slot_of_id_[id] : kNoSlot;
  }
  Slot NewSlot();
  uint32_t InternTag(const std::string& tag);
  /// Position of the first slot in `index` whose start is not below
  /// `start` (binary search).
  uint32_t LowerBound(const std::vector<Slot>& index, Label start) const;

  // Row storage in fixed chunks, so row addresses survive growth.
  std::vector<std::unique_ptr<NodeRow[]>> chunks_;
  std::vector<Key> keys_;    // by slot
  std::vector<Links> links_;  // by slot
  std::vector<Slot> free_slots_;
  std::vector<Slot> slot_of_id_;   // by node id
  std::vector<Slot> first_child_;  // by parent node id
  std::unordered_map<std::string, uint32_t> tag_ids_;
  std::vector<std::vector<Slot>> tag_index_;  // by tag id
  std::vector<NodeRow> staged_;  // rows added before Finalize
  uint64_t live_count_ = 0;
  bool finalized_ = false;
};

}  // namespace query
}  // namespace ltree

#endif  // LTREE_QUERY_NODE_TABLE_H_
