#include "query/node_table.h"

#include <algorithm>

#include "common/macros.h"
#include "common/string_util.h"
#include "core/simd_search.h"

namespace ltree {
namespace query {

namespace {

unsigned long long Ull(uint64_t v) {
  return static_cast<unsigned long long>(v);
}

Status UnknownId() { return Status::NotFound("unknown node id"); }

}  // namespace

void NodeTable::Add(NodeRow row) {
  LTREE_CHECK(!finalized_);
  staged_.push_back(std::move(row));
  ++live_count_;
}

Status NodeTable::Finalize() {
  if (finalized_) return Status::FailedPrecondition("already finalized");
  finalized_ = true;
  // In start order every row lands at the tail of its tag index.
  std::sort(staged_.begin(), staged_.end(),
            [](const NodeRow& a, const NodeRow& b) {
              return a.region.start < b.region.start;
            });
  std::vector<NodeRow> staged = std::move(staged_);
  staged_.clear();
  live_count_ = 0;
  for (NodeRow& row : staged) LTREE_RETURN_IF_ERROR(Insert(std::move(row)));
  return Status::OK();
}

NodeTable::Slot NodeTable::NewSlot() {
  if (!free_slots_.empty()) {
    const Slot slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  const Slot slot = static_cast<Slot>(keys_.size());
  keys_.emplace_back();
  links_.emplace_back();
  if ((slot & kChunkMask) == 0) {
    chunks_.push_back(std::make_unique<NodeRow[]>(size_t{1} << kChunkBits));
  }
  return slot;
}

uint32_t NodeTable::InternTag(const std::string& tag) {
  const auto [it, fresh] =
      tag_ids_.try_emplace(tag, static_cast<uint32_t>(tag_index_.size()));
  if (fresh) tag_index_.emplace_back();
  return it->second;
}

uint32_t NodeTable::LowerBound(const std::vector<Slot>& index,
                               Label start) const {
  // Appends (bulk load, insertion at the end of the document) skip the
  // search.
  if (index.empty() || keys_[index.back()].start < start) {
    return static_cast<uint32_t>(index.size());
  }
  return search::LowerBoundBy(
      index.data(), static_cast<uint32_t>(index.size()), start,
      [this](Slot s) { return keys_[s].start; });
}

Status NodeTable::UpdateStart(xml::NodeId id, Label start) {
  const Slot slot = SlotOf(id);
  if (slot == kNoSlot) return UnknownId();
  keys_[slot].start = start;
  mutable_row(slot).region.start = start;
  return Status::OK();
}

Status NodeTable::UpdateEnd(xml::NodeId id, Label end) {
  const Slot slot = SlotOf(id);
  if (slot == kNoSlot) return UnknownId();
  keys_[slot].end = end;
  mutable_row(slot).region.end = end;
  return Status::OK();
}

Status NodeTable::Insert(NodeRow row) {
  if (!finalized_) {
    Add(std::move(row));
    return Status::OK();
  }
  if (row.region.start >= row.region.end) {
    return Status::InvalidArgument(
        StrFormat("malformed region for node %llu", Ull(row.id)));
  }
  if (SlotOf(row.id) != kNoSlot) {
    return Status::AlreadyExists(
        StrFormat("duplicate node id %llu", Ull(row.id)));
  }
  const Slot slot = NewSlot();
  Key& key = keys_[slot];
  key = Key{row.region.start, row.region.end, row.level,
            row.is_text ? kTextTag : InternTag(row.tag)};
  if (row.id >= slot_of_id_.size()) slot_of_id_.resize(row.id + 1, kNoSlot);
  slot_of_id_[row.id] = slot;
  if (!row.is_text) {
    std::vector<Slot>& index = tag_index_[key.tag];
    index.insert(index.begin() + LowerBound(index, key.start), slot);
  }
  if (row.parent_id != 0) {
    if (row.parent_id >= first_child_.size()) {
      first_child_.resize(row.parent_id + 1, kNoSlot);
    }
    Slot& head = first_child_[row.parent_id];
    links_[slot] = Links{kNoSlot, head};
    if (head != kNoSlot) links_[head].prev = slot;
    head = slot;
  }
  mutable_row(slot) = std::move(row);
  ++live_count_;
  return Status::OK();
}

Status NodeTable::Erase(xml::NodeId id) {
  const Slot slot = SlotOf(id);
  if (slot == kNoSlot) return UnknownId();
  Key& key = keys_[slot];
  if (key.tag != kTextTag) {
    std::vector<Slot>& index = tag_index_[key.tag];
    const uint32_t pos = LowerBound(index, key.start);
    if (pos == index.size() || index[pos] != slot) {
      return Status::Corruption(StrFormat(
          "node %llu is not at its start label in the tag index", Ull(id)));
    }
    index.erase(index.begin() + pos);
  }
  NodeRow& row = mutable_row(slot);
  if (row.parent_id != 0) {
    const Links links = links_[slot];
    if (links.prev != kNoSlot) {
      links_[links.prev].next = links.next;
    } else {
      first_child_[row.parent_id] = links.next;
    }
    if (links.next != kNoSlot) links_[links.next].prev = links.prev;
  }
  slot_of_id_[id] = kNoSlot;
  row = NodeRow{};
  key = Key{0, 0, 0, kFreeSlot};
  links_[slot] = Links{};
  free_slots_.push_back(slot);
  --live_count_;
  return Status::OK();
}

Result<const NodeRow*> NodeTable::Find(xml::NodeId id) const {
  const Slot slot = SlotOf(id);
  if (slot == kNoSlot) return UnknownId();
  return &row(slot);
}

std::span<const NodeTable::Slot> NodeTable::TagSlots(
    const std::string& tag) const {
  auto it = tag_ids_.find(tag);
  if (it == tag_ids_.end()) return {};
  return tag_index_[it->second];
}

std::vector<NodeTable::Slot> NodeTable::AllElementSlots() const {
  // Concatenate the sorted tag indexes, then merge neighbouring runs pairwise
  // until one is left: O(n log t) for t tags.
  std::vector<Slot> out;
  std::vector<size_t> run_ends;
  for (const std::vector<Slot>& index : tag_index_) {
    if (index.empty()) continue;
    out.insert(out.end(), index.begin(), index.end());
    run_ends.push_back(out.size());
  }
  const auto by_start = [this](Slot a, Slot b) {
    return keys_[a].start < keys_[b].start;
  };
  Slot* const base = out.data();
  while (run_ends.size() > 1) {
    std::vector<size_t> merged;
    for (size_t i = 1; i < run_ends.size(); i += 2) {
      const size_t begin = i >= 2 ? run_ends[i - 2] : 0;
      std::inplace_merge(base + begin, base + run_ends[i - 1],
                         base + run_ends[i], by_start);
      merged.push_back(run_ends[i]);
    }
    if (run_ends.size() % 2 == 1) merged.push_back(run_ends.back());
    run_ends = std::move(merged);
  }
  return out;
}

std::vector<const NodeRow*> NodeTable::ByTag(const std::string& tag) const {
  std::vector<const NodeRow*> out;
  const std::span<const Slot> slots = TagSlots(tag);
  out.reserve(slots.size());
  for (const Slot slot : slots) out.push_back(&row(slot));
  return out;
}

std::vector<const NodeRow*> NodeTable::AllElements() const {
  std::vector<const NodeRow*> out;
  const std::vector<Slot> slots = AllElementSlots();
  out.reserve(slots.size());
  for (const Slot slot : slots) out.push_back(&row(slot));
  return out;
}

std::vector<const NodeRow*> NodeTable::ChildrenOf(xml::NodeId parent) const {
  std::vector<const NodeRow*> out;
  if (parent >= first_child_.size()) return out;
  for (Slot s = first_child_[parent]; s != kNoSlot; s = links_[s].next) {
    out.push_back(&row(s));
  }
  return out;
}

audit::Report NodeTable::Validate() const {
  audit::Report report;
  const std::string path = "table:/";
  // row-key and id-map, slot by slot.
  uint64_t live = 0;
  for (Slot s = 0; s < keys_.size(); ++s) {
    const Key& key = keys_[s];
    if (key.tag == kFreeSlot) continue;
    ++live;
    const NodeRow& r = row(s);
    const auto tag = tag_ids_.find(r.tag);
    const uint32_t want_tag = r.is_text               ? kTextTag
                              : tag == tag_ids_.end() ? kFreeSlot
                                                      : tag->second;
    if (r.region.start >= r.region.end || key.start != r.region.start ||
        key.end != r.region.end || key.level != r.level ||
        key.tag != want_tag) {
      report.Add(path + std::to_string(s), "row-key",
                 StrFormat("node %llu: key (%llu, %llu, level %d, tag %u) "
                           "vs row (%llu, %llu, level %d)",
                           Ull(r.id), Ull(key.start), Ull(key.end), key.level,
                           key.tag, Ull(r.region.start), Ull(r.region.end),
                           r.level));
    }
    if (SlotOf(r.id) != s) {
      report.Add(path + std::to_string(s), "id-map",
                 StrFormat("live node %llu does not map to its slot",
                           Ull(r.id)));
    }
  }
  for (xml::NodeId id = 0; id < slot_of_id_.size(); ++id) {
    const Slot s = slot_of_id_[id];
    if (s == kNoSlot) continue;
    if (s >= keys_.size() || keys_[s].tag == kFreeSlot || row(s).id != id) {
      report.Add(path, "id-map",
                 StrFormat("node %llu maps to slot %u, which does not hold "
                           "it",
                           Ull(id), s));
    }
  }
  if (finalized_ && live != live_count_) {
    report.Add(path, "id-map",
               StrFormat("size() is %llu but %llu slots are live",
                         Ull(live_count_), Ull(live)));
  }

  // tag-index-membership and tag-index-order.
  std::vector<uint32_t> seen(keys_.size(), 0);
  for (uint32_t t = 0; t < tag_index_.size(); ++t) {
    const std::vector<Slot>& index = tag_index_[t];
    for (size_t i = 0; i < index.size(); ++i) {
      const Slot s = index[i];
      if (s >= keys_.size() || keys_[s].tag != t) {
        report.Add(path, "tag-index-membership",
                   StrFormat("tag %u index holds slot %u, which is not a "
                             "live row of that tag",
                             t, s));
        continue;
      }
      ++seen[s];
      if (i > 0 && index[i - 1] < keys_.size() &&
          keys_[index[i - 1]].start >= keys_[s].start) {
        report.Add(path + std::to_string(s), "tag-index-order",
                   StrFormat("tag %u index not increasing at position %zu",
                             t, i));
      }
    }
  }
  for (Slot s = 0; s < keys_.size(); ++s) {
    const uint32_t tag = keys_[s].tag;
    if (tag != kFreeSlot && tag != kTextTag && seen[s] != 1) {
      report.Add(path + std::to_string(s), "tag-index-membership",
                 StrFormat("node %llu appears %u times in its tag index",
                           Ull(row(s).id), seen[s]));
    }
  }

  // parent-index: walk every child list, then account for every child.
  std::fill(seen.begin(), seen.end(), 0);
  for (xml::NodeId parent = 0; parent < first_child_.size(); ++parent) {
    Slot prev = kNoSlot;
    for (Slot s = first_child_[parent]; s != kNoSlot; s = links_[s].next) {
      if (s >= keys_.size() || keys_[s].tag == kFreeSlot ||
          row(s).parent_id != parent || links_[s].prev != prev ||
          seen[s]++ != 0) {
        report.Add(path, "parent-index",
                   StrFormat("child list of node %llu is broken at slot %u",
                             Ull(parent), s));
        break;
      }
      prev = s;
    }
  }
  for (Slot s = 0; s < keys_.size(); ++s) {
    if (keys_[s].tag != kFreeSlot && row(s).parent_id != 0 && seen[s] == 0) {
      report.Add(path + std::to_string(s), "parent-index",
                 StrFormat("node %llu is missing from the child list of "
                           "node %llu",
                           Ull(row(s).id), Ull(row(s).parent_id)));
    }
  }
  return report;
}

}  // namespace query
}  // namespace ltree
