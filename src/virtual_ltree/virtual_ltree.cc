#include "virtual_ltree/virtual_ltree.h"

#include <algorithm>
#include <limits>

#include "common/macros.h"
#include "common/math_util.h"
#include "common/string_util.h"
#include "core/simd_search.h"

namespace ltree {

std::string VirtualLTreeStats::ToString() const {
  return StrFormat(
      "VirtualLTreeStats{inserts=%llu batch_leaves=%llu deletes=%llu "
      "splits=%llu root_splits=%llu escalations=%llu relabel_passes=%llu "
      "coalesced_regions=%llu range_counts=%llu "
      "labels_rewritten=%llu purged=%llu nodes_allocated=%llu "
      "nodes_reused=%llu nodes_released=%llu arena_chunks=%llu}",
      static_cast<unsigned long long>(inserts),
      static_cast<unsigned long long>(batch_leaves),
      static_cast<unsigned long long>(deletes),
      static_cast<unsigned long long>(splits),
      static_cast<unsigned long long>(root_splits),
      static_cast<unsigned long long>(escalations),
      static_cast<unsigned long long>(relabel_passes),
      static_cast<unsigned long long>(coalesced_regions),
      static_cast<unsigned long long>(range_counts),
      static_cast<unsigned long long>(labels_rewritten),
      static_cast<unsigned long long>(tombstones_purged),
      static_cast<unsigned long long>(nodes_allocated),
      static_cast<unsigned long long>(nodes_reused),
      static_cast<unsigned long long>(nodes_released),
      static_cast<unsigned long long>(arena_chunks));
}

const VirtualLTreeStats& VirtualLTree::stats() const {
  const PoolArenaStats& a = btree_.arena_stats();
  stats_.nodes_allocated = a.fresh_allocs - arena_base_.fresh_allocs;
  stats_.nodes_reused = a.reused_allocs - arena_base_.reused_allocs;
  stats_.nodes_released = a.releases - arena_base_.releases;
  stats_.arena_chunks = a.chunks - arena_base_.chunks;
  return stats_;
}

void VirtualLTree::ResetStats() {
  stats_ = VirtualLTreeStats();
  arena_base_ = btree_.arena_stats();
}

VirtualLTree::VirtualLTree(const Params& params, PowerTable powers)
    : params_(params), powers_(std::move(powers)) {}

Result<std::unique_ptr<VirtualLTree>> VirtualLTree::Create(
    const Params& params) {
  LTREE_ASSIGN_OR_RETURN(PowerTable powers, PowerTable::Make(params));
  return std::unique_ptr<VirtualLTree>(
      new VirtualLTree(params, std::move(powers)));
}

Label VirtualLTree::TruncTo(Label x, uint32_t h) const {
  return x - x % powers_.PowF1(h);
}

uint64_t VirtualLTree::DigitAt(Label x, uint32_t h) const {
  return (x / powers_.PowF1(h)) % (params_.f + 1);
}

// --------------------------------------------------------------------------
// Label assignment (mirror of LTree::BuildOverLeaves + Relabel)
// --------------------------------------------------------------------------

void VirtualLTree::AssignOver(uint64_t count, uint32_t height, Label base,
                              std::vector<Label>* out) const {
  if (height == 0) {
    LTREE_CHECK(count == 1);
    out->push_back(base);
    return;
  }
  const uint64_t seg_cap = powers_.PowD(height - 1);
  const uint64_t m = CeilDiv(count, seg_cap);
  const uint64_t seg_base = count / m;
  const uint64_t rem = count % m;
  for (uint64_t i = 0; i < m; ++i) {
    const uint64_t len = seg_base + (i < rem ? 1 : 0);
    AssignOver(len, height - 1, base + i * powers_.PowF1(height - 1), out);
  }
}

// --------------------------------------------------------------------------
// Loading
// --------------------------------------------------------------------------

Status VirtualLTree::BulkLoad(std::span<const LeafCookie> cookies,
                              std::vector<Label>* labels) {
  if (btree_.size() != 0) {
    return Status::FailedPrecondition(
        "BulkLoad requires an empty virtual L-Tree");
  }
  const uint64_t n = cookies.size();
  if (n == 0) return Status::OK();
  const uint32_t h0 = std::max(1u, CeilLog(params_.d(), n));
  if (h0 > powers_.max_height()) {
    return Status::CapacityExceeded("bulk load exceeds 64-bit label space");
  }
  std::vector<Label> assigned;
  assigned.reserve(n);
  AssignOver(n, h0, 0, &assigned);
  std::vector<obtree::Entry> entries;
  entries.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    entries.push_back({assigned[i], PackValue(cookies[i], false)});
  }
  LTREE_RETURN_IF_ERROR(btree_.BulkBuild(entries));
  height_ = h0;
  live_leaves_ = n;
  if (labels != nullptr) {
    labels->insert(labels->end(), assigned.begin(), assigned.end());
  }
  return Status::OK();
}

// --------------------------------------------------------------------------
// Maintenance
// --------------------------------------------------------------------------

Status VirtualLTree::EnsureCapacityFor(uint64_t k) const {
  auto l_new_opt = CheckedAdd(btree_.size(), k);
  if (!l_new_opt) {
    return Status::CapacityExceeded("slot count would overflow uint64");
  }
  const uint64_t l_new = *l_new_opt;
  for (uint32_t h = height_; h <= powers_.max_height(); ++h) {
    if (l_new < powers_.LeafBudget(h) &&
        CeilDiv(l_new, powers_.PowD(h - 1)) <= params_.f) {
      return Status::OK();
    }
  }
  return Status::CapacityExceeded("insertion exceeds 64-bit label space");
}

uint64_t VirtualLTree::MaybePurge(std::vector<obtree::Entry>* entries) {
  if (!params_.purge_tombstones_on_split) return 0;
  uint64_t live = 0;
  for (const auto& e : *entries) {
    if (e.key == kInvalidLabel || !UnpackDeleted(e.value)) ++live;
  }
  if (live == entries->size()) return 0;
  std::vector<obtree::Entry> kept;
  kept.reserve(std::max<uint64_t>(live, 1));
  if (live == 0) {
    kept.push_back(entries->front());
  } else {
    for (const auto& e : *entries) {
      if (e.key == kInvalidLabel || !UnpackDeleted(e.value)) {
        kept.push_back(e);
      }
    }
  }
  const uint64_t purged = entries->size() - kept.size();
  stats_.tombstones_purged += purged;
  *entries = std::move(kept);
  return purged;
}

void VirtualLTree::Relabeled(const obtree::Entry& old, Label new_label) {
  // A tombstone's relabel is paper cost, but nobody can read it.
  ++stats_.labels_rewritten;
  if (listener_ != nullptr && !UnpackDeleted(old.value)) {
    listener_->OnRelabel(UnpackCookie(old.value), old.key, new_label);
  }
}

Status VirtualLTree::RebuildWithPending(uint32_t vh, Label anchor,
                                        Label insert_before_key,
                                        std::span<const obtree::Entry> pending,
                                        std::vector<Label>* fresh_labels) {
  const uint64_t k = pending.size();

  // ---- plan: coalesce the escalation chain without touching the tree ----
  //
  // Mirrors LTree::PlanInsertAt decision-for-decision: walk up from the
  // violator while replacing the interval by m pieces would overflow the
  // parent interval's fanout, projecting the post-insert (and post-purge)
  // occupancy per level with counting-tree probes instead of building the
  // whole candidate region once per level.
  uint32_t h = vh;
  uint32_t levels_coalesced = 0;
  uint64_t region_leaves = 0;
  uint64_t region_pieces = 0;
  bool rebuild_root = false;
  for (;;) {
    if (h >= height_) {
      rebuild_root = true;
      break;
    }
    const Label v_base = TruncTo(anchor, h);
    const uint64_t interval = powers_.PowF1(h);
    uint64_t l = k;
    if (params_.purge_tombstones_on_split) {
      // The purge projection needs the tombstone count, which only a scan
      // of the interval can see (the counting tree counts slots).
      for (const auto& e : btree_.Scan(v_base, v_base + interval)) {
        if (!UnpackDeleted(e.value)) ++l;
      }
    } else {
      l += btree_.RangeCount(v_base, v_base + interval);
      ++stats_.range_counts;
    }
    const uint64_t m = CeilDiv(l, powers_.PowD(h));
    const Label q_base = TruncTo(anchor, h + 1);
    const uint64_t q_interval = powers_.PowF1(h + 1);
    // Children of the parent interval after replacing v by m pieces.
    auto last_in_q = btree_.Predecessor(
        q_base > std::numeric_limits<Label>::max() - q_interval
            ? std::numeric_limits<Label>::max()
            : q_base + q_interval);
    LTREE_CHECK(last_in_q.ok());
    const uint64_t c_before = DigitAt(last_in_q->key, h) + 1;
    if (c_before - 1 + m <= static_cast<uint64_t>(params_.f) + 1) {
      region_leaves = l;
      region_pieces = m;
      break;
    }
    // Fanout overflow: fold this level into the region, exactly like the
    // materialized planner (only reachable through batch insertions).
    ++levels_coalesced;
    h += 1;
  }
  stats_.escalations += levels_coalesced;
  if (levels_coalesced > 0) ++stats_.coalesced_regions;

  // ---- apply: build and write back the coalesced region exactly once ----

  if (rebuild_root) {
    // Root split (Algorithm 1 lines 18-20): collect everything, grow the
    // height, reassign all labels from 0.
    std::vector<obtree::Entry> all = btree_.ScanAll();
    const size_t r = search::LowerBoundBy(
        all.data(), static_cast<uint32_t>(all.size()), insert_before_key,
        [](const obtree::Entry& e) { return e.key; });
    std::vector<obtree::Entry> combined;
    combined.reserve(all.size() + pending.size());
    combined.insert(combined.end(), all.begin(), all.begin() + r);
    for (const auto& p : pending) {
      combined.push_back({kInvalidLabel, p.value});
    }
    combined.insert(combined.end(), all.begin() + r, all.end());
    MaybePurge(&combined);

    const uint64_t l = combined.size();
    uint32_t new_height = 0;
    for (uint32_t hh = height_; hh <= powers_.max_height(); ++hh) {
      if (l < powers_.LeafBudget(hh) &&
          CeilDiv(l, powers_.PowD(hh - 1)) <= params_.f) {
        new_height = hh;
        break;
      }
    }
    LTREE_CHECK(new_height >= 1);  // guaranteed by EnsureCapacityFor

    std::vector<Label> assigned;
    assigned.reserve(l);
    AssignOver(l, new_height, 0, &assigned);
    std::vector<obtree::Entry> rebuilt;
    rebuilt.reserve(l);
    for (uint64_t i = 0; i < l; ++i) {
      const obtree::Entry& old = combined[i];
      rebuilt.push_back({assigned[i], old.value});
      if (old.key == kInvalidLabel) {
        if (fresh_labels != nullptr) fresh_labels->push_back(assigned[i]);
      } else if (old.key != assigned[i]) {
        Relabeled(old, assigned[i]);
      }
    }
    // The root split is a whole-tree range replacement; ReplaceRange
    // recognizes it and rebuilds through the node pool in one pass.
    LTREE_RETURN_IF_ERROR(btree_.ReplaceRange(
        0, std::numeric_limits<Label>::max(), rebuilt));
    height_ = new_height;
    ++stats_.root_splits;
    ++stats_.relabel_passes;
    return Status::OK();
  }

  const Label v_base = TruncTo(anchor, h);
  const uint64_t interval = powers_.PowF1(h);
  const Label q_base = TruncTo(anchor, h + 1);
  const uint64_t q_interval = powers_.PowF1(h + 1);

  std::vector<obtree::Entry> olds = btree_.Scan(v_base, v_base + interval);
  const size_t r = search::LowerBoundBy(
      olds.data(), static_cast<uint32_t>(olds.size()), insert_before_key,
      [](const obtree::Entry& e) { return e.key; });
  std::vector<obtree::Entry> combined;
  combined.reserve(olds.size() + pending.size());
  combined.insert(combined.end(), olds.begin(), olds.begin() + r);
  for (const auto& p : pending) {
    combined.push_back({kInvalidLabel, p.value});
  }
  combined.insert(combined.end(), olds.begin() + r, olds.end());
  MaybePurge(&combined);

  const uint64_t l = combined.size();
  LTREE_CHECK(l == region_leaves);  // the plan's projection was exact
  const uint64_t m = region_pieces;
  const uint64_t jv = DigitAt(v_base, h);

  // New labels: m pieces based at child indices jv .. jv+m-1 of q_base,
  // then v's right siblings shifted up by (m-1) child slots.
  std::vector<Label> assigned;
  assigned.reserve(l);
  {
    const uint64_t seg_base = l / m;
    const uint64_t rem = l % m;
    for (uint64_t i = 0; i < m; ++i) {
      const uint64_t len = seg_base + (i < rem ? 1 : 0);
      AssignOver(len, h, q_base + (jv + i) * interval, &assigned);
    }
  }
  std::vector<obtree::Entry> rebuilt;
  rebuilt.reserve(l);
  for (uint64_t i = 0; i < l; ++i) {
    const obtree::Entry& old = combined[i];
    rebuilt.push_back({assigned[i], old.value});
    if (old.key == kInvalidLabel) {
      if (fresh_labels != nullptr) fresh_labels->push_back(assigned[i]);
    } else if (old.key != assigned[i]) {
      Relabeled(old, assigned[i]);
    }
  }
  // Right siblings of v within the parent interval shift wholesale.
  std::vector<obtree::Entry> sibs =
      btree_.Scan(v_base + interval, q_base + q_interval);
  const uint64_t shift = (m - 1) * interval;
  for (const auto& sib : sibs) {
    rebuilt.push_back({sib.key + shift, sib.value});
    if (shift != 0) Relabeled(sib, sib.key + shift);
  }
  LTREE_RETURN_IF_ERROR(
      btree_.ReplaceRange(v_base, q_base + q_interval, rebuilt));
  ++stats_.splits;
  ++stats_.relabel_passes;
  return Status::OK();
}

Status VirtualLTree::InsertCore(Label parent_base, uint64_t j,
                                std::span<const LeafCookie> cookies,
                                std::vector<Label>* labels, bool is_batch) {
  const uint64_t k = cookies.size();
  if (k == 0) return Status::OK();
  LTREE_RETURN_IF_ERROR(EnsureCapacityFor(k));

  // Algorithm 1 walk: find the highest virtual ancestor whose post-insert
  // leaf count reaches its budget.
  uint32_t violator_height = 0;
  bool has_violator = false;
  for (uint32_t h = 1; h <= height_; ++h) {
    const Label base = TruncTo(parent_base, h);
    const uint64_t count =
        btree_.RangeCount(base, base + powers_.PowF1(h)) + k;
    ++stats_.range_counts;
    if (count >= powers_.LeafBudget(h)) {
      violator_height = h;
      has_violator = true;
    }
  }

  std::vector<Label> fresh;
  fresh.reserve(k);
  if (!has_violator) {
    // No split: new leaves take digits j..j+k-1; old children at digits >= j
    // shift right by k (Algorithm 1 lines 12-13).
    const Label slot_end = parent_base + powers_.PowF1(1);
    std::vector<obtree::Entry> olds =
        btree_.Scan(parent_base + j, slot_end);
    std::vector<obtree::Entry> rebuilt;
    rebuilt.reserve(olds.size() + k);
    for (uint64_t i = 0; i < k; ++i) {
      const Label lab = parent_base + j + i;
      rebuilt.push_back({lab, PackValue(cookies[i], false)});
      fresh.push_back(lab);
    }
    for (const auto& old : olds) {
      const Label shifted = old.key + k;
      LTREE_CHECK(shifted < slot_end);
      rebuilt.push_back({shifted, old.value});
      Relabeled(old, shifted);
    }
    LTREE_RETURN_IF_ERROR(
        btree_.ReplaceRange(parent_base + j, slot_end, rebuilt));
    ++stats_.relabel_passes;  // the no-split sibling shift is one pass
  } else {
    std::vector<obtree::Entry> pending;
    pending.reserve(k);
    for (uint64_t i = 0; i < k; ++i) {
      pending.push_back({kInvalidLabel, PackValue(cookies[i], false)});
    }
    LTREE_RETURN_IF_ERROR(RebuildWithPending(
        violator_height, parent_base, parent_base + j, pending, &fresh));
  }

  live_leaves_ += k;
  if (is_batch) {
    ++stats_.batch_inserts;
    stats_.batch_leaves += k;
  } else {
    ++stats_.inserts;
  }
  if (labels != nullptr) {
    labels->insert(labels->end(), fresh.begin(), fresh.end());
  }
  return Status::OK();
}

// --------------------------------------------------------------------------
// Public update entry points
// --------------------------------------------------------------------------

Result<Label> VirtualLTree::InsertAfter(Label prev, LeafCookie cookie) {
  if (!btree_.Contains(prev)) {
    return Status::NotFound("no leaf with the given label");
  }
  std::vector<Label> out;
  const LeafCookie cookies[1] = {cookie};
  LTREE_RETURN_IF_ERROR(InsertCore(TruncTo(prev, 1), DigitAt(prev, 0) + 1,
                                   cookies, &out, /*is_batch=*/false));
  return out[0];
}

Result<Label> VirtualLTree::InsertBefore(Label next, LeafCookie cookie) {
  if (!btree_.Contains(next)) {
    return Status::NotFound("no leaf with the given label");
  }
  std::vector<Label> out;
  const LeafCookie cookies[1] = {cookie};
  LTREE_RETURN_IF_ERROR(InsertCore(TruncTo(next, 1), DigitAt(next, 0),
                                   cookies, &out, /*is_batch=*/false));
  return out[0];
}

Result<Label> VirtualLTree::PushBack(LeafCookie cookie) {
  if (btree_.size() == 0) {
    std::vector<Label> out;
    const LeafCookie cookies[1] = {cookie};
    LTREE_RETURN_IF_ERROR(InsertCore(0, 0, cookies, &out,
                                     /*is_batch=*/false));
    return out[0];
  }
  auto last = btree_.Predecessor(std::numeric_limits<Label>::max());
  LTREE_CHECK(last.ok());
  return InsertAfter(last->key, cookie);
}

Result<Label> VirtualLTree::PushFront(LeafCookie cookie) {
  if (btree_.size() == 0) return PushBack(cookie);
  auto first = btree_.LowerBound(0);
  LTREE_CHECK(first.ok());
  return InsertBefore(first->key, cookie);
}

Status VirtualLTree::InsertBatchAfter(Label prev,
                                      std::span<const LeafCookie> cookies,
                                      std::vector<Label>* labels) {
  if (!btree_.Contains(prev)) {
    return Status::NotFound("no leaf with the given label");
  }
  return InsertCore(TruncTo(prev, 1), DigitAt(prev, 0) + 1, cookies, labels,
                    /*is_batch=*/true);
}

Status VirtualLTree::InsertBatchBefore(Label next,
                                       std::span<const LeafCookie> cookies,
                                       std::vector<Label>* labels) {
  if (!btree_.Contains(next)) {
    return Status::NotFound("no leaf with the given label");
  }
  return InsertCore(TruncTo(next, 1), DigitAt(next, 0), cookies, labels,
                    /*is_batch=*/true);
}

Status VirtualLTree::PushBackBatch(std::span<const LeafCookie> cookies,
                                   std::vector<Label>* labels) {
  if (btree_.size() == 0) {
    return InsertCore(0, 0, cookies, labels, /*is_batch=*/true);
  }
  auto last = btree_.Predecessor(std::numeric_limits<Label>::max());
  LTREE_CHECK(last.ok());
  return InsertBatchAfter(last->key, cookies, labels);
}

Status VirtualLTree::MarkDeleted(Label label) {
  LTREE_ASSIGN_OR_RETURN(uint64_t value, btree_.Lookup(label));
  if (UnpackDeleted(value)) {
    return Status::FailedPrecondition("leaf already deleted");
  }
  LTREE_RETURN_IF_ERROR(
      btree_.Update(label, PackValue(UnpackCookie(value), true)));
  --live_leaves_;
  ++stats_.deletes;
  return Status::OK();
}

// --------------------------------------------------------------------------
// Queries
// --------------------------------------------------------------------------

Result<LeafCookie> VirtualLTree::GetCookie(Label label) const {
  LTREE_ASSIGN_OR_RETURN(uint64_t value, btree_.Lookup(label));
  return UnpackCookie(value);
}

Result<bool> VirtualLTree::IsDeleted(Label label) const {
  LTREE_ASSIGN_OR_RETURN(uint64_t value, btree_.Lookup(label));
  return UnpackDeleted(value);
}

Result<Label> VirtualLTree::SelectSlot(uint64_t rank) const {
  LTREE_ASSIGN_OR_RETURN(obtree::Entry e, btree_.Select(rank));
  return e.key;
}

uint64_t VirtualLTree::num_slots() const { return btree_.size(); }

uint64_t VirtualLTree::label_space() const { return powers_.PowF1(height_); }

uint32_t VirtualLTree::label_bits() const {
  return BitWidth(label_space() - 1);
}

std::vector<Label> VirtualLTree::AllLabels() const {
  std::vector<Label> out;
  out.reserve(btree_.size());
  for (const auto& e : btree_.ScanAll()) out.push_back(e.key);
  return out;
}

std::vector<std::pair<Label, LeafCookie>> VirtualLTree::LiveLabels() const {
  std::vector<std::pair<Label, LeafCookie>> out;
  out.reserve(live_leaves_);
  for (const auto& e : btree_.ScanAll()) {
    if (!UnpackDeleted(e.value)) {
      out.emplace_back(e.key, UnpackCookie(e.value));
    }
  }
  return out;
}

uint64_t VirtualLTree::ApproxMemoryBytes() const {
  // Measured, not estimated, now that the B+-tree's nodes live in pool
  // chunks: chunk slots plus every reachable node's buffer capacities.
  return btree_.ApproxHeapBytes();
}

// --------------------------------------------------------------------------
// Invariants
// --------------------------------------------------------------------------

namespace {
struct IntervalFrame {
  Label base;
  uint32_t height;
};
}  // namespace

audit::Report VirtualLTree::Validate() const {
  audit::Report report = btree_.Validate();
  // Tombstone accounting: live counter vs. the actual non-deleted entries.
  uint64_t live = 0;
  for (const obtree::Entry& e : btree_.ScanAll()) {
    if (!UnpackDeleted(e.value)) ++live;
  }
  if (live != live_leaves_) {
    report.Add("virtual:/", "live-count",
               StrFormat("num_live_leaves() %llu != actual live slots %llu",
                         static_cast<unsigned long long>(live_leaves_),
                         static_cast<unsigned long long>(live)));
  }
  if (btree_.size() == 0) return report;
  // Every label fits the current label space.
  auto last = btree_.Predecessor(std::numeric_limits<Label>::max());
  if (last.ok() && last->key >= label_space()) {
    report.Add("virtual:/", "label-space",
               StrFormat("label %llu outside the current label space %llu",
                         static_cast<unsigned long long>(last->key),
                         static_cast<unsigned long long>(label_space())));
  }
  std::vector<IntervalFrame> stack{{0, height_}};
  while (!stack.empty()) {
    const IntervalFrame frame = stack.back();
    stack.pop_back();
    const std::string path =
        StrFormat("virtual:/h%u@%llu", frame.height,
                  static_cast<unsigned long long>(frame.base));
    const uint64_t width = powers_.PowF1(frame.height);
    const uint64_t count = btree_.RangeCount(frame.base, frame.base + width);
    if (count == 0) continue;
    if (frame.height == 0) continue;  // single slot
    if (count >= powers_.LeafBudget(frame.height)) {
      report.Add(path, "leaf-budget",
                 StrFormat("virtual node holds %llu >= budget %llu",
                           static_cast<unsigned long long>(count),
                           static_cast<unsigned long long>(
                               powers_.LeafBudget(frame.height))));
    }
    // Occupied child digits must form a consecutive prefix 0..c-1. Walk
    // only the occupied ones: each LowerBound lands on the first label of
    // the next occupied child, so a node costs O(children * log n), not
    // f + 1 range counts.
    const uint64_t child_width = powers_.PowF1(frame.height - 1);
    uint64_t expected = 0;  // the digit a gap-free prefix occupies next
    bool gap_seen = false;
    for (auto next = btree_.LowerBound(frame.base);
         next.ok() && next->key < frame.base + width;
         next = btree_.LowerBound(frame.base + expected * child_width)) {
      const uint64_t g = (next->key - frame.base) / child_width;
      gap_seen = gap_seen || g != expected;
      if (gap_seen) {
        report.Add(path, "child-gap",
                   StrFormat("occupied child digit %llu follows an empty "
                             "one",
                             static_cast<unsigned long long>(g)));
      }
      stack.push_back({frame.base + g * child_width, frame.height - 1});
      expected = g + 1;
    }
  }
  return report;
}

}  // namespace ltree
