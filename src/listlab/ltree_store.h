// LabelStore implementations for the paper's two L-Tree variants, so the
// docstore, benches and tests can drive every scheme with the same op
// stream and no leaked core types.
//
// Both stores implement the lock-free side of the LabelStore concurrency
// contract (concurrency_mode() == kLockFreeReads): per-handle state lives
// in a ConcurrentSlotTable whose slots are plain atomics, leaf labels and
// cookies are AtomicCells inside epoch-protected nodes, and each store owns
// the epoch::EpochManager its tree retires freed nodes through. Readers
// holding a ReadGuard therefore never block, and never observe a recycled
// node mid-read.

#ifndef LTREE_LISTLAB_LTREE_STORE_H_
#define LTREE_LISTLAB_LTREE_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>

#include "core/atomic_cell.h"
#include "core/epoch.h"
#include "core/ltree.h"
#include "core/slot_table.h"
#include "listlab/order_maintainer.h"
#include "virtual_ltree/virtual_ltree.h"

namespace ltree {
namespace listlab {

/// Materialized L-Tree behind the LabelStore interface. Handles map to leaf
/// nodes internally; erase tombstones (Section 2.3), optionally purged at
/// the next covering split when Params::purge_tombstones_on_split is set.
class LTreeStore : public LabelStore, private RelabelListener {
 public:
  static Result<std::unique_ptr<LTreeStore>> Make(const Params& params);
  ~LTreeStore() override;

  std::string name() const override;
  EraseSemantics erase_semantics() const override {
    return tree_->params().purge_tombstones_on_split
               ? EraseSemantics::kTombstonePurge
               : EraseSemantics::kTombstone;
  }
  ConcurrencyMode concurrency_mode() const override {
    return ConcurrencyMode::kLockFreeReads;
  }
  Result<Label> GetLabel(ItemHandle h) const override;
  Result<LeafCookie> GetCookie(ItemHandle h) const override;
  uint64_t size() const override { return tree_->num_live_leaves(); }
  uint32_t label_bits() const override { return tree_->label_bits(); }
  uint64_t ApproxHeapBytes() const override {
    return tree_->ApproxHeapBytes() + slots_.ApproxHeapBytes();
  }
  const MaintStats& stats() const override;
  void ResetStats() override;

  /// Deep validator: audits the wrapped L-Tree (LTree::Validate) with its
  /// epoch manager (arena conservation counts epoch-pending nodes; the
  /// `epoch-reclamation` rule proves no retired leaf is still reachable),
  /// then the handle map — every non-erased handle must resolve to a
  /// distinct live leaf and every live leaf must be reachable through
  /// exactly one handle; without purging, erased handles must point at
  /// tombstones.
  audit::Report Validate() const override;

  /// The wrapped tree (read-only; for L-Tree-specific stats in benches).
  const LTree& tree() const { return *tree_; }

 protected:
  Status BulkLoadImpl(std::span<const LeafCookie> cookies,
                      std::vector<ItemHandle>* handles) override;
  Result<ItemHandle> InsertAfterImpl(ItemHandle pos,
                                     LeafCookie cookie) override;
  Result<ItemHandle> InsertBeforeImpl(ItemHandle pos,
                                      LeafCookie cookie) override;
  Result<ItemHandle> PushBackImpl(LeafCookie cookie) override;
  Result<ItemHandle> PushFrontImpl(LeafCookie cookie) override;
  Status InsertBatchAfterImpl(ItemHandle pos,
                              std::span<const LeafCookie> cookies,
                              std::vector<ItemHandle>* handles) override;
  Status InsertBatchBeforeImpl(ItemHandle pos,
                               std::span<const LeafCookie> cookies,
                               std::vector<ItemHandle>* handles) override;
  Status PushBackBatchImpl(std::span<const LeafCookie> cookies,
                           std::vector<ItemHandle>* handles) override;
  Status EraseImpl(ItemHandle h) override;
  // GetLabel/GetCookie read only the atomic slot table and atomic leaf
  // fields, so the guarded reads, which call them directly, are lock-free
  // safe for this store.
  void SnapshotImpl(
      std::vector<std::pair<Label, LeafCookie>>* out) const override;
  epoch::EpochManager* epoch_manager() const override { return &epoch_; }

 private:
  explicit LTreeStore(std::unique_ptr<LTree> tree);
  void OnRelabel(LeafCookie cookie, Label old_label, Label new_label) override;
  Result<LTree::LeafHandle> LiveHandle(ItemHandle h) const;
  ItemHandle Register(LTree::LeafHandle handle,
                      std::vector<ItemHandle>* handles);

  /// Low bit of a slot word. Leaf nodes are PoolArena::kSlotAlign (64)
  /// byte aligned, so the pointer's low bit is free for the erased flag;
  /// one atomic word keeps pointer and flag consistent for readers. An
  /// erased slot's pointer must never be dereferenced — a purge may have
  /// freed the leaf it names.
  static constexpr uintptr_t kErasedBit = 1;

  std::unique_ptr<LTree> tree_;
  /// handle -> tagged leaf pointer (see kErasedBit).
  ConcurrentSlotTable<std::atomic<uintptr_t>> slots_;
  /// Reclamation domain for leaves purged by tree_ (mutable: handed out
  /// from the const epoch_manager() accessor; Pin/Unpin are thread-safe).
  mutable epoch::EpochManager epoch_;
  mutable MaintStats stats_;
};

/// Virtual L-Tree behind the LabelStore interface: no stable positions
/// exist inside the tree (only labels), so the store keeps the
/// handle <-> current-label map over the counted B+-tree, maintained
/// through the tree's RelabelListener.
class VirtualLTreeStore : public LabelStore, private RelabelListener {
 public:
  static Result<std::unique_ptr<VirtualLTreeStore>> Make(const Params& params);
  ~VirtualLTreeStore() override;

  std::string name() const override;
  EraseSemantics erase_semantics() const override {
    return tree_->params().purge_tombstones_on_split
               ? EraseSemantics::kTombstonePurge
               : EraseSemantics::kTombstone;
  }
  ConcurrencyMode concurrency_mode() const override {
    return ConcurrencyMode::kLockFreeReads;
  }
  Result<Label> GetLabel(ItemHandle h) const override;
  Result<LeafCookie> GetCookie(ItemHandle h) const override;
  uint64_t size() const override { return tree_->num_live_leaves(); }
  uint32_t label_bits() const override { return tree_->label_bits(); }
  uint64_t ApproxHeapBytes() const override {
    return tree_->ApproxMemoryBytes() + slots_.ApproxHeapBytes();
  }
  const MaintStats& stats() const override;
  void ResetStats() override;

  /// Deep validator: audits the wrapped virtual tree (and its backing
  /// counted B+-tree, whose arena conservation and `epoch-reclamation`
  /// rules account for epoch-pending nodes), then the cookie <-> label
  /// bijection — every non-erased handle's label must exist in the
  /// B+-tree, map back to that handle, and be live; handle and tree live
  /// counts must agree.
  audit::Report Validate() const override;

  const VirtualLTree& tree() const { return *tree_; }

 protected:
  Status BulkLoadImpl(std::span<const LeafCookie> cookies,
                      std::vector<ItemHandle>* handles) override;
  Result<ItemHandle> InsertAfterImpl(ItemHandle pos,
                                     LeafCookie cookie) override;
  Result<ItemHandle> InsertBeforeImpl(ItemHandle pos,
                                      LeafCookie cookie) override;
  Result<ItemHandle> PushBackImpl(LeafCookie cookie) override;
  Result<ItemHandle> PushFrontImpl(LeafCookie cookie) override;
  Status InsertBatchAfterImpl(ItemHandle pos,
                              std::span<const LeafCookie> cookies,
                              std::vector<ItemHandle>* handles) override;
  Status InsertBatchBeforeImpl(ItemHandle pos,
                               std::span<const LeafCookie> cookies,
                               std::vector<ItemHandle>* handles) override;
  Status PushBackBatchImpl(std::span<const LeafCookie> cookies,
                           std::vector<ItemHandle>* handles) override;
  Status EraseImpl(ItemHandle h) override;
  void SnapshotImpl(
      std::vector<std::pair<Label, LeafCookie>>* out) const override;
  epoch::EpochManager* epoch_manager() const override { return &epoch_; }

 private:
  /// Per-handle state, one published slot per handle ever issued. All
  /// fields are atomic so guarded readers can load them lock-free; the
  /// writer keeps label current through OnRelabel until the item is
  /// erased, after which nothing reads it.
  struct VSlot {
    AtomicCell<Label> label;
    AtomicCell<LeafCookie> cookie;
    std::atomic<bool> erased{false};
  };

  explicit VirtualLTreeStore(std::unique_ptr<VirtualLTree> tree);
  void OnRelabel(LeafCookie cookie, Label old_label, Label new_label) override;
  Result<Label> CurrentLabel(ItemHandle h) const;
  /// Reserves unpublished slots for k fresh items; returns the first new
  /// handle. Published by the Run* helpers only after the labels landed.
  ItemHandle Reserve(std::span<const LeafCookie> cookies);
  void Unreserve(uint64_t k);
  /// Shared reserve -> run tree op (fed the reserved handles as tree
  /// cookies) -> record labels / roll back plumbing behind every insert.
  template <typename Op>
  Status RunBatch(std::span<const LeafCookie> cookies,
                  std::vector<ItemHandle>* handles, Op&& op);
  template <typename Op>
  Result<ItemHandle> RunSingle(LeafCookie cookie, Op&& op);

  std::unique_ptr<VirtualLTree> tree_;
  ConcurrentSlotTable<VSlot> slots_;  // handle -> (label, cookie, erased)
  /// Reclamation domain for the backing B+-tree's freed nodes (mutable:
  /// handed out from the const epoch_manager() accessor).
  mutable epoch::EpochManager epoch_;
  mutable MaintStats stats_;
};

}  // namespace listlab
}  // namespace ltree

#endif  // LTREE_LISTLAB_LTREE_STORE_H_
