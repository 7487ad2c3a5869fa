// LabelStore: the unified order-maintenance / labeling interface.
//
// The paper frames XML label maintenance as "maintenance of an ordered
// list" (Section 2): assign integer labels to list items so that list order
// equals label order, and bound how many labels change per insertion. This
// header defines the single abstract interface every labeling scheme in
// this library implements:
//
//   * the L-Tree, materialized (LTreeStore) and virtual (VirtualLTreeStore)
//     — the paper's contribution (Sections 2-4);
//   * SequentialList — the Section 1 strawman (consecutive integers, suffix
//     shifts on insert, ~n/2 relabels on average);
//   * GapList — fixed gaps of size G, full renumbering when a gap fills;
//   * BenderList — density-scaled aligned-range relabeling in the spirit of
//     the order-maintenance literature the paper cites ([8, 9, 16]).
//
// Items are addressed by opaque, stable ItemHandles assigned by the store
// (no scheme-internal pointers leak), carry a client LeafCookie payload
// (e.g. an XML tag id), and report label changes through a RelabelListener,
// so the whole XML pipeline — parse, node table, label joins, fragment
// edits — can run unchanged over any scheme. Construct stores by spec
// string via listlab::MakeLabelStore (factory.h).
//
// ## Erase semantics
//
// Erase(h) removes the item from the order; the handle becomes invalid and
// every further operation on it fails (double-erase is FailedPrecondition
// in every scheme). What happens to the *label slot* is scheme-specific,
// and deliberately so — it is exactly the trade-off the paper discusses in
// Section 2.3:
//
//   * LTreeStore / VirtualLTreeStore — tombstone: the slot stays occupied
//     and keeps consuming leaf budget, no relabeling happens
//     (EraseSemantics::kTombstone). With Params::purge_tombstones_on_split
//     (spec suffix ":purge") tombstones are physically dropped whenever a
//     split rebuilds the subtree containing them
//     (EraseSemantics::kTombstonePurge).
//   * SequentialList / GapList / BenderList — physical unlink: the item
//     leaves the list immediately and its label value is vacated for reuse
//     by later insertions (EraseSemantics::kPhysical).
//
// Callers that care (benches measuring slot occupancy, the docstore's
// consistency checks) can query erase_semantics(); callers that only need
// "the handle is gone either way" need not.
//
// ## Concurrent reads
//
// Mutations are serialized by the store itself (each public mutation runs
// under an exclusive writer section), and a separate guard-based read API
// lets any number of reader threads run *during* a mutation:
//
//   auto guard = store->AcquireRead();
//   auto label = store->LabelOf(guard, h);
//   auto cmp   = store->CompareOrder(guard, a, b);
//
// How much the guard costs depends on the scheme, reported by
// concurrency_mode():
//
//   * kLockFreeReads (ltree, virtual) — AcquireRead pins an epoch (one CAS;
//     no lock), and LabelOf/CookieOf/CompareOrder never block: they read
//     only atomically published slots and leaf fields, and the epoch keeps
//     any node a reader can still see from being recycled by a concurrent
//     rebuild. CompareOrder reads two labels; a store-wide seqlock makes
//     the pair consistent (readers retry over a relabel instead of
//     blocking).
//   * kSerializedReads (sequential, gap, bender) — AcquireRead takes a
//     shared lock on the writer mutex; reads are correct but exclude
//     writers for the guard's lifetime. Same API, documented fallback.
//
// ScanAll walks the structure, so it briefly takes the shared lock in both
// modes. The plain query methods (GetLabel/GetCookie/Labels/...) keep the
// historical thread-compatible contract: safe concurrently only while no
// thread mutates. stats() and ResetStats() remain writer-side.

#ifndef LTREE_LISTLAB_ORDER_MAINTAINER_H_
#define LTREE_LISTLAB_ORDER_MAINTAINER_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/epoch.h"
#include "core/params.h"
#include "core/relabel_listener.h"
#include "core/validate.h"

namespace ltree {
namespace listlab {

/// Opaque stable item handle (survives relabeling and rebalancing; only
/// Erase and store destruction invalidate it).
using ItemHandle = uint64_t;

/// Never a valid handle.
inline constexpr ItemHandle kInvalidItemHandle = ~ItemHandle{0};

/// How Erase treats the label slot (see the header comment).
enum class EraseSemantics {
  kTombstone,       ///< slot stays occupied forever (L-Tree default)
  kTombstonePurge,  ///< tombstoned, dropped at the next covering rebuild
  kPhysical,        ///< unlinked immediately, label value reusable
};

/// Uniform cost accounting across schemes. "Relabels" is the paper's
/// currency: the number of stored labels that changed.
struct MaintStats {
  uint64_t inserts = 0;  ///< items inserted (batch items count individually)
  uint64_t erases = 0;
  /// Batch insertions performed (one per InsertBatch*/PushBackBatch call
  /// that went down a native batch path; fallback per-item loops count 0).
  uint64_t batch_inserts = 0;
  /// Existing items whose label changed (excludes the inserted item itself).
  uint64_t items_relabeled = 0;
  /// Rebalance/renumber events (splits for the L-Tree, window
  /// redistributions for Bender, full renumberings for Gap/Sequential).
  uint64_t rebalances = 0;

  // ---- plan/apply pipeline (L-Tree schemes; zero elsewhere) ----
  /// Label-rewrite passes run by the mutation path: the L-Tree variants
  /// guarantee exactly one pass per insert/batch — the no-split sibling
  /// relabel or the single pass over the coalesced rebuilt region.
  uint64_t relabel_passes = 0;
  /// Rebuilt regions that absorbed at least one fanout-overflow escalation
  /// (batch insertions only; the planner folds the whole chain into one
  /// region instead of rebuilding level by level).
  uint64_t coalesced_regions = 0;

  // ---- allocator traffic ----
  // Filled by schemes with pooled node storage (the materialized L-Tree's
  // NodeArena); zero for schemes without one. Windowed by ResetStats like
  // every other counter.
  uint64_t nodes_allocated = 0;  ///< fresh pool allocations (heap growth)
  uint64_t nodes_reused = 0;     ///< allocations served by recycling
  uint64_t nodes_released = 0;   ///< nodes returned for recycling

  double RelabelsPerInsert() const {
    return inserts == 0 ? 0.0
                        : static_cast<double>(items_relabeled) /
                              static_cast<double>(inserts);
  }

  std::string ToString() const;
};

/// The unified labeling interface. Mutations are serialized internally
/// (single exclusive writer at a time); reads either use the guard-based
/// concurrent API below or require external quiescence (see the header
/// comment).
class LabelStore {
 public:
  virtual ~LabelStore() = default;

  /// Scheme name for bench tables (e.g. "ltree(f=16,s=4)").
  virtual std::string name() const = 0;

  /// What Erase does to the label slot (see the header comment).
  virtual EraseSemantics erase_semantics() const = 0;

  // ---------------------------------------------------------------- loading

  /// Loads `cookies.size()` items into an empty store in list order
  /// (Section 2.2 bulk load). If `handles` is non-null it receives one
  /// handle per cookie, in order. Does not fire the RelabelListener and
  /// does not count toward the incremental-maintenance statistics.
  Status BulkLoad(std::span<const LeafCookie> cookies,
                  std::vector<ItemHandle>* handles = nullptr);

  /// Convenience: bulk loads n items with cookies 0..n-1.
  Status BulkLoad(uint64_t n, std::vector<ItemHandle>* handles = nullptr);

  // ---------------------------------------------------------------- updates
  //
  // Every mutation below runs under the store's exclusive writer section:
  // it waits out guard-holding readers of serialized schemes, bumps the
  // seqlock so lock-free CompareOrder retries, and ticks the epoch so
  // retired nodes reclaim at quiescence. Callers need no external lock for
  // readers — but concurrent *mutations* still race each other's
  // planning; keep one writer per store (e.g. one writer thread, or the
  // DocumentStore's per-shard writer lock).

  Result<ItemHandle> InsertAfter(ItemHandle pos, LeafCookie cookie);
  Result<ItemHandle> InsertBefore(ItemHandle pos, LeafCookie cookie);
  /// Works on an empty store.
  Result<ItemHandle> PushBack(LeafCookie cookie);
  Result<ItemHandle> PushFront(LeafCookie cookie);

  /// Inserts `cookies.size()` consecutive items right after `pos` (the
  /// paper's Section 4.1 bulk insertion). Appends the new handles to
  /// `handles` if non-null. Schemes with a native batch path (the two
  /// L-Tree variants) pay a single rebalance; the base-class default falls
  /// back to per-item insertion with identical final order. Batches are
  /// all-or-nothing: a mid-batch failure erases the partial prefix before
  /// returning the error.
  Status InsertBatchAfter(ItemHandle pos, std::span<const LeafCookie> cookies,
                          std::vector<ItemHandle>* handles = nullptr);

  /// Batch insertion immediately before `pos`.
  Status InsertBatchBefore(ItemHandle pos, std::span<const LeafCookie> cookies,
                           std::vector<ItemHandle>* handles = nullptr);

  /// Appends a batch at the end (works on an empty store).
  Status PushBackBatch(std::span<const LeafCookie> cookies,
                       std::vector<ItemHandle>* handles = nullptr);

  /// Removes an item from the order (see "Erase semantics" above). Fails
  /// with NotFound for a handle the store never issued and with
  /// FailedPrecondition for an already erased handle — in every scheme.
  Status Erase(ItemHandle h);

  // ------------------------------------------------------ concurrent reads

  /// How cheap AcquireRead and the guard-based reads are for this scheme.
  enum class ConcurrencyMode {
    kLockFreeReads,    ///< epoch pin; reads never block a writer
    kSerializedReads,  ///< shared lock; reads exclude writers while held
  };

  virtual ConcurrencyMode concurrency_mode() const {
    return ConcurrencyMode::kSerializedReads;
  }

  /// Proof-of-protection token for the guard-based reads. Movable; drop it
  /// to release the pin/lock. Guards are cheap but not free — hold one
  /// across a sequence of reads, not per call.
  class ReadGuard {
   public:
    ReadGuard() = default;
    ReadGuard(ReadGuard&&) = default;
    ReadGuard& operator=(ReadGuard&&) = default;

   private:
    friend class LabelStore;
    epoch::ReadGuard pin_;                      // lock-free schemes
    std::shared_lock<std::shared_mutex> lock_;  // serialized fallback
  };

  /// Acquires read protection appropriate for the scheme: an epoch pin
  /// (kLockFreeReads) or a shared lock (kSerializedReads). Thread-safe.
  ReadGuard AcquireRead() const;

  /// Label of a live item, safe against a concurrent writer while `guard`
  /// is held. Same results and errors as GetLabel.
  Result<Label> LabelOf(const ReadGuard& guard, ItemHandle h) const;

  /// Cookie of a live item under a guard. Same results as GetCookie.
  Result<LeafCookie> CookieOf(const ReadGuard& guard, ItemHandle h) const;

  /// List-order comparison of two live items under a guard: -1, 0 or +1 as
  /// `a` precedes, equals or follows `b`. The label pair is read
  /// consistently: lock-free schemes retry over a concurrent relabel via
  /// the store seqlock (falling back to a brief shared lock if a writer
  /// keeps the seqlock hot), serialized schemes already hold the lock.
  Result<int> CompareOrder(const ReadGuard& guard, ItemHandle a,
                           ItemHandle b) const;

  /// (label, cookie) of every live item in list order. Walks the backing
  /// structure, so it briefly takes the shared lock in both modes (the
  /// one guard-based read that can wait on a writer).
  std::vector<std::pair<Label, LeafCookie>> ScanAll(
      const ReadGuard& guard) const;

  // ---------------------------------------------------------------- queries

  /// Current label of a live item. Order of labels == list order.
  /// LabelOf and CompareOrder call this under a guard, so a kLockFreeReads
  /// scheme must implement it with atomic loads only.
  virtual Result<Label> GetLabel(ItemHandle h) const = 0;

  /// The client payload attached at insertion time. CookieOf calls this
  /// under a guard, with the same requirement as GetLabel.
  virtual Result<LeafCookie> GetCookie(ItemHandle h) const = 0;

  /// Live item count.
  virtual uint64_t size() const = 0;

  /// Bits needed to encode the largest label the scheme currently uses.
  virtual uint32_t label_bits() const = 0;

  /// Measured (L-Tree variants: arena chunks + node buffers, one policy
  /// with CountedBTree::ApproxHeapBytes) or estimated (linked-list
  /// schemes: item nodes + handle table) heap footprint in bytes. The
  /// sharded DocumentStore reports this per shard.
  virtual uint64_t ApproxHeapBytes() const = 0;

  /// Live labels in list order (for order-preservation checks): the label
  /// column of SnapshotImpl. Same thread-compatible contract as GetLabel.
  std::vector<Label> Labels() const;

  /// Receives label-change notifications; may be nullptr.
  void set_listener(RelabelListener* listener) { listener_ = listener; }
  RelabelListener* listener() const { return listener_; }

  virtual const MaintStats& stats() const = 0;
  virtual void ResetStats() = 0;

  /// Scheme-generic deep validator: audits the backing structure (L-Tree
  /// shape and labels, counted B+-tree, linked-list links) plus the
  /// store's own handle bookkeeping, reporting every violation instead of
  /// stopping at the first. Clean after every public call on every scheme.
  virtual audit::Report Validate() const = 0;

 protected:
#ifdef LISTLAB_VALIDATE
  /// Runs Validate() and aborts through audit::AbortIfCorrupt when it is
  /// not clean. Every scheme calls this after each mutating call; the call
  /// compiles to nothing unless the LISTLAB_VALIDATE CMake option is ON.
  void AutoValidate(const char* op) const;
#else
  void AutoValidate(const char* /*op*/) const {}
#endif

  // ------------------------------------------------- scheme implementation
  //
  // The public mutations are non-virtual wrappers: they enter the writer
  // section (exclusive lock + seqlock bump + epoch tick on exit) and
  // delegate to these. Implementations never lock — they already hold the
  // section — and call each other's *Impl forms, never the public API.

  virtual Status BulkLoadImpl(std::span<const LeafCookie> cookies,
                              std::vector<ItemHandle>* handles) = 0;
  virtual Result<ItemHandle> InsertAfterImpl(ItemHandle pos,
                                             LeafCookie cookie) = 0;
  virtual Result<ItemHandle> InsertBeforeImpl(ItemHandle pos,
                                              LeafCookie cookie) = 0;
  virtual Result<ItemHandle> PushBackImpl(LeafCookie cookie) = 0;
  virtual Result<ItemHandle> PushFrontImpl(LeafCookie cookie) = 0;
  /// Default: per-item loop over InsertAfterImpl (+ rollback on failure).
  virtual Status InsertBatchAfterImpl(ItemHandle pos,
                                      std::span<const LeafCookie> cookies,
                                      std::vector<ItemHandle>* handles);
  virtual Status InsertBatchBeforeImpl(ItemHandle pos,
                                       std::span<const LeafCookie> cookies,
                                       std::vector<ItemHandle>* handles);
  virtual Status PushBackBatchImpl(std::span<const LeafCookie> cookies,
                                   std::vector<ItemHandle>* handles);
  virtual Status EraseImpl(ItemHandle h) = 0;

  /// (label, cookie) of every live item in list order; called with the
  /// shared lock held (writers excluded).
  virtual void SnapshotImpl(
      std::vector<std::pair<Label, LeafCookie>>* out) const = 0;

  /// Epoch manager backing the scheme's lock-free reads; nullptr for
  /// serialized schemes. The writer section ticks it after each mutation.
  virtual epoch::EpochManager* epoch_manager() const { return nullptr; }

  /// RAII writer section used by the public mutation wrappers: exclusive
  /// lock (waits out serialized-scheme readers), seqlock held odd for the
  /// duration, epoch advanced at exit.
  class WriteSection {
   public:
    explicit WriteSection(LabelStore* store)
        : store_(store), lock_(store->rw_mutex_) {
      store_->write_seq_.fetch_add(1, std::memory_order_seq_cst);
    }
    ~WriteSection() {
      store_->write_seq_.fetch_add(1, std::memory_order_seq_cst);
      if (epoch::EpochManager* epoch = store_->epoch_manager()) {
        // Up to three advances (one per bucket) drain everything when no
        // reader is pinned, so quiescent arena accounting matches the
        // epoch-less behavior; a pinned reader stalls the advance and the
        // nodes stay pending, which is the point.
        for (int i = 0; i < 3 && epoch->TryAdvance(); ++i) {
        }
      }
    }
    WriteSection(const WriteSection&) = delete;
    WriteSection& operator=(const WriteSection&) = delete;

   private:
    LabelStore* store_;
    std::unique_lock<std::shared_mutex> lock_;
  };

  RelabelListener* listener_ = nullptr;

  /// Writers exclusive; serialized-scheme guards and ScanAll shared.
  mutable std::shared_mutex rw_mutex_;
  /// Store-wide seqlock: odd while a writer section is open. Lock-free
  /// CompareOrder uses it to detect a concurrent relabel between its two
  /// label loads.
  std::atomic<uint64_t> write_seq_{0};
};

}  // namespace listlab
}  // namespace ltree

#endif  // LTREE_LISTLAB_ORDER_MAINTAINER_H_
