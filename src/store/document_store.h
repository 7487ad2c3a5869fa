// DocumentStore: many documents hash-sharded over independent LabelStores,
// each shard exporting a versioned label change-feed.
//
// The paper's scenario is one LabeledDocument; production is millions of
// documents with hot/cold skew. This store routes document ids to
// `num_shards` shards (hash routing, stable across runs), each shard
// owning one labeling scheme instance built from the same spec string
// (factory.h grammar) — so every shard has its own arena, its own
// MaintStats window, and its own label space, and shards never contend.
//
// Outward-facing state: every mutation is published to the owning shard's
// ChangeFeed (change_feed.h) with a per-shard sequence number —
//
//   * kInsert / kErase events are appended by this store around the
//     LabelStore call;
//   * kRelabel events flow from the scheme's RelabelListener, which reports
//     live items only, so the feed describes exactly the evolution of the
//     live label state;
//
// and a subscriber holding a StateVector (shard -> last applied seq) calls
// CatchUp(shard, seq) to receive either the missing event suffix or — when
// the bounded log has been trimmed past its position — a compact label
// snapshot of the whole shard. Either way one round reconverges the
// subscriber (see mirror_store.h for the reference subscriber).
//
// Documents address their items by rank (matching workload::ListOp), and a
// shard's LabelStore holds the items of every document routed to it; item
// cookies are assigned by this store and are unique store-wide, so feed
// events are unambiguous across documents.

#ifndef LTREE_STORE_DOCUMENT_STORE_H_
#define LTREE_STORE_DOCUMENT_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/validate.h"
#include "listlab/order_maintainer.h"
#include "store/change_feed.h"
#include "store/state_vector.h"
#include "workload/update_stream.h"

namespace ltree {
namespace store {

/// Stable client-chosen document identifier.
using DocId = uint64_t;

struct DocStoreOptions {
  /// Shard count (>= 1). Documents are hash-routed, so the distribution is
  /// uniform over documents regardless of id patterns.
  uint32_t num_shards = 8;
  /// Labeling scheme per shard (listlab::MakeLabelStore grammar).
  std::string scheme_spec = "ltree:16:4";
  /// Retained events per shard feed before the oldest are trimmed.
  uint64_t feed_capacity = 4096;
};

/// Store-wide statistics: the pointwise rollup of every shard's MaintStats
/// plus per-shard breakdowns (the stats-rollup audit rule checks the
/// rollup conserves against the store's own operation ledger).
struct StoreStats {
  listlab::MaintStats rollup;
  uint64_t documents = 0;
  uint64_t live_items = 0;
  uint64_t feed_events = 0;    ///< sum of per-shard last_seq
  uint64_t feed_retained = 0;  ///< events currently held across feeds
  uint64_t feed_trimmed = 0;   ///< events evicted across feeds
  uint64_t heap_bytes = 0;     ///< sum of per-shard ApproxHeapBytes
  std::vector<uint64_t> per_shard_items;
  std::vector<uint64_t> per_shard_heap_bytes;
};

/// One shard's answer to "I have applied everything up to from_seq".
struct CatchUpResult {
  /// False: `events` carries the exact suffix (from_seq, to_seq], oldest
  /// first. True: the log was trimmed past from_seq; `state` carries the
  /// full live (label, cookie) snapshot of the shard, label-ordered, which
  /// replaces the subscriber's shard state wholesale.
  bool snapshot = false;
  uint64_t from_seq = 0;
  uint64_t to_seq = 0;  ///< subscriber's new position after applying
  std::vector<FeedEvent> events;
  std::vector<std::pair<Label, LeafCookie>> state;
};

class DocumentStore {
 public:
  static Result<std::unique_ptr<DocumentStore>> Make(
      const DocStoreOptions& options);
  ~DocumentStore();

  DocumentStore(const DocumentStore&) = delete;
  DocumentStore& operator=(const DocumentStore&) = delete;

  const DocStoreOptions& options() const { return options_; }
  uint32_t num_shards() const {
    return static_cast<uint32_t>(shards_.size());
  }

  /// The shard `doc` routes to: hash-based, deterministic, stable for the
  /// lifetime of the store (the routing-bijection audit re-derives it).
  uint32_t ShardOf(DocId doc) const;

  // ------------------------------------------------------------- documents

  Status CreateDocument(DocId doc);
  /// Erases every item of `doc` (publishing erase events) and forgets it.
  Status DropDocument(DocId doc);
  bool HasDocument(DocId doc) const { return docs_.count(doc) != 0; }
  uint64_t num_documents() const { return docs_.size(); }
  Result<uint64_t> DocSize(DocId doc) const;

  // ----------------------------------------------------------- item edits
  //
  // Items are addressed by rank among the document's live items, matching
  // workload::ListOp. Every successful edit publishes to the owning
  // shard's feed. Returned cookies identify items in feed events.

  /// Appends one item at the document's tail (works on an empty document).
  Result<LeafCookie> Append(DocId doc);
  Result<LeafCookie> InsertAfterRank(DocId doc, uint64_t rank);
  Result<LeafCookie> InsertBeforeRank(DocId doc, uint64_t rank);
  /// Batch insertion right after `rank` (Section 4.1 path on L-Tree
  /// schemes: one coalesced rebuild region for the whole run). On an empty
  /// document inserts at the head.
  Status InsertBatchAfterRank(DocId doc, uint64_t rank, uint64_t count,
                              std::vector<LeafCookie>* cookies = nullptr);
  Status EraseAt(DocId doc, uint64_t rank);

  /// Applies one rank-addressed workload op; ranks are clamped to the live
  /// range and inserts into an empty document append.
  Status Apply(DocId doc, const workload::ListOp& op);

  // -------------------------------------------------------------- queries

  Result<Label> LabelAt(DocId doc, uint64_t rank) const;
  /// The document's item cookies in document order.
  Result<std::vector<LeafCookie>> DocCookies(DocId doc) const;

  /// The shard's labeling scheme, read-only (mutating it directly would
  /// desync the registry and the feed, so no mutable accessor exists).
  const listlab::LabelStore& shard_store(uint32_t shard) const;
  const ChangeFeed& feed(uint32_t shard) const;

  /// Acquires the shard scheme's read guard (a lock-free epoch pin for the
  /// L-Tree schemes, a shared lock otherwise), so label reads through
  /// shard_store() — LabelOf/CookieOf/CompareOrder/ScanAll — can run while
  /// a writer mutates that shard. The guard protects label state only; the
  /// store-level registries (documents, feeds, subscribers) keep their
  /// thread-compatible contract and still need external quiescence.
  listlab::LabelStore::ReadGuard AcquireShardRead(uint32_t shard) const;

  /// The shard's live (label, cookie) pairs, label-ordered — the snapshot
  /// payload of CatchUp and the equivalence baseline for mirrors. One
  /// ScanAll of the shard's scheme, so it may run while a writer mutates
  /// that shard.
  std::vector<std::pair<Label, LeafCookie>> ShardState(uint32_t shard) const;

  // ----------------------------------------------------- change-feed sync

  /// The producer-side state vector (shard -> last published seq).
  StateVector CurrentStateVector() const;

  /// One shard's catch-up decision for a subscriber at `from_seq`: delta
  /// events while the log still covers the position, snapshot once it has
  /// been trimmed past it. `from_seq` beyond the feed is InvalidArgument
  /// (the subscriber claims a future this store never published).
  Result<CatchUpResult> CatchUp(uint32_t shard, uint64_t from_seq) const;

  /// Manual trim-policy knob: retains at most `keep` events per shard
  /// feed, forcing laggards onto the snapshot path.
  void TrimFeeds(uint64_t keep);

  // ------------------------------------------------- subscriber registry
  //
  // Mirrors register the StateVector they have durably applied so trim
  // policy can retain exactly the events the slowest of them still needs
  // (ROADMAP item c). Registration is advisory: an unregistered or
  // overtaken mirror falls back to the snapshot path, it is never wedged.

  /// Registers (or re-registers, replacing the previous position)
  /// subscriber `subscriber` at `position`. InvalidArgument if the vector's
  /// shard count mismatches or any component is beyond the shard feed head
  /// (a future-dated position this store never published).
  Status RegisterSubscriber(uint64_t subscriber, const StateVector& position);

  /// Forgets `subscriber`; NotFound if it was never registered.
  Status UnregisterSubscriber(uint64_t subscriber);

  uint64_t num_subscribers() const { return subscribers_.size(); }

  /// The lowest registered position for `shard` — the trim horizon.
  /// Returns the feed head when no subscriber is registered.
  uint64_t SlowestSubscriberSeq(uint32_t shard) const;

  /// Trims every shard feed down to what registered subscribers still
  /// need: events at or below the slowest registered position are dropped.
  /// `max_retained` is the per-shard memory budget — when the slowest
  /// subscriber lags further than that, retention is capped anyway and the
  /// laggard degrades to the snapshot path on its next catch-up. Returns
  /// the number of events trimmed across all shards.
  uint64_t TrimToSlowestSubscriber(uint64_t max_retained = UINT64_MAX);

  // ---------------------------------------------------------------- stats

  StoreStats stats() const;

  /// Store-level deep audit. Absorbs each shard scheme's Validate() and
  /// feed continuity audit, then checks the subsystem rules:
  ///   * "shard-routing"  — every document resolves to exactly the shard
  ///     that holds its items; every registered handle resolves in that
  ///     shard's scheme, none is registered twice, and each shard's
  ///     registered count equals its scheme's live count;
  ///   * "feed-continuity" — per-shard sequence numbers are contiguous in
  ///     the retained window and conserve against the trim counter;
  ///   * "stats-rollup"   — per-shard MaintStats sums, the store's own
  ///     operation ledger, and the feed publication counters all agree;
  ///   * "subscriber-registry" — every registered subscriber StateVector
  ///     has this store's shard count and never claims a position beyond
  ///     a shard feed head.
  /// Under -DLISTLAB_VALIDATE=ON the store-layer rules above re-run after
  /// every mutating call (each shard's scheme already deep-audits itself
  /// per mutation under the same flag) and abort with the full report on
  /// the first violation.
  audit::Report Validate() const;

 private:
  friend class DocumentStoreTestPeer;  // seeds corruptions in negative tests

  struct ShardCtx;
  struct DocState {
    uint32_t shard = 0;
    std::vector<listlab::ItemHandle> items;  ///< document order
  };
  /// Store-layer operation ledger, kept independently of the schemes' own
  /// MaintStats so the stats-rollup rule cross-checks two bookkeepers.
  struct Ledger {
    uint64_t inserts = 0;
    uint64_t erases = 0;
    /// Items a failed batch inserted and rolled back — they appear in
    /// scheme counters but never became live (see InsertBatchAfterRank).
    uint64_t rolled_back_inserts = 0;
    uint64_t rolled_back_erases = 0;
  };

  explicit DocumentStore(DocStoreOptions options);

  Result<DocState*> FindDoc(DocId doc);
  Result<const DocState*> FindDoc(DocId doc) const;
  /// Shared single-insert plumbing: position resolution, cookie
  /// assignment, registry update, feed publication.
  Result<LeafCookie> InsertOne(DocId doc, uint64_t rank, bool before,
                               bool append);
  void PublishInsert(ShardCtx& ctx, LeafCookie cookie,
                     listlab::ItemHandle handle);
  /// Erases one item from its shard scheme and publishes its kErase; the
  /// caller drops the handle from the document registry.
  Status EraseOne(ShardCtx& ctx, listlab::ItemHandle handle);
  // Feed continuity + shard-routing + stats-rollup, without the per-shard
  // scheme deep audits; this is what AutoValidate re-runs per mutation.
  void ValidateStoreLevel(audit::Report* out) const;
  void AutoValidate(const char* op) const;

  DocStoreOptions options_;
  std::vector<std::unique_ptr<ShardCtx>> shards_;
  std::unordered_map<DocId, DocState> docs_;
  std::unordered_map<uint64_t, StateVector> subscribers_;
  LeafCookie next_cookie_ = 1;
  Ledger ledger_;
};

}  // namespace store
}  // namespace ltree

#endif  // LTREE_STORE_DOCUMENT_STORE_H_
