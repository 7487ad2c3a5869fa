// MirrorStore: the reference change-feed subscriber.
//
// A mirror holds, per shard, only the live (cookie -> label) map — no
// scheme, no tree, no arena — plus a StateVector of the last applied
// sequence numbers. Sync(primary) runs one catch-up round: for every shard
// whose feed has advanced past the mirror's position it requests
// CatchUp(shard, seq) and applies either the delta events in order or, when
// the primary trimmed the log past the mirror, the snapshot wholesale.
//
// The convergence guarantee (exercised by tests/docstore/mirror_store_test):
// from ANY stale state vector, one Sync round with no concurrent writes
// makes CheckEquivalent(primary) pass — per-shard label order and cookie
// sequences match the primary exactly.
//
// Apply-time protocol checks are strict: a delta that does not start right
// after the mirror's position, a relabel/erase for an unknown cookie, an
// insert for a cookie already present, or a snapshot whose labels are not
// strictly increasing or whose cookies repeat all fail with Corruption-class
// errors instead of being papered over — the mirror doubles as an
// end-to-end auditor of the feed contents. A rejected snapshot leaves the
// shard and its position unchanged.

#ifndef LTREE_STORE_MIRROR_STORE_H_
#define LTREE_STORE_MIRROR_STORE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/relabel_listener.h"
#include "store/change_feed.h"
#include "store/document_store.h"
#include "store/state_vector.h"

namespace ltree {
namespace store {

class MirrorStore {
 public:
  explicit MirrorStore(uint32_t num_shards)
      : shards_(num_shards), state_(num_shards) {}

  uint32_t num_shards() const { return static_cast<uint32_t>(shards_.size()); }
  const StateVector& state_vector() const { return state_; }

  /// Overrides the mirror's position for `shard` without touching its
  /// contents — tests use it to simulate an arbitrarily stale subscriber.
  void ForcePosition(uint32_t shard, uint64_t seq) { state_.Set(shard, seq); }

  /// One catch-up round against the primary: per shard, request the delta
  /// or snapshot and apply it. With no concurrent writes the mirror is
  /// equivalent to the primary afterwards.
  Status Sync(const DocumentStore& primary);

  /// Applies one shard's CatchUpResult (as returned for this mirror's
  /// position). Split out so tests can replay captured results.
  Status ApplyCatchUp(uint32_t shard, const CatchUpResult& result);

  /// The mirror's live (label, cookie) pairs for `shard`, label-ordered —
  /// directly comparable with DocumentStore::ShardState.
  std::vector<std::pair<Label, LeafCookie>> ShardState(uint32_t shard) const;

  uint64_t ShardItems(uint32_t shard) const { return shards_[shard].size(); }

  /// Full equivalence against the primary: same shard count and, per
  /// shard, identical label-ordered (label, cookie) sequences. The error
  /// message pinpoints the first divergence.
  Status CheckEquivalent(const DocumentStore& primary) const;

  // Sync-path observability.
  uint64_t delta_syncs() const { return delta_syncs_; }
  uint64_t snapshot_syncs() const { return snapshot_syncs_; }
  uint64_t events_applied() const { return events_applied_; }

 private:
  Status ApplyEvent(uint32_t shard, const FeedEvent& event);

  std::vector<std::unordered_map<LeafCookie, Label>> shards_;
  StateVector state_;
  uint64_t delta_syncs_ = 0;
  uint64_t snapshot_syncs_ = 0;
  uint64_t events_applied_ = 0;
};

}  // namespace store
}  // namespace ltree

#endif  // LTREE_STORE_MIRROR_STORE_H_
