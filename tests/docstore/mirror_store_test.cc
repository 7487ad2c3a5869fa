// Mirror equivalence: the acceptance suite for the change-feed protocol.
//
// A MirrorStore following the per-shard feeds must reproduce the primary's
// live label state exactly — per-shard label order and cookie sequences —
// under randomized multi-session, multi-document edit scripts, across
// every labeling scheme, through both the delta path and the forced
// log-trim snapshot path, and in ONE Sync round from an arbitrarily stale
// state vector.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "store/document_store.h"
#include "store/mirror_store.h"
#include "workload/update_stream.h"

namespace ltree {
namespace store {
namespace {

constexpr const char* kSpecs[] = {"ltree:16:4", "ltree:16:4:purge",
                                  "virtual:16:4", "gap:64", "sequential",
                                  "bender"};

struct Script {
  uint64_t docs = 12;
  uint32_t sessions = 3;
  int ops = 1500;
  int sync_every = 100;
  uint64_t seed = 1;
};

/// Drives `ops` randomized multi-session ops against `store`, syncing
/// `mirror` (if non-null) every `sync_every` ops and checking equivalence
/// after each sync.
void RunScript(DocumentStore* store, MirrorStore* mirror,
               const Script& script) {
  for (DocId doc = 0; doc < script.docs; ++doc) {
    if (!store->HasDocument(doc)) {
      ASSERT_TRUE(store->CreateDocument(doc).ok());
    }
  }
  workload::MultiSessionStream sessions(
      {.num_docs = script.docs,
       .num_sessions = script.sessions,
       .doc_zipf_theta = 1.1,
       .session_stream = {.kind = workload::StreamKind::kMixed,
                          .erase_fraction = 0.3,
                          .seed = script.seed}});
  Rng batch_rng(script.seed * 31 + 7);
  for (int i = 0; i < script.ops; ++i) {
    const workload::DocOp op = sessions.Next(
        [&](uint64_t doc) { return store->DocSize(doc).ValueOrDie(); });
    // A slice of batch inserts keeps the Section 4.1 path in the script.
    if (batch_rng.Bernoulli(0.02)) {
      const uint64_t size = store->DocSize(op.doc).ValueOrDie();
      const uint64_t rank = size == 0 ? 0 : batch_rng.Uniform(size);
      ASSERT_TRUE(store->InsertBatchAfterRank(op.doc, rank, 20).ok());
    } else {
      ASSERT_TRUE(store->Apply(op.doc, op.op).ok());
    }
    if (mirror != nullptr && (i + 1) % script.sync_every == 0) {
      const Status sync = mirror->Sync(*store);
      ASSERT_TRUE(sync.ok()) << sync.ToString();
      const Status eq = mirror->CheckEquivalent(*store);
      ASSERT_TRUE(eq.ok()) << "after op " << i << ": " << eq.ToString();
    }
  }
}

// ---------------------------------------------------------------------------
// Delta-path equivalence across schemes
// ---------------------------------------------------------------------------

TEST(MirrorStoreTest, PerBatchEquivalenceAcrossSchemes) {
  for (const char* spec : kSpecs) {
    SCOPED_TRACE(spec);
    auto store = DocumentStore::Make({.num_shards = 4,
                                      .scheme_spec = spec,
                                      .feed_capacity = 1 << 20})
                     .ValueOrDie();
    MirrorStore mirror(store->num_shards());
    RunScript(store.get(), &mirror, {.seed = 11});
    ASSERT_TRUE(mirror.Sync(*store).ok());
    EXPECT_TRUE(mirror.CheckEquivalent(*store).ok());
    EXPECT_TRUE(mirror.state_vector() == store->CurrentStateVector());
    EXPECT_GT(mirror.events_applied(), 0u);
    EXPECT_EQ(mirror.snapshot_syncs(), 0u);  // capacity never trimmed
    EXPECT_TRUE(store->Validate().ok());
  }
}

TEST(MirrorStoreTest, SingleShardAndManyShardsConverge) {
  for (const uint32_t shards : {1u, 2u, 16u}) {
    SCOPED_TRACE(shards);
    auto store = DocumentStore::Make({.num_shards = shards,
                                      .scheme_spec = "ltree:16:4",
                                      .feed_capacity = 1 << 20})
                     .ValueOrDie();
    MirrorStore mirror(shards);
    RunScript(store.get(), &mirror,
              {.docs = 20, .ops = 1000, .seed = shards});
    ASSERT_TRUE(mirror.Sync(*store).ok());
    EXPECT_TRUE(mirror.CheckEquivalent(*store).ok());
  }
}

// ---------------------------------------------------------------------------
// Snapshot path: log trimmed past the subscriber
// ---------------------------------------------------------------------------

TEST(MirrorStoreTest, TinyFeedForcesSnapshotRecovery) {
  // Capacity 32 with sync_every 200: the mirror falls behind the trim
  // floor between syncs, so catch-up must route through snapshots.
  auto store = DocumentStore::Make({.num_shards = 4,
                                    .scheme_spec = "ltree:16:4",
                                    .feed_capacity = 32})
                   .ValueOrDie();
  MirrorStore mirror(store->num_shards());
  RunScript(store.get(), &mirror, {.ops = 2000, .sync_every = 200, .seed = 3});
  ASSERT_TRUE(mirror.Sync(*store).ok());
  EXPECT_TRUE(mirror.CheckEquivalent(*store).ok());
  EXPECT_GT(mirror.snapshot_syncs(), 0u);
}

TEST(MirrorStoreTest, ExplicitTrimFlipsStaleMirrorToSnapshot) {
  auto store = DocumentStore::Make({.num_shards = 2,
                                    .scheme_spec = "virtual:16:4",
                                    .feed_capacity = 1 << 20})
                   .ValueOrDie();
  MirrorStore mirror(2);
  RunScript(store.get(), &mirror, {.ops = 600, .seed = 9});
  ASSERT_TRUE(mirror.Sync(*store).ok());

  // More edits the mirror has not seen, then trim their history away.
  RunScript(store.get(), nullptr, {.ops = 400, .seed = 10});
  store->TrimFeeds(0);
  const uint64_t snapshots_before = mirror.snapshot_syncs();
  ASSERT_TRUE(mirror.Sync(*store).ok());
  EXPECT_TRUE(mirror.CheckEquivalent(*store).ok());
  EXPECT_GT(mirror.snapshot_syncs(), snapshots_before);
}

// ---------------------------------------------------------------------------
// One-round convergence from arbitrary stale state vectors
// ---------------------------------------------------------------------------

TEST(MirrorStoreTest, OneSyncRoundConvergesMirrorsOfEveryAge) {
  auto store = DocumentStore::Make({.num_shards = 4,
                                    .scheme_spec = "ltree:16:4",
                                    .feed_capacity = 256})
                   .ValueOrDie();
  // Mirrors peel off at different points of the script: one never syncs,
  // the others stop syncing after their segment. Their state vectors end
  // up arbitrarily stale relative to the final primary.
  constexpr int kMirrors = 5;
  std::vector<MirrorStore> mirrors;
  for (int i = 0; i < kMirrors; ++i) mirrors.emplace_back(4);
  for (int seg = 0; seg < kMirrors; ++seg) {
    RunScript(store.get(), nullptr,
              {.ops = 400, .seed = 100 + static_cast<uint64_t>(seg)});
    // Mirrors seg.. still follow; mirrors 0..seg-1 have gone stale.
    for (int m = seg; m < kMirrors; ++m) {
      ASSERT_TRUE(mirrors[m].Sync(*store).ok());
    }
  }
  const StateVector head = store->CurrentStateVector();
  for (int m = 0; m < kMirrors; ++m) {
    SCOPED_TRACE(m);
    ASSERT_TRUE(mirrors[m].state_vector().DominatedBy(head));
    // Exactly one round, no concurrent writes: full convergence.
    ASSERT_TRUE(mirrors[m].Sync(*store).ok());
    EXPECT_TRUE(mirrors[m].CheckEquivalent(*store).ok());
    EXPECT_TRUE(mirrors[m].state_vector() == head);
  }
}

TEST(MirrorStoreTest, FreshMirrorConvergesInOneRound) {
  auto store = DocumentStore::Make({.num_shards = 8,
                                    .scheme_spec = "ltree:16:4",
                                    .feed_capacity = 64})
                   .ValueOrDie();
  RunScript(store.get(), nullptr, {.docs = 24, .ops = 3000, .seed = 21});
  MirrorStore mirror(8);  // knows nothing; most shards need snapshots
  ASSERT_TRUE(mirror.Sync(*store).ok());
  EXPECT_TRUE(mirror.CheckEquivalent(*store).ok());
  // Idempotence: a second round with no writes applies nothing.
  const uint64_t applied = mirror.events_applied();
  ASSERT_TRUE(mirror.Sync(*store).ok());
  EXPECT_EQ(mirror.events_applied(), applied);
}

// ---------------------------------------------------------------------------
// Protocol strictness: the mirror rejects malformed catch-ups
// ---------------------------------------------------------------------------

TEST(MirrorStoreTest, RewoundPositionIsDetectedAsDoubleApply) {
  auto store = DocumentStore::Make({.num_shards = 1,
                                    .scheme_spec = "sequential",
                                    .feed_capacity = 1 << 20})
                   .ValueOrDie();
  ASSERT_TRUE(store->CreateDocument(1).ok());
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(store->Append(1).ok());
  MirrorStore mirror(1);
  ASSERT_TRUE(mirror.Sync(*store).ok());
  // Claiming staleness while holding the state makes the replayed inserts
  // double-applies — the mirror must refuse, not silently overwrite.
  mirror.ForcePosition(0, 0);
  EXPECT_TRUE(mirror.Sync(*store).IsCorruption());
}

TEST(MirrorStoreTest, DeltaGapsAndUnknownCookiesAreRejected) {
  MirrorStore mirror(2);
  CatchUpResult gap;
  gap.from_seq = 0;
  gap.to_seq = 2;
  gap.events = {{.seq = 2,
                 .kind = FeedEvent::Kind::kInsert,
                 .cookie = 1,
                 .new_label = 10}};  // #1 is missing
  EXPECT_TRUE(mirror.ApplyCatchUp(0, gap).IsCorruption());

  CatchUpResult orphan_erase;
  orphan_erase.from_seq = 0;
  orphan_erase.to_seq = 1;
  orphan_erase.events = {
      {.seq = 1, .kind = FeedEvent::Kind::kErase, .cookie = 77}};
  EXPECT_TRUE(mirror.ApplyCatchUp(0, orphan_erase).IsCorruption());

  CatchUpResult orphan_relabel;
  orphan_relabel.from_seq = 0;
  orphan_relabel.to_seq = 1;
  orphan_relabel.events = {{.seq = 1,
                            .kind = FeedEvent::Kind::kRelabel,
                            .cookie = 77,
                            .old_label = 1,
                            .new_label = 2}};
  EXPECT_TRUE(mirror.ApplyCatchUp(0, orphan_relabel).IsCorruption());

  CatchUpResult misaligned;
  misaligned.from_seq = 5;  // mirror is at 0
  misaligned.to_seq = 5;
  EXPECT_TRUE(mirror.ApplyCatchUp(0, misaligned).IsCorruption());

  EXPECT_TRUE(mirror.ApplyCatchUp(9, {}).IsInvalidArgument());

  // A snapshot must be one: strictly increasing labels, distinct cookies.
  // A malformed one changes neither the shard nor its position.
  CatchUpResult good;
  good.snapshot = true;
  good.to_seq = 4;
  good.state = {{10, 7}, {20, 8}};
  ASSERT_TRUE(mirror.ApplyCatchUp(1, good).ok());

  CatchUpResult repeated_cookie;
  repeated_cookie.snapshot = true;
  repeated_cookie.to_seq = 9;
  repeated_cookie.state = {{1, 7}, {2, 5}, {3, 7}};
  EXPECT_TRUE(mirror.ApplyCatchUp(1, repeated_cookie).IsCorruption());
  EXPECT_EQ(mirror.ShardItems(1), 2u);
  EXPECT_EQ(mirror.state_vector().seq(1), 4u);

  CatchUpResult unordered;
  unordered.snapshot = true;
  unordered.to_seq = 9;
  unordered.state = {{5, 1}, {3, 2}, {9, 3}};
  EXPECT_TRUE(mirror.ApplyCatchUp(1, unordered).IsCorruption());
  EXPECT_EQ(mirror.ShardItems(1), 2u);
  EXPECT_EQ(mirror.state_vector().seq(1), 4u);
  EXPECT_EQ(mirror.ShardState(1), good.state);
}

TEST(MirrorStoreTest, ShardCountMismatchIsRejected) {
  auto store = DocumentStore::Make({.num_shards = 4}).ValueOrDie();
  MirrorStore mirror(2);
  EXPECT_TRUE(mirror.Sync(*store).IsInvalidArgument());
  EXPECT_FALSE(mirror.CheckEquivalent(*store).ok());
}

}  // namespace
}  // namespace store
}  // namespace ltree
