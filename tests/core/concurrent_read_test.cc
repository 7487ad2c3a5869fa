// Multi-reader / one-writer stress suite for the concurrent LabelStore
// read contract (ctest labels: core, concurrent).
//
// For every scheme spec — both L-Tree variants (lock-free epoch-pinned
// reads), and the three serialized-fallback baselines — kReaders threads
// hammer the guard-based read API while this thread runs a deterministic
// mutation script. Readers assert the invariants that must hold at every
// instant:
//
//   * a pinned (never-erased) handle always resolves: LabelOf is ok and
//     CookieOf returns exactly the cookie it was inserted with;
//   * CompareOrder over two pinned handles always reports their original
//     relative order (order maintenance never reorders surviving items);
//   * ScanAll under a guard yields strictly increasing labels.
//
// After the writer quiesces, the racing store must be byte-for-byte
// equivalent to a single-threaded replay of the identical script — labels
// and cookie sequence both — and its deep audit (including the
// epoch-reclamation rule) must be clean.
//
// The FrozenReadTest cases pin the thread-compatible contract under the
// writer-racing ones: const traversal of a frozen LTree, CountedBTree,
// VirtualLTree, LabelStore or DocumentStore from several threads at once
// must be race-free, so ThreadSanitizer flags any const path that
// secretly writes shared state. stats() is excluded: it refreshes mutable
// counters and is writer-side, like any mutation.
//
// Iterations scale with the LTREE_STRESS_REPS environment variable so the
// TSan CI job can run an elevated count without slowing the default build.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/ltree.h"
#include "listlab/factory.h"
#include "obtree/counted_btree.h"
#include "store/document_store.h"
#include "virtual_ltree/virtual_ltree.h"

namespace ltree {
namespace {

using listlab::ItemHandle;
using listlab::LabelStore;

constexpr int kReaders = 4;
constexpr uint64_t kInitial = 512;   // bulk-loaded items
constexpr uint64_t kPinned = 64;     // prefix the script never erases
constexpr int kOps = 600;            // script length per iteration

int StressReps() {
  const char* env = std::getenv("LTREE_STRESS_REPS");
  if (env == nullptr) return 1;
  const int reps = std::atoi(env);
  return reps < 1 ? 1 : reps;
}

std::vector<LeafCookie> MakeCookies(uint64_t n) {
  std::vector<LeafCookie> cookies(n);
  std::iota(cookies.begin(), cookies.end(), 0);
  return cookies;
}

/// Runs `fn(t)` on kReaders threads concurrently and joins them.
template <typename Fn>
void RunConcurrently(Fn fn) {
  std::vector<std::thread> threads;
  threads.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) threads.emplace_back(fn, t);
  for (std::thread& th : threads) th.join();
}

/// One scripted mutation. `arg` selects anchors/victims deterministically;
/// `count` sizes batches.
struct Op {
  enum Kind { kInsertAfter, kInsertBefore, kPushBack, kErase, kBatchAfter };
  Kind kind;
  uint64_t arg;
  uint64_t count;
};

std::vector<Op> MakeScript(uint64_t seed, int n) {
  std::mt19937_64 rng(seed);
  std::vector<Op> ops;
  ops.reserve(n);
  for (int i = 0; i < n; ++i) {
    const uint64_t roll = rng() % 100;
    Op op;
    op.arg = rng();
    op.count = 1 + rng() % 16;
    if (roll < 45) {
      op.kind = Op::kInsertAfter;
    } else if (roll < 60) {
      op.kind = Op::kInsertBefore;
    } else if (roll < 70) {
      op.kind = Op::kPushBack;
    } else if (roll < 90) {
      op.kind = Op::kErase;
    } else {
      op.kind = Op::kBatchAfter;
    }
    ops.push_back(op);
  }
  return ops;
}

/// Applies the script to `store`. Fully deterministic: anchors come from
/// the pinned prefix (always live), erase victims from the non-pinned
/// suffix (skipping already-erased ones), fresh cookies count up from
/// kInitial. Two stores fed the same script end in equivalent states.
void ApplyScript(LabelStore* store, const std::vector<Op>& ops,
                 std::vector<ItemHandle>* handles) {
  std::vector<bool> erased(handles->size(), false);
  LeafCookie next_cookie = kInitial;
  for (const Op& op : ops) {
    switch (op.kind) {
      case Op::kInsertAfter: {
        auto h = store->InsertAfter((*handles)[op.arg % kPinned],
                                    next_cookie++);
        ASSERT_TRUE(h.ok()) << h.status().ToString();
        handles->push_back(*h);
        erased.push_back(false);
        break;
      }
      case Op::kInsertBefore: {
        auto h = store->InsertBefore((*handles)[op.arg % kPinned],
                                     next_cookie++);
        ASSERT_TRUE(h.ok()) << h.status().ToString();
        handles->push_back(*h);
        erased.push_back(false);
        break;
      }
      case Op::kPushBack: {
        auto h = store->PushBack(next_cookie++);
        ASSERT_TRUE(h.ok()) << h.status().ToString();
        handles->push_back(*h);
        erased.push_back(false);
        break;
      }
      case Op::kErase: {
        if (handles->size() <= kPinned) break;
        const uint64_t idx =
            kPinned + op.arg % (handles->size() - kPinned);
        if (erased[idx]) break;
        const Status st = store->Erase((*handles)[idx]);
        ASSERT_TRUE(st.ok()) << st.ToString();
        erased[idx] = true;
        break;
      }
      case Op::kBatchAfter: {
        std::vector<LeafCookie> cookies(op.count);
        std::iota(cookies.begin(), cookies.end(), next_cookie);
        next_cookie += op.count;
        const Status st = store->InsertBatchAfter(
            (*handles)[op.arg % kPinned], cookies, handles);
        ASSERT_TRUE(st.ok()) << st.ToString();
        erased.resize(handles->size(), false);
        break;
      }
    }
  }
}

class ConcurrentReadTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ConcurrentReadTest, ReadersRaceOneWriter) {
  const std::string spec = GetParam();
  const int reps = StressReps();
  for (int rep = 0; rep < reps; ++rep) {
    auto store = listlab::MakeLabelStore(spec).ValueOrDie();
    std::vector<ItemHandle> handles;
    ASSERT_TRUE(store->BulkLoad(MakeCookies(kInitial), &handles).ok());

    const std::vector<Op> ops = MakeScript(7919u * rep + 17, kOps);
    // Readers index this frozen copy, never the live `handles` vector —
    // the writer's push_backs reallocate its buffer mid-run.
    const std::vector<ItemHandle> pinned(handles.begin(),
                                         handles.begin() + kPinned);
    std::atomic<bool> writer_done{false};
    std::atomic<uint64_t> violations{0};
    std::vector<std::thread> readers;
    readers.reserve(kReaders);
    for (int t = 0; t < kReaders; ++t) {
      readers.emplace_back([&, t] {
        std::mt19937_64 rng(1000u + t);
        do {
          {
            const LabelStore::ReadGuard guard = store->AcquireRead();
            // Pinned handles: stable cookie, resolvable label, original
            // relative order.
            const uint64_t i = rng() % (kPinned - 1);
            const uint64_t j = i + 1 + rng() % (kPinned - 1 - i);
            auto cmp =
                store->CompareOrder(guard, pinned[i], pinned[j]);
            if (!cmp.ok() || *cmp != -1) violations.fetch_add(1);
            auto cookie = store->CookieOf(guard, pinned[i]);
            if (!cookie.ok() || *cookie != i) violations.fetch_add(1);
            if (!store->LabelOf(guard, pinned[j]).ok()) {
              violations.fetch_add(1);
            }
            if (rng() % 32 == 0) {
              const auto scan = store->ScanAll(guard);
              if (scan.size() < kPinned) violations.fetch_add(1);
              for (size_t k = 1; k < scan.size(); ++k) {
                if (scan[k].first <= scan[k - 1].first) {
                  violations.fetch_add(1);
                }
              }
            }
          }
          // Release the guard before yielding so serialized-scheme writers
          // get a window between reader lock acquisitions.
          std::this_thread::yield();
        } while (!writer_done.load(std::memory_order_acquire));
      });
    }

    ApplyScript(store.get(), ops, &handles);
    writer_done.store(true, std::memory_order_release);
    for (std::thread& th : readers) th.join();
    EXPECT_EQ(violations.load(), 0u) << spec << " rep " << rep;

    // Post-quiesce equivalence: the store the readers raced must match a
    // single-threaded replay of the identical script, label for label and
    // cookie for cookie.
    auto ref = listlab::MakeLabelStore(spec).ValueOrDie();
    std::vector<ItemHandle> ref_handles;
    ASSERT_TRUE(ref->BulkLoad(MakeCookies(kInitial), &ref_handles).ok());
    ApplyScript(ref.get(), ops, &ref_handles);

    const LabelStore::ReadGuard guard = store->AcquireRead();
    const LabelStore::ReadGuard ref_guard = ref->AcquireRead();
    const auto got = store->ScanAll(guard);
    const auto want = ref->ScanAll(ref_guard);
    ASSERT_EQ(got.size(), want.size()) << spec << " rep " << rep;
    for (size_t k = 0; k < got.size(); ++k) {
      EXPECT_EQ(got[k].first, want[k].first) << spec << " position " << k;
      EXPECT_EQ(got[k].second, want[k].second) << spec << " position " << k;
    }

    // Deep audit of the raced store, including arena conservation against
    // epoch-pending nodes and the epoch-reclamation rule.
    const audit::Report report = store->Validate();
    EXPECT_TRUE(report.ok()) << spec << ":\n" << report.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, ConcurrentReadTest,
    ::testing::Values("ltree:16:4", "ltree:16:4:purge", "virtual:16:4",
                      "sequential", "gap:64", "bender"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == ':') c = '_';
      }
      return name;
    });

TEST(DocStoreConcurrentReadTest, GuardedShardReadsRaceWriter) {
  // One writer appends round-robin across documents (hitting every shard)
  // while reader threads snapshot each shard's label state through
  // AcquireShardRead + ScanAll. Readers touch only the shard schemes —
  // the store-level registries keep their thread-compatible contract.
  auto store = store::DocumentStore::Make({.num_shards = 4,
                                           .scheme_spec = "ltree:16:4",
                                           .feed_capacity = 1 << 20})
                   .ValueOrDie();
  constexpr store::DocId kDocs = 8;
  for (store::DocId doc = 0; doc < kDocs; ++doc) {
    ASSERT_TRUE(store->CreateDocument(doc).ok());
    ASSERT_TRUE(store->InsertBatchAfterRank(doc, 0, 64).ok());
  }

  std::atomic<bool> writer_done{false};
  std::atomic<uint64_t> violations{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      do {
        for (uint32_t shard = 0; shard < store->num_shards(); ++shard) {
          const listlab::LabelStore::ReadGuard guard =
              store->AcquireShardRead(shard);
          const auto scan = store->shard_store(shard).ScanAll(guard);
          if (scan.empty()) violations.fetch_add(1);
          for (size_t k = 1; k < scan.size(); ++k) {
            if (scan[k].first <= scan[k - 1].first) {
              violations.fetch_add(1);
            }
          }
        }
        std::this_thread::yield();
      } while (!writer_done.load(std::memory_order_acquire));
    });
  }

  const int writes = 400 * StressReps();
  for (int i = 0; i < writes; ++i) {
    const store::DocId doc = static_cast<store::DocId>(i) % kDocs;
    ASSERT_TRUE(store->Append(doc).ok());
  }
  writer_done.store(true, std::memory_order_release);
  for (std::thread& th : readers) th.join();
  EXPECT_EQ(violations.load(), 0u);
  EXPECT_TRUE(store->Validate().ok());
}

// ---------------------------------------------------------------------------
// Frozen structures: concurrent const traversal, no writer
// ---------------------------------------------------------------------------

constexpr uint64_t kFrozenLeaves = 4000;

TEST(FrozenReadTest, LTreeLeafWalk) {
  auto tree = LTree::Create(Params{.f = 16, .s = 4}).ValueOrDie();
  std::vector<LTree::LeafHandle> handles;
  ASSERT_TRUE(tree->BulkLoad(MakeCookies(kFrozenLeaves), &handles).ok());
  // Mix in splits and tombstones before freezing the tree.
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(tree->InsertAfter(handles[i * 7], 100000 + i).ok());
  }
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(tree->MarkDeleted(handles[i * 11]).ok());
  }

  std::vector<uint64_t> sums(kReaders, 0);
  std::atomic<int> ordered_threads{0};
  RunConcurrently([&](int t) {
    // Full leaf walk: labels must strictly increase, and every thread
    // must see the identical frozen sequence.
    uint64_t sum = 0;
    Label prev = 0;
    bool first = true;
    bool ordered = true;
    for (LTree::LeafHandle leaf = tree->FirstLeaf(); leaf != nullptr;
         leaf = tree->NextLeaf(leaf)) {
      const Label label = tree->label(leaf);
      if (!first && label <= prev) ordered = false;
      prev = label;
      first = false;
      sum += label + tree->cookie(leaf);
    }
    if (ordered) ordered_threads.fetch_add(1);
    sums[t] = sum;
  });
  EXPECT_EQ(ordered_threads.load(), kReaders);
  for (int t = 1; t < kReaders; ++t) EXPECT_EQ(sums[t], sums[0]);
}

TEST(FrozenReadTest, CountedBTreeQueries) {
  obtree::CountedBTree tree(16);
  std::vector<obtree::Entry> entries;
  entries.reserve(kFrozenLeaves);
  for (uint64_t i = 0; i < kFrozenLeaves; ++i) {
    entries.push_back({i * 3, i});
  }
  ASSERT_TRUE(tree.BulkBuild(entries).ok());

  std::vector<uint64_t> hits(kReaders, 0);
  RunConcurrently([&](int t) {
    uint64_t hit = 0;
    for (uint64_t i = static_cast<uint64_t>(t); i < kFrozenLeaves;
         i += kReaders) {
      if (tree.Contains(i * 3)) ++hit;
      hit += tree.CountLess(i * 3);
      hit += tree.RangeCount(i, i + 1000);
      auto sel = tree.Select(i);
      if (sel.ok()) hit += sel->value;
    }
    // Ordered scans from different threads over the same frozen tree.
    for (auto it = tree.Seek(static_cast<Label>(t) * 100); it.Valid();
         it.Next()) {
      hit += it.key() & 1;
    }
    hits[t] = hit;
  });
  uint64_t total = 0;
  for (uint64_t h : hits) total += h;
  EXPECT_GT(total, 0u);
}

TEST(FrozenReadTest, VirtualLTreeLookups) {
  auto tree = VirtualLTree::Create(Params{.f = 16, .s = 4}).ValueOrDie();
  std::vector<Label> labels;
  ASSERT_TRUE(tree->BulkLoad(MakeCookies(kFrozenLeaves), &labels).ok());

  std::atomic<uint64_t> mismatches{0};
  RunConcurrently([&](int t) {
    for (uint64_t i = static_cast<uint64_t>(t); i < kFrozenLeaves;
         i += kReaders) {
      auto cookie = tree->GetCookie(labels[i]);
      if (!cookie.ok() || *cookie != i) mismatches.fetch_add(1);
      auto slot = tree->SelectSlot(i);
      if (!slot.ok() || *slot != labels[i]) mismatches.fetch_add(1);
    }
  });
  EXPECT_EQ(mismatches.load(), 0u);
}

TEST(FrozenReadTest, StoreReadsAcrossSchemes) {
  for (const char* spec :
       {"ltree:16:4", "virtual:16:4", "sequential", "gap:64", "bender"}) {
    auto store = listlab::MakeLabelStore(spec).ValueOrDie();
    std::vector<ItemHandle> handles;
    ASSERT_TRUE(store->BulkLoad(MakeCookies(1000), &handles).ok()) << spec;

    std::atomic<uint64_t> mismatches{0};
    RunConcurrently([&](int t) {
      for (size_t i = static_cast<size_t>(t); i < handles.size();
           i += kReaders) {
        auto cookie = store->GetCookie(handles[i]);
        if (!cookie.ok() || *cookie != i) mismatches.fetch_add(1);
        if (!store->GetLabel(handles[i]).ok()) mismatches.fetch_add(1);
      }
      // The deep auditor itself must be a pure read.
      if (!store->Validate().ok()) mismatches.fetch_add(1);
    });
    EXPECT_EQ(mismatches.load(), 0u) << spec;
  }
}

TEST(FrozenReadTest, DocumentStoreReadsAcrossShards) {
  // Freeze a populated sharded store, then read it from every side at
  // once: per-document label walks, per-shard live-state snapshots, feed
  // suffixes and state vectors. stats() and Validate() are excluded like
  // LabelStore::stats(): both refresh mutable scheme counters.
  auto store = store::DocumentStore::Make({.num_shards = 4,
                                           .scheme_spec = "ltree:16:4",
                                           .feed_capacity = 1 << 20})
                   .ValueOrDie();
  constexpr store::DocId kDocs = 12;
  for (store::DocId doc = 0; doc < kDocs; ++doc) {
    ASSERT_TRUE(store->CreateDocument(doc).ok());
    ASSERT_TRUE(store->InsertBatchAfterRank(doc, 0, 200).ok());
  }

  std::atomic<uint64_t> mismatches{0};
  RunConcurrently([&](int t) {
    // Each thread walks a different slice of documents...
    for (store::DocId doc = static_cast<store::DocId>(t); doc < kDocs;
         doc += kReaders) {
      const uint64_t size = store->DocSize(doc).ValueOrDie();
      Label prev = 0;
      for (uint64_t rank = 0; rank < size; ++rank) {
        const auto label = store->LabelAt(doc, rank);
        if (!label.ok() || (rank > 0 && *label <= prev)) {
          mismatches.fetch_add(1);
        }
        if (label.ok()) prev = *label;
      }
      if (store->DocCookies(doc).ValueOrDie().size() != size) {
        mismatches.fetch_add(1);
      }
    }
    // ...and every thread scans every shard's frozen feed and live state.
    const store::StateVector head = store->CurrentStateVector();
    for (uint32_t shard = 0; shard < store->num_shards(); ++shard) {
      const store::ChangeFeed& feed = store->feed(shard);
      if (head.seq(shard) != feed.last_seq()) mismatches.fetch_add(1);
      uint64_t events = 0;
      const std::vector<store::FeedEvent> suffix =
          feed.EventsSince(0).ValueOrDie();
      for (const store::FeedEvent& event : suffix) {
        events += event.cookie != 0 ? 1 : 0;
      }
      if (events != feed.retained()) mismatches.fetch_add(1);
      const auto state = store->ShardState(shard);
      for (size_t i = 1; i < state.size(); ++i) {
        if (state[i].first <= state[i - 1].first) mismatches.fetch_add(1);
      }
    }
  });
  EXPECT_EQ(mismatches.load(), 0u);
}

}  // namespace
}  // namespace ltree
