// store_edit and replica_sync: a 16-shard DocumentStore driven by the
// MultiSessionStream edit mix, with followers that replicate it through
// ReplicationSession over a fault-free PrimaryEndpoint.
//
//   store_edit   — ltree:16:4, ~1.1M items over 256 documents (label heap
//                  larger than L3), 30% LabelAt point reads, one follower
//                  syncing every 4096 edits: the work sits in the store
//                  registry and feed, the listlab writer section and the
//                  materialized L-Tree.
//   replica_sync — virtual:16:4, ~40k items over 64 documents (fits in
//                  L3), no reads, a tight follower syncing every 8 edits
//                  (delta path) and a lagging one whose every shard sync
//                  takes the snapshot path: the work sits in replica frame
//                  encode/CRC/decode, CatchUp/ShardState and MirrorStore
//                  apply, over virtual_ltree and obtree.

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/random.h"
#include "listlab/factory.h"
#include "replica/clock.h"
#include "replica/replication_session.h"
#include "replica/transport.h"
#include "replica/wire_format.h"
#include "store/document_store.h"
#include "store/mirror_store.h"
#include "workload/update_stream.h"
#include "workloads.h"

namespace perfbench {
namespace {

using ltree::Label;
using ltree::LeafCookie;
using ltree::Result;
using ltree::Rng;
using ltree::Status;
using ltree::listlab::ItemHandle;
using ltree::listlab::LabelStore;
using ltree::replica::FrameType;
using ltree::store::DocumentStore;
using ltree::store::MirrorStore;
using ltree::workload::ListOp;

constexpr uint32_t kShards = 16;
constexpr uint32_t kSessions = 4;
constexpr double kDocZipfTheta = 0.99;
/// Half the edits erase, so document sizes random-walk around their
/// preloaded level and a run's cost does not depend on how many edits the
/// host fitted into it.
constexpr double kEraseShare = 0.5;
constexpr uint64_t kRequestTimeoutMs = 50;
/// Every this many client ops of a traced epoch, time a batch of
/// kReadsPerSample label reads on the replay stores.
constexpr uint64_t kReadSampleEvery = 8;
constexpr int kReadsPerSample = 16;
/// Every this many reads, check the label order around the read rank.
constexpr uint64_t kReadCheckEvery = 64;

struct Shape {
  const char* spec;
  uint64_t docs;
  uint64_t items_per_doc;
  uint64_t feed_capacity;
  double read_share;
  uint64_t tight_every;  ///< edits between the tight follower's rounds
  uint64_t lag_every;    ///< edits between the lagging follower's; 0 = none
  uint64_t ops_per_epoch;
  uint64_t counted_epochs;
};

/// Per-layer observations of the traced run.
struct Layers {
  Samples ll_insert, ll_erase, ll_get, ll_of;
  Samples apply_self, label_at_self;
  Samples catchup, shard_state, mirror_apply, serve_self;
  Samples encode, decode;
  double crc_ns = 0, crc_bytes = 0;
  uint64_t responses = 0, empty_responses = 0, items_shipped = 0;
};

/// The follower side of the wire, in the benchmark's own code: forwards
/// each request to the primary's endpoint and counts its bytes. In a
/// traced run it also records the call as a span and replays the exchange
/// into the inner layers' public APIs (CatchUp, ShardState, DecodeFrame,
/// EncodeFrame, Crc32c, and ApplyCatchUp on a shadow mirror that tracks
/// the follower's), which the session would otherwise hide.
class MeteredTransport final : public ltree::replica::Transport {
 public:
  explicit MeteredTransport(DocumentStore* primary)
      : primary_(primary), endpoint_(primary, primary) {}

  Result<std::vector<uint8_t>> Call(const std::vector<uint8_t>& request,
                                    uint64_t timeout_ms) override {
    const int64_t t0 = NowNs();
    auto response = endpoint_.Call(request, timeout_ms);
    const int64_t t1 = NowNs();
    bytes_ += request.size() + (response.ok() ? response->size() : 0);
    if (shadow_ && response.ok()) {
      trace_->Record("replica.PrimaryEndpoint::Call", op_, t0, t1, parent_);
      // The replays get a span of their own, so the sync round's self time
      // stays the session's own work.
      const int32_t span = trace_->Open("replays", op_, NowNs(), parent_);
      Replay(request, *response, t1 - t0, span);
      trace_->Close(span, NowNs());
    }
    return response;
  }

  uint64_t bytes() const { return bytes_; }

  /// Starts the replays from a copy of the follower's mirror.
  void EnableReplay(const MirrorStore& mirror, Trace* trace, Layers* layers) {
    shadow_.emplace(mirror);
    trace_ = trace;
    layers_ = layers;
  }
  const MirrorStore* shadow() const { return shadow_ ? &*shadow_ : nullptr; }
  /// The span the next calls belong to.
  void set_parent(int32_t span, uint64_t op) {
    parent_ = span;
    op_ = op;
  }

 private:
  void Replay(const std::vector<uint8_t>& request,
              const std::vector<uint8_t>& response, int64_t call_ns,
              int32_t span) {
    auto req = ltree::replica::DecodeFrame(request);
    LTREE_CHECK(req.ok());
    if (req->type != FrameType::kCatchUpRequest) return;

    int64_t ns = NowNs();
    auto served = primary_->CatchUp(req->shard, req->from_seq);
    const int64_t catchup_ns = NowNs() - ns;
    LTREE_CHECK(served.ok());
    trace_->Record("store.CatchUp", op_, ns, ns + catchup_ns, span);
    layers_->catchup.Add(static_cast<double>(catchup_ns));
    layers_->serve_self.Add(static_cast<double>(call_ns - catchup_ns));
    if (served->snapshot) {
      layers_->shard_state.Add(static_cast<double>(
          TimeNs([&] { Keep(primary_->ShardState(req->shard).size()); })));
    }

    ns = NowNs();
    auto frame = ltree::replica::DecodeFrame(response);
    const int64_t decode_ns = NowNs() - ns;
    LTREE_CHECK(frame.ok());
    layers_->decode.Add(static_cast<double>(decode_ns));
    layers_->encode.Add(static_cast<double>(TimeNs(
        [&] { Keep(ltree::replica::EncodeFrame(*frame).size()); })));
    layers_->crc_ns += static_cast<double>(TimeNs([&] {
      Keep(ltree::replica::Crc32c(response.data(), response.size()));
    }));
    layers_->crc_bytes += static_cast<double>(response.size());
    ++layers_->responses;
    const uint64_t items = frame->events.size() + frame->state.size();
    layers_->items_shipped += items;
    if (items == 0) ++layers_->empty_responses;

    auto result = ltree::replica::ToCatchUpResult(*frame);
    LTREE_CHECK(result.ok());
    ns = NowNs();
    LTREE_CHECK_OK(shadow_->ApplyCatchUp(req->shard, *result));
    layers_->mirror_apply.Add(static_cast<double>(NowNs() - ns));
  }

  DocumentStore* primary_;
  ltree::replica::PrimaryEndpoint endpoint_;
  uint64_t bytes_ = 0;
  std::optional<MirrorStore> shadow_;
  Trace* trace_ = nullptr;
  Layers* layers_ = nullptr;
  int32_t parent_ = -1;
  uint64_t op_ = 0;
};

/// A mirror kept current by a ReplicationSession over a MeteredTransport.
struct Follower {
  Follower(DocumentStore* primary, uint64_t id, bool register_position)
      : mirror(kShards),
        transport(primary),
        session(&mirror, &transport, &clock,
                ltree::replica::SessionOptions{
                    .subscriber_id = id,
                    .request_timeout_ms = kRequestTimeoutMs,
                    .register_position = register_position}) {}
  Follower(const Follower&) = delete;
  Follower& operator=(const Follower&) = delete;

  MirrorStore mirror;
  ltree::replica::FakeClock clock;
  MeteredTransport transport;
  ltree::replica::ReplicationSession session;
};

struct World {
  std::unique_ptr<DocumentStore> store;
  std::unique_ptr<Follower> tight;
  std::unique_ptr<Follower> lagging;  ///< replica_sync only
};

/// The traced run's listlab replay: bare stores of the same scheme, one
/// per shard, receiving the same item-level operations as the store.
class ItemReplay {
 public:
  ItemReplay(const Shape& shape, const DocumentStore& store)
      : stores_(std::move(
            ltree::listlab::MakeLabelStores(shape.spec, kShards).ValueOrDie())),
        items_(shape.docs),
        shard_of_(shape.docs) {
    const std::vector<LeafCookie> cookies(shape.items_per_doc, 0);
    for (uint64_t doc = 0; doc < shape.docs; ++doc) {
      shard_of_[doc] = store.ShardOf(doc);
      LTREE_CHECK_OK(
          stores_[shard_of_[doc]]->PushBackBatch(cookies, &items_[doc]));
    }
  }

  /// Applies `op` as DocumentStore::Apply does (same rank clamping);
  /// returns the listlab call's time and whether it inserted.
  std::pair<int64_t, bool> Apply(uint64_t doc, const ListOp& op) {
    LabelStore& s = *stores_[shard_of_[doc]];
    std::vector<ItemHandle>& items = items_[doc];
    const uint64_t rank =
        items.empty() ? 0 : std::min<uint64_t>(op.rank, items.size() - 1);
    Result<ItemHandle> h = ItemHandle{0};
    int64_t ns = 0;
    size_t at = 0;
    if (items.empty()) {
      ns = TimeNs([&] { h = s.PushBack(0); });
    } else if (op.kind == ListOp::Kind::kInsertAfter) {
      ns = TimeNs([&] { h = s.InsertAfter(items[rank], 0); });
      at = rank + 1;
    } else if (op.kind == ListOp::Kind::kInsertBefore) {
      ns = TimeNs([&] { h = s.InsertBefore(items[rank], 0); });
      at = rank;
    } else {
      ns = TimeNs([&] { LTREE_CHECK_OK(s.Erase(items[rank])); });
      items.erase(items.begin() + static_cast<ptrdiff_t>(rank));
      return {ns, false};
    }
    LTREE_CHECK(h.ok());
    items.insert(items.begin() + static_cast<ptrdiff_t>(at), *h);
    return {ns, true};
  }

  /// GetLabel of the item a LabelAt(doc, rank) reads; returns its time.
  int64_t GetLabel(uint64_t doc, uint64_t rank) const {
    const ItemHandle h = items_[doc][rank];
    return TimeNs([&] { Keep(*stores_[shard_of_[doc]]->GetLabel(h)); });
  }

  /// Times kReadsPerSample GetLabel calls and as many guarded LabelOf
  /// calls at random positions; adds ns per read.
  void SampleReads(Rng* rng, Samples* get_label, Samples* label_of) const {
    const LabelStore* stores[kReadsPerSample];
    ItemHandle hs[kReadsPerSample];
    for (int i = 0; i < kReadsPerSample; ++i) {
      uint64_t doc = rng->Uniform(items_.size());
      while (items_[doc].empty()) doc = rng->Uniform(items_.size());
      stores[i] = stores_[shard_of_[doc]].get();
      hs[i] = items_[doc][rng->Uniform(items_[doc].size())];
    }
    const int64_t get_ns = TimeNs([&] {
      for (int i = 0; i < kReadsPerSample; ++i) {
        Keep(*stores[i]->GetLabel(hs[i]));
      }
    });
    const int64_t of_ns = TimeNs([&] {
      for (int i = 0; i < kReadsPerSample; ++i) {
        auto guard = stores[i]->AcquireRead();
        Keep(*stores[i]->LabelOf(guard, hs[i]));
      }
    });
    get_label->Add(static_cast<double>(get_ns) / kReadsPerSample);
    label_of->Add(static_cast<double>(of_ns) / kReadsPerSample);
  }

  uint64_t DocSize(uint64_t doc) const { return items_[doc].size(); }

 private:
  std::vector<std::unique_ptr<LabelStore>> stores_;
  std::vector<std::vector<ItemHandle>> items_;
  std::vector<uint32_t> shard_of_;
};

World SetUp(const Shape& shape) {
  World w;
  w.store = std::move(DocumentStore::Make({.num_shards = kShards,
                                           .scheme_spec = shape.spec,
                                           .feed_capacity = shape.feed_capacity})
                          .ValueOrDie());
  for (uint64_t doc = 0; doc < shape.docs; ++doc) {
    LTREE_CHECK_OK(w.store->CreateDocument(doc));
    LTREE_CHECK_OK(w.store->InsertBatchAfterRank(doc, 0, shape.items_per_doc));
  }
  w.tight = std::make_unique<Follower>(w.store.get(), 1, true);
  LTREE_CHECK_OK(w.tight->session.SyncRound());
  if (shape.lag_every != 0) {
    // Unregistered, so trimming to the registered follower always leaves
    // this one behind the retained window: every shard it syncs after an
    // edit takes the snapshot path.
    w.lagging = std::make_unique<Follower>(w.store.get(), 2, false);
    LTREE_CHECK_OK(w.lagging->session.SyncRound());
  }
  return w;
}

uint64_t MaxLabelBits(const DocumentStore& store) {
  uint64_t bits = 0;
  for (uint32_t s = 0; s < store.num_shards(); ++s) {
    bits = std::max<uint64_t>(bits, store.shard_store(s).label_bits());
  }
  return bits;
}

/// Every label the store serves against the follower's mirror, which was
/// built only from the change-feed: LabelAt(doc, r) must equal the mirror's
/// label for the document's r-th cookie.
void CheckReadsAgainstMirror(const DocumentStore& store,
                             const MirrorStore& mirror, uint64_t docs,
                             Report* report) {
  for (uint32_t shard = 0; shard < store.num_shards(); ++shard) {
    std::unordered_map<LeafCookie, Label> labels;
    for (const auto& [label, cookie] : mirror.ShardState(shard)) {
      labels[cookie] = label;
    }
    for (uint64_t doc = 0; doc < docs; ++doc) {
      if (store.ShardOf(doc) != shard) continue;
      auto cookies = store.DocCookies(doc);
      bool same = cookies.ok();
      for (uint64_t r = 0; same && r < cookies->size(); ++r) {
        auto label = store.LabelAt(doc, r);
        auto it = labels.find((*cookies)[r]);
        same = label.ok() && it != labels.end() && it->second == *label;
      }
      report->Op(same, "LabelAt disagrees with the mirror on document " +
                           std::to_string(doc));
    }
  }
}

void RunStoreWorkload(const char* name, const Shape& shape,
                      const Options& options, Report* report) {
  Trace trace;
  Layers layers;
  Samples setup_ns;
  CallTimes t;
  uint64_t op = 0;
  EditClock edit_clock;
  // Counter deltas summed over epochs.
  ltree::listlab::MaintStats moved;
  uint64_t feed_events = 0, attempts = 0, shard_syncs = 0;
  uint64_t traced_wire = 0;  // against layers.items_shipped
  uint64_t tight_delta = 0, tight_snapshot = 0, lag_delta = 0,
           lag_snapshot = 0;
  Counts counts;
  uint64_t items_after_setup = 0, heap_after_setup = 0;

  Epochs epochs(options, shape.counted_epochs);
  while (epochs.Next()) {
    const bool traced = epochs.traced();
    const int64_t t0 = NowNs();
    World w = SetUp(shape);
    setup_ns.Add(static_cast<double>(NowNs() - t0));
    DocumentStore& store = *w.store;

    ltree::workload::MultiSessionStream stream(
        {.num_docs = shape.docs,
         .num_sessions = kSessions,
         .doc_zipf_theta = kDocZipfTheta,
         .session_stream = {.kind = ltree::workload::StreamKind::kMixed,
                            .erase_fraction = kEraseShare,
                            .seed = epochs.seed()}});
    Rng rng(epochs.seed() ^ 0x5eedu);
    Rng read_rng(epochs.seed() ^ 0x7ea4u);  // traced reads only
    std::unique_ptr<ItemReplay> replay;
    if (traced) {
      replay = std::make_unique<ItemReplay>(shape, store);
      w.tight->transport.EnableReplay(w.tight->mirror, &trace, &layers);
      if (w.lagging) {
        w.lagging->transport.EnableReplay(w.lagging->mirror, &trace, &layers);
      }
    }
    const ltree::store::StoreStats base = store.stats();
    const ltree::replica::SessionStats tight_base = w.tight->session.stats();
    auto wire_bytes = [&] {
      return w.tight->transport.bytes() +
             (w.lagging ? w.lagging->transport.bytes() : 0);
    };
    const uint64_t wire_base = wire_bytes();
    uint64_t epoch_edits = 0;
    items_after_setup = base.live_items;
    heap_after_setup = base.heap_bytes;

    auto sync = [&](Follower& f, const char* span_name, Samples* samples) {
      const int32_t span = trace.Open(span_name, op, NowNs());
      f.transport.set_parent(span, op);
      const int64_t c0 = NowNs();
      const Status st = f.session.SyncRound();
      const int64_t c1 = NowNs();
      trace.Close(span, c1);
      report->Op(st, "SyncRound");
      samples->Add(static_cast<double>(c1 - c0));
      t.Call(c1 - c0);
    };

    trace.set_on(traced);
    const int64_t epoch_start = NowNs();
    for (uint64_t i = 0; i < shape.ops_per_epoch; ++i, ++op) {
      if (traced && op % kReadSampleEvery == 0) {
        replay->SampleReads(&read_rng, &layers.ll_get, &layers.ll_of);
      }
      if (shape.read_share > 0 && rng.Bernoulli(shape.read_share)) {
        const uint64_t doc = rng.Uniform(shape.docs);
        const uint64_t size = *store.DocSize(doc);
        if (size == 0) continue;
        const uint64_t rank = rng.Uniform(size);
        const int64_t c0 = NowNs();
        auto label = store.LabelAt(doc, rank);
        const int64_t c1 = NowNs();
        trace.Record("store.LabelAt", op, c0, c1);
        report->Op(label.status(), "LabelAt");
        t.read.Add(static_cast<double>(c1 - c0));
        t.Call(c1 - c0);
        if (traced) {
          layers.label_at_self.Add(
              static_cast<double>((c1 - c0) - replay->GetLabel(doc, rank)));
        }
        if (t.read.count() % kReadCheckEvery == 0 && rank + 1 < size &&
            label.ok()) {
          auto next = store.LabelAt(doc, rank + 1);
          report->Op(next.ok() && *label < *next,
                     "LabelAt order broken in document " +
                         std::to_string(doc));
        }
        continue;
      }

      const ltree::workload::DocOp d = stream.Next(
          [&](uint64_t doc) { return *store.DocSize(doc); });
      const int64_t c0 = NowNs();
      const Status st = store.Apply(d.doc, d.op);
      const int64_t c1 = NowNs();
      trace.Record("store.Apply", op, c0, c1);
      report->Op(st, "Apply");
      t.edit.Add(static_cast<double>(c1 - c0));
      t.Edit(c1 - c0);
      edit_clock.Add(traced, c1 - c0);
      ++epoch_edits;
      if (traced) {
        const auto [ll_ns, inserted] = replay->Apply(d.doc, d.op);
        (inserted ? layers.ll_insert : layers.ll_erase)
            .Add(static_cast<double>(ll_ns));
        layers.apply_self.Add(static_cast<double>((c1 - c0) - ll_ns));
      }
      if (epoch_edits % shape.tight_every == 0) {
        sync(*w.tight, "client.sync_round", &t.sync);
        // Feeds keep only what the registered (tight) follower needs.
        if (w.lagging) store.TrimToSlowestSubscriber();
      }
      if (w.lagging && epoch_edits % shape.lag_every == 0) {
        sync(*w.lagging, "client.lagging_sync_round", &t.lag);
      }
    }
    epochs.Measured(NowNs() - epoch_start);
    trace.set_on(false);

    const ltree::store::StoreStats now = store.stats();
    const ltree::replica::SessionStats& ts = w.tight->session.stats();
    AddMoved(now.rollup, base.rollup, &moved);
    feed_events += now.feed_events - base.feed_events;
    if (traced) traced_wire += wire_bytes() - wire_base;
    attempts += ts.attempts - tight_base.attempts;
    shard_syncs += (ts.rounds - tight_base.rounds) * kShards;
    if (epochs.counted()) {
      counts.AddEpoch(now.rollup.inserts - base.rollup.inserts,
                      now.rollup.items_relabeled - base.rollup.items_relabeled,
                      now.heap_bytes, now.live_items, MaxLabelBits(store));
      counts.edits += epoch_edits;
      counts.wire_bytes += wire_bytes() - wire_base;
    }

    // Correctness gate, outside the timed calls.
    for (Follower* f : {w.tight.get(), w.lagging.get()}) {
      if (f == nullptr) continue;
      report->Op(f->session.SyncRound(), "final SyncRound");
      report->Op(f->mirror.CheckEquivalent(store), "CheckEquivalent");
      const ltree::audit::Report audit = f->session.Validate();
      report->Op(audit.ok(),
                 "ReplicationSession::Validate: " + audit.ToString());
      if (const MirrorStore* shadow = f->transport.shadow()) {
        report->Op(shadow->CheckEquivalent(store), "shadow CheckEquivalent");
      }
    }
    tight_delta += w.tight->mirror.delta_syncs();
    tight_snapshot += w.tight->mirror.snapshot_syncs();
    if (w.lagging) {
      lag_delta += w.lagging->mirror.delta_syncs();
      lag_snapshot += w.lagging->mirror.snapshot_syncs();
    }
    if (epochs.last()) {
      // The deep audit and the full read sweep take seconds on store_edit,
      // so they close the run rather than every epoch.
      const ltree::audit::Report audit = store.Validate();
      report->Op(audit.ok(), "DocumentStore::Validate: " + audit.ToString());
      CheckReadsAgainstMirror(store, w.tight->mirror, shape.docs, report);
    }
    if (replay != nullptr) {
      bool same = true;
      for (uint64_t doc = 0; doc < shape.docs; ++doc) {
        same = same && replay->DocSize(doc) == *store.DocSize(doc);
      }
      report->Op(same, "listlab replay diverged from the store");
    }
  }

  report->Note(std::string(name) + ": spec " + shape.spec + ", " +
               std::to_string(kShards) + " shards, " +
               std::to_string(shape.docs) + " documents, " +
               std::to_string(items_after_setup) + " items and " +
               std::to_string(heap_after_setup >> 20) +
               " MiB label heap after set-up; " +
               std::to_string(epochs.count()) + " epochs of " +
               std::to_string(shape.ops_per_epoch) +
               " operations");
  report->Note(std::to_string(t.edits) + " edits, " +
               std::to_string(t.read.count()) + " reads, " +
               std::to_string(t.sync.count()) + " tight sync rounds, " +
               std::to_string(t.lag.count()) +
               " lagging sync rounds; shard syncs (delta/snapshot, incl. "
               "set-up): tight " + std::to_string(tight_delta) + "/" +
               std::to_string(tight_snapshot) +
               (shape.lag_every != 0 ? ", lagging " + std::to_string(lag_delta) +
                                           "/" + std::to_string(lag_snapshot)
                                     : std::string()));
  if (shape.read_share == 0) t.read = t.sync;
  report->Note(shape.read_share > 0
                   ? "read = one DocumentStore::LabelAt"
                   : "read = one SyncRound of the tight follower");
  report->SetMedian("setup_s", setup_ns, 1e-9, "s");
  if (!options.trace) {
    ReportCallTimes(t, report);
    if (shape.read_share > 0) {
      report->SetPercentile("read_p50_ns", t.read, 0.5, 1, "ns");
    }
    report->SetPercentile("sync_p50_us", t.sync, 0.5, 1e-3, "us");
    if (shape.lag_every != 0) {
      report->SetPercentile("sync_p99_us", t.sync, 0.99, 1e-3, "us");
      report->SetPercentile("snapshot_sync_p50_ms", t.lag, 0.5, 1e-6, "ms");
    }
  }
  counts.Report(report, /*wire=*/true);
  if (!options.trace) return;

  report->SetPercentile("listlab.insert_p50_ns", layers.ll_insert, 0.5, 1,
                        "ns");
  report->SetPercentile("listlab.insert_p99_ns", layers.ll_insert, 0.99, 1,
                        "ns");
  report->SetPercentile("listlab.erase_p50_ns", layers.ll_erase, 0.5, 1, "ns");
  report->SetPercentile("listlab.get_label_p50_ns", layers.ll_get, 0.5, 1,
                        "ns");
  report->SetPercentile("listlab.label_of_p50_ns", layers.ll_of, 0.5, 1, "ns");
  ReportLabelCounters(moved, t.edits, report);
  report->SetPercentile("store.apply_self_p50_ns", layers.apply_self, 0.5, 1,
                        "ns");
  if (shape.read_share > 0) {
    report->SetPercentile("store.label_at_self_p50_ns", layers.label_at_self,
                          0.5, 1, "ns");
  }
  report->Set("store.feed_events_per_edit",
              static_cast<double>(feed_events) /
                  static_cast<double>(std::max<uint64_t>(t.edits, 1)),
              "count", t.edits);
  report->SetPercentile("store.catchup_p50_us", layers.catchup, 0.5, 1e-3,
                        "us");
  if (shape.lag_every != 0) {
    report->SetPercentile("store.shard_state_p50_us", layers.shard_state, 0.5,
                          1e-3, "us");
  }
  report->SetPercentile("store.mirror_apply_p50_us", layers.mirror_apply, 0.5,
                        1e-3, "us");
  report->SetPercentile("replica.encode_p50_us", layers.encode, 0.5, 1e-3,
                        "us");
  report->SetPercentile("replica.decode_p50_us", layers.decode, 0.5, 1e-3,
                        "us");
  // Whole-run throughput: most responses are a few dozen bytes, too short
  // to time one by one.
  report->Set("replica.crc32c_ns_per_byte",
              layers.crc_ns / std::max(layers.crc_bytes, 1.0), "ns/B",
              layers.decode.count());
  report->SetPercentile("replica.serve_self_p50_us", layers.serve_self, 0.5,
                        1e-3, "us");
  report->Set("replica.bytes_per_event",
              static_cast<double>(traced_wire) /
                  static_cast<double>(std::max<uint64_t>(layers.items_shipped, 1)),
              "B", layers.items_shipped);
  report->Set("replica.empty_response_share",
              static_cast<double>(layers.empty_responses) /
                  static_cast<double>(std::max<uint64_t>(layers.responses, 1)),
              "ratio", layers.responses);
  report->Set("replica.attempts_per_shard_sync",
              static_cast<double>(attempts) /
                  static_cast<double>(std::max<uint64_t>(shard_syncs, 1)),
              "count", shard_syncs);
  // This workload parses no XML and evaluates no path queries.
  report->Set("query.rows_per_result", 0, "count", 0);
  FinishTrace(trace, edit_clock, options, report);
}

}  // namespace

void RunStoreEdit(const Options& options, Report* report) {
  const Shape shape =
      options.small
          ? Shape{"ltree:16:4", 32, 500, 1 << 16, 0.30, 4096, 0, 24576, 2}
          : Shape{"ltree:16:4", 256, 4300, 1 << 16, 0.30, 4096, 0, 655360,
                  4};
  RunStoreWorkload("store_edit", shape, options, report);
}

void RunReplicaSync(const Options& options, Report* report) {
  const Shape shape =
      options.small
          ? Shape{"virtual:16:4", 16, 100, 1 << 12, 0.0, 8, 2048, 10240, 2}
          : Shape{"virtual:16:4", 64, 625, 1 << 12, 0.0, 8, 16384, 98304,
                  12};
  RunStoreWorkload("replica_sync", shape, options, report);
}

}  // namespace perfbench
