#include "store/document_store.h"

#include <algorithm>
#include <numeric>

#include "common/macros.h"
#include "common/random.h"
#include "core/failpoint.h"
#include "listlab/factory.h"

namespace ltree {
namespace store {

// One shard: the labeling scheme and its versioned feed. The ctx is itself
// the scheme's RelabelListener — the "feed tap" that turns relabels into
// versioned feed events. Schemes report live items only, so the one thing
// the tap drops is a relabel of an item the call in flight is inserting
// (cookie >= next_cookie_; only per-item batch fallbacks make them): its
// kInsert, published once the call returns, already carries its label.
struct DocumentStore::ShardCtx : RelabelListener {
  ShardCtx(std::unique_ptr<listlab::LabelStore> s, uint64_t feed_capacity,
           const LeafCookie& next)
      : store(std::move(s)), feed(feed_capacity), next_cookie(next) {
    store->set_listener(this);
  }

  void OnRelabel(LeafCookie cookie, Label old_label,
                 Label new_label) override {
    if (cookie >= next_cookie) return;  // not yet published
    feed.Append({.kind = FeedEvent::Kind::kRelabel,
                 .cookie = cookie,
                 .old_label = old_label,
                 .new_label = new_label});
    ++relabels_published;
  }

  std::unique_ptr<listlab::LabelStore> store;
  ChangeFeed feed;
  const LeafCookie& next_cookie;  ///< the store's next_cookie_
  uint64_t inserts_published = 0;
  uint64_t erases_published = 0;
  uint64_t relabels_published = 0;
};

DocumentStore::DocumentStore(DocStoreOptions options)
    : options_(std::move(options)) {}

DocumentStore::~DocumentStore() = default;

Result<std::unique_ptr<DocumentStore>> DocumentStore::Make(
    const DocStoreOptions& options) {
  if (options.num_shards == 0) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  if (options.feed_capacity == 0) {
    return Status::InvalidArgument("feed_capacity must be >= 1");
  }
  LTREE_ASSIGN_OR_RETURN(
      auto schemes,
      listlab::MakeLabelStores(options.scheme_spec, options.num_shards));
  std::unique_ptr<DocumentStore> out(new DocumentStore(options));
  out->shards_.reserve(options.num_shards);
  for (auto& scheme : schemes) {
    out->shards_.push_back(
        std::make_unique<ShardCtx>(std::move(scheme), options.feed_capacity,
                                   out->next_cookie_));
  }
  return out;
}

uint32_t DocumentStore::ShardOf(DocId doc) const {
  // SplitMix64 scrambles sequential ids so routing stays uniform no matter
  // how callers mint DocIds.
  return static_cast<uint32_t>(SplitMix64(doc).Next() %
                               shards_.size());
}

// ---------------------------------------------------------------- documents

Status DocumentStore::CreateDocument(DocId doc) {
  if (docs_.count(doc) != 0) {
    return Status::AlreadyExists("document " + std::to_string(doc) +
                                 " already exists");
  }
  docs_.emplace(doc, DocState{.shard = ShardOf(doc), .items = {}});
  AutoValidate("CreateDocument");
  return Status::OK();
}

Status DocumentStore::DropDocument(DocId doc) {
  LTREE_FAILPOINT("store.erase");
  LTREE_ASSIGN_OR_RETURN(DocState * state, FindDoc(doc));
  ShardCtx& ctx = *shards_[state->shard];
  for (const listlab::ItemHandle handle : state->items) {
    LTREE_RETURN_IF_ERROR(EraseOne(ctx, handle));
  }
  docs_.erase(doc);
  AutoValidate("DropDocument");
  return Status::OK();
}

Result<uint64_t> DocumentStore::DocSize(DocId doc) const {
  LTREE_ASSIGN_OR_RETURN(const DocState* state, FindDoc(doc));
  return static_cast<uint64_t>(state->items.size());
}

// --------------------------------------------------------------- item edits

Result<DocumentStore::DocState*> DocumentStore::FindDoc(DocId doc) {
  auto it = docs_.find(doc);
  if (it == docs_.end()) {
    return Status::NotFound("unknown document " + std::to_string(doc));
  }
  return &it->second;
}

Result<const DocumentStore::DocState*> DocumentStore::FindDoc(
    DocId doc) const {
  auto it = docs_.find(doc);
  if (it == docs_.end()) {
    return Status::NotFound("unknown document " + std::to_string(doc));
  }
  return &it->second;
}

void DocumentStore::PublishInsert(ShardCtx& ctx, LeafCookie cookie,
                                  listlab::ItemHandle handle) {
  ctx.feed.Append({.kind = FeedEvent::Kind::kInsert,
                   .cookie = cookie,
                   .old_label = kInvalidLabel,
                   .new_label = ctx.store->GetLabel(handle).ValueOrDie()});
  ++ctx.inserts_published;
  ++ledger_.inserts;
}

Status DocumentStore::EraseOne(ShardCtx& ctx, listlab::ItemHandle handle) {
  LTREE_ASSIGN_OR_RETURN(const LeafCookie cookie, ctx.store->GetCookie(handle));
  LTREE_ASSIGN_OR_RETURN(const Label label, ctx.store->GetLabel(handle));
  LTREE_RETURN_IF_ERROR(ctx.store->Erase(handle));
  ctx.feed.Append({.kind = FeedEvent::Kind::kErase,
                   .cookie = cookie,
                   .old_label = label,
                   .new_label = kInvalidLabel});
  ++ctx.erases_published;
  ++ledger_.erases;
  return Status::OK();
}

Result<LeafCookie> DocumentStore::InsertOne(DocId doc, uint64_t rank,
                                            bool before, bool append) {
  LTREE_FAILPOINT("store.insert");
  LTREE_ASSIGN_OR_RETURN(DocState * state, FindDoc(doc));
  ShardCtx& ctx = *shards_[state->shard];
  const LeafCookie cookie = next_cookie_;
  Result<listlab::ItemHandle> inserted = [&]() -> Result<listlab::ItemHandle> {
    if (state->items.empty()) {
      // First item: append to the shard list's tail — documents sharing a
      // shard interleave there, which is fine, document order lives in the
      // registry.
      return ctx.store->PushBack(cookie);
    }
    if (append) return ctx.store->InsertAfter(state->items.back(), cookie);
    if (rank >= state->items.size()) {
      return Status::OutOfRange("rank " + std::to_string(rank) +
                                " out of range for document of size " +
                                std::to_string(state->items.size()));
    }
    return before ? ctx.store->InsertBefore(state->items[rank], cookie)
                  : ctx.store->InsertAfter(state->items[rank], cookie);
  }();
  LTREE_RETURN_IF_ERROR(inserted.status());
  ++next_cookie_;
  const size_t at = state->items.empty() ? 0
                    : append              ? state->items.size()
                    : before              ? rank
                                          : rank + 1;
  state->items.insert(state->items.begin() + static_cast<ptrdiff_t>(at),
                      *inserted);
  PublishInsert(ctx, cookie, *inserted);
  AutoValidate("Insert");
  return cookie;
}

Result<LeafCookie> DocumentStore::Append(DocId doc) {
  return InsertOne(doc, 0, /*before=*/false, /*append=*/true);
}

Result<LeafCookie> DocumentStore::InsertAfterRank(DocId doc, uint64_t rank) {
  return InsertOne(doc, rank, /*before=*/false, /*append=*/false);
}

Result<LeafCookie> DocumentStore::InsertBeforeRank(DocId doc, uint64_t rank) {
  return InsertOne(doc, rank, /*before=*/true, /*append=*/false);
}

Status DocumentStore::InsertBatchAfterRank(DocId doc, uint64_t rank,
                                           uint64_t count,
                                           std::vector<LeafCookie>* cookies) {
  if (count == 0) return Status::OK();
  LTREE_FAILPOINT("store.insert");
  LTREE_ASSIGN_OR_RETURN(DocState * state, FindDoc(doc));
  ShardCtx& ctx = *shards_[state->shard];
  if (!state->items.empty() && rank >= state->items.size()) {
    return Status::OutOfRange("rank " + std::to_string(rank) +
                              " out of range for document of size " +
                              std::to_string(state->items.size()));
  }
  std::vector<LeafCookie> fresh(count);
  std::iota(fresh.begin(), fresh.end(), next_cookie_);
  std::vector<listlab::ItemHandle> handles;
  // A mid-batch failure makes the scheme roll back by erasing the partial
  // prefix, which shows up in its MaintStats; snapshot the counters so the
  // stats-rollup conservation rule can account for items that never became
  // live.
  const uint64_t pre_inserts = ctx.store->stats().inserts;
  const uint64_t pre_erases = ctx.store->stats().erases;
  const Status st =
      state->items.empty()
          ? ctx.store->PushBackBatch(fresh, &handles)
          : ctx.store->InsertBatchAfter(state->items[rank], fresh, &handles);
  if (!st.ok()) {
    ledger_.rolled_back_inserts += ctx.store->stats().inserts - pre_inserts;
    ledger_.rolled_back_erases += ctx.store->stats().erases - pre_erases;
    return st;
  }
  LTREE_CHECK(handles.size() == count);
  next_cookie_ += count;
  const size_t at = state->items.empty() ? 0 : static_cast<size_t>(rank) + 1;
  state->items.insert(state->items.begin() + static_cast<ptrdiff_t>(at),
                      handles.begin(), handles.end());
  for (uint64_t i = 0; i < count; ++i) {
    PublishInsert(ctx, fresh[i], handles[i]);
  }
  if (cookies != nullptr) {
    cookies->insert(cookies->end(), fresh.begin(), fresh.end());
  }
  AutoValidate("InsertBatchAfterRank");
  return Status::OK();
}

Status DocumentStore::EraseAt(DocId doc, uint64_t rank) {
  LTREE_FAILPOINT("store.erase");
  LTREE_ASSIGN_OR_RETURN(DocState * state, FindDoc(doc));
  if (rank >= state->items.size()) {
    return Status::OutOfRange("rank " + std::to_string(rank) +
                              " out of range for document of size " +
                              std::to_string(state->items.size()));
  }
  LTREE_RETURN_IF_ERROR(EraseOne(*shards_[state->shard], state->items[rank]));
  state->items.erase(state->items.begin() + static_cast<ptrdiff_t>(rank));
  AutoValidate("EraseAt");
  return Status::OK();
}

Status DocumentStore::Apply(DocId doc, const workload::ListOp& op) {
  LTREE_ASSIGN_OR_RETURN(const DocState* state, FindDoc(doc));
  const uint64_t size = state->items.size();
  const uint64_t rank = size == 0 ? 0 : std::min(op.rank, size - 1);
  switch (op.kind) {
    case workload::ListOp::Kind::kInsertAfter:
      return (size == 0 ? Append(doc) : InsertAfterRank(doc, rank)).status();
    case workload::ListOp::Kind::kInsertBefore:
      return (size == 0 ? Append(doc) : InsertBeforeRank(doc, rank)).status();
    case workload::ListOp::Kind::kErase:
      if (size == 0) {
        return Status::FailedPrecondition("erase on empty document");
      }
      return EraseAt(doc, rank);
  }
  return Status::InvalidArgument("unknown op kind");
}

// ------------------------------------------------------------------ queries

Result<Label> DocumentStore::LabelAt(DocId doc, uint64_t rank) const {
  LTREE_ASSIGN_OR_RETURN(const DocState* state, FindDoc(doc));
  if (rank >= state->items.size()) {
    return Status::OutOfRange("rank out of range");
  }
  return shards_[state->shard]->store->GetLabel(state->items[rank]);
}

Result<std::vector<LeafCookie>> DocumentStore::DocCookies(DocId doc) const {
  LTREE_ASSIGN_OR_RETURN(const DocState* state, FindDoc(doc));
  const ShardCtx& ctx = *shards_[state->shard];
  std::vector<LeafCookie> out;
  out.reserve(state->items.size());
  for (const listlab::ItemHandle handle : state->items) {
    LTREE_ASSIGN_OR_RETURN(const LeafCookie cookie,
                           ctx.store->GetCookie(handle));
    out.push_back(cookie);
  }
  return out;
}

const listlab::LabelStore& DocumentStore::shard_store(uint32_t shard) const {
  return *shards_[shard]->store;
}

const ChangeFeed& DocumentStore::feed(uint32_t shard) const {
  return shards_[shard]->feed;
}

listlab::LabelStore::ReadGuard DocumentStore::AcquireShardRead(
    uint32_t shard) const {
  return shards_[shard]->store->AcquireRead();
}

std::vector<std::pair<Label, LeafCookie>> DocumentStore::ShardState(
    uint32_t shard) const {
  // The scheme's own scan is label-ordered and runs under one guard, so the
  // snapshot is consistent against this shard's writer.
  const listlab::LabelStore& store = *shards_[shard]->store;
  return store.ScanAll(store.AcquireRead());
}

// ----------------------------------------------------------- change-feed sync

StateVector DocumentStore::CurrentStateVector() const {
  StateVector sv(num_shards());
  for (uint32_t i = 0; i < num_shards(); ++i) {
    sv.Advance(i, shards_[i]->feed.last_seq());
  }
  return sv;
}

Result<CatchUpResult> DocumentStore::CatchUp(uint32_t shard,
                                             uint64_t from_seq) const {
  LTREE_FAILPOINT("store.catchup");
  if (shard >= num_shards()) {
    return Status::InvalidArgument("unknown shard " + std::to_string(shard));
  }
  const ShardCtx& ctx = *shards_[shard];
  const uint64_t last = ctx.feed.last_seq();
  if (from_seq > last) {
    return Status::InvalidArgument(
        "subscriber position " + std::to_string(from_seq) +
        " is beyond shard feed head " + std::to_string(last));
  }
  CatchUpResult out;
  out.from_seq = from_seq;
  out.to_seq = last;
  if (ctx.feed.CanServeFrom(from_seq)) {
    LTREE_ASSIGN_OR_RETURN(out.events, ctx.feed.EventsSince(from_seq));
    return out;
  }
  // The log has been trimmed past the subscriber: one compact label
  // snapshot replaces replaying the missing prefix.
  out.snapshot = true;
  out.state = ShardState(shard);
  return out;
}

void DocumentStore::TrimFeeds(uint64_t keep) {
  for (auto& ctx : shards_) ctx->feed.TrimTo(keep);
}

// ------------------------------------------------------ subscriber registry

Status DocumentStore::RegisterSubscriber(uint64_t subscriber,
                                         const StateVector& position) {
  if (position.num_shards() != num_shards()) {
    return Status::InvalidArgument(
        "subscriber state vector has " + std::to_string(position.num_shards()) +
        " shards, store has " + std::to_string(num_shards()));
  }
  for (uint32_t i = 0; i < num_shards(); ++i) {
    const uint64_t head = shards_[i]->feed.last_seq();
    if (position.seq(i) > head) {
      return Status::InvalidArgument(
          "subscriber position " + std::to_string(position.seq(i)) +
          " for shard " + std::to_string(i) + " is beyond feed head " +
          std::to_string(head));
    }
  }
  subscribers_[subscriber] = position;
  AutoValidate("RegisterSubscriber");
  return Status::OK();
}

Status DocumentStore::UnregisterSubscriber(uint64_t subscriber) {
  if (subscribers_.erase(subscriber) == 0) {
    return Status::NotFound("subscriber " + std::to_string(subscriber) +
                            " is not registered");
  }
  return Status::OK();
}

uint64_t DocumentStore::SlowestSubscriberSeq(uint32_t shard) const {
  uint64_t slowest = shards_[shard]->feed.last_seq();
  for (const auto& [id, position] : subscribers_) {
    slowest = std::min(slowest, position.seq(shard));
  }
  return slowest;
}

uint64_t DocumentStore::TrimToSlowestSubscriber(uint64_t max_retained) {
  uint64_t trimmed = 0;
  for (uint32_t i = 0; i < num_shards(); ++i) {
    ChangeFeed& feed = shards_[i]->feed;
    // Events in (slowest, last_seq] are still owed to some subscriber;
    // everything at or below the slowest position has been applied
    // everywhere. The budget wins over the laggard: past it the laggard
    // re-syncs via snapshot instead of pinning memory.
    const uint64_t needed = feed.last_seq() - SlowestSubscriberSeq(i);
    const uint64_t before = feed.trimmed();
    feed.TrimTo(std::min(needed, max_retained));
    trimmed += feed.trimmed() - before;
  }
  AutoValidate("TrimToSlowestSubscriber");
  return trimmed;
}

// -------------------------------------------------------------------- stats

namespace {

void AccumulateMaintStats(const listlab::MaintStats& in,
                          listlab::MaintStats* out) {
  out->inserts += in.inserts;
  out->erases += in.erases;
  out->batch_inserts += in.batch_inserts;
  out->items_relabeled += in.items_relabeled;
  out->rebalances += in.rebalances;
  out->relabel_passes += in.relabel_passes;
  out->coalesced_regions += in.coalesced_regions;
  out->nodes_allocated += in.nodes_allocated;
  out->nodes_reused += in.nodes_reused;
  out->nodes_released += in.nodes_released;
}

}  // namespace

StoreStats DocumentStore::stats() const {
  StoreStats out;
  out.documents = docs_.size();
  out.per_shard_items.reserve(shards_.size());
  out.per_shard_heap_bytes.reserve(shards_.size());
  for (const auto& ctx : shards_) {
    AccumulateMaintStats(ctx->store->stats(), &out.rollup);
    const uint64_t items = ctx->store->size();
    const uint64_t bytes = ctx->store->ApproxHeapBytes();
    out.live_items += items;
    out.heap_bytes += bytes;
    out.feed_events += ctx->feed.last_seq();
    out.feed_retained += ctx->feed.retained();
    out.feed_trimmed += ctx->feed.trimmed();
    out.per_shard_items.push_back(items);
    out.per_shard_heap_bytes.push_back(bytes);
  }
  return out;
}

audit::Report DocumentStore::Validate() const {
  audit::Report report;
  for (uint32_t i = 0; i < num_shards(); ++i) {
    report.Absorb(shards_[i]->store->Validate(),
                  "docstore:/shard" + std::to_string(i));
  }
  ValidateStoreLevel(&report);
  return report;
}

void DocumentStore::ValidateStoreLevel(audit::Report* out) const {
  audit::Report& report = *out;
  for (uint32_t i = 0; i < num_shards(); ++i) {
    report.Absorb(shards_[i]->feed.Validate(),
                  "docstore:/shard" + std::to_string(i) + "/feed");
  }

  // shard-routing: the registry holds exactly each shard scheme's live
  // items — every registered handle resolves, none is registered twice,
  // and the per-shard counts agree.
  std::vector<std::vector<listlab::ItemHandle>> registered(shards_.size());
  for (const auto& [doc, state] : docs_) {
    const std::string doc_path = "docstore:/doc" + std::to_string(doc);
    if (state.shard >= shards_.size()) {
      report.Add(doc_path, "shard-routing",
                 "registered shard " + std::to_string(state.shard) +
                     " out of range");
      continue;
    }
    if (ShardOf(doc) != state.shard) {
      report.Add(doc_path, "shard-routing",
                 "router resolves to shard " + std::to_string(ShardOf(doc)) +
                     " but registry holds shard " +
                     std::to_string(state.shard));
    }
    const listlab::LabelStore& store = *shards_[state.shard]->store;
    for (const listlab::ItemHandle handle : state.items) {
      const auto cookie = store.GetCookie(handle);
      if (!cookie.ok()) {
        report.Add(doc_path, "shard-routing",
                   "item handle " + std::to_string(handle) +
                       " does not resolve in its shard store: " +
                       cookie.status().ToString());
      }
      registered[state.shard].push_back(handle);
    }
  }
  for (uint32_t i = 0; i < num_shards(); ++i) {
    const ShardCtx& ctx = *shards_[i];
    const std::string path = "docstore:/shard" + std::to_string(i);
    std::vector<listlab::ItemHandle>& handles = registered[i];
    std::sort(handles.begin(), handles.end());
    const auto twice = std::adjacent_find(handles.begin(), handles.end());
    if (twice != handles.end()) {
      report.Add(path, "shard-routing",
                 "item handle " + std::to_string(*twice) +
                     " is registered more than once");
    }
    if (handles.size() != ctx.store->size()) {
      report.Add(path, "shard-routing",
                 "documents register " + std::to_string(handles.size()) +
                     " items but the scheme reports " +
                     std::to_string(ctx.store->size()) + " live items");
    }
    // feed publication counters vs the feed's own sequence clock.
    const uint64_t published = ctx.inserts_published + ctx.erases_published +
                               ctx.relabels_published;
    if (published != ctx.feed.last_seq()) {
      report.Add(path + "/feed", "feed-continuity",
                 "published counters sum to " + std::to_string(published) +
                     " but last_seq is " +
                     std::to_string(ctx.feed.last_seq()));
    }
  }

  // subscriber-registry: registered positions must describe this store —
  // right shard count, never ahead of what the feeds actually published.
  for (const auto& [id, position] : subscribers_) {
    const std::string sub_path = "docstore:/subscriber" + std::to_string(id);
    if (position.num_shards() != num_shards()) {
      report.Add(sub_path, "subscriber-registry",
                 "state vector has " + std::to_string(position.num_shards()) +
                     " shards, store has " + std::to_string(num_shards()));
      continue;
    }
    for (uint32_t i = 0; i < num_shards(); ++i) {
      if (position.seq(i) > shards_[i]->feed.last_seq()) {
        report.Add(sub_path, "subscriber-registry",
                   "shard " + std::to_string(i) + " position " +
                       std::to_string(position.seq(i)) +
                       " is beyond feed head " +
                       std::to_string(shards_[i]->feed.last_seq()));
      }
    }
  }

  // stats-rollup: scheme counters, the store ledger and the feed
  // publication counters are three independent bookkeepers of the same
  // event stream.
  uint64_t scheme_inserts = 0;
  uint64_t scheme_erases = 0;
  uint64_t published_inserts = 0;
  uint64_t published_erases = 0;
  for (const auto& ctx : shards_) {
    scheme_inserts += ctx->store->stats().inserts;
    scheme_erases += ctx->store->stats().erases;
    published_inserts += ctx->inserts_published;
    published_erases += ctx->erases_published;
  }
  const auto check = [&report](uint64_t got, uint64_t want,
                               const std::string& what) {
    if (got != want) {
      report.Add("docstore:", "stats-rollup",
                 what + ": " + std::to_string(got) + " != " +
                     std::to_string(want));
    }
  };
  check(scheme_inserts, ledger_.inserts + ledger_.rolled_back_inserts,
        "scheme insert counters vs store ledger");
  check(scheme_erases, ledger_.erases + ledger_.rolled_back_erases,
        "scheme erase counters vs store ledger");
  check(published_inserts, ledger_.inserts,
        "published insert events vs store ledger");
  check(published_erases, ledger_.erases,
        "published erase events vs store ledger");
  uint64_t live_total = 0;
  for (const auto& ctx : shards_) live_total += ctx->store->size();
  check(live_total, ledger_.inserts - ledger_.erases,
        "live items vs ledger insert/erase balance");
}

void DocumentStore::AutoValidate(const char* op) const {
#ifdef LISTLAB_VALIDATE
  // Only the store-layer rules re-run here: under LISTLAB_VALIDATE each
  // shard's scheme already deep-audits itself after every mutation, so
  // repeating those walks per store mutation would square the cost.
  audit::Report report;
  ValidateStoreLevel(&report);
  audit::AbortIfCorrupt(report, "DocumentStore", op);
#else
  (void)op;
#endif
}

}  // namespace store
}  // namespace ltree
