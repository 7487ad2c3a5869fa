#include "listlab/ltree_store.h"

#include <numeric>
#include <unordered_map>

#include "common/macros.h"
#include "common/string_util.h"
#include "core/validate.h"

namespace ltree {
namespace listlab {

namespace {

std::string SchemeName(const char* kind, const Params& params) {
  return StrFormat("%s(f=%u,s=%u%s)", kind, params.f, params.s,
                   params.purge_tombstones_on_split ? ",purge" : "");
}

}  // namespace

// ---------------------------------------------------------------------------
// Materialized store
// ---------------------------------------------------------------------------

LTreeStore::LTreeStore(std::unique_ptr<LTree> tree) : tree_(std::move(tree)) {
  tree_->set_listener(this);
  tree_->set_epoch(&epoch_);
}

LTreeStore::~LTreeStore() {
  // Drain retired leaves back to the arena while tree_ (and its arena) is
  // still alive; legal because no reader can outlive the store.
  epoch_.ReclaimAllUnsafe();
}

Result<std::unique_ptr<LTreeStore>> LTreeStore::Make(const Params& params) {
  LTREE_ASSIGN_OR_RETURN(std::unique_ptr<LTree> tree, LTree::Create(params));
  return std::unique_ptr<LTreeStore>(new LTreeStore(std::move(tree)));
}

std::string LTreeStore::name() const {
  return SchemeName("ltree", tree_->params());
}

void LTreeStore::OnRelabel(LeafCookie cookie, Label old_label,
                           Label new_label) {
  if (listener_ != nullptr) listener_->OnRelabel(cookie, old_label, new_label);
}

Result<LTree::LeafHandle> LTreeStore::LiveHandle(ItemHandle h) const {
  if (h >= slots_.size()) return Status::NotFound("unknown item handle");
  const uintptr_t bits = slots_[h].load(std::memory_order_acquire);
  if ((bits & kErasedBit) != 0) {
    return Status::NotFound("item handle already erased");
  }
  return reinterpret_cast<LTree::LeafHandle>(bits);
}

ItemHandle LTreeStore::Register(LTree::LeafHandle handle,
                                std::vector<ItemHandle>* handles) {
  slots_.PushBack().store(reinterpret_cast<uintptr_t>(handle),
                          std::memory_order_release);
  slots_.Publish();
  const ItemHandle h = slots_.writer_size() - 1;
  if (handles != nullptr) handles->push_back(h);
  return h;
}

Status LTreeStore::BulkLoadImpl(std::span<const LeafCookie> cookies,
                                std::vector<ItemHandle>* handles) {
  std::vector<LTree::LeafHandle> fresh;
  LTREE_RETURN_IF_ERROR(tree_->BulkLoad(cookies, &fresh));
  for (LTree::LeafHandle h : fresh) Register(h, handles);
  AutoValidate("BulkLoad");
  return Status::OK();
}

Result<ItemHandle> LTreeStore::InsertAfterImpl(ItemHandle pos,
                                               LeafCookie cookie) {
  LTREE_ASSIGN_OR_RETURN(LTree::LeafHandle where, LiveHandle(pos));
  LTREE_ASSIGN_OR_RETURN(LTree::LeafHandle fresh,
                         tree_->InsertAfter(where, cookie));
  const ItemHandle h = Register(fresh, nullptr);
  AutoValidate("InsertAfter");
  return h;
}

Result<ItemHandle> LTreeStore::InsertBeforeImpl(ItemHandle pos,
                                                LeafCookie cookie) {
  LTREE_ASSIGN_OR_RETURN(LTree::LeafHandle where, LiveHandle(pos));
  LTREE_ASSIGN_OR_RETURN(LTree::LeafHandle fresh,
                         tree_->InsertBefore(where, cookie));
  const ItemHandle h = Register(fresh, nullptr);
  AutoValidate("InsertBefore");
  return h;
}

Result<ItemHandle> LTreeStore::PushBackImpl(LeafCookie cookie) {
  LTREE_ASSIGN_OR_RETURN(LTree::LeafHandle fresh, tree_->PushBack(cookie));
  const ItemHandle h = Register(fresh, nullptr);
  AutoValidate("PushBack");
  return h;
}

Result<ItemHandle> LTreeStore::PushFrontImpl(LeafCookie cookie) {
  LTREE_ASSIGN_OR_RETURN(LTree::LeafHandle fresh, tree_->PushFront(cookie));
  const ItemHandle h = Register(fresh, nullptr);
  AutoValidate("PushFront");
  return h;
}

Status LTreeStore::InsertBatchAfterImpl(ItemHandle pos,
                                        std::span<const LeafCookie> cookies,
                                        std::vector<ItemHandle>* handles) {
  LTREE_ASSIGN_OR_RETURN(LTree::LeafHandle where, LiveHandle(pos));
  std::vector<LTree::LeafHandle> fresh;
  LTREE_RETURN_IF_ERROR(tree_->InsertBatchAfter(where, cookies, &fresh));
  for (LTree::LeafHandle h : fresh) Register(h, handles);
  AutoValidate("InsertBatchAfter");
  return Status::OK();
}

Status LTreeStore::InsertBatchBeforeImpl(ItemHandle pos,
                                         std::span<const LeafCookie> cookies,
                                         std::vector<ItemHandle>* handles) {
  LTREE_ASSIGN_OR_RETURN(LTree::LeafHandle where, LiveHandle(pos));
  std::vector<LTree::LeafHandle> fresh;
  LTREE_RETURN_IF_ERROR(tree_->InsertBatchBefore(where, cookies, &fresh));
  for (LTree::LeafHandle h : fresh) Register(h, handles);
  AutoValidate("InsertBatchBefore");
  return Status::OK();
}

Status LTreeStore::PushBackBatchImpl(std::span<const LeafCookie> cookies,
                                     std::vector<ItemHandle>* handles) {
  std::vector<LTree::LeafHandle> fresh;
  LTREE_RETURN_IF_ERROR(tree_->PushBackBatch(cookies, &fresh));
  for (LTree::LeafHandle h : fresh) Register(h, handles);
  AutoValidate("PushBackBatch");
  return Status::OK();
}

Status LTreeStore::EraseImpl(ItemHandle h) {
  if (h >= slots_.size()) return Status::NotFound("unknown item handle");
  const uintptr_t bits = slots_[h].load(std::memory_order_relaxed);
  if ((bits & kErasedBit) != 0) {
    return Status::FailedPrecondition("item handle already erased");
  }
  LTREE_RETURN_IF_ERROR(
      tree_->MarkDeleted(reinterpret_cast<LTree::LeafHandle>(bits)));
  slots_[h].store(bits | kErasedBit, std::memory_order_release);
  AutoValidate("Erase");
  return Status::OK();
}

Result<Label> LTreeStore::GetLabel(ItemHandle h) const {
  LTREE_ASSIGN_OR_RETURN(LTree::LeafHandle where, LiveHandle(h));
  return tree_->label(where);
}

Result<LeafCookie> LTreeStore::GetCookie(ItemHandle h) const {
  LTREE_ASSIGN_OR_RETURN(LTree::LeafHandle where, LiveHandle(h));
  return tree_->cookie(where);
}

void LTreeStore::SnapshotImpl(
    std::vector<std::pair<Label, LeafCookie>>* out) const {
  out->reserve(out->size() + tree_->num_live_leaves());
  for (LTree::LeafHandle leaf = tree_->FirstLiveLeaf(); leaf != nullptr;
       leaf = tree_->NextLiveLeaf(leaf)) {
    out->emplace_back(tree_->label(leaf), tree_->cookie(leaf));
  }
}

const MaintStats& LTreeStore::stats() const {
  const LTreeStats& ts = tree_->stats();
  stats_.inserts = ts.inserts + ts.batch_leaves;
  stats_.erases = ts.deletes;
  stats_.batch_inserts = ts.batch_inserts;
  stats_.items_relabeled = ts.leaves_relabeled;
  stats_.rebalances = ts.splits + ts.root_splits;
  stats_.relabel_passes = ts.relabel_passes;
  stats_.coalesced_regions = ts.coalesced_regions;
  stats_.nodes_allocated = ts.nodes_allocated;
  stats_.nodes_reused = ts.nodes_reused;
  stats_.nodes_released = ts.nodes_released;
  return stats_;
}

void LTreeStore::ResetStats() {
  tree_->ResetStats();
  stats_ = MaintStats();
}

audit::Report LTreeStore::Validate() const {
  audit::Report report = tree_->Validate();
  // Handle map vs. the tree: collect the live leaves by traversal, then
  // check the non-erased handles map onto them one-to-one. An erased
  // slot's pointer must never be dereferenced — a purge may have freed it.
  std::unordered_map<const Node*, uint64_t> live_leaf_count;
  for (LTree::LeafHandle leaf = tree_->FirstLiveLeaf(); leaf != nullptr;
       leaf = tree_->NextLiveLeaf(leaf)) {
    ++live_leaf_count[leaf];
  }
  uint64_t live_handles = 0;
  for (ItemHandle h = 0; h < slots_.size(); ++h) {
    const std::string path = "store:/" + std::to_string(h);
    const uintptr_t bits = slots_[h].load(std::memory_order_acquire);
    const auto leaf = reinterpret_cast<LTree::LeafHandle>(bits & ~kErasedBit);
    if ((bits & kErasedBit) != 0) {
      // Without purging the tombstoned leaf must still be present.
      if (!tree_->params().purge_tombstones_on_split &&
          !tree_->deleted(leaf)) {
        report.Add(path, "handle-map",
                   "erased handle points at a non-tombstoned leaf");
      }
      continue;
    }
    ++live_handles;
    auto it = live_leaf_count.find(leaf);
    if (it == live_leaf_count.end()) {
      report.Add(path, "handle-map",
                 "live handle does not resolve to a live leaf");
    } else if (it->second == 0) {
      report.Add(path, "handle-map",
                 "two live handles resolve to the same leaf");
    } else {
      --it->second;
    }
  }
  if (live_handles != tree_->num_live_leaves()) {
    report.Add("store:/", "live-count",
               StrFormat("%llu live handles vs %llu live leaves",
                         static_cast<unsigned long long>(live_handles),
                         static_cast<unsigned long long>(
                             tree_->num_live_leaves())));
  }
  return report;
}

// ---------------------------------------------------------------------------
// Virtual store
// ---------------------------------------------------------------------------

VirtualLTreeStore::VirtualLTreeStore(std::unique_ptr<VirtualLTree> tree)
    : tree_(std::move(tree)) {
  tree_->set_listener(this);
  tree_->set_epoch(&epoch_);
}

VirtualLTreeStore::~VirtualLTreeStore() {
  // Drain retired B+-tree nodes while the tree's arena is still alive.
  epoch_.ReclaimAllUnsafe();
}

Result<std::unique_ptr<VirtualLTreeStore>> VirtualLTreeStore::Make(
    const Params& params) {
  LTREE_ASSIGN_OR_RETURN(std::unique_ptr<VirtualLTree> tree,
                         VirtualLTree::Create(params));
  return std::unique_ptr<VirtualLTreeStore>(
      new VirtualLTreeStore(std::move(tree)));
}

std::string VirtualLTreeStore::name() const {
  return SchemeName("virtual-ltree", tree_->params());
}

void VirtualLTreeStore::OnRelabel(LeafCookie cookie, Label old_label,
                                  Label new_label) {
  // The tree's leaf cookies are our item handles; the client payload lives
  // in the slot. The slot may still be unpublished (a batch in flight
  // relabeling its own fresh leaves), so bound by the writer's size.
  const ItemHandle h = cookie;
  LTREE_CHECK(h < slots_.writer_size());
  VSlot& slot = slots_[h];
  slot.label.store(new_label);
  if (listener_ != nullptr) {
    listener_->OnRelabel(slot.cookie.load(), old_label, new_label);
  }
}

Result<Label> VirtualLTreeStore::CurrentLabel(ItemHandle h) const {
  if (h >= slots_.size()) return Status::NotFound("unknown item handle");
  const VSlot& slot = slots_[h];
  if (slot.erased.load(std::memory_order_acquire)) {
    return Status::NotFound("item handle already erased");
  }
  return slot.label.load();
}

ItemHandle VirtualLTreeStore::Reserve(std::span<const LeafCookie> cookies) {
  const ItemHandle first = slots_.writer_size();
  for (const LeafCookie cookie : cookies) {
    // Slots are recycled after a rolled-back reserve, so reset every field.
    VSlot& slot = slots_.PushBack();
    slot.label.store(kInvalidLabel);
    slot.cookie.store(cookie);
    slot.erased.store(false, std::memory_order_relaxed);
  }
  return first;
}

void VirtualLTreeStore::Unreserve(uint64_t k) {
  slots_.ShrinkTo(slots_.writer_size() - k);
}

template <typename Op>
Status VirtualLTreeStore::RunBatch(std::span<const LeafCookie> cookies,
                                   std::vector<ItemHandle>* handles,
                                   Op&& op) {
  const ItemHandle first = Reserve(cookies);
  std::vector<LeafCookie> tree_cookies(cookies.size());
  std::iota(tree_cookies.begin(), tree_cookies.end(), first);
  std::vector<Label> labels;
  Status st = op(std::span<const LeafCookie>(tree_cookies), &labels);
  if (!st.ok()) {
    Unreserve(cookies.size());
    return st;
  }
  for (size_t i = 0; i < labels.size(); ++i) {
    slots_[first + i].label.store(labels[i]);
    if (handles != nullptr) handles->push_back(first + i);
  }
  slots_.Publish();
  AutoValidate("batch mutation");
  return Status::OK();
}

template <typename Op>
Result<ItemHandle> VirtualLTreeStore::RunSingle(LeafCookie cookie, Op&& op) {
  const ItemHandle h = Reserve({&cookie, 1});
  Result<Label> fresh = op(h);
  if (!fresh.ok()) {
    Unreserve(1);
    return fresh.status();
  }
  slots_[h].label.store(*fresh);
  slots_.Publish();
  AutoValidate("insert");
  return h;
}

Status VirtualLTreeStore::BulkLoadImpl(std::span<const LeafCookie> cookies,
                                       std::vector<ItemHandle>* handles) {
  return RunBatch(cookies, handles, [&](auto tree_cookies, auto* labels) {
    return tree_->BulkLoad(tree_cookies, labels);
  });
}

Result<ItemHandle> VirtualLTreeStore::InsertAfterImpl(ItemHandle pos,
                                                      LeafCookie cookie) {
  LTREE_ASSIGN_OR_RETURN(Label where, CurrentLabel(pos));
  return RunSingle(cookie,
                   [&](ItemHandle h) { return tree_->InsertAfter(where, h); });
}

Result<ItemHandle> VirtualLTreeStore::InsertBeforeImpl(ItemHandle pos,
                                                       LeafCookie cookie) {
  LTREE_ASSIGN_OR_RETURN(Label where, CurrentLabel(pos));
  return RunSingle(cookie,
                   [&](ItemHandle h) { return tree_->InsertBefore(where, h); });
}

Result<ItemHandle> VirtualLTreeStore::PushBackImpl(LeafCookie cookie) {
  return RunSingle(cookie, [&](ItemHandle h) { return tree_->PushBack(h); });
}

Result<ItemHandle> VirtualLTreeStore::PushFrontImpl(LeafCookie cookie) {
  return RunSingle(cookie, [&](ItemHandle h) { return tree_->PushFront(h); });
}

Status VirtualLTreeStore::InsertBatchAfterImpl(
    ItemHandle pos, std::span<const LeafCookie> cookies,
    std::vector<ItemHandle>* handles) {
  LTREE_ASSIGN_OR_RETURN(Label where, CurrentLabel(pos));
  return RunBatch(cookies, handles, [&](auto tree_cookies, auto* labels) {
    return tree_->InsertBatchAfter(where, tree_cookies, labels);
  });
}

Status VirtualLTreeStore::InsertBatchBeforeImpl(
    ItemHandle pos, std::span<const LeafCookie> cookies,
    std::vector<ItemHandle>* handles) {
  LTREE_ASSIGN_OR_RETURN(Label where, CurrentLabel(pos));
  return RunBatch(cookies, handles, [&](auto tree_cookies, auto* labels) {
    return tree_->InsertBatchBefore(where, tree_cookies, labels);
  });
}

Status VirtualLTreeStore::PushBackBatchImpl(
    std::span<const LeafCookie> cookies, std::vector<ItemHandle>* handles) {
  return RunBatch(cookies, handles, [&](auto tree_cookies, auto* labels) {
    return tree_->PushBackBatch(tree_cookies, labels);
  });
}

Status VirtualLTreeStore::EraseImpl(ItemHandle h) {
  if (h >= slots_.size()) return Status::NotFound("unknown item handle");
  VSlot& slot = slots_[h];
  if (slot.erased.load(std::memory_order_relaxed)) {
    return Status::FailedPrecondition("item handle already erased");
  }
  LTREE_RETURN_IF_ERROR(tree_->MarkDeleted(slot.label.load()));
  slot.erased.store(true, std::memory_order_release);
  AutoValidate("Erase");
  return Status::OK();
}

Result<Label> VirtualLTreeStore::GetLabel(ItemHandle h) const {
  return CurrentLabel(h);
}

Result<LeafCookie> VirtualLTreeStore::GetCookie(ItemHandle h) const {
  if (h >= slots_.size()) return Status::NotFound("unknown item handle");
  const VSlot& slot = slots_[h];
  if (slot.erased.load(std::memory_order_acquire)) {
    return Status::NotFound("item handle already erased");
  }
  return slot.cookie.load();
}

void VirtualLTreeStore::SnapshotImpl(
    std::vector<std::pair<Label, LeafCookie>>* out) const {
  const auto live = tree_->LiveLabels();
  out->reserve(out->size() + live.size());
  for (const auto& [label, handle] : live) {
    // The tree's cookie for a label is our handle; the client payload
    // lives in the slot.
    out->emplace_back(label, slots_[handle].cookie.load());
  }
}

const MaintStats& VirtualLTreeStore::stats() const {
  const VirtualLTreeStats& ts = tree_->stats();
  stats_.inserts = ts.inserts + ts.batch_leaves;
  stats_.erases = ts.deletes;
  stats_.batch_inserts = ts.batch_inserts;
  stats_.items_relabeled = ts.labels_rewritten;
  stats_.rebalances = ts.splits + ts.root_splits;
  stats_.relabel_passes = ts.relabel_passes;
  stats_.coalesced_regions = ts.coalesced_regions;
  stats_.nodes_allocated = ts.nodes_allocated;
  stats_.nodes_reused = ts.nodes_reused;
  stats_.nodes_released = ts.nodes_released;
  return stats_;
}

void VirtualLTreeStore::ResetStats() {
  tree_->ResetStats();
  stats_ = MaintStats();
}

audit::Report VirtualLTreeStore::Validate() const {
  audit::Report report = tree_->Validate();
  // Cookie <-> label bijection: the tree's leaf cookies are our handles,
  // so every non-erased handle's label must exist in the B+-tree, carry
  // that handle as its cookie, and be live. Together with the live counts
  // agreeing this makes handle -> label a bijection onto the live labels.
  uint64_t live_handles = 0;
  for (ItemHandle h = 0; h < slots_.size(); ++h) {
    const VSlot& slot = slots_[h];
    if (slot.erased.load(std::memory_order_acquire)) continue;
    ++live_handles;
    const Label label = slot.label.load();
    const std::string path = "store:/" + std::to_string(h);
    auto cookie = tree_->GetCookie(label);
    if (!cookie.ok()) {
      report.Add(path, "cookie-label-bijection",
                 StrFormat("handle's label %llu is missing from the tree",
                           static_cast<unsigned long long>(label)));
      continue;
    }
    if (*cookie != h) {
      report.Add(path, "cookie-label-bijection",
                 StrFormat("label %llu maps back to handle %llu",
                           static_cast<unsigned long long>(label),
                           static_cast<unsigned long long>(*cookie)));
    }
    auto deleted = tree_->IsDeleted(label);
    if (deleted.ok() && *deleted) {
      report.Add(path, "cookie-label-bijection",
                 "live handle's label is tombstoned in the tree");
    }
  }
  if (live_handles != tree_->num_live_leaves()) {
    report.Add("store:/", "live-count",
               StrFormat("%llu live handles vs %llu live leaves",
                         static_cast<unsigned long long>(live_handles),
                         static_cast<unsigned long long>(
                             tree_->num_live_leaves())));
  }
  return report;
}

}  // namespace listlab
}  // namespace ltree
