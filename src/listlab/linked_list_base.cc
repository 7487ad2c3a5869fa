#include "listlab/linked_list_base.h"

#include "common/macros.h"
#include "common/math_util.h"
#include "common/string_util.h"

namespace ltree {
namespace listlab {

LinkedListScheme::~LinkedListScheme() {
  for (ListItem* item : items_) delete item;
}

Result<ListItem*> LinkedListScheme::FindLive(ItemHandle h) const {
  if (h >= items_.size() || items_[h] == nullptr) {
    return Status::NotFound("unknown item handle");
  }
  if (items_[h]->erased) {
    return Status::NotFound("item handle already erased");
  }
  return items_[h];
}

ListItem* LinkedListScheme::AllocItem(LeafCookie cookie) {
  ListItem* item = new ListItem;
  item->handle = items_.size();
  item->cookie = cookie;
  items_.push_back(item);
  return item;
}

void LinkedListScheme::LinkAfter(ListItem* where, ListItem* item) {
  if (where == nullptr) {
    item->prev = nullptr;
    item->next = head_;
    if (head_ != nullptr) head_->prev = item;
    head_ = item;
    if (tail_ == nullptr) tail_ = item;
  } else {
    item->prev = where;
    item->next = where->next;
    if (where->next != nullptr) where->next->prev = item;
    where->next = item;
    if (tail_ == where) tail_ = item;
  }
  ++live_;
}

void LinkedListScheme::Unlink(ListItem* item) {
  if (item->prev != nullptr) item->prev->next = item->next;
  if (item->next != nullptr) item->next->prev = item->prev;
  if (head_ == item) head_ = item->next;
  if (tail_ == item) tail_ = item->prev;
  item->prev = item->next = nullptr;
  --live_;
}

void LinkedListScheme::SetLabel(ListItem* item, Label label,
                                const ListItem* fresh) {
  if (item->label == label) return;
  const Label old = item->label;
  item->label = label;
  if (item == fresh) return;
  ++stats_.items_relabeled;
  if (listener_ != nullptr) listener_->OnRelabel(item->cookie, old, label);
}

Status LinkedListScheme::BulkLoadImpl(std::span<const LeafCookie> cookies,
                                  std::vector<ItemHandle>* handles) {
  if (live_ != 0 || !items_.empty()) {
    return Status::FailedPrecondition("BulkLoad requires an empty list");
  }
  ListItem* prev = nullptr;
  for (const LeafCookie cookie : cookies) {
    ListItem* item = AllocItem(cookie);
    LinkAfter(prev, item);
    prev = item;
    if (handles != nullptr) handles->push_back(item->handle);
  }
  if (!cookies.empty()) {
    LTREE_RETURN_IF_ERROR(AssignInitialLabels(cookies.size()));
  }
  AutoValidate("BulkLoad");
  return Status::OK();
}

Result<ItemHandle> LinkedListScheme::InsertLinked(ListItem* where,
                                                  LeafCookie cookie) {
  ListItem* item = AllocItem(cookie);
  LinkAfter(where, item);
  Status st = PlaceItem(item);
  if (!st.ok()) {
    Unlink(item);
    items_[item->handle] = nullptr;
    delete item;
    return st;
  }
  ++stats_.inserts;
  AutoValidate("Insert");
  return item->handle;
}

Result<ItemHandle> LinkedListScheme::InsertAfterImpl(ItemHandle pos,
                                                 LeafCookie cookie) {
  LTREE_ASSIGN_OR_RETURN(ListItem * where, FindLive(pos));
  return InsertLinked(where, cookie);
}

Result<ItemHandle> LinkedListScheme::InsertBeforeImpl(ItemHandle pos,
                                                  LeafCookie cookie) {
  LTREE_ASSIGN_OR_RETURN(ListItem * where, FindLive(pos));
  return InsertLinked(where->prev, cookie);
}

Result<ItemHandle> LinkedListScheme::PushBackImpl(LeafCookie cookie) {
  return InsertLinked(tail_, cookie);
}

Result<ItemHandle> LinkedListScheme::PushFrontImpl(LeafCookie cookie) {
  return InsertLinked(nullptr, cookie);
}

Status LinkedListScheme::EraseImpl(ItemHandle h) {
  if (h >= items_.size() || items_[h] == nullptr) {
    return Status::NotFound("unknown item handle");
  }
  ListItem* item = items_[h];
  if (item->erased) {
    return Status::FailedPrecondition("item handle already erased");
  }
  Unlink(item);
  item->erased = true;
  ++stats_.erases;
  AutoValidate("Erase");
  return Status::OK();
}

Result<Label> LinkedListScheme::GetLabel(ItemHandle h) const {
  LTREE_ASSIGN_OR_RETURN(ListItem * item, FindLive(h));
  return item->label;
}

Result<LeafCookie> LinkedListScheme::GetCookie(ItemHandle h) const {
  LTREE_ASSIGN_OR_RETURN(ListItem * item, FindLive(h));
  return item->cookie;
}

void LinkedListScheme::SnapshotImpl(
    std::vector<std::pair<Label, LeafCookie>>* out) const {
  out->reserve(out->size() + live_);
  for (const ListItem* it = head_; it != nullptr; it = it->next) {
    out->emplace_back(it->label, it->cookie);
  }
}

uint32_t LinkedListScheme::label_bits() const {
  const uint64_t universe = LabelUniverse();
  return universe <= 1 ? 1 : BitWidth(universe - 1);
}

audit::Report LinkedListScheme::Validate() const {
  audit::Report report;
  uint64_t count = 0;
  const ListItem* prev = nullptr;
  for (const ListItem* it = head_; it != nullptr; it = it->next) {
    const std::string path = "list:/" + std::to_string(count);
    if (it->erased) {
      report.Add(path, "erased-linked", "erased item still linked");
    }
    if (it->prev != prev) {
      report.Add(path, "link-symmetry",
                 "prev does not point at the previous linked item");
    }
    if (prev != nullptr && prev->label >= it->label) {
      report.Add(path, "label-order",
                 StrFormat("label %llu not above predecessor %llu",
                           static_cast<unsigned long long>(it->label),
                           static_cast<unsigned long long>(prev->label)));
    }
    if (it->label >= LabelUniverse()) {
      report.Add(path, "label-universe",
                 StrFormat("label %llu outside universe %llu",
                           static_cast<unsigned long long>(it->label),
                           static_cast<unsigned long long>(
                               LabelUniverse())));
    }
    // Handle-table consistency: a linked item must be registered in the
    // handle table under its own handle.
    if (it->handle >= items_.size() || items_[it->handle] != it) {
      report.Add(path, "handle-map",
                 StrFormat("linked item's handle %llu does not resolve "
                           "back to it",
                           static_cast<unsigned long long>(it->handle)));
    }
    prev = it;
    ++count;
    if (count > items_.size()) {
      report.Add(path, "link-symmetry", "next links form a cycle");
      break;
    }
  }
  if (prev != tail_) {
    report.Add("list:/", "link-symmetry",
               "tail does not point at the final linked item");
  }
  if (count != live_) {
    report.Add("list:/", "live-count",
               StrFormat("live counter %llu != %llu linked items",
                         static_cast<unsigned long long>(live_),
                         static_cast<unsigned long long>(count)));
  }
  return report;
}

}  // namespace listlab
}  // namespace ltree
