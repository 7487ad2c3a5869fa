#include "store/change_feed.h"

#include <algorithm>

#include "common/macros.h"

namespace ltree {
namespace store {

const char* FeedEventKindName(FeedEvent::Kind kind) {
  switch (kind) {
    case FeedEvent::Kind::kInsert:
      return "insert";
    case FeedEvent::Kind::kRelabel:
      return "relabel";
    case FeedEvent::Kind::kErase:
      return "erase";
  }
  return "unknown";
}

std::string FeedEvent::ToString() const {
  std::string out = "#";
  out += std::to_string(seq);
  out += ' ';
  out += FeedEventKindName(kind);
  out += " cookie=";
  out += std::to_string(cookie);
  if (old_label != kInvalidLabel) out += " old=" + std::to_string(old_label);
  if (new_label != kInvalidLabel) out += " new=" + std::to_string(new_label);
  return out;
}

ChangeFeed::ChangeFeed(uint64_t capacity) : capacity_(capacity) {
  LTREE_CHECK(capacity >= 1);
}

uint64_t ChangeFeed::Append(FeedEvent event) {
  event.seq = ++last_seq_;
  events_.push_back(event);
  if (events_.size() > capacity_) {
    events_.pop_front();
    ++trimmed_;
  }
  return last_seq_;
}

Result<std::vector<FeedEvent>> ChangeFeed::EventsSince(
    uint64_t from_seq) const {
  if (from_seq > last_seq_) {
    return Status::InvalidArgument(
        "position " + std::to_string(from_seq) + " is beyond feed head " +
        std::to_string(last_seq_));
  }
  if (!CanServeFrom(from_seq)) {
    return Status::InvalidArgument(
        "position " + std::to_string(from_seq) + " is below trim floor " +
        std::to_string(first_retained_seq()) + "; take a snapshot");
  }
  std::vector<FeedEvent> out;
  if (events_.empty() || from_seq >= last_seq_) return out;
  // Retained seqs are contiguous, so the suffix starts at a computed
  // offset instead of a scan.
  const uint64_t first = events_.front().seq;
  const size_t skip =
      from_seq + 1 > first ? static_cast<size_t>(from_seq + 1 - first) : 0;
  out.assign(events_.begin() + static_cast<ptrdiff_t>(skip), events_.end());
  return out;
}

void ChangeFeed::TrimTo(uint64_t keep) {
  while (events_.size() > keep) {
    events_.pop_front();
    ++trimmed_;
  }
}

audit::Report ChangeFeed::Validate() const {
  audit::Report report;
  if (events_.size() > capacity_) {
    report.Add("", "feed-continuity",
               "retained " + std::to_string(events_.size()) +
                   " events exceeds capacity " + std::to_string(capacity_));
  }
  if (trimmed_ + events_.size() != last_seq_) {
    report.Add("", "feed-continuity",
               "trimmed (" + std::to_string(trimmed_) + ") + retained (" +
                   std::to_string(events_.size()) + ") != last_seq (" +
                   std::to_string(last_seq_) + ")");
  }
  if (!events_.empty() && events_.back().seq != last_seq_) {
    report.Add("", "feed-continuity",
               "newest retained seq " + std::to_string(events_.back().seq) +
                   " != last_seq " + std::to_string(last_seq_));
  }
  uint64_t expected = first_retained_seq();
  for (const FeedEvent& event : events_) {
    if (event.seq != expected) {
      report.Add("", "feed-continuity",
                 "sequence gap: expected #" + std::to_string(expected) +
                     ", found " + event.ToString());
      expected = event.seq;  // resync so one gap reports once
    }
    ++expected;
  }
  return report;
}

}  // namespace store
}  // namespace ltree
