#include "store/mirror_store.h"

#include <algorithm>

#include "common/macros.h"

namespace ltree {
namespace store {

Status MirrorStore::ApplyEvent(uint32_t shard, const FeedEvent& event) {
  auto& live = shards_[shard];
  switch (event.kind) {
    case FeedEvent::Kind::kInsert: {
      const auto [it, inserted] = live.emplace(event.cookie, event.new_label);
      (void)it;
      if (!inserted) {
        return Status::Corruption("shard " + std::to_string(shard) +
                                  ": insert for cookie already mirrored: " +
                                event.ToString());
      }
      return Status::OK();
    }
    case FeedEvent::Kind::kRelabel: {
      auto it = live.find(event.cookie);
      if (it == live.end()) {
        return Status::Corruption("shard " + std::to_string(shard) +
                                  ": relabel for unknown cookie: " +
                                event.ToString());
      }
      it->second = event.new_label;
      return Status::OK();
    }
    case FeedEvent::Kind::kErase: {
      if (live.erase(event.cookie) == 0) {
        return Status::Corruption("shard " + std::to_string(shard) +
                                  ": erase for unknown cookie: " +
                                event.ToString());
      }
      return Status::OK();
    }
  }
  return Status::InvalidArgument("unknown feed event kind");
}

Status MirrorStore::ApplyCatchUp(uint32_t shard, const CatchUpResult& result) {
  if (shard >= num_shards()) {
    return Status::InvalidArgument("unknown shard " + std::to_string(shard));
  }
  if (result.snapshot) {
    // Snapshot replaces the shard wholesale — correct from any position,
    // but only if it is one: strictly increasing labels, distinct cookies.
    // Anything else leaves the shard and its position untouched.
    std::unordered_map<LeafCookie, Label> live;
    live.reserve(result.state.size());
    for (size_t i = 0; i < result.state.size(); ++i) {
      const auto& [label, cookie] = result.state[i];
      if (i > 0 && label <= result.state[i - 1].first) {
        return Status::Corruption("shard " + std::to_string(shard) +
                                  ": snapshot labels out of order at entry " +
                                  std::to_string(i));
      }
      if (!live.emplace(cookie, label).second) {
        return Status::Corruption("shard " + std::to_string(shard) +
                                  ": snapshot repeats cookie " +
                                  std::to_string(cookie));
      }
    }
    shards_[shard] = std::move(live);
    state_.Set(shard, result.to_seq);
    ++snapshot_syncs_;
    return Status::OK();
  }
  if (result.from_seq != state_.seq(shard)) {
    return Status::Corruption(
        "shard " + std::to_string(shard) + ": delta starts at seq " +
        std::to_string(result.from_seq) + " but mirror position is " +
        std::to_string(state_.seq(shard)));
  }
  uint64_t expected = result.from_seq + 1;
  for (const FeedEvent& event : result.events) {
    if (event.seq != expected) {
      return Status::Corruption("shard " + std::to_string(shard) +
                                ": sequence gap, expected #" +
                              std::to_string(expected) + ", got " +
                              event.ToString());
    }
    LTREE_RETURN_IF_ERROR(ApplyEvent(shard, event));
    state_.Advance(shard, event.seq);
    ++expected;
    ++events_applied_;
  }
  // An empty delta still advances to to_seq (from_seq == to_seq there).
  state_.Advance(shard, result.to_seq);
  if (!result.events.empty()) ++delta_syncs_;
  return Status::OK();
}

Status MirrorStore::Sync(const DocumentStore& primary) {
  if (primary.num_shards() != num_shards()) {
    return Status::InvalidArgument(
        "mirror has " + std::to_string(num_shards()) +
        " shards but primary has " + std::to_string(primary.num_shards()));
  }
  for (uint32_t shard = 0; shard < num_shards(); ++shard) {
    if (primary.feed(shard).last_seq() == state_.seq(shard)) continue;
    LTREE_ASSIGN_OR_RETURN(const CatchUpResult result,
                           primary.CatchUp(shard, state_.seq(shard)));
    LTREE_RETURN_IF_ERROR(ApplyCatchUp(shard, result));
  }
  return Status::OK();
}

std::vector<std::pair<Label, LeafCookie>> MirrorStore::ShardState(
    uint32_t shard) const {
  std::vector<std::pair<Label, LeafCookie>> out;
  out.reserve(shards_[shard].size());
  for (const auto& [cookie, label] : shards_[shard]) {
    out.emplace_back(label, cookie);
  }
  std::sort(out.begin(), out.end());
  return out;
}

Status MirrorStore::CheckEquivalent(const DocumentStore& primary) const {
  if (primary.num_shards() != num_shards()) {
    return Status::Internal("shard count mismatch: mirror " +
                            std::to_string(num_shards()) + ", primary " +
                            std::to_string(primary.num_shards()));
  }
  for (uint32_t shard = 0; shard < num_shards(); ++shard) {
    const auto want = primary.ShardState(shard);
    const auto got = ShardState(shard);
    if (want.size() != got.size()) {
      return Status::Internal(
          "shard " + std::to_string(shard) + ": primary holds " +
          std::to_string(want.size()) + " live items, mirror holds " +
          std::to_string(got.size()));
    }
    for (size_t i = 0; i < want.size(); ++i) {
      if (want[i] != got[i]) {
        return Status::Internal(
            "shard " + std::to_string(shard) + " diverges at position " +
            std::to_string(i) + ": primary (label=" +
            std::to_string(want[i].first) + ", cookie=" +
            std::to_string(want[i].second) + "), mirror (label=" +
            std::to_string(got[i].first) + ", cookie=" +
            std::to_string(got[i].second) + ")");
      }
    }
  }
  return Status::OK();
}

}  // namespace store
}  // namespace ltree
