// Label-change notification hook, shared by every labeling scheme.
//
// Lives apart from the L-Tree headers so that layers which only need the
// callback (the LabelStore interface, the docstore, the sharded store's
// change-feed taps) can depend on it without pulling in the materialized
// tree's internal Node type.

#ifndef LTREE_CORE_RELABEL_LISTENER_H_
#define LTREE_CORE_RELABEL_LISTENER_H_

#include "core/params.h"

namespace ltree {

/// Sentinel for "label not yet assigned".
inline constexpr Label kInvalidLabel = ~Label{0};

/// Callback fired by a labeling scheme as its label state evolves, so
/// external indexes (the label column of a node table, a replication
/// change-feed) can be kept in sync. Bulk loading assigns initial labels
/// and does not fire the listener; incremental maintenance does. Erasing
/// fires nothing: the caller of LabelStore::Erase already knows the item.
class RelabelListener {
 public:
  virtual ~RelabelListener() = default;

  /// A live item's label changed during relabeling. Never fired for the
  /// item an insertion is currently adding (the caller knows its label
  /// from the returned handle), nor for erased items: a tombstone that a
  /// rebuild moves still counts in the scheme's stats, but no one outside
  /// the scheme can read its label.
  virtual void OnRelabel(LeafCookie cookie, Label old_label,
                         Label new_label) = 0;
};

}  // namespace ltree

#endif  // LTREE_CORE_RELABEL_LISTENER_H_
