// Single-key writes for the counted B+-tree tests. CountedBTree has one
// structural write path, ReplaceRange (plus BulkBuild), so a single key is
// written or erased as a one-key range.

#ifndef LTREE_TESTS_OBTREE_SINGLE_KEY_WRITES_H_
#define LTREE_TESTS_OBTREE_SINGLE_KEY_WRITES_H_

#include <cstdint>

#include "common/status.h"
#include "obtree/counted_btree.h"

namespace ltree {
namespace obtree {

/// Inserts `key`, or overwrites its value if it is present.
inline Status Put(CountedBTree* tree, Label key, uint64_t value) {
  const Entry entry{key, value};
  return tree->ReplaceRange(key, key + 1, {&entry, 1});
}

/// Erases `key`; a no-op when it is absent.
inline Status Erase(CountedBTree* tree, Label key) {
  return tree->ReplaceRange(key, key + 1, {});
}

}  // namespace obtree
}  // namespace ltree

#endif  // LTREE_TESTS_OBTREE_SINGLE_KEY_WRITES_H_
