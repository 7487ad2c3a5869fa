#include "obtree/counted_btree.h"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <unordered_set>

#include "common/macros.h"
#include "common/string_util.h"
#include "core/simd_search.h"

namespace ltree {
namespace obtree {

// Cache-conscious SoA layout, embedded in the 64B-aligned arena slot:
// keys first (offset 0), so a descent's in-node search streams the node's
// leading cache lines with no pointer chase; payloads follow as a union
// (leaves store values, internal nodes store children plus a cached copy
// of each child's subtree count, so rank descents touch no child lines);
// the rarely-written header trails at the end.
struct CountedBTree::Node {
  /// Leaf: entry keys. Internal: keys[i] == smallest key in child i+1.
  Label keys[kMaxNodeOrder];

  struct InternalArrays {
    Node* child[kMaxNodeOrder];
    /// ccount[i] caches child[i]->count (audited as child-count-cache), so
    /// CountLess/Select sum ranks without dereferencing siblings.
    uint64_t ccount[kMaxNodeOrder];
  };
  union {
    uint64_t values[kMaxNodeOrder];  ///< leaf payloads
    InternalArrays in;               ///< internal fan-out
  };

  /// Entries in this subtree (== num_keys for leaves).
  uint64_t count = 0;
  /// Arena free-list link; meaningless while the node is reachable.
  Node* free_next = nullptr;
  uint16_t num_keys = 0;
  uint16_t num_children = 0;  ///< internal only
  bool leaf = true;
};

static_assert(offsetof(CountedBTree::Node, keys) == 0,
              "keys must start at the aligned slot base");

namespace {

using Node = CountedBTree::Node;

struct BTreeNodeArenaTraits {
  static void SetFreeNext(Node* n, Node* next) { n->free_next = next; }
  static Node* GetFreeNext(Node* n) { return n->free_next; }
  static void Recycle(Node* n) {
    // Only the header resets; the embedded arrays keep their bytes. An
    // epoch-retired husk therefore stays fully readable until its deleter
    // runs Release (which is what calls this).
    n->leaf = true;
    n->count = 0;
    n->num_keys = 0;
    n->num_children = 0;
  }
};

}  // namespace

class BTreeNodeArena final
    : public PoolArena<Node, BTreeNodeArenaTraits> {};

namespace {

/// Free context threaded through the mutation helpers. With no epoch
/// attached, frees recycle straight onto the pool free list; with one,
/// nodes are retired and recycle only once no in-flight reader could still
/// observe them (the retired node keeps its keys/children intact until its
/// deleter runs, so a stale traversal reads consistent old data).
struct NodePool {
  BTreeNodeArena* arena;
  epoch::EpochManager* epoch;

  void Free(Node* n) const {
    if (epoch == nullptr) {
      arena->Release(n);
      return;
    }
    epoch->Retire(
        n,
        [](void* obj, void* ctx) {
          static_cast<BTreeNodeArena*>(ctx)->Release(static_cast<Node*>(obj));
        },
        arena);
  }
};

/// Returns a whole subtree to the free list (so Clear()/BulkBuild rebuilds
/// — every virtual root split — recycle the old structure). Wholesale
/// teardown goes through the arena's chunk drop instead.
void ReleaseTree(const NodePool& pool, Node* n) {
  if (n == nullptr) return;
  if (!n->leaf) {
    for (uint32_t i = 0; i < n->num_children; ++i) {
      ReleaseTree(pool, n->in.child[i]);
    }
  }
  pool.Free(n);
}

/// Smallest key in the subtree.
Label MinKey(const Node* n) {
  while (!n->leaf) n = n->in.child[0];
  return n->keys[0];
}

/// Largest key in the subtree.
Label MaxKey(const Node* n) {
  while (!n->leaf) n = n->in.child[n->num_children - 1];
  return n->keys[n->num_keys - 1];
}

/// Child index to descend into for `key` (branchless/SIMD upper_bound).
uint32_t ChildIndex(const Node* n, Label key) {
  return search::UpperBound(n->keys, n->num_keys, key);
}

}  // namespace

CountedBTree::CountedBTree(uint32_t order)
    : order_(order), arena_(std::make_unique<BTreeNodeArena>()) {
  LTREE_CHECK(order_ >= 4 && order_ <= kMaxNodeOrder);
}

// Every node lives in arena chunks, which free wholesale — no tree walk.
CountedBTree::~CountedBTree() = default;

void CountedBTree::Clear() {
  if (root_ == nullptr) return;
  ReleaseTree(NodePool{arena_.get(), epoch_}, root_);
  root_ = nullptr;
}

const PoolArenaStats& CountedBTree::arena_stats() const {
  return arena_->stats();
}

uint64_t CountedBTree::size() const {
  return root_ == nullptr ? 0 : root_->count;
}

// --------------------------------------------------------------------------
// Update / Lookup
// --------------------------------------------------------------------------

namespace {

Node* FindLeaf(Node* n, Label key) {
  if (n == nullptr) return nullptr;
  while (!n->leaf) n = n->in.child[ChildIndex(n, key)];
  return n;
}

}  // namespace

Status CountedBTree::Update(Label key, uint64_t value) {
  Node* leaf = FindLeaf(root_, key);
  if (leaf == nullptr) return Status::NotFound("empty tree");
  const uint32_t pos = search::LowerBound(leaf->keys, leaf->num_keys, key);
  if (pos >= leaf->num_keys || leaf->keys[pos] != key) {
    return Status::NotFound("key not present");
  }
  leaf->values[pos] = value;
  return Status::OK();
}

Result<uint64_t> CountedBTree::Lookup(Label key) const {
  Node* leaf = FindLeaf(root_, key);
  if (leaf == nullptr) return Status::NotFound("empty tree");
  const uint32_t pos = search::LowerBound(leaf->keys, leaf->num_keys, key);
  if (pos >= leaf->num_keys || leaf->keys[pos] != key) {
    return Status::NotFound("key not present");
  }
  return leaf->values[pos];
}

bool CountedBTree::Contains(Label key) const { return Lookup(key).ok(); }

// --------------------------------------------------------------------------
// Order statistics
// --------------------------------------------------------------------------

uint64_t CountedBTree::CountLess(Label key) const {
  const Node* n = root_;
  if (n == nullptr) return 0;
  uint64_t rank = 0;
  while (!n->leaf) {
    const uint32_t ci = ChildIndex(n, key);
    // The cached per-child counts make this a pure in-node sum: no sibling
    // cache lines are touched on the way down.
    for (uint32_t i = 0; i < ci; ++i) rank += n->in.ccount[i];
    n = n->in.child[ci];
  }
  rank += search::LowerBound(n->keys, n->num_keys, key);
  return rank;
}

uint64_t CountedBTree::RangeCount(Label lo, Label hi) const {
  if (lo >= hi) return 0;
  return CountLess(hi) - CountLess(lo);
}

Result<Entry> CountedBTree::Select(uint64_t rank) const {
  if (root_ == nullptr || rank >= root_->count) {
    return Status::OutOfRange(
        StrFormat("rank %llu >= size %llu",
                  static_cast<unsigned long long>(rank),
                  static_cast<unsigned long long>(size())));
  }
  const Node* n = root_;
  while (!n->leaf) {
    uint32_t i = 0;
    while (rank >= n->in.ccount[i]) {
      rank -= n->in.ccount[i];
      ++i;
    }
    n = n->in.child[i];
  }
  return Entry{n->keys[rank], n->values[rank]};
}

Result<Entry> CountedBTree::LowerBound(Label key) const {
  const uint64_t rank = CountLess(key);
  if (root_ == nullptr || rank >= root_->count) {
    return Status::NotFound("no key >= bound");
  }
  return Select(rank);
}

Result<Entry> CountedBTree::Predecessor(Label key) const {
  const uint64_t rank = CountLess(key);
  if (rank == 0) return Status::NotFound("no key < bound");
  return Select(rank - 1);
}

// --------------------------------------------------------------------------
// Iteration / scans
// --------------------------------------------------------------------------

Label CountedBTree::Iterator::key() const {
  const Node* leaf = static_cast<const Node*>(stack_.back().node);
  return leaf->keys[stack_.back().index];
}

uint64_t CountedBTree::Iterator::value() const {
  const Node* leaf = static_cast<const Node*>(stack_.back().node);
  return leaf->values[stack_.back().index];
}

void CountedBTree::Iterator::Next() {
  LTREE_CHECK(Valid());
  Frame& top = stack_.back();
  const Node* leaf = static_cast<const Node*>(top.node);
  if (top.index + 1 < leaf->num_keys) {
    ++top.index;
    return;
  }
  stack_.pop_back();
  // Ascend to the first ancestor with an unvisited right child.
  while (!stack_.empty()) {
    Frame& frame = stack_.back();
    const Node* n = static_cast<const Node*>(frame.node);
    if (frame.index + 1 < n->num_children) {
      ++frame.index;
      // Descend leftmost from that child.
      const Node* cur = n->in.child[frame.index];
      while (!cur->leaf) {
        stack_.push_back({cur, 0});
        cur = cur->in.child[0];
      }
      stack_.push_back({cur, 0});
      return;
    }
    stack_.pop_back();
  }
}

CountedBTree::Iterator CountedBTree::Begin() const {
  Iterator it;
  const Node* cur = root_;
  if (cur == nullptr) return it;
  while (!cur->leaf) {
    it.stack_.push_back({cur, 0});
    cur = cur->in.child[0];
  }
  it.stack_.push_back({cur, 0});
  return it;
}

CountedBTree::Iterator CountedBTree::Seek(Label key) const {
  Iterator it;
  const Node* cur = root_;
  if (cur == nullptr) return it;
  while (!cur->leaf) {
    const uint32_t ci = ChildIndex(cur, key);
    it.stack_.push_back({cur, ci});
    cur = cur->in.child[ci];
  }
  const uint32_t pos = search::LowerBound(cur->keys, cur->num_keys, key);
  if (pos < cur->num_keys) {
    it.stack_.push_back({cur, pos});
    return it;
  }
  // Key is past this leaf: step to the successor leaf via the stack.
  it.stack_.push_back({cur, pos == 0 ? 0u : pos - 1});
  if (cur->num_keys == 0) {
    it.stack_.clear();
    return it;
  }
  it.Next();
  return it;
}

std::vector<Entry> CountedBTree::Scan(Label lo, Label hi) const {
  std::vector<Entry> out;
  for (Iterator it = Seek(lo); it.Valid() && it.key() < hi; it.Next()) {
    out.push_back(Entry{it.key(), it.value()});
  }
  return out;
}

std::vector<Entry> CountedBTree::ScanAll() const {
  std::vector<Entry> out;
  out.reserve(size());
  for (Iterator it = Begin(); it.Valid(); it.Next()) {
    out.push_back(Entry{it.key(), it.value()});
  }
  return out;
}

// --------------------------------------------------------------------------
// Bulk operations
// --------------------------------------------------------------------------

namespace {

/// Length of the next ~3/4-fill chunk of a run with `remaining` items left
/// (leaving slack for inserts). Absorbs a small tail into the current chunk
/// if it fits, otherwise splits the combined run evenly, so no chunk ever
/// lands under order/2.
size_t ChunkLen(size_t remaining, uint32_t order) {
  const size_t target = std::max<size_t>(order * 3 / 4, order / 2);
  size_t len = std::min(target, remaining);
  const size_t rest = remaining - len;
  if (rest > 0 && rest < order / 2) {
    len = (len + rest <= order) ? len + rest : (len + rest) / 2;
  }
  return len;
}

/// How many chunks ChunkLen splits `total` into. Pure arithmetic, so
/// ReplaceRange can dry-run a rebuild before allocating anything.
size_t CountChunks(size_t total, uint32_t order) {
  size_t chunks = 0;
  while (total > 0) {
    total -= ChunkLen(total, order);
    ++chunks;
  }
  return chunks;
}

/// Builds the leaf level over `entries` (appended to `level`).
void BuildLeafLevel(std::span<const Entry> entries, uint32_t order,
                    BTreeNodeArena* arena, std::vector<Node*>* level) {
  size_t i = 0;
  while (i < entries.size()) {
    const size_t len = ChunkLen(entries.size() - i, order);
    Node* leaf = arena->Allocate();
    leaf->leaf = true;
    for (size_t j = 0; j < len; ++j) {
      leaf->keys[j] = entries[i + j].key;
      leaf->values[j] = entries[i + j].value;
    }
    leaf->num_keys = static_cast<uint16_t>(len);
    leaf->count = len;
    level->push_back(leaf);
    i += len;
  }
}

/// Stacks one internal level over `level`, replacing it.
void StackLevel(std::vector<Node*>* level, uint32_t order,
                BTreeNodeArena* arena) {
  std::vector<Node*> next;
  next.reserve(CountChunks(level->size(), order));
  size_t j = 0;
  while (j < level->size()) {
    const size_t len = ChunkLen(level->size() - j, order);
    Node* node = arena->Allocate();
    node->leaf = false;
    for (size_t k = 0; k < len; ++k) {
      Node* c = (*level)[j + k];
      node->in.child[k] = c;
      node->in.ccount[k] = c->count;
      node->count += c->count;
      if (k > 0) node->keys[k - 1] = MinKey(c);
    }
    node->num_children = static_cast<uint16_t>(len);
    node->num_keys = static_cast<uint16_t>(len - 1);
    next.push_back(node);
    j += len;
  }
  *level = std::move(next);
}

/// Appends the subtree's entries in key order.
void CollectEntries(const Node* n, std::vector<Entry>* out) {
  if (n->leaf) {
    for (uint32_t i = 0; i < n->num_keys; ++i) {
      out->push_back(Entry{n->keys[i], n->values[i]});
    }
    return;
  }
  for (uint32_t i = 0; i < n->num_children; ++i) {
    CollectEntries(n->in.child[i], out);
  }
}

/// Edges from `n` down to the leaf level.
uint32_t SubtreeHeight(const Node* n) {
  uint32_t h = 0;
  while (!n->leaf) {
    ++h;
    n = n->in.child[0];
  }
  return h;
}

}  // namespace

Status CountedBTree::BulkBuild(std::span<const Entry> entries) {
  for (size_t i = 1; i < entries.size(); ++i) {
    if (entries[i - 1].key >= entries[i].key) {
      return Status::InvalidArgument("entries must be sorted and unique");
    }
  }
  Clear();
  if (entries.empty()) return Status::OK();
  std::vector<Node*> level;
  BuildLeafLevel(entries, order_, arena_.get(), &level);
  while (level.size() > 1) StackLevel(&level, order_, arena_.get());
  root_ = level.front();
  return Status::OK();
}

Status CountedBTree::ReplaceRange(Label lo, Label hi,
                                  std::span<const Entry> entries) {
  if (lo > hi) return Status::InvalidArgument("lo > hi");
  for (size_t i = 0; i < entries.size(); ++i) {
    if (entries[i].key < lo || entries[i].key >= hi) {
      return Status::InvalidArgument("replacement key outside [lo, hi)");
    }
    if (i > 0 && entries[i - 1].key >= entries[i].key) {
      return Status::InvalidArgument("entries must be sorted and unique");
    }
  }
  // lo == hi is an empty range: entries cannot lie inside it (rejected
  // above), so the call is a no-op.
  if (lo == hi) return Status::OK();
  if (root_ == nullptr) {
    return entries.empty() ? Status::OK() : BulkBuild(entries);
  }
  // Whole-tree replacement (e.g. every virtual L-Tree root split) skips
  // the descent entirely: all current entries are erased, so the result is
  // exactly `entries`.
  if (lo <= MinKey(root_) && MaxKey(root_) < hi) return BulkBuild(entries);

  // Single structural pass: descend once to the lowest node whose child
  // slice covers the whole range, splice the sorted replacements into that
  // slice's entry run, rebuild the slice in place, and repair counts and
  // separators bottom-up along the recorded path. Escalates the slice one
  // level up whenever the rebuilt piece cannot meet min occupancy at its
  // level; the worst case (a range reshaping most of the tree) degenerates
  // to a full BulkBuild, which is proportional to the replaced region
  // anyway.
  struct Frame {
    Node* node;
    uint32_t index;
  };
  std::vector<Frame> path;
  Node* a = root_;
  uint32_t cl = 0;
  uint32_t cr = 0;
  while (!a->leaf) {
    cl = ChildIndex(a, lo);
    cr = ChildIndex(a, hi - 1);
    if (cl != cr) break;
    path.push_back({a, cl});
    a = a->in.child[cl];
  }

  const uint32_t min_fill = order_ / 2;

  // Bottom-up repair: ancestor counts (and their parents' cached copies)
  // shift by `delta`, and the descended child's min key may have changed,
  // staling the separator to its left.
  auto repair_path = [&](int64_t delta) {
    for (size_t i = path.size(); i-- > 0;) {
      Node* n = path[i].node;
      n->count = static_cast<uint64_t>(static_cast<int64_t>(n->count) + delta);
      const uint32_t ci = path[i].index;
      n->in.ccount[ci] = n->in.child[ci]->count;
      if (ci > 0) n->keys[ci - 1] = MinKey(n->in.child[ci]);
    }
  };

  // Fallback: splice into the full entry run and rebuild from scratch
  // (BulkBuild recycles the old nodes through the arena).
  auto full_rebuild = [&]() -> Status {
    std::vector<Entry> all;
    all.reserve(root_->count + entries.size());
    CollectEntries(root_, &all);
    const auto key_of = [](const Entry& e) { return e.key; };
    const uint32_t n_all = static_cast<uint32_t>(all.size());
    const uint32_t eb = search::LowerBoundBy(all.data(), n_all, lo, key_of);
    const uint32_t ee = search::LowerBoundBy(all.data(), n_all, hi, key_of);
    std::vector<Entry> spliced;
    spliced.reserve(all.size() - (ee - eb) + entries.size());
    spliced.insert(spliced.end(), all.begin(), all.begin() + eb);
    spliced.insert(spliced.end(), entries.begin(), entries.end());
    spliced.insert(spliced.end(), all.begin() + ee, all.end());
    return BulkBuild(spliced);
  };

  if (a->leaf) {
    // In-leaf splice: the whole range lives in one leaf. No allocation at
    // all when the result keeps the leaf within occupancy bounds.
    const uint32_t eb = search::LowerBound(a->keys, a->num_keys, lo);
    const uint32_t ee = search::LowerBound(a->keys, a->num_keys, hi);
    const size_t new_size = a->num_keys - (ee - eb) + entries.size();
    if (new_size <= order_ && (path.empty() || new_size >= min_fill)) {
      const int64_t delta = static_cast<int64_t>(new_size) -
                            static_cast<int64_t>(a->num_keys);
      // Shift the tail to its final position, then write the replacements
      // over [eb, eb + entries.size()).
      const uint32_t tail = a->num_keys - ee;
      std::memmove(a->keys + eb + entries.size(), a->keys + ee,
                   tail * sizeof(Label));
      std::memmove(a->values + eb + entries.size(), a->values + ee,
                   tail * sizeof(uint64_t));
      for (size_t i = 0; i < entries.size(); ++i) {
        a->keys[eb + i] = entries[i].key;
        a->values[eb + i] = entries[i].value;
      }
      a->num_keys = static_cast<uint16_t>(new_size);
      a->count = new_size;
      if (path.empty() && a->num_keys == 0) {
        NodePool{arena_.get(), epoch_}.Free(a);
        root_ = nullptr;
        return Status::OK();
      }
      repair_path(delta);
      return Status::OK();
    }
    if (path.empty()) return full_rebuild();  // over/underfull root leaf
    cl = cr = path.back().index;
    a = path.back().node;
    path.pop_back();
  }

  std::vector<Entry> combined;
  std::vector<Entry> spliced;
  for (;;) {
    const bool at_root = (a == root_);
    combined.clear();
    for (uint32_t i = cl; i <= cr; ++i) {
      CollectEntries(a->in.child[i], &combined);
    }
    const size_t old_total = combined.size();
    const auto key_of = [](const Entry& e) { return e.key; };
    const uint32_t n_comb = static_cast<uint32_t>(combined.size());
    const uint32_t eb =
        search::LowerBoundBy(combined.data(), n_comb, lo, key_of);
    const uint32_t ee =
        search::LowerBoundBy(combined.data(), n_comb, hi, key_of);
    spliced.clear();
    spliced.reserve(old_total - (ee - eb) + entries.size());
    spliced.insert(spliced.end(), combined.begin(), combined.begin() + eb);
    spliced.insert(spliced.end(), entries.begin(), entries.end());
    spliced.insert(spliced.end(), combined.begin() + ee, combined.end());

    const uint32_t child_height = SubtreeHeight(a->in.child[cl]);

    // Dry-run the level stacking (pure arithmetic) so a failed attempt
    // never allocates: every level of the rebuilt slice must be able to
    // meet min occupancy up to the slice's height.
    bool fits = true;
    size_t m_new = 0;
    if (!spliced.empty()) {
      size_t c = spliced.size();
      if (c < min_fill) {
        fits = false;
      } else {
        c = CountChunks(c, order_);
        for (uint32_t h = 1; h <= child_height && fits; ++h) {
          if (c < min_fill) {
            fits = false;
          } else {
            c = CountChunks(c, order_);
          }
        }
      }
      m_new = c;
    }
    const size_t removed = static_cast<size_t>(cr - cl) + 1;
    if (fits) {
      const size_t new_cc = a->num_children - removed + m_new;
      if (new_cc > order_ || (!at_root && new_cc < min_fill)) fits = false;
    }
    if (!fits) {
      if (at_root) return full_rebuild();
      cl = cr = path.back().index;
      a = path.back().node;
      path.pop_back();
      continue;
    }

    // Commit: recycle the old slice first (its entries already live in
    // `spliced`) so the rebuild below is served from the free list, then
    // build the replacement and splice it over children [cl, cr]. With an
    // epoch attached the old slice recycles later, at quiescence.
    const NodePool pool{arena_.get(), epoch_};
    for (uint32_t i = cl; i <= cr; ++i) {
      ReleaseTree(pool, a->in.child[i]);
    }
    std::vector<Node*> level;
    if (!spliced.empty()) {
      BuildLeafLevel(spliced, order_, arena_.get(), &level);
      for (uint32_t h = 1; h <= child_height; ++h) {
        StackLevel(&level, order_, arena_.get());
      }
    }
    // Splice the rebuilt run over child slots [cl, cr]: shift the tail to
    // its final position, then write the new children and their cached
    // counts.
    const uint32_t tail = a->num_children - (cr + 1);
    std::memmove(a->in.child + cl + level.size(), a->in.child + cr + 1,
                 tail * sizeof(Node*));
    std::memmove(a->in.ccount + cl + level.size(), a->in.ccount + cr + 1,
                 tail * sizeof(uint64_t));
    for (size_t i = 0; i < level.size(); ++i) {
      a->in.child[cl + i] = level[i];
      a->in.ccount[cl + i] = level[i]->count;
    }
    a->num_children = static_cast<uint16_t>(a->num_children - removed +
                                            level.size());
    a->num_keys = 0;
    for (uint32_t i = 1; i < a->num_children; ++i) {
      a->keys[a->num_keys++] = MinKey(a->in.child[i]);
    }
    const int64_t delta =
        static_cast<int64_t>(spliced.size()) - static_cast<int64_t>(old_total);
    a->count = static_cast<uint64_t>(static_cast<int64_t>(a->count) + delta);
    repair_path(delta);
    // An internal root may be left with one child (collapse) or none
    // (empty tree).
    while (root_ != nullptr && !root_->leaf && root_->num_children <= 1) {
      Node* only = root_->num_children == 0 ? nullptr : root_->in.child[0];
      pool.Free(root_);  // recycles the husk; `only` lives on
      root_ = only;
    }
    return Status::OK();
  }
}

// --------------------------------------------------------------------------
// Invariants
// --------------------------------------------------------------------------

namespace {

void AuditNode(const Node* n, uint32_t order, bool is_root, int depth,
               int* leaf_depth, const std::string& path,
               audit::Report* report) {
  const size_t sz = n->leaf ? n->num_keys : n->num_children;
  if (sz > order) {
    report->Add(path, "occupancy",
                StrFormat("node holds %zu slots, order is %u", sz, order));
  }
  if (!is_root && sz < order / 2) {
    report->Add(path, "occupancy",
                StrFormat("node holds %zu slots, minimum is %u", sz,
                          order / 2));
  }
  if (n->leaf) {
    if (n->count != n->num_keys) {
      report->Add(path, "count-sum",
                  StrFormat("leaf count %llu != %u keys",
                            static_cast<unsigned long long>(n->count),
                            n->num_keys));
    }
    for (uint32_t i = 1; i < n->num_keys; ++i) {
      if (n->keys[i - 1] >= n->keys[i]) {
        report->Add(path, "key-order",
                    StrFormat("keys[%u]=%llu not above keys[%u]=%llu", i,
                              static_cast<unsigned long long>(n->keys[i]),
                              i - 1,
                              static_cast<unsigned long long>(
                                  n->keys[i - 1])));
      }
    }
    if (*leaf_depth == -1) {
      *leaf_depth = depth;
    } else if (*leaf_depth != depth) {
      report->Add(path, "leaf-depth",
                  StrFormat("leaf at depth %d, first leaf at depth %d",
                            depth, *leaf_depth));
    }
    return;
  }
  if (is_root && n->num_children < 2) {
    report->Add(path, "root-fanout", "internal root with < 2 children");
  }
  if (n->num_keys + 1 != n->num_children) {
    report->Add(path, "separator",
                StrFormat("%u separators for %u children", n->num_keys,
                          n->num_children));
    return;  // child walk below indexes keys[i-1]; bail on this subtree
  }
  uint64_t total = 0;
  for (uint32_t i = 0; i < n->num_children; ++i) {
    const std::string child_path = (path.back() == '/' ? path : path + "/") +
                                   std::to_string(i);
    if (n->in.child[i] == nullptr) {
      report->Add(child_path, "null-child", "null child pointer");
      continue;
    }
    AuditNode(n->in.child[i], order, false, depth + 1, leaf_depth,
              child_path, report);
    total += n->in.child[i]->count;
    if (n->in.ccount[i] != n->in.child[i]->count) {
      report->Add(path, "child-count-cache",
                  StrFormat("cached count %llu != child %u's count %llu",
                            static_cast<unsigned long long>(n->in.ccount[i]),
                            i,
                            static_cast<unsigned long long>(
                                n->in.child[i]->count)));
    }
    if (i > 0 && n->keys[i - 1] != MinKey(n->in.child[i])) {
      report->Add(
          path, "separator",
          StrFormat("separator %llu != min key %llu of child %u",
                    static_cast<unsigned long long>(n->keys[i - 1]),
                    static_cast<unsigned long long>(MinKey(n->in.child[i])),
                    i));
    }
  }
  if (total != n->count) {
    report->Add(path, "count-sum",
                StrFormat("internal count %llu != children sum %llu",
                          static_cast<unsigned long long>(n->count),
                          static_cast<unsigned long long>(total)));
  }
}

}  // namespace

namespace {

void CollectReachable(const Node* n, std::unordered_set<const void*>* out) {
  if (n == nullptr) return;
  out->insert(n);
  if (n->leaf) return;
  for (uint32_t i = 0; i < n->num_children; ++i) {
    CollectReachable(n->in.child[i], out);
  }
}

}  // namespace

audit::Report CountedBTree::Validate() const {
  audit::Report report;
  if (root_ != nullptr) {
    int leaf_depth = -1;
    AuditNode(root_, order_, true, 0, &leaf_depth, "btree:/", &report);
  }
  // Arena conservation: at every quiescent point the pool's live counter
  // must equal the number of nodes reachable from the root — plus, with an
  // epoch attached, the retired nodes still waiting in its buckets
  // (retired ∪ reachable == allocated-and-unreleased).
  const uint64_t reachable = NodeCount();
  const uint64_t pending = epoch_ == nullptr ? 0 : epoch_->pending();
  if (arena_stats().live() != reachable + pending) {
    report.Add("btree:/", "arena-conservation",
               StrFormat("%llu nodes reachable + %llu epoch-pending but the "
                         "pool accounts %llu live",
                         static_cast<unsigned long long>(reachable),
                         static_cast<unsigned long long>(pending),
                         static_cast<unsigned long long>(
                             arena_stats().live())));
  }
  // Epoch reclamation: a retired node must be unreachable from the live
  // structure (it was unlinked before Retire) and retired exactly once —
  // a node in two buckets would double-release into the pool.
  if (epoch_ != nullptr) {
    std::unordered_set<const void*> live_set;
    CollectReachable(root_, &live_set);
    std::unordered_set<const void*> retired_set;
    epoch_->ForEachPending([&](const void* obj) {
      if (live_set.count(obj) != 0) {
        report.Add("btree:/", "epoch-reclamation",
                   StrFormat("retired node %p still reachable from the "
                             "root",
                             obj));
      }
      if (!retired_set.insert(obj).second) {
        report.Add("btree:/", "epoch-reclamation",
                   StrFormat("node %p retired twice", obj));
      }
    });
  }
  return report;
}

// --------------------------------------------------------------------------
// Memory accounting
// --------------------------------------------------------------------------

namespace {

uint64_t CountReachable(const Node* n) {
  if (n == nullptr) return 0;
  uint64_t total = 1;
  if (!n->leaf) {
    for (uint32_t i = 0; i < n->num_children; ++i) {
      total += CountReachable(n->in.child[i]);
    }
  }
  return total;
}

}  // namespace

uint64_t CountedBTree::NodeCount() const { return CountReachable(root_); }

uint64_t CountedBTree::ApproxHeapBytes() const {
  // Every node's key/value/child storage is embedded in its arena slot, so
  // the chunks — which pin a cache-line-padded slot whether the slot is
  // live or on the free list — are the whole footprint.
  return arena_stats().chunks * BTreeNodeArena::kChunkBytes;
}

}  // namespace obtree
}  // namespace ltree
