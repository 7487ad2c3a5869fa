// Generic chunked pool allocator with intrusive free-list recycling.
//
// PR 3 introduced this design for the materialized L-Tree's nodes
// (core/NodeArena); the counted B+-tree behind the virtual L-Tree pays the
// same allocator tax on its hot paths (ReplaceRange slice rebuilds, root
// collapse, BulkBuild on every virtual root split), so the mechanism is
// generalized here into a template both trees instantiate:
//
//  * nodes are carved from fixed-size chunks, so a fresh allocation is a
//    bump of a chunk cursor (and chunk-local nodes are address-contiguous,
//    which depth-first construction turns into sequential memory traffic);
//  * Release() pushes a node onto an intrusive free list (threaded through
//    a node field chosen by the Traits) and the next Allocate() pops it, so
//    a rebuild's re-allocation is served by the skeleton it just released —
//    including any recycled vectors, whose heap buffers the Traits'
//    Recycle() deliberately keeps (clear() preserves capacity);
//  * nothing is returned to the system allocator until the arena dies, and
//    the arena frees its chunks wholesale (each node's own destructor frees
//    its vector buffers), so tree teardown never walks the structure.
//
// Traits contract (all static):
//   void   Traits::SetFreeNext(NodeT* n, NodeT* next);  // store link in n
//   NodeT* Traits::GetFreeNext(NodeT* n);               // read link back
//   void   Traits::Recycle(NodeT* n);  // reset n to the default-constructed
//                                      // state, keeping vector capacities
//
// Counters (PoolArenaStats) separate fresh allocations (real heap growth)
// from free-list reuse, which is exactly the "allocations per insert"
// column of the perf-trajectory benches.
//
// Thread-compatibility: externally synchronized, like the tree that owns
// the arena.

#ifndef LTREE_CORE_POOL_ARENA_H_
#define LTREE_CORE_POOL_ARENA_H_

#include <cstdint>
#include <memory>
#include <new>
#include <string>
#include <vector>

namespace ltree {

/// Allocator-traffic counters. Monotonic over the arena's lifetime;
/// consumers wanting per-window numbers (LTree::ResetStats,
/// VirtualLTree::ResetStats) snapshot and subtract.
struct PoolArenaStats {
  uint64_t fresh_allocs = 0;   ///< nodes carved from a chunk (heap growth)
  uint64_t reused_allocs = 0;  ///< nodes served from the free list
  uint64_t releases = 0;       ///< nodes returned for recycling
  uint64_t chunks = 0;         ///< chunks allocated so far

  /// Every allocation request ever served (== the `new` count the
  /// pre-arena code would have issued).
  uint64_t TotalAllocs() const { return fresh_allocs + reused_allocs; }

  /// Nodes currently handed out (allocated and not yet released).
  uint64_t live() const { return TotalAllocs() - releases; }

  std::string ToString() const;
};

template <typename NodeT, typename Traits>
class PoolArena {
 public:
  /// Nodes per chunk. 256 nodes keeps chunk allocation off the hot path
  /// without pinning megabytes for a tiny tree.
  static constexpr size_t kChunkNodes = 256;

  /// Every slot starts on a cache line: a node is never split across (or
  /// shares a line's false-sharing tail with) its neighbor, which the
  /// concurrent read mode and the planned SIMD node-scan layout both rely
  /// on. Slots are padded to the next 64-byte multiple.
  static constexpr size_t kSlotAlign = 64;
  static constexpr size_t kSlotStride =
      (sizeof(NodeT) + kSlotAlign - 1) / kSlotAlign * kSlotAlign;

  /// Heap bytes per chunk (for ApproxHeapBytes accounting in the trees).
  static constexpr size_t kChunkBytes = kChunkNodes * kSlotStride;

  PoolArena() = default;
  ~PoolArena() = default;  // chunks own every node, free list included
  PoolArena(const PoolArena&) = delete;
  PoolArena& operator=(const PoolArena&) = delete;

  /// Returns a node in the default-constructed state, either recycled from
  /// the free list or carved from a chunk.
  NodeT* Allocate() {
    if (free_head_ != nullptr) {
      NodeT* n = free_head_;
      free_head_ = Traits::GetFreeNext(n);
      Traits::SetFreeNext(n, nullptr);
      ++stats_.reused_allocs;
      return n;
    }
    if (used_in_last_chunk_ == kChunkNodes) {
      chunks_.emplace_back(new Chunk());
      used_in_last_chunk_ = 0;
      ++stats_.chunks;
    }
    ++stats_.fresh_allocs;
    return chunks_.back()->slot(used_in_last_chunk_++);
  }

  /// Returns `n` to the free list. The node must have been obtained from
  /// this arena and must no longer be reachable from any tree structure;
  /// its vectors keep their capacity for the next reuse.
  void Release(NodeT* n) {
    // Reset to the default-constructed state so Allocate() callers never
    // see stale fields — but keep the vectors' heap buffers: recycled
    // nodes are the whole point.
    Traits::Recycle(n);
    Traits::SetFreeNext(n, free_head_);
    free_head_ = n;
    ++stats_.releases;
  }

  const PoolArenaStats& stats() const { return stats_; }

  /// Visits every node currently on the free list (memory accounting needs
  /// this: recycled nodes keep their buffer capacities, which a
  /// reachable-only walk would under-report).
  template <typename Fn>
  void ForEachFree(Fn&& fn) const {
    for (NodeT* n = free_head_; n != nullptr; n = Traits::GetFreeNext(n)) {
      fn(static_cast<const NodeT*>(n));
    }
  }

 private:
  /// One over-aligned slab of kChunkNodes cache-line-aligned slots. Slots
  /// are constructed up front and destroyed with the chunk, so teardown
  /// still never walks the tree structure.
  class Chunk {
   public:
    Chunk()
        : raw_(static_cast<unsigned char*>(::operator new(
              kChunkBytes, std::align_val_t{kSlotAlign}))) {
      for (size_t i = 0; i < kChunkNodes; ++i) new (slot(i)) NodeT();
    }
    ~Chunk() {
      for (size_t i = 0; i < kChunkNodes; ++i) slot(i)->~NodeT();
      ::operator delete(raw_, std::align_val_t{kSlotAlign});
    }
    Chunk(const Chunk&) = delete;
    Chunk& operator=(const Chunk&) = delete;

    NodeT* slot(size_t i) {
      return reinterpret_cast<NodeT*>(raw_ + i * kSlotStride);
    }

   private:
    unsigned char* raw_;
  };

  std::vector<std::unique_ptr<Chunk>> chunks_;
  size_t used_in_last_chunk_ = kChunkNodes;  // "full" => first Allocate
                                             // opens a chunk
  NodeT* free_head_ = nullptr;  // intrusive list threaded by the Traits
  PoolArenaStats stats_;
};

}  // namespace ltree

#endif  // LTREE_CORE_POOL_ARENA_H_
