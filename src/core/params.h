// L-Tree shape parameters (the paper's `f` and `s`) and the derived
// power tables used by label arithmetic.
//
// Section 2.1: "The shape of the L-Tree is determined by two parameters f
// and s, which control the number of leaf descendants of internal nodes."
// The branching base is d = f/s: bulk loading builds a complete d-ary tree
// (Section 2.2) and splits replace an overfull node with s complete d-ary
// subtrees (Section 2.3). Labels are assigned in base (f+1):
//   num(w) = num(v) + i * (f+1)^{h(w)}    (w = i-th child of v).

#ifndef LTREE_CORE_PARAMS_H_
#define LTREE_CORE_PARAMS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace ltree {

/// A leaf label. 64-bit: the label space of a tree of height H is
/// (f+1)^H, which must fit in uint64_t; exceeding it yields
/// Status::CapacityExceeded rather than wraparound.
using Label = uint64_t;

/// Client payload attached to each leaf (e.g. an XML tag id).
using LeafCookie = uint64_t;

/// Largest accepted f. It keeps f + 1 (the label base) and an (f+1)-slot
/// child array far from 32-bit wraparound and allocation failure, and is
/// ample: the tuner's lattice tops out at f = 1024.
inline constexpr uint32_t kMaxFanout = 65536;

/// Tunable L-Tree parameters. See model::CostModel (src/model) for the
/// paper's Section 3.2 guidance on choosing f and s.
struct Params {
  /// Max fanout control: lmax(t) = s * (f/s)^{h(t)} leaves per subtree.
  uint32_t f = 8;
  /// Split factor: an overfull node is replaced by s complete (f/s)-ary
  /// subtrees.
  uint32_t s = 2;
  /// If true, leaves marked deleted are physically dropped whenever the
  /// subtree containing them is rebuilt by a split. The paper (Section 2.3)
  /// only marks deletions; purging is an optional extension.
  bool purge_tombstones_on_split = false;

  /// Branching base d = f/s.
  uint32_t d() const { return f / s; }

  /// Requires s >= 2, s | f, f/s >= 2 and f <= kMaxFanout.
  Status Validate() const;

  std::string ToString() const;
};

/// Precomputed powers for a given (f, s): (f+1)^h, d^h and lmax(h) = s*d^h
/// for every height h the 64-bit label space can accommodate.
class PowerTable {
 public:
  /// Builds tables for validated params.
  static Result<PowerTable> Make(const Params& params);

  /// Largest height H such that (f+1)^H and s*d^H both fit in uint64_t.
  uint32_t max_height() const { return max_height_; }

  /// (f+1)^h; h must be <= max_height().
  uint64_t PowF1(uint32_t h) const { return pow_f1_[h]; }

  /// d^h; h must be <= max_height().
  uint64_t PowD(uint32_t h) const { return pow_d_[h]; }

  /// Subtree leaf budget lmax(h) = s * d^h (Section 2.3).
  uint64_t LeafBudget(uint32_t h) const { return lmax_[h]; }

 private:
  PowerTable() = default;

  uint32_t max_height_ = 0;
  std::vector<uint64_t> pow_f1_;
  std::vector<uint64_t> pow_d_;
  std::vector<uint64_t> lmax_;
};

}  // namespace ltree

#endif  // LTREE_CORE_PARAMS_H_
