// Structural joins over interval labels.
//
// This is the join the paper's Section 1 motivates: with order-preserving
// (start, end) labels, "a // d" is answered by one merge pass over the two
// tag lists sorted by start label — O(|A| + |D| + output) — instead of a
// chain of parent-id self-joins. Regions never partially overlap, which
// both kernels below exploit.
//
// StackJoin is the classic stack-tree join (Al-Khalifa et al., ICDE 2002)
// and reports every (ancestor, descendant) pair. SemiJoin, which a path
// step needs, reports only the matched descendants. Because regions nest,
// the candidates inside a context form one contiguous run of the
// start-sorted candidate list, so SemiJoin seeks each outermost context's
// run (galloping past long stretches, as in Chien et al., "Efficient
// Structural Joins on Indexed XML Documents", VLDB 2002) and copies or
// level-filters it; it falls back to StackJoin only for a child step whose
// context holds another context. The label plan (path_query.h) runs
// SemiJoin over NodeTable slot lists, reading the table's compact keys;
// the NodeRow* functions below run both kernels over row pointers.

#ifndef LTREE_QUERY_STRUCTURAL_JOIN_H_
#define LTREE_QUERY_STRUCTURAL_JOIN_H_

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "query/node_table.h"

namespace ltree {
namespace query {

/// The stack-tree join kernel. `ancestors` and `descendants` are handles
/// sorted by start label; `key_of(h)` yields an object with `start`, `end`
/// and `level` (a NodeTable::Key). Regions must nest, as a document's do.
/// For each descendant d whose start lies inside at least one ancestor,
/// calls `emit(stack, d)`, where `stack` holds those ancestors outermost
/// first, so the innermost one is last. O(|A| + |D|) plus the work of
/// `emit`.
template <typename Handle, typename KeyOf, typename Emit>
void StackJoin(std::span<const Handle> ancestors,
               std::span<const Handle> descendants, KeyOf key_of,
               Emit emit) {
  std::vector<Handle> stack;
  size_t a = 0;
  for (const Handle& d : descendants) {
    const Label d_start = key_of(d).start;
    // Admit the ancestors that start before d; each first retires the
    // ancestors that end before it starts.
    for (; a < ancestors.size() && key_of(ancestors[a]).start < d_start; ++a) {
      const Label a_start = key_of(ancestors[a]).start;
      while (!stack.empty() && key_of(stack.back()).end < a_start) {
        stack.pop_back();
      }
      stack.push_back(ancestors[a]);
    }
    while (!stack.empty() && key_of(stack.back()).end < d_start) {
      stack.pop_back();
    }
    if (!stack.empty()) {
      emit(std::span<const Handle>(stack), d);
    } else if (a == ancestors.size()) {
      return;  // no ancestor is left to contain the remaining descendants
    }
  }
}

namespace internal {

/// How many entries a seek reads one by one before it gallops.
inline constexpr size_t kSeekScan = 8;

/// The first position at or after `i` in `list` whose start label is not
/// below `bound`, by galloping: O(log distance) key reads.
template <typename Handle, typename KeyOf>
size_t Gallop(std::span<const Handle> list, size_t i, Label bound,
              KeyOf key_of) {
  // Everything before `i` starts below `bound`; double the stride until
  // the entry at `hi` does not.
  const size_t n = list.size();
  size_t hi = i;
  for (size_t stride = kSeekScan; hi < n && key_of(list[hi]).start < bound;
       stride *= 2) {
    i = hi + 1;
    hi = i + stride;
  }
  const auto first = list.begin();
  return static_cast<size_t>(
      std::lower_bound(first + i, first + std::min(hi, n), bound,
                       [&](const Handle& h, Label b) {
                         return key_of(h).start < b;
                       }) -
      first);
}

/// As Gallop, but reads the first kSeekScan entries one by one, which is
/// cheaper when the answer is near. Always inlined: SemiJoin seeks up to
/// three times per context, and a call costs more than a short scan.
template <typename Handle, typename KeyOf>
[[gnu::always_inline]] inline size_t Seek(std::span<const Handle> list,
                                          size_t i, Label bound,
                                          KeyOf key_of) {
  for (const size_t scan_end = std::min(list.size(), i + kSeekScan);
       i < scan_end; ++i) {
    if (key_of(list[i]).start >= bound) return i;
  }
  return Gallop(list, i, bound, key_of);
}

}  // namespace internal

/// Writes to `out`, in start order, each descendant contained by an
/// ancestor; with `child_only`, by an ancestor exactly one level up.
/// Inputs are as for StackJoin. `out` must have room for
/// `descendants.size()` handles; returns the end of what was written.
///
/// Works one outermost ancestor at a time: the descendants it contains are
/// the run of `descendants` that starts inside it. A descendant step copies
/// that run and skips the ancestors nested in it; a child step keeps the
/// run's entries one level below the ancestor, and hands the run to
/// StackJoin only when another ancestor starts inside this one. Reads
/// O(log gap) keys to skip a gap between runs, and the keys of each run
/// (only O(log run) of them on a descendant step).
template <typename Handle, typename KeyOf>
Handle* SemiJoin(std::span<const Handle> ancestors,
                 std::span<const Handle> descendants, KeyOf key_of,
                 bool child_only, Handle* out) {
  using internal::kSeekScan;
  using internal::Seek;
  const size_t n = descendants.size();
  size_t a = 0;
  size_t d = 0;
  while (a < ancestors.size() && d < n) {
    const auto& context = key_of(ancestors[a]);
    const Label end = context.end;
    // The run: descendants that start inside the context. (A descendant
    // that starts inside it also ends inside it, since regions nest.)
    d = Seek(descendants, d, context.start + 1, key_of);
    // Ancestors in [a + 1, next) are nested in this one.
    const size_t next = Seek(ancestors, a + 1, end, key_of);
    if (!child_only) {
      // Copy while scanning the first entries, so a short run costs no
      // call; a longer one is found by galloping and copied in bulk.
      const size_t scan_end = std::min(n, d + kSeekScan);
      for (; d < scan_end && key_of(descendants[d]).start < end; ++d) {
        *out++ = descendants[d];
      }
      if (d == scan_end) {
        const size_t run_end = Seek(descendants, d, end, key_of);
        out = std::copy(descendants.begin() + d,
                        descendants.begin() + run_end, out);
        d = run_end;
      }
    } else if (next == a + 1) {
      // No nested ancestor: the children are the run's entries one level
      // down. Every entry is written; only a child advances the cursor.
      const int32_t child_level = context.level + 1;
      for (; d < n; ++d) {
        const auto& k = key_of(descendants[d]);
        if (k.start >= end) break;
        *out = descendants[d];
        out += k.level == child_level;
      }
    } else {
      // Nested ancestors: a descendant's parent, if it is an ancestor, is
      // the innermost one containing it.
      const size_t run_end = Seek(descendants, d, end, key_of);
      StackJoin(ancestors.subspan(a, next - a),
                descendants.subspan(d, run_end - d), key_of,
                [&](std::span<const Handle> stack, const Handle& h) {
                  if (key_of(stack.back()).level + 1 == key_of(h).level) {
                    *out++ = h;
                  }
                });
      d = run_end;
    }
    a = next;
  }
  return out;
}

/// Result pair: (ancestor row, descendant row).
using JoinPair = std::pair<const NodeRow*, const NodeRow*>;

/// All (a, d) with a.region containing d.region. Both inputs must be sorted
/// by region.start (as NodeTable::ByTag returns them).
std::vector<JoinPair> AncestorDescendantJoin(
    const std::vector<const NodeRow*>& ancestors,
    const std::vector<const NodeRow*>& descendants);

/// All (p, c) where additionally c.level == p.level + 1.
std::vector<JoinPair> ParentChildJoin(
    const std::vector<const NodeRow*>& parents,
    const std::vector<const NodeRow*>& children);

/// Distinct descendants with at least one ancestor in `ancestors`
/// (projection of AncestorDescendantJoin on the descendant side), sorted by
/// start label.
std::vector<const NodeRow*> DescendantsSemiJoin(
    const std::vector<const NodeRow*>& ancestors,
    const std::vector<const NodeRow*>& descendants);

/// Distinct children with parent (level-constrained containment) in
/// `parents`, sorted by start label.
std::vector<const NodeRow*> ChildrenSemiJoin(
    const std::vector<const NodeRow*>& parents,
    const std::vector<const NodeRow*>& children);

}  // namespace query
}  // namespace ltree

#endif  // LTREE_QUERY_STRUCTURAL_JOIN_H_
