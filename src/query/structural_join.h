// Stack-based structural join over interval labels.
//
// This is the join the paper's Section 1 motivates: with order-preserving
// (start, end) labels, "a // d" is answered by one merge pass over the two
// tag lists sorted by start label — O(|A| + |D| + output) — instead of a
// chain of parent-id self-joins. The algorithm is the classic stack-tree
// join (Al-Khalifa et al.), exploiting that regions never partially
// overlap.
//
// There is one join kernel, StackJoin. The label plan (path_query.h) runs
// it over NodeTable slot lists, reading the table's compact keys; the
// NodeRow* functions below run it over row pointers.

#ifndef LTREE_QUERY_STRUCTURAL_JOIN_H_
#define LTREE_QUERY_STRUCTURAL_JOIN_H_

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

/// Calls `emit(d)`, in start order, for each descendant contained by an
/// ancestor; with `child_only`, by an ancestor exactly one level up.
template <typename Handle, typename KeyOf, typename Emit>
void SemiJoin(std::span<const Handle> ancestors,
              std::span<const Handle> descendants, KeyOf key_of,
              bool child_only, Emit emit) {
  StackJoin(ancestors, descendants, key_of,
            [&](std::span<const Handle> stack, const Handle& d) {
              // Regions nest, so the innermost ancestor contains d if any
              // does, and is d's parent if any is.
              const auto& a = key_of(stack.back());
              const auto& k = key_of(d);
              if (k.end < a.end && (!child_only || a.level + 1 == k.level)) {
                emit(d);
              }
            });
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
