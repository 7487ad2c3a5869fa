#include "query/structural_join.h"

namespace ltree {
namespace query {

namespace {

using Rows = std::span<const NodeRow* const>;

NodeTable::Key KeyOf(const NodeRow* row) {
  return {row->region.start, row->region.end, row->level, 0};
}

std::vector<JoinPair> RowPairJoin(Rows ancestors, Rows descendants,
                                  bool child_only) {
  std::vector<JoinPair> out;
  StackJoin(ancestors, descendants, KeyOf,
            [&](Rows stack, const NodeRow* d) {
              for (const NodeRow* anc : stack) {
                if (anc->region.Contains(d->region) &&
                    (!child_only || anc->level + 1 == d->level)) {
                  out.emplace_back(anc, d);
                }
              }
            });
  return out;
}

std::vector<const NodeRow*> RowSemiJoin(Rows ancestors, Rows descendants,
                                        bool child_only) {
  std::vector<const NodeRow*> out;
  SemiJoin(ancestors, descendants, KeyOf, child_only,
           [&out](const NodeRow* d) { out.push_back(d); });
  return out;
}

}  // namespace

std::vector<JoinPair> AncestorDescendantJoin(
    const std::vector<const NodeRow*>& ancestors,
    const std::vector<const NodeRow*>& descendants) {
  return RowPairJoin(ancestors, descendants, /*child_only=*/false);
}

std::vector<JoinPair> ParentChildJoin(
    const std::vector<const NodeRow*>& parents,
    const std::vector<const NodeRow*>& children) {
  return RowPairJoin(parents, children, /*child_only=*/true);
}

std::vector<const NodeRow*> DescendantsSemiJoin(
    const std::vector<const NodeRow*>& ancestors,
    const std::vector<const NodeRow*>& descendants) {
  return RowSemiJoin(ancestors, descendants, /*child_only=*/false);
}

std::vector<const NodeRow*> ChildrenSemiJoin(
    const std::vector<const NodeRow*>& parents,
    const std::vector<const NodeRow*>& children) {
  return RowSemiJoin(parents, children, /*child_only=*/true);
}

}  // namespace query
}  // namespace ltree
