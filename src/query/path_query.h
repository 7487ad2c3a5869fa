// Mini-XPath ("/", "//", tag names, "*") parsing and evaluation.
//
// Three evaluators share the same semantics:
//   * EvaluateWithLabels   — structural joins over interval labels (the
//     paper's recommended plan: one label-comparison join per step);
//   * EvaluateWithEdges    — edge-table plan [11]: parent-id joins, one
//     level at a time, with "//" expanded by iterated self-joins;
//   * EvaluateOnDocument   — naive DOM traversal used as ground truth.
//
// Grammar:   path  := ('/' | '//')? step (('/' | '//') step)*
//            step  := NAME | '*'
// A leading '/' anchors the first step at the document root; a leading '//'
// (or no leading slash) matches the first step anywhere.

#ifndef LTREE_QUERY_PATH_QUERY_H_
#define LTREE_QUERY_PATH_QUERY_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "query/node_table.h"
#include "xml/xml_node.h"

namespace ltree {
namespace query {

struct PathStep {
  enum class Axis { kChild, kDescendant };
  Axis axis = Axis::kDescendant;
  /// Element tag to match; "*" matches any element.
  std::string tag;
};

/// A parsed path query.
class PathQuery {
 public:
  /// Parses the mini-XPath grammar above.
  static Result<PathQuery> Parse(const std::string& text);

  const std::vector<PathStep>& steps() const { return steps_; }
  const std::string& text() const { return text_; }

 private:
  std::vector<PathStep> steps_;
  std::string text_;
};

/// Label-based plan: matching element rows, sorted by start label. Each
/// step after the first is one StackJoin (structural_join.h) of the
/// previous step's slots with the step tag's index, reading only the
/// table's compact keys: O(|contexts| + |tag index|). A "*" step first
/// merges every tag index, O(n log t) for t tags. Rows are looked up only
/// for the result; they stay valid as node_table.h states.
std::vector<const NodeRow*> EvaluateWithLabels(const PathQuery& query,
                                               const NodeTable& table);

/// Edge-table plan: same result set, computed with parent-id joins only
/// (descendant steps iterate a level at a time, one NodeTable::ChildrenOf
/// call per frontier row). `join_count`, if non-null,
/// receives the number of elementary parent-child join passes performed —
/// the paper's argument is that this grows with document depth while the
/// label plan always needs exactly one join per step.
std::vector<const NodeRow*> EvaluateWithEdges(const PathQuery& query,
                                              const NodeTable& table,
                                              uint64_t* join_count = nullptr);

/// Ground truth by direct DOM traversal; node ids in document order.
std::vector<xml::NodeId> EvaluateOnDocument(const PathQuery& query,
                                            const xml::Document& doc);

}  // namespace query
}  // namespace ltree

#endif  // LTREE_QUERY_PATH_QUERY_H_
