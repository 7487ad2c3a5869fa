#include "query/path_query.h"

#include <algorithm>
#include <unordered_set>

#include "common/macros.h"
#include "common/string_util.h"
#include "query/structural_join.h"

namespace ltree {
namespace query {

namespace {

bool IsStepChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || c == '-' || c == '.' ||
         c == ':';
}

}  // namespace

Result<PathQuery> PathQuery::Parse(const std::string& text) {
  PathQuery q;
  q.text_ = text;
  size_t pos = 0;
  if (text.empty()) return Status::ParseError("empty path");

  PathStep::Axis next_axis = PathStep::Axis::kDescendant;
  if (text[0] == '/') {
    if (text.size() > 1 && text[1] == '/') {
      next_axis = PathStep::Axis::kDescendant;
      pos = 2;
    } else {
      next_axis = PathStep::Axis::kChild;
      pos = 1;
    }
  }

  while (pos < text.size()) {
    // Parse one step name.
    std::string tag;
    if (text[pos] == '*') {
      tag = "*";
      ++pos;
    } else {
      while (pos < text.size() && IsStepChar(text[pos])) {
        tag.push_back(text[pos++]);
      }
      if (tag.empty()) {
        return Status::ParseError(
            StrFormat("expected step name at offset %zu in '%s'", pos,
                      text.c_str()));
      }
    }
    q.steps_.push_back(PathStep{next_axis, std::move(tag)});

    if (pos == text.size()) break;
    if (text[pos] != '/') {
      return Status::ParseError(
          StrFormat("expected '/' at offset %zu in '%s'", pos, text.c_str()));
    }
    if (pos + 1 < text.size() && text[pos + 1] == '/') {
      next_axis = PathStep::Axis::kDescendant;
      pos += 2;
    } else {
      next_axis = PathStep::Axis::kChild;
      pos += 1;
    }
    if (pos == text.size()) {
      return Status::ParseError("path ends with '/'");
    }
  }
  if (q.steps_.empty()) return Status::ParseError("path has no steps");
  return q;
}

// ---------------------------------------------------------------------------
// Label-based plan
// ---------------------------------------------------------------------------

namespace {

std::vector<const NodeRow*> Candidates(const NodeTable& table,
                                       const std::string& tag) {
  return tag == "*" ? table.AllElements() : table.ByTag(tag);
}

}  // namespace

std::vector<const NodeRow*> EvaluateWithLabels(const PathQuery& query,
                                               const NodeTable& table) {
  using Slot = NodeTable::Slot;
  auto key_of = [&table](Slot s) -> const NodeTable::Key& {
    return table.key(s);
  };
  std::vector<Slot> all_elements;  // the "*" candidates, built on first use
  std::vector<Slot> matched, next;
  // The current step's matches: a tag index of the table, or `matched`.
  std::span<const Slot> contexts;
  bool first = true;
  for (const PathStep& step : query.steps()) {
    std::span<const Slot> candidates;
    if (step.tag != "*") {
      candidates = table.TagSlots(step.tag);
    } else {
      if (all_elements.empty()) all_elements = table.AllElementSlots();
      candidates = all_elements;
    }
    if (first) {
      first = false;
      if (step.axis == PathStep::Axis::kDescendant) {
        contexts = candidates;
        continue;
      }
      // Anchored at the document root, the one level-0 element. Its begin
      // tag has the document's smallest label, so it can only be the
      // first candidate.
      if (!candidates.empty() && table.key(candidates.front()).level == 0) {
        matched.push_back(candidates.front());
      }
    } else {
      // At most every candidate matches.
      next.resize(candidates.size());
      Slot* const end =
          SemiJoin(contexts, candidates, key_of,
                   step.axis == PathStep::Axis::kChild, next.data());
      next.resize(static_cast<size_t>(end - next.data()));
      matched.swap(next);
    }
    contexts = matched;
    if (contexts.empty()) break;
  }
  std::vector<const NodeRow*> out;
  out.reserve(contexts.size());
  for (const Slot s : contexts) out.push_back(&table.row(s));
  return out;
}

// ---------------------------------------------------------------------------
// Edge-table plan
// ---------------------------------------------------------------------------

std::vector<const NodeRow*> EvaluateWithEdges(const PathQuery& query,
                                              const NodeTable& table,
                                              uint64_t* join_count) {
  uint64_t joins = 0;
  std::vector<const NodeRow*> contexts;
  bool first = true;
  for (const PathStep& step : query.steps()) {
    if (first) {
      std::vector<const NodeRow*> candidates = Candidates(table, step.tag);
      if (step.axis == PathStep::Axis::kChild) {
        std::vector<const NodeRow*> roots;
        for (const NodeRow* row : candidates) {
          if (row->level == 0) roots.push_back(row);
        }
        contexts = std::move(roots);
      } else {
        contexts = std::move(candidates);
      }
      first = false;
      continue;
    }

    auto matches = [&](const NodeRow* row) {
      return !row->is_text && (step.tag == "*" || row->tag == step.tag);
    };

    std::vector<const NodeRow*> next;
    std::unordered_set<xml::NodeId> seen;
    if (step.axis == PathStep::Axis::kChild) {
      // One parent-id join pass.
      ++joins;
      for (const NodeRow* ctx : contexts) {
        for (const NodeRow* child : table.ChildrenOf(ctx->id)) {
          if (matches(child) && seen.insert(child->id).second) {
            next.push_back(child);
          }
        }
      }
    } else {
      // Descendant axis: iterated self-joins, one per level reached.
      // `visited` bounds traversal when contexts nest; matching is tracked
      // separately in `seen` so a context that is itself a descendant of
      // another context is still reported.
      std::vector<const NodeRow*> frontier = contexts;
      std::unordered_set<xml::NodeId> visited;
      while (!frontier.empty()) {
        ++joins;
        std::vector<const NodeRow*> level;
        for (const NodeRow* ctx : frontier) {
          for (const NodeRow* child : table.ChildrenOf(ctx->id)) {
            if (child->is_text) continue;
            if (matches(child) && seen.insert(child->id).second) {
              next.push_back(child);
            }
            if (visited.insert(child->id).second) {
              level.push_back(child);
            }
          }
        }
        frontier = std::move(level);
      }
    }
    std::sort(next.begin(), next.end(),
              [](const NodeRow* a, const NodeRow* b) {
                return a->region.start < b->region.start;
              });
    contexts = std::move(next);
    if (contexts.empty()) break;
  }
  if (join_count != nullptr) *join_count = joins;
  return contexts;
}

// ---------------------------------------------------------------------------
// DOM ground truth
// ---------------------------------------------------------------------------

namespace {

void CollectDescendants(const xml::Node* node,
                        std::vector<const xml::Node*>* out) {
  for (const xml::Node* c = node->first_child; c != nullptr;
       c = c->next_sibling) {
    if (c->IsElement()) out->push_back(c);
    CollectDescendants(c, out);
  }
}

bool TagMatches(const xml::Node* node, const std::string& tag) {
  return node->IsElement() && (tag == "*" || node->tag == tag);
}

}  // namespace

std::vector<xml::NodeId> EvaluateOnDocument(const PathQuery& query,
                                            const xml::Document& doc) {
  if (doc.root() == nullptr) return {};
  std::vector<const xml::Node*> contexts;
  bool first = true;
  for (const PathStep& step : query.steps()) {
    std::vector<const xml::Node*> next;
    std::unordered_set<const xml::Node*> seen;
    if (first) {
      if (step.axis == PathStep::Axis::kChild) {
        if (TagMatches(doc.root(), step.tag)) next.push_back(doc.root());
      } else {
        if (TagMatches(doc.root(), step.tag)) next.push_back(doc.root());
        std::vector<const xml::Node*> all;
        CollectDescendants(doc.root(), &all);
        for (const xml::Node* n : all) {
          if (TagMatches(n, step.tag)) next.push_back(n);
        }
      }
      first = false;
    } else if (step.axis == PathStep::Axis::kChild) {
      for (const xml::Node* ctx : contexts) {
        for (const xml::Node* c = ctx->first_child; c != nullptr;
             c = c->next_sibling) {
          if (TagMatches(c, step.tag) && seen.insert(c).second) {
            next.push_back(c);
          }
        }
      }
    } else {
      for (const xml::Node* ctx : contexts) {
        std::vector<const xml::Node*> descendants;
        CollectDescendants(ctx, &descendants);
        for (const xml::Node* d : descendants) {
          if (TagMatches(d, step.tag) && seen.insert(d).second) {
            next.push_back(d);
          }
        }
      }
    }
    contexts = std::move(next);
    if (contexts.empty()) break;
  }

  // Report ids in document order.
  std::unordered_set<const xml::Node*> result(contexts.begin(),
                                              contexts.end());
  std::vector<xml::NodeId> ids;
  doc.Visit([&](const xml::Node& n) {
    if (result.count(&n) > 0) ids.push_back(n.id);
  });
  return ids;
}

}  // namespace query
}  // namespace ltree
