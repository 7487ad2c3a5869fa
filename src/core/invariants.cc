// Validate and DebugString for LTree.
//
// The deep validator checks Proposition 2 of the paper plus the
// label-identity invariant that the virtual L-Tree (Section 4.2) relies on:
//   num(w) = num(parent(w)) + index(w) * (f+1)^{h(w)}.
// Every violation is reported with a structural path instead of stopping
// at the first.

#include <sstream>
#include <string>
#include <unordered_set>

#include "common/string_util.h"
#include "core/ltree.h"
#include "core/validate.h"

namespace ltree {

namespace {

struct LTreeAuditContext {
  const Params* params;
  const PowerTable* powers;
  audit::Report* report;
  uint64_t leaf_slots = 0;
  uint64_t unerased_leaves = 0;
  uint64_t reachable_nodes = 0;
  Label prev_label = 0;
  bool saw_leaf = false;
};

void AuditNode(const Node* node, const Node* expected_parent,
               uint32_t expected_index, Label expected_num,
               const std::string& path, LTreeAuditContext* ctx) {
  ++ctx->reachable_nodes;
  if (node->parent != expected_parent) {
    ctx->report->Add(path, "parent-link",
                     "parent pointer does not point at the actual parent");
  }
  if (node->index_in_parent != expected_index) {
    ctx->report->Add(path, "child-index",
                     StrFormat("index_in_parent is %u, actual slot is %u",
                               node->index_in_parent, expected_index));
  }
  if (node->num != expected_num) {
    // The paper's label identity: num(w) = num(parent) + i * (f+1)^{h(w)}.
    ctx->report->Add(
        path, "label-identity",
        StrFormat("num is %llu, identity requires %llu at height %u",
                  static_cast<unsigned long long>(node->num),
                  static_cast<unsigned long long>(expected_num),
                  node->height));
  }
  if (node->IsLeaf()) {
    if (!node->children.empty()) {
      ctx->report->Add(path, "leaf-childless",
                       StrFormat("leaf has %zu children",
                                 node->children.size()));
    }
    if (node->leaf_count != 1) {
      ctx->report->Add(
          path, "leaf-count-unit",
          StrFormat("leaf has leaf_count %llu, want 1",
                    static_cast<unsigned long long>(node->leaf_count)));
    }
    // Proposition 1: labels strictly increase in document order.
    if (ctx->saw_leaf && node->num <= ctx->prev_label) {
      ctx->report->Add(
          path, "label-order",
          StrFormat("label %llu not above predecessor %llu",
                    static_cast<unsigned long long>(node->num),
                    static_cast<unsigned long long>(ctx->prev_label)));
    }
    ctx->prev_label = node->num;
    ctx->saw_leaf = true;
    ++ctx->leaf_slots;
    if (!node->deleted) ++ctx->unerased_leaves;
    return;
  }

  if (node->children.empty()) {
    ctx->report->Add(path, "internal-childless",
                     "internal node with no children");
    return;
  }
  // Fanout: at most f+1 children fit the (f+1)-ary label space, whose
  // child offsets are index(w) * (f+1)^{h(w)} for index(w) in [0, f].
  if (node->children.size() > static_cast<size_t>(ctx->params->f) + 1) {
    ctx->report->Add(path, "fanout",
                     StrFormat("fanout %zu exceeds f+1=%u at height %u",
                               node->children.size(), ctx->params->f + 1,
                               node->height));
  }
  // Proposition 2(1) upper bound: l(t) < lmax(t) after every operation.
  if (node->leaf_count >= ctx->powers->LeafBudget(node->height)) {
    ctx->report->Add(
        path, "leaf-budget",
        StrFormat("leaf_count %llu at height %u reaches budget %llu",
                  static_cast<unsigned long long>(node->leaf_count),
                  node->height,
                  static_cast<unsigned long long>(
                      ctx->powers->LeafBudget(node->height))));
  }
  uint64_t child_leaves = 0;
  for (uint32_t i = 0; i < node->children.size(); ++i) {
    const Node* child = node->children[i];
    const std::string child_path = (path.back() == '/' ? path : path + "/") +
                                   std::to_string(i);
    if (child == nullptr) {
      ctx->report->Add(child_path, "null-child", "null child pointer");
      continue;
    }
    if (child->height + 1 != node->height) {
      ctx->report->Add(child_path, "height-step",
                       StrFormat("height-%u child under height-%u node",
                                 child->height, node->height));
      // The label identity below would cascade nonsense; still recurse so
      // deeper violations surface.
    }
    const Label child_num =
        node->num +
        static_cast<uint64_t>(i) * ctx->powers->PowF1(child->height);
    AuditNode(child, node, i, child_num, child_path, ctx);
    child_leaves += child->leaf_count;
  }
  if (child_leaves != node->leaf_count) {
    ctx->report->Add(
        path, "leaf-count-sum",
        StrFormat("leaf_count %llu != sum of children %llu at height %u",
                  static_cast<unsigned long long>(node->leaf_count),
                  static_cast<unsigned long long>(child_leaves),
                  node->height));
  }
}

/// Collects every node reachable from `node` (for the epoch-reclamation
/// rule: a retired node must not be in this set).
void CollectReachable(const Node* node,
                      std::unordered_set<const void*>* out) {
  if (node == nullptr) return;
  out->insert(node);
  for (const Node* child : node->children) CollectReachable(child, out);
}

void DumpNode(const Node* node, int depth, bool show_internal,
              std::ostringstream* os) {
  if (node->IsLeaf()) {
    for (int i = 0; i < depth; ++i) *os << "  ";
    *os << "leaf num=" << node->num << " cookie=" << node->cookie;
    if (node->deleted) *os << " [deleted]";
    *os << "\n";
    return;
  }
  if (show_internal) {
    for (int i = 0; i < depth; ++i) *os << "  ";
    *os << "node h=" << node->height << " num=" << node->num
        << " l=" << node->leaf_count << " c=" << node->children.size()
        << "\n";
  }
  for (const Node* child : node->children) {
    DumpNode(child, depth + 1, show_internal, os);
  }
}

}  // namespace

audit::Report LTree::Validate() const {
  audit::Report report;
  const Node* root = root_;
  if (root == nullptr) {
    report.Add("ltree:/", "root-null", "null root");
    return report;
  }
  if (root->IsLeaf()) {
    report.Add("ltree:/", "root-internal", "root must be internal");
    return report;
  }
  LTreeAuditContext ctx;
  ctx.params = &params_;
  ctx.powers = &powers_;
  ctx.report = &report;
  if (root->leaf_count == 0) {
    if (!root->children.empty()) {
      report.Add("ltree:/", "leaf-count-sum",
                 "empty tree (leaf_count 0) with children");
    }
    if (num_live_leaves() != 0) {
      report.Add("ltree:/", "live-count",
                 StrFormat("empty tree but num_live_leaves() is %llu",
                           static_cast<unsigned long long>(num_live_leaves())));
    }
    return report;
  }
  AuditNode(root, nullptr, 0, 0, "ltree:/", &ctx);
  if (ctx.leaf_slots != root->leaf_count) {
    report.Add("ltree:/", "leaf-count-sum",
               StrFormat("root leaf_count %llu != actual leaf slots %llu",
                         static_cast<unsigned long long>(root->leaf_count),
                         static_cast<unsigned long long>(ctx.leaf_slots)));
  }
  // Tombstone accounting: the live counter must equal leaf slots minus
  // tombstones, which the walk counts directly.
  if (ctx.unerased_leaves != num_live_leaves()) {
    report.Add("ltree:/", "live-count",
               StrFormat("num_live_leaves() %llu != actual live leaves %llu",
                         static_cast<unsigned long long>(num_live_leaves()),
                         static_cast<unsigned long long>(ctx.unerased_leaves)));
  }
  // Label resolution: the arithmetic num(w) descent must resolve every
  // leaf's label (tombstoned or not) back to exactly that leaf — this is
  // what makes labels order-preserving addresses, not just comparands.
  // The walk runs only on a structurally clean tree: NextLeaf navigates
  // parent/index_in_parent links, so on a tree the rules above already
  // flagged (miswired child index, self-parent) it can cycle or index
  // out of bounds — and an auditor must stay total. The slot-count cap
  // is belt-and-braces for corruption no structural rule anticipated.
  if (report.ok()) {
    uint64_t resolved_walk = 0;
    for (LTree::LeafHandle leaf = FirstLeaf();
         leaf != nullptr && resolved_walk < num_slots();
         leaf = NextLeaf(leaf), ++resolved_walk) {
      if (FindLeafByLabel(label(leaf)) != leaf) {
        report.Add("ltree:/", "label-resolution",
                   StrFormat("label %llu does not resolve back to its leaf",
                             static_cast<unsigned long long>(label(leaf))));
      }
    }
  }
  // Arena conservation: every node the pool considers live must be
  // reachable from the root or sitting in an epoch bucket awaiting
  // reclamation, and vice versa.
  const epoch::EpochManager* epoch = epoch_;
  const uint64_t pending = epoch != nullptr ? epoch->pending() : 0;
  if (ctx.reachable_nodes + pending != arena_stats().live()) {
    report.Add(
        "ltree:/", "arena-conservation",
        StrFormat("%llu nodes reachable + %llu epoch-pending but the arena "
                  "accounts %llu live",
                  static_cast<unsigned long long>(ctx.reachable_nodes),
                  static_cast<unsigned long long>(pending),
                  static_cast<unsigned long long>(arena_stats().live())));
  }
  // Epoch reclamation: retired ∪ reachable must partition the live nodes —
  // no retired node may still be reachable from the root (use-after-
  // reclaim in waiting) and no node may sit in two buckets (double free).
  if (epoch != nullptr && pending != 0) {
    std::unordered_set<const void*> live_set;
    CollectReachable(root, &live_set);
    std::unordered_set<const void*> retired_set;
    epoch->ForEachPending([&](const void* obj) {
      if (live_set.count(obj) != 0) {
        report.Add("ltree:/", "epoch-reclamation",
                   StrFormat("retired node %p still reachable from the root",
                             obj));
      }
      if (!retired_set.insert(obj).second) {
        report.Add("ltree:/", "epoch-reclamation",
                   StrFormat("node %p retired twice", obj));
      }
    });
  }
  return report;
}

std::string LTree::DebugString(bool show_internal) const {
  std::ostringstream os;
  os << params_.ToString() << " height=" << root_->height
     << " slots=" << root_->leaf_count << " live=" << live_leaves_
     << " label_space=" << label_space() << "\n";
  if (root_->leaf_count > 0) DumpNode(root_, 0, show_internal, &os);
  return os.str();
}

}  // namespace ltree
