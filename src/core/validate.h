// Unified invariant auditor.
//
// Every ordered structure in this library maintains invariants the paper's
// correctness argument rests on: the Proposition 1/2 fanout and leaf
// budgets, the num(w) label identity, and L-Tree labels that stay
// order-correct under batched relabeling within the Section 4.1
// batch(f,s,n,k) bound. This header is the one substrate every check
// reports through:
//
//   * audit::Violation — one broken rule, with a structural path to the
//     offending node (e.g. "ltree:/2/0") and a stable rule slug
//     (e.g. "label-order") tests can assert on;
//   * audit::Report — a bounded collector of violations that renders to a
//     human-readable listing or collapses to a Corruption Status;
//   * one entry point per audited structure, `audit::Report Validate()
//     const`: LTree, obtree::CountedBTree, VirtualLTree, xml::Document,
//     query::NodeTable, store::ChangeFeed, store::DocumentStore,
//     replica::ReplicationSession, and the scheme-generic
//     listlab::LabelStore::Validate() that every labeling scheme
//     implements. A structure that owns others Absorbs their reports
//     under its own path prefix.
//
// Validators keep walking after a hit, so one audit reports every broken
// rule at once (up to Report's cap). Configuring with
// -DLISTLAB_VALIDATE=ON makes every LabelStore, DocumentStore and
// ReplicationSession re-audit itself after each mutating call and abort
// through AbortIfCorrupt with the full report on the first operation that
// corrupts the structure.

#ifndef LTREE_CORE_VALIDATE_H_
#define LTREE_CORE_VALIDATE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace ltree {
namespace audit {

/// One violated invariant at one location.
struct Violation {
  /// Structural path to the offending node: a structure tag followed by
  /// child indices from the root, e.g. "ltree:/2/0" or "btree:/1".
  std::string path;
  /// Stable machine-checkable rule slug, e.g. "label-order" or
  /// "arena-conservation". Negative tests assert on these.
  std::string rule;
  /// Human-readable detail (expected vs. actual values).
  std::string message;

  std::string ToString() const;
};

/// Collects violations during a deep validation walk. Bounded: a badly
/// corrupted structure can violate a rule at every node, so past
/// `max_violations` the report only counts further hits.
class Report {
 public:
  Report() = default;
  explicit Report(size_t max_violations) : max_violations_(max_violations) {}

  /// Records one violation (or just counts it once the cap is reached).
  void Add(std::string path, std::string rule, std::string message);

  bool ok() const { return violations_.empty() && dropped_ == 0; }

  /// Total violations seen, including ones dropped past the cap.
  uint64_t total() const { return violations_.size() + dropped_; }

  const std::vector<Violation>& violations() const { return violations_; }

  /// True if any recorded violation matches `rule` (for negative tests).
  bool HasRule(std::string_view rule) const;

  /// Merges `other`'s recorded violations into this report, prefixing each
  /// path with `prefix` (for stores that aggregate sub-structure audits).
  void Absorb(const Report& other, std::string_view prefix);

  /// "ok" or a newline-separated listing of every recorded violation.
  std::string ToString() const;

  /// OK, or Corruption carrying the first violation (and the total count).
  Status ToStatus() const;

 private:
  std::vector<Violation> violations_;
  size_t max_violations_ = 64;
  uint64_t dropped_ = 0;
};

/// Returns when `report` is clean; otherwise prints the full listing,
/// naming the audited structure `what` and the call `op` that left it
/// corrupt, and aborts. The failure path of the -DLISTLAB_VALIDATE
/// per-mutation audit and of the paper drivers' end-of-run checks.
void AbortIfCorrupt(const Report& report, std::string_view what,
                    std::string_view op);

}  // namespace audit
}  // namespace ltree

#endif  // LTREE_CORE_VALIDATE_H_
