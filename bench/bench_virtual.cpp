// E10 / Section 4.2: the virtual L-Tree.
//
// "There is clearly a tradeoff between the extra computation required by
// the range queries and the storage space necessary for materializing the
// L-Tree." This bench sweeps the trade-off surface — (f, s) parameter
// pairs crossed with document sizes — and for every cell measures both
// sides of the gap on the identical op stream:
//
//   * time: insert-stream wall milliseconds per side, and their ratio
//     (the virtual scheme's extra O(log n) computation);
//   * memory: measured heap bytes per side — both trees now carve nodes
//     from 256-slot pool chunks, so this is chunk footprint plus per-node
//     buffer capacities, not an estimate — and their ratio;
//   * allocator traffic of the virtual side's counted B+-tree (the
//     MaintStats counters the virtual store used to report as zeros);
//   * fidelity: the two representations must produce identical labels.
//
// Usage:   bench_virtual [n1] [n2]
//
// Runs the sweep at initial sizes n1 and n2 (inserts = n/5 each). Checks,
// per cell: identical labels on both sides, nonzero measured memory on
// both sides, and nonzero node allocations on the virtual side.

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "virtual_ltree/virtual_ltree.h"

using namespace ltree;

namespace {

struct SideResult {
  double insert_ms = 0.0;
  double mem_mb = 0.0;
  std::vector<Label> labels;
};

struct VirtResult : SideResult {
  uint64_t nodes_allocated = 0;
  uint64_t nodes_reused = 0;
};

SideResult RunMaterialized(const Params& p, uint64_t initial,
                           uint64_t inserts) {
  SideResult out;
  auto tree = LTree::Create(p).ValueOrDie();
  std::vector<LeafCookie> cookies(initial);
  for (uint64_t i = 0; i < initial; ++i) cookies[i] = i;
  std::vector<LTree::LeafHandle> handles;
  LTREE_CHECK_OK(tree->BulkLoad(cookies, &handles));
  Rng rng(71);
  Timer ins;
  for (uint64_t i = 0; i < inserts; ++i) {
    const size_t r = static_cast<size_t>(rng.Uniform(handles.size()));
    auto h = tree->InsertAfter(handles[r], initial + i);
    LTREE_CHECK(h.ok());
    handles.push_back(*h);
  }
  out.insert_ms = ins.ElapsedMillis();
  // Measured pool footprint, same accounting policy as the virtual side's
  // CountedBTree::ApproxHeapBytes.
  out.mem_mb = static_cast<double>(tree->ApproxHeapBytes()) / 1e6;
  out.labels = tree->AllLabels();
  return out;
}

/// Keeps cookie -> current label up to date, so the virtual runner can
/// replay the exact op stream of the materialized one (which addresses
/// positions by stable handles in creation order).
class LabelTracker : public RelabelListener {
 public:
  explicit LabelTracker(std::vector<Label>* labels) : labels_(labels) {}
  void OnRelabel(LeafCookie cookie, Label, Label new_label) override {
    (*labels_)[cookie] = new_label;
  }

 private:
  std::vector<Label>* labels_;
};

VirtResult RunVirtual(const Params& p, uint64_t initial, uint64_t inserts) {
  VirtResult out;
  auto tree = VirtualLTree::Create(p).ValueOrDie();
  std::vector<Label> label_of_cookie(initial + inserts, 0);
  LabelTracker tracker(&label_of_cookie);
  tree->set_listener(&tracker);
  std::vector<LeafCookie> cookies(initial);
  for (uint64_t i = 0; i < initial; ++i) cookies[i] = i;
  std::vector<Label> loaded;
  LTREE_CHECK_OK(tree->BulkLoad(cookies, &loaded));
  for (uint64_t i = 0; i < initial; ++i) label_of_cookie[i] = loaded[i];
  tree->ResetStats();  // window the allocator counters to the insert stream
  Rng rng(71);  // same stream as the materialized runner
  Timer ins;
  uint64_t created = initial;
  for (uint64_t i = 0; i < inserts; ++i) {
    const uint64_t r = rng.Uniform(created);
    auto l = tree->InsertAfter(label_of_cookie[r], initial + i);
    LTREE_CHECK(l.ok());
    label_of_cookie[created] = *l;
    ++created;
  }
  out.insert_ms = ins.ElapsedMillis();
  const VirtualLTreeStats& st = tree->stats();
  out.nodes_allocated = st.nodes_allocated;
  out.nodes_reused = st.nodes_reused;
  out.mem_mb = static_cast<double>(tree->ApproxMemoryBytes()) / 1e6;
  out.labels = tree->AllLabels();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::PrintHeader(
      "E10 / Section 4.2: materialized vs virtual L-Tree, (f, s) x n sweep",
      "Claim: identical labels with no materialized structure, trading "
      "extra per-op computation (counted-B-tree range ops) for space.");

  const uint64_t n1 = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 10000;
  const uint64_t n2 = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 100000;

  const Params param_grid[] = {
      {.f = 4, .s = 2}, {.f = 16, .s = 4}, {.f = 64, .s = 8}};

  std::printf("%-12s %9s %8s | %9s %8s | %9s %8s %7s | %6s %6s | %7s\n",
              "params", "n", "inserts", "mat ins", "mat MB", "virt ins",
              "virt MB", "reuse%", "timeX", "memX", "equal?");
  for (const Params& params : param_grid) {
    for (uint64_t n : {n1, n2}) {
      const uint64_t inserts = n / 5;
      auto mat = RunMaterialized(params, n, inserts);
      auto virt = RunVirtual(params, n, inserts);
      const bool equal = mat.labels == virt.labels;
      const double time_ratio =
          mat.insert_ms > 0.0 ? virt.insert_ms / mat.insert_ms : 0.0;
      const double mem_ratio =
          mat.mem_mb > 0.0 ? virt.mem_mb / mat.mem_mb : 0.0;
      const uint64_t requests = virt.nodes_allocated + virt.nodes_reused;
      const double reuse_pct =
          requests == 0 ? 0.0
                        : 100.0 * static_cast<double>(virt.nodes_reused) /
                              static_cast<double>(requests);
      std::printf(
          "f=%-3u s=%-3u %9llu %8llu | %7.1fms %7.2fMB | %7.1fms %7.2fMB "
          "%6.1f%% | %5.2fx %5.2fx | %7s\n",
          params.f, params.s, (unsigned long long)n,
          (unsigned long long)inserts, mat.insert_ms, mat.mem_mb,
          virt.insert_ms, virt.mem_mb, reuse_pct, time_ratio, mem_ratio,
          equal ? "yes" : "NO");
      LTREE_CHECK(equal);
      LTREE_CHECK(mat.mem_mb > 0.0 && virt.mem_mb > 0.0);
      LTREE_CHECK(virt.nodes_allocated > 0);
    }
    std::printf("\n");
  }
  std::printf(
      "Note on the position-lookup cost: the materialized runner holds "
      "stable leaf\nhandles (O(1) label reads); the virtual runner pays an "
      "extra O(log n) select\nper op plus O(log n) per touched label during "
      "relabeling — exactly the\n\"extra computation\" the paper trades "
      "against materialization space. Every\nvirtual relabel now goes "
      "through the counted B+-tree's single-pass\nReplaceRange (leaf-run "
      "splice + one bottom-up repair) instead of k deletes\nplus k inserts, "
      "which is where the insert-time ratio dropped from the\npre-pipeline "
      "~3.3x. Both sides' memory is measured from their node pools\n"
      "(256-node chunks).\n\n");
  return 0;
}
