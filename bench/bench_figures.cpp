// E1 + E2: executable reproduction of the paper's two figures.
//
// Figure 1 — the labeled XML tree and the book//title containment query.
// Figure 2 — bulk load (a), the insertion of "D" without a split (b, c) and
// the insertion of "/D" that splits the height-1 node (d), for f=4, s=2.
//
// Note on Figure 2's printed labels: the paper's figure shows stride-3
// labels (0,1,3,4,9,10,12,13), i.e. base d+1 = 3, which contradicts the
// labeling rule of Section 2.1 (num(w) = num(v) + i*(f+1)^h) that the bits
// formula and the virtual L-Tree (Section 4.2) are derived from. This
// implementation follows Section 2.1 (base f+1 = 5); the structural
// behaviour (which node splits, which leaves relabel) matches the figure
// exactly. Checks: the join finds both titles; the first insertion does not
// split and the second splits once.

#include <cstdio>

#include "bench/bench_util.h"
#include "docstore/labeled_document.h"
#include "query/path_query.h"
#include "query/structural_join.h"

using namespace ltree;

namespace {

void Figure1() {
  bench::PrintHeader(
      "E1 / Figure 1: interval labels answer book//title",
      "Claim: a navigation query becomes an interval-containment test; one "
      "label-comparison join per step.");
  auto store = docstore::LabeledDocument::FromXml(
                   "<book><chapter><title/></chapter><title/></book>",
                   "ltree:4:2")
                   .ValueOrDie();
  std::printf("%-10s %-18s\n", "element", "(start, end)");
  store->document().Visit([&](const xml::Node& n) {
    if (!n.IsElement()) return;
    auto r = store->GetRegion(n.id).ValueOrDie();
    std::printf("%-10s (%llu, %llu)\n", n.tag.c_str(),
                (unsigned long long)r.start, (unsigned long long)r.end);
  });
  auto q = query::PathQuery::Parse("book//title").ValueOrDie();
  auto books = store->table().ByTag("book");
  auto titles = store->table().ByTag("title");
  auto pairs = query::AncestorDescendantJoin(books, titles);
  std::printf("\nbook//title via structural join: %zu matches "
              "(paper: both titles)\n",
              pairs.size());
  LTREE_CHECK(pairs.size() == 2);
  for (const auto& [a, d] : pairs) {
    std::printf("  (%llu,%llu) contains (%llu,%llu)\n",
                (unsigned long long)a->region.start,
                (unsigned long long)a->region.end,
                (unsigned long long)d->region.start,
                (unsigned long long)d->region.end);
  }
}

void PrintLeafLine(const LTree& tree) {
  std::printf("  leaves:");
  for (auto leaf = tree.FirstLeaf(); leaf != nullptr;
       leaf = tree.NextLeaf(leaf)) {
    std::printf(" %llu", (unsigned long long)tree.label(leaf));
  }
  std::printf("\n");
}

void Figure2() {
  bench::PrintHeader(
      "E2 / Figure 2: bulk load and two insertions (f=4, s=2)",
      "Claim: the first insertion only relabels right siblings; the second "
      "pushes the height-1 node to lmax(1)=4 leaves and splits it into s=2 "
      "subtrees.");
  auto tree = LTree::Create(Params{.f = 4, .s = 2}).ValueOrDie();
  std::vector<LeafCookie> cookies{0, 1, 2, 3, 4, 5, 6, 7};
  std::vector<LTree::LeafHandle> handles;
  LTREE_CHECK_OK(tree->BulkLoad(cookies, &handles));
  std::printf("(a) bulk load of 8 tags: height=%u, label space=(f+1)^3=%llu\n",
              tree->height(), (unsigned long long)tree->label_space());
  PrintLeafLine(*tree);
  std::printf("    (paper figure shows 0,1,3,4,9,10,12,13 with stride 3; "
              "Section 2.1's rule gives base f+1=5 -> see header note)\n");

  auto d_begin = tree->InsertBefore(handles[2], 100).ValueOrDie();
  std::printf("(c) insert begin tag \"D\" before the leaf of \"C\": "
              "splits=%llu (paper: none), leaves relabeled=%llu\n",
              (unsigned long long)tree->stats().splits,
              (unsigned long long)tree->stats().leaves_relabeled);
  LTREE_CHECK(tree->stats().splits == 0);
  PrintLeafLine(*tree);

  (void)tree->InsertAfter(d_begin, 101).ValueOrDie();
  std::printf("(d) insert end tag \"/D\": splits=%llu (paper: the height-1 "
              "node numbered \"begin-of-C\" splits into s=2)\n",
              (unsigned long long)tree->stats().splits);
  LTREE_CHECK(tree->stats().splits == 1);
  PrintLeafLine(*tree);
  std::printf("\nfinal structure:\n%s", tree->DebugString().c_str());
  audit::AbortIfCorrupt(tree->Validate(), "L-Tree", "the figure inserts");
}

}  // namespace

int main() {
  Figure1();
  Figure2();
  return 0;
}
