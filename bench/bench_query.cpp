// E12 / Section 1: label-comparison joins vs edge-table self-joins, and
// query validity across updates.
//
// Two claims from the paper's motivation:
//  1. With (start, end) labels, a descendant-axis step costs one structural
//     join; the edge-table plan [11] needs one self-join per level.
//  2. The L-Tree keeps those labels valid under updates, so no re-indexing
//     happens between edits (queries run unchanged and stay correct).
//
// Checks: both plans return the same answer on every path, the label-join
// plan beats the edge-table plan on every path (speedup > 1), and the
// //book//title answer stays correct across 500 interleaved fragment
// inserts. Set BENCH_PIN_CPU=<core> for stable timings.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "docstore/labeled_document.h"
#include "query/path_query.h"
#include "workload/xml_generator.h"

using namespace ltree;

int main() {
  bench::PrintHeader(
      "E12 / Section 1: query processing over labels vs edge table",
      "Claim: '//' steps collapse to one label-comparison join; parent-id "
      "plans pay one join per document level.");
  bench::MaybePinCpu();

  auto store = docstore::LabeledDocument::FromDocument(
                   workload::GenerateCatalog(3000, 4, 13), "ltree:16:4")
                   .ValueOrDie();
  std::printf("document: %llu elements, depth ~5, scheme %s (%u-bit labels)\n\n",
              (unsigned long long)store->table().size(),
              store->label_store().name().c_str(),
              store->label_store().label_bits());

  const char* paths[] = {"//book//title", "/site/books//para",
                         "//chapter/title", "//book//*", "/site//title"};
  const int kReps = 20;

  std::printf("%-22s %10s %12s %12s %10s %10s\n", "path", "results",
              "labels(ms)", "edges(ms)", "speedup", "edgejoins");
  for (const char* path : paths) {
    auto q = query::PathQuery::Parse(path).ValueOrDie();
    size_t n1 = 0;
    Timer t1;
    for (int i = 0; i < kReps; ++i) {
      n1 = query::EvaluateWithLabels(q, store->table()).size();
    }
    const double label_ms = t1.ElapsedMillis() / kReps;
    Timer t2;
    size_t n2 = 0;
    uint64_t joins = 0;
    for (int i = 0; i < kReps; ++i) {
      n2 = query::EvaluateWithEdges(q, store->table(), &joins).size();
    }
    const double edge_ms = t2.ElapsedMillis() / kReps;
    LTREE_CHECK(n1 == n2);
    std::printf("%-22s %10zu %12.3f %12.3f %9.1fx %10llu\n", path, n1,
                label_ms, edge_ms, edge_ms / label_ms,
                (unsigned long long)joins);
    LTREE_CHECK(edge_ms > label_ms);
  }

  // Claim 2: updates do not invalidate the plan or force re-indexing.
  std::printf("\n--- query validity across updates ---\n");
  auto q = query::PathQuery::Parse("//book//title").ValueOrDie();
  auto books_q = query::PathQuery::Parse("/site/books").ValueOrDie();
  const xml::NodeId books_id =
      query::EvaluateWithLabels(books_q, store->table())[0]->id;
  size_t expected = query::EvaluateWithLabels(q, store->table()).size();
  Timer edit_timer;
  for (int i = 0; i < 500; ++i) {
    auto id = store->InsertFragment(
        books_id, 0,
        "<book><title>t</title><chapter><title>c</title></chapter></book>");
    LTREE_CHECK(id.ok());
    expected += 2;
    const size_t got = query::EvaluateWithLabels(q, store->table()).size();
    LTREE_CHECK(got == expected);
  }
  std::printf("500 fragment inserts interleaved with queries: all answers "
              "correct,\nno re-index, %.1f us per edit+query round; "
              "relabeled leaves total: %llu\n",
              edit_timer.ElapsedMicros() / 500.0,
              (unsigned long long)store->label_store().stats().items_relabeled);
  LTREE_CHECK_OK(store->CheckConsistency());
  return 0;
}
