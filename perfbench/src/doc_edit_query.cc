// doc_edit_query: the paper's pipeline on one document. A seeded catalog
// corpus is parsed and bulk-loaded over the L-Tree; each round inserts a
// one-book fragment after a Zipf-chosen book (the Section 4.1 batch path),
// deletes a uniformly chosen book, and evaluates the standing path queries
// once with label joins. It is the only workload that runs xml, docstore,
// query and the batch insert path, and it never touches store or replica.

#include <algorithm>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/random.h"
#include "docstore/labeled_document.h"
#include "listlab/factory.h"
#include "query/path_query.h"
#include "workload/xml_generator.h"
#include "workloads.h"
#include "xml/parser.h"

namespace perfbench {
namespace {

using ltree::LeafCookie;
using ltree::Rng;
using ltree::docstore::LabeledDocument;
using ltree::listlab::ItemHandle;
using ltree::xml::Node;
using ltree::xml::NodeId;

constexpr const char* kSpec = "ltree:16:4";
constexpr const char* kQueries[] = {"//book//title", "/site/books//para",
                                    "//chapter/title", "/site//title"};
constexpr uint32_t kChapters = 3;
constexpr double kBookZipfTheta = 0.99;
constexpr size_t kFragmentPool = 256;
constexpr int kReadsPerSample = 16;

struct Size {
  uint64_t books;
  uint64_t rounds_per_epoch;
  uint64_t counted_epochs;
};

Size SizeFor(bool small) {
  // Full size: ~34k elements; each added book is 29 tag-stream leaves.
  return small ? Size{200, 128, 2} : Size{3000, 512, 10};
}

std::string MakeFragment(uint64_t n, uint64_t authors, Rng* rng) {
  const std::string id = std::to_string(n);
  std::string s = "<book id=\"n" + id + "\" author=\"a" +
                  std::to_string(rng->Uniform(authors)) +
                  "\"><title>Added " + id + "</title>";
  for (uint32_t c = 0; c < kChapters; ++c) {
    s += "<chapter><title>Chapter " + std::to_string(c) +
         "</title><para>Added " + id + "." + std::to_string(c) +
         "</para></chapter>";
  }
  return s + "</book>";
}

/// Pre-order leaves of a subtree as (node, is_end) in tag-stream order.
void TagLeaves(const Node* n, std::vector<std::pair<const Node*, bool>>* out) {
  out->push_back({n, false});
  if (n->IsText()) return;
  for (const Node* c = n->first_child; c != nullptr; c = c->next_sibling) {
    TagLeaves(c, out);
  }
  out->push_back({n, true});
}

/// The traced run's listlab replay: a bare store of the same scheme that
/// receives the document's tag-stream edits, so the label layer can be
/// timed on its own. (LabeledDocument does not expose its handles.)
class LeafReplay {
 public:
  explicit LeafReplay(const LabeledDocument& doc) {
    store_ = std::move(ltree::listlab::MakeLabelStore(kSpec).ValueOrDie());
    std::vector<std::pair<const Node*, bool>> leaves;
    TagLeaves(doc.document().root(), &leaves);
    std::vector<LeafCookie> cookies(leaves.size());
    for (size_t i = 0; i < leaves.size(); ++i) cookies[i] = i;
    std::vector<ItemHandle> handles;
    LTREE_CHECK_OK(store_->BulkLoad(cookies, &handles));
    for (size_t i = 0; i < leaves.size(); ++i) Remember(leaves[i], handles[i]);
  }

  /// Inserts the leaves of `root` after the end leaf of `anchor`; returns
  /// the call's time.
  int64_t InsertAfter(NodeId anchor, const Node* root) {
    std::vector<std::pair<const Node*, bool>> leaves;
    TagLeaves(root, &leaves);
    const std::vector<LeafCookie> cookies(leaves.size(), 0);
    std::vector<ItemHandle> handles;
    const ItemHandle pos = handles_.at(anchor).second;
    const int64_t ns = TimeNs([&] {
      LTREE_CHECK_OK(store_->InsertBatchAfter(pos, cookies, &handles));
    });
    for (size_t i = 0; i < leaves.size(); ++i) Remember(leaves[i], handles[i]);
    return ns;
  }

  /// Erases the leaves of the listed nodes, one Erase call each, adding
  /// each call's time to `samples`.
  void Erase(const std::vector<NodeId>& nodes, Samples* samples) {
    for (const NodeId id : nodes) {
      const auto [begin, end] = handles_.at(id);
      handles_.erase(id);
      for (const ItemHandle h : {begin, end}) {
        if (h == ltree::listlab::kInvalidItemHandle) continue;
        samples->Add(static_cast<double>(
            TimeNs([&] { LTREE_CHECK_OK(store_->Erase(h)); })));
      }
    }
  }

  /// Times kReadsPerSample GetLabel calls, and as many guarded LabelOf
  /// calls, on the begin leaves of randomly chosen `nodes`; adds ns per
  /// read.
  void Read(const std::vector<NodeId>& nodes, Rng* rng, Samples* get_label,
            Samples* label_of) {
    ItemHandle hs[kReadsPerSample];
    for (ItemHandle& h : hs) {
      h = handles_.at(nodes[rng->Uniform(nodes.size())]).first;
    }
    const int64_t get_ns = TimeNs([&] {
      for (const ItemHandle h : hs) Keep(*store_->GetLabel(h));
    });
    const int64_t of_ns = TimeNs([&] {
      for (const ItemHandle h : hs) {
        auto guard = store_->AcquireRead();
        Keep(*store_->LabelOf(guard, h));
      }
    });
    get_label->Add(static_cast<double>(get_ns) / kReadsPerSample);
    label_of->Add(static_cast<double>(of_ns) / kReadsPerSample);
  }

 private:
  void Remember(std::pair<const Node*, bool> leaf, ItemHandle h) {
    auto& pair = handles_
                     .try_emplace(leaf.first->id,
                                  ltree::listlab::kInvalidItemHandle,
                                  ltree::listlab::kInvalidItemHandle)
                     .first->second;
    (leaf.second ? pair.second : pair.first) = h;
  }

  std::unique_ptr<ltree::listlab::LabelStore> store_;
  std::unordered_map<NodeId, std::pair<ItemHandle, ItemHandle>> handles_;
};

std::vector<NodeId> SubtreeIds(const Node* root) {
  std::vector<NodeId> ids;
  std::vector<const Node*> stack{root};
  while (!stack.empty()) {
    const Node* n = stack.back();
    stack.pop_back();
    ids.push_back(n->id);
    for (const Node* c = n->first_child; c != nullptr; c = c->next_sibling) {
      stack.push_back(c);
    }
  }
  return ids;
}

uint64_t RowsScanned(const ltree::query::PathQuery& q,
                     const ltree::query::NodeTable& table) {
  uint64_t rows = 0;
  for (const auto& step : q.steps()) {
    rows += step.tag == "*" ? table.AllElements().size()
                            : table.ByTag(step.tag).size();
  }
  return rows;
}

}  // namespace

void RunDocEditQuery(const Options& options, Report* report) {
  const Size size = SizeFor(options.small);
  const std::string corpus =
      ltree::workload::GenerateCatalogXml(size.books, kChapters, options.seed);
  std::vector<ltree::query::PathQuery> queries;
  for (const char* text : kQueries) {
    queries.push_back(ltree::query::PathQuery::Parse(text).ValueOrDie());
  }
  Rng frag_rng(options.seed ^ 0xf4a9u);
  std::vector<std::string> fragments;
  for (size_t i = 0; i < kFragmentPool; ++i) {
    fragments.push_back(MakeFragment(i, size.books / 4 + 1, &frag_rng));
  }

  Trace trace;
  Samples setup_ns, parse_ns, load_ns;
  CallTimes t;
  uint64_t checksum = 0, op = 0;
  EditClock edit_clock;
  // Traced-only layers.
  Samples parse_ns_per_byte, insert_self_ns, delete_ns, join_ns;
  Samples ll_insert, ll_erase, ll_get, ll_of;
  uint64_t rows_scanned = 0, rows_returned = 0;
  ltree::listlab::MaintStats moved;  // label-store counter deltas, summed
  Counts counts;
  uint64_t rows_at_end = 0;

  Epochs epochs(options, size.counted_epochs);
  while (epochs.Next()) {
    const bool traced = epochs.traced();
    // Set-up: parse + bulk load.
    const int64_t t0 = NowNs();
    auto parsed = ltree::xml::Parse(corpus);
    const int64_t t1 = NowNs();
    report->Op(parsed.status(), "corpus parse");
    if (!parsed.ok()) return;
    auto loaded =
        LabeledDocument::FromDocument(std::move(parsed).ValueOrDie(), kSpec);
    const int64_t t2 = NowNs();
    report->Op(loaded.status(), "FromDocument");
    if (!loaded.ok()) return;
    const std::unique_ptr<LabeledDocument> doc =
        std::move(loaded).ValueOrDie();
    setup_ns.Add(static_cast<double>(t2 - t0));
    parse_ns.Add(static_cast<double>(t1 - t0));
    load_ns.Add(static_cast<double>(t2 - t1));

    const Node* books_el = doc->document().root()->first_child;
    const NodeId books_id = books_el->id;
    std::vector<NodeId> books;
    for (const Node* b = books_el->first_child; b != nullptr;
         b = b->next_sibling) {
      books.push_back(b->id);
    }
    Rng rng(epochs.seed());
    Rng read_rng(epochs.seed() ^ 0x5eedu);  // traced reads only
    ltree::ZipfSampler book_zipf(books.size(), kBookZipfTheta);
    std::unique_ptr<LeafReplay> replay;
    if (traced) replay = std::make_unique<LeafReplay>(*doc);
    const ltree::listlab::LabelStore& labels = doc->label_store();
    const ltree::listlab::MaintStats base = labels.stats();

    auto check_queries = [&] {
      for (const auto& q : queries) {
        const auto rows = ltree::query::EvaluateWithLabels(q, doc->table());
        const auto truth =
            ltree::query::EvaluateOnDocument(q, doc->document());
        bool same = rows.size() == truth.size();
        for (size_t i = 0; same && i < rows.size(); ++i) {
          same = rows[i]->id == truth[i];
        }
        report->Op(same, "label join disagrees with the DOM on " + q.text());
      }
    };

    // Also warms the fresh document's indexes before the timed rounds.
    check_queries();
    trace.set_on(traced);
    const int64_t epoch_start = NowNs();
    for (uint64_t r = 0; r < size.rounds_per_epoch; ++r, ++op) {
      const NodeId anchor = books[book_zipf.Sample(&rng) % books.size()];
      const size_t victim = rng.Uniform(books.size());
      const std::string& fragment = fragments[r % kFragmentPool];

      // Insert a one-book fragment after the anchor book. The round's
      // spans share its op id.
      int64_t c0 = NowNs();
      auto inserted = doc->InsertFragment(books_id, anchor, fragment);
      int64_t c1 = NowNs();
      trace.Record("docstore.InsertFragment", op, c0, c1);
      report->Op(inserted.status(), "InsertFragment");
      t.edit.Add(static_cast<double>(c1 - c0));
      t.Edit(c1 - c0);
      edit_clock.Add(traced, c1 - c0);
      if (traced) {
        const int64_t p0 = NowNs();
        auto reparsed = ltree::xml::Parse(fragment);
        const int64_t p1 = NowNs();
        trace.Record("xml.Parse(replay)", op, p0, p1);
        Keep(reparsed.ok());
        parse_ns_per_byte.Add(static_cast<double>(p1 - p0) /
                              static_cast<double>(fragment.size()));
        insert_self_ns.Add(static_cast<double>((c1 - c0) - (p1 - p0)));
        if (inserted.ok()) {
          ll_insert.Add(static_cast<double>(replay->InsertAfter(
              anchor, doc->document().FindById(*inserted))));
        }
      }
      if (inserted.ok()) books.push_back(*inserted);

      // Delete a uniformly chosen book.
      const NodeId gone = books[victim];
      std::vector<NodeId> gone_ids;
      if (traced) gone_ids = SubtreeIds(doc->document().FindById(gone));
      c0 = NowNs();
      const ltree::Status deleted = doc->DeleteSubtree(gone);
      c1 = NowNs();
      trace.Record("docstore.DeleteSubtree", op, c0, c1);
      report->Op(deleted, "DeleteSubtree");
      t.Edit(c1 - c0);
      edit_clock.Add(traced, c1 - c0);
      if (traced) {
        delete_ns.Add(static_cast<double>(c1 - c0));
        if (deleted.ok()) replay->Erase(gone_ids, &ll_erase);
      }
      books[victim] = books.back();
      books.pop_back();

      // Evaluate the standing queries once.
      const int32_t set_span = trace.Open("client.query_set", op, NowNs());
      c0 = NowNs();
      for (const auto& q : queries) {
        const int64_t q0 = traced ? NowNs() : 0;
        const auto rows = ltree::query::EvaluateWithLabels(q, doc->table());
        if (traced) {
          const int64_t q1 = NowNs();
          trace.Record("query.EvaluateWithLabels", op, q0, q1, set_span);
          join_ns.Add(static_cast<double>(q1 - q0));
          rows_returned += rows.size();
        }
        checksum += rows.size();
      }
      c1 = NowNs();
      trace.Close(set_span, c1);
      t.read.Add(static_cast<double>(c1 - c0));
      t.Call(c1 - c0);
      report->Op(true);
      if (traced) {
        for (const auto& q : queries) {
          rows_scanned += RowsScanned(q, doc->table());
        }
        replay->Read(books, &read_rng, &ll_get, &ll_of);
      }
    }
    epochs.Measured(NowNs() - epoch_start);
    trace.set_on(false);
    Keep(checksum);

    // Correctness gate, outside the timed calls.
    check_queries();
    report->Op(doc->CheckConsistency(), "CheckConsistency");

    const ltree::listlab::MaintStats now = labels.stats();
    AddMoved(now, base, &moved);
    rows_at_end = doc->table().size();
    if (epochs.counted()) {
      counts.AddEpoch(now.inserts - base.inserts,
                      now.items_relabeled - base.items_relabeled,
                      labels.ApproxHeapBytes(), labels.size(),
                      labels.label_bits());
    }
  }

  report->Note("doc_edit_query: " + std::to_string(size.books) +
               " books, spec " + kSpec + ", " + std::to_string(rows_at_end) +
               " rows at the end, " + std::to_string(epochs.count()) +
               " epochs of " +
               std::to_string(size.rounds_per_epoch) +
               " rounds");
  report->Note("read = one evaluation of the standing query set");
  report->SetMedian("setup_s", setup_ns, 1e-9, "s");
  if (!options.trace) {
    ReportCallTimes(t, report);
    report->SetPercentile("query_p50_us", t.read, 0.5, 1e-3, "us");
    report->SetPercentile("query_p99_us", t.read, 0.99, 1e-3, "us");
  }
  counts.Report(report, /*wire=*/false);
  if (!options.trace) return;

  report->SetPercentile("xml.parse_ns_per_byte", parse_ns_per_byte, 0.5, 1,
                        "ns/B");
  report->SetMedian("xml.corpus_parse_s", parse_ns, 1e-9, "s");
  report->SetMedian("docstore.load_s", load_ns, 1e-9, "s");
  report->SetPercentile("docstore.insert_fragment_self_p50_us",
                        insert_self_ns, 0.5, 1e-3, "us");
  report->SetPercentile("docstore.delete_subtree_p50_us", delete_ns, 0.5,
                        1e-3, "us");
  report->SetPercentile("query.label_join_p50_us", join_ns, 0.5, 1e-3, "us");
  report->Set("query.rows_per_result",
              static_cast<double>(rows_scanned) /
                  static_cast<double>(std::max<uint64_t>(rows_returned, 1)),
              "count", rows_returned);
  report->SetPercentile("listlab.insert_p50_ns", ll_insert, 0.5, 1, "ns");
  report->SetPercentile("listlab.insert_p99_ns", ll_insert, 0.99, 1, "ns");
  report->SetPercentile("listlab.erase_p50_ns", ll_erase, 0.5, 1, "ns");
  report->SetPercentile("listlab.get_label_p50_ns", ll_get, 0.5, 1, "ns");
  report->SetPercentile("listlab.label_of_p50_ns", ll_of, 0.5, 1, "ns");
  ReportLabelCounters(moved, t.edits, report);
  // This workload has no store feed and no replication traffic.
  report->Set("store.feed_events_per_edit", 0, "count", 0);
  report->Set("replica.bytes_per_event", 0, "B", 0);
  report->Set("replica.empty_response_share", 0, "ratio", 0);
  report->Set("replica.attempts_per_shard_sync", 0, "count", 0);
  FinishTrace(trace, edit_clock, options, report);
}

}  // namespace perfbench
