// ROADMAP carry-over: single-threaded per-operation latency profile across
// all six labeling-scheme spec families, parameterized by (f, s) where the
// spec takes them. Where bench_baselines reports throughput-style aggregates
// (relabels/insert, wall ms), this bench times every individual InsertAfter/
// InsertBefore and reports the tail (p50/p99/p999/max) — the number an
// interactive editor or sync server actually feels when one insert lands on
// a covering relabel.
//
// Set BENCH_PIN_CPU=<core> to pin the thread (bench::MaybePinCpu), which
// stops migrations from polluting p99.9; the helper warns when the core's
// cpufreq governor is not "performance".
//
// Usage:   bench_latency [initial] [ops]
//
// Checks, per spec: the store's invariant audit passes, p50 is nonzero
// and the label width is nonzero.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "listlab/factory.h"
#include "workload/update_stream.h"

using namespace ltree;

namespace {

struct Row {
  uint32_t bits = 0;
  bench::LatencySummary lat;
};

Row RunSpec(const std::string& spec, uint64_t initial, uint64_t ops) {
  auto store = listlab::MakeLabelStore(spec).ValueOrDie();
  std::vector<listlab::ItemHandle> handles;
  LTREE_CHECK_OK(store->BulkLoad(initial, &handles));
  workload::UpdateStream stream(workload::StreamOptions{
      .kind = workload::StreamKind::kUniform, .seed = 97});

  bench::LatencyCollector lat(ops);
  Timer op_timer;
  for (uint64_t i = 0; i < ops; ++i) {
    const auto op = stream.Next(handles.size());
    const LeafCookie cookie = initial + i;
    Result<listlab::ItemHandle> h = Status::Internal("unset");
    op_timer.Reset();
    if (op.kind == workload::ListOp::Kind::kInsertBefore) {
      h = store->InsertBefore(handles[op.rank], cookie);
    } else {
      h = store->InsertAfter(handles[op.rank], cookie);
    }
    lat.Record(op_timer.ElapsedNanos());
    LTREE_CHECK(h.ok());
    // Handle bookkeeping stays outside the timed window: it is the
    // driver's cost, not the scheme's.
    const size_t at = op.kind == workload::ListOp::Kind::kInsertBefore
                          ? op.rank
                          : op.rank + 1;
    handles.insert(handles.begin() + static_cast<long>(at), *h);
  }
  audit::AbortIfCorrupt(store->Validate(), store->name(), "the latency run");
  return Row{store->label_bits(), lat.Summarize()};
}

}  // namespace

int main(int argc, char** argv) {
  bench::PrintHeader(
      "latency: per-insert tail latency across labeling schemes",
      "Claim: L-Tree variants keep p99 insert latency polylogarithmic "
      "where sequential/gap schemes pay linear relabeling spikes.");
  bench::MaybePinCpu();

  const uint64_t initial =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 4000;
  const uint64_t ops = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 12000;

  // The six spec families from listlab::MakeLabelStore; the tree-backed
  // families sweep (f, s), the flat baselines take one representative
  // parameterization each.
  std::vector<std::string> specs = {"sequential", "gap:64", "bender"};
  const std::pair<uint32_t, uint32_t> fs[] = {{4, 2}, {16, 4}, {64, 8}};
  for (auto [f, s] : fs) {
    specs.push_back(StrFormat("ltree:%u:%u", f, s));
    specs.push_back(StrFormat("ltree:%u:%u:purge", f, s));
    specs.push_back(StrFormat("virtual:%u:%u", f, s));
  }

  std::printf("%-20s %10s %10s %10s %10s %8s\n", "spec", "p50(ns)",
              "p99(ns)", "p999(ns)", "max(ns)", "bits");
  for (const std::string& spec : specs) {
    const Row row = RunSpec(spec, initial, ops);
    std::printf("%-20s %10.0f %10.0f %10.0f %10.0f %8u\n", spec.c_str(),
                row.lat.p50_ns, row.lat.p99_ns, row.lat.p999_ns,
                row.lat.max_ns, row.bits);
    LTREE_CHECK(row.lat.p50_ns > 0.0);
    LTREE_CHECK(row.bits > 0);
  }
  return 0;
}
