#include "workloads.h"

#include <algorithm>

namespace perfbench {

void Counts::Report(perfbench::Report* report, bool wire) const {
  report->Set("relabels_per_insert",
              static_cast<double>(relabeled) /
                  static_cast<double>(std::max<uint64_t>(inserts, 1)),
              "count", inserts);
  report->Set("label_bits", static_cast<double>(label_bits), "bits", epochs);
  report->Set("heap_bytes_per_item",
              heap_bytes_per_item /
                  static_cast<double>(std::max<uint64_t>(epochs, 1)),
              "B", epochs);
  if (wire) {
    report->Set("wire_bytes_per_edit",
                static_cast<double>(wire_bytes) /
                    static_cast<double>(std::max<uint64_t>(edits, 1)),
                "B", edits);
  }
}

void ReportCallTimes(const CallTimes& times, Report* report) {
  report->SetPercentile("edit_p50_us", times.edit, 0.5, 1e-3, "us");
  report->SetPercentile("edit_p99_us", times.edit, 0.99, 1e-3, "us");
  report->Set("edits_per_s", times.edits / times.edit_ns * 1e9, "1/s",
              times.edits);
  report->SetPercentile("read_p50_us", times.read, 0.5, 1e-3, "us");
  report->SetPercentile("read_p99_us", times.read, 0.99, 1e-3, "us");
  report->Set("ops_per_s", times.calls / times.call_ns * 1e9, "1/s",
              times.calls);
}

void AddMoved(const ltree::listlab::MaintStats& now,
              const ltree::listlab::MaintStats& base,
              ltree::listlab::MaintStats* moved) {
  moved->inserts += now.inserts - base.inserts;
  moved->rebalances += now.rebalances - base.rebalances;
  moved->relabel_passes += now.relabel_passes - base.relabel_passes;
  moved->nodes_allocated += now.nodes_allocated - base.nodes_allocated;
  moved->nodes_reused += now.nodes_reused - base.nodes_reused;
}

void ReportLabelCounters(const ltree::listlab::MaintStats& moved,
                         uint64_t edits, Report* report) {
  const double kinserts =
      static_cast<double>(std::max<uint64_t>(moved.inserts, 1)) / 1000.0;
  report->Set("listlab.rebalances_per_kinsert", moved.rebalances / kinserts,
              "count", moved.inserts);
  report->Set("listlab.relabel_passes_per_edit",
              static_cast<double>(moved.relabel_passes) /
                  static_cast<double>(std::max<uint64_t>(edits, 1)),
              "count", edits);
  report->Set("listlab.nodes_allocated_per_kinsert",
              moved.nodes_allocated / kinserts, "count", moved.inserts);
  report->Set("listlab.nodes_reused_per_kinsert",
              moved.nodes_reused / kinserts, "count", moved.inserts);
}

void FinishTrace(const Trace& trace, const EditClock& edit_clock,
                 const Options& options, Report* report) {
  report->Set("trace.edits_per_s_ratio", edit_clock.TracedOverUntraced(),
              "ratio", edit_clock.edits[1]);
  trace.Summarize(report);
  if (!options.spans_path.empty()) {
    report->Op(trace.WriteCsv(options.spans_path),
               "cannot write spans to " + options.spans_path);
  }
}

}  // namespace perfbench
