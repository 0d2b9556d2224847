#include "harness/sut.h"

namespace astream::harness {

QosView QosView::Of(const obs::MetricsRegistry& metrics,
                    const obs::TraceSink& trace) {
  QosView view;
  view.metrics = metrics.TakeSnapshot();
  for (const obs::TraceEvent& e : trace.Events()) {
    if (e.kind == obs::TraceEventKind::kDeployAck) {
      view.deploy_acks.emplace_back(e.query, e.detail);
    }
  }
  return view;
}

obs::Histogram::Snapshot QosView::DeployLatency() const {
  const auto it = metrics.histograms.find("job.deploy_latency_ms");
  return it == metrics.histograms.end() ? obs::Histogram::Snapshot{}
                                        : it->second;
}

int64_t QosView::TotalOutputs() const {
  int64_t total = 0;
  for (const auto& [id, q] : metrics.queries) total += q.records_emitted;
  return total;
}

int64_t QosView::OutputsOf(core::QueryId id) const {
  const auto it = metrics.queries.find(id);
  return it == metrics.queries.end() ? 0 : it->second.records_emitted;
}

}  // namespace astream::harness
