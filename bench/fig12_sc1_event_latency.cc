// Reproduces Figure 12: average event-time latency for SC1.
//
// Paper anchors: AStream single query has the lowest latency; latency
// increases with query parallelism but stays sustainable (~1.2 s average
// at 100 q/s 1000 qp); aggregation latency < join latency (joins are more
// expensive); Flink's latency under ad-hoc load exceeds 8 s and keeps
// growing (unsustainable).

#include <cstdio>

#include "bench/bench_util.h"

namespace astream::bench {
namespace {

using core::QueryKind;

struct Config {
  const char* label;
  bool astream;
  double rate_qps;
  size_t max_qp;
};

void Run(size_t batch_size) {
  harness::PrintBanner(
      "Figure 12 — SC1 average event-time latency",
      "Event-time latency = result emission wall time minus tuple event "
      "time (includes queueing + window residence).",
      std::string(kClusterScaling) +
          "; data rate fixed at 50K tuples/s so latency is comparable");
  std::printf("data-plane batch size: %zu%s\n\n", batch_size,
              batch_size == 1 ? " (element-at-a-time)" : "");

  for (QueryKind kind : {QueryKind::kJoin, QueryKind::kAggregation}) {
    for (int par : {2, 4}) {
      harness::Table table({"config", "mean event-time latency", "p50",
                            "p95", "p99", "outputs"});
      const Config configs[] = {
          {"AStream, single query", true, 50, 1},
          {"Flink, single query", false, 50, 1},
          {"AStream, 1q/s 20qp", true, 10, 20},
          {"AStream, 10q/s 60qp", true, 60, 60},
          {"AStream, 100q/s 1000qp*", true, 400, 0},
      };
      obs::MetricsRegistry::Snapshot query_metrics;
      for (const Config& cfg : configs) {
        size_t max_qp = cfg.max_qp;
        if (max_qp == 0) max_qp = kind == QueryKind::kJoin ? 40 : 150;
        std::unique_ptr<harness::StreamSut> sut;
        if (cfg.astream) {
          sut = MakeAStream(TopologyFor(kind), par,
                            /*measure_overhead=*/false, batch_size);
        } else {
          sut = MakeFlink(par);
        }
        if (!sut->Start().ok()) continue;
        workload::Sc1Scenario scenario(cfg.rate_qps, max_qp);
        auto factory = max_qp == 1 ? SingleQueryFactory(kind)
                                   : QueryFactory(kind, 5);
        // No end-of-stream drain: the final flush emits windows whose
        // end lies beyond the last wall time (their latency would be
        // negative); only in-run emissions are representative.
        const auto report = RunScenario(
            sut.get(), &scenario, std::move(factory), /*duration_ms=*/2800,
            kind == QueryKind::kJoin, /*rate=*/50'000, /*sample=*/0,
            /*warmup=*/0, /*drain_at_end=*/false);
        const obs::Histogram::Snapshot lat = report.qos.EventLatency();
        table.AddRow({cfg.label, harness::FormatMs(lat.mean()),
                      harness::FormatMs(lat.Percentile(50)),
                      harness::FormatMs(lat.Percentile(95)),
                      harness::FormatMs(lat.Percentile(99)),
                      harness::FormatCount(
                          static_cast<double>(lat.count))});
        if (auto* astream = dynamic_cast<harness::AStreamSut*>(sut.get());
            astream != nullptr && max_qp > 1) {
          // Keep the busiest multi-query run's per-query histograms for
          // the drill-down table below.
          query_metrics = astream->job()->MetricsSnapshot();
        }
        sut->Stop();
      }
      std::printf("%s queries, %s cluster:\n", KindLabel(kind),
                  par == 2 ? "4-node" : "8-node");
      table.Print();
      std::printf(
          "per-query drill-down (busiest run, event-time latency from "
          "the metrics registry):\n");
      harness::PrintQueryMetricsTable(query_metrics, /*max_rows=*/6);
      std::printf(
          "data-plane drill-down (per-edge delivered batch sizes and "
          "end-of-run queue depths):\n");
      harness::PrintDataPlaneTable(query_metrics);
      std::printf("\n");
    }
  }
  std::printf(
      "Expected shape vs. paper (Fig. 12): latency grows with query "
      "parallelism; aggregation < join; all AStream configurations stay "
      "bounded (sustainable), unlike Flink under ad-hoc load.\n");
}

}  // namespace
}  // namespace astream::bench

int main(int argc, char** argv) {
  astream::bench::BenchInit();
  astream::bench::Run(astream::bench::ParseBatchSize(argc, argv));
  return 0;
}
