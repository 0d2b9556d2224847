// Reproduces Figure 11: ad-hoc query deployment latencies for SC1 across
// join/aggregation workloads and cluster sizes.
//
// Paper anchors: AStream single query ~5-10 s (first physical deployment),
// Flink single query similar; AStream "1 q/s 20 qp" has HIGHER latency
// than "100 q/s 1000 qp" because the former generates 20 changelogs while
// the latter batches 100 requests per changelog (10 changelogs total).

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
  TimestampMs duration_ms;
};

void Run() {
  harness::PrintBanner(
      "Figure 11 — SC1 ad-hoc query deployment latency",
      "Mean deployment latency per configuration. Note the paper's "
      "batching effect: few queries per changelog => more changelogs => "
      "higher average latency than large batched bursts.",
      std::string(kClusterScaling) + "; session batch-size 100, timeout 1s");

  const Config configs[] = {
      {"AStream, single query", true, 50, 1, 1500},
      {"Flink, single query", false, 50, 1, 1500},
      {"AStream, 1q/s 20qp", true, 10, 20, 3000},
      {"AStream, 10q/s 60qp", true, 60, 60, 2000},
      {"AStream, 100q/s 1000qp*", true, 400, 0, 2000},
  };

  for (QueryKind kind : {QueryKind::kJoin, QueryKind::kAggregation}) {
    for (int par : {2, 4}) {
      harness::Table table(
          {"config", "mean deploy latency", "p95", "max", "changelogs"});
      for (const Config& cfg : configs) {
        size_t max_qp = cfg.max_qp;
        if (max_qp == 0) max_qp = kind == QueryKind::kJoin ? 60 : 200;
        std::unique_ptr<harness::StreamSut> sut;
        if (cfg.astream) {
          sut = MakeAStream(TopologyFor(kind), par);
        } else {
          sut = MakeFlink(par);
        }
        if (!sut->Start().ok()) continue;
        workload::Sc1Scenario scenario(cfg.rate_qps, max_qp);
        auto factory = max_qp == 1 ? SingleQueryFactory(kind)
                                   : QueryFactory(kind, 11);
        // Bounded join rate + no drain: the metric here is deployment
        // latency, not output volume.
        const double rate = kind == QueryKind::kJoin ? 150'000 : 0;
        const auto report = RunScenario(
            sut.get(), &scenario, std::move(factory), cfg.duration_ms,
            kind == QueryKind::kJoin, rate, /*sample=*/0, /*warmup=*/0,
            /*drain_at_end=*/false);
        const obs::Histogram::Snapshot lat = report.qos.DeployLatency();
        // Changelog count approximation: one ack burst per epoch.
        std::string changelogs = "-";
        if (cfg.astream) {
          auto* as = static_cast<harness::AStreamSut*>(sut.get());
          changelogs = std::to_string(as->job()->session().last_epoch());
        }
        table.AddRow({cfg.label, harness::FormatMs(lat.mean()),
                      harness::FormatMs(lat.Percentile(95)),
                      harness::FormatMs(static_cast<double>(lat.max)),
                      changelogs});
        sut->Stop();
      }
      std::printf("%s queries, %s cluster:\n", KindLabel(kind),
                  par == 2 ? "4-node" : "8-node");
      table.Print();
      std::printf("\n");
    }
  }
  std::printf(
      "Expected shape vs. paper (Fig. 11): AStream's mean latency is "
      "driven by changelog batching (batch timeout 1s); bursty submission "
      "(100q/s) amortizes to fewer changelogs and lower means than slow "
      "drips (1q/s).\n");
}

}  // namespace
}  // namespace astream::bench

int main() {
  astream::bench::BenchInit();
  astream::bench::Run();
  return 0;
}
