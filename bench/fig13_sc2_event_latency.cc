// Reproduces Figure 13: average event-time latency for SC2 (fluctuating
// workload: n queries created AND deleted every m seconds).
//
// Paper anchors: SC2 latencies (~0.3-2.5 s) are LOWER than SC1's because
// queries are short-running, so the number of concurrently active queries
// stays small.

#include <cstdio>

#include "bench/bench_util.h"

namespace astream::bench {
namespace {

using core::QueryKind;

void Run() {
  harness::PrintBanner(
      "Figure 13 — SC2 average event-time latency",
      "'n q/m s' = n queries submitted and n stopped every m seconds.",
      std::string(kClusterScaling) +
          "; n q/10s -> n q/1s (time scale /10); data rate 50K/s");

  for (QueryKind kind : {QueryKind::kJoin, QueryKind::kAggregation}) {
    for (int par : {2, 4}) {
      harness::Table table(
          {"config", "mean event-time latency", "p95", "outputs"});
      for (size_t batch : {10u, 30u, 50u}) {
        auto sut = MakeAStream(TopologyFor(kind), par);
        if (!sut->Start().ok()) continue;
        workload::Sc2Scenario scenario(batch, /*period_ms=*/1000);
        const auto report = RunScenario(
            sut.get(), &scenario, QueryFactory(kind, 13),
            /*duration_ms=*/3000, kind == QueryKind::kJoin,
            /*rate=*/50'000, /*sample=*/0, /*warmup=*/0,
            /*drain_at_end=*/false);
        const obs::Histogram::Snapshot lat = report.qos.EventLatency();
        table.AddRow({"AStream, " + std::to_string(batch) + "q/10s",
                      harness::FormatMs(lat.mean()),
                      harness::FormatMs(lat.Percentile(95)),
                      harness::FormatCount(
                          static_cast<double>(lat.count))});
        sut->Stop();
      }
      std::printf("%s queries, %s cluster:\n", KindLabel(kind),
                  par == 2 ? "4-node" : "8-node");
      table.Print();
      std::printf("\n");
    }
  }
  std::printf(
      "Expected shape vs. paper (Fig. 13): latencies below the SC1 values "
      "of Fig. 12 at comparable churn, because SC2 queries are "
      "short-running and the active set stays small.\n");
}

}  // namespace
}  // namespace astream::bench

int main() {
  astream::bench::BenchInit();
  astream::bench::Run();
  return 0;
}
