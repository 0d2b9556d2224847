// Reproduces Figure 15: ad-hoc query deployment latency for SC2.
//
// Paper anchors: SC2 deployment latency (~20-100 s over a 1000 s run) is
// significantly HIGHER than SC1's because queries are continuously created
// and deleted, so changelogs are generated continuously for the whole run.

#include <cstdio>

#include "bench/bench_util.h"

namespace astream::bench {
namespace {

using core::QueryKind;

void Run() {
  harness::PrintBanner(
      "Figure 15 — SC2 ad-hoc query deployment latency",
      "Continuous create+delete churn generates changelogs for the whole "
      "run, unlike SC1 which stops at its target parallelism.",
      kClusterScaling);

  for (QueryKind kind : {QueryKind::kJoin, QueryKind::kAggregation}) {
    for (int par : {2, 4}) {
      harness::Table table(
          {"config", "mean deploy latency", "p95", "max", "acked requests"});
      for (size_t batch : {10u, 30u, 50u}) {
        auto sut = MakeAStream(TopologyFor(kind), par);
        if (!sut->Start().ok()) continue;
        workload::Sc2Scenario scenario(batch, /*period_ms=*/1000);
        const double rate = kind == QueryKind::kJoin ? 150'000 : 0;
        const auto report = RunScenario(
            sut.get(), &scenario, QueryFactory(kind, 19),
            /*duration_ms=*/3000, kind == QueryKind::kJoin, rate,
            /*sample=*/0, /*warmup=*/0, /*drain_at_end=*/false);
        const obs::Histogram::Snapshot lat = report.qos.DeployLatency();
        table.AddRow({"AStream, " + std::to_string(batch) + "q/10s",
                      harness::FormatMs(lat.mean()),
                      harness::FormatMs(lat.Percentile(95)),
                      harness::FormatMs(static_cast<double>(lat.max)),
                      std::to_string(lat.count)});
        sut->Stop();
      }
      std::printf("%s queries, %s cluster:\n", KindLabel(kind),
                  par == 2 ? "4-node" : "8-node");
      table.Print();
      std::printf("\n");
    }
  }
  std::printf(
      "Expected shape vs. paper (Fig. 15): deployment latencies exceed the "
      "SC1 values of Fig. 11 — continuous churn means continuous "
      "changelog generation and batching delay on every request.\n");
}

}  // namespace
}  // namespace astream::bench

int main() {
  astream::bench::BenchInit();
  astream::bench::Run();
  return 0;
}
