// Reproduces Figure 10: per-query deployment latency over time when one
// query per second is submitted, up to 20 queries, Flink vs. AStream.
//
// Paper anchors: Flink's latency grows roughly linearly (up to ~80 s; the
// sum over 20 queries is 910 s) because every deployment is a serialized
// full job submission. AStream stays low (~1-7 s — the first deployment
// pays topology deployment, later ones only batching latency).

#include <cstdio>

#include "bench/bench_util.h"

namespace astream::bench {
namespace {

void RunOne(const char* label, harness::StreamSut* sut) {
  if (!sut->Start().ok()) return;
  workload::Sc1Scenario scenario(/*rate_per_sec=*/10, /*max_parallel=*/20);
  const auto report = RunScenario(
      sut, &scenario, QueryFactory(core::QueryKind::kJoin, 7),
      /*duration_ms=*/3500, /*push_b=*/true, /*rate=*/150'000,
      /*sample=*/0, /*warmup=*/0, /*drain_at_end=*/false);
  sut->Stop();

  std::printf("%s — deployment latency per query (submission order):\n",
              label);
  harness::Table table({"query #", "deployment latency"});
  TimestampMs total = 0;
  int index = 1;
  for (const auto& [id, latency] : report.qos.deploy_acks) {
    table.AddRow({std::to_string(index++), harness::FormatMs(
                                               static_cast<double>(latency))});
    total += latency;
  }
  table.Print();
  std::printf("sum of deployment latencies: %s (paper: Flink 910s)\n\n",
              harness::FormatMs(static_cast<double>(total)).c_str());
}

void Run() {
  harness::PrintBanner(
      "Figure 10 — query deployment latency timeline (1 q/s, up to 20)",
      "Per-query deployment latency in submission order; Flink latencies "
      "grow (serialized job deployments), AStream stays flat.",
      std::string(kClusterScaling) +
          "; 1 q/s -> 10 q/s over 3.5s; Flink deploy cost 150ms/job");

  auto flink = MakeFlink(2);
  RunOne("Flink (query-at-a-time)", flink.get());

  auto astream = MakeAStream(core::AStreamJob::TopologyKind::kJoin, 2);
  RunOne("AStream", astream.get());

  std::printf(
      "Expected shape vs. paper (Fig. 10): Flink per-query latency climbs "
      "steadily as requests queue behind serialized deployments; AStream "
      "latencies are dominated by changelog batching and stay bounded.\n");
}

}  // namespace
}  // namespace astream::bench

int main() {
  astream::bench::BenchInit();
  astream::bench::Run();
  return 0;
}
