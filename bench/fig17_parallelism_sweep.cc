// Reproduces Figure 17: slowest data throughput vs. query parallelism
// (log-log) for SC1.
//
// Paper anchors: throughput declines with query count, but the slope
// flattens: with more queries, the probability that a tuple is shared by
// several queries grows, so each additional query costs less.

#include <cstdio>

#include "bench/bench_util.h"

namespace astream::bench {
namespace {

using core::QueryKind;

void Run(size_t batch_size) {
  harness::PrintBanner(
      "Figure 17 — slowest data throughput vs. query parallelism (SC1)",
      "Log-spaced sweep of concurrently active queries.",
      std::string(kClusterScaling) + "; sweep 1..128 instead of 1..1000");
  std::printf("data plane: batch_size=%zu\n\n", batch_size);

  for (QueryKind kind : {QueryKind::kJoin, QueryKind::kAggregation}) {
    for (int par : {2, 4}) {
      harness::Table table({"query parallelism", "slowest tput/s",
                            "tput x qp (overall)", "decline vs prev"});
      double prev = 0;
      for (size_t qp : {1u, 4u, 16u, 64u, 128u}) {
        auto sut = MakeAStream(TopologyFor(kind), par,
                               /*measure_overhead=*/false, batch_size);
        if (!sut->Start().ok()) continue;
        workload::Sc1Scenario scenario(/*rate_per_sec=*/400, qp);
        const double rate = kind == QueryKind::kJoin ? 250'000 : 0;
        const auto report = RunScenario(
            sut.get(), &scenario, QueryFactory(kind, 29),
            /*duration_ms=*/2400, kind == QueryKind::kJoin,
            rate, /*sample=*/0, /*warmup=*/1000,
            /*drain_at_end=*/false);
        const double tput = report.input_rate_per_sec;
        std::string decline = "-";
        if (prev > 0 && tput > 0) {
          decline = harness::FormatDouble(prev / tput, 2) + "x";
        }
        table.AddRow({std::to_string(qp), harness::FormatCount(tput),
                      harness::FormatCount(tput * static_cast<double>(qp)),
                      decline});
        prev = tput;
        sut->Stop();
      }
      std::printf("%s, %s cluster:\n", KindLabel(kind),
                  par == 2 ? "4-node" : "8-node");
      table.Print();
      std::printf("\n");
    }
  }
  std::printf(
      "Expected shape vs. paper (Fig. 17): monotone decline whose "
      "per-step factor shrinks as qp grows (sharing probability rises), "
      "while overall throughput (tput x qp) keeps growing.\n");
}

}  // namespace
}  // namespace astream::bench

int main(int argc, char** argv) {
  astream::bench::BenchInit();
  astream::bench::Run(astream::bench::ParseBatchSize(argc, argv));
  return 0;
}
