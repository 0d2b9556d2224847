// Crash-recovery latency vs checkpoint interval: one injected operator
// crash mid-run under a supervised job; we measure the supervisor's
// detection -> restored latency and the number of source-log rows replayed
// for each checkpoint cadence. Expectation: replay volume grows with the
// checkpoint interval (the log tail since the last complete checkpoint),
// and recovery latency follows it.

#include <chrono>
#include <cstdio>
#include <thread>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "fault/injector.h"
#include "harness/supervised_job.h"

namespace astream::bench {
namespace {

using core::AStreamJob;
using core::CmpOp;
using core::Predicate;
using core::QueryDescriptor;
using core::QueryKind;
using spe::Row;

struct Outcome {
  int64_t recoveries = 0;
  int64_t replayed_rows = 0;
  double latency_ms = 0;  // mean supervisor detection -> restored
  int64_t checkpoints = 0;
};

Outcome RunOnce(int checkpoint_interval, int num_records) {
  fault::FaultInjector injector(17);
  fault::FaultInjector::Rule crash;
  crash.point = fault::FaultPoint::kOperatorProcess;
  crash.action = fault::FaultAction::kThrow;
  crash.after_hits = 4000;  // one mid-run crash, same spot for every cadence
  injector.AddRule(crash);
  fault::ScopedFaultInjection scoped(&injector);

  ManualClock clock;
  harness::SupervisedJob::Options options;
  options.job.topology = AStreamJob::TopologyKind::kJoin;
  options.job.parallelism = 1;
  options.job.threaded = true;
  options.job.clock = &clock;
  options.job.session.batch_size = 1;
  options.pin_clock = [&clock](TimestampMs ms) { clock.SetMs(ms); };
  options.supervisor.backoff_initial_ms = 1;
  options.supervisor.backoff_max_ms = 8;

  harness::SupervisedJob job(options);
  if (!job.Start().ok()) return {};
  QueryDescriptor join;
  join.kind = QueryKind::kJoin;
  join.window = spe::WindowSpec::Sliding(80, 40);
  join.select_a = {Predicate{1, CmpOp::kLt, 90}};
  QueryDescriptor selection;
  selection.kind = QueryKind::kSelection;
  selection.select_a = {Predicate{1, CmpOp::kGt, 20}};
  for (int i = 0; i < 2; ++i) {
    clock.SetMs(0);
    if (!job.Submit(join).ok() || !job.Submit(selection).ok()) return {};
  }

  // Paced source: keep the pipeline roughly caught up so the replay
  // volume reflects the checkpoint cadence, not producer-side backlog
  // (an unpaced producer can be thousands of records ahead of the
  // barriers, which would swamp the interval effect we measure here).
  auto pace = [&job] {
    for (int spin = 0; spin < 2000; ++spin) {
      size_t queued = 0;
      for (const auto& s : job.job()->TaskHealth()) queued += s.queued;
      if (queued < 16) return;
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  };

  Rng rng(99);
  Outcome outcome;
  TimestampMs t = 1;
  for (int i = 0; i < num_records; ++i) {
    t += rng.UniformInt(1, 3);
    clock.SetMs(t);
    const Row row{rng.UniformInt(0, 6), rng.UniformInt(0, 99)};
    if (rng.Bernoulli(0.5)) {
      job.Push(1, t, row);
    } else {
      job.Push(0, t, row);
    }
    if (i % 20 == 19) {
      job.PushWatermark(t);
      pace();
    }
    if (i % checkpoint_interval == checkpoint_interval - 1) {
      pace();
      if (job.Checkpoint() > 0) ++outcome.checkpoints;
    }
  }
  if (!job.FinishAndWait().ok()) return {};

  outcome.recoveries = job.recoveries();
  outcome.replayed_rows = job.replayed_rows();
  const auto metrics = job.job()->MetricsSnapshot();
  const auto it = metrics.histograms.find("recovery.latency_ms");
  if (it != metrics.histograms.end() && it->second.count > 0) {
    outcome.latency_ms = static_cast<double>(it->second.sum) /
                         static_cast<double>(it->second.count);
  }
  return outcome;
}

void Run() {
  harness::PrintBanner(
      "micro_recovery — crash-recovery latency vs checkpoint interval",
      "One injected operator crash (seeded, hit-deterministic) per run; "
      "supervised restart restores the latest complete checkpoint and "
      "replays the source-log tail. Latency is the supervisor's "
      "detection -> restored wall time.",
      "threaded join topology, parallelism 1, 4 standing queries, "
      "2000 records");
  const int kRecords = 2000;
  harness::Table table({"checkpoint interval (records)", "checkpoints",
                        "recoveries", "replayed rows", "recovery ms"});
  for (int interval : {25, 50, 100, 200, 400}) {
    const Outcome o = RunOnce(interval, kRecords);
    char latency[32];
    std::snprintf(latency, sizeof(latency), "%.1f", o.latency_ms);
    table.AddRow({std::to_string(interval), std::to_string(o.checkpoints),
                  std::to_string(o.recoveries),
                  std::to_string(o.replayed_rows), latency});
  }
  table.Print();
}

}  // namespace
}  // namespace astream::bench

int main() {
  astream::bench::Run();
  return 0;
}
