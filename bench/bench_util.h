#ifndef ASTREAM_BENCH_BENCH_UTIL_H_
#define ASTREAM_BENCH_BENCH_UTIL_H_

#include <cstdlib>
#include <functional>
#include <memory>
#include <string>

#include "common/logging.h"
#include "harness/astream_sut.h"
#include "harness/baseline_sut.h"
#include "harness/driver.h"
#include "harness/report.h"
#include "workload/query_generator.h"
#include "workload/scenario.h"

namespace astream::bench {

/// Shared scale-down notes printed by every figure bench. The paper ran on
/// a 4-/8-node cluster (16 cores each) for 1000 s; this harness runs on
/// one box for seconds. Shapes, not absolute numbers, are the target.
inline constexpr char kClusterScaling[] =
    "4-node cluster -> parallelism 2, 8-node -> parallelism 4; "
    "1000s runs -> ~2s; query rates x10 so ramps fit; "
    "1000 qp -> 200 qp; windows 400-1200ms; 1000 distinct keys";

/// Experiment seed: benches derive their generator seeds through this, so
/// `ASTREAM_SEED=<n>` re-rolls the whole suite in one move (distinct
/// per-bench streams survive — the env seed is mixed with the bench's own
/// fallback) while unset keeps the historical defaults bit-for-bit.
inline uint64_t BenchSeed(uint64_t fallback = 42) {
  const char* env = std::getenv("ASTREAM_SEED");
  if (env == nullptr || *env == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(env, &end, 10);
  if (end == env) return fallback;
  return static_cast<uint64_t>(v) ^ (fallback * 0x9e3779b97f4a7c15ULL);
}

/// Default generator configs used across the figure benches.
inline workload::QueryGenerator::Config BenchQueryConfig(bool sessions =
                                                             false) {
  workload::QueryGenerator::Config cfg;
  cfg.num_fields = 5;
  cfg.fields_max = 1000;
  cfg.window_min = 400;
  cfg.window_max = 1200;
  cfg.predicates_per_side = 1;
  cfg.session_probability = sessions ? 0.1 : 0.0;
  cfg.slide_min_frac = 0.3;  // bounds trigger density on one core
  return cfg;
}

inline workload::DataGenerator::Config BenchDataConfig() {
  workload::DataGenerator::Config cfg;
  cfg.key_max = 1000;  // the paper's 1000 distinct keys
  cfg.fields_max = 1000;
  cfg.num_fields = 5;
  return cfg;
}

/// Query factory for one query kind with a private generator.
inline std::function<core::QueryDescriptor()> QueryFactory(
    core::QueryKind kind, uint64_t seed, bool sessions = false) {
  auto gen = std::make_shared<workload::QueryGenerator>(
      BenchQueryConfig(sessions), BenchSeed(seed));
  return [gen, kind]() {
    switch (kind) {
      case core::QueryKind::kSelection:
        return gen->Selection();
      case core::QueryKind::kAggregation:
        return gen->Aggregation();
      case core::QueryKind::kJoin:
        return gen->Join();
      case core::QueryKind::kComplex:
        return gen->Complex(3);
      case core::QueryKind::kMultiJoin:
        return gen->Multiway(3);
    }
    return gen->Selection();
  };
}

inline std::unique_ptr<harness::AStreamSut> MakeAStream(
    core::AStreamJob::TopologyKind topology, int parallelism,
    bool measure_overhead = false, size_t batch_size = 1) {
  core::AStreamJob::Options options;
  options.topology = topology;
  options.parallelism = parallelism;
  options.threaded = true;
  options.measure_overhead = measure_overhead;
  options.channel_capacity = 2048;
  options.batch_size = batch_size;
  auto sut = std::make_unique<harness::AStreamSut>(options);
  return sut;
}

/// Parses a `--batch_size=N` argv knob (figure benches); 1 = element-at-
/// a-time.
inline size_t ParseBatchSize(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::string prefix = "--batch_size=";
    if (arg.rfind(prefix, 0) == 0) {
      const long v = std::strtol(arg.c_str() + prefix.size(), nullptr, 10);
      if (v > 0) return static_cast<size_t>(v);
    }
  }
  return 1;
}

inline std::unique_ptr<harness::BaselineSut> MakeFlink(
    int parallelism, TimestampMs deploy_cost_ms = 150) {
  harness::BaselineSut::Config cfg;
  cfg.parallelism = parallelism;
  cfg.threaded = true;
  cfg.deploy_cost_ms = deploy_cost_ms;
  auto sut = std::make_unique<harness::BaselineSut>(cfg);
  return sut;
}

/// Runs a scenario for `duration_ms` against a started SUT.
inline harness::Driver::Report RunScenario(
    harness::StreamSut* sut, workload::Scenario* scenario,
    std::function<core::QueryDescriptor()> factory, TimestampMs duration_ms,
    bool push_b, double rate = 0, TimestampMs sample_interval = 0,
    TimestampMs warmup_ms = 0, bool drain_at_end = true) {
  harness::Driver::Config cfg;
  cfg.duration_ms = duration_ms;
  cfg.data_rate_per_sec = rate;
  cfg.push_b = push_b;
  cfg.query_factory = std::move(factory);
  cfg.data = BenchDataConfig();
  cfg.seed = BenchSeed(cfg.seed);
  cfg.sample_interval_ms = sample_interval;
  cfg.warmup_ms = warmup_ms;
  cfg.drain_at_end = drain_at_end;
  harness::Driver driver(sut, scenario, cfg);
  return driver.Run();
}

/// Fixed-window single-query factory: one deterministic tumbling-window
/// query, identical for AStream and the baseline (fair overhead
/// comparison; the paper's single-query bars).
inline std::function<core::QueryDescriptor()> SingleQueryFactory(
    core::QueryKind kind) {
  return [kind]() {
    core::QueryDescriptor d;
    d.kind = kind;
    d.select_a = {core::Predicate{1, core::CmpOp::kLt, 700}};
    d.select_b = {core::Predicate{2, core::CmpOp::kGe, 300}};
    d.window = spe::WindowSpec::Tumbling(800);
    d.agg = {spe::AggKind::kSum, 1};
    d.join_depth = 1;
    return d;
  };
}

/// The paper's sustainability criterion: a system cannot sustain the
/// workload when its query deployment latency keeps growing (requests pile
/// up behind serialized job deployments) or internal queues blow up.
inline bool DeploymentLatencyGrows(const harness::Driver::Report& report) {
  const auto& ev = report.qos.deploy_acks;
  if (ev.size() < 6) return false;
  const size_t third = ev.size() / 3;
  double first = 0, last = 0;
  for (size_t i = 0; i < third; ++i) {
    first += static_cast<double>(ev[i].second);
    last += static_cast<double>(ev[ev.size() - 1 - i].second);
  }
  first /= third;
  last /= third;
  return last > 1500 && last > 3 * std::max(first, 1.0);
}

inline bool LooksSustainable(const harness::Driver::Report& report) {
  return report.sustainable && !DeploymentLatencyGrows(report);
}

inline core::AStreamJob::TopologyKind TopologyFor(core::QueryKind kind) {
  switch (kind) {
    case core::QueryKind::kAggregation:
      return core::AStreamJob::TopologyKind::kAggregation;
    case core::QueryKind::kJoin:
      return core::AStreamJob::TopologyKind::kJoin;
    case core::QueryKind::kComplex:
      return core::AStreamJob::TopologyKind::kComplex;
    case core::QueryKind::kSelection:
      return core::AStreamJob::TopologyKind::kAggregation;
    case core::QueryKind::kMultiJoin:
      return core::AStreamJob::TopologyKind::kMultiway;
  }
  return core::AStreamJob::TopologyKind::kAggregation;
}

inline const char* KindLabel(core::QueryKind kind) {
  return kind == core::QueryKind::kJoin ? "Join" : "Agg.";
}

/// Quiet logs during measurement loops.
inline void BenchInit() { Logger::SetLevel(LogLevel::kWarn); }

}  // namespace astream::bench

#endif  // ASTREAM_BENCH_BENCH_UTIL_H_
