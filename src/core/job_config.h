#ifndef ASTREAM_CORE_JOB_CONFIG_H_
#define ASTREAM_CORE_JOB_CONFIG_H_

#include <functional>
#include <string>
#include <utility>

#include "core/astream.h"
#include "spe/supervisor.h"

namespace astream {

/// External input stream of a job: `Client::Push(StreamId::kA, t, row)`
/// is the one data surface, down to `AStreamJob::Push(int stream, ...)`.
/// Streams kC..kE exist only on kMultiway topologies
/// (Options::num_streams).
enum class StreamId : int { kA = 0, kB = 1, kC = 2, kD = 3, kE = 4 };

/// One validated configuration for a whole deployment: the per-shard
/// engine options (core::AStreamJob::Options, which already embeds the
/// storage budget knobs), plus the shard/router layer on top. Invalid
/// configs fail at construction — `Validated()` / `JobConfigBuilder::
/// Build()` return Result<JobConfig>, mirroring QueryBuilder's eager
/// validation — so a bad knob can never surface mid-run.
struct JobConfig {
  /// Per-shard engine options (topology, parallelism, session batching,
  /// runner mode, storage budget, ...). Every shard runs an identical
  /// copy; per-shard checkpoint stores/ids are managed by the runtime.
  core::AStreamJob::Options job;

  /// Number of key-sharded AStreamJob runtimes behind the router.
  int shards = 1;
  /// Hash-slot count of the shard plan (ownership granularity for live
  /// resharding). Must be >= shards; slot assignment of a key does not
  /// depend on the shard count, only slot->owner changes on reshard.
  int slots = 64;
  /// Route each shard's ingress through a lock-free SPSC ring drained by
  /// a per-shard pump thread (retires the mutex MPMC channel from the
  /// push path). Off: pushes apply inline on the control thread, which
  /// keeps runs deterministic for tests.
  bool shard_threads = false;
  /// Capacity of each shard's ingress ring (power of two).
  size_t ingress_capacity = 1024;

  /// Wrap every shard in a harness::SupervisedJob (source log + output
  /// dedup + supervised crash recovery). Required for kill-one-shard
  /// fault tolerance and for durable resharding hand-off.
  bool supervised = false;
  /// Non-empty: per-shard durable checkpoint directories are created
  /// under `<state_dir>/shard-<i>.g<gen>` and resharding hands state over
  /// via the PR 5 run-file format. Requires `supervised`.
  std::string state_dir;
  /// Supervisor restart/backoff policy for supervised shards.
  spe::Supervisor::Options supervisor;
  /// Start the per-shard watchdog thread (see SupervisedJob::Options).
  bool start_watchdog = false;
  /// Re-pins the clock during supervised replay (tests: ManualClock).
  std::function<void(TimestampMs)> pin_clock;

  /// Eagerly validates `config` and returns it, or the first violation.
  static Result<JobConfig> Validated(JobConfig config);
};

/// Validation shared by JobConfig and AStreamJob::Create: every engine
/// option with a constrained domain is checked here, in one place.
Status ValidateJobOptions(const core::AStreamJob::Options& options);

/// Fluent construction mirroring core::QueryBuilder: chain setters, then
/// Build() validates eagerly and returns Result<JobConfig>.
///
///   auto config = JobConfigBuilder(AStreamJob::TopologyKind::kJoin)
///                     .Shards(4)
///                     .ShardThreads(true)
///                     .Build();
class JobConfigBuilder {
 public:
  explicit JobConfigBuilder(
      core::AStreamJob::TopologyKind topology =
          core::AStreamJob::TopologyKind::kAggregation) {
    config_.job.topology = topology;
  }
  explicit JobConfigBuilder(JobConfig seed) : config_(std::move(seed)) {}

  JobConfigBuilder& Topology(core::AStreamJob::TopologyKind kind) {
    config_.job.topology = kind;
    return *this;
  }
  JobConfigBuilder& Parallelism(int parallelism) {
    config_.job.parallelism = parallelism;
    return *this;
  }
  /// Number of external input streams (kMultiway topologies, 2..5).
  JobConfigBuilder& NumStreams(int num_streams) {
    config_.job.num_streams = num_streams;
    return *this;
  }
  JobConfigBuilder& Threaded(bool threaded) {
    config_.job.threaded = threaded;
    return *this;
  }
  JobConfigBuilder& BatchSize(size_t batch_size) {
    config_.job.batch_size = batch_size;
    return *this;
  }
  JobConfigBuilder& SessionBatch(size_t batch_size,
                                 TimestampMs max_timeout_ms) {
    config_.job.session.batch_size = batch_size;
    config_.job.session.max_timeout_ms = max_timeout_ms;
    return *this;
  }
  JobConfigBuilder& MaxJoinStages(int stages) {
    config_.job.max_join_stages = stages;
    return *this;
  }
  JobConfigBuilder& Clock(astream::Clock* clock) {
    config_.job.clock = clock;
    return *this;
  }
  JobConfigBuilder& MemoryBudget(int64_t bytes) {
    config_.job.storage.memory_budget_bytes = bytes;
    return *this;
  }
  /// Storage engine v2 knobs (DESIGN.md §13); only meaningful budgeted.
  JobConfigBuilder& CompressSpill(bool on) {
    config_.job.storage.compress_spill = on;
    return *this;
  }
  JobConfigBuilder& Compaction(bool on) {
    config_.job.storage.compaction = on;
    return *this;
  }
  JobConfigBuilder& AccessAwareEviction(bool on) {
    config_.job.storage.access_aware_eviction = on;
    return *this;
  }
  /// Cross-window state sharing (DESIGN.md §12). Off = the per-query-store
  /// reference mode; outputs are byte-identical either way.
  JobConfigBuilder& ShareArrangements(bool on) {
    config_.job.share_arrangements = on;
    return *this;
  }
  /// Per-query isolation (DESIGN.md §14) -----------------------------------
  /// Full SLO policy in one go (admission, de-sharing, cost caps).
  JobConfigBuilder& Slo(core::SloOptions slo) {
    config_.job.slo = slo;
    return *this;
  }
  /// Gate Submit through admission control (implies cost metering).
  JobConfigBuilder& AdmissionControl(bool on) {
    config_.job.slo.enable_admission = on;
    return *this;
  }
  /// Fleet p99 event-latency target (ms); 0 disables the latency gate.
  JobConfigBuilder& P99TargetMs(int64_t target_ms) {
    config_.job.slo.p99_event_latency_ms = target_ms;
    return *this;
  }
  /// Hard cap on concurrently admitted queries (0 = unlimited).
  JobConfigBuilder& MaxActiveQueries(size_t max_active) {
    config_.job.slo.max_active_queries = max_active;
    return *this;
  }
  /// Reject any single query predicted costlier than this (0 = off).
  JobConfigBuilder& MaxPredictedCost(double max_cost) {
    config_.job.slo.max_predicted_cost = max_cost;
    return *this;
  }
  /// Whale de-sharing (requires AdmissionControl(true)).
  JobConfigBuilder& Desharing(bool on) {
    config_.job.slo.enable_desharing = on;
    return *this;
  }
  /// Per-query cost metering without admission enforcement.
  JobConfigBuilder& MeterCosts(bool on) {
    config_.job.meter_costs = on;
    return *this;
  }
  JobConfigBuilder& Shards(int shards) {
    config_.shards = shards;
    return *this;
  }
  JobConfigBuilder& Slots(int slots) {
    config_.slots = slots;
    return *this;
  }
  JobConfigBuilder& ShardThreads(bool on) {
    config_.shard_threads = on;
    return *this;
  }
  JobConfigBuilder& IngressCapacity(size_t capacity) {
    config_.ingress_capacity = capacity;
    return *this;
  }
  JobConfigBuilder& Supervised(bool on) {
    config_.supervised = on;
    return *this;
  }
  JobConfigBuilder& StateDir(std::string dir) {
    config_.state_dir = std::move(dir);
    return *this;
  }

  /// Direct access for knobs without a dedicated setter.
  JobConfig& mutable_config() { return config_; }

  Result<JobConfig> Build() && {
    return JobConfig::Validated(std::move(config_));
  }
  Result<JobConfig> Build() const& {
    return JobConfig::Validated(config_);
  }

 private:
  JobConfig config_;
};

}  // namespace astream

#endif  // ASTREAM_CORE_JOB_CONFIG_H_
