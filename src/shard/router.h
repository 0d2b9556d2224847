#ifndef ASTREAM_SHARD_ROUTER_H_
#define ASTREAM_SHARD_ROUTER_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "common/callback_slot.h"
#include "shard/shard_plan.h"
#include "shard/shard_runtime.h"

namespace astream::shard {

/// Hash-partitioning ingress over N per-shard AStream runtimes: rows
/// route by key through the shard plan, watermarks broadcast, and
/// Submit/Cancel fan out to every shard — each shard's deterministic
/// session assigns the same query id, which the router asserts, so one
/// logical query exists on all shards under one id. Per-query outputs
/// merge into a single callback, filtered by current slot ownership (so a
/// freshly split shard pair, both restored from the full pre-split state,
/// emits every result exactly once). Metrics and operator stats merge into
/// one deployment-wide view; rows the ownership filter drops are counted
/// in `shard.egress_dropped`, so exactly-once output totals stay
/// recoverable from the merged metrics after a split.
///
/// Live resharding: MoveShard drains a shard to a (durably persistable)
/// checkpoint and rebuilds it; SplitShard drains one shard and restores
/// the checkpoint on TWO shards while the plan splits the slot range. The
/// remaining shards keep draining their ingress rings throughout; the
/// measured control-thread pause is reported via last_reshard_pause_ms().
///
/// Single control thread, like AStreamJob. Result callbacks arrive on
/// shard sink threads in threaded mode (shard pump threads, or engine
/// task threads with job.threaded); egress takes no lock per row.
class ShardRouter {
 public:
  static Result<std::unique_ptr<ShardRouter>> Create(JobConfig config);
  ~ShardRouter();

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  Status Start();

  core::PushResult Push(StreamId stream, TimestampMs event_time,
                        spe::Row row);
  void PushWatermark(TimestampMs watermark);

  /// Fans out to all shards. On a partial failure every already-applied
  /// shard is rolled back (the pending creation is dropped from its
  /// session batch) and ONE coherent status comes back — a query is never
  /// left half-registered. Divergent id assignment across shards is a
  /// consistency violation: rolled back and reported as Internal.
  ///
  /// With config.job.slo.enable_admission the router gates the fan-out
  /// through its own deployment-wide admission controller — reject-only
  /// (kAdmissionRejected): queueing would need a deployment-wide drain
  /// protocol, a documented single-job-only feature. Shards themselves
  /// run with admission stripped so the gate cannot double-fire.
  Result<core::QueryId> Submit(const core::QueryDescriptor& desc);
  /// Fans out to all shards. A validation failure on the first shard
  /// rejects cleanly (nothing applied anywhere); a divergent failure on a
  /// later shard poisons the router (Health() turns non-OK) because a
  /// buffered cancellation cannot be withdrawn.
  Status Cancel(core::QueryId id);

  int Pump(bool force = false);
  bool WaitForDeployment(TimestampMs timeout_ms = 10'000);

  /// Checkpoints every shard and waits for completion.
  Status Checkpoint();

  /// Drains `shard` to a checkpoint and rebuilds it (new generation,
  /// restored from the hand-off checkpoint). Ownership is unchanged.
  Status MoveShard(int shard);
  /// Drains `shard`, restores its checkpoint on itself AND a brand-new
  /// shard, and publishes a plan that splits the slot range between the
  /// two. Requires the shard to own >= 2 slots.
  Status SplitShard(int shard);
  /// Control-thread stall of the last Move/SplitShard, in wall ms.
  int64_t last_reshard_pause_ms() const {
    return last_reshard_pause_ms_.load(std::memory_order_relaxed);
  }

  /// Chaos hook: kill one shard's engine as a crash would.
  Status KillShard(int shard, const Status& why);

  Status FinishAndWait();
  Status Stop();
  Status Health() const;

  /// Replaceable at any time, also after Start(): each row reaches the
  /// callback current when its shard delivers it. A replaced callback
  /// stays allocated until the router is destroyed (one per call; see
  /// common/callback_slot.h).
  void SetResultCallback(core::AStreamJob::ResultCallback callback);

  /// Deployment-wide views.
  obs::MetricsRegistry::Snapshot MetricsSnapshot();
  core::AStreamJob::OperatorStats CollectStats() const;

  int num_shards() const { return static_cast<int>(shards_.size()); }
  std::shared_ptr<const ShardPlan> plan() const { return plan_; }
  /// Test access to one shard runtime.
  ShardRuntime* shard(int i) { return shards_[static_cast<size_t>(i)].get(); }

 private:
  explicit ShardRouter(JobConfig config);

  std::unique_ptr<ShardRuntime> MakeRuntime(
      int index, int generation,
      std::shared_ptr<const spe::CheckpointStore::Checkpoint> restore_from);
  /// Installs the merged, ownership-filtered result callback on a shard
  /// incarnation, bound to the current plan_. An incarnation's owned slots
  /// are fixed for its lifetime (a split or move rebuilds the runtime, and
  /// a split only moves slots between the two rebuilt halves), so its
  /// sink threads never read plan_. Publish the new plan first.
  void InstallCallback(ShardRuntime* runtime, int index);
  /// Drains `shard` to its hand-off checkpoint (nullptr on failure) and
  /// folds the drained incarnation's metrics into retired_metrics_.
  std::shared_ptr<const spe::CheckpointStore::Checkpoint> Drain(int shard);
  void Deliver(const ShardPlan& plan, int shard_index, core::QueryId id,
               const spe::Record& r);
  /// Drains every shard's ingress ring before a control fan-out so all
  /// shards stamp the operation at one consistent wall time.
  void QuiesceAll();
  void Poison(const Status& status);

  JobConfig config_;
  /// Deployment-wide admission gate (reject-only; see Submit). Its
  /// counters and `shard.egress_dropped` land in router_metrics_, merged
  /// into MetricsSnapshot().
  core::AdmissionController admission_;
  obs::MetricsRegistry router_metrics_;
  /// Rows the egress ownership filter dropped (null: metrics disabled).
  obs::Counter* egress_dropped_ = nullptr;
  /// Counters, histograms and per-query series of shard incarnations
  /// replaced by a move or split, so merged totals span the whole run.
  /// Gauges are left out: they describe live state.
  obs::MetricsRegistry::Snapshot retired_metrics_;
  std::vector<std::unique_ptr<ShardRuntime>> shards_;
  /// Bumped per index on every rebuild (durable dir uniqueness).
  std::vector<int> generations_;
  /// Ownership table, read and replaced by the control thread only (each
  /// shard's egress callback holds the plan it was installed with).
  std::shared_ptr<const ShardPlan> plan_;

  CallbackSlot<core::AStreamJob::ResultCallback> user_callback_;

  mutable std::mutex poison_mu_;
  Status poisoned_ = Status::OK();

  std::atomic<int64_t> last_reshard_pause_ms_{0};
  bool started_ = false;
};

}  // namespace astream::shard

#endif  // ASTREAM_SHARD_ROUTER_H_
