#ifndef ASTREAM_SHARD_CLIENT_H_
#define ASTREAM_SHARD_CLIENT_H_

#include <memory>

#include "shard/router.h"

namespace astream {

/// The unified client of a (possibly sharded) AStream deployment — the
/// single public entry point that replaces constructing AStreamJob
/// directly:
///
///   auto config = JobConfigBuilder(TopologyKind::kJoin)
///                     .Shards(4).ShardThreads(true).Build();
///   auto client = Client::Create(*config);      // eager validation
///   (*client)->Start();
///   (*client)->Push(StreamId::kA, t, {key, v}); // generic push
///   auto q = (*client)->Submit(desc);           // fans out, one id
///
/// With shards == 1 and shard_threads == false the client behaves
/// exactly like a lone AStreamJob (the router degenerates to a pass-
/// through); more shards scale the push path across per-shard ingress
/// rings and engines, with merged outputs/metrics and live resharding
/// (MoveShard/SplitShard) behind the same surface.
///
/// Single control thread, like AStreamJob. `Push(StreamId, ...)` is the
/// one data surface.
class Client {
 public:
  using TopologyKind = core::AStreamJob::TopologyKind;
  using ResultCallback = core::AStreamJob::ResultCallback;

  /// Validates eagerly (JobConfig::Validated) and builds the deployment;
  /// invalid configs never construct a client.
  static Result<std::unique_ptr<Client>> Create(JobConfig config);

  Status Start() { return router_->Start(); }

  /// Generic data input: one entry point for every external stream.
  core::PushResult Push(StreamId stream, TimestampMs event_time,
                        spe::Row row) {
    return router_->Push(stream, event_time, std::move(row));
  }
  void PushWatermark(TimestampMs watermark) {
    router_->PushWatermark(watermark);
  }

  Result<core::QueryId> Submit(const core::QueryDescriptor& desc) {
    return router_->Submit(desc);
  }
  Status Cancel(core::QueryId id) { return router_->Cancel(id); }
  int Pump(bool force = false) { return router_->Pump(force); }
  bool WaitForDeployment(TimestampMs timeout_ms = 10'000) {
    return router_->WaitForDeployment(timeout_ms);
  }

  Status Checkpoint() { return router_->Checkpoint(); }
  Status MoveShard(int shard) { return router_->MoveShard(shard); }
  Status SplitShard(int shard) { return router_->SplitShard(shard); }

  Status FinishAndWait() { return router_->FinishAndWait(); }
  Status Stop() { return router_->Stop(); }
  Status Health() const { return router_->Health(); }

  void SetResultCallback(ResultCallback callback) {
    router_->SetResultCallback(std::move(callback));
  }

  /// Deployment-wide observability, merged across shards and across the
  /// incarnations moves and splits replaced: per-query outputs
  /// (`records_emitted`, pre egress filter — subtract counter
  /// `shard.egress_dropped` for delivered totals), event-time and deploy
  /// latency histograms, named counters and gauges.
  obs::MetricsRegistry::Snapshot MetricsSnapshot() {
    return router_->MetricsSnapshot();
  }
  core::AStreamJob::OperatorStats CollectStats() const {
    return router_->CollectStats();
  }

  int num_shards() const { return router_->num_shards(); }
  int64_t last_reshard_pause_ms() const {
    return router_->last_reshard_pause_ms();
  }
  const JobConfig& config() const { return config_; }
  /// Escape hatch for tests and advanced callers.
  shard::ShardRouter* router() { return router_.get(); }

 private:
  Client(JobConfig config, std::unique_ptr<shard::ShardRouter> router)
      : config_(std::move(config)), router_(std::move(router)) {}

  JobConfig config_;
  std::unique_ptr<shard::ShardRouter> router_;
};

}  // namespace astream

#endif  // ASTREAM_SHARD_CLIENT_H_
