#include "shard/router.h"

#include <chrono>
#include <string>
#include <utility>

#include "common/logging.h"

namespace astream::shard {

namespace {

int64_t SteadyNowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

ShardRouter::ShardRouter(JobConfig config)
    : config_(std::move(config)),
      admission_(config_.job.slo),
      router_metrics_(config_.job.enable_metrics) {
  if (router_metrics_.enabled()) {
    egress_dropped_ = router_metrics_.GetCounter("shard.egress_dropped");
  }
  plan_ = std::make_shared<const ShardPlan>(
      ShardPlan::Uniform(config_.shards, config_.slots));
  generations_.assign(static_cast<size_t>(config_.shards), 0);
}

ShardRouter::~ShardRouter() { Stop(); }

Result<std::unique_ptr<ShardRouter>> ShardRouter::Create(JobConfig config) {
  ASTREAM_ASSIGN_OR_RETURN(config, JobConfig::Validated(std::move(config)));
  return std::unique_ptr<ShardRouter>(new ShardRouter(std::move(config)));
}

Status ShardRouter::Start() {
  if (started_) return Status::FailedPrecondition("already started");
  for (int i = 0; i < config_.shards; ++i) {
    auto runtime = MakeRuntime(i, 0, nullptr);
    ASTREAM_RETURN_IF_ERROR(runtime->Start());
    InstallCallback(runtime.get(), i);
    shards_.push_back(std::move(runtime));
  }
  started_ = true;
  return Status::OK();
}

std::unique_ptr<ShardRuntime> ShardRouter::MakeRuntime(
    int index, int generation,
    std::shared_ptr<const spe::CheckpointStore::Checkpoint> restore_from) {
  ShardRuntime::Options opts;
  opts.index = index;
  opts.generation = generation;
  opts.config = config_;
  // Admission is enforced once, at the router: a shard-local gate could
  // reject on one shard and admit on another, leaving the deployment
  // half-registered. Per-query cost metering stays on in the shards (the
  // merged snapshot carries the series).
  opts.config.job.slo = core::SloOptions{};
  opts.restore_from = std::move(restore_from);
  return std::make_unique<ShardRuntime>(std::move(opts));
}

void ShardRouter::InstallCallback(ShardRuntime* runtime, int index) {
  runtime->SetResultCallback(
      [this, index, plan = plan_](core::QueryId id, const spe::Record& r) {
        Deliver(*plan, index, id, r);
      });
}

void ShardRouter::Deliver(const ShardPlan& plan, int shard_index,
                          core::QueryId id, const spe::Record& r) {
  // Ownership filter: every emitted row is keyed by column 0 (selections
  // pass the input row, joins emit the A side first, aggregations emit
  // Row{key, value}), so the key's current slot owner is the one shard
  // allowed to deliver it. After a split, both halves hold the full
  // pre-split state and both re-emit surviving windows — the filter keeps
  // exactly the owner's copy, which is what makes the merged output
  // byte-identical to an unsharded run.
  if (plan.OwnerOfKey(r.row.key()) != shard_index) {
    if (egress_dropped_ != nullptr) egress_dropped_->Add();
    return;
  }
  user_callback_(id, r);
}

core::PushResult ShardRouter::Push(StreamId stream, TimestampMs event_time,
                                   spe::Row row) {
  if (!started_) return core::PushResult::kShutdown;
  const int owner = plan_->OwnerOfKey(row.key());
  return shards_[static_cast<size_t>(owner)]->Push(stream, event_time,
                                                   std::move(row));
}

void ShardRouter::PushWatermark(TimestampMs watermark) {
  if (!started_) return;
  for (auto& shard : shards_) shard->PushWatermark(watermark);
}

Result<core::QueryId> ShardRouter::Submit(
    const core::QueryDescriptor& desc) {
  if (!started_) return Status::FailedPrecondition("router not started");
  {
    std::lock_guard<std::mutex> lock(poison_mu_);
    ASTREAM_RETURN_IF_ERROR(poisoned_);
  }
  QuiesceAll();
  if (admission_.enabled()) {
    // Deployment-wide p99: every shard's per-query latency histograms,
    // merged bucket-wise. Read after the quiesce, so no pump thread is
    // swapping a supervised shard's job mid-recovery.
    obs::Histogram::Snapshot latency =
        obs::QueryEventLatency(retired_metrics_);
    for (auto& shard : shards_) {
      obs::MergeInto(&latency, obs::QueryEventLatency(
                                   shard->job()->metrics().TakeSnapshot()));
    }
    const core::AdmissionController::Decision d = admission_.Decide(
        desc, /*num_queued=*/0, latency.Percentile(99));
    if (d.action != core::AdmissionDecision::kAdmitted) {
      // Reject-only at the router (no deployment-wide queue): a decision
      // the single-job gate would merely defer is refused here.
      if (router_metrics_.enabled()) {
        router_metrics_.GetCounter("admission.rejected")->Add();
      }
      return Status::AdmissionRejected(d.reason);
    }
  }
  std::vector<std::pair<int, core::QueryId>> applied;
  core::QueryId first_id = -1;
  Status failure = Status::OK();
  for (int i = 0; i < num_shards(); ++i) {
    Result<core::QueryId> id = shards_[static_cast<size_t>(i)]->Submit(desc);
    if (!id.ok()) {
      failure = id.status();
      break;
    }
    applied.emplace_back(i, *id);
    if (i == 0) {
      first_id = *id;
    } else if (*id != first_id) {
      // Same descriptor stream on deterministic sessions must assign the
      // same id everywhere; divergence means the shards' query registries
      // are out of sync — refuse and undo.
      failure = Status::Internal(
          "shard " + std::to_string(i) + " assigned query id " +
          std::to_string(*id) + ", shard 0 assigned " +
          std::to_string(first_id));
      break;
    }
  }
  if (failure.ok()) {
    admission_.OnAdmitted(first_id, desc);
    return first_id;
  }
  // Roll back every shard that accepted: the creation is still pending in
  // its session batch (the fan-out flushes nothing), so Cancel drops it
  // without a trace. A failed rollback leaves registries diverged — the
  // router is poisoned rather than half-registered.
  for (const auto& [idx, id] : applied) {
    const Status undo = shards_[static_cast<size_t>(idx)]->Cancel(id);
    if (!undo.ok()) {
      Poison(Status::Internal("submit rollback failed on shard " +
                              std::to_string(idx) + ": " +
                              undo.ToString()));
    }
  }
  return failure;
}

Status ShardRouter::Cancel(core::QueryId id) {
  if (!started_) return Status::FailedPrecondition("router not started");
  {
    std::lock_guard<std::mutex> lock(poison_mu_);
    ASTREAM_RETURN_IF_ERROR(poisoned_);
  }
  QuiesceAll();
  for (int i = 0; i < num_shards(); ++i) {
    const Status s = shards_[static_cast<size_t>(i)]->Cancel(id);
    if (s.ok()) continue;
    if (i == 0) return s;  // validation failure; nothing applied anywhere
    // A cancellation already buffered on earlier shards cannot be
    // withdrawn; diverging here poisons the deployment.
    const Status poison = Status::Internal(
        "cancel(" + std::to_string(id) + ") diverged on shard " +
        std::to_string(i) + ": " + s.ToString());
    Poison(poison);
    return poison;
  }
  admission_.OnCancelled(id);
  return Status::OK();
}

int ShardRouter::Pump(bool force) {
  if (!started_) return 0;
  QuiesceAll();
  int pumped = 0;
  for (int i = 0; i < num_shards(); ++i) {
    const int n = shards_[static_cast<size_t>(i)]->Pump(force);
    if (i == 0) pumped = n;
  }
  return pumped;
}

bool ShardRouter::WaitForDeployment(TimestampMs timeout_ms) {
  if (!started_) return false;
  bool ok = true;
  for (auto& shard : shards_) ok &= shard->WaitForDeployment(timeout_ms);
  return ok;
}

Status ShardRouter::Checkpoint() {
  if (!started_) return Status::FailedPrecondition("router not started");
  QuiesceAll();
  for (int i = 0; i < num_shards(); ++i) {
    if (shards_[static_cast<size_t>(i)]->CheckpointAndWait() == nullptr) {
      return Status::Internal("checkpoint failed on shard " +
                              std::to_string(i));
    }
  }
  return Status::OK();
}

Status ShardRouter::MoveShard(int shard) {
  if (!started_) return Status::FailedPrecondition("router not started");
  if (shard < 0 || shard >= num_shards()) {
    return Status::InvalidArgument("no such shard");
  }
  const int64_t t0 = SteadyNowMs();
  auto cp = Drain(shard);
  if (cp == nullptr) {
    return Status::Internal("drain of shard " + std::to_string(shard) +
                            " failed");
  }
  // Ownership is unchanged; the version bump records the migration.
  plan_ = std::make_shared<const ShardPlan>(plan_->Moved(shard, shard));
  auto runtime =
      MakeRuntime(shard, ++generations_[static_cast<size_t>(shard)], cp);
  ASTREAM_RETURN_IF_ERROR(runtime->Start());
  InstallCallback(runtime.get(), shard);
  shards_[static_cast<size_t>(shard)] = std::move(runtime);
  last_reshard_pause_ms_.store(SteadyNowMs() - t0,
                               std::memory_order_relaxed);
  return Status::OK();
}

Status ShardRouter::SplitShard(int shard) {
  if (!started_) return Status::FailedPrecondition("router not started");
  if (shard < 0 || shard >= num_shards()) {
    return Status::InvalidArgument("no such shard");
  }
  if (plan_->SlotsOwnedBy(shard).size() < 2) {
    return Status::FailedPrecondition(
        "shard owns fewer than 2 slots; nothing to split");
  }
  const int64_t t0 = SteadyNowMs();
  const int new_shard = num_shards();
  auto cp = Drain(shard);
  if (cp == nullptr) {
    return Status::Internal("drain of shard " + std::to_string(shard) +
                            " failed");
  }
  // Both halves restore the FULL pre-split state; the new plan (published
  // before either can emit) makes the egress filter partition their
  // emissions exactly.
  auto left =
      MakeRuntime(shard, ++generations_[static_cast<size_t>(shard)], cp);
  generations_.push_back(0);
  auto right = MakeRuntime(new_shard, 0, cp);
  plan_ = std::make_shared<const ShardPlan>(plan_->Split(shard, new_shard));
  ASTREAM_RETURN_IF_ERROR(left->Start());
  ASTREAM_RETURN_IF_ERROR(right->Start());
  InstallCallback(left.get(), shard);
  InstallCallback(right.get(), new_shard);
  shards_[static_cast<size_t>(shard)] = std::move(left);
  shards_.push_back(std::move(right));
  last_reshard_pause_ms_.store(SteadyNowMs() - t0,
                               std::memory_order_relaxed);
  return Status::OK();
}

std::shared_ptr<const spe::CheckpointStore::Checkpoint> ShardRouter::Drain(
    int shard) {
  ShardRuntime* runtime = shards_[static_cast<size_t>(shard)].get();
  auto cp = runtime->DrainToCheckpoint();
  if (cp == nullptr) return nullptr;
  obs::MetricsRegistry::Snapshot last =
      runtime->job()->metrics().TakeSnapshot();
  last.gauges.clear();
  for (auto& [id, series] : last.queries) series.cost_state_bytes = 0;
  retired_metrics_ = obs::MergeSnapshots({retired_metrics_, last});
  return cp;
}

Status ShardRouter::KillShard(int shard, const Status& why) {
  if (!started_) return Status::FailedPrecondition("router not started");
  if (shard < 0 || shard >= num_shards()) {
    return Status::InvalidArgument("no such shard");
  }
  if (!config_.job.threaded) {
    return Status::FailedPrecondition(
        "sync engines cannot fail asynchronously; kill requires "
        "job.threaded");
  }
  // Quiesce first so the crash point is deterministic against the control
  // timeline: everything pushed before the kill is applied by the dying
  // incarnation (and thus covered by its source log), everything after is
  // first seen by the recovered one.
  QuiesceAll();
  shards_[static_cast<size_t>(shard)]->Kill(why);
  return Status::OK();
}

Status ShardRouter::FinishAndWait() {
  if (!started_) return Status::OK();
  Status first = Status::OK();
  for (auto& shard : shards_) {
    const Status s = shard->FinishAndWait();
    if (first.ok()) first = s;
  }
  {
    std::lock_guard<std::mutex> lock(poison_mu_);
    if (first.ok()) first = poisoned_;
  }
  return first;
}

Status ShardRouter::Stop() {
  Status first = Status::OK();
  for (auto& shard : shards_) {
    const Status s = shard->Stop();
    if (first.ok()) first = s;
  }
  return first;
}

Status ShardRouter::Health() const {
  {
    std::lock_guard<std::mutex> lock(poison_mu_);
    ASTREAM_RETURN_IF_ERROR(poisoned_);
  }
  for (const auto& shard : shards_) {
    ASTREAM_RETURN_IF_ERROR(shard->Health());
  }
  return Status::OK();
}

void ShardRouter::SetResultCallback(
    core::AStreamJob::ResultCallback callback) {
  user_callback_.Set(std::move(callback));
}

obs::MetricsRegistry::Snapshot ShardRouter::MetricsSnapshot() {
  std::vector<obs::MetricsRegistry::Snapshot> snapshots{retired_metrics_};
  snapshots.reserve(shards_.size() + 2);
  for (auto& shard : shards_) snapshots.push_back(shard->MetricsSnapshot());
  if (router_metrics_.enabled()) {
    if (admission_.enabled()) {
      router_metrics_.GetGauge("admission.active_queries")
          ->Set(static_cast<int64_t>(admission_.num_admitted()));
    }
    snapshots.push_back(router_metrics_.TakeSnapshot());
  }
  return obs::MergeSnapshots(snapshots);
}

core::AStreamJob::OperatorStats ShardRouter::CollectStats() const {
  core::AStreamJob::OperatorStats total;
  for (const auto& shard : shards_) total += shard->CollectStats();
  return total;
}

void ShardRouter::QuiesceAll() {
  // Barrier before any control fan-out: with every ring drained, no pump
  // thread is mid-recovery (a supervised replay pins the clock to logged
  // times), so the shards all observe the same "now" when they stamp and
  // flush the control operation.
  for (auto& shard : shards_) shard->QuiesceIngress();
}

void ShardRouter::Poison(const Status& status) {
  std::lock_guard<std::mutex> lock(poison_mu_);
  if (poisoned_.ok()) poisoned_ = status;
  ASTREAM_LOG(kWarn, "shard-router") << "poisoned: " << status.ToString();
}

}  // namespace astream::shard
