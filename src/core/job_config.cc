#include "core/job_config.h"

namespace astream {

namespace {

bool IsPowerOfTwo(size_t v) { return v != 0 && (v & (v - 1)) == 0; }

}  // namespace

Status ValidateJobOptions(const core::AStreamJob::Options& options) {
  if (options.parallelism < 1) {
    return Status::InvalidArgument("parallelism must be >= 1");
  }
  if (options.max_join_stages < 1 ||
      options.max_join_stages > core::kMaxJoinDepth) {
    return Status::InvalidArgument("max_join_stages out of range");
  }
  if (options.num_streams < 2 || options.num_streams > core::kMaxJoinDepth) {
    return Status::InvalidArgument("num_streams out of range (2..5)");
  }
  if (options.num_streams != 2 &&
      options.topology != core::AStreamJob::TopologyKind::kMultiway) {
    return Status::InvalidArgument(
        "num_streams > 2 requires the multiway topology");
  }
  if (options.batch_size < 1) {
    return Status::InvalidArgument("batch_size must be >= 1");
  }
  if (options.batch_linger_ms < 0) {
    return Status::InvalidArgument("batch_linger_ms must be >= 0");
  }
  if (options.channel_capacity < 1) {
    return Status::InvalidArgument("channel_capacity must be >= 1");
  }
  if (options.session.batch_size < 1) {
    return Status::InvalidArgument("session.batch_size must be >= 1");
  }
  if (options.session.max_timeout_ms < 0) {
    return Status::InvalidArgument("session.max_timeout_ms must be >= 0");
  }
  if (options.checkpoint_retention < 1) {
    return Status::InvalidArgument("checkpoint_retention must be >= 1");
  }
  if (options.first_checkpoint_id < 1) {
    return Status::InvalidArgument("first_checkpoint_id must be >= 1");
  }
  const core::SloOptions& slo = options.slo;
  if (slo.p99_event_latency_ms < 0) {
    return Status::InvalidArgument("slo.p99_event_latency_ms must be >= 0");
  }
  if (slo.max_predicted_cost < 0 || slo.max_total_cost < 0) {
    return Status::InvalidArgument("slo cost caps must be >= 0");
  }
  if (slo.whale_cost_fraction <= 0 || slo.whale_cost_fraction > 1) {
    return Status::InvalidArgument(
        "slo.whale_cost_fraction must be in (0, 1]");
  }
  if (slo.readmit_cost_fraction < 0 || slo.readmit_cost_fraction > 1) {
    return Status::InvalidArgument(
        "slo.readmit_cost_fraction must be in [0, 1]");
  }
  if (slo.whale_min_cost < 0) {
    return Status::InvalidArgument("slo.whale_min_cost must be >= 0");
  }
  if (slo.enable_desharing && !slo.enable_admission) {
    return Status::InvalidArgument(
        "slo.enable_desharing requires slo.enable_admission "
        "(de-sharing decisions read the metered cost model)");
  }
  if (slo.enable_admission && !options.enable_metrics) {
    return Status::InvalidArgument(
        "slo.enable_admission requires enable_metrics "
        "(admission refines its cost model from metered series)");
  }
  if (options.meter_costs && !options.enable_metrics) {
    return Status::InvalidArgument(
        "meter_costs requires enable_metrics (costs are attributed "
        "into per-query series)");
  }
  return Status::OK();
}

Result<JobConfig> JobConfig::Validated(JobConfig config) {
  ASTREAM_RETURN_IF_ERROR(ValidateJobOptions(config.job));
  if (config.shards < 1) {
    return Status::InvalidArgument("shards must be >= 1");
  }
  if (config.slots < config.shards) {
    return Status::InvalidArgument(
        "slots must be >= shards (each shard owns at least one slot)");
  }
  if (config.shard_threads && !IsPowerOfTwo(config.ingress_capacity)) {
    return Status::InvalidArgument(
        "ingress_capacity must be a power of two");
  }
  if (!config.state_dir.empty() && !config.supervised) {
    return Status::InvalidArgument(
        "state_dir (durable shard checkpoints) requires supervised");
  }
  if (config.supervised && config.job.checkpoint_store != nullptr) {
    return Status::InvalidArgument(
        "supervised shards own their checkpoint stores; "
        "job.checkpoint_store must be null");
  }
  if (config.supervisor.max_restart_attempts < 1) {
    return Status::InvalidArgument("max_restart_attempts must be >= 1");
  }
  return config;
}

}  // namespace astream
