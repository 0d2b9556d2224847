#include "harness/driver.h"

#include <algorithm>

#include "common/logging.h"

namespace astream::harness {

Driver::Driver(StreamSut* sut, workload::Scenario* scenario, Config config)
    : sut_(sut),
      scenario_(scenario),
      config_(config),
      clock_(config.clock != nullptr ? config.clock
                                     : WallClock::Default()) {}

void Driver::ApplyActions(const workload::ScenarioActions& actions) {
  // Deletions first (ranks refer to the current active list, oldest = 0).
  std::vector<size_t> ranks = actions.delete_ranks;
  std::sort(ranks.rbegin(), ranks.rend());  // erase from the back first
  for (size_t rank : ranks) {
    if (rank >= active_.size()) continue;
    const core::QueryId id = active_[rank];
    if (sut_->Cancel(id).ok()) {
      active_.erase(active_.begin() + static_cast<ptrdiff_t>(rank));
      ++deleted_;
    }
  }
  for (int i = 0; i < actions.create; ++i) {
    auto id = sut_->Submit(config_.query_factory());
    if (id.ok()) {
      active_.push_back(*id);
      ++created_;
    } else {
      ASTREAM_LOG(kWarn, "driver")
          << "submit rejected: " << id.status().ToString();
    }
  }
}

Driver::Report Driver::Run() {
  Report report;
  // Independent generators per stream: both streams must cover the full
  // key space (Sec. 4.2.1's round-robin keys), otherwise an alternating
  // single generator would give stream A only even keys and B only odd
  // keys — and equi-joins would never match.
  workload::DataGenerator gen_a(config_.data, config_.seed);
  workload::DataGenerator gen_b(config_.data, config_.seed * 7919 + 1);

  const TimestampMs start = clock_->NowMs();
  TimestampMs last_watermark = start;
  TimestampMs last_tick = start - config_.scenario_tick_ms;
  workload::ScenarioActions pending;  // waiting for the previous batch ACK
  bool have_pending = false;

  double active_samples_sum = 0;
  int64_t active_samples = 0;
  bool push_to_b = false;
  TimestampMs last_sample = start;
  bool warmed = config_.warmup_ms == 0;
  int64_t pushed_at_warmup = 0;

  while (true) {
    const TimestampMs now = clock_->NowMs();
    if (now - start >= config_.duration_ms) break;
    if (!warmed && now - start >= config_.warmup_ms) {
      warmed = true;
      pushed_at_warmup = report.pushed_a + report.pushed_b;
      active_samples_sum = 0;
      active_samples = 0;
    }

    // --- user-request queue (backpressured by ACKs, Fig. 5) ---
    if (now - last_tick >= config_.scenario_tick_ms) {
      last_tick = now;
      workload::ScenarioActions actions =
          scenario_ == nullptr
              ? workload::ScenarioActions{}
              : scenario_->Tick(now - start, active_.size());
      if (actions.create > 0 || !actions.delete_ranks.empty()) {
        if (have_pending) {
          // Merge into the waiting batch; its latency keeps growing.
          pending.create += actions.create;
          pending.delete_ranks.insert(pending.delete_ranks.end(),
                                      actions.delete_ranks.begin(),
                                      actions.delete_ranks.end());
        } else {
          pending = std::move(actions);
          have_pending = true;
        }
      }
      if (have_pending && sut_->WaitDeployed(0)) {
        ApplyActions(pending);
        pending = {};
        have_pending = false;
      }
      sut_->Pump();
      active_samples_sum += static_cast<double>(active_.size());
      ++active_samples;
      report.peak_active_queries =
          std::max(report.peak_active_queries, active_.size());
      if (sut_->QueuedElements() > config_.max_queued_elements) {
        report.sustainable = false;
      }
    }

    // --- input-tuple queue ---
    int64_t to_push = config_.burst;
    if (config_.data_rate_per_sec > 0) {
      const auto target = static_cast<int64_t>(
          config_.data_rate_per_sec * (now - start) / 1000.0);
      to_push = target - (report.pushed_a + report.pushed_b);
      to_push = std::min<int64_t>(to_push, config_.burst);
    }
    for (int64_t i = 0; i < to_push; ++i) {
      core::PushResult result;
      if (config_.push_b && push_to_b) {
        result = sut_->Push(1, now, gen_b.Next());
        ++report.pushed_b;
      } else {
        result = sut_->Push(0, now, gen_a.Next());
        ++report.pushed_a;
      }
      if (result == core::PushResult::kLateClamped) {
        ++report.push_clamped;
      } else if (result == core::PushResult::kBackpressure) {
        ++report.push_rejected;
      } else if (result == core::PushResult::kShutdown) {
        // Permanent refusal (the SUT stopped accepting input) — kept out
        // of the backpressure tally so it cannot skew sustainability.
        ++report.push_shutdown;
      }
      if (config_.push_b) push_to_b = !push_to_b;
    }

    if (now - last_watermark >= config_.watermark_interval_ms) {
      sut_->PushWatermark(now);
      last_watermark = now;
    }

    if (config_.sample_interval_ms > 0 &&
        now - last_sample >= config_.sample_interval_ms) {
      last_sample = now;
      const QosView qos = sut_->qos();
      const obs::Histogram::Snapshot latency = qos.EventLatency();
      Sample s;
      s.at_ms = now - start;
      s.pushed = report.pushed_a + report.pushed_b;
      s.outputs = qos.TotalOutputs();
      s.event_latency_mean_ms = latency.mean();
      s.event_latency_count = latency.count;
      s.active_queries = active_.size();
      report.samples.push_back(s);
    }
  }

  const TimestampMs elapsed = clock_->NowMs() - start;
  if (config_.drain_at_end) {
    sut_->FinishAndWait();
  } else {
    sut_->Stop();
  }

  report.elapsed_ms = elapsed;
  report.created = created_;
  report.deleted = deleted_;
  const TimestampMs measured =
      std::max<TimestampMs>(elapsed - config_.warmup_ms, 1);
  report.input_rate_per_sec =
      static_cast<double>(report.pushed_a + report.pushed_b -
                          pushed_at_warmup) /
      (measured / 1000.0);
  report.avg_active_queries =
      active_samples == 0 ? 0 : active_samples_sum / active_samples;
  report.overall_rate_per_sec =
      report.input_rate_per_sec * report.avg_active_queries;
  report.qos = sut_->qos();
  report.total_outputs = report.qos.TotalOutputs();
  return report;
}

}  // namespace astream::harness
