#include "workload/scenario_runner.h"

#include <algorithm>
#include <numeric>
#include <utility>

namespace astream::workload {

namespace {

/// A well-behaved tenant: selective predicate, small tumbling window.
core::QueryDescriptor Minnow(int index, TimestampMs window_ms) {
  core::QueryDescriptor d;
  d.kind = core::QueryKind::kAggregation;
  d.select_a = {core::Predicate{1 + (index % 5), core::CmpOp::kLt, 500}};
  d.window = spe::WindowSpec::Tumbling(window_ms);
  d.agg = {spe::AggKind::kSum, 1};
  return d;
}

/// The adversary: pass-all predicate over a long window with a short
/// slide — every slide re-triggers a window spanning many slices, so its
/// trigger work and state dwarf the minnows'.
core::QueryDescriptor Whale(TimestampMs window_ms, TimestampMs slide_ms) {
  core::QueryDescriptor d;
  d.kind = core::QueryKind::kAggregation;
  d.select_a = {core::Predicate{1, core::CmpOp::kGe, 0}};
  d.window = spe::WindowSpec::Sliding(window_ms, slide_ms);
  d.agg = {spe::AggKind::kSum, 1};
  return d;
}

QueryGenerator::Config ChurnQueryConfig(const ScenarioSpec& spec) {
  QueryGenerator::Config cfg;
  cfg.num_fields = spec.data.num_fields;
  cfg.fields_max = spec.data.fields_max;
  cfg.window_min = 200;
  cfg.window_max = 600;
  cfg.predicates_per_side = 1;
  cfg.slide_min_frac = 0.5;
  return cfg;
}

}  // namespace

const char* ScenarioRunner::MixName(ScenarioSpec::Mix mix) {
  switch (mix) {
    case ScenarioSpec::Mix::kChurnStorm:
      return "churn-storm";
    case ScenarioSpec::Mix::kZipfSkew:
      return "zipf-skew";
    case ScenarioSpec::Mix::kWhaleMinnows:
      return "whale-minnows";
    case ScenarioSpec::Mix::kBurstyOoo:
      return "bursty-ooo";
  }
  return "unknown";
}

ScenarioSpec ScenarioRunner::Preset(ScenarioSpec::Mix mix, uint64_t seed) {
  ScenarioSpec spec;
  spec.mix = mix;
  spec.seed = seed;
  switch (mix) {
    case ScenarioSpec::Mix::kChurnStorm:
      spec.duration_ms = 2000;
      spec.rows_per_tick = 20;
      spec.minnows = 4;
      spec.churn_batch = 8;
      spec.churn_period_ms = 200;
      break;
    case ScenarioSpec::Mix::kZipfSkew:
      spec.duration_ms = 3000;
      spec.minnows = 8;
      spec.data.key_max = 100;
      spec.data.zipf_s = 1.1;
      spec.meter_costs = true;
      break;
    case ScenarioSpec::Mix::kWhaleMinnows:
      spec.duration_ms = 4000;
      spec.minnows = 6;
      spec.whale = true;
      // Short enough that the whale's per-slide trigger storm is
      // sustained through the second half of the run (first window end
      // at ~1600 ms), long enough to dwarf the minnows' 400 ms windows.
      spec.whale_window_ms = 1600;
      // Slide = half a tick: two trigger storms per tick, each scanning
      // window/slide = 32 slices for every key — the whale's cost in the
      // shared plan dwarfs the minnows' instead of merely exceeding it.
      spec.whale_slide_ms = 25;
      // The whale only *becomes* a whale once its first window triggers
      // (~tick 32); the policy needs a metering round to see that cost
      // and a few ticks to drain the ejection checkpoint, so steady
      // state starts around tick 40 of 80.
      spec.p99_warmup_ticks = 44;
      break;
    case ScenarioSpec::Mix::kBurstyOoo:
      spec.duration_ms = 3000;
      spec.rows_per_tick = 30;
      spec.minnows = 5;
      spec.watermark_lag_ms = 150;
      spec.arrival.ooo_probability = 0.3;
      spec.arrival.ooo_max_ms = 80;
      spec.arrival.late_probability = 0.08;
      spec.arrival.late_lag_ms = 400;
      spec.burst_every_ticks = 7;
      spec.burst_multiplier = 5;
      break;
  }
  return spec;
}

void ScenarioRunner::EnableIsolation(ScenarioSpec* spec) {
  spec->isolation = true;
  spec->slo.enable_admission = true;
  switch (spec->mix) {
    case ScenarioSpec::Mix::kChurnStorm:
      // Tight caps so the storm exercises queueing AND rejection: each
      // 8-query churn round fills the 4 free slots, then the 2-deep
      // queue, and the last submits overflow into rejection.
      spec->slo.max_active_queries = 8;
      spec->slo.max_queued = 2;
      break;
    case ScenarioSpec::Mix::kWhaleMinnows:
      // p99 target 1 ms: under the ManualClock the event-time latency of
      // every emitted window is at least the watermark lag, so the gate
      // reads "violated" whenever outputs flow — detection then turns
      // purely on the deterministic metered cost share.
      spec->slo.enable_desharing = true;
      spec->slo.p99_event_latency_ms = 1;
      spec->slo.whale_cost_fraction = 0.35;
      spec->slo.whale_min_cost = 50;
      break;
    case ScenarioSpec::Mix::kZipfSkew:
    case ScenarioSpec::Mix::kBurstyOoo:
      spec->slo.max_active_queries = 64;
      break;
  }
}

Result<ScenarioReport> ScenarioRunner::Run() {
  ScenarioReport report;
  ManualClock clock;

  core::AStreamJob::Options options;
  options.topology = core::AStreamJob::TopologyKind::kAggregation;
  options.parallelism = 1;
  options.threaded = false;  // deterministic work counts
  options.clock = &clock;
  options.session.batch_size = 1;
  options.enable_trace = false;
  options.slo = spec_.slo;
  options.meter_costs = spec_.meter_costs;
  options.storage.memory_budget_bytes = spec_.memory_budget_bytes;
  ASTREAM_ASSIGN_OR_RETURN(std::unique_ptr<core::AStreamJob> job,
                           core::AStreamJob::Create(options));
  ASTREAM_RETURN_IF_ERROR(job->Start());

  std::unique_ptr<core::IsolationManager> iso;
  if (spec_.isolation) {
    iso = std::make_unique<core::IsolationManager>(job.get());
  }

  const auto callback = [&report](core::QueryId id, const spe::Record&) {
    ++report.outputs;
    ++report.outputs_per_query[id];
  };
  if (iso != nullptr) {
    iso->SetResultCallback(callback);
  } else {
    job->SetResultCallback(callback);
  }

  const auto submit = [&](const core::QueryDescriptor& desc)
      -> Result<core::QueryId> {
    ++report.submitted;
    auto outcome_or = iso != nullptr ? iso->SubmitWithOutcome(desc)
                                     : job->SubmitWithOutcome(desc);
    ASTREAM_RETURN_IF_ERROR(outcome_or.status());
    const core::AStreamJob::SubmitOutcome& outcome = outcome_or.value();
    if (outcome.decision == core::AdmissionDecision::kQueued) {
      ++report.admission_queued;
    } else if (outcome.decision == core::AdmissionDecision::kRejected) {
      ++report.admission_rejected;
    }
    return outcome.id;
  };
  const auto cancel = [&](core::QueryId id) {
    return iso != nullptr ? iso->Cancel(id) : job->Cancel(id);
  };
  const auto push = [&](TimestampMs t, spe::Row row) {
    return iso != nullptr ? iso->Push(0, t, std::move(row))
                          : job->Push(0, t, std::move(row));
  };
  const auto push_watermark = [&](TimestampMs wm) {
    if (iso != nullptr) {
      iso->PushWatermark(wm);
    } else {
      job->PushWatermark(wm);
    }
  };
  const auto pump = [&] {
    if (iso != nullptr) {
      iso->Pump(true);
    } else {
      job->Pump(true);
    }
  };

  // Tenants.
  clock.SetMs(0);
  for (int i = 0; i < spec_.minnows; ++i) {
    ASTREAM_RETURN_IF_ERROR(
        submit(Minnow(i, spec_.minnow_window_ms)).status());
  }
  if (spec_.whale) {
    ASTREAM_ASSIGN_OR_RETURN(
        report.whale_id,
        submit(Whale(spec_.whale_window_ms, spec_.whale_slide_ms)));
  }
  pump();

  DataGenerator data(spec_.data, spec_.seed);
  ArrivalPerturber arrival(spec_.arrival, spec_.seed ^ 0x9e3779b97f4a7c15ULL);
  QueryGenerator churn_gen(ChurnQueryConfig(spec_),
                           spec_.seed ^ 0xd1b54a32d192ed03ULL);
  std::vector<core::QueryId> churned;

  const auto shared_work = [&] {
    // Primary job only: an ejected whale's dedicated job no longer delays
    // the minnows, so its work is excluded from the latency proxy.
    const core::AStreamJob::OperatorStats s = job->CollectStats();
    return s.bitset_ops + s.join_pairs_computed + s.selection_records_in;
  };

  const int ticks =
      static_cast<int>(spec_.duration_ms / std::max<TimestampMs>(
                                               1, spec_.tick_ms));
  TimestampMs last_wm = 0;
  int64_t prev_work = shared_work();
  for (int tick = 0; tick < ticks; ++tick) {
    const TimestampMs now = (tick + 1) * spec_.tick_ms;
    clock.SetMs(now);

    if (spec_.churn_batch > 0 && spec_.churn_period_ms > 0 &&
        now % spec_.churn_period_ms == 0) {
      const size_t kill = std::min(churned.size(),
                                   static_cast<size_t>(spec_.churn_batch));
      for (size_t i = 0; i < kill; ++i) {
        ASTREAM_RETURN_IF_ERROR(cancel(churned[i]));
      }
      churned.erase(churned.begin(),
                    churned.begin() + static_cast<long>(kill));
      for (int i = 0; i < spec_.churn_batch; ++i) {
        ASTREAM_ASSIGN_OR_RETURN(const core::QueryId id,
                                 submit(churn_gen.Aggregation()));
        if (id != -1) churned.push_back(id);  // admitted or queued
      }
    }

    int rows = spec_.rows_per_tick;
    if (spec_.burst_every_ticks > 0 &&
        (tick + 1) % spec_.burst_every_ticks == 0) {
      rows *= spec_.burst_multiplier;
    }
    for (int i = 0; i < rows; ++i) {
      const TimestampMs base =
          now - spec_.tick_ms + 1 +
          (static_cast<TimestampMs>(i) * spec_.tick_ms) / std::max(rows, 1);
      const TimestampMs et = arrival.Perturb(base, last_wm);
      push(et, data.Next());
      ++report.rows_pushed;
    }

    const TimestampMs wm = now - spec_.watermark_lag_ms;
    if (wm > last_wm) {
      push_watermark(wm);
      last_wm = wm;
    }
    pump();
    if (iso != nullptr) {
      ASTREAM_RETURN_IF_ERROR(iso->Maintain());
      if (report.eject_tick < 0 && iso->desharings() > 0) {
        report.eject_tick = tick;
      }
    }

    const int64_t work = shared_work();
    report.tick_work.push_back(work - prev_work);
    prev_work = work;
    ASTREAM_RETURN_IF_ERROR(job->Health());
  }

  // Drain every open window (including the whale's, wherever it lives).
  const TimestampMs final_wm =
      spec_.duration_ms + spec_.whale_window_ms + spec_.minnow_window_ms +
      spec_.watermark_lag_ms + spec_.tick_ms;
  clock.SetMs(final_wm);
  push_watermark(final_wm);
  pump();
  ASTREAM_RETURN_IF_ERROR(job->FinishAndWait());

  const core::AStreamJob::OperatorStats stats = job->CollectStats();
  report.late_drops = stats.records_late;
  if (iso != nullptr) {
    report.desharings = iso->desharings();
    report.whale_ejected = report.desharings > 0;
  }
  {
    const auto snapshot = job->MetricsSnapshot();
    for (const auto& [name, value] : snapshot.counters) {
      if (name.rfind("admission.", 0) == 0) {
        report.admission_metrics[name] = value;
      }
    }
    for (const auto& [name, value] : snapshot.gauges) {
      if (name.rfind("admission.", 0) == 0) {
        report.admission_metrics[name] = value;
      }
    }
  }

  if (!report.tick_work.empty()) {
    std::vector<int64_t> sorted = report.tick_work;
    std::sort(sorted.begin(), sorted.end());
    report.max_tick_work = sorted.back();
    report.mean_tick_work =
        static_cast<double>(std::accumulate(sorted.begin(), sorted.end(),
                                            int64_t{0})) /
        static_cast<double>(sorted.size());
    // p99 over steady state only (see p99_warmup_ticks).
    const size_t skip = std::min(
        static_cast<size_t>(std::max(spec_.p99_warmup_ticks, 0)),
        report.tick_work.size() - 1);
    std::vector<int64_t> tail(report.tick_work.begin() +
                                  static_cast<long>(skip),
                              report.tick_work.end());
    std::sort(tail.begin(), tail.end());
    report.p99_tick_work = tail[(tail.size() - 1) * 99 / 100];
  }
  report.slo_met = spec_.tick_work_p99_budget == 0 ||
                   report.p99_tick_work <= spec_.tick_work_p99_budget;
  report.ok = job->Health().ok();
  return report;
}

}  // namespace astream::workload
