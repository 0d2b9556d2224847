// QoS monitoring (Sec. 3.4): a multi-tenant sharded deployment where an
// operator watches event-time latency, deployment latency, and per-query
// output rates while tenants churn ad-hoc aggregation queries.
// Demonstrates the unified client over two shards, deployment-wide merged
// metrics, the checkpoint API, and the per-query observability layer
// (metrics registry + trace export).

#include <algorithm>
#include <cstdio>
#include <vector>

#include "common/rng.h"
#include "obs/export.h"
#include "shard/client.h"
#include "workload/query_generator.h"

using astream::Client;
using astream::JobConfigBuilder;
using astream::ManualClock;
using astream::Rng;
using astream::StreamId;
using astream::core::AStreamJob;
using astream::core::QueryId;
using astream::spe::Row;
using Metrics = astream::obs::MetricsRegistry::Snapshot;

namespace {

// Rows delivered to the result callback: what the shards emitted minus
// the copies the egress ownership filter dropped (only after a split).
long long Delivered(const Metrics& m) {
  int64_t total = 0;
  for (const auto& [id, series] : m.queries) total += series.records_emitted;
  const auto dropped = m.counters.find("shard.egress_dropped");
  if (dropped != m.counters.end()) total -= dropped->second;
  return static_cast<long long>(total);
}

astream::obs::Histogram::Snapshot DeployLatency(const Metrics& m) {
  const auto it = m.histograms.find("job.deploy_latency_ms");
  return it == m.histograms.end() ? astream::obs::Histogram::Snapshot{}
                                  : it->second;
}

}  // namespace

int main() {
  ManualClock clock;
  auto config = JobConfigBuilder(AStreamJob::TopologyKind::kAggregation)
                    .Parallelism(2)
                    .Clock(&clock)
                    .SessionBatch(8, 500)
                    .Shards(2)
                    .Build();
  if (!config.ok()) {
    std::fprintf(stderr, "config rejected: %s\n",
                 config.status().ToString().c_str());
    return 1;
  }
  auto client = std::move(Client::Create(*config)).value();
  if (auto s = client->Start(); !s.ok()) {
    std::fprintf(stderr, "start failed: %s\n", s.ToString().c_str());
    return 1;
  }

  astream::workload::QueryGenerator::Config qcfg;
  qcfg.num_fields = 1;  // rows below carry [key, value]
  qcfg.window_min = 500;
  qcfg.window_max = 2000;
  qcfg.session_probability = 0.2;  // some tenants use session windows
  astream::workload::QueryGenerator qgen(qcfg, 7);

  Rng rng(99);
  std::vector<QueryId> tenants;
  int64_t checkpoints_taken = 0;
  int64_t checkpoints_completed = 0;

  for (int t = 0; t < 20'000; t += 5) {
    clock.SetMs(t);
    // Tenant churn: occasionally add or remove a query. The generator
    // draws a query the configured topology can host; the submit fans
    // out to every shard under one id.
    if (t % 1000 == 0 && tenants.size() < 12) {
      auto id = client->Submit(qgen.RandomFor(*config));
      if (id.ok()) tenants.push_back(*id);
    }
    if (t % 3500 == 0 && tenants.size() > 2) {
      client->Cancel(tenants.front()).ok();
      tenants.erase(tenants.begin());
    }
    client->Pump();

    // Data plane: rows route to their key's owning shard.
    client->Push(StreamId::kA, t,
                 Row{rng.UniformInt(0, 19), rng.UniformInt(0, 999)});
    if (t % 250 == 0) client->PushWatermark(t);

    // Periodic checkpoint (exactly-once state snapshots, Sec. 3.3),
    // coordinated across every shard.
    if (t > 0 && t % 5000 == 0) {
      ++checkpoints_taken;
      if (client->Checkpoint().ok()) ++checkpoints_completed;
    }

    // The QoS dashboard: print a line every simulated 4 seconds. Every
    // figure comes from the lock-free per-query histograms and counters,
    // merged across shards.
    if (t > 0 && t % 4000 == 0) {
      const auto metrics = client->MetricsSnapshot();
      // The worst tenant's p95/p99 next to the fleet-wide mean.
      double p95 = 0, p99 = 0;
      int64_t worst = -1;
      for (const auto& [id, series] : metrics.queries) {
        const double q95 = series.event_latency_ms.Percentile(95);
        if (q95 >= p95) {
          p95 = q95;
          p99 = series.event_latency_ms.Percentile(99);
          worst = id;
        }
      }
      std::printf(
          "t=%2ds  active=%2zu  outputs=%-7lld  "
          "event-latency mean=%.0fms worst-query Q%lld p95=%.0fms "
          "p99=%.0fms  deploy mean=%.0fms\n",
          t / 1000, tenants.size(), Delivered(metrics),
          astream::obs::QueryEventLatency(metrics).mean(),
          static_cast<long long>(worst), p95, p99,
          DeployLatency(metrics).mean());
    }
  }

  client->FinishAndWait();

  const auto snap = client->MetricsSnapshot();
  const auto latency = astream::obs::QueryEventLatency(snap);
  const auto deploy = DeployLatency(snap);
  std::printf("\nfinal report (%d shards)\n", client->num_shards());
  std::printf("  outputs total:          %lld\n", Delivered(snap));
  std::printf("  event-time latency:     mean %.0fms, max %lldms\n",
              latency.mean(), static_cast<long long>(latency.max));
  // Every shard acks every request, so the merged histogram holds one
  // observation per request per shard.
  std::printf("  deployment latency:     mean %.0fms over %lld shard acks\n",
              deploy.mean(), static_cast<long long>(deploy.count));
  std::printf("  checkpoints completed:  %lld of %lld\n",
              static_cast<long long>(checkpoints_completed),
              static_cast<long long>(checkpoints_taken));
  std::printf("  busiest tenants:\n");
  std::vector<std::pair<int64_t, QueryId>> by_count;
  for (const auto& [id, series] : snap.queries) {
    by_count.emplace_back(series.records_emitted, id);
  }
  std::sort(by_count.rbegin(), by_count.rend());
  for (size_t i = 0; i < by_count.size() && i < 3; ++i) {
    std::printf("    Q%-3lld %lld rows\n",
                static_cast<long long>(by_count[i].second),
                static_cast<long long>(by_count[i].first));
  }

  // The merged metrics registry, the way a bench or scraper would read
  // it — counters/gauges/series summed across shards, histograms merged
  // bucket-wise.
  std::printf("\nmetrics registry (merged across shards)\n%s",
              astream::obs::ExportText(snap).c_str());

  // Query lifecycle trace (submit -> changelog flush -> deploy ack ->
  // first result -> cancel), one JSON object per line. Each shard keeps
  // its own trace; shard 0's timeline speaks for the deployment (the
  // fan-out drives every shard through the same lifecycle).
  auto* job0 = client->router()->shard(0)->job();
  const std::string trace_path = "/tmp/astream_monitoring_trace.jsonl";
  if (job0->trace().DumpTo(trace_path).ok()) {
    std::printf("\ntrace: %zu lifecycle events written to %s\n",
                job0->trace().size(), trace_path.c_str());
    const auto events = job0->trace().Events();
    for (size_t i = 0; i < events.size() && i < 5; ++i) {
      const auto& e = events[i];
      std::printf("  {\"ts_us\":%lld,\"event\":\"%s\",\"query\":%lld,"
                  "\"detail\":%lld}\n",
                  static_cast<long long>(e.ts_us),
                  astream::obs::TraceEventKindName(e.kind),
                  static_cast<long long>(e.query),
                  static_cast<long long>(e.detail));
    }
    if (events.size() > 5) {
      std::printf("  ... %zu more\n", events.size() - 5);
    }
  }
  return 0;
}
