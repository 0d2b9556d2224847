// Quickstart: one shared AStream deployment behind the unified client,
// two ad-hoc queries created at runtime, results printed per query.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>

#include "core/query_builder.h"
#include "shard/client.h"

using astream::Client;
using astream::JobConfigBuilder;
using astream::StreamId;
using astream::core::AStreamJob;
using astream::core::CmpOp;
using astream::core::QueryBuilder;
using astream::core::QueryId;
using astream::spe::AggKind;
using astream::spe::Row;

int main() {
  // A deterministic clock keeps this example reproducible; real
  // deployments simply omit `.Clock(...)` to use the wall clock.
  astream::ManualClock clock;

  // The config validates eagerly: a bad knob fails here, never mid-run.
  // Two shards scale the push path; with Shards(1) the client behaves
  // exactly like a lone AStreamJob.
  auto config = JobConfigBuilder(AStreamJob::TopologyKind::kAggregation)
                    .Parallelism(2)
                    .Clock(&clock)
                    .Shards(2)
                    .Build();
  if (!config.ok()) {
    std::fprintf(stderr, "config rejected: %s\n",
                 config.status().ToString().c_str());
    return 1;
  }
  auto client_or = Client::Create(*config);
  if (!client_or.ok()) {
    std::fprintf(stderr, "create failed: %s\n",
                 client_or.status().ToString().c_str());
    return 1;
  }
  auto client = std::move(client_or).value();
  if (auto s = client->Start(); !s.ok()) {
    std::fprintf(stderr, "start failed: %s\n", s.ToString().c_str());
    return 1;
  }

  client->SetResultCallback([](QueryId query, const astream::spe::Record& r) {
    std::printf("  [Q%lld @t=%lld] %s\n",
                static_cast<long long>(query),
                static_cast<long long>(r.event_time),
                r.row.ToString().c_str());
  });

  // --- Ad-hoc query #1: a selection. "Give me every event whose first
  // field is below 50" — think of it as a live debugging tap. The submit
  // fans out to every shard under one query id.
  const QueryId q_tap = *client->Submit(
      *QueryBuilder::Selection().WhereA(1, CmpOp::kLt, 50).Build());

  // --- Ad-hoc query #2: a windowed aggregation. "Per key, the sum of
  // field 1 over 1-second tumbling windows."
  const QueryId q_sums = *client->Submit(*QueryBuilder::Aggregation()
                                              .TumblingWindow(1000)
                                              .Agg(AggKind::kSum, 1)
                                              .Build());

  client->Pump(/*force=*/true);  // flush the session batch -> both go live
  std::printf("submitted tap=Q%lld and sums=Q%lld on %d shards\n\n",
              static_cast<long long>(q_tap),
              static_cast<long long>(q_sums), client->num_shards());

  // --- Stream some data. Event times are milliseconds. Rows route to
  // their key's owning shard; watermarks broadcast.
  std::printf("results as they stream:\n");
  for (int t = 10; t < 2500; t += 10) {
    clock.SetMs(t);
    client->Push(StreamId::kA, t, Row{/*key=*/t % 3, /*field1=*/t % 97});
    if (t % 250 == 0) client->PushWatermark(t);
  }

  // The tap can be removed at any time — no redeployment, the sums query
  // keeps running undisturbed.
  clock.SetMs(2500);
  client->Cancel(q_tap).ok();
  client->Pump(true);
  std::printf("\ncancelled the tap; streaming more data...\n");
  for (int t = 2510; t < 3200; t += 10) {
    clock.SetMs(t);
    client->Push(StreamId::kA, t, Row{t % 3, t % 97});
    if (t % 250 == 0) client->PushWatermark(t);
  }

  client->FinishAndWait();
  const auto metrics = client->MetricsSnapshot();
  auto outputs_of = [&metrics](QueryId q) -> long long {
    auto it = metrics.queries.find(q);
    return it == metrics.queries.end() ? 0 : it->second.records_emitted;
  };
  std::printf("\ntap results: %lld rows, sums results: %lld rows\n",
              outputs_of(q_tap), outputs_of(q_sums));
  return 0;
}
