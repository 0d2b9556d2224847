#include "shard/client.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <utility>

#include "core/job_config.h"
#include "core/query_builder.h"
#include "spe/state.h"

namespace astream {
namespace {

using core::AStreamJob;
using core::CmpOp;
using core::Predicate;
using core::QueryDescriptor;
using core::QueryId;
using core::QueryKind;
using spe::Row;

JobConfig ValidBase() {
  JobConfig config;
  config.job.topology = AStreamJob::TopologyKind::kJoin;
  config.job.session.batch_size = 1;
  config.slots = 8;
  return config;
}

void ExpectRejected(JobConfig config, const std::string& needle) {
  const Result<JobConfig> validated = JobConfig::Validated(std::move(config));
  ASSERT_FALSE(validated.ok()) << "expected rejection mentioning " << needle;
  EXPECT_NE(validated.status().ToString().find(needle), std::string::npos)
      << validated.status().ToString();
}

TEST(JobConfigTest, ValidConfigPasses) {
  EXPECT_TRUE(JobConfig::Validated(ValidBase()).ok());
}

// Supervised shards replay an N-stream source log, so supervision
// composes with the n-ary multiway topology.
TEST(JobConfigTest, SupervisedMultiwayValidates) {
  JobConfig c = ValidBase();
  c.supervised = true;
  c.job.topology = AStreamJob::TopologyKind::kMultiway;
  c.job.num_streams = 3;
  const Result<JobConfig> validated = JobConfig::Validated(std::move(c));
  EXPECT_TRUE(validated.ok()) << validated.status().ToString();
}

TEST(JobConfigTest, RejectsEveryInvalidKnob) {
  {
    JobConfig c = ValidBase();
    c.shards = 0;
    ExpectRejected(std::move(c), "shards");
  }
  {
    JobConfig c = ValidBase();
    c.shards = 4;
    c.slots = 3;
    ExpectRejected(std::move(c), "slots");
  }
  {
    JobConfig c = ValidBase();
    c.shard_threads = true;
    c.ingress_capacity = 100;  // not a power of two
    ExpectRejected(std::move(c), "ingress_capacity");
  }
  {
    JobConfig c = ValidBase();
    c.state_dir = "/tmp/anywhere";  // durable dir without supervision
    ExpectRejected(std::move(c), "supervised");
  }
  {
    spe::CheckpointStore store;
    JobConfig c = ValidBase();
    c.supervised = true;
    c.job.checkpoint_store = &store;
    ExpectRejected(std::move(c), "checkpoint_store");
  }
  {
    JobConfig c = ValidBase();
    c.supervisor.max_restart_attempts = 0;
    ExpectRejected(std::move(c), "max_restart_attempts");
  }
  {
    JobConfig c = ValidBase();
    c.job.parallelism = 0;
    ExpectRejected(std::move(c), "parallelism");
  }
  {
    JobConfig c = ValidBase();
    c.job.batch_size = 0;
    ExpectRejected(std::move(c), "batch_size");
  }
  {
    JobConfig c = ValidBase();
    c.job.max_join_stages = 0;
    ExpectRejected(std::move(c), "max_join_stages");
  }
  {
    JobConfig c = ValidBase();
    c.job.session.batch_size = 0;
    ExpectRejected(std::move(c), "session.batch_size");
  }
  {
    JobConfig c = ValidBase();
    c.job.checkpoint_retention = 0;
    ExpectRejected(std::move(c), "checkpoint_retention");
  }
  {
    JobConfig c = ValidBase();
    c.job.first_checkpoint_id = 0;
    ExpectRejected(std::move(c), "first_checkpoint_id");
  }
}

TEST(JobConfigTest, SharedValidatorGuardsAStreamJobCreate) {
  // AStreamJob::Create funnels through the same validator, so engine
  // knobs that used to slip through (e.g. batch_size = 0) now fail fast.
  AStreamJob::Options options;
  options.batch_size = 0;
  EXPECT_FALSE(AStreamJob::Create(options).ok());
  options.batch_size = 1;
  options.session.batch_size = 0;
  EXPECT_FALSE(AStreamJob::Create(options).ok());
}

TEST(JobConfigTest, BuilderSetsEveryKnob) {
  ManualClock clock;
  Result<JobConfig> built =
      JobConfigBuilder(AStreamJob::TopologyKind::kJoin)
          .Parallelism(2)
          .Threaded(true)
          .BatchSize(16)
          .SessionBatch(5, 250)
          .MaxJoinStages(2)
          .Clock(&clock)
          .MemoryBudget(1 << 20)
          .Shards(4)
          .Slots(16)
          .ShardThreads(true)
          .IngressCapacity(512)
          .Supervised(true)
          .StateDir("/tmp/astream_builder_test")
          .Build();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const JobConfig& c = *built;
  EXPECT_EQ(c.job.topology, AStreamJob::TopologyKind::kJoin);
  EXPECT_EQ(c.job.parallelism, 2);
  EXPECT_TRUE(c.job.threaded);
  EXPECT_EQ(c.job.batch_size, 16u);
  EXPECT_EQ(c.job.session.batch_size, 5u);
  EXPECT_EQ(c.job.session.max_timeout_ms, 250);
  EXPECT_EQ(c.job.max_join_stages, 2);
  EXPECT_EQ(c.job.clock, &clock);
  EXPECT_EQ(c.job.storage.memory_budget_bytes, 1 << 20);
  EXPECT_EQ(c.shards, 4);
  EXPECT_EQ(c.slots, 16);
  EXPECT_TRUE(c.shard_threads);
  EXPECT_EQ(c.ingress_capacity, 512u);
  EXPECT_TRUE(c.supervised);
  EXPECT_EQ(c.state_dir, "/tmp/astream_builder_test");
}

TEST(JobConfigTest, BuilderRejectsEagerly) {
  EXPECT_FALSE(JobConfigBuilder().Shards(0).Build().ok());
  EXPECT_FALSE(JobConfigBuilder().Shards(8).Slots(4).Build().ok());
}

TEST(ClientTest, CreateRejectsInvalidConfig) {
  JobConfig config = ValidBase();
  config.shards = -1;
  EXPECT_FALSE(Client::Create(std::move(config)).ok());
}

using Outputs = std::map<QueryId, std::multiset<std::pair<spe::Value, spe::Value>>>;

// Drives a tiny selection workload through the client's generic Push.
Outputs RunSmall(ManualClock* clock, int shards) {
  JobConfig config = ValidBase();
  config.job.clock = clock;
  config.shards = shards;
  auto client = std::move(Client::Create(std::move(config))).value();
  EXPECT_TRUE(client->Start().ok());
  Outputs outputs;
  client->SetResultCallback([&](QueryId id, const spe::Record& r) {
    outputs[id].insert({r.row.At(0), r.row.At(1)});
  });
  QueryDescriptor d;
  d.kind = QueryKind::kSelection;
  d.select_a = {Predicate{1, CmpOp::kGt, 10}};
  auto id = client->Submit(d);
  EXPECT_TRUE(id.ok());
  client->Pump(true);
  for (spe::Value key = 0; key < 24; ++key) {
    clock->SetMs(5 + key);
    const spe::Value value = key * 7 % 50;
    client->Push(StreamId::kA, 5 + key, Row{key, value});
    client->Push(StreamId::kB, 5 + key, Row{key, value + 1});
  }
  EXPECT_TRUE(client->FinishAndWait().ok());
  return outputs;
}

TEST(ClientTest, ShardCountIsInvisibleToGenericPush) {
  ManualClock clock_a;
  ManualClock clock_b;
  const Outputs one_shard = RunSmall(&clock_a, 1);
  const Outputs two_shards = RunSmall(&clock_b, 2);
  EXPECT_FALSE(one_shard.empty());
  EXPECT_EQ(one_shard, two_shards);
}

TEST(ClientTest, MergedMetricsSumAcrossShards) {
  ManualClock clock;
  JobConfig config = ValidBase();
  config.job.clock = &clock;
  config.shards = 2;
  auto client = std::move(Client::Create(std::move(config))).value();
  ASSERT_TRUE(client->Start().ok());
  int delivered = 0;
  client->SetResultCallback(
      [&](QueryId, const spe::Record&) { ++delivered; });
  QueryDescriptor d;
  d.kind = QueryKind::kSelection;
  d.select_a = {Predicate{1, CmpOp::kGt, -1}};
  ASSERT_TRUE(client->Submit(d).ok());
  client->Pump(true);
  for (spe::Value key = 0; key < 40; ++key) {
    clock.SetMs(5 + key);
    client->Push(StreamId::kA, 5 + key, Row{key, key});
  }
  ASSERT_TRUE(client->FinishAndWait().ok());
  EXPECT_EQ(delivered, 40);

  // The merged snapshot is the per-shard sum, key by key.
  const auto merged = client->MetricsSnapshot();
  const auto s0 = client->router()->shard(0)->MetricsSnapshot();
  const auto s1 = client->router()->shard(1)->MetricsSnapshot();
  ASSERT_FALSE(merged.counters.empty());
  for (const auto& [name, value] : merged.counters) {
    int64_t sum = 0;
    if (auto it = s0.counters.find(name); it != s0.counters.end()) {
      sum += it->second;
    }
    if (auto it = s1.counters.find(name); it != s1.counters.end()) {
      sum += it->second;
    }
    EXPECT_EQ(value, sum) << "counter " << name;
  }
  for (const auto& [name, value] : merged.histograms) {
    int64_t count = 0;
    if (auto it = s0.histograms.find(name); it != s0.histograms.end()) {
      count += it->second.count;
    }
    if (auto it = s1.histograms.find(name); it != s1.histograms.end()) {
      count += it->second.count;
    }
    EXPECT_EQ(value.count, count) << "histogram " << name;
  }

  // The merged per-query series counted every delivered record exactly
  // once; nothing was split, so the egress filter dropped nothing.
  int64_t emitted = 0;
  int64_t latencies = 0;
  for (const auto& [id, series] : merged.queries) {
    emitted += series.records_emitted;
    latencies += series.event_latency_ms.count;
  }
  EXPECT_EQ(emitted, 40);
  EXPECT_EQ(latencies, 40);
  EXPECT_EQ(merged.counters.at("shard.egress_dropped"), 0);
}

// Every OperatorStats field, for the field-wise merge check below.
#define ASTREAM_OPERATOR_STATS_FIELDS(X)                                    \
  X(queryset_nanos) X(fanout_nanos) X(bitset_ops) X(join_pairs_computed)    \
  X(join_pairs_reused) X(records_late) X(selection_records_in)              \
  X(selection_records_out) X(router_records_out) X(router_rows_shared)      \
  X(router_rows_copied) X(state_arena_bytes) X(reload_saves)                \
  X(arrange_memo_hits) X(arrange_memo_misses) X(arrange_memo_bytes)         \
  X(factor_rewrites) X(factor_reuses) X(factor_fallbacks)                   \
  X(mjoin_chains_computed) X(mjoin_chains_reused) X(subjoins_built)         \
  X(subjoins_attached) X(subjoin_nodes)

#define ASTREAM_COUNT_FIELD(f) +1
// A new OperatorStats field must join the list above.
static_assert(sizeof(AStreamJob::OperatorStats) ==
              (0 ASTREAM_OPERATOR_STATS_FIELDS(ASTREAM_COUNT_FIELD)) *
                  sizeof(int64_t));

TEST(ClientTest, CollectStatsMergesEveryFieldAcrossShards) {
  ManualClock clock;
  JobConfig config = ValidBase();
  config.job.topology = AStreamJob::TopologyKind::kMultiway;
  config.job.num_streams = 3;
  config.job.clock = &clock;
  // One changelog for the whole fleet: aligned windows share triggers.
  config.job.session.batch_size = 16;
  config.shards = 2;
  auto client = std::move(Client::Create(std::move(config))).value();
  ASSERT_TRUE(client->Start().ok());
  // Two 3-way joins over one core and a 2-way join on its prefix: the
  // later plans attach to the first one's sub-join, and the 3-way chain
  // reuses the memoized 2-way prefix on every shared trigger.
  for (int legs : {3, 3, 2}) {
    auto b = core::QueryBuilder::MultiwayJoin();
    for (int s = 0; s < legs; ++s) b.Input(s);
    b.TumblingWindow(60);
    auto q = b.Build();
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    ASSERT_TRUE(client->Submit(*q).ok());
  }
  client->Pump(true);
  for (TimestampMs t = 5; t < 400; ++t) {
    clock.SetMs(t);
    client->Push(static_cast<StreamId>(t % 3), t, Row{t / 3 % 6, t});
    if (t % 20 == 0) client->PushWatermark(t);
  }
  ASSERT_TRUE(client->FinishAndWait().ok());

  const AStreamJob::OperatorStats merged = client->CollectStats();
  const AStreamJob::OperatorStats s0 =
      client->router()->shard(0)->CollectStats();
  const AStreamJob::OperatorStats s1 =
      client->router()->shard(1)->CollectStats();
#define ASTREAM_EXPECT_SUM(f) EXPECT_EQ(merged.f, s0.f + s1.f) << #f;
  ASTREAM_OPERATOR_STATS_FIELDS(ASTREAM_EXPECT_SUM)
#undef ASTREAM_EXPECT_SUM
  // The multiway and memo counters the merge used to drop are live here.
  EXPECT_GT(merged.mjoin_chains_computed, 0);
  EXPECT_GT(merged.mjoin_chains_reused, 0);
  EXPECT_GT(merged.subjoins_attached, 0);
  EXPECT_GT(merged.arrange_memo_hits, 0);
}

#undef ASTREAM_COUNT_FIELD
#undef ASTREAM_OPERATOR_STATS_FIELDS

}  // namespace
}  // namespace astream
