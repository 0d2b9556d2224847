#include "shard/router.h"

#include <gtest/gtest.h>

#include <map>
#include <mutex>
#include <set>
#include <utility>
#include <vector>

#include "core/astream.h"
#include "harness/reference.h"

namespace astream::shard {
namespace {

using core::AStreamJob;
using core::CmpOp;
using core::Predicate;
using core::QueryDescriptor;
using core::QueryId;
using core::QueryKind;
using harness::AddToMultiset;
using harness::RowMultiset;
using spe::Row;

JobConfig InlineConfig(ManualClock* clock, int shards, int slots = 8) {
  JobConfig config;
  config.job.topology = AStreamJob::TopologyKind::kJoin;
  config.job.parallelism = 1;
  config.job.clock = clock;
  config.job.session.batch_size = 1;
  config.shards = shards;
  config.slots = slots;
  return config;
}

QueryDescriptor PassAllSelection() {
  QueryDescriptor d;
  d.kind = QueryKind::kSelection;
  d.select_a = {Predicate{1, CmpOp::kGt, -1}};  // values are >= 0
  return d;
}

std::unique_ptr<ShardRouter> MakeStarted(JobConfig config) {
  auto router = std::move(ShardRouter::Create(std::move(config))).value();
  EXPECT_TRUE(router->Start().ok());
  return router;
}

TEST(ShardRouterTest, RoutesByKeyAndDeliversEachRowOnce) {
  ManualClock clock;
  auto router = MakeStarted(InlineConfig(&clock, 4));
  std::map<QueryId, std::multiset<std::pair<spe::Value, spe::Value>>> outputs;
  router->SetResultCallback([&](QueryId id, const spe::Record& r) {
    outputs[id].insert({r.row.At(0), r.row.At(1)});
  });
  auto id = router->Submit(PassAllSelection());
  ASSERT_TRUE(id.ok());
  router->Pump(true);

  std::multiset<std::pair<spe::Value, spe::Value>> pushed;
  for (spe::Value key = 0; key <= 20; ++key) {
    clock.SetMs(10 + key);
    ASSERT_EQ(router->Push(StreamId::kA, 10 + key, Row{key, key * 3}),
              core::PushResult::kAccepted);
    pushed.insert({key, key * 3});
  }
  EXPECT_TRUE(router->FinishAndWait().ok());
  // Every row delivered exactly once — routed to one shard, emitted by
  // its owner, never duplicated by the fan-out.
  EXPECT_EQ(outputs[*id], pushed);
}

TEST(ShardRouterTest, FanOutAssignsOneConsistentId) {
  ManualClock clock;
  auto router = MakeStarted(InlineConfig(&clock, 3));
  auto first = router->Submit(PassAllSelection());
  ASSERT_TRUE(first.ok());
  router->Pump(true);
  auto second = router->Submit(PassAllSelection());
  ASSERT_TRUE(second.ok());
  router->Pump(true);
  // Deterministic sessions: ids advance in lock-step on every shard.
  EXPECT_EQ(*second, *first + 1);
  EXPECT_TRUE(router->Stop().ok());
}

TEST(ShardRouterTest, IdDivergenceRollsBackAndReportsInternal) {
  ManualClock clock;
  auto router = MakeStarted(InlineConfig(&clock, 2));
  // Desynchronize shard 1's session behind the router's back: its next
  // query id is now ahead of shard 0's.
  auto rogue = router->shard(1)->job()->Submit(PassAllSelection());
  ASSERT_TRUE(rogue.ok());
  router->shard(1)->job()->Pump(true);

  auto id = router->Submit(PassAllSelection());
  ASSERT_FALSE(id.ok());
  EXPECT_NE(id.status().ToString().find("assigned"), std::string::npos)
      << id.status().ToString();
  // The rollback succeeded (the pending creations were dropped), so the
  // router is NOT poisoned — no query was left half-registered.
  EXPECT_TRUE(router->Health().ok());
  EXPECT_TRUE(router->Stop().ok());
}

TEST(ShardRouterTest, CancelOfUnknownIdRejectsCleanly) {
  ManualClock clock;
  auto router = MakeStarted(InlineConfig(&clock, 2));
  // Shard 0 rejects first; nothing was applied anywhere.
  EXPECT_FALSE(router->Cancel(999).ok());
  EXPECT_TRUE(router->Health().ok());
  EXPECT_TRUE(router->Stop().ok());
}

TEST(ShardRouterTest, CancelDivergencePoisonsTheRouter) {
  ManualClock clock;
  auto router = MakeStarted(InlineConfig(&clock, 2));
  // A query that exists only on shard 0: shard 0 accepts the cancel,
  // shard 1 rejects it — the fan-out cannot be undone.
  auto rogue = router->shard(0)->job()->Submit(PassAllSelection());
  ASSERT_TRUE(rogue.ok());
  router->shard(0)->job()->Pump(true);

  const Status s = router->Cancel(*rogue);
  EXPECT_FALSE(s.ok());
  EXPECT_FALSE(router->Health().ok());
  // Every subsequent control operation reports the poisoned state.
  EXPECT_FALSE(router->Submit(PassAllSelection()).ok());
  EXPECT_TRUE(router->Stop().ok());
}

TEST(ShardRouterTest, KillRequiresThreadedEngine) {
  ManualClock clock;
  auto router = MakeStarted(InlineConfig(&clock, 2));
  const Status s = router->KillShard(1, Status::Internal("chaos"));
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("threaded"), std::string::npos);
  EXPECT_TRUE(router->Stop().ok());
}

TEST(ShardRouterTest, ReshardValidation) {
  ManualClock clock;
  // 2 shards over 2 slots: each shard owns exactly one slot.
  auto router = MakeStarted(InlineConfig(&clock, 2, /*slots=*/2));
  EXPECT_FALSE(router->SplitShard(0).ok());  // nothing to split
  EXPECT_FALSE(router->MoveShard(5).ok());   // no such shard
  EXPECT_FALSE(router->SplitShard(-1).ok());
  EXPECT_TRUE(router->Stop().ok());
}

TEST(ShardRouterTest, SplitAndMoveUpdatePlanAndPause) {
  ManualClock clock;
  auto router = MakeStarted(InlineConfig(&clock, 2, /*slots=*/8));
  const auto before = router->plan();
  ASSERT_TRUE(router->SplitShard(0).ok());
  EXPECT_EQ(router->num_shards(), 3);
  EXPECT_GE(router->last_reshard_pause_ms(), 0);
  const auto after_split = router->plan();
  EXPECT_EQ(after_split->version, before->version + 1);
  EXPECT_FALSE(after_split->SlotsOwnedBy(2).empty());

  ASSERT_TRUE(router->MoveShard(1).ok());
  EXPECT_EQ(router->num_shards(), 3);
  EXPECT_EQ(router->plan()->version, after_split->version + 1);
  EXPECT_TRUE(router->Health().ok());
  EXPECT_TRUE(router->Stop().ok());
}

// After a split both halves restore the full pre-split state and both
// re-emit every surviving window; the egress filter keeps the owner's copy
// and counts the other in `shard.egress_dropped`, so the merged metrics —
// which keep the drained incarnation's series — still add up to exactly
// what the result callback saw over the whole run.
TEST(ShardRouterTest, SplitEgressDropsReconcileMergedOutputs) {
  ManualClock clock;
  JobConfig config = InlineConfig(&clock, 1, /*slots=*/8);
  config.job.topology = AStreamJob::TopologyKind::kAggregation;
  auto router = MakeStarted(std::move(config));
  int64_t delivered = 0;
  router->SetResultCallback(
      [&](QueryId, const spe::Record&) { ++delivered; });
  QueryDescriptor agg;
  agg.kind = QueryKind::kAggregation;
  agg.window = spe::WindowSpec::Tumbling(100);
  agg.agg = {spe::AggKind::kSum, 1};
  ASSERT_TRUE(router->Submit(agg).ok());
  router->Pump(true);

  // Built from a vector: the initializer-list constructor inlined here
  // trips GCC 12's -Wfree-nonheap-object false positive.
  auto row = [](TimestampMs t) {
    return Row(std::vector<spe::Value>{t % 16, t});
  };
  // The first window completes before the split; the second is still open
  // when shard 0 is split, so both halves hold (and later emit) it.
  for (TimestampMs t = 10; t < 160; ++t) {
    clock.SetMs(t);
    router->Push(StreamId::kA, t, row(t));
  }
  router->PushWatermark(150);
  EXPECT_GT(delivered, 0);
  ASSERT_TRUE(router->SplitShard(0).ok());
  for (TimestampMs t = 160; t < 260; ++t) {
    clock.SetMs(t);
    router->Push(StreamId::kA, t, row(t));
  }
  // A later move retires one of the halves, drops and all.
  ASSERT_TRUE(router->MoveShard(1).ok());
  for (TimestampMs t = 260; t < 360; ++t) {
    clock.SetMs(t);
    router->Push(StreamId::kA, t, row(t));
  }
  ASSERT_TRUE(router->FinishAndWait().ok());

  const auto merged = router->MetricsSnapshot();
  int64_t emitted = 0;
  for (const auto& [id, series] : merged.queries) {
    emitted += series.records_emitted;
  }
  const int64_t dropped = merged.counters.at("shard.egress_dropped");
  EXPECT_GT(dropped, 0);
  EXPECT_EQ(emitted - dropped, delivered);
}

// Drives `rounds` rounds of three pushes and a watermark, then Submit of a
// fresh selection, Cancel of the previous round's one and Pump(true), on
// any target with the AStreamJob / ShardRouter control surface. `push`
// adapts the stream argument (AStreamJob takes an int).
template <typename Target, typename PushFn>
std::map<QueryId, RowMultiset> RunControlRounds(Target* target,
                                                ManualClock* clock,
                                                PushFn push, int rounds) {
  std::map<QueryId, RowMultiset> outputs;
  std::mutex mu;
  target->SetResultCallback([&](QueryId id, const spe::Record& r) {
    std::lock_guard<std::mutex> lock(mu);
    AddToMultiset(&outputs[id], r.event_time, r.row);
  });
  clock->SetMs(0);
  auto standing = target->Submit(PassAllSelection());
  EXPECT_TRUE(standing.ok());
  target->Pump(true);
  QueryId previous = -1;
  for (int round = 0; round < rounds; ++round) {
    const TimestampMs t = 1 + 2 * round;
    clock->SetMs(t);
    for (int i = 0; i < 3; ++i) {
      const spe::Value key = (round * 3 + i) % 13;
      push(target, t, Row(std::vector<spe::Value>{key, (round * 7 + i) % 100}));
    }
    target->PushWatermark(t - 1);
    QueryDescriptor d;
    d.kind = QueryKind::kSelection;
    d.select_a = {Predicate{1, CmpOp::kGt, round % 50}};
    auto id = target->Submit(d);
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    if (previous >= 0) {
      EXPECT_TRUE(target->Cancel(previous).ok());
    }
    target->Pump(true);
    previous = id.ok() ? *id : -1;
  }
  EXPECT_TRUE(target->FinishAndWait().ok());
  std::lock_guard<std::mutex> lock(mu);
  return outputs;
}

// Every Submit, Cancel and Pump quiesces both shards right after pushes
// landed, so the control thread parks on the pumps' wake thousands of
// times, and each pump parks on its empty ring between rounds. No wait has
// a timed fallback: a lost wakeup hangs here and the ctest TIMEOUT fails
// the suite. The merged outputs must equal one sync job's.
TEST(ShardRouterTest, ThreadedControlRoundsMatchSyncReference) {
  constexpr int kRounds = 2000;
  std::map<QueryId, RowMultiset> reference;
  {
    ManualClock clock;
    auto job =
        std::move(AStreamJob::Create(InlineConfig(&clock, 1).job)).value();
    ASSERT_TRUE(job->Start().ok());
    reference = RunControlRounds(
        job.get(), &clock,
        [](AStreamJob* j, TimestampMs t, Row row) {
          j->Push(0, t, std::move(row));
        },
        kRounds);
  }
  ManualClock clock;
  JobConfig config = InlineConfig(&clock, 2);
  config.shard_threads = true;
  config.ingress_capacity = 4;
  auto router = MakeStarted(std::move(config));
  const auto sharded = RunControlRounds(
      router.get(), &clock,
      [](ShardRouter* r, TimestampMs t, Row row) {
        EXPECT_EQ(r->Push(StreamId::kA, t, std::move(row)),
                  core::PushResult::kAccepted);
      },
      kRounds);
  // Most rounds' selections match a row pushed while they were live.
  ASSERT_GT(reference.size(), static_cast<size_t>(kRounds) / 2);
  EXPECT_EQ(reference, sharded);
}

// The result callback is replaced while three threaded shards deliver:
// every row reaches exactly one of the two callbacks, rows pushed after the
// swap reach the new one, and the total reconciles with the merged
// metrics (Σ records_emitted − shard.egress_dropped).
TEST(ShardRouterTest, ReplacingCallbackMidStreamDeliversEachRowOnce) {
  constexpr int kRows = 6000;
  ManualClock clock;
  JobConfig config = InlineConfig(&clock, 3);
  config.shard_threads = true;
  auto router = MakeStarted(std::move(config));
  std::mutex mu;
  std::multiset<spe::Value> first;
  std::multiset<spe::Value> second;
  router->SetResultCallback([&](QueryId, const spe::Record& r) {
    std::lock_guard<std::mutex> lock(mu);
    first.insert(r.row.At(1));
  });
  ASSERT_TRUE(router->Submit(PassAllSelection()).ok());
  router->Pump(true);

  auto push = [&](int i) {
    const TimestampMs t = 1 + i;
    clock.SetMs(t);
    ASSERT_EQ(router->Push(StreamId::kA, t,
                           Row(std::vector<spe::Value>{i % 17, i})),
              core::PushResult::kAccepted);
  };
  for (int i = 0; i < kRows / 2; ++i) push(i);
  router->SetResultCallback([&](QueryId, const spe::Record& r) {
    std::lock_guard<std::mutex> lock(mu);
    second.insert(r.row.At(1));
  });
  for (int i = kRows / 2; i < kRows; ++i) push(i);
  ASSERT_TRUE(router->FinishAndWait().ok());

  std::lock_guard<std::mutex> lock(mu);
  std::multiset<spe::Value> all = first;
  all.insert(second.begin(), second.end());
  ASSERT_EQ(all.size(), static_cast<size_t>(kRows));
  for (int i = 0; i < kRows; ++i) EXPECT_EQ(all.count(i), 1u) << i;
  for (int i = kRows / 2; i < kRows; ++i) EXPECT_EQ(second.count(i), 1u) << i;

  const auto merged = router->MetricsSnapshot();
  int64_t emitted = 0;
  for (const auto& [id, series] : merged.queries) {
    emitted += series.records_emitted;
  }
  EXPECT_EQ(emitted - merged.counters.at("shard.egress_dropped"),
            static_cast<int64_t>(first.size() + second.size()));
}

}  // namespace
}  // namespace astream::shard
