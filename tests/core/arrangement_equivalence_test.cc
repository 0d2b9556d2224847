// Cross-window state sharing equivalence (DESIGN.md §12): the arrangement
// layer + factor-window rewriting must be invisible in the results. A
// heterogeneous-window fleet (many distinct specs over one stream, with
// churn) is run with sharing on, sharing off (the per-query-store
// reference mode), under a spill budget, across a checkpoint/restore
// crash, and threaded — every leg must produce per-query outputs
// byte-identical to the sync reference evaluator and to each other.

#include <gtest/gtest.h>

#include <map>
#include <mutex>
#include <vector>

#include "core/astream.h"
#include "harness/reference.h"
#include "tests/core/e2e_harness.h"

namespace astream::core {
namespace {

using harness::RowMultiset;
using spe::Row;
using Kind = AStreamJob::TopologyKind;
using OptionsMutator = std::function<void(AStreamJob::Options*)>;

QueryDescriptor AggQuery(spe::WindowSpec window,
                         spe::AggKind agg = spe::AggKind::kSum) {
  QueryDescriptor d;
  d.kind = QueryKind::kAggregation;
  d.window = window;
  d.agg = {agg, 1};
  return d;
}

QueryDescriptor JoinQuery(spe::WindowSpec window) {
  QueryDescriptor d;
  d.kind = QueryKind::kJoin;
  d.window = window;
  return d;
}

OptionsMutator Sharing(bool on) {
  return [on](AStreamJob::Options* o) { o->share_arrangements = on; };
}

/// The heterogeneous aggregation fleet: five distinct (length, slide)
/// specs submitted in ONE batch (same origin → composable specs share a
/// lattice), four composable from the period-10 lattice, one non-divisor
/// fallback — plus mid-stream churn. Every run verifies against the
/// offline reference; the returned outputs let callers also compare runs
/// against each other byte for byte.
std::map<QueryId, RowMultiset> RunHeterogeneousAggFleet(
    const OptionsMutator& mutate, AStreamJob::OperatorStats* stats = nullptr) {
  E2EHarness h(Kind::kAggregation, 1, StoreMode::kGrouped, true, mutate);
  h.Submit(AggQuery(spe::WindowSpec::Sliding(60, 10)), 0);
  h.Submit(AggQuery(spe::WindowSpec::Sliding(30, 10), spe::AggKind::kMax), 0);
  h.Submit(AggQuery(spe::WindowSpec::Sliding(40, 20), spe::AggKind::kAvg), 0);
  const QueryId doomed = h.Submit(AggQuery(spe::WindowSpec::Sliding(7, 3)), 0);
  h.Submit(AggQuery(spe::WindowSpec::Tumbling(20), spe::AggKind::kCount), 0);
  h.Flush(0);
  for (int i = 0; i < 100; ++i) {
    h.Push(0, 2 + i * 2, Row{i % 5, i});  // up to t = 200
  }
  h.Watermark(150);
  h.Delete(doomed, 210);  // churn: the fallback query drains mid-stream
  h.Create(AggQuery(spe::WindowSpec::Sliding(50, 10)), 220);  // late joiner
  for (int i = 0; i < 100; ++i) {
    h.Push(0, 222 + i * 2, Row{i % 5, i + 100});
  }
  h.Watermark(500);
  if (stats != nullptr) *stats = h.job()->CollectStats();
  h.FinishAndVerify();
  return h.outputs();
}

TEST(ArrangementEquivalenceTest, HeterogeneousFleetSharingOnOffIdentical) {
  AStreamJob::OperatorStats on_stats;
  const auto on = RunHeterogeneousAggFleet(Sharing(true), &on_stats);
  // The rewrite actually engaged: later specs rode the first lattice, and
  // trigger composition hit the memo.
  EXPECT_GT(on_stats.factor_rewrites, 0);
  EXPECT_GT(on_stats.factor_reuses, 0);
  EXPECT_GT(on_stats.factor_fallbacks, 0);  // the 7s/3s spec
  EXPECT_GT(on_stats.arrange_memo_hits, 0);

  AStreamJob::OperatorStats off_stats;
  const auto off = RunHeterogeneousAggFleet(Sharing(false), &off_stats);
  EXPECT_EQ(off_stats.factor_rewrites, 0);  // rewrite disabled end to end
  EXPECT_EQ(on, off);
  ASSERT_FALSE(on.empty());
}

/// Join fleet: two windows over the same pair of streams sharing one
/// lattice, plus churn. `cols` widens the tuples for the spill leg.
std::map<QueryId, RowMultiset> RunJoinFleet(const OptionsMutator& mutate,
                                            int cols = 2,
                                            int64_t* spills = nullptr) {
  E2EHarness h(Kind::kJoin, 1, StoreMode::kGrouped, true, mutate);
  h.Submit(JoinQuery(spe::WindowSpec::Sliding(60, 20)), 0);
  const QueryId doomed =
      h.Submit(JoinQuery(spe::WindowSpec::Sliding(40, 20)), 0);
  h.Flush(0);
  auto make_row = [&](int key, int val) {
    std::vector<spe::Value> values(static_cast<size_t>(cols), val);
    values[0] = key;
    return Row(std::move(values));
  };
  for (int i = 0; i < 80; ++i) {  // up to t ≈ 240
    h.Push(0, 2 + i * 3, make_row(i % 4, i));
    h.Push(1, 3 + i * 3, make_row(i % 4, i + 500));
  }
  h.Watermark(150);
  h.Delete(doomed, 250);
  for (int i = 0; i < 40; ++i) {
    h.Push(0, 260 + i * 3, make_row(i % 4, i));
    h.Push(1, 261 + i * 3, make_row(i % 4, i + 900));
  }
  h.Watermark(500);
  if (spills != nullptr) {
    const auto snapshot = h.job()->MetricsSnapshot();
    const auto it = snapshot.histograms.find("storage.spill_ms");
    *spills = it == snapshot.histograms.end() ? 0 : it->second.count;
  }
  h.FinishAndVerify();
  return h.outputs();
}

TEST(ArrangementEquivalenceTest, JoinFleetSharingOnOffIdentical) {
  const auto on = RunJoinFleet(Sharing(true));
  const auto off = RunJoinFleet(Sharing(false));
  EXPECT_EQ(on, off);
  ASSERT_FALSE(on.empty());
}

TEST(ArrangementEquivalenceTest, SpillBudgetKeepsOutputsIdentical) {
  // Wide tuples (~2 KiB each) against a small budget force the join
  // arrangement to shed slices mid-run; outputs must not move.
  const int kCols = 256;
  const auto unbudgeted = RunJoinFleet(Sharing(true), kCols);
  int64_t spills = 0;
  const auto budgeted = RunJoinFleet(
      [](AStreamJob::Options* o) {
        o->share_arrangements = true;
        o->storage.memory_budget_bytes = 256 << 10;
      },
      kCols, &spills);
  EXPECT_EQ(unbudgeted, budgeted);
  EXPECT_GT(spills, 0) << "budget never engaged — widen the rows";
}

// --- Checkpoint/restore: arrangements round-trip the run-file format ----

std::map<QueryId, RowMultiset> RunAggWithOptionalCrash(bool crash) {
  ManualClock clock;
  auto make_job = [&clock] {
    AStreamJob::Options options;
    options.topology = Kind::kAggregation;
    options.parallelism = 1;
    options.threaded = false;
    options.clock = &clock;
    options.session.batch_size = 1;
    options.share_arrangements = true;
    return std::move(AStreamJob::Create(options)).value();
  };
  std::map<QueryId, RowMultiset> outputs;
  auto sink = [&outputs](QueryId id, const spe::Record& record) {
    harness::AddToMultiset(&outputs[id], record.event_time, record.row);
  };

  auto job = make_job();
  EXPECT_TRUE(job->Start().ok());
  job->SetResultCallback(sink);
  clock.SetMs(0);
  EXPECT_TRUE(job->Submit(AggQuery(spe::WindowSpec::Sliding(60, 10))).ok());
  EXPECT_TRUE(
      job->Submit(AggQuery(spe::WindowSpec::Sliding(30, 10), spe::AggKind::kMax))
          .ok());
  EXPECT_TRUE(job->Submit(AggQuery(spe::WindowSpec::Sliding(7, 3))).ok());
  job->Pump(true);

  auto push_range = [&](AStreamJob* j, int from, int to) {
    for (int i = from; i < to; ++i) {
      const TimestampMs t = 2 + i * 2;
      clock.SetMs(t);
      j->Push(0, t, Row{i % 5, i});
      if (i % 25 == 24) j->PushWatermark(t - 10);
    }
  };
  push_range(job.get(), 0, 100);

  if (crash) {
    const int64_t cp = job->TriggerCheckpoint();
    auto snap = job->checkpoints().Get(cp);
    EXPECT_NE(snap, nullptr);
    EXPECT_TRUE(snap->complete);
    const spe::CheckpointStore::Checkpoint checkpoint = *snap;
    job->Stop();  // crash: post-barrier state is lost

    job = make_job();
    EXPECT_TRUE(job->Start().ok());
    EXPECT_TRUE(job->RestoreFrom(checkpoint).ok());
    job->SetResultCallback(sink);
  }

  push_range(job.get(), 100, 200);
  clock.SetMs(500);
  job->PushWatermark(500);
  EXPECT_TRUE(job->FinishAndWait().ok());
  return outputs;
}

TEST(ArrangementEquivalenceTest, CheckpointRestoreRoundTripsArrangements) {
  const auto uninterrupted = RunAggWithOptionalCrash(false);
  const auto recovered = RunAggWithOptionalCrash(true);
  EXPECT_EQ(uninterrupted, recovered);
  ASSERT_FALSE(uninterrupted.empty());
}

// --- Threaded: the multi-reader cursor path under real concurrency ------
// (Name is the TSan filter anchor: *ThreadedHeterogeneous*.)

std::map<QueryId, RowMultiset> RunThreadedFleet(bool threaded, int par) {
  ManualClock clock;
  AStreamJob::Options options;
  options.topology = Kind::kAggregation;
  options.parallelism = par;
  options.threaded = threaded;
  options.clock = &clock;
  options.session.batch_size = 1;
  options.share_arrangements = true;
  auto job = std::move(AStreamJob::Create(options)).value();
  EXPECT_TRUE(job->Start().ok());
  std::mutex mutex;
  std::map<QueryId, RowMultiset> outputs;
  job->SetResultCallback([&](QueryId id, const spe::Record& record) {
    std::lock_guard<std::mutex> lock(mutex);
    harness::AddToMultiset(&outputs[id], record.event_time, record.row);
  });
  clock.SetMs(0);
  EXPECT_TRUE(job->Submit(AggQuery(spe::WindowSpec::Sliding(60, 10))).ok());
  EXPECT_TRUE(
      job->Submit(AggQuery(spe::WindowSpec::Sliding(30, 10), spe::AggKind::kMax))
          .ok());
  EXPECT_TRUE(job->Submit(AggQuery(spe::WindowSpec::Sliding(7, 3))).ok());
  job->Pump(true);
  for (int i = 0; i < 300; ++i) {
    const TimestampMs t = 2 + i * 2;
    clock.SetMs(t);
    job->Push(0, t, Row{i % 7, i});
    if (i % 40 == 39) job->PushWatermark(t - 10);
  }
  clock.SetMs(700);
  job->PushWatermark(700);
  EXPECT_TRUE(job->FinishAndWait().ok());
  std::lock_guard<std::mutex> lock(mutex);
  return outputs;
}

TEST(ArrangementEquivalenceTest, ThreadedHeterogeneousFleetMatchesSync) {
  const auto sync = RunThreadedFleet(false, 3);
  const auto threaded = RunThreadedFleet(true, 3);
  EXPECT_EQ(sync, threaded);
  ASSERT_FALSE(sync.empty());
}

}  // namespace
}  // namespace astream::core
