// Out-of-core equivalence: a job whose live join state far exceeds an
// 8 MiB budget must spill, keep its resident footprint bounded by the
// budget (plus one slice of slack), and still produce per-query outputs
// identical to an unbudgeted run. With spilling disabled, the same
// pressure surfaces as PushResult::kBackpressure instead.

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "core/astream.h"
#include "harness/reference.h"

namespace astream::core {
namespace {

using harness::AddToMultiset;
using harness::RowMultiset;
using spe::Row;
using spe::Value;

constexpr int kCols = 256;      // ~2 KiB of payload per tuple
constexpr int kRows = 12000;    // ~25 MiB of live state, watermarks late

Row WideRow(int i) {
  std::vector<Value> values(kCols, i);
  values[0] = i / 2;  // join key: rows 2k (A) and 2k+1 (B) pair up exactly
  values[1] = i % 100;
  return Row(std::move(values));
}

AStreamJob::Options SpillOptions(Clock* clock, int64_t budget_bytes,
                                 bool allow_spill) {
  AStreamJob::Options options;
  options.topology = AStreamJob::TopologyKind::kJoin;
  options.parallelism = 1;
  options.threaded = false;
  options.clock = clock;
  options.session.batch_size = 1;
  options.storage.memory_budget_bytes = budget_bytes;
  options.storage.allow_spill = allow_spill;
  return options;
}

struct WorkloadResult {
  std::map<QueryId, RowMultiset> outputs;
  int64_t max_resident = 0;
  obs::MetricsRegistry::Snapshot metrics;
};

// One fixed workload: two join queries over wide tuples, watermarks every
// 2000 tuples (state accumulates deep between them), deterministic sync
// runner — the only variable across runs is the memory budget.
WorkloadResult RunWorkload(int64_t budget_bytes, bool* backpressured =
                                                     nullptr) {
  ManualClock clock;
  auto job =
      std::move(AStreamJob::Create(SpillOptions(&clock, budget_bytes,
                                                backpressured == nullptr)))
          .value();
  EXPECT_TRUE(job->Start().ok());

  WorkloadResult result;
  job->SetResultCallback([&](QueryId id, const spe::Record& record) {
    AddToMultiset(&result.outputs[id], record.event_time, record.row);
  });

  QueryDescriptor d;
  d.kind = QueryKind::kJoin;
  d.window = spe::WindowSpec::Sliding(3000, 1000);
  d.select_a = {Predicate{1, CmpOp::kLt, 1000}};  // matches everything
  EXPECT_TRUE(job->Submit(d).ok());
  QueryDescriptor narrow = d;
  narrow.window = spe::WindowSpec::Sliding(200, 100);
  narrow.select_a = {Predicate{1, CmpOp::kLt, 50}};
  EXPECT_TRUE(job->Submit(narrow).ok());
  clock.SetMs(0);
  job->Pump(true);

  for (int i = 0; i < kRows; ++i) {
    const TimestampMs t = 1 + i;
    clock.SetMs(t);
    const PushResult push = (i % 2 == 0) ? job->Push(0, t, WideRow(i))
                                         : job->Push(1, t, WideRow(i));
    if (push == PushResult::kBackpressure && backpressured != nullptr) {
      *backpressured = true;
      break;
    }
    EXPECT_NE(push, PushResult::kBackpressure) << "tuple " << i;
    if (i % 2500 == 2499) job->PushWatermark(t - 500);
    if (i % 500 == 499) {
      const auto snapshot = job->MetricsSnapshot();
      const auto it = snapshot.gauges.find("storage.resident_bytes");
      if (it != snapshot.gauges.end() && it->second > result.max_resident) {
        result.max_resident = it->second;
      }
    }
  }
  EXPECT_TRUE(job->FinishAndWait().ok());
  result.metrics = job->MetricsSnapshot();
  return result;
}

int64_t SpillCount(const obs::MetricsRegistry::Snapshot& snapshot) {
  const auto it = snapshot.histograms.find("storage.spill_ms");
  return it == snapshot.histograms.end() ? 0 : it->second.count;
}

TEST(SpillEquivalenceTest, BudgetedRunMatchesUnbudgetedByteForByte) {
  // Control: no storage engine at all (the pre-out-of-core code path).
  const WorkloadResult unbudgeted = RunWorkload(-1);
  ASSERT_FALSE(unbudgeted.outputs.empty());

  // A budget far above the workload: the governor watches but never
  // spills; this leg measures the true live-state peak. Scoped so its
  // (large) output multiset is freed before the budgeted leg runs.
  constexpr int64_t kBudget = 8 << 20;
  {
    const WorkloadResult huge = RunWorkload(1LL << 40);
    EXPECT_EQ(SpillCount(huge.metrics), 0);
    ASSERT_GT(huge.max_resident, kBudget + (2 << 20))
        << "workload too small to exercise the budget";
    EXPECT_EQ(huge.outputs, unbudgeted.outputs);
  }

  // The 8 MiB leg must spill — and still match the control exactly.
  const WorkloadResult budgeted = RunWorkload(kBudget);
  EXPECT_GE(SpillCount(budgeted.metrics), 1);
  EXPECT_EQ(budgeted.outputs, unbudgeted.outputs);

  // Resident state stays under budget + one slice of slack at every
  // sampled point (enforcement granularity is the coldest slice).
  const int64_t slack = 4 << 20;
  EXPECT_GT(budgeted.max_resident, 0);
  EXPECT_LE(budgeted.max_resident, kBudget + slack);

  // Spill accounting reached the obs layer.
  EXPECT_GE(budgeted.metrics.gauges.at("storage.budget_bytes"), kBudget);
}

TEST(SpillEquivalenceTest, NoSpillBudgetSurfacesAsBackpressure) {
  bool backpressured = false;
  const WorkloadResult result = RunWorkload(1 << 20, &backpressured);
  EXPECT_TRUE(backpressured);
  // Nothing was ever written to disk.
  EXPECT_EQ(SpillCount(result.metrics), 0);
  EXPECT_GE(result.metrics.counters.at("job.push_backpressure"), 1);
}

}  // namespace
}  // namespace astream::core
