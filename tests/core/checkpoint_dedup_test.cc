// Checkpointing CoW state (ROADMAP): snapshots dedup shared row reps —
// K stored rows fanned out from one payload cost one payload + K refs —
// and checkpoint bytes stay ~flat as query fan-out grows 1 -> 64, because
// the shared stores hold each tuple once regardless of how many queries
// its query-set fans it out to.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "core/astream.h"

namespace astream::core {
namespace {

using spe::Row;
using spe::Value;

constexpr int kCols = 256;

AStreamJob::Options JoinOptions(Clock* clock) {
  AStreamJob::Options options;
  options.topology = AStreamJob::TopologyKind::kJoin;
  options.parallelism = 1;
  options.threaded = false;
  options.clock = clock;
  options.session.batch_size = 1;
  return options;
}

QueryDescriptor JoinQuery() {
  QueryDescriptor d;
  d.kind = QueryKind::kJoin;
  d.window = spe::WindowSpec::Sliding(1000, 1000);
  d.select_a = {Predicate{1, CmpOp::kLt, 1000}};
  return d;
}

int64_t CheckpointBytes(AStreamJob* job) {
  const int64_t id = job->TriggerCheckpoint();
  EXPECT_GT(id, 0);
  auto checkpoint = job->checkpoints().LatestComplete();
  EXPECT_NE(checkpoint, nullptr);
  if (checkpoint == nullptr) return 0;
  EXPECT_EQ(checkpoint->id, id);
  int64_t bytes = 0;
  for (const auto& [key, state] : checkpoint->operator_state) {
    bytes += static_cast<int64_t>(state.size());
  }
  return bytes;
}

/// Stands up a join job, runs `queries` copies of the same windowed join,
/// feeds it via `push`, and returns the completed checkpoint's byte size.
int64_t RunAndMeasure(int queries,
                      const std::function<void(AStreamJob*)>& push) {
  ManualClock clock;
  auto job = std::move(AStreamJob::Create(JoinOptions(&clock))).value();
  EXPECT_TRUE(job->Start().ok());
  for (int q = 0; q < queries; ++q) {
    EXPECT_TRUE(job->Submit(JoinQuery()).ok());
  }
  clock.SetMs(0);
  job->Pump(true);
  push(job.get());
  const int64_t bytes = CheckpointBytes(job.get());
  EXPECT_TRUE(job->FinishAndWait().ok());
  return bytes;
}

TEST(CheckpointDedupTest, SharedRepSerializedOncePlusRefs) {
  // 300 copies of ONE CoW payload in the join store vs 300 distinct
  // payloads of the same width. Every copy shares one rep, so the
  // snapshot writes the 256-column payload once and 299 references.
  const int n = 300;
  const int64_t shared_bytes = RunAndMeasure(1, [&](AStreamJob* job) {
    std::vector<Value> values(kCols, 7);
    values[0] = 3;
    values[1] = 5;
    const Row row(std::move(values));
    for (int i = 0; i < n; ++i) {
      ASSERT_TRUE(Accepted(job->Push(0, 2 + i, row)));
    }
  });
  const int64_t distinct_bytes = RunAndMeasure(1, [&](AStreamJob* job) {
    for (int i = 0; i < n; ++i) {
      std::vector<Value> values(kCols, i);
      values[0] = 3;
      values[1] = 5;
      ASSERT_TRUE(Accepted(job->Push(0, 2 + i, Row(std::move(values)))));
    }
  });
  // Distinct payloads: ~n * kCols * 8 bytes. Shared: one payload + refs.
  EXPECT_GT(distinct_bytes, n * kCols * 8);
  EXPECT_LT(shared_bytes, distinct_bytes / 4);
}

TEST(CheckpointDedupTest, BytesStayFlatAsFanOutGrows) {
  // The same 200 wide tuples fanned out to 1 vs 64 identical queries.
  // Shared stores keep one copy per tuple (tagged with a query-set), so
  // the checkpoint grows by bookkeeping only — per-query descriptors,
  // wider bitsets — not by 64x the payload bytes.
  const auto push = [](AStreamJob* job) {
    for (int i = 0; i < 200; ++i) {
      std::vector<Value> values(kCols, i);
      values[0] = i % 16;
      values[1] = 5;
      const Row row(std::move(values));
      if (i % 2 == 0) {
        ASSERT_TRUE(Accepted(job->Push(0, 2 + i, row)));
      } else {
        ASSERT_TRUE(Accepted(job->Push(1, 2 + i, row)));
      }
    }
  };
  const int64_t bytes_1 = RunAndMeasure(1, push);
  const int64_t bytes_64 = RunAndMeasure(64, push);
  ASSERT_GT(bytes_1, 200 * kCols * 8);  // payload dominates the baseline
  EXPECT_LT(bytes_64, 2 * bytes_1);
}

}  // namespace
}  // namespace astream::core
