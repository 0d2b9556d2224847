// Process-restart recovery: a SupervisedJob with a durable checkpoint
// directory is killed (destroyed without draining) after a checkpoint; a
// brand-new SupervisedJob over the same directory — sharing no RAM with
// the first — restores from disk alone, the driver resumes feeding from
// the checkpoint's source offsets, and the union of both incarnations'
// outputs equals a single uninterrupted run.

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/astream.h"
#include "harness/reference.h"
#include "harness/supervised_job.h"
#include "storage/durable_checkpoint.h"

namespace astream::harness {
namespace {

namespace fs = std::filesystem;

using core::AStreamJob;
using core::CmpOp;
using core::Predicate;
using core::QueryDescriptor;
using core::QueryId;
using core::QueryKind;
using spe::Row;

constexpr int kRows = 400;
constexpr int kCut = 200;  // checkpoint + "process death" after this row

Row MakeRow(Rng* rng) {
  return Row{rng->UniformInt(0, 6), rng->UniformInt(0, 99)};
}

AStreamJob::Options SyncOptions(Clock* clock) {
  AStreamJob::Options options;
  options.topology = AStreamJob::TopologyKind::kJoin;
  options.parallelism = 1;
  options.threaded = false;
  options.clock = clock;
  options.session.batch_size = 1;
  return options;
}

std::vector<QueryDescriptor> Queries() {
  QueryDescriptor join;
  join.kind = QueryKind::kJoin;
  join.window = spe::WindowSpec::Sliding(60, 20);
  join.select_a = {Predicate{1, CmpOp::kLt, 90}};
  QueryDescriptor select;
  select.kind = QueryKind::kSelection;
  select.select_a = {Predicate{1, CmpOp::kGt, 30}};
  return {join, select};
}

// Feeds rows [from, to) with a watermark every 50 rows; rows are a fixed
// deterministic sequence so both the reference and the two incarnations
// see identical data.
template <typename JobT>
void Feed(JobT* job, ManualClock* clock, int from, int to) {
  Rng rng(0xD0D0);
  TimestampMs t = 1;
  for (int i = 0; i < to; ++i) {
    t += rng.UniformInt(1, 3);
    const Row row = MakeRow(&rng);
    if (i < from) continue;  // keep rng/time sequence aligned
    clock->SetMs(t);
    if (i % 2 == 0) {
      job->Push(0, t, row);
    } else {
      job->Push(1, t, row);
    }
    if (i % 50 == 49) job->PushWatermark(t - 30);
  }
}

TEST(DurableRecoveryTest, SurvivesProcessRestartFromDiskOnly) {
  const fs::path dir =
      fs::temp_directory_path() / "astream_durable_recovery_test";
  fs::remove_all(dir);

  // Uninterrupted oracle.
  std::map<QueryId, RowMultiset> reference;
  {
    ManualClock clock;
    auto job = std::move(AStreamJob::Create(SyncOptions(&clock))).value();
    ASSERT_TRUE(job->Start().ok());
    job->SetResultCallback([&](QueryId id, const spe::Record& record) {
      AddToMultiset(&reference[id], record.event_time, record.row);
    });
    clock.SetMs(0);
    // One changelog per submit, mirroring SupervisedJob::Submit's forced
    // flush so query creation times line up across runs.
    for (const auto& desc : Queries()) {
      ASSERT_TRUE(job->Submit(desc).ok());
      job->Pump(true);
    }
    Feed(job.get(), &clock, 0, kRows);
    ASSERT_TRUE(job->FinishAndWait().ok());
  }
  ASSERT_FALSE(reference.empty());

  std::map<QueryId, RowMultiset> combined;
  const auto collect = [&combined](QueryId id, const spe::Record& record) {
    AddToMultiset(&combined[id], record.event_time, record.row);
  };

  // Incarnation 1: feed half, checkpoint, die without draining.
  {
    ManualClock clock;
    SupervisedJob::Options options;
    options.job = SyncOptions(&clock);
    options.durable_checkpoint_dir = dir.string();
    options.pin_clock = [&clock](TimestampMs ms) { clock.SetMs(ms); };
    SupervisedJob job(options);
    ASSERT_TRUE(job.Start().ok());
    job.SetResultCallback(collect);
    clock.SetMs(0);
    for (const auto& desc : Queries()) ASSERT_TRUE(job.Submit(desc).ok());
    Feed(&job, &clock, 0, kCut);
    ASSERT_GT(job.Checkpoint(), 0);
    // No FinishAndWait, no Stop-side flushing: the destructor models a
    // killed process. Only the run files under `dir` survive.
  }

  // Incarnation 2: a fresh supervisor over the same directory. It has no
  // log, no RAM checkpoint, no dedup state — recovery must come from the
  // durable store alone.
  {
    ManualClock clock;
    SupervisedJob::Options options;
    options.job = SyncOptions(&clock);
    options.durable_checkpoint_dir = dir.string();
    options.pin_clock = [&clock](TimestampMs ms) { clock.SetMs(ms); };
    SupervisedJob job(options);
    ASSERT_TRUE(job.Start().ok());
    job.SetResultCallback(collect);

    // The restored checkpoint tells the driver where to resume.
    auto latest = job.checkpoints().LatestComplete();
    ASSERT_NE(latest, nullptr);
    EXPECT_TRUE(latest->complete);
    int64_t resumed = 0;
    for (const auto& [port, offset] : latest->source_offsets) {
      resumed += offset;
    }
    EXPECT_GT(resumed, 0);

    // Queries came back with the session snapshot — no re-submission.
    Feed(&job, &clock, kCut, kRows);
    ASSERT_TRUE(job.FinishAndWait().ok());

    // A later checkpoint gets a fresh, monotonically larger id.
    EXPECT_EQ(job.replayed_rows(), 0);  // nothing in the new log to replay
  }

  // Exactly-once across the restart: both incarnations together produced
  // the uninterrupted run's outputs — no loss, no duplicates.
  EXPECT_EQ(reference.size(), combined.size());
  EXPECT_EQ(reference, combined);

  fs::remove_all(dir);
}

}  // namespace
}  // namespace astream::harness
