#include "harness/source_log.h"

#include <gtest/gtest.h>

#include <chrono>
#include <mutex>
#include <thread>

#include "harness/reference.h"
#include "harness/supervised_job.h"

namespace astream::harness {
namespace {

using core::AStreamJob;
using core::QueryDescriptor;
using core::QueryId;
using core::QueryKind;
using spe::Row;

TEST(SourceLogTest, OffsetsAndReplayBounds) {
  SourceLog log;
  EXPECT_EQ(log.EndOffset(), 0);
  log.LogRecord(0, 1, Row{1, 2});
  log.LogWatermark(5);
  log.LogRecord(1, 6, Row{2, 3});
  log.LogRecord(2, 7, Row{3, 4});  // a third stream (kMultiway topologies)
  EXPECT_EQ(log.EndOffset(), 4);
  EXPECT_EQ(log.At(3).kind, SourceLog::Entry::kRecord);
  EXPECT_EQ(log.At(3).stream, 2);
  EXPECT_EQ(log.At(3).time, 7);
  log.TruncateBelow(2);
  EXPECT_EQ(log.first_offset(), 2);
  EXPECT_EQ(log.EndOffset(), 4);
  EXPECT_EQ(log.At(2).stream, 1);
  EXPECT_EQ(log.At(3).stream, 2);
}

// A supervised job logs every input row until the next checkpoint, so the
// inline entry size is the log's memory bound. Data and watermark entries
// hold kind + stream (8 bytes), time (8), the refcounted row handle (16)
// and a null control pointer (8) on a 64-bit host; the control-plane
// payload (query descriptor, ids, wall time, offsets) lives out of line.
TEST(SourceLogTest, EntryKeepsControlPayloadOutOfLine) {
  EXPECT_LE(sizeof(SourceLog::Entry), 40u);

  SourceLog log;
  log.LogRecord(1, 3, Row{1, 2});
  log.LogWatermark(3);
  EXPECT_EQ(log.At(0).control, nullptr);
  EXPECT_EQ(log.At(1).control, nullptr);
  const size_t data_bytes = log.SizeBytes();
  EXPECT_EQ(data_bytes, 2 * sizeof(SourceLog::Entry) + 2 * sizeof(spe::Value));

  QueryDescriptor desc;
  desc.kind = QueryKind::kSelection;
  log.LogSubmit(4, desc, 7);
  log.LogCheckpoint(5, 1, 3);
  ASSERT_NE(log.At(2).control, nullptr);
  EXPECT_EQ(log.At(2).control->query_id, 7);
  EXPECT_EQ(log.At(3).control->offset, 3);
  // SizeBytes counts the out-of-line part too.
  EXPECT_EQ(log.SizeBytes(),
            data_bytes + 2 * (sizeof(SourceLog::Entry) +
                              sizeof(SourceLog::Control)));
}

// The exactly-once recovery loop of Sec. 3.3 on SupervisedJob: a threaded
// aggregation job is crashed mid-stream (its runner is declared failed);
// the next push recovers it from the latest complete checkpoint — or from
// the start of the log when there is none — and replays the log tail. The
// delivered outputs must equal a failure-free run exactly: the dedup
// filter suppresses what the crashed incarnation already delivered.
class SupervisedRecoveryTest : public ::testing::Test {
 protected:
  struct Plan {
    std::vector<int> checkpoint_at;  // event times of checkpoints
    int crash_at = -1;               // event time of the crash
  };
  struct Outcome {
    RowMultiset outputs;
    int64_t recoveries = 0;
    int64_t replayed_rows = 0;
    int64_t first_offset_at_crash = -1;
  };

  static AStreamJob::Options JobOptions(Clock* clock, bool threaded) {
    AStreamJob::Options options;
    options.topology = AStreamJob::TopologyKind::kAggregation;
    options.threaded = threaded;
    options.clock = clock;
    options.session.batch_size = 1;
    return options;
  }

  static QueryDescriptor Agg(TimestampMs length) {
    QueryDescriptor d;
    d.kind = QueryKind::kAggregation;
    d.window = spe::WindowSpec::Tumbling(length);
    d.agg = {spe::AggKind::kSum, 1};
    return d;
  }

  // Failure-free oracle: a plain sync job on the same input.
  static RowMultiset FailureFree() {
    ManualClock clock;
    auto job = std::move(AStreamJob::Create(JobOptions(&clock, false))).value();
    EXPECT_TRUE(job->Start().ok());
    RowMultiset outputs;
    job->SetResultCallback([&](QueryId, const spe::Record& r) {
      AddToMultiset(&outputs, r.event_time, r.row);
    });
    clock.SetMs(0);
    EXPECT_TRUE(job->Submit(Agg(40)).ok());
    job->Pump(true);
    for (int t = 2; t < 200; t += 3) {
      clock.SetMs(t);
      job->Push(0, t, Row{t % 2, t});
      if (t % 30 == 0) job->PushWatermark(t);
    }
    EXPECT_TRUE(job->FinishAndWait().ok());
    return outputs;
  }

  static Outcome RunSupervised(const Plan& plan) {
    ManualClock clock;
    SupervisedJob::Options options;
    options.job = JobOptions(&clock, true);  // crashes need a threaded engine
    options.pin_clock = [&clock](TimestampMs ms) { clock.SetMs(ms); };
    options.supervisor.backoff_initial_ms = 1;
    options.supervisor.backoff_max_ms = 8;
    SupervisedJob job(options);
    EXPECT_TRUE(job.Start().ok());
    Outcome outcome;
    std::mutex mutex;
    job.SetResultCallback([&](QueryId, const spe::Record& r) {
      std::lock_guard<std::mutex> lock(mutex);
      AddToMultiset(&outcome.outputs, r.event_time, r.row);
    });
    clock.SetMs(0);
    EXPECT_TRUE(job.Submit(Agg(40)).ok());
    for (int t = 2; t < 200; t += 3) {
      clock.SetMs(t);
      for (int at : plan.checkpoint_at) {
        if (at == t) WaitComplete(&job, job.Checkpoint());
      }
      if (t == plan.crash_at) {
        outcome.first_offset_at_crash = job.log().first_offset();
        job.job()->DeclareFailed(Status::Internal("injected crash"));
      }
      job.Push(0, t, Row{t % 2, t});
      if (t % 30 == 0) job.PushWatermark(t);
    }
    EXPECT_TRUE(job.FinishAndWait().ok());
    outcome.recoveries = job.recoveries();
    outcome.replayed_rows = job.replayed_rows();
    return outcome;
  }

  // Threaded engines complete barriers on their task threads. Polls
  // LatestComplete, which reads the completion flag under the store's
  // lock (a checkpoint from Get() is still being written by those tasks).
  static void WaitComplete(SupervisedJob* job, int64_t id) {
    ASSERT_GT(id, 0);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (std::chrono::steady_clock::now() < deadline) {
      auto latest = job->checkpoints().LatestComplete();
      if (latest != nullptr && latest->id >= id) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    FAIL() << "checkpoint " << id << " never completed";
  }
};

TEST_F(SupervisedRecoveryTest, RecoverWithoutCheckpointReplaysWholeLog) {
  const RowMultiset expected = FailureFree();
  ASSERT_FALSE(expected.empty());
  const Outcome run = RunSupervised({.checkpoint_at = {}, .crash_at = 101});
  EXPECT_EQ(run.recoveries, 1);
  EXPECT_EQ(run.first_offset_at_crash, 0);
  // No checkpoint: every row logged before the crash is replayed.
  EXPECT_GE(run.replayed_rows, 33);
  EXPECT_EQ(run.outputs, expected);
}

TEST_F(SupervisedRecoveryTest, FullRecoveryLoopMatchesFailureFree) {
  const RowMultiset expected = FailureFree();
  const Outcome run = RunSupervised({.checkpoint_at = {98}, .crash_at = 131});
  EXPECT_EQ(run.recoveries, 1);
  // Only the tail behind the checkpoint is replayed.
  EXPECT_GT(run.replayed_rows, 0);
  EXPECT_LT(run.replayed_rows, 33);
  EXPECT_EQ(run.outputs, expected);
}

TEST_F(SupervisedRecoveryTest, LogTruncationAfterCheckpointStillRecovers) {
  const RowMultiset expected = FailureFree();
  // The second checkpoint reaps the log prefix the first one covers
  // (Kafka retention), so the crash recovers from a truncated log.
  const Outcome run =
      RunSupervised({.checkpoint_at = {50, 98}, .crash_at = 131});
  EXPECT_EQ(run.recoveries, 1);
  EXPECT_GT(run.first_offset_at_crash, 0);
  EXPECT_EQ(run.outputs, expected);
}

}  // namespace
}  // namespace astream::harness
