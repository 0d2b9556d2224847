// Admission control (DESIGN.md §14): deterministic tests of the Submit
// gate — rejection, queueing, auto-admission on headroom, the p99 gate,
// cost metering exports, and the Create-time validation of SloOptions.

#include <gtest/gtest.h>

#include <memory>

#include "core/astream.h"

namespace astream::core {
namespace {

QueryDescriptor Minnow(int col = 1) {
  QueryDescriptor d;
  d.kind = QueryKind::kAggregation;
  d.select_a = {Predicate{col, CmpOp::kLt, 500}};
  d.window = spe::WindowSpec::Tumbling(400);
  d.agg = {spe::AggKind::kSum, 1};
  return d;
}

QueryDescriptor Whale() {
  QueryDescriptor d;
  d.kind = QueryKind::kAggregation;
  d.select_a = {Predicate{1, CmpOp::kGe, 0}};
  d.window = spe::WindowSpec::Sliding(1600, 100);
  d.agg = {spe::AggKind::kSum, 1};
  return d;
}

class AdmissionTest : public ::testing::Test {
 protected:
  void MakeJob(const SloOptions& slo) {
    AStreamJob::Options options;
    options.topology = AStreamJob::TopologyKind::kAggregation;
    options.threaded = false;
    options.clock = &clock_;
    options.session.batch_size = 1;
    options.enable_trace = false;
    options.slo = slo;
    auto job = AStreamJob::Create(options);
    ASSERT_TRUE(job.ok()) << job.status().ToString();
    job_ = std::move(job).value();
    ASSERT_TRUE(job_->Start().ok());
  }

  AStreamJob::SubmitOutcome Submit(const QueryDescriptor& desc) {
    auto outcome = job_->SubmitWithOutcome(desc);
    EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
    return outcome.ok() ? *outcome : AStreamJob::SubmitOutcome{};
  }

  ManualClock clock_;
  std::unique_ptr<AStreamJob> job_;
};

TEST_F(AdmissionTest, DisabledAdmitsEverything) {
  MakeJob(SloOptions{});  // enforcement off: the pre-isolation behavior
  for (int i = 0; i < 32; ++i) {
    const auto outcome = Submit(Minnow(1 + i % 5));
    EXPECT_EQ(outcome.decision, AdmissionDecision::kAdmitted);
    EXPECT_NE(outcome.id, -1);
  }
  EXPECT_EQ(job_->NumQueuedQueries(), 0u);
  EXPECT_TRUE(job_->FinishAndWait().ok());
}

TEST_F(AdmissionTest, MaxActiveQueuesThenAdmitsAfterCancel) {
  SloOptions slo;
  slo.enable_admission = true;
  slo.max_active_queries = 2;
  MakeJob(slo);

  const auto a = Submit(Minnow(1));
  const auto b = Submit(Minnow(2));
  EXPECT_EQ(a.decision, AdmissionDecision::kAdmitted);
  EXPECT_EQ(b.decision, AdmissionDecision::kAdmitted);

  // Third submit: queued with a real id (so the caller can Cancel it).
  const auto c = Submit(Minnow(3));
  EXPECT_EQ(c.decision, AdmissionDecision::kQueued);
  EXPECT_NE(c.id, -1);
  EXPECT_FALSE(c.reason.empty());
  EXPECT_EQ(job_->NumQueuedQueries(), 1u);
  EXPECT_EQ(job_->session().ActiveIds().size(), 2u);

  // Headroom returns -> the queued query deploys on the next Pump, under
  // the id assigned at submit time.
  ASSERT_TRUE(job_->Cancel(a.id).ok());
  job_->Pump(true);
  EXPECT_EQ(job_->NumQueuedQueries(), 0u);
  const auto active = job_->session().ActiveIds();
  EXPECT_NE(std::find(active.begin(), active.end(), c.id), active.end());
  EXPECT_TRUE(job_->FinishAndWait().ok());
}

TEST_F(AdmissionTest, OversizedQueryRejectedOutright) {
  SloOptions slo;
  slo.enable_admission = true;
  slo.max_predicted_cost = 0.5;  // ShapeCost is always >= 1
  MakeJob(slo);

  const auto outcome = Submit(Whale());
  EXPECT_EQ(outcome.decision, AdmissionDecision::kRejected);
  EXPECT_EQ(outcome.id, -1);
  EXPECT_FALSE(outcome.reason.empty());
  EXPECT_GE(outcome.predicted_cost, 1.0);

  // Plain Submit surfaces the same policy decision as a typed status.
  const auto id = job_->Submit(Whale());
  ASSERT_FALSE(id.ok());
  EXPECT_EQ(id.status().code(), StatusCode::kAdmissionRejected);
  EXPECT_TRUE(job_->FinishAndWait().ok());
}

TEST_F(AdmissionTest, QueueOverflowRejects) {
  SloOptions slo;
  slo.enable_admission = true;
  slo.max_active_queries = 1;
  slo.max_queued = 2;
  MakeJob(slo);

  EXPECT_EQ(Submit(Minnow(1)).decision, AdmissionDecision::kAdmitted);
  EXPECT_EQ(Submit(Minnow(2)).decision, AdmissionDecision::kQueued);
  EXPECT_EQ(Submit(Minnow(3)).decision, AdmissionDecision::kQueued);
  EXPECT_EQ(Submit(Minnow(4)).decision, AdmissionDecision::kRejected);

  const auto snap = job_->MetricsSnapshot();
  EXPECT_EQ(snap.counters.at("admission.queued"), 2);
  EXPECT_EQ(snap.counters.at("admission.rejected"), 1);
  EXPECT_EQ(snap.counters.at("admission.desharings"), 0);
  EXPECT_EQ(snap.gauges.at("admission.queued_now"), 2);
  EXPECT_EQ(snap.gauges.at("admission.active_queries"), 1);
  EXPECT_TRUE(job_->FinishAndWait().ok());
}

TEST_F(AdmissionTest, CancelDrainsQueuedQuery) {
  SloOptions slo;
  slo.enable_admission = true;
  slo.max_active_queries = 1;
  MakeJob(slo);

  const auto a = Submit(Minnow(1));
  const auto q = Submit(Minnow(2));
  ASSERT_EQ(q.decision, AdmissionDecision::kQueued);
  ASSERT_TRUE(job_->Cancel(q.id).ok());
  EXPECT_EQ(job_->NumQueuedQueries(), 0u);

  // The cancelled entry must never deploy, even once headroom returns.
  ASSERT_TRUE(job_->Cancel(a.id).ok());
  job_->Pump(true);
  const auto active = job_->session().ActiveIds();
  EXPECT_EQ(std::find(active.begin(), active.end(), q.id), active.end());
  EXPECT_TRUE(job_->FinishAndWait().ok());
}

TEST_F(AdmissionTest, TotalCostBudgetQueues) {
  SloOptions slo;
  slo.enable_admission = true;
  // A tumbling aggregation shapes to cost 2; budget fits exactly one.
  slo.max_total_cost = 3;
  MakeJob(slo);

  EXPECT_EQ(Submit(Minnow(1)).decision, AdmissionDecision::kAdmitted);
  EXPECT_EQ(Submit(Minnow(2)).decision, AdmissionDecision::kQueued);
  EXPECT_TRUE(job_->FinishAndWait().ok());
}

TEST_F(AdmissionTest, P99GateQueuesWhileSloViolated) {
  SloOptions slo;
  slo.enable_admission = true;
  // Under the ManualClock every emitted window is at least watermark-lag
  // late, so the gate reads "violated" as soon as outputs flow.
  slo.p99_event_latency_ms = 1;
  MakeJob(slo);

  EXPECT_EQ(Submit(Minnow(1)).decision, AdmissionDecision::kAdmitted);
  job_->Pump(true);
  for (int t = 0; t < 20; ++t) {
    const TimestampMs now = (t + 1) * 100;
    clock_.SetMs(now);
    job_->Push(0, now, spe::Row{1, 10});
    job_->PushWatermark(now - 50);
    job_->Pump(true);
  }
  const auto late = Submit(Minnow(2));
  EXPECT_EQ(late.decision, AdmissionDecision::kQueued);
  EXPECT_TRUE(job_->FinishAndWait().ok());
}

TEST_F(AdmissionTest, MeteredCostsExported) {
  SloOptions slo;
  slo.enable_admission = true;  // implies meter_costs
  MakeJob(slo);

  const auto a = Submit(Minnow(1));
  job_->Pump(true);
  for (int t = 0; t < 10; ++t) {
    const TimestampMs now = (t + 1) * 100;
    clock_.SetMs(now);
    job_->Push(0, now, spe::Row{1, 7});
    job_->PushWatermark(now - 50);
    job_->Pump(true);
  }
  const auto costs = job_->MeteredCosts();
  ASSERT_TRUE(costs.count(a.id));
  EXPECT_GT(costs.at(a.id), 0);

  const auto snap = job_->MetricsSnapshot();
  const std::string prefix = "query." + std::to_string(a.id) + ".";
  ASSERT_TRUE(snap.gauges.count(prefix + "cost_rows"));
  EXPECT_GT(snap.gauges.at(prefix + "cost_rows"), 0);
  ASSERT_TRUE(snap.gauges.count(prefix + "cost_state_bytes"));
  EXPECT_TRUE(job_->FinishAndWait().ok());
}

TEST(AdmissionValidationTest, DesharingRequiresAdmission) {
  AStreamJob::Options options;
  options.slo.enable_desharing = true;  // without enable_admission
  const auto job = AStreamJob::Create(options);
  ASSERT_FALSE(job.ok());
  EXPECT_EQ(job.status().code(), StatusCode::kInvalidArgument);
}

TEST(AdmissionValidationTest, BadFractionsRejected) {
  AStreamJob::Options options;
  options.slo.enable_admission = true;
  options.slo.enable_desharing = true;
  options.slo.whale_cost_fraction = 0;
  EXPECT_FALSE(AStreamJob::Create(options).ok());
  options.slo.whale_cost_fraction = 0.5;
  options.slo.readmit_cost_fraction = 1.5;
  EXPECT_FALSE(AStreamJob::Create(options).ok());
  options.slo.readmit_cost_fraction = 0.25;
  options.slo.p99_event_latency_ms = -1;
  EXPECT_FALSE(AStreamJob::Create(options).ok());
}

}  // namespace
}  // namespace astream::core
