// Tests of the experiment harness itself: the query-at-a-time baseline
// SUT and the Fig. 5 driver.

#include <gtest/gtest.h>

#include "harness/astream_sut.h"
#include "harness/baseline_sut.h"
#include "harness/driver.h"

namespace astream::harness {
namespace {

using core::CmpOp;
using core::Predicate;
using core::QueryDescriptor;
using core::QueryKind;
using spe::Row;

QueryDescriptor AggQuery() {
  QueryDescriptor d;
  d.kind = QueryKind::kAggregation;
  d.window = spe::WindowSpec::Tumbling(100);
  d.agg = {spe::AggKind::kSum, 1};
  return d;
}

TEST(BaselineSutTest, DeploysAndProducesResults) {
  BaselineSut::Config cfg;
  cfg.deploy_cost_ms = 0;
  cfg.threaded = false;
  BaselineSut sut(cfg);
  ASSERT_TRUE(sut.Start().ok());
  auto id = sut.Submit(AggQuery());
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(sut.WaitDeployed(5'000));
  EXPECT_EQ(sut.num_active_jobs(), 1u);

  const TimestampMs base = WallClock::Default()->NowMs();
  for (int i = 0; i < 50; ++i) {
    sut.Push(0, base + i, Row{1, 2});
  }
  sut.PushWatermark(base + 1000);
  sut.FinishAndWait();
  const QosView qos = sut.qos();
  EXPECT_GT(qos.OutputsOf(*id), 0);
  EXPECT_EQ(qos.TotalOutputs(), qos.OutputsOf(*id));
  // Every output passed through the query's event-latency histogram.
  EXPECT_EQ(qos.EventLatency().count, qos.OutputsOf(*id));
}

TEST(BaselineSutTest, DeploymentsSerializeAndCost) {
  BaselineSut::Config cfg;
  cfg.deploy_cost_ms = 30;
  cfg.threaded = false;
  BaselineSut sut(cfg);
  ASSERT_TRUE(sut.Start().ok());
  const TimestampMs start = WallClock::Default()->NowMs();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(sut.Submit(AggQuery()).ok());
  }
  ASSERT_TRUE(sut.WaitDeployed(10'000));
  const TimestampMs elapsed = WallClock::Default()->NowMs() - start;
  EXPECT_GE(elapsed, 4 * 30);  // serialized: at least 4 x cost
  EXPECT_EQ(sut.num_active_jobs(), 4u);
  // Deployment latencies recorded and increasing (queueing).
  const QosView qos = sut.qos();
  ASSERT_EQ(qos.deploy_acks.size(), 4u);
  EXPECT_GT(qos.deploy_acks.back().second, qos.deploy_acks.front().second);
  EXPECT_EQ(qos.DeployLatency().count, 4);
  sut.Stop();
}

TEST(BaselineSutTest, CancelRemovesJob) {
  BaselineSut::Config cfg;
  cfg.deploy_cost_ms = 0;
  cfg.threaded = false;
  BaselineSut sut(cfg);
  ASSERT_TRUE(sut.Start().ok());
  auto id = sut.Submit(AggQuery());
  ASSERT_TRUE(sut.WaitDeployed(5'000));
  ASSERT_TRUE(sut.Cancel(*id).ok());
  ASSERT_TRUE(sut.WaitDeployed(5'000));
  EXPECT_EQ(sut.num_active_jobs(), 0u);
  sut.Stop();
}

TEST(BaselineSutTest, JoinJobGetsBothStreams) {
  BaselineSut::Config cfg;
  cfg.deploy_cost_ms = 0;
  cfg.threaded = false;
  BaselineSut sut(cfg);
  ASSERT_TRUE(sut.Start().ok());
  QueryDescriptor join;
  join.kind = QueryKind::kJoin;
  join.window = spe::WindowSpec::Tumbling(100);
  auto id = sut.Submit(join);
  ASSERT_TRUE(sut.WaitDeployed(5'000));
  const TimestampMs base = WallClock::Default()->NowMs();
  sut.Push(0, base + 1, Row{7, 1});
  sut.Push(1, base + 2, Row{7, 2});
  sut.FinishAndWait();
  EXPECT_EQ(sut.qos().OutputsOf(*id), 1);
}

TEST(AStreamSutTest, QosReadsMetricsAndDeployAcks) {
  ManualClock clock;
  core::AStreamJob::Options options;
  options.topology = core::AStreamJob::TopologyKind::kAggregation;
  options.clock = &clock;
  options.session.batch_size = 1;
  AStreamSut sut(options);
  ASSERT_TRUE(sut.Start().ok());
  QueryDescriptor selection;
  selection.kind = QueryKind::kSelection;
  selection.select_a = {Predicate{1, CmpOp::kGe, 0}};
  auto first = sut.Submit(selection);
  auto second = sut.Submit(AggQuery());
  ASSERT_TRUE(first.ok() && second.ok());
  clock.SetMs(7);
  ASSERT_TRUE(sut.WaitDeployed(5'000));
  for (TimestampMs t = 10; t < 30; ++t) {
    clock.SetMs(t + 5);  // every result leaves 5 ms after its event time
    sut.Push(0, t, Row{1, 2});
  }
  sut.FinishAndWait();

  const QosView qos = sut.qos();
  EXPECT_EQ(qos.OutputsOf(*first), 20);
  EXPECT_GT(qos.OutputsOf(*second), 0);
  EXPECT_EQ(qos.TotalOutputs(), qos.OutputsOf(*first) + qos.OutputsOf(*second));
  EXPECT_EQ(qos.EventLatency().count, qos.TotalOutputs());
  // Deploy acks in arrival order, one per create, matching the histogram.
  ASSERT_EQ(qos.deploy_acks.size(), 2u);
  EXPECT_EQ(qos.deploy_acks[0].first, *first);
  EXPECT_EQ(qos.deploy_acks[1].first, *second);
  EXPECT_EQ(qos.DeployLatency().count, 2);
  EXPECT_EQ(qos.DeployLatency().sum,
            qos.deploy_acks[0].second + qos.deploy_acks[1].second);
}

TEST(DriverTest, RunsScenarioAndReports) {
  core::AStreamJob::Options options;
  options.topology = core::AStreamJob::TopologyKind::kAggregation;
  options.parallelism = 1;
  options.threaded = false;
  options.session.batch_size = 1;  // deploy immediately (short run)
  AStreamSut sut(options);
  ASSERT_TRUE(sut.Start().ok());

  workload::Sc1Scenario scenario(/*rate_per_sec=*/50, /*max_parallel=*/3);
  Driver::Config cfg;
  cfg.duration_ms = 600;
  cfg.data_rate_per_sec = 5'000;
  cfg.query_factory = [] {
    QueryDescriptor d;
    d.kind = QueryKind::kAggregation;
    d.window = spe::WindowSpec::Tumbling(100);
    d.agg = {spe::AggKind::kCount, 1};
    return d;
  };
  cfg.data.key_max = 10;
  Driver driver(&sut, &scenario, cfg);
  const auto report = driver.Run();

  EXPECT_GT(report.pushed_a, 0);
  EXPECT_EQ(report.pushed_b, 0);
  EXPECT_EQ(report.created, 3);
  EXPECT_NEAR(report.input_rate_per_sec, 5'000, 2'000);
  EXPECT_GT(report.total_outputs, 0);
  EXPECT_TRUE(report.sustainable);
}

TEST(DriverTest, SamplesTimeSeries) {
  core::AStreamJob::Options options;
  options.topology = core::AStreamJob::TopologyKind::kAggregation;
  options.threaded = false;
  AStreamSut sut(options);
  ASSERT_TRUE(sut.Start().ok());
  Driver::Config cfg;
  cfg.duration_ms = 500;
  cfg.data_rate_per_sec = 2'000;
  cfg.sample_interval_ms = 100;
  cfg.query_factory = [] {
    QueryDescriptor d;
    d.kind = QueryKind::kSelection;
    d.select_a = {Predicate{1, CmpOp::kGe, 0}};
    return d;
  };
  workload::Sc1Scenario scenario(100, 1);
  Driver driver(&sut, &scenario, cfg);
  const auto report = driver.Run();
  EXPECT_GE(report.samples.size(), 3u);
  for (size_t i = 1; i < report.samples.size(); ++i) {
    EXPECT_GE(report.samples[i].pushed, report.samples[i - 1].pushed);
  }
}

}  // namespace
}  // namespace astream::harness
