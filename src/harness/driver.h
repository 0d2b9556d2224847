#ifndef ASTREAM_HARNESS_DRIVER_H_
#define ASTREAM_HARNESS_DRIVER_H_

#include <deque>
#include <functional>
#include <vector>

#include "harness/sut.h"
#include "workload/data_generator.h"
#include "workload/scenario.h"

namespace astream::harness {

/// Experiment driver (Fig. 5). One control loop maintains the two logical
/// FIFO queues of the paper:
///  - user requests: scenario actions are batched and the next batch is
///    submitted only after the SUT acknowledged the previous one
///    (backpressure; time spent waiting becomes deployment latency);
///  - input tuples: pushed at a target rate (or as fast as the SUT
///    accepts, which is the sustainable-throughput probe), stamped with
///    wall-clock event times; watermarks follow periodically.
class Driver {
 public:
  struct Config {
    /// Wall-clock experiment duration.
    TimestampMs duration_ms = 5'000;
    /// Target input rate (tuples/s) across both streams; 0 = push as fast
    /// as the SUT accepts (throughput probe).
    double data_rate_per_sec = 0;
    /// Also feed stream B (join/complex workloads); tuples alternate A/B.
    bool push_b = false;
    TimestampMs watermark_interval_ms = 50;
    TimestampMs scenario_tick_ms = 100;
    /// Makes a fresh query for every scenario creation.
    std::function<core::QueryDescriptor()> query_factory;
    workload::DataGenerator::Config data;
    uint64_t seed = 42;
    /// Queue depth beyond which the run is declared unsustainable.
    size_t max_queued_elements = 200'000;
    /// Tuples pushed per loop iteration in as-fast-as-possible mode.
    int burst = 256;
    /// Record a time-series sample every interval (0 = off; Fig. 16).
    TimestampMs sample_interval_ms = 0;
    /// Rates and active-query averages are computed over the post-warmup
    /// window only (lets deployments settle before measuring).
    TimestampMs warmup_ms = 0;
    /// Drain the SUT at the end (FinishAndWait: flushes all pending
    /// windows; needed for output/latency accounting). Throughput probes
    /// set false and hard-stop instead — at full offered load the final
    /// flush can dwarf the measurement itself.
    bool drain_at_end = true;
    Clock* clock = nullptr;  // defaults to WallClock
  };

  /// One time-series sample (cumulative counters; consumers diff).
  struct Sample {
    TimestampMs at_ms = 0;
    int64_t pushed = 0;
    int64_t outputs = 0;
    double event_latency_mean_ms = 0;
    int64_t event_latency_count = 0;
    size_t active_queries = 0;
  };

  struct Report {
    int64_t pushed_a = 0;
    int64_t pushed_b = 0;
    TimestampMs elapsed_ms = 0;
    /// Input rate the SUT absorbed — the slowest-query data throughput
    /// (every active query consumes the full stream).
    double input_rate_per_sec = 0;
    /// Sum over active queries (Sec. 4.3's overall data throughput).
    double overall_rate_per_sec = 0;
    double avg_active_queries = 0;
    size_t peak_active_queries = 0;
    int64_t created = 0;
    int64_t deleted = 0;
    /// Tuples accepted but with a clamped event time (arrived behind the
    /// changelog frontier) / refused transiently (backpressure) / refused
    /// permanently (SUT shutting down — not backpressure).
    int64_t push_clamped = 0;
    int64_t push_rejected = 0;
    int64_t push_shutdown = 0;
    int64_t total_outputs = 0;
    bool sustainable = true;
    QosView qos;
    std::vector<Sample> samples;
  };

  Driver(StreamSut* sut, workload::Scenario* scenario, Config config);

  /// Runs the experiment; on return the SUT is finished (drained).
  Report Run();

 private:
  void ApplyActions(const workload::ScenarioActions& actions);

  StreamSut* sut_;
  workload::Scenario* scenario_;
  Config config_;
  Clock* clock_;
  std::vector<core::QueryId> active_;  // creation order
  int64_t created_ = 0;
  int64_t deleted_ = 0;
};

}  // namespace astream::harness

#endif  // ASTREAM_HARNESS_DRIVER_H_
