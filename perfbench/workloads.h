// The headline benchmark's seeded workloads: the generated input, the
// standing query fleet, and the churn schedule, all derived from one seed.

#ifndef ASTREAM_PERFBENCH_WORKLOADS_H_
#define ASTREAM_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/query.h"
#include "shard/client.h"

namespace astream::perfbench {

/// One input tuple. Event time of tuple i is 1 + i / tuples_per_ms.
struct Event {
  int stream = 0;
  TimestampMs time = 0;
  spe::Row row;
};

/// One ad-hoc request: cancel the query standing at `position`, or submit
/// `instance` into it. Positions [0, fleet_size) hold the standing fleet;
/// each transient churn query has a position of its own. Instances number
/// every query the run ever submits (the initial fleet first), so outputs
/// compare across deployments by instance rather than by engine id.
struct Request {
  bool cancel = false;
  int position = 0;
  int instance = -1;  // submits only
};

/// Requests issued together at one event-ms boundary, flushed as one
/// changelog: before tuple `at`, with the clock at the last completed ms.
struct ChurnStep {
  int64_t at = 0;
  std::vector<Request> requests;
};

struct Workload {
  std::string name;
  Client::TopologyKind topology = Client::TopologyKind::kAggregation;
  int num_streams = 1;
  /// Shards of the threaded deployment (each with its own pump thread).
  int shards = 1;
  /// State budget of the threaded and traced deployments; 0 = unbudgeted.
  int64_t budget_bytes = 0;
  int64_t tuples_per_ms = 1;
  /// Open-loop rate of the paced phase, tuples per second.
  double paced_rate = 0;

  std::vector<Event> input;
  /// Every query instance in submission order; [0, fleet_size) is the
  /// initial fleet, deployed at set-up before the first tuple.
  std::vector<core::QueryDescriptor> queries;
  int fleet_size = 0;
  /// Standing fleet plus one position per transient churn query.
  int positions = 0;
  std::vector<ChurnStep> churn;

  int64_t NumRequests() const {
    int64_t n = 0;
    for (const ChurnStep& s : churn) n += static_cast<int64_t>(s.requests.size());
    return n;
  }
  TimestampMs LastEventMs() const {
    return input.empty() ? 0 : input.back().time;
  }
};

/// Builds workload `name` from `seed`. `scale` multiplies the input length
/// and the churn count (1 = the measured size; small values give the
/// reduced pass the self-test checks against the offline reference).
/// Returns false for an unknown name.
bool BuildWorkload(const std::string& name, uint64_t seed, double scale,
                   Workload* out);

}  // namespace astream::perfbench

#endif  // ASTREAM_PERFBENCH_WORKLOADS_H_
