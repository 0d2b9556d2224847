#ifndef ASTREAM_HARNESS_SUT_H_
#define ASTREAM_HARNESS_SUT_H_

#include <memory>
#include <utility>
#include <vector>

#include "core/push_result.h"
#include "core/query.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "spe/row.h"

namespace astream::harness {

/// The QoS monitor of Sec. 3.4: what a SUT reports for the ad-hoc metrics
/// of Sec. 4.3, read from its obs registry and lifecycle trace. AStream
/// and the baseline record through the same obs types, so the driver and
/// the figure benches read both the same way.
struct QosView {
  obs::MetricsRegistry::Snapshot metrics;
  /// Deploy acks in arrival order: (query, deploy latency ms) (Fig. 10).
  std::vector<std::pair<core::QueryId, TimestampMs>> deploy_acks;

  /// Reads `metrics` and the kDeployAck events of `trace`.
  static QosView Of(const obs::MetricsRegistry& metrics,
                    const obs::TraceSink& trace);

  /// Event-time latency of every emitted result, all queries merged.
  obs::Histogram::Snapshot EventLatency() const {
    return obs::QueryEventLatency(metrics);
  }
  /// Deploy latency of every acknowledged create/delete request.
  obs::Histogram::Snapshot DeployLatency() const;
  int64_t TotalOutputs() const;
  int64_t OutputsOf(core::QueryId id) const;
};

/// System under test (Sec. 4.1): the driver talks to AStream and to the
/// query-at-a-time baseline through this one interface.
class StreamSut {
 public:
  virtual ~StreamSut() = default;

  virtual Status Start() = 0;

  /// Data input on `stream` (0 = A, 1 = B) in event-time order per
  /// stream. The result distinguishes clean acceptance from clamped event
  /// times and refused tuples.
  virtual core::PushResult Push(int stream, TimestampMs event_time,
                                spe::Row row) = 0;
  virtual void PushWatermark(TimestampMs watermark) = 0;

  /// Asynchronous query creation / deletion (acknowledged later).
  virtual Result<core::QueryId> Submit(const core::QueryDescriptor& desc) = 0;
  virtual Status Cancel(core::QueryId id) = 0;

  /// Periodic housekeeping from the control thread (session flush etc.).
  virtual void Pump() {}

  /// Blocks until all outstanding create/delete requests are acknowledged
  /// (the driver's backpressure ACK, Fig. 5). False on timeout.
  virtual bool WaitDeployed(TimestampMs timeout_ms) = 0;

  virtual void FinishAndWait() = 0;
  virtual void Stop() = 0;

  /// A snapshot of the QoS recorded so far.
  virtual QosView qos() const = 0;

  /// Backpressure probe: elements queued inside the SUT.
  virtual size_t QueuedElements() const = 0;

  virtual const char* name() const = 0;
};

}  // namespace astream::harness

#endif  // ASTREAM_HARNESS_SUT_H_
