// Result collection for the headline benchmark: per-query order-insensitive
// output digests, an event-latency histogram, and the per-thread sinks the
// result callback folds into without taking a lock per row.

#ifndef ASTREAM_PERFBENCH_COLLECT_H_
#define ASTREAM_PERFBENCH_COLLECT_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/query.h"
#include "spe/element.h"

namespace astream::perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Order-insensitive multiset digest of one query's output: a row count
/// plus two independently seeded hash sums, so neither emission order nor
/// the shard a row came from changes it.
struct Digest {
  int64_t rows = 0;
  uint64_t sum1 = 0;
  uint64_t sum2 = 0;

  void Add(TimestampMs event_time, const spe::Row& row) {
    uint64_t h1 = 0xcbf29ce484222325ULL ^ static_cast<uint64_t>(event_time);
    uint64_t h2 = 0x84222325cbf29ce4ULL + static_cast<uint64_t>(event_time);
    for (size_t c = 0; c < row.NumColumns(); ++c) {
      const uint64_t v = static_cast<uint64_t>(row.At(c));
      h1 ^= v + 0x9e3779b97f4a7c15ULL + (h1 << 6) + (h1 >> 2);
      h2 = (h2 ^ v) * 0x100000001b3ULL;
    }
    ++rows;
    sum1 += h1;
    sum2 += h2 ^ (h2 >> 29);
  }
  void Merge(const Digest& o) {
    rows += o.rows;
    sum1 += o.sum1;
    sum2 += o.sum2;
  }
  bool operator==(const Digest& o) const {
    return rows == o.rows && sum1 == o.sum1 && sum2 == o.sum2;
  }
  bool operator!=(const Digest& o) const { return !(*this == o); }
};

/// Log-linear latency histogram over nanoseconds: 64 sub-buckets per power
/// of two (<= 1.6% relative error), exact below 128 ns.
class LatencyHistogram {
 public:
  void Record(int64_t ns) {
    ++buckets_[static_cast<size_t>(Bucket(ns < 0 ? 0 : ns))];
    ++count_;
  }
  void Merge(const LatencyHistogram& o) {
    for (size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += o.buckets_[i];
    count_ += o.count_;
  }
  int64_t count() const { return count_; }
  /// q in [0, 1]; the midpoint of the bucket holding the q-quantile.
  double QuantileNs(double q) const {
    if (count_ == 0) return 0;
    const auto target = static_cast<int64_t>(q * static_cast<double>(count_ - 1));
    int64_t seen = 0;
    for (size_t i = 0; i < buckets_.size(); ++i) {
      seen += buckets_[i];
      if (seen > target) {
        const double lo = static_cast<double>(Lower(static_cast<int>(i)));
        const double hi = static_cast<double>(Lower(static_cast<int>(i) + 1));
        return (lo + hi) / 2;
      }
    }
    return static_cast<double>(Lower(kBuckets - 1));
  }
  /// Samples strictly above the q-quantile (the percentile's support).
  int64_t SamplesAbove(double q) const {
    return count_ - 1 - static_cast<int64_t>(q * static_cast<double>(count_ - 1));
  }

 private:
  static constexpr int kBuckets = 64 * 60;
  static int Bucket(int64_t ns) {
    const auto v = static_cast<uint64_t>(ns);
    if (v < 128) return static_cast<int>(v);
    const int msb = 63 - __builtin_clzll(v);
    const int shift = msb - 6;
    return (shift + 1) * 64 + static_cast<int>((v >> shift) - 64);
  }
  static int64_t Lower(int idx) {
    if (idx < 128) return idx;
    const int shift = idx / 64 - 1;
    return static_cast<int64_t>(64 + idx % 64) << shift;
  }

  std::array<int64_t, kBuckets> buckets_{};
  int64_t count_ = 0;
};

/// Maps a result's event time to the wall time (steady-clock ns) at which
/// the generator's schedule had completed that event-ms. Null schedule =
/// saturating pass: no latency is recorded.
struct DueSchedule {
  int64_t t0_ns = 0;
  double ns_per_tuple = 0;
  int64_t tuples_per_ms = 1;
  /// Results stamped at or past this event time are end-of-stream drain
  /// output and carry no latency sample.
  TimestampMs last_event_ms = 0;

  /// Event time of tuple i is 1 + i / tuples_per_ms, so event-ms e is
  /// complete once tuple e * tuples_per_ms is due.
  int64_t DueNs(TimestampMs e) const {
    return t0_ns + static_cast<int64_t>(static_cast<double>(e * tuples_per_ms) *
                                        ns_per_tuple);
  }
};

/// One thread's accumulators; padded so sinks of different threads never
/// share a cache line.
struct alignas(64) Sink {
  std::unordered_map<core::QueryId, Digest> digests;
  LatencyHistogram latency;
};

/// Per-pass result collector. The callback thread finds its own Sink via a
/// thread-local cache tagged with the collector's generation; the mutex is
/// taken once per (thread, pass), never per row.
class Collector {
 public:
  explicit Collector(const DueSchedule* schedule)
      : schedule_(schedule), generation_(NextGeneration()) {}
  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  void OnResult(core::QueryId id, const spe::Record& record) {
    Sink& sink = Local();
    sink.digests[id].Add(record.event_time, record.row);
    if (schedule_ != nullptr && record.event_time < schedule_->last_event_ms) {
      sink.latency.Record(NowNs() - schedule_->DueNs(record.event_time));
    }
  }

  /// Merged view; call only after the deployment stopped delivering.
  std::map<core::QueryId, Digest> Digests() const {
    std::map<core::QueryId, Digest> out;
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& sink : sinks_) {
      for (const auto& [id, d] : sink->digests) out[id].Merge(d);
    }
    return out;
  }
  LatencyHistogram Latency() const {
    LatencyHistogram out;
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& sink : sinks_) out.Merge(sink->latency);
    return out;
  }

 private:
  static uint64_t NextGeneration() {
    static std::atomic<uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
  }

  Sink& Local() {
    thread_local uint64_t cached_generation = 0;
    thread_local Sink* cached_sink = nullptr;
    if (cached_generation != generation_) {
      std::lock_guard<std::mutex> lock(mu_);
      sinks_.push_back(std::make_unique<Sink>());
      cached_sink = sinks_.back().get();
      cached_generation = generation_;
    }
    return *cached_sink;
  }

  const DueSchedule* schedule_;
  const uint64_t generation_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Sink>> sinks_;
};

}  // namespace astream::perfbench

#endif  // ASTREAM_PERFBENCH_COLLECT_H_
