// Span recorder for the traced (sync, single-shard) run: one span around
// each public Client call the benchmark makes, result-callback time nested
// in the span that caused it, and pushes folded into one span per
// interval between other calls so memory stays bounded. Spans are kept in
// memory and written as NDJSON when the run ends.

#ifndef ASTREAM_PERFBENCH_TRACER_H_
#define ASTREAM_PERFBENCH_TRACER_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "perfbench/collect.h"

namespace astream::perfbench {

class Tracer {
 public:
  struct Span {
    const char* name = "";
    int64_t start_ns = 0;
    int64_t dur_ns = 0;     // summed over `count` folded calls
    int64_t count = 0;
    int64_t cb_ns = 0;      // result-callback time nested inside
    int64_t cb_n = 0;
    int64_t step = -1;      // churn step the call belongs to (-1: none)

    int64_t self_ns() const { return dur_ns - cb_ns; }
  };

  /// One call span; ends with End(). Calls do not nest in one another.
  void Begin(const char* name, int64_t step = -1) {
    FlushPushes();
    open_ = Span{name, NowNs(), 0, 1, 0, 0, step};
    current_ = &open_;
  }
  void End() {
    open_.dur_ns = NowNs() - open_.start_ns;
    spans_.push_back(open_);
    current_ = nullptr;
  }

  /// Pushes accumulate into the open push span until the next call.
  void BeginPush() {
    push_start_ns_ = NowNs();
    if (pushes_.count == 0) pushes_ = Span{"Push", push_start_ns_, 0, 0, 0, 0, -1};
    current_ = &pushes_;
  }
  void EndPush() {
    pushes_.dur_ns += NowNs() - push_start_ns_;
    ++pushes_.count;
    current_ = nullptr;
  }

  /// Result-callback timing, charged to the enclosing span.
  void AddCallback(int64_t ns) {
    Span* into = current_ != nullptr ? current_ : &orphan_callbacks_;
    into->cb_ns += ns;
    ++into->cb_n;
  }

  void Finish() { FlushPushes(); }
  const std::vector<Span>& spans() const { return spans_; }
  /// Callback time recorded outside any span (should stay zero).
  const Span& orphan_callbacks() const { return orphan_callbacks_; }

  /// Self time summed over every span named `name`.
  int64_t SelfNs(const std::string& name) const {
    int64_t ns = 0;
    for (const Span& s : spans_) {
      if (name == s.name) ns += s.self_ns();
    }
    return ns;
  }
  int64_t CallbackNs() const {
    int64_t ns = orphan_callbacks_.cb_ns;
    for (const Span& s : spans_) ns += s.cb_ns;
    return ns;
  }

  /// NDJSON: one line per span, a child "callback" line under every span
  /// that delivered results, and a closing "run" line with the wall time.
  bool WriteNdjson(const std::string& path, int64_t run_wall_ns,
                   const std::string& workload, uint64_t seed) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    int64_t id = 0;
    for (const Span& s : spans_) {
      const int64_t span_id = ++id;
      std::fprintf(f,
                   "{\"id\":%lld,\"parent\":0,\"name\":\"%s\",\"start_ns\":%lld,"
                   "\"dur_ns\":%lld,\"self_ns\":%lld,\"count\":%lld,"
                   "\"step\":%lld}\n",
                   static_cast<long long>(span_id), s.name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.dur_ns),
                   static_cast<long long>(s.self_ns()),
                   static_cast<long long>(s.count),
                   static_cast<long long>(s.step));
      if (s.cb_n > 0) {
        std::fprintf(f,
                     "{\"id\":%lld,\"parent\":%lld,\"name\":\"callback\","
                     "\"start_ns\":%lld,\"dur_ns\":%lld,\"self_ns\":%lld,"
                     "\"count\":%lld,\"step\":%lld}\n",
                     static_cast<long long>(++id),
                     static_cast<long long>(span_id),
                     static_cast<long long>(s.start_ns),
                     static_cast<long long>(s.cb_ns),
                     static_cast<long long>(s.cb_ns),
                     static_cast<long long>(s.cb_n),
                     static_cast<long long>(s.step));
      }
    }
    std::fprintf(f,
                 "{\"id\":%lld,\"parent\":0,\"name\":\"run\",\"wall_ns\":%lld,"
                 "\"orphan_callback_ns\":%lld,\"workload\":\"%s\",\"seed\":%llu}\n",
                 static_cast<long long>(++id),
                 static_cast<long long>(run_wall_ns),
                 static_cast<long long>(orphan_callbacks_.cb_ns),
                 workload.c_str(), static_cast<unsigned long long>(seed));
    return std::fclose(f) == 0;
  }

 private:
  void FlushPushes() {
    if (pushes_.count > 0) spans_.push_back(pushes_);
    pushes_ = Span{};
  }

  std::vector<Span> spans_;
  Span open_;
  Span pushes_;
  Span orphan_callbacks_;
  Span* current_ = nullptr;
  int64_t push_start_ns_ = 0;
};

}  // namespace astream::perfbench

#endif  // ASTREAM_PERFBENCH_TRACER_H_
