// Headline benchmark: seeded ad-hoc workloads driven through the public
// astream::Client API, with every query's output checked against a
// reference. See perfbench/README.md for the workloads, the metrics and
// how to run it.
//
//   headline --workload agg_churn --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// metrics from a traced sync run plus measurements taken from outside the
// threaded run. The last line of stdout is one JSON object. The exit code
// is nonzero on any output mismatch, refused operation or failed
// workload self-check.

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "harness/reference.h"
#include "perfbench/collect.h"
#include "perfbench/tracer.h"
#include "perfbench/workloads.h"
#include "shard/client.h"
#include "storage/memory_governor.h"
#include "storage/spill_space.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace astream::perfbench {
namespace {

constexpr double kMiB = 1024.0 * 1024.0;
/// Set-ups timed before each measured pass, so that setup_s (their
/// median) samples the whole run.
constexpr int kSetupsPerPass = 40;

double CpuSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Nearest-rank quantile (q in [0, 1]).
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

/// Operator stats summed over every shard. Client::CollectStats merges
/// only the first twelve fields (memo, factor, multiway and sub-join
/// counters come back zero), so the benchmark sums the shards itself.
core::AStreamJob::OperatorStats ShardStats(Client* client) {
  core::AStreamJob::OperatorStats t;
  for (int i = 0; i < client->num_shards(); ++i) {
    const core::AStreamJob::OperatorStats s = client->router()->shard(i)->CollectStats();
    t.queryset_nanos += s.queryset_nanos;
    t.fanout_nanos += s.fanout_nanos;
    t.bitset_ops += s.bitset_ops;
    t.join_pairs_computed += s.join_pairs_computed;
    t.join_pairs_reused += s.join_pairs_reused;
    t.records_late += s.records_late;
    t.selection_records_in += s.selection_records_in;
    t.selection_records_out += s.selection_records_out;
    t.router_records_out += s.router_records_out;
    t.router_rows_shared += s.router_rows_shared;
    t.router_rows_copied += s.router_rows_copied;
    t.state_arena_bytes += s.state_arena_bytes;
    t.reload_saves += s.reload_saves;
    t.arrange_memo_hits += s.arrange_memo_hits;
    t.arrange_memo_misses += s.arrange_memo_misses;
    t.arrange_memo_bytes += s.arrange_memo_bytes;
    t.factor_rewrites += s.factor_rewrites;
    t.factor_reuses += s.factor_reuses;
    t.factor_fallbacks += s.factor_fallbacks;
    t.mjoin_chains_computed += s.mjoin_chains_computed;
    t.mjoin_chains_reused += s.mjoin_chains_reused;
    t.subjoins_built += s.subjoins_built;
    t.subjoins_attached += s.subjoins_attached;
    t.subjoin_nodes += s.subjoin_nodes;
  }
  return t;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  double scale = 1;
  /// Also evaluate the reference over the whole input at once and check
  /// that it equals the per-key evaluation (affordable on reduced passes
  /// only: the reference join is quadratic per window).
  bool check_partition = false;
  /// Deliberately corrupts one measured digest (the self-test's proof that
  /// a mismatch fails the command).
  bool corrupt_digest = false;
  std::string work_dir = ".bench_build/work";
  std::string trace_out;
  std::string commit = "unknown";
};

/// How a pass deploys the workload.
enum class Mode {
  kThreaded,   // the workload's shard count, each shard with a pump thread
  kSync,       // 1 shard, no pump thread: the single-threaded baseline
};

struct PassOptions {
  Mode mode = Mode::kThreaded;
  bool paced = false;
  Tracer* tracer = nullptr;
  /// Time every Push from outside (shard.push_blocked_s).
  bool time_pushes = false;
  std::string spill_dir;
};

struct PassResult {
  bool ok = false;
  std::string error;
  double setup_s = 0;
  double wall_s = 0;  // first Push .. FinishAndWait returned
  double cpu_s = 0;   // process CPU over the same interval
  double generator_cpu_s = 0;
  double push_blocked_s = 0;
  double max_lag_ms = 0;
  std::vector<double> deploy_ms;
  std::vector<double> control_ms;
  LatencyHistogram latency;
  std::vector<Digest> digests;  // by query instance
  int64_t pushes = 0;
  int64_t refused = 0;
  int64_t requests = 0;
  int64_t failed_requests = 0;
  int64_t rows_out = 0;
  int num_shards = 0;
  double skew = 0;
  core::AStreamJob::OperatorStats stats;
  core::AStreamJob::OperatorStats stats_at_end_of_input;  // traced pass
  obs::MetricsRegistry::Snapshot metrics;
  int64_t spill_bytes = 0;
  int64_t resident_peak_bytes = 0;
};

class PassRunner {
 public:
  PassRunner(const Workload& w, const PassOptions& o) : w_(w), o_(o) {}

  /// Set-up alone (Create, Start, initial fleet deployed); the
  /// deployment is torn down when the runner goes away.
  PassResult SetupOnly() {
    PassResult r;
    r.ok = Setup(&r);
    return r;
  }

  PassResult Run() {
    PassResult r;
    r.digests.resize(w_.queries.size());
    if (!Setup(&r)) return r;
    Stream(&r);
    if (!r.error.empty()) return r;
    r.latency = collector_->Latency();
    for (const auto& [id, d] : collector_->Digests()) {
      r.rows_out += d.rows;
      auto it = instance_of_.find(id);
      if (it == instance_of_.end()) {
        r.error = "result for unknown query id " + std::to_string(id);
        return r;
      }
      r.digests[static_cast<size_t>(it->second)] = d;
    }
    r.ok = true;
    return r;
  }

 private:
  bool Setup(PassResult* r) {
    const bool budgeted = w_.budget_bytes > 0;
    JobConfigBuilder b(w_.topology);
    b.Clock(&clock_).Parallelism(1).SessionBatch(1000, TimestampMs{1} << 40);
    if (w_.topology == Client::TopologyKind::kMultiway) b.NumStreams(w_.num_streams);
    b.Shards(o_.mode == Mode::kThreaded ? w_.shards : 1)
        .ShardThreads(o_.mode == Mode::kThreaded)
        .MemoryBudget(budgeted ? w_.budget_bytes : -1);
    if (budgeted) {
      // A fresh directory per pass: spill run names restart in every job.
      static int pass_counter = 0;
      b.mutable_config().job.storage.spill_dir =
          o_.spill_dir + "/pass" + std::to_string(++pass_counter);
    }
    auto config = std::move(b).Build();
    if (!config.ok()) {
      r->error = "config: " + config.status().ToString();
      return false;
    }
    collector_ = std::make_unique<Collector>(o_.paced ? &schedule_ : nullptr);

    const int64_t t0 = NowNs();
    auto client = Client::Create(*config);
    if (!client.ok()) {
      r->error = "create: " + client.status().ToString();
      return false;
    }
    client_ = std::move(client).value();
    Status started = client_->Start();
    if (!started.ok()) {
      r->error = "start: " + started.ToString();
      return false;
    }
    if (o_.tracer != nullptr) {
      Tracer* tracer = o_.tracer;
      Collector* collector = collector_.get();
      client_->SetResultCallback(
          [tracer, collector](core::QueryId id, const spe::Record& rec) {
            const int64_t start = NowNs();
            collector->OnResult(id, rec);
            tracer->AddCallback(NowNs() - start);
          });
    } else {
      Collector* collector = collector_.get();
      client_->SetResultCallback(
          [collector](core::QueryId id, const spe::Record& rec) {
            collector->OnResult(id, rec);
          });
    }
    clock_.SetMs(0);
    position_ids_.assign(static_cast<size_t>(w_.positions), -1);
    for (int i = 0; i < w_.fleet_size; ++i) {
      auto id = client_->Submit(w_.queries[static_cast<size_t>(i)]);
      if (!id.ok()) {
        r->error = "initial submit: " + id.status().ToString();
        return false;
      }
      position_ids_[static_cast<size_t>(i)] = *id;
      instance_of_[*id] = i;
    }
    client_->Pump(true);
    if (!client_->WaitForDeployment()) {
      r->error = "initial fleet did not deploy";
      return false;
    }
    r->setup_s = static_cast<double>(NowNs() - t0) * 1e-9;
    r->num_shards = client_->num_shards();
    if (o_.mode != Mode::kThreaded) {
      job_ = client_->router()->shard(0)->job();
    }
    return true;
  }

  template <typename Fn>
  auto Traced(const char* name, int64_t step, Fn&& fn) {
    if (o_.tracer == nullptr) return fn();
    o_.tracer->Begin(name, step);
    auto result = fn();
    o_.tracer->End();
    return result;
  }

  void Churn(const ChurnStep& step, int64_t step_index, PassResult* r) {
    std::vector<int64_t> starts;
    for (const Request& req : step.requests) {
      const int64_t start = NowNs();
      ++r->requests;
      int64_t& slot = position_ids_[static_cast<size_t>(req.position)];
      if (req.cancel) {
        if (slot < 0) continue;
        const Status s = Traced("Cancel", step_index,
                                [&] { return client_->Cancel(slot); });
        if (!s.ok()) ++r->failed_requests;
        slot = -1;
      } else {
        auto id = Traced("Submit", step_index, [&] {
          return client_->Submit(w_.queries[static_cast<size_t>(req.instance)]);
        });
        if (id.ok()) {
          slot = *id;
          instance_of_[*id] = req.instance;
        } else {
          ++r->failed_requests;
        }
      }
      r->control_ms.push_back(static_cast<double>(NowNs() - start) * 1e-6);
      starts.push_back(start);
    }
    Traced("Pump", step_index, [&] { return client_->Pump(true); });
    const bool deployed = Traced("WaitForDeployment", step_index,
                                 [&] { return client_->WaitForDeployment(); });
    if (!deployed) r->failed_requests += static_cast<int64_t>(starts.size());
    const int64_t done = NowNs();
    for (int64_t s : starts) r->deploy_ms.push_back(static_cast<double>(done - s) * 1e-6);
  }

  void Stream(PassResult* r) {
    const auto n = static_cast<int64_t>(w_.input.size());
    storage::MemoryGovernor* governor = job_ != nullptr ? job_->governor() : nullptr;
    size_t next_step = 0;
    const double gen_cpu0 = CpuSeconds(CLOCK_THREAD_CPUTIME_ID);
    const double cpu0 = CpuSeconds(CLOCK_PROCESS_CPUTIME_ID);
    const int64_t t0 = NowNs();
    schedule_ = DueSchedule{t0, 1e9 / w_.paced_rate, w_.tuples_per_ms,
                            w_.LastEventMs()};
    int64_t push_ns = 0;
    int64_t max_lag_ns = 0;
    clock_.SetMs(w_.input.empty() ? 0 : w_.input.front().time);
    for (int64_t i = 0; i < n; ++i) {
      const Event& e = w_.input[static_cast<size_t>(i)];
      if (i > 0 && e.time != w_.input[static_cast<size_t>(i - 1)].time) {
        // Event-ms e.time - 1 is complete: advance the watermark, then run
        // any churn step due here with the clock on the completed ms, so
        // its changelog marker lands exactly on e.time.
        clock_.SetMs(e.time - 1);
        Traced("PushWatermark", -1, [&] {
          client_->PushWatermark(e.time - 1);
          return 0;
        });
        if (governor != nullptr) {
          r->resident_peak_bytes =
              std::max(r->resident_peak_bytes, governor->total_resident());
        }
        if (next_step < w_.churn.size() && w_.churn[next_step].at == i) {
          Churn(w_.churn[next_step], static_cast<int64_t>(next_step), r);
          ++next_step;
        }
        clock_.SetMs(e.time);
      }
      if (o_.paced) {
        const int64_t due = t0 + static_cast<int64_t>(static_cast<double>(i) *
                                                      schedule_.ns_per_tuple);
        int64_t now = NowNs();
        if (due - now > 100'000) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
          now = NowNs();
        }
        max_lag_ns = std::max(max_lag_ns, now - due);
      }
      core::PushResult pr;
      if (o_.tracer != nullptr) {
        o_.tracer->BeginPush();
        pr = client_->Push(static_cast<StreamId>(e.stream), e.time, e.row);
        o_.tracer->EndPush();
      } else if (o_.time_pushes) {
        const int64_t start = NowNs();
        pr = client_->Push(static_cast<StreamId>(e.stream), e.time, e.row);
        push_ns += NowNs() - start;
      } else {
        pr = client_->Push(static_cast<StreamId>(e.stream), e.time, e.row);
      }
      ++r->pushes;
      if (!core::Accepted(pr)) ++r->refused;
    }
    if (next_step != w_.churn.size()) {
      r->error = "churn schedule not exhausted";
      return;
    }
    if (job_ != nullptr) r->stats_at_end_of_input = ShardStats(client_.get());
    const Status finished =
        Traced("FinishAndWait", -1, [&] { return client_->FinishAndWait(); });
    const int64_t t1 = NowNs();
    if (o_.tracer != nullptr) o_.tracer->Finish();
    if (!finished.ok()) {
      r->error = "finish: " + finished.ToString();
      return;
    }
    r->wall_s = static_cast<double>(t1 - t0) * 1e-9;
    r->cpu_s = CpuSeconds(CLOCK_PROCESS_CPUTIME_ID) - cpu0;
    r->generator_cpu_s = CpuSeconds(CLOCK_THREAD_CPUTIME_ID) - gen_cpu0;
    r->push_blocked_s = static_cast<double>(push_ns) * 1e-9;
    r->max_lag_ms = static_cast<double>(max_lag_ns) * 1e-6;
    r->stats = ShardStats(client_.get());
    r->metrics = client_->MetricsSnapshot();
    for (int s = 0; s < client_->num_shards(); ++s) {
      core::AStreamJob* job = client_->router()->shard(s)->job();
      if (job != nullptr && job->spill_space() != nullptr) {
        r->spill_bytes += job->spill_space()->total_spill_bytes();
      }
    }
    // Tuples per shard as the plan routes them: max / mean.
    const auto plan = client_->router()->plan();
    std::vector<int64_t> per_shard(static_cast<size_t>(client_->num_shards()), 0);
    for (const Event& e : w_.input) ++per_shard[static_cast<size_t>(plan->OwnerOfKey(e.row.key()))];
    const double mean = static_cast<double>(n) / static_cast<double>(per_shard.size());
    r->skew = static_cast<double>(*std::max_element(per_shard.begin(), per_shard.end())) / mean;
  }

  const Workload& w_;
  const PassOptions o_;
  ManualClock clock_;
  DueSchedule schedule_;
  std::unique_ptr<Collector> collector_;
  std::unique_ptr<Client> client_;
  core::AStreamJob* job_ = nullptr;  // sync modes only
  std::vector<int64_t> position_ids_;
  std::map<core::QueryId, int> instance_of_;
};

PassResult RunPass(const Workload& w, const PassOptions& o) {
  return PassRunner(w, o).Run();
}

/// Reference digests for every query instance from harness::
/// EvaluateReference, with the lifecycles the schedule implies: the
/// initial fleet is created at marker 1, and a churn step before the
/// tuple opening event-ms T flushes a changelog stamped T.
///
/// by_key evaluates each key's tuples on their own. Every query here
/// groups or joins on the row key, so a result only ever combines tuples
/// of one key, and a window instance the whole-input evaluation adds past
/// a key's last tuple holds none of that key's tuples: the per-key union
/// is exactly the whole-input result, at a fraction of the reference
/// join's per-window quadratic cost.
std::vector<Digest> OfflineDigests(const Workload& w, bool by_key) {
  std::map<spe::Value, std::vector<harness::InputEvent>> groups;
  for (const Event& e : w.input) {
    groups[by_key ? e.row.key() : 0].push_back({e.stream, e.time, e.row});
  }
  std::vector<harness::QueryLifecycle> life(w.queries.size());
  std::vector<int> at_position(static_cast<size_t>(w.positions), -1);
  for (int i = 0; i < w.fleet_size; ++i) {
    life[static_cast<size_t>(i)] = {w.queries[static_cast<size_t>(i)], 1, kMaxTimestamp};
    at_position[static_cast<size_t>(i)] = i;
  }
  for (const ChurnStep& step : w.churn) {
    const TimestampMs marker = w.input[static_cast<size_t>(step.at)].time;
    for (const Request& req : step.requests) {
      int& inst = at_position[static_cast<size_t>(req.position)];
      if (req.cancel) {
        if (inst >= 0) life[static_cast<size_t>(inst)].deleted_at = marker;
        inst = -1;
      } else {
        life[static_cast<size_t>(req.instance)] = {
            w.queries[static_cast<size_t>(req.instance)], marker, kMaxTimestamp};
        inst = req.instance;
      }
    }
  }
  std::vector<Digest> out(w.queries.size());
  for (size_t i = 0; i < life.size(); ++i) {
    for (const auto& [key, events] : groups) {
      for (const auto& [row_key, count] : harness::EvaluateReference(life[i], events)) {
        const spe::Row row(std::vector<spe::Value>(row_key.begin() + 1, row_key.end()));
        for (int64_t c = 0; c < count; ++c) out[i].Add(row_key[0], row);
      }
    }
  }
  return out;
}

int CountMismatches(const std::vector<Digest>& got, const std::vector<Digest>& want) {
  int bad = 0;
  for (size_t i = 0; i < want.size(); ++i) {
    if (i >= got.size() || got[i] != want[i]) ++bad;
  }
  return bad;
}

/// One reported metric: name, value, unit, and its sample count or base.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;
  /// False: printed for people, left out of the JSON result (a metric too
  /// noisy on a shared host to bound, or one that is zero when healthy).
  bool in_json = true;
};

class Report {
 public:
  void Add(std::string name, double value, std::string unit, std::string note = "") {
    metrics_.push_back({std::move(name), value, std::move(unit), std::move(note), true});
  }
  void AddTextOnly(std::string name, double value, std::string unit, std::string note = "") {
    metrics_.push_back({std::move(name), value, std::move(unit), std::move(note), false});
  }
  void Check(bool ok, const std::string& what) {
    checks_.push_back({ok, what});
    if (!ok) failed_checks_ = true;
  }
  bool failed_checks() const { return failed_checks_; }
  const std::vector<Metric>& metrics() const { return metrics_; }

  void Print(bool correct, int64_t attempted, int64_t failed) const {
    for (const auto& [ok, what] : checks_) {
      std::printf("check %-4s %s\n", ok ? "ok" : "FAIL", what.c_str());
    }
    for (const Metric& m : metrics_) {
      std::printf("metric %-32s %16.6f %-6s %s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.note.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
                correct ? "true" : "false", static_cast<long long>(attempted),
                static_cast<long long>(failed));
    const char* sep = "";
    for (const Metric& m : metrics_) {
      if (!m.in_json) continue;
      std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}", sep, m.name.c_str(),
                  m.value, m.unit.c_str());
      sep = ", ";
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::pair<bool, std::string>> checks_;
  bool failed_checks_ = false;
};

std::string Count(int64_t n, const char* what) {
  return "(" + std::to_string(n) + " " + what + ")";
}

double Frac(int64_t num, int64_t den) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0;
}

std::string Base(int64_t num, int64_t den) {
  return "(" + std::to_string(num) + " / " + std::to_string(den) + ")";
}

double HistSumS(const obs::MetricsRegistry::Snapshot& m, const std::string& name) {
  auto it = m.histograms.find(name);
  return it == m.histograms.end() ? 0 : static_cast<double>(it->second.sum) * 1e-3;
}

int64_t Gauge(const obs::MetricsRegistry::Snapshot& m, const std::string& name) {
  auto it = m.gauges.find(name);
  return it == m.gauges.end() ? 0 : it->second;
}

/// Tallies operations and digest checks across every pass of the run.
struct Tally {
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t mismatched_queries = 0;
  std::vector<std::string> errors;

  void AddPass(const char* label, const PassResult& p,
               const std::vector<Digest>& reference) {
    if (!p.ok) {
      errors.push_back(std::string(label) + ": " + p.error);
      ++attempted;
      ++failed;
      return;
    }
    const int bad = CountMismatches(p.digests, reference);
    attempted += p.pushes + p.requests + static_cast<int64_t>(reference.size());
    failed += p.refused + p.failed_requests + bad;
    mismatched_queries += bad;
    if (bad > 0) {
      errors.push_back(std::string(label) + ": " + std::to_string(bad) +
                       " query digests differ from the reference");
    }
    if (p.refused > 0) {
      errors.push_back(std::string(label) + ": " + std::to_string(p.refused) +
                       " pushes refused");
    }
    if (p.failed_requests > 0) {
      errors.push_back(std::string(label) + ": " + std::to_string(p.failed_requests) +
                       " requests failed");
    }
  }
};

/// Self-checks: the workload still loads the layer it exists for.
void LayerChecks(const Workload& w, const PassResult& threaded, int64_t run_requests,
                 Report* report) {
  report->Check(threaded.requests >= 100,
                "deploy requests per pass " + std::to_string(threaded.requests) + " >= 100");
  if (w.name == "agg_churn") {
    report->Check(run_requests >= 500,
                  "deploy requests per run " + std::to_string(run_requests) + " >= 500");
  }
  if (w.shards > 1) {
    report->Check(threaded.num_shards == w.shards && threaded.skew >= 1,
                  "runs on " + std::to_string(threaded.num_shards) + " of " +
                      std::to_string(w.shards) + " shards, skew reported");
  }
  if (w.budget_bytes > 0) {
    report->Check(threaded.spill_bytes > 0,
                  "spills under the budget (" + std::to_string(threaded.spill_bytes) +
                      " bytes)");
    report->Check(threaded.stats.subjoins_attached >= 1,
                  "attaches sub-joins (" +
                      std::to_string(threaded.stats.subjoins_attached) + ")");
  } else {
    report->Check(threaded.spill_bytes == 0 &&
                      Gauge(threaded.metrics, "storage.budget_bytes") == 0,
                  "storage idle without a budget");
  }
}

void EndToEnd(const Args& args, const Workload& w, Report* report, Tally* tally,
              std::vector<PassResult>* keep_for_checks) {
  PassOptions sat;
  sat.spill_dir = args.work_dir + "/spill";
  PassOptions paced = sat;
  paced.paced = true;

  std::vector<double> setup;
  auto measure_setups = [&] {
    for (int k = 0; k < kSetupsPerPass; ++k) {
      const PassResult p = PassRunner(w, sat).SetupOnly();
      if (!p.ok) {
        tally->errors.push_back("set-up: " + p.error);
        return;
      }
      setup.push_back(p.setup_s);
    }
  };
  // One untimed saturating pass warms the allocator and caches. Then
  // rounds of two saturating passes and one paced pass fill the run (at
  // least two rounds, so throughput and latency both sample the whole
  // run): throughput is the median over saturating passes, latency and
  // deploy times pool the paced passes, set-up is the median of the
  // set-ups timed before every pass.
  keep_for_checks->push_back(RunPass(w, sat));
  std::vector<double> rate, cpu, deploy_ms;
  LatencyHistogram latency;
  double max_lag_ms = 0;
  int64_t paced_pushes = 0;
  const int64_t start = NowNs();
  int64_t round_ns = 0;
  for (int round = 0; round < 2 || NowNs() - start + round_ns <= args.seconds * 1e9; ++round) {
    const int64_t round_start = NowNs();
    bool ok = true;
    for (const PassOptions* o : {&sat, &sat, &paced}) {
      measure_setups();
      PassResult p = RunPass(w, *o);
      ok = ok && p.ok;
      std::printf("pass %-10s %8.3f s %10.0f tuples/s %8.3f cpu_s lag_max %8.3f ms\n",
                  o == &sat ? "saturating" : "paced", p.wall_s,
                  p.wall_s > 0 ? static_cast<double>(p.pushes) / p.wall_s : 0, p.cpu_s,
                  p.max_lag_ms);
      if (p.ok && o == &sat) {
        rate.push_back(static_cast<double>(p.pushes) / p.wall_s);
        cpu.push_back(p.cpu_s / (static_cast<double>(p.pushes) * 1e-6));
      } else if (p.ok) {
        latency.Merge(p.latency);
        deploy_ms.insert(deploy_ms.end(), p.deploy_ms.begin(), p.deploy_ms.end());
        max_lag_ms = std::max(max_lag_ms, p.max_lag_ms);
        paced_pushes += p.pushes;
      }
      keep_for_checks->push_back(std::move(p));
    }
    round_ns = NowNs() - round_start;
    if (!ok || round >= 20) break;
  }

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_mib = static_cast<double>(usage.ru_maxrss) / 1024.0;

  const std::string passes = Count(static_cast<int64_t>(rate.size()), "saturating passes");
  report->Add("tuples_per_s", Median(rate), "1/s", passes);
  report->Add("cpu_s_per_mtuple", Median(cpu), "s", passes);
  report->Add("event_latency_ms_p50", latency.QuantileNs(0.5) * 1e-6, "ms",
              Count(latency.count(), "results"));
  report->AddTextOnly("event_latency_ms_p99", latency.QuantileNs(0.99) * 1e-6, "ms",
              Count(latency.count(), "results") + " " +
                  Count(latency.SamplesAbove(0.99), "beyond p99"));
  report->AddTextOnly("generator_lag_ms_max", max_lag_ms, "ms", Count(paced_pushes, "paced pushes"));
  const auto deploys = static_cast<int64_t>(deploy_ms.size());
  report->Add("deploy_ms_p50", Median(deploy_ms), "ms", Count(deploys, "requests"));
  report->AddTextOnly("deploy_ms_p90", Quantile(deploy_ms, 0.9), "ms",
              Count(deploys, "requests") + " " +
                  Count(deploys - 1 - static_cast<int64_t>(0.9 * static_cast<double>(deploys - 1) + 0.5),
                        "beyond p90"));
  report->Add("setup_s", Median(setup), "s", Count(static_cast<int64_t>(setup.size()), "set-ups"));
  report->Add("peak_rss_mib", peak_rss_mib, "MiB");
}

/// One per-layer round: a threaded pass measured from outside, an
/// untraced sync pass and a traced sync pass. Metrics go to `report`;
/// trace output and layer checks only when `checks` is set (first round).
void LayerRound(const Args& args, const Workload& w, Report* report, Report* checks,
                std::vector<PassResult>* passes) {
  PassOptions threaded;
  threaded.time_pushes = true;
  threaded.spill_dir = args.work_dir + "/spill";
  PassResult t = RunPass(w, threaded);

  PassOptions sync = threaded;
  sync.mode = Mode::kSync;
  sync.time_pushes = false;
  PassResult s = RunPass(w, sync);

  Tracer tracer;
  PassOptions traced = sync;
  traced.tracer = &tracer;
  PassResult tr = RunPass(w, traced);

  const auto inputs = static_cast<int64_t>(w.input.size());
  const auto& st = tr.stats;
  const auto& end = tr.stats_at_end_of_input;

  std::vector<double> control;
  {
    std::map<int64_t, double> per_step;
    std::map<int64_t, int> requests;
    for (const Tracer::Span& sp : tracer.spans()) {
      if (sp.step < 0) continue;
      per_step[sp.step] += static_cast<double>(sp.self_ns()) * 1e-6;
      const std::string name = sp.name;
      if (name == "Submit" || name == "Cancel") ++requests[sp.step];
    }
    for (const auto& [step, ms] : per_step) {
      control.push_back(ms / std::max(1, requests[step]));
    }
  }
  report->Add("core.trigger_s", static_cast<double>(tracer.SelfNs("PushWatermark")) * 1e-9, "s",
              "(self time of PushWatermark, traced sync pass)");
  report->Add("core.ingest_s", static_cast<double>(tracer.SelfNs("Push")) * 1e-9, "s",
              "(self time of Push)");
  report->Add("core.control_ms_p50", Median(control), "ms",
              Count(static_cast<int64_t>(control.size()), "churn steps"));
  report->Add("core.drain_s", static_cast<double>(tracer.SelfNs("FinishAndWait")) * 1e-9, "s");
  report->Add("core.outputs_per_input", Frac(tr.rows_out, inputs), "ratio",
              Base(tr.rows_out, inputs));
  report->Add("core.selection_pass_frac",
              Frac(st.selection_records_out, st.selection_records_in), "ratio",
              Base(st.selection_records_out, st.selection_records_in));
  report->Add("core.router_shared_frac",
              Frac(st.router_rows_shared, st.router_rows_shared + st.router_rows_copied),
              "ratio", Base(st.router_rows_shared, st.router_rows_shared + st.router_rows_copied));
  report->Add("core.arrange_memo_hit_frac",
              Frac(st.arrange_memo_hits, st.arrange_memo_hits + st.arrange_memo_misses),
              "ratio", Base(st.arrange_memo_hits, st.arrange_memo_hits + st.arrange_memo_misses));
  report->Add("core.factor_reuses", static_cast<double>(st.factor_reuses), "count");
  report->Add("core.factor_fallbacks", static_cast<double>(st.factor_fallbacks), "count");
  report->Add("core.join_pair_reuse_frac",
              Frac(st.join_pairs_reused, st.join_pairs_reused + st.join_pairs_computed),
              "ratio", Base(st.join_pairs_reused, st.join_pairs_reused + st.join_pairs_computed));
  report->Add("core.mjoin_chain_reuse_frac",
              Frac(st.mjoin_chains_reused, st.mjoin_chains_reused + st.mjoin_chains_computed),
              "ratio",
              Base(st.mjoin_chains_reused, st.mjoin_chains_reused + st.mjoin_chains_computed));
  report->Add("core.subjoins_attached", static_cast<double>(st.subjoins_attached), "count");
  report->Add("core.state_arena_mib", static_cast<double>(end.state_arena_bytes) / kMiB, "MiB",
              "(at end of input)");
  report->Add("core.arrange_memo_mib", static_cast<double>(end.arrange_memo_bytes) / kMiB,
              "MiB", "(at end of input)");

  const int64_t ratio_bp = Gauge(tr.metrics, "storage.compressed_ratio_bp");
  report->Add("storage.spill_mib", static_cast<double>(tr.spill_bytes) / kMiB, "MiB",
              "(on-disk bytes ever spilled)");
  report->Add("storage.spill_s", HistSumS(tr.metrics, "storage.spill_ms"), "s",
              "(engine histogram, whole-ms samples)");
  report->Add("storage.reload_s", HistSumS(tr.metrics, "storage.reload_ms"), "s",
              "(engine histogram, whole-ms samples)");
  report->Add("storage.compaction_runs",
              static_cast<double>(Gauge(tr.metrics, "storage.compaction_runs")), "count");
  report->Add("storage.compressed_ratio",
              tr.spill_bytes > 0 ? static_cast<double>(ratio_bp) / 10000.0 : 0, "ratio",
              "(on-disk / raw spilled bytes)");
  report->Add("storage.resident_mib_peak",
              static_cast<double>(tr.resident_peak_bytes) / kMiB, "MiB",
              "(sampled per watermark)");

  const double threaded_rate = t.wall_s > 0 ? static_cast<double>(t.pushes) / t.wall_s : 0;
  const double sync_rate = s.wall_s > 0 ? static_cast<double>(s.pushes) / s.wall_s : 0;
  report->Add("shard.push_blocked_s", t.push_blocked_s, "s",
              "(wall time inside Push, threaded pass of " + std::to_string(t.wall_s) + " s)");
  report->Add("shard.skew", t.skew, "ratio",
              "(max / mean tuples per shard over " + std::to_string(t.num_shards) + " shards)");
  report->Add("shard.engine_cores", t.wall_s > 0 ? t.cpu_s / t.wall_s : 0, "cores",
              "(process CPU / wall, threaded pass)");
  report->Add("shard.speedup_vs_sync", sync_rate > 0 ? threaded_rate / sync_rate : 0, "ratio",
              "(" + std::to_string(threaded_rate) + " / " + std::to_string(sync_rate) +
                  " tuples/s)");
  report->Add("shard.control_ms_p50", Median(t.control_ms), "ms",
              Count(static_cast<int64_t>(t.control_ms.size()), "Submit/Cancel calls"));

  report->Add("harness.callback_s", static_cast<double>(tracer.CallbackNs()) * 1e-9, "s",
              Count(tr.rows_out, "results, traced pass"));
  report->Add("harness.generator_cpu_s", t.generator_cpu_s, "s",
              "(generator thread CPU, threaded pass, includes Push)");
  report->Add("harness.sync_tuples_per_s", sync_rate, "1/s", "(untraced sync pass)");
  report->Add("harness.trace_overhead_frac", s.wall_s > 0 ? (tr.wall_s - s.wall_s) / s.wall_s : 0,
              "ratio",
              "((" + std::to_string(tr.wall_s) + " - " + std::to_string(s.wall_s) + ") / " +
                  std::to_string(s.wall_s) + " s)");

  if (checks != nullptr) {
    if (!args.trace_out.empty()) {
      std::error_code ec;
      std::filesystem::create_directories(
          std::filesystem::path(args.trace_out).parent_path(), ec);
      checks->Check(tracer.WriteNdjson(args.trace_out, static_cast<int64_t>(tr.wall_s * 1e9),
                                       w.name, args.seed),
                    "trace written to " + args.trace_out);
    }
    checks->Check(tracer.orphan_callbacks().cb_n == 0, "every callback nests in a span");
    if (w.budget_bytes == 0) {
      checks->Check(tr.spill_bytes == 0 && tr.resident_peak_bytes == 0 && ratio_bp == 0 &&
                        HistSumS(tr.metrics, "storage.spill_ms") == 0,
                    "storage.* zero without a budget");
    }
  }
  passes->push_back(std::move(t));
  passes->push_back(std::move(s));
  passes->push_back(std::move(tr));
}

/// Per-layer rounds until the run length is used up (at least one); each
/// metric is the median over rounds.
void PerLayer(const Args& args, const Workload& w, Report* report,
              std::vector<PassResult>* passes) {
  std::vector<Report> rounds;
  const int64_t start = NowNs();
  int64_t round_ns = 0;
  while (rounds.empty() || (NowNs() - start + round_ns <= args.seconds * 1e9 && rounds.size() < 20)) {
    const int64_t round_start = NowNs();
    rounds.emplace_back();
    LayerRound(args, w, &rounds.back(), rounds.size() == 1 ? report : nullptr, passes);
    round_ns = NowNs() - round_start;
  }
  const std::string of = Count(static_cast<int64_t>(rounds.size()), "rounds, median");
  for (size_t i = 0; i < rounds.front().metrics().size(); ++i) {
    const Metric& first = rounds.front().metrics()[i];
    std::vector<double> values;
    for (const Report& r : rounds) values.push_back(r.metrics()[i].value);
    report->Add(first.name, Median(values), first.unit,
                first.note.empty() ? of : of + ", first round " + first.note);
  }
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", k.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (k == "--workload") a->workload = value();
    else if (k == "--seed") a->seed = std::strtoull(value().c_str(), nullptr, 10);
    else if (k == "--seconds") a->seconds = std::strtod(value().c_str(), nullptr);
    else if (k == "--trace") a->trace = value() == "1";
    else if (k == "--scale") a->scale = std::strtod(value().c_str(), nullptr);
    else if (k == "--check-partition") a->check_partition = true;
    else if (k == "--corrupt-digest") a->corrupt_digest = true;
    else if (k == "--work-dir") a->work_dir = value();
    else if (k == "--trace-out") a->trace_out = value();
    else if (k == "--commit") a->commit = value();
    else {
      std::fprintf(stderr, "unknown argument %s\n", k.c_str());
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0 && a->scale > 0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: headline --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--scale <f>] [--check-partition] "
                 "[--corrupt-digest] [--work-dir <dir>] [--trace-out <file>]\n");
    return 2;
  }
  Workload w;
  if (!BuildWorkload(args.workload, args.seed, args.scale, &w)) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  std::printf("run workload=%s seed=%llu seconds=%g trace=%d scale=%g nproc=%u "
              "compiler=\"%s\" build_type=%s commit=%s\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, args.scale, std::thread::hardware_concurrency(),
              PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, args.commit.c_str());
  std::printf("shape tuples=%zu queries=%zu fleet=%d requests=%lld shards=%d budget=%lld "
              "tuples_per_ms=%lld paced_rate=%g\n",
              w.input.size(), w.queries.size(), w.fleet_size,
              static_cast<long long>(w.NumRequests()), w.shards,
              static_cast<long long>(w.budget_bytes),
              static_cast<long long>(w.tuples_per_ms), w.paced_rate);

  Report report;
  Tally tally;
  std::vector<PassResult> passes;
  if (args.trace) {
    PerLayer(args, w, &report, &passes);
  } else {
    EndToEnd(args, w, &report, &tally, &passes);
  }

  const int64_t ref_start = NowNs();
  const std::vector<Digest> reference = OfflineDigests(w, /*by_key=*/true);
  std::printf("reference harness::EvaluateReference per key %.3f s\n",
              static_cast<double>(NowNs() - ref_start) * 1e-9);
  if (args.check_partition) {
    const int bad = CountMismatches(reference, OfflineDigests(w, /*by_key=*/false));
    report.Check(bad == 0, "per-key reference equals the whole-input reference (" +
                               std::to_string(bad) + " of " +
                               std::to_string(w.queries.size()) + " queries differ)");
  }
  if (args.corrupt_digest && !passes.empty() && !passes.front().digests.empty()) {
    passes.front().digests.front().sum1 += 1;
  }
  int64_t run_requests = 0;
  for (size_t i = 0; i < passes.size(); ++i) {
    const std::string label = "pass " + std::to_string(i);
    tally.AddPass(label.c_str(), passes[i], reference);
    run_requests += passes[i].requests;
  }
  // The layer checks hold at the measured size; reduced passes are too
  // short to spill or to reach the request counts.
  if (args.scale == 1 && !passes.empty() && passes.front().ok) {
    LayerChecks(w, passes.front(), run_requests, &report);
  }
  report.Check(tally.errors.empty(),
               "outputs match the reference, no refused or failed operation (" +
                   std::to_string(tally.mismatched_queries) + " mismatched digests)");
  for (const std::string& e : tally.errors) std::fprintf(stderr, "error: %s\n", e.c_str());
  report.AddTextOnly("failed_frac", Frac(tally.failed, tally.attempted), "ratio",
                     Base(tally.failed, tally.attempted));
  const bool correct = tally.errors.empty() && !report.failed_checks();
  report.Print(correct, std::max<int64_t>(1, tally.attempted), tally.failed);
  std::error_code ec;
  std::filesystem::remove_all(args.work_dir + "/spill", ec);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace astream::perfbench

int main(int argc, char** argv) { return astream::perfbench::Main(argc, argv); }
