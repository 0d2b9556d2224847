// Cross-window state sharing (DESIGN.md §12): cost of adding ad-hoc
// queries with DISTINCT window specs over one stream. With shared
// arrangements + factor-window rewriting, composable specs ride one
// slice lattice and one multiversioned store, so state bytes and
// maintenance CPU stay near-flat as the spec count grows 1 → 8. The
// sharing-off legs rebuild the per-query cost the rewrite removes.
// Outputs must be identical (order-insensitive hash) between modes at
// every sweep point.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/astream.h"
#include "harness/report.h"

namespace astream::bench {
namespace {

using core::AStreamJob;
using core::QueryDescriptor;
using core::QueryKind;
using spe::Row;
using spe::Value;

constexpr int kRows = 60000;
constexpr int kKeys = 64;
constexpr TimestampMs kSlide = 1000;  // shared slide: one GCD lattice
// Distinct lengths, all multiples of the slide → every spec factors onto
// the same { t ≡ origin (mod 1000) } lattice.
constexpr int kLengthFactors[] = {6, 3, 4, 8, 5, 10, 12, 7};

struct RunStats {
  double wall_s = 0;
  int64_t rows_out = 0;
  uint64_t out_hash = 0;
  int64_t max_state_bytes = 0;
  int64_t memo_hits = 0;
  int64_t factor_reuses = 0;
  bool ok = false;
};

uint64_t HashRecord(TimestampMs event_time, const Row& row) {
  uint64_t h = 0xcbf29ce484222325ULL ^ static_cast<uint64_t>(event_time);
  for (size_t c = 0; c < row.NumColumns(); ++c) {
    h ^= static_cast<uint64_t>(row.At(c)) + 0x9e3779b97f4a7c15ULL +
         (h << 6) + (h >> 2);
  }
  return h;
}

RunStats RunOnce(int num_specs, bool share) {
  ManualClock clock;
  AStreamJob::Options options;
  options.topology = AStreamJob::TopologyKind::kAggregation;
  options.parallelism = 1;
  options.threaded = false;  // deterministic; measures maintenance CPU
  options.clock = &clock;
  // Batch all submits into ONE changelog (common origin → one lattice).
  options.session.batch_size = 1000;
  options.session.max_timeout_ms = 1 << 30;
  options.share_arrangements = share;
  auto job_or = AStreamJob::Create(options);
  if (!job_or.ok()) return {};
  auto job = std::move(job_or).value();
  if (!job->Start().ok()) return {};

  RunStats stats;
  job->SetResultCallback([&stats](core::QueryId, const spe::Record& r) {
    ++stats.rows_out;
    // Commutative combine: insensitive to emission order.
    stats.out_hash += HashRecord(r.event_time, r.row);
  });

  clock.SetMs(0);
  for (int q = 0; q < num_specs; ++q) {
    QueryDescriptor d;
    d.kind = QueryKind::kAggregation;
    d.window = spe::WindowSpec::Sliding(kLengthFactors[q] * kSlide, kSlide);
    d.agg = {spe::AggKind::kSum, 1};
    if (!job->Submit(d).ok()) return {};
  }
  job->Pump(true);  // one batch: common origin, shared lattice

  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kRows; ++i) {
    const TimestampMs t = 2 + i;
    clock.SetMs(t);
    job->Push(0, t, Row{i % kKeys, i % 1000});
    if (i % 2000 == 1999) job->PushWatermark(t - 12 * kSlide);
    if (i % 1000 == 999) {
      const auto snapshot = job->MetricsSnapshot();
      const auto it = snapshot.gauges.find("state.arena_bytes");
      if (it != snapshot.gauges.end() && it->second > stats.max_state_bytes) {
        stats.max_state_bytes = it->second;
      }
    }
  }
  if (!job->FinishAndWait().ok()) return {};
  stats.wall_s = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  const AStreamJob::OperatorStats op = job->CollectStats();
  stats.memo_hits = op.arrange_memo_hits;
  stats.factor_reuses = op.factor_reuses;
  stats.ok = true;
  return stats;
}

/// Best-of-3 wall time (the usual noise shield on a shared box); hashes
/// and state footprints must agree across repeats.
RunStats RunBest(int num_specs, bool share) {
  RunStats best;
  for (int rep = 0; rep < 3; ++rep) {
    const RunStats s = RunOnce(num_specs, share);
    if (!s.ok) return {};
    if (rep > 0 && s.out_hash != best.out_hash) return {};
    if (rep == 0 || s.wall_s < best.wall_s) {
      const uint64_t hash = rep == 0 ? s.out_hash : best.out_hash;
      best = s;
      best.out_hash = hash;
    }
  }
  return best;
}

void Run() {
  harness::PrintBanner(
      "micro_arrange — shared arrangements vs per-query state",
      "Sweep over N distinct (length, slide) window specs on one "
      "aggregation stream, all composable onto one GCD lattice. Sharing "
      "on: one arrangement, factor-rewritten slices, memoized window "
      "composition. Sharing off: the per-query-store reference cost. "
      "Outputs must be hash-identical between modes at every N.",
      "sync aggregation topology, parallelism 1, 60k tuples, 64 keys, "
      "slide 1000ms, lengths {6,3,4,8,5,10,12,7}x slide, watermark "
      "every 2000 tuples");
  harness::Table table({"specs", "mode", "tuples/s", "state KiB",
                        "memo hits", "factor reuses", "rows out",
                        "output hash"});
  bool hashes_match = true;
  double on_base_wall = 0;
  int64_t on_base_bytes = 0;
  double on_wall_growth = 0, on_bytes_growth = 0;
  for (int n : {1, 2, 4, 8}) {
    const RunStats on = RunBest(n, true);
    const RunStats off = RunBest(n, false);
    if (!on.ok || !off.ok) {
      std::fprintf(stderr, "run failed for n=%d\n", n);
      continue;
    }
    if (on.out_hash != off.out_hash || on.rows_out != off.rows_out) {
      hashes_match = false;
    }
    if (n == 1) {
      on_base_wall = on.wall_s;
      on_base_bytes = on.max_state_bytes;
    }
    if (n == 8 && on_base_wall > 0 && on_base_bytes > 0) {
      on_wall_growth = on.wall_s / on_base_wall;
      on_bytes_growth =
          static_cast<double>(on.max_state_bytes) / on_base_bytes;
    }
    for (const auto& [label, s] :
         {std::pair<const char*, const RunStats&>{"shared", on},
          std::pair<const char*, const RunStats&>{"per-query", off}}) {
      char rate[32], state[32], hash[32];
      std::snprintf(rate, sizeof(rate), "%.0f",
                    static_cast<double>(kRows) / s.wall_s);
      std::snprintf(state, sizeof(state), "%.0f",
                    static_cast<double>(s.max_state_bytes) / 1024);
      std::snprintf(hash, sizeof(hash), "%016llx",
                    static_cast<unsigned long long>(s.out_hash));
      table.AddRow({std::to_string(n), label, rate, state,
                    std::to_string(s.memo_hits),
                    std::to_string(s.factor_reuses),
                    std::to_string(s.rows_out), hash});
    }
  }
  table.Print();
  std::printf("outputs identical shared vs per-query at every N: %s\n",
              hashes_match ? "yes" : "NO — MISMATCH");
  std::printf(
      "shared-mode growth 1→8 specs: state bytes %.2fx, wall time %.2fx "
      "(target: within ~1.5x)\n",
      on_bytes_growth, on_wall_growth);
  if (!hashes_match) std::exit(1);
}

}  // namespace
}  // namespace astream::bench

int main() {
  astream::bench::BenchInit();
  astream::bench::Run();
  return 0;
}
