#include "perfbench/workloads.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <memory>

#include "common/rng.h"
#include "core/query_builder.h"
#include "spe/window.h"

namespace astream::perfbench {
namespace {

using core::QueryDescriptor;

/// Paper data (Sec. 4.2.1): per stream, keys round-robin over `key_max`
/// and `num_fields` uniform fields in [0, 1000). Streams take turns, so
/// the j-th tuple of every stream carries the same key.
std::vector<Event> MakeInput(uint64_t seed, int64_t num_tuples,
                             int num_streams, int64_t tuples_per_ms,
                             spe::Value key_max, int num_fields) {
  std::vector<Rng> rngs;
  for (int s = 0; s < num_streams; ++s) {
    rngs.emplace_back(seed * 0x9e3779b97f4a7c15ULL + 0x51ed + s);
  }
  std::vector<Event> input;
  input.reserve(static_cast<size_t>(num_tuples));
  for (int64_t i = 0; i < num_tuples; ++i) {
    const int stream = static_cast<int>(i % num_streams);
    std::vector<spe::Value> values;
    values.reserve(static_cast<size_t>(1 + num_fields));
    values.push_back((i / num_streams) % key_max);
    for (int f = 0; f < num_fields; ++f) {
      values.push_back(rngs[static_cast<size_t>(stream)].UniformInt(0, 999));
    }
    input.push_back(Event{stream, 1 + i / tuples_per_ms,
                          spe::Row(std::move(values))});
  }
  return input;
}

/// SC2-style churn on top of the standing fleet: `pairs` transient
/// queries, each submitted and then cancelled four submit-spacings later
/// (so about four are alive at any time). Submits are spread evenly over
/// the event-ms boundaries of the input; requests due at the same
/// boundary share one changelog, and every changelog lands on a distinct
/// event-ms.
void MakeChurn(Workload* w, int pairs,
               const std::function<QueryDescriptor()>& next_query) {
  constexpr int64_t kAlive = 4;
  const int64_t last_ms = w->LastEventMs();
  // Submit k opens event-ms first + k * spacing; its cancel comes kAlive
  // spacings later, and every cancel still lands inside the input.
  const double spacing = static_cast<double>(std::max<int64_t>(1, last_ms - 2)) /
                         static_cast<double>(pairs + kAlive);
  std::map<int64_t, std::vector<Request>> by_ms;
  for (int k = 0; k < pairs; ++k) {
    w->queries.push_back(next_query());
    const int instance = static_cast<int>(w->queries.size()) - 1;
    const int position = w->fleet_size + k;
    const auto submit_ms = 2 + static_cast<int64_t>(k * spacing);
    const auto cancel_ms = 2 + static_cast<int64_t>((k + kAlive) * spacing);
    by_ms[submit_ms].push_back(Request{false, position, instance});
    by_ms[std::max(cancel_ms, submit_ms + 1)].push_back(Request{true, position, -1});
  }
  w->positions = w->fleet_size + pairs;
  for (auto& [ms, requests] : by_ms) {
    // Cancels first, so a boundary's changelog never grows the fleet
    // before it shrinks it.
    std::stable_sort(requests.begin(), requests.end(),
                     [](const Request& a, const Request& b) { return a.cancel && !b.cancel; });
    w->churn.push_back(ChurnStep{(ms - 1) * w->tuples_per_ms, std::move(requests)});
  }
}

int64_t Scaled(int64_t n, double scale) {
  return std::max<int64_t>(1, static_cast<int64_t>(std::llround(
                                  static_cast<double>(n) * scale)));
}

/// A predicate on a seed-chosen payload column that passes about half the
/// tuples: the seed picks the column, the comparison direction and the
/// constant within a narrow band. QueryGenerator draws selectivities (and
/// windows) freely, which moves the output volume, and so every metric,
/// several-fold from one seed to the next; the workloads below keep the
/// amount of work fixed and let the seed vary the inputs.
core::Predicate HalfPredicate(Rng* rng) {
  core::Predicate p;
  p.column = static_cast<int>(rng->UniformInt(1, 5));
  const spe::Value pass = rng->UniformInt(490, 510);  // per mille
  const bool below = rng->Bernoulli(0.5);
  p.op = below ? core::CmpOp::kLt : core::CmpOp::kGe;
  p.constant = below ? pass : 1000 - pass;
  return p;
}

/// agg_churn: 64 standing SUM aggregations over the factor-composable
/// window mix (length 50 * (1 + j % 8) ms, slide 50 ms: eight specs on one
/// lattice), 1 shard, 170 churn requests per pass (>= 510 per run). Loads
/// the core trigger path and the control plane.
void BuildAggChurn(uint64_t seed, double scale, Workload* w) {
  w->topology = Client::TopologyKind::kAggregation;
  w->num_streams = 1;
  w->shards = 1;
  w->tuples_per_ms = 200;
  w->paced_rate = 23'000;
  w->input = MakeInput(seed, Scaled(100'000, scale), 1, w->tuples_per_ms, 1000, 5);
  auto rng = std::make_shared<Rng>(seed * 37 + 11);
  auto counter = std::make_shared<int>(0);
  auto next = [rng, counter] {
    const int j = (*counter)++;
    const core::Predicate p = HalfPredicate(rng.get());
    auto b = core::QueryBuilder::Aggregation();
    b.WhereA(p.column, p.op, p.constant)
        .Window(spe::WindowSpec::Sliding(50 * (1 + j % 8), 50))
        .Agg(spe::AggKind::kSum, 1);
    return *b.Build();
  };
  w->fleet_size = 64;
  for (int i = 0; i < w->fleet_size; ++i) w->queries.push_back(next());
  MakeChurn(w, static_cast<int>(Scaled(85, scale)), next);
}

/// join_sharded: 16 standing binary joins over alternating A/B tuples on
/// 3 shards, one predicate per side, sliding windows on a ladder of
/// lengths 400 + 50 * (j % 16) ms (400..1150) with slide = length / 2,
/// 100 churn requests per pass. Loads the shard layer and the join
/// arrangements.
///
/// Three shards, not one per CPU: on a 4-CPU host, four pump threads plus
/// the generator oversubscribe the CPUs, and under host CPU contention
/// throughput then swings up to 2x between runs. Two, three and four
/// shards reach the same throughput today (the serial part dominates),
/// and three leave room to show a 3x scaling gain.
void BuildJoinSharded(uint64_t seed, double scale, Workload* w) {
  w->topology = Client::TopologyKind::kJoin;
  w->num_streams = 2;
  w->shards = 3;
  w->tuples_per_ms = 20;
  w->paced_rate = 19'000;
  w->input = MakeInput(seed, Scaled(90'000, scale), 2, w->tuples_per_ms, 1000, 5);
  auto rng = std::make_shared<Rng>(seed * 29 + 13);
  auto counter = std::make_shared<int>(0);
  auto next = [rng, counter] {
    const int j = (*counter)++;
    const core::Predicate a = HalfPredicate(rng.get());
    const core::Predicate b = HalfPredicate(rng.get());
    const TimestampMs length = 400 + 50 * (j % 16);
    return *core::QueryBuilder::Join()
                .WhereA(a.column, a.op, a.constant)
                .WhereB(b.column, b.op, b.constant)
                .Window(spe::WindowSpec::Sliding(length, length / 2))
                .Build();
  };
  w->fleet_size = 16;
  for (int i = 0; i < w->fleet_size; ++i) w->queries.push_back(next());
  MakeChurn(w, static_cast<int>(Scaled(50, scale)), next);
}

/// mjoin_spill: 8 n-ary joins over a common 3-stream core (odd instances
/// extend it to 4-way with stream 3), sliding 1000/250 ms, under an 8 MiB
/// state budget, 100 churn requests per pass. Loads the storage layer and
/// the n-ary join's sub-join registry.
void BuildMjoinSpill(uint64_t seed, double scale, Workload* w) {
  w->topology = Client::TopologyKind::kMultiway;
  w->num_streams = 4;
  w->shards = 1;
  w->budget_bytes = 8 << 20;
  w->tuples_per_ms = 40;
  w->paced_rate = 32'000;
  w->input = MakeInput(seed, Scaled(120'000, scale), 4, w->tuples_per_ms, 16000, 5);
  auto rng = std::make_shared<Rng>(seed * 31 + 17);
  auto counter = std::make_shared<int>(0);
  auto next = [rng, counter] {
    const int j = (*counter)++;
    const core::Predicate p = HalfPredicate(rng.get());
    auto b = core::QueryBuilder::MultiwayJoin();
    b.Input(0).Input(1).Input(2);
    if (j % 2 == 1) b.Input(3);
    b.WhereStream(1, p.column, p.op, p.constant);
    b.Window(spe::WindowSpec::Sliding(1000, 250));
    return *b.Build();
  };
  w->fleet_size = 8;
  for (int i = 0; i < w->fleet_size; ++i) w->queries.push_back(next());
  MakeChurn(w, static_cast<int>(Scaled(50, scale)), next);
}

}  // namespace

bool BuildWorkload(const std::string& name, uint64_t seed, double scale,
                   Workload* out) {
  Workload w;
  w.name = name;
  if (name == "agg_churn") {
    BuildAggChurn(seed, scale, &w);
  } else if (name == "join_sharded") {
    BuildJoinSharded(seed, scale, &w);
  } else if (name == "mjoin_spill") {
    BuildMjoinSpill(seed, scale, &w);
  } else {
    return false;
  }
  *out = std::move(w);
  return true;
}

}  // namespace astream::perfbench
