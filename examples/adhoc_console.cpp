// An ad-hoc query console: drive a live sharded AStream deployment with
// text commands while synthetic data streams through it — the "hundreds
// of analysts firing ad-hoc queries at a live stream" experience of the
// paper's introduction, in miniature.
//
//   ./build/examples/adhoc_console                # scripted demo
//   ./build/examples/adhoc_console --interactive  # type commands yourself
//
// Commands:
//   agg <window_ms> [col <c>] [where <col> <op> <val>]   submit aggregation
//   sel <col> <op> <val>                                  submit selection
//   del <query_id>                                        cancel a query
//   stats                                                 QoS snapshot
//   run <ms>                                              stream data
//   split <shard>                                         live scale-out
//   move <shard>                                          live migration
//   quit

#include <cstdio>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/query_builder.h"
#include "shard/client.h"

namespace {

using astream::Client;
using astream::JobConfig;
using astream::ManualClock;
using astream::Result;
using astream::Rng;
using astream::StreamId;
using astream::core::AStreamJob;
using astream::core::CmpOp;
using astream::core::Predicate;
using astream::core::QueryBuilder;
using astream::core::QueryDescriptor;
using astream::core::QueryId;
using astream::spe::Row;

bool ParseOp(const std::string& s, CmpOp* op) {
  if (s == "<") *op = CmpOp::kLt;
  else if (s == ">") *op = CmpOp::kGt;
  else if (s == "==") *op = CmpOp::kEq;
  else if (s == "<=") *op = CmpOp::kLe;
  else if (s == ">=") *op = CmpOp::kGe;
  else return false;
  return true;
}

class Console {
 public:
  Console() {
    JobConfig config;
    config.job.topology = AStreamJob::TopologyKind::kAggregation;
    config.job.parallelism = 2;
    config.job.clock = &clock_;
    config.job.session.batch_size = 1;
    config.shards = 2;
    config.slots = 8;
    client_ = std::move(Client::Create(std::move(config))).value();
    client_->Start().ok();
    client_->SetResultCallback(
        [this](QueryId q, const astream::spe::Record& r) {
          if (echo_results_ && printed_ < 8) {
            std::printf("    -> [Q%lld @%lld] %s\n", (long long)q,
                        (long long)r.event_time, r.row.ToString().c_str());
            ++printed_;
          }
        });
  }

  void Execute(const std::string& line) {
    std::printf("astream> %s\n", line.c_str());
    std::istringstream in(line);
    std::string cmd;
    in >> cmd;
    if (cmd == "agg") {
      long window = 0;
      in >> window;
      auto builder = QueryBuilder::Aggregation().TumblingWindow(window);
      int agg_column = 1;
      std::string kw;
      while (in >> kw) {
        if (kw == "col") {
          in >> agg_column;
        } else if (kw == "where") {
          std::vector<Predicate> preds;
          if (!ParseWhere(in, &preds)) {
            std::printf("  bad where clause\n");
            return;
          }
          for (const Predicate& p : preds) {
            builder.WhereA(p.column, p.op, p.constant);
          }
        }
      }
      Submit(builder.Agg(astream::spe::AggKind::kSum, agg_column).Build());
    } else if (cmd == "sel") {
      std::vector<Predicate> preds;
      if (!ParsePredicateArgs(in, &preds)) {
        std::printf("  usage: sel <col> <op> <val>\n");
        return;
      }
      auto builder = QueryBuilder::Selection();
      for (const Predicate& p : preds) {
        builder.WhereA(p.column, p.op, p.constant);
      }
      Submit(builder.Build());
    } else if (cmd == "del") {
      long long id = 0;
      in >> id;
      const auto s = client_->Cancel(id);
      client_->Pump(true);
      std::printf("  %s\n", s.ok() ? "cancelled" : s.ToString().c_str());
    } else if (cmd == "stats") {
      PrintStats();
    } else if (cmd == "run") {
      long ms = 0;
      in >> ms;
      Stream(ms);
    } else if (cmd == "split") {
      int shard = 0;
      in >> shard;
      const auto s = client_->SplitShard(shard);
      if (s.ok()) {
        std::printf("  split shard %d: now %d shards (%lldms pause), "
                    "every query kept its state\n",
                    shard, client_->num_shards(),
                    (long long)client_->last_reshard_pause_ms());
      } else {
        std::printf("  split failed: %s\n", s.ToString().c_str());
      }
    } else if (cmd == "move") {
      int shard = 0;
      in >> shard;
      const auto s = client_->MoveShard(shard);
      if (s.ok()) {
        std::printf("  rebuilt shard %d from its drained checkpoint "
                    "(%lldms pause)\n",
                    shard, (long long)client_->last_reshard_pause_ms());
      } else {
        std::printf("  move failed: %s\n", s.ToString().c_str());
      }
    } else if (cmd == "quit") {
      quit_ = true;
    } else if (!cmd.empty()) {
      std::printf("  unknown command '%s'\n", cmd.c_str());
    }
  }

  void Finish() {
    client_->FinishAndWait();
    PrintStats();
  }

  bool quit() const { return quit_; }

 private:
  static bool ParsePredicateArgs(std::istream& in,
                                 std::vector<Predicate>* out) {
    Predicate p;
    std::string op;
    if (!(in >> p.column >> op >> p.constant)) return false;
    if (!ParseOp(op, &p.op)) return false;
    out->push_back(p);
    return true;
  }
  static bool ParseWhere(std::istream& in, std::vector<Predicate>* out) {
    return ParsePredicateArgs(in, out);
  }

  void Submit(const Result<QueryDescriptor>& built) {
    if (!built.ok()) {
      std::printf("  rejected: %s\n", built.status().ToString().c_str());
      return;
    }
    auto id = client_->Submit(*built);
    if (!id.ok()) {
      std::printf("  rejected: %s\n", id.status().ToString().c_str());
      return;
    }
    client_->Pump(true);
    std::printf("  live as Q%lld on %d shards (%s)\n", (long long)*id,
                client_->num_shards(), built->ToString().c_str());
  }

  void Stream(long ms) {
    printed_ = 0;
    echo_results_ = true;
    const auto until = now_ + ms;
    while (now_ < until) {
      now_ += 2;
      clock_.SetMs(now_);
      client_->Push(StreamId::kA, now_,
                    Row{rng_.UniformInt(0, 9), rng_.UniformInt(0, 99),
                        rng_.UniformInt(0, 99)});
      if (now_ % 100 == 0) client_->PushWatermark(now_);
    }
    echo_results_ = false;
    std::printf("  streamed %ldms of data (t=%lld), sample results above\n",
                ms, (long long)now_);
  }

  void PrintStats() {
    const auto snap = client_->MetricsSnapshot();
    // Delivered = emitted by the shards minus the copies the egress
    // ownership filter dropped after a split.
    long long outputs = 0;
    for (const auto& [q, series] : snap.queries) {
      outputs += series.records_emitted;
    }
    if (auto it = snap.counters.find("shard.egress_dropped");
        it != snap.counters.end()) {
      outputs -= it->second;
    }
    const auto deploy = snap.histograms.find("job.deploy_latency_ms");
    std::printf(
        "  shards=%d  outputs=%lld  event-latency mean=%.0fms  "
        "deploy mean=%.0fms\n",
        client_->num_shards(), outputs,
        astream::obs::QueryEventLatency(snap).mean(),
        deploy == snap.histograms.end() ? 0.0 : deploy->second.mean());
    for (const auto& [q, series] : snap.queries) {
      std::printf("    Q%lld: %lld rows emitted\n", (long long)q,
                  (long long)series.records_emitted);
    }
  }

  ManualClock clock_;
  std::unique_ptr<Client> client_;
  Rng rng_{2025};
  astream::TimestampMs now_ = 0;
  bool quit_ = false;
  bool echo_results_ = false;
  int printed_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  Console console;
  const bool interactive =
      argc > 1 && std::strcmp(argv[1], "--interactive") == 0;
  if (interactive) {
    std::string line;
    std::printf("astream ad-hoc console — 'quit' to exit\n");
    while (!console.quit() && std::getline(std::cin, line)) {
      console.Execute(line);
    }
  } else {
    // Scripted demo of the ad-hoc lifecycle, including a live scale-out.
    for (const char* line : {
             "agg 500",
             "run 1200",
             "sel 1 < 20",
             "agg 300 col 2 where 1 >= 50",
             "run 1500",
             "stats",
             "split 0",
             "run 800",
             "del 2",
             "run 800",
             "stats",
         }) {
      console.Execute(line);
    }
  }
  console.Finish();
  return 0;
}
