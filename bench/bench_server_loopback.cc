// Loopback load generator for the network serving tier (server/server.h):
// starts a net::Server over a ShardedRuntime, fans out N concurrent
// net::Client connections on 127.0.0.1, and drives a windowed pipelined
// stream of read/write ops through each. Reports ops/sec and client-
// observed p50/p99 round-trip latency per connection count, then renders
// the conservation verdict the exit code is wired to:
//
//   server ops_received == ops_executed + busy_sent   (admission ledger)
//   server ops_executed == acks_sent                  (every op answered)
//   server ops_executed == sum of client-side ok acks (loopback agreement)
//
// Ops rejected kBusy (admission control under the pipelined burst) are
// resubmitted by the generator and counted in the busy column — they are
// backpressure working, not loss; the verdict only demands that accepted
// work is conserved end to end.
//
// Flags (bench_util): --scale=F --seed=N --graph=NAME --smoke
// --csv-dir=PATH --shards=A,B,C (first entry is the serving shard count,
// default 4) --port=N (fixed server port; default kernel-ephemeral)
// --connections=N (single sweep point; default 1,2,4,8). CSV columns are
// documented in docs/benchmarks.md.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench_util.h"
#include "common/table.h"
#include "runtime/sharded_runtime.h"
#include "server/client.h"
#include "server/server.h"
#include "sim/experiment.h"

using namespace dynasore;
using bench::BenchArgs;

namespace {

constexpr char kCsvHeader[] =
    "connections,shards,ops,ops_per_sec,p50_us,p99_us,busy_retries,"
    "conserved\n";

std::uint64_t NowUs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct SweepRow {
  std::uint32_t connections = 0;
  std::uint64_t ops = 0;
  double ops_per_sec = 0;
  double p50_us = 0;
  double p99_us = 0;
  std::uint64_t busy_retries = 0;
  bool conserved = false;
};

struct ClientOutcome {
  std::uint64_t acked_ok = 0;
  std::uint64_t busy_retries = 0;
  std::vector<std::uint64_t> latencies_us;
  bool failed = false;
};

// One connection's worth of load: a windowed pipeline that keeps up to
// `window` ops outstanding, resubmits anything answered kBusy, and records
// the submit->ack round trip of every completed op.
ClientOutcome DriveClient(std::uint16_t port, std::uint64_t target_ops,
                          std::uint32_t window, std::uint32_t num_users,
                          std::uint64_t seed) {
  ClientOutcome out;
  out.latencies_us.reserve(target_ops);
  try {
    net::Client client;
    client.Connect("127.0.0.1", port);

    // seq -> (submit time, user, op) so busy acks can resubmit and ok acks
    // can record latency. Ack order is not submission order (busy replies
    // are immediate; executed acks ride the server's flush).
    struct Inflight {
      std::uint64_t sent_us;
      UserId user;
      bool write;
    };
    std::unordered_map<std::uint32_t, Inflight> inflight;
    inflight.reserve(window * 2);

    std::uint64_t submitted = 0;
    std::uint64_t rng = seed | 1;
    const auto submit_next = [&](UserId user, bool write) {
      const std::uint32_t seq = write ? client.SubmitWrite(0, user)
                                      : client.SubmitRead(0, user);
      inflight.emplace(seq, Inflight{NowUs(), user, write});
    };

    // Run until every submitted op has been acked ok — exiting with ops
    // still in flight would let the server execute work this side never
    // counts, breaking the conservation verdict by construction.
    while (submitted < target_ops || !inflight.empty()) {
      while (submitted < target_ops && inflight.size() < window) {
        // xorshift64: cheap deterministic user/op draw per submission.
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        const UserId user = static_cast<UserId>(rng % num_users);
        submit_next(user, (rng & 7) == 0);  // ~1 write per 8 ops
        ++submitted;
      }
      client.Ship();
      const net::Client::OpAck ack = client.WaitOpAck();
      const auto it = inflight.find(ack.seq);
      if (it == inflight.end()) continue;  // unknown seq: ignore
      const Inflight op = it->second;
      inflight.erase(it);
      if (ack.busy) {
        // Backpressure: resubmit the identical op (a retry, not new work).
        ++out.busy_retries;
        submit_next(op.user, op.write);
      } else {
        ++out.acked_ok;
        out.latencies_us.push_back(NowUs() - op.sent_us);
      }
    }
    client.Close();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[client] failed: %s\n", e.what());
    out.failed = true;
  }
  return out;
}

double Percentile(std::vector<std::uint64_t>& sorted, double q) {
  if (sorted.empty()) return 0;
  const std::size_t idx = std::min(
      sorted.size() - 1,
      static_cast<std::size_t>(q * static_cast<double>(sorted.size())));
  return static_cast<double>(sorted[idx]);
}

}  // namespace

int main(int argc, char** argv) {
  BenchArgs args = bench::ParseArgs(argc, argv);
  bench::ApplySmoke(args);

  const std::uint32_t num_shards = args.shards.empty() ? 4 : args.shards[0];
  const std::uint64_t ops_per_conn = args.smoke ? 4000 : 100000;
  constexpr std::uint32_t kWindow = 2048;

  std::vector<std::uint32_t> sweep{1, 2, 4, 8};
  if (args.connections != 0) sweep = {args.connections};

  const graph::SocialGraph g = bench::MakeGraph(args.graph, args);
  std::printf("server loopback: hardware_concurrency=%u graph=%s users=%u "
              "shards=%u ops/conn=%llu window=%u\n",
              std::thread::hardware_concurrency(), args.graph.c_str(),
              g.num_users(), num_shards,
              static_cast<unsigned long long>(ops_per_conn), kWindow);

  sim::ExperimentConfig config;
  config.policy = sim::Policy::kDynaSoRe;
  config.extra_memory_pct = 50;
  config.seed = args.seed;
  const net::Topology topo = sim::MakeTopology(config.cluster);
  core::EngineConfig engine = config.engine;
  engine.store.capacity_views = sim::CapacityPerServer(
      g.num_users(), topo.num_servers(), config.extra_memory_pct);
  engine.adaptive = true;
  const place::PlacementResult placement = sim::MakeInitialPlacement(
      g, topo, engine.store.capacity_views, config);

  common::TablePrinter table(
      {"connections", "ops", "ops/sec", "p50 us", "p99 us", "busy",
       "conserved"});
  std::string csv = kCsvHeader;
  bool all_conserved = true;
  double best_ops_per_sec = 0;

  for (const std::uint32_t conns : sweep) {
    // A fresh runtime + server per sweep point keeps ledgers independent.
    rt::RuntimeConfig rt_config;
    rt_config.num_shards = num_shards;
    // On a single-core host worker threads only add context switching —
    // run the shard engines inline on the event-loop thread there.
    rt_config.spawn_threads = std::thread::hardware_concurrency() > 1;
    rt::ShardedRuntime runtime(g, topo, placement, engine, rt_config);

    net::ServerConfig server_config;
    server_config.port = args.port;
    net::Server server(runtime, server_config);
    server.Start();

    const std::uint64_t start_us = NowUs();
    std::vector<ClientOutcome> outcomes(conns);
    std::vector<std::thread> threads;
    threads.reserve(conns);
    for (std::uint32_t t = 0; t < conns; ++t) {
      threads.emplace_back([&, t] {
        outcomes[t] = DriveClient(server.port(), ops_per_conn, kWindow,
                                  g.num_users(), args.seed + 17 * (t + 1));
      });
    }
    for (auto& th : threads) th.join();
    const double elapsed_s =
        static_cast<double>(NowUs() - start_us) / 1e6;

    server.Stop();
    const net::ServerStats stats = server.stats();

    SweepRow row;
    row.connections = conns;
    std::vector<std::uint64_t> latencies;
    bool any_failed = false;
    for (auto& oc : outcomes) {
      row.ops += oc.acked_ok;
      row.busy_retries += oc.busy_retries;
      latencies.insert(latencies.end(), oc.latencies_us.begin(),
                       oc.latencies_us.end());
      any_failed |= oc.failed;
    }
    std::sort(latencies.begin(), latencies.end());
    row.ops_per_sec =
        elapsed_s > 0 ? static_cast<double>(row.ops) / elapsed_s : 0;
    row.p50_us = Percentile(latencies, 0.50);
    row.p99_us = Percentile(latencies, 0.99);

    // Conservation verdict: server-side totals must equal the sum of
    // client-side acks, and the admission ledger must balance.
    row.conserved =
        !any_failed &&
        stats.ops_executed == row.ops &&
        stats.acks_sent == stats.ops_executed &&
        stats.ops_received == stats.ops_executed + stats.busy_sent &&
        stats.busy_sent == row.busy_retries;
    all_conserved &= row.conserved;
    best_ops_per_sec = std::max(best_ops_per_sec, row.ops_per_sec);

    table.AddRow({common::TablePrinter::Fmt(std::uint64_t{row.connections}),
                  common::TablePrinter::Fmt(row.ops),
                  common::TablePrinter::Fmt(row.ops_per_sec, 0),
                  common::TablePrinter::Fmt(row.p50_us, 1),
                  common::TablePrinter::Fmt(row.p99_us, 1),
                  common::TablePrinter::Fmt(row.busy_retries),
                  row.conserved ? "yes" : "NO"});
    csv.append(std::to_string(row.connections))
        .append(",")
        .append(std::to_string(num_shards))
        .append(",")
        .append(std::to_string(row.ops))
        .append(",")
        .append(common::TablePrinter::Fmt(row.ops_per_sec, 1))
        .append(",")
        .append(common::TablePrinter::Fmt(row.p50_us, 1))
        .append(",")
        .append(common::TablePrinter::Fmt(row.p99_us, 1))
        .append(",")
        .append(std::to_string(row.busy_retries))
        .append(",")
        .append(row.conserved ? "1" : "0")
        .append("\n");
  }

  table.Print();
  bench::SaveCsv(args, "server_loopback", csv);

  std::printf("\nbest throughput: %.0f ops/sec (%u shards)\n",
              best_ops_per_sec, num_shards);
  std::printf("conservation (server totals == client acks): %s\n",
              all_conserved ? "PASS" : "FAIL");
  return all_conserved ? 0 : 1;
}
