// End-to-end tests for the network serving tier (server/server.h,
// server/client.h): loopback round trips, the bit-identity contract
// against the in-process dispatcher, backpressure engage/release, abrupt
// disconnect cleanup, protocol-violation handling, and clean restart
// drain. CI runs this file under ASan and TSan — the server's loop-thread
// ledger + mutex-guarded snapshot must be clean under both.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "graph/generator.h"
#include "netproto/wire.h"
#include "runtime/sharded_runtime.h"
#include "server/client.h"
#include "server/server.h"
#include "sim/experiment.h"
#include "workload/synthetic.h"

namespace dynasore::net {
namespace {

using namespace std::chrono_literals;

graph::SocialGraph TestGraph(std::uint32_t users = 1200) {
  graph::GraphGenConfig config;
  config.num_users = users;
  config.links_per_user = 8.0;
  config.seed = 7;
  return GenerateCommunityGraph(config);
}

wl::RequestLog TestLog(const graph::SocialGraph& g, double days = 0.25) {
  wl::SyntheticLogConfig config;
  config.days = days;
  config.seed = 11;
  return GenerateSyntheticLog(g, config);
}

sim::ExperimentConfig BaseConfig() {
  sim::ExperimentConfig config;
  config.policy = sim::Policy::kDynaSoRe;
  config.extra_memory_pct = 50;
  config.seed = 5;
  return config;
}

// Owns a graph + runtime pair a Server can drive; mirrors the fixture in
// runtime_test.cc.
struct ServerFixture {
  explicit ServerFixture(std::uint32_t num_shards,
                         std::uint32_t users = 1200)
      : graph(TestGraph(users)),
        topo(sim::MakeTopology(BaseConfig().cluster)) {
    const sim::ExperimentConfig config = BaseConfig();
    core::EngineConfig engine = config.engine;
    engine.store.capacity_views = sim::CapacityPerServer(
        graph.num_users(), topo.num_servers(), config.extra_memory_pct);
    engine.adaptive = true;
    const place::PlacementResult placement = sim::MakeInitialPlacement(
        graph, topo, engine.store.capacity_views, config);
    rt::RuntimeConfig rt_config;
    rt_config.num_shards = num_shards;
    rt_config.spawn_threads = false;  // deterministic inline execution
    runtime = std::make_unique<rt::ShardedRuntime>(graph, topo, placement,
                                                   engine, rt_config);
  }

  graph::SocialGraph graph;
  net::Topology topo;
  std::unique_ptr<rt::ShardedRuntime> runtime;
};

// Polls `pred` until it holds or ~2s elapse; the event loop runs at epoll
// granularity so cross-thread observations need a grace window.
bool Eventually(const std::function<bool()>& pred) {
  for (int i = 0; i < 400; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(5ms);
  }
  return pred();
}

// ----- Config validation -----

TEST(ServerConfigTest, ValidatesEveryBound) {
  ServerConfig ok;
  EXPECT_NO_THROW(ok.Validate());

  ServerConfig c = ok;
  c.listen_backlog = 0;
  EXPECT_THROW(c.Validate(), std::invalid_argument);
  c = ok;
  c.max_connections = 0;
  EXPECT_THROW(c.Validate(), std::invalid_argument);
  c = ok;
  c.conn_inflight_budget = 0;
  EXPECT_THROW(c.Validate(), std::invalid_argument);
  c = ok;
  c.pending_budget = 0;
  EXPECT_THROW(c.Validate(), std::invalid_argument);
  c = ok;
  c.flush_batch = 0;
  EXPECT_THROW(c.Validate(), std::invalid_argument);
  // A linger of 0 is the default: execute at the end of each epoll wake.
  EXPECT_EQ(ok.flush_interval_us, 0u);
  c = ok;
  c.flush_interval_us = 1000;
  EXPECT_NO_THROW(c.Validate());
}

// The linger's nanosecond deadline must not wrap: the largest linger that
// cannot is accepted, one microsecond more is rejected by name.
TEST(ServerConfigTest, FlushIntervalIsBoundedWhereTheDeadlineCouldWrap) {
  ServerConfig c;
  c.flush_interval_us = ServerConfig::kMaxFlushIntervalUs;
  EXPECT_NO_THROW(c.Validate());
  // At the bound the deadline fits for any steady-clock reading (< 2^63).
  const std::uint64_t max_now = ~std::uint64_t{0} >> 1;
  EXPECT_GE(max_now + c.flush_interval_us * 1000, max_now);
  c.flush_interval_us = ServerConfig::kMaxFlushIntervalUs + 1;
  try {
    c.Validate();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("flush_interval_us"),
              std::string::npos);
  }
  c.flush_interval_us = ~std::uint64_t{0};  // the old "never" that wrapped
  EXPECT_THROW(c.Validate(), std::invalid_argument);
}

// A linger at the bound means "not on time": the batch waits for an
// explicit flush instead of executing at once, and the clamped epoll
// timeout keeps the loop serving meanwhile.
TEST(ServerTest, MaxLingerHoldsTheBatchUntilFlushed) {
  ServerFixture fx(2);
  ServerConfig config;
  config.flush_batch = 1u << 30;
  config.flush_interval_us = ServerConfig::kMaxFlushIntervalUs;
  Server server(*fx.runtime, config);
  server.Start();

  Client client;
  client.Connect("127.0.0.1", server.port());
  client.SubmitRead(0, 1);
  client.Ship();
  ASSERT_TRUE(Eventually([&] { return server.stats().ops_received >= 1; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(client.Stats().ops_executed, 0u);  // still pending
  EXPECT_EQ(client.Flush().executed_total, 1u);
  client.Close();
  server.Stop();
}

TEST(ServerConfigTest, ConstructorRejectsBadConfig) {
  ServerFixture fx(2);
  ServerConfig config;
  config.flush_batch = 0;
  EXPECT_THROW(Server(*fx.runtime, config), std::invalid_argument);
}

// ----- Basic loopback round trip -----

TEST(ServerTest, LoopbackOpsExecuteAndConserve) {
  ServerFixture fx(2);
  ServerConfig config;
  config.flush_batch = 64;
  config.flush_interval_us = 500;
  Server server(*fx.runtime, config);
  server.Start();
  ASSERT_TRUE(server.running());
  ASSERT_NE(server.port(), 0);

  Client client;
  client.Connect("127.0.0.1", server.port());

  constexpr std::uint32_t kOps = 1000;
  for (std::uint32_t i = 0; i < kOps; ++i) {
    const UserId user = i % fx.graph.num_users();
    if (i % 5 == 0) {
      client.SubmitWrite(/*time=*/i, user);
    } else {
      client.SubmitRead(/*time=*/i, user);
    }
  }
  const netp::FlushRespPayload flush = client.Flush();
  EXPECT_EQ(flush.executed_total, kOps);

  // Drain every op ack; each echoes a known seq and the executed kind.
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  while (client.acked_ok() + client.acked_busy() < kOps ||
         client.buffered_acks() > 0) {
    const Client::OpAck ack = client.WaitOpAck();
    ASSERT_FALSE(ack.busy);  // budgets are far above kOps
    ASSERT_GE(ack.seq, 1u);
    if (ack.resp.op == OpType::kWrite) {
      ++writes;
    } else {
      ++reads;
    }
    EXPECT_LT(ack.resp.shard, fx.runtime->num_shards());
  }
  EXPECT_EQ(reads + writes, kOps);
  EXPECT_EQ(writes, kOps / 5);

  // Server-side conservation at quiescence:
  // ops_received == ops_executed + busy_sent, acks_sent == ops_executed.
  const netp::StatsPayload stats = client.Stats();
  EXPECT_EQ(stats.ops_received, kOps);
  EXPECT_EQ(stats.ops_executed, kOps);
  EXPECT_EQ(stats.busy_sent, 0u);
  EXPECT_EQ(stats.acks_sent, kOps);
  EXPECT_EQ(stats.runtime_requests, kOps);
  EXPECT_EQ(stats.e2e_samples, kOps);
  EXPECT_GE(stats.batches_run, 1u);

  client.Close();
  server.Stop();
  EXPECT_FALSE(server.running());

  const ServerStats ss = server.stats();
  EXPECT_EQ(ss.ops_received, kOps);
  EXPECT_EQ(ss.ops_executed, kOps);
  EXPECT_EQ(ss.acks_sent, kOps);
  EXPECT_EQ(ss.busy_sent, 0u);
  EXPECT_EQ(ss.conns_accepted, 1u);
  EXPECT_EQ(ss.conns_closed, 1u);
}

// ----- Linger: the default executes at the end of each epoll wake -----

TEST(ServerTest, DefaultLingerAcksALoneOpWithoutFlush) {
  ServerFixture fx(2);
  Server server(*fx.runtime, ServerConfig{});
  server.Start();

  Client client;
  client.Connect("127.0.0.1", server.port());
  for (std::uint32_t i = 0; i < 3; ++i) {
    const std::uint32_t seq = client.SubmitRead(0, i);
    const Client::OpAck ack = client.WaitOpAck();  // no kFlushReq sent
    EXPECT_EQ(ack.seq, seq);
    EXPECT_FALSE(ack.busy);
    EXPECT_FALSE(ack.failed);
  }
  const netp::StatsPayload stats = client.Stats();
  EXPECT_EQ(stats.ops_executed, 3u);
  EXPECT_EQ(stats.acks_sent, 3u);
  // One op in flight at a time: every op was its own batch.
  EXPECT_EQ(stats.batches_run, 3u);
  client.Close();
  server.Stop();
  EXPECT_EQ(server.stats().flushes, 0u);
}

// ----- A throwing Run fails its batch; serving continues -----

TEST(ServerTest, ThrowingRunAnswersExecutionFailedAndKeepsServing) {
  ServerFixture fx(2);
  // Touched only by the server's loop thread, the runtime's one driver.
  bool thrown = false;
  fx.runtime->SetEpochHook([&thrown](SimTime, std::uint64_t) {
    if (thrown) return;
    thrown = true;
    throw std::runtime_error("injected runtime failure");
  });
  Server server(*fx.runtime, ServerConfig{});
  server.Start();

  Client client;
  client.Connect("127.0.0.1", server.port());
  const std::uint32_t failed_seq = client.SubmitRead(0, 1);
  const Client::OpAck failed = client.WaitOpAck();
  EXPECT_EQ(failed.seq, failed_seq);
  EXPECT_TRUE(failed.failed);
  EXPECT_FALSE(failed.busy);

  // Same connection, next batch: the runtime recovered and acks it.
  const std::uint32_t ok_seq = client.SubmitWrite(0, 2);
  const Client::OpAck ok = client.WaitOpAck();
  EXPECT_EQ(ok.seq, ok_seq);
  EXPECT_FALSE(ok.failed);
  EXPECT_EQ(ok.resp.op, OpType::kWrite);
  EXPECT_EQ(client.acked_failed(), 1u);
  EXPECT_EQ(client.acked_ok(), 1u);

  const netp::StatsPayload stats = client.Stats();
  EXPECT_EQ(stats.ops_failed, 1u);
  EXPECT_EQ(stats.ops_executed, 1u);
  EXPECT_EQ(stats.acks_sent, 1u);
  EXPECT_EQ(stats.ops_received,
            stats.ops_executed + stats.ops_failed + stats.busy_sent);
  client.Close();
  server.Stop();

  const ServerStats ss = server.stats();
  EXPECT_EQ(ss.ops_received, ss.ops_executed + ss.ops_failed + ss.busy_sent);
  EXPECT_EQ(ss.decode_errors, 0u);
  EXPECT_EQ(ss.conns_accepted, 1u);
}

// ----- Bit-identity: loopback replay == in-process dispatch -----

TEST(ServerTest, ReplayOverLoopbackIsBitIdenticalToInProcess) {
  const auto g = TestGraph();
  const wl::RequestLog log = TestLog(g);

  // Reference: the in-process dispatcher over the same log with
  // duration = 0, exactly the log the server reconstructs (replay mode
  // keeps request times but carries no synthetic-day duration).
  ServerFixture reference(4);
  wl::RequestLog ref_log = log;
  ref_log.duration = 0;
  const rt::RuntimeResult expected = reference.runtime->Run(ref_log);

  // Loopback: stream the identical log through a client in order, then
  // flush once — replay mode + unreachable flush bounds mean the server
  // issues exactly one Run over the identically-sorted input.
  ServerFixture fx(4);
  ServerConfig config;
  config.rebase_times = false;
  config.flush_batch = 1u << 30;
  config.flush_interval_us = 60ull * 1000 * 1000;
  config.conn_inflight_budget = static_cast<std::uint32_t>(
      log.requests.size() + 1);
  config.pending_budget = static_cast<std::uint32_t>(
      log.requests.size() + 1);
  Server server(*fx.runtime, config);
  server.Start();

  Client client;
  client.Connect("127.0.0.1", server.port());
  for (const Request& r : log.requests) {
    if (r.op == OpType::kWrite) {
      client.SubmitWrite(r.time, r.user);
    } else {
      client.SubmitRead(r.time, r.user);
    }
  }
  const netp::FlushRespPayload flush = client.Flush();
  EXPECT_EQ(flush.executed_total, log.requests.size());
  EXPECT_EQ(flush.batches_run, 1u);

  client.Close();
  server.Stop();

  // Fetch the served runtime's lifetime result via an empty run; give the
  // reference the same treatment so both sides saw identical Run calls.
  const wl::RequestLog empty;
  const rt::RuntimeResult served = fx.runtime->Run(empty);
  const rt::RuntimeResult expected_final = reference.runtime->Run(empty);

  // Bit-identical totals, counters, and e2e latency counts.
  EXPECT_EQ(served.totals.requests, expected_final.totals.requests);
  EXPECT_EQ(served.totals.reads, expected_final.totals.reads);
  EXPECT_EQ(served.totals.writes, expected_final.totals.writes);
  EXPECT_EQ(served.totals.messages_sent, expected_final.totals.messages_sent);
  EXPECT_EQ(served.totals.remote_read_slices,
            expected_final.totals.remote_read_slices);
  EXPECT_EQ(served.totals.remote_write_applies,
            expected_final.totals.remote_write_applies);
  EXPECT_EQ(served.totals.epochs, expected_final.totals.epochs);
  EXPECT_EQ(served.e2e_latency.count(), expected_final.e2e_latency.count());
  EXPECT_EQ(served.e2e_latency.count(), expected.totals.requests);

  const core::EngineCounters& a = served.counters;
  const core::EngineCounters& b = expected_final.counters;
  EXPECT_EQ(a.reads, b.reads);
  EXPECT_EQ(a.writes, b.writes);
  EXPECT_EQ(a.view_reads, b.view_reads);
  EXPECT_EQ(a.replica_updates, b.replica_updates);
  EXPECT_EQ(a.replicas_created, b.replicas_created);
  EXPECT_EQ(a.replicas_dropped, b.replicas_dropped);
  EXPECT_EQ(a.evictions_watermark, b.evictions_watermark);
  EXPECT_EQ(a.drops_negative, b.drops_negative);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.read_proxy_migrations, b.read_proxy_migrations);
  EXPECT_EQ(a.write_proxy_migrations, b.write_proxy_migrations);
}

// ----- Concurrent clients -----

TEST(ServerTest, ConcurrentClientsAllConserve) {
  ServerFixture fx(4);
  ServerConfig config;
  config.flush_batch = 128;
  config.flush_interval_us = 500;
  Server server(*fx.runtime, config);
  server.Start();

  constexpr int kClients = 4;
  constexpr std::uint32_t kOpsPerClient = 500;
  std::vector<std::uint64_t> ok(kClients, 0);
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      Client client;
      client.Connect("127.0.0.1", server.port());
      for (std::uint32_t i = 0; i < kOpsPerClient; ++i) {
        const UserId user = (t * kOpsPerClient + i) % fx.graph.num_users();
        if (i % 4 == 0) {
          client.SubmitWrite(0, user);
        } else {
          client.SubmitRead(0, user);
        }
      }
      client.Flush();
      while (client.acked_ok() + client.acked_busy() < kOpsPerClient ||
             client.buffered_acks() > 0) {
        (void)client.WaitOpAck();
      }
      ok[t] = client.acked_ok();
      EXPECT_EQ(client.acked_busy(), 0u);
      client.Close();
    });
  }
  for (auto& th : threads) th.join();

  std::uint64_t client_acks = 0;
  for (const std::uint64_t n : ok) client_acks += n;
  EXPECT_EQ(client_acks, kClients * kOpsPerClient);

  server.Stop();
  const ServerStats ss = server.stats();
  // Server-side totals equal the sum of client-side acks — the
  // conservation verdict the loopback bench wires to its exit code.
  EXPECT_EQ(ss.ops_executed, client_acks);
  EXPECT_EQ(ss.acks_sent, client_acks);
  EXPECT_EQ(ss.ops_received, ss.ops_executed + ss.busy_sent);
  EXPECT_EQ(ss.conns_accepted, kClients);
  EXPECT_EQ(ss.conns_closed, kClients);
}

// ----- Backpressure -----

TEST(ServerTest, BackpressureEmitsBusyThenRecovers) {
  ServerFixture fx(2);
  ServerConfig config;
  // Slow-consumer config: acks only ride an explicit flush (unreachable
  // batch/interval bounds), so a pipelined burst must overrun the
  // per-connection budget and draw kBusyResp for the excess.
  config.conn_inflight_budget = 4;
  config.flush_batch = 1u << 30;
  config.flush_interval_us = 60ull * 1000 * 1000;
  Server server(*fx.runtime, config);
  server.Start();

  Client client;
  client.Connect("127.0.0.1", server.port());

  constexpr std::uint32_t kBurst = 20;
  for (std::uint32_t i = 0; i < kBurst; ++i) {
    client.SubmitRead(0, i % fx.graph.num_users());
  }
  // The flush executes the admitted ops and acks everything.
  const netp::FlushRespPayload flush = client.Flush();
  EXPECT_EQ(flush.executed_total, config.conn_inflight_budget);
  std::uint64_t busy = 0;
  std::uint64_t executed = 0;
  while (client.acked_ok() + client.acked_busy() < kBurst ||
         client.buffered_acks() > 0) {
    const Client::OpAck ack = client.WaitOpAck();
    if (ack.busy) {
      ++busy;
    } else {
      ++executed;
    }
  }
  EXPECT_EQ(executed, config.conn_inflight_budget);
  EXPECT_EQ(busy, kBurst - config.conn_inflight_budget);

  // Backpressure is counted in telemetry...
  netp::StatsPayload stats = client.Stats();
  EXPECT_EQ(stats.busy_sent, busy);
  EXPECT_EQ(stats.ops_received, kBurst);
  EXPECT_EQ(stats.ops_executed, config.conn_inflight_budget);

  // ...and traffic recovers after the drain: the freed budget admits a
  // fresh burst with no further busies.
  for (std::uint32_t i = 0; i < config.conn_inflight_budget; ++i) {
    client.SubmitWrite(0, i % fx.graph.num_users());
  }
  client.Flush();
  while (client.buffered_acks() > 0) {
    const Client::OpAck ack = client.WaitOpAck();
    EXPECT_FALSE(ack.busy);
  }
  stats = client.Stats();
  EXPECT_EQ(stats.busy_sent, busy);  // unchanged — no new rejections
  EXPECT_EQ(stats.ops_executed,
            2ull * config.conn_inflight_budget);

  client.Close();
  server.Stop();
}

TEST(ServerTest, GlobalPendingBudgetAlsoBounds) {
  ServerFixture fx(2);
  ServerConfig config;
  config.conn_inflight_budget = 1u << 20;
  config.pending_budget = 8;  // server-wide bound, not per-connection
  config.flush_batch = 1u << 30;
  config.flush_interval_us = 60ull * 1000 * 1000;
  Server server(*fx.runtime, config);
  server.Start();

  Client client;
  client.Connect("127.0.0.1", server.port());
  for (std::uint32_t i = 0; i < 32; ++i) {
    client.SubmitRead(0, i % fx.graph.num_users());
  }
  const netp::FlushRespPayload flush = client.Flush();
  EXPECT_EQ(flush.executed_total, config.pending_budget);
  const netp::StatsPayload stats = client.Stats();
  EXPECT_EQ(stats.busy_sent, 32 - config.pending_budget);

  client.Close();
  server.Stop();
}

// ----- Connection lifecycle -----

TEST(ServerTest, AbruptDisconnectStillExecutesAdmittedOps) {
  ServerFixture fx(2);
  ServerConfig config;
  config.flush_batch = 1u << 30;
  config.flush_interval_us = 2000;  // ops execute ~2ms after admission
  Server server(*fx.runtime, config);
  server.Start();

  constexpr std::uint32_t kOps = 100;
  {
    Client client;
    client.Connect("127.0.0.1", server.port());
    for (std::uint32_t i = 0; i < kOps; ++i) {
      client.SubmitRead(0, i % fx.graph.num_users());
    }
    client.Ship();
    // Wait until the server has admitted everything, then vanish without
    // reading a single ack — the half-open/abrupt-close path.
    ASSERT_TRUE(Eventually(
        [&] { return server.stats().ops_received >= kOps; }));
    client.Close();
  }

  // The connection dies, yet every admitted op still executes exactly once
  // (acks for a dead connection are dropped, never mis-delivered).
  ASSERT_TRUE(Eventually([&] {
    const ServerStats s = server.stats();
    return s.conns_closed >= 1 && s.ops_executed + s.busy_sent >= kOps;
  }));

  // The server remains fully serviceable for a fresh connection.
  Client probe;
  probe.Connect("127.0.0.1", server.port());
  probe.SubmitRead(0, 1);
  const netp::FlushRespPayload flush = probe.Flush();
  const netp::StatsPayload stats = probe.Stats();
  EXPECT_EQ(stats.ops_received, stats.ops_executed + stats.busy_sent);
  EXPECT_GE(flush.executed_total, kOps);
  probe.Close();
  server.Stop();

  const ServerStats ss = server.stats();
  EXPECT_EQ(ss.conns_accepted, 2u);
  EXPECT_EQ(ss.conns_closed, 2u);
  EXPECT_EQ(ss.ops_received, ss.ops_executed + ss.busy_sent);
}

TEST(ServerTest, RejectsConnectionsOverTheCap) {
  ServerFixture fx(2);
  ServerConfig config;
  config.max_connections = 1;
  Server server(*fx.runtime, config);
  server.Start();

  Client first;
  first.Connect("127.0.0.1", server.port());
  first.SubmitRead(0, 1);
  first.Flush();  // proves the first connection is live and admitted

  // The second connect lands in the backlog but the server closes it on
  // accept; the client discovers on its first round trip.
  Client second;
  second.Connect("127.0.0.1", server.port());
  EXPECT_THROW(
      {
        second.SubmitRead(0, 2);
        (void)second.Flush();
      },
      std::runtime_error);

  ASSERT_TRUE(Eventually(
      [&] { return server.stats().conns_rejected >= 1; }));
  first.Close();
  server.Stop();
}

TEST(ServerTest, ProtocolGarbageDrawsErrorAndClose) {
  ServerFixture fx(2);
  ServerConfig config;
  Server server(*fx.runtime, config);
  server.Start();

  // Raw socket: send bytes that can never begin a frame.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  const std::uint8_t garbage[] = {0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x01};
  ASSERT_EQ(::send(fd, garbage, sizeof(garbage), MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof(garbage)));

  // The server answers one kErrorResp frame, then closes the connection.
  std::vector<std::uint8_t> rx;
  std::uint8_t buf[1024];
  while (true) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;  // EOF: server closed after the error frame
    rx.insert(rx.end(), buf, buf + n);
  }
  ::close(fd);

  const netp::DecodeResult r = netp::DecodeFrame(rx);
  ASSERT_EQ(r.status, netp::DecodeStatus::kOk);
  EXPECT_EQ(r.frame.header.type, netp::MsgType::kErrorResp);
  ASSERT_TRUE(Eventually(
      [&] { return server.stats().decode_errors >= 1; }));

  server.Stop();
  const ServerStats ss = server.stats();
  EXPECT_EQ(ss.ops_received, 0u);
  EXPECT_EQ(ss.conns_closed, 1u);
}

// ----- Restart drain -----

TEST(ServerTest, StopDrainsPendingAndRestartContinues) {
  ServerFixture fx(2);
  ServerConfig config;
  // Unreachable flush bounds: ops sit in the pending batch until Stop()
  // drains them.
  config.flush_batch = 1u << 30;
  config.flush_interval_us = 60ull * 1000 * 1000;
  Server server(*fx.runtime, config);
  server.Start();
  const std::uint16_t port = server.port();

  constexpr std::uint32_t kOps = 64;
  Client client;
  client.Connect("127.0.0.1", port);
  for (std::uint32_t i = 0; i < kOps; ++i) {
    client.SubmitRead(0, i % fx.graph.num_users());
  }
  client.Ship();
  ASSERT_TRUE(Eventually(
      [&] { return server.stats().ops_received >= kOps; }));

  // Stop with the batch still pending: the drain executes every admitted
  // op — nothing is dropped, conservation holds at zero pending.
  server.Stop();
  client.Close();
  const ServerStats ss = server.stats();
  EXPECT_EQ(ss.ops_received, kOps);
  EXPECT_EQ(ss.ops_executed + ss.busy_sent, kOps);

  // A second server over the same runtime continues from conserved
  // totals: its own ledger starts fresh, but the runtime's lifetime
  // request count carries the drained batch forward.
  Server second(*fx.runtime, ServerConfig{});
  second.Start();
  Client probe;
  probe.Connect("127.0.0.1", second.port());
  probe.SubmitWrite(0, 1);
  const netp::FlushRespPayload flush = probe.Flush();
  EXPECT_EQ(flush.executed_total, 1u);
  const netp::StatsPayload stats = probe.Stats();
  EXPECT_EQ(stats.runtime_requests, ss.ops_executed + 1);
  probe.Close();
  second.Stop();
}

TEST(ServerTest, StartTwiceThrowsAndStopIsIdempotent) {
  ServerFixture fx(2);
  Server server(*fx.runtime, ServerConfig{});
  server.Start();
  EXPECT_THROW(server.Start(), std::logic_error);
  server.Stop();
  server.Stop();  // idempotent
  EXPECT_FALSE(server.running());
}

// ----- View-fetch routing -----

TEST(ServerTest, ViewFetchReportsOwnerAndHealth) {
  ServerFixture fx(4);
  Server server(*fx.runtime, ServerConfig{});
  server.Start();

  Client client;
  client.Connect("127.0.0.1", server.port());
  for (const ViewId view : {ViewId{0}, ViewId{17}, ViewId{1199}}) {
    const netp::ViewFetchRespPayload resp = client.FetchView(view);
    EXPECT_EQ(resp.view, view);
    EXPECT_EQ(resp.owner_shard, fx.runtime->shard_map().shard_of(view));
    EXPECT_EQ(resp.num_shards, fx.runtime->num_shards());
    EXPECT_EQ(resp.health,
              static_cast<std::uint8_t>(rt::ShardHealth::kUp));
  }
  client.Close();
  server.Stop();
}

}  // namespace
}  // namespace dynasore::net
