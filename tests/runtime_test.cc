#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "graph/generator.h"
#include "runtime/bounded_queue.h"
#include "runtime/shard_map.h"
#include "runtime/sharded_runtime.h"
#include "sim/experiment.h"
#include "workload/flash.h"
#include "workload/partition.h"
#include "workload/synthetic.h"
#include "workload/trace.h"

namespace dynasore::rt {
namespace {

// ----- BoundedQueue -----

TEST(BoundedQueueTest, FifoOrder) {
  BoundedQueue<int> q(8);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(q.Push(i));
  for (int i = 0; i < 5; ++i) EXPECT_EQ(q.Pop(), i);
}

TEST(BoundedQueueTest, TryPopEmptyReturnsNothing) {
  BoundedQueue<int> q(4);
  EXPECT_FALSE(q.TryPop().has_value());
  q.Push(7);
  EXPECT_EQ(q.TryPop(), 7);
  EXPECT_FALSE(q.TryPop().has_value());
}

TEST(BoundedQueueTest, PushBlocksAtCapacityUntilPop) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.Push(1));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    q.Push(2);  // blocks until the consumer pops
    pushed.store(true);
  });
  // Give the producer a chance to block (best effort, no timing assert).
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(pushed.load());
  EXPECT_EQ(q.Pop(), 1);
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(q.Pop(), 2);
}

TEST(BoundedQueueTest, CloseUnblocksAndDrains) {
  BoundedQueue<int> q(4);
  q.Push(1);
  q.Close();
  EXPECT_FALSE(q.Push(2));
  EXPECT_EQ(q.Pop(), 1);          // closed queues drain their remainder
  EXPECT_FALSE(q.Pop().has_value());  // then report exhaustion
}

TEST(BoundedQueueTest, PushAfterCloseDoesNotEnqueue) {
  BoundedQueue<int> q(4);
  q.Close();
  EXPECT_TRUE(q.closed());
  EXPECT_FALSE(q.Push(1));
  EXPECT_EQ(q.size(), 0u);  // the rejected item was not enqueued
  EXPECT_FALSE(q.Pop().has_value());
  EXPECT_FALSE(q.TryPop().has_value());
}

TEST(BoundedQueueTest, DrainAfterCloseKeepsFifoOrder) {
  BoundedQueue<int> q(8);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(q.Push(i));
  q.Close();
  // Blocking and non-blocking pops both drain the remainder in order.
  EXPECT_EQ(q.Pop(), 0);
  EXPECT_EQ(q.TryPop(), 1);
  EXPECT_EQ(q.Pop(), 2);
  EXPECT_EQ(q.TryPop(), 3);
  EXPECT_EQ(q.Pop(), 4);
  EXPECT_FALSE(q.Pop().has_value());
}

TEST(BoundedQueueTest, CloseUnblocksWaitingProducer) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.Push(1));
  std::atomic<bool> rejected{false};
  std::thread producer([&] {
    rejected.store(!q.Push(2));  // blocks at capacity until Close
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.Close();
  producer.join();
  EXPECT_TRUE(rejected.load());
  EXPECT_EQ(q.Pop(), 1);  // the pre-close item still drains
  EXPECT_FALSE(q.Pop().has_value());
}

TEST(BoundedQueueTest, MultiProducerDeliversEverything) {
  BoundedQueue<int> q(4);
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 100;
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) q.Push(p * kPerProducer + i);
    });
  }
  std::vector<bool> seen(kProducers * kPerProducer, false);
  for (int i = 0; i < kProducers * kPerProducer; ++i) {
    const auto item = q.Pop();
    ASSERT_TRUE(item.has_value());
    ASSERT_FALSE(seen[*item]);
    seen[*item] = true;
  }
  for (auto& t : producers) t.join();
  EXPECT_FALSE(q.TryPop().has_value());
}

// ----- ShardMap -----

TEST(ShardMapTest, HashCoversAllShardsAndIsStable) {
  const ShardMap map(4);
  std::vector<std::uint32_t> hits(4, 0);
  for (UserId u = 0; u < 10000; ++u) {
    const std::uint32_t s = map.shard_of(u);
    ASSERT_LT(s, 4u);
    EXPECT_EQ(s, map.shard_of(u));  // stable
    ++hits[s];
  }
  for (std::uint32_t h : hits) EXPECT_GT(h, 2000u);  // roughly even
}

TEST(ShardMapTest, EveryIdOwnedByExactlyOneShard) {
  for (const std::uint32_t shards : {1u, 3u, 4u, 7u}) {
    const std::uint32_t users = 997;
    const ShardMap map(shards);
    std::vector<std::uint32_t> hits(shards, 0);
    for (UserId u = 0; u < users; ++u) {
      const std::uint32_t s = map.shard_of(u);
      ASSERT_LT(s, shards);            // a valid owner...
      ASSERT_EQ(s, map.shard_of(u));   // ...and always the same one
      ++hits[s];
    }
    std::uint32_t total = 0;
    for (std::uint32_t h : hits) {
      EXPECT_GT(h, 0u);  // no shard owns an empty slice of the id space
      total += h;
    }
    EXPECT_EQ(total, users);  // owned exactly once: no loss, no overlap
  }
}

// ----- Fixtures -----

graph::SocialGraph TestGraph(std::uint32_t users = 1200) {
  graph::GraphGenConfig config;
  config.num_users = users;
  config.links_per_user = 8.0;
  config.seed = 7;
  return GenerateCommunityGraph(config);
}

wl::RequestLog TestLog(const graph::SocialGraph& g, double days = 1.0) {
  wl::SyntheticLogConfig config;
  config.days = days;
  config.seed = 11;
  return GenerateSyntheticLog(g, config);
}

sim::ExperimentConfig BaseConfig(bool adaptive) {
  sim::ExperimentConfig config;
  config.policy = adaptive ? sim::Policy::kDynaSoRe : sim::Policy::kRandom;
  config.extra_memory_pct = 50;
  config.seed = 5;
  return config;
}

struct RuntimeFixture {
  net::Topology topo;
  place::PlacementResult placement;
  core::EngineConfig engine;
};

RuntimeFixture MakeFixture(const graph::SocialGraph& g,
                           const sim::ExperimentConfig& config) {
  RuntimeFixture fx{sim::MakeTopology(config.cluster), {}, config.engine};
  fx.engine.store.capacity_views = sim::CapacityPerServer(
      g.num_users(), fx.topo.num_servers(), config.extra_memory_pct);
  fx.engine.adaptive = config.policy == sim::Policy::kDynaSoRe;
  fx.placement = sim::MakeInitialPlacement(
      g, fx.topo, fx.engine.store.capacity_views, config);
  return fx;
}

RuntimeResult RunSharded(const graph::SocialGraph& g,
                         const wl::RequestLog& log, bool adaptive,
                         RuntimeConfig rt_config,
                         std::span<const wl::FlashEvent> flash = {}) {
  const sim::ExperimentConfig config = BaseConfig(adaptive);
  const RuntimeFixture fx = MakeFixture(g, config);
  ShardedRuntime runtime(g, fx.topo, fx.placement, fx.engine, rt_config);
  return runtime.Run(log, flash);
}

void ExpectCountersEq(const core::EngineCounters& a,
                      const core::EngineCounters& b) {
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
  EXPECT_EQ(a.crash_rebuilds, b.crash_rebuilds);
}

// ----- Golden replay -----
//
// One fixed-seed activity-trace replay through the sequential adaptive
// engine and through a 2-shard kEpoch runtime, against counters and
// per-tier traffic recorded before the engine's maintenance was rewritten
// for speed (flat replica tables, sort-once eviction, lazy counter
// rotation). Every adaptation decision breaks ties by view id, so a changed
// order or tie-break anywhere in the engine changes these numbers.

struct GoldenTraffic {
  std::array<std::uint64_t, net::kNumTiers> app;
  std::array<std::uint64_t, net::kNumTiers> sys;
};

wl::RequestLog GoldenTrace(const graph::SocialGraph& g) {
  wl::TraceLogConfig config;
  config.days = 2.0;
  config.seed = 13;
  return wl::GenerateActivityTrace(g, config);
}

sim::ExperimentConfig GoldenConfig() {
  sim::ExperimentConfig config = BaseConfig(/*adaptive=*/true);
  config.extra_memory_pct = 30;  // memory pressure: evictions every tick
  return config;
}

TEST(GoldenReplayTest, SequentialEngineMatchesRecordedRun) {
  const auto g = TestGraph();
  const auto log = GoldenTrace(g);
  const sim::SimResult result = sim::RunExperiment(g, log, GoldenConfig());
  ExpectCountersEq(result.counters,
                   core::EngineCounters{672, 1166, 14035, 1427, 3904, 3748,
                                        3610, 138, 93, 470, 361, 0});
  const GoldenTraffic want{{201360, 470500, 578380},
                           {111423, 250682, 284669}};
  for (int tier = 0; tier < net::kNumTiers; ++tier) {
    EXPECT_EQ(result.full_run[tier].app, static_cast<double>(want.app[tier]))
        << "tier " << tier;
    EXPECT_EQ(result.full_run[tier].sys, static_cast<double>(want.sys[tier]))
        << "tier " << tier;
  }
}

TEST(GoldenReplayTest, TwoShardEpochRuntimeMatchesRecordedRun) {
  const auto g = TestGraph();
  const auto log = GoldenTrace(g);
  const RuntimeFixture fx = MakeFixture(g, GoldenConfig());
  RuntimeConfig rt_config;
  rt_config.num_shards = 2;
  rt_config.drain = DrainPolicy::kEpoch;
  ShardedRuntime runtime(g, fx.topo, fx.placement, fx.engine, rt_config);
  const RuntimeResult result = runtime.Run(log);
  ExpectCountersEq(result.counters,
                   core::EngineCounters{672, 1166, 14035, 1594, 7129, 6809,
                                        6524, 285, 20, 466, 481, 0});
  const GoldenTraffic want{{194260, 466280, 584600},
                           {214258, 477790, 536057}};
  for (int tier = 0; tier < net::kNumTiers; ++tier) {
    EXPECT_EQ(result.traffic_app[tier], want.app[tier]) << "tier " << tier;
    EXPECT_EQ(result.traffic_sys[tier], want.sys[tier]) << "tier " << tier;
  }
}

// ----- Single-shard equivalence with the sequential engine -----

TEST(ShardedRuntimeTest, OneShardInlineMatchesSequentialExactly) {
  const auto g = TestGraph();
  const auto log = TestLog(g);
  const sim::SimResult sequential =
      sim::RunExperiment(g, log, BaseConfig(/*adaptive=*/true));

  RuntimeConfig rt_config;
  rt_config.num_shards = 1;
  rt_config.spawn_threads = false;  // deterministic inline fallback
  const RuntimeResult result =
      RunSharded(g, log, /*adaptive=*/true, rt_config);

  ExpectCountersEq(result.counters, sequential.counters);
  EXPECT_EQ(result.totals.requests, result.expected_requests);
}

TEST(ShardedRuntimeTest, OneShardThreadedMatchesSequentialExactly) {
  const auto g = TestGraph();
  const auto log = TestLog(g);
  const sim::SimResult sequential =
      sim::RunExperiment(g, log, BaseConfig(/*adaptive=*/true));

  RuntimeConfig rt_config;
  rt_config.num_shards = 1;
  rt_config.spawn_threads = true;
  const RuntimeResult result =
      RunSharded(g, log, /*adaptive=*/true, rt_config);

  ExpectCountersEq(result.counters, sequential.counters);
}

TEST(ShardedRuntimeTest, OneShardStaticMatchesSequentialTraffic) {
  const auto g = TestGraph();
  const auto log = TestLog(g, 0.5);
  const sim::SimResult sequential =
      sim::RunExperiment(g, log, BaseConfig(/*adaptive=*/false));

  RuntimeConfig rt_config;
  rt_config.num_shards = 1;
  rt_config.spawn_threads = false;
  const RuntimeResult result =
      RunSharded(g, log, /*adaptive=*/false, rt_config);

  ExpectCountersEq(result.counters, sequential.counters);
  // With one shard the traffic recorder sees the identical message stream.
  for (int tier = 0; tier < net::kNumTiers; ++tier) {
    EXPECT_DOUBLE_EQ(static_cast<double>(result.traffic_app[tier]),
                     sequential.full_run[tier].app);
    EXPECT_DOUBLE_EQ(static_cast<double>(result.traffic_sys[tier]),
                     sequential.full_run[tier].sys);
  }
}

// ----- Multi-shard conservation -----

TEST(ShardedRuntimeTest, FourShardStaticConservesAllRequestWork) {
  const auto g = TestGraph();
  const auto log = TestLog(g);
  const sim::SimResult sequential =
      sim::RunExperiment(g, log, BaseConfig(/*adaptive=*/false));

  RuntimeConfig rt_config;
  rt_config.num_shards = 4;
  const RuntimeResult result =
      RunSharded(g, log, /*adaptive=*/false, rt_config);

  // Every request executed exactly once...
  EXPECT_EQ(result.totals.requests, result.expected_requests);
  EXPECT_EQ(result.counters.reads, log.num_reads);
  EXPECT_EQ(result.counters.writes, log.num_writes);
  // ...and every view fetch and replica update accounted exactly once (the
  // static replica sets are identical on every shard engine).
  EXPECT_EQ(result.counters.view_reads, sequential.counters.view_reads);
  EXPECT_EQ(result.counters.replica_updates,
            sequential.counters.replica_updates);
}

TEST(ShardedRuntimeTest, FourShardAdaptiveConservesRequests) {
  const auto g = TestGraph();
  const auto log = TestLog(g);
  const sim::SimResult sequential =
      sim::RunExperiment(g, log, BaseConfig(/*adaptive=*/true));

  RuntimeConfig rt_config;
  rt_config.num_shards = 4;
  const RuntimeResult result =
      RunSharded(g, log, /*adaptive=*/true, rt_config);

  EXPECT_EQ(result.totals.requests, result.expected_requests);
  EXPECT_EQ(result.counters.reads, log.num_reads);
  EXPECT_EQ(result.counters.writes, log.num_writes);
  // view_reads counts one fetch per expanded target, wherever it executes;
  // adaptation moves replicas but never changes the target count.
  EXPECT_EQ(result.counters.view_reads, sequential.counters.view_reads);

  // Per-shard ownership matches the partitionable workload iteration.
  const ShardMap map(4);
  const wl::ShardedRequests partition = wl::PartitionRequests(
      log, 4, [&](UserId u) { return map.shard_of(u); });
  for (std::uint32_t s = 0; s < 4; ++s) {
    EXPECT_EQ(result.shard_stats[s].requests, partition.indices[s].size());
    EXPECT_EQ(result.shard_stats[s].reads, partition.reads_per_shard[s]);
    EXPECT_EQ(result.shard_stats[s].writes, partition.writes_per_shard[s]);
  }
}

TEST(ShardedRuntimeTest, TinyQueueDepthStillCompletes) {
  const auto g = TestGraph();
  const auto log = TestLog(g, 0.5);

  RuntimeConfig rt_config;
  rt_config.num_shards = 4;
  rt_config.queue_depth = 2;  // heavy backpressure
  rt_config.batch_size = 16;
  const RuntimeResult result =
      RunSharded(g, log, /*adaptive=*/false, rt_config);

  EXPECT_EQ(result.totals.requests, result.expected_requests);
}

TEST(ShardedRuntimeTest, ThreadedRunsAreDeterministic) {
  const auto g = TestGraph();
  const auto log = TestLog(g, 0.5);

  RuntimeConfig rt_config;
  rt_config.num_shards = 4;
  const RuntimeResult a = RunSharded(g, log, /*adaptive=*/true, rt_config);
  const RuntimeResult b = RunSharded(g, log, /*adaptive=*/true, rt_config);

  ExpectCountersEq(a.counters, b.counters);
  ASSERT_EQ(a.shard_counters.size(), b.shard_counters.size());
  for (std::size_t s = 0; s < a.shard_counters.size(); ++s) {
    ExpectCountersEq(a.shard_counters[s], b.shard_counters[s]);
  }
  for (int tier = 0; tier < net::kNumTiers; ++tier) {
    EXPECT_EQ(a.traffic_app[tier], b.traffic_app[tier]);
    EXPECT_EQ(a.traffic_sys[tier], b.traffic_sys[tier]);
  }
}

TEST(ShardedRuntimeTest, InlineFallbackMatchesThreadedShards) {
  const auto g = TestGraph();
  const auto log = TestLog(g, 0.5);

  RuntimeConfig threaded;
  threaded.num_shards = 3;
  RuntimeConfig inline_cfg = threaded;
  inline_cfg.spawn_threads = false;

  const RuntimeResult a = RunSharded(g, log, /*adaptive=*/true, threaded);
  const RuntimeResult b = RunSharded(g, log, /*adaptive=*/true, inline_cfg);

  ExpectCountersEq(a.counters, b.counters);
  for (std::size_t s = 0; s < a.shard_counters.size(); ++s) {
    ExpectCountersEq(a.shard_counters[s], b.shard_counters[s]);
  }
}

// ----- Worker lifetime: threads start once, not once per Run -----

// A server-shaped micro-batch: the first `n` requests of a synthetic log
// rebased to time 0, so each Run is a single epoch.
wl::RequestLog MicroBatch(const graph::SocialGraph& g, std::size_t n = 256) {
  const wl::RequestLog full = TestLog(g, 0.5);
  wl::RequestLog batch;
  for (std::size_t i = 0; i < n && i < full.requests.size(); ++i) {
    Request r = full.requests[i];
    r.time = 0;
    (r.op == OpType::kRead ? batch.num_reads : batch.num_writes) += 1;
    batch.requests.push_back(r);
  }
  return batch;
}

// Runs `batch` and checks it conserved: the runtime's lifetime totals grow
// by exactly the batch. `executed` carries the running total.
void RunAndExpectConserved(ShardedRuntime& runtime,
                           const wl::RequestLog& batch,
                           std::uint64_t& executed) {
  const RuntimeResult r = runtime.Run(batch);
  executed += batch.requests.size();
  EXPECT_EQ(r.expected_requests, batch.requests.size());
  EXPECT_EQ(r.totals.requests, executed);
  EXPECT_EQ(r.counters.reads + r.counters.writes, executed);
}

TEST(WorkerLifetimeTest, RepeatedRunsStartEachWorkerOnce) {
  const auto g = TestGraph();
  const wl::RequestLog batch = MicroBatch(g);
  const RuntimeFixture fx = MakeFixture(g, BaseConfig(/*adaptive=*/true));
  RuntimeConfig rt_config;
  rt_config.num_shards = 4;
  ShardedRuntime runtime(g, fx.topo, fx.placement, fx.engine, rt_config);
  EXPECT_EQ(runtime.workers_started(), 0u);

  std::uint64_t executed = 0;
  for (int run = 0; run < 50; ++run) {
    SCOPED_TRACE(run);
    RunAndExpectConserved(runtime, batch, executed);
    // Zero thread creations per batch after the first.
    ASSERT_EQ(runtime.workers_started(), rt_config.num_shards);
  }
}

TEST(WorkerLifetimeTest, BetweenRunsResizeStartsOnlyTheNewShards) {
  const auto g = TestGraph();
  const wl::RequestLog batch = MicroBatch(g);
  const RuntimeFixture fx = MakeFixture(g, BaseConfig(/*adaptive=*/true));
  RuntimeConfig rt_config;
  rt_config.num_shards = 2;
  ShardedRuntime runtime(g, fx.topo, fx.placement, fx.engine, rt_config);

  std::uint64_t executed = 0;
  RunAndExpectConserved(runtime, batch, executed);
  EXPECT_EQ(runtime.workers_started(), 2u);

  // A between-runs split builds the new shards without workers; the next
  // Run starts exactly those two.
  runtime.Reconfigure(4);
  EXPECT_EQ(runtime.workers_started(), 2u);
  RunAndExpectConserved(runtime, batch, executed);
  EXPECT_EQ(runtime.num_shards(), 4u);
  EXPECT_EQ(runtime.workers_started(), 4u);

  // A merge back retires (joins) the surplus workers and starts none.
  runtime.Reconfigure(2);
  RunAndExpectConserved(runtime, batch, executed);
  EXPECT_EQ(runtime.num_shards(), 2u);
  EXPECT_EQ(runtime.workers_started(), 4u);
}

TEST(WorkerLifetimeTest, AbortedRunRestartsEveryWorker) {
  const auto g = TestGraph();
  const wl::RequestLog batch = MicroBatch(g);
  const RuntimeFixture fx = MakeFixture(g, BaseConfig(/*adaptive=*/true));
  RuntimeConfig rt_config;
  rt_config.num_shards = 3;
  ShardedRuntime runtime(g, fx.topo, fx.placement, fx.engine, rt_config);

  std::uint64_t executed = 0;
  RunAndExpectConserved(runtime, batch, executed);
  EXPECT_EQ(runtime.workers_started(), 3u);

  // The hook throws at the run's first boundary, where every worker is
  // parked; the abort path shuts them all down.
  runtime.SetEpochHook([](SimTime, std::uint64_t) {
    throw std::runtime_error("injected boundary failure");
  });
  EXPECT_THROW(runtime.Run(batch), std::runtime_error);
  EXPECT_EQ(runtime.workers_started(), 3u);
  runtime.SetEpochHook({});

  // The aborted batch executed before the hook fired (one epoch), so the
  // lifetime totals carry it too.
  executed += batch.requests.size();
  RunAndExpectConserved(runtime, batch, executed);
  EXPECT_EQ(runtime.workers_started(), 6u);
  RunAndExpectConserved(runtime, batch, executed);
  EXPECT_EQ(runtime.workers_started(), 6u);
}

TEST(ShardedRuntimeTest, PayloadModeReplicatesWritesForCoherence) {
  const auto g = TestGraph(400);
  const auto log = TestLog(g, 0.5);

  sim::ExperimentConfig config = BaseConfig(/*adaptive=*/false);
  config.engine.store.payload_mode = true;
  const RuntimeFixture fx = MakeFixture(g, config);

  persist::PersistentStore persist;
  for (UserId u = 0; u < g.num_users(); ++u) {
    persist.Append({u, 0, "seed"});
  }

  RuntimeConfig rt_config;
  rt_config.num_shards = 2;
  ShardedRuntime runtime(g, fx.topo, fx.placement, fx.engine, rt_config);
  runtime.AttachPersistentStore(&persist);
  const RuntimeResult result = runtime.Run(log);

  // Every write is applied on the owner and replicated to the other shard.
  EXPECT_EQ(result.counters.writes, log.num_writes);
  EXPECT_EQ(result.totals.remote_write_applies, log.num_writes);

  // Both shard engines hold the persistent store's current version of a
  // written view, wherever its replica lives.
  UserId writer = kInvalidView;
  for (const Request& r : log.requests) {
    if (r.op == OpType::kWrite) {
      writer = r.user;
      break;
    }
  }
  ASSERT_NE(writer, kInvalidView);
  const auto expect = persist.FetchView(writer);
  for (std::uint32_t s = 0; s < 2; ++s) {
    core::Engine& engine = runtime.shard_engine(s);
    const ServerId holder =
        engine.registry().info(writer).replicas.front().server;
    const store::ViewData* data = engine.server(holder).FindData(writer);
    ASSERT_NE(data, nullptr);
    ASSERT_EQ(data->events().size(), expect.size());
    EXPECT_EQ(data->events().front().payload, expect.front().payload);
  }
}

// ----- Drain policies and placement -----

RuntimeConfig FabricConfig(std::uint32_t shards, DrainPolicy drain,
                           bool threaded = true) {
  RuntimeConfig config;
  config.num_shards = shards;
  config.drain = drain;
  config.spawn_threads = threaded;
  return config;
}

// Deterministic ShardStats fields (eager_drains depends on wall-clock
// scheduling, so it is compared only where both runs use kEpoch).
void ExpectStatsEq(const ShardStats& a, const ShardStats& b) {
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.reads, b.reads);
  EXPECT_EQ(a.writes, b.writes);
  EXPECT_EQ(a.remote_read_slices, b.remote_read_slices);
  EXPECT_EQ(a.remote_write_applies, b.remote_write_applies);
  EXPECT_EQ(a.remote_slice_msgs, b.remote_slice_msgs);
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.epochs, b.epochs);
}

TEST(FabricRuntimeTest, PlacementOnOrOffIsBitIdentical) {
  const auto g = TestGraph();
  const auto log = TestLog(g);

  const RuntimeConfig plain = FabricConfig(4, DrainPolicy::kEpoch);
  RuntimeConfig placed = plain;
  placed.placement.pin_workers = true;

  // Placement only moves threads and memory pages; pinning, the worker-side
  // engine rebuild, and the ring prefault must not change a single counter.
  // This holds whether or not the affinity calls succeed (they may fail in
  // restricted containers — the documented graceful no-op).
  const RuntimeResult a = RunSharded(g, log, /*adaptive=*/true, plain);
  const RuntimeResult b = RunSharded(g, log, /*adaptive=*/true, placed);
  ExpectCountersEq(a.counters, b.counters);
  ASSERT_EQ(a.shard_counters.size(), b.shard_counters.size());
  for (std::size_t s = 0; s < a.shard_counters.size(); ++s) {
    ExpectCountersEq(a.shard_counters[s], b.shard_counters[s]);
    ExpectStatsEq(a.shard_stats[s], b.shard_stats[s]);
  }
  EXPECT_EQ(a.request_latency.count(), b.request_latency.count());
}

TEST(FabricRuntimeTest, PlacementSurvivesMidRunResize) {
  const auto g = TestGraph();
  const auto log = TestLog(g);

  RuntimeConfig placed = FabricConfig(2, DrainPolicy::kEpoch);
  placed.placement.pin_workers = true;

  // Mid-run split then merge: newly spawned workers run their own placement
  // phase (pin + prefault, never an engine rebuild — they import migrated
  // state); results stay bit-identical to the unplaced run of the same plan.
  const auto run = [&](const RuntimeConfig& config) {
    const RuntimeFixture fx = MakeFixture(g, BaseConfig(/*adaptive=*/true));
    ShardedRuntime runtime(g, fx.topo, fx.placement, fx.engine, config);
    runtime.SetEpochHook([&runtime](SimTime, std::uint64_t idx) {
      if (idx == 8) runtime.Reconfigure(4);
      if (idx == 16) runtime.Reconfigure(2);
    });
    return runtime.Run(log);
  };
  RuntimeConfig plain = placed;
  plain.placement = PlacementConfig{};
  const RuntimeResult a = run(plain);
  const RuntimeResult b = run(placed);
  EXPECT_EQ(b.totals.requests, b.expected_requests);
  ExpectCountersEq(a.counters, b.counters);
  ASSERT_EQ(a.shard_counters.size(), b.shard_counters.size());
  for (std::size_t s = 0; s < a.shard_counters.size(); ++s) {
    ExpectCountersEq(a.shard_counters[s], b.shard_counters[s]);
    ExpectStatsEq(a.shard_stats[s], b.shard_stats[s]);
  }
}

TEST(FabricRuntimeTest, EagerDrainConservesAllWorkThreaded) {
  const auto g = TestGraph();
  const auto log = TestLog(g);
  const sim::SimResult sequential =
      sim::RunExperiment(g, log, BaseConfig(/*adaptive=*/true));

  const RuntimeResult result = RunSharded(
      g, log, /*adaptive=*/true, FabricConfig(4, DrainPolicy::kEager));

  // Eager serving reorders remote slices (that is the point) but must not
  // lose or duplicate any work.
  EXPECT_EQ(result.totals.requests, result.expected_requests);
  EXPECT_EQ(result.counters.reads, log.num_reads);
  EXPECT_EQ(result.counters.writes, log.num_writes);
  EXPECT_EQ(result.counters.view_reads, sequential.counters.view_reads);
  // Every owned request and every remote slice recorded one latency sample.
  EXPECT_EQ(result.request_latency.count(), result.expected_requests);
  EXPECT_EQ(result.remote_latency.count(),
            result.totals.remote_read_slices +
                result.totals.remote_write_applies);
  EXPECT_EQ(result.completion_latency.count(),
            result.request_latency.count() + result.remote_latency.count());
}

TEST(FabricRuntimeTest, EagerInlineIsDeterministic) {
  const auto g = TestGraph();
  const auto log = TestLog(g, 0.5);

  const RuntimeConfig config =
      FabricConfig(3, DrainPolicy::kEager, /*threaded=*/false);
  const RuntimeResult a = RunSharded(g, log, /*adaptive=*/true, config);
  const RuntimeResult b = RunSharded(g, log, /*adaptive=*/true, config);

  // The inline fallback serves on a fixed schedule, so even the eager
  // policy is reproducible there.
  ExpectCountersEq(a.counters, b.counters);
  for (std::size_t s = 0; s < a.shard_counters.size(); ++s) {
    ExpectCountersEq(a.shard_counters[s], b.shard_counters[s]);
    ExpectStatsEq(a.shard_stats[s], b.shard_stats[s]);
  }
}

TEST(FabricRuntimeTest, EagerActuallyServesSubEpoch) {
  const auto g = TestGraph();
  const auto log = TestLog(g, 0.5);

  const RuntimeResult result = RunSharded(
      g, log, /*adaptive=*/false,
      FabricConfig(3, DrainPolicy::kEager, /*threaded=*/false));
  EXPECT_GT(result.totals.eager_drains, 0u);
  EXPECT_EQ(result.totals.requests, result.expected_requests);
}

TEST(FabricRuntimeTest, PayloadModeCoherentUnderEagerDrain) {
  const auto g = TestGraph(400);
  const auto log = TestLog(g, 0.5);

  sim::ExperimentConfig config = BaseConfig(/*adaptive=*/false);
  config.engine.store.payload_mode = true;
  const RuntimeFixture fx = MakeFixture(g, config);

  persist::PersistentStore persist;
  for (UserId u = 0; u < g.num_users(); ++u) {
    persist.Append({u, 0, "seed"});
  }

  ShardedRuntime runtime(g, fx.topo, fx.placement, fx.engine,
                         FabricConfig(2, DrainPolicy::kEager));
  runtime.AttachPersistentStore(&persist);
  const RuntimeResult result = runtime.Run(log);

  EXPECT_EQ(result.counters.writes, log.num_writes);
  EXPECT_EQ(result.totals.remote_write_applies, log.num_writes);
}

// ----- Latency accounting -----

TEST(ShardedRuntimeTest, LatencyAccountingCountsEverySample) {
  const auto g = TestGraph();
  const auto log = TestLog(g, 0.5);

  RuntimeConfig rt_config;
  rt_config.num_shards = 4;
  const RuntimeResult result =
      RunSharded(g, log, /*adaptive=*/false, rt_config);

  EXPECT_EQ(result.request_latency.count(), result.expected_requests);
  EXPECT_EQ(result.remote_latency.count(),
            result.totals.remote_read_slices +
                result.totals.remote_write_applies);
  EXPECT_EQ(result.completion_latency.count(),
            result.request_latency.count() + result.remote_latency.count());

  const LatencyPercentiles& p = result.completion_percentiles;
  EXPECT_EQ(p.samples, result.completion_latency.count());
  EXPECT_LE(p.p50_us, p.p90_us);
  EXPECT_LE(p.p90_us, p.p99_us);
  EXPECT_LE(p.p99_us, p.p999_us);
  EXPECT_LE(p.p999_us, p.max_us);
  // Cross-shard reads exist in this workload, so remote slices were served
  // and their cost was attributed.
  EXPECT_GT(result.totals.remote_read_slices, 0u);
  EXPECT_GT(result.totals.remote_slice_msgs, 0u);
}

TEST(ShardedRuntimeTest, OneShardHasNoRemoteLatencySamples) {
  const auto g = TestGraph(400);
  const auto log = TestLog(g, 0.5);

  RuntimeConfig rt_config;
  rt_config.num_shards = 1;
  rt_config.spawn_threads = false;
  const RuntimeResult result =
      RunSharded(g, log, /*adaptive=*/false, rt_config);

  EXPECT_EQ(result.request_latency.count(), result.expected_requests);
  EXPECT_EQ(result.remote_latency.count(), 0u);
  EXPECT_EQ(result.completion_latency.count(), result.expected_requests);
}

// ----- ShardStats accumulation and per-epoch delta extraction -----
//
// The auto-scaler's entire input path: cumulative per-shard stats merged
// with operator+= and sliced into per-epoch activity with DeltaSince.

ShardStats FilledStats(std::uint64_t base) {
  ShardStats s;
  s.requests = base + 1;
  s.reads = base + 2;
  s.writes = base + 3;
  s.remote_read_slices = base + 4;
  s.remote_write_applies = base + 5;
  s.remote_slice_msgs = base + 6;
  s.messages_sent = base + 7;
  s.eager_drains = base + 8;
  s.epochs = base + 9;
  s.task_batches = base + 10;
  s.queue_backlog_sum = base + 11;
  return s;
}

// Unlike ExpectStatsEq above (which skips scheduling-dependent fields for
// cross-run comparisons), the accumulation algebra must cover every field.
void ExpectStatsExact(const ShardStats& a, const ShardStats& b) {
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.reads, b.reads);
  EXPECT_EQ(a.writes, b.writes);
  EXPECT_EQ(a.remote_read_slices, b.remote_read_slices);
  EXPECT_EQ(a.remote_write_applies, b.remote_write_applies);
  EXPECT_EQ(a.remote_slice_msgs, b.remote_slice_msgs);
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.eager_drains, b.eager_drains);
  EXPECT_EQ(a.epochs, b.epochs);
  EXPECT_EQ(a.task_batches, b.task_batches);
  EXPECT_EQ(a.queue_backlog_sum, b.queue_backlog_sum);
}

TEST(ShardStatsTest, PlusEqualsSumsEveryFieldIndependently) {
  ShardStats sum = FilledStats(100);
  sum += FilledStats(1000);
  // Distinct per-field offsets (1..11) catch any crossed-wire merge.
  EXPECT_EQ(sum.requests, 101u + 1001u);
  EXPECT_EQ(sum.reads, 102u + 1002u);
  EXPECT_EQ(sum.writes, 103u + 1003u);
  EXPECT_EQ(sum.remote_read_slices, 104u + 1004u);
  EXPECT_EQ(sum.remote_write_applies, 105u + 1005u);
  EXPECT_EQ(sum.remote_slice_msgs, 106u + 1006u);
  EXPECT_EQ(sum.messages_sent, 107u + 1007u);
  EXPECT_EQ(sum.eager_drains, 108u + 1008u);
  EXPECT_EQ(sum.epochs, 109u + 1009u);
  EXPECT_EQ(sum.task_batches, 110u + 1010u);
  EXPECT_EQ(sum.queue_backlog_sum, 111u + 1011u);
  // Adding a default-constructed delta is the identity.
  ShardStats unchanged = FilledStats(100);
  unchanged += ShardStats{};
  ExpectStatsExact(unchanged, FilledStats(100));
}

TEST(ShardStatsTest, DeltaSinceExtractsOneEpochOfActivity) {
  const ShardStats baseline = FilledStats(100);
  ShardStats current = baseline;
  current += FilledStats(50);  // one epoch's worth of activity
  ExpectStatsExact(current.DeltaSince(baseline), FilledStats(50));
  // Delta then re-accumulate round-trips: baseline + delta == current.
  ShardStats rebuilt = baseline;
  rebuilt += current.DeltaSince(baseline);
  ExpectStatsExact(rebuilt, current);
}

TEST(ShardStatsTest, DeltaOfAnEmptyEpochIsAllZero) {
  const ShardStats baseline = FilledStats(77);
  ExpectStatsExact(baseline.DeltaSince(baseline), ShardStats{});
}

TEST(ShardStatsTest, OverflowEdgesAreWellDefined) {
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  // += is modular uint64 arithmetic: merging cannot trap, and a counter at
  // the ceiling wraps like any unsigned sum.
  ShardStats a;
  a.requests = kMax;
  ShardStats b;
  b.requests = 2;
  a += b;
  EXPECT_EQ(a.requests, 1u);
  // DeltaSince saturates at 0 instead of wrapping to ~2^64 when a field
  // runs backwards (a bug, or a wrapped counter), so a corrupt input
  // degrades to "no activity" rather than an instant scaler trigger.
  ShardStats behind;
  behind.requests = 5;
  ShardStats ahead;
  ahead.requests = 9;
  EXPECT_EQ(behind.DeltaSince(ahead).requests, 0u);
  // Near the ceiling the subtraction itself stays exact.
  ShardStats top;
  top.requests = kMax;
  ShardStats just_below;
  just_below.requests = kMax - 3;
  EXPECT_EQ(top.DeltaSince(just_below).requests, 3u);
}

// ----- Config validation -----

TEST(ShardedRuntimeTest, ConstructionRejectsInvalidConfig) {
  const auto g = TestGraph(400);
  const sim::ExperimentConfig config = BaseConfig(/*adaptive=*/false);
  const RuntimeFixture fx = MakeFixture(g, config);

  RuntimeConfig zero_shards;
  zero_shards.num_shards = 0;
  EXPECT_THROW(
      ShardedRuntime(g, fx.topo, fx.placement, fx.engine, zero_shards),
      std::invalid_argument);

  RuntimeConfig zero_batch;
  zero_batch.batch_size = 0;
  EXPECT_THROW(ShardedRuntime(g, fx.topo, fx.placement, fx.engine, zero_batch),
               std::invalid_argument);

  RuntimeConfig zero_queue;
  zero_queue.queue_depth = 0;
  EXPECT_THROW(ShardedRuntime(g, fx.topo, fx.placement, fx.engine, zero_queue),
               std::invalid_argument);

  // An engine slot of 0 makes every epoch round down to 0: rejected up
  // front instead of looping forever.
  core::EngineConfig zero_slot = fx.engine;
  zero_slot.slot_seconds = 0;
  EXPECT_THROW(
      ShardedRuntime(g, fx.topo, fx.placement, zero_slot, RuntimeConfig{}),
      std::invalid_argument);
}

// The messages are part of the contract documented next to the checks in
// RuntimeConfig::Validate: each names the offending field and its range.
TEST(ShardedRuntimeTest, ValidationErrorsNameTheOffendingField) {
  const auto message_of = [](RuntimeConfig config) {
    try {
      config.Validate();
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string();
  };

  RuntimeConfig zero_shards;
  zero_shards.num_shards = 0;
  EXPECT_NE(message_of(zero_shards).find("num_shards must be at least 1"),
            std::string::npos);

  RuntimeConfig zero_queue;
  zero_queue.queue_depth = 0;
  EXPECT_NE(message_of(zero_queue).find("queue_depth must be at least 1"),
            std::string::npos);

  RuntimeConfig zero_batch;
  zero_batch.batch_size = 0;
  EXPECT_NE(message_of(zero_batch).find("batch_size must be at least 1"),
            std::string::npos);

  // Validate folds in the auto-scaler's own checks (runtime_config.h).
  RuntimeConfig bad_scaler;
  bad_scaler.scaler.min_shards = 0;
  EXPECT_NE(message_of(bad_scaler).find("min_shards"), std::string::npos);

  EXPECT_NO_THROW(RuntimeConfig{}.Validate());  // defaults are valid

  // The epoch is one engine slot, which is only checkable with the engine
  // config in hand, so that message comes from the runtime's constructor.
  const auto g = TestGraph(400);
  const RuntimeFixture fx = MakeFixture(g, BaseConfig(/*adaptive=*/false));
  core::EngineConfig zero_slot = fx.engine;
  zero_slot.slot_seconds = 0;
  try {
    ShardedRuntime runtime(g, fx.topo, fx.placement, zero_slot,
                           RuntimeConfig{});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("slot_seconds must be positive"),
              std::string::npos);
  }
}

TEST(ShardedRuntimeTest, EpochIsTheEngineSlot) {
  const auto g = TestGraph(400);
  const sim::ExperimentConfig config = BaseConfig(/*adaptive=*/false);
  const RuntimeFixture fx = MakeFixture(g, config);

  const ShardedRuntime runtime(g, fx.topo, fx.placement, fx.engine,
                               RuntimeConfig{});
  EXPECT_EQ(runtime.epoch_seconds(), fx.engine.slot_seconds);
}

TEST(ShardedRuntimeTest, FlashOverlayConservesViewReads) {
  const auto g = TestGraph();
  const auto log = TestLog(g);

  common::Rng rng(13);
  wl::FlashConfig flash_config;
  flash_config.start = 4 * kSecondsPerHour;
  flash_config.end = 20 * kSecondsPerHour;
  const wl::FlashEvent flash = MakeFlashEvent(g, flash_config, rng);
  const std::vector<wl::FlashEvent> events{flash};

  sim::ExperimentConfig config = BaseConfig(/*adaptive=*/true);
  sim::RunOptions options;
  options.flash = events;
  sim::Simulator simulator(g, config);
  const sim::SimResult sequential = simulator.Run(log, options);

  RuntimeConfig rt_config;
  rt_config.num_shards = 2;
  const RuntimeResult result =
      RunSharded(g, log, /*adaptive=*/true, rt_config, events);

  EXPECT_EQ(result.counters.reads, sequential.counters.reads);
  EXPECT_EQ(result.counters.writes, sequential.counters.writes);
  EXPECT_EQ(result.counters.view_reads, sequential.counters.view_reads);
}

}  // namespace
}  // namespace dynasore::rt
