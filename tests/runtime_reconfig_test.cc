// Online shard reconfiguration: epoch-boundary split/merge of shard
// ownership (ShardedRuntime::Reconfigure). The load-bearing property is
// conservation — a run that resizes mid-flight must execute every request
// exactly once and, with the static engine (identical replica sets on every
// shard engine), produce bit-identical aggregate counters, traffic, and
// latency sample counts to a run that never resized.
#include <gtest/gtest.h>

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "graph/generator.h"
#include "runtime/fault_injector.h"
#include "runtime/sharded_runtime.h"
#include "sim/experiment.h"
#include "workload/partition.h"
#include "workload/synthetic.h"

namespace dynasore::rt {
namespace {

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

// One scheduled resize: at epoch boundary `at_epoch` (hook index), request
// `shards` shards. Scheduling through the epoch hook keeps the run
// deterministic — the boundary index depends only on simulated time.
struct PlanStep {
  std::uint64_t at_epoch;
  std::uint32_t shards;
};

void InstallPlan(ShardedRuntime& runtime, std::vector<PlanStep> plan) {
  runtime.SetEpochHook(
      [&runtime, plan = std::move(plan)](SimTime, std::uint64_t idx) {
        for (const PlanStep& step : plan) {
          if (step.at_epoch == idx) runtime.Reconfigure(step.shards);
        }
      });
}

RuntimeResult RunReconfiguring(const graph::SocialGraph& g,
                               const wl::RequestLog& log, bool adaptive,
                               RuntimeConfig rt_config,
                               std::vector<PlanStep> plan) {
  const sim::ExperimentConfig config = BaseConfig(adaptive);
  const RuntimeFixture fx = MakeFixture(g, config);
  ShardedRuntime runtime(g, fx.topo, fx.placement, fx.engine, rt_config);
  InstallPlan(runtime, std::move(plan));
  return runtime.Run(log);
}

RuntimeResult RunStatic(const graph::SocialGraph& g, const wl::RequestLog& log,
                        bool adaptive, std::uint32_t shards) {
  RuntimeConfig rt_config;
  rt_config.num_shards = shards;
  return RunReconfiguring(g, log, adaptive, rt_config, {});
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

void ExpectAggregatesMatchStatic(const RuntimeResult& reconfig,
                                 const RuntimeResult& fixed) {
  ExpectCountersEq(reconfig.counters, fixed.counters);
  for (int tier = 0; tier < net::kNumTiers; ++tier) {
    EXPECT_EQ(reconfig.traffic_app[tier], fixed.traffic_app[tier]);
    EXPECT_EQ(reconfig.traffic_sys[tier], fixed.traffic_sys[tier]);
  }
  EXPECT_EQ(reconfig.request_latency.count(), fixed.request_latency.count());
}

void ExpectConserved(const RuntimeResult& r, const wl::RequestLog& log) {
  EXPECT_EQ(r.totals.requests, r.expected_requests);  // zero dropped
  EXPECT_EQ(r.counters.reads, log.num_reads);
  EXPECT_EQ(r.counters.writes, log.num_writes);
  // Every owned request and every remote slice recorded one latency sample,
  // including samples retained from retired shards.
  EXPECT_EQ(r.request_latency.count(), r.expected_requests);
  EXPECT_EQ(r.remote_latency.count(),
            r.totals.remote_read_slices + r.totals.remote_write_applies);
  EXPECT_EQ(r.completion_latency.count(),
            r.request_latency.count() + r.remote_latency.count());
}

// ----- Acceptance: split 2->4 and merge 4->2 against static runs -----

TEST(RuntimeReconfigTest, SplitTwoToFourMatchesStaticRunsBitForBit) {
  const auto g = TestGraph();
  const auto log = TestLog(g);  // 24 epochs at the default hourly slot

  RuntimeConfig rt_config;
  rt_config.num_shards = 2;
  const RuntimeResult split = RunReconfiguring(g, log, /*adaptive=*/false,
                                               rt_config, {{8, 4}});
  ExpectConserved(split, log);

  ASSERT_EQ(split.reconfig_events.size(), 1u);
  const ReconfigEvent& event = split.reconfig_events.front();
  EXPECT_EQ(event.from_shards, 2u);
  EXPECT_EQ(event.to_shards, 4u);
  EXPECT_GT(event.views_migrated, 0u);
  EXPECT_GT(event.pause_ns, 0u);
  EXPECT_EQ(event.epoch_end, 9u * kSecondsPerHour);
  EXPECT_EQ(split.shard_stats.size(), 4u);
  EXPECT_EQ(split.shard_counters.size(), 4u);

  // The static engine keeps identical replica sets on every shard engine,
  // so a resizing run must agree bit-for-bit with *any* fixed shard count.
  ExpectAggregatesMatchStatic(split, RunStatic(g, log, false, 2));
  ExpectAggregatesMatchStatic(split, RunStatic(g, log, false, 4));
}

TEST(RuntimeReconfigTest, MergeFourToTwoMatchesStaticRunsBitForBit) {
  const auto g = TestGraph();
  const auto log = TestLog(g);

  RuntimeConfig rt_config;
  rt_config.num_shards = 4;
  const RuntimeResult merge = RunReconfiguring(g, log, /*adaptive=*/false,
                                               rt_config, {{8, 2}});
  ExpectConserved(merge, log);

  ASSERT_EQ(merge.reconfig_events.size(), 1u);
  EXPECT_EQ(merge.reconfig_events.front().from_shards, 4u);
  EXPECT_EQ(merge.reconfig_events.front().to_shards, 2u);
  // Retired shards have no per-shard rows; their work lives in the totals.
  EXPECT_EQ(merge.shard_stats.size(), 2u);

  ExpectAggregatesMatchStatic(merge, RunStatic(g, log, false, 4));
  ExpectAggregatesMatchStatic(merge, RunStatic(g, log, false, 2));
}

TEST(RuntimeReconfigTest, SplitThenMergeRoundTripConserves) {
  const auto g = TestGraph();
  const auto log = TestLog(g);

  RuntimeConfig rt_config;
  rt_config.num_shards = 2;
  const RuntimeResult result = RunReconfiguring(
      g, log, /*adaptive=*/false, rt_config, {{6, 4}, {16, 2}});
  ExpectConserved(result, log);

  ASSERT_EQ(result.reconfig_events.size(), 2u);
  EXPECT_EQ(result.reconfig_events[0].to_shards, 4u);
  EXPECT_EQ(result.reconfig_events[1].to_shards, 2u);
  EXPECT_EQ(result.shard_stats.size(), 2u);

  ExpectAggregatesMatchStatic(result, RunStatic(g, log, false, 2));
}

// ----- Conservation under adaptation, eager drains, and thrash -----

TEST(RuntimeReconfigTest, AdaptiveReconfigConservesRequestWork) {
  const auto g = TestGraph();
  const auto log = TestLog(g);
  const sim::SimResult sequential =
      sim::RunExperiment(g, log, BaseConfig(/*adaptive=*/true));

  RuntimeConfig rt_config;
  rt_config.num_shards = 2;
  const RuntimeResult result = RunReconfiguring(g, log, /*adaptive=*/true,
                                                rt_config, {{8, 4}});
  ExpectConserved(result, log);
  // Adaptation decisions diverge across shard layouts (replica placement is
  // per-engine), but the per-request work cannot: one fetch per expanded
  // target, wherever and whenever its slice executes.
  EXPECT_EQ(result.counters.view_reads, sequential.counters.view_reads);
}

TEST(RuntimeReconfigTest, AlternatingResizeEveryEpochConserves) {
  const auto g = TestGraph();
  const auto log = TestLog(g, 0.5);  // 12 epochs

  RuntimeConfig rt_config;
  rt_config.num_shards = 2;
  std::vector<PlanStep> plan;
  for (std::uint64_t e = 0; e < 12; ++e) {
    plan.push_back(PlanStep{e, e % 2 == 0 ? 4u : 2u});
  }
  const RuntimeResult result =
      RunReconfiguring(g, log, /*adaptive=*/false, rt_config, std::move(plan));
  ExpectConserved(result, log);
  EXPECT_GE(result.reconfig_events.size(), 11u);
  ExpectAggregatesMatchStatic(result, RunStatic(g, log, false, 2));
}

TEST(RuntimeReconfigTest, EagerDrainSurvivesReconfiguration) {
  const auto g = TestGraph();
  const auto log = TestLog(g);

  RuntimeConfig rt_config;
  rt_config.num_shards = 2;
  rt_config.drain = DrainPolicy::kEager;
  const RuntimeResult result = RunReconfiguring(
      g, log, /*adaptive=*/false, rt_config, {{6, 4}, {16, 2}});
  ExpectConserved(result, log);
  EXPECT_EQ(result.reconfig_events.size(), 2u);
}

// ----- Determinism and per-shard accounting -----

TEST(RuntimeReconfigTest, ReconfiguringRunsAreDeterministic) {
  const auto g = TestGraph();
  const auto log = TestLog(g, 0.5);

  RuntimeConfig rt_config;
  rt_config.num_shards = 2;
  const RuntimeResult a = RunReconfiguring(g, log, /*adaptive=*/true,
                                           rt_config, {{3, 4}, {8, 2}});
  const RuntimeResult b = RunReconfiguring(g, log, /*adaptive=*/true,
                                           rt_config, {{3, 4}, {8, 2}});
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

TEST(RuntimeReconfigTest, InlineFallbackMatchesThreadedReconfig) {
  const auto g = TestGraph();
  const auto log = TestLog(g, 0.5);

  RuntimeConfig threaded;
  threaded.num_shards = 2;
  RuntimeConfig inline_cfg = threaded;
  inline_cfg.spawn_threads = false;

  const RuntimeResult a = RunReconfiguring(g, log, /*adaptive=*/true,
                                           threaded, {{4, 4}});
  const RuntimeResult b = RunReconfiguring(g, log, /*adaptive=*/true,
                                           inline_cfg, {{4, 4}});
  ExpectCountersEq(a.counters, b.counters);
  for (std::size_t s = 0; s < a.shard_counters.size(); ++s) {
    ExpectCountersEq(a.shard_counters[s], b.shard_counters[s]);
  }
}

TEST(RuntimeReconfigTest, PerShardAccountingMatchesTimedPartition) {
  const auto g = TestGraph();
  const auto log = TestLog(g);

  RuntimeConfig rt_config;
  rt_config.num_shards = 2;
  const RuntimeResult result = RunReconfiguring(g, log, /*adaptive=*/false,
                                                rt_config, {{8, 4}});
  ASSERT_EQ(result.reconfig_events.size(), 1u);

  const ShardMap before(2);
  const ShardMap after(4);
  const std::vector<wl::ShardStep> steps{
      {0, 2, [&](UserId u) { return before.shard_of(u); }},
      {result.reconfig_events.front().epoch_end, 4,
       [&](UserId u) { return after.shard_of(u); }},
  };
  const wl::ShardedRequests parted = wl::PartitionRequestsTimed(log, steps);
  ASSERT_EQ(parted.indices.size(), 4u);
  EXPECT_EQ(parted.total_requests(), log.requests.size());
  for (std::uint32_t s = 0; s < 4; ++s) {
    EXPECT_EQ(result.shard_stats[s].requests, parted.indices[s].size());
    EXPECT_EQ(result.shard_stats[s].reads, parted.reads_per_shard[s]);
    EXPECT_EQ(result.shard_stats[s].writes, parted.writes_per_shard[s]);
  }
}

// ----- Payload mode: coherence fan-out resizes with the shard set -----

TEST(RuntimeReconfigTest, PayloadCoherenceFollowsTheShardSet) {
  const auto g = TestGraph(400);
  const auto log = TestLog(g);

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
  InstallPlan(runtime, {{8, 4}});
  const RuntimeResult result = runtime.Run(log);

  EXPECT_EQ(result.counters.writes, log.num_writes);
  EXPECT_EQ(result.totals.requests, result.expected_requests);

  // Replicated writes fan out to n-1 peers under the shard count current at
  // dispatch: 1 peer before the boundary, 3 after. Exact, because the
  // boundary cleanly separates the two regimes.
  const SimTime boundary = result.reconfig_events.front().epoch_end;
  std::uint64_t writes_before = 0;
  std::uint64_t writes_after = 0;
  for (const Request& r : log.requests) {
    if (r.op != OpType::kWrite) continue;
    (r.time < boundary ? writes_before : writes_after) += 1;
  }
  EXPECT_EQ(result.totals.remote_write_applies,
            writes_before * 1 + writes_after * 3);

  // Every current shard engine serves the persistent store's latest version
  // of a written view, wherever its replica lives.
  UserId writer = kInvalidView;
  for (const Request& r : log.requests) {
    if (r.op == OpType::kWrite && r.time >= boundary) {
      writer = r.user;
      break;
    }
  }
  ASSERT_NE(writer, kInvalidView);
  const auto expect = persist.FetchView(writer);
  for (std::uint32_t s = 0; s < runtime.num_shards(); ++s) {
    core::Engine& engine = runtime.shard_engine(s);
    const ServerId holder =
        engine.registry().info(writer).replicas.front().server;
    const store::ViewData* data = engine.server(holder).FindData(writer);
    ASSERT_NE(data, nullptr);
    ASSERT_EQ(data->events().size(), expect.size());
    EXPECT_EQ(data->events().front().payload, expect.front().payload);
  }
}

// ----- Owner-only maintenance: state hand-off after ticks -----
//
// A shard ticks only the views it maintains; every other replica's
// counters rotate lazily, on its next access. Payload coherence and sync
// replication record writes on replicas a shard does not maintain, and a
// kill rebuilds the victim's views from those backup copies, so both paths
// read non-owned state. The hand-off must still carry exactly the
// exporter's state, and the run must equal one that rotated every replica
// at every tick: the golden numbers below were recorded that way.

wl::RequestLog ShiftedLog(wl::RequestLog log, SimTime by) {
  for (Request& r : log.requests) r.time -= by;
  log.duration -= by;
  return log;
}

void ExpectSameViewState(const core::ViewStateSnapshot& want,
                         const core::ViewStateSnapshot& got) {
  EXPECT_EQ(got.read_proxy, want.read_proxy);
  EXPECT_EQ(got.write_proxy, want.write_proxy);
  EXPECT_EQ(got.last_change_slot, want.last_change_slot);
  ASSERT_EQ(got.replicas.size(), want.replicas.size());
  const auto reads_of = [](const store::ReplicaStats& stats) {
    std::vector<std::pair<std::uint16_t, std::uint32_t>> reads;
    stats.ForEachOrigin([&](std::uint16_t origin, std::uint32_t count) {
      reads.emplace_back(origin, count);
    });
    return reads;
  };
  for (std::size_t i = 0; i < want.replicas.size(); ++i) {
    const auto& w = want.replicas[i];
    const auto& g = got.replicas[i];
    EXPECT_EQ(g.server, w.server);
    EXPECT_EQ(g.utility, w.utility);
    EXPECT_EQ(g.stats.TotalWrites(), w.stats.TotalWrites());
    EXPECT_EQ(reads_of(g.stats), reads_of(w.stats));
  }
}

TEST(RuntimeReconfigTest, OwnerChangeAfterTicksHandsOffExactState) {
  const auto g = TestGraph(600);
  const wl::RequestLog log = TestLog(g, 1.0);
  // Two halves of one day: 12 ticks, a resize between runs, 12 more ticks.
  constexpr SimTime kHalf = kSecondsPerHour * 12;
  wl::RequestLog first;
  wl::RequestLog second;
  for (const Request& r : log.requests) {
    (r.time < kHalf ? first : second).requests.push_back(r);
  }
  first.duration = kHalf;
  second.duration = log.duration;
  second = ShiftedLog(std::move(second), kHalf);

  sim::ExperimentConfig config = BaseConfig(/*adaptive=*/true);
  config.engine.store.payload_mode = true;
  // Four-slot windows turn over several times per half: a replica that
  // missed its rotations would still count writes that have aged out.
  config.engine.store.counter_slots = 4;
  const RuntimeFixture fx = MakeFixture(g, config);
  persist::PersistentStore persist;
  for (UserId u = 0; u < g.num_users(); ++u) persist.Append({u, 0, "seed"});

  RuntimeConfig rt_config;
  rt_config.num_shards = 2;
  rt_config.replication.enabled = true;
  rt_config.replication.factor = 1;
  ShardedRuntime runtime(g, fx.topo, fx.placement, fx.engine, rt_config);
  runtime.AttachPersistentStore(&persist);
  const RuntimeResult a = runtime.Run(first);
  EXPECT_EQ(a.totals.requests, a.expected_requests);

  // The moving view with the most replicas (then the lowest id) among
  // those whose window still holds writes.
  const ShardMap before(2);
  const ShardMap after(3);
  core::ViewStateSnapshot exported;
  for (ViewId v = 0; v < g.num_users(); ++v) {
    if (before.shard_of(v) == after.shard_of(v)) continue;
    core::ViewStateSnapshot snap =
        runtime.shard_engine(before.shard_of(v)).ExportViewState(v);
    std::uint32_t writes = 0;
    for (const auto& replica : snap.replicas) {
      writes += replica.stats.TotalWrites();
    }
    if (writes > 0 && snap.replicas.size() > exported.replicas.size()) {
      exported = std::move(snap);
    }
  }
  const ViewId moved = exported.view;
  ASSERT_NE(moved, kInvalidView);
  ASSERT_GE(exported.replicas.size(), 2u);

  runtime.Reconfigure(3);
  ASSERT_EQ(runtime.num_shards(), 3u);
  ExpectSameViewState(
      exported,
      runtime.shard_engine(after.shard_of(moved)).ExportViewState(moved));

  // The second half kills the new shard: its views rebuild from the backup
  // copies a non-owner kept.
  FaultInjector injector;
  injector.KillShardAt(/*epoch=*/4, /*shard=*/2);
  runtime.SetFaultInjector(&injector);
  const RuntimeResult b = runtime.Run(second);
  EXPECT_EQ(b.totals.requests, a.totals.requests + b.expected_requests);
  ASSERT_EQ(b.fault_events.size(), 1u);
  EXPECT_GT(b.fault_events.front().views_replica, 0u);

  const core::EngineCounters& c = b.counters;
  // Lifetime counters and traffic, both halves.
  const std::uint64_t want[] = {2400, 600,  39589, 890, 7157, 6936,
                                6725, 211, 16,    1274, 387, 0};
  const std::uint64_t got[] = {c.reads,
                               c.writes,
                               c.view_reads,
                               c.replica_updates,
                               c.replicas_created,
                               c.replicas_dropped,
                               c.evictions_watermark,
                               c.drops_negative,
                               c.migrations,
                               c.read_proxy_migrations,
                               c.write_proxy_migrations,
                               c.crash_rebuilds};
  for (std::size_t i = 0; i < std::size(want); ++i) {
    EXPECT_EQ(got[i], want[i]) << "counter " << i;
  }
  const std::uint64_t want_app[] = {447220, 1135620, 1497980};
  const std::uint64_t want_sys[] = {225020, 499042, 555391};
  for (int tier = 0; tier < net::kNumTiers; ++tier) {
    EXPECT_EQ(b.traffic_app[tier], want_app[tier]) << "tier " << tier;
    EXPECT_EQ(b.traffic_sys[tier], want_sys[tier]) << "tier " << tier;
  }
}

// ----- API edges -----

TEST(RuntimeReconfigTest, ReconfigureBetweenRunsAppliesImmediately) {
  const auto g = TestGraph(400);
  const auto log = TestLog(g, 0.5);
  const sim::ExperimentConfig config = BaseConfig(/*adaptive=*/false);
  const RuntimeFixture fx = MakeFixture(g, config);

  RuntimeConfig rt_config;
  rt_config.num_shards = 2;
  ShardedRuntime runtime(g, fx.topo, fx.placement, fx.engine, rt_config);

  runtime.Reconfigure(3);
  EXPECT_EQ(runtime.num_shards(), 3u);
  EXPECT_EQ(runtime.fabric().num_shards(), 3u);
  runtime.Reconfigure(3);  // no-op: already at 3
  EXPECT_EQ(runtime.num_shards(), 3u);

  const RuntimeResult result = runtime.Run(log);
  ExpectConserved(result, log);
  ASSERT_EQ(result.reconfig_events.size(), 1u);
  EXPECT_EQ(result.reconfig_events.front().epoch_end, 0u);  // between runs

  EXPECT_THROW(runtime.Reconfigure(0), std::invalid_argument);
}

TEST(RuntimeReconfigTest, LateCrossThreadRequestNeverLeaksIntoNextRun) {
  const auto g = TestGraph(400);
  const auto log = TestLog(g, 0.5);  // 12 epochs -> final boundary idx 11

  RuntimeConfig rt_config;
  rt_config.num_shards = 2;
  const sim::ExperimentConfig config = BaseConfig(/*adaptive=*/false);
  const RuntimeFixture fx = MakeFixture(g, config);
  ShardedRuntime runtime(g, fx.topo, fx.placement, fx.engine, rt_config);

  // A foreign thread fires Reconfigure(4) when the run reaches its last
  // epoch boundary. Depending on the interleaving the request lands at
  // that boundary, in the window after its pending-check (no boundary
  // left), or after the run — every path must leave the runtime at 4
  // shards before the next Run, never parking the request as stale state
  // that a later Run's first boundary would silently apply.
  std::mutex m;
  std::condition_variable cv;
  bool last_boundary = false;
  runtime.SetEpochHook([&](SimTime, std::uint64_t idx) {
    if (idx == 11) {
      std::lock_guard lock(m);
      last_boundary = true;
      cv.notify_one();
    }
  });
  std::thread late([&] {
    std::unique_lock lock(m);
    cv.wait(lock, [&] { return last_boundary; });
    lock.unlock();
    runtime.Reconfigure(4);
  });
  const RuntimeResult first = runtime.Run(log);
  late.join();
  ExpectConserved(first, log);
  EXPECT_EQ(runtime.num_shards(), 4u);

  const RuntimeResult second = runtime.Run(log);
  // Engine counters accumulate across runs of the same runtime: both
  // replays' work is present, none of it dropped or double-counted.
  EXPECT_EQ(second.counters.reads, 2 * log.num_reads);
  EXPECT_EQ(second.counters.writes, 2 * log.num_writes);
  EXPECT_EQ(second.request_latency.count(), 2 * log.requests.size());
  EXPECT_EQ(second.shard_stats.size(), 4u);
  // Exactly the one 2->4 event ever happened, whichever path applied it.
  ASSERT_EQ(second.reconfig_events.size(), 1u);
  EXPECT_EQ(second.reconfig_events.front().to_shards, 4u);
}

TEST(RuntimeReconfigTest, ThrowingEpochHookLeavesRuntimeReusable) {
  const auto g = TestGraph(400);
  const auto log = TestLog(g, 0.5);

  RuntimeConfig rt_config;
  rt_config.num_shards = 2;
  const sim::ExperimentConfig config = BaseConfig(/*adaptive=*/false);
  const RuntimeFixture fx = MakeFixture(g, config);
  ShardedRuntime runtime(g, fx.topo, fx.placement, fx.engine, rt_config);

  // Reconfigure(0) throws from inside the hook — the natural way user code
  // unwinds a run. The abort must shut workers down and clear the running
  // flag, or the next Reconfigure parks forever and the next Run crashes
  // respawning still-joinable worker threads.
  runtime.SetEpochHook([&runtime](SimTime, std::uint64_t idx) {
    if (idx == 2) runtime.Reconfigure(0);
  });
  EXPECT_THROW(runtime.Run(log), std::invalid_argument);

  runtime.SetEpochHook({});
  runtime.Reconfigure(4);  // applies immediately: no run in progress
  EXPECT_EQ(runtime.num_shards(), 4u);
  const RuntimeResult result = runtime.Run(log);  // completes normally
  EXPECT_EQ(result.shard_stats.size(), 4u);
  // The aborted run executed a prefix of the log; the full rerun adds
  // exactly one whole log on top — nothing was lost or double-counted.
  EXPECT_GE(result.counters.reads, log.num_reads);
  EXPECT_GE(result.counters.writes, log.num_writes);
}

}  // namespace
}  // namespace dynasore::rt
