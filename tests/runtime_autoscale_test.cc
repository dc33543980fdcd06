// Load-driven auto-reconfiguration: the rt::AutoScaler policy loop
// (split/merge decisions from per-epoch ShardStats deltas, with
// hysteresis) and incremental view migration (bounded hand-off batches
// per epoch boundary, dual-ownership routing during the window). The
// load-bearing properties: the scaler resizes up AND back down under a
// flash-crowd workload with no operator input, conservation holds
// bit-for-bit against static oversized runs, and with migration_batch set
// no boundary ever hands over more than one batch.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "graph/generator.h"
#include "runtime/auto_scaler.h"
#include "runtime/sharded_runtime.h"
#include "sim/experiment.h"
#include "workload/synthetic.h"

namespace dynasore::rt {
namespace {

// ----- AutoScaler policy unit tests (no runtime) -----

std::vector<ShardStats> Deltas(std::initializer_list<std::uint64_t> ops) {
  std::vector<ShardStats> deltas;
  for (std::uint64_t o : ops) {
    ShardStats d;
    d.requests = o;
    deltas.push_back(d);
  }
  return deltas;
}

AutoScalerConfig BaseScaler() {
  AutoScalerConfig config;
  config.enabled = true;
  config.min_shards = 1;
  config.max_shards = 8;
  config.cooldown_epochs = 0;
  config.split_shard_ops = 1000;
  config.merge_shard_ops = 500;
  config.merge_cold_epochs = 2;
  return config;
}

TEST(AutoScalerTest, SplitOnLoadDoublesAndClampsToMax) {
  AutoScaler scaler(BaseScaler());
  EXPECT_EQ(scaler.Observe(0, 2, Deltas({999, 400})), 0u);   // below
  EXPECT_EQ(scaler.Observe(1, 2, Deltas({1000, 400})), 4u);  // at threshold
  EXPECT_EQ(scaler.Observe(2, 6, Deltas({2000, 9, 9, 9, 9, 9})), 8u);  // clamp
  EXPECT_EQ(scaler.Observe(3, 8, Deltas({2000, 9, 9, 9, 9, 9, 9, 9})), 0u);
  ASSERT_EQ(scaler.history().size(), 4u);
  EXPECT_STREQ(scaler.history()[1].reason, "split-load");
  EXPECT_EQ(scaler.history()[1].decision, 4u);
  EXPECT_EQ(scaler.history()[3].decision, 0u);  // at max: hold
}

TEST(AutoScalerTest, CooldownHoldsAfterAnyDecision) {
  AutoScalerConfig config = BaseScaler();
  config.cooldown_epochs = 2;
  AutoScaler scaler(config);
  EXPECT_EQ(scaler.Observe(0, 1, Deltas({5000})), 2u);
  // Still hot, but the next two boundaries are cooldown holds.
  EXPECT_EQ(scaler.Observe(1, 2, Deltas({5000, 5000})), 0u);
  EXPECT_STREQ(scaler.history().back().reason, "cooldown");
  EXPECT_EQ(scaler.Observe(2, 2, Deltas({5000, 5000})), 0u);
  EXPECT_EQ(scaler.Observe(3, 2, Deltas({5000, 5000})), 4u);
}

TEST(AutoScalerTest, MergeNeedsConsecutiveColdEpochs) {
  AutoScaler scaler(BaseScaler());  // merge < 500 ops for 2 epochs
  EXPECT_EQ(scaler.Observe(0, 4, Deltas({100, 100, 100, 100})), 0u);
  // A single warm epoch resets the streak...
  EXPECT_EQ(scaler.Observe(1, 4, Deltas({600, 100, 100, 100})), 0u);
  EXPECT_EQ(scaler.Observe(2, 4, Deltas({100, 100, 100, 100})), 0u);
  // ...so the merge fires only after two cold epochs in a row.
  EXPECT_EQ(scaler.Observe(3, 4, Deltas({100, 100, 100, 100})), 2u);
  EXPECT_STREQ(scaler.history().back().reason, "merge-cold");
}

TEST(AutoScalerTest, MergeHalvesRoundingUpAndClampsToMin) {
  AutoScalerConfig config = BaseScaler();
  config.min_shards = 2;
  config.merge_cold_epochs = 1;
  AutoScaler scaler(config);
  EXPECT_EQ(scaler.Observe(0, 5, Deltas({1, 1, 1, 1, 1})), 3u);  // (5+1)/2
  EXPECT_EQ(scaler.Observe(1, 3, Deltas({1, 1, 1})), 2u);
  // At min_shards the merge trigger is ignored entirely (no streak grows).
  EXPECT_EQ(scaler.Observe(2, 2, Deltas({1, 1})), 0u);
  EXPECT_EQ(scaler.Observe(3, 2, Deltas({1, 1})), 0u);
}

TEST(AutoScalerTest, EmptyEpochsAreColdButNeverSplit) {
  AutoScalerConfig config = BaseScaler();
  config.merge_cold_epochs = 2;
  AutoScaler scaler(config);
  EXPECT_EQ(scaler.Observe(0, 2, Deltas({0, 0})), 0u);
  EXPECT_EQ(scaler.Observe(1, 2, Deltas({0, 0})), 1u);  // idle shrinks
  EXPECT_EQ(scaler.history().front().total_ops, 0u);
  EXPECT_EQ(scaler.history().front().imbalance, 0.0);
}

TEST(AutoScalerTest, ConfigValidationNamesTheOffendingField) {
  const auto expect_throw = [](AutoScalerConfig config, const char* field) {
    try {
      config.Validate();
      FAIL() << "expected invalid_argument for " << field;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  };
  AutoScalerConfig config;
  config.min_shards = 0;
  expect_throw(config, "min_shards");
  config = {};
  config.max_shards = 0;
  expect_throw(config, "max_shards");
  config = {};
  config.merge_cold_epochs = 0;
  expect_throw(config, "merge_cold_epochs");
  // The split/merge dead band is only enforced when the loop is live.
  config = {};
  config.split_shard_ops = 1000;
  config.merge_shard_ops = 501;
  EXPECT_NO_THROW(config.Validate());  // disabled: no dead-band check
  config.enabled = true;
  expect_throw(config, "merge_shard_ops");
  config.merge_shard_ops = 500;
  EXPECT_NO_THROW(config.Validate());
  EXPECT_NO_THROW(AutoScalerConfig{}.Validate());  // defaults are valid
}

// ----- Fixtures (mirrors runtime_reconfig_test.cc) -----

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

// Quiet -> 6x read storm over the middle third -> quiet.
wl::RequestLog FlashCrowdLog(const graph::SocialGraph& g, double days = 1.0) {
  wl::PhasedLogConfig config;
  config.base.days = days;
  config.base.seed = 11;
  config.burst_multiplier = 6.0;
  config.hot_users = 40;
  return GeneratePhasedLog(g, config);
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

RuntimeResult RunWithPlan(const graph::SocialGraph& g,
                          const wl::RequestLog& log, bool adaptive,
                          RuntimeConfig rt_config, std::vector<PlanStep> plan) {
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
  return RunWithPlan(g, log, adaptive, rt_config, {});
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
  EXPECT_EQ(r.totals.requests, r.expected_requests);
  EXPECT_EQ(r.counters.reads, log.num_reads);
  EXPECT_EQ(r.counters.writes, log.num_writes);
  EXPECT_EQ(r.request_latency.count(), r.expected_requests);
  EXPECT_EQ(r.remote_latency.count(),
            r.totals.remote_read_slices + r.totals.remote_write_applies);
}

// Scaler tuned like bench_runtime_autoscale: split when a shard exceeds
// 1.5x the quiet per-epoch rate, merge after 2 epochs below half that.
RuntimeConfig ScaledConfig(const wl::RequestLog& quiet_reference,
                           SimTime epoch = kSecondsPerHour) {
  RuntimeConfig rt_config;
  rt_config.num_shards = 1;
  rt_config.scaler.enabled = true;
  rt_config.scaler.min_shards = 1;
  rt_config.scaler.max_shards = 4;
  rt_config.scaler.cooldown_epochs = 1;
  const std::uint64_t quiet_ops = std::max<std::uint64_t>(
      1, quiet_reference.requests.size() * epoch / quiet_reference.duration);
  rt_config.scaler.split_shard_ops = quiet_ops + quiet_ops / 2;
  rt_config.scaler.merge_shard_ops = rt_config.scaler.split_shard_ops / 2;
  rt_config.scaler.merge_cold_epochs = 2;
  return rt_config;
}

// ----- Acceptance: the closed loop resizes both ways on its own -----

TEST(RuntimeAutoScaleTest, FlashCrowdSplitsAndMergesWithoutOperatorInput) {
  const auto g = TestGraph();
  const auto log = FlashCrowdLog(g);

  const RuntimeConfig rt_config = ScaledConfig(TestLog(g));
  const RuntimeResult result =
      RunWithPlan(g, log, /*adaptive=*/false, rt_config, {});
  ExpectConserved(result, log);

  bool split = false;
  bool merged = false;
  for (const ReconfigEvent& e : result.reconfig_events) {
    split = split || e.to_shards > e.from_shards;
    merged = merged || e.to_shards < e.from_shards;
    EXPECT_LE(e.to_shards, 4u);
    EXPECT_GE(e.to_shards, 1u);
  }
  EXPECT_TRUE(split) << "the storm must trigger at least one split";
  EXPECT_TRUE(merged) << "the trailing quiet must trigger at least one merge";

  // Conservation is bit-for-bit against a static oversized run.
  ExpectAggregatesMatchStatic(result, RunStatic(g, log, false, 4));
}

TEST(RuntimeAutoScaleTest, AdaptiveAutoScaledRunConservesRequestWork) {
  const auto g = TestGraph();
  const auto log = FlashCrowdLog(g);
  const sim::SimResult sequential =
      sim::RunExperiment(g, log, BaseConfig(/*adaptive=*/true));

  const RuntimeResult result =
      RunWithPlan(g, log, /*adaptive=*/true, ScaledConfig(TestLog(g)), {});
  ExpectConserved(result, log);
  EXPECT_FALSE(result.reconfig_events.empty());
  // Per-request work is layout-independent even while the scaler resizes.
  EXPECT_EQ(result.counters.view_reads, sequential.counters.view_reads);
}

TEST(RuntimeAutoScaleTest, ScalerHistoryIsObservableThroughTheRuntime) {
  const auto g = TestGraph();
  const auto log = FlashCrowdLog(g, 0.5);

  const sim::ExperimentConfig config = BaseConfig(/*adaptive=*/false);
  const RuntimeFixture fx = MakeFixture(g, config);
  ShardedRuntime runtime(g, fx.topo, fx.placement, fx.engine,
                         ScaledConfig(TestLog(g, 0.5)));
  EXPECT_NE(runtime.auto_scaler(), nullptr);
  runtime.Run(log);
  // One observation per boundary except rebases (first boundary and the
  // boundary after each resize) and migration-window steps.
  EXPECT_GT(runtime.auto_scaler()->history().size(), 4u);
  for (const ScalerObservation& obs : runtime.auto_scaler()->history()) {
    EXPECT_GE(obs.num_shards, 1u);
    if (obs.decision != 0) {
      EXPECT_STRNE(obs.reason, "");
    }
  }

  ShardedRuntime unscaled(g, fx.topo, fx.placement, fx.engine,
                          RuntimeConfig{});
  EXPECT_EQ(unscaled.auto_scaler(), nullptr);
}

// ----- Incremental migration: bounded batches, dual-ownership window -----

TEST(RuntimeAutoScaleTest, IncrementalSplitMatchesSinglePauseBitForBit) {
  const auto g = TestGraph();
  const auto log = TestLog(g);  // 24 epochs

  RuntimeConfig single;
  single.num_shards = 2;
  const RuntimeResult one_pause =
      RunWithPlan(g, log, /*adaptive=*/false, single, {{8, 4}});
  ASSERT_EQ(one_pause.reconfig_events.size(), 1u);
  const std::uint64_t total_views = one_pause.reconfig_events[0].views_migrated;

  RuntimeConfig incremental = single;
  incremental.migration_batch = 100;
  const RuntimeResult batched =
      RunWithPlan(g, log, /*adaptive=*/false, incremental, {{8, 4}});
  ExpectConserved(batched, log);

  // ceil(total/batch) boundary steps, each bounded by the batch size, the
  // ledger shrinking monotonically to empty.
  ASSERT_EQ(batched.reconfig_events.size(), (total_views + 99) / 100);
  std::uint64_t migrated_sum = 0;
  std::uint64_t previous_pending = total_views;
  for (const ReconfigEvent& e : batched.reconfig_events) {
    EXPECT_EQ(e.from_shards, 2u);
    EXPECT_EQ(e.to_shards, 4u);
    EXPECT_LE(e.views_migrated, 100u);
    EXPECT_EQ(e.views_pending, previous_pending - e.views_migrated);
    previous_pending = e.views_pending;
    migrated_sum += e.views_migrated;
  }
  EXPECT_EQ(previous_pending, 0u);
  EXPECT_EQ(migrated_sum, total_views);
  EXPECT_EQ(batched.shard_stats.size(), 4u);

  ExpectAggregatesMatchStatic(batched, RunStatic(g, log, false, 2));
  ExpectAggregatesMatchStatic(batched, one_pause);
}

TEST(RuntimeAutoScaleTest, IncrementalMergeRetiresShardsOnlyAtWindowClose) {
  const auto g = TestGraph();
  const auto log = TestLog(g);

  RuntimeConfig rt_config;
  rt_config.num_shards = 4;
  rt_config.migration_batch = 150;
  const RuntimeResult result =
      RunWithPlan(g, log, /*adaptive=*/false, rt_config, {{8, 2}});
  ExpectConserved(result, log);

  ASSERT_GE(result.reconfig_events.size(), 2u);
  for (const ReconfigEvent& e : result.reconfig_events) {
    EXPECT_EQ(e.from_shards, 4u);
    EXPECT_EQ(e.to_shards, 2u);
    EXPECT_LE(e.views_migrated, 150u);
  }
  EXPECT_EQ(result.reconfig_events.back().views_pending, 0u);
  // Retired shards fold into totals; only the final set keeps rows.
  EXPECT_EQ(result.shard_stats.size(), 2u);
  EXPECT_EQ(result.shard_counters.size(), 2u);

  ExpectAggregatesMatchStatic(result, RunStatic(g, log, false, 4));
  ExpectAggregatesMatchStatic(result, RunStatic(g, log, false, 2));
}

TEST(RuntimeAutoScaleTest, IncrementalRunsAreDeterministicAndMatchInline) {
  const auto g = TestGraph();
  const auto log = TestLog(g, 0.5);

  RuntimeConfig threaded;
  threaded.num_shards = 2;
  threaded.migration_batch = 120;
  RuntimeConfig inline_cfg = threaded;
  inline_cfg.spawn_threads = false;

  const RuntimeResult a =
      RunWithPlan(g, log, /*adaptive=*/true, threaded, {{4, 4}});
  const RuntimeResult b =
      RunWithPlan(g, log, /*adaptive=*/true, threaded, {{4, 4}});
  const RuntimeResult c =
      RunWithPlan(g, log, /*adaptive=*/true, inline_cfg, {{4, 4}});
  ExpectCountersEq(a.counters, b.counters);
  ExpectCountersEq(a.counters, c.counters);
  ASSERT_EQ(a.shard_counters.size(), c.shard_counters.size());
  for (std::size_t s = 0; s < a.shard_counters.size(); ++s) {
    ExpectCountersEq(a.shard_counters[s], b.shard_counters[s]);
    ExpectCountersEq(a.shard_counters[s], c.shard_counters[s]);
  }
}

TEST(RuntimeAutoScaleTest, IncrementalEagerDrainConserves) {
  const auto g = TestGraph();
  const auto log = TestLog(g);

  RuntimeConfig rt_config;
  rt_config.num_shards = 2;
  rt_config.migration_batch = 100;
  rt_config.drain = DrainPolicy::kEager;
  const RuntimeResult result =
      RunWithPlan(g, log, /*adaptive=*/false, rt_config, {{6, 4}, {16, 2}});
  ExpectConserved(result, log);
  EXPECT_EQ(result.reconfig_events.back().views_pending, 0u);
  EXPECT_EQ(result.shard_stats.size(), 2u);
}

TEST(RuntimeAutoScaleTest, ReconfigureDuringWindowIsDeferredNotNested) {
  const auto g = TestGraph();
  const auto log = TestLog(g);

  RuntimeConfig rt_config;
  rt_config.num_shards = 2;
  rt_config.migration_batch = 60;  // hundreds of views -> a long window
  // The 3-shard request lands while the 2->4 window is still migrating;
  // it must park until the window closes, then apply (latest wins, windows
  // never nest).
  const RuntimeResult result =
      RunWithPlan(g, log, /*adaptive=*/false, rt_config, {{4, 4}, {6, 3}});
  ExpectConserved(result, log);

  EXPECT_EQ(result.shard_stats.size(), 3u);
  bool saw_to_four = false;
  bool saw_to_three = false;
  for (const ReconfigEvent& e : result.reconfig_events) {
    if (e.to_shards == 4u) {
      EXPECT_FALSE(saw_to_three) << "windows must not interleave";
      saw_to_four = true;
    }
    if (e.to_shards == 3u) {
      EXPECT_EQ(e.from_shards, 4u);
      saw_to_three = true;
    }
  }
  EXPECT_TRUE(saw_to_four);
  EXPECT_TRUE(saw_to_three);
  ExpectAggregatesMatchStatic(result, RunStatic(g, log, false, 2));
}

TEST(RuntimeAutoScaleTest, WindowOpenedAtLastBoundaryStillCompletes) {
  const auto g = TestGraph(400);
  const auto log = TestLog(g, 0.5);  // 12 epochs -> final boundary idx 11

  RuntimeConfig rt_config;
  rt_config.num_shards = 2;
  rt_config.migration_batch = 40;
  const RuntimeResult result =
      RunWithPlan(g, log, /*adaptive=*/false, rt_config, {{11, 4}});
  ExpectConserved(result, log);
  // The epoch loop keeps running boundaries past the drained log until the
  // ledger empties, so the run ends with the window closed.
  EXPECT_EQ(result.shard_stats.size(), 4u);
  EXPECT_EQ(result.reconfig_events.back().views_pending, 0u);
  ExpectAggregatesMatchStatic(result, RunStatic(g, log, false, 2));
}

TEST(RuntimeAutoScaleTest, BetweenRunsReconfigureIsAlwaysSingleStep) {
  const auto g = TestGraph(400);
  const auto log = TestLog(g, 0.5);
  const sim::ExperimentConfig config = BaseConfig(/*adaptive=*/false);
  const RuntimeFixture fx = MakeFixture(g, config);

  RuntimeConfig rt_config;
  rt_config.num_shards = 2;
  rt_config.migration_batch = 10;  // would be many steps mid-run
  ShardedRuntime runtime(g, fx.topo, fx.placement, fx.engine, rt_config);
  runtime.Reconfigure(4);
  EXPECT_EQ(runtime.num_shards(), 4u);

  const RuntimeResult result = runtime.Run(log);
  ExpectConserved(result, log);
  // No boundaries to spread over between runs: one event, nothing pending.
  ASSERT_EQ(result.reconfig_events.size(), 1u);
  EXPECT_EQ(result.reconfig_events.front().epoch_end, 0u);
  EXPECT_EQ(result.reconfig_events.front().views_pending, 0u);
}

TEST(RuntimeAutoScaleTest, RespawnedShardsRebaseScalerBaseline) {
  const auto g = TestGraph(400);
  const auto log = TestLog(g, 0.5);
  const sim::ExperimentConfig config = BaseConfig(/*adaptive=*/false);
  const RuntimeFixture fx = MakeFixture(g, config);

  // Every trigger off: the scaler only observes, so the shard count moves
  // only through the between-runs requests below.
  RuntimeConfig rt_config;
  rt_config.num_shards = 4;
  rt_config.scaler.enabled = true;
  rt_config.scaler.min_shards = 1;
  rt_config.scaler.max_shards = 4;
  ShardedRuntime runtime(g, fx.topo, fx.placement, fx.engine, rt_config);
  runtime.Run(log);
  const std::size_t first_run = runtime.auto_scaler()->history().size();
  ASSERT_GT(first_run, 0u);

  // Shards 2 and 3 retire and come back with fresh stats — the same size
  // as the first run's last baseline, which must not pair with them.
  runtime.Reconfigure(2);
  runtime.Reconfigure(4);
  ASSERT_EQ(runtime.num_shards(), 4u);
  runtime.Run(log);

  // The second run's first boundary rebases instead of observing.
  const std::vector<ScalerObservation>& history =
      runtime.auto_scaler()->history();
  ASSERT_GT(history.size(), first_run);
  for (std::size_t i = first_run; i < history.size(); ++i) {
    EXPECT_NE(history[i].epoch_index, 0u) << "observation " << i;
  }
}

TEST(RuntimeAutoScaleTest, PayloadCoherenceSurvivesIncrementalMerge) {
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
  rt_config.num_shards = 4;
  rt_config.migration_batch = 50;
  ShardedRuntime runtime(g, fx.topo, fx.placement, fx.engine, rt_config);
  runtime.AttachPersistentStore(&persist);
  InstallPlan(runtime, {{8, 2}});
  const RuntimeResult result = runtime.Run(log);

  EXPECT_EQ(result.totals.requests, result.expected_requests);
  EXPECT_EQ(result.counters.writes, log.num_writes);
  EXPECT_EQ(runtime.num_shards(), 2u);
  // Every surviving engine serves the store's latest version of a written
  // view — coherence held through the dual-ownership window.
  UserId writer = kInvalidView;
  for (auto it = log.requests.rbegin(); it != log.requests.rend(); ++it) {
    if (it->op == OpType::kWrite) {
      writer = it->user;
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
    EXPECT_EQ(data->events().back().payload, expect.back().payload);
  }
}

// ----- The phased workload itself -----

TEST(RuntimeAutoScaleTest, PhasedLogStormsOverTheMiddleThird) {
  const auto g = TestGraph();
  wl::PhasedLogConfig config;
  config.base.days = 1.0;
  config.base.seed = 11;
  config.burst_multiplier = 6.0;
  config.hot_users = 40;
  const wl::RequestLog phased = GeneratePhasedLog(g, config);
  const wl::RequestLog quiet = GenerateSyntheticLog(g, config.base);

  // Sorted, accounted, and strictly larger than the base log.
  EXPECT_TRUE(std::is_sorted(
      phased.requests.begin(), phased.requests.end(),
      [](const Request& a, const Request& b) { return a.time < b.time; }));
  EXPECT_EQ(phased.requests.size(), phased.num_reads + phased.num_writes);
  EXPECT_EQ(phased.num_writes, quiet.num_writes);
  EXPECT_GT(phased.num_reads, quiet.num_reads);
  EXPECT_EQ(phased.duration, quiet.duration);

  // The middle third carries ~6x the quiet volume; the outer thirds are
  // untouched relative to the base log.
  const SimTime begin = phased.duration / 3;
  const SimTime end = 2 * phased.duration / 3;
  const auto count_window = [&](const wl::RequestLog& log) {
    std::uint64_t n = 0;
    for (const Request& r : log.requests) {
      n += (r.time >= begin && r.time < end) ? 1 : 0;
    }
    return n;
  };
  const std::uint64_t quiet_window = count_window(quiet);
  const std::uint64_t phased_window = count_window(phased);
  EXPECT_GE(phased_window, 5 * quiet_window);
  EXPECT_LE(phased_window, 7 * quiet_window);
  EXPECT_EQ(phased.requests.size() - phased_window,
            quiet.requests.size() - quiet_window);

  // A multiplier <= 1 or an empty window is the identity.
  wl::PhasedLogConfig flat = config;
  flat.burst_multiplier = 1.0;
  EXPECT_EQ(GeneratePhasedLog(g, flat).requests.size(),
            quiet.requests.size());
  wl::PhasedLogConfig empty = config;
  empty.burst_end_frac = empty.burst_begin_frac;
  EXPECT_EQ(GeneratePhasedLog(g, empty).requests.size(),
            quiet.requests.size());
}

}  // namespace
}  // namespace dynasore::rt
