// The SLO control plane: end-to-end completion join (one latency sample per
// owned request, dispatch to last slice), the p99-targeting scaler policy
// ("split-slo" trigger + dead-banded merge veto on top of the load
// trigger). The load-bearing properties:
// the join conserves bit-for-bit — e2e_latency.count() == totals.requests —
// across shard counts, drain policies, mid-run resizes, kills, and scaler
// resizes; scaler decisions respect cooldown and the SLO dead band; and
// every new config knob is validated with a named-field message.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "graph/generator.h"
#include "runtime/auto_scaler.h"
#include "runtime/fault_injector.h"
#include "runtime/sharded_runtime.h"
#include "sim/experiment.h"
#include "workload/synthetic.h"

namespace dynasore::rt {
namespace {

// ----- Fixtures (mirrors runtime_autoscale_test.cc) -----

graph::SocialGraph TestGraph(std::uint32_t users = 800) {
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

struct RuntimeFixture {
  net::Topology topo;
  place::PlacementResult placement;
  core::EngineConfig engine;
};

RuntimeFixture MakeFixture(const graph::SocialGraph& g) {
  sim::ExperimentConfig config;
  config.policy = sim::Policy::kRandom;
  config.extra_memory_pct = 50;
  config.seed = 5;
  RuntimeFixture fx{sim::MakeTopology(config.cluster), {}, config.engine};
  fx.engine.store.capacity_views = sim::CapacityPerServer(
      g.num_users(), fx.topo.num_servers(), config.extra_memory_pct);
  fx.placement = sim::MakeInitialPlacement(
      g, fx.topo, fx.engine.store.capacity_views, config);
  return fx;
}

std::vector<ShardStats> Deltas(std::initializer_list<std::uint64_t> ops) {
  std::vector<ShardStats> deltas;
  for (std::uint64_t o : ops) {
    ShardStats d;
    d.requests = o;
    deltas.push_back(d);
  }
  return deltas;
}

EpochLatency Lat(std::uint64_t samples, double p99_us) {
  return EpochLatency{samples, p99_us};
}

// SLO-only scaler: load/imbalance/backlog triggers off, so every decision
// below is the latency policy's.
AutoScalerConfig SloScaler(std::uint64_t target_us) {
  AutoScalerConfig config;
  config.enabled = true;
  config.min_shards = 1;
  config.max_shards = 8;
  config.cooldown_epochs = 0;
  config.split_shard_ops = 0;
  config.merge_shard_ops = 0;
  config.target_p99_micros = target_us;
  return config;
}

// The join's conservation invariant plus the dominance the join's
// definition implies: end-to-end latency is the max over a request's
// slices, so per request it is at least the local execution latency.
void ExpectJoinConserved(const RuntimeResult& r) {
  EXPECT_EQ(r.totals.requests, r.expected_requests);
  EXPECT_EQ(r.e2e_latency.count(), r.totals.requests);
  EXPECT_EQ(r.e2e_percentiles.samples, r.totals.requests);
  EXPECT_GE(r.e2e_latency.sum(), r.request_latency.sum());
  EXPECT_GE(r.e2e_latency.max(), r.request_latency.max());
}

// ----- Config validation: every new knob names its field -----

TEST(SloConfigTest, ScalerSloTargetHasNoRangeRestriction) {
  // 0 is "policy off"; every other value is a target.
  RuntimeConfig rt_config;
  rt_config.scaler.target_p99_micros = 0;
  EXPECT_NO_THROW(rt_config.Validate());
  rt_config.scaler.target_p99_micros = ~std::uint64_t{0};
  EXPECT_NO_THROW(rt_config.Validate());
}

TEST(SloConfigTest, RebuildBatchEdgeValuesValidateAsDocumented) {
  // Valid range is ">= 1": both edges of the range are accepted, only the
  // degenerate 0 (a rebuild that never completes) is rejected — and the
  // message names the field.
  RuntimeConfig rt_config;
  rt_config.replication.rebuild_batch = 1;
  EXPECT_NO_THROW(rt_config.Validate());
  rt_config.replication.rebuild_batch = ~std::uint32_t{0};
  EXPECT_NO_THROW(rt_config.Validate());
  rt_config.replication.rebuild_batch = 0;
  try {
    rt_config.Validate();
    FAIL() << "rebuild_batch 0 must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("ReplicationConfig::rebuild_batch"),
              std::string::npos)
        << e.what();
  }
  // The check holds with replication enabled too (the knob also governs
  // replica-sourced rebuilds).
  rt_config.replication.enabled = true;
  rt_config.num_shards = 4;
  EXPECT_THROW(rt_config.Validate(), std::invalid_argument);
  rt_config.replication.rebuild_batch = 1;
  EXPECT_NO_THROW(rt_config.Validate());
}

// ----- AutoScaler SLO policy units (no runtime) -----

TEST(AutoScalerSloTest, SplitSloFiresOnBreachAndCarriesInputs) {
  AutoScaler scaler(SloScaler(1000));
  // Below the target: hold. At/below is not a breach — strict >.
  EXPECT_EQ(scaler.Observe(0, 2, Deltas({10, 10}), Lat(100, 900.0)), 0u);
  EXPECT_EQ(scaler.Observe(1, 2, Deltas({10, 10}), Lat(100, 1000.0)), 0u);
  // Breach: split doubles.
  EXPECT_EQ(scaler.Observe(2, 2, Deltas({10, 10}), Lat(100, 1500.0)), 4u);
  ASSERT_EQ(scaler.history().size(), 3u);
  const ScalerObservation& obs = scaler.history().back();
  EXPECT_STREQ(obs.reason, "split-slo");
  EXPECT_EQ(obs.decision, 4u);
  EXPECT_EQ(obs.e2e_p99_us, 1500.0);
  EXPECT_EQ(obs.slo_target_us, 1000.0);
  // No latency evidence means no breach, whatever the stale p99 says; and
  // an empty epoch never splits at all.
  EXPECT_EQ(scaler.Observe(3, 4, Deltas({10, 10, 10, 10}), Lat(0, 9999.0)),
            0u);
  EXPECT_EQ(scaler.Observe(4, 4, Deltas({0, 0, 0, 0}), Lat(100, 9999.0)),
            0u);
  // At max_shards the breach holds rather than splitting past the bound.
  AutoScalerConfig capped = SloScaler(1000);
  capped.max_shards = 2;
  AutoScaler at_max(capped);
  EXPECT_EQ(at_max.Observe(0, 2, Deltas({10, 10}), Lat(100, 5000.0)), 0u);
}

TEST(AutoScalerSloTest, LoadTriggerTakesPrecedenceOverSlo) {
  AutoScalerConfig config = SloScaler(1000);
  config.split_shard_ops = 500;
  AutoScaler scaler(config);
  // Both the load threshold and the SLO are breached: the load proxy wins
  // the reason string (the SLO backstops mis-tuned proxies, not the
  // reverse).
  EXPECT_EQ(scaler.Observe(0, 1, Deltas({800}), Lat(100, 2000.0)), 2u);
  EXPECT_STREQ(scaler.history().back().reason, "split-load");
  // Load quiet, latency hot: the backstop fires.
  EXPECT_EQ(scaler.Observe(1, 2, Deltas({100, 100}), Lat(100, 2000.0)), 4u);
  EXPECT_STREQ(scaler.history().back().reason, "split-slo");
}

TEST(AutoScalerSloTest, CooldownHoldsAfterSloSplit) {
  AutoScalerConfig config = SloScaler(1000);
  config.cooldown_epochs = 2;
  AutoScaler scaler(config);
  EXPECT_EQ(scaler.Observe(0, 1, Deltas({10}), Lat(100, 2000.0)), 2u);
  // Still breached, but the next two boundaries are cooldown holds.
  EXPECT_EQ(scaler.Observe(1, 2, Deltas({10, 10}), Lat(100, 2000.0)), 0u);
  EXPECT_STREQ(scaler.history().back().reason, "cooldown");
  EXPECT_EQ(scaler.Observe(2, 2, Deltas({10, 10}), Lat(100, 2000.0)), 0u);
  EXPECT_EQ(scaler.Observe(3, 2, Deltas({10, 10}), Lat(100, 2000.0)), 4u);
}

TEST(AutoScalerSloTest, MergeVetoHoldsInsideDeadBandAndResetsStreak) {
  AutoScalerConfig config = SloScaler(1000);
  config.merge_shard_ops = 500;  // every epoch below is ops-cold
  config.merge_cold_epochs = 2;  // kSloDeadBand 0.25: merges need p99 <= 750
  AutoScaler scaler(config);

  // Cold + comfortably under the band: the streak accrues.
  EXPECT_EQ(scaler.Observe(0, 4, Deltas({10, 10, 10, 10}), Lat(100, 700.0)),
            0u);
  EXPECT_EQ(scaler.history().back().cold_streak, 1u);
  // Cold but inside the dead band (750 < 900 <= 1000): vetoed, and the
  // accrued cold evidence is discarded — latency says the layout is not
  // oversized.
  EXPECT_EQ(scaler.Observe(1, 4, Deltas({10, 10, 10, 10}), Lat(100, 900.0)),
            0u);
  EXPECT_STREQ(scaler.history().back().reason, "slo-merge-veto");
  EXPECT_EQ(scaler.history().back().cold_streak, 0u);
  // The streak restarts from zero: two more cold-and-cool epochs to merge.
  EXPECT_EQ(scaler.Observe(2, 4, Deltas({10, 10, 10, 10}), Lat(100, 700.0)),
            0u);
  EXPECT_EQ(scaler.Observe(3, 4, Deltas({10, 10, 10, 10}), Lat(100, 750.0)),
            2u);
  EXPECT_STREQ(scaler.history().back().reason, "merge-cold");
}

TEST(AutoScalerSloTest, MergeProceedsWithoutLatencyEvidenceOrPolicy) {
  // samples == 0: no evidence, no veto — the ops-cold merge proceeds.
  AutoScalerConfig config = SloScaler(1000);
  config.merge_shard_ops = 500;
  config.merge_cold_epochs = 1;
  AutoScaler scaler(config);
  EXPECT_EQ(scaler.Observe(0, 4, Deltas({10, 10, 10, 10}), Lat(0, 0.0)), 2u);
  EXPECT_STREQ(scaler.history().back().reason, "merge-cold");

  // target == 0: the SLO policy is off entirely — no veto even when the
  // (ignored) p99 is enormous, and observations carry target 0.
  config.target_p99_micros = 0;
  AutoScaler off(config);
  EXPECT_EQ(off.Observe(0, 4, Deltas({10, 10, 10, 10}), Lat(100, 1e9)), 2u);
  EXPECT_STREQ(off.history().back().reason, "merge-cold");
  EXPECT_EQ(off.history().back().slo_target_us, 0.0);
}

// ----- End-to-end join: conservation across the whole config matrix -----

TEST(RuntimeSloTest, JoinConservesAcrossShardCountsAndDrainPolicies) {
  const auto g = TestGraph();
  const auto log = TestLog(g, 0.5);
  const RuntimeFixture fx = MakeFixture(g);
  for (const std::uint32_t shards : {1u, 2u, 4u}) {
    for (const DrainPolicy drain : {DrainPolicy::kEpoch, DrainPolicy::kEager}) {
      RuntimeConfig rt_config;
      rt_config.num_shards = shards;
      rt_config.drain = drain;
      ShardedRuntime runtime(g, fx.topo, fx.placement, fx.engine, rt_config);
      const RuntimeResult result = runtime.Run(log);
      ExpectJoinConserved(result);
      // Percentiles are consistent with the histogram they summarize.
      EXPECT_LE(result.e2e_percentiles.p50_us, result.e2e_percentiles.p99_us);
      EXPECT_LE(result.e2e_percentiles.p99_us, result.e2e_percentiles.max_us);
    }
  }
}

TEST(RuntimeSloTest, JoinIsDeterministicUnderEpochDrain) {
  // The join is part of the runtime's deterministic surface: under kEpoch,
  // two identical runs produce bit-identical end-to-end histograms in
  // count and bucket occupancy (times differ; the distribution's shape and
  // totals must not depend on scheduling).
  const auto g = TestGraph(400);
  const auto log = TestLog(g, 0.5);
  const RuntimeFixture fx = MakeFixture(g);
  RuntimeConfig rt_config;
  rt_config.num_shards = 4;
  ShardedRuntime a(g, fx.topo, fx.placement, fx.engine, rt_config);
  ShardedRuntime b(g, fx.topo, fx.placement, fx.engine, rt_config);
  const RuntimeResult ra = a.Run(log);
  const RuntimeResult rb = b.Run(log);
  EXPECT_EQ(ra.e2e_latency.count(), rb.e2e_latency.count());
  EXPECT_EQ(ra.totals.remote_read_slices, rb.totals.remote_read_slices);
}

// ----- Seeded property sweep (RandomKills style) -----

// Random phased workloads × shard counts × drain policies, half the seeds
// running scheduled kills plus a mid-run resize, half running the SLO
// scaler: the join's conservation must survive every combination, and the
// scaler's audit trail must respect cooldown and the dead band.
TEST(RuntimeSloTest, SeededSweepConservesJoinAcrossKillsResizesAndScaling) {
  const auto g = TestGraph(600);
  const RuntimeFixture fx = MakeFixture(g);

  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    wl::PhasedLogConfig phased;
    phased.base.days = 0.75;  // 18 epochs
    phased.base.seed = 11 + seed;
    phased.burst_multiplier = 2.0 + static_cast<double>(seed % 3) * 2.0;
    phased.hot_users = 20 + 10 * static_cast<std::uint32_t>(seed % 4);
    const wl::RequestLog log = GeneratePhasedLog(g, phased);

    RuntimeConfig rt_config;
    rt_config.num_shards = 2 + static_cast<std::uint32_t>(seed % 3);
    rt_config.drain =
        seed % 2 == 0 ? DrainPolicy::kEpoch : DrainPolicy::kEager;

    const bool with_scaler = seed % 2 == 0;
    FaultInjector injector;
    if (with_scaler) {
      rt_config.scaler.enabled = true;
      rt_config.scaler.min_shards = 1;
      rt_config.scaler.max_shards = 4;
      rt_config.scaler.cooldown_epochs = 1;
      rt_config.scaler.split_shard_ops = 0;
      rt_config.scaler.merge_shard_ops = 50;
      rt_config.scaler.merge_cold_epochs = 2;
      rt_config.scaler.target_p99_micros = 200;
    } else {
      // Kills target shards 0-1 only: those survive the mid-run resize
      // below in both directions, so every scheduled kill actually fires.
      injector = FaultInjector::RandomKills(seed, /*kills=*/2,
                                            /*num_shards=*/2,
                                            /*min_epoch=*/3,
                                            /*max_epoch=*/14);
    }

    ShardedRuntime runtime(g, fx.topo, fx.placement, fx.engine, rt_config);
    if (!with_scaler) {
      runtime.SetFaultInjector(&injector);
      // A mid-run operator resize on top of the kills.
      const std::uint32_t resize_to = rt_config.num_shards == 4 ? 2 : 4;
      runtime.SetEpochHook([&runtime, resize_to](SimTime, std::uint64_t idx) {
        if (idx == 6) runtime.Reconfigure(resize_to);
      });
    }
    const RuntimeResult result = runtime.Run(log);

    // Bit-for-bit: one end-to-end sample per owned request, no matter what
    // the run went through.
    ExpectJoinConserved(result);
    if (!with_scaler) {
      EXPECT_EQ(result.fault_events.size(), 2u) << "seed " << seed;
      EXPECT_FALSE(result.reconfig_events.empty()) << "seed " << seed;
      continue;
    }

    // Scaler runs: the audit trail obeys the policy's hysteresis contract.
    ASSERT_NE(runtime.auto_scaler(), nullptr);
    const auto& history = runtime.auto_scaler()->history();
    const AutoScalerConfig& sc = rt_config.scaler;
    for (std::size_t i = 0; i < history.size(); ++i) {
      const ScalerObservation& obs = history[i];
      EXPECT_EQ(obs.slo_target_us,
                static_cast<double>(sc.target_p99_micros));
      if (obs.decision != 0) {
        EXPECT_GE(obs.decision, sc.min_shards) << "seed " << seed;
        EXPECT_LE(obs.decision, sc.max_shards) << "seed " << seed;
        // A firing decision restarts the cooldown for the next boundary...
        EXPECT_EQ(obs.cooldown_left, sc.cooldown_epochs);
        // ...so the immediately following observation is a cooldown hold.
        if (i + 1 < history.size()) {
          EXPECT_STREQ(history[i + 1].reason, "cooldown")
              << "seed " << seed << " obs " << i + 1;
          EXPECT_EQ(history[i + 1].decision, 0u);
        }
      }
      if (std::string_view(obs.reason) == "slo-merge-veto") {
        // Vetoes only fire inside the dead band, and discard the streak.
        EXPECT_GT(obs.e2e_p99_us, (1.0 - AutoScalerConfig::kSloDeadBand) *
                                      static_cast<double>(
                                          sc.target_p99_micros));
        EXPECT_EQ(obs.cold_streak, 0u);
        EXPECT_EQ(obs.decision, 0u);
      }
      if (std::string_view(obs.reason) == "merge-cold") {
        // A permitted merge had latency at or below the band (or no
        // latency evidence at all this epoch).
        if (obs.e2e_p99_us > 0) {
          EXPECT_LE(obs.e2e_p99_us, (1.0 - AutoScalerConfig::kSloDeadBand) *
                                        static_cast<double>(
                                            sc.target_p99_micros));
        }
      }
    }
    EXPECT_EQ(result.slo_split_decisions,
              static_cast<std::uint64_t>(std::count_if(
                  history.begin(), history.end(),
                  [](const ScalerObservation& o) {
                    return std::string_view(o.reason) == "split-slo" &&
                           o.decision != 0;
                  })))
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace dynasore::rt
