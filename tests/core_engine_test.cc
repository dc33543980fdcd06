#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <span>
#include <vector>

#include "core/engine.h"
#include "net/topology.h"
#include "net/traffic.h"
#include "placement/placement.h"

namespace dynasore::core {
namespace {

using net::MsgClass;
using net::Tier;

// 2 intermediates x 2 racks x 3 machines: 8 servers (2/rack), 4 brokers.
// Rack of server s is s/2; servers {0,1} rack 0, {2,3} rack 1, {4,5} rack 2,
// {6,7} rack 3. Intermediate 0 = racks {0,1}, intermediate 1 = racks {2,3}.
net::Topology SmallTopo() {
  return net::Topology::MakeTree(net::TreeConfig{2, 2, 3});
}

place::PlacementResult MakePlacement(
    std::vector<std::vector<ServerId>> replicas) {
  place::PlacementResult result;
  result.master.reserve(replicas.size());
  for (const auto& r : replicas) result.master.push_back(r.front());
  result.replicas = std::move(replicas);
  return result;
}

EngineConfig StaticConfig(std::uint32_t capacity = 100) {
  EngineConfig config;
  config.adaptive = false;
  config.store.capacity_views = capacity;
  return config;
}

EngineConfig AdaptiveConfig(std::uint32_t capacity = 100) {
  EngineConfig config;
  config.adaptive = true;
  config.store.capacity_views = capacity;
  return config;
}

// ----- Static execution: exact traffic accounting -----

TEST(StaticEngineTest, SameRackReadCosts) {
  const auto topo = SmallTopo();
  // View 0 on server 0; its reader (user 1) has her view on server 1, so
  // her read proxy is broker 0 (same rack).
  Engine engine(topo, MakePlacement({{0}, {1}}), StaticConfig());
  const std::vector<ViewId> targets{0};
  engine.ExecuteRead(1, targets, 0);
  // Request + answer, 10 units each, over one rack switch.
  EXPECT_EQ(engine.traffic().TierTotal(Tier::kRack, MsgClass::kApp), 20u);
  EXPECT_EQ(engine.traffic().TierTotal(Tier::kTop, MsgClass::kApp), 0u);
  EXPECT_EQ(engine.traffic().TierTotal(Tier::kIntermediate, MsgClass::kApp),
            0u);
}

TEST(StaticEngineTest, CrossClusterReadHitsEveryTier) {
  const auto topo = SmallTopo();
  // View 0 on server 6 (rack 3, int 1); reader's proxy on broker 0 (int 0).
  Engine engine(topo, MakePlacement({{6}, {1}}), StaticConfig());
  const std::vector<ViewId> targets{0};
  engine.ExecuteRead(1, targets, 0);
  EXPECT_EQ(engine.traffic().TierTotal(Tier::kTop, MsgClass::kApp), 20u);
  EXPECT_EQ(engine.traffic().TierTotal(Tier::kIntermediate, MsgClass::kApp),
            40u);  // two intermediate switches each way
  EXPECT_EQ(engine.traffic().TierTotal(Tier::kRack, MsgClass::kApp), 40u);
}

TEST(StaticEngineTest, WriteUpdatesEveryReplica) {
  const auto topo = SmallTopo();
  // View 0 replicated on servers 0 (rack 0) and 6 (rack 3); write proxy
  // broker 0 (master = server 0).
  Engine engine(topo, MakePlacement({{0, 6}}), StaticConfig());
  engine.ExecuteWrite(0, 0);
  EXPECT_EQ(engine.counters().replica_updates, 2u);
  // Local replica: 2 * 10 on rack. Remote replica: 2 * 10 across 5 switches.
  EXPECT_EQ(engine.traffic().TierTotal(Tier::kTop, MsgClass::kApp), 20u);
  EXPECT_EQ(engine.traffic().TierTotal(Tier::kRack, MsgClass::kApp),
            20u + 40u);
}

TEST(StaticEngineTest, ReadsRouteToClosestReplica) {
  const auto topo = SmallTopo();
  // View 0 on servers 0 and 6. Reader user 1 with proxy on broker 3.
  Engine engine(topo, MakePlacement({{0, 6}, {7}}), StaticConfig());
  const std::vector<ViewId> targets{0};
  engine.ExecuteRead(1, targets, 0);
  // Served from server 6 in the same rack: no top-switch traffic.
  EXPECT_EQ(engine.traffic().TierTotal(Tier::kTop, MsgClass::kApp), 0u);
}

TEST(StaticEngineTest, BatchingCoalescesPerServer) {
  const auto topo = SmallTopo();
  // Three views on server 6; reader proxy on broker 0 (cross-cluster).
  auto placement = MakePlacement({{6}, {6}, {6}, {1}});
  EngineConfig batched = StaticConfig();
  batched.traffic.batch_per_server = true;
  Engine engine(topo, placement, batched);
  const std::vector<ViewId> targets{0, 1, 2};
  engine.ExecuteRead(3, targets, 0);
  // One round trip instead of three.
  EXPECT_EQ(engine.traffic().TierTotal(Tier::kTop, MsgClass::kApp), 20u);

  Engine per_view(topo, placement, StaticConfig());
  per_view.ExecuteRead(3, targets, 0);
  EXPECT_EQ(per_view.traffic().TierTotal(Tier::kTop, MsgClass::kApp), 60u);
}

TEST(StaticEngineTest, NoAdaptationHappens) {
  const auto topo = SmallTopo();
  Engine engine(topo, MakePlacement({{6}, {1}}), StaticConfig());
  const std::vector<ViewId> targets{0};
  for (int i = 0; i < 50; ++i) engine.ExecuteRead(1, targets, i);
  engine.Tick(3600);
  EXPECT_EQ(engine.ReplicaCount(0), 1u);
  EXPECT_EQ(engine.counters().replicas_created, 0u);
  EXPECT_EQ(engine.traffic().TierTotal(Tier::kTop, MsgClass::kSystem), 0u);
}

// ----- Adaptive: replication (Algorithm 2) -----

TEST(AdaptiveEngineTest, RemoteReadsTriggerReplication) {
  const auto topo = SmallTopo();
  // View 0 on server 0 (int 0); reader user 1 with proxy broker 3 (int 1).
  Engine engine(topo, MakePlacement({{0}, {7}}), AdaptiveConfig());
  const std::vector<ViewId> targets{0};
  engine.ExecuteRead(1, targets, 0);
  // One read from a distant origin at zero write cost is already
  // profitable: profit = 1*(5-3) = 2 > threshold 0.
  EXPECT_EQ(engine.ReplicaCount(0), 2u);
  EXPECT_EQ(engine.counters().replicas_created, 1u);
  // The new replica sits inside intermediate 1.
  bool in_int1 = false;
  for (const ReplicaRef& r : engine.registry().info(0).replicas) {
    in_int1 |= topo.intermediate_of_server(r.server) == 1;
  }
  EXPECT_TRUE(in_int1);
}

TEST(AdaptiveEngineTest, ReplicationConvergesToReaderRack) {
  const auto topo = SmallTopo();
  // Proxy migration would solve this single-reader scenario by moving the
  // proxy instead; disable it to exercise pure replication convergence.
  EngineConfig config = AdaptiveConfig();
  config.enable_proxy_migration = false;
  Engine engine(topo, MakePlacement({{0}, {7}}), config);
  const std::vector<ViewId> targets{0};
  SimTime t = 0;
  for (int hour = 0; hour < 5; ++hour) {
    for (int i = 0; i < 20; ++i) engine.ExecuteRead(1, targets, t += 10);
    engine.Tick(t);
  }
  // Eventually a replica lands in the reader's rack (rack 3) and reads stop
  // crossing the tree.
  bool in_rack3 = false;
  for (const ReplicaRef& r : engine.registry().info(0).replicas) {
    in_rack3 |= topo.rack_of_server(r.server) == 3;
  }
  EXPECT_TRUE(in_rack3);
  const std::uint64_t top_before =
      engine.traffic().TierTotal(Tier::kTop, MsgClass::kApp);
  for (int i = 0; i < 20; ++i) engine.ExecuteRead(1, targets, t += 10);
  EXPECT_EQ(engine.traffic().TierTotal(Tier::kTop, MsgClass::kApp),
            top_before);
}

TEST(AdaptiveEngineTest, ProxyMigrationAloneLocalizesSingleReader) {
  // The same scenario with proxy migration enabled converges without any
  // replication: the read proxy simply moves next to the view.
  const auto topo = SmallTopo();
  Engine engine(topo, MakePlacement({{0}, {7}}), AdaptiveConfig());
  const std::vector<ViewId> targets{0};
  SimTime t = 0;
  for (int i = 0; i < 10; ++i) engine.ExecuteRead(1, targets, t += 10);
  EXPECT_EQ(engine.read_proxy(1), 0);  // proxy followed the view
  const std::uint64_t top_before =
      engine.traffic().TierTotal(Tier::kTop, MsgClass::kApp);
  for (int i = 0; i < 20; ++i) engine.ExecuteRead(1, targets, t += 10);
  EXPECT_EQ(engine.traffic().TierTotal(Tier::kTop, MsgClass::kApp),
            top_before);
}

TEST(AdaptiveEngineTest, CooldownLimitsChangesPerSlot) {
  const auto topo = SmallTopo();
  EngineConfig config = AdaptiveConfig();
  config.enable_proxy_migration = false;  // keep reads arriving from afar
  Engine engine(topo, MakePlacement({{0}, {7}, {2}}), config);
  const std::vector<ViewId> targets{0};
  // Readers in two different places keep demand for replicas alive.
  for (int i = 0; i < 10; ++i) {
    engine.ExecuteRead(1, targets, i);
    engine.ExecuteRead(2, targets, i);
  }
  // Only one structural change per slot for a given view.
  EXPECT_EQ(engine.counters().replicas_created, 1u);
  engine.Tick(3600);
  for (int i = 0; i < 10; ++i) {
    engine.ExecuteRead(1, targets, 3600 + i);
    engine.ExecuteRead(2, targets, 3600 + i);
  }
  EXPECT_GE(engine.counters().replicas_created, 2u);
}

TEST(AdaptiveEngineTest, LocalReadsDoNotReplicate) {
  const auto topo = SmallTopo();
  // Reader in the same rack as the view: nothing to improve.
  Engine engine(topo, MakePlacement({{0}, {1}}), AdaptiveConfig());
  const std::vector<ViewId> targets{0};
  for (int i = 0; i < 50; ++i) engine.ExecuteRead(1, targets, i);
  EXPECT_EQ(engine.ReplicaCount(0), 1u);
}

TEST(AdaptiveEngineTest, ReplicationBlockedWhenSubtreeFull) {
  const auto topo = SmallTopo();
  // Fill every server of intermediate 1 (servers 4..7) to capacity 1 with
  // pinned views; view 0 in int 0 is read from int 1 but cannot replicate.
  Engine engine(topo, MakePlacement({{0}, {4}, {5}, {6}, {7}}),
                AdaptiveConfig(/*capacity=*/1));
  const std::vector<ViewId> targets{0};
  for (int i = 0; i < 20; ++i) engine.ExecuteRead(1, targets, i);
  EXPECT_EQ(engine.ReplicaCount(0), 1u);
  EXPECT_EQ(engine.counters().replicas_created, 0u);
}

TEST(AdaptiveEngineTest, SystemTrafficChargedForReplication) {
  const auto topo = SmallTopo();
  Engine engine(topo, MakePlacement({{0}, {7}}), AdaptiveConfig());
  const std::vector<ViewId> targets{0};
  engine.ExecuteRead(1, targets, 0);
  ASSERT_EQ(engine.counters().replicas_created, 1u);
  // At minimum: request to write proxy, instruction, view copy, routing
  // notifications.
  EXPECT_GT(engine.traffic().TierTotal(Tier::kRack, MsgClass::kSystem), 0u);
}

// ----- Adaptive: write-heavy views lose their replicas -----

TEST(AdaptiveEngineTest, WriteHeavyReplicaIsDropped) {
  const auto topo = SmallTopo();
  Engine engine(topo, MakePlacement({{0}, {7}}), AdaptiveConfig());
  const std::vector<ViewId> targets{0};
  SimTime t = 0;
  // Phase 1: remote reads create a replica.
  for (int i = 0; i < 5; ++i) engine.ExecuteRead(1, targets, ++t);
  ASSERT_GE(engine.ReplicaCount(0), 2u);
  // Phase 2: reads stop; writes continue. Once the read window expires the
  // extra replica has negative utility and is removed.
  for (int hour = 0; hour < 30; ++hour) {
    for (int i = 0; i < 5; ++i) engine.ExecuteWrite(0, ++t);
    engine.Tick(t);
  }
  EXPECT_EQ(engine.ReplicaCount(0), 1u);
  EXPECT_GT(engine.counters().replicas_dropped, 0u);
}

TEST(AdaptiveEngineTest, SoleReplicaNeverDropped) {
  const auto topo = SmallTopo();
  Engine engine(topo, MakePlacement({{0}, {1}}), AdaptiveConfig());
  SimTime t = 0;
  // Write-hammer a view that nobody reads: utility is negative but it is
  // the only copy.
  for (int hour = 0; hour < 30; ++hour) {
    for (int i = 0; i < 10; ++i) engine.ExecuteWrite(0, ++t);
    engine.Tick(t);
  }
  EXPECT_EQ(engine.ReplicaCount(0), 1u);
}

// ----- Migration (Algorithm 3) -----

TEST(AdaptiveEngineTest, SoleViewMigratesTowardItsReaders) {
  const auto topo = SmallTopo();
  // View 0 on server 0. All reads come from rack 3; replication would
  // normally fire first, so fill intermediate 1 almost full: capacity 2,
  // servers 4..7 hold pinned views 1..4 twice... instead disable
  // replication to isolate migration.
  EngineConfig config = AdaptiveConfig();
  config.enable_replication = false;
  Engine engine(topo, MakePlacement({{0}, {7}}), config);
  const std::vector<ViewId> targets{0};
  SimTime t = 0;
  for (int hour = 0; hour < 4; ++hour) {
    for (int i = 0; i < 25; ++i) engine.ExecuteRead(1, targets, ++t);
    engine.Tick(t);
  }
  EXPECT_EQ(engine.ReplicaCount(0), 1u);  // migration, not replication
  EXPECT_GT(engine.counters().migrations, 0u);
  const ServerId home =
      engine.registry().info(0).replicas.front().server;
  EXPECT_EQ(topo.intermediate_of_server(home), 1);
}

// ----- Proxy migration -----

TEST(AdaptiveEngineTest, ReadProxyFollowsTheViews) {
  const auto topo = SmallTopo();
  // Reader user 2's proxy starts at broker 0 (her view on server 1); both
  // views she reads live in rack 3.
  Engine engine(topo, MakePlacement({{6}, {7}, {1}}), AdaptiveConfig());
  const std::vector<ViewId> targets{0, 1};
  engine.ExecuteRead(2, targets, 0);
  EXPECT_EQ(engine.read_proxy(2), 3);
  EXPECT_GT(engine.counters().read_proxy_migrations, 0u);
}

TEST(AdaptiveEngineTest, WriteProxyFollowsTheReplicas) {
  const auto topo = SmallTopo();
  // View 0's replicas both sit in intermediate 1; write proxy starts at
  // broker 1 because the master is server 2 (rack 1).
  Engine engine(topo, MakePlacement({{2, 6}, {1}}), AdaptiveConfig());
  // Move the replica set: drop nothing, just write — the best broker for
  // servers {2, 6} is a tie (1 each); the proxy stays.
  engine.ExecuteWrite(0, 0);
  EXPECT_EQ(engine.write_proxy(0), 1);
  // Now with both replicas in rack 3 the proxy should move to broker 3.
  Engine engine2(topo, MakePlacement({{6, 7}, {1}}), AdaptiveConfig());
  ASSERT_EQ(engine2.write_proxy(0), 3);  // master server 6 -> rack 3 already
}

TEST(AdaptiveEngineTest, ProxyMigrationCanBeDisabled) {
  const auto topo = SmallTopo();
  EngineConfig config = AdaptiveConfig();
  config.enable_proxy_migration = false;
  Engine engine(topo, MakePlacement({{6}, {7}, {1}}), config);
  const std::vector<ViewId> targets{0, 1};
  engine.ExecuteRead(2, targets, 0);
  EXPECT_EQ(engine.read_proxy(2), 0);
  EXPECT_EQ(engine.counters().read_proxy_migrations, 0u);
}

// ----- Eviction sweep -----

TEST(AdaptiveEngineTest, EvictionKeepsServerBelowWatermark) {
  const auto topo = SmallTopo();
  // Server 0 with capacity 4 holds 4 views, all replicated elsewhere (so
  // none is pinned). The sweep must bring it to <= 95% = 3 views.
  Engine engine(topo,
                MakePlacement({{0, 4}, {0, 5}, {0, 6}, {0, 7}, {1}}),
                AdaptiveConfig(/*capacity=*/4));
  engine.Tick(3600);
  EXPECT_LE(engine.server(0).used(), 3u);
  EXPECT_GT(engine.counters().replicas_dropped, 0u);
  // Every view still has at least one replica.
  for (ViewId v = 0; v < 5; ++v) EXPECT_GE(engine.ReplicaCount(v), 1u);
}

TEST(AdaptiveEngineTest, EvictionSkipsPinnedViews) {
  const auto topo = SmallTopo();
  // Server 0 full of sole replicas: nothing can be evicted.
  Engine engine(topo, MakePlacement({{0}, {0}, {0}, {0}}),
                AdaptiveConfig(/*capacity=*/4));
  engine.Tick(3600);
  EXPECT_EQ(engine.server(0).used(), 4u);
}

TEST(AdaptiveEngineTest, EvictionOrderIsUtilityThenViewId) {
  const auto topo = SmallTopo();
  // Server 2 (rack 1) holds ten views; every other replica sits in the far
  // intermediate (servers 4-7) unless noted. Reads from broker 1 (rack 1)
  // are worth 5 - 1 = 4 each to server 2's replica.
  //   view 0: also on server 0, written once -> dropped there as negative
  //           (server 0 ticks first), so pinned here with utility -3;
  //   view 1: sole replica -> pinned, infinite utility;
  //   view 2: written once, never read -> utility -1, dropped as negative;
  //   views 3..9: read 1, 3, 1, 2, 0, 2, 5 times -> 4, 12, 4, 8, 0, 8, 20.
  Engine engine(topo,
                MakePlacement({{0, 2},
                               {2},
                               {2, 4},
                               {2, 4},
                               {2, 5},
                               {2, 6},
                               {2, 7},
                               {2, 4},
                               {2, 5},
                               {2, 6}}),
                [] {
                  EngineConfig config = AdaptiveConfig(/*capacity=*/10);
                  config.enable_replication = false;
                  config.enable_migration = false;
                  config.enable_proxy_migration = false;
                  config.store.evict_watermark = 0.5;  // keep <= 5 views
                  config.store.threshold_fill = 0.5;   // 5 slots
                  return config;
                }());
  const std::uint32_t reads[] = {0, 0, 0, 1, 3, 1, 2, 0, 2, 5};
  for (ViewId v = 0; v < 10; ++v) {
    const std::vector<ViewId> target{v};
    for (std::uint32_t i = 0; i < reads[v]; ++i) {
      engine.ExecuteRead(/*reader=*/1, target, 1);  // user 1: broker 1
    }
  }
  engine.ExecuteWrite(0, 1);
  engine.ExecuteWrite(2, 1);
  engine.Tick(3600);

  EXPECT_EQ(engine.counters().drops_negative, 2u);  // view 0 on 0, view 2
  // Ranked: 0 (-3, pinned), 7 (0), 3 (4), 5 (4), 6 (8), 8 (8), 4 (12),
  // 9 (20), 1 (inf). Four go, lowest utility first and the lower id first
  // among equals: 7, 3, 5, then 6 ahead of its tie 8.
  EXPECT_EQ(engine.counters().evictions_watermark, 4u);
  const store::StoreServer& server = engine.server(2);
  const std::span<const ViewId> kept = server.views();
  EXPECT_EQ(std::vector<ViewId>(kept.begin(), kept.end()),
            (std::vector<ViewId>{0, 1, 4, 8, 9}));
  // The threshold is the 5th-highest utility before eviction: inf, 20, 12,
  // 8, 8.
  EXPECT_DOUBLE_EQ(server.admission_threshold(), 8.0);
  EXPECT_EQ(server.utility(1), store::kInfiniteUtility);
  EXPECT_DOUBLE_EQ(server.utility(0), -3.0);
}

// The same server as above, swept to every watermark: with room for
// 9 - k views after the negative drops, the victims are exactly the first k
// of the (utility, view id) order that are not pinned. View 0 ranks first
// (utility -3) but is pinned, 3/5 and 6/8 tie, and the walk ends at view 1,
// the one infinite utility, even while the server stays above the mark.
TEST(AdaptiveEngineTest, EvictionVictimsArePrefixesOfTheUtilityOrder) {
  const auto topo = SmallTopo();
  const std::vector<ViewId> order{7, 3, 5, 6, 8, 4, 9};
  for (std::size_t k = 0; k <= order.size() + 1; ++k) {
    SCOPED_TRACE(k);
    EngineConfig config = AdaptiveConfig(/*capacity=*/10);
    config.enable_replication = false;
    config.enable_migration = false;
    config.enable_proxy_migration = false;
    // 9 - k views fit under the mark, and 9 - k + 1 do not.
    config.store.evict_watermark =
        (9.0 - static_cast<double>(k) + 0.5) / 10.0;
    Engine engine(topo,
                  MakePlacement({{0, 2},
                                 {2},
                                 {2, 4},
                                 {2, 4},
                                 {2, 5},
                                 {2, 6},
                                 {2, 7},
                                 {2, 4},
                                 {2, 5},
                                 {2, 6}}),
                  config);
    const std::uint32_t reads[] = {0, 0, 0, 1, 3, 1, 2, 0, 2, 5};
    for (ViewId v = 0; v < 10; ++v) {
      const std::vector<ViewId> target{v};
      for (std::uint32_t i = 0; i < reads[v]; ++i) {
        engine.ExecuteRead(/*reader=*/1, target, 1);
      }
    }
    engine.ExecuteWrite(0, 1);
    engine.ExecuteWrite(2, 1);
    engine.Tick(3600);

    const std::size_t victims = std::min(k, order.size());
    EXPECT_EQ(engine.counters().drops_negative, 2u);
    EXPECT_EQ(engine.counters().evictions_watermark, victims);
    std::vector<ViewId> want_kept{0, 1};
    want_kept.insert(want_kept.end(), order.begin() + victims, order.end());
    std::sort(want_kept.begin(), want_kept.end());
    const std::span<const ViewId> kept = engine.server(2).views();
    EXPECT_EQ(std::vector<ViewId>(kept.begin(), kept.end()), want_kept);
    EXPECT_EQ(engine.server(2).AboveWatermark(), k > order.size());
  }
}

// ----- Admission thresholds -----

TEST(AdaptiveEngineTest, FullClusterBlocksReplication) {
  const auto topo = SmallTopo();
  // 0% extra memory: every server holds exactly its capacity in sole views.
  std::vector<std::vector<ServerId>> placement;
  for (ServerId s = 0; s < 8; ++s) {
    placement.push_back({s});
    placement.push_back({s});
  }
  Engine engine(topo, MakePlacement(std::move(placement)),
                AdaptiveConfig(/*capacity=*/2));
  // Reads from everywhere cannot create replicas: no space anywhere.
  SimTime t = 0;
  const std::vector<ViewId> targets{0};
  for (int hour = 0; hour < 3; ++hour) {
    for (int i = 0; i < 30; ++i) engine.ExecuteRead(15, targets, ++t);
    engine.Tick(t);
  }
  EXPECT_EQ(engine.counters().replicas_created, 0u);
  for (ViewId v = 0; v < 16; ++v) EXPECT_EQ(engine.ReplicaCount(v), 1u);
}

// ----- Crash handling -----

TEST(CrashTest, SoleViewsRebuiltInSameRack) {
  const auto topo = SmallTopo();
  // Server 0: two sole views; one view also replicated on server 6.
  Engine engine(topo, MakePlacement({{0}, {0}, {0, 6}, {1}}),
                AdaptiveConfig());
  engine.CrashServer(0, 100);
  for (ViewId v = 0; v < 4; ++v) {
    EXPECT_GE(engine.ReplicaCount(v), 1u) << "view " << v;
  }
  EXPECT_EQ(engine.counters().crash_rebuilds, 2u);
  // Rebuilt copies land in rack 0 (server 1 has space).
  EXPECT_EQ(engine.registry().info(0).replicas.front().server, 1);
  // The replicated view survives on server 6 without a rebuild.
  EXPECT_EQ(engine.ReplicaCount(2), 1u);
  EXPECT_EQ(engine.registry().info(2).replicas.front().server, 6);
  // The crashed server restarts empty.
  EXPECT_EQ(engine.server(0).used(), 0u);
}

TEST(CrashTest, ClusterKeepsServingAfterCrash) {
  const auto topo = SmallTopo();
  Engine engine(topo, MakePlacement({{0}, {2}, {4}, {6}}), AdaptiveConfig());
  engine.CrashServer(0, 100);
  const std::vector<ViewId> targets{0, 1, 2, 3};
  engine.ExecuteRead(3, targets, 200);  // must not crash or miss views
  EXPECT_EQ(engine.counters().view_reads, 4u);
}

// ----- AddUser -----

TEST(AddUserTest, LandsOnLeastLoadedServer) {
  const auto topo = SmallTopo();
  Engine engine(topo, MakePlacement({{0}, {0}, {1}}), AdaptiveConfig());
  const ViewId v = engine.AddUser();
  EXPECT_EQ(v, 3u);
  EXPECT_EQ(engine.ReplicaCount(v), 1u);
  const ServerId home = engine.registry().info(v).replicas.front().server;
  EXPECT_GE(home, 2);  // servers 0 and 1 are the loaded ones
  EXPECT_EQ(engine.read_proxy(v),
            topo.broker_of_rack(topo.rack_of_server(home)));
}

// ----- Memory invariants under sustained adaptive load -----

TEST(InvariantTest, CapacityNeverExceededUnderChurn) {
  const auto topo = SmallTopo();
  std::vector<std::vector<ServerId>> placement;
  for (ViewId v = 0; v < 24; ++v) {
    placement.push_back({static_cast<ServerId>(v % 8)});
  }
  Engine engine(topo, MakePlacement(std::move(placement)),
                AdaptiveConfig(/*capacity=*/6));
  SimTime t = 0;
  for (int hour = 0; hour < 12; ++hour) {
    for (int i = 0; i < 60; ++i) {
      const UserId reader = static_cast<UserId>(i % 24);
      const std::vector<ViewId> targets{static_cast<ViewId>((i * 7) % 24),
                                        static_cast<ViewId>((i * 11) % 24)};
      engine.ExecuteRead(reader, targets, ++t);
      if (i % 4 == 0) engine.ExecuteWrite(static_cast<UserId>(i % 24), ++t);
    }
    engine.Tick(t);
    for (ServerId s = 0; s < topo.num_servers(); ++s) {
      ASSERT_LE(engine.server(s).used(), engine.server(s).capacity());
    }
    for (ViewId v = 0; v < 24; ++v) {
      ASSERT_GE(engine.ReplicaCount(v), 1u);
      // Registry and stores agree.
      for (const ReplicaRef& r : engine.registry().info(v).replicas) {
        ASSERT_TRUE(engine.server(r.server).Has(v));
      }
    }
  }
}

// ----- Maintenance ownership -----

// The ownership byte map must follow the installed predicate for views
// AddUser creates after the install, and follow every reinstall, as the
// sharded runtime reinstalls at each ownership change.
TEST(MaintenanceOwnerTest, ByteMapFollowsThePredicate) {
  const auto topo = SmallTopo();
  Engine engine(topo, MakePlacement({{0}, {1}, {2}, {3}, {4}}),
                AdaptiveConfig());
  for (ViewId v = 0; v < 5; ++v) EXPECT_TRUE(engine.Maintains(v));
  const auto even = [](ViewId v) { return v % 2 == 0; };
  engine.SetMaintenanceOwner(even);
  engine.AddUser();
  engine.AddUser();
  for (ViewId v = 0; v < 7; ++v) EXPECT_EQ(engine.Maintains(v), even(v)) << v;
  const auto not_third = [](ViewId v) { return v % 3 != 0; };
  engine.SetMaintenanceOwner(not_third);
  engine.AddUser();
  for (ViewId v = 0; v < 8; ++v) {
    EXPECT_EQ(engine.Maintains(v), not_third(v)) << v;
  }
  // A reinstall that names the views whose owner changed evaluates only
  // those, as a migration window's step does for its batch.
  const auto moved = [](ViewId v) { return v % 3 != 0 || v == 6; };
  const std::vector<ViewId> changed{6};
  engine.SetMaintenanceOwner(moved, changed);
  for (ViewId v = 0; v < 8; ++v) EXPECT_EQ(engine.Maintains(v), moved(v)) << v;
  engine.AddUser();
  EXPECT_EQ(engine.Maintains(8), moved(8));
  engine.SetMaintenanceOwner({});
  engine.AddUser();
  for (ViewId v = 0; v < 10; ++v) EXPECT_TRUE(engine.Maintains(v)) << v;
}

void ExpectSameState(const Engine& a, const Engine& b) {
  const EngineCounters& ca = a.counters();
  const EngineCounters& cb = b.counters();
  EXPECT_EQ(ca.replicas_created, cb.replicas_created);
  EXPECT_EQ(ca.replicas_dropped, cb.replicas_dropped);
  EXPECT_EQ(ca.evictions_watermark, cb.evictions_watermark);
  EXPECT_EQ(ca.drops_negative, cb.drops_negative);
  EXPECT_EQ(ca.migrations, cb.migrations);
  for (int tier = 0; tier < net::kNumTiers; ++tier) {
    for (MsgClass c : {MsgClass::kApp, MsgClass::kSystem}) {
      EXPECT_EQ(a.traffic().TierTotal(static_cast<Tier>(tier), c),
                b.traffic().TierTotal(static_cast<Tier>(tier), c));
    }
  }
  for (ServerId s = 0; s < a.topology().num_servers(); ++s) {
    const store::StoreServer& sa = a.server(s);
    const store::StoreServer& sb = b.server(s);
    ASSERT_TRUE(std::ranges::equal(sa.views(), sb.views())) << "server " << s;
    EXPECT_EQ(sa.admission_threshold(), sb.admission_threshold());
    for (std::size_t i = 0; i < sa.views().size(); ++i) {
      EXPECT_EQ(sa.utility_at(i), sb.utility_at(i))
          << "server " << s << " view " << sa.views()[i];
    }
  }
}

// Ticks with the byte map, installed once and extended by AddUser, against
// an engine that installs the raw predicate afresh right before every tick.
// The owner switches halfway through, as a reconfiguration would switch it.
TEST(MaintenanceOwnerTest, TicksMatchAFreshlyInstalledPredicate) {
  const auto topo = SmallTopo();
  std::vector<std::vector<ServerId>> placement;
  for (ViewId v = 0; v < 16; ++v) {
    std::vector<ServerId> servers{static_cast<ServerId>(v % 8),
                                  static_cast<ServerId>((v + 3) % 8)};
    std::sort(servers.begin(), servers.end());
    placement.push_back(std::move(servers));
  }
  std::function<bool(ViewId)> owner = [](ViewId v) { return v % 2 == 0; };
  const std::function<bool(ViewId)> next = [](ViewId v) {
    return v % 3 != 1;
  };
  Engine mapped(topo, MakePlacement(placement), AdaptiveConfig(/*capacity=*/8));
  Engine fresh(topo, MakePlacement(placement), AdaptiveConfig(/*capacity=*/8));
  mapped.SetMaintenanceOwner(owner);
  ViewId views = 16;
  SimTime t = 0;
  for (int hour = 0; hour < 10; ++hour) {
    SCOPED_TRACE(hour);
    if (hour == 5) {
      owner = next;
      mapped.SetMaintenanceOwner(owner);
    }
    if (hour % 2 == 0) {
      ASSERT_EQ(mapped.AddUser(), views);
      ASSERT_EQ(fresh.AddUser(), views);
      ++views;
    }
    for (int i = 0; i < 80; ++i) {
      const auto reader = static_cast<UserId>((i * 5 + hour) % views);
      const std::vector<ViewId> targets{
          static_cast<ViewId>((i * 7) % views),
          static_cast<ViewId>((i * 3 + hour) % views)};
      ++t;
      mapped.ExecuteRead(reader, targets, t);
      fresh.ExecuteRead(reader, targets, t);
      if (i % 3 == 0) {
        const auto writer = static_cast<UserId>((i + hour) % views);
        mapped.ExecuteWrite(writer, t);
        fresh.ExecuteWrite(writer, t);
      }
    }
    for (ViewId v = 0; v < views; ++v) {
      ASSERT_EQ(mapped.Maintains(v), owner(v)) << v;
    }
    fresh.SetMaintenanceOwner(owner);
    mapped.Tick(t);
    fresh.Tick(t);
    ExpectSameState(mapped, fresh);
  }
  EXPECT_GT(mapped.counters().replicas_dropped, 0u);
}

// min_replicas_pin > 1: the §3.3 in-memory durability mode.
TEST(DurabilityModeTest, MinReplicasPinnedAgainstEviction) {
  const auto topo = SmallTopo();
  EngineConfig config = AdaptiveConfig();
  config.store.min_replicas_pin = 2;
  Engine engine(topo, MakePlacement({{0, 4}, {1}}), config);
  SimTime t = 0;
  // Heavy writes would normally kill the second replica; with pin = 2 both
  // copies survive.
  for (int hour = 0; hour < 30; ++hour) {
    for (int i = 0; i < 10; ++i) engine.ExecuteWrite(0, ++t);
    engine.Tick(t);
  }
  EXPECT_EQ(engine.ReplicaCount(0), 2u);
}

// ----- Read-slice cost hook (used by the sharded runtime) -----

TEST(StaticEngineTest, ReadSliceCostCountsOneRoundTripPerTarget) {
  const auto topo = SmallTopo();
  // Views 0 and 1 both on server 0, view 2 on server 2; user 2 reads.
  Engine engine(topo, MakePlacement({{0}, {0}, {2}}), StaticConfig());
  const std::vector<ViewId> targets{0, 1};
  EXPECT_EQ(engine.ExecuteReadPartial(2, targets, 0, /*count_request=*/true),
            2u);
  EXPECT_EQ(engine.ExecuteReadPartial(2, std::vector<ViewId>{}, 0,
                                      /*count_request=*/false),
            0u);
}

TEST(StaticEngineTest, ReadSliceCostCoalescesPerServerWhenBatched) {
  const auto topo = SmallTopo();
  EngineConfig config = StaticConfig();
  config.traffic.batch_per_server = true;
  // Views 0 and 1 share server 0, view 2 lives on server 2: two distinct
  // servers contacted for three targets.
  Engine engine(topo, MakePlacement({{0}, {0}, {2}, {4}}), config);
  const std::vector<ViewId> targets{0, 1, 2};
  EXPECT_EQ(engine.ExecuteReadPartial(3, targets, 0, /*count_request=*/true),
            2u);
}

}  // namespace
}  // namespace dynasore::core
