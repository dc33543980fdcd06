// Property-style sweeps over the adaptive engine: system-wide invariants
// that must hold for any seed, memory budget, topology shape and mechanism
// subset. These are the safety net for the churny parts of DynaSoRe
// (creation / eviction / migration racing each other).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <span>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "core/engine.h"
#include "core/utility.h"
#include "graph/generator.h"
#include "net/topology.h"
#include "placement/placement.h"
#include "sim/experiment.h"
#include "workload/synthetic.h"

namespace dynasore::core {
namespace {

// Every registry handle names the entry of that view on that server.
void ExpectHandlesName(const Engine& engine) {
  for (ViewId v = 0; v < engine.registry().num_views(); ++v) {
    for (const ReplicaRef& r : engine.registry().info(v).replicas) {
      ASSERT_EQ(engine.server(r.server).entry_view(r.entry), v)
          << "view " << v << " server " << r.server << " entry " << r.entry;
    }
  }
}

// The incremental tick's invariant, checked right after a tick: every
// maintained replica of a view that has not changed since the utility pass
// holds what a from-scratch pricing gives it now — infinite when pinned,
// otherwise EstimateProfit against the next closest replica and the write
// proxy's rack. (Views the tick's own drops changed are dirty: the next
// tick re-prices them.)
void ExpectFreshUtilities(const Engine& engine) {
  const net::Topology& topo = engine.topology();
  const EngineConfig& config = engine.config();
  for (ServerId s = 0; s < topo.num_servers(); ++s) {
    const store::StoreServer& server = engine.server(s);
    const std::span<const ViewId> views = server.views();
    for (std::size_t i = 0; i < views.size(); ++i) {
      const ViewId v = views[i];
      if (!engine.Maintains(v) || engine.Dirty(v)) continue;
      double want = store::kInfiniteUtility;
      if (engine.ReplicaCount(v) > config.store.min_replicas_pin) {
        want = EstimateProfit(
            topo, config.exact_origins, *server.Find(v), s, s,
            engine.registry().NextClosestReplica(s, v, topo).server,
            topo.rack_of_broker(engine.write_proxy(v)));
      }
      ASSERT_EQ(server.utility_at(i), want) << "server " << s << " view " << v;
    }
  }
}

struct WorkloadCase {
  net::TreeConfig tree;
  std::uint32_t num_views;
  std::uint32_t capacity;
  std::uint64_t seed;
};

// Drives a random mix of reads/writes/ticks through an engine and checks
// the invariants after every simulated hour.
void DriveAndCheck(Engine& engine, const net::Topology& topo,
                   std::uint32_t num_views, std::uint64_t seed, int hours) {
  common::Rng rng(seed);
  SimTime t = 0;
  std::vector<ViewId> targets;
  for (int hour = 0; hour < hours; ++hour) {
    for (int i = 0; i < 120; ++i) {
      t += 30;
      const auto user = static_cast<UserId>(rng.NextBounded(num_views));
      if (rng.NextBool(0.2)) {
        engine.ExecuteWrite(user, t);
        continue;
      }
      targets.clear();
      const std::uint64_t fanout = 1 + rng.NextBounded(6);
      for (std::uint64_t k = 0; k < fanout; ++k) {
        targets.push_back(static_cast<ViewId>(rng.NextBounded(num_views)));
      }
      engine.ExecuteRead(user, targets, t);
    }
    engine.Tick(t);
    ExpectFreshUtilities(engine);

    // Invariant 1: every view has at least one replica.
    for (ViewId v = 0; v < num_views; ++v) {
      ASSERT_GE(engine.ReplicaCount(v), 1u) << "view lost, hour " << hour;
    }
    // Invariant 2: no server over capacity; registry and stores agree.
    std::uint64_t store_total = 0;
    for (ServerId s = 0; s < topo.num_servers(); ++s) {
      ASSERT_LE(engine.server(s).used(), engine.server(s).capacity());
      store_total += engine.server(s).used();
    }
    std::uint64_t registry_total = 0;
    for (ViewId v = 0; v < num_views; ++v) {
      std::vector<ServerId> replicas;
      for (const ReplicaRef& r : engine.registry().info(v).replicas) {
        replicas.push_back(r.server);
      }
      ASSERT_TRUE(std::is_sorted(replicas.begin(), replicas.end()));
      ASSERT_TRUE(std::adjacent_find(replicas.begin(), replicas.end()) ==
                  replicas.end())
          << "duplicate replica entry";
      registry_total += replicas.size();
      for (ServerId s : replicas) {
        ASSERT_TRUE(engine.server(s).Has(v))
            << "registry/store mismatch at view " << v;
      }
    }
    ASSERT_EQ(store_total, registry_total);
    ExpectHandlesName(engine);
    // Invariant 3: proxies are valid brokers.
    for (ViewId v = 0; v < num_views; ++v) {
      ASSERT_LT(engine.read_proxy(v), topo.num_brokers());
      ASSERT_LT(engine.write_proxy(v), topo.num_brokers());
    }
  }
}

class EngineInvariantTest
    : public ::testing::TestWithParam<std::tuple<int, double, bool>> {};

TEST_P(EngineInvariantTest, HoldUnderChurn) {
  const auto [seed, extra, exact_origins] = GetParam();
  const net::TreeConfig tree{3, 3, 4};
  const auto topo = net::Topology::MakeTree(tree);
  const std::uint32_t num_views = 200;
  const auto capacity = static_cast<std::uint32_t>(
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(
                                     (1.0 + extra) * num_views /
                                     topo.num_servers()) +
                                     1));
  const auto placement = place::RandomPlacement(
      num_views, topo, capacity, static_cast<std::uint64_t>(seed));
  EngineConfig config;
  config.store.capacity_views = capacity;
  config.exact_origins = exact_origins;
  Engine engine(topo, placement, config);
  DriveAndCheck(engine, topo, num_views, static_cast<std::uint64_t>(seed) + 7,
                /*hours=*/8);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EngineInvariantTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4),
                       ::testing::Values(0.3, 1.0, 2.0),
                       ::testing::Bool()));

class FlatEngineInvariantTest : public ::testing::TestWithParam<int> {};

TEST_P(FlatEngineInvariantTest, HoldOnFlatTopology) {
  const auto topo = net::Topology::MakeFlat(20);
  const std::uint32_t num_views = 150;
  const std::uint32_t capacity = 12;
  const auto placement = place::RandomPlacement(
      num_views, topo, capacity, static_cast<std::uint64_t>(GetParam()));
  EngineConfig config;
  config.store.capacity_views = capacity;
  Engine engine(topo, placement, config);
  DriveAndCheck(engine, topo, num_views,
                static_cast<std::uint64_t>(GetParam()) + 11, /*hours=*/6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlatEngineInvariantTest,
                         ::testing::Values(10, 20, 30));

class MechanismSubsetTest
    : public ::testing::TestWithParam<std::tuple<bool, bool, bool>> {};

TEST_P(MechanismSubsetTest, AnySubsetIsSafe) {
  const auto [replication, migration, proxy_migration] = GetParam();
  const auto topo = net::Topology::MakeTree(net::TreeConfig{2, 2, 4});
  const std::uint32_t num_views = 120;
  const std::uint32_t capacity = 16;
  const auto placement = place::RandomPlacement(num_views, topo, capacity, 3);
  EngineConfig config;
  config.store.capacity_views = capacity;
  config.enable_replication = replication;
  config.enable_migration = migration;
  config.enable_proxy_migration = proxy_migration;
  Engine engine(topo, placement, config);
  DriveAndCheck(engine, topo, num_views, 13, /*hours=*/6);
  if (!replication && !migration) {
    EXPECT_EQ(engine.counters().replicas_created, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Subsets, MechanismSubsetTest,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Bool(),
                                            ::testing::Bool()));

// Crash storms: repeatedly crash random servers mid-workload; nothing may
// ever be lost and the cluster must keep absorbing requests.
class CrashStormTest : public ::testing::TestWithParam<int> {};

TEST_P(CrashStormTest, NoViewEverLost) {
  const auto topo = net::Topology::MakeTree(net::TreeConfig{2, 3, 4});
  const std::uint32_t num_views = 150;
  const std::uint32_t capacity = 16;
  const auto placement = place::RandomPlacement(
      num_views, topo, capacity, static_cast<std::uint64_t>(GetParam()));
  EngineConfig config;
  config.store.capacity_views = capacity;
  Engine engine(topo, placement, config);

  common::Rng rng(static_cast<std::uint64_t>(GetParam()) + 101);
  SimTime t = 0;
  std::vector<ViewId> targets;
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 80; ++i) {
      t += 40;
      targets.assign(1, static_cast<ViewId>(rng.NextBounded(num_views)));
      engine.ExecuteRead(static_cast<UserId>(rng.NextBounded(num_views)),
                         targets, t);
      if (i % 5 == 0) {
        engine.ExecuteWrite(static_cast<UserId>(rng.NextBounded(num_views)),
                            t);
      }
    }
    const auto victim =
        static_cast<ServerId>(rng.NextBounded(topo.num_servers()));
    engine.CrashServer(victim, t);
    EXPECT_EQ(engine.server(victim).used(), 0u);
    for (ViewId v = 0; v < num_views; ++v) {
      ASSERT_GE(engine.ReplicaCount(v), 1u)
          << "view " << v << " lost after crashing server " << victim;
      for (const ReplicaRef& r : engine.registry().info(v).replicas) {
        ASSERT_TRUE(engine.server(r.server).Has(v));
      }
    }
    ExpectHandlesName(engine);
    engine.Tick(t);
    ExpectFreshUtilities(engine);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrashStormTest, ::testing::Values(1, 2, 3));

// Determinism: identical configuration and request sequence must produce
// bit-identical traffic and replica layouts.
TEST(EngineDeterminismTest, IdenticalRunsMatchExactly) {
  const auto topo = net::Topology::MakeTree(net::TreeConfig{2, 2, 4});
  const std::uint32_t num_views = 100;
  const auto placement = place::RandomPlacement(num_views, topo, 20, 9);
  EngineConfig config;
  config.store.capacity_views = 20;

  auto run = [&]() {
    Engine engine(topo, placement, config);
    common::Rng rng(55);
    SimTime t = 0;
    std::vector<ViewId> targets;
    for (int i = 0; i < 2000; ++i) {
      t += 25;
      if (i % 500 == 499) engine.Tick(t);
      targets.assign(1, static_cast<ViewId>(rng.NextBounded(num_views)));
      engine.ExecuteRead(static_cast<UserId>(rng.NextBounded(num_views)),
                         targets, t);
    }
    return std::pair{engine.traffic().TierTotal(net::Tier::kTop,
                                                net::MsgClass::kApp),
                     engine.counters().replicas_created};
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

// The batching ablation must not change *which* replicas serve reads, only
// how many messages carry them.
TEST(BatchingTest, SameViewReadsFewerMessages) {
  const auto topo = net::Topology::MakeTree(net::TreeConfig{2, 2, 4});
  const std::uint32_t num_views = 60;
  const auto placement = place::RandomPlacement(num_views, topo, 40, 2);

  auto run = [&](bool batch) {
    EngineConfig config;
    config.store.capacity_views = 40;
    config.adaptive = false;
    config.traffic.batch_per_server = batch;
    Engine engine(topo, placement, config);
    std::vector<ViewId> targets;
    for (ViewId v = 0; v < num_views; ++v) targets.push_back(v);
    engine.ExecuteRead(0, targets, 10);
    return std::pair{engine.counters().view_reads,
                     engine.traffic().TierTotal(net::Tier::kRack,
                                                net::MsgClass::kApp)};
  };
  const auto per_view = run(false);
  const auto batched = run(true);
  EXPECT_EQ(per_view.first, batched.first);   // same views fetched
  EXPECT_GT(per_view.second, batched.second);  // more bytes on the wire
}

// The replica handles in the registry follow every structural change:
// replication, migration, drops, a crash, a state hand-off between engines
// and a new user.
TEST(ReplicaHandleTest, FollowEveryReplicaSetChange) {
  const auto topo = net::Topology::MakeTree(net::TreeConfig{2, 3, 4});
  const std::uint32_t num_views = 150;
  const std::uint32_t capacity = 20;
  const auto placement = place::RandomPlacement(num_views, topo, capacity, 5);
  EngineConfig config;
  config.store.capacity_views = capacity;
  Engine engine(topo, placement, config);
  Engine peer(topo, placement, config);

  DriveAndCheck(engine, topo, num_views, 21, /*hours=*/6);
  DriveAndCheck(peer, topo, num_views, 22, /*hours=*/6);
  ASSERT_GT(engine.counters().replicas_created, 0u);
  ASSERT_GT(engine.counters().migrations, 0u);
  ASSERT_GT(engine.counters().replicas_dropped, 0u);
  ExpectHandlesName(engine);

  engine.CrashServer(3, 100000);
  ExpectHandlesName(engine);

  // The peer's state of every third view replaces the engine's.
  std::vector<ViewId> moved;
  for (ViewId v = 0; v < num_views; v += 3) moved.push_back(v);
  engine.ImportViewStates(peer.ExportViewStates(moved));
  ExpectHandlesName(engine);
  for (ViewId v : moved) {
    ASSERT_EQ(engine.ReplicaCount(v), peer.ReplicaCount(v));
  }

  const ViewId added = engine.AddUser();
  ExpectHandlesName(engine);
  const std::vector<ViewId> targets{added, 0, 1};
  engine.ExecuteRead(0, targets, 100100);
  engine.ExecuteWrite(added, 100100);
  ExpectHandlesName(engine);
}

// Durability mode (min_replicas_pin = R) must maintain R copies wherever
// memory allows, across churn.
class DurabilitySweepTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(DurabilitySweepTest, PinnedCopiesSurviveChurn) {
  const std::uint32_t pin = GetParam();
  const auto topo = net::Topology::MakeTree(net::TreeConfig{2, 2, 4});
  const std::uint32_t num_views = 40;
  place::PlacementResult placement;
  // Start every view with `pin` replicas on distinct servers.
  for (ViewId v = 0; v < num_views; ++v) {
    std::vector<ServerId> replicas;
    for (std::uint32_t r = 0; r < pin; ++r) {
      replicas.push_back(
          static_cast<ServerId>((v + r * 3) % topo.num_servers()));
    }
    std::sort(replicas.begin(), replicas.end());
    replicas.erase(std::unique(replicas.begin(), replicas.end()),
                   replicas.end());
    placement.replicas.push_back(replicas);
    placement.master.push_back(replicas.front());
  }
  EngineConfig config;
  config.store.capacity_views = 30;
  config.store.min_replicas_pin = pin;
  Engine engine(topo, placement, config);

  common::Rng rng(17);
  SimTime t = 0;
  std::vector<ViewId> targets;
  for (int hour = 0; hour < 6; ++hour) {
    for (int i = 0; i < 100; ++i) {
      t += 36;
      engine.ExecuteWrite(static_cast<UserId>(rng.NextBounded(num_views)), t);
      targets.assign(1, static_cast<ViewId>(rng.NextBounded(num_views)));
      engine.ExecuteRead(static_cast<UserId>(rng.NextBounded(num_views)),
                         targets, t);
    }
    engine.Tick(t);
    ExpectFreshUtilities(engine);
    for (ViewId v = 0; v < num_views; ++v) {
      // Views that started with `pin` copies never drop below it.
      ASSERT_GE(engine.ReplicaCount(v),
                std::min<std::uint32_t>(
                    pin, static_cast<std::uint32_t>(
                             placement.replicas[v].size())));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(PinLevels, DurabilitySweepTest,
                         ::testing::Values(1u, 2u, 3u));

// The incremental tick against every event that changes what a utility
// reads, at several window lengths (1 slot: every tick expires the whole
// window; 40: past what the activity bits track). Two engines split the
// views as two shards would and hand ownership over the ways the sharded
// runtime does: a migration window (the opening install re-evaluates
// nothing, a step imports a batch and re-evaluates it, the closing install
// re-evaluates every view), a rebuild from a non-owner's frozen copies, and
// owner changes with no import, through either install. Crashes, new users
// and proxy migrations ride along, and the last hours are nearly idle, so
// most replicas keep their utilities. After every tick the utilities must
// be fresh, and must equal those of twins that re-price every replica at
// every tick (a full install marks every view dirty).
class IncrementalTickTest : public ::testing::TestWithParam<std::uint8_t> {};

TEST_P(IncrementalTickTest, UtilitiesMatchFromScratchPricing) {
  const auto topo = net::Topology::MakeTree(net::TreeConfig{2, 3, 4});
  const std::uint32_t capacity = 16;
  ViewId num_views = 150;
  const auto placement = place::RandomPlacement(num_views, topo, capacity, 4);
  EngineConfig config;
  config.store.capacity_views = capacity;
  config.store.counter_slots = GetParam();

  // Engine 0 maintains the even views and engine 1 the odd ones, until the
  // hand-overs below change `owner`.
  std::vector<std::uint8_t> owner;
  for (ViewId v = 0; v < num_views; ++v) owner.push_back(v % 2);
  const std::function<bool(ViewId)> owned[2] = {
      [&owner](ViewId v) { return owner[v] == 0; },
      [&owner](ViewId v) { return owner[v] == 1; }};
  const auto views_in = [](ViewId first, ViewId last, ViewId parity) {
    std::vector<ViewId> out;
    for (ViewId v = first; v < last; ++v) {
      if (v % 2 == parity) out.push_back(v);
    }
    return out;
  };

  Engine engines[2] = {Engine(topo, placement, config),
                       Engine(topo, placement, config)};
  Engine twins[2] = {Engine(topo, placement, config),
                     Engine(topo, placement, config)};
  engines[0].SetMaintenanceOwner(owned[0]);
  engines[1].SetMaintenanceOwner(owned[1]);
  const auto both = [&](auto&& f) {
    for (Engine& e : engines) f(e);
    for (Engine& e : twins) f(e);
  };
  // Moves `views` to engine `to`, importing its state from the other
  // engine when `import` is set, and reinstalling through the `changed`
  // overload or, with `full`, a full install.
  const auto hand_over = [&](const std::vector<ViewId>& views, int to,
                             bool import, bool full) {
    for (ViewId v : views) owner[v] = static_cast<std::uint8_t>(to);
    if (import) {
      for (Engine* pair : {engines, twins}) {
        pair[to].ImportViewStates(pair[1 - to].ExportViewStates(views));
      }
    }
    for (int e = 0; e < 2; ++e) {
      if (full) {
        engines[e].SetMaintenanceOwner(owned[e]);
      } else {
        engines[e].SetMaintenanceOwner(owned[e], views);
      }
    }
  };

  common::Rng rng(GetParam() + 71u);
  SimTime t = 0;
  std::vector<ViewId> targets;
  for (int hour = 0; hour < 15; ++hour) {
    SCOPED_TRACE(testing::Message() << "hour " << hour);
    const int crashes = hour == 10 || hour == 12   ? 3
                        : hour == 2 || hour == 9 ? 1
                                                 : 0;
    for (int c = 0; c < crashes; ++c) {
      const auto victim =
          static_cast<ServerId>(rng.NextBounded(topo.num_servers()));
      both([&](Engine& e) { e.CrashServer(victim, t); });
    }
    if (hour == 3 || hour == 7) {
      owner.push_back(num_views % 2);  // AddUser asks the predicate
      both([&](Engine& e) { ASSERT_EQ(e.AddUser(), num_views); });
      ++num_views;
    }
    switch (hour) {
      case 4:  // a migration window opens: no view has moved yet
        engines[0].SetMaintenanceOwner(owned[0], {});
        engines[1].SetMaintenanceOwner(owned[1], {});
        break;
      case 5:  // its one step
        hand_over(views_in(0, 20, 1), 0, /*import=*/true, /*full=*/false);
        break;
      case 6:  // its last step, which closes it
        hand_over(views_in(20, 40, 1), 0, /*import=*/true, /*full=*/true);
        break;
      case 8:  // a rebuild: engine 1 reloads its views from frozen copies
        for (Engine* pair : {engines, twins}) {
          pair[1].ImportViewStates(
              pair[0].ExportViewStates(views_in(41, 60, 1)));
        }
        break;
      // Owner changes over copies the new owner already holds, and back
      // after crashes moved replica sets that the bits did not see.
      case 10:
      case 11:
        hand_over(views_in(61, 100, 1), hour - 10, /*import=*/false,
                  /*full=*/false);
        break;
      case 12:
      case 13:
        hand_over(views_in(101, 140, 1), hour - 12, /*import=*/false,
                  /*full=*/true);
        break;
      default:
        break;
    }
    const int ops = hour < 10 ? 150 : 10;
    for (int i = 0; i < ops; ++i) {
      t += 24;
      const auto user = static_cast<UserId>(rng.NextBounded(num_views));
      if (rng.NextBool(0.25)) {
        both([&](Engine& e) { e.ExecuteWrite(user, t); });
        continue;
      }
      targets.clear();
      for (std::uint64_t k = 1 + rng.NextBounded(4); k > 0; --k) {
        targets.push_back(static_cast<ViewId>(rng.NextBounded(num_views)));
      }
      both([&](Engine& e) { e.ExecuteRead(user, targets, t); });
    }
    t = (hour + 1) * kSecondsPerHour;
    for (int e = 0; e < 2; ++e) {
      twins[e].SetMaintenanceOwner(owned[e]);
      engines[e].Tick(t);
      twins[e].Tick(t);
      ExpectFreshUtilities(engines[e]);
      for (ServerId s = 0; s < topo.num_servers(); ++s) {
        const store::StoreServer& got = engines[e].server(s);
        const store::StoreServer& want = twins[e].server(s);
        ASSERT_TRUE(std::ranges::equal(got.views(), want.views()));
        for (std::size_t i = 0; i < got.views().size(); ++i) {
          ASSERT_EQ(got.utility_at(i), want.utility_at(i))
              << "engine " << e << " server " << s << " view "
              << got.views()[i];
        }
        ASSERT_EQ(got.admission_threshold(), want.admission_threshold());
      }
    }
  }
  for (int e = 0; e < 2; ++e) {
    EXPECT_GT(engines[e].counters().write_proxy_migrations, 0u);
    EXPECT_GT(engines[e].counters().replicas_dropped, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(CounterSlots, IncrementalTickTest,
                         ::testing::Values(1, 2, 5, 24, 40));

}  // namespace
}  // namespace dynasore::core
