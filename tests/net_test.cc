#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "net/topology.h"
#include "net/traffic.h"

namespace dynasore::net {
namespace {

TreeConfig PaperTree() { return TreeConfig{5, 5, 10}; }

// ----- Tree topology geometry -----

TEST(TreeTopologyTest, PaperClusterDimensions) {
  const Topology t = Topology::MakeTree(PaperTree());
  EXPECT_FALSE(t.is_flat());
  EXPECT_EQ(t.num_racks(), 25);
  EXPECT_EQ(t.num_brokers(), 25);
  EXPECT_EQ(t.num_servers(), 225);  // 9 cache servers per rack
  EXPECT_EQ(t.num_switches(), 1 + 5 + 25);
  EXPECT_EQ(t.servers_per_rack(), 9);
}

TEST(TreeTopologyTest, RackAndIntermediateOfServer) {
  const Topology t = Topology::MakeTree(PaperTree());
  EXPECT_EQ(t.rack_of_server(0), 0);
  EXPECT_EQ(t.rack_of_server(8), 0);
  EXPECT_EQ(t.rack_of_server(9), 1);
  EXPECT_EQ(t.rack_of_server(224), 24);
  EXPECT_EQ(t.intermediate_of_server(0), 0);
  EXPECT_EQ(t.intermediate_of_server(45), 1);  // rack 5 = first of SI 1
  EXPECT_EQ(t.intermediate_of_server(224), 4);
}

TEST(TreeTopologyTest, RackServerRangesTileAllServers) {
  const Topology t = Topology::MakeTree(PaperTree());
  std::set<ServerId> seen;
  for (RackId r = 0; r < t.num_racks(); ++r) {
    for (ServerId s = t.rack_server_begin(r); s < t.rack_server_end(r); ++s) {
      EXPECT_EQ(t.rack_of_server(s), r);
      EXPECT_TRUE(seen.insert(s).second) << "server in two racks";
    }
  }
  EXPECT_EQ(seen.size(), t.num_servers());
}

TEST(TreeTopologyTest, DistancesMatchPaper) {
  const Topology t = Topology::MakeTree(PaperTree());
  // Broker 0 sits in rack 0 (intermediate 0).
  EXPECT_EQ(t.Distance(0, 0), 1);    // same rack: 1 switch
  EXPECT_EQ(t.Distance(0, 9), 3);    // same intermediate, rack 1
  EXPECT_EQ(t.Distance(0, 45), 5);   // different intermediate
  EXPECT_EQ(t.Distance(24, 224), 1);
}

TEST(TreeTopologyTest, ServerDistanceSymmetric) {
  const Topology t = Topology::MakeTree(PaperTree());
  for (ServerId a : {0, 8, 9, 44, 45, 224}) {
    for (ServerId b : {0, 8, 9, 44, 45, 224}) {
      EXPECT_EQ(t.ServerDistance(a, b), t.ServerDistance(b, a));
    }
  }
  EXPECT_EQ(t.ServerDistance(3, 3), 0);
  EXPECT_EQ(t.ServerDistance(0, 8), 1);
  EXPECT_EQ(t.ServerDistance(0, 9), 3);
  EXPECT_EQ(t.ServerDistance(0, 45), 5);
}

TEST(TreeTopologyTest, PathLengthsEqualDistance) {
  const Topology t = Topology::MakeTree(PaperTree());
  for (BrokerId b : {0, 4, 5, 24}) {
    for (ServerId s : {0, 8, 44, 45, 100, 224}) {
      EXPECT_EQ(t.PathBrokerServer(b, s).count, t.Distance(b, s));
    }
  }
}

TEST(TreeTopologyTest, CrossClusterPathTraversesFiveSwitches) {
  // Paper: "a message between servers reaching the top switch also
  // traverses two intermediate switches and two rack switches".
  const Topology t = Topology::MakeTree(PaperTree());
  const SwitchPath path = t.PathBrokerServer(0, 224);
  ASSERT_EQ(path.count, 5);
  EXPECT_EQ(t.tier_of_switch(path.hops[0]), Tier::kRack);
  EXPECT_EQ(t.tier_of_switch(path.hops[1]), Tier::kIntermediate);
  EXPECT_EQ(t.tier_of_switch(path.hops[2]), Tier::kTop);
  EXPECT_EQ(t.tier_of_switch(path.hops[3]), Tier::kIntermediate);
  EXPECT_EQ(t.tier_of_switch(path.hops[4]), Tier::kRack);
}

TEST(TreeTopologyTest, SameRackPathIsJustTheRackSwitch) {
  const Topology t = Topology::MakeTree(PaperTree());
  const SwitchPath path = t.PathBrokerServer(3, t.rack_server_begin(3));
  ASSERT_EQ(path.count, 1);
  EXPECT_EQ(path.hops[0], t.rack_switch(3));
}

TEST(TreeTopologyTest, BrokerToSelfPathIsEmpty) {
  const Topology t = Topology::MakeTree(PaperTree());
  EXPECT_EQ(t.PathBrokerBroker(7, 7).count, 0);
  EXPECT_EQ(t.PathServerServer(13, 13).count, 0);
}

TEST(TreeTopologyTest, TierClassification) {
  const Topology t = Topology::MakeTree(PaperTree());
  EXPECT_EQ(t.tier_of_switch(t.top_switch()), Tier::kTop);
  EXPECT_EQ(t.tier_of_switch(t.intermediate_switch(0)), Tier::kIntermediate);
  EXPECT_EQ(t.tier_of_switch(t.intermediate_switch(4)), Tier::kIntermediate);
  EXPECT_EQ(t.tier_of_switch(t.rack_switch(0)), Tier::kRack);
  EXPECT_EQ(t.tier_of_switch(t.rack_switch(24)), Tier::kRack);
}

// ----- Origins (§3.2 coarsening) -----

TEST(OriginTest, PaperOriginCount) {
  // m = 5 intermediates, n = 5 racks each: n + m - 1 = 9 origins.
  const Topology t = Topology::MakeTree(PaperTree());
  EXPECT_EQ(t.NumOrigins(0), 9);
  EXPECT_EQ(t.NumOrigins(224), 9);
}

TEST(OriginTest, OwnSubtreeRacksAreIndividual) {
  const Topology t = Topology::MakeTree(PaperTree());
  // Server 0 lives in rack 0 under intermediate 0: racks 0..4 map to
  // origins 0..4.
  for (RackId r = 0; r < 5; ++r) {
    EXPECT_EQ(t.OriginIndex(0, r), r);
  }
}

TEST(OriginTest, SiblingIntermediatesAggregate) {
  const Topology t = Topology::MakeTree(PaperTree());
  // All racks under intermediate 1 (racks 5..9) collapse into one origin for
  // server 0.
  const std::uint16_t o5 = t.OriginIndex(0, 5);
  for (RackId r = 5; r < 10; ++r) EXPECT_EQ(t.OriginIndex(0, r), o5);
  // ... and a different aggregate for intermediate 2.
  EXPECT_NE(t.OriginIndex(0, 10), o5);
}

TEST(OriginTest, OriginIndexIsDense) {
  const Topology t = Topology::MakeTree(PaperTree());
  for (ServerId s : {ServerId{0}, ServerId{100}, ServerId{224}}) {
    std::set<std::uint16_t> indices;
    for (RackId r = 0; r < t.num_racks(); ++r) {
      const std::uint16_t idx = t.OriginIndex(s, r);
      EXPECT_LT(idx, t.NumOrigins(s));
      indices.insert(idx);
    }
    EXPECT_EQ(indices.size(), t.NumOrigins(s));
  }
}

TEST(OriginTest, OriginCostOfLocalRack) {
  const Topology t = Topology::MakeTree(PaperTree());
  // Server 0, origin = its own rack (origin 0): serving from server 0 costs
  // 1 switch; from a sibling rack 3; from another intermediate 5.
  EXPECT_EQ(t.OriginCost(0, 0, 0), 1);
  EXPECT_EQ(t.OriginCost(0, 0, 9), 3);
  EXPECT_EQ(t.OriginCost(0, 0, 45), 5);
}

TEST(OriginTest, AggregateOriginCostEstimates) {
  const Topology t = Topology::MakeTree(PaperTree());
  // Aggregate origin for intermediate 1 as seen from server 0.
  const std::uint16_t o = t.OriginIndex(0, 5);
  // Candidate inside intermediate 1: estimated 3 (exact rack unknown).
  EXPECT_EQ(t.OriginCost(0, o, 45), 3);
  // Candidate outside: 5.
  EXPECT_EQ(t.OriginCost(0, o, 0), 5);
  EXPECT_EQ(t.OriginCost(0, o, 224), 5);
}

TEST(OriginTest, ExactModeUsesTrueRackCosts) {
  const Topology t = Topology::MakeTree(PaperTree());
  EXPECT_EQ(t.NumOrigins(0, /*exact=*/true), t.num_racks());
  EXPECT_EQ(t.OriginIndex(0, 17, /*exact=*/true), 17);
  EXPECT_EQ(t.OriginCost(0, 17, t.rack_server_begin(17), /*exact=*/true), 1);
}

TEST(OriginTest, OriginRackRangeCoversAggregates) {
  const Topology t = Topology::MakeTree(PaperTree());
  const std::uint16_t o = t.OriginIndex(0, 7);  // intermediate 1 aggregate
  const auto [lo, hi] = t.OriginRackRange(0, o);
  EXPECT_EQ(lo, 5);
  EXPECT_EQ(hi, 10);
  std::vector<ServerId> servers;
  t.ServersInOrigin(0, o, servers);
  EXPECT_EQ(servers.size(), 5u * 9u);
}

TEST(OriginTest, RackToServerCost) {
  const Topology t = Topology::MakeTree(PaperTree());
  EXPECT_EQ(t.RackToServerCost(0, 0), 1);
  EXPECT_EQ(t.RackToServerCost(0, 9), 3);
  EXPECT_EQ(t.RackToServerCost(0, 45), 5);
}

// ----- Flat topology (§4.5) -----

TEST(FlatTopologyTest, Dimensions) {
  const Topology t = Topology::MakeFlat(250);
  EXPECT_TRUE(t.is_flat());
  EXPECT_EQ(t.num_servers(), 250);
  EXPECT_EQ(t.num_brokers(), 250);
  EXPECT_EQ(t.num_switches(), 1);
}

TEST(FlatTopologyTest, DistanceZeroOrOne) {
  const Topology t = Topology::MakeFlat(250);
  EXPECT_EQ(t.Distance(7, 7), 0);   // broker and cache on the same machine
  EXPECT_EQ(t.Distance(7, 8), 1);   // via the single switch
  EXPECT_EQ(t.PathBrokerServer(7, 7).count, 0);
  EXPECT_EQ(t.PathBrokerServer(7, 8).count, 1);
}

TEST(FlatTopologyTest, EveryMachineIsAnOrigin) {
  const Topology t = Topology::MakeFlat(250);
  EXPECT_EQ(t.NumOrigins(0), 250);
  EXPECT_EQ(t.OriginIndex(3, 99), 99);
  EXPECT_EQ(t.OriginCost(3, 99, 99), 0);
  EXPECT_EQ(t.OriginCost(3, 99, 5), 1);
}

// ----- Lookup tables against the arithmetic they replace -----

// The paper's tree, a 3x4x6 tree and a flat topology.
std::vector<Topology> TableShapes() {
  return {Topology::MakeTree(PaperTree()),
          Topology::MakeTree(TreeConfig{3, 4, 6}), Topology::MakeFlat(12)};
}

// The switches between a machine in rack `a` and one in rack `b`, built
// hop by hop from the shape (a flat topology's rack is one machine).
SwitchPath ArithmeticPath(const Topology& t, RackId a, RackId b) {
  SwitchPath path;
  if (t.is_flat()) {
    if (a != b) path.hops[path.count++] = t.top_switch();
    return path;
  }
  const auto ia = static_cast<std::uint16_t>(a / t.racks_per_intermediate());
  const auto ib = static_cast<std::uint16_t>(b / t.racks_per_intermediate());
  path.hops[path.count++] = t.rack_switch(a);
  if (a == b) return path;
  path.hops[path.count++] = t.intermediate_switch(ia);
  if (ia != ib) {
    path.hops[path.count++] = t.top_switch();
    path.hops[path.count++] = t.intermediate_switch(ib);
  }
  path.hops[path.count++] = t.rack_switch(b);
  return path;
}

std::vector<SwitchId> Hops(const SwitchPath& path) {
  const auto span = path.span();
  return {span.begin(), span.end()};
}

TEST(TopologyTableTest, LookupTablesEqualTheDivisions) {
  for (const Topology& t : TableShapes()) {
    for (ServerId s = 0; s < t.num_servers(); ++s) {
      ASSERT_EQ(t.rack_of_server(s), s / t.servers_per_rack()) << s;
    }
    for (RackId r = 0; r < t.num_racks(); ++r) {
      ASSERT_EQ(t.intermediate_of_rack(r),
                t.is_flat() ? 0 : r / t.racks_per_intermediate())
          << r;
    }
  }
}

TEST(TopologyTableTest, PathsEqualTheArithmeticPath) {
  for (const Topology& t : TableShapes()) {
    for (RackId a = 0; a < t.num_racks(); ++a) {
      for (RackId b = 0; b < t.num_racks(); ++b) {
        SCOPED_TRACE(testing::Message() << "racks " << a << ", " << b);
        const std::vector<SwitchId> want = Hops(ArithmeticPath(t, a, b));
        const BrokerId ba = t.broker_of_rack(a);
        ASSERT_EQ(Hops(t.PathBrokerBroker(ba, t.broker_of_rack(b))),
                  a == b ? std::vector<SwitchId>{} : want);
        for (ServerId sb = t.rack_server_begin(b); sb < t.rack_server_end(b);
             ++sb) {
          ASSERT_EQ(Hops(t.PathBrokerServer(ba, sb)), want);
          for (ServerId sa = t.rack_server_begin(a);
               sa < t.rack_server_end(a); ++sa) {
            ASSERT_EQ(Hops(t.PathServerServer(sa, sb)),
                      sa == sb ? std::vector<SwitchId>{} : want);
          }
        }
      }
    }
  }
}

// ----- Traffic recorder -----

// One RecordRoundTrip charges exactly what two Records of the same message
// charge: every switch total, tier total and series bucket.
TEST(TrafficTest, RoundTripEqualsTwoRecords) {
  for (const Topology& t : TableShapes()) {
    TrafficConfig config;
    config.bucket_seconds = 100;
    TrafficRecorder once(t, config);
    TrafficRecorder twice(t, config);
    SimTime time = 0;
    for (MsgClass cls : {MsgClass::kApp, MsgClass::kSystem}) {
      for (BrokerId b = 0; b < t.num_brokers(); ++b) {
        for (ServerId s = 0; s < t.num_servers(); s += 5) {
          const SwitchPath path = t.PathBrokerServer(b, s);
          const std::uint32_t size = 1 + (b + s) % 10;
          time += 37;
          once.RecordRoundTrip(path, size, cls, time);
          twice.Record(path, size, cls, time);
          twice.Record(path, size, cls, time);
        }
      }
    }
    ASSERT_EQ(once.NumBuckets(), twice.NumBuckets());
    for (MsgClass cls : {MsgClass::kApp, MsgClass::kSystem}) {
      for (SwitchId sw = 0; sw < t.num_switches(); ++sw) {
        ASSERT_EQ(once.SwitchTotal(sw, cls), twice.SwitchTotal(sw, cls));
      }
      for (Tier tier : {Tier::kTop, Tier::kIntermediate, Tier::kRack}) {
        EXPECT_EQ(once.TierTotal(tier, cls), twice.TierTotal(tier, cls));
        EXPECT_EQ(once.Series(tier, cls), twice.Series(tier, cls));
      }
    }
    EXPECT_GT(once.TierTotal(Tier::kTop, MsgClass::kSystem), 0u);
  }
}

TEST(TrafficTest, RecordsAllSwitchesOnPath) {
  const Topology t = Topology::MakeTree(PaperTree());
  TrafficRecorder traffic(t, TrafficConfig{});
  const SwitchPath path = t.PathBrokerServer(0, 224);  // 5 switches
  traffic.Record(path, 10, MsgClass::kApp, 0);
  EXPECT_EQ(traffic.TierTotal(Tier::kTop, MsgClass::kApp), 10u);
  EXPECT_EQ(traffic.TierTotal(Tier::kIntermediate, MsgClass::kApp), 20u);
  EXPECT_EQ(traffic.TierTotal(Tier::kRack, MsgClass::kApp), 20u);
}

TEST(TrafficTest, LocalTrafficNeverReachesTop) {
  const Topology t = Topology::MakeTree(PaperTree());
  TrafficRecorder traffic(t, TrafficConfig{});
  traffic.RecordRoundTrip(t.PathBrokerServer(0, 0), 10, MsgClass::kApp, 0);
  EXPECT_EQ(traffic.TierTotal(Tier::kTop, MsgClass::kApp), 0u);
  EXPECT_EQ(traffic.TierTotal(Tier::kRack, MsgClass::kApp), 20u);
}

TEST(TrafficTest, ClassesAreSeparate) {
  const Topology t = Topology::MakeTree(PaperTree());
  TrafficRecorder traffic(t, TrafficConfig{});
  traffic.Record(t.PathBrokerServer(0, 224), 10, MsgClass::kApp, 0);
  traffic.Record(t.PathBrokerServer(0, 224), 1, MsgClass::kSystem, 0);
  EXPECT_EQ(traffic.TierTotal(Tier::kTop, MsgClass::kApp), 10u);
  EXPECT_EQ(traffic.TierTotal(Tier::kTop, MsgClass::kSystem), 1u);
}

TEST(TrafficTest, SeriesBucketsByTime) {
  const Topology t = Topology::MakeTree(PaperTree());
  TrafficConfig config;
  config.bucket_seconds = 100;
  TrafficRecorder traffic(t, config);
  const SwitchPath path = t.PathBrokerServer(0, 224);
  traffic.Record(path, 10, MsgClass::kApp, 0);
  traffic.Record(path, 10, MsgClass::kApp, 99);
  traffic.Record(path, 10, MsgClass::kApp, 100);
  const auto& series = traffic.Series(Tier::kTop, MsgClass::kApp);
  ASSERT_EQ(series.size(), 2u);
  EXPECT_EQ(series[0], 20u);
  EXPECT_EQ(series[1], 10u);
  EXPECT_EQ(traffic.SeriesRange(Tier::kTop, MsgClass::kApp, 0, 2), 30u);
  EXPECT_EQ(traffic.SeriesRange(Tier::kTop, MsgClass::kApp, 1, 2), 10u);
}

TEST(TrafficTest, TierAverageDividesBySwitchCount) {
  const Topology t = Topology::MakeTree(PaperTree());
  TrafficRecorder traffic(t, TrafficConfig{});
  traffic.Record(t.PathBrokerServer(0, 224), 10, MsgClass::kApp, 0);
  EXPECT_DOUBLE_EQ(traffic.TierAverage(Tier::kTop, MsgClass::kApp), 10.0);
  EXPECT_DOUBLE_EQ(traffic.TierAverage(Tier::kIntermediate, MsgClass::kApp),
                   20.0 / 5);
  EXPECT_DOUBLE_EQ(traffic.TierAverage(Tier::kRack, MsgClass::kApp),
                   20.0 / 25);
}

TEST(TrafficTest, ResetClearsEverything) {
  const Topology t = Topology::MakeTree(PaperTree());
  TrafficRecorder traffic(t, TrafficConfig{});
  traffic.Record(t.PathBrokerServer(0, 224), 10, MsgClass::kApp, 0);
  traffic.Reset();
  EXPECT_EQ(traffic.TierTotal(Tier::kTop, MsgClass::kApp), 0u);
  EXPECT_EQ(traffic.NumBuckets(), 0u);
}

TEST(TrafficTest, FlatTopologySingleSwitchAccounting) {
  const Topology t = Topology::MakeFlat(10);
  TrafficRecorder traffic(t, TrafficConfig{});
  traffic.Record(t.PathBrokerServer(0, 1), 10, MsgClass::kApp, 0);
  traffic.Record(t.PathBrokerServer(2, 2), 10, MsgClass::kApp, 0);  // local
  EXPECT_EQ(traffic.TierTotal(Tier::kTop, MsgClass::kApp), 10u);
  EXPECT_EQ(traffic.SwitchesInTier(Tier::kTop), 1u);
  EXPECT_EQ(traffic.SwitchesInTier(Tier::kRack), 0u);
}

// Property sweep: distances and origin indices stay consistent over a range
// of tree shapes.
class TopologyShapeTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(TopologyShapeTest, OriginsAndDistancesConsistent) {
  const auto [m, n, k] = GetParam();
  const Topology t = Topology::MakeTree(
      TreeConfig{static_cast<std::uint16_t>(m), static_cast<std::uint16_t>(n),
                 static_cast<std::uint16_t>(k)});
  EXPECT_EQ(t.num_servers(), m * n * (k - 1));
  EXPECT_EQ(t.NumOrigins(0), n + m - 1);
  for (ServerId s = 0; s < t.num_servers();
       s = static_cast<ServerId>(s + std::max(1, t.num_servers() / 7))) {
    for (RackId r = 0; r < t.num_racks(); ++r) {
      const std::uint16_t origin = t.OriginIndex(s, r);
      ASSERT_LT(origin, t.NumOrigins(s));
      // Cost of serving that origin from a server inside the origin's own
      // rack range is at most the cost from anywhere else in expectation.
      const auto [lo, hi] = t.OriginRackRange(s, origin);
      ASSERT_LE(lo, r);
      ASSERT_GT(hi, r);
    }
    // Distance sanity: 1 to own rack, never more than 5.
    for (BrokerId b = 0; b < t.num_brokers(); ++b) {
      const int d = t.Distance(b, s);
      ASSERT_GE(d, 1);
      ASSERT_LE(d, 5);
      ASSERT_EQ(d, t.PathBrokerServer(b, s).count);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, TopologyShapeTest,
                         ::testing::Values(std::tuple{2, 2, 3},
                                           std::tuple{5, 5, 10},
                                           std::tuple{3, 4, 5},
                                           std::tuple{7, 2, 4},
                                           std::tuple{2, 8, 6}));

}  // namespace
}  // namespace dynasore::net
