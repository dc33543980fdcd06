#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "core/registry.h"
#include "net/topology.h"
#include "placement/placement.h"

namespace dynasore::core {
namespace {

// Small tree: 2 intermediates x 2 racks x 3 machines = 8 servers (2 per
// rack), 4 brokers. Rack of server s = s / 2.
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

std::vector<ServerId> Servers(const ViewRegistry& registry, ViewId v) {
  std::vector<ServerId> servers;
  for (const ReplicaRef& r : registry.info(v).replicas) {
    servers.push_back(r.server);
  }
  return servers;
}

TEST(ViewRegistryTest, InitialProxiesOnMasterRack) {
  const auto topo = SmallTopo();
  const ViewRegistry registry(MakePlacement({{0}, {5}}), topo);
  EXPECT_EQ(registry.info(0).read_proxy, 0);   // server 0 -> rack 0
  EXPECT_EQ(registry.info(1).read_proxy, 2);   // server 5 -> rack 2
  EXPECT_EQ(registry.info(1).write_proxy, 2);
}

TEST(ViewRegistryTest, ClosestReplicaPrefersSameRack) {
  const auto topo = SmallTopo();
  // View 0 on servers 1 (rack 0) and 6 (rack 3).
  const ViewRegistry registry(MakePlacement({{1, 6}}), topo);
  EXPECT_EQ(registry.ClosestReplica(0, 0, topo).server, 1);  // broker rack 0
  EXPECT_EQ(registry.ClosestReplica(3, 0, topo).server, 6);  // broker rack 3
}

TEST(ViewRegistryTest, ClosestReplicaPrefersSameIntermediate) {
  const auto topo = SmallTopo();
  // Replicas in rack 0 (int 0) and rack 2 (int 1); broker in rack 1 (int 0).
  const ViewRegistry registry(MakePlacement({{0, 4}}), topo);
  EXPECT_EQ(registry.ClosestReplica(1, 0, topo).server, 0);
  // Broker in rack 3 (int 1) goes to rack 2's replica.
  EXPECT_EQ(registry.ClosestReplica(3, 0, topo).server, 4);
}

TEST(ViewRegistryTest, TieBreaksOnLowerServerId) {
  const auto topo = SmallTopo();
  // Two replicas both at distance 5 from broker 3... use servers 0 and 2
  // (racks 0 and 1, both intermediate 0) and broker in rack 2 (int 1).
  const ViewRegistry registry(MakePlacement({{0, 2}}), topo);
  EXPECT_EQ(registry.ClosestReplica(2, 0, topo).server, 0);
}

TEST(ViewRegistryTest, RoutingMatchesMinimumDistanceReference) {
  // Random replica sets on a tree and a flat topology: ClosestReplica,
  // ClosestReplicas and NextClosestReplica equal a scan for the minimum
  // distance that keeps the lowest id among equals.
  const net::Topology topos[] = {
      net::Topology::MakeTree(net::TreeConfig{3, 3, 4}),
      net::Topology::MakeFlat(9)};
  std::mt19937 rng(7);
  for (const net::Topology& topo : topos) {
    std::vector<std::vector<ServerId>> sets;
    for (int i = 0; i < 200; ++i) {
      std::vector<ServerId> set;
      for (ServerId s = 0; s < topo.num_servers(); ++s) {
        if (rng() % 5 == 0) set.push_back(s);
      }
      if (set.empty()) {
        set.push_back(static_cast<ServerId>(i % topo.num_servers()));
      }
      sets.push_back(std::move(set));
    }
    const ViewRegistry registry(MakePlacement(sets), topo);
    std::vector<ServerId> all;
    for (ViewId v = 0; v < registry.num_views(); ++v) {
      const std::vector<ServerId>& replicas = sets[v];
      registry.ClosestReplicas(v, topo, all);
      ASSERT_EQ(all.size(), topo.num_brokers());
      for (BrokerId b = 0; b < topo.num_brokers(); ++b) {
        ServerId want = replicas.front();
        for (ServerId s : replicas) {
          if (topo.Distance(b, s) < topo.Distance(b, want)) want = s;
        }
        ASSERT_EQ(registry.ClosestReplica(b, v, topo).server, want)
            << "view " << v << " broker " << b << " flat " << topo.is_flat();
        ASSERT_EQ(all[b], want)
            << "view " << v << " broker " << b << " flat " << topo.is_flat();
      }
      for (ServerId s = 0; s < topo.num_servers(); ++s) {
        ServerId want = kInvalidServer;
        for (ServerId r : replicas) {
          if (r == s) continue;
          if (want == kInvalidServer ||
              topo.ServerDistance(s, r) < topo.ServerDistance(s, want)) {
            want = r;
          }
        }
        ASSERT_EQ(registry.NextClosestReplica(s, v, topo).server, want)
            << "view " << v << " server " << s << " flat " << topo.is_flat();
      }
    }
  }
}

TEST(ViewRegistryTest, NextClosestReplica) {
  const auto topo = SmallTopo();
  const ViewRegistry registry(MakePlacement({{0, 1, 4}}), topo);
  EXPECT_EQ(registry.NextClosestReplica(0, 0, topo).server, 1);  // same rack
  EXPECT_EQ(registry.NextClosestReplica(4, 0, topo).server, 0);  // lower id
}

TEST(ViewRegistryTest, NextClosestOfSoleReplicaIsInvalid) {
  const auto topo = SmallTopo();
  const ViewRegistry registry(MakePlacement({{3}}), topo);
  EXPECT_EQ(registry.NextClosestReplica(3, 0, topo).server, kInvalidServer);
}

TEST(ViewRegistryTest, AddRemoveKeepSorted) {
  const auto topo = SmallTopo();
  ViewRegistry registry(MakePlacement({{3}}), topo);
  registry.AddReplica(0, ReplicaRef{1, 10});
  registry.AddReplica(0, ReplicaRef{7, 70});
  EXPECT_EQ(Servers(registry, 0), (std::vector<ServerId>{1, 3, 7}));
  EXPECT_EQ(registry.info(0).replicas[2].entry, 70u);  // handles move along
  EXPECT_TRUE(registry.HasReplica(0, 3));
  registry.RemoveReplica(0, 3);
  EXPECT_EQ(Servers(registry, 0), (std::vector<ServerId>{1, 7}));
  EXPECT_EQ(registry.info(0).replicas[1].entry, 70u);
  EXPECT_FALSE(registry.HasReplica(0, 3));
  EXPECT_EQ(registry.ReplicaCount(0), 2u);
}

TEST(ViewRegistryTest, AvgReplicas) {
  const auto topo = SmallTopo();
  ViewRegistry registry(MakePlacement({{0}, {1, 2}, {3, 4, 5}}), topo);
  EXPECT_DOUBLE_EQ(registry.AvgReplicas(), 2.0);
}

TEST(ViewRegistryTest, AddView) {
  const auto topo = SmallTopo();
  ViewRegistry registry(MakePlacement({{0}}), topo);
  const ViewId v = registry.AddView(ReplicaRef{5, 0}, 2);
  EXPECT_EQ(v, 1u);
  EXPECT_EQ(Servers(registry, v), std::vector<ServerId>{5});
  EXPECT_EQ(registry.info(v).read_proxy, 2);
}

TEST(ViewRegistryTest, FlatTopologyRouting) {
  const auto topo = net::Topology::MakeFlat(8);
  const ViewRegistry registry(MakePlacement({{2, 5}}), topo);
  // Broker 5 is the same machine as server 5: distance 0 beats 1.
  EXPECT_EQ(registry.ClosestReplica(5, 0, topo).server, 5);
  EXPECT_EQ(registry.ClosestReplica(0, 0, topo).server, 2);  // tie at 1
}

}  // namespace
}  // namespace dynasore::core
