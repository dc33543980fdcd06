#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/utility.h"
#include "net/topology.h"
#include "store/store_server.h"

namespace dynasore::core {
namespace {

// Paper cluster: 5 intermediates x 5 racks x 10 machines, 9 servers/rack.
net::Topology PaperTopo() {
  return net::Topology::MakeTree(net::TreeConfig{5, 5, 10});
}

// Algorithm 1, worked example: a replica on server 0 (rack 0), its reads
// coming from its own rack (origin 0, cost 1). Fallback replica is remote.
TEST(EstimateProfitTest, LocalReadsVsRemoteFallback) {
  const auto topo = PaperTopo();
  store::ReplicaStats stats(24);
  // 10 reads from rack 0: origin index 0 from server 0's perspective.
  stats.RecordRead(topo.OriginIndex(0, 0), 10);
  // nearest = server 45 (intermediate 1): cost(origin 0 -> 45) = 5.
  const double profit = EstimateProfit(topo, false, stats, /*owner=*/0,
                                       /*candidate=*/0, /*nearest=*/45,
                                       /*write_rack=*/0);
  // nearestReadCost = 10*5, serverReadCost = 10*1, writes = 0.
  EXPECT_DOUBLE_EQ(profit, 50.0 - 10.0);
}

TEST(EstimateProfitTest, WriteCostSubtracts) {
  const auto topo = PaperTopo();
  store::ReplicaStats stats(24);
  stats.RecordRead(topo.OriginIndex(0, 0), 10);
  stats.RecordWrite(6);
  // Write proxy in rack 5 (intermediate 1): cost to server 0 is 5.
  const double profit =
      EstimateProfit(topo, false, stats, 0, 0, 45, /*write_rack=*/5);
  EXPECT_DOUBLE_EQ(profit, 50.0 - 10.0 - 6.0 * 5.0);
}

TEST(EstimateProfitTest, NegativeWhenWritesDominate) {
  const auto topo = PaperTopo();
  store::ReplicaStats stats(24);
  stats.RecordRead(topo.OriginIndex(0, 0), 1);
  stats.RecordWrite(20);
  const double profit =
      EstimateProfit(topo, false, stats, 0, 0, 45, /*write_rack=*/5);
  EXPECT_LT(profit, 0.0);
}

TEST(EstimateProfitTest, ZeroWhenCandidateEqualsNearestCosts) {
  const auto topo = PaperTopo();
  store::ReplicaStats stats(24);
  stats.RecordRead(topo.OriginIndex(0, 0), 7);
  // candidate == nearest: read terms cancel; only write cost remains (0).
  const double profit = EstimateProfit(topo, false, stats, 0, 45, 45, 0);
  EXPECT_DOUBLE_EQ(profit, 0.0);
}

TEST(EstimateProfitTest, EvaluatesCandidateAtDifferentServer) {
  const auto topo = PaperTopo();
  store::ReplicaStats stats(24);
  // Reads from sibling intermediate 1 (aggregate origin), 8 of them.
  stats.RecordRead(topo.OriginIndex(0, /*broker_rack=*/5), 8);
  // Candidate inside intermediate 1 (server 45): estimated origin cost 3.
  // Nearest stays at owner-side cost 5.
  const double profit =
      EstimateProfit(topo, false, stats, 0, /*candidate=*/45, /*nearest=*/0,
                     /*write_rack=*/0);
  // nearest: 8 * 5 (cost from intermediate-1 origin to server 0)
  // candidate: 8 * 3; writes 0 with cost(rack0 -> 45) irrelevant (0 writes).
  EXPECT_DOUBLE_EQ(profit, 8.0 * 5.0 - 8.0 * 3.0);
}

TEST(EstimateProfitTest, MultipleOriginsSum) {
  const auto topo = PaperTopo();
  store::ReplicaStats stats(24);
  stats.RecordRead(topo.OriginIndex(0, 0), 4);   // own rack: cost 1
  stats.RecordRead(topo.OriginIndex(0, 1), 6);   // sibling rack: cost 3
  stats.RecordRead(topo.OriginIndex(0, 10), 2);  // intermediate 2: cost 5
  const double profit =
      EstimateProfit(topo, false, stats, 0, 0, /*nearest=*/200,
                     /*write_rack=*/0);
  // server cost = 4*1 + 6*3 + 2*5 = 32.
  // nearest (server 200, intermediate 4): origin rack0 -> 5, rack1 -> 5,
  // aggregate int2 -> 5. nearest cost = (4+6+2)*5 = 60.
  EXPECT_DOUBLE_EQ(profit, 60.0 - 32.0);
}

TEST(EstimateProfitTest, ExactOriginsUseTrueRacks) {
  const auto topo = PaperTopo();
  store::ReplicaStats stats(24);
  // Exact mode: origins are global rack ids. Reads from rack 7.
  stats.RecordRead(7, 9);
  // candidate = server in rack 7 => cost 1; nearest = server 0 => cost 5.
  const ServerId in_rack7 = static_cast<ServerId>(7 * 9);
  const double profit = EstimateProfit(topo, /*exact=*/true, stats, 0,
                                       in_rack7, 0, /*write_rack=*/7);
  EXPECT_DOUBLE_EQ(profit, 9.0 * 5.0 - 9.0 * 1.0 - 0.0);
}

TEST(EstimateProfitTest, FlatTopologyLocalVsRemote) {
  const auto topo = net::Topology::MakeFlat(10);
  store::ReplicaStats stats(24);
  stats.RecordRead(/*origin=machine*/ 4, 5);
  // Candidate = machine 4 (cost 0), nearest = machine 9 (cost 1).
  const double profit =
      EstimateProfit(topo, false, stats, /*owner=*/2, /*candidate=*/4,
                     /*nearest=*/9, /*write_rack=*/0);
  EXPECT_DOUBLE_EQ(profit, 5.0 * 1.0 - 5.0 * 0.0);
}

// The pricing EstimateProfit replaced: collect the reads, then one double
// ReadCost pass for the fallback and one for the candidate.
double TwoPassProfit(const net::Topology& topo, bool exact,
                     const store::ReplicaStats& stats, ServerId owner,
                     ServerId candidate, ServerId nearest, RackId write_rack) {
  std::vector<std::pair<std::uint16_t, std::uint32_t>> reads;
  stats.ForEachOrigin([&](std::uint16_t origin, std::uint32_t count) {
    reads.emplace_back(origin, count);
  });
  const auto read_cost = [&](ServerId target) {
    double cost = 0;
    for (const auto& [origin, count] : reads) {
      cost += static_cast<double>(count) *
              topo.OriginCost(owner, origin, target, exact);
    }
    return cost;
  };
  const double write_cost = static_cast<double>(stats.TotalWrites()) *
                            topo.RackToServerCost(write_rack, candidate);
  return read_cost(nearest) - read_cost(candidate) - write_cost;
}

// Random logs, including counters saturated in every slot of the window,
// priced for random (owner, candidate, nearest, write rack) quadruples:
// the integer pass must return the two-pass result bit for bit.
void ExpectMatchesTwoPassFormula(const net::Topology& topo, bool exact,
                                 std::uint64_t seed) {
  common::Rng rng(seed);
  for (int round = 0; round < 400; ++round) {
    store::ReplicaStats stats(24);
    const auto owner =
        static_cast<ServerId>(rng.NextBounded(topo.num_servers()));
    const std::uint16_t origins = topo.NumOrigins(owner, exact);
    const bool saturate = round % 4 == 0;
    const std::uint32_t slots = saturate ? 24 : rng.NextRange(1, 6);
    for (std::uint32_t slot = 0; slot < slots; ++slot) {
      const std::uint32_t touches = rng.NextRange(0, 2u * origins + 1);
      for (std::uint32_t i = 0; i < touches; ++i) {
        const auto origin =
            static_cast<std::uint16_t>(rng.NextBounded(origins));
        stats.RecordRead(origin, saturate ? 0xFFFFu : rng.NextRange(1, 500));
      }
      stats.RecordWrite(saturate ? 0xFFFFu : rng.NextRange(0, 300));
      if (slot + 1 < slots) stats.Rotate();
    }
    for (int probe = 0; probe < 8; ++probe) {
      const auto candidate =
          static_cast<ServerId>(rng.NextBounded(topo.num_servers()));
      const auto nearest =
          static_cast<ServerId>(rng.NextBounded(topo.num_servers()));
      const auto wrack = static_cast<RackId>(rng.NextBounded(topo.num_racks()));
      const double want =
          TwoPassProfit(topo, exact, stats, owner, candidate, nearest, wrack);
      const double got =
          EstimateProfit(topo, exact, stats, owner, candidate, nearest, wrack);
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got),
                std::bit_cast<std::uint64_t>(want))
          << "round " << round << " owner " << owner << " candidate "
          << candidate << " nearest " << nearest << ": " << got << " vs "
          << want;
      // The split form TryMigrate prices candidates with.
      const std::int64_t split =
          ReadCost(topo, exact, stats, owner, nearest) -
          ReadCost(topo, exact, stats, owner, candidate) -
          static_cast<std::int64_t>(stats.TotalWrites()) *
              topo.RackToServerCost(wrack, candidate);
      ASSERT_EQ(static_cast<double>(split), want);
    }
  }
}

TEST(EstimateProfitDifferentialTest, TreeCoarsenedOrigins) {
  ExpectMatchesTwoPassFormula(PaperTopo(), /*exact=*/false, 11);
}

TEST(EstimateProfitDifferentialTest, TreeExactOrigins) {
  ExpectMatchesTwoPassFormula(PaperTopo(), /*exact=*/true, 12);
}

TEST(EstimateProfitDifferentialTest, FlatTopology) {
  ExpectMatchesTwoPassFormula(net::Topology::MakeFlat(40), /*exact=*/false,
                              13);
}

// A window saturated in all 24 slots of every origin is the largest log a
// replica can hold; its price is still exact.
TEST(EstimateProfitDifferentialTest, FullySaturatedWindowIsExact) {
  const auto topo = PaperTopo();
  store::ReplicaStats stats(24);
  for (int slot = 0; slot < 24; ++slot) {
    for (std::uint16_t origin = 0; origin < topo.NumOrigins(0); ++origin) {
      stats.RecordRead(origin, 0xFFFFu);
    }
    stats.RecordWrite(0xFFFFu);
    if (slot < 23) stats.Rotate();
  }
  EXPECT_EQ(stats.ReadsFrom(0), 24u * 0xFFFFu);
  const double got = EstimateProfit(topo, false, stats, 0, 0, 200, 24);
  EXPECT_EQ(got, TwoPassProfit(topo, false, stats, 0, 0, 200, 24));
  // Per window of 24 * 0xFFFF accesses: the nine origins save 43 - 33 = 10
  // switches against server 200, and a write from rack 24 costs 5.
  EXPECT_EQ(got, (10.0 - 5.0) * 24 * 0xFFFF);
}

}  // namespace
}  // namespace dynasore::core
