#include "core/utility.h"

namespace dynasore::core {

std::int64_t ReadCost(const net::Topology& topo, bool exact_origins,
                      const store::ReplicaStats& stats, ServerId owner,
                      ServerId target) {
  std::int64_t cost = 0;
  stats.ForEachOrigin([&](std::uint16_t origin, std::uint32_t reads) {
    cost += static_cast<std::int64_t>(reads) *
            topo.OriginCost(owner, origin, target, exact_origins);
  });
  return cost;
}

double EstimateProfit(const net::Topology& topo, bool exact_origins,
                      const store::ReplicaStats& stats, ServerId owner,
                      ServerId candidate, ServerId nearest,
                      RackId write_rack) {
  std::int64_t profit = 0;
  stats.ForEachOrigin([&](std::uint16_t origin, std::uint32_t reads) {
    profit += static_cast<std::int64_t>(reads) *
              (topo.OriginCost(owner, origin, nearest, exact_origins) -
               topo.OriginCost(owner, origin, candidate, exact_origins));
  });
  profit -= static_cast<std::int64_t>(stats.TotalWrites()) *
            topo.RackToServerCost(write_rack, candidate);
  return static_cast<double>(profit);
}

}  // namespace dynasore::core
