#include "core/utility.h"

namespace dynasore::core {

double ReadCost(const net::Topology& topo, bool exact_origins,
                std::span<const store::ReplicaStats::OriginReads> reads,
                ServerId owner, ServerId target) {
  double cost = 0;
  for (const auto& [origin, count] : reads) {
    cost += static_cast<double>(count) *
            topo.OriginCost(owner, origin, target, exact_origins);
  }
  return cost;
}

double EstimateProfit(const net::Topology& topo, bool exact_origins,
                      const store::ReplicaStats& stats, ServerId owner,
                      ServerId candidate, ServerId nearest, RackId write_rack,
                      std::vector<store::ReplicaStats::OriginReads>& scratch) {
  stats.CollectReads(scratch);
  const double write_cost =
      static_cast<double>(stats.TotalWrites()) *
      topo.RackToServerCost(write_rack, candidate);
  return ReadCost(topo, exact_origins, scratch, owner, nearest) -
         ReadCost(topo, exact_origins, scratch, owner, candidate) - write_cost;
}

}  // namespace dynasore::core
