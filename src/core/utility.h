// Algorithm 1 of the paper: Estimate_Profit. The utility of keeping a view
// replica on a server is the cost of rerouting its logged reads to the next
// closest replica, minus the cost of serving them here, minus the cost of
// keeping the replica updated on writes.
#pragma once

#include <span>
#include <vector>

#include "common/types.h"
#include "net/topology.h"
#include "store/store_server.h"

namespace dynasore::core {

// Cost (switches) of serving the logged `reads`, whose origins are relative
// to `owner`, from `target`.
double ReadCost(const net::Topology& topo, bool exact_origins,
                std::span<const store::ReplicaStats::OriginReads> reads,
                ServerId owner, ServerId target);

// `owner` is the server whose statistics `stats` were recorded on (origin
// indices are relative to it). `candidate` is where the view is evaluated
// (equal to `owner` when scoring the replica in place). `nearest` is the
// fallback replica that would serve the logged reads otherwise; it must be a
// valid server (the caller pins sole replicas instead of scoring them).
// `write_rack` hosts the view's write proxy.
double EstimateProfit(const net::Topology& topo, bool exact_origins,
                      const store::ReplicaStats& stats, ServerId owner,
                      ServerId candidate, ServerId nearest, RackId write_rack,
                      std::vector<store::ReplicaStats::OriginReads>& scratch);

}  // namespace dynasore::core
