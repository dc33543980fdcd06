// Algorithm 1 of the paper: Estimate_Profit. The utility of keeping a view
// replica on a server is the cost of rerouting its logged reads to the next
// closest replica, minus the cost of serving them here, minus the cost of
// keeping the replica updated on writes.
#pragma once

#include <cstdint>

#include "common/types.h"
#include "net/topology.h"
#include "store/store_server.h"

namespace dynasore::core {

// Cost (switches) of serving the reads logged in `stats`, whose origins are
// relative to `owner`, from `target`: one integer pass over the hot counter
// words.
std::int64_t ReadCost(const net::Topology& topo, bool exact_origins,
                      const store::ReplicaStats& stats, ServerId owner,
                      ServerId target);

// `owner` is the server whose statistics `stats` were recorded on (origin
// indices are relative to it). `candidate` is where the view is evaluated
// (equal to `owner` when scoring the replica in place). `nearest` is the
// fallback replica that would serve the logged reads otherwise; it must be a
// valid server (the caller pins sole replicas instead of scoring them).
// `write_rack` hosts the view's write proxy.
//
// One integer pass over the hot counters: every term is a count times a
// switch count, far below 2^53, so the double returned is exact.
double EstimateProfit(const net::Topology& topo, bool exact_origins,
                      const store::ReplicaStats& stats, ServerId owner,
                      ServerId candidate, ServerId nearest, RackId write_rack);

}  // namespace dynasore::core
