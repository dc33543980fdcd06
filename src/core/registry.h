// Global view registry: which servers replicate each view, where each
// user's proxies live, and the deterministic closest-replica routing policy
// (paper §3.2 "Routing").
//
// In a deployment this state is distributed (write proxies own the replica
// lists, brokers hold routing tables); the registry centralizes it for the
// simulator while the engine charges the messages the distributed version
// would send (routing-table notifications to affected brokers, proxy
// synchronization).
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "net/topology.h"
#include "placement/placement.h"

namespace dynasore::core {

// One replica of a view: its server and its entry in that server's store
// (store::StoreServer::Insert), so the request path reaches the replica's
// statistics without a search.
struct ReplicaRef {
  ServerId server = kInvalidServer;
  EntryId entry = kNoEntry;
};

struct ViewInfo {
  std::vector<ReplicaRef> replicas;  // sorted by server, ascending
  BrokerId read_proxy = kInvalidBroker;
  BrokerId write_proxy = kInvalidBroker;
  // Slot index of the last structural change; adaptation for the view is
  // deferred until the next slot (DESIGN.md §4, damping).
  std::uint32_t last_change_slot = 0xFFFFFFFFu;
};

class ViewRegistry {
 public:
  ViewRegistry(const place::PlacementResult& placement,
               const net::Topology& topo);

  std::uint32_t num_views() const {
    return static_cast<std::uint32_t>(views_.size());
  }

  ViewInfo& info(ViewId v) { return views_[v]; }
  const ViewInfo& info(ViewId v) const { return views_[v]; }

  std::uint32_t ReplicaCount(ViewId v) const {
    return static_cast<std::uint32_t>(views_[v].replicas.size());
  }

  bool HasReplica(ViewId v, ServerId s) const;

  // A hint that v's entry is about to be read.
  void Prefetch(ViewId v) const { __builtin_prefetch(&views_[v]); }

  // Routing policy: the replica sharing the lowest common ancestor with the
  // broker; ties break toward the lower server id (§3.2).
  ReplicaRef ClosestReplica(BrokerId b, ViewId v,
                            const net::Topology& topo) const;

  // ClosestReplica for every broker at once (out[b] for broker b), in one
  // pass over the replica list.
  void ClosestReplicas(ViewId v, const net::Topology& topo,
                       std::vector<ServerId>& out) const;

  // Closest other replica to server `s` (the "next closest replica" each
  // replica tracks, §3.2); server kInvalidServer if `s` holds the only copy.
  ReplicaRef NextClosestReplica(ServerId s, ViewId v,
                                const net::Topology& topo) const;

  void AddReplica(ViewId v, ReplicaRef replica);
  void RemoveReplica(ViewId v, ServerId s);

  // Appends a freshly created view (AddUser), with `home` as only replica.
  ViewId AddView(ReplicaRef home, BrokerId proxy_broker);

  double AvgReplicas() const;

 private:
  std::vector<ViewInfo> views_;
};

}  // namespace dynasore::core
