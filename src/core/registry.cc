#include "core/registry.h"

#include <algorithm>
#include <cassert>

namespace dynasore::core {

ViewRegistry::ViewRegistry(const place::PlacementResult& placement,
                           const net::Topology& topo) {
  views_.resize(placement.replicas.size());
  for (ViewId v = 0; v < views_.size(); ++v) {
    ViewInfo& info = views_[v];
    const std::vector<ServerId>& servers = placement.replicas[v];
    assert(std::is_sorted(servers.begin(), servers.end()));
    assert(!servers.empty());
    // Entries are filled in when the engine stores the replicas.
    info.replicas.reserve(servers.size());
    for (ServerId s : servers) info.replicas.push_back(ReplicaRef{s});
    const BrokerId broker =
        topo.broker_of_rack(topo.rack_of_server(placement.master[v]));
    info.read_proxy = broker;
    info.write_proxy = broker;
  }
}

namespace {

// First replica whose server is not below `s`.
std::vector<ReplicaRef>::const_iterator LowerBound(
    const std::vector<ReplicaRef>& replicas, ServerId s) {
  return std::lower_bound(
      replicas.begin(), replicas.end(), s,
      [](const ReplicaRef& r, ServerId id) { return r.server < id; });
}

}  // namespace

bool ViewRegistry::HasReplica(ViewId v, ServerId s) const {
  const auto& r = views_[v].replicas;
  const auto it = LowerBound(r, s);
  return it != r.end() && it->server == s;
}

// Routing by id ranges. Distances take one value per tier (tree: 1 inside
// a rack, 3 inside an intermediate sub-tree, 5 across; flat: 0 to the own
// machine, 1 to the rest), a rack's and a sub-tree's servers have
// contiguous ids, and replica lists ascend. So the closest replica, lowest
// id first among equals, is the first replica in the nearest tier's id
// range that holds one: two binary searches instead of a distance per
// replica.
namespace {

// Lowest replica in [lo, hi) other than `skip`, or server kInvalidServer.
ReplicaRef FirstIn(const std::vector<ReplicaRef>& replicas, ServerId lo,
                   ServerId hi, ServerId skip) {
  auto it = LowerBound(replicas, lo);
  if (it != replicas.end() && it->server == skip) ++it;
  return it != replicas.end() && it->server < hi ? *it : ReplicaRef{};
}

// Closest replica to a machine in `rack`, other than `skip`.
ReplicaRef ClosestFromRack(const std::vector<ReplicaRef>& replicas,
                           RackId rack, ServerId skip,
                           const net::Topology& topo) {
  ReplicaRef best = FirstIn(replicas, topo.rack_server_begin(rack),
                            topo.rack_server_end(rack), skip);
  if (best.server == kInvalidServer && !topo.is_flat()) {
    const std::uint16_t per_int = topo.racks_per_intermediate();
    const auto first =
        static_cast<RackId>(topo.intermediate_of_rack(rack) * per_int);
    best = FirstIn(replicas, topo.rack_server_begin(first),
                   topo.rack_server_end(static_cast<RackId>(first + per_int - 1)),
                   skip);
  }
  if (best.server == kInvalidServer) {
    best = FirstIn(replicas, 0, topo.num_servers(), skip);
  }
  return best;
}

}  // namespace

ReplicaRef ViewRegistry::ClosestReplica(BrokerId b, ViewId v,
                                        const net::Topology& topo) const {
  assert(!views_[v].replicas.empty());
  return ClosestFromRack(views_[v].replicas, topo.rack_of_broker(b),
                         kInvalidServer, topo);
}

void ViewRegistry::ClosestReplicas(ViewId v, const net::Topology& topo,
                                   std::vector<ServerId>& out) const {
  const auto& replicas = views_[v].replicas;
  assert(!replicas.empty());
  out.assign(topo.num_brokers(), replicas.front().server);
  if (topo.is_flat()) {
    for (const ReplicaRef& r : replicas) {
      out[topo.broker_of_rack(r.server)] = r.server;
    }
    return;
  }
  // Ascending ids meet each sub-tree's replicas as one run, and each rack's
  // as a run inside it: the first of a sub-tree's run covers its racks,
  // then the first of each rack's run takes that rack.
  const std::uint16_t per_int = topo.racks_per_intermediate();
  std::uint16_t last_int = 0xFFFF;
  RackId last_rack = 0xFFFF;
  for (const ReplicaRef& r : replicas) {
    const ServerId s = r.server;
    const RackId rack = topo.rack_of_server(s);
    const std::uint16_t i = topo.intermediate_of_rack(rack);
    if (i != last_int) {
      last_int = i;
      const auto first = static_cast<RackId>(i * per_int);
      for (RackId r = first; r < first + per_int; ++r) {
        out[topo.broker_of_rack(r)] = s;
      }
    }
    if (rack != last_rack) {
      last_rack = rack;
      out[topo.broker_of_rack(rack)] = s;
    }
  }
}

ReplicaRef ViewRegistry::NextClosestReplica(ServerId s, ViewId v,
                                            const net::Topology& topo) const {
  return ClosestFromRack(views_[v].replicas, topo.rack_of_server(s), s, topo);
}

void ViewRegistry::AddReplica(ViewId v, ReplicaRef replica) {
  auto& r = views_[v].replicas;
  const auto it = LowerBound(r, replica.server);
  assert(it == r.end() || it->server != replica.server);
  r.insert(it, replica);
}

void ViewRegistry::RemoveReplica(ViewId v, ServerId s) {
  auto& r = views_[v].replicas;
  const auto it = LowerBound(r, s);
  assert(it != r.end() && it->server == s);
  r.erase(it);
}

ViewId ViewRegistry::AddView(ReplicaRef home, BrokerId proxy_broker) {
  ViewInfo info;
  info.replicas = {home};
  info.read_proxy = proxy_broker;
  info.write_proxy = proxy_broker;
  views_.push_back(std::move(info));
  return static_cast<ViewId>(views_.size() - 1);
}

double ViewRegistry::AvgReplicas() const {
  if (views_.empty()) return 0;
  std::uint64_t total = 0;
  for (const auto& info : views_) total += info.replicas.size();
  return static_cast<double>(total) / static_cast<double>(views_.size());
}

}  // namespace dynasore::core
