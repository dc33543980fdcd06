#include "net/topology.h"

#include <cassert>

namespace dynasore::net {

Topology Topology::MakeTree(const TreeConfig& config) {
  assert(config.intermediates >= 1);
  assert(config.racks_per_intermediate >= 1);
  assert(config.machines_per_rack >= 2);
  Topology t;
  t.flat_ = false;
  t.intermediates_ = config.intermediates;
  t.racks_per_int_ = config.racks_per_intermediate;
  t.servers_per_rack_ = static_cast<std::uint16_t>(config.machines_per_rack - 1);
  t.num_racks_ = static_cast<std::uint16_t>(config.intermediates *
                                            config.racks_per_intermediate);
  t.num_servers_ = static_cast<std::uint16_t>(t.num_racks_ * t.servers_per_rack_);
  t.num_brokers_ = t.num_racks_;
  t.num_switches_ = static_cast<std::uint16_t>(1 + t.intermediates_ + t.num_racks_);
  return t;
}

Topology Topology::MakeFlat(std::uint16_t machines) {
  assert(machines >= 2);
  Topology t;
  t.flat_ = true;
  t.intermediates_ = 0;
  t.racks_per_int_ = 0;
  t.servers_per_rack_ = 1;  // each machine is its own "rack"
  t.num_racks_ = machines;
  t.num_servers_ = machines;
  t.num_brokers_ = machines;
  t.num_switches_ = 1;
  return t;
}

Tier Topology::tier_of_switch(SwitchId sw) const {
  assert(sw < num_switches_);
  if (sw == 0) return Tier::kTop;
  return sw <= intermediates_ ? Tier::kIntermediate : Tier::kRack;
}

SwitchId Topology::intermediate_switch(std::uint16_t i) const {
  assert(!flat_ && i < intermediates_);
  return static_cast<SwitchId>(1 + i);
}

SwitchId Topology::rack_switch(RackId r) const {
  assert(!flat_ && r < num_racks_);
  return static_cast<SwitchId>(1 + intermediates_ + r);
}

namespace {
// Builds the path between two racks of a tree topology.
SwitchPath TreeRackPath(const Topology& t, RackId ra, RackId rb) {
  SwitchPath path;
  if (ra == rb) {
    path.hops[path.count++] = t.rack_switch(ra);
    return path;
  }
  const std::uint16_t ia = t.intermediate_of_rack(ra);
  const std::uint16_t ib = t.intermediate_of_rack(rb);
  path.hops[path.count++] = t.rack_switch(ra);
  path.hops[path.count++] = t.intermediate_switch(ia);
  if (ia != ib) {
    path.hops[path.count++] = t.top_switch();
    path.hops[path.count++] = t.intermediate_switch(ib);
  }
  path.hops[path.count++] = t.rack_switch(rb);
  return path;
}
}  // namespace

SwitchPath Topology::PathBrokerServer(BrokerId b, ServerId s) const {
  if (flat_) {
    SwitchPath path;
    if (b != s) path.hops[path.count++] = 0;
    return path;
  }
  return TreeRackPath(*this, rack_of_broker(b), rack_of_server(s));
}

SwitchPath Topology::PathBrokerBroker(BrokerId a, BrokerId b) const {
  if (flat_) {
    SwitchPath path;
    if (a != b) path.hops[path.count++] = 0;
    return path;
  }
  if (a == b) return SwitchPath{};  // same machine, no switch traversed
  return TreeRackPath(*this, rack_of_broker(a), rack_of_broker(b));
}

SwitchPath Topology::PathServerServer(ServerId a, ServerId b) const {
  if (flat_) {
    SwitchPath path;
    if (a != b) path.hops[path.count++] = 0;
    return path;
  }
  if (a == b) return SwitchPath{};
  return TreeRackPath(*this, rack_of_server(a), rack_of_server(b));
}

std::uint16_t Topology::NumOrigins(ServerId /*s*/, bool exact) const {
  if (flat_) return num_racks_;  // one origin per machine
  if (exact) return num_racks_;
  return static_cast<std::uint16_t>(racks_per_int_ + intermediates_ - 1);
}

void Topology::ServersInOrigin(ServerId server, std::uint16_t origin,
                               std::vector<ServerId>& out, bool exact) const {
  const auto [lo, hi] = OriginRackRange(server, origin, exact);
  for (RackId r = lo; r < hi; ++r) {
    for (ServerId s = rack_server_begin(r); s < rack_server_end(r); ++s) {
      out.push_back(s);
    }
  }
}

}  // namespace dynasore::net
