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
  t.BuildTables();
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
  t.BuildTables();
  return t;
}

void Topology::BuildTables() {
  rack_of_server_.resize(num_servers_);
  for (ServerId s = 0; s < num_servers_; ++s) {
    rack_of_server_[s] = static_cast<RackId>(s / servers_per_rack_);
  }
  intermediate_of_rack_.assign(num_racks_, 0);
  if (flat_) return;  // one switch: no intermediates, and no path table
  for (RackId r = 0; r < num_racks_; ++r) {
    intermediate_of_rack_[r] = static_cast<std::uint16_t>(r / racks_per_int_);
  }
  rack_paths_.resize(static_cast<std::size_t>(num_racks_) * num_racks_);
  for (RackId a = 0; a < num_racks_; ++a) {
    for (RackId b = 0; b < num_racks_; ++b) {
      SwitchPath& path = rack_paths_[static_cast<std::size_t>(a) * num_racks_ + b];
      path.hops[path.count++] = rack_switch(a);
      if (a != b) {
        const std::uint16_t ia = intermediate_of_rack_[a];
        const std::uint16_t ib = intermediate_of_rack_[b];
        path.hops[path.count++] = intermediate_switch(ia);
        if (ia != ib) {
          path.hops[path.count++] = top_switch();
          path.hops[path.count++] = intermediate_switch(ib);
        }
        path.hops[path.count++] = rack_switch(b);
      }
    }
  }
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
