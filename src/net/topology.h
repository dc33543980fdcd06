// Data-center network model (paper §2.1, Fig 1).
//
// Tree mode: a core (top) switch connects `intermediates` intermediate
// switches; each connects `racks_per_intermediate` rack switches; each rack
// holds `machines_per_rack` machines of which one is a broker and the rest
// are cache servers. Network distance between two machines is the number of
// switches on the path (same rack: 1, same intermediate: 3, otherwise 5).
//
// Flat mode (paper §4.5): all machines hang off one switch and every machine
// is simultaneously a broker and a cache server (distance 0 to itself,
// 1 otherwise).
//
// The topology also defines the *origin* coarsening of §3.2: a server tracks
// read origins per rack of its own intermediate sub-tree, and one aggregated
// origin per sibling intermediate switch (n + m - 1 origins instead of
// n * m). An `exact` mode (one origin per rack, used as an ablation) is also
// provided.
//
// Every per-request question is a table lookup: the rack of each server,
// the intermediate switch of each rack and, for the tree, the switch path
// between each pair of racks are built once, when the topology is made.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/types.h"

namespace dynasore::net {

struct TreeConfig {
  std::uint16_t intermediates = 5;
  std::uint16_t racks_per_intermediate = 5;
  std::uint16_t machines_per_rack = 10;  // 1 broker + (machines-1) servers
};

enum class Tier : std::uint8_t { kTop = 0, kIntermediate = 1, kRack = 2 };
inline constexpr int kNumTiers = 3;

// A path holds at most 5 switches (rack, intermediate, top, intermediate,
// rack).
struct SwitchPath {
  std::array<SwitchId, 5> hops{};
  int count = 0;

  std::span<const SwitchId> span() const { return {hops.data(), static_cast<std::size_t>(count)}; }
};

class Topology {
 public:
  static Topology MakeTree(const TreeConfig& config);
  static Topology MakeFlat(std::uint16_t machines);

  bool is_flat() const { return flat_; }
  std::uint16_t num_servers() const { return num_servers_; }
  std::uint16_t num_brokers() const { return num_brokers_; }
  std::uint16_t num_racks() const { return num_racks_; }
  std::uint16_t num_intermediates() const { return intermediates_; }
  std::uint16_t racks_per_intermediate() const { return racks_per_int_; }
  std::uint16_t servers_per_rack() const { return servers_per_rack_; }
  std::uint16_t num_switches() const { return num_switches_; }

  RackId rack_of_server(ServerId s) const;
  RackId rack_of_broker(BrokerId b) const;
  std::uint16_t intermediate_of_rack(RackId r) const;
  std::uint16_t intermediate_of_server(ServerId s) const;
  BrokerId broker_of_rack(RackId r) const;

  // Servers hosted by rack `r` as a contiguous id range [first, last).
  ServerId rack_server_begin(RackId r) const;
  ServerId rack_server_end(RackId r) const;

  Tier tier_of_switch(SwitchId sw) const;
  SwitchId top_switch() const { return 0; }
  SwitchId intermediate_switch(std::uint16_t i) const;
  SwitchId rack_switch(RackId r) const;

  // Network distance (number of switches traversed) between a broker and a
  // server. In flat mode broker b and server b are the same machine.
  int Distance(BrokerId b, ServerId s) const;
  int ServerDistance(ServerId a, ServerId b) const;

  SwitchPath PathBrokerServer(BrokerId b, ServerId s) const;
  SwitchPath PathBrokerBroker(BrokerId a, BrokerId b) const;
  SwitchPath PathServerServer(ServerId a, ServerId b) const;

  // ----- Origin coarsening (§3.2) -----

  // Number of distinct origins a server distinguishes.
  std::uint16_t NumOrigins(ServerId s, bool exact = false) const;

  // Origin slot, as seen by `server`, of an access whose broker sits in rack
  // `broker_rack`.
  std::uint16_t OriginIndex(ServerId server, RackId broker_rack,
                            bool exact = false) const;

  // Estimated cost (switches) of serving one read originating at `origin`
  // (as seen by `server`) from `target`. For aggregated intermediate origins
  // the rack is unknown and the cost inside that sub-tree is estimated at 3.
  int OriginCost(ServerId server, std::uint16_t origin, ServerId target,
                 bool exact = false) const;

  // True cost of one message between a broker in `rack` and server `s`.
  int RackToServerCost(RackId rack, ServerId s) const;

  // Appends all servers inside origin sub-tree `origin` (as seen by
  // `server`) to `out`.
  void ServersInOrigin(ServerId server, std::uint16_t origin,
                       std::vector<ServerId>& out, bool exact = false) const;

  // Racks covered by an origin, as [first, last) global rack ids.
  std::pair<RackId, RackId> OriginRackRange(ServerId server,
                                            std::uint16_t origin,
                                            bool exact = false) const;

 private:
  Topology() = default;

  bool flat_ = false;
  std::uint16_t intermediates_ = 0;
  std::uint16_t racks_per_int_ = 0;
  std::uint16_t servers_per_rack_ = 0;
  std::uint16_t num_racks_ = 0;
  std::uint16_t num_servers_ = 0;
  std::uint16_t num_brokers_ = 0;
  std::uint16_t num_switches_ = 0;

  // Lookup tables built by MakeTree/MakeFlat (see the file comment).
  void BuildTables();
  // The path between two machines: in a tree the path between their racks,
  // in the flat topology the one switch unless they are the same machine.
  SwitchPath RackPath(RackId a, RackId b) const;

  std::vector<RackId> rack_of_server_;              // by server
  std::vector<std::uint16_t> intermediate_of_rack_;  // by rack
  std::vector<SwitchPath> rack_paths_;  // tree only: [a * num_racks_ + b]
};

// The per-request accessors and costs are defined here so the engine's hot
// loops inline them.

inline RackId Topology::rack_of_server(ServerId s) const {
  assert(s < num_servers_);
  return rack_of_server_[s];
}

inline RackId Topology::rack_of_broker(BrokerId b) const {
  assert(b < num_brokers_);
  return b;  // one broker per rack; in flat mode machine == rack
}

inline std::uint16_t Topology::intermediate_of_rack(RackId r) const {
  assert(r < num_racks_);
  return intermediate_of_rack_[r];
}

inline std::uint16_t Topology::intermediate_of_server(ServerId s) const {
  return intermediate_of_rack(rack_of_server(s));
}

inline BrokerId Topology::broker_of_rack(RackId r) const {
  assert(r < num_racks_);
  return r;
}

// A flat topology's machine is its own rack: servers_per_rack_ is 1.
inline ServerId Topology::rack_server_begin(RackId r) const {
  return static_cast<ServerId>(r * servers_per_rack_);
}

inline ServerId Topology::rack_server_end(RackId r) const {
  return static_cast<ServerId>((r + 1) * servers_per_rack_);
}

inline int Topology::Distance(BrokerId b, ServerId s) const {
  if (flat_) return b == s ? 0 : 1;
  const RackId rb = rack_of_broker(b);
  const RackId rs = rack_of_server(s);
  if (rb == rs) return 1;
  return intermediate_of_rack(rb) == intermediate_of_rack(rs) ? 3 : 5;
}

inline int Topology::ServerDistance(ServerId a, ServerId b) const {
  if (a == b) return 0;
  if (flat_) return 1;
  const RackId ra = rack_of_server(a);
  const RackId rb = rack_of_server(b);
  if (ra == rb) return 1;
  return intermediate_of_rack(ra) == intermediate_of_rack(rb) ? 3 : 5;
}

inline SwitchPath Topology::RackPath(RackId a, RackId b) const {
  if (flat_) {
    SwitchPath path;
    if (a != b) path.hops[path.count++] = 0;
    return path;
  }
  return rack_paths_[static_cast<std::size_t>(a) * num_racks_ + b];
}

inline SwitchPath Topology::PathBrokerServer(BrokerId b, ServerId s) const {
  return RackPath(rack_of_broker(b), rack_of_server(s));
}

inline SwitchPath Topology::PathBrokerBroker(BrokerId a, BrokerId b) const {
  if (a == b) return SwitchPath{};  // same machine, no switch traversed
  return RackPath(rack_of_broker(a), rack_of_broker(b));
}

inline SwitchPath Topology::PathServerServer(ServerId a, ServerId b) const {
  if (a == b) return SwitchPath{};
  return RackPath(rack_of_server(a), rack_of_server(b));
}

inline std::uint16_t Topology::OriginIndex(ServerId server, RackId broker_rack,
                                    bool exact) const {
  if (flat_ || exact) return broker_rack;
  const std::uint16_t si = intermediate_of_server(server);
  const std::uint16_t bi = intermediate_of_rack(broker_rack);
  if (si == bi) {
    return static_cast<std::uint16_t>(broker_rack - bi * racks_per_int_);
  }
  const std::uint16_t slot = bi < si ? bi : static_cast<std::uint16_t>(bi - 1);
  return static_cast<std::uint16_t>(racks_per_int_ + slot);
}

inline int Topology::OriginCost(ServerId server, std::uint16_t origin,
                         ServerId target, bool exact) const {
  if (flat_) return origin == target ? 0 : 1;  // origin is a machine id
  if (exact) return RackToServerCost(origin, target);
  const std::uint16_t si = intermediate_of_server(server);
  if (origin < racks_per_int_) {
    const RackId rack = static_cast<RackId>(si * racks_per_int_ + origin);
    return RackToServerCost(rack, target);
  }
  // Aggregated sibling-intermediate origin: decode which intermediate.
  std::uint16_t slot = static_cast<std::uint16_t>(origin - racks_per_int_);
  const std::uint16_t oi = slot < si ? slot : static_cast<std::uint16_t>(slot + 1);
  // The exact rack inside `oi` is unknown: estimate 3 switches within that
  // sub-tree, 5 from outside it.
  return intermediate_of_server(target) == oi ? 3 : 5;
}

inline int Topology::RackToServerCost(RackId rack, ServerId s) const {
  if (flat_) return rack == s ? 0 : 1;
  const RackId rs = rack_of_server(s);
  if (rack == rs) return 1;
  return intermediate_of_rack(rack) == intermediate_of_rack(rs) ? 3 : 5;
}

inline std::pair<RackId, RackId> Topology::OriginRackRange(ServerId server,
                                                    std::uint16_t origin,
                                                    bool exact) const {
  if (flat_ || exact) {
    return {origin, static_cast<RackId>(origin + 1)};
  }
  const std::uint16_t si = intermediate_of_server(server);
  if (origin < racks_per_int_) {
    const RackId rack = static_cast<RackId>(si * racks_per_int_ + origin);
    return {rack, static_cast<RackId>(rack + 1)};
  }
  std::uint16_t slot = static_cast<std::uint16_t>(origin - racks_per_int_);
  const std::uint16_t oi = slot < si ? slot : static_cast<std::uint16_t>(slot + 1);
  const RackId first = static_cast<RackId>(oi * racks_per_int_);
  return {first, static_cast<RackId>(first + racks_per_int_)};
}

}  // namespace dynasore::net
