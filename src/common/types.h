// Core identifier and request types shared by every DynaSoRe module.
#pragma once

#include <cstdint>
#include <limits>

namespace dynasore {

// Users and views are 1:1 (producer-pivoted views, one per user), so the two
// id spaces coincide; the aliases keep call sites self-describing.
using UserId = std::uint32_t;
using ViewId = std::uint32_t;

using ServerId = std::uint16_t;   // cache server index within the cluster
using BrokerId = std::uint16_t;   // broker index within the cluster
using SwitchId = std::uint16_t;   // switch index within the topology
using RackId = std::uint16_t;     // rack index within the topology

// Simulated wall-clock time in seconds since the start of the run.
using SimTime = std::uint64_t;

inline constexpr ServerId kInvalidServer =
    std::numeric_limits<ServerId>::max();
inline constexpr BrokerId kInvalidBroker =
    std::numeric_limits<BrokerId>::max();
inline constexpr ViewId kInvalidView = std::numeric_limits<ViewId>::max();

// A replica's position in its server's entry pool (store::StoreServer): a
// handle that stays valid until that replica is erased.
using EntryId = std::uint32_t;
inline constexpr EntryId kNoEntry = std::numeric_limits<EntryId>::max();

inline constexpr SimTime kSecondsPerHour = 3600;
inline constexpr SimTime kSecondsPerDay = 86400;

enum class OpType : std::uint8_t { kRead, kWrite };

// One entry of a request log: at `time`, `user` issues a read (of all her
// connections' views) or a write (to her own view).
struct Request {
  SimTime time = 0;
  UserId user = 0;
  OpType op = OpType::kRead;
};

}  // namespace dynasore
