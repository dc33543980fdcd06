// Maps the user/view id space onto runtime shards by hash, which spreads
// hot users evenly across shards.
//
// Ownership and thread-safety: a ShardMap is an immutable value after
// construction — shard_of is const and safe to call from any thread
// concurrently. Online reconfiguration never mutates a map; the runtime
// builds a map for the new topology and swaps it in at an epoch boundary
// (the only point where workers are quiescent), so any map a worker
// observes is internally consistent. Copies are cheap (three scalar fields
// plus one shared_ptr) — the maintenance-ownership predicates capture the
// map by value for exactly this reason.
//
// Transition maps (incremental view migration): while a reconfiguration is
// migrating views in bounded batches (RuntimeConfig::migration_batch), the
// id space is dual-owned — views already handed over follow the *target*
// layout, views still awaiting hand-off stay with their old owner.
// Transition(target, live_shards, pending, migrated) builds a map encoding
// exactly that: `pending` is the window's whole migration ledger (view ->
// old owner, sorted ascending by view id) and `migrated` the hand-off
// cursor; shard_of binary-searches the unmigrated suffix and falls back to
// the target layout. A transition map is just as immutable as a pure one —
// every batch installs a *new* map sharing the same ledger with the cursor
// advanced, so the per-boundary map install is O(1) regardless of how many
// views remain, and each engine re-evaluates ownership only for the batch
// just handed over (the pause stays O(migration_batch)); the final batch
// installs the pure target map. Lookups pay one O(log pending) probe only
// while a window is open. num_shards() reports the *live* routing domain
// (max of the old and new counts — during a merge the retiring shards
// still serve their unmigrated views), target_shards() the layout being
// migrated toward.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/types.h"

namespace dynasore::rt {

class ShardMap {
 public:
  // (view id, old owning shard) for every view a migration window hands
  // over, sorted ascending by view id. Shared (immutably) between the
  // runtime's map, every per-batch successor map, and every copy the
  // maintenance predicates hold.
  using PendingLedger = std::vector<std::pair<UserId, std::uint32_t>>;

  explicit ShardMap(std::uint32_t num_shards)
      : num_shards_(num_shards == 0 ? 1 : num_shards),
        target_shards_(num_shards_) {}

  // A dual-ownership map for an in-flight incremental migration: routes
  // like `target` except for the ids in `pending` at index >= `migrated`,
  // which stay with the old shard the ledger names. `live_shards` is the
  // routing domain — every ledger owner and every target assignment must
  // be below it. A null or fully-migrated ledger degenerates to `target`
  // (with the wider domain).
  static ShardMap Transition(const ShardMap& target,
                             std::uint32_t live_shards,
                             std::shared_ptr<const PendingLedger> pending,
                             std::size_t migrated) {
    ShardMap map = target;
    map.num_shards_ = live_shards == 0 ? target.num_shards_ : live_shards;
    if (pending != nullptr && migrated < pending->size()) {
      map.pending_ = std::move(pending);
      map.migrated_ = migrated;
    }
    return map;
  }

  // Owner of user/view id `u`: always in [0, num_shards()). Deterministic
  // and stable for the lifetime of the map — shard assignment is part of
  // the runtime's deterministic contract. Every id resolves, however large.
  std::uint32_t shard_of(UserId u) const {
    if (pending_ != nullptr) {
      const auto begin =
          pending_->begin() + static_cast<std::ptrdiff_t>(migrated_);
      const auto it = std::lower_bound(
          begin, pending_->end(), u,
          [](const std::pair<UserId, std::uint32_t>& entry, UserId id) {
            return entry.first < id;
          });
      if (it != pending_->end() && it->first == u) return it->second;
    }
    return static_cast<std::uint32_t>(Mix(u) % target_shards_);
  }

  // Live routing domain: every shard_of result is below this, and during a
  // merge transition it still counts the retiring shards.
  std::uint32_t num_shards() const { return num_shards_; }
  // The layout being routed toward; equals num_shards() except while a
  // merge migration is in flight.
  std::uint32_t target_shards() const { return target_shards_; }
  // True while this map encodes a dual-ownership transition window.
  bool in_transition() const { return pending_ != nullptr; }
  // Views still awaiting hand-off (0 for a pure map).
  std::uint64_t pending_views() const {
    return pending_ == nullptr ? 0 : pending_->size() - migrated_;
  }

 private:
  // splitmix64 finalizer: cheap, well-distributed, and stable across runs
  // (shard assignment is part of the runtime's deterministic contract).
  static std::uint64_t Mix(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }

  std::uint32_t num_shards_;
  std::uint32_t target_shards_;
  std::shared_ptr<const PendingLedger> pending_;
  std::size_t migrated_ = 0;
};

}  // namespace dynasore::rt
