// One DynaSoRe cache server (paper §3.2 "Storage management"): a bounded
// in-memory key-value store whose capacity is expressed in views, holding
// per-replica access statistics (sparse per-origin rotating read counters
// plus a write counter), per-replica utilities, and the server's admission
// threshold.
//
// The server is mechanism only; the *policy* (Algorithms 1-3, which need the
// topology and the global replica registry) lives in core::Engine, which
// recomputes utilities and thresholds after every counter rotation.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "common/rotating_counter.h"
#include "common/types.h"
#include "store/view_data.h"

namespace dynasore::store {

struct StoreConfig {
  std::uint32_t capacity_views = 1024;
  // Eviction watermark: a background sweep frees memory above this fill
  // fraction so new replicas can always be deployed (§3.2 uses 95%).
  double evict_watermark = 0.95;
  // Fill fraction that must be occupied by views above the admission
  // threshold (§3.2 uses 90%).
  double threshold_fill = 0.90;
  std::uint8_t counter_slots = 24;
  // Replicas are pinned (infinite utility, not evictable) while the view has
  // at most this many replicas system-wide. 1 = paper default; higher values
  // give the in-memory durability mode of §3.3.
  std::uint32_t min_replicas_pin = 1;
  bool payload_mode = false;
  std::size_t max_events_per_view = 64;
};

inline constexpr double kInfiniteUtility =
    std::numeric_limits<double>::infinity();

// Per-replica access log: reads per origin (sparse; a tree server has at
// most racks_per_intermediate + intermediates - 1 origins) plus writes.
class ReplicaStats {
 public:
  explicit ReplicaStats(std::uint8_t counter_slots)
      : writes_(counter_slots), counter_slots_(counter_slots) {}

  void RecordRead(std::uint16_t origin, std::uint32_t n = 1);
  void RecordWrite(std::uint32_t n = 1);
  // Advances every counter by `periods` slots, as that many single
  // rotations would.
  void Rotate(std::uint32_t periods = 1);

  std::uint32_t ReadsFrom(std::uint16_t origin) const;
  std::uint32_t TotalReads() const;
  std::uint32_t TotalWrites() const { return writes_.Total(); }

  // Sorted (origin, reads-in-window) pairs with non-zero counts.
  struct OriginReads {
    std::uint16_t origin;
    std::uint32_t reads;
  };
  void CollectReads(std::vector<OriginReads>& out) const;

  // Adds `reads` to the `targets` origins, split evenly; the first
  // `reads % targets.size()` targets take one read more.
  void SpreadReads(std::uint32_t reads, std::span<const std::uint16_t> targets);

  // Folds another replica's statistics into this one, re-mapping each origin
  // through `remap` (origin -> the target origins it spreads over; used on
  // migration and eviction; see DESIGN.md §4). `include_writes` merges the
  // write counter too — correct for migrations (the log moves wholesale) but
  // wrong for evictions, where the surviving replica already recorded every
  // write itself.
  template <typename Remap>
  void MergeRemapped(const ReplicaStats& other, Remap&& remap,
                     bool include_writes = true) {
    for (const auto& entry : other.reads_) {
      const std::uint32_t total = entry.counter.Total();
      if (total > 0) SpreadReads(total, remap(entry.origin));
    }
    if (include_writes) writes_.Merge(other.writes_);
  }

  // Removes one origin's window and returns its read count. Used when a new
  // replica takes over an origin's traffic: the read history moves with it.
  std::uint32_t ExtractOrigin(std::uint16_t origin);

 private:
  struct OriginCounter {
    std::uint16_t origin;
    common::RotatingCounter counter;
  };
  // Sorted by origin; linear scans are fine at these cardinalities.
  std::vector<OriginCounter> reads_;
  common::RotatingCounter writes_;
  std::uint8_t counter_slots_;

  common::RotatingCounter& CounterFor(std::uint16_t origin);
};

// The replica table is flat: view ids sorted in one contiguous array, with a
// parallel array of positions into a pool of per-replica entries. Lookups
// are binary searches over a few hundred ids, iteration runs in view-id
// order (the order every maintenance decision breaks ties in), and an
// insert or erase shifts only the two small arrays: entries never move
// except when the pool grows.
//
// Counters rotate lazily. AdvanceSlot starts a new statistics slot on the
// server; each replica's window catches up on its next access (Find,
// RecordRead, RecordWrite, stats_at), with exactly the effect an eager
// rotation of every replica at every slot would have had. A slot change
// therefore costs nothing for replicas nobody reads. Catching up mutates
// only the lagging window, so the const Find does it too: like the rest of
// the engine, a server has one thread at a time.
class StoreServer {
 public:
  StoreServer(ServerId id, const StoreConfig& config);

  ServerId id() const { return id_; }
  const StoreConfig& config() const { return config_; }
  std::uint32_t capacity() const { return config_.capacity_views; }
  std::uint32_t used() const { return static_cast<std::uint32_t>(views_.size()); }
  bool Full() const { return used() >= capacity(); }
  bool AboveWatermark() const {
    return static_cast<double>(used()) >
           config_.evict_watermark * capacity();
  }

  bool Has(ViewId view) const { return IndexOf(view) != kAbsent; }

  // Inserts an empty replica; fails (returns false) at capacity. `force`
  // admits the replica even on a full server: reconfiguration imports
  // (core::Engine::ImportViewState) mirror the authoritative owner's replica
  // set verbatim, and may transiently exceed capacity when the two engines'
  // occupancies diverged — the watermark sweep restores the bound.
  bool Insert(ViewId view, bool force = false);
  void Erase(ViewId view);

  // The statistics of `view`'s replica, caught up to the current slot, or
  // null. Valid until the next Insert on this server.
  ReplicaStats* Find(ViewId view);
  const ReplicaStats* Find(ViewId view) const;

  void RecordRead(ViewId view, std::uint16_t origin);
  void RecordWrite(ViewId view);

  // Starts the next statistics slot (see the class comment).
  void AdvanceSlot() { ++slot_; }

  double admission_threshold() const { return admission_threshold_; }
  void set_admission_threshold(double t) { admission_threshold_ = t; }

  double utility(ViewId view) const;
  void set_utility(ViewId view, double utility);

  // The replica table by position: views() is sorted ascending, and index
  // i of the accessors below is views()[i]. Positions shift on Insert and
  // Erase.
  std::span<const ViewId> views() const { return views_; }
  double utility_at(std::size_t i) const { return EntryAt(i).utility; }
  void set_utility_at(std::size_t i, double utility) {
    EntryAt(i).utility = utility;
  }
  ReplicaStats& stats_at(std::size_t i) { return CaughtUp(EntryAt(i)); }

  // Payload mode.
  ViewData* FindData(ViewId view);
  const ViewData* FindData(ViewId view) const;

 private:
  struct Entry {
    Entry(std::uint8_t slots, std::uint32_t server_slot)
        : stats(slots), slot(server_slot) {}
    mutable ReplicaStats stats;
    mutable std::uint32_t slot;  // the server slot `stats` is rotated to
    double utility = 0;
    std::unique_ptr<ViewData> data;  // only in payload mode
  };

  static constexpr std::size_t kAbsent = ~std::size_t{0};

  const Entry& EntryAt(std::size_t i) const { return pool_[pool_pos_[i]]; }
  Entry& EntryAt(std::size_t i) { return pool_[pool_pos_[i]]; }

  std::size_t IndexOf(ViewId view) const {
    const auto it = std::lower_bound(views_.begin(), views_.end(), view);
    return it != views_.end() && *it == view
               ? static_cast<std::size_t>(it - views_.begin())
               : kAbsent;
  }

  ReplicaStats& CaughtUp(const Entry& entry) const {
    if (entry.slot != slot_) {
      entry.stats.Rotate(slot_ - entry.slot);
      entry.slot = slot_;
    }
    return entry.stats;
  }

  ServerId id_;
  StoreConfig config_;
  std::vector<ViewId> views_;            // sorted ascending
  std::vector<std::uint32_t> pool_pos_;  // pool_[pool_pos_[i]] is views_[i]'s
  std::vector<Entry> pool_;
  std::vector<std::uint32_t> free_;      // pool positions of erased replicas
  std::uint32_t slot_ = 0;               // statistics slot, see AdvanceSlot
  double admission_threshold_ = 0;
};

}  // namespace dynasore::store
