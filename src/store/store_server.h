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

// Per-replica access log (§3.2): one rotating counter per origin of the
// reads (sparse; a tree server has at most racks_per_intermediate +
// intermediates - 1 origins) plus one for the writes, each a window of
// `counter_slots` slots of 16 bits that saturate.
//
// Every view read updates one of these counters, so what a read touches is
// kept apart from what only rotation needs:
// - Hot: one 8-byte word per origin, {origin, current-slot count, window
//   total}, sorted by origin. RecordRead, ReadsFrom, TotalReads and
//   ForEachOrigin read only these words, and the write counter has one too.
// - Cold: the counter_slots - 1 completed slots of every counter, one row
//   per origin (in hot-word order) and a last row for the writes. Rotation
//   alone reads them. The first rotation with a non-zero current slot
//   allocates them, so a replica whose slots never advance has none, and
//   a rotation that leaves every counter empty drops them again.
// Hot words and cold rows share one buffer: one allocation per replica.
//
// Activity bits, kept in the object's padding, record which slots may hold
// a count: one per cold ring position, set when the current slot holding
// a count becomes that position, and one for the current slot, set by
// every access. A rotation that expires only clear positions while the
// current slot is clear moves nothing into or out of any window, so it
// only advances the ring position: O(1) however many rows there are. With
// more than 31 completed slots the ring positions are not tracked and
// every rotation takes the full path.
class ReplicaStats {
 public:
  explicit ReplicaStats(std::uint8_t counter_slots)
      : counter_slots_(counter_slots == 0 ? 1 : counter_slots) {}

  void RecordRead(std::uint16_t origin, std::uint32_t n = 1);
  void RecordWrite(std::uint32_t n = 1) {
    writes_ = Added(writes_, n);
    active_ |= kCurrentActive;
  }
  // Advances every counter by `periods` slots, as that many single
  // rotations would.
  void Rotate(std::uint32_t periods = 1);

  // False only when no access or extraction touched the current slot and
  // Rotate(periods) would expire nothing: the origin set, every origin's
  // window total and the write total are then what they were when the
  // current slot began, and stay so through the rotation.
  bool WindowMoves(std::uint32_t periods) const;

  std::uint32_t ReadsFrom(std::uint16_t origin) const;
  std::uint32_t TotalReads() const;
  std::uint32_t TotalWrites() const { return TotalOf(writes_); }

  // Calls f(origin, reads-in-window) for every origin with a non-zero
  // window, in ascending origin order. A counter whose window empties is
  // erased by the rotation that empties it, so every hot word counts at
  // least one read.
  template <typename F>
  void ForEachOrigin(F&& f) const {
    for (std::size_t i = 0; i < origins_; ++i) {
      f(OriginOf(words_[i]), TotalOf(words_[i]));
    }
  }
  std::size_t NumOrigins() const { return origins_; }
  // A hint that the hot words are about to be read.
  void Prefetch() const { __builtin_prefetch(words_.data()); }

  // Adds `reads` to the `targets` origins, split evenly; the first
  // `reads % targets.size()` targets take one read more.
  void SpreadReads(std::uint32_t reads, std::span<const std::uint16_t> targets);

  // Folds another replica's statistics into this one's current slot,
  // re-mapping each origin through `remap` (origin -> the target origins it
  // spreads over; used on migration and eviction; see DESIGN.md §4).
  // `include_writes` merges the write counter too — correct for migrations
  // (the log moves wholesale) but wrong for evictions, where the surviving
  // replica already recorded every write itself.
  template <typename Remap>
  void MergeRemapped(const ReplicaStats& other, Remap&& remap,
                     bool include_writes = true) {
    for (std::size_t i = 0; i < other.origins_; ++i) {
      const std::uint64_t word = other.words_[i];
      SpreadReads(TotalOf(word), remap(OriginOf(word)));
    }
    if (include_writes) RecordWrite(other.TotalWrites());
  }

  // Removes one origin's window and returns its read count. Used when a new
  // replica takes over an origin's traffic: the read history moves with it.
  std::uint32_t ExtractOrigin(std::uint16_t origin);

 private:
  // A hot word: origin in bits 48-63, the current slot in bits 32-47, the
  // window total (current plus completed slots) in bits 0-31. Words sort by
  // origin as plain integers.
  static std::uint16_t OriginOf(std::uint64_t word) {
    return static_cast<std::uint16_t>(word >> 48);
  }
  static std::uint16_t CurrentOf(std::uint64_t word) {
    return static_cast<std::uint16_t>(word >> 32);
  }
  static std::uint32_t TotalOf(std::uint64_t word) {
    return static_cast<std::uint32_t>(word);
  }
  // `word` with `n` more accesses in its current slot, which saturates.
  static std::uint64_t Added(std::uint64_t word, std::uint32_t n) {
    const std::uint32_t room = 0xFFFFu - CurrentOf(word);
    const std::uint64_t inc = n < room ? n : room;
    return word + (inc << 32) + inc;
  }

  // Cold rows pack four 16-bit slots into each word.
  std::size_t RowWords() const { return (counter_slots_ + 2u) / 4u; }
  bool HasHistory() const { return words_.size() > origins_; }
  std::uint64_t* Row(std::size_t i) {
    return words_.data() + origins_ + i * RowWords();
  }
  std::size_t LowerBound(std::uint16_t origin) const;  // first word >= it
  void InsertOrigin(std::size_t i, std::uint16_t origin);
  void EraseOrigin(std::size_t i);
  void Reserve(std::size_t words);
  void RotateOnce();
  void Clear();

  // Activity bits: bit h for cold ring position h, and the current slot's.
  static constexpr std::uint32_t kCurrentActive = 1u << 31;
  static constexpr std::uint8_t kMaxTrackedSlots = 32;  // 31 cold + current
  // The ring positions that the next `periods` rotations expire, for
  // 0 < periods < counter_slots_ <= kMaxTrackedSlots.
  std::uint32_t ExpiringMask(std::uint32_t periods) const;

  // origins_ hot words, then, with history, origins_ + 1 cold rows.
  std::vector<std::uint64_t> words_;
  std::uint64_t writes_ = 0;  // the write counter's hot word (origin 0)
  std::uint16_t origins_ = 0;
  std::uint8_t counter_slots_;
  std::uint8_t oldest_ = 0;  // the cold slot that expires at the next rotation
  std::uint32_t active_ = 0;  // activity bits (see the class comment)
};

static_assert(sizeof(ReplicaStats) == 40,
              "the activity bits live in ReplicaStats' padding");

// The replica table is flat: view ids sorted in one contiguous array, with a
// parallel array of positions into a pool of per-replica entries. Lookups
// by view are binary searches over a few hundred ids, iteration runs in
// view-id order (the order every maintenance decision breaks ties in), and
// an insert or erase shifts only the two small arrays: entries never move
// except when the pool grows.
//
// An entry's pool position (its EntryId) is therefore a stable handle to
// the replica until the replica is erased. core::ViewRegistry keeps it next
// to the server id in each view's replica list, so the request path reaches
// a replica's statistics and payload without a search.
//
// Counters rotate lazily. AdvanceSlot starts a new statistics slot on the
// server; each replica's window catches up on its next access (Find,
// entry_stats, stats_at), with exactly the effect an eager rotation of
// every replica at every slot would have had. A slot change therefore costs
// nothing for replicas nobody reads. Catching up mutates only the lagging
// window, so the const Find does it too: like the rest of the engine, a
// server has one thread at a time.
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

  // Inserts an empty replica and returns its entry (the existing one if the
  // view is already here), or kNoEntry at capacity. `force` admits the
  // replica even on a full server: reconfiguration imports
  // (core::Engine::ImportViewState) mirror the authoritative owner's replica
  // set verbatim, and may transiently exceed capacity when the two engines'
  // occupancies diverged — the watermark sweep restores the bound.
  EntryId Insert(ViewId view, bool force = false);
  void Erase(ViewId view);

  // The statistics of `view`'s replica, caught up to the current slot, or
  // null. Valid until the next Insert on this server.
  ReplicaStats* Find(ViewId view);
  const ReplicaStats* Find(ViewId view) const;

  // By entry, for a live replica's EntryId (see the class comment).
  ReplicaStats& entry_stats(EntryId entry) { return CaughtUp(pool_[entry]); }
  ViewData* entry_data(EntryId entry) { return pool_[entry].data.get(); }
  // The view an entry holds; kInvalidView for an erased or unused entry.
  ViewId entry_view(EntryId entry) const {
    return entry < pool_.size() ? pool_[entry].view : kInvalidView;
  }

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
  // Catches position i's replica up, as stats_at does, and returns
  // ReplicaStats::WindowMoves of that catch-up: false only when the
  // replica's windows hold what they held when its last slot began.
  bool CatchUpAt(std::size_t i) {
    const Entry& entry = EntryAt(i);
    const bool moved = entry.stats.WindowMoves(slot_ - entry.slot);
    CaughtUp(entry);
    return moved;
  }
  // Hints for a walk over the table by position (core::Engine::Tick): the
  // entry of position i, then its counter buffer once the entry is cached.
  void PrefetchEntry(std::size_t i) const {
    __builtin_prefetch(&pool_[pool_pos_[i]]);
  }
  void PrefetchStats(std::size_t i) const { EntryAt(i).stats.Prefetch(); }

  // Payload mode.
  const ViewData* FindData(ViewId view) const;

 private:
  struct Entry {
    Entry(ViewId v, std::uint8_t slots, std::uint32_t server_slot)
        : stats(slots), slot(server_slot), view(v) {}
    mutable ReplicaStats stats;
    mutable std::uint32_t slot;  // the server slot `stats` is rotated to
    ViewId view;                 // kInvalidView once erased
    double utility = 0;
    std::unique_ptr<ViewData> data;  // only in payload mode
  };

  static_assert(sizeof(Entry) == 64, "one cache line per replica");
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
  std::vector<ViewId> views_;       // sorted ascending
  std::vector<EntryId> pool_pos_;   // pool_[pool_pos_[i]] is views_[i]'s
  std::vector<Entry> pool_;
  std::vector<EntryId> free_;       // pool positions of erased replicas
  std::uint32_t slot_ = 0;          // statistics slot, see AdvanceSlot
  double admission_threshold_ = 0;
};

}  // namespace dynasore::store
