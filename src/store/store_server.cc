#include "store/store_server.h"

#include <algorithm>
#include <cassert>

namespace dynasore::store {

void ReplicaStats::RecordRead(std::uint16_t origin, std::uint32_t n) {
  if (n == 0) return;
  const std::size_t i = LowerBound(origin);
  if (i == origins_ || OriginOf(words_[i]) != origin) InsertOrigin(i, origin);
  words_[i] = Added(words_[i], n);
  active_ |= kCurrentActive;
}

void ReplicaStats::Rotate(std::uint32_t periods) {
  if (periods == 0) return;
  if (periods >= counter_slots_) {
    Clear();  // every slot of the window expires
    return;
  }
  if (origins_ == 0 && writes_ == 0) return;  // nothing to rotate
  if (!WindowMoves(periods)) {
    // Each of the `periods` rotations would write the empty current slot
    // over an empty expiring one: only the ring position moves.
    const unsigned history = counter_slots_ - 1u;
    const unsigned next = oldest_ + periods;
    oldest_ = static_cast<std::uint8_t>(next >= history ? next - history : next);
    return;
  }
  for (; periods > 0 && (origins_ > 0 || writes_ != 0); --periods) {
    RotateOnce();
  }
}

bool ReplicaStats::WindowMoves(std::uint32_t periods) const {
  if ((active_ & kCurrentActive) != 0) return true;
  if (periods == 0 || (origins_ == 0 && writes_ == 0)) return false;
  if (periods >= counter_slots_ || counter_slots_ > kMaxTrackedSlots) {
    return true;
  }
  return (active_ & ExpiringMask(periods)) != 0;
}

std::uint32_t ReplicaStats::ExpiringMask(std::uint32_t periods) const {
  // Positions oldest_ .. oldest_ + periods - 1, wrapped around the ring.
  const unsigned history = counter_slots_ - 1u;
  const std::uint64_t run = ((std::uint64_t{1} << periods) - 1) << oldest_;
  return static_cast<std::uint32_t>((run | (run >> history)) &
                                    ((std::uint64_t{1} << history) - 1));
}

// The current slot of every counter becomes its newest completed slot and
// the oldest completed slot leaves the window. All rows share the ring
// position `oldest_`, so one rotation reads and writes one slot per row.
void ReplicaStats::RotateOnce() {
  const std::size_t history = counter_slots_ - 1u;
  if (!HasHistory()) {
    const std::size_t rows = (origins_ + 1u) * RowWords();
    Reserve(rows);
    words_.resize(words_.size() + rows, 0);
  }
  const std::size_t word = oldest_ / 4u;
  const unsigned shift = 16u * (oldest_ % 4u);
  const auto expire = [&](std::uint64_t hot, std::uint64_t* row) {
    const auto expired = static_cast<std::uint16_t>(row[word] >> shift);
    const std::uint16_t current = CurrentOf(hot);
    if (expired != current) {
      row[word] ^= static_cast<std::uint64_t>(expired ^ current) << shift;
    }
    return (static_cast<std::uint64_t>(OriginOf(hot)) << 48) |
           (TotalOf(hot) - expired);
  };
  // Backwards, so that erasing an emptied origin moves no unvisited row.
  for (std::size_t i = origins_; i-- > 0;) {
    words_[i] = expire(words_[i], Row(i));
    if (TotalOf(words_[i]) == 0) EraseOrigin(i);
  }
  writes_ = expire(writes_, Row(origins_));
  if (counter_slots_ <= kMaxTrackedSlots) {
    // The current slot became position oldest_.
    const std::uint32_t position = 1u << oldest_;
    active_ = (active_ & kCurrentActive) != 0 ? active_ | position
                                              : active_ & ~position;
  }
  active_ &= ~kCurrentActive;
  oldest_ = static_cast<std::uint8_t>(oldest_ + 1u == history ? 0
                                                             : oldest_ + 1u);
  if (origins_ == 0 && writes_ == 0) Clear();  // nothing left to keep
}

void ReplicaStats::Clear() {
  words_.clear();
  writes_ = 0;
  origins_ = 0;
  oldest_ = 0;
  active_ = 0;
}

std::uint32_t ReplicaStats::ReadsFrom(std::uint16_t origin) const {
  const std::size_t i = LowerBound(origin);
  return i != origins_ && OriginOf(words_[i]) == origin ? TotalOf(words_[i])
                                                         : 0;
}

std::uint32_t ReplicaStats::TotalReads() const {
  std::uint32_t total = 0;
  for (std::size_t i = 0; i < origins_; ++i) total += TotalOf(words_[i]);
  return total;
}

void ReplicaStats::SpreadReads(std::uint32_t reads,
                               std::span<const std::uint16_t> targets) {
  if (targets.empty()) return;
  const auto count = static_cast<std::uint32_t>(targets.size());
  const std::uint32_t share = reads / count;
  std::uint32_t remainder = reads - share * count;
  for (std::uint16_t target : targets) {
    std::uint32_t amount = share;
    if (remainder > 0) {
      ++amount;
      --remainder;
    }
    RecordRead(target, amount);
  }
}

std::uint32_t ReplicaStats::ExtractOrigin(std::uint16_t origin) {
  const std::size_t i = LowerBound(origin);
  if (i == origins_ || OriginOf(words_[i]) != origin) return 0;
  const std::uint32_t total = TotalOf(words_[i]);
  EraseOrigin(i);
  active_ |= kCurrentActive;  // conservatively: a window total changed
  return total;
}

std::size_t ReplicaStats::LowerBound(std::uint16_t origin) const {
  const auto begin = words_.begin();
  return static_cast<std::size_t>(
      std::lower_bound(begin, begin + origins_,
                       static_cast<std::uint64_t>(origin) << 48) -
      begin);
}

void ReplicaStats::InsertOrigin(std::size_t i, std::uint16_t origin) {
  const bool history = HasHistory();
  const std::size_t row_words = RowWords();
  Reserve(1 + (history ? row_words : 0));
  if (history) {
    words_.insert(words_.begin() + static_cast<std::ptrdiff_t>(
                                       origins_ + i * row_words),
                  row_words, 0);
  }
  words_.insert(words_.begin() + static_cast<std::ptrdiff_t>(i),
                static_cast<std::uint64_t>(origin) << 48);
  ++origins_;
}

void ReplicaStats::EraseOrigin(std::size_t i) {
  if (HasHistory()) {
    const auto row = words_.begin() + static_cast<std::ptrdiff_t>(
                                          origins_ + i * RowWords());
    words_.erase(row, row + static_cast<std::ptrdiff_t>(RowWords()));
  }
  words_.erase(words_.begin() + static_cast<std::ptrdiff_t>(i));
  --origins_;
}

// Makes room for `words` more words, exactly: the buffer holds a handful of
// counters, and geometric slack would cost more than the rare reallocation.
void ReplicaStats::Reserve(std::size_t words) {
  if (words_.size() + words > words_.capacity()) {
    words_.reserve(words_.size() + words);
  }
}

StoreServer::StoreServer(ServerId id, const StoreConfig& config)
    : id_(id), config_(config) {
  assert(config.capacity_views > 0);
}

EntryId StoreServer::Insert(ViewId view, bool force) {
  const auto it = std::lower_bound(views_.begin(), views_.end(), view);
  const auto at = it - views_.begin();
  if (it != views_.end() && *it == view) return pool_pos_[at];
  if (!force && Full()) return kNoEntry;
  EntryId pos;
  if (free_.empty()) {
    pos = static_cast<EntryId>(pool_.size());
    pool_.emplace_back(view, config_.counter_slots, slot_);
  } else {
    pos = free_.back();
    free_.pop_back();
    pool_[pos] = Entry(view, config_.counter_slots, slot_);
  }
  if (config_.payload_mode) {
    pool_[pos].data = std::make_unique<ViewData>(config_.max_events_per_view);
  }
  pool_pos_.insert(pool_pos_.begin() + at, pos);
  views_.insert(it, view);
  return pos;
}

void StoreServer::Erase(ViewId view) {
  const std::size_t i = IndexOf(view);
  if (i == kAbsent) return;
  const auto at = static_cast<std::ptrdiff_t>(i);
  Entry& entry = EntryAt(i);
  entry.view = kInvalidView;
  entry.stats = ReplicaStats(config_.counter_slots);
  entry.data.reset();
  free_.push_back(pool_pos_[i]);
  views_.erase(views_.begin() + at);
  pool_pos_.erase(pool_pos_.begin() + at);
}

ReplicaStats* StoreServer::Find(ViewId view) {
  const std::size_t i = IndexOf(view);
  return i == kAbsent ? nullptr : &CaughtUp(EntryAt(i));
}

const ReplicaStats* StoreServer::Find(ViewId view) const {
  const std::size_t i = IndexOf(view);
  return i == kAbsent ? nullptr : &CaughtUp(EntryAt(i));
}

double StoreServer::utility(ViewId view) const {
  const std::size_t i = IndexOf(view);
  assert(i != kAbsent);
  return EntryAt(i).utility;
}

void StoreServer::set_utility(ViewId view, double utility) {
  const std::size_t i = IndexOf(view);
  assert(i != kAbsent);
  EntryAt(i).utility = utility;
}

const ViewData* StoreServer::FindData(ViewId view) const {
  const std::size_t i = IndexOf(view);
  return i == kAbsent ? nullptr : EntryAt(i).data.get();
}

}  // namespace dynasore::store
