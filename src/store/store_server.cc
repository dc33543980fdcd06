#include "store/store_server.h"

#include <algorithm>
#include <cassert>

namespace dynasore::store {

void ReplicaStats::RecordRead(std::uint16_t origin, std::uint32_t n) {
  CounterFor(origin).Add(n);
}

void ReplicaStats::RecordWrite(std::uint32_t n) { writes_.Add(n); }

void ReplicaStats::Rotate(std::uint32_t periods) {
  writes_.Rotate(periods);
  for (auto& entry : reads_) entry.counter.Rotate(periods);
  // Drop origins whose whole window emptied, keeping the scans short.
  std::erase_if(reads_,
                [](const OriginCounter& c) { return c.counter.IsZero(); });
}

std::uint32_t ReplicaStats::ReadsFrom(std::uint16_t origin) const {
  for (const auto& entry : reads_) {
    if (entry.origin == origin) return entry.counter.Total();
  }
  return 0;
}

std::uint32_t ReplicaStats::TotalReads() const {
  std::uint32_t total = 0;
  for (const auto& entry : reads_) total += entry.counter.Total();
  return total;
}

void ReplicaStats::CollectReads(std::vector<OriginReads>& out) const {
  out.clear();
  for (const auto& entry : reads_) {
    if (entry.counter.Total() > 0) {
      out.push_back(OriginReads{entry.origin, entry.counter.Total()});
    }
  }
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
    if (amount > 0) CounterFor(target).Add(amount);
  }
}

std::uint32_t ReplicaStats::ExtractOrigin(std::uint16_t origin) {
  auto it = std::lower_bound(
      reads_.begin(), reads_.end(), origin,
      [](const OriginCounter& c, std::uint16_t o) { return c.origin < o; });
  if (it == reads_.end() || it->origin != origin) return 0;
  const std::uint32_t total = it->counter.Total();
  reads_.erase(it);
  return total;
}

common::RotatingCounter& ReplicaStats::CounterFor(std::uint16_t origin) {
  auto it = std::lower_bound(
      reads_.begin(), reads_.end(), origin,
      [](const OriginCounter& c, std::uint16_t o) { return c.origin < o; });
  if (it == reads_.end() || it->origin != origin) {
    it = reads_.insert(
        it, OriginCounter{origin, common::RotatingCounter(counter_slots_)});
  }
  return it->counter;
}

StoreServer::StoreServer(ServerId id, const StoreConfig& config)
    : id_(id), config_(config) {
  assert(config.capacity_views > 0);
}

bool StoreServer::Insert(ViewId view, bool force) {
  const auto it = std::lower_bound(views_.begin(), views_.end(), view);
  if (it != views_.end() && *it == view) return true;
  if (!force && Full()) return false;
  std::uint32_t pos;
  if (free_.empty()) {
    pos = static_cast<std::uint32_t>(pool_.size());
    pool_.emplace_back(config_.counter_slots, slot_);
  } else {
    pos = free_.back();
    free_.pop_back();
    pool_[pos] = Entry(config_.counter_slots, slot_);
  }
  if (config_.payload_mode) {
    pool_[pos].data = std::make_unique<ViewData>(config_.max_events_per_view);
  }
  pool_pos_.insert(pool_pos_.begin() + (it - views_.begin()), pos);
  views_.insert(it, view);
  return true;
}

void StoreServer::Erase(ViewId view) {
  const std::size_t i = IndexOf(view);
  if (i == kAbsent) return;
  const auto at = static_cast<std::ptrdiff_t>(i);
  EntryAt(i).data.reset();
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

void StoreServer::RecordRead(ViewId view, std::uint16_t origin) {
  const std::size_t i = IndexOf(view);
  assert(i != kAbsent);
  CaughtUp(EntryAt(i)).RecordRead(origin);
}

void StoreServer::RecordWrite(ViewId view) {
  const std::size_t i = IndexOf(view);
  assert(i != kAbsent);
  CaughtUp(EntryAt(i)).RecordWrite();
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

ViewData* StoreServer::FindData(ViewId view) {
  const std::size_t i = IndexOf(view);
  return i == kAbsent ? nullptr : EntryAt(i).data.get();
}

const ViewData* StoreServer::FindData(ViewId view) const {
  const std::size_t i = IndexOf(view);
  return i == kAbsent ? nullptr : EntryAt(i).data.get();
}

}  // namespace dynasore::store
