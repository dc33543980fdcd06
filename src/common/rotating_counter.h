// Rotating (sliding-window) access counter, §3.2 of the paper: "We use
// rotating counters to record the number of accesses to views. Each counter
// is associated to a time period, and servers start updating the following
// counter at the end of the period." The default configuration matches the
// evaluation setup: 24 slots shifted every hour.
//
// Thread-safety: single-writer. The counter is deliberately unsynchronized
// — in the sharded runtime every RotatingCounter lives inside one shard's
// engine, whose worker thread is its only reader and writer (cross-shard
// effects arrive through mailboxes already serialized onto that thread).
// Do not share an instance across threads without external synchronization.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace dynasore::common {

class RotatingCounter {
 public:
  static constexpr int kMaxSlots = 24;

  explicit RotatingCounter(std::uint8_t num_slots = kMaxSlots)
      : num_slots_(num_slots == 0 ? 1 : num_slots) {}

  // Records `n` accesses in the current slot. Saturates at the slot width
  // (the paper stores one byte per slot and discusses compression; we keep
  // 16-bit slots and saturate, which is lossless for realistic rates).
  void Add(std::uint32_t n = 1) {
    const std::uint32_t room = 0xFFFFu - slots_[head_];
    const auto inc = static_cast<std::uint16_t>(n < room ? n : room);
    slots_[head_] = static_cast<std::uint16_t>(slots_[head_] + inc);
    sum_ += inc;
  }

  // Advances to the next slot, forgetting the oldest period.
  void Rotate() {
    head_ = static_cast<std::uint8_t>(head_ + 1 == num_slots_ ? 0 : head_ + 1);
    sum_ -= slots_[head_];
    slots_[head_] = 0;
  }

  // Advances `periods` slots at once, exactly as that many Rotate() calls
  // would: a window that lagged behind catches up in one step.
  void Rotate(std::uint32_t periods) {
    if (sum_ != 0 && periods < num_slots_) {
      for (; periods > 0; --periods) Rotate();
      return;
    }
    // Every slot is zero afterwards (sum_ == 0 means it already is): only
    // the head moves.
    slots_.fill(0);
    sum_ = 0;
    head_ = static_cast<std::uint8_t>((head_ + periods) % num_slots_);
  }

  // Total accesses over the whole window.
  std::uint32_t Total() const { return sum_; }

  // Accesses recorded in the current (most recent, partial) slot.
  std::uint16_t Current() const { return slots_[head_]; }

  std::uint8_t num_slots() const { return num_slots_; }

  bool IsZero() const { return sum_ == 0; }

  void Clear() {
    slots_.fill(0);
    sum_ = 0;
    head_ = 0;
  }

  // Merges another counter's window into this one (used when a replica
  // migrates and its statistics travel with it). Slot alignment is
  // approximate across servers, so the merge folds into the current slot.
  void Merge(const RotatingCounter& other) { Add(other.Total()); }

 private:
  std::array<std::uint16_t, kMaxSlots> slots_{};
  std::uint32_t sum_ = 0;
  std::uint8_t head_ = 0;
  std::uint8_t num_slots_;
};

}  // namespace dynasore::common
