// Fixed-size lock-free single-producer/single-consumer ring buffer: the
// per-(source, destination) channel underneath rt::Fabric.
//
// A Lamport queue with cached counterpart indices: the producer re-reads the
// consumer's head (and vice versa) only when its cached copy says the ring
// looks full/empty, so steady-state pushes and pops touch one shared cache
// line each. head_/tail_ are free-running (never wrapped); unsigned
// subtraction gives the occupancy even across overflow. Capacity rounds up
// to a power of two so indexing is a mask, not a modulo.
//
// Thread-safety: exactly one producer thread may call TryPush and exactly
// one consumer thread may call TryPop/ConsumeInto. The
// epoch protocol's flush barrier (all producers quiesce before the drain)
// makes "pop until empty" a stable observation for the consumer. capacity()
// is safe from anywhere (immutable after construction); construction and
// destruction must be externally synchronized against both sides — the
// runtime only creates or destroys rings while every worker is quiescent
// (construction, or an epoch-boundary fabric swap during online
// reconfiguration).
//
// Batched consume: ConsumeInto claims N slots under ONE acquire load + ONE
// release store, vs one acquire/release pair per element for TryPop. At an
// epoch-boundary drain of a deep channel this turns N synchronized
// operations into a single claim plus a move loop; it interleaves freely
// with TryPop.
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

namespace dynasore::rt {

template <typename T>
class SpscRing {
 public:
  explicit SpscRing(std::size_t min_capacity)
      : mask_(std::bit_ceil(std::max<std::size_t>(min_capacity, 2)) - 1),
        slots_(mask_ + 1) {}

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  // Producer only. Moves from `item` and returns true when a slot is free;
  // leaves `item` untouched and returns false when the ring is full.
  bool TryPush(T& item) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - head_cache_ > mask_) {
      head_cache_ = head_.load(std::memory_order_acquire);
      if (tail - head_cache_ > mask_) return false;
    }
    slots_[tail & mask_] = std::move(item);
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  // Consumer only. Empty optional when nothing is queued right now.
  std::optional<T> TryPop() {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    if (head == tail_cache_) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      if (head == tail_cache_) return std::nullopt;
    }
    std::optional<T> item(std::move(slots_[head & mask_]));
    slots_[head & mask_] = T{};  // release payload buffers eagerly
    head_.store(head + 1, std::memory_order_release);
    return item;
  }

  // Consumer only: batched consume. Appends up to `max` queued items to
  // `out` under ONE acquire load of tail_ (the claim) and ONE release store
  // of head_ (freeing every consumed slot at once), instead of a
  // synchronized pair per element. Each consumed slot is reset to T{} so
  // payload buffers are released eagerly, exactly like TryPop. Returns the
  // number consumed (zero when the ring is empty).
  std::size_t ConsumeInto(std::vector<T>& out, std::size_t max) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    std::size_t avail = tail_cache_ - head;
    if (avail < max) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      avail = tail_cache_ - head;
    }
    const std::size_t n = std::min(max, avail);
    if (n == 0) return 0;
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(std::move(slots_[(head + i) & mask_]));
      slots_[(head + i) & mask_] = T{};  // release payload buffers eagerly
    }
    head_.store(head + n, std::memory_order_release);
    return n;
  }

  // Consumer only: items currently queued. The memory orders are
  // deliberately asymmetric. head_ is the CALLER's own index — the consumer
  // is its only writer, so a relaxed load always returns its latest value
  // (no synchronization can be needed to read your own writes). tail_ is
  // the producer's index; the acquire here pairs with the producer's
  // release store in TryPush, so every increment counted was a
  // fully published slot. A concurrent producer may push right after the
  // load, which makes the result a lower bound in general; at the runtime's
  // quiescent points (producers parked behind the flush barrier) no push
  // can race, so the value is exact — which is when telemetry samples
  // channel depth. fabric_test.cc pins this exactness claim.
  std::size_t Size() const {
    return tail_.load(std::memory_order_acquire) -
           head_.load(std::memory_order_relaxed);
  }

  std::size_t capacity() const { return mask_ + 1; }

  // Consumer only, and only while the ring is empty and the producer is
  // quiescent (the runtime's placement phase, where a gate guarantees
  // both): rewrites every slot so the backing pages are faulted — and on
  // first-touch NUMA policies, placed — from the calling thread. Slots are
  // unreachable by a quiescent producer, so this cannot race.
  void Prefault() {
    for (T& slot : slots_) slot = T{};
  }

 private:
  static constexpr std::size_t kCacheLine = 64;

  const std::size_t mask_;
  std::vector<T> slots_;
  // Producer and consumer indices live on separate cache lines, each next to
  // that side's cached copy of the other index (false-sharing avoidance).
  alignas(kCacheLine) std::atomic<std::size_t> head_{0};  // consumer
  std::size_t tail_cache_ = 0;                            // consumer-owned
  alignas(kCacheLine) std::atomic<std::size_t> tail_{0};  // producer
  std::size_t head_cache_ = 0;                            // producer-owned
};

}  // namespace dynasore::rt
