// The runtime's communication plane, extracted from ShardedRuntime: one
// single-producer/single-consumer channel per (source shard, destination
// shard) pair carrying flat-encoded batches of remote work. Each channel is
// a lock-free SpscRing (spsc_ring.h). The epoch protocol bounds occupancy
// (every channel is fully drained at each epoch boundary while producers
// are quiescent), so rings are statically sized from
// RuntimeConfig::queue_depth.
//
// All operations are non-blocking; a full channel returns false from
// TrySend and the caller keeps (and keeps coalescing into) the batch.
//
// Thread-safety contract: each (src, dst) channel is a strict SPSC pair —
// shard src's worker is the channel's only producer, shard dst's worker its
// only consumer; no method is safe to call from any other thread. A fabric
// instance is fixed at `num_shards()`: online reconfiguration does not
// resize a fabric but *replaces* it (ShardedRuntime swaps in a fabric built
// for the new shard set). That swap is epoch-boundary-only — it is safe
// exactly when every worker is quiescent and every channel is empty, which
// the boundary drain guarantees.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/types.h"
#include "runtime/spsc_ring.h"

namespace dynasore::rt {

// A slice of one logical request shipped between shards; applied on the
// destination in global sequence order at drain points. Targets live in the
// owning WireBatch's flat buffer so staging a remote slice never allocates
// per request.
struct FlatOp {
  // flags bit: this write op is a replication record for a designated
  // backup (rt::Replicator) — the receiver counts it toward repl_applies on
  // top of the normal apply. The fabric never inspects flags.
  static constexpr std::uint8_t kReplicated = 1u << 0;

  std::uint64_t seq = 0;          // global dispatch order
  std::uint64_t dispatch_ns = 0;  // steady-clock stamp at dispatch
  SimTime time = 0;
  UserId user = 0;
  OpType op = OpType::kRead;
  std::uint8_t flags = 0;
  std::uint32_t target_begin = 0;  // into WireBatch::targets (reads only)
  std::uint32_t target_count = 0;
};

// A batch of remote ops from one source shard, ops in ascending seq order.
// Senders never ship empty batches.
struct WireBatch {
  std::vector<FlatOp> ops;
  std::vector<ViewId> targets;
};

// The communication plane: one lock-free SpscRing per (source, destination)
// pair, stored row-major by source.
class Fabric {
 public:
  // Builds `num_shards` x `num_shards` channels that each hold at least
  // `min_channel_capacity` batches (rounded up to a power of two).
  Fabric(std::uint32_t num_shards, std::uint32_t min_channel_capacity)
      : num_shards_(num_shards) {
    const std::size_t channels =
        static_cast<std::size_t>(num_shards) * num_shards;
    rings_.reserve(channels);
    for (std::size_t i = 0; i < channels; ++i) {
      rings_.push_back(
          std::make_unique<SpscRing<WireBatch>>(min_channel_capacity));
    }
  }

  // Producer side: only shard `src` may send on (src, *) channels. Moves
  // from `batch` and returns true on success; leaves `batch` untouched and
  // returns false when the channel is full.
  bool TrySend(std::uint32_t src, std::uint32_t dst, WireBatch& batch) {
    return at(src, dst).TryPush(batch);
  }

  // Consumer side: only shard `dst` may receive on (*, dst) channels.
  std::optional<WireBatch> TryRecv(std::uint32_t src, std::uint32_t dst) {
    return at(src, dst).TryPop();
  }

  // Consumer side, batched: appends up to `max` queued batches to `out`
  // under one acquire/release pair and returns the number drained. The
  // runtime's drains empty a whole channel with a single call.
  std::size_t DrainChannel(std::uint32_t src, std::uint32_t dst,
                           std::vector<WireBatch>& out, std::size_t max) {
    return at(src, dst).ConsumeInto(out, max);
  }

  // Consumer side: batches currently queued on the channel — telemetry's
  // ring-depth probe. The producer may be mid-push, so the value is a lower
  // bound at the instant of the call; exact whenever the producer is
  // quiescent (epoch-boundary drains, where the runtime samples it).
  std::uint32_t Depth(std::uint32_t src, std::uint32_t dst) {
    return static_cast<std::uint32_t>(at(src, dst).Size());
  }

  // Consumer side: touches every slot of every (*, dst) channel from the
  // calling thread so the pages fault (and, under first-touch NUMA
  // policies, land) on the destination worker's node. Only safe while every
  // channel into dst is empty and all producers are quiescent — the
  // runtime's placement phase.
  void PrefaultInbound(std::uint32_t dst) {
    for (std::uint32_t src = 0; src < num_shards_; ++src) {
      at(src, dst).Prefault();
    }
  }

  // The shard count this fabric was built for — immutable for the fabric's
  // lifetime (see the reconfiguration note above).
  std::uint32_t num_shards() const { return num_shards_; }

 private:
  SpscRing<WireBatch>& at(std::uint32_t src, std::uint32_t dst) {
    return *rings_[static_cast<std::size_t>(src) * num_shards_ + dst];
  }

  const std::uint32_t num_shards_;
  std::vector<std::unique_ptr<SpscRing<WireBatch>>> rings_;
};

}  // namespace dynasore::rt
