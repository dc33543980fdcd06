#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <span>
#include <thread>
#include <vector>

#include "runtime/fabric.h"
#include "runtime/spsc_ring.h"

namespace dynasore::rt {
namespace {

// ----- SpscRing -----

TEST(SpscRingTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpscRing<int>(1).capacity(), 2u);
  EXPECT_EQ(SpscRing<int>(2).capacity(), 2u);
  EXPECT_EQ(SpscRing<int>(3).capacity(), 4u);
  EXPECT_EQ(SpscRing<int>(66).capacity(), 128u);
}

TEST(SpscRingTest, FifoOrderSingleThread) {
  SpscRing<int> ring(8);
  for (int i = 0; i < 8; ++i) {
    int v = i;
    ASSERT_TRUE(ring.TryPush(v));
  }
  for (int i = 0; i < 8; ++i) EXPECT_EQ(ring.TryPop(), i);
  EXPECT_FALSE(ring.TryPop().has_value());
}

TEST(SpscRingTest, TryPushFailsWhenFullAndLeavesItemIntact) {
  SpscRing<std::vector<int>> ring(2);
  std::vector<int> a{1}, b{2}, c{3, 4, 5};
  ASSERT_TRUE(ring.TryPush(a));
  ASSERT_TRUE(ring.TryPush(b));
  EXPECT_FALSE(ring.TryPush(c));
  EXPECT_EQ(c, (std::vector<int>{3, 4, 5}));  // rejected item untouched
  EXPECT_EQ(ring.TryPop(), std::vector<int>{1});
  EXPECT_TRUE(ring.TryPush(c));  // slot freed
}

TEST(SpscRingTest, WrapsAroundManyTimes) {
  SpscRing<std::uint64_t> ring(4);
  std::uint64_t next_push = 0;
  std::uint64_t next_pop = 0;
  for (int round = 0; round < 500; ++round) {
    const int burst = 1 + round % 4;  // varies occupancy across wraps
    for (int k = 0; k < burst; ++k) {
      std::uint64_t v = next_push;
      ASSERT_TRUE(ring.TryPush(v));
      ++next_push;
    }
    for (int k = 0; k < burst; ++k) ASSERT_EQ(ring.TryPop(), next_pop++);
  }
  EXPECT_EQ(next_pop, next_push);
  EXPECT_FALSE(ring.TryPop().has_value());
}

// ----- Batched consumer API -----

TEST(SpscRingTest, ConsumeIntoHonorsMaxAndEmptyRing) {
  SpscRing<int> ring(8);
  std::vector<int> out;
  EXPECT_EQ(ring.ConsumeInto(out, 4), 0u);  // empty: no claim
  EXPECT_TRUE(out.empty());

  for (int i = 0; i < 6; ++i) {
    int v = i;
    ASSERT_TRUE(ring.TryPush(v));
  }
  EXPECT_EQ(ring.ConsumeInto(out, 4), 4u);  // partial: max < available
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(ring.ConsumeInto(out, 100), 2u);  // rest: max > available
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(ring.ConsumeInto(out, 100), 0u);
}

TEST(SpscRingTest, BatchedOpsWrapAroundManyTimes) {
  SpscRing<std::uint64_t> ring(4);  // free-running indices wrap the mask often
  std::uint64_t next_push = 0;
  std::uint64_t next_pop = 0;
  std::vector<std::uint64_t> out;
  for (int round = 0; round < 500; ++round) {
    const std::uint64_t burst = 1 + round % 4;
    for (std::uint64_t k = 0; k < burst; ++k) {
      std::uint64_t v = next_push++;
      ASSERT_TRUE(ring.TryPush(v));
    }
    out.clear();
    ASSERT_EQ(ring.ConsumeInto(out, burst), burst);
    for (std::uint64_t v : out) ASSERT_EQ(v, next_pop++);
  }
  EXPECT_EQ(next_pop, next_push);
  EXPECT_FALSE(ring.TryPop().has_value());
}

TEST(SpscRingTest, BatchedAndSingleOpApisInterleave) {
  SpscRing<std::uint64_t> ring(8);
  std::uint64_t next_push = 0;
  std::uint64_t next_pop = 0;
  std::vector<std::uint64_t> out;
  for (int round = 0; round < 200; ++round) {
    for (int k = 0; k <= round % 3; ++k) {
      std::uint64_t v = next_push++;
      ASSERT_TRUE(ring.TryPush(v));
    }
    // Alternate consume styles; FIFO order must hold across them.
    if (round % 3 == 0) {
      out.clear();
      ring.ConsumeInto(out, 2);
      for (std::uint64_t v : out) ASSERT_EQ(v, next_pop++);
    } else {
      while (auto v = ring.TryPop()) ASSERT_EQ(*v, next_pop++);
    }
  }
  while (auto v = ring.TryPop()) ASSERT_EQ(*v, next_pop++);
  EXPECT_EQ(next_pop, next_push);
}

// Size() is a lower bound while a producer runs, but exact at quiescent
// points — the documented asymmetry in spsc_ring.h (relaxed load of the
// consumer's own head_, acquire of the producer's tail_). This pins the
// exactness half: with both sides quiescent on one thread, Size() equals
// pushes minus pops at every step, across wraps.
TEST(SpscRingTest, SizeIsExactAtQuiescentPoints) {
  SpscRing<int> ring(4);
  EXPECT_EQ(ring.Size(), 0u);
  std::uint64_t pushes = 0;
  std::uint64_t pops = 0;
  for (int round = 0; round < 300; ++round) {
    const int burst = 1 + round % 4;
    for (int k = 0; k < burst; ++k) {
      int v = k;
      ASSERT_TRUE(ring.TryPush(v));
      ++pushes;
      ASSERT_EQ(ring.Size(), pushes - pops);
    }
    for (int k = 0; k < burst; ++k) {
      ASSERT_TRUE(ring.TryPop().has_value());
      ++pops;
      ASSERT_EQ(ring.Size(), pushes - pops);
    }
  }
  EXPECT_EQ(ring.Size(), 0u);
}

// The batched-consumer TSan target: the producer pushes one at a time, as
// the runtime's senders do, and the consumer claims via ConsumeInto, mixing
// in TryPop — order and completeness checked under real concurrency.
TEST(SpscRingTest, ProducerAndBatchedConsumerDeliverEverythingInOrder) {
  SpscRing<std::uint64_t> ring(16);
  constexpr std::uint64_t kItems = 20000;
  std::thread producer([&] {
    for (std::uint64_t next = 0; next < kItems;) {
      std::uint64_t v = next;
      if (ring.TryPush(v)) {
        ++next;
      } else {
        std::this_thread::yield();  // single-core containers
      }
    }
  });
  std::uint64_t expected = 0;
  std::vector<std::uint64_t> out;
  while (expected < kItems) {
    if (expected % 5 == 0) {  // sprinkle single-op pops between claims
      if (auto v = ring.TryPop()) {
        ASSERT_EQ(*v, expected);
        ++expected;
      } else {
        std::this_thread::yield();
      }
      continue;
    }
    out.clear();
    const std::size_t got = ring.ConsumeInto(out, 8);
    if (got == 0) {
      std::this_thread::yield();
      continue;
    }
    for (std::uint64_t v : out) {
      ASSERT_EQ(v, expected);
      ++expected;
    }
  }
  producer.join();
  EXPECT_FALSE(ring.TryPop().has_value());
  EXPECT_EQ(ring.Size(), 0u);  // quiescent: exact, and empty
}

// The TSan target: one producer, one consumer, full throughput, order and
// completeness checked.
TEST(SpscRingTest, ProducerConsumerDeliversEverythingInOrder) {
  SpscRing<std::uint64_t> ring(16);
  constexpr std::uint64_t kItems = 20000;
  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kItems;) {
      std::uint64_t v = i;
      if (ring.TryPush(v)) {
        ++i;
      } else {
        std::this_thread::yield();  // single-core containers
      }
    }
  });
  std::uint64_t expected = 0;
  while (expected < kItems) {
    if (auto v = ring.TryPop()) {
      ASSERT_EQ(*v, expected);
      ++expected;
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
  EXPECT_FALSE(ring.TryPop().has_value());
}

// ----- Fabric -----

WireBatch MakeBatch(std::uint64_t seq, std::uint64_t dispatch_ns,
                    std::vector<ViewId> targets) {
  WireBatch batch;
  FlatOp op;
  op.seq = seq;
  op.dispatch_ns = dispatch_ns;
  op.user = 1;
  op.op = OpType::kRead;
  op.target_begin = 0;
  op.target_count = static_cast<std::uint32_t>(targets.size());
  batch.ops.push_back(op);
  batch.targets = std::move(targets);
  return batch;
}

TEST(FabricTest, RoundTripPreservesPayload) {
  Fabric fabric(3, 4);
  WireBatch batch = MakeBatch(7, 1000, {10, 11, 12});
  ASSERT_TRUE(fabric.TrySend(0, 2, batch));
  auto received = fabric.TryRecv(0, 2);
  ASSERT_TRUE(received.has_value());
  ASSERT_EQ(received->ops.size(), 1u);
  EXPECT_EQ(received->ops[0].seq, 7u);
  EXPECT_EQ(received->ops[0].dispatch_ns, 1000u);
  EXPECT_EQ(received->targets, (std::vector<ViewId>{10, 11, 12}));
  EXPECT_FALSE(fabric.TryRecv(0, 2).has_value());
}

TEST(FabricTest, ChannelsAreIndependentPerPair) {
  Fabric fabric(3, 4);
  WireBatch from0 = MakeBatch(1, 100, {1});
  WireBatch from1 = MakeBatch(2, 200, {2});
  ASSERT_TRUE(fabric.TrySend(0, 2, from0));
  ASSERT_TRUE(fabric.TrySend(1, 2, from1));
  EXPECT_FALSE(fabric.TryRecv(2, 0).has_value());  // wrong direction
  auto a = fabric.TryRecv(0, 2);
  auto b = fabric.TryRecv(1, 2);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->ops[0].seq, 1u);
  EXPECT_EQ(b->ops[0].seq, 2u);
}

TEST(FabricTest, TrySendFailsWhenFullAndKeepsBatch) {
  Fabric fabric(2, 2);
  WireBatch overflow = MakeBatch(99, 900, {42});
  int sent = 0;
  // Fill the channel to whatever its (power-of-two-rounded) capacity is.
  for (; sent < 1000; ++sent) {
    WireBatch batch = MakeBatch(static_cast<std::uint64_t>(sent), 1, {1});
    if (!fabric.TrySend(0, 1, batch)) break;
  }
  EXPECT_GE(sent, 2);
  EXPECT_FALSE(fabric.TrySend(0, 1, overflow));
  EXPECT_EQ(overflow.ops[0].seq, 99u);  // rejected batch untouched
  EXPECT_EQ(overflow.targets, std::vector<ViewId>{42});
  ASSERT_TRUE(fabric.TryRecv(0, 1).has_value());
  EXPECT_TRUE(fabric.TrySend(0, 1, overflow));  // slot freed
}

TEST(FabricTest, SendAndDrainRoundTrip) {
  Fabric fabric(3, 8);
  for (std::uint64_t i = 0; i < 5; ++i) {
    WireBatch batch = MakeBatch(i, 100 + i, {static_cast<ViewId>(i)});
    ASSERT_TRUE(fabric.TrySend(0, 2, batch));
  }

  // Drain respects max, preserves order, and appends to the caller's
  // buffer — the runtime reuses one scratch vector across channels.
  std::vector<WireBatch> out;
  EXPECT_EQ(fabric.DrainChannel(0, 2, out, 2), 2u);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(fabric.DrainChannel(0, 2, out, 100), 3u);
  ASSERT_EQ(out.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(out[i].ops[0].seq, i);
    EXPECT_EQ(out[i].ops[0].dispatch_ns, 100 + i);
    EXPECT_EQ(out[i].targets, std::vector<ViewId>{static_cast<ViewId>(i)});
  }
  EXPECT_EQ(fabric.DrainChannel(0, 2, out, 100), 0u);  // empty channel
  EXPECT_FALSE(fabric.TryRecv(0, 2).has_value());
}

TEST(FabricTest, DrainAndSingleReceiveInterleaveOnOneChannel) {
  Fabric fabric(2, 16);
  std::uint64_t next_send = 0;
  std::uint64_t next_recv = 0;
  std::vector<WireBatch> out;
  for (int round = 0; round < 50; ++round) {
    for (int k = 0; k <= round % 2; ++k) {
      WireBatch one = MakeBatch(next_send, 1, {3});
      ASSERT_TRUE(fabric.TrySend(0, 1, one));
      ++next_send;
    }
    if (round % 3 == 0) {
      out.clear();
      fabric.DrainChannel(0, 1, out, 3);
      for (const WireBatch& b : out) ASSERT_EQ(b.ops[0].seq, next_recv++);
    } else {
      while (auto b = fabric.TryRecv(0, 1)) {
        ASSERT_EQ(b->ops[0].seq, next_recv++);
      }
    }
  }
  while (auto b = fabric.TryRecv(0, 1)) ASSERT_EQ(b->ops[0].seq, next_recv++);
  EXPECT_EQ(next_recv, next_send);
}

// Threaded exchange on every channel through the runtime's paths:
// producers publish with TrySend, consumers claim with DrainChannel (TSan
// fodder for the batched drain).
TEST(FabricTest, AllPairsThreadedDrainExchange) {
  constexpr std::uint32_t kShards = 4;
  constexpr std::uint64_t kPerPair = 500;
  constexpr std::uint64_t kBurst = 4;
  Fabric fabric(kShards, 8);
  std::vector<std::thread> workers;
  std::atomic<bool> failed{false};
  workers.reserve(kShards);
  for (std::uint32_t self = 0; self < kShards; ++self) {
    workers.emplace_back([&, self] {
      std::array<std::uint64_t, kShards> next_send{};
      std::array<std::uint64_t, kShards> next_recv{};
      std::vector<WireBatch> claimed;
      bool done = false;
      while (!done) {
        done = true;
        for (std::uint32_t peer = 0; peer < kShards; ++peer) {
          if (peer == self) continue;
          if (next_send[peer] < kPerPair) {
            done = false;
            for (std::uint64_t k = 0;
                 k < kBurst && next_send[peer] < kPerPair; ++k) {
              WireBatch batch = MakeBatch(next_send[peer], 1,
                                          {static_cast<ViewId>(self)});
              if (!fabric.TrySend(self, peer, batch)) break;
              ++next_send[peer];
            }
          }
          claimed.clear();
          fabric.DrainChannel(peer, self, claimed, kBurst);
          for (const WireBatch& batch : claimed) {
            if (batch.ops[0].seq != next_recv[peer] ||
                batch.targets[0] != peer) {
              failed.store(true);
            }
            ++next_recv[peer];
          }
          if (next_recv[peer] < kPerPair) done = false;
        }
        if (!done) std::this_thread::yield();  // single-core containers
      }
    });
  }
  for (auto& t : workers) t.join();
  EXPECT_FALSE(failed.load());
}

// Threaded pairwise exchange: every shard sends a numbered stream to every
// other shard; receivers must observe each stream complete and in order.
// Exercises all n*(n-1) channels concurrently (TSan fodder).
TEST(FabricTest, AllPairsThreadedExchange) {
  constexpr std::uint32_t kShards = 4;
  constexpr std::uint64_t kPerPair = 500;
  Fabric fabric(kShards, 4);
  std::vector<std::thread> workers;
  std::atomic<bool> failed{false};
  workers.reserve(kShards);
  for (std::uint32_t self = 0; self < kShards; ++self) {
    workers.emplace_back([&, self] {
      std::array<std::uint64_t, kShards> next_send{};
      std::array<std::uint64_t, kShards> next_recv{};
      bool done = false;
      while (!done) {
        done = true;
        for (std::uint32_t peer = 0; peer < kShards; ++peer) {
          if (peer == self) continue;
          if (next_send[peer] < kPerPair) {
            done = false;
            WireBatch batch =
                MakeBatch(next_send[peer], 1, {static_cast<ViewId>(self)});
            if (fabric.TrySend(self, peer, batch)) ++next_send[peer];
          }
          while (auto batch = fabric.TryRecv(peer, self)) {
            if (batch->ops[0].seq != next_recv[peer] ||
                batch->targets[0] != peer) {
              failed.store(true);
            }
            ++next_recv[peer];
          }
          if (next_recv[peer] < kPerPair) done = false;
        }
        if (!done) std::this_thread::yield();  // single-core containers
      }
    });
  }
  for (auto& t : workers) t.join();
  EXPECT_FALSE(failed.load());
}

}  // namespace
}  // namespace dynasore::rt
