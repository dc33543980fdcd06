#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <map>
#include <random>
#include <span>
#include <utility>
#include <vector>

#include "store/store_server.h"
#include "store/view_data.h"

namespace dynasore::store {
namespace {

// (origin, reads-in-window) pairs in ForEachOrigin's order.
std::vector<std::pair<std::uint16_t, std::uint32_t>> ReadsOf(
    const ReplicaStats& stats) {
  std::vector<std::pair<std::uint16_t, std::uint32_t>> out;
  stats.ForEachOrigin([&](std::uint16_t origin, std::uint32_t reads) {
    out.emplace_back(origin, reads);
  });
  return out;
}

StoreConfig SmallConfig(std::uint32_t capacity = 10) {
  StoreConfig config;
  config.capacity_views = capacity;
  return config;
}

// ----- Capacity management -----

TEST(StoreServerTest, InsertUntilFull) {
  StoreServer server(0, SmallConfig(3));
  EXPECT_NE(kNoEntry, server.Insert(1));
  EXPECT_NE(kNoEntry, server.Insert(2));
  EXPECT_NE(kNoEntry, server.Insert(3));
  EXPECT_TRUE(server.Full());
  EXPECT_EQ(server.Insert(4), kNoEntry);
  EXPECT_EQ(server.used(), 3u);
}

TEST(StoreServerTest, InsertExistingIsIdempotent) {
  StoreServer server(0, SmallConfig(2));
  const EntryId entry = server.Insert(7);
  EXPECT_NE(entry, kNoEntry);
  EXPECT_EQ(server.Insert(7), entry);
  EXPECT_EQ(server.used(), 1u);
}

TEST(StoreServerTest, EntriesAreStableHandles) {
  StoreServer server(0, SmallConfig(10));
  const EntryId seven = server.Insert(7);
  server.entry_stats(seven).RecordRead(3);
  // Inserting views before it, and erasing one, shifts its position in
  // views() but not its entry.
  for (ViewId v : {1u, 2u, 5u}) server.Insert(v);
  server.Erase(2);
  EXPECT_EQ(server.entry_view(seven), 7u);
  EXPECT_EQ(server.entry_stats(seven).ReadsFrom(3), 1u);
  EXPECT_EQ(server.Find(7), &server.entry_stats(seven));
  // An erased entry names no view until a new replica reuses it.
  server.Erase(7);
  EXPECT_EQ(server.entry_view(seven), kInvalidView);
  EXPECT_EQ(server.Insert(9), seven);
  EXPECT_EQ(server.entry_view(seven), 9u);
  EXPECT_EQ(server.entry_stats(seven).TotalReads(), 0u);
}

TEST(StoreServerTest, EraseFreesSpace) {
  StoreServer server(0, SmallConfig(1));
  EXPECT_NE(kNoEntry, server.Insert(1));
  EXPECT_TRUE(server.Full());
  server.Erase(1);
  EXPECT_FALSE(server.Has(1));
  EXPECT_NE(kNoEntry, server.Insert(2));
}

TEST(StoreServerTest, WatermarkDetection) {
  StoreConfig config = SmallConfig(100);
  config.evict_watermark = 0.95;
  StoreServer server(0, config);
  for (ViewId v = 0; v < 95; ++v) server.Insert(v);
  EXPECT_FALSE(server.AboveWatermark());
  server.Insert(95);
  EXPECT_TRUE(server.AboveWatermark());
}

TEST(StoreServerTest, ViewsAreSortedAndComplete) {
  StoreServer server(0, SmallConfig(10));
  for (ViewId v : {7u, 1u, 9u, 3u}) server.Insert(v);
  server.Erase(3);
  server.Insert(5);
  const std::span<const ViewId> views = server.views();
  EXPECT_EQ(std::vector<ViewId>(views.begin(), views.end()),
            (std::vector<ViewId>{1, 5, 7, 9}));
}

TEST(StoreServerTest, PositionalAccessorsFollowTheSortedTable) {
  StoreServer server(0, SmallConfig(10));
  for (ViewId v : {7u, 1u, 9u}) server.Insert(v);
  server.set_utility(9, 2.5);
  server.set_utility_at(0, -1.0);  // view 1
  server.Find(7)->RecordWrite();
  EXPECT_DOUBLE_EQ(server.utility(1), -1.0);
  EXPECT_DOUBLE_EQ(server.utility_at(2), 2.5);
  EXPECT_EQ(server.stats_at(1).TotalWrites(), 1u);
}

// ----- Statistics -----

TEST(StoreServerTest, RecordReadTracksOrigins) {
  StoreServer server(0, SmallConfig());
  server.Insert(5);
  server.Find(5)->RecordRead(2);
  server.Find(5)->RecordRead(2);
  server.Find(5)->RecordRead(7);
  const ReplicaStats* stats = server.Find(5);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->ReadsFrom(2), 2u);
  EXPECT_EQ(stats->ReadsFrom(7), 1u);
  EXPECT_EQ(stats->ReadsFrom(3), 0u);
  EXPECT_EQ(stats->TotalReads(), 3u);
}

TEST(StoreServerTest, RecordWriteCounts) {
  StoreServer server(0, SmallConfig());
  server.Insert(5);
  server.Find(5)->RecordWrite();
  server.Find(5)->RecordWrite();
  EXPECT_EQ(server.Find(5)->TotalWrites(), 2u);
}

TEST(StoreServerTest, RotationExpiresOldWindow) {
  StoreConfig config = SmallConfig();
  config.counter_slots = 3;
  StoreServer server(0, config);
  server.Insert(5);
  server.Find(5)->RecordRead(1);
  for (int i = 0; i < 3; ++i) server.AdvanceSlot();
  EXPECT_EQ(server.Find(5)->TotalReads(), 0u);
}

TEST(StoreServerTest, LazyRotationMatchesEagerRotation) {
  // One replica is read at every slot, the other only at the end: the
  // lagging one catches up to exactly what rotating it each slot gives.
  StoreConfig config = SmallConfig();
  config.counter_slots = 4;
  StoreServer server(0, config);
  server.Insert(1);
  server.Insert(2);
  ReplicaStats eager(4);
  for (std::uint16_t origin = 0; origin < 3; ++origin) {
    server.Find(1)->RecordRead(origin);
    server.Find(2)->RecordRead(origin);
    server.Find(2)->RecordWrite();
    eager.RecordRead(origin);
    eager.RecordWrite();
    server.AdvanceSlot();
    eager.Rotate();
    ASSERT_NE(server.Find(1), nullptr);  // touch view 1 every slot
  }
  for (int i = 0; i < 2; ++i) {
    server.AdvanceSlot();
    eager.Rotate();
  }
  const ReplicaStats* lazy = server.Find(2);
  ASSERT_NE(lazy, nullptr);
  for (std::uint16_t origin = 0; origin < 3; ++origin) {
    EXPECT_EQ(lazy->ReadsFrom(origin), eager.ReadsFrom(origin)) << origin;
  }
  EXPECT_EQ(lazy->TotalReads(), 1u);  // only the last slot's read survives
  EXPECT_EQ(lazy->TotalWrites(), eager.TotalWrites());
  EXPECT_EQ(server.Find(1)->TotalReads(), lazy->TotalReads());
  // A replica inserted now starts on the current slot, not behind it.
  server.Insert(3);
  server.Find(3)->RecordRead(0);
  server.AdvanceSlot();
  EXPECT_EQ(server.Find(3)->TotalReads(), 1u);
}

TEST(ReplicaStatsTest, ForEachOriginVisitsOriginsInOrder) {
  ReplicaStats stats(4);
  stats.RecordRead(3, 5);
  stats.RecordRead(8, 2);
  stats.RecordRead(1, 1);
  // Sorted by origin.
  EXPECT_EQ(ReadsOf(stats),
            (std::vector<std::pair<std::uint16_t, std::uint32_t>>{
                {1, 1}, {3, 5}, {8, 2}}));
}

TEST(ReplicaStatsTest, RotationDropsEmptyOriginEntries) {
  ReplicaStats stats(2);
  stats.RecordRead(1, 1);
  stats.Rotate();
  stats.Rotate();
  EXPECT_TRUE(ReadsOf(stats).empty());
}

TEST(ReplicaStatsTest, MergeRemappedOneToOne) {
  ReplicaStats source(4);
  source.RecordRead(0, 10);
  source.RecordWrite(3);
  ReplicaStats target(4);
  target.MergeRemapped(source, [](std::uint16_t origin) {
    return std::vector<std::uint16_t>{static_cast<std::uint16_t>(origin + 5)};
  });
  EXPECT_EQ(target.ReadsFrom(5), 10u);
  EXPECT_EQ(target.TotalWrites(), 3u);
}

TEST(ReplicaStatsTest, MergeRemappedSpreadsAggregates) {
  ReplicaStats source(4);
  source.RecordRead(0, 10);
  ReplicaStats target(4);
  target.MergeRemapped(source, [](std::uint16_t) {
    return std::vector<std::uint16_t>{1, 2, 3};
  });
  // 10 reads spread over 3 targets: 4 + 3 + 3.
  EXPECT_EQ(target.TotalReads(), 10u);
  EXPECT_EQ(target.ReadsFrom(1), 4u);
  EXPECT_EQ(target.ReadsFrom(2), 3u);
  EXPECT_EQ(target.ReadsFrom(3), 3u);
}

// ----- Reference model: one 24-slot rotating counter per origin -----

// The paper's rotating counter (§3.2): "Each counter is associated to a
// time period, and servers start updating the following counter at the end
// of the period." Slots are 16 bits and saturate. ReplicaStats stores the
// same windows in a compact hot/cold layout; this plain model is what the
// differential test below holds it to.
class RotatingCounter {
 public:
  static constexpr int kDefaultSlots = 24;
  static constexpr int kMaxSlots = 64;

  explicit RotatingCounter(std::uint8_t num_slots = kDefaultSlots)
      : num_slots_(num_slots == 0 ? 1 : num_slots) {}

  void Add(std::uint32_t n = 1) {
    const std::uint32_t room = 0xFFFFu - slots_[head_];
    const auto inc = static_cast<std::uint16_t>(n < room ? n : room);
    slots_[head_] = static_cast<std::uint16_t>(slots_[head_] + inc);
    sum_ += inc;
  }

  void Rotate() {
    head_ = static_cast<std::uint8_t>(head_ + 1 == num_slots_ ? 0 : head_ + 1);
    sum_ -= slots_[head_];
    slots_[head_] = 0;
  }

  void Rotate(std::uint32_t periods) {
    for (; periods > 0; --periods) Rotate();
  }

  std::uint32_t Total() const { return sum_; }
  std::uint16_t Current() const { return slots_[head_]; }
  bool IsZero() const { return sum_ == 0; }
  void Clear() { *this = RotatingCounter(num_slots_); }
  // A merged window folds into the current slot.
  void Merge(const RotatingCounter& other) { Add(other.Total()); }

 private:
  std::array<std::uint16_t, kMaxSlots> slots_{};
  std::uint32_t sum_ = 0;
  std::uint8_t head_ = 0;
  std::uint8_t num_slots_;
};

TEST(RotatingCounterTest, StartsEmpty) {
  RotatingCounter c;
  EXPECT_EQ(c.Total(), 0u);
  EXPECT_TRUE(c.IsZero());
}

TEST(RotatingCounterTest, AddAccumulates) {
  RotatingCounter c;
  c.Add(3);
  c.Add(4);
  EXPECT_EQ(c.Total(), 7u);
  EXPECT_EQ(c.Current(), 7u);
}

TEST(RotatingCounterTest, WindowForgetsAfterFullRotation) {
  RotatingCounter c(4);
  c.Add(10);
  for (int i = 0; i < 4; ++i) c.Rotate();
  EXPECT_EQ(c.Total(), 0u);
}

TEST(RotatingCounterTest, PartialRotationKeepsRecent) {
  RotatingCounter c(4);
  c.Add(10);
  c.Rotate();
  c.Add(5);
  EXPECT_EQ(c.Total(), 15u);
  c.Rotate();
  c.Rotate();
  c.Rotate();  // the 10 from slot 0 falls out
  EXPECT_EQ(c.Total(), 5u);
  c.Rotate();  // now the 5 falls out too
  EXPECT_EQ(c.Total(), 0u);
}

TEST(RotatingCounterTest, SaturatesInsteadOfOverflowing) {
  RotatingCounter c(2);
  c.Add(0xFFFFu);
  c.Add(100);  // would overflow the 16-bit slot
  EXPECT_EQ(c.Total(), 0xFFFFu);
}

TEST(RotatingCounterTest, MergeFoldsIntoCurrentSlot) {
  RotatingCounter a(4);
  RotatingCounter b(4);
  b.Add(3);
  b.Rotate();
  b.Add(4);
  a.Merge(b);
  EXPECT_EQ(a.Total(), 7u);
}

TEST(RotatingCounterTest, ClearResets) {
  RotatingCounter c;
  c.Add(42);
  c.Clear();
  EXPECT_TRUE(c.IsZero());
}

// ReplicaStats as it was before the hot/cold split: one RotatingCounter
// per origin that has read, plus one for writes.
class ReferenceStats {
 public:
  explicit ReferenceStats(std::uint8_t slots) : slots_(slots), writes_(slots) {}

  void RecordRead(std::uint16_t origin, std::uint32_t n) {
    reads_.try_emplace(origin, slots_).first->second.Add(n);
  }
  void RecordWrite(std::uint32_t n) { writes_.Add(n); }
  void Rotate(std::uint32_t periods) {
    writes_.Rotate(periods);
    for (auto it = reads_.begin(); it != reads_.end();) {
      it->second.Rotate(periods);
      it = it->second.IsZero() ? reads_.erase(it) : std::next(it);
    }
  }
  void SpreadReads(std::uint32_t reads,
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
      if (amount > 0) RecordRead(target, amount);
    }
  }
  template <typename Remap>
  void MergeRemapped(const ReferenceStats& other, Remap&& remap,
                     bool include_writes) {
    for (const auto& [origin, counter] : other.reads_) {
      if (counter.Total() > 0) SpreadReads(counter.Total(), remap(origin));
    }
    if (include_writes) writes_.Merge(other.writes_);
  }
  std::uint32_t ExtractOrigin(std::uint16_t origin) {
    const auto it = reads_.find(origin);
    if (it == reads_.end()) return 0;
    const std::uint32_t total = it->second.Total();
    reads_.erase(it);
    return total;
  }

  std::uint32_t TotalWrites() const { return writes_.Total(); }
  std::uint32_t TotalReads() const {
    std::uint32_t total = 0;
    for (const auto& [origin, counter] : reads_) total += counter.Total();
    return total;
  }
  std::vector<std::pair<std::uint16_t, std::uint32_t>> Reads() const {
    std::vector<std::pair<std::uint16_t, std::uint32_t>> out;
    for (const auto& [origin, counter] : reads_) {
      if (counter.Total() > 0) out.emplace_back(origin, counter.Total());
    }
    return out;
  }

 private:
  std::uint8_t slots_;
  std::map<std::uint16_t, RotatingCounter> reads_;
  RotatingCounter writes_;
};

// A seeded random sequence of every ReplicaStats operation, applied to the
// real layout and to the reference model, which must agree after each step.
// A third copy takes the same operations but rotates one slot at a time, so
// a multi-slot Rotate (and its O(1) path) must leave exactly the state that
// single rotations leave, through every later step. And wherever
// WindowMoves(p) says no, Rotate(p) must change no window.
class ReplicaStatsDifferentialTest
    : public ::testing::TestWithParam<std::uint8_t> {};

TEST_P(ReplicaStatsDifferentialTest, MatchesOneCounterPerOrigin) {
  const std::uint8_t slots = GetParam();
  constexpr std::uint16_t kOrigins = 12;
  std::mt19937 rng(1000u + slots);
  const auto below = [&](std::uint32_t n) {
    return static_cast<std::uint32_t>(rng() % n);
  };
  // Mostly single accesses; sometimes enough to saturate a 16-bit slot.
  const auto amount = [&]() -> std::uint32_t {
    switch (below(8)) {
      case 0: return 0xF000u + below(0x2000);
      case 1: return below(50);
      default: return 1;
    }
  };
  const auto targets = [&]() {
    std::vector<std::uint16_t> out;
    const std::uint32_t n = 1 + below(4);
    for (std::uint32_t i = 0; i < n; ++i) {
      const auto origin = static_cast<std::uint16_t>(below(kOrigins));
      if (std::find(out.begin(), out.end(), origin) == out.end()) {
        out.push_back(origin);
      }
    }
    return out;
  };
  const auto remap = [](std::uint16_t origin) {
    return std::vector<std::uint16_t>{
        static_cast<std::uint16_t>(origin % 5),
        static_cast<std::uint16_t>(5 + origin % 7)};
  };

  ReplicaStats stats(slots);
  ReferenceStats model(slots);
  ReplicaStats stepped(slots);  // rotated one slot at a time
  ReplicaStats other(slots);  // a second replica, merged in now and then
  ReferenceStats other_model(slots);
  std::uint32_t quiet = 0;  // rotations of a non-empty window that moved none
  for (int step = 0; step < 20000; ++step) {
    const std::uint32_t op = below(100);
    if (op < 40) {
      const auto origin = static_cast<std::uint16_t>(below(kOrigins));
      const std::uint32_t n = amount();
      stats.RecordRead(origin, n);
      stepped.RecordRead(origin, n);
      model.RecordRead(origin, n);
    } else if (op < 52) {
      const std::uint32_t n = amount();
      stats.RecordWrite(n);
      stepped.RecordWrite(n);
      model.RecordWrite(n);
    } else if (op < 64) {
      // Single steps mostly, now and then a lag of a whole window, and
      // after a quiet spell of no accesses, several steps at once.
      std::uint32_t periods = below(4) == 0 ? below(2u * slots + 2) : 1;
      if (below(3) == 0) {
        for (std::uint32_t k = below(slots + 1u); k > 0; --k) {
          stats.Rotate(1);
          stepped.Rotate(1);
          model.Rotate(1);
        }
        periods = below(slots + 1u);
      }
      const bool moves = stats.WindowMoves(periods);
      const auto reads_before = ReadsOf(stats);
      const std::uint32_t writes_before = stats.TotalWrites();
      stats.Rotate(periods);
      for (std::uint32_t k = 0; k < periods; ++k) stepped.Rotate(1);
      model.Rotate(periods);
      if (!moves) {
        if (!reads_before.empty() || writes_before != 0) ++quiet;
        ASSERT_EQ(ReadsOf(stats), reads_before) << "step " << step;
        ASSERT_EQ(stats.TotalWrites(), writes_before) << "step " << step;
      }
    } else if (op < 72) {
      const std::uint32_t reads = amount();
      const std::vector<std::uint16_t> to = targets();
      stats.SpreadReads(reads, to);
      stepped.SpreadReads(reads, to);
      model.SpreadReads(reads, to);
    } else if (op < 76) {
      const bool include_writes = below(2) == 0;
      stats.MergeRemapped(other, remap, include_writes);
      stepped.MergeRemapped(other, remap, include_writes);
      model.MergeRemapped(other_model, remap, include_writes);
    } else if (op < 82) {
      const auto origin = static_cast<std::uint16_t>(below(kOrigins));
      const std::uint32_t extracted = model.ExtractOrigin(origin);
      ASSERT_EQ(stats.ExtractOrigin(origin), extracted);
      ASSERT_EQ(stepped.ExtractOrigin(origin), extracted);
    } else if (op < 84) {
      const ReplicaStats copy = stats;  // reconfiguration snapshots copy
      stats = copy;
    } else {
      const auto origin = static_cast<std::uint16_t>(below(kOrigins));
      const std::uint32_t n = amount();
      other.RecordRead(origin, n);
      other_model.RecordRead(origin, n);
      other.RecordWrite(1);
      other_model.RecordWrite(1);
      if (below(4) == 0) {
        other.Rotate(1);
        other_model.Rotate(1);
      }
    }
    ASSERT_EQ(stats.TotalReads(), model.TotalReads()) << "step " << step;
    ASSERT_EQ(stats.TotalWrites(), model.TotalWrites()) << "step " << step;
    ASSERT_EQ(ReadsOf(stats), model.Reads()) << "step " << step;
    for (std::uint16_t origin = 0; origin < kOrigins; ++origin) {
      std::uint32_t want = 0;
      for (const auto& [o, reads] : model.Reads()) {
        if (o == origin) want = reads;
      }
      ASSERT_EQ(stats.ReadsFrom(origin), want) << "step " << step;
    }
    // The stepped copy holds the same windows and the same ring: every
    // lag's WindowMoves answer agrees.
    ASSERT_EQ(ReadsOf(stepped), ReadsOf(stats)) << "step " << step;
    ASSERT_EQ(stepped.TotalWrites(), stats.TotalWrites()) << "step " << step;
    for (std::uint32_t p = 0; p <= slots; ++p) {
      ASSERT_EQ(stepped.WindowMoves(p), stats.WindowMoves(p))
          << "step " << step << " lag " << p;
    }
  }
  if (slots > 1) {
    EXPECT_GT(quiet, 0u);
  }
}

// 32 slots is the most the activity bits track (31 completed ones); 40
// takes the full rotation path always.
INSTANTIATE_TEST_SUITE_P(CounterSlots, ReplicaStatsDifferentialTest,
                         ::testing::Values(1, 2, 5, 24, 32, 40));

// A rotation that moves nothing only advances the ring: the windows keep
// their totals, and the slot it skipped over still expires on time.
TEST(ReplicaStatsTest, QuietRotationKeepsTheRingInStep) {
  ReplicaStats stats(5);  // 4 completed slots
  stats.RecordRead(1, 3);
  EXPECT_TRUE(stats.WindowMoves(0));  // the current slot was read
  stats.Rotate(1);                    // the 3 reads take ring position 0
  EXPECT_FALSE(stats.WindowMoves(0));
  EXPECT_FALSE(stats.WindowMoves(3));  // positions 1, 2, 3 are empty
  EXPECT_TRUE(stats.WindowMoves(4));   // position 0 expires too
  stats.Rotate(2);
  EXPECT_EQ(stats.ReadsFrom(1), 3u);
  EXPECT_TRUE(stats.WindowMoves(2));  // positions 3, 0
  stats.Rotate(1);
  EXPECT_EQ(stats.ReadsFrom(1), 3u);
  stats.RecordWrite();
  EXPECT_TRUE(stats.WindowMoves(1));
  stats.Rotate(1);  // position 0 expires: the reads leave the window
  EXPECT_EQ(stats.ReadsFrom(1), 0u);
  EXPECT_EQ(stats.NumOrigins(), 0u);
  EXPECT_EQ(stats.TotalWrites(), 1u);
  // One slot: no completed slots, so any lag expires everything, and a
  // zero lag rotates nothing.
  ReplicaStats single(1);
  single.RecordRead(2, 1);
  single.Rotate(0);
  EXPECT_EQ(single.ReadsFrom(2), 1u);
  EXPECT_TRUE(single.WindowMoves(1));
  single.Rotate(1);
  EXPECT_EQ(single.NumOrigins(), 0u);
  EXPECT_FALSE(single.WindowMoves(0));
  EXPECT_FALSE(single.WindowMoves(1));
  single.Rotate(0);
  EXPECT_EQ(single.TotalWrites(), 0u);
}

TEST(ReplicaStatsTest, SaturatedSlotsExpireExactly) {
  ReplicaStats stats(3);
  ReferenceStats model(3);
  for (int slot = 0; slot < 5; ++slot) {
    stats.RecordRead(4, 0x10000u);  // one more than a slot holds
    model.RecordRead(4, 0x10000u);
    stats.RecordWrite(0x20000u);
    model.RecordWrite(0x20000u);
    EXPECT_EQ(stats.ReadsFrom(4), model.Reads().front().second);
    EXPECT_EQ(stats.TotalWrites(), model.TotalWrites());
    stats.Rotate();
    model.Rotate(1);
  }
  EXPECT_EQ(stats.ReadsFrom(4), 2u * 0xFFFFu);  // two completed slots
}

// ----- Utility & threshold plumbing -----

TEST(StoreServerTest, UtilityRoundTrip) {
  StoreServer server(0, SmallConfig());
  server.Insert(5);
  server.set_utility(5, 12.5);
  EXPECT_DOUBLE_EQ(server.utility(5), 12.5);
}

TEST(StoreServerTest, AdmissionThresholdDefaultsToZero) {
  StoreServer server(0, SmallConfig());
  EXPECT_DOUBLE_EQ(server.admission_threshold(), 0.0);
  server.set_admission_threshold(4.2);
  EXPECT_DOUBLE_EQ(server.admission_threshold(), 4.2);
}

// ----- Payload mode -----

TEST(StoreServerTest, PayloadModeAllocatesViewData) {
  StoreConfig config = SmallConfig();
  config.payload_mode = true;
  StoreServer server(0, config);
  server.Insert(3);
  ASSERT_NE(server.FindData(3), nullptr);
  EXPECT_EQ(server.FindData(3)->size(), 0u);
}

TEST(StoreServerTest, MetadataModeHasNoViewData) {
  StoreServer server(0, SmallConfig());
  server.Insert(3);
  EXPECT_EQ(server.FindData(3), nullptr);
}

TEST(ViewDataTest, AppendKeepsNewestBounded) {
  ViewData view(3);
  for (SimTime t = 0; t < 5; ++t) {
    view.Append(Event{0, t, "e" + std::to_string(t)});
  }
  ASSERT_EQ(view.size(), 3u);
  EXPECT_EQ(view.events()[0].time, 2u);
  EXPECT_EQ(view.events()[2].time, 4u);
}

TEST(ViewDataTest, ReplaceWithTruncatesToMax) {
  ViewData view(2);
  std::vector<Event> events;
  for (SimTime t = 0; t < 4; ++t) events.push_back(Event{1, t, "x"});
  view.ReplaceWith(events);
  ASSERT_EQ(view.size(), 2u);
  EXPECT_EQ(view.events()[0].time, 2u);
  EXPECT_EQ(view.events()[1].time, 3u);
}

}  // namespace
}  // namespace dynasore::store
