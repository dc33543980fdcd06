#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "store/store_server.h"
#include "store/view_data.h"

namespace dynasore::store {
namespace {

StoreConfig SmallConfig(std::uint32_t capacity = 10) {
  StoreConfig config;
  config.capacity_views = capacity;
  return config;
}

// ----- Capacity management -----

TEST(StoreServerTest, InsertUntilFull) {
  StoreServer server(0, SmallConfig(3));
  EXPECT_TRUE(server.Insert(1));
  EXPECT_TRUE(server.Insert(2));
  EXPECT_TRUE(server.Insert(3));
  EXPECT_TRUE(server.Full());
  EXPECT_FALSE(server.Insert(4));
  EXPECT_EQ(server.used(), 3u);
}

TEST(StoreServerTest, InsertExistingIsIdempotent) {
  StoreServer server(0, SmallConfig(2));
  EXPECT_TRUE(server.Insert(7));
  EXPECT_TRUE(server.Insert(7));
  EXPECT_EQ(server.used(), 1u);
}

TEST(StoreServerTest, EraseFreesSpace) {
  StoreServer server(0, SmallConfig(1));
  EXPECT_TRUE(server.Insert(1));
  EXPECT_TRUE(server.Full());
  server.Erase(1);
  EXPECT_FALSE(server.Has(1));
  EXPECT_TRUE(server.Insert(2));
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
  server.RecordWrite(7);
  EXPECT_DOUBLE_EQ(server.utility(1), -1.0);
  EXPECT_DOUBLE_EQ(server.utility_at(2), 2.5);
  EXPECT_EQ(server.stats_at(1).TotalWrites(), 1u);
}

// ----- Statistics -----

TEST(StoreServerTest, RecordReadTracksOrigins) {
  StoreServer server(0, SmallConfig());
  server.Insert(5);
  server.RecordRead(5, 2);
  server.RecordRead(5, 2);
  server.RecordRead(5, 7);
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
  server.RecordWrite(5);
  server.RecordWrite(5);
  EXPECT_EQ(server.Find(5)->TotalWrites(), 2u);
}

TEST(StoreServerTest, RotationExpiresOldWindow) {
  StoreConfig config = SmallConfig();
  config.counter_slots = 3;
  StoreServer server(0, config);
  server.Insert(5);
  server.RecordRead(5, 1);
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
    server.RecordRead(1, origin);
    server.RecordRead(2, origin);
    server.RecordWrite(2);
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
  server.RecordRead(3, 0);
  server.AdvanceSlot();
  EXPECT_EQ(server.Find(3)->TotalReads(), 1u);
}

TEST(ReplicaStatsTest, CollectReadsSkipsEmptyOrigins) {
  ReplicaStats stats(4);
  stats.RecordRead(3, 5);
  stats.RecordRead(8, 2);
  stats.RecordRead(1, 1);
  std::vector<ReplicaStats::OriginReads> out;
  stats.CollectReads(out);
  ASSERT_EQ(out.size(), 3u);
  // Sorted by origin.
  EXPECT_EQ(out[0].origin, 1);
  EXPECT_EQ(out[1].origin, 3);
  EXPECT_EQ(out[1].reads, 5u);
  EXPECT_EQ(out[2].origin, 8);
}

TEST(ReplicaStatsTest, RotationDropsEmptyOriginEntries) {
  ReplicaStats stats(2);
  stats.RecordRead(1, 1);
  stats.Rotate();
  stats.Rotate();
  std::vector<ReplicaStats::OriginReads> out;
  stats.CollectReads(out);
  EXPECT_TRUE(out.empty());
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
