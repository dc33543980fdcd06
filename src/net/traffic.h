// Per-switch traffic accounting. Every message adds its size to every switch
// it traverses; the paper's headline metric is the resulting load on the top
// switch, with per-tier breakdowns (Tables 2-3) and time series (Figs 4/6).
//
// Application messages (read/write requests and their answers) weigh 10
// units; protocol/system messages weigh 1 (paper §4.3). Replica copies carry
// a view and weigh `view_copy_size` but are classed as system traffic so the
// convergence experiment (Fig 6) can separate the two.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/types.h"
#include "net/topology.h"

namespace dynasore::net {

enum class MsgClass : std::uint8_t { kApp = 0, kSystem = 1 };
inline constexpr int kNumMsgClasses = 2;

struct TrafficConfig {
  std::uint32_t app_msg_size = 10;
  std::uint32_t sys_msg_size = 1;
  std::uint32_t view_copy_size = 10;
  // When true, a read coalesces all view requests that target the same
  // server into a single request/answer pair (ablation; the default follows
  // one message per view).
  bool batch_per_server = false;
  std::uint32_t bucket_seconds = static_cast<std::uint32_t>(kSecondsPerHour);
};

class TrafficRecorder {
 public:
  TrafficRecorder(const Topology& topo, const TrafficConfig& config);

  const TrafficConfig& config() const { return config_; }

  // Adds one message of `size` units over `path` at time `t`.
  void Record(const SwitchPath& path, std::uint32_t size, MsgClass cls,
              SimTime t);

  // Request + answer of the same size over the same path: one charge of
  // twice the size, which adds up to the same integer sums.
  void RecordRoundTrip(const SwitchPath& path, std::uint32_t size,
                       MsgClass cls, SimTime t) {
    Record(path, 2 * size, cls, t);
  }

  std::uint64_t SwitchTotal(SwitchId sw, MsgClass cls) const;
  std::uint64_t TierTotal(Tier tier, MsgClass cls) const;
  double TierAverage(Tier tier, MsgClass cls) const;

  // Number of switches aggregated into a tier (1 top, m intermediates,
  // R racks; the flat topology has a single switch in tier kTop).
  std::uint32_t SwitchesInTier(Tier tier) const;

  // Per-bucket series of tier traffic (bucket = t / bucket_seconds).
  const std::vector<std::uint64_t>& Series(Tier tier, MsgClass cls) const;

  // Sum of the series over bucket range [from, to).
  std::uint64_t SeriesRange(Tier tier, MsgClass cls, std::size_t from,
                            std::size_t to) const;

  std::size_t NumBuckets() const { return num_buckets_; }

  void Reset();

 private:
  const Topology* topo_;
  TrafficConfig config_;
  std::vector<Tier> tier_;  // by switch: Topology::tier_of_switch, cached
  // totals_[cls][switch]
  std::array<std::vector<std::uint64_t>, kNumMsgClasses> totals_;
  // series_[cls][tier][bucket]
  std::array<std::array<std::vector<std::uint64_t>, kNumTiers>, kNumMsgClasses>
      series_;
  std::size_t num_buckets_ = 0;
};

// Every message charge runs through here, so it is inline.
inline void TrafficRecorder::Record(const SwitchPath& path, std::uint32_t size,
                                    MsgClass cls, SimTime t) {
  const auto c = static_cast<std::size_t>(cls);
  const std::size_t bucket = static_cast<std::size_t>(t / config_.bucket_seconds);
  if (bucket >= num_buckets_) num_buckets_ = bucket + 1;
  for (int i = 0; i < path.count; ++i) {
    const SwitchId sw = path.hops[i];
    totals_[c][sw] += size;
    auto& series = series_[c][static_cast<std::size_t>(tier_[sw])];
    if (series.size() <= bucket) series.resize(bucket + 1, 0);
    series[bucket] += size;
  }
}

}  // namespace dynasore::net
