#include "net/traffic.h"

#include <cassert>

namespace dynasore::net {

TrafficRecorder::TrafficRecorder(const Topology& topo,
                                 const TrafficConfig& config)
    : topo_(&topo), config_(config) {
  assert(config_.bucket_seconds > 0);
  for (auto& t : totals_) t.assign(topo.num_switches(), 0);
  tier_.resize(topo.num_switches());
  for (SwitchId sw = 0; sw < topo.num_switches(); ++sw) {
    tier_[sw] = topo.tier_of_switch(sw);
  }
}

std::uint64_t TrafficRecorder::SwitchTotal(SwitchId sw, MsgClass cls) const {
  return totals_[static_cast<std::size_t>(cls)][sw];
}

std::uint64_t TrafficRecorder::TierTotal(Tier tier, MsgClass cls) const {
  std::uint64_t sum = 0;
  const auto& totals = totals_[static_cast<std::size_t>(cls)];
  for (SwitchId sw = 0; sw < topo_->num_switches(); ++sw) {
    if (tier_[sw] == tier) sum += totals[sw];
  }
  return sum;
}

double TrafficRecorder::TierAverage(Tier tier, MsgClass cls) const {
  const std::uint32_t count = SwitchesInTier(tier);
  return count == 0 ? 0.0
                    : static_cast<double>(TierTotal(tier, cls)) / count;
}

std::uint32_t TrafficRecorder::SwitchesInTier(Tier tier) const {
  if (topo_->is_flat()) return tier == Tier::kTop ? 1 : 0;
  switch (tier) {
    case Tier::kTop:
      return 1;
    case Tier::kIntermediate:
      return topo_->num_intermediates();
    case Tier::kRack:
      return topo_->num_racks();
  }
  return 0;
}

const std::vector<std::uint64_t>& TrafficRecorder::Series(Tier tier,
                                                          MsgClass cls) const {
  return series_[static_cast<std::size_t>(cls)][static_cast<std::size_t>(tier)];
}

std::uint64_t TrafficRecorder::SeriesRange(Tier tier, MsgClass cls,
                                           std::size_t from,
                                           std::size_t to) const {
  const auto& series = Series(tier, cls);
  std::uint64_t sum = 0;
  for (std::size_t i = from; i < to && i < series.size(); ++i) sum += series[i];
  return sum;
}

void TrafficRecorder::Reset() {
  for (auto& t : totals_) t.assign(topo_->num_switches(), 0);
  for (auto& per_class : series_) {
    for (auto& series : per_class) series.clear();
  }
  num_buckets_ = 0;
}

}  // namespace dynasore::net
