#include "runtime/auto_scaler.h"

#include <algorithm>

namespace dynasore::rt {

double AutoScaler::Imbalance(std::span<const ShardStats> deltas) {
  if (deltas.empty()) return 0;
  std::uint64_t total = 0;
  std::uint64_t max_ops = 0;
  for (const ShardStats& d : deltas) {
    total += d.requests;
    max_ops = std::max(max_ops, d.requests);
  }
  if (total == 0) return 0;
  const double mean =
      static_cast<double>(total) / static_cast<double>(deltas.size());
  return static_cast<double>(max_ops) / mean;
}

std::uint32_t AutoScaler::Observe(std::uint64_t epoch_index,
                                  std::uint32_t num_shards,
                                  std::span<const ShardStats> deltas,
                                  const EpochLatency& e2e) {
  const double target_us = static_cast<double>(config_.target_p99_micros);
  ScalerObservation obs;
  obs.epoch_index = epoch_index;
  obs.num_shards = num_shards;
  obs.e2e_p99_us = e2e.samples > 0 ? e2e.p99_us : 0.0;
  obs.slo_target_us = target_us;
  for (const ShardStats& d : deltas) {
    obs.total_ops += d.requests;
    obs.max_shard_ops = std::max(obs.max_shard_ops, d.requests);
    if (d.task_batches > 0) {
      obs.max_queue_backlog =
          std::max(obs.max_queue_backlog,
                   static_cast<double>(d.queue_backlog_sum) /
                       static_cast<double>(d.task_batches));
    }
  }
  obs.imbalance = Imbalance(deltas);

  if (cooldown_left_ > 0) {
    // Hysteresis: the epochs right after a resize reflect the hand-off, not
    // the steady state of the new layout. Hold, and keep the cold streak
    // from accruing stale evidence.
    --cooldown_left_;
    cold_streak_ = 0;
    obs.reason = "cooldown";
    obs.cooldown_left = cooldown_left_;
    obs.cold_streak = cold_streak_;
    history_.push_back(obs);
    return 0;
  }

  // Split triggers: raw load first, then the SLO breach — the latency
  // objective backstops the load threshold when it is mis-tuned for the
  // workload. Doubling matches hash sharding's halving of per-shard load.
  if (num_shards < config_.max_shards && obs.total_ops > 0) {
    const char* reason = nullptr;
    if (config_.split_shard_ops != 0 &&
        obs.max_shard_ops >= config_.split_shard_ops) {
      reason = "split-load";
    } else if (config_.target_p99_micros != 0 && e2e.samples > 0 &&
               e2e.p99_us > target_us) {
      reason = "split-slo";
    }
    if (reason != nullptr) {
      obs.decision = std::min(config_.max_shards, num_shards * 2);
      obs.reason = reason;
      cooldown_left_ = config_.cooldown_epochs;
      cold_streak_ = 0;
      obs.cooldown_left = cooldown_left_;
      obs.cold_streak = cold_streak_;
      history_.push_back(obs);
      return obs.decision;
    }
  }

  // Merge trigger: every shard cold (hottest below the threshold) for
  // merge_cold_epochs consecutive boundaries. One warm epoch resets the
  // streak — persistence, not a single quiet epoch, justifies shrinking.
  // The SLO policy vetoes the whole cold path while the end-to-end p99
  // sits above (1 - dead band) * target: halving the shard count roughly
  // doubles per-shard load, so a merge from just under the target would
  // immediately breach it. A veto resets the streak — the cold evidence is
  // not trustworthy while latency is hot.
  if (config_.merge_shard_ops != 0 && num_shards > config_.min_shards &&
      obs.max_shard_ops < config_.merge_shard_ops) {
    const bool slo_permits =
        config_.target_p99_micros == 0 || e2e.samples == 0 ||
        e2e.p99_us <= (1.0 - AutoScalerConfig::kSloDeadBand) * target_us;
    if (!slo_permits) {
      cold_streak_ = 0;
      obs.reason = "slo-merge-veto";
    } else {
      ++cold_streak_;
      if (cold_streak_ >= config_.merge_cold_epochs) {
        obs.decision = std::max(config_.min_shards, (num_shards + 1) / 2);
        obs.reason = "merge-cold";
        cooldown_left_ = config_.cooldown_epochs;
        cold_streak_ = 0;
        obs.cooldown_left = cooldown_left_;
        obs.cold_streak = cold_streak_;
        history_.push_back(obs);
        return obs.decision;
      }
    }
  } else {
    cold_streak_ = 0;
  }

  obs.cooldown_left = cooldown_left_;
  obs.cold_streak = cold_streak_;
  history_.push_back(obs);
  return 0;
}

}  // namespace dynasore::rt
