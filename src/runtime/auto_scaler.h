// Closed-loop reconfiguration policy for the sharded runtime: DynaSoRe's
// central claim is that the store adapts its in-memory layout to observed
// traffic, and this is the control loop that drives the mechanism.
// ShardedRuntime::Reconfigure gives epoch-boundary split/merge; the
// AutoScaler decides *when* — at every boundary it consumes the per-epoch
// ShardStats deltas (owned-request load) and end-to-end p99 and requests a
// split when any shard runs hot or a merge when every shard runs
// persistently cold, with hysteresis (cooldown boundaries, a consecutive-
// cold-epochs requirement, and a validated dead band between the split and
// merge thresholds) so the loop cannot thrash. Thresholds and bounds live
// in AutoScalerConfig (runtime_config.h); the worked policy walkthrough is
// docs/reconfiguration.md.
//
// Ownership and thread-safety: an AutoScaler is owned by its runtime and
// touched only by the dispatcher thread at quiescent points (every worker
// parked, every channel empty) — it is not internally synchronized. It
// holds no reference to the runtime: Observe is a pure fold over the deltas
// plus the scaler's own hysteresis state, which makes the policy unit-
// testable without a runtime and its decisions deterministic for a
// deterministic input sequence (kEpoch runs replay bit-identically).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "runtime/runtime_config.h"
#include "runtime/sharded_runtime.h"

namespace dynasore::rt {

// One epoch's end-to-end latency evidence for the SLO policy: how many
// requests completed their join this boundary and the p99 of their
// dispatch-to-last-slice latency (microseconds). samples == 0 means "no
// latency evidence this epoch" — the SLO policy neither splits nor vetoes
// on an empty epoch.
struct EpochLatency {
  std::uint64_t samples = 0;
  double p99_us = 0;
};

// One boundary's view of the cluster and what the scaler did with it —
// the audit trail benches and tests read back (AutoScaler::history).
struct ScalerObservation {
  std::uint64_t epoch_index = 0;
  std::uint32_t num_shards = 0;    // live shard count observed
  std::uint64_t total_ops = 0;     // owned requests executed this epoch
  std::uint64_t max_shard_ops = 0; // hottest shard's owned requests
  double imbalance = 0;            // max/mean ops; 0 on an empty epoch
  double max_queue_backlog = 0;    // hottest shard's mean queued batches
  double e2e_p99_us = 0;           // epoch's end-to-end p99 (µs); 0 = none
  double slo_target_us = 0;        // config target (µs); 0 = SLO policy off
  std::uint32_t decision = 0;      // requested shard count; 0 = hold
  const char* reason = "";         // "", "cooldown", "split-load",
                                   // "split-slo", "merge-cold",
                                   // "slo-merge-veto"
  // Hysteresis state *after* this boundary's bookkeeping: boundaries still
  // to hold before the next decision, and consecutive cold epochs counted
  // toward a merge. A firing decision resets both (cooldown restarts at
  // config.cooldown_epochs for the *next* observation). Telemetry exports
  // these with every decision so a trace shows why the scaler held.
  std::uint32_t cooldown_left = 0;
  std::uint32_t cold_streak = 0;
};

class AutoScaler {
 public:
  // `config` must already be validated (RuntimeConfig::Validate does).
  explicit AutoScaler(const AutoScalerConfig& config) : config_(config) {}

  // Consumes one epoch's per-shard activity deltas (ShardStats::DeltaSince
  // over the live shard set) and returns the shard count to reconfigure
  // to, or 0 to hold. Splits double the count (clamped to max_shards),
  // merges halve it rounding up (clamped to min_shards); a count already at
  // its bound holds. Records one ScalerObservation per call. Not consulted
  // while a migration window is in flight — the runtime skips those
  // boundaries (and any boundary whose shard set changed size, where no
  // per-epoch delta exists).
  //
  // `e2e` is the epoch's end-to-end latency delta (the completion join's
  // per-epoch histogram, see sharded_runtime.h). With
  // config.target_p99_micros != 0 it drives the SLO policy: a second split
  // trigger ("split-slo") when the p99 breaches the target, and a merge
  // veto ("slo-merge-veto") while the p99 sits above
  // (1 - kSloDeadBand) * target. Defaulted so load-only callers and unit
  // tests need not fabricate latency evidence.
  std::uint32_t Observe(std::uint64_t epoch_index, std::uint32_t num_shards,
                        std::span<const ShardStats> deltas,
                        const EpochLatency& e2e = {});

  // Per-epoch imbalance: hottest shard's owned requests over the per-shard
  // mean. 1.0 is perfectly balanced; 0 when the epoch executed nothing.
  static double Imbalance(std::span<const ShardStats> deltas);

  // Every Observe call in order, across runs. Grows by one per boundary;
  // callers snapshot or index it between runs only.
  const std::vector<ScalerObservation>& history() const { return history_; }

  const AutoScalerConfig& config() const { return config_; }

 private:
  AutoScalerConfig config_;
  std::uint32_t cooldown_left_ = 0;
  std::uint32_t cold_streak_ = 0;
  std::vector<ScalerObservation> history_;
};

}  // namespace dynasore::rt
