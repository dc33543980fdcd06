// Configuration for the sharded serving runtime.
//
// A RuntimeConfig is a plain value: copy it freely, validate with
// Validate(). ShardedRuntime copies it at construction; mutating a config
// after constructing a runtime has no effect. The shard count it carries is
// only the *initial* topology — ShardedRuntime::Reconfigure changes the
// live shard count at epoch boundaries without a new config.
#pragma once

#include <cstdint>
#include <stdexcept>

namespace dynasore::rt {

// When cross-shard work is applied on its destination shard.
enum class DrainPolicy : std::uint8_t {
  // Deterministic: channels drain only at epoch boundaries, in global
  // sequence order. Results are byte-identical across runs and with the
  // inline fallback.
  kEpoch,
  // Opportunistic: after every request batch a worker ships its staged
  // remote work and serves whatever its inbound channels hold, trading
  // strict determinism for sub-epoch read freshness and lower completion
  // latency. Conservation (every request and every slice executed exactly
  // once) still holds.
  kEager,
};

// Closed-loop reconfiguration policy (rt::AutoScaler): at every epoch
// boundary the runtime feeds the scaler the per-epoch ShardStats deltas and
// end-to-end p99, and it decides whether to split (double, clamped to
// max_shards), merge (halve, clamped to min_shards), or hold. All
// thresholds are *per-epoch* values — the scaler only ever sees one epoch's
// delta, never cumulative counters.
//
// Hysteresis, so the loop cannot thrash: (1) after any decision the scaler
// holds for cooldown_epochs boundaries, (2) a merge additionally requires
// merge_cold_epochs *consecutive* cold epochs (every shard below
// merge_shard_ops), and the cold streak resets on any warm epoch or resize,
// (3) Validate() enforces a dead band between the split and merge load
// thresholds (merge_shard_ops <= split_shard_ops / 2): halving the shard
// count doubles per-shard load, so a merge landing exactly at the split
// threshold would immediately split again. See docs/reconfiguration.md.
struct AutoScalerConfig {
  // Off by default: Reconfigure() stays fully operator-driven.
  bool enabled = false;

  // Shard-count bounds the scaler may move within. The runtime's initial
  // num_shards need not lie inside them — the scaler just never crosses
  // them. Valid ranges: min_shards >= 1, max_shards >= min_shards.
  std::uint32_t min_shards = 1;
  std::uint32_t max_shards = 8;

  // Boundaries to hold after any split or merge before the next decision,
  // letting the new layout's per-epoch deltas stabilize. Valid range: any
  // (0 disables the cooldown; migration windows still gate decisions).
  std::uint32_t cooldown_epochs = 2;

  // Split when the hottest shard executed at least this many owned requests
  // in one epoch. 0 disables the load trigger. Valid range: any.
  std::uint64_t split_shard_ops = 0;

  // Merge (halve) after merge_cold_epochs consecutive epochs in which
  // *every* shard stayed below merge_shard_ops owned requests.
  // merge_shard_ops 0 disables merging; merge_cold_epochs valid range:
  // >= 1.
  std::uint64_t merge_shard_ops = 0;
  std::uint32_t merge_cold_epochs = 3;

  // SLO policy: target for the *end-to-end* per-epoch p99 (the completion
  // join's latency — max over a request's slices — in microseconds). When
  // non-zero, the scaler additionally splits on any epoch whose end-to-end
  // p99 exceeds the target ("split-slo", after the load trigger), and
  // vetoes ops-cold merges while the p99 sits above
  // (1 - kSloDeadBand) * target — halving the shard count roughly doubles
  // per-shard load, so merging from just under the target would immediately
  // breach it. 0 disables the policy. Valid range: any.
  std::uint64_t target_p99_micros = 0;

  // Fraction below the target the end-to-end p99 must sit before the SLO
  // policy permits a merge (the latency analogue of the load dead band
  // above).
  static constexpr double kSloDeadBand = 0.25;

  // Checks the ranges above plus the split/merge dead band; throws
  // std::invalid_argument naming the offending field. Called by
  // RuntimeConfig::Validate.
  void Validate() const {
    if (min_shards == 0) {
      throw std::invalid_argument(
          "AutoScalerConfig::min_shards must be at least 1 (0 shards cannot "
          "own the id space)");
    }
    if (max_shards < min_shards) {
      throw std::invalid_argument(
          "AutoScalerConfig::max_shards must be >= min_shards (the scaler "
          "moves within [min_shards, max_shards])");
    }
    if (merge_cold_epochs == 0) {
      throw std::invalid_argument(
          "AutoScalerConfig::merge_cold_epochs must be at least 1 (a merge "
          "needs at least one observed cold epoch)");
    }
    if (enabled && split_shard_ops != 0 && merge_shard_ops != 0 &&
        merge_shard_ops > split_shard_ops / 2) {
      throw std::invalid_argument(
          "AutoScalerConfig::merge_shard_ops must be <= split_shard_ops / 2: "
          "halving the shard count doubles per-shard load, so a narrower "
          "dead band lets a merge land straight back on the split threshold "
          "(thrash)");
    }
  }
};

// Observability layer (rt::Telemetry): per-epoch metric sampling plus a
// per-shard ring-buffered structured event trace, exportable as a Chrome
// trace-event JSON (Perfetto) and a per-epoch CSV time series. Disabled by
// default and compiled in: when off the runtime carries a null Telemetry
// pointer and the hot path pays one branch per instrumentation site — no
// clock reads, no event writes, and bit-identical results to a build that
// never had the layer (runtime_telemetry_test.cc pins this).
struct TelemetryConfig {
  bool enabled = false;

  // Trace ring capacity per track (one track per shard plus the
  // dispatcher), in events. The ring overwrites its oldest events and the
  // snapshot reports how many were dropped; per-track sequence numbers stay
  // monotone across drops.
  static constexpr std::uint32_t kEventCapacity = 16384;
};

// CPU/NUMA-aware worker placement. Off by default: the OS scheduler places
// worker threads freely. Placement is strictly best-effort: on machines or
// containers where affinity calls fail or the CPU set is smaller than the
// shard count, the runtime records the failure in telemetry (a kPlacement
// trace event per worker) and carries on unpinned — results are
// bit-identical with placement on or off under kEpoch, so the fallback is
// always safe.
struct PlacementConfig {
  // Before it executes any task, worker s pins itself to CPU s % num_cpus
  // (pthread_setaffinity_np on the worker thread itself) and first-touches
  // its hot memory from that CPU, so pages land on the pinned core's NUMA
  // node: it touches the consumer side of its inbound fabric channels and,
  // on the first run only, while the engines are still pristine (no
  // requests executed, no reconfiguration, no imported state), rebuilds
  // its shard's engine on the worker thread. Engine construction is
  // deterministic from the runtime's immutable inputs, so the rebuilt
  // engine is identical to the one built at construction. The inline
  // fallback (spawn_threads = false) has no worker threads to place.
  bool pin_workers = false;
};

// When a replicated write is considered durable on its backups.
enum class ReplicationMode : std::uint8_t {
  // The write's replication record ships with the same epoch's boundary
  // flush and is applied in that boundary's drain — a write is never
  // exposed past an epoch boundary without its backups having applied it,
  // so a kill at any boundary loses zero acknowledged writes.
  kSync,
  // Replication records buffer on the primary and ship lazily: each
  // boundary retains up to async_max_lag of the newest records and ships
  // the overflow (oldest first). Bounded lag, measured per boundary and
  // exported as the repl_lag telemetry gauge; a kill loses exactly the
  // records still buffered (recovered from persist in payload mode).
  kAsync,
};

// Shard replication (rt::Replicator): every write executed by shard s is
// mirrored to its designated backups — backup k of shard s is shard
// (s + k) % num_shards for k in [1, factor] — over the existing fabric, so
// a killed shard's views fail over to a fresh backup and rebuild online
// (see docs/fault_tolerance.md). Off by default: with enabled == false the
// runtime carries no Replicator, the hot path takes no new branches, and
// fault-free runs are bit-identical to a build without the subsystem.
//
// Payload-mode note: with EngineConfig::store.payload_mode the runtime
// already fans every write to every peer for cache coherence; replication
// then just flags the designated backups' copies as replication records
// (effectively sync — the coherence stream always ships at the boundary,
// so kAsync buffers nothing and the lag gauge stays 0).
struct ReplicationConfig {
  bool enabled = false;

  // See ReplicationMode. Only meaningful when enabled.
  ReplicationMode mode = ReplicationMode::kSync;

  // Backups per shard. Valid range: [1, num_shards - 1] when enabled — the
  // cross-field upper bound lives in RuntimeConfig::Validate (shard s's
  // backups are (s+1 .. s+factor) mod num_shards, so factor >= num_shards
  // would wrap a shard onto itself).
  std::uint32_t factor = 1;

  // kAsync: replication records a primary may retain unshipped across an
  // epoch boundary (per shard). Valid range: >= 1 in async mode (0 retained
  // records is sync replication — use kSync and say so).
  std::uint32_t async_max_lag = 256;

  // Views restored per epoch boundary during an online rebuild — the
  // rebuild-side analogue of migration_batch, bounding each boundary's
  // quiesced pause to O(rebuild_batch) view imports. Shared by all rebuild
  // work classes (replica import, persist refresh, backup resync). Also
  // governs rebuilds after a kill with replication disabled. Valid range:
  // >= 1 (a zero batch never completes).
  std::uint32_t rebuild_batch = 256;

  // Checks the ranges above; throws std::invalid_argument naming the
  // offending field. Called by RuntimeConfig::Validate (which adds the
  // factor-vs-shard-count cross check).
  void Validate() const {
    if (enabled && factor == 0) {
      throw std::invalid_argument(
          "ReplicationConfig::factor must be at least 1 when replication is "
          "enabled (0 backups replicate nothing — disable instead)");
    }
    if (enabled && mode == ReplicationMode::kAsync && async_max_lag == 0) {
      throw std::invalid_argument(
          "ReplicationConfig::async_max_lag must be at least 1 in async "
          "mode (a 0-record lag bound is sync replication — use kSync)");
    }
    if (rebuild_batch == 0) {
      throw std::invalid_argument(
          "ReplicationConfig::rebuild_batch must be at least 1 (a rebuild "
          "that restores 0 views per boundary never completes)");
    }
  }
};

struct RuntimeConfig {
  // Worker shards, each backed by its own core::Engine. 1 means the
  // single-shard configuration whose counters must match the sequential
  // engine exactly. Valid range: >= 1 (see Validate). This is only the
  // *initial* topology: Reconfigure() and the auto-scaler change the live
  // count at epoch boundaries.
  std::uint32_t num_shards = 1;

  // Task batches that may be in flight per shard queue before the
  // dispatcher blocks (backpressure bound, in batches not requests). Also
  // sizes the fabric's per-channel capacity: the epoch protocol fully
  // drains every channel while producers are quiescent, so queue_depth + 2
  // batches per channel never blocks an epoch-boundary flush. Valid range:
  // >= 1 (see Validate). Default chosen by scripts/tune_runtime.py from
  // the committed results/tune_runtime.csv sweep (16 shards, epoch drain).
  std::uint32_t queue_depth = 256;

  // Requests per task batch pushed into a shard queue. Batching amortizes
  // the queue handoff; the engine work per request dwarfs it at this size.
  // Valid range: >= 1 (see Validate). Default swept alongside queue_depth
  // (see results/tune_runtime.csv).
  std::uint32_t batch_size = 256;

  // See DrainPolicy. Either way an epoch is one engine slot
  // (EngineConfig::slot_seconds): cross-shard channels are fully drained
  // and engine ticks fire at epoch boundaries.
  DrainPolicy drain = DrainPolicy::kEpoch;

  // View migration batch: how many views a reconfiguration's migration
  // window hands over per epoch boundary. 0 (the default) is the whole
  // ledger in one step — the window opens and closes at the triggering
  // boundary; a positive value spreads the hand-off over
  // ceil(changed / migration_batch) consecutive boundaries, bounding each
  // pause to O(migration_batch) view exports/imports — during the window
  // the ShardMap routes dual-ownership (migrated views to the new owner,
  // pending views to the old; see shard_map.h). Only applies to resizes
  // requested while a run is in progress: between runs there are no
  // boundaries to spread over, so the batch is always the whole ledger.
  // Valid range: any.
  std::uint32_t migration_batch = 0;

  // Shard replication + online rebuild; disabled by default (see
  // ReplicationConfig above).
  ReplicationConfig replication;

  // Closed-loop reconfiguration policy; disabled by default (see
  // AutoScalerConfig above).
  AutoScalerConfig scaler;

  // Observability layer; disabled by default (see TelemetryConfig above).
  TelemetryConfig telemetry;

  // Worker placement; disabled by default (see PlacementConfig above).
  PlacementConfig placement;

  // false selects the deterministic inline fallback: the same epoch state
  // machine executed on the calling thread, shard by shard, with no threads
  // or locks involved. Produces byte-identical results to the threaded
  // path under kEpoch (which is itself deterministic by construction).
  // true runs one long-lived worker thread per shard, started by the first
  // Run that needs it and parked between runs (ShardedRuntime::Run).
  bool spawn_threads = true;

  // Checks every statically checkable range above, throwing
  // std::invalid_argument whose message names the offending field. The
  // checks sit next to the documented ranges on purpose — update both
  // together. ShardedRuntime calls this at construction; call it yourself
  // to fail fast when configs come from flags or files.
  void Validate() const {
    if (num_shards == 0) {
      throw std::invalid_argument(
          "RuntimeConfig::num_shards must be at least 1 (0 shards cannot own "
          "the id space)");
    }
    if (queue_depth == 0) {
      throw std::invalid_argument(
          "RuntimeConfig::queue_depth must be at least 1 (the dispatcher "
          "needs one in-flight task batch per shard)");
    }
    if (batch_size == 0) {
      throw std::invalid_argument(
          "RuntimeConfig::batch_size must be at least 1 (0 requests per task "
          "batch would never flush)");
    }
    replication.Validate();
    if (replication.enabled && replication.factor >= num_shards) {
      throw std::invalid_argument(
          "ReplicationConfig::factor must be < RuntimeConfig::num_shards: "
          "shard s's backups are (s+1 .. s+factor) mod num_shards, so a "
          "factor at or above the shard count would wrap a shard onto "
          "itself as its own backup");
    }
    scaler.Validate();
  }
};

}  // namespace dynasore::rt
