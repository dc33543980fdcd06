// Configuration for the sharded serving runtime.
//
// A RuntimeConfig is a plain value: copy it freely, validate with
// Validate(). ShardedRuntime copies it at construction; mutating a config
// after constructing a runtime has no effect. The shard count it carries is
// only the *initial* topology — ShardedRuntime::Reconfigure changes the
// live shard count at epoch boundaries without a new config.
#pragma once

#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "common/types.h"
#include "runtime/fabric.h"
#include "runtime/shard_map.h"

namespace dynasore::rt {

// When cross-shard work is applied on its destination shard.
enum class DrainPolicy : std::uint8_t {
  // Deterministic: channels drain only at epoch boundaries, in global
  // sequence order. Results are byte-identical across runs, shard counts,
  // transports, and the inline fallback.
  kEpoch,
  // Opportunistic: workers additionally poll their inbound channels between
  // request batches and serve remote slices whose age exceeds
  // staleness_micros, trading strict determinism for sub-epoch read
  // freshness and lower completion latency. Conservation (every request and
  // every slice executed exactly once) still holds.
  kEager,
};

// Closed-loop reconfiguration policy (rt::AutoScaler): at every epoch
// boundary the runtime feeds the scaler the per-epoch ShardStats deltas and
// it decides whether to split (double, clamped to max_shards), merge (halve,
// clamped to min_shards), or hold. All thresholds are *per-epoch* values —
// the scaler only ever sees one epoch's delta, never cumulative counters.
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

  // Split when the per-epoch imbalance — hottest shard's owned requests
  // divided by the per-shard mean — reaches this ratio (needs >= 2 shards
  // and a non-empty epoch). 0 disables. Valid range: 0 or >= 1.0.
  double split_imbalance = 0.0;

  // Split when any shard's mean task-queue backlog (batches already queued
  // ahead of each batch the dispatcher pushes, ShardStats::
  // queue_backlog_sum / task_batches) reaches this depth — the dispatcher
  // is outrunning the shard. 0 disables. Valid range: >= 0, not NaN.
  double split_queue_backlog = 0.0;

  // Merge (halve) after merge_cold_epochs consecutive epochs in which
  // *every* shard stayed below merge_shard_ops owned requests.
  // merge_shard_ops 0 disables merging; merge_cold_epochs valid range:
  // >= 1.
  std::uint64_t merge_shard_ops = 0;
  std::uint32_t merge_cold_epochs = 3;

  // SLO policy: target for the *end-to-end* per-epoch p99 (the completion
  // join's latency — max over a request's slices — in microseconds). When
  // non-zero, the scaler additionally splits on any epoch whose end-to-end
  // p99 exceeds the target ("split-slo", after the load/imbalance/backlog
  // triggers), and vetoes ops-cold merges while the p99 sits above
  // (1 - slo_dead_band) * target — halving the shard count roughly doubles
  // per-shard load, so merging from just under the target would immediately
  // breach it. 0 disables the policy. Valid range: any.
  std::uint64_t target_p99_micros = 0;

  // Fraction below the target the end-to-end p99 must sit before the SLO
  // policy permits a merge (the latency analogue of the load dead band
  // above). Only meaningful with target_p99_micros != 0. Valid range:
  // [0, 1), not NaN.
  double slo_dead_band = 0.25;

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
    if (std::isnan(split_imbalance) ||
        (split_imbalance != 0.0 && split_imbalance < 1.0)) {
      throw std::invalid_argument(
          "AutoScalerConfig::split_imbalance must be 0 (disabled) or >= 1.0 "
          "(hottest/mean ratio; values below 1 would fire on every epoch, "
          "and NaN would silently never fire)");
    }
    if (std::isnan(split_queue_backlog) || split_queue_backlog < 0.0) {
      throw std::invalid_argument(
          "AutoScalerConfig::split_queue_backlog must be a number >= 0 "
          "(mean batches queued ahead of each dispatched batch; NaN would "
          "silently never fire)");
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
    if (std::isnan(slo_dead_band) || slo_dead_band < 0.0 ||
        slo_dead_band >= 1.0) {
      throw std::invalid_argument(
          "AutoScalerConfig::slo_dead_band must be in [0, 1) (the fraction "
          "below target_p99_micros the end-to-end p99 must reach before a "
          "merge is permitted; 1 or more would veto merges forever, and NaN "
          "would silently never veto)");
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
  // monotone across drops. Valid range: >= 1 when enabled (see Validate).
  std::uint32_t event_capacity = 16384;

  // Checks the ranges above; throws std::invalid_argument naming the
  // offending field. Called by RuntimeConfig::Validate.
  void Validate() const {
    if (enabled && event_capacity == 0) {
      throw std::invalid_argument(
          "TelemetryConfig::event_capacity must be at least 1 when telemetry "
          "is enabled (a zero-capacity trace ring cannot hold any event)");
    }
  }
};

// CPU/NUMA-aware worker placement. Off by default: the OS scheduler places
// worker threads freely, exactly as before this config existed. When
// enabled, each spawned worker pins itself to a CPU and (optionally)
// first-touches its hot memory from that CPU before the first request is
// dispatched, so pages land on the pinned core's NUMA node. Placement is
// strictly best-effort: on machines/containers where affinity calls fail
// or the CPU set is smaller than the shard count, the runtime records the
// failure in telemetry (a kPlacement trace event per worker) and carries on
// unpinned — results are bit-identical with placement on or off under
// kEpoch, so the fallback is always safe.
struct PlacementConfig {
  // Pin worker s to CPU (cpu_offset + s * cpu_stride) % num_cpus via
  // pthread_setaffinity_np on the worker thread itself, before it executes
  // any task. The inline fallback (spawn_threads = false) ignores pinning —
  // there are no worker threads to pin.
  bool pin_threads = false;

  // First CPU of the placement pattern. Valid range: any (wrapped by
  // num_cpus at use).
  std::uint32_t cpu_offset = 0;

  // CPU distance between consecutive shards — 1 packs shards onto adjacent
  // CPUs, 2 skips SMT siblings on hyperthreaded layouts. Valid range: >= 1
  // (see Validate; a stride of 0 would pin every worker to the same CPU).
  std::uint32_t cpu_stride = 1;

  // After pinning, each worker touches the consumer side of its inbound
  // fabric channels and pre-faults its drain/scratch buffers from the
  // pinned CPU, and — on the first run only, while the engines are still
  // pristine (no requests executed, no reconfiguration, no imported state)
  // — rebuilds its shard's engine on the worker thread so the store pages
  // are first-touched on the owning worker's NUMA node. Engine construction
  // is deterministic from the runtime's immutable inputs, so the rebuilt
  // engine is identical to the one built at construction. Only meaningful
  // with spawn_threads; requires pin_threads to matter for locality but is
  // honored independently.
  bool first_touch = false;

  // Whether any placement work happens at worker start.
  bool Active() const { return pin_threads || first_touch; }

  // Checks the ranges above; throws std::invalid_argument naming the
  // offending field. Called by RuntimeConfig::Validate.
  void Validate() const {
    if ((pin_threads || first_touch) && cpu_stride == 0) {
      throw std::invalid_argument(
          "PlacementConfig::cpu_stride must be at least 1 when placement is "
          "enabled (stride 0 would pin every worker to the same CPU)");
    }
  }
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

  // How the user/view id space maps onto shards.
  ShardingMode sharding = ShardingMode::kHash;

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

  // Epoch length in simulated seconds: cross-shard channels are fully
  // drained and engine ticks fire at epoch boundaries. Must divide the
  // engine's slot_seconds so tick times land on boundaries; 0 means "one
  // epoch per engine slot". Values that do not divide slot_seconds are
  // rounded down to the nearest divisor; a value that rounds down to 0
  // (only possible when the engine's slot_seconds is 0) is rejected by
  // ShardedRuntime's constructor, which knows the engine slot — Validate()
  // cannot check it here.
  SimTime epoch_seconds = 0;

  // Cross-shard transport: lock-free SPSC rings (the default) or the
  // original mutex-guarded queues. Under DrainPolicy::kEpoch both produce
  // bit-for-bit identical results.
  FabricTransport transport = FabricTransport::kSpsc;

  // See DrainPolicy.
  DrainPolicy drain = DrainPolicy::kEpoch;

  // kEager only: minimum wall-clock age (microseconds) of a channel's
  // oldest pending op before a mid-epoch poll serves it. 0 serves remote
  // slices as soon as a poll observes them; a large bound degenerates to
  // kEpoch behavior (everything waits for the boundary drain). Valid range:
  // [0, kMaxStalenessMicros] — the bound is compared in nanoseconds, so
  // anything larger would overflow the ns clock domain. Validate() rejects
  // out-of-range values up front instead of silently clamping at use.
  std::uint64_t staleness_micros = 0;
  static constexpr std::uint64_t kMaxStalenessMicros =
      ~std::uint64_t{0} / 1000;  // largest µs value representable in ns

  // kEager only: close the loop over staleness_micros. When set, the
  // dispatcher watches each epoch's remote-slice freshness percentiles (the
  // per-epoch delta of the remote-latency histogram) at the boundary
  // quiescent point and retunes the live staleness bound the eager polls
  // read: halve it when the epoch's freshness p99 exceeds
  // staleness_target_p99_micros (serve remote slices sooner), double it
  // when the p99 sits below half the target (freshness to spare — batch
  // more, poll less), hold inside the dead zone between them. The live
  // bound moves in [0, kMaxTunedStalenessMicros]; staleness_micros is only
  // its starting point. Requires drain == kEager and a non-zero target
  // (see Validate).
  bool tune_staleness = false;

  // Target for the per-epoch remote-slice freshness p99, in microseconds.
  // Valid range: >= 1 when tune_staleness is set (a 0-µs freshness target
  // is unreachable — every remote slice takes non-zero time to arrive).
  std::uint64_t staleness_target_p99_micros = 0;

  // Ceiling the tuner may double the live staleness bound up to (1 second
  // — far beyond any useful freshness bound, just a runaway stop).
  static constexpr std::uint64_t kMaxTunedStalenessMicros = 1'000'000;

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
    if (staleness_micros > kMaxStalenessMicros) {
      throw std::invalid_argument(
          "RuntimeConfig::staleness_micros must be <= kMaxStalenessMicros "
          "(2^64/1000): the bound is compared in nanoseconds and larger "
          "values overflow the clock domain");
    }
    if (tune_staleness && drain != DrainPolicy::kEager) {
      throw std::invalid_argument(
          "RuntimeConfig::tune_staleness requires drain == DrainPolicy::"
          "kEager (the staleness bound only gates eager mid-epoch polls; "
          "under kEpoch there is nothing to tune)");
    }
    if (tune_staleness && staleness_target_p99_micros == 0) {
      throw std::invalid_argument(
          "RuntimeConfig::staleness_target_p99_micros must be at least 1 "
          "when tune_staleness is set (a 0-µs remote-freshness target is "
          "unreachable, so the tuner would halve the bound forever)");
    }
    if (tune_staleness && staleness_micros > kMaxTunedStalenessMicros) {
      throw std::invalid_argument(
          "RuntimeConfig::staleness_micros must be <= "
          "kMaxTunedStalenessMicros (1 second) when tune_staleness is set "
          "(the tuner moves the live bound within that ceiling, so a larger "
          "starting point could never be restored after one halving)");
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
    telemetry.Validate();
    placement.Validate();
  }
};

}  // namespace dynasore::rt
