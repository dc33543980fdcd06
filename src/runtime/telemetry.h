// rt::Telemetry — the runtime's observability layer: a per-epoch metrics
// registry and a per-shard ring-buffered structured event trace.
//
// Why it exists: the runtime resizes itself (auto-scaler + incremental
// migration) but until now its reasoning was invisible between Run() start
// and the final RuntimeResult aggregates. Telemetry records *when* things
// happened — request batches, boundary drains, barrier waits, migration
// steps, scaler decisions with their trigger inputs — and *how much* of
// each epoch went where (compute vs drain vs barrier-wait nanoseconds,
// fabric pressure, queue backlog), so a resize can be read as a timeline
// instead of inferred from end-of-run counters.
//
// Two data planes:
//   - Metrics: one common::MetricSeries row per (epoch boundary, shard)
//     with a fixed schema (kSchema in telemetry.cc; docs/observability.md
//     catalogs every column). Counter columns are per-epoch deltas, so each
//     column sums to the run's total — the conservation hook the tests use.
//   - Events: one TelemetryTrack per shard plus one for the dispatcher,
//     each a fixed-capacity ring of TraceEvents stamped with a per-track
//     monotone sequence number. The ring overwrites its oldest events under
//     pressure (dropped counts are reported); tracks are keyed by shard id
//     and survive reconfiguration — a shard retired by a merge keeps its
//     history, and a later split's shard with the same id appends to it.
//
// Threading model (mirrors ShardStats): every track has exactly one writer
// — the owning shard's worker thread (or the calling thread in the inline
// fallback), with track 0 written by the dispatcher. The dispatcher reads
// and samples all tracks only at quiescent points (every worker parked on
// its task queue), the same happens-before edges reconfiguration already
// relies on, so the layer is TSan-clean with no atomics of its own. The
// runtime holds a null Telemetry when TelemetryConfig::enabled is false;
// every instrumentation site is a branch on that pointer.
//
// Exports: Snapshot() copies both planes into a plain-value
// TelemetrySnapshot (RuntimeResult::telemetry); ChromeTraceJson renders the
// events as Chrome trace-event JSON loadable in Perfetto or
// chrome://tracing, and the MetricSeries renders itself as CSV. See
// docs/observability.md for the event schema and a Perfetto walkthrough.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/metric.h"
#include "runtime/runtime_config.h"
#include "runtime/sharded_runtime.h"

namespace dynasore::rt {

enum class TraceEventType : std::uint8_t {
  kEpoch,          // dispatcher: one span per epoch (dispatch + boundary)
  kBatch,          // worker: one request-batch execution span
  kDrain,          // worker: epoch-boundary channel drain + serve
  kEagerDrain,     // worker: mid-epoch serve after a batch (kEager)
  kBarrierWait,    // worker: parked between flush-arrive and the drain task
  kMaintenance,    // worker: engine ticks at the boundary
  kBeginReconfigure,   // dispatcher: migration window opened (first batch)
  kStepMigration,      // dispatcher: one incremental migration batch
  kCompleteMigration,  // dispatcher: window closed (instant)
  kScalerDecision,     // dispatcher: auto-scaler observation (instant)
  kPlacement,          // worker: achieved CPU placement at worker start
  kFault,              // dispatcher: injected/requested fault (instant)
  kFailover,           // dispatcher: kill handling span (engine replace +
                       //   re-route; the pause the kill cost)
  kRebuildStep,        // dispatcher: one bounded rebuild batch (span)
  kRebuildComplete,    // dispatcher: a shard returned to UP (instant)
};

// One structured trace record. `ts_ns` is a steady-clock stamp; spans carry
// their duration in `dur_ns` and instants leave it 0. The u/f slots are
// per-type arguments (named in ChromeTraceJson and docs/observability.md):
//   kEpoch            u0=live shard count
//   kBatch            u0=requests
//   kDrain/kEagerDrain u0=batches served, u1=ops served
//   kMaintenance      u0=ticks run
//   kBeginReconfigure/kStepMigration
//                     u0=from_shards, u1=to_shards, u2=views_migrated,
//                     u3=views_pending, u4=reconfig sequence id
//   kCompleteMigration u0=from_shards, u1=to_shards
//   kScalerDecision   u0=num_shards, u1=decision (0 = hold),
//                     u2=cooldown_left, u3=cold_streak, u4=max_shard_ops,
//                     u5=total_ops, f0=imbalance, f1=max_queue_backlog,
//                     f2=end-to-end p99 observed this epoch (µs; 0 = no
//                     completions), f3=SLO target (µs; 0 = SLO policy off),
//                     label=reason
//   kPlacement        u0=requested cpu, u1=achieved cpu (or ~0 on
//                     failure/unpinned), u2=pinned (1/0), u3=first-touch
//                     performed (1/0), label=outcome
//   kFault            u0=kind (FaultSpec::Kind), u1=shard/src, u2=peer/dst,
//                     u3=ops dropped+delayed, u4=writes lost,
//                     u5=fault sequence id, label=kind name
//   kFailover         u0=dead shard, u1=serving backup (shard count when
//                     none), u2=views diverted to the backup,
//                     u3=views recovering from persist/cold, label=outcome
//   kRebuildStep      u0=shard, u1=views from replica, u2=views from
//                     persist/cold, u3=resyncs, u4=views still pending,
//                     u5=rebuild sequence id
//   kRebuildComplete  u0=shard
// `label` must point at a string literal (or other static storage): events
// outlive the emitting scope and the snapshot copies them by value.
struct TraceEvent {
  TraceEventType type = TraceEventType::kEpoch;
  std::uint32_t track = 0;  // 0 = dispatcher, shard s = s + 1
  std::uint64_t seq = 0;    // per-track, monotone across ring drops
  std::uint64_t ts_ns = 0;
  std::uint64_t dur_ns = 0;  // 0 = instant
  std::uint64_t epoch = 0;   // boundary index the event belongs to
  std::uint64_t u0 = 0, u1 = 0, u2 = 0, u3 = 0, u4 = 0, u5 = 0;
  double f0 = 0, f1 = 0, f2 = 0, f3 = 0;
  const char* label = "";
};

// One shard's (or the dispatcher's) event ring plus the epoch-phase
// accumulators the metric sampler reads. Single-writer: only the owning
// thread calls Emit or touches the public counters; the dispatcher reads
// and resets them at quiescent points via Telemetry::SampleEpoch.
class TelemetryTrack {
 public:
  // Throws std::invalid_argument for a zero capacity: a ring that cannot
  // hold any event has nowhere to store one.
  TelemetryTrack(std::uint32_t track_id, std::uint32_t capacity)
      : track_id_(track_id), ring_(capacity) {
    if (capacity == 0) {
      throw std::invalid_argument(
          "TelemetryTrack capacity must be at least 1 (a zero-capacity "
          "trace ring cannot hold any event)");
    }
  }

  // Stamps track and sequence number and stores the event, overwriting the
  // ring's oldest under pressure.
  void Emit(TraceEvent e) {
    e.track = track_id_;
    e.seq = next_seq_;
    ring_[next_seq_ % ring_.size()] = e;
    ++next_seq_;
  }

  std::uint32_t track_id() const { return track_id_; }
  // Events ever emitted; min(next_seq, capacity) of them are still held.
  std::uint64_t next_seq() const { return next_seq_; }
  std::uint64_t dropped() const {
    return next_seq_ > ring_.size() ? next_seq_ - ring_.size() : 0;
  }
  // Retained events in seq order (oldest first), appended to `out`.
  void CopyEvents(std::vector<TraceEvent>& out) const {
    for (std::uint64_t s = dropped(); s < next_seq_; ++s) {
      out.push_back(ring_[s % ring_.size()]);
    }
  }

  // Phase accumulators for the current epoch, reset by SampleEpoch at each
  // boundary. All written only by the owning thread between boundaries.
  std::uint64_t compute_ns = 0;       // request-batch execution
  std::uint64_t drain_ns = 0;         // boundary + eager drains and serves
  std::uint64_t barrier_wait_ns = 0;  // parked awaiting the drain task
  std::uint64_t maintenance_ns = 0;   // engine ticks
  std::uint64_t fabric_full_retries = 0;  // TrySend refusals (backpressure)
  std::uint64_t fabric_max_depth = 0;     // deepest inbound channel seen
  std::uint64_t drain_claims = 0;     // batched DrainChannel claims (>0 ops)
  std::uint64_t drain_batch_ops = 0;  // ops served via batched claims

  void ResetEpochPhases() {
    compute_ns = 0;
    drain_ns = 0;
    barrier_wait_ns = 0;
    maintenance_ns = 0;
    fabric_full_retries = 0;
    fabric_max_depth = 0;
    drain_claims = 0;
    drain_batch_ops = 0;
  }

 private:
  const std::uint32_t track_id_;
  std::vector<TraceEvent> ring_;
  std::uint64_t next_seq_ = 0;
};

// Plain-value copy of both telemetry planes, taken at run end and carried
// by RuntimeResult::telemetry (null when telemetry is disabled).
struct TelemetrySnapshot {
  common::MetricSeries series;
  // Ordered by (track, seq); within a track, ts_ns is non-decreasing.
  std::vector<TraceEvent> events;
  std::uint64_t dropped_events = 0;  // overwritten ring entries, all tracks
  std::uint64_t base_ts_ns = 0;      // earliest retained ts (JSON origin)
  std::uint32_t num_tracks = 0;      // dispatcher + highest shard id + 1
};

// Everything the metric sampler needs from one shard at one boundary. The
// runtime fills these from per-shard stats deltas plus the track's phase
// accumulators; Telemetry turns them into MetricSeries rows.
struct ShardEpochSample {
  std::uint32_t shard = 0;
  ShardStats delta;                    // this epoch's ShardStats activity
  std::uint64_t engine_view_reads = 0; // EngineCounters::view_reads delta
  std::uint64_t repl_lag = 0;          // async records still buffered (gauge)
  std::uint64_t compute_ns = 0;
  std::uint64_t drain_ns = 0;
  std::uint64_t barrier_wait_ns = 0;
  std::uint64_t maintenance_ns = 0;
  std::uint64_t fabric_full_retries = 0;
  std::uint64_t fabric_max_depth = 0;
  std::uint64_t drain_claims = 0;
  std::uint64_t drain_batch_ops = 0;
};

class Telemetry {
 public:
  // `num_shards` is the initial shard count (tracks grow on demand as
  // splits add shards); every track holds TelemetryConfig::kEventCapacity
  // events.
  explicit Telemetry(std::uint32_t num_shards);

  // Track accessors. shard_track grows the track table when a split adds
  // shard ids — call only at quiescent points (the runtime wires tracks
  // into shards at construction and reconfiguration commits, both
  // quiescent). Returned pointers are stable for the Telemetry's lifetime.
  TelemetryTrack* dispatcher_track() { return tracks_.front().get(); }
  TelemetryTrack* shard_track(std::uint32_t shard);

  // Dispatcher-scope scalars for one boundary (not per-shard). views_pending
  // and e2e_p99_us are levels repeated on every row of the epoch;
  // slo_decisions is a counter attributed to the *first* row only, so the
  // column still sums to run totals. It covers decisions since the
  // previous sample: the scaler runs *after* sampling at each boundary, so
  // a boundary's decision lands in the next epoch's rows and the final
  // boundary's decision is never sampled (reconcile against
  // AutoScaler::history or the RuntimeResult lifetime total, not row
  // counts).
  struct EpochScalars {
    std::uint64_t views_pending = 0;  // migration ledger remaining (gauge)
    double e2e_p99_us = 0;            // end-to-end p99 of this epoch's joins
    std::uint64_t slo_decisions = 0;  // split-slo decisions since last sample
  };

  // Appends one MetricSeries row per sample (dispatcher thread, quiescent
  // point, *before* any reconfiguration step so a retiring shard's final
  // epoch is captured).
  void SampleEpoch(std::uint64_t epoch_index, SimTime epoch_end,
                   const EpochScalars& scalars,
                   std::span<const ShardEpochSample> samples);

  // Copies both planes. Quiescent point or after the run only.
  TelemetrySnapshot Snapshot() const;

  const common::MetricSeries& series() const { return series_; }

 private:
  // Index 0 is the dispatcher; shard s lives at s + 1. Tracks are created
  // once per id and never destroyed (events survive reconfiguration).
  std::vector<std::unique_ptr<TelemetryTrack>> tracks_;
  common::MetricSeries series_;
};

// Renders a snapshot's events as Chrome trace-event JSON ("traceEvents"
// array; complete spans as ph "X", instants as ph "i", thread-name
// metadata as ph "M") with microsecond timestamps relative to
// base_ts_ns. Loadable in Perfetto (ui.perfetto.dev) and chrome://tracing;
// scripts/validate_trace.py checks the schema and span nesting in CI.
std::string ChromeTraceJson(const TelemetrySnapshot& snapshot);

}  // namespace dynasore::rt
