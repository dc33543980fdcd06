#include "runtime/telemetry.h"

#include <algorithm>
#include <cstdio>

namespace dynasore::rt {

namespace {

using common::MetricDef;
using common::MetricKind;

// The metrics registry: one row per (epoch boundary, shard) with these
// columns, in order. Counters are per-epoch deltas (each column sums to the
// run total — runtime_telemetry_test.cc reconciles them against
// RuntimeResult); gauges are boundary-time levels. Catalog with prose
// definitions: docs/observability.md. Keep the two in sync.
const std::vector<MetricDef>& Schema() {
  static const std::vector<MetricDef> kSchema = {
      {"requests", MetricKind::kCounter, "ops"},
      {"reads", MetricKind::kCounter, "ops"},
      {"writes", MetricKind::kCounter, "ops"},
      {"remote_read_slices", MetricKind::kCounter, "slices"},
      {"remote_write_applies", MetricKind::kCounter, "ops"},
      {"messages_sent", MetricKind::kCounter, "msgs"},
      {"eager_drains", MetricKind::kCounter, "drains"},
      {"queue_backlog_mean", MetricKind::kGauge, "batches"},
      {"compute_ns", MetricKind::kCounter, "ns"},
      {"drain_ns", MetricKind::kCounter, "ns"},
      {"barrier_wait_ns", MetricKind::kCounter, "ns"},
      {"maintenance_ns", MetricKind::kCounter, "ns"},
      {"fabric_full_retries", MetricKind::kCounter, "sends"},
      {"fabric_max_depth", MetricKind::kGauge, "batches"},
      {"drain_claims", MetricKind::kCounter, "claims"},
      {"drain_batch_ops", MetricKind::kCounter, "ops"},
      {"engine_view_reads", MetricKind::kCounter, "views"},
      {"views_pending", MetricKind::kGauge, "views"},
      {"repl_sent", MetricKind::kCounter, "records"},
      {"repl_applies", MetricKind::kCounter, "records"},
      {"repl_lag", MetricKind::kGauge, "records"},
      {"views_rebuilt", MetricKind::kCounter, "views"},
      {"e2e_p99", MetricKind::kGauge, "us"},
      {"slo_decisions", MetricKind::kCounter, "decisions"},
  };
  return kSchema;
}

const char* EventName(TraceEventType type) {
  switch (type) {
    case TraceEventType::kEpoch: return "epoch";
    case TraceEventType::kBatch: return "batch";
    case TraceEventType::kDrain: return "drain";
    case TraceEventType::kEagerDrain: return "eager_drain";
    case TraceEventType::kBarrierWait: return "barrier_wait";
    case TraceEventType::kMaintenance: return "maintenance";
    case TraceEventType::kBeginReconfigure: return "begin_reconfigure";
    case TraceEventType::kStepMigration: return "step_migration";
    case TraceEventType::kCompleteMigration: return "complete_migration";
    case TraceEventType::kScalerDecision: return "scaler_decision";
    case TraceEventType::kPlacement: return "placement";
    case TraceEventType::kFault: return "fault";
    case TraceEventType::kFailover: return "failover";
    case TraceEventType::kRebuildStep: return "rebuild_step";
    case TraceEventType::kRebuildComplete: return "rebuild_complete";
  }
  return "unknown";
}

void AppendU64(std::string& out, const char* key, std::uint64_t v,
               bool* first) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s\"%s\":%llu", *first ? "" : ",", key,
                static_cast<unsigned long long>(v));
  out.append(buf);
  *first = false;
}

void AppendF64(std::string& out, const char* key, double v, bool* first) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s\"%s\":%.6g", *first ? "" : ",", key, v);
  out.append(buf);
  *first = false;
}

// Per-type argument payload; keys mirror the TraceEvent docs in
// telemetry.h and the schema table in docs/observability.md.
void AppendArgs(std::string& out, const TraceEvent& e) {
  bool first = true;
  out.append("{");
  AppendU64(out, "seq", e.seq, &first);
  AppendU64(out, "epoch", e.epoch, &first);
  switch (e.type) {
    case TraceEventType::kBatch:
      AppendU64(out, "requests", e.u0, &first);
      break;
    case TraceEventType::kDrain:
    case TraceEventType::kEagerDrain:
      AppendU64(out, "batches", e.u0, &first);
      AppendU64(out, "ops", e.u1, &first);
      break;
    case TraceEventType::kBeginReconfigure:
    case TraceEventType::kStepMigration:
      AppendU64(out, "from_shards", e.u0, &first);
      AppendU64(out, "to_shards", e.u1, &first);
      AppendU64(out, "views_migrated", e.u2, &first);
      AppendU64(out, "views_pending", e.u3, &first);
      AppendU64(out, "sequence", e.u4, &first);
      break;
    case TraceEventType::kCompleteMigration:
      AppendU64(out, "from_shards", e.u0, &first);
      AppendU64(out, "to_shards", e.u1, &first);
      break;
    case TraceEventType::kScalerDecision:
      AppendU64(out, "num_shards", e.u0, &first);
      AppendU64(out, "decision", e.u1, &first);
      AppendU64(out, "cooldown_left", e.u2, &first);
      AppendU64(out, "cold_streak", e.u3, &first);
      AppendU64(out, "max_shard_ops", e.u4, &first);
      AppendU64(out, "total_ops", e.u5, &first);
      AppendF64(out, "imbalance", e.f0, &first);
      AppendF64(out, "max_queue_backlog", e.f1, &first);
      AppendF64(out, "e2e_p99_us", e.f2, &first);
      AppendF64(out, "slo_target_us", e.f3, &first);
      out.append(",\"reason\":\"").append(e.label).append("\"");
      break;
    case TraceEventType::kEpoch:
      AppendU64(out, "num_shards", e.u0, &first);
      break;
    case TraceEventType::kMaintenance:
      AppendU64(out, "ticks", e.u0, &first);
      break;
    case TraceEventType::kPlacement:
      AppendU64(out, "requested_cpu", e.u0, &first);
      AppendU64(out, "achieved_cpu", e.u1, &first);
      AppendU64(out, "pinned", e.u2, &first);
      AppendU64(out, "first_touch", e.u3, &first);
      out.append(",\"outcome\":\"").append(e.label).append("\"");
      break;
    case TraceEventType::kFault:
      AppendU64(out, "kind", e.u0, &first);
      AppendU64(out, "shard", e.u1, &first);
      AppendU64(out, "peer", e.u2, &first);
      AppendU64(out, "ops_affected", e.u3, &first);
      AppendU64(out, "writes_lost", e.u4, &first);
      AppendU64(out, "sequence", e.u5, &first);
      out.append(",\"fault\":\"").append(e.label).append("\"");
      break;
    case TraceEventType::kFailover:
      AppendU64(out, "shard", e.u0, &first);
      AppendU64(out, "backup", e.u1, &first);
      AppendU64(out, "views_replica", e.u2, &first);
      AppendU64(out, "views_recovering", e.u3, &first);
      out.append(",\"outcome\":\"").append(e.label).append("\"");
      break;
    case TraceEventType::kRebuildStep:
      AppendU64(out, "shard", e.u0, &first);
      AppendU64(out, "views_replica", e.u1, &first);
      AppendU64(out, "views_persist", e.u2, &first);
      AppendU64(out, "resyncs", e.u3, &first);
      AppendU64(out, "views_pending", e.u4, &first);
      AppendU64(out, "sequence", e.u5, &first);
      break;
    case TraceEventType::kRebuildComplete:
      AppendU64(out, "shard", e.u0, &first);
      break;
    case TraceEventType::kBarrierWait:
      break;
  }
  out.append("}");
}

}  // namespace

Telemetry::Telemetry(std::uint32_t num_shards) : series_(Schema()) {
  tracks_.reserve(static_cast<std::size_t>(num_shards) + 1);
  tracks_.push_back(std::make_unique<TelemetryTrack>(
      0, TelemetryConfig::kEventCapacity));
  for (std::uint32_t s = 0; s < num_shards; ++s) shard_track(s);
}

TelemetryTrack* Telemetry::shard_track(std::uint32_t shard) {
  const std::size_t index = static_cast<std::size_t>(shard) + 1;
  while (tracks_.size() <= index) {
    tracks_.push_back(std::make_unique<TelemetryTrack>(
        static_cast<std::uint32_t>(tracks_.size()),
        TelemetryConfig::kEventCapacity));
  }
  return tracks_[index].get();
}

void Telemetry::SampleEpoch(std::uint64_t epoch_index, SimTime epoch_end,
                            const EpochScalars& scalars,
                            std::span<const ShardEpochSample> samples) {
  bool first_row = true;
  for (const ShardEpochSample& s : samples) {
    common::MetricSeries::Row row;
    row.epoch = epoch_index;
    row.epoch_end = epoch_end;
    row.shard = s.shard;
    const double backlog_mean =
        s.delta.task_batches == 0
            ? 0.0
            : static_cast<double>(s.delta.queue_backlog_sum) /
                  static_cast<double>(s.delta.task_batches);
    row.values = {
        static_cast<double>(s.delta.requests),
        static_cast<double>(s.delta.reads),
        static_cast<double>(s.delta.writes),
        static_cast<double>(s.delta.remote_read_slices),
        static_cast<double>(s.delta.remote_write_applies),
        static_cast<double>(s.delta.messages_sent),
        static_cast<double>(s.delta.eager_drains),
        backlog_mean,
        static_cast<double>(s.compute_ns),
        static_cast<double>(s.drain_ns),
        static_cast<double>(s.barrier_wait_ns),
        static_cast<double>(s.maintenance_ns),
        static_cast<double>(s.fabric_full_retries),
        static_cast<double>(s.fabric_max_depth),
        static_cast<double>(s.drain_claims),
        static_cast<double>(s.drain_batch_ops),
        static_cast<double>(s.engine_view_reads),
        static_cast<double>(scalars.views_pending),
        static_cast<double>(s.delta.repl_sent),
        static_cast<double>(s.delta.repl_applies),
        static_cast<double>(s.repl_lag),
        static_cast<double>(s.delta.views_rebuilt),
        scalars.e2e_p99_us,
        first_row ? static_cast<double>(scalars.slo_decisions) : 0.0,
    };
    first_row = false;
    series_.Append(std::move(row));
  }
}

TelemetrySnapshot Telemetry::Snapshot() const {
  TelemetrySnapshot snap;
  snap.series = series_;
  snap.num_tracks = static_cast<std::uint32_t>(tracks_.size());
  for (const auto& track : tracks_) {
    track->CopyEvents(snap.events);
    snap.dropped_events += track->dropped();
  }
  // CopyEvents appends per track in seq order, and tracks were visited in
  // id order, so the (track, seq) ordering contract holds by construction.
  for (const TraceEvent& e : snap.events) {
    if (snap.base_ts_ns == 0 || e.ts_ns < snap.base_ts_ns) {
      snap.base_ts_ns = e.ts_ns;
    }
  }
  return snap;
}

std::string ChromeTraceJson(const TelemetrySnapshot& snapshot) {
  std::string out = "{\"traceEvents\":[";
  bool first_event = true;
  char buf[160];

  // Thread-name metadata so Perfetto labels the rows. pid 1 groups every
  // track under one process; tid == TraceEvent::track.
  for (std::uint32_t t = 0; t < snapshot.num_tracks; ++t) {
    char label[32];
    if (t == 0) {
      std::snprintf(label, sizeof(label), "dispatcher");
    } else {
      std::snprintf(label, sizeof(label), "shard %u", t - 1);
    }
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                  "\"tid\":%u,\"args\":{\"name\":\"%s\"}}",
                  first_event ? "" : ",", t, label);
    out.append(buf);
    first_event = false;
  }

  for (const TraceEvent& e : snapshot.events) {
    const double ts_us =
        static_cast<double>(e.ts_ns - snapshot.base_ts_ns) / 1000.0;
    const double dur_us = static_cast<double>(e.dur_ns) / 1000.0;
    if (e.dur_ns != 0) {
      std::snprintf(buf, sizeof(buf),
                    "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                    "\"dur\":%.3f,\"pid\":1,\"tid\":%u,\"args\":",
                    first_event ? "" : ",", EventName(e.type), ts_us, dur_us,
                    e.track);
    } else {
      std::snprintf(buf, sizeof(buf),
                    "%s\n{\"name\":\"%s\",\"ph\":\"i\",\"s\":\"t\","
                    "\"ts\":%.3f,\"pid\":1,\"tid\":%u,\"args\":",
                    first_event ? "" : ",", EventName(e.type), ts_us, e.track);
    }
    out.append(buf);
    AppendArgs(out, e);
    out.append("}");
    first_event = false;
  }
  out.append("\n]}\n");
  return out;
}

}  // namespace dynasore::rt
