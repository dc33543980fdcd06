#include "runtime/sharded_runtime.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <thread>
#include <utility>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "runtime/auto_scaler.h"
#include "runtime/telemetry.h"

namespace dynasore::rt {

namespace {

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

LatencyPercentiles SummarizeLatency(const common::LatencyHistogram& h) {
  LatencyPercentiles p;
  p.samples = h.count();
  p.p50_us = static_cast<double>(h.Percentile(0.50)) / 1000.0;
  p.p90_us = static_cast<double>(h.Percentile(0.90)) / 1000.0;
  p.p99_us = static_cast<double>(h.Percentile(0.99)) / 1000.0;
  p.p999_us = static_cast<double>(h.Percentile(0.999)) / 1000.0;
  p.mean_us = h.mean() / 1000.0;
  p.max_us = static_cast<double>(h.max()) / 1000.0;
  return p;
}

// ----- Gate -----

void ShardedRuntime::Gate::Arrive() {
  {
    std::lock_guard lock(mutex_);
    ++arrived_;
  }
  cv_.notify_all();
}

void ShardedRuntime::Gate::WaitFor(std::uint32_t n) {
  std::unique_lock lock(mutex_);
  cv_.wait(lock, [&] { return arrived_ >= n; });
  arrived_ = 0;
}

void ShardedRuntime::Gate::Reset() {
  std::lock_guard lock(mutex_);
  arrived_ = 0;
}

// ----- Construction -----

ShardedRuntime::ShardedRuntime(const graph::SocialGraph& g,
                               const net::Topology& topo,
                               const place::PlacementResult& initial,
                               const core::EngineConfig& engine_config,
                               const RuntimeConfig& config)
    : graph_(&g),
      topo_(topo),
      initial_(initial),
      engine_config_(engine_config),
      config_(config),
      map_(config.num_shards) {
  config.Validate();
  // An epoch is one engine slot, so every tick lands on a boundary and
  // fires in the same position relative to requests as in the sequential
  // replay.
  if (engine_config.slot_seconds == 0) {
    throw std::invalid_argument(
        "EngineConfig::slot_seconds must be positive: the runtime's epoch "
        "is one engine slot, and a 0-second epoch never advances");
  }

  // Shard engines maintain only their owned partition (see
  // InstallMaintenanceOwners), so a non-owner engine never consults a
  // view's write statistics — the coherence fan-out is only needed when
  // payloads must stay readable everywhere.
  replicate_writes_ =
      map_.num_shards() > 1 && engine_config_.store.payload_mode;

  const std::uint32_t n = map_.num_shards();
  // Channel sizing: under kEpoch each (src, dst) channel holds at most one
  // batch between boundary drains. Under kEager a producer ships at most
  // one batch per task it executes, and at most queue_depth tasks are in
  // flight per shard, so queue_depth + 2 batches per channel lets every
  // epoch-boundary flush succeed without waiting; overflow between drains
  // simply keeps coalescing in the producer's outbox.
  fabric_ = std::make_unique<Fabric>(n, config_.queue_depth + 2);
  shards_.reserve(n);
  for (std::uint32_t s = 0; s < n; ++s) {
    shards_.push_back(MakeShard(s));
    shards_.back()->outbox.resize(n);
  }
  InstallMaintenanceOwners();
  health_ = HealthMap(n);
  if (config_.replication.enabled) {
    replicator_ = std::make_unique<Replicator>(config_.replication, n);
  }
  if (config_.scaler.enabled) {
    scaler_ = std::make_unique<AutoScaler>(config_.scaler);
  }
  if (config_.telemetry.enabled) {
    telemetry_ = std::make_unique<Telemetry>(n);
    WireTelemetryTracks();
  }
}

std::unique_ptr<ShardedRuntime::Shard> ShardedRuntime::MakeShard(
    std::uint32_t id) {
  auto shard = std::make_unique<Shard>(config_.queue_depth);
  shard->id = id;
  shard->engine =
      std::make_unique<core::Engine>(topo_, initial_, engine_config_);
  if (persist_ != nullptr) shard->engine->AttachPersistentStore(persist_);
  return shard;
}

std::function<bool(ViewId)> ShardedRuntime::MaintenanceOwner(
    std::uint32_t shard) const {
  if (map_.num_shards() == 1) return {};  // sole shard maintains all
  // Each engine adapts and evicts only the views this shard owns; the
  // other shards' views keep their last-known replicas here.
  return [map = map_, shard](ViewId v) { return map.shard_of(v) == shard; };
}

void ShardedRuntime::InstallMaintenanceOwner(Shard& shard) {
  shard.engine->SetMaintenanceOwner(MaintenanceOwner(shard.id));
}

void ShardedRuntime::InstallMaintenanceOwners() {
  for (auto& shard : shards_) InstallMaintenanceOwner(*shard);
}

// Runs on the worker thread, inside the placement gate: the dispatcher is
// blocked in WaitFor and every other worker is in its own kPlace task (or
// parked), so map_/fabric_ are stable and no channel has an active producer.
void ShardedRuntime::ApplyPlacement(Shard& shard, bool rebuild_engine) {
  const unsigned ncpu = std::max(1u, std::thread::hardware_concurrency());
  const std::uint64_t requested = shard.id % ncpu;
  std::uint64_t achieved = ~std::uint64_t{0};
  bool pinned = false;
#if defined(__linux__)
  // Self-pinning, so every later allocation/fault in this function (and in
  // the worker's whole life) happens from the target CPU. Failure is the
  // documented graceful no-op: record and continue unpinned.
  cpu_set_t want;
  CPU_ZERO(&want);
  CPU_SET(static_cast<int>(requested), &want);
  const char* outcome = "setaffinity failed";
  if (pthread_setaffinity_np(pthread_self(), sizeof(want), &want) == 0) {
    cpu_set_t got;
    CPU_ZERO(&got);
    outcome = "readback failed";
    if (pthread_getaffinity_np(pthread_self(), sizeof(got), &got) == 0 &&
        CPU_ISSET(static_cast<int>(requested), &got)) {
      pinned = true;
      achieved = requested;
      outcome = "pinned";
    }
  }
#else
  const char* outcome = "affinity unsupported";
#endif

  if (rebuild_engine) {
    // First run, pristine engines: reconstructing from the runtime's
    // immutable inputs yields a bit-identical engine whose store pages are
    // first-touched on this (now possibly pinned) worker instead of the
    // dispatcher. Never done once any state was executed or imported.
    auto fresh =
        std::make_unique<core::Engine>(topo_, initial_, engine_config_);
    if (persist_ != nullptr) fresh->AttachPersistentStore(persist_);
    shard.engine = std::move(fresh);
    InstallMaintenanceOwner(shard);
  }
  // Consumer side of every inbound channel: fault the slot pages from this
  // worker. Scratch (drain_batches, drain_order, overlay buffers) needs no
  // help — it grows lazily on the worker's first use.
  fabric_->PrefaultInbound(shard.id);

  if (shard.telem != nullptr) {
    TraceEvent e;
    e.type = TraceEventType::kPlacement;
    e.ts_ns = NowNs();
    e.epoch = shard.stats.epochs;
    e.u0 = requested;
    e.u1 = achieved;
    e.u2 = pinned ? 1 : 0;
    e.u3 = 1;  // first touch always rides placement
    e.label = outcome;
    shard.telem->Emit(e);
  }
}

void ShardedRuntime::RunPlacementPhase(
    std::span<const std::uint32_t> shard_indices, bool rebuild_engines) {
  if (!config_.placement.pin_workers || shard_indices.empty()) return;
  for (std::uint32_t s : shard_indices) {
    Task task;
    task.kind = Task::Kind::kPlace;
    task.rebuild_engine = rebuild_engines;
    shards_[s]->tasks.Push(std::move(task));
  }
  gate_.WaitFor(static_cast<std::uint32_t>(shard_indices.size()));
}

ShardedRuntime::~ShardedRuntime() {
  for (auto& shard : shards_) {
    shard->tasks.Close();
    if (shard->worker.joinable()) shard->worker.join();
  }
}

void ShardedRuntime::AttachPersistentStore(
    const persist::PersistentStore* persist) {
  persist_ = persist;  // engines spawned by a later split attach too
  for (auto& shard : shards_) shard->engine->AttachPersistentStore(persist);
}

// ----- Online reconfiguration -----

void ShardedRuntime::Reconfigure(std::uint32_t new_shard_count) {
  if (new_shard_count == 0) {
    throw std::invalid_argument(
        "ShardedRuntime::Reconfigure: new_shard_count must be at least 1 (0 "
        "shards cannot own the id space)");
  }
  if (replicator_ != nullptr &&
      new_shard_count <= config_.replication.factor) {
    throw std::invalid_argument(
        "ShardedRuntime::Reconfigure: new_shard_count must exceed "
        "ReplicationConfig::factor — every shard needs `factor` distinct "
        "backups, so the shard count can never drop to factor or below "
        "while replication is enabled");
  }
  std::lock_guard lock(reconfig_mutex_);
  if (running_) {
    pending_shards_ = new_shard_count;  // applied at the next epoch boundary
    return;
  }
  // Between runs there is no serving to pause, so the batch is always the
  // whole ledger. An aborted run may have left a window open; close it
  // first, then open (and at once close) the new one.
  if (migration_.has_value()) {
    StepMigration(/*batch=*/0, /*epoch_end=*/0, TraceEventType::kStepMigration,
                  NowNs());
  }
  BeginReconfigure(new_shard_count, /*batch=*/0, /*threaded=*/false,
                   /*epoch_end=*/0);
}

void ShardedRuntime::ShardAggregates::Fold(const Shard& shard) {
  counters += shard.engine->counters();
  totals += shard.stats;
  request_latency.Merge(shard.request_latency);
  remote_latency.Merge(shard.remote_latency);
  const net::TrafficRecorder& traffic = shard.engine->traffic();
  for (int tier = 0; tier < net::kNumTiers; ++tier) {
    const auto t = static_cast<net::Tier>(tier);
    traffic_app[tier] += traffic.TierTotal(t, net::MsgClass::kApp);
    traffic_sys[tier] += traffic.TierTotal(t, net::MsgClass::kSystem);
  }
}

void ShardedRuntime::ShardAggregates::Fold(const ShardAggregates& other) {
  counters += other.counters;
  totals += other.totals;
  request_latency.Merge(other.request_latency);
  remote_latency.Merge(other.remote_latency);
  for (int tier = 0; tier < net::kNumTiers; ++tier) {
    traffic_app[tier] += other.traffic_app[tier];
    traffic_sys[tier] += other.traffic_sys[tier];
  }
}

void ShardedRuntime::StartWorker(Shard& shard) {
  Shard* sp = &shard;
  shard.worker = std::thread([this, sp] { WorkerLoop(*sp); });
  ++workers_started_;
}

void ShardedRuntime::RequestShutdown(Shard& shard) {
  Task task;
  task.kind = Task::Kind::kShutdown;
  shard.tasks.Push(std::move(task));
}

void ShardedRuntime::ShutdownWorkers() {
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) RequestShutdown(*shard);
  }
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
}

void ShardedRuntime::RetireShard(Shard& shard) {
  if (shard.worker.joinable()) {
    RequestShutdown(shard);
    shard.worker.join();
  }
  retired_.Fold(shard);
}

// ----- Migration windows (every resize is one) -----

void ShardedRuntime::BeginReconfigure(std::uint32_t new_count,
                                      std::uint64_t batch, bool threaded,
                                      SimTime epoch_end) {
  const std::uint32_t old_n = map_.num_shards();
  if (new_count == old_n) return;
  engines_pristine_ = false;  // the window below imports view state
  // The per-shard scaler baselines no longer describe the shard set: the
  // next observed boundary rebases instead, so a shard id retired and later
  // respawned never diffs against its predecessor's cumulative stats.
  scaler_baseline_.clear();

  const std::uint64_t t0 = NowNs();
  ShardMap target(new_count);
  auto ledger = std::make_shared<ShardMap::PendingLedger>();
  for (ViewId v = 0; v < graph_->num_users(); ++v) {
    const std::uint32_t a = map_.shard_of(v);
    if (a != target.shard_of(v)) ledger->emplace_back(v, a);
  }
  // Split: the new owners (and the channels to reach them) must exist
  // before the first batch lands. The fabric grows to the live shard set up
  // front — every channel is empty at the boundary, so the swap loses
  // nothing. Everything that can fail before the window exists happens
  // before the nothrow fabric commit, and the rollback restores the old
  // shard set and outbox shape, so an unwind here leaves the pre-call
  // topology invariant (shards_.size() == map_.num_shards() ==
  // fabric_->num_shards()) intact with no ownership changed. A throw
  // *after* the commit can only come from the window machinery below,
  // which fails into an open, consistent window instead (see there).
  if (new_count > old_n) {
    auto new_fabric =
        std::make_unique<Fabric>(new_count, config_.queue_depth + 2);
    // New engines seed their maintenance slot from a surviving engine
    // (ticks are broadcast, so all engines agree on the slot).
    const std::uint32_t slot = shards_.front()->engine->current_slot();
    try {
      for (std::uint32_t s = old_n; s < new_count; ++s) {
        shards_.push_back(MakeShard(s));
        shards_.back()->engine->SeedSlot(slot);
      }
      for (auto& shard : shards_) shard->outbox.assign(new_count, Outbox{});
      if (threaded) {
        for (std::uint32_t s = old_n; s < new_count; ++s) {
          StartWorker(*shards_[s]);
        }
      }
    } catch (...) {
      // New workers are parked on empty queues; the non-allocating close
      // path releases them. Shrinking an outbox vector reuses its existing
      // capacity, so the rollback itself cannot throw.
      for (std::size_t s = old_n; s < shards_.size(); ++s) {
        Shard& doomed = *shards_[s];
        doomed.tasks.Close();
        if (doomed.worker.joinable()) doomed.worker.join();
      }
      while (shards_.size() > old_n) shards_.pop_back();
      for (auto& shard : shards_) shard->outbox.assign(old_n, Outbox{});
      throw;
    }
    fabric_ = std::move(new_fabric);  // nothrow commit
    if (threaded) {
      // Placement for the window's new workers, against the *committed*
      // fabric (prefaulting the about-to-be-replaced one would be wasted).
      // No engine rebuild: these engines are about to import migrated
      // state. Existing workers are parked, so the gate counts only these.
      std::vector<std::uint32_t> spawned;
      for (std::uint32_t s = old_n; s < new_count; ++s) spawned.push_back(s);
      RunPlacementPhase(spawned, /*rebuild_engines=*/false);
    }
  }
  // Merge: the retiring shards keep serving their unmigrated views, so the
  // live set, the fabric, and every outbox stay at old_n until the final
  // batch (CompleteMigration tears them down).

  // Payload coherence spans the *live* shard set for the whole window.
  const std::uint32_t live = std::max(old_n, new_count);
  replicate_writes_ = live > 1 && engine_config_.store.payload_mode;

  // Open the window *before* migrating anything: with the zero-progress
  // transition map and ownership predicates installed, a throw anywhere in
  // the batch work below (engine exports/imports) unwinds into a consistent
  // open window — every view still routed to its old owner, the live
  // domain matching the shard set and fabric — that the next boundary (or
  // a between-runs Reconfigure) resumes.
  migration_.emplace(
      MigrationWindow{std::move(target), old_n, new_count, std::move(ledger), 0});
  map_ = ShardMap::Transition(migration_->target, live, migration_->ledger, 0);
  // At cursor 0 every view keeps its old owner, so an existing engine's
  // byte map already holds the transition predicate's answers: it takes the
  // predicate with nothing to re-evaluate. Only the shards just spawned
  // evaluate every view.
  for (auto& shard : shards_) {
    if (shard->id < old_n) {
      shard->engine->SetMaintenanceOwner(MaintenanceOwner(shard->id), {});
    } else {
      InstallMaintenanceOwner(*shard);
    }
  }
  WireTelemetryTracks();
  // Rewire the fault-tolerance control plane to the window's live domain,
  // the larger shard set: all-UP and (for the replicator) all-fresh — the
  // documented resize approximation, exact under payload coherence where
  // every peer holds every payload (docs/fault_tolerance.md).
  health_.Resize(live);
  if (replicator_ != nullptr) replicator_->Rebase(live);

  // The first batch rides this same boundary, and its event carries the
  // ledger scan and spawn above in its pause. A ledger that fits one batch
  // opens and closes the window here: no dual-ownership epoch.
  StepMigration(batch, epoch_end, TraceEventType::kBeginReconfigure, t0);
}

std::uint64_t ShardedRuntime::MigrateNextBatch(std::uint64_t batch) {
  MigrationWindow& w = *migration_;
  const ShardMap::PendingLedger& ledger = *w.ledger;
  const std::size_t begin = w.next;
  const std::size_t end =
      batch == 0 ? ledger.size()
                 : std::min(ledger.size(),
                            begin + static_cast<std::size_t>(batch));

  // Hand authority for each view to its new owner's engine, in ledger
  // order. The exporter is the view's old owner (views migrate exactly
  // once), which keeps a frozen copy, like any non-owned view under static
  // sharding.
  for (std::size_t i = begin; i < end; ++i) {
    const auto [v, from] = ledger[i];
    shards_[w.target.shard_of(v)]->engine->ImportViewState(
        shards_[from]->engine->ExportViewState(v));
  }
  w.next = end;

  if (w.next < ledger.size()) {
    // Install the advanced dual-ownership window: the new map shares the
    // window's ledger and only moves the cursor, and only this batch's
    // views changed owner, so each engine re-evaluates just those. The
    // step is O(batch) no matter how many views remain — the pause stays
    // O(migration_batch).
    map_ = ShardMap::Transition(w.target,
                                std::max(w.from_shards, w.to_shards),
                                w.ledger, w.next);
    std::vector<ViewId> moved;
    moved.reserve(end - begin);
    for (std::size_t i = begin; i < end; ++i) moved.push_back(ledger[i].first);
    for (auto& shard : shards_) {
      shard->engine->SetMaintenanceOwner(MaintenanceOwner(shard->id), moved);
    }
  }
  return end - begin;
}

void ShardedRuntime::CompleteMigration() {
  MigrationWindow& w = *migration_;
  assert(w.next == w.ledger->size() && "completion requires an empty ledger");
  const std::uint32_t new_count = w.to_shards;

  // Commit order: the fabric is allocated up front, the map is committed
  // before surplus shards disappear (so it never names engines that no
  // longer exist), and retirement comes last.
  std::unique_ptr<Fabric> new_fabric;
  if (new_count < w.from_shards) {
    new_fabric = std::make_unique<Fabric>(new_count, config_.queue_depth + 2);
  }
  map_ = w.target;
  replicate_writes_ = new_count > 1 && engine_config_.store.payload_mode;
  InstallMaintenanceOwners();
  if (new_fabric != nullptr) {
    // Every channel is empty here (the boundary drain ran while producers
    // were quiescent) and every outbox was flushed, so nothing in flight is
    // lost.
    fabric_ = std::move(new_fabric);
    for (auto& shard : shards_) shard->outbox.assign(new_count, Outbox{});
    // Retired shards' counters, traffic and histograms move into the
    // retained accumulators (so merged results keep conserving) and their
    // workers shut down; surviving workers are untouched.
    try {
      while (shards_.size() > new_count) {
        RetireShard(*shards_.back());
        shards_.pop_back();
      }
    } catch (...) {
      // A failed fold can no longer conserve (the throwing shard's counters
      // may be half-merged), but the topology invariant — shards_.size() ==
      // map_.num_shards() == fabric_->num_shards() — must hold or the next
      // Run's surplus workers would index the smaller fabric out of bounds.
      // Drop the remaining surplus without folding, releasing each worker
      // through the non-allocating queue-close path.
      while (shards_.size() > new_count) {
        Shard& doomed = *shards_.back();
        doomed.tasks.Close();
        if (doomed.worker.joinable()) doomed.worker.join();
        shards_.pop_back();
      }
      migration_.reset();
      throw;
    }
  }
  health_.Resize(new_count);
  if (replicator_ != nullptr) replicator_->Rebase(new_count);
  // The scaler baseline was cleared when the window opened and is not
  // cleared again here: a split window's completion leaves the shard set
  // as it has been since then (so the boundary-maintained baseline is
  // still a valid pairing), and a merge completion changes the set's size,
  // which forces a rebase on its own. Clearing would waste one observation
  // epoch per window — enough to miss a merge near the end of a run.
  migration_.reset();
}

// The kCompleteMigration instant is emitted after the step's own event:
// the step span carries ts = its start, so emitting the (later-stamped)
// completion instant first would break the track's chronological order.
// Never reached on the exception path — a throw unwinds before it.
void ShardedRuntime::EmitMigrationComplete(std::uint32_t from_shards,
                                           std::uint32_t to_shards) {
  if (telemetry_ == nullptr) return;
  TraceEvent e;
  e.type = TraceEventType::kCompleteMigration;
  e.ts_ns = NowNs();
  e.epoch = boundary_epoch_index_;
  e.u0 = from_shards;
  e.u1 = to_shards;
  telemetry_->dispatcher_track()->Emit(e);
}

void ShardedRuntime::StepMigration(std::uint64_t batch, SimTime epoch_end,
                                   TraceEventType type, std::uint64_t t0) {
  const std::uint32_t from = migration_->from_shards;
  const std::uint32_t to = migration_->to_shards;
  const std::uint64_t migrated = MigrateNextBatch(batch);
  const std::uint64_t pending = migration_->ledger->size() - migration_->next;
  if (pending == 0) CompleteMigration();
  ReconfigEvent event;
  event.epoch_end = epoch_end;
  event.from_shards = from;
  event.to_shards = to;
  event.views_migrated = migrated;
  event.views_pending = pending;
  event.pause_ns = NowNs() - t0;
  AppendReconfigEvent(event, type, t0);
  if (pending == 0) EmitMigrationComplete(from, to);
}

void ShardedRuntime::JoinCompletionsAtBoundary() {
  // Two passes over the shard set: every origin must be registered before
  // any slice resolves — shard A's drain may have served a slice of a
  // request shard B owns, and the per-shard vectors are visited in id
  // order.
  for (auto& shard : shards_) {
    for (const JoinOrigin& o : shard->join_origins) {
      if (o.slices == 0) {
        e2e_total_.Add(o.done_ns > o.dispatch_ns ? o.done_ns - o.dispatch_ns
                                                 : 0);
      } else {
        pending_joins_.emplace(
            o.seq, PendingJoin{o.dispatch_ns, o.done_ns, o.slices});
      }
    }
    shard->join_origins.clear();
  }
  const auto resolve = [this](const SliceDone& sd) {
    const auto it = pending_joins_.find(sd.seq);
    if (it == pending_joins_.end()) return;  // defensive: unmatched slice
    PendingJoin& pj = it->second;
    pj.max_done_ns = std::max(pj.max_done_ns, sd.done_ns);
    if (--pj.remaining == 0) {
      e2e_total_.Add(pj.max_done_ns > pj.dispatch_ns
                         ? pj.max_done_ns - pj.dispatch_ns
                         : 0);
      pending_joins_.erase(it);
    }
  };
  for (auto& shard : shards_) {
    for (const SliceDone& sd : shard->slice_done) resolve(sd);
    shard->slice_done.clear();
  }
  for (const SliceDone& sd : synth_slices_) resolve(sd);
  synth_slices_.clear();
  // The epoch's evidence for telemetry (e2e_p99 column) and the scaler's
  // SLO policy: just the joins that completed at this boundary.
  e2e_epoch_delta_ = e2e_total_.DeltaSince(e2e_baseline_);
  e2e_baseline_ = e2e_total_;
}

void ShardedRuntime::ObserveEpochForScaler(std::uint64_t epoch_index) {
  if (scaler_ == nullptr) return;
  // Deltas are only meaningful against a same-shaped baseline; after any
  // resize (and on the very first boundary) this rebases and skips one
  // observation. Migration windows are skipped too — their boundaries
  // reflect the hand-off, not steady-state load — but the baseline keeps
  // advancing so the first post-window delta still covers one epoch.
  // Rebuild windows are skipped like migration windows: their boundaries
  // carry failover and restoration work, not steady-state load.
  if (!migration_.has_value() && rebuilds_.empty() &&
      scaler_baseline_.size() == shards_.size()) {
    std::vector<ShardStats> deltas;
    deltas.reserve(shards_.size());
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      deltas.push_back(shards_[s]->stats.DeltaSince(scaler_baseline_[s]));
    }
    // The completion join ran earlier at this same boundary, so the delta
    // is exactly this epoch's end-to-end evidence for the SLO policy.
    EpochLatency e2e;
    e2e.samples = e2e_epoch_delta_.count();
    e2e.p99_us =
        static_cast<double>(e2e_epoch_delta_.Percentile(0.99)) / 1000.0;
    const std::uint32_t target =
        scaler_->Observe(epoch_index, map_.num_shards(), deltas, e2e);
    if (target != 0 && !scaler_->history().empty() &&
        std::strcmp(scaler_->history().back().reason, "split-slo") == 0) {
      ++slo_split_decisions_;
      ++pending_slo_decisions_;
    }
    // Mirror the observation — trigger inputs, hysteresis state, verdict —
    // onto the dispatcher track, so a trace shows *why* each resize fired
    // (or why the scaler held) right next to the resize spans themselves.
    if (telemetry_ != nullptr && !scaler_->history().empty()) {
      const ScalerObservation& obs = scaler_->history().back();
      TraceEvent e;
      e.type = TraceEventType::kScalerDecision;
      e.ts_ns = NowNs();
      e.epoch = epoch_index;
      e.u0 = obs.num_shards;
      e.u1 = obs.decision;
      e.u2 = obs.cooldown_left;
      e.u3 = obs.cold_streak;
      e.u4 = obs.max_shard_ops;
      e.u5 = obs.total_ops;
      e.f0 = obs.imbalance;
      e.f1 = obs.max_queue_backlog;
      e.f2 = obs.e2e_p99_us;
      e.f3 = obs.slo_target_us;
      e.label = obs.reason;
      telemetry_->dispatcher_track()->Emit(e);
    }
    // The replication floor (factor + 1 shards) binds the scaler too: a
    // merge request at or below it is dropped rather than thrown — the
    // policy keeps observing and can still scale back up.
    if (target != 0 &&
        (replicator_ == nullptr || target > config_.replication.factor)) {
      Reconfigure(target);
    }
  }
  scaler_baseline_.clear();
  for (const auto& shard : shards_) scaler_baseline_.push_back(shard->stats);
}

// ----- Fault injection, failover, and online rebuild -----

void ShardedRuntime::SetFaultInjector(const FaultInjector* injector) {
  if (injector != nullptr && injector->has_channel_faults() &&
      config_.drain != DrainPolicy::kEpoch) {
    throw std::invalid_argument(
        "ShardedRuntime::SetFaultInjector: channel drop/delay faults "
        "require DrainPolicy::kEpoch — only the epoch boundary's pre-drain "
        "point lets the dispatcher briefly own both endpoints of a channel "
        "(under kEager, workers poll their inbound rings while awaiting "
        "the drain)");
  }
  injector_ = injector;
}

void ShardedRuntime::FoldEngineAggregates(const Shard& shard) {
  retired_.counters += shard.engine->counters();
  const net::TrafficRecorder& traffic = shard.engine->traffic();
  for (int tier = 0; tier < net::kNumTiers; ++tier) {
    const auto t = static_cast<net::Tier>(tier);
    retired_.traffic_app[tier] += traffic.TierTotal(t, net::MsgClass::kApp);
    retired_.traffic_sys[tier] += traffic.TierTotal(t, net::MsgClass::kSystem);
  }
}

void ShardedRuntime::AppendFaultEvent(FaultEvent e, std::uint64_t start_ns) {
  e.sequence = next_fault_sequence_++;
  fault_events_.push_back(e);
  if (telemetry_ != nullptr) {
    static constexpr const char* kKindNames[] = {"kill_shard", "drop_channel",
                                                 "delay_channel"};
    TraceEvent t;
    t.type = TraceEventType::kFault;
    t.ts_ns = start_ns;
    t.epoch = boundary_epoch_index_;
    t.u0 = static_cast<std::uint64_t>(e.kind);
    t.u1 = e.shard;
    t.u2 = e.peer;
    t.u3 = e.remote_ops_dropped + e.remote_ops_delayed;
    t.u4 = e.writes_lost;
    t.u5 = e.sequence;
    t.label = kKindNames[static_cast<std::size_t>(e.kind)];
    telemetry_->dispatcher_track()->Emit(t);
  }
}

void ShardedRuntime::AppendRebuildEvent(RebuildEvent e,
                                        std::uint64_t start_ns) {
  e.sequence = next_fault_sequence_++;
  rebuild_events_.push_back(e);
  if (telemetry_ != nullptr) {
    TraceEvent t;
    t.type = TraceEventType::kRebuildStep;
    t.ts_ns = start_ns;
    t.dur_ns = e.pause_ns;
    t.epoch = boundary_epoch_index_;
    t.u0 = e.shard;
    t.u1 = e.views_replica;
    t.u2 = e.views_persist + e.views_cold;
    t.u3 = e.resyncs;
    t.u4 = e.views_pending;
    t.u5 = e.sequence;
    telemetry_->dispatcher_track()->Emit(t);
  }
}

void ShardedRuntime::ApplyChannelFaultsAtBoundary(std::uint64_t epoch_index,
                                                  SimTime epoch_end) {
  if (delayed_.empty() && injector_ == nullptr) return;
  // Re-inject matured delayed batches first, so a drop firing at this same
  // boundary also covers them (they are back on the channel when it fires).
  for (auto it = delayed_.begin(); it != delayed_.end();) {
    if (it->release_epoch > epoch_index) {
      ++it;
      continue;
    }
    if (it->src >= fabric_->num_shards() || it->dst >= fabric_->num_shards()) {
      // A resize shrank the plane below the channel's endpoints while the
      // batch was held back: account it as dropped, never lose it silently.
      FaultEvent event;
      event.epoch_end = epoch_end;
      event.kind = FaultSpec::Kind::kDropChannel;
      event.shard = it->src;
      event.peer = it->dst;
      const std::uint64_t drop_ns = NowNs();
      for (const FlatOp& op : it->batch.ops) {
        ++event.remote_ops_dropped;
        if ((op.flags & FlatOp::kReplicated) != 0) {
          ++event.repl_records_dropped;
        }
        // A dropped read slice still owes its request a completion: the
        // join resolves it at drop time, or the request would hang in
        // pending_joins_ forever.
        if (op.op == OpType::kRead) {
          synth_slices_.push_back(SliceDone{op.seq, drop_ns});
        }
      }
      AppendFaultEvent(event, drop_ns);
      it = delayed_.erase(it);
      continue;
    }
    if (fabric_->TrySend(it->src, it->dst, it->batch)) {
      it = delayed_.erase(it);
    } else {
      ++it;  // channel full this boundary; retry at the next one
    }
  }
  if (injector_ == nullptr) return;
  std::vector<FaultSpec> faults;
  injector_->CollectAt(epoch_index, /*channel_class=*/true, faults);
  for (const FaultSpec& f : faults) {
    if (f.shard >= fabric_->num_shards() || f.peer >= fabric_->num_shards() ||
        f.shard == f.peer) {
      continue;  // no such channel (resized away, or a self-loop)
    }
    const std::uint64_t t0 = NowNs();
    std::vector<WireBatch> claimed;
    fabric_->DrainChannel(f.shard, f.peer, claimed,
                          std::numeric_limits<std::size_t>::max());
    FaultEvent event;
    event.epoch_end = epoch_end;
    event.kind = f.kind;
    event.shard = f.shard;
    event.peer = f.peer;
    if (f.kind == FaultSpec::Kind::kDropChannel) {
      for (const WireBatch& b : claimed) {
        for (const FlatOp& op : b.ops) {
          ++event.remote_ops_dropped;
          if ((op.flags & FlatOp::kReplicated) != 0) {
            ++event.repl_records_dropped;
          }
          // Same join obligation as the endpoint-shrunk drop above.
          if (op.op == OpType::kRead) {
            synth_slices_.push_back(SliceDone{op.seq, t0});
          }
        }
      }
    } else {
      event.delay_epochs = f.delay_epochs;
      for (WireBatch& b : claimed) {
        event.remote_ops_delayed += b.ops.size();
        delayed_.push_back(DelayedBatch{f.shard, f.peer,
                                        epoch_index + f.delay_epochs,
                                        std::move(b)});
      }
    }
    event.pause_ns = NowNs() - t0;
    AppendFaultEvent(event, t0);
  }
}

void ShardedRuntime::ApplyScheduledKills(std::uint64_t epoch_index) {
  if (injector_ == nullptr) return;
  std::vector<FaultSpec> kills;
  injector_->CollectAt(epoch_index, /*channel_class=*/false, kills);
  for (const FaultSpec& f : kills) {
    // Rebuild and migration never interleave: a kill landing inside an open
    // migration window force-finishes the window first (one step — the
    // serialization of topology changes, DAOS pool-map style).
    if (migration_.has_value()) {
      StepMigration(/*batch=*/0, boundary_epoch_end_,
                    TraceEventType::kStepMigration, NowNs());
    }
    if (f.shard >= shards_.size()) continue;  // retired by a resize: no-op
    KillShardAtBoundary(f.shard, boundary_epoch_end_);
  }
}

void ShardedRuntime::KillShard(std::uint32_t shard) {
  const SimTime epoch_end = running_ ? boundary_epoch_end_ : 0;
  if (migration_.has_value()) {
    StepMigration(/*batch=*/0, epoch_end, TraceEventType::kStepMigration,
                  NowNs());
  }
  if (shard >= shards_.size()) {
    throw std::invalid_argument(
        "ShardedRuntime::KillShard: no such shard — the id is outside the "
        "live shard set (it may have been retired by a resize, including "
        "the migration window this kill just force-finished)");
  }
  KillShardAtBoundary(shard, epoch_end);
  // Between runs there are no boundaries to ride: complete the rebuild now,
  // still batch by batch so every step stays bounded and reported.
  if (!running_) {
    while (!rebuilds_.empty()) StepRebuilds(0);
  }
}

void ShardedRuntime::KillShardAtBoundary(std::uint32_t s, SimTime epoch_end) {
  const std::uint64_t t0 = NowNs();
  Shard& shard = *shards_[s];
  engines_pristine_ = false;

  FaultEvent event;
  event.epoch_end = epoch_end;
  event.kind = FaultSpec::Kind::kKillShard;
  event.shard = s;

  // The async records the dying primary buffered but never shipped are the
  // kill's write loss; under payload coherence with a persist store
  // attached, every lost record's payload is re-fetchable, so those count
  // as recovered. Sync mode never buffers — an acknowledged write's
  // replication records were applied by the boundary that acknowledged it,
  // so writes_lost is 0 by construction.
  const bool persist_payload =
      persist_ != nullptr && engine_config_.store.payload_mode;
  event.writes_unreplicated = shard.repl_pending.size();
  event.writes_recovered = persist_payload ? event.writes_unreplicated : 0;
  event.writes_lost = event.writes_unreplicated - event.writes_recovered;
  shard.repl_pending.clear();

  // Double-fault handling against every other open window: a window for s
  // itself restarts from scratch (the re-kill resets the engine again, so
  // partial progress is void), and items in other windows sourced from (or
  // destined to) s reclassify — s's copies are gone.
  for (auto it = rebuilds_.begin(); it != rebuilds_.end();) {
    if (it->shard == s) {
      it = rebuilds_.erase(it);
      continue;
    }
    for (std::size_t i = it->next; i < it->items.size(); ++i) {
      RebuildItem& item = it->items[i];
      if (item.peer != s) continue;
      switch (item.cls) {
        case RebuildItem::Cls::kReplica:
          // The serving backup died under the window: fall back to persist
          // (or cold) recovery on the rebuilding shard itself, and stop
          // diverting the view (ReinstallRouteOverrides below).
          item.cls = persist_payload ? RebuildItem::Cls::kPersist
                                     : RebuildItem::Cls::kCold;
          item.peer = it->shard;
          break;
        case RebuildItem::Cls::kResyncIn:
        case RebuildItem::Cls::kResyncOut:
          // The resync partner is gone; the pair stays conservatively
          // stale (the mark below is purged with it).
          item.cls = RebuildItem::Cls::kSkip;
          break;
        default:
          break;
      }
    }
    auto& marks = it->fresh_on_complete;
    marks.erase(std::remove_if(marks.begin(), marks.end(),
                               [s](const std::pair<std::uint32_t,
                                                   std::uint32_t>& pair) {
                                 return pair.first == s || pair.second == s;
                               }),
                marks.end());
    ++it;
  }

  health_.Set(s, ShardHealth::kDown);

  // Pick the failover source and demote the pairs the failover invalidates
  // — all before MarkBackupStale flips what s itself backed.
  const std::uint32_t n = map_.num_shards();
  std::uint32_t fresh_backup = Replicator::kNoBackup;
  std::vector<std::uint32_t> resync_out;  // stale-but-UP designated backups
  if (replicator_ != nullptr) {
    fresh_backup = replicator_->FreshBackup(s, health_);
    for (std::uint32_t k = 1; k <= replicator_->config().factor; ++k) {
      const std::uint32_t b = replicator_->backup_of(s, k);
      if (b == s || !health_.IsUp(b)) continue;
      if (b == fresh_backup) continue;  // serves the diverted writes itself
      // Every other UP backup misses the writes diverted to the serving
      // one (and may have been stale already): demote and queue a resync.
      replicator_->MarkPairStale(s, b);
      resync_out.push_back(b);
    }
    replicator_->MarkBackupStale(s);  // everything s backed died with it
  }

  // Classify the dead shard's owned views by recovery source, in ascending
  // view id (the deterministic rebuild order). Own views first, then the
  // resync items, so re-exports always ship post-restoration state.
  RebuildWindow window;
  window.shard = s;
  std::vector<ViewId> own_views;
  const ShardMap pure(n);
  for (ViewId v = 0; v < graph_->num_users(); ++v) {
    if (pure.shard_of(v) != s) continue;
    own_views.push_back(v);
    ++event.views_owned;
    RebuildItem item;
    item.view = v;
    if (fresh_backup != Replicator::kNoBackup) {
      item.cls = RebuildItem::Cls::kReplica;
      item.peer = fresh_backup;
      ++event.views_replica;
    } else if (persist_payload) {
      item.cls = RebuildItem::Cls::kPersist;
      item.peer = s;
      ++event.views_persist;
    } else {
      item.cls = RebuildItem::Cls::kCold;
      ++event.views_cold;
    }
    window.items.push_back(item);
  }
  for (std::uint32_t b : resync_out) {
    for (ViewId v : own_views) {
      RebuildItem item;
      item.cls = RebuildItem::Cls::kResyncOut;
      item.view = v;
      item.peer = b;
      window.items.push_back(item);
    }
    window.fresh_on_complete.emplace_back(s, b);
  }
  if (replicator_ != nullptr) {
    // s's fresh engine holds none of the state s backed for its primaries;
    // re-import it so those pairs can serve a later failover again.
    for (std::uint32_t p = 0; p < n; ++p) {
      if (p == s || !health_.IsUp(p)) continue;
      if (!replicator_->IsDesignatedBackup(p, s)) continue;
      for (ViewId v = 0; v < graph_->num_users(); ++v) {
        if (pure.shard_of(v) != p) continue;
        RebuildItem item;
        item.cls = RebuildItem::Cls::kResyncIn;
        item.view = v;
        item.peer = p;
        window.items.push_back(item);
      }
      window.fresh_on_complete.emplace_back(p, s);
    }
  }

  // The kill itself: park the worker, fold the dead engine's counters and
  // traffic into the retained aggregates (the Shard — its stats and
  // histograms — survives; a full RetireShard fold would double-count at
  // merge time), and swap in a fresh engine seeded to the current slot.
  const bool had_worker = shard.worker.joinable();
  if (had_worker) {
    RequestShutdown(shard);
    shard.worker.join();
  }
  FoldEngineAggregates(shard);
  const std::uint32_t slot = shard.engine->current_slot();
  auto fresh = std::make_unique<core::Engine>(topo_, initial_, engine_config_);
  if (persist_ != nullptr) fresh->AttachPersistentStore(persist_);
  fresh->SeedSlot(slot);
  shard.engine = std::move(fresh);
  if (had_worker) {
    StartWorker(shard);
    const std::uint32_t spawned[] = {s};
    RunPlacementPhase(spawned, /*rebuild_engines=*/false);
  }

  if (window.items.empty()) {
    health_.Set(s, ShardHealth::kUp);  // nothing owned, nothing to rebuild
  } else {
    health_.Set(s, ShardHealth::kRebuilding);
    rebuilds_.push_back(std::move(window));
  }
  // Divert unrecovered kReplica views to their serving backup; healthy
  // shards keep serving without a pause. Also re-points the fresh engine's
  // maintenance predicate even when nothing is diverted.
  ReinstallRouteOverrides();
  // The fresh engine's counters restart at zero; rebase the telemetry
  // baselines (the boundary already sampled this epoch before the kill) so
  // the per-epoch columns keep reconciling.
  ResetTelemetryBaselines();

  event.pause_ns = NowNs() - t0;
  AppendFaultEvent(event, t0);
  if (telemetry_ != nullptr) {
    TraceEvent t;
    t.type = TraceEventType::kFailover;
    t.ts_ns = t0;
    t.dur_ns = event.pause_ns;
    t.epoch = boundary_epoch_index_;
    t.u0 = s;
    t.u1 = fresh_backup == Replicator::kNoBackup ? n : fresh_backup;
    t.u2 = event.views_replica;
    t.u3 = event.views_persist + event.views_cold;
    t.label = fresh_backup == Replicator::kNoBackup ? "no_fresh_backup"
                                                    : "replica_failover";
    telemetry_->dispatcher_track()->Emit(t);
  }
}

bool ShardedRuntime::StepRebuilds(SimTime epoch_end) {
  if (rebuilds_.empty()) return false;
  // One budget across all open windows, so the boundary's total restoration
  // pause stays O(rebuild_batch) no matter how many shards are rebuilding.
  std::uint64_t budget = config_.replication.rebuild_batch;
  bool advanced = false;
  bool routes_changed = false;
  std::vector<ViewId> views;  // reused per contiguous (class, peer) group
  for (auto it = rebuilds_.begin(); it != rebuilds_.end() && budget > 0;) {
    RebuildWindow& w = *it;
    const std::uint64_t t0 = NowNs();
    RebuildEvent event;
    event.epoch_end = epoch_end;
    event.shard = w.shard;
    core::Engine& engine = *shards_[w.shard]->engine;
    while (budget > 0 && w.next < w.items.size()) {
      const RebuildItem head = w.items[w.next];
      std::size_t end = w.next + 1;
      while (end < w.items.size() &&
             static_cast<std::uint64_t>(end - w.next) < budget &&
             w.items[end].cls == head.cls && w.items[end].peer == head.peer) {
        ++end;
      }
      const std::uint64_t count = end - w.next;
      views.clear();
      for (std::size_t i = w.next; i < end; ++i) {
        views.push_back(w.items[i].view);
      }
      switch (head.cls) {
        case RebuildItem::Cls::kReplica:
          engine.ImportViewStates(
              shards_[head.peer]->engine->ExportViewStates(views));
          event.views_replica += count;
          routes_changed = true;  // these views stop being diverted
          break;
        case RebuildItem::Cls::kPersist:
          // Payload-mode ApplyReplicatedWrite re-fetches the view's payload
          // from the attached store — the rebuild-from-persist primitive.
          for (ViewId v : views) engine.ApplyReplicatedWrite(v, epoch_end);
          event.views_persist += count;
          break;
        case RebuildItem::Cls::kCold:
          // The fresh engine already holds the initial-placement state;
          // the item exists so the loss is classified and counted.
          event.views_cold += count;
          break;
        case RebuildItem::Cls::kResyncIn:
          engine.ImportViewStates(
              shards_[head.peer]->engine->ExportViewStates(views));
          event.resyncs += count;
          break;
        case RebuildItem::Cls::kResyncOut:
          shards_[head.peer]->engine->ImportViewStates(
              engine.ExportViewStates(views));
          event.resyncs += count;
          break;
        case RebuildItem::Cls::kSkip:
          break;  // cancelled by a second fault
      }
      w.next = end;
      budget -= count;
      advanced = true;
    }
    shards_[w.shard]->stats.views_rebuilt +=
        event.views_replica + event.views_persist + event.views_cold;
    event.views_pending = w.items.size() - w.next;
    const bool complete = w.next == w.items.size();
    event.completed = complete;
    event.pause_ns = NowNs() - t0;
    AppendRebuildEvent(event, t0);
    if (complete) {
      if (replicator_ != nullptr) {
        for (const auto& [p, b] : w.fresh_on_complete) {
          replicator_->MarkPairFresh(p, b);
        }
      }
      health_.Set(w.shard, ShardHealth::kUp);
      if (telemetry_ != nullptr) {
        TraceEvent t;
        t.type = TraceEventType::kRebuildComplete;
        t.ts_ns = NowNs();
        t.epoch = boundary_epoch_index_;
        t.u0 = w.shard;
        telemetry_->dispatcher_track()->Emit(t);
      }
      it = rebuilds_.erase(it);
      routes_changed = true;
    } else {
      ++it;
    }
  }
  if (routes_changed) ReinstallRouteOverrides();
  return advanced;
}

void ShardedRuntime::ReinstallRouteOverrides() {
  // No migration window can be open while rebuilds exist (kills close one
  // and new requests stay parked), so the live domain is the pure layout's.
  const std::uint32_t n = map_.num_shards();
  auto ledger = std::make_shared<ShardMap::PendingLedger>();
  for (const RebuildWindow& w : rebuilds_) {
    for (std::size_t i = w.next; i < w.items.size(); ++i) {
      const RebuildItem& item = w.items[i];
      if (item.cls == RebuildItem::Cls::kReplica) {
        ledger->emplace_back(item.view, item.peer);
      }
    }
  }
  const ShardMap pure(n);
  if (ledger->empty()) {
    map_ = pure;
  } else {
    // Windows partition by owner, so no view appears twice; Transition
    // wants the ledger ascending by view id.
    std::sort(ledger->begin(), ledger->end());
    map_ = ShardMap::Transition(pure, n, std::move(ledger), 0);
  }
  InstallMaintenanceOwners();
}

void ShardedRuntime::AbandonRebuilds() {
  if (rebuilds_.empty()) return;
  // Best-effort abort-path cleanup: open windows die with the aborted run —
  // un-rebuilt views simply stay cold on their fresh engines — and every
  // shard returns to UP under the pure map.
  rebuilds_.clear();
  for (std::uint32_t s = 0; s < health_.num_shards(); ++s) {
    if (!health_.IsUp(s)) health_.Set(s, ShardHealth::kUp);
  }
  if (map_.in_transition() && !migration_.has_value()) {
    map_ = ShardMap(map_.num_shards());
    InstallMaintenanceOwners();
  }
}

// ----- Telemetry plumbing (dispatcher thread, quiescent points) -----

void ShardedRuntime::AppendReconfigEvent(ReconfigEvent e, TraceEventType type,
                                         std::uint64_t start_ns) {
  e.sequence = next_reconfig_sequence_++;
  reconfig_events_.push_back(e);
  if (telemetry_ != nullptr) {
    TraceEvent t;
    t.type = type;
    t.ts_ns = start_ns;
    t.dur_ns = e.pause_ns;
    t.epoch = boundary_epoch_index_;
    t.u0 = e.from_shards;
    t.u1 = e.to_shards;
    t.u2 = e.views_migrated;
    t.u3 = e.views_pending;
    t.u4 = e.sequence;
    telemetry_->dispatcher_track()->Emit(t);
  }
}

void ShardedRuntime::WireTelemetryTracks() {
  if (telemetry_ == nullptr) return;
  // Tracks are keyed by shard id and never destroyed, so a worker spawned
  // for a previously retired id continues that id's event history. Workers
  // read the pointer only after popping a task, so the queue mutex orders
  // this write against every worker-side use.
  for (auto& shard : shards_) {
    shard->telem = telemetry_->shard_track(shard->id);
  }
}

void ShardedRuntime::ResetTelemetryBaselines() {
  if (telemetry_ == nullptr) return;
  telem_stats_baseline_.clear();
  telem_view_reads_baseline_.clear();
  for (auto& shard : shards_) {
    telem_stats_baseline_.push_back(shard->stats);
    telem_view_reads_baseline_.push_back(shard->engine->counters().view_reads);
    if (shard->telem != nullptr) shard->telem->ResetEpochPhases();
  }
}

void ShardedRuntime::SampleTelemetryEpoch(std::uint64_t epoch_index,
                                          SimTime epoch_end) {
  if (telemetry_ == nullptr) return;
  // The baselines are rebased after every resize (and at Run start), so in
  // the steady state they always pair with the live shard set and every
  // boundary is sampled; the size check is a safety net that skips (rather
  // than misattributes) a sample if a resize path ever forgot to rebase.
  if (telem_stats_baseline_.size() == shards_.size()) {
    Telemetry::EpochScalars scalars;
    if (migration_.has_value()) {
      scalars.views_pending = migration_->ledger->size() - migration_->next;
    }
    // The completion join already ran at this boundary, so the e2e column
    // has no sampling offset; the SLO counter covers decisions since the
    // *previous* sample — the scaler runs after this call.
    if (e2e_epoch_delta_.count() > 0) {
      scalars.e2e_p99_us =
          static_cast<double>(e2e_epoch_delta_.Percentile(0.99)) / 1000.0;
    }
    scalars.slo_decisions = pending_slo_decisions_;
    pending_slo_decisions_ = 0;
    std::vector<ShardEpochSample> samples;
    samples.reserve(shards_.size());
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      Shard& shard = *shards_[s];
      ShardEpochSample sample;
      sample.shard = shard.id;
      sample.delta = shard.stats.DeltaSince(telem_stats_baseline_[s]);
      const std::uint64_t view_reads = shard.engine->counters().view_reads;
      sample.engine_view_reads =
          view_reads >= telem_view_reads_baseline_[s]
              ? view_reads - telem_view_reads_baseline_[s]
              : 0;
      // Boundary replication lag: async records still buffered after the
      // epoch's flush — bounded by async_max_lag, 0 in sync/payload modes.
      sample.repl_lag = shard.repl_pending.size();
      if (const TelemetryTrack* track = shard.telem; track != nullptr) {
        sample.compute_ns = track->compute_ns;
        sample.drain_ns = track->drain_ns;
        sample.barrier_wait_ns = track->barrier_wait_ns;
        sample.maintenance_ns = track->maintenance_ns;
        sample.fabric_full_retries = track->fabric_full_retries;
        sample.fabric_max_depth = track->fabric_max_depth;
        sample.drain_claims = track->drain_claims;
        sample.drain_batch_ops = track->drain_batch_ops;
      }
      samples.push_back(sample);
    }
    telemetry_->SampleEpoch(epoch_index, epoch_end, scalars, samples);
  }
  // Advance the baselines to this boundary and zero the per-epoch phase
  // accumulators — nothing executes between this call and any resize the
  // boundary goes on to apply, so resize paths that rebase again see the
  // identical values (just reshaped to the new shard set).
  ResetTelemetryBaselines();
}

core::Engine& ShardedRuntime::shard_engine(std::uint32_t shard) {
  return *shards_[shard]->engine;
}

// ----- Per-shard execution (runs on the shard's worker thread, or on the
// calling thread in the inline fallback; either way single-writer) -----

void ShardedRuntime::ExecuteRequest(Shard& shard, const SeqRequest& sr) {
  const Request& request = sr.request;
  ++shard.stats.requests;
  core::Engine& engine = *shard.engine;
  const std::uint32_t n = map_.num_shards();
  // Remote read slices shipped for this request — the completion join's
  // outstanding-slice count. Writes and local-only reads stay 0: they are
  // end-to-end complete at the local latency sample below (coherence and
  // replication fan-out is not part of the request's read path).
  std::uint32_t join_slices = 0;

  if (request.op == OpType::kWrite) {
    ++shard.stats.writes;
    engine.ExecuteWrite(request.user, request.time);
    if (replicate_writes_) {
      // Payload coherence already fans the write to every peer; with
      // replication on, the copies bound for designated backups double as
      // the (effectively synchronous) replication stream — flagged so the
      // receiver counts them toward repl_applies.
      for (std::uint32_t d = 0; d < n; ++d) {
        if (d == shard.id) continue;
        std::uint8_t flags = 0;
        if (replicator_ != nullptr &&
            replicator_->IsDesignatedBackup(shard.id, d)) {
          flags = FlatOp::kReplicated;
          ++shard.stats.repl_sent;
        }
        shard.outbox[d].batch.ops.push_back(FlatOp{
            sr.seq, sr.dispatch_ns, request.time, request.user, OpType::kWrite,
            flags, 0, 0});
        ++shard.stats.messages_sent;
      }
    } else if (replicator_ != nullptr) {
      if (replicator_->config().mode == ReplicationMode::kSync) {
        // Sync: the record rides this epoch's batch and is applied by its
        // backups in this epoch's boundary drain — before the boundary the
        // write's acknowledgement is tied to, so a kill can never lose an
        // acknowledged write.
        for (std::uint32_t k = 1; k <= replicator_->config().factor; ++k) {
          const std::uint32_t d = replicator_->backup_of(shard.id, k);
          if (d == shard.id) continue;
          shard.outbox[d].batch.ops.push_back(FlatOp{
              sr.seq, sr.dispatch_ns, request.time, request.user,
              OpType::kWrite, FlatOp::kReplicated, 0, 0});
          ++shard.stats.repl_sent;
          ++shard.stats.messages_sent;
        }
      } else {
        // Async: buffer locally; FlushForEpoch ships everything beyond the
        // lag bound at each boundary. Whatever is buffered when this shard
        // is killed is the kill's write loss.
        shard.repl_pending.push_back(
            PendingRepl{sr.seq, sr.dispatch_ns, request.time, request.user});
      }
    }
  } else {
    ++shard.stats.reads;
    // Target expansion matches sim::Simulator::Run: the reader's followees,
    // plus the celebrity of every active flash event the reader follows.
    const auto followees = graph_->Followees(request.user);
    std::span<const ViewId> targets = followees;
    bool overlaid = false;
    for (const wl::FlashEvent& flash : flash_) {
      if (flash.ActiveAt(request.time) && flash.IsFollower(request.user)) {
        if (!overlaid) {
          shard.overlay_scratch.assign(followees.begin(), followees.end());
          overlaid = true;
        }
        shard.overlay_scratch.push_back(flash.celebrity);
      }
    }
    if (overlaid) targets = shard.overlay_scratch;

    if (n == 1) {
      engine.ExecuteReadPartial(request.user, targets, request.time,
                                /*count_request=*/true);
    } else {
      shard.local_scratch.clear();
      for (ViewId v : targets) {
        const std::uint32_t owner = map_.shard_of(v);
        if (owner == shard.id) {
          shard.local_scratch.push_back(v);
          continue;
        }
        // Append straight into the per-peer flat buffer; consecutive
        // targets of the same request coalesce into one FlatOp (last_seq
        // tracks that).
        Outbox& out = shard.outbox[owner];
        if (out.last_seq != sr.seq) {
          out.last_seq = sr.seq;
          out.batch.ops.push_back(FlatOp{
              sr.seq, sr.dispatch_ns, request.time, request.user,
              OpType::kRead, 0,
              static_cast<std::uint32_t>(out.batch.targets.size()), 0});
          ++shard.stats.messages_sent;
          ++join_slices;
        }
        out.batch.targets.push_back(v);
        ++out.batch.ops.back().target_count;
      }
      // The reader's owner accounts for the request exactly once, even when
      // its local slice is empty.
      engine.ExecuteReadPartial(request.user, shard.local_scratch,
                                request.time, /*count_request=*/true);
    }
  }

  const std::uint64_t now = NowNs();
  shard.request_latency.Add(now > sr.dispatch_ns ? now - sr.dispatch_ns : 0);
  shard.join_origins.push_back(
      JoinOrigin{sr.seq, sr.dispatch_ns, now, join_slices});
}

bool ShardedRuntime::TryFlushOutboxes(Shard& shard) {
  bool all_sent = true;
  for (std::uint32_t d = 0; d < map_.num_shards(); ++d) {
    if (d == shard.id) continue;
    Outbox& out = shard.outbox[d];
    if (out.batch.ops.empty()) continue;  // never ship empty batches
    if (fabric_->TrySend(shard.id, d, out.batch)) {
      out.batch = WireBatch{};
      out.last_seq = kNoSeq;
    } else {
      all_sent = false;
      if (shard.telem != nullptr) ++shard.telem->fabric_full_retries;
    }
  }
  return all_sent;
}

// Runs on the worker inside FlushForEpoch (single-writer on the outboxes).
// The shipped records carry older seqs than any read op already staged for
// the same destination; ServeBatches sorts by global seq at the drain, so
// the append order here never changes what the backup observes.
void ShardedRuntime::ShipAsyncReplication(Shard& shard) {
  if (shard.repl_pending.empty()) return;
  const ReplicationConfig& rc = replicator_->config();
  const std::size_t keep =
      std::min<std::size_t>(shard.repl_pending.size(), rc.async_max_lag);
  const std::size_t ship = shard.repl_pending.size() - keep;
  if (ship == 0) return;
  for (std::size_t i = 0; i < ship; ++i) {
    const PendingRepl& r = shard.repl_pending[i];
    for (std::uint32_t k = 1; k <= rc.factor; ++k) {
      const std::uint32_t d = replicator_->backup_of(shard.id, k);
      if (d == shard.id) continue;
      shard.outbox[d].batch.ops.push_back(FlatOp{
          r.seq, r.dispatch_ns, r.time, r.user, OpType::kWrite,
          FlatOp::kReplicated, 0, 0});
      ++shard.stats.repl_sent;
      ++shard.stats.messages_sent;
    }
  }
  shard.repl_pending.erase(
      shard.repl_pending.begin(),
      shard.repl_pending.begin() + static_cast<std::ptrdiff_t>(ship));
}

void ShardedRuntime::FlushForEpoch(Shard& shard) {
  if (replicator_ != nullptr && !replicate_writes_ &&
      replicator_->config().mode == ReplicationMode::kAsync) {
    // Oldest-first: the buffer tail (the newest async_max_lag records) is
    // the bounded replication lag the boundary gauge samples.
    ShipAsyncReplication(shard);
  }
  if (TryFlushOutboxes(shard)) return;
  // Only reachable under kEager: the epoch drain empties every channel
  // while producers are quiescent, so under kEpoch a channel never holds
  // more than one batch. Serving our own inbound work frees our peers'
  // channels toward us; with every worker in this flush phase either
  // draining or retrying, the flush converges globally.
  assert(config_.drain == DrainPolicy::kEager &&
         "epoch drain bounds channel occupancy to one batch");
  // This retry loop is time spent stalled on the barrier protocol (peers
  // must drain before our sends fit), so it accrues to barrier_wait_ns —
  // the barrier-assist serves inside are not separate drain_ns (see
  // docs/observability.md on phase attribution).
  TelemetryTrack* const telem = shard.telem;
  const std::uint64_t t0 = telem != nullptr ? NowNs() : 0;
  do {
    EagerPoll(shard, /*barrier_assist=*/true);
    std::this_thread::yield();
  } while (!TryFlushOutboxes(shard));
  if (telem != nullptr) telem->barrier_wait_ns += NowNs() - t0;
}

std::size_t ShardedRuntime::ServeBatches(Shard& shard) {
  auto& batches = shard.drain_batches;
  if (batches.empty()) return 0;
  auto& order = shard.drain_order;
  order.clear();
  for (const WireBatch& batch : batches) {
    for (const FlatOp& op : batch.ops) {
      order.push_back(Shard::DrainRef{&op, batch.targets.data()});
    }
  }
  // Global sequence order makes the epoch drain deterministic regardless of
  // the order batches arrived in (eager polls serve prefixes early, which
  // is exactly the determinism kEager trades away).
  std::sort(order.begin(), order.end(),
            [](const Shard::DrainRef& a, const Shard::DrainRef& b) {
              return a.op->seq < b.op->seq;
            });
  core::Engine& engine = *shard.engine;
  for (const Shard::DrainRef& ref : order) {
    const FlatOp& op = *ref.op;
    if (op.op == OpType::kRead) {
      shard.stats.remote_slice_msgs += engine.ExecuteReadPartial(
          op.user,
          std::span<const ViewId>(ref.targets + op.target_begin,
                                  op.target_count),
          op.time, /*count_request=*/false);
      ++shard.stats.remote_read_slices;
    } else {
      engine.ApplyReplicatedWrite(op.user, op.time);
      ++shard.stats.remote_write_applies;
      if ((op.flags & FlatOp::kReplicated) != 0) ++shard.stats.repl_applies;
    }
    const std::uint64_t now = NowNs();
    shard.remote_latency.Add(now > op.dispatch_ns ? now - op.dispatch_ns : 0);
    // Completion-join record: one per served remote read slice, resolved by
    // the dispatcher at the next boundary. Write applies are not join
    // slices — the issuing request completed at its local sample.
    if (op.op == OpType::kRead) {
      shard.slice_done.push_back(SliceDone{op.seq, now});
    }
  }
  batches.clear();
  return order.size();
}

void ShardedRuntime::DrainEpoch(Shard& shard) {
  TelemetryTrack* const telem = shard.telem;
  const std::uint64_t t0 = telem != nullptr ? NowNs() : 0;
  auto& batches = shard.drain_batches;
  batches.clear();
  std::size_t claims = 0;
  for (std::uint32_t src = 0; src < map_.num_shards(); ++src) {
    if (src == shard.id) continue;
    if (telem != nullptr) {
      // Producers are quiescent at the boundary, so this is the channel's
      // exact occupancy — the per-epoch fabric_max_depth gauge.
      const std::uint64_t depth = fabric_->Depth(src, shard.id);
      if (depth > telem->fabric_max_depth) telem->fabric_max_depth = depth;
    }
    // One synchronized claim empties the whole channel: the producer is
    // quiescent behind the flush barrier, so a single acquire observes
    // everything it published, and one release frees all the slots.
    if (fabric_->DrainChannel(src, shard.id, batches,
                              std::numeric_limits<std::size_t>::max()) != 0) {
      ++claims;
    }
  }
  const std::size_t batch_count = batches.size();
  const std::size_t ops = ServeBatches(shard);
  if (telem != nullptr) {
    if (claims != 0) {
      telem->drain_claims += claims;
      telem->drain_batch_ops += ops;
    }
    const std::uint64_t now = NowNs();
    telem->drain_ns += now - t0;
    TraceEvent e;
    e.type = TraceEventType::kDrain;
    e.ts_ns = t0;
    e.dur_ns = now - t0;
    e.epoch = shard.stats.epochs;  // this boundary: incremented just after
    e.u0 = batch_count;
    e.u1 = ops;
    telem->Emit(e);
  }
}

void ShardedRuntime::EagerPoll(Shard& shard, bool barrier_assist) {
  auto& batches = shard.drain_batches;
  batches.clear();
  std::size_t claims = 0;
  for (std::uint32_t src = 0; src < map_.num_shards(); ++src) {
    if (src == shard.id) continue;
    // One claim takes the whole channel. The producer may still be
    // publishing — whatever lands after this claim waits for the next poll
    // (or the enclosing flush retry loop, or the boundary drain).
    if (fabric_->DrainChannel(src, shard.id, batches,
                              std::numeric_limits<std::size_t>::max()) != 0) {
      ++claims;
    }
  }
  if (batches.empty()) return;
  // Barrier-assist polls run at the epoch boundary; only mid-epoch serves
  // count as eager drains — and only those accrue drain_ns and emit events
  // (barrier-assist time belongs to the enclosing barrier_wait_ns region,
  // which is already timing it).
  TelemetryTrack* const telem = shard.telem;
  const bool timed = telem != nullptr && !barrier_assist;
  const std::uint64_t t0 = timed ? NowNs() : 0;
  if (!barrier_assist) ++shard.stats.eager_drains;
  const std::size_t batch_count = batches.size();
  const std::size_t ops = ServeBatches(shard);
  if (telem != nullptr) {
    telem->drain_claims += claims;
    telem->drain_batch_ops += ops;
  }
  if (timed) {
    const std::uint64_t serve_end = NowNs();
    telem->drain_ns += serve_end - t0;
    TraceEvent e;
    e.type = TraceEventType::kEagerDrain;
    e.ts_ns = t0;
    e.dur_ns = serve_end - t0;
    e.epoch = shard.stats.epochs;
    e.u0 = batch_count;
    e.u1 = ops;
    telem->Emit(e);
  }
}

void ShardedRuntime::RunTicks(Shard& shard, std::span<const SimTime> ticks) {
  if (ticks.empty()) return;
  TelemetryTrack* const telem = shard.telem;
  const std::uint64_t t0 = telem != nullptr ? NowNs() : 0;
  for (SimTime t : ticks) shard.engine->Tick(t);
  if (telem != nullptr) {
    const std::uint64_t now = NowNs();
    telem->maintenance_ns += now - t0;
    TraceEvent e;
    e.type = TraceEventType::kMaintenance;
    e.ts_ns = t0;
    e.dur_ns = now - t0;
    e.epoch = shard.stats.epochs;
    e.u0 = ticks.size();
    telem->Emit(e);
  }
}

void ShardedRuntime::ExecuteBatch(Shard& shard,
                                  std::span<const SeqRequest> requests) {
  TelemetryTrack* const telem = shard.telem;
  const std::uint64_t t0 = telem != nullptr ? NowNs() : 0;
  for (const SeqRequest& sr : requests) ExecuteRequest(shard, sr);
  if (telem != nullptr) {
    const std::uint64_t now = NowNs();
    telem->compute_ns += now - t0;
    TraceEvent e;
    e.type = TraceEventType::kBatch;
    e.ts_ns = t0;
    e.dur_ns = now - t0;
    e.epoch = shard.stats.epochs;
    e.u0 = requests.size();
    telem->Emit(e);
  }
  if (config_.drain == DrainPolicy::kEager) {
    // Ship staged remote work early and serve whatever inbound work has
    // arrived — the sub-epoch freshness path.
    TryFlushOutboxes(shard);
    EagerPoll(shard, /*barrier_assist=*/false);
  }
}

void ShardedRuntime::FinishEpoch(Shard& shard,
                                 std::span<const SimTime> ticks) {
  DrainEpoch(shard);
  RunTicks(shard, ticks);
  ++shard.stats.epochs;
}

void ShardedRuntime::WorkerLoop(Shard& shard) {
  const bool eager = config_.drain == DrainPolicy::kEager;
  bool awaiting_drain = false;
  while (true) {
    std::optional<Task> task;
    if (awaiting_drain) {
      // Between flush-arrival and the drain task the worker is parked on
      // the barrier — the wait (and, under kEager, the serves inside it)
      // accrues to barrier_wait_ns and gets its own span.
      TelemetryTrack* const telem = shard.telem;
      const std::uint64_t t0 = telem != nullptr ? NowNs() : 0;
      if (eager) {
        // Cooperative barrier wait: a peer may still be spinning in its
        // epoch-end flush against a full channel toward us, so a blocking
        // Pop here would deadlock the gate. Keep serving inbound work until
        // the drain task arrives.
        while (!(task = shard.tasks.TryPop()).has_value()) {
          if (shard.tasks.closed()) break;
          EagerPoll(shard, /*barrier_assist=*/true);
          std::this_thread::yield();
        }
      } else {
        task = shard.tasks.Pop();
      }
      if (telem != nullptr) {
        const std::uint64_t now = NowNs();
        telem->barrier_wait_ns += now - t0;
        TraceEvent e;
        e.type = TraceEventType::kBarrierWait;
        e.ts_ns = t0;
        e.dur_ns = now - t0;
        e.epoch = shard.stats.epochs;
        telem->Emit(e);
      }
      if (!task.has_value()) return;  // queue closed mid-wait
    } else {
      task = shard.tasks.Pop();
    }
    if (!task || task->kind == Task::Kind::kShutdown) return;
    awaiting_drain = false;
    switch (task->kind) {
      case Task::Kind::kRequests:
        ExecuteBatch(shard, task->requests);
        break;
      case Task::Kind::kEndEpoch:
        FlushForEpoch(shard);
        gate_.Arrive();
        awaiting_drain = true;
        break;
      case Task::Kind::kDrainEpoch:
        FinishEpoch(shard, task->ticks);
        gate_.Arrive();
        break;
      case Task::Kind::kPlace:
        ApplyPlacement(shard, task->rebuild_engine);
        gate_.Arrive();
        break;
      case Task::Kind::kShutdown:
        return;
    }
  }
}

// ----- Dispatch -----

RuntimeResult ShardedRuntime::Run(const wl::RequestLog& log,
                                  std::span<const wl::FlashEvent> flash) {
  flash_ = flash;

  // Leaves the runtime reusable if the run unwinds anywhere after this
  // point — a throwing epoch hook (which fires at a boundary where every
  // worker is parked, so an orderly shutdown is always possible), a failed
  // worker spawn, an allocation failure. It shuts every worker down, so the
  // next Run restarts them all. Disarmed on normal completion: the success
  // path leaves workers parked and must keep any late pending request alive
  // for the run-end apply.
  struct AbortGuard {
    ShardedRuntime* rt;
    bool armed = true;
    ~AbortGuard() {
      if (!armed) return;
      rt->ShutdownWorkers();
      // A mid-epoch abort can strand arrivals in the gate, batches staged
      // in outboxes, and batches in flight in the rings; scrub all three so
      // a later Run starts from a clean plane. Safe and non-allocating:
      // every worker is joined, so this thread owns all channel endpoints.
      rt->gate_.Reset();
      for (auto& shard : rt->shards_) {
        for (Outbox& ob : shard->outbox) {
          ob.batch.ops.clear();
          ob.batch.targets.clear();
          ob.last_seq = kNoSeq;
        }
      }
      const std::uint32_t fabric_shards = rt->fabric_->num_shards();
      for (std::uint32_t src = 0; src < fabric_shards; ++src) {
        for (std::uint32_t dst = 0; dst < fabric_shards; ++dst) {
          while (rt->fabric_->TryRecv(src, dst).has_value()) {
          }
        }
      }
      for (auto& shard : rt->shards_) {
        shard->repl_pending.clear();
        shard->join_origins.clear();
        shard->slice_done.clear();
      }
      rt->pending_joins_.clear();
      rt->synth_slices_.clear();
      rt->delayed_.clear();
      rt->AbandonRebuilds();
      rt->flash_ = {};
      std::lock_guard lock(rt->reconfig_mutex_);
      rt->running_ = false;
      rt->pending_shards_ = 0;  // the aborted run's request dies with it
    }
  } abort_guard{this};

  {
    std::lock_guard lock(reconfig_mutex_);
    running_ = true;
  }
  // Refreshed after every applied reconfiguration.
  std::uint32_t n = map_.num_shards();
  const SimTime slot = engine_config_.slot_seconds;
  const bool threaded = config_.spawn_threads;

  if (threaded) {
    // Workers outlive a successful Run, parked on their task queues; start
    // one only where a shard has none (first Run, between-runs split,
    // aborted Run). Placement phase for just those: each new worker pins
    // itself and first-touches its hot memory before the first request is
    // dispatched; the gate makes it a barrier, so no producer can race a
    // consumer-side ring prefault. The inline fallback has no worker
    // threads, so placement is a no-op there.
    std::vector<std::uint32_t> started;
    for (auto& shard : shards_) {
      if (shard->worker.joinable()) continue;
      StartWorker(*shard);
      started.push_back(shard->id);
    }
    RunPlacementPhase(started, engines_pristine_);
  }
  engines_pristine_ = false;

  const auto t0 = std::chrono::steady_clock::now();
  const auto& requests = log.requests;
  // The sequential replay fires a tick either before the first request at
  // or past its time, or in the trailing flush up to log.duration.
  const SimTime tick_limit = std::max(
      log.duration, requests.empty() ? SimTime{0} : requests.back().time);
  SimTime next_tick = slot;
  std::uint64_t seq = 0;
  std::uint64_t epoch_index = 0;
  std::size_t i = 0;
  const std::size_t batch_size = config_.batch_size;
  std::vector<std::vector<SeqRequest>> staging(n);
  std::vector<SimTime> ticks;

  // Queue-pressure signal for the auto-scaler, sampled on the dispatcher
  // as it pushes each request batch: how many batches were already queued
  // ahead of it. Sampling at push time means boundary control tasks are
  // never counted (the previous boundary fully drained before dispatch
  // resumes), and the accumulators are dispatcher-owned until the boundary
  // fold below hands them to the (then parked) shards' stats.
  std::vector<std::uint64_t> backlog_sum(n);
  std::vector<std::uint64_t> backlog_batches(n);

  const auto flush_shard = [&](std::uint32_t s) {
    if (staging[s].empty()) return;
    ++backlog_batches[s];
    if (threaded) {
      backlog_sum[s] += shards_[s]->tasks.size();
      Task task;
      task.kind = Task::Kind::kRequests;
      task.requests = std::move(staging[s]);
      shards_[s]->tasks.Push(std::move(task));
      staging[s] = {};
    } else {
      // Inline fallback: the dispatcher thread is the single writer of
      // every shard's accumulators and track, so the same execution body
      // and instrumentation apply.
      ExecuteBatch(*shards_[s], staging[s]);
      staging[s].clear();
    }
  };

  // Re-derives the dispatch shape after anything that may have changed the
  // shard set. Every staged batch was flushed before the boundary and the
  // queue samples folded, so resizing loses nothing; the telemetry
  // baselines are reshaped too — nothing ran since the boundary's sample.
  const auto reshape = [&] {
    n = map_.num_shards();
    staging.resize(n);
    backlog_sum.resize(n);
    backlog_batches.resize(n);
    ResetTelemetryBaselines();
  };

  // Baselines for the per-epoch metric deltas: each run samples activity
  // relative to where its shards started (a reused runtime's cumulative
  // stats are nonzero). Also zeroes any stale phase accumulators.
  ResetTelemetryBaselines();
  std::uint64_t epoch_start_ns = telemetry_ != nullptr ? NowNs() : 0;

  for (SimTime epoch_end = slot;; epoch_end += slot) {
    while (i < requests.size() && requests[i].time < epoch_end) {
      const std::uint32_t s = map_.shard_of(requests[i].user);
      staging[s].push_back(SeqRequest{seq, NowNs(), requests[i]});
      if (staging[s].size() >= batch_size) flush_shard(s);
      ++seq;
      ++i;
    }
    for (std::uint32_t s = 0; s < n; ++s) flush_shard(s);

    ticks.clear();
    while (next_tick <= epoch_end && next_tick <= tick_limit) {
      ticks.push_back(next_tick);
      next_tick += slot;
    }

    if (threaded) {
      // One arrival per boundary task pushed below. shards_.size() == n on
      // every path (a resize restores the invariant even when it unwinds),
      // but deriving the count from the same container the push loops
      // iterate keeps the barrier matched by construction.
      const auto arrivals = static_cast<std::uint32_t>(shards_.size());
      for (auto& shard : shards_) {
        Task task;
        task.kind = Task::Kind::kEndEpoch;
        shard->tasks.Push(std::move(task));
      }
      gate_.WaitFor(arrivals);
      // Pre-drain fault point: every producer has flushed and arrived, no
      // consumer drains until the kDrainEpoch tasks below are pushed — the
      // only instant the dispatcher may do channel surgery (kEpoch only,
      // enforced by SetFaultInjector).
      ApplyChannelFaultsAtBoundary(epoch_index, epoch_end);
      for (auto& shard : shards_) {
        Task task;
        task.kind = Task::Kind::kDrainEpoch;
        task.ticks = ticks;
        shard->tasks.Push(std::move(task));
      }
      gate_.WaitFor(arrivals);
    } else {
      // Inline epoch-boundary flush. A full channel (kEager only) needs its
      // *destination* drained, so the retry loop alternates serving every
      // shard's inbound work with re-flushing until the plane is clear.
      bool pending = false;
      for (auto& shard : shards_) pending |= !TryFlushOutboxes(*shard);
      while (pending) {
        for (auto& shard : shards_) {
          EagerPoll(*shard, /*barrier_assist=*/true);
        }
        pending = false;
        for (auto& shard : shards_) pending |= !TryFlushOutboxes(*shard);
      }
      // Same pre-drain fault point as the threaded path — the inline
      // dispatcher owns every endpoint throughout.
      ApplyChannelFaultsAtBoundary(epoch_index, epoch_end);
      for (auto& shard : shards_) FinishEpoch(*shard, ticks);
    }

    // The boundary is the runtime's quiescent point: every request
    // dispatched so far has executed, every channel is empty, every worker
    // is parked on its task queue. Hand the dispatcher-side queue samples
    // to the parked shards' stats, fire the hook and the auto-scaler, then
    // step the migration window or apply a pending reconfiguration while
    // that holds.
    for (std::uint32_t s = 0; s < n; ++s) {
      shards_[s]->stats.task_batches += backlog_batches[s];
      shards_[s]->stats.queue_backlog_sum += backlog_sum[s];
      backlog_batches[s] = 0;
      backlog_sum[s] = 0;
    }
    // Resolve the epoch's completion-join records before telemetry samples
    // and the scaler observes — both consume the fresh e2e_epoch_delta_.
    JoinCompletionsAtBoundary();
    // Sample the epoch *before* the hook/scaler/migration below can resize
    // the shard set, so a shard retired at this boundary still contributes
    // its final epoch's row; boundary_epoch_index_ lets the resize spans
    // emitted below carry this boundary's index.
    boundary_epoch_index_ = epoch_index;
    boundary_epoch_end_ = epoch_end;
    if (telemetry_ != nullptr) {
      const std::uint64_t now = NowNs();
      TraceEvent e;
      e.type = TraceEventType::kEpoch;
      e.ts_ns = epoch_start_ns;
      e.dur_ns = now - epoch_start_ns;
      e.epoch = epoch_index;
      e.u0 = n;
      telemetry_->dispatcher_track()->Emit(e);
      SampleTelemetryEpoch(epoch_index, epoch_end);
    }
    if (epoch_hook_) epoch_hook_(epoch_end, epoch_index);
    ApplyScheduledKills(epoch_index);
    // A kill (from the injector or a hook's KillShard) inside an open
    // migration window force-finished the window, which can retire shards;
    // re-derive the dispatch shape before anything below indexes by n.
    if (n != map_.num_shards()) reshape();
    ObserveEpochForScaler(epoch_index);
    ++epoch_index;
    std::uint32_t pending = 0;
    {
      std::lock_guard lock(reconfig_mutex_);
      if (!migration_.has_value() && rebuilds_.empty()) {
        pending = pending_shards_;
        pending_shards_ = 0;
      }
      // else: requests stay parked (latest wins) until the window closes —
      // transitions never nest, and resizes never interleave with rebuilds.
    }
    bool stepped_rebuilds = false;
    if (!rebuilds_.empty()) {
      // Bounded restoration work at the boundary the kill landed on and at
      // every one after, until the windows drain.
      stepped_rebuilds = StepRebuilds(epoch_end);
    } else if (migration_.has_value()) {
      StepMigration(config_.migration_batch, epoch_end,
                    TraceEventType::kStepMigration, NowNs());
      reshape();
    } else if (pending != 0 && pending != n) {
      BeginReconfigure(pending, config_.migration_batch, threaded, epoch_end);
      reshape();
    }
    if (telemetry_ != nullptr) epoch_start_ns = NowNs();

    // An open migration or rebuild window — or a delayed batch still held
    // back by a channel fault — keeps the epoch loop alive past the log so
    // its remaining work rides real boundaries (all three shrink every
    // pass, so this terminates; delayed ops are conserved, never stranded
    // at run end). A boundary whose rebuild step did work runs one more
    // epoch even if it emptied the windows, so the step's dispatcher-
    // written counters land in the telemetry series (samples are taken
    // before the step runs).
    if (i == requests.size() && next_tick > tick_limit &&
        !migration_.has_value() && rebuilds_.empty() && !stepped_rebuilds &&
        delayed_.empty()) {
      break;
    }
  }
  // Every worker is parked on its task queue (the last boundary's gate
  // ordered its writes before ours), so the merge below reads quiescent
  // shards without joining anyone.
  abort_guard.armed = false;

  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - t0;
  flash_ = {};

  // Merge before clearing running_: while running_ holds, a concurrent
  // Reconfigure only records a pending request, so shards_ is stable here.
  RuntimeResult result = MergeResults(wall.count());
  result.expected_requests = requests.size();

  {
    std::lock_guard lock(reconfig_mutex_);
    running_ = false;
    // A request that arrived after the run's last epoch boundary has no
    // boundary left to ride; apply it now (the between-runs path) instead
    // of leaking it into the next Run's first boundary. Holding the lock
    // keeps it ordered against concurrent between-runs Reconfigure calls.
    const std::uint32_t leftover = pending_shards_;
    pending_shards_ = 0;
    if (leftover != 0) {
      BeginReconfigure(leftover, /*batch=*/0, /*threaded=*/false,
                       /*epoch_end=*/0);
    }
  }
  return result;
}

RuntimeResult ShardedRuntime::MergeResults(double wall_seconds) const {
  RuntimeResult result;
  result.wall_seconds = wall_seconds;
  result.reconfig_events = reconfig_events_;
  result.fault_events = fault_events_;
  result.rebuild_events = rebuild_events_;
  for (const FaultEvent& e : fault_events_) {
    result.writes_lost_total += e.writes_lost;
  }
  for (const auto& shard : shards_) {
    result.shard_health.push_back(health_.state(shard->id));
    result.repl_pending_end += shard->repl_pending.size();
  }
  result.health_version = health_.version();
  // Shards retired by a merge reconfiguration are part of the aggregate
  // totals (conservation) but have no per-shard row; live shards fold
  // through the same path so the two cannot drift.
  ShardAggregates agg;
  agg.Fold(retired_);
  for (const auto& shard : shards_) {
    result.shard_counters.push_back(shard->engine->counters());
    result.shard_stats.push_back(shard->stats);
    agg.Fold(*shard);
  }
  result.counters = agg.counters;
  result.totals = agg.totals;
  result.request_latency = std::move(agg.request_latency);
  result.remote_latency = std::move(agg.remote_latency);
  result.traffic_app = agg.traffic_app;
  result.traffic_sys = agg.traffic_sys;
  result.completion_latency = result.request_latency;
  result.completion_latency.Merge(result.remote_latency);
  result.request_percentiles = SummarizeLatency(result.request_latency);
  result.completion_percentiles = SummarizeLatency(result.completion_latency);
  result.e2e_latency = e2e_total_;
  result.e2e_percentiles = SummarizeLatency(result.e2e_latency);
  result.slo_split_decisions = slo_split_decisions_;
  if (wall_seconds > 0) {
    result.ops_per_sec =
        static_cast<double>(result.totals.requests) / wall_seconds;
  }
  if (telemetry_ != nullptr) {
    result.telemetry =
        std::make_shared<TelemetrySnapshot>(telemetry_->Snapshot());
  }
  return result;
}

}  // namespace dynasore::rt
