// The DynaSoRe engine (paper §3): executes reads and writes through per-user
// proxies, records per-replica access statistics, and adapts the placement
// of view replicas — creation (Algorithm 2), migration/removal (Algorithm
// 3), proactive eviction, and proxy migration — charging every message the
// distributed system would send to the traffic recorder.
//
// With `adaptive = false` the same engine executes the static baselines
// (Random/METIS/hMETIS/SPAR placements): closest-replica routing and
// write-all-replicas fan-out without any adaptation machinery.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/types.h"
#include "core/registry.h"
#include "net/topology.h"
#include "net/traffic.h"
#include "persist/persistent_store.h"
#include "placement/placement.h"
#include "store/store_server.h"

namespace dynasore::core {

struct EngineConfig {
  net::TrafficConfig traffic;
  store::StoreConfig store;
  bool adaptive = true;
  bool enable_replication = true;   // Algorithm 2
  bool enable_migration = true;     // Algorithm 3
  bool enable_proxy_migration = true;
  // Ablation: track one origin per rack globally instead of the paper's
  // coarsened n + m - 1 origins.
  bool exact_origins = false;
  std::uint32_t slot_seconds = static_cast<std::uint32_t>(kSecondsPerHour);
};

// A view's complete per-engine state, exported from the engine that owns
// the view and imported into another engine when shard ownership changes
// (rt::ShardedRuntime::Reconfigure). The shard engines all model the *same*
// physical cluster, so the hand-off is a bookkeeping transfer of authority,
// not simulated data movement: replica placement, per-replica access
// statistics (rotating counters), utilities, proxies, the adaptation
// cooldown, and — in payload mode — the cached events all travel so the new
// owner continues exactly where the old one left off.
struct ViewStateSnapshot {
  struct Replica {
    ServerId server = kInvalidServer;
    store::ReplicaStats stats{0};
    double utility = 0;
    std::vector<store::Event> events;  // payload mode only
  };

  ViewId view = kInvalidView;
  BrokerId read_proxy = kInvalidBroker;
  BrokerId write_proxy = kInvalidBroker;
  std::uint32_t last_change_slot = 0;
  std::vector<Replica> replicas;  // sorted by server id (registry order)
};

struct EngineCounters {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t view_reads = 0;        // individual views fetched
  std::uint64_t replica_updates = 0;   // per-replica write fan-out
  std::uint64_t replicas_created = 0;
  std::uint64_t replicas_dropped = 0;   // all causes below
  std::uint64_t evictions_watermark = 0;
  std::uint64_t drops_negative = 0;     // negative utility (tick or Alg 3)
  std::uint64_t migrations = 0;
  std::uint64_t read_proxy_migrations = 0;
  std::uint64_t write_proxy_migrations = 0;
  std::uint64_t crash_rebuilds = 0;

  // Merges another engine's counters (per-shard accumulators merged on
  // demand by the runtime).
  EngineCounters& operator+=(const EngineCounters& o) {
    reads += o.reads;
    writes += o.writes;
    view_reads += o.view_reads;
    replica_updates += o.replica_updates;
    replicas_created += o.replicas_created;
    replicas_dropped += o.replicas_dropped;
    evictions_watermark += o.evictions_watermark;
    drops_negative += o.drops_negative;
    migrations += o.migrations;
    read_proxy_migrations += o.read_proxy_migrations;
    write_proxy_migrations += o.write_proxy_migrations;
    crash_rebuilds += o.crash_rebuilds;
    return *this;
  }
};

class Engine {
 public:
  Engine(const net::Topology& topo, const place::PlacementResult& initial,
         const EngineConfig& config);

  // ----- Request execution (the paper's Read/Write API, §3.1) -----

  // Read(u, L): fetches the views in `targets` through u's read proxy.
  // When `feed_out` is non-null (payload mode) the fetched events are
  // appended to it.
  void ExecuteRead(UserId reader, std::span<const ViewId> targets, SimTime t,
                   std::vector<store::Event>* feed_out = nullptr);

  // Write(u): updates every replica of u's view through u's write proxy,
  // fetching the new version from the attached persistent store in payload
  // mode (§3.3 cache-coherence protocol).
  void ExecuteWrite(UserId writer, SimTime t);

  // ----- Shard-safe stepping API (used by rt::ShardedRuntime) -----
  //
  // The runtime splits one logical request across several engine instances
  // (one per shard). These entry points let it execute a *slice* of a
  // request on this engine without double-counting the request itself.
  // Engine instances are not internally synchronized: each shard owns one
  // engine and is its only writer; cross-shard effects arrive through the
  // runtime's mailboxes, already serialized.

  // Executes a subset of a logical read's targets. `count_request` controls
  // whether this call accounts for the request in `counters().reads` — the
  // shard owning the reader passes true exactly once; shards serving remote
  // target slices pass false. ExecuteRead == ExecuteReadPartial with
  // count_request=true.
  //
  // Returns the slice's serving cost in application round-trips: one per
  // target fetched, or one per distinct server contacted when
  // traffic.batch_per_server is set. The sharded runtime uses this to
  // attribute per-slice cost (and pair it with the slice's dispatch
  // timestamp) without reaching into the traffic recorder.
  std::uint32_t ExecuteReadPartial(UserId reader,
                                   std::span<const ViewId> targets, SimTime t,
                                   bool count_request,
                                   std::vector<store::Event>* feed_out = nullptr);

  // Applies a write that was executed (counted and traffic-charged) on
  // another shard's engine: refreshes this engine's replica write statistics
  // and payload version so adaptation and reads stay coherent, without
  // touching counters or the traffic recorder.
  void ApplyReplicatedWrite(ViewId v, SimTime t);

  // Restricts the hourly maintenance (utility recompute, negative-utility
  // drops, admission thresholds, watermark eviction) to views the caller
  // owns. The sharded runtime installs the shard's ownership predicate so
  // each engine maintains only its partition instead of redundantly
  // re-deciding every other shard's views; non-owned replicas keep their
  // initial placement. An empty function restores full maintenance.
  //
  // The predicate is evaluated here, once per view, into a byte map that
  // AddUser extends, so an install costs O(views) and a maintenance check
  // is one load.
  void SetMaintenanceOwner(std::function<bool(ViewId)> owned);
  // The same, for a predicate that agrees with the installed one outside
  // `changed`: only those views are evaluated again. A migration window's
  // step hands over just its batch, so its install stays O(batch).
  void SetMaintenanceOwner(std::function<bool(ViewId)> owned,
                           std::span<const ViewId> changed);

  // Whether the hourly maintenance covers `v` (see SetMaintenanceOwner).
  bool Maintains(ViewId v) const { return maintained_[v] != 0; }

  // Advances the statistics window, then, for the maintained views only,
  // rotates counters, recomputes utilities and admission thresholds, drops
  // negative-utility replicas, and runs the proactive eviction sweep
  // (§3.2). Other replicas' counters rotate lazily, on their next access
  // (store::StoreServer). Call once per slot_seconds.
  //
  // The utility pass is incremental: a replica is re-priced only when its
  // view is dirty (see Dirty) or its counters' windows moved
  // (store::ReplicaStats::WindowMoves). Any other replica's utility reads
  // exactly what it read when it was last priced, so it keeps that value.
  void Tick(SimTime t);

  // Whether `v` changed since the last utility pass in a way that changes
  // its replicas' utilities: its replica set or write proxy moved, its
  // state was imported, or its maintenance ownership was re-evaluated. The
  // next tick re-prices all of its maintained replicas.
  bool Dirty(ViewId v) const { return dirty_[v] != 0; }

  // ----- Online reconfiguration (used by rt::ShardedRuntime) -----
  //
  // Epoch-boundary only: both calls assume the caller is the sole thread
  // touching either engine (the runtime quiesces every worker first), and
  // neither charges simulated traffic — see ViewStateSnapshot.

  // Snapshots everything this engine knows about `v` so another engine can
  // take over its maintenance and request execution.
  ViewStateSnapshot ExportViewState(ViewId v) const;

  // Replaces this engine's (stale, non-authoritative) copy of the snapshot's
  // view with the exported state: the old replicas are erased and the
  // authoritative replica set is installed verbatim, forcing inserts past a
  // full server if occupancies diverged (the next tick's watermark sweep
  // restores the bound for maintained views).
  void ImportViewState(const ViewStateSnapshot& snap);

  // Batched hand-off for online rebuild (one call per contiguous run of
  // rebuild items with the same source): equivalent to the per-view calls
  // above, in order, with the snapshot buffer reserved once.
  std::vector<ViewStateSnapshot> ExportViewStates(
      std::span<const ViewId> views) const;
  void ImportViewStates(std::span<const ViewStateSnapshot> snaps);

  // Maintenance slot index, advanced by Tick. A freshly built engine joining
  // a run mid-way (shard split) must be seeded with its peers' slot so
  // cooldown comparisons against ViewInfo::last_change_slot stay aligned.
  std::uint32_t current_slot() const { return current_slot_; }
  void SeedSlot(std::uint32_t slot) { current_slot_ = slot; }

  // ----- Cluster and user management -----

  // A server crashes and loses its memory: replicas elsewhere take over;
  // sole views are rebuilt from the persistent store onto the same rack
  // (§2.2, §3.3).
  void CrashServer(ServerId s, SimTime t);

  // Registers a new user: her view lands on the least-loaded server and her
  // proxies on that rack's broker (§3.3 "Managing the social network").
  ViewId AddUser();

  void AttachPersistentStore(const persist::PersistentStore* persist) {
    persist_ = persist;
  }

  // ----- Introspection -----

  const net::Topology& topology() const { return *topo_; }
  net::TrafficRecorder& traffic() { return traffic_; }
  const net::TrafficRecorder& traffic() const { return traffic_; }
  const ViewRegistry& registry() const { return registry_; }
  const store::StoreServer& server(ServerId s) const { return servers_[s]; }
  const EngineCounters& counters() const { return counters_; }
  const EngineConfig& config() const { return config_; }

  std::uint32_t ReplicaCount(ViewId v) const {
    return registry_.ReplicaCount(v);
  }
  BrokerId read_proxy(UserId u) const { return registry_.info(u).read_proxy; }
  BrokerId write_proxy(UserId u) const {
    return registry_.info(u).write_proxy;
  }

  std::uint64_t TotalUsed() const;
  std::uint64_t TotalCapacity() const;

  // Fig 5 instrumentation: reads of one watched view since the last Take.
  void SetWatchedView(ViewId v) { watched_view_ = v; }
  std::uint64_t TakeWatchedReads();

 private:
  struct OriginScan {
    ServerId least_loaded = kInvalidServer;
    double min_threshold = 0;
  };

  RackId write_rack(ViewId v) const {
    return topo_->rack_of_broker(registry_.info(v).write_proxy);
  }

  bool Pinned(ViewId v) const {
    return registry_.ReplicaCount(v) <= config_.store.min_replicas_pin;
  }

  bool InCooldown(ViewId v) const {
    return registry_.info(v).last_change_slot == current_slot_;
  }

  // Least-loaded non-full server in the origin sub-tree that does not hold
  // `v` yet, plus that candidate's admission threshold (the value the
  // piggybacking of §3.2 disseminates).
  OriginScan ScanOrigin(ServerId owner, std::uint16_t origin, ViewId v) const;

  // Per-rack cache of the two least-loaded non-full servers, refreshed
  // lazily after any load change in the rack. ScanOrigin runs on every read
  // (Algorithms 2/3); without the cache it rescans whole sub-trees.
  struct RackCache {
    ServerId first = kInvalidServer;
    ServerId second = kInvalidServer;
    bool dirty = true;
  };
  void TouchServer(ServerId s) {
    rack_cache_[topo_->rack_of_server(s)].dirty = true;
  }
  void RefreshRackCache(RackId r) const;
  // Least-loaded eligible server of one rack (excludes full servers and
  // holders of `v`).
  ServerId RackCandidate(RackId r, ViewId v) const;

  // `r` is the replica that just served a read of `v`.
  void MaybeAdapt(ViewId v, ReplicaRef r, SimTime t);
  bool TryReplicate(ViewId v, ReplicaRef r, SimTime t);  // Algorithm 2
  // Upper bound on the profit TryReplicate can find for `origin`: the best
  // any rack of the origin could give, whatever ScanOrigin would return.
  double ReplicationBound(ServerId s, std::uint16_t origin,
                          std::uint32_t reads, double writes, RackId wrack,
                          int cost_here) const;
  void TryMigrate(ViewId v, ReplicaRef r, SimTime t);  // Algorithm 3

  static constexpr std::uint16_t kNoOrigin = 0xFFFF;

  // Creates a replica of `v` on `target`, copied from replica `from`. With
  // `move_stats` the whole access log migrates (Algorithm 3); with a
  // `seed_origin` only that origin's read history moves (Algorithm 2: the
  // new replica takes over exactly that origin's traffic, so starting it
  // with an empty log would get it dropped as useless at the next tick and
  // recreated on the next read — a thrash loop).
  void CreateReplica(ViewId v, ServerId target, ReplicaRef from, SimTime t,
                     bool move_stats, std::uint16_t seed_origin = kNoOrigin);
  // The origins of `target` that `source`'s `origin` covers. The span
  // aliases a scratch buffer that the next call overwrites.
  std::span<const std::uint16_t> RemapOrigin(ServerId source, ServerId target,
                                             std::uint16_t origin) const;
  void DropReplica(ViewId v, ServerId s, SimTime t);
  // Charges one protocol message from the write proxy to every broker whose
  // closest replica changed (routing-table maintenance, §3.2).
  void NotifyRoutingChange(ViewId v, std::span<const ServerId> closest_before,
                           SimTime t);

  void MaybeMigrateReadProxy(UserId u, std::span<const ServerId> accessed,
                             SimTime t);
  // `holders` are the servers of u's view's replicas, in registry order.
  void MaybeMigrateWriteProxy(UserId u, std::span<const ServerId> holders,
                              SimTime t);
  BrokerId BestBrokerFor(std::span<const ServerId> accessed,
                         BrokerId current) const;

  void RecomputeUtilities(ServerId s);
  void UpdateThresholdAndEvict(ServerId s, SimTime t);

  const net::Topology* topo_;
  EngineConfig config_;
  ViewRegistry registry_;
  std::vector<store::StoreServer> servers_;
  net::TrafficRecorder traffic_;
  const persist::PersistentStore* persist_ = nullptr;
  EngineCounters counters_;
  std::uint32_t current_slot_ = 0;

  ViewId watched_view_ = kInvalidView;
  std::uint64_t watched_reads_ = 0;
  std::function<bool(ViewId)> maintenance_owner_;
  std::vector<std::uint8_t> maintained_;  // by view, see SetMaintenanceOwner
  std::vector<std::uint8_t> dirty_;       // by view, see Dirty
  std::uint8_t OwnerPredicate(ViewId v) const {
    return !maintenance_owner_ || maintenance_owner_(v);
  }

  // Scratch buffers reused across requests.
  mutable std::vector<std::uint16_t> remap_scratch_;
  std::vector<ViewId> evict_drops_;
  std::vector<std::pair<double, ViewId>> ranked_;
  std::vector<ServerId> accessed_scratch_;
  std::vector<ServerId> closest_scratch_;
  std::vector<ServerId> closest_after_scratch_;
  mutable std::vector<std::uint32_t> flat_counts_;
  mutable std::vector<RackCache> rack_cache_;
};

}  // namespace dynasore::core
