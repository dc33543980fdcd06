#include "core/engine.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>

#include "core/utility.h"

namespace dynasore::core {

Engine::Engine(const net::Topology& topo,
               const place::PlacementResult& initial,
               const EngineConfig& config)
    : topo_(&topo),
      config_(config),
      registry_(initial, topo),
      traffic_(topo, config.traffic) {
  servers_.reserve(topo.num_servers());
  for (ServerId s = 0; s < topo.num_servers(); ++s) {
    servers_.emplace_back(s, config.store);
  }
  for (ViewId v = 0; v < registry_.num_views(); ++v) {
    for (ReplicaRef& r : registry_.info(v).replicas) {
      r.entry = servers_[r.server].Insert(v);
      assert(r.entry != kNoEntry &&
             "initial placement exceeds server capacity");
    }
  }
  rack_cache_.assign(topo.num_racks(), RackCache{});
  maintained_.assign(registry_.num_views(), 1);
  dirty_.assign(registry_.num_views(), 1);  // nothing is priced yet
}

void Engine::SetMaintenanceOwner(std::function<bool(ViewId)> owned) {
  maintenance_owner_ = std::move(owned);
  for (ViewId v = 0; v < maintained_.size(); ++v) {
    maintained_[v] = OwnerPredicate(v);
  }
  std::fill(dirty_.begin(), dirty_.end(), 1);
}

void Engine::SetMaintenanceOwner(std::function<bool(ViewId)> owned,
                                 std::span<const ViewId> changed) {
  maintenance_owner_ = std::move(owned);
  for (ViewId v : changed) {
    maintained_[v] = OwnerPredicate(v);
    dirty_[v] = 1;
  }
}

std::uint64_t Engine::TotalUsed() const {
  std::uint64_t used = 0;
  for (const auto& s : servers_) used += s.used();
  return used;
}

std::uint64_t Engine::TotalCapacity() const {
  std::uint64_t capacity = 0;
  for (const auto& s : servers_) capacity += s.capacity();
  return capacity;
}

std::uint64_t Engine::TakeWatchedReads() {
  const std::uint64_t reads = watched_reads_;
  watched_reads_ = 0;
  return reads;
}

// ----- Request execution -----

void Engine::ExecuteRead(UserId reader, std::span<const ViewId> targets,
                         SimTime t, std::vector<store::Event>* feed_out) {
  ExecuteReadPartial(reader, targets, t, /*count_request=*/true, feed_out);
}

std::uint32_t Engine::ExecuteReadPartial(UserId reader,
                                         std::span<const ViewId> targets,
                                         SimTime t, bool count_request,
                                         std::vector<store::Event>* feed_out) {
  if (count_request) ++counters_.reads;
  std::uint32_t round_trips = 0;
  const BrokerId broker = registry_.info(reader).read_proxy;
  const RackId broker_rack = topo_->rack_of_broker(broker);

  accessed_scratch_.clear();
  for (ViewId v : targets) {
    const ReplicaRef r = registry_.ClosestReplica(broker, v, *topo_);
    const ServerId s = r.server;
    accessed_scratch_.push_back(s);
    ++counters_.view_reads;
    if (v == watched_view_) ++watched_reads_;
    if (!config_.traffic.batch_per_server) {
      traffic_.RecordRoundTrip(topo_->PathBrokerServer(broker, s),
                               config_.traffic.app_msg_size,
                               net::MsgClass::kApp, t);
    }
    if (feed_out != nullptr) {
      if (const store::ViewData* data = servers_[s].entry_data(r.entry)) {
        const auto events = data->events();
        feed_out->insert(feed_out->end(), events.begin(), events.end());
      }
    }
    if (config_.adaptive) {
      servers_[s].entry_stats(r.entry).RecordRead(
          topo_->OriginIndex(s, broker_rack, config_.exact_origins));
      if (!InCooldown(v)) MaybeAdapt(v, r, t);
    }
  }

  if (config_.traffic.batch_per_server) {
    // One request/answer pair per distinct server contacted.
    auto unique_servers = accessed_scratch_;
    std::sort(unique_servers.begin(), unique_servers.end());
    unique_servers.erase(
        std::unique(unique_servers.begin(), unique_servers.end()),
        unique_servers.end());
    for (ServerId s : unique_servers) {
      traffic_.RecordRoundTrip(topo_->PathBrokerServer(broker, s),
                               config_.traffic.app_msg_size,
                               net::MsgClass::kApp, t);
    }
    round_trips = static_cast<std::uint32_t>(unique_servers.size());
  } else {
    round_trips = static_cast<std::uint32_t>(targets.size());
  }

  // Proxy placement belongs to the request's owner: a remotely applied
  // slice (count_request=false) must not migrate the reader's proxy on a
  // non-owner engine — mirroring ApplyReplicatedWrite, which skips write
  // proxy migration.
  if (count_request && config_.adaptive && config_.enable_proxy_migration &&
      !targets.empty()) {
    MaybeMigrateReadProxy(reader, accessed_scratch_, t);
  }
  return round_trips;
}

void Engine::ExecuteWrite(UserId writer, SimTime t) {
  ++counters_.writes;
  const ViewId v = writer;  // producer-pivoted views: one view per user
  const BrokerId broker = registry_.info(v).write_proxy;

  std::span<const store::Event> new_version;
  if (persist_ != nullptr && config_.store.payload_mode) {
    new_version = persist_->FetchView(writer);
  }

  accessed_scratch_.clear();
  for (const ReplicaRef& r : registry_.info(v).replicas) {
    accessed_scratch_.push_back(r.server);
    ++counters_.replica_updates;
    traffic_.RecordRoundTrip(topo_->PathBrokerServer(broker, r.server),
                             config_.traffic.app_msg_size, net::MsgClass::kApp,
                             t);
    store::StoreServer& server = servers_[r.server];
    if (config_.adaptive) server.entry_stats(r.entry).RecordWrite();
    if (!new_version.empty()) {
      if (store::ViewData* data = server.entry_data(r.entry)) {
        data->ReplaceWith(new_version);
      }
    }
  }

  if (config_.adaptive && config_.enable_proxy_migration) {
    MaybeMigrateWriteProxy(writer, accessed_scratch_, t);
  }
}

void Engine::ApplyReplicatedWrite(ViewId v, SimTime t) {
  (void)t;  // the originating shard already charged the fan-out traffic
  std::span<const store::Event> new_version;
  if (persist_ != nullptr && config_.store.payload_mode) {
    new_version = persist_->FetchView(v);
  }
  for (const ReplicaRef& r : registry_.info(v).replicas) {
    store::StoreServer& server = servers_[r.server];
    if (config_.adaptive) server.entry_stats(r.entry).RecordWrite();
    if (!new_version.empty()) {
      if (store::ViewData* data = server.entry_data(r.entry)) {
        data->ReplaceWith(new_version);
      }
    }
  }
}

// ----- Proxy placement (§3.2 "Proxy placement") -----

BrokerId Engine::BestBrokerFor(std::span<const ServerId> accessed,
                               BrokerId current) const {
  if (topo_->is_flat()) {
    // Machines double as brokers: pick the machine serving the most views,
    // leaving the proxy in place on ties.
    flat_counts_.assign(topo_->num_servers(), 0);
    for (ServerId s : accessed) ++flat_counts_[s];
    BrokerId best = current;
    for (ServerId s = 0; s < topo_->num_servers(); ++s) {
      if (flat_counts_[s] > flat_counts_[best]) best = s;
    }
    return best;
  }
  // Walk down from the root, following the branch that transferred the most
  // views; ties keep the current proxy's branch to avoid gratuitous moves.
  std::array<std::uint32_t, 64> int_counts{};
  std::array<std::uint32_t, 512> rack_counts{};
  assert(topo_->num_intermediates() <= int_counts.size());
  assert(topo_->num_racks() <= rack_counts.size());
  for (ServerId s : accessed) {
    ++int_counts[topo_->intermediate_of_server(s)];
    ++rack_counts[topo_->rack_of_server(s)];
  }
  const RackId current_rack = topo_->rack_of_broker(current);
  const std::uint16_t current_int = topo_->intermediate_of_rack(current_rack);
  std::uint16_t best_int = current_int;
  for (std::uint16_t i = 0; i < topo_->num_intermediates(); ++i) {
    if (int_counts[i] > int_counts[best_int]) best_int = i;
  }
  RackId best_rack = best_int == current_int
                         ? current_rack
                         : static_cast<RackId>(best_int *
                                               topo_->racks_per_intermediate());
  for (RackId r = static_cast<RackId>(best_int *
                                      topo_->racks_per_intermediate());
       r < (best_int + 1) * topo_->racks_per_intermediate(); ++r) {
    if (rack_counts[r] > rack_counts[best_rack]) best_rack = r;
  }
  return topo_->broker_of_rack(best_rack);
}

void Engine::MaybeMigrateReadProxy(UserId u,
                                   std::span<const ServerId> accessed,
                                   SimTime t) {
  ViewInfo& info = registry_.info(u);
  const BrokerId best = BestBrokerFor(accessed, info.read_proxy);
  if (best == info.read_proxy) return;
  // Proxy state transfer between brokers.
  traffic_.Record(topo_->PathBrokerBroker(info.read_proxy, best),
                  config_.traffic.sys_msg_size, net::MsgClass::kSystem, t);
  info.read_proxy = best;
  ++counters_.read_proxy_migrations;
}

void Engine::MaybeMigrateWriteProxy(UserId u,
                                    std::span<const ServerId> holders,
                                    SimTime t) {
  ViewInfo& info = registry_.info(u);
  const BrokerId best = BestBrokerFor(holders, info.write_proxy);
  if (best == info.write_proxy) return;
  // State transfer plus a notification to every replica server, which store
  // their write proxy's location (§3.2).
  traffic_.Record(topo_->PathBrokerBroker(info.write_proxy, best),
                  config_.traffic.sys_msg_size, net::MsgClass::kSystem, t);
  for (ServerId s : holders) {
    traffic_.Record(topo_->PathBrokerServer(best, s),
                    config_.traffic.sys_msg_size, net::MsgClass::kSystem, t);
  }
  info.write_proxy = best;
  dirty_[u] = 1;  // the write cost of every replica changed
  ++counters_.write_proxy_migrations;
}

// ----- Adaptation (Algorithms 2 and 3) -----

void Engine::RefreshRackCache(RackId r) const {
  RackCache& cache = rack_cache_[r];
  cache.first = kInvalidServer;
  cache.second = kInvalidServer;
  for (ServerId s = topo_->rack_server_begin(r); s < topo_->rack_server_end(r);
       ++s) {
    if (servers_[s].Full()) continue;
    if (cache.first == kInvalidServer ||
        servers_[s].used() < servers_[cache.first].used()) {
      cache.second = cache.first;
      cache.first = s;
    } else if (cache.second == kInvalidServer ||
               servers_[s].used() < servers_[cache.second].used()) {
      cache.second = s;
    }
  }
  cache.dirty = false;
}

ServerId Engine::RackCandidate(RackId r, ViewId v) const {
  const RackCache& cache = rack_cache_[r];
  if (cache.dirty) RefreshRackCache(r);
  // The registry answers "holds v" from v's own short replica list.
  if (cache.first != kInvalidServer &&
      !registry_.HasReplica(v, cache.first)) {
    return cache.first;
  }
  if (cache.second != kInvalidServer &&
      !registry_.HasReplica(v, cache.second)) {
    return cache.second;
  }
  // Both least-loaded servers hold the view already: fall back to a scan.
  ServerId best = kInvalidServer;
  for (ServerId s = topo_->rack_server_begin(r); s < topo_->rack_server_end(r);
       ++s) {
    if (servers_[s].Full() || registry_.HasReplica(v, s)) continue;
    if (best == kInvalidServer || servers_[s].used() < servers_[best].used()) {
      best = s;
    }
  }
  return best;
}

Engine::OriginScan Engine::ScanOrigin(ServerId owner, std::uint16_t origin,
                                      ViewId v) const {
  OriginScan scan;
  const auto [rack_lo, rack_hi] =
      topo_->OriginRackRange(owner, origin, config_.exact_origins);
  for (RackId r = rack_lo; r < rack_hi; ++r) {
    const ServerId candidate = RackCandidate(r, v);
    if (candidate == kInvalidServer) continue;
    if (scan.least_loaded == kInvalidServer ||
        servers_[candidate].used() < servers_[scan.least_loaded].used()) {
      scan.least_loaded = candidate;
    }
  }
  // The admission bar is the candidate server's own threshold (the
  // least-loaded server is also the one whose threshold the brokers learn
  // through the rack-minimum piggybacking of §3.2).
  if (scan.least_loaded != kInvalidServer) {
    scan.min_threshold = servers_[scan.least_loaded].admission_threshold();
  }
  return scan;
}

void Engine::MaybeAdapt(ViewId v, ReplicaRef r, SimTime t) {
  if (config_.enable_replication && TryReplicate(v, r, t)) return;
  if (config_.enable_migration) TryMigrate(v, r, t);
}

double Engine::ReplicationBound(ServerId s, std::uint16_t origin,
                                std::uint32_t reads, double writes,
                                RackId wrack, int cost_here) const {
  // Both costs of a candidate depend only on its rack, so the first server
  // of each rack prices every candidate that ScanOrigin could return from
  // it, in the same arithmetic TryReplicate uses.
  double bound = -store::kInfiniteUtility;
  const auto [rack_lo, rack_hi] =
      topo_->OriginRackRange(s, origin, config_.exact_origins);
  for (RackId r = rack_lo; r < rack_hi; ++r) {
    const ServerId rep = topo_->rack_server_begin(r);
    const int cost_there =
        topo_->OriginCost(s, origin, rep, config_.exact_origins);
    const double profit = static_cast<double>(reads) * (cost_here - cost_there) -
                          writes * topo_->RackToServerCost(wrack, rep);
    bound = std::max(bound, profit);
  }
  return bound;
}

bool Engine::TryReplicate(ViewId v, ReplicaRef r, SimTime t) {
  const ServerId s = r.server;
  const store::ReplicaStats& stats = servers_[s].entry_stats(r.entry);
  const double writes = stats.TotalWrites();
  const RackId wrack = write_rack(v);

  double best_profit = 0;
  ServerId best_target = kInvalidServer;
  std::uint16_t best_origin = kNoOrigin;
  stats.ForEachOrigin([&](std::uint16_t origin, std::uint32_t reads) {
    const int cost_here =
        topo_->OriginCost(s, origin, s, config_.exact_origins);
    if (cost_here <= 1) return;  // already as local as it gets
    if (ReplicationBound(s, origin, reads, writes, wrack, cost_here) <=
        best_profit) {
      return;  // no server of the origin can beat the best so far
    }
    const OriginScan scan = ScanOrigin(s, origin, v);
    if (scan.least_loaded == kInvalidServer) return;
    const int cost_there =
        topo_->OriginCost(s, origin, scan.least_loaded, config_.exact_origins);
    if (cost_there >= cost_here) return;
    // Only the origin's reads reroute to the new replica; the gain is their
    // locality improvement minus the cost of keeping one more copy updated.
    const double profit =
        static_cast<double>(reads) * (cost_here - cost_there) -
        writes * topo_->RackToServerCost(wrack, scan.least_loaded);
    if (profit > scan.min_threshold && profit > best_profit) {
      best_profit = profit;
      best_target = scan.least_loaded;
      best_origin = origin;
    }
  });
  if (best_target == kInvalidServer) return false;
  CreateReplica(v, best_target, r, t, /*move_stats=*/false, best_origin);
  ++counters_.replicas_created;
  return true;
}

void Engine::TryMigrate(ViewId v, ReplicaRef r, SimTime t) {
  const ServerId s = r.server;
  const store::ReplicaStats& stats = servers_[s].entry_stats(r.entry);

  const bool pinned = Pinned(v);
  ServerId nearest = registry_.NextClosestReplica(s, v, *topo_).server;
  if (nearest == kInvalidServer) nearest = s;  // sole replica: compare moves

  // Algorithm 1 for every candidate position, in EstimateProfit's integer
  // arithmetic. The reroute cost to `nearest` is the same for all of them,
  // so it is priced once. Each origin's candidate is priced on its own:
  // origins cover disjoint racks, so no two candidates share a rack.
  const RackId wrack = write_rack(v);
  const std::int64_t nearest_cost =
      ReadCost(*topo_, config_.exact_origins, stats, s, nearest);
  const std::int64_t writes = stats.TotalWrites();
  const auto profit_at = [&](ServerId target) {
    const std::int64_t cost =
        ReadCost(*topo_, config_.exact_origins, stats, s, target);
    return static_cast<double>(nearest_cost - cost -
                               writes * topo_->RackToServerCost(wrack, target));
  };
  double best_profit = profit_at(s);
  const double own_utility = best_profit;
  ServerId best_position = s;

  // A view read from very many distinct origins has no single better
  // position (the flat topology exposes up to one origin per machine);
  // evaluating every candidate would also make Algorithm 3 quadratic in the
  // origin count. The tree topology's n + m - 1 origins stay well below
  // this cap.
  constexpr std::size_t kMaxMigrationOrigins = 24;
  if (stats.NumOrigins() <= kMaxMigrationOrigins) {
    stats.ForEachOrigin([&](std::uint16_t origin, std::uint32_t) {
      const OriginScan scan = ScanOrigin(s, origin, v);
      if (scan.least_loaded == kInvalidServer) return;
      const double profit = profit_at(scan.least_loaded);
      if (profit > best_profit && profit > scan.min_threshold) {
        best_profit = profit;
        best_position = scan.least_loaded;
      }
    });
  }

  if (best_position == s) {
    // Algorithm 3: a replica whose utility is negative and has no better
    // position is removed (never the last copy).
    if (!pinned && own_utility < 0) {
      DropReplica(v, s, t);
      ++counters_.replicas_dropped;
      ++counters_.drops_negative;
    }
    return;
  }
  CreateReplica(v, best_position, r, t, /*move_stats=*/true);
  DropReplica(v, s, t);
  ++counters_.migrations;
}

// ----- Replica set changes -----

void Engine::NotifyRoutingChange(ViewId v,
                                 std::span<const ServerId> closest_before,
                                 SimTime t) {
  const BrokerId wp = registry_.info(v).write_proxy;
  registry_.ClosestReplicas(v, *topo_, closest_after_scratch_);
  for (BrokerId b = 0; b < topo_->num_brokers(); ++b) {
    if (closest_after_scratch_[b] != closest_before[b]) {
      traffic_.Record(topo_->PathBrokerBroker(wp, b),
                      config_.traffic.sys_msg_size, net::MsgClass::kSystem, t);
    }
  }
}

std::span<const std::uint16_t> Engine::RemapOrigin(
    ServerId source, ServerId target, std::uint16_t origin) const {
  std::vector<std::uint16_t>& mapped = remap_scratch_;
  mapped.clear();
  const auto [lo, hi] =
      topo_->OriginRackRange(source, origin, config_.exact_origins);
  for (RackId r = lo; r < hi; ++r) {
    const std::uint16_t idx =
        topo_->OriginIndex(target, r, config_.exact_origins);
    if (std::find(mapped.begin(), mapped.end(), idx) == mapped.end()) {
      mapped.push_back(idx);
    }
  }
  return mapped;
}

void Engine::CreateReplica(ViewId v, ServerId target, ReplicaRef from,
                           SimTime t, bool move_stats,
                           std::uint16_t seed_origin) {
  assert(!servers_[target].Full());
  assert(!servers_[target].Has(v));
  const ServerId source = from.server;
  const BrokerId wp = registry_.info(v).write_proxy;

  // Replication request to the write proxy (the synchronization point for
  // all replica-set changes, §3.2), its instruction back to the source, and
  // the view copy itself.
  traffic_.RecordRoundTrip(topo_->PathBrokerServer(wp, source),
                           config_.traffic.sys_msg_size,
                           net::MsgClass::kSystem, t);
  traffic_.Record(topo_->PathServerServer(source, target),
                  config_.traffic.view_copy_size, net::MsgClass::kSystem, t);

  registry_.ClosestReplicas(v, *topo_, closest_scratch_);
  const EntryId entry = servers_[target].Insert(v);
  assert(entry != kNoEntry);
  TouchServer(target);
  registry_.AddReplica(v, ReplicaRef{target, entry});
  registry_.info(v).last_change_slot = current_slot_;
  dirty_[v] = 1;
  NotifyRoutingChange(v, closest_scratch_, t);

  store::ReplicaStats& source_stats = servers_[source].entry_stats(from.entry);
  store::ReplicaStats& target_stats = servers_[target].entry_stats(entry);
  if (move_stats) {
    // Re-map origins from the source's frame to the target's: fine-grained
    // rack entries that leave the target's sub-tree collapse into its
    // aggregates, and incoming aggregates spread across their racks.
    target_stats.MergeRemapped(source_stats, [&](std::uint16_t origin) {
      return RemapOrigin(source, target, origin);
    });
  } else if (seed_origin != kNoOrigin) {
    // The new replica takes over `seed_origin`'s reads: move that slice of
    // the access log with it so its utility reflects the traffic it now
    // serves (an empty log would read as useless at the next tick).
    const std::uint32_t reads = source_stats.ExtractOrigin(seed_origin);
    if (reads > 0) {
      target_stats.SpreadReads(reads,
                               RemapOrigin(source, target, seed_origin));
    }
  }

  if (config_.store.payload_mode) {
    const store::ViewData* source_data =
        servers_[source].entry_data(from.entry);
    store::ViewData* target_data = servers_[target].entry_data(entry);
    if (source_data != nullptr && target_data != nullptr) {
      target_data->ReplaceWith(source_data->events());
    }
  }
}

void Engine::DropReplica(ViewId v, ServerId s, SimTime t) {
  assert(registry_.ReplicaCount(v) > 1);
  const BrokerId wp = registry_.info(v).write_proxy;
  // Eviction request to the write proxy and its acknowledgment (§3.2: the
  // write proxy serializes evictions so at least one replica survives).
  traffic_.RecordRoundTrip(topo_->PathBrokerServer(wp, s),
                           config_.traffic.sys_msg_size,
                           net::MsgClass::kSystem, t);

  // The dropped replica's reads reroute to the next closest copy: its
  // access history travels there (piggybacked on the eviction messages) so
  // the surviving replica's utility stays accurate instead of the window
  // restarting from zero.
  const ReplicaRef heir = registry_.NextClosestReplica(s, v, *topo_);
  if (heir.server != kInvalidServer) {
    const store::ReplicaStats* from = servers_[s].Find(v);
    assert(from != nullptr);
    servers_[heir.server].entry_stats(heir.entry).MergeRemapped(
        *from,
        [&](std::uint16_t origin) {
          return RemapOrigin(s, heir.server, origin);
        },
        /*include_writes=*/false);
  }

  registry_.ClosestReplicas(v, *topo_, closest_scratch_);
  servers_[s].Erase(v);
  TouchServer(s);
  registry_.RemoveReplica(v, s);
  registry_.info(v).last_change_slot = current_slot_;
  dirty_[v] = 1;
  NotifyRoutingChange(v, closest_scratch_, t);
}

// ----- Online reconfiguration (state hand-off between shard engines) -----

ViewStateSnapshot Engine::ExportViewState(ViewId v) const {
  ViewStateSnapshot snap;
  snap.view = v;
  const ViewInfo& info = registry_.info(v);
  snap.read_proxy = info.read_proxy;
  snap.write_proxy = info.write_proxy;
  snap.last_change_slot = info.last_change_slot;
  snap.replicas.reserve(info.replicas.size());
  for (const ReplicaRef& r : info.replicas) {
    const store::StoreServer& server = servers_[r.server];
    const store::ReplicaStats* stats = server.Find(v);
    assert(stats != nullptr);
    ViewStateSnapshot::Replica replica;
    replica.server = r.server;
    replica.stats = *stats;
    replica.utility = server.utility(v);
    if (config_.store.payload_mode) {
      if (const store::ViewData* data = server.FindData(v)) {
        const auto events = data->events();
        replica.events.assign(events.begin(), events.end());
      }
    }
    snap.replicas.push_back(std::move(replica));
  }
  return snap;
}

void Engine::ImportViewState(const ViewStateSnapshot& snap) {
  const ViewId v = snap.view;
  ViewInfo& info = registry_.info(v);
  for (const ReplicaRef& r : info.replicas) {
    servers_[r.server].Erase(v);
    TouchServer(r.server);
  }
  info.replicas.clear();
  for (const ViewStateSnapshot::Replica& replica : snap.replicas) {
    store::StoreServer& server = servers_[replica.server];
    const EntryId entry = server.Insert(v, /*force=*/true);
    assert(entry != kNoEntry);
    TouchServer(replica.server);
    registry_.AddReplica(v, ReplicaRef{replica.server, entry});
    server.entry_stats(entry) = replica.stats;
    server.set_utility(v, replica.utility);
    if (config_.store.payload_mode && !replica.events.empty()) {
      if (store::ViewData* data = server.entry_data(entry)) {
        data->ReplaceWith(replica.events);
      }
    }
  }
  info.read_proxy = snap.read_proxy;
  info.write_proxy = snap.write_proxy;
  info.last_change_slot = snap.last_change_slot;
  dirty_[v] = 1;
}

std::vector<ViewStateSnapshot> Engine::ExportViewStates(
    std::span<const ViewId> views) const {
  std::vector<ViewStateSnapshot> snaps;
  snaps.reserve(views.size());
  for (ViewId v : views) snaps.push_back(ExportViewState(v));
  return snaps;
}

void Engine::ImportViewStates(std::span<const ViewStateSnapshot> snaps) {
  for (const ViewStateSnapshot& snap : snaps) ImportViewState(snap);
}

// ----- Periodic maintenance (§3.2) -----

void Engine::RecomputeUtilities(ServerId s) {
  store::StoreServer& server = servers_[s];
  const std::span<const ViewId> views = server.views();
  // Each replica costs a chain of dependent misses: its pool entry, then
  // its counter buffer and its view's registry entry. Prefetching the entry
  // 8 positions ahead and the other two 4 ahead overlaps them.
  constexpr std::size_t kEntryAhead = 8;
  constexpr std::size_t kStatsAhead = 4;
  for (std::size_t i = 0; i < views.size(); ++i) {
    if (i + kEntryAhead < views.size()) server.PrefetchEntry(i + kEntryAhead);
    if (i + kStatsAhead < views.size()) {
      server.PrefetchStats(i + kStatsAhead);
      registry_.Prefetch(views[i + kStatsAhead]);
    }
    const ViewId v = views[i];
    if (!Maintains(v)) continue;
    // Rotating every maintained window here keeps the catch-up off the
    // request path; only replicas other shards maintain rotate on access.
    // A clean view's replica whose windows did not move keeps its utility
    // (see Tick).
    if (!server.CatchUpAt(i) && dirty_[v] == 0) continue;
    const store::ReplicaStats& stats = server.stats_at(i);
    if (Pinned(v)) {
      server.set_utility_at(i, store::kInfiniteUtility);
      continue;
    }
    const ServerId nearest = registry_.NextClosestReplica(s, v, *topo_).server;
    assert(nearest != kInvalidServer);
    server.set_utility_at(
        i, EstimateProfit(*topo_, config_.exact_origins, stats, s, s, nearest,
                          write_rack(v)));
  }
}

void Engine::UpdateThresholdAndEvict(ServerId s, SimTime t) {
  store::StoreServer& server = servers_[s];

  // One pass over the maintained views: those with negative utility are
  // automatically removed (§3.2); the rest are ranked by (utility, view id).
  // Pinning is per view, so dropping one view never pins or unpins another.
  evict_drops_.clear();
  ranked_.clear();
  const std::span<const ViewId> views = server.views();
  for (std::size_t i = 0; i < views.size(); ++i) {
    const ViewId v = views[i];
    if (!Maintains(v)) continue;
    const double utility = server.utility_at(i);
    if (utility < 0 && !Pinned(v)) {
      evict_drops_.push_back(v);
    } else {
      ranked_.emplace_back(utility, v);
    }
  }
  for (ViewId v : evict_drops_) {
    DropReplica(v, s, t);
    ++counters_.replicas_dropped;
    ++counters_.drops_negative;
  }

  // Admission threshold: the utility of the view at the threshold_fill
  // percentile of *capacity*, or 0 while the server has room below it.
  const auto fill_slots = static_cast<std::size_t>(
      std::ceil(config_.store.threshold_fill * server.capacity()));
  if (ranked_.size() < fill_slots || fill_slots == 0) {
    server.set_admission_threshold(0);
  } else {
    const auto nth = ranked_.end() - static_cast<std::ptrdiff_t>(fill_slots);
    std::nth_element(ranked_.begin(), nth, ranked_.end());
    server.set_admission_threshold(nth->first);
  }

  // Proactive eviction keeps memory available above the watermark: the
  // lowest utility goes first, the lowest view id among equals. Pinned and
  // infinite-utility views are never victims. The walk usually stops after
  // a few victims, so a min-heap pops only as far as it goes; view ids are
  // unique, so the order is that of a full sort.
  if (!server.AboveWatermark()) return;
  const auto first = ranked_.begin();
  auto last = ranked_.end();
  std::make_heap(first, last, std::greater<>{});
  while (first != last && server.AboveWatermark()) {
    const auto [utility, v] = ranked_.front();
    if (utility == store::kInfiniteUtility) break;
    std::pop_heap(first, last--, std::greater<>{});
    if (Pinned(v)) continue;
    DropReplica(v, s, t);
    ++counters_.replicas_dropped;
    ++counters_.evictions_watermark;
  }
}

void Engine::Tick(SimTime t) {
  ++current_slot_;
  if (!config_.adaptive) return;
  // Counters rotate lazily (store::StoreServer): RecomputeUtilities catches
  // up the maintained replicas; the rest catch up when next touched.
  for (auto& server : servers_) server.AdvanceSlot();
  for (ServerId s = 0; s < servers_.size(); ++s) RecomputeUtilities(s);
  // Every maintained replica is priced; the drops below dirty their views
  // again for the next tick.
  std::fill(dirty_.begin(), dirty_.end(), 0);
  for (ServerId s = 0; s < servers_.size(); ++s) UpdateThresholdAndEvict(s, t);
}

// ----- Cluster management -----

void Engine::CrashServer(ServerId s, SimTime t) {
  // Only other servers change inside the loop, so the view list is stable.
  for (ViewId v : servers_[s].views()) {
    registry_.ClosestReplicas(v, *topo_, closest_scratch_);
    registry_.RemoveReplica(v, s);
    registry_.info(v).last_change_slot = current_slot_;
    dirty_[v] = 1;
    if (registry_.ReplicaCount(v) == 0) {
      // Rebuild from the persistent store onto the crashed server's rack
      // (or the least-loaded server anywhere if the rack is full).
      const RackId rack = topo_->rack_of_server(s);
      ServerId target = kInvalidServer;
      for (ServerId cand = topo_->rack_server_begin(rack);
           cand < topo_->rack_server_end(rack); ++cand) {
        if (cand == s || servers_[cand].Full()) continue;
        if (target == kInvalidServer ||
            servers_[cand].used() < servers_[target].used()) {
          target = cand;
        }
      }
      if (target == kInvalidServer) {
        for (ServerId cand = 0; cand < servers_.size(); ++cand) {
          if (cand == s || servers_[cand].Full()) continue;
          if (target == kInvalidServer ||
              servers_[cand].used() < servers_[target].used()) {
            target = cand;
          }
        }
      }
      assert(target != kInvalidServer && "cluster has no space to recover");
      const EntryId entry = servers_[target].Insert(v);
      assert(entry != kNoEntry);
      TouchServer(target);
      registry_.AddReplica(v, ReplicaRef{target, entry});
      if (config_.store.payload_mode && persist_ != nullptr) {
        if (store::ViewData* data = servers_[target].entry_data(entry)) {
          data->ReplaceWith(persist_->FetchView(v));
        }
      }
      ++counters_.crash_rebuilds;
    }
    NotifyRoutingChange(v, closest_scratch_, t);
  }
  // The machine restarts empty with the same capacity.
  servers_[s] = store::StoreServer(s, config_.store);
  TouchServer(s);
}

ViewId Engine::AddUser() {
  ServerId target = 0;
  for (ServerId s = 1; s < servers_.size(); ++s) {
    if (servers_[s].used() < servers_[target].used()) target = s;
  }
  const EntryId entry = servers_[target].Insert(registry_.num_views());
  assert(entry != kNoEntry && "no capacity for a new user");
  TouchServer(target);
  const ViewId v = registry_.AddView(
      ReplicaRef{target, entry},
      topo_->broker_of_rack(topo_->rack_of_server(target)));
  maintained_.push_back(OwnerPredicate(v));
  dirty_.push_back(1);
  return v;
}

}  // namespace dynasore::core
