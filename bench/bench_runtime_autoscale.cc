// Load-driven auto-reconfiguration: the closed loop (rt::AutoScaler) and
// the cost of resizing incrementally vs in one pause.
//
// Replays a flash-crowd phase workload (quiet -> 6x read storm -> quiet,
// wl::GeneratePhasedLog) through rt::ShardedRuntime under three scenarios
// per engine mode (static = Random placement, adaptive = DynaSoRe):
//
//   static-max  fixed at the scaler's max_shards for the whole run — the
//               oversized baseline the auto runs must conserve against
//   auto        scaler enabled, 1 shard start, single-step migration
//   auto-incr   same scaler, incremental migration (migration_batch set)
//
// The auto runs must split during the storm and merge back afterwards with
// no operator input. For every run the bench reports ops/sec, completion
// percentiles, the resize events (epoch, from->to, views migrated/pending,
// pause), and the per-epoch scaler timeline (shard count, epoch ops,
// imbalance); the verdict — wired to the process exit code so CI smoke
// runs fail on regressions — requires every auto run to conserve the
// logged request count, the static-engine auto runs to match static-max's
// aggregate counters bit-for-bit, both auto runs to both split and merge,
// and every incremental event to migrate at most migration_batch views.
//
// Flags (bench_util): --scale=F --days=F --seed=N --graph=NAME --smoke
// --csv-dir=PATH --trace=PATH --timeseries=PATH. --smoke caps scale/days
// for a seconds-long CI run. The telemetry export rides the adaptive
// auto run — the closed loop with single-step resizes, whose trace shows
// the scaler's decisions through the full 1 -> 2 -> 4 -> 2 -> 1 round trip
// (auto-incr's trailing merge window outlives the day-long log, so its
// timeline stops at 2 shards; results/runtime_autoscale_trace.json is a
// committed sample — see docs/observability.md).
#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/table.h"
#include "runtime/auto_scaler.h"
#include "runtime/sharded_runtime.h"
#include "sim/experiment.h"
#include "workload/synthetic.h"

using namespace dynasore;
using bench::BenchArgs;

namespace {

constexpr std::uint32_t kMaxShards = 4;

constexpr char kCsvHeader[] =
    "section,mode,scenario,epoch,shards,epoch_ops,imbalance,event,"
    "from_shards,to_shards,epoch_end_s,views_migrated,views_pending,"
    "pause_us,ops_per_sec,p50_us,p99_us,max_pause_us,conserved\n";

struct Scenario {
  const char* name;
  bool scaled = false;              // AutoScaler drives the shard count
  std::uint32_t migration_batch = 0;  // 0 = single-step migration
};

struct Outcome {
  rt::RuntimeResult result;
  std::vector<rt::ScalerObservation> timeline;
  bool conserved = false;
  bool split_and_merged = false;
  bool batches_bounded = true;
  std::uint64_t max_pause_ns = 0;
};

// Per-epoch request volume of the quiet phase, the anchor for the scaler
// thresholds: the storm multiplies it, the trailing quiet undercuts it.
std::uint64_t QuietOpsPerEpoch(const graph::SocialGraph& g,
                               const BenchArgs& args, SimTime epoch) {
  wl::SyntheticLogConfig base;
  base.days = args.days;
  base.seed = args.seed + 1;
  const wl::RequestLog quiet = GenerateSyntheticLog(g, base);
  if (quiet.duration == 0) return 1;
  return std::max<std::uint64_t>(
      1, quiet.requests.size() * epoch / quiet.duration);
}

rt::RuntimeConfig ScaledConfig(std::uint64_t quiet_ops,
                               const Scenario& sc) {
  rt::RuntimeConfig rt_config;
  rt_config.migration_batch = sc.migration_batch;
  if (!sc.scaled) {
    rt_config.num_shards = kMaxShards;
    return rt_config;
  }
  rt_config.num_shards = 1;
  rt_config.scaler.enabled = true;
  rt_config.scaler.min_shards = 1;
  rt_config.scaler.max_shards = kMaxShards;
  rt_config.scaler.cooldown_epochs = 1;
  // Storm (6x quiet) trips the split even after one doubling; a quarter of
  // the quiet rate per shard after the storm sits well below the merge
  // threshold, which the dead band pins at half the split threshold.
  rt_config.scaler.split_shard_ops = quiet_ops + quiet_ops / 2;
  rt_config.scaler.merge_shard_ops = rt_config.scaler.split_shard_ops / 2;
  rt_config.scaler.merge_cold_epochs = 2;
  return rt_config;
}

Outcome RunScenario(const graph::SocialGraph& g, const wl::RequestLog& log,
                    bool adaptive, const BenchArgs& args, const Scenario& sc,
                    std::uint64_t quiet_ops, bool telemetry) {
  sim::ExperimentConfig config;
  config.policy = adaptive ? sim::Policy::kDynaSoRe : sim::Policy::kRandom;
  config.extra_memory_pct = 50;
  config.seed = args.seed;
  const net::Topology topo = sim::MakeTopology(config.cluster);
  core::EngineConfig engine = config.engine;
  engine.store.capacity_views = sim::CapacityPerServer(
      g.num_users(), topo.num_servers(), config.extra_memory_pct);
  engine.adaptive = adaptive;
  const place::PlacementResult placement = sim::MakeInitialPlacement(
      g, topo, engine.store.capacity_views, config);

  rt::RuntimeConfig rt_config = ScaledConfig(quiet_ops, sc);
  rt_config.telemetry.enabled = telemetry;
  rt::ShardedRuntime runtime(g, topo, placement, engine, rt_config);
  Outcome out;
  out.result = runtime.Run(log);
  if (runtime.auto_scaler() != nullptr) {
    out.timeline = runtime.auto_scaler()->history();
  }

  out.conserved = out.result.totals.requests == out.result.expected_requests &&
                  out.result.counters.reads == log.num_reads &&
                  out.result.counters.writes == log.num_writes;
  bool split = false;
  bool merged = false;
  for (const rt::ReconfigEvent& e : out.result.reconfig_events) {
    split = split || e.to_shards > e.from_shards;
    merged = merged || e.to_shards < e.from_shards;
    out.max_pause_ns = std::max(out.max_pause_ns, e.pause_ns);
    if (sc.migration_batch != 0 && e.views_migrated > sc.migration_batch) {
      out.batches_bounded = false;
    }
  }
  out.split_and_merged = split && merged;
  return out;
}

bool ReportMode(const graph::SocialGraph& g, const wl::RequestLog& log,
                bool adaptive, const BenchArgs& args,
                std::uint32_t migration_batch, std::string* csv) {
  const char* mode = adaptive ? "adaptive" : "static";
  const Scenario scenarios[] = {
      {"static-max", false, 0},
      {"auto", true, 0},
      {"auto-incr", true, migration_batch},
  };
  const SimTime epoch = static_cast<SimTime>(kSecondsPerHour);
  const std::uint64_t quiet_ops = QuietOpsPerEpoch(g, args, epoch);

  std::printf("-- %s engine (quiet ops/epoch ~%llu, migration_batch %u) --\n",
              mode, static_cast<unsigned long long>(quiet_ops),
              migration_batch);
  common::TablePrinter runs({"scenario", "final_shards", "ops/sec", "p50_us",
                             "p99_us", "events", "max_pause_us", "split+merge",
                             "conserved"});
  common::TablePrinter events({"scenario", "event", "resize", "epoch_end_s",
                               "migrated", "pending", "pause_us"});
  common::TablePrinter decisions(
      {"scenario", "epoch", "shards", "epoch_ops", "imbalance", "decision"});

  const core::EngineCounters* reference = nullptr;
  core::EngineCounters static_counters;
  bool all_ok = true;

  for (const Scenario& sc : scenarios) {
    // Telemetry export rides the adaptive auto run: the closed loop with
    // single-step resizes — the scenario whose timeline completes the
    // whole 1 -> 2 -> 4 -> 2 -> 1 round trip within the log.
    const bool telemetry = adaptive && bench::WantRunTelemetry(args) &&
                           sc.scaled && sc.migration_batch == 0;
    const Outcome out =
        RunScenario(g, log, adaptive, args, sc, quiet_ops, telemetry);
    const rt::RuntimeResult& r = out.result;
    if (telemetry) bench::SaveRunTelemetry(args, r);

    bool ok = out.conserved && out.batches_bounded;
    if (sc.scaled) ok = ok && out.split_and_merged;
    if (!adaptive) {
      // Identical replica sets on every shard engine make the static
      // engine's aggregate counters layout-independent: the auto runs must
      // agree with the oversized baseline bit-for-bit.
      if (reference == nullptr) {
        static_counters = r.counters;
        reference = &static_counters;
      } else {
        ok = ok && r.counters.view_reads == reference->view_reads &&
             r.counters.replica_updates == reference->replica_updates;
      }
    }
    all_ok = all_ok && ok;

    runs.AddRow(
        {sc.name,
         common::TablePrinter::Fmt(std::uint64_t{r.shard_stats.size()}),
         common::TablePrinter::Fmt(r.ops_per_sec, 0),
         common::TablePrinter::Fmt(r.completion_percentiles.p50_us, 1),
         common::TablePrinter::Fmt(r.completion_percentiles.p99_us, 1),
         common::TablePrinter::Fmt(std::uint64_t{r.reconfig_events.size()}),
         common::TablePrinter::Fmt(
             static_cast<double>(out.max_pause_ns) / 1000.0, 1),
         sc.scaled ? (out.split_and_merged ? "yes" : "NO") : "-",
         ok ? "yes" : "NO"});
    csv->append("run,").append(mode).append(",").append(sc.name);
    csv->append(",,");
    csv->append(std::to_string(r.shard_stats.size())).append(",,,,,,,,,,");
    csv->append(common::TablePrinter::Fmt(r.ops_per_sec, 1)).append(",");
    csv->append(common::TablePrinter::Fmt(r.completion_percentiles.p50_us, 1))
        .append(",");
    csv->append(common::TablePrinter::Fmt(r.completion_percentiles.p99_us, 1))
        .append(",");
    csv->append(common::TablePrinter::Fmt(
                    static_cast<double>(out.max_pause_ns) / 1000.0, 1))
        .append(",");
    csv->append(ok ? "yes" : "no").append("\n");

    int index = 0;
    for (const rt::ReconfigEvent& e : r.reconfig_events) {
      const std::string resize = std::to_string(e.from_shards) + "->" +
                                 std::to_string(e.to_shards);
      events.AddRow({sc.name, common::TablePrinter::Fmt(std::uint64_t(index)),
                     resize, common::TablePrinter::Fmt(e.epoch_end),
                     common::TablePrinter::Fmt(e.views_migrated),
                     common::TablePrinter::Fmt(e.views_pending),
                     common::TablePrinter::Fmt(
                         static_cast<double>(e.pause_ns) / 1000.0, 1)});
      csv->append("event,").append(mode).append(",").append(sc.name);
      csv->append(",,,,,").append(std::to_string(index)).append(",");
      csv->append(std::to_string(e.from_shards)).append(",");
      csv->append(std::to_string(e.to_shards)).append(",");
      csv->append(std::to_string(e.epoch_end)).append(",");
      csv->append(std::to_string(e.views_migrated)).append(",");
      csv->append(std::to_string(e.views_pending)).append(",");
      csv->append(common::TablePrinter::Fmt(
                      static_cast<double>(e.pause_ns) / 1000.0, 1))
          .append(",,,,,\n");
      ++index;
    }

    for (const rt::ScalerObservation& obs : out.timeline) {
      csv->append("epoch,").append(mode).append(",").append(sc.name);
      csv->append(",").append(std::to_string(obs.epoch_index)).append(",");
      csv->append(std::to_string(obs.num_shards)).append(",");
      csv->append(std::to_string(obs.total_ops)).append(",");
      csv->append(common::TablePrinter::Fmt(obs.imbalance, 2)).append(",");
      csv->append(obs.reason).append(",,,,,,,,,,,\n");
      if (obs.decision != 0) {
        decisions.AddRow(
            {sc.name, common::TablePrinter::Fmt(obs.epoch_index),
             common::TablePrinter::Fmt(std::uint64_t{obs.num_shards}),
             common::TablePrinter::Fmt(obs.total_ops),
             common::TablePrinter::Fmt(obs.imbalance, 2), obs.reason});
      }
    }
  }

  runs.Print();
  std::printf("reconfiguration events:\n");
  events.Print();
  std::printf("scaler decisions:\n");
  decisions.Print();
  std::printf("\n");
  return all_ok;
}

}  // namespace

int main(int argc, char** argv) {
  BenchArgs args = bench::ParseArgs(argc, argv);
  bench::ApplySmoke(args);
  const auto g = bench::MakeGraph(args.graph, args);

  wl::PhasedLogConfig phased;
  phased.base.days = args.days;
  phased.base.seed = args.seed + 1;
  phased.burst_multiplier = 6.0;
  phased.hot_users = std::max<std::uint32_t>(4, g.num_users() / 50);
  const wl::RequestLog log = GeneratePhasedLog(g, phased);

  // Small enough that a resize spans several epoch boundaries, large
  // enough that the whole window closes well inside the run.
  const std::uint32_t migration_batch =
      std::max<std::uint32_t>(64, g.num_users() / 8);

  std::printf("== Load-driven auto-reconfiguration: flash-crowd workload "
              "(hardware_concurrency=%u, scale=%g, days=%g) ==\n",
              std::thread::hardware_concurrency(), args.scale, args.days);
  std::printf("burst window [%llu, %llu)s at 6x\n",
              static_cast<unsigned long long>(log.duration / 3),
              static_cast<unsigned long long>(2 * log.duration / 3));
  bench::PrintWorkloadSummary(g, log);

  std::string csv = kCsvHeader;
  bool ok = ReportMode(g, log, /*adaptive=*/false, args, migration_batch, &csv);
  ok = ReportMode(g, log, /*adaptive=*/true, args, migration_batch, &csv) && ok;

  bench::SaveCsv(args, "runtime_autoscale", csv);
  return ok ? 0 : 1;
}
