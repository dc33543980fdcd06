// SLO-driven control plane: the p99-targeting scaler policy against a
// mis-tuned load-only scaler.
//
// Replays a flash-crowd phase workload (quiet -> 6x read storm -> quiet,
// wl::GeneratePhasedLog) through rt::ShardedRuntime with a deliberately
// deep task queue, so a saturated single shard's backlog shows up as
// queueing delay in the end-to-end completion join. Three scenarios:
//
//   calib      fixed at max_shards with a decision-less scaler observing —
//              the achievable per-epoch end-to-end p99 at full capacity
//   loadonly   scaler on from 1 shard, but every load proxy mis-tuned off
//              (split_shard_ops 0 = disabled): the run that provably
//              misses the latency objective
//   slo        the same mis-tuned proxies plus target_p99_micros: the
//              "split-slo" backstop must rescue the run
//
// The target is derived, not guessed: the geometric mean of calib's and
// loadonly's worst per-epoch p99 — loadonly breaches it by construction
// only if single-shard saturation is real, and the SLO run must hold every
// epoch after its final resize at or below it. The verdict — wired to the
// process exit code so CI smoke runs fail on regressions — requires all
// three runs to conserve the logged request count with the end-to-end join
// bit-for-bit (e2e samples == requests), loadonly to breach the target
// with zero resizes, and the slo run to fire at least one "split-slo"
// decision and then hold the target through every post-resize epoch.
//
// Flags (bench_util): --scale=F --days=F --seed=N --graph=NAME --smoke
// --csv-dir=PATH --trace=PATH --timeseries=PATH. --smoke caps scale/days
// for a seconds-long CI run. The telemetry export rides the slo scenario —
// its trace carries the scaler_decision instants with e2e_p99_us and
// slo_target_us args (scripts/validate_trace.py --expect-slo checks them).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
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
// A deep queue with small batches: the dispatcher dumps each epoch's burst
// without backpressure, so an underprovisioned shard's backlog drains
// serially and its queue wait — not the dispatcher's blocked time, which no
// latency sample would see — carries the cost. One shard serving a storm
// epoch is ~kMaxShards times deeper in wall time than four.
constexpr std::uint32_t kQueueDepth = 1024;
constexpr std::uint32_t kBatchSize = 64;

constexpr char kCsvHeader[] =
    "section,scenario,epoch,shards,epoch_ops,e2e_p99_us,target_us,reason,"
    "decision,final_shards,ops_per_sec,run_e2e_p50_us,run_e2e_p99_us,"
    "max_epoch_p99_us,post_resize_p99_us,slo_splits,conserved,held\n";

struct Scenario {
  const char* name;
  bool scaled = false;               // start at 1 shard, let the loop decide
  std::uint64_t target_p99_us = 0;   // 0 = SLO policy off
};

struct Outcome {
  rt::RuntimeResult result;
  std::vector<rt::ScalerObservation> timeline;
  bool conserved = false;
  double max_epoch_p99_us = 0;     // worst observed per-epoch e2e p99
  double post_resize_p99_us = 0;   // worst epoch p99 after the last resize
  std::uint64_t slo_splits = 0;    // "split-slo" decisions that fired
  std::uint64_t resizes = 0;
};

Outcome RunScenario(const graph::SocialGraph& g, const wl::RequestLog& log,
                    const BenchArgs& args, const Scenario& sc,
                    bool telemetry) {
  sim::ExperimentConfig config;
  config.policy = sim::Policy::kRandom;
  config.extra_memory_pct = 50;
  config.seed = args.seed;
  const net::Topology topo = sim::MakeTopology(config.cluster);
  core::EngineConfig engine = config.engine;
  engine.store.capacity_views = sim::CapacityPerServer(
      g.num_users(), topo.num_servers(), config.extra_memory_pct);
  const place::PlacementResult placement = sim::MakeInitialPlacement(
      g, topo, engine.store.capacity_views, config);

  rt::RuntimeConfig rt_config;
  rt_config.queue_depth = kQueueDepth;
  rt_config.batch_size = kBatchSize;
  // Eager drain: remote slices are served as soon as the peer polls, so
  // the end-to-end join measures queueing and execution rather than
  // epoch-boundary waits (under kEpoch every remote slice waits for the
  // boundary, which would *reward* underprovisioning).
  rt_config.drain = rt::DrainPolicy::kEager;
  rt_config.telemetry.enabled = telemetry;
  // The scaler runs in every scenario — as the per-epoch latency observer.
  // calib pins min == max == kMaxShards so it can never decide; the scaled
  // scenarios start at 1 shard with every load proxy disabled, so the only
  // possible split trigger is the SLO backstop.
  rt_config.num_shards = sc.scaled ? 1 : kMaxShards;
  rt_config.scaler.enabled = true;
  rt_config.scaler.min_shards = sc.scaled ? 1 : kMaxShards;
  rt_config.scaler.max_shards = kMaxShards;
  // No cooldown: with merges disabled there is nothing to oscillate
  // against, and a p99-chasing controller should answer a breach that
  // survives one split with the next split at the very next boundary.
  rt_config.scaler.cooldown_epochs = 0;
  rt_config.scaler.split_shard_ops = 0;
  rt_config.scaler.merge_shard_ops = 0;
  rt_config.scaler.target_p99_micros = sc.target_p99_us;

  rt::ShardedRuntime runtime(g, topo, placement, engine, rt_config);
  Outcome out;
  out.result = runtime.Run(log);
  out.timeline = runtime.auto_scaler()->history();
  if (telemetry) bench::SaveRunTelemetry(args, out.result);

  const rt::RuntimeResult& r = out.result;
  out.conserved = r.totals.requests == r.expected_requests &&
                  r.counters.reads == log.num_reads &&
                  r.counters.writes == log.num_writes &&
                  r.e2e_latency.count() == r.totals.requests;
  out.resizes = r.reconfig_events.size();
  // The boundary of the last firing decision: observations after it ran
  // entirely on the post-resize shard count. (ReconfigEvent::epoch_end is a
  // sim timestamp, not an epoch index, so the scaler timeline is the map.)
  std::uint64_t last_resize_epoch = 0;
  for (const rt::ScalerObservation& obs : out.timeline) {
    if (obs.decision != 0) {
      last_resize_epoch = std::max(last_resize_epoch, obs.epoch_index);
    }
  }
  for (const rt::ScalerObservation& obs : out.timeline) {
    if (std::strcmp(obs.reason, "split-slo") == 0 && obs.decision != 0) {
      ++out.slo_splits;
    }
    if (obs.e2e_p99_us <= 0) continue;  // no completions that epoch
    out.max_epoch_p99_us = std::max(out.max_epoch_p99_us, obs.e2e_p99_us);
    if (obs.epoch_index > last_resize_epoch) {
      out.post_resize_p99_us =
          std::max(out.post_resize_p99_us, obs.e2e_p99_us);
    }
  }
  return out;
}

void AppendRunCsv(std::string* csv, const Scenario& sc, const Outcome& out,
                  bool held) {
  const rt::RuntimeResult& r = out.result;
  csv->append("run,").append(sc.name).append(",,,,,");
  csv->append(std::to_string(sc.target_p99_us)).append(",,,");
  csv->append(std::to_string(r.shard_stats.size())).append(",");
  csv->append(common::TablePrinter::Fmt(r.ops_per_sec, 1)).append(",");
  csv->append(common::TablePrinter::Fmt(r.e2e_percentiles.p50_us, 1))
      .append(",");
  csv->append(common::TablePrinter::Fmt(r.e2e_percentiles.p99_us, 1))
      .append(",");
  csv->append(common::TablePrinter::Fmt(out.max_epoch_p99_us, 1)).append(",");
  csv->append(common::TablePrinter::Fmt(out.post_resize_p99_us, 1))
      .append(",");
  csv->append(std::to_string(out.slo_splits)).append(",");
  csv->append(out.conserved ? "yes" : "no").append(",");
  csv->append(held ? "yes" : "no").append("\n");
}

void AppendEpochCsv(std::string* csv, const Scenario& sc,
                    const Outcome& out) {
  for (const rt::ScalerObservation& obs : out.timeline) {
    csv->append("epoch,").append(sc.name).append(",");
    csv->append(std::to_string(obs.epoch_index)).append(",");
    csv->append(std::to_string(obs.num_shards)).append(",");
    csv->append(std::to_string(obs.total_ops)).append(",");
    csv->append(common::TablePrinter::Fmt(obs.e2e_p99_us, 1)).append(",");
    csv->append(common::TablePrinter::Fmt(obs.slo_target_us, 1)).append(",");
    csv->append(obs.reason).append(",");
    csv->append(std::to_string(obs.decision)).append(",,,,,,,,,\n");
  }
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

  std::printf("== SLO-driven control plane: p99-targeting scaler "
              "(scale=%g, days=%g, queue_depth=%u, batch=%u) ==\n",
              args.scale, args.days, kQueueDepth, kBatchSize);
  std::printf("burst window [%llu, %llu)s at 6x\n",
              static_cast<unsigned long long>(log.duration / 3),
              static_cast<unsigned long long>(2 * log.duration / 3));
  bench::PrintWorkloadSummary(g, log);

  // Calibration pass: what end-to-end p99 can kMaxShards sustain, and how
  // badly does a stuck single shard miss it? The target splits the
  // difference geometrically, so both verdicts below have headroom on
  // any machine where underprovisioning costs latency at all.
  const Scenario calib{"calib", false, 0};
  const Scenario loadonly{"loadonly", true, 0};
  const Outcome calib_out = RunScenario(g, log, args, calib, false);
  const Outcome load_out = RunScenario(g, log, args, loadonly, false);
  const double floor_us = std::max(1.0, calib_out.max_epoch_p99_us);
  const double miss_us = std::max(floor_us, load_out.max_epoch_p99_us);
  const std::uint64_t target_us = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::sqrt(floor_us * miss_us)));

  const Scenario slo{"slo", true, target_us};
  const Outcome slo_out =
      RunScenario(g, log, args, slo, bench::WantRunTelemetry(args));

  std::printf("\nderived target: sqrt(%.1f us x %.1f us) = %llu us\n\n",
              floor_us, miss_us, static_cast<unsigned long long>(target_us));

  // Verdict: conservation everywhere; loadonly breaches without resizing;
  // the SLO run splits on the breach and holds the target afterwards.
  const bool loadonly_misses = load_out.max_epoch_p99_us >
                                   static_cast<double>(target_us) &&
                               load_out.resizes == 0;
  const bool slo_holds = slo_out.slo_splits >= 1 &&
                         slo_out.result.shard_stats.size() > 1 &&
                         slo_out.post_resize_p99_us > 0 &&
                         slo_out.post_resize_p99_us <=
                             static_cast<double>(target_us);
  const bool conserved =
      calib_out.conserved && load_out.conserved && slo_out.conserved;
  const bool ok = conserved && loadonly_misses && slo_holds;

  common::TablePrinter runs({"scenario", "final_shards", "ops/sec",
                             "e2e_p50_us", "e2e_p99_us", "max_epoch_p99",
                             "post_resize_p99", "slo_splits", "conserved",
                             "holds_target"});
  std::string csv = kCsvHeader;
  const struct {
    const Scenario* sc;
    const Outcome* out;
    bool held;
  } rows[] = {{&calib, &calib_out, true},
              {&loadonly, &load_out, !loadonly_misses},
              {&slo, &slo_out, slo_holds}};
  for (const auto& row : rows) {
    const rt::RuntimeResult& r = row.out->result;
    runs.AddRow(
        {row.sc->name,
         common::TablePrinter::Fmt(std::uint64_t{r.shard_stats.size()}),
         common::TablePrinter::Fmt(r.ops_per_sec, 0),
         common::TablePrinter::Fmt(r.e2e_percentiles.p50_us, 1),
         common::TablePrinter::Fmt(r.e2e_percentiles.p99_us, 1),
         common::TablePrinter::Fmt(row.out->max_epoch_p99_us, 1),
         common::TablePrinter::Fmt(row.out->post_resize_p99_us, 1),
         common::TablePrinter::Fmt(row.out->slo_splits),
         row.out->conserved ? "yes" : "NO",
         row.held ? "yes" : "NO"});
    AppendRunCsv(&csv, *row.sc, *row.out, row.held);
    AppendEpochCsv(&csv, *row.sc, *row.out);
  }
  runs.Print();

  common::TablePrinter decisions(
      {"scenario", "epoch", "shards", "e2e_p99_us", "target_us", "decision",
       "reason"});
  for (const rt::ScalerObservation& obs : slo_out.timeline) {
    if (obs.decision == 0) continue;
    decisions.AddRow({"slo", common::TablePrinter::Fmt(obs.epoch_index),
                      common::TablePrinter::Fmt(std::uint64_t{obs.num_shards}),
                      common::TablePrinter::Fmt(obs.e2e_p99_us, 1),
                      common::TablePrinter::Fmt(obs.slo_target_us, 1),
                      common::TablePrinter::Fmt(std::uint64_t{obs.decision}),
                      obs.reason});
  }
  std::printf("slo scenario decisions:\n");
  decisions.Print();
  std::printf("\nverdict: conserved=%s loadonly_misses=%s slo_holds=%s\n",
              conserved ? "yes" : "NO", loadonly_misses ? "yes" : "NO",
              slo_holds ? "yes" : "NO");

  bench::SaveCsv(args, "runtime_slo", csv);
  return ok ? 0 : 1;
}
