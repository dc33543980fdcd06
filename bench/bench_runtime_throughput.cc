// Serving-runtime throughput and latency: replays the synthetic (§4.2) and
// flash (§4.6) workloads through rt::ShardedRuntime, sweeping the shard
// count from 1 to the hardware concurrency (always including 4), and
// reports ops/sec, scaling relative to the single-shard run, and
// per-request latency percentiles (p50/p99/p999 of the completion
// distribution plus the p99 freshness of remotely served slices). The
// static (Random placement) sweep is the pure serving path; the adaptive
// (DynaSoRe) sweep adds the per-shard adaptation machinery, whose hourly
// maintenance runs on every shard engine and therefore scales sub-linearly
// by design.
//
// A second section compares the drain policies at a fixed 4 shards: the
// epoch drain (the deterministic default) against the eager sub-epoch drain
// (serves remote slices after every batch — collapsing the freshness tail
// the epoch drain hides). Each policy runs with the persistent store's
// payload mode off and on, measuring the replicated-write coherence path.
//
// A third section ("tuned") compares the old default configuration
// (queue_depth=64, batch_size=128, unpinned) against the tuned fast path
// (the committed swept defaults, pinned + first-touched workers), both
// epoch-drained, at one shard per hardware thread: pinning more workers
// than there are CPUs stacks them on shared cores, while one worker per CPU
// is where pinning's measured win lies (docs/benchmarks.md). Both runs must
// conserve every request (the verdict is the process exit code); the tuned
// run is the one results/ commits.
//
// Flags (bench_util): --scale=F --days=F --seed=N --graph=NAME --smoke
// --csv-dir=PATH --trace=PATH --timeseries=PATH (telemetry export from the
// epoch payload-off drain-comparison run) --shards=A,B,C (replaces
// the power-of-two sweep) --queue-depth=N --batch-size=N --pin
// --drain=epoch|eager (RuntimeConfig overrides) and --tune
// (run one configuration, print one parsable "TUNE,..." line — the
// scripts/tune_runtime.py contract). Extra environment knob:
// RUNTIME_MAX_SHARDS caps the default sweep.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/table.h"
#include "persist/persistent_store.h"
#include "runtime/sharded_runtime.h"
#include "sim/experiment.h"
#include "workload/flash.h"
#include "workload/partition.h"

using namespace dynasore;
using bench::BenchArgs;

namespace {

// `section` disambiguates the report shapes: "sweep" rows take their
// speedup relative to the 1-shard run of the same sweep, "drain4" rows
// relative to the epoch-drain baseline at the same shard count and payload
// mode, "tuned" rows relative to the pre-PR default.
constexpr char kCsvHeader[] =
    "section,workload,mode,payload,drain,shards,queue_depth,"
    "batch_size,pinned,ops_per_sec,speedup,p50_us,p99_us,p999_us,"
    "fresh_p99_us\n";

std::vector<std::uint32_t> ShardSweep(const BenchArgs& args) {
  if (!args.shards.empty()) return args.shards;
  std::uint32_t max_shards =
      std::max(4u, std::thread::hardware_concurrency());
  if (const char* cap = std::getenv("RUNTIME_MAX_SHARDS")) {
    max_shards = std::max(1u, static_cast<std::uint32_t>(std::atoi(cap)));
  }
  std::vector<std::uint32_t> sweep;
  for (std::uint32_t s = 1; s <= max_shards; s *= 2) sweep.push_back(s);
  if (std::find(sweep.begin(), sweep.end(), max_shards) == sweep.end()) {
    sweep.push_back(max_shards);
  }
  return sweep;
}

// Applies the command-line RuntimeConfig overrides (zero / -1 / empty mean
// "keep the config's value") — the knobs scripts/tune_runtime.py sweeps.
void ApplyTuningFlags(const BenchArgs& args, rt::RuntimeConfig* rt_config) {
  if (args.queue_depth != 0) rt_config->queue_depth = args.queue_depth;
  if (args.batch_size != 0) rt_config->batch_size = args.batch_size;
  if (args.pin) rt_config->placement.pin_workers = true;
  if (args.drain == "eager") rt_config->drain = rt::DrainPolicy::kEager;
  if (args.drain == "epoch") rt_config->drain = rt::DrainPolicy::kEpoch;
}

const char* DrainName(rt::DrainPolicy d) {
  return d == rt::DrainPolicy::kEpoch ? "epoch" : "eager";
}

struct RunRow {
  std::string label;  // tuned rows: the configuration's name
  std::uint32_t shards = 0;
  bool payload = false;
  rt::DrainPolicy drain = rt::DrainPolicy::kEpoch;
  std::uint32_t queue_depth = 0;
  std::uint32_t batch_size = 0;
  bool pinned = false;
  double ops_per_sec = 0;
  double speedup = 1.0;
  double balance = 1.0;
  std::uint64_t messages = 0;
  rt::LatencyPercentiles completion;
  double fresh_p99_us = 0;   // p99 of remotely served slices
  bool conserved = false;    // every dispatched request executed exactly once
};

struct WorkloadCase {
  const graph::SocialGraph* g;
  const wl::RequestLog* log;
  std::span<const wl::FlashEvent> flash;
  bool adaptive = false;
  bool payload = false;
  const persist::PersistentStore* persist = nullptr;
  const BenchArgs* args;
};

RunRow RunOnce(const WorkloadCase& wc, const rt::RuntimeConfig& rt_config,
               double* balance_out = nullptr) {
  sim::ExperimentConfig config;
  config.policy = wc.adaptive ? sim::Policy::kDynaSoRe : sim::Policy::kRandom;
  config.extra_memory_pct = 50;
  config.seed = wc.args->seed;
  const net::Topology topo = sim::MakeTopology(config.cluster);
  core::EngineConfig engine = config.engine;
  engine.store.capacity_views = sim::CapacityPerServer(
      wc.g->num_users(), topo.num_servers(), config.extra_memory_pct);
  engine.adaptive = wc.adaptive;
  engine.store.payload_mode = wc.payload;
  const place::PlacementResult placement = sim::MakeInitialPlacement(
      *wc.g, topo, engine.store.capacity_views, config);

  rt::ShardedRuntime runtime(*wc.g, topo, placement, engine, rt_config);
  if (wc.payload && wc.persist != nullptr) {
    runtime.AttachPersistentStore(wc.persist);
  }
  if (balance_out != nullptr) {
    const wl::ShardedRequests parted = wl::PartitionRequests(
        *wc.log, rt_config.num_shards,
        [&](UserId u) { return runtime.shard_map().shard_of(u); });
    *balance_out = parted.balance_factor();
  }
  const rt::RuntimeResult result = runtime.Run(*wc.log, wc.flash);
  if (rt_config.telemetry.enabled) {
    bench::SaveRunTelemetry(*wc.args, result);
  }

  RunRow row;
  row.shards = rt_config.num_shards;
  row.payload = wc.payload;
  row.drain = rt_config.drain;
  row.queue_depth = rt_config.queue_depth;
  row.batch_size = rt_config.batch_size;
  row.pinned = rt_config.placement.pin_workers;
  row.ops_per_sec = result.ops_per_sec;
  row.messages = result.totals.messages_sent;
  row.completion = result.completion_percentiles;
  row.fresh_p99_us = rt::SummarizeLatency(result.remote_latency).p99_us;
  row.conserved = result.totals.requests == result.expected_requests;
  return row;
}

void AppendCsv(const char* section, const char* workload, const char* mode,
               const RunRow& row, std::string* csv) {
  csv->append(section).append(",");
  csv->append(workload).append(",").append(mode).append(",");
  csv->append(row.payload ? "on" : "off").append(",");
  csv->append(DrainName(row.drain)).append(",");
  csv->append(std::to_string(row.shards)).append(",");
  csv->append(std::to_string(row.queue_depth)).append(",");
  csv->append(std::to_string(row.batch_size)).append(",");
  csv->append(row.pinned ? "1" : "0").append(",");
  csv->append(common::TablePrinter::Fmt(row.ops_per_sec, 1)).append(",");
  csv->append(common::TablePrinter::Fmt(row.speedup, 3)).append(",");
  csv->append(common::TablePrinter::Fmt(row.completion.p50_us, 1)).append(",");
  csv->append(common::TablePrinter::Fmt(row.completion.p99_us, 1)).append(",");
  csv->append(common::TablePrinter::Fmt(row.completion.p999_us, 1))
      .append(",");
  csv->append(common::TablePrinter::Fmt(row.fresh_p99_us, 1)).append("\n");
}

void PrintSweep(const char* workload, const char* mode,
                const std::vector<RunRow>& rows, std::string* csv) {
  std::printf("-- %s workload, %s engine --\n", workload, mode);
  common::TablePrinter table({"shards", "ops/sec", "speedup vs 1", "balance",
                              "msgs", "p50_us", "p99_us", "fresh_p99_us"});
  for (const RunRow& row : rows) {
    table.AddRow({common::TablePrinter::Fmt(std::uint64_t{row.shards}),
                  common::TablePrinter::Fmt(row.ops_per_sec, 0),
                  common::TablePrinter::Fmt(row.speedup, 2),
                  common::TablePrinter::Fmt(row.balance, 3),
                  common::TablePrinter::Fmt(row.messages),
                  common::TablePrinter::Fmt(row.completion.p50_us, 1),
                  common::TablePrinter::Fmt(row.completion.p99_us, 1),
                  common::TablePrinter::Fmt(row.fresh_p99_us, 1)});
    AppendCsv("sweep", workload, mode, row, csv);
  }
  table.Print();
}

std::vector<RunRow> RunSweep(WorkloadCase wc,
                             std::span<const std::uint32_t> sweep) {
  std::vector<RunRow> rows;
  for (std::uint32_t shards : sweep) {
    rt::RuntimeConfig rt_config;
    rt_config.num_shards = shards;
    ApplyTuningFlags(*wc.args, &rt_config);
    double balance = 1.0;
    RunRow row = RunOnce(wc, rt_config, &balance);
    row.balance = balance;
    row.speedup =
        rows.empty() ? 1.0 : row.ops_per_sec / rows.front().ops_per_sec;
    rows.push_back(row);
  }
  return rows;
}

// The fixed-shard drain comparison: epoch vs eager, payload off/on. Each
// payload mode's epoch row is that mode's speedup baseline.
void RunDrainComparison(WorkloadCase wc, std::uint32_t shards,
                        std::string* csv) {
  std::printf("-- drain comparison: %u shards, synthetic workload, static "
              "engine --\n", shards);
  common::TablePrinter table({"drain", "payload", "ops/sec", "speedup",
                              "p50_us", "p99_us", "p999_us", "fresh_p99_us"});
  for (const bool payload : {false, true}) {
    wc.payload = payload;
    double baseline = 0;
    for (const rt::DrainPolicy drain :
         {rt::DrainPolicy::kEpoch, rt::DrainPolicy::kEager}) {
      rt::RuntimeConfig rt_config;
      rt_config.num_shards = shards;
      rt_config.drain = drain;
      // Telemetry export rides the epoch payload-off run — the default
      // configuration, so the trace shows the plane CI exercises
      // everywhere else.
      rt_config.telemetry.enabled = bench::WantRunTelemetry(*wc.args) &&
                                    !payload &&
                                    drain == rt::DrainPolicy::kEpoch;
      RunRow row = RunOnce(wc, rt_config);
      if (baseline == 0) baseline = row.ops_per_sec;
      row.speedup = baseline > 0 ? row.ops_per_sec / baseline : 1.0;
      table.AddRow({DrainName(drain), payload ? "on" : "off",
                    common::TablePrinter::Fmt(row.ops_per_sec, 0),
                    common::TablePrinter::Fmt(row.speedup, 2),
                    common::TablePrinter::Fmt(row.completion.p50_us, 1),
                    common::TablePrinter::Fmt(row.completion.p99_us, 1),
                    common::TablePrinter::Fmt(row.completion.p999_us, 1),
                    common::TablePrinter::Fmt(row.fresh_p99_us, 1)});
      AppendCsv("drain4", "synthetic", "static", row, csv);
    }
  }
  table.Print();
}

// --tune: one configuration, one machine-readable line. The line is the
// contract scripts/tune_runtime.py parses:
//   TUNE,shards,queue_depth,batch_size,drain,pinned,ops_per_sec,p50_us,
//   p99_us,conserved
// Exit code reflects the conservation verdict so the harness can reject a
// configuration that lost work outright.
int RunTuneMode(const WorkloadCase& wc, const BenchArgs& args) {
  rt::RuntimeConfig rt_config;
  rt_config.num_shards = args.shards.empty() ? 16 : args.shards.front();
  ApplyTuningFlags(args, &rt_config);
  const RunRow row = RunOnce(wc, rt_config);
  std::printf("TUNE,%u,%u,%u,%s,%d,%.1f,%.1f,%.1f,%d\n", row.shards,
              row.queue_depth, row.batch_size, DrainName(row.drain),
              row.pinned ? 1 : 0, row.ops_per_sec, row.completion.p50_us,
              row.completion.p99_us, row.conserved ? 1 : 0);
  return row.conserved ? 0 : 1;
}

// The high-shard-count showdown: the old defaults (queue_depth=64,
// batch_size=128, unpinned) vs the tuned fast path (the committed swept
// defaults, pinned + first-touched workers), both epoch-drained so results
// are bit-comparable. Returns false when either run failed conservation.
bool RunTunedComparison(WorkloadCase wc, std::uint32_t shards,
                        std::string* csv) {
  rt::RuntimeConfig before;  // the pre-PR configuration, frozen
  before.num_shards = shards;
  before.queue_depth = 64;
  before.batch_size = 128;

  rt::RuntimeConfig tuned;  // today's committed defaults + placement
  tuned.num_shards = shards;
  tuned.placement.pin_workers = true;

  std::printf("-- tuned defaults vs pre-PR defaults: %u shards, synthetic "
              "workload, static engine --\n", shards);
  common::TablePrinter table({"config", "qd", "batch", "pin", "ops/sec",
                              "speedup", "p50_us", "p99_us", "conserved"});
  bool all_conserved = true;
  double baseline = 0;
  for (const auto& [label, rt_config] :
       {std::pair<const char*, rt::RuntimeConfig>{"pre-PR default", before},
        {"tuned", tuned}}) {
    // Median-ops of three runs: a single run on an oversubscribed host can
    // swing ±10% on scheduler luck; the comparison should not.
    std::vector<RunRow> trials;
    for (int t = 0; t < 3; ++t) trials.push_back(RunOnce(wc, rt_config));
    std::sort(trials.begin(), trials.end(),
              [](const RunRow& a, const RunRow& b) {
                return a.ops_per_sec < b.ops_per_sec;
              });
    RunRow row = trials[1];
    row.conserved =
        trials[0].conserved && trials[1].conserved && trials[2].conserved;
    row.label = label;
    if (baseline == 0) baseline = row.ops_per_sec;
    row.speedup = baseline > 0 ? row.ops_per_sec / baseline : 1.0;
    all_conserved = all_conserved && row.conserved;
    table.AddRow({row.label, std::to_string(row.queue_depth),
                  std::to_string(row.batch_size), row.pinned ? "on" : "off",
                  common::TablePrinter::Fmt(row.ops_per_sec, 0),
                  common::TablePrinter::Fmt(row.speedup, 2),
                  common::TablePrinter::Fmt(row.completion.p50_us, 1),
                  common::TablePrinter::Fmt(row.completion.p99_us, 1),
                  row.conserved ? "yes" : "NO"});
    AppendCsv("tuned", "synthetic", "static", row, csv);
  }
  table.Print();
  if (!all_conserved) {
    std::fprintf(stderr, "CONSERVATION FAILED: a run lost or duplicated "
                         "requests\n");
  }
  return all_conserved;
}

}  // namespace

int main(int argc, char** argv) {
  BenchArgs args = bench::ParseArgs(argc, argv);
  bench::ApplySmoke(args);
  const std::vector<std::uint32_t> sweep = ShardSweep(args);
  if (args.tune) {
    // One configuration, one parsable line, no sweeps: the harness mode.
    const auto g = bench::MakeGraph(args.graph, args);
    const auto log = bench::MakeSyntheticLog(g, args);
    const WorkloadCase wc{&g, &log, {}, /*adaptive=*/false,
                          /*payload=*/false, nullptr, &args};
    return RunTuneMode(wc, args);
  }
  const unsigned hc = std::thread::hardware_concurrency();
  std::printf("== Runtime throughput: shard sweep 1..%u "
              "(hardware_concurrency=%u, scale=%g, days=%g) ==\n",
              sweep.back(), hc, args.scale, args.days);
  if (hc < sweep.back()) {
    std::printf("note: sweeping past the %u available hardware thread(s); "
                "speedups beyond that count reflect oversubscription, not "
                "the runtime's scaling\n", hc);
  }

  const auto g = bench::MakeGraph(args.graph, args);
  const auto log = bench::MakeSyntheticLog(g, args);
  bench::PrintWorkloadSummary(g, log);

  common::Rng rng(args.seed + 1000);
  wl::FlashConfig flash_config;
  flash_config.start = log.duration / 4;
  flash_config.end = log.duration / 2;
  const wl::FlashEvent flash = wl::MakeFlashEvent(g, flash_config, rng);
  const std::vector<wl::FlashEvent> flash_events{flash};

  // Payload-mode runs fetch post contents from the persistent store; seed
  // one event per user so every coherence fan-out carries a real version.
  persist::PersistentStore persist;
  for (UserId u = 0; u < g.num_users(); ++u) {
    persist.Append({u, 0, "seed"});
  }

  std::string csv = kCsvHeader;
  const auto sweep_case = [&](std::span<const wl::FlashEvent> fl,
                              bool adaptive) {
    return WorkloadCase{&g, &log, fl, adaptive, /*payload=*/false, &persist,
                        &args};
  };
  PrintSweep("synthetic", "static", RunSweep(sweep_case({}, false), sweep),
             &csv);
  std::printf("\n");
  PrintSweep("synthetic", "adaptive", RunSweep(sweep_case({}, true), sweep),
             &csv);
  std::printf("\n");
  PrintSweep("flash", "static", RunSweep(sweep_case(flash_events, false), sweep),
             &csv);
  std::printf("\n");
  PrintSweep("flash", "adaptive",
             RunSweep(sweep_case(flash_events, true), sweep), &csv);
  std::printf("\n");

  RunDrainComparison(sweep_case({}, false), /*shards=*/4, &csv);
  std::printf("\n");

  const bool conserved = RunTunedComparison(
      sweep_case({}, false), /*shards=*/std::max(1u, hc), &csv);

  bench::SaveCsv(args, "runtime_throughput", csv);
  return conserved ? 0 : 1;
}
