// Shared plumbing for the experiment benches: flag parsing, dataset/log
// construction, policy runs, and normalization against the Random baseline
// (every figure in the paper reports traffic normalized to Random).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/presets.h"
#include "graph/social_graph.h"
#include "sim/experiment.h"
#include "workload/request_log.h"

namespace dynasore::rt {
struct RuntimeResult;  // runtime/sharded_runtime.h
}

namespace dynasore::bench {

struct BenchArgs {
  // Fraction of the paper's dataset sizes (Table 1). 0.004 keeps the full
  // default harness under ~10 minutes; use 0.01+ to tighten the match with
  // the paper (see EXPERIMENTS.md).
  double scale = 0.004;
  double days = 2.0;        // simulated duration of the request log
  std::uint64_t seed = 42;
  std::string graph = "facebook";
  std::vector<double> extra_points{0, 30, 100, 200};
  bool all_graphs = false;
  int trials = 5;           // flash-event repetitions
  std::string csv_dir = "bench_results";
  // CI smoke mode: benches that honor it cap scale/days to a seconds-long
  // run while keeping their correctness verdict (and its exit code) intact.
  bool smoke = false;
  // Telemetry export paths (--trace= / --timeseries=). When either is set,
  // runtime benches enable rt::Telemetry on their designated scenario and
  // SaveRunTelemetry writes the Chrome trace JSON / per-epoch CSV there.
  std::string trace_path;
  std::string timeseries_path;

  // Runtime tuning knobs (bench_runtime_throughput). --shards=A,B,C
  // replaces the default power-of-two shard sweep; the remaining flags
  // override the corresponding RuntimeConfig fields wherever the bench
  // honors them (0 / -1 / empty mean "keep the config's default").
  std::vector<std::uint32_t> shards;
  std::uint32_t queue_depth = 0;   // --queue-depth=N
  std::uint32_t batch_size = 0;    // --batch-size=N
  bool pin = false;                // --pin: placement.pin_workers
  std::string drain;               // --drain=epoch|eager
  // --tune: run exactly one configuration (the first --shards entry) and
  // print one machine-readable "TUNE,..." line — the contract
  // scripts/tune_runtime.py drives sweeps through.
  bool tune = false;

  // Serving-tier knobs (bench_server_loopback). --port=N binds the server
  // to a fixed port (0 keeps the kernel-chosen ephemeral default);
  // --connections=N replaces the bench's default connection sweep with a
  // single point.
  std::uint16_t port = 0;          // --port=N
  std::uint32_t connections = 0;   // --connections=N (0: bench default)
};

// Recognized flags: --scale=F --days=F --seed=N --graph=NAME --trials=N
// --points=A,B,C --all-graphs --smoke --csv-dir=PATH --trace=PATH
// --timeseries=PATH --shards=A,B,C --queue-depth=N --batch-size=N --pin
// --drain=epoch|eager --tune --port=N --connections=N.
// Environment variable REPRO_SCALE overrides --scale when set.
BenchArgs ParseArgs(int argc, char** argv);

// Applies the shared smoke caps (scale <= 0.001, days <= 0.5) when
// args.smoke is set — every bench honors --smoke identically.
void ApplySmoke(BenchArgs& args);

// The shared "users=… requests=… (reads, writes)" banner line.
void PrintWorkloadSummary(const graph::SocialGraph& g,
                          const wl::RequestLog& log);

// True when the user asked for a telemetry export (--trace/--timeseries) —
// the bench's designated run should enable RuntimeConfig::telemetry.
bool WantRunTelemetry(const BenchArgs& args);

// Writes the run's telemetry to the requested paths: Chrome trace-event
// JSON to args.trace_path, per-epoch metric CSV to args.timeseries_path
// (each skipped when its path is empty). No-op with a warning when the
// result carries no telemetry snapshot.
void SaveRunTelemetry(const BenchArgs& args, const rt::RuntimeResult& result);

// Generates the graph for `name` ("twitter" / "facebook" / "livejournal").
graph::SocialGraph MakeGraph(const std::string& name, const BenchArgs& args);

// Synthetic request log with the paper's §4.2 parameters.
wl::RequestLog MakeSyntheticLog(const graph::SocialGraph& g,
                                const BenchArgs& args);

// One policy run measured over the last simulated day (steady state).
sim::SimResult RunPolicy(const graph::SocialGraph& g,
                         const wl::RequestLog& log, sim::Policy policy,
                         sim::Init init, double extra_pct,
                         const BenchArgs& args, bool flat = false);

double TopTotal(const sim::SimResult& result);

// Writes `csv` to <csv_dir>/<name>.csv (best effort; prints the location).
void SaveCsv(const BenchArgs& args, const std::string& name,
             const std::string& csv);

}  // namespace dynasore::bench
