#include "bench_util.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string_view>

#include <algorithm>

#include "common/table.h"
#include "runtime/telemetry.h"
#include "workload/synthetic.h"

namespace dynasore::bench {

namespace {

bool ConsumeFlag(std::string_view arg, std::string_view name,
                 std::string_view& value) {
  if (arg.substr(0, name.size()) != name) return false;
  value = arg.substr(name.size());
  return true;
}

}  // namespace

BenchArgs ParseArgs(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    std::string_view value;
    if (ConsumeFlag(arg, "--scale=", value)) {
      args.scale = std::atof(std::string(value).c_str());
    } else if (ConsumeFlag(arg, "--days=", value)) {
      args.days = std::atof(std::string(value).c_str());
    } else if (ConsumeFlag(arg, "--seed=", value)) {
      args.seed = std::strtoull(std::string(value).c_str(), nullptr, 10);
    } else if (ConsumeFlag(arg, "--graph=", value)) {
      args.graph = std::string(value);
    } else if (ConsumeFlag(arg, "--trials=", value)) {
      args.trials = std::atoi(std::string(value).c_str());
    } else if (ConsumeFlag(arg, "--csv-dir=", value)) {
      args.csv_dir = std::string(value);
    } else if (ConsumeFlag(arg, "--trace=", value)) {
      args.trace_path = std::string(value);
    } else if (ConsumeFlag(arg, "--timeseries=", value)) {
      args.timeseries_path = std::string(value);
    } else if (arg == "--all-graphs") {
      args.all_graphs = true;
    } else if (arg == "--smoke") {
      args.smoke = true;
    } else if (arg == "--pin") {
      args.pin = true;
    } else if (arg == "--tune") {
      args.tune = true;
    } else if (ConsumeFlag(arg, "--queue-depth=", value)) {
      args.queue_depth =
          static_cast<std::uint32_t>(std::atoi(std::string(value).c_str()));
    } else if (ConsumeFlag(arg, "--batch-size=", value)) {
      args.batch_size =
          static_cast<std::uint32_t>(std::atoi(std::string(value).c_str()));
    } else if (ConsumeFlag(arg, "--drain=", value)) {
      args.drain = std::string(value);
    } else if (ConsumeFlag(arg, "--port=", value)) {
      args.port =
          static_cast<std::uint16_t>(std::atoi(std::string(value).c_str()));
    } else if (ConsumeFlag(arg, "--connections=", value)) {
      args.connections =
          static_cast<std::uint32_t>(std::atoi(std::string(value).c_str()));
    } else if (ConsumeFlag(arg, "--shards=", value)) {
      args.shards.clear();
      std::string buffer(value);
      std::size_t start = 0;
      while (start <= buffer.size()) {
        std::size_t comma = buffer.find(',', start);
        if (comma == std::string::npos) comma = buffer.size();
        if (comma > start) {
          const int n = std::atoi(buffer.substr(start, comma - start).c_str());
          if (n > 0) args.shards.push_back(static_cast<std::uint32_t>(n));
        }
        start = comma + 1;
      }
    } else if (ConsumeFlag(arg, "--points=", value)) {
      args.extra_points.clear();
      std::string buffer(value);
      std::size_t start = 0;
      while (start <= buffer.size()) {
        std::size_t comma = buffer.find(',', start);
        if (comma == std::string::npos) comma = buffer.size();
        if (comma > start) {
          args.extra_points.push_back(
              std::atof(buffer.substr(start, comma - start).c_str()));
        }
        start = comma + 1;
      }
    } else {
      std::fprintf(stderr, "ignoring unknown flag: %s\n",
                   std::string(arg).c_str());
    }
  }
  if (const char* env = std::getenv("REPRO_SCALE")) {
    args.scale = std::atof(env);
  }
  return args;
}

void ApplySmoke(BenchArgs& args) {
  if (!args.smoke) return;
  args.scale = std::min(args.scale, 0.001);
  args.days = std::min(args.days, 0.5);
}

void PrintWorkloadSummary(const graph::SocialGraph& g,
                          const wl::RequestLog& log) {
  std::printf("users=%u requests=%zu (%llu reads, %llu writes)\n\n",
              g.num_users(), log.requests.size(),
              static_cast<unsigned long long>(log.num_reads),
              static_cast<unsigned long long>(log.num_writes));
}

bool WantRunTelemetry(const BenchArgs& args) {
  return !args.trace_path.empty() || !args.timeseries_path.empty();
}

void SaveRunTelemetry(const BenchArgs& args, const rt::RuntimeResult& result) {
  if (!WantRunTelemetry(args)) return;
  if (result.telemetry == nullptr) {
    std::fprintf(stderr,
                 "[telemetry] --trace/--timeseries given but the run carried "
                 "no telemetry snapshot\n");
    return;
  }
  if (!args.trace_path.empty()) {
    const std::string json = rt::ChromeTraceJson(*result.telemetry);
    if (common::WriteCsvFile(args.trace_path, json)) {
      std::printf("[trace] wrote %s (%zu events, %llu dropped)\n",
                  args.trace_path.c_str(), result.telemetry->events.size(),
                  static_cast<unsigned long long>(
                      result.telemetry->dropped_events));
    } else {
      std::fprintf(stderr, "[trace] failed to write %s\n",
                   args.trace_path.c_str());
    }
  }
  if (!args.timeseries_path.empty()) {
    const std::string csv = result.telemetry->series.ToCsv();
    if (common::WriteCsvFile(args.timeseries_path, csv)) {
      std::printf("[timeseries] wrote %s (%zu rows)\n",
                  args.timeseries_path.c_str(),
                  result.telemetry->series.rows().size());
    } else {
      std::fprintf(stderr, "[timeseries] failed to write %s\n",
                   args.timeseries_path.c_str());
    }
  }
}

graph::SocialGraph MakeGraph(const std::string& name, const BenchArgs& args) {
  return graph::GenerateDataset(graph::ParseDataset(name), args.scale,
                                args.seed);
}

wl::RequestLog MakeSyntheticLog(const graph::SocialGraph& g,
                                const BenchArgs& args) {
  wl::SyntheticLogConfig config;
  config.days = args.days;
  config.seed = args.seed + 1;
  return GenerateSyntheticLog(g, config);
}

sim::SimResult RunPolicy(const graph::SocialGraph& g,
                         const wl::RequestLog& log, sim::Policy policy,
                         sim::Init init, double extra_pct,
                         const BenchArgs& args, bool flat) {
  sim::ExperimentConfig config;
  config.policy = policy;
  config.init = init;
  config.extra_memory_pct = extra_pct;
  config.seed = args.seed + 2;
  config.cluster.flat = flat;
  sim::RunOptions options;
  // Steady state: measure the last simulated day (or the second half of
  // shorter logs).
  options.measure_from = log.duration > kSecondsPerDay
                             ? log.duration - kSecondsPerDay
                             : log.duration / 2;
  return RunExperiment(g, log, config, options);
}

double TopTotal(const sim::SimResult& result) {
  return result.window[static_cast<int>(net::Tier::kTop)].total();
}

void SaveCsv(const BenchArgs& args, const std::string& name,
             const std::string& csv) {
  std::error_code ec;
  std::filesystem::create_directories(args.csv_dir, ec);
  const std::string path = args.csv_dir + "/" + name + ".csv";
  if (common::WriteCsvFile(path, csv)) {
    std::printf("[csv] wrote %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "[csv] failed to write %s\n", path.c_str());
  }
}

}  // namespace dynasore::bench
