// perfbench: runs one workload of the repository benchmark and prints its
// output checks, a host stamp, and one JSON result line (the last line of
// standard output). run.py builds this program and wraps that line in the
// benchmark's result format; see README.md.
//
//   perfbench --workload feed-open|feed-closed|replay-trace --seed N
//             --seconds S --trace 0|1 --rate R
//
// --rate is feed-open's offered load in ops/s; graph scale, feed-closed's
// window and replay-trace's days are constants in support.h.
#include <cstdio>
#include <exception>
#include <string>

#include "workloads.h"

namespace perfbench {

unsigned WorkloadThreads(const Options& opts) {
  if (opts.workload == "replay-trace") return 1 + kShards;
  return 2 + kShards;  // generator + event loop + workers
}

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void PrintResult(const Options& opts, const Result& r, unsigned cpus) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", r.metrics[i].second);
    out += (i == 0 ? "" : ", ") + JsonString(r.metrics[i].first) + ": " + buf;
  }
  out += "}, \"failed_checks\": [";
  for (std::size_t i = 0; i < r.failed_checks.size(); ++i) {
    out += (i == 0 ? "" : ", ") + JsonString(r.failed_checks[i]);
  }
  std::snprintf(buf, sizeof(buf), "%.17g", kGraphScale);
  out += "], \"stamp\": {\"nproc\": " + std::to_string(cpus) +
         ", \"seed\": " + std::to_string(opts.seed) +
         ", \"scale\": " + buf +
         ", \"shards\": " + std::to_string(kShards) +
         ", \"threads\": " + std::to_string(WorkloadThreads(opts));
  std::snprintf(buf, sizeof(buf), "%.17g", opts.rate);
  out += std::string(", \"offered_rate\": ") + buf;
  out += ", \"window\": " + std::to_string(kClosedWindow);
  std::snprintf(buf, sizeof(buf), "%.17g", kReplayDays);
  out += std::string(", \"trace_days\": ") + buf + "}}";
  std::printf("%s\n", out.c_str());
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opts;
  try {
    opts = ParseOptions(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  const unsigned cpus = UsableCpus();
  if (WorkloadThreads(opts) > cpus) {
    std::fprintf(stderr,
                 "perfbench: refusing to run %s with %u threads on %u usable "
                 "CPUs\n",
                 opts.workload.c_str(), WorkloadThreads(opts), cpus);
    return 3;
  }
  try {
    Result result;
    if (opts.workload == "feed-open") {
      result = RunFeed(opts, /*open_loop=*/true);
    } else if (opts.workload == "feed-closed") {
      result = RunFeed(opts, /*open_loop=*/false);
    } else if (opts.workload == "replay-trace") {
      result = RunReplayTrace(opts);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload %s\n",
                   opts.workload.c_str());
      return 2;
    }
    std::fflush(stdout);
    PrintResult(opts, result, cpus);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opts.workload.c_str(),
                 e.what());
    return 1;
  }
  return 0;
}
