// replay-trace: in-process ShardedRuntime::Run over the News-Activity-shaped
// trace (about 1.7 writes per read, diurnal and day-to-day bursts) with the
// adaptive engine under the default kEpoch drain, over a simulated day so
// every replay runs 24 cycles of hourly maintenance. No wire: write
// fan-out, coherence messages and maintenance dominate.
#include <algorithm>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>

#include "runtime/telemetry.h"
#include "workloads.h"

namespace perfbench {

namespace {

struct TimedRun {
  rt::RuntimeResult result;
  double wall_s = 0;
};

TimedRun TimeRun(rt::ShardedRuntime& runtime, const wl::RequestLog& log,
                 SpanLog& spans) {
  TimedRun run;
  const std::uint64_t t0 = NowNs();
  run.result = runtime.Run(log);
  const std::uint64_t t1 = NowNs();
  spans.Add(Layer::kRuntimeRun, t0, t1);
  run.wall_s = static_cast<double>(t1 - t0) / 1e9;
  return run;
}

// Per-shard sums of the four telemetry phase columns over every epoch row.
struct ShardPhases {
  double compute_ns = 0;
  double drain_ns = 0;
  double barrier_wait_ns = 0;
  double maintenance_ns = 0;
  double sum() const {
    return compute_ns + drain_ns + barrier_wait_ns + maintenance_ns;
  }
};

std::map<std::uint32_t, ShardPhases> SumPhases(
    const rt::TelemetrySnapshot& snap) {
  const auto& schema = snap.series.schema();
  const auto column = [&](std::string_view name) {
    for (std::size_t i = 0; i < schema.size(); ++i) {
      if (name == schema[i].name) return i;
    }
    throw std::runtime_error("telemetry series lacks column " +
                             std::string(name));
  };
  const std::size_t compute = column("compute_ns");
  const std::size_t drain = column("drain_ns");
  const std::size_t barrier = column("barrier_wait_ns");
  const std::size_t maintenance = column("maintenance_ns");
  std::map<std::uint32_t, ShardPhases> shards;
  for (const auto& row : snap.series.rows()) {
    ShardPhases& p = shards[row.shard];
    p.compute_ns += row.values[compute];
    p.drain_ns += row.values[drain];
    p.barrier_wait_ns += row.values[barrier];
    p.maintenance_ns += row.values[maintenance];
  }
  return shards;
}

void CheckConservation(const rt::RuntimeResult& r, const wl::RequestLog& log,
                       Result& result, const char* pass) {
  const std::uint64_t n = log.requests.size();
  result.Check(r.totals.requests == n && r.e2e_latency.count() == n &&
                   r.expected_requests == n,
               std::string(pass) +
                   ": totals.requests == log size == e2e count");
}

}  // namespace

Result RunReplayTrace(const Options& opts) {
  Result result;
  SpanLog no_spans(false);
  // Traced runs record set-up and the traced pass; never the untraced one.
  SpanLog spans(opts.trace);

  // Set-up, several times; the last fixture serves the run.
  std::vector<SetupTimes> setups;
  Fixture fx;
  for (int i = 0; i < kSetupReps; ++i) {
    fx.Release();  // the previous set-up goes before building anew
    const PinToCpu pin(static_cast<unsigned>(i));
    SetupTimes t;
    fx = BuildFixture(opts, LogKind::kActivity, kReplayDays,
                      /*telemetry=*/false, spans, &t);
    setups.push_back(t);
  }
  ReportSetup(setups, result);
  const wl::RequestLog& log = fx.log;
  std::printf("replay-trace: users=%u requests=%zu (%llu reads, %llu writes) "
              "days=%.1f\n",
              fx.graph->num_users(), log.requests.size(),
              static_cast<unsigned long long>(log.num_reads),
              static_cast<unsigned long long>(log.num_writes),
              static_cast<double>(log.duration) / 86400.0);

  // Warm-up (untimed): one full replay on the set-up's runtime.
  const TimedRun warm = TimeRun(*fx.runtime, log, no_spans);
  CheckConservation(warm.result, log, result, "warm-up");
  const double top_traffic = TopTrafficPerRequest(warm.result);

  // Timed rounds until the run time is used (at least three). A round
  // rebuilds the fixture (untimed), replays the trace on its fresh runtime,
  // so every replay starts from the same initial placement and repeats the
  // same counts exactly, then makes kShards direct core::Engine passes over
  // the same trace at once, each on the next CPU in turn, as the shard
  // workers run. A pass times each ExecuteRead/ExecuteWrite call: the read
  // and write service latency, with no queue in front of it. Rebuilding
  // moves the graph and the stores to new addresses each round (one layout
  // per run moved throughput by about 8% between runs).
  //
  // The host runs each CPU at a speed that shifts by tens of percent from
  // one pass to the next, so every figure is an average over the whole run:
  // throughput is all replayed requests over all replay wall time, and each
  // latency is the mean over the passes of that pass's percentile. (A
  // pooled percentile jumps between a fast and a slow pass's value, and a
  // fastest-pass figure depends on whether the host happened to leave a
  // CPU alone during the run.)
  struct PassPercentiles {
    double read_p50, read_p99, write_p50, write_p99;
  };
  std::vector<double> throughputs;
  std::vector<PassPercentiles> pass_figures;
  double replay_wall_s = 0;
  std::uint64_t expected = 0;
  std::uint64_t executed = 0;
  bool traffic_repeats = true;
  // A round starts only if one as long as the last still fits.
  const std::uint64_t deadline =
      NowNs() + static_cast<std::uint64_t>(opts.seconds * 1e9);
  std::uint64_t round_ns = 0;
  while (throughputs.size() < 3 || NowNs() + round_ns <= deadline) {
    const std::uint64_t round_start = NowNs();
    fx.Release();
    SetupTimes untimed;
    fx = BuildFixture(opts, LogKind::kActivity, kReplayDays,
                      /*telemetry=*/false, no_spans, &untimed);
    const TimedRun run = TimeRun(*fx.runtime, log, no_spans);
    throughputs.push_back(static_cast<double>(run.result.totals.requests) /
                          run.wall_s);
    replay_wall_s += run.wall_s;
    expected += log.requests.size();
    executed += std::min<std::uint64_t>(run.result.totals.requests,
                                        log.requests.size());
    traffic_repeats &= TopTrafficPerRequest(run.result) == top_traffic;
    CheckConservation(run.result, log, result, "timed replay");

    std::vector<CorePass> passes(kShards);
    std::vector<std::thread> threads;
    for (std::uint32_t i = 0; i < kShards; ++i) {
      const auto cpu = static_cast<unsigned>(throughputs.size() * kShards + i);
      threads.emplace_back([&, i, cpu] {
        const PinToCpu pin(cpu);
        passes[i] =
            RunCorePass(fx, log.requests, /*zero_times=*/false, no_spans);
      });
    }
    for (std::thread& t : threads) t.join();
    for (CorePass& core : passes) {
      pass_figures.push_back({Percentile(core.read_samples, 0.50) / 1e3,
                              Percentile(core.read_samples, 0.99) / 1e3,
                              Percentile(core.write_samples, 0.50) / 1e3,
                              Percentile(core.write_samples, 0.99) / 1e3});
    }
    round_ns = NowNs() - round_start;
  }
  result.Check(traffic_repeats,
               "top_traffic_per_req identical on every replay");
  result.attempted = expected;
  result.failed = expected - executed;

  const double throughput = static_cast<double>(executed) / replay_wall_s;
  const auto mean = [&](double PassPercentiles::*field) {
    double sum = 0;
    for (const PassPercentiles& f : pass_figures) sum += f.*field;
    return sum / static_cast<double>(pass_figures.size());
  };
  result.Set("throughput_ops_s", throughput);
  result.Set("top_traffic_per_req", top_traffic);
  result.Set("acked_share",
             static_cast<double>(executed) / static_cast<double>(expected));
  result.Set("read_p50_us", mean(&PassPercentiles::read_p50));
  result.Set("read_p99_us", mean(&PassPercentiles::read_p99));
  result.Set("write_p50_us", mean(&PassPercentiles::write_p50));
  result.Set("write_p99_us", mean(&PassPercentiles::write_p99));
  result.Set("peak_rss_mb", PeakRssMb());
  std::printf("replay-trace: %zu rounds; top traffic %.6f per request; "
              "%.0f requests/s\n"
              "  round: requests/s of the replay | read p50 us of its passes\n",
              throughputs.size(), top_traffic, throughput);
  for (std::size_t i = 0; i < throughputs.size(); ++i) {
    std::printf("  %5zu: %8.0f |", i, throughputs[i]);
    for (std::size_t j = i * kShards; j < (i + 1) * kShards; ++j) {
      std::printf(" %8.1f", pass_figures[j].read_p50);
    }
    std::printf("\n");
  }
  ReportRuntimeCounters(warm.result, result);
  if (!opts.trace) return result;

  // ----- Traced pass: telemetry on, spans around every layer call -----
  rt::ShardedRuntime traced_runtime(*fx.graph, *fx.topo, fx.placement,
                                    fx.engine, MakeRuntimeConfig(true));
  const TimedRun traced = TimeRun(traced_runtime, log, spans);
  CheckConservation(traced.result, log, result, "traced replay");
  result.Check(TopTrafficPerRequest(traced.result) == top_traffic,
               "top_traffic_per_req identical traced and untraced");
  ReportRuntimeCounters(traced.result, result);

  const double run_ns = traced.wall_s * 1e9;
  double busiest = 0;
  ShardPhases total;
  bool within_wall = traced.result.telemetry != nullptr;
  if (traced.result.telemetry != nullptr) {
    for (const auto& [shard, p] : SumPhases(*traced.result.telemetry)) {
      within_wall &= p.sum() <= run_ns;
      busiest = std::max(busiest, p.sum());
      total.compute_ns += p.compute_ns;
      total.drain_ns += p.drain_ns;
      total.barrier_wait_ns += p.barrier_wait_ns;
      total.maintenance_ns += p.maintenance_ns;
    }
  }
  result.Check(within_wall,
               "no shard's telemetry phase sums exceed the Run wall time");
  result.Set("runtime.compute_s", total.compute_ns / 1e9);
  result.Set("runtime.drain_s", total.drain_ns / 1e9);
  result.Set("runtime.barrier_wait_s", total.barrier_wait_ns / 1e9);
  result.Set("runtime.maintenance_s", total.maintenance_ns / 1e9);
  result.Set("runtime.dispatcher_self_s", (run_ns - busiest) / 1e9);

  const CorePass traced_core =
      RunCorePass(fx, log.requests, /*zero_times=*/false, spans);
  SetCoreLayerMetrics(traced_core, result);

  // Like with like: one traced replay against the untraced replays' median.
  const double traced_throughput =
      static_cast<double>(traced.result.totals.requests) / traced.wall_s;
  const double untraced_median = Median(throughputs);
  result.Set("trace.overhead_pct",
             (untraced_median / traced_throughput - 1.0) * 100.0);
  std::printf("\ntraced pass: %.0f requests/s (untraced median %.0f)\n%s",
              traced_throughput, untraced_median, spans.FormatTable().c_str());
  return result;
}

}  // namespace perfbench
