#include "support.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string_view>

#include "graph/presets.h"
#include "sim/experiment.h"
#include "workload/synthetic.h"
#include "workload/trace.h"

namespace perfbench {

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace {

double ToSeconds(std::uint64_t ns) { return static_cast<double>(ns) / 1e9; }

double ParseDouble(std::string_view flag, const std::string& value) {
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (value.empty() || end == nullptr || *end != '\0') {
    throw std::invalid_argument("bad value for --" + std::string(flag) +
                                ": '" + value + "'");
  }
  return v;
}

}  // namespace

Options ParseOptions(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      throw std::invalid_argument("unexpected argument: " + arg);
    }
    arg = arg.substr(2);
    std::string value;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      throw std::invalid_argument("missing value for --" + arg);
    }
    if (arg == "workload") {
      o.workload = value;
    } else if (arg == "seed") {
      o.seed = static_cast<std::uint64_t>(ParseDouble(arg, value));
    } else if (arg == "seconds") {
      o.seconds = ParseDouble(arg, value);
    } else if (arg == "trace") {
      o.trace = ParseDouble(arg, value) != 0;
    } else if (arg == "rate") {
      o.rate = ParseDouble(arg, value);
    } else {
      throw std::invalid_argument("unknown flag --" + arg);
    }
  }
  if (o.workload.empty()) throw std::invalid_argument("--workload is required");
  if (o.seconds <= 0) throw std::invalid_argument("--seconds must be > 0");
  if (o.workload == "feed-open" && o.rate <= 0) {
    throw std::invalid_argument("feed-open needs --rate > 0");
  }
  return o;
}

unsigned UsableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<unsigned>(CPU_COUNT(&set));
}

PinToCpu::PinToCpu(unsigned index) {
  CPU_ZERO(&saved_);
  if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
  const int count = CPU_COUNT(&saved_);
  if (count == 0) return;
  int skip = static_cast<int>(index % static_cast<unsigned>(count));
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &saved_) || skip-- > 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
    return;
  }
}

PinToCpu::~PinToCpu() {
  if (pinned_) sched_setaffinity(0, sizeof(saved_), &saved_);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Percentile(std::vector<std::uint64_t>& v, double q) {
  if (v.empty()) return 0;
  const std::size_t idx = std::min(
      v.size() - 1, static_cast<std::size_t>(q * static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  return static_cast<double>(v[idx]);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ----- Host interference -----

std::uint64_t StealTicks() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0;
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  return n == 8 ? v[7] : 0;
}

TimeSlices::TimeSlices(std::uint64_t from_ns, std::uint64_t slice_ns,
                       std::size_t count)
    : from_ns_(from_ns), slice_ns_(slice_ns), count_(count) {
  steal_at_.reserve(count + 1);
}

std::size_t TimeSlices::Index(std::uint64_t t) const {
  if (t < from_ns_) return count_;
  const std::uint64_t i = (t - from_ns_) / slice_ns_;
  return i < count_ ? static_cast<std::size_t>(i) : count_;
}

void TimeSlices::Observe(std::uint64_t now) {
  while (steal_at_.size() <= count_ &&
         now >= from_ns_ + steal_at_.size() * slice_ns_) {
    steal_at_.push_back(StealTicks());
  }
}

std::uint64_t TimeSlices::Steal(std::size_t i) const {
  return i + 1 < steal_at_.size() ? steal_at_[i + 1] - steal_at_[i] : 0;
}

std::vector<std::size_t> QuietIndices(const std::vector<std::uint64_t>& steal) {
  std::vector<std::uint64_t> sorted = steal;
  std::sort(sorted.begin(), sorted.end());
  const std::uint64_t cutoff = sorted.empty() ? 0 : sorted[sorted.size() / 4];
  std::vector<std::size_t> quiet;
  for (std::size_t i = 0; i < steal.size(); ++i) {
    if (steal[i] <= cutoff) quiet.push_back(i);
  }
  return quiet;
}

std::vector<std::size_t> TimeSlices::Quiet() const {
  std::vector<std::uint64_t> steal;
  for (std::size_t i = 0; i < count_; ++i) steal.push_back(Steal(i));
  return QuietIndices(steal);
}

double QuietLatencyUs(const TimeSlices& clock,
                      const std::vector<std::vector<std::uint64_t>>& samples,
                      double p) {
  std::vector<std::uint64_t> pooled;
  for (const std::size_t i : clock.Quiet()) {
    if (i < samples.size()) {
      pooled.insert(pooled.end(), samples[i].begin(), samples[i].end());
    }
  }
  return Percentile(pooled, p) / 1e3;
}

// ----- Spans -----

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kSetupGraph: return "setup.graph";
    case Layer::kSetupLog: return "setup.log";
    case Layer::kSetupPlacement: return "setup.placement";
    case Layer::kSetupRuntime: return "setup.runtime";
    case Layer::kSetupServer: return "setup.server";
    case Layer::kGenLoop: return "gen.loop";
    case Layer::kNetpEncode: return "netp.encode";
    case Layer::kGenSend: return "gen.send";
    case Layer::kGenRecv: return "gen.recv";
    case Layer::kNetpDecode: return "netp.decode";
    case Layer::kClientSubmit: return "client.submit";
    case Layer::kClientShip: return "client.ship";
    case Layer::kClientWait: return "client.wait";
    case Layer::kRuntimeBatch: return "runtime.batch_run";
    case Layer::kRuntimeRun: return "runtime.run";
    case Layer::kCorePass: return "core.pass";
    case Layer::kCoreRead: return "core.read";
    case Layer::kCoreWrite: return "core.write";
    case Layer::kCoreTick: return "core.tick";
    case Layer::kCount: break;
  }
  return "?";
}

std::uint32_t SpanLog::Begin(Layer layer, std::uint32_t parent) {
  return enabled_ ? BeginAt(layer, NowNs(), parent) : kNone;
}

std::uint32_t SpanLog::BeginAt(Layer layer, std::uint64_t start_ns,
                               std::uint32_t parent) {
  if (!enabled_) return kNone;
  spans_.push_back(Span{layer, parent, start_ns, 0});
  return static_cast<std::uint32_t>(spans_.size() - 1);
}

void SpanLog::End(std::uint32_t id) {
  if (id == kNone) return;
  spans_[id].end_ns = NowNs();
}

void SpanLog::Add(Layer layer, std::uint64_t start_ns, std::uint64_t end_ns,
                  std::uint32_t parent) {
  if (!enabled_) return;
  spans_.push_back(Span{layer, parent, start_ns, end_ns});
}

std::vector<SpanLog::LayerTotals> SpanLog::Totals() const {
  std::vector<LayerTotals> totals(static_cast<std::size_t>(Layer::kCount));
  // First pass: how much of each span its children cover.
  std::vector<std::uint64_t> child_ns(spans_.size(), 0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < s.start_ns) continue;  // never closed
    const std::uint64_t dur = s.end_ns - s.start_ns;
    if (s.parent != kNone) child_ns[s.parent] += dur;
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < s.start_ns) continue;
    const std::uint64_t dur = s.end_ns - s.start_ns;
    LayerTotals& t = totals[static_cast<std::size_t>(s.layer)];
    ++t.spans;
    t.total_ns += dur;
    t.self_ns += dur > child_ns[i] ? dur - child_ns[i] : 0;
  }
  return totals;
}

std::uint64_t SpanLog::TotalNs(Layer layer) const {
  return Totals()[static_cast<std::size_t>(layer)].total_ns;
}

std::string SpanLog::FormatTable() const {
  const std::vector<LayerTotals> totals = Totals();
  std::string out;
  char line[160];
  std::snprintf(line, sizeof(line), "%-20s %10s %12s %12s %10s\n", "layer",
                "spans", "total_ms", "self_ms", "self_us/span");
  out += line;
  for (std::size_t i = 0; i < totals.size(); ++i) {
    const LayerTotals& t = totals[i];
    if (t.spans == 0) continue;
    std::snprintf(line, sizeof(line), "%-20s %10llu %12.3f %12.3f %10.3f\n",
                  LayerName(static_cast<Layer>(i)),
                  static_cast<unsigned long long>(t.spans),
                  static_cast<double>(t.total_ns) / 1e6,
                  static_cast<double>(t.self_ns) / 1e6,
                  static_cast<double>(t.self_ns) / 1e3 /
                      static_cast<double>(t.spans));
    out += line;
  }
  return out;
}

// ----- Result -----

void Result::Set(const std::string& name, double value) {
  for (auto& [n, v] : metrics) {
    if (n == name) {
      v = value;
      return;
    }
  }
  metrics.emplace_back(name, value);
}

double Result::Get(const std::string& name) const {
  for (const auto& [n, v] : metrics) {
    if (n == name) return v;
  }
  return 0;
}

void Result::Check(bool ok, const std::string& what) {
  std::printf("check %-58s %s\n", what.c_str(), ok ? "ok" : "FAILED");
  if (!ok) {
    correct = false;
    failed_checks.push_back(what);
  }
}

// ----- Set-up -----

rt::RuntimeConfig MakeRuntimeConfig(bool telemetry) {
  rt::RuntimeConfig config;
  config.num_shards = kShards;
  config.telemetry.enabled = telemetry;
  return config;
}

Fixture BuildFixture(const Options& opts, LogKind kind, double log_days,
                     bool telemetry, SpanLog& spans, SetupTimes* times) {
  Fixture fx;
  std::uint64_t t = NowNs();
  const auto lap = [&](Layer layer) {
    const std::uint64_t now = NowNs();
    spans.Add(layer, t, now);
    const double s = ToSeconds(now - t);
    t = now;
    return s;
  };

  fx.graph = std::make_unique<graph::SocialGraph>(graph::GenerateDataset(
      graph::Dataset::kFacebook, kGraphScale, kGraphSeed));
  times->graph_s = lap(Layer::kSetupGraph);

  if (kind == LogKind::kSynthetic) {
    wl::SyntheticLogConfig config;
    config.days = log_days;
    config.seed = opts.seed + 1;
    fx.log = wl::GenerateSyntheticLog(*fx.graph, config);
  } else {
    // The activity trace is part of the fixed dataset, like the graph: its
    // read tail comes from a few hundred high-degree readers, and drawing
    // them anew per seed moved the read p99 by a quarter between seeds.
    wl::TraceLogConfig config;
    config.days = log_days;
    config.seed = kGraphSeed + 1;
    fx.log = wl::GenerateActivityTrace(*fx.graph, config);
  }
  times->log_s = lap(Layer::kSetupLog);

  // The paper's DynaSoRe set-up (sim::ExperimentConfig defaults): tree
  // cluster, 50% extra memory, random initial placement, adaptive engine.
  sim::ExperimentConfig config;
  config.seed = opts.seed + 2;
  fx.topo = std::make_unique<net::Topology>(sim::MakeTopology(config.cluster));
  fx.engine = config.engine;
  fx.engine.store.capacity_views = sim::CapacityPerServer(
      fx.graph->num_users(), fx.topo->num_servers(), config.extra_memory_pct);
  fx.engine.adaptive = true;
  fx.placement = sim::MakeInitialPlacement(
      *fx.graph, *fx.topo, fx.engine.store.capacity_views, config);
  times->placement_s = lap(Layer::kSetupPlacement);

  fx.runtime = std::make_unique<rt::ShardedRuntime>(
      *fx.graph, *fx.topo, fx.placement, fx.engine,
      MakeRuntimeConfig(telemetry));
  times->runtime_s = lap(Layer::kSetupRuntime);
  return fx;
}

void ReportSetup(const std::vector<SetupTimes>& reps, Result& result) {
  std::vector<double> graph, log, placement, runtime, server, total;
  for (const SetupTimes& r : reps) {
    graph.push_back(r.graph_s);
    log.push_back(r.log_s);
    placement.push_back(r.placement_s);
    runtime.push_back(r.runtime_s);
    server.push_back(r.server_s);
    total.push_back(r.total());
  }
  std::printf("setup: %zu set-ups, total s:", reps.size());
  for (const double t : total) std::printf(" %.4f", t);
  std::printf("\n");
  result.Set("setup_s", Median(total));
  result.Set("setup.graph_s", Median(graph));
  result.Set("setup.log_s", Median(log));
  result.Set("setup.placement_s", Median(placement));
  result.Set("setup.runtime_s", Median(runtime));
  result.Set("setup.server_s", Median(server));
}

// ----- Direct core::Engine pass -----

CorePass RunCorePass(const Fixture& fx, std::span<const Request> ops,
                     bool zero_times, SpanLog& spans) {
  CorePass pass;
  core::Engine engine(*fx.topo, fx.placement, fx.engine);
  ScopedSpan whole(spans, Layer::kCorePass);
  const SimTime slot = fx.engine.slot_seconds;
  SimTime next_tick = slot;
  pass.read_samples.reserve(ops.size());
  pass.write_samples.reserve(ops.size());
  for (const Request& op : ops) {
    const SimTime time = zero_times ? 0 : op.time;
    while (time >= next_tick) {
      const std::uint64_t t0 = NowNs();
      engine.Tick(next_tick);
      const std::uint64_t t1 = NowNs();
      spans.Add(Layer::kCoreTick, t0, t1, whole.id());
      pass.tick_ns += t1 - t0;
      ++pass.ticks;
      next_tick += slot;
    }
    const std::uint64_t t0 = NowNs();
    if (op.op == OpType::kWrite) {
      engine.ExecuteWrite(op.user, time);
    } else {
      engine.ExecuteRead(op.user, fx.graph->Followees(op.user), time);
    }
    const std::uint64_t t1 = NowNs();
    if (op.op == OpType::kWrite) {
      spans.Add(Layer::kCoreWrite, t0, t1, whole.id());
      pass.write_ns += t1 - t0;
      pass.write_samples.push_back(t1 - t0);
      ++pass.writes;
    } else {
      spans.Add(Layer::kCoreRead, t0, t1, whole.id());
      pass.read_ns += t1 - t0;
      pass.read_samples.push_back(t1 - t0);
      ++pass.reads;
    }
  }
  return pass;
}

void SetCoreLayerMetrics(const CorePass& pass, Result& result) {
  const auto mean = [](std::uint64_t ns, std::uint64_t calls, double unit) {
    return calls == 0 ? 0.0
                      : static_cast<double>(ns) / static_cast<double>(calls) /
                            unit;
  };
  result.Set("core.read_us", mean(pass.read_ns, pass.reads, 1e3));
  result.Set("core.write_us", mean(pass.write_ns, pass.writes, 1e3));
  result.Set("core.tick_ms", mean(pass.tick_ns, pass.ticks, 1e6));
}

// ----- Runtime result metrics -----

double TopTrafficPerRequest(const rt::RuntimeResult& r) {
  if (r.totals.requests == 0) return 0;
  const int top = static_cast<int>(net::Tier::kTop);
  return static_cast<double>(r.traffic_app[top] + r.traffic_sys[top]) /
         static_cast<double>(r.totals.requests);
}

void ReportRuntimeCounters(const rt::RuntimeResult& r, Result& result) {
  const auto per = [](std::uint64_t num, std::uint64_t den) {
    return den == 0 ? 0.0
                    : static_cast<double>(num) / static_cast<double>(den);
  };
  const std::uint64_t requests = r.totals.requests;
  const core::EngineCounters& c = r.counters;
  result.Set("core.view_reads_per_read", per(c.view_reads, c.reads));
  result.Set("core.replica_updates_per_write",
             per(c.replica_updates, c.writes));
  result.Set("core.replicas_created", static_cast<double>(c.replicas_created));
  result.Set("core.replicas_dropped", static_cast<double>(c.replicas_dropped));
  result.Set("core.evictions", static_cast<double>(c.evictions_watermark));
  result.Set("core.migrations", static_cast<double>(c.migrations));
  result.Set("core.proxy_migrations",
             static_cast<double>(c.read_proxy_migrations +
                                 c.write_proxy_migrations));

  const int top = static_cast<int>(net::Tier::kTop);
  const int mid = static_cast<int>(net::Tier::kIntermediate);
  const int rack = static_cast<int>(net::Tier::kRack);
  result.Set("net.top_app_per_req", per(r.traffic_app[top], requests));
  result.Set("net.top_sys_per_req", per(r.traffic_sys[top], requests));
  result.Set("net.intermediate_per_req",
             per(r.traffic_app[mid] + r.traffic_sys[mid], requests));
  result.Set("net.rack_per_req",
             per(r.traffic_app[rack] + r.traffic_sys[rack], requests));

  result.Set("runtime.msgs_per_req", per(r.totals.messages_sent, requests));
  result.Set("runtime.remote_slices_per_read",
             per(r.totals.remote_read_slices, r.totals.reads));
  std::uint64_t hottest = 0;
  for (const rt::ShardStats& s : r.shard_stats) {
    hottest = std::max(hottest, s.requests);
  }
  const double mean = r.shard_stats.empty()
                          ? 0.0
                          : per(requests, r.shard_stats.size());
  result.Set("runtime.imbalance",
             mean == 0 ? 0.0 : static_cast<double>(hottest) / mean);
  std::uint64_t epochs = 0;
  for (const rt::ShardStats& s : r.shard_stats) {
    epochs = std::max(epochs, s.epochs);
  }
  result.Set("runtime.epochs", static_cast<double>(epochs));
}

}  // namespace perfbench
