// Shared plumbing for the benchmark program: options, the timed set-up
// phases, the direct core::Engine pass, span recording for traced runs,
// and the result object every workload fills.
//
// Everything here sits outside the library under test: layers are timed
// from the benchmark's own files, around calls into their public
// functions. The only instrumentation inside the program a run turns on is
// rt::RuntimeConfig::telemetry (replay-trace, traced pass).
#pragma once

#include <sched.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "graph/social_graph.h"
#include "net/topology.h"
#include "placement/placement.h"
#include "runtime/sharded_runtime.h"
#include "workload/request_log.h"

namespace perfbench {

using namespace dynasore;

std::uint64_t NowNs();

// ----- Options -----

struct Options {
  std::string workload;  // feed-open | feed-closed | replay-trace
  std::uint64_t seed = 1;
  double seconds = 10;   // measured wall time per pass
  bool trace = false;    // traced run: per-layer metrics
  double rate = 0;       // feed-open offered ops/s (required)
};

// Every workload runs this many shards.
inline constexpr std::uint32_t kShards = 2;
// Facebook-preset graph scale: 30k users, a few hundred ms of set-up.
inline constexpr double kGraphScale = 0.01;
// feed-closed outstanding ops, below ServerConfig::conn_inflight_budget.
inline constexpr std::uint32_t kClosedWindow = 2048;
// Simulated days replay-trace replays: 24 hourly maintenance cycles.
inline constexpr double kReplayDays = 1.0;
// Untimed lead-in of every feed pass, seconds.
inline constexpr double kWarmupSeconds = 1.0;
// Set-ups timed per run; the median is reported.
inline constexpr int kSetupReps = 7;

// Parses --name=value / --name value flags; throws std::invalid_argument
// naming the bad flag.
Options ParseOptions(int argc, char** argv);

// CPUs this process may run on (sched_getaffinity), the bound a
// configuration's thread count is checked against.
unsigned UsableCpus();

// Pins the calling thread to the index-th CPU it may run on (modulo their
// count) for its lifetime, then restores its previous CPU mask. Repeated
// single-threaded work (a set-up, a direct engine pass) moves to the next
// CPU each time: on a virtual machine one CPU can run slower than the
// others for tens of seconds, and a median or minimum over repetitions
// only rejects that when the repetitions did not all run on it. Threads
// started under a pin inherit it, so it only wraps work that starts none.
class PinToCpu {
 public:
  explicit PinToCpu(unsigned index);
  ~PinToCpu();
  PinToCpu(const PinToCpu&) = delete;
  PinToCpu& operator=(const PinToCpu&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

// Peak resident set of this process, in MiB (getrusage).
double PeakRssMb();

// Nearest-rank percentile, q in [0, 1]. Reorders `v`. 0 when empty.
double Percentile(std::vector<std::uint64_t>& v, double q);
double Median(std::vector<double> v);

// ----- Host interference -----

// CPU time the host stole from this machine's CPUs (the steal column of
// /proc/stat), in clock ticks summed over CPUs; 0 where not reported.
std::uint64_t StealTicks();

// Indices of the samples whose steal is at most the lower quartile's: the
// least disturbed quarter at least, every sample the host left alone when
// it left most of them alone.
std::vector<std::size_t> QuietIndices(const std::vector<std::uint64_t>& steal);

// Wall-clock slices of a timed window, each stamped with the host steal
// observed across it. Estimators pool the samples of the quiet slices
// only, so a host that steals CPU time in bursts disturbs fewer samples
// than it would a whole-window figure.
class TimeSlices {
 public:
  TimeSlices() = default;
  TimeSlices(std::uint64_t from_ns, std::uint64_t slice_ns, std::size_t count);

  std::size_t count() const { return count_; }
  std::uint64_t end_ns() const { return from_ns_ + count_ * slice_ns_; }
  // Slice holding time t, or count() when t is outside the window.
  std::size_t Index(std::uint64_t t) const;
  // Call as time passes: records the steal counter at every slice
  // boundary crossed since the last call.
  void Observe(std::uint64_t now);
  // The slices QuietIndices picks by their steal.
  std::vector<std::size_t> Quiet() const;
  // Steal per slice, in ticks (0 for slices never closed by Observe).
  std::uint64_t Steal(std::size_t i) const;

 private:
  std::uint64_t from_ns_ = 0;
  std::uint64_t slice_ns_ = 1;
  std::size_t count_ = 0;
  std::vector<std::uint64_t> steal_at_;  // counter at boundaries seen so far
};

// ----- Spans (traced runs only) -----

enum class Layer : std::uint8_t {
  kSetupGraph,
  kSetupLog,
  kSetupPlacement,
  kSetupRuntime,
  kSetupServer,
  kGenLoop,       // one open-loop generator iteration that did work
  kNetpEncode,    // netp::EncodeFrame of the ops due this iteration
  kGenSend,       // send(2) of the encoded bytes
  kGenRecv,       // recv(2) of ack bytes
  kNetpDecode,    // netp::DecodeFrame + DecodeOpResp of received acks
  kClientSubmit,  // net::Client::Submit* (encodes into the client buffer)
  kClientShip,    // net::Client::Ship
  kClientWait,    // net::Client::WaitOpAck (recv + decode + waiting)
  kRuntimeBatch,  // ShardedRuntime::Run over one server-sized batch
  kRuntimeRun,    // ShardedRuntime::Run over the whole trace
  kCorePass,      // the direct core::Engine replay
  kCoreRead,      // core::Engine::ExecuteRead
  kCoreWrite,     // core::Engine::ExecuteWrite
  kCoreTick,      // core::Engine::Tick
  kCount,
};

const char* LayerName(Layer layer);

// In-memory span log. A span records its layer, its parent span (the span
// that caused it) and its steady-clock interval; nothing is written until
// the run ends. A layer's self time is its spans' durations minus the part
// covered by their child spans. Disabled logs record nothing, so untraced
// runs pay one branch per call site.
class SpanLog {
 public:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  // Opens a span and returns its id (kNone when disabled). BeginAt takes
  // a start stamp the caller already read.
  std::uint32_t Begin(Layer layer, std::uint32_t parent = kNone);
  std::uint32_t BeginAt(Layer layer, std::uint64_t start_ns,
                        std::uint32_t parent = kNone);
  void End(std::uint32_t id);
  // Records an already-measured interval.
  void Add(Layer layer, std::uint64_t start_ns, std::uint64_t end_ns,
           std::uint32_t parent = kNone);

  struct LayerTotals {
    std::uint64_t spans = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t self_ns = 0;
  };
  // Per-layer totals over every closed span.
  std::vector<LayerTotals> Totals() const;
  std::uint64_t TotalNs(Layer layer) const;
  // The per-layer self-time table, one row per layer that recorded spans.
  std::string FormatTable() const;

 private:
  struct Span {
    Layer layer;
    std::uint32_t parent;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
  };
  bool enabled_;
  std::vector<Span> spans_;
};

// RAII span over the enclosing scope.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, Layer layer, std::uint32_t parent = SpanLog::kNone)
      : log_(log), id_(log.Begin(layer, parent)) {}
  ~ScopedSpan() { log_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::uint32_t id() const { return id_; }

 private:
  SpanLog& log_;
  std::uint32_t id_;
};

// ----- Result -----

// One workload pass's outcome: the contract fields plus named metrics.
// Metrics a workload does not exercise are left unset and printed as 0.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, double>> metrics;
  std::vector<std::string> failed_checks;

  void Set(const std::string& name, double value);
  double Get(const std::string& name) const;  // 0 when unset
  // Records a named output check; a false check fails the run.
  void Check(bool ok, const std::string& what);
};

// ----- Set-up -----

enum class LogKind : std::uint8_t {
  kSynthetic,  // wl::GenerateSyntheticLog: §4.2 mix, 4 reads per write
  kActivity,   // wl::GenerateActivityTrace: News-Activity shape
};

// Everything built before the first timed op, in build order. Release()
// tears it down runtime first (the runtime points into the graph).
struct Fixture {
  std::unique_ptr<graph::SocialGraph> graph;
  std::unique_ptr<net::Topology> topo;
  core::EngineConfig engine;
  place::PlacementResult placement;
  wl::RequestLog log;
  std::unique_ptr<rt::ShardedRuntime> runtime;

  void Release() {
    runtime.reset();
    *this = Fixture{};
  }
};

struct SetupTimes {
  double graph_s = 0;
  double log_s = 0;
  double placement_s = 0;
  double runtime_s = 0;
  double server_s = 0;  // feed workloads: Server::Start + connect
  double total() const {
    return graph_s + log_s + placement_s + runtime_s + server_s;
  }
};

// The social graph (and replay-trace's activity trace) is the benchmark's
// fixed dataset; --seed draws the initial placement over it and the feed
// workloads' request log.
inline constexpr std::uint64_t kGraphSeed = 42;

// The shipped runtime configuration: library defaults except the shard
// count (and, for the traced replay pass, telemetry).
rt::RuntimeConfig MakeRuntimeConfig(bool telemetry);

// Builds graph, log, placement and runtime, timing each phase into
// `times`. `log_days` sizes the log.
Fixture BuildFixture(const Options& opts, LogKind kind, double log_days,
                     bool telemetry, SpanLog& spans, SetupTimes* times);

// Per-phase medians over several set-ups; setup_s is the median total.
void ReportSetup(const std::vector<SetupTimes>& reps, Result& result);

// ----- Direct core::Engine pass -----

struct CorePass {
  // Per-call samples (ns), in call order.
  std::vector<std::uint64_t> read_samples;
  std::vector<std::uint64_t> write_samples;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t ticks = 0;
  std::uint64_t read_ns = 0;   // summed ExecuteRead time
  std::uint64_t write_ns = 0;  // summed ExecuteWrite time
  std::uint64_t tick_ns = 0;   // summed Tick time
};

// A latency metric: the p-percentile, in microseconds, of every sample
// (ns) of the quiet slices pooled together.
double QuietLatencyUs(const TimeSlices& clock,
                      const std::vector<std::vector<std::uint64_t>>& samples,
                      double p);

// Replays `ops` through one core::Engine built from the fixture's
// placement, expanding read targets to the reader's followees as the
// runtime does and ticking every slot_seconds as sim::Simulator does.
// With `zero_times` every op executes at time 0, as the server's serving
// mode runs them (no ticks).
CorePass RunCorePass(const Fixture& fx, std::span<const Request> ops,
                     bool zero_times, SpanLog& spans);

// core.read_us / core.write_us / core.tick_ms from a (traced) pass.
void SetCoreLayerMetrics(const CorePass& pass, Result& result);

// Per-layer metrics the runtime's merged result carries (core counters,
// traffic tiers, runtime message ratios), set on `result`.
void ReportRuntimeCounters(const rt::RuntimeResult& r, Result& result);

// Top-switch messages (application + protocol) per executed request.
double TopTrafficPerRequest(const rt::RuntimeResult& r);

}  // namespace perfbench
