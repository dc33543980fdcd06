// net::Server — the network serving tier's epoll front end.
//
// Promotes rt::ShardedRuntime from in-process request replay to a real
// client/server system: a single event-loop thread accepts concurrent TCP
// connections, incrementally decodes netp frames (netproto/wire.h) from
// each connection's receive buffer, and admits decoded read/write ops into
// a pending micro-batch. With the default linger (flush_interval_us = 0)
// the batch executes at the end of the epoll wake that admitted it — once
// the loop has drained every ready socket — so while one batch runs, new
// arrivals wait in the kernel socket buffers and form the next: batching
// is self-clocked by execution time. A positive linger instead holds the
// batch until it reaches ServerConfig::flush_batch ops or flush_interval_us
// elapses since its first admitted op. Either way the server sorts the
// batch into a wl::RequestLog (stable by request time, so ties keep arrival
// order — deterministic for a single connection streaming a log in order)
// and submits it to the runtime as one ShardedRuntime::Run call, then
// answers every admitted op with a kOpResp carrying the shard that owned
// it. If Run throws, every op of that batch is answered with a kErrorResp
// carrying netp::ErrorCode::kExecutionFailed instead (counted in
// ops_failed), and the connections stay open. The runtime's own
// dispatcher/fabric/epoch machinery is unchanged — the server is strictly
// a wire front end over the existing deterministic core.
//
// Admission control and backpressure: an op is admitted only while (a) its
// connection has fewer than conn_inflight_budget ops awaiting responses
// and (b) the global pending batch holds fewer than pending_budget ops.
// Either bound exceeded answers kBusyResp *immediately* instead of
// queueing without bound — the client resubmits after a drain (the
// loopback bench's retry loop, bench_server_loopback.cc). Because the
// event loop executes micro-batches inline, execution time naturally
// throttles decode: bytes beyond the budgets wait in kernel socket
// buffers, TCP flow control pushes back to the sender, and the budgets cap
// the server's own memory. busy_sent counts every rejection, so telemetry
// shows backpressure engaging and releasing (tests/server_test.cc pins
// both). See docs/server.md for the full state machine.
//
// Time handling: with rebase_times (the default, serving mode) admitted
// ops execute with time 0 — every micro-batch is one epoch, no simulated
// clock advances, and throughput is bounded by the runtime, not by replay
// ticks. With rebase_times=false (replay mode) the original request times
// survive, so a client that streams a whole log and then flushes once gets
// a single Run over exactly the in-process dispatcher's input — the
// bit-identity contract tests/server_test.cc pins. Replay therefore needs
// a positive linger (and flush_batch) that outlasts the stream, ended by an
// explicit kFlushReq; with linger 0 the stream is cut into one Run per
// epoll wake.
//
// Threading: Start() spawns the loop thread and Stop() joins it; both are
// called from the owning thread. stats() may be called from any thread
// (mutex-guarded snapshot). The runtime must outlive the server and must
// not be driven concurrently by anyone else while the server is running —
// the loop thread is the runtime's single driver.
//
// Shutdown: Stop() (or destruction) wakes the loop, executes the pending
// batch one last time, flushes every connection's outbound bytes
// best-effort, closes all sockets, and joins — no admitted op is ever
// dropped un-executed, so server restart drains cleanly and a follow-up
// Server over the same runtime continues from conserved totals.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/types.h"
#include "netproto/wire.h"

namespace dynasore::rt {
class ShardedRuntime;
}

namespace dynasore::net {

struct ServerConfig {
  std::string host = "127.0.0.1";
  // 0 binds an ephemeral port; read the chosen one back with port() after
  // Start(). Valid range: any.
  std::uint16_t port = 0;
  // listen(2) backlog. Valid range: >= 1 (see Validate).
  std::uint32_t listen_backlog = 64;
  // Concurrent connections accepted; further accepts are closed on arrival.
  // Valid range: >= 1 (see Validate).
  std::uint32_t max_connections = 64;
  // Ops one connection may have awaiting responses before the server
  // answers kBusyResp instead of admitting (per-connection backpressure
  // bound). Valid range: >= 1 (see Validate).
  std::uint32_t conn_inflight_budget = 4096;
  // Ops the global pending micro-batch may hold before *any* connection's
  // next op is answered kBusyResp (server-wide admission bound). Valid
  // range: >= 1 (see Validate).
  std::uint32_t pending_budget = 65536;
  // Execute the pending batch once it holds this many ops... Valid range:
  // >= 1 (see Validate).
  std::uint32_t flush_batch = 8192;
  // ...or once it has lingered this long since its first op was admitted.
  // 0 (the default) means no linger: the batch executes at the end of the
  // epoll wake that admitted it. A positive linger is a wall-clock bound
  // that epoll's granularity rounds up to whole milliseconds. Valid range:
  // [0, kMaxFlushIntervalUs] (see Validate).
  std::uint64_t flush_interval_us = 0;
  // The largest linger whose nanosecond deadline — the first op's
  // steady-clock admission stamp plus the linger — cannot wrap: the clock
  // counts nanoseconds in a signed 64-bit value (below 2^63), so a linger
  // of at most 2^63 ns keeps the sum within 64 unsigned bits. About 292
  // years: a "never flush on time" linger fits easily.
  static constexpr std::uint64_t kMaxFlushIntervalUs =
      (std::uint64_t{1} << 63) / 1000;
  // Serving mode: admitted ops execute with time 0, one epoch per
  // micro-batch. false preserves request times for replay-mode
  // bit-identity (header comment).
  bool rebase_times = true;

  // Checks the ranges above; throws std::invalid_argument naming the
  // offending field (same contract as rt::RuntimeConfig::Validate).
  void Validate() const {
    if (listen_backlog == 0) {
      throw std::invalid_argument(
          "ServerConfig::listen_backlog must be at least 1 (listen(2) with "
          "a 0 backlog cannot queue any connection)");
    }
    if (max_connections == 0) {
      throw std::invalid_argument(
          "ServerConfig::max_connections must be at least 1 (a server that "
          "admits no connection can serve nothing)");
    }
    if (conn_inflight_budget == 0) {
      throw std::invalid_argument(
          "ServerConfig::conn_inflight_budget must be at least 1 (a 0 "
          "budget would answer kBusy to every op forever)");
    }
    if (pending_budget == 0) {
      throw std::invalid_argument(
          "ServerConfig::pending_budget must be at least 1 (a 0 budget "
          "would answer kBusy to every op forever)");
    }
    if (flush_batch == 0) {
      throw std::invalid_argument(
          "ServerConfig::flush_batch must be at least 1 (a 0-op batch "
          "would execute on every admission — use 1 to mean that)");
    }
    if (flush_interval_us > kMaxFlushIntervalUs) {
      throw std::invalid_argument(
          "ServerConfig::flush_interval_us must be <= kMaxFlushIntervalUs "
          "(2^63 ns): a larger linger wraps the nanosecond flush deadline, "
          "and the batch would execute at once instead of lingering");
    }
  }
};

// The server-side conservation ledger (docs/server.md): every admitted op
// is submitted to the runtime exactly once and answered exactly once, so at
// any quiescent point ops_received == ops_executed + ops_failed + busy_sent
// + pending, and ops_executed == acks_sent while no connection has died
// with acks owed. Snapshot via Server::stats().
struct ServerStats {
  std::uint64_t conns_accepted = 0;
  std::uint64_t conns_closed = 0;
  std::uint64_t conns_rejected = 0;  // over max_connections
  std::uint64_t frames_received = 0;
  std::uint64_t decode_errors = 0;   // connections dropped mid-frame
  std::uint64_t ops_received = 0;    // op frames decoded (admitted or busy)
  std::uint64_t ops_executed = 0;    // ops run through the runtime
  std::uint64_t ops_failed = 0;      // ops of a batch whose Run threw
  std::uint64_t acks_sent = 0;       // kOpResp frames queued
  std::uint64_t busy_sent = 0;       // kBusyResp frames queued
  std::uint64_t batches_run = 0;     // micro-batch Run() calls
  std::uint64_t flushes = 0;         // kFlushReq frames served
  std::uint64_t runtime_requests = 0;  // runtime totals at last batch
  std::uint64_t runtime_reads = 0;
  std::uint64_t runtime_writes = 0;
  std::uint64_t e2e_samples = 0;     // runtime e2e_latency count
};

class Server {
 public:
  // Validates the config; the runtime must outlive the server. Throws
  // std::invalid_argument on bad config.
  Server(rt::ShardedRuntime& runtime, const ServerConfig& config);
  ~Server();  // calls Stop()

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds, listens, and spawns the event-loop thread. Throws
  // std::runtime_error on socket/bind/listen failure. Calling Start on a
  // started server throws std::logic_error.
  void Start();

  // Drains (executes the pending batch, best-effort flushes outbound
  // bytes), closes every connection, and joins the loop thread. Idempotent.
  void Stop();

  // The bound port — the config's, or the kernel-chosen one when the
  // config said 0. Valid after Start().
  std::uint16_t port() const { return port_; }
  bool running() const { return running_.load(std::memory_order_acquire); }

  ServerStats stats() const;

 private:
  struct Connection;
  struct PendingOp {
    std::uint64_t conn_id = 0;  // generation-unique, not the fd
    std::uint32_t seq = 0;      // client's frame seq, echoed in the ack
    Request request;
  };

  void Loop();
  void AcceptAll();
  void HandleReadable(Connection& c);
  void HandleWritable(Connection& c);
  // Decodes every complete frame currently buffered on `c`; returns false
  // when the connection must close (protocol violation).
  bool DecodeBuffered(Connection& c);
  // One decoded frame: admission for ops, immediate service for
  // flush/stats/view-fetch. Returns false to close the connection.
  bool HandleFrame(Connection& c, const netp::Frame& frame);
  // Builds the micro-batch log, runs it through the runtime, and queues
  // every admitted op's kOpResp — or, when Run throws, its kErrorResp with
  // kExecutionFailed. No-op on an empty batch.
  void ExecutePending();
  void QueueFrame(Connection& c, netp::MsgType type, std::uint32_t seq,
                  std::span<const std::uint8_t> payload);
  void FlushSend(Connection& c);
  void CloseConnection(std::uint64_t conn_id);
  Connection* FindConnection(std::uint64_t conn_id);
  netp::StatsPayload BuildStatsPayload() const;
  // Copies the loop-thread ledger into the shared snapshot. Called at
  // event-loop iteration boundaries, so stats() readers never contend with
  // per-op bookkeeping.
  void PublishStats();

  rt::ShardedRuntime& runtime_;
  const ServerConfig config_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd: Stop() wakes the loop
  std::uint16_t port_ = 0;
  std::thread loop_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};

  // Loop-thread state. Connections are keyed by a generation-unique id so
  // a pending op whose connection died (and whose fd was reused) can never
  // answer the wrong socket.
  std::vector<std::unique_ptr<Connection>> conns_;
  std::uint64_t next_conn_id_ = 1;
  std::vector<PendingOp> pending_;
  std::uint64_t first_pending_ns_ = 0;  // admission time of pending_[0]
  std::vector<std::uint8_t> scratch_;   // payload encode scratch

  // The loop thread's private ledger (no lock on the per-op path) and the
  // mutex-guarded snapshot PublishStats copies it into for stats().
  ServerStats ledger_;
  mutable std::mutex stats_mutex_;
  ServerStats stats_;
};

}  // namespace dynasore::net
