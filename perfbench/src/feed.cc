// feed-open and feed-closed: the paper's §4.2 synthetic mix (4 reads per
// write, activity proportional to log-degree, in wl::GenerateSyntheticLog
// order, cycled) served by net::Server over loopback with its default
// configuration, from one single-threaded load generator.
//
// feed-open sends on a fixed schedule over one non-blocking socket that
// speaks netproto/wire.h directly, so a server stall cannot slow the
// sender (no coordinated omission): latency runs from each op's intended
// send time. feed-closed drives net::Client with a fixed window of
// outstanding ops and reports serving capacity.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <unordered_map>

#include "netproto/wire.h"
#include "server/client.h"
#include "server/server.h"
#include "workloads.h"

namespace perfbench {

namespace {

// Every op frame the generator sends: header + {u64 time, u32 user}.
constexpr std::size_t kOpFrameBytes = netp::kHeaderSize + 12;
// An op the generator sent later than this after its intended time fell
// behind the schedule. It stays a latency sample (from its intended send
// time, so the delay is charged to it); the count is printed.
constexpr std::uint64_t kLateNs = 2'000'000;
// The timed window is cut into slices of this length.
constexpr std::uint64_t kSliceNs = 500'000'000;
// Ops the traced pass replays through one core::Engine.
constexpr std::size_t kCorePassOps = 100'000;
// How long a pass waits for outstanding acks after its last send.
constexpr std::uint64_t kDrainTimeoutNs = 5'000'000'000;

class Socket {
 public:
  explicit Socket(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) throw std::runtime_error("socket failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      ::close(fd_);
      throw std::runtime_error(std::string("connect failed: ") +
                               std::strerror(errno));
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK);
  }
  ~Socket() { ::close(fd_); }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  int fd() const { return fd_; }

 private:
  int fd_ = -1;
};

// The fixture plus a started server and the generator's connection.
struct Serving {
  Fixture fx;
  std::unique_ptr<net::Server> server;
  std::unique_ptr<Socket> socket;      // feed-open
  std::unique_ptr<net::Client> client; // feed-closed

  void Release() {
    socket.reset();
    client.reset();
    server.reset();  // Stop() + join
    fx.Release();
  }
};

void StartServing(Serving& s, bool open_loop, SpanLog& spans,
                  SetupTimes* times) {
  const std::uint64_t t0 = NowNs();
  // Library defaults throughout; port 0 binds an ephemeral port.
  s.server = std::make_unique<net::Server>(*s.fx.runtime, net::ServerConfig{});
  s.server->Start();
  if (open_loop) {
    s.socket = std::make_unique<Socket>(s.server->port());
  } else {
    s.client = std::make_unique<net::Client>();
    s.client->Connect("127.0.0.1", s.server->port());
  }
  const std::uint64_t t1 = NowNs();
  spans.Add(Layer::kSetupServer, t0, t1);
  times->server_s = static_cast<double>(t1 - t0) / 1e9;
}

// What one pass of either loop measured.
struct Pass {
  std::uint64_t ops = 0;      // ops attempted (warm-up included)
  std::uint64_t acked = 0;    // answered kOpResp
  std::uint64_t busy = 0;     // answered kBusyResp
  std::uint64_t late = 0;     // timed ops sent more than kLateNs late
  double duration_s = 0;      // whole pass, warm-up included
  // Timed-window samples (ns), one vector per kSliceNs slice; only the
  // quiet slices (TimeSlices::Quiet) enter an estimate, so slices in which
  // the host stole CPU time stay out.
  TimeSlices clock;
  std::vector<std::vector<std::uint64_t>> read;   // intended (or submit) -> ack
  std::vector<std::vector<std::uint64_t>> write;
  std::vector<std::uint64_t> acks;       // by ack time
  // Earliest ack in each slice, plus the first one after the window.
  std::vector<std::uint64_t> first_ack;
  std::vector<std::uint64_t> lateness;   // feed-open: intended -> actual send
  // Traced passes only: kept for the per-layer metrics, and left empty on
  // untraced passes so that peak_rss_mb does not grow with throughput.
  std::vector<std::uint64_t> residence;  // actual send -> ack
  std::vector<Request> executed;         // ops sent, in order

  void StartSlices(const Options& opts, std::uint64_t timed_from) {
    const auto n = static_cast<std::size_t>(opts.seconds * 1e9 / kSliceNs);
    clock = TimeSlices(timed_from, kSliceNs, n);
    read.resize(n);
    write.resize(n);
    acks.resize(n);
    first_ack.resize(n + 1);
  }
  void CountAck(std::uint64_t t) {
    std::size_t i = clock.Index(t);
    if (i < clock.count()) {
      ++acks[i];
    } else if (t >= clock.end_ns()) {
      i = clock.count();
    } else {
      return;  // warm-up
    }
    if (first_ack[i] == 0 || t < first_ack[i]) first_ack[i] = t;
  }
  // Acked ops per second over the quiet slices: their acks over their
  // time. A slice is timed between the first acks of it and of the next
  // slice: acks arrive in batch-sized bursts, and this never counts part
  // of a burst.
  double Throughput() const {
    std::uint64_t n_acks = 0;
    std::uint64_t ns = 0;
    for (const std::size_t i : clock.Quiet()) {
      if (first_ack[i] != 0 && first_ack[i + 1] > first_ack[i]) {
        n_acks += acks[i];
        ns += first_ack[i + 1] - first_ack[i];
      }
    }
    return ns == 0 ? 0.0
                   : static_cast<double>(n_acks) * 1e9 / static_cast<double>(ns);
  }
};

const Request& FeedOp(const wl::RequestLog& log, std::uint64_t i) {
  return log.requests[i % log.requests.size()];
}

// ----- feed-open: the scheduled generator -----

Pass DriveOpenLoop(int fd, const wl::RequestLog& log, const Options& opts,
                   SpanLog& spans) {
  Pass pass;
  const auto period_ns = 1e9 / opts.rate;
  const std::uint64_t n_ops = static_cast<std::uint64_t>(
      opts.rate * (kWarmupSeconds + opts.seconds));
  pass.ops = n_ops;
  std::vector<std::uint64_t> send_ns(n_ops, 0);
  std::vector<std::uint64_t> ack_ns(n_ops, 0);
  std::vector<std::uint8_t> answered(n_ops, 0);
  const auto intended = [&](std::uint64_t t0, std::uint64_t i) {
    return t0 + static_cast<std::uint64_t>(static_cast<double>(i) * period_ns);
  };

  std::vector<std::uint8_t> tx;
  std::size_t tx_off = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t next_op = 0;      // next op to encode
  std::uint64_t first_unsent = 0; // oldest op not yet fully sent
  std::vector<std::uint8_t> rx;
  std::vector<std::uint8_t> payload;
  std::uint8_t buf[1 << 16];

  const std::uint64_t t0 = NowNs() + 1'000'000;
  const std::uint64_t send_end = intended(t0, n_ops);
  const std::uint64_t first_timed =
      static_cast<std::uint64_t>(opts.rate * kWarmupSeconds);
  const std::uint64_t timed_from = intended(t0, first_timed);
  pass.StartSlices(opts, timed_from);
  while (true) {
    const std::uint64_t now = NowNs();
    pass.clock.Observe(now);
    std::uint32_t loop_span = SpanLog::kNone;
    const auto open_loop_span = [&] {
      if (loop_span == SpanLog::kNone) {
        loop_span = spans.BeginAt(Layer::kGenLoop, now);
      }
      return loop_span;
    };

    // Encode every op that is due.
    if (next_op < n_ops && intended(t0, next_op) <= now) {
      ScopedSpan encode(spans, Layer::kNetpEncode, open_loop_span());
      while (next_op < n_ops && intended(t0, next_op) <= now) {
        const Request& op = FeedOp(log, next_op);
        payload.clear();
        netp::Encode(netp::OpPayload{op.time, op.user}, &payload);
        netp::EncodeFrame(op.op == OpType::kRead ? netp::MsgType::kReadReq
                                                 : netp::MsgType::kWriteReq,
                          static_cast<std::uint32_t>(next_op + 1), payload,
                          &tx);
        ++next_op;
      }
    }

    // Ship what the socket takes; ops whose last byte left are sent.
    if (tx_off < tx.size()) {
      ScopedSpan send(spans, Layer::kGenSend, open_loop_span());
      const ssize_t n =
          ::send(fd, tx.data() + tx_off, tx.size() - tx_off, MSG_NOSIGNAL);
      if (n > 0) {
        tx_off += static_cast<std::size_t>(n);
        bytes_sent += static_cast<std::uint64_t>(n);
        const std::uint64_t stamp = NowNs();
        while (first_unsent < next_op &&
               (first_unsent + 1) * kOpFrameBytes <= bytes_sent) {
          send_ns[first_unsent++] = stamp;
        }
        if (tx_off == tx.size()) {
          tx.clear();
          tx_off = 0;
        }
      } else if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                 errno != EINTR) {
        throw std::runtime_error(std::string("send failed: ") +
                                 std::strerror(errno));
      }
    }

    // Receive and decode acks.
    const std::uint64_t recv_start = NowNs();
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n == 0) throw std::runtime_error("server closed the connection");
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      throw std::runtime_error(std::string("recv failed: ") +
                               std::strerror(errno));
    }
    if (n > 0) {
      const std::uint64_t stamp = NowNs();
      spans.Add(Layer::kGenRecv, recv_start, stamp, open_loop_span());
      rx.insert(rx.end(), buf, buf + n);
      ScopedSpan decode(spans, Layer::kNetpDecode, open_loop_span());
      std::size_t off = 0;
      while (true) {
        const netp::DecodeResult r = netp::DecodeFrame(
            std::span<const std::uint8_t>(rx.data() + off, rx.size() - off));
        if (r.status == netp::DecodeStatus::kNeedMore) break;
        if (r.status != netp::DecodeStatus::kOk) {
          throw std::runtime_error(std::string("bad frame from server: ") +
                                   netp::DecodeStatusName(r.status));
        }
        off += r.consumed;
        const std::uint64_t idx = r.frame.header.seq - 1;
        if (idx >= n_ops || answered[idx] != 0) {
          throw std::runtime_error("ack for an unknown op");
        }
        if (r.frame.header.type == netp::MsgType::kOpResp &&
            netp::DecodeOpResp(r.frame.payload).has_value()) {
          answered[idx] = 1;
          ack_ns[idx] = stamp;
          ++pass.acked;
        } else if (r.frame.header.type == netp::MsgType::kBusyResp) {
          answered[idx] = 2;
          ++pass.busy;
        } else {
          throw std::runtime_error("unexpected frame type from server");
        }
      }
      rx.erase(rx.begin(), rx.begin() + static_cast<std::ptrdiff_t>(off));
    }
    if (loop_span != SpanLog::kNone) spans.End(loop_span);

    if (next_op == n_ops && tx.empty() && pass.acked + pass.busy == n_ops) {
      break;
    }
    if (now > send_end + kDrainTimeoutNs) break;  // unanswered ops fail

    // Sleep until the next op is due or the socket has acks (or room, when
    // a send was cut short): the generator leaves its CPU to the server.
    if (n <= 0) {
      std::uint64_t wake = send_end + kDrainTimeoutNs;
      if (next_op < n_ops) wake = intended(t0, next_op);
      const std::uint64_t after = NowNs();
      if (wake > after) {
        pollfd pfd{fd, static_cast<short>(POLLIN | (tx.empty() ? 0 : POLLOUT)),
                   0};
        const std::uint64_t wait = wake - after;
        const timespec ts{static_cast<time_t>(wait / 1'000'000'000),
                          static_cast<long>(wait % 1'000'000'000)};
        ::ppoll(&pfd, 1, &ts, nullptr);
      }
    }
  }
  pass.duration_s = static_cast<double>(NowNs() - t0) / 1e9;

  // Timed window: ops due in [t0 + warm-up, t0 + warm-up + seconds).
  for (std::uint64_t i = 0; i < n_ops; ++i) {
    if (answered[i] == 1) pass.CountAck(ack_ns[i]);
    if (i < first_timed) continue;
    const std::uint64_t due = intended(t0, i);
    const std::size_t due_in = pass.clock.Index(due);
    if (due_in == pass.clock.count()) continue;
    if (send_ns[i] != 0) pass.lateness.push_back(send_ns[i] - due);
    if (answered[i] != 1) continue;
    if (send_ns[i] - due > kLateNs) ++pass.late;
    (FeedOp(log, i).op == OpType::kRead ? pass.read : pass.write)[due_in]
        .push_back(ack_ns[i] - due);
    if (spans.enabled()) pass.residence.push_back(ack_ns[i] - send_ns[i]);
  }
  for (std::uint64_t i = 0; spans.enabled() && i < next_op; ++i) {
    pass.executed.push_back(FeedOp(log, i));
  }
  return pass;
}

// ----- feed-closed: net::Client with a fixed window -----

Pass DriveClosedLoop(net::Client& client, const wl::RequestLog& log,
                     const Options& opts, SpanLog& spans) {
  Pass pass;
  struct Inflight {
    std::uint64_t sent_ns;
    bool write;
  };
  std::unordered_map<std::uint32_t, Inflight> inflight;
  inflight.reserve(kClosedWindow * 2);

  const std::uint64_t t0 = NowNs();
  const std::uint64_t timed_from =
      t0 + static_cast<std::uint64_t>(kWarmupSeconds * 1e9);
  const std::uint64_t timed_to =
      timed_from + static_cast<std::uint64_t>(opts.seconds * 1e9);
  pass.StartSlices(opts, timed_from);
  std::uint64_t next_op = 0;
  const std::uint64_t drain_deadline = timed_to + kDrainTimeoutNs;
  std::uint64_t now = t0;
  while (true) {
    // Refill the window once every ack already received is consumed, so
    // one Ship carries every freed slot.
    if (now < timed_to && inflight.size() < kClosedWindow &&
        client.buffered_acks() == 0) {
      {
        ScopedSpan submit(spans, Layer::kClientSubmit);
        const std::uint64_t stamp = NowNs();
        while (inflight.size() < kClosedWindow) {
          const Request& op = FeedOp(log, next_op++);
          if (spans.enabled()) pass.executed.push_back(op);
          const bool write = op.op == OpType::kWrite;
          const std::uint32_t seq = write ? client.SubmitWrite(op.time, op.user)
                                          : client.SubmitRead(op.time, op.user);
          inflight.emplace(seq, Inflight{stamp, write});
        }
      }
      ScopedSpan ship(spans, Layer::kClientShip);
      client.Ship();
    }
    if (inflight.empty()) break;
    if (now > drain_deadline) break;  // unanswered ops fail
    net::Client::OpAck ack;
    {
      ScopedSpan wait(spans, Layer::kClientWait);
      ack = client.WaitOpAck();
    }
    now = NowNs();
    pass.clock.Observe(now);
    const auto it = inflight.find(ack.seq);
    if (it == inflight.end()) throw std::runtime_error("ack for an unknown op");
    const Inflight op = it->second;
    inflight.erase(it);
    if (ack.busy) {
      ++pass.busy;  // refused: counted as failed, not resubmitted
      continue;
    }
    ++pass.acked;
    pass.CountAck(now);
    const std::size_t slice = pass.clock.Index(now);
    if (slice < pass.clock.count()) {
      (op.write ? pass.write : pass.read)[slice].push_back(now - op.sent_ns);
      if (spans.enabled()) pass.residence.push_back(now - op.sent_ns);
    }
  }
  pass.ops = next_op;
  pass.duration_s = static_cast<double>(NowNs() - t0) / 1e9;
  return pass;
}

// Runs one pass and closes the connection, stops the server, and checks
// the server's ledger against the generator's count.
struct ServedPass {
  Pass pass;
  net::ServerStats stats;
  rt::RuntimeResult lifetime;  // the runtime's merged totals after Stop
};

ServedPass RunServedPass(Serving& s, bool open_loop, const Options& opts,
                         SpanLog& spans, Result& result, const char* label) {
  ServedPass out;
  out.pass = open_loop ? DriveOpenLoop(s.socket->fd(), s.fx.log, opts, spans)
                       : DriveClosedLoop(*s.client, s.fx.log, opts, spans);
  s.socket.reset();
  s.client.reset();
  s.server->Stop();
  out.stats = s.server->stats();
  out.lifetime = s.fx.runtime->Run(wl::RequestLog{});

  const net::ServerStats& st = out.stats;
  const std::string tag(label);
  result.Check(st.ops_executed == out.pass.acked &&
                   st.acks_sent == st.ops_executed,
               tag + ": ops_executed == client acks == acks_sent");
  result.Check(st.ops_received == st.ops_executed + st.busy_sent &&
                   st.busy_sent == out.pass.busy,
               tag + ": ops_received == executed + busy");
  result.Check(out.lifetime.totals.requests == st.ops_executed &&
                   out.lifetime.e2e_latency.count() == st.ops_executed,
               tag + ": runtime totals.requests == ops_executed");
  return out;
}

// A latency metric in us. feed-open pools the quiet slices' samples and
// takes their percentile. feed-closed's latency is set by its window (about
// window / throughput) and its tail by the few host stalls that hold up a
// whole window, so it takes the median over the quiet slices of each
// slice's percentile: the latency of a typical half second.
double LatencyUs(const Pass& p, bool open_loop, bool reads, double q) {
  const auto& samples = reads ? p.read : p.write;
  if (open_loop) return QuietLatencyUs(p.clock, samples, q);
  std::vector<double> per_slice;
  for (const std::size_t i : p.clock.Quiet()) {
    std::vector<std::uint64_t> slice = samples[i];
    if (!slice.empty()) per_slice.push_back(Percentile(slice, q) / 1e3);
  }
  return Median(per_slice);
}

void SetEndToEnd(const ServedPass& sp, bool open_loop, Result& result) {
  const Pass& p = sp.pass;
  result.attempted += p.ops;
  result.failed += p.ops - p.acked;
  result.Set("read_p50_us", LatencyUs(p, open_loop, true, 0.50));
  result.Set("read_p99_us", LatencyUs(p, open_loop, true, 0.99));
  result.Set("write_p50_us", LatencyUs(p, open_loop, false, 0.50));
  result.Set("write_p99_us", LatencyUs(p, open_loop, false, 0.99));
  result.Set("throughput_ops_s", p.Throughput());
  result.Set("top_traffic_per_req", TopTrafficPerRequest(sp.lifetime));
  result.Set("acked_share", p.ops == 0 ? 0.0
                                       : static_cast<double>(p.acked) /
                                             static_cast<double>(p.ops));
  if (open_loop) {
    std::vector<std::uint64_t> lateness = p.lateness;
    result.Set("gen.late_p99_us", Percentile(lateness, 0.99) / 1e3);
    std::printf("generator: late p99 %.0f us; %llu timed ops sent more than "
                "%.0f us late\n",
                result.Get("gen.late_p99_us"),
                static_cast<unsigned long long>(p.late),
                static_cast<double>(kLateNs) / 1e3);
  }
}

}  // namespace

Result RunFeed(const Options& opts, bool open_loop) {
  Result result;
  SpanLog no_spans(false);
  // Traced runs record set-up and the traced pass; never the untraced one.
  SpanLog spans(opts.trace);
  const char* name = open_loop ? "feed-open" : "feed-closed";

  // Enough synthetic log for a whole pass without wrapping too often; the
  // generator cycles it.
  const double log_days = 2.0;

  std::vector<SetupTimes> setups;
  Serving s;
  for (int i = 0; i < kSetupReps; ++i) {
    s.Release();
    SetupTimes t;
    {
      // Unpinned again before the server starts its event-loop thread.
      const PinToCpu pin(static_cast<unsigned>(i));
      s.fx = BuildFixture(opts, LogKind::kSynthetic, log_days,
                          /*telemetry=*/false, spans, &t);
    }
    StartServing(s, open_loop, spans, &t);
    setups.push_back(t);
  }
  ReportSetup(setups, result);
  std::printf("%s: users=%u log=%zu ops (%llu reads, %llu writes), "
              "%s\n",
              name, s.fx.graph->num_users(), s.fx.log.requests.size(),
              static_cast<unsigned long long>(s.fx.log.num_reads),
              static_cast<unsigned long long>(s.fx.log.num_writes),
              open_loop ? "open loop" : "closed loop");

  const ServedPass untraced =
      RunServedPass(s, open_loop, opts, no_spans, result, "untraced");
  SetEndToEnd(untraced, open_loop, result);
  result.Set("peak_rss_mb", PeakRssMb());
  std::printf("%s: per %.1f s slice: host steal ticks / acks / read p50 us "
              "/ read p99 us\n",
              name, static_cast<double>(kSliceNs) / 1e9);
  const Pass& up = untraced.pass;
  for (std::size_t i = 0; i < up.clock.count(); ++i) {
    std::vector<std::uint64_t> reads = up.read[i];
    std::printf("  %6llu %8llu %10.0f %10.0f\n",
                static_cast<unsigned long long>(up.clock.Steal(i)),
                static_cast<unsigned long long>(up.acks[i]),
                Percentile(reads, 0.50) / 1e3, Percentile(reads, 0.99) / 1e3);
  }
  std::printf("%s: %llu ops, %llu acked, %llu busy in %.2f s; "
              "%llu batches\n",
              name, static_cast<unsigned long long>(untraced.pass.ops),
              static_cast<unsigned long long>(untraced.pass.acked),
              static_cast<unsigned long long>(untraced.pass.busy),
              untraced.pass.duration_s,
              static_cast<unsigned long long>(untraced.stats.batches_run));
  if (!opts.trace) return result;

  // ----- Traced pass: a fresh runtime and server, spans on -----
  s.server.reset();
  s.fx.runtime = std::make_unique<rt::ShardedRuntime>(
      *s.fx.graph, *s.fx.topo, s.fx.placement, s.fx.engine,
      MakeRuntimeConfig(false));
  SetupTimes ignored;
  StartServing(s, open_loop, spans, &ignored);
  ServedPass traced = RunServedPass(s, open_loop, opts, spans, result, "traced");
  Pass& p = traced.pass;
  const net::ServerStats& st = traced.stats;
  const auto per = [](double num, double den) {
    return den == 0 ? 0.0 : num / den;
  };

  const double ops = static_cast<double>(p.executed.size());
  if (open_loop) {
    result.Set("netproto.encode_ns_per_op",
               per(static_cast<double>(spans.TotalNs(Layer::kNetpEncode)), ops));
    result.Set("netproto.decode_ns_per_ack",
               per(static_cast<double>(spans.TotalNs(Layer::kNetpDecode)),
                   static_cast<double>(p.acked + p.busy)));
    result.Set("gen.send_us_per_op",
               per(static_cast<double>(spans.TotalNs(Layer::kGenSend)) / 1e3,
                   ops));
  } else {
    result.Set("netproto.encode_ns_per_op",
               per(static_cast<double>(spans.TotalNs(Layer::kClientSubmit)),
                   ops));
    result.Set("gen.send_us_per_op",
               per(static_cast<double>(spans.TotalNs(Layer::kClientShip)) / 1e3,
                   ops));
  }
  result.Set("server.residence_p50_us", Percentile(p.residence, 0.50) / 1e3);
  result.Set("server.residence_p99_us", Percentile(p.residence, 0.99) / 1e3);
  const double ops_per_batch =
      per(static_cast<double>(st.ops_executed),
          static_cast<double>(st.batches_run));
  result.Set("server.ops_per_batch", ops_per_batch);
  result.Set("server.batches_per_s",
             per(static_cast<double>(st.batches_run), p.duration_s));
  result.Set("server.busy_share", per(static_cast<double>(st.busy_sent),
                                      static_cast<double>(st.ops_received)));
  ReportRuntimeCounters(traced.lifetime, result);

  // runtime.batch_run_us: Run over server-sized batches of the same mix,
  // timed directly on the same runtime after Server::Stop.
  {
    const std::size_t batch =
        std::max<std::size_t>(1, static_cast<std::size_t>(ops_per_batch + 0.5));
    std::vector<double> walls;
    std::uint64_t next = p.executed.size();
    const std::uint64_t until = NowNs() + 1'000'000'000;
    while (walls.size() < 50 || (NowNs() < until && walls.size() < 2000)) {
      wl::RequestLog log;
      for (std::size_t i = 0; i < batch; ++i) {
        Request r = FeedOp(s.fx.log, next++);
        r.time = 0;  // serving mode, as the server runs them
        (r.op == OpType::kRead ? log.num_reads : log.num_writes) += 1;
        log.requests.push_back(r);
      }
      const std::uint64_t t0 = NowNs();
      s.fx.runtime->Run(log);
      const std::uint64_t t1 = NowNs();
      spans.Add(Layer::kRuntimeBatch, t0, t1);
      walls.push_back(static_cast<double>(t1 - t0) / 1e3);
    }
    result.Set("runtime.batch_run_us", Median(walls));
  }

  // The direct engine pass replays the first kCorePassOps ops the server
  // executed: a closed-loop pass executes over a million, and replaying
  // them all would take longer than the run.
  const std::span<const Request> executed(p.executed);
  const CorePass core = RunCorePass(
      s.fx, executed.first(std::min(executed.size(), kCorePassOps)),
      /*zero_times=*/true, spans);
  SetCoreLayerMetrics(core, result);

  // Tracing overhead on the workload's headline metric.
  if (open_loop) {
    const double traced_p50 = LatencyUs(p, open_loop, true, 0.50);
    const double untraced_p50 = result.Get("read_p50_us");
    result.Set("trace.overhead_pct", (traced_p50 / untraced_p50 - 1.0) * 100.0);
  } else {
    const double traced_tp = p.Throughput();
    result.Set("trace.overhead_pct",
               (result.Get("throughput_ops_s") / traced_tp - 1.0) * 100.0);
  }
  std::printf("\ntraced pass:\n%s", spans.FormatTable().c_str());
  s.Release();
  return result;
}

}  // namespace perfbench
