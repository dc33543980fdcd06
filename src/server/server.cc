#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <limits>

#include "runtime/sharded_runtime.h"
#include "workload/request_log.h"

namespace dynasore::net {

namespace {

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void ThrowErrno(const char* what) {
  throw std::runtime_error(std::string("net::Server: ") + what + ": " +
                           std::strerror(errno));
}

}  // namespace

// One accepted connection. rx accumulates raw bytes until DecodeBuffered
// eats complete frames from the front; tx accumulates encoded response
// frames until the socket accepts them. Both buffers compact by offset so
// steady-state traffic never reallocates.
struct Server::Connection {
  std::uint64_t id = 0;
  int fd = -1;
  std::vector<std::uint8_t> rx;
  std::size_t rx_off = 0;  // parsed prefix
  std::vector<std::uint8_t> tx;
  std::size_t tx_off = 0;  // sent prefix
  std::uint32_t inflight = 0;  // admitted ops awaiting kOpResp
  bool want_write = false;     // EPOLLOUT armed
};

Server::Server(rt::ShardedRuntime& runtime, const ServerConfig& config)
    : runtime_(runtime), config_(config) {
  config_.Validate();
}

Server::~Server() { Stop(); }

void Server::Start() {
  if (running_.load(std::memory_order_acquire) || loop_.joinable()) {
    throw std::logic_error("net::Server::Start: already started");
  }
  stop_requested_.store(false, std::memory_order_release);

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) ThrowErrno("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("net::Server: bad host address: " +
                             config_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    errno = err;
    ThrowErrno("bind");
  }
  if (::listen(listen_fd_, static_cast<int>(config_.listen_backlog)) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    errno = err;
    ThrowErrno("listen");
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    errno = err;
    ThrowErrno("getsockname");
  }
  port_ = ntohs(bound.sin_port);

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    errno = err;
    ThrowErrno("epoll_create1");
  }
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) {
    const int err = errno;
    ::close(epoll_fd_);
    ::close(listen_fd_);
    epoll_fd_ = listen_fd_ = -1;
    errno = err;
    ThrowErrno("eventfd");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = 0;  // listen fd marker
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.events = EPOLLIN;
  ev.data.u64 = ~std::uint64_t{0};  // wake fd marker
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);

  running_.store(true, std::memory_order_release);
  loop_ = std::thread([this] { Loop(); });
}

void Server::Stop() {
  if (loop_.joinable()) {
    stop_requested_.store(true, std::memory_order_release);
    const std::uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
    loop_.join();
  }
  running_.store(false, std::memory_order_release);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (listen_fd_ >= 0) ::close(listen_fd_);
  wake_fd_ = epoll_fd_ = listen_fd_ = -1;
}

ServerStats Server::stats() const {
  std::lock_guard lock(stats_mutex_);
  return stats_;
}

void Server::PublishStats() {
  std::lock_guard lock(stats_mutex_);
  stats_ = ledger_;
}

Server::Connection* Server::FindConnection(std::uint64_t conn_id) {
  for (auto& c : conns_) {
    if (c->id == conn_id) return c.get();
  }
  return nullptr;
}

void Server::CloseConnection(std::uint64_t conn_id) {
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    if (conns_[i]->id != conn_id) continue;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conns_[i]->fd, nullptr);
    ::close(conns_[i]->fd);
    conns_.erase(conns_.begin() + static_cast<std::ptrdiff_t>(i));
    ++ledger_.conns_closed;
    return;
  }
}

void Server::AcceptAll() {
  while (true) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;  // transient accept failure; keep serving
    }
    if (conns_.size() >= config_.max_connections) {
      ::close(fd);
      ++ledger_.conns_rejected;
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Connection>();
    conn->id = next_conn_id_++;
    conn->fd = fd;
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLRDHUP;
    ev.data.u64 = conn->id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      continue;
    }
    conns_.push_back(std::move(conn));
    ++ledger_.conns_accepted;
  }
}

void Server::QueueFrame(Connection& c, netp::MsgType type, std::uint32_t seq,
                        std::span<const std::uint8_t> payload) {
  netp::EncodeFrame(type, seq, payload, &c.tx);
}

void Server::FlushSend(Connection& c) {
  while (c.tx_off < c.tx.size()) {
    const ssize_t n = ::send(c.fd, c.tx.data() + c.tx_off,
                             c.tx.size() - c.tx_off, MSG_NOSIGNAL);
    if (n > 0) {
      c.tx_off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!c.want_write) {
        c.want_write = true;
        epoll_event ev{};
        ev.events = EPOLLIN | EPOLLRDHUP | EPOLLOUT;
        ev.data.u64 = c.id;
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c.fd, &ev);
      }
      return;
    }
    // Hard send error (peer vanished): drop the buffered bytes; the read
    // side will observe the close and reap the connection.
    c.tx.clear();
    c.tx_off = 0;
    return;
  }
  c.tx.clear();
  c.tx_off = 0;
  if (c.want_write) {
    c.want_write = false;
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLRDHUP;
    ev.data.u64 = c.id;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c.fd, &ev);
  }
}

void Server::HandleWritable(Connection& c) { FlushSend(c); }

netp::StatsPayload Server::BuildStatsPayload() const {
  netp::StatsPayload p;
  p.ops_received = ledger_.ops_received;
  p.ops_executed = ledger_.ops_executed;
  p.ops_failed = ledger_.ops_failed;
  p.acks_sent = ledger_.acks_sent;
  p.busy_sent = ledger_.busy_sent;
  p.batches_run = ledger_.batches_run;
  p.runtime_requests = ledger_.runtime_requests;
  p.runtime_reads = ledger_.runtime_reads;
  p.runtime_writes = ledger_.runtime_writes;
  p.e2e_samples = ledger_.e2e_samples;
  return p;
}

bool Server::HandleFrame(Connection& c, const netp::Frame& frame) {
  ++ledger_.frames_received;
  scratch_.clear();
  switch (frame.header.type) {
    case netp::MsgType::kReadReq:
    case netp::MsgType::kWriteReq: {
      const auto op = netp::DecodeOp(frame.payload);
      if (!op.has_value()) break;  // falls through to kBadPayload below
      ++ledger_.ops_received;
      // Admission control: both backpressure bounds answer kBusyResp
      // immediately instead of queueing without bound.
      if (c.inflight >= config_.conn_inflight_budget ||
          pending_.size() >= config_.pending_budget) {
        ++ledger_.busy_sent;
        QueueFrame(c, netp::MsgType::kBusyResp, frame.header.seq, {});
        return true;
      }
      PendingOp pd;
      pd.conn_id = c.id;
      pd.seq = frame.header.seq;
      pd.request.time = config_.rebase_times ? 0 : op->time;
      pd.request.user = op->user;
      pd.request.op = frame.header.type == netp::MsgType::kReadReq
                          ? OpType::kRead
                          : OpType::kWrite;
      if (pending_.empty()) first_pending_ns_ = NowNs();
      pending_.push_back(pd);
      ++c.inflight;
      return true;
    }
    case netp::MsgType::kFlushReq: {
      // Everything admitted before the flush executes before the reply.
      ExecutePending();  // also uses scratch_ — re-clear before encoding
      ++ledger_.flushes;
      netp::FlushRespPayload p;
      p.executed_total = ledger_.ops_executed;
      p.batches_run = ledger_.batches_run;
      scratch_.clear();
      netp::Encode(p, &scratch_);
      QueueFrame(c, netp::MsgType::kFlushResp, frame.header.seq, scratch_);
      return true;
    }
    case netp::MsgType::kStatsReq: {
      netp::Encode(BuildStatsPayload(), &scratch_);
      QueueFrame(c, netp::MsgType::kStatsResp, frame.header.seq, scratch_);
      return true;
    }
    case netp::MsgType::kViewFetchReq: {
      const auto fetch = netp::DecodeViewFetch(frame.payload);
      if (!fetch.has_value()) break;
      netp::ViewFetchRespPayload p;
      p.view = fetch->view;
      p.owner_shard = runtime_.shard_map().shard_of(fetch->view);
      p.health = static_cast<std::uint8_t>(
          runtime_.health().num_shards() > p.owner_shard
              ? runtime_.health().state(p.owner_shard)
              : rt::ShardHealth::kUp);
      p.num_shards = runtime_.num_shards();
      netp::Encode(p, &scratch_);
      QueueFrame(c, netp::MsgType::kViewFetchResp, frame.header.seq,
                 scratch_);
      return true;
    }
    default: {
      // A response type on the request path is a protocol violation.
      ++ledger_.decode_errors;
      netp::ErrorPayload p;
      p.code = netp::ErrorCode::kBadRequest;
      netp::Encode(p, &scratch_);
      QueueFrame(c, netp::MsgType::kErrorResp, frame.header.seq, scratch_);
      return false;
    }
  }
  // Frame checksummed clean but its payload is the wrong shape for its
  // type: reject and close (framing is intact, trust is not).
  ++ledger_.decode_errors;
  netp::ErrorPayload p;
  p.code = netp::ErrorCode::kBadPayload;
  netp::Encode(p, &scratch_);
  QueueFrame(c, netp::MsgType::kErrorResp, frame.header.seq, scratch_);
  return false;
}

bool Server::DecodeBuffered(Connection& c) {
  while (true) {
    const std::span<const std::uint8_t> window(c.rx.data() + c.rx_off,
                                               c.rx.size() - c.rx_off);
    const netp::DecodeResult r = netp::DecodeFrame(window);
    if (r.status == netp::DecodeStatus::kNeedMore) break;
    if (r.status != netp::DecodeStatus::kOk) {
      // Framing lost: no resync is possible mid-stream. Tell the peer why
      // (best effort) and close.
      ++ledger_.decode_errors;
      scratch_.clear();
      netp::ErrorPayload p;
      p.code = netp::ErrorCode::kBadPayload;
      netp::Encode(p, &scratch_);
      QueueFrame(c, netp::MsgType::kErrorResp, 0, scratch_);
      return false;
    }
    c.rx_off += r.consumed;
    if (!HandleFrame(c, r.frame)) return false;
  }
  // Compact the parsed prefix away so the buffer never grows unbounded.
  if (c.rx_off > 0) {
    c.rx.erase(c.rx.begin(), c.rx.begin() + static_cast<std::ptrdiff_t>(c.rx_off));
    c.rx_off = 0;
  }
  return true;
}

void Server::HandleReadable(Connection& c) {
  char buf[64 * 1024];
  while (true) {
    const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      c.rx.insert(c.rx.end(), buf, buf + n);
      if (static_cast<std::size_t>(n) < sizeof(buf)) break;
      continue;
    }
    if (n == 0) {
      // Orderly or half-open close. Anything already admitted still
      // executes (conservation); the acks are dropped at send time.
      CloseConnection(c.id);
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    CloseConnection(c.id);  // abrupt reset
    return;
  }
  if (!DecodeBuffered(c)) {
    FlushSend(c);  // best-effort: ship the kErrorResp if the socket takes it
    CloseConnection(c.id);
    return;
  }
  FlushSend(c);
}

void Server::ExecutePending() {
  if (pending_.empty()) return;

  // Build the micro-batch log. Stable sort by time: ties keep admission
  // order, so a single connection streaming a log in order yields exactly
  // that log (the replay-mode bit-identity contract), and serving mode
  // (every time rebased to 0) preserves admission order outright.
  wl::RequestLog log;
  log.requests.reserve(pending_.size());
  for (const PendingOp& p : pending_) log.requests.push_back(p.request);
  std::stable_sort(log.requests.begin(), log.requests.end(),
                   [](const Request& a, const Request& b) {
                     return a.time < b.time;
                   });
  log.duration = 0;
  for (const Request& r : log.requests) {
    if (r.op == OpType::kRead) {
      ++log.num_reads;
    } else {
      ++log.num_writes;
    }
  }

  // A throwing Run must not take the loop thread down: its abort path
  // leaves the runtime reusable, so the batch's ops are answered as failed
  // and serving continues with the next batch.
  bool executed = true;
  try {
    const rt::RuntimeResult result = runtime_.Run(log);
    ledger_.runtime_requests = result.totals.requests;
    ledger_.runtime_reads = result.totals.reads;
    ledger_.runtime_writes = result.totals.writes;
    ledger_.e2e_samples = result.e2e_latency.count();
  } catch (...) {
    executed = false;
  }
  ++ledger_.batches_run;
  (executed ? ledger_.ops_executed : ledger_.ops_failed) += pending_.size();

  // Answer every admitted op on its (still live) connection, in admission
  // order per connection.
  for (const PendingOp& p : pending_) {
    Connection* c = FindConnection(p.conn_id);
    if (c == nullptr) continue;  // connection died mid-batch; op ran anyway
    --c->inflight;
    scratch_.clear();
    if (!executed) {
      netp::ErrorPayload err;
      err.code = netp::ErrorCode::kExecutionFailed;
      netp::Encode(err, &scratch_);
      QueueFrame(*c, netp::MsgType::kErrorResp, p.seq, scratch_);
      continue;
    }
    netp::OpRespPayload resp;
    resp.op = p.request.op;
    resp.shard = runtime_.shard_map().shard_of(p.request.user);
    netp::Encode(resp, &scratch_);
    QueueFrame(*c, netp::MsgType::kOpResp, p.seq, scratch_);
    ++ledger_.acks_sent;
  }
  pending_.clear();
  first_pending_ns_ = 0;

  for (auto& c : conns_) FlushSend(*c);
}

void Server::Loop() {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];

  while (!stop_requested_.load(std::memory_order_acquire)) {
    int timeout_ms = -1;
    if (!pending_.empty()) {
      // Validate bounds the linger, so the deadline cannot wrap; a wait
      // past INT_MAX ms (about 24 days) is clamped and simply re-armed.
      const std::uint64_t now = NowNs();
      const std::uint64_t deadline =
          first_pending_ns_ + config_.flush_interval_us * 1000;
      timeout_ms = now >= deadline
                       ? 0
                       : static_cast<int>(std::min<std::uint64_t>(
                             (deadline - now) / 1'000'000 + 1,
                             std::numeric_limits<int>::max()));
    }
    const int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll fd gone — only possible at teardown
    }
    for (int i = 0; i < n; ++i) {
      const std::uint64_t tag = events[i].data.u64;
      if (tag == 0) {
        AcceptAll();
        continue;
      }
      if (tag == ~std::uint64_t{0}) {
        std::uint64_t drained = 0;
        [[maybe_unused]] ssize_t r =
            ::read(wake_fd_, &drained, sizeof(drained));
        continue;
      }
      Connection* c = FindConnection(tag);
      if (c == nullptr) continue;  // closed earlier this wake
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
        CloseConnection(tag);
        continue;
      }
      if ((events[i].events & EPOLLOUT) != 0) HandleWritable(*c);
      // Re-find: HandleWritable cannot close, but keep the pattern robust.
      c = FindConnection(tag);
      if (c == nullptr) continue;
      if ((events[i].events & (EPOLLIN | EPOLLRDHUP)) != 0) {
        HandleReadable(*c);
      }
    }

    // Execute when the batch or the linger deadline trips — at once under
    // the default linger of 0. Both checks sit after event processing, so
    // a batch holds everything this wake drained from the ready sockets.
    if (pending_.size() >= config_.flush_batch ||
        (!pending_.empty() &&
         NowNs() >= first_pending_ns_ + config_.flush_interval_us * 1000)) {
      ExecutePending();
    }
    PublishStats();
  }

  // Drain: execute what was admitted, ship what the sockets will take,
  // close everything. No admitted op is dropped un-executed.
  ExecutePending();
  for (auto& c : conns_) FlushSend(*c);
  while (!conns_.empty()) CloseConnection(conns_.front()->id);
  PublishStats();
}

}  // namespace dynasore::net
