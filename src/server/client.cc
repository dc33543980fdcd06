#include "server/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace dynasore::net {

namespace {

[[noreturn]] void ThrowErrno(const char* what) {
  throw std::runtime_error(std::string("net::Client: ") + what + ": " +
                           std::strerror(errno));
}

}  // namespace

Client::~Client() { Close(); }

void Client::Connect(const std::string& host, std::uint16_t port) {
  if (fd_ >= 0) throw std::logic_error("net::Client::Connect: already connected");
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) ThrowErrno("socket");
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    Close();
    throw std::runtime_error("net::Client: bad host address: " + host);
  }
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const int err = errno;
    Close();
    errno = err;
    ThrowErrno("connect");
  }
}

void Client::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  tx_.clear();
  rx_.clear();
  rx_off_ = 0;
}

std::uint32_t Client::SubmitOp(netp::MsgType type, SimTime time,
                               UserId user) {
  const std::uint32_t seq = next_seq_++;
  netp::OpPayload p;
  p.time = time;
  p.user = user;
  scratch_.clear();
  netp::Encode(p, &scratch_);
  netp::EncodeFrame(type, seq, scratch_, &tx_);
  if (tx_.size() >= kAutoShipBytes) Ship();
  return seq;
}

std::uint32_t Client::SubmitRead(SimTime time, UserId user) {
  return SubmitOp(netp::MsgType::kReadReq, time, user);
}

std::uint32_t Client::SubmitWrite(SimTime time, UserId user) {
  return SubmitOp(netp::MsgType::kWriteReq, time, user);
}

void Client::Ship() {
  std::size_t off = 0;
  while (off < tx_.size()) {
    const ssize_t n =
        ::send(fd_, tx_.data() + off, tx_.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    ThrowErrno("send");
  }
  tx_.clear();
}

netp::Frame Client::ReadFrame() {
  while (true) {
    const std::span<const std::uint8_t> window(rx_.data() + rx_off_,
                                               rx_.size() - rx_off_);
    const netp::DecodeResult r = netp::DecodeFrame(window);
    if (r.status == netp::DecodeStatus::kOk) {
      rx_off_ += r.consumed;
      if (rx_off_ == rx_.size()) {
        rx_.clear();
        rx_off_ = 0;
      }
      return r.frame;
    }
    if (r.status != netp::DecodeStatus::kNeedMore) {
      throw std::runtime_error(
          std::string("net::Client: response stream corrupt: ") +
          netp::DecodeStatusName(r.status));
    }
    char buf[64 * 1024];
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      rx_.insert(rx_.end(), buf, buf + n);
      continue;
    }
    if (n == 0) {
      throw std::runtime_error(
          "net::Client: server closed the connection mid-response");
    }
    if (errno == EINTR) continue;
    ThrowErrno("recv");
  }
}

bool Client::AbsorbOpAck(const netp::Frame& frame) {
  if (frame.header.type == netp::MsgType::kBusyResp) {
    OpAck ack;
    ack.seq = frame.header.seq;
    ack.busy = true;
    acks_.push_back(ack);
    ++acked_busy_;
    return true;
  }
  if (frame.header.type == netp::MsgType::kOpResp) {
    const auto resp = netp::DecodeOpResp(frame.payload);
    if (!resp.has_value()) {
      throw std::runtime_error("net::Client: malformed kOpResp payload");
    }
    OpAck ack;
    ack.seq = frame.header.seq;
    ack.resp = *resp;
    acks_.push_back(ack);
    ++acked_ok_;
    return true;
  }
  if (frame.header.type == netp::MsgType::kErrorResp) {
    const auto err = netp::DecodeError(frame.payload);
    if (!err.has_value() || err->code != netp::ErrorCode::kExecutionFailed) {
      return false;  // a stream-level rejection: the caller throws
    }
    OpAck ack;
    ack.seq = frame.header.seq;
    ack.failed = true;
    acks_.push_back(ack);
    ++acked_failed_;
    return true;
  }
  return false;
}

netp::Frame Client::ReadUntil(netp::MsgType type) {
  while (true) {
    netp::Frame frame = ReadFrame();
    if (frame.header.type == type) return frame;
    if (AbsorbOpAck(frame)) continue;
    if (frame.header.type == netp::MsgType::kErrorResp) {
      const auto err = netp::DecodeError(frame.payload);
      throw std::runtime_error(
          "net::Client: server rejected the stream (kErrorResp code " +
          std::to_string(err.has_value()
                             ? static_cast<unsigned>(err->code)
                             : 0u) +
          ")");
    }
    throw std::runtime_error("net::Client: unexpected response type " +
                             std::to_string(static_cast<unsigned>(
                                 frame.header.type)));
  }
}

Client::OpAck Client::WaitOpAck() {
  Ship();
  while (acks_.empty()) {
    const netp::Frame frame = ReadFrame();
    if (AbsorbOpAck(frame)) continue;
    if (frame.header.type == netp::MsgType::kErrorResp) {
      throw std::runtime_error(
          "net::Client: server rejected the stream (kErrorResp)");
    }
    throw std::runtime_error("net::Client: unexpected response type " +
                             std::to_string(static_cast<unsigned>(
                                 frame.header.type)));
  }
  const OpAck ack = acks_.front();
  acks_.pop_front();
  return ack;
}

netp::FlushRespPayload Client::Flush() {
  const std::uint32_t seq = next_seq_++;
  netp::EncodeFrame(netp::MsgType::kFlushReq, seq, {}, &tx_);
  Ship();
  const netp::Frame frame = ReadUntil(netp::MsgType::kFlushResp);
  const auto resp = netp::DecodeFlushResp(frame.payload);
  if (!resp.has_value()) {
    throw std::runtime_error("net::Client: malformed kFlushResp payload");
  }
  return *resp;
}

netp::StatsPayload Client::Stats() {
  const std::uint32_t seq = next_seq_++;
  netp::EncodeFrame(netp::MsgType::kStatsReq, seq, {}, &tx_);
  Ship();
  const netp::Frame frame = ReadUntil(netp::MsgType::kStatsResp);
  const auto resp = netp::DecodeStats(frame.payload);
  if (!resp.has_value()) {
    throw std::runtime_error("net::Client: malformed kStatsResp payload");
  }
  return *resp;
}

netp::ViewFetchRespPayload Client::FetchView(ViewId view) {
  const std::uint32_t seq = next_seq_++;
  netp::ViewFetchPayload p;
  p.view = view;
  scratch_.clear();
  netp::Encode(p, &scratch_);
  netp::EncodeFrame(netp::MsgType::kViewFetchReq, seq, scratch_, &tx_);
  Ship();
  const netp::Frame frame = ReadUntil(netp::MsgType::kViewFetchResp);
  const auto resp = netp::DecodeViewFetchResp(frame.payload);
  if (!resp.has_value()) {
    throw std::runtime_error("net::Client: malformed kViewFetchResp payload");
  }
  return *resp;
}

}  // namespace dynasore::net
