// net::Client — a small blocking client for the network serving tier.
//
// One Client owns one TCP connection to a net::Server and speaks the netp
// frame protocol (netproto/wire.h). The API is pipelined: Submit* append
// an op frame to an outbound buffer and return the frame's seq id, Ship()
// writes the buffer to the socket (Submit* auto-ships past
// kAutoShipBytes), and WaitOpAck() blocks for the next op outcome — kOk
// for an executed op, busy for one the server's admission control
// rejected (resubmit after a drain), failed for one whose batch the
// runtime could not execute (a kErrorResp with kExecutionFailed; the
// connection stays usable). Because busy responses are immediate
// while executed-op acks ride the server's next micro-batch flush, acks
// can arrive out of submission order; every ack carries the op's seq so
// callers correlate (the loopback bench keeps a seq -> send-time map for
// latency).
//
// Flush()/Stats()/FetchView() are blocking RPCs: they ship, send the
// request, and read frames until the matching response arrives, queueing
// any op acks encountered along the way for later WaitOpAck() calls.
//
// Not thread-safe: one thread per Client (the loopback bench gives each
// connection its own thread). Errors — connect/IO failure, a decode
// error, or the server closing the connection (including any kErrorResp
// other than kExecutionFailed) — throw std::runtime_error; the protocol
// has no mid-stream resync.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/types.h"
#include "netproto/wire.h"

namespace dynasore::net {

class Client {
 public:
  // Outbound bytes buffered before Submit* ships automatically.
  static constexpr std::size_t kAutoShipBytes = 64 * 1024;

  Client() = default;
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // Connects (blocking). Throws std::runtime_error on failure.
  void Connect(const std::string& host, std::uint16_t port);
  void Close();
  bool connected() const { return fd_ >= 0; }

  // Pipelined op submission; returns the seq echoed by the ack.
  std::uint32_t SubmitRead(SimTime time, UserId user);
  std::uint32_t SubmitWrite(SimTime time, UserId user);
  // Writes all buffered frames to the socket (blocking until accepted).
  void Ship();

  // One op's outcome.
  struct OpAck {
    std::uint32_t seq = 0;
    bool busy = false;             // admission control rejected; resubmit
    bool failed = false;           // the runtime threw running its batch
    netp::OpRespPayload resp;      // valid when !busy && !failed
  };
  // Blocks for the next op ack (ships buffered frames first).
  OpAck WaitOpAck();
  // Acks received but not yet consumed by WaitOpAck.
  std::size_t buffered_acks() const { return acks_.size(); }

  // Blocking RPCs (each ships buffered frames first).
  netp::FlushRespPayload Flush();
  netp::StatsPayload Stats();
  netp::ViewFetchRespPayload FetchView(ViewId view);

  // Client-side conservation ledger: ops acked ok / rejected busy /
  // failed in execution.
  std::uint64_t acked_ok() const { return acked_ok_; }
  std::uint64_t acked_busy() const { return acked_busy_; }
  std::uint64_t acked_failed() const { return acked_failed_; }

 private:
  std::uint32_t SubmitOp(netp::MsgType type, SimTime time, UserId user);
  // Reads until one complete frame decodes; throws on EOF/IO/decode error.
  netp::Frame ReadFrame();
  // Reads frames until one of `type` arrives, queueing op acks seen on the
  // way. Throws on a connection-closing kErrorResp or an unexpected
  // response type.
  netp::Frame ReadUntil(netp::MsgType type);
  // Queues an op ack if `frame` is one (kOpResp, kBusyResp, or a
  // kExecutionFailed kErrorResp); returns whether it was.
  bool AbsorbOpAck(const netp::Frame& frame);

  int fd_ = -1;
  std::uint32_t next_seq_ = 1;
  std::vector<std::uint8_t> tx_;
  std::vector<std::uint8_t> rx_;
  std::size_t rx_off_ = 0;
  std::deque<OpAck> acks_;
  std::uint64_t acked_ok_ = 0;
  std::uint64_t acked_busy_ = 0;
  std::uint64_t acked_failed_ = 0;
  std::vector<std::uint8_t> scratch_;
};

}  // namespace dynasore::net
