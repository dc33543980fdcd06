// Framed binary wire protocol for the network serving tier.
//
// Every message on a connection is one length-prefixed frame:
//
//   offset  size  field
//   0       2     magic 0x5344 ("DS", little-endian u16)
//   2       1     version (kVersion)
//   3       1     type (MsgType)
//   4       4     payload_len (bytes following the header, u32 LE,
//                 <= kMaxPayload)
//   8       4     seq (sender-chosen request id, echoed verbatim in the
//                 response)
//   12      4     checksum: CRC-32 over header bytes [0, 12) + payload
//   16      payload_len  payload (per-type layout below)
//
// All integers are little-endian, serialized byte by byte — no struct
// punning, so the codec is alignment- and UB-safe on any input. The
// checksum covers the header's first 12 bytes and the whole payload, so
// any single-bit flip anywhere in a frame is rejected (CRC-32 detects all
// single-bit and burst-<=32 errors); flips that corrupt magic, version,
// type, or the length bound are caught by their own typed checks first.
//
// The decoder is incremental: DecodeFrame inspects a byte window and
// either yields one complete frame (kOk, `consumed` bytes), asks for more
// input (kNeedMore, nothing consumed — the prefix seen so far is still a
// plausible frame), or rejects with a typed error (never UB, never a
// crash; the conformance suite in tests/netproto_test.cc fuzzes exactly
// this contract). A rejected connection cannot resync mid-stream — the
// server drops it — so errors consume nothing.
//
// Payload layouts (request -> response):
//   kReadReq / kWriteReq  {u64 time, u32 user}        -> kOpResp / kBusyResp
//   kFlushReq             (empty)                     -> kFlushResp
//   kStatsReq             (empty)                     -> kStatsResp
//   kViewFetchReq         {u32 view}                  -> kViewFetchResp
//   kOpResp               {u8 op, u32 shard}
//   kBusyResp             (empty) — admission control rejected the op;
//                         resubmit after a drain (docs/server.md)
//   kFlushResp            {u64 executed_total, u64 batches_run}
//   kStatsResp            StatsPayload (below)
//   kViewFetchResp        {u32 view, u32 owner_shard, u8 health,
//                          u32 num_shards}
//   kErrorResp            {u16 code} — protocol violation; the server
//                         closes the connection after sending it. The one
//                         exception is kExecutionFailed: a per-op answer
//                         (seq = the op's) to an op whose batch failed in
//                         the runtime; the connection stays open
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/types.h"

namespace dynasore::netp {

inline constexpr std::uint16_t kMagic = 0x5344;  // "DS"
inline constexpr std::uint8_t kVersion = 1;
inline constexpr std::size_t kHeaderSize = 16;
// Bounded frame size: a header announcing more payload than this is
// rejected up front (kBadLength), so a corrupt or hostile length field can
// never make the receiver buffer gigabytes.
inline constexpr std::uint32_t kMaxPayload = 1u << 20;

enum class MsgType : std::uint8_t {
  // Requests (client -> server).
  kReadReq = 1,
  kWriteReq = 2,
  kFlushReq = 3,
  kStatsReq = 4,
  kViewFetchReq = 5,
  // Responses (server -> client).
  kOpResp = 16,
  kBusyResp = 17,
  kFlushResp = 18,
  kStatsResp = 19,
  kViewFetchResp = 20,
  kErrorResp = 21,
};

// True for the values actually assigned above — the decoder's type check.
bool ValidMsgType(std::uint8_t raw);

enum class DecodeStatus : std::uint8_t {
  kOk,           // one frame decoded; `consumed` bytes eaten
  kNeedMore,     // prefix is plausible but incomplete; feed more bytes
  kBadMagic,     // first two bytes are not "DS"
  kBadVersion,   // version byte != kVersion
  kBadType,      // type byte names no MsgType
  kBadLength,    // payload_len > kMaxPayload
  kBadChecksum,  // CRC mismatch over header[0,12) + payload
};

const char* DecodeStatusName(DecodeStatus s);

struct FrameHeader {
  std::uint16_t magic = kMagic;
  std::uint8_t version = kVersion;
  MsgType type = MsgType::kReadReq;
  std::uint32_t payload_len = 0;
  std::uint32_t seq = 0;
  std::uint32_t checksum = 0;
};

struct Frame {
  FrameHeader header;
  std::vector<std::uint8_t> payload;
};

struct DecodeResult {
  DecodeStatus status = DecodeStatus::kNeedMore;
  std::size_t consumed = 0;  // bytes eaten; non-zero only on kOk
  Frame frame;               // valid only on kOk
};

// CRC-32 (IEEE 802.3 polynomial, reflected), table-driven.
std::uint32_t Crc32(std::span<const std::uint8_t> data);
// Continuation form for split header/payload coverage.
std::uint32_t Crc32(std::uint32_t seed, std::span<const std::uint8_t> data);

// Appends one complete frame (header + payload, checksum filled in) to
// `out`. Throws std::invalid_argument if payload exceeds kMaxPayload —
// encoding an undecodable frame is a caller bug, not a wire condition.
void EncodeFrame(MsgType type, std::uint32_t seq,
                 std::span<const std::uint8_t> payload,
                 std::vector<std::uint8_t>* out);

// Attempts to decode one frame from the front of `buf`. See DecodeStatus.
DecodeResult DecodeFrame(std::span<const std::uint8_t> buf);

// ----- Typed payloads -----
//
// Each payload struct encodes to the exact byte layout documented in the
// header comment and decodes only from a payload of exactly that size
// (std::nullopt otherwise — a frame can checksum clean yet still carry a
// payload of the wrong shape for its type; the server answers kErrorResp).

// kReadReq / kWriteReq. The op kind is carried by the frame type.
struct OpPayload {
  SimTime time = 0;  // u64: simulated seconds, the request-log clock
  UserId user = 0;   // u32: issuing user
};

// kOpResp: the op was accepted and executed.
struct OpRespPayload {
  OpType op = OpType::kRead;   // u8: echoes the executed kind
  std::uint32_t shard = 0;     // shard that owned the request
};

// kFlushResp: everything received before the flush has executed.
struct FlushRespPayload {
  std::uint64_t executed_total = 0;  // runtime lifetime requests executed
  std::uint64_t batches_run = 0;     // micro-batch Run() calls so far
};

// kStatsResp: the server-side conservation ledger (docs/server.md).
struct StatsPayload {
  std::uint64_t ops_received = 0;    // op frames decoded
  std::uint64_t ops_executed = 0;    // ops run through the runtime
  std::uint64_t acks_sent = 0;       // kOpResp frames queued
  std::uint64_t busy_sent = 0;       // kBusyResp frames queued
  std::uint64_t batches_run = 0;     // micro-batch Run() calls
  std::uint64_t runtime_requests = 0;  // RuntimeResult totals.requests
  std::uint64_t runtime_reads = 0;
  std::uint64_t runtime_writes = 0;
  std::uint64_t e2e_samples = 0;     // RuntimeResult e2e_latency count
  std::uint64_t ops_failed = 0;      // ops answered kExecutionFailed
};

// kViewFetchReq.
struct ViewFetchPayload {
  ViewId view = 0;  // u32
};

// kViewFetchResp: routing metadata for one view.
struct ViewFetchRespPayload {
  ViewId view = 0;
  std::uint32_t owner_shard = 0;
  std::uint8_t health = 0;  // rt::ShardHealth of the owner
  std::uint32_t num_shards = 0;
};

// kErrorResp.
enum class ErrorCode : std::uint16_t {
  kBadPayload = 1,   // frame ok, payload malformed for its type
  kBadRequest = 2,   // response type sent as a request, or vice versa
  kShuttingDown = 3, // server is draining; no new ops
  kExecutionFailed = 4,  // per-op: the runtime threw running its batch
};

struct ErrorPayload {
  ErrorCode code = ErrorCode::kBadPayload;
};

void Encode(const OpPayload& p, std::vector<std::uint8_t>* out);
void Encode(const OpRespPayload& p, std::vector<std::uint8_t>* out);
void Encode(const FlushRespPayload& p, std::vector<std::uint8_t>* out);
void Encode(const StatsPayload& p, std::vector<std::uint8_t>* out);
void Encode(const ViewFetchPayload& p, std::vector<std::uint8_t>* out);
void Encode(const ViewFetchRespPayload& p, std::vector<std::uint8_t>* out);
void Encode(const ErrorPayload& p, std::vector<std::uint8_t>* out);

std::optional<OpPayload> DecodeOp(std::span<const std::uint8_t> payload);
std::optional<OpRespPayload> DecodeOpResp(
    std::span<const std::uint8_t> payload);
std::optional<FlushRespPayload> DecodeFlushResp(
    std::span<const std::uint8_t> payload);
std::optional<StatsPayload> DecodeStats(std::span<const std::uint8_t> payload);
std::optional<ViewFetchPayload> DecodeViewFetch(
    std::span<const std::uint8_t> payload);
std::optional<ViewFetchRespPayload> DecodeViewFetchResp(
    std::span<const std::uint8_t> payload);
std::optional<ErrorPayload> DecodeError(std::span<const std::uint8_t> payload);

}  // namespace dynasore::netp
