#include "netproto/wire.h"

#include <array>
#include <stdexcept>

namespace dynasore::netp {

namespace {

// Byte-at-a-time little-endian serialization. Readers take a raw pointer
// the caller has already bounds-checked; writers append to a vector.

void PutU8(std::uint8_t v, std::vector<std::uint8_t>* out) {
  out->push_back(v);
}

void PutU16(std::uint16_t v, std::vector<std::uint8_t>* out) {
  out->push_back(static_cast<std::uint8_t>(v));
  out->push_back(static_cast<std::uint8_t>(v >> 8));
}

void PutU32(std::uint32_t v, std::vector<std::uint8_t>* out) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void PutU64(std::uint64_t v, std::vector<std::uint8_t>* out) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

std::uint16_t GetU16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::uint32_t GetU32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t GetU64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

// CRC-32 lookup table (IEEE 802.3, reflected polynomial 0xEDB88320),
// generated once at static-init time.
std::array<std::uint32_t, 256> MakeCrcTable() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

const std::array<std::uint32_t, 256>& CrcTable() {
  static const std::array<std::uint32_t, 256> table = MakeCrcTable();
  return table;
}

// A fixed-size payload decoder shared by every typed payload: size check,
// then field reads at known offsets.
bool SizeIs(std::span<const std::uint8_t> payload, std::size_t n) {
  return payload.size() == n;
}

}  // namespace

bool ValidMsgType(std::uint8_t raw) {
  switch (static_cast<MsgType>(raw)) {
    case MsgType::kReadReq:
    case MsgType::kWriteReq:
    case MsgType::kFlushReq:
    case MsgType::kStatsReq:
    case MsgType::kViewFetchReq:
    case MsgType::kOpResp:
    case MsgType::kBusyResp:
    case MsgType::kFlushResp:
    case MsgType::kStatsResp:
    case MsgType::kViewFetchResp:
    case MsgType::kErrorResp:
      return true;
  }
  return false;
}

const char* DecodeStatusName(DecodeStatus s) {
  switch (s) {
    case DecodeStatus::kOk: return "ok";
    case DecodeStatus::kNeedMore: return "need-more";
    case DecodeStatus::kBadMagic: return "bad-magic";
    case DecodeStatus::kBadVersion: return "bad-version";
    case DecodeStatus::kBadType: return "bad-type";
    case DecodeStatus::kBadLength: return "bad-length";
    case DecodeStatus::kBadChecksum: return "bad-checksum";
  }
  return "unknown";
}

std::uint32_t Crc32(std::uint32_t seed, std::span<const std::uint8_t> data) {
  const auto& table = CrcTable();
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::uint8_t b : data) {
    c = table[(c ^ b) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

std::uint32_t Crc32(std::span<const std::uint8_t> data) {
  return Crc32(0, data);
}

void EncodeFrame(MsgType type, std::uint32_t seq,
                 std::span<const std::uint8_t> payload,
                 std::vector<std::uint8_t>* out) {
  if (payload.size() > kMaxPayload) {
    throw std::invalid_argument(
        "netp::EncodeFrame: payload exceeds kMaxPayload — the peer's "
        "decoder would reject the frame with kBadLength");
  }
  const std::size_t start = out->size();
  PutU16(kMagic, out);
  PutU8(kVersion, out);
  PutU8(static_cast<std::uint8_t>(type), out);
  PutU32(static_cast<std::uint32_t>(payload.size()), out);
  PutU32(seq, out);
  // Checksum over header bytes [0, 12) then the payload; the field itself
  // is written after so it is never part of its own coverage.
  std::uint32_t crc =
      Crc32(std::span<const std::uint8_t>(out->data() + start, 12));
  crc = Crc32(crc, payload);
  PutU32(crc, out);
  out->insert(out->end(), payload.begin(), payload.end());
}

DecodeResult DecodeFrame(std::span<const std::uint8_t> buf) {
  DecodeResult r;
  // Reject on the earliest byte that can no longer begin a valid frame, so
  // garbage is flagged without waiting for a full header.
  if (!buf.empty() &&
      buf[0] != static_cast<std::uint8_t>(kMagic & 0xFF)) {
    r.status = DecodeStatus::kBadMagic;
    return r;
  }
  if (buf.size() >= 2 && GetU16(buf.data()) != kMagic) {
    r.status = DecodeStatus::kBadMagic;
    return r;
  }
  if (buf.size() >= 3 && buf[2] != kVersion) {
    r.status = DecodeStatus::kBadVersion;
    return r;
  }
  if (buf.size() >= 4 && !ValidMsgType(buf[3])) {
    r.status = DecodeStatus::kBadType;
    return r;
  }
  if (buf.size() < kHeaderSize) {
    r.status = DecodeStatus::kNeedMore;
    return r;
  }
  const std::uint32_t payload_len = GetU32(buf.data() + 4);
  if (payload_len > kMaxPayload) {
    r.status = DecodeStatus::kBadLength;
    return r;
  }
  const std::size_t frame_len = kHeaderSize + payload_len;
  if (buf.size() < frame_len) {
    r.status = DecodeStatus::kNeedMore;
    return r;
  }
  const std::uint32_t stored_crc = GetU32(buf.data() + 12);
  std::uint32_t crc = Crc32(buf.first(12));
  crc = Crc32(crc, buf.subspan(kHeaderSize, payload_len));
  if (crc != stored_crc) {
    r.status = DecodeStatus::kBadChecksum;
    return r;
  }

  r.status = DecodeStatus::kOk;
  r.consumed = frame_len;
  r.frame.header.magic = kMagic;
  r.frame.header.version = kVersion;
  r.frame.header.type = static_cast<MsgType>(buf[3]);
  r.frame.header.payload_len = payload_len;
  r.frame.header.seq = GetU32(buf.data() + 8);
  r.frame.header.checksum = stored_crc;
  r.frame.payload.assign(buf.begin() + kHeaderSize,
                         buf.begin() + static_cast<std::ptrdiff_t>(frame_len));
  return r;
}

// ----- Typed payloads -----

void Encode(const OpPayload& p, std::vector<std::uint8_t>* out) {
  PutU64(p.time, out);
  PutU32(p.user, out);
}

std::optional<OpPayload> DecodeOp(std::span<const std::uint8_t> payload) {
  if (!SizeIs(payload, 12)) return std::nullopt;
  OpPayload p;
  p.time = GetU64(payload.data());
  p.user = GetU32(payload.data() + 8);
  return p;
}

void Encode(const OpRespPayload& p, std::vector<std::uint8_t>* out) {
  PutU8(static_cast<std::uint8_t>(p.op), out);
  PutU32(p.shard, out);
}

std::optional<OpRespPayload> DecodeOpResp(
    std::span<const std::uint8_t> payload) {
  if (!SizeIs(payload, 5)) return std::nullopt;
  if (payload[0] > static_cast<std::uint8_t>(OpType::kWrite)) {
    return std::nullopt;
  }
  OpRespPayload p;
  p.op = static_cast<OpType>(payload[0]);
  p.shard = GetU32(payload.data() + 1);
  return p;
}

void Encode(const FlushRespPayload& p, std::vector<std::uint8_t>* out) {
  PutU64(p.executed_total, out);
  PutU64(p.batches_run, out);
}

std::optional<FlushRespPayload> DecodeFlushResp(
    std::span<const std::uint8_t> payload) {
  if (!SizeIs(payload, 16)) return std::nullopt;
  FlushRespPayload p;
  p.executed_total = GetU64(payload.data());
  p.batches_run = GetU64(payload.data() + 8);
  return p;
}

void Encode(const StatsPayload& p, std::vector<std::uint8_t>* out) {
  PutU64(p.ops_received, out);
  PutU64(p.ops_executed, out);
  PutU64(p.acks_sent, out);
  PutU64(p.busy_sent, out);
  PutU64(p.batches_run, out);
  PutU64(p.runtime_requests, out);
  PutU64(p.runtime_reads, out);
  PutU64(p.runtime_writes, out);
  PutU64(p.e2e_samples, out);
  PutU64(p.ops_failed, out);
}

std::optional<StatsPayload> DecodeStats(std::span<const std::uint8_t> payload) {
  if (!SizeIs(payload, 80)) return std::nullopt;
  StatsPayload p;
  const std::uint8_t* d = payload.data();
  p.ops_received = GetU64(d);
  p.ops_executed = GetU64(d + 8);
  p.acks_sent = GetU64(d + 16);
  p.busy_sent = GetU64(d + 24);
  p.batches_run = GetU64(d + 32);
  p.runtime_requests = GetU64(d + 40);
  p.runtime_reads = GetU64(d + 48);
  p.runtime_writes = GetU64(d + 56);
  p.e2e_samples = GetU64(d + 64);
  p.ops_failed = GetU64(d + 72);
  return p;
}

void Encode(const ViewFetchPayload& p, std::vector<std::uint8_t>* out) {
  PutU32(p.view, out);
}

std::optional<ViewFetchPayload> DecodeViewFetch(
    std::span<const std::uint8_t> payload) {
  if (!SizeIs(payload, 4)) return std::nullopt;
  ViewFetchPayload p;
  p.view = GetU32(payload.data());
  return p;
}

void Encode(const ViewFetchRespPayload& p, std::vector<std::uint8_t>* out) {
  PutU32(p.view, out);
  PutU32(p.owner_shard, out);
  PutU8(p.health, out);
  PutU32(p.num_shards, out);
}

std::optional<ViewFetchRespPayload> DecodeViewFetchResp(
    std::span<const std::uint8_t> payload) {
  if (!SizeIs(payload, 13)) return std::nullopt;
  ViewFetchRespPayload p;
  p.view = GetU32(payload.data());
  p.owner_shard = GetU32(payload.data() + 4);
  p.health = payload[8];
  p.num_shards = GetU32(payload.data() + 9);
  return p;
}

void Encode(const ErrorPayload& p, std::vector<std::uint8_t>* out) {
  PutU16(static_cast<std::uint16_t>(p.code), out);
}

std::optional<ErrorPayload> DecodeError(
    std::span<const std::uint8_t> payload) {
  if (!SizeIs(payload, 2)) return std::nullopt;
  ErrorPayload p;
  p.code = static_cast<ErrorCode>(GetU16(payload.data()));
  return p;
}

}  // namespace dynasore::netp
