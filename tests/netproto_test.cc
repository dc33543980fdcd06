// Conformance suite for the netp framed wire protocol (netproto/wire.h).
//
// Two halves: round-trip properties (every encodable frame and typed
// payload decodes back bit-identically, including incremental delivery at
// every split point) and a seeded fuzz harness (random mutations of valid
// frames — truncation, oversize lengths, bit flips, bad versions, raw
// garbage — must always come back as a typed DecodeStatus, never a crash
// or out-of-bounds read; CI runs this file under ASan and TSan).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/rng.h"
#include "netproto/wire.h"

namespace dynasore::netp {
namespace {

std::vector<std::uint8_t> EncodedOpFrame(MsgType type, std::uint32_t seq,
                                         SimTime time, UserId user) {
  OpPayload p;
  p.time = time;
  p.user = user;
  std::vector<std::uint8_t> payload;
  Encode(p, &payload);
  std::vector<std::uint8_t> out;
  EncodeFrame(type, seq, payload, &out);
  return out;
}

// ----- Frame round-trip properties -----

TEST(WireFrameTest, RoundTripEveryMessageType) {
  const MsgType kTypes[] = {
      MsgType::kReadReq,   MsgType::kWriteReq,      MsgType::kFlushReq,
      MsgType::kStatsReq,  MsgType::kViewFetchReq,  MsgType::kOpResp,
      MsgType::kBusyResp,  MsgType::kFlushResp,     MsgType::kStatsResp,
      MsgType::kViewFetchResp, MsgType::kErrorResp,
  };
  std::uint32_t seq = 7;
  for (MsgType type : kTypes) {
    const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
    std::vector<std::uint8_t> buf;
    EncodeFrame(type, seq, payload, &buf);
    ASSERT_EQ(buf.size(), kHeaderSize + payload.size());

    const DecodeResult r = DecodeFrame(buf);
    ASSERT_EQ(r.status, DecodeStatus::kOk) << DecodeStatusName(r.status);
    EXPECT_EQ(r.consumed, buf.size());
    EXPECT_EQ(r.frame.header.magic, kMagic);
    EXPECT_EQ(r.frame.header.version, kVersion);
    EXPECT_EQ(r.frame.header.type, type);
    EXPECT_EQ(r.frame.header.seq, seq);
    EXPECT_EQ(r.frame.header.payload_len, payload.size());
    EXPECT_EQ(r.frame.payload, payload);
    ++seq;
  }
}

TEST(WireFrameTest, RoundTripEmptyAndLargePayloads) {
  for (const std::size_t n : {std::size_t{0}, std::size_t{1},
                              std::size_t{255}, std::size_t{64 * 1024},
                              std::size_t{kMaxPayload}}) {
    std::vector<std::uint8_t> payload(n);
    for (std::size_t i = 0; i < n; ++i) {
      payload[i] = static_cast<std::uint8_t>(i * 31 + 7);
    }
    std::vector<std::uint8_t> buf;
    EncodeFrame(MsgType::kStatsResp, 42, payload, &buf);
    const DecodeResult r = DecodeFrame(buf);
    ASSERT_EQ(r.status, DecodeStatus::kOk) << "payload size " << n;
    EXPECT_EQ(r.frame.payload, payload);
    EXPECT_EQ(r.consumed, kHeaderSize + n);
  }
}

TEST(WireFrameTest, EncodeRejectsOversizePayload) {
  const std::vector<std::uint8_t> too_big(kMaxPayload + 1);
  std::vector<std::uint8_t> out;
  EXPECT_THROW(EncodeFrame(MsgType::kReadReq, 1, too_big, &out),
               std::invalid_argument);
}

// The decoder is incremental: every proper prefix of a valid frame must
// answer kNeedMore (never an error, never a partial frame), and the full
// buffer must then decode bit-identically.
TEST(WireFrameTest, EveryPrefixNeedsMoreThenDecodes) {
  const std::vector<std::uint8_t> buf =
      EncodedOpFrame(MsgType::kWriteReq, 99, 123456789, 4242);
  for (std::size_t n = 0; n < buf.size(); ++n) {
    const DecodeResult r =
        DecodeFrame(std::span<const std::uint8_t>(buf.data(), n));
    EXPECT_EQ(r.status, DecodeStatus::kNeedMore) << "prefix length " << n;
    EXPECT_EQ(r.consumed, 0u);
  }
  const DecodeResult full = DecodeFrame(buf);
  ASSERT_EQ(full.status, DecodeStatus::kOk);
  const auto op = DecodeOp(full.frame.payload);
  ASSERT_TRUE(op.has_value());
  EXPECT_EQ(op->time, 123456789u);
  EXPECT_EQ(op->user, 4242u);
}

// Back-to-back frames in one buffer decode one at a time via `consumed`.
TEST(WireFrameTest, ConsumesExactlyOneFrameFromAStream) {
  std::vector<std::uint8_t> stream;
  for (std::uint32_t seq = 1; seq <= 5; ++seq) {
    OpPayload p;
    p.time = seq * 10;
    p.user = seq;
    std::vector<std::uint8_t> payload;
    Encode(p, &payload);
    EncodeFrame(MsgType::kReadReq, seq, payload, &stream);
  }
  std::size_t off = 0;
  for (std::uint32_t seq = 1; seq <= 5; ++seq) {
    const DecodeResult r = DecodeFrame(
        std::span<const std::uint8_t>(stream.data() + off,
                                      stream.size() - off));
    ASSERT_EQ(r.status, DecodeStatus::kOk);
    EXPECT_EQ(r.frame.header.seq, seq);
    off += r.consumed;
  }
  EXPECT_EQ(off, stream.size());
}

// ----- Typed rejection paths -----

TEST(WireFrameTest, RejectsBadMagicOnFirstByte) {
  std::vector<std::uint8_t> buf =
      EncodedOpFrame(MsgType::kReadReq, 1, 0, 0);
  buf[0] ^= 0xFF;
  // A single wrong first byte is enough — no need to wait for a header.
  const DecodeResult r =
      DecodeFrame(std::span<const std::uint8_t>(buf.data(), 1));
  EXPECT_EQ(r.status, DecodeStatus::kBadMagic);
  EXPECT_EQ(DecodeFrame(buf).status, DecodeStatus::kBadMagic);
}

TEST(WireFrameTest, RejectsBadVersion) {
  std::vector<std::uint8_t> buf =
      EncodedOpFrame(MsgType::kReadReq, 1, 0, 0);
  buf[2] = kVersion + 1;
  EXPECT_EQ(DecodeFrame(buf).status, DecodeStatus::kBadVersion);
  // Rejected as soon as the version byte is visible.
  const DecodeResult early =
      DecodeFrame(std::span<const std::uint8_t>(buf.data(), 3));
  EXPECT_EQ(early.status, DecodeStatus::kBadVersion);
}

TEST(WireFrameTest, RejectsUnknownType) {
  std::vector<std::uint8_t> buf =
      EncodedOpFrame(MsgType::kReadReq, 1, 0, 0);
  buf[3] = 0xEE;  // names no MsgType
  EXPECT_EQ(DecodeFrame(buf).status, DecodeStatus::kBadType);
}

TEST(WireFrameTest, RejectsOversizeLengthWithoutBuffering) {
  std::vector<std::uint8_t> buf =
      EncodedOpFrame(MsgType::kReadReq, 1, 0, 0);
  // Announce kMaxPayload + 1: rejected from the header alone — the decoder
  // must not wait for (or try to buffer) a gigabyte that never comes.
  const std::uint32_t huge = kMaxPayload + 1;
  for (int i = 0; i < 4; ++i) {
    buf[4 + i] = static_cast<std::uint8_t>(huge >> (8 * i));
  }
  const DecodeResult r =
      DecodeFrame(std::span<const std::uint8_t>(buf.data(), kHeaderSize));
  EXPECT_EQ(r.status, DecodeStatus::kBadLength);
}

TEST(WireFrameTest, RejectsEveryCoveredBitFlip) {
  const std::vector<std::uint8_t> clean =
      EncodedOpFrame(MsgType::kWriteReq, 77, 555, 666);
  // Flip every bit of the frame one at a time: CRC-32 catches all
  // single-bit errors, and flips in magic/version/type/length hit their
  // typed checks first. No flipped frame may decode kOk.
  for (std::size_t bit = 0; bit < clean.size() * 8; ++bit) {
    std::vector<std::uint8_t> buf = clean;
    buf[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    const DecodeResult r = DecodeFrame(buf);
    // A flip that grows payload_len (still <= kMaxPayload) makes the
    // prefix look incomplete — kNeedMore is the correct verdict there; the
    // connection then starves and times out rather than mis-executing.
    EXPECT_NE(r.status, DecodeStatus::kOk) << "bit " << bit;
  }
}

TEST(WireFrameTest, RejectsChecksumMismatchOverPayload) {
  std::vector<std::uint8_t> buf =
      EncodedOpFrame(MsgType::kReadReq, 3, 1000, 2000);
  buf.back() ^= 0x01;  // corrupt the last payload byte
  EXPECT_EQ(DecodeFrame(buf).status, DecodeStatus::kBadChecksum);
}

// ----- CRC-32 reference vectors -----

TEST(WireCrcTest, MatchesKnownVectors) {
  // IEEE 802.3 CRC-32 of "123456789" is the classic check value.
  const std::uint8_t digits[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(Crc32(digits), 0xCBF43926u);
  EXPECT_EQ(Crc32(std::span<const std::uint8_t>{}), 0x00000000u);
}

TEST(WireCrcTest, ContinuationEqualsOneShot) {
  std::vector<std::uint8_t> data(300);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 17 + 3);
  }
  for (std::size_t split : {std::size_t{0}, std::size_t{1}, std::size_t{150},
                            data.size()}) {
    const std::span<const std::uint8_t> all(data);
    std::uint32_t crc = Crc32(all.first(split));
    crc = Crc32(crc, all.subspan(split));
    EXPECT_EQ(crc, Crc32(all)) << "split at " << split;
  }
}

// ----- Typed payload round-trips -----

TEST(WirePayloadTest, OpRoundTrip) {
  OpPayload p;
  p.time = std::numeric_limits<std::uint64_t>::max() - 5;
  p.user = std::numeric_limits<std::uint32_t>::max() - 9;
  std::vector<std::uint8_t> buf;
  Encode(p, &buf);
  const auto d = DecodeOp(buf);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->time, p.time);
  EXPECT_EQ(d->user, p.user);
  buf.push_back(0);  // wrong size for the type
  EXPECT_FALSE(DecodeOp(buf).has_value());
  EXPECT_FALSE(DecodeOp(std::span<const std::uint8_t>{}).has_value());
}

TEST(WirePayloadTest, OpRespRoundTripAndBadOpByte) {
  OpRespPayload p;
  p.op = OpType::kWrite;
  p.shard = 31;
  std::vector<std::uint8_t> buf;
  Encode(p, &buf);
  const auto d = DecodeOpResp(buf);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->op, OpType::kWrite);
  EXPECT_EQ(d->shard, 31u);
  buf[0] = 200;  // names no OpType
  EXPECT_FALSE(DecodeOpResp(buf).has_value());
}

TEST(WirePayloadTest, FlushStatsViewErrorRoundTrips) {
  FlushRespPayload f;
  f.executed_total = 123456;
  f.batches_run = 78;
  std::vector<std::uint8_t> buf;
  Encode(f, &buf);
  const auto fd = DecodeFlushResp(buf);
  ASSERT_TRUE(fd.has_value());
  EXPECT_EQ(fd->executed_total, 123456u);
  EXPECT_EQ(fd->batches_run, 78u);

  StatsPayload s;
  s.ops_received = 1;
  s.ops_executed = 2;
  s.acks_sent = 3;
  s.busy_sent = 4;
  s.batches_run = 5;
  s.runtime_requests = 6;
  s.runtime_reads = 7;
  s.runtime_writes = 8;
  s.e2e_samples = 9;
  s.ops_failed = 10;
  buf.clear();
  Encode(s, &buf);
  ASSERT_EQ(buf.size(), 80u);
  const auto sd = DecodeStats(buf);
  ASSERT_TRUE(sd.has_value());
  EXPECT_EQ(sd->ops_received, 1u);
  EXPECT_EQ(sd->busy_sent, 4u);
  EXPECT_EQ(sd->e2e_samples, 9u);
  EXPECT_EQ(sd->ops_failed, 10u);

  ViewFetchPayload v;
  v.view = 9001;
  buf.clear();
  Encode(v, &buf);
  const auto vd = DecodeViewFetch(buf);
  ASSERT_TRUE(vd.has_value());
  EXPECT_EQ(vd->view, 9001u);

  ViewFetchRespPayload vr;
  vr.view = 9001;
  vr.owner_shard = 3;
  vr.health = 2;
  vr.num_shards = 8;
  buf.clear();
  Encode(vr, &buf);
  const auto vrd = DecodeViewFetchResp(buf);
  ASSERT_TRUE(vrd.has_value());
  EXPECT_EQ(vrd->owner_shard, 3u);
  EXPECT_EQ(vrd->health, 2u);
  EXPECT_EQ(vrd->num_shards, 8u);

  ErrorPayload e;
  e.code = ErrorCode::kShuttingDown;
  buf.clear();
  Encode(e, &buf);
  const auto ed = DecodeError(buf);
  ASSERT_TRUE(ed.has_value());
  EXPECT_EQ(ed->code, ErrorCode::kShuttingDown);

  e.code = ErrorCode::kExecutionFailed;
  buf.clear();
  Encode(e, &buf);
  const auto ef = DecodeError(buf);
  ASSERT_TRUE(ef.has_value());
  EXPECT_EQ(ef->code, ErrorCode::kExecutionFailed);
}

// ----- Seeded fuzz harness -----
//
// The decoder's whole contract under hostile input: any byte window yields
// a typed DecodeStatus without UB (ASan/TSan enforce the "without UB" half
// in CI), kOk never consumes more than the window, and a kOk frame always
// re-encodes to the exact bytes consumed.

constexpr std::uint64_t kFuzzSeed = 0xD15C0BA1;
constexpr int kFuzzIters = 20000;

// One decode that must never misbehave, whatever `buf` holds.
void CheckDecodeTotal(std::span<const std::uint8_t> buf) {
  const DecodeResult r = DecodeFrame(buf);
  ASSERT_LE(r.consumed, buf.size());
  if (r.status == DecodeStatus::kOk) {
    ASSERT_EQ(r.consumed, kHeaderSize + r.frame.payload.size());
    ASSERT_LE(r.frame.header.payload_len, kMaxPayload);
    // Re-encode: a decoded frame is bit-identical to what was consumed.
    std::vector<std::uint8_t> re;
    EncodeFrame(r.frame.header.type, r.frame.header.seq, r.frame.payload,
                &re);
    ASSERT_EQ(re.size(), r.consumed);
    ASSERT_TRUE(std::equal(re.begin(), re.end(), buf.begin()));
  } else {
    ASSERT_EQ(r.consumed, 0u);
  }
}

TEST(WireFuzzTest, MutatedValidFramesNeverCrash) {
  common::Rng rng(kFuzzSeed);
  for (int iter = 0; iter < kFuzzIters; ++iter) {
    // Start from a valid frame with a random type/seq/payload.
    const std::size_t payload_len =
        static_cast<std::size_t>(rng.NextBounded(65));
    std::vector<std::uint8_t> payload(payload_len);
    for (auto& b : payload) {
      b = static_cast<std::uint8_t>(rng.NextBounded(256));
    }
    const auto raw_type =
        static_cast<std::uint8_t>(1 + rng.NextBounded(21));
    if (!ValidMsgType(raw_type)) continue;
    std::vector<std::uint8_t> buf;
    EncodeFrame(static_cast<MsgType>(raw_type),
                static_cast<std::uint32_t>(rng.NextU64()), payload, &buf);

    // Mutate: truncate, extend with garbage, flip 1-8 random bits, or
    // overwrite the length field.
    switch (rng.NextBounded(4)) {
      case 0:  // truncate
        buf.resize(static_cast<std::size_t>(rng.NextBounded(buf.size() + 1)));
        break;
      case 1:  // append garbage (decoder must still find the first frame)
        for (std::uint64_t i = 1 + rng.NextBounded(32); i > 0; --i) {
          buf.push_back(static_cast<std::uint8_t>(rng.NextBounded(256)));
        }
        break;
      case 2: {  // bit flips
        for (std::uint64_t i = 1 + rng.NextBounded(8); i > 0; --i) {
          const std::size_t bit =
              static_cast<std::size_t>(rng.NextBounded(buf.size() * 8));
          buf[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        }
        break;
      }
      case 3: {  // overwrite the length field with anything
        const auto len = static_cast<std::uint32_t>(rng.NextU64());
        for (int i = 0; i < 4; ++i) {
          buf[4 + i] = static_cast<std::uint8_t>(len >> (8 * i));
        }
        break;
      }
    }
    CheckDecodeTotal(buf);
  }
}

TEST(WireFuzzTest, PureGarbageNeverCrashes) {
  common::Rng rng(kFuzzSeed ^ 0xFFFF);
  for (int iter = 0; iter < kFuzzIters; ++iter) {
    std::vector<std::uint8_t> buf(
        static_cast<std::size_t>(rng.NextBounded(129)));
    for (auto& b : buf) {
      b = static_cast<std::uint8_t>(rng.NextBounded(256));
    }
    CheckDecodeTotal(buf);
  }
}

// Typed payload decoders over random bytes of random sizes: must answer
// nullopt or a valid value, never read out of bounds.
TEST(WireFuzzTest, TypedPayloadDecodersNeverCrash) {
  common::Rng rng(kFuzzSeed ^ 0xABCD);
  for (int iter = 0; iter < kFuzzIters; ++iter) {
    std::vector<std::uint8_t> buf(
        static_cast<std::size_t>(rng.NextBounded(81)));
    for (auto& b : buf) {
      b = static_cast<std::uint8_t>(rng.NextBounded(256));
    }
    (void)DecodeOp(buf);
    (void)DecodeOpResp(buf);
    (void)DecodeFlushResp(buf);
    (void)DecodeStats(buf);
    (void)DecodeViewFetch(buf);
    (void)DecodeViewFetchResp(buf);
    (void)DecodeError(buf);
  }
}

}  // namespace
}  // namespace dynasore::netp
