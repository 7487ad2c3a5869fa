// Wire protocol tests: golden byte layout (pinned against an independent
// CRC32C implementation, which also cross-checks the slice-by-8 loop),
// encode/decode round trips for every frame type across all six labeling
// schemes, and total-decode guarantees — every malformed input comes back
// as Status::Corruption, never as a frame and never as undefined
// behavior.

#include "replica/wire_format.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "store/document_store.h"
#include "store/mirror_store.h"
#include "store/state_vector.h"

namespace ltree {
namespace replica {
namespace {

constexpr const char* kSpecs[] = {"ltree:16:4", "ltree:16:4:purge",
                                  "virtual:16:4", "gap:64", "sequential",
                                  "bender"};

// ---------------------------------------------------------------------------
// Golden bytes: the layout is pinned. If one of these fails, the wire
// format changed — that requires a version bump, not a re-golden.
// ---------------------------------------------------------------------------

TEST(WireFormatGoldenTest, CatchUpRequestLayout) {
  const std::vector<uint8_t> bytes = EncodeFrame(MakeCatchUpRequestFrame(
      3, 0x1122334455667788ull, /*nonce=*/0x0F0E0D0C0B0A0908ull));
  // magic 'L' 'R', version 1, type 1, payload_len 20 LE, shard u32 LE,
  // nonce u64 LE, from_seq u64 LE, CRC32C LE (computed independently with
  // a bitwise Python implementation validated against the standard
  // "123456789" -> 0xE3069283 vector).
  const std::vector<uint8_t> expected = {
      0x4C, 0x52, 0x01, 0x01,              // magic, version, type
      0x14, 0x00, 0x00, 0x00,              // payload length = 20
      0x03, 0x00, 0x00, 0x00,              // shard = 3
      0x08, 0x09, 0x0A, 0x0B,              // nonce low half
      0x0C, 0x0D, 0x0E, 0x0F,              // nonce high half
      0x88, 0x77, 0x66, 0x55,              // from_seq low half
      0x44, 0x33, 0x22, 0x11,              // from_seq high half
      0x4C, 0x91, 0xAB, 0x58,              // CRC32C(frame[0..28))
  };
  EXPECT_EQ(bytes, expected);
}

TEST(WireFormatGoldenTest, AckLayout) {
  const std::vector<uint8_t> expected = {
      0x4C, 0x52, 0x01, 0x06,              // magic, version, type = ack
      0x00, 0x00, 0x00, 0x00,              // empty payload
      0xB2, 0x51, 0xB3, 0xBC,              // CRC32C(frame[0..8))
  };
  EXPECT_EQ(EncodeFrame(MakeAckFrame()), expected);
}

TEST(WireFormatGoldenTest, HeadsRequestLayout) {
  const std::vector<uint8_t> expected = {
      0x4C, 0x52, 0x01, 0x07,              // magic, version, type = 7
      0x08, 0x00, 0x00, 0x00,              // payload length = 8
      0x08, 0x09, 0x0A, 0x0B,              // nonce low half
      0x0C, 0x0D, 0x0E, 0x0F,              // nonce high half
      0x29, 0x40, 0x95, 0x57,              // CRC32C(frame[0..16))
  };
  EXPECT_EQ(EncodeFrame(MakeHeadsRequestFrame(0x0F0E0D0C0B0A0908ull)),
            expected);
}

TEST(WireFormatGoldenTest, HeadsLayout) {
  store::StateVector heads(2);
  heads.Set(0, 3);
  heads.Set(1, 0x0102030405060708ull);
  const std::vector<uint8_t> expected = {
      0x4C, 0x52, 0x01, 0x08,              // magic, version, type = 8
      0x1C, 0x00, 0x00, 0x00,              // payload length = 28
      0x88, 0x77, 0x66, 0x55,              // nonce low half
      0x44, 0x33, 0x22, 0x11,              // nonce high half
      0x02, 0x00, 0x00, 0x00,              // head count = 2
      0x03, 0x00, 0x00, 0x00,              // shard 0 head low half
      0x00, 0x00, 0x00, 0x00,              // shard 0 head high half
      0x08, 0x07, 0x06, 0x05,              // shard 1 head low half
      0x04, 0x03, 0x02, 0x01,              // shard 1 head high half
      0x6B, 0x3D, 0x6B, 0x03,              // CRC32C(frame[0..36))
  };
  EXPECT_EQ(EncodeFrame(MakeHeadsFrame(heads, 0x1122334455667788ull)),
            expected);
}

TEST(WireFormatGoldenTest, Crc32cStandardVector) {
  const char* check = "123456789";
  EXPECT_EQ(Crc32c(reinterpret_cast<const uint8_t*>(check), 9), 0xE3069283u);
}

// The slice-by-8 loop folds eight bytes per step and finishes with a
// byte-at-a-time tail; every length 0..256 at every start offset 0..7
// crosses both against the plain bitwise definition.
TEST(WireFormatGoldenTest, Crc32cMatchesBitwiseReference) {
  auto bitwise = [](const uint8_t* data, size_t size) {
    uint32_t crc = 0xFFFFFFFFu;
    for (size_t i = 0; i < size; ++i) {
      crc ^= data[i];
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1) ? 0x82F63B78u : 0u);
      }
    }
    return crc ^ 0xFFFFFFFFu;
  };
  Rng rng(99);
  std::vector<uint8_t> buffer(8 + 256);
  for (uint8_t& b : buffer) b = static_cast<uint8_t>(rng.Next64());
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t size = 0; size <= 256; ++size) {
      ASSERT_EQ(Crc32c(buffer.data() + offset, size),
                bitwise(buffer.data() + offset, size))
          << "offset " << offset << ", size " << size;
    }
  }
}

// ---------------------------------------------------------------------------
// Round trips
// ---------------------------------------------------------------------------

TEST(WireFormatRoundTripTest, CatchUpRequest) {
  const Frame in = MakeCatchUpRequestFrame(7, 42, /*nonce=*/0xDEADBEEF);
  const Result<Frame> out = DecodeFrame(EncodeFrame(in));
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->type, FrameType::kCatchUpRequest);
  EXPECT_EQ(out->shard, 7u);
  EXPECT_EQ(out->from_seq, 42u);
  EXPECT_EQ(out->nonce, 0xDEADBEEFu);
}

TEST(WireFormatRoundTripTest, DeltaWithEvents) {
  Frame in;
  in.type = FrameType::kDelta;
  in.shard = 2;
  in.nonce = 777;
  in.from_seq = 10;
  in.to_seq = 13;
  for (uint64_t seq = 11; seq <= 13; ++seq) {
    store::FeedEvent event;
    event.seq = seq;
    event.kind = static_cast<store::FeedEvent::Kind>(seq % 3);
    event.cookie = seq * 1000;
    event.old_label = seq * 7;
    event.new_label = seq * 9;
    in.events.push_back(event);
  }
  const Result<Frame> out = DecodeFrame(EncodeFrame(in));
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->type, FrameType::kDelta);
  EXPECT_EQ(out->shard, 2u);
  EXPECT_EQ(out->nonce, 777u);
  EXPECT_EQ(out->from_seq, 10u);
  EXPECT_EQ(out->to_seq, 13u);
  ASSERT_EQ(out->events.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(out->events[i].seq, in.events[i].seq);
    EXPECT_EQ(out->events[i].kind, in.events[i].kind);
    EXPECT_EQ(out->events[i].cookie, in.events[i].cookie);
    EXPECT_EQ(out->events[i].old_label, in.events[i].old_label);
    EXPECT_EQ(out->events[i].new_label, in.events[i].new_label);
  }
}

TEST(WireFormatRoundTripTest, SnapshotEntries) {
  Frame in;
  in.type = FrameType::kSnapshot;
  in.shard = 5;
  in.to_seq = 99;
  in.state = {{100, 1}, {200, 2}, {300, 3}};
  const Result<Frame> out = DecodeFrame(EncodeFrame(in));
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->type, FrameType::kSnapshot);
  EXPECT_EQ(out->shard, 5u);
  EXPECT_EQ(out->to_seq, 99u);
  EXPECT_EQ(out->state, in.state);
}

TEST(WireFormatRoundTripTest, RegisterCarriesStateVector) {
  store::StateVector sv(4);
  sv.Set(0, 17);
  sv.Set(2, 5);
  const Result<Frame> out =
      DecodeFrame(EncodeFrame(MakeRegisterFrame(0xABCDEF, sv)));
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->type, FrameType::kRegister);
  EXPECT_EQ(out->subscriber, 0xABCDEFu);
  EXPECT_EQ(out->seqs, (std::vector<uint64_t>{17, 0, 5, 0}));
}

TEST(WireFormatRoundTripTest, HeadsRequest) {
  const Result<Frame> out =
      DecodeFrame(EncodeFrame(MakeHeadsRequestFrame(/*nonce=*/0xFEED)));
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->type, FrameType::kHeadsRequest);
  EXPECT_EQ(out->nonce, 0xFEEDu);
}

TEST(WireFormatRoundTripTest, HeadsCarryOneHeadPerShard) {
  for (const uint32_t shards : {0u, 1u, 16u}) {
    SCOPED_TRACE(shards);
    store::StateVector heads(shards);
    for (uint32_t i = 0; i < shards; ++i) heads.Set(i, 1000 * i + 7);
    const Result<Frame> out =
        DecodeFrame(EncodeFrame(MakeHeadsFrame(heads, /*nonce=*/shards + 1)));
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_EQ(out->type, FrameType::kHeads);
    EXPECT_EQ(out->nonce, shards + 1);
    ASSERT_EQ(out->seqs.size(), shards);
    for (uint32_t i = 0; i < shards; ++i) {
      EXPECT_EQ(out->seqs[i], heads.seq(i)) << i;
    }
  }
}

TEST(WireFormatRoundTripTest, ErrorCarriesStatus) {
  const Status original = Status::NotFound("document 7 does not exist");
  const Result<Frame> out = DecodeFrame(EncodeFrame(MakeErrorFrame(original)));
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->type, FrameType::kError);
  const Status restored = ErrorFrameStatus(*out);
  EXPECT_EQ(restored.code(), original.code());
  EXPECT_EQ(restored.message(), original.message());
}

TEST(WireFormatRoundTripTest, EmptyDeltaAndEmptySnapshot) {
  Frame delta;
  delta.type = FrameType::kDelta;
  delta.shard = 0;
  delta.from_seq = 4;
  delta.to_seq = 4;
  Result<Frame> out = DecodeFrame(EncodeFrame(delta));
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->events.empty());

  Frame snap;
  snap.type = FrameType::kSnapshot;
  snap.shard = 1;
  snap.to_seq = 0;
  out = DecodeFrame(EncodeFrame(snap));
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->state.empty());
}

// Real catch-up payloads from every labeling scheme survive the wire: the
// decoded CatchUpResult drives a mirror to equivalence, through both the
// delta and the (forced-trim) snapshot path.
TEST(WireFormatRoundTripTest, CatchUpResultsAcrossAllSchemes) {
  for (const char* spec : kSpecs) {
    SCOPED_TRACE(spec);
    for (const bool force_snapshot : {false, true}) {
      SCOPED_TRACE(force_snapshot ? "snapshot" : "delta");
      store::DocStoreOptions options;
      options.num_shards = 4;
      options.scheme_spec = spec;
      options.feed_capacity = force_snapshot ? 8 : 4096;
      auto made = store::DocumentStore::Make(options);
      ASSERT_TRUE(made.ok()) << made.status().ToString();
      std::unique_ptr<store::DocumentStore> primary = std::move(*made);

      Rng rng(42);
      for (store::DocId doc = 0; doc < 6; ++doc) {
        ASSERT_TRUE(primary->CreateDocument(doc).ok());
        for (int i = 0; i < 30; ++i) {
          ASSERT_TRUE(primary->Append(doc).ok());
        }
        for (int i = 0; i < 10; ++i) {
          const uint64_t size = primary->DocSize(doc).ValueOrDie();
          ASSERT_TRUE(primary->EraseAt(doc, rng.Uniform(size)).ok());
        }
      }

      store::MirrorStore mirror(primary->num_shards());
      uint32_t snapshots = 0;
      for (uint32_t shard = 0; shard < primary->num_shards(); ++shard) {
        const auto result = primary->CatchUp(shard, 0);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        snapshots += result->snapshot ? 1 : 0;
        // Model -> frame -> bytes -> frame -> model.
        const std::vector<uint8_t> bytes =
            EncodeFrame(MakeCatchUpResponseFrame(shard, *result));
        const Result<Frame> frame = DecodeFrame(bytes);
        ASSERT_TRUE(frame.ok()) << frame.status().ToString();
        const auto restored = ToCatchUpResult(*frame);
        ASSERT_TRUE(restored.ok()) << restored.status().ToString();
        EXPECT_EQ(restored->snapshot, result->snapshot);
        EXPECT_EQ(restored->to_seq, result->to_seq);
        ASSERT_TRUE(mirror.ApplyCatchUp(shard, *restored).ok());
      }
      const Status eq = mirror.CheckEquivalent(*primary);
      EXPECT_TRUE(eq.ok()) << eq.ToString();
      // A tiny feed forces the snapshot path on every shard that saw
      // writes (an unlucky-hash empty shard legitimately serves a delta).
      if (force_snapshot) {
        EXPECT_GT(snapshots, 0u);
      } else {
        EXPECT_EQ(snapshots, 0u);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Total decode: malformed inputs are Corruption, never frames, never UB.
// ---------------------------------------------------------------------------

std::vector<uint8_t> ValidDeltaBytes() {
  Frame frame;
  frame.type = FrameType::kDelta;
  frame.shard = 1;
  frame.from_seq = 0;
  frame.to_seq = 2;
  store::FeedEvent event;
  event.seq = 1;
  event.kind = store::FeedEvent::Kind::kInsert;
  event.cookie = 11;
  event.new_label = 64;
  frame.events.push_back(event);
  event.seq = 2;
  event.cookie = 12;
  event.new_label = 128;
  frame.events.push_back(event);
  return EncodeFrame(frame);
}

/// The frames the corruption sweeps run over: a two-event delta and both
/// heads frames.
std::vector<std::vector<uint8_t>> SweptFrames() {
  store::StateVector heads(3);
  heads.Set(0, 17);
  heads.Set(2, 4);
  return {ValidDeltaBytes(), EncodeFrame(MakeHeadsRequestFrame(41)),
          EncodeFrame(MakeHeadsFrame(heads, 41))};
}

TEST(WireFormatCorruptionTest, EveryPossibleSingleBitFlipIsRejected) {
  for (const std::vector<uint8_t>& good : SweptFrames()) {
    ASSERT_TRUE(DecodeFrame(good).ok());
    for (size_t bit = 0; bit < good.size() * 8; ++bit) {
      std::vector<uint8_t> bad = good;
      bad[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      const Result<Frame> out = DecodeFrame(bad);
      ASSERT_FALSE(out.ok()) << "type " << int{good[3]} << ": bit " << bit
                             << " flip was accepted";
      EXPECT_TRUE(out.status().IsCorruption()) << out.status().ToString();
    }
  }
}

TEST(WireFormatCorruptionTest, EveryTruncationIsRejected) {
  for (const std::vector<uint8_t>& good : SweptFrames()) {
    for (size_t len = 0; len < good.size(); ++len) {
      const Result<Frame> out = DecodeFrame(good.data(), len);
      ASSERT_FALSE(out.ok()) << "type " << int{good[3]} << ": truncation to "
                             << len << " was accepted";
      EXPECT_TRUE(out.status().IsCorruption());
    }
  }
}

TEST(WireFormatCorruptionTest, TrailingBytesAreRejected) {
  std::vector<uint8_t> bytes = ValidDeltaBytes();
  bytes.push_back(0x00);
  EXPECT_TRUE(DecodeFrame(bytes).status().IsCorruption());
}

TEST(WireFormatCorruptionTest, BadMagicVersionAndType) {
  std::vector<uint8_t> bytes = EncodeFrame(MakeAckFrame());
  bytes[0] = 'X';
  EXPECT_TRUE(DecodeFrame(bytes).status().IsCorruption());

  bytes = EncodeFrame(MakeAckFrame());
  bytes[2] = 2;  // future protocol version
  EXPECT_TRUE(DecodeFrame(bytes).status().IsCorruption());

  for (const uint8_t type :
       {uint8_t{0}, uint8_t{7}, uint8_t{9}, uint8_t{255}}) {
    bytes = EncodeFrame(MakeAckFrame());
    bytes[3] = type;
    EXPECT_TRUE(DecodeFrame(bytes).status().IsCorruption());
  }
}

/// Hand-built payload bytes, little-endian.
struct PayloadBuilder {
  std::vector<uint8_t> bytes;
  PayloadBuilder& U32(uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      bytes.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
    return *this;
  }
  PayloadBuilder& U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      bytes.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
    return *this;
  }
};

/// Frames `payload` with a correct length and CRC, so only the payload
/// can make it invalid.
std::vector<uint8_t> FrameWithValidCrc(FrameType type,
                                       const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> bytes = {kWireMagic0, kWireMagic1, kWireVersion,
                                static_cast<uint8_t>(type)};
  const uint32_t len = static_cast<uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) {
    bytes.push_back(static_cast<uint8_t>(len >> (8 * i)));
  }
  bytes.insert(bytes.end(), payload.begin(), payload.end());
  const uint32_t crc = Crc32c(bytes.data(), bytes.size());
  for (int i = 0; i < 4; ++i) {
    bytes.push_back(static_cast<uint8_t>(crc >> (8 * i)));
  }
  return bytes;
}

TEST(WireFormatCorruptionTest, ForgedCountsCannotDriveAllocation) {
  // A delta frame whose event count claims more events than the payload
  // holds must fail BEFORE any reserve happens (valid CRC, hostile count).
  const std::vector<uint8_t> payload =
      PayloadBuilder()
          .U32(0)           // shard
          .U64(0)           // nonce
          .U64(0)           // from_seq
          .U64(1)           // to_seq
          .U32(0xFFFFFFFF)  // forged event count; zero event bytes follow
          .bytes;
  const Result<Frame> out =
      DecodeFrame(FrameWithValidCrc(FrameType::kDelta, payload));
  ASSERT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsCorruption());
  EXPECT_NE(out.status().message().find("count"), std::string::npos);
}

TEST(WireFormatCorruptionTest, ForgedHeadCountCannotDriveAllocation) {
  // One head arrived; the count claims 2^32 - 1 of them.
  const std::vector<uint8_t> payload = PayloadBuilder()
                                           .U64(7)           // nonce
                                           .U32(0xFFFFFFFF)  // forged count
                                           .U64(3)           // the one head
                                           .bytes;
  const Result<Frame> out =
      DecodeFrame(FrameWithValidCrc(FrameType::kHeads, payload));
  ASSERT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsCorruption());
  EXPECT_NE(out.status().message().find("count"), std::string::npos);
}

TEST(WireFormatCorruptionTest, ErrorFrameWithOkCodeIsRejected) {
  // Hand-build an error frame claiming StatusCode::kOk — a frame the
  // encoder can never produce; the decoder must still reject it.
  std::vector<uint8_t> bytes = {kWireMagic0, kWireMagic1, kWireVersion,
                                static_cast<uint8_t>(FrameType::kError),
                                8,           0,           0,
                                0,  // payload len = 8
                                0,           0,           0,
                                0,  // code = kOk
                                0,           0,           0,
                                0};  // message length = 0
  const uint32_t crc = Crc32c(bytes.data(), bytes.size());
  for (int i = 0; i < 4; ++i) {
    bytes.push_back(static_cast<uint8_t>(crc >> (8 * i)));
  }
  EXPECT_TRUE(DecodeFrame(bytes).status().IsCorruption());
}

TEST(WireFormatCorruptionTest, RandomGarbageNeverDecodes) {
  // Random buffers essentially never carry a valid CRC; the point is that
  // none of them crash and all of them fail cleanly.
  Rng rng(7);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<uint8_t> bytes(rng.Uniform(64));
    for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng.Next64());
    const Result<Frame> out = DecodeFrame(bytes);
    if (!out.ok()) {
      EXPECT_TRUE(out.status().IsCorruption());
    }
  }
}

}  // namespace
}  // namespace replica
}  // namespace ltree
