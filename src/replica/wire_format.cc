#include "replica/wire_format.h"

#include <array>
#include <bit>
#include <cstring>
#include <utility>

#include "common/macros.h"

namespace ltree {
namespace replica {

namespace {

// Little-endian fixed-width integers: one unaligned load or store on a
// little-endian host, a byte loop elsewhere.
template <typename T>
T LoadLe(const uint8_t* p) {
  T v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, p, sizeof(T));
  } else {
    for (size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(p[i]) << (8 * i);
    }
  }
  return v;
}

template <typename T>
void StoreLe(uint8_t* p, T v) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &v, sizeof(T));
  } else {
    for (size_t i = 0; i < sizeof(T); ++i) {
      p[i] = static_cast<uint8_t>(v >> (8 * i));
    }
  }
}

// Slice-by-8 tables for the reflected Castagnoli polynomial. Table 0 is
// the classic byte-at-a-time table; table k maps a byte to its CRC after
// k further zero bytes, so one step folds eight input bytes with eight
// independent lookups.
using Crc32cTables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Crc32cTables MakeCrc32cTables() {
  Crc32cTables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) ? 0x82F63B78u : 0u);
    }
    t[0][i] = crc;
  }
  for (size_t k = 1; k < t.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr Crc32cTables kCrc32cTables = MakeCrc32cTables();

}  // namespace

uint32_t Crc32c(const uint8_t* data, size_t size) {
  const Crc32cTables& t = kCrc32cTables;
  uint32_t crc = 0xFFFFFFFFu;
  for (; size >= 8; data += 8, size -= 8) {
    const uint32_t lo = crc ^ LoadLe<uint32_t>(data);
    const uint32_t hi = LoadLe<uint32_t>(data + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++data, --size) {
    crc = (crc >> 8) ^ t[0][(crc ^ *data) & 0xFFu];
  }
  return crc ^ 0xFFFFFFFFu;
}

const char* FrameTypeName(FrameType type) {
  switch (type) {
    case FrameType::kCatchUpRequest:
      return "catchup-request";
    case FrameType::kDelta:
      return "delta";
    case FrameType::kSnapshot:
      return "snapshot";
    case FrameType::kRegister:
      return "register";
    case FrameType::kError:
      return "error";
    case FrameType::kAck:
      return "ack";
    case FrameType::kHeadsRequest:
      return "heads-request";
    case FrameType::kHeads:
      return "heads";
  }
  return "unknown";
}

namespace {

// ----------------------------------------------------------- byte writer

/// Cursor over a buffer that EncodeFrame sized exactly beforehand, so no
/// write checks or grows anything.
class ByteWriter {
 public:
  explicit ByteWriter(uint8_t* out) : out_(out) {}

  const uint8_t* pos() const { return out_; }

  void PutU8(uint8_t v) { *out_++ = v; }
  void PutU32(uint32_t v) {
    StoreLe(out_, v);
    out_ += 4;
  }
  void PutU64(uint64_t v) {
    StoreLe(out_, v);
    out_ += 8;
  }
  void PutBytes(const std::string& bytes) {
    std::memcpy(out_, bytes.data(), bytes.size());
    out_ += bytes.size();
  }

 private:
  uint8_t* out_;
};

// ----------------------------------------------------------- byte reader

/// Bounds-checked cursor over the payload. Every Read* returns false on
/// overrun instead of touching out-of-range bytes — the decoder turns any
/// false into Corruption.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  size_t remaining() const { return size_ - pos_; }
  bool exhausted() const { return pos_ == size_; }

  bool ReadU8(uint8_t* v) {
    if (remaining() < 1) return false;
    *v = data_[pos_++];
    return true;
  }

  bool ReadU32(uint32_t* v) {
    if (remaining() < 4) return false;
    *v = LoadLe<uint32_t>(data_ + pos_);
    pos_ += 4;
    return true;
  }

  bool ReadU64(uint64_t* v) {
    if (remaining() < 8) return false;
    *v = LoadLe<uint64_t>(data_ + pos_);
    pos_ += 8;
    return true;
  }

  bool ReadBytes(std::string* out, size_t n) {
    if (remaining() < n) return false;
    out->assign(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return true;
  }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

Status Corrupt(const std::string& what) {
  return Status::Corruption("wire frame: " + what);
}

// Per-event wire size for kDelta: seq u64, kind u8, cookie u64, old u64,
// new u64.
constexpr size_t kEventBytes = 8 + 1 + 8 + 8 + 8;
// Per-entry wire size for kSnapshot: label u64, cookie u64.
constexpr size_t kSnapshotEntryBytes = 8 + 8;

/// Exact payload size of `frame`; EncodePayload writes exactly this many
/// bytes.
size_t PayloadBytes(const Frame& frame) {
  switch (frame.type) {
    case FrameType::kCatchUpRequest:
      return 4 + 8 + 8;
    case FrameType::kDelta:
      return 4 + 8 + 8 + 8 + 4 + frame.events.size() * kEventBytes;
    case FrameType::kSnapshot:
      return 4 + 8 + 8 + 4 + frame.state.size() * kSnapshotEntryBytes;
    case FrameType::kRegister:
    case FrameType::kHeads:  // subscriber or nonce, then the seqs
      return 8 + 4 + frame.seqs.size() * 8;
    case FrameType::kError:
      return 4 + 4 + frame.error_message.size();
    case FrameType::kAck:
      return 0;
    case FrameType::kHeadsRequest:
      return 8;
  }
  LTREE_CHECK(false);  // unreachable: builders only produce valid types
  return 0;
}

void PutSeqs(const std::vector<uint64_t>& seqs, ByteWriter* out) {
  out->PutU32(static_cast<uint32_t>(seqs.size()));
  for (const uint64_t seq : seqs) out->PutU64(seq);
}

void EncodePayload(const Frame& frame, ByteWriter* out) {
  switch (frame.type) {
    case FrameType::kCatchUpRequest:
      out->PutU32(frame.shard);
      out->PutU64(frame.nonce);
      out->PutU64(frame.from_seq);
      return;
    case FrameType::kDelta:
      out->PutU32(frame.shard);
      out->PutU64(frame.nonce);
      out->PutU64(frame.from_seq);
      out->PutU64(frame.to_seq);
      out->PutU32(static_cast<uint32_t>(frame.events.size()));
      for (const store::FeedEvent& event : frame.events) {
        out->PutU64(event.seq);
        out->PutU8(static_cast<uint8_t>(event.kind));
        out->PutU64(event.cookie);
        out->PutU64(event.old_label);
        out->PutU64(event.new_label);
      }
      return;
    case FrameType::kSnapshot:
      out->PutU32(frame.shard);
      out->PutU64(frame.nonce);
      out->PutU64(frame.to_seq);
      out->PutU32(static_cast<uint32_t>(frame.state.size()));
      for (const auto& [label, cookie] : frame.state) {
        out->PutU64(label);
        out->PutU64(cookie);
      }
      return;
    case FrameType::kRegister:
      out->PutU64(frame.subscriber);
      PutSeqs(frame.seqs, out);
      return;
    case FrameType::kError:
      out->PutU32(static_cast<uint32_t>(frame.error_code));
      out->PutU32(static_cast<uint32_t>(frame.error_message.size()));
      out->PutBytes(frame.error_message);
      return;
    case FrameType::kAck:
      return;
    case FrameType::kHeadsRequest:
      out->PutU64(frame.nonce);
      return;
    case FrameType::kHeads:
      out->PutU64(frame.nonce);
      PutSeqs(frame.seqs, out);
      return;
  }
  LTREE_CHECK(false);  // unreachable: builders only produce valid types
}

/// A u32 count, then that many u64 sequence numbers (kRegister, kHeads).
Status ReadSeqs(ByteReader* in, std::vector<uint64_t>* seqs,
                const char* what) {
  uint32_t count = 0;
  if (!in->ReadU32(&count)) {
    return Corrupt(std::string("truncated ") + what + " header");
  }
  // A forged count must not drive the reserve past the bytes that
  // actually arrived.
  if (count > in->remaining() / 8) {
    return Corrupt(std::string(what) + " shard count exceeds payload");
  }
  seqs->resize(count);
  for (uint64_t& seq : *seqs) {
    if (!in->ReadU64(&seq)) {
      return Corrupt(std::string("truncated ") + what + " seq");
    }
  }
  return Status::OK();
}

Status DecodePayload(FrameType type, ByteReader* in, Frame* out) {
  switch (type) {
    case FrameType::kCatchUpRequest: {
      if (!in->ReadU32(&out->shard) || !in->ReadU64(&out->nonce) ||
          !in->ReadU64(&out->from_seq)) {
        return Corrupt("truncated catchup-request payload");
      }
      return Status::OK();
    }
    case FrameType::kDelta: {
      uint32_t count = 0;
      if (!in->ReadU32(&out->shard) || !in->ReadU64(&out->nonce) ||
          !in->ReadU64(&out->from_seq) || !in->ReadU64(&out->to_seq) ||
          !in->ReadU32(&count)) {
        return Corrupt("truncated delta header");
      }
      // A forged count must not drive the reserve past the bytes that
      // actually arrived.
      if (count > in->remaining() / kEventBytes) {
        return Corrupt("delta event count exceeds payload");
      }
      out->events.reserve(count);
      for (uint32_t i = 0; i < count; ++i) {
        store::FeedEvent event;
        uint8_t kind = 0;
        if (!in->ReadU64(&event.seq) || !in->ReadU8(&kind) ||
            !in->ReadU64(&event.cookie) || !in->ReadU64(&event.old_label) ||
            !in->ReadU64(&event.new_label)) {
          return Corrupt("truncated delta event");
        }
        if (kind > static_cast<uint8_t>(store::FeedEvent::Kind::kErase)) {
          return Corrupt("unknown feed event kind " + std::to_string(kind));
        }
        event.kind = static_cast<store::FeedEvent::Kind>(kind);
        out->events.push_back(event);
      }
      return Status::OK();
    }
    case FrameType::kSnapshot: {
      uint32_t count = 0;
      if (!in->ReadU32(&out->shard) || !in->ReadU64(&out->nonce) ||
          !in->ReadU64(&out->to_seq) || !in->ReadU32(&count)) {
        return Corrupt("truncated snapshot header");
      }
      if (count > in->remaining() / kSnapshotEntryBytes) {
        return Corrupt("snapshot entry count exceeds payload");
      }
      out->state.reserve(count);
      for (uint32_t i = 0; i < count; ++i) {
        uint64_t label = 0;
        uint64_t cookie = 0;
        if (!in->ReadU64(&label) || !in->ReadU64(&cookie)) {
          return Corrupt("truncated snapshot entry");
        }
        out->state.emplace_back(label, cookie);
      }
      return Status::OK();
    }
    case FrameType::kRegister: {
      if (!in->ReadU64(&out->subscriber)) {
        return Corrupt("truncated register header");
      }
      return ReadSeqs(in, &out->seqs, "register");
    }
    case FrameType::kError: {
      uint32_t code = 0;
      uint32_t msg_len = 0;
      if (!in->ReadU32(&code) || !in->ReadU32(&msg_len)) {
        return Corrupt("truncated error header");
      }
      if (code == static_cast<uint32_t>(StatusCode::kOk) ||
          code > static_cast<uint32_t>(StatusCode::kTimedOut)) {
        return Corrupt("invalid error status code " + std::to_string(code));
      }
      if (!in->ReadBytes(&out->error_message, msg_len)) {
        return Corrupt("truncated error message");
      }
      out->error_code = static_cast<StatusCode>(code);
      return Status::OK();
    }
    case FrameType::kAck:
      return Status::OK();
    case FrameType::kHeadsRequest: {
      if (!in->ReadU64(&out->nonce)) {
        return Corrupt("truncated heads-request payload");
      }
      return Status::OK();
    }
    case FrameType::kHeads: {
      if (!in->ReadU64(&out->nonce)) return Corrupt("truncated heads header");
      return ReadSeqs(in, &out->seqs, "heads");
    }
  }
  return Corrupt("unknown frame type");
}

}  // namespace

// --------------------------------------------------------------- builders

Frame MakeCatchUpRequestFrame(uint32_t shard, uint64_t from_seq,
                              uint64_t nonce) {
  Frame frame;
  frame.type = FrameType::kCatchUpRequest;
  frame.shard = shard;
  frame.nonce = nonce;
  frame.from_seq = from_seq;
  return frame;
}

Frame MakeCatchUpResponseFrame(uint32_t shard, store::CatchUpResult result,
                               uint64_t nonce) {
  Frame frame;
  frame.shard = shard;
  frame.nonce = nonce;
  frame.to_seq = result.to_seq;
  if (result.snapshot) {
    frame.type = FrameType::kSnapshot;
    frame.state = std::move(result.state);
  } else {
    frame.type = FrameType::kDelta;
    frame.from_seq = result.from_seq;
    frame.events = std::move(result.events);
  }
  return frame;
}

namespace {

std::vector<uint64_t> SeqsOf(const store::StateVector& sv) {
  std::vector<uint64_t> seqs(sv.num_shards());
  for (uint32_t i = 0; i < sv.num_shards(); ++i) seqs[i] = sv.seq(i);
  return seqs;
}

}  // namespace

Frame MakeRegisterFrame(uint64_t subscriber, const store::StateVector& sv) {
  Frame frame;
  frame.type = FrameType::kRegister;
  frame.subscriber = subscriber;
  frame.seqs = SeqsOf(sv);
  return frame;
}

Frame MakeHeadsRequestFrame(uint64_t nonce) {
  Frame frame;
  frame.type = FrameType::kHeadsRequest;
  frame.nonce = nonce;
  return frame;
}

Frame MakeHeadsFrame(const store::StateVector& heads, uint64_t nonce) {
  Frame frame;
  frame.type = FrameType::kHeads;
  frame.nonce = nonce;
  frame.seqs = SeqsOf(heads);
  return frame;
}

Frame MakeErrorFrame(const Status& status) {
  LTREE_CHECK(!status.ok());
  Frame frame;
  frame.type = FrameType::kError;
  frame.error_code = status.code();
  frame.error_message = status.message();
  return frame;
}

Frame MakeAckFrame() { return Frame{}; }

// --------------------------------------------------------- frame <-> bytes

std::vector<uint8_t> EncodeFrame(const Frame& frame) {
  const size_t payload_len = PayloadBytes(frame);
  const size_t checked = kFrameHeaderBytes + payload_len;
  std::vector<uint8_t> out(checked + kFrameTrailerBytes);
  ByteWriter writer(out.data());
  writer.PutU8(kWireMagic0);
  writer.PutU8(kWireMagic1);
  writer.PutU8(kWireVersion);
  writer.PutU8(static_cast<uint8_t>(frame.type));
  writer.PutU32(static_cast<uint32_t>(payload_len));
  EncodePayload(frame, &writer);
  LTREE_CHECK(writer.pos() == out.data() + checked);
  writer.PutU32(Crc32c(out.data(), checked));
  return out;
}

Result<Frame> DecodeFrame(const uint8_t* data, size_t size) {
  if (size < kFrameHeaderBytes + kFrameTrailerBytes) {
    return Corrupt("buffer shorter than minimal frame");
  }
  if (data[0] != kWireMagic0 || data[1] != kWireMagic1) {
    return Corrupt("bad magic");
  }
  if (data[2] != kWireVersion) {
    return Corrupt("unsupported protocol version " + std::to_string(data[2]));
  }
  const uint8_t raw_type = data[3];
  if (raw_type < static_cast<uint8_t>(FrameType::kCatchUpRequest) ||
      raw_type > static_cast<uint8_t>(FrameType::kHeads)) {
    return Corrupt("unknown frame type " + std::to_string(raw_type));
  }
  const uint32_t payload_len = LoadLe<uint32_t>(data + 4);
  if (payload_len > kMaxPayloadBytes) {
    return Corrupt("payload length " + std::to_string(payload_len) +
                   " exceeds limit");
  }
  if (size != kFrameHeaderBytes + payload_len + kFrameTrailerBytes) {
    return Corrupt("length prefix disagrees with buffer size");
  }
  const size_t checked = kFrameHeaderBytes + payload_len;
  if (Crc32c(data, checked) != LoadLe<uint32_t>(data + checked)) {
    return Corrupt("CRC32C mismatch");
  }
  Frame frame;
  frame.type = static_cast<FrameType>(raw_type);
  ByteReader reader(data + kFrameHeaderBytes, payload_len);
  LTREE_RETURN_IF_ERROR(DecodePayload(frame.type, &reader, &frame));
  if (!reader.exhausted()) {
    return Corrupt("trailing bytes after payload");
  }
  return frame;
}

Result<Frame> DecodeFrame(const std::vector<uint8_t>& bytes) {
  return DecodeFrame(bytes.data(), bytes.size());
}

// --------------------------------------------------------- frame -> model

Result<store::CatchUpResult> ToCatchUpResult(Frame frame) {
  store::CatchUpResult out;
  switch (frame.type) {
    case FrameType::kDelta:
      out.snapshot = false;
      out.from_seq = frame.from_seq;
      out.to_seq = frame.to_seq;
      out.events = std::move(frame.events);
      return out;
    case FrameType::kSnapshot:
      out.snapshot = true;
      out.from_seq = 0;
      out.to_seq = frame.to_seq;
      out.state = std::move(frame.state);
      return out;
    default:
      return Status::InvalidArgument(
          std::string("frame type ") + FrameTypeName(frame.type) +
          " carries no catch-up result");
  }
}

Status ErrorFrameStatus(const Frame& frame) {
  if (frame.type != FrameType::kError) {
    return Status::InvalidArgument(std::string("frame type ") +
                                   FrameTypeName(frame.type) +
                                   " carries no error status");
  }
  return Status(frame.error_code, frame.error_message);
}

}  // namespace replica
}  // namespace ltree
