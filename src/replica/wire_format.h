// Replication wire protocol: length-prefixed, CRC32C-checksummed,
// versioned binary frames.
//
// Everything the change-feed sync protocol exchanges (see
// store/document_store.h) crosses the replication boundary as one frame:
//
//   offset 0  : magic 'L' 'R'            (2 bytes)
//   offset 2  : protocol version         (1 byte, currently 1)
//   offset 3  : frame type               (1 byte, FrameType)
//   offset 4  : payload length           (uint32 LE)
//   offset 8  : payload                  (payload-length bytes)
//   offset 8+n: CRC32C of bytes [0, 8+n) (uint32 LE)
//
// Payloads by frame type (u32/u64 little-endian, counts are u32):
//
//   type  name            payload
//   1     catchup-request shard u32, nonce u64, from_seq u64
//   2     delta           shard u32, nonce u64, from_seq u64, to_seq u64,
//                         count, count x (seq u64, kind u8, cookie u64,
//                         old_label u64, new_label u64)
//   3     snapshot        shard u32, nonce u64, to_seq u64, count,
//                         count x (label u64, cookie u64)
//   4     register        subscriber u64, count, count x seq u64
//   5     error           status code u32, message length u32, message
//   6     ack             (empty)
//   7     heads-request   nonce u64
//   8     heads           nonce u64, count, count x feed head u64 (one per
//                         shard, in shard order)
//
// All integers are little-endian and fixed-width; the layout is pinned by
// the golden byte test in tests/replica/wire_format_test.cc — changing it
// requires a version bump, not a silent re-golden. The heads pair (types
// 7 and 8) came later and kept version 1: adding types changed no byte of
// any existing frame, so every older frame still encodes and decodes
// exactly as before.
//
// Decode is TOTAL: DecodeFrame inspects every byte through a
// bounds-checked reader and returns Status::Corruption for anything that
// is not the exact encoding of a valid frame — short buffers, bad magic,
// unknown versions or types, length/CRC mismatches, truncated or trailing
// payload bytes, out-of-range enum values, element counts that could not
// fit in the payload (so a forged count can never drive an allocation
// beyond the received bytes). No input reaches undefined behavior; the
// fuzz_wire_frames harness feeds it arbitrary bytes to keep that promise.

#ifndef LTREE_REPLICA_WIRE_FORMAT_H_
#define LTREE_REPLICA_WIRE_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "store/document_store.h"
#include "store/state_vector.h"

namespace ltree {
namespace replica {

/// CRC32C (Castagnoli polynomial, reflected 0x82F63B78): portable
/// slice-by-8 tables, eight bytes per step, no hardware dependency.
uint32_t Crc32c(const uint8_t* data, size_t size);

inline constexpr uint8_t kWireMagic0 = 'L';
inline constexpr uint8_t kWireMagic1 = 'R';
inline constexpr uint8_t kWireVersion = 1;
inline constexpr size_t kFrameHeaderBytes = 8;
inline constexpr size_t kFrameTrailerBytes = 4;
/// Hard payload bound: a decoded length above this is Corruption before
/// any allocation happens.
inline constexpr size_t kMaxPayloadBytes = size_t{1} << 26;  // 64 MiB

enum class FrameType : uint8_t {
  kCatchUpRequest = 1,  ///< shard, from_seq
  kDelta = 2,           ///< shard, (from_seq, to_seq] event suffix
  kSnapshot = 3,        ///< shard, to_seq, full live (label, cookie) state
  kRegister = 4,        ///< subscriber id + full StateVector
  kError = 5,           ///< Status carried across the boundary
  kAck = 6,             ///< empty success response (to kRegister)
  kHeadsRequest = 7,    ///< nonce
  kHeads = 8,           ///< nonce, one feed head per shard
};

const char* FrameTypeName(FrameType type);

/// One decoded frame. `type` selects which fields are meaningful; decoded
/// frames always have every unrelated field empty/zero.
struct Frame {
  FrameType type = FrameType::kAck;

  uint32_t shard = 0;         ///< kCatchUpRequest / kDelta / kSnapshot
  /// Request id chosen by the client and echoed verbatim in the kDelta /
  /// kSnapshot / kHeads response, so a client can tell THE answer to the
  /// request it just sent from a duplicated or reordered delivery of an
  /// older one — even when both requests were byte-identical (same shard
  /// and position). Error frames carry no nonce: the server may not have
  /// been able to decode the request that provoked them.
  uint64_t nonce = 0;         ///< all but kRegister / kError / kAck
  uint64_t from_seq = 0;      ///< kCatchUpRequest / kDelta
  uint64_t to_seq = 0;        ///< kDelta / kSnapshot
  uint64_t subscriber = 0;    ///< kRegister
  std::vector<store::FeedEvent> events;                  ///< kDelta
  std::vector<std::pair<Label, LeafCookie>> state;       ///< kSnapshot
  /// kRegister: the subscriber's StateVector; kHeads: the primary's feed
  /// heads. Either way one sequence number per shard, in shard order.
  std::vector<uint64_t> seqs;
  StatusCode error_code = StatusCode::kOk;               ///< kError
  std::string error_message;                             ///< kError
};

// ------------------------------------------------------------- builders

Frame MakeCatchUpRequestFrame(uint32_t shard, uint64_t from_seq,
                              uint64_t nonce = 0);

/// A store::CatchUpResult crosses the wire as either a kDelta or a
/// kSnapshot frame, depending on which path the primary chose. `nonce`
/// echoes the provoking request's nonce. The result's event or snapshot
/// vector moves into the frame.
Frame MakeCatchUpResponseFrame(uint32_t shard, store::CatchUpResult result,
                               uint64_t nonce = 0);

Frame MakeRegisterFrame(uint64_t subscriber, const store::StateVector& sv);

/// "Where is every shard's feed?" — the first exchange of a sync round.
Frame MakeHeadsRequestFrame(uint64_t nonce);

/// The answer: `heads` is the primary's CurrentStateVector(); `nonce`
/// echoes the request's.
Frame MakeHeadsFrame(const store::StateVector& heads, uint64_t nonce);

/// Requires a non-OK status (an OK "error" has no frame encoding).
Frame MakeErrorFrame(const Status& status);

Frame MakeAckFrame();

// ----------------------------------------------------- frame <-> bytes

/// Sizes the frame exactly first, so the bytes land in one allocation.
std::vector<uint8_t> EncodeFrame(const Frame& frame);

/// Decodes exactly one frame occupying the whole buffer. Total: any input
/// that is not a valid encoding yields Status::Corruption, never UB.
Result<Frame> DecodeFrame(const uint8_t* data, size_t size);
Result<Frame> DecodeFrame(const std::vector<uint8_t>& bytes);

// ------------------------------------------------------- frame -> model

/// Reassembles the store-level catch-up result from a kDelta or kSnapshot
/// frame (InvalidArgument for other types). The frame's event or snapshot
/// vector moves into the result.
Result<store::CatchUpResult> ToCatchUpResult(Frame frame);

/// The Status a kError frame carries (InvalidArgument for other types).
Status ErrorFrameStatus(const Frame& frame);

}  // namespace replica
}  // namespace ltree

#endif  // LTREE_REPLICA_WIRE_FORMAT_H_
