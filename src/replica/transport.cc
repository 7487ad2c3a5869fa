#include "replica/transport.h"

#include <utility>

#include "common/macros.h"
#include "core/failpoint.h"
#include "store/state_vector.h"

namespace ltree {
namespace replica {

// ------------------------------------------------------------ endpoint

Result<std::vector<uint8_t>> PrimaryEndpoint::Call(
    const std::vector<uint8_t>& request, uint64_t timeout_ms) {
  (void)timeout_ms;  // in-process serving is instantaneous
  ++requests_served_;
  return Serve(request);
}

std::vector<uint8_t> PrimaryEndpoint::Serve(
    const std::vector<uint8_t>& request) {
  // Server-side fault injection: an armed "replica.serve" failpoint turns
  // into an error frame exactly like a real serving failure would.
  const Status injected = failpoint::Check("replica.serve");
  if (!injected.ok()) return EncodeFrame(MakeErrorFrame(injected));

  const Result<Frame> decoded = DecodeFrame(request);
  if (!decoded.ok()) {
    // The request got mangled in flight; tell the client so it resends.
    ++bad_requests_;
    return EncodeFrame(MakeErrorFrame(decoded.status()));
  }
  const Frame& frame = *decoded;
  switch (frame.type) {
    case FrameType::kHeadsRequest:
      return EncodeFrame(
          MakeHeadsFrame(primary_->CurrentStateVector(), frame.nonce));
    case FrameType::kCatchUpRequest: {
      Result<store::CatchUpResult> result =
          primary_->CatchUp(frame.shard, frame.from_seq);
      if (!result.ok()) return EncodeFrame(MakeErrorFrame(result.status()));
      return EncodeFrame(MakeCatchUpResponseFrame(
          frame.shard, std::move(*result), frame.nonce));
    }
    case FrameType::kRegister: {
      if (registry_ == nullptr) {
        return EncodeFrame(MakeErrorFrame(
            Status::NotImplemented("endpoint is read-only; no registry")));
      }
      store::StateVector sv(static_cast<uint32_t>(frame.seqs.size()));
      for (uint32_t i = 0; i < sv.num_shards(); ++i) {
        sv.Set(i, frame.seqs[i]);
      }
      const Status registered =
          registry_->RegisterSubscriber(frame.subscriber, sv);
      if (!registered.ok()) return EncodeFrame(MakeErrorFrame(registered));
      return EncodeFrame(MakeAckFrame());
    }
    default:
      ++bad_requests_;
      return EncodeFrame(MakeErrorFrame(Status::InvalidArgument(
          std::string("unexpected request frame type ") +
          FrameTypeName(frame.type))));
  }
}

// ------------------------------------------------------ faulty transport

bool FaultyTransport::MaybeDamage(std::vector<uint8_t>* bytes) {
  bool damaged = false;
  if (!bytes->empty() && rng_.Bernoulli(options_.truncate)) {
    // Keep a strict prefix; cutting to 0..size-1 bytes models a torn read.
    bytes->resize(static_cast<size_t>(rng_.Uniform(bytes->size())));
    ++stats_.truncations;
    damaged = true;
  }
  if (!bytes->empty() && rng_.Bernoulli(options_.bit_flip)) {
    const uint64_t bit = rng_.Uniform(bytes->size() * 8);
    (*bytes)[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    ++stats_.bit_flips;
    damaged = true;
  }
  return damaged;
}

Result<std::vector<uint8_t>> FaultyTransport::Call(
    const std::vector<uint8_t>& request, uint64_t timeout_ms) {
  ++stats_.calls;

  // Outbound leg: the request can vanish or arrive damaged.
  if (rng_.Bernoulli(options_.drop)) {
    ++stats_.drops;
    clock_->SleepMs(timeout_ms);
    return Status::TimedOut("request lost in transit");
  }
  std::vector<uint8_t> outbound = request;
  bool any_fault = MaybeDamage(&outbound);

  LTREE_ASSIGN_OR_RETURN(std::vector<uint8_t> response,
                         inner_->Call(outbound, timeout_ms));

  // Inbound leg.
  if (rng_.Bernoulli(options_.drop)) {
    ++stats_.drops;
    clock_->SleepMs(timeout_ms);
    return Status::TimedOut("response lost in transit");
  }
  if (rng_.Bernoulli(options_.stall)) {
    ++stats_.stalls;
    any_fault = true;
    if (options_.stall_ms >= timeout_ms) {
      clock_->SleepMs(timeout_ms);
      return Status::TimedOut("response stalled past deadline");
    }
    clock_->SleepMs(options_.stall_ms);  // late but within deadline
  }
  if (!delayed_.empty()) {
    // A response held back by an earlier reorder finally arrives — in this
    // exchange's slot, displacing the fresh response (which is lost; its
    // delivery window was consumed by the late packet).
    response = std::move(delayed_.front());
    delayed_.pop_front();
    any_fault = true;
  } else if (rng_.Bernoulli(options_.reorder)) {
    // Hold the response back; it will arrive in a later exchange's slot.
    // This exchange sees nothing and times out.
    ++stats_.reorders;
    delayed_.push_back(std::move(response));
    clock_->SleepMs(timeout_ms);
    return Status::TimedOut("response held back for reordering");
  }
  if (!last_delivered_.empty() && rng_.Bernoulli(options_.duplicate)) {
    // A late duplicate of an earlier response overtakes the fresh one.
    ++stats_.duplicates;
    any_fault = true;
    response = last_delivered_;
  }
  any_fault |= MaybeDamage(&response);

  if (!any_fault) ++stats_.clean;
  last_delivered_ = response;
  return response;
}

}  // namespace replica
}  // namespace ltree
