// ReplicationSession: a fault-tolerant subscriber driving a MirrorStore
// over a byte transport.
//
// PR 7 proved mirror convergence over in-process function calls; this
// session proves it across a boundary that drops, duplicates, reorders,
// truncates and bit-flips bytes. A sync round is three steps:
//
//   1. heads:        one HeadsRequest(nonce) exchange; the Heads answer
//                    carries every shard's feed head (the primary's
//                    CurrentStateVector);
//   2. moved shards: SyncShard for each shard whose head differs from the
//                    mirror's position — shards that did not move cost no
//                    exchange (a head BEHIND the mirror takes this path
//                    too, and its catch-up request is refused, which the
//                    per-shard path reports as a violation);
//   3. registration: the mirror's position goes back to the primary.
//
// One SyncShard attempt is:
//
//   encode CatchUpRequest(shard, position) -> Transport::Call with a
//   per-request timeout -> decode the response -> classify -> apply.
//
// A heads attempt shares the front half of that (call, decode, error
// frames, stale-nonce screen) and then checks that the answer is a Heads
// frame with one head per mirror shard. Its outcome classes are the
// shard attempt's: retryable weather (timeout, transport error, decode
// failure, a server error echoing a mangled request, a stale nonce) is
// retried under the same backoff; a well-formed wrong answer (another
// frame type, a wrong shard count, a refusing server error) is a protocol
// violation; success lands in SessionStats::heads_fetched.
//
// Recovery semantics:
//
//   * RETRYABLE outcomes — timeouts, transport errors, responses that
//     fail frame decode (line noise is Corruption by contract, never
//     applied), server error frames echoing a mangled request, and stale
//     responses (a reordered or duplicated delivery whose echoed nonce
//     does not match the outstanding request's) — consume one attempt and
//     retry after bounded exponential backoff with deterministic seeded
//     jitter, both measured on the injected Clock.
//   * Every retry re-reads the mirror's StateVector, so a session always
//     resumes from exactly what survived, and when the primary trims the
//     feed past the subscriber mid-retry the next attempt degrades to the
//     snapshot path automatically (the primary decides per request).
//   * PROTOCOL VIOLATIONS — well-formed frames the protocol forbids: a
//     delta that misaligns with the mirror position, double-applied
//     cookies, unexpected frame types, heads for the wrong number of
//     shards, or non-retryable server errors — also retry, but N
//     consecutive violations poison the session: a peer that persistently
//     talks wrong protocol is broken, not slow, and every later call
//     fails FailedPrecondition until the operator replaces the session.
//
// Validate() audits the session's own invariants (rules "session-state",
// "session-accounting", "session-progress"); under -DLISTLAB_VALIDATE=ON
// they re-run after every SyncShard and heads fetch and abort on
// violation, matching the store-layer auto-audit discipline.

#ifndef LTREE_REPLICA_REPLICATION_SESSION_H_
#define LTREE_REPLICA_REPLICATION_SESSION_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "core/validate.h"
#include "replica/clock.h"
#include "replica/transport.h"
#include "replica/wire_format.h"
#include "store/mirror_store.h"

namespace ltree {
namespace replica {

struct SessionOptions {
  /// Identity used when registering the mirror's position with the
  /// primary (subscriber-aware trimming).
  uint64_t subscriber_id = 1;
  /// Deadline handed to Transport::Call for each exchange.
  uint64_t request_timeout_ms = 50;
  /// Attempts per shard per SyncShard call before giving up with
  /// TimedOut. >= 1.
  uint32_t max_attempts = 16;
  /// Backoff before retry k (k >= 2): min(max_backoff_ms,
  /// base_backoff_ms << (k-2)) plus uniform jitter in [0, jitter * that].
  uint64_t base_backoff_ms = 2;
  uint64_t max_backoff_ms = 1000;
  double jitter = 0.25;
  uint64_t jitter_seed = 0x5e55;
  /// Consecutive protocol violations that poison the session. >= 1.
  uint32_t poison_after = 8;
  /// Report the mirror's position to the primary after each successful
  /// round (best-effort; a lost registration only delays trimming).
  bool register_position = true;
};

/// Every attempt — heads or shard — ends in exactly one of these buckets;
/// the "session-accounting" audit rule enforces the partition.
struct SessionStats {
  uint64_t rounds = 0;
  uint64_t attempts = 0;
  uint64_t timeouts = 0;           ///< Transport::Call TimedOut
  uint64_t transport_errors = 0;   ///< other transport-level failures
  uint64_t wire_corruptions = 0;   ///< response failed frame decode
  uint64_t stale_responses = 0;    ///< reordered/duplicated delivery
  uint64_t server_retryable = 0;   ///< error frame echoing a mangled request
  uint64_t protocol_violations = 0;
  uint64_t deltas_applied = 0;
  uint64_t snapshots_applied = 0;
  uint64_t heads_fetched = 0;      ///< heads attempts that succeeded
  uint64_t backoffs = 0;
  uint64_t backoff_ms_total = 0;   ///< as measured on the injected clock
  uint64_t registration_attempts = 0;
  uint64_t registrations = 0;      ///< acked by the primary
};

class ReplicationSession {
 public:
  /// All dependencies are borrowed and must outlive the session.
  ReplicationSession(store::MirrorStore* mirror, Transport* transport,
                     Clock* clock, const SessionOptions& options);

  ReplicationSession(const ReplicationSession&) = delete;
  ReplicationSession& operator=(const ReplicationSession&) = delete;

  /// Catches `shard` up to the primary's head through the transport,
  /// retrying per the options. TimedOut when the retry budget runs out,
  /// FailedPrecondition once poisoned.
  Status SyncShard(uint32_t shard);

  /// One full catch-up round: the heads exchange, SyncShard for every
  /// shard whose head differs from the mirror's position, then
  /// (optionally) position registration. Stops at the first step that
  /// exhausts its retry budget.
  Status SyncRound();

  bool poisoned() const { return poisoned_; }
  const std::string& poison_reason() const { return poison_reason_; }
  uint32_t consecutive_violations() const { return consecutive_violations_; }
  const SessionStats& stats() const { return stats_; }
  const SessionOptions& options() const { return options_; }

  /// Session-invariant audit:
  ///   * "session-state"      — poisoned iff the violation threshold was
  ///     reached, and the live violation streak never exceeds it;
  ///   * "session-accounting" — the attempt-outcome counters partition
  ///     attempts exactly;
  ///   * "session-progress"   — the mirror's StateVector never regressed
  ///     below any position this session successfully applied.
  audit::Report Validate() const;

 private:
  /// Outcome classification of one attempt (see SessionStats).
  enum class Attempt { kApplied, kRetryable, kViolation };

  /// Runs `try_once` under the retry budget and backoff schedule;
  /// `op` names the caller for the auto-audit.
  template <typename TryFn>
  Status WithRetries(const char* op, TryFn try_once);
  /// The front half every attempt shares: counts the attempt, sends
  /// `request` and screens the reply — transport failures, undecodable
  /// bytes, error frames and stale nonces are classified and counted
  /// here. Returns the reply only when it is a non-error frame echoing
  /// `request.nonce`; otherwise sets *outcome and *error.
  std::optional<Frame> Exchange(const Frame& request, Attempt* outcome,
                                Status* error);
  Attempt TryOnce(uint32_t shard, Status* error);
  Attempt TryHeads(std::vector<uint64_t>* heads, Status* error);
  /// Records a protocol violation as the attempt's outcome.
  Attempt Violation(Status violation, Status* error);
  void NoteViolation(const Status& violation);
  uint64_t NextBackoffMs(uint32_t attempt);
  void RegisterPosition();
  void AutoValidate(const char* op) const;

  store::MirrorStore* mirror_;
  Transport* transport_;
  Clock* clock_;
  SessionOptions options_;
  Rng jitter_rng_;
  SessionStats stats_;
  /// Monotonic request-id source; each attempt's nonce must come back in
  /// the response for it to be accepted (exact stale-response screening).
  uint64_t last_nonce_ = 0;
  uint32_t consecutive_violations_ = 0;
  bool poisoned_ = false;
  std::string poison_reason_;
  /// Per-shard high-water mark of successfully applied to_seq — the
  /// "session-progress" audit baseline.
  std::vector<uint64_t> applied_;
};

}  // namespace replica
}  // namespace ltree

#endif  // LTREE_REPLICA_REPLICATION_SESSION_H_
