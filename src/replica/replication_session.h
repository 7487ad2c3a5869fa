// ReplicationSession: a fault-tolerant subscriber driving a MirrorStore
// over a byte transport.
//
// PR 7 proved mirror convergence over in-process function calls; this
// session proves it across a boundary that drops, duplicates, reorders,
// truncates and bit-flips bytes. One SyncShard attempt is:
//
//   encode CatchUpRequest(shard, position) -> Transport::Call with a
//   per-request timeout -> decode the response -> classify -> apply.
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
//     cookies, unexpected frame types, or non-retryable server errors —
//     also retry, but N consecutive violations poison the session: a
//     peer that persistently talks wrong protocol is broken, not slow,
//     and every later call fails FailedPrecondition until the operator
//     replaces the session.
//
// Validate() audits the session's own invariants (rules "session-state",
// "session-accounting", "session-progress"); under -DLISTLAB_VALIDATE=ON
// they re-run after every SyncShard and abort on violation, matching the
// store-layer auto-audit discipline.

#ifndef LTREE_REPLICA_REPLICATION_SESSION_H_
#define LTREE_REPLICA_REPLICATION_SESSION_H_

#include <cstdint>
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

/// Every attempt ends in exactly one of these buckets; the
/// "session-accounting" audit rule enforces the partition.
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

  /// One full catch-up round: every shard, then (optionally) position
  /// registration. Stops at the first shard that exhausts its budget.
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

  Attempt TryOnce(uint32_t shard, Status* error);
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
