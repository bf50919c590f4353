// Fault model for the mpr runtime (DESIGN.md §7).
//
// A FaultPlan is a *pure function* of (seed, rank, op-sequence-number): every
// communication op a rank performs (send, recv, barrier — collectives
// decompose into these) advances a per-rank op counter, and the plan is
// consulted at each op. Because the op sequence of a rank is itself
// deterministic (see the determinism contract in runtime.hpp), the injected
// fault schedule — and therefore the recovery work, the virtual-time cost and
// the final RunStats — is bit-for-bit reproducible from the seed alone.
//
// Failure taxonomy injected here and detected by the runtime:
//   * rank crash        -> RankFailed thrown at the chosen op
//   * message drop      -> payload never enqueued; receiver times out
//   * message duplicate -> payload enqueued twice; protocol frames carry
//                          (phase, round) headers so stale copies are discarded
//   * payload corruption-> a byte is flipped after the CRC32 frame checksum is
//                          taken; the receiver surfaces CorruptMessage
//   * message delay     -> the arrival floor moves later in virtual time
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace focus {
struct EnvSnapshot;
}

namespace focus::mpr {

/// A rank died — either the fault plan crashed it at this op, or it cannot
/// make progress because a peer it depends on terminated. Runtime::run counts
/// these in RunStats::ranks_failed (instead of rethrowing) while a fault plan
/// is active; with no plan they are real errors.
class RankFailed : public Error {
 public:
  explicit RankFailed(const std::string& what) : Error(what) {}
};

/// The calling rank itself was crashed by the fault plan (thrown from
/// Comm::fault_point). A subclass so Runtime::run's accounting still sees a
/// RankFailed, but drivers that catch RankFailed to detect a *peer's* death
/// (the symmetric coordinator rotation) can let their own crash propagate.
class RankCrashed : public RankFailed {
 public:
  explicit RankCrashed(const std::string& what) : RankFailed(what) {}
};

/// A received frame failed its CRC32 checksum. Thrown by Comm::recv; reported
/// as RecvStatus::kCorrupt by Comm::try_recv so drivers can retry.
class CorruptMessage : public Error {
 public:
  explicit CorruptMessage(const std::string& what) : Error(what) {}
};

/// CRC32 (IEEE, reflected) over a byte range — the frame checksum.
std::uint32_t crc32(const std::uint8_t* data, std::size_t n);

/// What the plan decided for one (rank, op). At most one of the message
/// faults applies per send; a crash pre-empts everything.
struct FaultDecision {
  bool crash = false;
  bool drop = false;
  bool duplicate = false;
  bool corrupt = false;
  double delay = 0.0;  // extra virtual seconds added to the arrival floor
};

/// Deterministic crash point: rank `rank` throws RankFailed at its `op`-th
/// communication op (1-based). Used by the crash-at-every-op sweep.
struct CrashPoint {
  Rank rank = -1;
  std::uint64_t op = 0;
};

struct FaultPlan {
  /// Seed for the per-(rank, op) hash stream. Two runs with the same seed,
  /// rates and program execute the identical fault schedule.
  std::uint64_t seed = 0;

  /// Per-op fault probabilities (evaluated independently, in this order;
  /// the first that fires wins for that op).
  double p_crash = 0.0;
  double p_drop = 0.0;
  double p_duplicate = 0.0;
  double p_corrupt = 0.0;
  double p_delay = 0.0;
  /// Virtual-time delay applied when a delay fault fires.
  double delay_vtime = 1e-4;

  /// Explicit crash points, checked before the probabilistic stream.
  std::vector<CrashPoint> crashes;

  /// An empty plan injects nothing: the runtime counts no ops and makes no
  /// fault decisions. Partition, traverse and variants still run their
  /// recovering driver, with identical output. Preprocess and simplify keep
  /// a fault-free path for an empty plan, because their recovering drivers
  /// cost too much without faults: preprocess's write-ahead log replicates
  /// the whole read set (+1.2% total vtime at 8 symmetric ranks), and
  /// simplify's owner-computes path is the Fig. 6 trim curve.
  bool empty() const {
    return crashes.empty() && p_crash == 0.0 && p_drop == 0.0 &&
           p_duplicate == 0.0 && p_corrupt == 0.0 && p_delay == 0.0;
  }

  /// Pure decision function for rank `rank`'s op number `op` (1-based).
  FaultDecision decide(Rank rank, std::uint64_t op) const;

  /// Plan from FOCUS_FAULT_SEED / FOCUS_FAULT_{CRASH,DROP,DUP,CORRUPT,DELAY}
  /// environment variables; empty when FOCUS_FAULT_SEED is unset.
  static FaultPlan from_env();
  /// Same, resolved against an already-captured snapshot (FocusConfig takes
  /// one snapshot and derives every env default from it).
  static FaultPlan from_env(const EnvSnapshot& env);
};

/// Recovery knobs for the fault-tolerant distributed drivers.
struct FaultConfig {
  /// Bound on phase replays: after this many failed rounds of one phase the
  /// coordinator gives up and throws.
  int max_retries = 8;
  /// Virtual-time deadline charged per timed-out receive; also the base unit
  /// of the linear retry backoff charged to the coordinator's clock.
  double recv_timeout_vtime = 1e-3;

  /// Config from FOCUS_FAULT_MAX_RETRIES / FOCUS_FAULT_RECV_TIMEOUT; unset
  /// variables keep the defaults, malformed ones throw with the offending
  /// value.
  static FaultConfig from_env();
  /// Same, resolved against an already-captured snapshot.
  static FaultConfig from_env(const EnvSnapshot& env);
};

}  // namespace focus::mpr
