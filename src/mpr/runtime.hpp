// mpr — a message-passing runtime standing in for MPI.
//
// Focus's distributed algorithms (paper §IV–V) are written against this
// rank/message API exactly as they would be against MPI: SPMD functions
// receive a Comm bound to their rank, exchange typed byte messages, and
// synchronize with barriers. Comm offers only what the drivers call:
// point-to-point send/recv/try_recv, barrier and a flat gather; the
// symmetric simplify builds its all-to-all delta rounds from send and recv
// (dist/parallel.cpp). Ranks execute as preemptively scheduled threads
// inside one process, one OS thread per rank, so a Runtime holds at most
// kMaxRanks ranks; see cost_model.hpp for how virtual time reproduces
// cluster timing behaviour on one shared-memory host, however many cores it
// has.
//
// Determinism contract: recv() requires an explicit (source, tag), all ranks
// call gathers in the same order, and virtual clocks advance only through
// explicit charges and message causality — so a run's makespan is a pure
// function of (algorithm, input, cost model), independent of host scheduling.
//
// Fault model (DESIGN.md §7): a FaultPlan injects crashes, drops, duplicates,
// corruption and delays as a pure function of (seed, rank, op number), so the
// determinism contract extends to faulty runs. Detection is built in:
//   * every frame carries a CRC32 checksum — a corrupted payload surfaces as
//     a typed CorruptMessage error, never a garbage unpack;
//   * recv() from a terminated rank raises RankFailed instead of blocking
//     forever;
//   * try_recv() adds a virtual-time deadline: when the runtime proves no
//     message can ever arrive (the sender died, or every rank is blocked and
//     starved — a terminal configuration), the receive reports kTimeout and
//     charges the deadline to the caller's clock. Terminal configurations of
//     a deterministic program are unique, so timeouts are deterministic too;
//     the guarantee is exact when a single rank (the coordinator) performs
//     timed receives, which is the coordinator/worker pattern of the drivers.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "common/types.hpp"
#include "mpr/cost_model.hpp"
#include "mpr/fault.hpp"
#include "mpr/message.hpp"

namespace focus::mpr {

/// Largest rank count a Runtime accepts: every rank is an OS thread. It
/// equals the FOCUS_THREADS ceiling; the largest bench run uses 32 ranks.
inline constexpr int kMaxRanks = 256;

class Runtime;

/// Aggregate outcome of one SPMD run.
struct RunStats {
  /// Simulated makespan: max over ranks of the final virtual clock (seconds).
  double makespan = 0.0;
  /// Final virtual clock per rank.
  std::vector<double> rank_vtime;
  /// Total delivered point-to-point messages (a gather decomposes into
  /// p2p; dropped messages are not delivered, duplicates count twice).
  std::uint64_t messages = 0;
  /// Total payload bytes delivered.
  std::uint64_t bytes = 0;
  /// Real wall-clock duration of the run (host-dependent; for reference).
  double wall_seconds = 0.0;
  /// Phase replays performed by recovery drivers (Comm::note_retry).
  std::uint64_t retries = 0;
  /// Ranks that died of injected faults (RankFailed) while a plan was active.
  int ranks_failed = 0;
  /// Virtual time spent on failure detection and recovery: timed-out receive
  /// deadlines plus explicit Comm::charge_recovery backoff.
  double recovery_vtime = 0.0;
};

/// Outcome of a timed receive.
enum class RecvStatus { kOk, kTimeout, kCorrupt };

struct RecvResult {
  RecvStatus status = RecvStatus::kOk;
  Message msg;
};

/// Per-rank communication handle passed to the SPMD function.
class Comm {
 public:
  Rank rank() const { return rank_; }
  int size() const;
  const CostModel& cost() const;

  /// Advance this rank's virtual clock by `work_units` of compute.
  void charge(double work_units);

  /// Advance this rank's virtual clock by raw seconds.
  void advance_vtime(double seconds);

  double vtime() const { return clock_; }

  /// Asynchronous (eager) send. Charges the sender one message latency of
  /// CPU overhead; the payload arrives at the receiver no earlier than
  /// send_clock + alpha + beta * bytes.
  void send(Rank dst, int tag, Message msg);

  /// Blocking receive of the next message from (src, tag), in send order.
  /// Throws CorruptMessage on a checksum mismatch and RankFailed when the
  /// sender terminated without the message ever arriving.
  Message recv(Rank src, int tag);

  /// Receive with failure detection: returns kTimeout (charging
  /// `timeout_vtime` to this rank's clock and the run's recovery_vtime)
  /// once the runtime proves no message from (src, tag) can ever arrive,
  /// and kCorrupt instead of throwing on a checksum mismatch.
  RecvResult try_recv(Rank src, int tag, double timeout_vtime);

  /// Record one recovery retry (phase replay) in RunStats::retries.
  void note_retry();

  /// Advance this rank's clock by recovery backoff, charged to
  /// RunStats::recovery_vtime.
  void charge_recovery(double seconds);

  /// Synchronize all *live* ranks; clocks advance to the global max plus a
  /// log2(p) tree latency. Ranks that terminated are not waited for.
  void barrier();

  /// Flat gather; at root returns size() messages ordered by rank,
  /// elsewhere returns an empty vector.
  std::vector<Message> gather(Message local, Rank root);

 private:
  friend class Runtime;
  Comm(Runtime* rt, Rank rank) : rt_(rt), rank_(rank) {}

  /// Advances the op counter and consults the fault plan; throws RankFailed
  /// on a crash decision. No-op (and no counter advance) with an empty plan.
  FaultDecision fault_point(const char* op_name);

  Runtime* rt_;
  Rank rank_;
  double clock_ = 0.0;
  std::uint32_t gather_seq_ = 0;
  std::uint64_t op_seq_ = 0;
};

/// Owns the mailboxes and barrier; executes SPMD functions over n ranks.
class Runtime {
 public:
  /// Throws focus::Error unless 1 <= nranks <= kMaxRanks; the check runs
  /// before any rank thread exists.
  explicit Runtime(int nranks, CostModel cost = {}, FaultPlan plan = {});

  int size() const { return nranks_; }
  const CostModel& cost() const { return cost_; }
  const FaultPlan& plan() const { return plan_; }

  /// Runs fn on every rank (as threads), joins, and returns timing stats.
  ///
  /// Error aggregation: if ranks threw, the lowest-rank exception is the
  /// primary — rethrown as-is when it is the only one, otherwise wrapped in
  /// a composite Error whose message lists every failed rank and its
  /// what(). While a fault plan is active, RankFailed exceptions are the
  /// expected injected outcome: they are counted in RunStats::ranks_failed
  /// and excluded from the composite (recovery is the drivers' job).
  ///
  /// If a rank thread cannot be started, the unstarted ranks are terminated
  /// as failed (so started peers blocked on them wake), the started threads
  /// are joined, and a focus::Error naming the rank is thrown.
  RunStats run(const std::function<void(Comm&)>& fn);

  /// One-shot convenience: Runtime(nranks, cost, plan).run(fn).
  static RunStats execute(int nranks, const std::function<void(Comm&)>& fn,
                          CostModel cost = {}, FaultPlan plan = {});

 private:
  friend class Comm;

  enum class RankState : std::uint8_t {
    kRunning,
    kBlockedRecv,
    kBlockedBarrier,
    kDone,
    kFailed,
  };

  enum class TakeStatus { kGot, kTimeout };

  struct Envelope {
    Message payload;
    double arrival_floor;  // sender clock at send + alpha + beta * bytes
    std::uint32_t crc;     // checksum taken before fault injection
  };

  struct Mailbox {
    std::condition_variable cv;  // waits on Runtime::mu_
    std::map<std::pair<Rank, int>, std::deque<Envelope>> queues;
  };

  void deliver(Rank dst, Rank src, int tag, Envelope env);
  TakeStatus take(Rank self, Rank src, int tag, bool timed, Envelope* out);
  void barrier_wait(Comm& comm);
  void finish_rank(Rank rank, bool failed);
  void corrupt_payload(Message& msg, Rank rank, std::uint64_t op) const;
  void note_recovery(std::uint64_t retries, double vtime);

  /// Must hold mu_. If the configuration is terminal (no rank can make
  /// progress), fire every starved timed receive as one deterministic batch.
  void detect_deadlock_locked();

  /// Must hold mu_. Releases the barrier generation and wakes the waiters.
  void release_barrier_locked();

  bool terminated_locked(Rank r) const {
    return rank_state_[static_cast<std::size_t>(r)] == RankState::kDone ||
           rank_state_[static_cast<std::size_t>(r)] == RankState::kFailed;
  }

  int nranks_;
  CostModel cost_;
  FaultPlan plan_;
  bool plan_active_;

  // One mutex guards mailboxes, rank states, the barrier and the counters:
  // the runtime simulates a cluster, it is not itself a hot path, and a
  // single lock makes the deadlock/quiescence detection a consistent
  // snapshot by construction.
  std::mutex mu_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::vector<RankState> rank_state_;
  std::vector<std::pair<Rank, int>> awaited_;  // key a kBlockedRecv rank waits on
  std::vector<std::uint8_t> timed_wait_;       // that wait has a deadline
  std::vector<std::uint8_t> timeout_fired_;    // deadline fired; consume on wake
  int active_count_ = 0;

  std::condition_variable barrier_cv_;
  int barrier_count_ = 0;
  std::uint64_t barrier_generation_ = 0;
  double barrier_max_clock_ = 0.0;
  double barrier_release_clock_ = 0.0;

  std::uint64_t stat_messages_ = 0;
  std::uint64_t stat_bytes_ = 0;
  std::uint64_t stat_retries_ = 0;
  double stat_recovery_vtime_ = 0.0;
};

}  // namespace focus::mpr
