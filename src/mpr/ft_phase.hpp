// The recovering phase engine (DESIGN.md §7 / §7b). Every recovering stage
// (preprocess, overlap, partition, simplify, traverse, variants) runs both
// wire protocols through this one collect/apply loop:
//
//  * A coordinator commands scans over replayable partitions, collects
//    CRC-framed records, detects dead workers by quiescence timeout and
//    replays the phase with orphaned partitions reassigned round-robin over
//    the live ranks, bounded by FaultConfig::max_retries. Each completed
//    phase is committed to a PhaseLog.
//  * symmetric (§7b): the log is replicated (each commit charges one message
//    per other live rank) and coordination is a role: on the coordinator's
//    death the lowest surviving rank takes over, fast-forwards through the
//    log and resumes at the first uncommitted phase.
//  * master (§7, the paper's §V protocol): the same loop with the
//    coordinator fixed at rank 0 and the log kept local. Commits charge
//    nothing, and a worker that loses rank 0 fails instead of taking over.
//
// A run in which no coordinator finishes (master: rank 0 died; symmetric:
// every rank died) throws from ft_execute instead of returning a partial
// result.
//
// Commands and record frames flow over two user tags. Every scan command
// carries a monotone sequence number (workers discard duplicated commands
// without re-scanning) and every record frame carries its (phase, round) so
// stale frames from failed rounds are discarded.
//
// Two extensions over a plain scatter/gather:
//  * FtOrder — the canonical order collected records are returned in.
//    kRankMajor reproduces the fault-free gather order of the graph drivers
//    (partitions sorted by (p % size, p)); kAscending returns plain
//    partition order, which is what block-decomposed drivers (preprocess
//    read blocks, bisection regions) need to match their serial output byte
//    for byte.
//  * an optional per-partition state blob packed into scan commands
//    (pack_state / worker-side unpack hook), for drivers whose scan inputs
//    evolve across phases (the mlpart region lists): workers stay stateless
//    and every scan is a pure function of the command payload, so replays
//    need no shared-state reconciliation.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <vector>

#include "common/error.hpp"
#include "mpr/fault.hpp"
#include "mpr/message.hpp"
#include "mpr/runtime.hpp"

namespace focus::mpr {

// Wire tags of the engine; each driver runs in its own Runtime, so the tags
// are shared across stages and protocols without collision.
inline constexpr int kFtCommandTag = 120;
inline constexpr int kFtRecordTag = 121;
inline constexpr std::uint32_t kFtCmdScan = 1;
inline constexpr std::uint32_t kFtCmdDone = 2;

/// Canonical order of collected per-partition records (see header comment).
enum class FtOrder { kRankMajor, kAscending };

/// Optional hook appending partition `p`'s scan state to a command frame.
using FtPackState = std::function<void(std::uint32_t p, Message&)>;
/// Worker-side mirror: consume partition `p`'s state from the command.
using FtUnpackState =
    std::function<void(std::uint32_t phase, std::uint32_t p, Message&)>;

/// Partition assignment for one round: every partition goes to its original
/// owner (id mod nranks) when that rank is live; partitions orphaned by dead
/// ranks are redistributed round-robin over the live ranks (coordinator
/// included), in ascending rank order — a pure function of the live set, so
/// replays are deterministic. The coordinating rank is always in the live
/// set, so at least one rank is available.
inline std::vector<std::vector<std::uint32_t>> ft_assign(
    std::uint32_t nparts, const std::vector<std::uint8_t>& live, int size) {
  std::vector<std::vector<std::uint32_t>> parts_for_rank(
      static_cast<std::size_t>(size));
  std::vector<int> live_ranks;
  for (int r = 0; r < size; ++r) {
    if (live[static_cast<std::size_t>(r)]) live_ranks.push_back(r);
  }
  std::vector<std::uint32_t> orphans;
  for (std::uint32_t p = 0; p < nparts; ++p) {
    const int owner = static_cast<int>(p % static_cast<std::uint32_t>(size));
    if (live[static_cast<std::size_t>(owner)]) {
      parts_for_rank[static_cast<std::size_t>(owner)].push_back(p);
    } else {
      orphans.push_back(p);
    }
  }
  for (std::size_t i = 0; i < orphans.size(); ++i) {
    parts_for_rank[static_cast<std::size_t>(live_ranks[i % live_ranks.size()])]
        .push_back(orphans[i]);
  }
  return parts_for_rank;
}

namespace detail {

/// Canonical emission of the per-partition record slots.
template <typename Rec>
std::vector<Rec> ft_emit(std::vector<std::optional<Rec>>& by_part, int size,
                         FtOrder order) {
  const auto nparts = static_cast<std::uint32_t>(by_part.size());
  std::vector<Rec> out;
  out.reserve(by_part.size());
  const auto take = [&](std::uint32_t p) {
    auto& slot = by_part[p];
    FOCUS_CHECK(slot.has_value(), "partition missing from phase records");
    out.push_back(std::move(*slot));
  };
  if (order == FtOrder::kAscending) {
    for (std::uint32_t p = 0; p < nparts; ++p) take(p);
  } else {
    for (int r = 0; r < size; ++r) {
      for (std::uint32_t p = static_cast<std::uint32_t>(r); p < nparts;
           p += static_cast<std::uint32_t>(size)) {
        take(p);
      }
    }
  }
  return out;
}

}  // namespace detail

/// The committed phases of one run, shared by all ranks. Symmetric runs
/// replicate it (`replicated`): the mutex stands in for the
/// replicated-storage commit protocol, and `live` and `cmd_seq` ride along so
/// a successor inherits the failure detector's state and the command-sequence
/// high-water mark (workers discard stale duplicates by sequence number, so
/// the counter must survive the coordinator). Master runs keep it local to
/// rank 0, which never hands it on. `finished` records that a coordinator
/// returned from its body.
struct PhaseLog {
  struct Entry {
    Message payload;                  // canonical records, applied order
    std::vector<std::size_t> counts;  // driver-defined per-phase counters
  };
  PhaseLog(int nranks, bool replicate)
      : replicated(replicate), live(static_cast<std::size_t>(nranks), 1) {}

  const bool replicated;
  std::mutex mu;
  std::vector<std::uint8_t> live;
  std::uint64_t cmd_seq = 0;
  std::vector<Entry> entries;
  bool finished = false;
};

/// Durably commit one completed phase. A replicated log charges the writer
/// one message of the entry's size per other live rank.
inline void ft_commit(Comm& comm, PhaseLog& log, PhaseLog::Entry entry) {
  const std::size_t bytes = entry.payload.size_bytes();
  int nlive = 0;
  {
    std::lock_guard<std::mutex> lock(log.mu);
    for (const auto l : log.live) nlive += l;
    log.entries.push_back(std::move(entry));
  }
  if (log.replicated) {
    comm.advance_vtime(static_cast<double>(nlive - 1) *
                       comm.cost().message_cost(bytes));
  }
}

/// One scan-and-collect phase, run by whichever rank currently coordinates.
/// Returns the per-partition records in the canonical order selected by
/// `order` — so downstream applies see the exact record sequence of a
/// fault-free run, regardless of which surviving rank actually scanned each
/// partition. Replays the whole phase on a worker timeout (marking it dead
/// in the log) or a corrupt frame (worker stays live), up to
/// FaultConfig::max_retries replays.
template <typename Rec>
std::vector<Rec> ft_collect(
    Comm& comm, PhaseLog& log, std::uint32_t nparts, std::uint32_t phase,
    const FaultConfig& fault,
    const std::function<Rec(std::uint32_t, double*)>& scan_one,
    const std::function<Rec(Message&)>& unpack_one,
    FtOrder order = FtOrder::kRankMajor,
    const FtPackState& pack_state = nullptr) {
  const int size = comm.size();
  const int self = comm.rank();
  for (std::uint32_t round = 0;; ++round) {
    FOCUS_CHECK(static_cast<int>(round) <= fault.max_retries,
                "fault recovery exhausted max_retries replays of a phase");
    std::vector<std::uint8_t> live;
    {
      std::lock_guard<std::mutex> lock(log.mu);
      live = log.live;
    }
    const auto assign = ft_assign(nparts, live, size);
    for (int r = 0; r < size; ++r) {
      if (r == self || !live[static_cast<std::size_t>(r)]) continue;
      Message cmd;
      cmd.pack(kFtCmdScan);
      {
        std::lock_guard<std::mutex> lock(log.mu);
        cmd.pack(++log.cmd_seq);
      }
      cmd.pack(phase);
      cmd.pack(round);
      cmd.pack_vector(assign[static_cast<std::size_t>(r)]);
      if (pack_state) {
        for (const std::uint32_t p : assign[static_cast<std::size_t>(r)]) {
          pack_state(p, cmd);
        }
      }
      comm.send(r, kFtCommandTag, std::move(cmd));
    }

    std::vector<std::optional<Rec>> by_part(static_cast<std::size_t>(nparts));
    double work = 0.0;
    for (const std::uint32_t p : assign[static_cast<std::size_t>(self)]) {
      by_part[p] = scan_one(p, &work);
    }
    comm.charge(work);

    bool failed = false;
    for (int r = 0; r < size && !failed; ++r) {
      if (r == self || !live[static_cast<std::size_t>(r)]) continue;
      for (;;) {
        auto res = comm.try_recv(r, kFtRecordTag, fault.recv_timeout_vtime);
        if (res.status == RecvStatus::kTimeout) {
          std::lock_guard<std::mutex> lock(log.mu);
          log.live[static_cast<std::size_t>(r)] = 0;
          failed = true;
          break;
        }
        if (res.status == RecvStatus::kCorrupt) {
          failed = true;  // frame lost in transit; the worker itself is fine
          break;
        }
        const auto fphase = res.msg.unpack<std::uint32_t>();
        const auto fround = res.msg.unpack<std::uint32_t>();
        const auto count = res.msg.unpack<std::uint32_t>();
        if (fphase != phase || fround != round) continue;  // stale frame
        for (std::uint32_t i = 0; i < count; ++i) {
          const auto p = res.msg.unpack<std::uint32_t>();
          FOCUS_CHECK(p < nparts, "record frame names an invalid partition");
          by_part[p] = unpack_one(res.msg);
        }
        FOCUS_CHECK(res.msg.fully_consumed(),
                    "trailing bytes in record frame");
        break;
      }
    }
    if (failed) {
      comm.note_retry();
      comm.charge_recovery(fault.recv_timeout_vtime *
                           static_cast<double>(round + 1));
      continue;
    }
    return detail::ft_emit(by_part, size, order);
  }
}

/// The drive loop every rank runs. Each rank serves scan commands from
/// whichever rank it currently believes coordinates, starting at rank 0:
/// `scan_and_pack(phase, partition, frame, work)` runs one partition's
/// read-only scan and appends its records to the frame, after
/// `unpack_state` (when the coordinator packs per-partition state into
/// commands) has consumed each assigned partition's state. The rank that
/// coordinates runs `coordinate(phase_start)`, which starts after the last
/// committed phase of the log.
///
/// On proof of the coordinator's death (a receive from a terminated rank
/// throwing), a rank of a replicated log rotates to the lowest rank it has
/// not proven dead. Rank order is the succession order, so at most one live
/// rank can believe itself coordinator: a rank self-appoints only after
/// proving every lower rank terminated, and every higher live rank then
/// blocks on the true coordinator or on a terminated rank it is about to
/// prove dead — never on a live non-coordinator. Without a replicated log
/// nobody can take over, so the rank fails with the coordinator.
inline void ft_drive(
    Comm& comm, PhaseLog& log, const FaultConfig& fault,
    const std::function<void(std::uint32_t, std::uint32_t, Message&,
                             double*)>& scan_and_pack,
    const std::function<void(std::uint32_t)>& coordinate,
    const FtUnpackState& unpack_state = nullptr) {
  const int size = comm.size();
  const int self = comm.rank();
  int coord = 0;
  std::vector<std::uint8_t> proven_dead(static_cast<std::size_t>(size), 0);
  std::uint64_t last_seq = 0;
  while (coord != self) {
    Message cmd;
    try {
      cmd = comm.recv(coord, kFtCommandTag);
    } catch (const CorruptMessage& e) {
      // A command this rank cannot decode means it cannot follow the
      // protocol any more: fail the rank and let the coordinator reassign.
      throw RankFailed(e.what());
    } catch (const RankCrashed&) {
      throw;  // this rank's own injected crash, not a peer's death
    } catch (const RankFailed&) {
      if (!log.replicated) throw;
      proven_dead[static_cast<std::size_t>(coord)] = 1;
      int next = self;
      for (int r = 0; r < size; ++r) {
        if (r == self || !proven_dead[static_cast<std::size_t>(r)]) {
          next = r;
          break;
        }
      }
      coord = next;
      continue;
    }
    const auto kind = cmd.unpack<std::uint32_t>();
    if (kind == kFtCmdDone) {
      FOCUS_CHECK(cmd.fully_consumed(), "trailing bytes in done command");
      return;
    }
    FOCUS_CHECK(kind == kFtCmdScan, "unknown command kind");
    const auto seq = cmd.unpack<std::uint64_t>();
    const auto phase = cmd.unpack<std::uint32_t>();
    const auto round = cmd.unpack<std::uint32_t>();
    const auto parts = cmd.unpack_vector<std::uint32_t>();
    if (unpack_state) {
      for (const std::uint32_t p : parts) unpack_state(phase, p, cmd);
    }
    FOCUS_CHECK(cmd.fully_consumed(), "trailing bytes in scan command");
    if (seq <= last_seq) continue;  // duplicated command; already executed
    last_seq = seq;

    Message frame;
    frame.pack(phase);
    frame.pack(round);
    frame.pack(static_cast<std::uint32_t>(parts.size()));
    double work = 0.0;
    for (const std::uint32_t p : parts) {
      frame.pack(p);
      scan_and_pack(phase, p, frame, &work);
    }
    comm.charge(work);
    comm.send(coord, kFtRecordTag, std::move(frame));
  }

  // Coordinator (rank 0 initially, or a successor after rotation): join the
  // log's live set — a successor may have been declared dead by a timeout it
  // survived — absorb this rank's own death proofs, and resume after the
  // last committed phase.
  std::uint32_t phase_start = 0;
  std::size_t log_bytes = 0;
  {
    std::lock_guard<std::mutex> lock(log.mu);
    for (int r = 0; r < size; ++r) {
      if (proven_dead[static_cast<std::size_t>(r)]) {
        log.live[static_cast<std::size_t>(r)] = 0;
      }
    }
    log.live[static_cast<std::size_t>(self)] = 1;
    phase_start = static_cast<std::uint32_t>(log.entries.size());
    for (const auto& e : log.entries) log_bytes += e.payload.size_bytes();
  }
  if (self != 0) {
    // A successor fetches the committed log from replicated storage and
    // fast-forwards through it before commanding anything.
    comm.charge_recovery(fault.recv_timeout_vtime +
                         comm.cost().message_cost(log_bytes));
  }
  coordinate(phase_start);

  // Release every rank still in the log's live set (sends to ranks that
  // already terminated are harmless).
  std::vector<std::uint8_t> live;
  {
    std::lock_guard<std::mutex> lock(log.mu);
    log.finished = true;
    live = log.live;
  }
  for (int r = 0; r < size; ++r) {
    if (r == self || !live[static_cast<std::size_t>(r)]) continue;
    Message done;
    done.pack(kFtCmdDone);
    comm.send(r, kFtCommandTag, std::move(done));
  }
}

/// Runs `rank_body` on `nranks` ranks over a fresh PhaseLog (replicated for
/// the symmetric protocol) and returns the run's stats. Every rank must run
/// ft_drive on the log. Throws focus::Error when no coordinator finished:
/// the master protocol's rank 0 died, or every rank of a symmetric run did.
inline RunStats ft_execute(
    int nranks, bool replicated, CostModel cost, const FaultPlan& plan,
    const std::function<void(Comm&, PhaseLog&)>& rank_body) {
  FOCUS_CHECK(nranks >= 1, "need at least one rank");
  PhaseLog log(nranks, replicated);
  RunStats stats = Runtime::execute(
      nranks, [&](Comm& comm) { rank_body(comm, log); }, cost, plan);
  if (!log.finished) {
    FOCUS_THROW(replicated
                    ? "no coordinator survived: every rank died before the "
                      "phase log was complete"
                    : "the master protocol's coordinator (rank 0) died; its "
                      "role is fixed, so no rank could finish the run");
  }
  return stats;
}

}  // namespace focus::mpr
