// Fault model tests (DESIGN.md §7): deterministic fault schedules, failure
// detection in the runtime (timeouts, CRC, composite errors), and exact
// recovery by the fault-tolerant distributed drivers.
#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "dist/parallel.hpp"
#include "dist/variants.hpp"
#include "graph/coarsen.hpp"
#include "io/preprocess.hpp"
#include "mpr/fault.hpp"
#include "mpr/runtime.hpp"
#include "partition/mlpart.hpp"
#include "sim/datasets.hpp"

namespace focus {
namespace {

using dist::AsmGraph;
using dist::SimplifyConfig;
using dist::SimplifyStats;

// --- Fault plan determinism -------------------------------------------------

TEST(FaultPlan, EmptyByDefaultAndPure) {
  mpr::FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  plan.seed = 42;
  EXPECT_TRUE(plan.empty()) << "a seed alone injects nothing";
  plan.p_drop = 0.5;
  EXPECT_FALSE(plan.empty());
  for (Rank r = 0; r < 4; ++r) {
    for (std::uint64_t op = 1; op <= 64; ++op) {
      const auto a = plan.decide(r, op);
      const auto b = plan.decide(r, op);
      EXPECT_EQ(a.drop, b.drop) << "decide must be pure";
    }
  }
}

TEST(FaultPlan, CrashPointFiresExactlyAtItsOp) {
  mpr::FaultPlan plan;
  plan.crashes.push_back({1, 3});
  EXPECT_FALSE(plan.empty());
  EXPECT_TRUE(plan.decide(1, 3).crash);
  EXPECT_FALSE(plan.decide(1, 2).crash);
  EXPECT_FALSE(plan.decide(1, 4).crash);
  EXPECT_FALSE(plan.decide(2, 3).crash);
}

TEST(FaultPlan, DifferentSeedsGiveDifferentSchedules) {
  mpr::FaultPlan a, b;
  a.seed = 1;
  b.seed = 2;
  a.p_drop = b.p_drop = 0.5;
  int differs = 0;
  for (std::uint64_t op = 1; op <= 256; ++op) {
    if (a.decide(0, op).drop != b.decide(0, op).drop) ++differs;
  }
  EXPECT_GT(differs, 32);
}

// --- CRC32 and hostile message lengths --------------------------------------

TEST(Crc32, MatchesIeeeCheckValue) {
  const std::string check = "123456789";
  EXPECT_EQ(mpr::crc32(reinterpret_cast<const std::uint8_t*>(check.data()),
                       check.size()),
            0xcbf43926u);
  EXPECT_EQ(mpr::crc32(nullptr, 0), 0u);
}

TEST(MessageHardening, HostileVectorLengthRejectedBeforeAllocation) {
  mpr::Message msg;
  // A corrupted 8-byte length prefix claiming ~1 exabyte of payload.
  msg.pack(static_cast<std::uint64_t>(1) << 60);
  msg.pack(std::uint32_t{7});
  EXPECT_THROW(msg.unpack_vector<std::uint64_t>(), Error);
}

TEST(MessageHardening, HostileStringLengthRejectedBeforeAllocation) {
  mpr::Message msg;
  msg.pack(static_cast<std::uint64_t>(1) << 60);
  EXPECT_THROW(msg.unpack_string(), Error);
}

TEST(MessageHardening, VectorLengthMustMatchRemainderExactly) {
  mpr::Message msg;
  msg.pack(std::uint64_t{3});               // claims 3 elements…
  msg.pack_vector(std::vector<int>{1, 2});  // …but fewer bytes follow
  EXPECT_THROW(msg.unpack_vector<std::uint64_t>(), Error);
}

TEST(MessageHardening, HostileElementCountRejectedBeforeAllocation) {
  // A corrupted u32 count claiming ~4 G sub-paths of at least 8 bytes each,
  // ahead of a 20-byte remainder.
  mpr::Message hostile;
  hostile.pack(std::uint32_t{0xffffffffu});
  hostile.pack_vector(std::vector<NodeId>{1, 2, 3});
  EXPECT_THROW(hostile.unpack_count(sizeof(std::uint64_t)), Error);

  // Two sub-paths, one of them empty: exactly 8 bytes each at the least.
  mpr::Message fits;
  fits.pack(std::uint32_t{2});
  fits.pack_vector(std::vector<NodeId>{7});
  fits.pack_vector(std::vector<NodeId>{});
  EXPECT_EQ(fits.unpack_count(sizeof(std::uint64_t)), 2u);
}

// --- Runtime failure detection ----------------------------------------------

TEST(RuntimeFault, RecvThrowsCorruptMessageOnChecksumMismatch) {
  mpr::FaultPlan plan;
  plan.seed = 7;
  plan.p_corrupt = 1.0;
  EXPECT_THROW(
      mpr::Runtime::execute(
          2,
          [](mpr::Comm& comm) {
            if (comm.rank() == 1) {
              mpr::Message msg;
              msg.pack_vector(std::vector<int>{1, 2, 3});
              comm.send(0, 5, std::move(msg));
            } else {
              comm.recv(1, 5);
            }
          },
          {}, plan),
      mpr::CorruptMessage);
}

TEST(RuntimeFault, TryRecvReportsCorruptInsteadOfThrowing) {
  mpr::FaultPlan plan;
  plan.seed = 7;
  plan.p_corrupt = 1.0;
  mpr::RecvStatus status = mpr::RecvStatus::kOk;
  const auto stats = mpr::Runtime::execute(
      2,
      [&](mpr::Comm& comm) {
        if (comm.rank() == 1) {
          mpr::Message msg;
          msg.pack_vector(std::vector<int>{1, 2, 3});
          comm.send(0, 5, std::move(msg));
        } else {
          status = comm.try_recv(1, 5, 1.0).status;
        }
      },
      {}, plan);
  EXPECT_EQ(status, mpr::RecvStatus::kCorrupt);
  EXPECT_EQ(stats.ranks_failed, 0);
}

TEST(RuntimeFault, TimedRecvTimesOutOnTerminatedSender) {
  double vtime_after = -1.0;
  mpr::RecvStatus status = mpr::RecvStatus::kOk;
  const auto stats = mpr::Runtime::execute(2, [&](mpr::Comm& comm) {
    if (comm.rank() == 0) {
      const auto res = comm.try_recv(1, 7, 0.25);
      status = res.status;
      vtime_after = comm.vtime();
    }
    // Rank 1 terminates without ever sending.
  });
  EXPECT_EQ(status, mpr::RecvStatus::kTimeout);
  EXPECT_DOUBLE_EQ(vtime_after, 0.25) << "deadline charged to the clock";
  EXPECT_DOUBLE_EQ(stats.recovery_vtime, 0.25);
}

TEST(RuntimeFault, TimedRecvTimesOutOnQuiescence) {
  // Rank 1 is alive but blocked on a message rank 0 has not sent: the
  // configuration is terminal, so rank 0's deadline must fire — after which
  // rank 0 unblocks rank 1 and both finish cleanly.
  mpr::RecvStatus status = mpr::RecvStatus::kOk;
  const auto stats = mpr::Runtime::execute(2, [&](mpr::Comm& comm) {
    if (comm.rank() == 0) {
      status = comm.try_recv(1, 7, 0.5).status;
      mpr::Message msg;
      msg.pack(std::uint32_t{1});
      comm.send(1, 8, std::move(msg));
    } else {
      auto msg = comm.recv(0, 8);
      EXPECT_EQ(msg.unpack<std::uint32_t>(), 1u);
    }
  });
  EXPECT_EQ(status, mpr::RecvStatus::kTimeout);
  EXPECT_DOUBLE_EQ(stats.recovery_vtime, 0.5);
  EXPECT_EQ(stats.ranks_failed, 0);
}

TEST(RuntimeFault, UntimedRecvFromDeadRankThrowsRankFailed) {
  EXPECT_THROW(mpr::Runtime::execute(2,
                                     [](mpr::Comm& comm) {
                                       if (comm.rank() == 0) {
                                         comm.recv(1, 3);
                                       }
                                     }),
               mpr::RankFailed);
}

TEST(RuntimeFault, CompositeErrorListsEveryFailedRank) {
  try {
    mpr::Runtime::execute(3, [](mpr::Comm& comm) {
      if (comm.rank() == 1) FOCUS_THROW("boom-one");
      if (comm.rank() == 2) FOCUS_THROW("boom-two");
    });
    FAIL() << "expected a composite error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("rank 1"), std::string::npos) << what;
    EXPECT_NE(what.find("rank 2"), std::string::npos) << what;
    EXPECT_NE(what.find("boom-one"), std::string::npos) << what;
    EXPECT_NE(what.find("boom-two"), std::string::npos) << what;
  }
}

TEST(RuntimeFault, InjectedCrashIsCountedNotRethrown) {
  mpr::FaultPlan plan;
  plan.crashes.push_back({1, 1});  // rank 1 dies at its first op
  const auto stats = mpr::Runtime::execute(
      2,
      [](mpr::Comm& comm) {
        if (comm.rank() == 1) {
          mpr::Message msg;
          msg.pack(std::uint32_t{0});
          comm.send(0, 2, std::move(msg));  // crashes here
        } else {
          EXPECT_EQ(comm.try_recv(1, 2, 0.125).status,
                    mpr::RecvStatus::kTimeout);
        }
      },
      {}, plan);
  EXPECT_EQ(stats.ranks_failed, 1);
  EXPECT_EQ(stats.messages, 0u) << "the crashed send delivered nothing";
}

// --- Fault-tolerant drivers -------------------------------------------------

std::string random_seq(Rng& rng, std::size_t len) {
  std::string s;
  for (std::size_t i = 0; i < len; ++i) s.push_back("ACGT"[rng.next_below(4)]);
  return s;
}

/// 20-contig chain over a 3 kbp genome with transitive shortcuts, two junk
/// spurs and one contained fragment — every simplify phase has work to do.
AsmGraph make_fault_graph(std::uint64_t seed) {
  Rng rng(seed);
  const std::string genome = random_seq(rng, 3000);
  AsmGraph g;
  std::vector<NodeId> chain;
  for (int i = 0; i < 20; ++i) {
    chain.push_back(
        g.add_node(genome.substr(static_cast<std::size_t>(i) * 140, 220), 6));
  }
  for (int i = 0; i + 1 < 20; ++i) g.add_edge(chain[i], chain[i + 1], 80);
  for (int i = 0; i < 18; i += 3) g.add_edge(chain[i], chain[i + 2], 20);
  const NodeId junk1 = g.add_node(random_seq(rng, 150), 1);
  const NodeId junk2 = g.add_node(random_seq(rng, 150), 1);
  g.add_edge(junk1, chain[5], 60);
  g.add_edge(chain[10], junk2, 60);
  const NodeId small = g.add_node(genome.substr(300, 90), 1);
  g.add_edge(chain[2], small, 90, /*offset_estimate=*/20);
  return g;
}

std::vector<PartId> striped_partition(const AsmGraph& g, PartId parts) {
  std::vector<PartId> part(g.node_count());
  const std::size_t per =
      (g.node_count() + static_cast<std::size_t>(parts) - 1) /
      static_cast<std::size_t>(parts);
  for (NodeId v = 0; v < g.node_count(); ++v) {
    part[v] = static_cast<PartId>(v / per);
  }
  return part;
}

constexpr PartId kParts = 4;

struct DriverOutcome {
  SimplifyStats stats;
  mpr::RunStats simplify_run;
  std::vector<std::vector<NodeId>> paths;
  mpr::RunStats traverse_run;
};

// The master protocol is pinned explicitly (not via environment) so the
// seed goldens below stay stable under FOCUS_DIST_PROTOCOL.
DriverOutcome run_drivers(int nranks, const mpr::FaultPlan& plan = {},
                          const mpr::FaultConfig& fault = {},
                          const dist::DistConfig& dcfg = {
                              dist::DistProtocol::kMaster}) {
  AsmGraph g = make_fault_graph(100);
  const auto part = striped_partition(g, kParts);
  DriverOutcome out;
  auto s = dist::simplify_parallel(g, part, kParts, SimplifyConfig{}, nranks,
                                   {}, 1, plan, fault, dcfg);
  out.stats = s.stats;
  out.simplify_run = s.run;
  auto t = dist::traverse_parallel(g, part, kParts, nranks, {}, 1, plan, fault,
                                   dcfg);
  out.paths = std::move(t.paths);
  out.traverse_run = t.run;
  return out;
}

void expect_same_assembly(const DriverOutcome& got, const DriverOutcome& want,
                          const std::string& context) {
  EXPECT_EQ(got.stats.transitive_edges, want.stats.transitive_edges) << context;
  EXPECT_EQ(got.stats.false_edges, want.stats.false_edges) << context;
  EXPECT_EQ(got.stats.contained_nodes, want.stats.contained_nodes) << context;
  EXPECT_EQ(got.stats.verified_edges, want.stats.verified_edges) << context;
  EXPECT_EQ(got.stats.tip_nodes, want.stats.tip_nodes) << context;
  EXPECT_EQ(got.stats.bubble_nodes, want.stats.bubble_nodes) << context;
  ASSERT_EQ(got.paths, want.paths) << context;
}

// RunStats goldens of an empty plan under the master protocol. Simplify
// keeps its fault-free path for an empty plan, so its columns are the seed
// build's pre-fault-tolerance values. Traverse runs its recovering driver for
// every plan, so its columns are that driver's values — the same bits a plan
// whose only crash point never fires gives.
TEST(DistFault, EmptyPlanMatchesFastSimplifyAndRecoveringTraverseGoldens) {
  struct Golden {
    int ranks;
    double s_makespan;
    std::uint64_t s_messages, s_bytes;
    double t_makespan;
    std::uint64_t t_messages, t_bytes;
  };
  const Golden goldens[] = {
      {1, 0x1.2f626e343b1b1p-11, 0, 0, 0x1.8d48d35882223p-22, 0, 0},
      {2, 0x1.a4ae284f88063p-12, 4, 148, 0x1.fd862822b3df2p-16, 3, 140},
      {3, 0x1.4298b474efc9cp-12, 8, 260, 0x1.519febff53431p-15, 6, 176},
      {4, 0x1.11b0e00fd33a5p-12, 12, 324, 0x1.a593f02ec90dap-15, 9, 272},
  };
  for (const Golden& gold : goldens) {
    const auto out = run_drivers(gold.ranks);
    EXPECT_EQ(out.simplify_run.makespan, gold.s_makespan) << gold.ranks;
    EXPECT_EQ(out.simplify_run.messages, gold.s_messages) << gold.ranks;
    EXPECT_EQ(out.simplify_run.bytes, gold.s_bytes) << gold.ranks;
    EXPECT_EQ(out.traverse_run.makespan, gold.t_makespan) << gold.ranks;
    EXPECT_EQ(out.traverse_run.messages, gold.t_messages) << gold.ranks;
    EXPECT_EQ(out.traverse_run.bytes, gold.t_bytes) << gold.ranks;
    EXPECT_EQ(out.simplify_run.retries, 0u);
    EXPECT_EQ(out.simplify_run.ranks_failed, 0);
    EXPECT_EQ(out.simplify_run.recovery_vtime, 0.0);
    EXPECT_EQ(out.paths.size(), 3u) << gold.ranks;
  }
}

// Crash a single worker at every op position it can reach; the recovered
// assembly must be exactly the fault-free one, and the failure must be
// reported in the stats.
TEST(DistFault, CrashAtEveryWorkerOpRecoversExactAssembly) {
  const int nranks = 3;
  const auto want = run_drivers(nranks);
  for (Rank worker = 1; worker < nranks; ++worker) {
    for (std::uint64_t op = 1; op <= 10; ++op) {
      mpr::FaultPlan plan;
      plan.crashes.push_back({worker, op});
      const auto got = run_drivers(nranks, plan);
      const std::string context = "worker " + std::to_string(worker) +
                                  " crashed at op " + std::to_string(op);
      expect_same_assembly(got, want, context);
      // The simplify protocol runs 9 worker ops (4 × recv+send, final recv),
      // so every op in that range must actually kill the worker.
      if (op <= 9) {
        EXPECT_EQ(got.simplify_run.ranks_failed, 1) << context;
      }
      if (op <= 2) {
        EXPECT_GE(got.simplify_run.retries, 1u) << context;
        EXPECT_GT(got.simplify_run.recovery_vtime, 0.0) << context;
      }
    }
  }
}

TEST(DistFault, SingleRankMasterToleratesPlanWithoutWorkers) {
  // With one rank the master scans everything itself; a plan that would
  // crash workers has nobody to kill.
  mpr::FaultPlan plan;
  plan.crashes.push_back({1, 1});
  const auto want = run_drivers(1);
  const auto got = run_drivers(1, plan);
  expect_same_assembly(got, want, "single-rank");
  EXPECT_EQ(got.simplify_run.ranks_failed, 0);
}

TEST(DistFault, SameSeedGivesBitIdenticalRunStats) {
  mpr::FaultPlan plan;
  plan.seed = 99;
  plan.p_drop = 0.10;
  plan.p_duplicate = 0.05;
  plan.p_corrupt = 0.05;
  plan.p_delay = 0.10;
  mpr::FaultConfig fault;
  fault.max_retries = 32;
  const auto a = run_drivers(4, plan, fault);
  const auto b = run_drivers(4, plan, fault);
  EXPECT_EQ(a.simplify_run.makespan, b.simplify_run.makespan);
  EXPECT_EQ(a.simplify_run.rank_vtime, b.simplify_run.rank_vtime);
  EXPECT_EQ(a.simplify_run.messages, b.simplify_run.messages);
  EXPECT_EQ(a.simplify_run.bytes, b.simplify_run.bytes);
  EXPECT_EQ(a.simplify_run.retries, b.simplify_run.retries);
  EXPECT_EQ(a.simplify_run.ranks_failed, b.simplify_run.ranks_failed);
  EXPECT_EQ(a.simplify_run.recovery_vtime, b.simplify_run.recovery_vtime);
  EXPECT_EQ(a.traverse_run.makespan, b.traverse_run.makespan);
  EXPECT_EQ(a.traverse_run.messages, b.traverse_run.messages);
  EXPECT_EQ(a.traverse_run.retries, b.traverse_run.retries);
  expect_same_assembly(a, b, "same seed");
}

// 50 seeds of mixed message faults (drops, duplicates, corruption, delays):
// recovery must reproduce the fault-free assembly every time. Run under
// TSan/ASan via tools/run_sanitizers.sh (ctest label: fault).
TEST(DistFault, StressRandomMessageFaultsAlwaysRecover) {
  const int nranks = 4;
  const auto want = run_drivers(nranks);
  mpr::FaultConfig fault;
  fault.max_retries = 32;
  for (std::uint64_t trial = 0; trial < 50; ++trial) {
    mpr::FaultPlan plan;
    plan.seed = trial * 7 + 1;
    plan.p_drop = 0.05;
    plan.p_duplicate = 0.05;
    plan.p_corrupt = 0.05;
    plan.p_delay = 0.05;
    const auto got = run_drivers(nranks, plan, fault);
    expect_same_assembly(got, want, "trial " + std::to_string(trial));
  }
}

TEST(DistFault, RetriesExhaustedThrows) {
  mpr::FaultPlan plan;
  plan.seed = 5;
  plan.p_drop = 1.0;  // every message vanishes, so the first round must fail
  mpr::FaultConfig fault;
  fault.max_retries = 0;  // …and no replay is allowed
  EXPECT_THROW(run_drivers(3, plan, fault), Error);
}

// --- Symmetric protocol under faults (DESIGN.md §7b) ------------------------

const dist::DistConfig kSymCfg{dist::DistProtocol::kSymmetric};

TEST(DistFaultSymmetric, FaultFreeMatchesMasterProtocol) {
  for (const int nranks : {1, 2, 3, 4}) {
    const auto want = run_drivers(nranks);
    const auto got = run_drivers(nranks, {}, {}, kSymCfg);
    expect_same_assembly(got, want, "ranks " + std::to_string(nranks));
    EXPECT_EQ(got.simplify_run.retries, 0u);
    EXPECT_EQ(got.simplify_run.ranks_failed, 0);
    EXPECT_EQ(got.traverse_run.ranks_failed, 0);
  }
}

// Crash EVERY rank — the coordinator included — at every op position. Killing
// rank 0 forces the coordinator rotation: a successor inherits the log,
// fast-forwards through the committed phases, and finishes the run; the
// recovered assembly must be exactly the fault-free master one. This is the
// property the master protocol cannot have (its rank 0 is irreplaceable).
TEST(DistFaultSymmetric, CrashAtEveryOpOnEveryRankRecoversExactAssembly) {
  const int nranks = 3;
  const auto want = run_drivers(nranks);
  for (Rank victim = 0; victim < nranks; ++victim) {
    for (std::uint64_t op = 1; op <= 10; ++op) {
      mpr::FaultPlan plan;
      plan.crashes.push_back({victim, op});
      const auto got = run_drivers(nranks, plan, {}, kSymCfg);
      const std::string context = "rank " + std::to_string(victim) +
                                  " crashed at op " + std::to_string(op);
      expect_same_assembly(got, want, context);
      // Simplify runs 9 worker ops (4 × recv+send, final recv) and more on
      // the coordinator, so every op in 1..9 actually kills the victim.
      if (op <= 9) {
        EXPECT_EQ(got.simplify_run.ranks_failed, 1) << context;
      }
    }
  }
}

TEST(DistFaultSymmetric, SingleRankToleratesPlanWithoutPeers) {
  mpr::FaultPlan plan;
  plan.crashes.push_back({1, 1});
  const auto want = run_drivers(1);
  const auto got = run_drivers(1, plan, {}, kSymCfg);
  expect_same_assembly(got, want, "single-rank symmetric");
  EXPECT_EQ(got.simplify_run.ranks_failed, 0);
}

TEST(DistFaultSymmetric, SameSeedGivesBitIdenticalRunStats) {
  mpr::FaultPlan plan;
  plan.seed = 99;
  plan.p_drop = 0.10;
  plan.p_duplicate = 0.05;
  plan.p_corrupt = 0.05;
  plan.p_delay = 0.10;
  mpr::FaultConfig fault;
  fault.max_retries = 32;
  const auto a = run_drivers(4, plan, fault, kSymCfg);
  const auto b = run_drivers(4, plan, fault, kSymCfg);
  EXPECT_EQ(a.simplify_run.makespan, b.simplify_run.makespan);
  EXPECT_EQ(a.simplify_run.rank_vtime, b.simplify_run.rank_vtime);
  EXPECT_EQ(a.simplify_run.messages, b.simplify_run.messages);
  EXPECT_EQ(a.simplify_run.bytes, b.simplify_run.bytes);
  EXPECT_EQ(a.simplify_run.retries, b.simplify_run.retries);
  EXPECT_EQ(a.simplify_run.ranks_failed, b.simplify_run.ranks_failed);
  EXPECT_EQ(a.simplify_run.recovery_vtime, b.simplify_run.recovery_vtime);
  EXPECT_EQ(a.traverse_run.makespan, b.traverse_run.makespan);
  EXPECT_EQ(a.traverse_run.messages, b.traverse_run.messages);
  expect_same_assembly(a, b, "symmetric same seed");
}

// Mixed message faults (drops, duplicates, corruption, delays) against the
// fault-free master oracle: a falsely-suspected worker becomes an orphan that
// must still terminate and agree. Run under TSan/ASan via
// tools/run_sanitizers.sh (ctest label: fault).
TEST(DistFaultSymmetric, StressRandomMessageFaultsAlwaysRecover) {
  const int nranks = 4;
  const auto want = run_drivers(nranks);
  mpr::FaultConfig fault;
  fault.max_retries = 32;
  for (std::uint64_t trial = 0; trial < 25; ++trial) {
    mpr::FaultPlan plan;
    plan.seed = trial * 13 + 3;
    plan.p_drop = 0.05;
    plan.p_duplicate = 0.05;
    plan.p_corrupt = 0.05;
    plan.p_delay = 0.05;
    const auto got = run_drivers(nranks, plan, fault, kSymCfg);
    expect_same_assembly(got, want,
                         "symmetric trial " + std::to_string(trial));
  }
}

TEST(DistFaultSymmetric, RetriesExhaustedThrows) {
  mpr::FaultPlan plan;
  plan.seed = 5;
  plan.p_drop = 1.0;
  mpr::FaultConfig fault;
  fault.max_retries = 0;
  EXPECT_THROW(run_drivers(3, plan, fault, kSymCfg), Error);
}

// --- Fault-tolerant overlap driver (stage 2) --------------------------------

/// Small simulated read set (~100 preprocessed reads): ten subset pairs, the
/// replay partitions of the recovering overlap driver, so reassignments move
/// real work at every rank count here.
const io::ReadSet& overlap_fault_reads() {
  static const io::ReadSet reads = [] {
    const sim::Dataset d = sim::make_dataset(1, /*scale=*/0.13,
                                             /*coverage=*/3.0);
    return io::preprocess(d.data.reads, {});
  }();
  return reads;
}

dist::ParallelOverlapResult run_overlap_driver(
    int nranks, const mpr::FaultPlan& plan = {},
    const mpr::FaultConfig& fault = {},
    const dist::DistConfig& dcfg = {dist::DistProtocol::kMaster}) {
  return dist::overlap_parallel(overlap_fault_reads(), align::OverlapperConfig{},
                                nranks, {}, plan, fault, dcfg);
}

void expect_same_overlaps(const std::vector<align::Overlap>& got,
                          const std::vector<align::Overlap>& want,
                          const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(got[i].query == want[i].query && got[i].ref == want[i].ref &&
                got[i].length == want[i].length &&
                got[i].identity == want[i].identity &&
                got[i].kind == want[i].kind)
        << context << " record " << i;
  }
}

// An empty plan is find_overlaps_parallel, RunStats included; a plan whose
// only crash point never fires runs the recovering driver with nothing
// injected. Both return the serial oracle's bytes under both protocols.
TEST(OverlapFault, EmptyPlanIsAllPairsAndNeverFiringPlanMatchesIt) {
  const auto want = align::find_overlaps_serial(overlap_fault_reads(),
                                                align::OverlapperConfig{});
  mpr::FaultPlan armed;
  armed.crashes.push_back({1, std::uint64_t{1} << 62});
  for (const auto protocol :
       {dist::DistProtocol::kMaster, dist::DistProtocol::kSymmetric}) {
    const dist::DistConfig dcfg{protocol};
    for (int nranks = 1; nranks <= 4; ++nranks) {
      const std::string context =
          std::string(protocol == dist::DistProtocol::kSymmetric ? "symmetric"
                                                                 : "master") +
          " ranks " + std::to_string(nranks);
      const auto fast = align::find_overlaps_parallel(
          overlap_fault_reads(), align::OverlapperConfig{}, nranks);
      const auto empty = run_overlap_driver(nranks, {}, {}, dcfg);
      expect_same_overlaps(empty.overlaps, want, "empty plan " + context);
      EXPECT_EQ(empty.run.makespan, fast.stats.makespan) << context;
      EXPECT_EQ(empty.run.messages, fast.stats.messages) << context;
      EXPECT_EQ(empty.run.bytes, fast.stats.bytes) << context;
      const auto recovering = run_overlap_driver(nranks, armed, {}, dcfg);
      expect_same_overlaps(recovering.overlaps, want,
                           "never-firing plan " + context);
      EXPECT_EQ(recovering.run.ranks_failed, 0) << context;
      EXPECT_EQ(recovering.run.retries, 0u) << context;
    }
  }
}

/// Crashes `victim` at op 1, 2, ... — every op it reaches — and expects the
/// fault-free overlap set from each run. The sweep ends at the first op the
/// victim never reaches (no rank failed); returns that op.
std::uint64_t crash_sweep_overlaps(int nranks, Rank victim,
                                   const dist::DistConfig& dcfg,
                                   const std::vector<align::Overlap>& want) {
  std::uint64_t op = 1;
  for (;; ++op) {
    EXPECT_LE(op, 64u) << "victim " << victim << ": sweep did not end";
    if (op > 64) break;
    mpr::FaultPlan plan;
    plan.crashes.push_back({victim, op});
    const auto got = run_overlap_driver(nranks, plan, {}, dcfg);
    expect_same_overlaps(got.overlaps, want,
                         "rank " + std::to_string(victim) + " crashed at op " +
                             std::to_string(op));
    if (got.run.ranks_failed == 0) break;
  }
  return op;
}

// Crash a single worker at every op position it reaches during the overlap
// phase; the recovered overlap set must be exactly the fault-free one.
TEST(OverlapFault, CrashAtEveryWorkerOpRecoversExactOverlaps) {
  const int nranks = 3;
  const auto want = run_overlap_driver(nranks).overlaps;
  for (Rank worker = 1; worker < nranks; ++worker) {
    // A worker receives its scan command, sends its records and receives
    // the shutdown: at least three ops before the sweep runs off its end.
    EXPECT_GT(crash_sweep_overlaps(nranks, worker,
                                   {dist::DistProtocol::kMaster}, want),
              3u)
        << "worker " << worker;
  }
}

// Symmetric protocol: any rank may die — including rank 0, which the
// master/worker protocol cannot lose — and a successor replays the phase
// from the replicated WAL.
TEST(OverlapFault, SymmetricCrashAtEveryOpOnEveryRankRecovers) {
  const int nranks = 3;
  const auto want = run_overlap_driver(nranks).overlaps;
  for (Rank victim = 0; victim < nranks; ++victim) {
    EXPECT_GT(crash_sweep_overlaps(nranks, victim,
                                   {dist::DistProtocol::kSymmetric}, want),
              3u)
        << "victim " << victim;
  }
}

TEST(OverlapFault, SingleRankMasterToleratesPlanWithoutWorkers) {
  mpr::FaultPlan plan;
  plan.crashes.push_back({1, 1});
  expect_same_overlaps(run_overlap_driver(1, plan).overlaps,
                       run_overlap_driver(1).overlaps, "single-rank overlap");
}

// Mixed message faults (drops, duplicates, corruption, delays) over several
// seeds: replay recovery must reproduce the fault-free overlap set each time.
TEST(OverlapFault, StressRandomMessageFaultsAlwaysRecover) {
  const int nranks = 3;
  const auto want = run_overlap_driver(nranks).overlaps;
  mpr::FaultConfig fault;
  fault.max_retries = 32;
  for (const auto protocol :
       {dist::DistProtocol::kMaster, dist::DistProtocol::kSymmetric}) {
    const dist::DistConfig dcfg{protocol};
    for (std::uint64_t trial = 0; trial < 10; ++trial) {
      mpr::FaultPlan plan;
      plan.seed = trial * 13 + 3;
      plan.p_drop = 0.05;
      plan.p_duplicate = 0.05;
      plan.p_corrupt = 0.05;
      plan.p_delay = 0.05;
      expect_same_overlaps(
          run_overlap_driver(nranks, plan, fault, dcfg).overlaps, want,
          "trial " + std::to_string(trial) +
              (protocol == dist::DistProtocol::kSymmetric ? " symmetric"
                                                          : " master"));
    }
  }
}

// --- Fault-tolerant preprocess driver (stage 1) -----------------------------

const io::ReadSet& preprocess_fault_raw_reads() {
  static const io::ReadSet reads =
      sim::make_dataset(1, /*scale=*/0.13, /*coverage=*/3.0).data.reads;
  return reads;
}

void expect_same_reads(const io::ReadSet& got, const io::ReadSet& want,
                       const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(got[i].name == want[i].name && got[i].seq == want[i].seq &&
                got[i].qual == want[i].qual &&
                got[i].origin == want[i].origin &&
                got[i].reverse == want[i].reverse)
        << context << " read " << i;
  }
}

io::ParallelPreprocessResult run_preprocess_driver(
    int nranks, const mpr::FaultPlan& plan = {},
    const mpr::FaultConfig& fault = {}, bool symmetric = false) {
  return io::preprocess_parallel(preprocess_fault_raw_reads(), {}, nranks, {},
                                 plan, fault, symmetric);
}

TEST(PreprocessFault, EmptyPlanMatchesSerialReference) {
  io::PreprocessStats want_stats;
  const auto want =
      io::preprocess(preprocess_fault_raw_reads(), {}, &want_stats);
  for (const int nranks : {1, 3}) {
    const auto got = run_preprocess_driver(nranks);
    expect_same_reads(got.reads, want,
                      "fault-free ranks " + std::to_string(nranks));
    EXPECT_EQ(got.stats.input_reads, want_stats.input_reads);
    EXPECT_EQ(got.stats.dropped_short, want_stats.dropped_short);
    EXPECT_EQ(got.stats.output_reads, want_stats.output_reads);
    EXPECT_EQ(got.stats.bases_trimmed, want_stats.bases_trimmed);
  }
}

// Crash a single worker at every op position it can reach during stage 1;
// the recovered read set and stats must be exactly the fault-free ones.
TEST(PreprocessFault, CrashAtEveryWorkerOpRecoversExactReads) {
  const int nranks = 3;
  const auto want = run_preprocess_driver(nranks);
  for (Rank worker = 1; worker < nranks; ++worker) {
    for (std::uint64_t op = 1; op <= 6; ++op) {
      mpr::FaultPlan plan;
      plan.crashes.push_back({worker, op});
      const auto got = run_preprocess_driver(nranks, plan);
      const std::string context = "worker " + std::to_string(worker) +
                                  " crashed at op " + std::to_string(op);
      expect_same_reads(got.reads, want.reads, context);
      EXPECT_EQ(got.stats.output_reads, want.stats.output_reads) << context;
    }
  }
}

// Symmetric protocol: crash EVERY rank — the initial coordinator included —
// at every op position; a successor must finish from the WAL.
TEST(PreprocessFault, SymmetricCrashAtEveryOpOnEveryRankRecovers) {
  const int nranks = 3;
  const auto want = run_preprocess_driver(nranks);
  for (Rank victim = 0; victim < nranks; ++victim) {
    for (std::uint64_t op = 1; op <= 6; ++op) {
      mpr::FaultPlan plan;
      plan.crashes.push_back({victim, op});
      const auto got =
          run_preprocess_driver(nranks, plan, {}, /*symmetric=*/true);
      expect_same_reads(got.reads, want.reads,
                        "rank " + std::to_string(victim) + " crashed at op " +
                            std::to_string(op));
    }
  }
}

TEST(PreprocessFault, StressRandomMessageFaultsAlwaysRecover) {
  const int nranks = 3;
  const auto want = run_preprocess_driver(nranks);
  mpr::FaultConfig fault;
  fault.max_retries = 32;
  for (const bool symmetric : {false, true}) {
    for (std::uint64_t trial = 0; trial < 10; ++trial) {
      mpr::FaultPlan plan;
      plan.seed = trial * 17 + 5;
      plan.p_drop = 0.05;
      plan.p_duplicate = 0.05;
      plan.p_corrupt = 0.05;
      plan.p_delay = 0.05;
      const auto got = run_preprocess_driver(nranks, plan, fault, symmetric);
      expect_same_reads(got.reads, want.reads,
                        std::string(symmetric ? "symmetric" : "master") +
                            " trial " + std::to_string(trial));
    }
  }
}

// --- Fault-tolerant partition driver (stage 5) ------------------------------

const graph::GraphHierarchy& partition_fault_hierarchy() {
  static const graph::GraphHierarchy h = [] {
    Rng rng(77);
    graph::GraphBuilder b(120);
    for (NodeId v = 1; v < 120; ++v) {
      b.add_edge(v, static_cast<NodeId>(rng.next_below(v)),
                 1 + static_cast<Weight>(rng.next_below(50)));
    }
    for (int i = 0; i < 240; ++i) {
      const auto u = static_cast<NodeId>(rng.next_below(120));
      const auto v = static_cast<NodeId>(rng.next_below(120));
      if (u != v) b.add_edge(u, v, 1 + static_cast<Weight>(rng.next_below(50)));
    }
    graph::CoarsenConfig cfg;
    cfg.min_nodes = 8;
    cfg.max_levels = 5;
    return graph::build_multilevel(b.build(), cfg);
  }();
  return h;
}

partition::ParallelPartitionResult run_partition_driver(
    int nranks, const mpr::FaultPlan& plan = {},
    const mpr::FaultConfig& fault = {}, bool symmetric = false) {
  return partition::partition_hierarchy_parallel(
      partition_fault_hierarchy(), 4, partition::PartitionerConfig{}, nranks,
      {}, plan, fault, symmetric);
}

void expect_same_partitioning(const partition::HierarchyPartitioning& got,
                              const partition::HierarchyPartitioning& want,
                              const std::string& context) {
  EXPECT_EQ(got.parts, want.parts) << context;
  EXPECT_EQ(got.finest_cut, want.finest_cut) << context;
  ASSERT_EQ(got.levels, want.levels) << context;
}

TEST(PartitionFault, EmptyPlanMatchesFaultFreeDriver) {
  const auto want = run_partition_driver(3);
  // An empty plan runs the recovering driver with nothing injected; its
  // partitioning equals the serial partitioner's.
  const auto serial = partition::partition_hierarchy(
      partition_fault_hierarchy(), 4, partition::PartitionerConfig{});
  EXPECT_EQ(want.partitioning.levels, serial.levels);
  EXPECT_EQ(want.partitioning.finest_cut, serial.finest_cut);
}

// Crash a single worker at every op position it can reach during the
// bisection and refinement phases; the recovered partitioning must be exactly
// the fault-free (== serial) one.
TEST(PartitionFault, CrashAtEveryWorkerOpRecoversExactPartitioning) {
  const int nranks = 3;
  const auto want = run_partition_driver(nranks);
  for (Rank worker = 1; worker < nranks; ++worker) {
    for (std::uint64_t op = 1; op <= 8; ++op) {
      mpr::FaultPlan plan;
      plan.crashes.push_back({worker, op});
      const auto got = run_partition_driver(nranks, plan);
      expect_same_partitioning(got.partitioning, want.partitioning,
                               "worker " + std::to_string(worker) +
                                   " crashed at op " + std::to_string(op));
    }
  }
}

// Symmetric protocol: crash EVERY rank at every op position. A successor
// coordinator must replay the committed bisection steps from the WAL to
// rebuild the evolving labels, then finish the remaining phases.
TEST(PartitionFault, SymmetricCrashAtEveryOpOnEveryRankRecovers) {
  const int nranks = 3;
  const auto want = run_partition_driver(nranks);
  for (Rank victim = 0; victim < nranks; ++victim) {
    for (std::uint64_t op = 1; op <= 8; ++op) {
      mpr::FaultPlan plan;
      plan.crashes.push_back({victim, op});
      const auto got =
          run_partition_driver(nranks, plan, {}, /*symmetric=*/true);
      expect_same_partitioning(got.partitioning, want.partitioning,
                               "rank " + std::to_string(victim) +
                                   " crashed at op " + std::to_string(op));
    }
  }
}

TEST(PartitionFault, StressRandomMessageFaultsAlwaysRecover) {
  const int nranks = 3;
  const auto want = run_partition_driver(nranks);
  mpr::FaultConfig fault;
  fault.max_retries = 32;
  for (const bool symmetric : {false, true}) {
    for (std::uint64_t trial = 0; trial < 10; ++trial) {
      mpr::FaultPlan plan;
      plan.seed = trial * 19 + 7;
      plan.p_drop = 0.05;
      plan.p_duplicate = 0.05;
      plan.p_corrupt = 0.05;
      plan.p_delay = 0.05;
      const auto got = run_partition_driver(nranks, plan, fault, symmetric);
      expect_same_partitioning(
          got.partitioning, want.partitioning,
          std::string(symmetric ? "symmetric" : "master") + " trial " +
              std::to_string(trial));
    }
  }
}

// --- Fault-tolerant variant scan --------------------------------------------

/// Three SNP bubbles along a backbone chain — several variant sites spread
/// over the striped partitions.
AsmGraph make_variant_fault_graph() {
  Rng rng(55);
  AsmGraph g;
  NodeId prev = g.add_node(random_seq(rng, 200), 10);
  for (int bubble = 0; bubble < 3; ++bubble) {
    std::string allele_a = random_seq(rng, 250);
    std::string allele_b = allele_a;
    for (int s = 0; s < 3; ++s) {
      const std::size_t pos = 20 + static_cast<std::size_t>(s) * 40;
      allele_b[pos] = allele_b[pos] == 'A' ? 'C' : 'A';
    }
    const NodeId a = g.add_node(allele_a, 8);
    const NodeId b = g.add_node(allele_b, 3);
    const NodeId post = g.add_node(random_seq(rng, 200), 10);
    g.add_edge(prev, a, 50);
    g.add_edge(prev, b, 50);
    g.add_edge(a, post, 50);
    g.add_edge(b, post, 50);
    prev = post;
  }
  return g;
}

std::vector<dist::Variant> run_variants_driver(
    int nranks, const mpr::FaultPlan& plan = {},
    const mpr::FaultConfig& fault = {},
    const dist::DistConfig& dcfg = {dist::DistProtocol::kMaster}) {
  static const AsmGraph g = make_variant_fault_graph();
  static const auto part = striped_partition(g, kParts);
  return dist::find_variants_parallel(g, part, kParts, {}, nranks, {}, plan,
                                      fault, dcfg)
      .variants;
}

void expect_same_variants(const std::vector<dist::Variant>& got,
                          const std::vector<dist::Variant>& want,
                          const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(got[i].branch_point == want[i].branch_point &&
                got[i].merge_point == want[i].merge_point &&
                got[i].major_allele == want[i].major_allele &&
                got[i].minor_allele == want[i].minor_allele &&
                got[i].identity == want[i].identity)
        << context << " record " << i;
  }
}

TEST(VariantsFault, EmptyPlanMatchesSerialReference) {
  const auto want = dist::find_variants_serial(make_variant_fault_graph(), {});
  EXPECT_EQ(want.size(), 3u) << "fixture must contain three bubbles";
  for (const int nranks : {1, 3}) {
    expect_same_variants(run_variants_driver(nranks), want,
                         "fault-free ranks " + std::to_string(nranks));
  }
}

TEST(VariantsFault, CrashAtEveryWorkerOpRecoversExactVariants) {
  const int nranks = 3;
  const auto want = run_variants_driver(nranks);
  for (Rank worker = 1; worker < nranks; ++worker) {
    for (std::uint64_t op = 1; op <= 5; ++op) {
      mpr::FaultPlan plan;
      plan.crashes.push_back({worker, op});
      expect_same_variants(run_variants_driver(nranks, plan), want,
                           "worker " + std::to_string(worker) +
                               " crashed at op " + std::to_string(op));
    }
  }
}

TEST(VariantsFault, SymmetricCrashAtEveryOpOnEveryRankRecovers) {
  const int nranks = 3;
  const auto want = run_variants_driver(nranks);
  for (Rank victim = 0; victim < nranks; ++victim) {
    for (std::uint64_t op = 1; op <= 5; ++op) {
      mpr::FaultPlan plan;
      plan.crashes.push_back({victim, op});
      expect_same_variants(run_variants_driver(nranks, plan, {}, kSymCfg),
                           want,
                           "rank " + std::to_string(victim) +
                               " crashed at op " + std::to_string(op));
    }
  }
}

TEST(VariantsFault, StressRandomMessageFaultsAlwaysRecover) {
  const int nranks = 3;
  const auto want = run_variants_driver(nranks);
  mpr::FaultConfig fault;
  fault.max_retries = 32;
  for (const auto& dcfg :
       {dist::DistConfig{dist::DistProtocol::kMaster}, kSymCfg}) {
    for (std::uint64_t trial = 0; trial < 10; ++trial) {
      mpr::FaultPlan plan;
      plan.seed = trial * 23 + 9;
      plan.p_drop = 0.05;
      plan.p_duplicate = 0.05;
      plan.p_corrupt = 0.05;
      plan.p_delay = 0.05;
      expect_same_variants(run_variants_driver(nranks, plan, fault, dcfg),
                           want, "trial " + std::to_string(trial));
    }
  }
}

// --- One driver per protocol -------------------------------------------------

// Partition, traverse and variants have no fault-free twin: an empty plan runs
// the recovering driver with nothing injected. So it must match, output and
// RunStats alike, a plan whose only crash point never fires.
TEST(DistFault, EmptyPlanRunsTheRecoveringDriver) {
  mpr::FaultPlan armed;
  armed.crashes.push_back({1, std::uint64_t{1} << 62});
  const auto expect_same_run = [](const mpr::RunStats& got,
                                  const mpr::RunStats& want,
                                  const std::string& context) {
    EXPECT_EQ(got.makespan, want.makespan) << context;
    EXPECT_EQ(got.messages, want.messages) << context;
    EXPECT_EQ(got.bytes, want.bytes) << context;
  };
  const AsmGraph variant_graph = make_variant_fault_graph();
  const auto variant_part = striped_partition(variant_graph, kParts);
  for (const auto protocol :
       {dist::DistProtocol::kMaster, dist::DistProtocol::kSymmetric}) {
    const dist::DistConfig dcfg{protocol};
    const bool symmetric = protocol == dist::DistProtocol::kSymmetric;
    for (int nranks = 1; nranks <= 4; ++nranks) {
      const std::string context =
          std::string(symmetric ? "symmetric" : "master") + " ranks " +
          std::to_string(nranks);

      const auto p_empty = run_partition_driver(nranks, {}, {}, symmetric);
      const auto p_armed = run_partition_driver(nranks, armed, {}, symmetric);
      expect_same_partitioning(p_armed.partitioning, p_empty.partitioning,
                               "partition " + context);
      expect_same_run(p_armed.stats, p_empty.stats, "partition " + context);

      const auto d_empty = run_drivers(nranks, {}, {}, dcfg);
      const auto d_armed = run_drivers(nranks, armed, {}, dcfg);
      EXPECT_EQ(d_armed.paths, d_empty.paths) << "traverse " << context;
      expect_same_run(d_armed.traverse_run, d_empty.traverse_run,
                      "traverse " + context);

      const auto v_empty = dist::find_variants_parallel(
          variant_graph, variant_part, kParts, {}, nranks, {}, {}, {}, dcfg);
      const auto v_armed = dist::find_variants_parallel(
          variant_graph, variant_part, kParts, {}, nranks, {}, armed, {},
          dcfg);
      expect_same_variants(v_armed.variants, v_empty.variants,
                           "variants " + context);
      expect_same_run(v_armed.run, v_empty.run, "variants " + context);
    }
  }
}

// --- One engine, both protocols ---------------------------------------------

// Each recovering driver on its fixture above, at three ranks. A run yields
// its RunStats and a print of everything the driver returns, so runs of
// different drivers compare alike.
enum class Stage {
  kPreprocess,
  kOverlap,
  kPartition,
  kSimplify,
  kTraverse,
  kVariants
};
constexpr Stage kStages[] = {Stage::kPreprocess, Stage::kOverlap,
                             Stage::kPartition,  Stage::kSimplify,
                             Stage::kTraverse,   Stage::kVariants};
constexpr int kStageRanks = 3;

const char* stage_name(Stage stage) {
  switch (stage) {
    case Stage::kPreprocess: return "preprocess";
    case Stage::kOverlap: return "overlap";
    case Stage::kPartition: return "partition";
    case Stage::kSimplify: return "simplify";
    case Stage::kTraverse: return "traverse";
    case Stage::kVariants: return "variants";
  }
  return "?";
}

const char* protocol_name(dist::DistProtocol protocol) {
  return protocol == dist::DistProtocol::kSymmetric ? "symmetric" : "master";
}

struct StageRun {
  mpr::RunStats run;
  std::string out;
};

StageRun run_stage(Stage stage, dist::DistProtocol protocol,
                   const mpr::FaultPlan& plan,
                   const mpr::FaultConfig& fault = {}) {
  const dist::DistConfig dcfg{protocol};
  const bool symmetric = protocol == dist::DistProtocol::kSymmetric;
  std::ostringstream out;
  out << std::hexfloat;
  StageRun r;
  switch (stage) {
    case Stage::kPreprocess: {
      const auto got = run_preprocess_driver(kStageRanks, plan, fault,
                                             symmetric);
      for (const io::Read& read : got.reads) {
        out << read.name << ' ' << read.seq << ' ' << read.qual << ' '
            << read.origin << ' ' << read.reverse << '\n';
      }
      out << got.stats.input_reads << ' ' << got.stats.dropped_short << ' '
          << got.stats.output_reads << ' ' << got.stats.bases_trimmed;
      r.run = got.run;
      break;
    }
    case Stage::kOverlap: {
      const auto got = run_overlap_driver(kStageRanks, plan, fault, dcfg);
      for (const align::Overlap& o : got.overlaps) {
        out << o.query << ' ' << o.ref << ' ' << o.length << ' '
            << o.identity << ' ' << static_cast<int>(o.kind) << '\n';
      }
      r.run = got.run;
      break;
    }
    case Stage::kPartition: {
      const auto got = run_partition_driver(kStageRanks, plan, fault,
                                            symmetric);
      out << got.partitioning.parts << ' ' << got.partitioning.finest_cut;
      for (const auto& level : got.partitioning.levels) {
        out << '\n';
        for (const PartId p : level) out << p << ' ';
      }
      r.run = got.stats;
      break;
    }
    case Stage::kSimplify: {
      AsmGraph g = make_fault_graph(100);
      const auto part = striped_partition(g, kParts);
      const auto got = dist::simplify_parallel(g, part, kParts,
                                               SimplifyConfig{}, kStageRanks,
                                               {}, 1, plan, fault, dcfg);
      const SimplifyStats& s = got.stats;
      out << s.transitive_edges << ' ' << s.false_edges << ' '
          << s.contained_nodes << ' ' << s.verified_edges << ' '
          << s.tip_nodes << ' ' << s.bubble_nodes << '\n';
      for (NodeId v = 0; v < g.node_count(); ++v) out << g.node_live(v);
      for (dist::EdgeId e = 0; e < g.edge_count(); ++e) {
        const dist::AsmEdge& edge = g.edge(e);
        out << '\n'
            << edge.removed << edge.verified << ' ' << edge.overlap << ' '
            << edge.identity;
      }
      r.run = got.run;
      break;
    }
    case Stage::kTraverse: {
      static const AsmGraph g = [] {
        AsmGraph simplified = make_fault_graph(100);
        dist::simplify_serial(simplified, SimplifyConfig{});
        return simplified;
      }();
      static const auto part = striped_partition(g, kParts);
      const auto got = dist::traverse_parallel(g, part, kParts, kStageRanks,
                                               {}, 1, plan, fault, dcfg);
      for (const auto& path : got.paths) {
        for (const NodeId v : path) out << v << ' ';
        out << '\n';
      }
      r.run = got.run;
      break;
    }
    case Stage::kVariants: {
      static const AsmGraph g = make_variant_fault_graph();
      static const auto part = striped_partition(g, kParts);
      const auto got = dist::find_variants_parallel(
          g, part, kParts, {}, kStageRanks, {}, plan, fault, dcfg);
      for (const dist::Variant& v : got.variants) {
        out << v.branch_point << ' ' << v.merge_point << ' ' << v.major_allele
            << ' ' << v.minor_allele << ' ' << v.major_coverage << ' '
            << v.minor_coverage << ' ' << v.major_nodes << ' ' << v.minor_nodes
            << ' ' << v.mismatch_sites << ' ' << v.indel_sites << ' '
            << v.identity << '\n';
      }
      r.run = got.run;
      break;
    }
  }
  r.out = out.str();
  return r;
}

// The plans the RunStats goldens are taken under.
enum class PlanKind { kNeverFires, kWorkerCrash, kCoordinatorCrash, kStorm };

const char* plan_name(PlanKind kind) {
  switch (kind) {
    case PlanKind::kNeverFires: return "never-firing";
    case PlanKind::kWorkerCrash: return "rank 1 crash at op 2";
    case PlanKind::kCoordinatorCrash: return "rank 0 crash at op 2";
    case PlanKind::kStorm: return "storm seed 4";
  }
  return "?";
}

mpr::FaultPlan make_plan(PlanKind kind) {
  mpr::FaultPlan plan;
  switch (kind) {
    case PlanKind::kNeverFires:
      plan.crashes.push_back({1, std::uint64_t{1} << 62});
      break;
    case PlanKind::kWorkerCrash:
      plan.crashes.push_back({1, 2});
      break;
    case PlanKind::kCoordinatorCrash:
      plan.crashes.push_back({0, 2});
      break;
    case PlanKind::kStorm:
      plan.seed = 4;
      plan.p_drop = 0.1;
      plan.p_duplicate = 0.1;
      plan.p_corrupt = 0.1;
      plan.p_delay = 0.1;
      break;
  }
  return plan;
}

// RunStats of every recovering driver under both protocols, pinned to the
// bits the drivers gave while each protocol still had its own coordinator
// and worker loops. The master protocol loses rank 0 for good, so it has no
// coordinator-crash row.
TEST(RecoveringRunStats, BothProtocolsMatchTheirGoldens) {
  struct Golden {
    Stage stage;
    dist::DistProtocol protocol;
    PlanKind plan;
    std::uint64_t messages, bytes, retries;
    int ranks_failed;
    double makespan, recovery_vtime;
  };
  using enum Stage;
  using enum PlanKind;
  constexpr auto kM = dist::DistProtocol::kMaster;
  constexpr auto kS = dist::DistProtocol::kSymmetric;
  const std::vector<Golden> goldens = {
      {kPreprocess, kM, kNeverFires, 6, 85544, 0, 0,
       0x1.ba6823de5f242p-13, 0x0p+0},
      {kPreprocess, kM, kWorkerCrash, 6, 85216, 1, 1,
       0x1.335d46fa5cca4p-9, 0x1.0624dd2f1a9fcp-9},
      {kPreprocess, kM, kStorm, 14, 283012, 3, 1,
       0x1.02aa1830bd25fp-7, 0x1.cac083126e979p-8},
      {kPreprocess, kS, kNeverFires, 6, 85544, 0, 0,
       0x1.0b98310629b23p-11, 0x0p+0},
      {kPreprocess, kS, kWorkerCrash, 6, 85216, 1, 1,
       0x1.46fd0bfc2f076p-9, 0x1.0624dd2f1a9fcp-9},
      {kPreprocess, kS, kCoordinatorCrash, 5, 115228, 0, 1,
       0x1.8b0f349db8da9p-10, 0x1.07746887a8d65p-10},
      {kPreprocess, kS, kStorm, 14, 283012, 3, 1,
       0x1.0792097131b54p-7, 0x1.cac083126e979p-8},
      {kOverlap, kM, kNeverFires, 6, 37704, 0, 0,
       0x1.4f52f528dc9aep-5, 0x0p+0},
      {kOverlap, kM, kWorkerCrash, 6, 43516, 1, 1,
       0x1.b451a2c075a14p-4, 0x1.0624dd2f1a9fcp-9},
      {kOverlap, kM, kStorm, 14, 120028, 3, 1,
       0x1.87371e91da8adp-3, 0x1.cac083126e979p-8},
      {kOverlap, kS, kNeverFires, 6, 37704, 0, 0,
       0x1.5032a1a9e21c8p-5, 0x0p+0},
      {kOverlap, kS, kWorkerCrash, 6, 43516, 1, 1,
       0x1.b4898de0b701bp-4, 0x1.0624dd2f1a9fcp-9},
      {kOverlap, kS, kCoordinatorCrash, 5, 49532, 0, 1,
       0x1.72efa0376c278p-4, 0x1.07746887a8d65p-10},
      {kOverlap, kS, kStorm, 14, 120028, 3, 1,
       0x1.87531421fb3bp-3, 0x1.cac083126e979p-8},
      {kPartition, kM, kNeverFires, 14, 1630, 0, 0,
       0x1.30e389f95fb45p-10, 0x0p+0},
      {kPartition, kM, kWorkerCrash, 10, 672, 1, 1,
       0x1.11bb7ae634331p-8, 0x1.0624dd2f1a9fcp-9},
      {kPartition, kM, kStorm, 16, 1042, 4, 2,
       0x1.a9ba9ffe606dcp-7, 0x1.26e978d4fdf3cp-7},
      {kPartition, kS, kNeverFires, 14, 1630, 0, 0,
       0x1.39741ea8fc111p-10, 0x0p+0},
      {kPartition, kS, kWorkerCrash, 10, 672, 1, 1,
       0x1.12cd8d7c27bebp-8, 0x1.0624dd2f1a9fcp-9},
      {kPartition, kS, kCoordinatorCrash, 9, 708, 0, 1,
       0x1.3935f836abac5p-9, 0x1.07746887a8d65p-10},
      {kPartition, kS, kStorm, 16, 1042, 4, 2,
       0x1.aa10b9c40ce86p-7, 0x1.26e978d4fdf3cp-7},
      {kSimplify, kM, kNeverFires, 18, 652, 0, 0,
       0x1.623020da1534ep-12, 0x0p+0},
      {kSimplify, kM, kWorkerCrash, 12, 420, 1, 1,
       0x1.481ed2a904c65p-9, 0x1.0624dd2f1a9fcp-9},
      {kSimplify, kM, kStorm, 16, 596, 4, 2,
       0x1.3a85da4176e52p-7, 0x1.26e978d4fdf3cp-7},
      {kSimplify, kS, kNeverFires, 18, 652, 0, 0,
       0x1.8ccf7e246a9p-12, 0x0p+0},
      {kSimplify, kS, kWorkerCrash, 12, 420, 1, 1,
       0x1.4ac8c87daa1bfp-9, 0x1.0624dd2f1a9fcp-9},
      {kSimplify, kS, kCoordinatorCrash, 11, 484, 0, 1,
       0x1.85c91c0202fe5p-10, 0x1.07746887a8d65p-10},
      {kSimplify, kS, kStorm, 16, 596, 4, 2,
       0x1.3adc528464dcap-7, 0x1.26e978d4fdf3cp-7},
      {kTraverse, kM, kNeverFires, 6, 176, 0, 0,
       0x1.519febff53431p-15, 0x0p+0},
      {kTraverse, kM, kWorkerCrash, 6, 204, 1, 1,
       0x1.0b700f7659675p-9, 0x1.0624dd2f1a9fcp-9},
      {kTraverse, kM, kStorm, 14, 540, 3, 1,
       0x1.d7e7ddf53e302p-8, 0x1.cac083126e979p-8},
      {kTraverse, kS, kNeverFires, 6, 176, 0, 0,
       0x1.a7dc0dc39e363p-15, 0x0p+0},
      {kTraverse, kS, kWorkerCrash, 6, 204, 1, 1,
       0x1.0c1c87b9e1fd3p-9, 0x1.0624dd2f1a9fcp-9},
      {kTraverse, kS, kCoordinatorCrash, 5, 224, 0, 1,
       0x1.14b8ec11adf4cp-10, 0x1.07746887a8d65p-10},
      {kTraverse, kS, kStorm, 14, 540, 3, 1,
       0x1.d83e1a17027b1p-8, 0x1.cac083126e979p-8},
      {kVariants, kM, kNeverFires, 6, 232, 0, 0,
       0x1.01fbb64ce137cp-13, 0x0p+0},
      {kVariants, kM, kWorkerCrash, 6, 260, 1, 1,
       0x1.2a02d53ed8a53p-9, 0x1.0624dd2f1a9fcp-9},
      {kVariants, kM, kStorm, 14, 708, 3, 1,
       0x1.ed9d5a76f78bcp-8, 0x1.cac083126e979p-8},
      {kVariants, kS, kNeverFires, 6, 232, 0, 0,
       0x1.17b16658be4bfp-13, 0x0p+0},
      {kVariants, kS, kWorkerCrash, 6, 260, 1, 1,
       0x1.2ab082bf378ddp-9, 0x1.0624dd2f1a9fcp-9},
      {kVariants, kS, kCoordinatorCrash, 5, 244, 0, 1,
       0x1.51dd64c1edeep-10, 0x1.07746887a8d65p-10},
      {kVariants, kS, kStorm, 14, 708, 3, 1,
       0x1.edf4313727001p-8, 0x1.cac083126e979p-8},
  };
  mpr::FaultConfig fault;
  fault.max_retries = 32;
  std::size_t row = 0;
  for (const Stage stage : kStages) {
    for (const auto protocol : {kM, kS}) {
      for (const PlanKind plan : {kNeverFires, kWorkerCrash, kCoordinatorCrash,
                                  kStorm}) {
        if (plan == kCoordinatorCrash && protocol == kM) continue;
        const auto got = run_stage(stage, protocol, make_plan(plan), fault).run;
        const Golden& gold = goldens[row++];
        const std::string context = std::string(stage_name(stage)) + ", " +
                                    protocol_name(protocol) + ", " +
                                    plan_name(plan);
        ASSERT_TRUE(gold.stage == stage && gold.protocol == protocol &&
                    gold.plan == plan)
            << "golden table out of order at " << context;
        EXPECT_EQ(got.makespan, gold.makespan) << context;
        EXPECT_EQ(got.messages, gold.messages) << context;
        EXPECT_EQ(got.bytes, gold.bytes) << context;
        EXPECT_EQ(got.retries, gold.retries) << context;
        EXPECT_EQ(got.ranks_failed, gold.ranks_failed) << context;
        EXPECT_EQ(got.recovery_vtime, gold.recovery_vtime) << context;
      }
    }
  }
  EXPECT_EQ(row, goldens.size());
}

bool names_lost_coordinator(const Error& e) {
  return std::string(e.what()).find("coordinator") != std::string::npos;
}

// The master protocol's coordinator is fixed at rank 0, so its death ends
// the run: every crash point rank 0 reaches either throws a typed error
// naming the coordinator or, once rank 0 has finished coordinating (it dies
// releasing the workers), leaves the fault-free output. Never a default
// result.
TEST(CoordinatorLoss, MasterRankZeroCrashThrowsOrLeavesTheFaultFreeOutput) {
  for (const Stage stage : kStages) {
    const std::string want =
        run_stage(stage, dist::DistProtocol::kMaster, {}).out;
    for (std::uint64_t op = 1;; ++op) {
      ASSERT_LE(op, 256u) << stage_name(stage) << ": sweep did not end";
      const std::string context = std::string(stage_name(stage)) +
                                  ", rank 0 crash at op " + std::to_string(op);
      mpr::FaultPlan plan;
      plan.crashes.push_back({0, op});
      try {
        const auto got = run_stage(stage, dist::DistProtocol::kMaster, plan);
        EXPECT_NE(op, 1u) << context << ": a crash at op 1 must throw";
        EXPECT_EQ(got.out, want) << context;
        if (got.run.ranks_failed == 0) break;  // rank 0 never reached op
      } catch (const Error& e) {
        EXPECT_TRUE(names_lost_coordinator(e)) << context << ": " << e.what();
      }
    }
  }
}

// Under the symmetric protocol any survivor takes over; with none left the
// run throws the same typed error.
TEST(CoordinatorLoss, SymmetricRunWithEveryRankCrashedThrows) {
  mpr::FaultPlan plan;
  for (Rank r = 0; r < kStageRanks; ++r) plan.crashes.push_back({r, 1});
  for (const Stage stage : kStages) {
    try {
      (void)run_stage(stage, dist::DistProtocol::kSymmetric, plan);
      ADD_FAILURE() << stage_name(stage) << ": expected the run to throw";
    } catch (const Error& e) {
      EXPECT_TRUE(names_lost_coordinator(e))
          << stage_name(stage) << ": " << e.what();
    }
  }
}

// --- FOCUS_FAULT_* environment parsing --------------------------------------

// RAII save/restore so the suite never leaks an environment change.
class ScopedEnvVar {
 public:
  explicit ScopedEnvVar(const char* name) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) saved_ = old;
    had_ = old != nullptr;
  }
  ~ScopedEnvVar() {
    if (had_) {
      ::setenv(name_, saved_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  void set(const char* value) { ::setenv(name_, value, 1); }

 private:
  const char* name_;
  std::string saved_;
  bool had_ = false;
};

void expect_env_error(const std::function<void()>& parse,
                      const std::string& needle) {
  try {
    parse();
    FAIL() << "expected a focus::Error mentioning '" << needle << "'";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

TEST(FaultEnv, MalformedSeedNamesTheOffendingValue) {
  ScopedEnvVar seed("FOCUS_FAULT_SEED");
  seed.set("banana");
  expect_env_error([] { (void)mpr::FaultPlan::from_env(); }, "banana");
  seed.set("12x");
  expect_env_error([] { (void)mpr::FaultPlan::from_env(); }, "12x");
}

TEST(FaultEnv, RateOutsideUnitIntervalRejected) {
  ScopedEnvVar seed("FOCUS_FAULT_SEED");
  ScopedEnvVar drop("FOCUS_FAULT_DROP");
  seed.set("7");
  drop.set("1.5");
  expect_env_error([] { (void)mpr::FaultPlan::from_env(); }, "1.5");
  drop.set("-0.1");
  expect_env_error([] { (void)mpr::FaultPlan::from_env(); }, "-0.1");
  drop.set("half");
  expect_env_error([] { (void)mpr::FaultPlan::from_env(); }, "half");
  drop.set("0.25");
  EXPECT_DOUBLE_EQ(mpr::FaultPlan::from_env().p_drop, 0.25);
}

TEST(FaultEnv, RateWithoutSeedRejectedAsInert) {
  ScopedEnvVar seed("FOCUS_FAULT_SEED");
  ScopedEnvVar drop("FOCUS_FAULT_DROP");
  ::unsetenv("FOCUS_FAULT_SEED");
  drop.set("0.25");
  expect_env_error([] { (void)mpr::FaultPlan::from_env(); },
                   "FOCUS_FAULT_SEED");
  seed.set("7");
  EXPECT_DOUBLE_EQ(mpr::FaultPlan::from_env().p_drop, 0.25);
}

TEST(FaultEnv, MaxRetriesValidated) {
  ScopedEnvVar retries("FOCUS_FAULT_MAX_RETRIES");
  retries.set("0");
  expect_env_error([] { (void)mpr::FaultConfig::from_env(); }, "0");
  retries.set("1001");
  expect_env_error([] { (void)mpr::FaultConfig::from_env(); }, "1001");
  retries.set("many");
  expect_env_error([] { (void)mpr::FaultConfig::from_env(); }, "many");
  retries.set("16");
  EXPECT_EQ(mpr::FaultConfig::from_env().max_retries, 16);
}

TEST(FaultEnv, RecvTimeoutValidated) {
  ScopedEnvVar timeout("FOCUS_FAULT_RECV_TIMEOUT");
  timeout.set("-1");
  expect_env_error([] { (void)mpr::FaultConfig::from_env(); }, "-1");
  timeout.set("0");
  expect_env_error([] { (void)mpr::FaultConfig::from_env(); }, "0");
  timeout.set("soon");
  expect_env_error([] { (void)mpr::FaultConfig::from_env(); }, "soon");
  timeout.set("0.5");
  EXPECT_DOUBLE_EQ(mpr::FaultConfig::from_env().recv_timeout_vtime, 0.5);
}

TEST(FaultEnv, DefaultsWhenUnset) {
  ScopedEnvVar retries("FOCUS_FAULT_MAX_RETRIES");
  ScopedEnvVar timeout("FOCUS_FAULT_RECV_TIMEOUT");
  ::unsetenv("FOCUS_FAULT_MAX_RETRIES");
  ::unsetenv("FOCUS_FAULT_RECV_TIMEOUT");
  const auto config = mpr::FaultConfig::from_env();
  const mpr::FaultConfig defaults;
  EXPECT_EQ(config.max_retries, defaults.max_retries);
  EXPECT_DOUBLE_EQ(config.recv_timeout_vtime, defaults.recv_timeout_vtime);
}

}  // namespace
}  // namespace focus
