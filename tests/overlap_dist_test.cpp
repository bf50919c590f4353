// All-pairs oracle suite for the stage-2 drivers: find_overlaps_parallel
// (the fault-free mpr driver) and dist::overlap_parallel (the same subset
// pairs inside the fault envelope) must return find_overlaps_serial's bytes
// across rank counts, thread widths, datasets, wire protocols and config
// sweeps (k, max_kmer_occurrences, subset counts, seed backend), including
// the degenerate inputs: reads shorter than k, more ranks than reads,
// homopolymers. The recovering driver runs with an empty plan and with a
// never-firing plan ({rank 1, op 2^62}): the first is find_overlaps_parallel
// itself, the second runs the recovering protocol with nothing injected.
// Plus the input contract every entry point shares and rerun determinism.
//
// Heavy grid variants are labelled perf-smoke in tests/CMakeLists.txt.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "align/overlapper.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "dist/parallel.hpp"
#include "io/preprocess.hpp"
#include "sim/datasets.hpp"

namespace focus::align {
namespace {

// Same slice sizing as the seed-backend suite: a few hundred preprocessed
// reads per dataset — repeats, reverse complements and containments included.
io::ReadSet dataset_reads(int index, double scale = 0.3) {
  const sim::Dataset d = sim::make_dataset(index, scale, /*coverage=*/6.0);
  return io::preprocess(d.data.reads, {});
}

bool identical(const std::vector<Overlap>& a, const std::vector<Overlap>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].query != b[i].query || a[i].ref != b[i].ref ||
        a[i].length != b[i].length || a[i].identity != b[i].identity ||
        a[i].kind != b[i].kind) {
      return false;
    }
  }
  return true;
}

std::string random_seq(Rng& rng, std::size_t len) {
  std::string s;
  for (std::size_t i = 0; i < len; ++i) s.push_back("ACGT"[rng.next_below(4)]);
  return s;
}

io::ReadSet reads_from(const std::vector<std::string>& seqs) {
  io::ReadSet reads;
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    reads.add({"r" + std::to_string(i), seqs[i],
               std::string(seqs[i].size(), 'I')});
  }
  return reads;
}

/// A plan whose only crash point is never reached: the recovering driver
/// runs, nothing is injected.
mpr::FaultPlan never_firing_plan() {
  mpr::FaultPlan plan;
  plan.crashes.push_back({1, std::uint64_t{1} << 62});
  return plan;
}

constexpr dist::DistProtocol kProtocols[] = {dist::DistProtocol::kMaster,
                                             dist::DistProtocol::kSymmetric};

std::string protocol_name(dist::DistProtocol p) {
  return p == dist::DistProtocol::kSymmetric ? "symmetric" : "master";
}

/// Runs both stage-2 drivers at `nranks` — find_overlaps_parallel, then the
/// recovering driver under a never-firing plan in both protocols — and
/// expects `want` from each.
void expect_drivers_match(const io::ReadSet& reads,
                          const OverlapperConfig& cfg, int nranks,
                          const std::vector<Overlap>& want,
                          const std::string& ctx) {
  EXPECT_TRUE(
      identical(find_overlaps_parallel(reads, cfg, nranks).overlaps, want))
      << ctx << " find_overlaps_parallel ranks " << nranks;
  for (const auto protocol : kProtocols) {
    const auto got = dist::overlap_parallel(reads, cfg, nranks, {},
                                            never_firing_plan(), {},
                                            {protocol});
    EXPECT_TRUE(identical(got.overlaps, want))
        << ctx << " recovering " << protocol_name(protocol) << " ranks "
        << nranks;
  }
}

// ---------------------------------------------------------------------------
// Config sweeps against the serial oracle
// ---------------------------------------------------------------------------

TEST(DistributedOverlap, ParallelDriversMatchSerialAcrossConfigs) {
  const io::ReadSet reads = dataset_reads(1);
  for (const unsigned k : {12u, 16u}) {
    for (const std::size_t max_occ : {std::size_t{16}, std::size_t{64}}) {
      for (const std::size_t subsets : {std::size_t{1}, std::size_t{3},
                                        std::size_t{5}}) {
        OverlapperConfig cfg;
        cfg.k = k;
        cfg.max_kmer_occurrences = max_occ;
        cfg.subsets = subsets;
        const auto want = find_overlaps_serial(reads, cfg);
        expect_drivers_match(reads, cfg, 3, want,
                             "k=" + std::to_string(k) + " max_occ=" +
                                 std::to_string(max_occ) +
                                 " subsets=" + std::to_string(subsets));
      }
    }
  }
}

TEST(DistributedOverlap, ParallelDriversMatchSuffixArrayOracle) {
  // Both drivers honour the seed backend: seeded by the suffix array, they
  // still return the hashed serial oracle's bytes.
  const io::ReadSet reads = dataset_reads(2);
  OverlapperConfig cfg;
  const auto want = find_overlaps_serial(reads, cfg);
  cfg.seed_backend = SeedBackend::kSuffixArray;
  expect_drivers_match(reads, cfg, 4, want, "suffix array");
}

// ---------------------------------------------------------------------------
// The full grid: ranks x thread widths x datasets x protocols (perf-smoke)
// ---------------------------------------------------------------------------

TEST(DistributedOverlapHeavy, GridRanksThreadsDatasetsByteIdentical) {
  for (const int ds : {1, 2, 3}) {
    const io::ReadSet reads = dataset_reads(ds, /*scale=*/0.25);
    OverlapperConfig cfg;
    const auto want = find_overlaps_serial(reads, cfg);

    // Every pool width agrees with the serial oracle, RunStats included.
    mpr::RunStats width_one;
    for (const unsigned threads : {1u, 2u, 4u}) {
      cfg.threads = threads;
      const auto got = find_overlaps_parallel(reads, cfg, 1);
      EXPECT_TRUE(identical(got.overlaps, want))
          << "dataset " << ds << " threads " << threads;
      if (threads == 1) width_one = got.stats;
      EXPECT_EQ(got.stats.rank_vtime, width_one.rank_vtime)
          << "dataset " << ds << " threads " << threads;
    }

    for (const int nranks : {1, 2, 4, 8}) {
      const std::string ctx =
          "dataset " + std::to_string(ds) + " ranks " + std::to_string(nranks);
      const auto fast = find_overlaps_parallel(reads, cfg, nranks);
      EXPECT_TRUE(identical(fast.overlaps, want)) << ctx;
      for (const auto protocol : kProtocols) {
        const dist::DistConfig dcfg{protocol};
        const std::string pctx = ctx + " " + protocol_name(protocol);

        // Empty plan: find_overlaps_parallel, RunStats included.
        const auto empty =
            dist::overlap_parallel(reads, cfg, nranks, {}, {}, {}, dcfg);
        EXPECT_TRUE(identical(empty.overlaps, want)) << pctx;
        EXPECT_EQ(empty.run.makespan, fast.stats.makespan) << pctx;
        EXPECT_EQ(empty.run.messages, fast.stats.messages) << pctx;

        // Never-firing plan: the recovering driver scans the same pairs on
        // the same ranks with the same work charges, so its makespan stays
        // within 1% of the fault-free driver's. The symmetric protocol also
        // replicates the merged set to every other rank's log before it
        // publishes it; that write-ahead-log charge comes on top.
        const auto armed = dist::overlap_parallel(
            reads, cfg, nranks, {}, never_firing_plan(), {}, dcfg);
        EXPECT_TRUE(identical(armed.overlaps, want)) << pctx;
        EXPECT_EQ(armed.run.retries, 0u) << pctx;
        EXPECT_EQ(armed.run.ranks_failed, 0) << pctx;
        const double wal_charge =
            protocol == dist::DistProtocol::kSymmetric
                ? (nranks - 1) * mpr::CostModel{}.message_cost(
                                     sizeof(std::uint64_t) +
                                     want.size() * sizeof(Overlap))
                : 0.0;
        EXPECT_LE(std::abs(armed.run.makespan - fast.stats.makespan),
                  0.01 * fast.stats.makespan + wal_charge)
            << pctx << ": " << armed.run.makespan << " vs "
            << fast.stats.makespan;
      }
    }
  }
}

// Crash one rank at every op it reaches, for every rank count above one and
// both protocols: the recovered overlap set is the serial oracle's. The
// master protocol cannot lose rank 0, so its victim is the last worker; the
// symmetric one loses its first coordinator. A sweep ends at the first op
// the victim never reaches (no rank failed).
TEST(DistributedOverlapHeavy, CrashAtEveryOpRecoversSerialBytes) {
  for (const int ds : {1, 2, 3}) {
    const io::ReadSet reads = dataset_reads(ds, /*scale=*/0.25);
    OverlapperConfig cfg;
    const auto want = find_overlaps_serial(reads, cfg);
    for (const int nranks : {2, 4, 8}) {
      for (const auto protocol : kProtocols) {
        const Rank victim =
            protocol == dist::DistProtocol::kMaster ? nranks - 1 : 0;
        const std::string ctx = "dataset " + std::to_string(ds) + " ranks " +
                                std::to_string(nranks) + " " +
                                protocol_name(protocol) + " victim " +
                                std::to_string(victim);
        std::uint64_t op = 1;
        for (;; ++op) {
          ASSERT_LE(op, 64u) << ctx << ": crash sweep did not terminate";
          mpr::FaultPlan plan;
          plan.crashes.push_back({victim, op});
          const auto got = dist::overlap_parallel(reads, cfg, nranks, {}, plan,
                                                  {}, {protocol});
          EXPECT_TRUE(identical(got.overlaps, want))
              << ctx << " crashed at op " << op;
          if (got.run.ranks_failed == 0) break;
        }
        EXPECT_GT(op, 1u) << ctx << ": the victim never crashed";
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Stage-2 goldens: find_overlaps_parallel's records and RunStats on D1-D3
// ---------------------------------------------------------------------------

// FNV-1a over every field of every record, in order.
std::uint64_t overlap_digest(const std::vector<Overlap>& overlaps) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&](std::uint64_t x) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (x >> (8 * byte)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  mix(overlaps.size());
  for (const Overlap& o : overlaps) {
    mix(o.query);
    mix(o.ref);
    mix(o.length);
    mix(std::bit_cast<std::uint32_t>(o.identity));
    mix(static_cast<std::uint64_t>(o.kind));
  }
  return h;
}

struct Stage2Row {
  int ranks;
  std::uint64_t digest;
  double makespan;
  std::uint64_t messages, bytes;
};

std::string stage2_row(int ranks, std::uint64_t digest,
                       const mpr::RunStats& s) {
  std::ostringstream out;
  out << "{" << ranks << ", 0x" << std::hex << digest << std::dec << "ULL, "
      << std::hexfloat << s.makespan << std::defaultfloat << ", "
      << s.messages << ", " << s.bytes << "}";
  return out.str();
}

// Pins find_overlaps_parallel on dataset `d` at scale 0.25 with the
// benchmark's §VI-A overlap knobs: the records' digest and the RunStats at
// ranks 1, 3, 4, 8. Every row must hold at pool width 1 and 4, and the
// per-rank clocks must not depend on the width. A failure prints the row the
// code produced.
void expect_stage2_goldens(int d, const std::vector<Stage2Row>& goldens) {
  const auto ds = sim::make_dataset(d, /*scale=*/0.25);
  const io::ReadSet reads = io::preprocess(ds.data.reads, {});
  OverlapperConfig cfg;
  cfg.k = 14;
  cfg.min_kmer_hits = 3;
  cfg.min_overlap = 50;
  cfg.min_identity = 0.90;
  cfg.subsets = 4;
  std::size_t row = 0;
  for (const int ranks : {1, 3, 4, 8}) {
    std::vector<double> rank_vtime;
    for (const unsigned threads : {1u, 4u}) {
      cfg.threads = threads;
      const auto got = find_overlaps_parallel(reads, cfg, ranks);
      const std::uint64_t digest = overlap_digest(got.overlaps);
      const std::string ctx = "D" + std::to_string(d) + " ranks " +
                              std::to_string(ranks) + " threads " +
                              std::to_string(threads) + " is " +
                              stage2_row(ranks, digest, got.stats);
      if (row >= goldens.size()) {
        ADD_FAILURE() << "missing row: " << ctx;
        continue;
      }
      const Stage2Row& gold = goldens[row];
      EXPECT_TRUE(gold.ranks == ranks && gold.digest == digest &&
                  gold.makespan == got.stats.makespan &&
                  gold.messages == got.stats.messages &&
                  gold.bytes == got.stats.bytes)
          << ctx;
      if (rank_vtime.empty()) {
        rank_vtime = got.stats.rank_vtime;
      } else {
        EXPECT_EQ(got.stats.rank_vtime, rank_vtime) << ctx;
      }
    }
    ++row;
  }
  EXPECT_EQ(row, goldens.size());
}

TEST(Stage2Golden, D1) {
  expect_stage2_goldens(
      1,
      {{1, 0x6faa01c3cdc91c41ULL, 0x1.7fdf40fec6a6p+2, 0, 0},
       {3, 0x6faa01c3cdc91c41ULL, 0x1.3046ec437d9a2p+1, 2, 2369836},
       {4, 0x6faa01c3cdc91c41ULL, 0x1.dd5501a5d86f2p+0, 3, 2667384},
       {8, 0x6faa01c3cdc91c41ULL, 0x1.3b8baa03fb7acp+0, 7, 3082396}});
}

TEST(Stage2Golden, D2) {
  expect_stage2_goldens(
      2,
      {{1, 0x3b22167661a00754ULL, 0x1.af5ea822ddd36p+2, 0, 0},
       {3, 0x3b22167661a00754ULL, 0x1.63ae4c9356ee8p+1, 2, 2496476},
       {4, 0x3b22167661a00754ULL, 0x1.0cc32b729fe9dp+1, 3, 2902864},
       {8, 0x3b22167661a00754ULL, 0x1.6beb5e1b52e1ap+0, 7, 3318616}});
}

TEST(Stage2Golden, D3) {
  expect_stage2_goldens(
      3,
      {{1, 0x75e734bea13d352dULL, 0x1.b6ef802a88643p+2, 0, 0},
       {3, 0x75e734bea13d352dULL, 0x1.6520be8f8ba7fp+1, 2, 2518416},
       {4, 0x75e734bea13d352dULL, 0x1.0f271022d13f7p+1, 3, 2927684},
       {8, 0x75e734bea13d352dULL, 0x1.71e873e4da067p+0, 7, 3350476}});
}

// ---------------------------------------------------------------------------
// Degenerate inputs
// ---------------------------------------------------------------------------

TEST(DistributedOverlap, HomopolymersSurviveOnlyTheRelaxedRepeatMask) {
  // Every k-mer of a poly-A read is the same key: the default repeat mask
  // drops it, a relaxed mask keeps every hit of every read.
  const io::ReadSet reads =
      reads_from({std::string(100, 'A'), std::string(100, 'A'),
                  std::string(90, 'A'), std::string(100, 'A')});
  for (const std::size_t max_occ : {std::size_t{64}, std::size_t{1000}}) {
    OverlapperConfig cfg;
    cfg.max_kmer_occurrences = max_occ;
    cfg.subsets = 2;
    const auto want = find_overlaps_serial(reads, cfg);
    for (const int nranks : {1, 8}) {
      expect_drivers_match(reads, cfg, nranks, want,
                           "max_occ=" + std::to_string(max_occ));
    }
    // Sanity: the relaxed mask must actually find the overlaps the default
    // mask suppresses, or this case tests nothing.
    EXPECT_EQ(want.empty(), max_occ == 64) << "max_occ=" << max_occ;
  }
}

TEST(DistributedOverlap, ReadsShorterThanKContributeNothing) {
  Rng rng(7);
  const std::string genome = random_seq(rng, 240);
  const io::ReadSet reads = reads_from(
      {genome.substr(0, 150), genome.substr(80, 150), "ACGTACGT",  // < k
       "AC", genome.substr(40, 150)});
  OverlapperConfig cfg;
  cfg.subsets = 3;
  const auto want = find_overlaps_serial(reads, cfg);
  EXPECT_FALSE(want.empty());
  for (const int nranks : {1, 2, 4, 8}) {
    expect_drivers_match(reads, cfg, nranks, want, "short reads");
  }
  for (const auto& o : want) {
    EXPECT_NE(o.query, 2u);
    EXPECT_NE(o.ref, 2u);
    EXPECT_NE(o.query, 3u);
    EXPECT_NE(o.ref, 3u);
  }
}

TEST(DistributedOverlap, TinyAndDisjointSetsStayEmpty) {
  // More ranks than reads (and than subset pairs), and reads with no shared
  // k-mers: every driver agrees on the empty answer, and idle ranks finish.
  Rng rng(11);
  const io::ReadSet disjoint =
      reads_from({random_seq(rng, 120), random_seq(rng, 120)});
  OverlapperConfig cfg;
  EXPECT_TRUE(find_overlaps_serial(disjoint, cfg).empty());
  for (const int nranks : {1, 4, 8}) {
    expect_drivers_match(disjoint, cfg, nranks, {}, "disjoint");
  }
}

// ---------------------------------------------------------------------------
// Determinism and the input contract
// ---------------------------------------------------------------------------

TEST(DistributedOverlap, RerunIsDeterministicDownToTheMessages) {
  const io::ReadSet reads = dataset_reads(1);
  OverlapperConfig cfg;
  const auto expect_same_run = [](const mpr::RunStats& a,
                                  const mpr::RunStats& b,
                                  const std::string& ctx) {
    EXPECT_EQ(a.makespan, b.makespan) << ctx;
    EXPECT_EQ(a.rank_vtime, b.rank_vtime) << ctx;
    EXPECT_EQ(a.messages, b.messages) << ctx;
    EXPECT_EQ(a.bytes, b.bytes) << ctx;
  };
  const auto a = find_overlaps_parallel(reads, cfg, 4);
  const auto b = find_overlaps_parallel(reads, cfg, 4);
  EXPECT_TRUE(identical(a.overlaps, b.overlaps));
  expect_same_run(a.stats, b.stats, "find_overlaps_parallel");
  for (const auto protocol : kProtocols) {
    const auto c = dist::overlap_parallel(reads, cfg, 4, {},
                                          never_firing_plan(), {}, {protocol});
    const auto d = dist::overlap_parallel(reads, cfg, 4, {},
                                          never_firing_plan(), {}, {protocol});
    EXPECT_TRUE(identical(c.overlaps, d.overlaps));
    expect_same_run(c.run, d.run, protocol_name(protocol));
  }
}

TEST(DistributedOverlap, EveryEntryPointRejectsSeedLengthOutsideItsRange) {
  // One input contract for stage 2: k in [8, 32], checked before any work.
  Rng rng(5);
  const std::string genome = random_seq(rng, 300);
  const io::ReadSet reads =
      reads_from({genome.substr(0, 200), genome.substr(100, 200)});
  for (const unsigned k : {7u, 33u}) {
    OverlapperConfig cfg;
    cfg.k = k;
    cfg.min_overlap = 20;
    SCOPED_TRACE("k=" + std::to_string(k));
    EXPECT_THROW(find_overlaps_serial(reads, cfg), Error);
    cfg.threads = 2;
    EXPECT_THROW(find_overlaps_parallel(reads, cfg, 1), Error);
    EXPECT_THROW(find_overlaps_parallel(reads, cfg, 2), Error);
    for (const auto protocol : kProtocols) {
      EXPECT_THROW(dist::overlap_parallel(reads, cfg, 2, {}, {}, {},
                                          {protocol}),
                   Error);
      EXPECT_THROW(dist::overlap_parallel(reads, cfg, 2, {},
                                          never_firing_plan(), {}, {protocol}),
                   Error);
    }
  }
}

// ---------------------------------------------------------------------------
// Env knob
// ---------------------------------------------------------------------------

TEST(SeedStrategyEnv, ParsesAliasesAndRejectsTypos) {
  const char* saved = std::getenv("FOCUS_SEED_STRATEGY");
  const std::string restore = saved != nullptr ? saved : "";

  unsetenv("FOCUS_SEED_STRATEGY");
  EXPECT_EQ(seed_strategy_from_env(), SeedStrategy::kAllPairs);
  setenv("FOCUS_SEED_STRATEGY", "", 1);
  EXPECT_EQ(seed_strategy_from_env(), SeedStrategy::kAllPairs);
  setenv("FOCUS_SEED_STRATEGY", "all-pairs", 1);
  EXPECT_EQ(seed_strategy_from_env(), SeedStrategy::kAllPairs);
  setenv("FOCUS_SEED_STRATEGY", "allpairs", 1);
  EXPECT_EQ(seed_strategy_from_env(), SeedStrategy::kAllPairs);
  setenv("FOCUS_SEED_STRATEGY", "distributed", 1);
  EXPECT_EQ(seed_strategy_from_env(), SeedStrategy::kDistributedIndex);
  setenv("FOCUS_SEED_STRATEGY", "distributed-index", 1);
  EXPECT_EQ(seed_strategy_from_env(), SeedStrategy::kDistributedIndex);
  setenv("FOCUS_SEED_STRATEGY", "fastest", 1);
  EXPECT_THROW(seed_strategy_from_env(), Error);

  // OverlapperConfig's default member initializer reads the env too.
  setenv("FOCUS_SEED_STRATEGY", "distributed", 1);
  EXPECT_EQ(OverlapperConfig{}.strategy, SeedStrategy::kDistributedIndex);

  if (saved != nullptr) {
    setenv("FOCUS_SEED_STRATEGY", restore.c_str(), 1);
  } else {
    unsetenv("FOCUS_SEED_STRATEGY");
  }
}

}  // namespace
}  // namespace focus::align
