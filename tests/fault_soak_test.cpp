// Whole-pipeline chaos soak (ctest label: soak): the full FocusAssembler —
// preprocess, overlap (the distributed strategy, which puts the subset-pair
// scans inside the fault envelope), coarsen, hybrid, partition, simplify,
// traverse — run under crash sweeps and mixed-fault storms
// (crashes, drops, duplicates, corruption, delays), across both wire
// protocols. Every run must recover the byte-identical fault-free assembly,
// and same-seed runs must produce bit-identical RunStats. The heavier sweep
// lives in bench/bench_fault_soak (BENCH_fault_soak.json); this suite is the
// CI-sized core of it.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/assembler.hpp"
#include "sim/datasets.hpp"

namespace focus::core {
namespace {

const sim::Dataset& soak_dataset() {
  static const sim::Dataset d =
      sim::make_dataset(1, /*scale=*/0.15, /*coverage=*/6.0);
  return d;
}

FocusConfig soak_config(dist::DistProtocol protocol) {
  FocusConfig cfg;
  // Stage 2 under the fault plan: the recovering subset-pair driver.
  cfg.overlap.strategy = align::SeedStrategy::kDistributedIndex;
  cfg.overlap.k = 14;
  cfg.overlap.min_kmer_hits = 3;
  cfg.overlap.min_overlap = 40;
  cfg.overlap.subsets = 2;
  cfg.coarsen.min_nodes = 32;
  cfg.coarsen.max_levels = 8;
  cfg.partitions = 4;
  cfg.ranks = 4;
  cfg.min_contig_length = 150;
  // Pin everything the environment could perturb: the soak controls its own
  // fault schedule.
  cfg.fault_plan = mpr::FaultPlan{};
  cfg.fault = mpr::FaultConfig{};
  cfg.fault.max_retries = 32;
  cfg.dist.protocol = protocol;
  return cfg;
}

/// The fault-free oracle. Protocols are output-equivalent, so one oracle
/// serves every configuration under test.
const AssemblyResult& oracle() {
  static const AssemblyResult result = assemble_reads(
      soak_dataset().data.reads, soak_config(dist::DistProtocol::kMaster));
  return result;
}

void expect_same_assembly(const AssemblyResult& got, const std::string& ctx) {
  const AssemblyResult& want = oracle();
  ASSERT_EQ(got.contigs, want.contigs) << ctx;
  EXPECT_EQ(got.stats.n50, want.stats.n50) << ctx;
  EXPECT_EQ(got.stats.total_bases, want.stats.total_bases) << ctx;
  ASSERT_EQ(got.paths, want.paths) << ctx;
  EXPECT_EQ(got.partitioning.finest_cut, want.partitioning.finest_cut) << ctx;
  EXPECT_EQ(got.reads.size(), want.reads.size()) << ctx;
  EXPECT_EQ(got.overlaps.size(), want.overlaps.size()) << ctx;
}

mpr::FaultPlan storm_plan(std::uint64_t seed) {
  mpr::FaultPlan plan;
  plan.seed = seed * 31 + 17;
  plan.p_drop = 0.02;
  plan.p_duplicate = 0.02;
  plan.p_corrupt = 0.02;
  plan.p_delay = 0.02;
  return plan;
}

// 50 seeds of mixed message faults through the full pipeline, alternating
// protocols so both see storms.
TEST(FaultSoak, FiftySeedStormsRecoverByteIdenticalAssembly) {
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    const auto protocol = (seed % 2 == 0) ? dist::DistProtocol::kMaster
                                          : dist::DistProtocol::kSymmetric;
    FocusConfig cfg = soak_config(protocol);
    cfg.fault_plan = storm_plan(seed);
    const auto got = assemble_reads(soak_dataset().data.reads, cfg);
    expect_same_assembly(
        got, "seed " + std::to_string(seed) +
                 (protocol == dist::DistProtocol::kSymmetric ? " symmetric"
                                                             : " master"));
  }
}

// Crash one rank at a sweep of op positions — the pipeline runs many
// Runtime::execute sessions, so early ops hit preprocess and overlap while
// later ones land in partition/simplify/traverse.
TEST(FaultSoak, CrashSweepThroughPipelineRecovers) {
  for (const auto protocol :
       {dist::DistProtocol::kMaster, dist::DistProtocol::kSymmetric}) {
    // The master protocol cannot lose rank 0; the symmetric one can.
    const Rank first_victim = protocol == dist::DistProtocol::kMaster ? 1 : 0;
    for (Rank victim = first_victim; victim < 3; ++victim) {
      for (std::uint64_t op = 1; op <= 8; op += 1) {
        FocusConfig cfg = soak_config(protocol);
        cfg.fault_plan.crashes.push_back({victim, op});
        const auto got = assemble_reads(soak_dataset().data.reads, cfg);
        expect_same_assembly(
            got, std::string(protocol == dist::DistProtocol::kSymmetric
                                 ? "symmetric"
                                 : "master") +
                     " rank " + std::to_string(victim) + " crashed at op " +
                     std::to_string(op));
      }
    }
  }
}

// Same seed, same config => bit-identical virtual-time accounting, down to
// the RunStats of every recovered stage.
TEST(FaultSoak, SameSeedStormIsBitIdentical) {
  FocusConfig cfg = soak_config(dist::DistProtocol::kSymmetric);
  cfg.fault_plan = storm_plan(7);
  const auto a = assemble_reads(soak_dataset().data.reads, cfg);
  const auto b = assemble_reads(soak_dataset().data.reads, cfg);
  ASSERT_EQ(a.contigs, b.contigs);
  EXPECT_EQ(a.simplify_run.makespan, b.simplify_run.makespan);
  EXPECT_EQ(a.simplify_run.rank_vtime, b.simplify_run.rank_vtime);
  EXPECT_EQ(a.simplify_run.messages, b.simplify_run.messages);
  EXPECT_EQ(a.simplify_run.bytes, b.simplify_run.bytes);
  EXPECT_EQ(a.simplify_run.retries, b.simplify_run.retries);
  EXPECT_EQ(a.simplify_run.ranks_failed, b.simplify_run.ranks_failed);
  EXPECT_EQ(a.simplify_run.recovery_vtime, b.simplify_run.recovery_vtime);
  EXPECT_EQ(a.traverse_run.makespan, b.traverse_run.makespan);
  EXPECT_EQ(a.traverse_run.retries, b.traverse_run.retries);
  for (const auto& [stage, timing] : a.timings) {
    const auto it = b.timings.find(stage);
    ASSERT_NE(it, b.timings.end()) << stage;
    EXPECT_EQ(timing.vtime, it->second.vtime) << stage;
  }
}

}  // namespace
}  // namespace focus::core
