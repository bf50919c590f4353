// Integration tests: the full Focus pipeline on simulated data.
//
// These are the end-to-end checks behind the paper's claims: a single genome
// reassembles into contigs that match it; assembly statistics are consistent
// across partition counts (Table III); hybrid partitioning is cheaper than
// multilevel partitioning at comparable edge cut (Fig. 5 / Table II).
#include <gtest/gtest.h>

#include <algorithm>

#include "common/dna.hpp"
#include "common/error.hpp"
#include "core/assembler.hpp"
#include "sim/datasets.hpp"
#include "sim/sequencer.hpp"

namespace focus::core {
namespace {

// Small-but-real configuration for integration runs.
FocusConfig test_config() {
  FocusConfig cfg;
  cfg.overlap.k = 14;
  cfg.overlap.min_kmer_hits = 3;
  cfg.overlap.min_overlap = 40;
  cfg.overlap.subsets = 2;
  cfg.coarsen.min_nodes = 32;
  cfg.coarsen.max_levels = 8;
  cfg.partitions = 4;
  cfg.ranks = 2;
  cfg.min_contig_length = 150;
  return cfg;
}

// A single small genome sequenced cleanly.
sim::SimulatedReads single_genome_reads(std::uint64_t seed,
                                        std::size_t genome_len,
                                        double coverage) {
  Rng rng(seed);
  sim::PhylogenyConfig pc;
  pc.genome_length = genome_len;
  pc.repeat_copies = 0;
  pc.conserved_segments = 0;
  sim::Community c =
      sim::build_community({{"Solo", "Phylum", 1.0}}, pc, rng);
  sim::SequencerConfig sc;
  sc.read_length = 100;
  sc.coverage = coverage;
  sc.error_rate_5p = 0.001;
  sc.error_rate_3p = 0.005;
  sc.bad_tail_fraction = 0.02;
  auto out = sim::shotgun_sequence(c, sc, rng);
  // Stash the genome in the first read's name? No — return via global.
  return out;
}

// Fraction of contig bases that exactly match somewhere in genome (checked
// by direct substring search per contig; contigs are short in these tests).
bool contig_matches_genome(const std::string& contig,
                           const std::string& genome) {
  if (genome.find(contig) != std::string::npos) return true;
  const std::string rc = dna::reverse_complement(contig);
  return genome.find(rc) != std::string::npos;
}

TEST(Pipeline, SingleGenomeAssemblesIntoMatchingContigs) {
  Rng rng(42);
  sim::PhylogenyConfig pc;
  pc.genome_length = 4000;
  pc.repeat_copies = 0;
  pc.conserved_segments = 0;
  const auto community =
      sim::build_community({{"Solo", "P", 1.0}}, pc, rng);
  sim::SequencerConfig sc;
  sc.read_length = 100;
  sc.coverage = 12.0;
  sc.error_rate_5p = 0.0;
  sc.error_rate_3p = 0.0;
  sc.bad_tail_fraction = 0.0;
  const auto sim_reads = sim::shotgun_sequence(community, sc, rng);

  const auto result = assemble_reads(sim_reads.reads, test_config());

  ASSERT_FALSE(result.contigs.empty());
  EXPECT_GT(result.stats.n50, 300u);
  // Every contig must be a bona fide substring of the genome (error-free
  // reads; merging is coordinate-exact).
  for (const auto& contig : result.contigs) {
    EXPECT_TRUE(contig_matches_genome(contig, community.genera[0].genome))
        << "contig of length " << contig.size() << " not found in genome";
  }
  // Combined contigs cover a decent share of the genome.
  std::uint64_t covered = 0;
  for (const auto& contig : result.contigs) covered += contig.size();
  EXPECT_GT(covered, community.genera[0].genome.size() / 2);
}

TEST(Pipeline, NoisyReadsStillAssemble) {
  Rng rng(43);
  sim::PhylogenyConfig pc;
  pc.genome_length = 3000;
  pc.repeat_copies = 0;
  pc.conserved_segments = 0;
  const auto community = sim::build_community({{"Solo", "P", 1.0}}, pc, rng);
  sim::SequencerConfig sc;
  sc.read_length = 100;
  sc.coverage = 15.0;
  const auto sim_reads = sim::shotgun_sequence(community, sc, rng);
  const auto result = assemble_reads(sim_reads.reads, test_config());
  ASSERT_FALSE(result.contigs.empty());
  EXPECT_GT(result.stats.max_contig, 250u);
}

TEST(Pipeline, StatsConsistentAcrossPartitionCounts) {
  // Table III's invariant: N50 / max contig / contig count barely move as
  // the hybrid graph is partitioned into different k.
  Rng rng(44);
  sim::PhylogenyConfig pc;
  pc.genome_length = 3000;
  pc.repeat_copies = 0;
  pc.conserved_segments = 0;
  const auto community = sim::build_community({{"Solo", "P", 1.0}}, pc, rng);
  sim::SequencerConfig sc;
  sc.coverage = 12.0;
  sc.error_rate_5p = 0.0;
  sc.error_rate_3p = 0.0;
  sc.bad_tail_fraction = 0.0;
  const auto sim_reads = sim::shotgun_sequence(community, sc, rng);

  std::vector<AssemblyStats> stats;
  for (const PartId k : {2, 4, 8}) {
    FocusConfig cfg = test_config();
    cfg.partitions = k;
    cfg.ranks = 2;
    stats.push_back(assemble_reads(sim_reads.reads, cfg).stats);
  }
  for (std::size_t i = 1; i < stats.size(); ++i) {
    EXPECT_EQ(stats[i].max_contig, stats[0].max_contig);
    // N50 and counts may wiggle slightly when partition boundaries break
    // different paths; bound the wiggle.
    EXPECT_NEAR(static_cast<double>(stats[i].n50),
                static_cast<double>(stats[0].n50),
                0.2 * static_cast<double>(stats[0].n50));
    EXPECT_NEAR(static_cast<double>(stats[i].contig_count),
                static_cast<double>(stats[0].contig_count),
                0.2 * static_cast<double>(std::max<std::size_t>(
                          stats[0].contig_count, 10)));
  }
}

TEST(Pipeline, HybridPartitioningCheaperThanMultilevel) {
  // Fig. 5's shape: partitioning the hybrid set costs less virtual time
  // than partitioning the multilevel set, at comparable edge cut on G0.
  const auto ds = sim::make_dataset(1, /*scale=*/0.35, /*coverage=*/10.0);
  FocusConfig hybrid_cfg = test_config();
  hybrid_cfg.partitions = 4;
  hybrid_cfg.use_hybrid_partitioning = true;
  FocusConfig ml_cfg = hybrid_cfg;
  ml_cfg.use_hybrid_partitioning = false;

  const auto hybrid_run = assemble_reads(ds.data.reads, hybrid_cfg);
  const auto ml_run = assemble_reads(ds.data.reads, ml_cfg);

  const double t_hybrid = hybrid_run.timings.at("5-partition").vtime;
  const double t_ml = ml_run.timings.at("5-partition").vtime;
  EXPECT_LT(t_hybrid, t_ml);

  // The hybrid graph is genuinely smaller than the overlap graph.
  EXPECT_LT(hybrid_run.hybrid.hybrid_graph().node_count(),
            hybrid_run.overlap_graph.node_count());
}

TEST(Pipeline, ReadPartitionCoversAllReads) {
  const auto ds = sim::make_dataset(2, 0.3, 8.0);
  FocusConfig cfg = test_config();
  const auto result = assemble_reads(ds.data.reads, cfg);
  ASSERT_EQ(result.read_partition.size(), result.reads.size());
  for (const PartId p : result.read_partition) {
    EXPECT_GE(p, 0);
    EXPECT_LT(p, cfg.partitions);
  }
}

TEST(Pipeline, TimingsRecordedForEveryStage) {
  const auto reads = single_genome_reads(45, 2000, 10.0);
  const auto result = assemble_reads(reads.reads, test_config());
  for (const char* stage :
       {"1-preprocess", "2-align", "3-coarsen", "4-hybrid", "5-partition",
        "6-simplify", "7-traverse"}) {
    ASSERT_TRUE(result.timings.contains(stage)) << stage;
    EXPECT_GE(result.timings.at(stage).vtime, 0.0);
  }
  EXPECT_GT(result.total_vtime(), 0.0);
}

// Stage 2 reports the RunStats of whichever driver ran, like every other
// distributed stage, under both strategy values.
TEST(Pipeline, AlignRunReportsTheStageTwoDriver) {
  const auto reads = single_genome_reads(48, 2000, 10.0);
  for (const auto strategy : {align::SeedStrategy::kAllPairs,
                              align::SeedStrategy::kDistributedIndex}) {
    FocusConfig cfg = test_config();
    cfg.ranks = 4;
    cfg.overlap.strategy = strategy;
    cfg.fault_plan = mpr::FaultPlan{};
    const auto result = assemble_reads(reads.reads, cfg);
    const std::string ctx =
        strategy == align::SeedStrategy::kAllPairs ? "all-pairs"
                                                   : "distributed";
    EXPECT_EQ(result.align_run.makespan, result.timings.at("2-align").vtime)
        << ctx;
    EXPECT_GT(result.align_run.messages, 0u) << ctx;
    EXPECT_GT(result.align_run.bytes, 0u) << ctx;
    EXPECT_EQ(result.align_run.rank_vtime.size(), 4u) << ctx;
  }
}

TEST(Pipeline, DeterministicEndToEnd) {
  const auto reads = single_genome_reads(46, 2000, 10.0);
  const auto a = assemble_reads(reads.reads, test_config());
  const auto b = assemble_reads(reads.reads, test_config());
  ASSERT_EQ(a.contigs.size(), b.contigs.size());
  for (std::size_t i = 0; i < a.contigs.size(); ++i) {
    EXPECT_EQ(a.contigs[i], b.contigs[i]);
  }
  EXPECT_EQ(a.stats.n50, b.stats.n50);
}

TEST(Pipeline, RankCountDoesNotChangeContigs) {
  const auto reads = single_genome_reads(47, 2000, 10.0);
  FocusConfig cfg1 = test_config();
  cfg1.ranks = 1;
  FocusConfig cfg4 = test_config();
  cfg4.ranks = 4;
  const auto a = assemble_reads(reads.reads, cfg1);
  const auto b = assemble_reads(reads.reads, cfg4);
  ASSERT_EQ(a.contigs.size(), b.contigs.size());
  for (std::size_t i = 0; i < a.contigs.size(); ++i) {
    EXPECT_EQ(a.contigs[i], b.contigs[i]);
  }
}

// ---------------------------------------------------------------------------
// Failure injection
// ---------------------------------------------------------------------------

TEST(PipelineFailure, EmptyInputRejected) {
  io::ReadSet empty;
  EXPECT_THROW(assemble_reads(empty, test_config()), Error);
}

TEST(PipelineFailure, AllReadsTrimmedAwayRejected) {
  io::ReadSet reads;
  reads.add(io::Read{"r", "ACGTACGT", std::string(8, '!'), kInvalidRead, false});
  FocusConfig cfg = test_config();
  cfg.preprocess.min_quality = 30.0;  // nothing survives
  cfg.preprocess.window_len = 4;
  EXPECT_THROW(assemble_reads(reads, cfg), Error);
}

TEST(PipelineFailure, InvalidPartitionCountRejected) {
  FocusConfig cfg = test_config();
  cfg.partitions = 3;
  EXPECT_THROW(FocusAssembler{cfg}, Error);
  cfg.partitions = 0;
  EXPECT_THROW(FocusAssembler{cfg}, Error);
  cfg.partitions = 4;
  cfg.ranks = 0;
  EXPECT_THROW(FocusAssembler{cfg}, Error);
}

TEST(PipelineFailure, NoOverlapsStillProducesPerReadContigs) {
  // Mutually unrelated reads: the overlap graph has no edges; every read is
  // its own contig (minus the length filter).
  Rng rng(48);
  io::ReadSet reads;
  for (int i = 0; i < 12; ++i) {
    std::string seq;
    for (int j = 0; j < 200; ++j) seq.push_back("ACGT"[rng.next_below(4)]);
    reads.add(io::Read{"u" + std::to_string(i), seq, "", kInvalidRead, false});
  }
  FocusConfig cfg = test_config();
  cfg.min_contig_length = 100;
  const auto result = assemble_reads(reads, cfg);
  EXPECT_TRUE(result.overlaps.empty());
  // 12 forward + 12 rc reads, deduped back to ~12 canonical contigs.
  EXPECT_GE(result.contigs.size(), 10u);
  EXPECT_LE(result.contigs.size(), 14u);
}

}  // namespace
}  // namespace focus::core
