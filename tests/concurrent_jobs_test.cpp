// Concurrent-assembler determinism suite: two in-process assemblies running
// at the same time on raw std::threads must each produce the byte-identical
// result of a serial run, across wire protocols, seed strategies,
// thread-pool widths and a shared stage-artifact cache. This is the proof
// obligation for the global-state sweep (EnvSnapshot, per-pool TLS slots):
// before it, scattered getenv reads and cross-pool thread_local indices made
// two concurrent Assemblers unsound. Runs under TSan via
// tools/run_sanitizers.sh.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "common/env.hpp"
#include "core/assembler.hpp"
#include "sim/datasets.hpp"
#include "svc/artifact_cache.hpp"

namespace focus {
namespace {

const sim::Dataset& dataset_one() {
  static const sim::Dataset d =
      sim::make_dataset(1, /*scale=*/0.13, /*coverage=*/5.0);
  return d;
}

const sim::Dataset& dataset_two() {
  static const sim::Dataset d =
      sim::make_dataset(2, /*scale=*/0.13, /*coverage=*/5.0);
  return d;
}

/// Env-independent pipeline config; the distributed strategy puts stage 2
/// inside the fault envelope, so a plan reaches it.
core::FocusConfig jobs_config(dist::DistProtocol protocol,
                              unsigned width = 0) {
  core::FocusConfig cfg{EnvSnapshot{}};
  cfg.overlap.strategy = align::SeedStrategy::kDistributedIndex;
  cfg.overlap.k = 14;
  cfg.overlap.min_overlap = 40;
  cfg.overlap.subsets = 2;
  cfg.coarsen.min_nodes = 32;
  cfg.partitions = 4;
  cfg.ranks = 2;
  cfg.min_contig_length = 150;
  cfg.dist.protocol = protocol;
  if (width != 0) cfg.overlap.threads = width;
  return cfg;
}

/// Serial oracles. Outputs are protocol/strategy/width-invariant, so one
/// oracle per dataset serves every configuration under test.
const core::AssemblyResult& oracle_one() {
  static const core::AssemblyResult r =
      core::assemble_reads(dataset_one().data.reads,
                           jobs_config(dist::DistProtocol::kMaster));
  return r;
}

const core::AssemblyResult& oracle_two() {
  static const core::AssemblyResult r =
      core::assemble_reads(dataset_two().data.reads,
                           jobs_config(dist::DistProtocol::kMaster));
  return r;
}

void expect_same_assembly(const core::AssemblyResult& got,
                          const core::AssemblyResult& want,
                          const std::string& ctx) {
  ASSERT_EQ(got.contigs, want.contigs) << ctx;
  ASSERT_EQ(got.paths, want.paths) << ctx;
  EXPECT_EQ(got.reads.size(), want.reads.size()) << ctx;
  EXPECT_EQ(got.overlaps.size(), want.overlaps.size()) << ctx;
  EXPECT_EQ(got.partitioning.finest_cut, want.partitioning.finest_cut) << ctx;
  EXPECT_EQ(got.stats.n50, want.stats.n50) << ctx;
  EXPECT_EQ(got.stats.total_bases, want.stats.total_bases) << ctx;
}

/// Runs two full assemblies concurrently on raw std::threads, both on
/// `cache` when one is given, and checks both against the serial oracles.
void run_concurrent_pair(const core::FocusConfig& cfg1,
                         const core::FocusConfig& cfg2,
                         const std::string& ctx,
                         svc::ArtifactCache* cache = nullptr) {
  core::AssemblyResult r1, r2;
  std::thread t1([&] {
    r1 = core::FocusAssembler(cfg1).assemble(dataset_one().data.reads, cache);
  });
  std::thread t2([&] {
    r2 = core::FocusAssembler(cfg2).assemble(dataset_two().data.reads, cache);
  });
  t1.join();
  t2.join();
  expect_same_assembly(r1, oracle_one(), ctx + " / dataset 1");
  expect_same_assembly(r2, oracle_two(), ctx + " / dataset 2");
}

TEST(ConcurrentAssemblers, ProtocolMatrixMatchesSerial) {
  for (const auto protocol :
       {dist::DistProtocol::kMaster, dist::DistProtocol::kSymmetric}) {
    const std::string ctx =
        std::string("protocol=") +
        (protocol == dist::DistProtocol::kMaster ? "master" : "symmetric");
    SCOPED_TRACE(ctx);
    run_concurrent_pair(jobs_config(protocol), jobs_config(protocol), ctx);
  }
}

TEST(ConcurrentAssemblers, HeavyWidthSweepMatchesSerial) {
  for (const unsigned width : {1u, 2u, 4u, 8u}) {
    const std::string ctx = "width=" + std::to_string(width);
    SCOPED_TRACE(ctx);
    run_concurrent_pair(jobs_config(dist::DistProtocol::kSymmetric, width),
                        jobs_config(dist::DistProtocol::kSymmetric, width),
                        ctx);
  }
}

TEST(ConcurrentAssemblers, MixedConfigurationsShareTheProcess) {
  // The two concurrent jobs deliberately disagree on protocol, seed strategy,
  // fault plan and width: nothing one job configures may leak into the
  // other. Both strategies run find_overlaps_parallel under an empty plan,
  // so the second job carries a plan whose only crash point never fires:
  // its stage 2 (and preprocess and simplify) take the recovering drivers
  // while the first job's take the fault-free ones.
  core::FocusConfig all_pairs = jobs_config(dist::DistProtocol::kMaster, 2);
  all_pairs.overlap.strategy = align::SeedStrategy::kAllPairs;
  core::FocusConfig recovering =
      jobs_config(dist::DistProtocol::kSymmetric, 8);
  recovering.fault_plan.crashes.push_back({1, std::uint64_t{1} << 62});
  run_concurrent_pair(all_pairs, recovering, "mixed configs");
}

TEST(ConcurrentAssemblers, SharedArtifactCacheMatchesSerial) {
  // Both assemblies miss, then put, all three stages of one cache at once.
  svc::ArtifactCache cache(0);
  const core::FocusConfig cfg = jobs_config(dist::DistProtocol::kSymmetric);
  run_concurrent_pair(cfg, cfg, "shared cache", &cache);
  EXPECT_EQ(cache.stats().entries, 6u);

  const core::AssemblyResult again =
      core::FocusAssembler(cfg).assemble(dataset_one().data.reads, &cache);
  EXPECT_TRUE(again.cache_hits.preprocess);
  EXPECT_TRUE(again.cache_hits.overlaps);
  EXPECT_TRUE(again.cache_hits.coarsen);
  expect_same_assembly(again, oracle_one(), "shared cache / repeat");
}

}  // namespace
}  // namespace focus
