// Stage-artifact cache and environment suite (DESIGN.md §10): EnvSnapshot
// capture and strict parsing (including the removed
// FOCUS_GRAPH_BACKEND=csr-spill value), ArtifactCache policy (hit/miss, LRU
// eviction, oversized decline), and the end-to-end stage-cache path through
// the assembler (repeat runs and re-partitions at other k must hit and stay
// byte-identical to cache-free runs, RunStats and vtime included).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>

#include "common/env.hpp"
#include "common/error.hpp"
#include "core/assembler.hpp"
#include "dist/gfa.hpp"
#include "sim/datasets.hpp"
#include "svc/artifact_cache.hpp"

namespace focus {
namespace {

// ---------------------------------------------------------------------------
// EnvSnapshot
// ---------------------------------------------------------------------------

TEST(EnvSnapshot, CaptureReflectsProcessEnvironment) {
  ASSERT_EQ(setenv("FOCUS_SEED_STRATEGY", "distributed", 1), 0);
  ASSERT_EQ(setenv("FOCUS_THREADS", "7", 1), 0);
  const EnvSnapshot snap = EnvSnapshot::capture();
  ASSERT_TRUE(snap.seed_strategy.has_value());
  EXPECT_EQ(*snap.seed_strategy, "distributed");
  ASSERT_TRUE(snap.thread_count().has_value());
  EXPECT_EQ(*snap.thread_count(), 7u);

  ASSERT_EQ(unsetenv("FOCUS_SEED_STRATEGY"), 0);
  ASSERT_EQ(unsetenv("FOCUS_THREADS"), 0);
  const EnvSnapshot fresh = EnvSnapshot::capture();
  EXPECT_FALSE(fresh.seed_strategy.has_value());
  EXPECT_FALSE(fresh.thread_count().has_value());
  // A snapshot is immutable: the earlier capture still holds the old values.
  EXPECT_EQ(*snap.seed_strategy, "distributed");
}

TEST(EnvSnapshot, StrictParsersRejectMalformedValues) {
  EXPECT_EQ(env::parse_u64("X", "0"), 0u);
  EXPECT_EQ(env::parse_u64("X", "123"), 123u);
  for (const char* bad : {"", "x", "1x", "-1", "+1", " 1",
                          "99999999999999999999999"}) {
    SCOPED_TRACE(std::string("value='") + bad + "'");
    EXPECT_THROW(env::parse_u64("X", bad), Error);
  }
  EXPECT_DOUBLE_EQ(env::parse_double("X", "0.25"), 0.25);
  EXPECT_THROW(env::parse_double("X", "0.25abc"), Error);
  EXPECT_THROW(env::parse_double("X", ""), Error);
  EXPECT_DOUBLE_EQ(env::parse_rate("X", "1.0"), 1.0);
  EXPECT_THROW(env::parse_rate("X", "1.5"), Error);
  EXPECT_THROW(env::parse_rate("X", "-0.1"), Error);
}

// FOCUS_GRAPH_BACKEND accepts only the in-memory graph; the removed
// csr-spill backend is a typed error, never a silent fallback.
graph::GraphStoreConfig graph_store_for(std::optional<std::string> backend) {
  EnvSnapshot env;
  env.graph_backend = std::move(backend);
  return graph::GraphStoreConfig::from_env(env);
}

TEST(GraphStoreConfigEnv, UnsetDefaultsToInMemory) {
  EXPECT_EQ(graph_store_for(std::nullopt).backend,
            graph::GraphStoreBackend::kInMemory);
  EXPECT_EQ(graph_store_for("").backend, graph::GraphStoreBackend::kInMemory);
}

TEST(GraphStoreConfigEnv, NamedBackendsParse) {
  EXPECT_EQ(graph_store_for("memory").backend,
            graph::GraphStoreBackend::kInMemory);
}

TEST(GraphStoreConfigEnv, TypoThrowsInsteadOfSilentFallback) {
  EXPECT_THROW(graph_store_for("csrspill"), Error);
  EXPECT_THROW(graph_store_for("disk"), Error);
}

TEST(GraphStoreConfigEnv, RemovedSpillBackendNamesTheRemoval) {
  for (const char* removed : {"csr-spill", "csr_spill"}) {
    SCOPED_TRACE(removed);
    try {
      (void)graph_store_for(removed);
      ADD_FAILURE() << "expected focus::Error";
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(std::string("'") + removed + "' backend was removed"),
                std::string::npos)
          << what;
      EXPECT_NE(what.find("unset FOCUS_GRAPH_BACKEND or set it to 'memory'"),
                std::string::npos)
          << what;
    }
  }
  // FocusConfig resolves the knob when it is built, so a stale setting fails
  // before any stage runs.
  EnvSnapshot env;
  env.graph_backend = "csr-spill";
  EXPECT_THROW((void)core::FocusConfig{env}, Error);
}

TEST(FocusConfig, DefaultCtorFollowsEnvPinnedCtorDoesNot) {
  ASSERT_EQ(setenv("FOCUS_SEED_STRATEGY", "distributed", 1), 0);
  ASSERT_EQ(setenv("FOCUS_DIST_PROTOCOL", "master", 1), 0);

  const core::FocusConfig live;  // captures the live environment once
  EXPECT_EQ(live.overlap.strategy, align::SeedStrategy::kDistributedIndex);
  EXPECT_EQ(live.dist.protocol, dist::DistProtocol::kMaster);

  // An empty snapshot pins every env-defaulted knob to its documented
  // default, regardless of the live environment.
  const core::FocusConfig pinned{EnvSnapshot{}};
  EXPECT_EQ(pinned.overlap.strategy, align::SeedStrategy::kAllPairs);
  EXPECT_EQ(pinned.dist.protocol, dist::DistProtocol::kSymmetric);

  ASSERT_EQ(unsetenv("FOCUS_SEED_STRATEGY"), 0);
  ASSERT_EQ(unsetenv("FOCUS_DIST_PROTOCOL"), 0);
}

// ---------------------------------------------------------------------------
// ArtifactCache policy
// ---------------------------------------------------------------------------

std::shared_ptr<core::OverlapArtifact> overlap_artifact(std::size_t n) {
  auto artifact = std::make_shared<core::OverlapArtifact>();
  artifact->overlaps.resize(n);
  artifact->overlaps.shrink_to_fit();
  return artifact;
}

TEST(ArtifactCache, HitMissAndLruEviction) {
  const std::size_t unit = svc::artifact_bytes(*overlap_artifact(100));
  svc::ArtifactCache cache(2 * unit + unit / 2);  // room for two entries

  const common::Digest k1{1, 1}, k2{2, 2}, k3{3, 3};
  EXPECT_EQ(cache.get_overlaps(k1), nullptr);  // miss
  cache.put_overlaps(k1, overlap_artifact(100));
  cache.put_overlaps(k2, overlap_artifact(100));
  EXPECT_NE(cache.get_overlaps(k1), nullptr);  // touch k1: k2 is now LRU
  cache.put_overlaps(k3, overlap_artifact(100));

  EXPECT_EQ(cache.get_overlaps(k2), nullptr);  // evicted
  EXPECT_NE(cache.get_overlaps(k1), nullptr);
  EXPECT_NE(cache.get_overlaps(k3), nullptr);

  const svc::CacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_LE(stats.resident_bytes, cache.budget_bytes());
}

TEST(ArtifactCache, OversizedArtifactIsDeclined) {
  const std::size_t unit = svc::artifact_bytes(*overlap_artifact(10));
  svc::ArtifactCache cache(unit);
  cache.put_overlaps(common::Digest{9, 9}, overlap_artifact(100000));
  EXPECT_EQ(cache.get_overlaps(common::Digest{9, 9}), nullptr);
  EXPECT_EQ(cache.stats().declined, 1u);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(ArtifactCache, ZeroBudgetMeansUnlimited) {
  svc::ArtifactCache cache(0);
  for (std::uint64_t i = 0; i < 16; ++i) {
    cache.put_overlaps(common::Digest{i, i}, overlap_artifact(1000));
  }
  EXPECT_EQ(cache.stats().entries, 16u);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

// ---------------------------------------------------------------------------
// StageCache through the assembler
// ---------------------------------------------------------------------------

const sim::Dataset& tiny_dataset() {
  static const sim::Dataset d =
      sim::make_dataset(1, /*scale=*/0.13, /*coverage=*/5.0);
  return d;
}

/// Env-independent small pipeline config (all-pairs overlap for speed).
core::FocusConfig tiny_config() {
  core::FocusConfig cfg{EnvSnapshot{}};
  cfg.overlap.k = 14;
  cfg.overlap.min_overlap = 40;
  cfg.overlap.subsets = 2;
  cfg.coarsen.min_nodes = 32;
  cfg.partitions = 4;
  cfg.ranks = 2;
  cfg.min_contig_length = 150;
  return cfg;
}

std::string gfa_text(const dist::AsmGraph& graph) {
  std::ostringstream out;
  dist::write_gfa(out, graph);
  return out.str();
}

void expect_identical_run(const mpr::RunStats& got, const mpr::RunStats& want,
                          const char* which) {
  SCOPED_TRACE(which);
  EXPECT_EQ(got.makespan, want.makespan);
  EXPECT_EQ(got.rank_vtime, want.rank_vtime);
  EXPECT_EQ(got.messages, want.messages);
  EXPECT_EQ(got.bytes, want.bytes);
  EXPECT_EQ(got.retries, want.retries);
  EXPECT_EQ(got.ranks_failed, want.ranks_failed);
  EXPECT_EQ(got.recovery_vtime, want.recovery_vtime);
}

void expect_identical_assembly(const core::AssemblyResult& got,
                               const core::AssemblyResult& want) {
  ASSERT_EQ(got.contigs, want.contigs);
  ASSERT_EQ(got.paths, want.paths);
  EXPECT_EQ(got.reads.size(), want.reads.size());
  EXPECT_EQ(got.overlaps.size(), want.overlaps.size());
  EXPECT_EQ(got.stats.n50, want.stats.n50);
  EXPECT_EQ(got.stats.total_bases, want.stats.total_bases);
  EXPECT_EQ(got.partitioning.finest_cut, want.partitioning.finest_cut);
  EXPECT_EQ(got.read_partition, want.read_partition);
  EXPECT_EQ(gfa_text(got.assembly_graph), gfa_text(want.assembly_graph));
  EXPECT_EQ(got.hybrid.hybrid_graph().node_count(),
            want.hybrid.hybrid_graph().node_count());
  EXPECT_EQ(got.hybrid.selection_work, want.hybrid.selection_work);
  const dist::SimplifyStats& gs = got.simplify_stats;
  const dist::SimplifyStats& ws = want.simplify_stats;
  EXPECT_EQ(gs.transitive_edges, ws.transitive_edges);
  EXPECT_EQ(gs.false_edges, ws.false_edges);
  EXPECT_EQ(gs.contained_nodes, ws.contained_nodes);
  EXPECT_EQ(gs.verified_edges, ws.verified_edges);
  EXPECT_EQ(gs.tip_nodes, ws.tip_nodes);
  EXPECT_EQ(gs.bubble_nodes, ws.bubble_nodes);
  // Cached stages must reproduce the stats a fresh run records, bitwise.
  ASSERT_EQ(got.timings.size(), want.timings.size());
  for (const auto& [stage, timing] : want.timings) {
    const auto it = got.timings.find(stage);
    ASSERT_NE(it, got.timings.end()) << stage;
    EXPECT_EQ(it->second.vtime, timing.vtime) << stage;
  }
  expect_identical_run(got.preprocess_run, want.preprocess_run, "preprocess");
  expect_identical_run(got.align_run, want.align_run, "align");
  expect_identical_run(got.partition_run, want.partition_run, "partition");
  expect_identical_run(got.simplify_run, want.simplify_run, "simplify");
  expect_identical_run(got.traverse_run, want.traverse_run, "traverse");
}

TEST(StageCache, AssemblerRepeatRunHitsAllThreeStages) {
  svc::ArtifactCache cache(0);
  const core::FocusAssembler assembler(tiny_config());

  const core::AssemblyResult cold =
      assembler.assemble(tiny_dataset().data.reads, &cache);
  EXPECT_FALSE(cold.cache_hits.preprocess);
  EXPECT_FALSE(cold.cache_hits.overlaps);
  EXPECT_FALSE(cold.cache_hits.coarsen);
  EXPECT_EQ(cache.stats().entries, 3u);

  const core::AssemblyResult warm =
      assembler.assemble(tiny_dataset().data.reads, &cache);
  EXPECT_TRUE(warm.cache_hits.preprocess);
  EXPECT_TRUE(warm.cache_hits.overlaps);
  EXPECT_TRUE(warm.cache_hits.coarsen);
  expect_identical_assembly(warm, cold);

  // A cache-free run is the oracle for both.
  const core::AssemblyResult fresh =
      assembler.assemble(tiny_dataset().data.reads);
  expect_identical_assembly(cold, fresh);
}

TEST(StageCache, KeysChainThroughTheStages) {
  svc::ArtifactCache cache(0);
  core::FocusConfig cfg = tiny_config();
  const auto cold =
      core::FocusAssembler(cfg).assemble(tiny_dataset().data.reads, &cache);

  // Downstream-only knobs keep all three artifacts valid: stage 4 and the
  // assembly-graph build, which the third also holds, read neither k nor
  // the partitioning route.
  core::FocusConfig downstream = cfg;
  downstream.min_contig_length = 200;
  downstream.partitions = 16;
  downstream.use_hybrid_partitioning = false;
  const auto reuse = core::FocusAssembler(downstream)
                         .assemble(tiny_dataset().data.reads, &cache);
  EXPECT_TRUE(reuse.cache_hits.preprocess);
  EXPECT_TRUE(reuse.cache_hits.overlaps);
  EXPECT_TRUE(reuse.cache_hits.coarsen);

  // Width fields stay out of the keys: the stage-2 pool width changes
  // neither the cached artifacts nor their vtime, and coarsen.threads has no
  // effect, so a config that differs only in them hits all three stages.
  core::FocusConfig rewidth = cfg;
  rewidth.overlap.threads = cfg.overlap.threads + 3;
  rewidth.coarsen.threads = cfg.coarsen.threads + 3;
  const auto widened = core::FocusAssembler(rewidth)
                           .assemble(tiny_dataset().data.reads, &cache);
  EXPECT_TRUE(widened.cache_hits.preprocess);
  EXPECT_TRUE(widened.cache_hits.overlaps);
  EXPECT_TRUE(widened.cache_hits.coarsen);
  expect_identical_assembly(widened, cold);

  // An overlap knob invalidates overlap + coarsen but not preprocessing.
  core::FocusConfig rekmer = cfg;
  rekmer.overlap.k = 16;
  const auto partial = core::FocusAssembler(rekmer)
                           .assemble(tiny_dataset().data.reads, &cache);
  EXPECT_TRUE(partial.cache_hits.preprocess);
  EXPECT_FALSE(partial.cache_hits.overlaps);
  EXPECT_FALSE(partial.cache_hits.coarsen);

  // The execution envelope is part of every key: changing the rank count
  // must miss (RunStats depend on it).
  core::FocusConfig reranked = cfg;
  reranked.ranks = 4;
  const auto envelope = core::FocusAssembler(reranked)
                            .assemble(tiny_dataset().data.reads, &cache);
  EXPECT_FALSE(envelope.cache_hits.preprocess);
  EXPECT_FALSE(envelope.cache_hits.overlaps);
  EXPECT_FALSE(envelope.cache_hits.coarsen);
}

// The stage-3 artifact also holds the hybrid set and the unsimplified
// assembly graph, none of which reads k or the partitioning route: a cache
// filled at k = 4 must reproduce a cache-free run at every other k, on both
// routes and under both wire protocols.
TEST(StageCache, StageThreeHitMatchesFreshRunAtEveryK) {
  const io::ReadSet& reads = tiny_dataset().data.reads;
  for (const auto protocol :
       {dist::DistProtocol::kMaster, dist::DistProtocol::kSymmetric}) {
    SCOPED_TRACE(protocol == dist::DistProtocol::kMaster ? "master"
                                                          : "symmetric");
    svc::ArtifactCache cache(0);
    core::FocusConfig fill = tiny_config();
    fill.partitions = 4;
    fill.dist.protocol = protocol;
    const auto filled = core::FocusAssembler(fill).assemble(reads, &cache);
    ASSERT_FALSE(filled.cache_hits.coarsen);
    ASSERT_EQ(cache.stats().entries, 3u);
    for (const bool hybrid_route : {true, false}) {
      for (const PartId k : {2u, 16u, 64u}) {
        SCOPED_TRACE(std::string(hybrid_route ? "hybrid" : "multilevel") +
                     " route, k=" + std::to_string(k));
        core::FocusConfig cfg = fill;
        cfg.partitions = k;
        cfg.use_hybrid_partitioning = hybrid_route;
        const core::FocusAssembler assembler(cfg);
        const auto warm = assembler.assemble(reads, &cache);
        EXPECT_TRUE(warm.cache_hits.preprocess);
        EXPECT_TRUE(warm.cache_hits.overlaps);
        EXPECT_TRUE(warm.cache_hits.coarsen);
        expect_identical_assembly(warm, assembler.assemble(reads));
      }
    }
    EXPECT_EQ(cache.stats().entries, 3u);
  }
}

// The budget counts the grown stage-3 artifact, hybrid set and assembly
// graph included: a budget that holds stages 1-2, and would hold the
// overlap graph and multilevel set alone, declines it, and the next
// assembly rebuilds stages 3-4 and still equals the cache-free run.
TEST(StageCache, BudgetBelowTheGrownStageThreeArtifactDeclinesIt) {
  const io::ReadSet& reads = tiny_dataset().data.reads;
  const core::FocusConfig cfg = tiny_config();
  const core::FocusAssembler assembler(cfg);

  svc::ArtifactCache sizing(0);
  (void)assembler.assemble(reads, &sizing);
  const common::Digest pre_key =
      core::preprocess_key(core::dataset_digest(reads), cfg);
  const common::Digest ov_key = core::overlap_key(pre_key, cfg);
  const auto coarsened = sizing.get_coarsen(core::coarsen_key(ov_key, cfg));
  ASSERT_NE(coarsened, nullptr);
  core::CoarsenArtifact stage_three_only;
  stage_three_only.overlap_graph = coarsened->overlap_graph;
  stage_three_only.multilevel = coarsened->multilevel;
  const std::size_t budget = std::max(
      svc::artifact_bytes(*sizing.get_preprocess(pre_key)) +
          svc::artifact_bytes(*sizing.get_overlaps(ov_key)),
      svc::artifact_bytes(stage_three_only));
  ASSERT_LT(budget, svc::artifact_bytes(*coarsened));

  svc::ArtifactCache cache(budget);
  (void)assembler.assemble(reads, &cache);
  EXPECT_EQ(cache.stats().declined, 1u);
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_EQ(cache.stats().evictions, 0u);

  const auto again = assembler.assemble(reads, &cache);
  EXPECT_TRUE(again.cache_hits.preprocess);
  EXPECT_TRUE(again.cache_hits.overlaps);
  EXPECT_FALSE(again.cache_hits.coarsen);
  expect_identical_assembly(again, assembler.assemble(reads));
}

}  // namespace
}  // namespace focus
