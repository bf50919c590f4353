// Tests for graph partitioning: metrics, greedy graph growing, KL bisection
// refinement, global k-way refinement, and the multilevel driver (§IV).
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <sstream>
#include <string>

#include "align/overlapper.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "graph/coarsen.hpp"
#include "graph/hybrid.hpp"
#include "io/preprocess.hpp"
#include "partition/ggg.hpp"
#include "partition/kl.hpp"
#include "partition/kway.hpp"
#include "partition/mlpart.hpp"
#include "partition/partition.hpp"
#include "sim/datasets.hpp"

namespace focus::partition {
namespace {

using graph::Graph;
using graph::GraphBuilder;

Graph random_graph(std::uint64_t seed, std::size_t n, std::size_t extra) {
  Rng rng(seed);
  GraphBuilder b(n);
  for (NodeId v = 1; v < n; ++v) {
    b.add_edge(v, static_cast<NodeId>(rng.next_below(v)),
               1 + static_cast<Weight>(rng.next_below(50)));
  }
  for (std::size_t i = 0; i < extra; ++i) {
    const auto u = static_cast<NodeId>(rng.next_below(n));
    const auto v = static_cast<NodeId>(rng.next_below(n));
    if (u != v) b.add_edge(u, v, 1 + static_cast<Weight>(rng.next_below(50)));
  }
  return b.build();
}

// Two dense blobs joined by one light edge: the canonical bisection target.
Graph two_blobs(std::size_t blob, Weight internal = 20, Weight bridge = 1) {
  GraphBuilder b(2 * blob);
  for (NodeId i = 0; i < blob; ++i) {
    for (NodeId j = i + 1; j < blob; ++j) {
      b.add_edge(i, j, internal);
      b.add_edge(static_cast<NodeId>(blob + i),
                 static_cast<NodeId>(blob + j), internal);
    }
  }
  b.add_edge(0, static_cast<NodeId>(blob), bridge);
  return b.build();
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

TEST(Metrics, EdgeCutCountsCrossEdgesOnce) {
  GraphBuilder b(4);
  b.add_edge(0, 1, 10);
  b.add_edge(1, 2, 20);
  b.add_edge(2, 3, 30);
  const Graph g = b.build();
  EXPECT_EQ(edge_cut(g, {0, 0, 1, 1}), 20);
  EXPECT_EQ(edge_cut(g, {0, 1, 0, 1}), 60);
  EXPECT_EQ(edge_cut(g, {0, 0, 0, 0}), 0);
}

TEST(Metrics, PartWeights) {
  GraphBuilder b(3);
  b.set_node_weight(0, 5);
  b.set_node_weight(1, 3);
  b.set_node_weight(2, 2);
  b.add_edge(0, 1, 7);
  const Graph g = b.build();
  const auto nw = part_node_weights(g, {0, 1, 1}, 2);
  EXPECT_EQ(nw[0], 5);
  EXPECT_EQ(nw[1], 5);
  const auto ew = part_edge_weights(g, {0, 1, 1}, 2);
  EXPECT_EQ(ew[0], 7);
  EXPECT_EQ(ew[1], 7);
  EXPECT_DOUBLE_EQ(node_balance(g, {0, 1, 1}, 2), 1.0);
}

TEST(Metrics, IsComplete) {
  EXPECT_TRUE(is_complete({0, 1, 1, 0}, 2));
  EXPECT_FALSE(is_complete({0, kNoPart}, 2));
  EXPECT_FALSE(is_complete({0, 2}, 2));
}

// ---------------------------------------------------------------------------
// Greedy graph growing
// ---------------------------------------------------------------------------

TEST(Ggg, ProducesCompleteBisection) {
  const Graph g = random_graph(1, 60, 120);
  Rng rng(2);
  const auto part = greedy_graph_growing(g, rng);
  ASSERT_EQ(part.size(), 60u);
  EXPECT_TRUE(is_complete(part, 2));
  // Both sides non-empty.
  const auto nw = part_node_weights(g, part, 2);
  EXPECT_GT(nw[0], 0);
  EXPECT_GT(nw[1], 0);
}

TEST(Ggg, NodeWeightApproximatelyBalanced) {
  const Graph g = random_graph(3, 100, 200);
  Rng rng(4);
  const auto part = greedy_graph_growing(g, rng);
  EXPECT_LT(node_balance(g, part, 2), 1.25);
}

TEST(Ggg, FindsObviousBisectionOfTwoBlobs) {
  const Graph g = two_blobs(8);
  Rng rng(5);
  const auto part = greedy_graph_growing(g, rng);
  // The natural cut severs only the bridge; GGG should get close. Allow
  // KL to be the final word, but the cut must be far below worst case.
  EXPECT_LT(edge_cut(g, part), g.total_edge_weight() / 4);
}

TEST(Ggg, SingleNodeGraph) {
  GraphBuilder b(1);
  const Graph g = b.build();
  Rng rng(6);
  const auto part = greedy_graph_growing(g, rng);
  ASSERT_EQ(part.size(), 1u);
  EXPECT_GE(part[0], 0);
}

TEST(Ggg, EmptyGraph) {
  GraphBuilder b(0);
  const Graph g = b.build();
  Rng rng(7);
  EXPECT_TRUE(greedy_graph_growing(g, rng).empty());
}

TEST(Ggg, DisconnectedGraphStillCovered) {
  GraphBuilder b(10);
  b.add_edge(0, 1, 5);
  b.add_edge(2, 3, 5);  // plus 6 isolated nodes
  const Graph g = b.build();
  Rng rng(8);
  const auto part = greedy_graph_growing(g, rng);
  EXPECT_TRUE(is_complete(part, 2));
}

// ---------------------------------------------------------------------------
// KL bisection refinement
// ---------------------------------------------------------------------------

TEST(Kl, NeverIncreasesCut) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const Graph g = random_graph(seed, 40, 80);
    Rng rng(seed * 7);
    auto part = greedy_graph_growing(g, rng);
    const Weight before = edge_cut(g, part);
    const Weight after = kl_bisection_refine(g, part);
    EXPECT_LE(after, before) << "seed " << seed;
    EXPECT_EQ(after, edge_cut(g, part));
    EXPECT_TRUE(is_complete(part, 2));
  }
}

TEST(Kl, RepairsDeliberatelyBadBisection) {
  const Graph g = two_blobs(6);
  // Worst-case start: interleave the blobs.
  std::vector<PartId> part(12);
  for (NodeId v = 0; v < 12; ++v) part[v] = static_cast<PartId>(v % 2);
  const Weight before = edge_cut(g, part);
  const Weight after = kl_bisection_refine(g, part);
  EXPECT_LT(after, before / 4);
  // The ideal cut is the single bridge edge.
  EXPECT_EQ(after, 1);
}

TEST(Kl, PreservesSideSizes) {
  const Graph g = random_graph(11, 30, 60);
  Rng rng(12);
  auto part = greedy_graph_growing(g, rng);
  const auto count_side = [&](PartId s) {
    std::size_t n = 0;
    for (const PartId p : part) {
      if (p == s) ++n;
    }
    return n;
  };
  const auto before0 = count_side(0);
  kl_bisection_refine(g, part);
  EXPECT_EQ(count_side(0), before0);  // pure pair swaps
}

TEST(Kl, NaiveAndDiagonalScanningAgreeExactly) {
  for (std::uint64_t seed = 20; seed < 25; ++seed) {
    const Graph g = random_graph(seed, 24, 40);
    Rng rng_a(99), rng_b(99);
    auto part_a = greedy_graph_growing(g, rng_a);
    auto part_b = part_a;
    KlConfig diag;
    diag.diagonal_scanning = true;
    KlConfig naive;
    naive.diagonal_scanning = false;
    const Weight cut_a = kl_bisection_refine(g, part_a, diag);
    const Weight cut_b = kl_bisection_refine(g, part_b, naive);
    // Both strategies select the argmax pair of the same total order
    // (gain, D-sum, enumeration position) every swap, so they are
    // interchangeable swap for swap — not just comparable.
    EXPECT_EQ(cut_a, cut_b) << "seed " << seed;
    EXPECT_EQ(part_a, part_b) << "seed " << seed;
  }
}

// Unit edge weights maximize gain ties: many pairs share the best gain, so
// any strategy that breaks ties differently (e.g. the old stdlib-dependent
// heap pop order, or an update rule with no tie-break at all) diverges
// within a few swaps. The shared (gain, D-sum, enumeration-position) total
// order must make the heap diagonal scan, the chunked bounded scan, and
// the naive all-pairs search pick the same pair every swap, giving
// identical final parts and cuts.
TEST(Kl, PairSearchStrategiesIdenticalOnUniformWeights) {
  const auto uniform_graph = [](std::uint64_t seed, std::size_t n,
                                std::size_t extra) {
    Rng rng(seed);
    GraphBuilder b(n);
    for (NodeId v = 1; v < n; ++v) {
      b.add_edge(v, static_cast<NodeId>(rng.next_below(v)), 1);
    }
    for (std::size_t i = 0; i < extra; ++i) {
      const auto u = static_cast<NodeId>(rng.next_below(n));
      const auto v = static_cast<NodeId>(rng.next_below(n));
      if (u != v) b.add_edge(u, v, 1);
    }
    return b.build();
  };
  for (std::uint64_t seed = 100; seed < 120; ++seed) {
    const Graph g = uniform_graph(seed, 48, 96);
    Rng rng(seed * 3 + 1);
    const auto start = greedy_graph_growing(g, rng);

    KlConfig heap;
    heap.pair_chunk_min_nodes = SIZE_MAX;  // pure heap diagonal scan
    KlConfig chunked;
    chunked.pair_chunk_min_nodes = 0;  // chunked bounded scan at any size
    KlConfig naive;
    naive.diagonal_scanning = false;

    auto part_heap = start;
    auto part_chunked = start;
    auto part_naive = start;
    const Weight cut_heap = kl_bisection_refine(g, part_heap, heap);
    const Weight cut_chunked = kl_bisection_refine(g, part_chunked, chunked);
    const Weight cut_naive = kl_bisection_refine(g, part_naive, naive);
    EXPECT_EQ(cut_heap, cut_naive) << "seed " << seed;
    EXPECT_EQ(cut_heap, cut_chunked) << "seed " << seed;
    EXPECT_EQ(part_heap, part_naive) << "seed " << seed;
    EXPECT_EQ(part_heap, part_chunked) << "seed " << seed;
  }
}

TEST(Kl, RejectsNonBisection) {
  const Graph g = random_graph(30, 10, 10);
  std::vector<PartId> part(10, 0);
  part[0] = 2;
  EXPECT_THROW(kl_bisection_refine(g, part), Error);
}

TEST(Kl, HandlesAllOnOneSide) {
  const Graph g = random_graph(31, 10, 10);
  std::vector<PartId> part(10, 0);
  const Weight cut = kl_bisection_refine(g, part);
  EXPECT_EQ(cut, 0);  // no pairs to swap; cut stays zero
}

// ---------------------------------------------------------------------------
// Global k-way KL refinement
// ---------------------------------------------------------------------------

TEST(Kway, NeverIncreasesCut) {
  for (std::uint64_t seed = 40; seed < 48; ++seed) {
    const Graph g = random_graph(seed, 50, 100);
    Rng rng(seed);
    std::vector<PartId> part(50);
    for (auto& p : part) p = static_cast<PartId>(rng.next_below(4));
    const Weight before = edge_cut(g, part);
    const Weight after = kway_kl_refine(g, part, 4);
    EXPECT_LE(after, before);
    EXPECT_EQ(after, edge_cut(g, part));
    EXPECT_TRUE(is_complete(part, 4));
  }
}

TEST(Kway, RespectsBalanceBound) {
  const Graph g = random_graph(50, 60, 120);
  Rng rng(51);
  std::vector<PartId> part(60);
  for (NodeId v = 0; v < 60; ++v) part[v] = static_cast<PartId>(v % 4);
  KwayConfig cfg;
  cfg.balance_bound = 1.03;
  kway_kl_refine(g, part, 4, cfg);
  const auto nw = part_node_weights(g, part, 4);
  const auto mx = *std::max_element(nw.begin(), nw.end());
  const auto mn = *std::min_element(nw.begin(), nw.end());
  // Moves only happen into parts lighter than 1.03x the source, so the final
  // spread stays moderate (each move shifts one unit node weight).
  EXPECT_LT(static_cast<double>(mx),
            1.2 * static_cast<double>(std::max<Weight>(mn, 1)));
}

TEST(Kway, SinglePartIsNoop) {
  const Graph g = random_graph(52, 20, 30);
  std::vector<PartId> part(20, 0);
  EXPECT_EQ(kway_kl_refine(g, part, 1), 0);
}

TEST(Kway, FixesObviousMisassignments) {
  // Two blobs, partitioned correctly except one traitor node per side.
  const Graph g = two_blobs(6);
  std::vector<PartId> part(12);
  for (NodeId v = 0; v < 12; ++v) part[v] = v < 6 ? 0 : 1;
  std::swap(part[2], part[8]);  // two traitors keep sizes balanced
  const Weight after = kway_kl_refine(g, part, 2);
  EXPECT_EQ(after, 1);  // only the bridge remains cut
}

TEST(Kway, RequiresCompletePartition) {
  const Graph g = random_graph(53, 10, 10);
  std::vector<PartId> part(10, kNoPart);
  EXPECT_THROW(kway_kl_refine(g, part, 2), Error);
}

// ---------------------------------------------------------------------------
// Multilevel hierarchy partitioning
// ---------------------------------------------------------------------------

graph::GraphHierarchy hierarchy_of(const Graph& g) {
  graph::CoarsenConfig cfg;
  cfg.min_nodes = 8;
  cfg.max_levels = 6;
  return graph::build_multilevel(g, cfg);
}

TEST(MlPart, ProducesKCompleteParts) {
  const Graph g = random_graph(60, 120, 240);
  const auto h = hierarchy_of(g);
  PartitionerConfig cfg;
  for (const PartId k : {1, 2, 4, 8}) {
    const auto result = partition_hierarchy(h, k, cfg);
    EXPECT_EQ(result.parts, k);
    ASSERT_EQ(result.levels.size(), h.depth());
    for (std::size_t l = 0; l < h.depth(); ++l) {
      EXPECT_TRUE(is_complete(result.levels[l], k)) << "level " << l;
      ASSERT_EQ(result.levels[l].size(), h.levels[l].node_count());
    }
    EXPECT_EQ(result.finest_cut, edge_cut(g, result.levels[0]));
    if (k > 1) {
      // All k parts are non-empty on the finest level.
      std::set<PartId> used(result.levels[0].begin(), result.levels[0].end());
      EXPECT_EQ(used.size(), static_cast<std::size_t>(k));
    }
  }
}

TEST(MlPart, RejectsNonPowerOfTwo) {
  const Graph g = random_graph(61, 20, 30);
  const auto h = hierarchy_of(g);
  PartitionerConfig cfg;
  EXPECT_THROW(partition_hierarchy(h, 3, cfg), Error);
  EXPECT_THROW(partition_hierarchy(h, 0, cfg), Error);
}

TEST(MlPart, BalanceIsReasonable) {
  const Graph g = random_graph(62, 160, 320);
  const auto h = hierarchy_of(g);
  PartitionerConfig cfg;
  const auto result = partition_hierarchy(h, 4, cfg);
  EXPECT_LT(node_balance(g, result.levels[0], 4), 1.6);
}

TEST(MlPart, CutBeatsRandomPartition) {
  const Graph g = two_blobs(16, 10, 2);
  const auto h = hierarchy_of(g);
  PartitionerConfig cfg;
  const auto result = partition_hierarchy(h, 2, cfg);
  Rng rng(63);
  std::vector<PartId> random_part(g.node_count());
  for (auto& p : random_part) p = static_cast<PartId>(rng.next_below(2));
  EXPECT_LT(result.finest_cut, edge_cut(g, random_part) / 2);
}

TEST(MlPart, LiftPartitionConsistentWeights) {
  const Graph g = random_graph(64, 80, 160);
  const auto h = hierarchy_of(g);
  PartitionerConfig cfg;
  const auto result = partition_hierarchy(h, 4, cfg);
  // Lifted partitions at coarse levels stay complete (majority vote).
  for (std::size_t l = 1; l < h.depth(); ++l) {
    EXPECT_TRUE(is_complete(result.levels[l], 4));
  }
}

class MlPartParallel : public ::testing::TestWithParam<int> {};

TEST_P(MlPartParallel, MatchesSerialResult) {
  const Graph g = random_graph(70, 100, 200);
  const auto h = hierarchy_of(g);
  PartitionerConfig cfg;
  const auto serial = partition_hierarchy(h, 8, cfg);
  const auto parallel = partition_hierarchy_parallel(h, 8, cfg, GetParam());
  ASSERT_EQ(parallel.partitioning.levels.size(), serial.levels.size());
  for (std::size_t l = 0; l < serial.levels.size(); ++l) {
    EXPECT_EQ(parallel.partitioning.levels[l], serial.levels[l])
        << "level " << l << " ranks " << GetParam();
  }
  EXPECT_EQ(parallel.partitioning.finest_cut, serial.finest_cut);
  EXPECT_GT(parallel.stats.makespan, 0.0);
}

INSTANTIATE_TEST_SUITE_P(RankCounts, MlPartParallel,
                         ::testing::Values(1, 2, 3, 4, 8));

TEST(MlPartParallel2, MoreRanksReduceMakespan) {
  const Graph g = random_graph(71, 300, 900);
  const auto h = hierarchy_of(g);
  PartitionerConfig cfg;
  const double t1 =
      partition_hierarchy_parallel(h, 16, cfg, 1).stats.makespan;
  const double t8 =
      partition_hierarchy_parallel(h, 16, cfg, 8).stats.makespan;
  EXPECT_GT(t1 / t8, 1.5);  // meaningful parallel speedup in virtual time
}

TEST(MlPart, DeterministicForSeed) {
  const Graph g = random_graph(72, 60, 120);
  const auto h = hierarchy_of(g);
  PartitionerConfig cfg;
  cfg.seed = 1234;
  const auto a = partition_hierarchy(h, 4, cfg);
  const auto b = partition_hierarchy(h, 4, cfg);
  EXPECT_EQ(a.levels[0], b.levels[0]);
  cfg.seed = 9999;
  const auto c = partition_hierarchy(h, 4, cfg);
  // Different seed usually yields a different (but still valid) partition.
  EXPECT_TRUE(is_complete(c.levels[0], 4));
}

TEST(MlPart, MultiTrialBisectionValidAndSingleTrialUnchanged) {
  const Graph g = random_graph(75, 160, 320);
  const auto h = hierarchy_of(g);

  // trials = 1 (the default) must reproduce the pre-trials partitioner.
  PartitionerConfig base;
  const auto ref = partition_hierarchy(h, 8, base);
  PartitionerConfig one = base;
  one.trials = 1;
  const auto same = partition_hierarchy(h, 8, one);
  EXPECT_EQ(same.levels, ref.levels);
  EXPECT_EQ(same.finest_cut, ref.finest_cut);

  PartitionerConfig four = base;
  four.trials = 4;
  const auto a = partition_hierarchy(h, 8, four);
  const auto b = partition_hierarchy(h, 8, four);
  EXPECT_EQ(a.levels, b.levels);  // deterministic for the seed
  EXPECT_TRUE(is_complete(a.levels[0], 8));
  EXPECT_EQ(a.finest_cut, edge_cut(g, a.levels[0]));
}

// The recursion-tree walk and the mpr wave driver are two schedules of the
// same bisection tree, so they must agree level for level.
void expect_drivers_agree(const graph::GraphHierarchy& h, PartId k,
                          const PartitionerConfig& cfg, int nranks) {
  const auto serial = partition_hierarchy(h, k, cfg);
  const auto mpr = partition_hierarchy_parallel(h, k, cfg, nranks);
  ASSERT_EQ(mpr.partitioning.levels.size(), serial.levels.size());
  for (std::size_t l = 0; l < serial.levels.size(); ++l) {
    EXPECT_EQ(mpr.partitioning.levels[l], serial.levels[l]) << "level " << l;
  }
  EXPECT_EQ(mpr.partitioning.finest_cut, serial.finest_cut);
}

TEST(MlPartDrivers, SerialDriverMatchesMprDriver) {
  const Graph g = random_graph(92, 300, 700);
  expect_drivers_agree(hierarchy_of(g), 8, PartitionerConfig{}, 3);
}

TEST(MlPartDrivers, TrialsSerialDriverMatchesMprDriver) {
  // Multi-trial selection is a pure function of (seed, region, trial) with a
  // total-order winner, so both drivers must pick the same trial everywhere.
  const Graph g = random_graph(94, 300, 700);
  PartitionerConfig cfg;
  cfg.trials = 3;
  expect_drivers_agree(hierarchy_of(g), 8, cfg, 3);
}

TEST(MlPartStress, FiftyRandomGraphsBalanced) {
  Rng master(0xf0c05);
  double balance_sum = 0.0;
  for (int trial = 0; trial < 50; ++trial) {
    SCOPED_TRACE(trial);
    const std::size_t n = 64 + master.next_below(400);
    const std::size_t extra = n + master.next_below(2 * n);
    const auto k = static_cast<PartId>(2 << master.next_below(3));  // 2/4/8
    const Graph g = random_graph(master.next_u64(), n, extra);
    const auto h = hierarchy_of(g);

    PartitionerConfig cfg;
    cfg.seed = master.next_u64();
    // Unused draw: it keeps the seed set whose balance is quoted below.
    (void)master.next_below(8);
    const auto run = partition_hierarchy(h, k, cfg);

    // Balance: 1.03 is the partitioner's *per-decision* rejection bound (GGG
    // side alternation, k-way move admission), not a global guarantee — on
    // these adversarial random graphs (random heavy edge weights, no planted
    // structure) log2(k) compounding bisections drift further. Measured over
    // this fixed seed set: max 1.43, mean 1.10 (cf. BalanceIsReasonable
    // < 1.6 on the same family). Assert that envelope;
    // BalanceBoundHoldsOnUniformBlobs asserts the 1.03 bound itself on a
    // well-conditioned workload.
    const double balance = node_balance(g, run.levels[0], k);
    balance_sum += balance;
    EXPECT_LT(balance, 1.5) << "n=" << n << " k=" << k;
  }
  EXPECT_LT(balance_sum / 50.0, 1.15);
}

TEST(MlPart, BalanceBoundHoldsOnUniformBlobs) {
  // Four equal-size cliques joined by light bridges: the partitioner should
  // recover them, and on this well-conditioned input the finest partition
  // meets the 1.03 imbalance bound the growing/refinement stages target.
  constexpr std::size_t kBlob = 24;
  GraphBuilder b(4 * kBlob);
  for (std::size_t blob = 0; blob < 4; ++blob) {
    const auto base = static_cast<NodeId>(blob * kBlob);
    for (NodeId i = 0; i < kBlob; ++i) {
      for (NodeId j = i + 1; j < kBlob; ++j) {
        b.add_edge(base + i, base + j, 20);
      }
    }
  }
  for (std::size_t blob = 0; blob + 1 < 4; ++blob) {
    b.add_edge(static_cast<NodeId>(blob * kBlob),
               static_cast<NodeId>((blob + 1) * kBlob), 1);
  }
  const Graph g = b.build();
  const auto run = partition_hierarchy(hierarchy_of(g), 4, PartitionerConfig{});
  EXPECT_LE(node_balance(g, run.levels[0], 4), 1.03);
}

TEST(MlPart, SingleNodeGraphAllParts) {
  GraphBuilder b(1);
  const Graph g = b.build();
  graph::GraphHierarchy h;
  h.levels.push_back(g);
  PartitionerConfig cfg;
  const auto result = partition_hierarchy(h, 2, cfg);
  EXPECT_TRUE(is_complete(result.levels[0], 2));
  EXPECT_EQ(result.finest_cut, 0);
}

// ---------------------------------------------------------------------------
// Golden partitions of the D1-D3 hybrid graph sets
// ---------------------------------------------------------------------------

// The hybrid graph set of dataset `d` at scale 0.25, built with the
// benchmark's §VI-A overlap and coarsening knobs.
graph::GraphHierarchy golden_hybrid(int d) {
  align::OverlapperConfig overlap;
  overlap.k = 14;
  overlap.min_kmer_hits = 3;
  overlap.min_overlap = 50;
  overlap.min_identity = 0.90;
  overlap.subsets = 4;
  graph::CoarsenConfig coarsen;
  coarsen.min_nodes = 48;
  coarsen.max_levels = 10;
  const auto ds = sim::make_dataset(d, /*scale=*/0.25);
  const io::ReadSet reads = io::preprocess(ds.data.reads, {});
  const auto overlaps = align::find_overlaps(reads, overlap);
  std::vector<std::uint32_t> lengths;
  for (const auto& r : reads) {
    lengths.push_back(static_cast<std::uint32_t>(r.seq.size()));
  }
  return graph::build_hybrid(
             graph::build_multilevel(
                 graph::build_overlap_graph(reads.size(), overlaps), coarsen),
             graph::build_read_digraph(reads.size(), overlaps),
             std::move(lengths))
      .hierarchy;
}

// FNV-1a over the level count, each level's size and every label.
std::uint64_t level_digest(const std::vector<std::vector<PartId>>& levels) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&](std::uint64_t x) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (x >> (8 * byte)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  mix(levels.size());
  for (const auto& level : levels) {
    mix(level.size());
    for (const PartId p : level) mix(static_cast<std::uint32_t>(p));
  }
  return h;
}

struct SerialGolden {
  PartId k;
  std::uint64_t digest;
  Weight finest_cut;
};

// The mpr driver under the symmetric protocol (the assembler's default) with
// the default cost model and no faults.
struct MprGolden {
  PartId k;
  int ranks;
  double makespan;
  std::uint64_t messages, bytes;
};

std::string serial_row(PartId k, const HierarchyPartitioning& p) {
  std::ostringstream out;
  out << "{" << k << ", 0x" << std::hex << level_digest(p.levels) << std::dec
      << "ULL, " << p.finest_cut << "}";
  return out.str();
}

std::string mpr_row(PartId k, int ranks, const mpr::RunStats& s) {
  std::ostringstream out;
  out << "{" << k << ", " << ranks << ", " << std::hexfloat << s.makespan
      << std::defaultfloat << ", " << s.messages << ", " << s.bytes << "}";
  return out.str();
}

// Pins the serial driver's levels and cut, and the mpr driver's RunStats, on
// one dataset at k = 2, 16, 64 and ranks 1, 3, 8. The mpr partition must
// also equal the serial one. A failure prints the row the code produced.
// k = 2 cuts nothing because each dataset's hybrid graph splits into
// separate components.
void expect_partition_goldens(int d, const std::vector<SerialGolden>& serial,
                              const std::vector<MprGolden>& mpr) {
  const graph::GraphHierarchy h = golden_hybrid(d);
  const PartitionerConfig cfg;
  std::size_t srow = 0, mrow = 0;
  for (const PartId k : {2, 16, 64}) {
    const auto got = partition_hierarchy(h, k, cfg);
    if (srow >= serial.size()) {
      ADD_FAILURE() << "D" << d << " missing serial row " << serial_row(k, got);
    } else {
      const SerialGolden& gold = serial[srow];
      EXPECT_TRUE(gold.k == k && gold.digest == level_digest(got.levels) &&
                  gold.finest_cut == got.finest_cut)
          << "D" << d << " serial row " << srow << " is "
          << serial_row(k, got);
    }
    ++srow;
    for (const int ranks : {1, 3, 8}) {
      const auto run = partition_hierarchy_parallel(h, k, cfg, ranks, {}, {},
                                                    {}, /*symmetric=*/true);
      EXPECT_EQ(run.partitioning.levels, got.levels)
          << "D" << d << " k " << k << " ranks " << ranks;
      EXPECT_EQ(run.partitioning.finest_cut, got.finest_cut);
      if (mrow >= mpr.size()) {
        ADD_FAILURE() << "D" << d << " missing mpr row "
                      << mpr_row(k, ranks, run.stats);
      } else {
        const MprGolden& gold = mpr[mrow];
        EXPECT_TRUE(gold.k == k && gold.ranks == ranks &&
                    gold.makespan == run.stats.makespan &&
                    gold.messages == run.stats.messages &&
                    gold.bytes == run.stats.bytes)
            << "D" << d << " mpr row " << mrow << " is "
            << mpr_row(k, ranks, run.stats);
      }
      ++mrow;
    }
  }
  EXPECT_EQ(srow, serial.size());
  EXPECT_EQ(mrow, mpr.size());
}

TEST(PartitionGolden, D1) {
  expect_partition_goldens(
      1,
      {{2, 0x39acc49d728aa27ULL, 0},
       {16, 0x6bb5b99ec25e9c9dULL, 395663},
       {64, 0x4cb46624581424d1ULL, 1292672}},
      {{2, 1, 0x1.899590b0dffc8p-9, 0, 0},
       {2, 3, 0x1.842dea25e8b46p-9, 10, 12272},
       {2, 8, 0x1.95fb24b462929p-9, 35, 16580},
       {16, 1, 0x1.7b480a5ec8b0cp-7, 0, 0},
       {16, 3, 0x1.f04c742c9d692p-8, 22, 16248},
       {16, 8, 0x1.ee60f57a16da4p-8, 77, 21932},
       {64, 1, 0x1.c466f1ea0c10fp-7, 0, 0},
       {64, 3, 0x1.1319153e623f1p-7, 30, 19890},
       {64, 8, 0x1.11b07a83a34bap-7, 105, 27236}});
}

TEST(PartitionGolden, D2) {
  expect_partition_goldens(
      2,
      {{2, 0x4501c59bbc304f55ULL, 0},
       {16, 0xb6efc342b1433fe5ULL, 631836},
       {64, 0xaa7617fa7fd695d7ULL, 2066970}},
      {{2, 1, 0x1.966108dbd6454p-9, 0, 0},
       {2, 3, 0x1.8e5e74c6a4c97p-9, 10, 12360},
       {2, 8, 0x1.9fc422cb5a657p-9, 35, 16708},
       {16, 1, 0x1.6724347c94772p-7, 0, 0},
       {16, 3, 0x1.cebf34e08615ep-8, 22, 16116},
       {16, 8, 0x1.c4fc00f21cce3p-8, 77, 22235},
       {64, 1, 0x1.cf980605c8207p-7, 0, 0},
       {64, 3, 0x1.0ff661be7c88dp-7, 30, 19953},
       {64, 8, 0x1.0176964a88d09p-7, 105, 27719}});
}

TEST(PartitionGolden, D3) {
  expect_partition_goldens(
      3,
      {{2, 0x886609d226d7038fULL, 0},
       {16, 0x20a65acd659017c3ULL, 684091},
       {64, 0xf7f89f3ecb887f8fULL, 2484943}},
      {{2, 1, 0x1.b3e2ed2946ea4p-9, 0, 0},
       {2, 3, 0x1.ac2cb7c5036bp-9, 10, 11984},
       {2, 8, 0x1.bd6f88d88f6c5p-9, 35, 16324},
       {16, 1, 0x1.a3f38821fcfbbp-7, 0, 0},
       {16, 3, 0x1.3d7fb52aa1d16p-7, 22, 15405},
       {16, 8, 0x1.38a0aad5052d3p-7, 77, 21196},
       {64, 1, 0x1.ccd4188451d79p-7, 0, 0},
       {64, 3, 0x1.52172c404c68ap-7, 30, 19222},
       {64, 8, 0x1.4b18ae8929776p-7, 105, 26590}});
}

}  // namespace
}  // namespace focus::partition
