// Tests for the distributed graph algorithms (paper §V): assembly graph
// mechanics, transitive reduction, containment removal, tip clipping, bubble
// popping, traversal, and serial/parallel equivalence.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>

#include "common/dna.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "dist/asm_graph.hpp"
#include "dist/parallel.hpp"
#include "dist/simplify.hpp"
#include "dist/traverse.hpp"

namespace focus::dist {
namespace {

std::string random_seq(Rng& rng, std::size_t len) {
  std::string s;
  for (std::size_t i = 0; i < len; ++i) s.push_back("ACGT"[rng.next_below(4)]);
  return s;
}

std::vector<NodeId> all_nodes(const AsmGraph& g) {
  std::vector<NodeId> v(g.node_count());
  std::iota(v.begin(), v.end(), 0u);
  return v;
}

// ---------------------------------------------------------------------------
// AsmGraph mechanics
// ---------------------------------------------------------------------------

TEST(AsmGraph, AddAndQuery) {
  AsmGraph g;
  const NodeId a = g.add_node("ACGTACGT", 3);
  const NodeId b = g.add_node("GTACGTAC", 2);
  const EdgeId e = g.add_edge(a, b, 6);
  EXPECT_EQ(g.node_count(), 2u);
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_EQ(g.live_out_degree(a), 1u);
  EXPECT_EQ(g.live_in_degree(b), 1u);
  EXPECT_TRUE(g.find_edge(a, b).has_value());
  EXPECT_FALSE(g.find_edge(b, a).has_value());
  EXPECT_EQ(g.edge(e).overlap, 6u);
}

TEST(AsmGraph, RemovalHidesEdges) {
  AsmGraph g;
  const NodeId a = g.add_node("AAAA", 1);
  const NodeId b = g.add_node("CCCC", 1);
  const NodeId c = g.add_node("GGGG", 1);
  g.add_edge(a, b, 2);
  const EdgeId bc = g.add_edge(b, c, 2);
  g.remove_edge(bc);
  EXPECT_EQ(g.live_out_degree(b), 0u);
  EXPECT_EQ(g.live_edge_count(), 1u);
  g.remove_node(b);
  EXPECT_EQ(g.live_node_count(), 2u);
  EXPECT_EQ(g.live_edge_count(), 0u);  // edges to removed nodes are dead
  EXPECT_EQ(g.live_in_degree(b), 0u);
}

TEST(AsmGraph, RejectsInvalidInput) {
  AsmGraph g;
  const NodeId a = g.add_node("ACGT", 1);
  EXPECT_THROW(g.add_node("", 1), Error);
  EXPECT_THROW(g.add_node("ACGT", 0), Error);
  EXPECT_THROW(g.add_edge(a, a, 1), Error);
  EXPECT_THROW(g.add_edge(a, 5, 1), Error);
}

TEST(AsmGraph, MergePathContigs) {
  AsmGraph g;
  const NodeId a = g.add_node("ACGTAC", 1);
  const NodeId b = g.add_node("TACGGG", 1);  // overlaps "TAC"
  const NodeId c = g.add_node("GGGTTT", 1);  // overlaps "GGG"
  g.add_edge(a, b, 3);
  g.add_edge(b, c, 3);
  EXPECT_EQ(g.merge_path_contigs({a, b, c}), "ACGTACGGGTTT");
  EXPECT_EQ(g.merge_path_contigs({a}), "ACGTAC");
  EXPECT_THROW(g.merge_path_contigs({}), Error);
  EXPECT_THROW(g.merge_path_contigs({c, a}), Error);  // no edge c->a
}

// ---------------------------------------------------------------------------
// Transitive reduction
// ---------------------------------------------------------------------------

TEST(Transitive, FindsRedundantEdge) {
  AsmGraph g;
  Rng rng(1);
  const NodeId a = g.add_node(random_seq(rng, 50), 1);
  const NodeId b = g.add_node(random_seq(rng, 50), 1);
  const NodeId c = g.add_node(random_seq(rng, 50), 1);
  g.add_edge(a, b, 30);
  g.add_edge(b, c, 30);
  const EdgeId ac = g.add_edge(a, c, 10);  // transitive
  const auto found = find_transitive_edges(g, all_nodes(g));
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0], ac);
  EXPECT_EQ(apply_edge_removals(g, found), 1u);
  EXPECT_FALSE(g.find_edge(a, c).has_value());
}

TEST(Transitive, KeepsEssentialEdges) {
  AsmGraph g;
  Rng rng(2);
  const NodeId a = g.add_node(random_seq(rng, 50), 1);
  const NodeId b = g.add_node(random_seq(rng, 50), 1);
  const NodeId c = g.add_node(random_seq(rng, 50), 1);
  g.add_edge(a, b, 30);
  g.add_edge(b, c, 30);
  EXPECT_TRUE(find_transitive_edges(g, all_nodes(g)).empty());
}

TEST(Transitive, LongChainWithAllShortcuts) {
  AsmGraph g;
  Rng rng(3);
  std::vector<NodeId> nodes;
  for (int i = 0; i < 6; ++i) nodes.push_back(g.add_node(random_seq(rng, 40), 1));
  for (int i = 0; i + 1 < 6; ++i) g.add_edge(nodes[i], nodes[i + 1], 25);
  std::vector<EdgeId> shortcuts;
  for (int i = 0; i + 2 < 6; ++i) {
    shortcuts.push_back(g.add_edge(nodes[i], nodes[i + 2], 10));
  }
  auto found = find_transitive_edges(g, all_nodes(g));
  apply_edge_removals(g, std::move(found));
  // Only the chain remains.
  EXPECT_EQ(g.live_edge_count(), 5u);
  for (int i = 0; i + 1 < 6; ++i) {
    EXPECT_TRUE(g.find_edge(nodes[i], nodes[i + 1]).has_value());
  }
}

// ---------------------------------------------------------------------------
// Containment removal & edge verification
// ---------------------------------------------------------------------------

TEST(Containment, VerifiesTrueOverlapEdges) {
  Rng rng(4);
  const std::string genome = random_seq(rng, 400);
  AsmGraph g;
  const NodeId a = g.add_node(genome.substr(0, 200), 4);
  const NodeId b = g.add_node(genome.substr(120, 200), 4);  // 80 bp overlap
  const EdgeId e = g.add_edge(a, b, 80);
  SimplifyConfig cfg;
  const auto findings = find_containments(g, all_nodes(g), cfg);
  ASSERT_EQ(findings.verified.size(), 1u);
  EXPECT_EQ(findings.verified[0].edge, e);
  EXPECT_EQ(findings.verified[0].overlap, 80u);
  EXPECT_GT(findings.verified[0].identity, 0.99f);
  EXPECT_TRUE(findings.false_edges.empty());
  EXPECT_TRUE(findings.contained_nodes.empty());
}

TEST(Containment, RemovesFalsePositiveEdges) {
  Rng rng(5);
  AsmGraph g;
  const NodeId a = g.add_node(random_seq(rng, 150), 2);
  const NodeId b = g.add_node(random_seq(rng, 150), 2);  // unrelated
  const EdgeId e = g.add_edge(a, b, 60);
  SimplifyConfig cfg;
  const auto findings = find_containments(g, all_nodes(g), cfg);
  ASSERT_EQ(findings.false_edges.size(), 1u);
  EXPECT_EQ(findings.false_edges[0], e);
  EXPECT_TRUE(findings.verified.empty());
}

TEST(Containment, ShortOverlapIsFalsePositive) {
  Rng rng(6);
  const std::string genome = random_seq(rng, 300);
  AsmGraph g;
  const NodeId a = g.add_node(genome.substr(0, 150), 2);
  const NodeId b = g.add_node(genome.substr(120, 150), 2);  // 30 bp < 50
  g.add_edge(a, b, 30);
  SimplifyConfig cfg;
  cfg.min_edge_overlap = 50;
  const auto findings = find_containments(g, all_nodes(g), cfg);
  EXPECT_EQ(findings.false_edges.size(), 1u);
}

TEST(Containment, DetectsContainedContig) {
  Rng rng(7);
  const std::string genome = random_seq(rng, 400);
  AsmGraph g;
  const NodeId small = g.add_node(genome.substr(100, 80), 1);
  const NodeId big = g.add_node(genome.substr(0, 300), 6);
  // small sits fully inside big, 100 bases in.
  g.add_edge(big, small, 80, /*offset_estimate=*/100);
  SimplifyConfig cfg;
  const auto findings = find_containments(g, all_nodes(g), cfg);
  ASSERT_EQ(findings.contained_nodes.size(), 1u);
  EXPECT_EQ(findings.contained_nodes[0], small);
}

TEST(Containment, DetectsContainedSourceContig) {
  Rng rng(77);
  const std::string genome = random_seq(rng, 400);
  AsmGraph g;
  // `from` is a prefix of `to`: the whole source is covered.
  const NodeId small = g.add_node(genome.substr(0, 80), 1);
  const NodeId big = g.add_node(genome.substr(0, 300), 6);
  g.add_edge(small, big, 80, /*offset_estimate=*/0);
  SimplifyConfig cfg;
  const auto findings = find_containments(g, all_nodes(g), cfg);
  ASSERT_EQ(findings.contained_nodes.size(), 1u);
  EXPECT_EQ(findings.contained_nodes[0], small);
}

TEST(Containment, ToleratesSmallOffsetError) {
  Rng rng(78);
  const std::string genome = random_seq(rng, 500);
  AsmGraph g;
  const NodeId a = g.add_node(genome.substr(0, 200), 4);
  const NodeId b = g.add_node(genome.substr(120, 200), 4);
  // True offset is 120; the estimate is off by 6 — within the band.
  g.add_edge(a, b, 80, /*offset_estimate=*/126);
  SimplifyConfig cfg;
  cfg.band = 16;
  const auto findings = find_containments(g, all_nodes(g), cfg);
  ASSERT_EQ(findings.verified.size(), 1u);
  // The 6-base overestimate shrinks the window (74) and the end-trimmed
  // overlap (~68), but the edge must verify at high identity.
  EXPECT_GE(findings.verified[0].overlap, 60u);
  EXPECT_LE(findings.verified[0].overlap, 85u);
  // Some misregistration is absorbed as mismatch columns (a mismatch costs
  // less than a gap), so identity dips but stays above the 0.90 gate.
  EXPECT_GT(findings.verified[0].identity, 0.90f);
}

// ---------------------------------------------------------------------------
// Tips and bubbles
// ---------------------------------------------------------------------------

// Main chain m0 -> m1 -> m2 -> m3 with a short spur attached to m1.
struct TipFixture {
  AsmGraph g;
  std::vector<NodeId> chain;
  NodeId spur;

  TipFixture() {
    Rng rng(8);
    for (int i = 0; i < 4; ++i) {
      chain.push_back(g.add_node(random_seq(rng, 120), 5));
    }
    for (int i = 0; i + 1 < 4; ++i) g.add_edge(chain[i], chain[i + 1], 60);
    spur = g.add_node(random_seq(rng, 90), 1);
    g.add_edge(spur, chain[1], 40);  // dead-end path into a junction
  }
};

TEST(Tips, ClipsShortDeadEnd) {
  TipFixture fx;
  SimplifyConfig cfg;
  cfg.tip_max_nodes = 2;
  cfg.tip_max_bp = 200;
  const auto tips = find_tips(fx.g, all_nodes(fx.g), cfg);
  ASSERT_EQ(tips.size(), 1u);
  EXPECT_EQ(tips[0], fx.spur);
  apply_node_removals(fx.g, tips);
  EXPECT_FALSE(fx.g.node_live(fx.spur));
  // Chain unharmed.
  for (const NodeId v : fx.chain) EXPECT_TRUE(fx.g.node_live(v));
}

TEST(Tips, LongDeadEndKept) {
  TipFixture fx;
  SimplifyConfig cfg;
  cfg.tip_max_nodes = 2;
  cfg.tip_max_bp = 50;  // spur (90 bp) exceeds the bp bound
  EXPECT_TRUE(find_tips(fx.g, all_nodes(fx.g), cfg).empty());
}

TEST(Tips, IsolatedPathIsNotATip) {
  // The chain's own endpoints have degree-0 ends but no junction with
  // alternative support; they must not be clipped.
  AsmGraph g;
  Rng rng(9);
  const NodeId a = g.add_node(random_seq(rng, 100), 2);
  const NodeId b = g.add_node(random_seq(rng, 100), 2);
  g.add_edge(a, b, 50);
  SimplifyConfig cfg;
  EXPECT_TRUE(find_tips(g, all_nodes(g), cfg).empty());
}

TEST(Tips, RightSideTipClipped) {
  AsmGraph g;
  Rng rng(10);
  std::vector<NodeId> chain;
  for (int i = 0; i < 4; ++i) chain.push_back(g.add_node(random_seq(rng, 120), 5));
  for (int i = 0; i + 1 < 4; ++i) g.add_edge(chain[i], chain[i + 1], 60);
  const NodeId spur = g.add_node(random_seq(rng, 80), 1);
  g.add_edge(chain[2], spur, 40);  // chain[2] now has out-degree 2
  SimplifyConfig cfg;
  cfg.tip_max_nodes = 2;
  cfg.tip_max_bp = 200;
  const auto tips = find_tips(g, all_nodes(g), cfg);
  ASSERT_EQ(tips.size(), 1u);
  EXPECT_EQ(tips[0], spur);
}

TEST(Bubbles, PopsWeakerBranch) {
  // a -> {x | y} -> d, where x has higher coverage than y.
  AsmGraph g;
  Rng rng(11);
  const NodeId a = g.add_node(random_seq(rng, 120), 5);
  const NodeId x = g.add_node(random_seq(rng, 120), 8);
  const NodeId y = g.add_node(random_seq(rng, 120), 2);
  const NodeId d = g.add_node(random_seq(rng, 120), 5);
  g.add_edge(a, x, 60);
  g.add_edge(a, y, 60);
  g.add_edge(x, d, 60);
  g.add_edge(y, d, 60);
  SimplifyConfig cfg;
  const auto removals = find_bubbles(g, all_nodes(g), cfg);
  ASSERT_EQ(removals.size(), 1u);
  EXPECT_EQ(removals[0], y);
}

TEST(Bubbles, LongBranchesNotPopped) {
  AsmGraph g;
  Rng rng(12);
  const NodeId a = g.add_node(random_seq(rng, 120), 5);
  const NodeId d = g.add_node(random_seq(rng, 120), 5);
  // Branch 1: 2 interior nodes; branch 2: 7 interior nodes (> limit).
  NodeId prev = a;
  for (int i = 0; i < 2; ++i) {
    const NodeId v = g.add_node(random_seq(rng, 100), 3);
    g.add_edge(prev, v, 50);
    prev = v;
  }
  g.add_edge(prev, d, 50);
  prev = a;
  for (int i = 0; i < 7; ++i) {
    const NodeId v = g.add_node(random_seq(rng, 100), 3);
    g.add_edge(prev, v, 50);
    prev = v;
  }
  g.add_edge(prev, d, 50);
  SimplifyConfig cfg;
  cfg.bubble_max_nodes = 5;
  // The long branch is not followed to the merge point, so no bubble is
  // detected (conservative behaviour).
  EXPECT_TRUE(find_bubbles(g, all_nodes(g), cfg).empty());
}

TEST(Bubbles, NoBubbleOnDivergingPaths) {
  AsmGraph g;
  Rng rng(13);
  const NodeId a = g.add_node(random_seq(rng, 100), 3);
  const NodeId x = g.add_node(random_seq(rng, 100), 3);
  const NodeId y = g.add_node(random_seq(rng, 100), 3);
  g.add_edge(a, x, 50);
  g.add_edge(a, y, 50);  // branches never re-join
  SimplifyConfig cfg;
  EXPECT_TRUE(find_bubbles(g, all_nodes(g), cfg).empty());
}

// ---------------------------------------------------------------------------
// Serial simplification pipeline
// ---------------------------------------------------------------------------

TEST(Simplify, SerialPipelineCleansCraftedGraph) {
  Rng rng(14);
  const std::string genome = random_seq(rng, 800);
  AsmGraph g;
  // True chain of overlapping contigs.
  const NodeId a = g.add_node(genome.substr(0, 300), 10);
  const NodeId b = g.add_node(genome.substr(220, 300), 10);
  const NodeId c = g.add_node(genome.substr(440, 300), 10);
  g.add_edge(a, b, 80);
  g.add_edge(b, c, 80);
  g.add_edge(a, c, 60);  // transitive AND false (sequences don't overlap)
  // A contained contig, sitting 20 bases into b.
  const NodeId small = g.add_node(genome.substr(240, 100), 1);
  g.add_edge(b, small, 100, /*offset_estimate=*/20);

  SimplifyConfig cfg;
  const auto stats = simplify_serial(g, cfg);
  EXPECT_EQ(stats.transitive_edges, 1u);
  EXPECT_EQ(stats.contained_nodes, 1u);
  EXPECT_GE(stats.verified_edges, 2u);
  EXPECT_FALSE(g.node_live(small));
  EXPECT_TRUE(g.find_edge(a, b).has_value());
  EXPECT_TRUE(g.find_edge(b, c).has_value());
  EXPECT_FALSE(g.find_edge(a, c).has_value());
}

// ---------------------------------------------------------------------------
// Traversal
// ---------------------------------------------------------------------------

TEST(Traverse, ChainBecomesSinglePath) {
  AsmGraph g;
  Rng rng(15);
  std::vector<NodeId> chain;
  for (int i = 0; i < 5; ++i) chain.push_back(g.add_node(random_seq(rng, 80), 2));
  for (int i = 0; i + 1 < 5; ++i) g.add_edge(chain[i], chain[i + 1], 40);
  const auto paths = traverse_serial(g);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0], chain);
}

TEST(Traverse, BranchBreaksPath) {
  AsmGraph g;
  Rng rng(16);
  const NodeId a = g.add_node(random_seq(rng, 80), 2);
  const NodeId b = g.add_node(random_seq(rng, 80), 2);
  const NodeId c = g.add_node(random_seq(rng, 80), 2);
  const NodeId d = g.add_node(random_seq(rng, 80), 2);
  g.add_edge(a, b, 40);
  g.add_edge(a, c, 40);  // branch: no unambiguous extension from a
  g.add_edge(b, d, 40);
  g.add_edge(c, d, 40);  // d has two in-edges
  const auto paths = traverse_serial(g);
  // Every node is its own path: nothing is unambiguous.
  EXPECT_EQ(paths.size(), 4u);
  std::set<NodeId> covered;
  for (const auto& p : paths) {
    for (const NodeId v : p) covered.insert(v);
  }
  EXPECT_EQ(covered.size(), 4u);
}

TEST(Traverse, RemovedNodesSkipped) {
  AsmGraph g;
  Rng rng(17);
  const NodeId a = g.add_node(random_seq(rng, 80), 2);
  const NodeId b = g.add_node(random_seq(rng, 80), 2);
  const NodeId c = g.add_node(random_seq(rng, 80), 2);
  g.add_edge(a, b, 40);
  g.add_edge(b, c, 40);
  g.remove_node(b);
  const auto paths = traverse_serial(g);
  EXPECT_EQ(paths.size(), 2u);  // a and c as singletons
}

TEST(Traverse, CycleHandledWithoutHanging) {
  AsmGraph g;
  Rng rng(18);
  std::vector<NodeId> ring;
  for (int i = 0; i < 4; ++i) ring.push_back(g.add_node(random_seq(rng, 80), 2));
  for (int i = 0; i < 4; ++i) g.add_edge(ring[i], ring[(i + 1) % 4], 40);
  const auto paths = traverse_serial(g);
  std::size_t total = 0;
  for (const auto& p : paths) total += p.size();
  EXPECT_EQ(total, 4u);  // every node exactly once
}

// ---------------------------------------------------------------------------
// Scan records naming ids past the graph
// ---------------------------------------------------------------------------

// The apply and join functions are where scan records land after crossing
// the wire. An id one past the graph is a typed error there, not an
// out-of-bounds access.
AsmGraph make_pair_graph() {
  AsmGraph g;
  Rng rng(19);
  const NodeId a = g.add_node(random_seq(rng, 80), 2);
  const NodeId b = g.add_node(random_seq(rng, 80), 2);
  g.add_edge(a, b, 40);
  return g;
}

TEST(ScanRecords, EdgeRemovalPastTheGraphThrows) {
  AsmGraph g = make_pair_graph();
  EXPECT_THROW(
      apply_edge_removals(g, {0, static_cast<EdgeId>(g.edge_count())}),
      Error);
}

TEST(ScanRecords, NodeRemovalPastTheGraphThrows) {
  AsmGraph g = make_pair_graph();
  EXPECT_THROW(
      apply_node_removals(g, {static_cast<NodeId>(g.node_count()), 1}),
      Error);
}

TEST(ScanRecords, VerificationPastTheGraphThrows) {
  AsmGraph g = make_pair_graph();
  const std::vector<EdgeVerification> records = {
      {0, 40, 1.0f}, {static_cast<EdgeId>(g.edge_count()), 40, 1.0f}};
  EXPECT_THROW(apply_verifications(g, records), Error);
}

TEST(ScanRecords, SubpathPastTheGraphThrows) {
  const AsmGraph g = make_pair_graph();
  const auto past = static_cast<NodeId>(g.node_count());
  EXPECT_THROW(join_subpaths(g, {{0}, {past}}), Error);
  EXPECT_THROW(join_subpaths(g, {{0, past, 1}}), Error);
}

// ---------------------------------------------------------------------------
// Parallel == serial equivalence
// ---------------------------------------------------------------------------

AsmGraph make_complex_graph(std::uint64_t seed) {
  Rng rng(seed);
  const std::string genome = random_seq(rng, 3000);
  AsmGraph g;
  // Chain of 20 contigs with 80 bp true overlaps.
  std::vector<NodeId> chain;
  for (int i = 0; i < 20; ++i) {
    chain.push_back(
        g.add_node(genome.substr(static_cast<std::size_t>(i) * 140, 220), 6));
  }
  for (int i = 0; i + 1 < 20; ++i) g.add_edge(chain[i], chain[i + 1], 80);
  // Transitive shortcuts.
  for (int i = 0; i < 18; i += 3) g.add_edge(chain[i], chain[i + 2], 20);
  // False edges between unrelated nodes.
  const NodeId junk1 = g.add_node(random_seq(rng, 150), 1);
  const NodeId junk2 = g.add_node(random_seq(rng, 150), 1);
  g.add_edge(junk1, chain[5], 60);
  g.add_edge(chain[10], junk2, 60);
  // A contained contig inside chain[2] (= genome[280:500]), 20 bases in.
  const NodeId small = g.add_node(genome.substr(300, 90), 1);
  g.add_edge(chain[2], small, 90, /*offset_estimate=*/20);
  return g;
}

std::vector<PartId> striped_partition(const AsmGraph& g, PartId parts) {
  std::vector<PartId> part(g.node_count());
  // Contiguous stripes mimic a real linear partitioning.
  const std::size_t per =
      (g.node_count() + static_cast<std::size_t>(parts) - 1) /
      static_cast<std::size_t>(parts);
  for (NodeId v = 0; v < g.node_count(); ++v) {
    part[v] = static_cast<PartId>(v / per);
  }
  return part;
}

class DistParallel : public ::testing::TestWithParam<int> {};

TEST_P(DistParallel, SimplifyMatchesSerial) {
  AsmGraph serial_g = make_complex_graph(100);
  AsmGraph parallel_g = make_complex_graph(100);
  SimplifyConfig cfg;
  const auto serial_stats = simplify_serial(serial_g, cfg);

  const PartId parts = 4;
  const auto part = striped_partition(parallel_g, parts);
  const auto result =
      simplify_parallel(parallel_g, part, parts, cfg, GetParam());

  EXPECT_EQ(result.stats.transitive_edges, serial_stats.transitive_edges);
  EXPECT_EQ(result.stats.false_edges, serial_stats.false_edges);
  EXPECT_EQ(result.stats.contained_nodes, serial_stats.contained_nodes);
  EXPECT_EQ(result.stats.tip_nodes, serial_stats.tip_nodes);
  EXPECT_EQ(result.stats.bubble_nodes, serial_stats.bubble_nodes);
  // Graphs end in the same live state.
  ASSERT_EQ(parallel_g.node_count(), serial_g.node_count());
  for (NodeId v = 0; v < serial_g.node_count(); ++v) {
    EXPECT_EQ(parallel_g.node_live(v), serial_g.node_live(v)) << "node " << v;
  }
  ASSERT_EQ(parallel_g.edge_count(), serial_g.edge_count());
  for (EdgeId e = 0; e < serial_g.edge_count(); ++e) {
    EXPECT_EQ(parallel_g.edge(e).removed, serial_g.edge(e).removed)
        << "edge " << e;
  }
}

TEST_P(DistParallel, TraverseCoversAllLiveNodesOnce) {
  AsmGraph g = make_complex_graph(200);
  SimplifyConfig cfg;
  simplify_serial(g, cfg);
  const PartId parts = 4;
  const auto part = striped_partition(g, parts);
  const auto result = traverse_parallel(g, part, parts, GetParam());
  std::set<NodeId> covered;
  for (const auto& path : result.paths) {
    for (const NodeId v : path) {
      EXPECT_TRUE(covered.insert(v).second) << "node visited twice";
      EXPECT_TRUE(g.node_live(v));
    }
  }
  EXPECT_EQ(covered.size(), g.live_node_count());
  // Consecutive path nodes are connected by live edges.
  for (const auto& path : result.paths) {
    for (std::size_t i = 1; i < path.size(); ++i) {
      EXPECT_TRUE(g.find_edge(path[i - 1], path[i]).has_value());
    }
  }
}

TEST_P(DistParallel, TraverseJoinsAcrossPartitions) {
  // A clean chain striped across partitions: worker sub-paths must be joined
  // back into ONE maximal path by the master.
  AsmGraph g;
  Rng rng(300);
  std::vector<NodeId> chain;
  for (int i = 0; i < 12; ++i) chain.push_back(g.add_node(random_seq(rng, 80), 2));
  for (int i = 0; i + 1 < 12; ++i) g.add_edge(chain[i], chain[i + 1], 40);
  const PartId parts = 4;
  const auto part = striped_partition(g, parts);
  const auto result = traverse_parallel(g, part, parts, GetParam());
  ASSERT_EQ(result.paths.size(), 1u);
  EXPECT_EQ(result.paths[0], chain);
}

INSTANTIATE_TEST_SUITE_P(RankCounts, DistParallel,
                         ::testing::Values(1, 2, 4));

TEST(DistParallelTiming, MorePartitionsAndRanksReduceTrimMakespan) {
  // Fig. 6's shape in miniature: distributing trimming over more partitions
  // and ranks reduces virtual-time makespan. The master protocol is pinned —
  // this is the paper's §V master/worker cost shape; the symmetric default
  // is measured separately below. An empty plan keeps simplify's fault-free
  // path: the recovering driver reaches only 1.72x here.
  const DistConfig master{DistProtocol::kMaster};
  AsmGraph g1 = make_complex_graph(400);
  AsmGraph g8 = make_complex_graph(400);
  SimplifyConfig cfg;
  const auto t1 = simplify_parallel(g1, striped_partition(g1, 1), 1, cfg, 1,
                                    {}, 1, {}, {}, master)
                      .run.makespan;
  const auto t8 = simplify_parallel(g8, striped_partition(g8, 8), 8, cfg, 8,
                                    {}, 1, {}, {}, master)
                      .run.makespan;
  EXPECT_GT(t1 / t8, 2.0);
}

TEST(DistParallelTiming, SymmetricProtocolStillScalesDespiteWalCharge) {
  // The symmetric (default) protocol under an empty plan: simplify keeps its
  // owner-computes path, which pays no WAL charge. Its 8-rank speedup must
  // stay a clear win. The recovering driver, which replicates every phase
  // commit to the WAL, reaches only 1.21x here.
  const DistConfig sym{DistProtocol::kSymmetric};
  AsmGraph g1 = make_complex_graph(400);
  AsmGraph g8 = make_complex_graph(400);
  SimplifyConfig cfg;
  const auto t1 = simplify_parallel(g1, striped_partition(g1, 1), 1, cfg, 1,
                                    {}, 1, {}, {}, sym)
                      .run.makespan;
  const auto t8 = simplify_parallel(g8, striped_partition(g8, 8), 8, cfg, 8,
                                    {}, 1, {}, {}, sym)
                      .run.makespan;
  EXPECT_GT(t1 / t8, 1.5);
}

TEST(PartitionNodeLists, EveryNodeOnceInAscendingOrder) {
  Rng rng(777);
  const PartId nparts = 14;
  std::vector<PartId> part(10'000);
  for (auto& p : part) p = static_cast<PartId>(rng.next_below(nparts));
  const auto lists = partition_node_lists(part, nparts);
  ASSERT_EQ(lists.size(), static_cast<std::size_t>(nparts));
  std::vector<int> seen(part.size(), 0);
  for (PartId p = 0; p < nparts; ++p) {
    SCOPED_TRACE(p);
    const auto& list = lists[static_cast<std::size_t>(p)];
    EXPECT_EQ(std::adjacent_find(list.begin(), list.end(),
                                 std::greater_equal<NodeId>()),
              list.end());
    for (const NodeId v : list) {
      ASSERT_LT(v, part.size());
      EXPECT_EQ(part[v], p);
      ++seen[v];
    }
  }
  EXPECT_EQ(std::count(seen.begin(), seen.end(), 1),
            static_cast<std::ptrdiff_t>(part.size()));

  for (const PartId bad : {nparts, PartId{-1}}) {
    part[4321] = bad;
    EXPECT_THROW(partition_node_lists(part, nparts), Error);
  }
}

}  // namespace
}  // namespace focus::dist
