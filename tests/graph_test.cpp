// Tests for graph structures, coarsening (HEM), and the multilevel set.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>

#include "align/overlap.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "graph/coarsen.hpp"
#include "graph/digraph.hpp"
#include "graph/graph.hpp"

namespace focus::graph {
namespace {

Graph path_graph(std::size_t n, Weight w = 10) {
  GraphBuilder b(n);
  for (NodeId v = 0; v + 1 < n; ++v) b.add_edge(v, v + 1, w);
  return b.build();
}

// Random connected-ish graph for property tests.
Graph random_graph(std::uint64_t seed, std::size_t n, std::size_t extra_edges) {
  Rng rng(seed);
  GraphBuilder b(n);
  for (NodeId v = 1; v < n; ++v) {
    b.add_edge(v, static_cast<NodeId>(rng.next_below(v)),
               1 + static_cast<Weight>(rng.next_below(100)));
  }
  for (std::size_t i = 0; i < extra_edges; ++i) {
    const auto u = static_cast<NodeId>(rng.next_below(n));
    const auto v = static_cast<NodeId>(rng.next_below(n));
    if (u != v) b.add_edge(u, v, 1 + static_cast<Weight>(rng.next_below(100)));
  }
  return b.build();
}

// ---------------------------------------------------------------------------
// Graph / GraphBuilder
// ---------------------------------------------------------------------------

TEST(GraphBuilder, MergesParallelEdges) {
  GraphBuilder b(3);
  b.add_edge(0, 1, 10);
  b.add_edge(1, 0, 5);  // same undirected edge
  b.add_edge(1, 2, 7);
  const Graph g = b.build();
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_EQ(g.edge_weight(0, 1), 15);
  EXPECT_EQ(g.edge_weight(1, 0), 15);
  EXPECT_EQ(g.edge_weight(1, 2), 7);
  EXPECT_EQ(g.edge_weight(0, 2), 0);
  EXPECT_EQ(g.total_edge_weight(), 22);
}

TEST(GraphBuilder, RejectsInvalidEdges) {
  GraphBuilder b(2);
  EXPECT_THROW(b.add_edge(0, 0, 1), Error);
  EXPECT_THROW(b.add_edge(0, 2, 1), Error);
  EXPECT_THROW(b.add_edge(0, 1, 0), Error);
  EXPECT_THROW(b.set_node_weight(5, 1), Error);
}

TEST(Graph, NeighborsSortedById) {
  GraphBuilder b(5);
  b.add_edge(2, 4, 1);
  b.add_edge(2, 0, 1);
  b.add_edge(2, 3, 1);
  b.add_edge(2, 1, 1);
  const Graph g = b.build();
  const auto adj = g.neighbors(2);
  ASSERT_EQ(adj.size(), 4u);
  for (std::size_t i = 1; i < adj.size(); ++i) {
    EXPECT_LT(adj[i - 1].to, adj[i].to);
  }
}

TEST(Graph, WeightsAndDegrees) {
  const Graph g = path_graph(4, 10);
  EXPECT_EQ(g.node_count(), 4u);
  EXPECT_EQ(g.edge_count(), 3u);
  EXPECT_EQ(g.total_node_weight(), 4);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(1), 2u);
  EXPECT_EQ(g.weighted_degree(1), 20);
}

TEST(Graph, EmptyGraph) {
  GraphBuilder b(0);
  const Graph g = b.build();
  EXPECT_EQ(g.node_count(), 0u);
  EXPECT_EQ(g.total_edge_weight(), 0);
}

TEST(BuildOverlapGraph, EdgesFromOverlaps) {
  std::vector<align::Overlap> overlaps;
  align::Overlap o;
  o.query = 0;
  o.ref = 1;
  o.length = 60;
  o.kind = align::OverlapKind::kSuffixPrefix;
  overlaps.push_back(o);
  o.query = 2;
  o.ref = 1;
  o.length = 40;
  overlaps.push_back(o);
  // Duplicate pair with smaller weight should be ignored.
  o.query = 1;
  o.ref = 0;
  o.length = 30;
  overlaps.push_back(o);
  const Graph g = build_overlap_graph(3, overlaps);
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_EQ(g.edge_weight(0, 1), 60);
  EXPECT_EQ(g.edge_weight(1, 2), 40);
}

TEST(BuildOverlapGraph, RejectsUnknownRead) {
  std::vector<align::Overlap> overlaps(1);
  overlaps[0].query = 0;
  overlaps[0].ref = 9;
  overlaps[0].length = 50;
  EXPECT_THROW(build_overlap_graph(3, overlaps), Error);
}

// ---------------------------------------------------------------------------
// Digraph
// ---------------------------------------------------------------------------

TEST(Digraph, EdgesAndContainment) {
  std::vector<align::Overlap> overlaps;
  align::Overlap o;
  o.query = 0;
  o.ref = 1;
  o.length = 60;
  o.kind = align::OverlapKind::kSuffixPrefix;
  overlaps.push_back(o);
  o.query = 2;
  o.ref = 1;
  o.length = 50;
  o.kind = align::OverlapKind::kPrefixSuffix;  // edge 1 -> 2
  overlaps.push_back(o);
  o.query = 3;
  o.ref = 0;
  o.length = 40;
  o.kind = align::OverlapKind::kQueryContained;
  overlaps.push_back(o);
  const Digraph g = build_read_digraph(4, overlaps);
  EXPECT_EQ(g.out_degree(0), 1u);
  EXPECT_EQ(g.out_edges(0)[0].to, 1u);
  EXPECT_EQ(g.out_degree(1), 1u);
  EXPECT_EQ(g.out_edges(1)[0].to, 2u);
  EXPECT_TRUE(g.is_contained(3));
  EXPECT_FALSE(g.is_contained(0));
  EXPECT_EQ(g.edge_count(), 2u);
}

TEST(Digraph, RejectsSelfLoop) {
  Digraph g(2);
  EXPECT_THROW(g.add_edge(1, 1, 10), Error);
}

TEST(Digraph, RejectsContainmentOfUnknownRead) {
  Digraph g(2);
  EXPECT_THROW(g.mark_contained(2), Error);
  std::vector<align::Overlap> overlaps(1);
  overlaps[0].query = 1;
  overlaps[0].ref = 40;
  overlaps[0].length = 60;
  overlaps[0].kind = align::OverlapKind::kRefContained;  // marks read 40
  EXPECT_THROW(build_read_digraph(2, overlaps), Error);
}

TEST(Digraph, HandBuiltRowsSortedAcrossFinalizes) {
  Digraph g(4);
  g.add_edge(0, 3, 10);
  g.add_edge(0, 1, 20);
  g.add_edge(0, 1, 50);
  g.add_edge(2, 0, 30);
  g.finalize();
  g.add_edge(0, 2, 40);  // joins row 0 at the next finalize
  g.mark_contained(3);
  EXPECT_EQ(g.edge_count(), 5u);
  g.finalize();
  const auto row = g.out_edges(0);
  ASSERT_EQ(row.size(), 4u);
  EXPECT_EQ(row[0].to, 1u);
  EXPECT_EQ(row[0].overlap, 50);  // larger overlap first on a tie
  EXPECT_EQ(row[1].to, 1u);
  EXPECT_EQ(row[1].overlap, 20);
  EXPECT_EQ(row[2].to, 2u);
  EXPECT_EQ(row[3].to, 3u);
  EXPECT_EQ(g.out_degree(1), 0u);
  EXPECT_EQ(g.out_degree(2), 1u);
  EXPECT_EQ(g.out_edges(2)[0].to, 0u);
  EXPECT_TRUE(g.is_contained(3));
  EXPECT_EQ(g.edge_count(), 5u);
}

// The read digraph is a function of the overlap set alone: a shuffled list
// with flipped (non-canonical) records and shorter duplicates of some pairs
// gives the same graph as the canonical sorted list, which skips the sort.
TEST(Digraph, BuildIgnoresRecordOrderOrientationAndShorterDuplicates) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    const std::size_t n = 10 + rng.next_below(40);
    std::vector<align::Overlap> sorted;
    for (ReadId q = 0; q < n; ++q) {
      for (ReadId r = q + 1; r < n; ++r) {
        if (rng.next_below(5) != 0) continue;
        align::Overlap o;
        o.query = q;
        o.ref = r;
        o.length = 50 + static_cast<std::uint32_t>(rng.next_below(50));
        o.kind = static_cast<align::OverlapKind>(rng.next_below(4));
        sorted.push_back(o);
      }
    }
    std::vector<align::Overlap> messy;
    for (const auto& o : sorted) {
      messy.push_back(rng.next_below(2) == 0 ? o : align::flipped(o));
      if (rng.next_below(3) == 0) {
        align::Overlap shorter = o;
        shorter.length = o.length - 1 - static_cast<std::uint32_t>(
                                            rng.next_below(o.length - 40));
        shorter.kind = static_cast<align::OverlapKind>(rng.next_below(4));
        messy.push_back(rng.next_below(2) == 0 ? shorter
                                               : align::flipped(shorter));
      }
    }
    rng.shuffle(messy);

    const Digraph a = build_read_digraph(n, sorted);
    const Digraph b = build_read_digraph(n, messy);
    // Expected graph, straight from the distinct records.
    std::vector<std::vector<std::pair<NodeId, Weight>>> rows(n);
    std::vector<bool> contained(n, false);
    std::size_t edges = 0;
    for (const auto& o : sorted) {
      const auto w = static_cast<Weight>(o.length);
      switch (o.kind) {
        case align::OverlapKind::kSuffixPrefix:
          rows[o.query].emplace_back(o.ref, w);
          ++edges;
          break;
        case align::OverlapKind::kPrefixSuffix:
          rows[o.ref].emplace_back(o.query, w);
          ++edges;
          break;
        case align::OverlapKind::kQueryContained:
          contained[o.query] = true;
          break;
        case align::OverlapKind::kRefContained:
          contained[o.ref] = true;
          break;
      }
    }
    for (const Digraph* g : {&a, &b}) {
      ASSERT_EQ(g->node_count(), n);
      EXPECT_EQ(g->edge_count(), edges) << "seed " << seed;
      for (NodeId v = 0; v < n; ++v) {
        std::sort(rows[v].begin(), rows[v].end());
        const auto out = g->out_edges(v);
        ASSERT_EQ(out.size(), rows[v].size()) << "seed " << seed << " v " << v;
        for (std::size_t i = 0; i < out.size(); ++i) {
          EXPECT_EQ(out[i].to, rows[v][i].first) << "seed " << seed;
          EXPECT_EQ(out[i].overlap, rows[v][i].second) << "seed " << seed;
        }
        EXPECT_EQ(g->is_contained(v), contained[v]) << "seed " << seed;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Heavy-edge matching
// ---------------------------------------------------------------------------

TEST(HeavyEdgeMatching, MatchingIsSymmetricAndValid) {
  const Graph g = random_graph(42, 50, 80);
  Rng rng(7);
  const auto match = heavy_edge_matching(g, rng);
  ASSERT_EQ(match.size(), 50u);
  for (NodeId v = 0; v < 50; ++v) {
    EXPECT_EQ(match[match[v]], v);  // symmetric (self for unmatched)
    if (match[v] != v) {
      EXPECT_GT(g.edge_weight(v, match[v]), 0);  // matched along real edges
    }
  }
}

TEST(HeavyEdgeMatching, PrefersHeavyEdges) {
  // Star with one heavy spoke: the center must match the heavy neighbor.
  GraphBuilder b(4);
  b.add_edge(0, 1, 1);
  b.add_edge(0, 2, 100);
  b.add_edge(0, 3, 1);
  const Graph g = b.build();
  // Try several visit orders; whenever 0 is visited first it must pick 2.
  Rng rng(1);
  bool zero_matched_two = false;
  for (int trial = 0; trial < 10; ++trial) {
    const auto match = heavy_edge_matching(g, rng);
    if (match[0] == 2) zero_matched_two = true;
  }
  EXPECT_TRUE(zero_matched_two);
}

TEST(HeavyEdgeMatching, IsolatedNodesStayUnmatched) {
  GraphBuilder b(3);
  b.add_edge(0, 1, 5);
  const Graph g = b.build();
  Rng rng(3);
  const auto match = heavy_edge_matching(g, rng);
  EXPECT_EQ(match[2], 2u);
}

// ---------------------------------------------------------------------------
// Contraction
// ---------------------------------------------------------------------------

TEST(Contract, PreservesNodeWeightAndInternalizesMatchedEdges) {
  const Graph g = path_graph(6);
  Rng rng(5);
  const auto match = heavy_edge_matching(g, rng);
  std::vector<NodeId> parent;
  const Graph coarse = contract(g, match, parent);
  EXPECT_EQ(coarse.total_node_weight(), g.total_node_weight());
  EXPECT_LT(coarse.node_count(), g.node_count());
  ASSERT_EQ(parent.size(), g.node_count());
  for (const NodeId p : parent) EXPECT_LT(p, coarse.node_count());
  // Matched pairs share a parent.
  for (NodeId v = 0; v < g.node_count(); ++v) {
    EXPECT_EQ(parent[v], parent[match[v]]);
  }
}

TEST(Contract, EdgeWeightConservedUpToInternalized) {
  const Graph g = random_graph(77, 40, 60);
  Rng rng(9);
  const auto match = heavy_edge_matching(g, rng);
  std::vector<NodeId> parent;
  const Graph coarse = contract(g, match, parent);
  // Total edge weight decreases exactly by the internalized matched weight.
  Weight internalized = 0;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    if (match[v] > v) internalized += g.edge_weight(v, match[v]);
  }
  EXPECT_EQ(coarse.total_edge_weight(), g.total_edge_weight() - internalized);
}

// ---------------------------------------------------------------------------
// Multilevel set
// ---------------------------------------------------------------------------

TEST(Multilevel, MonotoneShrinkage) {
  const Graph g0 = random_graph(123, 200, 400);
  CoarsenConfig cfg;
  cfg.min_nodes = 8;
  cfg.max_levels = 12;
  const auto h = build_multilevel(g0, cfg);
  ASSERT_GE(h.depth(), 2u);
  for (std::size_t l = 1; l < h.depth(); ++l) {
    EXPECT_LT(h.levels[l].node_count(), h.levels[l - 1].node_count());
    EXPECT_EQ(h.levels[l].total_node_weight(), g0.total_node_weight());
  }
  EXPECT_EQ(h.parent.size(), h.depth() - 1);
}

TEST(Multilevel, StopsAtMinNodes) {
  const Graph g0 = path_graph(100);
  CoarsenConfig cfg;
  cfg.min_nodes = 30;
  cfg.max_levels = 20;
  const auto h = build_multilevel(g0, cfg);
  // Once a level has <= 30 nodes no further level is built.
  EXPECT_LE(h.coarsest().node_count(), 60u);  // halving overshoot bound
  for (std::size_t l = 0; l + 1 < h.depth(); ++l) {
    EXPECT_GT(h.levels[l].node_count(), cfg.min_nodes);
  }
}

TEST(Multilevel, ExpandClustersPartitionsFinestNodes) {
  const Graph g0 = random_graph(321, 64, 100);
  CoarsenConfig cfg;
  cfg.min_nodes = 4;
  const auto h = build_multilevel(g0, cfg);
  for (std::size_t l = 0; l < h.depth(); ++l) {
    const auto clusters = h.expand_clusters(l);
    ASSERT_EQ(clusters.size(), h.levels[l].node_count());
    std::set<NodeId> seen;
    for (NodeId c = 0; c < clusters.size(); ++c) {
      // Cluster weight equals coarse node weight.
      Weight w = 0;
      for (const NodeId v : clusters[c]) {
        EXPECT_TRUE(seen.insert(v).second) << "node in two clusters";
        w += g0.node_weight(v);
      }
      EXPECT_EQ(w, h.levels[l].node_weight(c));
    }
    EXPECT_EQ(seen.size(), g0.node_count());
  }
}

TEST(Multilevel, AncestorAtConsistentWithClusters) {
  const Graph g0 = random_graph(555, 40, 60);
  CoarsenConfig cfg;
  cfg.min_nodes = 4;
  const auto h = build_multilevel(g0, cfg);
  const std::size_t top = h.depth() - 1;
  const auto clusters = h.expand_clusters(top);
  for (NodeId c = 0; c < clusters.size(); ++c) {
    for (const NodeId v : clusters[c]) {
      EXPECT_EQ(h.ancestor_at(v, top), c);
    }
  }
}

TEST(Multilevel, DisconnectedGraphCoarsensComponentwise) {
  GraphBuilder b(6);
  b.add_edge(0, 1, 5);
  b.add_edge(2, 3, 5);
  // Nodes 4, 5 isolated.
  const Graph g0 = b.build();
  CoarsenConfig cfg;
  cfg.min_nodes = 2;
  const auto h = build_multilevel(g0, cfg);
  // Isolated nodes persist; edges never appear between components.
  for (const auto& level : h.levels) {
    EXPECT_LE(level.edge_count(), 2u);
  }
}

TEST(Multilevel, StallDetectionOnEdgelessGraph) {
  GraphBuilder b(50);
  const Graph g0 = b.build();  // no edges: nothing can match
  CoarsenConfig cfg;
  cfg.min_nodes = 4;
  const auto h = build_multilevel(g0, cfg);
  EXPECT_EQ(h.depth(), 1u);  // coarsening stalls immediately
}

}  // namespace
}  // namespace focus::graph
