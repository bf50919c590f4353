// Tests for the contiguity tester and hybrid graph set construction
// (paper §II-D, §III).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "align/overlapper.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "graph/coarsen.hpp"
#include "graph/contiguity.hpp"
#include "graph/graph.hpp"
#include "graph/hybrid.hpp"
#include "io/preprocess.hpp"
#include "sim/datasets.hpp"

namespace focus::graph {
namespace {

std::vector<std::uint32_t> uniform_lengths(std::size_t n, std::uint32_t len = 100) {
  return std::vector<std::uint32_t>(n, len);
}

// The hash-map contiguity tester that ContiguityTester's flat arrays
// replaced, kept verbatim as the oracle for verdicts, layouts and work.
class ReferenceTester {
 public:
  ReferenceTester(const Digraph& reads, std::vector<std::uint32_t> read_lengths)
      : reads_(&reads),
        read_lengths_(std::move(read_lengths)),
        stamp_(reads.node_count(), 0) {}

  double work() const { return work_; }

  bool contiguous(std::span<const NodeId> cluster,
                  std::vector<LayoutStep>* layout = nullptr) {
    if (cluster.empty()) return false;

    ++current_stamp_;
    const std::uint32_t mark = current_stamp_;
    for (const NodeId v : cluster) stamp_[v] = mark;

    std::vector<NodeId> active;
    active.reserve(cluster.size());
    for (const NodeId v : cluster) {
      if (!reads_->is_contained(v)) active.push_back(v);
    }
    work_ += static_cast<double>(cluster.size());

    if (active.size() <= 1) {
      if (layout != nullptr) {
        layout->clear();
        NodeId rep = kInvalidNode;
        if (!active.empty()) {
          rep = active.front();
        } else {
          rep = *std::max_element(
              cluster.begin(), cluster.end(), [&](NodeId a, NodeId b) {
                if (read_lengths_[a] != read_lengths_[b]) {
                  return read_lengths_[a] < read_lengths_[b];
                }
                return a < b;
              });
        }
        layout->push_back(LayoutStep{rep, 0});
      }
      return true;
    }

    std::unordered_map<NodeId, std::vector<DiEdge>> out;
    out.reserve(active.size());
    auto in_cluster_active = [&](NodeId v) {
      return stamp_[v] == mark && !reads_->is_contained(v);
    };
    for (const NodeId u : active) {
      auto& edges = out[u];
      for (const DiEdge& e : reads_->out_edges(u)) {
        if (in_cluster_active(e.to)) edges.push_back(e);
        work_ += 1.0;
      }
    }

    std::unordered_set<NodeId> direct;
    std::unordered_map<NodeId, std::vector<DiEdge>> reduced;
    reduced.reserve(active.size());
    for (const NodeId u : active) {
      const auto& edges = out[u];
      direct.clear();
      for (const DiEdge& e : edges) direct.insert(e.to);
      std::unordered_set<NodeId> transitive;
      for (const DiEdge& mid : edges) {
        for (const DiEdge& far : out[mid.to]) {
          work_ += 1.0;
          if (far.to != u && direct.contains(far.to)) transitive.insert(far.to);
        }
      }
      auto& keep = reduced[u];
      for (const DiEdge& e : edges) {
        if (!transitive.contains(e.to)) keep.push_back(e);
      }
    }

    std::unordered_map<NodeId, std::size_t> in_degree;
    std::size_t edge_total = 0;
    for (const NodeId u : active) {
      const auto& edges = reduced[u];
      if (edges.size() > 1) return false;
      edge_total += edges.size();
      for (const DiEdge& e : edges) {
        if (++in_degree[e.to] > 1) return false;
      }
    }
    if (edge_total != active.size() - 1) return false;

    NodeId start = kInvalidNode;
    for (const NodeId u : active) {
      if (in_degree.find(u) == in_degree.end()) {
        if (start != kInvalidNode) return false;
        start = u;
      }
    }
    if (start == kInvalidNode) return false;

    std::vector<LayoutStep> steps;
    steps.reserve(active.size());
    NodeId cur = start;
    for (;;) {
      const auto& edges = reduced[cur];
      if (edges.empty()) {
        steps.push_back(LayoutStep{cur, 0});
        break;
      }
      steps.push_back(LayoutStep{cur, edges.front().overlap});
      cur = edges.front().to;
    }
    if (steps.size() != active.size()) return false;

    if (layout != nullptr) *layout = std::move(steps);
    return true;
  }

 private:
  const Digraph* reads_;
  std::vector<std::uint32_t> read_lengths_;
  std::vector<std::uint32_t> stamp_;
  std::uint32_t current_stamp_ = 0;
  double work_ = 0.0;
};

// Runs one cluster through both testers and counts the calls whose verdict,
// layout or work delta differ. The layouts start non-empty so a tester that
// touched its layout on failure shows up too.
struct OracleTally {
  std::size_t calls = 0;
  std::size_t contiguous = 0;
  std::size_t mismatches = 0;

  void check(ContiguityTester& flat, ReferenceTester& ref,
             std::span<const NodeId> cluster, const std::string& ctx) {
    const std::vector<LayoutStep> sentinel = {LayoutStep{7, 7}};
    std::vector<LayoutStep> flat_layout = sentinel;
    std::vector<LayoutStep> ref_layout = sentinel;
    const double flat_before = flat.work();
    const double ref_before = ref.work();
    const bool flat_ok = flat.contiguous(cluster, &flat_layout);
    const bool ref_ok = ref.contiguous(cluster, &ref_layout);
    const bool same_layout =
        flat_layout.size() == ref_layout.size() &&
        std::equal(flat_layout.begin(), flat_layout.end(), ref_layout.begin(),
                   [](const LayoutStep& a, const LayoutStep& b) {
                     return a.read == b.read &&
                            a.overlap_to_next == b.overlap_to_next;
                   });
    const bool same = flat_ok == ref_ok && same_layout &&
                      flat.work() - flat_before == ref.work() - ref_before;
    ++calls;
    contiguous += ref_ok ? 1 : 0;
    if (!same) {
      ++mismatches;
      ADD_FAILURE() << ctx << ": flat " << flat_ok << " / reference " << ref_ok
                    << ", layout sizes " << flat_layout.size() << " / "
                    << ref_layout.size() << ", work "
                    << flat.work() - flat_before << " / "
                    << ref.work() - ref_before;
    }
  }
};

// ---------------------------------------------------------------------------
// ContiguityTester
// ---------------------------------------------------------------------------

TEST(Contiguity, SimplePathIsContiguous) {
  Digraph g(4);
  g.add_edge(0, 1, 60);
  g.add_edge(1, 2, 55);
  g.add_edge(2, 3, 70);
  g.finalize();
  ContiguityTester tester(g, uniform_lengths(4));
  std::vector<LayoutStep> layout;
  ASSERT_TRUE(tester.contiguous(std::vector<NodeId>{0, 1, 2, 3}, &layout));
  ASSERT_EQ(layout.size(), 4u);
  EXPECT_EQ(layout[0].read, 0u);
  EXPECT_EQ(layout[0].overlap_to_next, 60);
  EXPECT_EQ(layout[3].read, 3u);
  EXPECT_EQ(layout[3].overlap_to_next, 0);
}

TEST(Contiguity, SubclusterOfPathIsContiguous) {
  Digraph g(5);
  for (NodeId v = 0; v + 1 < 5; ++v) g.add_edge(v, v + 1, 50);
  g.finalize();
  ContiguityTester tester(g, uniform_lengths(5));
  EXPECT_TRUE(tester.contiguous(std::vector<NodeId>{1, 2, 3}));
}

TEST(Contiguity, BranchIsNotContiguous) {
  Digraph g(4);
  g.add_edge(0, 1, 50);
  g.add_edge(0, 2, 50);  // fork
  g.add_edge(1, 3, 50);
  g.add_edge(2, 3, 50);
  g.finalize();
  ContiguityTester tester(g, uniform_lengths(4));
  EXPECT_FALSE(tester.contiguous(std::vector<NodeId>{0, 1, 2, 3}));
}

TEST(Contiguity, DisconnectedClusterIsNotContiguous) {
  Digraph g(4);
  g.add_edge(0, 1, 50);
  g.add_edge(2, 3, 50);
  g.finalize();
  ContiguityTester tester(g, uniform_lengths(4));
  EXPECT_FALSE(tester.contiguous(std::vector<NodeId>{0, 1, 2, 3}));
  EXPECT_TRUE(tester.contiguous(std::vector<NodeId>{0, 1}));
}

TEST(Contiguity, CycleIsNotContiguous) {
  Digraph g(3);
  g.add_edge(0, 1, 50);
  g.add_edge(1, 2, 50);
  g.add_edge(2, 0, 50);
  g.finalize();
  ContiguityTester tester(g, uniform_lengths(3));
  EXPECT_FALSE(tester.contiguous(std::vector<NodeId>{0, 1, 2}));
}

TEST(Contiguity, TransitiveEdgesDoNotBreakPath) {
  // 0->1->2 with the redundant transitive edge 0->2: still one contig.
  Digraph g(3);
  g.add_edge(0, 1, 70);
  g.add_edge(1, 2, 70);
  g.add_edge(0, 2, 40);  // transitive
  g.finalize();
  ContiguityTester tester(g, uniform_lengths(3));
  std::vector<LayoutStep> layout;
  ASSERT_TRUE(tester.contiguous(std::vector<NodeId>{0, 1, 2}, &layout));
  ASSERT_EQ(layout.size(), 3u);
  EXPECT_EQ(layout[1].read, 1u);
}

TEST(Contiguity, ContainedReadsExcludedFromPath) {
  Digraph g(4);
  g.add_edge(0, 1, 60);
  g.add_edge(1, 2, 60);
  g.mark_contained(3);  // floats inside the cluster without layout edges
  g.finalize();
  ContiguityTester tester(g, uniform_lengths(4));
  std::vector<LayoutStep> layout;
  ASSERT_TRUE(tester.contiguous(std::vector<NodeId>{0, 1, 2, 3}, &layout));
  EXPECT_EQ(layout.size(), 3u);  // contained read not in the layout
}

TEST(Contiguity, SingletonAlwaysContiguous) {
  Digraph g(2);
  g.finalize();
  ContiguityTester tester(g, uniform_lengths(2));
  std::vector<LayoutStep> layout;
  ASSERT_TRUE(tester.contiguous(std::vector<NodeId>{1}, &layout));
  ASSERT_EQ(layout.size(), 1u);
  EXPECT_EQ(layout[0].read, 1u);
}

TEST(Contiguity, AllContainedClusterUsesLongestRead) {
  Digraph g(3);
  g.mark_contained(0);
  g.mark_contained(1);
  g.mark_contained(2);
  g.finalize();
  ContiguityTester tester(g, {80, 120, 100});
  std::vector<LayoutStep> layout;
  ASSERT_TRUE(tester.contiguous(std::vector<NodeId>{0, 1, 2}, &layout));
  ASSERT_EQ(layout.size(), 1u);
  EXPECT_EQ(layout[0].read, 1u);  // the longest
}

TEST(Contiguity, EmptyClusterNotContiguous) {
  Digraph g(1);
  g.finalize();
  ContiguityTester tester(g, uniform_lengths(1));
  EXPECT_FALSE(tester.contiguous(std::vector<NodeId>{}));
}

TEST(Contiguity, TwoParallelChainsNotContiguous) {
  // Two chains inside one cluster (e.g. fwd and rc strands).
  Digraph g(4);
  g.add_edge(0, 1, 50);
  g.add_edge(2, 3, 50);
  g.finalize();
  ContiguityTester tester(g, uniform_lengths(4));
  EXPECT_FALSE(tester.contiguous(std::vector<NodeId>{0, 1, 2, 3}));
}

TEST(Contiguity, RejectsForeignOrRepeatedMembers) {
  Digraph g(3);
  g.add_edge(0, 1, 50);
  g.finalize();
  ContiguityTester tester(g, uniform_lengths(3));
  EXPECT_THROW(tester.contiguous(std::vector<NodeId>{0, 3}), Error);
  EXPECT_THROW(tester.contiguous(std::vector<NodeId>{0, 1, 0}), Error);
  // A rejected call leaves the tester usable.
  EXPECT_TRUE(tester.contiguous(std::vector<NodeId>{0, 1}));
}

// ---------------------------------------------------------------------------
// ContiguityTester against the reference tester
// ---------------------------------------------------------------------------

// Every node of every multilevel level of D1-D3 at scale 0.25, built with the
// benchmark's §VI-A overlap and coarsening knobs. One tester per dataset
// serves every call, so stamps and epochs are reused thousands of times.
TEST(ContiguityOracle, RealClustersMatchReferenceOnD1ToD3) {
  align::OverlapperConfig overlap;
  overlap.k = 14;
  overlap.min_kmer_hits = 3;
  overlap.min_overlap = 50;
  overlap.min_identity = 0.90;
  overlap.subsets = 4;
  CoarsenConfig coarsen;
  coarsen.min_nodes = 48;
  coarsen.max_levels = 10;
  for (int d = 1; d <= 3; ++d) {
    const auto ds = sim::make_dataset(d, /*scale=*/0.25);
    const io::ReadSet reads = io::preprocess(ds.data.reads, {});
    const auto overlaps =
        align::find_overlaps_parallel(reads, overlap, 1).overlaps;
    const auto ml =
        build_multilevel(build_overlap_graph(reads.size(), overlaps), coarsen);
    const Digraph rg = build_read_digraph(reads.size(), overlaps);
    std::vector<std::uint32_t> lengths;
    for (const auto& r : reads) {
      lengths.push_back(static_cast<std::uint32_t>(r.seq.size()));
    }
    ContiguityTester flat(rg, lengths);
    ReferenceTester ref(rg, lengths);
    OracleTally tally;
    for (std::size_t l = 0; l < ml.depth(); ++l) {
      const auto clusters = ml.expand_clusters(l);
      for (NodeId v = 0; v < clusters.size(); ++v) {
        tally.check(flat, ref, clusters[v],
                    "D" + std::to_string(d) + " level " + std::to_string(l) +
                        " node " + std::to_string(v));
      }
    }
    EXPECT_EQ(tally.mismatches, 0u) << "D" << d;
    EXPECT_EQ(flat.work(), ref.work()) << "D" << d;
    // The sweep must reach both verdicts on clusters larger than one read.
    EXPECT_GT(tally.contiguous, reads.size()) << "D" << d;
    EXPECT_LT(tally.contiguous, tally.calls) << "D" << d;
  }
}

// Seeded random read graphs: a backbone path with transitive shortcuts, plus
// forks, back edges (cycles), parallel edges and contained reads. Clusters
// are backbone windows (mostly paths), random subsets, all-contained sets,
// singletons and repeats of the previous cluster, each in shuffled order.
TEST(ContiguityOracle, RandomGraphsMatchReference) {
  OracleTally tally;
  for (std::uint64_t seed = 1; seed <= 150; ++seed) {
    Rng rng(seed);
    const std::size_t n = 8 + rng.next_below(56);
    const std::vector<NodeId> order = rng.permutation(static_cast<NodeId>(n));
    auto weight = [&] { return static_cast<Weight>(40 + rng.next_below(60)); };
    Digraph g(n);
    for (std::size_t i = 0; i + 1 < n; ++i) {
      g.add_edge(order[i], order[i + 1], weight());
      if (i + 2 < n && rng.next_below(3) == 0) {
        g.add_edge(order[i], order[i + 2], weight());  // transitive triangle
      }
    }
    const std::size_t extra = rng.next_below(n / 2 + 1);
    for (std::size_t e = 0; e < extra; ++e) {
      const auto u = static_cast<NodeId>(rng.next_below(n));
      const auto v = static_cast<NodeId>(rng.next_below(n));
      if (u != v) g.add_edge(u, v, weight());  // fork, back edge or duplicate
    }
    std::vector<NodeId> contained;
    for (NodeId v = 0; v < n; ++v) {
      if (rng.next_below(6) == 0) {
        g.mark_contained(v);
        contained.push_back(v);
      }
    }
    g.finalize();
    std::vector<std::uint32_t> lengths(n);
    for (auto& len : lengths) len = 60 + static_cast<std::uint32_t>(rng.next_below(4));

    ContiguityTester flat(g, lengths);
    ReferenceTester ref(g, lengths);
    std::vector<NodeId> cluster;
    for (int call = 0; call < 60; ++call) {
      const std::size_t shape = rng.next_below(6);
      if (shape == 0 && !cluster.empty()) {
        // Same cluster again: the stamps of the previous call must not leak.
      } else if (shape <= 2) {
        const std::size_t len = 1 + rng.next_below(n);
        const std::size_t at = rng.next_below(n - len + 1);
        cluster.assign(order.begin() + static_cast<std::ptrdiff_t>(at),
                       order.begin() + static_cast<std::ptrdiff_t>(at + len));
      } else if (shape == 3 && !contained.empty()) {
        cluster = contained;
      } else if (shape == 4) {
        cluster = {static_cast<NodeId>(rng.next_below(n))};
      } else {
        cluster.clear();
        for (NodeId v = 0; v < n; ++v) {
          if (rng.next_below(2) == 0) cluster.push_back(v);
        }
      }
      rng.shuffle(cluster);
      tally.check(flat, ref, cluster,
                  "seed " + std::to_string(seed) + " call " +
                      std::to_string(call));
    }
  }
  EXPECT_EQ(tally.mismatches, 0u);
  EXPECT_GT(tally.contiguous, tally.calls / 4);
  EXPECT_LT(tally.contiguous, tally.calls * 3 / 4);
}

// ---------------------------------------------------------------------------
// Hybrid graph set
// ---------------------------------------------------------------------------

// A linear read chain: coarsening produces clusters that are all contiguous,
// so representatives come from coarse levels and the hybrid graph is small.
struct LinearFixture {
  Graph g0;
  Digraph reads;
  GraphHierarchy ml;

  explicit LinearFixture(std::size_t n) : reads(n) {
    GraphBuilder b(n);
    for (NodeId v = 0; v + 1 < n; ++v) {
      b.add_edge(v, v + 1, 60);
      reads.add_edge(v, v + 1, 60);
    }
    reads.finalize();
    g0 = b.build();
    CoarsenConfig cfg;
    cfg.min_nodes = 4;
    cfg.max_levels = 6;
    ml = build_multilevel(g0, cfg);
  }
};

TEST(Hybrid, LinearChainCollapsesToFewRepresentatives) {
  LinearFixture fx(64);
  const auto hybrid = build_hybrid(fx.ml, fx.reads, uniform_lengths(64));
  // Every cluster of a pure chain is contiguous, so representatives come
  // from the coarsest level.
  EXPECT_EQ(hybrid.hierarchy.depth(), fx.ml.depth());
  EXPECT_LT(hybrid.hybrid_graph().node_count(), fx.ml.levels[0].node_count());
  EXPECT_EQ(hybrid.hybrid_graph().node_count(),
            fx.ml.coarsest().node_count());
}

TEST(Hybrid, ClusterReadsPartitionAllReads) {
  LinearFixture fx(48);
  const auto hybrid = build_hybrid(fx.ml, fx.reads, uniform_lengths(48));
  std::set<NodeId> seen;
  for (NodeId h = 0; h < hybrid.cluster_reads.size(); ++h) {
    for (const NodeId r : hybrid.cluster_reads[h]) {
      EXPECT_TRUE(seen.insert(r).second) << "read in two clusters";
    }
  }
  EXPECT_EQ(seen.size(), 48u);
}

TEST(Hybrid, NodeWeightsMatchClusterSizes) {
  LinearFixture fx(32);
  const auto hybrid = build_hybrid(fx.ml, fx.reads, uniform_lengths(32));
  const Graph& hg = hybrid.hybrid_graph();
  ASSERT_EQ(hg.node_count(), hybrid.cluster_reads.size());
  for (NodeId h = 0; h < hg.node_count(); ++h) {
    EXPECT_EQ(hg.node_weight(h),
              static_cast<Weight>(hybrid.cluster_reads[h].size()));
  }
  EXPECT_EQ(hg.total_node_weight(), fx.g0.total_node_weight());
}

TEST(Hybrid, LayoutsCoverEveryHybridNode) {
  LinearFixture fx(40);
  const auto hybrid = build_hybrid(fx.ml, fx.reads, uniform_lengths(40));
  ASSERT_EQ(hybrid.layouts.size(), hybrid.cluster_reads.size());
  for (NodeId h = 0; h < hybrid.layouts.size(); ++h) {
    EXPECT_FALSE(hybrid.layouts[h].empty());
    // Layout reads are cluster members.
    const std::set<NodeId> members(hybrid.cluster_reads[h].begin(),
                                   hybrid.cluster_reads[h].end());
    for (const auto& step : hybrid.layouts[h]) {
      EXPECT_TRUE(members.contains(step.read));
    }
  }
}

TEST(Hybrid, ParentMapsAreConsistent) {
  LinearFixture fx(64);
  const auto hybrid = build_hybrid(fx.ml, fx.reads, uniform_lengths(64));
  const auto& h = hybrid.hierarchy;
  ASSERT_EQ(h.parent.size(), h.depth() - 1);
  for (std::size_t l = 0; l + 1 < h.depth(); ++l) {
    ASSERT_EQ(h.parent[l].size(), h.levels[l].node_count());
    Weight child_weight_sum = 0;
    std::vector<Weight> parent_weight(h.levels[l + 1].node_count(), 0);
    for (NodeId v = 0; v < h.levels[l].node_count(); ++v) {
      ASSERT_LT(h.parent[l][v], h.levels[l + 1].node_count());
      parent_weight[h.parent[l][v]] += h.levels[l].node_weight(v);
      child_weight_sum += h.levels[l].node_weight(v);
    }
    for (NodeId p = 0; p < h.levels[l + 1].node_count(); ++p) {
      EXPECT_EQ(parent_weight[p], h.levels[l + 1].node_weight(p));
    }
    EXPECT_EQ(child_weight_sum, h.levels[l + 1].total_node_weight());
  }
}

TEST(Hybrid, BranchingForcesFinerRepresentatives) {
  // A cross/star topology in the read digraph: coarse clusters spanning the
  // branch cannot be contiguous, so they must expand toward finer levels.
  const std::size_t n = 33;
  Digraph reads(n);
  GraphBuilder b(n);
  // Chain 0..15, chain 16..31, both feeding node 32 (a junction).
  for (NodeId v = 0; v + 1 < 16; ++v) {
    b.add_edge(v, v + 1, 60);
    reads.add_edge(v, v + 1, 60);
  }
  for (NodeId v = 16; v + 1 < 32; ++v) {
    b.add_edge(v, v + 1, 60);
    reads.add_edge(v, v + 1, 60);
  }
  b.add_edge(15, 32, 50);
  reads.add_edge(15, 32, 50);
  b.add_edge(31, 32, 50);
  reads.add_edge(31, 32, 50);
  reads.finalize();
  const Graph g0 = b.build();
  CoarsenConfig cfg;
  cfg.min_nodes = 2;
  cfg.max_levels = 8;
  const auto ml = build_multilevel(g0, cfg);
  const auto hybrid = build_hybrid(ml, reads, uniform_lengths(n));
  // The junction prevents total collapse: more hybrid nodes than coarsest
  // nodes, fewer than reads.
  EXPECT_GT(hybrid.hybrid_graph().node_count(), ml.coarsest().node_count());
  EXPECT_LT(hybrid.hybrid_graph().node_count(), n);
  // Representative level histogram sums to the hybrid node count.
  std::size_t reps = 0;
  for (const auto count : hybrid.reps_per_level) reps += count;
  EXPECT_EQ(reps, hybrid.hybrid_graph().node_count());
}

TEST(Hybrid, ProjectToReadsAssignsEveryRead) {
  LinearFixture fx(32);
  const auto hybrid = build_hybrid(fx.ml, fx.reads, uniform_lengths(32));
  std::vector<PartId> parts(hybrid.hybrid_graph().node_count());
  for (NodeId h = 0; h < parts.size(); ++h) {
    parts[h] = static_cast<PartId>(h % 4);
  }
  const auto read_parts = hybrid.project_to_reads(parts, 32);
  ASSERT_EQ(read_parts.size(), 32u);
  for (NodeId r = 0; r < 32; ++r) {
    EXPECT_NE(read_parts[r], kNoPart);
    // The read's partition equals its cluster's partition.
  }
  for (NodeId h = 0; h < hybrid.cluster_reads.size(); ++h) {
    for (const NodeId r : hybrid.cluster_reads[h]) {
      EXPECT_EQ(read_parts[r], parts[h]);
    }
  }
}

TEST(Hybrid, HybridEdgesReflectFinestEdges) {
  LinearFixture fx(32);
  const auto hybrid = build_hybrid(fx.ml, fx.reads, uniform_lengths(32));
  const Graph& hg = hybrid.hybrid_graph();
  // A chain's hybrid graph is itself a chain: edge count = node count - 1
  // (single component, no extra edges).
  EXPECT_EQ(hg.edge_count(), hg.node_count() - 1);
  // Total edge weight = G0 total minus weight internal to clusters.
  EXPECT_LE(hg.total_edge_weight(), fx.g0.total_edge_weight());
}

TEST(Hybrid, SingleLevelHierarchy) {
  // Edge case: multilevel set with only G0 (no coarsening possible).
  GraphBuilder b(3);
  const Graph g0 = b.build();  // no edges
  GraphHierarchy ml;
  ml.levels.push_back(g0);
  Digraph reads(3);
  reads.finalize();
  const auto hybrid = build_hybrid(ml, reads, uniform_lengths(3));
  EXPECT_EQ(hybrid.hierarchy.depth(), 1u);
  EXPECT_EQ(hybrid.hybrid_graph().node_count(), 3u);
  for (const auto& layout : hybrid.layouts) {
    EXPECT_EQ(layout.size(), 1u);
  }
}

TEST(Hybrid, RejectsHierarchyOverAnotherReadSet) {
  // The finest level must have one node per read: a larger hierarchy would
  // hand the tester reads the read graph does not have.
  LinearFixture fx(64);
  Digraph three(3);
  three.finalize();
  EXPECT_THROW(build_hybrid(fx.ml, three, uniform_lengths(3)), Error);
  Digraph more(80);
  more.finalize();
  EXPECT_THROW(build_hybrid(fx.ml, more, uniform_lengths(80)), Error);
}

}  // namespace
}  // namespace focus::graph
