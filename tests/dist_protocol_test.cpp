// Tests for the symmetric owner-computes protocol (DESIGN.md §7b): the
// master and symmetric drivers must produce byte-identical simplified
// graphs, stats counters and traversal paths at every rank count, the
// FOCUS_DIST_PROTOCOL selector must parse strictly, and the symmetric
// runtime stats must be bit-deterministic across reruns.
//
// Heavy grid variants (full pipeline on the simulated datasets D1–D3) are
// labelled perf-smoke in tests/CMakeLists.txt.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/assembler.hpp"
#include "dist/asm_graph.hpp"
#include "dist/parallel.hpp"
#include "dist/simplify.hpp"
#include "dist/traverse.hpp"
#include "io/preprocess.hpp"
#include "sim/datasets.hpp"

namespace focus::dist {
namespace {

const DistConfig kMasterCfg{DistProtocol::kMaster};
const DistConfig kSymmetricCfg{DistProtocol::kSymmetric};

std::string random_seq(Rng& rng, std::size_t len) {
  std::string s;
  for (std::size_t i = 0; i < len; ++i) s.push_back("ACGT"[rng.next_below(4)]);
  return s;
}

// Same fixture as dist_test.cpp: a 20-contig chain with transitive
// shortcuts, junk spurs and a contained fragment — all simplify phases and
// the cross-partition traversal join have work to do.
AsmGraph make_complex_graph(std::uint64_t seed) {
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

void expect_same_graph(const AsmGraph& got, const AsmGraph& want,
                       const std::string& context) {
  ASSERT_EQ(got.node_count(), want.node_count()) << context;
  for (NodeId v = 0; v < want.node_count(); ++v) {
    EXPECT_EQ(got.node_live(v), want.node_live(v)) << context << " node " << v;
  }
  ASSERT_EQ(got.edge_count(), want.edge_count()) << context;
  for (EdgeId e = 0; e < want.edge_count(); ++e) {
    EXPECT_EQ(got.edge(e).removed, want.edge(e).removed)
        << context << " edge " << e;
    EXPECT_EQ(got.edge(e).verified, want.edge(e).verified)
        << context << " edge " << e;
    EXPECT_EQ(got.edge(e).overlap, want.edge(e).overlap)
        << context << " edge " << e;
    EXPECT_EQ(got.edge(e).identity, want.edge(e).identity)
        << context << " edge " << e;
  }
}

void expect_same_stats(const SimplifyStats& got, const SimplifyStats& want,
                       const std::string& context) {
  EXPECT_EQ(got.transitive_edges, want.transitive_edges) << context;
  EXPECT_EQ(got.false_edges, want.false_edges) << context;
  EXPECT_EQ(got.contained_nodes, want.contained_nodes) << context;
  EXPECT_EQ(got.verified_edges, want.verified_edges) << context;
  EXPECT_EQ(got.tip_nodes, want.tip_nodes) << context;
  EXPECT_EQ(got.bubble_nodes, want.bubble_nodes) << context;
}

// ---------------------------------------------------------------------------
// FOCUS_DIST_PROTOCOL parsing
// ---------------------------------------------------------------------------

// RAII save/restore so the suite never leaks an environment change into
// other tests in the same binary.
class ScopedEnv {
 public:
  explicit ScopedEnv(const char* name) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) saved_ = old;
    had_ = old != nullptr;
  }
  ~ScopedEnv() {
    if (had_) {
      ::setenv(name_, saved_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  void set(const char* value) { ::setenv(name_, value, 1); }
  void unset() { ::unsetenv(name_); }

 private:
  const char* name_;
  std::string saved_;
  bool had_ = false;
};

TEST(DistProtocolEnv, UnsetAndEmptyDefaultToSymmetric) {
  ScopedEnv env("FOCUS_DIST_PROTOCOL");
  env.unset();
  EXPECT_EQ(dist_protocol_from_env(), DistProtocol::kSymmetric);
  EXPECT_EQ(DistConfig{}.protocol, DistProtocol::kSymmetric);
  env.set("");
  EXPECT_EQ(dist_protocol_from_env(), DistProtocol::kSymmetric);
}

TEST(DistProtocolEnv, NamedProtocolsParse) {
  ScopedEnv env("FOCUS_DIST_PROTOCOL");
  env.set("master");
  EXPECT_EQ(dist_protocol_from_env(), DistProtocol::kMaster);
  EXPECT_EQ(DistConfig{}.protocol, DistProtocol::kMaster);
  env.set("symmetric");
  EXPECT_EQ(dist_protocol_from_env(), DistProtocol::kSymmetric);
  EXPECT_EQ(DistConfig{}.protocol, DistProtocol::kSymmetric);
}

TEST(DistProtocolEnv, TypoThrowsInsteadOfSilentFallback) {
  ScopedEnv env("FOCUS_DIST_PROTOCOL");
  env.set("symetric");
  EXPECT_THROW(dist_protocol_from_env(), Error);
}

// ---------------------------------------------------------------------------
// Master == symmetric equivalence sweep
// ---------------------------------------------------------------------------

class DistProtocolSweep : public ::testing::TestWithParam<int> {};

TEST_P(DistProtocolSweep, SimplifyByteIdenticalToMaster) {
  const int nranks = GetParam();
  for (const PartId parts : {PartId{4}, PartId{8}}) {
    AsmGraph master_g = make_complex_graph(100);
    AsmGraph sym_g = make_complex_graph(100);
    const auto part = striped_partition(master_g, parts);
    SimplifyConfig cfg;
    const auto master = simplify_parallel(master_g, part, parts, cfg, nranks,
                                          {}, 1, {}, {}, kMasterCfg);
    const auto sym = simplify_parallel(sym_g, part, parts, cfg, nranks, {}, 1,
                                       {}, {}, kSymmetricCfg);
    const std::string context =
        "ranks " + std::to_string(nranks) + " parts " + std::to_string(parts);
    expect_same_stats(sym.stats, master.stats, context);
    expect_same_graph(sym_g, master_g, context);
  }
}

TEST_P(DistProtocolSweep, TraverseByteIdenticalToMaster) {
  const int nranks = GetParam();
  for (const PartId parts : {PartId{4}, PartId{8}}) {
    AsmGraph g = make_complex_graph(200);
    SimplifyConfig cfg;
    simplify_serial(g, cfg);
    const auto part = striped_partition(g, parts);
    const auto master =
        traverse_parallel(g, part, parts, nranks, {}, 1, {}, {}, kMasterCfg);
    const auto sym =
        traverse_parallel(g, part, parts, nranks, {}, 1, {}, {}, kSymmetricCfg);
    ASSERT_EQ(sym.paths, master.paths)
        << "ranks " << nranks << " parts " << parts;
  }
}

TEST_P(DistProtocolSweep, TraverseCyclesByteIdenticalToMaster) {
  // Rings spanning partitions: the symmetric coordinator joins the logged
  // sub-paths and must emit every cycle with the exact master rotation.
  const int nranks = GetParam();
  AsmGraph g;
  Rng rng(18);
  for (const int len : {4, 7}) {
    std::vector<NodeId> ring;
    for (int i = 0; i < len; ++i) {
      ring.push_back(g.add_node(random_seq(rng, 80), 2));
    }
    for (int i = 0; i < len; ++i) {
      g.add_edge(ring[static_cast<std::size_t>(i)],
                 ring[static_cast<std::size_t>((i + 1) % len)], 40);
    }
  }
  const PartId parts = 4;
  const auto part = striped_partition(g, parts);
  const auto master =
      traverse_parallel(g, part, parts, nranks, {}, 1, {}, {}, kMasterCfg);
  const auto sym =
      traverse_parallel(g, part, parts, nranks, {}, 1, {}, {}, kSymmetricCfg);
  ASSERT_EQ(sym.paths, master.paths) << "ranks " << nranks;
}

TEST_P(DistProtocolSweep, TraverseMixedChainsAndCyclesByteIdentical) {
  // Many sub-path groups — disjoint cross-partition chains and rings
  // interleaved — scanned on different ranks and joined by the symmetric
  // coordinator from its log. The master protocol is the oracle at every
  // rank count, so the join must reproduce its exact path order.
  const int nranks = GetParam();
  AsmGraph g;
  Rng rng(77);
  // Four chains of varying length, node ids interleaved with the rings so
  // the striped partition scatters every structure across partitions.
  std::vector<std::vector<NodeId>> chains(4);
  for (int round = 0; round < 6; ++round) {
    for (std::size_t c = 0; c < chains.size(); ++c) {
      if (round < 3 + static_cast<int>(c)) {
        chains[c].push_back(g.add_node(random_seq(rng, 90), 2));
      }
    }
    if (round < 2) {
      std::vector<NodeId> ring;
      for (int i = 0; i < 5 + round; ++i) {
        ring.push_back(g.add_node(random_seq(rng, 70), 2));
      }
      for (std::size_t i = 0; i < ring.size(); ++i) {
        g.add_edge(ring[i], ring[(i + 1) % ring.size()], 30);
      }
    }
  }
  for (const auto& chain : chains) {
    for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
      g.add_edge(chain[i], chain[i + 1], 40);
    }
  }
  for (const PartId parts : {PartId{4}, PartId{8}}) {
    const auto part = striped_partition(g, parts);
    const auto master =
        traverse_parallel(g, part, parts, nranks, {}, 1, {}, {}, kMasterCfg);
    const auto sym =
        traverse_parallel(g, part, parts, nranks, {}, 1, {}, {}, kSymmetricCfg);
    ASSERT_EQ(sym.paths, master.paths)
        << "ranks " << nranks << " parts " << parts;
    // Every node appears in exactly one emitted path.
    std::vector<int> seen(g.node_count(), 0);
    for (const auto& path : sym.paths) {
      for (const NodeId v : path) seen[v] += 1;
    }
    for (NodeId v = 0; v < g.node_count(); ++v) {
      EXPECT_EQ(seen[v], g.node_live(v) ? 1 : 0) << "node " << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RankCounts, DistProtocolSweep,
                         ::testing::Values(1, 2, 4, 8));

TEST(DistProtocol, SymmetricRunStatsAreBitDeterministic) {
  const PartId parts = 8;
  const int nranks = 4;
  SimplifyConfig cfg;
  auto run_once = [&](mpr::RunStats* simplify_run, mpr::RunStats* trav_run) {
    AsmGraph g = make_complex_graph(300);
    const auto part = striped_partition(g, parts);
    const auto s = simplify_parallel(g, part, parts, cfg, nranks, {}, 1, {},
                                     {}, kSymmetricCfg);
    *simplify_run = s.run;
    const auto t =
        traverse_parallel(g, part, parts, nranks, {}, 1, {}, {}, kSymmetricCfg);
    *trav_run = t.run;
  };
  mpr::RunStats s1, t1, s2, t2;
  run_once(&s1, &t1);
  run_once(&s2, &t2);
  EXPECT_EQ(s1.makespan, s2.makespan);
  EXPECT_EQ(s1.rank_vtime, s2.rank_vtime);
  EXPECT_EQ(s1.messages, s2.messages);
  EXPECT_EQ(s1.bytes, s2.bytes);
  EXPECT_EQ(t1.makespan, t2.makespan);
  EXPECT_EQ(t1.rank_vtime, t2.rank_vtime);
  EXPECT_EQ(t1.messages, t2.messages);
  EXPECT_EQ(t1.bytes, t2.bytes);
}

TEST(DistProtocol, AssemblerConfigSelectsProtocol) {
  // FocusConfig::dist reaches stages 6 and 7: both protocols end to end
  // through the pipeline façade must agree on contigs and counters.
  const sim::Dataset d = sim::make_dataset(1, /*scale=*/0.15, /*coverage=*/6.0);
  core::FocusConfig cfg;
  cfg.overlap.k = 14;
  cfg.overlap.min_kmer_hits = 3;
  cfg.overlap.min_overlap = 50;
  cfg.overlap.min_identity = 0.90;
  cfg.partitions = 4;
  cfg.ranks = 4;
  cfg.dist = kMasterCfg;
  const auto master = core::assemble_reads(d.data.reads, cfg);
  cfg.dist = kSymmetricCfg;
  const auto sym = core::assemble_reads(d.data.reads, cfg);
  EXPECT_EQ(sym.contigs, master.contigs);
  EXPECT_EQ(sym.paths, master.paths);
  expect_same_stats(sym.simplify_stats, master.simplify_stats, "assembler");
}

// ---------------------------------------------------------------------------
// Heavy grid: full pipeline on the simulated datasets (perf-smoke label)
// ---------------------------------------------------------------------------

TEST(DistProtocolHeavy, GridDatasetsRanksByteIdentical) {
  // Datasets D1–D3 through the whole pipeline: at every rank count the
  // master run is the oracle and the symmetric protocol must reproduce its
  // simplified graph, contigs, paths and counters. The oracle runs per rank
  // count because the master protocol's own path order follows its gather
  // order (partitions striped p % ranks) — equivalence is per sweep point.
  for (const int ds : {1, 2, 3}) {
    const sim::Dataset d =
        sim::make_dataset(ds, /*scale=*/0.25, /*coverage=*/6.0);
    core::FocusConfig cfg;
    cfg.overlap.k = 14;
    cfg.overlap.min_kmer_hits = 3;
    cfg.overlap.min_overlap = 50;
    cfg.overlap.min_identity = 0.90;
    cfg.partitions = 8;
    for (const int nranks : {1, 2, 4, 8}) {
      cfg.ranks = nranks;
      cfg.dist = kMasterCfg;
      const auto master = core::assemble_reads(d.data.reads, cfg);
      cfg.dist = kSymmetricCfg;
      const auto sym = core::assemble_reads(d.data.reads, cfg);
      const std::string context =
          "dataset " + std::to_string(ds) + " ranks " + std::to_string(nranks);
      EXPECT_EQ(sym.contigs, master.contigs) << context;
      ASSERT_EQ(sym.paths, master.paths) << context;
      expect_same_stats(sym.simplify_stats, master.simplify_stats, context);
      expect_same_graph(sym.assembly_graph, master.assembly_graph, context);
      EXPECT_EQ(sym.stats.n50, master.stats.n50) << context;
      EXPECT_EQ(sym.stats.total_bases, master.stats.total_bases) << context;
    }
  }
}

}  // namespace
}  // namespace focus::dist
